//! The phase driver every algorithm runs on.
//!
//! The paper builds each algorithm from the same four phases (§3):
//! index → preprocess → main → finalize. A [`Pipeline`] owns what they
//! share, so an algorithm writes only its phase bodies:
//!
//! * at the start: input validation, the memory-peak reset and the run
//!   span. A checkpoint handed in is already this input's: the public
//!   `*_run_from` entry points reset a caller's mismatched one
//!   ([`crate::checkpoint::prepare`]), and the resilient ladder's rung
//!   checkpoints never leave the request they were made for;
//! * per phase: the phase span, restoring the phase's artifact from the
//!   checkpoint or running the body and recording what it returns, the
//!   work-counter delta, and the phase time, read from the phase span
//!   ([`PhaseSpan::finish`]) so `RunStats` and the trace agree exactly;
//! * at the end: the run time and the assembled [`RunStats`].
//!
//! A phase stays open after its body returns, until the next phase
//! starts: work done there (a reservation sized by the artifact, the
//! mixed primitives DenseBox derives from a restored grid) is charged to
//! that phase on both the computed and the restored path. Work before the first phase, and
//! index work the caller did before the start ([`CallerIndex`]), belongs
//! to the index phase.

use std::time::{Duration, Instant};

use fdbscan_device::{
    Checkpointable, CountersSnapshot, Device, DeviceError, PhaseSpan, PipelineCheckpoint,
};
use fdbscan_geom::Point;

use crate::checkpoint::{CoreSnapshot, PHASE_FINALIZE, PHASE_INDEX, PHASE_MAIN, PHASE_PREPROCESS};
use crate::framework::{CoreFlags, LazyCore};
use crate::stats::RunStats;

/// Index work the caller did before the run started (`fdbscan_auto`'s
/// decision grid, a k-d tree build): the counters when it began and its
/// wall time, both booked into the run's index phase.
pub(crate) struct CallerIndex {
    counters: CountersSnapshot,
    time: Duration,
}

impl CallerIndex {
    /// Runs `build` as the caller's index work on `device`.
    pub(crate) fn build<T>(device: &Device, build: impl FnOnce() -> T) -> (T, Self) {
        let counters = device.counters().snapshot();
        let start = Instant::now();
        let index = build();
        (index, Self { counters, time: start.elapsed() })
    }

    /// An index the caller built in `time` without device work.
    pub(crate) fn host_built(device: &Device, time: Duration) -> Self {
        Self { counters: device.counters().snapshot(), time }
    }
}

/// The run's checkpoint, when one is attached.
pub(crate) struct Recorder<'a> {
    device: &'a Device,
    ckpt: Option<&'a mut PipelineCheckpoint>,
}

impl Recorder<'_> {
    /// Records `artifact` under `phase`. No-op without a checkpoint.
    pub(crate) fn record<A: Checkpointable>(&mut self, phase: &str, artifact: &A) {
        if let Some(ckpt) = self.ckpt.as_deref_mut() {
            ckpt.record(phase, artifact);
        }
    }

    fn restore<A: Checkpointable>(&self, phase: &str) -> Option<A> {
        let artifact = self.ckpt.as_deref()?.restore(phase)?;
        self.device.tracer().instant(format!("checkpoint.restore: {phase}"));
        Some(artifact)
    }
}

/// One algorithm run, driven phase by phase.
pub(crate) struct Pipeline<'a> {
    device: &'a Device,
    ckpt: Recorder<'a>,
    /// The open phase, and its span once [`Pipeline::enter`] opened it.
    /// Declared before `run_span` so that a run failing mid-phase drops
    /// (and records) the spans innermost first.
    phase: &'static str,
    span: Option<PhaseSpan<'a>>,
    run_span: PhaseSpan<'a>,
    restored: bool,
    /// Counters when the run (or the caller's index work) started, and
    /// when the open phase started.
    start: CountersSnapshot,
    mark: CountersSnapshot,
    caller_time: Duration,
    stats: RunStats,
}

impl<'a> Pipeline<'a> {
    /// Validates the input, resets the memory peak and opens the run span
    /// `algorithm`. `ckpt` must have been made for this input and
    /// algorithm.
    pub(crate) fn start<const D: usize>(
        device: &'a Device,
        algorithm: &'static str,
        points: &[Point<D>],
        ckpt: Option<&'a mut PipelineCheckpoint>,
        caller: Option<CallerIndex>,
    ) -> Result<Self, DeviceError> {
        crate::validate_len(points.len())?;
        crate::validate_finite(points)?;
        debug_assert!(ckpt.as_deref().is_none_or(|c| c.algorithm() == algorithm));
        device.memory().reset_peak();
        let CallerIndex { counters, time } =
            caller.unwrap_or_else(|| CallerIndex::host_built(device, Duration::ZERO));
        Ok(Self {
            device,
            ckpt: Recorder { device, ckpt },
            phase: PHASE_INDEX,
            span: None,
            run_span: device.tracer().phase(algorithm),
            restored: false,
            start: counters,
            mark: counters,
            caller_time: time,
            stats: RunStats::default(),
        })
    }

    /// Closes the open phase and opens `phase` with its span.
    pub(crate) fn enter(&mut self, phase: &'static str) {
        // Entering the index phase first continues the pre-phase window.
        if phase != self.phase || self.span.is_some() {
            self.close();
        }
        self.phase = phase;
        self.span = Some(self.device.tracer().phase(phase));
    }

    /// Enters `phase`, then restores its artifact from the checkpoint or
    /// runs `compute` and records what it returns.
    pub(crate) fn phase<A: Checkpointable>(
        &mut self,
        phase: &'static str,
        compute: impl FnOnce() -> Result<A, DeviceError>,
    ) -> Result<A, DeviceError> {
        self.phase_with(phase, |_| compute())
    }

    /// [`Pipeline::phase`] whose body also records into the checkpoint,
    /// for an artifact that must survive a failure later in the phase.
    pub(crate) fn phase_with<A: Checkpointable>(
        &mut self,
        phase: &'static str,
        compute: impl FnOnce(&mut Recorder<'a>) -> Result<A, DeviceError>,
    ) -> Result<A, DeviceError> {
        self.enter(phase);
        let restored = self.ckpt.restore(phase);
        self.restored = restored.is_some();
        match restored {
            Some(artifact) => Ok(artifact),
            None => {
                let artifact = compute(&mut self.ckpt)?;
                self.ckpt.record(phase, &artifact);
                Ok(artifact)
            }
        }
    }

    /// Whether the last [`Pipeline::phase`]'s artifact was restored.
    pub(crate) fn restored(&self) -> bool {
        self.restored
    }

    /// The preprocess phase of the fused algorithms: core counting runs
    /// lazily inside the main kernel, so nothing launches here. The phase
    /// only pre-decides every point when the resilient ladder handed down
    /// core flags.
    pub(crate) fn lazy_core(&mut self, n: usize) -> (CoreFlags, LazyCore) {
        self.enter(PHASE_PREPROCESS);
        match self.ckpt.restore(PHASE_PREPROCESS) {
            Some(CoreSnapshot(core)) => {
                let lazy = LazyCore::from_decided(&core.to_vec());
                (core, lazy)
            }
            None => (CoreFlags::new(n), LazyCore::new(n)),
        }
    }

    /// Books the open phase: its span time and its counter delta.
    fn close(&mut self) {
        let s = &mut self.stats;
        let (time, counters) = match self.phase {
            PHASE_INDEX => (&mut s.index_time, &mut s.phase_counters.index),
            PHASE_PREPROCESS => (&mut s.preprocess_time, &mut s.phase_counters.preprocess),
            PHASE_MAIN => (&mut s.main_time, &mut s.phase_counters.main),
            PHASE_FINALIZE => (&mut s.finalize_time, &mut s.phase_counters.finalize),
            other => unreachable!("unknown phase {other}"),
        };
        if let Some(span) = self.span.take() {
            *time = span.finish();
        }
        let now = self.device.counters().snapshot();
        *counters = now.since(&self.mark);
        self.mark = now;
    }

    /// Closes the last phase and the run span and returns the run's
    /// stats. The caller's index time counts towards the index phase
    /// and the total.
    pub(crate) fn finish(mut self) -> RunStats {
        self.close();
        let mut stats = self.stats;
        stats.index_time += self.caller_time;
        stats.total_time = self.run_span.finish() + self.caller_time;
        stats.counters = self.mark.since(&self.start);
        stats.peak_memory_bytes = self.device.memory().peak();
        stats
    }
}
