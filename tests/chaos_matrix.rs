//! Chaos matrix: injected faults swept across every checkpoint boundary
//! of every algorithm.
//!
//! For each algorithm the matrix:
//!
//! 1. runs an uninterrupted *probe* with a checkpoint attached,
//!    capturing the baseline clustering, the full phase list, and the
//!    total launch/distance counters,
//! 2. for every boundary `b` (first `b` phases kept), resumes from a
//!    truncated checkpoint and asserts the result is core-equivalent to
//!    the baseline while doing strictly less device work,
//! 3. kills a fresh run with an injected kernel panic at the first
//!    launch past the boundary, then resumes from the checkpoint the
//!    dead run left behind — the realistic crash/recover path.
//!
//! Failing equivalence asserts print the `RunManifest` of the offending
//! run so it can be replayed bit-identically (see
//! `examples/replay_run.rs`). The dataset seed is taken from
//! `FDBSCAN_CHAOS_SEED` (default 1); CI sweeps several seeds.
//!
//! All devices are sequential (`workers = 0`): launch ordinals and
//! counter totals are exactly reproducible, which the fault-placement
//! arithmetic relies on.

use std::panic::{catch_unwind, AssertUnwindSafe};

use fdbscan::baselines::cudadclust::CUDA_DCLUST_ALGORITHM;
use fdbscan::baselines::gdbscan::GDBSCAN_ALGORITHM;
use fdbscan::baselines::{cuda_dclust, cuda_dclust_run_from, gdbscan, gdbscan_run_from};
use fdbscan::densebox::DENSEBOX_ALGORITHM;
use fdbscan::fdbscan_impl::FDBSCAN_ALGORITHM;
use fdbscan::labels::assert_core_equivalent;
use fdbscan::seq::dbscan_classic;
use fdbscan::{
    build_manifest, checkpoint_for, fdbscan, fdbscan_densebox, fdbscan_densebox_run_from,
    fdbscan_run_from, run_resilient, Clustering, Params, ResiliencePolicy, RunStats, PHASE_INDEX,
    PHASE_MAIN, PHASE_PREPROCESS,
};
use fdbscan_device::snapshot::PipelineCheckpoint;
use fdbscan_device::{Device, DeviceConfig, DeviceError, FaultPlan};
use fdbscan_geom::Point2;
use rand::{rngs::StdRng, Rng, SeedableRng};

fn chaos_seed() -> u64 {
    std::env::var("FDBSCAN_CHAOS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(1)
}

fn sequential() -> Device {
    Device::new(DeviceConfig::sequential())
}

fn random_points(n: usize, extent: f32, seed: u64) -> Vec<Point2> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| Point2::new([rng.gen_range(0.0..extent), rng.gen_range(0.0..extent)])).collect()
}

/// Sparse scatter plus a dense knot: exercises both the distance-heavy
/// sparse paths and DenseBox's dense-cell shortcut.
fn dataset(seed: u64) -> Vec<Point2> {
    let mut points = random_points(220, 4.0, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
    points
        .extend((0..60).map(|_| {
            Point2::new([2.0 + rng.gen_range(0.0..0.05), 2.0 + rng.gen_range(0.0..0.05)])
        }));
    points
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Algo {
    Fdbscan,
    DenseBox,
    GDbscan,
    CudaDclust,
}

impl Algo {
    const ALL: [Algo; 4] = [Algo::Fdbscan, Algo::DenseBox, Algo::GDbscan, Algo::CudaDclust];

    fn name(self) -> &'static str {
        match self {
            Algo::Fdbscan => FDBSCAN_ALGORITHM,
            Algo::DenseBox => DENSEBOX_ALGORITHM,
            Algo::GDbscan => GDBSCAN_ALGORITHM,
            Algo::CudaDclust => CUDA_DCLUST_ALGORITHM,
        }
    }

    fn run(
        self,
        device: &Device,
        points: &[Point2],
        params: Params,
    ) -> Result<(Clustering, RunStats), DeviceError> {
        match self {
            Algo::Fdbscan => fdbscan(device, points, params),
            Algo::DenseBox => fdbscan_densebox(device, points, params),
            Algo::GDbscan => gdbscan(device, points, params),
            Algo::CudaDclust => cuda_dclust(device, points, params),
        }
    }

    fn run_from(
        self,
        device: &Device,
        points: &[Point2],
        params: Params,
        ckpt: &mut PipelineCheckpoint,
    ) -> Result<(Clustering, RunStats), DeviceError> {
        match self {
            Algo::Fdbscan => fdbscan_run_from(device, points, params, Default::default(), ckpt),
            Algo::DenseBox => {
                fdbscan_densebox_run_from(device, points, params, Default::default(), ckpt)
            }
            Algo::GDbscan => gdbscan_run_from(device, points, params, ckpt),
            Algo::CudaDclust => {
                cuda_dclust_run_from(device, points, params, Default::default(), ckpt)
            }
        }
    }

    /// Checkpoint phases whose *compute* path performs distance
    /// computations: a resumed run that skips any of them must show a
    /// strict distance-counter reduction.
    fn distance_phases(self) -> &'static [&'static str] {
        match self {
            // BVH/grid builds compute bounds, not distances; the
            // distance work is in core counting and the traversal.
            Algo::Fdbscan | Algo::DenseBox | Algo::CudaDclust => &[PHASE_PREPROCESS, PHASE_MAIN],
            // G-DBSCAN does all its n^2 distance work building the graph.
            Algo::GDbscan => &[PHASE_INDEX],
        }
    }

    /// Phases the `run_from` entry points can actually restore. The
    /// auxiliary `core_flags` entry G-DBSCAN records mid-index exists
    /// for the ladder handoff only, so a prefix containing nothing else
    /// resumes no work.
    fn restorable_phases(self) -> &'static [&'static str] {
        &[PHASE_INDEX, PHASE_PREPROCESS, PHASE_MAIN, fdbscan::PHASE_FINALIZE]
    }
}

struct Probe {
    baseline: Clustering,
    full_ckpt: PipelineCheckpoint,
    launches: u64,
    distances: u64,
}

/// One uninterrupted checkpointed run on a fresh sequential device.
fn probe(algo: Algo, points: &[Point2], params: Params) -> Probe {
    let device = sequential();
    let mut ckpt = checkpoint_for(algo.name(), points, params);
    let (baseline, _) = algo
        .run_from(&device, points, params, &mut ckpt)
        .unwrap_or_else(|e| panic!("{algo:?}: probe run failed: {e}"));
    let c = device.counters().snapshot();
    Probe {
        baseline,
        full_ckpt: ckpt,
        launches: c.kernel_launches,
        distances: c.distance_computations,
    }
}

/// Equivalence assert that prints the run's manifest on failure so the
/// failing configuration can be replayed.
#[allow(clippy::too_many_arguments)]
fn assert_equivalent_or_dump(
    baseline: &Clustering,
    got: &Clustering,
    algo: Algo,
    points: &[Point2],
    params: Params,
    device: &Device,
    ckpt: &PipelineCheckpoint,
    context: &str,
) {
    if catch_unwind(AssertUnwindSafe(|| assert_core_equivalent(baseline, got))).is_err() {
        let manifest = build_manifest(
            &format!("chaos-{}", algo.name()),
            algo.name(),
            points,
            params,
            chaos_seed(),
            device,
            ckpt,
        );
        panic!("{context}: resumed clustering diverged from baseline\n{}", manifest.to_pretty());
    }
}

/// The full boundary sweep for one algorithm: truncated resume and
/// kill-and-resume at every checkpoint boundary.
fn sweep(algo: Algo) {
    let points = dataset(chaos_seed());
    let params = Params::new(0.3, 4);
    let p = probe(algo, &points, params);
    let phases: Vec<String> = p.full_ckpt.phase_names().iter().map(|s| s.to_string()).collect();
    assert!(phases.len() >= 3, "{algo:?}: expected >= 3 checkpointed phases, got {phases:?}");

    for boundary in 0..=phases.len() {
        let prefix = &phases[..boundary];
        let resumes_work = prefix.iter().any(|ph| algo.restorable_phases().contains(&ph.as_str()));
        let skips_distances = prefix.iter().any(|ph| algo.distance_phases().contains(&ph.as_str()));

        // --- truncated resume: the "process died right at the
        // boundary" ideal case.
        let mut trunc = p.full_ckpt.clone();
        trunc.truncate_to(boundary);
        let resume_dev = sequential();
        let (resumed, _) = algo
            .run_from(&resume_dev, &points, params, &mut trunc)
            .unwrap_or_else(|e| panic!("{algo:?} boundary {boundary}: resume failed: {e}"));
        let rc = resume_dev.counters().snapshot();
        assert_equivalent_or_dump(
            &p.baseline,
            &resumed,
            algo,
            &points,
            params,
            &resume_dev,
            &trunc,
            &format!("{algo:?} truncated resume at boundary {boundary} ({prefix:?})"),
        );
        if resumes_work {
            assert!(
                rc.kernel_launches < p.launches,
                "{algo:?} boundary {boundary}: resume launched {} kernels, full run {}",
                rc.kernel_launches,
                p.launches
            );
        } else {
            assert_eq!(
                rc.kernel_launches, p.launches,
                "{algo:?} boundary {boundary}: nothing restorable, work must match the full run"
            );
        }
        if skips_distances {
            assert!(
                rc.distance_computations < p.distances,
                "{algo:?} boundary {boundary}: resume computed {} distances, full run {}",
                rc.distance_computations,
                p.distances
            );
        }

        // --- kill-and-resume: inject a kernel panic at the first
        // launch past the boundary, resume from the checkpoint the dead
        // run recorded. Launch ordinals are exact on sequential
        // devices: restore paths launch nothing, so the remainder's
        // launch count locates the boundary in the uninterrupted
        // schedule.
        let kill_ordinal = p.launches - rc.kernel_launches;
        if kill_ordinal >= p.launches {
            continue; // nothing left to kill past this boundary
        }
        let plan = FaultPlan::new(chaos_seed()).with_kernel_panic_at(kill_ordinal, 0);
        let kill_dev = Device::new(DeviceConfig::sequential().with_fault_plan(plan));
        let mut crash_ckpt = checkpoint_for(algo.name(), &points, params);
        // Every kernel launches through the fallible API, so the fault
        // surfaces as an `Err`: a dead run whose checkpoint survives.
        match algo.run_from(&kill_dev, &points, params, &mut crash_ckpt) {
            Ok(_) => panic!("{algo:?} boundary {boundary}: injected panic must kill the run"),
            Err(err) => assert!(
                matches!(
                    err,
                    DeviceError::KernelPanicked { .. } | DeviceError::FaultInjected { .. }
                ),
                "{algo:?} boundary {boundary}: unexpected failure {err:?}"
            ),
        }

        let recover_dev = sequential();
        let mut recover_ckpt = crash_ckpt.clone();
        let (recovered, _) = algo
            .run_from(&recover_dev, &points, params, &mut recover_ckpt)
            .unwrap_or_else(|e| panic!("{algo:?} boundary {boundary}: recovery failed: {e}"));
        let kc = recover_dev.counters().snapshot();
        assert_equivalent_or_dump(
            &p.baseline,
            &recovered,
            algo,
            &points,
            params,
            &recover_dev,
            &recover_ckpt,
            &format!("{algo:?} kill at launch {kill_ordinal} (boundary {boundary})"),
        );
        // The dead run checkpointed at least the boundary prefix, so
        // recovery is never more work than the truncated resume.
        assert!(
            kc.kernel_launches <= rc.kernel_launches,
            "{algo:?} boundary {boundary}: recovery launched {} kernels, truncated resume {}",
            kc.kernel_launches,
            rc.kernel_launches
        );
        if resumes_work {
            assert!(
                kc.kernel_launches < p.launches,
                "{algo:?} boundary {boundary}: crash recovery replayed the whole pipeline"
            );
        }
        if skips_distances {
            assert!(
                kc.distance_computations < p.distances,
                "{algo:?} boundary {boundary}: crash recovery recomputed all distances"
            );
        }
    }
}

#[test]
fn fdbscan_survives_kills_at_every_boundary() {
    sweep(Algo::Fdbscan);
}

#[test]
fn densebox_survives_kills_at_every_boundary() {
    sweep(Algo::DenseBox);
}

#[test]
fn gdbscan_survives_kills_at_every_boundary() {
    sweep(Algo::GDbscan);
}

#[test]
fn cuda_dclust_survives_kills_at_every_boundary() {
    sweep(Algo::CudaDclust);
}

#[test]
fn checkpointing_adds_no_device_work() {
    // The checkpoint plumbing must be free when nothing is restored: a
    // `run_from` with an empty checkpoint does exactly the device work
    // of the plain entry point.
    let points = dataset(chaos_seed());
    let params = Params::new(0.3, 4);
    for algo in Algo::ALL {
        let plain_dev = sequential();
        algo.run(&plain_dev, &points, params).unwrap();
        let plain = plain_dev.counters().snapshot();

        let ckpt_dev = sequential();
        let mut ckpt = checkpoint_for(algo.name(), &points, params);
        algo.run_from(&ckpt_dev, &points, params, &mut ckpt).unwrap();
        let with_ckpt = ckpt_dev.counters().snapshot();

        assert_eq!(plain.kernel_launches, with_ckpt.kernel_launches, "{algo:?}");
        assert_eq!(plain.distance_computations, with_ckpt.distance_computations, "{algo:?}");
    }
}

#[test]
fn ladder_recovers_from_seeded_transient_faults() {
    // Panic at the first, middle and last launch of a clean run's
    // schedule; the ladder's checkpointed retry must recover to the
    // oracle clustering without degrading off the first rung.
    let points = dataset(chaos_seed());
    let params = Params::new(0.3, 4);
    let oracle = dbscan_classic(&points, params);
    let probe = sequential();
    run_resilient(&probe, &points, params, ResiliencePolicy::default()).unwrap();
    let launches = probe.counters().snapshot().kernel_launches;
    for ordinal in [0, launches / 2, launches - 1] {
        let plan = FaultPlan::new(chaos_seed()).with_kernel_panic_at(ordinal, 0);
        let device = Device::new(DeviceConfig::sequential().with_fault_plan(plan));
        let (c, _, report) =
            run_resilient(&device, &points, params, ResiliencePolicy::default()).unwrap();
        assert!(!report.degraded(), "ordinal {ordinal}: one-shot fault must not degrade");
        assert_eq!(report.runs(), 2, "ordinal {ordinal}: one failure + one retry");
        assert_core_equivalent(&oracle, &c);
    }
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(10))]
    /// Differential: interrupting any algorithm at a random checkpoint
    /// boundary and resuming is indistinguishable (core/noise-wise)
    /// from never having been interrupted.
    #[test]
    fn interrupted_and_resumed_matches_uninterrupted(
        seed in proptest::prelude::any::<u64>(),
        n in 20usize..120,
        eps in 0.1f32..0.6,
        minpts in 1usize..6,
        boundary_sel in 0usize..8,
        algo_idx in 0usize..4,
    ) {
        let algo = Algo::ALL[algo_idx];
        let points = random_points(n, 3.0, seed);
        let params = Params::new(eps, minpts);
        let p = probe(algo, &points, params);
        let mut trunc = p.full_ckpt.clone();
        trunc.truncate_to(boundary_sel % (p.full_ckpt.len() + 1));
        let device = sequential();
        let (resumed, _) = algo.run_from(&device, &points, params, &mut trunc).unwrap();
        assert_core_equivalent(&p.baseline, &resumed);
    }
}
