//! Graceful degradation under device faults.
//!
//! [`run_resilient`] runs DBSCAN on a ladder of algorithms ordered by
//! decreasing device footprint and steps down a rung when one cannot
//! finish:
//!
//! ```text
//! [G-DBSCAN ──OOM──▶]  FDBSCAN-DenseBox  ──OOM──▶  FDBSCAN  ──OOM──▶  sequential
//!  (O(edges), opt-in)  (linear, grid+tree)         (linear, tree)     (host, O(1) device)
//! ```
//!
//! By default a run starts on FDBSCAN-DenseBox, the paper's algorithm.
//! G-DBSCAN, the paper's baseline, loses to it on time (§5, Fig. 4), and
//! its edge-list memory is quadratic in dense regions: at scale the
//! allocation simply fails (Fig. 4(h)). It stays on the ladder as an
//! opt-in first rung (`ResiliencePolicy { start: LadderLevel::GDbscan,
//! .. }`) for callers that want the baseline and its out-of-memory
//! step-down.
//!
//! * **Out-of-memory** steps down immediately: the footprint is a
//!   property of the algorithm, so retrying the same level cannot help.
//! * **Transient faults** (kernel panic, watchdog timeout, injected
//!   faults) retry the same level up to [`MAX_TRANSIENT_RETRIES`] times
//!   before stepping down — a fault plan that fires at one launch
//!   ordinal will not fire again, so the retry usually lands.
//! * **Invalid input** (NaN, too many points) is rejected before the
//!   first rung: no algorithm can cluster it. A rung that returns
//!   `InvalidInput` for validated input cannot take this input (for
//!   example, DenseBox's grid cannot key a tiny `eps`), so the ladder
//!   steps down at once, without a retry.
//! * The sequential oracle never touches the device and cannot fail, so
//!   a valid input always produces a clustering.
//!
//! When the device has a memory budget, a **pre-flight estimate** skips
//! levels whose predicted footprint already exceeds the available
//! budget (recorded as [`AttemptOutcome::Skipped`]) — avoiding the cost
//! of building an index only to fail at the edge-list reservation.
//! Every attempt, skip, and failure is recorded in the returned
//! [`ResilienceReport`].
//!
//! # Checkpointed retries
//!
//! Each device rung runs with a [`PipelineCheckpoint`]: completed phase
//! outputs (index, core flags, labels) survive a mid-run fault in the
//! caller-side checkpoint, so a transient retry *resumes from the last
//! completed phase* instead of recomputing the whole rung. On a
//! step-down (e.g. G-DBSCAN's edge list ooms after its degree pass),
//! reusable artifacts are handed to the next rung: the core flags of
//! the failed level seed the next level's preprocessing phase, since
//! core-point status depends only on `(points, eps, minpts)`, not on
//! the algorithm. The handoff applies only for `minpts > 2` — below
//! that the algorithms skip preprocessing entirely (Algorithm 3,
//! line 2).
//!
//! A rung's checkpoint never leaves the ladder, so it carries no input
//! identity ([`PipelineCheckpoint::new`]) and a request hashes none of
//! its input. The ladder's trace instants are formatted only when
//! tracing is on.

use std::time::Instant;

use fdbscan_bvh::Bvh;
use fdbscan_device::snapshot::PipelineCheckpoint;
use fdbscan_device::{Device, DeviceError};
use fdbscan_geom::Point;
use fdbscan_grid::DenseGrid;

use crate::baselines::gdbscan::{gdbscan_core, GDBSCAN_ALGORITHM};
use crate::checkpoint::{CoreSnapshot, PHASE_CORE_FLAGS, PHASE_PREPROCESS};
use crate::densebox::{densebox_core, DENSEBOX_ALGORITHM};
use crate::fdbscan_impl::{fdbscan_core, FDBSCAN_ALGORITHM};
use crate::labels::Clustering;
use crate::seq::dbscan_classic;
use crate::stats::RunStats;
use crate::Params;

/// One rung of the degradation ladder, ordered by decreasing device
/// footprint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LadderLevel {
    /// G-DBSCAN: `O(edges)` device memory, the paper's OOM case. Only
    /// reached as an explicit [`ResiliencePolicy::start`].
    GDbscan,
    /// FDBSCAN-DenseBox: linear memory (grid + mixed-primitive tree).
    DenseBox,
    /// FDBSCAN: linear memory (point tree only), the smallest footprint
    /// of the parallel algorithms.
    Fdbscan,
    /// Sequential host oracle: no device memory at all, cannot fail.
    Sequential,
}

impl LadderLevel {
    /// The next (smaller-footprint) rung, or `None` below the oracle.
    pub fn next(self) -> Option<LadderLevel> {
        match self {
            LadderLevel::GDbscan => Some(LadderLevel::DenseBox),
            LadderLevel::DenseBox => Some(LadderLevel::Fdbscan),
            LadderLevel::Fdbscan => Some(LadderLevel::Sequential),
            LadderLevel::Sequential => None,
        }
    }

    /// The checkpoint algorithm tag of this rung, or `None` for the
    /// host oracle (which has no phases to checkpoint).
    pub fn algorithm(self) -> Option<&'static str> {
        match self {
            LadderLevel::GDbscan => Some(GDBSCAN_ALGORITHM),
            LadderLevel::DenseBox => Some(DENSEBOX_ALGORITHM),
            LadderLevel::Fdbscan => Some(FDBSCAN_ALGORITHM),
            LadderLevel::Sequential => None,
        }
    }
}

impl std::fmt::Display for LadderLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            LadderLevel::GDbscan => "G-DBSCAN",
            LadderLevel::DenseBox => "FDBSCAN-DenseBox",
            LadderLevel::Fdbscan => "FDBSCAN",
            LadderLevel::Sequential => "sequential",
        })
    }
}

/// How many times a *transient* failure (panic, timeout, injected
/// fault) retries the same level before stepping down. OOM never
/// retries.
pub const MAX_TRANSIENT_RETRIES: usize = 2;

/// Retry/degradation policy for [`run_resilient`].
#[derive(Clone, Copy, Debug)]
pub struct ResiliencePolicy {
    /// The rung to start from. Defaults to [`LadderLevel::DenseBox`];
    /// [`LadderLevel::GDbscan`] opts into the quadratic-memory baseline.
    pub start: LadderLevel,
    /// Skip levels whose pre-flight memory estimate exceeds the
    /// available budget. Default true; a no-op on unbudgeted devices.
    pub preflight: bool,
}

impl Default for ResiliencePolicy {
    fn default() -> Self {
        Self { start: LadderLevel::DenseBox, preflight: true }
    }
}

/// What happened to one attempt at one ladder level.
#[derive(Clone, Debug, PartialEq)]
pub enum AttemptOutcome {
    /// The level produced a clustering.
    Succeeded,
    /// The level ran and failed with this error.
    Failed(DeviceError),
    /// The level never ran: its pre-flight estimate exceeded the
    /// available budget.
    Skipped {
        /// Predicted footprint of the level, in bytes.
        estimated_bytes: usize,
        /// Device bytes that were actually available.
        available_bytes: usize,
    },
}

/// One recorded attempt (or pre-flight skip) of a ladder level.
#[derive(Clone, Debug, PartialEq)]
pub struct Attempt {
    /// The level attempted.
    pub level: LadderLevel,
    /// What happened.
    pub outcome: AttemptOutcome,
}

/// Full history of a [`run_resilient`] call.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ResilienceReport {
    /// Every attempt and skip, in order.
    pub attempts: Vec<Attempt>,
    /// The level that finally produced the clustering, if any.
    pub completed: Option<LadderLevel>,
}

impl ResilienceReport {
    /// Number of attempts that actually executed (skips excluded).
    pub fn runs(&self) -> usize {
        self.attempts
            .iter()
            .filter(|a| !matches!(a.outcome, AttemptOutcome::Skipped { .. }))
            .count()
    }

    /// True if the clustering came from a lower rung than the first one
    /// tried (i.e. the ladder actually degraded).
    pub fn degraded(&self) -> bool {
        match (self.attempts.first(), self.completed) {
            (Some(first), Some(done)) => first.level != done,
            _ => false,
        }
    }
}

/// Device bytes both tree algorithms keep resident: points, labels and
/// core flags.
fn resident_bytes<const D: usize>(n: usize) -> usize {
    n * std::mem::size_of::<Point<D>>() + n * 4 + n.div_ceil(8)
}

/// Predicted device footprint of FDBSCAN in bytes: points, labels, core
/// flags, the point tree ([`Bvh::bytes_for`]) and the scratch its build
/// leaves held in the device's buffer arena, which the run's peak counts.
pub fn estimate_fdbscan_bytes<const D: usize>(n: usize) -> usize {
    resident_bytes::<D>(n)
        + Bvh::<D, Point<D>>::bytes_for(n)
        + Bvh::<D, Point<D>>::build_scratch_bytes(n)
}

/// Predicted device footprint of FDBSCAN-DenseBox in bytes, an upper
/// bound: the resident arrays, a box tree of `n` leaves and its build
/// scratch, plus a grid of one cell per point and its build scratch. The
/// mixed-primitive tree shrinks with the dense fraction, which is unknown
/// before the grid is built, and its build may recycle the grid's
/// scratch.
pub fn estimate_densebox_bytes<const D: usize>(n: usize) -> usize {
    resident_bytes::<D>(n)
        + Bvh::<D>::bytes_for(n)
        + Bvh::<D>::build_scratch_bytes(n)
        + DenseGrid::<D>::bytes_for(n, n)
        + DenseGrid::<D>::build_scratch_bytes(n)
}

/// Predicted device footprint of G-DBSCAN in bytes: points, CSR
/// offsets, and the edge lists, with the edge count extrapolated from
/// the average degree of at most 128 sample points spread evenly over
/// the whole input (brute force, `O(samples * n)` — cheap next to the
/// graph build it guards).
pub fn estimate_gdbscan_bytes<const D: usize>(points: &[Point<D>], eps: f32) -> usize {
    let n = points.len();
    if n == 0 {
        return 0;
    }
    let samples = n.min(128);
    let eps_sq = eps * eps;
    let mut neighbors = 0u64;
    for s in 0..samples {
        let q = &points[s * n / samples];
        neighbors +=
            points.iter().filter(|p| p.dist_sq(q) <= eps_sq).count().saturating_sub(1) as u64;
    }
    let est_edges = (neighbors as f64 / samples as f64 * n as f64) as usize;
    std::mem::size_of_val(points) + (n + 1) * 8 + est_edges * 4
}

/// Runs DBSCAN with graceful degradation (see the module docs).
///
/// Returns the clustering and stats of the first level that succeeded,
/// plus the full [`ResilienceReport`]. Fails only on invalid input —
/// for anything else the sequential oracle is the backstop.
///
/// ```
/// use fdbscan::{run_resilient, LadderLevel, Params, ResiliencePolicy};
/// use fdbscan_device::{Device, DeviceConfig};
/// use fdbscan_geom::Point2;
///
/// // Start on G-DBSCAN, under a budget its dense adjacency graph busts.
/// let device = Device::new(DeviceConfig::default().with_memory_budget(1 << 19));
/// let points = vec![Point2::new([0.0, 0.0]); 2000];
/// let policy = ResiliencePolicy { start: LadderLevel::GDbscan, ..Default::default() };
/// let (clustering, _stats, report) =
///     run_resilient(&device, &points, Params::new(1.0, 5), policy).unwrap();
/// assert_eq!(clustering.num_clusters, 1);
/// assert!(report.degraded());
/// ```
pub fn run_resilient<const D: usize>(
    device: &Device,
    points: &[Point<D>],
    params: Params,
    policy: ResiliencePolicy,
) -> Result<(Clustering, RunStats, ResilienceReport), DeviceError> {
    crate::validate_len(points.len())?;
    crate::validate_finite(points)?;
    let tracer = device.tracer();
    let _ladder_span = tracer.phase("resilient");
    // A trace instant, formatted only when tracing is on.
    let note = |message: std::fmt::Arguments<'_>| {
        if tracer.enabled() {
            tracer.instant(message.to_string());
        }
    };
    let mut report = ResilienceReport::default();
    let mut level = Some(policy.start);
    let mut last_err = None;
    // Core flags salvaged from a failed rung, handed down to seed the
    // next rung's preprocessing phase (minpts > 2 only — see module
    // docs).
    let mut handoff: Option<CoreSnapshot> = None;

    while let Some(l) = level {
        // A fired cancel token aborts the ladder before the next rung:
        // a cancelled request must not complete on a lower rung (or the
        // sequential oracle) just because a retry would have landed.
        device.check_cancelled()?;

        // Pre-flight: skip levels that cannot fit. The oracle uses no
        // device memory and is never skipped.
        if policy.preflight && l != LadderLevel::Sequential {
            if let Some(budget) = device.memory().budget() {
                // Arena-held scratch is charged against the budget but
                // reclaimable on demand, so it counts as available; if the
                // rung actually needs those bytes, release them now.
                let unpooled = budget.saturating_sub(device.memory().in_use());
                let available = unpooled + device.arena().held_bytes();
                let estimated = match l {
                    LadderLevel::GDbscan => estimate_gdbscan_bytes(points, params.eps),
                    LadderLevel::DenseBox => estimate_densebox_bytes::<D>(points.len()),
                    LadderLevel::Fdbscan => estimate_fdbscan_bytes::<D>(points.len()),
                    LadderLevel::Sequential => unreachable!(),
                };
                if estimated <= available && estimated > unpooled {
                    let freed = device.arena().trim();
                    note(format_args!("resilient.trim_arena {l}: freed {freed} B"));
                }
                if estimated > available {
                    note(format_args!(
                        "resilient.skip {l}: estimated {estimated} B > available {available} B"
                    ));
                    report.attempts.push(Attempt {
                        level: l,
                        outcome: AttemptOutcome::Skipped {
                            estimated_bytes: estimated,
                            available_bytes: available,
                        },
                    });
                    level = l.next();
                    continue;
                }
            }
        }

        // Each device rung gets a checkpoint; phases completed before a
        // fault survive in it, so retries resume rather than recompute.
        let mut ckpt = l.algorithm().map(|alg| {
            let mut c = PipelineCheckpoint::new(alg);
            if params.minpts > 2 {
                if let Some(flags) = handoff.take() {
                    note(format_args!("resilient.handoff {l}: seeded core flags"));
                    c.record(PHASE_PREPROCESS, &flags);
                }
            }
            c
        });

        let mut retries = 0;
        loop {
            match run_level(device, points, params, l, ckpt.as_mut()) {
                Ok((clustering, mut stats)) => {
                    note(format_args!("resilient.complete {l}"));
                    report.attempts.push(Attempt { level: l, outcome: AttemptOutcome::Succeeded });
                    report.completed = Some(l);
                    stats.attempts = report.runs();
                    stats.request_id = device.cancel_token().and_then(|t| t.request_id());
                    return Ok((clustering, stats, report));
                }
                Err(err) => {
                    let transient = matches!(
                        err,
                        DeviceError::KernelPanicked { .. }
                            | DeviceError::KernelTimeout { .. }
                            | DeviceError::FaultInjected { .. }
                    );
                    // Fatal errors abort the ladder outright: a cancelled
                    // or out-of-time request must stop degrading, not
                    // keep going. The input was validated before the
                    // loop, so `InvalidInput` here means this rung cannot
                    // take it (say, DenseBox's grid cannot key a tiny
                    // eps): step down at once, like any other
                    // non-transient error.
                    let fatal = matches!(
                        err,
                        DeviceError::Cancelled { .. } | DeviceError::DeadlineExceeded { .. }
                    );
                    report
                        .attempts
                        .push(Attempt { level: l, outcome: AttemptOutcome::Failed(err.clone()) });
                    if fatal {
                        return Err(err);
                    }
                    if transient && retries < MAX_TRANSIENT_RETRIES {
                        retries += 1;
                        let done = ckpt.as_ref().map_or(0, PipelineCheckpoint::len);
                        note(format_args!(
                            "resilient.retry {l}: attempt {} ({done} phase(s) checkpointed)",
                            retries + 1
                        ));
                        continue;
                    }
                    if matches!(err, DeviceError::OutOfMemory { .. }) {
                        // A real driver releases its scratch pools when an
                        // allocation fails: hand the arena-held bytes to
                        // the next rung.
                        device.arena().trim();
                    }
                    last_err = Some(err);
                    break;
                }
            }
        }
        // Stepping down: salvage the failed rung's core flags (recorded
        // either as a completed preprocessing phase or, for G-DBSCAN,
        // before its OOM-prone edge-list reservation) for the next rung.
        if params.minpts > 2 {
            if let Some(c) = &ckpt {
                handoff = c
                    .restore::<CoreSnapshot>(PHASE_PREPROCESS)
                    .or_else(|| c.restore::<CoreSnapshot>(PHASE_CORE_FLAGS));
            }
        }
        level = l.next();
        if let Some(next) = level {
            note(format_args!("resilient.degrade {l} -> {next}"));
        }
    }

    Err(last_err.expect("ladder exhausted without running a level"))
}

/// Runs one ladder level on `ckpt` (the device rungs always have one),
/// converting a panic that escapes the algorithm into an error
/// ([`Device::catch_panic`]).
fn run_level<const D: usize>(
    device: &Device,
    points: &[Point<D>],
    params: Params,
    level: LadderLevel,
    ckpt: Option<&mut PipelineCheckpoint>,
) -> Result<(Clustering, RunStats), DeviceError> {
    device.catch_panic(move || match level {
        LadderLevel::GDbscan => gdbscan_core(device, points, params, ckpt),
        LadderLevel::DenseBox => {
            densebox_core(device, points, params, Default::default(), None, ckpt)
        }
        LadderLevel::Fdbscan => {
            fdbscan_core(device, points, params, Default::default(), ckpt, None)
        }
        LadderLevel::Sequential => {
            let start = Instant::now();
            let clustering = dbscan_classic(points, params);
            let stats = RunStats { total_time: start.elapsed(), ..Default::default() };
            Ok((clustering, stats))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labels::assert_core_equivalent;
    use crate::verify::assert_valid_clustering;
    use fdbscan_data::cosmology::default_snapshot;
    use fdbscan_data::Dataset2;
    use fdbscan_device::{DeviceConfig, FaultPlan};
    use fdbscan_geom::Point2;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn random_points(n: usize, extent: f32, seed: u64) -> Vec<Point2> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point2::new([rng.gen_range(0.0..extent), rng.gen_range(0.0..extent)]))
            .collect()
    }

    /// A ladder that starts on the opt-in G-DBSCAN rung.
    fn from_gdbscan() -> ResiliencePolicy {
        ResiliencePolicy { start: LadderLevel::GDbscan, ..Default::default() }
    }

    #[test]
    fn healthy_device_stays_on_first_level() {
        let device = Device::new(DeviceConfig::default().with_workers(2));
        let points = random_points(300, 5.0, 41);
        let params = Params::new(0.3, 4);
        let (c, _, report) =
            run_resilient(&device, &points, params, ResiliencePolicy::default()).unwrap();
        assert_eq!(report.completed, Some(LadderLevel::DenseBox));
        assert!(!report.degraded());
        assert_eq!(report.runs(), 1);
        assert_valid_clustering(&points, &c, params);
    }

    #[test]
    fn gdbscan_oom_degrades_to_linear_algorithm() {
        // Dense blob: quadratic edges bust the budget, linear algorithms
        // fit comfortably.
        let points = vec![Point2::new([0.0, 0.0]); 2000];
        let params = Params::new(1.0, 5);
        let device = Device::new(DeviceConfig::default().with_memory_budget(1 << 19));
        let (c, _, report) = run_resilient(&device, &points, params, from_gdbscan()).unwrap();
        assert!(report.degraded());
        assert_ne!(report.completed, Some(LadderLevel::GDbscan));
        assert_eq!(c.num_clusters, 1);
        let oracle = dbscan_classic(&points, params);
        assert_core_equivalent(&oracle, &c);
    }

    #[test]
    fn preflight_skips_gdbscan_without_running_it() {
        let points = vec![Point2::new([0.0, 0.0]); 2000];
        let device = Device::new(DeviceConfig::default().with_memory_budget(1 << 19));
        let (_, _, report) =
            run_resilient(&device, &points, Params::new(1.0, 5), from_gdbscan()).unwrap();
        assert!(matches!(
            report.attempts[0],
            Attempt { level: LadderLevel::GDbscan, outcome: AttemptOutcome::Skipped { .. } }
        ));
        // The skip avoided the graph build: no failed G-DBSCAN run.
        assert_eq!(report.runs(), 1);
    }

    #[test]
    fn preflight_counts_arena_held_bytes_as_available() {
        // Arena-pooled scratch is charged against the budget but
        // reclaimable on demand. A rung whose estimate exceeds the
        // unpooled headroom must still run (after a trim) when the
        // pooled bytes cover the gap — not be skipped.
        let points = random_points(2000, 5.0, 43);
        let params = Params::new(0.5, 4);

        // Measure the warm arena footprint on an unbudgeted device.
        let probe = Device::with_defaults();
        crate::fdbscan(&probe, &points, params).unwrap();
        let held = probe.arena().held_bytes();
        assert!(held > 0, "fdbscan leaves no pooled scratch to test with");

        // Budget that fits G-DBSCAN only if the pooled bytes count:
        // estimated <= budget, but estimated > budget - held.
        let estimated = estimate_gdbscan_bytes(&points, params.eps);
        let budget = estimated + held - 1;
        let device = Device::new(DeviceConfig::default().with_memory_budget(budget));
        crate::fdbscan(&device, &points, params).unwrap();
        assert_eq!(device.arena().held_bytes(), held, "warm-up not reproducible");
        assert!(estimated > budget - held, "arena bytes would not matter");

        let (c, _, report) = run_resilient(&device, &points, params, from_gdbscan()).unwrap();
        assert_eq!(report.completed, Some(LadderLevel::GDbscan));
        assert!(!report.degraded(), "rung was skipped despite reclaimable arena bytes");
        let oracle = dbscan_classic(&points, params);
        assert_core_equivalent(&oracle, &c);
    }

    #[test]
    fn transient_panic_retries_same_level() {
        let points = random_points(300, 5.0, 42);
        let params = Params::new(0.3, 4);
        // Panic once at an early launch; the ordinal fires exactly once,
        // so the retry succeeds at the same level.
        let plan = FaultPlan::new(7).with_kernel_panic_at(0, 0);
        let device = Device::new(DeviceConfig::default().with_workers(2).with_fault_plan(plan));
        let (c, _, report) =
            run_resilient(&device, &points, params, ResiliencePolicy::default()).unwrap();
        assert_eq!(report.completed, Some(LadderLevel::DenseBox));
        assert!(!report.degraded());
        assert_eq!(report.runs(), 2, "one failure + one successful retry");
        assert!(matches!(
            report.attempts[0].outcome,
            AttemptOutcome::Failed(DeviceError::KernelPanicked { .. })
        ));
        let oracle = dbscan_classic(&points, params);
        assert_core_equivalent(&oracle, &c);
    }

    #[test]
    fn persistent_oom_falls_through_to_sequential() {
        // Any reservation over 1 byte fails: every device algorithm
        // ooms (or is skipped), only the host oracle survives.
        let points = random_points(200, 3.0, 43);
        let params = Params::new(0.4, 3);
        let plan = FaultPlan::new(8).with_oom_above_bytes(1);
        let device = Device::new(DeviceConfig::default().with_workers(2).with_fault_plan(plan));
        let (c, _, report) =
            run_resilient(&device, &points, params, ResiliencePolicy::default()).unwrap();
        assert_eq!(report.completed, Some(LadderLevel::Sequential));
        assert!(report.degraded());
        let oracle = dbscan_classic(&points, params);
        assert_core_equivalent(&oracle, &c);
        // The device remains usable: all reservations were released.
        assert_eq!(device.memory().in_use(), 0);
    }

    #[test]
    fn invalid_input_aborts_ladder() {
        let points = vec![Point2::new([0.0, f32::NAN])];
        let device = Device::new(DeviceConfig::default().with_workers(2));
        let err = run_resilient(&device, &points, Params::new(0.5, 2), ResiliencePolicy::default())
            .unwrap_err();
        assert!(matches!(err, DeviceError::InvalidInput { .. }));
    }

    #[test]
    fn tiny_eps_steps_down_from_densebox_without_retry() {
        // DenseBox's grid cannot key eps = 1e-4 over a 0..999 extent in
        // 3-D (21 bits per axis). That is this rung's limit, not a fault:
        // one attempt, then FDBSCAN clusters the input.
        let points: Vec<Point<3>> = (0..1000)
            .map(|i| Point::new([i as f32, ((i * 7) % 1000) as f32, ((i * 13) % 1000) as f32]))
            .collect();
        let device = Device::new(DeviceConfig::default().with_workers(2));
        let (_, _, report) =
            run_resilient(&device, &points, Params::new(1e-4, 3), ResiliencePolicy::default())
                .unwrap();
        assert_eq!(report.completed, Some(LadderLevel::Fdbscan));
        assert_eq!(report.attempts.len(), 2, "{:?}", report.attempts);
        assert!(matches!(
            report.attempts[0],
            Attempt {
                level: LadderLevel::DenseBox,
                outcome: AttemptOutcome::Failed(DeviceError::InvalidInput { .. })
            }
        ));
    }

    #[test]
    fn custom_start_level() {
        let points = random_points(200, 4.0, 44);
        let params = Params::new(0.4, 4);
        let device = Device::new(DeviceConfig::default().with_workers(2));
        let policy = ResiliencePolicy { start: LadderLevel::Fdbscan, ..Default::default() };
        let (_, _, report) = run_resilient(&device, &points, params, policy).unwrap();
        assert_eq!(report.completed, Some(LadderLevel::Fdbscan));
    }

    #[test]
    fn transient_retry_resumes_from_last_completed_phase() {
        let points = random_points(300, 5.0, 45);
        let params = Params::new(0.3, 4);
        // Probe an uninterrupted run for its launch/distance totals.
        let probe = Device::new(DeviceConfig::sequential());
        crate::fdbscan(&probe, &points, params).unwrap();
        let full = probe.counters().snapshot();
        // Panic at the very last launch (finalize's flatten kernel): by
        // then index, preprocess, and main are all checkpointed, so the
        // retry replays no distance computation at all.
        let plan = FaultPlan::new(9).with_kernel_panic_at(full.kernel_launches - 1, 0);
        let device = Device::new(DeviceConfig::sequential().with_fault_plan(plan));
        let policy = ResiliencePolicy { start: LadderLevel::Fdbscan, ..Default::default() };
        let (c, _, report) = run_resilient(&device, &points, params, policy).unwrap();
        assert_eq!(report.completed, Some(LadderLevel::Fdbscan));
        assert!(!report.degraded());
        assert_eq!(report.runs(), 2, "one failure + one successful retry");
        let total = device.counters().snapshot();
        assert_eq!(
            total.distance_computations, full.distance_computations,
            "checkpointed retry must not recompute any distances"
        );
        assert!(
            total.kernel_launches < 2 * full.kernel_launches,
            "retry replayed the whole pipeline: {} launches vs {} for one run",
            total.kernel_launches,
            full.kernel_launches
        );
        let oracle = dbscan_classic(&points, params);
        assert_core_equivalent(&oracle, &c);
    }

    #[test]
    fn oom_step_down_hands_core_flags_to_next_rung() {
        // A dense blob makes G-DBSCAN's edge list quadratic (ooms under
        // the budget) while the scattered tail keeps FDBSCAN-DenseBox's
        // core counting non-trivial on a fresh run.
        let mut points = vec![Point2::new([0.0, 0.0]); 1200];
        points.extend(random_points(300, 5.0, 46));
        let params = Params::new(0.3, 5);
        // Control: from scratch, DenseBox's fused main kernel computes
        // core-counting distances for the sparse tail.
        let control = Device::new(DeviceConfig::sequential());
        let (_, control_stats) = crate::fdbscan_densebox(&control, &points, params).unwrap();
        assert!(control_stats.phase_counters.main.distance_computations > 0);
        // Disable pre-flight so G-DBSCAN actually runs its degree pass
        // (recording core flags) before the edge reservation ooms.
        let device = Device::new(DeviceConfig::sequential().with_memory_budget(1 << 19));
        let policy = ResiliencePolicy { preflight: false, ..from_gdbscan() };
        let (c, stats, report) = run_resilient(&device, &points, params, policy).unwrap();
        assert!(matches!(
            report.attempts[0].outcome,
            AttemptOutcome::Failed(DeviceError::OutOfMemory { .. })
        ));
        assert_eq!(report.completed, Some(LadderLevel::DenseBox));
        assert!(report.degraded());
        // The salvaged flags pre-decided every point for DenseBox's fused
        // main kernel: the winning rung ran no counting traversals, so it
        // computed strictly fewer main-phase distances than the control.
        assert!(
            stats.phase_counters.main.distance_computations
                < control_stats.phase_counters.main.distance_computations,
            "handed-off core flags should skip core-counting recomputation ({} vs control {})",
            stats.phase_counters.main.distance_computations,
            control_stats.phase_counters.main.distance_computations
        );
        let oracle = dbscan_classic(&points, params);
        assert_core_equivalent(&oracle, &c);
    }

    #[test]
    fn stats_record_attempt_counts() {
        let points = random_points(300, 5.0, 42);
        let params = Params::new(0.3, 4);
        // Clean run: one attempt.
        let device = Device::new(DeviceConfig::default().with_workers(2));
        let (_, stats, _) =
            run_resilient(&device, &points, params, ResiliencePolicy::default()).unwrap();
        assert_eq!(stats.attempts, 1);
        // One injected panic + successful retry: two attempts.
        let plan = FaultPlan::new(7).with_kernel_panic_at(0, 0);
        let device = Device::new(DeviceConfig::default().with_workers(2).with_fault_plan(plan));
        let (_, stats, report) =
            run_resilient(&device, &points, params, ResiliencePolicy::default()).unwrap();
        assert_eq!(stats.attempts, 2);
        assert_eq!(stats.attempts, report.runs());
    }

    #[test]
    fn cancelled_request_aborts_ladder_without_degrading() {
        use fdbscan_device::CancelToken;
        let points = random_points(300, 5.0, 47);
        let token = CancelToken::new();
        token.cancel();
        let device = Device::new(DeviceConfig::default().with_workers(2)).with_cancel(token);
        let err = run_resilient(&device, &points, Params::new(0.3, 4), ResiliencePolicy::default())
            .unwrap_err();
        assert!(matches!(err, DeviceError::Cancelled { .. }), "got {err:?}");
        // Nothing ran, nothing leaked; the shared device stays usable.
        assert_eq!(device.memory().in_use(), device.arena().held_bytes());
    }

    #[test]
    fn expired_deadline_stops_the_ladder_not_the_device() {
        use fdbscan_device::CancelToken;
        use std::time::Duration;
        let points = random_points(300, 5.0, 48);
        let params = Params::new(0.3, 4);
        let base = Device::new(DeviceConfig::default().with_workers(2));
        let request =
            base.with_cancel(CancelToken::with_deadline(Instant::now() - Duration::from_millis(1)));
        let err =
            run_resilient(&request, &points, params, ResiliencePolicy::default()).unwrap_err();
        assert!(matches!(err, DeviceError::DeadlineExceeded { .. }), "got {err:?}");
        // A mid-ladder expiry must never fall through to the sequential
        // oracle and "succeed" after its deadline — and the base device
        // (other requests) keeps working.
        let (c, _, report) =
            run_resilient(&base, &points, params, ResiliencePolicy::default()).unwrap();
        assert_eq!(report.completed, Some(LadderLevel::DenseBox));
        assert_valid_clustering(&points, &c, params);
    }

    #[test]
    fn estimates_are_sane() {
        // FDBSCAN's estimate is linear and close to the measured peak.
        let n = 2000;
        let est = estimate_fdbscan_bytes::<2>(n);
        assert!(est > n * 8, "estimate {est} implausibly small");
        assert!(est < n * 200, "estimate {est} implausibly large");
        // The G-DBSCAN estimate on a dense blob is quadratic-ish: far
        // larger than the linear estimate.
        let points = vec![Point2::new([0.0, 0.0]); 2000];
        let g_est = estimate_gdbscan_bytes(&points, 1.0);
        assert!(g_est > 4 * est, "dense-blob graph estimate {g_est} should dwarf {est}");
    }

    #[test]
    fn estimates_cover_the_measured_peaks() {
        // FDBSCAN's estimate sizes what its run holds, the arena scratch
        // of its tree build included; DenseBox's is an n-leaf upper
        // bound. Peaks are read on a fresh sequential device per run.
        fn ratios<const D: usize>(points: &[Point<D>], params: Params) -> (f64, f64) {
            let peak = |densebox: bool| {
                let device = Device::new(DeviceConfig::sequential());
                let run = if densebox { crate::fdbscan_densebox } else { crate::fdbscan };
                run(&device, points, params).unwrap().1.peak_memory_bytes as f64
            };
            let n = points.len();
            (
                estimate_fdbscan_bytes::<D>(n) as f64 / peak(false),
                estimate_densebox_bytes::<D>(n) as f64 / peak(true),
            )
        }
        for n in [2_000, 8_000] {
            let cosmo_eps = 0.042 * (36.9e6 / n as f32).cbrt();
            for (name, (fdbscan, densebox)) in [
                ("taxi", ratios(&Dataset2::PortoTaxi.generate(n, 1), Params::new(0.01, 20))),
                ("cosmo", ratios(&default_snapshot(n, 1), Params::new(cosmo_eps, 5))),
            ] {
                assert!(
                    (1.0..=1.25).contains(&fdbscan),
                    "{name}-{n}: FDBSCAN estimate is {fdbscan:.3}x its peak"
                );
                assert!(
                    densebox >= 1.0,
                    "{name}-{n}: DenseBox estimate is {densebox:.3}x its peak"
                );
            }
        }
    }

    #[test]
    fn gdbscan_estimate_samples_the_whole_input() {
        // At n = 255 each of the 128 samples stands for almost two
        // points: a sampler that stops at the first 128 points misjudges
        // any input whose prefix and suffix differ in density.
        let spread = |i: usize| Point2::new([10.0 + 2.0 * i as f32, 0.0]);
        let blob = |x: f32| Point2::new([x, -10.0]);
        // A dense prefix, then singletons: a prefix-only sample
        // over-estimates the bytes 1.93x.
        let dense_then_sparse: Vec<Point2> =
            (0..255).map(|i| if i < 128 { blob(0.0) } else { spread(i) }).collect();
        // A dense prefix, singletons, then a dense suffix past index 128.
        let dense_sparse_dense: Vec<Point2> = (0..255)
            .map(|i| match i {
                0..64 => blob(0.0),
                64..128 => spread(i),
                _ => blob(-50.0),
            })
            .collect();
        for points in [dense_then_sparse, dense_sparse_dense] {
            let eps = 1.0;
            let edges: usize = points
                .iter()
                .map(|q| points.iter().filter(|p| p.dist_sq(q) <= eps * eps).count() - 1)
                .sum();
            let exact = std::mem::size_of_val(&points[..]) + (points.len() + 1) * 8 + edges * 4;
            let est = estimate_gdbscan_bytes(&points, eps);
            let ratio = est as f64 / exact as f64;
            assert!((0.75..=1.25).contains(&ratio), "estimate {est} B vs exact {exact} B");
        }
    }
}
