#![warn(missing_docs)]

//! Fault-tolerant distributed-memory FDBSCAN driver.
//!
//! The paper's introduction argues that "since the local DBSCAN
//! implementation is an inherent component of a full distributed
//! algorithm, the proposed algorithm can be easily plugged into most
//! distributed frameworks", and §6 lists distribution as future work.
//! This crate realizes that plan in the shape used by the distributed
//! DBSCAN literature the paper builds on (Patwary et al.'s PDSDBSCAN-D,
//! Mr. Scan's tree of GPU nodes), and makes every step survivable:
//!
//! 1. **domain decomposition** ([`shard`]) — the domain is cut along
//!    its widest axis into equal-count slabs, one per live rank; each
//!    rank owns its slab and an **ε-halo** of ghost points,
//! 2. **halo exchange** ([`halo`]) — ghosts travel as checksummed
//!    frames through a simulated message layer with seeded fault
//!    injection (drop, corruption, delay); damaged frames are detected
//!    and retransmitted, bounded by [`MAX_MESSAGE_RETRIES`],
//! 3. **local clustering** — each rank determines core status of its
//!    owned points, exchanges ghost core flags, runs the FDBSCAN main
//!    phase over its local set, and distills the result into a
//!    [`RankSummary`] (core edge log + border claim log) that is
//!    **checkpointed** — framed by `device::snapshot::frame` — into a
//!    durable [`SummaryStore`] *before* the merge begins; transient failures
//!    retry on a deterministic backoff ([`recovery`]),
//! 4. **cross-rank merge** ([`merge`]) — the lowest live rank folds the
//!    checkpointed logs into one global union-find. The merge is
//!    idempotent and order-independent, so a coordinator crash is
//!    survived by deterministic successor election (lowest surviving
//!    rank id) plus a replay of the same logs — bit-identical output,
//! 5. **finalization** — canonical labels feed
//!    [`Clustering::from_union_find`].
//!
//! **Determinism contract.** The output is bit-identical to the
//! canonical single-device oracle `fdbscan::seq::dbscan_canonical`
//! for *any* rank count, slab skew, and survivable fault schedule:
//! cores label to the smallest global id of their connected core set,
//! and borders join the cluster with the smallest canonical root among
//! their core neighbors. Rank death at a phase boundary re-shards the
//! dead rank's slab over the survivors (after a memory preflight that
//! sheds with [`DistError::CapacityExhausted`] rather than risking an
//! OOM panic) and re-runs from the halo exchange; death after the
//! checkpoint needs no recomputation at all — the logs are replayed.
//! Unsurvivable schedules end in a typed [`DistError`], never a panic.
//!
//! # Example
//!
//! ```
//! use fdbscan::Params;
//! use fdbscan_device::Device;
//! use fdbscan_dist::distributed_fdbscan;
//! use fdbscan_geom::Point2;
//!
//! let device = Device::with_defaults();
//! // A chain of points crossing every rank boundary.
//! let points: Vec<Point2> = (0..100).map(|i| Point2::new([i as f32, 0.0])).collect();
//! let (clustering, stats) =
//!     distributed_fdbscan(&device, &points, Params::new(1.5, 2), 4).unwrap();
//! assert_eq!(clustering.num_clusters, 1); // reassembled across ranks
//! assert_eq!(stats.ranks.len(), 4);
//! ```

pub mod error;
pub mod halo;
pub mod merge;
pub mod recovery;
pub mod shard;
pub mod stats;

pub use error::DistError;
pub use halo::{SimNetwork, MAX_MESSAGE_RETRIES};
pub use merge::RankSummary;
pub use recovery::{
    retry_backoff, InstantSleeper, Sleeper, SummaryStore, ThreadSleeper, MAX_RANK_RETRIES,
    RETRY_BACKOFF_CAP_MS,
};
pub use stats::{
    DistMetrics, DistStats, PhaseWork, PhaseWorkTable, RankStats, RecoveryEvents, RecoveryLog,
};

use std::collections::BTreeMap;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use fdbscan::fdbscan_impl::{main_fused, point_bvh, Cores};
use fdbscan::framework::CoreFlags;
use fdbscan::labels::Clustering;
use fdbscan::{FdbscanOptions, Params};
use fdbscan_device::{trace, CountersSnapshot, Device, DeviceError};
use fdbscan_geom::Point;
use fdbscan_unionfind::AtomicLabels;

use halo::{decode_flags, decode_points, encode_flags, encode_points};
use merge::{checkpoint_summary, fetch_summaries, merge_summaries};
use recovery::run_rank_phase;
use shard::decompose;

/// Phase ordinal of the halo exchange, for `FaultPlan::with_rank_death`.
pub const PHASE_HALO: u8 = 0;
/// Phase ordinal of local clustering (core pass + main phase).
pub const PHASE_LOCAL: u8 = 1;
/// Phase ordinal of the cross-rank merge.
pub const PHASE_MERGE: u8 = 2;

static THREAD_SLEEPER: ThreadSleeper = ThreadSleeper;

/// Knobs of a distributed run beyond the point set and parameters.
#[derive(Clone, Copy)]
pub struct DistConfig<'a> {
    /// Number of simulated ranks.
    pub ranks: usize,
    /// How retry loops wait out their backoff. Defaults to a real
    /// sleep; tests inject [`InstantSleeper`] to assert the schedule
    /// without paying for it.
    pub sleeper: &'a dyn Sleeper,
    /// Telemetry sink: when set, the run records `fdbscan_dist_*`
    /// series (runs, recovery events, per-phase work, merge latency).
    pub metrics: Option<&'a DistMetrics>,
    /// Correlates this run's trace spans with a service request id.
    pub request_id: Option<u64>,
}

impl<'a> DistConfig<'a> {
    /// A default config over `ranks` ranks.
    pub fn new(ranks: usize) -> Self {
        Self { ranks, sleeper: &THREAD_SLEEPER, metrics: None, request_id: None }
    }

    /// Replaces the backoff sleeper.
    pub fn with_sleeper(mut self, sleeper: &'a dyn Sleeper) -> Self {
        self.sleeper = sleeper;
        self
    }

    /// Attaches a metrics sink.
    pub fn with_metrics(mut self, metrics: &'a DistMetrics) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Correlates trace output with a request id.
    pub fn with_request_id(mut self, request_id: u64) -> Self {
        self.request_id = Some(request_id);
        self
    }
}

impl std::fmt::Debug for DistConfig<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DistConfig")
            .field("ranks", &self.ranks)
            .field("metrics", &self.metrics.is_some())
            .field("request_id", &self.request_id)
            .finish()
    }
}

/// Runs FDBSCAN over `ranks` simulated distributed ranks on one device.
///
/// The clustering is bit-identical to the canonical single-device
/// oracle (`fdbscan::seq::dbscan_canonical`) — verified by the test
/// suite across rank counts and fault schedules.
pub fn distributed_fdbscan<const D: usize>(
    device: &Device,
    points: &[Point<D>],
    params: Params,
    ranks: usize,
) -> Result<(Clustering, DistStats), DistError> {
    distributed_fdbscan_multi(std::slice::from_ref(device), points, params, ranks)
}

/// Runs FDBSCAN over `ranks` distributed ranks spread across several
/// devices ("multi-GPU node"): rank `r` executes on
/// `devices[r % devices.len()]`, and ranks sharing a phase run
/// concurrently on their devices. The merge runs on the coordinator's
/// device.
pub fn distributed_fdbscan_multi<const D: usize>(
    devices: &[Device],
    points: &[Point<D>],
    params: Params,
    ranks: usize,
) -> Result<(Clustering, DistStats), DistError> {
    distributed_fdbscan_with(devices, points, params, DistConfig::new(ranks))
}

/// [`distributed_fdbscan_multi`] with full control over the run
/// ([`DistConfig`]): sleeper injection, metrics, request correlation.
pub fn distributed_fdbscan_with<const D: usize>(
    devices: &[Device],
    points: &[Point<D>],
    params: Params,
    config: DistConfig<'_>,
) -> Result<(Clustering, DistStats), DistError> {
    assert!(!devices.is_empty(), "need at least one device");
    assert!(config.ranks >= 1, "need at least one rank");
    let _request = config.request_id.map(trace::request_scope);
    let _inflight = config.metrics.map(|m| m.inflight_guard());
    let recovery = RecoveryLog::default();
    let result = run_distributed(devices, points, params, &config, &recovery);
    if let Some(metrics) = config.metrics {
        match &result {
            Ok((_, stats)) => metrics.record_run(stats),
            Err(err) => metrics.record_failure(
                &recovery.snapshot(),
                matches!(err, DistError::CapacityExhausted { .. }),
            ),
        }
    }
    result
}

/// One rank's working set for a round: owned points first, then ghosts
/// decoded off the wire.
struct LocalSet<const D: usize> {
    rank: usize,
    owned_count: usize,
    to_global: Vec<u32>,
    local_points: Vec<Point<D>>,
}

fn run_distributed<const D: usize>(
    devices: &[Device],
    points: &[Point<D>],
    params: Params,
    config: &DistConfig<'_>,
    recovery: &RecoveryLog,
) -> Result<(Clustering, DistStats), DistError> {
    fdbscan::validate_len(points.len())?;
    fdbscan::validate_finite(points)?;
    let root = &devices[0];
    // Rank/message faults are driven by the root device's plan (the
    // "launcher" in a real distributed job); injections count there too.
    let plan = root.fault_plan();
    let root_counters = root.counters();
    let n = points.len();
    let Params { eps, minpts } = params;
    let start = Instant::now();

    if n == 0 {
        return Ok((
            Clustering::from_union_find(&[], &[]),
            DistStats { total_time: start.elapsed(), ..Default::default() },
        ));
    }

    let ranks = config.ranks.min(n); // no empty ranks
    let device_of = |rank: usize| rank % devices.len();

    // Distinct counter sets across the devices, for per-phase work
    // deltas (several ranks may share one device).
    let mut unique: Vec<&Device> = Vec::new();
    for d in devices {
        if !unique.iter().any(|u| Arc::ptr_eq(&u.counters_arc(), &d.counters_arc())) {
            unique.push(d);
        }
    }
    let snap_all =
        || -> Vec<CountersSnapshot> { unique.iter().map(|d| d.counters().snapshot()).collect() };
    let work_since = |before: &[CountersSnapshot]| -> PhaseWork {
        let mut work = PhaseWork::default();
        for (d, b) in unique.iter().zip(before) {
            let delta = d.counters().snapshot().since(b);
            work.launches += delta.kernel_launches;
            work.distances += delta.distance_computations;
        }
        work
    };

    let mut alive = vec![true; ranks];
    let mut rank_stats: Vec<RankStats> =
        (0..ranks).map(|_| RankStats { alive: true, ..Default::default() }).collect();
    // Lifetime attempt counters, shared by the core pass and the main
    // phase so `FaultPlan::rank_fails` sees one monotone sequence per
    // rank (a fault-free run makes attempts 0 and 1), and preserved
    // across re-shard rounds.
    let attempt_counters: Vec<AtomicUsize> = (0..ranks).map(|_| AtomicUsize::new(0)).collect();
    let core_attempt_counters: Vec<AtomicUsize> = (0..ranks).map(|_| AtomicUsize::new(0)).collect();
    let main_attempt_counters: Vec<AtomicUsize> = (0..ranks).map(|_| AtomicUsize::new(0)).collect();

    let network = SimNetwork::new(plan, root_counters);
    let store = SummaryStore::new();

    let mut phase_work = PhaseWorkTable::default();
    let mut prev_owner: Option<Vec<usize>> = None;
    let mut last_dead = usize::MAX;

    let kill = |rank: usize,
                phase: u8,
                alive: &mut [bool],
                rank_stats: &mut [RankStats],
                last_dead: &mut usize| {
        alive[rank] = false;
        rank_stats[rank].alive = false;
        if phase != PHASE_MERGE {
            // The slab will be re-sharded; merge-phase deaths keep
            // their ownership record (the work is already durable).
            rank_stats[rank].owned = 0;
            rank_stats[rank].ghosts = 0;
        }
        *last_dead = rank;
        recovery.rank_deaths.fetch_add(1, Ordering::Relaxed);
        root_counters.injected_rank_deaths.fetch_add(1, Ordering::Relaxed);
        root.tracer().instant(format!("dist.rank-death rank {rank} at phase {phase}"));
    };

    loop {
        // --- deaths at the halo boundary ------------------------------
        for r in 0..ranks {
            if alive[r] && plan.is_some_and(|p| p.rank_dies(r, PHASE_HALO)) {
                kill(r, PHASE_HALO, &mut alive, &mut rank_stats, &mut last_dead);
            }
        }
        let live: Vec<usize> = (0..ranks).filter(|&r| alive[r]).collect();
        if live.is_empty() {
            return Err(DistError::NoSurvivors);
        }

        // --- decomposition (re-shard when ranks have died) ------------
        let decomposition = decompose(points, &live);
        let mut owner = vec![usize::MAX; n];
        for slab in &decomposition.slabs {
            for &id in &slab.owned {
                owner[id as usize] = slab.rank;
            }
        }
        if let Some(prev) = &prev_owner {
            let moved = owner.iter().zip(prev).filter(|(now, was)| now != was).count();
            recovery.resharded_points.fetch_add(moved as u64, Ordering::Relaxed);
        }
        if live.len() < ranks {
            // Survivor slabs grew: confirm they fit *before* any phase
            // launches, so capacity failure is a typed shed up front.
            if let Err((survivor, required, available)) =
                shard::preflight::<D>(points, &decomposition, eps, device_of, devices)
            {
                return Err(DistError::CapacityExhausted {
                    dead_rank: last_dead,
                    survivor,
                    required_bytes: required,
                    available_bytes: available,
                });
            }
        }
        prev_owner = Some(owner);

        // --- halo exchange over the faulty transport ------------------
        let halo_span = root.tracer().phase("dist.halo");
        let before = snap_all();
        let mut ghosts: Vec<Vec<(u32, Point<D>)>> = vec![Vec::new(); decomposition.slabs.len()];
        for (k, to_slab) in decomposition.slabs.iter().enumerate() {
            for from_slab in &decomposition.slabs {
                if from_slab.rank == to_slab.rank {
                    continue;
                }
                let items: Vec<(u32, Point<D>)> = from_slab
                    .owned
                    .iter()
                    .filter(|&&id| to_slab.in_halo(points[id as usize][decomposition.axis], eps))
                    .map(|&id| (id, points[id as usize]))
                    .collect();
                let delivered =
                    network.send(from_slab.rank, to_slab.rank, &encode_points(&items), recovery)?;
                let decoded =
                    decode_points::<D>(&delivered).map_err(|reason| DistError::HaloExchange {
                        from: from_slab.rank,
                        to: to_slab.rank,
                        ordinal: network.messages_sent().saturating_sub(1),
                        reason,
                    })?;
                ghosts[k].extend(decoded);
            }
        }
        phase_work.halo.accumulate(work_since(&before));
        drop(halo_span);

        // --- deaths at the local boundary -----------------------------
        let mut newly_dead = false;
        for r in 0..ranks {
            if alive[r] && plan.is_some_and(|p| p.rank_dies(r, PHASE_LOCAL)) {
                kill(r, PHASE_LOCAL, &mut alive, &mut rank_stats, &mut last_dead);
                newly_dead = true;
            }
        }
        if newly_dead {
            continue; // re-shard over the survivors, redo the halo
        }

        // --- local clustering -----------------------------------------
        let local_span = root.tracer().phase("dist.local");
        let before = snap_all();
        let local_sets: Vec<LocalSet<D>> = decomposition
            .slabs
            .iter()
            .zip(&ghosts)
            .map(|(slab, ghost)| {
                let mut to_global = slab.owned.clone();
                let mut local_points: Vec<Point<D>> =
                    slab.owned.iter().map(|&id| points[id as usize]).collect();
                for &(gid, p) in ghost {
                    to_global.push(gid);
                    // Ghost coordinates come off the wire, not from the
                    // local array — the codec is bit-exact, which the
                    // determinism contract depends on.
                    local_points.push(p);
                }
                LocalSet { rank: slab.rank, owned_count: slab.owned.len(), to_global, local_points }
            })
            .collect();
        for set in &local_sets {
            rank_stats[set.rank].owned = set.owned_count;
            rank_stats[set.rank].ghosts = set.to_global.len() - set.owned_count;
        }

        // Core pass: each rank builds its local tree and determines core
        // status of its *owned* points only (ghost core status would be
        // truncated). The tree serves the main phase too.
        let global_core = CoreFlags::new(n);
        let core_outcomes: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = local_sets
                .iter()
                .map(|set| {
                    let rank = set.rank;
                    let rank_device = &devices[device_of(rank)];
                    let global_core = &global_core;
                    let attempts = &attempt_counters[rank];
                    let core_attempts = &core_attempt_counters[rank];
                    let sleeper = config.sleeper;
                    scope.spawn(move || {
                        let outcome = run_rank_phase(
                            rank,
                            "core",
                            plan,
                            root_counters,
                            attempts,
                            core_attempts,
                            rank_device,
                            sleeper,
                            recovery,
                            || {
                                // The wire is this rank's input
                                // boundary: a NaN smuggled past the
                                // checksum must fail here, not
                                // poison the BVH build.
                                let local_points = &set.local_points;
                                fdbscan::validate_finite(local_points)?;
                                let bvh = point_bvh(rank_device, local_points)?;
                                let counters = rank_device.counters();
                                // In tree order; a ghost's ε-ball is
                                // truncated here, so only owned points
                                // count.
                                let count_core = |pos: usize| {
                                    let pos = pos as u32;
                                    let li = bvh.leaf_payload(pos) as usize;
                                    if li >= set.owned_count {
                                        return;
                                    }
                                    let mut count = 0usize;
                                    let q = bvh.leaf(pos);
                                    let stats = bvh.for_each_around(pos, q, eps, |_, _, _| {
                                        count += 1;
                                        if count >= minpts {
                                            ControlFlow::Break(())
                                        } else {
                                            ControlFlow::Continue(())
                                        }
                                    });
                                    stats.charge(counters);
                                    if count >= minpts {
                                        global_core.set(set.to_global[li]);
                                    }
                                };
                                rank_device.try_launch_named(
                                    "dist.core_count",
                                    bvh.len(),
                                    count_core,
                                )?;
                                Ok(bvh)
                            },
                        );
                        (rank, outcome)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("rank thread panicked")).collect()
        });
        let mut trees = Vec::with_capacity(local_sets.len());
        for (rank, outcome) in core_outcomes {
            trees.push(outcome.map_err(|source| DistError::RankFailed {
                rank,
                phase: "core",
                source,
            })?);
        }

        // Ghost core flags travel over the same faulty transport.
        let mut ghost_core: Vec<BTreeMap<u32, bool>> =
            vec![BTreeMap::new(); decomposition.slabs.len()];
        for (k, to_slab) in decomposition.slabs.iter().enumerate() {
            for from_slab in &decomposition.slabs {
                if from_slab.rank == to_slab.rank {
                    continue;
                }
                let items: Vec<(u32, bool)> = from_slab
                    .owned
                    .iter()
                    .filter(|&&id| to_slab.in_halo(points[id as usize][decomposition.axis], eps))
                    .map(|&id| (id, global_core.get(id)))
                    .collect();
                let delivered =
                    network.send(from_slab.rank, to_slab.rank, &encode_flags(&items), recovery)?;
                let decoded =
                    decode_flags(&delivered).map_err(|reason| DistError::HaloExchange {
                        from: from_slab.rank,
                        to: to_slab.rank,
                        ordinal: network.messages_sent().saturating_sub(1),
                        reason,
                    })?;
                ghost_core[k].extend(decoded);
            }
        }

        // Main phase + summary distillation, checkpointed per rank.
        let mut summaries: Vec<Option<RankSummary>> = (0..ranks).map(|_| None).collect();
        let main_outcomes: Vec<(usize, Result<RankSummary, DeviceError>)> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = local_sets
                    .iter()
                    .zip(&ghost_core)
                    .zip(&trees)
                    .map(|((set, gflags), bvh)| {
                        let rank = set.rank;
                        let rank_device = &devices[device_of(rank)];
                        let global_core = &global_core;
                        let attempts = &attempt_counters[rank];
                        let main_attempts = &main_attempt_counters[rank];
                        let sleeper = config.sleeper;
                        scope.spawn(move || {
                            let outcome = run_rank_phase(
                                rank,
                                "main",
                                plan,
                                root_counters,
                                attempts,
                                main_attempts,
                                rank_device,
                                sleeper,
                                recovery,
                                || {
                                    let local_points = &set.local_points;
                                    let local_n = local_points.len();

                                    // Owned flags were computed here;
                                    // ghost flags arrived over the wire.
                                    let local_core = CoreFlags::new(local_n);
                                    for (li, &gid) in set.to_global.iter().enumerate() {
                                        let is_core = if li < set.owned_count {
                                            global_core.get(gid)
                                        } else {
                                            gflags.get(&gid).copied().unwrap_or(false)
                                        };
                                        if is_core {
                                            local_core.set(li as u32);
                                        }
                                    }
                                    let local_labels = AtomicLabels::new(local_n);
                                    main_fused(
                                        rank_device,
                                        bvh,
                                        eps,
                                        Cores::Exact(&local_core),
                                        FdbscanOptions::default(),
                                        &local_labels,
                                    )?;
                                    local_labels.flatten(rank_device)?;
                                    let labels = local_labels.snapshot();

                                    // Distill: core edge log + border
                                    // claim log, all in global ids.
                                    let mut summary = RankSummary { rank, ..Default::default() };
                                    for (li, &root) in labels.iter().enumerate() {
                                        if local_core.get(li as u32) {
                                            summary.edges.push((
                                                set.to_global[li],
                                                set.to_global[root as usize],
                                            ));
                                            if li < set.owned_count {
                                                summary.core_gids.push(set.to_global[li]);
                                            }
                                        }
                                    }
                                    for pos in 0..local_n as u32 {
                                        let li = bvh.leaf_payload(pos) as usize;
                                        if li >= set.owned_count || local_core.get(li as u32) {
                                            continue;
                                        }
                                        // Owned border: full ε-ball is
                                        // local, so the claim set (one
                                        // per adjacent local cluster) is
                                        // complete.
                                        let mut roots: Vec<u32> = Vec::new();
                                        bvh.for_each_around(pos, bvh.leaf(pos), eps, |_, j, _| {
                                            if local_core.get(j) {
                                                let root = labels[j as usize];
                                                if !roots.contains(&root) {
                                                    roots.push(root);
                                                }
                                            }
                                            ControlFlow::Continue(())
                                        });
                                        for &root in &roots {
                                            summary.claims.push((
                                                set.to_global[li],
                                                set.to_global[root as usize],
                                            ));
                                        }
                                    }
                                    Ok(summary)
                                },
                            );
                            (rank, outcome)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("rank thread panicked")).collect()
            });
        for (rank, outcome) in main_outcomes {
            let summary =
                outcome.map_err(|source| DistError::RankFailed { rank, phase: "main", source })?;
            // The durable checkpoint: everything the merge needs from
            // this rank, written *before* the merge phase begins.
            store.put(rank, checkpoint_summary(&summary));
            summaries[rank] = Some(summary);
        }
        phase_work.local.accumulate(work_since(&before));
        drop(local_span);

        for r in 0..ranks {
            rank_stats[r].attempts = attempt_counters[r].load(Ordering::Relaxed);
            rank_stats[r].core_attempts = core_attempt_counters[r].load(Ordering::Relaxed);
            rank_stats[r].main_attempts = main_attempt_counters[r].load(Ordering::Relaxed);
        }

        // --- deaths at the merge boundary -----------------------------
        // No re-shard here: the dead ranks' summaries are already
        // durable, so their work survives them.
        for r in 0..ranks {
            if alive[r] && plan.is_some_and(|p| p.rank_dies(r, PHASE_MERGE)) {
                kill(r, PHASE_MERGE, &mut alive, &mut rank_stats, &mut last_dead);
            }
        }
        let survivors: Vec<usize> = (0..ranks).filter(|&r| alive[r]).collect();
        if survivors.is_empty() {
            return Err(DistError::NoSurvivors);
        }
        // Coordinator: the lowest rank that entered this round, unless
        // it died — then the lowest *surviving* rank id is elected and
        // replays the merge from the checkpointed logs.
        let planned = live[0];
        let coordinator = if alive[planned] {
            planned
        } else {
            recovery.coordinator_elections.fetch_add(1, Ordering::Relaxed);
            recovery.merge_replays.fetch_add(1, Ordering::Relaxed);
            let successor = survivors[0];
            root.tracer().instant(format!(
                "dist.election coordinator {planned} dead; successor {successor} replays the merge"
            ));
            successor
        };

        // --- cross-rank merge on the coordinator ----------------------
        let merge_span = root.tracer().phase("dist.merge");
        let before = snap_all();
        let merge_start = Instant::now();
        let participants: Vec<usize> = decomposition.slabs.iter().map(|s| s.rank).collect();
        let fetched = fetch_summaries(&store, &participants, &alive, &summaries, recovery)?;
        let merge_device = &devices[device_of(coordinator)];
        let refs: Vec<&RankSummary> = fetched.iter().collect();
        let (labels, core) = merge_summaries(merge_device, n, &refs)?;
        let merge_time = merge_start.elapsed();
        phase_work.merge.accumulate(work_since(&before));
        drop(merge_span);

        // --- finalize -------------------------------------------------
        let clustering = Clustering::from_union_find(&labels, &core);
        return Ok((
            clustering,
            DistStats {
                ranks: rank_stats,
                axis: decomposition.axis,
                coordinator,
                total_time: start.elapsed(),
                merge_time,
                recovery: recovery.snapshot(),
                phase_work,
            },
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdbscan::labels::assert_core_equivalent;
    use fdbscan::seq::{dbscan_canonical, dbscan_classic};
    use fdbscan::verify::assert_valid_clustering;
    use fdbscan_data::Dataset2;
    use fdbscan_device::{DeviceConfig, FaultPlan, FaultSite, MetricsRegistry, SpanKind};
    use fdbscan_geom::Point2;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn device() -> Device {
        Device::new(DeviceConfig::default().with_workers(2))
    }

    fn random_points(n: usize, extent: f32, seed: u64) -> Vec<Point2> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point2::new([rng.gen_range(0.0..extent), rng.gen_range(0.0..extent)]))
            .collect()
    }

    #[test]
    fn single_rank_equals_fdbscan() {
        let d = device();
        let points = random_points(500, 5.0, 1);
        let params = Params::new(0.3, 5);
        let (single, _) = fdbscan::fdbscan(&d, &points, params).unwrap();
        let (dist, stats) = distributed_fdbscan(&d, &points, params, 1).unwrap();
        assert_core_equivalent(&single, &dist);
        assert_eq!(stats.ranks.len(), 1);
        assert_eq!(stats.ranks[0].owned, 500);
    }

    #[test]
    fn multi_rank_matches_oracle() {
        let d = device();
        for ranks in [2usize, 3, 5, 8] {
            let points = random_points(600, 4.0, ranks as u64);
            let params = Params::new(0.25, 5);
            let oracle = dbscan_classic(&points, params);
            let (dist, stats) = distributed_fdbscan(&d, &points, params, ranks).unwrap();
            assert_core_equivalent(&oracle, &dist);
            assert_valid_clustering(&points, &dist, params);
            assert_eq!(stats.ranks.len(), ranks);
            let owned_total: usize = stats.ranks.iter().map(|r| r.owned).sum();
            assert_eq!(owned_total, 600, "ownership must partition the points");
        }
    }

    #[test]
    fn bit_identical_to_canonical_oracle() {
        // The determinism contract: not just equivalent up to border
        // ties, but the exact same assignment vector as the canonical
        // single-device oracle, for every rank count.
        for ranks in [1usize, 2, 3, 5, 8] {
            let d = device();
            let points = random_points(500, 4.0, 100 + ranks as u64);
            let params = Params::new(0.3, 4);
            let oracle = dbscan_canonical(&points, params);
            let (dist, _) = distributed_fdbscan(&d, &points, params, ranks).unwrap();
            assert_eq!(dist, oracle, "ranks={ranks}: labels must be bit-identical");
        }
    }

    #[test]
    fn cluster_spanning_every_rank_boundary() {
        // A dense line along the cut axis: one cluster crossing every
        // slab boundary; the merge must reassemble it.
        let points: Vec<Point2> = (0..1000).map(|i| Point2::new([i as f32 * 0.1, 0.0])).collect();
        let d = device();
        let params = Params::new(0.15, 3);
        let (dist, _) = distributed_fdbscan(&d, &points, params, 7).unwrap();
        assert_eq!(dist.num_clusters, 1, "the chain must survive the decomposition");
    }

    #[test]
    fn border_on_rank_boundary_claimed_once() {
        // Two bars and a bridge, decomposed such that the bridge sits in
        // a ghost zone of both ranks: it must land in exactly one
        // cluster — the one with the smallest canonical root.
        let mut points: Vec<Point2> = (0..5).map(|i| Point2::new([0.0, 0.1 * i as f32])).collect();
        points.extend((0..5).map(|i| Point2::new([0.9, 0.1 * i as f32])));
        points.push(Point2::new([0.45, 0.2]));
        let params = Params::new(0.45, 5);
        let d = device();
        let oracle = dbscan_canonical(&points, params);
        for ranks in [2usize, 3] {
            let (dist, _) = distributed_fdbscan(&d, &points, params, ranks).unwrap();
            assert_eq!(dist, oracle);
            assert_eq!(dist.num_clusters, 2);
        }
    }

    #[test]
    fn minpts_2_fof_across_ranks() {
        let d = device();
        let points = random_points(400, 3.0, 9);
        let params = Params::new(0.3, 2);
        let oracle = dbscan_classic(&points, params);
        let (dist, _) = distributed_fdbscan(&d, &points, params, 4).unwrap();
        assert_core_equivalent(&oracle, &dist);
    }

    #[test]
    fn dataset_workloads_across_ranks() {
        let d = device();
        for kind in Dataset2::ALL {
            let points = kind.generate(1200, 3);
            let params = Params::new(0.02, 10);
            let (single, _) = fdbscan::fdbscan(&d, &points, params).unwrap();
            let (dist, stats) = distributed_fdbscan(&d, &points, params, 4).unwrap();
            assert_core_equivalent(&single, &dist);
            // Ghost zones must be nonempty for connected data.
            let total_ghosts: usize = stats.ranks.iter().map(|r| r.ghosts).sum();
            assert!(total_ghosts > 0, "{}: expected ghost points", kind.name());
        }
    }

    #[test]
    fn more_ranks_than_points() {
        let d = device();
        let points = random_points(5, 1.0, 4);
        let params = Params::new(0.5, 2);
        let oracle = dbscan_classic(&points, params);
        let (dist, stats) = distributed_fdbscan(&d, &points, params, 64).unwrap();
        assert_core_equivalent(&oracle, &dist);
        assert!(stats.ranks.len() <= 5);
    }

    #[test]
    fn empty_input() {
        let d = device();
        let (c, _) = distributed_fdbscan::<2>(&d, &[], Params::new(1.0, 3), 4).unwrap();
        assert!(c.is_empty());
    }

    #[test]
    fn multi_device_matches_single_device() {
        // "Multi-GPU node": one device per rank, ranks run concurrently.
        let devices: Vec<Device> =
            (0..3).map(|_| Device::new(DeviceConfig::default().with_workers(1))).collect();
        let points = random_points(800, 4.0, 21);
        let params = Params::new(0.25, 5);
        let single = device();
        let (reference, _) = fdbscan::fdbscan(&single, &points, params).unwrap();
        for ranks in [2usize, 3, 6] {
            let (dist, stats) =
                distributed_fdbscan_multi(&devices, &points, params, ranks).unwrap();
            assert_core_equivalent(&reference, &dist);
            assert_eq!(stats.ranks.len(), ranks);
        }
    }

    #[test]
    fn multi_device_repeated_runs_are_bit_identical() {
        let devices: Vec<Device> =
            (0..2).map(|_| Device::new(DeviceConfig::default().with_workers(2))).collect();
        let points = random_points(500, 3.0, 23);
        let params = Params::new(0.2, 4);
        let (first, _) = distributed_fdbscan_multi(&devices, &points, params, 4).unwrap();
        for _ in 0..3 {
            let (again, _) = distributed_fdbscan_multi(&devices, &points, params, 4).unwrap();
            assert_eq!(first, again, "thread interleaving must not leak into labels");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(8))]
        #[test]
        fn distributed_always_matches_oracle(
            seed in proptest::prelude::any::<u64>(),
            n in 1usize..150,
            ranks in 1usize..6,
            eps in 0.05f32..1.0,
            minpts in 1usize..6,
        ) {
            let d = device();
            let points = random_points(n, 3.0, seed);
            let params = Params::new(eps, minpts);
            let oracle = dbscan_canonical(&points, params);
            let (dist, _) = distributed_fdbscan(&d, &points, params, ranks).unwrap();
            proptest::prop_assert_eq!(dist, oracle);
        }
    }

    #[test]
    fn fault_free_run_makes_two_attempts_per_rank() {
        let d = device();
        let points = random_points(400, 4.0, 30);
        let (_, stats) = distributed_fdbscan(&d, &points, Params::new(0.3, 4), 4).unwrap();
        for (rank, r) in stats.ranks.iter().enumerate() {
            assert_eq!(r.attempts, 2, "rank {rank}: core pass + main phase");
            assert_eq!(r.core_attempts, 1, "rank {rank}: one core pass");
            assert_eq!(r.main_attempts, 1, "rank {rank}: one main phase");
            assert!(r.alive);
        }
        assert_eq!(stats.coordinator, 0);
        assert_eq!(
            stats.recovery,
            RecoveryEvents {
                // 4 ranks exchange points and flags with each other.
                messages_sent: 2 * 4 * 3,
                ..Default::default()
            }
        );
        assert!(stats.phase_work.local.launches > 0, "local phase does the real work");
        assert!(stats.phase_work.merge.launches > 0, "merge folds edge logs on device");
    }

    #[test]
    fn rank_kernels_are_named() {
        // Traces and the kernel histogram key on launch labels.
        let d = Device::new(DeviceConfig::sequential().with_tracing());
        let points = random_points(400, 4.0, 31);
        distributed_fdbscan(&d, &points, Params::new(0.3, 4), 3).unwrap();
        let labels: Vec<String> = d
            .tracer()
            .events()
            .into_iter()
            .filter(|e| e.kind == SpanKind::Kernel)
            .map(|e| e.label.to_string())
            .collect();
        for label in ["dist.core_count", "fdbscan.main_fused", "uf.flatten", "dist.merge_union"] {
            assert!(labels.iter().any(|l| l == label), "no {label} kernel in {labels:?}");
        }
        assert!(!labels.iter().any(|l| l == "unnamed"), "unnamed kernel in {labels:?}");
    }

    #[test]
    fn each_rank_builds_its_tree_once_per_round() {
        // The core pass's tree serves the main phase too.
        let points: Vec<Point2> = fdbscan_data::blobs(4000, 5, 0.2, 8.0, 0.2, 7);
        for ranks in [1usize, 3, 4] {
            let d = Device::new(DeviceConfig::sequential().with_tracing());
            distributed_fdbscan(&d, &points, Params::new(0.15, 5), ranks).unwrap();
            let builds = d
                .tracer()
                .events()
                .into_iter()
                .filter(|e| e.kind == SpanKind::Kernel && e.label == "bvh.build_bottom_up")
                .count();
            assert_eq!(builds, ranks, "tree builds at {ranks} ranks");
        }
    }

    #[test]
    fn retries_are_attributed_to_the_failing_phase() {
        let points = random_points(400, 4.0, 33);
        let params = Params::new(0.3, 4);
        // Attempt ordinal 0 of rank 1 is its core pass: the failure and
        // both resulting executions must land in `core_attempts`.
        let plan = FaultPlan::new(11).with_rank_failure(1, 1);
        let d = Device::new(DeviceConfig::default().with_workers(2).with_fault_plan(plan));
        let (_, stats) = distributed_fdbscan(&d, &points, params, 3).unwrap();
        assert_eq!(stats.ranks[1].core_attempts, 2, "failed once, retried once");
        assert_eq!(stats.ranks[1].main_attempts, 1);
        assert_eq!(stats.ranks[1].attempts, 3);
        assert_eq!(
            stats.ranks[1].attempts,
            stats.ranks[1].core_attempts + stats.ranks[1].main_attempts,
            "per-phase counts must partition the total"
        );
        assert_eq!(stats.ranks[0].core_attempts, 1);
        assert_eq!(stats.ranks[0].main_attempts, 1);
        assert_eq!(stats.recovery.rank_retries, 1);
    }

    #[test]
    fn injected_rank_failures_recover_identically() {
        let points = random_points(600, 4.0, 31);
        let params = Params::new(0.25, 5);
        let (reference, _) = distributed_fdbscan(&device(), &points, params, 4).unwrap();

        for failures in [1usize, 2] {
            let plan = FaultPlan::new(9).with_rank_failure(2, failures);
            let d = Device::new(DeviceConfig::default().with_workers(2).with_fault_plan(plan));
            let (got, stats) = distributed_fdbscan(&d, &points, params, 4).unwrap();
            assert_eq!(got, reference, "recovered run must be bit-identical");
            assert_eq!(stats.ranks[2].attempts, 2 + failures, "retries surface in DistStats");
            assert_eq!(stats.ranks[0].attempts, 2, "healthy ranks are untouched");
            assert_eq!(d.counters().snapshot().injected_rank_faults, failures as u64);
        }
    }

    #[test]
    fn unrecoverable_rank_failure_surfaces_cleanly() {
        let points = random_points(300, 4.0, 32);
        // One more failure than MAX_RANK_RETRIES allows attempts: fatal.
        let plan = FaultPlan::new(10).with_rank_failure(1, MAX_RANK_RETRIES + 1);
        let d = Device::new(DeviceConfig::default().with_workers(2).with_fault_plan(plan));
        let err = distributed_fdbscan(&d, &points, Params::new(0.3, 4), 3).unwrap_err();
        assert!(
            matches!(
                err,
                DistError::RankFailed {
                    rank: 1,
                    phase: "core",
                    source: DeviceError::FaultInjected { site: FaultSite::Rank { rank: 1, .. } },
                }
            ),
            "got {err:?}"
        );
        // Attempt ordinals are per run, so a re-run fails the same way:
        // deterministic, and the device itself stays usable (no leaked
        // reservations, workers alive).
        let again = distributed_fdbscan(&d, &points, Params::new(0.3, 4), 3).unwrap_err();
        assert_eq!(err, again);
        // No leaked reservations: only arena-pooled scratch stays charged.
        assert_eq!(d.memory().in_use(), d.arena().held_bytes());
        d.arena().trim();
        assert_eq!(d.memory().in_use(), 0);
    }

    #[test]
    fn non_finite_points_rejected() {
        let d = device();
        let points = vec![Point2::new([f32::INFINITY, 0.0])];
        let err = distributed_fdbscan(&d, &points, Params::new(1.0, 2), 2).unwrap_err();
        assert!(matches!(err, DistError::Device(DeviceError::InvalidInput { .. })));
    }

    #[test]
    fn huge_eps_ghosts_everything() {
        // eps wider than the domain: every rank sees all points; still
        // correct (fully replicated degenerate case).
        let d = device();
        let points = random_points(200, 1.0, 5);
        let params = Params::new(5.0, 3);
        let oracle = dbscan_classic(&points, params);
        let (dist, stats) = distributed_fdbscan(&d, &points, params, 3).unwrap();
        assert_core_equivalent(&oracle, &dist);
        for r in &stats.ranks {
            assert_eq!(r.owned + r.ghosts, 200);
        }
    }

    // ----- fault tolerance ---------------------------------------------

    #[test]
    fn rank_death_reshards_and_stays_bit_identical() {
        let points = random_points(500, 4.0, 40);
        let params = Params::new(0.3, 4);
        let oracle = dbscan_canonical(&points, params);
        let plan = FaultPlan::new(12).with_rank_death(1, PHASE_LOCAL);
        let d = Device::new(DeviceConfig::default().with_workers(2).with_fault_plan(plan));
        let (dist, stats) = distributed_fdbscan(&d, &points, params, 4).unwrap();
        assert_eq!(dist, oracle, "survivors must reproduce the oracle exactly");
        assert!(!stats.ranks[1].alive);
        assert_eq!(stats.ranks[1].owned, 0, "dead rank's slab was re-sharded");
        assert_eq!(stats.recovery.rank_deaths, 1);
        assert!(stats.recovery.resharded_points > 0, "its points moved to survivors");
        let owned: usize = stats.ranks.iter().map(|r| r.owned).sum();
        assert_eq!(owned, 500, "survivors repartition the whole set");
        assert_eq!(d.counters().snapshot().injected_rank_deaths, 1);
    }

    #[test]
    fn rank_death_at_halo_boundary_shrinks_the_fleet() {
        let points = random_points(400, 4.0, 41);
        let params = Params::new(0.3, 4);
        let oracle = dbscan_canonical(&points, params);
        let plan = FaultPlan::new(13).with_rank_death(2, PHASE_HALO);
        let d = Device::new(DeviceConfig::default().with_workers(2).with_fault_plan(plan));
        let (dist, stats) = distributed_fdbscan(&d, &points, params, 4).unwrap();
        assert_eq!(dist, oracle);
        assert!(!stats.ranks[2].alive);
        assert_eq!(stats.ranks[2].attempts, 0, "died before doing any work");
        assert_eq!(stats.recovery.rank_deaths, 1);
        assert_eq!(stats.recovery.resharded_points, 0, "death before the first shard");
    }

    #[test]
    fn coordinator_death_elects_successor_who_replays_the_merge() {
        let points = random_points(500, 4.0, 42);
        let params = Params::new(0.3, 4);
        let oracle = dbscan_canonical(&points, params);
        let plan = FaultPlan::new(14).with_rank_death(0, PHASE_MERGE);
        let d = Device::new(DeviceConfig::default().with_workers(2).with_fault_plan(plan));
        let (dist, stats) = distributed_fdbscan(&d, &points, params, 4).unwrap();
        assert_eq!(dist, oracle, "the replayed merge must be bit-identical");
        assert_eq!(stats.coordinator, 1, "lowest surviving rank id is elected");
        assert!(!stats.ranks[0].alive);
        assert!(stats.ranks[0].owned > 0, "its work was already checkpointed");
        assert_eq!(stats.recovery.coordinator_elections, 1);
        assert_eq!(stats.recovery.merge_replays, 1);
    }

    #[test]
    fn every_rank_dying_is_a_typed_error() {
        let points = random_points(200, 4.0, 43);
        let mut plan = FaultPlan::new(15);
        for rank in 0..3 {
            plan = plan.with_rank_death(rank, PHASE_HALO);
        }
        let d = Device::new(DeviceConfig::default().with_workers(2).with_fault_plan(plan));
        let err = distributed_fdbscan(&d, &points, Params::new(0.3, 4), 3).unwrap_err();
        assert_eq!(err, DistError::NoSurvivors);
        assert_eq!(d.memory().in_use(), d.arena().held_bytes());
        d.arena().trim();
        assert_eq!(d.memory().in_use(), 0);
    }

    #[test]
    fn message_faults_during_halo_are_recovered() {
        let points = random_points(500, 4.0, 44);
        let params = Params::new(0.3, 4);
        let oracle = dbscan_canonical(&points, params);
        let plan = FaultPlan::new(16)
            .with_message_drop(0)
            .with_message_corruption(5)
            .with_message_delay(2, 4);
        let d = Device::new(DeviceConfig::default().with_workers(2).with_fault_plan(plan));
        let (dist, stats) = distributed_fdbscan(&d, &points, params, 4).unwrap();
        assert_eq!(dist, oracle, "retransmitted halo must reproduce the oracle");
        assert_eq!(stats.recovery.messages_dropped, 1);
        assert_eq!(stats.recovery.messages_corrupted, 1);
        assert_eq!(stats.recovery.messages_delayed, 1);
        assert_eq!(stats.recovery.retransmits, 2, "drop + corruption; delays never retry");
        assert_eq!(d.counters().snapshot().injected_message_faults, 3);
    }

    #[test]
    fn persistent_message_loss_is_a_typed_error() {
        let points = random_points(300, 4.0, 45);
        let mut plan = FaultPlan::new(17);
        for ordinal in 0..=(MAX_MESSAGE_RETRIES as u64) {
            plan = plan.with_message_drop(ordinal);
        }
        let d = Device::new(DeviceConfig::default().with_workers(2).with_fault_plan(plan));
        let err = distributed_fdbscan(&d, &points, Params::new(0.3, 4), 3).unwrap_err();
        assert!(matches!(err, DistError::HaloExchange { .. }), "got {err:?}");
        assert_eq!(d.memory().in_use(), d.arena().held_bytes());
        d.arena().trim();
        assert_eq!(d.memory().in_use(), 0);
    }

    #[test]
    fn reshard_preflight_sheds_instead_of_oom() {
        // Rank 1 lives on a device too small for the whole domain. When
        // rank 0 dies, re-sharding everything onto rank 1 must be
        // refused up front with a typed error — not an OOM mid-phase.
        let points = random_points(400, 4.0, 46);
        let plan = FaultPlan::new(18).with_rank_death(0, PHASE_LOCAL);
        let devices = vec![
            Device::new(DeviceConfig::default().with_workers(2).with_fault_plan(plan)),
            Device::new(DeviceConfig::default().with_workers(2).with_memory_budget(1024)),
        ];
        let err = distributed_fdbscan_multi(&devices, &points, Params::new(0.3, 4), 2).unwrap_err();
        match err {
            DistError::CapacityExhausted {
                dead_rank,
                survivor,
                required_bytes,
                available_bytes,
            } => {
                assert_eq!(dead_rank, 0);
                assert_eq!(survivor, 1);
                assert!(required_bytes > available_bytes);
            }
            other => panic!("expected CapacityExhausted, got {other:?}"),
        }
    }

    #[test]
    fn injected_sleeper_observes_the_backoff_schedule() {
        let points = random_points(300, 4.0, 47);
        let plan = FaultPlan::new(19).with_rank_failure(1, 2);
        let d = Device::new(DeviceConfig::default().with_workers(2).with_fault_plan(plan));
        let sleeper = InstantSleeper::new();
        let config = DistConfig::new(3).with_sleeper(&sleeper);
        let (_, stats) = distributed_fdbscan_with(
            std::slice::from_ref(&d),
            &points,
            Params::new(0.3, 4),
            config,
        )
        .unwrap();
        assert_eq!(stats.ranks[1].attempts, 4, "2 failures, retried into success");
        // The deterministic schedule, observed without really sleeping.
        assert_eq!(sleeper.slept(), vec![retry_backoff(1), retry_backoff(2)]);
    }

    #[test]
    fn metrics_capture_runs_recoveries_and_failures() {
        let registry = MetricsRegistry::new(true);
        let metrics = DistMetrics::new(&registry);
        let points = random_points(400, 4.0, 48);
        let params = Params::new(0.3, 4);

        // A recovered run with a rank death.
        let plan = FaultPlan::new(20).with_rank_death(1, PHASE_LOCAL);
        let d = Device::new(DeviceConfig::default().with_workers(2).with_fault_plan(plan));
        let config = DistConfig::new(3).with_metrics(&metrics).with_request_id(77);
        distributed_fdbscan_with(std::slice::from_ref(&d), &points, params, config).unwrap();

        // A failed run: everyone dies.
        let mut plan = FaultPlan::new(21);
        for rank in 0..3 {
            plan = plan.with_rank_death(rank, PHASE_HALO);
        }
        let d2 = Device::new(DeviceConfig::default().with_workers(2).with_fault_plan(plan));
        let config = DistConfig::new(3).with_metrics(&metrics);
        let err = distributed_fdbscan_with(std::slice::from_ref(&d2), &points, params, config)
            .unwrap_err();
        assert_eq!(err, DistError::NoSurvivors);

        assert_eq!(metrics.inflight(), 0, "inflight gauge must not leak on any path");
        let text = registry.render_prometheus();
        fdbscan_device::metrics::validate_exposition(&text).expect("valid exposition");
        assert!(text.contains("fdbscan_dist_runs_total 1"), "{text}");
        assert!(text.contains("fdbscan_dist_runs_failed_total 1"));
        assert!(text.contains("fdbscan_dist_rank_deaths_total 4"), "1 + 3 deaths");
        assert!(text.contains("fdbscan_dist_runs_inflight 0"));
        assert!(text.contains("fdbscan_dist_merge_seconds"));
    }
}
