//! Distributed chaos matrix: every fault kind the simulated cluster can
//! suffer — non-coordinator rank kill, coordinator kill, halo-message
//! drop, halo-message corruption — injected at every phase boundary
//! (halo, local, merge) of a distributed run.
//!
//! The contract under test is absolute: a run that survives its fault
//! schedule must produce labels **bit-identical** to the unfaulted
//! single-device canonical oracle (`fdbscan::seq::dbscan_canonical`),
//! and a run that cannot survive must fail with a typed [`DistError`] —
//! never a panic, never a leaked device reservation, never a stuck
//! `fdbscan_dist_runs_inflight` gauge.
//!
//! The dataset seed is taken from `FDBSCAN_CHAOS_SEED` (default 1); CI
//! sweeps several seeds so the matrix runs over independent datasets.

use std::panic::{catch_unwind, AssertUnwindSafe};

use fdbscan::seq::dbscan_canonical;
use fdbscan::verify::assert_valid_clustering;
use fdbscan::Params;
use fdbscan_device::metrics::{validate_exposition, MetricsRegistry};
use fdbscan_device::{Device, DeviceConfig, FaultPlan};
use fdbscan_dist::{
    distributed_fdbscan_multi, distributed_fdbscan_with, DistConfig, DistError, DistMetrics,
    InstantSleeper, MAX_MESSAGE_RETRIES, PHASE_HALO, PHASE_LOCAL, PHASE_MERGE,
};
use fdbscan_geom::Point2;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Rank count of the simulated cluster. Four ranks give every fault a
/// distinct victim, a distinct coordinator, and surviving neighbors on
/// both sides of any dead slab.
const RANKS: usize = 4;

/// Messages per all-pairs exchange: each ordered rank pair sends once.
const EXCHANGE_MESSAGES: u64 = (RANKS * (RANKS - 1)) as u64;

fn chaos_seed() -> u64 {
    std::env::var("FDBSCAN_CHAOS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(1)
}

/// Sparse scatter plus a dense strip along the cut axis: the strip is
/// one cluster crossing every slab boundary, so every fault hits work
/// the merge genuinely needs.
fn dataset(seed: u64) -> Vec<Point2> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut points: Vec<Point2> =
        (0..240).map(|_| Point2::new([rng.gen_range(0.0..4.0), rng.gen_range(0.0..4.0)])).collect();
    points.extend((0..120).map(|i| Point2::new([i as f32 * 0.03, 2.0 + rng.gen_range(0.0..0.02)])));
    points
}

fn params() -> Params {
    Params::new(0.15, 4)
}

fn faulty_device(plan: FaultPlan) -> Device {
    Device::new(DeviceConfig::default().with_workers(2).with_fault_plan(plan))
}

/// No leaked reservations: the device holds zero bytes after a run.
fn assert_no_leaks(d: &Device) {
    assert_eq!(d.memory().in_use(), 0, "a finished run must hold nothing");
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Fault {
    /// Permanent death of a non-coordinator rank.
    RankKill,
    /// Permanent death of rank 0, the planned merge coordinator.
    CoordinatorKill,
    /// One halo-exchange frame lost in flight.
    MessageDrop,
    /// One halo-exchange frame delivered with flipped bytes.
    MessageCorrupt,
}

impl Fault {
    const ALL: [Fault; 4] =
        [Fault::RankKill, Fault::CoordinatorKill, Fault::MessageDrop, Fault::MessageCorrupt];

    /// The message ordinal standing in for a phase boundary: the points
    /// exchange is the halo phase's traffic, the core-flag exchange is
    /// the local phase's, and the merge moves no messages at all — its
    /// slot targets an ordinal past all traffic, asserting exactly that.
    fn message_ordinal(phase: u8) -> u64 {
        match phase {
            PHASE_HALO => 1,
            PHASE_LOCAL => EXCHANGE_MESSAGES + 1,
            _ => 10 * EXCHANGE_MESSAGES,
        }
    }

    fn plan(self, seed: u64, phase: u8) -> FaultPlan {
        match self {
            Fault::RankKill => FaultPlan::new(seed).with_rank_death(2, phase),
            Fault::CoordinatorKill => FaultPlan::new(seed).with_rank_death(0, phase),
            Fault::MessageDrop => {
                FaultPlan::new(seed).with_message_drop(Self::message_ordinal(phase))
            }
            Fault::MessageCorrupt => {
                FaultPlan::new(seed).with_message_corruption(Self::message_ordinal(phase))
            }
        }
    }
}

/// The full matrix: 4 fault kinds × 3 phase boundaries, every cell
/// recovering to the exact oracle labeling with clean telemetry.
#[test]
fn chaos_matrix_recovers_bit_identically() {
    let seed = chaos_seed();
    let points = dataset(seed);
    let params = params();
    let oracle = dbscan_canonical(&points, params);

    for fault in Fault::ALL {
        for phase in [PHASE_HALO, PHASE_LOCAL, PHASE_MERGE] {
            let ctx = format!("fault={fault:?} phase={phase} FDBSCAN_CHAOS_SEED={seed}");
            let d = faulty_device(fault.plan(seed, phase));
            let sleeper = InstantSleeper::new();
            let registry = MetricsRegistry::new(true);
            let metrics = DistMetrics::new(&registry);
            let config = DistConfig::new(RANKS).with_sleeper(&sleeper).with_metrics(&metrics);

            let outcome = catch_unwind(AssertUnwindSafe(|| {
                distributed_fdbscan_with(std::slice::from_ref(&d), &points, params, config)
            }));
            let result = outcome.unwrap_or_else(|_| panic!("{ctx}: run panicked"));
            let (clustering, stats) =
                result.unwrap_or_else(|e| panic!("{ctx}: must recover, got {e}"));

            assert_eq!(clustering, oracle, "{ctx}: labels must be bit-identical to the oracle");
            assert_valid_clustering(&points, &clustering, params);

            match fault {
                Fault::RankKill | Fault::CoordinatorKill => {
                    let victim = if fault == Fault::RankKill { 2 } else { 0 };
                    assert_eq!(stats.recovery.rank_deaths, 1, "{ctx}");
                    assert!(!stats.ranks[victim].alive, "{ctx}: victim must be recorded dead");
                    let owned: usize = stats.ranks.iter().map(|r| r.owned).sum();
                    assert_eq!(owned, points.len(), "{ctx}: survivors must own every point");
                    if phase == PHASE_LOCAL {
                        // A local-boundary death discards sharded state,
                        // so the redo round visibly moves points.
                        assert!(stats.recovery.resharded_points > 0, "{ctx}");
                    }
                    if phase == PHASE_MERGE {
                        // Merge-boundary deaths never re-shard: the dead
                        // rank's summary is already durable.
                        assert_eq!(stats.recovery.resharded_points, 0, "{ctx}");
                        assert!(stats.ranks[victim].owned > 0, "{ctx}");
                    }
                }
                Fault::MessageDrop if phase != PHASE_MERGE => {
                    assert_eq!(stats.recovery.messages_dropped, 1, "{ctx}");
                    assert_eq!(stats.recovery.retransmits, 1, "{ctx}");
                }
                Fault::MessageCorrupt if phase != PHASE_MERGE => {
                    assert_eq!(stats.recovery.messages_corrupted, 1, "{ctx}");
                    assert_eq!(stats.recovery.retransmits, 1, "{ctx}");
                }
                Fault::MessageDrop | Fault::MessageCorrupt => {
                    // The merge moves no messages: a fault armed past
                    // all traffic never fires.
                    assert_eq!(stats.recovery.retransmits, 0, "{ctx}");
                    assert_eq!(stats.recovery.messages_sent, 2 * EXCHANGE_MESSAGES, "{ctx}");
                }
            }

            if fault == Fault::CoordinatorKill {
                assert_eq!(stats.coordinator, 1, "{ctx}: lowest survivor coordinates");
                if phase == PHASE_MERGE {
                    assert_eq!(stats.recovery.coordinator_elections, 1, "{ctx}");
                    assert_eq!(stats.recovery.merge_replays, 1, "{ctx}");
                } else {
                    // Pre-merge coordinator deaths re-shard; the merge
                    // starts under the successor, no election needed.
                    assert_eq!(stats.recovery.coordinator_elections, 0, "{ctx}");
                }
            }

            assert_no_leaks(&d);
            assert_eq!(metrics.inflight(), 0, "{ctx}: inflight gauge leaked");
            let text = registry.render_prometheus();
            validate_exposition(&text).unwrap_or_else(|e| panic!("{ctx}: bad exposition: {e}"));
            assert!(text.contains("fdbscan_dist_runs_total 1"), "{ctx}");
        }
    }
}

/// Every fault kind stacked into one schedule — transient rank
/// failures, a mid-run death, a coordinator death, and all three
/// message faults — still recovering to the exact oracle labeling.
#[test]
fn stacked_chaos_recovers_bit_identically() {
    let seed = chaos_seed();
    let points = dataset(seed);
    let params = params();
    let oracle = dbscan_canonical(&points, params);

    let plan = FaultPlan::new(seed)
        .with_rank_failure(1, 2)
        .with_rank_death(3, PHASE_LOCAL)
        .with_rank_death(0, PHASE_MERGE)
        .with_message_drop(0)
        .with_message_corruption(2)
        .with_message_delay(4, 2);
    let d = faulty_device(plan);
    let sleeper = InstantSleeper::new();
    let registry = MetricsRegistry::new(true);
    let metrics = DistMetrics::new(&registry);
    let config = DistConfig::new(RANKS).with_sleeper(&sleeper).with_metrics(&metrics);

    let (clustering, stats) =
        distributed_fdbscan_with(std::slice::from_ref(&d), &points, params, config)
            .expect("stacked chaos must recover");
    assert_eq!(clustering, oracle, "labels must be bit-identical to the oracle");

    assert_eq!(stats.recovery.rank_deaths, 2);
    assert_eq!(stats.recovery.coordinator_elections, 1);
    assert_eq!(stats.recovery.merge_replays, 1);
    assert_eq!(stats.coordinator, 1, "lowest survivor of {{1, 2}} replays the merge");
    assert_eq!(stats.recovery.messages_dropped, 1);
    assert_eq!(stats.recovery.messages_corrupted, 1);
    assert_eq!(stats.recovery.messages_delayed, 1);
    assert_eq!(stats.recovery.retransmits, 2, "drop and corruption each retransmit once");
    assert!(stats.recovery.rank_retries >= 2, "rank 1's injected failures must retry");
    assert!(!sleeper.slept().is_empty(), "retries must back off through the sleeper");
    assert!(stats.recovery.resharded_points > 0, "the local-phase death must re-shard");

    assert_no_leaks(&d);
    assert_eq!(metrics.inflight(), 0);
    validate_exposition(&registry.render_prometheus()).expect("exposition must stay valid");
}

/// Rank deaths on a multi-device fleet: the victim's device drops out
/// mid-run and both devices still come back leak-free, with the result
/// bit-identical to the oracle.
#[test]
fn multi_device_rank_death_recovers_bit_identically() {
    let seed = chaos_seed();
    let points = dataset(seed);
    let params = params();
    let oracle = dbscan_canonical(&points, params);

    for phase in [PHASE_HALO, PHASE_LOCAL, PHASE_MERGE] {
        let devices = [
            faulty_device(FaultPlan::new(seed).with_rank_death(1, phase)),
            Device::new(DeviceConfig::default().with_workers(2)),
        ];
        let (clustering, stats) = distributed_fdbscan_multi(&devices, &points, params, RANKS)
            .unwrap_or_else(|e| panic!("phase={phase}: must recover, got {e}"));
        assert_eq!(clustering, oracle, "phase={phase}: labels must be bit-identical");
        assert_eq!(stats.recovery.rank_deaths, 1);
        for d in &devices {
            assert_no_leaks(d);
        }
    }
}

/// Killing every rank is not recoverable — and not a panic either: the
/// run ends in the typed end state with nothing leaked.
#[test]
fn total_rank_loss_is_a_typed_error() {
    let seed = chaos_seed();
    let points = dataset(seed);
    let mut plan = FaultPlan::new(seed);
    for (r, phase) in [(0, PHASE_HALO), (1, PHASE_HALO), (2, PHASE_LOCAL), (3, PHASE_LOCAL)] {
        plan = plan.with_rank_death(r, phase);
    }
    let d = faulty_device(plan);
    let registry = MetricsRegistry::new(true);
    let metrics = DistMetrics::new(&registry);
    let config = DistConfig::new(RANKS).with_metrics(&metrics);

    let outcome = catch_unwind(AssertUnwindSafe(|| {
        distributed_fdbscan_with(std::slice::from_ref(&d), &points, params(), config)
    }));
    let err = outcome.expect("total loss must not panic").unwrap_err();
    assert_eq!(err, DistError::NoSurvivors);

    assert_no_leaks(&d);
    assert_eq!(metrics.inflight(), 0, "failed runs must release the gauge");
    let text = registry.render_prometheus();
    validate_exposition(&text).expect("exposition must stay valid");
    assert!(text.contains("fdbscan_dist_runs_failed_total 1"), "failure must be counted:\n{text}");
}

/// A link that eats every retransmission of one frame surfaces as the
/// typed transport error, attributed to the failing rank pair.
#[test]
fn persistent_message_loss_is_a_typed_error() {
    let seed = chaos_seed();
    let points = dataset(seed);
    let mut plan = FaultPlan::new(seed);
    for ordinal in 0..=(MAX_MESSAGE_RETRIES as u64) {
        plan = plan.with_message_drop(ordinal);
    }
    let d = faulty_device(plan);

    let outcome = catch_unwind(AssertUnwindSafe(|| {
        distributed_fdbscan_with(
            std::slice::from_ref(&d),
            &points,
            params(),
            DistConfig::new(RANKS),
        )
    }));
    let err = outcome.expect("persistent loss must not panic").unwrap_err();
    assert!(
        matches!(err, DistError::HaloExchange { .. }),
        "expected a transport error, got {err:?}"
    );
    assert_no_leaks(&d);
}
