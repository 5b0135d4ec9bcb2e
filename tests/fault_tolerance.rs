//! Fault-tolerance integration tests: deterministic fault injection,
//! pool survival after kernel panics, OOM at every reservation ordinal,
//! and the graceful-degradation ladder.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use fdbscan::labels::assert_core_equivalent;
use fdbscan::seq::dbscan_classic;
use fdbscan::verify::assert_valid_clustering;
use fdbscan::{fdbscan, fdbscan_densebox, run_resilient, LadderLevel, Params, ResiliencePolicy};
use fdbscan_data::Dataset2;
use fdbscan_device::{Device, DeviceConfig, DeviceError, FaultPlan, SpanKind};
use fdbscan_geom::Point2;
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

fn random_points(n: usize, extent: f32, seed: u64) -> Vec<Point2> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| Point2::new([rng.gen_range(0.0..extent), rng.gen_range(0.0..extent)])).collect()
}

// ---------------------------------------------------------------------------
// Pool survival: a panicking launch must not poison the worker pool.
// ---------------------------------------------------------------------------

#[test]
fn pool_survives_panic_and_runs_100_more_launches() {
    // 8 workers and 1-element blocks: maximum contention on the job
    // cursor, every worker touches every launch.
    let device = Device::new(DeviceConfig::default().with_workers(8).with_block_size(1));

    let err = device
        .try_launch(64, |i| {
            if i == 17 {
                panic!("injected test panic");
            }
        })
        .unwrap_err();
    match err {
        DeviceError::KernelPanicked { payload, .. } => {
            assert!(payload.contains("injected test panic"), "payload: {payload}")
        }
        other => panic!("expected KernelPanicked, got {other:?}"),
    }

    // The pool, counters, and memory tracker remain fully usable.
    for round in 0..100u64 {
        let sum = AtomicU64::new(0);
        device
            .try_launch(64, |i| {
                sum.fetch_add(i as u64 + round, Ordering::Relaxed);
            })
            .unwrap();
        assert_eq!(sum.load(Ordering::Relaxed), (0..64).sum::<u64>() + 64 * round);
    }
    assert_eq!(device.memory().in_use(), 0);
    assert_eq!(device.counters().snapshot().failed_launches, 1);
}

#[test]
fn clustering_still_correct_after_failed_launch() {
    let device = Device::new(DeviceConfig::default().with_workers(4).with_block_size(1));
    let _ = device.try_launch(32, |_| panic!("poison attempt")).unwrap_err();

    let points = random_points(400, 4.0, 77);
    let params = Params::new(0.3, 4);
    let oracle = dbscan_classic(&points, params);
    let (got, _) = fdbscan(&device, &points, params).unwrap();
    assert_core_equivalent(&oracle, &got);
}

// ---------------------------------------------------------------------------
// Deterministic injection: the same seeded plan produces the same error
// at the same launch/reservation ordinal, every time.
// ---------------------------------------------------------------------------

/// Canonical signature of a run outcome, ignoring wall-clock-dependent
/// detail (timeout durations) so repeats can be compared for equality.
fn outcome_signature(
    result: Result<Result<(), DeviceError>, Box<dyn std::any::Any + Send>>,
) -> String {
    match result {
        Ok(Ok(())) => "ok".to_string(),
        Ok(Err(DeviceError::OutOfMemory { requested, .. })) => format!("oom:{requested}"),
        Ok(Err(DeviceError::KernelPanicked { launch, payload })) => {
            format!("panic:{launch}:{payload}")
        }
        Ok(Err(DeviceError::KernelTimeout { launch, .. })) => format!("timeout:{launch}"),
        Ok(Err(other)) => format!("err:{other}"),
        Err(payload) => {
            let mut s = if let Some(s) = payload.downcast_ref::<&'static str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "non-string".to_string()
            };
            // "timed out after 12.3ms" varies run to run; cut the tail.
            if let Some(pos) = s.find(" after ") {
                s.truncate(pos);
            }
            format!("escaped-panic:{s}")
        }
    }
}

fn densebox_outcome_with_plan(plan: FaultPlan, timeout: Option<Duration>) -> String {
    let mut config = DeviceConfig::default().with_workers(2).with_fault_plan(plan);
    if let Some(t) = timeout {
        config = config.with_kernel_timeout(t);
    }
    let device = Device::new(config);
    let points = random_points(600, 2.0, 5);
    let result = catch_unwind(AssertUnwindSafe(|| {
        fdbscan_densebox(&device, &points, Params::new(0.3, 5)).map(|_| ())
    }));
    outcome_signature(result)
}

#[test]
fn injected_faults_into_densebox_are_deterministic_across_10_repeats() {
    let scenarios: Vec<(&str, FaultPlan, Option<Duration>)> = vec![
        ("oom", FaultPlan::new(1).with_oom_at_reservation(1), None),
        ("panic", FaultPlan::new(2).with_kernel_panic_at(2, 0), None),
        ("stall", FaultPlan::new(3).with_worker_stall(3, 0, 80), Some(Duration::from_millis(15))),
    ];
    for (name, plan, timeout) in scenarios {
        let first = densebox_outcome_with_plan(plan.clone(), timeout);
        assert_ne!(first, "ok", "{name}: the fault must actually fire");
        for repeat in 1..10 {
            let again = densebox_outcome_with_plan(plan.clone(), timeout);
            assert_eq!(first, again, "{name}: repeat {repeat} diverged");
        }
    }
}

// ---------------------------------------------------------------------------
// OOM at every reservation ordinal: no poisoned pool, no leaked bytes.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn fdbscan_survives_oom_at_every_reservation_ordinal(
        seed in any::<u64>(),
        n in 50usize..300,
        eps in 0.1f32..0.6,
        minpts in 1usize..8,
    ) {
        let points = random_points(n, 3.0, seed);
        let params = Params::new(eps, minpts);
        let oracle = dbscan_classic(&points, params);

        // Count the reservations of a clean run.
        let clean = Device::new(DeviceConfig::default().with_workers(2));
        fdbscan(&clean, &points, params).unwrap();
        let reservations = clean.memory().reservations_made();
        prop_assert!(reservations > 0);

        for ordinal in 0..reservations {
            let plan = FaultPlan::new(seed).with_oom_at_reservation(ordinal);
            let device =
                Device::new(DeviceConfig::default().with_workers(2).with_fault_plan(plan));
            match fdbscan(&device, &points, params) {
                Ok((clustering, _)) => {
                    assert_core_equivalent(&oracle, &clustering);
                    assert_valid_clustering(&points, &clustering, params);
                }
                Err(DeviceError::OutOfMemory { .. }) => {}
                Err(other) => prop_assert!(false, "unexpected error: {other:?}"),
            }
            // Never a leaked reservation, and the device stays usable.
            prop_assert_eq!(device.memory().in_use(), 0);
            let (retry, _) = fdbscan(&device, &points, params).unwrap();
            assert_core_equivalent(&oracle, &retry);
            prop_assert_eq!(device.memory().in_use(), 0);
        }
    }
}

// ---------------------------------------------------------------------------
// The graceful-degradation ladder on the fig4-scaling OOM configuration.
// ---------------------------------------------------------------------------

#[test]
fn ladder_recovers_oracle_clustering_on_gdbscan_oom_config() {
    // Fig. 4(g)(h)(i) PortoTaxi configuration (minpts = 1000, eps = 0.05)
    // at n = 4096, with a budget that holds the linear algorithms
    // (~0.5 MiB) but not G-DBSCAN's ~17 MiB adjacency graph.
    let points = Dataset2::PortoTaxi.generate(4096, 42);
    let params = Params::new(0.05, 1000);
    let device = Device::new(DeviceConfig::default().with_workers(2).with_memory_budget(4 << 20));
    // G-DBSCAN is an opt-in first rung; the default starts on DenseBox.
    let policy = ResiliencePolicy { start: LadderLevel::GDbscan, ..Default::default() };

    let (clustering, _, report) = run_resilient(&device, &points, params, policy).unwrap();

    assert!(report.degraded(), "G-DBSCAN must not have produced the result");
    assert_ne!(report.completed, Some(LadderLevel::GDbscan));
    assert!(matches!(report.attempts[0].level, LadderLevel::GDbscan));

    let oracle = dbscan_classic(&points, params);
    assert_core_equivalent(&oracle, &clustering);
    assert_valid_clustering(&points, &clustering, params);
    assert_eq!(device.memory().in_use(), 0);
}

#[test]
fn ladder_reaches_sequential_under_total_device_failure() {
    // Panic at every block of every launch is not expressible, but a
    // broken allocator is: every reservation over 1 byte fails, so every
    // device algorithm dies and only the host oracle can answer.
    let points = random_points(250, 3.0, 11);
    let params = Params::new(0.3, 4);
    let plan = FaultPlan::new(4).with_oom_above_bytes(1);
    let device = Device::new(DeviceConfig::default().with_workers(2).with_fault_plan(plan));

    let (clustering, _, report) =
        run_resilient(&device, &points, params, ResiliencePolicy::default()).unwrap();
    assert_eq!(report.completed, Some(LadderLevel::Sequential));
    let oracle = dbscan_classic(&points, params);
    assert_core_equivalent(&oracle, &clustering);
}

#[test]
fn watchdog_timeout_is_recoverable() {
    // A 100 ms stall against a 20 ms watchdog: the launch times out, the
    // retry (stall ordinals fire once) succeeds.
    let points = random_points(300, 3.0, 13);
    let params = Params::new(0.3, 4);
    let plan = FaultPlan::new(5).with_worker_stall(0, 0, 100);
    let device = Device::new(
        DeviceConfig::default()
            .with_workers(2)
            .with_fault_plan(plan)
            .with_kernel_timeout(Duration::from_millis(20)),
    );
    let outcome = fdbscan(&device, &points, params).map(|_| ());
    assert!(
        matches!(outcome, Err(DeviceError::KernelTimeout { .. })),
        "expected a watchdog timeout, got {outcome:?}"
    );
    assert_eq!(device.memory().in_use(), 0);

    let oracle = dbscan_classic(&points, params);
    let (got, _) = fdbscan(&device, &points, params).unwrap();
    assert_core_equivalent(&oracle, &got);
}

#[test]
fn panic_in_the_flatten_launch_is_an_error() {
    // Finalization's union-find flatten is the last launch of both tree
    // algorithms: count a clean run's launches, then fault the last one.
    let points = random_points(2000, 4.0, 19);
    let params = Params::new(0.2, 4);
    for algo in ["fdbscan", "fdbscan-densebox"] {
        let run = |d: &Device| match algo {
            "fdbscan" => fdbscan(d, &points, params).map(|_| ()),
            _ => fdbscan_densebox(d, &points, params).map(|_| ()),
        };
        let clean = Device::new(DeviceConfig::sequential().with_tracing());
        run(&clean).unwrap();
        let last_kernel = clean
            .tracer()
            .events()
            .into_iter()
            .filter(|e| e.kind == SpanKind::Kernel)
            .max_by_key(|e| e.start_ns)
            .map(|e| e.label.to_string());
        assert_eq!(last_kernel.as_deref(), Some("uf.flatten"), "{algo}");

        let last = clean.launches_started() - 1;
        let plan = FaultPlan::new(7).with_kernel_panic_at(last, 0);
        let device = Device::new(DeviceConfig::sequential().with_fault_plan(plan));
        match run(&device) {
            Err(DeviceError::KernelPanicked { launch, .. }) => assert_eq!(launch, last, "{algo}"),
            other => panic!("{algo}: expected KernelPanicked at launch {last}, got {other:?}"),
        }
        assert_eq!(device.memory().in_use(), 0, "{algo}");
    }
}

// ---------------------------------------------------------------------------
// Watchdog edge cases: a deadline that is already due when the launch
// enters the pool, and a deadline that expires between batched stages.
// ---------------------------------------------------------------------------

#[test]
fn zero_watchdog_deadline_times_out_before_any_block_runs() {
    // The watchdog deadline is armed at launch entry; Duration::ZERO
    // means it is already due at the first block pull, so the launch
    // must report KernelTimeout having executed zero blocks.
    let device = Device::new(
        DeviceConfig::default()
            .with_workers(2)
            .with_block_size(8)
            .with_kernel_timeout(Duration::ZERO),
    );
    let executed = AtomicU64::new(0);
    let err = device
        .try_launch(64, |_| {
            executed.fetch_add(1, Ordering::Relaxed);
        })
        .unwrap_err();
    assert!(matches!(err, DeviceError::KernelTimeout { launch: 0, .. }), "got {err:?}");
    assert_eq!(executed.load(Ordering::Relaxed), 0, "an already-due deadline ran blocks");
    assert_eq!(device.counters().snapshot().failed_launches, 1);
    assert_eq!(device.memory().in_use(), 0);
}

#[test]
fn zero_watchdog_deadline_fails_a_batch_in_its_first_stage() {
    let device =
        Device::new(DeviceConfig::default().with_workers(2).with_kernel_timeout(Duration::ZERO));
    let stage_two_ran = AtomicU64::new(0);
    let err = device
        .try_batch_named(
            "edge.zero-deadline",
            vec![
                fdbscan_device::BatchStage::new("first", 32, |_| {}),
                fdbscan_device::BatchStage::new("second", 32, |_| {
                    stage_two_ran.fetch_add(1, Ordering::Relaxed);
                }),
            ],
        )
        .unwrap_err();
    assert!(matches!(err, DeviceError::KernelTimeout { .. }), "got {err:?}");
    assert_eq!(stage_two_ran.load(Ordering::Relaxed), 0, "stage 2 ran after stage 1 timed out");
    // Exactly one stage was attempted; the batch is one launch, one failure.
    let snap = device.counters().snapshot();
    assert_eq!(snap.batched_stages, 1);
    assert_eq!(snap.failed_launches, 1);
    assert_eq!(snap.kernel_launches, 1);
}

#[test]
fn stall_past_watchdog_between_batched_stages_skips_the_rest() {
    // Stage 1 stalls 100 ms against a 15 ms watchdog. The batch shares
    // one deadline across stages, so the timeout surfaces from stage 1
    // and stage 2 must never start.
    let plan = FaultPlan::new(9).with_worker_stall(0, 0, 100);
    let device = Device::new(
        DeviceConfig::default()
            .with_workers(2)
            .with_fault_plan(plan)
            .with_kernel_timeout(Duration::from_millis(15)),
    );
    let stage_two_ran = AtomicU64::new(0);
    let err = device
        .try_batch_named(
            "edge.stalled-stage",
            vec![
                fdbscan_device::BatchStage::new("stall", 64, |_| {}),
                fdbscan_device::BatchStage::new("after", 64, |_| {
                    stage_two_ran.fetch_add(1, Ordering::Relaxed);
                }),
            ],
        )
        .unwrap_err();
    assert!(matches!(err, DeviceError::KernelTimeout { launch: 0, .. }), "got {err:?}");
    assert_eq!(stage_two_ran.load(Ordering::Relaxed), 0, "stage after the stall still ran");
    let snap = device.counters().snapshot();
    assert_eq!(snap.injected_stalls, 1);
    assert_eq!(snap.batched_stages, 1);
    // The stall ordinal fired once; the device remains usable without it.
    device
        .try_batch_named(
            "edge.retry",
            vec![fdbscan_device::BatchStage::new("after", 64, |_| {
                stage_two_ran.fetch_add(1, Ordering::Relaxed);
            })],
        )
        .unwrap();
    assert_eq!(stage_two_ran.load(Ordering::Relaxed), 64);
}

// ---------------------------------------------------------------------------
// Backend-explicit fault recovery: the threaded pool and the injection
// ordinals behave identically when the backend is selected explicitly
// rather than through worker-count defaults.
// ---------------------------------------------------------------------------

#[test]
fn explicit_threaded_backend_recovers_from_injected_worker_panic() {
    use fdbscan_device::Backend;

    // Panic injected into block 3 of launch 0: exactly one worker of
    // the explicit 4-worker threaded backend hits it.
    let device = Device::new(
        DeviceConfig::default()
            .with_backend(Backend::Threaded { workers: 4 })
            .with_block_size(4)
            .with_fault_plan(FaultPlan::new(91).with_kernel_panic_at(0, 3)),
    );
    assert_eq!(device.backend(), Backend::Threaded { workers: 4 });

    let err = device.try_launch(64, |_| {}).unwrap_err();
    assert!(matches!(err, DeviceError::KernelPanicked { launch: 0, .. }), "got {err:?}");
    let snap = device.counters().snapshot();
    assert_eq!(snap.injected_panics, 1);
    assert_eq!(snap.failed_launches, 1);
    assert_eq!(device.active_launches(), 0, "panicked launch left the gauge stuck");

    // The surviving pool still produces oracle-equivalent clusterings.
    let points = random_points(300, 4.0, 91);
    let params = Params::new(0.3, 4);
    let (got, _) = fdbscan(&device, &points, params).unwrap();
    assert_core_equivalent(&dbscan_classic(&points, params), &got);
    assert_eq!(device.memory().in_use(), 0);
}

#[test]
fn oom_ordinal_fires_exactly_once_under_concurrent_reservations() {
    // The injected-OOM ordinal is a global atomic: with four client
    // threads racing reservations against a threaded-backend device,
    // exactly one reservation may observe the fault — never zero,
    // never two — and the error must not double-count.
    let device = std::sync::Arc::new(Device::new(
        DeviceConfig::default()
            .with_workers(4)
            .with_fault_plan(FaultPlan::new(7).with_oom_at_reservation(5)),
    ));
    let failures = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let device = std::sync::Arc::clone(&device);
            let failures = &failures;
            scope.spawn(move || {
                for _ in 0..4 {
                    match device.arena().take::<u8>(1 << 10) {
                        Ok(buf) => drop(buf),
                        Err(DeviceError::OutOfMemory { .. }) => {
                            failures.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(other) => panic!("unexpected reservation error: {other:?}"),
                    }
                }
            });
        }
    });
    assert_eq!(failures.load(Ordering::Relaxed), 1, "OOM ordinal fired a wrong number of times");
    assert_eq!(device.counters().snapshot().injected_oom, 1);
    // All successful reservations unwound.
    assert_eq!(device.memory().in_use(), 0);
}
