//! Determinism contract of the execution backends.
//!
//! The sequential backend is the repo's oracle: same input, same seed
//! ⇒ bit-identical labels *and* bit-identical work counters, because
//! blocks run in order on one thread and reduce partials combine in
//! index order. The threaded backend trades that for wall-clock speed:
//! workers pull blocks from a shared cursor, so schedule-dependent
//! counters (`finds` path lengths, border `label_cas`) vary run to run
//! — but the *labels* must not. These tests pin exactly which
//! guarantees each backend makes:
//!
//! * both backends: same seed ⇒ bit-identical `Clustering` across
//!   repeats, and deterministic launch structure (`kernel_launches`,
//!   `batched_stages`),
//! * sequential only: the full counter snapshot is a pure function of
//!   the input,
//! * any thread count: canonically identical labels (same clusters,
//!   same cores; border ties may attach to a different adjacent
//!   cluster, which is the DBSCAN-canonical freedom),
//! * cancellation and deadlines fired mid-run on the threaded backend
//!   leak no reservations and leave no launch gauge stuck.

use std::time::Duration;

use fdbscan::labels::assert_core_equivalent;
use fdbscan::seq::dbscan_classic;
use fdbscan::verify::assert_valid_clustering;
use fdbscan::{fdbscan, fdbscan_densebox, Clustering, Params, RunStats};
use fdbscan_data::blobs;
use fdbscan_device::{
    BatchStage, CancelToken, CountersSnapshot, Device, DeviceConfig, DeviceError,
};
use fdbscan_geom::Point2;

fn dataset(n: usize, seed: u64) -> Vec<Point2> {
    blobs::<2>(n, 4, 0.15, 4.0, 0.2, seed)
}

const PARAMS: Params = Params { eps: 0.3, minpts: 5 };

/// One run on a fresh device of the given config: labels plus the
/// per-run counter snapshot.
fn run_once(config: DeviceConfig, points: &[Point2]) -> (Clustering, CountersSnapshot) {
    let device = Device::new(config);
    let (clustering, stats) = fdbscan(&device, points, PARAMS).unwrap();
    (clustering, stats.counters)
}

#[test]
fn same_seed_gives_bit_identical_labels_on_both_backends() {
    let points = dataset(400, 11);
    for (name, config) in [
        ("sequential", DeviceConfig::sequential().with_block_size(32)),
        ("threaded", DeviceConfig::default().with_workers(3).with_block_size(32)),
    ] {
        let runs: Vec<_> = (0..3).map(|_| run_once(config.clone(), &points)).collect();
        for (repeat, (clustering, counters)) in runs.iter().enumerate().skip(1) {
            assert_eq!(
                clustering, &runs[0].0,
                "{name}: labels drifted between repeat 0 and repeat {repeat}"
            );
            // Launch structure is schedule-independent on both backends:
            // the algorithm decides what to launch, the backend only
            // decides who executes it.
            assert_eq!(
                counters.kernel_launches, runs[0].1.kernel_launches,
                "{name}: kernel_launches drifted at repeat {repeat}"
            );
            assert_eq!(
                counters.batched_stages, runs[0].1.batched_stages,
                "{name}: batched_stages drifted at repeat {repeat}"
            );
        }
        if name == "sequential" {
            // The oracle backend guarantees more: every counter is a
            // pure function of the input.
            for (repeat, (_, counters)) in runs.iter().enumerate().skip(1) {
                assert_eq!(
                    counters, &runs[0].1,
                    "sequential: full counter snapshot drifted at repeat {repeat}"
                );
            }
        }
    }
}

#[test]
fn all_thread_counts_agree_canonically_with_the_oracle() {
    let points = dataset(500, 23);
    let oracle = dbscan_classic(&points, PARAMS);
    for workers in [1usize, 2, 8] {
        type Run = fn(&Device, &[Point2], Params) -> Result<(Clustering, RunStats), DeviceError>;
        for (algo_name, run) in
            [("fdbscan", fdbscan as Run), ("fdbscan-densebox", fdbscan_densebox as Run)]
        {
            let device =
                Device::new(DeviceConfig::default().with_workers(workers).with_block_size(32));
            let (clustering, _) = run(&device, &points, PARAMS)
                .unwrap_or_else(|e| panic!("{algo_name} with {workers} workers failed: {e}"));
            assert_core_equivalent(&oracle, &clustering);
            assert_valid_clustering(&points, &clustering, PARAMS);
        }
    }
}

#[test]
fn mid_batch_cancellation_on_threaded_backend_leaks_nothing() {
    use std::sync::atomic::{AtomicU64, Ordering};

    let device = Device::new(DeviceConfig::default().with_workers(4).with_block_size(8));
    let token = CancelToken::new();
    let dev = device.with_cancel(token.clone());
    let later_stage_ran = AtomicU64::new(0);
    let err = dev
        .try_batch_named(
            "cancel.mid-batch",
            vec![
                BatchStage::new("fires-token", 64, |i| {
                    if i == 17 {
                        token.cancel();
                    }
                }),
                BatchStage::new("never-runs", 64, |_| {
                    later_stage_ran.fetch_add(1, Ordering::Relaxed);
                }),
            ],
        )
        .expect_err("a token fired in stage 0 must fail the batch at the stage boundary");
    assert!(matches!(err, DeviceError::Cancelled { .. }), "unexpected error: {err:?}");
    assert_eq!(
        later_stage_ran.load(Ordering::Relaxed),
        0,
        "stage after the cancellation point still executed"
    );
    // No stuck gauge, no leaked reservation, pool still alive.
    assert_eq!(device.active_launches(), 0);
    assert_eq!(device.memory().in_use(), 0);
    device.try_launch(64, |_| {}).expect("pool must survive a cancelled batch");
}

#[test]
fn mid_run_deadline_on_threaded_backend_leaks_nothing() {
    let points = dataset(2000, 31);
    // Sweep deadlines from "fires almost immediately" to "may let the
    // run finish": whatever phase the deadline lands in, the device
    // must come back clean. The tightest deadline is guaranteed to
    // fire — a full run takes orders of magnitude longer than 50 µs.
    let mut failed = 0;
    for timeout_us in [50u64, 2_000, 20_000] {
        let device = Device::new(DeviceConfig::default().with_workers(4).with_block_size(64));
        let dev = device.with_cancel(CancelToken::with_timeout(Duration::from_micros(timeout_us)));
        match fdbscan(&dev, &points, PARAMS) {
            Ok((clustering, _)) => {
                assert_valid_clustering(&points, &clustering, PARAMS);
            }
            Err(DeviceError::DeadlineExceeded { .. }) => failed += 1,
            Err(other) => panic!("deadline surfaced as the wrong error: {other:?}"),
        }
        assert_eq!(device.active_launches(), 0, "launch gauge stuck after {timeout_us} µs run");
        assert_eq!(
            device.memory().in_use(),
            0,
            "reservation leaked after {timeout_us} µs deadline"
        );
        // The device must remain usable: a deadline-free retry on the
        // same device reproduces the oracle labels.
        let (retry, _) = fdbscan(&device, &points, PARAMS).unwrap();
        assert_core_equivalent(&dbscan_classic(&points, PARAMS), &retry);
        assert_eq!(device.memory().in_use(), 0);
    }
    assert!(failed >= 1, "no deadline in the sweep fired — the test guards nothing");
}
