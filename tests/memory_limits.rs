//! Device-memory behaviour (paper §5.1, Fig. 4(h)): G-DBSCAN's adjacency
//! graph scales with edges and runs out of memory; the two-phase
//! framework's memory stays linear in n and survives the same budget.

use fdbscan::baselines::gdbscan::GDBSCAN_ALGORITHM;
use fdbscan::baselines::{gdbscan, gdbscan_run_from};
use fdbscan::fdbscan_impl::FDBSCAN_ALGORITHM;
use fdbscan::{checkpoint_for, fdbscan, fdbscan_densebox, fdbscan_run_from, Params, PHASE_INDEX};
use fdbscan_data::Dataset2;
use fdbscan_device::{Device, DeviceConfig, DeviceError, PipelineCheckpoint};
use fdbscan_geom::Point2;

/// A deliberately small "device" (scaled-down V100) for OOM testing.
fn budgeted(bytes: usize) -> Device {
    Device::new(DeviceConfig::default().with_workers(2).with_memory_budget(bytes))
}

#[test]
fn gdbscan_ooms_on_dense_data_where_tree_algorithms_survive() {
    // Porto-like data at a radius that creates huge neighborhoods: the
    // adjacency graph explodes quadratically in the dense center.
    let points = Dataset2::PortoTaxi.generate(4000, 1);
    let params = Params::new(0.05, 20);
    let budget = 4 << 20; // 4 MiB
    let device = budgeted(budget);

    let err = gdbscan(&device, &points, params).unwrap_err();
    assert!(matches!(err, DeviceError::OutOfMemory { .. }), "expected OOM, got {err:?}");

    let (a, stats_a) = fdbscan(&device, &points, params).unwrap();
    let (b, stats_b) = fdbscan_densebox(&device, &points, params).unwrap();
    assert!(a.num_clusters > 0);
    assert!(b.num_clusters > 0);
    assert!(stats_a.peak_memory_bytes <= budget);
    assert!(stats_b.peak_memory_bytes <= budget);
}

#[test]
fn tree_algorithm_memory_scales_linearly() {
    // Doubling n must roughly double peak memory for FDBSCAN — not
    // quadruple it (quadratic would be the G-DBSCAN failure mode).
    let device = Device::new(DeviceConfig::default().with_workers(2));
    let params = Params::new(0.05, 10);
    let small = Dataset2::PortoTaxi.generate(2000, 2);
    let large = Dataset2::PortoTaxi.generate(8000, 2);
    let (_, stats_small) = fdbscan(&device, &small, params).unwrap();
    let (_, stats_large) = fdbscan(&device, &large, params).unwrap();
    let ratio = stats_large.peak_memory_bytes as f64 / stats_small.peak_memory_bytes as f64;
    assert!((3.0..6.0).contains(&ratio), "4x points should mean ~4x memory, got {ratio:.2}x");
}

#[test]
fn gdbscan_memory_scales_with_neighborhood_size() {
    // With n fixed, growing eps grows G-DBSCAN's graph but not the tree
    // algorithms' memory (the paper's explanation for Fig. 4(f)).
    let device = Device::new(DeviceConfig::default().with_workers(2));
    let points = Dataset2::PortoTaxi.generate(2000, 3);
    let (_, g_small) = gdbscan(&device, &points, Params::new(0.005, 10)).unwrap();
    let (_, g_large) = gdbscan(&device, &points, Params::new(0.08, 10)).unwrap();
    assert!(
        g_large.peak_memory_bytes > 2 * g_small.peak_memory_bytes,
        "graph memory must grow with eps: {} vs {}",
        g_large.peak_memory_bytes,
        g_small.peak_memory_bytes
    );

    let (_, f_small) = fdbscan(&device, &points, Params::new(0.005, 10)).unwrap();
    let (_, f_large) = fdbscan(&device, &points, Params::new(0.08, 10)).unwrap();
    let ratio = f_large.peak_memory_bytes as f64 / f_small.peak_memory_bytes.max(1) as f64;
    assert!(ratio < 1.2, "tree-algorithm memory must be insensitive to eps, got {ratio:.2}x");
}

#[test]
fn oom_error_reports_accounting() {
    let device = budgeted(1024);
    let points = Dataset2::Ngsim.generate(1000, 4);
    match fdbscan(&device, &points, Params::new(0.01, 5)) {
        Err(DeviceError::OutOfMemory { requested, budget, .. }) => {
            assert!(requested > 0);
            assert_eq!(budget, 1024);
        }
        other => panic!("expected OOM, got {other:?}"),
    }
}

#[test]
fn failed_run_releases_all_memory() {
    // After an OOM the reservations must be rolled back so the device
    // remains usable.
    let device = budgeted(6 << 20);
    let points = Dataset2::PortoTaxi.generate(4000, 5);
    let _ = gdbscan(&device, &points, Params::new(0.05, 20)).unwrap_err();
    assert_eq!(device.memory().in_use(), 0, "leaked reservations after OOM");
    // And a tree algorithm still fits.
    let (c, _) = fdbscan(&device, &points, Params::new(0.05, 20)).unwrap();
    assert!(c.num_clusters > 0);
}

#[test]
fn restored_index_is_charged_like_a_built_one() {
    // A run resumed from its index checkpoint hits the budget exactly
    // where a fresh run does: the restored graph / tree is reserved as if
    // it had been built.
    let points = vec![Point2::new([0.0, 0.0]); 2000];
    let params = Params::new(1.0, 5);
    // G-DBSCAN: 512 KiB holds the points but not the ~16 MB edge lists.
    // FDBSCAN: 64 KiB holds the points, labels and flags but not the tree.
    for (algorithm, budget) in [(GDBSCAN_ALGORITHM, 1 << 19), (FDBSCAN_ALGORITHM, 64 << 10)] {
        let run = |device: &Device, ckpt: &mut PipelineCheckpoint| {
            if algorithm == GDBSCAN_ALGORITHM {
                gdbscan_run_from(device, &points, params, ckpt)
            } else {
                fdbscan_run_from(device, &points, params, Default::default(), ckpt)
            }
        };
        let limited = || Device::new(DeviceConfig::sequential().with_memory_budget(budget));
        let oom = |result: Result<_, DeviceError>| match result {
            Err(DeviceError::OutOfMemory { requested, .. }) => requested,
            Err(e) => panic!("{algorithm}: expected OOM, got {e}"),
            Ok(_) => panic!("{algorithm}: expected OOM, the run fit the budget"),
        };

        let mut ckpt = checkpoint_for(algorithm, &points, params);
        run(&Device::new(DeviceConfig::sequential()), &mut ckpt).unwrap();
        let phases = ckpt.phase_names();
        let keep = phases.iter().position(|p| *p == PHASE_INDEX).unwrap() + 1;
        ckpt.truncate_to(keep);

        let fresh = oom(run(&limited(), &mut checkpoint_for(algorithm, &points, params)));
        let resumed = oom(run(&limited(), &mut ckpt));
        if algorithm == GDBSCAN_ALGORITHM {
            assert_eq!(resumed, fresh, "the resumed run must fail on the same edge lists");
        }
    }
}
