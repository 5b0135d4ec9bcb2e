//! Concurrency stress: extreme contention on the union-find and on
//! border claims, tiny blocks to maximize interleavings, repeated runs.

use fdbscan::labels::{assert_core_equivalent, PointClass};
use fdbscan::seq::dbscan_classic;
use fdbscan::{fdbscan, fdbscan_densebox, Params};
use fdbscan_device::{Device, DeviceConfig};
use fdbscan_geom::Point2;
use rand::{rngs::StdRng, Rng, SeedableRng};

fn contended_device() -> Device {
    // Many workers on (possibly) one core with 1-element blocks: maximal
    // interleaving of union/claim operations.
    Device::new(DeviceConfig::default().with_suggested_workers(8).with_block_size(1))
}

#[test]
fn massive_duplicate_contention() {
    // 20k points at one location: every union targets the same tree.
    let points = vec![Point2::new([0.0, 0.0]); 20_000];
    let (c, _) = fdbscan(&contended_device(), &points, Params::new(0.1, 100)).unwrap();
    assert_eq!(c.num_clusters, 1);
    assert_eq!(c.num_core(), 20_000);
}

#[test]
fn long_chain_union_contention() {
    // A chain where every consecutive pair must union: the worst case
    // for hooking order (all merges fight over the low-index root).
    let points: Vec<Point2> = (0..10_000).map(|i| Point2::new([i as f32 * 0.5, 0.0])).collect();
    let (c, _) = fdbscan(&contended_device(), &points, Params::new(0.5, 2)).unwrap();
    assert_eq!(c.num_clusters, 1);
}

#[test]
fn border_claim_races_stay_consistent() {
    // Twenty tiled copies of the bars-and-bridge motif: two vertical bars
    // of 5 core points with a midpoint bridge that sees exactly one point
    // of each bar. 40 clusters, 20 contested border points — many
    // simultaneous claims. Repeat to shake out interleavings.
    let tiles = 20;
    let mut points = Vec::new();
    for t in 0..tiles {
        let oy = t as f32 * 10.0;
        for i in 0..5 {
            points.push(Point2::new([0.0, oy + 0.1 * i as f32]));
        }
        for i in 0..5 {
            points.push(Point2::new([0.9, oy + 0.1 * i as f32]));
        }
        points.push(Point2::new([0.45, oy + 0.2])); // bridge
    }
    let params = Params::new(0.45, 5);
    let oracle = dbscan_classic(&points, params);
    assert_eq!(oracle.num_clusters, 2 * tiles, "geometry sanity");
    let device = contended_device();
    for _ in 0..10 {
        let (c, _) = fdbscan(&device, &points, params).unwrap();
        assert_core_equivalent(&oracle, &c);
        // Every bridge must have been claimed by exactly one of its two
        // adjacent clusters — never bridged them together.
        assert_eq!(c.num_clusters, 2 * tiles);
        for (i, class) in c.classes.iter().enumerate() {
            if *class == PointClass::Border {
                assert!(c.assignments[i] >= 0);
            }
        }
    }
}

#[test]
fn repeated_random_runs_with_tiny_blocks() {
    let mut rng = StdRng::seed_from_u64(1000);
    let device = contended_device();
    for round in 0..5 {
        let n = 500 + round * 200;
        let points: Vec<Point2> = (0..n)
            .map(|_| Point2::new([rng.gen_range(0.0..3.0), rng.gen_range(0.0..3.0)]))
            .collect();
        let params = Params::new(0.15, 5);
        let oracle = dbscan_classic(&points, params);
        let (a, _) = fdbscan(&device, &points, params).unwrap();
        let (b, _) = fdbscan_densebox(&device, &points, params).unwrap();
        assert_core_equivalent(&oracle, &a);
        assert_core_equivalent(&oracle, &b);
    }
}

#[test]
fn interleaved_runs_share_one_device() {
    // Several clustering runs back-to-back on one device must not
    // interfere through counters, memory accounting or pool state.
    let device = contended_device();
    let points_a = vec![Point2::new([0.0, 0.0]); 1000];
    let points_b: Vec<Point2> = (0..1000).map(|i| Point2::new([i as f32, 0.0])).collect();
    for _ in 0..3 {
        let (ca, _) = fdbscan(&device, &points_a, Params::new(0.5, 10)).unwrap();
        let (cb, _) = fdbscan(&device, &points_b, Params::new(0.5, 2)).unwrap();
        assert_eq!(ca.num_clusters, 1);
        assert_eq!(cb.num_clusters, 0); // isolated points, all noise
        assert_eq!(device.memory().in_use(), 0, "a run left reservations behind");
    }
}
