//! Differential oracle suite: every GPU algorithm, on every dataset
//! family, must produce a clustering label-isomorphic to the sequential
//! O(n²) oracle (Algorithm 1).
//!
//! This is the lock on the hot-path work (stackless traversal, SoA leaf
//! tests, fused kernels): any behavioral drift in the optimized paths
//! shows up here as a divergence from the oracle, with the failing
//! family/seed/parameters printed so the case replays exactly.
//!
//! Dataset families are chosen to stress different traversal regimes:
//!
//! * **clustered** — Gaussian blobs plus noise: containment fast path,
//!   dense cells, border claims,
//! * **uniform** — scattered points: deep masked traversals, few hits,
//! * **collinear** — exactly collinear points with equal spacing:
//!   degenerate Morton codes, tie-heavy boundary distances,
//! * **duplicates** — a few sites with heavy stacking: zero-volume
//!   subtrees, dense cells, early-terminated counting,
//! * **clustered-3d** — 3-D Gaussian blobs plus noise: DenseBox's box
//!   queries and cell-pair tests in three dimensions.
//!
//! A fixed ε-boundary layout pins the DenseBox paths that connect two
//! dense cells, and a dense cell and a border point, at exactly ε.
//!
//! `FDBSCAN_DIFF_SEED` offsets the proptest dataset seeds so CI can
//! sweep several independent batches.
//!
//! Every case runs on **both execution backends** — the sequential
//! in-order engine and the threaded SIMD pool — and each must match the
//! oracle independently. A divergence names the backend in the replay
//! recipe, so a lane-kernel or scheduling bug replays on exactly the
//! engine that produced it.

use std::panic::{catch_unwind, AssertUnwindSafe};

use fdbscan::baselines::{cuda_dclust, gdbscan};
use fdbscan::labels::{assert_core_equivalent, NOISE};
use fdbscan::seq::dbscan_classic;
use fdbscan::verify::assert_valid_clustering;
use fdbscan::{
    fdbscan, fdbscan_auto, fdbscan_densebox, fdbscan_kdtree, run_resilient, MinptsSweep, Params,
    ResiliencePolicy,
};
use fdbscan_data::{blobs, uniform};
use fdbscan_device::{Device, DeviceConfig};
use fdbscan_geom::{Point, Point2, Point3};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

fn diff_seed_offset() -> u64 {
    std::env::var("FDBSCAN_DIFF_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0)
}

/// Both execution backends, each with the small block size that forces
/// multi-block launches even on the tiny differential datasets.
fn backends() -> [(&'static str, Device); 2] {
    [
        ("sequential", Device::new(DeviceConfig::sequential().with_block_size(32))),
        ("threaded", Device::new(DeviceConfig::default().with_workers(3).with_block_size(32))),
    ]
}

const FAMILIES: [&str; 4] = ["clustered", "uniform", "collinear", "duplicates"];

/// `seed` offset by `FDBSCAN_DIFF_SEED`.
fn offset_seed(seed: u64) -> u64 {
    seed ^ diff_seed_offset().wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// The 3-D clustered family, deterministically in `seed`.
fn clustered_3d(n: usize, seed: u64) -> Vec<Point3> {
    blobs::<3>(n, 4, 0.15, 4.0, 0.2, offset_seed(seed))
}

/// Builds one 2-D dataset of the given family, deterministically in
/// `seed`.
fn dataset(family: &str, n: usize, seed: u64) -> Vec<Point2> {
    let seed = offset_seed(seed);
    match family {
        "clustered" => blobs::<2>(n, 4, 0.15, 4.0, 0.2, seed),
        "uniform" => uniform::<2>(n, 4.0, seed),
        "collinear" => {
            // All points on one line, exact equal spacing (plus stacked
            // endpoints): every internal node is a zero-height box and
            // many pair distances tie exactly at multiples of the step.
            let mut rng = StdRng::seed_from_u64(seed);
            let step = rng.gen_range(0.05f32..0.4);
            let mut points: Vec<Point2> =
                (0..n).map(|i| Point2::new([i as f32 * step, 2.0])).collect();
            let dup = rng.gen_range(0..n.max(1));
            points.push(points[dup]);
            points
        }
        "duplicates" => {
            let mut rng = StdRng::seed_from_u64(seed);
            let sites: Vec<Point2> = (0..rng.gen_range(2usize..6))
                .map(|_| Point2::new([rng.gen_range(0.0f32..3.0), rng.gen_range(0.0f32..3.0)]))
                .collect();
            (0..n).map(|i| sites[i % sites.len()]).collect()
        }
        other => panic!("unknown family {other}"),
    }
}

/// Oracle differential for one (family, dataset, params) case; panics
/// with the full replay recipe on divergence.
fn check_case<const D: usize>(family: &str, seed: u64, points: &[Point<D>], params: Params) {
    let oracle = dbscan_classic(points, params);
    for (backend, dev) in backends() {
        let runs: [(&str, Box<dyn Fn() -> _>); 6] = [
            ("fdbscan", Box::new(|| fdbscan(&dev, points, params))),
            ("fdbscan-densebox", Box::new(|| fdbscan_densebox(&dev, points, params))),
            ("fdbscan-kdtree", Box::new(|| fdbscan_kdtree(&dev, points, params))),
            (
                "fdbscan-sweep",
                Box::new(|| MinptsSweep::new(&dev, points, params.eps)?.run(params.minpts)),
            ),
            ("g-dbscan", Box::new(|| gdbscan(&dev, points, params))),
            ("cuda-dclust", Box::new(|| cuda_dclust(&dev, points, params))),
        ];
        for (algo, run) in runs {
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let (got, _) = run().unwrap_or_else(|e| panic!("run failed: {e}"));
                assert_core_equivalent(&oracle, &got);
                assert_valid_clustering(points, &got, params);
            }));
            if let Err(payload) = outcome {
                let detail = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "<non-string panic>".to_string());
                panic!(
                    "differential failure: algo={algo} backend={backend} family={family} \
                     seed={seed} n={} eps={} minpts={} FDBSCAN_DIFF_SEED={}\n{detail}",
                    points.len(),
                    params.eps,
                    params.minpts,
                    diff_seed_offset(),
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]
    #[test]
    fn all_algorithms_match_oracle_on_every_family(
        seed in any::<u64>(),
        n in 8usize..200,
        eps in 0.05f32..1.0,
        minpts in 1usize..12,
    ) {
        let params = Params::new(eps, minpts);
        for family in FAMILIES {
            let points = dataset(family, n, seed);
            check_case(family, seed, &points, params);
        }
        check_case("clustered-3d", seed, &clustered_3d(n, seed), params);
    }
}

#[test]
fn fixed_regression_cases() {
    // Deterministic anchors independent of the proptest RNG: one case
    // per family at parameters that exercise borders and ties.
    for (family, seed, eps, minpts) in [
        ("clustered", 7u64, 0.25f32, 5usize),
        ("uniform", 8, 0.4, 3),
        ("collinear", 9, 0.3, 2),
        ("duplicates", 10, 0.1, 8),
    ] {
        let points = dataset(family, 150, seed);
        check_case(family, seed, &points, Params::new(eps, minpts));
    }
    check_case("clustered-3d", 11, &clustered_3d(150, 11), Params::new(0.3, 5));
}

#[test]
fn dense_cells_and_borders_exactly_at_eps() {
    // eps = 1, minpts = 3, so DenseBox's cells are 1/sqrt(2) wide. A and
    // B are dense cells whose only cross pair, (0,0)-(1,0), is exactly
    // eps apart: A's cell query joins them through the cell-pair test.
    // Each border lies exactly eps from one member, so its degree is 2.
    // In tree order the left border sorts first and the right one last,
    // so the left one reaches A through its own point query and the
    // right one reaches B through B's cell query.
    let outward = |x: f32| f32::from_bits(x.to_bits() + 1); // one ulp away from 0
    let layout = |bridge: f32, left: f32, right: f32| {
        vec![
            Point2::new([0.0, 0.0]),
            Point2::new([-0.125, 0.0]),
            Point2::new([-0.125, 0.125]),
            Point2::new([bridge, 0.0]),
            Point2::new([1.125, 0.0]),
            Point2::new([1.125, 0.125]),
            Point2::new([left, 0.0]),
            Point2::new([right, 0.125]),
        ]
    };
    let params = Params::new(1.0, 3);
    for (name, points, clusters, noise) in [
        ("at-eps", layout(1.0, -1.125, 2.125), 1, 0),
        ("bridge-one-ulp-out", layout(outward(1.0), -1.125, 2.125), 2, 0),
        ("borders-one-ulp-out", layout(1.0, outward(-1.125), outward(2.125)), 1, 2),
    ] {
        let oracle = dbscan_classic(&points, params);
        let oracle_noise = oracle.assignments.iter().filter(|&&a| a == NOISE).count();
        assert_eq!((oracle.num_clusters, oracle_noise), (clusters, noise), "{name}");
        check_case(name, 0, &points, params);
    }
}

/// The oracle's (clusters, noise, cores) for `points`.
fn oracle_counts<const D: usize>(points: &[Point<D>], params: Params) -> (usize, usize, usize) {
    let oracle = dbscan_classic(points, params);
    let noise = oracle.assignments.iter().filter(|&&a| a == NOISE).count();
    (oracle.num_clusters, noise, oracle.num_core())
}

#[test]
fn point_chain_exactly_at_eps_and_one_ulp_beyond() {
    // A snake of 11 points with step `g` along exactly representable
    // coordinates k * g, k in -2..=2 (k * g is exact for both steps
    // below): consecutive points are g apart, every other pair at least
    // sqrt(2) * g. At eps = 1 and minpts = 3 the cells are 1/sqrt(2)
    // wide, so no cell is dense and every pair is decided by point leaves.
    // At g = eps the interior points are core and the two ends borders;
    // one ulp beyond, every point is noise.
    let snake = |g: f32| -> Vec<Point2> {
        let at = |k: f32| k * g;
        let mut points: Vec<Point2> =
            [-2.0, -1.0, 0.0, 1.0, 2.0].iter().map(|&k| Point2::new([at(k), 0.0])).collect();
        points.extend([1.0, 2.0].iter().map(|&k| Point2::new([at(2.0), at(k)])));
        points.extend([1.0, 0.0, -1.0, -2.0].iter().map(|&k| Point2::new([at(k), at(2.0)])));
        points
    };
    let beyond = f32::from_bits(1.0f32.to_bits() + 1);
    let params = Params::new(1.0, 3);
    for (name, points, expected) in [
        ("chain-at-eps", snake(1.0), (1, 0, 9)),
        ("chain-one-ulp-beyond", snake(beyond), (0, 11, 0)),
    ] {
        assert_eq!(oracle_counts(&points, params), expected, "{name}");
        check_case(name, 0, &points, params);
    }
}

#[test]
fn minpts_equal_to_n_and_one_above() {
    // Five points, every pair within eps = 1, two pairs exactly eps
    // apart: at minpts = n every point is core, at n + 1 all are noise.
    // Moving one end of the first pair one ulp out leaves that pair's two
    // points one neighbour short of n, so they become borders.
    let layout = |right: f32| {
        vec![
            Point2::new([0.0, 0.0]),
            Point2::new([right, 0.0]),
            Point2::new([0.5, 0.0]),
            Point2::new([0.5, 0.5]),
            Point2::new([0.5, -0.5]),
        ]
    };
    let outward = f32::from_bits(1.0f32.to_bits() + 1);
    for (name, points, minpts, expected) in [
        ("at-eps-minpts-n", layout(1.0), 5, (1, 0, 5)),
        ("at-eps-minpts-n-plus-1", layout(1.0), 6, (0, 5, 0)),
        ("one-ulp-out-minpts-n", layout(outward), 5, (1, 0, 3)),
        ("one-ulp-out-minpts-n-plus-1", layout(outward), 6, (0, 5, 0)),
    ] {
        let params = Params::new(1.0, minpts);
        assert_eq!(oracle_counts(&points, params), expected, "{name}");
        check_case(name, 0, &points, params);
    }
}

#[test]
fn dense_cell_whose_diagonal_rounds_past_eps() {
    // Both points bin into grid cell (0, 0, 0) and fill it at minpts 2,
    // but the f32 cell side eps / sqrt(3) makes the cell's diagonal one
    // rounding longer than eps: the oracle's `dist_sq` reads 1.8232939e-4
    // against an eps^2 of 1.8232937e-4, so both points are noise. A cell
    // whose tight box fails that test must not be trusted as dense.
    let x = f32::from_bits(0x3bff_74f7);
    let points = vec![Point3::new([0.0, 0.0, 0.0]), Point3::new([x, x, x])];
    let params = Params::new(f32::from_bits(0x3c5d_3b6f), 2);
    assert!(points[0].dist_sq(&points[1]) > params.eps * params.eps);
    assert_eq!(oracle_counts(&points, params), (0, 2, 0));
    check_case("diagonal-one-rounding-past-eps", 0, &points, params);
    for (backend, dev) in backends() {
        let (auto, _, choice) = fdbscan_auto(&dev, &points, params).unwrap();
        assert_eq!(auto.num_clusters, 0, "fdbscan_auto ({choice:?}) on {backend}");
        let (ladder, _, report) =
            run_resilient(&dev, &points, params, ResiliencePolicy::default()).unwrap();
        assert_eq!(ladder.num_clusters, 0, "run_resilient on {backend}: {report:?}");
    }
}
