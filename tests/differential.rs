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
//!   subtrees, dense cells, early-terminated counting.
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
use fdbscan::labels::assert_core_equivalent;
use fdbscan::seq::dbscan_classic;
use fdbscan::verify::assert_valid_clustering;
use fdbscan::{fdbscan, fdbscan_densebox, Params};
use fdbscan_data::{blobs, uniform};
use fdbscan_device::{Device, DeviceConfig};
use fdbscan_geom::Point2;
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

/// Builds one dataset of the given family, deterministically in `seed`.
fn dataset(family: &str, n: usize, seed: u64) -> Vec<Point2> {
    let seed = seed ^ diff_seed_offset().wrapping_mul(0x9e37_79b9_7f4a_7c15);
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
fn check_case(family: &str, seed: u64, points: &[Point2], params: Params) {
    let oracle = dbscan_classic(points, params);
    for (backend, dev) in backends() {
        let runs: [(&str, Box<dyn Fn() -> _>); 4] = [
            ("fdbscan", Box::new(|| fdbscan(&dev, points, params))),
            ("fdbscan-densebox", Box::new(|| fdbscan_densebox(&dev, points, params))),
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
}
