//! Differential oracle suite: every GPU algorithm, on every dataset
//! family, must produce a clustering label-isomorphic to the sequential
//! O(n²) oracle (Algorithm 1).
//!
//! This is the lock on the hot-path work (stackless traversal, early-exit
//! leaf tests, fused kernels): any behavioral drift in the optimized paths
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
//! dense cells, and a dense cell and a border point, at exactly ε. Pairs
//! at random offsets pin the `f32` accept decision itself: each pair
//! runs at the smallest ε whose square reaches its `dist_sq`, and one
//! ulp below. Stacked points on the cell corners of DenseBox's own grid
//! pin how face and corner points bin and the cell-pair test at one cell
//! diagonal, about ε.
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

/// Largest pairwise distance of `points` (0 for fewer than two).
fn diameter<const D: usize>(points: &[Point<D>]) -> f32 {
    let mut max = 0.0f32;
    for (i, a) in points.iter().enumerate() {
        for b in &points[i + 1..] {
            max = max.max(a.dist(b));
        }
    }
    max
}

/// `minpts` at the dataset size and one above, with ε around the
/// dataset diameter, so most points see every other point: a point
/// turns core only at its very last neighbour, wherever the leaf walks
/// (the masked suffix search, the prefix walk that finishes a short
/// count, and the outward count) happen to meet it.
fn check_minpts_at_n<const D: usize>(family: &str, seed: u64, points: &[Point<D>], scale: f32) {
    let diameter = diameter(points);
    let eps = if diameter > 0.0 { diameter * scale } else { scale };
    for minpts in [points.len(), points.len() + 1] {
        check_case(family, seed, points, Params::new(eps, minpts));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]
    #[test]
    fn minpts_at_n_and_one_above_on_every_family(
        seed in any::<u64>(),
        n in 2usize..40,
        scale in 0.5f32..1.5,
    ) {
        for family in FAMILIES {
            check_minpts_at_n(family, seed, &dataset(family, n, seed), scale);
        }
        check_minpts_at_n("clustered-3d", seed, &clustered_3d(n, seed), scale);
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

/// The smallest `eps` whose `f32` square is at least `dist_sq`.
fn smallest_eps_reaching(dist_sq: f32) -> f32 {
    let down = |eps: f32| f32::from_bits(eps.to_bits() - 1);
    let mut eps = dist_sq.sqrt();
    while eps * eps < dist_sq {
        eps = f32::from_bits(eps.to_bits() + 1);
    }
    while down(eps) * down(eps) >= dist_sq {
        eps = down(eps);
    }
    eps
}

/// A pair `delta` apart at `offset`, at the smallest `eps` whose square
/// reaches the pair's `dist_sq` (one cluster of two cores) and one ulp
/// below it (two noise points), on every algorithm and backend.
fn check_pair_at_eps_boundary<const D: usize>(seed: u64, offset: [f32; D], delta: [f32; D]) {
    let p = Point::new(offset);
    let q = Point::new(std::array::from_fn(|d| offset[d] + delta[d]));
    let dist_sq = p.dist_sq(&q);
    assert!(dist_sq > 0.0, "pair collapsed: {p:?} {q:?}");
    let at = smallest_eps_reaching(dist_sq);
    let below = f32::from_bits(at.to_bits() - 1);
    let points = [p, q];
    for (name, eps, expected) in
        [("eps-reaches-pair", at, (1, 0, 2)), ("eps-one-ulp-short", below, (0, 2, 0))]
    {
        let params = Params::new(eps, 2);
        assert_eq!(oracle_counts(&points, params), expected, "{name} {p:?} {q:?} eps {eps}");
        check_case(name, seed, &points, params);
    }
}

/// A random pair in `D` dimensions: offset up to 1e4 from the origin on
/// each axis, length 1e-2..1e2, along one axis (its `dist_sq` is an
/// exact `f32` square, so the pair lies exactly at the upper eps), along
/// a diagonal (both points can fill one DenseBox cell and reach its
/// corner check), or in any direction.
fn random_pair<const D: usize>(rng: &mut StdRng) -> ([f32; D], [f32; D]) {
    let offset = std::array::from_fn(|_| rng.gen_range(-1e4f32..1e4));
    let length = 10f32.powf(rng.gen_range(-2.0f32..2.0));
    let sign = |rng: &mut StdRng| if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
    let direction: [f32; D] = match rng.gen_range(0..3) {
        0 => {
            let axis = rng.gen_range(0..D);
            std::array::from_fn(|d| if d == axis { sign(rng) } else { 0.0 })
        }
        1 => std::array::from_fn(|_| sign(rng)),
        _ => std::array::from_fn(|_| rng.gen_range(-1.0f32..1.0)),
    };
    let norm = direction.iter().map(|c| c * c).sum::<f32>().sqrt().max(f32::MIN_POSITIVE);
    (offset, direction.map(|c| c / norm * length))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]
    #[test]
    fn pairs_one_ulp_either_side_of_eps_squared_at_random_offsets(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(offset_seed(seed));
        let (offset, delta) = random_pair::<2>(&mut rng);
        check_pair_at_eps_boundary(seed, offset, delta);
        let (offset, delta) = random_pair::<3>(&mut rng);
        check_pair_at_eps_boundary(seed, offset, delta);
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

/// Points on cell corners of DenseBox's grid: the scene minimum
/// `origin` plus every lattice node `m * side` with `m` in `0..steps` on
/// each axis and all of `m`'s entries of one parity, where `side = eps /
/// sqrt(D)` is the grid's own `f32` cell side. A node's nearest nodes are
/// one cell diagonal away, about `eps`, inside it or one rounding beyond;
/// the next ones are two sides away, beyond `eps`. Each node is stacked
/// `stack` times, so its cell is full.
fn corner_lattice<const D: usize>(
    origin: f32,
    eps: f32,
    steps: usize,
    stack: usize,
) -> Vec<Point<D>> {
    let side = eps / (D as f32).sqrt();
    let mut points = Vec::new();
    for i in 0..steps.pow(D as u32) {
        let m: [usize; D] = std::array::from_fn(|d| i / steps.pow(d as u32) % steps);
        if m.iter().all(|&k| k % 2 == m[0] % 2) {
            let node = Point::new(m.map(|k| origin + k as f32 * side));
            points.extend(std::iter::repeat_n(node, stack));
        }
    }
    points
}

#[test]
fn points_on_dense_cell_faces_and_corners() {
    // How the one-diagonal pairs round decides the clusters: the oracle
    // finds 5 to 18 clusters in 2-D and 1 to 35 in 3-D over these
    // settings, and at every setting but the first some node bins into a
    // neighbour's cell, which then holds two nodes about eps apart. At
    // minpts 2 and at the stack height every cell is full, so DenseBox
    // joins cells through its cell-pair test; one above, only such
    // shared cells are full, and a node without a neighbour is noise.
    let stack = 4;
    for (origin, eps) in [
        (0.0f32, 1.0f32),
        (-3.7, 0.3),
        (17.0, 0.75),
        (1024.5, 0.05),
        (0.0, f32::from_bits(0x3c5d_3b6f)),
    ] {
        let flat = corner_lattice::<2>(origin, eps, 9, stack);
        let cube = corner_lattice::<3>(origin, eps, 5, stack);
        for minpts in [2, stack, stack + 1] {
            let params = Params::new(eps, minpts);
            let name = format!("corner lattice origin {origin} eps {eps} minpts {minpts}");
            if minpts <= stack {
                let device = Device::new(DeviceConfig::sequential());
                let (_, stats) = fdbscan_densebox(&device, &flat, params).unwrap();
                let dense = stats.dense.expect("DenseBox reports its grid");
                assert_eq!(dense.points_in_dense_cells, flat.len(), "{name}: a cell is not full");
            }
            check_case(&format!("{name} 2-D"), 0, &flat, params);
            check_case(&format!("{name} 3-D"), 0, &cube, params);
        }
    }
}

/// `n` points whose first axis lies a few ulps above `2^127` and whose
/// second lies as far below `-2^127`, both beyond `±f32::MAX / 2`, with a
/// third axis in `[0, 4)` in 3-D. On each huge axis with `spread > 0`
/// the points take `spread + 1` values one ulp (`2^104`) apart; with
/// `spread == 0` the axis is constant.
fn beyond_half_max<const D: usize>(n: usize, spread: u32, seed: u64) -> Vec<Point<D>> {
    let mut rng = StdRng::seed_from_u64(offset_seed(seed));
    let half = 2f32.powi(127);
    (0..n)
        .map(|_| {
            let mut ulps = || f32::from_bits(half.to_bits() + rng.gen_range(0..=spread));
            let mut coords = [0.0f32; D];
            coords[0] = ulps();
            coords[1] = -ulps();
            for c in &mut coords[2..] {
                *c = rng.gen_range(0.0..4.0);
            }
            Point::new(coords)
        })
        .collect()
}

#[test]
fn coordinates_beyond_half_of_f32_max() {
    // There a point box's centre `0.5 * (p + p)` overflows to ±inf, so
    // the box tree's Morton order may differ from the point tree's.
    // Where the huge axes spread over a few ulps (2^104 apart), a grid
    // cell must span them, so eps is 1e30 and its square overflows:
    // every pair is within eps, and the oracle finds one cluster or only
    // noise. Where they stay constant, 3-D points cluster on the finite
    // axis at an ordinary eps.
    let n = 40;
    for seed in 0..4 {
        for minpts in [2, 5, n, n + 1] {
            let wide = Params::new(1e30, minpts);
            let name = format!("beyond f32::MAX/2 minpts {minpts}");
            check_case(&format!("{name} 2-D"), seed, &beyond_half_max::<2>(n, 2, seed), wide);
            check_case(&format!("{name} 3-D"), seed, &beyond_half_max::<3>(n, 2, seed), wide);
            let flat = beyond_half_max::<3>(n, 0, seed);
            check_case(&format!("{name} constant axes"), seed, &flat, Params::new(0.2, minpts));
        }
    }
}
