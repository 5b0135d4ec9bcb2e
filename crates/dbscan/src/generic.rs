//! FDBSCAN over a k-d tree.
//!
//! The paper's §4.1 remarks that the framework works with any tree
//! ("while any tree can be used, BVH has been shown to be very efficient
//! for low-dimensional data"). [`fdbscan_kdtree()`] runs its phases over
//! [`KdTree`]: early-terminated core counting, the index-masked pair
//! kernel and finalization. Its index and traversal share nothing with
//! [`crate::fdbscan`]'s BVH kernel, which makes it an independent
//! correctness reference for it.

use std::ops::ControlFlow;
use std::time::Instant;

use fdbscan_device::{Device, DeviceError, Hot};
use fdbscan_geom::Point;
use fdbscan_kdtree::{KdQueryStats, KdTree};
use fdbscan_unionfind::AtomicLabels;

use crate::checkpoint::{PHASE_FINALIZE, PHASE_MAIN, PHASE_PREPROCESS};
use crate::framework::{finalize, CoreFlags, PairRule};
use crate::labels::Clustering;
use crate::pipeline::{CallerIndex, Pipeline};
use crate::stats::RunStats;
use crate::Params;

/// Run span label of [`fdbscan_kdtree()`] runs.
pub const KDTREE_ALGORITHM: &str = "fdbscan-kdtree";

/// FDBSCAN over a k-d tree index.
///
/// The tree is built host-side (median splits do not parallelize the way
/// the Karras construction does — the GPU-unfriendliness the paper
/// alludes to in §4.2); its build time is booked as the index phase.
/// Core counting and pair resolution run as batched kernels in tree
/// order: launch index `pos` queries the point at tree position `pos`,
/// the pair kernel with cutoff `pos + 1`.
pub fn fdbscan_kdtree<const D: usize>(
    device: &Device,
    points: &[Point<D>],
    params: Params,
) -> Result<(Clustering, RunStats), DeviceError> {
    let build_start = Instant::now();
    let tree = KdTree::build(points);
    let caller = Some(CallerIndex::host_built(device, build_start.elapsed()));
    let mut run = Pipeline::start(device, KDTREE_ALGORITHM, points, None, caller)?;
    let n = points.len();
    let Params { eps, minpts } = params;

    let _points_mem = device.memory().reserve_array::<Point<D>>(n)?;
    let _labels_mem = device.memory().reserve_array::<u32>(n)?;
    let _flags_mem = device.memory().reserve(n.div_ceil(8))?;
    let _index_mem = device.memory().reserve(tree.memory_bytes())?;
    let counters = device.counters();
    let charge = |stats: KdQueryStats| {
        counters.add(Hot::Nodes, stats.nodes_visited);
        counters.add(Hot::Distances, stats.points_tested);
    };

    // Preprocessing: `minpts == 2` marks cores per pair instead.
    run.enter(PHASE_PREPROCESS);
    let core = CoreFlags::new(n);
    match minpts {
        0 => unreachable!("Params::new validates minpts >= 1"),
        1 => device.try_launch_named("kdtree.mark_all_core", n, |i| core.set(i as u32))?,
        2 => {}
        _ => device.try_launch_named("kdtree.core_count", n, |pos| {
            let i = tree.leaf_payload(pos as u32);
            let mut count = 0usize;
            charge(tree.for_each_in_radius(&points[i as usize], eps, 0, |_, _| {
                count += 1;
                if count >= minpts {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            }));
            if count >= minpts {
                core.set(i);
            }
        })?,
    }

    run.enter(PHASE_MAIN);
    let labels = AtomicLabels::with_counters(n, device.counters_arc());
    let rule = PairRule::of(minpts, false);
    device.try_launch_named("kdtree.pair_resolution", n, |pos| {
        let pos = pos as u32;
        let i = tree.leaf_payload(pos);
        charge(tree.for_each_in_radius(&points[i as usize], eps, pos + 1, |_, j| {
            rule.resolve(&labels, &core, i, j);
            ControlFlow::Continue(())
        }));
    })?;

    run.enter(PHASE_FINALIZE);
    let clustering = finalize(device, &labels, &core)?;
    Ok((clustering, run.finish()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labels::assert_core_equivalent;
    use crate::seq::dbscan_classic;
    use crate::verify::assert_valid_clustering;
    use fdbscan_device::DeviceConfig;
    use fdbscan_geom::Point2;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn device() -> Device {
        Device::new(DeviceConfig::default().with_workers(2).with_block_size(64))
    }

    fn random_points(n: usize, extent: f32, seed: u64) -> Vec<Point2> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point2::new([rng.gen_range(0.0..extent), rng.gen_range(0.0..extent)]))
            .collect()
    }

    #[test]
    fn kdtree_variant_matches_oracle() {
        for (seed, eps, minpts) in [(41u64, 0.3f32, 4usize), (42, 0.5, 2), (43, 0.2, 7)] {
            let points = random_points(400, 5.0, seed);
            let params = Params::new(eps, minpts);
            let oracle = dbscan_classic(&points, params);
            let (got, _) = fdbscan_kdtree(&device(), &points, params).unwrap();
            assert_core_equivalent(&oracle, &got);
            assert_valid_clustering(&points, &got, params);
        }
    }

    #[test]
    fn kdtree_and_bvh_agree() {
        let points = random_points(800, 6.0, 45);
        let params = Params::new(0.3, 6);
        let d = device();
        let (a, _) = crate::fdbscan(&d, &points, params).unwrap();
        let (b, _) = fdbscan_kdtree(&d, &points, params).unwrap();
        assert_core_equivalent(&a, &b);
    }

    #[test]
    fn kdtree_empty_and_tiny() {
        let d = device();
        let (c, _) = fdbscan_kdtree::<2>(&d, &[], Params::new(1.0, 2)).unwrap();
        assert!(c.is_empty());
        let (c, _) = fdbscan_kdtree(&d, &[Point2::new([0.0, 0.0])], Params::new(1.0, 1)).unwrap();
        assert_eq!(c.num_clusters, 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]
        #[test]
        fn kdtree_variant_always_matches_oracle(
            seed in any::<u64>(),
            n in 1usize..200,
            eps in 0.05f32..1.5,
            minpts in 1usize..8,
        ) {
            let points = random_points(n, 5.0, seed);
            let params = Params::new(eps, minpts);
            let oracle = dbscan_classic(&points, params);
            let (got, _) = fdbscan_kdtree(&device(), &points, params).unwrap();
            assert_core_equivalent(&oracle, &got);
        }
    }
}
