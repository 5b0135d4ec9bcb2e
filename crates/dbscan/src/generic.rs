//! FDBSCAN over any [`SpatialIndex`].
//!
//! [`fdbscan_on_index`] is the index-agnostic core of the framework:
//! preprocessing (early-terminated core counting), the masked main phase
//! and finalization, all expressed through the [`SpatialIndex`] trait.
//! [`fdbscan_kdtree()`] instantiates it with the k-d tree, realizing the
//! paper's "any tree can be used" remark; the distributed driver
//! (`fdbscan-dist`) builds on the same entry point.

use std::ops::ControlFlow;
use std::time::{Duration, Instant};

use fdbscan_device::{Device, DeviceError};
use fdbscan_geom::Point;
use fdbscan_kdtree::KdTree;
use fdbscan_unionfind::AtomicLabels;

use crate::checkpoint::{PHASE_FINALIZE, PHASE_MAIN, PHASE_PREPROCESS};
use crate::framework::{finalize, CoreFlags, PairRule};
use crate::index::SpatialIndex;
use crate::labels::Clustering;
use crate::pipeline::{CallerIndex, Pipeline};
use crate::stats::RunStats;
use crate::{FdbscanOptions, Params};

/// Run span label of [`fdbscan_on_index`] runs.
pub const GENERIC_ALGORITHM: &str = "fdbscan-generic";

/// Runs the FDBSCAN phases over a prebuilt index.
///
/// `index_time` is folded into the returned stats so callers that build
/// their own index report comparable totals.
pub fn fdbscan_on_index<const D: usize, I: SpatialIndex<D>>(
    device: &Device,
    points: &[Point<D>],
    index: &I,
    params: Params,
    options: FdbscanOptions,
    index_time: Duration,
) -> Result<(Clustering, RunStats), DeviceError> {
    let caller = Some(CallerIndex::host_built(device, index_time));
    let mut run = Pipeline::start(device, GENERIC_ALGORITHM, points, params, None, caller)?;
    let n = points.len();
    assert_eq!(index.size(), n, "index does not cover the point set");
    let Params { eps, minpts } = params;

    let _points_mem = device.memory().reserve_array::<Point<D>>(n)?;
    let _labels_mem = device.memory().reserve_array::<u32>(n)?;
    let _flags_mem = device.memory().reserve(n.div_ceil(8))?;
    let _index_mem = device.memory().reserve(index.memory_bytes())?;

    // Preprocessing.
    run.enter(PHASE_PREPROCESS);
    let core = CoreFlags::new(n);
    match minpts {
        0 => unreachable!("Params::new validates minpts >= 1"),
        1 => {
            let core_ref = &core;
            device.try_launch_named("generic.mark_all_core", n, |i| core_ref.set(i as u32))?;
        }
        2 => {}
        _ => {
            let core_ref = &core;
            let counters = device.counters();
            let early = options.early_termination;
            device.try_launch_named("generic.core_count", n, |pos| {
                let i = index.id_at(pos as u32);
                let mut count = 0usize;
                let stats = index.query_radius(&points[i as usize], eps, 0, &mut |_, _| {
                    count += 1;
                    if early && count >= minpts {
                        ControlFlow::Break(())
                    } else {
                        ControlFlow::Continue(())
                    }
                });
                if count >= minpts {
                    core_ref.set(i);
                }
                stats.charge(counters);
            })?;
        }
    }

    // Main phase.
    run.enter(PHASE_MAIN);
    let labels = AtomicLabels::with_counters(n, device.counters_arc());
    let rule = PairRule::of(minpts, options.star);
    main_phase(device, points, index, eps, rule, options, &labels, &core)?;

    // Finalization.
    run.enter(PHASE_FINALIZE);
    let clustering = finalize(device, &labels, &core);
    Ok((clustering, run.finish()))
}

/// The main phase of Algorithm 3 over any index: one masked (or
/// unmasked) radius query per point, fused with the union-find
/// resolution `rule`. The launch runs in index-position order (see
/// [`SpatialIndex::id_at`]): launch index `pos` queries point
/// `index.id_at(pos)` with cutoff `pos + 1`, while `labels` and `core`
/// stay indexed by point id. Exposed as a building block for the
/// multi-minpts sweep ([`crate::sweep`]) and the distributed driver
/// (`fdbscan-dist`), which supply their own label arrays and core flags
/// and pass [`PairRule::Classic`] (or [`PairRule::Star`]) because their
/// flags are already exact.
///
/// Callers must have populated `core` before the launch unless `rule`
/// is [`PairRule::Connect`] (which marks cores per pair).
#[allow(clippy::too_many_arguments)]
pub fn main_phase<const D: usize, I: SpatialIndex<D>>(
    device: &Device,
    points: &[Point<D>],
    index: &I,
    eps: f32,
    rule: PairRule,
    options: FdbscanOptions,
    labels: &AtomicLabels,
    core: &CoreFlags,
) -> Result<(), DeviceError> {
    let n = points.len();
    let counters = device.counters();
    let masked = options.masked_traversal;
    device.try_launch_named("generic.pair_resolution", n, |pos| {
        let pos = pos as u32;
        let i = index.id_at(pos);
        let cutoff = if masked { pos + 1 } else { 0 };
        let stats = index.query_radius(&points[i as usize], eps, cutoff, &mut |_, j| {
            if !masked && j == i {
                return ControlFlow::Continue(());
            }
            rule.resolve(labels, core, i, j);
            ControlFlow::Continue(())
        });
        stats.charge(counters);
    })
}

/// FDBSCAN over a k-d tree index.
///
/// The tree is built host-side (median splits do not parallelize the way
/// the Karras construction does — the GPU-unfriendliness the paper
/// alludes to in §4.2); queries still run as batched kernels.
pub fn fdbscan_kdtree<const D: usize>(
    device: &Device,
    points: &[Point<D>],
    params: Params,
) -> Result<(Clustering, RunStats), DeviceError> {
    let build_start = Instant::now();
    let tree = KdTree::build(points);
    let index_time = build_start.elapsed();
    fdbscan_on_index(device, points, &tree, params, FdbscanOptions::default(), index_time)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::build_bvh_index;
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
    fn generic_over_bvh_equals_specialized_fdbscan() {
        let points = random_points(600, 4.0, 44);
        let params = Params::new(0.25, 5);
        let d = device();
        let (specialized, _) = crate::fdbscan(&d, &points, params).unwrap();
        let bvh = build_bvh_index(&d, &points);
        let (generic, _) =
            fdbscan_on_index(&d, &points, &bvh, params, FdbscanOptions::default(), Duration::ZERO)
                .unwrap();
        assert_core_equivalent(&specialized, &generic);
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
