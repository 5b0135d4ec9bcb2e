//! FDBSCAN-DenseBox: dense-cell handling fused into the tree (paper §4.2).
//!
//! A grid with cell edge `eps/sqrt(d)` guarantees every cell's diameter is
//! at most `eps`, so a cell holding `minpts`+ points (*dense cell*)
//! consists entirely of core points of one cluster. The BVH is then built
//! over a **mixed** primitive set — dense-cell boxes plus the points
//! outside them — and:
//!
//! * core determination only examines points *outside* dense cells
//!   (dense points are core by construction); when the counting
//!   traversal hits a box, a linear scan over the cell's members counts
//!   matches, stopping at `minpts` — unless the box is *contained* in
//!   the query ball, in which case every member counts with no scan,
//! * the main phase first unions each dense cell internally (one
//!   kernel), then runs one fused kernel that traverses from **every**
//!   point, lazily deciding core status on first demand (see
//!   [`LazyCore`]); a box hit requires finding just *one* member within
//!   `eps` to connect the whole cell, and a point hit resolves like
//!   FDBSCAN. There is no separate preprocessing launch; the
//!   `preprocess` phase only seeds handed-down core flags.
//!
//! No distance computations ever happen between two points of the same
//! dense cell — the elimination the paper's §5.1 measurements attribute
//! the (up to 16×) speedups to.

use std::ops::ControlFlow;
use std::sync::atomic::Ordering;

use fdbscan_bvh::{Bvh, QueryStats};
use fdbscan_device::{Device, DeviceError, PipelineCheckpoint};
use fdbscan_geom::Point;
use fdbscan_grid::DenseGrid;
use fdbscan_unionfind::AtomicLabels;

use crate::checkpoint::{DenseIndex, LabelState, PHASE_FINALIZE, PHASE_INDEX, PHASE_MAIN};
use crate::framework::{finalize, CoreFlags, LazyCore, PairRule};
use crate::labels::Clustering;
use crate::pipeline::{CallerIndex, Pipeline};
use crate::stats::{DenseStats, RunStats};
use crate::Params;

/// Checkpoint algorithm tag of [`fdbscan_densebox`] runs.
pub const DENSEBOX_ALGORITHM: &str = "fdbscan-densebox";

/// Options for [`fdbscan_densebox_with`].
#[derive(Clone, Copy, Debug, Default)]
pub struct DenseBoxOptions {
    /// DBSCAN* semantics (see [`crate::star`]): drop border claims.
    pub star: bool,
}

/// Runs FDBSCAN-DenseBox over `points`.
///
/// Behaviour and output contract are identical to [`crate::fdbscan`];
/// only the work distribution differs (and is reported in
/// [`RunStats::dense`]).
pub fn fdbscan_densebox<const D: usize>(
    device: &Device,
    points: &[Point<D>],
    params: Params,
) -> Result<(Clustering, RunStats), DeviceError> {
    fdbscan_densebox_with(device, points, params, DenseBoxOptions::default())
}

/// [`fdbscan_densebox`] with explicit options.
pub fn fdbscan_densebox_with<const D: usize>(
    device: &Device,
    points: &[Point<D>],
    params: Params,
    options: DenseBoxOptions,
) -> Result<(Clustering, RunStats), DeviceError> {
    densebox_core(device, points, params, options, None, None)
}

/// [`fdbscan_densebox_with`], resuming from (and recording into) a
/// checkpoint. The index-phase artifact is the grid + mixed-primitive
/// BVH pair ([`DenseIndex`]); the mixed primitive references are a
/// deterministic host-side function of the grid and are recomputed on
/// restore. See [`crate::fdbscan_run_from`] for the resume contract.
pub fn fdbscan_densebox_run_from<const D: usize>(
    device: &Device,
    points: &[Point<D>],
    params: Params,
    options: DenseBoxOptions,
    ckpt: &mut PipelineCheckpoint,
) -> Result<(Clustering, RunStats), DeviceError> {
    densebox_core(device, points, params, options, None, Some(ckpt))
}

/// FDBSCAN-DenseBox over a grid the caller built (the heuristic switch
/// in [`crate::auto`] builds it to make its decision); the grid's work
/// counts towards the index phase.
pub(crate) fn densebox_with_grid<const D: usize>(
    device: &Device,
    points: &[Point<D>],
    params: Params,
    grid: DenseGrid<D>,
    caller: CallerIndex,
) -> Result<(Clustering, RunStats), DeviceError> {
    let options = DenseBoxOptions::default();
    densebox_core(device, points, params, options, Some((grid, caller)), None)
}

fn densebox_core<const D: usize>(
    device: &Device,
    points: &[Point<D>],
    params: Params,
    options: DenseBoxOptions,
    prebuilt: Option<(DenseGrid<D>, CallerIndex)>,
    ckpt: Option<&mut PipelineCheckpoint>,
) -> Result<(Clustering, RunStats), DeviceError> {
    if points.is_empty() {
        return Ok((Clustering::from_union_find(&[], &[]), RunStats::default()));
    }
    let (prebuilt, caller) = prebuilt.unzip();
    let mut run = Pipeline::start(device, DENSEBOX_ALGORITHM, points, params, ckpt, caller)?;
    let n = points.len();
    let Params { eps, minpts } = params;

    let _points_mem = device.memory().reserve_array::<Point<D>>(n)?;
    let _labels_mem = device.memory().reserve_array::<u32>(n)?;
    let _flags_mem = device.memory().reserve(n.div_ceil(8))?;

    // Phase 1: dense grid + mixed-primitive BVH. The mixed primitive
    // references are recomputed on restore — they are a cheap
    // deterministic function of (grid, points), so the checkpoint only
    // needs to carry the grid and the tree. The grid is reserved before
    // the tree is built, on both paths.
    let (mut grid_mem, mut mixed) = (None, None);
    let DenseIndex { grid, mut bvh } = run.phase(PHASE_INDEX, || {
        let grid = match prebuilt {
            Some(grid) => grid,
            None => DenseGrid::build_in(device, device.arena(), points, eps, minpts)?,
        };
        grid_mem = Some(device.memory().reserve(grid.memory_bytes())?);
        let primitives = grid.mixed_primitives(points);
        let bvh = Bvh::build_in(device, device.arena(), &primitives.bounds)?;
        mixed = Some(primitives);
        Ok(DenseIndex { grid, bvh })
    })?;
    let _grid_mem = match grid_mem {
        Some(mem) => mem,
        None => device.memory().reserve(grid.memory_bytes())?,
    };
    let refs = mixed.unwrap_or_else(|| grid.mixed_primitives(points)).refs;
    // Snapshots never carry the derived wide layout; re-derive it to
    // match this device's configured width.
    bvh.ensure_width(device.bvh_width());
    let _bvh_mem = device.memory().reserve(bvh.memory_bytes())?;

    // Phase 2: preprocessing, fused into the main kernel.
    let (core, lazy) = run.lazy_core(n);

    // Phase 3: main. 3a unions each dense cell internally; 3b traverses
    // from every point, deciding core status lazily.
    let state = run.phase(PHASE_MAIN, || {
        let labels = AtomicLabels::with_counters(n, device.counters_arc());
        run_main(device, points, params, options, &grid, &bvh, &refs, &labels, &core, &lazy)?;
        Ok(LabelState { labels, core })
    })?;

    // Phase 4: finalization.
    let clustering =
        run.phase(PHASE_FINALIZE, || Ok(finalize(device, &state.labels, &state.core)))?;
    let mut stats = run.finish();
    stats.dense = Some(DenseStats {
        num_cells: grid.num_cells(),
        num_dense_cells: grid.num_dense_cells(),
        points_in_dense_cells: grid.points_in_dense_cells(),
        dense_fraction: grid.dense_fraction(),
    });
    Ok((clustering, stats))
}

#[allow(clippy::too_many_arguments)]
fn run_main<const D: usize>(
    device: &Device,
    points: &[Point<D>],
    params: Params,
    options: DenseBoxOptions,
    grid: &DenseGrid<D>,
    bvh: &Bvh<D>,
    refs: &[fdbscan_grid::PrimitiveRef],
    labels: &AtomicLabels,
    core: &CoreFlags,
    lazy: &LazyCore,
) -> Result<(), DeviceError> {
    let n = points.len();
    let Params { eps, minpts } = params;
    let rule = PairRule::of(minpts, options.star);

    // Phase 3a: union all points within each dense cell.
    {
        let grid_ref = grid;
        let labels_ref = labels;
        let core_ref = core;
        device.try_launch_named("densebox.cell_union", grid.num_cells(), |c| {
            let c = c as u32;
            if !grid_ref.is_dense(c) {
                return;
            }
            let members = grid_ref.cell_members(c);
            let anchor = members[0];
            core_ref.set(anchor);
            for &m in &members[1..] {
                core_ref.set(m);
                labels_ref.union(anchor, m);
            }
        })?;
    }

    // Phase 3b: fused traversal from every point. Core status is decided
    // lazily on first demand (exactly once per point): dense-cell members
    // are core by construction, outside points run the counting traversal
    // that the unfused formulation launched as a separate kernel.
    {
        let bvh_ref = bvh;
        let grid_ref = grid;
        let labels_ref = labels;
        let core_ref = core;
        let lazy_ref = lazy;
        let counters = device.counters();
        let eps_sq = eps * eps;
        let ensure_core = |p: u32| -> bool {
            lazy_ref.ensure(core_ref, p, || match minpts {
                0 => unreachable!("Params::new validates minpts >= 1"),
                // Every point is trivially core. (With minpts == 1 every
                // non-empty cell is dense, so this is also what the grid
                // implies.)
                1 => true,
                2 => unreachable!("minpts == 2 marks cores inline, never lazily"),
                _ if grid_ref.point_in_dense_cell(p) => true,
                _ => {
                    let mut count = 0usize;
                    let mut distances = 0u64;
                    let mut box_scans = 0u64;
                    let q = &points[p as usize];
                    let stats =
                        bvh_ref.for_each_in_radius_flagged(q, eps, 0, |_, payload, contained| {
                            let r = refs[payload as usize];
                            if r.is_cell() {
                                let members = grid_ref.cell_members(r.index());
                                if contained {
                                    // Whole cell within eps: every member
                                    // counts, no scan.
                                    count += members.len();
                                } else {
                                    // Linear scan of the dense cell, stopping
                                    // at minpts.
                                    for &m in members {
                                        distances += 1;
                                        box_scans += 1;
                                        if points[m as usize].dist_sq(q) <= eps_sq {
                                            count += 1;
                                            if count >= minpts {
                                                return ControlFlow::Break(());
                                            }
                                        }
                                    }
                                }
                            } else {
                                // Point primitive: the leaf-bounds test was
                                // already the exact distance test (includes
                                // `p` itself), free when contained.
                                if !contained {
                                    distances += 1;
                                }
                                count += 1;
                            }
                            if count >= minpts {
                                ControlFlow::Break(())
                            } else {
                                ControlFlow::Continue(())
                            }
                        });
                    QueryStats { leaf_hits: distances, contained_hits: 0, ..stats }
                        .charge(counters);
                    counters.dense_box_scans.fetch_add(box_scans, Ordering::Relaxed);
                    count >= minpts
                }
            })
        };
        device.try_launch_named("densebox.main_fused", n, |i| {
            let i = i as u32;
            if rule != PairRule::Connect {
                ensure_core(i);
            }
            let my_cell = grid_ref.cell_of_point(i);
            let in_dense = grid_ref.is_dense(my_cell);
            let q = &points[i as usize];
            let mut distances = 0u64;
            let mut box_scans = 0u64;
            let stats = bvh_ref.for_each_in_radius_flagged(q, eps, 0, |_, payload, contained| {
                let r = refs[payload as usize];
                if r.is_cell() {
                    let c = r.index();
                    if in_dense && c == my_cell {
                        // Own cell: already unioned in phase 3a.
                        return ControlFlow::Continue(());
                    }
                    let members = grid_ref.cell_members(c);
                    // Short-circuit (the ArborX callback optimization):
                    // all members of a dense cell share one set, so if
                    // this point is already in it, any union found by the
                    // scan would be a no-op — skip the distance work.
                    if labels_ref.same_set(i, members[0]) {
                        return ControlFlow::Continue(());
                    }
                    // One member within eps connects the whole cell; a
                    // contained cell connects through its first member
                    // with no distance test at all.
                    for &m in members.iter() {
                        let hit = if contained {
                            true
                        } else {
                            distances += 1;
                            box_scans += 1;
                            points[m as usize].dist_sq(q) <= eps_sq
                        };
                        if hit {
                            // `i` was ensured at kernel entry; `m` is a
                            // dense member, core since phase 3a.
                            rule.resolve(labels_ref, core_ref, i, m);
                            break;
                        }
                    }
                } else {
                    let j = r.index();
                    if j != i {
                        // The leaf-bounds test was the exact distance
                        // test, free when contained.
                        if !contained {
                            distances += 1;
                        }
                        if rule != PairRule::Connect {
                            ensure_core(j);
                        }
                        rule.resolve(labels_ref, core_ref, i, j);
                    }
                }
                ControlFlow::Continue(())
            });
            counters.neighbors_found.fetch_add(stats.leaf_hits, Ordering::Relaxed);
            // The callback counted the distance tests it really made.
            QueryStats { leaf_hits: distances, contained_hits: 0, ..stats }.charge(counters);
            counters.dense_box_scans.fetch_add(box_scans, Ordering::Relaxed);
        })?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labels::{assert_core_equivalent, PointClass, NOISE};
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
    fn empty_input() {
        let (c, _) = fdbscan_densebox::<2>(&device(), &[], Params::new(1.0, 3)).unwrap();
        assert!(c.is_empty());
    }

    #[test]
    fn single_point() {
        let points = [Point2::new([1.0, 1.0])];
        let (c, _) = fdbscan_densebox(&device(), &points, Params::new(1.0, 2)).unwrap();
        assert_eq!(c.assignments, vec![NOISE]);
        let (c, _) = fdbscan_densebox(&device(), &points, Params::new(1.0, 1)).unwrap();
        assert_eq!(c.assignments, vec![0]);
    }

    #[test]
    fn dense_blob_is_one_cluster_with_no_internal_distances() {
        // All points in one tiny spot: a single dense cell; the main
        // phase must not compute any distances between its members.
        let points = vec![Point2::new([1.0, 1.0]); 100];
        let params = Params::new(1.0, 5);
        let (c, stats) = fdbscan_densebox(&device(), &points, params).unwrap();
        assert_eq!(c.num_clusters, 1);
        assert_eq!(c.num_core(), 100);
        let dense = stats.dense.unwrap();
        assert_eq!(dense.num_dense_cells, 1);
        assert_eq!(dense.points_in_dense_cells, 100);
        assert!((dense.dense_fraction - 1.0).abs() < 1e-12);
        // One dense cell, one box primitive, no point primitives: the
        // traversal finds only the own-cell box, which is skipped.
        assert_eq!(stats.counters.distance_computations, 0);
    }

    #[test]
    fn matches_oracle_on_random_data() {
        for (seed, eps, minpts) in
            [(11u64, 0.3f32, 4usize), (12, 0.5, 3), (13, 0.2, 6), (14, 1.0, 10), (15, 0.15, 2)]
        {
            let points = random_points(400, 6.0, seed);
            let params = Params::new(eps, minpts);
            let oracle = dbscan_classic(&points, params);
            let (got, _) = fdbscan_densebox(&device(), &points, params).unwrap();
            assert_core_equivalent(&oracle, &got);
            assert_valid_clustering(&points, &got, params);
        }
    }

    #[test]
    fn matches_fdbscan_exactly_on_clustered_data() {
        // Clustered data exercises the dense-cell path hard.
        let mut rng = StdRng::seed_from_u64(50);
        let mut points = Vec::new();
        for _ in 0..8 {
            let cx: f32 = rng.gen_range(0.0..10.0);
            let cy: f32 = rng.gen_range(0.0..10.0);
            for _ in 0..80 {
                points.push(Point2::new([
                    cx + rng.gen_range(-0.2..0.2),
                    cy + rng.gen_range(-0.2..0.2),
                ]));
            }
        }
        for _ in 0..40 {
            points.push(Point2::new([rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0)]));
        }
        let params = Params::new(0.3, 8);
        let (a, stats_a) = crate::fdbscan(&device(), &points, params).unwrap();
        let (b, stats_b) = fdbscan_densebox(&device(), &points, params).unwrap();
        assert_core_equivalent(&a, &b);
        assert_valid_clustering(&points, &b, params);
        // The mixed-primitive tree is far smaller (one box per dense
        // cell), so the dense-box variant must visit strictly fewer
        // nodes on heavily clustered data.
        assert!(
            stats_b.counters.bvh_nodes_visited < stats_a.counters.bvh_nodes_visited,
            "densebox visits: {} >= fdbscan visits: {}",
            stats_b.counters.bvh_nodes_visited,
            stats_a.counters.bvh_nodes_visited
        );
        // Distance work: FDBSCAN's containment fast path and index mask
        // now eliminate most intra-blob tests too, so the two are close;
        // DenseBox traverses unmasked (sees surviving point pairs from
        // both ends), so allow up to that 2x and no more.
        assert!(
            stats_b.counters.distance_computations < 2 * stats_a.counters.distance_computations,
            "densebox: {} >= 2x fdbscan: {}",
            stats_b.counters.distance_computations,
            stats_a.counters.distance_computations
        );
        assert!(stats_b.dense.unwrap().dense_fraction > 0.5);
    }

    #[test]
    fn minpts_2_friends_of_friends() {
        let points: Vec<Point2> = (0..40).map(|i| Point2::new([i as f32 * 0.9, 0.0])).collect();
        let params = Params::new(1.0, 2);
        let (c, _) = fdbscan_densebox(&device(), &points, params).unwrap();
        assert_eq!(c.num_clusters, 1);
        assert_valid_clustering(&points, &c, params);
    }

    #[test]
    fn two_dense_cells_connected_across_boundary() {
        // Two tight groups straddling a cell boundary but within eps of
        // each other: must merge into one cluster via the box-box path.
        let mut points = Vec::new();
        for i in 0..10 {
            points.push(Point2::new([0.9 + 0.001 * i as f32, 0.5]));
            points.push(Point2::new([1.1 + 0.001 * i as f32, 0.5]));
        }
        let params = Params::new(0.5, 5);
        let (c, stats) = fdbscan_densebox(&device(), &points, params).unwrap();
        assert_eq!(c.num_clusters, 1);
        assert!(stats.dense.unwrap().num_dense_cells >= 1);
        assert_valid_clustering(&points, &c, params);
    }

    #[test]
    fn border_attachment_to_dense_cluster() {
        // A dense blob (two stacks sharing a cell) plus one point within
        // eps of only the nearer stack: that point's degree (11) stays
        // below minpts (12), so it is a border of the dense cluster.
        let mut points = vec![Point2::new([0.0, 0.0]); 10];
        points.extend(vec![Point2::new([0.15, 0.0]); 10]);
        points.push(Point2::new([1.05, 0.0]));
        let params = Params::new(1.0, 12);
        let (c, _) = fdbscan_densebox(&device(), &points, params).unwrap();
        assert_eq!(c.num_clusters, 1);
        assert_eq!(c.classes[20], PointClass::Border);
        assert_eq!(c.assignments[20], c.assignments[0]);
        assert_valid_clustering(&points, &c, params);
    }

    #[test]
    fn oom_when_budget_too_small() {
        let tiny = Device::new(DeviceConfig::default().with_memory_budget(64));
        let points = random_points(1000, 5.0, 3);
        let err = fdbscan_densebox(&tiny, &points, Params::new(0.3, 4)).unwrap_err();
        assert!(matches!(err, DeviceError::OutOfMemory { .. }));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        #[test]
        fn densebox_always_matches_oracle(
            seed in any::<u64>(),
            n in 1usize..250,
            eps in 0.05f32..1.5,
            minpts in 1usize..10,
        ) {
            let points = random_points(n, 5.0, seed);
            let params = Params::new(eps, minpts);
            let oracle = dbscan_classic(&points, params);
            let (got, _) = fdbscan_densebox(&device(), &points, params).unwrap();
            assert_core_equivalent(&oracle, &got);
            assert_valid_clustering(&points, &got, params);
        }
    }
}
