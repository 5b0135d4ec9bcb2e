//! FDBSCAN-DenseBox: dense-cell handling fused into the tree (paper §4.2).
//!
//! A grid with cell edge `eps/sqrt(d)` guarantees every cell's diameter is
//! at most `eps`, so a cell holding `minpts`+ points (*dense cell*)
//! consists entirely of core points of one cluster. The BVH is then built
//! over a **mixed** primitive set — dense-cell boxes plus the points
//! outside them — and:
//!
//! * core determination only examines points *outside* dense cells
//!   (dense points are core by construction); the counting traversal
//!   walks outward from the point's own leaf, nearest subtrees first,
//!   and when it hits a box, a linear scan over the cell's members counts
//!   matches, stopping at `minpts` — unless the box is *contained* in
//!   the query ball, in which case every member counts with no scan,
//! * the main phase first unions each dense cell internally (one
//!   kernel), then runs one fused kernel with one query per **tree
//!   leaf**, lazily deciding core status on first demand (see
//!   [`LazyCore`]). Leaf `pos` queries the tree after its own leaf
//!   ([`Bvh::for_each_after`], the mask `pos + 1`), so every pair of
//!   leaves is resolved once, by its lower position, and the members of
//!   a dense cell never traverse:
//!   * a point leaf runs a point query: a point hit resolves like
//!     FDBSCAN, and a box hit needs just *one* member within `eps` to
//!     connect the whole cell,
//!   * a dense cell queries with its tight box: a point hit needs one
//!     member within `eps` of the point, and a box hit joins the two
//!     cells through an early-exit closest-pair test over the members
//!     near the other box (the cell graph of Wang, Gu and Shun).
//!
//!   There is no separate preprocessing launch; the `preprocess` phase
//!   only seeds handed-down core flags.
//!
//! No distance computations ever happen between two points of the same
//! dense cell — the elimination the paper's §5.1 measurements attribute
//! the (up to 16×) speedups to.

use std::ops::ControlFlow;
use std::sync::atomic::Ordering;

use fdbscan_bvh::{Bvh, QueryStats};
use fdbscan_device::{Device, DeviceError, PipelineCheckpoint};
use fdbscan_geom::{Aabb, Point};
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
    let DenseIndex { grid, bvh } = run.phase(PHASE_INDEX, || {
        let grid = match prebuilt {
            Some(grid) => grid,
            None => DenseGrid::build_in(device, points, eps, minpts)?,
        };
        grid_mem = Some(device.memory().reserve(grid.memory_bytes())?);
        let primitives = grid.mixed_primitives(points);
        let bvh = Bvh::build_in(device, &primitives.bounds)?;
        mixed = Some(primitives);
        Ok(DenseIndex { grid, bvh })
    })?;
    let _grid_mem = match grid_mem {
        Some(mem) => mem,
        None => device.memory().reserve(grid.memory_bytes())?,
    };
    let refs = mixed.unwrap_or_else(|| grid.mixed_primitives(points)).refs;
    let _bvh_mem = device.memory().reserve(bvh.memory_bytes())?;

    // Phase 2: preprocessing, fused into the main kernel.
    let (core, lazy) = run.lazy_core(n);

    // Phase 3: main. 3a unions each dense cell internally; 3b runs one
    // masked query per tree leaf, deciding core status lazily.
    let state = run.phase(PHASE_MAIN, || {
        let labels = AtomicLabels::with_counters(n, device.counters_arc());
        run_main(device, points, params, options, &grid, &bvh, &refs, &labels, &core, &lazy)?;
        Ok(LabelState { labels, core })
    })?;

    // Phase 4: finalization.
    let clustering = run.phase(PHASE_FINALIZE, || finalize(device, &state.labels, &state.core))?;
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

    // Phase 3b: one masked query per tree leaf. Core status is decided
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
        // Point `p` sits at leaf `p_pos`; its count walks outward from
        // that leaf, nearest subtrees first.
        let ensure_core = |p: u32, p_pos: u32| -> bool {
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
                    let stats = bvh_ref.for_each_around(p_pos, q, eps, |_, payload, contained| {
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
                            // already the exact distance test, free when
                            // contained (as `p` itself, reported first).
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
        // Leaf `pos` queries the tree after its own leaf (cutoff
        // `pos + 1`), so each pair of leaves is resolved once, by its lower
        // position, and the members of a dense cell never traverse.
        // Highest position first: a query then starts after every pair
        // among the leaves it can reach has been resolved, so the
        // `same_set` short-circuits see those connections.
        let leaves = bvh.len();
        device.try_launch_named("densebox.main_fused", leaves, |k| {
            let pos = (leaves - 1 - k) as u32;
            let r = refs[bvh_ref.leaf_payload(pos) as usize];
            let mut tally = Tally::default();
            let stats = if r.is_cell() {
                // A dense cell queries with its tight box.
                let members = grid_ref.cell_members(r.index());
                let own_box = bvh_ref.leaf_bounds(pos);
                let mut near = Vec::new();
                bvh_ref.for_each_after(pos, own_box, eps, |hit, payload, contained| {
                    let r = refs[payload as usize];
                    if r.is_cell() {
                        // Both cells are core and internally joined:
                        // one member pair within eps joins them.
                        let other = grid_ref.cell_members(r.index());
                        if labels_ref.same_set(members[0], other[0]) {
                            return ControlFlow::Continue(());
                        }
                        let pair = if contained {
                            Some((members[0], other[0]))
                        } else {
                            closest_pair(
                                points,
                                eps_sq,
                                (members, own_box),
                                (other, bvh_ref.leaf_bounds(hit)),
                                &mut near,
                                &mut tally,
                            )
                        };
                        if let Some((a, b)) = pair {
                            labels_ref.union(a, b);
                        }
                    } else {
                        let j = r.index();
                        if labels_ref.same_set(j, members[0]) {
                            return ControlFlow::Continue(());
                        }
                        let q = &points[j as usize];
                        if let Some(m) =
                            first_within(points, members, q, eps_sq, contained, &mut tally)
                        {
                            if rule != PairRule::Connect {
                                ensure_core(j, hit);
                            }
                            rule.resolve(labels_ref, core_ref, j, m);
                        }
                    }
                    ControlFlow::Continue(())
                })
            } else {
                let i = r.index();
                if rule != PairRule::Connect {
                    ensure_core(i, pos);
                }
                let q = &points[i as usize];
                bvh_ref.for_each_after(pos, q, eps, |hit, payload, contained| {
                    let r = refs[payload as usize];
                    if r.is_cell() {
                        let members = grid_ref.cell_members(r.index());
                        // Short-circuit (the ArborX callback optimization):
                        // all members of a dense cell share one set, so if
                        // this point is already in it, any union found by
                        // the scan would be a no-op — skip the distance
                        // work.
                        if labels_ref.same_set(i, members[0]) {
                            return ControlFlow::Continue(());
                        }
                        // One member within eps connects the whole cell.
                        // `i` was ensured above; `m` is a dense member,
                        // core since phase 3a.
                        if let Some(m) =
                            first_within(points, members, q, eps_sq, contained, &mut tally)
                        {
                            rule.resolve(labels_ref, core_ref, i, m);
                        }
                    } else {
                        // The leaf-bounds test was the exact distance test,
                        // free when contained.
                        let j = r.index();
                        if !contained {
                            tally.point_tests += 1;
                        }
                        if rule != PairRule::Connect {
                            ensure_core(j, hit);
                        }
                        rule.resolve(labels_ref, core_ref, i, j);
                    }
                    ControlFlow::Continue(())
                })
            };
            counters.neighbors_found.fetch_add(stats.leaf_hits, Ordering::Relaxed);
            // The callbacks counted the distance tests they really made;
            // the cell-pair box filters are leaf-bounds tests.
            QueryStats {
                nodes_visited: stats.nodes_visited + tally.filters,
                leaf_hits: tally.point_tests + tally.member_tests,
                contained_hits: 0,
                ..stats
            }
            .charge(counters);
            counters.dense_box_scans.fetch_add(tally.member_tests, Ordering::Relaxed);
        })?;
    }
    Ok(())
}

/// Work a main-kernel query did outside its traversal's own accounting.
#[derive(Default)]
struct Tally {
    /// Point leaves whose leaf-bounds test was a distance test.
    point_tests: u64,
    /// Distance tests against dense-cell members.
    member_tests: u64,
    /// Cell-pair box filters: one leaf-bounds test per member.
    filters: u64,
}

/// The first member of a dense cell within `eps` of `q`: the first member
/// outright when the query found the whole cell within `eps`.
fn first_within<const D: usize>(
    points: &[Point<D>],
    members: &[u32],
    q: &Point<D>,
    eps_sq: f32,
    contained: bool,
    tally: &mut Tally,
) -> Option<u32> {
    if contained {
        return Some(members[0]);
    }
    members.iter().copied().find(|&m| {
        tally.member_tests += 1;
        points[m as usize].dist_sq(q) <= eps_sq
    })
}

/// Early-exit bichromatic closest-pair test of two dense cells (the cell
/// graph of Wang, Gu and Shun): the first member pair within `eps`, if
/// any. Each side is filtered to the members within `eps` of the other
/// cell's box, and a member with the whole other box within `eps` pairs
/// with its first member without a distance test. `near` is scratch for
/// the second cell's filtered members.
fn closest_pair<const D: usize>(
    points: &[Point<D>],
    eps_sq: f32,
    (a, a_box): (&[u32], &Aabb<D>),
    (b, b_box): (&[u32], &Aabb<D>),
    near: &mut Vec<u32>,
    tally: &mut Tally,
) -> Option<(u32, u32)> {
    near.clear();
    for &m in b {
        tally.filters += 1;
        let p = &points[m as usize];
        if a_box.dist_sq(p) <= eps_sq {
            if a_box.max_dist_sq(p) <= eps_sq {
                return Some((a[0], m));
            }
            near.push(m);
        }
    }
    if near.is_empty() {
        return None;
    }
    for &m in a {
        tally.filters += 1;
        let p = &points[m as usize];
        if b_box.dist_sq(p) > eps_sq {
            continue;
        }
        if b_box.max_dist_sq(p) <= eps_sq {
            return Some((m, b[0]));
        }
        for &o in near.iter() {
            tally.member_tests += 1;
            if points[o as usize].dist_sq(p) <= eps_sq {
                return Some((m, o));
            }
        }
    }
    None
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
        // main phase runs one masked query, from the cell's leaf, and its
        // members never traverse. A one-leaf tree has nothing after that
        // leaf, so the query tests no node.
        assert_eq!(stats.counters.distance_computations, 0);
        assert_eq!(stats.phase_counters.main.bvh_nodes_visited, 0);
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
        // allow DenseBox up to 2x and no more.
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
    fn tiny_eps_is_invalid_input() {
        // 3-D grid keys hold 21 bits per axis; eps = 1e-4 over a 0..999
        // extent needs about 1.7e7 cells per axis.
        let points: Vec<Point<3>> = (0..1000)
            .map(|i| Point::new([i as f32, ((i * 7) % 1000) as f32, ((i * 13) % 1000) as f32]))
            .collect();
        let err = fdbscan_densebox(&device(), &points, Params::new(1e-4, 3)).unwrap_err();
        assert!(matches!(err, DeviceError::InvalidInput { .. }), "{err:?}");
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
