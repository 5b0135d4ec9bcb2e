//! FDBSCAN-DenseBox: dense-cell handling fused into the tree (paper §4.2).
//!
//! A grid with cell edge `eps/sqrt(d)` guarantees every cell's diameter is
//! at most `eps`, so a cell holding `minpts`+ points (*dense cell*)
//! consists entirely of core points of one cluster. The BVH is then built
//! over a **mixed** primitive set — dense-cell boxes plus the points
//! outside them — and:
//!
//! * core determination only examines points *outside* dense cells
//!   (dense points are core by construction). A point counts one
//!   neighbour; a box hit counts its members within `eps` by a linear
//!   scan that stops at `minpts` — unless the box is *contained* in the
//!   query ball, in which case every member counts with no scan,
//! * the main phase first unions each dense cell internally (one
//!   kernel), then runs one fused kernel with one query per **tree
//!   leaf**, lazily deciding core status on first demand (see
//!   [`LazyCore`]). Leaf `pos` queries the tree after its own leaf
//!   ([`Bvh::for_each_after`], the mask `pos + 1`), so every pair of
//!   leaves is resolved once, by its lower position, and the members of
//!   a dense cell never traverse:
//!   * a point leaf runs a point query: a point hit resolves like
//!     FDBSCAN, and a box hit needs just *one* member within `eps` to
//!     connect the whole cell. The thread that claims the leaf's
//!     undecided point counts its neighbours in this same walk, holding
//!     the pairs it finds (with their partner member) until the point is
//!     decided, and walks the prefix before its leaf only while the
//!     count is short of `minpts` (`framework::search_claimed`). A point
//!     a partner needs first is counted by a walk outward from its own
//!     leaf, nearest subtrees first (`framework::count_around`),
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

use std::cell::Cell;
use std::ops::ControlFlow;

use fdbscan_bvh::{Bvh, QueryStats};
use fdbscan_device::{Counters, Device, DeviceError, Hot, PipelineCheckpoint};
use fdbscan_geom::{Aabb, Point};
use fdbscan_grid::{DenseGrid, PrimitiveRef};
use fdbscan_unionfind::AtomicLabels;

use crate::checkpoint::{self, DenseIndex, LabelState, PHASE_FINALIZE, PHASE_INDEX, PHASE_MAIN};
use crate::framework::{
    count_around, finalize, search_claimed, Claimant, CoreFlags, LazyCore, PairRule,
};
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
    checkpoint::prepare(ckpt, DENSEBOX_ALGORITHM, points, params);
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

/// FDBSCAN-DenseBox over a grid the caller built, if any, on a
/// checkpoint made for this input, if any.
pub(crate) fn densebox_core<const D: usize>(
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
    let mut run = Pipeline::start(device, DENSEBOX_ALGORITHM, points, ckpt, caller)?;
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
    refs: &[PrimitiveRef],
    labels: &AtomicLabels,
    core: &CoreFlags,
    lazy: &LazyCore,
) -> Result<(), DeviceError> {
    let Params { eps, minpts } = params;
    let rule = PairRule::of(minpts, options.star);

    // Phase 3a: union all points within each dense cell.
    device.try_launch_named("densebox.cell_union", grid.num_cells(), |c| {
        let c = c as u32;
        if !grid.is_dense(c) {
            return;
        }
        let members = grid.cell_members(c);
        for &m in members {
            core.set(m);
        }
        // Every member is still a singleton, and the first is the cell's
        // smallest id (the grid's sort is stable): the rest hook straight
        // under it, as `union` would hook them.
        labels.hook_singletons(members[0], &members[1..]);
    })?;

    // Phase 3b: one masked query per tree leaf. Core status is decided
    // lazily on first demand (exactly once per point): dense-cell members
    // are core by construction, outside points are counted inside their
    // own leaf's query, or by a walk of their own when a partner needs
    // them first.
    let main = MainKernel {
        points,
        grid,
        bvh,
        refs,
        labels,
        core,
        lazy,
        counters: device.counters(),
        rule,
        minpts,
        eps,
        eps_sq: eps * eps,
    };
    // Leaf `pos` queries the tree after its own leaf (cutoff `pos + 1`),
    // so each pair of leaves is resolved once, by its lower position, and
    // the members of a dense cell never traverse. Highest position first:
    // a query then starts after every pair among the leaves it can reach
    // has been resolved, so the `same_set` short-circuits see those
    // connections.
    let leaves = bvh.len();
    device.try_launch_named("densebox.main_fused", leaves, |k| {
        main.query_leaf((leaves - 1 - k) as u32);
    })
}

thread_local! {
    /// The filtered members of the second cell of a [`closest_pair`]
    /// test. One buffer per thread, reused across cell queries, like
    /// [`crate::framework`]'s held pairs.
    static NEAR: Cell<Vec<u32>> = const { Cell::new(Vec::new()) };
}

/// `densebox.main_fused`'s view of one run: the input, the index, the
/// union-find state and the lazy core decisions.
struct MainKernel<'a, const D: usize> {
    points: &'a [Point<D>],
    grid: &'a DenseGrid<D>,
    bvh: &'a Bvh<D>,
    refs: &'a [PrimitiveRef],
    labels: &'a AtomicLabels,
    core: &'a CoreFlags,
    lazy: &'a LazyCore,
    counters: &'a Counters,
    rule: PairRule,
    minpts: usize,
    eps: f32,
    eps_sq: f32,
}

impl<const D: usize> MainKernel<'_, D> {
    /// Leaf `pos`'s masked query, with its work charged to the counters.
    fn query_leaf(&self, pos: u32) {
        let r = self.refs[self.bvh.leaf_payload(pos) as usize];
        let mut tally = Tally::default();
        let stats = if r.is_cell() {
            self.cell_query(pos, r.index(), &mut tally)
        } else {
            self.point_query(pos, r.index(), &mut tally)
        };
        self.counters.add(Hot::Neighbors, stats.leaf_hits);
        self.charge(stats.nodes_visited, &tally);
    }

    /// Charges `nodes` tested nodes and the tests a query's callbacks
    /// tallied. The callbacks count the distance tests they really made;
    /// the cell-pair box filters are leaf-bounds tests.
    fn charge(&self, nodes: u64, tally: &Tally) {
        self.counters.add(Hot::Nodes, nodes + tally.filters);
        self.counters.add(Hot::Distances, tally.point_tests + tally.member_tests);
        self.counters.add(Hot::DenseBoxScans, tally.member_tests);
    }

    /// A point leaf's query, from point `i`. The thread that wins the
    /// claim on `i` counts its neighbours inside this walk
    /// ([`search_claimed`]); otherwise `i` was decided before the walk
    /// starts. Returns the suffix walk's statistics, with the nodes of a
    /// claimant's prefix count added.
    fn point_query(&self, pos: u32, i: u32, tally: &mut Tally) -> QueryStats {
        let q = &self.points[i as usize];
        let mut hits = PointHits { kernel: self, i, q, tally };
        // `Connect` marks cores per pair instead of deciding them.
        if self.rule != PairRule::Connect && self.lazy.claim(i).is_none() {
            let decide = |is_core| self.lazy.decide(self.core, i, is_core);
            // The launch runs highest position first, so no leaf before
            // `pos` has searched yet: the prefix may hold neighbours.
            let (suffix, prefix) =
                search_claimed(self.bvh, pos, q, self.eps, self.minpts, true, decide, &mut hits);
            return QueryStats {
                nodes_visited: suffix.nodes_visited + prefix.nodes_visited,
                ..suffix
            };
        }
        self.bvh.for_each_after(pos, q, self.eps, |hit, payload, contained| {
            hits.resolve(hit, payload, contained);
            ControlFlow::Continue(())
        })
    }

    /// A dense cell's query, with its tight box: a point hit needs one
    /// member within `eps` of the point, and a cell hit joins the two
    /// cells through [`closest_pair`].
    fn cell_query(&self, pos: u32, c: u32, tally: &mut Tally) -> QueryStats {
        let members = self.grid.cell_members(c);
        let own_box = self.bvh.leaf(pos);
        let mut near = NEAR.take();
        let stats = self.bvh.for_each_after(pos, own_box, self.eps, |hit, payload, contained| {
            let r = self.refs[payload as usize];
            if r.is_cell() {
                // Both cells are core and internally joined: one member
                // pair within eps joins them.
                let other = self.grid.cell_members(r.index());
                if self.labels.same_set(members[0], other[0]) {
                    return ControlFlow::Continue(());
                }
                let pair = if contained {
                    Some((members[0], other[0]))
                } else {
                    closest_pair(
                        self.points,
                        self.eps_sq,
                        (members, own_box),
                        (other, self.bvh.leaf(hit)),
                        &mut near,
                        tally,
                    )
                };
                if let Some((a, b)) = pair {
                    self.labels.union(a, b);
                }
            } else {
                let j = r.index();
                if self.labels.same_set(j, members[0]) {
                    return ControlFlow::Continue(());
                }
                // The first member within eps of the point connects it.
                let q = &self.points[j as usize];
                if let (_, Some(m)) = self.weigh(q, PrimitiveRef::cell(c), contained, 1, tally) {
                    self.ensure_core(j, hit);
                    self.rule.resolve(self.labels, self.core, j, m);
                }
            }
            ControlFlow::Continue(())
        });
        NEAR.set(near);
        stats
    }

    /// How many neighbours of `q` the primitive `r` holds, counted no
    /// further than `need`, and the first of them, which a pair with `q`
    /// resolves with. A point is one: its leaf-bounds test was the exact
    /// distance test, free when `contained`. A cell within `eps` as a
    /// whole holds all its members, with no scan. Any other cell is
    /// scanned in member order, stopping once `need` members are within
    /// `eps`.
    fn weigh(
        &self,
        q: &Point<D>,
        r: PrimitiveRef,
        contained: bool,
        need: usize,
        tally: &mut Tally,
    ) -> (usize, Option<u32>) {
        if !r.is_cell() {
            tally.point_tests += u64::from(!contained);
            return (1, Some(r.index()));
        }
        let members = self.grid.cell_members(r.index());
        if contained {
            return (members.len(), Some(members[0]));
        }
        let (mut count, mut first) = (0, None);
        for &m in members {
            tally.member_tests += 1;
            if self.points[m as usize].dist_sq(q) <= self.eps_sq {
                first.get_or_insert(m);
                count += 1;
                if count == need {
                    break;
                }
            }
        }
        (count, first)
    }

    /// Decides point `p` at leaf `p_pos` on first demand (exactly once
    /// per point). `p` lies outside every dense cell: the members of a
    /// dense cell are core since phase 3a and never asked about. The
    /// count walks outward from `p`'s leaf ([`count_around`]).
    fn ensure_core(&self, p: u32, p_pos: u32) {
        // `Connect` marks cores per pair instead of deciding them.
        if self.rule == PairRule::Connect {
            return;
        }
        self.lazy.ensure(self.core, p, || {
            let q = &self.points[p as usize];
            let mut tally = Tally::default();
            let (count, stats) =
                count_around(self.bvh, p_pos, self.eps, self.minpts, |payload, contained, need| {
                    self.weigh(q, self.refs[payload as usize], contained, need, &mut tally).0
                });
            self.charge(stats.nodes_visited, &tally);
            count >= self.minpts
        });
    }
}

/// The hits of point `i`'s leaf query, as [`search_claimed`] weighs and
/// resolves them.
struct PointHits<'k, 'a, const D: usize> {
    kernel: &'k MainKernel<'a, D>,
    i: u32,
    q: &'k Point<D>,
    tally: &'k mut Tally,
}

impl<const D: usize> Claimant for PointHits<'_, '_, D> {
    fn weigh(&mut self, payload: u32, contained: bool, need: usize) -> (usize, Option<u32>) {
        let k = self.kernel;
        k.weigh(self.q, k.refs[payload as usize], contained, need, self.tally)
    }

    fn resolve_held(&mut self, hit: u32, partner: u32) {
        let k = self.kernel;
        let r = k.refs[k.bvh.leaf_payload(hit) as usize];
        if r.is_cell() {
            // Short-circuit, as in `resolve`.
            if k.labels.same_set(self.i, k.grid.cell_members(r.index())[0]) {
                return;
            }
        } else {
            k.ensure_core(partner, hit);
        }
        k.rule.resolve(k.labels, k.core, self.i, partner);
    }

    fn resolve(&mut self, hit: u32, payload: u32, contained: bool) {
        let k = self.kernel;
        let r = k.refs[payload as usize];
        let partner = if r.is_cell() {
            let members = k.grid.cell_members(r.index());
            // Short-circuit (the ArborX callback optimization): all
            // members of a dense cell share one set, so if this point is
            // already in it, any union found by the scan would be a no-op
            // — skip the distance work.
            if k.labels.same_set(self.i, members[0]) {
                return;
            }
            // The first member within eps connects the whole cell; it is
            // core since phase 3a.
            k.weigh(self.q, r, contained, 1, self.tally).1
        } else {
            // The leaf-bounds test was the exact distance test, free when
            // contained.
            self.tally.point_tests += u64::from(!contained);
            k.ensure_core(r.index(), hit);
            Some(r.index())
        };
        if let Some(partner) = partner {
            k.rule.resolve(k.labels, k.core, self.i, partner);
        }
    }
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
    use crate::seq::{dbscan_canonical, dbscan_classic};
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

    /// The mixed-primitive tree `densebox_core` builds for this input.
    fn mixed_tree<const D: usize>(
        d: &Device,
        points: &[Point<D>],
        params: Params,
    ) -> (Bvh<D>, Vec<PrimitiveRef>) {
        let grid = DenseGrid::build_in(d, points, params.eps, params.minpts).unwrap();
        let mixed = grid.mixed_primitives(points);
        (Bvh::build_in(d, &mixed.bounds).unwrap(), mixed.refs)
    }

    #[test]
    fn point_leaves_walk_each_suffix_once() {
        // A lattice spaced wider than eps: no dense cell and no
        // neighbour, so every leaf is a point whose thread claims it,
        // walks its suffix once (searching and counting) and then its
        // prefix (counting on).
        let mut points = Vec::new();
        for x in 0..8 {
            for y in 0..8 {
                for z in 0..8 {
                    points.push(Point::new([x as f32, y as f32, z as f32]));
                }
            }
        }
        let params = Params::new(0.5, 5);
        let d = Device::new(DeviceConfig::sequential());
        let (c, stats) = fdbscan_densebox(&d, &points, params).unwrap();
        assert_eq!(c.num_noise(), points.len());
        assert_eq!(stats.dense.unwrap().num_dense_cells, 0);
        let (bvh, refs) = mixed_tree(&d, &points, params);
        let go = |_, _, _| ControlFlow::Continue(());
        let walks: u64 = (0..bvh.len() as u32)
            .map(|pos| {
                let q = &points[refs[bvh.leaf_payload(pos) as usize].index() as usize];
                bvh.for_each_after(pos, q, params.eps, go).nodes_visited
                    + bvh.for_each_before(pos, q, params.eps, go).nodes_visited
            })
            .sum();
        assert_eq!(stats.phase_counters.main.bvh_nodes_visited, walks);
        assert_eq!(stats.phase_counters.main.distance_computations, 0);
    }

    #[test]
    fn point_leaves_holding_dozens_of_hits_match_oracle() {
        // At minpts 40 and 64 the blobs' cells stay below minpts, so
        // their points are point leaves, and some leaf's suffix holds
        // more than 16 points and no cell: its claimant holds more than
        // 16 pairs before it is decided.
        let points = fdbscan_data::blobs::<3>(1000, 6, 0.4, 20.0, 0.2, 41);
        let seq = Device::new(DeviceConfig::sequential());
        let four = Device::new(DeviceConfig::default().with_workers(4).with_block_size(16));
        for minpts in [40, 64] {
            let params = Params::new(0.6, minpts);
            let (bvh, refs) = mixed_tree(&seq, &points, params);
            let holds_many = (0..bvh.len() as u32).any(|pos| {
                let r = refs[bvh.leaf_payload(pos) as usize];
                let q = &points[r.index() as usize];
                let (mut hits, mut cells) = (0, 0);
                bvh.for_each_after(pos, q, params.eps, |_, payload, _| {
                    hits += 1;
                    cells += u32::from(refs[payload as usize].is_cell());
                    ControlFlow::Continue(())
                });
                !r.is_cell() && cells == 0 && hits > 16
            });
            assert!(holds_many, "minpts {minpts}: no point leaf holds more than 16 hits");
            let oracle = dbscan_canonical(&points, params);
            assert!(oracle.num_clusters > 0 && oracle.num_noise() > 0, "minpts {minpts}");
            for d in [&seq, &four] {
                let (got, _) = fdbscan_densebox(d, &points, params).unwrap();
                assert_core_equivalent(&oracle, &got);
                assert_valid_clustering(&points, &got, params);
            }
        }
    }

    #[test]
    fn claimants_agree_with_oracle_around_dense_cells_on_four_workers() {
        // Threads that wait on a point while its claimant is still
        // walking must read the claimant's decision, next to dense cells
        // and at every minpts.
        let d = Device::new(DeviceConfig::default().with_workers(4).with_block_size(16));
        for seed in [1u64, 2] {
            let points = fdbscan_data::blobs::<2>(4000, 8, 0.2, 20.0, 0.2, seed);
            for minpts in [3usize, 5, 40] {
                let params = Params::new(0.3, minpts);
                let oracle = dbscan_canonical(&points, params);
                for _ in 0..3 {
                    let (got, stats) = fdbscan_densebox(&d, &points, params).unwrap();
                    assert!(stats.dense.unwrap().num_dense_cells > 0, "minpts {minpts}");
                    assert_core_equivalent(&oracle, &got);
                }
            }
        }
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
