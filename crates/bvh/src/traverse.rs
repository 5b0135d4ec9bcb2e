//! Batched radius queries with callbacks, early termination and masking.
//!
//! The production traversal is *stackless*: every node carries a
//! precomputed rope (skip link) to the next node in preorder after its
//! subtree, so "descend" is one child load and "skip" is one rope load —
//! no per-query stack, no pops, no divergent frontier bookkeeping. Two
//! work-saving tests run per internal node:
//!
//! * **rejection** — `dist_sq(center, box) > eps²` skips the subtree,
//! * **containment** — `max_dist_sq(center, box) <= eps²` accepts the
//!   whole subtree: its leaves are enumerated directly from the node's
//!   sorted-leaf range with *no* per-leaf distance tests (counted in
//!   [`QueryStats::contained_hits`]).
//!
//! Four walks share that one rope loop:
//!
//! * [`Bvh::for_each_in_radius`] starts at the root and takes any centre
//!   and any index cutoff (paper Fig. 1's mask),
//! * [`Bvh::for_each_after`] is the masked query *of a leaf*: it starts
//!   at leaf `pos`'s rope, so it walks only the preorder suffix after the
//!   leaf — exactly the subtrees the mask `pos + 1` lets through — and
//!   never tests an ancestor of `pos` or a mask,
//! * [`Bvh::for_each_before`] is its mirror image: it starts at leaf
//!   `pos`'s *mirrored* rope and walks only the prefix before the leaf
//!   (right-child-first preorder), nearest subtrees first,
//! * [`Bvh::for_each_around`] is the unmasked query of a leaf: the leaf
//!   itself, then the suffix, then the prefix — the two walks above
//!   back to back, so the subtrees nearest the leaf on both sides come
//!   first and an early exit comes sooner.
//!
//! The leaf-anchored walks skip the ancestors' tests, and with them the
//! containment fast path those ancestors offered: where an ancestor of
//! the query's leaf is contained (a pile of duplicates), the root walk
//! accepts it with one test and the anchored walks test its pieces.
//!
//! The query centre is any [`QueryCenter`]: a point, or a box (a dense
//! cell querying its neighbouring leaves). Both tests sum its per-axis
//! gaps and spans, so a point query does exactly the `f32` operations of
//! [`fdbscan_geom::Aabb::dist_sq`] and [`fdbscan_geom::Aabb::max_dist_sq`].
//!
//! Per-leaf distance tests stride the dimension-major SoA corner arrays
//! and exit early once the partial sum exceeds `eps²`; accepted values
//! are bit-identical to the array-of-structures [`fdbscan_geom::Aabb`]
//! test, so results match the stack-based reference exactly.

use std::ops::ControlFlow;

use fdbscan_device::Counters;
use fdbscan_geom::{Point, QueryCenter};

use crate::node::NodeRef;
use crate::Bvh;

/// Per-query traversal statistics, for the device work counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Nodes (internal or leaf) whose bounds were tested. Leaves inside a
    /// contained subtree are enumerated, not tested, so they don't count.
    pub nodes_visited: u64,
    /// Callback invocations: leaves whose bounds passed the test plus
    /// leaves accepted wholesale by the containment fast path.
    pub leaf_hits: u64,
    /// Leaves accepted by the containment fast path without a distance
    /// test (a subset of `leaf_hits`).
    pub contained_hits: u64,
    /// Whether the callback terminated the traversal early.
    pub terminated_early: bool,
}

impl QueryStats {
    /// Distance tests actually evaluated: for point primitives each
    /// non-contained leaf hit is one exact distance test, so this is the
    /// distance-computation count to charge to the device counters.
    #[inline]
    pub fn distance_tests(&self) -> u64 {
        self.leaf_hits - self.contained_hits
    }

    /// Charges this query's traversal work to the device counters: node
    /// visits and [`QueryStats::distance_tests`]. A caller whose callback
    /// counts its own distance tests (box primitives) overrides
    /// `leaf_hits` with that count and `contained_hits` with zero first.
    #[inline]
    pub fn charge(&self, counters: &Counters) {
        counters.add_nodes_visited(self.nodes_visited);
        counters.add_distances(self.distance_tests());
    }
}

impl<const D: usize> Bvh<D> {
    /// Invokes `callback(leaf_pos, payload)` for every leaf whose bounds
    /// lie within `eps` of `center` (a point, or a box: within `eps` of
    /// some point of it), skipping all leaves with sorted position
    /// `< cutoff` (the index mask of paper Fig. 1; pass `0` for an
    /// unmasked query).
    ///
    /// The callback may return [`ControlFlow::Break`] to terminate this
    /// query's traversal early (used to stop counting at `minpts`).
    ///
    /// For a point centre and point leaves, the bounds test is already
    /// the exact `dist <= eps` test, so the callback only fires on true
    /// neighbors. For box leaves (dense cells), or a box centre, the
    /// callback receives candidates and performs its own membership scan.
    pub fn for_each_in_radius<C, F>(
        &self,
        center: &C,
        eps: f32,
        cutoff: u32,
        mut callback: F,
    ) -> QueryStats
    where
        C: QueryCenter<D>,
        F: FnMut(u32, u32) -> ControlFlow<()>,
    {
        self.for_each_in_radius_flagged(center, eps, cutoff, |pos, payload, _| {
            callback(pos, payload)
        })
    }

    /// [`Self::for_each_in_radius`] with a `contained` flag: `true` when
    /// the leaf was accepted wholesale by the containment fast path
    /// (every point of its bounds — for a box leaf, every member — is
    /// within `eps` of every point of `center`, so the callback can skip
    /// its own distance work).
    pub fn for_each_in_radius_flagged<C, F>(
        &self,
        center: &C,
        eps: f32,
        cutoff: u32,
        mut callback: F,
    ) -> QueryStats
    where
        C: QueryCenter<D>,
        F: FnMut(u32, u32, bool) -> ControlFlow<()>,
    {
        let mut stats = QueryStats::default();
        let n = self.len();
        if n == 0 {
            return stats;
        }
        let eps_sq = eps * eps;

        if n == 1 {
            stats.nodes_visited = 1;
            if cutoff == 0 && self.leaf_bounds[0].dist_sq(center) <= eps_sq {
                stats.leaf_hits = 1;
                if callback(0, self.leaf_payload[0], false).is_break() {
                    stats.terminated_early = true;
                }
            }
            return stats;
        }

        // Root pre-check: a fully-masked or out-of-range query costs
        // exactly one node visit, as in the stack-based reference.
        stats.nodes_visited = 1;
        let root = &self.internal_bounds[0];
        if self.ranges[0][1] < cutoff || root.dist_sq(center) > eps_sq {
            return stats;
        }
        if root.max_dist_sq(center) <= eps_sq {
            self.emit_range(0, self.ranges[0][1], cutoff, &mut stats, &mut callback);
            return stats;
        }
        self.rope_walk::<C, F, false>(
            self.children[0][0],
            cutoff,
            center,
            eps_sq,
            &mut stats,
            &mut callback,
        );
        stats
    }

    /// The masked query of leaf `pos`: invokes `callback(leaf_pos,
    /// payload, contained)` for every leaf *after* `pos` in sorted order
    /// whose bounds lie within `eps` of `center`, in increasing position
    /// order — exactly the `(leaf_pos, payload)` sequence of
    /// [`Self::for_each_in_radius_flagged`] with cutoff `pos + 1`, for any
    /// centre.
    ///
    /// The walk starts at the leaf's rope, so it covers only the preorder
    /// suffix after `pos`: no ancestor of `pos` is tested, and no mask
    /// test runs. A leaf the root walk would accept through a contained
    /// ancestor is tested here instead, so its `contained` flag may be
    /// `false` where the root walk's is `true`.
    pub fn for_each_after<C, F>(
        &self,
        pos: u32,
        center: &C,
        eps: f32,
        mut callback: F,
    ) -> QueryStats
    where
        C: QueryCenter<D>,
        F: FnMut(u32, u32, bool) -> ControlFlow<()>,
    {
        let mut stats = QueryStats::default();
        self.walk_from::<C, F, false>(pos, center, eps * eps, &mut stats, &mut callback);
        stats
    }

    /// The prefix query of leaf `pos`: invokes `callback(leaf_pos,
    /// payload, contained)` for every leaf *before* `pos` in sorted order
    /// whose bounds lie within `eps` of `center` — the hits of
    /// [`Self::for_each_in_radius_flagged`] with cutoff `0` below `pos`,
    /// for any centre.
    ///
    /// The walk starts at the leaf's mirrored rope and descends right
    /// children first, so the subtrees nearest the leaf come first and a
    /// callback that stops at a count stops early. No ancestor of `pos`
    /// is tested.
    pub fn for_each_before<C, F>(
        &self,
        pos: u32,
        center: &C,
        eps: f32,
        mut callback: F,
    ) -> QueryStats
    where
        C: QueryCenter<D>,
        F: FnMut(u32, u32, bool) -> ControlFlow<()>,
    {
        let mut stats = QueryStats::default();
        self.walk_from::<C, F, true>(pos, center, eps * eps, &mut stats, &mut callback);
        stats
    }

    /// The unmasked query of leaf `pos`: invokes `callback(leaf_pos,
    /// payload, contained)` for every leaf whose bounds lie within `eps`
    /// of `center` — the hit set of [`Self::for_each_in_radius_flagged`]
    /// with cutoff `0`. `center` must lie within `eps` of leaf `pos` (it
    /// is the leaf's own point or box).
    ///
    /// Leaf `pos` itself is reported first, without a bounds test
    /// (`contained` when its bounds lie within `eps` of all of `center`,
    /// as for a point leaf queried from its own point). Then come the
    /// walks of [`Self::for_each_after`] and [`Self::for_each_before`]:
    /// the subtrees nearest the leaf come first on both sides, so a
    /// callback that stops at a count stops early. No ancestor of `pos`
    /// is tested.
    pub fn for_each_around<C, F>(
        &self,
        pos: u32,
        center: &C,
        eps: f32,
        mut callback: F,
    ) -> QueryStats
    where
        C: QueryCenter<D>,
        F: FnMut(u32, u32, bool) -> ControlFlow<()>,
    {
        let mut stats = QueryStats::default();
        let eps_sq = eps * eps;
        let own = &self.leaf_bounds[pos as usize];
        debug_assert!(own.dist_sq(center) <= eps_sq, "centre is not within eps of leaf {pos}");
        let contained = own.max_dist_sq(center) <= eps_sq;
        stats.leaf_hits = 1;
        stats.contained_hits = u64::from(contained);
        if callback(pos, self.leaf_payload[pos as usize], contained).is_break() {
            stats.terminated_early = true;
            return stats;
        }
        if !self.walk_from::<C, F, false>(pos, center, eps_sq, &mut stats, &mut callback) {
            self.walk_from::<C, F, true>(pos, center, eps_sq, &mut stats, &mut callback);
        }
        stats
    }

    /// The rope loop from leaf `pos`'s rope: the preorder suffix after
    /// the leaf, or `MIRRORED`, the prefix before it. Returns `true` if
    /// the callback broke out.
    #[inline(always)]
    fn walk_from<C, F, const MIRRORED: bool>(
        &self,
        pos: u32,
        center: &C,
        eps_sq: f32,
        stats: &mut QueryStats,
        callback: &mut F,
    ) -> bool
    where
        C: QueryCenter<D>,
        F: FnMut(u32, u32, bool) -> ControlFlow<()>,
    {
        let ropes = if MIRRORED { &self.leaf_lskip } else { &self.leaf_skip };
        self.rope_walk::<C, F, MIRRORED>(ropes[pos as usize], 0, center, eps_sq, stats, callback)
    }

    /// The rope loop every walk shares: from `node` until the ropes run
    /// out, tests each node against `center` and fires the callback on
    /// every hit. Forward, it descends left children and follows the
    /// ropes (preorder); `MIRRORED`, it descends right children and
    /// follows the mirrored ropes (right-child-first preorder). Subtrees
    /// wholly below `cutoff` are skipped untested. Returns `true` if the
    /// callback broke out.
    #[inline(always)]
    fn rope_walk<C, F, const MIRRORED: bool>(
        &self,
        mut node: NodeRef,
        cutoff: u32,
        center: &C,
        eps_sq: f32,
        stats: &mut QueryStats,
        callback: &mut F,
    ) -> bool
    where
        C: QueryCenter<D>,
        F: FnMut(u32, u32, bool) -> ControlFlow<()>,
    {
        let (leaf_ropes, internal_ropes, down) = if MIRRORED {
            (&self.leaf_lskip, &self.internal_lskip, 1)
        } else {
            (&self.leaf_skip, &self.internal_skip, 0)
        };
        while node != NodeRef::NONE {
            if node.is_leaf() {
                let pos = node.index();
                // Index mask: skipped leaves are not visits.
                if pos >= cutoff {
                    stats.nodes_visited += 1;
                    if self.leaf_within(pos, center, eps_sq) {
                        stats.leaf_hits += 1;
                        if callback(pos, self.leaf_payload[pos as usize], false).is_break() {
                            stats.terminated_early = true;
                            return true;
                        }
                    }
                }
                node = leaf_ropes[pos as usize];
            } else {
                let i = node.index() as usize;
                // Index mask: subtrees entirely below the cutoff are
                // skipped without counting a visit.
                if cutoff > 0 && self.ranges[i][1] < cutoff {
                    node = internal_ropes[i];
                    continue;
                }
                stats.nodes_visited += 1;
                let b = &self.internal_bounds[i];
                if b.dist_sq(center) > eps_sq {
                    node = internal_ropes[i]; // subtree rejected
                } else if b.max_dist_sq(center) <= eps_sq {
                    // Subtree contained: accept every (unmasked) leaf in
                    // its range without visiting or testing it.
                    let [first, last] = self.ranges[i];
                    if self.emit_range(first, last, cutoff, stats, callback) {
                        return true;
                    }
                    node = internal_ropes[i];
                } else {
                    node = self.children[i][down]; // descend
                }
            }
        }
        false
    }

    /// Containment fast path: fires the callback for every leaf in the
    /// sorted range `[first, last]` at or above `cutoff`. Returns `true`
    /// if the callback broke out.
    fn emit_range<F>(
        &self,
        first: u32,
        last: u32,
        cutoff: u32,
        stats: &mut QueryStats,
        callback: &mut F,
    ) -> bool
    where
        F: FnMut(u32, u32, bool) -> ControlFlow<()>,
    {
        for pos in first.max(cutoff)..=last {
            stats.leaf_hits += 1;
            stats.contained_hits += 1;
            if callback(pos, self.leaf_payload[pos as usize], true).is_break() {
                stats.terminated_early = true;
                return true;
            }
        }
        false
    }

    /// Exact leaf bounds test against the SoA corner lanes, with
    /// per-dimension early exit. The per-axis gaps and their accumulation
    /// order match [`fdbscan_geom::Aabb::dist_sq`] exactly (and `f32`
    /// addition of non-negatives is monotone), so the accept/reject
    /// decision is bit-identical to the array-of-structures test.
    #[inline]
    fn leaf_within<C: QueryCenter<D>>(&self, pos: u32, center: &C, eps_sq: f32) -> bool {
        let i = pos as usize;
        let mut acc = 0.0f32;
        for d in 0..D {
            let delta = center.gap(d, self.leaf_lo.dim(d)[i], self.leaf_hi.dim(d)[i]);
            acc += delta * delta;
            if acc > eps_sq {
                return false;
            }
        }
        true
    }

    /// The pre-rope stack-based traversal, kept as the differential
    /// reference for the stackless implementation (tests only).
    #[cfg(test)]
    pub(crate) fn for_each_in_radius_stack<F>(
        &self,
        center: &Point<D>,
        eps: f32,
        cutoff: u32,
        mut callback: F,
    ) -> QueryStats
    where
        F: FnMut(u32, u32) -> ControlFlow<()>,
    {
        // Depth bound: each descent strictly increases the common-prefix
        // length of the covered range, and prefixes of the augmented
        // codes (64 code bits + 32 index bits) are at most 96 bits long.
        const STACK_DEPTH: usize = 128;
        let mut stats = QueryStats::default();
        let n = self.len();
        if n == 0 {
            return stats;
        }
        let eps_sq = eps * eps;

        if n == 1 {
            stats.nodes_visited = 1;
            if cutoff == 0 && self.leaf_bounds[0].dist_sq(center) <= eps_sq {
                stats.leaf_hits = 1;
                if callback(0, self.leaf_payload[0]).is_break() {
                    stats.terminated_early = true;
                }
            }
            return stats;
        }

        stats.nodes_visited = 1;
        if self.ranges[0][1] < cutoff || self.internal_bounds[0].dist_sq(center) > eps_sq {
            return stats;
        }

        let mut stack = [NodeRef::internal(0); STACK_DEPTH];
        let mut top = 1usize;
        while top > 0 {
            top -= 1;
            let node = stack[top];
            let i = node.index() as usize;
            for child in self.children[i] {
                if child.is_leaf() {
                    if child.index() < cutoff {
                        continue;
                    }
                } else if self.ranges[child.index() as usize][1] < cutoff {
                    continue;
                }
                stats.nodes_visited += 1;
                let child_bounds = if child.is_leaf() {
                    &self.leaf_bounds[child.index() as usize]
                } else {
                    &self.internal_bounds[child.index() as usize]
                };
                if child_bounds.dist_sq(center) > eps_sq {
                    continue;
                }
                if child.is_leaf() {
                    let pos = child.index();
                    stats.leaf_hits += 1;
                    if callback(pos, self.leaf_payload[pos as usize]).is_break() {
                        stats.terminated_early = true;
                        return stats;
                    }
                } else {
                    debug_assert!(top < STACK_DEPTH, "traversal stack overflow");
                    stack[top] = child;
                    top += 1;
                }
            }
        }
        stats
    }

    /// Collects the payloads of all leaves within `eps` of `center`
    /// (unmasked). Convenience for tests and examples.
    pub fn collect_in_radius(&self, center: &Point<D>, eps: f32) -> Vec<u32> {
        let mut out = Vec::new();
        self.for_each_in_radius(center, eps, 0, |_, payload| {
            out.push(payload);
            ControlFlow::Continue(())
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdbscan_device::{Device, DeviceConfig};
    use fdbscan_geom::Aabb;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn build_points(device: &Device, points: &[Point<2>]) -> Bvh<2> {
        let bounds: Vec<Aabb<2>> = points.iter().map(|p| Aabb::from_point(*p)).collect();
        Bvh::build(device, &bounds)
    }

    #[test]
    fn charge_books_traversal_work() {
        let counters = Counters::default();
        let stats =
            QueryStats { nodes_visited: 7, leaf_hits: 5, contained_hits: 2, ..Default::default() };
        stats.charge(&counters);
        let c = counters.snapshot();
        assert_eq!((c.bvh_nodes_visited, c.distance_computations), (7, 3));
    }

    fn brute_force(points: &[Point<2>], center: &Point<2>, eps: f32) -> Vec<u32> {
        let eps_sq = eps * eps;
        let mut out: Vec<u32> = points
            .iter()
            .enumerate()
            .filter(|(_, p)| p.dist_sq(center) <= eps_sq)
            .map(|(i, _)| i as u32)
            .collect();
        out.sort_unstable();
        out
    }

    fn random_points(n: usize, seed: u64) -> Vec<Point<2>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| Point::new([rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)])).collect()
    }

    #[test]
    fn query_empty_tree() {
        let device = Device::with_defaults();
        let bvh = build_points(&device, &[]);
        assert!(bvh.collect_in_radius(&Point::new([0.0, 0.0]), 10.0).is_empty());
    }

    #[test]
    fn query_single_leaf() {
        let device = Device::with_defaults();
        let bvh = build_points(&device, &[Point::new([1.0, 1.0])]);
        assert_eq!(bvh.collect_in_radius(&Point::new([1.0, 1.5]), 1.0), vec![0]);
        assert!(bvh.collect_in_radius(&Point::new([5.0, 5.0]), 1.0).is_empty());
    }

    #[test]
    fn radius_boundary_is_inclusive() {
        let device = Device::with_defaults();
        let bvh = build_points(&device, &[Point::new([0.0, 0.0]), Point::new([3.0, 4.0])]);
        // dist((0,0), (3,4)) == 5 exactly.
        let hits = bvh.collect_in_radius(&Point::new([0.0, 0.0]), 5.0);
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn matches_brute_force_random() {
        let device = Device::new(DeviceConfig::default().with_workers(3));
        let points = random_points(3000, 17);
        let bvh = build_points(&device, &points);
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..50 {
            let center = Point::new([rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)]);
            let eps = rng.gen_range(0.1..20.0);
            let mut got = bvh.collect_in_radius(&center, eps);
            got.sort_unstable();
            assert_eq!(got, brute_force(&points, &center, eps));
        }
    }

    #[test]
    fn masked_query_yields_higher_positions_only() {
        let device = Device::new(DeviceConfig::default().with_workers(2));
        let points = random_points(2000, 3);
        let bvh = build_points(&device, &points);
        let eps = 8.0;
        for id in [0u32, 10, 500, 1999] {
            let pos = bvh.leaf_pos_of(id);
            let mut masked = Vec::new();
            bvh.for_each_in_radius(&points[id as usize], eps, pos + 1, |leaf_pos, payload| {
                assert!(leaf_pos > pos, "mask violated");
                masked.push(payload);
                ControlFlow::Continue(())
            });
            // The masked result must be exactly the unmasked neighbors
            // whose sorted position exceeds this point's.
            let mut expected: Vec<u32> = brute_force(&points, &points[id as usize], eps)
                .into_iter()
                .filter(|&other| bvh.leaf_pos_of(other) > pos)
                .collect();
            expected.sort_unstable();
            masked.sort_unstable();
            assert_eq!(masked, expected);
        }
    }

    #[test]
    fn masked_pairs_cover_every_pair_exactly_once() {
        // Union over all i of masked-query(i) must be the full set of
        // unordered close pairs, without duplicates — the guarantee the
        // FDBSCAN main phase relies on.
        let device = Device::with_defaults();
        let points = random_points(300, 8);
        let bvh = build_points(&device, &points);
        let eps = 10.0;
        let mut pairs = std::collections::HashSet::new();
        for id in 0..points.len() as u32 {
            let pos = bvh.leaf_pos_of(id);
            bvh.for_each_in_radius(&points[id as usize], eps, pos + 1, |_, other| {
                let key = (id.min(other), id.max(other));
                assert!(pairs.insert(key), "pair {key:?} reported twice");
                ControlFlow::Continue(())
            });
        }
        let mut expected = std::collections::HashSet::new();
        for a in 0..points.len() {
            for b in (a + 1)..points.len() {
                if points[a].dist_sq(&points[b]) <= eps * eps {
                    expected.insert((a as u32, b as u32));
                }
            }
        }
        assert_eq!(pairs, expected);
    }

    #[test]
    fn early_termination_stops_traversal() {
        let device = Device::with_defaults();
        let points = vec![Point::new([0.0, 0.0]); 100];
        let bvh = build_points(&device, &points);
        let mut count = 0;
        let stats = bvh.for_each_in_radius(&Point::new([0.0, 0.0]), 1.0, 0, |_, _| {
            count += 1;
            if count >= 5 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        assert_eq!(count, 5);
        assert!(stats.terminated_early);
        assert_eq!(stats.leaf_hits, 5);
    }

    #[test]
    fn stats_count_visits() {
        let device = Device::with_defaults();
        let points = random_points(1000, 4);
        let bvh = build_points(&device, &points);
        let stats = bvh.for_each_in_radius(&Point::new([50.0, 50.0]), 5.0, 0, |_, _| {
            ControlFlow::Continue(())
        });
        assert!(stats.nodes_visited >= 1);
        // A masked query from the same center visits no more nodes.
        let masked = bvh.for_each_in_radius(&Point::new([50.0, 50.0]), 5.0, 500, |_, _| {
            ControlFlow::Continue(())
        });
        assert!(masked.nodes_visited <= stats.nodes_visited);
    }

    #[test]
    fn full_mask_visits_nothing_but_root() {
        let device = Device::with_defaults();
        let points = random_points(100, 6);
        let bvh = build_points(&device, &points);
        let stats = bvh.for_each_in_radius(
            &Point::new([50.0, 50.0]),
            1000.0,
            points.len() as u32, // every leaf is masked
            |_, _| ControlFlow::Continue(()),
        );
        assert_eq!(stats.leaf_hits, 0);
        assert_eq!(stats.nodes_visited, 1);
    }

    #[test]
    fn query_on_box_leaves_reports_candidates() {
        let device = Device::with_defaults();
        let bounds = vec![
            Aabb::from_corners(Point::new([0.0, 0.0]), Point::new([1.0, 1.0])),
            Aabb::from_corners(Point::new([10.0, 10.0]), Point::new([11.0, 11.0])),
            Aabb::from_point(Point::new([2.5, 0.5])),
        ];
        let bvh = Bvh::build(&device, &bounds);
        // A ball near the first box and the isolated point, far from the
        // second box.
        let mut hits = bvh.collect_in_radius(&Point::new([2.0, 0.5]), 1.1);
        hits.sort_unstable();
        assert_eq!(hits, vec![0, 2]);
    }

    /// Runs the same query through the stackless traversal and the
    /// stack-based reference and checks:
    /// * identical hit sets (position and payload),
    /// * identical callback counts,
    /// * the rope walk never visits more nodes than the stack walk.
    fn assert_matches_stack_reference(bvh: &Bvh<2>, center: &Point<2>, eps: f32, cutoff: u32) {
        let mut rope_hits = Vec::new();
        let rope = bvh.for_each_in_radius(center, eps, cutoff, |pos, payload| {
            rope_hits.push((pos, payload));
            ControlFlow::Continue(())
        });
        let mut stack_hits = Vec::new();
        let stack = bvh.for_each_in_radius_stack(center, eps, cutoff, |pos, payload| {
            stack_hits.push((pos, payload));
            ControlFlow::Continue(())
        });
        rope_hits.sort_unstable();
        stack_hits.sort_unstable();
        assert_eq!(rope_hits, stack_hits, "hit sets diverge (eps {eps}, cutoff {cutoff})");
        assert_eq!(rope.leaf_hits, stack.leaf_hits, "callback counts diverge");
        assert!(
            rope.nodes_visited <= stack.nodes_visited,
            "rope walk visited {} nodes, stack reference only {}",
            rope.nodes_visited,
            stack.nodes_visited
        );
        assert_eq!(rope.distance_tests() + rope.contained_hits, rope.leaf_hits);
    }

    #[test]
    fn stackless_matches_stack_on_single_point_tree() {
        let device = Device::with_defaults();
        let bvh = build_points(&device, &[Point::new([2.0, 3.0])]);
        for center in [[2.0, 3.5], [50.0, 50.0]] {
            for cutoff in [0u32, 1] {
                assert_matches_stack_reference(&bvh, &Point::new(center), 1.0, cutoff);
            }
        }
    }

    #[test]
    fn stackless_matches_stack_all_points_identical() {
        let device = Device::with_defaults();
        let points = vec![Point::new([5.0, 5.0]); 256];
        let bvh = build_points(&device, &points);
        for eps in [1e-6f32, 0.5, 100.0] {
            for cutoff in [0u32, 1, 100, 256] {
                assert_matches_stack_reference(&bvh, &Point::new([5.0, 5.0]), eps, cutoff);
            }
        }
        // The identical-point blob is fully contained for any eps: all
        // hits must come from the containment fast path, free of
        // per-leaf distance tests.
        let stats = bvh
            .for_each_in_radius(&Point::new([5.0, 5.0]), 0.5, 0, |_, _| ControlFlow::Continue(()));
        assert_eq!(stats.leaf_hits, 256);
        assert_eq!(stats.contained_hits, 256);
        assert_eq!(stats.distance_tests(), 0);
    }

    #[test]
    fn stackless_matches_stack_eps_larger_than_domain() {
        let device = Device::with_defaults();
        let points = random_points(500, 11);
        let bvh = build_points(&device, &points);
        // The domain is 100 x 100; a radius of 10^4 contains everything.
        let center = Point::new([50.0, 50.0]);
        for cutoff in [0u32, 250] {
            assert_matches_stack_reference(&bvh, &center, 1e4, cutoff);
        }
        let stats = bvh.for_each_in_radius(&center, 1e4, 0, |_, _| ControlFlow::Continue(()));
        assert_eq!(stats.leaf_hits, 500);
        assert_eq!(stats.contained_hits, 500, "whole-domain query must be containment-only");
        assert_eq!(stats.nodes_visited, 1, "root containment needs no descent");
    }

    #[test]
    fn stackless_matches_stack_empty_results() {
        let device = Device::with_defaults();
        let points = random_points(300, 13);
        let bvh = build_points(&device, &points);
        let far = Point::new([5000.0, -5000.0]);
        for cutoff in [0u32, 150] {
            assert_matches_stack_reference(&bvh, &far, 1.0, cutoff);
        }
        let stats = bvh.for_each_in_radius(&far, 1.0, 0, |_, _| ControlFlow::Continue(()));
        assert_eq!(stats.leaf_hits, 0);
        assert_eq!(stats.nodes_visited, 1, "root rejection must end the walk");
    }

    #[test]
    fn containment_reduces_distance_tests_on_dense_blob() {
        let device = Device::with_defaults();
        // A tight blob plus scattered points: querying from inside the
        // blob with a generous radius must accept whole subtrees.
        let mut points = vec![];
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..400 {
            points.push(Point::new([
                50.0 + rng.gen_range(-1.0..1.0),
                50.0 + rng.gen_range(-1.0..1.0),
            ]));
        }
        points.extend(random_points(100, 22));
        let bvh = build_points(&device, &points);
        let stats = bvh.for_each_in_radius(&Point::new([50.0, 50.0]), 10.0, 0, |_, _| {
            ControlFlow::Continue(())
        });
        assert!(stats.contained_hits > 0, "expected containment hits");
        assert!(stats.distance_tests() < stats.leaf_hits);
        assert_matches_stack_reference(&bvh, &Point::new([50.0, 50.0]), 10.0, 0);
    }

    /// Every `(pos, payload, contained)` callback of one flagged query, in
    /// traversal order, and its statistics.
    fn flagged_hits<C: QueryCenter<2>>(
        bvh: &Bvh<2>,
        center: &C,
        eps: f32,
        cutoff: u32,
    ) -> (Vec<(u32, u32, bool)>, QueryStats) {
        let mut hits = Vec::new();
        let stats =
            bvh.for_each_in_radius_flagged(center, eps, cutoff, |pos, payload, contained| {
                hits.push((pos, payload, contained));
                ControlFlow::Continue(())
            });
        (hits, stats)
    }

    /// Checks the leaf-anchored walks of leaf `pos` against the root walk:
    /// * `for_each_after` reports the masked root walk's exact sequence
    ///   from `center` (the leaf's own primitive) and from `elsewhere`,
    /// * `for_each_before` reports the unmasked root walk's hits below
    ///   `pos`, each once, from both centres,
    /// * `for_each_around` reports its own leaf first and the unmasked
    ///   root walk's hits, each once,
    /// * a callback that breaks after `k` hits stops after exactly
    ///   `min(k, |N|)` in every walk.
    fn assert_anchored_walks_match<const D: usize, C, E>(
        bvh: &Bvh<D>,
        pos: u32,
        center: &C,
        elsewhere: &E,
        eps: f32,
        k: usize,
    ) where
        C: QueryCenter<D>,
        E: QueryCenter<D>,
    {
        let push = |hits: &mut Vec<(u32, u32)>, leaf: u32, payload: u32| {
            hits.push((leaf, payload));
            ControlFlow::Continue(())
        };
        let (mut masked, mut after) = (Vec::new(), Vec::new());
        bvh.for_each_in_radius(center, eps, pos + 1, |l, p| push(&mut masked, l, p));
        bvh.for_each_after(pos, center, eps, |l, p, _| push(&mut after, l, p));
        assert_eq!(after, masked, "for_each_after({pos}) from its own centre");
        let (mut masked_elsewhere, mut after_elsewhere) = (Vec::new(), Vec::new());
        bvh.for_each_in_radius(elsewhere, eps, pos + 1, |l, p| push(&mut masked_elsewhere, l, p));
        bvh.for_each_after(pos, elsewhere, eps, |l, p, _| push(&mut after_elsewhere, l, p));
        assert_eq!(after_elsewhere, masked_elsewhere, "for_each_after({pos}) from elsewhere");

        let (mut prefix, mut before) = (Vec::new(), Vec::new());
        bvh.for_each_in_radius(center, eps, 0, |l, p| push(&mut prefix, l, p));
        bvh.for_each_before(pos, center, eps, |l, p, _| push(&mut before, l, p));
        let (mut prefix_elsewhere, mut before_elsewhere) = (Vec::new(), Vec::new());
        bvh.for_each_in_radius(elsewhere, eps, 0, |l, p| push(&mut prefix_elsewhere, l, p));
        bvh.for_each_before(pos, elsewhere, eps, |l, p, _| push(&mut before_elsewhere, l, p));
        for (name, expected, got) in [
            ("its own centre", &mut prefix, &mut before),
            ("elsewhere", &mut prefix_elsewhere, &mut before_elsewhere),
        ] {
            expected.retain(|&(l, _)| l < pos);
            expected.sort_unstable();
            got.sort_unstable();
            assert_eq!(got, expected, "for_each_before({pos}) from {name}");
        }

        let (mut all, mut around) = (Vec::new(), Vec::new());
        bvh.for_each_in_radius(center, eps, 0, |l, p| push(&mut all, l, p));
        bvh.for_each_around(pos, center, eps, |l, p, _| push(&mut around, l, p));
        assert_eq!(around[0].0, pos, "for_each_around reports its own leaf first");
        all.sort_unstable();
        around.sort_unstable();
        assert_eq!(around, all, "for_each_around({pos}) hit set");

        let walks = [("after", masked.len()), ("before", prefix.len()), ("around", all.len())];
        for (walk, total) in walks {
            let mut hits = 0usize;
            let stop = |_, _, _| {
                hits += 1;
                if hits >= k {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            };
            let stats = match walk {
                "after" => bvh.for_each_after(pos, center, eps, stop),
                "before" => bvh.for_each_before(pos, center, eps, stop),
                _ => bvh.for_each_around(pos, center, eps, stop),
            };
            assert_eq!(hits, k.min(total), "{walk}({pos}) breaking after {k} of {total}");
            assert_eq!(stats.leaf_hits as usize, hits);
            assert_eq!(stats.terminated_early, k <= total);
        }
    }

    fn random_points_3d(n: usize, seed: u64) -> Vec<Point<3>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                Point::new([
                    rng.gen_range(0.0..10.0),
                    rng.gen_range(0.0..10.0),
                    rng.gen_range(0.0..10.0),
                ])
            })
            .collect()
    }

    #[test]
    fn anchored_walks_test_fewer_nodes_than_root_walks() {
        // The halo-3d regime: uniform 3-D points at an eps with a few
        // neighbours each, so ancestors are tested and seldom contained.
        // Summed over every leaf, the suffix walk saves the masked root
        // walk's ancestor tests, and the outward count saves the unmasked
        // root walk's, with and without an early exit.
        let device = Device::new(DeviceConfig::sequential());
        let bounds: Vec<Aabb<3>> =
            random_points_3d(4000, 5).into_iter().map(Aabb::from_point).collect();
        let bvh = Bvh::build(&device, &bounds);
        let eps = 0.7;
        let (mut root_masked, mut after, mut hits) = (0u64, 0u64, 0u64);
        let (mut root_all, mut around) = (0u64, 0u64);
        let (mut root_count, mut around_count) = (0u64, 0u64);
        for pos in 0..bvh.len() as u32 {
            let center = bvh.leaf_bounds(pos).min;
            let go = |_, _| ControlFlow::Continue(());
            let masked = bvh.for_each_in_radius(&center, eps, pos + 1, go);
            root_masked += masked.nodes_visited;
            hits += masked.leaf_hits;
            after += bvh
                .for_each_after(pos, &center, eps, |_, _, _| ControlFlow::Continue(()))
                .nodes_visited;
            root_all += bvh.for_each_in_radius(&center, eps, 0, go).nodes_visited;
            around += bvh
                .for_each_around(pos, &center, eps, |_, _, _| ControlFlow::Continue(()))
                .nodes_visited;
            let stop_at = |minpts: usize| {
                let mut count = 0;
                move || {
                    count += 1;
                    if count >= minpts {
                        ControlFlow::Break(())
                    } else {
                        ControlFlow::Continue(())
                    }
                }
            };
            let mut stop = stop_at(5);
            root_count += bvh.for_each_in_radius(&center, eps, 0, |_, _| stop()).nodes_visited;
            let mut stop = stop_at(5);
            around_count += bvh.for_each_around(pos, &center, eps, |_, _, _| stop()).nodes_visited;
        }
        assert!(hits > 4000, "too few pairs ({hits}) for the regime");
        assert!(after < root_masked, "suffix walk {after} >= masked root walk {root_masked}");
        assert!(around < root_all, "outward walk {around} >= root walk {root_all}");
        assert!(
            around_count < root_count,
            "outward count {around_count} >= root count {root_count}"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn stackless_matches_stack_reference(
            seed in any::<u64>(),
            n in 1usize..500,
            eps in 0.01f32..150.0,
            cutoff_frac in 0.0f64..1.2,
            cx in -20.0f32..120.0,
            cy in -20.0f32..120.0,
        ) {
            let device = Device::new(DeviceConfig::sequential());
            let points = random_points(n, seed);
            let bvh = build_points(&device, &points);
            let cutoff = ((n as f64) * cutoff_frac) as u32;
            assert_matches_stack_reference(&bvh, &Point::new([cx, cy]), eps, cutoff);
        }

        #[test]
        fn traversal_equals_brute_force(
            seed in any::<u64>(),
            n in 1usize..400,
            eps in 0.01f32..40.0,
            cx in 0.0f32..100.0,
            cy in 0.0f32..100.0,
        ) {
            let device = Device::new(DeviceConfig::sequential());
            let points = random_points(n, seed);
            let bvh = build_points(&device, &points);
            let center = Point::new([cx, cy]);
            let mut got = bvh.collect_in_radius(&center, eps);
            got.sort_unstable();
            prop_assert_eq!(got, brute_force(&points, &center, eps));
        }

        #[test]
        fn masked_traversal_equals_filtered_brute_force(
            seed in any::<u64>(),
            n in 2usize..300,
            eps in 0.01f32..30.0,
            query in 0usize..300,
        ) {
            let query = query % n;
            let device = Device::new(DeviceConfig::sequential());
            let points = random_points(n, seed);
            let bvh = build_points(&device, &points);
            let pos = bvh.leaf_pos_of(query as u32);
            let mut got = Vec::new();
            bvh.for_each_in_radius(&points[query], eps, pos + 1, |_, payload| {
                got.push(payload);
                ControlFlow::Continue(())
            });
            got.sort_unstable();
            let mut expected: Vec<u32> = brute_force(&points, &points[query], eps)
                .into_iter()
                .filter(|&other| bvh.leaf_pos_of(other) > pos)
                .collect();
            expected.sort_unstable();
            prop_assert_eq!(got, expected);
        }

        #[test]
        fn masked_box_query_equals_filtered_brute_force(
            seed in any::<u64>(),
            n in 2usize..300,
            eps in 0.01f32..30.0,
            cutoff_frac in 0.0f64..1.0,
            corner in (0.0f32..100.0, 0.0f32..100.0),
            size in (0.0f32..20.0, 0.0f32..20.0),
        ) {
            let device = Device::new(DeviceConfig::sequential());
            let points = random_points(n, seed);
            let bvh = build_points(&device, &points);
            let cutoff = ((n as f64) * cutoff_frac) as u32;
            let query = Aabb::from_corners(
                Point::new([corner.0, corner.1]),
                Point::new([corner.0 + size.0, corner.1 + size.1]),
            );
            let eps_sq = eps * eps;
            let (mut got, _) = flagged_hits(&bvh, &query, eps, cutoff);
            got.sort_unstable();
            // Exactly the unmasked leaves whose squared gap to the query
            // box is within eps², measured from the point's side.
            let hits: Vec<u32> = got.iter().map(|&(pos, _, _)| pos).collect();
            let expected: Vec<u32> = (cutoff..n as u32)
                .filter(|&pos| query.dist_sq(&points[bvh.leaf_payload(pos) as usize]) <= eps_sq)
                .collect();
            prop_assert_eq!(hits, expected);
            // A contained hit lies within eps of every point of the box.
            for &(_, payload, contained) in &got {
                if contained {
                    prop_assert!(query.max_dist_sq(&points[payload as usize]) <= eps_sq);
                }
            }
        }

        #[test]
        fn degenerate_box_query_equals_point_query(
            seed in any::<u64>(),
            n in 1usize..300,
            eps in 0.01f32..40.0,
            cutoff_frac in 0.0f64..1.0,
            cx in -20.0f32..120.0,
            cy in -20.0f32..120.0,
        ) {
            let device = Device::new(DeviceConfig::sequential());
            let points = random_points(n, seed);
            let bvh = build_points(&device, &points);
            let cutoff = ((n as f64) * cutoff_frac) as u32;
            let center = Point::new([cx, cy]);
            prop_assert_eq!(
                flagged_hits(&bvh, &center, eps, cutoff),
                flagged_hits(&bvh, &Aabb::from_point(center), eps, cutoff)
            );
        }

        #[test]
        fn anchored_walks_match_root_walks_2d(
            seed in any::<u64>(),
            n in 1usize..300,
            eps in 0.01f32..30.0,
            query in 0usize..300,
            k in 1usize..40,
            elsewhere in (-20.0f32..120.0, -20.0f32..120.0),
        ) {
            let device = Device::new(DeviceConfig::sequential());
            let bvh = build_points(&device, &random_points(n, seed));
            let pos = (query % n) as u32;
            let center = bvh.leaf_bounds(pos).min;
            let elsewhere = Point::new([elsewhere.0, elsewhere.1]);
            assert_anchored_walks_match(&bvh, pos, &center, &elsewhere, eps, k);
        }

        #[test]
        fn anchored_walks_match_root_walks_3d(
            seed in any::<u64>(),
            n in 1usize..300,
            eps in 0.01f32..4.0,
            query in 0usize..300,
            k in 1usize..40,
            elsewhere in (-2.0f32..12.0, -2.0f32..12.0, -2.0f32..12.0),
        ) {
            let device = Device::new(DeviceConfig::sequential());
            let bounds: Vec<Aabb<3>> =
                random_points_3d(n, seed).into_iter().map(Aabb::from_point).collect();
            let bvh = Bvh::build(&device, &bounds);
            let pos = (query % n) as u32;
            let center = bvh.leaf_bounds(pos).min;
            let elsewhere = Point::new([elsewhere.0, elsewhere.1, elsewhere.2]);
            assert_anchored_walks_match(&bvh, pos, &center, &elsewhere, eps, k);
        }

        #[test]
        fn anchored_walks_match_root_walks_on_mixed_trees(
            seed in any::<u64>(),
            n in 1usize..200,
            eps in 0.01f32..20.0,
            query in 0usize..200,
            k in 1usize..40,
            corner in (-20.0f32..120.0, -20.0f32..120.0),
        ) {
            // Point leaves and box leaves, each queried with its own box
            // as the centre (a dense cell's query in FDBSCAN-DenseBox).
            let device = Device::new(DeviceConfig::sequential());
            let mut rng = StdRng::seed_from_u64(seed);
            let bounds: Vec<Aabb<2>> = random_points(n, seed)
                .into_iter()
                .map(|p| {
                    if rng.gen_range(0.0f32..1.0) < 0.3 {
                        let far = Point::new([
                            p[0] + rng.gen_range(0.0..8.0),
                            p[1] + rng.gen_range(0.0..8.0),
                        ]);
                        Aabb::from_corners(p, far)
                    } else {
                        Aabb::from_point(p)
                    }
                })
                .collect();
            let bvh = Bvh::build(&device, &bounds);
            let pos = (query % n) as u32;
            let center = *bvh.leaf_bounds(pos);
            let elsewhere = Aabb::from_corners(
                Point::new([corner.0, corner.1]),
                Point::new([corner.0 + 3.0, corner.1 + 1.0]),
            );
            assert_anchored_walks_match(&bvh, pos, &center, &elsewhere, eps, k);
        }
    }
}
