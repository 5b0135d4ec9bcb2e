#![warn(missing_docs)]

//! k-d tree search index.
//!
//! The paper's §4.1 notes that "while any tree can be used, BVH has been
//! shown to be very efficient for low-dimensional data on GPUs", and
//! §4.2 adds that mixing dense boxes into a k-d tree "would pose more
//! challenges". This crate provides the k-d tree so those claims can be
//! measured (the `ablations` bench compares FDBSCAN over both indexes).
//!
//! Construction is a host-side recursive median split (the very
//! GPU-unfriendliness the paper alludes to); queries expose the same
//! batched interface as the BVH — callback, early termination, and the
//! index-masked traversal — because the median-split layout stores each
//! subtree contiguously, so "hide all leaves with position < cutoff"
//! prunes subtrees exactly like the BVH range mask does.
//!
//! # Example
//!
//! ```
//! use fdbscan_geom::Point2;
//! use fdbscan_kdtree::KdTree;
//!
//! let points = vec![
//!     Point2::new([0.0, 0.0]),
//!     Point2::new([0.3, 0.0]),
//!     Point2::new([7.0, 7.0]),
//! ];
//! let tree = KdTree::build(&points);
//! let mut hits = tree.collect_in_radius(&Point2::new([0.1, 0.0]), 0.5);
//! hits.sort_unstable();
//! assert_eq!(hits, vec![0, 1]);
//! ```

use std::ops::ControlFlow;

use fdbscan_geom::Point;

/// Leaf bucket size: below this, nodes scan points linearly.
const LEAF_SIZE: usize = 8;

/// Per-query traversal statistics (mirrors the BVH's).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KdQueryStats {
    /// Tree nodes visited.
    pub nodes_visited: u64,
    /// Points whose exact distance was computed.
    pub points_tested: u64,
}

#[derive(Clone, Debug)]
enum Node {
    /// Internal node: split plane and child node indices.
    Internal { axis: u8, split: f32, left: u32, right: u32, end: u32 },
    /// Leaf: a contiguous range of the permuted point array.
    Leaf { begin: u32, end: u32 },
}

/// A k-d tree over a point set, with the same query surface as the BVH.
#[derive(Clone, Debug)]
pub struct KdTree<const D: usize> {
    nodes: Vec<Node>,
    root: u32,
    /// Points permuted into tree order (each subtree contiguous).
    points: Vec<Point<D>>,
    /// `payload[pos]` = original index of the point at tree position `pos`.
    payload: Vec<u32>,
}

impl<const D: usize> KdTree<D> {
    /// Builds the tree (host-side median splits).
    pub fn build(input: &[Point<D>]) -> Self {
        let n = input.len();
        let mut order: Vec<u32> = (0..n as u32).collect();
        let mut nodes = Vec::new();
        let root = if n == 0 { 0 } else { build_recursive(input, &mut order, 0, &mut nodes) };
        let points: Vec<Point<D>> = order.iter().map(|&i| input[i as usize]).collect();
        Self { nodes, root, points, payload: order }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Original index of the point at tree position `pos`.
    #[inline]
    pub fn leaf_payload(&self, pos: u32) -> u32 {
        self.payload[pos as usize]
    }

    /// Approximate memory footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.nodes.len() * std::mem::size_of::<Node>()
            + self.points.len() * (std::mem::size_of::<Point<D>>() + 4)
    }

    /// Invokes `callback(tree_pos, original_id)` for every point within
    /// `eps` of `center` whose tree position is `>= cutoff`. The callback
    /// may return `Break` to end this query early.
    pub fn for_each_in_radius<F>(
        &self,
        center: &Point<D>,
        eps: f32,
        cutoff: u32,
        mut callback: F,
    ) -> KdQueryStats
    where
        F: FnMut(u32, u32) -> ControlFlow<()>,
    {
        let mut stats = KdQueryStats::default();
        if self.points.is_empty() {
            return stats;
        }
        let eps_sq = eps * eps;
        let mut stack: Vec<u32> = Vec::with_capacity(64);
        stack.push(self.root);
        while let Some(node) = stack.pop() {
            stats.nodes_visited += 1;
            match &self.nodes[node as usize] {
                Node::Leaf { begin, end } => {
                    let begin = (*begin).max(cutoff);
                    for pos in begin..*end {
                        stats.points_tested += 1;
                        if self.points[pos as usize].dist_sq(center) <= eps_sq
                            && callback(pos, self.payload[pos as usize]).is_break()
                        {
                            return stats;
                        }
                    }
                }
                Node::Internal { axis, split, left, right, end } => {
                    if *end <= cutoff {
                        continue; // whole subtree masked
                    }
                    let delta = center[*axis as usize] - split;
                    // Always search the near side; the far side only if
                    // the ball crosses the plane.
                    let (near, far) = if delta <= 0.0 { (*left, *right) } else { (*right, *left) };
                    if delta * delta <= eps_sq {
                        stack.push(far);
                    }
                    stack.push(near);
                }
            }
        }
        stats
    }

    /// Collects original ids of all points within `eps` (unmasked).
    pub fn collect_in_radius(&self, center: &Point<D>, eps: f32) -> Vec<u32> {
        let mut out = Vec::new();
        self.for_each_in_radius(center, eps, 0, |_, id| {
            out.push(id);
            ControlFlow::Continue(())
        });
        out
    }
}

/// Recursively builds the subtree over `order[lo..]`; returns node index.
fn build_recursive<const D: usize>(
    input: &[Point<D>],
    order: &mut [u32],
    offset: u32,
    nodes: &mut Vec<Node>,
) -> u32 {
    let n = order.len();
    if n <= LEAF_SIZE {
        nodes.push(Node::Leaf { begin: offset, end: offset + n as u32 });
        return (nodes.len() - 1) as u32;
    }
    // Widest axis of the bounding box of this subset.
    let mut min = [f32::INFINITY; D];
    let mut max = [f32::NEG_INFINITY; D];
    for &i in order.iter() {
        let p = &input[i as usize];
        for d in 0..D {
            min[d] = min[d].min(p[d]);
            max[d] = max[d].max(p[d]);
        }
    }
    let axis = (0..D)
        .max_by(|&a, &b| (max[a] - min[a]).partial_cmp(&(max[b] - min[b])).unwrap())
        .unwrap_or(0);
    let mid = n / 2;
    order.select_nth_unstable_by(mid, |&a, &b| {
        input[a as usize][axis]
            .partial_cmp(&input[b as usize][axis])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let split = input[order[mid] as usize][axis];
    let (left_half, right_half) = order.split_at_mut(mid);
    let left = build_recursive(input, left_half, offset, nodes);
    let right = build_recursive(input, right_half, offset + mid as u32, nodes);
    nodes.push(Node::Internal { axis: axis as u8, split, left, right, end: offset + n as u32 });
    (nodes.len() - 1) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdbscan_geom::Point2;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn random_points(n: usize, seed: u64) -> Vec<Point2> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point2::new([rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)]))
            .collect()
    }

    fn brute_force(points: &[Point2], center: &Point2, eps: f32) -> Vec<u32> {
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

    #[test]
    fn empty_tree() {
        let tree = KdTree::<2>::build(&[]);
        assert!(tree.is_empty());
        assert!(tree.collect_in_radius(&Point2::new([0.0, 0.0]), 10.0).is_empty());
    }

    #[test]
    fn payload_is_permutation() {
        let points = random_points(500, 1);
        let tree = KdTree::build(&points);
        let mut ids: Vec<u32> = (0..500).map(|pos| tree.leaf_payload(pos)).collect();
        ids.sort_unstable();
        assert!(ids.iter().enumerate().all(|(i, &id)| id == i as u32));
    }

    #[test]
    fn query_matches_brute_force() {
        let points = random_points(2000, 2);
        let tree = KdTree::build(&points);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..40 {
            let center = Point2::new([rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)]);
            let eps = rng.gen_range(0.5..20.0);
            let mut got = tree.collect_in_radius(&center, eps);
            got.sort_unstable();
            assert_eq!(got, brute_force(&points, &center, eps));
        }
    }

    #[test]
    fn masked_query_covers_each_pair_once() {
        let points = random_points(300, 4);
        let tree = KdTree::build(&points);
        let eps = 10.0;
        let mut pairs = std::collections::HashSet::new();
        for pos in 0..points.len() as u32 {
            let id = tree.leaf_payload(pos);
            tree.for_each_in_radius(&points[id as usize], eps, pos + 1, |_, other| {
                let key = (id.min(other), id.max(other));
                assert!(pairs.insert(key), "pair {key:?} seen twice");
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
    fn early_termination() {
        let points = vec![Point2::new([0.0, 0.0]); 100];
        let tree = KdTree::build(&points);
        let mut count = 0;
        tree.for_each_in_radius(&Point2::new([0.0, 0.0]), 1.0, 0, |_, _| {
            count += 1;
            if count >= 7 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        assert_eq!(count, 7);
    }

    #[test]
    fn duplicates_and_collinear() {
        let mut points = vec![Point2::new([5.0, 5.0]); 50];
        points.extend((0..50).map(|i| Point2::new([i as f32, 0.0])));
        let tree = KdTree::build(&points);
        let hits = tree.collect_in_radius(&Point2::new([5.0, 5.0]), 0.1);
        assert_eq!(hits.len(), 50);
        let hits = tree.collect_in_radius(&Point2::new([25.0, 0.0]), 2.0);
        assert_eq!(hits.len(), 5); // 23, 24, 25, 26, 27
    }

    #[test]
    fn pruning_reduces_visits() {
        let points = random_points(4000, 9);
        let tree = KdTree::build(&points);
        let small = tree.for_each_in_radius(&Point2::new([50.0, 50.0]), 0.5, 0, |_, _| {
            ControlFlow::Continue(())
        });
        let large = tree.for_each_in_radius(&Point2::new([50.0, 50.0]), 80.0, 0, |_, _| {
            ControlFlow::Continue(())
        });
        assert!(small.nodes_visited < large.nodes_visited);
        assert!(small.points_tested < points.len() as u64 / 4, "no pruning happened");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn kd_query_equals_brute_force(
            seed in any::<u64>(),
            n in 1usize..400,
            eps in 0.1f32..40.0,
            cx in 0.0f32..100.0,
            cy in 0.0f32..100.0,
        ) {
            let points = random_points(n, seed);
            let tree = KdTree::build(&points);
            let center = Point2::new([cx, cy]);
            let mut got = tree.collect_in_radius(&center, eps);
            got.sort_unstable();
            prop_assert_eq!(got, brute_force(&points, &center, eps));
        }

        #[test]
        fn kd_masked_equals_filtered_brute_force(
            seed in any::<u64>(),
            n in 2usize..300,
            eps in 0.1f32..30.0,
            query in 0usize..300,
        ) {
            let query = query % n;
            let points = random_points(n, seed);
            let tree = KdTree::build(&points);
            let mut pos_of = vec![0u32; n];
            for pos in 0..n as u32 {
                pos_of[tree.leaf_payload(pos) as usize] = pos;
            }
            let pos = pos_of[query];
            let mut got = Vec::new();
            tree.for_each_in_radius(&points[query], eps, pos + 1, |_, id| {
                got.push(id);
                ControlFlow::Continue(())
            });
            got.sort_unstable();
            let mut expected: Vec<u32> = brute_force(&points, &points[query], eps)
                .into_iter()
                .filter(|&other| pos_of[other as usize] > pos)
                .collect();
            expected.sort_unstable();
            prop_assert_eq!(got, expected);
        }
    }
}
