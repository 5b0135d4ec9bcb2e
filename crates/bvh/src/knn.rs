//! k-nearest-neighbor queries.
//!
//! Not used by the clustering kernels themselves, but part of the
//! library surface a DBSCAN user needs: the classic way to choose `eps`
//! is the sorted k-distance plot (Ester et al. 1996, §4.2), which needs
//! batched kNN over the same tree.

use fdbscan_geom::Point;

use crate::node::{leaf_dist_sq, Leaf, NodeRef};
use crate::Bvh;

/// A max-heap of the k best candidates, kept as a binary heap over
/// `(dist_sq, payload)` with the *worst* candidate on top.
struct KBest {
    k: usize,
    heap: Vec<(f32, u32)>,
}

impl KBest {
    fn new(k: usize) -> Self {
        Self { k, heap: Vec::with_capacity(k) }
    }

    /// Current pruning bound: the worst kept distance once full.
    #[inline]
    fn bound(&self) -> f32 {
        if self.heap.len() < self.k {
            f32::INFINITY
        } else {
            self.heap[0].0
        }
    }

    fn push(&mut self, dist_sq: f32, payload: u32) {
        if self.heap.len() < self.k {
            self.heap.push((dist_sq, payload));
            // Sift up.
            let mut i = self.heap.len() - 1;
            while i > 0 {
                let parent = (i - 1) / 2;
                if self.heap[parent].0 < self.heap[i].0 {
                    self.heap.swap(parent, i);
                    i = parent;
                } else {
                    break;
                }
            }
        } else if dist_sq < self.heap[0].0 {
            self.heap[0] = (dist_sq, payload);
            // Sift down.
            let mut i = 0;
            loop {
                let left = 2 * i + 1;
                let right = 2 * i + 2;
                let mut largest = i;
                if left < self.heap.len() && self.heap[left].0 > self.heap[largest].0 {
                    largest = left;
                }
                if right < self.heap.len() && self.heap[right].0 > self.heap[largest].0 {
                    largest = right;
                }
                if largest == i {
                    break;
                }
                self.heap.swap(i, largest);
                i = largest;
            }
        }
    }

    fn into_sorted(self) -> Vec<(f32, u32)> {
        let mut v = self.heap;
        v.sort_unstable_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        v
    }
}

impl<const D: usize, L: Leaf<D>> Bvh<D, L> {
    /// Returns the `k` nearest primitives to `center` as
    /// `(squared distance, payload)`, ascending. Fewer than `k` entries
    /// are returned when the tree is smaller than `k`.
    ///
    /// A point that coincides with a leaf is its own nearest neighbor
    /// (distance 0) — consistent with `|N_eps(x)|` including `x`.
    pub fn k_nearest(&self, center: &Point<D>, k: usize) -> Vec<(f32, u32)> {
        if k == 0 || self.is_empty() {
            return Vec::new();
        }
        let mut best = KBest::new(k);
        let n = self.len();
        if n == 1 {
            best.push(leaf_dist_sq(&self.leaves[0], center), self.leaf_payload[0]);
            return best.into_sorted();
        }
        // Depth-first with nearest-child-first ordering; prune against
        // the current k-th best distance.
        let mut stack: Vec<(f32, NodeRef)> = Vec::with_capacity(64);
        stack.push((self.internal_bounds[0].dist_sq(center), NodeRef::internal(0)));
        while let Some((dist, node)) = stack.pop() {
            if dist > best.bound() {
                continue;
            }
            if node.is_leaf() {
                let pos = node.index() as usize;
                best.push(dist, self.leaf_payload[pos]);
                continue;
            }
            let dist_of = |child: NodeRef| {
                if child.is_leaf() {
                    leaf_dist_sq(&self.leaves[child.index() as usize], center)
                } else {
                    self.internal_bounds[child.index() as usize].dist_sq(center)
                }
            };
            let [l, r] = self.children[node.index() as usize];
            let (dl, dr) = (dist_of(l), dist_of(r));
            // Push the farther child first so the nearer is popped first.
            let (near, far) = if dl <= dr { ((dl, l), (dr, r)) } else { ((dr, r), (dl, l)) };
            for (d, child) in [far, near] {
                if d <= best.bound() {
                    stack.push((d, child));
                }
            }
        }
        best.into_sorted()
    }

    /// Distance to the k-th nearest primitive (the "k-dist" of the eps
    /// selection heuristic). Returns `None` when the tree holds fewer
    /// than `k` primitives.
    pub fn kth_distance(&self, center: &Point<D>, k: usize) -> Option<f32> {
        let best = self.k_nearest(center, k);
        if best.len() < k {
            None
        } else {
            Some(best[k - 1].0.sqrt())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdbscan_device::Device;
    use fdbscan_geom::{Aabb, Point2};
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn build(points: &[Point2]) -> Bvh<2> {
        let device = Device::with_defaults();
        let bounds: Vec<Aabb<2>> = points.iter().map(|p| Aabb::from_point(*p)).collect();
        Bvh::build(&device, &bounds)
    }

    fn brute_knn(points: &[Point2], center: &Point2, k: usize) -> Vec<(f32, u32)> {
        let mut all: Vec<(f32, u32)> =
            points.iter().enumerate().map(|(i, p)| (p.dist_sq(center), i as u32)).collect();
        all.sort_unstable_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        all.truncate(k);
        all
    }

    fn random_points(n: usize, seed: u64) -> Vec<Point2> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| Point2::new([rng.gen_range(0.0..50.0), rng.gen_range(0.0..50.0)])).collect()
    }

    #[test]
    fn knn_empty_and_k0() {
        let bvh = build(&[]);
        assert!(bvh.k_nearest(&Point2::new([0.0, 0.0]), 3).is_empty());
        let bvh = build(&[Point2::new([1.0, 1.0])]);
        assert!(bvh.k_nearest(&Point2::new([0.0, 0.0]), 0).is_empty());
    }

    #[test]
    fn knn_fewer_points_than_k() {
        let points = random_points(3, 1);
        let bvh = build(&points);
        let got = bvh.k_nearest(&Point2::new([0.0, 0.0]), 10);
        assert_eq!(got.len(), 3);
        assert!(bvh.kth_distance(&Point2::new([0.0, 0.0]), 10).is_none());
    }

    #[test]
    fn knn_matches_brute_force_distances() {
        let points = random_points(2000, 2);
        let bvh = build(&points);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..30 {
            let center = Point2::new([rng.gen_range(0.0..50.0), rng.gen_range(0.0..50.0)]);
            for k in [1usize, 5, 32] {
                let got = bvh.k_nearest(&center, k);
                let expected = brute_knn(&points, &center, k);
                // Distances must match exactly (payloads may tie-swap).
                let got_d: Vec<f32> = got.iter().map(|e| e.0).collect();
                let expected_d: Vec<f32> = expected.iter().map(|e| e.0).collect();
                assert_eq!(got_d, expected_d);
            }
        }
    }

    #[test]
    fn self_query_returns_zero_distance() {
        let points = random_points(100, 4);
        let bvh = build(&points);
        let got = bvh.k_nearest(&points[17], 1);
        assert_eq!(got[0].0, 0.0);
    }

    #[test]
    fn kth_distance_is_consistent_with_radius_count() {
        let points = random_points(500, 5);
        let bvh = build(&points);
        let center = points[0];
        let k = 10;
        let radius = bvh.kth_distance(&center, k).unwrap();
        // At least k primitives lie within the k-th distance.
        let hits = bvh.collect_in_radius(&center, radius);
        assert!(hits.len() >= k, "only {} hits within kth distance", hits.len());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20))]
        #[test]
        fn knn_distances_always_match_brute_force(
            seed in any::<u64>(),
            n in 1usize..300,
            k in 1usize..20,
            cx in 0.0f32..50.0,
            cy in 0.0f32..50.0,
        ) {
            let points = random_points(n, seed);
            let bvh = build(&points);
            let center = Point2::new([cx, cy]);
            let got: Vec<f32> = bvh.k_nearest(&center, k).iter().map(|e| e.0).collect();
            let expected: Vec<f32> =
                brute_knn(&points, &center, k).iter().map(|e| e.0).collect();
            prop_assert_eq!(got, expected);
        }
    }
}
