//! Abstraction over search indexes.
//!
//! The paper's §4.1 observes that the framework works with *any* tree
//! ("while any tree can be used, BVH has been shown to be very efficient
//! for low-dimensional data"). [`SpatialIndex`] captures exactly the
//! three capabilities FDBSCAN needs — batched radius queries with
//! callbacks, early termination, and the index mask — so the algorithm
//! can run over the BVH (default) or the k-d tree (`fdbscan-kdtree`)
//! and the choice can be measured (the `ablations` bench).

use std::ops::ControlFlow;

use fdbscan_bvh::Bvh;
use fdbscan_device::Counters;
use fdbscan_geom::{Aabb, Point};
use fdbscan_kdtree::KdTree;

/// Work performed by one radius query.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Tree nodes visited.
    pub nodes_visited: u64,
    /// Exact point-distance tests performed.
    pub distance_tests: u64,
}

impl IndexStats {
    /// Charges this query's work to the device counters: node visits
    /// and distance tests.
    #[inline]
    pub fn charge(&self, counters: &Counters) {
        counters.add_nodes_visited(self.nodes_visited);
        counters.add_distances(self.distance_tests);
    }
}

/// A search index over a point set, as required by the FDBSCAN framework.
///
/// Every indexed point has an index position in `0..size()`, its place in
/// the tree's traversal order. Contract: `query_radius` invokes the
/// callback **exactly once per point within `eps` of `center`** whose
/// index position is `>= cutoff`, passing `(index_position,
/// original_id)`. The callback may return `Break` to stop this query.
pub trait SpatialIndex<const D: usize>: Sync {
    /// Number of indexed points.
    fn size(&self) -> usize;

    /// Original id of the point at index position `pos`.
    ///
    /// Contract: a bijection from `0..size()` onto the point ids
    /// `0..size()`. Per-point kernels launch in position order: launch
    /// index `pos` runs the query of point `id_at(pos)` and masks it with
    /// cutoff `pos + 1`, so each close pair is seen once and consecutive
    /// launches walk neighbouring parts of the tree.
    fn id_at(&self, pos: u32) -> u32;

    /// Radius query; see the trait-level contract.
    fn query_radius(
        &self,
        center: &Point<D>,
        eps: f32,
        cutoff: u32,
        callback: &mut dyn FnMut(u32, u32) -> ControlFlow<()>,
    ) -> IndexStats;

    /// Approximate device-memory footprint in bytes.
    fn memory_bytes(&self) -> usize;
}

/// A point-only BVH (leaves are degenerate boxes), so every leaf-bounds
/// hit is an exact within-eps point.
impl<const D: usize> SpatialIndex<D> for Bvh<D> {
    fn size(&self) -> usize {
        self.len()
    }

    fn id_at(&self, pos: u32) -> u32 {
        self.leaf_payload(pos)
    }

    fn query_radius(
        &self,
        center: &Point<D>,
        eps: f32,
        cutoff: u32,
        callback: &mut dyn FnMut(u32, u32) -> ControlFlow<()>,
    ) -> IndexStats {
        let stats = self.for_each_in_radius(center, eps, cutoff, callback);
        IndexStats { nodes_visited: stats.nodes_visited, distance_tests: stats.distance_tests() }
    }

    fn memory_bytes(&self) -> usize {
        self.memory_bytes()
    }
}

impl<const D: usize> SpatialIndex<D> for KdTree<D> {
    fn size(&self) -> usize {
        self.len()
    }

    fn id_at(&self, pos: u32) -> u32 {
        self.leaf_payload(pos)
    }

    fn query_radius(
        &self,
        center: &Point<D>,
        eps: f32,
        cutoff: u32,
        callback: &mut dyn FnMut(u32, u32) -> ControlFlow<()>,
    ) -> IndexStats {
        let stats = self.for_each_in_radius(center, eps, cutoff, callback);
        IndexStats { nodes_visited: stats.nodes_visited, distance_tests: stats.points_tested }
    }

    fn memory_bytes(&self) -> usize {
        self.memory_bytes()
    }
}

/// Builds a point-only BVH index (the paper's default).
pub fn build_bvh_index<const D: usize>(
    device: &fdbscan_device::Device,
    points: &[Point<D>],
) -> Bvh<D> {
    let bounds: Vec<Aabb<D>> = points.iter().map(|p| Aabb::from_point(*p)).collect();
    Bvh::build(device, &bounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdbscan_device::Device;
    use fdbscan_geom::Point2;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn random_points(n: usize, seed: u64) -> Vec<Point2> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| Point2::new([rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0)])).collect()
    }

    fn collect<I: SpatialIndex<2>>(index: &I, center: &Point2, eps: f32, cutoff: u32) -> Vec<u32> {
        let mut out = Vec::new();
        index.query_radius(center, eps, cutoff, &mut |_, id| {
            out.push(id);
            ControlFlow::Continue(())
        });
        out.sort_unstable();
        out
    }

    #[test]
    fn bvh_and_kdtree_agree_through_the_trait() {
        let device = Device::with_defaults();
        let points = random_points(800, 5);
        let bvh = build_bvh_index(&device, &points);
        let kd = KdTree::build(&points);
        assert_eq!(SpatialIndex::<2>::size(&bvh), kd.size());
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..20 {
            let center = Point2::new([rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0)]);
            let eps = rng.gen_range(0.05..2.0);
            assert_eq!(collect(&bvh, &center, eps, 0), collect(&kd, &center, eps, 0));
        }
    }

    #[test]
    fn positions_are_bijective_for_both() {
        let device = Device::with_defaults();
        let points = random_points(300, 7);
        let bvh = build_bvh_index(&device, &points);
        let kd = KdTree::build(&points);
        let mut bvh_ids: Vec<u32> =
            (0..300).map(|pos| SpatialIndex::<2>::id_at(&bvh, pos)).collect();
        bvh_ids.sort_unstable();
        assert!(bvh_ids.iter().enumerate().all(|(i, &id)| id == i as u32));
        let mut kd_ids: Vec<u32> = (0..300).map(|pos| kd.id_at(pos)).collect();
        kd_ids.sort_unstable();
        assert!(kd_ids.iter().enumerate().all(|(i, &id)| id == i as u32));
    }

    #[test]
    fn stats_are_populated() {
        let device = Device::with_defaults();
        let points = random_points(500, 8);
        let bvh = build_bvh_index(&device, &points);
        let stats = bvh.query_radius(&points[0], 1.0, 0, &mut |_, _| ControlFlow::Continue(()));
        assert!(stats.nodes_visited > 0);
        assert!(stats.distance_tests > 0); // at least itself
    }
}
