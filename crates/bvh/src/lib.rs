#![warn(missing_docs)]

//! Linear bounding volume hierarchy (LBVH) with batched radius queries.
//!
//! This crate is the reproduction's stand-in for ArborX (paper §5): a BVH
//! built with Karras' fully parallel construction (Maximizing Parallelism
//! in the Construction of BVHs, Octrees, and K-d Trees, HPG 2012 — the
//! paper's reference \[23\]) and traversed in a batched mode with the three
//! features the paper's algorithms need:
//!
//! * **callbacks** — a user closure runs on every positive match, used to
//!   fuse neighbor search with the union-find main phase,
//! * **early termination** — the closure can stop its query's traversal,
//!   used by the preprocessing phase to stop counting at `minpts`,
//! * **index-masked traversal** (paper Fig. 1) — subtrees whose sorted
//!   leaf indices all fall below a per-query cutoff are skipped, so each
//!   close pair is discovered exactly once in the main phase.
//!
//! A query issued *from* a leaf — every self-query of the DBSCAN
//! kernels — starts at that leaf instead of the root:
//! [`Bvh::for_each_after`] walks only the preorder suffix after it (the
//! masked search, with no ancestor tested and no mask test), and
//! [`Bvh::for_each_around`] walks the suffix and then the prefix through
//! mirrored ropes, nearest subtrees first (the core count).
//!
//! The hierarchy is built over points or over arbitrary bounding boxes
//! (the [`Leaf`] type): box leaves are what let FDBSCAN-DenseBox mix
//! isolated points and dense-cell boxes in one tree (paper §4.2, Fig. 2
//! right).
//!
//! # Structure
//!
//! For `n` leaves the tree has exactly `n - 1` internal nodes; internal
//! node `i` covers the contiguous sorted-leaf range `[first(i), last(i)]`
//! — the property the masked traversal exploits. Leaves appear in Morton
//! order of their centres; `leaf_payload` maps a sorted position back to
//! the caller's primitive id and `leaf_pos_of` is the inverse. Each leaf
//! is stored once, in sorted order, and the leaf test reads it there: a
//! point tree (`Bvh<D, Point<D>>`) keeps its points in tree order, one
//! [`fdbscan_geom::Point`] per leaf, and a box tree (`Bvh<D>`, the
//! default) one [`fdbscan_geom::Aabb`] per leaf. Internal nodes always
//! store boxes. Every node carries two ropes: the next node in preorder
//! after its subtree, and the next node in right-child-first preorder
//! (the mirrored rope).
//!
//! # Example
//!
//! ```
//! use std::ops::ControlFlow;
//! use fdbscan_bvh::Bvh;
//! use fdbscan_device::Device;
//! use fdbscan_geom::{Aabb, Point2};
//!
//! let device = Device::with_defaults();
//! let points = [
//!     Point2::new([0.0, 0.0]),
//!     Point2::new([0.5, 0.0]),
//!     Point2::new([9.0, 9.0]),
//! ];
//! let bounds: Vec<Aabb<2>> = points.iter().map(|p| Aabb::from_point(*p)).collect();
//! let bvh = Bvh::build(&device, &bounds);
//!
//! // Radius query with a callback; early termination via Break.
//! let mut hits = bvh.collect_in_radius(&Point2::new([0.1, 0.0]), 1.0);
//! hits.sort_unstable();
//! assert_eq!(hits, vec![0, 1]);
//!
//! // k nearest neighbors (squared distances, ascending).
//! let nearest = bvh.k_nearest(&Point2::new([0.1, 0.0]), 2);
//! assert_eq!(nearest[0].1, 0);
//! assert_eq!(nearest[1].1, 1);
//! # let _ = ControlFlow::Continue::<(), ()>(());
//! ```

pub mod build;
pub mod knn;
pub mod node;
pub mod traverse;

pub use node::{Leaf, NodeRef, LEAF_FLAG};
pub use traverse::QueryStats;

use fdbscan_geom::Aabb;

/// A linear bounding volume hierarchy over `n` primitives of leaf type
/// `L`: boxes by default, or points ([`Leaf`]).
///
/// A built tree is a checkpointable phase output (`Clone + Hash`): an
/// index phase restored from a checkpoint clones it, ropes included,
/// instead of rebuilding.
#[derive(Debug, Clone, Hash)]
pub struct Bvh<const D: usize, L = Aabb<D>> {
    /// Bounds of internal node `i` (len `n - 1`, empty when `n < 2`).
    pub(crate) internal_bounds: Vec<Aabb<D>>,
    /// Children of internal node `i` (leaf refs flagged; see [`NodeRef`]).
    pub(crate) children: Vec<[NodeRef; 2]>,
    /// Sorted-leaf range `[first, last]` covered by internal node `i`.
    pub(crate) ranges: Vec<[u32; 2]>,
    /// Leaves in sorted (Morton) order.
    pub(crate) leaves: Vec<L>,
    /// `leaf_payload[pos]` = caller primitive id of sorted leaf `pos`.
    pub(crate) leaf_payload: Vec<u32>,
    /// Inverse of `leaf_payload`: sorted position of primitive id.
    pub(crate) positions: Vec<u32>,
    /// Rope of internal node `i`: the next node in preorder *after* `i`'s
    /// subtree ([`NodeRef::NONE`] past the end). Following the rope is
    /// "skip this subtree"; the stackless traversal replaces every stack
    /// pop with one rope load.
    pub(crate) internal_skip: Vec<NodeRef>,
    /// Rope of sorted leaf `pos` (a leaf's subtree is itself).
    pub(crate) leaf_skip: Vec<NodeRef>,
    /// Mirrored rope of internal node `i`: the next node in
    /// *right-child-first* preorder after `i`'s subtree — the subtree
    /// ending right before `i`'s range. A walk that descends right
    /// children and follows these visits the leaves before a position,
    /// nearest first.
    pub(crate) internal_lskip: Vec<NodeRef>,
    /// Mirrored rope of sorted leaf `pos`.
    pub(crate) leaf_lskip: Vec<NodeRef>,
    /// Bounds of the whole scene.
    pub(crate) scene: Aabb<D>,
}

impl<const D: usize, L: Leaf<D>> Bvh<D, L> {
    /// Number of leaves.
    pub fn len(&self) -> usize {
        self.leaves.len()
    }

    /// Whether the tree has no leaves.
    pub fn is_empty(&self) -> bool {
        self.leaves.is_empty()
    }

    /// Bounds of the whole scene (union of all leaf bounds).
    pub fn scene_bounds(&self) -> Aabb<D> {
        self.scene
    }

    /// Caller primitive id stored at sorted leaf position `pos`.
    #[inline]
    pub fn leaf_payload(&self, pos: u32) -> u32 {
        self.leaf_payload[pos as usize]
    }

    /// Sorted leaf position of caller primitive `id` (inverse of
    /// [`Bvh::leaf_payload`]).
    #[inline]
    pub fn leaf_pos_of(&self, id: u32) -> u32 {
        self.positions[id as usize]
    }

    /// The sorted leaf at `pos`: its point, or its box.
    #[inline]
    pub fn leaf(&self, pos: u32) -> &L {
        &self.leaves[pos as usize]
    }

    /// Approximate device-memory footprint of the hierarchy in bytes:
    /// [`Bvh::bytes_for`] its leaf count.
    pub fn memory_bytes(&self) -> usize {
        Self::bytes_for(self.len())
    }

    /// Device bytes of a tree over `leaves` leaves: per leaf its point or
    /// box, payload, position and two ropes; per internal node its
    /// bounds, children, range and two ropes.
    pub fn bytes_for(leaves: usize) -> usize {
        use std::mem::size_of;
        let rope = size_of::<NodeRef>();
        let leaf = size_of::<L>() + 2 * size_of::<u32>() + 2 * rope;
        let internal = size_of::<Aabb<D>>() + size_of::<[NodeRef; 2]>() + size_of::<[u32; 2]>();
        leaves * leaf + leaves.saturating_sub(1) * (internal + 2 * rope)
    }

    /// Peak device bytes a build over `leaves` leaves holds in scratch
    /// from the device's buffer arena, all released when it returns: the
    /// sort's scratch, then the sorted codes the sort returns next to one
    /// `u64` rendezvous word per leaf.
    pub fn build_scratch_bytes(leaves: usize) -> usize {
        let sort = fdbscan_psort::fused_scratch_bytes(leaves);
        match leaves {
            0 | 1 => sort,
            n => sort.max(2 * n * std::mem::size_of::<u64>()),
        }
    }
}

#[cfg(test)]
mod tests {
    use fdbscan_device::{Checkpointable, Device, DeviceConfig, PipelineCheckpoint};
    use fdbscan_geom::{Aabb, Point};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    use super::*;

    fn hash(bvh: &impl Checkpointable) -> u64 {
        let mut ckpt = PipelineCheckpoint::new("fdbscan");
        ckpt.record("index", bvh);
        ckpt.phase_hash("index").unwrap()
    }

    fn ulp(x: &mut f32) {
        *x = f32::from_bits(x.to_bits() + 1);
    }

    #[test]
    fn phase_hash_sees_every_tree_value() {
        // A lattice with the origin in it: some leaf bound holds a 0.0.
        let bounds: Vec<Aabb<2>> = (0..40)
            .map(|i| Aabb::from_point(Point::new([(i % 8) as f32 * 0.5, (i / 8) as f32 * 0.5])))
            .collect();
        let build = || Bvh::build(&Device::new(DeviceConfig::sequential()), &bounds);
        let bvh = build();
        let base = hash(&bvh);
        assert_eq!(hash(&build()), base, "equal trees hash equal");
        let zero = bvh.leaves.iter().position(|b| b.min.coords[0] == 0.0).unwrap();
        let changed = |what: &str, change: &dyn Fn(&mut Bvh<2>)| {
            let mut tree = bvh.clone();
            change(&mut tree);
            assert_ne!(hash(&tree), base, "{what}");
        };
        changed("leaf bound one ulp", &|t| ulp(&mut t.leaves[3].max.coords[1]));
        changed("leaf bound -0.0", &|t| t.leaves[zero].min.coords[0] = -0.0);
        changed("internal bound one ulp", &|t| ulp(&mut t.internal_bounds[0].min.coords[0]));
        changed("one payload", &|t| t.leaf_payload.swap(0, 1));
        changed("one child", &|t| t.children[0].swap(0, 1));
        changed("one rope", &|t| t.leaf_skip[0] = NodeRef::NONE);

        // A point tree hashes its points by bit pattern.
        let points: Vec<Point<2>> = bounds.iter().map(|b| b.min).collect();
        let tree = Bvh::build(&Device::new(DeviceConfig::sequential()), &points);
        let mut moved = tree.clone();
        ulp(&mut moved.leaves[3].coords[0]);
        assert_ne!(hash(&moved), hash(&tree), "leaf point one ulp");
    }

    #[test]
    fn build_scratch_bytes_is_the_build_peak() {
        // Both leaf kinds, below, at and above the sort's sequential
        // threshold: one build on a fresh device peaks at exactly the
        // predicted scratch and leaves nothing reserved.
        fn check<const D: usize, L: Leaf<D>>(leaves: &[L]) {
            let n = leaves.len();
            let device = Device::new(DeviceConfig::sequential());
            Bvh::build_in(&device, leaves).unwrap();
            assert_eq!(device.memory().peak(), Bvh::<D, L>::build_scratch_bytes(n), "{n}");
            assert_eq!(device.memory().in_use(), 0, "{n}");
        }
        let mut rng = StdRng::seed_from_u64(6);
        for n in [1, 2, 500, 1023, 1024, 2000] {
            let points: Vec<Point<2>> = (0..n)
                .map(|_| Point::new([rng.gen_range(0.0..5.0), rng.gen_range(0.0..5.0)]))
                .collect();
            check(&points);
            let boxes: Vec<Aabb<2>> = points
                .iter()
                .map(|p| Aabb::from_corners(*p, Point::new([p[0] + 0.1, p[1]])))
                .collect();
            check(&boxes);
        }
    }
}
