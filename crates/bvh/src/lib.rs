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
//! The hierarchy is built from arbitrary bounding boxes, which is what
//! lets FDBSCAN-DenseBox mix isolated points and dense-cell boxes in one
//! tree (paper §4.2, Fig. 2 right).
//!
//! # Structure
//!
//! For `n` leaves the tree has exactly `n - 1` internal nodes; internal
//! node `i` covers the contiguous sorted-leaf range `[first(i), last(i)]`
//! — the property the masked traversal exploits. Leaves appear in Morton
//! order of their box centers; `leaf_payload` maps a sorted position back
//! to the caller's primitive id and `leaf_pos_of` is the inverse. Each
//! leaf's bounds are stored once, as an [`fdbscan_geom::Aabb`] in sorted
//! order, and the leaf test reads them there. Every node carries two
//! ropes: the next node in preorder after its subtree, and the next node
//! in right-child-first preorder (the mirrored rope).
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

pub use node::{NodeRef, LEAF_FLAG};
pub use traverse::QueryStats;

use fdbscan_geom::Aabb;

/// A linear bounding volume hierarchy over `n` boxed primitives.
///
/// A built tree is a checkpointable phase output (`Clone + Hash`): an
/// index phase restored from a checkpoint clones it, ropes included,
/// instead of rebuilding.
#[derive(Debug, Clone, Hash)]
pub struct Bvh<const D: usize> {
    /// Bounds of internal node `i` (len `n - 1`, empty when `n < 2`).
    pub(crate) internal_bounds: Vec<Aabb<D>>,
    /// Children of internal node `i` (leaf refs flagged; see [`NodeRef`]).
    pub(crate) children: Vec<[NodeRef; 2]>,
    /// Sorted-leaf range `[first, last]` covered by internal node `i`.
    pub(crate) ranges: Vec<[u32; 2]>,
    /// Leaf bounds in sorted (Morton) order.
    pub(crate) leaf_bounds: Vec<Aabb<D>>,
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

impl<const D: usize> Bvh<D> {
    /// Number of leaves.
    pub fn len(&self) -> usize {
        self.leaf_bounds.len()
    }

    /// Whether the tree has no leaves.
    pub fn is_empty(&self) -> bool {
        self.leaf_bounds.is_empty()
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

    /// Bounds of the sorted leaf at `pos`.
    #[inline]
    pub fn leaf_bounds(&self, pos: u32) -> &Aabb<D> {
        &self.leaf_bounds[pos as usize]
    }

    /// Approximate device-memory footprint of the hierarchy in bytes:
    /// [`Bvh::bytes_for`] its leaf count.
    pub fn memory_bytes(&self) -> usize {
        Self::bytes_for(self.len())
    }

    /// Device bytes of a tree over `leaves` leaves: per leaf its bounds,
    /// payload, position and two ropes; per internal node its bounds,
    /// children, range and two ropes.
    pub fn bytes_for(leaves: usize) -> usize {
        use std::mem::size_of;
        let rope = size_of::<NodeRef>();
        let leaf = size_of::<Aabb<D>>() + 2 * size_of::<u32>() + 2 * rope;
        let internal = size_of::<Aabb<D>>() + size_of::<[NodeRef; 2]>() + size_of::<[u32; 2]>();
        leaves * leaf + leaves.saturating_sub(1) * (internal + 2 * rope)
    }

    /// Device bytes a build over `leaves` leaves checks out of the
    /// device's buffer arena, which stay held there after it: the sorted
    /// codes, the sort's scratch, and per internal node an arrival flag
    /// and two rendezvous slots.
    pub fn build_scratch_bytes(leaves: usize) -> usize {
        let internal = leaves.saturating_sub(1);
        leaves * 8 + fdbscan_psort::fused_scratch_bytes(leaves) + internal * 3 * 4
    }
}

#[cfg(test)]
mod tests {
    use fdbscan_device::{Device, DeviceConfig, PipelineCheckpoint};
    use fdbscan_geom::{Aabb, Point};

    use super::*;

    fn hash(bvh: &Bvh<2>) -> u64 {
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
        let zero = bvh.leaf_bounds.iter().position(|b| b.min.coords[0] == 0.0).unwrap();
        let changed = |what: &str, change: &dyn Fn(&mut Bvh<2>)| {
            let mut tree = bvh.clone();
            change(&mut tree);
            assert_ne!(hash(&tree), base, "{what}");
        };
        changed("leaf bound one ulp", &|t| ulp(&mut t.leaf_bounds[3].max.coords[1]));
        changed("leaf bound -0.0", &|t| t.leaf_bounds[zero].min.coords[0] = -0.0);
        changed("internal bound one ulp", &|t| ulp(&mut t.internal_bounds[0].min.coords[0]));
        changed("one payload", &|t| t.leaf_payload.swap(0, 1));
        changed("one child", &|t| t.children[0].swap(0, 1));
        changed("one rope", &|t| t.leaf_skip[0] = NodeRef::NONE);
    }
}
