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
//! to the caller's primitive id and `leaf_pos_of` is the inverse.
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
pub mod snapshot;
pub mod traverse;

pub use node::{NodeRef, LEAF_FLAG};
pub use traverse::QueryStats;

use fdbscan_geom::{Aabb, SoaPoints};

/// A linear bounding volume hierarchy over `n` boxed primitives.
#[derive(Debug, Clone)]
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
    /// Lower leaf corners, dimension-major (`dim(d)[pos]`): the
    /// coalescing-friendly layout the per-leaf distance test strides.
    pub(crate) leaf_lo: SoaPoints<D>,
    /// Upper leaf corners, dimension-major.
    pub(crate) leaf_hi: SoaPoints<D>,
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

    /// Approximate device-memory footprint of the hierarchy in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.internal_bounds.len() * std::mem::size_of::<Aabb<D>>()
            + self.children.len() * std::mem::size_of::<[NodeRef; 2]>()
            + self.ranges.len() * std::mem::size_of::<[u32; 2]>()
            + self.leaf_bounds.len() * std::mem::size_of::<Aabb<D>>()
            + self.leaf_payload.len() * std::mem::size_of::<u32>()
            + self.positions.len() * std::mem::size_of::<u32>()
            + self.internal_skip.len() * std::mem::size_of::<NodeRef>()
            + self.leaf_skip.len() * std::mem::size_of::<NodeRef>()
            + self.leaf_lo.memory_bytes()
            + self.leaf_hi.memory_bytes()
    }
}
