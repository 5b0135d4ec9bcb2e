//! Compact node references, and the primitives leaves store.

use fdbscan_geom::{Aabb, Point, QueryCenter};

/// High bit of a [`NodeRef`] marks a leaf.
pub const LEAF_FLAG: u32 = 1 << 31;

/// A reference to either an internal node or a leaf, packed in 32 bits.
///
/// Internal nodes are indexed `0..n-1`; leaves `0..n` with the high bit
/// set. 31 bits of index bound the tree to 2³¹ primitives, matching the
/// `u32` label arrays used everywhere else.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(transparent)]
pub struct NodeRef(pub u32);

impl NodeRef {
    /// The "no node" sentinel used by the rope (skip-link) traversal:
    /// following a rope off the end of the preorder sequence lands here.
    pub const NONE: NodeRef = NodeRef(u32::MAX);

    /// Creates a reference to internal node `i`.
    #[inline]
    pub fn internal(i: u32) -> Self {
        debug_assert!(i & LEAF_FLAG == 0);
        Self(i)
    }

    /// Creates a reference to sorted leaf `pos`.
    #[inline]
    pub fn leaf(pos: u32) -> Self {
        debug_assert!(pos & LEAF_FLAG == 0);
        Self(pos | LEAF_FLAG)
    }

    /// Whether this references a leaf.
    #[inline]
    pub fn is_leaf(self) -> bool {
        self.0 & LEAF_FLAG != 0
    }

    /// The node or leaf index (flag stripped).
    #[inline]
    pub fn index(self) -> u32 {
        self.0 & !LEAF_FLAG
    }
}

/// A primitive a [`crate::Bvh`] stores in its leaves, in tree order: a
/// point (every point tree) or a box (DenseBox's dense cells).
///
/// Along each axis a leaf spans `[lo, hi]`, which the leaf test reads;
/// its [`Leaf::center`] places it on the Morton curve, and its
/// [`Leaf::bounds`] is what internal nodes merge. A leaf is also a query
/// centre: a walk from a leaf is centred on the leaf itself.
pub trait Leaf<const D: usize>: QueryCenter<D> + Copy + Default + Send + Sync + 'static {
    /// Lower end of the leaf along `axis`.
    fn lo(&self, axis: usize) -> f32;
    /// Upper end of the leaf along `axis`.
    fn hi(&self, axis: usize) -> f32;
    /// The point whose Morton code orders the leaf.
    fn center(&self) -> Point<D>;
    /// The smallest box holding the leaf.
    fn bounds(&self) -> Aabb<D>;
}

impl<const D: usize> Leaf<D> for Point<D> {
    #[inline]
    fn lo(&self, axis: usize) -> f32 {
        self[axis]
    }

    #[inline]
    fn hi(&self, axis: usize) -> f32 {
        self[axis]
    }

    #[inline]
    fn center(&self) -> Point<D> {
        *self
    }

    #[inline]
    fn bounds(&self) -> Aabb<D> {
        Aabb::from_point(*self)
    }
}

impl<const D: usize> Leaf<D> for Aabb<D> {
    #[inline]
    fn lo(&self, axis: usize) -> f32 {
        self.min[axis]
    }

    #[inline]
    fn hi(&self, axis: usize) -> f32 {
        self.max[axis]
    }

    #[inline]
    fn center(&self) -> Point<D> {
        Aabb::center(self)
    }

    #[inline]
    fn bounds(&self) -> Aabb<D> {
        *self
    }
}

/// Squared distance from `center` to `leaf`: the summed squared per-axis
/// gaps, in [`Aabb::dist_sq`]'s order, so it equals the distance to the
/// leaf's bounds bit for bit.
#[inline]
pub(crate) fn leaf_dist_sq<const D: usize, L: Leaf<D>, C: QueryCenter<D>>(
    leaf: &L,
    center: &C,
) -> f32 {
    let mut acc = 0.0f32;
    for d in 0..D {
        let gap = center.gap(d, leaf.lo(d), leaf.hi(d));
        acc += gap * gap;
    }
    acc
}

/// Squared distance from `center` to the farthest point of `leaf`, bit
/// for bit [`Aabb::max_dist_sq`] of its bounds.
#[inline]
pub(crate) fn leaf_max_dist_sq<const D: usize, L: Leaf<D>, C: QueryCenter<D>>(
    leaf: &L,
    center: &C,
) -> f32 {
    let mut acc = 0.0f32;
    for d in 0..D {
        let span = center.span(d, leaf.lo(d), leaf.hi(d));
        acc += span * span;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_round_trip() {
        let r = NodeRef::leaf(123);
        assert!(r.is_leaf());
        assert_eq!(r.index(), 123);
    }

    #[test]
    fn internal_round_trip() {
        let r = NodeRef::internal(77);
        assert!(!r.is_leaf());
        assert_eq!(r.index(), 77);
    }

    #[test]
    fn zero_indices_distinct() {
        assert_ne!(NodeRef::leaf(0), NodeRef::internal(0));
    }

    #[test]
    fn packs_into_four_bytes() {
        assert_eq!(std::mem::size_of::<NodeRef>(), 4);
    }
}
