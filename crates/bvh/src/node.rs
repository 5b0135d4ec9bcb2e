//! Compact node references.

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
