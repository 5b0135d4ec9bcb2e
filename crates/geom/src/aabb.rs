//! Axis-aligned bounding boxes.

use crate::point::Point;

/// An axis-aligned bounding box in `D` dimensions.
///
/// This is the bounding volume used throughout the linear BVH: leaves
/// bound a single primitive (a point, or a dense cell's box), internal
/// nodes bound the union of their children. An *empty* box is represented
/// by `min = +inf, max = -inf`, which is the identity of [`Aabb::merged`].
#[derive(Clone, Copy, Debug, PartialEq, Hash)]
pub struct Aabb<const D: usize> {
    /// Lower corner (component-wise minimum).
    pub min: Point<D>,
    /// Upper corner (component-wise maximum).
    pub max: Point<D>,
}

impl<const D: usize> Aabb<D> {
    /// The empty box: the identity element for [`Aabb::merged`].
    #[inline]
    pub const fn empty() -> Self {
        Self { min: Point::new([f32::INFINITY; D]), max: Point::new([f32::NEG_INFINITY; D]) }
    }

    /// A degenerate box containing exactly one point.
    #[inline]
    pub const fn from_point(p: Point<D>) -> Self {
        Self { min: p, max: p }
    }

    /// A box with explicit corners. Callers must ensure `min <= max`
    /// component-wise (debug-asserted).
    #[inline]
    pub fn from_corners(min: Point<D>, max: Point<D>) -> Self {
        debug_assert!((0..D).all(|d| min[d] <= max[d]));
        Self { min, max }
    }

    /// The smallest box containing all points of an iterator.
    pub fn from_points<'a, I>(points: I) -> Self
    where
        I: IntoIterator<Item = &'a Point<D>>,
    {
        let mut out = Self::empty();
        for p in points {
            out.grow(p);
        }
        out
    }

    /// Returns `true` for the empty box (no point is contained).
    #[inline]
    pub fn is_empty(&self) -> bool {
        (0..D).any(|d| self.min[d] > self.max[d])
    }

    /// Expands the box to contain `p`.
    #[inline]
    pub fn grow(&mut self, p: &Point<D>) {
        self.min = self.min.min(p);
        self.max = self.max.max(p);
    }

    /// The smallest box containing both `self` and `other`.
    #[inline]
    pub fn merged(&self, other: &Self) -> Self {
        Self { min: self.min.min(&other.min), max: self.max.max(&other.max) }
    }

    /// Returns `true` if `p` lies inside the box (inclusive bounds).
    #[inline]
    pub fn contains(&self, p: &Point<D>) -> bool {
        (0..D).all(|d| self.min[d] <= p[d] && p[d] <= self.max[d])
    }

    /// The center point of the box.
    #[inline]
    pub fn center(&self) -> Point<D> {
        let mut coords = [0.0f32; D];
        for (d, c) in coords.iter_mut().enumerate() {
            *c = 0.5 * (self.min[d] + self.max[d]);
        }
        Point::new(coords)
    }

    /// Extent (edge length) along each dimension.
    #[inline]
    pub fn extents(&self) -> [f32; D] {
        let mut e = [0.0f32; D];
        for (d, ext) in e.iter_mut().enumerate() {
            *ext = self.max[d] - self.min[d];
        }
        e
    }

    /// Length of the box diagonal — the diameter bound the dense-grid cell
    /// size `eps / sqrt(d)` is chosen against (paper §4.2).
    #[inline]
    pub fn diagonal(&self) -> f32 {
        self.min.dist(&self.max)
    }

    /// Squared distance from `center` to the box (zero if they overlap):
    /// the sum of the squared per-axis [`QueryCenter::gap`]s.
    ///
    /// This is the node rejection test of the BVH radius query: a subtree
    /// is entered iff `dist_sq(center, node_box) <= eps^2`.
    #[inline]
    pub fn dist_sq<C: QueryCenter<D>>(&self, center: &C) -> f32 {
        let mut acc = 0.0f32;
        for d in 0..D {
            let delta = center.gap(d, self.min[d], self.max[d]);
            acc += delta * delta;
        }
        acc
    }

    /// Squared distance from `center` to the *farthest* corner of the
    /// box: the sum of the squared per-axis [`QueryCenter::span`]s.
    ///
    /// This is the node containment test of the stackless radius query:
    /// when `max_dist_sq(center, node_box) <= eps^2` every point inside
    /// the box is within `eps` of every point of `center`, so the whole
    /// subtree can be accepted without any per-leaf distance test.
    /// Because rounding in `f32` subtraction is monotone, each computed
    /// span upper-bounds the computed offset between any two contained
    /// coordinates, and squaring plus the in-order summation preserve
    /// that bound — so the computed member distance in [`Point::dist_sq`]
    /// never exceeds this value and no epsilon slack is needed.
    #[inline]
    pub fn max_dist_sq<C: QueryCenter<D>>(&self, center: &C) -> f32 {
        let mut acc = 0.0f32;
        for d in 0..D {
            let delta = center.span(d, self.min[d], self.max[d]);
            acc += delta * delta;
        }
        acc
    }
}

/// The centre of a radius query: a point, or a box (a dense cell querying
/// its neighbours).
///
/// Per axis, a centre gives its *gap* to an interval `[lo, hi]`, a lower
/// bound on the offset between any of its coordinates and any coordinate
/// in the interval, and its *span* over it, an upper bound on that
/// offset. Both bounds hold for the offsets as `f32` computes them:
/// rounding in `f32` subtraction is monotone, so the computed `x - y` of
/// a contained `x` and `y` never leaves the range the computed corner
/// differences give. [`Aabb::dist_sq`] sums squared gaps (rejection) and
/// [`Aabb::max_dist_sq`] squared spans (containment); the BVH's per-leaf
/// test strides the same gaps.
pub trait QueryCenter<const D: usize> {
    /// Lower bound on `|x - y|` along `axis` for `x` in the centre and `y`
    /// in `[lo, hi]` (zero when they overlap).
    fn gap(&self, axis: usize, lo: f32, hi: f32) -> f32;
    /// Upper bound on `|x - y|` along `axis` for `x` in the centre and `y`
    /// in `[lo, hi]`.
    fn span(&self, axis: usize, lo: f32, hi: f32) -> f32;
}

impl<const D: usize> QueryCenter<D> for Point<D> {
    #[inline]
    fn gap(&self, axis: usize, lo: f32, hi: f32) -> f32 {
        let c = self[axis];
        if c < lo {
            lo - c
        } else if c > hi {
            c - hi
        } else {
            0.0
        }
    }

    #[inline]
    fn span(&self, axis: usize, lo: f32, hi: f32) -> f32 {
        let c = self[axis];
        let to_lo = (c - lo).abs();
        let to_hi = (hi - c).abs();
        to_lo.max(to_hi)
    }
}

/// A box centre: gap `max(0, lo - max, min - hi)` and span
/// `max(|max - lo|, |hi - min|)`. Both are sound under `f32` rounding by
/// the same monotonicity argument as [`Aabb::max_dist_sq`]: for `x` in the
/// box and `y` in `[lo, hi]`, the computed `x - y` lies between the
/// computed `min - hi` and `max - lo`. A degenerate box (`min == max`)
/// computes exactly its point's values.
impl<const D: usize> QueryCenter<D> for Aabb<D> {
    #[inline]
    fn gap(&self, axis: usize, lo: f32, hi: f32) -> f32 {
        (lo - self.max[axis]).max(self.min[axis] - hi).max(0.0)
    }

    #[inline]
    fn span(&self, axis: usize, lo: f32, hi: f32) -> f32 {
        let to_lo = (self.max[axis] - lo).abs();
        let to_hi = (hi - self.min[axis]).abs();
        to_lo.max(to_hi)
    }
}

impl<const D: usize> Default for Aabb<D> {
    fn default() -> Self {
        Self::empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_box_is_empty_and_merge_identity() {
        let e = Aabb::<2>::empty();
        assert!(e.is_empty());
        let b = Aabb::from_corners(Point::new([0.0, 1.0]), Point::new([2.0, 3.0]));
        assert_eq!(e.merged(&b), b);
        assert_eq!(b.merged(&e), b);
    }

    #[test]
    fn from_point_is_degenerate() {
        let p = Point::new([1.0, 2.0, 3.0]);
        let b = Aabb::from_point(p);
        assert!(!b.is_empty());
        assert!(b.contains(&p));
        assert_eq!(b.diagonal(), 0.0);
    }

    #[test]
    fn grow_expands_bounds() {
        let mut b = Aabb::<2>::empty();
        b.grow(&Point::new([1.0, 5.0]));
        b.grow(&Point::new([-2.0, 3.0]));
        assert_eq!(b.min, Point::new([-2.0, 3.0]));
        assert_eq!(b.max, Point::new([1.0, 5.0]));
    }

    #[test]
    fn from_points_bounds_all() {
        let pts = [Point::new([0.0, 0.0]), Point::new([1.0, -1.0]), Point::new([0.5, 2.0])];
        let b = Aabb::from_points(pts.iter());
        for p in &pts {
            assert!(b.contains(p));
        }
        assert_eq!(b.min, Point::new([0.0, -1.0]));
        assert_eq!(b.max, Point::new([1.0, 2.0]));
    }

    #[test]
    fn contains_is_inclusive() {
        let b = Aabb::from_corners(Point::new([0.0, 0.0]), Point::new([1.0, 1.0]));
        assert!(b.contains(&Point::new([0.0, 0.0])));
        assert!(b.contains(&Point::new([1.0, 1.0])));
        assert!(!b.contains(&Point::new([1.0001, 0.5])));
    }

    #[test]
    fn dist_sq_inside_is_zero() {
        let b = Aabb::from_corners(Point::new([0.0, 0.0]), Point::new([2.0, 2.0]));
        assert_eq!(b.dist_sq(&Point::new([1.0, 1.0])), 0.0);
        assert_eq!(b.dist_sq(&Point::new([0.0, 2.0])), 0.0);
    }

    #[test]
    fn dist_sq_outside_matches_hand_computed() {
        let b = Aabb::from_corners(Point::new([0.0, 0.0]), Point::new([1.0, 1.0]));
        // Straight out along x.
        assert_eq!(b.dist_sq(&Point::new([3.0, 0.5])), 4.0);
        // Corner distance.
        assert_eq!(b.dist_sq(&Point::new([2.0, 2.0])), 2.0);
    }

    #[test]
    fn center_and_extents() {
        let b = Aabb::from_corners(Point::new([0.0, 2.0]), Point::new([4.0, 6.0]));
        assert_eq!(b.center(), Point::new([2.0, 4.0]));
        assert_eq!(b.extents(), [4.0, 4.0]);
    }

    #[test]
    fn diagonal_of_unit_square() {
        let b = Aabb::from_corners(Point::new([0.0, 0.0]), Point::new([1.0, 1.0]));
        assert!((b.diagonal() - 2f32.sqrt()).abs() < 1e-6);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn arb_box() -> impl Strategy<Value = Aabb<2>> {
            (-100.0f32..100.0, -100.0f32..100.0, 0.0f32..50.0, 0.0f32..50.0).prop_map(
                |(x, y, w, h)| Aabb::from_corners(Point::new([x, y]), Point::new([x + w, y + h])),
            )
        }

        fn arb_point() -> impl Strategy<Value = Point<2>> {
            (-200.0f32..200.0, -200.0f32..200.0).prop_map(|(x, y)| Point::new([x, y]))
        }

        proptest! {
            #[test]
            fn merge_is_commutative(a in arb_box(), b in arb_box()) {
                prop_assert_eq!(a.merged(&b), b.merged(&a));
            }

            #[test]
            fn merge_is_associative(a in arb_box(), b in arb_box(), c in arb_box()) {
                prop_assert_eq!(a.merged(&b).merged(&c), a.merged(&b.merged(&c)));
            }

            #[test]
            fn merge_contains_both(a in arb_box(), b in arb_box(), p in arb_point()) {
                let m = a.merged(&b);
                if a.contains(&p) || b.contains(&p) {
                    prop_assert!(m.contains(&p));
                }
                // The merged distance never exceeds either part's.
                prop_assert!(m.dist_sq(&p) <= a.dist_sq(&p) + 1e-3);
                prop_assert!(m.dist_sq(&p) <= b.dist_sq(&p) + 1e-3);
            }

            #[test]
            fn grow_is_merge_with_point(b in arb_box(), p in arb_point()) {
                let mut grown = b;
                grown.grow(&p);
                prop_assert_eq!(grown, b.merged(&Aabb::from_point(p)));
                prop_assert!(grown.contains(&p));
            }

            #[test]
            fn dist_sq_zero_iff_contained(b in arb_box(), p in arb_point()) {
                prop_assert_eq!(b.dist_sq(&p) == 0.0, b.contains(&p));
            }

            #[test]
            fn point_aabb_lower_bounds_member_distance(
                a in arb_point(), b in arb_point(), q in arb_point()
            ) {
                // The box distance is a lower bound on the distance to any
                // contained point — the property the BVH pruning relies on.
                let bx = Aabb::from_points([a, b].iter());
                let to_box = bx.dist_sq(&q);
                prop_assert!(to_box <= q.dist_sq(&a) + 1e-2);
                prop_assert!(to_box <= q.dist_sq(&b) + 1e-2);
            }

            #[test]
            fn max_dist_sq_bounds_members_exactly(
                a in arb_point(), b in arb_point(), q in arb_point()
            ) {
                // The farthest-corner distance must upper-bound the
                // *computed* distance to every contained point with no
                // slack — the containment fast path relies on exact f32
                // dominance, not a mathematical approximation.
                let bx = Aabb::from_points([a, b].iter());
                let far = bx.max_dist_sq(&q);
                prop_assert!(q.dist_sq(&a) <= far);
                prop_assert!(q.dist_sq(&b) <= far);
                prop_assert!(bx.dist_sq(&q) <= far);
            }
        }
    }
}
