//! Fixed-dimension points.

use core::fmt;
use core::hash::{Hash, Hasher};
use core::ops::{Index, IndexMut};

/// A point in `D`-dimensional Euclidean space with `f32` coordinates.
///
/// `f32` matches the precision the paper's GPU implementation uses for
/// device-resident geometry. The type is `repr(transparent)` over a plain
/// coordinate array so slices of points can be reinterpreted as flat
/// coordinate buffers — the layout a real device kernel would see.
#[derive(Clone, Copy, PartialEq)]
#[repr(transparent)]
pub struct Point<const D: usize> {
    /// Coordinates, one per dimension.
    pub coords: [f32; D],
}

impl<const D: usize> Default for Point<D> {
    /// The origin.
    fn default() -> Self {
        Self::origin()
    }
}

impl<const D: usize> Point<D> {
    /// Creates a point from its coordinate array.
    #[inline]
    pub const fn new(coords: [f32; D]) -> Self {
        Self { coords }
    }

    /// The origin (all coordinates zero).
    #[inline]
    pub const fn origin() -> Self {
        Self { coords: [0.0; D] }
    }

    /// Number of dimensions (the const generic, available at runtime).
    #[inline]
    pub const fn dim() -> usize {
        D
    }

    /// Squared Euclidean distance to another point.
    ///
    /// Radius queries compare squared distances against `eps * eps` to
    /// avoid the square root in the hot loop.
    #[inline]
    pub fn dist_sq(&self, other: &Self) -> f32 {
        let mut acc = 0.0f32;
        for d in 0..D {
            let diff = self.coords[d] - other.coords[d];
            acc += diff * diff;
        }
        acc
    }

    /// Euclidean distance to another point.
    #[inline]
    pub fn dist(&self, other: &Self) -> f32 {
        self.dist_sq(other).sqrt()
    }

    /// Component-wise minimum (used to grow bounding boxes).
    #[inline]
    pub fn min(&self, other: &Self) -> Self {
        let mut coords = [0.0f32; D];
        for (d, c) in coords.iter_mut().enumerate() {
            *c = self.coords[d].min(other.coords[d]);
        }
        Self { coords }
    }

    /// Component-wise maximum (used to grow bounding boxes).
    #[inline]
    pub fn max(&self, other: &Self) -> Self {
        let mut coords = [0.0f32; D];
        for (d, c) in coords.iter_mut().enumerate() {
            *c = self.coords[d].max(other.coords[d]);
        }
        Self { coords }
    }

    /// Returns `true` if every coordinate is finite.
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.coords.iter().all(|c| c.is_finite())
    }
}

impl<const D: usize> Index<usize> for Point<D> {
    type Output = f32;

    #[inline]
    fn index(&self, i: usize) -> &f32 {
        &self.coords[i]
    }
}

impl<const D: usize> IndexMut<usize> for Point<D> {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut f32 {
        &mut self.coords[i]
    }
}

impl<const D: usize> From<[f32; D]> for Point<D> {
    #[inline]
    fn from(coords: [f32; D]) -> Self {
        Self { coords }
    }
}

/// Hashes each coordinate's bit pattern, so `0.0` and `-0.0` (equal as
/// floats) hash differently and NaNs hash by payload: a phase output's
/// content hash sees every bit a later phase reads. `Point` is not `Eq`,
/// so no hash map keys on it.
impl<const D: usize> Hash for Point<D> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for c in self.coords {
            state.write_u32(c.to_bits());
        }
    }
}

impl<const D: usize> fmt::Debug for Point<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Point(")?;
        for (i, c) in self.coords.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_sees_every_coordinate_bit() {
        use std::collections::hash_map::DefaultHasher;
        let hash = |p: Point<2>| {
            let mut h = DefaultHasher::new();
            p.hash(&mut h);
            h.finish()
        };
        let p = Point::new([1.5, 0.0]);
        assert_eq!(hash(p), hash(Point::new([1.5, 0.0])));
        assert_ne!(hash(p), hash(Point::new([f32::from_bits(1.5f32.to_bits() + 1), 0.0])));
        assert_ne!(hash(p), hash(Point::new([1.5, -0.0])));
        assert_ne!(hash(p), hash(Point::new([0.0, 1.5])));
    }

    #[test]
    fn dist_sq_is_zero_to_self() {
        let p = Point::new([1.0, -2.5, 3.0]);
        assert_eq!(p.dist_sq(&p), 0.0);
        assert_eq!(p.dist(&p), 0.0);
    }

    #[test]
    fn dist_matches_hand_computed() {
        let a = Point::new([0.0, 0.0]);
        let b = Point::new([3.0, 4.0]);
        assert_eq!(a.dist_sq(&b), 25.0);
        assert_eq!(a.dist(&b), 5.0);
    }

    #[test]
    fn dist_is_symmetric() {
        let a = Point::new([1.0, 2.0, 3.0]);
        let b = Point::new([-4.0, 0.5, 9.0]);
        assert_eq!(a.dist_sq(&b), b.dist_sq(&a));
    }

    #[test]
    fn min_max_componentwise() {
        let a = Point::new([1.0, 5.0]);
        let b = Point::new([3.0, 2.0]);
        assert_eq!(a.min(&b), Point::new([1.0, 2.0]));
        assert_eq!(a.max(&b), Point::new([3.0, 5.0]));
    }

    #[test]
    fn origin_is_all_zero() {
        let o = Point::<3>::origin();
        assert_eq!(o.coords, [0.0; 3]);
    }

    #[test]
    fn indexing_reads_and_writes() {
        let mut p = Point::new([1.0, 2.0]);
        p[1] = 7.0;
        assert_eq!(p[0], 1.0);
        assert_eq!(p[1], 7.0);
    }

    #[test]
    fn is_finite_detects_nan_and_inf() {
        assert!(Point::new([1.0, 2.0]).is_finite());
        assert!(!Point::new([f32::NAN, 0.0]).is_finite());
        assert!(!Point::new([0.0, f32::INFINITY]).is_finite());
    }

    #[test]
    fn point_is_transparent_over_coords() {
        // The BVH relies on points being plain coordinate arrays.
        assert_eq!(core::mem::size_of::<Point<3>>(), 3 * core::mem::size_of::<f32>());
        assert_eq!(core::mem::align_of::<Point<3>>(), core::mem::align_of::<f32>());
    }

    #[test]
    fn dim_reports_const_generic() {
        assert_eq!(Point::<2>::dim(), 2);
        assert_eq!(Point::<3>::dim(), 3);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn arb_point() -> impl Strategy<Value = Point<2>> {
            (-1000.0f32..1000.0, -1000.0f32..1000.0).prop_map(|(x, y)| Point::new([x, y]))
        }

        proptest! {
            #[test]
            fn triangle_inequality(a in arb_point(), b in arb_point(), c in arb_point()) {
                // Allow small floating-point slack.
                prop_assert!(a.dist(&c) <= a.dist(&b) + b.dist(&c) + 1e-3);
            }

            #[test]
            fn symmetry(a in arb_point(), b in arb_point()) {
                prop_assert_eq!(a.dist_sq(&b), b.dist_sq(&a));
            }

            #[test]
            fn dist_nonnegative(a in arb_point(), b in arb_point()) {
                prop_assert!(a.dist_sq(&b) >= 0.0);
            }
        }
    }
}
