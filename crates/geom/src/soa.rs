//! Structure-of-arrays point storage.
//!
//! GPU distance kernels want thread `i` to read coordinate `d` of point
//! `i` from `coords[d][i]`: consecutive threads then touch consecutive
//! memory and the loads coalesce into one transaction per warp. The
//! array-of-structures layout of `&[Point<D>]` interleaves dimensions and
//! wastes `(D-1)/D` of every cache line on a per-dimension scan. This
//! module provides the transposed layout as a single dimension-major
//! buffer with one contiguous slice per dimension.

use crate::point::Point;

/// Points stored dimension-major: one contiguous `f32` slice per axis.
///
/// `data[d * len + i]` holds coordinate `d` of point `i`, so
/// [`SoaPoints::dim`] hands kernels a stride-1 slice per dimension.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SoaPoints<const D: usize> {
    data: Vec<f32>,
    len: usize,
}

impl<const D: usize> SoaPoints<D> {
    /// Transposes an array-of-structures slice into dimension-major form.
    pub fn from_points(points: &[Point<D>]) -> Self {
        let len = points.len();
        let mut data = vec![0.0f32; D * len];
        for (d, lane) in data.chunks_exact_mut(len.max(1)).enumerate() {
            for (i, p) in points.iter().enumerate() {
                lane[i] = p[d];
            }
        }
        if len == 0 {
            data.clear();
        }
        Self { data, len }
    }

    /// Number of points.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when no points are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The contiguous coordinate slice for dimension `d`.
    #[inline]
    pub fn dim(&self, d: usize) -> &[f32] {
        debug_assert!(d < D);
        &self.data[d * self.len..(d + 1) * self.len]
    }

    /// Reassembles point `i` (for callers that need the AoS view back).
    #[inline]
    pub fn get(&self, i: usize) -> Point<D> {
        debug_assert!(i < self.len);
        Point::new(std::array::from_fn(|d| self.data[d * self.len + i]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_round_trip() {
        let soa = SoaPoints::<2>::from_points(&[]);
        assert!(soa.is_empty());
        assert_eq!(soa.len(), 0);
        assert_eq!(soa.dim(0), &[] as &[f32]);
        assert_eq!(soa.dim(1), &[] as &[f32]);
    }

    #[test]
    fn transpose_round_trips_2d() {
        let pts = vec![Point::new([1.0, 10.0]), Point::new([2.0, 20.0]), Point::new([3.0, 30.0])];
        let soa = SoaPoints::from_points(&pts);
        assert_eq!(soa.len(), 3);
        assert_eq!(soa.dim(0), &[1.0, 2.0, 3.0]);
        assert_eq!(soa.dim(1), &[10.0, 20.0, 30.0]);
        for (i, p) in pts.iter().enumerate() {
            assert_eq!(&soa.get(i), p);
        }
    }

    #[test]
    fn transpose_round_trips_3d() {
        let pts: Vec<Point<3>> =
            (0..17).map(|i| Point::new([i as f32, -(i as f32), 0.5 * i as f32])).collect();
        let soa = SoaPoints::from_points(&pts);
        for (i, p) in pts.iter().enumerate() {
            assert_eq!(&soa.get(i), p);
            for d in 0..3 {
                assert_eq!(soa.dim(d)[i], p[d]);
            }
        }
    }

    #[test]
    fn dim_slices_are_contiguous_and_disjoint() {
        let pts = vec![Point::new([1.0, 2.0]); 5];
        let soa = SoaPoints::from_points(&pts);
        assert_eq!(soa.dim(0).len(), 5);
        assert_eq!(soa.dim(1).len(), 5);
    }
}
