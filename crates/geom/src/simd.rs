//! Explicit SIMD-width lane kernels over dimension-major slices.
//!
//! The threaded device backend gives block-level parallelism; these
//! routines give lane-level parallelism *inside* a block. Each primitive
//! processes [`LANES`] consecutive points per iteration from the
//! stride-1 per-dimension slices of [`SoaPoints`], with the arithmetic
//! written as fixed-size lane arrays so the compiler lowers it to packed
//! vector instructions on stable Rust (no `std::simd`): all lanes
//! compute their squared distance unconditionally, then a separate mask
//! pass consumes the results — the classic vectorize-then-filter shape.
//!
//! Accepted values are **bit-identical** to the scalar
//! [`Point::dist_sq`] path: each lane forms the same differences,
//! squares, and adds them in the same dimension order, so a point passes
//! the `<= eps_sq` test under these kernels iff it passes under the
//! scalar loop. That invariant is what lets the threaded+SIMD backend
//! produce canonically identical labels to the sequential oracle, and it
//! is pinned by proptests below.

use crate::point::Point;
use crate::soa::SoaPoints;

/// Lane width of the explicit SIMD loops: 8 × f32 fills one AVX2
/// register (and two NEON registers), and stays a whole number of
/// 256-bit loads for the 2-D/3-D slices the paper evaluates.
pub const LANES: usize = 8;

/// Calls `hit(i)` for every `i` with
/// `(xs[i]-cx)² + (ys[i]-cy)² <= eps_sq`, in ascending index order.
///
/// # Panics
/// Panics if `xs` and `ys` differ in length.
#[inline]
pub fn for_each_within_2d(
    xs: &[f32],
    ys: &[f32],
    cx: f32,
    cy: f32,
    eps_sq: f32,
    mut hit: impl FnMut(usize),
) {
    assert_eq!(xs.len(), ys.len(), "dimension slices must pair up");
    let n = xs.len();
    let mut base = 0;
    while base + LANES <= n {
        let mut d2 = [0.0f32; LANES];
        for l in 0..LANES {
            let dx = xs[base + l] - cx;
            let dy = ys[base + l] - cy;
            d2[l] = dx * dx + dy * dy;
        }
        for (l, &d) in d2.iter().enumerate() {
            if d <= eps_sq {
                hit(base + l);
            }
        }
        base += LANES;
    }
    for i in base..n {
        let dx = xs[i] - cx;
        let dy = ys[i] - cy;
        if dx * dx + dy * dy <= eps_sq {
            hit(i);
        }
    }
}

/// 3-D variant of [`for_each_within_2d`].
///
/// # Panics
/// Panics if the slices differ in length.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn for_each_within_3d(
    xs: &[f32],
    ys: &[f32],
    zs: &[f32],
    cx: f32,
    cy: f32,
    cz: f32,
    eps_sq: f32,
    mut hit: impl FnMut(usize),
) {
    assert_eq!(xs.len(), ys.len(), "dimension slices must pair up");
    assert_eq!(xs.len(), zs.len(), "dimension slices must pair up");
    let n = xs.len();
    let mut base = 0;
    while base + LANES <= n {
        let mut d2 = [0.0f32; LANES];
        for l in 0..LANES {
            let dx = xs[base + l] - cx;
            let dy = ys[base + l] - cy;
            let dz = zs[base + l] - cz;
            d2[l] = dx * dx + dy * dy + dz * dz;
        }
        for (l, &d) in d2.iter().enumerate() {
            if d <= eps_sq {
                hit(base + l);
            }
        }
        base += LANES;
    }
    for i in base..n {
        let dx = xs[i] - cx;
        let dy = ys[i] - cy;
        let dz = zs[i] - cz;
        if dx * dx + dy * dy + dz * dz <= eps_sq {
            hit(i);
        }
    }
}

/// Number of `i` with `(xs[i]-cx)² + (ys[i]-cy)² <= eps_sq`. Branch-free
/// per lane (the mask is accumulated arithmetically), so dense and
/// sparse neighborhoods cost the same.
#[inline]
pub fn count_within_2d(xs: &[f32], ys: &[f32], cx: f32, cy: f32, eps_sq: f32) -> usize {
    assert_eq!(xs.len(), ys.len(), "dimension slices must pair up");
    let n = xs.len();
    let mut count = 0usize;
    let mut base = 0;
    while base + LANES <= n {
        let mut lane_hits = [0u32; LANES];
        for l in 0..LANES {
            let dx = xs[base + l] - cx;
            let dy = ys[base + l] - cy;
            lane_hits[l] = (dx * dx + dy * dy <= eps_sq) as u32;
        }
        count += lane_hits.iter().sum::<u32>() as usize;
        base += LANES;
    }
    for i in base..n {
        let dx = xs[i] - cx;
        let dy = ys[i] - cy;
        count += (dx * dx + dy * dy <= eps_sq) as usize;
    }
    count
}

/// 3-D variant of [`count_within_2d`].
#[inline]
pub fn count_within_3d(
    xs: &[f32],
    ys: &[f32],
    zs: &[f32],
    cx: f32,
    cy: f32,
    cz: f32,
    eps_sq: f32,
) -> usize {
    assert_eq!(xs.len(), ys.len(), "dimension slices must pair up");
    assert_eq!(xs.len(), zs.len(), "dimension slices must pair up");
    let n = xs.len();
    let mut count = 0usize;
    let mut base = 0;
    while base + LANES <= n {
        let mut lane_hits = [0u32; LANES];
        for l in 0..LANES {
            let dx = xs[base + l] - cx;
            let dy = ys[base + l] - cy;
            let dz = zs[base + l] - cz;
            lane_hits[l] = (dx * dx + dy * dy + dz * dz <= eps_sq) as u32;
        }
        count += lane_hits.iter().sum::<u32>() as usize;
        base += LANES;
    }
    for i in base..n {
        let dx = xs[i] - cx;
        let dy = ys[i] - cy;
        let dz = zs[i] - cz;
        count += (dx * dx + dy * dy + dz * dz <= eps_sq) as usize;
    }
    count
}

/// Number of points of `soa` within `eps_sq` of `center` (the point
/// itself included when it is stored in `soa`). 2-D and 3-D take the
/// lane kernels; other dimensions fall back to the scalar loop.
#[inline]
pub fn count_within<const D: usize>(soa: &SoaPoints<D>, center: &Point<D>, eps_sq: f32) -> usize {
    match D {
        2 => count_within_2d(soa.dim(0), soa.dim(1), center[0], center[1], eps_sq),
        3 => count_within_3d(
            soa.dim(0),
            soa.dim(1),
            soa.dim(2),
            center[0],
            center[1],
            center[2],
            eps_sq,
        ),
        _ => (0..soa.len()).filter(|&i| soa.get(i).dist_sq(center) <= eps_sq).count(),
    }
}

/// Calls `hit(i)` for every point of `soa` within `eps_sq` of `center`,
/// in ascending index order. Dispatches like [`count_within`].
#[inline]
pub fn for_each_within<const D: usize>(
    soa: &SoaPoints<D>,
    center: &Point<D>,
    eps_sq: f32,
    mut hit: impl FnMut(usize),
) {
    match D {
        2 => for_each_within_2d(soa.dim(0), soa.dim(1), center[0], center[1], eps_sq, hit),
        3 => for_each_within_3d(
            soa.dim(0),
            soa.dim(1),
            soa.dim(2),
            center[0],
            center[1],
            center[2],
            eps_sq,
            hit,
        ),
        _ => {
            for i in 0..soa.len() {
                if soa.get(i).dist_sq(center) <= eps_sq {
                    hit(i);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn random_points<const D: usize>(n: usize, seed: u64) -> Vec<Point<D>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let mut c = [0.0f32; D];
                for v in &mut c {
                    *v = rng.gen_range(-10.0..10.0);
                }
                Point::new(c)
            })
            .collect()
    }

    fn scalar_hits<const D: usize>(
        points: &[Point<D>],
        center: &Point<D>,
        eps_sq: f32,
    ) -> Vec<usize> {
        points
            .iter()
            .enumerate()
            .filter(|(_, p)| p.dist_sq(center) <= eps_sq)
            .map(|(i, _)| i)
            .collect()
    }

    #[test]
    fn lane_kernels_handle_short_and_unaligned_lengths() {
        // Exercise every remainder class around the lane width.
        for n in 0..(3 * LANES + 1) {
            let points = random_points::<2>(n, n as u64);
            let soa = SoaPoints::from_points(&points);
            let center = Point::new([0.5, -0.5]);
            let eps_sq = 30.0;
            let expected = scalar_hits(&points, &center, eps_sq);
            let mut got = Vec::new();
            for_each_within(&soa, &center, eps_sq, |i| got.push(i));
            assert_eq!(got, expected, "n = {n}");
            assert_eq!(count_within(&soa, &center, eps_sq), expected.len(), "n = {n}");
        }
    }

    #[test]
    fn generic_dimension_falls_back_to_scalar() {
        let points = random_points::<4>(50, 9);
        let soa = SoaPoints::from_points(&points);
        let center = points[7];
        let eps_sq = 12.0;
        let expected = scalar_hits(&points, &center, eps_sq);
        let mut got = Vec::new();
        for_each_within(&soa, &center, eps_sq, |i| got.push(i));
        assert_eq!(got, expected);
        assert_eq!(count_within(&soa, &center, eps_sq), expected.len());
    }

    proptest! {
        #[test]
        fn lanes_match_scalar_accept_set_2d(
            seed in any::<u64>(),
            n in 0usize..200,
            eps in 0.01f32..20.0,
        ) {
            let points = random_points::<2>(n, seed);
            let soa = SoaPoints::from_points(&points);
            let center = if n > 0 { points[n / 2] } else { Point::new([0.0, 0.0]) };
            let eps_sq = eps * eps;
            let expected = scalar_hits(&points, &center, eps_sq);
            let mut got = Vec::new();
            for_each_within(&soa, &center, eps_sq, |i| got.push(i));
            prop_assert_eq!(&got, &expected);
            prop_assert_eq!(count_within(&soa, &center, eps_sq), expected.len());
        }

        #[test]
        fn lanes_match_scalar_accept_set_3d(
            seed in any::<u64>(),
            n in 0usize..200,
            eps in 0.01f32..20.0,
        ) {
            let points = random_points::<3>(n, seed);
            let soa = SoaPoints::from_points(&points);
            let center = if n > 0 { points[n / 3] } else { Point::new([0.0, 0.0, 0.0]) };
            let eps_sq = eps * eps;
            let expected = scalar_hits(&points, &center, eps_sq);
            let mut got = Vec::new();
            for_each_within(&soa, &center, eps_sq, |i| got.push(i));
            prop_assert_eq!(&got, &expected);
            prop_assert_eq!(count_within(&soa, &center, eps_sq), expected.len());
        }
    }
}
