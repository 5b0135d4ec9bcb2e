//! Parameter selection helpers.
//!
//! The original DBSCAN paper's recipe for `eps` (Ester et al. 1996,
//! §4.2): plot every point's distance to its k-th nearest neighbor in
//! descending order and take the first "valley" — the knee where the
//! curve turns from the steep noise region into the flat cluster
//! plateau. [`kdist_curve`] computes the (sampled, sorted) curve with
//! batched kNN traversals on the same BVH the clustering uses, and
//! [`suggest_eps`] locates the knee by the maximum-distance-to-chord
//! rule.

use fdbscan_device::shared::SharedMut;
use fdbscan_device::{Device, DeviceError};
use fdbscan_geom::Point;

use crate::fdbscan_impl::point_bvh;

/// Computes the sorted (descending) k-dist curve over a sample of at
/// most `max_samples` points (evenly strided).
///
/// `k` should normally be the intended `minpts`. Points in datasets
/// smaller than `k` contribute their farthest-available distance.
pub fn kdist_curve<const D: usize>(
    device: &Device,
    points: &[Point<D>],
    k: usize,
    max_samples: usize,
) -> Result<Vec<f32>, DeviceError> {
    assert!(k >= 1, "k must be at least 1");
    crate::validate_finite(points)?;
    let n = points.len();
    if n == 0 || max_samples == 0 {
        return Ok(Vec::new());
    }
    let _mem = device.memory().reserve_array::<Point<D>>(n)?;
    let bvh = point_bvh(device, points)?;
    let _bvh_mem = device.memory().reserve(bvh.memory_bytes())?;

    let stride = n.div_ceil(max_samples);
    let sample_count = n.div_ceil(stride);
    let mut dists = vec![0.0f32; sample_count];
    {
        let dists_view = SharedMut::new(&mut dists);
        let bvh_ref = &bvh;
        device.try_launch_named("tuning.kdist", sample_count, |s| {
            let i = s * stride;
            let best = bvh_ref.k_nearest(&points[i], k);
            let kth = best.last().map(|e| e.0.sqrt()).unwrap_or(0.0);
            // SAFETY: one writer per index.
            unsafe { dists_view.write(s, kth) };
        })?;
    }
    // total_cmp: inputs are validated finite, but a total order keeps
    // this panic-free by construction.
    dists.sort_unstable_by(|a, b| b.total_cmp(a));
    Ok(dists)
}

/// Suggests an `eps` for a given `minpts` from the k-dist knee.
///
/// Knee rule: on the sorted-descending curve, the knee is the point with
/// the maximum perpendicular distance to the chord between the curve's
/// endpoints. Robust to curve length and scale; `O(samples)`.
///
/// Returns `None` for datasets too small to estimate (fewer than 3
/// sampled points, or a flat curve).
pub fn suggest_eps<const D: usize>(
    device: &Device,
    points: &[Point<D>],
    minpts: usize,
) -> Result<Option<f32>, DeviceError> {
    let curve = kdist_curve(device, points, minpts, 2048)?;
    Ok(knee_of(&curve))
}

/// Locates the knee of a sorted-descending curve (max distance to chord).
fn knee_of(curve: &[f32]) -> Option<f32> {
    if curve.len() < 3 {
        return None;
    }
    let n = curve.len() as f32;
    let first = curve[0];
    let last = *curve.last().unwrap();
    if !(first.is_finite() && last.is_finite()) || first <= last {
        return None; // flat or degenerate
    }
    // Chord from (0, first) to (n-1, last); normalize axes so the knee
    // is scale-invariant.
    let mut best_idx = 0;
    let mut best_dist = f32::NEG_INFINITY;
    for (i, &y) in curve.iter().enumerate() {
        let x_norm = i as f32 / (n - 1.0);
        let y_norm = (y - last) / (first - last);
        // Distance to the y = 1 - x line (the normalized chord), up to a
        // constant factor of sqrt(2).
        let dist = (1.0 - x_norm) - y_norm;
        if dist > best_dist {
            best_dist = dist;
            best_idx = i;
        }
    }
    Some(curve[best_idx])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{fdbscan, Params};
    use fdbscan_data::blobs;
    use fdbscan_device::DeviceConfig;

    fn device() -> Device {
        Device::new(DeviceConfig::default().with_workers(2))
    }

    #[test]
    fn kdist_curve_is_sorted_descending() {
        let points = blobs::<2>(2000, 4, 0.02, 1.0, 0.1, 7);
        let curve = kdist_curve(&device(), &points, 5, 512).unwrap();
        assert!(!curve.is_empty());
        assert!(curve.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn tree_out_of_memory_is_an_error() {
        // The budget holds the points, not the tree.
        let points = blobs::<2>(2000, 4, 0.02, 1.0, 0.1, 8);
        let budget = points.len() * std::mem::size_of::<Point<2>>() + 512;
        let d = Device::new(DeviceConfig::sequential().with_memory_budget(budget));
        let err = kdist_curve(&d, &points, 5, 512).unwrap_err();
        assert!(matches!(err, DeviceError::OutOfMemory { .. }), "got {err:?}");
    }

    #[test]
    fn kdist_empty_input() {
        let curve = kdist_curve::<2>(&device(), &[], 5, 512).unwrap();
        assert!(curve.is_empty());
        assert_eq!(suggest_eps::<2>(&device(), &[], 5).unwrap(), None);
    }

    #[test]
    fn knee_of_handles_degenerate_curves() {
        assert_eq!(knee_of(&[]), None);
        assert_eq!(knee_of(&[1.0, 1.0]), None);
        assert_eq!(knee_of(&[1.0, 1.0, 1.0]), None, "flat curve has no knee");
        // An L-shaped curve: knee at the corner.
        let curve = [10.0, 9.5, 9.0, 1.0, 0.9, 0.8, 0.7];
        let knee = knee_of(&curve).unwrap();
        assert!(knee <= 1.0, "knee {knee} should be at the corner");
    }

    #[test]
    fn suggested_eps_recovers_blob_structure() {
        // 4 tight blobs + 15% noise: the suggested eps must yield a
        // clustering in the right regime (a handful of clusters, most
        // points clustered, noise nonzero).
        let points = blobs::<2>(4000, 4, 0.01, 1.0, 0.15, 11);
        let minpts = 8;
        let d = device();
        let eps = suggest_eps(&d, &points, minpts).unwrap().expect("knee must exist");
        assert!(eps > 0.0 && eps < 0.5, "eps {eps} out of plausible range");
        let (c, _) = fdbscan(&d, &points, Params::new(eps, minpts)).unwrap();
        assert!(
            (2..=40).contains(&c.num_clusters),
            "eps {eps} produced {} clusters",
            c.num_clusters
        );
        let clustered: usize = c.cluster_sizes().iter().sum();
        assert!(clustered > points.len() / 2, "only {clustered} points clustered");
        assert!(c.num_noise() > 0, "noise floor should remain noise");
    }

    #[test]
    fn curve_shrinks_with_sample_budget() {
        let points = blobs::<2>(3000, 3, 0.02, 1.0, 0.1, 13);
        let big = kdist_curve(&device(), &points, 4, 1000).unwrap();
        let small = kdist_curve(&device(), &points, 4, 100).unwrap();
        assert!(small.len() <= 100 + 1);
        assert!(big.len() > small.len());
    }
}
