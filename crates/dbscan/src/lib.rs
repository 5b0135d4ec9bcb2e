#![warn(missing_docs)]

//! Tree-based DBSCAN for low-dimensional data on a (simulated) GPU.
//!
//! This crate implements the contribution of *Fast tree-based algorithms
//! for DBSCAN on GPUs* (Prokopenko, Lebrun-Grandié, Arndt; ICPP 2023):
//!
//! * [`fdbscan`] — **FDBSCAN** (§4.1): fuses a bounding-volume-hierarchy
//!   traversal with a synchronization-free union-find. The preprocessing
//!   phase finds core points with early-terminated neighbor counting; the
//!   main phase uses the *index-masked* traversal so each close pair is
//!   processed exactly once.
//! * [`fdbscan_densebox`] — **FDBSCAN-DenseBox** (§4.2): superimposes a
//!   grid with cell edge `eps/sqrt(d)`; cells with at least `minpts`
//!   points are *dense* — all their points are core points of one cluster
//!   — and enter the tree as box primitives, eliminating distance
//!   computations inside dense regions.
//! * [`baselines`] — the two GPU baselines of the paper's evaluation
//!   (G-DBSCAN and CUDA-DClust) plus the sequential reference algorithms
//!   (Algorithm 1 and the disjoint-set DSDBSCAN of Algorithm 2).
//!
//! # Semantics
//!
//! * Neighborhoods are inclusive: `dist(x, y) <= eps` (Algorithm 3's
//!   convention) and contain the point itself, so `x` is a core point iff
//!   `|N_eps(x)| >= minpts` counting `x`.
//! * Border points are attached to the first cluster that claims them via
//!   an atomic compare-and-swap (no "bridging" of clusters, §3.2).
//! * `minpts <= 2` skips the preprocessing phase (Algorithm 3, line 2):
//!   every matched pair consists of core points.
//! * Output labels: `assignments[i] >= 0` is a compact cluster id,
//!   [`NOISE`] (-1) marks outliers.
//!
//! # Quick start
//!
//! ```
//! use fdbscan::{fdbscan, Params};
//! use fdbscan_device::Device;
//! use fdbscan_geom::Point2;
//!
//! let device = Device::with_defaults();
//! let points = vec![
//!     Point2::new([0.0, 0.0]),
//!     Point2::new([0.1, 0.0]),
//!     Point2::new([0.0, 0.1]),
//!     Point2::new([9.0, 9.0]), // noise
//! ];
//! let (clustering, _stats) = fdbscan(&device, &points, Params::new(0.5, 3)).unwrap();
//! assert_eq!(clustering.num_clusters, 1);
//! assert_eq!(clustering.assignments[0], clustering.assignments[1]);
//! assert_eq!(clustering.assignments[3], fdbscan::NOISE);
//! ```

pub mod auto;
pub mod baselines;
pub mod checkpoint;
pub mod densebox;
pub mod fdbscan_impl;
pub mod framework;
pub mod generic;
pub mod labels;
mod pipeline;
pub mod report;
pub mod resilient;
pub mod seq;
pub mod star;
pub mod stats;
pub mod sweep;
pub mod tuning;
pub mod verify;

pub use auto::{fdbscan_auto, AutoChoice};
pub use checkpoint::{
    build_manifest, checkpoint_for, run_fingerprint, BfsLabels, ChainState, CoreSnapshot, CsrGraph,
    DenseIndex, LabelState, PHASE_CORE_FLAGS, PHASE_FINALIZE, PHASE_INDEX, PHASE_MAIN,
    PHASE_PREPROCESS,
};
pub use densebox::{
    fdbscan_densebox, fdbscan_densebox_run_from, fdbscan_densebox_with, DenseBoxOptions,
};
pub use fdbscan_impl::{fdbscan, fdbscan_run_from, fdbscan_with, FdbscanOptions};
pub use generic::fdbscan_kdtree;
pub use labels::{Clustering, PointClass, NOISE};
pub use report::{RunReport, RunStatus, RUN_REPORT_SCHEMA};
pub use resilient::{
    run_resilient, Attempt, AttemptOutcome, LadderLevel, ResiliencePolicy, ResilienceReport,
};
pub use star::{fdbscan_densebox_star, fdbscan_star};
pub use stats::{DenseStats, PhaseCounters, RunStats};
pub use sweep::MinptsSweep;
pub use tuning::{kdist_curve, suggest_eps};

use fdbscan_device::DeviceError;
use fdbscan_geom::Point;

/// Structured location of the first non-finite coordinate in an input,
/// from [`find_non_finite`]. A service front-end rejects the request
/// with these fields instead of parsing them back out of an error
/// string.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NonFinite {
    /// Index of the offending point in the input slice.
    pub index: usize,
    /// Axis (dimension) of the offending coordinate.
    pub axis: usize,
    /// The offending value (NaN or ±infinity).
    pub value: f32,
}

impl std::fmt::Display for NonFinite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "point {} has non-finite coordinate {} on axis {}",
            self.index, self.value, self.axis
        )
    }
}

/// Scans `points` for the first non-finite coordinate, returning its
/// structured location ([`NonFinite`]) or `None` when the input is
/// clean. [`validate_finite`] wraps this into a [`DeviceError`]; the
/// service layer uses it directly for per-request rejection
/// diagnostics.
pub fn find_non_finite<const D: usize>(points: &[Point<D>]) -> Option<NonFinite> {
    for (index, p) in points.iter().enumerate() {
        for (axis, &value) in p.coords.iter().enumerate() {
            if !value.is_finite() {
                return Some(NonFinite { index, axis, value });
            }
        }
    }
    None
}

/// Validates that every coordinate of every point is finite.
///
/// All public clustering entry points call this before reserving device
/// memory: NaN coordinates would otherwise poison distance comparisons
/// (`NaN <= eps` is false, but BVH bounds become NaN and traversals
/// silently drop points). Returns [`DeviceError::InvalidInput`] naming
/// the first offending point, axis, and value (see [`find_non_finite`]
/// for the structured form).
pub fn validate_finite<const D: usize>(points: &[Point<D>]) -> Result<(), DeviceError> {
    match find_non_finite(points) {
        Some(bad) => Err(DeviceError::InvalidInput { reason: bad.to_string() }),
        None => Ok(()),
    }
}

/// Validates that an input of `n` points fits the index width.
///
/// Tree positions and union-find labels are `u32`, and the BVH flags its
/// leaf references in the top bit, so an input must hold fewer than
/// 2^31 points. All public clustering entry points call this next to
/// [`validate_finite`], so an oversized input gets
/// [`DeviceError::InvalidInput`] instead of reaching an `assert!` in a
/// substrate crate.
pub fn validate_len(n: usize) -> Result<(), DeviceError> {
    const LIMIT: usize = 1 << 31;
    if n >= LIMIT {
        return Err(DeviceError::InvalidInput {
            reason: format!("{n} points exceed the index width (at most {} points)", LIMIT - 1),
        });
    }
    Ok(())
}

/// DBSCAN parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Params {
    /// Neighborhood radius (inclusive: `dist <= eps`).
    pub eps: f32,
    /// Minimum neighborhood size (including the point itself) for a core
    /// point.
    pub minpts: usize,
}

impl Params {
    /// Creates parameters, validating them.
    ///
    /// # Panics
    /// Panics if `eps` is not positive and finite or `minpts == 0`.
    pub fn new(eps: f32, minpts: usize) -> Self {
        assert!(eps > 0.0 && eps.is_finite(), "eps must be positive and finite");
        assert!(minpts >= 1, "minpts must be at least 1");
        Self { eps, minpts }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_construct() {
        let p = Params::new(0.5, 5);
        assert_eq!(p.eps, 0.5);
        assert_eq!(p.minpts, 5);
    }

    #[test]
    #[should_panic(expected = "eps must be positive")]
    fn params_reject_negative_eps() {
        Params::new(-1.0, 5);
    }

    #[test]
    #[should_panic(expected = "eps must be positive")]
    fn params_reject_nan_eps() {
        Params::new(f32::NAN, 5);
    }

    #[test]
    #[should_panic(expected = "minpts must be at least 1")]
    fn params_reject_zero_minpts() {
        Params::new(1.0, 0);
    }

    #[test]
    fn find_non_finite_reports_index_axis_and_value() {
        let mut points = vec![Point::<2>::origin(); 5];
        points[3].coords[1] = f32::NEG_INFINITY;
        let bad = find_non_finite(&points).unwrap();
        assert_eq!(bad, NonFinite { index: 3, axis: 1, value: f32::NEG_INFINITY });
        // NaN compares unequal to itself, so check fields directly.
        points[2].coords[0] = f32::NAN;
        let first = find_non_finite(&points).unwrap();
        assert_eq!((first.index, first.axis), (2, 0));
        assert!(first.value.is_nan());
        points[2].coords[0] = 0.0;
        points[3].coords[1] = 0.0;
        assert_eq!(find_non_finite(&points), None);
    }

    #[test]
    fn validate_len_rejects_inputs_past_the_index_width() {
        assert!(validate_len((1 << 31) - 1).is_ok());
        match validate_len(1 << 31) {
            Err(DeviceError::InvalidInput { reason }) => {
                assert!(reason.contains("2147483648 points"), "reason: {reason}");
            }
            other => panic!("expected InvalidInput, got {other:?}"),
        }
    }

    #[test]
    fn validate_finite_error_carries_the_location() {
        let mut points = vec![Point::<3>::new([1.0, 2.0, 3.0]); 4];
        points[1].coords[2] = f32::INFINITY;
        let err = validate_finite(&points).unwrap_err();
        match err {
            DeviceError::InvalidInput { reason } => {
                assert!(reason.contains("point 1"), "reason: {reason}");
                assert!(reason.contains("axis 2"), "reason: {reason}");
                assert!(reason.contains("inf"), "reason: {reason}");
            }
            other => panic!("expected InvalidInput, got {other:?}"),
        }
        points[1].coords[2] = 3.0;
        assert!(validate_finite(&points).is_ok());
    }
}
