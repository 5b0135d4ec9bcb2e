#![warn(missing_docs)]

//! Geometric primitives shared by the FDBSCAN reproduction.
//!
//! This crate provides the low-dimensional building blocks the paper's
//! tree-based algorithms operate on:
//!
//! * [`Point`] — a fixed-dimension point of `f32` coordinates (the paper
//!   targets low-dimensional, e.g. spatial, data; `D` is a const generic
//!   and the evaluation uses `D = 2` and `D = 3`),
//! * [`Aabb`] — axis-aligned bounding boxes, the bounding volumes of the
//!   linear BVH and of the dense cells,
//! * [`morton`] — Morton (Z-order) codes used to linearize points for the
//!   Karras BVH construction and for dense-grid cell keys,
//! * [`SoaPoints`] — structure-of-arrays point storage with one
//!   contiguous slice per dimension, the coalescing-friendly layout the
//!   distance kernels stride through,
//! * [`simd`] — explicit lane-width (8 × f32) distance kernels over the
//!   SoA slices, bit-identical to the scalar accept set, for the
//!   threaded device backend's inner loops,
//! * the distances radius queries test: point–point ([`Point::dist_sq`])
//!   and point–box ([`Aabb::dist_sq`]).
//!
//! Everything here is `no_std`-style plain data: flat arrays of `f32`,
//! no heap indirection, no trait objects — matching how the data lives in
//! GPU device memory in the original implementation (ArborX).

pub mod aabb;
pub mod morton;
pub mod point;
pub mod simd;
pub mod soa;

pub use aabb::Aabb;
pub use point::Point;
pub use soa::SoaPoints;

/// Convenience alias for 2-D points (the paper's geospatial datasets).
pub type Point2 = Point<2>;
/// Convenience alias for 3-D points (the paper's cosmology dataset).
pub type Point3 = Point<3>;
