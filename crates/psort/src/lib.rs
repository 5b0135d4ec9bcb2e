#![warn(missing_docs)]

//! Parallel sorting primitives for the simulated device.
//!
//! The linear BVH construction sorts primitives by Morton code and the
//! dense grid sorts points by cell key; on the GPU the paper gets both
//! from Kokkos/thrust. This crate provides the equivalent substrate:
//!
//! * [`scan::exclusive_scan`] — block-parallel exclusive prefix sum,
//! * [`radix::sort_pairs`] — stable LSD radix sort of `u64` keys with
//!   `u32` payloads (8-bit digits, per-block histograms, scan, scatter),
//!   with all passes submitted as one batched launch,
//! * [`radix::sort_pairs_in`] — the same sort with errors propagated
//!   instead of panicking,
//! * [`radix::sort_by_key_fused`] — sorts virtual `(keygen(i), i)` pairs,
//!   generating keys on the fly and delivering results through an `emit`
//!   epilogue fused into the final scatter pass.
//!
//! The radix sort skips passes whose digit is constant across all keys
//! (computed from the maximum key, or analytically via `key_bits` on the
//! fused path), which matters for cell keys that use only a few low
//! bytes.
//!
//! # Example
//!
//! ```
//! use fdbscan_device::Device;
//!
//! let device = Device::with_defaults();
//! let mut keys: Vec<u64> = (0..5000).rev().collect();
//! let mut values: Vec<u32> = (0..5000).collect();
//! fdbscan_psort::sort_pairs(&device, &mut keys, &mut values);
//! assert!(keys.windows(2).all(|w| w[0] <= w[1]));
//! assert_eq!(values[0], 4999); // payloads follow their keys
//!
//! let mut counts = vec![3u64, 1, 4];
//! let total = fdbscan_psort::exclusive_scan(&device, &mut counts).unwrap();
//! assert_eq!(counts, vec![0, 3, 4]);
//! assert_eq!(total, 8);
//! ```

pub mod radix;
pub mod scan;

pub use radix::{sort_by_key_fused, sort_pairs, sort_pairs_in};
pub use scan::exclusive_scan;
