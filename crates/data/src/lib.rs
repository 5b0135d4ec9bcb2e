#![warn(missing_docs)]

//! Seeded synthetic dataset generators.
//!
//! The paper evaluates on three real 2-D geospatial datasets (NGSIM
//! vehicle trajectories, Porto taxi trajectories, the North Jutland road
//! network) and one 3-D cosmology snapshot (HACC). None are redistributable
//! here, so this crate generates seeded synthetic stand-ins that
//! reproduce the *density structure* the evaluation depends on:
//!
//! * [`synth2d::ngsim_like`] — a few highway corridors with lane
//!   structure and extreme point stacking near intersections (NGSIM is
//!   "overly dense even for small eps", §5.1),
//! * [`synth2d::porto_taxi_like`] — trajectories over a radial street
//!   network with density decaying away from the center,
//! * [`synth2d::road_network_like`] — sparse polylines of a recursive
//!   road network (3D Road is the sparsest of the three),
//! * [`cosmology::cosmology_like`] — clustered halos over a diffuse
//!   background in a 3-D box, tuned so dense-cell membership tracks the
//!   paper's §5.2 numbers (~13 % at `minpts = 5`, about none past 100).
//!
//! All 2-D datasets live in the unit square so the paper's `eps` values
//! carry over directly. Every generator is deterministic in its seed.
//!
//! # Example
//!
//! ```
//! use fdbscan_data::Dataset2;
//!
//! let porto = Dataset2::PortoTaxi.generate(10_000, 42);
//! assert_eq!(porto.len(), 10_000);
//! // Seeded: the same call reproduces the same dataset.
//! assert_eq!(porto, Dataset2::PortoTaxi.generate(10_000, 42));
//!
//! let sample = fdbscan_data::subsample(&porto, 1_000, 7);
//! assert_eq!(sample.len(), 1_000);
//! ```

pub mod cosmology;
pub mod io;
pub mod sample;
pub mod synth2d;

pub use cosmology::cosmology_like;
pub use sample::subsample;
pub use synth2d::{ngsim_like, porto_taxi_like, road_network_like, Dataset2};

use fdbscan_geom::Point;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Uniformly random points in `[0, extent]^D`.
pub fn uniform<const D: usize>(n: usize, extent: f32, seed: u64) -> Vec<Point<D>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let mut coords = [0.0f32; D];
            for c in coords.iter_mut() {
                *c = rng.gen_range(0.0..extent);
            }
            Point::new(coords)
        })
        .collect()
}

/// `k` isotropic Gaussian blobs plus a uniform noise floor, in
/// `[0, extent]^D`. `noise_fraction` of the points are background noise.
pub fn blobs<const D: usize>(
    n: usize,
    k: usize,
    spread: f32,
    extent: f32,
    noise_fraction: f64,
    seed: u64,
) -> Vec<Point<D>> {
    assert!(k >= 1, "need at least one blob");
    assert!((0.0..=1.0).contains(&noise_fraction));
    let mut rng = StdRng::seed_from_u64(seed);
    let centers: Vec<[f32; D]> = (0..k)
        .map(|_| {
            let mut c = [0.0f32; D];
            for v in c.iter_mut() {
                *v = rng.gen_range(0.1 * extent..0.9 * extent);
            }
            c
        })
        .collect();
    (0..n)
        .map(|_| {
            if rng.gen_bool(noise_fraction) {
                let mut coords = [0.0f32; D];
                for c in coords.iter_mut() {
                    *c = rng.gen_range(0.0..extent);
                }
                return Point::new(coords);
            }
            let center = centers[rng.gen_range(0..k)];
            let mut coords = [0.0f32; D];
            for (c, &mu) in coords.iter_mut().zip(center.iter()) {
                *c = (mu + gaussian(&mut rng) * spread).clamp(0.0, extent);
            }
            Point::new(coords)
        })
        .collect()
}

/// A standard normal sample (Box–Muller; two uniforms per call).
pub(crate) fn gaussian(rng: &mut StdRng) -> f32 {
    let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
    let u2: f32 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_respects_bounds_and_count() {
        let pts = uniform::<2>(1000, 3.0, 1);
        assert_eq!(pts.len(), 1000);
        assert!(pts.iter().all(|p| (0.0..3.0).contains(&p[0]) && (0.0..3.0).contains(&p[1])));
    }

    #[test]
    fn uniform_is_deterministic_per_seed() {
        assert_eq!(uniform::<3>(100, 1.0, 7), uniform::<3>(100, 1.0, 7));
        assert_ne!(uniform::<3>(100, 1.0, 7), uniform::<3>(100, 1.0, 8));
    }

    #[test]
    fn blobs_cluster_around_centers() {
        let pts = blobs::<2>(2000, 3, 0.01, 1.0, 0.0, 5);
        assert_eq!(pts.len(), 2000);
        // With spread 0.01 and no noise, the pairwise distance to the
        // nearest of 3 centers is tiny; verify via a crude density check:
        // the bounding box of the data is much smaller than the domain
        // only if centers are few — instead verify that most points have
        // a close neighbor.
        let close = pts
            .iter()
            .enumerate()
            .take(200)
            .filter(|(i, p)| pts.iter().enumerate().any(|(j, q)| j != *i && p.dist(q) < 0.05))
            .count();
        assert!(close > 190, "blob points must be locally dense, got {close}/200");
    }

    #[test]
    fn blobs_noise_fraction_adds_background() {
        let pts = blobs::<2>(5000, 2, 0.005, 1.0, 0.5, 9);
        // Roughly half the points should be far from both tiny blobs.
        let isolated = pts
            .iter()
            .enumerate()
            .take(300)
            .filter(|(i, p)| !pts.iter().enumerate().any(|(j, q)| j != *i && p.dist(q) < 0.01))
            .count();
        assert!(isolated > 50, "expected a noise floor, got {isolated}/300 isolated");
    }

    #[test]
    fn gaussian_moments_are_sane() {
        let mut rng = StdRng::seed_from_u64(3);
        let samples: Vec<f32> = (0..20_000).map(|_| gaussian(&mut rng)).collect();
        let mean = samples.iter().sum::<f32>() / samples.len() as f32;
        let var =
            samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / samples.len() as f32;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "variance {var}");
    }

    #[test]
    #[should_panic(expected = "at least one blob")]
    fn blobs_reject_zero_k() {
        blobs::<2>(10, 0, 0.1, 1.0, 0.0, 1);
    }
}
