//! Heuristic algorithm selection (paper §6, future work): "we envision
//! using a heuristic to switch between FDBSCAN and FDBSCAN-DenseBox for
//! a given problem", echoing the hybrid strategy of Gowanlock (ICS'19,
//! the paper's reference \[14\]).
//!
//! The signal that separates the regimes — visible throughout §5 and in
//! this repo's `ablations` bench — is the fraction of points living in
//! dense cells:
//!
//! * road-network / trajectory data at practical parameters: >90 % of
//!   points in dense cells, FDBSCAN-DenseBox wins by large factors;
//! * sparse cosmology at physics `eps`: few dense cells, the dense-box
//!   machinery is pure overhead and FDBSCAN wins (paper Fig. 6).
//!
//! The grid needed to measure that fraction *is* the first stage of
//! FDBSCAN-DenseBox, so the heuristic is nearly free on the dense path:
//! build the grid, read the fraction, and either continue with the grid
//! (dense) or discard it and run FDBSCAN (sparse).

use fdbscan_device::{Device, DeviceError};
use fdbscan_geom::Point;
use fdbscan_grid::DenseGrid;

use crate::densebox::densebox_with_grid;
use crate::fdbscan_impl::fdbscan_core;
use crate::labels::Clustering;
use crate::pipeline::CallerIndex;
use crate::stats::RunStats;
use crate::Params;

/// Which algorithm the heuristic picked.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AutoChoice {
    /// Plain FDBSCAN (sparse regime).
    Fdbscan,
    /// FDBSCAN-DenseBox (dense regime).
    DenseBox,
}

/// Dense-cell point fraction above which FDBSCAN-DenseBox is chosen.
///
/// From the `ablations` bench: at fractions >= 0.9 the dense-box variant
/// wins by an order of magnitude; below ~0.2 it loses moderately; the
/// crossover sits in between. 0.5 picks the winner on every measured
/// workload while staying robust to generator noise.
pub const DENSE_FRACTION_THRESHOLD: f64 = 0.5;

/// Runs DBSCAN with the automatically selected tree algorithm.
///
/// Returns the clustering, the run statistics of the chosen algorithm,
/// and which algorithm ran. Output semantics are identical either way.
pub fn fdbscan_auto<const D: usize>(
    device: &Device,
    points: &[Point<D>],
    params: Params,
) -> Result<(Clustering, RunStats, AutoChoice), DeviceError> {
    if points.is_empty() {
        let (c, s) = crate::fdbscan(device, points, params)?;
        return Ok((c, s, AutoChoice::Fdbscan));
    }
    // The decision grid is index work of whichever algorithm runs. A grid
    // that cannot key this eps over this extent rules DenseBox out.
    let (grid, caller) = CallerIndex::build(device, || {
        DenseGrid::build_in(device, points, params.eps, params.minpts)
    });
    let grid = match grid {
        Ok(grid) => grid,
        Err(DeviceError::InvalidInput { .. }) => {
            let (c, s) =
                fdbscan_core(device, points, params, Default::default(), None, Some(caller))?;
            return Ok((c, s, AutoChoice::Fdbscan));
        }
        Err(err) => return Err(err),
    };

    // Memory pre-flight: on a budgeted device, never pick an algorithm
    // predicted to bust the budget when the other one fits.
    let mut prefer_dense = grid.dense_fraction() >= DENSE_FRACTION_THRESHOLD;
    if let Some(available) = device.memory().headroom() {
        let dense_fits = crate::resilient::estimate_densebox_bytes::<D>(points.len()) <= available;
        let sparse_fits = crate::resilient::estimate_fdbscan_bytes::<D>(points.len()) <= available;
        if prefer_dense && !dense_fits && sparse_fits {
            prefer_dense = false;
        } else if !prefer_dense && !sparse_fits && dense_fits {
            prefer_dense = true;
        }
    }

    if prefer_dense {
        let (c, s) = densebox_with_grid(device, points, params, grid, caller)?;
        Ok((c, s, AutoChoice::DenseBox))
    } else {
        drop(grid);
        let (c, s) = fdbscan_core(device, points, params, Default::default(), None, Some(caller))?;
        Ok((c, s, AutoChoice::Fdbscan))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labels::assert_core_equivalent;
    use fdbscan_device::DeviceConfig;
    use fdbscan_geom::Point2;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn device() -> Device {
        Device::new(DeviceConfig::default().with_workers(2))
    }

    #[test]
    fn picks_densebox_on_stacked_data() {
        let points = vec![Point2::new([1.0, 1.0]); 500];
        let (c, stats, choice) = fdbscan_auto(&device(), &points, Params::new(0.5, 10)).unwrap();
        assert_eq!(choice, AutoChoice::DenseBox);
        assert_eq!(c.num_clusters, 1);
        assert!(stats.dense.is_some());
    }

    #[test]
    fn picks_fdbscan_on_sparse_data() {
        let mut rng = StdRng::seed_from_u64(1);
        let points: Vec<Point2> = (0..2000)
            .map(|_| Point2::new([rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)]))
            .collect();
        // eps small: almost no cell holds minpts points.
        let (_, stats, choice) = fdbscan_auto(&device(), &points, Params::new(0.5, 10)).unwrap();
        assert_eq!(choice, AutoChoice::Fdbscan);
        assert!(stats.dense.is_none());
    }

    #[test]
    fn auto_result_matches_both_manual_algorithms() {
        let mut rng = StdRng::seed_from_u64(2);
        let points: Vec<Point2> = (0..800)
            .map(|_| Point2::new([rng.gen_range(0.0..3.0), rng.gen_range(0.0..3.0)]))
            .collect();
        let params = Params::new(0.2, 5);
        let d = device();
        let (auto_c, _, _) = fdbscan_auto(&d, &points, params).unwrap();
        let (manual, _) = crate::fdbscan(&d, &points, params).unwrap();
        assert_core_equivalent(&manual, &auto_c);
    }

    #[test]
    fn decision_grid_work_is_booked_into_the_index_phase() {
        // Dense path: exactly the work of a direct DenseBox run, phase by
        // phase (the grid is DenseBox's own first index step).
        let stacked = vec![Point2::new([1.0, 1.0]); 2000];
        let params = Params::new(0.1, 5);
        let (_, auto, choice) =
            fdbscan_auto(&Device::new(DeviceConfig::sequential()), &stacked, params).unwrap();
        assert_eq!(choice, AutoChoice::DenseBox);
        let (_, direct) =
            crate::fdbscan_densebox(&Device::new(DeviceConfig::sequential()), &stacked, params)
                .unwrap();
        assert_eq!(auto.counters, direct.counters);
        assert_eq!(auto.phase_counters, direct.phase_counters);

        // Sparse path: the stats cover everything the device ran.
        let mut rng = StdRng::seed_from_u64(3);
        let scattered: Vec<Point2> = (0..2000)
            .map(|_| Point2::new([rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)]))
            .collect();
        let d = Device::new(DeviceConfig::sequential());
        let before = d.counters().snapshot();
        let (_, auto, choice) = fdbscan_auto(&d, &scattered, Params::new(5.0, 5)).unwrap();
        assert_eq!(choice, AutoChoice::Fdbscan);
        assert_eq!(auto.counters, d.counters().snapshot().since(&before));
        assert!(auto.phase_counters.index.kernel_launches > 0);
    }

    #[test]
    fn tiny_eps_runs_fdbscan_when_the_grid_cannot_key_it() {
        // 3-D keys hold 21 bits per axis: eps = 1e-4 over a 0..999 extent
        // needs more cells than that, so DenseBox is out.
        let points: Vec<Point<3>> = (0..1000)
            .map(|i| Point::new([i as f32, ((i * 7) % 1000) as f32, ((i * 13) % 1000) as f32]))
            .collect();
        let params = Params::new(1e-4, 3);
        let (c, _, choice) =
            fdbscan_auto(&Device::new(DeviceConfig::sequential()), &points, params).unwrap();
        assert_eq!(choice, AutoChoice::Fdbscan);
        let (manual, _) =
            crate::fdbscan(&Device::new(DeviceConfig::sequential()), &points, params).unwrap();
        assert_eq!(c.assignments, manual.assignments);
        assert_eq!(c.classes, manual.classes);
    }

    #[test]
    fn a_budget_that_fits_densebox_keeps_the_unbudgeted_choice() {
        // Dense taxi data at a service request's size, on a budget of
        // exactly DenseBox's estimate: the decision grid's scratch is
        // released before the choice, so the budget fits DenseBox on a
        // cold device and again after a first call.
        let n = 8_000;
        let points = fdbscan_data::Dataset2::PortoTaxi.generate(n, 1);
        let params = Params::new(0.01, 20);
        let sequential = DeviceConfig::sequential;
        let (_, _, unbudgeted) = fdbscan_auto(&Device::new(sequential()), &points, params).unwrap();
        assert_eq!(unbudgeted, AutoChoice::DenseBox);
        let budget = crate::resilient::estimate_densebox_bytes::<2>(n);
        let device = Device::new(sequential().with_memory_budget(budget));
        for call in ["cold", "warm"] {
            let (_, _, choice) = fdbscan_auto(&device, &points, params).unwrap();
            assert_eq!(choice, unbudgeted, "{call} device");
        }
    }

    #[test]
    fn empty_input() {
        let (c, _, choice) = fdbscan_auto::<2>(&device(), &[], Params::new(1.0, 2)).unwrap();
        assert!(c.is_empty());
        assert_eq!(choice, AutoChoice::Fdbscan);
    }
}
