//! The workloads and their inputs. Every input is a pure function of the
//! seed; the program under measurement only ever sees generated points.

use fdbscan::Params;

/// The three workloads (see `perfbench/README.md` for why each exists).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// FDBSCAN on a sparse 3-D cosmology snapshot (paper §5.2).
    Halo3d,
    /// FDBSCAN-DenseBox on dense 2-D taxi trajectories (paper §5.1).
    Taxi2d,
    /// Many small default-policy requests through `ClusterService`.
    ServiceMixed,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Halo3d, Workload::Taxi2d, Workload::ServiceMixed];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Halo3d => "halo-3d",
            Workload::Taxi2d => "taxi-2d",
            Workload::ServiceMixed => "service-mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Input size of a batch workload.
    pub fn n(self) -> usize {
        match self {
            Workload::Halo3d => 300_000,
            Workload::Taxi2d => 500_000,
            Workload::ServiceMixed => unreachable!("service-mixed has per-request sizes"),
        }
    }

    /// DBSCAN parameters of a batch workload at `n` points.
    pub fn params(self, n: usize) -> Params {
        match self {
            Workload::Halo3d => cosmo_params(n),
            Workload::Taxi2d => Params::new(0.005, 50),
            Workload::ServiceMixed => unreachable!("service-mixed has per-request parameters"),
        }
    }
}

/// The paper's §5.2 ε (0.042 at 36.9 M particles in a 64 Mpc/h box),
/// rescaled to `n` particles in the same volume so the expected neighbor
/// count stays the same. The same rule as `fdbscan_bench::scaled_cosmo_eps`,
/// pinned here so a change there cannot silently change these workloads.
pub fn scaled_cosmo_eps(n: usize) -> f32 {
    0.042 * (36.9e6 / n as f64).cbrt() as f32
}

/// Cosmology parameters at `n` points: minpts 5 at the rescaled ε.
pub fn cosmo_params(n: usize) -> Params {
    Params::new(scaled_cosmo_eps(n), 5)
}

/// One request shape of the `service-mixed` traffic.
#[derive(Clone, Copy, Debug)]
pub struct RequestKind {
    pub name: &'static str,
    pub n: usize,
    /// A 3-D cosmology request; otherwise a 2-D PortoTaxi request.
    pub cosmology: bool,
    /// Requests of this kind in every block of ten requests.
    pub per_block: usize,
}

impl RequestKind {
    pub fn params(&self, n: usize) -> Params {
        if self.cosmology {
            cosmo_params(n)
        } else {
            Params::new(0.01, 20)
        }
    }
}

/// The `service-mixed` request kinds. Each block of ten requests holds
/// exactly these counts in a seeded order, so the mix does not depend on
/// the seed. The shares put the median inside the 4 k group (30–60 %) and
/// the 90th percentile inside the 8 k group (60–100 %), away from the
/// latency gaps between groups where a percentile would jump.
pub const SERVICE_KINDS: [RequestKind; 4] = [
    RequestKind { name: "taxi-2k", n: 2_000, cosmology: false, per_block: 3 },
    RequestKind { name: "taxi-4k", n: 4_000, cosmology: false, per_block: 3 },
    RequestKind { name: "taxi-8k", n: 8_000, cosmology: false, per_block: 2 },
    RequestKind { name: "cosmo-8k", n: 8_000, cosmology: true, per_block: 2 },
];

/// Distinct inputs per request kind; requests cycle through them, so the
/// reference is computed once per input during set-up.
pub const VARIANTS: usize = 8;

/// Memory budget of the service device: the scaled-down V100 of the
/// scaling study (`fdbscan_bench::SCALING_MEMORY_BUDGET`), pinned here.
pub const SERVICE_MEMORY_BUDGET: usize = 256 << 20;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_mix_fills_a_block() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
        assert_eq!(SERVICE_KINDS.iter().map(|k| k.per_block).sum::<usize>(), 10);
        assert!((scaled_cosmo_eps(36_900_000) - 0.042).abs() < 1e-4);
    }
}
