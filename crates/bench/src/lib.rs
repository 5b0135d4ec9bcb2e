#![warn(missing_docs)]

//! Shared harness for regenerating the paper's figures.
//!
//! Every quantitative artefact of the evaluation section (Fig. 4 panels
//! a–i, Fig. 6, Fig. 7, and the in-text structural claims) has a mode of
//! the `figures` binary that prints the full series as a table
//! (`cargo run -p fdbscan-bench --release --bin figures -- <id>`).
//!
//! This library holds the parameter tables (the paper's values, §5.1 and
//! §5.2, with sizes scaled by `--scale`), the algorithm dispatch, and the
//! cosmology `eps` rescaling rule.

pub mod dist_bench;
pub mod hotpaths;
pub mod service_bench;
pub mod wallclock;

use std::io::Write;
use std::path::Path;

use fdbscan::baselines::{cuda_dclust, gdbscan};
use fdbscan::{fdbscan, fdbscan_densebox, Clustering, Params, RunReport, RunStats};
use fdbscan_data::Dataset2;
use fdbscan_device::json::Json;
use fdbscan_device::{Device, DeviceError};
use fdbscan_geom::{Point2, Point3};

/// The four GPU algorithms of the §5.1 comparison, in the paper's order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algo {
    /// CUDA-DClust (Böhm et al. 2009), chain expansion baseline.
    CudaDclust,
    /// G-DBSCAN (Andrade et al. 2013), adjacency-graph baseline.
    GDbscan,
    /// FDBSCAN (the paper's §4.1 contribution).
    Fdbscan,
    /// FDBSCAN-DenseBox (the paper's §4.2 contribution).
    FdbscanDenseBox,
}

impl Algo {
    /// All four, in the paper's plotting order.
    pub const ALL: [Algo; 4] =
        [Algo::CudaDclust, Algo::GDbscan, Algo::Fdbscan, Algo::FdbscanDenseBox];

    /// The two tree-based algorithms (the paper's contribution; the only
    /// series in Figs. 6 and 7).
    pub const TREE: [Algo; 2] = [Algo::Fdbscan, Algo::FdbscanDenseBox];

    /// Display name matching the paper's legends.
    pub fn name(self) -> &'static str {
        match self {
            Algo::CudaDclust => "cuda-dclust",
            Algo::GDbscan => "g-dbscan",
            Algo::Fdbscan => "fdbscan",
            Algo::FdbscanDenseBox => "fdbscan-densebox",
        }
    }

    /// Runs the algorithm on 2-D data.
    pub fn run2(
        self,
        device: &Device,
        points: &[Point2],
        params: Params,
    ) -> Result<(Clustering, RunStats), DeviceError> {
        match self {
            Algo::CudaDclust => cuda_dclust(device, points, params),
            Algo::GDbscan => gdbscan(device, points, params),
            Algo::Fdbscan => fdbscan(device, points, params),
            Algo::FdbscanDenseBox => fdbscan_densebox(device, points, params),
        }
    }

    /// Runs the algorithm on 3-D data.
    pub fn run3(
        self,
        device: &Device,
        points: &[Point3],
        params: Params,
    ) -> Result<(Clustering, RunStats), DeviceError> {
        match self {
            Algo::CudaDclust => cuda_dclust(device, points, params),
            Algo::GDbscan => gdbscan(device, points, params),
            Algo::Fdbscan => fdbscan(device, points, params),
            Algo::FdbscanDenseBox => fdbscan_densebox(device, points, params),
        }
    }
}

/// Fig. 4(a)(b)(c): fixed eps per dataset, minpts swept, n = 16384.
pub fn fig4_minpts_config(kind: Dataset2) -> (f32, Vec<usize>) {
    let eps = match kind {
        Dataset2::Ngsim => 0.005,
        Dataset2::PortoTaxi => 0.01,
        Dataset2::RoadNetwork => 0.08,
    };
    (eps, vec![5, 10, 50, 100, 500])
}

/// Fig. 4(d)(e)(f): fixed minpts per dataset, eps swept, n = 16384.
pub fn fig4_eps_config(kind: Dataset2) -> (usize, Vec<f32>) {
    match kind {
        Dataset2::Ngsim => (500, vec![0.00125, 0.0025, 0.005, 0.01, 0.02]),
        Dataset2::PortoTaxi => (50, vec![0.0025, 0.005, 0.01, 0.02, 0.04]),
        Dataset2::RoadNetwork => (100, vec![0.02, 0.04, 0.08, 0.16, 0.32]),
    }
}

/// Fig. 4(g)(h)(i): fixed (minpts, eps) per dataset, n swept (log scale).
pub fn fig4_scaling_config(kind: Dataset2) -> (usize, f32) {
    match kind {
        Dataset2::Ngsim => (500, 0.0025),
        Dataset2::PortoTaxi => (1000, 0.05),
        Dataset2::RoadNetwork => (100, 0.01),
    }
}

/// The paper's §5.2 `eps` was physics-derived for a 36.9 M-particle rank
/// in a 64 Mpc/h box. At `n` particles in the same volume the equivalent
/// radius (same mean neighbor expectation) scales with the mean
/// interparticle spacing, i.e. with `(36.9e6 / n)^(1/3)`.
pub fn scaled_cosmo_eps(n: usize) -> f32 {
    0.042 * (36.9e6 / n as f64).cbrt() as f32
}

/// Fig. 6: minpts sweep at the (scaled) physics eps.
pub fn fig6_minpts_values() -> Vec<usize> {
    vec![2, 5, 10, 50, 100, 300]
}

/// Fig. 7: eps sweep at minpts = 5, from the physics eps up to ~24x
/// (the paper goes 0.042 -> 1.0).
pub fn fig7_eps_values(n: usize) -> Vec<f32> {
    let base = scaled_cosmo_eps(n);
    [1.0f32, 2.0, 4.0, 8.0, 16.0, 24.0].iter().map(|m| base * m).collect()
}

/// Memory budget used for the scaling figure: a scaled-down V100. The
/// paper's 16 GiB held ~131 k points of adjacency graph for PortoTaxi
/// before G-DBSCAN died; this budget reproduces the OOM at the scaled
/// sizes.
pub const SCALING_MEMORY_BUDGET: usize = 256 << 20;

/// Formats a run result cell: time in ms, or the failure kind. Faults
/// other than OOM ("ERR") keep the table generation alive — the series
/// continues with the next configuration, like the paper's missing
/// Fig. 4(h) data points.
pub fn cell(result: &Result<(Clustering, RunStats), DeviceError>) -> String {
    match result {
        Ok((_, stats)) => format!("{:.1}", stats.total_ms()),
        Err(DeviceError::OutOfMemory { .. }) => "OOM".to_string(),
        Err(_) => "ERR".to_string(),
    }
}

/// Schema tag of the JSON document [`BenchReport::write`] produces.
pub const BENCH_REPORT_SCHEMA: &str = "fdbscan.bench_figures.v1";

/// Collects one [`RunReport`] per benchmark run for the `--json` output
/// of the `figures` binary. Failures are recorded with explicit `"oom"`
/// / `"error"` status fields instead of being dropped, mirroring the
/// text tables' OOM/ERR cells.
#[derive(Default)]
pub struct BenchReport {
    runs: Vec<RunReport>,
}

impl BenchReport {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one run of `algorithm` over `n` points of `dataset` in the
    /// series of `figure`.
    pub fn record(
        &mut self,
        figure: &str,
        dataset: &str,
        algorithm: &str,
        n: usize,
        params: Params,
        result: &Result<(Clustering, RunStats), DeviceError>,
    ) {
        let report = match result {
            Ok((_, stats)) => RunReport::success(algorithm, dataset, n, params, stats.clone()),
            Err(err) => RunReport::failure(algorithm, dataset, n, params, err),
        };
        self.runs.push(report.with_figure(figure));
    }

    /// Number of recorded runs.
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Serializes the full report as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::str(BENCH_REPORT_SCHEMA)),
            ("runs", Json::Arr(self.runs.iter().map(|r| r.to_json()).collect())),
        ])
    }

    /// Writes the report as pretty-printed JSON to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut file = std::fs::File::create(path)?;
        file.write_all(self.to_json().to_pretty(2).as_bytes())?;
        file.write_all(b"\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algo_dispatch_runs() {
        let device = Device::with_defaults();
        let points = Dataset2::RoadNetwork.generate(300, 1);
        for algo in Algo::ALL {
            let (c, _) = algo.run2(&device, &points, Params::new(0.08, 5)).unwrap();
            assert_eq!(c.len(), 300, "{}", algo.name());
        }
    }

    #[test]
    fn scaled_eps_matches_paper_at_full_size() {
        let full = scaled_cosmo_eps(36_900_000);
        assert!((full - 0.042).abs() < 1e-4, "got {full}");
        // Fewer particles => larger spacing => larger eps.
        assert!(scaled_cosmo_eps(100_000) > full);
    }

    #[test]
    fn configs_cover_all_datasets() {
        for kind in Dataset2::ALL {
            let (eps, minpts) = fig4_minpts_config(kind);
            assert!(eps > 0.0 && !minpts.is_empty());
            let (mp, epss) = fig4_eps_config(kind);
            assert!(mp >= 2 && !epss.is_empty());
            let (mp2, eps2) = fig4_scaling_config(kind);
            assert!(mp2 >= 2 && eps2 > 0.0);
        }
    }

    #[test]
    fn cell_formats_oom() {
        let err: Result<(Clustering, RunStats), DeviceError> =
            Err(DeviceError::OutOfMemory { requested: 1, in_use: 0, budget: 0 });
        assert_eq!(cell(&err), "OOM");
    }

    #[test]
    fn bench_report_records_status_explicitly() {
        let mut report = BenchReport::new();
        let ok: Result<(Clustering, RunStats), DeviceError> =
            Ok((Clustering::from_union_find(&[], &[]), RunStats::default()));
        let oom: Result<(Clustering, RunStats), DeviceError> =
            Err(DeviceError::OutOfMemory { requested: 8, in_use: 0, budget: 4 });
        let params = Params::new(0.1, 5);
        report.record("fig4-minpts", "ngsim", "fdbscan", 100, params, &ok);
        report.record("fig4-scaling", "porto-taxi", "g-dbscan", 4096, params, &oom);
        assert_eq!(report.len(), 2);
        let text = report.to_json().to_pretty(2);
        let parsed = fdbscan_device::json::parse(&text).unwrap();
        assert_eq!(parsed.get("schema").unwrap().as_str(), Some(BENCH_REPORT_SCHEMA));
        let runs = parsed.get("runs").unwrap().as_arr().unwrap();
        assert_eq!(runs[0].get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(runs[1].get("status").unwrap().as_str(), Some("oom"));
        assert_eq!(runs[1].get("figure").unwrap().as_str(), Some("fig4-scaling"));
        assert!(runs[1].get("stats").is_none(), "failed runs carry no stats");
    }

    #[test]
    fn cell_formats_other_faults_as_err() {
        let panicked: Result<(Clustering, RunStats), DeviceError> =
            Err(DeviceError::KernelPanicked { launch: 3, payload: "boom".into() });
        assert_eq!(cell(&panicked), "ERR");
        let timeout: Result<(Clustering, RunStats), DeviceError> =
            Err(DeviceError::KernelTimeout {
                launch: 1,
                elapsed: std::time::Duration::from_secs(1),
            });
        assert_eq!(cell(&timeout), "ERR");
    }
}
