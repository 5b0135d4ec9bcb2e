//! Hot-path work accounting for the bench-regression gate.
//!
//! The optimizations this repo layers onto the traversal hot path
//! (stackless rope traversal, SoA leaf tests, containment fast path,
//! fused main kernels) are all justified by *work counters*: distance
//! computations, BVH node visits, kernel launches. This module pins
//! those counters on a fixed algorithm × dataset matrix so a regression
//! — a change that silently re-inflates the hot path — fails a test
//! instead of shipping.
//!
//! Counters are collected on a **sequential** device
//! ([`fdbscan_device::DeviceConfig::sequential`]): DenseBox's same-set
//! short-circuit makes distance counts depend on union timing, so only
//! the single-worker schedule is run-to-run reproducible. Wall time is
//! machine-dependent and is not recorded here; the `perfbench`
//! benchmark measures it.
//!
//! Regenerate the checked-in baseline with:
//!
//! ```sh
//! cargo run --release -p fdbscan-bench --bin hotpaths -- BENCH_hotpaths.json
//! ```

use std::path::Path;

use fdbscan::{Params, RunStats};
use fdbscan_data::cosmology::default_snapshot;
use fdbscan_data::Dataset2;
use fdbscan_device::json::Json;
use fdbscan_device::{Device, DeviceConfig};

use crate::Algo;

/// Schema tag of the document [`HotpathsReport::write`] produces.
pub const HOTPATHS_SCHEMA: &str = "fdbscan.bench_hotpaths.v3";

/// Dataset seed shared by every case, so the matrix is one deterministic
/// function of this file.
pub const HOTPATHS_SEED: u64 = 42;

/// The work counters the regression gate guards, in serialization order.
pub const GUARDED_COUNTERS: [&str; 3] =
    ["kernel_launches", "distance_computations", "bvh_nodes_visited"];

/// Phase keys of the per-phase launch breakdown, in serialization order.
pub const PHASE_KEYS: [&str; 4] = ["index", "preprocess", "main", "finalize"];

/// One cell of the hot-path matrix.
#[derive(Clone, Debug)]
pub struct HotpathCase {
    /// Algorithm under measurement.
    pub algo: Algo,
    /// Dataset name as it appears in the report.
    pub dataset: &'static str,
    /// Number of points.
    pub n: usize,
    /// DBSCAN parameters.
    pub params: Params,
}

impl HotpathCase {
    /// Stable identifier (`algorithm/dataset`), the join key between a
    /// fresh run and the checked-in baseline.
    pub fn id(&self) -> String {
        format!("{}/{}", self.algo.name(), self.dataset)
    }
}

/// The fixed matrix: all four algorithms over the three 2-D families,
/// plus the two tree-based algorithms over the 3-D cosmology snapshot.
/// Sizes are modest so the suite stays cheap in debug builds; the
/// counters are exact, not sampled, so small n still pins the hot path.
pub fn hotpath_matrix() -> Vec<HotpathCase> {
    let mut cases = Vec::new();
    for kind in Dataset2::ALL {
        let params = match kind {
            Dataset2::Ngsim => Params::new(0.005, 20),
            Dataset2::PortoTaxi => Params::new(0.01, 20),
            Dataset2::RoadNetwork => Params::new(0.08, 20),
        };
        for algo in Algo::ALL {
            cases.push(HotpathCase { algo, dataset: kind.name(), n: 2000, params });
        }
    }
    let cosmo_eps = crate::scaled_cosmo_eps(4000);
    for algo in Algo::TREE {
        cases.push(HotpathCase {
            algo,
            dataset: "cosmology",
            n: 4000,
            params: Params::new(cosmo_eps, 5),
        });
    }
    cases
}

/// Work counters of one executed case.
#[derive(Clone, Debug)]
pub struct HotpathRecord {
    /// The matrix cell this record measured.
    pub case: HotpathCase,
    /// Guarded totals, keyed like [`GUARDED_COUNTERS`].
    pub work: [(&'static str, u64); 3],
    /// Per-phase (index, preprocess, main, finalize) kernel launches —
    /// recorded so a fusion regression that moves launches between
    /// phases is visible, guarded via the total.
    pub phase_launches: [u64; 4],
}

impl HotpathRecord {
    fn from_stats(case: HotpathCase, stats: &RunStats) -> Self {
        let c = &stats.counters;
        let p = &stats.phase_counters;
        Self {
            case,
            work: [
                ("kernel_launches", c.kernel_launches),
                ("distance_computations", c.distance_computations),
                ("bvh_nodes_visited", c.bvh_nodes_visited),
            ],
            phase_launches: [
                p.index.kernel_launches,
                p.preprocess.kernel_launches,
                p.main.kernel_launches,
                p.finalize.kernel_launches,
            ],
        }
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("id", Json::str(self.case.id())),
            ("algorithm", Json::str(self.case.algo.name())),
            ("dataset", Json::str(self.case.dataset)),
            ("n", Json::U64(self.case.n as u64)),
            ("eps", Json::f32(self.case.params.eps)),
            ("minpts", Json::U64(self.case.params.minpts as u64)),
            ("work", Json::obj(self.work.iter().map(|&(k, v)| (k, Json::U64(v))))),
            (
                "phase_launches",
                Json::obj(
                    PHASE_KEYS.iter().zip(self.phase_launches).map(|(&k, v)| (k, Json::U64(v))),
                ),
            ),
        ])
    }
}

/// The full hot-path report: one [`HotpathRecord`] per matrix cell.
#[derive(Clone, Debug, Default)]
pub struct HotpathsReport {
    /// Executed records, in [`hotpath_matrix`] order.
    pub records: Vec<HotpathRecord>,
}

/// Runs the whole [`hotpath_matrix`] on a sequential device and returns
/// the report. Panics if any run fails — every cell is sized to fit an
/// unbudgeted device.
pub fn collect_hotpaths() -> HotpathsReport {
    let mut records = Vec::new();
    for case in hotpath_matrix() {
        let device = Device::new(DeviceConfig::sequential());
        let stats = if case.dataset == "cosmology" {
            let points = default_snapshot(case.n, HOTPATHS_SEED);
            case.algo.run3(&device, &points, case.params)
        } else {
            let kind = Dataset2::ALL
                .into_iter()
                .find(|k| k.name() == case.dataset)
                .expect("2-D case names a known dataset");
            let points = kind.generate(case.n, HOTPATHS_SEED);
            case.algo.run2(&device, &points, case.params)
        };
        let (_, stats) = stats.unwrap_or_else(|e| panic!("{} failed: {e}", case.id()));
        records.push(HotpathRecord::from_stats(case, &stats));
    }
    HotpathsReport { records }
}

impl HotpathsReport {
    /// Serializes the report (schema [`HOTPATHS_SCHEMA`]).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::str(HOTPATHS_SCHEMA)),
            ("seed", Json::U64(HOTPATHS_SEED)),
            ("cases", Json::Arr(self.records.iter().map(|r| r.to_json()).collect())),
        ])
    }

    /// Writes the report as pretty-printed JSON to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, format!("{}\n", self.to_json().to_pretty(2)))
    }
}

/// A parsed baseline: guarded counters and the per-phase launch
/// breakdown per case id, straight from a checked-in
/// `BENCH_hotpaths.json`.
#[derive(Clone, Debug)]
pub struct HotpathsBaseline {
    /// `(case id, [(counter name, value); 3])` in file order.
    pub cases: Vec<(String, Vec<(String, u64)>)>,
    /// `(case id, [(phase name, launches); 4])` in file order, keyed
    /// like [`PHASE_KEYS`].
    pub phase_launches: Vec<(String, Vec<(String, u64)>)>,
}

impl HotpathsBaseline {
    /// Parses a baseline document, validating the schema tag.
    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = fdbscan_device::json::parse(text).map_err(|e| format!("bad JSON: {e:?}"))?;
        let schema = doc.get("schema").and_then(|s| s.as_str());
        if schema != Some(HOTPATHS_SCHEMA) {
            return Err(format!("schema mismatch: expected {HOTPATHS_SCHEMA}, got {schema:?}"));
        }
        let mut cases = Vec::new();
        let mut phase_launches = Vec::new();
        for case in doc.get("cases").and_then(|c| c.as_arr()).ok_or("missing 'cases' array")? {
            let id =
                case.get("id").and_then(|v| v.as_str()).ok_or("case without 'id'")?.to_string();
            let work = case.get("work").ok_or_else(|| format!("case {id} without 'work'"))?;
            let counters = GUARDED_COUNTERS
                .iter()
                .map(|&name| {
                    work.get(name)
                        .and_then(|v| v.as_f64())
                        .map(|v| (name.to_string(), v as u64))
                        .ok_or_else(|| format!("case {id} missing counter {name}"))
                })
                .collect::<Result<Vec<_>, String>>()?;
            let phases = case
                .get("phase_launches")
                .ok_or_else(|| format!("case {id} without 'phase_launches'"))?;
            let launches = PHASE_KEYS
                .iter()
                .map(|&name| {
                    phases
                        .get(name)
                        .and_then(|v| v.as_f64())
                        .map(|v| (name.to_string(), v as u64))
                        .ok_or_else(|| format!("case {id} missing phase {name}"))
                })
                .collect::<Result<Vec<_>, String>>()?;
            cases.push((id.clone(), counters));
            phase_launches.push((id, launches));
        }
        Ok(Self { cases, phase_launches })
    }

    /// Guarded counters for one case id, if present.
    pub fn case(&self, id: &str) -> Option<&[(String, u64)]> {
        self.cases.iter().find(|(cid, _)| cid == id).map(|(_, c)| c.as_slice())
    }

    /// Per-phase launch counts for one case id, if present.
    pub fn phases(&self, id: &str) -> Option<&[(String, u64)]> {
        self.phase_launches.iter().find(|(cid, _)| cid == id).map(|(_, p)| p.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_is_fixed_and_ids_unique() {
        let matrix = hotpath_matrix();
        assert_eq!(matrix.len(), 14, "3 datasets x 4 algos + cosmology x 2");
        let mut ids: Vec<String> = matrix.iter().map(|c| c.id()).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 14, "case ids must be unique join keys");
    }

    #[test]
    fn report_round_trips_through_baseline_parser() {
        let stats = RunStats::default();
        let case = hotpath_matrix().remove(0);
        let id = case.id();
        let report = HotpathsReport { records: vec![HotpathRecord::from_stats(case, &stats)] };
        let baseline = HotpathsBaseline::parse(&report.to_json().to_pretty(2)).unwrap();
        let counters = baseline.case(&id).expect("case survives the round trip");
        assert_eq!(counters.len(), GUARDED_COUNTERS.len());
        for ((name, value), expected) in counters.iter().zip(GUARDED_COUNTERS) {
            assert_eq!(name, expected);
            assert_eq!(*value, 0, "default stats carry zero counters");
        }
        let phases = baseline.phases(&id).expect("phase launches survive the round trip");
        assert_eq!(phases.len(), PHASE_KEYS.len());
        for ((name, value), expected) in phases.iter().zip(PHASE_KEYS) {
            assert_eq!(name, expected);
            assert_eq!(*value, 0, "default stats carry zero launches");
        }
    }

    #[test]
    fn baseline_parser_rejects_wrong_schema() {
        let err =
            HotpathsBaseline::parse(r#"{"schema": "something.else", "cases": []}"#).unwrap_err();
        assert!(err.contains("schema mismatch"), "{err}");
    }

    #[test]
    fn sequential_collection_is_reproducible_for_one_case() {
        // The full matrix runs in the bench_regression integration test;
        // here just pin that the same case yields identical guarded
        // counters across two sequential devices.
        let case = &hotpath_matrix()[0];
        let points = Dataset2::Ngsim.generate(500, HOTPATHS_SEED);
        let run = || {
            let device = Device::new(DeviceConfig::sequential());
            let (_, stats) = case.algo.run2(&device, &points, case.params).unwrap();
            HotpathRecord::from_stats(case.clone(), &stats).work
        };
        assert_eq!(run(), run());
    }
}
