//! Kernel costs from the device tracer, and the reconciliation of tracer
//! spans, `RunStats` phase times and the call time measured outside.
//!
//! Spans are attributed by request id and by time interval, not by the
//! recorded phase path: concurrent service requests share one tracer, and
//! its phase stack interleaves their paths.

use std::time::Duration;

use fdbscan::RunStats;
use fdbscan_device::{SpanKind, SpanRecord};

use crate::report::{metric, ratio, Metric};

/// Kernel labels reported per workload. A label a workload never launches
/// reads 0.
pub const KERNEL_LABELS: [&str; 10] = [
    "fdbscan.main_fused",
    "densebox.main_fused",
    "densebox.cell_union",
    "bvh.build_bottom_up",
    "sort.pipeline",
    "grid.directory",
    "uf.flatten",
    "gdbscan.degree",
    "gdbscan.fill",
    "gdbscan.bfs_level",
];

/// Labels submitted as one batched launch: the tracer records the batch as
/// a phase span over one kernel span per stage.
const BATCHED: [&str; 2] = ["sort.pipeline", "grid.directory"];

fn contains(outer: &SpanRecord, inner: &SpanRecord) -> bool {
    outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns
}

/// Kernel totals over the traced calls of a run.
#[derive(Default)]
pub struct TraceSummary {
    calls: u64,
    /// Per [`KERNEL_LABELS`] entry: summed span time, and the
    /// time-weighted occupancy numerator.
    ns: [f64; KERNEL_LABELS.len()],
    busy_occupancy: [f64; KERNEL_LABELS.len()],
    busy: [f64; KERNEL_LABELS.len()],
    pub violations: Vec<String>,
}

impl TraceSummary {
    /// Adds one call: `events` are the tracer events of the call (any
    /// others are filtered out by `request_id`), `stats` its `RunStats`,
    /// `outside` its wall time measured around the call.
    pub fn add_call(
        &mut self,
        events: &[SpanRecord],
        request_id: Option<u64>,
        stats: &RunStats,
        outside: Duration,
    ) {
        self.calls += 1;
        let events: Vec<&SpanRecord> =
            events.iter().filter(|e| e.request_id == request_id).collect();
        let kernels: Vec<&SpanRecord> =
            events.iter().copied().filter(|e| e.kind == SpanKind::Kernel).collect();
        let phase_spans = |label: &'static str| {
            events.iter().copied().filter(move |e| e.kind == SpanKind::Phase && e.label == label)
        };

        for (k, label) in KERNEL_LABELS.iter().enumerate() {
            // Kernel spans are leaves, so their duration is their self
            // time. A batch's time includes its stages (and the barriers
            // between them); its occupancy is that of its stage kernels.
            let (spans, stages): (Vec<&SpanRecord>, Vec<&SpanRecord>) = if BATCHED.contains(label) {
                let batches: Vec<&SpanRecord> = phase_spans(label).collect();
                let stages = kernels
                    .iter()
                    .copied()
                    .filter(|s| batches.iter().any(|b| contains(b, s)))
                    .collect();
                (batches, stages)
            } else {
                let own: Vec<&SpanRecord> =
                    kernels.iter().copied().filter(|e| e.label == *label).collect();
                (own.clone(), own)
            };
            self.ns[k] += spans.iter().map(|s| s.duration_ns() as f64).sum::<f64>();
            for s in stages {
                let busy = s.duration_ns() as f64;
                let occupancy = s.kernel.map_or(1.0, |m| m.occupancy());
                self.busy[k] += busy;
                self.busy_occupancy[k] += busy * occupancy;
            }
        }

        // Inequality 1: the kernels inside a phase fit in its RunStats
        // time. The last span of each phase belongs to the rung that
        // produced `stats` (a degraded ladder run records earlier rungs
        // first).
        let phases = [
            ("index", stats.index_time),
            ("preprocess", stats.preprocess_time),
            ("main", stats.main_time),
            ("finalize", stats.finalize_time),
        ];
        for (phase, time) in phases {
            let Some(span) = phase_spans(phase).max_by_key(|s| s.start_ns) else { continue };
            let inside: u64 =
                kernels.iter().filter(|k| contains(span, k)).map(|k| k.duration_ns()).sum();
            if inside as u128 > time.as_nanos() {
                self.violations.push(format!(
                    "{phase}: kernel spans {inside} ns > RunStats {} ns",
                    time.as_nanos()
                ));
            }
        }
        // Inequality 2: the phases fit in the call.
        let phase_sum: Duration = phases.iter().map(|(_, t)| *t).sum();
        if phase_sum > outside {
            self.violations.push(format!(
                "phases {} ns > call {} ns measured outside",
                phase_sum.as_nanos(),
                outside.as_nanos()
            ));
        }
    }

    /// `kernel.<label>.ms` (mean per call) and `kernel.<label>.occupancy`
    /// (busy-time weighted) for every label, plus the call count they
    /// are averaged over.
    pub fn metrics(&self) -> Vec<Metric> {
        let mut out = vec![metric("trace.calls", self.calls as f64, "count")];
        for (k, label) in KERNEL_LABELS.iter().enumerate() {
            out.push(metric(
                format!("kernel.{label}.ms"),
                ratio(self.ns[k], self.calls as f64) / 1e6,
                "ms",
            ));
            out.push(metric(
                format!("kernel.{label}.occupancy"),
                ratio(self.busy_occupancy[k], self.busy[k]),
                "fraction",
            ));
        }
        out
    }
}

/// Per-call means of the `RunStats` phase times and work counters, and
/// the ratios derived from them.
pub fn dbscan_metrics(runs: &[RunStats]) -> Vec<Metric> {
    let calls = runs.len() as f64;
    let mean = |f: &dyn Fn(&RunStats) -> f64| ratio(runs.iter().map(f).sum(), calls);
    let sum = |f: &dyn Fn(&RunStats) -> f64| runs.iter().map(f).sum::<f64>();
    let secs = |d: Duration| d.as_secs_f64();
    let c =
        |f: fn(&fdbscan_device::CountersSnapshot) -> u64| move |s: &RunStats| f(&s.counters) as f64;
    vec![
        metric("dbscan.index_ms", mean(&|s| secs(s.index_time)) * 1e3, "ms"),
        metric("dbscan.preprocess_ms", mean(&|s| secs(s.preprocess_time)) * 1e3, "ms"),
        metric("dbscan.main_ms", mean(&|s| secs(s.main_time)) * 1e3, "ms"),
        metric("dbscan.finalize_ms", mean(&|s| secs(s.finalize_time)) * 1e3, "ms"),
        metric("dbscan.kernel_launches", mean(&c(|k| k.kernel_launches)), "count"),
        metric("dbscan.distance_computations", mean(&c(|k| k.distance_computations)), "count"),
        metric("dbscan.bvh_nodes_visited", mean(&c(|k| k.bvh_nodes_visited)), "count"),
        metric("dbscan.neighbors_found", mean(&c(|k| k.neighbors_found)), "count"),
        metric("dbscan.unions", mean(&c(|k| k.unions)), "count"),
        metric("dbscan.finds", mean(&c(|k| k.finds)), "count"),
        metric("dbscan.label_cas", mean(&c(|k| k.label_cas)), "count"),
        metric("dbscan.dense_box_scans", mean(&c(|k| k.dense_box_scans)), "count"),
        metric(
            "dbscan.dense_fraction",
            mean(&|s| s.dense.map_or(0.0, |d| d.dense_fraction)),
            "fraction",
        ),
        // Above 1 when containment accepts neighbors without a distance
        // test.
        metric(
            "dbscan.hit_ratio",
            ratio(sum(&c(|k| k.neighbors_found)), sum(&c(|k| k.distance_computations))),
            "ratio",
        ),
        metric(
            "dbscan.main_ns_per_node",
            ratio(sum(&|s| secs(s.main_time)) * 1e9, sum(&c(|k| k.bvh_nodes_visited))),
            "ns",
        ),
    ]
}
