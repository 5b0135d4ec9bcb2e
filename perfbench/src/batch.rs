//! The batch workloads (`halo-3d`, `taxi-2d`): one large clustering call
//! after another on one device.

use std::time::{Duration, Instant};

use fdbscan::{Clustering, Params, PointClass, RunStats};
use fdbscan_device::{Device, DeviceConfig, DeviceError};
use fdbscan_geom::Point;

use crate::check::Reference;
use crate::report::{median, metric, ms, peak_device_mb, quantile, ratio, Metric, Outcome};
use crate::spans::{dbscan_metrics, TraceSummary};
use crate::{layers, mixed};

/// Set-ups per run (device construction plus one discarded call); their
/// median is `setup_s`.
const SETUP_REPEATS: usize = 5;

pub type Algo<const D: usize> =
    fn(&Device, &[Point<D>], Params) -> Result<(Clustering, RunStats), DeviceError>;

pub struct Batch<'a, const D: usize> {
    pub algo: Algo<D>,
    pub points: &'a [Point<D>],
    pub params: Params,
    pub reference: &'a Reference,
    pub config: DeviceConfig,
}

/// The calls of one measured section.
#[derive(Default)]
struct Calls {
    latency_ms: Vec<f64>,
    /// Summed wall time of the calls (the checks between them excluded).
    busy: Duration,
    clustered_points: u64,
    attempted: u64,
    failed: u64,
    stats: Vec<RunStats>,
}

impl<const D: usize> Batch<'_, D> {
    /// Constructs a device and makes the discarded warm-up call: the
    /// one-time cost a user pays before the first useful result.
    fn setup(&self, config: DeviceConfig) -> (Device, Duration) {
        let start = Instant::now();
        let device = Device::new(config);
        let warm_up = (self.algo)(&device, self.points, self.params);
        let elapsed = start.elapsed();
        if let Err(error) = warm_up {
            eprintln!("warm-up call failed: {error}");
        }
        (device, elapsed)
    }

    /// Calls the algorithm until `seconds` have passed, timing each call
    /// from outside and checking each result against the reference.
    fn section(
        &self,
        device: &Device,
        seconds: f64,
        mut on_call: impl FnMut(&RunStats, Duration),
    ) -> Calls {
        let mut calls = Calls::default();
        let start = Instant::now();
        while calls.attempted == 0 || start.elapsed().as_secs_f64() < seconds {
            calls.attempted += 1;
            let call_start = Instant::now();
            let result = (self.algo)(device, self.points, self.params);
            let elapsed = call_start.elapsed();
            match result {
                Ok((clustering, stats)) => {
                    on_call(&stats, elapsed);
                    calls.latency_ms.push(ms(elapsed));
                    calls.busy += elapsed;
                    match self.reference.check(&clustering) {
                        Ok(()) => calls.clustered_points += self.points.len() as u64,
                        Err(mismatch) => {
                            eprintln!("call {}: wrong clustering: {mismatch}", calls.attempted);
                            calls.failed += 1;
                        }
                    }
                    calls.stats.push(stats);
                }
                Err(error) => {
                    eprintln!("call {} failed: {error}", calls.attempted);
                    calls.failed += 1;
                }
            }
        }
        calls
    }

    /// The end-to-end metrics, measured with tracing off.
    pub fn run(&self, seconds: f64) -> Outcome {
        let mut setups = Vec::with_capacity(SETUP_REPEATS);
        let mut device = None;
        for _ in 0..SETUP_REPEATS {
            drop(device.take());
            let (fresh, elapsed) = self.setup(self.config.clone());
            setups.push(elapsed.as_secs_f64());
            device = Some(fresh);
        }
        let device = device.expect("at least one set-up");
        let calls = self.section(&device, seconds, |_, _| {});
        Outcome {
            correct: calls.failed == 0,
            attempted: calls.attempted,
            failed: calls.failed,
            metrics: vec![
                metric("setup_s", median(&setups), "s"),
                metric("latency_p50_ms", median(&calls.latency_ms), "ms"),
                metric("latency_p90_ms", quantile(&calls.latency_ms, 0.9), "ms"),
                metric(
                    "throughput_pts_s",
                    ratio(calls.clustered_points as f64, calls.busy.as_secs_f64()),
                    "points/s",
                ),
                peak_device_mb(calls.stats.iter().map(|s| s.peak_memory_bytes)),
            ],
        }
    }

    /// The per-layer metrics: half the time untraced, half traced (their
    /// median latencies give the tracing overhead), then the per-layer
    /// function timings on the untraced device.
    pub fn run_traced(&self, seconds: f64) -> Outcome {
        let (device, _) = self.setup(self.config.clone());
        let untraced = self.section(&device, seconds / 2.0, |_, _| {});
        let (traced_device, _) = self.setup(self.config.clone().with_tracing());
        let tracer = traced_device.tracer();
        tracer.clear();
        let mut summary = TraceSummary::default();
        let traced = self.section(&traced_device, seconds / 2.0, |stats, elapsed| {
            summary.add_call(&tracer.events(), None, stats, elapsed);
            tracer.clear();
        });
        drop(traced_device);

        let core: Vec<bool> =
            self.reference.clustering().classes.iter().map(|c| *c == PointClass::Core).collect();
        let mut metrics = overhead_metrics(&untraced.latency_ms, &traced.latency_ms);
        metrics.extend(summary.metrics());
        metrics.extend(dbscan_metrics(&traced.stats));
        metrics.extend(layers::measure(&device, self.points, self.params, &core));
        metrics.extend(mixed::absent_service_metrics());
        for violation in &summary.violations {
            eprintln!("reconciliation: {violation}");
        }
        let failed = untraced.failed + traced.failed;
        Outcome {
            correct: failed == 0 && summary.violations.is_empty(),
            attempted: untraced.attempted + traced.attempted,
            failed,
            metrics,
        }
    }
}

/// `trace.overhead_frac` with the two medians it is computed from.
pub fn overhead_metrics(untraced_ms: &[f64], traced_ms: &[f64]) -> Vec<Metric> {
    let (untraced, traced) = (median(untraced_ms), median(traced_ms));
    vec![
        metric("trace.untraced_p50_ms", untraced, "ms"),
        metric("trace.traced_p50_ms", traced, "ms"),
        metric("trace.overhead_frac", ratio(traced, untraced) - 1.0, "fraction"),
    ]
}
