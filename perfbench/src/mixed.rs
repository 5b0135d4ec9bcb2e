//! The `service-mixed` workload: two closed-loop clients sending small
//! default-policy requests of mixed size and dimension through one
//! `ClusterService` on a sequential, memory-budgeted device.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use fdbscan::{LadderLevel, Params, PointClass, RunStats};
use fdbscan_data::cosmology::default_snapshot;
use fdbscan_data::Dataset2;
use fdbscan_device::{Device, DeviceConfig, SpanRecord};
use fdbscan_geom::{Point, Point2, Point3};
use fdbscan_service::{
    ClusterRequest, ClusterResponse, ClusterService, ServiceConfig, ServiceError,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::batch::overhead_metrics;
use crate::check::Reference;
use crate::layers;
use crate::report::{median, metric, ms, peak_device_mb, quantile, ratio, Metric, Outcome};
use crate::spans::{dbscan_metrics, TraceSummary};
use crate::workloads::{RequestKind, SERVICE_KINDS, SERVICE_MEMORY_BUDGET, VARIANTS};

/// Closed-loop clients. Each runs its requests on its own thread (the
/// device pool is sequential), so clients plus workers stay within two
/// hardware threads.
const CLIENTS: usize = 2;
/// Set-ups per run (device and service construction plus one discarded
/// request); their median is `setup_s`.
const SETUP_REPEATS: usize = 9;
/// Length of the precomputed request order; clients wrap around it.
const SEQUENCE_LEN: usize = 10_000;

enum Points {
    Taxi(Vec<Point2>),
    Cosmology(Vec<Point3>),
}

/// One distinct request input with its reference clustering.
struct Input {
    points: Points,
    params: Params,
    reference: Reference,
}

impl Input {
    fn generate(kind: &RequestKind, seed: u64) -> Self {
        let params = kind.params(kind.n);
        let (points, reference) = if kind.cosmology {
            let points = default_snapshot(kind.n, seed);
            let reference = Reference::compute(&points, params);
            (Points::Cosmology(points), reference)
        } else {
            let points = Dataset2::PortoTaxi.generate(kind.n, seed);
            let reference = Reference::compute(&points, params);
            (Points::Taxi(points), reference)
        };
        Self { points, params, reference }
    }

    fn len(&self) -> usize {
        match &self.points {
            Points::Taxi(p) => p.len(),
            Points::Cosmology(p) => p.len(),
        }
    }

    fn execute(
        &self,
        service: &ClusterService,
    ) -> (Result<ClusterResponse, ServiceError>, Duration) {
        match &self.points {
            Points::Taxi(p) => send(service, p, self.params),
            Points::Cosmology(p) => send(service, p, self.params),
        }
    }
}

/// Sends one request, timed from `execute` entry to return. The points are
/// copied into the request before the clock starts.
fn send<const D: usize>(
    service: &ClusterService,
    points: &[Point<D>],
    params: Params,
) -> (Result<ClusterResponse, ServiceError>, Duration) {
    let request = ClusterRequest::new(points.to_vec(), params);
    let start = Instant::now();
    (service.execute(request), start.elapsed())
}

/// One finished request of a measured section.
struct Sent {
    input: usize,
    latency: Duration,
    result: Result<ClusterResponse, ServiceError>,
}

pub struct Mixed {
    /// `inputs[kind * VARIANTS + variant]`.
    inputs: Vec<Input>,
    /// Request order, as indices into `inputs`.
    sequence: Vec<usize>,
}

/// The input the per-layer functions are timed on: the first `taxi-8k`
/// variant, the largest 2-D request.
const LAYER_INPUT: usize = 2 * VARIANTS;

impl Mixed {
    pub fn generate(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let inputs = SERVICE_KINDS
            .iter()
            .flat_map(|kind| (0..VARIANTS).map(move |_| kind))
            .map(|kind| Input::generate(kind, rng.gen()))
            .collect();
        let mut block: Vec<usize> = SERVICE_KINDS
            .iter()
            .enumerate()
            .flat_map(|(k, kind)| std::iter::repeat_n(k, kind.per_block))
            .collect();
        let mut sequence = Vec::with_capacity(SEQUENCE_LEN);
        while sequence.len() < SEQUENCE_LEN {
            block.shuffle(&mut rng);
            for &k in &block {
                sequence.push(k * VARIANTS + rng.gen_range(0..VARIANTS));
            }
        }
        Self { inputs, sequence }
    }

    fn device_config() -> DeviceConfig {
        DeviceConfig::sequential().with_bvh_width(2).with_memory_budget(SERVICE_MEMORY_BUDGET)
    }

    fn setup(&self, config: DeviceConfig) -> (ClusterService, Duration) {
        let start = Instant::now();
        let service = ClusterService::new(Device::new(config), ServiceConfig::default());
        let (warm_up, _) = self.inputs[LAYER_INPUT].execute(&service);
        let elapsed = start.elapsed();
        if let Err(error) = warm_up {
            eprintln!("warm-up request failed: {error}");
        }
        (service, elapsed)
    }

    /// Runs the clients until `seconds` have passed; returns every
    /// finished request and the section's wall time.
    fn section(&self, service: &ClusterService, seconds: f64) -> (Vec<Sent>, Duration) {
        let next = AtomicUsize::new(0);
        let start = Instant::now();
        let sent: Vec<Sent> = std::thread::scope(|scope| {
            let clients: Vec<_> = (0..CLIENTS)
                .map(|_| {
                    scope.spawn(|| {
                        let mut mine = Vec::new();
                        while start.elapsed().as_secs_f64() < seconds {
                            let k = next.fetch_add(1, Ordering::Relaxed);
                            let input = self.sequence[k % self.sequence.len()];
                            let (result, latency) = self.inputs[input].execute(service);
                            mine.push((k, Sent { input, latency, result }));
                        }
                        mine
                    })
                })
                .collect();
            let mut all: Vec<(usize, Sent)> = clients
                .into_iter()
                .flat_map(|c| c.join().expect("client thread panicked"))
                .collect();
            all.sort_by_key(|(k, _)| *k);
            all.into_iter().map(|(_, s)| s).collect()
        });
        (sent, start.elapsed())
    }

    /// Checks every response; returns the failures and the points of the
    /// correct ones.
    fn check(&self, sent: &[Sent]) -> (u64, u64) {
        let (mut failed, mut clustered) = (0u64, 0u64);
        for (i, s) in sent.iter().enumerate() {
            let input = &self.inputs[s.input];
            let verdict = match &s.result {
                Ok(response) => input.reference.check(&response.clustering),
                Err(error) => Err(error.to_string()),
            };
            match verdict {
                Ok(()) => clustered += input.len() as u64,
                Err(why) => {
                    eprintln!("request {i} ({}): {why}", SERVICE_KINDS[s.input / VARIANTS].name);
                    failed += 1;
                }
            }
        }
        (failed, clustered)
    }

    /// The end-to-end metrics, measured with tracing off.
    pub fn run(&self, seconds: f64) -> Outcome {
        let mut setups = Vec::with_capacity(SETUP_REPEATS);
        let mut service = None;
        for _ in 0..SETUP_REPEATS {
            drop(service.take());
            let (fresh, elapsed) = self.setup(Self::device_config());
            setups.push(elapsed.as_secs_f64());
            service = Some(fresh);
        }
        let service = service.expect("at least one set-up");
        let (sent, wall) = self.section(&service, seconds);
        let (failed, clustered) = self.check(&sent);
        let latencies = latencies_ms(&sent);
        Outcome {
            correct: failed == 0,
            attempted: sent.len() as u64,
            failed,
            metrics: vec![
                metric("setup_s", median(&setups), "s"),
                metric("latency_p50_ms", median(&latencies), "ms"),
                metric("latency_p90_ms", quantile(&latencies, 0.9), "ms"),
                metric("throughput_pts_s", ratio(clustered as f64, wall.as_secs_f64()), "points/s"),
                peak_device_mb(responses(&sent).map(|r| r.stats.peak_memory_bytes)),
            ],
        }
    }

    /// The per-layer metrics: half the time untraced, half traced, then
    /// the per-layer function timings on the `taxi-8k` input.
    pub fn run_traced(&self, seconds: f64) -> Outcome {
        let (service, _) = self.setup(Self::device_config());
        let (untraced, _) = self.section(&service, seconds / 2.0);
        let (traced_service, _) = self.setup(Self::device_config().with_tracing());
        let tracer = traced_service.device().tracer();
        tracer.clear();
        let (traced, _) = self.section(&traced_service, seconds / 2.0);
        let mut by_request: HashMap<Option<u64>, Vec<SpanRecord>> = HashMap::new();
        for event in tracer.events() {
            by_request.entry(event.request_id).or_default().push(event);
        }
        let mut summary = TraceSummary::default();
        for s in &traced {
            if let Ok(response) = &s.result {
                let id = Some(response.request_id);
                let events = by_request.get(&id).map_or(&[][..], |e| e.as_slice());
                summary.add_call(events, id, &response.stats, s.latency);
            }
        }
        let shed = traced_service.stats().shed();
        drop(traced_service);

        let (untraced_failed, _) = self.check(&untraced);
        let (traced_failed, _) = self.check(&traced);
        let runs: Vec<RunStats> = responses(&traced).map(|r| r.stats.clone()).collect();
        let mut metrics = overhead_metrics(&latencies_ms(&untraced), &latencies_ms(&traced));
        metrics.extend(summary.metrics());
        metrics.extend(dbscan_metrics(&runs));
        let input = &self.inputs[LAYER_INPUT];
        let core: Vec<bool> =
            input.reference.clustering().classes.iter().map(|c| *c == PointClass::Core).collect();
        metrics.extend(match &input.points {
            Points::Taxi(p) => layers::measure(service.device(), p, input.params, &core),
            Points::Cosmology(p) => layers::measure(service.device(), p, input.params, &core),
        });
        metrics.extend(service_metrics(&traced, shed));
        for violation in &summary.violations {
            eprintln!("reconciliation: {violation}");
        }
        let failed = untraced_failed + traced_failed;
        Outcome {
            correct: failed == 0 && summary.violations.is_empty(),
            attempted: (untraced.len() + traced.len()) as u64,
            failed,
            metrics,
        }
    }
}

fn responses(sent: &[Sent]) -> impl Iterator<Item = &ClusterResponse> {
    sent.iter().filter_map(|s| s.result.as_ref().ok())
}

fn latencies_ms(sent: &[Sent]) -> Vec<f64> {
    sent.iter().filter(|s| s.result.is_ok()).map(|s| ms(s.latency)).collect()
}

/// Admission and ladder metrics of the traced section. The rung shares
/// make a change of the default rung visible as a count.
fn service_metrics(sent: &[Sent], shed: u64) -> Vec<Metric> {
    let done: Vec<&ClusterResponse> = responses(sent).collect();
    let queue_wait: Vec<f64> = done.iter().map(|r| ms(r.queue_wait)).collect();
    let exec: Vec<f64> = done.iter().map(|r| ms(r.total.saturating_sub(r.queue_wait))).collect();
    let share = |level: LadderLevel| {
        ratio(
            done.iter().filter(|r| r.report.completed == Some(level)).count() as f64,
            done.len() as f64,
        )
    };
    let attempts: usize = done.iter().map(|r| r.stats.attempts).sum();
    vec![
        metric("service.requests", done.len() as f64, "count"),
        metric("service.queue_wait_ms_p50", median(&queue_wait), "ms"),
        metric("service.exec_ms_p50", median(&exec), "ms"),
        metric("service.rung_gdbscan_frac", share(LadderLevel::GDbscan), "fraction"),
        metric("service.rung_densebox_frac", share(LadderLevel::DenseBox), "fraction"),
        metric("service.rung_fdbscan_frac", share(LadderLevel::Fdbscan), "fraction"),
        metric(
            "service.ladder_attempts",
            ratio(attempts as f64, done.len() as f64),
            "attempts/request",
        ),
        metric("service.shed", shed as f64, "count"),
    ]
}

/// The service metrics of a workload that sends no service requests.
pub fn absent_service_metrics() -> Vec<Metric> {
    service_metrics(&[], 0)
}
