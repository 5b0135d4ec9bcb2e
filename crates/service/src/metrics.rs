//! Service telemetry: the metric catalog and SLO tracking.
//!
//! [`ServiceMetrics`] owns a [`MetricsRegistry`] and pre-registers every
//! instrument the request lifecycle touches, so the hot path never
//! takes the registry lock — each site holds its handle and a disabled
//! registry makes every update a single relaxed atomic load (see
//! [`fdbscan_device::metrics`]). [`crate::ServiceStats`] remains the
//! always-on source of truth for counts; this module is the gated
//! exposition layer adding latency histograms, SLO tracking, device
//! gauges, and the Prometheus text format.
//!
//! # Metric catalog
//!
//! Counters (monotonic):
//!
//! | name | labels | meaning |
//! |---|---|---|
//! | `fdbscan_requests_submitted_total` | | requests entering the service |
//! | `fdbscan_requests_admitted_total` | | requests granted a permit |
//! | `fdbscan_requests_completed_total` | | requests returning a clustering |
//! | `fdbscan_requests_degraded_total` | | completions on a lower ladder rung |
//! | `fdbscan_requests_deadline_exceeded_total` | | deadline failures (queue or run) |
//! | `fdbscan_requests_cancelled_total` | | client cancellations |
//! | `fdbscan_requests_rejected_invalid_total` | | non-finite input rejections |
//! | `fdbscan_requests_failed_total` | | device errors past the ladder |
//! | `fdbscan_requests_shed_total` | `cause` | sheds by cause: `queue_full`, `memory_pressure`, `deadline_in_queue` |
//! | `fdbscan_tenant_requests_total` | `tenant` | submissions per tenant (only tagged requests) |
//! | `fdbscan_ladder_attempts_total` | | resilience-ladder runs executed |
//! | `fdbscan_ladder_degradations_total` | | completions that stepped down a rung |
//! | `fdbscan_slo_budget_burn_total` | | finished requests over the latency target |
//!
//! Gauges (`*_ns` gauges are integer nanoseconds):
//!
//! | name | meaning |
//! |---|---|
//! | `fdbscan_requests_inflight` | requests holding a device concurrency slot |
//! | `fdbscan_slo_latency_target_ns` | configured p95 target |
//! | `fdbscan_slo_rolling_p95_ns` | e2e p95 over the window since the previous scrape |
//! | `fdbscan_gate_running` / `fdbscan_gate_queued` | admission-gate load (scrape-time) |
//! | `fdbscan_device_pool_active_launches` | kernels executing right now |
//! | `fdbscan_device_memory_in_use_bytes` / `_peak_bytes` / `_budget_bytes` | memory tracker |
//!
//! Histograms (log2 buckets; `_seconds` record nanoseconds, exposed in
//! seconds):
//!
//! | name | meaning |
//! |---|---|
//! | `fdbscan_request_queue_wait_seconds` | admission queue wait |
//! | `fdbscan_request_exec_seconds` | device execution (ladder included) |
//! | `fdbscan_request_e2e_seconds` | end-to-end latency of admitted or queue-expired requests |
//! | `fdbscan_preflight_available_bytes` | headroom seen by the memory preflight |
//!
//! `fdbscan_request_e2e_seconds` deliberately excludes queue-full /
//! memory-pressure / invalid-input rejections: those are instant
//! refusals, not serviced latency, and would drag p50 toward zero.

use std::time::Duration;

use fdbscan_device::{
    metrics::dump_path, Counter, Device, Gauge, HistogramSnapshot, MetricHistogram, MetricUnit,
    MetricsRegistry,
};

use crate::admission::AdmissionGate;

use parking_lot::Mutex;

/// The service's instrument handles plus SLO state. One per
/// [`crate::ClusterService`]; shared by its clones.
pub struct ServiceMetrics {
    registry: MetricsRegistry,
    // Request lifecycle counters.
    pub(crate) submitted: Counter,
    pub(crate) admitted: Counter,
    pub(crate) completed: Counter,
    pub(crate) degraded: Counter,
    pub(crate) deadline_exceeded: Counter,
    pub(crate) cancelled: Counter,
    pub(crate) rejected_invalid: Counter,
    pub(crate) failed: Counter,
    pub(crate) shed_queue_full: Counter,
    pub(crate) shed_memory_pressure: Counter,
    pub(crate) shed_deadline_in_queue: Counter,
    pub(crate) ladder_attempts: Counter,
    pub(crate) ladder_degradations: Counter,
    // Latency and preflight distributions.
    pub(crate) queue_wait: MetricHistogram,
    pub(crate) exec: MetricHistogram,
    e2e: MetricHistogram,
    pub(crate) preflight_available: MetricHistogram,
    // Live gauges.
    inflight: Gauge,
    // SLO tracking.
    slo_target: Gauge,
    slo_rolling_p95: Gauge,
    slo_budget_burn: Counter,
    p95_target_ns: u64,
    rolling_baseline: Mutex<HistogramSnapshot>,
    // Scrape-time device gauges.
    gate_running: Gauge,
    gate_queued: Gauge,
    pool_active: Gauge,
    memory_in_use: Gauge,
    memory_peak: Gauge,
    memory_budget: Gauge,
}

impl ServiceMetrics {
    /// Builds the catalog. `enabled = false` leaves every instrument a
    /// one-atomic-load no-op; the `FDBSCAN_METRICS_DUMP` environment
    /// variable force-enables (mirroring `FDBSCAN_TRACE` for tracing).
    pub fn new(enabled: bool, p95_target: Duration) -> Self {
        let registry = MetricsRegistry::new(enabled || dump_path().is_some());
        let c = |name: &str, help: &str| registry.counter(name, help);
        let g = |name: &str, help: &str| registry.gauge(name, help);
        let shed = |cause: &str| {
            registry.labeled_counter(
                "fdbscan_requests_shed_total",
                "Requests shed by the service, by cause.",
                "cause",
                cause,
            )
        };
        let p95_target_ns = p95_target.as_nanos().min(u64::MAX as u128) as u64;
        let metrics = Self {
            submitted: c("fdbscan_requests_submitted_total", "Requests entering the service."),
            admitted: c("fdbscan_requests_admitted_total", "Requests granted a permit."),
            completed: c("fdbscan_requests_completed_total", "Requests returning a clustering."),
            degraded: c(
                "fdbscan_requests_degraded_total",
                "Completions on a lower ladder rung than requested.",
            ),
            deadline_exceeded: c(
                "fdbscan_requests_deadline_exceeded_total",
                "Requests that exceeded their deadline (in queue or running).",
            ),
            cancelled: c("fdbscan_requests_cancelled_total", "Requests cancelled by the client."),
            rejected_invalid: c(
                "fdbscan_requests_rejected_invalid_total",
                "Requests rejected for non-finite input.",
            ),
            failed: c(
                "fdbscan_requests_failed_total",
                "Requests failed by a device error past the resilience ladder.",
            ),
            shed_queue_full: shed("queue_full"),
            shed_memory_pressure: shed("memory_pressure"),
            shed_deadline_in_queue: shed("deadline_in_queue"),
            ladder_attempts: c(
                "fdbscan_ladder_attempts_total",
                "Resilience-ladder runs executed across all requests.",
            ),
            ladder_degradations: c(
                "fdbscan_ladder_degradations_total",
                "Completions that stepped down at least one ladder rung.",
            ),
            queue_wait: registry.histogram(
                "fdbscan_request_queue_wait_seconds",
                "Time admitted requests spent blocked in the admission queue.",
                MetricUnit::Seconds,
            ),
            exec: registry.histogram(
                "fdbscan_request_exec_seconds",
                "Device execution time (resilience ladder included).",
                MetricUnit::Seconds,
            ),
            e2e: registry.histogram(
                "fdbscan_request_e2e_seconds",
                "End-to-end latency of admitted or queue-expired requests.",
                MetricUnit::Seconds,
            ),
            preflight_available: registry.histogram(
                "fdbscan_preflight_available_bytes",
                "Device-memory headroom observed by the admission preflight.",
                MetricUnit::Bytes,
            ),
            inflight: g("fdbscan_requests_inflight", "Requests holding a device concurrency slot."),
            slo_target: g(
                "fdbscan_slo_latency_target_ns",
                "Configured p95 latency target, in nanoseconds.",
            ),
            slo_rolling_p95: g(
                "fdbscan_slo_rolling_p95_ns",
                "e2e p95 (ns) over the window since the previous scrape.",
            ),
            slo_budget_burn: c(
                "fdbscan_slo_budget_burn_total",
                "Finished requests whose e2e latency exceeded the target.",
            ),
            p95_target_ns,
            rolling_baseline: Mutex::new(HistogramSnapshot::default()),
            gate_running: g("fdbscan_gate_running", "Requests holding an admission permit."),
            gate_queued: g("fdbscan_gate_queued", "Requests waiting in the admission queue."),
            pool_active: g(
                "fdbscan_device_pool_active_launches",
                "Kernel launches executing on the worker pool right now.",
            ),
            memory_in_use: g(
                "fdbscan_device_memory_in_use_bytes",
                "Device memory currently reserved.",
            ),
            memory_peak: g(
                "fdbscan_device_memory_peak_bytes",
                "High-water mark of reserved device memory.",
            ),
            memory_budget: g(
                "fdbscan_device_memory_budget_bytes",
                "Configured device memory budget (0 = unlimited).",
            ),
            registry,
        };
        metrics.slo_target.set(clamp_i64(p95_target_ns));
        metrics
    }

    /// Whether instruments record (one relaxed load).
    pub fn enabled(&self) -> bool {
        self.registry.enabled()
    }

    /// The underlying registry (for JSON snapshots or custom renders).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The configured p95 latency target.
    pub fn p95_target(&self) -> Duration {
        Duration::from_nanos(self.p95_target_ns)
    }

    /// Finished requests whose e2e latency exceeded the target.
    pub fn budget_burn(&self) -> u64 {
        self.slo_budget_burn.get()
    }

    /// Snapshot of the e2e latency histogram (interpolated quantiles
    /// via [`HistogramSnapshot::quantile`]).
    pub fn e2e_latency(&self) -> HistogramSnapshot {
        self.e2e.snapshot()
    }

    /// Records a terminal e2e latency observation and burns SLO budget
    /// if it exceeded the target. Called for every admitted or
    /// queue-expired request, whatever its outcome.
    pub(crate) fn finish(&self, e2e: Duration) {
        self.e2e.observe_duration(e2e);
        if e2e.as_nanos().min(u64::MAX as u128) as u64 > self.p95_target_ns {
            self.slo_budget_burn.inc();
        }
    }

    /// Bumps the per-tenant submission counter. Takes the registry lock
    /// on first sight of a tenant; skipped entirely when disabled.
    pub(crate) fn count_tenant(&self, tenant: &str) {
        if !self.registry.enabled() {
            return;
        }
        self.registry
            .labeled_counter(
                "fdbscan_tenant_requests_total",
                "Requests submitted, per tenant (only tagged requests).",
                "tenant",
                tenant,
            )
            .inc();
    }

    /// RAII inflight marker: increments the gauge now, decrements on
    /// drop — every exit path of `execute` balances automatically.
    pub(crate) fn inflight_guard(&self) -> InflightGuard<'_> {
        self.inflight.inc();
        InflightGuard { gauge: &self.inflight }
    }

    /// Current inflight gauge value (for leak assertions in tests).
    pub fn inflight(&self) -> i64 {
        self.inflight.get()
    }

    /// Samples scrape-time gauges from the device and the admission
    /// gate, and advances the rolling p95 window. Call before rendering
    /// (the service's render entry points do).
    pub fn sample(&self, device: &Device, gate: &AdmissionGate) {
        if !self.registry.enabled() {
            return;
        }
        let (running, queued) = gate.load();
        self.gate_running.set(clamp_i64(running as u64));
        self.gate_queued.set(clamp_i64(queued as u64));
        self.pool_active.set(clamp_i64(device.active_launches() as u64));
        let memory = device.memory();
        self.memory_in_use.set(clamp_i64(memory.in_use() as u64));
        self.memory_peak.set(clamp_i64(memory.peak() as u64));
        self.memory_budget.set(clamp_i64(memory.budget().unwrap_or(0) as u64));

        // Rolling p95: the e2e window since the previous sample. An
        // empty window keeps the previous figure (a quiet service
        // reports its last known latency, not zero).
        let current = self.e2e.snapshot();
        let mut baseline = self.rolling_baseline.lock();
        let window = current.since(&baseline);
        if window.count() > 0 {
            self.slo_rolling_p95.set(clamp_i64(window.quantile(0.95)));
        }
        *baseline = current;
    }

    /// Renders the Prometheus text exposition of the current registry
    /// state. Callers wanting fresh device gauges should go through
    /// [`crate::ClusterService::render_metrics`], which samples first.
    pub fn render_prometheus(&self) -> String {
        self.registry.render_prometheus()
    }
}

impl std::fmt::Debug for ServiceMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceMetrics")
            .field("enabled", &self.enabled())
            .field("p95_target", &self.p95_target())
            .finish()
    }
}

/// See [`ServiceMetrics::inflight_guard`].
pub(crate) struct InflightGuard<'a> {
    gauge: &'a Gauge,
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.gauge.dec();
    }
}

fn clamp_i64(value: u64) -> i64 {
    value.min(i64::MAX as u64) as i64
}
