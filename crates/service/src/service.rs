//! The clustering service proper: request lifecycle over a shared
//! device.
//!
//! One request flows: validate → admit ([`crate::AdmissionGate`]) →
//! memory preflight → run ([`fdbscan::run_resilient`] on a
//! [`CancelToken`]-scoped device clone) → release. Every stage can
//! reject with a typed [`ServiceError`], and every rejection path
//! releases whatever it held — the shared device ends every request,
//! successful or not, with zero leaked reservations.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fdbscan::resilient::estimate_fdbscan_bytes;
use fdbscan::{
    find_non_finite, run_resilient, Clustering, Params, ResiliencePolicy, ResilienceReport,
    RunStats,
};
use fdbscan_device::{CancelToken, Device, DeviceError};
use fdbscan_geom::Point;

use crate::admission::AdmissionGate;
use crate::error::{OverloadReason, ServiceError};
use crate::metrics::ServiceMetrics;

/// Service sizing knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Requests allowed on the device simultaneously. Like concurrent
    /// streams on one GPU: more overlap hides latency until the pool
    /// saturates. Must be nonzero.
    pub max_concurrency: usize,
    /// Requests allowed to wait beyond the concurrency cap before the
    /// service sheds load. Zero disables queueing entirely.
    pub queue_depth: usize,
    /// Enables the telemetry registry ([`crate::ServiceMetrics`]).
    /// When `false` (the default) every instrument site costs one
    /// relaxed atomic load; the `FDBSCAN_METRICS_DUMP` environment
    /// variable force-enables regardless.
    pub metrics: bool,
    /// p95 latency target for SLO tracking: finished requests slower
    /// than this burn error budget (`fdbscan_slo_budget_burn_total`).
    pub p95_target: Duration,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            max_concurrency: 4,
            queue_depth: 16,
            metrics: false,
            p95_target: Duration::from_secs(5),
        }
    }
}

impl ServiceConfig {
    /// Sets the concurrency cap.
    pub fn with_max_concurrency(mut self, n: usize) -> Self {
        self.max_concurrency = n;
        self
    }

    /// Sets the queue bound.
    pub fn with_queue_depth(mut self, n: usize) -> Self {
        self.queue_depth = n;
        self
    }

    /// Enables (or disables) the telemetry registry.
    pub fn with_metrics(mut self, enabled: bool) -> Self {
        self.metrics = enabled;
        self
    }

    /// Sets the p95 latency target for SLO tracking.
    pub fn with_p95_target(mut self, target: Duration) -> Self {
        self.p95_target = target;
        self
    }
}

/// One clustering request. Built with [`ClusterRequest::new`] plus the
/// `with_*` modifiers.
#[derive(Clone, Debug)]
pub struct ClusterRequest<const D: usize> {
    /// The points to cluster (owned: a submitted request outlives the
    /// caller's borrow).
    pub points: Vec<Point<D>>,
    /// DBSCAN parameters.
    pub params: Params,
    /// Latency budget from admission entry; `None` = no deadline.
    pub deadline: Option<Duration>,
    /// Degradation policy for this request's resilience ladder.
    pub policy: ResiliencePolicy,
    /// Client-held cancellation handle; `None` = not cancellable.
    pub cancel: Option<CancelToken>,
    /// Tenant attribution for the `fdbscan_tenant_requests_total`
    /// metric family; `None` = unattributed.
    pub tenant: Option<String>,
}

impl<const D: usize> ClusterRequest<D> {
    /// A request with default policy, no deadline, no cancel handle.
    pub fn new(points: Vec<Point<D>>, params: Params) -> Self {
        Self {
            points,
            params,
            deadline: None,
            policy: ResiliencePolicy::default(),
            cancel: None,
            tenant: None,
        }
    }

    /// Sets a latency budget (measured from when `execute`/`submit`
    /// picks the request up).
    pub fn with_deadline(mut self, budget: Duration) -> Self {
        self.deadline = Some(budget);
        self
    }

    /// Sets the resilience ladder policy.
    pub fn with_policy(mut self, policy: ResiliencePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Attaches a client-held [`CancelToken`]; cancelling it abandons
    /// the request at the next cancellation point (queue poll, kernel
    /// launch boundary, ladder rung boundary).
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Attributes the request to a tenant for per-tenant metrics.
    pub fn with_tenant(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = Some(tenant.into());
        self
    }

    /// The effective per-request token: the client's handle (if any)
    /// deadline-capped by the request's budget (if any).
    fn effective_token(&self, now: Instant) -> CancelToken {
        match (&self.cancel, self.deadline) {
            (Some(token), Some(budget)) => token.with_deadline_capped(now + budget),
            (Some(token), None) => token.clone(),
            (None, Some(budget)) => CancelToken::with_deadline(now + budget),
            (None, None) => CancelToken::new(),
        }
    }
}

/// A successful request's result.
#[derive(Clone, Debug)]
pub struct ClusterResponse {
    /// The clustering.
    pub clustering: Clustering,
    /// Run statistics of the winning ladder rung (includes
    /// [`RunStats::attempts`]).
    pub stats: RunStats,
    /// Full ladder history (retries, skips, degradations).
    pub report: ResilienceReport,
    /// Time spent blocked in the admission queue.
    pub queue_wait: Duration,
    /// End-to-end service time (queue wait + preflight + run).
    pub total: Duration,
    /// Service-assigned request id: minted at submission, carried on
    /// the request's [`CancelToken`], stamped into every trace span the
    /// run emits and into [`RunStats::request_id`].
    pub request_id: u64,
}

/// Monotonic service-wide counters (all requests, all outcomes).
#[derive(Debug, Default)]
pub struct ServiceStats {
    submitted: AtomicU64,
    admitted: AtomicU64,
    completed: AtomicU64,
    degraded: AtomicU64,
    shed_queue_full: AtomicU64,
    shed_memory_pressure: AtomicU64,
    deadline_expired_in_queue: AtomicU64,
    deadline_exceeded: AtomicU64,
    cancelled: AtomicU64,
    rejected_invalid: AtomicU64,
    failed: AtomicU64,
}

/// Point-in-time copy of [`ServiceStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStatsSnapshot {
    /// Requests that entered the service.
    pub submitted: u64,
    /// Requests that passed admission (got a permit).
    pub admitted: u64,
    /// Requests that returned a clustering.
    pub completed: u64,
    /// Completed requests that finished on a lower ladder rung than
    /// they started on.
    pub degraded: u64,
    /// Requests shed with [`OverloadReason::QueueFull`].
    pub shed_queue_full: u64,
    /// Requests shed with [`OverloadReason::MemoryPressure`].
    pub shed_memory_pressure: u64,
    /// Requests whose deadline expired while waiting in the admission
    /// queue (a subset of `deadline_exceeded`).
    pub deadline_expired_in_queue: u64,
    /// Requests that failed with [`ServiceError::DeadlineExceeded`]
    /// anywhere (queue or execution).
    pub deadline_exceeded: u64,
    /// Requests that failed with [`ServiceError::Cancelled`].
    pub cancelled: u64,
    /// Requests rejected with [`ServiceError::InvalidInput`].
    pub rejected_invalid: u64,
    /// Requests that failed with [`ServiceError::Device`].
    pub failed: u64,
}

impl ServiceStats {
    fn bump(&self, counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshots all counters.
    pub fn snapshot(&self) -> ServiceStatsSnapshot {
        ServiceStatsSnapshot {
            submitted: self.submitted.load(Ordering::Relaxed),
            admitted: self.admitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            shed_queue_full: self.shed_queue_full.load(Ordering::Relaxed),
            shed_memory_pressure: self.shed_memory_pressure.load(Ordering::Relaxed),
            deadline_expired_in_queue: self.deadline_expired_in_queue.load(Ordering::Relaxed),
            deadline_exceeded: self.deadline_exceeded.load(Ordering::Relaxed),
            cancelled: self.cancelled.load(Ordering::Relaxed),
            rejected_invalid: self.rejected_invalid.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
        }
    }
}

impl ServiceStatsSnapshot {
    /// Requests shed with [`ServiceError::Overloaded`], all causes.
    pub fn shed(&self) -> u64 {
        self.shed_queue_full + self.shed_memory_pressure
    }

    /// Requests with any terminal outcome (success or typed failure).
    pub fn finished(&self) -> u64 {
        self.completed
            + self.shed()
            + self.deadline_exceeded
            + self.cancelled
            + self.rejected_invalid
            + self.failed
    }
}

struct ServiceInner {
    device: Device,
    gate: AdmissionGate,
    stats: ServiceStats,
    metrics: ServiceMetrics,
    next_request_id: AtomicU64,
}

impl Drop for ServiceInner {
    fn drop(&mut self) {
        // End-of-process exposition dump, gated on the same env var
        // that force-enabled the registry. Best-effort: a service being
        // torn down has no better channel to report an IO error on.
        if let Some(path) = fdbscan_device::metrics::dump_path() {
            self.metrics.sample(&self.device, &self.gate);
            let _ = std::fs::write(path, self.metrics.render_prometheus());
        }
    }
}

/// A clustering service over one shared [`Device`]. Cheap to clone;
/// clones share the device, the admission gate, and the stats — hand
/// one clone to each client thread.
#[derive(Clone)]
pub struct ClusterService {
    inner: Arc<ServiceInner>,
}

impl ClusterService {
    /// Wraps `device` in a service front-end.
    pub fn new(device: Device, config: ServiceConfig) -> Self {
        Self {
            inner: Arc::new(ServiceInner {
                device,
                gate: AdmissionGate::new(config.max_concurrency, config.queue_depth),
                stats: ServiceStats::default(),
                metrics: ServiceMetrics::new(config.metrics, config.p95_target),
                next_request_id: AtomicU64::new(1),
            }),
        }
    }

    /// The shared device (for capacity checks and leak assertions).
    pub fn device(&self) -> &Device {
        &self.inner.device
    }

    /// The admission gate (for introspection).
    pub fn gate(&self) -> &AdmissionGate {
        &self.inner.gate
    }

    /// Service-wide counters.
    pub fn stats(&self) -> ServiceStatsSnapshot {
        self.inner.stats.snapshot()
    }

    /// The telemetry catalog (histograms, SLO state, registry).
    pub fn metrics(&self) -> &ServiceMetrics {
        &self.inner.metrics
    }

    /// Samples device/gate gauges and the rolling p95 window, then
    /// renders the Prometheus text exposition.
    pub fn render_metrics(&self) -> String {
        self.inner.metrics.sample(&self.inner.device, &self.inner.gate);
        self.inner.metrics.render_prometheus()
    }

    /// Samples gauges, then returns the registry's JSON snapshot
    /// (counters/gauges by value, histograms with interpolated
    /// p50/p95/p99).
    pub fn metrics_json(&self) -> fdbscan_device::json::Json {
        self.inner.metrics.sample(&self.inner.device, &self.inner.gate);
        self.inner.metrics.registry().to_json()
    }

    /// Runs `request` to completion on the calling thread.
    pub fn execute<const D: usize>(
        &self,
        request: ClusterRequest<D>,
    ) -> Result<ClusterResponse, ServiceError> {
        let started = Instant::now();
        let stats = &self.inner.stats;
        let metrics = &self.inner.metrics;
        stats.bump(&stats.submitted);
        metrics.submitted.inc();
        if let Some(tenant) = &request.tenant {
            metrics.count_tenant(tenant);
        }
        let request_id = self.inner.next_request_id.fetch_add(1, Ordering::Relaxed);

        // Reject garbage before it costs anyone anything: no queue
        // slot, no device time, and a diagnostic naming the offending
        // coordinate.
        if let Some(bad) = find_non_finite(&request.points) {
            stats.bump(&stats.rejected_invalid);
            metrics.rejected_invalid.inc();
            return Err(ServiceError::InvalidInput(bad));
        }

        let token = request.effective_token(started).with_request_id(request_id);
        let permit = self.inner.gate.admit(&token).map_err(|err| match err {
            // The gate cannot know the real queue wait; stamp it here.
            // A deadline that fires while still queued is both a
            // deadline failure (client-visible outcome) and a shed
            // cause (the service never spent device time on it).
            ServiceError::DeadlineExceeded { .. } => {
                stats.bump(&stats.deadline_exceeded);
                stats.bump(&stats.deadline_expired_in_queue);
                metrics.deadline_exceeded.inc();
                metrics.shed_deadline_in_queue.inc();
                metrics.finish(started.elapsed());
                ServiceError::DeadlineExceeded { waited: started.elapsed() }
            }
            ServiceError::Cancelled => {
                stats.bump(&stats.cancelled);
                metrics.cancelled.inc();
                ServiceError::Cancelled
            }
            other => {
                // The gate's only other rejection is a full queue.
                stats.bump(&stats.shed_queue_full);
                metrics.shed_queue_full.inc();
                other
            }
        })?;
        let queue_wait = started.elapsed();
        stats.bump(&stats.admitted);
        metrics.admitted.inc();
        metrics.queue_wait.observe_duration(queue_wait);
        // Balanced on every exit path below (RAII), so the gauge can
        // never leak past a return. Wherever the permit is released
        // early, the guard must drop *first*: the freed slot re-admits
        // a queued request immediately, and a gauge still held here
        // would let a scrape read more inflight requests than
        // max_concurrency allows.
        let inflight = metrics.inflight_guard();

        // Memory preflight at grant time: shed if even the cheapest
        // parallel rung cannot fit in budget headroom plus trimmable
        // arena scratch — better a typed rejection now than a doomed
        // run that ooms its way down to the host oracle.
        if let Some(budget) = self.inner.device.memory().budget() {
            let memory = self.inner.device.memory();
            let arena = self.inner.device.arena();
            let unpooled = budget.saturating_sub(memory.in_use());
            let available = unpooled + arena.held_bytes();
            metrics.preflight_available.observe(available as u64);
            let estimated = estimate_fdbscan_bytes::<D>(request.points.len());
            if estimated > available {
                drop(inflight);
                drop(permit);
                stats.bump(&stats.shed_memory_pressure);
                metrics.shed_memory_pressure.inc();
                metrics.finish(started.elapsed());
                return Err(ServiceError::Overloaded {
                    reason: OverloadReason::MemoryPressure {
                        estimated_bytes: estimated,
                        available_bytes: available,
                    },
                });
            }
            if estimated > unpooled {
                // The request fits only if pooled scratch is released.
                arena.trim();
            }
        }

        let device = self.inner.device.with_cancel(token);
        let exec_started = Instant::now();
        // Every span the run records carries this request's id, so a
        // Chrome trace of the shared device can be filtered per request.
        let scope = fdbscan_device::trace::request_scope(request_id);
        let result = run_resilient(&device, &request.points, request.params, request.policy);
        // The arena pools by exact buffer length, and DenseBox sizes its
        // tree scratch by the input's sparse points plus dense cells:
        // pooled across requests of varying inputs, the scratch would
        // grow by one set per distinct input. Release it with the request.
        self.inner.device.arena().trim();
        drop(scope);
        metrics.exec.observe_duration(exec_started.elapsed());
        drop(inflight);
        drop(permit);

        let total = started.elapsed();
        metrics.finish(total);
        match result {
            Ok((clustering, run_stats, report)) => {
                stats.bump(&stats.completed);
                metrics.completed.inc();
                metrics.ladder_attempts.add(run_stats.attempts as u64);
                if report.degraded() {
                    stats.bump(&stats.degraded);
                    metrics.degraded.inc();
                    metrics.ladder_degradations.inc();
                }
                Ok(ClusterResponse {
                    clustering,
                    stats: run_stats,
                    report,
                    queue_wait,
                    total,
                    request_id,
                })
            }
            Err(err) => {
                let err = match err {
                    DeviceError::Cancelled { .. } => ServiceError::Cancelled,
                    DeviceError::DeadlineExceeded { .. } => {
                        ServiceError::DeadlineExceeded { waited: total }
                    }
                    other => ServiceError::Device(other),
                };
                match &err {
                    ServiceError::Cancelled => {
                        stats.bump(&stats.cancelled);
                        metrics.cancelled.inc();
                    }
                    ServiceError::DeadlineExceeded { .. } => {
                        stats.bump(&stats.deadline_exceeded);
                        metrics.deadline_exceeded.inc();
                    }
                    _ => {
                        stats.bump(&stats.failed);
                        metrics.failed.inc();
                    }
                }
                Err(err)
            }
        }
    }

    /// Submits `request` on a worker thread, returning a handle that
    /// can cancel it and wait for its result.
    pub fn submit<const D: usize>(&self, request: ClusterRequest<D>) -> RequestHandle {
        // Materialize the token now so the handle and the worker share
        // the same cancel flag (the deadline still starts when the
        // worker picks the request up).
        let token = request.cancel.clone().unwrap_or_default();
        let request = ClusterRequest { cancel: Some(token.clone()), ..request };
        let service = self.clone();
        let join = std::thread::spawn(move || service.execute(request));
        RequestHandle { token, join }
    }
}

impl std::fmt::Debug for ClusterService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterService")
            .field("max_concurrency", &self.inner.gate.max_concurrency())
            .field("queue_depth", &self.inner.gate.queue_depth())
            .field("stats", &self.stats())
            .finish()
    }
}

/// Handle to a request submitted with [`ClusterService::submit`].
#[derive(Debug)]
pub struct RequestHandle {
    token: CancelToken,
    join: std::thread::JoinHandle<Result<ClusterResponse, ServiceError>>,
}

impl RequestHandle {
    /// Requests cancellation; the worker observes it at its next
    /// cancellation point and fails with [`ServiceError::Cancelled`].
    pub fn cancel(&self) {
        self.token.cancel();
    }

    /// The request's cancel handle (clonable, shareable).
    pub fn cancel_token(&self) -> &CancelToken {
        &self.token
    }

    /// Blocks until the request finishes.
    ///
    /// # Panics
    /// Panics if the worker thread itself panicked — request-level
    /// faults (including kernel panics) are caught by the resilience
    /// ladder and surface as `Err`, so a worker panic is a service bug.
    pub fn wait(self) -> Result<ClusterResponse, ServiceError> {
        self.join.join().expect("service worker panicked")
    }
}
