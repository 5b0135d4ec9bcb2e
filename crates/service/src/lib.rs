#![warn(missing_docs)]

//! Clustering-as-a-service over a shared simulated device.
//!
//! The workspace's robustness stack so far (fault injection,
//! `run_resilient`, checkpoints, the chaos matrix) assumes one run
//! owning the whole device. Production DBSCAN traffic is the opposite:
//! many concurrent small/medium requests sharing one accelerator. This
//! crate is the front-end that makes that sharing safe:
//!
//! * **Admission control** ([`AdmissionGate`]) — a concurrency cap with
//!   a bounded wait queue; past both bounds the service sheds load with
//!   a typed [`ServiceError::Overloaded`] instead of letting requests
//!   OOM or stall each other mid-run. At permit-grant time a memory
//!   preflight checks the request's cheapest parallel footprint against
//!   the budget headroom plus trimmable arena scratch.
//! * **Deadlines and cancellation** — each request runs on a
//!   [`fdbscan_device::CancelToken`]-scoped clone of the shared device;
//!   the launch loop observes the token between kernel launches (and
//!   batched stages), so a timed-out or client-cancelled request
//!   releases its arena buffers at the next launch boundary and leaves
//!   the worker pool usable for its neighbors.
//! * **Per-request fault isolation** — a request that hits a (possibly
//!   injected) kernel panic, stall, or OOM degrades via its own
//!   [`fdbscan::run_resilient`] ladder with its own retry budget, and
//!   its attempt count lands in its [`fdbscan::RunStats::attempts`];
//!   neighboring requests never see the fault.
//! * **Telemetry** ([`ServiceMetrics`]) — an opt-in metric registry
//!   (one relaxed atomic load per instrument site when disabled)
//!   covering the full request lifecycle: outcome counters, shed
//!   causes, queue-wait/exec/e2e latency histograms with interpolated
//!   quantiles, SLO budget burn against a p95 target, device occupancy
//!   gauges, and a Prometheus text exposition
//!   ([`ClusterService::render_metrics`]). Every request gets an id
//!   minted at submission that rides its cancel token into trace spans
//!   and [`fdbscan::RunStats::request_id`].
//!
//! ```
//! use fdbscan::Params;
//! use fdbscan_device::{Device, DeviceConfig};
//! use fdbscan_geom::Point2;
//! use fdbscan_service::{ClusterRequest, ClusterService, ServiceConfig};
//!
//! let device = Device::new(DeviceConfig::default().with_workers(2));
//! let service = ClusterService::new(device, ServiceConfig::default());
//! let points = vec![Point2::new([0.0, 0.0]); 200];
//! let response =
//!     service.execute(ClusterRequest::new(points, Params::new(0.5, 4))).unwrap();
//! assert_eq!(response.clustering.num_clusters, 1);
//! assert_eq!(response.stats.attempts, 1);
//! ```

pub mod admission;
pub mod error;
pub mod metrics;
pub mod service;

pub use admission::{AdmissionGate, Permit};
pub use error::{OverloadReason, ServiceError};
pub use metrics::ServiceMetrics;
pub use service::{
    ClusterRequest, ClusterResponse, ClusterService, RequestHandle, ServiceConfig, ServiceStats,
    ServiceStatsSnapshot,
};

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    use fdbscan::{Attempt, AttemptOutcome, LadderLevel, Params, ResiliencePolicy};
    use fdbscan_device::{CancelToken, Device, DeviceConfig, FaultPlan};
    use fdbscan_geom::Point2;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn random_points(n: usize, extent: f32, seed: u64) -> Vec<Point2> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point2::new([rng.gen_range(0.0..extent), rng.gen_range(0.0..extent)]))
            .collect()
    }

    fn service(device: Device) -> ClusterService {
        ClusterService::new(device, ServiceConfig::default())
    }

    /// A request that holds its permit long enough for the next request
    /// to arrive while it runs. It starts on the quadratic G-DBSCAN
    /// rung: on the default DenseBox rung the same points finish about
    /// ten times sooner, which would shrink the race window these tests
    /// rely on.
    fn slow_request(n: usize, seed: u64) -> ClusterRequest<2> {
        let policy = ResiliencePolicy { start: LadderLevel::GDbscan, ..Default::default() };
        ClusterRequest::new(random_points(n, 2.0, seed), Params::new(0.1, 4)).with_policy(policy)
    }

    #[test]
    fn default_request_runs_on_densebox_in_one_attempt() {
        // A budgeted device turns on the ladder's preflight; a healthy
        // default request must neither run nor skip G-DBSCAN on the way.
        let device =
            Device::new(DeviceConfig::default().with_workers(2).with_memory_budget(64 << 20));
        let service = service(device);
        let points = random_points(2000, 5.0, 10);
        let response = service.execute(ClusterRequest::new(points, Params::new(0.3, 4))).unwrap();
        let first_try =
            Attempt { level: LadderLevel::DenseBox, outcome: AttemptOutcome::Succeeded };
        assert_eq!(response.report.attempts, vec![first_try]);
        assert_eq!(response.report.completed, Some(LadderLevel::DenseBox));
        assert_eq!(response.stats.attempts, 1);
        // The request's scratch went back to the device with it.
        assert_eq!(service.device().arena().held_bytes(), 0);
        assert_eq!(service.device().memory().in_use(), 0);
    }

    #[test]
    fn healthy_request_completes_with_one_attempt() {
        let service = service(Device::new(DeviceConfig::default().with_workers(2)));
        let points = random_points(300, 5.0, 1);
        let response = service.execute(ClusterRequest::new(points, Params::new(0.3, 4))).unwrap();
        assert_eq!(response.stats.attempts, 1);
        assert!(!response.report.degraded());
        assert!(response.total >= response.queue_wait);
        let stats = service.stats();
        assert_eq!(stats.submitted, 1);
        assert_eq!(stats.admitted, 1);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.finished(), 1);
    }

    #[test]
    fn invalid_input_is_rejected_before_admission() {
        let service = service(Device::new(DeviceConfig::default().with_workers(2)));
        let mut points = random_points(50, 5.0, 2);
        points[17] = Point2::new([f32::NAN, 0.0]);
        let err = service.execute(ClusterRequest::new(points, Params::new(0.3, 4))).unwrap_err();
        match err {
            ServiceError::InvalidInput(bad) => {
                assert_eq!((bad.index, bad.axis), (17, 0));
                assert!(bad.value.is_nan());
            }
            other => panic!("expected InvalidInput, got {other:?}"),
        }
        let stats = service.stats();
        assert_eq!(stats.rejected_invalid, 1);
        assert_eq!(stats.admitted, 0, "invalid input must not consume a permit");
    }

    #[test]
    fn expired_deadline_is_typed_and_leaks_nothing() {
        let device = Device::new(DeviceConfig::default().with_workers(2));
        let service = service(device);
        let points = random_points(500, 5.0, 3);
        let request =
            ClusterRequest::new(points, Params::new(0.3, 4)).with_deadline(Duration::ZERO);
        let err = service.execute(request).unwrap_err();
        assert!(matches!(err, ServiceError::DeadlineExceeded { .. }), "got {err:?}");
        let stats = service.stats();
        assert_eq!(stats.deadline_exceeded, 1);
        // The gate was uncontended, so admission was immediate and the
        // deadline fired during execution — not in the queue.
        assert_eq!(stats.deadline_expired_in_queue, 0);
        assert_eq!(
            service.device().memory().in_use(),
            service.device().arena().held_bytes(),
            "an out-of-time request leaked reservations"
        );
    }

    #[test]
    fn deadline_expiring_in_queue_is_counted_as_a_shed_cause() {
        // One slot held by a slow request; a queued request with a tiny
        // budget must expire *in the queue* and be attributed to the
        // deadline_in_queue shed cause, distinct from execution-time
        // deadline failures.
        let service = ClusterService::new(
            Device::new(DeviceConfig::default().with_workers(1)),
            ServiceConfig::default().with_max_concurrency(1).with_queue_depth(4),
        );
        let slow = service.submit(slow_request(6000, 20));
        while service.gate().running() == 0 {
            std::thread::yield_now();
        }
        let request = ClusterRequest::new(random_points(50, 5.0, 21), Params::new(0.3, 4))
            .with_deadline(Duration::from_millis(1));
        let err = service.execute(request).unwrap_err();
        assert!(matches!(err, ServiceError::DeadlineExceeded { .. }), "got {err:?}");
        let stats = service.stats();
        assert_eq!(stats.deadline_exceeded, 1);
        assert_eq!(stats.deadline_expired_in_queue, 1);
        assert_eq!(stats.admitted, 1, "the expired request must not have been admitted");
        slow.wait().unwrap();
    }

    #[test]
    fn cancelled_submit_reports_cancelled() {
        let service = service(Device::new(DeviceConfig::default().with_workers(2)));
        let token = CancelToken::new();
        token.cancel(); // cancelled before the worker even starts
        let request =
            ClusterRequest::new(random_points(500, 5.0, 4), Params::new(0.3, 4)).with_cancel(token);
        let handle = service.submit(request);
        assert_eq!(handle.wait().unwrap_err(), ServiceError::Cancelled);
        assert_eq!(service.stats().cancelled, 1);
    }

    #[test]
    fn handle_cancel_reaches_the_worker() {
        // A pile of work on a tiny pool; cancel mid-flight. Whether the
        // worker observes the cancel before, during, or after its run
        // is a race — but the outcome must be either a clean result or
        // a typed Cancelled, never a hang or a leak.
        let service = service(Device::new(DeviceConfig::default().with_workers(1)));
        let handle =
            service.submit(ClusterRequest::new(random_points(4000, 2.0, 5), Params::new(0.1, 4)));
        handle.cancel();
        match handle.wait() {
            Ok(_) | Err(ServiceError::Cancelled) => {}
            Err(other) => panic!("expected success or Cancelled, got {other:?}"),
        }
        assert_eq!(service.device().memory().in_use(), service.device().arena().held_bytes());
    }

    #[test]
    fn queue_overflow_sheds_with_typed_overload() {
        // One slot, zero queue: while a slow request holds the permit,
        // a second request must be shed, not blocked.
        let device = Device::new(DeviceConfig::default().with_workers(1));
        let service = ClusterService::new(
            device,
            ServiceConfig::default().with_max_concurrency(1).with_queue_depth(0),
        );
        let slow = service.submit(slow_request(4000, 6));
        // Wait until the slow request actually holds the permit.
        while service.gate().running() == 0 {
            std::thread::yield_now();
        }
        let err = service
            .execute(ClusterRequest::new(random_points(50, 5.0, 7), Params::new(0.3, 4)))
            .unwrap_err();
        assert!(
            matches!(err, ServiceError::Overloaded { reason: OverloadReason::QueueFull { .. } }),
            "got {err:?}"
        );
        let stats = service.stats();
        assert_eq!(stats.shed_queue_full, 1);
        assert_eq!(stats.shed(), 1);
        slow.wait().unwrap();
    }

    #[test]
    fn memory_pressure_sheds_instead_of_running() {
        // Budget far below even FDBSCAN's linear footprint for the
        // request size: the preflight sheds at admission.
        let device = Device::new(DeviceConfig::default().with_workers(1).with_memory_budget(1024));
        let service = service(device);
        let err = service
            .execute(ClusterRequest::new(random_points(10_000, 5.0, 8), Params::new(0.1, 4)))
            .unwrap_err();
        match err {
            ServiceError::Overloaded {
                reason: OverloadReason::MemoryPressure { estimated_bytes, available_bytes },
            } => {
                assert!(estimated_bytes > available_bytes);
            }
            other => panic!("expected MemoryPressure, got {other:?}"),
        }
        let stats = service.stats();
        assert_eq!(stats.shed_memory_pressure, 1);
        assert_eq!(stats.shed(), 1);
        // The permit was released on the shed path.
        assert_eq!(service.gate().running(), 0);
    }

    #[test]
    fn injected_fault_degrades_one_request_alone() {
        // Persistent OOM above a threshold: the faulty request degrades
        // down its ladder (isolated), while its own stats record the
        // attempts. The device stays clean for the next request.
        let plan = FaultPlan::new(21).with_oom_above_bytes(1);
        let device = Device::new(DeviceConfig::default().with_workers(2).with_fault_plan(plan));
        let service = service(device);
        let points = random_points(200, 3.0, 9);
        let policy = ResiliencePolicy { preflight: false, ..Default::default() };
        let response = service
            .execute(ClusterRequest::new(points, Params::new(0.4, 3)).with_policy(policy))
            .unwrap();
        assert_eq!(response.report.completed, Some(LadderLevel::Sequential));
        assert!(response.report.degraded());
        assert!(response.stats.attempts > 1);
        let stats = service.stats();
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.degraded, 1);
        assert_eq!(service.device().memory().in_use(), 0);
    }

    #[test]
    fn disabled_metrics_record_nothing() {
        // The disabled-path contract: with `metrics: false` (and no
        // dump env in CI), a full request lifecycle must leave every
        // instrument at its initial value — each site paid exactly the
        // one relaxed flag load and returned.
        let service = service(Device::new(DeviceConfig::default().with_workers(2)));
        if service.metrics().enabled() {
            return; // FDBSCAN_METRICS_DUMP set externally; contract N/A
        }
        let points = random_points(300, 5.0, 31);
        let request = ClusterRequest::new(points, Params::new(0.3, 4)).with_tenant("acme");
        service.execute(request).unwrap();
        assert_eq!(service.stats().completed, 1, "ServiceStats stays always-on");
        let json = service.metrics_json();
        let counters = json.get("counters").unwrap();
        assert_eq!(
            counters.get("fdbscan_requests_completed_total").unwrap().as_f64(),
            Some(0.0),
            "a disabled registry must not count"
        );
        assert_eq!(service.metrics().e2e_latency().count(), 0);
        assert_eq!(service.metrics().inflight(), 0);
        assert!(
            counters.get("fdbscan_tenant_requests_total{tenant=acme}").is_none(),
            "disabled metrics must not even register tenant series"
        );
    }

    #[test]
    fn enabled_metrics_cover_the_lifecycle_and_render_cleanly() {
        let service = ClusterService::new(
            Device::new(DeviceConfig::default().with_workers(2)),
            ServiceConfig::default().with_metrics(true),
        );
        for i in 0..3 {
            let request = ClusterRequest::new(random_points(300, 5.0, 40 + i), Params::new(0.3, 4))
                .with_tenant(if i == 0 { "acme" } else { "globex" });
            let response = service.execute(request).unwrap();
            assert_eq!(response.request_id, i + 1, "ids are minted sequentially from 1");
            assert_eq!(response.stats.request_id, Some(i + 1), "the id must reach RunStats");
        }
        let mut bad = random_points(10, 5.0, 50);
        bad[3] = Point2::new([f32::INFINITY, 0.0]);
        service.execute(ClusterRequest::new(bad, Params::new(0.3, 4))).unwrap_err();

        let e2e = service.metrics().e2e_latency();
        assert_eq!(e2e.count(), 3, "one e2e observation per admitted request");
        assert!(e2e.quantile(0.5) > 0);
        assert_eq!(service.metrics().inflight(), 0, "inflight gauge must return to zero");

        let text = service.render_metrics();
        let stats = fdbscan_device::metrics::validate_exposition(&text)
            .unwrap_or_else(|e| panic!("{e}\n---\n{text}"));
        assert!(stats.families > 10, "expected the full catalog, got {}", stats.families);
        assert!(text.contains("fdbscan_requests_submitted_total 4"), "{text}");
        assert!(text.contains("fdbscan_requests_completed_total 3"), "{text}");
        assert!(text.contains("fdbscan_requests_rejected_invalid_total 1"), "{text}");
        assert!(text.contains("fdbscan_tenant_requests_total{tenant=\"acme\"} 1"), "{text}");
        assert!(text.contains("fdbscan_tenant_requests_total{tenant=\"globex\"} 2"), "{text}");
        assert!(text.contains("fdbscan_ladder_attempts_total 3"), "{text}");
        assert!(text.contains("# TYPE fdbscan_request_e2e_seconds histogram"), "{text}");
    }

    #[test]
    fn slo_budget_burns_when_the_target_is_unmeetable() {
        // A ZERO p95 target: every finished request burns budget, and
        // the rolling p95 gauge reflects the window after a scrape.
        let service = ClusterService::new(
            Device::new(DeviceConfig::default().with_workers(2)),
            ServiceConfig::default().with_metrics(true).with_p95_target(Duration::ZERO),
        );
        for i in 0..2 {
            service
                .execute(ClusterRequest::new(random_points(200, 5.0, 60 + i), Params::new(0.3, 4)))
                .unwrap();
        }
        assert_eq!(service.metrics().budget_burn(), 2);
        let json = service.metrics_json();
        let p95 = json
            .get("gauges")
            .unwrap()
            .get("fdbscan_slo_rolling_p95_ns")
            .unwrap()
            .as_f64()
            .unwrap();
        assert!(p95 > 0.0, "rolling p95 should be set after a scrape with traffic");
    }

    #[test]
    fn concurrent_requests_share_the_device_cleanly() {
        let device = Device::new(DeviceConfig::default().with_workers(2));
        let service = ClusterService::new(
            device,
            ServiceConfig::default().with_max_concurrency(4).with_queue_depth(16),
        );
        let handles: Vec<_> = (0..8)
            .map(|i| {
                service.submit(ClusterRequest::new(
                    random_points(400, 5.0, 100 + i),
                    Params::new(0.3, 4),
                ))
            })
            .collect();
        for handle in handles {
            handle.wait().unwrap();
        }
        let stats = service.stats();
        assert_eq!(stats.completed, 8);
        assert_eq!(stats.finished(), 8);
        assert_eq!(service.gate().running(), 0);
        assert_eq!(service.gate().queued(), 0);
        assert_eq!(service.device().memory().in_use(), service.device().arena().held_bytes());
        service.device().arena().trim();
        assert_eq!(service.device().memory().in_use(), 0, "leaked reservations");
    }
}
