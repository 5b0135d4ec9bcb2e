//! Chaos under concurrency: N requests share one device while a seeded
//! fault plan injects OOMs, kernel panics, and worker stalls, and the
//! harness cancels some requests and deadline-bounds others.
//!
//! The invariants (the acceptance bar for the service layer):
//!
//! 1. every request that *returns a clustering* returns labels
//!    bit-identical to its solo run on a clean device — concurrency and
//!    injected faults may slow or fail a request, never corrupt it;
//! 2. every request that fails, fails with a *typed* error —
//!    `Overloaded`, `DeadlineExceeded`, or `Cancelled`; a raw `Device`
//!    error means the per-request resilience ladder leaked a fault;
//! 3. the shared device ends with **zero leaked reservations**: no byte
//!    is still charged once every request has returned.
//!
//! Datasets are well-separated blobs plus far-apart noise: every point
//! is either a core point or noise with >> eps of clearance, so every
//! ladder rung, worker count, and schedule produces the bit-identical
//! assignment vector — which is what makes invariant 1 checkable under
//! a racing scheduler. Which request absorbs each injected fault *is*
//! schedule-dependent; the invariants hold regardless, and the fault
//! plan itself is deterministic from `FDBSCAN_CHAOS_SEED` (default 1;
//! CI sweeps several).
//!
//! The wave additionally runs with telemetry and tracing enabled: a
//! scraper thread renders and validates the Prometheus exposition
//! *while* the wave is in flight (invariant 4: a scrape is always
//! internally consistent, never torn), afterwards the registry's
//! counters must reconcile with `ServiceStats` and the inflight gauge
//! must be back to zero (invariant 5: zero gauge leakage), and every
//! phase/kernel span the shared device traced must carry the id of the
//! request that emitted it (invariant 6: request-correlated traces).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use fdbscan::{run_resilient, Clustering, Params, ResiliencePolicy};
use fdbscan_device::{CancelToken, Device, DeviceConfig, FaultPlan};
use fdbscan_geom::Point2;
use fdbscan_service::{ClusterRequest, ClusterService, ServiceConfig, ServiceError};
use rand::{rngs::StdRng, Rng, SeedableRng};

fn chaos_seed() -> u64 {
    std::env::var("FDBSCAN_CHAOS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(1)
}

/// SplitMix64 step — deterministic fault/victim placement from the seed.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `blobs` tight clusters on a 10-spaced grid plus `blobs` isolated
/// noise points, all with clearance far beyond `EPS`: membership — and
/// with first-appearance relabeling, the exact assignment vector — is
/// invariant across algorithms, schedules, and worker counts.
fn blob_dataset(seed: u64, blobs: usize, per_blob: usize) -> Vec<Point2> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut points = Vec::with_capacity(blobs * per_blob + blobs);
    for b in 0..blobs {
        let cx = (b % 4) as f32 * 10.0;
        let cy = (b / 4) as f32 * 10.0;
        for _ in 0..per_blob {
            points
                .push(Point2::new([cx + rng.gen_range(-0.4..0.4), cy + rng.gen_range(-0.4..0.4)]));
        }
    }
    for i in 0..blobs {
        points.push(Point2::new([i as f32 * 10.0, -20.0]));
    }
    points
}

const EPS: f32 = 1.0;
const MINPTS: usize = 4;

struct Spec {
    points: Vec<Point2>,
    cancel_after: Option<Duration>,
    deadline: Option<Duration>,
}

/// Mixed small/medium request load, deterministic from the seed; two
/// seeded cancel victims and one deadline-bounded request.
fn request_specs(seed: u64, n: usize) -> Vec<Spec> {
    let mut state = seed ^ 0xc1a0_5e21;
    let cancel_a = (splitmix(&mut state) % n as u64) as usize;
    let cancel_b = (splitmix(&mut state) % n as u64) as usize;
    let deadline_victim = (splitmix(&mut state) % n as u64) as usize;
    (0..n)
        .map(|i| {
            let blobs = 2 + (splitmix(&mut state) % 4) as usize;
            let per_blob = 30 + (splitmix(&mut state) % 70) as usize;
            Spec {
                points: blob_dataset(seed.wrapping_mul(1000) + i as u64, blobs, per_blob),
                cancel_after: (i == cancel_a || i == cancel_b)
                    .then_some(Duration::from_millis(2 + (splitmix(&mut state) % 6))),
                deadline: (i == deadline_victim && i != cancel_a && i != cancel_b)
                    .then_some(Duration::from_millis(4)),
            }
        })
        .collect()
}

/// Seeded OOM/panic/stall mix addressed at early ordinals, so the
/// concurrent request wave is guaranteed to reach them. (Each fault
/// kind has one slot in a [`FaultPlan`]; cancels and deadlines come
/// from the request specs.)
fn chaos_plan(seed: u64) -> FaultPlan {
    let mut state = seed ^ 0xfa57_91a0;
    FaultPlan::new(seed)
        .with_oom_at_reservation(splitmix(&mut state) % 24)
        .with_kernel_panic_at(splitmix(&mut state) % 48, 0)
        .with_worker_stall(splitmix(&mut state) % 48, 0, 15)
}

#[test]
fn chaos_under_concurrency_matrix() {
    let seed = chaos_seed();
    const N_REQUESTS: usize = 10; // acceptance bar is >= 8 concurrent
    let specs = request_specs(seed, N_REQUESTS);

    // Solo baselines: each request alone on a clean sequential device.
    let baselines: Vec<Clustering> = specs
        .iter()
        .map(|spec| {
            let solo = Device::new(DeviceConfig::sequential());
            let (clustering, _, _) = run_resilient(
                &solo,
                &spec.points,
                Params::new(EPS, MINPTS),
                ResiliencePolicy::default(),
            )
            .unwrap();
            clustering
        })
        .collect();

    let device = Device::new(
        DeviceConfig::default()
            .with_suggested_workers(3)
            .with_fault_plan(chaos_plan(seed))
            .with_tracing(),
    );
    let service = ClusterService::new(
        device,
        ServiceConfig::default()
            .with_max_concurrency(4)
            .with_queue_depth(N_REQUESTS)
            .with_metrics(true),
    );

    // Invariant 4: scrape the registry while the wave is in flight.
    // Every rendered exposition must parse and hold its structural
    // invariants (cumulative buckets, declared families, unique
    // samples), and the live counters must never be inconsistent —
    // whatever instant the scrape lands on.
    let stop_scraping = Arc::new(AtomicBool::new(false));
    let scraper = {
        let service = service.clone();
        let stop = Arc::clone(&stop_scraping);
        std::thread::spawn(move || {
            let mut scrapes = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let text = service.render_metrics();
                fdbscan_device::metrics::validate_exposition(&text)
                    .unwrap_or_else(|e| panic!("mid-wave scrape invalid: {e}\n---\n{text}"));
                let stats = service.stats();
                assert!(stats.admitted <= stats.submitted, "admitted > submitted mid-wave");
                assert!(stats.finished() <= stats.submitted, "finished > submitted mid-wave");
                let inflight = service.metrics().inflight();
                assert!(
                    (0..=4).contains(&inflight),
                    "inflight gauge {inflight} outside [0, max_concurrency]"
                );
                scrapes += 1;
                std::thread::yield_now();
            }
            scrapes
        })
    };

    let mut victims = Vec::new();
    let handles: Vec<_> = specs
        .iter()
        .map(|spec| {
            let mut request = ClusterRequest::new(spec.points.clone(), Params::new(EPS, MINPTS))
                .with_cancel(CancelToken::new());
            if let Some(budget) = spec.deadline {
                request = request.with_deadline(budget);
            }
            let handle = service.submit(request);
            if let Some(delay) = spec.cancel_after {
                victims.push((handle.cancel_token().clone(), delay));
            }
            handle
        })
        .collect();

    for (token, delay) in victims {
        std::thread::sleep(delay);
        token.cancel();
    }

    let mut completed = 0usize;
    let mut rejected = 0usize;
    for (i, handle) in handles.into_iter().enumerate() {
        match handle.wait() {
            Ok(response) => {
                completed += 1;
                let baseline = &baselines[i];
                assert_eq!(
                    response.clustering.assignments, baseline.assignments,
                    "request {i} (seed {seed}): survivor labels differ from solo run"
                );
                assert_eq!(
                    response.clustering.classes, baseline.classes,
                    "request {i} (seed {seed}): survivor point classes differ from solo run"
                );
                assert!(response.stats.attempts >= 1);
            }
            // Typed, expected rejections under chaos.
            Err(
                ServiceError::Overloaded { .. }
                | ServiceError::DeadlineExceeded { .. }
                | ServiceError::Cancelled,
            ) => rejected += 1,
            Err(other) => {
                panic!("request {i} (seed {seed}): fault leaked through the ladder as {other:?}")
            }
        }
    }
    assert_eq!(completed + rejected, N_REQUESTS);
    assert!(completed > 0, "seed {seed}: every request was rejected — no survivors to check");

    stop_scraping.store(true, Ordering::Relaxed);
    let scrapes = scraper.join().expect("scraper thread panicked");
    assert!(scrapes > 0, "the scraper never ran concurrently with the wave");

    // Invariant 5: after the wave the registry reconciles with the
    // always-on ServiceStats, and no gauge leaks past the last return.
    let stats = service.stats();
    let json = service.metrics_json();
    let counter = |name: &str| {
        json.get("counters")
            .and_then(|c| c.get(name))
            .and_then(|v| v.as_f64())
            .unwrap_or_else(|| panic!("missing counter {name}")) as u64
    };
    assert_eq!(counter("fdbscan_requests_submitted_total"), stats.submitted);
    assert_eq!(counter("fdbscan_requests_admitted_total"), stats.admitted);
    assert_eq!(counter("fdbscan_requests_completed_total"), stats.completed);
    assert_eq!(counter("fdbscan_requests_cancelled_total"), stats.cancelled);
    assert_eq!(counter("fdbscan_requests_deadline_exceeded_total"), stats.deadline_exceeded);
    assert_eq!(counter("fdbscan_requests_shed_total{cause=queue_full}"), stats.shed_queue_full);
    assert_eq!(
        counter("fdbscan_requests_shed_total{cause=memory_pressure}"),
        stats.shed_memory_pressure
    );
    assert_eq!(
        counter("fdbscan_requests_shed_total{cause=deadline_in_queue}"),
        stats.deadline_expired_in_queue
    );
    assert_eq!(service.metrics().inflight(), 0, "seed {seed}: inflight gauge leaked");
    // Every admitted request records exactly one e2e observation
    // (whether it executed or was shed at the memory preflight), plus
    // one per deadline that expired in the queue.
    assert_eq!(
        service.metrics().e2e_latency().count(),
        stats.admitted + stats.deadline_expired_in_queue,
        "seed {seed}: e2e histogram disagrees with admission accounting"
    );

    // Invariant 6: every phase/kernel span the shared device traced was
    // emitted inside some request's scope and carries that request's id
    // — both in the raw records and in the Chrome export's args.
    let events = service.device().tracer().events();
    let spans: Vec<_> = events
        .iter()
        .filter(|e| {
            matches!(e.kind, fdbscan_device::SpanKind::Phase | fdbscan_device::SpanKind::Kernel)
        })
        .collect();
    assert!(!spans.is_empty(), "seed {seed}: tracing was enabled but recorded nothing");
    for span in &spans {
        let id = span
            .request_id
            .unwrap_or_else(|| panic!("seed {seed}: span {:?} has no request id", span.label));
        assert!(
            (1..=N_REQUESTS as u64).contains(&id),
            "seed {seed}: span {:?} carries unknown request id {id}",
            span.label
        );
    }
    let chrome = fdbscan_device::json::parse(&service.device().tracer().export_chrome())
        .expect("chrome export must parse");
    let chrome_events = chrome
        .get("traceEvents")
        .and_then(|e| e.as_arr())
        .expect("chrome export missing traceEvents");
    let mut tagged = 0usize;
    for event in chrome_events {
        if event.get("ph").and_then(|p| p.as_str()) != Some("X") {
            continue;
        }
        let id = event
            .get("args")
            .and_then(|a| a.get("request_id"))
            .and_then(|v| v.as_f64())
            .unwrap_or_else(|| panic!("seed {seed}: chrome X event lacks args.request_id"));
        assert!((1.0..=N_REQUESTS as f64).contains(&id));
        tagged += 1;
    }
    assert_eq!(tagged, spans.len(), "chrome export dropped tagged spans");

    // The plan's faults address early ordinals; the wave must have
    // tripped at least one (otherwise this test chaos-tests nothing).
    let counters = service.device().counters().snapshot();
    assert!(
        counters.injected_oom + counters.injected_panics + counters.injected_stalls > 0,
        "seed {seed}: no injected fault fired"
    );

    // Zero leaked reservations.
    let memory = service.device().memory();
    assert_eq!(memory.in_use(), 0, "seed {seed}: reservations leaked");

    // Service accounting adds up.
    let stats = service.stats();
    assert_eq!(stats.submitted, N_REQUESTS as u64);
    assert_eq!(stats.finished(), N_REQUESTS as u64);
    assert_eq!(stats.completed, completed as u64);
}

#[test]
fn repeated_chaos_waves_leave_a_clean_device() {
    // Three back-to-back waves on one service: leaks or poisoned pool
    // state from wave k would surface in wave k+1.
    let seed = chaos_seed();
    let device = Device::new(
        DeviceConfig::default().with_suggested_workers(2).with_fault_plan(chaos_plan(seed)),
    );
    let service = ClusterService::new(
        device,
        ServiceConfig::default().with_max_concurrency(3).with_queue_depth(8).with_metrics(true),
    );
    for wave in 0..3u64 {
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let points = blob_dataset(seed + wave * 100 + i, 3, 40);
                service.submit(ClusterRequest::new(points, Params::new(EPS, MINPTS)))
            })
            .collect();
        for handle in handles {
            handle.wait().unwrap();
        }
        assert_eq!(service.device().memory().in_use(), 0, "wave {wave} leaked reservations");
        assert_eq!(service.metrics().inflight(), 0, "wave {wave} leaked the inflight gauge");
    }
    assert_eq!(service.stats().completed, 12);
    let text = service.render_metrics();
    let stats = fdbscan_device::metrics::validate_exposition(&text)
        .unwrap_or_else(|e| panic!("{e}\n---\n{text}"));
    assert!(stats.samples > 0);
    assert!(text.contains("fdbscan_requests_completed_total 12"), "{text}");
}
