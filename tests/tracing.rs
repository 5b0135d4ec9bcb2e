//! Integration tests for the tracing/profiling subsystem: phase spans
//! recorded by real algorithm runs, the disabled-sink guarantee, the
//! Chrome exporter's JSON, and histogram bucketing.

use fdbscan::baselines::{cuda_dclust, gdbscan};
use fdbscan::{
    fdbscan, fdbscan_densebox, fdbscan_kdtree, kdist_curve, run_resilient, LadderLevel,
    MinptsSweep, Params, ResiliencePolicy, RunStats,
};
use fdbscan_device::{json, Device, DeviceConfig, Histogram, SpanKind, TraceFormat};
use fdbscan_geom::Point2;
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

fn traced_device() -> Device {
    Device::new(DeviceConfig::default().with_workers(2).with_block_size(64).with_tracing())
}

fn random_points(n: usize, extent: f32, seed: u64) -> Vec<Point2> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| Point2::new([rng.gen_range(0.0..extent), rng.gen_range(0.0..extent)])).collect()
}

#[test]
fn fdbscan_run_produces_nested_balanced_spans() {
    let device = traced_device();
    let points = random_points(500, 5.0, 7);
    fdbscan(&device, &points, Params::new(0.3, 5)).unwrap();

    let events = device.tracer().events();
    assert!(!events.is_empty());

    // The run span and all four phases are present.
    for phase in ["fdbscan", "index", "preprocess", "main", "finalize"] {
        assert!(
            events.iter().any(|e| e.kind == SpanKind::Phase && e.label == phase),
            "missing phase span '{phase}'"
        );
    }

    // Phases nest under the run span: their paths carry the prefix, and
    // their intervals are contained in the run span's interval.
    let run = events.iter().find(|e| e.kind == SpanKind::Phase && e.label == "fdbscan").unwrap();
    for e in &events {
        if e.kind == SpanKind::Phase && e.label != "fdbscan" {
            assert_eq!(e.path, "fdbscan", "phase '{}' not nested under the run span", e.label);
            assert!(e.start_ns >= run.start_ns && e.end_ns <= run.end_ns);
        }
    }

    // Kernel spans are nested inside their phase and carry metadata.
    let kernels: Vec<_> = events.iter().filter(|e| e.kind == SpanKind::Kernel).collect();
    assert!(!kernels.is_empty(), "no kernel spans recorded");
    for k in &kernels {
        let meta = k.kernel.as_ref().expect("kernel span without metadata");
        assert!(meta.blocks > 0);
        assert!(meta.participants > 0);
        assert!(meta.imbalance >= 1.0);
        assert!(!k.path.is_empty(), "kernel '{}' recorded outside any phase", k.label);
    }
    assert!(
        kernels.iter().any(|k| k.path == "fdbscan/main"),
        "main phase ran no kernels: {:?}",
        kernels.iter().map(|k| k.full_path()).collect::<Vec<_>>()
    );

    // Every span is balanced: end >= start.
    for e in &events {
        assert!(e.end_ns >= e.start_ns, "span '{}' ends before it starts", e.label);
    }
}

#[test]
fn densebox_and_gdbscan_record_their_own_phase_trees() {
    let device = traced_device();
    let points = random_points(400, 4.0, 8);
    fdbscan_densebox(&device, &points, Params::new(0.3, 5)).unwrap();
    gdbscan(&device, &points, Params::new(0.3, 5)).unwrap();

    let events = device.tracer().events();
    for root in ["fdbscan-densebox", "g-dbscan"] {
        assert!(
            events.iter().any(|e| e.kind == SpanKind::Phase && e.label == root),
            "missing run span '{root}'"
        );
    }
    assert!(events.iter().any(|e| e.kind == SpanKind::Kernel && e.label == "densebox.main_fused"));
    assert!(events.iter().any(|e| e.kind == SpanKind::Kernel && e.label == "gdbscan.bfs_level"));
}

#[test]
fn library_kernels_are_named() {
    // Traces and the kernel histogram key on launch labels, so no entry
    // point may launch a kernel as "unnamed".
    let device = Device::new(DeviceConfig::sequential().with_tracing());
    let points = random_points(2000, 10.0, 14);
    let params = Params::new(0.3, 5);
    fdbscan(&device, &points, params).unwrap();
    fdbscan_densebox(&device, &points, params).unwrap();
    fdbscan_kdtree(&device, &points, params).unwrap();
    gdbscan(&device, &points, params).unwrap();
    cuda_dclust(&device, &points, params).unwrap();
    MinptsSweep::new(&device, &points, params.eps).unwrap().run(params.minpts).unwrap();
    kdist_curve(&device, &points, params.minpts, 256).unwrap();
    let events = device.tracer().events();
    let kernels: Vec<&str> =
        events.iter().filter(|e| e.kind == SpanKind::Kernel).map(|e| e.label.as_ref()).collect();
    assert!(kernels.contains(&"tuning.kdist"), "{kernels:?}");
    assert!(!kernels.contains(&"unnamed"), "{kernels:?}");
}

#[test]
fn run_stats_phase_times_are_their_span_durations() {
    // One clock: every RunStats phase time is its phase span's recorded
    // duration (zero for a phase the algorithm does not have), and the
    // total is the run span's.
    let device = Device::new(DeviceConfig::sequential().with_tracing());
    let points = random_points(400, 4.0, 11);
    let params = Params::new(0.3, 5);
    let sweep = MinptsSweep::new(&device, &points, params.eps).unwrap();
    let runs: [(&str, &dyn Fn() -> RunStats); 5] = [
        ("fdbscan", &|| fdbscan(&device, &points, params).unwrap().1),
        ("fdbscan-densebox", &|| fdbscan_densebox(&device, &points, params).unwrap().1),
        ("g-dbscan", &|| gdbscan(&device, &points, params).unwrap().1),
        ("cuda-dclust", &|| cuda_dclust(&device, &points, params).unwrap().1),
        ("fdbscan-sweep", &|| sweep.run(params.minpts).unwrap().1),
    ];
    for (root, run) in runs {
        device.tracer().clear();
        let stats = run();
        let events = device.tracer().events();
        let span_ns = |label: &str| {
            events
                .iter()
                .find(|e| e.kind == SpanKind::Phase && e.label == label)
                .map_or(0, |e| e.duration_ns())
        };
        assert_eq!(stats.total_time.as_nanos() as u64, span_ns(root), "{root}: total");
        for (phase, time) in [
            ("index", stats.index_time),
            ("preprocess", stats.preprocess_time),
            ("main", stats.main_time),
            ("finalize", stats.finalize_time),
        ] {
            assert_eq!(time.as_nanos() as u64, span_ns(phase), "{root}: {phase}");
        }
    }
}

#[test]
fn kernel_spans_fit_in_their_phases_and_phases_in_the_run() {
    // The span reconciliation perfbench runs on its workloads, here on
    // every algorithm: the kernel spans inside a phase span (batch stages
    // included) sum to no more than its duration, and the four phase
    // spans to no more than the run span. 2,000 points put every sort
    // above its sequential threshold, so `sort.pipeline` launches.
    let device = traced_device();
    let points = random_points(2000, 10.0, 12);
    let params = Params::new(0.3, 5);
    let sweep = MinptsSweep::new(&device, &points, params.eps).unwrap();
    let runs: [(&str, bool, &dyn Fn()); 5] = [
        ("fdbscan", true, &|| {
            fdbscan(&device, &points, params).unwrap();
        }),
        ("fdbscan-densebox", true, &|| {
            fdbscan_densebox(&device, &points, params).unwrap();
        }),
        ("g-dbscan", false, &|| {
            gdbscan(&device, &points, params).unwrap();
        }),
        ("cuda-dclust", true, &|| {
            cuda_dclust(&device, &points, params).unwrap();
        }),
        ("fdbscan-sweep", false, &|| {
            sweep.run(params.minpts).unwrap();
        }),
    ];
    for (root, sorts, run) in runs {
        device.tracer().clear();
        run();
        let events = device.tracer().events();
        let phase =
            |label: &str| events.iter().find(|e| e.kind == SpanKind::Phase && e.label == label);
        let run_span = phase(root).unwrap_or_else(|| panic!("{root}: no run span"));
        let mut phase_sum = 0;
        for label in ["index", "preprocess", "main", "finalize"] {
            let Some(span) = phase(label) else { continue };
            let inside: u64 = events
                .iter()
                .filter(|e| {
                    e.kind == SpanKind::Kernel
                        && span.start_ns <= e.start_ns
                        && e.end_ns <= span.end_ns
                })
                .map(|e| e.duration_ns())
                .sum();
            assert!(
                inside <= span.duration_ns(),
                "{root}/{label}: kernel spans {inside} ns > phase {} ns",
                span.duration_ns()
            );
            phase_sum += span.duration_ns();
        }
        assert!(
            phase_sum <= run_span.duration_ns(),
            "{root}: phases {phase_sum} ns > run {} ns",
            run_span.duration_ns()
        );
        assert_eq!(phase("sort.pipeline").is_some(), sorts, "{root}: sort.pipeline launch");
    }
}

#[test]
fn failed_run_closes_its_spans_innermost_first() {
    // G-DBSCAN runs out of memory inside its index phase: the spans it
    // leaves open must close innermost first, so an enclosing span (the
    // resilient ladder's, say) keeps its place on the phase stack.
    let device = Device::new(DeviceConfig::sequential().with_tracing().with_memory_budget(1 << 19));
    let points = vec![Point2::new([0.0, 0.0]); 2000];
    let outer = device.tracer().phase("outer");
    gdbscan(&device, &points, Params::new(1.0, 5)).unwrap_err();
    assert_eq!(device.tracer().current_path(), "outer");
    drop(outer);
    let events = device.tracer().events();
    let index = events.iter().find(|e| e.label == "index").expect("index span recorded");
    assert_eq!(index.path, "outer/g-dbscan");
}

#[test]
fn disabled_sink_records_nothing() {
    let device = Device::new(DeviceConfig::default().with_workers(2));
    assert!(!device.tracer().enabled());
    let points = random_points(300, 5.0, 9);
    fdbscan(&device, &points, Params::new(0.3, 5)).unwrap();
    gdbscan(&device, &points, Params::new(0.3, 5)).unwrap();
    assert_eq!(device.tracer().event_count(), 0);
    assert!(device.tracer().histogram_summaries().is_empty());
}

#[test]
fn chrome_export_round_trips_through_json_parse() {
    let device = traced_device();
    let points = random_points(400, 5.0, 10);
    fdbscan(&device, &points, Params::new(0.3, 5)).unwrap();

    let chrome = device.tracer().export(TraceFormat::Chrome);
    let parsed = json::parse(&chrome).expect("chrome trace is not valid JSON");
    let trace_events = parsed.get("traceEvents").unwrap().as_arr().unwrap();
    // Metadata event + every recorded span.
    assert_eq!(trace_events.len(), device.tracer().event_count() + 1);

    // Complete events carry microsecond timestamps and phase names.
    let complete: Vec<_> =
        trace_events.iter().filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X")).collect();
    assert!(!complete.is_empty());
    for event in &complete {
        assert!(event.get("name").unwrap().as_str().is_some());
        assert!(event.get("ts").unwrap().as_f64().is_some());
        assert!(event.get("dur").unwrap().as_f64().unwrap() >= 0.0);
    }
    // Kernel events expose occupancy in args.
    assert!(
        complete
            .iter()
            .any(|e| e.get("args").map(|a| a.get("occupancy").is_some()).unwrap_or(false)),
        "no kernel event carries occupancy metadata"
    );
}

#[test]
fn resilient_ladder_emits_degradation_instants() {
    // Start on G-DBSCAN under a budget its dense adjacency graph busts:
    // the ladder skips or fails it and degrades to a linear algorithm.
    let device = Device::new(
        DeviceConfig::default().with_workers(2).with_memory_budget(1 << 19).with_tracing(),
    );
    let points = vec![Point2::new([0.0, 0.0]); 2000];
    let policy = ResiliencePolicy { start: LadderLevel::GDbscan, ..Default::default() };
    let (_, _, report) = run_resilient(&device, &points, Params::new(1.0, 5), policy).unwrap();
    assert!(report.degraded());

    let events = device.tracer().events();
    let instants: Vec<_> = events.iter().filter(|e| e.kind == SpanKind::Instant).collect();
    assert!(
        instants
            .iter()
            .any(|e| e.label.starts_with("resilient.skip")
                || e.label.starts_with("resilient.degrade")),
        "no skip/degrade instant recorded: {:?}",
        instants.iter().map(|e| e.label.clone()).collect::<Vec<_>>()
    );
    assert!(instants.iter().any(|e| e.label.starts_with("resilient.complete")));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn histogram_bucket_always_covers_value(ns in any::<u64>()) {
        let hist = Histogram::default();
        hist.record(ns);
        let counts = hist.bucket_counts();
        let bucket = counts.iter().position(|&c| c == 1).unwrap();
        let (lo, hi) = Histogram::bucket_range(bucket);
        let clamped = ns.max(1);
        prop_assert!(lo <= clamped && clamped <= hi, "{ns} not in [{lo}, {hi}]");
        prop_assert_eq!(hist.count(), 1);
        prop_assert!(hist.quantile_upper_bound(1.0) >= ns.min(hi));
    }
}
