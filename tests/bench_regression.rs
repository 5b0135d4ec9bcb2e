//! Bench-regression gate: the hot-path work counters (kernel launches,
//! distance computations, BVH node visits) must not regress more than
//! 5% against the checked-in `BENCH_hotpaths.json` baseline.
//!
//! The matrix re-runs here on a **sequential** device, so the fresh
//! counters are exactly reproducible and the 5% headroom is purely for
//! intentional drift (e.g. a dataset generator tweak), not scheduling
//! noise.
//!
//! On a legitimate change (an optimization that lowers work, or an
//! accepted cost increase), regenerate and commit the baseline:
//!
//! ```sh
//! cargo run --release -p fdbscan-bench --bin hotpaths -- BENCH_hotpaths.json
//! ```

use std::path::PathBuf;

use fdbscan_bench::hotpaths::{collect_hotpaths, HotpathsBaseline, GUARDED_COUNTERS, PHASE_KEYS};

fn baseline_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_hotpaths.json")
}

const REGEN: &str =
    "regenerate with: cargo run --release -p fdbscan-bench --bin hotpaths -- BENCH_hotpaths.json";

#[test]
fn work_counters_do_not_regress_beyond_5_percent() {
    let path = baseline_path();
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing baseline {}: {e}\n{REGEN}", path.display()));
    let baseline = HotpathsBaseline::parse(&text)
        .unwrap_or_else(|e| panic!("unreadable baseline {}: {e}\n{REGEN}", path.display()));

    let fresh = collect_hotpaths();
    let mut failures = Vec::new();
    for record in &fresh.records {
        let id = record.case.id();
        let Some(base) = baseline.case(&id) else {
            failures.push(format!("{id}: not in baseline (matrix grew?)"));
            continue;
        };
        for (&(name, current), (base_name, base_value)) in record.work.iter().zip(base) {
            assert_eq!(name, base_name, "{id}: counter order drifted");
            // Integer form of current > 1.05 * base, exact in u64.
            if current * 100 > base_value * 105 {
                failures.push(format!(
                    "{id}: {name} regressed {base_value} -> {current} \
                     (+{:.1}%, gate is 5%)",
                    100.0 * (current as f64 / *base_value as f64 - 1.0)
                ));
            }
        }
        // The launch total is guarded above; also gate each phase's
        // share, so a fusion regression that re-inflates one phase while
        // another shrinks cannot hide inside an unchanged total.
        let Some(base_phases) = baseline.phases(&id) else {
            failures.push(format!("{id}: no phase_launches in baseline"));
            continue;
        };
        for ((&phase, current), (base_name, base_value)) in
            PHASE_KEYS.iter().zip(record.phase_launches).zip(base_phases)
        {
            assert_eq!(phase, base_name, "{id}: phase order drifted");
            if current * 100 > base_value * 105 {
                failures.push(format!(
                    "{id}: {phase}-phase launches regressed {base_value} -> {current} \
                     (gate is 5%)"
                ));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "hot-path work regressed past the 5% gate:\n  {}\nIf intentional, {REGEN}",
        failures.join("\n  ")
    );
}

#[test]
fn baseline_covers_the_current_matrix() {
    // A stale baseline (fewer or renamed cases) must fail loudly rather
    // than silently guarding nothing.
    let text = std::fs::read_to_string(baseline_path()).expect(REGEN);
    let baseline = HotpathsBaseline::parse(&text).expect(REGEN);
    let matrix = fdbscan_bench::hotpaths::hotpath_matrix();
    for case in &matrix {
        assert!(
            baseline.case(&case.id()).is_some(),
            "baseline missing case {}; {REGEN}",
            case.id()
        );
        let phases = baseline.phases(&case.id()).unwrap_or_else(|| {
            panic!("baseline missing phase_launches for {}; {REGEN}", case.id())
        });
        assert!(
            phases.iter().find(|(name, _)| name == "index").is_some_and(|(_, v)| *v > 0),
            "{}: index phase launches nothing — the gate guards nothing",
            case.id()
        );
    }
    assert_eq!(
        baseline.cases.len(),
        matrix.len(),
        "baseline carries cases the matrix no longer runs; {REGEN}"
    );
    for (id, counters) in &baseline.cases {
        for ((name, value), expected) in counters.iter().zip(GUARDED_COUNTERS) {
            assert_eq!(name, expected);
            // Every algorithm launches kernels and computes distances;
            // only the tree-based ones traverse a BVH.
            let must_be_nonzero = name != "bvh_nodes_visited" || id.starts_with("fdbscan");
            assert!(
                !must_be_nonzero || *value > 0,
                "{id}: guarded counter {name} is zero — it guards nothing"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Service gate: BENCH_service.json. Wall-clock values are machine-
// dependent, so the gate guards structure (every request completes,
// nothing sheds or fails on a healthy device, the baseline covers the
// matrix) plus generous absolute floors that catch serialization bugs
// and hangs rather than hardware variance.
// ---------------------------------------------------------------------------

use fdbscan_bench::service_bench::{
    collect_service, service_matrix, ServiceBaseline, MIN_THROUGHPUT_RPS, P95_TARGET_MS,
};

fn service_baseline_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_service.json")
}

const SERVICE_REGEN: &str =
    "regenerate with: cargo run --release -p fdbscan-bench --bin service -- BENCH_service.json";

#[test]
fn service_baseline_covers_the_matrix_and_is_clean() {
    let path = service_baseline_path();
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing baseline {}: {e}\n{SERVICE_REGEN}", path.display()));
    let baseline = ServiceBaseline::parse(&text)
        .unwrap_or_else(|e| panic!("unreadable baseline {}: {e}\n{SERVICE_REGEN}", path.display()));
    let matrix = service_matrix();
    for case in &matrix {
        let parsed = baseline
            .case(case.id)
            .unwrap_or_else(|| panic!("baseline missing case {}; {SERVICE_REGEN}", case.id));
        assert_eq!(parsed.requests, case.requests as u64, "{}: request count drifted", case.id);
        assert_eq!(
            parsed.completed, parsed.requests,
            "{}: baseline recorded incomplete requests",
            case.id
        );
        assert_eq!(
            parsed.shed, 0,
            "{}: baseline recorded shed requests on a clean workload",
            case.id
        );
        assert_eq!(parsed.failed, 0, "{}: baseline recorded failed requests", case.id);
        assert!(
            parsed.met_p95_target,
            "{}: baseline missed the p95 target; {SERVICE_REGEN}",
            case.id
        );
        // Structural gate on the telemetry-sourced percentiles: present,
        // positive, ordered. Absolute values are machine-dependent and
        // not compared.
        let [p50, p95, p99] = parsed.histogram_percentiles_ms;
        assert!(
            p50 > 0.0 && p95 > 0.0 && p99 > 0.0,
            "{}: histogram percentiles missing or zero ({p50}/{p95}/{p99}); {SERVICE_REGEN}",
            case.id
        );
        assert!(
            p50 <= p95 && p95 <= p99,
            "{}: histogram percentiles out of order ({p50}/{p95}/{p99})",
            case.id
        );
    }
    assert_eq!(
        baseline.cases.len(),
        matrix.len(),
        "baseline carries cases the matrix no longer runs; {SERVICE_REGEN}"
    );
}

#[test]
fn service_throughput_holds_generous_floors() {
    for record in collect_service().records {
        let id = record.case.id;
        assert_eq!(record.completed, record.case.requests as u64, "{id}: requests went missing");
        assert_eq!(record.shed, 0, "{id}: healthy workload was shed");
        assert_eq!(record.failed, 0, "{id}: healthy workload failed");
        assert!(
            record.p95_ms <= P95_TARGET_MS,
            "{id}: p95 latency {:.1} ms blew the {P95_TARGET_MS:.0} ms target",
            record.p95_ms
        );
        assert!(
            record.throughput_rps >= MIN_THROUGHPUT_RPS,
            "{id}: throughput {:.1} req/s under the {MIN_THROUGHPUT_RPS} req/s floor \
             — requests serialized or hung",
            record.throughput_rps
        );
        // The telemetry histogram watched the same wave: its
        // interpolated percentiles must exist, be ordered, and agree
        // with the exact nearest-rank p95 within the log2 bucketing
        // error (one bucket is a 2x band; allow 2x each way).
        let [p50, p95, p99] = record.histogram_percentiles_ms;
        assert!(p50 > 0.0 && p50 <= p95 && p95 <= p99, "{id}: bad percentiles {p50}/{p95}/{p99}");
        assert!(
            p95 <= record.p95_ms * 2.0 && p95 >= record.p95_ms / 2.0,
            "{id}: histogram p95 {p95:.2} ms disagrees with exact p95 {:.2} ms beyond \
             bucketing error",
            record.p95_ms
        );
    }
}

// ---------------------------------------------------------------------------
// Distributed gate: BENCH_dist.json. Wall-clock values are machine-
// dependent, so the gate guards structure only: bit-identity to the
// canonical oracle, the exact fault-free transport message count, zero
// retransmits and rank deaths on a healthy device, and full matrix
// coverage.
// ---------------------------------------------------------------------------

use fdbscan_bench::dist_bench::{collect_dist, dist_matrix, DistBaseline};

fn dist_baseline_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_dist.json")
}

const DIST_REGEN: &str =
    "regenerate with: cargo run --release -p fdbscan-bench --bin dist -- BENCH_dist.json";

#[test]
fn dist_baseline_covers_the_matrix_and_is_clean() {
    let path = dist_baseline_path();
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing baseline {}: {e}\n{DIST_REGEN}", path.display()));
    let baseline = DistBaseline::parse(&text)
        .unwrap_or_else(|e| panic!("unreadable baseline {}: {e}\n{DIST_REGEN}", path.display()));
    let matrix = dist_matrix();
    for case in &matrix {
        let parsed = baseline
            .case(case.id)
            .unwrap_or_else(|| panic!("baseline missing case {}; {DIST_REGEN}", case.id));
        let r = case.ranks as u64;
        assert_eq!(parsed.ranks, r, "{}: rank count drifted", case.id);
        assert!(parsed.n > 0, "{}: empty workload", case.id);
        assert!(
            parsed.oracle_match,
            "{}: baseline diverged from the canonical oracle; {DIST_REGEN}",
            case.id
        );
        assert_eq!(
            parsed.messages_sent,
            2 * r * (r - 1),
            "{}: fault-free transport must carry exactly two all-pairs exchanges",
            case.id
        );
        assert_eq!(parsed.retransmits, 0, "{}: healthy baseline recorded retransmits", case.id);
        assert_eq!(parsed.rank_deaths, 0, "{}: healthy baseline recorded rank deaths", case.id);
        assert!(
            parsed.merge_ms.is_finite() && parsed.merge_ms >= 0.0,
            "{}: merge time missing or corrupt ({})",
            case.id,
            parsed.merge_ms
        );
    }
    assert_eq!(
        baseline.cases.len(),
        matrix.len(),
        "baseline carries cases the matrix no longer runs; {DIST_REGEN}"
    );
}

// ---------------------------------------------------------------------------
// Wall-clock gate: BENCH_wallclock.json. Wall times and speedups are
// machine-dependent, so structure (schema, matrix coverage, positive
// times, finite speedups, the full thread-count sweep) is gated
// unconditionally, while the main-phase speedup floor applies only when
// the machine under the recorded baseline had >= 4 hardware threads —
// a single-core machine cannot speed anything up, and gating its
// numbers would just gate noise. CI's multi-core runners regenerate
// with >= 4 threads and therefore enforce the floor.
// ---------------------------------------------------------------------------

use fdbscan_bench::wallclock::{
    collect_wallclock, wallclock_matrix, WallclockBaseline, THREAD_COUNTS,
};

fn wallclock_baseline_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_wallclock.json")
}

const WALLCLOCK_REGEN: &str =
    "regenerate with: cargo run --release -p fdbscan-bench --bin wallclock -- BENCH_wallclock.json";

#[test]
fn wallclock_baseline_covers_the_matrix_and_is_structurally_sound() {
    let path = wallclock_baseline_path();
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing baseline {}: {e}\n{WALLCLOCK_REGEN}", path.display()));
    let baseline = WallclockBaseline::parse(&text).unwrap_or_else(|e| {
        panic!("unreadable baseline {}: {e}\n{WALLCLOCK_REGEN}", path.display())
    });
    assert!(baseline.hardware_threads >= 1, "baseline lost its hardware_threads field");
    let matrix = wallclock_matrix(1.0);
    for case in &matrix {
        let id = case.id();
        let parsed = baseline
            .case(&id)
            .unwrap_or_else(|| panic!("baseline missing case {id}; {WALLCLOCK_REGEN}"));
        assert_eq!(parsed.n, case.n as u64, "{id}: baseline recorded a non-default scale");
        assert!(
            parsed.sequential_total_ms > 0.0 && parsed.sequential_main_ms > 0.0,
            "{id}: sequential wall times missing or zero"
        );
        assert_eq!(
            parsed.threaded.len(),
            THREAD_COUNTS.len(),
            "{id}: baseline lost part of the thread-count sweep"
        );
        for (sample, expected) in parsed.threaded.iter().zip(THREAD_COUNTS) {
            assert_eq!(sample.threads, expected as u64, "{id}: thread counts drifted");
            assert!(
                sample.total_ms > 0.0 && sample.main_ms > 0.0,
                "{id}@{}: threaded wall times missing or zero",
                sample.threads
            );
            assert!(
                sample.main_speedup.is_finite() && sample.main_speedup > 0.0,
                "{id}@{}: corrupt speedup {}",
                sample.threads,
                sample.main_speedup
            );
        }
    }
    assert_eq!(
        baseline.cases.len(),
        matrix.len(),
        "baseline carries cases the matrix no longer runs; {WALLCLOCK_REGEN}"
    );
}

#[test]
fn wallclock_baseline_speedup_floor_holds_on_multicore_recordings() {
    let text = std::fs::read_to_string(wallclock_baseline_path()).expect(WALLCLOCK_REGEN);
    let baseline = WallclockBaseline::parse(&text).expect(WALLCLOCK_REGEN);
    if baseline.hardware_threads < 4 {
        // Recorded on a machine that cannot exhibit parallel speedup;
        // only the structural gate above applies. Multi-core CI
        // regenerations re-arm this floor.
        eprintln!(
            "skipping speedup floor: baseline recorded on {} hardware thread(s)",
            baseline.hardware_threads
        );
        return;
    }
    for case in &baseline.cases {
        for sample in case.threaded.iter().filter(|s| s.threads >= 4) {
            assert!(
                sample.main_speedup >= 1.0,
                "{}@{}: main-phase speedup {:.3} fell under the 1.0 floor on a \
                 {}-thread machine — the threaded backend is slower than sequential; \
                 {WALLCLOCK_REGEN}",
                case.id,
                sample.threads,
                sample.main_speedup,
                baseline.hardware_threads
            );
        }
    }
}

#[test]
fn wallclock_smoke_collection_is_structurally_sound() {
    // A tiny fresh sweep: both backends run every case at every thread
    // count and produce positive, finite measurements. Speedup values
    // are machine-dependent and not compared here.
    let report = collect_wallclock(0.005);
    assert_eq!(report.records.len(), wallclock_matrix(0.005).len());
    for record in &report.records {
        let id = record.case.id();
        assert!(record.sequential_main_ms > 0.0, "{id}: sequential main phase unmeasured");
        assert_eq!(record.threaded.len(), THREAD_COUNTS.len(), "{id}: sweep incomplete");
        for sample in &record.threaded {
            assert!(
                sample.main_speedup.is_finite() && sample.main_speedup > 0.0,
                "{id}@{}: corrupt speedup",
                sample.threads
            );
        }
    }
}

#[test]
fn dist_run_stays_bit_identical_and_structurally_clean() {
    // Re-run the matrix at a reduced scale (the structure under guard is
    // scale-independent; wall time is not compared at all).
    for record in collect_dist(0.1).records {
        let id = record.case.id;
        let r = record.case.ranks as u64;
        assert!(record.oracle_match, "{id}: distributed labels diverged from the oracle");
        assert_eq!(record.messages_sent, 2 * r * (r - 1), "{id}: unexpected transport traffic");
        assert_eq!(record.retransmits, 0, "{id}: healthy run retransmitted");
        assert_eq!(record.rank_deaths, 0, "{id}: healthy run lost ranks");
        assert!(record.points_per_sec > 0.0, "{id}: throughput not measured");
    }
}
