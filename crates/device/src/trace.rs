//! Tracing and profiling: phase spans, named kernel spans, occupancy.
//!
//! The paper's evaluation rests on *where time goes* ("most of the time
//! in FDBSCAN is spent in the tree search, while in FDBSCAN-DenseBox it
//! is in the dense cells processing"), so the device records a timeline
//! of every named kernel launch nested inside algorithm phase spans:
//!
//! * **Phase spans** — RAII guards opened by algorithm code
//!   ([`Tracer::phase`]); they nest (`fdbscan` ▸ `main` ▸ …) and the
//!   nesting path is attached to every event recorded inside them.
//! * **Kernel spans** — recorded by `Device` for each launch, carrying
//!   the index-space size, block size/count, grid-stride passes, and a
//!   load-imbalance metric (max-participant-busy ÷ mean-participant-busy,
//!   ≥ 1.0; 1.0 = perfectly balanced) measured by the worker pool.
//! * **Instant events** — point-in-time markers (e.g. the resilience
//!   ladder's degradation decisions).
//! * **Histograms** — per-label duration histograms with log2 buckets;
//!   recording is a handful of relaxed atomic ops, no allocation.
//!
//! # Cost when disabled
//!
//! A disabled tracer is a no-op sink: the hot path (one check per kernel
//! *launch*, not per index) is a single relaxed atomic load, the pool
//! skips all per-block clock reads, and nothing is recorded. Timestamps
//! are offsets from the tracer's construction epoch, so traces from one
//! process line up on one timeline.
//!
//! # Export
//!
//! [`Tracer::export_chrome`] emits Chrome `trace_event` JSON loadable in
//! Perfetto / `chrome://tracing`; [`Tracer::export_text`] a compact
//! indented timeline. Setting `FDBSCAN_TRACE=<path>` when constructing a
//! [`crate::Device`] enables tracing and writes the trace to `<path>`
//! when the last clone of the device is dropped; `FDBSCAN_TRACE_FORMAT`
//! selects `chrome` (default) or `text`.
//!
//! Phase guards are meant for the single control thread that drives the
//! algorithm (kernel launches block the caller, so algorithm control flow
//! is sequential); events may be recorded from any thread.

use std::borrow::Cow;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::json::Json;

/// Environment variable naming the trace output file (enables tracing).
pub const TRACE_ENV: &str = "FDBSCAN_TRACE";

thread_local! {
    /// The request id events recorded on this thread are attributed to.
    /// Threaded through a thread-local (not the `Tracer`) because the
    /// tracer is shared by every concurrent request on the device, while
    /// a request's control flow — kernel launches block the caller — is
    /// confined to the thread driving it.
    static CURRENT_REQUEST: std::cell::Cell<Option<u64>> = const { std::cell::Cell::new(None) };
}

/// Tags every span/instant recorded on the current thread with
/// `request_id` until the returned guard drops (scopes nest; the guard
/// restores the previous id). A service front-end opens one scope per
/// request so a Chrome trace of a concurrent run can be filtered per
/// request.
pub fn request_scope(request_id: u64) -> RequestScope {
    let previous = CURRENT_REQUEST.with(|cell| cell.replace(Some(request_id)));
    RequestScope { previous }
}

/// The request id spans recorded on this thread are tagged with, if a
/// [`request_scope`] is open.
pub fn current_request_id() -> Option<u64> {
    CURRENT_REQUEST.with(std::cell::Cell::get)
}

/// RAII guard of a [`request_scope`]; restores the previous (usually
/// absent) request id on drop.
#[must_use = "the request scope ends when this guard is dropped"]
#[derive(Debug)]
pub struct RequestScope {
    previous: Option<u64>,
}

impl Drop for RequestScope {
    fn drop(&mut self) {
        CURRENT_REQUEST.with(|cell| cell.set(self.previous));
    }
}
/// Environment variable selecting the trace format (`chrome` | `text`).
pub const TRACE_FORMAT_ENV: &str = "FDBSCAN_TRACE_FORMAT";

/// Trace export format.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceFormat {
    /// Chrome `trace_event` JSON (Perfetto / `chrome://tracing`).
    Chrome,
    /// Compact indented text timeline.
    Text,
}

/// What a [`SpanRecord`] describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    /// An algorithm phase opened via [`Tracer::phase`].
    Phase,
    /// One kernel launch (including reductions).
    Kernel,
    /// A point-in-time marker (zero duration).
    Instant,
}

/// Per-launch execution metadata attached to kernel spans.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KernelMeta {
    /// Index-space size (`n` of the launch).
    pub index_space: usize,
    /// Indices per block.
    pub block_size: usize,
    /// Blocks executed (`ceil(n / block_size)`).
    pub blocks: u64,
    /// Grid-stride passes: the most blocks any one participant pulled.
    pub passes: u64,
    /// Pool participants (workers + the launching thread).
    pub participants: usize,
    /// Load imbalance: max participant busy time ÷ mean participant busy
    /// time, over all participants (idle ones included). 1.0 = perfectly
    /// balanced; `participants as f64` = one participant did everything.
    pub imbalance: f64,
}

impl KernelMeta {
    /// Occupancy: mean ÷ max busy time, in (0, 1]; the reciprocal of
    /// [`KernelMeta::imbalance`]. 1.0 = every participant equally busy.
    pub fn occupancy(&self) -> f64 {
        if self.imbalance > 0.0 {
            1.0 / self.imbalance
        } else {
            1.0
        }
    }
}

/// One recorded event: a phase span, kernel span, or instant marker.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Event label (kernel or phase name).
    pub label: Cow<'static, str>,
    /// Slash-joined path of enclosing phases at record time (for a phase
    /// span: the path *excluding* the span itself). Empty at top level.
    pub path: String,
    /// Event kind.
    pub kind: SpanKind,
    /// Start offset from the tracer epoch, nanoseconds.
    pub start_ns: u64,
    /// End offset from the tracer epoch, nanoseconds (== `start_ns` for
    /// instants).
    pub end_ns: u64,
    /// Launch metadata (kernel spans only).
    pub kernel: Option<KernelMeta>,
    /// The service request this event belongs to, when the recording
    /// thread was inside a [`request_scope`].
    pub request_id: Option<u64>,
}

impl SpanRecord {
    /// Span duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Full path including the span's own label.
    pub fn full_path(&self) -> String {
        if self.path.is_empty() {
            self.label.to_string()
        } else {
            format!("{}/{}", self.path, self.label)
        }
    }
}

const BUCKETS: usize = 64;

/// A duration histogram with log2 (power-of-two) buckets.
///
/// Bucket `b` counts durations `d` (ns) with `floor(log2(max(d, 1))) == b`,
/// i.e. bucket 0 holds `0..=1`, bucket `b > 0` holds `2^b ..= 2^(b+1)-1`.
/// Recording is 4 relaxed atomic RMWs — no locks, no allocation.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// The bucket index a duration of `ns` nanoseconds falls into.
    pub fn bucket_index(ns: u64) -> usize {
        (63 - ns.max(1).leading_zeros()) as usize
    }

    /// Inclusive `(lower, upper)` value bounds of bucket `index`.
    pub fn bucket_range(index: usize) -> (u64, u64) {
        assert!(index < BUCKETS);
        let lower = if index == 0 { 0 } else { 1u64 << index };
        let upper = if index >= 63 { u64::MAX } else { (1u64 << (index + 1)) - 1 };
        (lower, upper)
    }

    /// Records one duration (nanoseconds).
    pub fn record(&self, ns: u64) {
        self.buckets[Self::bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Number of recorded durations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Plain-value copy of the bucket counts.
    pub fn bucket_counts(&self) -> [u64; BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// Upper bound (ns) of the bucket containing the `q`-quantile
    /// (`0.0 ..= 1.0`) of recorded values — a conservative percentile
    /// estimate with log2 resolution. Returns 0 if nothing was recorded.
    pub fn quantile_upper_bound(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (index, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                return Self::bucket_range(index).1.min(self.max_ns.load(Ordering::Relaxed));
            }
        }
        self.max_ns.load(Ordering::Relaxed)
    }

    /// Plain-value copy of the whole histogram, suitable for windowed
    /// quantile math ([`HistogramSnapshot::since`]) without resetting
    /// the live atomics.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self.bucket_counts(),
            count: self.count(),
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
            max_ns: self.max_ns.load(Ordering::Relaxed),
        }
    }

    /// Interpolated `q`-quantile estimate (see
    /// [`HistogramSnapshot::quantile`]) over everything recorded so far.
    pub fn quantile_estimate(&self, q: f64) -> u64 {
        self.snapshot().quantile(q)
    }

    /// Summarizes the histogram under the given label.
    pub fn summarize(&self, label: &str) -> HistogramSummary {
        HistogramSummary {
            label: label.to_string(),
            count: self.count(),
            p50_ns: self.quantile_upper_bound(0.50),
            p95_ns: self.quantile_upper_bound(0.95),
            max_ns: self.max_ns.load(Ordering::Relaxed),
            total_ns: self.sum_ns.load(Ordering::Relaxed),
        }
    }
}

/// Plain-value copy of a [`Histogram`] at one point in time.
///
/// Two snapshots of the same histogram delta with
/// [`HistogramSnapshot::since`], giving windowed (e.g. rolling-p95)
/// quantiles without ever clearing the live atomics. Quantiles are
/// estimated by **log-linear interpolation**: a rank that lands a
/// fraction `f` of the way through bucket `b` maps to `2^(b + f)` —
/// linear interpolation in log2 space, matching the buckets' geometry —
/// clamped to the observed maximum.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: [u64; BUCKETS],
    count: u64,
    sum_ns: u64,
    max_ns: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self { buckets: [0; BUCKETS], count: 0, sum_ns: 0, max_ns: 0 }
    }
}

impl HistogramSnapshot {
    /// Number of recorded durations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded durations, nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns
    }

    /// Largest recorded duration, nanoseconds.
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// Per-bucket counts (see [`Histogram::bucket_range`]).
    pub fn bucket_counts(&self) -> &[u64; BUCKETS] {
        &self.buckets
    }

    /// Saturating per-bucket delta against an `earlier` snapshot of the
    /// same histogram — the recordings that happened *between* the two
    /// snapshots. `max_ns` carries over from `self`: the true window
    /// maximum is unrecoverable from bucket deltas, so the reported max
    /// is an upper bound for the window (exact when the all-time max
    /// fell inside it).
    pub fn since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].saturating_sub(earlier.buckets[i])),
            count: self.count.saturating_sub(earlier.count),
            sum_ns: self.sum_ns.saturating_sub(earlier.sum_ns),
            max_ns: self.max_ns,
        }
    }

    /// Estimated `q`-quantile (`0.0 ..= 1.0`) in nanoseconds, by
    /// log-linear interpolation within the containing log2 bucket,
    /// clamped to the observed maximum. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (index, &bucket) in self.buckets.iter().enumerate() {
            if bucket == 0 {
                continue;
            }
            seen += bucket;
            if seen >= rank {
                // Fraction of the way through this bucket, in (0, 1].
                let into = (rank - (seen - bucket)) as f64 / bucket as f64;
                let estimate = if index == 0 {
                    // Bucket 0 spans [0, 1]: interpolate linearly.
                    into
                } else {
                    // Log-linear: lower bound 2^index, upper 2^(index+1).
                    (index as f64 + into).exp2()
                };
                return (estimate.round() as u64).min(self.max_ns);
            }
        }
        self.max_ns
    }
}

/// Plain-value summary of one label's duration histogram.
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSummary {
    /// Kernel or phase label.
    pub label: String,
    /// Number of recorded spans.
    pub count: u64,
    /// p50 duration (log2-bucket upper bound), nanoseconds.
    pub p50_ns: u64,
    /// p95 duration (log2-bucket upper bound), nanoseconds.
    pub p95_ns: u64,
    /// Exact maximum duration, nanoseconds.
    pub max_ns: u64,
    /// Sum of all recorded durations, nanoseconds.
    pub total_ns: u64,
}

impl HistogramSummary {
    /// Serializes the summary as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("label", Json::str(self.label.clone())),
            ("count", Json::U64(self.count)),
            ("p50_ns", Json::U64(self.p50_ns)),
            ("p95_ns", Json::U64(self.p95_ns)),
            ("max_ns", Json::U64(self.max_ns)),
            ("total_ns", Json::U64(self.total_ns)),
        ])
    }
}

/// Where an enabled tracer writes its trace when dropped.
#[derive(Clone, Debug)]
struct AutoExport {
    path: PathBuf,
    format: TraceFormat,
}

/// The trace sink: collects spans, instants, and histograms.
///
/// Cheap to share (`Device` holds it in an `Arc`). Disabled tracers
/// reject every record after a single relaxed atomic load.
pub struct Tracer {
    enabled: AtomicBool,
    epoch: Instant,
    events: Mutex<Vec<SpanRecord>>,
    /// Stack of open phase labels on the control thread.
    phase_stack: Mutex<Vec<&'static str>>,
    /// Per-label duration histograms. The map lock is taken once per
    /// *launch/phase end* (cold relative to kernel bodies); recording into
    /// an individual histogram is lock-free.
    histograms: Mutex<Vec<(Cow<'static, str>, Arc<Histogram>)>>,
    auto_export: Mutex<Option<AutoExport>>,
}

impl Tracer {
    /// Creates a tracer; `enabled = false` makes every record a no-op.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled: AtomicBool::new(enabled),
            epoch: Instant::now(),
            events: Mutex::new(Vec::new()),
            phase_stack: Mutex::new(Vec::new()),
            histograms: Mutex::new(Vec::new()),
            auto_export: Mutex::new(None),
        }
    }

    /// Creates a tracer configured from the environment: enabled iff
    /// `FDBSCAN_TRACE` is set, auto-exporting to that path on drop in
    /// the `FDBSCAN_TRACE_FORMAT` format (`chrome` unless `text`).
    pub fn from_env() -> Self {
        match std::env::var_os(TRACE_ENV) {
            Some(path) if !path.is_empty() => {
                let format = match std::env::var(TRACE_FORMAT_ENV).as_deref() {
                    Ok("text") => TraceFormat::Text,
                    _ => TraceFormat::Chrome,
                };
                let tracer = Self::new(true);
                *tracer.auto_export.lock() = Some(AutoExport { path: PathBuf::from(path), format });
                tracer
            }
            _ => Self::new(false),
        }
    }

    /// Whether the tracer records anything. This is the hot-path check:
    /// one relaxed atomic load.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Enables or disables recording at runtime.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Nanoseconds since the tracer epoch.
    fn since_epoch(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Current slash-joined phase path (empty outside any phase).
    pub fn current_path(&self) -> String {
        self.phase_stack.lock().join("/")
    }

    /// Opens a phase span; the returned guard records the span (and its
    /// duration histogram) when dropped or finished. Records nothing when
    /// disabled, but [`PhaseSpan::finish`] still measures.
    pub fn phase<'t>(&'t self, label: &'static str) -> PhaseSpan<'t> {
        let tracer = self.enabled().then(|| {
            self.phase_stack.lock().push(label);
            self
        });
        PhaseSpan { tracer, label, start: Instant::now() }
    }

    /// Records a phase span and returns its recorded duration.
    fn end_phase(&self, label: &'static str, start: Instant, end: Instant) -> u64 {
        let path = {
            let mut stack = self.phase_stack.lock();
            // Pop up to and including this label (defensive against a
            // guard outliving an inner guard that leaked).
            while let Some(top) = stack.pop() {
                if top == label {
                    break;
                }
            }
            stack.join("/")
        };
        let record = SpanRecord {
            label: Cow::Borrowed(label),
            path,
            kind: SpanKind::Phase,
            start_ns: self.since_epoch(start),
            end_ns: self.since_epoch(end),
            kernel: None,
            request_id: current_request_id(),
        };
        let duration_ns = record.duration_ns();
        self.histogram(Cow::Borrowed(label)).record(duration_ns);
        self.events.lock().push(record);
        duration_ns
    }

    /// Records one kernel launch span. No-op when disabled.
    pub fn record_kernel(
        &self,
        label: &'static str,
        start: Instant,
        end: Instant,
        meta: KernelMeta,
    ) {
        if !self.enabled() {
            return;
        }
        let record = SpanRecord {
            label: Cow::Borrowed(label),
            path: self.current_path(),
            kind: SpanKind::Kernel,
            start_ns: self.since_epoch(start),
            end_ns: self.since_epoch(end),
            kernel: Some(meta),
            request_id: current_request_id(),
        };
        self.histogram(Cow::Borrowed(label)).record(record.duration_ns());
        self.events.lock().push(record);
    }

    /// Records a point-in-time marker (e.g. a resilience-ladder
    /// decision). No-op when disabled.
    pub fn instant(&self, label: impl Into<Cow<'static, str>>) {
        if !self.enabled() {
            return;
        }
        let now = self.since_epoch(Instant::now());
        let record = SpanRecord {
            label: label.into(),
            path: self.current_path(),
            kind: SpanKind::Instant,
            start_ns: now,
            end_ns: now,
            kernel: None,
            request_id: current_request_id(),
        };
        self.events.lock().push(record);
    }

    /// The histogram registered under `label` (created on first use).
    pub fn histogram(&self, label: Cow<'static, str>) -> Arc<Histogram> {
        let mut registry = self.histograms.lock();
        if let Some((_, histogram)) = registry.iter().find(|(l, _)| *l == label) {
            return Arc::clone(histogram);
        }
        let histogram = Arc::new(Histogram::default());
        registry.push((label, Arc::clone(&histogram)));
        histogram
    }

    /// Copies out all recorded events, in recording order.
    pub fn events(&self) -> Vec<SpanRecord> {
        self.events.lock().clone()
    }

    /// Number of recorded events.
    pub fn event_count(&self) -> usize {
        self.events.lock().len()
    }

    /// Summaries of every per-label histogram, in registration order.
    pub fn histogram_summaries(&self) -> Vec<HistogramSummary> {
        self.histograms.lock().iter().map(|(label, h)| h.summarize(label)).collect()
    }

    /// Discards all recorded events and histograms (the epoch and the
    /// enabled flag are kept).
    pub fn clear(&self) {
        self.events.lock().clear();
        self.histograms.lock().clear();
    }

    /// Exports the trace as a Chrome `trace_event` JSON document
    /// (Perfetto / `chrome://tracing` loadable).
    pub fn export_chrome(&self) -> String {
        let events = self.events.lock();
        let mut trace_events = Vec::with_capacity(events.len() + 1);
        trace_events.push(Json::obj([
            ("name", Json::str("process_name")),
            ("ph", Json::str("M")),
            ("pid", Json::U64(1)),
            ("tid", Json::U64(1)),
            ("args", Json::obj([("name", Json::str("fdbscan simulated device"))])),
        ]));
        // One named virtual thread row per request id, so Perfetto lays
        // concurrent requests out side by side (tid 1 = untagged events).
        let mut request_ids: Vec<u64> = events.iter().filter_map(|e| e.request_id).collect();
        request_ids.sort_unstable();
        request_ids.dedup();
        for &id in &request_ids {
            trace_events.push(Json::obj([
                ("name", Json::str("thread_name")),
                ("ph", Json::str("M")),
                ("pid", Json::U64(1)),
                ("tid", Json::U64(id + 2)),
                ("args", Json::obj([("name", Json::str(format!("request {id}")))])),
            ]));
        }
        for event in events.iter() {
            let mut args = vec![("path", Json::str(event.path.clone()))];
            if let Some(id) = event.request_id {
                args.push(("request_id", Json::U64(id)));
            }
            if let Some(meta) = &event.kernel {
                args.extend([
                    ("index_space", Json::U64(meta.index_space as u64)),
                    ("block_size", Json::U64(meta.block_size as u64)),
                    ("blocks", Json::U64(meta.blocks)),
                    ("passes", Json::U64(meta.passes)),
                    ("participants", Json::U64(meta.participants as u64)),
                    ("imbalance", Json::F64(meta.imbalance)),
                    ("occupancy", Json::F64(meta.occupancy())),
                ]);
            }
            let ts = event.start_ns as f64 / 1e3; // trace_event uses µs
            let common = [
                ("name", Json::str(event.label.to_string())),
                ("ts", Json::F64(ts)),
                ("pid", Json::U64(1)),
                ("tid", Json::U64(event.request_id.map_or(1, |id| id + 2))),
                ("args", Json::obj(args)),
            ];
            let specific = match event.kind {
                SpanKind::Instant => {
                    vec![("ph", Json::str("i")), ("s", Json::str("t"))]
                }
                kind => vec![
                    ("ph", Json::str("X")),
                    ("dur", Json::F64(event.duration_ns() as f64 / 1e3)),
                    ("cat", Json::str(if kind == SpanKind::Phase { "phase" } else { "kernel" })),
                ],
            };
            trace_events.push(Json::obj(common.into_iter().chain(specific)));
        }
        Json::obj([("traceEvents", Json::Arr(trace_events)), ("displayTimeUnit", Json::str("ms"))])
            .to_compact()
    }

    /// Exports the trace as a compact indented text timeline, ordered by
    /// start time, indented by phase depth.
    pub fn export_text(&self) -> String {
        let mut events = self.events();
        events.sort_by_key(|e| (e.start_ns, std::cmp::Reverse(e.end_ns)));
        let mut out = String::new();
        for event in &events {
            let depth = if event.path.is_empty() { 0 } else { event.path.split('/').count() };
            let indent = "  ".repeat(depth);
            let start_ms = event.start_ns as f64 / 1e6;
            let dur_ms = event.duration_ns() as f64 / 1e6;
            match event.kind {
                SpanKind::Instant => {
                    out.push_str(&format!("{indent}@{start_ms:9.3} ms  ! {}\n", event.label));
                }
                SpanKind::Phase => {
                    out.push_str(&format!(
                        "{indent}@{start_ms:9.3} ms  {:<28} {dur_ms:9.3} ms\n",
                        event.label
                    ));
                }
                SpanKind::Kernel => {
                    let meta = event.kernel.as_ref().expect("kernel span has meta");
                    out.push_str(&format!(
                        "{indent}@{start_ms:9.3} ms  {:<28} {dur_ms:9.3} ms  n={} blocks={} \
                         passes={} occ={:.2}\n",
                        event.label,
                        meta.index_space,
                        meta.blocks,
                        meta.passes,
                        meta.occupancy(),
                    ));
                }
            }
        }
        out
    }

    /// Renders the trace in the given format.
    pub fn export(&self, format: TraceFormat) -> String {
        match format {
            TraceFormat::Chrome => self.export_chrome(),
            TraceFormat::Text => self.export_text(),
        }
    }

    /// Writes the trace to `path` in the given format.
    pub fn export_to_file(
        &self,
        path: &std::path::Path,
        format: TraceFormat,
    ) -> std::io::Result<()> {
        std::fs::write(path, self.export(format))
    }
}

impl Drop for Tracer {
    fn drop(&mut self) {
        let Some(auto) = self.auto_export.lock().take() else { return };
        if self.events.get_mut().is_empty() {
            return;
        }
        if let Err(error) = self.export_to_file(&auto.path, auto.format) {
            eprintln!("fdbscan: failed to write trace to {}: {error}", auto.path.display());
        }
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.enabled())
            .field("events", &self.events.lock().len())
            .finish()
    }
}

/// RAII guard for a phase span; records the span when dropped.
#[must_use = "the phase span ends when this guard is dropped"]
pub struct PhaseSpan<'t> {
    /// `None` when the tracer was disabled at open time, or once the
    /// span has been recorded.
    tracer: Option<&'t Tracer>,
    label: &'static str,
    start: Instant,
}

impl PhaseSpan<'_> {
    /// Ends the span now and returns its duration: exactly the recorded
    /// span's [`SpanRecord::duration_ns`] when tracing is on, and the
    /// same clock's reading when it is off.
    pub fn finish(mut self) -> Duration {
        self.end()
    }

    fn end(&mut self) -> Duration {
        let end = Instant::now();
        match self.tracer.take() {
            Some(tracer) => Duration::from_nanos(tracer.end_phase(self.label, self.start, end)),
            None => end.saturating_duration_since(self.start),
        }
    }
}

impl Drop for PhaseSpan<'_> {
    fn drop(&mut self) {
        self.end();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn meta(n: usize) -> KernelMeta {
        KernelMeta {
            index_space: n,
            block_size: 256,
            blocks: n.div_ceil(256) as u64,
            passes: 2,
            participants: 4,
            imbalance: 1.25,
        }
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        {
            let _phase = tracer.phase("index");
            tracer.record_kernel("k", Instant::now(), Instant::now(), meta(100));
            tracer.instant("marker");
        }
        assert_eq!(tracer.event_count(), 0);
        assert!(tracer.histogram_summaries().is_empty());
    }

    #[test]
    fn finished_phase_reports_its_recorded_duration() {
        let tracer = Tracer::new(true);
        let elapsed = tracer.phase("main").finish();
        let events = tracer.events();
        assert_eq!(events.len(), 1, "finish records the span once");
        assert_eq!(elapsed.as_nanos() as u64, events[0].duration_ns());
        // With tracing off the span still measures, and records nothing.
        let off = Tracer::new(false);
        let span = off.phase("main");
        std::thread::sleep(Duration::from_millis(1));
        assert!(span.finish() >= Duration::from_millis(1));
        assert_eq!(off.event_count(), 0);
    }

    #[test]
    fn phase_spans_nest_and_balance() {
        let tracer = Tracer::new(true);
        {
            let _outer = tracer.phase("fdbscan");
            {
                let _inner = tracer.phase("main");
                tracer.record_kernel("traverse", Instant::now(), Instant::now(), meta(64));
            }
        }
        let events = tracer.events();
        assert_eq!(events.len(), 3);
        // Recording order: innermost closes first.
        assert_eq!(events[0].label, "traverse");
        assert_eq!(events[0].path, "fdbscan/main");
        assert_eq!(events[1].label, "main");
        assert_eq!(events[1].path, "fdbscan");
        assert_eq!(events[2].label, "fdbscan");
        assert_eq!(events[2].path, "");
        // Inner spans lie within the outer span.
        assert!(events[1].start_ns >= events[2].start_ns);
        assert!(events[1].end_ns <= events[2].end_ns);
        assert!(tracer.current_path().is_empty(), "stack must balance");
    }

    #[test]
    fn kernel_meta_survives_export() {
        let tracer = Tracer::new(true);
        let start = Instant::now();
        tracer.record_kernel("bvh.build", start, start + Duration::from_micros(10), meta(1000));
        let chrome = tracer.export_chrome();
        let parsed = crate::json::parse(&chrome).unwrap();
        let events = parsed.get("traceEvents").unwrap().as_arr().unwrap();
        let kernel = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("bvh.build"))
            .expect("kernel event present");
        assert_eq!(kernel.get("ph").unwrap().as_str(), Some("X"));
        let args = kernel.get("args").unwrap();
        assert_eq!(args.get("index_space").unwrap().as_f64(), Some(1000.0));
        assert_eq!(args.get("imbalance").unwrap().as_f64(), Some(1.25));
        assert_eq!(args.get("occupancy").unwrap().as_f64(), Some(0.8));
    }

    #[test]
    fn instant_events_have_zero_duration() {
        let tracer = Tracer::new(true);
        tracer.instant("fallback: g-dbscan -> densebox");
        let events = tracer.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, SpanKind::Instant);
        assert_eq!(events[0].duration_ns(), 0);
    }

    #[test]
    fn histogram_buckets_cover_value() {
        let histogram = Histogram::default();
        for ns in [0u64, 1, 2, 3, 255, 256, 1023, 1 << 40, u64::MAX] {
            let index = Histogram::bucket_index(ns);
            let (lower, upper) = Histogram::bucket_range(index);
            assert!((lower..=upper).contains(&ns), "ns={ns} index={index} range=({lower},{upper})");
            histogram.record(ns);
        }
        assert_eq!(histogram.count(), 9);
    }

    #[test]
    fn histogram_quantiles_are_upper_bounds() {
        let histogram = Histogram::default();
        for ns in 1..=100u64 {
            histogram.record(ns * 10);
        }
        let p50 = histogram.quantile_upper_bound(0.50);
        let p95 = histogram.quantile_upper_bound(0.95);
        // Values run 10..=1000; p50 true value 500 → bucket [512,1023]
        // upper bound clamped to observed max.
        assert!(p50 >= 500, "p50 {p50}");
        assert!(p95 >= 950, "p95 {p95}");
        assert!(p95 <= 1000, "p95 {p95} clamped to max");
        assert_eq!(histogram.summarize("x").max_ns, 1000);
    }

    #[test]
    fn interpolated_quantiles_track_a_uniform_distribution() {
        // 1000 evenly spaced values 1..=1000: true p50 = 500, p95 = 950,
        // p99 = 990. Log-linear interpolation must land within the
        // containing log2 bucket *and* within 20% of the true value —
        // far tighter than the factor-2 bucket-upper-bound estimate.
        let histogram = Histogram::default();
        for ns in 1..=1000u64 {
            histogram.record(ns);
        }
        for (q, truth) in [(0.50, 500.0), (0.95, 950.0), (0.99, 990.0)] {
            let estimate = histogram.quantile_estimate(q) as f64;
            let error = (estimate - truth).abs() / truth;
            assert!(error < 0.20, "q={q}: estimate {estimate} vs true {truth} (err {error:.3})");
        }
    }

    #[test]
    fn interpolated_quantiles_respect_a_point_mass() {
        // Every observation identical: all quantiles clamp to the
        // (exact) max, and stay within the value's own bucket.
        let histogram = Histogram::default();
        for _ in 0..100 {
            histogram.record(777);
        }
        let (lower, _) = Histogram::bucket_range(Histogram::bucket_index(777));
        for q in [0.01, 0.50, 0.95, 0.99, 1.0] {
            let estimate = histogram.quantile_estimate(q);
            assert!(estimate >= lower && estimate <= 777, "q={q}: estimate {estimate}");
        }
        assert_eq!(histogram.quantile_estimate(1.0), 777);
    }

    #[test]
    fn interpolated_quantiles_split_a_bimodal_distribution() {
        // 90 fast (≈100 ns) + 10 slow (≈1_000_000 ns): p50 must sit in
        // the fast mode, p95 and p99 in the slow one, and the ordering
        // p50 <= p95 <= p99 must hold.
        let snapshot = {
            let histogram = Histogram::default();
            for _ in 0..90 {
                histogram.record(100);
            }
            for _ in 0..10 {
                histogram.record(1_000_000);
            }
            histogram.snapshot()
        };
        let (p50, p95, p99) =
            (snapshot.quantile(0.50), snapshot.quantile(0.95), snapshot.quantile(0.99));
        assert!(p50 <= 128, "p50 {p50} escaped the fast mode");
        assert!(p95 >= 524_288, "p95 {p95} missed the slow mode");
        assert!(p50 <= p95 && p95 <= p99, "quantiles out of order: {p50} {p95} {p99}");
        assert_eq!(snapshot.quantile(0.0), snapshot.quantile(1e-9));
    }

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let snapshot = Histogram::default().snapshot();
        assert_eq!(snapshot.quantile(0.5), 0);
        assert_eq!(snapshot.count(), 0);
        assert_eq!(snapshot.since(&HistogramSnapshot::default()), snapshot);
    }

    #[test]
    fn snapshot_delta_windows_the_quantiles() {
        // Window 1 records slow values, window 2 fast ones; the delta
        // quantile must reflect only window 2.
        let histogram = Histogram::default();
        for _ in 0..50 {
            histogram.record(1 << 20);
        }
        let mark = histogram.snapshot();
        for _ in 0..50 {
            histogram.record(64);
        }
        let window = histogram.snapshot().since(&mark);
        assert_eq!(window.count(), 50);
        assert!(window.quantile(0.95) <= 128, "delta window leaked earlier recordings");
        // The all-time view still sees both modes.
        assert!(histogram.quantile_estimate(0.95) >= 1 << 19);
    }

    #[test]
    fn request_scope_tags_spans_and_restores_on_drop() {
        let tracer = Tracer::new(true);
        tracer.instant("before");
        {
            let _scope = request_scope(41);
            {
                let _inner = request_scope(42); // scopes nest
                let _phase = tracer.phase("work");
                tracer.record_kernel("k", Instant::now(), Instant::now(), meta(10));
            }
            tracer.instant("outer-again");
        }
        tracer.instant("after");
        let events = tracer.events();
        let by_label = |label: &str| {
            events.iter().find(|e| e.label == label).unwrap_or_else(|| panic!("{label} missing"))
        };
        assert_eq!(by_label("before").request_id, None);
        assert_eq!(by_label("k").request_id, Some(42));
        assert_eq!(by_label("work").request_id, Some(42));
        assert_eq!(by_label("outer-again").request_id, Some(41));
        assert_eq!(by_label("after").request_id, None);
        assert_eq!(current_request_id(), None);
    }

    #[test]
    fn chrome_export_carries_request_ids() {
        let tracer = Tracer::new(true);
        {
            let _scope = request_scope(7);
            let start = Instant::now();
            tracer.record_kernel("scan", start, start + Duration::from_micros(3), meta(64));
        }
        let parsed = crate::json::parse(&tracer.export_chrome()).unwrap();
        let events = parsed.get("traceEvents").unwrap().as_arr().unwrap();
        let kernel = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("scan"))
            .expect("kernel event present");
        assert_eq!(kernel.get("args").unwrap().get("request_id").unwrap().as_f64(), Some(7.0));
        assert_eq!(kernel.get("tid").unwrap().as_f64(), Some(9.0), "tid = request_id + 2");
        let row = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("thread_name"))
            .expect("request thread row named");
        assert_eq!(row.get("args").unwrap().get("name").unwrap().as_str(), Some("request 7"));
    }

    #[test]
    fn export_text_mentions_spans() {
        let tracer = Tracer::new(true);
        {
            let _phase = tracer.phase("index");
            let start = Instant::now();
            tracer.record_kernel("grid.build", start, start + Duration::from_micros(5), meta(10));
        }
        let text = tracer.export_text();
        assert!(text.contains("index"));
        assert!(text.contains("grid.build"));
        assert!(text.contains("occ="));
    }

    #[test]
    fn clear_discards_events() {
        let tracer = Tracer::new(true);
        tracer.instant("x");
        tracer.clear();
        assert_eq!(tracer.event_count(), 0);
    }
}
