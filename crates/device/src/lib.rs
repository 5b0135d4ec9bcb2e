#![warn(missing_docs)]

//! A simulated data-parallel device.
//!
//! The paper executes every phase of DBSCAN as a *batched GPU kernel*: all
//! threads launch together over an index space, synchronize only at kernel
//! boundaries, and communicate through device-resident atomics. Rust's GPU
//! tooling is not yet mature enough to express the tree traversals the
//! paper relies on, so this crate substitutes a software device with the
//! same execution model:
//!
//! * [`Device::launch`] runs a kernel body for every index of an index
//!   space on a persistent worker pool, in fixed-size blocks
//!   (grid-stride), and returns only when the whole launch has completed —
//!   a kernel boundary is a synchronization point, exactly as on a GPU.
//! * [`counters::Counters`] are device-wide "hardware counters" (distance
//!   computations, tree nodes visited, union-find operations, …). The
//!   benchmark harness reports these alongside wall time because the
//!   reproduction machine may have far fewer cores than a V100 has SMs;
//!   work counts are what transfer.
//! * [`memory::MemoryTracker`] enforces a device memory budget so the
//!   paper's out-of-memory behaviour (G-DBSCAN's adjacency graph) can be
//!   reproduced deterministically.
//! * [`shared::SharedMut`] and the atomic views in [`shared`] are the
//!   device-memory abstraction kernels use to write results: disjoint
//!   per-thread writes or explicit atomics, never locks inside a kernel.
//!
//! # Memory ordering
//!
//! Kernels use `Relaxed` atomics internally (as the GPU originals do);
//! cross-kernel happens-before is provided by the launch barrier: the pool
//! joins every block before [`Device::launch`] returns, and the next
//! launch's work distribution acquires what the previous one released.
//!
//! # Example
//!
//! ```
//! use fdbscan_device::{Device, DeviceConfig, SharedMut};
//!
//! let device = Device::new(DeviceConfig::default().with_workers(2));
//! let mut squares = vec![0u64; 1000];
//! {
//!     let view = SharedMut::new(&mut squares);
//!     // One kernel: disjoint per-index writes need no atomics.
//!     device.launch(1000, |i| unsafe { view.write(i, (i * i) as u64) });
//! }
//! // Next kernel sees the previous one's writes (launch barrier).
//! let sum = device.reduce(1000, 0u64, |i| squares[i], |a, b| a + b);
//! assert_eq!(sum, (0..1000u64).map(|i| i * i).sum());
//! ```

pub mod arena;
pub mod backend;
pub mod cancel;
pub mod counters;
pub mod fault;
pub mod json;
pub mod memory;
pub mod metrics;
pub mod pool;
pub mod shared;
pub mod snapshot;
pub mod trace;

pub use arena::{ArenaBuf, BufferArena};
pub use backend::Backend;
pub use cancel::{CancelCause, CancelToken};
pub use counters::{Counters, CountersSnapshot, Hot};
pub use fault::{FaultPlan, FaultSite, MessageFault};
pub use memory::{DeviceError, MemoryReservation, MemoryTracker};
pub use metrics::{Counter, ExpositionStats, Gauge, MetricHistogram, MetricUnit, MetricsRegistry};
pub use pool::{LaunchProfile, WorkerPool};
pub use shared::SharedMut;
pub use snapshot::{Checkpointable, PipelineCheckpoint, RunManifest, SnapshotError};
pub use trace::{
    Histogram, HistogramSnapshot, HistogramSummary, KernelMeta, PhaseSpan, SpanKind, SpanRecord,
    TraceFormat, Tracer,
};

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use pool::LaunchFailure;

/// Configuration for a simulated device.
#[derive(Clone, Debug)]
pub struct DeviceConfig {
    /// Execution engine for kernel launches (see [`Backend`]):
    /// deterministic in-order sequential, or the threaded worker pool.
    pub backend: Backend,
    /// Indices per block (the work-distribution granularity, analogous to
    /// a CUDA thread block).
    pub block_size: usize,
    /// Device memory budget in bytes. `None` = unlimited.
    pub memory_budget: Option<usize>,
    /// Deterministic fault-injection schedule. `None` = no injection.
    pub fault_plan: Option<FaultPlan>,
    /// Cooperative kernel watchdog: a launch running longer than this is
    /// cancelled at the next block boundary and fails with
    /// [`DeviceError::KernelTimeout`]. `None` = no watchdog.
    pub kernel_timeout: Option<Duration>,
    /// Force-enables tracing regardless of the environment. When `false`
    /// (the default), tracing is enabled iff `FDBSCAN_TRACE` is set (see
    /// [`trace::Tracer::from_env`]).
    pub tracing: bool,
}

impl Default for DeviceConfig {
    fn default() -> Self {
        Self {
            // `FDBSCAN_BACKEND` selects the engine; explicit builder
            // calls (`with_backend`, `with_workers`, `sequential`)
            // override it. Default: threaded, auto worker count.
            backend: Backend::from_env().unwrap_or_else(Backend::default_backend),
            block_size: 256,
            memory_budget: None,
            fault_plan: None,
            kernel_timeout: None,
            tracing: false,
        }
    }
}

impl DeviceConfig {
    /// A fully sequential device ([`Backend::Sequential`]): blocks run
    /// inline on the launching thread, in ascending index order. The
    /// deterministic counter/regression oracle, and the baseline in
    /// scaling studies.
    pub fn sequential() -> Self {
        Self { backend: Backend::Sequential, ..Self::default() }
    }

    /// Sets the execution backend explicitly (overriding any
    /// `FDBSCAN_BACKEND` environment selection).
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Sets the worker count: `0` selects [`Backend::Sequential`], any
    /// other count the threaded backend with exactly that many workers.
    /// (The launching thread always participates, so total parallelism
    /// is `workers + 1`.)
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.backend =
            if workers == 0 { Backend::Sequential } else { Backend::Threaded { workers } };
        self
    }

    /// Like [`DeviceConfig::with_workers`], but only a *suggestion*: an
    /// explicit `FDBSCAN_BACKEND` environment selection wins. Test
    /// suites use this for their default devices so every suite gains a
    /// backend axis without forfeiting its usual configuration.
    pub fn with_suggested_workers(self, workers: usize) -> Self {
        if Backend::from_env().is_some() {
            self
        } else {
            self.with_workers(workers)
        }
    }

    /// Sets the block size (must be nonzero).
    pub fn with_block_size(mut self, block_size: usize) -> Self {
        assert!(block_size > 0, "block size must be nonzero");
        self.block_size = block_size;
        self
    }

    /// Sets the device memory budget in bytes.
    pub fn with_memory_budget(mut self, bytes: usize) -> Self {
        self.memory_budget = Some(bytes);
        self
    }

    /// Attaches a deterministic fault-injection schedule (see
    /// [`fault::FaultPlan`]).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Enables the cooperative kernel watchdog. Launches exceeding
    /// `timeout` are cancelled at the next block boundary; a kernel that
    /// never yields within a single block cannot be cancelled (same
    /// limitation as a hardware watchdog that only resets between work
    /// units).
    pub fn with_kernel_timeout(mut self, timeout: Duration) -> Self {
        self.kernel_timeout = Some(timeout);
        self
    }

    /// Asserts the BVH branching factor is `2`, the binary LBVH every
    /// traversal uses, and sets nothing. Kept so callers that pin the
    /// layout explicitly keep compiling.
    pub fn with_bvh_width(self, width: usize) -> Self {
        assert_eq!(width, 2, "BVH width must be 2 (the binary LBVH)");
        self
    }

    /// Enables span recording (see [`trace::Tracer`]) without requiring
    /// the `FDBSCAN_TRACE` environment variable. Traces enabled this way
    /// are read back programmatically via [`Device::tracer`]; they are
    /// only auto-exported on drop when `FDBSCAN_TRACE` names a path.
    pub fn with_tracing(mut self) -> Self {
        self.tracing = true;
        self
    }
}

/// One stage of a batched launch submission (see
/// [`Device::try_batch_named`]): a labelled kernel over its own index
/// space, enqueued together with the other stages of its batch.
pub struct BatchStage<'a> {
    label: &'static str,
    n: usize,
    kernel: Box<dyn Fn(usize) + Sync + 'a>,
}

impl<'a> BatchStage<'a> {
    /// A stage running `kernel` over the index space `0..n`, appearing
    /// as `label` in traces and histograms.
    pub fn new<F: Fn(usize) + Sync + 'a>(label: &'static str, n: usize, kernel: F) -> Self {
        Self { label, n, kernel: Box::new(kernel) }
    }
}

impl std::fmt::Debug for BatchStage<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchStage").field("label", &self.label).field("n", &self.n).finish()
    }
}

/// A simulated data-parallel device: worker pool + counters + memory.
///
/// Cloning is cheap (`Arc` internally); clones share the pool, the
/// counters and the memory tracker, like multiple streams on one GPU.
#[derive(Clone)]
pub struct Device {
    pool: Arc<WorkerPool>,
    backend: Backend,
    counters: Arc<Counters>,
    memory: Arc<MemoryTracker>,
    arena: BufferArena,
    block_size: usize,
    /// Device-wide launch ordinal. Like the reservation ordinal, kept
    /// outside [`Counters`] so counter resets cannot re-arm
    /// ordinal-addressed fault injections.
    launch_ordinal: Arc<AtomicU64>,
    fault_plan: Option<Arc<FaultPlan>>,
    kernel_timeout: Option<Duration>,
    tracer: Arc<Tracer>,
    /// Per-request cancellation token (see [`Device::with_cancel`]).
    /// `None` on a freshly constructed device; attached per clone, so
    /// one request's token never cancels its neighbors on the shared
    /// pool.
    cancel: Option<CancelToken>,
}

impl Device {
    /// Creates a device from a configuration.
    pub fn new(config: DeviceConfig) -> Self {
        assert!(config.block_size > 0, "block size must be nonzero");
        let counters = Arc::new(Counters::default());
        let fault_plan = config.fault_plan.map(Arc::new);
        let memory = Arc::new(MemoryTracker::with_instrumentation(
            config.memory_budget,
            Arc::clone(&counters),
            fault_plan.clone(),
        ));
        // A one-worker threaded pool would spend its time handing blocks
        // across threads for zero extra parallelism (the launching thread
        // always participates). Spawn no workers there; `run_on_backend`
        // routes the empty pool through the in-order inline engine.
        let pool_workers = match config.backend.effective_workers() {
            1 => 0,
            w => w,
        };
        Self {
            pool: Arc::new(WorkerPool::new(pool_workers)),
            backend: config.backend,
            arena: BufferArena::new(Arc::clone(&memory)),
            memory,
            counters,
            block_size: config.block_size,
            launch_ordinal: Arc::new(AtomicU64::new(0)),
            fault_plan,
            kernel_timeout: config.kernel_timeout,
            cancel: None,
            tracer: Arc::new({
                let tracer = Tracer::from_env();
                if config.tracing {
                    tracer.set_enabled(true);
                }
                tracer
            }),
        }
    }

    /// A device with default configuration (all hardware threads).
    pub fn with_defaults() -> Self {
        Self::new(DeviceConfig::default())
    }

    /// Number of worker threads (excluding the launching thread).
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// The execution backend this device was constructed with.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// The device's work-distribution block size.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// The device-wide counters.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// A shareable handle to the device counters (for structures that
    /// outlive a borrow, e.g. a union-find label array).
    pub fn counters_arc(&self) -> Arc<Counters> {
        Arc::clone(&self.counters)
    }

    /// The device memory tracker.
    pub fn memory(&self) -> &MemoryTracker {
        &self.memory
    }

    /// The device's scratch-buffer arena. Shared by all clones; a buffer
    /// checked out here is charged against this device's memory tracker
    /// until it drops.
    pub fn arena(&self) -> &BufferArena {
        &self.arena
    }

    /// The fault plan attached at construction, if any. Read by
    /// `fdbscan-dist` to schedule rank failures.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault_plan.as_deref()
    }

    /// The configured kernel watchdog timeout, if any.
    pub fn kernel_timeout(&self) -> Option<Duration> {
        self.kernel_timeout
    }

    /// A clone of this device with a per-request [`CancelToken`]
    /// attached: the stream analogue. The clone shares the pool,
    /// counters, memory tracker, and arena, but its launch loop checks
    /// `token` **between** kernel launches (and between batched
    /// stages), and the token's deadline caps each launch's watchdog
    /// deadline so a stalled kernel is abandoned at the next block
    /// boundary. A fired token surfaces as [`DeviceError::Cancelled`]
    /// or [`DeviceError::DeadlineExceeded`]; other clones (other
    /// requests) are unaffected.
    pub fn with_cancel(&self, token: CancelToken) -> Device {
        let mut clone = self.clone();
        clone.cancel = Some(token);
        clone
    }

    /// The cancellation token attached via [`Device::with_cancel`], if
    /// any.
    pub fn cancel_token(&self) -> Option<&CancelToken> {
        self.cancel.as_ref()
    }

    /// Errors out if the attached [`CancelToken`] (if any) has fired.
    /// The launch loop calls this between launches; recovery ladders
    /// call it between retries so a cancelled request stops degrading
    /// instead of completing on a lower rung.
    pub fn check_cancelled(&self) -> Result<(), DeviceError> {
        match self.cancel_error() {
            Some(error) => Err(error),
            None => Ok(()),
        }
    }

    /// Runs `work`, a whole run or phase on this device, and turns a
    /// panic escaping it into an error: the cancellation when the
    /// attached token has fired (a cancelled request must stop, not
    /// retry), else [`DeviceError::KernelPanicked`] at the last launch
    /// started.
    pub fn catch_panic<T>(
        &self,
        work: impl FnOnce() -> Result<T, DeviceError>,
    ) -> Result<T, DeviceError> {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(work)) {
            Ok(result) => result,
            Err(payload) => {
                self.check_cancelled()?;
                Err(DeviceError::KernelPanicked {
                    launch: self.launches_started().saturating_sub(1),
                    payload: pool::panic_message(payload.as_ref()),
                })
            }
        }
    }

    /// The typed error for the token's current state, if it has fired.
    /// `launch` is the ordinal the *next* launch would get — the one
    /// cancellation prevented.
    fn cancel_error(&self) -> Option<DeviceError> {
        let launch = self.launch_ordinal.load(Ordering::Relaxed);
        match self.cancel.as_ref()?.fired()? {
            CancelCause::Cancelled => Some(DeviceError::Cancelled { launch }),
            CancelCause::DeadlineExceeded => Some(DeviceError::DeadlineExceeded { launch }),
        }
    }

    /// The pool deadline for one launch: the watchdog deadline capped
    /// by the token deadline. The flag says the token was binding, so a
    /// pool timeout is the request's deadline expiring (surface
    /// [`DeviceError::DeadlineExceeded`]), not a hung kernel.
    fn launch_deadline(&self) -> (Option<Instant>, bool) {
        let watchdog = self.kernel_timeout.map(|t| Instant::now() + t);
        let token = self.cancel.as_ref().and_then(|t| t.deadline());
        match (watchdog, token) {
            (Some(w), Some(t)) if t <= w => (Some(t), true),
            (None, Some(t)) => (Some(t), true),
            (w, _) => (w, false),
        }
    }

    /// The device's trace sink. Shared by all clones; a no-op unless
    /// tracing was enabled (via [`DeviceConfig::with_tracing`] or the
    /// `FDBSCAN_TRACE` environment variable).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Number of launches started over this device's lifetime (both
    /// fallible and panicking APIs). Unlike counters, never reset — this
    /// is the ordinal space [`FaultPlan`] launch faults are addressed in.
    pub fn launches_started(&self) -> u64 {
        self.launch_ordinal.load(Ordering::Relaxed)
    }

    /// Number of launches currently executing on the worker pool —
    /// an occupancy gauge for telemetry scrapes.
    pub fn active_launches(&self) -> usize {
        self.pool.active_launches()
    }

    /// Core fallible launch: assigns the launch ordinal, arms the
    /// watchdog deadline, and dispatches one stage (see
    /// [`Device::run_stage`]).
    fn run_fallible(
        &self,
        n: usize,
        label: &'static str,
        body: &(dyn Fn(Range<usize>) + Sync),
    ) -> Result<(), DeviceError> {
        // Cancellation point: a fired token stops the request *before*
        // the next launch starts — nothing is counted, no fault ordinal
        // is consumed, the launch simply never happens.
        if let Some(error) = self.cancel_error() {
            return Err(error);
        }
        let launch = self.launch_ordinal.fetch_add(1, Ordering::Relaxed);
        self.counters.kernel_launches.fetch_add(1, Ordering::Relaxed);
        let (deadline, token_binding) = self.launch_deadline();
        let mut result = self.run_stage(launch, n, label, deadline, body);
        if token_binding {
            if let Err(DeviceError::KernelTimeout { launch, .. }) = result {
                result = Err(DeviceError::DeadlineExceeded { launch });
            }
        }
        if result.is_err() {
            self.counters.failed_launches.fetch_add(1, Ordering::Relaxed);
        }
        result
    }

    /// Routes one stage to the configured execution engine: the
    /// in-order inline loop ([`Backend::Sequential`]) or the worker
    /// pool's shared-cursor distribution ([`Backend::Threaded`]). Both
    /// honor the same deadline, panic-containment, and profiling
    /// contract.
    fn run_on_backend(
        &self,
        n: usize,
        deadline: Option<Instant>,
        measure: bool,
        kernel: &(dyn Fn(Range<usize>) + Sync),
    ) -> Result<Option<LaunchProfile>, LaunchFailure> {
        match self.backend {
            Backend::Sequential => {
                self.pool.try_sequential_for_blocks(n, self.block_size, deadline, measure, kernel)
            }
            // A threaded backend whose pool spawned no workers (the
            // `threaded:1` case) has exactly one participant — the
            // launching thread — so the in-order inline engine runs the
            // same schedule without the cross-thread handoff.
            Backend::Threaded { .. } if self.pool.workers() == 0 => {
                self.pool.try_sequential_for_blocks(n, self.block_size, deadline, measure, kernel)
            }
            Backend::Threaded { .. } => {
                self.pool.try_parallel_for_blocks(n, self.block_size, deadline, measure, kernel)
            }
        }
    }

    /// One dispatched stage of a launch (a whole single launch, or one
    /// stage of a batched submission): weaves injected stalls/panics
    /// into the block kernel, maps pool failures to [`DeviceError`]
    /// against the owning `launch` ordinal, and — when tracing is
    /// enabled (one relaxed atomic load otherwise) — records a named
    /// kernel span with the stage's execution profile.
    fn run_stage(
        &self,
        launch: u64,
        n: usize,
        label: &'static str,
        deadline: Option<Instant>,
        body: &(dyn Fn(Range<usize>) + Sync),
    ) -> Result<(), DeviceError> {
        let measure = self.tracer.enabled();
        let started = measure.then(Instant::now);
        // Each block tallies this device's hot counters per thread and
        // flushes them when it ends (see `counters`).
        let tallied = |range: Range<usize>| {
            let _tally = self.counters.block_scope();
            body(range);
        };
        let body = &tallied;
        let result = match self.fault_plan.as_deref() {
            // Fast path: no plan, no wrapping.
            None => self.run_on_backend(n, deadline, measure, body),
            Some(plan) => {
                let wrapped = |range: Range<usize>| {
                    // Blocks are aligned to `block_size`, so the block
                    // index is recoverable from the range start.
                    let block = range.start / self.block_size;
                    if let Some(millis) = plan.stall_millis(launch, block) {
                        self.counters.injected_stalls.fetch_add(1, Ordering::Relaxed);
                        std::thread::sleep(Duration::from_millis(millis));
                    }
                    if plan.panic_fires(launch, block) {
                        self.counters.injected_panics.fetch_add(1, Ordering::Relaxed);
                        panic!("{}", FaultSite::KernelPanic { launch, block });
                    }
                    body(range);
                };
                self.run_on_backend(n, deadline, measure, &wrapped)
            }
        };
        match result {
            Ok(profile) => {
                if let (Some(started), Some(profile)) = (started, profile) {
                    self.tracer.record_kernel(
                        label,
                        started,
                        Instant::now(),
                        KernelMeta {
                            index_space: n,
                            block_size: self.block_size,
                            blocks: profile.blocks(),
                            passes: profile.passes(),
                            participants: profile.participants(),
                            imbalance: profile.imbalance(),
                        },
                    );
                }
                Ok(())
            }
            Err(failure) => Err(match failure {
                LaunchFailure::Panicked { payload } => {
                    DeviceError::KernelPanicked { launch, payload }
                }
                LaunchFailure::TimedOut { elapsed } => {
                    DeviceError::KernelTimeout { launch, elapsed }
                }
            }),
        }
    }

    /// Submits a fixed sequence of kernel stages as **one** batched
    /// launch: one launch ordinal, one `kernel_launches` increment, and
    /// one watchdog deadline cover the whole batch, amortizing the
    /// per-launch barrier exactly as enqueueing a kernel graph on a
    /// stream does. Stages still execute strictly in order with a full
    /// device barrier between them (stage `k+1` sees all of stage `k`'s
    /// writes), each stage records its own kernel span under the
    /// batch's phase when tracing, and each executed stage counts in
    /// [`Counters::batched_stages`].
    ///
    /// Fault injection addresses the batch's single launch ordinal:
    /// an injected panic or stall scheduled there fires in whichever
    /// stage first executes the targeted block. A failing stage aborts
    /// the remaining stages and fails the whole batch. Zero-length
    /// stages are skipped (as zero-length launches are no-ops).
    pub fn try_batch_named(
        &self,
        label: &'static str,
        stages: Vec<BatchStage<'_>>,
    ) -> Result<(), DeviceError> {
        // Cancellation point, as in `run_fallible`: a batch whose token
        // fired before submission never starts and counts nothing.
        if let Some(error) = self.cancel_error() {
            return Err(error);
        }
        let launch = self.launch_ordinal.fetch_add(1, Ordering::Relaxed);
        self.counters.kernel_launches.fetch_add(1, Ordering::Relaxed);
        let (deadline, token_binding) = self.launch_deadline();
        let _batch_span = self.tracer.phase(label);
        for stage in &stages {
            if stage.n == 0 {
                continue;
            }
            // Stage boundaries are cancellation points too — the batch
            // has started, so abandoning it here fails the launch.
            if let Some(error) = self.cancel_error() {
                self.counters.failed_launches.fetch_add(1, Ordering::Relaxed);
                return Err(error);
            }
            self.counters.batched_stages.fetch_add(1, Ordering::Relaxed);
            let kernel = &stage.kernel;
            let body = |range: Range<usize>| {
                for i in range {
                    kernel(i);
                }
            };
            if let Err(mut error) = self.run_stage(launch, stage.n, stage.label, deadline, &body) {
                if token_binding {
                    if let DeviceError::KernelTimeout { launch, .. } = error {
                        error = DeviceError::DeadlineExceeded { launch };
                    }
                }
                self.counters.failed_launches.fetch_add(1, Ordering::Relaxed);
                return Err(error);
            }
        }
        Ok(())
    }

    /// Fallible kernel launch over the index space `0..n`.
    ///
    /// Same execution model as [`Device::launch`], but a panicking kernel
    /// body (organic or injected) yields
    /// [`DeviceError::KernelPanicked`] carrying the first panic payload,
    /// and a launch exceeding the configured watchdog timeout yields
    /// [`DeviceError::KernelTimeout`] — in both cases the device (pool,
    /// counters, memory tracker) remains fully usable.
    pub fn try_launch<F>(&self, n: usize, kernel: F) -> Result<(), DeviceError>
    where
        F: Fn(usize) + Sync,
    {
        self.try_launch_named("unnamed", n, kernel)
    }

    /// [`Device::try_launch`] with a kernel label: the launch appears
    /// under `label` in traces, histograms, and panic messages.
    pub fn try_launch_named<F>(
        &self,
        label: &'static str,
        n: usize,
        kernel: F,
    ) -> Result<(), DeviceError>
    where
        F: Fn(usize) + Sync,
    {
        self.run_fallible(n, label, &|range: Range<usize>| {
            for i in range {
                kernel(i);
            }
        })
    }

    /// Fallible parallel reduction over the index space `0..n` (see
    /// [`Device::reduce`] for the `combine` contract), under a kernel
    /// label. On failure the partial accumulator is discarded.
    pub fn try_reduce_named<T, M, C>(
        &self,
        label: &'static str,
        n: usize,
        identity: T,
        map: M,
        combine: C,
    ) -> Result<T, DeviceError>
    where
        T: Send + Sync + Clone,
        M: Fn(usize) -> T + Sync,
        C: Fn(T, T) -> T + Sync + Send,
    {
        let accumulator: Mutex<T> = Mutex::new(identity.clone());
        self.run_fallible(n, label, &|range: Range<usize>| {
            let mut local = identity.clone();
            for i in range {
                local = combine(local, map(i));
            }
            let mut acc = accumulator.lock();
            let current = acc.clone();
            *acc = combine(current, local);
        })?;
        Ok(accumulator.into_inner())
    }

    /// Launches a kernel over the index space `0..n`.
    ///
    /// Every index is executed exactly once; blocks of `block_size`
    /// consecutive indices are handed to pool workers (the launching
    /// thread participates). The call returns once **all** indices have
    /// executed — a kernel boundary, i.e. a device-wide barrier.
    ///
    /// If the kernel body panics (or the watchdog cancels the launch),
    /// the launch completes distribution and then propagates a panic on
    /// the launching thread. Recoverable callers should prefer
    /// [`Device::try_launch`].
    pub fn launch<F>(&self, n: usize, kernel: F)
    where
        F: Fn(usize) + Sync,
    {
        self.launch_named("unnamed", n, kernel)
    }

    /// [`Device::launch`] with a kernel label: the launch appears under
    /// `label` in traces and histograms, and a kernel panic or watchdog
    /// timeout propagates a panic naming the kernel.
    pub fn launch_named<F>(&self, label: &'static str, n: usize, kernel: F)
    where
        F: Fn(usize) + Sync,
    {
        if let Err(error) = self.try_launch_named(label, n, kernel) {
            match error {
                DeviceError::KernelPanicked { payload, .. } => {
                    panic!("kernel '{label}' panicked during launch: {payload}")
                }
                other => panic!("kernel '{label}': {other}"),
            }
        }
    }

    /// Parallel reduction over the index space `0..n`.
    ///
    /// `map` produces a value per index; `combine` must be associative and
    /// commutative (block partials are combined in nondeterministic
    /// order). `identity` is the identity of `combine`. Panics on kernel
    /// panic or watchdog timeout; recoverable callers should prefer
    /// [`Device::try_reduce_named`].
    pub fn reduce<T, M, C>(&self, n: usize, identity: T, map: M, combine: C) -> T
    where
        T: Send + Sync + Clone,
        M: Fn(usize) -> T + Sync,
        C: Fn(T, T) -> T + Sync + Send,
    {
        self.reduce_named("unnamed", n, identity, map, combine)
    }

    /// [`Device::reduce`] with a kernel label (see
    /// [`Device::launch_named`] for the label's uses).
    pub fn reduce_named<T, M, C>(
        &self,
        label: &'static str,
        n: usize,
        identity: T,
        map: M,
        combine: C,
    ) -> T
    where
        T: Send + Sync + Clone,
        M: Fn(usize) -> T + Sync,
        C: Fn(T, T) -> T + Sync + Send,
    {
        match self.try_reduce_named(label, n, identity, map, combine) {
            Ok(value) => value,
            Err(DeviceError::KernelPanicked { payload, .. }) => {
                panic!("kernel '{label}' panicked during launch: {payload}")
            }
            Err(other) => panic!("kernel '{label}': {other}"),
        }
    }
}

impl std::fmt::Debug for Device {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Device")
            .field("backend", &self.backend)
            .field("workers", &self.workers())
            .field("block_size", &self.block_size)
            .field("memory_budget", &self.memory.budget())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn launch_covers_every_index_exactly_once() {
        let device = Device::new(DeviceConfig::default().with_workers(3).with_block_size(7));
        let n = 10_000;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        device.launch(n, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn launch_zero_size_is_noop() {
        let device = Device::with_defaults();
        device.launch(0, |_| panic!("must not run"));
    }

    #[test]
    fn sequential_device_works() {
        let device = Device::new(DeviceConfig::sequential());
        assert_eq!(device.workers(), 0);
        let total = AtomicUsize::new(0);
        device.launch(1000, |i| {
            total.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 999 * 1000 / 2);
    }

    #[test]
    fn reduce_sums_correctly() {
        let device = Device::new(DeviceConfig::default().with_workers(2).with_block_size(13));
        let sum = device.reduce(1001, 0u64, |i| i as u64, |a, b| a + b);
        assert_eq!(sum, 1000 * 1001 / 2);
    }

    #[test]
    fn reduce_empty_returns_identity() {
        let device = Device::with_defaults();
        assert_eq!(device.reduce(0, 42u32, |_| 0, |a, b| a + b), 42);
    }

    #[test]
    fn reduce_max() {
        let device = Device::new(DeviceConfig::default().with_workers(2));
        let values: Vec<u32> = (0..5000).map(|i| (i * 2654435761u64 % 10007) as u32).collect();
        let expected = *values.iter().max().unwrap();
        let got = device.reduce(values.len(), 0u32, |i| values[i], |a, b| a.max(b));
        assert_eq!(got, expected);
    }

    #[test]
    fn kernel_launch_counter_increments() {
        let device = Device::with_defaults();
        let before = device.counters().snapshot().kernel_launches;
        device.launch(1, |_| {});
        device.launch(1, |_| {});
        let after = device.counters().snapshot().kernel_launches;
        assert_eq!(after - before, 2);
    }

    #[test]
    #[should_panic(expected = "panicked during launch")]
    fn kernel_panic_propagates() {
        let device = Device::new(DeviceConfig::default().with_workers(2));
        device.launch(100, |i| {
            if i == 57 {
                panic!("boom");
            }
        });
    }

    #[test]
    fn device_survives_kernel_panic() {
        let device = Device::new(DeviceConfig::default().with_workers(2));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            device.launch(100, |i| {
                if i == 3 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        // The pool must still be usable after a kernel panic.
        let total = AtomicUsize::new(0);
        device.launch(100, |_| {
            total.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn launches_provide_happens_before() {
        // Writes from kernel 1 must be visible to kernel 2 without atomics
        // on the data itself.
        let device = Device::new(DeviceConfig::default().with_workers(3));
        let n = 4096;
        let mut data = vec![0u64; n];
        {
            let view = SharedMut::new(&mut data);
            device.launch(n, |i| unsafe { view.write(i, i as u64 + 1) });
        }
        let sum = device.reduce(n, 0u64, |i| data[i], |a, b| a + b);
        assert_eq!(sum, (1..=n as u64).sum::<u64>());
    }

    #[test]
    fn clones_share_counters() {
        let device = Device::with_defaults();
        let clone = device.clone();
        let before = device.counters().snapshot().kernel_launches;
        clone.launch(1, |_| {});
        assert_eq!(device.counters().snapshot().kernel_launches, before + 1);
    }

    #[test]
    fn try_launch_reports_panic_with_payload_and_ordinal() {
        let device = Device::new(DeviceConfig::default().with_workers(2));
        device.launch(10, |_| {}); // launch 0
        let err = device
            .try_launch(100, |i| {
                if i == 57 {
                    panic!("organic fault {i}");
                }
            })
            .unwrap_err();
        match err {
            DeviceError::KernelPanicked { launch, payload } => {
                assert_eq!(launch, 1);
                assert_eq!(payload, "organic fault 57");
            }
            other => panic!("expected KernelPanicked, got {other:?}"),
        }
        assert_eq!(device.counters().snapshot().failed_launches, 1);
        // Device fully usable afterwards.
        let sum = device.try_reduce_named("sum", 100, 0u64, |i| i as u64, |a, b| a + b).unwrap();
        assert_eq!(sum, 99 * 100 / 2);
        assert_eq!(device.launches_started(), 3);
    }

    #[test]
    fn catch_panic_names_the_last_launch_or_the_cancellation() {
        let device = Device::new(DeviceConfig::sequential());
        device.launch(10, |_| {}); // launch 0
        device.launch(10, |_| {}); // launch 1
        let boom = || -> Result<(), DeviceError> { panic!("escaped {}", 7) };
        assert_eq!(
            device.catch_panic(boom),
            Err(DeviceError::KernelPanicked { launch: 1, payload: "escaped 7".to_string() })
        );
        assert_eq!(device.catch_panic(|| Ok(3)), Ok(3));
        let token = CancelToken::new();
        token.cancel();
        let cancelled = device.with_cancel(token);
        assert!(matches!(cancelled.catch_panic(boom), Err(DeviceError::Cancelled { .. })));
    }

    #[test]
    fn injected_panic_is_deterministic_and_counted() {
        for _ in 0..3 {
            let plan = FaultPlan::new(11).with_kernel_panic_at(1, 2);
            let device = Device::new(
                DeviceConfig::default().with_workers(2).with_block_size(8).with_fault_plan(plan),
            );
            device.try_launch(64, |_| {}).unwrap(); // launch 0: clean
            let err = device.try_launch(64, |_| {}).unwrap_err(); // launch 1
            match err {
                DeviceError::KernelPanicked { launch, payload } => {
                    assert_eq!(launch, 1);
                    assert!(payload.contains("launch 1 block 2"), "payload: {payload}");
                }
                other => panic!("expected KernelPanicked, got {other:?}"),
            }
            assert_eq!(device.counters().snapshot().injected_panics, 1);
            // Ordinal-addressed: the retry (launch 2) succeeds.
            device.try_launch(64, |_| {}).unwrap();
        }
    }

    #[test]
    fn injected_stall_trips_watchdog() {
        let plan = FaultPlan::new(5).with_worker_stall(0, 0, 50);
        let device = Device::new(
            DeviceConfig::sequential()
                .with_block_size(4)
                .with_fault_plan(plan)
                .with_kernel_timeout(Duration::from_millis(10)),
        );
        let err = device.try_launch(64, |_| {}).unwrap_err();
        match err {
            DeviceError::KernelTimeout { launch, elapsed } => {
                assert_eq!(launch, 0);
                assert!(elapsed >= Duration::from_millis(10));
            }
            other => panic!("expected KernelTimeout, got {other:?}"),
        }
        let snap = device.counters().snapshot();
        assert_eq!(snap.injected_stalls, 1);
        assert_eq!(snap.failed_launches, 1);
        // Later launches are unaffected (watchdog deadline is per launch).
        device.try_launch(64, |_| {}).unwrap();
    }

    #[test]
    fn no_timeout_without_watchdog() {
        // A stall without a configured timeout just runs slowly.
        let plan = FaultPlan::new(5).with_worker_stall(0, 0, 20);
        let device =
            Device::new(DeviceConfig::sequential().with_block_size(4).with_fault_plan(plan));
        device.try_launch(8, |_| {}).unwrap();
        assert_eq!(device.counters().snapshot().injected_stalls, 1);
    }

    #[test]
    #[should_panic(expected = "panicked during launch")]
    fn infallible_launch_panics_on_injected_fault() {
        let plan = FaultPlan::new(3).with_kernel_panic_at(0, 0);
        let device = Device::new(DeviceConfig::sequential().with_fault_plan(plan));
        device.launch(10, |_| {});
    }

    #[test]
    #[should_panic(expected = "kernel 'named.kernel' panicked during launch: boom")]
    fn named_launch_panic_carries_label() {
        let device = Device::new(DeviceConfig::sequential());
        device.launch_named("named.kernel", 10, |i| {
            if i == 3 {
                panic!("boom");
            }
        });
    }

    #[test]
    fn traced_launch_records_kernel_span() {
        let device = Device::new(DeviceConfig::default().with_workers(2).with_tracing());
        assert!(device.tracer().enabled());
        device.launch_named("square", 1000, |_| {});
        let sum = device.reduce_named("sum", 1000, 0u64, |i| i as u64, |a, b| a + b);
        assert_eq!(sum, 999 * 1000 / 2);
        let events = device.tracer().events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].label, "square");
        assert_eq!(events[0].kind, SpanKind::Kernel);
        let meta = events[0].kernel.expect("kernel span has metadata");
        assert_eq!(meta.index_space, 1000);
        assert_eq!(meta.blocks, 4, "1000 indices / 256 block size");
        assert_eq!(meta.participants, 3);
        assert!(meta.imbalance >= 1.0);
        assert_eq!(events[1].label, "sum");
        // Histograms were fed too.
        let labels: Vec<_> =
            device.tracer().histogram_summaries().into_iter().map(|h| h.label).collect();
        assert_eq!(labels, ["square", "sum"]);
    }

    #[test]
    fn untraced_device_records_nothing() {
        let device = Device::new(DeviceConfig::default().with_workers(1));
        device.launch_named("square", 1000, |_| {});
        device.launch(1000, |_| {});
        assert!(!device.tracer().enabled());
        assert_eq!(device.tracer().event_count(), 0);
        assert!(device.tracer().histogram_summaries().is_empty());
    }

    #[test]
    fn clones_share_tracer() {
        let device = Device::new(DeviceConfig::sequential().with_tracing());
        let clone = device.clone();
        clone.launch_named("k", 10, |_| {});
        assert_eq!(device.tracer().event_count(), 1);
    }

    #[test]
    fn zero_size_launch_records_no_span() {
        let device = Device::new(DeviceConfig::sequential().with_tracing());
        device.launch_named("empty", 0, |_| {});
        assert_eq!(device.tracer().event_count(), 0);
    }

    #[test]
    fn device_reservations_are_counted() {
        let device = Device::with_defaults();
        let _r = device.memory().reserve(128).unwrap();
        assert_eq!(device.counters().snapshot().reservations, 1);
        assert_eq!(device.memory().reservations_made(), 1);
    }

    #[test]
    fn batch_counts_one_launch_and_orders_stages() {
        let device = Device::new(DeviceConfig::default().with_workers(2));
        let n = 4096;
        let mut data = vec![0u64; n];
        let before = device.counters().snapshot();
        {
            let view = SharedMut::new(&mut data);
            device
                .try_batch_named(
                    "batch.test",
                    vec![
                        BatchStage::new("stage.write", n, |i| unsafe { view.write(i, i as u64) }),
                        // Stage barrier: every stage-1 write is visible.
                        BatchStage::new("stage.double", n, |i| unsafe {
                            view.write(i, view.read(i) * 2)
                        }),
                        BatchStage::new("stage.empty", 0, |_| {
                            panic!("zero-size stage must not run")
                        }),
                    ],
                )
                .unwrap();
        }
        assert!(data.iter().enumerate().all(|(i, &v)| v == 2 * i as u64));
        let delta = device.counters().snapshot().since(&before);
        assert_eq!(delta.kernel_launches, 1, "a batch is one launch");
        assert_eq!(delta.batched_stages, 2, "zero-size stages are skipped");
        assert_eq!(device.launches_started(), 1);
    }

    #[test]
    fn injected_panic_addresses_the_batch_ordinal() {
        let plan = FaultPlan::new(13).with_kernel_panic_at(1, 0);
        let device =
            Device::new(DeviceConfig::sequential().with_block_size(8).with_fault_plan(plan));
        device.try_launch(16, |_| {}).unwrap(); // launch 0: clean
        let err = device
            .try_batch_named(
                "batch.faulty",
                vec![BatchStage::new("a", 16, |_| {}), BatchStage::new("b", 16, |_| {})],
            )
            .unwrap_err(); // launch 1: the batch
        match err {
            DeviceError::KernelPanicked { launch, payload } => {
                assert_eq!(launch, 1);
                assert!(payload.contains("launch 1 block 0"), "payload: {payload}");
            }
            other => panic!("expected KernelPanicked, got {other:?}"),
        }
        let snap = device.counters().snapshot();
        assert_eq!(snap.failed_launches, 1);
        // The first stage took the fault; the batch stopped there.
        assert_eq!(snap.batched_stages, 1);
        // The device stays usable and the ordinal fired exactly once.
        device.try_batch_named("batch.retry", vec![BatchStage::new("a", 16, |_| {})]).unwrap();
    }

    #[test]
    fn traced_batch_records_stage_spans_under_batch_phase() {
        let device = Device::new(DeviceConfig::sequential().with_tracing());
        device
            .try_batch_named(
                "batch.traced",
                vec![BatchStage::new("s1", 10, |_| {}), BatchStage::new("s2", 10, |_| {})],
            )
            .unwrap();
        let events = device.tracer().events();
        let labels: Vec<_> = events.iter().map(|e| e.label.as_ref()).collect();
        assert!(labels.contains(&"s1") && labels.contains(&"s2"), "labels: {labels:?}");
        assert!(labels.contains(&"batch.traced"), "labels: {labels:?}");
        let s1 = events.iter().find(|e| e.label == "s1").unwrap();
        assert_eq!(s1.kind, SpanKind::Kernel);
        assert!(s1.path.contains("batch.traced"), "path: {}", s1.path);
    }

    #[test]
    fn cancelled_token_stops_next_launch_but_not_neighbors() {
        let device = Device::new(DeviceConfig::default().with_workers(2));
        let token = CancelToken::new();
        let request = device.with_cancel(token.clone());
        request.try_launch(64, |_| {}).unwrap(); // token not fired yet
        token.cancel();
        let ran = AtomicUsize::new(0);
        let err = request
            .try_launch(64, |_| {
                ran.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap_err();
        match err {
            DeviceError::Cancelled { launch } => assert_eq!(launch, 1),
            other => panic!("expected Cancelled, got {other:?}"),
        }
        assert_eq!(ran.load(Ordering::Relaxed), 0, "cancelled launch must not start");
        // The cancelled launch never happened: no ordinal consumed, no
        // counters charged, and the parent device is unaffected.
        assert_eq!(device.launches_started(), 1);
        assert_eq!(device.counters().snapshot().failed_launches, 0);
        device.try_launch(64, |_| {}).unwrap();
    }

    #[test]
    fn expired_token_deadline_blocks_launch_at_entry() {
        let device = Device::new(DeviceConfig::sequential());
        let request =
            device.with_cancel(CancelToken::with_deadline(Instant::now() - Duration::from_secs(1)));
        let err = request.try_launch(64, |_| {}).unwrap_err();
        assert!(matches!(err, DeviceError::DeadlineExceeded { launch: 0 }), "got {err:?}");
        let batch_err = request
            .try_batch_named("b", vec![BatchStage::new("s", 16, |_| panic!("must not run"))])
            .unwrap_err();
        assert!(matches!(batch_err, DeviceError::DeadlineExceeded { .. }), "got {batch_err:?}");
        assert_eq!(device.launches_started(), 0);
    }

    #[test]
    fn token_deadline_interrupts_stalled_launch_as_deadline_exceeded() {
        // No watchdog configured: the token's deadline alone caps the
        // pool deadline, and the mid-launch timeout is diagnosed as the
        // request's deadline, not a hung kernel.
        let plan = FaultPlan::new(7).with_worker_stall(0, 0, 50);
        let device =
            Device::new(DeviceConfig::sequential().with_block_size(4).with_fault_plan(plan));
        let request = device.with_cancel(CancelToken::with_timeout(Duration::from_millis(10)));
        let err = request.try_launch(64, |_| {}).unwrap_err();
        assert!(matches!(err, DeviceError::DeadlineExceeded { launch: 0 }), "got {err:?}");
        assert_eq!(device.counters().snapshot().failed_launches, 1);
        // The shared pool is fine; an un-cancelled clone keeps working.
        device.try_launch(64, |_| {}).unwrap();
    }

    #[test]
    fn watchdog_timeout_still_reported_when_it_binds_first() {
        // Token deadline far away, watchdog tight: the stall is a hung
        // kernel, and must keep its KernelTimeout diagnosis.
        let plan = FaultPlan::new(7).with_worker_stall(0, 0, 50);
        let device = Device::new(
            DeviceConfig::sequential()
                .with_block_size(4)
                .with_fault_plan(plan)
                .with_kernel_timeout(Duration::from_millis(10)),
        );
        let request = device.with_cancel(CancelToken::with_timeout(Duration::from_secs(3600)));
        let err = request.try_launch(64, |_| {}).unwrap_err();
        assert!(matches!(err, DeviceError::KernelTimeout { launch: 0, .. }), "got {err:?}");
    }

    #[test]
    fn cancel_between_batched_stages_fails_the_batch() {
        let device = Device::new(DeviceConfig::sequential());
        let token = CancelToken::new();
        let request = device.with_cancel(token.clone());
        let stage2_ran = AtomicUsize::new(0);
        let err = request
            .try_batch_named(
                "batch.cancelled",
                vec![
                    BatchStage::new("s1", 16, |_| token.cancel()),
                    BatchStage::new("s2", 16, |_| {
                        stage2_ran.fetch_add(1, Ordering::Relaxed);
                    }),
                ],
            )
            .unwrap_err();
        assert!(matches!(err, DeviceError::Cancelled { .. }), "got {err:?}");
        assert_eq!(stage2_ran.load(Ordering::Relaxed), 0, "stage after cancel must not run");
        let snap = device.counters().snapshot();
        assert_eq!(snap.batched_stages, 1);
        assert_eq!(snap.failed_launches, 1);
        // Fresh batches on an un-cancelled clone are unaffected.
        device.try_batch_named("batch.ok", vec![BatchStage::new("s", 16, |_| {})]).unwrap();
    }

    #[test]
    fn with_workers_zero_selects_sequential_backend() {
        let device = Device::new(DeviceConfig::default().with_workers(0));
        assert_eq!(device.backend(), Backend::Sequential);
        assert_eq!(device.workers(), 0);
        let device = Device::new(DeviceConfig::default().with_workers(3));
        assert_eq!(device.backend(), Backend::Threaded { workers: 3 });
        assert_eq!(device.workers(), 3);
        assert_eq!(Device::new(DeviceConfig::sequential()).backend(), Backend::Sequential);
    }

    #[test]
    fn threaded_one_worker_runs_on_the_inline_engine() {
        // `threaded:1` has no parallelism to win, so the device spawns
        // no pool threads and the launch runs in-order on the caller.
        let device = Device::new(DeviceConfig::default().with_workers(1));
        assert_eq!(device.backend(), Backend::Threaded { workers: 1 });
        assert_eq!(device.workers(), 0, "no cross-thread handoff at one worker");
        let order = Mutex::new(Vec::new());
        device.launch(100, |i| order.lock().push(i));
        assert_eq!(*order.lock(), (0..100).collect::<Vec<_>>(), "inline engine is in-order");
    }

    #[test]
    #[should_panic(expected = "BVH width must be 2")]
    fn bvh_width_rejects_unsupported_widths() {
        let _ = DeviceConfig::sequential().with_bvh_width(8);
    }

    #[test]
    fn explicit_backend_overrides_config() {
        let device =
            Device::new(DeviceConfig::default().with_backend(Backend::Threaded { workers: 2 }));
        assert_eq!(device.backend(), Backend::Threaded { workers: 2 });
        assert_eq!(device.workers(), 2);
    }

    #[test]
    fn sequential_backend_combines_reduce_partials_in_order() {
        // The sequential engine runs blocks in ascending order on one
        // thread, so even a non-commutative combine is deterministic —
        // the property that makes it the regression oracle.
        let device = Device::new(DeviceConfig::sequential().with_block_size(4));
        let digits = device.reduce(10, String::new(), |i| i.to_string(), |a, b| format!("{a}{b}"));
        assert_eq!(digits, "0123456789");
    }

    #[test]
    fn sequential_backend_watchdog_and_recovery_match_threaded() {
        for config in [
            DeviceConfig::sequential().with_block_size(8),
            DeviceConfig::default().with_workers(2).with_block_size(8),
        ] {
            let device = Device::new(config);
            let err = device
                .try_launch(64, |i| {
                    if i == 17 {
                        panic!("backend fault");
                    }
                })
                .unwrap_err();
            assert!(matches!(err, DeviceError::KernelPanicked { .. }), "got {err:?}");
            // The engine survives and the next launch is clean.
            let total = AtomicUsize::new(0);
            device.launch(64, |_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(total.load(Ordering::Relaxed), 64);
        }
    }

    #[test]
    fn device_arena_is_shared_by_clones() {
        // A clone's take charges the original's tracker and occupies its
        // next ordinal; each drop releases it, so repeats reach the same
        // peak.
        let device = Device::with_defaults();
        let clone = device.clone();
        for round in 1..=2u64 {
            let buf = clone.arena().take::<u32>(32).unwrap();
            assert_eq!(device.memory().in_use(), 128);
            drop(buf);
            assert_eq!(device.memory().in_use(), 0);
            assert_eq!(device.memory().peak(), 128);
            assert_eq!(device.memory().reservations_made(), round);
        }
    }
}
