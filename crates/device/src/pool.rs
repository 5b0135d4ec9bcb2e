//! Persistent worker pool with batched (kernel-style) work distribution.
//!
//! The pool mimics a GPU's execution model rather than a task scheduler:
//! a *launch* hands every worker the same job, workers pull fixed-size
//! blocks of the index space from a shared cursor until it is exhausted,
//! and the launching thread both participates and blocks until the job is
//! complete. There is no nesting and no stealing between jobs — each
//! launch is a grid, each block a thread block.

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::{Condvar, Mutex};

/// Why a fallible launch failed. Mapped to `DeviceError` by `Device`;
/// kept separate so the pool stays ignorant of launch ordinals.
#[derive(Debug)]
pub(crate) enum LaunchFailure {
    /// At least one kernel invocation panicked; `payload` is the first
    /// panic payload observed (stringified).
    Panicked {
        /// First panic payload, stringified.
        payload: String,
    },
    /// The launch deadline passed; remaining blocks were cancelled
    /// cooperatively at a block boundary.
    TimedOut {
        /// Time since launch start when the timeout was reported.
        elapsed: Duration,
    },
}

/// Per-participant execution profile of one *measured* launch (tracing
/// enabled). Index `i` of the vectors is one pool participant; the
/// launching thread is included, and so are participants that pulled no
/// blocks — idle threads count toward load imbalance, exactly as idle
/// SMs count against GPU occupancy.
#[derive(Clone, Debug)]
pub struct LaunchProfile {
    /// Time each participant spent executing kernel blocks.
    pub busy: Vec<Duration>,
    /// Blocks each participant pulled from the shared cursor.
    pub blocks_pulled: Vec<u64>,
}

impl LaunchProfile {
    /// Number of participants (workers + the launching thread).
    pub fn participants(&self) -> usize {
        self.busy.len()
    }

    /// Total blocks executed.
    pub fn blocks(&self) -> u64 {
        self.blocks_pulled.iter().sum()
    }

    /// Grid-stride passes: the most blocks any one participant pulled.
    pub fn passes(&self) -> u64 {
        self.blocks_pulled.iter().copied().max().unwrap_or(0)
    }

    /// Longest per-participant busy time.
    pub fn max_busy(&self) -> Duration {
        self.busy.iter().copied().max().unwrap_or(Duration::ZERO)
    }

    /// Mean per-participant busy time (idle participants included).
    pub fn mean_busy(&self) -> Duration {
        if self.busy.is_empty() {
            return Duration::ZERO;
        }
        self.busy.iter().sum::<Duration>() / self.busy.len() as u32
    }

    /// Load imbalance: `max_busy / mean_busy`, ≥ 1.0. A perfectly
    /// balanced launch scores 1.0; `participants()` means one thread did
    /// all the work. 1.0 when nothing was measured.
    pub fn imbalance(&self) -> f64 {
        let mean = self.mean_busy().as_secs_f64();
        if mean <= 0.0 {
            return 1.0;
        }
        (self.max_busy().as_secs_f64() / mean).max(1.0)
    }
}

/// Stringifies a panic payload: `&str` and `String` payloads (the
/// overwhelmingly common cases) are preserved verbatim; anything else is
/// reported by type only.
fn payload_to_string(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Type-erased kernel body operating on a block (contiguous index range).
///
/// The fat pointer is only dereferenced while the owning
/// [`WorkerPool::try_parallel_for_blocks`] frame is alive (see the safety
/// note there), so storing a raw pointer — which may dangle after
/// completion — is sound.
struct Job {
    kernel: *const (dyn Fn(Range<usize>) + Sync),
    n: usize,
    block: usize,
    /// Blocks claimed per cursor `fetch_add`. Claimed runs are executed
    /// as individual `block`-sized sub-blocks (kernels still see ranges
    /// aligned to `block`, which fault injection relies on); claiming
    /// several per pull divides the atomic traffic on the shared cursor
    /// by `chunk`.
    chunk: usize,
    /// Cooperative watchdog deadline: checked before each block pull.
    /// A kernel that blocks forever inside a single block defeats it —
    /// same contract as a real GPU watchdog, which can only reset
    /// between scheduled work units.
    deadline: Option<Instant>,
    cursor: AtomicUsize,
    pending: AtomicUsize,
    panicked: AtomicBool,
    timed_out: AtomicBool,
    /// First panic payload observed (workers race; later ones are
    /// dropped).
    payload: Mutex<Option<String>>,
    /// Whether participants measure per-block busy time (tracing).
    measure: bool,
    /// Per-participant (busy, blocks pulled), pushed once per participant
    /// before its `pending` decrement. Empty unless `measure`.
    stats: Mutex<Vec<(Duration, u64)>>,
    done: Mutex<bool>,
    done_cv: Condvar,
}

// SAFETY: the raw kernel pointer targets a `Sync` closure, and `Job` is
// only shared between threads while the closure is alive.
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

impl Job {
    /// Pulls blocks until the index space is exhausted, then signals.
    fn run(&self) {
        // SAFETY: `try_parallel_for_blocks` does not return until
        // `pending` hits zero, which happens strictly after the last
        // dereference.
        let kernel = unsafe { &*self.kernel };
        let mut busy = Duration::ZERO;
        let mut pulled = 0u64;
        'claim: loop {
            // Deadline check precedes the claim *and* the exhaustion
            // test, so a participant returning late from a long block
            // still reports the timeout even after the cursor drained.
            if let Some(deadline) = self.deadline {
                if Instant::now() >= deadline {
                    self.timed_out.store(true, Ordering::Relaxed);
                    // Cancel remaining blocks; in-flight blocks on
                    // other workers finish their current block first.
                    self.cursor.store(self.n, Ordering::Relaxed);
                    break;
                }
            }
            // One fetch_add claims a run of `chunk` blocks; the run is
            // then executed as `block`-sized sub-blocks in ascending
            // order, so kernels observe the same aligned ranges as with
            // per-block claiming — only the cursor traffic changes.
            let start = self.cursor.fetch_add(self.chunk * self.block, Ordering::Relaxed);
            if start >= self.n {
                break;
            }
            let claim_end = (start + self.chunk * self.block).min(self.n);
            let mut sub = start;
            while sub < claim_end {
                // Between sub-blocks of a multi-block claim the watchdog
                // still fires promptly (the first sub-block was covered
                // by the loop-top check).
                if sub > start {
                    if let Some(deadline) = self.deadline {
                        if Instant::now() >= deadline {
                            self.timed_out.store(true, Ordering::Relaxed);
                            self.cursor.store(self.n, Ordering::Relaxed);
                            break 'claim;
                        }
                    }
                }
                let end = (sub + self.block).min(claim_end);
                // Clock reads are gated on `measure`: an untraced launch
                // pays zero timing overhead per block.
                let block_start = if self.measure { Some(Instant::now()) } else { None };
                let result = catch_unwind(AssertUnwindSafe(|| kernel(sub..end)));
                if let Some(block_start) = block_start {
                    busy += block_start.elapsed();
                    pulled += 1;
                }
                if let Err(panic) = result {
                    let mut slot = self.payload.lock();
                    if slot.is_none() {
                        *slot = Some(payload_to_string(panic.as_ref()));
                    }
                    drop(slot);
                    self.panicked.store(true, Ordering::Relaxed);
                    // Drain the rest of the index space so the launch
                    // still terminates promptly; remaining indices are
                    // skipped, the launcher will surface the failure.
                    self.cursor.store(self.n, Ordering::Relaxed);
                    break 'claim;
                }
                sub = end;
            }
        }
        if self.measure {
            // Push before the decrement below so the launcher (which waits
            // for `pending == 0`) observes every participant's entry.
            self.stats.lock().push((busy, pulled));
        }
        // AcqRel: the last participant's decrement releases its writes to
        // the launcher, which acquires them in `wait`.
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            let mut done = self.done.lock();
            *done = true;
            self.done_cv.notify_all();
        }
    }

    fn wait(&self) {
        let mut done = self.done.lock();
        while !*done {
            self.done_cv.wait(&mut done);
        }
    }
}

enum Message {
    Work(Arc<Job>),
    Shutdown,
}

/// A persistent pool of worker threads executing batched launches.
pub struct WorkerPool {
    sender: Sender<Message>,
    handles: Vec<std::thread::JoinHandle<()>>,
    /// Launches currently executing (occupancy gauge for telemetry).
    active: AtomicUsize,
}

/// Upper bound on the auto-tuned claim size: large enough to amortize
/// the cursor `fetch_add`, small enough that a straggler's tail claim
/// cannot dominate a launch.
const MAX_AUTO_CHUNK: usize = 16;

/// Blocks claimed per cursor pull for a launch of `total_blocks` blocks
/// over `participants` pullers: about 8 pulls per participant, so claim
/// overheads amortize while the final grid-stride pass still balances.
/// Small launches degrade to per-block claiming (chunk 1).
fn auto_chunk(total_blocks: usize, participants: usize) -> usize {
    (total_blocks / (participants.max(1) * 8)).clamp(1, MAX_AUTO_CHUNK)
}

/// Decrements the pool's active-launch count on every exit path of a
/// launch, including panics unwinding out of it.
struct ActiveGuard<'a>(&'a AtomicUsize);

impl Drop for ActiveGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

impl WorkerPool {
    /// Spawns `workers` threads. `workers == 0` is allowed: all launches
    /// then execute entirely on the calling thread.
    pub fn new(workers: usize) -> Self {
        let (sender, receiver): (Sender<Message>, Receiver<Message>) = unbounded();
        let handles = (0..workers)
            .map(|idx| {
                let receiver = receiver.clone();
                std::thread::Builder::new()
                    .name(format!("fdbscan-worker-{idx}"))
                    .spawn(move || {
                        while let Ok(message) = receiver.recv() {
                            match message {
                                Message::Work(job) => job.run(),
                                Message::Shutdown => break,
                            }
                        }
                    })
                    .expect("failed to spawn pool worker")
            })
            .collect();
        Self { sender, handles, active: AtomicUsize::new(0) }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Launches executing right now (0 on an idle pool). Each launch
    /// occupies every participant, so this counts concurrent *streams*,
    /// not busy threads.
    pub fn active_launches(&self) -> usize {
        self.active.load(Ordering::Relaxed)
    }

    /// Fallible block launch: executes `kernel` once per block of `block`
    /// consecutive indices covering `0..n`, blocking the calling thread
    /// (which participates) until the index space is exhausted, a kernel
    /// panics, or `deadline` passes. The pool and its workers remain
    /// usable after a failure — panics are contained per block and the
    /// cursor drain guarantees prompt termination.
    ///
    /// With `measure` set, every participant times its kernel blocks and
    /// a successful launch returns a [`LaunchProfile`] (the tracing path);
    /// otherwise no clocks are read and `Ok(None)` is returned.
    pub(crate) fn try_parallel_for_blocks(
        &self,
        n: usize,
        block: usize,
        deadline: Option<Instant>,
        measure: bool,
        kernel: &(dyn Fn(Range<usize>) + Sync),
    ) -> Result<Option<LaunchProfile>, LaunchFailure> {
        if n == 0 {
            return Ok(None);
        }
        assert!(block > 0, "block size must be nonzero");
        self.active.fetch_add(1, Ordering::Relaxed);
        let _active = ActiveGuard(&self.active);
        let started = Instant::now();
        // SAFETY (lifetime erasure): `job.kernel` must not be dereferenced
        // after this function returns. Workers dereference it only inside
        // `Job::run`, which decrements `pending` after its last use; this
        // function returns only after `pending == 0` (via `wait`), so every
        // dereference happens-before the return.
        let erased: *const (dyn Fn(Range<usize>) + Sync + 'static) = unsafe {
            std::mem::transmute::<
                *const (dyn Fn(Range<usize>) + Sync + '_),
                *const (dyn Fn(Range<usize>) + Sync + 'static),
            >(kernel as *const _)
        };
        let participants = self.handles.len() + 1;
        let chunk = auto_chunk(n.div_ceil(block), participants);
        let job = Arc::new(Job {
            kernel: erased,
            n,
            block,
            chunk,
            deadline,
            cursor: AtomicUsize::new(0),
            pending: AtomicUsize::new(participants),
            panicked: AtomicBool::new(false),
            timed_out: AtomicBool::new(false),
            payload: Mutex::new(None),
            measure,
            stats: Mutex::new(Vec::with_capacity(if measure { participants } else { 0 })),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
        });
        for _ in 0..self.handles.len() {
            self.sender.send(Message::Work(Arc::clone(&job))).expect("worker pool channel closed");
        }
        job.run(); // the launching thread participates
        job.wait();
        // A panic is the more specific diagnosis when both fired.
        if job.panicked.load(Ordering::Relaxed) {
            let payload =
                job.payload.lock().take().unwrap_or_else(|| "unknown panic payload".to_string());
            return Err(LaunchFailure::Panicked { payload });
        }
        if job.timed_out.load(Ordering::Relaxed) {
            return Err(LaunchFailure::TimedOut { elapsed: started.elapsed() });
        }
        if !measure {
            return Ok(None);
        }
        let stats = std::mem::take(&mut *job.stats.lock());
        let (busy, blocks_pulled) = stats.into_iter().unzip();
        Ok(Some(LaunchProfile { busy, blocks_pulled }))
    }

    /// In-order block execution on the calling thread — the
    /// [`crate::Backend::Sequential`] engine. Blocks run in ascending
    /// index order with no `Job` machinery (no channel send, no condvar,
    /// no shared cursor), so counters, reduce combine order, and fault
    /// interleavings are fully deterministic: this path defines the
    /// oracle behaviour the threaded engine is differentially tested
    /// against. Failure semantics match
    /// [`Self::try_parallel_for_blocks`]: panics are contained per
    /// block, the deadline is checked before each block, and the pool's
    /// active-launch gauge covers the launch on every exit path.
    pub(crate) fn try_sequential_for_blocks(
        &self,
        n: usize,
        block: usize,
        deadline: Option<Instant>,
        measure: bool,
        kernel: &(dyn Fn(Range<usize>) + Sync),
    ) -> Result<Option<LaunchProfile>, LaunchFailure> {
        if n == 0 {
            return Ok(None);
        }
        assert!(block > 0, "block size must be nonzero");
        self.active.fetch_add(1, Ordering::Relaxed);
        let _active = ActiveGuard(&self.active);
        let started = Instant::now();
        let mut busy = Duration::ZERO;
        let mut pulled = 0u64;
        let mut start = 0usize;
        while start < n {
            if let Some(deadline) = deadline {
                if Instant::now() >= deadline {
                    return Err(LaunchFailure::TimedOut { elapsed: started.elapsed() });
                }
            }
            let end = (start + block).min(n);
            let block_start = if measure { Some(Instant::now()) } else { None };
            let result = catch_unwind(AssertUnwindSafe(|| kernel(start..end)));
            if let Some(block_start) = block_start {
                busy += block_start.elapsed();
                pulled += 1;
            }
            if let Err(panic) = result {
                return Err(LaunchFailure::Panicked { payload: payload_to_string(panic.as_ref()) });
            }
            start = end;
        }
        if !measure {
            return Ok(None);
        }
        Ok(Some(LaunchProfile { busy: vec![busy], blocks_pulled: vec![pulled] }))
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        for _ in &self.handles {
            let _ = self.sender.send(Message::Shutdown);
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Unmeasured, deadline-free launch that must succeed.
    fn launch(pool: &WorkerPool, n: usize, block: usize, kernel: &(dyn Fn(Range<usize>) + Sync)) {
        pool.try_parallel_for_blocks(n, block, None, false, kernel).expect("launch failed");
    }

    #[test]
    fn pool_with_zero_workers_runs_on_caller() {
        let pool = WorkerPool::new(0);
        let caller = std::thread::current().id();
        let ran_on = Mutex::new(Vec::new());
        launch(&pool, 100, 8, &|range| {
            for _ in range {
                ran_on.lock().push(std::thread::current().id());
            }
        });
        let ids = ran_on.into_inner();
        assert_eq!(ids.len(), 100);
        assert!(ids.iter().all(|id| *id == caller));
    }

    #[test]
    fn pool_distributes_to_workers() {
        let pool = WorkerPool::new(4);
        let seen = Mutex::new(std::collections::HashSet::new());
        // Slow-ish kernel so workers actually pick up blocks.
        launch(&pool, 4096, 16, &|range| {
            for _ in range {
                std::thread::yield_now();
                seen.lock().insert(std::thread::current().id());
            }
        });
        // At least the caller ran; with 4 workers usually more, but on a
        // single-core machine the caller may legitimately drain everything,
        // so only assert completion and non-emptiness.
        assert!(!seen.into_inner().is_empty());
    }

    #[test]
    fn back_to_back_launches() {
        let pool = WorkerPool::new(2);
        for round in 0..50 {
            let count = AtomicUsize::new(0);
            launch(&pool, round * 17 + 1, 4, &|range| {
                count.fetch_add(range.len(), Ordering::Relaxed);
            });
            assert_eq!(count.load(Ordering::Relaxed), round * 17 + 1);
        }
    }

    #[test]
    fn block_larger_than_n() {
        let pool = WorkerPool::new(2);
        let count = AtomicUsize::new(0);
        launch(&pool, 3, 1000, &|range| {
            count.fetch_add(range.len(), Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn blocks_partition_index_space() {
        let pool = WorkerPool::new(2);
        let covered = Mutex::new(vec![false; 1000]);
        launch(&pool, 1000, 37, &|range| {
            assert!(range.len() <= 37);
            let mut covered = covered.lock();
            for i in range {
                assert!(!covered[i], "index {i} executed twice");
                covered[i] = true;
            }
        });
        assert!(covered.into_inner().into_iter().all(|c| c));
    }

    #[test]
    fn drop_joins_workers() {
        let pool = WorkerPool::new(3);
        launch(&pool, 10, 1, &|_| {});
        drop(pool); // must not hang
    }

    #[test]
    fn try_launch_captures_first_panic_payload() {
        let pool = WorkerPool::new(2);
        let err = pool
            .try_parallel_for_blocks(100, 4, None, false, &|range| {
                if range.contains(&42) {
                    panic!("boom at {}", range.start);
                }
            })
            .unwrap_err();
        match err {
            LaunchFailure::Panicked { payload } => assert!(payload.starts_with("boom at")),
            other => panic!("expected Panicked, got {other:?}"),
        }
        // The pool must stay usable after the failed launch.
        let count = AtomicUsize::new(0);
        launch(&pool, 50, 4, &|range| {
            count.fetch_add(range.len(), Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn expired_deadline_cancels_remaining_blocks() {
        let pool = WorkerPool::new(0);
        let executed = AtomicUsize::new(0);
        let err = pool
            .try_parallel_for_blocks(
                1000,
                1,
                // Already expired: the very first deadline check fires.
                Some(Instant::now() - Duration::from_millis(1)),
                false,
                &|_| {
                    executed.fetch_add(1, Ordering::Relaxed);
                },
            )
            .unwrap_err();
        assert!(matches!(err, LaunchFailure::TimedOut { .. }));
        assert_eq!(executed.load(Ordering::Relaxed), 0, "no block may run past cancel");
        // And the pool still works.
        launch(&pool, 10, 1, &|_| {});
    }

    #[test]
    fn slow_kernel_trips_mid_launch_deadline() {
        let pool = WorkerPool::new(0);
        let executed = AtomicUsize::new(0);
        let err = pool
            .try_parallel_for_blocks(
                100,
                1,
                Some(Instant::now() + Duration::from_millis(20)),
                false,
                &|_| {
                    executed.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(Duration::from_millis(5));
                },
            )
            .unwrap_err();
        match err {
            LaunchFailure::TimedOut { elapsed } => {
                assert!(elapsed >= Duration::from_millis(20));
            }
            other => panic!("expected TimedOut, got {other:?}"),
        }
        let ran = executed.load(Ordering::Relaxed);
        assert!(ran > 0 && ran < 100, "should cancel partway, ran {ran}");
    }

    #[test]
    fn measured_launch_returns_profile() {
        let pool = WorkerPool::new(2);
        let profile = pool
            .try_parallel_for_blocks(1000, 8, None, true, &|_range| {
                std::thread::yield_now();
            })
            .unwrap()
            .expect("measured launch must profile");
        assert_eq!(profile.participants(), 3, "2 workers + launcher");
        assert_eq!(profile.blocks(), 125);
        assert!(profile.passes() >= 1 && profile.passes() <= 125);
        assert!(profile.imbalance() >= 1.0);
        assert!(profile.max_busy() >= profile.mean_busy());
    }

    #[test]
    fn unmeasured_launch_returns_no_profile() {
        let pool = WorkerPool::new(1);
        let profile = pool.try_parallel_for_blocks(100, 8, None, false, &|_| {}).unwrap();
        assert!(profile.is_none());
    }

    #[test]
    fn sequential_path_runs_blocks_in_ascending_order() {
        let pool = WorkerPool::new(0);
        let order = Mutex::new(Vec::new());
        pool.try_sequential_for_blocks(100, 7, None, false, &|range| {
            order.lock().push(range);
        })
        .unwrap();
        let ranges = order.into_inner();
        assert_eq!(ranges.first().unwrap().start, 0);
        assert_eq!(ranges.last().unwrap().end, 100);
        assert!(ranges.windows(2).all(|w| w[0].end == w[1].start), "blocks must be in order");
    }

    #[test]
    fn sequential_path_contains_panics_and_stops_at_fault() {
        let pool = WorkerPool::new(0);
        let executed = AtomicUsize::new(0);
        let err = pool
            .try_sequential_for_blocks(100, 10, None, false, &|range| {
                executed.fetch_add(1, Ordering::Relaxed);
                if range.contains(&35) {
                    panic!("seq boom");
                }
            })
            .unwrap_err();
        match err {
            LaunchFailure::Panicked { payload } => assert_eq!(payload, "seq boom"),
            other => panic!("expected Panicked, got {other:?}"),
        }
        // In-order execution: exactly blocks 0..=3 ran, nothing after
        // the faulting block.
        assert_eq!(executed.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn sequential_path_honors_deadline() {
        let pool = WorkerPool::new(0);
        let executed = AtomicUsize::new(0);
        let err = pool
            .try_sequential_for_blocks(
                1000,
                1,
                Some(Instant::now() - Duration::from_millis(1)),
                false,
                &|_| {
                    executed.fetch_add(1, Ordering::Relaxed);
                },
            )
            .unwrap_err();
        assert!(matches!(err, LaunchFailure::TimedOut { .. }));
        assert_eq!(executed.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn sequential_path_profiles_one_participant() {
        let pool = WorkerPool::new(0);
        let profile = pool
            .try_sequential_for_blocks(100, 8, None, true, &|_| {})
            .unwrap()
            .expect("measured launch must profile");
        assert_eq!(profile.participants(), 1);
        assert_eq!(profile.blocks(), 13);
        assert_eq!(profile.passes(), 13);
    }

    #[test]
    fn auto_chunk_scales_with_launch_size() {
        // Small launches keep per-block claiming so every participant
        // gets work; big launches claim runs, capped for tail balance.
        assert_eq!(auto_chunk(1, 4), 1);
        assert_eq!(auto_chunk(25, 3), 1);
        assert_eq!(auto_chunk(125, 3), 5);
        assert_eq!(auto_chunk(10_000, 3), MAX_AUTO_CHUNK);
        assert_eq!(auto_chunk(100, 0), MAX_AUTO_CHUNK.min(100 / 8));
    }

    #[test]
    fn chunked_claims_still_partition_index_space() {
        // Large enough that auto_chunk claims multi-block runs: the
        // sub-blocks must still cover every index exactly once and never
        // exceed the block size.
        let pool = WorkerPool::new(2);
        let covered = Mutex::new(vec![false; 9973]);
        launch(&pool, 9973, 8, &|range| {
            assert!(range.len() <= 8);
            let mut covered = covered.lock();
            for i in range {
                assert!(!covered[i], "index {i} executed twice");
                covered[i] = true;
            }
        });
        assert!(covered.into_inner().into_iter().all(|c| c));
    }

    #[test]
    fn chunked_single_participant_replays_in_order() {
        // With no workers the launcher claims every chunk itself; the
        // sub-block schedule must remain the ascending sequential order
        // (the in-order replay property fault recovery depends on).
        let pool = WorkerPool::new(0);
        let order = Mutex::new(Vec::new());
        launch(&pool, 4096, 8, &|range| {
            order.lock().push(range);
        });
        let ranges = order.into_inner();
        assert_eq!(ranges.first().unwrap().start, 0);
        assert_eq!(ranges.last().unwrap().end, 4096);
        assert!(ranges.windows(2).all(|w| w[0].end == w[1].start), "sub-blocks must be in order");
    }

    #[test]
    fn chunked_claims_keep_block_alignment() {
        // Fault injection recovers the block index as
        // `range.start / block_size`; chunked claiming must keep every
        // sub-block start aligned for that to stay true.
        let pool = WorkerPool::new(2);
        let starts = Mutex::new(Vec::new());
        launch(&pool, 5000, 8, &|range| {
            starts.lock().push(range.start);
        });
        assert!(starts.into_inner().into_iter().all(|s| s % 8 == 0));
    }

    #[test]
    fn imbalance_of_idle_profile_is_one() {
        let profile = LaunchProfile { busy: vec![Duration::ZERO; 4], blocks_pulled: vec![0; 4] };
        assert_eq!(profile.imbalance(), 1.0);
        assert_eq!(profile.passes(), 0);
    }
}
