//! Device memory accounting with an optional budget.
//!
//! A V100 has 16 GiB of HBM2; the paper's §5.1 scaling study shows
//! G-DBSCAN failing with out-of-memory errors because its adjacency graph
//! grows with the number of *edges*, not points. To reproduce those
//! missing data points deterministically, every algorithm in this
//! workspace *reserves* its major allocations through the device's
//! [`MemoryTracker`]; when a budget is configured, an over-budget
//! reservation fails with [`DeviceError::OutOfMemory`] instead of
//! thrashing the host.
//!
//! Reservations are RAII: dropping a [`MemoryReservation`] returns the
//! bytes to the pool. The tracker also records the high-water mark, which
//! the benchmark harness reports as the algorithm's device-memory
//! footprint.

use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::fault::{FaultPlan, FaultSite};
use crate::Counters;

/// Errors produced by the simulated device.
#[derive(Clone, Debug, PartialEq)]
pub enum DeviceError {
    /// A reservation would exceed the configured memory budget.
    OutOfMemory {
        /// Bytes the failed reservation asked for.
        requested: usize,
        /// Bytes already in use at the time of the request.
        in_use: usize,
        /// The configured budget.
        budget: usize,
    },
    /// A kernel panicked during a fallible launch. The first panic
    /// payload observed is captured (worker threads may race; later
    /// payloads are dropped).
    KernelPanicked {
        /// Device-wide launch ordinal of the failed launch.
        launch: u64,
        /// The panic payload, stringified.
        payload: String,
    },
    /// A launch exceeded the device's configured kernel timeout and was
    /// cancelled at a block boundary by the cooperative watchdog.
    KernelTimeout {
        /// Device-wide launch ordinal of the cancelled launch.
        launch: u64,
        /// Time the launch had been running when cancellation was
        /// observed.
        elapsed: Duration,
    },
    /// A fault scheduled by a [`FaultPlan`] fired at `site`. Used for
    /// injections that have no organic error to masquerade as (e.g.
    /// distributed-rank failures); injected OOMs surface as
    /// [`DeviceError::OutOfMemory`] and injected panics as
    /// [`DeviceError::KernelPanicked`].
    FaultInjected {
        /// The injection site that fired.
        site: FaultSite,
    },
    /// Caller-provided input failed validation (e.g. NaN coordinates).
    InvalidInput {
        /// Human-readable description of the rejected input.
        reason: String,
    },
    /// The request's [`crate::CancelToken`] was cancelled; the launch
    /// loop observed it between kernel launches and abandoned the run.
    Cancelled {
        /// Device-wide launch ordinal at which cancellation was
        /// observed (the launch that did *not* start).
        launch: u64,
    },
    /// The request's [`crate::CancelToken`] deadline passed; observed
    /// between launches or at a block boundary mid-launch.
    DeadlineExceeded {
        /// Device-wide launch ordinal at which expiry was observed.
        launch: u64,
    },
}

impl fmt::Display for DeviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceError::OutOfMemory { requested, in_use, budget } => write!(
                f,
                "device out of memory: requested {requested} B with {in_use} B in use \
                 (budget {budget} B)"
            ),
            DeviceError::KernelPanicked { launch, payload } => {
                write!(f, "kernel panicked during launch {launch}: {payload}")
            }
            DeviceError::KernelTimeout { launch, elapsed } => {
                write!(f, "kernel launch {launch} timed out after {elapsed:?}")
            }
            DeviceError::FaultInjected { site } => write!(f, "injected fault: {site}"),
            DeviceError::InvalidInput { reason } => write!(f, "invalid input: {reason}"),
            DeviceError::Cancelled { launch } => {
                write!(f, "request cancelled before launch {launch}")
            }
            DeviceError::DeadlineExceeded { launch } => {
                write!(f, "request deadline exceeded at launch {launch}")
            }
        }
    }
}

impl std::error::Error for DeviceError {}

#[derive(Debug, Default)]
struct TrackerState {
    in_use: AtomicUsize,
    peak: AtomicUsize,
}

/// Tracks device memory usage against an optional budget.
#[derive(Debug)]
pub struct MemoryTracker {
    budget: Option<usize>,
    state: Arc<TrackerState>,
    /// Lifetime reservation ordinal. Deliberately *outside*
    /// [`Counters`]: counters can be reset mid-run, but fault-injection
    /// ordinals must keep advancing so an ordinal-addressed OOM fires
    /// exactly once per tracker lifetime.
    ordinal: Arc<AtomicU64>,
    counters: Option<Arc<Counters>>,
    plan: Option<Arc<FaultPlan>>,
}

impl MemoryTracker {
    /// Creates a tracker. `budget = None` disables the limit (usage and
    /// peak are still recorded).
    pub fn new(budget: Option<usize>) -> Self {
        Self {
            budget,
            state: Arc::new(TrackerState::default()),
            ordinal: Arc::new(AtomicU64::new(0)),
            counters: None,
            plan: None,
        }
    }

    /// Creates a tracker wired to device counters and an optional fault
    /// plan. Used by `Device`; standalone trackers use
    /// [`MemoryTracker::new`].
    pub(crate) fn with_instrumentation(
        budget: Option<usize>,
        counters: Arc<Counters>,
        plan: Option<Arc<FaultPlan>>,
    ) -> Self {
        Self {
            budget,
            state: Arc::new(TrackerState::default()),
            ordinal: Arc::new(AtomicU64::new(0)),
            counters: Some(counters),
            plan,
        }
    }

    /// Number of reservations requested over this tracker's lifetime
    /// (successful or not): the next reservation's fault ordinal. Unlike
    /// counters, never reset.
    pub fn reservations_made(&self) -> u64 {
        self.ordinal.load(Ordering::Relaxed)
    }

    /// The configured budget, if any.
    pub fn budget(&self) -> Option<usize> {
        self.budget
    }

    /// Bytes currently reserved.
    pub fn in_use(&self) -> usize {
        self.state.in_use.load(Ordering::Relaxed)
    }

    /// Budget bytes not currently reserved (`None` without a budget —
    /// headroom is unbounded). Every capacity check (the ladder's and
    /// the service's preflights, `fdbscan_auto`, the distributed
    /// preflight) and the telemetry gauges read this.
    pub fn headroom(&self) -> Option<usize> {
        self.budget.map(|budget| budget.saturating_sub(self.in_use()))
    }

    /// High-water mark of reserved bytes since construction (or the last
    /// [`MemoryTracker::reset_peak`]).
    pub fn peak(&self) -> usize {
        self.state.peak.load(Ordering::Relaxed)
    }

    /// Resets the high-water mark to the current usage.
    pub fn reset_peak(&self) {
        self.state.peak.store(self.in_use(), Ordering::Relaxed);
    }

    /// Attempts to reserve `bytes` of device memory.
    ///
    /// On success, returns an RAII guard that releases the bytes on drop.
    /// Fails only when a budget is configured and would be exceeded.
    pub fn reserve(&self, bytes: usize) -> Result<MemoryReservation, DeviceError> {
        if let Some(counters) = &self.counters {
            counters.reservations.fetch_add(1, Ordering::Relaxed);
        }
        self.consult_fault_plan(bytes)?;
        // CAS loop: budget enforcement must be exact even under
        // concurrent reservations.
        let mut current = self.state.in_use.load(Ordering::Relaxed);
        loop {
            let proposed = current.saturating_add(bytes);
            if let Some(budget) = self.budget {
                if proposed > budget {
                    return Err(DeviceError::OutOfMemory {
                        requested: bytes,
                        in_use: current,
                        budget,
                    });
                }
            }
            match self.state.in_use.compare_exchange_weak(
                current,
                proposed,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.state.peak.fetch_max(proposed, Ordering::Relaxed);
                    return Ok(MemoryReservation { state: Arc::clone(&self.state), bytes });
                }
                Err(actual) => current = actual,
            }
        }
    }

    /// Reserves memory for `n` elements of type `T`.
    pub fn reserve_array<T>(&self, n: usize) -> Result<MemoryReservation, DeviceError> {
        self.reserve(n.saturating_mul(std::mem::size_of::<T>()))
    }

    /// Advances the fault-injection ordinal and surfaces an injected
    /// OOM, if the plan schedules one for this request.
    fn consult_fault_plan(&self, bytes: usize) -> Result<(), DeviceError> {
        let ordinal = self.ordinal.fetch_add(1, Ordering::Relaxed);
        if let Some(plan) = &self.plan {
            if plan.oom_fires(ordinal, bytes) {
                if let Some(counters) = &self.counters {
                    counters.injected_oom.fetch_add(1, Ordering::Relaxed);
                }
                // Surface as a real OutOfMemory so recovery paths treat
                // injected and organic allocation failures identically.
                return Err(DeviceError::OutOfMemory {
                    requested: bytes,
                    in_use: self.in_use(),
                    budget: self.budget.unwrap_or(0),
                });
            }
        }
        Ok(())
    }
}

/// RAII guard for a device memory reservation.
#[derive(Debug)]
pub struct MemoryReservation {
    state: Arc<TrackerState>,
    bytes: usize,
}

impl MemoryReservation {
    /// Size of this reservation in bytes.
    pub fn bytes(&self) -> usize {
        self.bytes
    }
}

impl Drop for MemoryReservation {
    fn drop(&mut self) {
        self.state.in_use.fetch_sub(self.bytes, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_tracker_never_fails() {
        let tracker = MemoryTracker::new(None);
        let r = tracker.reserve(usize::MAX / 2).unwrap();
        assert_eq!(tracker.in_use(), usize::MAX / 2);
        drop(r);
        assert_eq!(tracker.in_use(), 0);
    }

    #[test]
    fn budget_is_enforced() {
        let tracker = MemoryTracker::new(Some(1000));
        let _a = tracker.reserve(600).unwrap();
        let err = tracker.reserve(500).unwrap_err();
        match err {
            DeviceError::OutOfMemory { requested, in_use, budget } => {
                assert_eq!(requested, 500);
                assert_eq!(in_use, 600);
                assert_eq!(budget, 1000);
            }
            other => panic!("expected OutOfMemory, got {other:?}"),
        }
        // Exactly filling the budget is allowed.
        let _b = tracker.reserve(400).unwrap();
        assert_eq!(tracker.in_use(), 1000);
    }

    #[test]
    fn drop_releases_bytes() {
        let tracker = MemoryTracker::new(Some(100));
        {
            let _r = tracker.reserve(100).unwrap();
            assert!(tracker.reserve(1).is_err());
        }
        assert!(tracker.reserve(100).is_ok());
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let tracker = MemoryTracker::new(None);
        let a = tracker.reserve(70).unwrap();
        let b = tracker.reserve(30).unwrap();
        drop(a);
        drop(b);
        assert_eq!(tracker.peak(), 100);
        assert_eq!(tracker.in_use(), 0);
        tracker.reset_peak();
        assert_eq!(tracker.peak(), 0);
    }

    #[test]
    fn reserve_array_accounts_element_size() {
        let tracker = MemoryTracker::new(None);
        let _r = tracker.reserve_array::<u64>(10).unwrap();
        assert_eq!(tracker.in_use(), 80);
    }

    #[test]
    fn zero_byte_reservation_is_fine() {
        let tracker = MemoryTracker::new(Some(0));
        let _r = tracker.reserve(0).unwrap();
        assert!(tracker.reserve(1).is_err());
    }

    #[test]
    fn error_display_is_informative() {
        let tracker = MemoryTracker::new(Some(10));
        let err = tracker.reserve(20).unwrap_err();
        let text = err.to_string();
        assert!(text.contains("out of memory"));
        assert!(text.contains("20"));
        assert!(text.contains("10"));
    }

    #[test]
    fn injected_oom_fires_once_and_is_counted() {
        let counters = Arc::new(Counters::default());
        let plan = Arc::new(FaultPlan::new(3).with_oom_at_reservation(1));
        let tracker = MemoryTracker::with_instrumentation(None, Arc::clone(&counters), Some(plan));
        let _a = tracker.reserve(10).unwrap(); // ordinal 0
        let err = tracker.reserve(10).unwrap_err(); // ordinal 1: injected
        assert!(matches!(err, DeviceError::OutOfMemory { requested: 10, .. }));
        let _b = tracker.reserve(10).unwrap(); // ordinal 2: retry succeeds
        assert_eq!(tracker.reservations_made(), 3);
        let snap = counters.snapshot();
        assert_eq!(snap.reservations, 3);
        assert_eq!(snap.injected_oom, 1);
        // The failed reservation must not leak accounting.
        assert_eq!(tracker.in_use(), 20);
    }

    #[test]
    fn threshold_oom_fires_every_time() {
        let counters = Arc::new(Counters::default());
        let plan = Arc::new(FaultPlan::new(3).with_oom_above_bytes(100));
        let tracker = MemoryTracker::with_instrumentation(None, Arc::clone(&counters), Some(plan));
        assert!(tracker.reserve(100).is_err());
        assert!(tracker.reserve(100).is_err());
        assert!(tracker.reserve(99).is_ok());
        assert_eq!(counters.snapshot().injected_oom, 2);
    }

    #[test]
    fn concurrent_reservations_respect_budget() {
        let tracker = Arc::new(MemoryTracker::new(Some(1_000)));
        let successes = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let tracker = Arc::clone(&tracker);
                let successes = Arc::clone(&successes);
                std::thread::spawn(move || {
                    let mut held = Vec::new();
                    for _ in 0..100 {
                        if let Ok(r) = tracker.reserve(10) {
                            successes.fetch_add(1, Ordering::Relaxed);
                            held.push(r);
                        }
                    }
                    held.len()
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // The peak can never exceed the budget, regardless of interleaving,
        // and everything must have been released.
        assert!(tracker.peak() <= 1_000);
        assert_eq!(tracker.in_use(), 0);
        assert!(successes.load(Ordering::Relaxed) >= 100);
    }
}
