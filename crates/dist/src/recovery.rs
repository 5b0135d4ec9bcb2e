//! Retry, backoff, and checkpoint plumbing: everything a rank uses to
//! survive transient faults, and everything the merge uses to survive
//! permanent ones.
//!
//! Transient faults (injected rank failures, kernel panics, device
//! errors) are handled *inside* the rank by [`run_rank_phase`]: bounded
//! retries on a deterministic backoff schedule, slept through an
//! injectable [`Sleeper`] so tests assert the schedule without paying
//! for it. Permanent faults (rank deaths) are handled *outside* the
//! rank by the driver, which leans on the [`SummaryStore`] — the
//! simulated durable medium every rank checkpoints its merge summary
//! into, and the thing a freshly elected coordinator replays from.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use fdbscan_device::{Counters, Device, DeviceError, FaultPlan, FaultSite};

use crate::stats::RecoveryLog;

/// How many times a failed rank phase is re-executed before the whole
/// distributed run gives up. A `FaultPlan::with_rank_failure` that
/// fails more than `MAX_RANK_RETRIES` consecutive attempts of one phase
/// is therefore fatal.
pub const MAX_RANK_RETRIES: usize = 3;

/// Upper bound on the per-retry backoff, in milliseconds. Retry `k`
/// sleeps `min(2^(k-1), RETRY_BACKOFF_CAP_MS)` ms — deterministic
/// (no wall-clock randomness, so replayed runs back off identically)
/// and capped so a worst-case rank recovery stays bounded.
pub const RETRY_BACKOFF_CAP_MS: u64 = 8;

/// The deterministic backoff before retry `k` (1-based): exponential,
/// capped at [`RETRY_BACKOFF_CAP_MS`].
pub fn retry_backoff(retry: usize) -> Duration {
    let ms = (1u64 << (retry.saturating_sub(1)).min(63)).min(RETRY_BACKOFF_CAP_MS);
    Duration::from_millis(ms)
}

/// How a retry loop waits out its backoff. Injectable so tests swap
/// the real sleep for an instant double that records the schedule —
/// the schedule itself stays deterministic either way.
pub trait Sleeper: Sync {
    /// Waits for `duration` (or pretends to).
    fn sleep(&self, duration: Duration);
}

/// The production sleeper: actually blocks the rank thread.
#[derive(Clone, Copy, Debug, Default)]
pub struct ThreadSleeper;

impl Sleeper for ThreadSleeper {
    fn sleep(&self, duration: Duration) {
        std::thread::sleep(duration);
    }
}

/// Test double: returns immediately and records every requested
/// duration, so tests assert the exact backoff schedule without
/// slowing down.
#[derive(Debug, Default)]
pub struct InstantSleeper {
    slept: Mutex<Vec<Duration>>,
}

impl InstantSleeper {
    /// A fresh recording sleeper.
    pub fn new() -> Self {
        Self::default()
    }

    /// Every duration requested so far, in order.
    pub fn slept(&self) -> Vec<Duration> {
        self.slept.lock().unwrap().clone()
    }
}

impl Sleeper for InstantSleeper {
    fn sleep(&self, duration: Duration) {
        self.slept.lock().unwrap().push(duration);
    }
}

/// Executes one phase of one rank, with fault injection and bounded
/// retries.
///
/// Every execution (injected failure or not) consumes one attempt from
/// the rank's lifetime counter; `FaultPlan::rank_fails` is consulted
/// against that ordinal, so `with_rank_failure(r, k)` fails the first
/// `k` attempts of rank `r` and the `k+1`-th retry succeeds. Panics
/// escaping the phase (e.g. a kernel panic in an index build) become
/// errors through [`Device::catch_panic`] and are retried the same
/// way. Each retry backs off deterministically (see [`retry_backoff`])
/// through `sleeper` and leaves a tracer instant on the rank's device.
/// After [`MAX_RANK_RETRIES`] retries the last error is returned.
#[allow(clippy::too_many_arguments)]
pub fn run_rank_phase<T>(
    rank: usize,
    phase: &'static str,
    plan: Option<&FaultPlan>,
    root_counters: &Counters,
    attempts: &AtomicUsize,
    phase_attempts: &AtomicUsize,
    rank_device: &Device,
    sleeper: &dyn Sleeper,
    recovery: &RecoveryLog,
    work: impl Fn() -> Result<T, DeviceError>,
) -> Result<T, DeviceError> {
    let mut tries = 0;
    loop {
        let attempt = attempts.fetch_add(1, Ordering::Relaxed);
        phase_attempts.fetch_add(1, Ordering::Relaxed);
        let outcome = match plan {
            Some(p) if p.rank_fails(rank, attempt) => {
                root_counters.injected_rank_faults.fetch_add(1, Ordering::Relaxed);
                Err(DeviceError::FaultInjected { site: FaultSite::Rank { rank, attempt } })
            }
            _ => rank_device.catch_panic(&work),
        };
        match outcome {
            Ok(value) => return Ok(value),
            Err(err) => {
                if tries >= MAX_RANK_RETRIES {
                    return Err(err);
                }
                tries += 1;
                recovery.rank_retries.fetch_add(1, Ordering::Relaxed);
                let backoff = retry_backoff(tries);
                rank_device.tracer().instant(format!(
                    "dist.retry rank {rank} {phase}: attempt {} after {} ms ({err})",
                    tries + 1,
                    backoff.as_millis(),
                ));
                sleeper.sleep(backoff);
            }
        }
    }
}

/// The simulated durable medium for checkpointed rank summaries: a
/// keyed blob store the merge coordinator — original or elected — reads
/// back from. Ranks `put` their framed summaries
/// ([`crate::merge::checkpoint_summary`]) here at the end of the local
/// phase; the store outlives any rank death.
///
/// Tests reach for [`SummaryStore::corrupt`] and
/// [`SummaryStore::remove`] to model storage-level damage between the
/// checkpoint and the merge.
#[derive(Debug, Default)]
pub struct SummaryStore {
    blobs: Mutex<BTreeMap<usize, Vec<u8>>>,
}

impl SummaryStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Durably records `rank`'s checkpoint bytes (overwrites).
    pub fn put(&self, rank: usize, bytes: Vec<u8>) {
        self.blobs.lock().unwrap().insert(rank, bytes);
    }

    /// Reads back `rank`'s checkpoint bytes.
    pub fn get(&self, rank: usize) -> Option<Vec<u8>> {
        self.blobs.lock().unwrap().get(&rank).cloned()
    }

    /// Ranks with a stored checkpoint, ascending.
    pub fn ranks(&self) -> Vec<usize> {
        self.blobs.lock().unwrap().keys().copied().collect()
    }

    /// Test hook: flips bits in the middle of `rank`'s blob, as a
    /// storage medium would under silent corruption.
    pub fn corrupt(&self, rank: usize) {
        let mut blobs = self.blobs.lock().unwrap();
        if let Some(bytes) = blobs.get_mut(&rank) {
            if !bytes.is_empty() {
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0xFF;
            }
        }
    }

    /// Test hook: loses `rank`'s blob entirely.
    pub fn remove(&self, rank: usize) {
        self.blobs.lock().unwrap().remove(&rank);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdbscan_device::DeviceConfig;

    #[test]
    fn backoff_is_deterministic_and_capped() {
        assert_eq!(retry_backoff(1), Duration::from_millis(1));
        assert_eq!(retry_backoff(2), Duration::from_millis(2));
        assert_eq!(retry_backoff(3), Duration::from_millis(4));
        assert_eq!(retry_backoff(4), Duration::from_millis(RETRY_BACKOFF_CAP_MS));
        assert_eq!(retry_backoff(100), Duration::from_millis(RETRY_BACKOFF_CAP_MS));
        // Identical inputs, identical schedule: no wall-clock randomness.
        assert_eq!(retry_backoff(3), retry_backoff(3));
    }

    #[test]
    fn instant_sleeper_records_the_schedule() {
        let sleeper = InstantSleeper::new();
        let device = Device::new(DeviceConfig::default().with_workers(1));
        let counters = Counters::default();
        let attempts = AtomicUsize::new(0);
        let phase_attempts = AtomicUsize::new(0);
        let recovery = RecoveryLog::default();
        let plan = FaultPlan::new(3).with_rank_failure(0, 2);
        let out = run_rank_phase(
            0,
            "core",
            Some(&plan),
            &counters,
            &attempts,
            &phase_attempts,
            &device,
            &sleeper,
            &recovery,
            || Ok(7usize),
        )
        .unwrap();
        assert_eq!(out, 7);
        assert_eq!(attempts.load(Ordering::Relaxed), 3, "2 failures + 1 success");
        // The exact deterministic backoff schedule, recorded instantly.
        assert_eq!(sleeper.slept(), vec![retry_backoff(1), retry_backoff(2)]);
        assert_eq!(recovery.snapshot().rank_retries, 2);
        assert_eq!(counters.snapshot().injected_rank_faults, 2);
    }

    #[test]
    fn panics_become_typed_errors_and_retry() {
        let sleeper = InstantSleeper::new();
        let device = Device::new(DeviceConfig::default().with_workers(1));
        let counters = Counters::default();
        let attempts = AtomicUsize::new(0);
        let phase_attempts = AtomicUsize::new(0);
        let recovery = RecoveryLog::default();
        let flaky = AtomicUsize::new(0);
        let out = run_rank_phase(
            1,
            "main",
            None,
            &counters,
            &attempts,
            &phase_attempts,
            &device,
            &sleeper,
            &recovery,
            || {
                if flaky.fetch_add(1, Ordering::Relaxed) == 0 {
                    panic!("simulated kernel panic");
                }
                Ok(())
            },
        );
        assert!(out.is_ok(), "one panic, then recovered");
        assert_eq!(sleeper.slept().len(), 1);
    }

    #[test]
    fn exhausted_retries_return_last_error() {
        let sleeper = InstantSleeper::new();
        let device = Device::new(DeviceConfig::default().with_workers(1));
        let counters = Counters::default();
        let attempts = AtomicUsize::new(0);
        let phase_attempts = AtomicUsize::new(0);
        let recovery = RecoveryLog::default();
        let err = run_rank_phase::<()>(
            2,
            "core",
            None,
            &counters,
            &attempts,
            &phase_attempts,
            &device,
            &sleeper,
            &recovery,
            || Err(DeviceError::InvalidInput { reason: "always".into() }),
        )
        .unwrap_err();
        assert_eq!(err, DeviceError::InvalidInput { reason: "always".into() });
        assert_eq!(attempts.load(Ordering::Relaxed), 1 + MAX_RANK_RETRIES);
        assert_eq!(sleeper.slept().len(), MAX_RANK_RETRIES);
    }

    #[test]
    fn summary_store_round_trips_and_damages() {
        let store = SummaryStore::new();
        store.put(2, vec![1, 2, 3, 4]);
        store.put(0, vec![9]);
        assert_eq!(store.ranks(), vec![0, 2]);
        assert_eq!(store.get(2).unwrap(), vec![1, 2, 3, 4]);
        store.corrupt(2);
        assert_ne!(store.get(2).unwrap(), vec![1, 2, 3, 4]);
        store.remove(0);
        assert!(store.get(0).is_none());
    }
}
