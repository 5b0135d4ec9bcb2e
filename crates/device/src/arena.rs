//! A device buffer arena: scratch buffers charged against the device
//! memory budget for exactly as long as they live.
//!
//! Index construction takes data-sized scratch buffers every run —
//! Morton keys, sort ping-pong arrays, arrival flags, pending-parent
//! state. [`BufferArena::take`] checks one out with a fresh reservation
//! against the device [`MemoryTracker`]; dropping the [`ArenaBuf`]
//! releases the buffer and its reservation together. Scratch therefore
//! counts toward the budget and the peak only while the build that took
//! it runs, and every capacity check reads [`MemoryTracker::headroom`]
//! alone.
//!
//! Every tracked take is one reservation, so it occupies one fault
//! ordinal: an injected OOM addressed to ordinal `k` fires on the
//! `k`-th take, whatever was dropped before it.
//!
//! [`BufferArena::take_untracked`] checks out a buffer with no tracker
//! interaction at all. It exists for block-local working sets that a
//! real kernel would keep in shared memory (the radix sort's count
//! matrix): they are not device-global allocations, so they neither
//! charge the budget nor occupy fault ordinals.

use std::ops::{Deref, DerefMut};
use std::sync::Arc;

use crate::memory::{DeviceError, MemoryReservation, MemoryTracker};

/// Hands out device scratch buffers charged against the device memory
/// budget (see the module docs). Cloning is cheap and shares the
/// tracker, like the device it belongs to.
#[derive(Clone, Debug)]
pub struct BufferArena {
    tracker: Arc<MemoryTracker>,
}

impl BufferArena {
    /// Creates an arena charging reservations to `tracker`.
    pub fn new(tracker: Arc<MemoryTracker>) -> Self {
        Self { tracker }
    }

    /// Checks out a buffer of `n` default-initialized elements,
    /// reserving its bytes against the tracker until it drops. Fails
    /// under the same conditions as [`MemoryTracker::reserve`]: budget
    /// exhaustion or an injected OOM.
    pub fn take<T>(&self, n: usize) -> Result<ArenaBuf<T>, DeviceError>
    where
        T: Default + Clone,
    {
        let reservation = self.tracker.reserve_array::<T>(n)?;
        Ok(ArenaBuf { buf: vec![T::default(); n], _reservation: Some(reservation) })
    }

    /// Checks out a buffer of `n` default-initialized elements with no
    /// tracker interaction: no reservation, no budget charge, no fault
    /// ordinal. For block-local working sets a real kernel would keep
    /// in shared memory rather than global device memory.
    pub fn take_untracked<T>(&self, n: usize) -> ArenaBuf<T>
    where
        T: Default + Clone,
    {
        ArenaBuf { buf: vec![T::default(); n], _reservation: None }
    }

    /// Reserved bytes the arena holds with no buffer checked out: always
    /// 0, since a buffer releases its reservation when it drops. Kept for
    /// the benchmark's `device.arena_held_mb` metric.
    pub fn held_bytes(&self) -> usize {
        0
    }
}

/// A buffer checked out of a [`BufferArena`]. Dereferences to its
/// `Vec<T>`; a tracked buffer's reservation is released when it drops.
pub struct ArenaBuf<T> {
    buf: Vec<T>,
    _reservation: Option<MemoryReservation>,
}

impl<T> Deref for ArenaBuf<T> {
    type Target = Vec<T>;

    fn deref(&self) -> &Vec<T> {
        &self.buf
    }
}

impl<T> DerefMut for ArenaBuf<T> {
    fn deref_mut(&mut self) -> &mut Vec<T> {
        &mut self.buf
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for ArenaBuf<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.buf.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::Counters;

    fn arena(budget: Option<usize>) -> BufferArena {
        BufferArena::new(Arc::new(MemoryTracker::new(budget)))
    }

    #[test]
    fn take_reserves_exactly_and_drop_releases() {
        let tracker = Arc::new(MemoryTracker::new(None));
        let arena = BufferArena::new(Arc::clone(&tracker));
        {
            let buf = arena.take::<u64>(100).unwrap();
            assert_eq!(buf.len(), 100);
            assert!(buf.iter().all(|&v| v == 0));
            assert_eq!(tracker.in_use(), 100 * std::mem::size_of::<u64>());
            let _small = arena.take::<u16>(7).unwrap();
            assert_eq!(tracker.in_use(), 800 + 14);
        }
        assert_eq!(tracker.in_use(), 0);
        assert_eq!(tracker.peak(), 814);
    }

    #[test]
    fn budget_counts_live_buffers() {
        let arena = arena(Some(1000));
        let live = arena.take::<u8>(800).unwrap();
        // The live 800 bytes leave no room for 300 more…
        assert!(matches!(arena.take::<u8>(300), Err(DeviceError::OutOfMemory { .. })));
        // …until the buffer drops.
        drop(live);
        assert!(arena.take::<u8>(300).is_ok());
    }

    #[test]
    fn grown_buffer_is_released_not_pooled() {
        let tracker = Arc::new(MemoryTracker::new(None));
        let arena = BufferArena::new(Arc::clone(&tracker));
        {
            let mut buf = arena.take::<u64>(4).unwrap();
            buf.reserve(1024);
            // The reservation is what the take charged, not the capacity.
            assert_eq!(tracker.in_use(), 32);
        }
        assert_eq!(tracker.in_use(), 0, "grown buffer must release its reservation");
    }

    #[test]
    fn injected_oom_fires_on_the_kth_take() {
        // Ordinal 2 fails, whether the two takes before it are still
        // live or were dropped.
        for keep_earlier in [false, true] {
            let counters = Arc::new(Counters::default());
            let plan = Arc::new(FaultPlan::new(3).with_oom_at_reservation(2));
            let tracker = Arc::new(MemoryTracker::with_instrumentation(
                None,
                Arc::clone(&counters),
                Some(plan),
            ));
            let arena = BufferArena::new(Arc::clone(&tracker));
            let mut earlier = Vec::new();
            for _ in 0..2 {
                let buf = arena.take::<u64>(32).unwrap();
                if keep_earlier {
                    earlier.push(buf);
                }
            }
            let err = arena.take::<u64>(32).unwrap_err();
            assert!(matches!(err, DeviceError::OutOfMemory { .. }));
            assert_eq!(counters.snapshot().injected_oom, 1);
            assert_eq!(tracker.reservations_made(), 3);
            // The failed take charged nothing; the next one is clean.
            assert_eq!(tracker.in_use(), earlier.len() * 256);
            assert!(arena.take::<u64>(32).is_ok());
        }
    }

    #[test]
    fn untracked_take_touches_neither_budget_nor_ordinals() {
        let counters = Arc::new(Counters::default());
        // An ordinal-0 OOM would fire on the very first reservation.
        let plan = Arc::new(FaultPlan::new(3).with_oom_at_reservation(0));
        let tracker = Arc::new(MemoryTracker::with_instrumentation(
            Some(0),
            Arc::clone(&counters),
            Some(plan),
        ));
        let arena = BufferArena::new(Arc::clone(&tracker));
        let buf = arena.take_untracked::<u32>(1000);
        assert_eq!(buf.len(), 1000);
        assert_eq!(tracker.in_use(), 0);
        assert_eq!(tracker.reservations_made(), 0);
        assert_eq!(counters.snapshot().injected_oom, 0);
    }

    #[test]
    fn zero_length_take_works() {
        let arena = arena(Some(0));
        let buf = arena.take::<u64>(0).unwrap();
        assert!(buf.is_empty());
        assert!(arena.take_untracked::<u64>(0).is_empty());
    }
}
