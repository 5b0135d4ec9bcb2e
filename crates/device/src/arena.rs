//! A device buffer arena: size-bucketed free lists of scratch buffers.
//!
//! Index construction allocates the same scratch buffers every run —
//! Morton keys, sort ping-pong arrays, arrival flags, pending-parent
//! state. On a GPU those live in a memory pool reused across launches
//! (cudaMallocAsync pools, ArborX's scratch arena); allocating fresh
//! each run both thrashes the allocator and misstates the device's
//! steady-state footprint. [`BufferArena`] reproduces the pool: a
//! buffer checked out with [`BufferArena::take`] reserves its bytes
//! against the device [`MemoryTracker`] once, and on drop returns to a
//! free list keyed by `(element type, length)` — its reservation stays
//! alive while pooled, so arena-held bytes remain visible to the budget
//! and to `run_resilient`'s pre-flight estimate.
//!
//! Fault injection stays honest across reuse: recycling a pooled buffer
//! calls [`MemoryTracker::acknowledge_recycle`], which advances the
//! reservation ordinal and consults the fault plan without charging any
//! bytes. An injected OOM addressed to that ordinal fires on the reuse
//! (the pooled buffer is discarded, as a failed allocation would be);
//! only [`MemoryTracker::reservations_made`] — fresh reservations —
//! drops toward zero as the arena warms up.
//!
//! [`BufferArena::take_untracked`] checks out a buffer with no tracker
//! interaction at all. It exists for block-local working sets that a
//! real kernel would keep in shared memory (the radix sort's count
//! matrix): they are not device-global allocations, so they neither
//! charge the budget nor occupy fault ordinals. They pool in free lists
//! of their own, apart from the tracked ones.

use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::memory::{DeviceError, MemoryReservation, MemoryTracker};

/// One buffer sitting in a free list, with the reservation (if tracked)
/// it still holds.
struct PooledBuf {
    buf: Box<dyn Any + Send>,
    reservation: Option<MemoryReservation>,
}

impl PooledBuf {
    fn reserved_bytes(&self) -> usize {
        self.reservation.as_ref().map_or(0, MemoryReservation::bytes)
    }
}

type PoolKey = (TypeId, usize, bool);

#[derive(Default)]
struct ArenaInner {
    /// Free lists keyed by `(element type, element count, tracked)`.
    /// Exact length classes, not power-of-two buckets: a pooled buffer's
    /// live reservation must equal its byte size, or budget enforcement
    /// and the OOM tests it backs would drift. Tracked and untracked
    /// buffers never share a list, so a tracked checkout never comes
    /// back without its reservation.
    pools: Mutex<HashMap<PoolKey, Vec<PooledBuf>>>,
    /// Reservation-backed bytes currently sitting in free lists. These
    /// count against `MemoryTracker::in_use` but are reclaimable, so
    /// pre-flight estimates add them back to the available budget.
    held: AtomicUsize,
    fresh_takes: AtomicU64,
    recycled_takes: AtomicU64,
}

/// A size-bucketed pool of device scratch buffers charged against the
/// device memory budget (see the module docs). Cloning is cheap and
/// shares the pool, like the device it belongs to.
#[derive(Clone)]
pub struct BufferArena {
    inner: Arc<ArenaInner>,
    tracker: Arc<MemoryTracker>,
}

impl BufferArena {
    /// Creates an empty arena charging reservations to `tracker`.
    pub fn new(tracker: Arc<MemoryTracker>) -> Self {
        Self { inner: Arc::new(ArenaInner::default()), tracker }
    }

    /// Checks out a buffer of `n` default-initialized elements,
    /// reserving its bytes against the tracker (fresh checkout) or
    /// acknowledging the reuse of an already-reserved pooled buffer
    /// (recycle). Fails under the same conditions as
    /// [`MemoryTracker::reserve`]: budget exhaustion or an injected
    /// OOM — which fires on recycles too, discarding the pooled buffer
    /// exactly as a failed allocation would.
    pub fn take<T>(&self, n: usize) -> Result<ArenaBuf<T>, DeviceError>
    where
        T: Default + Clone + Send + 'static,
    {
        let key = (TypeId::of::<T>(), n, true);
        let pooled = self.inner.pools.lock().get_mut(&key).and_then(Vec::pop);
        if let Some(pooled) = pooled {
            let held = pooled.reserved_bytes();
            self.inner.held.fetch_sub(held, Ordering::Relaxed);
            // On failure `pooled` drops here and its reservation is
            // released: an injected OOM costs the arena the buffer.
            self.tracker.acknowledge_recycle(held)?;
            let mut buf = *pooled.buf.downcast::<Vec<T>>().expect("pool key pins the element type");
            buf.clear();
            buf.resize(n, T::default());
            self.inner.recycled_takes.fetch_add(1, Ordering::Relaxed);
            return Ok(ArenaBuf {
                buf,
                reservation: pooled.reservation,
                class: n,
                inner: Arc::clone(&self.inner),
            });
        }
        let reservation = self.tracker.reserve_array::<T>(n)?;
        self.inner.fresh_takes.fetch_add(1, Ordering::Relaxed);
        Ok(ArenaBuf {
            buf: vec![T::default(); n],
            reservation: Some(reservation),
            class: n,
            inner: Arc::clone(&self.inner),
        })
    }

    /// Checks out a buffer of `n` default-initialized elements with no
    /// tracker interaction: no reservation, no budget charge, no fault
    /// ordinal. For block-local working sets a real kernel would keep
    /// in shared memory rather than global device memory.
    pub fn take_untracked<T>(&self, n: usize) -> ArenaBuf<T>
    where
        T: Default + Clone + Send + 'static,
    {
        let key = (TypeId::of::<T>(), n, false);
        let pooled = self.inner.pools.lock().get_mut(&key).and_then(Vec::pop);
        if let Some(pooled) = pooled {
            let mut buf = *pooled.buf.downcast::<Vec<T>>().expect("pool key pins the element type");
            buf.clear();
            buf.resize(n, T::default());
            self.inner.recycled_takes.fetch_add(1, Ordering::Relaxed);
            return ArenaBuf { buf, reservation: None, class: n, inner: Arc::clone(&self.inner) };
        }
        self.inner.fresh_takes.fetch_add(1, Ordering::Relaxed);
        ArenaBuf {
            buf: vec![T::default(); n],
            reservation: None,
            class: n,
            inner: Arc::clone(&self.inner),
        }
    }

    /// Reservation-backed bytes currently parked in free lists. Still
    /// counted in [`MemoryTracker::in_use`], but reclaimable on demand
    /// via [`BufferArena::trim`] — pre-flight footprint checks treat
    /// them as available.
    pub fn held_bytes(&self) -> usize {
        self.inner.held.load(Ordering::Relaxed)
    }

    /// Releases every pooled buffer (and its reservation), returning
    /// the bytes that were freed.
    pub fn trim(&self) -> usize {
        let drained: Vec<PooledBuf> = {
            let mut pools = self.inner.pools.lock();
            pools.drain().flat_map(|(_, bufs)| bufs).collect()
        };
        let bytes: usize = drained.iter().map(PooledBuf::reserved_bytes).sum();
        self.inner.held.fetch_sub(bytes, Ordering::Relaxed);
        bytes
    }

    /// Checkouts served by a fresh allocation.
    pub fn fresh_takes(&self) -> u64 {
        self.inner.fresh_takes.load(Ordering::Relaxed)
    }

    /// Checkouts served from a free list.
    pub fn recycled_takes(&self) -> u64 {
        self.inner.recycled_takes.load(Ordering::Relaxed)
    }

    /// One coherent sample of the arena's telemetry values.
    pub fn stats(&self) -> ArenaStats {
        ArenaStats {
            held_bytes: self.held_bytes(),
            fresh_takes: self.fresh_takes(),
            recycled_takes: self.recycled_takes(),
        }
    }
}

/// Point-in-time copy of the arena's gauge/counter values (see
/// [`BufferArena::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Reservation-backed bytes parked in free lists right now.
    pub held_bytes: usize,
    /// Checkouts served by a fresh allocation, since construction.
    pub fresh_takes: u64,
    /// Checkouts served from a free list, since construction.
    pub recycled_takes: u64,
}

impl std::fmt::Debug for BufferArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferArena")
            .field("held_bytes", &self.held_bytes())
            .field("fresh_takes", &self.fresh_takes())
            .field("recycled_takes", &self.recycled_takes())
            .finish()
    }
}

/// A buffer checked out of a [`BufferArena`]. Dereferences to its
/// `Vec<T>`; on drop it returns to the arena's free list (keeping its
/// reservation alive) unless its capacity no longer matches its size
/// class, in which case it is released for real.
pub struct ArenaBuf<T: Send + 'static> {
    buf: Vec<T>,
    reservation: Option<MemoryReservation>,
    /// The element count this buffer was checked out (and charged) as.
    class: usize,
    inner: Arc<ArenaInner>,
}

impl<T: Send + 'static> Deref for ArenaBuf<T> {
    type Target = Vec<T>;

    fn deref(&self) -> &Vec<T> {
        &self.buf
    }
}

impl<T: Send + 'static> DerefMut for ArenaBuf<T> {
    fn deref_mut(&mut self) -> &mut Vec<T> {
        &mut self.buf
    }
}

impl<T: Send + 'static> Drop for ArenaBuf<T> {
    fn drop(&mut self) {
        let buf = std::mem::take(&mut self.buf);
        // A caller that grew (or shrank) the allocation broke the
        // class's byte accounting: release it instead of pooling.
        if buf.capacity() != self.class {
            return;
        }
        let reservation = self.reservation.take();
        let key = (TypeId::of::<T>(), self.class, reservation.is_some());
        let pooled = PooledBuf { buf: Box::new(buf), reservation };
        self.inner.held.fetch_add(pooled.reserved_bytes(), Ordering::Relaxed);
        self.inner.pools.lock().entry(key).or_default().push(pooled);
    }
}

impl<T: Send + std::fmt::Debug> std::fmt::Debug for ArenaBuf<T> {
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
    fn take_reserves_and_drop_keeps_bytes_held() {
        let tracker = Arc::new(MemoryTracker::new(None));
        let arena = BufferArena::new(Arc::clone(&tracker));
        {
            let buf = arena.take::<u64>(100).unwrap();
            assert_eq!(buf.len(), 100);
            assert_eq!(tracker.in_use(), 800);
            assert_eq!(arena.held_bytes(), 0);
        }
        // Pooled, not released: the reservation stays alive.
        assert_eq!(tracker.in_use(), 800);
        assert_eq!(arena.held_bytes(), 800);
        assert_eq!(arena.fresh_takes(), 1);
    }

    #[test]
    fn second_take_recycles_without_a_fresh_reservation() {
        let tracker = Arc::new(MemoryTracker::new(None));
        let arena = BufferArena::new(Arc::clone(&tracker));
        {
            let mut buf = arena.take::<u32>(64).unwrap();
            buf[7] = 99;
        }
        let buf = arena.take::<u32>(64).unwrap();
        assert!(buf.iter().all(|&v| v == 0), "recycled buffers are re-defaulted");
        assert_eq!(arena.fresh_takes(), 1);
        assert_eq!(arena.recycled_takes(), 1);
        assert_eq!(tracker.reservations_made(), 1, "the recycle made no fresh reservation");
        assert_eq!(tracker.in_use(), 256);
        assert_eq!(arena.held_bytes(), 0);
    }

    #[test]
    fn distinct_sizes_and_types_use_distinct_classes() {
        let arena = arena(None);
        drop(arena.take::<u32>(8).unwrap());
        drop(arena.take::<u32>(9).unwrap());
        drop(arena.take::<u64>(8).unwrap());
        // Three classes, so three fresh takes even after the drops…
        assert_eq!(arena.fresh_takes(), 3);
        // …and re-taking each hits its own free list.
        let _a = arena.take::<u32>(8).unwrap();
        let _b = arena.take::<u32>(9).unwrap();
        let _c = arena.take::<u64>(8).unwrap();
        assert_eq!(arena.recycled_takes(), 3);
    }

    #[test]
    fn budget_counts_pooled_bytes() {
        let arena = arena(Some(1000));
        drop(arena.take::<u8>(800).unwrap());
        // The pooled 800 bytes still occupy the budget…
        assert!(arena.take::<u8>(300).is_err());
        // …until trimmed.
        assert_eq!(arena.trim(), 800);
        assert_eq!(arena.held_bytes(), 0);
        assert!(arena.take::<u8>(300).is_ok());
    }

    #[test]
    fn grown_buffer_is_released_not_pooled() {
        let tracker = Arc::new(MemoryTracker::new(None));
        let arena = BufferArena::new(Arc::clone(&tracker));
        {
            let mut buf = arena.take::<u64>(4).unwrap();
            buf.reserve(1024); // capacity no longer matches the class
        }
        assert_eq!(arena.held_bytes(), 0);
        assert_eq!(tracker.in_use(), 0, "grown buffer must release its reservation");
        let _again = arena.take::<u64>(4).unwrap();
        assert_eq!(arena.recycled_takes(), 0);
    }

    #[test]
    fn injected_oom_fires_on_recycle_and_discards_the_buffer() {
        let counters = Arc::new(Counters::default());
        let plan = Arc::new(FaultPlan::new(3).with_oom_at_reservation(1));
        let tracker =
            Arc::new(MemoryTracker::with_instrumentation(None, Arc::clone(&counters), Some(plan)));
        let arena = BufferArena::new(Arc::clone(&tracker));
        drop(arena.take::<u64>(32).unwrap()); // ordinal 0: fresh, then pooled
        let err = arena.take::<u64>(32).unwrap_err(); // ordinal 1: recycle, injected
        assert!(matches!(err, DeviceError::OutOfMemory { .. }));
        assert_eq!(counters.snapshot().injected_oom, 1);
        // The pooled buffer was discarded with its reservation…
        assert_eq!(tracker.in_use(), 0);
        assert_eq!(arena.held_bytes(), 0);
        // …so the retry allocates fresh (ordinal 2: clean).
        assert!(arena.take::<u64>(32).is_ok());
        assert_eq!(arena.fresh_takes(), 2);
    }

    #[test]
    fn untracked_take_touches_neither_budget_nor_ordinals() {
        let counters = Arc::new(Counters::default());
        // An ordinal-0 OOM would fire on the very first reservation.
        let plan = Arc::new(FaultPlan::new(3).with_oom_at_reservation(0));
        let tracker =
            Arc::new(MemoryTracker::with_instrumentation(None, Arc::clone(&counters), Some(plan)));
        let arena = BufferArena::new(Arc::clone(&tracker));
        {
            let buf = arena.take_untracked::<u32>(1000);
            assert_eq!(buf.len(), 1000);
            assert_eq!(tracker.in_use(), 0);
        }
        // Recycle is equally invisible to the tracker.
        let _again = arena.take_untracked::<u32>(1000);
        assert_eq!(arena.recycled_takes(), 1);
        assert_eq!(tracker.reservations_made(), 0);
        assert_eq!(counters.snapshot().injected_oom, 0);
        assert_eq!(arena.held_bytes(), 0);
    }

    #[test]
    fn tracked_and_untracked_buffers_never_recycle_into_each_other() {
        let tracker = Arc::new(MemoryTracker::new(None));
        let arena = BufferArena::new(Arc::clone(&tracker));
        drop(arena.take_untracked::<u64>(128));
        // Same element type and length, but a tracked checkout must
        // reserve its bytes instead of taking the unreserved buffer.
        let tracked = arena.take::<u64>(128).unwrap();
        assert_eq!(tracker.in_use(), 1024);
        assert_eq!(tracker.reservations_made(), 1);
        drop(tracked);
        // And an untracked checkout leaves the pooled tracked buffer,
        // and its reservation, in the arena.
        let _untracked = arena.take_untracked::<u64>(128);
        assert_eq!(arena.held_bytes(), 1024);
        assert_eq!(arena.recycled_takes(), 1);
    }

    #[test]
    fn clones_share_the_pool() {
        let arena = arena(None);
        let clone = arena.clone();
        drop(arena.take::<u8>(16).unwrap());
        let _buf = clone.take::<u8>(16).unwrap();
        assert_eq!(clone.recycled_takes(), 1);
    }

    #[test]
    fn zero_length_take_works() {
        let arena = arena(Some(0));
        let buf = arena.take::<u64>(0).unwrap();
        assert!(buf.is_empty());
    }
}
