//! Device-memory views for kernels.
//!
//! GPU kernels write results into device buffers either with *disjoint*
//! per-thread writes (each thread owns its output slot) or with explicit
//! atomics. This module provides both patterns over ordinary Rust slices:
//!
//! * [`SharedMut`] — a `Sync` view over `&mut [T]` permitting unsafe
//!   disjoint writes from many threads (the caller proves disjointness),
//! * [`as_atomic_u32`] — reinterpret an exclusive `u32` slice as a slice
//!   of atomics, for label arrays and counters.

use std::cell::UnsafeCell;
use std::sync::atomic::AtomicU32;

/// A shared-mutable view over a slice, for kernels whose threads write
/// disjoint elements.
///
/// The view borrows the slice exclusively, so no other safe access can
/// alias it while the view exists; within the view, writes are raw and the
/// *caller* guarantees that no element is accessed by two threads in the
/// same launch (a data race through this view is undefined behaviour —
/// hence the `unsafe` accessors).
pub struct SharedMut<'a, T> {
    cells: &'a [UnsafeCell<T>],
}

// SAFETY: `SharedMut` only hands out access through `unsafe` methods whose
// contract forbids racing accesses; the wrapper itself is just a pointer.
unsafe impl<'a, T: Send> Sync for SharedMut<'a, T> {}
unsafe impl<'a, T: Send> Send for SharedMut<'a, T> {}

impl<'a, T> SharedMut<'a, T> {
    /// Wraps an exclusive slice.
    pub fn new(slice: &'a mut [T]) -> Self {
        // SAFETY: `UnsafeCell<T>` has the same layout as `T`, and we hold
        // the unique borrow for 'a.
        let cells = unsafe { &*(slice as *mut [T] as *const [UnsafeCell<T>]) };
        Self { cells }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Writes `value` at `i`.
    ///
    /// # Safety
    /// During the current launch, element `i` must not be read or written
    /// by any other thread.
    #[inline]
    pub unsafe fn write(&self, i: usize, value: T) {
        *self.cells[i].get() = value;
    }

    /// Reads the element at `i`.
    ///
    /// # Safety
    /// During the current launch, element `i` must not be written
    /// concurrently by any thread.
    #[inline]
    pub unsafe fn read(&self, i: usize) -> T
    where
        T: Copy,
    {
        *self.cells[i].get()
    }
}

/// Reinterprets an exclusive `u32` slice as atomics.
///
/// `AtomicU32` is guaranteed to have the same in-memory representation as
/// `u32`, and the exclusive borrow rules out non-atomic aliases, so every
/// access through the result is sound.
pub fn as_atomic_u32(slice: &mut [u32]) -> &[AtomicU32] {
    // SAFETY: layout-compatible per std docs; uniqueness from `&mut`.
    unsafe { &*(slice as *mut [u32] as *const [AtomicU32]) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    #[test]
    fn shared_mut_disjoint_writes() {
        let mut data = vec![0u32; 100];
        {
            let view = SharedMut::new(&mut data);
            std::thread::scope(|s| {
                let view = &view;
                s.spawn(move || {
                    for i in 0..50 {
                        unsafe { view.write(i, i as u32) };
                    }
                });
                s.spawn(move || {
                    for i in 50..100 {
                        unsafe { view.write(i, i as u32) };
                    }
                });
            });
        }
        assert!(data.iter().enumerate().all(|(i, v)| *v == i as u32));
    }

    #[test]
    fn shared_mut_read_back() {
        let mut data = vec![7u8; 4];
        let view = SharedMut::new(&mut data);
        unsafe {
            view.write(2, 9);
            assert_eq!(view.read(2), 9);
            assert_eq!(view.read(0), 7);
        }
        assert_eq!(view.len(), 4);
        assert!(!view.is_empty());
    }

    #[test]
    fn atomic_u32_view_round_trips() {
        let mut data = vec![1u32, 2, 3];
        {
            let atomics = as_atomic_u32(&mut data);
            atomics[1].fetch_add(40, Ordering::Relaxed);
        }
        assert_eq!(data, vec![1, 42, 3]);
    }

    #[test]
    fn atomic_views_concurrent_increments() {
        let mut data = vec![0u32; 8];
        {
            let atomics = as_atomic_u32(&mut data);
            std::thread::scope(|s| {
                for _ in 0..4 {
                    s.spawn(|| {
                        for a in atomics.iter() {
                            a.fetch_add(1000, Ordering::Relaxed);
                        }
                    });
                }
            });
        }
        assert!(data.iter().all(|v| *v == 4000));
    }
}
