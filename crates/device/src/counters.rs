//! Device-wide work counters ("hardware performance counters").
//!
//! The paper's performance arguments are about *work*: how many distance
//! computations an algorithm performs, how much of the tree a traversal
//! touches, how many union-find operations run. On a machine with far
//! fewer cores than the paper's V100, wall time alone would misrepresent
//! the comparison, so every substrate increments these counters and the
//! benchmark harness reports both.
//!
//! Counters are `Relaxed` atomics: they are statistics, not
//! synchronization.
//!
//! # Per-block tallies
//!
//! The [`Hot`] counters — distances, nodes, unions, finds, label CAS,
//! neighbours and dense-box scans — move once per operation inside the
//! main kernels, and an atomic add is a `lock`-prefixed instruction
//! however the lines are shared. So while a thread runs a block of a
//! launch on a device, [`Counters::add`] on that device's counters adds to
//! a thread-local tally instead, and the block flushes the tally to the
//! atomics once when it ends, also when it unwinds. Increments made
//! outside any block, or to another device's counters from inside one,
//! go straight to the atomics. A block that launches on another device
//! (or on its own) opens a nested tally and restores the outer one when
//! the nested launch's block ends.
//!
//! Totals stay exact: every increment lands in the atomics by the time
//! the launch that made it returns. A read taken *during* a launch lags
//! by at most one block per participant.

use std::cell::Cell;
use std::ptr;
use std::sync::atomic::{AtomicU64, Ordering};

/// The counters kernels move once per operation, which a block tallies
/// per thread (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Hot {
    /// [`Counters::distance_computations`].
    Distances,
    /// [`Counters::bvh_nodes_visited`].
    Nodes,
    /// [`Counters::unions`].
    Unions,
    /// [`Counters::finds`].
    Finds,
    /// [`Counters::label_cas`].
    LabelCas,
    /// [`Counters::neighbors_found`].
    Neighbors,
    /// [`Counters::dense_box_scans`].
    DenseBoxScans,
}

impl Hot {
    /// Every hot counter, in tally order.
    const ALL: [Hot; 7] = [
        Hot::Distances,
        Hot::Nodes,
        Hot::Unions,
        Hot::Finds,
        Hot::LabelCas,
        Hot::Neighbors,
        Hot::DenseBoxScans,
    ];
}

/// Number of [`Hot`] counters.
const HOT: usize = Hot::ALL.len();

/// The block a thread is running: whose hot counters it tallies (null
/// outside any block), and the tally, indexed by [`Hot`].
struct BlockTally {
    owner: Cell<*const Counters>,
    counts: [Cell<u64>; HOT],
}

thread_local! {
    static BLOCK: BlockTally = const {
        BlockTally { owner: Cell::new(ptr::null()), counts: [const { Cell::new(0) }; HOT] }
    };
}

/// Shared mutable counter block. Lives inside a `Device` and is shared by
/// all its clones.
#[derive(Debug, Default)]
pub struct Counters {
    /// Number of kernel launches (including reductions).
    pub kernel_launches: AtomicU64,
    /// Point–point (and point–box-member) distance evaluations.
    pub distance_computations: AtomicU64,
    /// BVH nodes visited across all traversals.
    pub bvh_nodes_visited: AtomicU64,
    /// `Union` operations executed (successful or not).
    pub unions: AtomicU64,
    /// `Find` root lookups executed.
    pub finds: AtomicU64,
    /// Compare-and-swap operations on cluster labels (border-point claims).
    pub label_cas: AtomicU64,
    /// Neighbors reported by traversals (edges of the implicit graph).
    pub neighbors_found: AtomicU64,
    /// Points scanned inside dense boxes (FDBSCAN-DenseBox linear scans).
    pub dense_box_scans: AtomicU64,
    /// Memory reservations requested (successful or not).
    pub reservations: AtomicU64,
    /// Stages executed inside batched launch submissions
    /// (`Device::try_batch_named`). A batch counts once in
    /// `kernel_launches` regardless of how many stages it runs; this
    /// counter preserves the stage-level work accounting.
    pub batched_stages: AtomicU64,
    /// Kernel launches that returned an error (panic, timeout, or
    /// injected fault) through the fallible launch API.
    pub failed_launches: AtomicU64,
    /// Out-of-memory errors injected by a fault plan.
    pub injected_oom: AtomicU64,
    /// Kernel panics injected by a fault plan.
    pub injected_panics: AtomicU64,
    /// Worker stalls injected by a fault plan.
    pub injected_stalls: AtomicU64,
    /// Distributed-rank failures injected by a fault plan.
    pub injected_rank_faults: AtomicU64,
    /// Message-layer faults (drop/corrupt/delay) injected by a fault
    /// plan into the simulated distributed transport.
    pub injected_message_faults: AtomicU64,
    /// Permanent rank deaths injected by a fault plan at distributed
    /// phase boundaries.
    pub injected_rank_deaths: AtomicU64,
}

impl Counters {
    /// Resets every counter to zero.
    pub fn reset(&self) {
        self.kernel_launches.store(0, Ordering::Relaxed);
        self.distance_computations.store(0, Ordering::Relaxed);
        self.bvh_nodes_visited.store(0, Ordering::Relaxed);
        self.unions.store(0, Ordering::Relaxed);
        self.finds.store(0, Ordering::Relaxed);
        self.label_cas.store(0, Ordering::Relaxed);
        self.neighbors_found.store(0, Ordering::Relaxed);
        self.dense_box_scans.store(0, Ordering::Relaxed);
        self.reservations.store(0, Ordering::Relaxed);
        self.batched_stages.store(0, Ordering::Relaxed);
        self.failed_launches.store(0, Ordering::Relaxed);
        self.injected_oom.store(0, Ordering::Relaxed);
        self.injected_panics.store(0, Ordering::Relaxed);
        self.injected_stalls.store(0, Ordering::Relaxed);
        self.injected_rank_faults.store(0, Ordering::Relaxed);
        self.injected_message_faults.store(0, Ordering::Relaxed);
        self.injected_rank_deaths.store(0, Ordering::Relaxed);
    }

    /// Adds `n` to the hot counter `counter`: to the running block's
    /// tally when this thread runs a block of a launch on this device,
    /// straight to the atomic otherwise.
    #[inline]
    pub fn add(&self, counter: Hot, n: u64) {
        let tallied = BLOCK.with(|block| {
            let mine = ptr::eq(block.owner.get(), self);
            if mine {
                let count = &block.counts[counter as usize];
                count.set(count.get() + n);
            }
            mine
        });
        if !tallied && n > 0 {
            self.hot(counter).fetch_add(n, Ordering::Relaxed);
        }
    }

    fn hot(&self, counter: Hot) -> &AtomicU64 {
        match counter {
            Hot::Distances => &self.distance_computations,
            Hot::Nodes => &self.bvh_nodes_visited,
            Hot::Unions => &self.unions,
            Hot::Finds => &self.finds,
            Hot::LabelCas => &self.label_cas,
            Hot::Neighbors => &self.neighbors_found,
            Hot::DenseBoxScans => &self.dense_box_scans,
        }
    }

    /// Tallies this thread's hot-counter increments on these counters
    /// until the returned scope drops, then flushes them: the device
    /// opens one around every block it runs.
    pub(crate) fn block_scope(&self) -> BlockScope<'_> {
        BLOCK.with(|block| BlockScope {
            counters: self,
            outer: block.owner.replace(self),
            outer_counts: block.counts.each_ref().map(Cell::take),
        })
    }

    /// Takes a plain-value snapshot of all counters.
    pub fn snapshot(&self) -> CountersSnapshot {
        CountersSnapshot {
            kernel_launches: self.kernel_launches.load(Ordering::Relaxed),
            distance_computations: self.distance_computations.load(Ordering::Relaxed),
            bvh_nodes_visited: self.bvh_nodes_visited.load(Ordering::Relaxed),
            unions: self.unions.load(Ordering::Relaxed),
            finds: self.finds.load(Ordering::Relaxed),
            label_cas: self.label_cas.load(Ordering::Relaxed),
            neighbors_found: self.neighbors_found.load(Ordering::Relaxed),
            dense_box_scans: self.dense_box_scans.load(Ordering::Relaxed),
            reservations: self.reservations.load(Ordering::Relaxed),
            batched_stages: self.batched_stages.load(Ordering::Relaxed),
            failed_launches: self.failed_launches.load(Ordering::Relaxed),
            injected_oom: self.injected_oom.load(Ordering::Relaxed),
            injected_panics: self.injected_panics.load(Ordering::Relaxed),
            injected_stalls: self.injected_stalls.load(Ordering::Relaxed),
            injected_rank_faults: self.injected_rank_faults.load(Ordering::Relaxed),
            injected_message_faults: self.injected_message_faults.load(Ordering::Relaxed),
            injected_rank_deaths: self.injected_rank_deaths.load(Ordering::Relaxed),
        }
    }
}

/// One block's tally (see [`Counters::block_scope`]). Dropping it, also
/// on unwind, flushes the tally and restores the scope it nested in.
pub(crate) struct BlockScope<'a> {
    counters: &'a Counters,
    outer: *const Counters,
    outer_counts: [u64; HOT],
}

impl Drop for BlockScope<'_> {
    fn drop(&mut self) {
        BLOCK.with(|block| {
            for ((count, outer), counter) in
                block.counts.iter().zip(self.outer_counts).zip(Hot::ALL)
            {
                let n = count.replace(outer);
                if n > 0 {
                    self.counters.hot(counter).fetch_add(n, Ordering::Relaxed);
                }
            }
            block.owner.set(self.outer);
        });
    }
}

/// A plain-value copy of [`Counters`] at one instant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CountersSnapshot {
    /// Number of kernel launches (including reductions).
    pub kernel_launches: u64,
    /// Point–point (and point–box-member) distance evaluations.
    pub distance_computations: u64,
    /// BVH nodes visited across all traversals.
    pub bvh_nodes_visited: u64,
    /// `Union` operations executed (successful or not).
    pub unions: u64,
    /// `Find` root lookups executed.
    pub finds: u64,
    /// Compare-and-swap operations on cluster labels.
    pub label_cas: u64,
    /// Neighbors reported by traversals.
    pub neighbors_found: u64,
    /// Points scanned inside dense boxes.
    pub dense_box_scans: u64,
    /// Memory reservations requested (successful or not).
    pub reservations: u64,
    /// Stages executed inside batched launch submissions.
    pub batched_stages: u64,
    /// Kernel launches that returned an error through the fallible API.
    pub failed_launches: u64,
    /// Out-of-memory errors injected by a fault plan.
    pub injected_oom: u64,
    /// Kernel panics injected by a fault plan.
    pub injected_panics: u64,
    /// Worker stalls injected by a fault plan.
    pub injected_stalls: u64,
    /// Distributed-rank failures injected by a fault plan.
    pub injected_rank_faults: u64,
    /// Message-layer faults injected by a fault plan.
    pub injected_message_faults: u64,
    /// Permanent rank deaths injected by a fault plan.
    pub injected_rank_deaths: u64,
}

impl CountersSnapshot {
    /// Component-wise difference (`self - earlier`), saturating at zero.
    /// Useful for measuring one phase between two snapshots.
    pub fn since(&self, earlier: &CountersSnapshot) -> CountersSnapshot {
        CountersSnapshot {
            kernel_launches: self.kernel_launches.saturating_sub(earlier.kernel_launches),
            distance_computations: self
                .distance_computations
                .saturating_sub(earlier.distance_computations),
            bvh_nodes_visited: self.bvh_nodes_visited.saturating_sub(earlier.bvh_nodes_visited),
            unions: self.unions.saturating_sub(earlier.unions),
            finds: self.finds.saturating_sub(earlier.finds),
            label_cas: self.label_cas.saturating_sub(earlier.label_cas),
            neighbors_found: self.neighbors_found.saturating_sub(earlier.neighbors_found),
            dense_box_scans: self.dense_box_scans.saturating_sub(earlier.dense_box_scans),
            reservations: self.reservations.saturating_sub(earlier.reservations),
            batched_stages: self.batched_stages.saturating_sub(earlier.batched_stages),
            failed_launches: self.failed_launches.saturating_sub(earlier.failed_launches),
            injected_oom: self.injected_oom.saturating_sub(earlier.injected_oom),
            injected_panics: self.injected_panics.saturating_sub(earlier.injected_panics),
            injected_stalls: self.injected_stalls.saturating_sub(earlier.injected_stalls),
            injected_rank_faults: self
                .injected_rank_faults
                .saturating_sub(earlier.injected_rank_faults),
            injected_message_faults: self
                .injected_message_faults
                .saturating_sub(earlier.injected_message_faults),
            injected_rank_deaths: self
                .injected_rank_deaths
                .saturating_sub(earlier.injected_rank_deaths),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Device, DeviceConfig, DeviceError};

    #[test]
    fn snapshot_reflects_increments() {
        let counters = Counters::default();
        counters.add(Hot::Distances, 5);
        counters.add(Hot::Nodes, 3);
        counters.add(Hot::Unions, 2);
        let snap = counters.snapshot();
        assert_eq!(snap.distance_computations, 5);
        assert_eq!(snap.bvh_nodes_visited, 3);
        assert_eq!(snap.unions, 2);
        assert_eq!(snap.kernel_launches, 0);
    }

    #[test]
    fn add_zero_is_noop() {
        let counters = Counters::default();
        counters.add(Hot::Distances, 0);
        counters.add(Hot::Nodes, 0);
        assert_eq!(counters.snapshot(), CountersSnapshot::default());
    }

    #[test]
    fn reset_zeroes_everything() {
        let counters = Counters::default();
        counters.add(Hot::Distances, 10);
        counters.add(Hot::LabelCas, 7);
        counters.reset();
        assert_eq!(counters.snapshot(), CountersSnapshot::default());
    }

    #[test]
    fn since_computes_phase_delta() {
        let counters = Counters::default();
        counters.add(Hot::Distances, 10);
        let first = counters.snapshot();
        counters.add(Hot::Distances, 25);
        counters.add(Hot::Finds, 4);
        let second = counters.snapshot();
        let delta = second.since(&first);
        assert_eq!(delta.distance_computations, 25);
        assert_eq!(delta.finds, 4);
    }

    /// The hot counters of a snapshot, in [`Hot::ALL`] order.
    fn hot(snap: &CountersSnapshot) -> [u64; HOT] {
        [
            snap.distance_computations,
            snap.bvh_nodes_visited,
            snap.unions,
            snap.finds,
            snap.label_cas,
            snap.neighbors_found,
            snap.dense_box_scans,
        ]
    }

    #[test]
    fn block_tallies_give_exact_totals_on_four_workers() {
        let device = Device::new(DeviceConfig::default().with_workers(4).with_block_size(7));
        let counters = device.counters();
        let n = 10_000u64;
        device.launch(n as usize, |i| {
            for (k, counter) in Hot::ALL.into_iter().enumerate() {
                counters.add(counter, i as u64 + k as u64);
            }
        });
        let sum = n * (n - 1) / 2;
        let expected: Vec<u64> = (0..HOT as u64).map(|k| sum + k * n).collect();
        assert_eq!(hot(&counters.snapshot()), expected[..]);
    }

    #[test]
    fn a_panicking_block_flushes_what_it_added() {
        // Sequential, blocks of 10: block 0 completes, block 1 adds at
        // indices 10..=15 and panics at 15, and no later block runs.
        let device = Device::new(DeviceConfig::sequential().with_block_size(10));
        let counters = device.counters();
        let result = device.try_launch(100, |i| {
            counters.add(Hot::Unions, 1);
            assert!(i != 15, "fault at index 15");
        });
        assert!(matches!(result, Err(DeviceError::KernelPanicked { .. })), "{result:?}");
        assert_eq!(counters.snapshot().unions, 16);
        // The unwound block restored the thread: an add outside any
        // launch lands at once.
        counters.add(Hot::Unions, 1);
        assert_eq!(counters.snapshot().unions, 17);
    }

    #[test]
    fn increments_outside_a_block_or_to_another_device_land_at_once() {
        let other = Counters::default();
        other.add(Hot::Finds, 3);
        assert_eq!(other.snapshot().finds, 3, "outside any launch");
        let device = Device::new(DeviceConfig::sequential().with_block_size(8));
        let counters = device.counters();
        device.launch(40, |i| {
            let i = i as u64;
            // Another device's counters: straight to its atomics.
            other.add(Hot::Finds, 1);
            assert_eq!(other.snapshot().finds, 3 + i + 1);
            // This device's: a read lags by the running block at most.
            counters.add(Hot::Finds, 1);
            assert_eq!(counters.snapshot().finds, i / 8 * 8);
        });
        assert_eq!(counters.snapshot().finds, 40);
    }

    #[test]
    fn a_nested_launch_restores_the_outer_tally() {
        let outer = Device::new(DeviceConfig::sequential().with_block_size(4));
        let inner = Device::new(DeviceConfig::sequential().with_block_size(3));
        outer.launch(8, |_| {
            outer.counters().add(Hot::Distances, 1);
            inner.launch(5, |_| {
                inner.counters().add(Hot::Nodes, 1);
                // The outer device's counters are another device's here.
                let before = outer.counters().snapshot().label_cas;
                outer.counters().add(Hot::LabelCas, 1);
                assert_eq!(outer.counters().snapshot().label_cas, before + 1);
            });
            // Tallied again once the nested launch is over.
            outer.counters().add(Hot::Distances, 1);
        });
        let (o, i) = (outer.counters().snapshot(), inner.counters().snapshot());
        assert_eq!((o.distance_computations, o.label_cas, o.bvh_nodes_visited), (16, 40, 0));
        assert_eq!((i.bvh_nodes_visited, i.distance_computations), (40, 0));
    }
}
