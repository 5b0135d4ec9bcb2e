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
//! synchronization. Increments are cheap but not free; the hot BVH
//! traversal batches its increments per query rather than per node.

use std::sync::atomic::{AtomicU64, Ordering};

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

    /// Adds `n` to the distance-computation counter.
    #[inline]
    pub fn add_distances(&self, n: u64) {
        if n > 0 {
            self.distance_computations.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds `n` to the nodes-visited counter.
    #[inline]
    pub fn add_nodes_visited(&self, n: u64) {
        if n > 0 {
            self.bvh_nodes_visited.fetch_add(n, Ordering::Relaxed);
        }
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

    #[test]
    fn snapshot_reflects_increments() {
        let counters = Counters::default();
        counters.add_distances(5);
        counters.add_nodes_visited(3);
        counters.unions.fetch_add(2, Ordering::Relaxed);
        let snap = counters.snapshot();
        assert_eq!(snap.distance_computations, 5);
        assert_eq!(snap.bvh_nodes_visited, 3);
        assert_eq!(snap.unions, 2);
        assert_eq!(snap.kernel_launches, 0);
    }

    #[test]
    fn add_zero_is_noop() {
        let counters = Counters::default();
        counters.add_distances(0);
        counters.add_nodes_visited(0);
        assert_eq!(counters.snapshot(), CountersSnapshot::default());
    }

    #[test]
    fn reset_zeroes_everything() {
        let counters = Counters::default();
        counters.add_distances(10);
        counters.label_cas.fetch_add(7, Ordering::Relaxed);
        counters.reset();
        assert_eq!(counters.snapshot(), CountersSnapshot::default());
    }

    #[test]
    fn since_computes_phase_delta() {
        let counters = Counters::default();
        counters.add_distances(10);
        let first = counters.snapshot();
        counters.add_distances(25);
        counters.finds.fetch_add(4, Ordering::Relaxed);
        let second = counters.snapshot();
        let delta = second.since(&first);
        assert_eq!(delta.distance_computations, 25);
        assert_eq!(delta.finds, 4);
    }
}
