#![warn(missing_docs)]

//! Synchronization-free union-find for batched parallel clustering.
//!
//! Reimplementation of the union-find used by the paper (§4): the ECL-CC
//! algorithm of Jaiganesh & Burtscher (HPDC'18), in its first-kernel form
//! (one thread per vertex). Properties that matter here:
//!
//! * **lock-free hooking** — `union` makes the *larger* of the two roots
//!   point to the smaller with a single compare-and-swap; the invariant
//!   "parent ≤ child" makes the CAS self-validating (success proves the
//!   larger index was still a root),
//! * **intermediate pointer jumping** — `find` shortens the path of every
//!   element it traverses by making each skip over the next, halving path
//!   lengths per traversal without any synchronization,
//! * **finalization** — because compression is opportunistic, labels are
//!   not guaranteed to point at roots when the main phase ends; a
//!   [`AtomicLabels::flatten`] kernel makes every label point directly at
//!   its representative (paper §4, "extra finalization phase").
//!
//! # Memory ordering
//!
//! All label operations are `Relaxed`, exactly as in the CUDA original:
//! the labels array is the only shared state, every read of a label value
//! is valid regardless of interleaving (values only ever decrease toward
//! the representative), and cross-phase visibility comes from the device's
//! launch barrier, not from the atomics themselves.
//!
//! # Example
//!
//! ```
//! use fdbscan_device::Device;
//! use fdbscan_unionfind::AtomicLabels;
//!
//! let device = Device::with_defaults();
//! let labels = AtomicLabels::new(6);
//! // Unions may run concurrently from any kernel.
//! let edges = [(0u32, 1u32), (1, 2), (4, 5)];
//! device.launch(edges.len(), |e| {
//!     let (a, b) = edges[e];
//!     labels.union(a, b);
//! });
//! labels.flatten(&device).unwrap();
//! assert!(labels.same_set(0, 2));
//! assert!(!labels.same_set(0, 4));
//! assert_eq!(labels.count_sets(), 3); // {0,1,2}, {3}, {4,5}
//! ```

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use fdbscan_device::{Counters, Device, DeviceError, Hot};

pub mod sequential;

pub use sequential::SequentialDsu;

/// Sentinel meaning "not a member of any cluster" in label arrays that
/// overload labels with membership (see [`AtomicLabels::try_claim`]).
pub const UNVISITED: u32 = u32::MAX;

/// A flat array of atomic parent pointers over indices `0..n`.
///
/// Index `i` is a *root* iff `labels[i] == i`. The representative of a set
/// is its smallest-index member once all paths are compressed.
pub struct AtomicLabels {
    labels: Vec<AtomicU32>,
    counters: Option<Arc<Counters>>,
}

impl AtomicLabels {
    /// Creates `n` singleton sets (`labels[i] = i`).
    ///
    /// # Panics
    /// Panics if `n > u32::MAX as usize` (labels are 32-bit, matching the
    /// GPU implementation's memory layout).
    pub fn new(n: usize) -> Self {
        assert!(n <= u32::MAX as usize, "labels are u32");
        Self { labels: (0..n as u32).map(AtomicU32::new).collect(), counters: None }
    }

    /// Like [`AtomicLabels::new`] but counts every union, find and
    /// claim in `counters` (through [`Counters::add`], so inside a launch
    /// on their device the counts are tallied per block).
    pub fn with_counters(n: usize, counters: Arc<Counters>) -> Self {
        let mut this = Self::new(n);
        this.counters = Some(counters);
        this
    }

    /// Rebuilds the structure from a parent array previously captured
    /// with [`AtomicLabels::snapshot`] — how a checkpoint takes a frozen
    /// copy of union-find state. No validation beyond length is
    /// performed, and the copy carries no counters.
    ///
    /// # Panics
    /// Panics if `labels.len() > u32::MAX as usize`.
    pub fn from_labels(labels: Vec<u32>) -> Self {
        assert!(labels.len() <= u32::MAX as usize, "labels are u32");
        Self { labels: labels.into_iter().map(AtomicU32::new).collect(), counters: None }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the structure is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Raw label value of `i` (a parent pointer, not necessarily a root).
    #[inline]
    pub fn label(&self, i: u32) -> u32 {
        self.labels[i as usize].load(Ordering::Relaxed)
    }

    /// Finds the representative of `i`, compressing the traversed path by
    /// intermediate pointer jumping.
    ///
    /// Safe to call concurrently with other `find`/`union` operations.
    #[inline]
    pub fn find(&self, i: u32) -> u32 {
        if let Some(c) = &self.counters {
            c.add(Hot::Finds, 1);
        }
        let labels = &self.labels;
        let mut prev = i;
        let mut curr = labels[i as usize].load(Ordering::Relaxed);
        loop {
            let next = labels[curr as usize].load(Ordering::Relaxed);
            if next == curr {
                return curr;
            }
            // Intermediate pointer jumping: `prev` skips over `curr`.
            // Relaxed store: any racing write also points into the same
            // tree at equal or lesser depth, so all interleavings are
            // valid states.
            labels[prev as usize].store(next, Ordering::Relaxed);
            prev = curr;
            curr = next;
        }
    }

    /// Merges the sets of `a` and `b`. Returns `true` if two distinct
    /// sets were merged, `false` if they were already the same set.
    ///
    /// Lock-free: hooks the larger root under the smaller with a CAS that
    /// simultaneously verifies rootness.
    pub fn union(&self, a: u32, b: u32) -> bool {
        if let Some(c) = &self.counters {
            c.add(Hot::Unions, 1);
        }
        let mut a = a;
        let mut b = b;
        loop {
            let ra = self.find_uncounted(a);
            let rb = self.find_uncounted(b);
            if ra == rb {
                return false;
            }
            let (hi, lo) = if ra > rb { (ra, rb) } else { (rb, ra) };
            // CAS success proves `hi` was still a root at the instant of
            // hooking, so no tree edge is ever lost.
            if self.labels[hi as usize]
                .compare_exchange(hi, lo, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                return true;
            }
            // Another thread hooked `hi` first; retry from the new roots.
            a = hi;
            b = lo;
        }
    }

    /// Hooks each of `members` directly under `root`: the parent array
    /// that [`AtomicLabels::union`]`(root, m)` for each member in turn
    /// leaves, with one plain store per member instead of two finds and
    /// a CAS. Counts one union per member, as that loop does.
    ///
    /// Every member must still be a singleton, greater than `root`, and
    /// `root` a root; no other thread may link or claim a member while
    /// this runs (its store would be overwritten).
    pub fn hook_singletons(&self, root: u32, members: &[u32]) {
        if let Some(c) = &self.counters {
            c.add(Hot::Unions, members.len() as u64);
        }
        debug_assert_eq!(self.label(root), root, "{root} is not a root");
        for &m in members {
            debug_assert!(root < m && self.label(m) == m, "{m} is not a singleton above {root}");
            self.labels[m as usize].store(root, Ordering::Relaxed);
        }
    }

    /// `find` without counter accounting (internal fast path).
    #[inline]
    fn find_uncounted(&self, i: u32) -> u32 {
        let labels = &self.labels;
        let mut prev = i;
        let mut curr = labels[i as usize].load(Ordering::Relaxed);
        loop {
            let next = labels[curr as usize].load(Ordering::Relaxed);
            if next == curr {
                return curr;
            }
            labels[prev as usize].store(next, Ordering::Relaxed);
            prev = curr;
            curr = next;
        }
    }

    /// Returns `true` if `a` and `b` are currently in the same set.
    ///
    /// Only meaningful as a stable answer once no concurrent unions can
    /// run (e.g. after the main phase); during concurrent modification it
    /// is a snapshot.
    pub fn same_set(&self, a: u32, b: u32) -> bool {
        self.find(a) == self.find(b)
    }

    /// Atomically claims element `i` for the set rooted at `root`,
    /// succeeding only if `i` is still its own singleton (`labels[i] ==
    /// i`).
    ///
    /// This is the paper's replacement for Algorithm 3's critical section
    /// (§3.2): a border point is attached to the first cluster that
    /// reaches it, and the CAS guarantees no second cluster can attach it
    /// again (which would "bridge" distinct clusters).
    pub fn try_claim(&self, i: u32, root: u32) -> bool {
        if let Some(c) = &self.counters {
            c.add(Hot::LabelCas, 1);
        }
        self.labels[i as usize]
            .compare_exchange(i, root, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
    }

    /// Finalization kernel: makes every label point directly at its
    /// representative (paper §4). Runs as one batched launch.
    ///
    /// Must not run concurrently with `union` (callers run it after the
    /// main phase; the launch boundary provides the ordering).
    ///
    /// # Errors
    /// Propagates [`DeviceError`] from the launch (a kernel fault, a
    /// watchdog timeout, a cancelled device). The labels are then partly
    /// flattened, which changes no set.
    pub fn flatten(&self, device: &Device) -> Result<(), DeviceError> {
        let labels = &self.labels;
        device.try_launch_named("uf.flatten", labels.len(), |i| {
            // Read-only walk to the root: the tree is static during
            // finalization except for idempotent compression writes.
            let mut root = labels[i].load(Ordering::Relaxed);
            loop {
                let next = labels[root as usize].load(Ordering::Relaxed);
                if next == root {
                    break;
                }
                root = next;
            }
            labels[i].store(root, Ordering::Relaxed);
        })
    }

    /// Host-side finalization: returns the canonical (smallest-member)
    /// representative of every element without launching a device
    /// kernel and without mutating the structure. The device-kernel
    /// equivalent is [`AtomicLabels::flatten`] followed by
    /// [`AtomicLabels::snapshot`]; this form exists for merge
    /// coordinators replaying logs outside any rank's device.
    ///
    /// Must not run concurrently with `union` (same contract as
    /// `flatten`).
    pub fn canonicalize(&self) -> Vec<u32> {
        let n = self.labels.len();
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let mut root = self.labels[i].load(Ordering::Relaxed);
            loop {
                let next = self.labels[root as usize].load(Ordering::Relaxed);
                if next == root {
                    break;
                }
                root = next;
            }
            out.push(root);
        }
        out
    }

    /// Copies out the label values.
    pub fn snapshot(&self) -> Vec<u32> {
        self.labels.iter().map(|l| l.load(Ordering::Relaxed)).collect()
    }

    /// Number of distinct sets (counts roots). O(n); intended for tests
    /// and statistics.
    pub fn count_sets(&self) -> usize {
        self.labels
            .iter()
            .enumerate()
            .filter(|(i, l)| l.load(Ordering::Relaxed) == *i as u32)
            .count()
    }
}

impl std::fmt::Debug for AtomicLabels {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AtomicLabels").field("len", &self.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdbscan_device::DeviceConfig;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn singletons_at_construction() {
        let uf = AtomicLabels::new(5);
        assert_eq!(uf.len(), 5);
        assert_eq!(uf.count_sets(), 5);
        for i in 0..5 {
            assert_eq!(uf.find(i), i);
        }
    }

    #[test]
    fn union_merges_and_reports() {
        let uf = AtomicLabels::new(4);
        assert!(uf.union(0, 1));
        assert!(!uf.union(0, 1), "second union of same pair is a no-op");
        assert!(uf.union(2, 3));
        assert!(uf.union(1, 3));
        assert_eq!(uf.count_sets(), 1);
        assert!(uf.same_set(0, 2));
    }

    #[test]
    fn representative_is_smallest_after_flatten() {
        let device = Device::new(DeviceConfig::default().with_workers(2));
        let uf = AtomicLabels::new(6);
        uf.union(5, 3);
        uf.union(3, 4);
        uf.union(1, 2);
        uf.flatten(&device).unwrap();
        let labels = uf.snapshot();
        assert_eq!(labels[3], 3);
        assert_eq!(labels[4], 3);
        assert_eq!(labels[5], 3);
        assert_eq!(labels[1], 1);
        assert_eq!(labels[2], 1);
        assert_eq!(labels[0], 0);
    }

    #[test]
    fn flatten_makes_labels_roots() {
        let device = Device::new(DeviceConfig::default().with_workers(2));
        let n = 10_000;
        let uf = AtomicLabels::new(n);
        // A long chain: 0-1, 1-2, 2-3, ...
        for i in 0..(n as u32 - 1) {
            uf.union(i, i + 1);
        }
        uf.flatten(&device).unwrap();
        let labels = uf.snapshot();
        assert!(labels.iter().all(|&l| l == 0));
    }

    #[test]
    fn flatten_is_idempotent() {
        let device = Device::new(DeviceConfig::default().with_workers(2));
        let uf = AtomicLabels::new(100);
        for i in 0..50 {
            uf.union(i, i + 50);
        }
        uf.flatten(&device).unwrap();
        let first = uf.snapshot();
        uf.flatten(&device).unwrap();
        assert_eq!(first, uf.snapshot());
    }

    #[test]
    fn union_replay_is_idempotent_and_order_independent() {
        // `union` hooks the larger root under the smaller, so every root
        // is its set's smallest member: any permutation or replay of one
        // edge multiset canonicalizes to bit-identical labels.
        let absorb = |uf: &AtomicLabels, edges: &[(u32, u32)]| {
            edges.iter().filter(|&&(a, b)| uf.union(a, b)).count()
        };
        let device = Device::new(DeviceConfig::default().with_workers(2));
        let edges = vec![(4u32, 7u32), (1, 2), (7, 1), (9, 8), (3, 3)];
        let forward = AtomicLabels::new(10);
        assert_eq!(absorb(&forward, &edges), 4, "(3,3) merges nothing");

        // Reversed order + a full replay of the log: same partition,
        // and — after canonicalization — bit-identical labels.
        let reversed = AtomicLabels::new(10);
        let mut rev = edges.clone();
        rev.reverse();
        absorb(&reversed, &rev);
        assert_eq!(absorb(&reversed, &edges), 0, "replay is idempotent");
        assert_eq!(forward.canonicalize(), reversed.canonicalize());

        // The host-side canonical form agrees with the device flatten.
        forward.flatten(&device).unwrap();
        assert_eq!(forward.snapshot(), reversed.canonicalize());
    }

    #[test]
    fn canonicalize_does_not_mutate() {
        let uf = AtomicLabels::new(5);
        uf.union(4, 0);
        let before = uf.snapshot();
        let canon = uf.canonicalize();
        assert_eq!(uf.snapshot(), before, "canonicalize must be read-only");
        assert_eq!(canon[4], 0);
        assert_eq!(canon[0], 0);
    }

    #[test]
    fn try_claim_succeeds_once() {
        let uf = AtomicLabels::new(3);
        assert!(uf.try_claim(2, 0));
        assert!(!uf.try_claim(2, 1), "a claimed element cannot be re-claimed");
        assert_eq!(uf.find(2), 0);
    }

    #[test]
    fn try_claim_fails_on_non_singleton() {
        let uf = AtomicLabels::new(3);
        uf.union(1, 2); // 2's label now points at 1
        assert!(!uf.try_claim(2, 0));
    }

    #[test]
    fn counters_record_operations() {
        let counters = Arc::new(Counters::default());
        let uf = AtomicLabels::with_counters(10, Arc::clone(&counters));
        uf.union(0, 1);
        uf.find(1);
        uf.try_claim(5, 0);
        let snap = counters.snapshot();
        assert_eq!(snap.unions, 1);
        assert_eq!(snap.finds, 1);
        assert_eq!(snap.label_cas, 1);
    }

    #[test]
    fn hook_singletons_leaves_the_parents_and_count_of_the_union_loop() {
        // Three groups of fresh singletons, each listed in ascending
        // order under its smallest member, as a dense cell's are.
        let groups: [&[u32]; 3] = [&[0, 3, 4, 9], &[2, 5], &[6, 7, 8, 11, 12]];
        let hooked_counters = Arc::new(Counters::default());
        let unioned_counters = Arc::new(Counters::default());
        let hooked = AtomicLabels::with_counters(14, Arc::clone(&hooked_counters));
        let unioned = AtomicLabels::with_counters(14, Arc::clone(&unioned_counters));
        for group in groups {
            hooked.hook_singletons(group[0], &group[1..]);
            for &m in &group[1..] {
                unioned.union(group[0], m);
            }
        }
        assert_eq!(hooked.snapshot(), unioned.snapshot());
        assert_eq!(hooked_counters.snapshot(), unioned_counters.snapshot());
        assert_eq!(hooked_counters.snapshot().unions, 8);
        assert_eq!(hooked.count_sets(), 14 - 8);
    }

    #[test]
    fn snapshot_restore_preserves_sets() {
        let uf = AtomicLabels::new(8);
        uf.union(0, 3);
        uf.union(3, 5);
        uf.union(6, 7);
        let restored = AtomicLabels::from_labels(uf.snapshot());
        assert_eq!(restored.len(), 8);
        for i in 0..8u32 {
            for j in 0..8u32 {
                assert_eq!(uf.same_set(i, j), restored.same_set(i, j), "pair ({i},{j})");
            }
        }
    }

    #[test]
    fn concurrent_unions_match_sequential_dsu() {
        let device = Device::new(DeviceConfig::default().with_workers(4).with_block_size(32));
        let n = 5_000u32;
        let mut rng = StdRng::seed_from_u64(42);
        let edges: Vec<(u32, u32)> =
            (0..20_000).map(|_| (rng.gen_range(0..n), rng.gen_range(0..n))).collect();

        let uf = AtomicLabels::new(n as usize);
        let edges_ref = &edges;
        let uf_ref = &uf;
        device.launch(edges.len(), |e| {
            let (a, b) = edges_ref[e];
            uf_ref.union(a, b);
        });
        uf.flatten(&device).unwrap();

        let mut dsu = SequentialDsu::new(n as usize);
        for &(a, b) in &edges {
            dsu.union(a, b);
        }
        for a in 0..n {
            for b in [a.wrapping_add(1) % n, a.wrapping_add(17) % n] {
                assert_eq!(
                    uf.same_set(a, b),
                    dsu.same_set(a, b),
                    "disagreement for pair ({a}, {b})"
                );
            }
        }
    }

    #[test]
    fn concurrent_chain_collapses_to_one_set() {
        // Worst case for hooking: every thread unions (i, i+1).
        let device = Device::new(DeviceConfig::default().with_workers(4).with_block_size(16));
        let n = 10_000;
        let uf = AtomicLabels::new(n);
        let uf_ref = &uf;
        device.launch(n - 1, |i| {
            uf_ref.union(i as u32, i as u32 + 1);
        });
        uf.flatten(&device).unwrap();
        assert_eq!(uf.count_sets(), 1);
        assert!(uf.snapshot().iter().all(|&l| l == 0));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn atomic_and_sequential_agree(
            n in 1usize..200,
            edges in proptest::collection::vec((0usize..200, 0usize..200), 0..400)
        ) {
            let edges: Vec<(u32, u32)> = edges
                .into_iter()
                .map(|(a, b)| ((a % n) as u32, (b % n) as u32))
                .collect();
            let uf = AtomicLabels::new(n);
            let mut dsu = SequentialDsu::new(n);
            for &(a, b) in &edges {
                uf.union(a, b);
                dsu.union(a, b);
            }
            for a in 0..n as u32 {
                for b in 0..n as u32 {
                    prop_assert_eq!(uf.same_set(a, b), dsu.same_set(a, b));
                }
            }
        }
    }
}
