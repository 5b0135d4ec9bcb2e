//! Shared pieces of the parallel disjoint-set framework (paper §3.2).
//!
//! Both tree-based algorithms — and any future instantiation of
//! Algorithm 3 — share these ingredients: a concurrent core-point flag
//! array with its exactly-once lazy decision ([`LazyCore`]), the
//! per-pair resolution rule (union vs. atomic border claim), and the
//! finalization step (flatten + relabel).
//!
//! The two fused main kernels (FDBSCAN's and FDBSCAN-DenseBox's) also
//! share how a point's core status is counted on the tree:
//!
//! * the thread whose leaf holds an undecided point claims it and counts
//!   its neighbours inside its own masked search (`search_claimed`), so
//!   the suffix after the leaf is walked once, and the prefix before it
//!   only while the count is short of `minpts` and the prefix may still
//!   hold a neighbour (FDBSCAN knows it holds none once every thread
//!   before the leaf has finished);
//! * a point some other thread needs before its own thread got to it is
//!   counted by an early-terminating walk outward from its leaf
//!   (`count_around`).
//!
//! Both are parameterised by how a hit weighs in the count (a point is
//! one neighbour; a dense cell holds as many as its members within
//! `eps`) and how the pair it makes resolves (`Claimant`).

use std::cell::Cell;
use std::hash::{Hash, Hasher};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU32, AtomicU8, Ordering};

use fdbscan_bvh::{Bvh, Leaf, QueryStats};
use fdbscan_device::{Device, DeviceError};
use fdbscan_geom::Point;
use fdbscan_unionfind::AtomicLabels;

use crate::labels::Clustering;

/// A concurrent bitset of core-point flags.
///
/// Kernels set flags with relaxed atomic OR — idempotent, so racing
/// setters are fine — and read them with relaxed loads. Cross-phase
/// visibility comes from the launch barrier.
pub struct CoreFlags {
    words: Vec<AtomicU32>,
    len: usize,
}

impl CoreFlags {
    /// Creates `n` cleared flags.
    pub fn new(n: usize) -> Self {
        Self { words: (0..n.div_ceil(32)).map(|_| AtomicU32::new(0)).collect(), len: n }
    }

    /// Builds a flag set from plain flags.
    pub fn from_flags(flags: &[bool]) -> Self {
        let set = Self::new(flags.len());
        for (i, &f) in flags.iter().enumerate() {
            if f {
                set.set(i as u32);
            }
        }
        set
    }

    /// Number of flags.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Marks point `i` as a core point.
    #[inline]
    pub fn set(&self, i: u32) {
        let i = i as usize;
        debug_assert!(i < self.len);
        self.words[i / 32].fetch_or(1 << (i % 32), Ordering::Relaxed);
    }

    /// Whether point `i` is marked core.
    #[inline]
    pub fn get(&self, i: u32) -> bool {
        let i = i as usize;
        debug_assert!(i < self.len);
        self.words[i / 32].load(Ordering::Relaxed) & (1 << (i % 32)) != 0
    }

    /// Number of set flags.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.load(Ordering::Relaxed).count_ones() as usize).sum()
    }

    /// Copies the flags into a `Vec<bool>`.
    pub fn to_vec(&self) -> Vec<bool> {
        (0..self.len as u32).map(|i| self.get(i)).collect()
    }
}

/// A relaxed copy of the words: the flags as set when the copy is taken.
impl Clone for CoreFlags {
    fn clone(&self) -> Self {
        Self {
            words: self.words.iter().map(|w| AtomicU32::new(w.load(Ordering::Relaxed))).collect(),
            len: self.len,
        }
    }
}

/// Hashes what a clone copies: the length and a relaxed load of each
/// word (bits past `len` are never set).
impl Hash for CoreFlags {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.len.hash(state);
        for word in &self.words {
            word.load(Ordering::Relaxed).hash(state);
        }
    }
}

/// Lazy, exactly-once core-point determination for the fused
/// neighbor-count + pair-resolution kernel.
///
/// The fused main phase no longer has a completed preprocessing phase to
/// read definitive core flags from, and racing half-written flags would
/// be incorrect: [`resolve_pair`] drops a pair when *neither* endpoint
/// looks core yet. Instead every point carries a tri-state — unknown,
/// claimed, decided — driven by two calls:
///
/// * [`LazyCore::claim`] returns the decision if there is one, waits for
///   it if another thread holds the claim, and otherwise makes the
///   caller the claimant,
/// * [`LazyCore::decide`] is the claimant's one publication: the
///   [`CoreFlags`] bit first, then the decision.
///
/// [`LazyCore::ensure`] is the two back to back around a counting
/// traversal. The main kernels also claim a thread's own point directly,
/// so that it can count the neighbours its masked search finds and
/// publish the decision mid-walk (`search_claimed`). A waiter spins on an active worker
/// inside the same launch, and a claimant never waits on another point
/// before it decides (on a sequential device a claim is always decided
/// within the same kernel item), so the wait is bounded.
///
/// Exactly-once evaluation keeps each point's decision single-valued:
/// every point is claimed once, regardless of how many pairs touch it or
/// which thread gets there first.
pub struct LazyCore {
    state: Vec<AtomicU8>,
}

const CORE_UNKNOWN: u8 = 0;
const CORE_CLAIMED: u8 = 1;
const CORE_DECIDED_NO: u8 = 2;
const CORE_DECIDED_YES: u8 = 3;

impl LazyCore {
    /// `n` undecided points.
    pub fn new(n: usize) -> Self {
        Self { state: (0..n).map(|_| AtomicU8::new(CORE_UNKNOWN)).collect() }
    }

    /// All points pre-decided from restored flags (checkpoint resume or
    /// the resilient ladder's salvaged-core-flag handoff): `claim` then
    /// never makes a claimant.
    pub fn from_decided(flags: &[bool]) -> Self {
        Self {
            state: flags
                .iter()
                .map(|&f| AtomicU8::new(if f { CORE_DECIDED_YES } else { CORE_DECIDED_NO }))
                .collect(),
        }
    }

    /// Returns `Some(is_core)` once point `i` is decided — at once, or
    /// after waiting for another thread's claim to be decided — and
    /// `None` when the caller has won the claim: it must then call
    /// [`LazyCore::decide`] for `i`, and must not wait on any other
    /// point's claim before it does.
    #[inline]
    pub fn claim(&self, i: u32) -> Option<bool> {
        let slot = &self.state[i as usize];
        let s = slot.load(Ordering::Acquire);
        if s >= CORE_DECIDED_NO {
            return Some(s == CORE_DECIDED_YES);
        }
        if slot
            .compare_exchange(CORE_UNKNOWN, CORE_CLAIMED, Ordering::Acquire, Ordering::Acquire)
            .is_ok()
        {
            return None;
        }
        loop {
            let s = slot.load(Ordering::Acquire);
            if s >= CORE_DECIDED_NO {
                return Some(s == CORE_DECIDED_YES);
            }
            std::hint::spin_loop();
        }
    }

    /// Publishes the claimant's decision for point `i`: a positive one to
    /// `core` *before* the decision state, so any thread that observes
    /// "decided" also observes the flag [`resolve_pair`] reads.
    #[inline]
    pub fn decide(&self, core: &CoreFlags, i: u32, is_core: bool) {
        let slot = &self.state[i as usize];
        debug_assert_eq!(slot.load(Ordering::Relaxed), CORE_CLAIMED, "point {i} is not claimed");
        if is_core {
            core.set(i);
        }
        slot.store(if is_core { CORE_DECIDED_YES } else { CORE_DECIDED_NO }, Ordering::Release);
    }

    /// Returns whether point `i` is core, computing it via `count` (which
    /// must return the definitive core decision for `i`) if no thread has
    /// claimed it yet.
    #[inline]
    pub fn ensure<F>(&self, core: &CoreFlags, i: u32, count: F) -> bool
    where
        F: FnOnce() -> bool,
    {
        self.claim(i).unwrap_or_else(|| {
            let is_core = count();
            self.decide(core, i, is_core);
            is_core
        })
    }
}

/// A main kernel's hooks into [`search_claimed`]: how a hit of the
/// claimant's walks weighs in its point's neighbour count, and how the
/// pair it makes resolves.
pub(crate) trait Claimant {
    /// How many neighbours of the query point the leaf with `payload`
    /// holds (`contained` as the walk reports it), counted no further than
    /// `need`, and the partner the pair resolves with: `None` when nothing
    /// in the leaf is within `eps`.
    fn weigh(&mut self, payload: u32, contained: bool, need: usize) -> (usize, Option<u32>);

    /// Resolves the pair with `partner` that leaf `hit` made before the
    /// query point was decided.
    fn resolve_held(&mut self, hit: u32, partner: u32);

    /// Resolves leaf `hit`, found by the masked search once the query
    /// point is decided.
    fn resolve(&mut self, hit: u32, payload: u32, contained: bool);
}

thread_local! {
    /// The (leaf, partner) pairs [`search_claimed`] holds until its point
    /// is decided. One buffer per thread, reused: holding allocates only
    /// while the buffer grows to the most hits a thread has held.
    static HELD: Cell<Vec<(u32, u32)>> = const { Cell::new(Vec::new()) };
}

/// Thread `pos`'s masked search ([`Bvh::for_each_after`]) while it holds
/// the claim on its own point `q` ([`LazyCore::claim`]): the search also
/// counts the point's neighbours, so the suffix after the leaf is walked
/// once.
///
/// The count starts at 1 (the point itself) and adds each suffix hit's
/// [`Claimant::weigh`]. If the suffix ends short of `minpts`, the count
/// goes on through the prefix ([`Bvh::for_each_before`]), stopping at
/// `minpts`, unless `prefix_may_hit` is false: the caller knows that no
/// leaf before `pos` is within `eps` of `q`, so the short count is final
/// and the point is not core. `decide` publishes the decision the moment
/// it is known. The pairs found before then are held and resolved in
/// order right after it ([`Claimant::resolve_held`]), later hits at once
/// ([`Claimant::resolve`]): the pairs resolve in the plain masked
/// search's order, and the thread never waits on another point while its
/// own is undecided.
///
/// Returns the suffix walk's statistics and the prefix walk's (empty when
/// there was none).
#[allow(clippy::too_many_arguments)]
pub(crate) fn search_claimed<const D: usize, L: Leaf<D>>(
    bvh: &Bvh<D, L>,
    pos: u32,
    q: &Point<D>,
    eps: f32,
    minpts: usize,
    prefix_may_hit: bool,
    decide: impl Fn(bool),
    claimant: &mut impl Claimant,
) -> (QueryStats, QueryStats) {
    let mut held = HELD.take();
    held.clear();
    let mut count = 1usize;
    let mut decided = count >= minpts;
    if decided {
        decide(true);
    }
    let suffix = bvh.for_each_after(pos, q, eps, |hit, payload, contained| {
        if decided {
            claimant.resolve(hit, payload, contained);
        } else {
            let (weight, partner) = claimant.weigh(payload, contained, minpts - count);
            count += weight;
            held.extend(partner.map(|partner| (hit, partner)));
            if count >= minpts {
                decided = true;
                decide(true);
                for &(hit, partner) in &held {
                    claimant.resolve_held(hit, partner);
                }
            }
        }
        ControlFlow::Continue(())
    });
    let mut prefix = QueryStats::default();
    if !decided {
        if prefix_may_hit {
            prefix = bvh.for_each_before(pos, q, eps, |_, payload, contained| {
                count += claimant.weigh(payload, contained, minpts - count).0;
                if count >= minpts {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            });
        }
        decide(count >= minpts);
        for &(hit, partner) in &held {
            claimant.resolve_held(hit, partner);
        }
    }
    HELD.set(held);
    (suffix, prefix)
}

/// Counts the neighbours of the point at leaf `pos` for a thread that
/// needs its core status before the point's own thread decided it: a walk
/// outward from the leaf ([`Bvh::for_each_around`]), centred on the leaf
/// itself and nearest subtrees first, that stops once the count reaches
/// `stop` (`usize::MAX` counts them all). `weigh(payload, contained,
/// need)` is how many neighbours one hit holds, counted no further than
/// `need`. Returns the count and the walk's statistics.
pub(crate) fn count_around<const D: usize, L: Leaf<D>>(
    bvh: &Bvh<D, L>,
    pos: u32,
    eps: f32,
    stop: usize,
    mut weigh: impl FnMut(u32, bool, usize) -> usize,
) -> (usize, QueryStats) {
    let mut count = 0usize;
    let stats = bvh.for_each_around(pos, bvh.leaf(pos), eps, |_, payload, contained| {
        count += weigh(payload, contained, stop - count);
        if count >= stop {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    });
    (count, stats)
}

/// Resolves one discovered close pair `(x, y)` according to Algorithm 3
/// (lines 6–12):
///
/// * both core → `Union(x, y)`,
/// * one core → the non-core point is claimed for the core point's
///   cluster by a single CAS (first cluster wins; no bridging),
/// * neither core → nothing.
///
/// Symmetric and idempotent: processing `(x, y)` once, twice, or as
/// `(y, x)` yields the same clustering.
#[inline]
pub fn resolve_pair(labels: &AtomicLabels, core: &CoreFlags, x: u32, y: u32) {
    match (core.get(x), core.get(y)) {
        (true, true) => {
            labels.union(x, y);
        }
        (true, false) => {
            let root = labels.find(x);
            labels.try_claim(y, root);
        }
        (false, true) => {
            let root = labels.find(y);
            labels.try_claim(x, root);
        }
        (false, false) => {}
    }
}

/// [`resolve_pair`] under DBSCAN* semantics (see [`crate::star`]): only
/// core–core pairs act; there are no border claims.
#[inline]
pub fn resolve_pair_star(labels: &AtomicLabels, core: &CoreFlags, x: u32, y: u32) {
    if core.get(x) && core.get(y) {
        labels.union(x, y);
    }
}

/// How a kernel resolves a discovered close pair: the one dispatch every
/// union-find main phase shares.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PairRule {
    /// `minpts == 2` (Algorithm 3, line 2): any matched pair proves both
    /// endpoints core, so mark both and union them.
    Connect,
    /// [`resolve_pair`]: union cores, claim borders.
    Classic,
    /// [`resolve_pair_star`]: DBSCAN* semantics, no border claims.
    Star,
}

impl PairRule {
    /// The rule for a run whose core flags are decided per pair (lazily,
    /// or not at all for `minpts == 2`).
    pub fn of(minpts: usize, star: bool) -> Self {
        match (minpts, star) {
            (2, _) => PairRule::Connect,
            (_, true) => PairRule::Star,
            _ => PairRule::Classic,
        }
    }

    /// Resolves the close pair `(x, y)`.
    #[inline]
    pub fn resolve(self, labels: &AtomicLabels, core: &CoreFlags, x: u32, y: u32) {
        match self {
            PairRule::Connect => {
                core.set(x);
                core.set(y);
                labels.union(x, y);
            }
            PairRule::Classic => resolve_pair(labels, core, x, y),
            PairRule::Star => resolve_pair_star(labels, core, x, y),
        }
    }
}

/// Finalization (paper §4): flatten all union-find paths with a batched
/// kernel, then relabel into compact cluster ids.
///
/// # Errors
/// Propagates [`DeviceError`] from the flatten launch.
pub fn finalize(
    device: &Device,
    labels: &AtomicLabels,
    core: &CoreFlags,
) -> Result<Clustering, DeviceError> {
    labels.flatten(device)?;
    let flat = labels.snapshot();
    let core_vec = core.to_vec();
    Ok(Clustering::from_union_find(&flat, &core_vec))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labels::PointClass;

    #[test]
    fn core_flags_set_get() {
        let flags = CoreFlags::new(100);
        assert_eq!(flags.count(), 0);
        flags.set(0);
        flags.set(31);
        flags.set(32);
        flags.set(99);
        assert!(flags.get(0) && flags.get(31) && flags.get(32) && flags.get(99));
        assert!(!flags.get(1) && !flags.get(98));
        assert_eq!(flags.count(), 4);
    }

    #[test]
    fn core_flags_idempotent() {
        let flags = CoreFlags::new(8);
        flags.set(3);
        flags.set(3);
        assert_eq!(flags.count(), 1);
    }

    #[test]
    fn core_flags_concurrent_sets() {
        let flags = CoreFlags::new(1024);
        std::thread::scope(|s| {
            for t in 0..4 {
                let flags = &flags;
                s.spawn(move || {
                    for i in (t..1024).step_by(4) {
                        flags.set(i as u32);
                    }
                });
            }
        });
        assert_eq!(flags.count(), 1024);
    }

    #[test]
    fn lazy_core_counts_exactly_once_and_publishes_flag() {
        let lazy = LazyCore::new(4);
        let core = CoreFlags::new(4);
        let mut calls = 0;
        assert!(lazy.ensure(&core, 2, || {
            calls += 1;
            true
        }));
        // Second ask must reuse the decision, not recount.
        assert!(lazy.ensure(&core, 2, || {
            calls += 1;
            false
        }));
        assert_eq!(calls, 1);
        assert!(core.get(2));
        assert!(!lazy.ensure(&core, 0, || false));
        assert!(!core.get(0));
    }

    #[test]
    fn lazy_core_from_decided_never_counts() {
        let lazy = LazyCore::from_decided(&[true, false]);
        let core = CoreFlags::from_flags(&[true, false]);
        assert!(lazy.ensure(&core, 0, || unreachable!("pre-decided point recounted")));
        assert!(!lazy.ensure(&core, 1, || unreachable!("pre-decided point recounted")));
    }

    #[test]
    fn lazy_core_concurrent_single_winner() {
        use std::sync::atomic::AtomicUsize;
        let lazy = LazyCore::new(1);
        let core = CoreFlags::new(1);
        let calls = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    assert!(lazy.ensure(&core, 0, || {
                        calls.fetch_add(1, Ordering::Relaxed);
                        true
                    }));
                });
            }
        });
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        assert!(core.get(0));
    }

    #[test]
    fn claim_makes_one_claimant_and_decide_publishes() {
        let lazy = LazyCore::new(3);
        let core = CoreFlags::new(3);
        assert_eq!(lazy.claim(1), None, "the first claim wins");
        lazy.decide(&core, 1, true);
        assert!(core.get(1));
        assert_eq!(lazy.claim(1), Some(true), "a decided point is never claimed again");
        assert_eq!(lazy.claim(2), None);
        lazy.decide(&core, 2, false);
        assert!(!core.get(2));
        assert_eq!(lazy.claim(2), Some(false));
        // `ensure` reads a decision `decide` published.
        assert!(lazy.ensure(&core, 1, || unreachable!("decided point recounted")));
        // And `claim` reads one `ensure` made.
        assert!(!lazy.ensure(&core, 0, || false));
        assert_eq!(lazy.claim(0), Some(false));
        assert_eq!(LazyCore::from_decided(&[true]).claim(0), Some(true));
    }

    #[test]
    fn claim_concurrent_single_winner_publishes_to_every_waiter() {
        // One claimant among eight racing threads; the others wait and
        // all read its decision, flag included, once it lands.
        use std::sync::atomic::AtomicUsize;
        for round in 0..20u32 {
            let is_core = round % 2 == 0;
            let lazy = LazyCore::new(1);
            let core = CoreFlags::new(1);
            let winners = AtomicUsize::new(0);
            let start = std::sync::Barrier::new(8);
            std::thread::scope(|s| {
                for _ in 0..8 {
                    s.spawn(|| {
                        start.wait();
                        match lazy.claim(0) {
                            None => {
                                winners.fetch_add(1, Ordering::Relaxed);
                                lazy.decide(&core, 0, is_core);
                            }
                            Some(seen) => {
                                assert_eq!(seen, is_core);
                                assert_eq!(core.get(0), is_core, "flag published with decision");
                            }
                        }
                    });
                }
            });
            assert_eq!(winners.load(Ordering::Relaxed), 1);
            assert_eq!(core.get(0), is_core);
        }
    }

    #[test]
    fn resolve_pair_union_of_cores() {
        let labels = AtomicLabels::new(4);
        let core = CoreFlags::new(4);
        core.set(0);
        core.set(1);
        resolve_pair(&labels, &core, 0, 1);
        assert!(labels.same_set(0, 1));
    }

    #[test]
    fn resolve_pair_border_claim_is_single() {
        let labels = AtomicLabels::new(3);
        let core = CoreFlags::new(3);
        core.set(0);
        core.set(1);
        // 2 is non-core; claimed by 0's cluster first, then 1 tries.
        resolve_pair(&labels, &core, 0, 2);
        resolve_pair(&labels, &core, 1, 2);
        // 2 belongs to 0's cluster; 0 and 1 stay separate (no bridging).
        assert_eq!(labels.find(2), labels.find(0));
        assert!(!labels.same_set(0, 1));
    }

    #[test]
    fn resolve_pair_neither_core_is_noop() {
        let labels = AtomicLabels::new(2);
        let core = CoreFlags::new(2);
        resolve_pair(&labels, &core, 0, 1);
        assert!(!labels.same_set(0, 1));
        assert_eq!(labels.find(0), 0);
        assert_eq!(labels.find(1), 1);
    }

    #[test]
    fn resolve_pair_symmetric() {
        let labels = AtomicLabels::new(2);
        let core = CoreFlags::new(2);
        core.set(1);
        resolve_pair(&labels, &core, 0, 1); // non-core first argument
        assert_eq!(labels.find(0), 1);
    }

    #[test]
    fn pair_rules_dispatch() {
        assert_eq!(PairRule::of(2, true), PairRule::Connect);
        assert_eq!(PairRule::of(5, true), PairRule::Star);
        assert_eq!(PairRule::of(1, false), PairRule::Classic);
        // Connect proves both endpoints core; Star never claims borders.
        let labels = AtomicLabels::new(4);
        let core = CoreFlags::new(4);
        PairRule::Connect.resolve(&labels, &core, 0, 1);
        assert!(core.get(0) && core.get(1) && labels.same_set(0, 1));
        PairRule::Star.resolve(&labels, &core, 0, 2);
        assert!(!labels.same_set(0, 2));
        PairRule::Classic.resolve(&labels, &core, 0, 2);
        assert!(labels.same_set(0, 2));
    }

    #[test]
    fn finalize_produces_clustering() {
        let device = Device::with_defaults();
        let labels = AtomicLabels::new(5);
        let core = CoreFlags::new(5);
        core.set(0);
        core.set(1);
        labels.union(0, 1);
        // 2 is a border of the cluster; 3, 4 noise.
        labels.try_claim(2, labels.find(0));
        let clustering = finalize(&device, &labels, &core).unwrap();
        assert_eq!(clustering.num_clusters, 1);
        assert_eq!(clustering.assignments[0], clustering.assignments[1]);
        assert_eq!(clustering.assignments[2], clustering.assignments[0]);
        assert_eq!(clustering.classes[2], PointClass::Border);
        assert_eq!(clustering.assignments[3], crate::NOISE);
        assert_eq!(clustering.assignments[4], crate::NOISE);
    }
}
