//! FDBSCAN: fused tree traversal + union-find (paper §4.1).
//!
//! Phases (each a batched device kernel, no host round-trips between
//! them):
//!
//! 1. **index** — build a linear BVH over the points,
//! 2. **main** — one kernel fusing core determination with pair
//!    resolution, launched in tree order: thread `pos` takes the point
//!    at sorted leaf `pos`, so consecutive threads query neighbouring
//!    parts of the tree. Each thread runs the *index-masked* traversal
//!    (cutoff = `pos + 1`, Fig. 1) so each close pair is discovered
//!    exactly once — as a walk of the tree after its own leaf,
//!    [`Bvh::for_each_after`] — resolving it per Algorithm 3 (union for
//!    core–core, CAS border claim otherwise). Core status is decided on
//!    first demand, exactly once per point no matter how many pairs
//!    touch it ([`crate::framework::LazyCore`]). A thread that claims its
//!    own undecided point counts the point's neighbours in that same
//!    search. Every pair a search finds decides its partner, so once
//!    every thread before leaf `pos` has finished, a point still
//!    unclaimed there has no neighbour before its leaf, and its suffix
//!    count is final. Only a claimant that started before its
//!    predecessors were known to have finished walks the prefix before
//!    its leaf ([`Bvh::for_each_before`]), and only while its count is
//!    short of `minpts`; on an in-order engine none does. A partner
//!    nobody has decided yet is counted by an early-terminating walk
//!    outward from its own leaf ([`Bvh::for_each_around`]).
//!    `minpts <= 2` needs no counting at all (Algorithm 3 line 2): with
//!    `minpts == 2` any matched pair proves both endpoints core, and
//!    with `minpts == 1` every point is core. The kernel is
//!    [`main_fused`]; [`crate::MinptsSweep`] and the distributed ranks
//!    launch it too, with core flags they computed before
//!    ([`Cores::Exact`]).
//! 3. **finalization** — flatten the union-find and relabel.
//!
//! The separate preprocessing kernel of the unfused formulation is gone —
//! one traversal launch instead of two. The `preprocess` phase launches
//! nothing: it only seeds the lazy core state from core flags the
//! resilient ladder handed down, and its counters are zero because the
//! counting work is attributed to the main phase where it now happens.

use std::ops::ControlFlow;
use std::sync::atomic::{AtomicUsize, Ordering};

use fdbscan_bvh::Bvh;
use fdbscan_device::{Device, DeviceError, Hot, PipelineCheckpoint};
use fdbscan_geom::Point;
use fdbscan_unionfind::AtomicLabels;

use crate::checkpoint::{self, LabelState, PHASE_FINALIZE, PHASE_INDEX, PHASE_MAIN};
use crate::framework::{
    count_around, finalize, search_claimed, Claimant, CoreFlags, LazyCore, PairRule,
};
use crate::labels::Clustering;
use crate::pipeline::{CallerIndex, Pipeline};
use crate::stats::RunStats;
use crate::Params;

/// Checkpoint algorithm tag of [`fdbscan`] runs.
pub const FDBSCAN_ALGORITHM: &str = "fdbscan";

/// Ablation switches for [`fdbscan_with`] — each disables one of the
/// paper's traversal optimizations so its contribution can be measured
/// (the `ablations` bench).
#[derive(Clone, Copy, Debug)]
pub struct FdbscanOptions {
    /// §4.1's index-masked traversal: process each close pair once. When
    /// disabled, the main phase runs unmasked traversals (each pair seen
    /// from both endpoints) and relies on the idempotence of the
    /// resolution rule.
    pub masked_traversal: bool,
    /// §3.2's early-terminated core counting: stop at `minpts`. When
    /// disabled, preprocessing counts the full neighborhood (the paper
    /// notes this is preferable only when sweeping several `minpts`
    /// values over one dataset).
    pub early_termination: bool,
    /// DBSCAN* semantics (see [`crate::star`]): drop border claims, so
    /// every non-core point is noise.
    pub star: bool,
}

impl Default for FdbscanOptions {
    fn default() -> Self {
        Self { masked_traversal: true, early_termination: true, star: false }
    }
}

/// Runs FDBSCAN over `points`.
///
/// Fails only if the device memory budget cannot hold the search index
/// and label arrays (both linear in `n` — the memory guarantee of the
/// two-phase framework, §3.2).
pub fn fdbscan<const D: usize>(
    device: &Device,
    points: &[Point<D>],
    params: Params,
) -> Result<(Clustering, RunStats), DeviceError> {
    fdbscan_with(device, points, params, FdbscanOptions::default())
}

/// [`fdbscan`] with explicit ablation options.
pub fn fdbscan_with<const D: usize>(
    device: &Device,
    points: &[Point<D>],
    params: Params,
    options: FdbscanOptions,
) -> Result<(Clustering, RunStats), DeviceError> {
    fdbscan_core(device, points, params, options, None, None)
}

/// [`fdbscan_with`], resuming from (and recording into) a checkpoint.
///
/// Phases already recorded in `ckpt` are restored instead of
/// re-executed; each phase that does run records its output into `ckpt`
/// the moment it completes, so on a kernel fault the caller's
/// checkpoint retains every phase finished before the fault. A
/// checkpoint whose algorithm or input fingerprint does not match this
/// run (see [`crate::checkpoint_for`]) is reset to empty first.
pub fn fdbscan_run_from<const D: usize>(
    device: &Device,
    points: &[Point<D>],
    params: Params,
    options: FdbscanOptions,
    ckpt: &mut PipelineCheckpoint,
) -> Result<(Clustering, RunStats), DeviceError> {
    checkpoint::prepare(ckpt, FDBSCAN_ALGORITHM, points, params);
    fdbscan_core(device, points, params, options, Some(ckpt), None)
}

/// FDBSCAN on a checkpoint made for this input, if any, after index work
/// the caller did, if any.
pub(crate) fn fdbscan_core<const D: usize>(
    device: &Device,
    points: &[Point<D>],
    params: Params,
    options: FdbscanOptions,
    ckpt: Option<&mut PipelineCheckpoint>,
    caller: Option<CallerIndex>,
) -> Result<(Clustering, RunStats), DeviceError> {
    let mut run = Pipeline::start(device, FDBSCAN_ALGORITHM, points, ckpt, caller)?;
    let n = points.len();
    let Params { eps, minpts } = params;

    // Device-resident data: the points themselves + label + flag arrays.
    let _points_mem = device.memory().reserve_array::<Point<D>>(n)?;
    let _labels_mem = device.memory().reserve_array::<u32>(n)?;
    let _flags_mem = device.memory().reserve(n.div_ceil(8))?;

    // Phase 1: search index.
    let bvh = run.phase(PHASE_INDEX, || point_bvh(device, points))?;
    let _bvh_mem = device.memory().reserve(bvh.memory_bytes())?;

    // Phase 2: preprocessing, fused into the main kernel.
    let (core, lazy) = run.lazy_core(n);

    // Phase 3: main (core counting + masked traversal fused with
    // union-find, one launch).
    let state = run.phase(PHASE_MAIN, || {
        let labels = AtomicLabels::with_counters(n, device.counters_arc());
        let cores = Cores::Lazy { flags: &core, lazy: &lazy, minpts };
        main_fused(device, &bvh, eps, cores, options, &labels)?;
        Ok(LabelState { labels, core })
    })?;

    // Phase 4: finalization.
    let clustering = run.phase(PHASE_FINALIZE, || finalize(device, &state.labels, &state.core))?;
    Ok((clustering, run.finish()))
}

/// Builds the BVH over `points`, the tree [`main_fused`] walks: leaf
/// `pos` holds a point, in tree order, and its payload is the point's id.
///
/// # Errors
/// Propagates [`DeviceError`] from [`Bvh::build_in`].
pub fn point_bvh<const D: usize>(
    device: &Device,
    points: &[Point<D>],
) -> Result<Bvh<D, Point<D>>, DeviceError> {
    Bvh::build_in(device, points)
}

/// Where [`main_fused`] reads a point's core status.
#[derive(Clone, Copy)]
pub enum Cores<'a> {
    /// Flags complete before the launch: a [`crate::MinptsSweep`]'s
    /// counts, or a distributed rank's core pass. Pairs resolve from the
    /// flags, even at `minpts <= 2`.
    Exact(&'a CoreFlags),
    /// FDBSCAN's fused preprocessing: a point's status is decided on
    /// first demand, exactly once ([`LazyCore::ensure`]), by counting its
    /// neighbours up to `minpts`, and published to `flags`.
    Lazy {
        /// The flags decisions are published to.
        flags: &'a CoreFlags,
        /// Each point's decision state.
        lazy: &'a LazyCore,
        /// The core threshold (`|N_eps(x)| >= minpts`).
        minpts: usize,
    },
}

/// FDBSCAN's main kernel, `fdbscan.main_fused` (Algorithm 3): one launch
/// in tree order over `bvh`, a tree of points ([`point_bvh`]). Thread
/// `pos` reads the point at sorted leaf `pos` from the leaf and runs the
/// index-masked search ([`Bvh::for_each_after`]), which finds each close
/// pair exactly once. Where `cores` is lazy, a thread that wins the
/// claim on its own point counts the point's neighbours in that search
/// and publishes its core status mid-walk; a point some other thread
/// already claimed is decided before the search starts. A claimant whose
/// suffix leaves the count short walks the prefix before its leaf only
/// if, when it started, the threads before it were not all known to
/// have finished (`FinishedPrefix`): every thread's search decides each
/// partner it finds, so the points after a finished prefix that are
/// still unclaimed have no neighbour in it. Each pair is
/// resolved into `labels`: a union for core–core, a CAS border claim
/// otherwise, and no claim under DBSCAN* (`options.star`). `labels` and
/// the core flags are indexed by point id.
///
/// Without `options.masked_traversal` the query walks the whole
/// neighbourhood ([`Bvh::for_each_around`], minus the point itself), so
/// each pair is resolved from both ends; without
/// `options.early_termination` a lazy count enumerates the whole
/// neighbourhood. Both ablations decide the point's core status by a
/// separate count before the search.
///
/// # Errors
/// Propagates [`DeviceError`] from the launch.
pub fn main_fused<const D: usize>(
    device: &Device,
    bvh: &Bvh<D, Point<D>>,
    eps: f32,
    cores: Cores<'_>,
    options: FdbscanOptions,
    labels: &AtomicLabels,
) -> Result<(), DeviceError> {
    let counters = device.counters();
    let masked = options.masked_traversal;
    let early = options.early_termination;
    let (core, rule, lazy) = match cores {
        Cores::Exact(flags) => {
            (flags, if options.star { PairRule::Star } else { PairRule::Classic }, None)
        }
        Cores::Lazy { flags, lazy, minpts } => {
            let rule = PairRule::of(minpts, options.star);
            // `Connect` marks cores per pair instead of counting.
            (flags, rule, (rule != PairRule::Connect).then_some((lazy, minpts)))
        }
    };
    // Decides the core status of point `p` at leaf `pos` on first
    // demand (exactly once per point, whichever thread asks first).
    let ensure_core = |p: u32, pos: u32| {
        let Some((lazy, minpts)) = lazy else { return };
        lazy.ensure(core, p, || match minpts {
            0 => unreachable!("Params::new validates minpts >= 1"),
            // Every point is trivially core (its neighborhood contains
            // itself).
            1 => true,
            _ => {
                let stop = if early { minpts } else { usize::MAX };
                let (count, stats) = count_around(bvh, pos, eps, stop, |_, _, _| 1);
                stats.charge(counters);
                count >= minpts
            }
        });
    };
    let finished = FinishedPrefix::new();
    device.try_launch_named("fdbscan.main_fused", bvh.len(), |pos| {
        // Read before the claim: if every thread before `pos` has
        // finished, each decided every partner its search found, so an
        // unclaimed point here has no neighbour before its leaf.
        let prefix_may_hit = !finished.all_before(pos);
        let pos = pos as u32;
        let i = bvh.leaf_payload(pos);
        let q = bvh.leaf(pos);
        let resolve = |j_pos: u32, j: u32| {
            ensure_core(j, j_pos);
            rule.resolve(labels, core, i, j);
        };
        let stats = match lazy {
            // This thread won the claim on its point (no earlier thread
            // has asked): the masked search counts its neighbours, so
            // the suffix is walked once.
            Some((lazy, minpts)) if masked && early && lazy.claim(i).is_none() => {
                let decide = |is_core| lazy.decide(core, i, is_core);
                let mut hits = PointHits(resolve);
                let (suffix, prefix) =
                    search_claimed(bvh, pos, q, eps, minpts, prefix_may_hit, decide, &mut hits);
                prefix.charge(counters);
                suffix
            }
            _ => {
                ensure_core(i, pos);
                // The masked search walks only the tree after the point's
                // own leaf (cutoff `pos + 1`, so each close pair once).
                if masked {
                    bvh.for_each_after(pos, q, eps, |j_pos, j, _| {
                        resolve(j_pos, j);
                        ControlFlow::Continue(())
                    })
                } else {
                    bvh.for_each_around(pos, q, eps, |j_pos, j, _| {
                        if j_pos != pos {
                            resolve(j_pos, j);
                        }
                        ControlFlow::Continue(())
                    })
                }
            }
        };
        stats.charge(counters);
        counters.add(Hot::Neighbors, stats.leaf_hits);
        finished.finish(pos as usize);
    })
}

/// How many leading threads of one [`main_fused`] launch are known to
/// have finished: thread `pos` reads `pos` here when every thread before
/// it has.
///
/// Only the thread whose index equals the count moves it, so one writer
/// at a time needs no read-modify-write. A thread that finishes while
/// some thread before it has not leaves the count where it is, and the
/// count then stays below it for the rest of the launch: on a parallel
/// engine it stops at the first out-of-order finish, and the claimants
/// after it walk their prefix. The store is `Release` and both loads
/// `Acquire`, so each finished thread's work happens before the next
/// one's store, and a thread that reads `pos` sees the work of every
/// thread before it.
struct FinishedPrefix(AtomicUsize);

impl FinishedPrefix {
    fn new() -> Self {
        Self(AtomicUsize::new(0))
    }

    /// Whether every thread before `pos` is known to have finished.
    fn all_before(&self, pos: usize) -> bool {
        self.0.load(Ordering::Acquire) == pos
    }

    /// Thread `pos` has finished: counts it if every thread before it has.
    fn finish(&self, pos: usize) {
        if self.all_before(pos) {
            self.0.store(pos + 1, Ordering::Release);
        }
    }
}

/// FDBSCAN's [`Claimant`]: every leaf is a point, so a hit is one
/// neighbour and its own partner, and the pair resolves through `.0(leaf,
/// point)`.
struct PointHits<F>(F);

impl<F: FnMut(u32, u32)> Claimant for PointHits<F> {
    fn weigh(&mut self, payload: u32, _: bool, _: usize) -> (usize, Option<u32>) {
        (1, Some(payload))
    }

    fn resolve_held(&mut self, hit: u32, partner: u32) {
        (self.0)(hit, partner);
    }

    fn resolve(&mut self, hit: u32, payload: u32, _: bool) {
        (self.0)(hit, payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labels::{assert_core_equivalent, PointClass, NOISE};
    use crate::seq::{dbscan_canonical, dbscan_classic};
    use crate::verify::assert_valid_clustering;
    use fdbscan_device::DeviceConfig;
    use fdbscan_geom::Point2;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn device() -> Device {
        Device::new(DeviceConfig::default().with_workers(2).with_block_size(64))
    }

    fn random_points(n: usize, extent: f32, seed: u64) -> Vec<Point2> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point2::new([rng.gen_range(0.0..extent), rng.gen_range(0.0..extent)]))
            .collect()
    }

    #[test]
    fn repeated_runs_release_index_scratch() {
        // Every run leaves nothing reserved, and repeats reach the same
        // peak: the resident arrays plus the larger of the tree and its
        // build scratch.
        let device = device();
        let points = random_points(3000, 5.0, 77);
        let params = Params::new(0.2, 4);
        for _ in 0..3 {
            let (_, stats) = fdbscan(&device, &points, params).unwrap();
            assert_eq!(device.memory().in_use(), 0);
            assert_eq!(
                stats.peak_memory_bytes,
                crate::resilient::estimate_fdbscan_bytes::<2>(points.len())
            );
        }
    }

    #[test]
    fn empty_input() {
        let (c, _) = fdbscan::<2>(&device(), &[], Params::new(1.0, 3)).unwrap();
        assert!(c.is_empty());
        assert_eq!(c.num_clusters, 0);
    }

    #[test]
    fn single_point_is_noise_unless_minpts_1() {
        let points = [Point2::new([1.0, 1.0])];
        let (c, _) = fdbscan(&device(), &points, Params::new(1.0, 2)).unwrap();
        assert_eq!(c.assignments, vec![NOISE]);
        let (c, _) = fdbscan(&device(), &points, Params::new(1.0, 1)).unwrap();
        assert_eq!(c.assignments, vec![0]);
        assert_eq!(c.classes[0], PointClass::Core);
    }

    #[test]
    fn two_blobs_and_outlier() {
        let mut points = Vec::new();
        for i in 0..12 {
            points.push(Point2::new([0.05 * (i % 4) as f32, 0.05 * (i / 4) as f32]));
            points.push(Point2::new([3.0 + 0.05 * (i % 4) as f32, 0.05 * (i / 4) as f32]));
        }
        points.push(Point2::new([50.0, 50.0]));
        let params = Params::new(0.2, 4);
        let (c, stats) = fdbscan(&device(), &points, params).unwrap();
        assert_eq!(c.num_clusters, 2);
        assert_eq!(c.num_noise(), 1);
        assert_valid_clustering(&points, &c, params);
        assert!(stats.counters.unions > 0);
        assert!(stats.peak_memory_bytes > 0);
    }

    #[test]
    fn matches_oracle_on_random_data() {
        for (seed, eps, minpts) in
            [(1u64, 0.3f32, 4usize), (2, 0.5, 3), (3, 0.2, 6), (4, 1.0, 10), (5, 0.15, 2)]
        {
            let points = random_points(400, 6.0, seed);
            let params = Params::new(eps, minpts);
            let oracle = dbscan_classic(&points, params);
            let (got, _) = fdbscan(&device(), &points, params).unwrap();
            assert_core_equivalent(&oracle, &got);
            assert_valid_clustering(&points, &got, params);
        }
    }

    #[test]
    fn minpts_2_is_connected_components() {
        let points: Vec<Point2> = (0..30).map(|i| Point2::new([i as f32 * 0.9, 0.0])).collect();
        let params = Params::new(1.0, 2);
        let (c, _) = fdbscan(&device(), &points, params).unwrap();
        assert_eq!(c.num_clusters, 1);
        assert!(c.classes.iter().all(|cl| *cl == PointClass::Core));
        assert_valid_clustering(&points, &c, params);
    }

    #[test]
    fn fused_main_adds_no_preprocessing_launches() {
        // Core counting rides inside the main kernel, so every minpts
        // value launches the same kernels: index-build + main + flatten.
        let d = device();
        let points = random_points(200, 3.0, 9);
        let (_, stats1) = fdbscan(&d, &points, Params::new(0.3, 1)).unwrap();
        let (_, stats2) = fdbscan(&d, &points, Params::new(0.3, 2)).unwrap();
        let (_, stats3) = fdbscan(&d, &points, Params::new(0.3, 3)).unwrap();
        assert_eq!(stats3.counters.kernel_launches, stats2.counters.kernel_launches);
        assert_eq!(stats3.counters.kernel_launches, stats1.counters.kernel_launches);
        assert_eq!(
            stats3.phase_counters.preprocess.kernel_launches, 0,
            "preprocess phase must launch nothing"
        );
        assert!(
            stats3.phase_counters.main.distance_computations > 0,
            "fused core counting charges the main phase"
        );
    }

    #[test]
    fn phase_counters_partition_run_counters() {
        let points = random_points(400, 5.0, 21);
        let (_, stats) = fdbscan(&device(), &points, Params::new(0.3, 5)).unwrap();
        let pc = &stats.phase_counters;
        // Phase deltas must sum to the run-inclusive delta.
        assert_eq!(
            pc.index.kernel_launches
                + pc.preprocess.kernel_launches
                + pc.main.kernel_launches
                + pc.finalize.kernel_launches,
            stats.counters.kernel_launches
        );
        assert_eq!(
            pc.index.distance_computations
                + pc.preprocess.distance_computations
                + pc.main.distance_computations
                + pc.finalize.distance_computations,
            stats.counters.distance_computations
        );
        // And land where the algorithm does the work.
        assert!(pc.index.kernel_launches > 0, "BVH build launches kernels");
        assert_eq!(pc.index.distance_computations, 0, "index phase computes no distances");
        assert_eq!(pc.preprocess.kernel_launches, 0, "preprocessing is fused into main");
        assert_eq!(pc.preprocess.distance_computations, 0, "preprocessing is fused into main");
        assert!(pc.main.distance_computations > 0, "fused core counting measures distances");
        assert!(pc.main.unions > 0, "unions happen in the main phase");
        assert_eq!(pc.main.unions, stats.counters.unions);
        assert!(pc.finalize.kernel_launches > 0, "finalize launches the flatten kernel");
    }

    #[test]
    fn all_duplicates() {
        let points = vec![Point2::new([2.0, 2.0]); 64];
        let params = Params::new(0.5, 10);
        let (c, _) = fdbscan(&device(), &points, params).unwrap();
        assert_eq!(c.num_clusters, 1);
        assert_eq!(c.num_core(), 64);
        assert_valid_clustering(&points, &c, params);
    }

    #[test]
    fn minpts_exceeding_n_yields_all_noise() {
        let points = random_points(20, 1.0, 7);
        let (c, _) = fdbscan(&device(), &points, Params::new(0.5, 100)).unwrap();
        assert_eq!(c.num_clusters, 0);
        assert_eq!(c.num_noise(), 20);
    }

    #[test]
    fn oom_when_budget_too_small() {
        let tiny = Device::new(DeviceConfig::default().with_memory_budget(64));
        let points = random_points(1000, 5.0, 3);
        let err = fdbscan(&tiny, &points, Params::new(0.3, 4)).unwrap_err();
        assert!(matches!(err, DeviceError::OutOfMemory { .. }));
    }

    #[test]
    fn deterministic_clustering_across_runs() {
        // Cluster *membership* must be identical across runs even though
        // internal union order varies with thread scheduling.
        let points = random_points(600, 5.0, 12);
        let params = Params::new(0.25, 4);
        let (first, _) = fdbscan(&device(), &points, params).unwrap();
        for _ in 0..3 {
            let (again, _) = fdbscan(&device(), &points, params).unwrap();
            assert_core_equivalent(&first, &again);
        }
    }

    #[test]
    fn sequential_device_gives_same_result() {
        let points = random_points(300, 4.0, 15);
        let params = Params::new(0.3, 5);
        let seq_device = Device::new(DeviceConfig::sequential());
        let (a, _) = fdbscan(&seq_device, &points, params).unwrap();
        let (b, _) = fdbscan(&device(), &points, params).unwrap();
        assert_core_equivalent(&a, &b);
    }

    #[test]
    fn ablation_variants_match_default() {
        let points = random_points(500, 5.0, 33);
        let params = Params::new(0.3, 6);
        let d = device();
        let (reference, ref_stats) = fdbscan(&d, &points, params).unwrap();
        for (masked, early) in [(false, true), (true, false), (false, false)] {
            let options = FdbscanOptions {
                masked_traversal: masked,
                early_termination: early,
                ..Default::default()
            };
            let (c, stats) = fdbscan_with(&d, &points, params, options).unwrap();
            assert_core_equivalent(&reference, &c);
            if !masked {
                // Unmasked traversal must do strictly more distance work.
                assert!(
                    stats.counters.distance_computations > ref_stats.counters.distance_computations,
                    "mask ablation should increase work"
                );
            }
        }
    }

    #[test]
    fn early_termination_reduces_core_counting_work() {
        // Dense data with |N| >> minpts: the counting traversal stopping
        // at minpts must save a lot of node visits and distance tests.
        // (Spread-out random points rather than pure duplicates: the
        // containment fast path answers a duplicate pile with zero
        // distance tests in both variants, which would hide the effect.)
        let points = random_points(2000, 4.0, 31);
        let params = Params::new(1.0, 4);
        let d = device();
        let (_, with_et) = fdbscan(&d, &points, params).unwrap();
        let (_, without_et) = fdbscan_with(
            &d,
            &points,
            params,
            FdbscanOptions {
                masked_traversal: true,
                early_termination: false,
                ..Default::default()
            },
        )
        .unwrap();
        // Both runs share the index build and the masked pair traversal;
        // the counting difference (stop after 4 hits vs. enumerate the
        // full ~390-point neighborhood) must still show clearly in the
        // totals.
        let work = |s: &RunStats| s.counters.bvh_nodes_visited + s.counters.distance_computations;
        assert!(
            work(&with_et) * 5 < work(&without_et) * 4,
            "early termination must cut core-counting work ({} vs {})",
            work(&with_et),
            work(&without_et)
        );
    }

    /// A lattice spaced wider than `eps = 0.5`: no point has a neighbour.
    fn isolated_lattice() -> Vec<Point<3>> {
        let mut points = Vec::new();
        for x in 0..8 {
            for y in 0..8 {
                for z in 0..8 {
                    points.push(Point::new([x as f32, y as f32, z as f32]));
                }
            }
        }
        points
    }

    /// The node tests of every leaf's suffix walk and of its prefix walk,
    /// each summed over the leaves of `points`' tree.
    fn suffix_and_prefix_nodes(d: &Device, points: &[Point<3>], eps: f32) -> (u64, u64) {
        let bvh = point_bvh(d, points).unwrap();
        let go = |_, _, _| ControlFlow::Continue(());
        (0..bvh.len() as u32).fold((0, 0), |(after, before), pos| {
            let q = bvh.leaf(pos);
            (
                after + bvh.for_each_after(pos, q, eps, go).nodes_visited,
                before + bvh.for_each_before(pos, q, eps, go).nodes_visited,
            )
        })
    }

    #[test]
    fn isolated_points_walk_each_suffix_once() {
        // No point has a neighbour, so every thread claims its own point
        // and walks its suffix once (searching and counting). On the
        // sequential device every thread before it has finished by then,
        // and none found the point, so no prefix holds a neighbour and
        // no thread walks one.
        let points = isolated_lattice();
        let (eps, minpts) = (0.5, 5);
        let d = Device::new(DeviceConfig::sequential());
        let (c, stats) = fdbscan(&d, &points, Params::new(eps, minpts)).unwrap();
        assert_eq!(c.num_noise(), points.len());
        let (suffix, _) = suffix_and_prefix_nodes(&d, &points, eps);
        assert_eq!(stats.phase_counters.main.bvh_nodes_visited, suffix);
        assert_eq!(stats.phase_counters.main.distance_computations, 0);
    }

    #[test]
    fn isolated_points_on_four_workers_fall_back_to_prefix_walks() {
        // The same lattice on four workers, one index per block: a thread
        // that starts while a thread before it is unfinished walks its
        // prefix too, so the main phase tests at least every suffix and
        // at most every suffix and prefix.
        let points = isolated_lattice();
        let (eps, minpts) = (0.5, 5);
        let d = Device::new(DeviceConfig::default().with_workers(4).with_block_size(1));
        let (suffix, prefix) = suffix_and_prefix_nodes(&d, &points, eps);
        for _ in 0..3 {
            let (c, stats) = fdbscan(&d, &points, Params::new(eps, minpts)).unwrap();
            assert_eq!(c.num_noise(), points.len());
            let nodes = stats.phase_counters.main.bvh_nodes_visited;
            assert!(
                (suffix..=suffix + prefix).contains(&nodes),
                "{nodes} node tests, outside {suffix}..={}",
                suffix + prefix
            );
            assert_eq!(stats.phase_counters.main.distance_computations, 0);
        }
    }

    /// Every schedule of `n` threads' start and finish events: each thread
    /// appears twice, first starting, then finishing.
    fn each_schedule(events: &mut Vec<usize>, left: &mut [u8], visit: &mut impl FnMut(&[usize])) {
        if left.iter().all(|&l| l == 0) {
            visit(events);
        }
        for t in 0..left.len() {
            if left[t] > 0 {
                left[t] -= 1;
                events.push(t);
                each_schedule(events, left, visit);
                events.pop();
                left[t] += 1;
            }
        }
    }

    #[test]
    fn finished_prefix_never_reports_an_unfinished_thread() {
        // In order, every thread sees all threads before it finished.
        let finished = FinishedPrefix::new();
        for pos in 0..100 {
            assert!(finished.all_before(pos), "in-order thread {pos} not counted");
            finished.finish(pos);
        }
        // Every interleaving of four threads' starts and finishes (2,520).
        let n = 4;
        let mut schedules = 0;
        each_schedule(&mut Vec::new(), &mut vec![2; n], &mut |events| {
            schedules += 1;
            let finished = FinishedPrefix::new();
            let (mut started, mut done, mut finish_order) =
                (vec![false; n], vec![false; n], vec![]);
            for &t in events {
                if !started[t] {
                    started[t] = true;
                    assert!(
                        !finished.all_before(t) || done[..t].iter().all(|&d| d),
                        "thread {t} sees every thread before it finished in {events:?}"
                    );
                } else {
                    finished.finish(t);
                    done[t] = true;
                    finish_order.push(t);
                }
            }
            // Finishes in index order count every thread, whatever the
            // starts did.
            if finish_order.windows(2).all(|w| w[0] < w[1]) {
                assert!(finished.all_before(n), "in-order finishes uncounted in {events:?}");
            }
        });
        assert_eq!(schedules, 2520);
    }

    #[test]
    fn claimants_holding_dozens_of_hits_match_oracle() {
        // At minpts 40 a point that opens a blob in tree order holds more
        // than 16 suffix hits before it is decided, so the held buffer
        // grows mid-walk.
        let points = fdbscan_data::blobs::<3>(1000, 6, 0.4, 20.0, 0.2, 41);
        let params = Params::new(0.6, 40);
        let d = Device::new(DeviceConfig::sequential());
        let bvh = point_bvh(&d, &points).unwrap();
        let go = |_, _, _| ControlFlow::Continue(());
        let holds_many = (0..bvh.len() as u32).any(|pos| {
            let q = &points[bvh.leaf_payload(pos) as usize];
            bvh.for_each_before(pos, q, params.eps, go).leaf_hits == 0
                && bvh.for_each_after(pos, q, params.eps, go).leaf_hits > 16
        });
        assert!(holds_many, "no claimant holds more than 16 hits");
        let oracle = dbscan_canonical(&points, params);
        assert!(oracle.num_clusters > 0 && oracle.num_noise() > 0);
        for d in [d, device()] {
            let (got, _) = fdbscan(&d, &points, params).unwrap();
            assert_core_equivalent(&oracle, &got);
            assert_valid_clustering(&points, &got, params);
        }
    }

    #[test]
    fn claimants_publishing_mid_walk_agree_with_oracle_on_four_workers() {
        // Threads that wait on a point while its claimant is still
        // walking must read the claimant's decision, at every minpts.
        let d = Device::new(DeviceConfig::default().with_workers(4).with_block_size(32));
        for seed in [1u64, 2] {
            let points = fdbscan_data::blobs::<3>(1000, 8, 0.4, 20.0, 0.2, seed);
            for minpts in [3usize, 5, 40] {
                let params = Params::new(0.6, minpts);
                let oracle = dbscan_canonical(&points, params);
                for _ in 0..3 {
                    let (got, _) = fdbscan(&d, &points, params).unwrap();
                    assert_core_equivalent(&oracle, &got);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        #[test]
        fn fdbscan_always_matches_oracle(
            seed in any::<u64>(),
            n in 1usize..250,
            eps in 0.05f32..1.5,
            minpts in 1usize..10,
        ) {
            let points = random_points(n, 5.0, seed);
            let params = Params::new(eps, minpts);
            let oracle = dbscan_classic(&points, params);
            let (got, _) = fdbscan(&device(), &points, params).unwrap();
            assert_core_equivalent(&oracle, &got);
            assert_valid_clustering(&points, &got, params);
        }
    }
}
