//! Checkpoint plumbing shared by every algorithm's `run_from` entry
//! point.
//!
//! The paper's phase structure (build index → determine cores → cluster
//! cores → cluster borders, §3) gives every algorithm the same natural
//! resume points. This module defines the canonical phase names, the
//! composite phase artifacts that are not single library types (mixed
//! grid+BVH index, label state, CSR graph, chain state), the input
//! fingerprint that guards a checkpoint against being resumed on
//! different data, and the [`fdbscan_device::RunManifest`] assembly used
//! by the chaos tests and `examples/replay_run.rs`.
//!
//! Resume contract, shared by all `run_from` entry points:
//!
//! * a phase records a frozen copy of its artifact the moment it
//!   completes; if a later phase faults, the caller's checkpoint retains
//!   everything completed,
//! * on entry, each phase first tries to restore its artifact (a clone
//!   of the recorded value) and only runs its kernels when there is none
//!   of the right type,
//! * an algorithm or fingerprint mismatch resets the checkpoint: stale
//!   state is discarded, never resumed.
//!
//! Every artifact is a plain value: `Clone` freezes it into the
//! checkpoint and `Hash` gives the manifest its phase content hash.

use std::hash::{Hash, Hasher};

use fdbscan_device::snapshot::Fnv1a;
use fdbscan_device::{Device, PipelineCheckpoint, RunManifest};
use fdbscan_geom::Point;
use fdbscan_unionfind::AtomicLabels;

use crate::framework::CoreFlags;
use crate::Params;

/// Phase name: search-index construction (BVH / grid / CSR graph).
pub const PHASE_INDEX: &str = "index";
/// Phase name: core determination.
pub const PHASE_PREPROCESS: &str = "preprocess";
/// Phase name: core clustering (union-find / BFS / chains).
pub const PHASE_MAIN: &str = "main";
/// Phase name: finalization (flatten + relabel / border attachment).
pub const PHASE_FINALIZE: &str = "finalize";
/// Extra checkpoint entry: core flags recorded mid-index by G-DBSCAN
/// (before its OOM-prone edge-list reservation) and consumed by the
/// resilient ladder when stepping down to a tree-based rung.
pub const PHASE_CORE_FLAGS: &str = "core_flags";

/// Core flags as captured at the end of the preprocessing phase.
///
/// This is the one artifact that transfers *across* algorithms: core
/// status depends only on `(points, eps, minpts)`, so the resilient
/// ladder hands it from a failed rung to the next one (see
/// [`crate::resilient`]).
#[derive(Clone, Hash)]
pub struct CoreSnapshot(pub CoreFlags);

/// Union-find state + core flags at the end of the main phase, held
/// live so the phase hands its artifact on without copying. Core flags
/// are captured again because the main phase can extend them (lazy
/// marking under `minpts <= 2`, dense-cell unions).
pub struct LabelState {
    /// Union-find parent of every point (not necessarily flattened).
    pub labels: AtomicLabels,
    /// Core flag of every point.
    pub core: CoreFlags,
}

/// A frozen copy: the parents as they are now, without the original's
/// work counters. Finalization flattens the live labels in place, so a
/// checkpoint must never share them.
impl Clone for LabelState {
    fn clone(&self) -> Self {
        Self { labels: AtomicLabels::from_labels(self.labels.snapshot()), core: self.core.clone() }
    }
}

/// Hashes what a clone freezes: the parents as they are now and the
/// core flags.
impl Hash for LabelState {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (self.labels.snapshot(), &self.core).hash(state);
    }
}

/// FDBSCAN-DenseBox's index phase output: the dense-cell grid and the
/// BVH over the mixed primitive set. The mixed primitive *references*
/// are not stored — they are a deterministic O(n) host-side function of
/// `(grid, points)` and are recomputed on restore.
#[derive(Clone, Debug, Hash)]
pub struct DenseIndex<const D: usize> {
    /// The dense-cell grid.
    pub grid: fdbscan_grid::DenseGrid<D>,
    /// BVH over the mixed primitives (`grid.mixed_primitives(points)`).
    pub bvh: fdbscan_bvh::Bvh<D>,
}

/// G-DBSCAN's index phase output: the CSR adjacency graph plus the core
/// flags derived from the degree pass (computed *before* the edge-list
/// reservation, so they survive the OOM that kills G-DBSCAN at scale).
#[derive(Clone, Debug, PartialEq, Hash)]
pub struct CsrGraph {
    /// CSR segment offsets (`len = n + 1`).
    pub offsets: Vec<u64>,
    /// Concatenated neighbor lists.
    pub adjacency: Vec<u32>,
    /// Core flag of every point.
    pub core: Vec<bool>,
}

/// G-DBSCAN's main phase output: per-point cluster labels (`u32::MAX`
/// for unlabeled) and the number of clusters the BFS discovered.
#[derive(Clone, Debug, PartialEq, Hash)]
pub struct BfsLabels {
    /// Cluster id per point, `u32::MAX` when unlabeled.
    pub labels: Vec<u32>,
    /// Number of clusters discovered.
    pub num_clusters: u32,
}

/// CUDA-DClust's main phase output: the chain id of every point
/// (`u32::MAX` for unchained), the resolved chain → cluster map, and
/// the cluster count.
#[derive(Clone, Debug, PartialEq, Hash)]
pub struct ChainState {
    /// Chain id per point, `u32::MAX` when unchained.
    pub chain_of: Vec<u32>,
    /// Cluster id per chain, after collision resolution.
    pub cluster_of_chain: Vec<u32>,
    /// Number of clusters after collision resolution.
    pub num_clusters: u32,
}

/// FNV-1a hash ([`Fnv1a`]) of the run input: dimensionality, `eps`
/// (raw bits), `minpts` and the point coordinates (raw bits). Two runs
/// share a fingerprint exactly when a checkpoint of one is resumable by
/// the other (modulo the algorithm name, which the checkpoint carries
/// separately). Only the checks that need an input identity compute it:
/// [`checkpoint_for`], the `*_run_from` entry points and
/// [`build_manifest`].
pub fn run_fingerprint<const D: usize>(points: &[Point<D>], params: Params) -> u64 {
    let mut hash = Fnv1a::default();
    (D, params.eps.to_bits(), params.minpts, points).hash(&mut hash);
    hash.finish()
}

/// Creates an empty checkpoint for `algorithm` over this input — the
/// way callers obtain a checkpoint whose identity matches what the
/// `run_from` entry points expect.
pub fn checkpoint_for<const D: usize>(
    algorithm: &str,
    points: &[Point<D>],
    params: Params,
) -> PipelineCheckpoint {
    PipelineCheckpoint::for_input(algorithm, run_fingerprint(points, params))
}

/// Validates a caller-provided checkpoint against this run's identity.
/// On algorithm or fingerprint mismatch, or a checkpoint without one,
/// the checkpoint is reset to empty — stale phase outputs must never
/// leak into a different run.
pub(crate) fn prepare<const D: usize>(
    ckpt: &mut PipelineCheckpoint,
    algorithm: &str,
    points: &[Point<D>],
    params: Params,
) {
    let fingerprint = run_fingerprint(points, params);
    if ckpt.algorithm() != algorithm || ckpt.fingerprint() != Some(fingerprint) {
        *ckpt = PipelineCheckpoint::for_input(algorithm, fingerprint);
    }
}

/// Assembles the replay manifest of a (possibly failed) run: everything
/// `examples/replay_run.rs` needs to re-execute it, including the
/// content hash of every phase the run completed.
pub fn build_manifest<const D: usize>(
    run_id: &str,
    algorithm: &str,
    points: &[Point<D>],
    params: Params,
    data_seed: u64,
    device: &Device,
    ckpt: &PipelineCheckpoint,
) -> RunManifest {
    RunManifest {
        run_id: run_id.to_string(),
        algorithm: algorithm.to_string(),
        dims: D as u64,
        n: points.len() as u64,
        eps_bits: params.eps.to_bits(),
        minpts: params.minpts as u64,
        data_seed,
        fingerprint: run_fingerprint(points, params),
        workers: device.workers(),
        block_size: device.block_size(),
        fault_plan: device.fault_plan().cloned(),
        phase_hashes: ckpt.phase_hashes(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::cudadclust::CUDA_DCLUST_ALGORITHM;
    use crate::baselines::gdbscan::GDBSCAN_ALGORITHM;
    use crate::baselines::{cuda_dclust_run_from, gdbscan_run_from};
    use crate::densebox::DENSEBOX_ALGORITHM;
    use crate::fdbscan_impl::FDBSCAN_ALGORITHM;
    use crate::labels::{assert_core_equivalent, Clustering, PointClass};
    use crate::seq::dbscan_canonical;
    use crate::stats::RunStats;
    use crate::{fdbscan_densebox_run_from, fdbscan_run_from};
    use fdbscan_device::{Checkpointable, DeviceConfig, DeviceError};
    use fdbscan_geom::Point2;

    #[test]
    fn fingerprint_is_input_sensitive() {
        let points = vec![Point2::new([0.0, 1.0]), Point2::new([2.0, 3.0])];
        let params = Params::new(0.5, 4);
        let base = run_fingerprint(&points, params);
        assert_eq!(base, run_fingerprint(&points, params), "deterministic");
        assert_ne!(base, run_fingerprint(&points, Params::new(0.5, 5)), "minpts");
        assert_ne!(base, run_fingerprint(&points, Params::new(0.6, 4)), "eps");
        let mut moved = points.clone();
        moved[1] = Point2::new([2.0, 3.0001]);
        assert_ne!(base, run_fingerprint(&moved, params), "coords");
        assert_ne!(base, run_fingerprint(&points[..1], params), "n");
    }

    #[test]
    fn prepare_resets_on_mismatch_and_keeps_on_match() {
        let points = vec![Point2::new([0.0, 0.0])];
        let params = Params::new(1.0, 2);
        let mut ckpt = checkpoint_for("fdbscan", &points, params);
        ckpt.record(PHASE_PREPROCESS, &CoreSnapshot(CoreFlags::from_flags(&[true])));
        // Matching identity: phases survive.
        prepare(&mut ckpt, "fdbscan", &points, params);
        assert!(ckpt.has_phase(PHASE_PREPROCESS));
        // Wrong algorithm: reset.
        prepare(&mut ckpt, "densebox", &points, params);
        assert!(ckpt.is_empty());
        assert_eq!(ckpt.algorithm(), "densebox");
        // Wrong input: reset.
        ckpt.record(PHASE_PREPROCESS, &CoreSnapshot(CoreFlags::from_flags(&[true])));
        prepare(&mut ckpt, "densebox", &points, Params::new(2.0, 2));
        assert!(ckpt.is_empty());
        // No input identity (a ladder rung's): reset, then bound to this input.
        let mut ckpt = PipelineCheckpoint::new("densebox");
        ckpt.record(PHASE_PREPROCESS, &CoreSnapshot(CoreFlags::from_flags(&[true])));
        prepare(&mut ckpt, "densebox", &points, params);
        assert!(ckpt.is_empty());
        assert_eq!(ckpt.fingerprint(), Some(run_fingerprint(&points, params)));
    }

    type RunFrom = fn(
        &Device,
        &[Point2],
        Params,
        &mut PipelineCheckpoint,
    ) -> Result<(Clustering, RunStats), DeviceError>;

    /// Every public `*_run_from` entry point, with its algorithm tag.
    fn entry_points() -> [(&'static str, RunFrom); 4] {
        [
            (FDBSCAN_ALGORITHM, |d, p, params, c| {
                fdbscan_run_from(d, p, params, Default::default(), c)
            }),
            (DENSEBOX_ALGORITHM, |d, p, params, c| {
                fdbscan_densebox_run_from(d, p, params, Default::default(), c)
            }),
            (GDBSCAN_ALGORITHM, gdbscan_run_from),
            (CUDA_DCLUST_ALGORITHM, |d, p, params, c| {
                cuda_dclust_run_from(d, p, params, Default::default(), c)
            }),
        ]
    }

    #[test]
    fn run_from_entry_points_reset_a_checkpoint_of_another_input() {
        let device = Device::new(DeviceConfig::sequential());
        let points = fdbscan_data::blobs::<2>(300, 3, 0.3, 10.0, 0.2, 5);
        let other = fdbscan_data::blobs::<2>(200, 4, 0.3, 10.0, 0.2, 6);
        let params = Params::new(0.4, 4);
        let oracle = dbscan_canonical(&points, params);
        for (algorithm, run_from) in entry_points() {
            // A finished run's checkpoint: resumed, it would hand back the
            // other input's clustering without running anything.
            let mut ckpt = checkpoint_for(algorithm, &other, params);
            run_from(&device, &other, params, &mut ckpt).unwrap();
            assert!(ckpt.has_phase(PHASE_FINALIZE), "{algorithm}");
            let (got, _) = run_from(&device, &points, params, &mut ckpt).unwrap();
            assert_eq!(ckpt.fingerprint(), Some(run_fingerprint(&points, params)), "{algorithm}");
            assert_core_equivalent(&oracle, &got);
        }
    }

    #[test]
    fn identical_runs_record_identical_phase_hashes() {
        // Every phase output type, computed twice from scratch: the BVH,
        // DenseBox's grid and tree, the grid alone, the CSR graph, core
        // flags, label state, BFS labels, chains and the clustering.
        let points = fdbscan_data::blobs::<2>(300, 3, 0.3, 10.0, 0.2, 5);
        let params = Params::new(0.4, 4);
        for (algorithm, run_from) in entry_points() {
            let hashes = || {
                let mut ckpt = checkpoint_for(algorithm, &points, params);
                let device = Device::new(DeviceConfig::sequential());
                run_from(&device, &points, params, &mut ckpt).unwrap();
                ckpt.phase_hashes()
            };
            let first = hashes();
            assert!(first.len() >= 3, "{algorithm}: {first:?}");
            assert_eq!(first, hashes(), "{algorithm}");
        }
    }

    /// The phase hash of `value`, recorded alone.
    fn hash_of<T: Checkpointable>(value: &T) -> u64 {
        let mut ckpt = PipelineCheckpoint::new("test");
        ckpt.record(PHASE_MAIN, value);
        ckpt.phase_hash(PHASE_MAIN).unwrap()
    }

    /// Asserts that `value` hashes like its clone, and unlike a clone
    /// that `change` altered.
    fn assert_hash_sees<T: Checkpointable>(value: &T, what: &str, change: impl FnOnce(&mut T)) {
        let mut changed = value.clone();
        assert_eq!(hash_of(&changed), hash_of(value), "{what}: a clone hashes equal");
        change(&mut changed);
        assert_ne!(hash_of(&changed), hash_of(value), "{what}");
    }

    #[test]
    fn one_changed_element_changes_the_phase_hash() {
        let graph = CsrGraph {
            offsets: vec![0, 2, 3, 3],
            adjacency: vec![1, 2, 0],
            core: vec![true, false, false],
        };
        assert_hash_sees(&graph, "graph offset", |g| g.offsets[2] = 2);
        assert_hash_sees(&graph, "graph neighbour", |g| g.adjacency[2] = 1);
        assert_hash_sees(&graph, "graph core flag", |g| g.core[1] = true);
        let bfs = BfsLabels { labels: vec![0, 0, u32::MAX, 1], num_clusters: 2 };
        assert_hash_sees(&bfs, "BFS label", |b| b.labels[2] = 1);
        assert_hash_sees(&bfs, "BFS cluster count", |b| b.num_clusters = 3);
        let chains = ChainState {
            chain_of: vec![0, 1, u32::MAX],
            cluster_of_chain: vec![0, 0],
            num_clusters: 1,
        };
        assert_hash_sees(&chains, "chain of a point", |c| c.chain_of[1] = 0);
        assert_hash_sees(&chains, "cluster of a chain", |c| c.cluster_of_chain[1] = 1);
        let clustering = Clustering {
            assignments: vec![0, 0, -1],
            num_clusters: 1,
            classes: vec![PointClass::Core, PointClass::Border, PointClass::Noise],
        };
        assert_hash_sees(&clustering, "assignment", |c| c.assignments[2] = 0);
        assert_hash_sees(&clustering, "class", |c| c.classes[1] = PointClass::Core);
        let flags = [true, false, true, false];
        let core = CoreSnapshot(CoreFlags::from_flags(&flags));
        assert_hash_sees(&core, "core flag", |c| c.0.set(1));
        let state =
            LabelState { labels: AtomicLabels::new(4), core: CoreFlags::from_flags(&flags) };
        assert_hash_sees(&state, "label", |s| assert!(s.labels.union(0, 2)));
        assert_hash_sees(&state, "label state core flag", |s| s.core.set(3));
    }

    #[test]
    fn recorded_label_state_is_frozen_at_record_time() {
        let device = Device::new(DeviceConfig::sequential());
        let state = LabelState {
            labels: AtomicLabels::new(6),
            core: CoreFlags::from_flags(&[true, true, false, true, false, false]),
        };
        state.labels.union(3, 5);
        let recorded = state.labels.snapshot();
        let mut ckpt = PipelineCheckpoint::new("fdbscan");
        ckpt.record(PHASE_MAIN, &state);
        let hash = ckpt.phase_hash(PHASE_MAIN);
        // What finalization does to the live artifact after recording.
        state.labels.union(0, 3);
        state.core.set(4);
        state.labels.flatten(&device).unwrap();
        assert_ne!(state.labels.snapshot(), recorded, "the original did change");
        let restored = ckpt.restore::<LabelState>(PHASE_MAIN).unwrap();
        assert_eq!(restored.labels.snapshot(), recorded);
        assert_eq!(restored.core.to_vec(), [true, true, false, true, false, false]);
        assert_eq!(ckpt.phase_hash(PHASE_MAIN), hash);
    }
}
