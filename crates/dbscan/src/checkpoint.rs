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
//! * a phase records its artifact the moment it completes; if a later
//!   phase faults, the caller's checkpoint retains everything completed,
//! * on entry, each phase first tries to restore its artifact and only
//!   runs its kernels when restoration fails (missing phase, kind
//!   mismatch, undecodable data — all treated as "recompute"),
//! * an algorithm or fingerprint mismatch resets the checkpoint: stale
//!   state is discarded, never resumed.

use fdbscan_device::json::Json;
use fdbscan_device::snapshot::{
    self as snap, bools_to_json, json_to_bools, json_to_u32s, json_to_u64s, req_field, req_u64,
    u32s_to_json, u64s_to_json,
};
use fdbscan_device::{Checkpointable, Device, PipelineCheckpoint, RunManifest, SnapshotError};
use fdbscan_geom::Point;
use fdbscan_unionfind::AtomicLabels;

use crate::framework::CoreFlags;
use crate::labels::{Clustering, PointClass};
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
pub struct CoreSnapshot(pub CoreFlags);

impl Checkpointable for CoreSnapshot {
    const KIND: &'static str = "dbscan.core_flags";

    fn to_snapshot(&self) -> Json {
        bools_to_json(&self.0.to_vec())
    }

    fn from_snapshot(snapshot: &Json) -> Result<Self, SnapshotError> {
        Ok(CoreSnapshot(CoreFlags::from_flags(&json_to_bools(snapshot)?)))
    }
}

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

impl Checkpointable for LabelState {
    const KIND: &'static str = "dbscan.label_state";

    fn to_snapshot(&self) -> Json {
        Json::obj([
            ("labels", u32s_to_json(&self.labels.snapshot())),
            ("core", bools_to_json(&self.core.to_vec())),
        ])
    }

    fn from_snapshot(snapshot: &Json) -> Result<Self, SnapshotError> {
        let labels = json_to_u32s(req_field(snapshot, "labels")?)?;
        let core = json_to_bools(req_field(snapshot, "core")?)?;
        if labels.len() != core.len() {
            return Err(SnapshotError::Corrupt("label/core length mismatch".to_string()));
        }
        Ok(Self { labels: AtomicLabels::from_labels(labels), core: CoreFlags::from_flags(&core) })
    }
}

/// FDBSCAN-DenseBox's index phase output: the dense-cell grid and the
/// BVH over the mixed primitive set. The mixed primitive *references*
/// are not stored — they are a deterministic O(n) host-side function of
/// `(grid, points)` and are recomputed on restore.
#[derive(Debug)]
pub struct DenseIndex<const D: usize> {
    /// The dense-cell grid.
    pub grid: fdbscan_grid::DenseGrid<D>,
    /// BVH over the mixed primitives (`grid.mixed_primitives(points)`).
    pub bvh: fdbscan_bvh::Bvh<D>,
}

impl<const D: usize> Checkpointable for DenseIndex<D> {
    const KIND: &'static str = "densebox.index";

    fn to_snapshot(&self) -> Json {
        Json::obj([("grid", self.grid.to_snapshot()), ("bvh", self.bvh.to_snapshot())])
    }

    fn from_snapshot(snapshot: &Json) -> Result<Self, SnapshotError> {
        Ok(Self {
            grid: fdbscan_grid::DenseGrid::from_snapshot(req_field(snapshot, "grid")?)?,
            bvh: fdbscan_bvh::Bvh::from_snapshot(req_field(snapshot, "bvh")?)?,
        })
    }
}

/// G-DBSCAN's index phase output: the CSR adjacency graph plus the core
/// flags derived from the degree pass (computed *before* the edge-list
/// reservation, so they survive the OOM that kills G-DBSCAN at scale).
#[derive(Clone, Debug, PartialEq)]
pub struct CsrGraph {
    /// CSR segment offsets (`len = n + 1`).
    pub offsets: Vec<u64>,
    /// Concatenated neighbor lists.
    pub adjacency: Vec<u32>,
    /// Core flag of every point.
    pub core: Vec<bool>,
}

impl Checkpointable for CsrGraph {
    const KIND: &'static str = "gdbscan.graph";

    fn to_snapshot(&self) -> Json {
        Json::obj([
            ("offsets", u64s_to_json(&self.offsets)),
            ("adjacency", u32s_to_json(&self.adjacency)),
            ("core", bools_to_json(&self.core)),
        ])
    }

    fn from_snapshot(snapshot: &Json) -> Result<Self, SnapshotError> {
        let graph = Self {
            offsets: json_to_u64s(req_field(snapshot, "offsets")?)?,
            adjacency: json_to_u32s(req_field(snapshot, "adjacency")?)?,
            core: json_to_bools(req_field(snapshot, "core")?)?,
        };
        let consistent = graph.offsets.len() == graph.core.len() + 1
            && graph.offsets.last().copied() == Some(graph.adjacency.len() as u64);
        if !consistent {
            return Err(SnapshotError::Corrupt("CSR graph arrays inconsistent".to_string()));
        }
        Ok(graph)
    }
}

/// G-DBSCAN's main phase output: per-point cluster labels (`u32::MAX`
/// for unlabeled) and the number of clusters the BFS discovered.
#[derive(Clone, Debug, PartialEq)]
pub struct BfsLabels {
    /// Cluster id per point, `u32::MAX` when unlabeled.
    pub labels: Vec<u32>,
    /// Number of clusters discovered.
    pub num_clusters: u32,
}

impl Checkpointable for BfsLabels {
    const KIND: &'static str = "gdbscan.bfs_labels";

    fn to_snapshot(&self) -> Json {
        Json::obj([
            ("labels", u32s_to_json(&self.labels)),
            ("num_clusters", Json::U64(self.num_clusters as u64)),
        ])
    }

    fn from_snapshot(snapshot: &Json) -> Result<Self, SnapshotError> {
        Ok(Self {
            labels: json_to_u32s(req_field(snapshot, "labels")?)?,
            num_clusters: req_u64(snapshot, "num_clusters")? as u32,
        })
    }
}

/// CUDA-DClust's main phase output: the chain id of every point
/// (`u32::MAX` for unchained), the resolved chain → cluster map, and
/// the cluster count.
#[derive(Clone, Debug, PartialEq)]
pub struct ChainState {
    /// Chain id per point, `u32::MAX` when unchained.
    pub chain_of: Vec<u32>,
    /// Cluster id per chain, after collision resolution.
    pub cluster_of_chain: Vec<u32>,
    /// Number of clusters after collision resolution.
    pub num_clusters: u32,
}

impl Checkpointable for ChainState {
    const KIND: &'static str = "cudadclust.chains";

    fn to_snapshot(&self) -> Json {
        Json::obj([
            ("chain_of", u32s_to_json(&self.chain_of)),
            ("cluster_of_chain", u32s_to_json(&self.cluster_of_chain)),
            ("num_clusters", Json::U64(self.num_clusters as u64)),
        ])
    }

    fn from_snapshot(snapshot: &Json) -> Result<Self, SnapshotError> {
        Ok(Self {
            chain_of: json_to_u32s(req_field(snapshot, "chain_of")?)?,
            cluster_of_chain: json_to_u32s(req_field(snapshot, "cluster_of_chain")?)?,
            num_clusters: req_u64(snapshot, "num_clusters")? as u32,
        })
    }
}

/// A finished clustering checkpoints as its three output arrays; the
/// finalize phase of a fully completed run restores it without
/// launching anything.
impl Checkpointable for Clustering {
    const KIND: &'static str = "dbscan.clustering";

    fn to_snapshot(&self) -> Json {
        let classes: Vec<u32> = self
            .classes
            .iter()
            .map(|c| match c {
                PointClass::Core => 0,
                PointClass::Border => 1,
                PointClass::Noise => 2,
            })
            .collect();
        Json::obj([
            ("assignments", snap::i64s_to_json(&self.assignments)),
            ("num_clusters", Json::U64(self.num_clusters as u64)),
            ("classes", u32s_to_json(&classes)),
        ])
    }

    fn from_snapshot(snapshot: &Json) -> Result<Self, SnapshotError> {
        let assignments = snap::json_to_i64s(req_field(snapshot, "assignments")?)?;
        let classes = json_to_u32s(req_field(snapshot, "classes")?)?
            .into_iter()
            .map(|c| match c {
                0 => Ok(PointClass::Core),
                1 => Ok(PointClass::Border),
                2 => Ok(PointClass::Noise),
                other => Err(SnapshotError::Corrupt(format!("unknown point class tag {other}"))),
            })
            .collect::<Result<Vec<_>, _>>()?;
        if classes.len() != assignments.len() {
            return Err(SnapshotError::Corrupt("assignment/class length mismatch".to_string()));
        }
        Ok(Self { assignments, num_clusters: req_u64(snapshot, "num_clusters")? as usize, classes })
    }
}

/// FNV-1a hash of the run input: dimensionality, point coordinates (raw
/// bits), `eps` (raw bits) and `minpts`. Two runs share a fingerprint
/// exactly when a checkpoint of one is resumable by the other (modulo
/// the algorithm name, which the checkpoint carries separately).
pub fn run_fingerprint<const D: usize>(points: &[Point<D>], params: Params) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |v: u64| {
        for byte in v.to_le_bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    feed(D as u64);
    feed(points.len() as u64);
    feed(params.eps.to_bits() as u64);
    feed(params.minpts as u64);
    for p in points {
        for axis in 0..D {
            feed(p.coords[axis].to_bits() as u64);
        }
    }
    hash
}

/// Creates an empty checkpoint for `algorithm` over this input —
/// the way callers (and the resilient ladder) obtain a checkpoint whose
/// identity matches what the `run_from` entry points expect.
pub fn checkpoint_for<const D: usize>(
    algorithm: &str,
    points: &[Point<D>],
    params: Params,
) -> PipelineCheckpoint {
    PipelineCheckpoint::new(algorithm, run_fingerprint(points, params))
}

/// Validates a caller-provided checkpoint against this run's identity.
/// On algorithm or fingerprint mismatch the checkpoint is reset to
/// empty — stale phase outputs must never leak into a different run.
pub(crate) fn prepare<const D: usize>(
    ckpt: &mut PipelineCheckpoint,
    algorithm: &str,
    points: &[Point<D>],
    params: Params,
) {
    let fingerprint = run_fingerprint(points, params);
    if ckpt.algorithm() != algorithm || ckpt.fingerprint() != fingerprint {
        *ckpt = PipelineCheckpoint::new(algorithm, fingerprint);
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
    use crate::labels::NOISE;
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
    }

    #[test]
    fn clustering_round_trips() {
        let clustering = Clustering {
            assignments: vec![0, 0, 1, NOISE, 1],
            num_clusters: 2,
            classes: vec![
                PointClass::Core,
                PointClass::Border,
                PointClass::Core,
                PointClass::Noise,
                PointClass::Core,
            ],
        };
        let restored = Clustering::from_snapshot(&clustering.to_snapshot()).unwrap();
        assert_eq!(restored, clustering);
    }

    #[test]
    fn composite_artifacts_round_trip() {
        let state = LabelState {
            labels: AtomicLabels::from_labels(vec![0, 0, 2]),
            core: CoreFlags::from_flags(&[true, false, true]),
        };
        let restored = LabelState::from_snapshot(&state.to_snapshot()).unwrap();
        assert_eq!(restored.labels.snapshot(), state.labels.snapshot());
        assert_eq!(restored.core.to_vec(), state.core.to_vec());
        let graph = CsrGraph {
            offsets: vec![0, 2, 2, 3],
            adjacency: vec![1, 2, 0],
            core: vec![true, false, true],
        };
        assert_eq!(CsrGraph::from_snapshot(&graph.to_snapshot()).unwrap(), graph);
        let chains = ChainState {
            chain_of: vec![0, 0, u32::MAX],
            cluster_of_chain: vec![0],
            num_clusters: 1,
        };
        assert_eq!(ChainState::from_snapshot(&chains.to_snapshot()).unwrap(), chains);
        // Inconsistent CSR is rejected.
        let bad = CsrGraph { offsets: vec![0, 5], adjacency: vec![1], core: vec![true] };
        assert!(CsrGraph::from_snapshot(&bad.to_snapshot()).is_err());
    }
}
