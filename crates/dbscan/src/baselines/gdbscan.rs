//! G-DBSCAN: adjacency graph + level-synchronous parallel BFS.
//!
//! Faithful reimplementation of Andrade et al. (paper reference \[2\]):
//!
//! 1. **graph construction** — a vertex-parallel all-to-all pass counts
//!    each point's neighbors, an exclusive scan turns counts into CSR
//!    offsets, and a second all-to-all pass fills the neighbor lists.
//!    The whole graph — `O(sum of neighborhood sizes)` — lives in device
//!    memory, which is why this algorithm runs out of memory on dense
//!    data (the missing data points of the paper's Fig. 4(h)).
//! 2. **clustering** — for every not-yet-labeled core point, a BFS with
//!    level synchronization: each level expands all frontier vertices in
//!    one kernel, claiming unlabeled neighbors with a CAS. Non-core
//!    neighbors are labeled (borders) but not expanded.

use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};

use fdbscan_device::shared::SharedMut;
use fdbscan_device::{Device, DeviceError, Hot, PipelineCheckpoint};
use fdbscan_geom::{simd, Point, SoaPoints};

use crate::checkpoint::{
    self, BfsLabels, CoreSnapshot, CsrGraph, PHASE_CORE_FLAGS, PHASE_FINALIZE, PHASE_INDEX,
    PHASE_MAIN,
};
use crate::framework::CoreFlags;
use crate::labels::{Clustering, PointClass, NOISE};
use crate::pipeline::{Pipeline, Recorder};
use crate::stats::RunStats;
use crate::Params;

const UNSET: u32 = u32::MAX;

/// Checkpoint algorithm tag of [`gdbscan`] runs.
pub const GDBSCAN_ALGORITHM: &str = "g-dbscan";

/// Runs G-DBSCAN over `points`.
///
/// Returns [`DeviceError::OutOfMemory`] when the adjacency graph exceeds
/// the device budget — expected behaviour at scale, per the paper.
pub fn gdbscan<const D: usize>(
    device: &Device,
    points: &[Point<D>],
    params: Params,
) -> Result<(Clustering, RunStats), DeviceError> {
    gdbscan_core(device, points, params, None)
}

/// [`gdbscan`], resuming from (and recording into) a checkpoint.
///
/// Besides the usual phase artifacts, the degree pass records the core
/// flags under [`PHASE_CORE_FLAGS`] *before* the adjacency-graph
/// reservation — G-DBSCAN's canonical failure point. When the graph
/// OOMs, the checkpoint still carries the flags, and the resilient
/// ladder hands them to the next (tree-based) rung so that run skips
/// its preprocessing distance work. See [`crate::fdbscan_run_from`] for
/// the resume contract.
pub fn gdbscan_run_from<const D: usize>(
    device: &Device,
    points: &[Point<D>],
    params: Params,
    ckpt: &mut PipelineCheckpoint,
) -> Result<(Clustering, RunStats), DeviceError> {
    checkpoint::prepare(ckpt, GDBSCAN_ALGORITHM, points, params);
    gdbscan_core(device, points, params, Some(ckpt))
}

/// G-DBSCAN on a checkpoint made for this input, if any.
pub(crate) fn gdbscan_core<const D: usize>(
    device: &Device,
    points: &[Point<D>],
    params: Params,
    ckpt: Option<&mut PipelineCheckpoint>,
) -> Result<(Clustering, RunStats), DeviceError> {
    if points.is_empty() {
        return Ok((Clustering::from_union_find(&[], &[]), RunStats::default()));
    }
    let mut run = Pipeline::start(device, GDBSCAN_ALGORITHM, points, ckpt, None)?;
    let n = points.len();

    let _points_mem = device.memory().reserve_array::<Point<D>>(n)?;

    // ---- Graph construction -------------------------------------------
    let graph = run.phase_with(PHASE_INDEX, |ckpt| build_graph(device, points, params, ckpt))?;
    if run.restored() {
        // The restored graph occupies the same device memory the
        // original reservation did, for the rest of the index phase.
        drop(device.memory().reserve(graph_bytes(n, graph.adjacency.len()))?);
    }
    let CsrGraph { offsets, adjacency, core } = graph;

    // ---- BFS clustering -------------------------------------------------
    let BfsLabels { labels, num_clusters } = run.phase(PHASE_MAIN, || {
        let labels: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(UNSET)).collect();
        let mut frontier: Vec<u32> = Vec::with_capacity(n);
        let mut next: Vec<u32> = vec![0u32; n];
        let mut num_clusters = 0u32;

        for seed in 0..n {
            if !core[seed] || labels[seed].load(Ordering::Relaxed) != UNSET {
                continue;
            }
            let cluster = num_clusters;
            num_clusters += 1;
            labels[seed].store(cluster, Ordering::Relaxed);
            frontier.clear();
            frontier.push(seed as u32);

            while !frontier.is_empty() {
                let next_len = AtomicUsize::new(0);
                let next_view = SharedMut::new(&mut next);
                let counters = device.counters();
                device.try_launch_named("gdbscan.bfs_level", frontier.len(), |f| {
                    let u = frontier[f] as usize;
                    let (begin, end) = (offsets[u] as usize, offsets[u + 1] as usize);
                    for &v in &adjacency[begin..end] {
                        // Claim: first cluster to reach v owns it.
                        let claim = labels[v as usize].compare_exchange(
                            UNSET,
                            cluster,
                            Ordering::Relaxed,
                            Ordering::Relaxed,
                        );
                        if claim.is_ok() {
                            counters.add(Hot::LabelCas, 1);
                            if core[v as usize] {
                                let slot = next_len.fetch_add(1, Ordering::Relaxed);
                                // SAFETY: `slot` is unique per claim and
                                // claims are unique per vertex, so at most
                                // n disjoint writes.
                                unsafe { next_view.write(slot, v) };
                            }
                        }
                    }
                })?;
                let len = next_len.load(Ordering::Relaxed);
                frontier.clear();
                frontier.extend_from_slice(&next[..len]);
            }
        }
        let labels = labels.into_iter().map(AtomicU32::into_inner).collect();
        Ok(BfsLabels { labels, num_clusters })
    })?;

    // ---- Relabel ---------------------------------------------------------
    let clustering = run.phase(PHASE_FINALIZE, || {
        let mut assignments = vec![NOISE; n];
        let mut classes = vec![PointClass::Noise; n];
        for i in 0..n {
            let label = labels[i];
            if core[i] {
                debug_assert_ne!(label, UNSET, "core point left unlabeled by BFS");
                assignments[i] = label as i64;
                classes[i] = PointClass::Core;
            } else if label != UNSET {
                assignments[i] = label as i64;
                classes[i] = PointClass::Border;
            }
        }
        Ok(Clustering { assignments, num_clusters: num_clusters as usize, classes })
    })?;
    Ok((clustering, run.finish()))
}

/// Device bytes of a CSR graph with `num_edges` edges over `n` points.
fn graph_bytes(n: usize, num_edges: usize) -> usize {
    num_edges * std::mem::size_of::<u32>() + (n + 1) * std::mem::size_of::<u64>()
}

/// The index phase: degree pass, core flags, CSR offsets and the edge
/// lists, whose reservation ends with the phase.
fn build_graph<const D: usize>(
    device: &Device,
    points: &[Point<D>],
    params: Params,
    ckpt: &mut Recorder<'_>,
) -> Result<CsrGraph, DeviceError> {
    let n = points.len();
    let Params { eps, minpts } = params;
    let eps_sq = eps * eps;
    // Both all-to-all passes stream the lane-width SIMD kernels over the
    // dimension-major layout (a transpose of the already-reserved point
    // storage, so it is not charged against the budget a second time).
    // The accept set is bit-identical to the scalar loop, so labels,
    // adjacency order, and distance counters are unchanged.
    let soa = SoaPoints::from_points(points);
    // Degree pass (all-to-all): neighbor count excluding self; the core
    // test adds the point itself back.
    let mut degrees = vec![0u64; n + 1];
    let deg_view = SharedMut::new(&mut degrees);
    let counters = device.counters();
    device.try_launch_named("gdbscan.degree", n, |i| {
        // The self-distance always passes, so subtract the point itself
        // back out of the lane count.
        let count = simd::count_within(&soa, &points[i], eps_sq) as u64 - 1;
        counters.add(Hot::Distances, n as u64);
        // SAFETY: one writer per index.
        unsafe { deg_view.write(i, count) };
    })?;

    // Core flags from degrees (|N| includes self). Recorded *before* the
    // graph reservation: when the edge lists OOM, the flags survive for
    // cross-algorithm handoff.
    let core: Vec<bool> = (0..n).map(|i| degrees[i] as usize + 1 >= minpts).collect();
    ckpt.record(PHASE_CORE_FLAGS, &CoreSnapshot(CoreFlags::from_flags(&core)));

    // CSR offsets; `degrees` becomes the offsets array in place.
    let num_edges = fdbscan_psort::exclusive_scan(device, &mut degrees)? as usize;
    let offsets = degrees;

    // THE reservation that makes or breaks G-DBSCAN: the edge lists.
    let _graph_mem = device.memory().reserve(graph_bytes(n, num_edges))?;

    // Fill pass (second all-to-all).
    let mut adjacency = vec![0u32; num_edges];
    let adj_view = SharedMut::new(&mut adjacency);
    device.try_launch_named("gdbscan.fill", n, |i| {
        let mut cursor = offsets[i] as usize;
        // Lane hits arrive in ascending j — the same CSR segment order as
        // the scalar loop.
        simd::for_each_within(&soa, &points[i], eps_sq, |j| {
            if j != i {
                // SAFETY: vertex i owns its CSR segment.
                unsafe { adj_view.write(cursor, j as u32) };
                cursor += 1;
            }
        });
        counters.add(Hot::Distances, n as u64);
        debug_assert_eq!(cursor as u64, offsets[i + 1]);
    })?;
    Ok(CsrGraph { offsets, adjacency, core })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labels::assert_core_equivalent;
    use crate::seq::dbscan_classic;
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
    fn empty_input() {
        let (c, _) = gdbscan::<2>(&device(), &[], Params::new(1.0, 3)).unwrap();
        assert!(c.is_empty());
    }

    #[test]
    fn matches_oracle_on_random_data() {
        for (seed, eps, minpts) in [(21u64, 0.3f32, 4usize), (22, 0.5, 3), (23, 0.2, 2)] {
            let points = random_points(300, 5.0, seed);
            let params = Params::new(eps, minpts);
            let oracle = dbscan_classic(&points, params);
            let (got, _) = gdbscan(&device(), &points, params).unwrap();
            assert_core_equivalent(&oracle, &got);
            assert_valid_clustering(&points, &got, params);
        }
    }

    #[test]
    fn memory_grows_with_edges_and_ooms() {
        // A dense blob has ~n^2 edges: a budget that comfortably holds
        // the points must still fail on the adjacency graph.
        let points = vec![Point2::new([0.0, 0.0]); 2000];
        // Half a MiB: plenty for FDBSCAN's linear structures (BVH ~112 KiB
        // at n = 2000) but nowhere near the ~16 MiB adjacency graph.
        let budget = 1 << 19;
        let limited = Device::new(DeviceConfig::default().with_memory_budget(budget));
        let err = gdbscan(&limited, &points, Params::new(1.0, 5)).unwrap_err();
        assert!(matches!(err, DeviceError::OutOfMemory { .. }));

        // FDBSCAN under the same budget succeeds: its memory is linear.
        let (c, _) = crate::fdbscan(&limited, &points, Params::new(1.0, 5)).unwrap();
        assert_eq!(c.num_clusters, 1);
    }

    #[test]
    fn peak_memory_reflects_graph_size() {
        let d = device();
        let sparse = random_points(500, 100.0, 1);
        let (_, stats_sparse) = gdbscan(&d, &sparse, Params::new(0.5, 3)).unwrap();
        let dense: Vec<Point2> = random_points(500, 1.0, 2);
        let (_, stats_dense) = gdbscan(&d, &dense, Params::new(0.5, 3)).unwrap();
        assert!(
            stats_dense.peak_memory_bytes > 4 * stats_sparse.peak_memory_bytes,
            "dense data must need far more graph memory ({} vs {})",
            stats_dense.peak_memory_bytes,
            stats_sparse.peak_memory_bytes
        );
    }

    #[test]
    fn border_claimed_by_single_cluster() {
        // Two vertical bars with a midpoint bridge that is within eps of
        // exactly one point of each bar: a border, and no bridging.
        let mut points: Vec<Point2> = (0..5).map(|i| Point2::new([0.0, 0.1 * i as f32])).collect();
        points.extend((0..5).map(|i| Point2::new([0.9, 0.1 * i as f32])));
        points.push(Point2::new([0.45, 0.2]));
        let params = Params::new(0.45, 5);
        let (c, _) = gdbscan(&device(), &points, params).unwrap();
        assert_eq!(c.num_clusters, 2);
        assert_eq!(c.classes[10], PointClass::Border);
        assert_valid_clustering(&points, &c, params);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]
        #[test]
        fn gdbscan_always_matches_oracle(
            seed in any::<u64>(),
            n in 1usize..200,
            eps in 0.05f32..1.5,
            minpts in 1usize..8,
        ) {
            let points = random_points(n, 5.0, seed);
            let params = Params::new(eps, minpts);
            let oracle = dbscan_classic(&points, params);
            let (got, _) = gdbscan(&device(), &points, params).unwrap();
            assert_core_equivalent(&oracle, &got);
            assert_valid_clustering(&points, &got, params);
        }
    }
}
