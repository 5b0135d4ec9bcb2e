//! CUDA-DClust: parallel chain expansion with a collision matrix.
//!
//! Reimplementation of Böhm et al. (paper reference \[6\]) with the two
//! refinements the paper's §2.2 attributes to later work and to the
//! comparison code it used:
//!
//! * **cores first** (Mr. Scan): core points are identified *before*
//!   chain generation, so chains only walk core points and borders are
//!   attached in a final pass — this sidesteps CUDA-DClust's trickiest
//!   race (tentative chain membership of non-core points),
//! * **directory index** (CUDA-DClust*): a uniform grid with cell edge
//!   `eps` restricts candidate neighbors to the 3^D surrounding cells.
//!
//! Each round launches a batch of chains (one thread per chain seed);
//! every chain expands a breadth-first sub-cluster of core points,
//! claiming points with a CAS on the chain-id array. Running into a
//! point of another chain records a *collision*; after all points are
//! chained, the host resolves the collision matrix with a sequential
//! union-find and relabels chains into clusters.
//!
//! Deviations from the 2009 original, chosen where the original's fixed
//! buffers would affect correctness rather than speed: chain frontiers
//! grow dynamically instead of being fixed-length with restart flags,
//! and collisions are a concurrent list rather than a dense
//! `chains × chains` bit matrix.

use std::sync::atomic::{AtomicU32, Ordering};

use fdbscan_device::shared::SharedMut;
use fdbscan_device::{Device, DeviceError, Hot, PipelineCheckpoint};
use fdbscan_geom::Point;
use fdbscan_grid::DenseGrid;
use fdbscan_unionfind::SequentialDsu;
use parking_lot::Mutex;

use crate::checkpoint::{
    self, ChainState, CoreSnapshot, PHASE_FINALIZE, PHASE_INDEX, PHASE_MAIN, PHASE_PREPROCESS,
};
use crate::framework::CoreFlags;
use crate::labels::{Clustering, PointClass, NOISE};
use crate::pipeline::Pipeline;
use crate::stats::RunStats;
use crate::Params;

const UNSET: u32 = u32::MAX;

/// Checkpoint algorithm tag of [`cuda_dclust`] runs.
pub const CUDA_DCLUST_ALGORITHM: &str = "cuda-dclust";

/// Tuning knobs for [`cuda_dclust`].
#[derive(Clone, Copy, Debug)]
pub struct CudaDclustConfig {
    /// Chains launched per round (the original launches a fixed grid of
    /// chain kernels per iteration).
    pub chains_per_round: usize,
}

impl Default for CudaDclustConfig {
    fn default() -> Self {
        Self { chains_per_round: 256 }
    }
}

/// Runs CUDA-DClust with default configuration.
pub fn cuda_dclust<const D: usize>(
    device: &Device,
    points: &[Point<D>],
    params: Params,
) -> Result<(Clustering, RunStats), DeviceError> {
    cuda_dclust_with(device, points, params, CudaDclustConfig::default())
}

/// Runs CUDA-DClust with an explicit configuration.
pub fn cuda_dclust_with<const D: usize>(
    device: &Device,
    points: &[Point<D>],
    params: Params,
    config: CudaDclustConfig,
) -> Result<(Clustering, RunStats), DeviceError> {
    cuda_dclust_core(device, points, params, config, None)
}

/// [`cuda_dclust_with`], resuming from (and recording into) a
/// checkpoint. The main-phase artifact is the resolved chain state
/// (chain ids, chain → cluster map, cluster count), so a resumed run
/// skips both the chain expansion rounds and the host-side collision
/// resolution. See [`crate::fdbscan_run_from`] for the resume contract.
pub fn cuda_dclust_run_from<const D: usize>(
    device: &Device,
    points: &[Point<D>],
    params: Params,
    config: CudaDclustConfig,
    ckpt: &mut PipelineCheckpoint,
) -> Result<(Clustering, RunStats), DeviceError> {
    checkpoint::prepare(ckpt, CUDA_DCLUST_ALGORITHM, points, params);
    cuda_dclust_core(device, points, params, config, Some(ckpt))
}

fn cuda_dclust_core<const D: usize>(
    device: &Device,
    points: &[Point<D>],
    params: Params,
    config: CudaDclustConfig,
    ckpt: Option<&mut PipelineCheckpoint>,
) -> Result<(Clustering, RunStats), DeviceError> {
    if points.is_empty() {
        return Ok((Clustering::from_union_find(&[], &[]), RunStats::default()));
    }
    let mut run = Pipeline::start(device, CUDA_DCLUST_ALGORITHM, points, ckpt, None)?;
    let n = points.len();
    let Params { eps, minpts } = params;
    let eps_sq = eps * eps;

    let _points_mem = device.memory().reserve_array::<Point<D>>(n)?;
    let _chain_mem = device.memory().reserve_array::<u32>(n)?;

    // ---- Directory index -------------------------------------------------
    // Cell edge = eps: all neighbors of a point live in the surrounding
    // 3^D cells. Where eps² overflows `f32`, every pair passes the
    // distance test however far apart, so the edge is `f32::MAX` and the
    // surrounding cells hold every point. Dense classification is
    // disabled (minpts = MAX).
    let cell_len = if eps_sq.is_finite() { eps } else { f32::MAX };
    let grid = run.phase(PHASE_INDEX, || {
        DenseGrid::build_with_cell_len_in(device, points, cell_len, usize::MAX)
    })?;
    let _grid_mem = device.memory().reserve(grid.memory_bytes())?;

    // Visits every candidate in the 3^D neighborhood of `q`, calling
    // `visit(point id, within_eps)`. Returns the number of distance
    // computations performed; `visit` returns false to stop early.
    let for_candidates = |q: &Point<D>, mut visit: Box<dyn FnMut(u32, bool) -> bool + '_>| -> u64 {
        let center = grid.coords_of_point(q);
        let mut distances = 0u64;
        // Enumerate 3^D neighbor offsets.
        let neighborhood = 3usize.pow(D as u32);
        'cells: for code in 0..neighborhood {
            let mut coords = [0u64; D];
            let mut c = code;
            let mut skip = false;
            for (axis, coord) in coords.iter_mut().enumerate() {
                let offset = (c % 3) as i64 - 1;
                c /= 3;
                let v = center[axis] as i64 + offset;
                if v < 0 {
                    skip = true;
                    break;
                }
                *coord = v as u64;
            }
            if skip {
                continue;
            }
            let Some(cell) = grid.find_cell(coords) else { continue };
            for &m in grid.cell_members(cell) {
                distances += 1;
                let within = points[m as usize].dist_sq(q) <= eps_sq;
                if !visit(m, within) {
                    break 'cells;
                }
            }
        }
        distances
    };

    // ---- Phase 1: core identification (Mr. Scan refinement) --------------
    let CoreSnapshot(core) = run.phase(PHASE_PREPROCESS, || {
        let core = CoreFlags::new(n);
        let counters = device.counters();
        device.try_launch_named("cudadclust.core_count", n, |i| {
            let mut count = 0usize;
            let distances = for_candidates(
                &points[i],
                Box::new(|_, within| {
                    if within {
                        count += 1; // includes the point itself
                    }
                    count < minpts
                }),
            );
            if count >= minpts {
                core.set(i as u32);
            }
            counters.add(Hot::Distances, distances);
        })?;
        Ok(CoreSnapshot(core))
    })?;

    // ---- Phase 2: chain expansion ----------------------------------------
    let ChainState { chain_of, cluster_of_chain, num_clusters } = run.phase(PHASE_MAIN, || {
        let chain_of: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(UNSET)).collect();
        let collisions: Mutex<Vec<(u32, u32)>> = Mutex::new(Vec::new());
        let mut chain_count = 0u32;
        let mut scan_cursor = 0usize;

        loop {
            // Host-side: pick the next batch of unchained core seeds.
            let mut seeds: Vec<u32> = Vec::with_capacity(config.chains_per_round);
            while scan_cursor < n && seeds.len() < config.chains_per_round {
                let i = scan_cursor as u32;
                if core.get(i) && chain_of[scan_cursor].load(Ordering::Relaxed) == UNSET {
                    let q = chain_count;
                    chain_count += 1;
                    chain_of[scan_cursor].store(q, Ordering::Relaxed);
                    seeds.push(i);
                }
                scan_cursor += 1;
            }
            if seeds.is_empty() {
                break;
            }

            let counters = device.counters();
            device.try_launch_named("cudadclust.chain_expand", seeds.len(), |s| {
                let seed = seeds[s];
                let q = chain_of[seed as usize].load(Ordering::Relaxed);
                let mut frontier = vec![seed];
                let mut total_distances = 0u64;
                while let Some(u) = frontier.pop() {
                    total_distances += for_candidates(
                        &points[u as usize],
                        Box::new(|v, within| {
                            if within && core.get(v) {
                                match chain_of[v as usize].compare_exchange(
                                    UNSET,
                                    q,
                                    Ordering::Relaxed,
                                    Ordering::Relaxed,
                                ) {
                                    Ok(_) => frontier.push(v),
                                    Err(other) => {
                                        if other != q {
                                            collisions.lock().push((q, other));
                                        }
                                    }
                                }
                            }
                            true
                        }),
                    );
                }
                counters.add(Hot::Distances, total_distances);
            })?;
        }

        // Host-side collision resolution.
        let mut chain_dsu = SequentialDsu::new(chain_count as usize);
        for &(a, b) in collisions.lock().iter() {
            chain_dsu.union(a, b);
        }
        let mut cluster_of_chain = vec![UNSET; chain_count as usize];
        let mut num_clusters = 0u32;
        for q in 0..chain_count {
            let root = chain_dsu.find(q) as usize;
            if cluster_of_chain[root] == UNSET {
                cluster_of_chain[root] = num_clusters;
                num_clusters += 1;
            }
            cluster_of_chain[q as usize] = cluster_of_chain[root];
        }
        let chain_of = chain_of.into_iter().map(AtomicU32::into_inner).collect();
        Ok(ChainState { chain_of, cluster_of_chain, num_clusters })
    })?;

    // ---- Phase 4: border attachment --------------------------------------
    let clustering = run.phase(PHASE_FINALIZE, || {
        let mut assignments = vec![NOISE; n];
        let mut classes = vec![PointClass::Noise; n];
        let assignments_view = SharedMut::new(&mut assignments);
        let classes_view = SharedMut::new(&mut classes);
        let counters = device.counters();
        device.try_launch_named("cudadclust.border_attach", n, |i| {
            if core.get(i as u32) {
                let chain = chain_of[i];
                debug_assert_ne!(chain, UNSET, "core point left unchained");
                // SAFETY: one writer per index.
                unsafe {
                    assignments_view.write(i, cluster_of_chain[chain as usize] as i64);
                    classes_view.write(i, PointClass::Core);
                }
                return;
            }
            // Border: first core neighbor within eps decides the cluster.
            let mut found: Option<u32> = None;
            let distances = for_candidates(
                &points[i],
                Box::new(|v, within| {
                    if within && core.get(v) {
                        found = Some(v);
                        false
                    } else {
                        true
                    }
                }),
            );
            counters.add(Hot::Distances, distances);
            if let Some(v) = found {
                let chain = chain_of[v as usize];
                // SAFETY: one writer per index.
                unsafe {
                    assignments_view.write(i, cluster_of_chain[chain as usize] as i64);
                    classes_view.write(i, PointClass::Border);
                }
            }
        })?;
        Ok(Clustering { assignments, num_clusters: num_clusters as usize, classes })
    })?;
    Ok((clustering, run.finish()))
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
        Device::new(DeviceConfig::default().with_workers(2).with_block_size(16))
    }

    fn random_points(n: usize, extent: f32, seed: u64) -> Vec<Point2> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point2::new([rng.gen_range(0.0..extent), rng.gen_range(0.0..extent)]))
            .collect()
    }

    #[test]
    fn empty_input() {
        let (c, _) = cuda_dclust::<2>(&device(), &[], Params::new(1.0, 3)).unwrap();
        assert!(c.is_empty());
    }

    #[test]
    fn tiny_eps_is_invalid_input() {
        // With cell edge eps, 1e-4 over a 0..999 extent needs about 1e7
        // cells per axis; 3-D grid keys hold 21 bits per axis.
        let points: Vec<Point<3>> = (0..1000)
            .map(|i| Point::new([i as f32, ((i * 7) % 1000) as f32, ((i * 13) % 1000) as f32]))
            .collect();
        let err = cuda_dclust(&device(), &points, Params::new(1e-4, 3)).unwrap_err();
        assert!(matches!(err, DeviceError::InvalidInput { .. }), "{err:?}");
    }

    #[test]
    fn matches_oracle_on_random_data() {
        for (seed, eps, minpts) in [(31u64, 0.3f32, 4usize), (32, 0.5, 3), (33, 0.2, 2)] {
            let points = random_points(300, 5.0, seed);
            let params = Params::new(eps, minpts);
            let oracle = dbscan_classic(&points, params);
            let (got, _) = cuda_dclust(&device(), &points, params).unwrap();
            assert_core_equivalent(&oracle, &got);
            assert_valid_clustering(&points, &got, params);
        }
    }

    #[test]
    fn collisions_merge_chains() {
        // A single long snake of core points: with one chain per round it
        // still comes out as one cluster; with many chains per round the
        // chains must merge through collisions.
        let points: Vec<Point2> = (0..400).map(|i| Point2::new([i as f32 * 0.4, 0.0])).collect();
        let params = Params::new(1.0, 3);
        for chains in [1usize, 4, 64] {
            let (c, _) = cuda_dclust_with(
                &device(),
                &points,
                params,
                CudaDclustConfig { chains_per_round: chains },
            )
            .unwrap();
            assert_eq!(c.num_clusters, 1, "chains_per_round = {chains}");
        }
    }

    #[test]
    fn borders_and_noise_classified() {
        let mut points = vec![
            Point2::new([0.0, 0.0]),
            Point2::new([0.1, 0.0]),
            Point2::new([0.0, 0.1]),
            Point2::new([0.9, 0.0]), // border: within 0.95 of (0.1, 0) only
        ];
        points.push(Point2::new([10.0, 10.0])); // noise
        let params = Params::new(0.85, 3);
        let (c, _) = cuda_dclust(&device(), &points, params).unwrap();
        assert_eq!(c.num_clusters, 1);
        assert_eq!(c.classes[3], PointClass::Border);
        assert_eq!(c.classes[4], PointClass::Noise);
        assert_valid_clustering(&points, &c, params);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]
        #[test]
        fn cuda_dclust_always_matches_oracle(
            seed in any::<u64>(),
            n in 1usize..200,
            eps in 0.05f32..1.5,
            minpts in 1usize..8,
        ) {
            let points = random_points(n, 5.0, seed);
            let params = Params::new(eps, minpts);
            let oracle = dbscan_classic(&points, params);
            let (got, _) = cuda_dclust(&device(), &points, params).unwrap();
            assert_core_equivalent(&oracle, &got);
            assert_valid_clustering(&points, &got, params);
        }
    }
}
