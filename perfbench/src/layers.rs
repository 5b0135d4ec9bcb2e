//! Per-layer costs: each layer's public functions timed from outside on
//! the workload's own input, with the unit costs derived from them and the
//! counts those costs are divided by.

use std::hint::black_box;
use std::ops::ControlFlow;
use std::time::{Duration, Instant};

use fdbscan::Params;
use fdbscan_bvh::Bvh;
use fdbscan_device::Device;
use fdbscan_geom::morton::morton_codes_soa;
use fdbscan_geom::{Aabb, Point, SoaPoints};
use fdbscan_grid::DenseGrid;
use fdbscan_psort::sort_pairs;
use fdbscan_unionfind::AtomicLabels;

use crate::report::{median, metric, ms, ratio, Metric, MB};

/// Repeats of the cheap index-building calls; their median is reported.
const REPEATS: usize = 3;
/// Empty launches timed for the launch overhead.
const LAUNCHES: usize = 2_000;
/// Core–core edges kept for the union replay (8 bytes each). Dense inputs
/// have far more pairs than unions the program performs; the replay uses
/// the first edges in sweep order.
const MAX_EDGES: usize = 1 << 23;

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

fn median_ms(mut run: impl FnMut() -> Duration) -> f64 {
    let samples: Vec<f64> = (0..REPEATS).map(|_| ms(run())).collect();
    median(&samples)
}

/// Times `geom`, `psort`, `bvh`, `grid`, `unionfind` and `device` calls on
/// `points`. `core` holds the reference core flags, which select the
/// core–core edges of the union-find replay.
pub fn measure<const D: usize>(
    device: &Device,
    points: &[Point<D>],
    params: Params,
    core: &[bool],
) -> Vec<Metric> {
    let n = points.len();
    // Scratch the arena keeps after the workload's own calls, before the
    // calls below add theirs.
    let mut out =
        vec![metric("device.arena_held_mb", device.arena().held_bytes() as f64 / MB, "MB")];

    // geom: lane-batched Morton codes over the whole input.
    let soa = SoaPoints::from_points(points);
    let scene = points.iter().fold(Aabb::empty(), |b, p| b.merged(&Aabb::from_point(*p)));
    let mut codes = vec![0u64; n];
    let morton_ms =
        median_ms(|| timed(|| morton_codes_soa(&soa, &scene, 0..n, black_box(&mut codes))).1);
    out.push(metric("geom.morton_ms", morton_ms, "ms"));

    // psort: radix sort of those codes with their indices.
    let sort_ms = median_ms(|| {
        let mut keys = codes.clone();
        let mut values: Vec<u32> = (0..n as u32).collect();
        timed(|| sort_pairs(device, black_box(&mut keys), &mut values)).1
    });
    out.push(metric("psort.sort_ms", sort_ms, "ms"));
    out.push(metric("psort.keys", n as f64, "count"));
    out.push(metric("psort.ns_per_key", ratio(sort_ms * 1e6, n as f64), "ns"));

    // bvh: build over the point boxes, then one masked radius query per
    // point that only counts (each close pair is found once).
    let bounds: Vec<Aabb<D>> = points.iter().map(|p| Aabb::from_point(*p)).collect();
    let build_ms = median_ms(|| timed(|| black_box(Bvh::build(device, &bounds))).1);
    let bvh = Bvh::build(device, &bounds);
    let ((nodes, pairs), query) = timed(|| {
        let (mut nodes, mut pairs) = (0u64, 0u64);
        for (i, p) in points.iter().enumerate() {
            let cutoff = bvh.leaf_pos_of(i as u32) + 1;
            let stats = bvh.for_each_in_radius(p, params.eps, cutoff, |_, _| {
                pairs += 1;
                ControlFlow::Continue(())
            });
            nodes += stats.nodes_visited;
        }
        (nodes, pairs)
    });
    let query_ms = ms(query);
    out.push(metric("bvh.build_ms", build_ms, "ms"));
    out.push(metric("bvh.query_ms", query_ms, "ms"));
    out.push(metric("bvh.query_nodes_visited", nodes as f64, "count"));
    out.push(metric("bvh.query_pairs", pairs as f64, "count"));
    out.push(metric("bvh.ns_per_node", ratio(query_ms * 1e6, nodes as f64), "ns"));
    out.push(metric("bvh.memory_mb", bvh.memory_bytes() as f64 / MB, "MB"));

    // grid: the dense-cell grid at the workload's ε and minpts.
    let grid_ms = median_ms(|| {
        timed(|| black_box(DenseGrid::build(device, points, params.eps, params.minpts))).1
    });
    let grid = DenseGrid::build(device, points, params.eps, params.minpts);
    out.push(metric("grid.build_ms", grid_ms, "ms"));
    out.push(metric("grid.dense_cells", grid.num_dense_cells() as f64, "count"));
    drop(grid);

    // unionfind: replay the core–core pairs of the sweep through the
    // lock-free union, then flatten.
    let mut edges: Vec<(u32, u32)> = Vec::with_capacity(pairs.min(MAX_EDGES as u64) as usize);
    for (i, p) in points.iter().enumerate() {
        if edges.len() == MAX_EDGES {
            break;
        }
        if !core[i] {
            continue;
        }
        let cutoff = bvh.leaf_pos_of(i as u32) + 1;
        bvh.for_each_in_radius(p, params.eps, cutoff, |_, j| {
            if core[j as usize] && edges.len() < MAX_EDGES {
                edges.push((i as u32, j));
            }
            ControlFlow::Continue(())
        });
    }
    drop(bvh);
    let labels = AtomicLabels::new(n);
    let union_ms = ms(timed(|| {
        for &(a, b) in &edges {
            labels.union(a, b);
        }
    })
    .1);
    let flatten_ms = ms(timed(|| labels.flatten(device)).1);
    black_box(labels.label(0));
    out.push(metric("unionfind.union_ms", union_ms, "ms"));
    out.push(metric("unionfind.edges", edges.len() as f64, "count"));
    out.push(metric("unionfind.ns_per_union", ratio(union_ms * 1e6, edges.len() as f64), "ns"));
    out.push(metric("unionfind.flatten_ms", flatten_ms, "ms"));

    // device: one empty single-index launch, median of many.
    let launches: Vec<f64> = (0..LAUNCHES)
        .map(|_| {
            timed(|| {
                device.launch_named("perfbench.empty", 1, |i| {
                    black_box(i);
                })
            })
            .1
        })
        .map(|d| d.as_secs_f64() * 1e6)
        .collect();
    out.push(metric("device.launch_us", median(&launches), "us"));
    out
}
