//! Taxi hotspot mining: FDBSCAN-DenseBox on Porto-taxi-like trajectory
//! data — the workload family where dense cells dominate (paper §5.1).
//!
//! ```sh
//! cargo run --release -p fdbscan --example taxi_hotspots [n]
//! ```
//!
//! Pass a point count (default 50,000). Optionally pass a CSV path as a
//! second argument to cluster your own longitude/latitude extract
//! instead of the synthetic data.

use fdbscan::{fdbscan, fdbscan_densebox, Params};
use fdbscan_data::{io::load_csv, porto_taxi_like};
use fdbscan_device::Device;
use fdbscan_geom::Point2;

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(50_000);
    let points: Vec<Point2> = match args.next() {
        Some(path) => {
            println!("loading {path} ...");
            load_csv(std::path::Path::new(&path)).expect("failed to load CSV")
        }
        None => porto_taxi_like(n, 2024),
    };
    println!("clustering {} taxi GPS samples", points.len());

    let device = Device::with_defaults();
    // Hotspots: tight radius, strong density requirement.
    let params = Params::new(0.01, 50);

    let (clusters, dense_stats) =
        fdbscan_densebox(&device, &points, params).expect("device out of memory");
    let (_, plain_stats) = fdbscan(&device, &points, params).expect("device out of memory");

    println!("\nhotspots found: {}", clusters.num_clusters);
    let mut ranked: Vec<(usize, usize)> =
        clusters.cluster_sizes().into_iter().enumerate().collect();
    ranked.sort_unstable_by_key(|&(_, size)| std::cmp::Reverse(size));
    for (rank, (id, size)) in ranked.iter().take(8).enumerate() {
        // Centroid of the hotspot.
        let mut cx = 0.0f64;
        let mut cy = 0.0f64;
        for (p, &a) in points.iter().zip(&clusters.assignments) {
            if a == *id as i64 {
                cx += p[0] as f64;
                cy += p[1] as f64;
            }
        }
        println!(
            "  #{rank}: cluster {id} with {size} samples around ({:.3}, {:.3})",
            cx / *size as f64,
            cy / *size as f64
        );
    }
    println!("  noise (sparse traffic): {} samples", clusters.num_noise());

    let d = dense_stats.dense.unwrap();
    println!("\ndense-cell structure (the FDBSCAN-DenseBox advantage):");
    println!("  non-empty cells : {}", d.num_cells);
    println!("  dense cells     : {}", d.num_dense_cells);
    println!("  points in dense : {} ({:.1} %)", d.points_in_dense_cells, 100.0 * d.dense_fraction);
    println!(
        "  distance computations: densebox {} vs plain fdbscan {} ({:.1}x fewer)",
        dense_stats.counters.distance_computations,
        plain_stats.counters.distance_computations,
        plain_stats.counters.distance_computations as f64
            / dense_stats.counters.distance_computations.max(1) as f64
    );
    println!(
        "  wall time: densebox {:?} vs plain {:?}",
        dense_stats.total_time, plain_stats.total_time
    );
}
