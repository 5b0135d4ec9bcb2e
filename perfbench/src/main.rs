//! The repository's benchmark: end-to-end clustering latency on three
//! workloads, and per-layer costs from a separate traced run.
//!
//! ```sh
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload halo-3d --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the lines before it
//! print the same metrics for reading. See `perfbench/README.md`.

mod batch;
mod check;
mod layers;
mod mixed;
mod report;
mod spans;
mod workloads;

use std::process::ExitCode;

use fdbscan::{fdbscan, fdbscan_densebox};
use fdbscan_data::cosmology::default_snapshot;
use fdbscan_data::Dataset2;
use fdbscan_device::{Backend, DeviceConfig};

use crate::batch::Batch;
use crate::check::Reference;
use crate::mixed::Mixed;
use crate::workloads::Workload;

/// Environment variables that silently change the measured program.
const PINNED_ENV: [&str; 6] = [
    "FDBSCAN_BACKEND",
    "FDBSCAN_BVH_WIDTH",
    "FDBSCAN_POOL_CHUNK",
    "FDBSCAN_TRACE",
    "FDBSCAN_METRICS_DUMP",
    "FDBSCAN_CKPT_DIR",
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <halo-3d|taxi-2d|service-mixed> --seed <n> \
                     [--seconds <s>] [--trace <0|1>]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if seconds.is_nan() || seconds <= 0.0 {
                    return Err(format!("seconds must be positive, got {value}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit of the checkout, read from `.git` without running git;
/// `unknown` outside a git work tree.
fn git_commit() -> String {
    let read = |path: &str| std::fs::read_to_string(format!(".git/{path}")).ok();
    let Some(head) = read("HEAD") else { return "unknown".into() };
    let Some(name) = head.trim().strip_prefix("ref: ") else { return head.trim().into() };
    if let Some(hash) = read(name) {
        return hash.trim().into();
    }
    read("packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|line| line.strip_suffix(name).map(|hash| hash.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let set: Vec<&str> =
        PINNED_ENV.iter().copied().filter(|v| std::env::var_os(v).is_some()).collect();
    if !set.is_empty() {
        eprintln!("refusing to run: {} set; each changes the measured program", set.join(", "));
        return ExitCode::from(2);
    }

    // Batch workloads: threaded backend with one worker fewer than the
    // hardware threads (the launching thread is the last one), binary BVH.
    let workers = nproc().saturating_sub(1).max(1);
    let batch_config =
        DeviceConfig::default().with_backend(Backend::Threaded { workers }).with_bvh_width(2);
    let (backend, workers) = match args.workload {
        Workload::ServiceMixed => ("sequential", 0),
        _ => ("threaded", workers),
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={} backend={backend} \
         workers={workers} bvh_width=2 commit={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc(),
        git_commit()
    );

    let outcome = match args.workload {
        Workload::Halo3d => {
            let n = args.workload.n();
            let points = default_snapshot(n, args.seed);
            let params = args.workload.params(n);
            let reference = Reference::compute(&points, params);
            let batch = Batch {
                algo: fdbscan,
                points: &points,
                params,
                reference: &reference,
                config: batch_config,
            };
            if args.trace {
                batch.run_traced(args.seconds)
            } else {
                batch.run(args.seconds)
            }
        }
        Workload::Taxi2d => {
            let n = args.workload.n();
            let points = Dataset2::PortoTaxi.generate(n, args.seed);
            let params = args.workload.params(n);
            let reference = Reference::compute(&points, params);
            let batch = Batch {
                algo: fdbscan_densebox,
                points: &points,
                params,
                reference: &reference,
                config: batch_config,
            };
            if args.trace {
                batch.run_traced(args.seconds)
            } else {
                batch.run(args.seconds)
            }
        }
        Workload::ServiceMixed => {
            let mixed = Mixed::generate(args.seed);
            if args.trace {
                mixed.run_traced(args.seconds)
            } else {
                mixed.run(args.seconds)
            }
        }
    };
    outcome.print();
    ExitCode::SUCCESS
}
