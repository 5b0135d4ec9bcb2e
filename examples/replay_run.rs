//! Deterministic replay of a failed run from its manifest.
//!
//! A checkpointed FDBSCAN run is killed mid-pipeline by an injected
//! fault; the checkpoint and a [`RunManifest`] land on disk. The replay
//! then starts from *nothing but the manifest*: it rebuilds the
//! dataset from the recorded seed, re-arms the same fault plan on a
//! fresh device, re-executes — and dies the same death, producing
//! bit-identical phase hashes (sequential devices make the execution
//! order exact). Finally the persisted checkpoint resumes the run on a
//! healthy device and the output is checked against an uninterrupted
//! run.
//!
//! ```sh
//! cargo run --release -p fdbscan --example replay_run
//! ```
//!
//! The checkpoint and manifest files stay in `fdbscan-replay` under the
//! system temporary directory for inspection.

use std::panic::{catch_unwind, AssertUnwindSafe};

use fdbscan::fdbscan_impl::FDBSCAN_ALGORITHM;
use fdbscan::labels::assert_core_equivalent;
use fdbscan::{build_manifest, checkpoint_for, fdbscan_run_from, run_fingerprint, Params};
use fdbscan_device::snapshot::{PipelineCheckpoint, RunManifest};
use fdbscan_device::{Device, DeviceConfig, FaultPlan};
use fdbscan_geom::Point2;
use rand::{rngs::StdRng, Rng, SeedableRng};

const RUN_ID: &str = "replay-demo";
const DATA_SEED: u64 = 42;

fn dataset(seed: u64) -> Vec<Point2> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..2_000).map(|_| Point2::new([rng.gen_range(0.0..5.0), rng.gen_range(0.0..5.0)])).collect()
}

fn main() {
    let dir = std::env::temp_dir().join("fdbscan-replay");
    let points = dataset(DATA_SEED);
    let params = Params::new(0.15, 5);

    // --- reference: the run nothing ever happened to ---------------------
    let healthy = Device::new(DeviceConfig::sequential());
    let mut probe = checkpoint_for(FDBSCAN_ALGORITHM, &points, params);
    let (expected, stats) =
        fdbscan_run_from(&healthy, &points, params, Default::default(), &mut probe)
            .expect("reference run");
    let total_launches = healthy.counters().snapshot().kernel_launches;
    println!("reference run: {} clusters, {total_launches} kernel launches", expected.num_clusters);

    // --- 1. a run dies mid-main-phase ------------------------------------
    // Aim the fault at the first launch of the main phase: index and
    // preprocessing complete (and checkpoint), the traversal does not.
    let before_main = stats.phase_counters.index.kernel_launches
        + stats.phase_counters.preprocess.kernel_launches;
    let plan = FaultPlan::new(DATA_SEED).with_kernel_panic_at(before_main, 0);
    let device = Device::new(DeviceConfig::sequential().with_fault_plan(plan));
    let mut ckpt = checkpoint_for(FDBSCAN_ALGORITHM, &points, params);
    let death = run_to_death(&device, &points, params, &mut ckpt);
    println!("\nrun killed: {death}");
    println!("checkpointed phases at death: {:?}", ckpt.phase_names());

    let ckpt_path = ckpt.save_to_dir(&dir).expect("save checkpoint");
    let manifest =
        build_manifest(RUN_ID, FDBSCAN_ALGORITHM, &points, params, DATA_SEED, &device, &ckpt);
    let manifest_path = manifest.save_to_dir(&dir).expect("save manifest");
    println!("saved {} and {}", ckpt_path.display(), manifest_path.display());

    // --- 2. replay from the manifest alone -------------------------------
    // Pretend this is a different process days later: all it has is the
    // directory and the run id.
    let loaded = RunManifest::load_from_dir(&dir, RUN_ID).expect("load manifest");
    println!("\nreplaying from manifest:\n{}", loaded.to_pretty());

    let re_points = dataset(loaded.data_seed);
    let re_params = Params::new(loaded.eps(), loaded.minpts as usize);
    assert_eq!(
        run_fingerprint(&re_points, re_params),
        loaded.fingerprint,
        "dataset rebuilt from the seed must fingerprint identically"
    );
    let mut re_config =
        DeviceConfig::sequential().with_workers(loaded.workers).with_block_size(loaded.block_size);
    if let Some(plan) = loaded.fault_plan.clone() {
        re_config = re_config.with_fault_plan(plan);
    }
    let re_device = Device::new(re_config);
    let mut re_ckpt = checkpoint_for(&loaded.algorithm, &re_points, re_params);
    let re_death = run_to_death(&re_device, &re_points, re_params, &mut re_ckpt);
    println!("replayed run died identically: {re_death}");

    // Bit-identical replay: every phase the original run completed
    // hashes to exactly the same value the manifest recorded.
    let replayed: std::collections::HashMap<_, _> = re_ckpt.phase_hashes().into_iter().collect();
    for (phase, recorded) in &loaded.phase_hashes {
        let got = replayed.get(phase).copied();
        assert_eq!(
            got,
            Some(*recorded),
            "phase '{phase}' hash mismatch: recorded {recorded:#018x}, replayed {got:?}"
        );
        println!("phase '{phase}': hash {recorded:#018x} reproduced");
    }

    // --- 3. resume the replayed run on a healthy device ------------------
    let resume_device = Device::new(DeviceConfig::sequential());
    let (recovered, _) =
        fdbscan_run_from(&resume_device, &re_points, re_params, Default::default(), &mut re_ckpt)
            .expect("resume");
    assert_core_equivalent(&expected, &recovered);
    let resumed_launches = resume_device.counters().snapshot().kernel_launches;
    println!(
        "\nresumed run: {} clusters (matches the uninterrupted run), \
         {resumed_launches} launches vs {total_launches} from scratch",
        recovered.num_clusters
    );
}

/// Runs to the injected fault, returning a description of the death.
/// Faults in fallible kernels surface as `Err`; faults landing in
/// infrastructure kernels on the infallible API unwind — either way the
/// checkpoint retains every phase completed before the fault.
fn run_to_death(
    device: &Device,
    points: &[Point2],
    params: Params,
    ckpt: &mut PipelineCheckpoint,
) -> String {
    // Silence the default hook while dying on purpose: the death is
    // the demonstration, not a bug to backtrace.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        fdbscan_run_from(device, points, params, Default::default(), ckpt)
    }));
    std::panic::set_hook(hook);
    match outcome {
        Ok(Ok(_)) => panic!("the fault plan should have killed this run"),
        Ok(Err(err)) => format!("{err}"),
        Err(payload) => match payload.downcast_ref::<String>() {
            Some(s) => s.clone(),
            None => "kernel panic".to_string(),
        },
    }
}
