//! Phase-level checkpoint/resume for pipeline runs.
//!
//! Every algorithm in the workspace runs as a short sequence of batched
//! phases (build index → determine cores → cluster cores → cluster
//! borders). Each phase boundary is a natural resume point: the phase
//! output (a BVH, a dense-cell grid, union-find parents, core flags) is
//! a plain value that a later run over the same input can pick up
//! instead of recomputing it. This module provides:
//!
//! * [`Checkpointable`] — phase outputs that can be recorded: cloneable,
//!   tagged with a `KIND` string, and encodable as a [`Json`] tree;
//! * [`PipelineCheckpoint`] — an ordered map of named phase outputs for
//!   one run, held as typed in-memory values and fingerprinted against
//!   the run's input so a stale checkpoint is never resumed against
//!   different data;
//! * [`frame`] / [`unframe`] — a length + FNV-1a checksum header around
//!   any payload, so truncated or corrupted bytes are *detected and
//!   discarded* instead of trusted;
//! * [`PipelineCheckpoint::save_to_dir`] — an atomic write of the
//!   checkpoint's framed JSON, kept for inspection;
//! * [`RunManifest`] — the companion record (seed, params, fault plan,
//!   per-phase content hashes) that makes a failed run replayable
//!   bit-for-bit on a sequential device.
//!
//! JSON is produced only where bytes leave the process: phase content
//! hashes, [`PipelineCheckpoint::to_bytes`] and the saved file. Resuming
//! never decodes; it clones the recorded value.
//!
//! The checkpoint only carries *phase outputs*, never device state:
//! resuming replays the remaining phases on a fresh device, so counters
//! and traces of a resumed run reflect only the work actually redone.

use std::any::Any;
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::fault::FaultPlan;
use crate::json::{self, Json};

/// Magic tag opening every framed payload.
const MAGIC: &str = "FDBSCANCKPT";
/// Byte-format version.
const VERSION: u32 = 1;

/// Errors from snapshot decoding or the on-disk store.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// The byte stream or JSON payload is malformed, truncated, or
    /// fails its checksum.
    Corrupt(String),
    /// Filesystem error from the on-disk store.
    Io(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Corrupt(why) => write!(f, "corrupt checkpoint: {why}"),
            SnapshotError::Io(why) => write!(f, "checkpoint io: {why}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Atomically replaces `path` with `bytes`: write a uniquely named
/// temporary sibling, then rename over the target. The tmp name mixes
/// the process id with a process-wide sequence number so concurrent
/// writers (several runs saving into one directory) never share a tmp
/// file; a kill mid-write leaves at worst a stray
/// `.tmp`, never a torn target for a reader to trip over.
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), SnapshotError> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let file_name = path.file_name().and_then(|n| n.to_str()).unwrap_or("snapshot");
    let tmp = path.with_file_name(format!("{file_name}.{}.{seq}.tmp", std::process::id()));
    std::fs::write(&tmp, bytes).map_err(|e| SnapshotError::Io(e.to_string()))?;
    std::fs::rename(&tmp, path).map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        SnapshotError::Io(e.to_string())
    })
}

/// FNV-1a 64-bit hash — the integrity checksum of the byte format and
/// the per-phase content hash of [`RunManifest`]. Small, dependency-free
/// and stable across platforms.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Wraps `payload` in the byte format: a one-line header
/// `FDBSCANCKPT <version> <payload-len> <fnv1a-64 hex>` followed by the
/// payload itself. The length and checksum let [`unframe`] reject
/// truncation and corruption before any payload is trusted.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let header = format!("{MAGIC} {VERSION} {} {:016x}\n", payload.len(), fnv1a_64(payload));
    let mut bytes = header.into_bytes();
    bytes.extend_from_slice(payload);
    bytes
}

/// Verifies the header [`frame`] wrote — magic, version, length and
/// checksum — and returns the payload it guards.
pub fn unframe(bytes: &[u8]) -> Result<&[u8], SnapshotError> {
    let newline =
        bytes.iter().position(|&b| b == b'\n').ok_or_else(|| corrupt("missing header line"))?;
    let header =
        std::str::from_utf8(&bytes[..newline]).map_err(|_| corrupt("header is not UTF-8"))?;
    let mut fields = header.split_ascii_whitespace();
    if fields.next() != Some(MAGIC) {
        return Err(corrupt("bad magic"));
    }
    let version: u32 =
        fields.next().and_then(|f| f.parse().ok()).ok_or_else(|| corrupt("bad version field"))?;
    if version != VERSION {
        return Err(corrupt(&format!("unsupported version {version}")));
    }
    let len: usize =
        fields.next().and_then(|f| f.parse().ok()).ok_or_else(|| corrupt("bad length field"))?;
    let checksum = fields
        .next()
        .and_then(|f| u64::from_str_radix(f, 16).ok())
        .ok_or_else(|| corrupt("bad checksum field"))?;
    if fields.next().is_some() {
        return Err(corrupt("trailing header fields"));
    }
    let payload = &bytes[newline + 1..];
    if payload.len() != len {
        return Err(corrupt(&format!(
            "payload length {} does not match header {len} (truncated?)",
            payload.len()
        )));
    }
    if fnv1a_64(payload) != checksum {
        return Err(corrupt("checksum mismatch"));
    }
    Ok(payload)
}

/// A phase output that a [`PipelineCheckpoint`] can hold.
///
/// The checkpoint keeps a clone of the value as recorded and hands out
/// clones on restore, so `Clone` must produce an independent copy —
/// one that later mutation of the original (through atomics included)
/// cannot reach. `KIND` is a stable tag written next to the encoded
/// data, and [`Checkpointable::to_snapshot`] is the encoding behind
/// phase hashes and the saved file.
pub trait Checkpointable: Clone + Send + Sync + 'static {
    /// Stable type tag recorded with every snapshot of this type.
    const KIND: &'static str;

    /// Captures the value as a JSON tree.
    fn to_snapshot(&self) -> Json;
}

/// A recorded phase output with its type erased.
trait Artifact: Send + Sync {
    fn kind(&self) -> &'static str;
    fn encode(&self) -> Json;
    fn as_any(&self) -> &dyn Any;
}

impl<T: Checkpointable> Artifact for T {
    fn kind(&self) -> &'static str {
        T::KIND
    }

    fn encode(&self) -> Json {
        self.to_snapshot()
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

// ---------------------------------------------------------------------
// Encoding helpers shared by `Checkpointable` impls across the
// workspace. Floats are stored as raw bit patterns so every value —
// including infinities in degenerate bounds — is written exactly.
// ---------------------------------------------------------------------

/// Encodes a `u32` slice as a JSON array.
pub fn u32s_to_json(values: &[u32]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::U64(v as u64)).collect())
}

/// Decodes a JSON array into a `u32` vector.
pub fn json_to_u32s(value: &Json) -> Result<Vec<u32>, SnapshotError> {
    let items = value.as_arr().ok_or_else(|| corrupt("expected a u32 array"))?;
    items
        .iter()
        .map(|item| match item {
            Json::U64(v) if *v <= u32::MAX as u64 => Ok(*v as u32),
            _ => Err(corrupt("u32 array holds a non-u32 entry")),
        })
        .collect()
}

/// Encodes a `u64` slice as a JSON array.
pub fn u64s_to_json(values: &[u64]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::U64(v)).collect())
}

/// Encodes an `i64` slice as a JSON array.
pub fn i64s_to_json(values: &[i64]) -> Json {
    Json::Arr(
        values.iter().map(|&v| if v >= 0 { Json::U64(v as u64) } else { Json::I64(v) }).collect(),
    )
}

/// Encodes an `f32` slice as a JSON array of raw bit patterns
/// (exact, non-finite values included).
pub fn f32s_to_json(values: &[f32]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::U64(v.to_bits() as u64)).collect())
}

/// Encodes a `bool` slice as a JSON array.
pub fn bools_to_json(values: &[bool]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::Bool(v)).collect())
}

/// Extracts a required `u64` field of an object.
pub fn req_u64(value: &Json, key: &str) -> Result<u64, SnapshotError> {
    match value.get(key) {
        Some(Json::U64(v)) => Ok(*v),
        _ => Err(corrupt(&format!("missing u64 field '{key}'"))),
    }
}

/// Extracts a required string field of an object.
pub fn req_str<'a>(value: &'a Json, key: &str) -> Result<&'a str, SnapshotError> {
    value
        .get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| corrupt(&format!("missing string field '{key}'")))
}

/// Extracts a required field of an object.
pub fn req_field<'a>(value: &'a Json, key: &str) -> Result<&'a Json, SnapshotError> {
    value.get(key).ok_or_else(|| corrupt(&format!("missing field '{key}'")))
}

fn corrupt(why: &str) -> SnapshotError {
    SnapshotError::Corrupt(why.to_string())
}

/// Named phase outputs of one pipeline run, in completion order.
///
/// A checkpoint is created empty with the run's `algorithm` name and an
/// input `fingerprint` (hash of the points and parameters — see
/// `fdbscan::checkpoint::run_fingerprint`). Phases [`record`] their
/// output as they complete; a `run_from` entry point [`restore`]s
/// completed phases and re-executes only the rest. A fingerprint
/// mismatch means the checkpoint belongs to a different input and must
/// be discarded, never resumed.
///
/// Each phase output is held as the typed value it is: `record` stores
/// a clone and `restore` returns one, so a recorded output is frozen at
/// record time. Cloning a checkpoint shares the recorded values.
///
/// [`record`]: PipelineCheckpoint::record
/// [`restore`]: PipelineCheckpoint::restore
#[derive(Clone)]
pub struct PipelineCheckpoint {
    algorithm: String,
    fingerprint: u64,
    phases: Vec<(String, Arc<dyn Artifact>)>,
}

impl fmt::Debug for PipelineCheckpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let phases: Vec<_> = self.phases.iter().map(|(name, a)| (name, a.kind())).collect();
        f.debug_struct("PipelineCheckpoint")
            .field("algorithm", &self.algorithm)
            .field("fingerprint", &self.fingerprint)
            .field("phases", &phases)
            .finish()
    }
}

impl PipelineCheckpoint {
    /// Creates an empty checkpoint for a run of `algorithm` over input
    /// with the given `fingerprint`.
    pub fn new(algorithm: impl Into<String>, fingerprint: u64) -> Self {
        Self { algorithm: algorithm.into(), fingerprint, phases: Vec::new() }
    }

    /// The algorithm this checkpoint belongs to.
    pub fn algorithm(&self) -> &str {
        &self.algorithm
    }

    /// The input fingerprint the checkpoint was recorded against.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Number of recorded phases.
    pub fn len(&self) -> usize {
        self.phases.len()
    }

    /// Whether no phase has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.phases.is_empty()
    }

    /// Recorded phase names, in completion order.
    pub fn phase_names(&self) -> Vec<&str> {
        self.phases.iter().map(|(name, _)| name.as_str()).collect()
    }

    /// Whether a phase output named `name` is recorded.
    pub fn has_phase(&self, name: &str) -> bool {
        self.artifact(name).is_some()
    }

    fn artifact(&self, name: &str) -> Option<&dyn Artifact> {
        self.phases.iter().find(|(n, _)| n == name).map(|(_, a)| a.as_ref())
    }

    /// Records (or replaces) the output of phase `name` as a clone of
    /// `value`.
    pub fn record<T: Checkpointable>(&mut self, name: &str, value: &T) {
        let artifact: Arc<dyn Artifact> = Arc::new(value.clone());
        match self.phases.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = artifact,
            None => self.phases.push((name.to_string(), artifact)),
        }
    }

    /// A clone of the output of phase `name`, or `None` when the phase
    /// is absent or holds another type — resume semantics recompute
    /// whatever cannot be restored.
    pub fn restore<T: Checkpointable>(&self, name: &str) -> Option<T> {
        self.artifact(name)?.as_any().downcast_ref::<T>().cloned()
    }

    /// Content hash (FNV-1a 64 over kind + serialized data) of phase
    /// `name`. The manifest records these so a replay can verify it
    /// reproduced each phase bit-identically.
    pub fn phase_hash(&self, name: &str) -> Option<u64> {
        let artifact = self.artifact(name)?;
        let mut material = artifact.kind().to_string();
        material.push('\0');
        material.push_str(&artifact.encode().to_compact());
        Some(fnv1a_64(material.as_bytes()))
    }

    /// All `(phase name, content hash)` pairs in completion order.
    pub fn phase_hashes(&self) -> Vec<(String, u64)> {
        self.phases
            .iter()
            .map(|(name, _)| (name.clone(), self.phase_hash(name).unwrap_or(0)))
            .collect()
    }

    /// Keeps only the first `keep` phases — the chaos harness uses this
    /// to simulate a run killed at an arbitrary phase boundary.
    pub fn truncate_to(&mut self, keep: usize) {
        self.phases.truncate(keep);
    }

    /// The checkpoint as a JSON tree, every phase output encoded.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("algorithm", Json::str(self.algorithm.clone())),
            ("fingerprint", Json::U64(self.fingerprint)),
            (
                "phases",
                Json::Arr(
                    self.phases
                        .iter()
                        .map(|(name, artifact)| {
                            Json::obj([
                                ("name", Json::str(name.clone())),
                                ("kind", Json::str(artifact.kind())),
                                ("data", artifact.encode()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// The on-disk byte format: the compact JSON of
    /// [`PipelineCheckpoint::to_json`] behind a [`frame`] header.
    pub fn to_bytes(&self) -> Vec<u8> {
        frame(self.to_json().to_compact().as_bytes())
    }

    /// Canonical file name of this checkpoint in a checkpoint
    /// directory: `<algorithm>-<fingerprint>.ckpt`.
    pub fn file_name(&self) -> String {
        format!("{}-{:016x}.ckpt", self.algorithm, self.fingerprint)
    }

    /// Writes [`PipelineCheckpoint::to_bytes`] into `dir` (created if
    /// missing) under its canonical file name, atomically (unique
    /// temporary file + rename) so a crash mid-write leaves either the
    /// old file or none, even with concurrent writers in one dir. The
    /// file is a record for inspection; no run resumes from it.
    pub fn save_to_dir(&self, dir: &Path) -> Result<PathBuf, SnapshotError> {
        std::fs::create_dir_all(dir).map_err(|e| SnapshotError::Io(e.to_string()))?;
        let path = dir.join(self.file_name());
        write_atomic(&path, &self.to_bytes())?;
        Ok(path)
    }
}

/// Everything needed to re-execute a run for debugging: the dataset
/// seed and shape, the parameters, the device geometry, the fault plan
/// that killed it, and the content hash of every phase the run
/// completed. Written alongside a checkpoint; `examples/replay_run.rs`
/// reconstructs the run from it and verifies each replayed phase hash
/// matches bit-for-bit (on a sequential device, where execution order
/// is deterministic).
#[derive(Clone, Debug, PartialEq)]
pub struct RunManifest {
    /// Caller-chosen identifier, used as the manifest file stem.
    pub run_id: String,
    /// Algorithm name (matches the checkpoint's).
    pub algorithm: String,
    /// Dataset dimensionality.
    pub dims: u64,
    /// Number of points.
    pub n: u64,
    /// `eps` as raw f32 bits (exact).
    pub eps_bits: u32,
    /// `minpts`.
    pub minpts: u64,
    /// Seed the dataset was generated from.
    pub data_seed: u64,
    /// Input fingerprint (matches the checkpoint's).
    pub fingerprint: u64,
    /// Device worker count (0 = sequential).
    pub workers: usize,
    /// Device block size.
    pub block_size: usize,
    /// The fault plan active during the run, if any.
    pub fault_plan: Option<FaultPlan>,
    /// `(phase name, content hash)` of every completed phase.
    pub phase_hashes: Vec<(String, u64)>,
}

impl RunManifest {
    /// The `eps` value this manifest records.
    pub fn eps(&self) -> f32 {
        f32::from_bits(self.eps_bits)
    }

    /// The manifest as a JSON tree.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("run_id", Json::str(self.run_id.clone())),
            ("algorithm", Json::str(self.algorithm.clone())),
            ("dims", Json::U64(self.dims)),
            ("n", Json::U64(self.n)),
            ("eps_bits", Json::U64(self.eps_bits as u64)),
            ("eps", Json::f32(self.eps())),
            ("minpts", Json::U64(self.minpts)),
            ("data_seed", Json::U64(self.data_seed)),
            ("fingerprint", Json::U64(self.fingerprint)),
            ("workers", Json::U64(self.workers as u64)),
            ("block_size", Json::U64(self.block_size as u64)),
            (
                "fault_plan",
                match &self.fault_plan {
                    Some(plan) => plan.to_json(),
                    None => Json::Null,
                },
            ),
            (
                "phase_hashes",
                Json::Obj(
                    self.phase_hashes
                        .iter()
                        .map(|(name, hash)| (name.clone(), Json::U64(*hash)))
                        .collect::<BTreeMap<_, _>>(),
                ),
            ),
            (
                "phase_order",
                Json::Arr(
                    self.phase_hashes.iter().map(|(name, _)| Json::str(name.clone())).collect(),
                ),
            ),
        ])
    }

    /// Rebuilds a manifest from its JSON tree.
    pub fn from_json(value: &Json) -> Result<Self, SnapshotError> {
        let eps_bits = req_u64(value, "eps_bits")?;
        if eps_bits > u32::MAX as u64 {
            return Err(corrupt("eps_bits exceeds 32 bits"));
        }
        let fault_plan = match req_field(value, "fault_plan")? {
            Json::Null => None,
            plan => Some(FaultPlan::from_json(plan).map_err(|e| corrupt(&e))?),
        };
        let hashes = req_field(value, "phase_hashes")?;
        let order = req_field(value, "phase_order")?
            .as_arr()
            .ok_or_else(|| corrupt("'phase_order' is not an array"))?;
        let mut phase_hashes = Vec::with_capacity(order.len());
        for name in order {
            let name = name.as_str().ok_or_else(|| corrupt("phase name is not a string"))?;
            phase_hashes.push((name.to_string(), req_u64(hashes, name)?));
        }
        Ok(Self {
            run_id: req_str(value, "run_id")?.to_string(),
            algorithm: req_str(value, "algorithm")?.to_string(),
            dims: req_u64(value, "dims")?,
            n: req_u64(value, "n")?,
            eps_bits: eps_bits as u32,
            minpts: req_u64(value, "minpts")?,
            data_seed: req_u64(value, "data_seed")?,
            fingerprint: req_u64(value, "fingerprint")?,
            workers: req_u64(value, "workers")? as usize,
            block_size: req_u64(value, "block_size")? as usize,
            fault_plan,
            phase_hashes,
        })
    }

    /// Pretty-printed manifest — what a failing chaos test prints so
    /// the scenario can be replayed locally.
    pub fn to_pretty(&self) -> String {
        self.to_json().to_pretty(2)
    }

    /// Writes the manifest into `dir` as `<run_id>.manifest.json`,
    /// atomically (unique temporary file + rename) — a manifest is what
    /// makes a failed run replayable, so it gets the same torn-write
    /// protection as the checkpoint it accompanies.
    pub fn save_to_dir(&self, dir: &Path) -> Result<PathBuf, SnapshotError> {
        std::fs::create_dir_all(dir).map_err(|e| SnapshotError::Io(e.to_string()))?;
        let path = dir.join(format!("{}.manifest.json", self.run_id));
        write_atomic(&path, self.to_pretty().as_bytes())?;
        Ok(path)
    }

    /// Loads `<run_id>.manifest.json` from `dir`.
    pub fn load_from_dir(dir: &Path, run_id: &str) -> Result<Self, SnapshotError> {
        let path = dir.join(format!("{run_id}.manifest.json"));
        let text = std::fs::read_to_string(&path).map_err(|e| SnapshotError::Io(e.to_string()))?;
        let value = json::parse(&text).map_err(|e| corrupt(&format!("manifest parse: {e}")))?;
        Self::from_json(&value)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU32, Ordering};

    use super::*;

    #[derive(Clone, Debug, PartialEq)]
    struct Flags(Vec<bool>);

    impl Checkpointable for Flags {
        const KIND: &'static str = "test.flags";

        fn to_snapshot(&self) -> Json {
            bools_to_json(&self.0)
        }
    }

    #[derive(Clone, Debug, PartialEq)]
    struct Labels(Vec<u32>);

    impl Checkpointable for Labels {
        const KIND: &'static str = "test.labels";

        fn to_snapshot(&self) -> Json {
            u32s_to_json(&self.0)
        }
    }

    /// A value with interior mutability: its clone is a relaxed copy.
    #[derive(Debug)]
    struct Tally(AtomicU32);

    impl Clone for Tally {
        fn clone(&self) -> Self {
            Tally(AtomicU32::new(self.0.load(Ordering::Relaxed)))
        }
    }

    impl Checkpointable for Tally {
        const KIND: &'static str = "test.tally";

        fn to_snapshot(&self) -> Json {
            Json::U64(self.0.load(Ordering::Relaxed) as u64)
        }
    }

    fn sample() -> PipelineCheckpoint {
        let mut ckpt = PipelineCheckpoint::new("fdbscan", 0xdead_beef);
        ckpt.record("preprocess", &Flags(vec![true, false, true]));
        ckpt.record("main", &Labels(vec![0, 0, 2]));
        ckpt
    }

    #[test]
    fn record_restore_round_trip() {
        let ckpt = sample();
        assert_eq!(ckpt.len(), 2);
        assert!(ckpt.has_phase("preprocess"));
        assert!(!ckpt.has_phase("index"));
        assert_eq!(ckpt.restore::<Flags>("preprocess"), Some(Flags(vec![true, false, true])));
        assert_eq!(ckpt.restore::<Labels>("main"), Some(Labels(vec![0, 0, 2])));
        assert_eq!(ckpt.restore::<Labels>("absent"), None);
    }

    #[test]
    fn kind_mismatch_is_reported_and_discarded() {
        // A phase holding another type restores as absent, so the
        // caller recomputes it; the entry itself stays recorded.
        let ckpt = sample();
        assert_eq!(ckpt.restore::<Labels>("preprocess"), None);
        assert_eq!(ckpt.restore::<Flags>("main"), None);
        assert!(ckpt.has_phase("preprocess"));
        assert!(format!("{ckpt:?}").contains("test.flags"), "{ckpt:?}");
    }

    #[test]
    fn recorded_values_are_frozen_copies() {
        let tally = Tally(AtomicU32::new(3));
        let mut ckpt = PipelineCheckpoint::new("fdbscan", 1);
        ckpt.record("main", &tally);
        let hash = ckpt.phase_hash("main");
        tally.0.store(9, Ordering::Relaxed);
        let restored = ckpt.restore::<Tally>("main").unwrap();
        assert_eq!(restored.0.load(Ordering::Relaxed), 3, "restore returns the recorded value");
        // Mutating a restored copy reaches neither the record nor its hash.
        restored.0.store(7, Ordering::Relaxed);
        assert_eq!(ckpt.restore::<Tally>("main").unwrap().0.load(Ordering::Relaxed), 3);
        assert_eq!(ckpt.phase_hash("main"), hash);
    }

    #[test]
    fn re_recording_replaces_in_place() {
        let mut ckpt = sample();
        ckpt.record("preprocess", &Flags(vec![false]));
        assert_eq!(ckpt.len(), 2);
        assert_eq!(ckpt.phase_names(), vec!["preprocess", "main"]);
        assert_eq!(ckpt.restore::<Flags>("preprocess"), Some(Flags(vec![false])));
    }

    #[test]
    fn byte_format_round_trips() {
        let ckpt = sample();
        let bytes = ckpt.to_bytes();
        let payload = unframe(&bytes).unwrap();
        assert_eq!(payload, ckpt.to_json().to_compact().as_bytes());
        let parsed = json::parse(std::str::from_utf8(payload).unwrap()).unwrap();
        assert_eq!(parsed, ckpt.to_json());
        assert_eq!(frame(payload), bytes);
    }

    #[test]
    fn truncated_bytes_are_rejected() {
        let bytes = sample().to_bytes();
        for cut in [0, 5, bytes.len() / 2, bytes.len() - 1] {
            assert!(unframe(&bytes[..cut]).is_err(), "truncation at {cut} must be detected");
        }
    }

    #[test]
    fn corrupted_payload_fails_checksum() {
        let mut bytes = sample().to_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x20; // flip a bit inside the payload
        match unframe(&bytes) {
            Err(SnapshotError::Corrupt(why)) => assert!(why.contains("checksum"), "got: {why}"),
            other => panic!("expected corruption error, got {other:?}"),
        }
    }

    #[test]
    fn corrupted_header_is_rejected() {
        let bytes = sample().to_bytes();
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(unframe(&bad_magic).is_err());
        // Declared length longer than the actual payload (truncation).
        let text = String::from_utf8(bytes).unwrap();
        let inflated =
            text.replacen(&format!(" {} ", sample().to_json().to_compact().len()), " 999999 ", 1);
        assert!(unframe(inflated.as_bytes()).is_err());
    }

    #[test]
    fn phase_hashes_are_content_hashes() {
        let ckpt = sample();
        let h1 = ckpt.phase_hash("preprocess").unwrap();
        let mut changed = ckpt.clone();
        changed.record("preprocess", &Flags(vec![true, true, true]));
        assert_ne!(changed.phase_hash("preprocess").unwrap(), h1);
        assert_eq!(ckpt.phase_hash("preprocess").unwrap(), h1, "clones record independently");
        assert_eq!(ckpt.phase_hashes().len(), 2);
    }

    #[test]
    fn truncate_to_simulates_partial_runs() {
        let mut ckpt = sample();
        ckpt.truncate_to(1);
        assert_eq!(ckpt.phase_names(), vec!["preprocess"]);
        ckpt.truncate_to(0);
        assert!(ckpt.is_empty());
    }

    #[test]
    fn concurrent_saves_never_tear_the_checkpoint() {
        // Many threads rewriting the same checkpoint file: every read
        // observed in between must be a complete, checksum-valid file
        // (the unique-tmp + rename discipline at work).
        let dir = std::env::temp_dir().join(format!("fdbscan-ckpt-race-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ckpt = sample();
        let path = ckpt.save_to_dir(&dir).unwrap();
        let expected = ckpt.to_bytes();
        let writers: Vec<_> = (0..4)
            .map(|_| {
                let ckpt = ckpt.clone();
                let dir = dir.clone();
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        ckpt.save_to_dir(&dir).unwrap();
                    }
                })
            })
            .collect();
        for _ in 0..100 {
            let bytes = std::fs::read(&path).expect("reader saw a missing checkpoint");
            assert!(unframe(&bytes).is_ok(), "reader saw a torn checkpoint");
            assert_eq!(bytes, expected);
        }
        for w in writers {
            w.join().unwrap();
        }
        // No stray tmp files once all writers have renamed.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
            .collect();
        assert!(leftovers.is_empty(), "stray tmp files: {leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_save_is_atomic_and_loadable() {
        let dir =
            std::env::temp_dir().join(format!("fdbscan-manifest-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let manifest = RunManifest {
            run_id: "atomic-1".to_string(),
            algorithm: "fdbscan".to_string(),
            dims: 2,
            n: 100,
            eps_bits: 0.1f32.to_bits(),
            minpts: 4,
            data_seed: 7,
            fingerprint: 0x1234,
            workers: 2,
            block_size: 64,
            fault_plan: None,
            phase_hashes: vec![("index".to_string(), 1)],
        };
        let path = manifest.save_to_dir(&dir).unwrap();
        assert_eq!(RunManifest::load_from_dir(&dir, "atomic-1").unwrap(), manifest);
        // Overwrite goes through the same rename path.
        manifest.save_to_dir(&dir).unwrap();
        assert!(path.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_round_trips_with_fault_plan() {
        let manifest = RunManifest {
            run_id: "chaos-7".to_string(),
            algorithm: "densebox".to_string(),
            dims: 2,
            n: 400,
            eps_bits: 0.05f32.to_bits(),
            minpts: 4,
            data_seed: 99,
            fingerprint: 0xabcd,
            workers: 0,
            block_size: 64,
            fault_plan: Some(FaultPlan::new(7).with_kernel_panic_at(12, 0).with_rank_failure(1, 2)),
            phase_hashes: vec![("index".to_string(), 11), ("preprocess".to_string(), 22)],
        };
        let text = manifest.to_pretty();
        let parsed = RunManifest::from_json(&json::parse(&text).unwrap()).unwrap();
        assert_eq!(parsed, manifest);
        assert_eq!(parsed.eps(), 0.05);
    }
}
