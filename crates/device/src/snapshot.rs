//! Phase-level checkpoint/resume for pipeline runs.
//!
//! Every algorithm in the workspace runs as a short sequence of batched
//! phases (build index → determine cores → cluster cores → cluster
//! borders). Each phase boundary is a natural resume point: the phase
//! output (a BVH, a dense-cell grid, union-find parents, core flags) is
//! a plain value that a later run over the same input can pick up
//! instead of recomputing it. This module provides:
//!
//! * [`Checkpointable`] — phase outputs that can be recorded: any
//!   `Clone + Hash + Send + Sync + 'static` type;
//! * [`PipelineCheckpoint`] — an ordered map of named phase outputs for
//!   one run, held as typed in-memory values. A checkpoint handed to a
//!   public `run_from` entry point carries the fingerprint of the input
//!   it was made for, so a stale one is never resumed against different
//!   data;
//! * [`Fnv1a`] — the one hasher behind phase content hashes, input
//!   fingerprints and frame checksums;
//! * [`frame`] / [`unframe`] — a length + FNV-1a checksum header around
//!   any payload, so truncated or corrupted bytes are *detected and
//!   discarded* instead of trusted;
//! * [`RunManifest`] — the on-disk record of a run (seed, params, device
//!   geometry, fault plan, per-phase content hashes) that makes a failed
//!   run replayable bit-for-bit on a sequential device.
//!
//! Nothing encodes a phase output: resuming clones the recorded value,
//! and a phase hash feeds the value itself through [`Hash`].
//!
//! The checkpoint only carries *phase outputs*, never device state:
//! resuming replays the remaining phases on a fresh device, so counters
//! and traces of a resumed run reflect only the work actually redone.

use std::any::Any;
use std::collections::BTreeMap;
use std::fmt;
use std::hash::{Hash, Hasher};
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

/// FNV-1a 64-bit as a [`Hasher`]: the integrity checksum of the byte
/// format ([`fnv1a_64`]), the per-phase content hash of [`RunManifest`]
/// and the input fingerprint. Small and dependency-free.
///
/// Values reach it through [`Hash`], which writes integers in native
/// byte order and lengths as `usize`: hashes compare equal between runs
/// of one build, the comparison a replay makes.
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv1a {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a 64-bit hash of a byte string.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut hash = Fnv1a::default();
    hash.write(bytes);
    hash.finish()
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

/// A phase output that a [`PipelineCheckpoint`] can hold: every
/// `Clone + Hash + Send + Sync + 'static` type is one.
///
/// The checkpoint keeps a clone of the value as recorded and hands out
/// clones on restore, so `Clone` must produce an independent copy —
/// one that later mutation of the original (through atomics included)
/// cannot reach. `Hash` feeds the phase's content hash, so it must hash
/// every value the phase hands on (`f32`s by bit pattern).
pub trait Checkpointable: Clone + Hash + Send + Sync + 'static {}

impl<T: Clone + Hash + Send + Sync + 'static> Checkpointable for T {}

/// A recorded phase output with its type erased.
trait Artifact: Send + Sync {
    fn kind(&self) -> &'static str;
    fn content_hash(&self) -> u64;
    fn as_any(&self) -> &dyn Any;
}

impl<T: Checkpointable> Artifact for T {
    fn kind(&self) -> &'static str {
        std::any::type_name::<T>()
    }

    fn content_hash(&self) -> u64 {
        let mut hash = Fnv1a::default();
        self.kind().hash(&mut hash);
        self.hash(&mut hash);
        hash.finish()
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

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
/// A checkpoint is created empty with the run's `algorithm` name. One
/// that a caller hands to a `run_from` entry point is made with
/// [`PipelineCheckpoint::for_input`] and the input's fingerprint (see
/// `fdbscan::checkpoint::run_fingerprint`); the entry point resets any
/// checkpoint whose algorithm or fingerprint differs from its run's, so
/// stale state is discarded, never resumed. One that never leaves its
/// run (the resilient ladder's rungs) needs no fingerprint and is made
/// with [`PipelineCheckpoint::new`]. Phases [`record`] their output as
/// they complete; a later run [`restore`]s completed phases and
/// re-executes only the rest.
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
    fingerprint: Option<u64>,
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
    /// Creates an empty checkpoint for a run of `algorithm`, with no
    /// input identity: for a checkpoint that stays with the run that
    /// fills it.
    pub fn new(algorithm: impl Into<String>) -> Self {
        Self { algorithm: algorithm.into(), fingerprint: None, phases: Vec::new() }
    }

    /// Creates an empty checkpoint for a run of `algorithm` over the
    /// input with the given `fingerprint`.
    pub fn for_input(algorithm: impl Into<String>, fingerprint: u64) -> Self {
        Self { fingerprint: Some(fingerprint), ..Self::new(algorithm) }
    }

    /// The algorithm this checkpoint belongs to.
    pub fn algorithm(&self) -> &str {
        &self.algorithm
    }

    /// The input fingerprint the checkpoint was made for, if it has one.
    pub fn fingerprint(&self) -> Option<u64> {
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

    /// Content hash of phase `name`: its type name and its value fed
    /// through [`Hash`] into [`Fnv1a`]. The manifest records these so a
    /// replay can verify it reproduced each phase bit-identically.
    pub fn phase_hash(&self, name: &str) -> Option<u64> {
        Some(self.artifact(name)?.content_hash())
    }

    /// All `(phase name, content hash)` pairs in completion order.
    pub fn phase_hashes(&self) -> Vec<(String, u64)> {
        self.phases.iter().map(|(name, artifact)| (name.clone(), artifact.content_hash())).collect()
    }

    /// Keeps only the first `keep` phases — the chaos harness uses this
    /// to simulate a run killed at an arbitrary phase boundary.
    pub fn truncate_to(&mut self, keep: usize) {
        self.phases.truncate(keep);
    }
}

/// Everything needed to re-execute a run for debugging: the dataset
/// seed and shape, the parameters, the device geometry, the fault plan
/// that killed it, and the content hash of every phase the run
/// completed. `examples/replay_run.rs` saves one, reconstructs the run
/// from it alone and verifies each replayed phase hash matches
/// bit-for-bit (on a sequential device, where execution order is
/// deterministic).
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
    /// Input fingerprint.
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
    /// atomically (unique temporary file + rename): a manifest is what
    /// makes a failed run replayable, so a crash mid-write leaves the
    /// old file or none, even with concurrent writers in one dir.
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

    #[derive(Clone, Debug, PartialEq, Hash)]
    struct Flags(Vec<bool>);

    #[derive(Clone, Debug, PartialEq, Hash)]
    struct Labels(Vec<u32>);

    /// A value with interior mutability: its clone is a relaxed copy,
    /// and it hashes the value it would clone to.
    #[derive(Debug)]
    struct Tally(AtomicU32);

    impl Clone for Tally {
        fn clone(&self) -> Self {
            Tally(AtomicU32::new(self.0.load(Ordering::Relaxed)))
        }
    }

    impl Hash for Tally {
        fn hash<H: Hasher>(&self, state: &mut H) {
            self.0.load(Ordering::Relaxed).hash(state);
        }
    }

    fn sample() -> PipelineCheckpoint {
        let mut ckpt = PipelineCheckpoint::new("fdbscan");
        ckpt.record("preprocess", &Flags(vec![true, false, true]));
        ckpt.record("main", &Labels(vec![0, 0, 2]));
        ckpt
    }

    /// A framed payload for the byte-format tests.
    const PAYLOAD: &[u8] = b"{\"rank\":3,\"edges\":[0,1,1,2]}";

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
    fn input_identity_is_set_only_by_for_input() {
        assert_eq!(sample().fingerprint(), None);
        let ckpt = PipelineCheckpoint::for_input("densebox", 0xdead_beef);
        assert_eq!((ckpt.algorithm(), ckpt.fingerprint()), ("densebox", Some(0xdead_beef)));
        assert!(ckpt.is_empty());
    }

    #[test]
    fn kind_mismatch_is_reported_and_discarded() {
        // A phase holding another type restores as absent, so the
        // caller recomputes it; the entry itself stays recorded.
        let ckpt = sample();
        assert_eq!(ckpt.restore::<Labels>("preprocess"), None);
        assert_eq!(ckpt.restore::<Flags>("main"), None);
        assert!(ckpt.has_phase("preprocess"));
        assert!(format!("{ckpt:?}").contains("tests::Flags"), "{ckpt:?}");
    }

    #[test]
    fn recorded_values_are_frozen_copies() {
        let tally = Tally(AtomicU32::new(3));
        let mut ckpt = PipelineCheckpoint::new("fdbscan");
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
    fn frame_round_trips_a_plain_payload() {
        let bytes = frame(PAYLOAD);
        assert_eq!(unframe(&bytes), Ok(PAYLOAD));
        assert_eq!(unframe(&frame(b"")), Ok(&b""[..]));
    }

    #[test]
    fn truncated_bytes_are_rejected() {
        let bytes = frame(PAYLOAD);
        for cut in [0, 5, bytes.len() / 2, bytes.len() - 1] {
            assert!(unframe(&bytes[..cut]).is_err(), "truncation at {cut} must be detected");
        }
    }

    #[test]
    fn corrupted_payload_fails_checksum() {
        let mut bytes = frame(PAYLOAD);
        let last = bytes.len() - 1;
        bytes[last] ^= 0x20; // flip a bit inside the payload
        match unframe(&bytes) {
            Err(SnapshotError::Corrupt(why)) => assert!(why.contains("checksum"), "got: {why}"),
            other => panic!("expected corruption error, got {other:?}"),
        }
    }

    #[test]
    fn corrupted_header_is_rejected() {
        let bytes = frame(PAYLOAD);
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(unframe(&bad_magic).is_err());
        // Declared length longer than the actual payload (truncation).
        let text = String::from_utf8(bytes).unwrap();
        let inflated = text.replacen(&format!(" {} ", PAYLOAD.len()), " 999999 ", 1);
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
        let hashes = ckpt.phase_hashes();
        assert_eq!(hashes.len(), 2);
        assert_eq!(hashes[1], ("main".to_string(), ckpt.phase_hash("main").unwrap()));
        assert_eq!(ckpt.phase_hash("absent"), None);
    }

    #[test]
    fn phase_hash_covers_every_element_and_the_type() {
        let hash = |labels: Vec<u32>| {
            let mut ckpt = PipelineCheckpoint::new("fdbscan");
            ckpt.record("main", &Labels(labels));
            ckpt.phase_hash("main").unwrap()
        };
        let base = vec![4, 4, 7, u32::MAX, 0];
        assert_eq!(hash(base.clone()), hash(base.clone()), "equal values hash equal");
        for i in 0..base.len() {
            let mut changed = base.clone();
            changed[i] ^= 1;
            assert_ne!(hash(changed), hash(base.clone()), "label {i}");
        }
        assert_ne!(hash(base[..4].to_vec()), hash(base.clone()), "length");
        // The same bytes recorded as another type hash differently.
        let mut ckpt = PipelineCheckpoint::new("fdbscan");
        ckpt.record("flags", &Flags(vec![true]));
        ckpt.record("tally", &Tally(AtomicU32::new(1)));
        ckpt.record("bits", &Labels(vec![1]));
        let [flags, tally, bits] = ["flags", "tally", "bits"].map(|p| ckpt.phase_hash(p));
        assert!(flags != tally && tally != bits && flags != bits);
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
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn concurrent_manifest_saves_never_tear_the_file() {
        // Many threads rewriting the same manifest: every read observed
        // in between must be a complete file (the unique-tmp + rename
        // discipline at work).
        let dir =
            std::env::temp_dir().join(format!("fdbscan-manifest-race-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let manifest = RunManifest { run_id: "race".to_string(), ..manifest() };
        let path = manifest.save_to_dir(&dir).unwrap();
        let expected = manifest.to_pretty().into_bytes();
        let writers: Vec<_> = (0..4)
            .map(|_| {
                let manifest = manifest.clone();
                let dir = dir.clone();
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        manifest.save_to_dir(&dir).unwrap();
                    }
                })
            })
            .collect();
        for _ in 0..100 {
            let bytes = std::fs::read(&path).expect("reader saw a missing manifest");
            assert_eq!(bytes, expected, "reader saw a torn manifest");
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
        assert_eq!(RunManifest::load_from_dir(&dir, "race").unwrap(), manifest);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn manifest() -> RunManifest {
        RunManifest {
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
        }
    }

    #[test]
    fn manifest_save_is_atomic_and_loadable() {
        let dir =
            std::env::temp_dir().join(format!("fdbscan-manifest-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let manifest = manifest();
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
