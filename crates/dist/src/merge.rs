//! Crash-recoverable cross-rank merge.
//!
//! Each rank's contribution to the global clustering is a
//! [`RankSummary`]: its owned core points, a **core edge log** — one
//! `(gid, local_root_gid)` union edge per local core point — and a
//! **border claim log** — one `(border_gid, core_root_gid)` entry per
//! distinct local cluster adjacent to each owned border point. The
//! summary's JSON is framed directly by `device::snapshot::frame`
//! (length + checksum header, plus an inner content checksum over the
//! logs) and put into the [`crate::recovery::SummaryStore`] *before*
//! the merge begins, so the merge is replayable: any coordinator,
//! original or elected after a crash, folds the same logs into the same
//! global labeling.
//!
//! Determinism is structural, not procedural. Core edges feed a
//! union-find whose canonical representative is the *smallest global
//! id* of each connected core set — independent of edge order, rank
//! order, and thread interleaving. Border claims resolve to the
//! *minimum canonical root* across every claim for that border —
//! independent of claim order. Replaying any permutation of the logs,
//! any number of times, yields bit-identical labels; that is what makes
//! coordinator crash recovery a replay rather than a protocol.

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;

use fdbscan_device::json::{self, Json};
use fdbscan_device::snapshot::{
    fnv1a_64, frame, json_to_u32s, req_field, req_u64, u32s_to_json, unframe,
};
use fdbscan_device::{Device, DeviceError, SnapshotError};
use fdbscan_unionfind::AtomicLabels;

use crate::error::DistError;
use crate::recovery::SummaryStore;
use crate::stats::RecoveryLog;

/// One rank's checkpointed contribution to the global merge.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RankSummary {
    /// The contributing rank.
    pub rank: usize,
    /// Global ids of this rank's *owned* core points. Ownership
    /// partitions the point set, so concatenating these across ranks
    /// reconstructs the global core flags exactly.
    pub core_gids: Vec<u32>,
    /// Core edge log: `(gid, local_root_gid)` for every local core
    /// point (owned and ghost), both in global ids.
    pub edges: Vec<(u32, u32)>,
    /// Border claim log: `(border_gid, core_root_gid)` for every
    /// distinct local cluster adjacent to each owned border point.
    pub claims: Vec<(u32, u32)>,
}

fn flatten_pairs(pairs: &[(u32, u32)]) -> Vec<u32> {
    pairs.iter().flat_map(|&(a, b)| [a, b]).collect()
}

fn unflatten_pairs(flat: &[u32]) -> Result<Vec<(u32, u32)>, SnapshotError> {
    if !flat.len().is_multiple_of(2) {
        return Err(SnapshotError::Corrupt("odd pair-list length".to_string()));
    }
    Ok(flat.chunks_exact(2).map(|c| (c[0], c[1])).collect())
}

impl RankSummary {
    /// Content checksum over the logs: the integrity anchor verified on
    /// every decode, over and above the outer frame.
    pub fn log_checksum(&self) -> u64 {
        let mut bytes = Vec::with_capacity(
            8 + 4 * (self.core_gids.len() + 2 * self.edges.len() + 2 * self.claims.len()),
        );
        bytes.extend_from_slice(&(self.rank as u64).to_le_bytes());
        for &gid in &self.core_gids {
            bytes.extend_from_slice(&gid.to_le_bytes());
        }
        for &(a, b) in self.edges.iter().chain(&self.claims) {
            bytes.extend_from_slice(&a.to_le_bytes());
            bytes.extend_from_slice(&b.to_le_bytes());
        }
        fnv1a_64(&bytes)
    }

    /// The summary as a JSON tree, its [`RankSummary::log_checksum`]
    /// included.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("rank", Json::U64(self.rank as u64)),
            ("core_gids", u32s_to_json(&self.core_gids)),
            ("edges", u32s_to_json(&flatten_pairs(&self.edges))),
            ("claims", u32s_to_json(&flatten_pairs(&self.claims))),
            ("log_checksum", Json::U64(self.log_checksum())),
        ])
    }

    /// Rebuilds a summary from its JSON tree, verifying the recorded
    /// log checksum against the decoded logs.
    pub fn from_json(value: &Json) -> Result<Self, SnapshotError> {
        let summary = Self {
            rank: req_u64(value, "rank")? as usize,
            core_gids: json_to_u32s(req_field(value, "core_gids")?)?,
            edges: unflatten_pairs(&json_to_u32s(req_field(value, "edges")?)?)?,
            claims: unflatten_pairs(&json_to_u32s(req_field(value, "claims")?)?)?,
        };
        let recorded = req_u64(value, "log_checksum")?;
        let actual = summary.log_checksum();
        if recorded != actual {
            return Err(SnapshotError::Corrupt(format!(
                "log checksum mismatch: recorded {recorded:016x}, computed {actual:016x}"
            )));
        }
        Ok(summary)
    }
}

/// Encodes a summary as durable bytes: its compact JSON behind the
/// length + checksum [`frame`] of `device::snapshot`.
pub fn checkpoint_summary(summary: &RankSummary) -> Vec<u8> {
    frame(summary.to_json().to_compact().as_bytes())
}

/// Decodes and integrity-checks durable bytes back into a summary: the
/// outer frame first, then the inner log checksum.
pub fn decode_summary(bytes: &[u8]) -> Result<RankSummary, SnapshotError> {
    let text = std::str::from_utf8(unframe(bytes)?)
        .map_err(|_| SnapshotError::Corrupt("payload is not UTF-8".to_string()))?;
    let value =
        json::parse(text).map_err(|e| SnapshotError::Corrupt(format!("payload parse: {e}")))?;
    RankSummary::from_json(&value)
}

/// Reads every participant's summary back from the durable store,
/// verifying integrity end to end. A summary that is missing or fails
/// its checksums is re-checkpointed from its owner's in-memory copy
/// when the owner is still alive (`summary_refetches` counts these);
/// a damaged summary whose owner is dead is unrecoverable and becomes
/// [`DistError::SummaryCorrupt`].
pub fn fetch_summaries(
    store: &SummaryStore,
    participants: &[usize],
    alive: &[bool],
    in_memory: &[Option<RankSummary>],
    recovery: &RecoveryLog,
) -> Result<Vec<RankSummary>, DistError> {
    let mut out = Vec::with_capacity(participants.len());
    for &rank in participants {
        let decoded = store
            .get(rank)
            .ok_or_else(|| "checkpoint missing from store".to_string())
            .and_then(|bytes| decode_summary(&bytes).map_err(|e| e.to_string()));
        match decoded {
            Ok(summary) => out.push(summary),
            Err(reason) => {
                let owner_alive = alive.get(rank).copied().unwrap_or(false);
                match in_memory.get(rank).and_then(|s| s.as_ref()) {
                    Some(summary) if owner_alive => {
                        store.put(rank, checkpoint_summary(summary));
                        recovery.summary_refetches.fetch_add(1, Ordering::Relaxed);
                        out.push(summary.clone());
                    }
                    _ => return Err(DistError::SummaryCorrupt { rank, reason }),
                }
            }
        }
    }
    Ok(out)
}

/// Folds rank summaries into the global `(labels, core)` pair that
/// [`fdbscan::labels::Clustering::from_union_find`] finalizes.
///
/// Replayable and idempotent: any permutation or repetition of the
/// summaries produces bit-identical output (see the module docs for
/// why). Runs on `device` so merge work lands in that device's
/// counters.
pub fn merge_summaries(
    device: &Device,
    n: usize,
    summaries: &[&RankSummary],
) -> Result<(Vec<u32>, Vec<bool>), DeviceError> {
    let global = AtomicLabels::with_counters(n, device.counters_arc());
    for summary in summaries {
        let edges = &summary.edges;
        let global_ref = &global;
        device.try_launch_named("dist.merge_union", edges.len(), |i| {
            let (a, b) = edges[i];
            global_ref.union(a, b);
        })?;
    }
    // Host-side canonical read: smallest global id of each core set.
    let mut labels = global.canonicalize();
    let mut core = vec![false; n];
    for summary in summaries {
        for &gid in &summary.core_gids {
            core[gid as usize] = true;
        }
    }
    // Border resolution: minimum canonical root over every claim.
    let mut best: BTreeMap<u32, u32> = BTreeMap::new();
    for summary in summaries {
        for &(border, root) in &summary.claims {
            let canonical = labels[root as usize];
            best.entry(border).and_modify(|b| *b = (*b).min(canonical)).or_insert(canonical);
        }
    }
    for (&border, &root) in &best {
        debug_assert!(!core[border as usize], "claims must target non-core points");
        labels[border as usize] = root;
    }
    Ok((labels, core))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdbscan_device::DeviceConfig;

    fn sample() -> RankSummary {
        RankSummary {
            rank: 2,
            core_gids: vec![4, 5, 9],
            edges: vec![(4, 4), (5, 4), (9, 9)],
            claims: vec![(7, 4), (7, 9)],
        }
    }

    #[test]
    fn checkpoint_round_trips() {
        let summary = sample();
        let bytes = checkpoint_summary(&summary);
        assert_eq!(decode_summary(&bytes).unwrap(), summary);
    }

    #[test]
    fn corrupt_bytes_are_rejected() {
        let summary = sample();
        let mut bytes = checkpoint_summary(&summary);
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        assert!(decode_summary(&bytes).is_err(), "outer framing must catch bit flips");
    }

    #[test]
    fn log_checksum_tracks_content() {
        let a = sample();
        let mut b = sample();
        assert_eq!(a.log_checksum(), b.log_checksum());
        b.edges[0].1 = 5;
        assert_ne!(a.log_checksum(), b.log_checksum());
    }

    #[test]
    fn fetch_refetches_from_live_owner_and_fails_for_dead_one() {
        let store = SummaryStore::new();
        let s0 = sample();
        let in_memory = vec![None, None, Some(s0.clone())];
        store.put(2, checkpoint_summary(&s0));

        // Corrupt blob, owner alive: refetched transparently.
        store.corrupt(2);
        let recovery = RecoveryLog::default();
        let fetched =
            fetch_summaries(&store, &[2], &[true, true, true], &in_memory, &recovery).unwrap();
        assert_eq!(fetched, vec![s0.clone()]);
        assert_eq!(recovery.snapshot().summary_refetches, 1);
        assert_eq!(decode_summary(&store.get(2).unwrap()).unwrap(), s0, "store was repaired");

        // Corrupt blob, owner dead: typed error, never a panic.
        store.corrupt(2);
        let err =
            fetch_summaries(&store, &[2], &[true, true, false], &in_memory, &recovery).unwrap_err();
        assert!(matches!(err, DistError::SummaryCorrupt { rank: 2, .. }), "got {err:?}");

        // Missing blob, owner dead: same typed error.
        store.remove(2);
        let err =
            fetch_summaries(&store, &[2], &[true, true, false], &in_memory, &recovery).unwrap_err();
        assert!(matches!(err, DistError::SummaryCorrupt { rank: 2, .. }), "got {err:?}");
    }

    #[test]
    fn merge_is_order_independent_and_idempotent() {
        let device = Device::new(DeviceConfig::default().with_workers(2));
        let s0 = RankSummary {
            rank: 0,
            core_gids: vec![0, 1],
            edges: vec![(0, 0), (1, 0), (3, 3)],
            claims: vec![(2, 0)],
        };
        let s1 = RankSummary {
            rank: 1,
            core_gids: vec![3],
            edges: vec![(3, 3), (1, 1)],
            claims: vec![(2, 3)],
        };
        let forward = merge_summaries(&device, 5, &[&s0, &s1]).unwrap();
        let backward = merge_summaries(&device, 5, &[&s1, &s0]).unwrap();
        let replayed = merge_summaries(&device, 5, &[&s0, &s1, &s0, &s1]).unwrap();
        assert_eq!(forward, backward, "summary order must not matter");
        assert_eq!(forward, replayed, "replaying logs must be a no-op");
        let (labels, core) = forward;
        assert_eq!(labels[1], 0, "cores canonicalize to the smallest member");
        assert_eq!(labels[2], 0, "border takes the minimum canonical root of its claims");
        assert!(core[0] && core[1] && core[3] && !core[2]);
    }
}
