//! Deterministic fault injection for the simulated device.
//!
//! Real GPU deployments fail in ways unit tests rarely exercise: an
//! allocation fails mid-pipeline, a kernel faults, a kernel never
//! terminates, a rank of a distributed run dies. A [`FaultPlan`] lets
//! tests and chaos harnesses schedule exactly those failures at exact
//! points of a run — the N-th memory reservation, block `i` of kernel
//! launch `K`, the first `A` attempts of distributed rank `r` — so every
//! recovery path in the workspace can be driven deterministically.
//!
//! # Determinism
//!
//! Injection sites are addressed by *ordinals*, not wall time:
//!
//! * reservations are numbered by [`crate::MemoryTracker`] in request
//!   order (`0, 1, 2, …` over the tracker's lifetime),
//! * launches are numbered by `Device` in launch order,
//! * rank attempts are numbered per rank by the distributed driver.
//!
//! An ordinal-addressed fault therefore fires **exactly once** — a retry
//! of the failed operation gets a fresh ordinal and succeeds, which is
//! what makes bounded-retry recovery testable. The byte-threshold OOM
//! ([`FaultPlan::with_oom_above_bytes`]) is the exception: it models a
//! persistently broken allocator and fires on *every* matching
//! reservation, so only stepping down to a smaller algorithm helps.
//!
//! The `seed` does not perturb anything by itself; it labels the
//! scenario, and travels with the plan through its JSON form.
//!
//! Every injection is counted in [`crate::Counters`]
//! (`injected_oom` / `injected_panics` / `injected_stalls` /
//! `injected_rank_faults`), so a test can assert that the fault it
//! configured actually fired.

use std::fmt;

use crate::json::Json;

/// Where an injected fault fired. Carried by
/// [`crate::DeviceError::FaultInjected`] and in panic payloads so
/// callers can attribute a failure to its injection site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultSite {
    /// An injected out-of-memory on a reservation.
    Reservation {
        /// The reservation ordinal the fault fired at.
        ordinal: u64,
        /// Bytes the reservation asked for.
        bytes: usize,
    },
    /// An injected kernel panic inside a launch.
    KernelPanic {
        /// The launch ordinal.
        launch: u64,
        /// The block index within the launch.
        block: usize,
    },
    /// An injected worker stall inside a launch.
    WorkerStall {
        /// The launch ordinal.
        launch: u64,
        /// The block index within the launch.
        block: usize,
        /// Stall duration in milliseconds.
        millis: u64,
    },
    /// An injected distributed-rank failure.
    Rank {
        /// The failed rank.
        rank: usize,
        /// The per-rank attempt ordinal that failed.
        attempt: usize,
    },
    /// An injected message-layer fault (distributed halo exchange).
    Message {
        /// The global message ordinal the fault fired at.
        ordinal: u64,
    },
    /// An injected permanent rank death at a distributed phase boundary.
    RankDeath {
        /// The rank that died.
        rank: usize,
        /// The phase ordinal it died at (interpreted by `fdbscan-dist`).
        phase: u8,
    },
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultSite::Reservation { ordinal, bytes } => {
                write!(f, "reservation #{ordinal} ({bytes} B)")
            }
            FaultSite::KernelPanic { launch, block } => {
                write!(f, "kernel panic at launch {launch} block {block}")
            }
            FaultSite::WorkerStall { launch, block, millis } => {
                write!(f, "worker stall of {millis} ms at launch {launch} block {block}")
            }
            FaultSite::Rank { rank, attempt } => {
                write!(f, "rank {rank} failure at attempt {attempt}")
            }
            FaultSite::Message { ordinal } => {
                write!(f, "message fault at ordinal {ordinal}")
            }
            FaultSite::RankDeath { rank, phase } => {
                write!(f, "permanent death of rank {rank} at phase {phase}")
            }
        }
    }
}

/// What an injected message fault does to a frame in flight. Returned by
/// [`FaultPlan::message_fault`]; interpreted by the simulated transport
/// in `fdbscan-dist`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MessageFault {
    /// The frame is never delivered (the receiver must retransmit).
    Drop,
    /// One payload byte is flipped — the length+checksum framing must
    /// detect it on receipt.
    Corrupt,
    /// Delivery is deferred by this many receive polls (reordering).
    Delay(u64),
}

/// A deterministic schedule of faults to inject into a device.
///
/// Built once, attached to a device via
/// [`crate::DeviceConfig::with_fault_plan`], and consulted by the memory
/// tracker, the launch path, and the distributed driver. See the module
/// docs for the determinism contract.
///
/// # Example
///
/// ```
/// use fdbscan_device::fault::FaultPlan;
/// use fdbscan_device::{Device, DeviceConfig, DeviceError};
///
/// // Fail the very first reservation; every later one succeeds.
/// let plan = FaultPlan::new(42).with_oom_at_reservation(0);
/// let device = Device::new(DeviceConfig::default().with_fault_plan(plan));
/// assert!(matches!(
///     device.memory().reserve(64),
///     Err(DeviceError::OutOfMemory { .. })
/// ));
/// // The retry draws ordinal 1 and succeeds.
/// assert!(device.memory().reserve(64).is_ok());
/// assert_eq!(device.counters().snapshot().injected_oom, 1);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    oom_at_reservation: Option<u64>,
    oom_above_bytes: Option<usize>,
    panic_at: Option<(u64, usize)>,
    stall_at: Option<(u64, usize, u64)>,
    rank_failures: Vec<(usize, usize)>,
    message_drops: Vec<u64>,
    message_corruptions: Vec<u64>,
    message_delays: Vec<(u64, u64)>,
    rank_deaths: Vec<(usize, u8)>,
}

impl FaultPlan {
    /// Creates an empty plan (no faults) labelled with `seed`.
    pub fn new(seed: u64) -> Self {
        Self { seed, ..Self::default() }
    }

    /// The scenario seed this plan was built with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Injects `OutOfMemory` on the reservation with ordinal `n`
    /// (0-based, counted over the memory tracker's lifetime). Fires
    /// exactly once.
    pub fn with_oom_at_reservation(mut self, n: u64) -> Self {
        self.oom_at_reservation = Some(n);
        self
    }

    /// Injects `OutOfMemory` on **every** reservation of at least
    /// `bytes` bytes — a persistently failing allocator, not a one-shot
    /// fault.
    pub fn with_oom_above_bytes(mut self, bytes: usize) -> Self {
        self.oom_above_bytes = Some(bytes);
        self
    }

    /// Injects a kernel panic in block `block` of launch ordinal
    /// `launch` (0-based). Fires exactly once; if the launch has fewer
    /// blocks, the fault never fires.
    pub fn with_kernel_panic_at(mut self, launch: u64, block: usize) -> Self {
        self.panic_at = Some((launch, block));
        self
    }

    /// Stalls the worker executing block `block` of launch `launch` for
    /// `millis` milliseconds — the probe for the watchdog
    /// ([`crate::DeviceConfig::with_kernel_timeout`]). Fires exactly
    /// once.
    pub fn with_worker_stall(mut self, launch: u64, block: usize, millis: u64) -> Self {
        self.stall_at = Some((launch, block, millis));
        self
    }

    /// Fails the first `attempts` attempts of distributed rank `rank`
    /// (consulted by `fdbscan-dist`; a plain device run never reads
    /// this).
    pub fn with_rank_failure(mut self, rank: usize, attempts: usize) -> Self {
        self.rank_failures.push((rank, attempts));
        self
    }

    /// Drops the message with global ordinal `n` (0-based, counted over
    /// the simulated transport's lifetime). The frame is never
    /// delivered; a retransmission draws a fresh ordinal and succeeds.
    pub fn with_message_drop(mut self, n: u64) -> Self {
        self.message_drops.push(n);
        self
    }

    /// Corrupts one payload byte of the message with ordinal `n`. The
    /// receiver's length+checksum framing must reject the frame and
    /// request a retransmission (fresh ordinal, fires once).
    pub fn with_message_corruption(mut self, n: u64) -> Self {
        self.message_corruptions.push(n);
        self
    }

    /// Delays delivery of the message with ordinal `n` by `slots`
    /// receive polls — out-of-order delivery, not loss.
    pub fn with_message_delay(mut self, n: u64, slots: u64) -> Self {
        self.message_delays.push((n, slots));
        self
    }

    /// Permanently kills distributed rank `rank` at phase-boundary
    /// ordinal `phase` (interpreted by `fdbscan-dist`: 0 = halo,
    /// 1 = local, 2 = merge). Unlike [`FaultPlan::with_rank_failure`],
    /// a dead rank never comes back: its work must be re-sharded to
    /// survivors or (for a merge coordinator) a successor elected.
    pub fn with_rank_death(mut self, rank: usize, phase: u8) -> Self {
        self.rank_deaths.push((rank, phase));
        self
    }

    /// Whether the reservation with `ordinal` asking for `bytes` must
    /// fail.
    pub fn oom_fires(&self, ordinal: u64, bytes: usize) -> bool {
        self.oom_at_reservation == Some(ordinal)
            || self.oom_above_bytes.is_some_and(|limit| bytes >= limit)
    }

    /// The stall duration for `(launch, block)`, if one is scheduled.
    pub fn stall_millis(&self, launch: u64, block: usize) -> Option<u64> {
        match self.stall_at {
            Some((l, b, ms)) if l == launch && b == block => Some(ms),
            _ => None,
        }
    }

    /// Whether `(launch, block)` must panic.
    pub fn panic_fires(&self, launch: u64, block: usize) -> bool {
        self.panic_at == Some((launch, block))
    }

    /// Whether the `attempt`-th attempt (0-based) of `rank` must fail.
    pub fn rank_fails(&self, rank: usize, attempt: usize) -> bool {
        self.rank_failures.iter().any(|&(r, a)| r == rank && attempt < a)
    }

    /// The fault (if any) scheduled for the message with global ordinal
    /// `n`. Drop wins over corruption wins over delay when a test
    /// schedules several at one ordinal.
    pub fn message_fault(&self, n: u64) -> Option<MessageFault> {
        if self.message_drops.contains(&n) {
            return Some(MessageFault::Drop);
        }
        if self.message_corruptions.contains(&n) {
            return Some(MessageFault::Corrupt);
        }
        self.message_delays
            .iter()
            .find(|&&(ord, _)| ord == n)
            .map(|&(_, slots)| MessageFault::Delay(slots))
    }

    /// Whether `rank` dies permanently at phase-boundary ordinal
    /// `phase`.
    pub fn rank_dies(&self, rank: usize, phase: u8) -> bool {
        self.rank_deaths.iter().any(|&(r, p)| r == rank && p == phase)
    }

    /// Whether the plan schedules any fault at all.
    pub fn is_empty(&self) -> bool {
        self.oom_at_reservation.is_none()
            && self.oom_above_bytes.is_none()
            && self.panic_at.is_none()
            && self.stall_at.is_none()
            && self.rank_failures.is_empty()
            && self.message_drops.is_empty()
            && self.message_corruptions.is_empty()
            && self.message_delays.is_empty()
            && self.rank_deaths.is_empty()
    }

    /// Serializes the plan as a JSON tree — recorded in a
    /// [`crate::snapshot::RunManifest`] so a failed run can be replayed
    /// with the exact faults that killed it.
    pub fn to_json(&self) -> Json {
        let pair = |a: u64, b: usize| Json::Arr(vec![Json::U64(a), Json::U64(b as u64)]);
        Json::obj([
            ("seed", Json::U64(self.seed)),
            ("oom_at_reservation", self.oom_at_reservation.map_or(Json::Null, Json::U64)),
            ("oom_above_bytes", self.oom_above_bytes.map_or(Json::Null, |b| Json::U64(b as u64))),
            ("panic_at", self.panic_at.map_or(Json::Null, |(l, b)| pair(l, b))),
            (
                "stall_at",
                self.stall_at.map_or(Json::Null, |(l, b, ms)| {
                    Json::Arr(vec![Json::U64(l), Json::U64(b as u64), Json::U64(ms)])
                }),
            ),
            (
                "rank_failures",
                Json::Arr(self.rank_failures.iter().map(|&(r, a)| pair(r as u64, a)).collect()),
            ),
            (
                "message_drops",
                Json::Arr(self.message_drops.iter().map(|&n| Json::U64(n)).collect()),
            ),
            (
                "message_corruptions",
                Json::Arr(self.message_corruptions.iter().map(|&n| Json::U64(n)).collect()),
            ),
            (
                "message_delays",
                Json::Arr(
                    self.message_delays
                        .iter()
                        .map(|&(n, s)| Json::Arr(vec![Json::U64(n), Json::U64(s)]))
                        .collect(),
                ),
            ),
            (
                "rank_deaths",
                Json::Arr(
                    self.rank_deaths.iter().map(|&(r, p)| pair(r as u64, p as usize)).collect(),
                ),
            ),
        ])
    }

    /// Rebuilds a plan from [`FaultPlan::to_json`] output.
    pub fn from_json(value: &Json) -> Result<Self, String> {
        fn u64_at(items: &[Json], i: usize) -> Result<u64, String> {
            match items.get(i) {
                Some(Json::U64(v)) => Ok(*v),
                _ => Err(format!("fault plan: expected u64 at index {i}")),
            }
        }
        fn opt_u64(value: &Json, key: &str) -> Result<Option<u64>, String> {
            match value.get(key) {
                Some(Json::Null) | None => Ok(None),
                Some(Json::U64(v)) => Ok(Some(*v)),
                _ => Err(format!("fault plan: field '{key}' is not a u64")),
            }
        }
        fn opt_tuple(value: &Json, key: &str, arity: usize) -> Result<Option<Vec<u64>>, String> {
            match value.get(key) {
                Some(Json::Null) | None => Ok(None),
                Some(Json::Arr(items)) if items.len() == arity => {
                    Ok(Some((0..arity).map(|i| u64_at(items, i)).collect::<Result<_, _>>()?))
                }
                _ => Err(format!("fault plan: field '{key}' is not a {arity}-tuple")),
            }
        }
        let seed = match value.get("seed") {
            Some(Json::U64(v)) => *v,
            _ => return Err("fault plan: missing seed".to_string()),
        };
        fn pair_list(value: &Json, key: &str) -> Result<Vec<(u64, u64)>, String> {
            match value.get(key) {
                Some(Json::Arr(items)) => items
                    .iter()
                    .map(|item| match item.as_arr() {
                        Some(pair) if pair.len() == 2 => Ok((u64_at(pair, 0)?, u64_at(pair, 1)?)),
                        _ => Err(format!("fault plan: bad '{key}' entry")),
                    })
                    .collect(),
                Some(Json::Null) | None => Ok(Vec::new()),
                _ => Err(format!("fault plan: '{key}' is not an array")),
            }
        }
        fn u64_list(value: &Json, key: &str) -> Result<Vec<u64>, String> {
            match value.get(key) {
                Some(Json::Arr(items)) => {
                    (0..items.len()).map(|i| u64_at(items, i)).collect::<Result<_, _>>()
                }
                Some(Json::Null) | None => Ok(Vec::new()),
                _ => Err(format!("fault plan: '{key}' is not an array")),
            }
        }
        let rank_failures =
            pair_list(value, "rank_failures")?.into_iter().map(|(r, a)| (r as usize, a as usize));
        let rank_deaths =
            pair_list(value, "rank_deaths")?.into_iter().map(|(r, p)| (r as usize, p as u8));
        Ok(Self {
            seed,
            oom_at_reservation: opt_u64(value, "oom_at_reservation")?,
            oom_above_bytes: opt_u64(value, "oom_above_bytes")?.map(|b| b as usize),
            panic_at: opt_tuple(value, "panic_at", 2)?.map(|t| (t[0], t[1] as usize)),
            stall_at: opt_tuple(value, "stall_at", 3)?.map(|t| (t[0], t[1] as usize, t[2])),
            rank_failures: rank_failures.collect(),
            message_drops: u64_list(value, "message_drops")?,
            message_corruptions: u64_list(value, "message_corruptions")?,
            message_delays: pair_list(value, "message_delays")?,
            rank_deaths: rank_deaths.collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_fires_nothing() {
        let plan = FaultPlan::new(7);
        assert!(plan.is_empty());
        assert!(!plan.oom_fires(0, usize::MAX));
        assert!(!plan.panic_fires(0, 0));
        assert!(plan.stall_millis(0, 0).is_none());
        assert!(!plan.rank_fails(0, 0));
    }

    #[test]
    fn oom_ordinal_fires_exactly_there() {
        let plan = FaultPlan::new(1).with_oom_at_reservation(3);
        assert!(!plan.oom_fires(2, 100));
        assert!(plan.oom_fires(3, 100));
        assert!(!plan.oom_fires(4, 100));
    }

    #[test]
    fn oom_threshold_fires_repeatedly() {
        let plan = FaultPlan::new(1).with_oom_above_bytes(1024);
        assert!(plan.oom_fires(0, 1024));
        assert!(plan.oom_fires(99, 4096));
        assert!(!plan.oom_fires(0, 1023));
    }

    #[test]
    fn panic_and_stall_address_launch_and_block() {
        let plan = FaultPlan::new(1).with_kernel_panic_at(5, 2).with_worker_stall(6, 0, 50);
        assert!(plan.panic_fires(5, 2));
        assert!(!plan.panic_fires(5, 3));
        assert!(!plan.panic_fires(4, 2));
        assert_eq!(plan.stall_millis(6, 0), Some(50));
        assert_eq!(plan.stall_millis(6, 1), None);
    }

    #[test]
    fn rank_failures_cover_first_attempts() {
        let plan = FaultPlan::new(1).with_rank_failure(2, 2);
        assert!(plan.rank_fails(2, 0));
        assert!(plan.rank_fails(2, 1));
        assert!(!plan.rank_fails(2, 2));
        assert!(!plan.rank_fails(1, 0));
    }

    #[test]
    fn message_faults_address_ordinals_with_precedence() {
        let plan = FaultPlan::new(1)
            .with_message_drop(3)
            .with_message_corruption(5)
            .with_message_delay(7, 2)
            .with_message_corruption(3) // drop at 3 wins
            .with_message_delay(5, 9); // corruption at 5 wins
        assert_eq!(plan.message_fault(3), Some(MessageFault::Drop));
        assert_eq!(plan.message_fault(5), Some(MessageFault::Corrupt));
        assert_eq!(plan.message_fault(7), Some(MessageFault::Delay(2)));
        assert_eq!(plan.message_fault(0), None);
        assert!(!plan.is_empty());
    }

    #[test]
    fn rank_deaths_address_rank_and_phase() {
        let plan = FaultPlan::new(1).with_rank_death(2, 1);
        assert!(plan.rank_dies(2, 1));
        assert!(!plan.rank_dies(2, 0));
        assert!(!plan.rank_dies(1, 1));
        assert!(!plan.is_empty());
    }

    #[test]
    fn json_round_trips_every_field() {
        let plan = FaultPlan::new(42)
            .with_oom_at_reservation(3)
            .with_oom_above_bytes(1 << 20)
            .with_kernel_panic_at(5, 2)
            .with_worker_stall(6, 0, 50)
            .with_rank_failure(2, 2)
            .with_rank_failure(0, 1)
            .with_message_drop(4)
            .with_message_corruption(9)
            .with_message_delay(11, 3)
            .with_rank_death(1, 2);
        assert_eq!(FaultPlan::from_json(&plan.to_json()), Ok(plan));
        let empty = FaultPlan::new(7);
        assert_eq!(FaultPlan::from_json(&empty.to_json()), Ok(empty));
        assert!(FaultPlan::from_json(&Json::Null).is_err());
    }

    #[test]
    fn site_display_names_the_site() {
        let s = FaultSite::Reservation { ordinal: 4, bytes: 128 }.to_string();
        assert!(s.contains("#4") && s.contains("128"));
        let s = FaultSite::Rank { rank: 1, attempt: 0 }.to_string();
        assert!(s.contains("rank 1"));
    }
}
