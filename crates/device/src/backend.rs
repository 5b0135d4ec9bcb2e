//! Execution backend selection.
//!
//! A [`crate::Device`] executes kernel launches through one of two
//! engines behind the same launch/batch API:
//!
//! * [`Backend::Sequential`] — every block runs inline on the launching
//!   thread, in ascending index order. Counters, reduce combine order,
//!   and fault-injection interleavings are fully deterministic, which
//!   makes this backend the regression oracle: work-counter baselines
//!   (`BENCH_hotpaths.json`) and bit-identical replay are defined
//!   against it.
//! * [`Backend::Threaded`] — blocks are pulled from a shared cursor by a
//!   persistent worker pool (the launching thread participates), giving
//!   real wall-clock parallelism. Labels are canonically identical to
//!   the sequential backend (the differential suite enforces this), but
//!   statistics that depend on interleaving — union-find path lengths,
//!   which cluster claims a multi-claimed border first — may differ.
//!
//! The backend is chosen at [`crate::Device`] construction, either
//! explicitly ([`crate::DeviceConfig::with_backend`]) or through the
//! `FDBSCAN_BACKEND` environment variable, so every algorithm and
//! service built on the device runs on both engines unchanged.

/// Which execution engine a device uses for kernel launches.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Deterministic in-order execution on the launching thread.
    Sequential,
    /// Persistent worker pool with shared-cursor block distribution.
    Threaded {
        /// Worker threads to spawn (the launching thread always
        /// participates, so total parallelism is `workers + 1`).
        /// `0` means auto: `available_parallelism() - 1`.
        workers: usize,
    },
}

impl Backend {
    /// Environment variable consulted by [`Backend::from_env`] (and by
    /// [`crate::DeviceConfig::default`]): `sequential` (or `seq`),
    /// `threaded` (auto worker count), or `threaded:<N>` (exactly `N`
    /// workers).
    pub const ENV: &'static str = "FDBSCAN_BACKEND";

    /// The backend requested via the `FDBSCAN_BACKEND` environment
    /// variable, if set and well-formed. Unset or unparseable values
    /// yield `None` (callers fall back to their default).
    pub fn from_env() -> Option<Backend> {
        Self::parse(&std::env::var(Self::ENV).ok()?)
    }

    /// Parses a backend spec: `sequential`/`seq`, `threaded`, or
    /// `threaded:<N>`. Case-insensitive; returns `None` on anything
    /// else.
    pub fn parse(spec: &str) -> Option<Backend> {
        let spec = spec.trim().to_ascii_lowercase();
        match spec.as_str() {
            "sequential" | "seq" => Some(Backend::Sequential),
            "threaded" => Some(Backend::Threaded { workers: 0 }),
            other => {
                let workers = other.strip_prefix("threaded:")?.parse().ok()?;
                Some(Backend::Threaded { workers })
            }
        }
    }

    /// The default backend when nothing is requested: threaded with an
    /// auto worker count.
    pub fn default_backend() -> Backend {
        Backend::Threaded { workers: 0 }
    }

    /// Worker threads this backend spawns. Sequential spawns none;
    /// `Threaded { workers: 0 }` resolves the auto count here.
    pub fn effective_workers(&self) -> usize {
        match *self {
            Backend::Sequential => 0,
            Backend::Threaded { workers: 0 } => {
                let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
                // The launching thread participates, so spawn hw - 1.
                hw.saturating_sub(1)
            }
            Backend::Threaded { workers } => workers,
        }
    }

    /// Stable short name (`"sequential"` / `"threaded"`) for logs,
    /// replay recipes, and bench records.
    pub fn name(&self) -> &'static str {
        match self {
            Backend::Sequential => "sequential",
            Backend::Threaded { .. } => "threaded",
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Backend::Sequential => f.write_str("sequential"),
            Backend::Threaded { workers: 0 } => f.write_str("threaded"),
            Backend::Threaded { workers } => write!(f, "threaded:{workers}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_canonical_spellings() {
        assert_eq!(Backend::parse("sequential"), Some(Backend::Sequential));
        assert_eq!(Backend::parse("seq"), Some(Backend::Sequential));
        assert_eq!(Backend::parse(" SEQ "), Some(Backend::Sequential));
        assert_eq!(Backend::parse("threaded"), Some(Backend::Threaded { workers: 0 }));
        assert_eq!(Backend::parse("Threaded:4"), Some(Backend::Threaded { workers: 4 }));
        assert_eq!(Backend::parse("threaded:0"), Some(Backend::Threaded { workers: 0 }));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert_eq!(Backend::parse(""), None);
        assert_eq!(Backend::parse("gpu"), None);
        assert_eq!(Backend::parse("threaded:"), None);
        assert_eq!(Backend::parse("threaded:many"), None);
        assert_eq!(Backend::parse("threaded:-1"), None);
    }

    #[test]
    fn effective_workers_resolves_auto() {
        assert_eq!(Backend::Sequential.effective_workers(), 0);
        assert_eq!(Backend::Threaded { workers: 3 }.effective_workers(), 3);
        let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        assert_eq!(Backend::Threaded { workers: 0 }.effective_workers(), hw.saturating_sub(1));
    }

    #[test]
    fn display_round_trips_through_parse() {
        for backend in [
            Backend::Sequential,
            Backend::Threaded { workers: 0 },
            Backend::Threaded { workers: 7 },
        ] {
            assert_eq!(Backend::parse(&backend.to_string()), Some(backend));
        }
    }
}
