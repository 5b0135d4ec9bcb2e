//! Typed request outcomes.
//!
//! Every way a request can fail is a distinct variant, because the
//! caller's correct reaction differs: [`ServiceError::Overloaded`] is
//! retryable elsewhere/later (classic load shedding),
//! [`ServiceError::DeadlineExceeded`] and [`ServiceError::Cancelled`]
//! are final for this request, [`ServiceError::InvalidInput`] must not
//! be retried at all, and [`ServiceError::Device`] wraps the rare
//! device failure the resilience ladder could not absorb.

use std::fmt;
use std::time::Duration;

use fdbscan::NonFinite;
use fdbscan_device::DeviceError;

/// Why an [`crate::ClusterService`] shed a request at admission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OverloadReason {
    /// The bounded admission queue was full.
    QueueFull {
        /// Requests already queued when this one arrived.
        queued: usize,
        /// The configured queue bound.
        queue_depth: usize,
    },
    /// The memory preflight predicted the request cannot fit in the
    /// device's budget headroom.
    MemoryPressure {
        /// Predicted footprint of the request's cheapest device rung.
        estimated_bytes: usize,
        /// Budget bytes not reserved at the preflight.
        available_bytes: usize,
    },
}

impl fmt::Display for OverloadReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OverloadReason::QueueFull { queued, queue_depth } => {
                write!(f, "admission queue full ({queued}/{queue_depth})")
            }
            OverloadReason::MemoryPressure { estimated_bytes, available_bytes } => write!(
                f,
                "memory preflight: request needs ~{estimated_bytes} B, {available_bytes} B available"
            ),
        }
    }
}

/// A request's terminal error.
#[derive(Clone, Debug, PartialEq)]
pub enum ServiceError {
    /// Shed at admission — the service protected itself instead of
    /// OOM-ing or stalling mid-run. Retry against another replica or
    /// with backoff.
    Overloaded {
        /// What resource was exhausted.
        reason: OverloadReason,
    },
    /// The request's deadline passed — while queued (`waited` is the
    /// queue wait) or mid-run (observed between kernel launches).
    DeadlineExceeded {
        /// How long the request had been in the service when the
        /// deadline fired.
        waited: Duration,
    },
    /// The client cancelled — while queued or mid-run.
    Cancelled,
    /// The input failed validation before admission; the offending
    /// point, axis, and value are in the payload. Never retryable.
    InvalidInput(NonFinite),
    /// The run failed on-device in a way [`fdbscan::run_resilient`]
    /// could not absorb.
    Device(DeviceError),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Overloaded { reason } => write!(f, "overloaded: {reason}"),
            ServiceError::DeadlineExceeded { waited } => {
                write!(f, "deadline exceeded after {waited:?}")
            }
            ServiceError::Cancelled => f.write_str("cancelled by client"),
            ServiceError::InvalidInput(bad) => write!(f, "invalid input: {bad}"),
            ServiceError::Device(err) => write!(f, "device error: {err}"),
        }
    }
}

impl std::error::Error for ServiceError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failure() {
        let queue = ServiceError::Overloaded {
            reason: OverloadReason::QueueFull { queued: 4, queue_depth: 4 },
        };
        assert!(queue.to_string().contains("queue full (4/4)"));
        let mem = ServiceError::Overloaded {
            reason: OverloadReason::MemoryPressure { estimated_bytes: 100, available_bytes: 10 },
        };
        assert!(mem.to_string().contains("100 B"));
        let bad = ServiceError::InvalidInput(NonFinite { index: 7, axis: 1, value: f32::NAN });
        assert!(bad.to_string().contains("point 7"));
        assert!(ServiceError::Cancelled.to_string().contains("cancelled"));
    }
}
