//! [`DpsError`]: the one typed error of the drivers and the session API.
//!
//! Every fallible entry point — the [`Overlay`]/[`DpsNetwork`] `try_*`
//! methods here, and the `Session`/`Publisher`/`Subscriber` handles of
//! `dps-client` over either of its backends — returns `Result<_, DpsError>`
//! instead of panicking or silently returning `None` on misuse. The served
//! stack (`dps-broker`, `dps-client`) reports its transport and protocol
//! failures through the same enum, so one error type spans the simulated and
//! the served system.
//!
//! [`Overlay`]: crate::Overlay
//! [`DpsNetwork`]: crate::DpsNetwork

use std::fmt;

use dps_overlay::SubId;
use dps_sim::NodeId;

/// Why a DPS operation was refused. Non-exhaustive: downstream layers (the
/// framed broker transport) grow variants without breaking matches.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DpsError {
    /// The target node is not alive (crashed, or never existed).
    NodeDead(NodeId),
    /// A subscription filter with no predicates: there is no attribute to
    /// join the overlay on. Subscribe with at least one predicate.
    EmptyFilter,
    /// The subscription is not registered on that node (wrong id, already
    /// cancelled, or issued outside the facade).
    UnknownSubscription {
        /// The node the cancel was addressed to.
        node: NodeId,
        /// The unknown subscription id.
        sub: SubId,
    },
    /// A session or handle was used after `close()`.
    SessionClosed,
    /// A latency model was installed after the simulation started moving
    /// (models must be set on a fresh network, before any step or message).
    LatencyAfterStart,
    /// The latency model itself is invalid (zero/inverted bounds, …).
    InvalidLatency(String),
    /// A transport-level failure (socket/channel I/O) in the broker stack.
    Transport(String),
    /// A wire-protocol violation (bad frame, version mismatch, unexpected
    /// message) in the broker stack.
    Protocol(String),
}

impl fmt::Display for DpsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DpsError::NodeDead(n) => write!(f, "node {} is not alive", n.index()),
            DpsError::EmptyFilter => write!(f, "subscription filter has no predicates"),
            DpsError::UnknownSubscription { node, sub } => {
                write!(f, "no subscription {sub:?} on node {}", node.index())
            }
            DpsError::SessionClosed => write!(f, "session is closed"),
            DpsError::LatencyAfterStart => write!(
                f,
                "latency model must be installed on a fresh network, before any step"
            ),
            DpsError::InvalidLatency(e) => write!(f, "invalid latency model: {e}"),
            DpsError::Transport(e) => write!(f, "transport error: {e}"),
            DpsError::Protocol(e) => write!(f, "protocol error: {e}"),
        }
    }
}

impl std::error::Error for DpsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_cause() {
        let e = DpsError::NodeDead(NodeId::from_index(7));
        assert_eq!(e.to_string(), "node 7 is not alive");
        assert!(DpsError::EmptyFilter.to_string().contains("no predicates"));
        assert!(DpsError::Transport("boom".into())
            .to_string()
            .contains("boom"));
    }
}
