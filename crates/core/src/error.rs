//! Execution errors: the structured crash modes of Figure 11 plus input
//! validation.

use std::fmt;
use sw_arch::ArchError;
use sw_net::NetError;

/// Why an exchange phase could not deliver its messages: the structured
/// failure modes of the fault-injection subsystem ([`crate::faults`]).
/// Injected faults must surface as one of these — never as a panic, a
/// hang, or silent corruption.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExchangeError {
    /// A message burned its whole retry budget without being delivered
    /// (dead link, or fault rates past the survivable regime).
    RetriesExhausted {
        /// Exchange phase that failed.
        phase: u64,
        /// Sending rank.
        src: u32,
        /// Receiving rank.
        dst: u32,
        /// Attempts made (= `RetryPolicy::max_attempts`).
        attempts: u32,
    },
    /// Accumulated backoffs and injected delays blew the per-level
    /// simulated-time budget.
    LevelTimeout {
        /// Exchange phase that failed.
        phase: u64,
        /// Simulated time spent when the budget tripped.
        elapsed_ns: u64,
        /// The budget (`RetryPolicy::level_timeout_ns`).
        budget_ns: u64,
    },
    /// A peer rank's connection closed mid-run (its process is gone).
    PeerDisconnected {
        /// The rank whose endpoint vanished.
        rank: u32,
    },
    /// The wire protocol was violated (a frame out of protocol for the
    /// phase, an undecodable payload, a missed deadline).
    Protocol {
        /// Exchange phase (sequence number) of the bad packet.
        phase: u64,
        /// What was wrong.
        detail: &'static str,
    },
}

impl fmt::Display for ExchangeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExchangeError::RetriesExhausted {
                phase,
                src,
                dst,
                attempts,
            } => write!(
                f,
                "retries exhausted in phase {phase}: {src}->{dst} failed {attempts} attempts"
            ),
            ExchangeError::LevelTimeout {
                phase,
                elapsed_ns,
                budget_ns,
            } => write!(
                f,
                "level timeout in phase {phase}: {elapsed_ns} ns elapsed, budget {budget_ns} ns"
            ),
            ExchangeError::PeerDisconnected { rank } => {
                write!(f, "peer rank {rank} disconnected")
            }
            ExchangeError::Protocol { phase, detail } => {
                write!(f, "protocol violation in phase {phase}: {detail}")
            }
        }
    }
}

impl std::error::Error for ExchangeError {}

/// Why a BFS run could not complete.
#[derive(Clone, Debug, PartialEq)]
pub enum ExecError {
    /// A chip-level constraint was violated (SPM overflow, mesh deadlock,
    /// too many shuffle destinations — the Direct-CPE crash).
    Arch(ArchError),
    /// A network-level failure (connection memory exhausted — the
    /// Direct-MPE crash at 16 Ki nodes).
    Net(NetError),
    /// The exchange pipeline failed under injected faults and could not
    /// degrade around them.
    Exchange(ExchangeError),
    /// The root vertex is outside the graph or has no edges.
    BadRoot {
        /// The offending root.
        root: sw_graph::Vid,
        /// Explanation.
        reason: &'static str,
    },
    /// Inconsistent setup (e.g. zero ranks).
    BadSetup(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Arch(e) => write!(f, "chip constraint violated: {e}"),
            ExecError::Net(e) => write!(f, "network failure: {e}"),
            ExecError::Exchange(e) => write!(f, "exchange failure: {e}"),
            ExecError::BadRoot { root, reason } => write!(f, "bad root {root}: {reason}"),
            ExecError::BadSetup(msg) => write!(f, "bad setup: {msg}"),
        }
    }
}

impl std::error::Error for ExecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExecError::Arch(e) => Some(e),
            ExecError::Net(e) => Some(e),
            ExecError::Exchange(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ArchError> for ExecError {
    fn from(e: ArchError) -> Self {
        ExecError::Arch(e)
    }
}

impl From<NetError> for ExecError {
    fn from(e: NetError) -> Self {
        ExecError::Net(e)
    }
}

impl From<ExchangeError> for ExecError {
    fn from(e: ExchangeError) -> Self {
        ExecError::Exchange(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: ExecError = ArchError::TooManyDestinations {
            requested: 4096,
            max: 1024,
        }
        .into();
        assert!(e.to_string().contains("chip constraint"));

        let e: ExecError = NetError::BadNode { node: 3, nodes: 2 }.into();
        assert!(e.to_string().contains("network failure"));

        let e = ExecError::BadRoot {
            root: 7,
            reason: "isolated vertex",
        };
        assert!(e.to_string().contains("isolated"));
    }

    #[test]
    fn source_chains() {
        use std::error::Error;
        let e: ExecError = ArchError::BadLayout("x".into()).into();
        assert!(e.source().is_some());
        assert!(ExecError::BadSetup("y".into()).source().is_none());
        let e: ExecError = ExchangeError::PeerDisconnected { rank: 3 }.into();
        assert!(e.source().is_some());
    }

    #[test]
    fn exchange_error_displays() {
        let e = ExchangeError::RetriesExhausted {
            phase: 2,
            src: 1,
            dst: 5,
            attempts: 4,
        };
        assert!(e.to_string().contains("1->5"));
        let e: ExecError = e.into();
        assert!(e.to_string().contains("exchange failure"));
        assert!(ExchangeError::LevelTimeout {
            phase: 0,
            elapsed_ns: 10,
            budget_ns: 5
        }
        .to_string()
        .contains("budget"));
        assert!(ExchangeError::PeerDisconnected { rank: 7 }
            .to_string()
            .contains('7'));
        assert!(ExchangeError::Protocol {
            phase: 1,
            detail: "records where stats expected"
        }
        .to_string()
        .contains("protocol"));
    }
}
