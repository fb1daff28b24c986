//! Node-level fault-tolerance policies and failure-mode classification.
//!
//! The heart of the paper's proposal, as types: a node is configured with a
//! *policy* deciding what happens when an error is detected —
//!
//! * **fail-silent (FS)**: every detected error silences the node; the
//!   distributed system handles all recovery;
//! * **light-weight NLFT**: transient errors in critical tasks are masked
//!   by TEM when possible, degrade to *omission* when the deadline forbids
//!   recovery, and only kernel errors silence the node.
//!
//! The observable result of a fault at the node boundary is a
//! `NodeFailureMode` — the event the system-level reliability models
//! (Markov chains in `nlft-bbw`) consume.

use std::fmt;

use crate::campaign::Verdict;

/// The node's fault-handling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodePolicy {
    /// Classic fail-silent node: detect and shut down.
    FailSilent,
    /// Light-weight node-level fault tolerance: mask transients with TEM.
    LightweightNlft,
}

impl fmt::Display for NodePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodePolicy::FailSilent => write!(f, "fail-silent"),
            NodePolicy::LightweightNlft => write!(f, "light-weight NLFT"),
        }
    }
}

/// The externally observable effect of one fault at the node boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) enum NodeFailureMode {
    /// No observable effect (fault overwritten / latent / masked by TEM).
    /// For NLFT nodes this includes actively masked errors.
    Masked,
    /// The node delivered nothing this period but stays up (NLFT only).
    Omission,
    /// The node silenced itself (detected error, FS shutdown).
    FailSilent,
    /// The error escaped every mechanism: wrong output delivered.
    Undetected,
}

impl fmt::Display for NodeFailureMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeFailureMode::Masked => write!(f, "masked"),
            NodeFailureMode::Omission => write!(f, "omission"),
            NodeFailureMode::FailSilent => write!(f, "fail-silent"),
            NodeFailureMode::Undetected => write!(f, "undetected"),
        }
    }
}

impl NodeFailureMode {
    /// Maps a campaign verdict to the node-boundary failure mode under a
    /// policy. This encodes the paper's §3.2.1 node descriptions:
    ///
    /// * FS nodes turn every *detected* error into a fail-silent failure;
    /// * NLFT nodes mask what TEM masked, emit omissions where recovery ran
    ///   out of time, and fail silent for kernel errors;
    /// * undetected wrong outputs stay undetected under either policy.
    pub fn classify(policy: NodePolicy, verdict: Verdict) -> NodeFailureMode {
        match (policy, verdict) {
            (_, Verdict::Benign) => NodeFailureMode::Masked,
            (_, Verdict::UndetectedWrongOutput) => NodeFailureMode::Undetected,
            (_, Verdict::KernelError) => NodeFailureMode::FailSilent,
            (NodePolicy::FailSilent, Verdict::Masked { .. })
            | (NodePolicy::FailSilent, Verdict::Omission { .. })
            | (NodePolicy::FailSilent, Verdict::Detected { .. }) => NodeFailureMode::FailSilent,
            (NodePolicy::LightweightNlft, Verdict::Masked { .. }) => NodeFailureMode::Masked,
            (NodePolicy::LightweightNlft, Verdict::Omission { .. }) => NodeFailureMode::Omission,
            (NodePolicy::LightweightNlft, Verdict::Detected { .. }) => NodeFailureMode::FailSilent,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nlft_machine::edm::Edm;

    #[test]
    fn fs_nodes_never_omit() {
        for v in [
            Verdict::Masked {
                detected_by: Edm::TemComparison,
            },
            Verdict::Omission {
                detected_by: Edm::TemVote,
            },
            Verdict::Detected {
                detected_by: Edm::BusError,
            },
        ] {
            let mode = NodeFailureMode::classify(NodePolicy::FailSilent, v);
            assert_eq!(mode, NodeFailureMode::FailSilent);
        }
    }

    #[test]
    fn nlft_masks_and_omits() {
        assert_eq!(
            NodeFailureMode::classify(
                NodePolicy::LightweightNlft,
                Verdict::Masked {
                    detected_by: Edm::TemComparison
                }
            ),
            NodeFailureMode::Masked
        );
        assert_eq!(
            NodeFailureMode::classify(
                NodePolicy::LightweightNlft,
                Verdict::Omission {
                    detected_by: Edm::ExecutionTimeMonitor
                }
            ),
            NodeFailureMode::Omission
        );
    }

    #[test]
    fn kernel_errors_silence_both_policies() {
        for p in [NodePolicy::FailSilent, NodePolicy::LightweightNlft] {
            assert_eq!(
                NodeFailureMode::classify(p, Verdict::KernelError),
                NodeFailureMode::FailSilent
            );
        }
    }

    #[test]
    fn undetected_stays_undetected() {
        for p in [NodePolicy::FailSilent, NodePolicy::LightweightNlft] {
            assert_eq!(
                NodeFailureMode::classify(p, Verdict::UndetectedWrongOutput),
                NodeFailureMode::Undetected
            );
        }
    }

    #[test]
    fn benign_is_masked_everywhere() {
        for p in [NodePolicy::FailSilent, NodePolicy::LightweightNlft] {
            assert_eq!(
                NodeFailureMode::classify(p, Verdict::Benign),
                NodeFailureMode::Masked
            );
        }
    }

    #[test]
    fn displays_are_informative() {
        assert_eq!(NodePolicy::LightweightNlft.to_string(), "light-weight NLFT");
        assert_eq!(NodeFailureMode::Omission.to_string(), "omission");
    }
}
