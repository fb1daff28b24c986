//! Weakly-hard (m,k) deadline-miss contracts for kernel tasks.
//!
//! The paper's node-level argument is that a node may degrade under
//! faults as long as the *system* still delivers its real-time service.
//! A weakly-hard contract makes that claim precise per task: "at most
//! `m` deadline misses in any `k` consecutive jobs" (Liang et al.).
//! Occasional omissions — TEM running out of copies, a budget overrun —
//! are then within spec; it is the *density* of misses that breaks the
//! contract, and only then does the kernel degrade the task.
//!
//! A `TaskContract` couples the static [`MkContract`] with an online
//! [`WeaklyHard`] monitor and a [`DegradationAction`] the executive
//! applies while the window is violated:
//!
//! * [`DegradationAction::SkipToSafe`] — substitute releases with the
//!   safe job variant (deliver the last good output at negligible cost)
//!   until the window recovers; substituted jobs count as hits.
//! * [`DegradationAction::ClampRecovery`] — clamp the TEM re-execution
//!   budget to the two scheduled copies (no recovery copies) while
//!   degraded, bounding the CPU a misbehaving task can draw.
//! * [`DegradationAction::Escalate`] — report each fresh violation so
//!   the node feeds it into the [`crate::escalation`] ladder.
//!
//! The matching *offline* guarantee — is the contract satisfiable under
//! fault-recovery response-time analysis at all — lives in
//! [`crate::analysis::analyse_weakly_hard`].

use std::fmt;

use nlft_sim::weakly_hard::WeaklyHard;

/// Why an (m,k) contract was rejected at construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContractError {
    /// `window` (k) was zero — there is no window to constrain.
    ZeroWindow,
    /// `max_misses >= window` — every pattern satisfies the contract,
    /// so it constrains nothing.
    Vacuous {
        /// Tolerated misses per window (`m`).
        max_misses: u32,
        /// Window length in jobs (`k`).
        window: u32,
    },
}

impl fmt::Display for ContractError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContractError::ZeroWindow => write!(f, "contract window must be positive"),
            ContractError::Vacuous { max_misses, window } => write!(
                f,
                "({max_misses},{window}) contract must forbid at least one miss pattern"
            ),
        }
    }
}

impl std::error::Error for ContractError {}

/// A weakly-hard constraint on a task: at most `max_misses` deadline
/// misses within any window of `window` consecutive jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MkContract {
    /// Tolerated misses per window (`m`).
    pub max_misses: u32,
    /// Window length in jobs (`k`).
    pub window: u32,
}

impl MkContract {
    /// Creates a contract tolerating `max_misses` misses in any
    /// `window` consecutive jobs.
    ///
    /// # Panics
    ///
    /// Panics when `window` is zero or `max_misses >= window` (a
    /// contract every pattern satisfies constrains nothing).
    pub fn new(max_misses: u32, window: u32) -> Self {
        match MkContract::try_new(max_misses, window) {
            Ok(c) => c,
            Err(e) => panic!("{e}"),
        }
    }

    /// Non-panicking form of [`MkContract::new`]: rejects a zero window
    /// and vacuous (`max_misses >= window`) contracts with a typed error.
    pub fn try_new(max_misses: u32, window: u32) -> Result<Self, ContractError> {
        if window == 0 {
            return Err(ContractError::ZeroWindow);
        }
        if max_misses >= window {
            return Err(ContractError::Vacuous { max_misses, window });
        }
        Ok(MkContract { max_misses, window })
    }

    /// The online monitor for this contract: violated at
    /// `max_misses + 1` misses within the window.
    pub fn monitor(&self) -> WeaklyHard {
        WeaklyHard::new(self.max_misses + 1, self.window)
    }

    /// Whether a miss pattern (true = miss) over one window satisfies
    /// the contract in *every* `window`-length slice.
    pub fn satisfied_by(&self, pattern: &[bool]) -> bool {
        let mut w = self.monitor();
        pattern.iter().all(|&miss| !w.record(miss).violated)
    }
}

/// What the executive does to a task while its contract is violated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradationAction {
    /// Substitute releases with the safe job variant (last good output,
    /// negligible cost) until the window recovers.
    SkipToSafe,
    /// Clamp TEM to its two scheduled copies — no recovery copies —
    /// while degraded.
    ClampRecovery,
    /// Record the violation for the node's escalation ladder; the task
    /// itself keeps running unchanged.
    Escalate,
}

/// Aggregated contract telemetry for one task over a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContractOutcomes {
    /// Jobs observed (including safe substitutions).
    pub jobs: u64,
    /// Deadline misses observed.
    pub misses: u64,
    /// Transitions into the violated state.
    pub violations: u64,
    /// Worst (highest) miss count seen in any window.
    pub worst_misses_in_window: u32,
    /// Smallest distance-to-violation seen (0 = violated at some point).
    pub min_margin: u32,
    /// Releases substituted by the safe variant.
    pub safe_substituted: u64,
    /// Jobs concluded while the task was degraded.
    pub degraded_jobs: u64,
}

/// A registered contract: static terms, online monitor, degradation
/// state and telemetry.
#[derive(Debug, Clone)]
pub(crate) struct TaskContract {
    action: DegradationAction,
    monitor: WeaklyHard,
    degraded: bool,
    outcomes: ContractOutcomes,
}

impl TaskContract {
    /// Creates an armed contract with a clean window.
    pub fn new(contract: MkContract, action: DegradationAction) -> Self {
        let monitor = contract.monitor();
        let min_margin = monitor.margin();
        TaskContract {
            action,
            monitor,
            degraded: false,
            outcomes: ContractOutcomes {
                jobs: 0,
                misses: 0,
                violations: 0,
                worst_misses_in_window: 0,
                min_margin,
                safe_substituted: 0,
                degraded_jobs: 0,
            },
        }
    }

    /// The configured degradation action.
    pub fn action(&self) -> DegradationAction {
        self.action
    }

    /// Whether the task is currently degraded (window violated at the
    /// last recorded job, not yet recovered).
    #[cfg(test)]
    pub(crate) fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Telemetry collected so far.
    pub fn outcomes(&self) -> &ContractOutcomes {
        &self.outcomes
    }

    /// Records one concluded job. Returns `true` when this job *newly*
    /// violated the contract (a violated→violated job returns `false`).
    ///
    /// Degraded mode engages on violation and disengages as soon as the
    /// window drops back below the threshold.
    pub fn record(&mut self, miss: bool) -> bool {
        let was_violated = self.monitor.is_violated();
        let v = self.monitor.record(miss);
        self.outcomes.jobs += 1;
        if miss {
            self.outcomes.misses += 1;
        }
        self.outcomes.worst_misses_in_window =
            self.outcomes.worst_misses_in_window.max(v.misses_in_window);
        self.outcomes.min_margin = self.outcomes.min_margin.min(v.margin);
        let newly = v.violated && !was_violated;
        if newly {
            self.outcomes.violations += 1;
        }
        self.degraded = v.violated;
        if self.degraded {
            self.outcomes.degraded_jobs += 1;
        }
        newly
    }

    /// Whether the next release should be substituted by the safe
    /// variant.
    pub(crate) fn wants_safe_substitute(&self) -> bool {
        self.degraded && self.action == DegradationAction::SkipToSafe
    }

    /// Records a safe-substituted release: counts as a hit (the safe
    /// variant always meets its deadline), so substitution itself heals
    /// the window.
    pub(crate) fn record_safe_substitute(&mut self) {
        self.outcomes.safe_substituted += 1;
        self.record(false);
    }

    /// TEM copy cap while degraded under
    /// [`DegradationAction::ClampRecovery`]; `None` = no clamp.
    pub(crate) fn copy_cap(&self) -> Option<u32> {
        if self.degraded && self.action == DegradationAction::ClampRecovery {
            Some(2)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monitor_violates_at_one_past_the_tolerance() {
        let c = MkContract::new(2, 5);
        let mut w = c.monitor();
        assert!(!w.record(true).violated);
        assert!(!w.record(true).violated, "two misses are within contract");
        assert!(w.record(true).violated, "the third breaks it");
    }

    #[test]
    fn satisfied_by_slides_the_window() {
        let c = MkContract::new(1, 3);
        assert!(c.satisfied_by(&[true, false, false, true, false]));
        // Misses 2 apart share a 3-window.
        assert!(!c.satisfied_by(&[true, false, true]));
    }

    #[test]
    fn degraded_engages_and_disengages_with_the_window() {
        let mut tc = TaskContract::new(MkContract::new(1, 4), DegradationAction::SkipToSafe);
        assert!(!tc.record(true));
        assert!(!tc.is_degraded());
        assert!(tc.record(true), "second miss in 4 newly violates");
        assert!(tc.is_degraded());
        assert!(tc.wants_safe_substitute());
        // Hits heal the window once the first miss falls out of it.
        tc.record_safe_substitute();
        tc.record_safe_substitute();
        assert!(tc.is_degraded(), "both misses still inside the 4-window");
        tc.record_safe_substitute();
        assert!(!tc.is_degraded(), "the first miss aged out");
        assert_eq!(tc.outcomes().violations, 1);
        assert_eq!(tc.outcomes().safe_substituted, 3);
        assert_eq!(tc.outcomes().min_margin, 0);
    }

    #[test]
    fn copy_cap_only_for_clamp_while_degraded() {
        let mut tc = TaskContract::new(MkContract::new(0, 2), DegradationAction::ClampRecovery);
        assert_eq!(tc.copy_cap(), None);
        tc.record(true);
        assert_eq!(tc.copy_cap(), Some(2));
        let mut esc = TaskContract::new(MkContract::new(0, 2), DegradationAction::Escalate);
        esc.record(true);
        assert_eq!(esc.copy_cap(), None);
        assert!(!esc.wants_safe_substitute());
    }

    #[test]
    fn violation_counts_transitions_not_jobs() {
        let mut tc = TaskContract::new(MkContract::new(0, 3), DegradationAction::Escalate);
        assert!(tc.record(true));
        assert!(!tc.record(true), "still violated, not a new violation");
        assert!(!tc.record(false));
        assert!(!tc.record(false));
        assert!(!tc.record(false), "window clean again");
        assert!(tc.record(true), "fresh violation");
        assert_eq!(tc.outcomes().violations, 2);
        assert_eq!(tc.outcomes().worst_misses_in_window, 2);
    }

    #[test]
    #[should_panic(expected = "forbid at least one miss pattern")]
    fn vacuous_contract_rejected() {
        MkContract::new(3, 3);
    }
}
