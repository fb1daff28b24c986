//! Fixed-priority schedulability analysis, with and without faults.
//!
//! TEM's recovery executions are event-triggered: a third copy only runs
//! when an error was detected. For critical tasks to still meet deadlines
//! *in the presence of errors*, slack must be reserved a priori and proven
//! sufficient by a schedulability test (§2.8). This module implements:
//!
//! * classic response-time analysis (RTA) for fixed-priority preemptive
//!   scheduling — `R_i = C_i + Σ_{j∈hp(i)} ⌈R_i/T_j⌉·C_j`;
//! * the fault-tolerant extension of Burns, Davis and Punnekkat, adding a
//!   recovery term `⌈R_i/T_F⌉ · max_{k∈hep(i)} F_k` for a minimum
//!   inter-fault arrival time `T_F`;
//! * the TEM task transformation (one logical task becomes two executions
//!   plus a comparison, with a third execution plus vote as recovery);
//! * slack computation and a search for the shortest tolerable `T_F` —
//!   "how fast may faults arrive before deadlines break";
//! * a **weakly-hard** extension: given per-task (m,k) contracts
//!   ([`crate::contract::MkContract`]), bound the worst miss *pattern*
//!   any admissible fault placement can produce in a k-job window
//!   ([`analyse_weakly_hard`]) — the offline certificate the
//!   miss-pattern storm campaigns cross-check against.

use nlft_sim::time::SimDuration;

use crate::contract::MkContract;
use crate::task::{Criticality, TaskId, TaskSet, TaskSpec};

/// Kernel overhead constants for the TEM transformation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TemCosts {
    /// Cost of comparing the two result vectors.
    pub compare: SimDuration,
    /// Cost of the three-way majority vote.
    pub vote: SimDuration,
    /// Cost of restoring a clean CPU context before a recovery copy.
    pub context_restore: SimDuration,
}

impl TemCosts {
    /// Costs scaled to a given single-copy WCET: comparison and voting are
    /// small constant-time operations on the result vector.
    pub fn nominal() -> Self {
        TemCosts {
            compare: SimDuration::from_micros(5),
            vote: SimDuration::from_micros(8),
            context_restore: SimDuration::from_micros(3),
        }
    }
}

impl Default for TemCosts {
    fn default() -> Self {
        TemCosts::nominal()
    }
}

/// Transforms a logical task set into its TEM execution form:
///
/// * critical tasks: WCET becomes `2·C + compare` (both copies always run);
/// * non-critical tasks: unchanged (single execution).
///
/// The returned set is what the *fault-free* schedule must accommodate;
/// recovery demand is added separately by `ft_response_time`.
///
/// # Panics
///
/// Panics if a transformed WCET exceeds the task's deadline — such a task
/// can never be run under TEM and the set must be redesigned.
pub fn tem_transform(set: &TaskSet, costs: &TemCosts) -> TaskSet {
    set.iter()
        .map(|t| {
            let mut t = t.clone();
            if t.criticality == Criticality::Critical {
                let doubled = t.wcet * 2 + costs.compare;
                assert!(
                    doubled <= t.deadline,
                    "task {} cannot fit two copies + compare within its deadline",
                    t.name
                );
                t.wcet = doubled;
            }
            t
        })
        .collect()
}

/// Worst-case cost of recovering task `t` under TEM: one more execution,
/// a context restore, and the majority vote.
pub fn tem_recovery_cost(t: &TaskSpec, costs: &TemCosts) -> SimDuration {
    match t.criticality {
        Criticality::Critical => t.wcet + costs.context_restore + costs.vote,
        // Non-critical tasks are not recovered: they are shut down.
        Criticality::NonCritical => SimDuration::ZERO,
    }
}

/// Classic RTA for one task in a fixed-priority preemptive set.
///
/// Returns the worst-case response time, or `None` when the iteration
/// exceeds the deadline (unschedulable).
pub fn response_time(set: &TaskSet, task: &TaskSpec) -> Option<SimDuration> {
    response_fixpoint(set, task, task.wcet, None)
}

/// Fault-tolerant RTA: worst-case response time of `task` when faults
/// arrive at most once per `fault_interval`, each requiring the re-execution
/// of the most expensive affected job (`max_{k∈hep(i)} F_k`, with `F_k` from
/// `recovery_cost`).
///
/// Returns `None` when unschedulable under that fault arrival assumption.
pub(crate) fn ft_response_time(
    set: &TaskSet,
    task: &TaskSpec,
    fault_interval: SimDuration,
    recovery_cost: impl Fn(&TaskSpec) -> SimDuration,
) -> Option<SimDuration> {
    let max_recovery = set
        .higher_or_equal_priority(task)
        .map(&recovery_cost)
        .max()
        .unwrap_or(SimDuration::ZERO);
    response_fixpoint(set, task, task.wcet, Some((fault_interval, max_recovery)))
}

/// The response-time fixpoint every RTA form here iterates:
/// `R = base + Σ_{j∈hp(i)} ⌈R/T_j⌉·C_j`, plus `max(1, ⌈R/T_F⌉)·F` when
/// faults arrive at most once per `T_F` and each costs a recovery of `F`
/// (`fault = Some((T_F, F))`).
///
/// Returns `None` when the response exceeds the deadline.
fn response_fixpoint(
    set: &TaskSet,
    task: &TaskSpec,
    base: SimDuration,
    fault: Option<(SimDuration, SimDuration)>,
) -> Option<SimDuration> {
    let fault = fault.filter(|(_, f_max)| !f_max.is_zero());
    if matches!(fault, Some((t_f, _)) if t_f.is_zero()) {
        return None; // infinitely frequent faults
    }
    let mut r = base;
    // Fixpoint iteration; bounded by the strictly increasing response time,
    // each step at least one nanosecond, capped by the deadline.
    loop {
        let mut next = base;
        for hp in set.higher_priority_than(task) {
            let releases = r.div_ceil(hp.period);
            next += hp.wcet.checked_mul(releases)?;
        }
        if let Some((t_f, f_max)) = fault {
            next += f_max.checked_mul(r.div_ceil(t_f).max(1))?;
        }
        if next > task.deadline {
            return None;
        }
        if next == r {
            return Some(r);
        }
        r = next;
    }
}

/// Full-set schedulability report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedulability {
    /// Per-task `(id-ordered by priority)` response times; `None` = missed.
    pub response_times: Vec<(String, Option<SimDuration>)>,
}

impl Schedulability {
    /// `true` when every task meets its deadline.
    pub fn is_schedulable(&self) -> bool {
        self.response_times.iter().all(|(_, r)| r.is_some())
    }
}

/// Runs (fault-free) RTA on every task in the set.
pub fn analyse(set: &TaskSet) -> Schedulability {
    Schedulability {
        response_times: set
            .iter()
            .map(|t| (t.name.clone(), response_time(set, t)))
            .collect(),
    }
}

/// Runs fault-tolerant RTA on every task.
pub fn analyse_with_faults(
    set: &TaskSet,
    fault_interval: SimDuration,
    costs: &TemCosts,
) -> Schedulability {
    Schedulability {
        response_times: set
            .iter()
            .map(|t| {
                (
                    t.name.clone(),
                    ft_response_time(set, t, fault_interval, |k| tem_recovery_cost(k, costs)),
                )
            })
            .collect(),
    }
}

/// Per-task slack (deadline − response time) under fault-free RTA.
///
/// Returns `None` for unschedulable tasks.
pub fn slack(set: &TaskSet, task: &TaskSpec) -> Option<SimDuration> {
    response_time(set, task).map(|r| task.deadline - r)
}

/// Finds the smallest fault inter-arrival time `T_F` (to `resolution`
/// granularity) for which the whole set remains schedulable under
/// fault-tolerant RTA. Returns `None` if even arbitrarily rare faults break
/// the set (i.e. it is unschedulable with a single recovery).
///
/// This is the paper's implicit design question: how much slack buys how
/// much fault resilience.
pub fn min_tolerable_fault_interval(
    set: &TaskSet,
    costs: &TemCosts,
    resolution: SimDuration,
) -> Option<SimDuration> {
    assert!(!resolution.is_zero(), "resolution must be positive");
    // Upper bound: the longest deadline ⇒ at most one fault per busy period.
    let longest = set.iter().map(|t| t.deadline).max()?;
    if !analyse_with_faults(set, longest, costs).is_schedulable() {
        return None;
    }
    let (mut lo, mut hi) = (SimDuration::ZERO, longest);
    // Invariant: hi is schedulable, lo is not (treat 0 as unschedulable).
    while hi.saturating_sub(lo) > resolution {
        let mid = lo + (hi - lo) / 2;
        if !mid.is_zero() && analyse_with_faults(set, mid, costs).is_schedulable() {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(hi)
}

/// Fault counts at or above this are treated as "immune": killing one
/// job would need more simultaneous recoveries than any modelled fault
/// density can deliver (and non-critical tasks with zero recovery cost
/// are unaffected by faults entirely).
pub const MAX_TOLERATED_FAULTS: u32 = 64;

/// FT-RTA with an explicit per-job fault *count* instead of an arrival
/// rate: worst-case response time of `task` when exactly `faults`
/// errors each trigger the most expensive affected recovery.
///
/// This is the per-job view the weakly-hard analysis needs — the
/// interval-based [`ft_response_time`] asks "how often may faults
/// arrive", this asks "how many faults does one job survive".
///
/// Returns `None` when the response exceeds the deadline.
pub(crate) fn response_time_with_fault_count(
    set: &TaskSet,
    task: &TaskSpec,
    faults: u32,
    recovery_cost: impl Fn(&TaskSpec) -> SimDuration,
) -> Option<SimDuration> {
    response_time_with_blocking(set, task, SimDuration::ZERO, faults, recovery_cost)
}

/// `response_time_with_fault_count` with an additional one-shot
/// `blocking` term — the SRP bound from
/// [`crate::resources::ResourceMap::blocking_bound`], charged once before
/// the task starts (SRP blocks a task at most once). With
/// `blocking == 0` this is exactly `response_time_with_fault_count`; with
/// the LEFT-RS retry term as `recovery_cost` it is the multicore
/// certification: `R(f) = C + B + f·max_recovery + interference`.
///
/// Returns `None` when the response exceeds the deadline.
pub fn response_time_with_blocking(
    set: &TaskSet,
    task: &TaskSpec,
    blocking: SimDuration,
    faults: u32,
    recovery_cost: impl Fn(&TaskSpec) -> SimDuration,
) -> Option<SimDuration> {
    let max_recovery = set
        .higher_or_equal_priority(task)
        .map(&recovery_cost)
        .max()
        .unwrap_or(SimDuration::ZERO);
    let recovery_total = max_recovery.checked_mul(u64::from(faults))?;
    response_fixpoint(set, task, task.wcet + blocking + recovery_total, None)
}

/// The largest fault count a single job of `task` absorbs while still
/// meeting its deadline, capped at [`MAX_TOLERATED_FAULTS`].
///
/// Returns `None` when the task is unschedulable even fault-free.
pub fn faults_tolerated(
    set: &TaskSet,
    task: &TaskSpec,
    recovery_cost: impl Fn(&TaskSpec) -> SimDuration,
) -> Option<u32> {
    response_time_with_fault_count(set, task, 0, &recovery_cost)?;
    let mut t = 0;
    while t < MAX_TOLERATED_FAULTS
        && response_time_with_fault_count(set, task, t + 1, &recovery_cost).is_some()
    {
        t += 1;
    }
    Some(t)
}

/// Job-level miss model underlying the weakly-hard bound.
///
/// A task releases job `j` at `j·period` with absolute deadline
/// `j·period + deadline` (deadline ≤ period, so job windows never
/// overlap). Faults arrive at least `fault_interval` apart; a job
/// misses exactly when **more than** `tolerated` faults land inside its
/// window — [`faults_tolerated`] says the job's reserved slack absorbs
/// up to that many recoveries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MissModel {
    /// Release period.
    pub period: SimDuration,
    /// Relative deadline (≤ period).
    pub deadline: SimDuration,
    /// Minimum fault inter-arrival time (positive).
    pub fault_interval: SimDuration,
    /// Faults one job absorbs without missing.
    pub tolerated: u32,
}

impl MissModel {
    /// Span of a killing cluster: `tolerated + 1` faults at minimum
    /// separation stretch over `tolerated · fault_interval`.
    fn kill_span(&self) -> SimDuration {
        self.fault_interval * u64::from(self.tolerated)
    }

    /// The worst miss pattern over `k` consecutive jobs (true = miss)
    /// and a fault placement achieving it.
    ///
    /// Greedy earliest-finish adversary: walk the jobs in order and
    /// kill each one whose killing cluster — started as early as the
    /// separation constraint allows — still fits inside the job's
    /// window. Finishing each cluster as early as possible leaves the
    /// most room for later clusters, so no placement kills a job this
    /// one spares without sparing an earlier kill (the exchange
    /// argument the exhaustive cross-check test verifies).
    pub fn worst_pattern(&self, k: u32) -> (Vec<bool>, Vec<SimDuration>) {
        assert!(
            !self.fault_interval.is_zero(),
            "fault interval must be positive"
        );
        assert!(
            self.deadline <= self.period,
            "deadline must be within the period"
        );
        let mut pattern = Vec::with_capacity(k as usize);
        let mut faults = Vec::new();
        // Earliest instant the next fault may legally occur.
        let mut next_fault = SimDuration::ZERO;
        for j in 0..u64::from(k) {
            let release = self.period * j;
            let first = next_fault.max(release);
            let last = first + self.kill_span();
            if last < release + self.deadline {
                pattern.push(true);
                for i in 0..=u64::from(self.tolerated) {
                    faults.push(first + self.fault_interval * i);
                }
                next_fault = last + self.fault_interval;
            } else {
                pattern.push(false);
            }
        }
        (pattern, faults)
    }

    /// Which of the first `k` jobs miss under an explicit fault
    /// placement (`fault_times` as offsets from the first release).
    ///
    /// Job `j` misses when more than `tolerated` faults lie in
    /// `[j·period, j·period + deadline)`. One forward sweep over the
    /// train: releases only grow, so the first fault not before a
    /// release is never before it again. That is O(k + F) when job
    /// windows do not overlap, and stays exact when they do (deadline
    /// above the period). Every placement in this workspace is
    /// ascending; an unsorted train is sorted into a local copy first.
    pub fn misses(&self, fault_times: &[SimDuration], k: u32) -> Vec<bool> {
        let sorted;
        let faults = if fault_times.is_sorted() {
            fault_times
        } else {
            let mut copy = fault_times.to_vec();
            copy.sort_unstable();
            sorted = copy;
            &sorted
        };
        let mut lo = 0;
        (0..u64::from(k))
            .map(|j| {
                let release = self.period * j;
                let deadline = release + self.deadline;
                while lo < faults.len() && faults[lo] < release {
                    lo += 1;
                }
                let hits = faults[lo..].iter().take_while(|&&f| f < deadline).count();
                hits as u32 > self.tolerated
            })
            .collect()
    }
}

/// The weakly-hard verdict for one task's contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WeaklyHardBound {
    /// Task the contract applies to.
    pub id: TaskId,
    /// Task name for reports.
    pub name: String,
    /// The contract analysed.
    pub contract: MkContract,
    /// Faults one job absorbs (`None` = unschedulable fault-free).
    pub tolerated_faults: Option<u32>,
    /// Misses in the worst window of `contract.window` jobs.
    pub worst_misses: u32,
    /// The worst tolerated miss pattern itself (true = miss).
    pub worst_pattern: Vec<bool>,
    /// `true` when even the worst pattern stays within the contract.
    pub satisfied: bool,
}

/// Weakly-hard schedulability under fault-recovery RTA: for each
/// `(task, contract)` pair, bound the worst miss pattern any fault
/// placement at `fault_interval` minimum separation can produce in a
/// window of `contract.window` jobs, and check it against the contract.
///
/// A certified contract (`satisfied == true`) is a guarantee: no
/// admissible fault placement produces a window with more than
/// `worst_misses` misses (the cross-check campaign asserts simulation
/// never exceeds it).
///
/// # Panics
///
/// Panics when `fault_interval` is zero or a contract names an unknown
/// task.
pub fn analyse_weakly_hard(
    set: &TaskSet,
    contracts: &[(TaskId, MkContract)],
    fault_interval: SimDuration,
    costs: &TemCosts,
) -> Vec<WeaklyHardBound> {
    assert!(!fault_interval.is_zero(), "fault interval must be positive");
    contracts
        .iter()
        .map(|&(id, contract)| {
            let task = set.get(id).expect("contract for unknown task");
            let tolerated = faults_tolerated(set, task, |k| tem_recovery_cost(k, costs));
            weakly_hard_bound(task, contract, tolerated, fault_interval)
        })
        .collect()
}

/// The weakly-hard verdict for one `contract` on `task`, whose jobs each
/// absorb `tolerated` faults ([`faults_tolerated`]; `None` =
/// unschedulable fault-free) arriving `fault_interval` apart — the
/// per-contract rule of [`analyse_weakly_hard`], for a caller that
/// bounds many fault intervals of one task set and computes `tolerated`
/// once.
///
/// # Panics
///
/// Panics when `fault_interval` is zero.
pub fn weakly_hard_bound(
    task: &TaskSpec,
    contract: MkContract,
    tolerated: Option<u32>,
    fault_interval: SimDuration,
) -> WeaklyHardBound {
    assert!(!fault_interval.is_zero(), "fault interval must be positive");
    let id = task.id;
    match tolerated {
        None => WeaklyHardBound {
            id,
            name: task.name.clone(),
            contract,
            tolerated_faults: None,
            worst_misses: contract.window,
            worst_pattern: vec![true; contract.window as usize],
            satisfied: false,
        },
        Some(t) if t >= MAX_TOLERATED_FAULTS => WeaklyHardBound {
            id,
            name: task.name.clone(),
            contract,
            tolerated_faults: Some(t),
            worst_misses: 0,
            worst_pattern: vec![false; contract.window as usize],
            satisfied: true,
        },
        Some(t) => {
            let model = MissModel {
                period: task.period,
                deadline: task.deadline,
                fault_interval,
                tolerated: t,
            };
            let (worst_pattern, _) = model.worst_pattern(contract.window);
            let worst_misses = worst_pattern.iter().filter(|&&m| m).count() as u32;
            WeaklyHardBound {
                id,
                name: task.name.clone(),
                contract,
                tolerated_faults: Some(t),
                worst_misses,
                satisfied: worst_misses <= contract.max_misses,
                worst_pattern,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{Priority, TaskId, TaskSpecBuilder};

    fn us(v: u64) -> SimDuration {
        SimDuration::from_micros(v)
    }

    fn task(id: u32, prio: u32, period_us: u64, wcet_us: u64, crit: Criticality) -> TaskSpec {
        TaskSpecBuilder::new(TaskId(id), format!("t{id}"))
            .period(us(period_us))
            .wcet(us(wcet_us))
            .priority(Priority(prio))
            .criticality(crit)
            .build()
            .unwrap()
    }

    /// The classic Liu & Layland style example with hand-computed response
    /// times: T1(T=50,C=10), T2(T=100,C=20), T3(T=200,C=40).
    fn classic_set() -> TaskSet {
        [
            task(1, 0, 50, 10, Criticality::NonCritical),
            task(2, 1, 100, 20, Criticality::NonCritical),
            task(3, 2, 200, 40, Criticality::NonCritical),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn rta_matches_hand_computation() {
        let set = classic_set();
        // R1 = 10. R2 = 20 + ceil(R2/50)*10 → 30. R3 = 40 + ceil(R/50)*10 + ceil(R/100)*20
        // R3: start 40 → 40+10+20=70 → 40+20+20=80 → 40+20+20=80 ✓
        assert_eq!(
            response_time(&set, set.get(TaskId(1)).unwrap()),
            Some(us(10))
        );
        assert_eq!(
            response_time(&set, set.get(TaskId(2)).unwrap()),
            Some(us(30))
        );
        assert_eq!(
            response_time(&set, set.get(TaskId(3)).unwrap()),
            Some(us(80))
        );
        assert!(analyse(&set).is_schedulable());
    }

    #[test]
    fn overloaded_set_is_unschedulable() {
        let set: TaskSet = [
            task(1, 0, 10, 6, Criticality::NonCritical),
            task(2, 1, 20, 10, Criticality::NonCritical),
        ]
        .into_iter()
        .collect();
        // U = 0.6 + 0.5 > 1.
        assert!(response_time(&set, set.get(TaskId(2)).unwrap()).is_none());
        assert!(!analyse(&set).is_schedulable());
    }

    #[test]
    fn tem_transform_doubles_critical_only() {
        let costs = TemCosts {
            compare: us(2),
            vote: us(3),
            context_restore: us(1),
        };
        let set: TaskSet = [
            task(1, 0, 1000, 100, Criticality::Critical),
            task(2, 1, 1000, 100, Criticality::NonCritical),
        ]
        .into_iter()
        .collect();
        let tem = tem_transform(&set, &costs);
        assert_eq!(tem.get(TaskId(1)).unwrap().wcet, us(202));
        assert_eq!(tem.get(TaskId(2)).unwrap().wcet, us(100));
    }

    #[test]
    #[should_panic(expected = "cannot fit two copies")]
    fn tem_transform_rejects_oversized_tasks() {
        let set: TaskSet = [task(1, 0, 1000, 600, Criticality::Critical)]
            .into_iter()
            .collect();
        tem_transform(&set, &TemCosts::nominal());
    }

    #[test]
    fn recovery_cost_zero_for_non_critical() {
        let costs = TemCosts::nominal();
        let t = task(1, 0, 100, 10, Criticality::NonCritical);
        assert_eq!(tem_recovery_cost(&t, &costs), SimDuration::ZERO);
        let c = task(2, 0, 100, 10, Criticality::Critical);
        assert!(tem_recovery_cost(&c, &costs) > t.wcet);
    }

    #[test]
    fn ft_rta_adds_recovery_term() {
        let set = classic_set();
        let t3 = set.get(TaskId(3)).unwrap();
        let plain = response_time(&set, t3).unwrap();
        // One fault per 200us, recovery = re-run the largest hep task (40us).
        let ft = ft_response_time(&set, t3, us(200), |k| k.wcet).unwrap();
        assert!(ft > plain, "faults must increase the response time");
        // R3_ft = 40 + interference + ceil(R/200)*40; hand-iterate:
        // start 40 → 40+10+20+40=110 → 40+30+40+40=150 → 40+30+40+40=150 ✓
        assert_eq!(ft, us(150));
    }

    #[test]
    fn ft_rta_fails_when_faults_too_frequent() {
        let set = classic_set();
        let t3 = set.get(TaskId(3)).unwrap();
        assert!(ft_response_time(&set, t3, us(10), |k| k.wcet).is_none());
        assert!(ft_response_time(&set, t3, SimDuration::ZERO, |k| k.wcet).is_none());
    }

    #[test]
    fn slack_is_deadline_minus_response() {
        let set = classic_set();
        let t2 = set.get(TaskId(2)).unwrap();
        assert_eq!(slack(&set, t2), Some(us(70)));
    }

    #[test]
    fn min_fault_interval_is_tight() {
        let set = classic_set();
        let costs = TemCosts {
            compare: SimDuration::ZERO,
            vote: SimDuration::ZERO,
            context_restore: SimDuration::ZERO,
        };
        // Use plain wcet as recovery for easy reasoning.
        let tf = min_tolerable_fault_interval(&set, &costs, us(1)).unwrap();
        // Schedulable at the returned interval…
        assert!(analyse_with_faults(&set, tf, &costs).is_schedulable());
        // …and not at something noticeably smaller.
        let smaller = tf.saturating_sub(us(2));
        if !smaller.is_zero() {
            assert!(!analyse_with_faults(&set, smaller, &costs).is_schedulable());
        }
    }

    #[test]
    fn min_fault_interval_none_for_tight_sets() {
        // 90% utilisation by one task: recovery of itself never fits.
        let set: TaskSet = [task(1, 0, 100, 90, Criticality::Critical)]
            .into_iter()
            .collect();
        let costs = TemCosts::nominal();
        assert_eq!(min_tolerable_fault_interval(&set, &costs, us(1)), None);
    }

    #[test]
    fn analyse_with_faults_reports_per_task() {
        let set = classic_set();
        let rep = analyse_with_faults(&set, us(500), &TemCosts::nominal());
        assert_eq!(rep.response_times.len(), 3);
        // Non-critical recovery is zero-cost, so this equals plain RTA.
        assert!(rep.is_schedulable());
    }

    #[test]
    fn fault_count_rta_matches_hand_iteration() {
        let set = classic_set();
        let t3 = set.get(TaskId(3)).unwrap();
        // R(0) is plain RTA; each extra fault re-runs the largest hep
        // task (40us) once.
        assert_eq!(
            response_time_with_fault_count(&set, t3, 0, |k| k.wcet),
            Some(us(80))
        );
        // R(1): 80 → 120 → 150 → 150 ✓ (same fixpoint as the
        // interval-based test with one recovery hit).
        assert_eq!(
            response_time_with_fault_count(&set, t3, 1, |k| k.wcet),
            Some(us(150))
        );
        assert_eq!(
            response_time_with_fault_count(&set, t3, 2, |k| k.wcet),
            Some(us(200))
        );
        assert_eq!(
            response_time_with_fault_count(&set, t3, 3, |k| k.wcet),
            None
        );
        assert_eq!(faults_tolerated(&set, t3, |k| k.wcet), Some(2));
    }

    #[test]
    fn blocking_rta_reduces_to_fault_count_rta_at_zero() {
        let set = classic_set();
        let t3 = set.get(TaskId(3)).unwrap();
        for faults in 0..3 {
            assert_eq!(
                response_time_with_blocking(&set, t3, SimDuration::ZERO, faults, |k| k.wcet),
                response_time_with_fault_count(&set, t3, faults, |k| k.wcet)
            );
        }
    }

    #[test]
    fn blocking_rta_charges_the_term_once() {
        let set = classic_set();
        let t2 = set.get(TaskId(2)).unwrap();
        // R2 = 30 plain; +15us blocking → 20+15=35 → 35+10=45 → 45 ✓
        assert_eq!(
            response_time_with_blocking(&set, t2, us(15), 0, |_| SimDuration::ZERO),
            Some(us(45))
        );
        // Blocking past the deadline is unschedulable.
        assert_eq!(
            response_time_with_blocking(&set, t2, us(200), 0, |_| SimDuration::ZERO),
            None
        );
    }

    #[test]
    fn zero_recovery_means_immune() {
        let set = classic_set();
        let t1 = set.get(TaskId(1)).unwrap();
        assert_eq!(
            faults_tolerated(&set, t1, |_| SimDuration::ZERO),
            Some(MAX_TOLERATED_FAULTS)
        );
    }

    #[test]
    fn unschedulable_task_tolerates_nothing() {
        let set: TaskSet = [
            task(1, 0, 10, 6, Criticality::NonCritical),
            task(2, 1, 20, 10, Criticality::NonCritical),
        ]
        .into_iter()
        .collect();
        let t2 = set.get(TaskId(2)).unwrap();
        assert_eq!(faults_tolerated(&set, t2, |k| k.wcet), None);
    }

    #[test]
    fn greedy_adversary_reuses_late_cluster_tails() {
        // T = D = 10, T_F = 6, one tolerated fault: a cluster killing
        // job j can start late enough that its tail constrains — but
        // does not prevent — killing job j+1. The naive "stride" bound
        // ceil(2·T_F/T) = 2 would predict every other job safe; the
        // greedy adversary kills 3 of 4.
        let m = MissModel {
            period: us(10),
            deadline: us(10),
            fault_interval: us(6),
            tolerated: 1,
        };
        let (pattern, faults) = m.worst_pattern(4);
        assert_eq!(pattern, vec![true, true, false, true]);
        // The returned placement actually achieves the pattern and
        // respects the separation constraint.
        assert_eq!(m.misses(&faults, 4), pattern);
        for w in faults.windows(2) {
            assert!(w[1] - w[0] >= us(6));
        }
    }

    #[test]
    fn oversized_cluster_never_kills() {
        let m = MissModel {
            period: us(10),
            deadline: us(5),
            fault_interval: us(5),
            tolerated: 1,
        };
        let (pattern, faults) = m.worst_pattern(6);
        assert!(pattern.iter().all(|&miss| !miss));
        assert!(faults.is_empty());
    }

    #[test]
    fn analyse_weakly_hard_certifies_and_rejects() {
        let costs = TemCosts {
            compare: SimDuration::ZERO,
            vote: SimDuration::ZERO,
            context_restore: SimDuration::ZERO,
        };
        // One critical task: R(f) = 30 + 30·f ≤ 80 ⇒ tolerates 1 fault.
        let spec = TaskSpecBuilder::new(TaskId(1), "brake")
            .period(us(100))
            .deadline(us(80))
            .wcet(us(30))
            .priority(Priority(0))
            .criticality(Criticality::Critical)
            .build()
            .unwrap();
        let set: TaskSet = [spec].into_iter().collect();
        // T_F = 60us: a 2-fault cluster spans 60 < 80, so a job is
        // killable, but killing one pushes the next admissible fault
        // past the following job's window — at most 2 of any 3 die.
        let bounds = analyse_weakly_hard(
            &set,
            &[
                (TaskId(1), MkContract::new(2, 3)),
                (TaskId(1), MkContract::new(1, 3)),
            ],
            us(60),
            &costs,
        );
        assert_eq!(bounds[0].tolerated_faults, Some(1));
        assert_eq!(bounds[0].worst_misses, 2);
        assert!(bounds[0].satisfied, "(2,3) admits the worst pattern");
        assert!(!bounds[1].satisfied, "(1,3) does not");
        assert_eq!(bounds[0].worst_pattern.len(), 3);

        // Rare faults: the cluster no longer fits any window at all.
        let calm = analyse_weakly_hard(&set, &[(TaskId(1), MkContract::new(0, 8))], us(90), &costs);
        assert_eq!(calm[0].worst_misses, 0);
        assert!(calm[0].satisfied);
    }

    #[test]
    fn non_critical_contracts_are_fault_immune() {
        let set = classic_set();
        let bounds = analyse_weakly_hard(
            &set,
            &[(TaskId(1), MkContract::new(0, 4))],
            us(10),
            &TemCosts::nominal(),
        );
        // Non-critical recovery is free, so faults cannot break it.
        assert!(bounds[0].satisfied);
        assert_eq!(bounds[0].worst_misses, 0);
        assert_eq!(bounds[0].tolerated_faults, Some(MAX_TOLERATED_FAULTS));
    }
}
