//! A deterministic N-core partitioned fixed-priority executive with
//! SRP ceilings, pluggable resource sharing, and core-death injection.
//!
//! Each task is statically assigned to one core; each core schedules its
//! own tasks fixed-priority preemptive at a 1 µs tick. A job is a
//! three-segment program — compute, an optional critical section on one
//! declared resource, compute — and while inside the section the job runs
//! at the resource's SRP ceiling priority ([`crate::resources`]), so a
//! section is never preempted by a local task the ceiling dominates.
//!
//! The executive's reason to exist is the fault plane: a
//! [`CoreDeathFault`] kills one core, optionally deferred until the core
//! is *executing inside its critical section* — the adversarial placement.
//! A hard crash runs no cleanup: under the lock-based protocol the lock
//! leaks and every peer that needs the resource spins to its deadline
//! (counted as a deadlock); under LEFT-RS the dead core never commits and
//! peers are unharmed. An *escalated* death instead drives the core's
//! [`EscalationMachine`] to `FailSilent`, and the executive runs the
//! release hook — any held resource is revoked — so even the lock-based
//! protocol survives an orderly silence. That revocation-on-silence rule
//! also applies to a core silenced organically by its supervisor
//! observing errored jobs, closing the PR 3 escalation/resource hazard.
//!
//! Everything is integer tick arithmetic: runs are bit-deterministic and
//! contain no RNG, which is what lets campaign trials fork one labelled
//! stream per trial and stay bit-identical at any thread count.

use nlft_machine::fault::CoreDeathFault;
use nlft_sim::time::SimDuration;

use crate::escalation::{EscalationEvent, EscalationMachine, EscalationPolicy};
use crate::resources::{
    ProtocolKind, ResourceId, ResourceMap, ResourceProtocol, SectionCommit, SectionEntry,
};
use crate::task::{Criticality, Priority, TaskId, TaskSet, TaskSpecBuilder};

/// Execution phase of an active job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Pre-section compute segment.
    Pre,
    /// Attempting section entry (spinning when the protocol blocks).
    Entering,
    /// Executing the critical-section body.
    InSection,
    /// Post-section compute segment.
    Post,
}

#[derive(Debug, Clone, Copy)]
struct Job {
    release: u64,
    deadline_at: u64,
    phase: Phase,
    done: u64,
    retries: u32,
    blocked_on_dead: bool,
}

#[derive(Debug, Clone)]
struct Resident {
    id: TaskId,
    name: String,
    priority: Priority,
    core: usize,
    period: u64,
    deadline: u64,
    pre: u64,
    section: Option<(ResourceId, u64)>,
    post: u64,
    next_release: u64,
    job: Option<Job>,
    released: u64,
    completed: u64,
    missed: u64,
    deadlocked: u64,
    worst_response: u64,
}

#[derive(Debug)]
struct Core {
    alive: bool,
    silenced: bool,
    supervisor: Option<EscalationMachine>,
}

impl Core {
    fn down(&self) -> bool {
        !self.alive || self.silenced
    }
}

/// Per-task outcome of one executive run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskCoreOutcome {
    /// Task identity.
    pub id: TaskId,
    /// Task name for reports.
    pub name: String,
    /// Core the task was assigned to.
    pub core: usize,
    /// Jobs released.
    pub released: u64,
    /// Jobs completed in time.
    pub completed: u64,
    /// Jobs aborted at their deadline.
    pub missed: u64,
    /// Aborted jobs that were blocked on a resource held by a dead core.
    pub deadlocked: u64,
    /// Worst observed response time, `None` when no job completed.
    pub worst_response: Option<SimDuration>,
}

/// Outcome of one [`MulticoreExecutive::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MulticoreReport {
    /// Ticks simulated.
    pub ticks: u64,
    /// Jobs released across all cores.
    pub released: u64,
    /// Jobs completed in time.
    pub completed: u64,
    /// Jobs aborted at their deadline.
    pub missed: u64,
    /// Aborted jobs blocked on a dead holder — the lock-leak signature.
    pub deadlocks: u64,
    /// Worst per-job CAS retry count observed (LEFT-RS only).
    pub max_retries: u32,
    /// Worst per-job retry re-execution cost observed.
    pub max_retry_cost: SimDuration,
    /// Core-death faults that fired.
    pub core_deaths: u64,
    /// Escalation-ladder transitions, as `(tick, core, event)`.
    pub escalations: Vec<(u64, usize, EscalationEvent)>,
    /// Per-task outcomes, in task-set (priority) order.
    pub per_task: Vec<TaskCoreOutcome>,
}

impl MulticoreReport {
    /// `true` when no surviving-core job missed a deadline or deadlocked.
    pub fn clean(&self) -> bool {
        self.missed == 0 && self.deadlocks == 0
    }
}

/// The N-core executive. Construct, assign, inject, then [`run`] once.
///
/// [`run`]: MulticoreExecutive::run
#[derive(Debug)]
pub struct MulticoreExecutive {
    cores: Vec<Core>,
    residents: Vec<Resident>,
    ceilings: Vec<(ResourceId, Priority)>,
    protocol: Box<dyn ResourceProtocol>,
    deaths: Vec<(CoreDeathFault, bool)>,
    max_retries: u32,
    max_retry_cost: u64,
    core_deaths: u64,
    escalations: Vec<(u64, usize, EscalationEvent)>,
}

impl MulticoreExecutive {
    /// Builds an executive for `cores` cores running `set` under
    /// `protocol`, with critical sections declared in `map`. Tasks are
    /// assigned round-robin in priority order; override with [`assign`].
    ///
    /// [`assign`]: MulticoreExecutive::assign
    ///
    /// # Panics
    ///
    /// Panics when `cores` is zero, a task declares more than one
    /// resource, or a declared section exceeds its task's WCET.
    pub fn new(cores: usize, set: &TaskSet, map: &ResourceMap, protocol: ProtocolKind) -> Self {
        assert!(cores > 0, "a node has at least one core");
        let ceilings = map.ceilings(set);
        let residents = set
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let declared: Vec<_> = map.accesses().filter(|a| a.task == t.id).collect();
                assert!(
                    declared.len() <= 1,
                    "task {} declares {} resources; the executive models one section per job",
                    t.name,
                    declared.len()
                );
                let wcet = t.wcet.as_micros();
                let section = declared.first().map(|a| {
                    let s = a.section.as_micros();
                    assert!(s <= wcet, "section of {} exceeds its WCET", t.name);
                    (a.resource, s)
                });
                let sec_len = section.map_or(0, |(_, s)| s);
                let pre = (wcet - sec_len) / 2;
                Resident {
                    id: t.id,
                    name: t.name.clone(),
                    priority: t.priority,
                    core: i % cores,
                    period: t.period.as_micros(),
                    deadline: t.deadline.as_micros(),
                    pre,
                    section,
                    post: wcet - sec_len - pre,
                    next_release: 0,
                    job: None,
                    released: 0,
                    completed: 0,
                    missed: 0,
                    deadlocked: 0,
                    worst_response: 0,
                }
            })
            .collect();
        MulticoreExecutive {
            cores: (0..cores)
                .map(|_| Core {
                    alive: true,
                    silenced: false,
                    supervisor: None,
                })
                .collect(),
            residents,
            ceilings,
            protocol: protocol.build(),
            deaths: Vec::new(),
            max_retries: 0,
            max_retry_cost: 0,
            core_deaths: 0,
            escalations: Vec::new(),
        }
    }

    /// The reference 2+-core brake-node workload shared by the campaign,
    /// the cluster's dual-core nodes, the bench and the example: two
    /// critical controllers on separate cores sharing the wheel-state
    /// resource (R1, 40 µs sections), plus a non-critical monitor and
    /// telemetry task, plus one auxiliary sharing controller per extra
    /// core.
    pub fn reference_workload(cores: usize) -> (TaskSet, ResourceMap) {
        assert!(cores >= 1, "a node has at least one core");
        let us = SimDuration::from_micros;
        let mut tasks = vec![
            TaskSpecBuilder::new(TaskId(1), "brake-ctl")
                .period(us(400))
                .deadline(us(300))
                .wcet(us(120))
                .priority(Priority(0))
                .criticality(Criticality::Critical)
                .build()
                .unwrap(),
            TaskSpecBuilder::new(TaskId(2), "force-dist")
                .period(us(400))
                .deadline(us(350))
                .wcet(us(140))
                .priority(Priority(1))
                .criticality(Criticality::Critical)
                .build()
                .unwrap(),
            TaskSpecBuilder::new(TaskId(3), "abs-monitor")
                .period(us(800))
                .deadline(us(800))
                .wcet(us(100))
                .priority(Priority(2))
                .criticality(Criticality::NonCritical)
                .build()
                .unwrap(),
            TaskSpecBuilder::new(TaskId(4), "telemetry")
                .period(us(800))
                .deadline(us(800))
                .wcet(us(120))
                .priority(Priority(3))
                .criticality(Criticality::NonCritical)
                .build()
                .unwrap(),
        ];
        let mut map = ResourceMap::new();
        map.declare(TaskId(1), ResourceId(1), us(40));
        map.declare(TaskId(2), ResourceId(1), us(40));
        for extra in 2..cores {
            let id = TaskId(3 + extra as u32);
            tasks.push(
                TaskSpecBuilder::new(id, format!("aux-ctl-{extra}"))
                    .period(us(400))
                    .deadline(us(350))
                    .wcet(us(120))
                    .priority(Priority(2 + extra as u32))
                    .criticality(Criticality::Critical)
                    .build()
                    .unwrap(),
            );
            map.declare(id, ResourceId(1), us(40));
        }
        (tasks.into_iter().collect(), map)
    }

    /// The reference node assembled: [`reference_workload`] with its
    /// canonical assignment (controllers spread across cores, monitor
    /// with brake-ctl, telemetry with force-dist).
    ///
    /// [`reference_workload`]: MulticoreExecutive::reference_workload
    pub fn reference(cores: usize, protocol: ProtocolKind) -> Self {
        let (set, map) = Self::reference_workload(cores);
        let mut exec = MulticoreExecutive::new(cores, &set, &map, protocol);
        exec.assign(TaskId(1), 0);
        exec.assign(TaskId(2), 1 % cores);
        exec.assign(TaskId(3), 0);
        exec.assign(TaskId(4), 1 % cores);
        for extra in 2..cores {
            exec.assign(TaskId(3 + extra as u32), extra);
        }
        exec
    }

    /// Pins `task` to `core`.
    ///
    /// # Panics
    ///
    /// Panics on an unknown task or out-of-range core.
    pub fn assign(&mut self, task: TaskId, core: usize) {
        assert!(core < self.cores.len(), "core {core} out of range");
        self.residents
            .iter_mut()
            .find(|r| r.id == task)
            .unwrap_or_else(|| panic!("unknown task {task:?}"))
            .core = core;
    }

    /// Attaches a PR 3 escalation ladder to `core`. Escalated deaths
    /// drive it to `FailSilent`; deadline-missed jobs feed it errored
    /// observations, so a core can also silence itself organically —
    /// either way the executive revokes its held resources.
    pub fn supervise(&mut self, core: usize, policy: EscalationPolicy) {
        self.cores[core].supervisor = Some(EscalationMachine::new(policy));
    }

    /// Schedules a core-death fault.
    pub fn inject(&mut self, death: CoreDeathFault) {
        self.deaths.push((death, false));
    }

    fn ceiling(&self, resource: ResourceId) -> Priority {
        self.ceilings
            .iter()
            .find(|(r, _)| *r == resource)
            .map(|&(_, c)| c)
            .expect("section on a resource without a ceiling")
    }

    /// Effective priority of resident `i`'s active job: the SRP ceiling
    /// boosts a job for as long as it is inside its section.
    fn effective_priority(&self, i: usize) -> (Priority, TaskId) {
        let r = &self.residents[i];
        let base = r.priority;
        let boosted = match (r.job.as_ref().map(|j| j.phase), r.section) {
            (Some(Phase::InSection), Some((res, _))) => base.min(self.ceiling(res)),
            _ => base,
        };
        (boosted, r.id)
    }

    /// Silences `core` in an orderly fashion: jobs are discarded and any
    /// in-section job's resource is revoked (the release hook runs).
    fn silence_core(&mut self, core: usize) {
        self.cores[core].silenced = true;
        for r in &mut self.residents {
            if r.core == core {
                if let Some(job) = r.job.take() {
                    if job.phase == Phase::InSection {
                        let (res, _) = r.section.expect("in-section job has a section");
                        self.protocol.abandon(res, core, true);
                    }
                }
            }
        }
    }

    /// Kills `core` without cleanup: an in-section job leaks whatever the
    /// protocol cannot survive leaking.
    fn crash_core(&mut self, core: usize) {
        self.cores[core].alive = false;
        for r in &mut self.residents {
            if r.core == core {
                if let Some(job) = r.job.take() {
                    if job.phase == Phase::InSection {
                        let (res, _) = r.section.expect("in-section job has a section");
                        self.protocol.abandon(res, core, false);
                    }
                }
            }
        }
    }

    /// Fires `death` now: escalated deaths walk the ladder (attached
    /// supervisor or a synthesized `WentSilent`) and silence in order;
    /// crashes just stop the core.
    fn fire_death(&mut self, death: CoreDeathFault, now: u64) {
        let core = death.core as usize;
        self.core_deaths += 1;
        if death.escalated {
            if let Some(mut ladder) = self.cores[core].supervisor.take() {
                let mut guard = 0;
                while !ladder.is_silent() && guard < 64 {
                    for e in ladder.observe(true) {
                        self.escalations.push((now, core, e));
                    }
                    guard += 1;
                }
                self.cores[core].supervisor = Some(ladder);
            } else {
                self.escalations
                    .push((now, core, EscalationEvent::WentSilent));
            }
            self.silence_core(core);
        } else {
            self.crash_core(core);
        }
    }

    /// Runs the executive for `horizon` ticks (1 tick = 1 µs) and
    /// reports. Call once per instance.
    pub fn run(&mut self, horizon: u64) -> MulticoreReport {
        for now in 0..horizon {
            self.abort_overdue(now);
            self.release_jobs(now);
            self.strike_deaths(now);
            for core in 0..self.cores.len() {
                if !self.cores[core].down() {
                    self.execute_core(core, now);
                }
            }
        }
        self.report(horizon)
    }

    fn abort_overdue(&mut self, now: u64) {
        for i in 0..self.residents.len() {
            let core = self.residents[i].core;
            if self.cores[core].down() {
                continue;
            }
            let Some(job) = self.residents[i].job else {
                continue;
            };
            if now < job.deadline_at {
                continue;
            }
            let r = &mut self.residents[i];
            r.missed += 1;
            let mut dead_holder = job.blocked_on_dead;
            if job.phase == Phase::Entering {
                if let Some((res, _)) = r.section {
                    if let Some(holder) = self.protocol.holder(res) {
                        dead_holder |= self.cores[holder].down();
                    }
                }
            }
            if dead_holder {
                r.deadlocked += 1;
            }
            if job.phase == Phase::InSection {
                let (res, _) = r.section.expect("in-section job has a section");
                // A kernel-controlled abort runs the release hook.
                self.protocol.abandon(res, core, true);
            }
            r.job = None;
            self.observe_job(core, now, true);
        }
    }

    fn release_jobs(&mut self, now: u64) {
        for r in &mut self.residents {
            if self.cores[r.core].down() || now != r.next_release {
                continue;
            }
            debug_assert!(r.job.is_none(), "deadline ≤ period: job gone by release");
            r.job = Some(Job {
                release: now,
                deadline_at: now + r.deadline,
                phase: if r.pre > 0 {
                    Phase::Pre
                } else if r.section.is_some() {
                    Phase::Entering
                } else {
                    Phase::Post
                },
                done: 0,
                retries: 0,
                blocked_on_dead: false,
            });
            r.released += 1;
            r.next_release = now + r.period;
        }
    }

    /// Fires armed deaths: immediate ones at their tick, in-section ones
    /// at the first tick the victim core would execute inside a section.
    fn strike_deaths(&mut self, now: u64) {
        for d in 0..self.deaths.len() {
            let (death, fired) = self.deaths[d];
            let core = death.core as usize;
            if fired || now < death.at_tick || core >= self.cores.len() {
                continue;
            }
            if self.cores[core].down() {
                self.deaths[d].1 = true;
                continue;
            }
            let strike = if death.in_section {
                self.chosen_job(core)
                    .and_then(|i| self.residents[i].job.as_ref())
                    .is_some_and(|j| j.phase == Phase::InSection)
            } else {
                true
            };
            if strike {
                self.deaths[d].1 = true;
                self.fire_death(death, now);
            }
        }
    }

    /// The resident whose job `core` would execute this tick.
    fn chosen_job(&self, core: usize) -> Option<usize> {
        (0..self.residents.len())
            .filter(|&i| self.residents[i].core == core && self.residents[i].job.is_some())
            .min_by_key(|&i| self.effective_priority(i))
    }

    fn execute_core(&mut self, core: usize, now: u64) {
        let Some(i) = self.chosen_job(core) else {
            return;
        };
        let (section, pre, post) = {
            let r = &self.residents[i];
            (r.section, r.pre, r.post)
        };
        let mut job = self.residents[i].job.take().expect("chosen job is active");
        let mut completed = false;
        match job.phase {
            Phase::Pre => {
                job.done += 1;
                if job.done == pre {
                    job.done = 0;
                    job.phase = if section.is_some() {
                        Phase::Entering
                    } else {
                        Phase::Post
                    };
                }
            }
            Phase::Entering => {
                let (res, sec_len) = section.expect("entering job has a section");
                match self.protocol.try_enter(res, core) {
                    SectionEntry::Enter => {
                        // Entry is instantaneous; this tick executes the
                        // first tick of the section body.
                        job.phase = Phase::InSection;
                        job.done = 1;
                        if job.done == sec_len {
                            self.commit_section(core, &mut job, res, sec_len, post, &mut completed);
                        }
                    }
                    SectionEntry::Blocked { holder } => {
                        // The tick is burnt spinning on the lock.
                        if self.cores[holder].down() {
                            job.blocked_on_dead = true;
                        }
                    }
                }
            }
            Phase::InSection => {
                let (res, sec_len) = section.expect("in-section job has a section");
                job.done += 1;
                if job.done == sec_len {
                    self.commit_section(core, &mut job, res, sec_len, post, &mut completed);
                }
            }
            Phase::Post => {
                job.done += 1;
                if job.done == post {
                    completed = true;
                }
            }
        }
        if completed {
            let response = now + 1 - job.release;
            let r = &mut self.residents[i];
            r.completed += 1;
            r.worst_response = r.worst_response.max(response);
            self.observe_job(core, now, false);
        } else {
            self.residents[i].job = Some(job);
        }
    }

    fn commit_section(
        &mut self,
        core: usize,
        job: &mut Job,
        res: ResourceId,
        sec_len: u64,
        post: u64,
        completed: &mut bool,
    ) {
        match self.protocol.commit(res, core) {
            SectionCommit::Committed => {
                job.done = 0;
                job.phase = Phase::Post;
                if post == 0 {
                    *completed = true;
                }
            }
            SectionCommit::Retry => {
                job.retries += 1;
                job.done = 0;
                self.max_retries = self.max_retries.max(job.retries);
                self.max_retry_cost = self.max_retry_cost.max(u64::from(job.retries) * sec_len);
            }
        }
    }

    /// Feeds one job outcome to the core's supervisor; a ladder that
    /// reaches `FailSilent`/`Retired` silences the core with revocation.
    fn observe_job(&mut self, core: usize, now: u64, errored: bool) {
        let Some(mut ladder) = self.cores[core].supervisor.take() else {
            return;
        };
        let events = ladder.observe(errored);
        let silenced = events
            .iter()
            .any(|e| matches!(e, EscalationEvent::WentSilent | EscalationEvent::Retired));
        for e in events {
            self.escalations.push((now, core, e));
        }
        self.cores[core].supervisor = Some(ladder);
        if silenced {
            self.silence_core(core);
        }
    }

    fn report(&mut self, horizon: u64) -> MulticoreReport {
        MulticoreReport {
            ticks: horizon,
            released: self.residents.iter().map(|r| r.released).sum(),
            completed: self.residents.iter().map(|r| r.completed).sum(),
            missed: self.residents.iter().map(|r| r.missed).sum(),
            deadlocks: self.residents.iter().map(|r| r.deadlocked).sum(),
            max_retries: self.max_retries,
            max_retry_cost: SimDuration::from_micros(self.max_retry_cost),
            core_deaths: self.core_deaths,
            escalations: std::mem::take(&mut self.escalations),
            per_task: self
                .residents
                .iter()
                .map(|r| TaskCoreOutcome {
                    id: r.id,
                    name: r.name.clone(),
                    core: r.core,
                    released: r.released,
                    completed: r.completed,
                    missed: r.missed,
                    deadlocked: r.deadlocked,
                    worst_response: (r.completed > 0)
                        .then(|| SimDuration::from_micros(r.worst_response)),
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::{certify, left_rs_retry_term};
    use crate::task::TaskSpec;

    fn us(v: u64) -> SimDuration {
        SimDuration::from_micros(v)
    }

    fn death(core: u32, at_tick: u64, escalated: bool) -> CoreDeathFault {
        CoreDeathFault {
            core,
            at_tick,
            in_section: true,
            escalated,
        }
    }

    fn periodic(id: u32, prio: u32, period_us: u64, wcet_us: u64) -> TaskSpec {
        TaskSpecBuilder::new(TaskId(id), format!("t{id}"))
            .period(us(period_us))
            .wcet(us(wcet_us))
            .priority(Priority(prio))
            .criticality(Criticality::Critical)
            .build()
            .unwrap()
    }

    /// Periods 50/100/200 µs, WCETs 10/20/40 µs: 60 % utilisation.
    fn classic_set() -> TaskSet {
        [
            periodic(1, 0, 50, 10),
            periodic(2, 1, 100, 20),
            periodic(3, 2, 200, 40),
        ]
        .into_iter()
        .collect()
    }

    /// One core, no resources: the plain fixed-priority dispatcher.
    fn one_core(set: &TaskSet, horizon: u64) -> MulticoreReport {
        MulticoreExecutive::new(1, set, &ResourceMap::new(), ProtocolKind::LockBased).run(horizon)
    }

    #[test]
    fn one_core_worst_response_matches_rta_at_critical_instant() {
        let set = classic_set();
        let report = one_core(&set, 10_000);
        assert!(report.clean(), "{report:?}");
        for (t, o) in set.iter().zip(&report.per_task) {
            let bound = crate::analysis::response_time(&set, t).unwrap();
            assert_eq!(o.worst_response, Some(bound), "{}", t.name);
        }
    }

    #[test]
    fn one_core_release_preempts_a_lower_priority_job() {
        // t3 starts at 30 µs, once t1 and t2 are done; t1's release at
        // 50 µs preempts it for 10 µs, so it ends at 80 µs rather than
        // the 70 µs an unpreempted run would take.
        let report = one_core(&classic_set(), 200);
        assert_eq!(report.per_task[2].worst_response, Some(us(80)));
    }

    #[test]
    fn one_core_overload_misses_deadlines() {
        let set: TaskSet = [periodic(1, 0, 10, 6), periodic(2, 1, 20, 10)]
            .into_iter()
            .collect();
        let report = one_core(&set, 1_000);
        assert!(!report.clean());
        assert_eq!(report.per_task[0].missed, 0);
        assert!(report.per_task[1].missed > 0);
    }

    #[test]
    fn one_core_light_load_completes_every_job_undelayed() {
        let set: TaskSet = [periodic(1, 0, 100, 10)].into_iter().collect();
        let report = one_core(&set, 1_000);
        let t = &report.per_task[0];
        assert_eq!((t.released, t.completed, t.missed), (10, 10, 0));
        assert_eq!(t.worst_response, Some(us(10)));
    }

    #[test]
    fn one_core_long_run_completes_every_job() {
        let report = one_core(&classic_set(), 100_000);
        // 100 ms: 2000 jobs of t1, 1000 of t2, 500 of t3.
        assert_eq!(report.completed, 3500);
        assert!(report.clean());
    }

    #[test]
    fn clean_reference_run_meets_all_deadlines_under_both_protocols() {
        for kind in [ProtocolKind::LockBased, ProtocolKind::LeftRs] {
            let mut exec = MulticoreExecutive::reference(2, kind);
            let report = exec.run(4000);
            assert!(report.clean(), "{}: {report:?}", kind.name());
            assert_eq!(report.released, report.completed);
            // 10 releases each of t1/t2, 5 each of t3/t4.
            assert_eq!(report.released, 30);
        }
    }

    #[test]
    fn left_rs_retries_stay_within_certified_bound() {
        let mut exec = MulticoreExecutive::reference(2, ProtocolKind::LeftRs);
        let report = exec.run(4000);
        // The overlapping t1/t2 sections defeat t2's first CAS each
        // hyperperiod: exactly one retry, never more (2 cores ⇒ bound 1).
        assert_eq!(report.max_retries, 1);
        assert_eq!(report.max_retry_cost, us(40));
        let (set, map) = MulticoreExecutive::reference_workload(2);
        let certified = left_rs_retry_term(&map, set.get(TaskId(2)).unwrap(), 2);
        assert!(report.max_retry_cost <= certified);
        // And the observed worst responses stay within certification.
        for (c, o) in certify(&set, &map, ProtocolKind::LeftRs, 2, 1)
            .iter()
            .zip(&report.per_task)
        {
            let r = c.response.expect("reference node certifies");
            assert!(o.worst_response.unwrap() <= r, "{}: {o:?} vs {r}", c.name);
        }
    }

    #[test]
    fn crash_in_section_deadlocks_lock_based_peers() {
        let mut exec = MulticoreExecutive::reference(2, ProtocolKind::LockBased);
        exec.inject(death(0, 45, false));
        let report = exec.run(4000);
        assert_eq!(report.core_deaths, 1);
        assert!(report.deadlocks >= 1, "{report:?}");
        assert!(report.missed >= 1);
        // The victim is force-dist on core 1.
        let t2 = &report.per_task[1];
        assert_eq!(t2.name, "force-dist");
        assert!(t2.deadlocked >= 1);
    }

    #[test]
    fn crash_in_section_is_invisible_to_left_rs_peers() {
        let mut exec = MulticoreExecutive::reference(2, ProtocolKind::LeftRs);
        exec.inject(death(0, 45, false));
        let report = exec.run(4000);
        assert_eq!(report.core_deaths, 1);
        assert!(report.clean(), "{report:?}");
        // Core 1's tasks keep completing every period after the death.
        assert_eq!(report.per_task[1].completed, 10);
    }

    #[test]
    fn escalated_silence_revokes_the_lock_so_peers_survive() {
        // The satellite-2 regression: the same placement that deadlocks
        // the lock-based baseline under a hard crash is survivable when
        // the PR 3 ladder silences the core — the release hook revokes
        // the held lock.
        let mut exec = MulticoreExecutive::reference(2, ProtocolKind::LockBased);
        exec.supervise(0, EscalationPolicy::default());
        exec.inject(death(0, 45, true));
        let report = exec.run(4000);
        assert_eq!(report.core_deaths, 1);
        assert_eq!(report.deadlocks, 0, "{report:?}");
        assert_eq!(report.missed, 0);
        // The ladder actually walked: Suspected then WentSilent.
        let events: Vec<_> = report.escalations.iter().map(|&(_, c, e)| (c, e)).collect();
        assert!(events.contains(&(0, EscalationEvent::Suspected)));
        assert!(events.contains(&(0, EscalationEvent::WentSilent)));
        // Peers on core 1 ran to the end of the horizon.
        assert_eq!(report.per_task[1].completed, 10);
    }

    #[test]
    fn escalated_silence_without_supervisor_still_revokes() {
        let mut exec = MulticoreExecutive::reference(2, ProtocolKind::LockBased);
        exec.inject(death(1, 500, true));
        let report = exec.run(4000);
        assert_eq!(report.deadlocks, 0);
        assert_eq!(report.missed, 0);
        assert!(report
            .escalations
            .iter()
            .any(|&(_, c, e)| c == 1 && e == EscalationEvent::WentSilent));
    }

    #[test]
    fn in_section_death_waits_for_the_section() {
        // Armed during t1's pre segment (tick 10); t1 enters its section
        // at tick 40. If the strike correctly waits until the core is
        // inside the section, the lock leaks and the peer deadlocks; a
        // premature strike at tick 10 would leak nothing.
        let mut exec = MulticoreExecutive::reference(2, ProtocolKind::LockBased);
        exec.inject(death(0, 10, false));
        let report = exec.run(4000);
        assert_eq!(report.core_deaths, 1);
        assert_eq!(report.per_task[0].completed, 0);
        assert!(report.deadlocks >= 1, "{report:?}");
    }

    #[test]
    fn immediate_death_fires_at_its_tick() {
        // The same arming tick without the in-section deferral dies in
        // t1's pre segment: nothing is held, so even the lock-based
        // protocol survives.
        let mut exec = MulticoreExecutive::reference(2, ProtocolKind::LockBased);
        exec.inject(CoreDeathFault {
            core: 0,
            at_tick: 10,
            in_section: false,
            escalated: false,
        });
        let report = exec.run(4000);
        assert_eq!(report.per_task[0].released, 1);
        assert!(report.clean(), "{report:?}");
    }

    #[test]
    fn ceiling_boost_keeps_sections_atomic_on_core() {
        // core 0: mid-priority t2 (no resource) + low-priority t3 whose
        // resource is shared with high-priority t1 on core 1 — so
        // ceiling(R) = P(0) and t3-in-section must not be preempted by
        // t2 even though t2 outranks it.
        let mk = |id: u32, prio: u32, period: u64, deadline: u64, wcet: u64| -> TaskSpec {
            TaskSpecBuilder::new(TaskId(id), format!("t{id}"))
                .period(us(period))
                .deadline(us(deadline))
                .wcet(us(wcet))
                .priority(Priority(prio))
                .criticality(Criticality::NonCritical)
                .build()
                .unwrap()
        };
        let set: TaskSet = [
            mk(1, 0, 400, 400, 20),
            mk(2, 1, 400, 400, 60),
            mk(3, 2, 400, 400, 90),
        ]
        .into_iter()
        .collect();
        let mut map = ResourceMap::new();
        map.declare(TaskId(1), ResourceId(7), us(10));
        map.declare(TaskId(3), ResourceId(7), us(30));
        assert_eq!(map.ceiling(&set, ResourceId(7)), Some(Priority(0)));
        let mut exec = MulticoreExecutive::new(2, &set, &map, ProtocolKind::LockBased);
        exec.assign(TaskId(1), 1);
        exec.assign(TaskId(2), 0);
        exec.assign(TaskId(3), 0);
        // Give t3 a head start into its section: delay t2's first
        // release by pushing it to a later phase via its own period is
        // not possible here, so instead verify the whole run is clean
        // and t3's sections never interleave badly: with the ceiling the
        // run completes all jobs.
        let report = exec.run(4000);
        assert!(report.clean(), "{report:?}");
        assert_eq!(report.released, report.completed);
    }

    #[test]
    fn runs_are_bit_deterministic() {
        let run = || {
            let mut exec = MulticoreExecutive::reference(2, ProtocolKind::LeftRs);
            exec.inject(death(1, 777, false));
            exec.run(4000)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn five_core_reference_stays_schedulable_under_left_rs() {
        let mut exec = MulticoreExecutive::reference(5, ProtocolKind::LeftRs);
        let report = exec.run(4000);
        assert!(report.clean(), "{report:?}");
        // Retry bound on 5 cores is 4; the observed worst must respect
        // it. (Certification via the whole-set RTA is deliberately
        // pessimistic — it charges cross-core interference — so only the
        // 2-core reference is asserted to certify, above.)
        assert!(report.max_retries <= 4);
    }
}
