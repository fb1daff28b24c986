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
//! The semantics stay 1 µs ticks; [`MulticoreExecutive::run`] skips the
//! quiet ticks between events in one step.
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
    /// boosts a job for as long as it is inside its section, and a job
    /// only as high as the ceiling does not preempt it — the in-section
    /// job wins the tie.
    fn effective_priority(&self, i: usize) -> (Priority, bool, TaskId) {
        let r = &self.residents[i];
        let base = r.priority;
        match (r.job.as_ref().map(|j| j.phase), r.section) {
            (Some(Phase::InSection), Some((res, _))) => (base.min(self.ceiling(res)), false, r.id),
            _ => (base, true, r.id),
        }
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
    ///
    /// Steps from event to event: after each tick that changes the
    /// schedule, the ticks up to the next event, which only count up the
    /// running jobs' progress, are burnt in one step. The report is the
    /// one a tick-by-tick run gives.
    pub fn run(&mut self, horizon: u64) -> MulticoreReport {
        let mut now = 0;
        while now < horizon {
            self.tick(now);
            let quiet = self.quiet_ticks(now).min(horizon - now - 1);
            self.burn(quiet);
            now += quiet + 1;
        }
        self.report(horizon)
    }

    /// The tick-by-tick run [`run`](Self::run) must reproduce.
    #[cfg(test)]
    fn run_ticks(&mut self, horizon: u64) -> MulticoreReport {
        for now in 0..horizon {
            self.tick(now);
        }
        self.report(horizon)
    }

    /// One tick: abort overdue jobs, release, strike deaths, then
    /// execute each core that is up.
    fn tick(&mut self, now: u64) {
        self.abort_overdue(now);
        self.release_jobs(now);
        self.strike_deaths(now);
        for core in 0..self.cores.len() {
            if !self.cores[core].down() {
                self.execute_core(core, now);
            }
        }
    }

    /// How many ticks after `now` change nothing but the `done` counters
    /// of the jobs the up cores run. The tick of the next release,
    /// deadline or death strike, and the tick that ends a job's phase,
    /// are left to [`tick`](Self::tick).
    fn quiet_ticks(&self, now: u64) -> u64 {
        let mut quiet = u64::MAX;
        for r in &self.residents {
            if self.cores[r.core].down() {
                continue;
            }
            quiet = quiet.min(r.next_release - now - 1);
            if let Some(job) = &r.job {
                quiet = quiet.min(job.deadline_at - now - 1);
            }
        }
        for &(death, fired) in &self.deaths {
            let core = death.core as usize;
            if fired || core >= self.cores.len() {
                continue;
            }
            if death.at_tick > now {
                quiet = quiet.min(death.at_tick - now - 1);
            } else if !death.in_section || self.runs_in_section(core) {
                return 0;
            }
        }
        for core in 0..self.cores.len() {
            if self.cores[core].down() {
                continue;
            }
            let Some(i) = self.chosen_job(core) else {
                continue;
            };
            let r = &self.residents[i];
            let job = r.job.as_ref().expect("chosen job is active");
            let left = match job.phase {
                Phase::Pre => r.pre - job.done,
                Phase::InSection => r.section.expect("in-section job has a section").1 - job.done,
                Phase::Post => r.post - job.done,
                Phase::Entering => {
                    let (res, _) = r.section.expect("entering job has a section");
                    // Spinning on a peer's lock changes nothing until
                    // the peer's own event.
                    if self.protocol.holder(res).is_some_and(|h| h != core) {
                        continue;
                    }
                    1
                }
            };
            quiet = quiet.min(left - 1);
        }
        quiet
    }

    /// Burns `k` quiet ticks: each up core's running job advances `k`
    /// ticks in its phase, and a spinning job stays where it is.
    fn burn(&mut self, k: u64) {
        if k == 0 {
            return;
        }
        for core in 0..self.cores.len() {
            if self.cores[core].down() {
                continue;
            }
            if let Some(i) = self.chosen_job(core) {
                let job = self.residents[i]
                    .job
                    .as_mut()
                    .expect("chosen job is active");
                if job.phase != Phase::Entering {
                    job.done += k;
                }
            }
        }
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
            // A down core never releases what it holds, so a job that
            // spun on a dead holder is still spinning on it.
            let dead_holder = job.phase == Phase::Entering
                && r.section
                    .and_then(|(res, _)| self.protocol.holder(res))
                    .is_some_and(|holder| self.cores[holder].down());
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
            if !death.in_section || self.runs_in_section(core) {
                self.deaths[d].1 = true;
                self.fire_death(death, now);
            }
        }
    }

    /// Whether `core` would execute inside a critical section this tick.
    fn runs_in_section(&self, core: usize) -> bool {
        self.chosen_job(core)
            .and_then(|i| self.residents[i].job.as_ref())
            .is_some_and(|j| j.phase == Phase::InSection)
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
                    // The tick is burnt spinning on the lock.
                    SectionEntry::Blocked { .. } => {}
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
    fn a_sharer_as_high_as_the_ceiling_waits_for_the_section() {
        // One core, both tasks on R: the ceiling is t1's own priority.
        // t2 holds R over 30..70 µs; t1's release at 50 µs must wait for
        // the section to end, not preempt it and take the held lock
        // again.
        let set: TaskSet = [periodic(1, 0, 50, 20), periodic(2, 1, 200, 60)]
            .into_iter()
            .collect();
        let mut map = ResourceMap::new();
        map.declare(TaskId(1), ResourceId(1), us(10));
        map.declare(TaskId(2), ResourceId(1), us(40));
        let mut exec = MulticoreExecutive::new(1, &set, &map, ProtocolKind::LockBased);
        let report = exec.run(200);
        assert!(report.clean(), "{report:?}");
        // t2's section ends at 70 µs; t1 runs 70..90 and t2 finishes its
        // post segment over 90..100.
        assert_eq!(report.per_task[0].worst_response, Some(us(40)));
        assert_eq!(report.per_task[1].worst_response, Some(us(100)));
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

    /// `nlft_core`'s campaign horizon limit: the longest run a trial asks
    /// for.
    const MAX_HORIZON: u64 = 1_000_000;

    /// A random node: its task set, resources, placement, supervision,
    /// deaths and horizon.
    #[derive(Debug)]
    struct Node {
        cores: usize,
        protocol: ProtocolKind,
        set: TaskSet,
        map: ResourceMap,
        /// Tasks pinned off their round-robin core.
        placement: Vec<(TaskId, usize)>,
        supervised: Vec<(usize, EscalationPolicy)>,
        deaths: Vec<CoreDeathFault>,
        horizon: u64,
    }

    impl Node {
        fn draw(r: &mut nlft_testkit::rng::TkRng) -> Node {
            // The tick oracle costs horizon × cores × tasks: the few runs
            // at the top of the horizon range get a small node.
            let top = r.range(0, 48) == 0;
            let (cores, horizon) = if top {
                (r.usize_range(1, 4), MAX_HORIZON - r.range(0, 64))
            } else {
                // Log-uniform over [1, 2^14).
                let octave = r.range(0, 14);
                (r.usize_range(1, 17), r.range(1 << octave, 2 << octave))
            };
            let resources = r.range(0, 3) as u32;
            let mut map = ResourceMap::new();
            let mut placement = Vec::new();
            let mut set = TaskSet::new();
            for i in 0..r.range(1, if top { 5 } else { 13 }) as u32 {
                let id = TaskId(i);
                let period = r.range(2, 400);
                let deadline = r.range(1, period + 1);
                let wcet = r.range(1, deadline + 1);
                if resources > 0 && r.range(0, 3) > 0 {
                    let res = ResourceId(r.range(0, u64::from(resources)) as u32);
                    map.declare(id, res, us(r.range(1, wcet + 1)));
                }
                if r.bool() {
                    placement.push((id, r.usize_range(0, cores)));
                }
                let task = TaskSpecBuilder::new(id, format!("t{i}"))
                    .period(us(period))
                    .deadline(us(deadline))
                    .wcet(us(wcet))
                    // Shared priorities: ties with a section's ceiling.
                    .priority(Priority(i % 5))
                    .criticality(Criticality::Critical)
                    .build()
                    .unwrap();
                set.add(task).unwrap();
            }
            let mut supervised = Vec::new();
            for core in 0..cores {
                if r.range(0, 3) == 0 {
                    let policy = EscalationPolicy {
                        suspect_after: r.range(1, 4) as u32,
                        silence_after: r.range(1, 6) as u32,
                        ..EscalationPolicy::default()
                    };
                    supervised.push((core, policy));
                }
            }
            let deaths = (0..r.range(0, 4))
                .map(|_| CoreDeathFault {
                    // One past the last core now and then: never fires.
                    core: r.range(0, cores as u64 + 1) as u32,
                    // Some armed past the horizon: never fire either.
                    at_tick: r.range(0, horizon + horizon / 8 + 2),
                    in_section: r.bool(),
                    escalated: r.bool(),
                })
                .collect();
            Node {
                cores,
                protocol: if r.bool() {
                    ProtocolKind::LockBased
                } else {
                    ProtocolKind::LeftRs
                },
                set,
                map,
                placement,
                supervised,
                deaths,
                horizon,
            }
        }

        fn build(&self) -> MulticoreExecutive {
            let mut exec = MulticoreExecutive::new(self.cores, &self.set, &self.map, self.protocol);
            for &(task, core) in &self.placement {
                exec.assign(task, core);
            }
            for &(core, policy) in &self.supervised {
                exec.supervise(core, policy);
            }
            for &d in &self.deaths {
                exec.inject(d);
            }
            exec
        }
    }

    #[test]
    fn event_stepped_run_equals_the_tick_loop() {
        nlft_testkit::prop::Suite::new(0x5EED_71C5)
            .cases(400)
            .check(
                "event_stepped_run_equals_the_tick_loop",
                Node::draw,
                |node| {
                    let ticked = node.build().run_ticks(node.horizon);
                    let stepped = node.build().run(node.horizon);
                    nlft_testkit::prop_assert_eq!(stepped, ticked);
                    Ok(())
                },
            );
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
