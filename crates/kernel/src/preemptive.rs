//! A machine-level fixed-priority **preemptive** executive.
//!
//! This executive models the paper's actual kernel architecture:
//! several tasks co-resident in **one** memory, each confined to its own
//! MMU window, sharing one CPU under fixed-priority preemptive dispatch
//! (§2.8). A release of a higher-priority task suspends the running one by
//! saving its full CPU context into its task control block and restoring
//! it cycle-exactly later — the same context machinery TEM's recovery
//! relies on (§2.5).
//!
//! The executive also demonstrates the MMU's fault-confinement promise
//! (§2.4): a task whose pointers run wild can only trap, never write into
//! a neighbour's window.
//!
//! Time is measured in CPU cycles. Tasks follow the paper's task model:
//! read inputs at the start, write outputs at the end of each job, so a
//! preempted job's ports can be safely re-latched on resume.

use std::collections::BTreeMap;
use std::fmt;

use nlft_machine::asm::assemble_at;
use nlft_machine::cpu::CpuContext;
use nlft_machine::edm::Edm;
use nlft_machine::fault::TransientFault;
use nlft_machine::machine::{Machine, RunExit, NUM_PORTS};
use nlft_machine::mmu::{MemoryMap, Perms, Region};

use crate::contract::{ContractOutcomes, DegradationAction, MkContract, TaskContract};
use crate::task::{Priority, TaskId};
use crate::tem::{JobOutcome, Step, TemJob, STATE_BYTES};

/// Size of one task window (code 1 KiB + data 1 KiB + stack 2 KiB).
pub(crate) const WINDOW_BYTES: u32 = 0x1000;
const CODE_BYTES: u32 = 0x400;
/// The data window: the state TEM snapshots and compares.
const DATA_BYTES: u32 = STATE_BYTES;

/// Static description of a resident task.
#[derive(Debug, Clone)]
pub struct ResidentTask {
    /// Identifier.
    pub id: TaskId,
    /// Name for reports.
    pub name: String,
    /// Release period in CPU cycles.
    pub period_cycles: u64,
    /// Relative deadline in cycles (≤ period).
    pub deadline_cycles: u64,
    /// Execution-time-monitor budget per job, in cycles.
    pub budget_cycles: u64,
    /// Fixed priority (lower value = higher priority).
    pub priority: Priority,
    /// Input port values latched for every job.
    pub inputs: Vec<(usize, u32)>,
    /// Output port read at job completion.
    pub output_port: usize,
    /// Run under TEM (§2.5): every job executes two copies with an
    /// exact comparison of output, data-window words and path signature;
    /// on any detection a replacement/third copy runs (all copies preemptible)
    /// and a 2-of-3 vote decides; out of copies/budget → omission, the
    /// task stays alive for its next period.
    pub critical: bool,
}

/// Error from building the executive.
#[derive(Debug, Clone, PartialEq)]
pub enum BuildError {
    /// The assembly failed.
    Assembly(nlft_machine::asm::AsmError),
    /// The program does not fit its code window.
    ProgramTooLarge {
        /// Task name.
        name: String,
        /// Image size in bytes.
        bytes: u32,
    },
    /// More tasks than windows fit in memory.
    OutOfWindows,
    /// Invalid timing parameters.
    BadTiming(&'static str),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Assembly(e) => write!(f, "assembly failed: {e}"),
            BuildError::ProgramTooLarge { name, bytes } => {
                write!(f, "task `{name}` needs {bytes} bytes of code window")
            }
            BuildError::OutOfWindows => write!(f, "no free task window left"),
            BuildError::BadTiming(m) => write!(f, "bad timing: {m}"),
        }
    }
}

impl std::error::Error for BuildError {}

impl From<nlft_machine::asm::AsmError> for BuildError {
    fn from(e: nlft_machine::asm::AsmError) -> Self {
        BuildError::Assembly(e)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobState {
    Idle,
    /// Released, never dispatched yet.
    Ready {
        released_at: u64,
    },
    /// Preempted mid-execution.
    Suspended {
        released_at: u64,
        consumed: u64,
    },
}

/// Maximum executions per TEM job (two scheduled + up to two recoveries).
const MAX_COPIES: u32 = 4;

#[derive(Debug)]
struct Tcb {
    task: ResidentTask,
    entry: u32,
    stack_top: u32,
    map: MemoryMap,
    context: Option<CpuContext>,
    state: JobState,
    next_release: u64,
    shutdown: bool,
    /// The TEM job of a critical task, reused from job to job.
    tem: Option<Box<TemJob>>,
}

/// Per-task statistics from a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResidentStats {
    /// Jobs completed.
    pub completed: u64,
    /// Worst observed response time in cycles.
    pub max_response_cycles: u64,
    /// Deadline misses.
    pub deadline_misses: u64,
    /// Budget-overrun aborts.
    pub overruns: u64,
    /// Exception aborts (non-critical: task shut down; critical: copy
    /// replaced, an ECC trap while reading its state window included).
    pub exceptions: u64,
    /// TEM copies that halted with a result (critical tasks only). A
    /// copy killed by the execution-time monitor is counted in
    /// `overruns` instead, and one that raised an exception, or was
    /// trapped by ECC reading its state window, in `exceptions`.
    pub copies: u64,
    /// Jobs delivered after masking an error (critical tasks only).
    pub masked: u64,
    /// Jobs that ended in an omission (critical tasks only).
    pub omissions: u64,
    /// Releases substituted by the safe job variant while the task's
    /// weakly-hard contract was violated.
    pub safe_substituted: u64,
    /// Last output value delivered.
    pub last_output: Option<u32>,
}

/// Result of a preemptive run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PreemptiveReport {
    /// Per-task statistics.
    pub tasks: BTreeMap<TaskId, ResidentStats>,
    /// Context switches performed.
    pub context_switches: u64,
    /// Preemptions (a running job displaced by a higher-priority release).
    pub preemptions: u64,
    /// Total cycles simulated.
    pub cycles: u64,
    /// Weakly-hard contract telemetry per registered task.
    pub contracts: BTreeMap<TaskId, ContractOutcomes>,
    /// `(task, cycle)` of each fresh contract violation under
    /// [`DegradationAction::Escalate`], ready to feed the node's
    /// escalation ladder.
    pub contract_escalations: Vec<(TaskId, u64)>,
}

impl PreemptiveReport {
    /// `true` when no deadline was missed anywhere.
    #[cfg(test)]
    pub(crate) fn no_misses(&self) -> bool {
        self.tasks.values().all(|t| t.deadline_misses == 0)
    }
}

/// The preemptive executive: one machine, many confined tasks.
#[derive(Debug)]
pub struct PreemptiveExecutive {
    machine: Machine,
    tcbs: Vec<Tcb>,
    injection: Option<(u64, TaskId, TransientFault)>,
    contracts: BTreeMap<TaskId, TaskContract>,
}

impl PreemptiveExecutive {
    /// Creates an executive with `windows` task windows of 4 KiB each.
    pub fn new(windows: u32) -> Self {
        PreemptiveExecutive {
            machine: Machine::new(windows * WINDOW_BYTES, MemoryMap::new()),
            tcbs: Vec::new(),
            injection: None,
            contracts: BTreeMap::new(),
        }
    }

    /// Registers a weakly-hard (m,k) contract for an already-added task.
    /// Every job conclusion — delivery, omission, overrun or exception —
    /// feeds the contract's window; while it is violated the executive
    /// applies `action`.
    ///
    /// # Panics
    ///
    /// Panics when no task with `id` has been added.
    pub fn register_contract(
        &mut self,
        id: TaskId,
        contract: MkContract,
        action: DegradationAction,
    ) {
        assert!(
            self.tcbs.iter().any(|t| t.task.id == id),
            "contract registered for unknown task"
        );
        self.contracts
            .insert(id, TaskContract::new(contract, action));
    }

    /// Plants one transient fault, applied the first time `task` is on the
    /// CPU at or after global cycle `at_cycle`.
    pub fn inject(&mut self, at_cycle: u64, task: TaskId, fault: TransientFault) {
        self.injection = Some((at_cycle, task, fault));
    }

    /// Loads a task's assembly into the next free window.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] for assembly failures, oversized programs,
    /// exhausted windows or inconsistent timing.
    pub fn add_task(&mut self, task: ResidentTask, source: &str) -> Result<(), BuildError> {
        if task.period_cycles == 0 || task.budget_cycles == 0 {
            return Err(BuildError::BadTiming("period and budget must be positive"));
        }
        if task.deadline_cycles == 0 || task.deadline_cycles > task.period_cycles {
            return Err(BuildError::BadTiming("deadline must be in (0, period]"));
        }
        let index = self.tcbs.len() as u32;
        let base = index * WINDOW_BYTES;
        if base + WINDOW_BYTES > self.machine.mem.size_bytes() {
            return Err(BuildError::OutOfWindows);
        }
        let image = assemble_at(source, base)?;
        if image.size_bytes() > CODE_BYTES {
            return Err(BuildError::ProgramTooLarge {
                name: task.name.clone(),
                bytes: image.size_bytes(),
            });
        }
        self.machine
            .load_program(base, &image.words)
            .expect("window is mapped");
        let map = MemoryMap::from_regions(vec![
            Region::new(base, CODE_BYTES, Perms::RX),
            Region::new(base + CODE_BYTES, DATA_BYTES, Perms::RW),
            Region::new(
                base + CODE_BYTES + DATA_BYTES,
                WINDOW_BYTES - CODE_BYTES - DATA_BYTES,
                Perms::RW,
            ),
        ]);
        self.tcbs.push(Tcb {
            stack_top: base + WINDOW_BYTES,
            entry: base,
            map,
            context: None,
            state: JobState::Idle,
            next_release: 0,
            shutdown: false,
            // Two results compared, three voted over (§2.5).
            tem: task
                .critical
                .then(|| Box::new(TemJob::new(base + CODE_BYTES, 2, 3))),
            task,
        });
        Ok(())
    }

    /// Raw access to the shared machine (oracle inspection).
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Runs the executive for `horizon` CPU cycles.
    ///
    /// # Panics
    ///
    /// Panics if no tasks were added.
    pub fn run(&mut self, horizon: u64) -> PreemptiveReport {
        assert!(!self.tcbs.is_empty(), "no resident tasks");
        let mut report = PreemptiveReport::default();
        for t in &self.tcbs {
            report.tasks.insert(t.task.id, ResidentStats::default());
        }
        let mut now: u64 = 0;
        let mut running: Option<usize> = None; // index into tcbs

        while now < horizon {
            // 1. Process releases due now.
            for t in self.tcbs.iter_mut() {
                if !t.shutdown && t.next_release <= now {
                    if t.state == JobState::Idle {
                        // A degraded SkipToSafe task substitutes the
                        // release with its safe variant: the last good
                        // output stands, the job never occupies the CPU,
                        // and the guaranteed hit heals the window.
                        if let Some(c) = self.contracts.get_mut(&t.task.id) {
                            if c.wants_safe_substitute() {
                                c.record_safe_substitute();
                                let stats = report.tasks.get_mut(&t.task.id).expect("known task");
                                stats.completed += 1;
                                stats.safe_substituted += 1;
                                t.next_release += t.task.period_cycles;
                                continue;
                            }
                        }
                        t.state = JobState::Ready {
                            released_at: t.next_release,
                        };
                        if let Some(job) = &mut t.tem {
                            job.begin(&self.machine.mem);
                        }
                    }
                    // (A still-active job at its next release is already
                    // counted late via its deadline; skip re-release.)
                    t.next_release += t.task.period_cycles;
                }
            }

            // 2. Pick the highest-priority active job.
            let next = self
                .tcbs
                .iter()
                .enumerate()
                .filter(|(_, t)| !t.shutdown && t.state != JobState::Idle)
                .min_by_key(|(_, t)| (t.task.priority, t.task.id));
            let Some((idx, _)) = next else {
                // Idle until the next release or the horizon.
                let next_release = self
                    .tcbs
                    .iter()
                    .filter(|t| !t.shutdown)
                    .map(|t| t.next_release)
                    .min()
                    .unwrap_or(horizon);
                now = next_release.max(now + 1).min(horizon);
                continue;
            };

            // 3. Context switch if needed.
            if running != Some(idx) {
                report.context_switches += 1;
                if let Some(old) = running {
                    // The displaced job was still mid-execution: preemption.
                    if matches!(self.tcbs[old].state, JobState::Suspended { .. }) {
                        report.preemptions += 1;
                    }
                }
                self.dispatch(idx);
                running = Some(idx);
            }

            // 4. Run until the next interesting instant: closest release,
            //    the job's remaining budget, or the horizon.
            let (released_at, consumed) = match self.tcbs[idx].state {
                JobState::Ready { released_at } => (released_at, 0),
                JobState::Suspended {
                    released_at,
                    consumed,
                } => (released_at, consumed),
                JobState::Idle => unreachable!("idle job dispatched"),
            };
            let next_release = self
                .tcbs
                .iter()
                .filter(|t| !t.shutdown)
                .map(|t| t.next_release)
                .min()
                .unwrap_or(horizon);
            let budget_left = self.tcbs[idx].task.budget_cycles.saturating_sub(consumed);
            let mut quantum = budget_left
                .min(next_release.saturating_sub(now))
                .min(horizon - now)
                .max(1);

            if let Some((at, victim, fault)) = self.injection {
                if victim == self.tcbs[idx].task.id {
                    if now >= at {
                        // Cycle-precise injection while the victim runs.
                        fault.apply(&mut self.machine);
                        self.injection = None;
                    } else {
                        // Stop the quantum at the injection instant.
                        quantum = quantum.min((at - now).max(1));
                    }
                }
            }

            let out = self.machine.run(quantum);
            now += out.cycles_used;
            let consumed = consumed + out.cycles_used;

            match out.exit {
                RunExit::Halted if self.tcbs[idx].task.critical => {
                    // One TEM copy finished: record its result, compared
                    // on the task's own output port only, since other
                    // residents write the shared ports. An ECC trap in its
                    // state window makes it a detected copy instead.
                    let t = &mut self.tcbs[idx];
                    let job = t.tem.as_mut().expect("critical job has TEM state");
                    let mut outputs = [None; NUM_PORTS];
                    outputs[t.task.output_port] = self.machine.output(t.task.output_port);
                    let path_sig = self.machine.cpu.path_sig;
                    let trapped = job.record(&mut self.machine.mem, outputs, path_sig);
                    let stats = report.tasks.get_mut(&t.task.id).expect("known task");
                    match trapped {
                        None => stats.copies += 1,
                        Some(_) => stats.exceptions += 1,
                    }
                    self.conclude_copy(idx, now, released_at, &mut report);
                    running = None;
                }
                RunExit::Halted => {
                    // Non-critical job complete: deliver output, retire.
                    let t = &mut self.tcbs[idx];
                    let id = t.task.id;
                    let stats = report.tasks.get_mut(&id).expect("known task");
                    stats.completed += 1;
                    stats.last_output = self.machine.output(t.task.output_port);
                    let response = now - released_at;
                    stats.max_response_cycles = stats.max_response_cycles.max(response);
                    let miss = response > t.task.deadline_cycles;
                    if miss {
                        stats.deadline_misses += 1;
                    }
                    t.state = JobState::Idle;
                    t.context = None;
                    running = None;
                    self.observe_contract(id, miss, now, &mut report);
                }
                RunExit::BudgetExhausted => {
                    if consumed >= self.tcbs[idx].task.budget_cycles {
                        // Execution-time monitor trip.
                        if let Some(job) = &mut self.tcbs[idx].tem {
                            job.detect(Edm::ExecutionTimeMonitor);
                            let id = self.tcbs[idx].task.id;
                            report.tasks.get_mut(&id).expect("known task").overruns += 1;
                            self.conclude_copy(idx, now, released_at, &mut report);
                            running = None;
                        } else {
                            let t = &mut self.tcbs[idx];
                            let id = t.task.id;
                            let stats = report.tasks.get_mut(&id).expect("known task");
                            stats.overruns += 1;
                            stats.deadline_misses += 1;
                            t.state = JobState::Idle;
                            t.context = None;
                            running = None;
                            self.observe_contract(id, true, now, &mut report);
                        }
                    } else {
                        // Quantum expired (a release is due): suspend.
                        let t = &mut self.tcbs[idx];
                        t.context = Some(self.machine.cpu.capture());
                        t.state = JobState::Suspended {
                            released_at,
                            consumed,
                        };
                        // `running` stays: if the released job has lower
                        // priority, step 2 re-picks this one without a
                        // context switch.
                    }
                }
                RunExit::Exception(e) => {
                    if let Some(job) = &mut self.tcbs[idx].tem {
                        // Scenario iii/iv of Fig. 3: terminate the copy,
                        // restore a clean context, run a replacement.
                        job.detect(Edm::from_exception(&e));
                        let id = self.tcbs[idx].task.id;
                        report.tasks.get_mut(&id).expect("known task").exceptions += 1;
                        self.conclude_copy(idx, now, released_at, &mut report);
                        running = None;
                    } else {
                        // Fault confinement: only this task is affected; it
                        // is shut down like a non-critical task (§2.2).
                        let t = &mut self.tcbs[idx];
                        let id = t.task.id;
                        let stats = report.tasks.get_mut(&id).expect("known task");
                        stats.exceptions += 1;
                        t.state = JobState::Idle;
                        t.context = None;
                        t.shutdown = true;
                        running = None;
                        self.observe_contract(id, true, now, &mut report);
                    }
                }
            }
        }
        report.cycles = now;
        for (id, c) in &self.contracts {
            report.contracts.insert(*id, c.outcomes().clone());
        }
        report
    }

    /// TEM copy cap for task `idx` under its contract's current
    /// degradation state ([`MAX_COPIES`] when unconstrained).
    fn copy_cap(&self, idx: usize) -> u32 {
        self.contracts
            .get(&self.tcbs[idx].task.id)
            .and_then(|c| c.copy_cap())
            .unwrap_or(MAX_COPIES)
    }

    /// Feeds one concluded job into the task's contract window, logging
    /// fresh violations under the Escalate action.
    fn observe_contract(
        &mut self,
        id: TaskId,
        miss: bool,
        now: u64,
        report: &mut PreemptiveReport,
    ) {
        if let Some(c) = self.contracts.get_mut(&id) {
            let newly_violated = c.record(miss);
            if newly_violated && c.action() == DegradationAction::Escalate {
                report.contract_escalations.push((id, now));
            }
        }
    }

    /// Installs task `idx` on the CPU: MMU map, ports, and either a fresh
    /// entry context or the saved one.
    fn dispatch(&mut self, idx: usize) {
        let t = &mut self.tcbs[idx];
        self.machine.set_memory_map(t.map.clone());
        for &(port, value) in &t.task.inputs {
            self.machine.set_input(port, value);
        }
        self.machine.clear_halt();
        match (&t.state, &t.context) {
            (JobState::Suspended { .. }, Some(ctx)) => {
                self.machine.cpu.restore(ctx);
            }
            _ => {
                // Fresh copy: reset architectural state to the task's entry.
                let cycles = self.machine.cpu.cycles;
                self.machine.cpu = nlft_machine::cpu::CpuState::new(t.entry, t.stack_top);
                self.machine.cpu.cycles = cycles;
                self.machine.clear_outputs();
                if let Some(job) = &mut t.tem {
                    job.start_copy(&mut self.machine.mem);
                }
            }
        }
    }

    /// Decides a critical job's next step after a copy ended (completed or
    /// detected): queue another copy, deliver, or omit.
    fn conclude_copy(
        &mut self,
        idx: usize,
        now: u64,
        released_at: u64,
        report: &mut PreemptiveReport,
    ) {
        let cap = self.copy_cap(idx);
        let t = &mut self.tcbs[idx];
        let job = t.tem.as_mut().expect("critical job has TEM state");
        let room = job.copies() < cap;
        let stats = report.tasks.get_mut(&t.task.id).expect("known task");
        let miss = match job.decide(&mut self.machine.mem, room) {
            Step::RunCopy => {
                // Queue the next copy: the job stays Ready, and its fresh
                // dispatch restores the state window.
                t.state = JobState::Ready { released_at };
                t.context = None;
                return;
            }
            Step::Done {
                outcome,
                outputs: Some(outputs),
            } => {
                stats.completed += 1;
                if matches!(outcome, JobOutcome::DeliveredMasked { .. }) {
                    stats.masked += 1;
                }
                stats.last_output = outputs[t.task.output_port];
                let response = now - released_at;
                stats.max_response_cycles = stats.max_response_cycles.max(response);
                let miss = response > t.task.deadline_cycles;
                if miss {
                    stats.deadline_misses += 1;
                }
                miss
            }
            Step::Done { outputs: None, .. } => {
                // The state window is rolled back and nothing is
                // delivered; the task stays alive for its next period.
                stats.omissions += 1;
                stats.deadline_misses += 1;
                true
            }
        };
        t.state = JobState::Idle;
        t.context = None;
        let id = t.task.id;
        self.observe_contract(id, miss, now, report);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counting_task_src(step: u32, iters: u32) -> String {
        // Busy loop of `iters` iterations, then outputs step*iters.
        format!(
            "    ldi r0, 0
                 ldi r1, {iters}
                 ldi r2, 1
                 ldi r3, {step}
             loop:
                 add r0, r0, r3
                 sub r1, r1, r2
                 jnz loop
                 out r0, port{port}
                 halt",
            iters = iters,
            step = step,
            port = 0
        )
    }

    fn resident(id: u32, prio: u32, period: u64, budget: u64) -> ResidentTask {
        ResidentTask {
            id: TaskId(id),
            name: format!("t{id}"),
            period_cycles: period,
            deadline_cycles: period,
            budget_cycles: budget,
            priority: Priority(prio),
            inputs: vec![],
            output_port: 0,
            critical: false,
        }
    }

    fn critical(id: u32, prio: u32, period: u64, budget: u64) -> ResidentTask {
        ResidentTask {
            critical: true,
            ..resident(id, prio, period, budget)
        }
    }

    #[test]
    fn two_tasks_share_the_cpu() {
        let mut exec = PreemptiveExecutive::new(2);
        exec.add_task(resident(1, 0, 500, 200), &counting_task_src(2, 20))
            .unwrap();
        exec.add_task(resident(2, 1, 1_000, 600), &counting_task_src(3, 100))
            .unwrap();
        let report = exec.run(10_000);
        assert!(report.tasks[&TaskId(1)].completed >= 19);
        assert!(report.tasks[&TaskId(2)].completed >= 9);
        assert_eq!(report.tasks[&TaskId(1)].last_output, Some(40));
        assert_eq!(report.tasks[&TaskId(2)].last_output, Some(300));
        assert!(report.no_misses());
    }

    #[test]
    fn high_priority_release_preempts_low_priority_job() {
        let mut exec = PreemptiveExecutive::new(2);
        // Task 1: short, frequent, high priority.
        exec.add_task(resident(1, 0, 300, 120), &counting_task_src(1, 10))
            .unwrap();
        // Task 2: long job that cannot finish between task-1 releases.
        exec.add_task(resident(2, 1, 3_000, 2_000), &counting_task_src(1, 400))
            .unwrap();
        let report = exec.run(9_000);
        assert!(report.preemptions > 0, "the long job must get preempted");
        assert!(report.tasks[&TaskId(2)].completed >= 2);
        // Preemption must not corrupt the long task's result.
        assert_eq!(report.tasks[&TaskId(2)].last_output, Some(400));
        assert!(report.no_misses());
    }

    #[test]
    fn preempted_context_resumes_exactly() {
        // The resumed job's output equals the uninterrupted golden value —
        // context save/restore is cycle-exact and register-exact.
        let mut solo = PreemptiveExecutive::new(1);
        solo.add_task(resident(2, 0, 10_000, 9_000), &counting_task_src(7, 333))
            .unwrap();
        let golden = solo.run(10_000).tasks[&TaskId(2)].last_output;

        let mut exec = PreemptiveExecutive::new(2);
        exec.add_task(resident(1, 0, 200, 80), &counting_task_src(1, 5))
            .unwrap();
        exec.add_task(resident(2, 1, 10_000, 9_000), &counting_task_src(7, 333))
            .unwrap();
        let report = exec.run(10_000);
        assert!(report.preemptions > 0);
        assert_eq!(report.tasks[&TaskId(2)].last_output, golden);
    }

    #[test]
    fn budget_overrun_aborts_only_the_offender() {
        let mut exec = PreemptiveExecutive::new(2);
        // Budget far below the job's real demand → every job overruns.
        exec.add_task(resident(1, 1, 2_000, 50), &counting_task_src(1, 200))
            .unwrap();
        exec.add_task(resident(2, 0, 500, 200), &counting_task_src(2, 20))
            .unwrap();
        let report = exec.run(8_000);
        assert!(report.tasks[&TaskId(1)].overruns > 0);
        assert_eq!(report.tasks[&TaskId(1)].completed, 0);
        assert!(
            report.tasks[&TaskId(2)].completed >= 14,
            "victim unaffected"
        );
        assert_eq!(report.tasks[&TaskId(2)].deadline_misses, 0);
    }

    #[test]
    fn mmu_confines_wild_task_to_its_window() {
        let mut exec = PreemptiveExecutive::new(2);
        // Task 1 (window 0) writes a sentinel into its data area each job.
        exec.add_task(
            resident(1, 0, 1_000, 400),
            "    ldi r1, 0x400
                 ldi r0, 77
                 st  r0, [r1+0]
                 out r0, port0
                 halt",
        )
        .unwrap();
        // Task 2 (window 1) tries to smash window 0's data (absolute 0x400).
        exec.add_task(
            resident(2, 1, 1_000, 400),
            "    ldi r1, 0x400      ; foreign window!
                 ldi r0, 666
                 st  r0, [r1+0]
                 halt",
        )
        .unwrap();
        let report = exec.run(5_000);
        // The attacker trapped and was shut down…
        assert_eq!(report.tasks[&TaskId(2)].exceptions, 1);
        assert_eq!(report.tasks[&TaskId(2)].completed, 0);
        // …while the victim kept running and its data is intact.
        assert!(report.tasks[&TaskId(1)].completed >= 4);
        assert_eq!(exec.machine().mem.peek(0x400).unwrap(), 77);
    }

    #[test]
    fn critical_task_runs_two_copies_per_clean_job() {
        let mut exec = PreemptiveExecutive::new(1);
        exec.add_task(critical(1, 0, 1_000, 400), &counting_task_src(2, 20))
            .unwrap();
        let report = exec.run(10_000);
        let s = &report.tasks[&TaskId(1)];
        assert!(s.completed >= 9);
        assert_eq!(s.copies, s.completed * 2, "no third copies when clean");
        assert_eq!(s.masked, 0);
        assert_eq!(s.omissions, 0);
        assert_eq!(s.last_output, Some(40));
        assert!(report.no_misses());
    }

    #[test]
    fn critical_task_masks_hardware_detected_fault() {
        let mut exec = PreemptiveExecutive::new(1);
        exec.add_task(critical(1, 0, 2_000, 800), &counting_task_src(2, 20))
            .unwrap();
        // PC flip mid-copy → fetch outside the window → MMU/bus trap.
        exec.inject(
            30,
            TaskId(1),
            TransientFault {
                target: nlft_machine::fault::FaultTarget::Pc,
                mask: 1 << 20,
            },
        );
        let report = exec.run(8_000);
        let s = &report.tasks[&TaskId(1)];
        assert_eq!(s.exceptions, 1, "the EDM fired once");
        assert_eq!(s.masked, 1, "the faulted job was masked");
        assert!(s.completed >= 3);
        assert_eq!(s.last_output, Some(40), "delivered values stay golden");
        assert_eq!(s.omissions, 0);
    }

    #[test]
    fn silent_corruption_caught_by_comparison_and_voted_out() {
        let mut exec = PreemptiveExecutive::new(1);
        exec.add_task(critical(1, 0, 2_000, 800), &counting_task_src(2, 20))
            .unwrap();
        // Accumulator flip mid-copy: no EDM fires; only the comparison can
        // see it, and the 2-of-3 vote recovers the golden result.
        exec.inject(
            30,
            TaskId(1),
            TransientFault {
                target: nlft_machine::fault::FaultTarget::Register(nlft_machine::isa::Reg::R0),
                mask: 1 << 4,
            },
        );
        let report = exec.run(8_000);
        let s = &report.tasks[&TaskId(1)];
        assert_eq!(s.masked, 1, "comparison + vote masked the corruption");
        assert_eq!(s.last_output, Some(40));
        // The faulted job used three copies.
        assert!(s.copies > s.completed * 2);
    }

    /// The last word of window 0's state window.
    const LAST_STATE_WORD: u32 = CODE_BYTES + DATA_BYTES - 4;

    fn flip_last_state_word(mask: u32) -> TransientFault {
        TransientFault {
            target: nlft_machine::fault::FaultTarget::MemoryWord(LAST_STATE_WORD),
            mask,
        }
    }

    #[test]
    fn double_flip_in_state_window_is_detected_by_ecc() {
        // The task never touches the flipped word, so only the state read
        // after its copy halts can see it: ECC traps there, and the copy
        // is replaced like any other detected copy.
        let mut exec = PreemptiveExecutive::new(1);
        exec.add_task(critical(1, 0, 2_000, 800), &counting_task_src(2, 20))
            .unwrap();
        exec.inject(30, TaskId(1), flip_last_state_word(0b11));
        let report = exec.run(8_000);
        let s = &report.tasks[&TaskId(1)];
        assert_eq!(exec.machine().mem.ecc_stats().detected_uncorrectable, 1);
        assert_eq!(s.exceptions, 1, "the trapped copy is a detected copy");
        assert_eq!(s.masked, 1);
        assert_eq!(s.omissions, 0);
        assert_eq!(s.copies, s.completed * 2, "two results per job");
        assert_eq!(s.last_output, Some(40));
    }

    #[test]
    fn flip_pending_in_state_window_at_job_start_is_restored_away() {
        // A neighbour is on the CPU when a flip lands in the critical
        // task's state window, before that task's first copy. The restore
        // before copy 0 rewrites the word, so no copy ever reads the flip.
        const STATE_COUNTER_SRC: &str = "
                ldi r1, 0x7FC
                ld  r0, [r1+0]
                addi r0, r0, 1
                st  r0, [r1+0]
                out r0, port0
                halt";
        let build = || {
            let mut exec = PreemptiveExecutive::new(2);
            exec.add_task(critical(1, 1, 2_000, 400), STATE_COUNTER_SRC)
                .unwrap();
            exec.add_task(resident(2, 0, 2_000, 200), &counting_task_src(2, 20))
                .unwrap();
            exec
        };
        let clean = build().run(8_000);
        assert_eq!(clean.tasks[&TaskId(1)].last_output, Some(4));
        let mut exec = build();
        exec.inject(0, TaskId(2), flip_last_state_word(0b11));
        let report = exec.run(8_000);
        assert_eq!(report, clean);
        assert_eq!(exec.machine().mem.faulty_words(), 0);
        assert_eq!(
            exec.machine().mem.ecc_stats(),
            nlft_machine::mem::EccStats::default(),
            "no ECC event"
        );
    }

    #[test]
    fn critical_omission_on_persistent_overrun_keeps_task_alive() {
        let mut exec = PreemptiveExecutive::new(2);
        // Budget far below demand: every copy overruns → omissions.
        exec.add_task(critical(1, 1, 3_000, 30), &counting_task_src(1, 100))
            .unwrap();
        exec.add_task(resident(2, 0, 500, 200), &counting_task_src(2, 20))
            .unwrap();
        let report = exec.run(9_000);
        let s1 = &report.tasks[&TaskId(1)];
        assert_eq!(s1.completed, 0);
        assert!(
            s1.omissions >= 2,
            "one omission per period, task stays alive"
        );
        assert!(s1.overruns >= s1.omissions, "overruns drove the omissions");
        // The neighbour is untouched.
        assert!(report.tasks[&TaskId(2)].completed >= 14);
        assert_eq!(report.tasks[&TaskId(2)].deadline_misses, 0);
    }

    #[test]
    fn tem_copies_are_preemptible_and_still_correct() {
        let mut exec = PreemptiveExecutive::new(2);
        // High-rate monitor preempts the critical task's copies.
        exec.add_task(resident(1, 0, 300, 120), &counting_task_src(1, 10))
            .unwrap();
        exec.add_task(critical(2, 1, 6_000, 2_500), &counting_task_src(7, 333))
            .unwrap();
        let report = exec.run(24_000);
        assert!(report.preemptions > 0, "copies must get preempted");
        let s = &report.tasks[&TaskId(2)];
        assert!(s.completed >= 3);
        assert_eq!(
            s.last_output,
            Some(2331),
            "7 × 333, copy-exact across preemption"
        );
        assert_eq!(s.masked, 0);
        assert!(report.no_misses());
    }

    #[test]
    fn build_errors_are_reported() {
        let mut exec = PreemptiveExecutive::new(1);
        assert!(matches!(
            exec.add_task(resident(1, 0, 0, 10), "halt"),
            Err(BuildError::BadTiming(_))
        ));
        assert!(matches!(
            exec.add_task(resident(1, 0, 100, 10), "bogus"),
            Err(BuildError::Assembly(_))
        ));
        // Fill the single window, then overflow.
        exec.add_task(resident(1, 0, 100, 10), "halt").unwrap();
        assert!(matches!(
            exec.add_task(resident(2, 0, 100, 10), "halt"),
            Err(BuildError::OutOfWindows)
        ));
    }

    #[test]
    fn oversized_program_rejected() {
        let mut exec = PreemptiveExecutive::new(1);
        let big = "nop\n".repeat(300); // 1200 bytes > 1 KiB window
        assert!(matches!(
            exec.add_task(resident(1, 0, 100, 10), &big),
            Err(BuildError::ProgramTooLarge { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "no resident tasks")]
    fn empty_executive_rejected() {
        PreemptiveExecutive::new(1).run(100);
    }

    #[test]
    fn skip_to_safe_substitutes_while_degraded() {
        let mut exec = PreemptiveExecutive::new(1);
        // Budget far below demand: every executed job overruns (a miss).
        exec.add_task(resident(1, 0, 1_000, 30), &counting_task_src(1, 100))
            .unwrap();
        exec.register_contract(
            TaskId(1),
            MkContract::new(1, 4),
            DegradationAction::SkipToSafe,
        );
        let report = exec.run(12_000);
        let s = &report.tasks[&TaskId(1)];
        let c = &report.contracts[&TaskId(1)];
        assert!(c.violations >= 1, "two misses in 4 jobs violate (1,4)");
        assert!(
            s.safe_substituted >= 3,
            "degraded releases are substituted until the window heals"
        );
        assert_eq!(s.completed, s.safe_substituted, "real jobs always overrun");
        assert_eq!(c.jobs, s.safe_substituted + s.overruns);
        assert_eq!(c.min_margin, 0);
        // Substitution heals the window, so the task re-violates in cycles
        // rather than missing every period.
        assert!(s.overruns < c.jobs);
    }

    #[test]
    fn clamp_recovery_caps_tem_copies_while_degraded() {
        let mut unclamped = PreemptiveExecutive::new(1);
        unclamped
            .add_task(critical(1, 0, 3_000, 30), &counting_task_src(1, 100))
            .unwrap();
        let free = unclamped.run(30_000);

        let mut exec = PreemptiveExecutive::new(1);
        exec.add_task(critical(1, 0, 3_000, 30), &counting_task_src(1, 100))
            .unwrap();
        exec.register_contract(
            TaskId(1),
            MkContract::new(0, 4),
            DegradationAction::ClampRecovery,
        );
        let report = exec.run(30_000);
        let s = &report.tasks[&TaskId(1)];
        let c = &report.contracts[&TaskId(1)];
        assert!(c.violations >= 1, "the first omission violates (0,4)");
        assert_eq!(s.completed, 0);
        assert_eq!(s.omissions, free.tasks[&TaskId(1)].omissions);
        // Clamped jobs stop after the two scheduled copies instead of
        // burning MAX_COPIES on a hopeless recovery: every copy overruns,
        // so the overrun count measures copies attempted.
        assert!(
            s.overruns < free.tasks[&TaskId(1)].overruns,
            "clamp must save recovery copies: {} vs {}",
            s.overruns,
            free.tasks[&TaskId(1)].overruns
        );
        assert!(c.degraded_jobs >= 1);
    }

    #[test]
    fn escalate_reports_fresh_violations_only() {
        let mut exec = PreemptiveExecutive::new(1);
        exec.add_task(resident(1, 0, 1_000, 30), &counting_task_src(1, 100))
            .unwrap();
        exec.register_contract(
            TaskId(1),
            MkContract::new(0, 8),
            DegradationAction::Escalate,
        );
        let report = exec.run(10_000);
        // Every period overruns, but the window never recovers within 8
        // jobs, so only the first miss is a *fresh* violation.
        assert_eq!(report.contract_escalations.len(), 1);
        assert_eq!(report.contract_escalations[0].0, TaskId(1));
        assert!(report.tasks[&TaskId(1)].overruns >= 8);
        assert_eq!(report.contracts[&TaskId(1)].violations, 1);
        // Escalate never alters the schedule.
        assert_eq!(report.tasks[&TaskId(1)].safe_substituted, 0);
    }

    #[test]
    fn healthy_task_never_degrades() {
        let mut exec = PreemptiveExecutive::new(1);
        exec.add_task(resident(1, 0, 500, 200), &counting_task_src(2, 20))
            .unwrap();
        exec.register_contract(
            TaskId(1),
            MkContract::new(1, 8),
            DegradationAction::SkipToSafe,
        );
        let report = exec.run(10_000);
        let c = &report.contracts[&TaskId(1)];
        assert_eq!(c.violations, 0);
        assert_eq!(c.misses, 0);
        assert_eq!(c.min_margin, 2, "full margin retained throughout");
        assert_eq!(report.tasks[&TaskId(1)].safe_substituted, 0);
    }

    #[test]
    #[should_panic(expected = "unknown task")]
    fn contract_for_unknown_task_rejected() {
        let mut exec = PreemptiveExecutive::new(1);
        exec.register_contract(
            TaskId(9),
            MkContract::new(1, 4),
            DegradationAction::Escalate,
        );
    }
}
