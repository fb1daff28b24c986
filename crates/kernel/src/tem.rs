//! Temporal error masking (TEM) — the paper's §2.5 and Figure 3.
//!
//! The kernel executes every critical task **twice** and compares the two
//! result vectors. Four scenarios follow:
//!
//! 1. *(i)* the results match → the result is delivered, no third copy runs;
//! 2. *(ii)* the comparison mismatches → a **third copy** runs and a 2-of-3
//!    majority vote decides; three distinct results mean an **omission**;
//! 3. *(iii)/(iv)* a hardware or kernel EDM fires during a copy → that copy
//!    is terminated, the CPU context is restored from the task control
//!    block, and a replacement copy starts immediately, reclaiming the
//!    terminated copy's unused time plus reserved slack;
//! 4. before every additional copy, the kernel checks the deadline; when no
//!    time remains, **no result is delivered** (omission failure) — the
//!    task's state is rolled back so a later activation starts clean.
//!
//! The result of a task is its output-port vector *plus* the words of its
//! state region *plus* its control-flow path signature, and two results
//! match only when all three are equal word for word — a computation
//! error that corrupts only state, or a control-flow error that bypasses
//! the output-producing code (§2.7), must not slip past the comparison,
//! and no hash collision can make two different results match.
//! State is committed only when two matching results exist (§2.5: "state
//! data are only updated when two matching results have been produced"):
//! a vote won by an agreeing pair that ran *before* the outvoted copy
//! writes the pair's state words back over the loser's.
//!
//! The state bookkeeping is bulk work on the memory: one slice copy
//! snapshots the region, one [`EccMemory::store_words`] restores it
//! before every copy, and a fault-free region is read back with one more
//! slice copy, straight into the result's slot on the stack. Only a
//! region holding an injected fault is read word by word through
//! [`EccMemory::load`], so ECC correction, detection and escape happen
//! exactly as if the kernel had loaded each word. The restore before
//! copy 0 is skipped when no word of the region holds an injected flip:
//! the region then already holds the snapshot, and the restore would
//! change nothing.
//!
//! The rule above is one state machine, `TemJob`, with two drivers:
//! [`TemExecutor`] runs a job's copies back to back, and
//! [`crate::preemptive::PreemptiveExecutive`] runs them one dispatch at a
//! time between preemptions.
//!
//! [`EccMemory::store_words`]: nlft_machine::mem::EccMemory::store_words
//! [`EccMemory::load`]: nlft_machine::mem::EccMemory::load

use std::fmt;

use nlft_machine::edm::Edm;
use nlft_machine::fault::{StuckAtFault, TransientFault};
use nlft_machine::machine::{Exception, Machine, RunExit, NUM_PORTS};
use nlft_machine::mem::{EccMemory, WORD_BYTES};
use nlft_machine::workloads::{Workload, DATA_BASE, STACK_TOP};

/// Size (bytes) of the task state region carried in every result.
pub(crate) const STATE_BYTES: u32 = 0x400;

/// [`STATE_BYTES`] in words.
const STATE_WORDS: usize = (STATE_BYTES / WORD_BYTES) as usize;

/// Results a 2-of-3 majority vote runs over.
const VOTED_RESULTS: usize = 3;

/// Configuration of the TEM executor for one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TemConfig {
    /// Execution-time-monitor budget for a single copy, in cycles.
    pub copy_budget: u64,
    /// Total cycle budget for the whole job (its deadline, as cycles).
    pub deadline_cycles: u64,
    /// Maximum number of *results* that may be voted on (the paper's 3).
    pub max_results: u32,
    /// Minimum number of results gathered before comparison/vote. The
    /// paper's TEM uses 2 (compare, escalate to 3 on mismatch); a node
    /// under *suspicion* by the diagnosis layer sets 3 so every job is
    /// triplicated and voted defensively ("TEM always triples").
    pub min_results: u32,
    /// Hard cap on executions including EDM-killed copies.
    pub max_executions: u32,
    /// Kernel overhead: result comparison.
    pub compare_cycles: u64,
    /// Kernel overhead: majority vote.
    pub vote_cycles: u64,
    /// Kernel overhead: restoring a clean context after an EDM detection.
    pub restore_cycles: u64,
}

impl TemConfig {
    /// A configuration sized for a workload with single-copy WCET
    /// `copy_budget`, reserving slack for one full recovery execution.
    pub fn with_budget(copy_budget: u64) -> Self {
        TemConfig {
            copy_budget,
            // Two scheduled copies + one recovery copy + kernel overheads.
            deadline_cycles: copy_budget * 3 + 200,
            max_results: 3,
            min_results: 2,
            max_executions: 4,
            compare_cycles: 20,
            vote_cycles: 40,
            restore_cycles: 15,
        }
    }
}

/// How one execution (copy) of the task ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CopyResult {
    /// Copy ran to completion and produced a result (outputs, state words
    /// and path signature).
    Completed,
    /// An EDM terminated the copy.
    Detected(Edm),
}

/// Trace entry for one executed copy — the raw material of Figure 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CopyTrace {
    /// 0-based execution index.
    pub index: u32,
    /// How the copy ended.
    pub result: CopyResult,
    /// Cycles the copy consumed.
    pub cycles: u64,
}

/// Final outcome of one TEM-protected job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobOutcome {
    /// Both scheduled copies matched (scenario i).
    DeliveredClean,
    /// An error was detected and masked; result still delivered
    /// (scenarios ii–iv).
    DeliveredMasked {
        /// The mechanism that *first* detected the error.
        detected_by: Edm,
    },
    /// No result delivered: error detected but not recoverable in time, or
    /// the vote found three distinct results.
    Omission {
        /// The mechanism that detected the (last) error.
        detected_by: Edm,
    },
}

impl JobOutcome {
    /// `true` when a result was delivered.
    pub fn delivered(self) -> bool {
        !matches!(self, JobOutcome::Omission { .. })
    }
}

impl fmt::Display for JobOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobOutcome::DeliveredClean => write!(f, "delivered (clean)"),
            JobOutcome::DeliveredMasked { detected_by } => {
                write!(f, "delivered (masked; detected by {detected_by})")
            }
            JobOutcome::Omission { detected_by } => {
                write!(f, "omission (detected by {detected_by})")
            }
        }
    }
}

/// Full report of a TEM job execution.
#[derive(Debug, Clone, PartialEq)]
pub struct JobReport {
    /// The job outcome.
    pub outcome: JobOutcome,
    /// Per-copy execution trace.
    pub copies: Vec<CopyTrace>,
    /// Total cycles consumed, including kernel overheads.
    pub cycles_used: u64,
    /// Delivered output ports (`None` on omission).
    pub outputs: Option<[Option<u32>; NUM_PORTS]>,
    /// Every EDM detection event, in order.
    pub detections: Vec<Edm>,
}

impl JobReport {
    /// Number of copies executed.
    pub fn executions(&self) -> u32 {
        self.copies.len() as u32
    }
}

/// A planned fault injection into a specific copy of the job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectionPlan {
    /// 0-based execution index to inject into.
    pub copy: u32,
    /// Cycle offset within that copy.
    pub at_cycle: u64,
    /// The fault itself.
    pub fault: TransientFault,
}

/// A fault active during one TEM job — either a one-shot transient planted
/// into a chosen copy, or a permanent stuck-at bit asserted before every
/// instruction of *every* copy. The stuck-at case is the theoretical limit
/// of time redundancy: all copies run on the same damaged hardware, so the
/// error either trips an EDM in each copy (→ persistent omissions, the
/// signal the diagnosis layer feeds on) or corrupts every copy identically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JobFault {
    /// One transient bit flip into one copy.
    Transient(InjectionPlan),
    /// A permanent stuck-at bit affecting all copies.
    StuckAt(StuckAtFault),
}

/// One execution's captured result: outputs, the state region's words, and
/// the control-flow path signature, compared exactly. Including the
/// signature closes the §2.7 gap: a control-flow error that skips or
/// repeats code yet happens to leave outputs and state intact still
/// diverges from the clean copy here.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ResultVector {
    outputs: [Option<u32>; NUM_PORTS],
    state: [u32; STATE_WORDS],
    path_sig: u64,
}

impl ResultVector {
    /// An unfilled result slot.
    const EMPTY: ResultVector = ResultVector {
        outputs: [None; NUM_PORTS],
        state: [0; STATE_WORDS],
        path_sig: 0,
    };
}

/// The TEM executor for one workload.
#[derive(Debug, Clone)]
pub struct TemExecutor {
    config: TemConfig,
}

impl TemExecutor {
    /// Creates an executor with the given configuration.
    pub fn new(config: TemConfig) -> Self {
        TemExecutor { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &TemConfig {
        &self.config
    }

    /// Runs one TEM-protected job of `workload` on `machine`.
    ///
    /// `inputs` are bound to the workload's input ports before every copy
    /// (re-reading inputs is free in this model — they are latched).
    /// `inject` optionally plants one transient fault into a chosen copy;
    /// `None` runs the job fault-free.
    pub fn run_job(
        &self,
        machine: &mut Machine,
        workload: &Workload,
        inputs: &[u32],
        inject: Option<InjectionPlan>,
    ) -> JobReport {
        self.run_job_with_fault(machine, workload, inputs, inject.map(JobFault::Transient))
    }

    /// Runs one TEM-protected job with an optional [`JobFault`] — the
    /// persistence-aware generalisation of [`TemExecutor::run_job`]:
    /// transients strike one copy, stuck-at faults are asserted before
    /// every instruction of every copy.
    ///
    /// This is the sequential driver of the §2.5 rule in `TemJob`: it
    /// runs each copy to its end, charges the kernel's comparison, vote and
    /// restore cycles, and ends the job when the next copy would no longer
    /// fit the deadline.
    pub fn run_job_with_fault(
        &self,
        machine: &mut Machine,
        workload: &Workload,
        inputs: &[u32],
        fault: Option<JobFault>,
    ) -> JobReport {
        let cfg = &self.config;
        let mut cycles_used: u64 = 0;
        // Sized up front; the cap only guards against an absurd config.
        let mut copies: Vec<CopyTrace> = Vec::with_capacity(cfg.max_executions.min(8) as usize);
        let mut job = TemJob::new(DATA_BASE, cfg.min_results, cfg.max_results);
        job.begin(&machine.mem);
        loop {
            cycles_used += match job.pending_check() {
                Some(Check::Compare) => cfg.compare_cycles,
                Some(Check::Vote) => cfg.vote_cycles,
                None => 0,
            };
            // Deadline check before starting any copy (§2.5): a fresh copy
            // needs its full budget plus the pending comparison.
            let in_time = cycles_used + cfg.copy_budget + cfg.compare_cycles <= cfg.deadline_cycles;
            let room = in_time && job.copies() < cfg.max_executions;
            if let Step::Done { outcome, outputs } = job.decide(&mut machine.mem, room) {
                return JobReport {
                    outcome,
                    copies,
                    cycles_used,
                    outputs,
                    detections: job.detections,
                };
            }
            let index = job.start_copy(&mut machine.mem);
            machine.reset(0, STACK_TOP);
            machine.clear_outputs();
            for (&port, &v) in workload.input_ports.iter().zip(inputs) {
                machine.set_input(port, v);
            }
            let exit = match fault {
                Some(JobFault::Transient(plan)) if plan.copy == index => {
                    let (out, _) = nlft_machine::fault::run_with_injection(
                        machine,
                        cfg.copy_budget,
                        plan.at_cycle,
                        plan.fault,
                    );
                    out
                }
                Some(JobFault::StuckAt(stuck)) => {
                    nlft_machine::fault::run_with_stuck_at(machine, cfg.copy_budget, stuck)
                }
                _ => machine.run(cfg.copy_budget),
            };
            cycles_used += exit.cycles_used;
            let detected = match exit.exit {
                RunExit::Halted => {
                    let (outputs, path_sig) = (*machine.outputs(), machine.cpu.path_sig);
                    job.record(&mut machine.mem, outputs, path_sig)
                }
                // Scenario iii/iv: terminate, restore context, retry.
                RunExit::Exception(e) => Some(job.detect(Edm::from_exception(&e))),
                RunExit::BudgetExhausted => Some(job.detect(Edm::ExecutionTimeMonitor)),
            };
            if detected.is_some() {
                cycles_used += cfg.restore_cycles;
            }
            copies.push(CopyTrace {
                index,
                result: detected.map_or(CopyResult::Completed, CopyResult::Detected),
                cycles: exit.cycles_used,
            });
        }
    }
}

/// A kernel check the next [`TemJob::decide`] makes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Check {
    /// Two results are compared.
    Compare,
    /// Three results are voted over.
    Vote,
}

/// What a TEM job does next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step {
    /// Run another copy.
    RunCopy,
    /// The job is over: `outputs` are the delivered result, `None` on an
    /// omission.
    Done {
        /// How the job ended.
        outcome: JobOutcome,
        /// The delivered output ports.
        outputs: Option<[Option<u32>; NUM_PORTS]>,
    },
}

/// The §2.5 job rule, once for both executives: the state-window
/// snapshot, the results gathered so far, the copies run, the detections,
/// and the one decision — run another copy, deliver, or omit — with the
/// §2.6 commit and rollback that go with it.
///
/// [`TemExecutor`] drives it sequentially; the preemptive executive
/// drives it across preemptions, one copy per dispatch. A driver calls
/// [`TemJob::begin`] when a job is released, then [`TemJob::decide`]
/// before every copy it might run. Each copy starts with
/// [`TemJob::start_copy`] and ends with [`TemJob::record`] when it halted
/// or [`TemJob::detect`] when an EDM terminated it.
#[derive(Debug, Clone)]
pub(crate) struct TemJob {
    /// First byte of the state window.
    base: u32,
    /// The window as the job found it: every copy starts from it, and an
    /// omission rolls back to it (§2.6).
    snapshot: [u32; STATE_WORDS],
    /// The results gathered so far are `results[..n_results]`; a copy's
    /// state is read straight into the next free slot.
    results: [ResultVector; VOTED_RESULTS],
    n_results: usize,
    /// Results to gather before comparing or voting.
    wanted: usize,
    /// Results a comparison mismatch may escalate to.
    max_results: u32,
    /// Results `wanted` starts from.
    min_wanted: usize,
    /// Copies started.
    copies: u32,
    /// Every detection, in order.
    detections: Vec<Edm>,
}

impl TemJob {
    /// A job over the state window at `base` that gathers
    /// `min_results` results, clamped to `[2, max_results]` and to the
    /// three a vote runs over, before comparing or voting.
    pub(crate) fn new(base: u32, min_results: u32, max_results: u32) -> Self {
        let min_wanted = min_results.clamp(2, max_results).min(VOTED_RESULTS as u32) as usize;
        TemJob {
            base,
            snapshot: [0; STATE_WORDS],
            results: [ResultVector::EMPTY; VOTED_RESULTS],
            n_results: 0,
            wanted: min_wanted,
            max_results,
            min_wanted,
            copies: 0,
            detections: Vec::new(),
        }
    }

    /// Opens a new job: snapshots the state window and forgets the last
    /// job's results, copies and detections.
    pub(crate) fn begin(&mut self, mem: &EccMemory) {
        self.snapshot
            .copy_from_slice(mem.peek_words(self.base, STATE_WORDS).expect(MAPPED));
        self.n_results = 0;
        self.wanted = self.min_wanted;
        self.copies = 0;
        self.detections.clear();
    }

    /// Copies started so far.
    pub(crate) fn copies(&self) -> u32 {
        self.copies
    }

    /// The check the next [`TemJob::decide`] makes, if any.
    pub(crate) fn pending_check(&self) -> Option<Check> {
        match self.n_results {
            n if n < self.wanted => None,
            2 => Some(Check::Compare),
            _ => Some(Check::Vote),
        }
    }

    /// Starts a copy and returns its 0-based index: the state window is
    /// restored from the snapshot, so every copy starts from the same
    /// state. Before copy 0 the window still holds the snapshot's words,
    /// so the restore can only clear injected flips; with none in the
    /// window it would change nothing, and is skipped.
    pub(crate) fn start_copy(&mut self, mem: &mut EccMemory) -> u32 {
        if self.copies > 0 || !mem.words_clean(self.base, STATE_WORDS).expect(MAPPED) {
            self.restore(mem);
        }
        self.copies += 1;
        self.copies - 1
    }

    /// Records the result of a copy that halted: the `outputs` it is
    /// compared on, its path signature and its state window, read as the
    /// kernel's own loads would. An ECC trap while reading the window is
    /// this copy's detection, and is returned.
    pub(crate) fn record(
        &mut self,
        mem: &mut EccMemory,
        outputs: [Option<u32>; NUM_PORTS],
        path_sig: u64,
    ) -> Option<Edm> {
        let slot = &mut self.results[self.n_results];
        if let Err(e) = read_state(mem, self.base, &mut slot.state) {
            return Some(self.detect(Edm::from_exception(&e)));
        }
        slot.outputs = outputs;
        slot.path_sig = path_sig;
        self.n_results += 1;
        None
    }

    /// Records a detection and returns it.
    pub(crate) fn detect(&mut self, edm: Edm) -> Edm {
        self.detections.push(edm);
        edm
    }

    /// The §2.5 decision. With results missing, another copy runs when the
    /// driver has `room` for one, and the job omits otherwise. Two results
    /// are compared: a match is delivered, a mismatch asks for a third
    /// result. Three results are voted over, 2 of 3. A delivery commits the
    /// winners' state; an omission restores the snapshot.
    pub(crate) fn decide(&mut self, mem: &mut EccMemory, room: bool) -> Step {
        if self.n_results == 2 && self.wanted == 2 {
            if self.results[0] == self.results[1] {
                return self.deliver(1);
            }
            // Scenario ii: mismatch → a third result for the vote.
            self.detect(Edm::TemComparison);
            if self.max_results < 3 {
                return self.omit(mem, Edm::TemComparison);
            }
            self.wanted = 3;
        }
        if self.n_results < self.wanted {
            if room {
                return Step::RunCopy;
            }
            let last = self.detections.last().copied();
            return self.omit(mem, last.unwrap_or(Edm::ExecutionTimeMonitor));
        }
        debug_assert_eq!(self.n_results, VOTED_RESULTS);
        // The third result was executed last, so if it belongs to the
        // majority the window already holds a winner's state. Otherwise (a
        // triplicated job whose first two copies agree) the losing copy's
        // state is overwritten with the pair's.
        let r = &self.results;
        if r[2] == r[0] || r[2] == r[1] {
            self.deliver(2)
        } else if r[0] == r[1] {
            mem.store_words(self.base, &r[1].state).expect(MAPPED);
            self.deliver(1)
        } else {
            self.detect(Edm::TemVote);
            self.omit(mem, Edm::TemVote)
        }
    }

    /// Delivers result `winner`, masked when anything was detected.
    fn deliver(&self, winner: usize) -> Step {
        Step::Done {
            outcome: match self.detections.first() {
                None => JobOutcome::DeliveredClean,
                Some(&detected_by) => JobOutcome::DeliveredMasked { detected_by },
            },
            outputs: Some(self.results[winner].outputs),
        }
    }

    /// Rolls the state window back and delivers nothing.
    fn omit(&self, mem: &mut EccMemory, detected_by: Edm) -> Step {
        self.restore(mem);
        Step::Done {
            outcome: JobOutcome::Omission { detected_by },
            outputs: None,
        }
    }

    /// Writes the snapshot back over the state window, clearing any
    /// injected flips there.
    fn restore(&self, mem: &mut EccMemory) {
        mem.store_words(self.base, &self.snapshot).expect(MAPPED);
    }
}

/// Why a state-window access cannot fail: both executives map the window.
const MAPPED: &str = "state window is mapped";

/// Reads the state window at `base` into `state` as the kernel's own loads
/// would: one slice copy when no word carries an injected fault, otherwise
/// word by word through ECC in address order, stopping at the first
/// uncorrectable word.
fn read_state(
    mem: &mut EccMemory,
    base: u32,
    state: &mut [u32; STATE_WORDS],
) -> Result<(), Exception> {
    if mem.words_clean(base, STATE_WORDS).expect(MAPPED) {
        state.copy_from_slice(mem.peek_words(base, STATE_WORDS).expect(MAPPED));
        return Ok(());
    }
    for (i, w) in (0u32..).zip(state.iter_mut()) {
        *w = mem.load(base + i * WORD_BYTES)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use nlft_machine::fault::FaultTarget;
    use nlft_machine::isa::Reg;
    use nlft_machine::workloads;

    fn executor_for(w: &Workload) -> (TemExecutor, Machine) {
        let machine = w.instantiate();
        // Measure a clean copy to size the budget.
        let inputs: Vec<u32> = w.input_ports.iter().map(|_| 500).collect();
        let (_, cycles) = w.golden_run(&inputs);
        let exec = TemExecutor::new(TemConfig::with_budget(cycles * 2));
        (exec, machine)
    }

    #[test]
    fn scenario_i_fault_free_two_copies() {
        let w = workloads::pid_controller();
        let (exec, mut m) = executor_for(&w);
        let report = exec.run_job(&mut m, &w, &[1000, 900], None);
        assert_eq!(report.outcome, JobOutcome::DeliveredClean);
        assert_eq!(report.executions(), 2, "no third copy when results match");
        assert!(report.detections.is_empty());
        assert!(report.outputs.unwrap()[0].is_some());
    }

    #[test]
    fn scenario_iii_edm_detection_triggers_replacement() {
        let w = workloads::pid_controller();
        let (exec, mut m) = executor_for(&w);
        // PC fault in copy 1 → hardware exception → replacement copy.
        let plan = InjectionPlan {
            copy: 1,
            at_cycle: 5,
            fault: TransientFault {
                target: FaultTarget::Pc,
                mask: 1 << 20,
            },
        };
        let report = exec.run_job(&mut m, &w, &[1000, 900], Some(plan));
        assert!(
            matches!(report.outcome, JobOutcome::DeliveredMasked { .. }),
            "outcome was {:?}",
            report.outcome
        );
        assert_eq!(report.executions(), 3, "killed copy + replacement");
        assert!(matches!(report.copies[1].result, CopyResult::Detected(_)));
        assert!(report.outputs.is_some());
    }

    #[test]
    fn scenario_iv_edm_detection_in_first_copy() {
        let w = workloads::pid_controller();
        let (exec, mut m) = executor_for(&w);
        let plan = InjectionPlan {
            copy: 0,
            at_cycle: 5,
            fault: TransientFault {
                target: FaultTarget::Pc,
                mask: 1 << 20,
            },
        };
        let report = exec.run_job(&mut m, &w, &[1000, 900], Some(plan));
        assert!(report.outcome.delivered());
        assert!(matches!(report.copies[0].result, CopyResult::Detected(_)));
        assert_eq!(report.executions(), 3);
    }

    #[test]
    fn scenario_ii_comparison_mismatch_then_vote() {
        let w = workloads::sum_series();
        let (exec, mut m) = executor_for(&w);
        // Silent data corruption in copy 0: flip a low bit of the accumulator
        // mid-loop. No EDM fires; only the comparison can see it.
        let plan = InjectionPlan {
            copy: 0,
            at_cycle: 60,
            fault: TransientFault {
                target: FaultTarget::Register(Reg::R1),
                mask: 1 << 3,
            },
        };
        let report = exec.run_job(&mut m, &w, &[100], Some(plan));
        match report.outcome {
            JobOutcome::DeliveredMasked { detected_by } => {
                assert_eq!(detected_by, Edm::TemComparison);
            }
            other => panic!("expected masked-by-comparison, got {other:?}"),
        }
        assert_eq!(report.executions(), 3, "vote needs a third copy");
        // The delivered result is the correct one.
        assert_eq!(report.outputs.unwrap()[0], Some(5050));
    }

    #[test]
    fn early_edm_detection_reclaims_time_and_still_delivers() {
        // A PC fault trips the hardware within a few cycles, so the killed
        // copy costs almost nothing; even a tight deadline of ~2 budgets
        // leaves room for the replacement — the "time reclaimed from the
        // terminated copy" of §2.5.
        let w = workloads::pid_controller();
        let inputs = [1000u32, 900];
        let (_, clean_cycles) = w.golden_run(&inputs);
        let mut cfg = TemConfig::with_budget(clean_cycles + 10);
        cfg.deadline_cycles = (clean_cycles + 10) * 2 + 2 * cfg.compare_cycles + cfg.restore_cycles;
        let exec = TemExecutor::new(cfg);
        let mut m = w.instantiate();
        let plan = InjectionPlan {
            copy: 0,
            at_cycle: 5,
            fault: TransientFault {
                target: FaultTarget::Pc,
                mask: 1 << 20,
            },
        };
        let report = exec.run_job(&mut m, &w, &inputs, Some(plan));
        assert!(
            matches!(report.outcome, JobOutcome::DeliveredMasked { .. }),
            "got {:?}",
            report.outcome
        );
    }

    #[test]
    fn deadline_exhaustion_forces_omission() {
        // A budget-overrun fault wastes a *full* copy budget, so a deadline
        // sized for exactly two copies cannot absorb the recovery.
        let w = workloads::sum_series();
        let (_, clean_cycles) = w.golden_run(&[100]);
        let budget = clean_cycles + 20;
        let mut cfg = TemConfig::with_budget(budget);
        cfg.deadline_cycles = budget * 2 + cfg.compare_cycles;
        let exec = TemExecutor::new(cfg);
        let mut m = w.instantiate();
        let plan = InjectionPlan {
            copy: 0,
            at_cycle: 30,
            fault: TransientFault {
                target: FaultTarget::Register(Reg::R0),
                mask: 1 << 28, // loop counter explodes → overrun
            },
        };
        let report = exec.run_job(&mut m, &w, &[100], Some(plan));
        match report.outcome {
            JobOutcome::Omission { detected_by } => {
                assert_eq!(detected_by, Edm::ExecutionTimeMonitor);
            }
            other => panic!("expected omission, got {other:?}"),
        }
        assert!(report.outputs.is_none(), "omission delivers nothing");
    }

    #[test]
    fn state_rolls_back_on_omission() {
        let w = workloads::pid_controller();
        let inputs = [1000u32, 900];
        let (_, clean_cycles) = w.golden_run(&inputs);
        let mut cfg = TemConfig::with_budget(clean_cycles + 10);
        // Cap executions at 2: the EDM-killed copy cannot be replaced, so
        // only one result exists and the job must omit.
        cfg.max_executions = 2;
        let exec = TemExecutor::new(cfg);
        let mut m = w.instantiate();
        let before = m.mem.peek(DATA_BASE).unwrap();
        let plan = InjectionPlan {
            copy: 0,
            at_cycle: 5,
            fault: TransientFault {
                target: FaultTarget::Pc,
                mask: 1 << 20,
            },
        };
        let report = exec.run_job(&mut m, &w, &inputs, Some(plan));
        assert!(matches!(report.outcome, JobOutcome::Omission { .. }));
        assert_eq!(
            m.mem.peek(DATA_BASE).unwrap(),
            before,
            "integral state must be rolled back on omission"
        );
    }

    #[test]
    fn state_commits_on_delivery() {
        let w = workloads::pid_controller();
        let (exec, mut m) = executor_for(&w);
        let before = m.mem.peek(DATA_BASE).unwrap();
        let report = exec.run_job(&mut m, &w, &[1000, 0], None);
        assert!(report.outcome.delivered());
        assert_ne!(
            m.mem.peek(DATA_BASE).unwrap(),
            before,
            "integral state must be updated after delivery"
        );
    }

    #[test]
    fn budget_overrun_detected_by_execution_time_monitor() {
        let w = workloads::sum_series();
        let (exec, mut m) = executor_for(&w);
        // Flip the loop counter to a huge value → runs far past the budget.
        let plan = InjectionPlan {
            copy: 0,
            at_cycle: 30,
            fault: TransientFault {
                target: FaultTarget::Register(Reg::R0),
                mask: 1 << 28,
            },
        };
        let report = exec.run_job(&mut m, &w, &[100], Some(plan));
        assert!(
            report.detections.contains(&Edm::ExecutionTimeMonitor),
            "detections were {:?}",
            report.detections
        );
        // Masked by replacement (if deadline allowed) or an omission —
        // either way the bad result must not be delivered.
        if let Some(outputs) = report.outputs {
            assert_eq!(outputs[0], Some(5050));
        }
    }

    #[test]
    fn identical_double_injection_defeats_comparison_realistically() {
        // Injecting the *same* silent corruption into both copies makes both
        // results identical and wrong — the known theoretical limit of pure
        // time redundancy (correlated faults). TEM delivers the wrong value;
        // this documents the model boundary honestly.
        let w = workloads::sum_series();
        let (exec, _) = executor_for(&w);
        let golden = w.golden_run(&[100]).0[0];
        let mut outputs = Vec::new();
        for copy in 0..2 {
            let mut m = w.instantiate();
            let plan = InjectionPlan {
                copy,
                at_cycle: 60,
                fault: TransientFault {
                    target: FaultTarget::Register(Reg::R1),
                    mask: 1 << 3,
                },
            };
            let r = exec.run_job(&mut m, &w, &[100], Some(plan));
            outputs.push(r.outputs.map(|o| o[0]));
        }
        // Single-copy injections are each masked (vote picks the two clean
        // copies), so both deliveries match golden.
        for o in outputs {
            assert_eq!(o, Some(golden));
        }
    }

    #[test]
    fn memory_state_double_flip_detected_via_ecc_digest() {
        let w = workloads::pid_controller();
        let (exec, mut m) = executor_for(&w);
        // Double-bit flip in the state region mid-copy: the completed copy's
        // state read-back traps on ECC.
        let plan = InjectionPlan {
            copy: 0,
            at_cycle: 10,
            fault: TransientFault {
                target: FaultTarget::MemoryWord(DATA_BASE + 8),
                mask: 0b11,
            },
        };
        let report = exec.run_job(&mut m, &w, &[1000, 900], Some(plan));
        // Either the copy itself trapped (if it read the word) or the state
        // read-back caught it; in both cases ECC appears in the detections and
        // the final result is correct.
        if !report.detections.is_empty() {
            assert!(report.detections.contains(&Edm::Ecc));
        }
        assert!(report.outcome.delivered());
    }

    #[test]
    fn control_flow_divergence_with_identical_outputs_is_detected() {
        // Both branch arms write the same value, so the *output* comparison
        // alone could never see a flipped branch decision — the §2.7
        // bypass. The path signature catches it.
        use nlft_machine::asm::assemble;
        use nlft_machine::workloads::standard_map;
        let image = assemble(
            "    in  r0, port0
                 in  r1, port1
                 cmp r0, r1
                 jn  less
                 ldi r2, 1
                 jmp done
             less:
                 ldi r2, 1
             done:
                 out r2, port0
                 halt",
        )
        .unwrap();
        let workload = Workload {
            name: "cfc-bypass",
            image,
            map: standard_map(),
            input_ports: vec![0, 1],
            output_ports: vec![0],
        };
        let mut clean = workload.instantiate();
        clean.set_input(0, 5);
        clean.set_input(1, 5);
        clean.run(1_000);
        assert_eq!(clean.output(0), Some(1));

        let exec = TemExecutor::new(TemConfig::with_budget(200));
        let mut m = workload.instantiate();
        // Flip the N flag right after CMP, before JN, in copy 0 only.
        let plan = InjectionPlan {
            copy: 0,
            at_cycle: 3,
            fault: TransientFault {
                target: FaultTarget::Status,
                mask: 0b10,
            },
        };
        let report = exec.run_job(&mut m, &workload, &[5, 5], Some(plan));
        assert!(
            report.detections.contains(&Edm::TemComparison),
            "path-signature divergence must trip the comparison: {:?}",
            report.detections
        );
        // The vote still delivers the (identical) correct output.
        assert!(report.outcome.delivered());
        assert_eq!(report.outputs.unwrap()[0], Some(1));
    }

    #[test]
    fn path_signatures_are_reproducible_across_copies() {
        let w = workloads::sum_series();
        let (exec, mut m) = executor_for(&w);
        let report = exec.run_job(&mut m, &w, &[100], None);
        assert_eq!(
            report.outcome,
            JobOutcome::DeliveredClean,
            "identical paths must compare equal"
        );
    }

    #[test]
    fn min_results_three_always_triples() {
        // A suspect node runs three copies and votes even when the first
        // two match — the defensive mode the escalation ladder switches on.
        let w = workloads::pid_controller();
        let (_, cycles) = w.golden_run(&[1000, 900]);
        let mut cfg = TemConfig::with_budget(cycles * 2);
        cfg.min_results = 3;
        let exec = TemExecutor::new(cfg);
        let mut m = w.instantiate();
        let report = exec.run_job(&mut m, &w, &[1000, 900], None);
        assert_eq!(report.outcome, JobOutcome::DeliveredClean);
        assert_eq!(report.executions(), 3, "triplicated even fault-free");
        // And a single silent corruption is outvoted without a TemComparison
        // escalation round.
        let mut m = w.instantiate();
        let plan = InjectionPlan {
            copy: 1,
            at_cycle: 8,
            fault: TransientFault {
                target: FaultTarget::Register(Reg::R1),
                mask: 1 << 2,
            },
        };
        let report = exec.run_job(&mut m, &w, &[1000, 900], Some(plan));
        assert!(report.outcome.delivered());
    }

    fn state_region(m: &Machine) -> Vec<u32> {
        m.mem.peek_words(DATA_BASE, STATE_WORDS).unwrap().to_vec()
    }

    #[test]
    fn triplicated_vote_commits_the_winning_pair_state() {
        // Copies 0 and 1 agree, copy 2 silently corrupts the error term it
        // stores as integral/prev-error state. The vote delivers the pair's
        // outputs and must commit the pair's state, not the loser's.
        let w = workloads::pid_controller();
        let inputs = [1000u32, 900];
        let (_, cycles) = w.golden_run(&inputs);
        let mut cfg = TemConfig::with_budget(cycles * 2);
        cfg.min_results = 3;
        let exec = TemExecutor::new(cfg);
        let mut clean = w.instantiate();
        let clean_report = exec.run_job(&mut clean, &w, &inputs, None);
        let clean_state = state_region(&clean);
        let mut corrupted_copy_state = 0;
        for reg in [Reg::R2, Reg::R3] {
            for at_cycle in 3..=13 {
                let fault = TransientFault {
                    target: FaultTarget::Register(reg),
                    mask: 1 << 4,
                };
                // Does this fault, alone in one run, change the state?
                let mut single = w.instantiate();
                for (&port, &v) in w.input_ports.iter().zip(&inputs) {
                    single.set_input(port, v);
                }
                nlft_machine::fault::run_with_injection(&mut single, cycles * 2, at_cycle, fault);
                if state_region(&single)[..2] != clean_state[..2] {
                    corrupted_copy_state += 1;
                }
                let mut m = w.instantiate();
                let plan = InjectionPlan {
                    copy: 2,
                    at_cycle,
                    fault,
                };
                let report = exec.run_job(&mut m, &w, &inputs, Some(plan));
                assert_eq!(report.outputs, clean_report.outputs, "{reg:?} @ {at_cycle}");
                assert_eq!(state_region(&m), clean_state, "{reg:?} @ {at_cycle}");
            }
        }
        assert!(corrupted_copy_state > 0, "no plan corrupted copy 2's state");
    }

    /// A state word the PID task never touches.
    const IDLE_STATE_WORD: u32 = DATA_BASE + 0x100;

    fn flip_idle_state_word(mask: u32) -> InjectionPlan {
        InjectionPlan {
            copy: 0,
            at_cycle: 10,
            fault: TransientFault {
                target: FaultTarget::MemoryWord(IDLE_STATE_WORD),
                mask,
            },
        }
    }

    #[test]
    fn single_flip_in_state_region_is_corrected_once() {
        let w = workloads::pid_controller();
        let (exec, mut m) = executor_for(&w);
        let plan = flip_idle_state_word(1 << 7);
        let report = exec.run_job(&mut m, &w, &[1000, 900], Some(plan));
        assert_eq!(report.outcome, JobOutcome::DeliveredClean);
        assert_eq!(report.executions(), 2, "the corrected copy matches");
        assert_eq!(m.mem.ecc_stats().corrected, 1);
        assert_eq!(m.mem.faulty_words(), 0, "scrubbed by the state read");
    }

    #[test]
    fn flip_pending_in_state_region_at_job_start_is_restored_away() {
        // A flip that lands in the state region between jobs is still
        // pending when the next job snapshots it: the restore before copy
        // 0 rewrites the word, so no copy ever reads the flip.
        let w = workloads::pid_controller();
        let inputs = [1000u32, 900];
        let (exec, mut clean) = executor_for(&w);
        assert_eq!(
            exec.run_job(&mut clean, &w, &inputs, None).outcome,
            JobOutcome::DeliveredClean
        );
        let mut m = w.instantiate();
        assert!(m.mem.inject_flip(IDLE_STATE_WORD, 0b11));
        let report = exec.run_job(&mut m, &w, &inputs, None);
        assert_eq!(report.outcome, JobOutcome::DeliveredClean);
        assert_eq!(report.executions(), 2);
        assert_eq!(m.mem.faulty_words(), 0, "the restore cleared the flip");
        assert_eq!(m.mem.ecc_stats(), clean.mem.ecc_stats(), "no ECC event");
        assert_eq!(m.mem.ecc_stats().corrected, 0);
        assert_eq!(state_region(&m), state_region(&clean));
    }

    #[test]
    fn double_flip_in_state_region_is_detected_by_ecc() {
        let w = workloads::pid_controller();
        let (exec, mut m) = executor_for(&w);
        let plan = flip_idle_state_word(0b11);
        let report = exec.run_job(&mut m, &w, &[1000, 900], Some(plan));
        assert_eq!(report.copies[0].result, CopyResult::Detected(Edm::Ecc));
        assert_eq!(
            report.outcome,
            JobOutcome::DeliveredMasked {
                detected_by: Edm::Ecc
            }
        );
        assert_eq!(m.mem.ecc_stats().detected_uncorrectable, 1);
    }

    #[test]
    fn state_region_flip_without_ecc_escapes_and_is_outvoted() {
        let w = workloads::pid_controller();
        let (exec, _) = executor_for(&w);
        let mut m = Machine::new_without_ecc(workloads::MEM_BYTES, w.map.clone());
        m.load_program(0, &w.image.words).unwrap();
        let inputs = [1000u32, 900];
        let plan = flip_idle_state_word(1 << 7);
        let report = exec.run_job(&mut m, &w, &inputs, Some(plan));
        assert_eq!(m.mem.ecc_stats().escaped, 1, "copy 0 read the flipped word");
        assert_eq!(
            report.outcome,
            JobOutcome::DeliveredMasked {
                detected_by: Edm::TemComparison
            }
        );
        assert_eq!(report.outputs.unwrap(), w.golden_run(&inputs).0);
        assert_eq!(m.mem.peek(IDLE_STATE_WORD).unwrap(), 0);
    }

    #[test]
    fn stuck_at_job_fault_defeats_time_redundancy() {
        use nlft_machine::fault::StuckAtFault;
        // Increment register stuck at zero: every copy loops forever, every
        // copy is killed by the execution-time monitor, so the job omits —
        // and does so *every* activation, the persistent signature that
        // distinguishes permanent damage from transient bad luck.
        let w = workloads::sum_series();
        let (_, cycles) = w.golden_run(&[100]);
        let exec = TemExecutor::new(TemConfig::with_budget(cycles * 2));
        let stuck = StuckAtFault {
            target: FaultTarget::Register(Reg::R2),
            bit: 1,
            stuck_high: false,
        };
        for _ in 0..3 {
            let mut m = w.instantiate();
            let report =
                exec.run_job_with_fault(&mut m, &w, &[100], Some(JobFault::StuckAt(stuck)));
            match report.outcome {
                JobOutcome::Omission { detected_by } => {
                    assert_eq!(detected_by, Edm::ExecutionTimeMonitor);
                }
                other => panic!("stuck increment must omit, got {other:?}"),
            }
            assert!(!report.detections.is_empty());
        }
    }

    #[test]
    fn benign_stuck_at_job_fault_delivers_clean() {
        use nlft_machine::fault::StuckAtFault;
        // A stuck bit in an unused register never activates; both copies
        // match and the job is indistinguishable from a healthy one.
        let w = workloads::sum_series();
        let (_, cycles) = w.golden_run(&[100]);
        let exec = TemExecutor::new(TemConfig::with_budget(cycles * 2));
        let stuck = StuckAtFault {
            target: FaultTarget::Register(Reg::R6),
            bit: 1 << 9,
            stuck_high: true,
        };
        let mut m = w.instantiate();
        let report = exec.run_job_with_fault(&mut m, &w, &[100], Some(JobFault::StuckAt(stuck)));
        assert_eq!(report.outcome, JobOutcome::DeliveredClean);
        assert_eq!(report.outputs.unwrap()[0], Some(5050));
    }

    #[test]
    fn report_cycles_account_for_overheads() {
        let w = workloads::sum_series();
        let (exec, mut m) = executor_for(&w);
        let report = exec.run_job(&mut m, &w, &[50], None);
        let copy_cycles: u64 = report.copies.iter().map(|c| c.cycles).sum();
        assert_eq!(
            report.cycles_used,
            copy_cycles + exec.config().compare_cycles,
            "clean job = two copies + one comparison"
        );
    }
}
