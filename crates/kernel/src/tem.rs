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
//! [`EccMemory::store_words`]: nlft_machine::mem::EccMemory::store_words
//! [`EccMemory::load`]: nlft_machine::mem::EccMemory::load

use std::fmt;

use nlft_machine::edm::Edm;
use nlft_machine::fault::{StuckAtFault, TransientFault};
use nlft_machine::machine::{Exception, Machine, RunExit, NUM_PORTS};
use nlft_machine::mem::WORD_BYTES;
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
        let mut detections: Vec<Edm> = Vec::new();
        // The results gathered so far are `results[..n_results]`; a copy's
        // state is read straight into the next free slot.
        let mut results = [ResultVector::EMPTY; VOTED_RESULTS];
        let mut n_results: usize = 0;
        // Snapshot the state region so every copy starts from identical
        // state, and so an omission can roll back (§2.6).
        let mut snapshot = [0u32; STATE_WORDS];
        snapshot.copy_from_slice(
            machine
                .mem
                .peek_words(DATA_BASE, STATE_WORDS)
                .expect("state region is mapped"),
        );
        let restore = |machine: &mut Machine| {
            machine
                .mem
                .store_words(DATA_BASE, &snapshot)
                .expect("state region is mapped");
        };

        let deliver = |outcome_mask: Option<Edm>,
                       outputs: [Option<u32>; NUM_PORTS],
                       copies: Vec<CopyTrace>,
                       cycles_used: u64,
                       detections: Vec<Edm>| JobReport {
            outcome: match outcome_mask {
                None => JobOutcome::DeliveredClean,
                Some(edm) => JobOutcome::DeliveredMasked { detected_by: edm },
            },
            copies,
            cycles_used,
            outputs: Some(outputs),
            detections,
        };

        // At most the three results a 2-of-3 vote runs over are gathered.
        let mut results_wanted: u32 = cfg
            .min_results
            .clamp(2, cfg.max_results)
            .min(VOTED_RESULTS as u32);
        loop {
            // Deadline check before starting any copy (§2.5): a fresh copy
            // needs its full budget plus the pending comparison.
            let next_cost = cfg.copy_budget + cfg.compare_cycles;
            let out_of_time = cycles_used + next_cost > cfg.deadline_cycles;
            let out_of_copies = copies.len() as u32 >= cfg.max_executions;
            if (n_results as u32) < results_wanted && (out_of_time || out_of_copies) {
                restore(machine);
                let last = detections
                    .last()
                    .copied()
                    .unwrap_or(Edm::ExecutionTimeMonitor);
                return JobReport {
                    outcome: JobOutcome::Omission { detected_by: last },
                    copies,
                    cycles_used,
                    outputs: None,
                    detections,
                };
            }

            if (n_results as u32) < results_wanted {
                // Execute one more copy.
                let index = copies.len() as u32;
                // Before copy 0 the region still holds the snapshot's words,
                // so a restore can only clear injected flips: with none in
                // the region it would change nothing, and is skipped.
                if index > 0
                    || !machine
                        .mem
                        .words_clean(DATA_BASE, STATE_WORDS)
                        .expect("state region is mapped")
                {
                    restore(machine);
                }
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
                let mut copy = CopyTrace {
                    index,
                    result: CopyResult::Completed,
                    cycles: exit.cycles_used,
                };
                let detected = match exit.exit {
                    // Read the state region back; an ECC trap while
                    // reading state counts as a detection of this copy.
                    RunExit::Halted => {
                        let slot = &mut results[n_results];
                        match read_state(machine, &mut slot.state) {
                            Ok(()) => {
                                slot.outputs = *machine.outputs();
                                slot.path_sig = machine.cpu.path_sig;
                                n_results += 1;
                                None
                            }
                            Err(e) => Some(Edm::from_exception(&e)),
                        }
                    }
                    // Scenario iii/iv: terminate, restore context, retry.
                    RunExit::Exception(e) => Some(Edm::from_exception(&e)),
                    RunExit::BudgetExhausted => Some(Edm::ExecutionTimeMonitor),
                };
                if let Some(edm) = detected {
                    detections.push(edm);
                    copy.result = CopyResult::Detected(edm);
                    cycles_used += cfg.restore_cycles;
                }
                copies.push(copy);
                continue;
            }

            // Enough results: compare or vote.
            if n_results == 2 {
                cycles_used += cfg.compare_cycles;
                if results[0] == results[1] {
                    let masked = detections.first().copied();
                    return deliver(masked, results[1].outputs, copies, cycles_used, detections);
                }
                // Scenario ii: mismatch → need a third result for the vote.
                detections.push(Edm::TemComparison);
                if cfg.max_results >= 3 {
                    results_wanted = 3;
                    continue;
                }
                restore(machine);
                return JobReport {
                    outcome: JobOutcome::Omission {
                        detected_by: Edm::TemComparison,
                    },
                    copies,
                    cycles_used,
                    outputs: None,
                    detections,
                };
            }

            // Three results: 2-of-3 majority vote.
            debug_assert_eq!(n_results, VOTED_RESULTS);
            cycles_used += cfg.vote_cycles;
            // The third result was executed last, so if it belongs to the
            // majority the state region already holds a winner's state.
            // Otherwise (a triplicated job whose first two copies agree)
            // the losing copy's state is overwritten with the pair's.
            let winner = if results[2] == results[0] || results[2] == results[1] {
                Some(&results[2])
            } else if results[0] == results[1] {
                machine
                    .mem
                    .store_words(DATA_BASE, &results[1].state)
                    .expect("state region is mapped");
                Some(&results[1])
            } else {
                None
            };
            return match winner {
                Some(w) => {
                    let first = detections.first().copied();
                    deliver(first, w.outputs, copies, cycles_used, detections)
                }
                None => {
                    detections.push(Edm::TemVote);
                    restore(machine);
                    JobReport {
                        outcome: JobOutcome::Omission {
                            detected_by: Edm::TemVote,
                        },
                        copies,
                        cycles_used,
                        outputs: None,
                        detections,
                    }
                }
            };
        }
    }
}

/// Reads the state region into `state` as the kernel's own loads would:
/// one slice copy when no state word carries an injected fault, otherwise
/// word by word through ECC in address order, stopping at the first
/// uncorrectable word.
fn read_state(machine: &mut Machine, state: &mut [u32; STATE_WORDS]) -> Result<(), Exception> {
    let mem = &mut machine.mem;
    if mem
        .words_clean(DATA_BASE, STATE_WORDS)
        .expect("state region is mapped")
    {
        state.copy_from_slice(
            mem.peek_words(DATA_BASE, STATE_WORDS)
                .expect("state region is mapped"),
        );
        return Ok(());
    }
    for (i, w) in (0u32..).zip(state.iter_mut()) {
        *w = mem.load(DATA_BASE + i * WORD_BYTES)?;
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
