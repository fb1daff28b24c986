//! Software-implemented fault injection (SWIFI) for the TM32 machine.
//!
//! Replaces the heavy-ion and pin-level injection campaigns of the paper's
//! companion studies with deterministic, seedable bit flips into the same
//! architectural resources: data registers, PC, SP, status register and
//! memory words. Transient faults are single XOR events; permanent faults
//! are stuck-at bits re-asserted before every instruction.

use std::fmt;

use nlft_sim::rng::RngStream;

use crate::cpu::StatusFlags;
use crate::isa::{Reg, NUM_REGS};
use crate::machine::{Machine, RunExit, RunOutcome};
use crate::mem::WORD_BYTES;

/// Why a fault specification was rejected at construction. Fractions and
/// recurrence probabilities must be real numbers in `[0, 1]`; NaN and
/// out-of-range values are rejected here with the offending field named,
/// never clamped.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultSpecError {
    /// A fraction or probability was NaN or outside `[0, 1]`.
    NotAProbability {
        /// Which field was rejected (e.g. `"stuck_at_fraction"`).
        field: &'static str,
        /// The offending value.
        value: f64,
    },
}

impl fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultSpecError::NotAProbability { field, value } => {
                write!(f, "{field} {value} must be a probability in [0, 1]")
            }
        }
    }
}

impl std::error::Error for FaultSpecError {}

/// Checks one probability field, rejecting NaN and out-of-range values.
fn probability(field: &'static str, value: f64) -> Result<(), FaultSpecError> {
    if (0.0..=1.0).contains(&value) {
        Ok(())
    } else {
        Err(FaultSpecError::NotAProbability { field, value })
    }
}

/// The architectural resource a fault lands in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultTarget {
    /// A general-purpose data register.
    Register(Reg),
    /// The program counter.
    Pc,
    /// The stack pointer.
    Sp,
    /// The status (flags) register.
    Status,
    /// A 32-bit memory word at the given byte address.
    MemoryWord(u32),
}

impl FaultTarget {
    /// Coarse class used for detection-matrix reporting.
    pub fn class(self) -> TargetClass {
        match self {
            FaultTarget::Register(_) => TargetClass::DataRegister,
            FaultTarget::Pc => TargetClass::Pc,
            FaultTarget::Sp => TargetClass::Sp,
            FaultTarget::Status => TargetClass::Status,
            FaultTarget::MemoryWord(_) => TargetClass::Memory,
        }
    }
}

/// Coarse fault-target classes, the rows of the Table-1 detection matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TargetClass {
    /// General-purpose registers.
    DataRegister,
    /// Program counter.
    Pc,
    /// Stack pointer.
    Sp,
    /// Status register.
    Status,
    /// Main memory.
    Memory,
}

impl TargetClass {
    /// All classes, in reporting order.
    pub const ALL: [TargetClass; 5] = [
        TargetClass::DataRegister,
        TargetClass::Pc,
        TargetClass::Sp,
        TargetClass::Status,
        TargetClass::Memory,
    ];

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            TargetClass::DataRegister => "data register",
            TargetClass::Pc => "program counter",
            TargetClass::Sp => "stack pointer",
            TargetClass::Status => "status register",
            TargetClass::Memory => "memory word",
        }
    }
}

/// A single transient fault: an XOR of `mask` into `target`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransientFault {
    /// Where the fault strikes.
    pub target: FaultTarget,
    /// Which bits flip.
    pub mask: u32,
}

impl TransientFault {
    /// Applies the bit flip to the machine. Memory flips into unmapped
    /// addresses vanish without effect (as in reality).
    pub fn apply(&self, m: &mut Machine) {
        match self.target {
            FaultTarget::Register(r) => m.cpu.flip_reg(r, self.mask),
            FaultTarget::Pc => m.cpu.pc ^= self.mask,
            FaultTarget::Sp => m.cpu.sp ^= self.mask,
            FaultTarget::Status => {
                let w = m.cpu.flags.to_word() ^ self.mask;
                m.cpu.flags = StatusFlags::from_word(w);
            }
            FaultTarget::MemoryWord(addr) => {
                m.mem.inject_flip(addr, self.mask);
            }
        }
    }
}

/// A permanent stuck-at fault, re-asserted before every instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StuckAtFault {
    /// Where the fault sits.
    pub target: FaultTarget,
    /// The stuck bit (single-bit mask).
    pub bit: u32,
    /// Stuck-at-one when `true`, stuck-at-zero otherwise.
    pub stuck_high: bool,
}

impl StuckAtFault {
    /// Forces the stuck bit to its value.
    pub fn assert_on(&self, m: &mut Machine) {
        let force = |v: u32| {
            if self.stuck_high {
                v | self.bit
            } else {
                v & !self.bit
            }
        };
        match self.target {
            FaultTarget::Register(r) => {
                let v = m.cpu.reg(r);
                m.cpu.set_reg(r, force(v));
            }
            FaultTarget::Pc => m.cpu.pc = force(m.cpu.pc),
            FaultTarget::Sp => m.cpu.sp = force(m.cpu.sp),
            FaultTarget::Status => {
                m.cpu.flags = StatusFlags::from_word(force(m.cpu.flags.to_word()));
            }
            FaultTarget::MemoryWord(addr) => {
                // Model as repeated corruption of the word's true value.
                if let Ok(v) = m.mem.peek(addr) {
                    let _ = m.mem.store(addr, force(v));
                }
            }
        }
    }
}

/// The persistence class of a fault model — the ground truth a diagnosis
/// layer tries to recover from the error stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FaultPersistence {
    /// A one-shot event; never recurs.
    Transient,
    /// A recurring burst of transients; dies out eventually.
    Intermittent,
    /// Permanent hardware damage; survives restarts.
    Permanent,
}

impl FaultPersistence {
    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            FaultPersistence::Transient => "transient",
            FaultPersistence::Intermittent => "intermittent",
            FaultPersistence::Permanent => "permanent",
        }
    }
}

/// An intermittent fault: the same transient re-manifests over a burst of
/// jobs with a fixed per-job recurrence probability, then dies out —
/// marginal hardware, a loose connection, or an environmental disturbance
/// that eventually passes. Between manifestations the node looks healthy,
/// which is exactly what makes intermittents hard to tell from bad luck.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntermittentFault {
    /// The transient that recurs.
    pub fault: TransientFault,
    /// Probability the fault manifests in a given job of the burst.
    pub recurrence: f64,
    /// Burst length in jobs since onset; after this many jobs the fault
    /// never manifests again.
    pub burst_jobs: u32,
}

impl IntermittentFault {
    /// Validates the spec: the recurrence must be a real probability in
    /// `[0, 1]` (NaN rejected).
    pub fn check(&self) -> Result<(), FaultSpecError> {
        probability("recurrence", self.recurrence)
    }

    /// Whether the fault manifests in the job `jobs_since_onset` jobs after
    /// onset (0-based). The onset job always manifests; later jobs inside
    /// the burst manifest with probability [`IntermittentFault::recurrence`].
    pub fn manifests(&self, jobs_since_onset: u32, rng: &mut RngStream) -> bool {
        if jobs_since_onset >= self.burst_jobs {
            return false;
        }
        jobs_since_onset == 0 || rng.bernoulli(self.recurrence)
    }
}

/// A core-level fault for multicore NLFT nodes: one core of the node
/// stops executing, either as a hard crash (no cleanup code runs — a lock
/// held at that instant leaks forever) or escalated through the kernel's
/// fail-silence ladder (an orderly silence whose release hook revokes any
/// held resource).
///
/// Consumed by the multicore executive in `nlft-kernel`; deliberately not
/// part of [`FaultSpace::sample`]'s draw sequence so every existing
/// campaign's RNG stream stays bit-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CoreDeathFault {
    /// The core that dies (executive core index).
    pub core: u32,
    /// Earliest tick at which the fault strikes.
    pub at_tick: u64,
    /// Defer the strike until the core is executing *inside* a critical
    /// section (the adversarial placement the lock-based baseline cannot
    /// survive); when `false` the core dies exactly at `at_tick`.
    pub in_section: bool,
    /// Escalated fail-silence (orderly, resources revoked) instead of a
    /// hard crash.
    pub escalated: bool,
}

impl CoreDeathFault {
    /// Samples an in-section core death: uniform victim core, uniform
    /// arming tick in `[1, horizon)`, escalated with probability
    /// `escalated_p`. Three draws, in that order.
    ///
    /// # Panics
    ///
    /// Panics when `cores` is zero or `horizon < 2`.
    pub fn sample(rng: &mut RngStream, cores: u32, horizon: u64, escalated_p: f64) -> Self {
        assert!(cores > 0, "a node has at least one core");
        assert!(horizon >= 2, "horizon too short to arm a death");
        let core = rng.uniform_range(0, u64::from(cores)) as u32;
        let at_tick = rng.uniform_range(1, horizon);
        let escalated = rng.bernoulli(escalated_p);
        CoreDeathFault {
            core,
            at_tick,
            in_section: true,
            escalated,
        }
    }
}

/// A sampled fault of any persistence class (see [`FaultSpace::sample_model`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultModel {
    /// A one-shot bit flip.
    Transient(TransientFault),
    /// A recurring burst of the same bit flip.
    Intermittent(IntermittentFault),
    /// A permanently stuck bit.
    StuckAt(StuckAtFault),
}

impl FaultModel {
    /// The ground-truth persistence class of this model.
    pub fn persistence(&self) -> FaultPersistence {
        match self {
            FaultModel::Transient(_) => FaultPersistence::Transient,
            FaultModel::Intermittent(_) => FaultPersistence::Intermittent,
            FaultModel::StuckAt(_) => FaultPersistence::Permanent,
        }
    }

    /// The architectural target the model strikes.
    pub fn target(&self) -> FaultTarget {
        match self {
            FaultModel::Transient(f) => f.target,
            FaultModel::Intermittent(f) => f.fault.target,
            FaultModel::StuckAt(f) => f.target,
        }
    }
}

/// The sampling space for random fault generation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpace {
    /// Include general-purpose registers.
    pub registers: bool,
    /// Include the PC.
    pub pc: bool,
    /// Include the SP.
    pub sp: bool,
    /// Include the status register.
    pub status: bool,
    /// Include memory words in `[0, memory_bytes)`; `0` excludes memory.
    pub memory_bytes: u32,
    /// Number of bits to flip (1 = classic single-event upset).
    pub bits: u32,
    /// Probability that a [`FaultSpace::sample_model`] draw is an
    /// intermittent (recurring) fault rather than a one-shot transient.
    pub intermittent_fraction: f64,
    /// Per-job recurrence probability given to sampled intermittent faults.
    pub recurrence: f64,
    /// Burst length (jobs) given to sampled intermittent faults.
    pub burst_jobs: u32,
    /// Probability that a [`FaultSpace::sample_model`] draw is a permanent
    /// stuck-at bit. Zero in every stock constructor: permanent faults are
    /// opt-in per campaign via [`FaultSpace::with_stuck_at`].
    pub stuck_at_fraction: f64,
}

impl FaultSpace {
    /// The classic single-event-upset space over a whole machine: registers,
    /// PC, SP, status and `memory_bytes` of main memory, single-bit flips.
    ///
    /// The space is purely *transient* — [`FaultSpace::sample`] draws
    /// one-shot flips and [`FaultSpace::sample_model`] never yields an
    /// intermittent or stuck-at fault unless the fractions are raised via
    /// [`FaultSpace::with_intermittent`] / [`FaultSpace::with_stuck_at`].
    pub fn seu(memory_bytes: u32) -> Self {
        FaultSpace {
            registers: true,
            pc: true,
            sp: true,
            status: true,
            memory_bytes,
            bits: 1,
            intermittent_fraction: 0.0,
            recurrence: 0.0,
            burst_jobs: 0,
            stuck_at_fraction: 0.0,
        }
    }

    /// CPU-internal single-bit transients only (registers, PC, SP, status;
    /// no memory) — the component of the space that ECC cannot help with,
    /// and the one TEM exists for. Like [`FaultSpace::seu`] this space is
    /// transient-only until intermittent or stuck-at fractions are opted
    /// into via the builder methods.
    pub fn cpu_only() -> Self {
        FaultSpace {
            registers: true,
            pc: true,
            sp: true,
            status: true,
            memory_bytes: 0,
            bits: 1,
            intermittent_fraction: 0.0,
            recurrence: 0.0,
            burst_jobs: 0,
            stuck_at_fraction: 0.0,
        }
    }

    /// Opts permanent stuck-at faults into the space: `fraction` of
    /// [`FaultSpace::sample_model`] draws become [`StuckAtFault`]s instead
    /// of transients. Campaigns that only call [`FaultSpace::sample`] are
    /// unaffected.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= fraction <= 1.0`.
    pub fn with_stuck_at(self, fraction: f64) -> Self {
        match self.try_with_stuck_at(fraction) {
            Ok(space) => space,
            Err(e) => panic!("{e}"),
        }
    }

    /// Non-panicking form of [`FaultSpace::with_stuck_at`]: rejects NaN
    /// and out-of-`[0, 1]` fractions with a typed error.
    pub(crate) fn try_with_stuck_at(mut self, fraction: f64) -> Result<Self, FaultSpecError> {
        probability("stuck_at_fraction", fraction)?;
        self.stuck_at_fraction = fraction;
        Ok(self)
    }

    /// Opts intermittent (recurring-burst) faults into the space: `fraction`
    /// of [`FaultSpace::sample_model`] draws become [`IntermittentFault`]s
    /// with the given per-job `recurrence` probability and `burst_jobs`
    /// burst length.
    ///
    /// # Panics
    ///
    /// Panics unless `fraction` and `recurrence` are probabilities.
    pub fn with_intermittent(self, fraction: f64, recurrence: f64, burst_jobs: u32) -> Self {
        match self.try_with_intermittent(fraction, recurrence, burst_jobs) {
            Ok(space) => space,
            Err(e) => panic!("{e}"),
        }
    }

    /// Non-panicking form of [`FaultSpace::with_intermittent`]: rejects
    /// NaN and out-of-`[0, 1]` fractions with a typed error.
    pub(crate) fn try_with_intermittent(
        mut self,
        fraction: f64,
        recurrence: f64,
        burst_jobs: u32,
    ) -> Result<Self, FaultSpecError> {
        probability("intermittent_fraction", fraction)?;
        probability("recurrence", recurrence)?;
        self.intermittent_fraction = fraction;
        self.recurrence = recurrence;
        self.burst_jobs = burst_jobs;
        Ok(self)
    }

    /// Draws a random fault from the space.
    ///
    /// Targets are weighted by rough "silicon area": each register counts 1,
    /// PC/SP/status count 1 each, and memory counts 1 per 64 words — memory
    /// cells are individually tiny but numerous, yet protected by ECC, so
    /// over-sampling memory would only demonstrate ECC, not TEM.
    ///
    /// # Panics
    ///
    /// Panics if the space is empty or `bits == 0`.
    pub fn sample(&self, rng: &mut RngStream) -> TransientFault {
        assert!(self.bits > 0, "must flip at least one bit");
        let target = self.sample_target(rng);
        let mut mask = 0u32;
        while mask.count_ones() < self.bits.min(32) {
            mask |= 1 << rng.uniform_range(0, 32);
        }
        TransientFault { target, mask }
    }

    /// Draws an area-weighted target from the space (the shared first stage
    /// of every sampler, so the transient and stuck-at distributions agree).
    fn sample_target(&self, rng: &mut RngStream) -> FaultTarget {
        let mut weights: Vec<(f64, u8)> = Vec::new(); // (weight, kind)
        if self.registers {
            weights.push((NUM_REGS as f64, 0));
        }
        if self.pc {
            weights.push((1.0, 1));
        }
        if self.sp {
            weights.push((1.0, 2));
        }
        if self.status {
            weights.push((1.0, 3));
        }
        if self.memory_bytes >= WORD_BYTES {
            weights.push((f64::from(self.memory_bytes / WORD_BYTES) / 64.0, 4));
        }
        assert!(!weights.is_empty(), "fault space is empty");
        let ws: Vec<f64> = weights.iter().map(|&(w, _)| w).collect();
        let kind = weights[rng.weighted_index(&ws)].1;
        match kind {
            0 => FaultTarget::Register(
                Reg::new(rng.uniform_range(0, NUM_REGS as u64) as u8).expect("in range"),
            ),
            1 => FaultTarget::Pc,
            2 => FaultTarget::Sp,
            3 => FaultTarget::Status,
            _ => {
                let words = u64::from(self.memory_bytes / WORD_BYTES);
                FaultTarget::MemoryWord(rng.uniform_range(0, words) as u32 * WORD_BYTES)
            }
        }
    }

    /// Draws a fault of any persistence class, honouring the configured
    /// stuck-at and intermittent fractions (both zero by default, making
    /// this equivalent to a [`FaultSpace::sample`] wrapped in
    /// [`FaultModel::Transient`]).
    ///
    /// # Panics
    ///
    /// Panics if the space is empty, `bits == 0`, or the fractions exceed
    /// one combined.
    pub fn sample_model(&self, rng: &mut RngStream) -> FaultModel {
        assert!(self.bits > 0, "must flip at least one bit");
        let transient_w = 1.0 - self.intermittent_fraction - self.stuck_at_fraction;
        assert!(
            transient_w >= -1e-12,
            "intermittent + stuck-at fractions exceed 1"
        );
        let kind = rng.weighted_index(&[
            transient_w.max(0.0),
            self.intermittent_fraction,
            self.stuck_at_fraction,
        ]);
        match kind {
            0 => FaultModel::Transient(self.sample(rng)),
            1 => FaultModel::Intermittent(IntermittentFault {
                fault: self.sample(rng),
                recurrence: self.recurrence,
                burst_jobs: self.burst_jobs,
            }),
            _ => {
                let target = self.sample_target(rng);
                let bit = 1u32 << rng.uniform_range(0, 32);
                let stuck_high = rng.bernoulli(0.5);
                FaultModel::StuckAt(StuckAtFault {
                    target,
                    bit,
                    stuck_high,
                })
            }
        }
    }
}

/// Runs a machine to completion within `cycle_budget` with a permanent
/// stuck-at fault asserted before every instruction — the hardware analogue
/// of [`run_with_injection`] for [`StuckAtFault`]s. Unlike a transient, the
/// fault is always "activated": it re-manifests on every read/execute for
/// as long as the run lasts.
pub fn run_with_stuck_at(m: &mut Machine, cycle_budget: u64, fault: StuckAtFault) -> RunOutcome {
    let start = m.cpu.cycles;
    loop {
        let used = m.cpu.cycles - start;
        if used >= cycle_budget {
            return RunOutcome {
                exit: RunExit::BudgetExhausted,
                cycles_used: used,
            };
        }
        fault.assert_on(m);
        match m.step() {
            Ok(crate::machine::Step::Running) => {}
            Ok(crate::machine::Step::Halted) => {
                return RunOutcome {
                    exit: RunExit::Halted,
                    cycles_used: m.cpu.cycles - start,
                };
            }
            Err(e) => {
                return RunOutcome {
                    exit: RunExit::Exception(e),
                    cycles_used: m.cpu.cycles - start,
                };
            }
        }
    }
}

/// Runs a machine with a transient fault injected after `inject_at_cycle`
/// cycles, then continues to completion within the overall `cycle_budget`.
///
/// Returns the outcome plus whether the injection actually happened (it
/// does not if the program finished, or the budget ran out, first — the
/// fault was *not activated*, matching the paper's definition of fault rate
/// as the rate of *activated* faults; the outcome is then `m.run`'s).
pub fn run_with_injection(
    m: &mut Machine,
    cycle_budget: u64,
    inject_at_cycle: u64,
    fault: TransientFault,
) -> (RunOutcome, bool) {
    let start = m.cpu.cycles;
    // Phase 1: run up to the injection point. A run that overshoots the
    // budget as well stopped where `m.run(cycle_budget)` would have.
    let pre = m.run(inject_at_cycle.min(cycle_budget));
    match pre.exit {
        RunExit::BudgetExhausted if (inject_at_cycle..cycle_budget).contains(&pre.cycles_used) => {
            // Reached the injection point with the program still running.
            fault.apply(m);
            let remaining = cycle_budget - pre.cycles_used;
            let post = m.run(remaining);
            (
                RunOutcome {
                    exit: post.exit,
                    cycles_used: m.cpu.cycles - start,
                },
                true,
            )
        }
        _ => (pre, false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::machine::Exception;
    use crate::mmu::MemoryMap;

    fn counting_machine() -> Machine {
        let image = assemble(
            "    ldi r0, 0
                 ldi r1, 100
                 ldi r2, 1
             loop:
                 add r0, r0, r2
                 cmp r0, r1
                 jnz loop
                 out r0, port0
                 halt",
        )
        .unwrap();
        let mut m = Machine::new(4096, MemoryMap::permissive());
        m.load_program(0, &image.words).unwrap();
        m.reset(0, 4096);
        m
    }

    #[test]
    fn injection_past_a_spent_budget_is_not_activated() {
        // The DIV (8 cycles) overshoots both the injection point (5) and
        // the budget (6): no budget is left to inject into, so nothing is
        // injected and the outcome is the plain run's.
        let image = assemble(
            "    ldi r1, 1
             loop:
                 div r0, r0, r1
                 jmp loop",
        )
        .unwrap();
        let fresh = || {
            let mut m = Machine::new(4096, MemoryMap::permissive());
            m.load_program(0, &image.words).unwrap();
            m.reset(0, 4096);
            m
        };
        let fault = TransientFault {
            target: FaultTarget::Register(Reg::R1),
            mask: 1,
        };
        for (budget, at) in [(6, 5), (5, 6), (9, 9), (9, 5)] {
            let mut plain = fresh();
            let expected = plain.run(budget);
            let mut m = fresh();
            let (out, injected) = run_with_injection(&mut m, budget, at, fault);
            assert_eq!(out, expected, "budget {budget}, inject at {at}");
            assert!(!injected, "budget {budget}, inject at {at}");
            assert_eq!(m.cpu, plain.cpu);
        }
    }

    #[test]
    fn register_flip_changes_result() {
        let mut clean = counting_machine();
        clean.run(10_000);
        let golden = clean.output(0);

        let mut m = counting_machine();
        let fault = TransientFault {
            target: FaultTarget::Register(Reg::R0),
            mask: 1 << 30,
        };
        let (out, injected) = run_with_injection(&mut m, 100_000, 50, fault);
        assert!(injected);
        // Either it diverges (different output) or loops forever until the
        // counter wraps; both are acceptable fault behaviours, but the
        // outcome must differ from golden or exhaust budget.
        match out.exit {
            RunExit::Halted => assert_ne!(m.output(0), golden),
            RunExit::BudgetExhausted => {}
            RunExit::Exception(_) => {}
        }
    }

    #[test]
    fn pc_flip_typically_detected_by_hardware() {
        // Flip a high PC bit → lands outside mapped memory → bus error,
        // reproducing the §2.5 observation that PC faults raise exceptions.
        let mut m = counting_machine();
        let fault = TransientFault {
            target: FaultTarget::Pc,
            mask: 1 << 20,
        };
        let (out, injected) = run_with_injection(&mut m, 100_000, 20, fault);
        assert!(injected);
        assert!(
            matches!(out.exit, RunExit::Exception(Exception::Memory(_))),
            "expected bus error, got {:?}",
            out.exit
        );
    }

    #[test]
    fn pc_low_bit_flip_raises_alignment_error() {
        let mut m = counting_machine();
        let fault = TransientFault {
            target: FaultTarget::Pc,
            mask: 0b10,
        };
        let (out, injected) = run_with_injection(&mut m, 100_000, 20, fault);
        assert!(injected);
        assert!(matches!(out.exit, RunExit::Exception(Exception::Memory(_))));
    }

    #[test]
    fn fault_after_halt_is_not_activated() {
        let mut m = counting_machine();
        let fault = TransientFault {
            target: FaultTarget::Register(Reg::R0),
            mask: 1,
        };
        let (out, injected) = run_with_injection(&mut m, 100_000, 99_999, fault);
        assert!(!injected, "program halts long before cycle 99999");
        assert_eq!(out.exit, RunExit::Halted);
    }

    #[test]
    fn status_flip_perturbs_branching() {
        // Flipping Z right before JNZ can end the loop early.
        let mut m = counting_machine();
        let fault = TransientFault {
            target: FaultTarget::Status,
            mask: 0b01,
        };
        let (_, injected) = run_with_injection(&mut m, 100_000, 10, fault);
        assert!(injected);
    }

    #[test]
    fn stuck_at_keeps_bit_forced() {
        let mut m = counting_machine();
        let stuck = StuckAtFault {
            target: FaultTarget::Register(Reg::R2),
            bit: 1,
            stuck_high: false, // increment register stuck at 0 → infinite loop
        };
        let start = m.cpu.cycles;
        let mut exit = None;
        while m.cpu.cycles - start < 5_000 {
            stuck.assert_on(&mut m);
            match m.step() {
                Ok(crate::machine::Step::Running) => {}
                Ok(crate::machine::Step::Halted) => {
                    exit = Some(RunExit::Halted);
                    break;
                }
                Err(e) => {
                    exit = Some(RunExit::Exception(e));
                    break;
                }
            }
        }
        assert!(exit.is_none(), "stuck-at-0 increment must loop forever");
    }

    #[test]
    fn sample_respects_space() {
        let mut rng = RngStream::new(42);
        let space = FaultSpace::cpu_only();
        for _ in 0..500 {
            let f = space.sample(&mut rng);
            assert!(!matches!(f.target, FaultTarget::MemoryWord(_)));
            assert_eq!(f.mask.count_ones(), 1);
        }
    }

    #[test]
    fn sample_memory_addresses_are_aligned_and_in_range() {
        let mut rng = RngStream::new(43);
        let space = FaultSpace {
            registers: false,
            pc: false,
            sp: false,
            status: false,
            bits: 2,
            ..FaultSpace::seu(4096)
        };
        for _ in 0..500 {
            let f = space.sample(&mut rng);
            match f.target {
                FaultTarget::MemoryWord(a) => {
                    assert_eq!(a % WORD_BYTES, 0);
                    assert!(a < 4096);
                }
                other => panic!("unexpected target {other:?}"),
            }
            assert_eq!(f.mask.count_ones(), 2);
        }
    }

    #[test]
    fn sampling_is_reproducible() {
        let space = FaultSpace::seu(4096);
        let a: Vec<_> = {
            let mut rng = RngStream::new(7).fork("faults");
            (0..50).map(|_| space.sample(&mut rng)).collect()
        };
        let b: Vec<_> = {
            let mut rng = RngStream::new(7).fork("faults");
            (0..50).map(|_| space.sample(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn stock_spaces_are_transient_only() {
        let mut rng = RngStream::new(99);
        for space in [FaultSpace::seu(4096), FaultSpace::cpu_only()] {
            for _ in 0..200 {
                assert!(matches!(
                    space.sample_model(&mut rng),
                    FaultModel::Transient(_)
                ));
            }
        }
    }

    #[test]
    fn with_stuck_at_draws_permanent_faults() {
        let mut rng = RngStream::new(100);
        let space = FaultSpace::cpu_only().with_stuck_at(0.5);
        let mut stuck = 0;
        for _ in 0..400 {
            match space.sample_model(&mut rng) {
                FaultModel::StuckAt(f) => {
                    stuck += 1;
                    assert_eq!(f.bit.count_ones(), 1, "stuck-at is a single bit");
                    assert!(!matches!(f.target, FaultTarget::MemoryWord(_)));
                }
                FaultModel::Transient(_) => {}
                other => panic!("no intermittents configured, got {other:?}"),
            }
        }
        assert!(
            (120..=280).contains(&stuck),
            "half the draws should be stuck-at, got {stuck}/400"
        );
    }

    #[test]
    fn with_intermittent_draws_recurring_faults() {
        let mut rng = RngStream::new(101);
        let space = FaultSpace::cpu_only().with_intermittent(1.0, 0.7, 5);
        match space.sample_model(&mut rng) {
            FaultModel::Intermittent(f) => {
                assert_eq!(f.recurrence, 0.7);
                assert_eq!(f.burst_jobs, 5);
                assert!(f.manifests(0, &mut rng), "onset always manifests");
                assert!(!f.manifests(5, &mut rng), "burst over, never recurs");
                assert_eq!(
                    FaultModel::Intermittent(f).persistence(),
                    FaultPersistence::Intermittent
                );
            }
            other => panic!("expected intermittent, got {other:?}"),
        }
    }

    #[test]
    fn intermittent_recurrence_rate_matches_probability() {
        let mut rng = RngStream::new(102);
        let f = IntermittentFault {
            fault: TransientFault {
                target: FaultTarget::Pc,
                mask: 1,
            },
            recurrence: 0.25,
            burst_jobs: u32::MAX,
        };
        let hits = (0..2000).filter(|_| f.manifests(1, &mut rng)).count();
        assert!(
            (400..=600).contains(&hits),
            "~25% expected, got {hits}/2000"
        );
    }

    #[test]
    fn run_with_stuck_at_detects_via_etm() {
        // Increment register stuck at 0 → the loop never terminates → the
        // execution-time monitor (budget) is the detecting mechanism, every
        // single run — this is what gives diagnosis a persistent signal.
        let stuck = StuckAtFault {
            target: FaultTarget::Register(Reg::R2),
            bit: 1,
            stuck_high: false,
        };
        for _ in 0..3 {
            let mut m = counting_machine();
            let out = run_with_stuck_at(&mut m, 5_000, stuck);
            assert_eq!(out.exit, RunExit::BudgetExhausted);
        }
    }

    #[test]
    fn run_with_stuck_at_on_benign_bit_still_halts() {
        // R3 is unused by the counting loop: the stuck bit never matters.
        let stuck = StuckAtFault {
            target: FaultTarget::Register(Reg::R3),
            bit: 1 << 7,
            stuck_high: true,
        };
        let mut m = counting_machine();
        let out = run_with_stuck_at(&mut m, 100_000, stuck);
        assert_eq!(out.exit, RunExit::Halted);
        assert_eq!(m.output(0), Some(100));
    }

    #[test]
    fn sample_model_is_reproducible() {
        let space = FaultSpace::seu(4096)
            .with_stuck_at(0.2)
            .with_intermittent(0.3, 0.5, 8);
        let draw = |seed: u64| -> Vec<FaultModel> {
            let mut rng = RngStream::new(seed).fork("models");
            (0..100).map(|_| space.sample_model(&mut rng)).collect()
        };
        assert_eq!(draw(11), draw(11));
    }

    #[test]
    fn core_death_sample_is_in_range_and_deterministic() {
        let draw = |seed: u64| {
            let mut rng = RngStream::new(seed).fork("core-death");
            (0..200)
                .map(|_| CoreDeathFault::sample(&mut rng, 2, 4000, 0.25))
                .collect::<Vec<_>>()
        };
        let deaths = draw(7);
        assert_eq!(deaths, draw(7), "sampling must be seed-deterministic");
        assert!(deaths.iter().all(|d| d.core < 2));
        assert!(deaths.iter().all(|d| d.at_tick >= 1 && d.at_tick < 4000));
        assert!(deaths.iter().all(|d| d.in_section));
        assert!(deaths.iter().any(|d| d.escalated));
        assert!(deaths.iter().any(|d| !d.escalated));
    }

    #[test]
    fn target_classes_cover_all_targets() {
        assert_eq!(FaultTarget::Pc.class(), TargetClass::Pc);
        assert_eq!(FaultTarget::Sp.class(), TargetClass::Sp);
        assert_eq!(FaultTarget::Status.class(), TargetClass::Status);
        assert_eq!(
            FaultTarget::Register(Reg::R0).class(),
            TargetClass::DataRegister
        );
        assert_eq!(FaultTarget::MemoryWord(0).class(), TargetClass::Memory);
        for c in TargetClass::ALL {
            assert!(!c.name().is_empty());
        }
    }

    /// Every fraction builder rejects NaN and out-of-`[0, 1]` values with
    /// a typed error naming the field — no clamping, no silent misuse.
    #[test]
    fn typed_rejection_of_bad_fractions() {
        for bad in [f64::NAN, -0.25, 1.5, f64::INFINITY] {
            let err = FaultSpace::cpu_only().try_with_stuck_at(bad).unwrap_err();
            assert!(matches!(
                err,
                FaultSpecError::NotAProbability {
                    field: "stuck_at_fraction",
                    ..
                }
            ));
            let err = FaultSpace::cpu_only()
                .try_with_intermittent(bad, 0.5, 4)
                .unwrap_err();
            assert!(matches!(
                err,
                FaultSpecError::NotAProbability {
                    field: "intermittent_fraction",
                    ..
                }
            ));
            let err = FaultSpace::cpu_only()
                .try_with_intermittent(0.5, bad, 4)
                .unwrap_err();
            assert!(matches!(
                err,
                FaultSpecError::NotAProbability {
                    field: "recurrence",
                    ..
                }
            ));
            let fault = IntermittentFault {
                fault: TransientFault {
                    target: FaultTarget::Pc,
                    mask: 1,
                },
                recurrence: bad,
                burst_jobs: 4,
            };
            assert!(fault.check().is_err(), "recurrence {bad} must be rejected");
        }
        assert!(FaultSpace::cpu_only().try_with_stuck_at(1.0).is_ok());
        assert!(FaultSpace::cpu_only()
            .try_with_intermittent(0.0, 1.0, 0)
            .is_ok());
    }

    #[test]
    #[should_panic(expected = "stuck_at_fraction")]
    fn panicking_builder_delegates_to_typed_check() {
        FaultSpace::cpu_only().with_stuck_at(f64::NAN);
    }
}
