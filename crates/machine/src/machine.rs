//! The simulated host machine: CPU core + ECC memory + MMU + I/O ports.
//!
//! [`Machine`] executes TM32 programs deterministically, cycle-by-cycle,
//! raising [`Exception`]s for everything the hardware error-detection
//! mechanisms of the paper's Table 1 would catch: illegal opcodes, address
//! and bus errors, MMU protection violations, uncorrectable ECC errors and
//! division by zero. The kernel (in `nlft-kernel`) layers budget timers,
//! TEM and data-integrity checks on top.

use std::collections::VecDeque;
use std::fmt;

use crate::cpu::{fold_branch, CpuState, StatusFlags};
use crate::isa::Instr;
use crate::mem::{EccMemory, MemError, WORD_BYTES};
use crate::mmu::{Access, MemoryMap, MmuViolation};

/// Number of input and output ports a machine exposes.
pub const NUM_PORTS: usize = 16;

/// A hardware-detected execution error.
///
/// Each variant corresponds to a hardware EDM from Table 1 of the paper;
/// [`crate::edm::Edm::from_exception`] maps variants to mechanisms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exception {
    /// The fetched word does not decode to a valid instruction.
    IllegalOpcode {
        /// PC of the undecodable word.
        pc: u32,
        /// The word itself.
        word: u32,
    },
    /// Bus, alignment or uncorrectable-ECC failure on a memory access.
    Memory(MemError),
    /// Access outside the active memory map.
    Mmu(MmuViolation),
    /// Signed division by zero.
    DivideByZero {
        /// PC of the faulting instruction.
        pc: u32,
    },
    /// `IN`/`OUT` addressed a nonexistent port (peripheral bus error).
    PortFault {
        /// The out-of-range port number.
        port: u16,
    },
}

impl fmt::Display for Exception {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Exception::IllegalOpcode { pc, word } => {
                write!(f, "illegal opcode {word:#010x} at pc={pc:#06x}")
            }
            Exception::Memory(e) => write!(f, "{e}"),
            Exception::Mmu(v) => write!(f, "{v}"),
            Exception::DivideByZero { pc } => write!(f, "divide by zero at pc={pc:#06x}"),
            Exception::PortFault { port } => write!(f, "access to nonexistent port {port}"),
        }
    }
}

impl std::error::Error for Exception {}

impl From<MemError> for Exception {
    fn from(e: MemError) -> Self {
        Exception::Memory(e)
    }
}

impl From<MmuViolation> for Exception {
    fn from(v: MmuViolation) -> Self {
        Exception::Mmu(v)
    }
}

/// Result of executing a single instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Instruction retired; execution continues.
    Running,
    /// A `HALT` retired; the program is complete.
    Halted,
}

/// Why a [`Machine::run`] call stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunExit {
    /// Program executed `HALT`.
    Halted,
    /// The cycle budget was exhausted first (execution-time monitor trip).
    BudgetExhausted,
    /// A hardware exception was raised.
    Exception(Exception),
}

/// Outcome of [`Machine::run`]: exit reason plus cycles actually consumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOutcome {
    /// Why execution stopped.
    pub exit: RunExit,
    /// Cycles consumed by this run call.
    pub cycles_used: u64,
}

/// A deterministic TM32 machine.
///
/// # Examples
///
/// ```
/// use nlft_machine::asm::assemble;
/// use nlft_machine::machine::{Machine, RunExit};
/// use nlft_machine::mmu::MemoryMap;
///
/// let image = assemble("
///     in   r0, port0
///     in   r1, port1
///     add  r2, r0, r1
///     out  r2, port0
///     halt
/// ").unwrap();
/// let mut m = Machine::new(4096, MemoryMap::permissive());
/// m.load_program(0, &image.words).unwrap();
/// m.reset(0, 4096);
/// m.set_input(0, 20);
/// m.set_input(1, 22);
/// let out = m.run(1_000);
/// assert_eq!(out.exit, RunExit::Halted);
/// assert_eq!(m.output(0), Some(42));
/// ```
#[derive(Debug, Clone)]
pub struct Machine {
    /// Architectural CPU state (public so fault injectors can reach it).
    pub cpu: CpuState,
    /// Main memory (public for fault injection and oracle inspection).
    pub mem: EccMemory,
    map: MemoryMap,
    inputs: [u32; NUM_PORTS],
    outputs: [Option<u32>; NUM_PORTS],
    halted: bool,
    trace: Option<VecDeque<TraceEntry>>,
    trace_capacity: usize,
    /// Decoded-instruction cache, indexed by word address (`pc / 4`) and
    /// emptied whenever the memory map changes. Grown on demand, so a
    /// freshly instantiated machine (one per campaign trial) pays for its
    /// code footprint, not its memory size.
    decode_cache: Vec<DecodeEntry>,
    /// Slots filled since the cache was last emptied lie in
    /// `filled.0..filled.1` (`(usize::MAX, 0)` for none). One map confines
    /// execution to one task's code, so emptying costs that footprint.
    filled: (usize, usize),
    decode_cache_enabled: bool,
}

/// One slot of the decoded-instruction cache.
///
/// A filled slot at word index `i` vouches for three facts: address `4 * i`
/// passed the MMU Execute check under the current map (the cache is
/// emptied on every map change, and the check is a pure function of map,
/// address and access), `instr` is the decoding of `word`, and `cycles` is
/// `instr`'s cost.
#[derive(Debug, Clone, Copy, Default)]
struct DecodeEntry {
    /// The instruction word this slot decoded.
    word: u32,
    /// [`Instr::cycles`] of `instr`, stored when the slot is filled so a
    /// hit charges its cost without a second match on the opcode.
    cycles: u8,
    /// Its decoding; `None` marks an empty slot.
    instr: Option<Instr>,
}

// The hit path reads one slot per instruction: keep it small.
const _: () = assert!(std::mem::size_of::<DecodeEntry>() <= 16);

/// One retired (or faulting) instruction in the execution trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// PC the instruction was fetched from.
    pub pc: u32,
    /// The decoded instruction.
    pub instr: Instr,
    /// Cycle counter *after* the instruction.
    pub cycles: u64,
}

impl Machine {
    /// Creates a machine with `mem_bytes` of ECC memory and the given
    /// (initially active) memory map. CPU starts reset at address 0.
    pub fn new(mem_bytes: u32, map: MemoryMap) -> Self {
        Machine {
            cpu: CpuState::new(0, mem_bytes),
            mem: EccMemory::new(mem_bytes),
            map,
            inputs: [0; NUM_PORTS],
            outputs: [None; NUM_PORTS],
            halted: false,
            trace: None,
            trace_capacity: 0,
            decode_cache: Vec::new(),
            filled: (usize::MAX, 0),
            decode_cache_enabled: true,
        }
    }

    /// Enables the execution trace, keeping the most recent `capacity`
    /// instructions — fault forensics: after an exception, the trace shows
    /// the path that led there.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn enable_trace(&mut self, capacity: usize) {
        assert!(capacity > 0, "trace capacity must be positive");
        self.trace = Some(VecDeque::with_capacity(capacity));
        self.trace_capacity = capacity;
    }

    /// The most recent trace entries, oldest first. Empty when tracing is
    /// disabled.
    pub fn trace(&self) -> impl Iterator<Item = &TraceEntry> {
        self.trace.iter().flatten()
    }

    /// Creates a machine whose memory has no ECC (cheap-node configuration).
    pub fn new_without_ecc(mem_bytes: u32, map: MemoryMap) -> Self {
        let mut m = Machine::new(mem_bytes, map);
        m.mem = EccMemory::new_without_ecc(mem_bytes);
        m
    }

    /// Replaces the active memory map (the kernel does this on every task
    /// switch to confine the incoming task).
    pub fn set_memory_map(&mut self, map: MemoryMap) {
        self.map = map;
        // Every filled slot vouched for an Execute check under the old map.
        let (lo, hi) = std::mem::replace(&mut self.filled, (usize::MAX, 0));
        if let Some(slots) = self.decode_cache.get_mut(lo..hi) {
            slots.fill(DecodeEntry::default());
        }
    }

    /// Enables or disables the decoded-instruction cache (on by default).
    ///
    /// Execution is bit-identical either way — the differential property
    /// suite runs the same programs and fault plans through both modes and
    /// asserts identical traces, exceptions and cycle counts; disabling
    /// only exists for that comparison and for forensics.
    pub fn set_decode_cache_enabled(&mut self, enabled: bool) {
        self.decode_cache_enabled = enabled;
        // An empty cache never hits, so the fetch needs no flag test.
        self.decode_cache.clear();
        self.filled = (usize::MAX, 0);
    }

    /// Loads a program image at `base` (bypasses the MMU — boot loader).
    ///
    /// # Errors
    ///
    /// Propagates [`MemError`] for invalid addresses.
    pub fn load_program(&mut self, base: u32, words: &[u32]) -> Result<(), MemError> {
        self.mem.store_words(base, words)
    }

    /// Resets the CPU to `entry` with the stack at `stack_top`, clears the
    /// halt latch and all output ports. Memory contents are preserved.
    pub fn reset(&mut self, entry: u32, stack_top: u32) {
        self.cpu = CpuState::new(entry, stack_top);
        self.outputs = [None; NUM_PORTS];
        self.halted = false;
    }

    /// Sets an input port value.
    ///
    /// # Panics
    ///
    /// Panics if `port >= NUM_PORTS`.
    pub fn set_input(&mut self, port: usize, value: u32) {
        self.inputs[port] = value;
    }

    /// Reads back an output port; `None` if the program never wrote it.
    ///
    /// # Panics
    ///
    /// Panics if `port >= NUM_PORTS`.
    pub fn output(&self, port: usize) -> Option<u32> {
        self.outputs[port]
    }

    /// All output ports (index = port number).
    pub fn outputs(&self) -> &[Option<u32>; NUM_PORTS] {
        &self.outputs
    }

    /// Clears all output ports (between redundant TEM executions).
    pub fn clear_outputs(&mut self) {
        self.outputs = [None; NUM_PORTS];
    }

    /// Clears the halt latch without touching CPU state — the kernel uses
    /// this when dispatching a different task's context after the current
    /// one halted.
    pub fn clear_halt(&mut self) {
        self.halted = false;
    }

    fn load_checked(&mut self, addr: u32, access: Access) -> Result<u32, Exception> {
        self.map.check(addr, access)?;
        Ok(self.mem.load(addr)?)
    }

    fn store_checked(&mut self, addr: u32, value: u32) -> Result<(), Exception> {
        self.map.check(addr, Access::Write)?;
        self.mem.store(addr, value)?;
        Ok(())
    }

    /// The fetch hit: the decoding and cost of the instruction at `pc`
    /// straight from its slot, or `None` when [`Machine::fetch_decode`]
    /// must fetch it.
    ///
    /// A hit needs a filled slot, an aligned `pc`, and a memory word in
    /// range, clean (no injected fault) and equal to the slot's tag. A load
    /// of such a word has no side effect — no ECC counter moves, nothing is
    /// scrubbed, the generation stays — and returns the tag, so skipping it
    /// is exact. The filled slot still vouches for the Execute check, as
    /// the cache is emptied on every map change. Everything else — a dirty
    /// word, a miss, a misaligned or out-of-range `pc`, a replaced smaller
    /// memory — takes the full fetch.
    #[inline(always)]
    fn fetch_hit(&self, pc: u32) -> Option<(Instr, u8)> {
        let idx = (pc / WORD_BYTES) as usize;
        match self.decode_cache.get(idx) {
            Some(&DecodeEntry {
                word,
                cycles,
                instr: Some(instr),
            }) if pc.is_multiple_of(WORD_BYTES) && self.mem.clean_word(idx) == Some(word) => {
                Some((instr, cycles))
            }
            _ => None,
        }
    }

    /// Fetches and decodes the instruction at `pc` when
    /// [`Machine::fetch_hit`] cannot, consulting the decode cache.
    ///
    /// The memory load is *never* skipped here: ECC semantics (correction
    /// counters, scrubbing, uncorrectable exceptions, silent escapes) fire
    /// exactly as they would uncached, and the word the load returned is
    /// the one decoded. A filled slot skips the MMU scan, and the decoder
    /// when the word equals its tag; the range is still checked, as `mem`
    /// may have been replaced by a smaller one.
    #[inline(never)]
    fn fetch_decode(&mut self, pc: u32) -> Result<(Instr, u8), Exception> {
        let idx = (pc / WORD_BYTES) as usize;
        if pc.is_multiple_of(WORD_BYTES) {
            if let Some(&DecodeEntry {
                word: tag,
                cycles,
                instr: Some(instr),
            }) = self.decode_cache.get(idx)
            {
                if let Some(loaded) = self.mem.load_word(idx) {
                    let word = loaded?;
                    if word == tag {
                        return Ok((instr, cycles));
                    }
                    return self.decode_and_fill(pc, word);
                }
            }
        }
        let word = self.load_checked(pc, Access::Execute)?;
        self.decode_and_fill(pc, word)
    }

    /// Decodes `word`, fetched from `pc` under the current map, and caches
    /// the decoding with its cost.
    fn decode_and_fill(&mut self, pc: u32, word: u32) -> Result<(Instr, u8), Exception> {
        let instr =
            Instr::decode(word).map_err(|e| Exception::IllegalOpcode { pc, word: e.word })?;
        let cycles = instr.cycles() as u8;
        if self.decode_cache_enabled {
            // The fetch succeeded, so `pc` is aligned and inside memory.
            let idx = (pc / WORD_BYTES) as usize;
            if idx >= self.decode_cache.len() {
                // At least 64 slots, and doubling: a small program grows it once.
                let slots = (self.mem.size_bytes() / WORD_BYTES) as usize;
                let len = (idx + 1).next_power_of_two().max(64).min(slots);
                self.decode_cache
                    .resize(len.max(idx + 1), DecodeEntry::default());
            }
            self.decode_cache[idx] = DecodeEntry {
                word,
                cycles,
                instr: Some(instr),
            };
            self.filled = (self.filled.0.min(idx), self.filled.1.max(idx + 1));
        }
        Ok((instr, cycles))
    }

    /// Appends one executed instruction to the trace ring.
    #[cold]
    #[inline(never)]
    fn record_trace(&mut self, entry: TraceEntry) {
        if let Some(trace) = &mut self.trace {
            if trace.len() == self.trace_capacity {
                trace.pop_front();
            }
            trace.push_back(entry);
        }
    }

    /// Executes one instruction.
    ///
    /// This is [`Machine::run`]'s body stopped after one instruction, with
    /// no cycle budget.
    ///
    /// # Errors
    ///
    /// Returns the [`Exception`] raised by any hardware EDM. The CPU state
    /// is left as-is at the fault point so a diagnostic handler (the kernel)
    /// can inspect it.
    #[inline]
    pub fn step(&mut self) -> Result<Step, Exception> {
        match self.execute::<true>(u64::MAX).exit {
            RunExit::BudgetExhausted => Ok(Step::Running),
            RunExit::Halted => Ok(Step::Halted),
            RunExit::Exception(e) => Err(e),
        }
    }

    /// Runs until `HALT`, an exception, or `cycle_budget` cycles elapse.
    ///
    /// The budget models the execution-time monitor of Table 1: a task that
    /// overruns (e.g. a control-flow error trapped it in a loop) is stopped
    /// and the overrun reported, rather than starving other tasks. The
    /// budget is checked before each instruction, so the last one may
    /// overshoot it by its own cost.
    pub fn run(&mut self, cycle_budget: u64) -> RunOutcome {
        self.execute::<false>(cycle_budget)
    }

    /// The interpreter: the one body behind [`Machine::run`] and, with
    /// `ONE`, [`Machine::step`], which stops after one instruction and
    /// reports that as [`RunExit::BudgetExhausted`].
    ///
    /// `pc`, the cycles charged, `flags` and `path_sig` live in locals and
    /// are written back at the one exit, so the CPU state at every return is
    /// what one instruction at a time leaves: a `HALT` has charged its
    /// cycles and leaves `pc` on itself; an execute fault has charged its
    /// cycles and leaves `pc` on the faulting instruction, with flags,
    /// `sp` and the path signature untouched by it; a fetch fault charges
    /// nothing.
    #[inline(always)]
    fn execute<const ONE: bool>(&mut self, cycle_budget: u64) -> RunOutcome {
        // The budget is checked before every instruction, so a zero budget
        // stops a halted machine too.
        if cycle_budget == 0 || self.halted {
            let exit = if cycle_budget == 0 {
                RunExit::BudgetExhausted
            } else {
                RunExit::Halted
            };
            return RunOutcome {
                exit,
                cycles_used: 0,
            };
        }
        let start = self.cpu.cycles;
        let mut pc = self.cpu.pc;
        // Cycles charged so far; `start + used` is the cycle counter.
        let mut used = 0u64;
        let mut flags = self.cpu.flags;
        let mut path_sig = self.cpu.path_sig;

        let exit = 'run: loop {
            macro_rules! raise {
                ($e:expr) => {
                    break 'run RunExit::Exception($e.into())
                };
            }
            macro_rules! tri {
                ($r:expr) => {
                    match $r {
                        Ok(v) => v,
                        Err(e) => raise!(e),
                    }
                };
            }
            macro_rules! alu {
                ($rd:expr, $val:expr) => {{
                    let v = $val;
                    self.cpu.set_reg($rd, v);
                    flags = StatusFlags::from_result(v);
                }};
            }

            let (instr, cost) = match self.fetch_hit(pc) {
                Some(hit) => hit,
                None => tri!(self.fetch_decode(pc)),
            };
            used += u64::from(cost);
            if self.trace.is_some() {
                let cycles = start + used;
                self.record_trace(TraceEntry { pc, instr, cycles });
            }
            let mut next_pc = pc.wrapping_add(WORD_BYTES);
            macro_rules! jump {
                ($target:expr) => {{
                    next_pc = $target;
                    path_sig = fold_branch(path_sig, pc, next_pc);
                }};
            }

            match instr {
                Instr::Nop => {}
                Instr::Halt => {
                    self.halted = true;
                    break 'run RunExit::Halted;
                }
                Instr::Ldi(rd, v) => alu!(rd, v as i32 as u32),
                Instr::Lui(rd, v) => alu!(rd, u32::from(v) << 16),
                Instr::Ld(rd, rs1, off) => {
                    let addr = self.cpu.reg(rs1).wrapping_add(off as i32 as u32);
                    let v = tri!(self.load_checked(addr, Access::Read));
                    alu!(rd, v);
                }
                Instr::St(rd, rs1, off) => {
                    let addr = self.cpu.reg(rs1).wrapping_add(off as i32 as u32);
                    tri!(self.store_checked(addr, self.cpu.reg(rd)));
                }
                Instr::Mov(rd, rs1) => alu!(rd, self.cpu.reg(rs1)),
                Instr::Add(rd, a, b) => alu!(rd, self.cpu.reg(a).wrapping_add(self.cpu.reg(b))),
                Instr::Sub(rd, a, b) => alu!(rd, self.cpu.reg(a).wrapping_sub(self.cpu.reg(b))),
                Instr::Mul(rd, a, b) => alu!(rd, self.cpu.reg(a).wrapping_mul(self.cpu.reg(b))),
                Instr::Div(rd, a, b) => {
                    let divisor = self.cpu.reg(b) as i32;
                    if divisor == 0 {
                        raise!(Exception::DivideByZero { pc });
                    }
                    let dividend = self.cpu.reg(a) as i32;
                    alu!(rd, dividend.wrapping_div(divisor) as u32);
                }
                Instr::And(rd, a, b) => alu!(rd, self.cpu.reg(a) & self.cpu.reg(b)),
                Instr::Or(rd, a, b) => alu!(rd, self.cpu.reg(a) | self.cpu.reg(b)),
                Instr::Xor(rd, a, b) => alu!(rd, self.cpu.reg(a) ^ self.cpu.reg(b)),
                Instr::Shl(rd, a, b) => alu!(rd, self.cpu.reg(a) << (self.cpu.reg(b) & 31)),
                Instr::Shr(rd, a, b) => alu!(rd, self.cpu.reg(a) >> (self.cpu.reg(b) & 31)),
                Instr::Addi(rd, rs1, v) => {
                    alu!(rd, self.cpu.reg(rs1).wrapping_add(v as i32 as u32))
                }
                Instr::Cmp(a, b) => {
                    let (x, y) = (self.cpu.reg(a) as i32, self.cpu.reg(b) as i32);
                    flags = StatusFlags {
                        zero: x == y,
                        negative: x < y,
                    };
                }
                Instr::Jmp(t) => jump!(u32::from(t)),
                Instr::Jz(t) => {
                    if flags.zero {
                        jump!(u32::from(t));
                    }
                }
                Instr::Jnz(t) => {
                    if !flags.zero {
                        jump!(u32::from(t));
                    }
                }
                Instr::Jn(t) => {
                    if flags.negative {
                        jump!(u32::from(t));
                    }
                }
                Instr::Jge(t) => {
                    if !flags.negative {
                        jump!(u32::from(t));
                    }
                }
                Instr::Call(t) => {
                    let sp = self.cpu.sp.wrapping_sub(WORD_BYTES);
                    tri!(self.store_checked(sp, next_pc));
                    self.cpu.sp = sp;
                    jump!(u32::from(t));
                }
                Instr::Ret => {
                    let v = tri!(self.load_checked(self.cpu.sp, Access::Read));
                    self.cpu.sp = self.cpu.sp.wrapping_add(WORD_BYTES);
                    jump!(v);
                }
                Instr::Push(rd) => {
                    let sp = self.cpu.sp.wrapping_sub(WORD_BYTES);
                    tri!(self.store_checked(sp, self.cpu.reg(rd)));
                    self.cpu.sp = sp;
                }
                Instr::Pop(rd) => {
                    let v = tri!(self.load_checked(self.cpu.sp, Access::Read));
                    self.cpu.sp = self.cpu.sp.wrapping_add(WORD_BYTES);
                    self.cpu.set_reg(rd, v);
                }
                Instr::In(rd, port) => {
                    let p = port as usize;
                    if p >= NUM_PORTS {
                        raise!(Exception::PortFault { port });
                    }
                    self.cpu.set_reg(rd, self.inputs[p]);
                }
                Instr::Out(rd, port) => {
                    let p = port as usize;
                    if p >= NUM_PORTS {
                        raise!(Exception::PortFault { port });
                    }
                    self.outputs[p] = Some(self.cpu.reg(rd));
                }
            }
            pc = next_pc;
            if ONE || used >= cycle_budget {
                break 'run RunExit::BudgetExhausted;
            }
        };

        self.cpu.pc = pc;
        self.cpu.cycles = start + used;
        self.cpu.flags = flags;
        self.cpu.path_sig = path_sig;
        RunOutcome {
            exit,
            cycles_used: used,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::isa::Reg;
    use crate::mmu::{Perms, Region};

    fn machine_with(src: &str) -> Machine {
        let image = assemble(src).expect("test program must assemble");
        let mut m = Machine::new(4096, MemoryMap::permissive());
        m.load_program(0, &image.words).unwrap();
        m.reset(0, 4096);
        m
    }

    #[test]
    fn arithmetic_and_halt() {
        let mut m = machine_with(
            "ldi r0, 6
             ldi r1, 7
             mul r2, r0, r1
             out r2, port0
             halt",
        );
        let out = m.run(100);
        assert_eq!(out.exit, RunExit::Halted);
        assert_eq!(m.output(0), Some(42));
        assert!(out.cycles_used > 0);
    }

    #[test]
    fn branching_loop_sums() {
        // sum 1..=5 into r0
        let mut m = machine_with(
            "    ldi r0, 0
                 ldi r1, 5
                 ldi r2, 1
             loop:
                 add r0, r0, r1
                 sub r1, r1, r2
                 jnz loop
                 out r0, port0
                 halt",
        );
        assert_eq!(m.run(1000).exit, RunExit::Halted);
        assert_eq!(m.output(0), Some(15));
    }

    #[test]
    fn call_ret_uses_stack() {
        let mut m = machine_with(
            "    ldi r0, 1
                 call fn
                 out r0, port0
                 halt
             fn:
                 addi r0, r0, 10
                 ret",
        );
        assert_eq!(m.run(100).exit, RunExit::Halted);
        assert_eq!(m.output(0), Some(11));
    }

    #[test]
    fn memory_load_store() {
        let mut m = machine_with(
            "ldi r1, 1024
             ldi r0, 77
             st  r0, [r1+0]
             ld  r2, [r1+0]
             out r2, port1
             halt",
        );
        assert_eq!(m.run(100).exit, RunExit::Halted);
        assert_eq!(m.output(1), Some(77));
    }

    #[test]
    fn divide_by_zero_traps() {
        let mut m = machine_with(
            "ldi r0, 10
             ldi r1, 0
             div r2, r0, r1
             halt",
        );
        match m.run(100).exit {
            RunExit::Exception(Exception::DivideByZero { pc }) => assert_eq!(pc, 8),
            other => panic!("expected divide-by-zero, got {other:?}"),
        }
    }

    #[test]
    fn budget_exhaustion_stops_infinite_loop() {
        let mut m = machine_with("loop: jmp loop");
        let out = m.run(50);
        assert_eq!(out.exit, RunExit::BudgetExhausted);
        assert!(out.cycles_used >= 50);
    }

    #[test]
    fn mmu_violation_on_store_outside_map() {
        let image = assemble(
            "ldi r1, 0
             lui r1, 1
             ldi r0, 5
             st  r0, [r1+0]
             halt",
        )
        .unwrap();
        let map = MemoryMap::from_regions(vec![Region::new(0, 4096, Perms::RX)]);
        let mut m = Machine::new(4096, map);
        m.load_program(0, &image.words).unwrap();
        m.reset(0, 4096);
        match m.run(100).exit {
            RunExit::Exception(Exception::Mmu(v)) => {
                assert_eq!(v.access, Access::Write);
                assert_eq!(v.addr, 0x10000);
            }
            other => panic!("expected MMU violation, got {other:?}"),
        }
    }

    #[test]
    fn bus_error_on_unmapped_memory() {
        let mut m = machine_with(
            "lui r1, 2
             ld  r0, [r1+0]
             halt",
        );
        match m.run(100).exit {
            RunExit::Exception(Exception::Memory(MemError::Bus { addr })) => {
                assert_eq!(addr, 0x20000)
            }
            other => panic!("expected bus error, got {other:?}"),
        }
    }

    #[test]
    fn misaligned_pc_raises_address_error() {
        let mut m = machine_with("halt");
        m.cpu.pc = 2; // as if a fault flipped a PC bit
        match m.run(100).exit {
            RunExit::Exception(Exception::Memory(MemError::Misaligned { addr })) => {
                assert_eq!(addr, 2)
            }
            other => panic!("expected misaligned, got {other:?}"),
        }
    }

    #[test]
    fn illegal_opcode_from_data_fetch() {
        let mut m = machine_with("halt");
        m.mem.store(100, 0xFF00_0000).unwrap();
        m.cpu.pc = 100; // control-flow error into garbage
        match m.run(100).exit {
            RunExit::Exception(Exception::IllegalOpcode { pc, word }) => {
                assert_eq!(pc, 100);
                assert_eq!(word, 0xFF00_0000);
            }
            other => panic!("expected illegal opcode, got {other:?}"),
        }
    }

    #[test]
    fn port_fault_on_bad_port() {
        let mut m = machine_with("in r0, port15\nhalt");
        assert_eq!(m.run(10).exit, RunExit::Halted);
        // port 16 is out of range: patch an IN with port 16
        let mut m2 = Machine::new(4096, MemoryMap::permissive());
        m2.load_program(0, &[Instr::In(Reg::R0, 16).encode()])
            .unwrap();
        m2.reset(0, 4096);
        assert_eq!(
            m2.run(10).exit,
            RunExit::Exception(Exception::PortFault { port: 16 })
        );
    }

    #[test]
    fn outputs_cleared_between_executions() {
        let mut m = machine_with("ldi r0, 9\nout r0, port2\nhalt");
        m.run(100);
        assert_eq!(m.output(2), Some(9));
        m.clear_outputs();
        assert_eq!(m.output(2), None);
        m.reset(0, 4096);
        m.run(100);
        assert_eq!(m.output(2), Some(9), "reset + rerun reproduces output");
    }

    #[test]
    fn deterministic_replay() {
        let src = "
            in  r0, port0
            ldi r1, 3
            mul r2, r0, r1
            addi r2, r2, 17
            out r2, port0
            halt";
        let mut a = machine_with(src);
        let mut b = machine_with(src);
        a.set_input(0, 1234);
        b.set_input(0, 1234);
        let oa = a.run(1000);
        let ob = b.run(1000);
        assert_eq!(oa, ob);
        assert_eq!(a.output(0), b.output(0));
        assert_eq!(a.cpu, b.cpu);
    }

    #[test]
    fn trace_records_recent_instructions() {
        let mut m = machine_with(
            "ldi r0, 1
             ldi r1, 2
             add r2, r0, r1
             out r2, port0
             halt",
        );
        m.enable_trace(8);
        m.run(100);
        let pcs: Vec<u32> = m.trace().map(|e| e.pc).collect();
        assert_eq!(pcs, vec![0, 4, 8, 12, 16]);
        let text: Vec<String> = m.trace().map(|e| e.instr.to_string()).collect();
        assert_eq!(text[2], "add r2, r0, r1");
        assert_eq!(text[4], "halt");
    }

    #[test]
    fn trace_ring_buffer_keeps_only_recent() {
        let mut m = machine_with(
            "    ldi r0, 20
                 ldi r1, 1
             loop:
                 sub r0, r0, r1
                 jnz loop
                 halt",
        );
        m.enable_trace(4);
        m.run(1_000);
        let entries: Vec<_> = m.trace().copied().collect();
        assert_eq!(entries.len(), 4, "capacity bounds the trace");
        // The last entry is the HALT.
        assert_eq!(entries.last().unwrap().instr, Instr::Halt);
        // Cycle counters are strictly increasing.
        for w in entries.windows(2) {
            assert!(w[0].cycles < w[1].cycles);
        }
    }

    #[test]
    fn trace_shows_path_to_exception() {
        let mut m = machine_with(
            "ldi r0, 10
             ldi r1, 0
             div r2, r0, r1
             halt",
        );
        m.enable_trace(16);
        let out = m.run(100);
        assert!(matches!(out.exit, RunExit::Exception(_)));
        // The faulting DIV is the last traced instruction.
        let last = m.trace().last().unwrap();
        assert!(matches!(last.instr, Instr::Div(..)));
    }

    #[test]
    fn disabled_trace_is_empty_and_free() {
        let mut m = machine_with("halt");
        m.run(10);
        assert_eq!(m.trace().count(), 0);
    }

    #[test]
    fn step_after_halt_stays_halted() {
        let mut m = machine_with("halt");
        assert_eq!(m.step().unwrap(), Step::Halted);
        assert_eq!(m.step().unwrap(), Step::Halted);
    }

    #[test]
    fn decode_cache_sees_direct_instruction_store() {
        // A plain data store into the instruction stream leaves the cache
        // untouched; the word tag on the cached entry must catch the
        // rewrite.
        let src = "ldi r0, 1
                   out r0, port0
                   halt";
        let image = assemble(src).unwrap();
        let mut m = Machine::new(4096, MemoryMap::permissive());
        m.load_program(0, &image.words).unwrap();
        m.reset(0, 4096);
        assert_eq!(m.run(100).exit, RunExit::Halted);
        assert_eq!(m.output(0), Some(1));

        // Patch the first instruction behind the cache's back.
        let patched = assemble("ldi r0, 99").unwrap();
        m.mem.store(0, patched.words[0]).unwrap();
        m.reset(0, 4096);
        assert_eq!(m.run(100).exit, RunExit::Halted);
        assert_eq!(m.output(0), Some(99), "stale decode served after patch");
    }

    #[test]
    fn decode_cache_invalidated_by_map_switch() {
        // A successful run fills the cache; switching to a map that revokes
        // Execute on the code region must raise the MMU violation instead
        // of serving cached decodes.
        let mut m = machine_with("ldi r0, 5\nout r0, port0\nhalt");
        assert_eq!(m.run(100).exit, RunExit::Halted);

        m.set_memory_map(MemoryMap::from_regions(vec![Region::new(
            0x0000,
            0x1000,
            Perms::RW,
        )]));
        m.reset(0, 4096);
        let out = m.run(100);
        assert!(
            matches!(out.exit, RunExit::Exception(Exception::Mmu(_))),
            "expected MMU violation after Execute revoked, got {:?}",
            out.exit
        );
    }

    #[test]
    fn decode_cache_reenabled_still_empties_on_map_switch() {
        // Fill a slot far up, re-enable the cache, fill a low slot: a map
        // that revokes Execute must still trap at the low one.
        let mut m = machine_with("halt");
        m.load_program(0x800, &[Instr::Halt.encode()]).unwrap();
        m.reset(0x800, 4096);
        assert_eq!(m.run(10).exit, RunExit::Halted);
        m.set_decode_cache_enabled(false);
        m.set_decode_cache_enabled(true);
        m.reset(0, 4096);
        assert_eq!(m.run(10).exit, RunExit::Halted);
        m.set_memory_map(MemoryMap::from_regions(vec![Region::new(
            0,
            0x1000,
            Perms::RW,
        )]));
        m.reset(0, 4096);
        assert!(matches!(
            m.run(10).exit,
            RunExit::Exception(Exception::Mmu(_))
        ));
    }

    #[test]
    fn decode_cache_counts_a_swapped_memorys_escape_once() {
        // A cached slot whose tag no longer matches the word a swapped-in
        // ECC-off memory holds: the flipped word is loaded once, and its
        // escape counted once, as on the uncached path.
        let image = assemble("ldi r0, 1\nout r0, port0\nhalt").unwrap();
        let run = |cached: bool| {
            let mut m = machine_with("ldi r0, 1\nout r0, port0\nhalt");
            m.set_decode_cache_enabled(cached);
            m.run(100);
            let mut mem = EccMemory::new_without_ecc(4096);
            mem.store_words(0, &image.words).unwrap();
            mem.inject_flip(0, 1 << 3);
            m.mem = mem;
            m.reset(0, 4096);
            (m.run(100), m.output(0), m.mem.ecc_stats())
        };
        assert_eq!(run(true), run(false));
        assert_eq!(run(true).2.escaped, 1);
    }

    #[test]
    fn decode_cache_disabled_matches_enabled() {
        // Sanity pin for the differential property suite: the same program
        // produces identical outputs and cycle counts either way.
        let src = "    ldi r0, 0
                       ldi r1, 10
                       ldi r2, 1
                   loop:
                       add r0, r0, r1
                       sub r1, r1, r2
                       jnz loop
                       out r0, port0
                       halt";
        let run = |cached: bool| {
            let mut m = machine_with(src);
            m.set_decode_cache_enabled(cached);
            let out = m.run(1_000);
            (out, m.output(0), m.cpu.clone())
        };
        assert_eq!(run(true), run(false));
    }
}
