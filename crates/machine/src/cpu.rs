//! CPU register state and saved execution contexts.
//!
//! The register file is the premier transient-fault target: the paper's own
//! fault-injection studies found that PC faults mostly raise illegal-
//! instruction exceptions, SP faults raise address/bus errors, and data
//! register faults silently corrupt computation until TEM's comparison
//! catches them (§2.5). [`CpuState`] therefore exposes each of those
//! resources individually to the fault injector, and [`CpuContext`] is the
//! snapshot a task control block stores so the kernel can restore a clean
//! context before a recovery execution.

use std::fmt;

use crate::isa::{Reg, NUM_REGS};

/// Condition flags of the status register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatusFlags {
    /// Result was zero.
    pub zero: bool,
    /// Result was negative (two's complement).
    pub negative: bool,
}

impl StatusFlags {
    /// Packs the flags into a status-register word (bit 0 = Z, bit 1 = N).
    pub(crate) fn to_word(self) -> u32 {
        u32::from(self.zero) | (u32::from(self.negative) << 1)
    }

    /// Unpacks flags from a status-register word; undefined bits are ignored.
    pub(crate) fn from_word(word: u32) -> Self {
        StatusFlags {
            zero: word & 1 != 0,
            negative: word & 2 != 0,
        }
    }

    /// Recomputes flags from an ALU result.
    pub(crate) fn from_result(value: u32) -> Self {
        StatusFlags {
            zero: value == 0,
            negative: (value as i32) < 0,
        }
    }
}

// A `Reg` is below `NUM_REGS` by construction, so `& (NUM_REGS - 1)`
// changes no index; it lets the compiler see that, and drop the bounds
// check (and panic branch) from every operand access.
const _: () = assert!(NUM_REGS.is_power_of_two());

/// Full architectural register state of the TM32 core.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CpuState {
    regs: [u32; NUM_REGS],
    /// Program counter (byte address of the next instruction).
    pub pc: u32,
    /// Stack pointer (byte address of the last pushed word).
    pub sp: u32,
    /// Status register flags.
    pub flags: StatusFlags,
    /// Cycles consumed since reset.
    pub cycles: u64,
    /// Control-flow path signature: a running hash over every taken
    /// control transfer, updated by the core. Two executions of the same
    /// code with the same inputs produce identical signatures; a
    /// control-flow error that happens to leave the outputs intact still
    /// diverges here (the §2.7 bypass concern).
    pub path_sig: u64,
}

/// The path signature `sig` after a taken control transfer from `from_pc`
/// to `to_pc` — the one step [`CpuState::path_sig`] is folded with.
pub(crate) fn fold_branch(sig: u64, from_pc: u32, to_pc: u32) -> u64 {
    let x = (u64::from(from_pc) << 32) | u64::from(to_pc);
    sig.rotate_left(7).wrapping_mul(0x100_0000_01b3) ^ x
}

impl CpuState {
    /// Creates a reset CPU with the given entry point and initial stack top.
    pub fn new(entry: u32, stack_top: u32) -> Self {
        CpuState {
            regs: [0; NUM_REGS],
            pc: entry,
            sp: stack_top,
            flags: StatusFlags::default(),
            cycles: 0,
            path_sig: 0,
        }
    }

    /// Reads a general-purpose register.
    pub fn reg(&self, r: Reg) -> u32 {
        self.regs[r.index() & (NUM_REGS - 1)]
    }

    /// Writes a general-purpose register.
    pub fn set_reg(&mut self, r: Reg, value: u32) {
        self.regs[r.index() & (NUM_REGS - 1)] = value;
    }

    /// XORs a bit mask into a general-purpose register (fault injection).
    pub(crate) fn flip_reg(&mut self, r: Reg, mask: u32) {
        self.regs[r.index() & (NUM_REGS - 1)] ^= mask;
    }

    /// Captures a restorable snapshot of the architectural state.
    pub fn capture(&self) -> CpuContext {
        CpuContext {
            regs: self.regs,
            pc: self.pc,
            sp: self.sp,
            status: self.flags.to_word(),
            path_sig: self.path_sig,
        }
    }

    /// Restores a previously captured snapshot.
    ///
    /// The cycle counter is *not* restored — recovery costs real time. The
    /// path signature *is* part of the context: a preempted task's
    /// control-flow history must survive other tasks running in between.
    pub fn restore(&mut self, ctx: &CpuContext) {
        self.regs = ctx.regs;
        self.pc = ctx.pc;
        self.sp = ctx.sp;
        self.flags = StatusFlags::from_word(ctx.status);
        self.path_sig = ctx.path_sig;
    }
}

/// A saved CPU context, as stored in a task control block.
///
/// Restoring the *complete* context (not just the PC) before a recovery
/// execution matters because hardware-detected errors frequently originate
/// from corrupted PC/SP registers (§2.5); re-running with a half-dirty
/// context would just fail again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuContext {
    /// Saved general-purpose registers.
    pub regs: [u32; NUM_REGS],
    /// Saved program counter.
    pub pc: u32,
    /// Saved stack pointer.
    pub sp: u32,
    /// Saved status-register word.
    pub status: u32,
    /// Saved control-flow path signature.
    pub path_sig: u64,
}

impl fmt::Display for CpuContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ctx{{pc={:#06x}, sp={:#06x}}}", self.pc, self.sp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_pack_round_trip() {
        for (z, n) in [(false, false), (true, false), (false, true), (true, true)] {
            let f = StatusFlags {
                zero: z,
                negative: n,
            };
            assert_eq!(StatusFlags::from_word(f.to_word()), f);
        }
    }

    #[test]
    fn flags_from_result() {
        assert!(StatusFlags::from_result(0).zero);
        assert!(!StatusFlags::from_result(1).zero);
        assert!(StatusFlags::from_result(u32::MAX).negative);
        assert!(!StatusFlags::from_result(5).negative);
    }

    #[test]
    fn capture_restore_round_trip() {
        let mut cpu = CpuState::new(0x100, 0x2000);
        cpu.set_reg(Reg::R3, 42);
        cpu.flags = StatusFlags {
            zero: true,
            negative: false,
        };
        cpu.cycles = 17;
        let ctx = cpu.capture();

        cpu.set_reg(Reg::R3, 99);
        cpu.pc = 0xDEAD;
        cpu.sp = 0xBEEC;
        cpu.flags = StatusFlags {
            zero: false,
            negative: true,
        };
        cpu.cycles = 50;

        cpu.restore(&ctx);
        assert_eq!(cpu.reg(Reg::R3), 42);
        assert_eq!(cpu.pc, 0x100);
        assert_eq!(cpu.sp, 0x2000);
        assert!(cpu.flags.zero);
        assert_eq!(cpu.cycles, 50, "cycles are never rolled back");
    }

    #[test]
    fn path_signature_travels_with_the_context() {
        let mut cpu = CpuState::new(0, 0x100);
        cpu.path_sig = fold_branch(cpu.path_sig, 0x10, 0x40);
        let ctx = cpu.capture();
        let sig = cpu.path_sig;
        assert_ne!(sig, 0);
        // Another task's branches pollute the live signature…
        cpu.path_sig = fold_branch(cpu.path_sig, 0x50, 0x80);
        assert_ne!(cpu.path_sig, sig);
        // …but restoring the context brings the task's own history back.
        cpu.restore(&ctx);
        assert_eq!(cpu.path_sig, sig);
    }

    #[test]
    fn flip_reg_is_xor() {
        let mut cpu = CpuState::new(0, 0);
        cpu.set_reg(Reg::R1, 0b1010);
        cpu.flip_reg(Reg::R1, 0b0110);
        assert_eq!(cpu.reg(Reg::R1), 0b1100);
        cpu.flip_reg(Reg::R1, 0b0110);
        assert_eq!(cpu.reg(Reg::R1), 0b1010);
    }
}
