//! The TM32 instruction-set architecture.
//!
//! TM32 is a deliberately small 32-bit load/store ISA that stands in for the
//! COTS microcontrollers of the paper (Motorola 68340, Thor). It is *not*
//! meant to be fast or featureful — it is meant to expose exactly the
//! architectural fault targets the paper's error-detection arguments rely
//! on: a program counter, a stack pointer, a status register, data
//! registers, an opcode stream and a data memory. Bit flips in each of
//! those surface through distinct hardware detection mechanisms (illegal
//! opcode, address/bus error, ECC, MMU), mirroring the fault-injection
//! observations cited in §2.5 of the paper.
//!
//! ## Encoding
//!
//! Fixed 32-bit words: `[31:24] opcode | [23:20] rd | [19:16] rs1 | [15:0] imm16`.
//! Register-register ALU ops read their second operand from the low four
//! bits of `imm16`. Branch/CALL targets are absolute byte addresses.

use std::fmt;

/// Number of general-purpose registers (`R0`–`R7`).
pub(crate) const NUM_REGS: usize = 8;

/// A general-purpose register index, guaranteed in `0..NUM_REGS`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(u8);

impl Reg {
    /// Register `R0`, conventionally the accumulator.
    pub const R0: Reg = Reg(0);
    /// Register `R1`.
    pub const R1: Reg = Reg(1);
    /// Register `R2`.
    pub const R2: Reg = Reg(2);
    /// Register `R3`.
    pub const R3: Reg = Reg(3);
    /// Register `R4`.
    pub const R4: Reg = Reg(4);
    /// Register `R5`.
    pub const R5: Reg = Reg(5);
    /// Register `R6`.
    pub const R6: Reg = Reg(6);
    /// Register `R7`, conventionally a scratch/link register.
    pub const R7: Reg = Reg(7);

    /// Creates a register index.
    ///
    /// Returns `None` when `i >= NUM_REGS`.
    pub const fn new(i: u8) -> Option<Reg> {
        if (i as usize) < NUM_REGS {
            Some(Reg(i))
        } else {
            None
        }
    }

    /// The raw index in `0..NUM_REGS`.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A decoded TM32 instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instr {
    /// No operation.
    Nop,
    /// Stop execution; the kernel interprets this as task completion.
    Halt,
    /// `rd = sign_extend(imm16)`.
    Ldi(Reg, i16),
    /// `rd = imm16 << 16` (build full 32-bit constants with `Ldi`+`Lui`).
    Lui(Reg, u16),
    /// `rd = mem32[rs1 + simm16]`.
    Ld(Reg, Reg, i16),
    /// `mem32[rs1 + simm16] = rd`.
    St(Reg, Reg, i16),
    /// `rd = rs1`.
    Mov(Reg, Reg),
    /// `rd = rs1 + rs2` (wrapping; sets Z/N).
    Add(Reg, Reg, Reg),
    /// `rd = rs1 - rs2` (wrapping; sets Z/N).
    Sub(Reg, Reg, Reg),
    /// `rd = rs1 * rs2` (wrapping; sets Z/N). Costs extra cycles.
    Mul(Reg, Reg, Reg),
    /// `rd = rs1 / rs2` signed; division by zero raises a hardware exception.
    Div(Reg, Reg, Reg),
    /// `rd = rs1 & rs2`.
    And(Reg, Reg, Reg),
    /// `rd = rs1 | rs2`.
    Or(Reg, Reg, Reg),
    /// `rd = rs1 ^ rs2`.
    Xor(Reg, Reg, Reg),
    /// `rd = rs1 << (rs2 & 31)`.
    Shl(Reg, Reg, Reg),
    /// `rd = rs1 >> (rs2 & 31)` (logical).
    Shr(Reg, Reg, Reg),
    /// `rd = rs1 + simm16` (wrapping; sets Z/N).
    Addi(Reg, Reg, i16),
    /// Compare `rd` with `rs1`: sets Z if equal, N if `rd < rs1` (signed).
    Cmp(Reg, Reg),
    /// Unconditional jump to absolute byte address.
    Jmp(u16),
    /// Jump if Z flag set.
    Jz(u16),
    /// Jump if Z flag clear.
    Jnz(u16),
    /// Jump if N flag set.
    Jn(u16),
    /// Jump if N flag clear (greater-or-equal after `Cmp`).
    Jge(u16),
    /// Push return address, jump to absolute byte address.
    Call(u16),
    /// Pop return address into PC.
    Ret,
    /// Push `rd` onto the stack (pre-decrement SP by 4).
    Push(Reg),
    /// Pop into `rd` (post-increment SP by 4).
    Pop(Reg),
    /// `rd = input_port[imm16]`; reads the task's input vector.
    In(Reg, u16),
    /// `output_port[imm16] = rd`; writes the task's result vector.
    Out(Reg, u16),
}

/// Error produced when decoding a word that is not a valid instruction.
///
/// This models the *illegal op-code detection* hardware EDM from Table 1 of
/// the paper: a fault that lands in the opcode stream (or diverts the PC
/// into data) usually produces one of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError {
    /// The undecodable word.
    pub word: u32,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "illegal opcode in word {:#010x}", self.word)
    }
}

impl std::error::Error for DecodeError {}

mod op {
    pub const NOP: u8 = 0x00;
    pub const HALT: u8 = 0x01;
    pub const LDI: u8 = 0x10;
    pub const LUI: u8 = 0x11;
    pub const LD: u8 = 0x12;
    pub const ST: u8 = 0x13;
    pub const MOV: u8 = 0x14;
    pub const ADD: u8 = 0x20;
    pub const SUB: u8 = 0x21;
    pub const MUL: u8 = 0x22;
    pub const DIV: u8 = 0x23;
    pub const AND: u8 = 0x24;
    pub const OR: u8 = 0x25;
    pub const XOR: u8 = 0x26;
    pub const SHL: u8 = 0x27;
    pub const SHR: u8 = 0x28;
    pub const ADDI: u8 = 0x29;
    pub const CMP: u8 = 0x2A;
    pub const JMP: u8 = 0x30;
    pub const JZ: u8 = 0x31;
    pub const JNZ: u8 = 0x32;
    pub const JN: u8 = 0x33;
    pub const JGE: u8 = 0x34;
    pub const CALL: u8 = 0x35;
    pub const RET: u8 = 0x36;
    pub const PUSH: u8 = 0x37;
    pub const POP: u8 = 0x38;
    pub const IN: u8 = 0x40;
    pub const OUT: u8 = 0x41;
}

fn field_rd(w: u32) -> Option<Reg> {
    Reg::new(((w >> 20) & 0xF) as u8)
}

fn field_rs1(w: u32) -> Option<Reg> {
    Reg::new(((w >> 16) & 0xF) as u8)
}

fn field_rs2(w: u32) -> Option<Reg> {
    Reg::new((w & 0xF) as u8)
}

fn field_imm(w: u32) -> u16 {
    (w & 0xFFFF) as u16
}

impl Instr {
    /// Encodes the instruction into its 32-bit word.
    pub fn encode(self) -> u32 {
        fn rrr(opc: u8, rd: Reg, rs1: Reg, rs2: Reg) -> u32 {
            (u32::from(opc) << 24)
                | ((rd.index() as u32) << 20)
                | ((rs1.index() as u32) << 16)
                | rs2.index() as u32
        }
        fn ri(opc: u8, rd: Reg, imm: u16) -> u32 {
            (u32::from(opc) << 24) | ((rd.index() as u32) << 20) | u32::from(imm)
        }
        fn rri(opc: u8, rd: Reg, rs1: Reg, imm: u16) -> u32 {
            ri(opc, rd, imm) | ((rs1.index() as u32) << 16)
        }
        fn i(opc: u8, imm: u16) -> u32 {
            (u32::from(opc) << 24) | u32::from(imm)
        }
        match self {
            Instr::Nop => i(op::NOP, 0),
            Instr::Halt => i(op::HALT, 0),
            Instr::Ldi(rd, v) => ri(op::LDI, rd, v as u16),
            Instr::Lui(rd, v) => ri(op::LUI, rd, v),
            Instr::Ld(rd, rs1, off) => rri(op::LD, rd, rs1, off as u16),
            Instr::St(rd, rs1, off) => rri(op::ST, rd, rs1, off as u16),
            Instr::Mov(rd, rs1) => rri(op::MOV, rd, rs1, 0),
            Instr::Add(rd, a, b) => rrr(op::ADD, rd, a, b),
            Instr::Sub(rd, a, b) => rrr(op::SUB, rd, a, b),
            Instr::Mul(rd, a, b) => rrr(op::MUL, rd, a, b),
            Instr::Div(rd, a, b) => rrr(op::DIV, rd, a, b),
            Instr::And(rd, a, b) => rrr(op::AND, rd, a, b),
            Instr::Or(rd, a, b) => rrr(op::OR, rd, a, b),
            Instr::Xor(rd, a, b) => rrr(op::XOR, rd, a, b),
            Instr::Shl(rd, a, b) => rrr(op::SHL, rd, a, b),
            Instr::Shr(rd, a, b) => rrr(op::SHR, rd, a, b),
            Instr::Addi(rd, rs1, v) => rri(op::ADDI, rd, rs1, v as u16),
            Instr::Cmp(a, b) => rri(op::CMP, a, b, 0),
            Instr::Jmp(t) => i(op::JMP, t),
            Instr::Jz(t) => i(op::JZ, t),
            Instr::Jnz(t) => i(op::JNZ, t),
            Instr::Jn(t) => i(op::JN, t),
            Instr::Jge(t) => i(op::JGE, t),
            Instr::Call(t) => i(op::CALL, t),
            Instr::Ret => i(op::RET, 0),
            Instr::Push(rd) => ri(op::PUSH, rd, 0),
            Instr::Pop(rd) => ri(op::POP, rd, 0),
            Instr::In(rd, p) => ri(op::IN, rd, p),
            Instr::Out(rd, p) => ri(op::OUT, rd, p),
        }
    }

    /// Decodes a 32-bit word.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] when the opcode byte is undefined or a
    /// register field is out of range — this is the hardware's illegal
    /// op-code detector firing.
    pub fn decode(word: u32) -> Result<Instr, DecodeError> {
        let opc = (word >> 24) as u8;
        let err = DecodeError { word };
        let rd = || field_rd(word).ok_or(err);
        let rs1 = || field_rs1(word).ok_or(err);
        let rs2 = || field_rs2(word).ok_or(err);
        let imm = field_imm(word);
        Ok(match opc {
            op::NOP => Instr::Nop,
            op::HALT => Instr::Halt,
            op::LDI => Instr::Ldi(rd()?, imm as i16),
            op::LUI => Instr::Lui(rd()?, imm),
            op::LD => Instr::Ld(rd()?, rs1()?, imm as i16),
            op::ST => Instr::St(rd()?, rs1()?, imm as i16),
            op::MOV => Instr::Mov(rd()?, rs1()?),
            op::ADD => Instr::Add(rd()?, rs1()?, rs2()?),
            op::SUB => Instr::Sub(rd()?, rs1()?, rs2()?),
            op::MUL => Instr::Mul(rd()?, rs1()?, rs2()?),
            op::DIV => Instr::Div(rd()?, rs1()?, rs2()?),
            op::AND => Instr::And(rd()?, rs1()?, rs2()?),
            op::OR => Instr::Or(rd()?, rs1()?, rs2()?),
            op::XOR => Instr::Xor(rd()?, rs1()?, rs2()?),
            op::SHL => Instr::Shl(rd()?, rs1()?, rs2()?),
            op::SHR => Instr::Shr(rd()?, rs1()?, rs2()?),
            op::ADDI => Instr::Addi(rd()?, rs1()?, imm as i16),
            op::CMP => Instr::Cmp(rd()?, rs1()?),
            op::JMP => Instr::Jmp(imm),
            op::JZ => Instr::Jz(imm),
            op::JNZ => Instr::Jnz(imm),
            op::JN => Instr::Jn(imm),
            op::JGE => Instr::Jge(imm),
            op::CALL => Instr::Call(imm),
            op::RET => Instr::Ret,
            op::PUSH => Instr::Push(rd()?),
            op::POP => Instr::Pop(rd()?),
            op::IN => Instr::In(rd()?, imm),
            op::OUT => Instr::Out(rd()?, imm),
            _ => return Err(err),
        })
    }

    /// Nominal cycle cost of the instruction (MUL/DIV are multi-cycle, as on
    /// the microcontrollers the paper targets).
    pub fn cycles(self) -> u64 {
        match self {
            Instr::Mul(..) => 4,
            Instr::Div(..) => 8,
            Instr::Ld(..) | Instr::St(..) | Instr::Push(_) | Instr::Pop(_) => 2,
            Instr::Call(_) | Instr::Ret => 3,
            _ => 1,
        }
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Instr::Nop => write!(f, "nop"),
            Instr::Halt => write!(f, "halt"),
            Instr::Ldi(rd, v) => write!(f, "ldi {rd}, {v}"),
            Instr::Lui(rd, v) => write!(f, "lui {rd}, {v}"),
            Instr::Ld(rd, rs, o) => write!(f, "ld {rd}, [{rs}{o:+}]"),
            Instr::St(rd, rs, o) => write!(f, "st {rd}, [{rs}{o:+}]"),
            Instr::Mov(rd, rs) => write!(f, "mov {rd}, {rs}"),
            Instr::Add(rd, a, b) => write!(f, "add {rd}, {a}, {b}"),
            Instr::Sub(rd, a, b) => write!(f, "sub {rd}, {a}, {b}"),
            Instr::Mul(rd, a, b) => write!(f, "mul {rd}, {a}, {b}"),
            Instr::Div(rd, a, b) => write!(f, "div {rd}, {a}, {b}"),
            Instr::And(rd, a, b) => write!(f, "and {rd}, {a}, {b}"),
            Instr::Or(rd, a, b) => write!(f, "or {rd}, {a}, {b}"),
            Instr::Xor(rd, a, b) => write!(f, "xor {rd}, {a}, {b}"),
            Instr::Shl(rd, a, b) => write!(f, "shl {rd}, {a}, {b}"),
            Instr::Shr(rd, a, b) => write!(f, "shr {rd}, {a}, {b}"),
            Instr::Addi(rd, rs, v) => write!(f, "addi {rd}, {rs}, {v}"),
            Instr::Cmp(a, b) => write!(f, "cmp {a}, {b}"),
            Instr::Jmp(t) => write!(f, "jmp {t:#x}"),
            Instr::Jz(t) => write!(f, "jz {t:#x}"),
            Instr::Jnz(t) => write!(f, "jnz {t:#x}"),
            Instr::Jn(t) => write!(f, "jn {t:#x}"),
            Instr::Jge(t) => write!(f, "jge {t:#x}"),
            Instr::Call(t) => write!(f, "call {t:#x}"),
            Instr::Ret => write!(f, "ret"),
            Instr::Push(rd) => write!(f, "push {rd}"),
            Instr::Pop(rd) => write!(f, "pop {rd}"),
            Instr::In(rd, p) => write!(f, "in {rd}, port{p}"),
            Instr::Out(rd, p) => write!(f, "out {rd}, port{p}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_sample_instrs() -> Vec<Instr> {
        use Instr::*;
        vec![
            Nop,
            Halt,
            Ldi(Reg::R1, -42),
            Lui(Reg::R2, 0xBEEF),
            Ld(Reg::R3, Reg::R4, -8),
            St(Reg::R5, Reg::R6, 12),
            Mov(Reg::R0, Reg::R7),
            Add(Reg::R0, Reg::R1, Reg::R2),
            Sub(Reg::R3, Reg::R4, Reg::R5),
            Mul(Reg::R6, Reg::R7, Reg::R0),
            Div(Reg::R1, Reg::R2, Reg::R3),
            And(Reg::R4, Reg::R5, Reg::R6),
            Or(Reg::R7, Reg::R0, Reg::R1),
            Xor(Reg::R2, Reg::R3, Reg::R4),
            Shl(Reg::R5, Reg::R6, Reg::R7),
            Shr(Reg::R0, Reg::R1, Reg::R2),
            Addi(Reg::R3, Reg::R4, 1000),
            Cmp(Reg::R5, Reg::R6),
            Jmp(0x100),
            Jz(0x104),
            Jnz(0x108),
            Jn(0x10C),
            Jge(0x110),
            Call(0x200),
            Ret,
            Push(Reg::R7),
            Pop(Reg::R0),
            In(Reg::R1, 3),
            Out(Reg::R2, 5),
        ]
    }

    #[test]
    fn encode_decode_round_trips() {
        for instr in all_sample_instrs() {
            let word = instr.encode();
            let back = Instr::decode(word).unwrap();
            assert_eq!(instr, back, "round trip failed for {instr}");
        }
    }

    #[test]
    fn undefined_opcodes_are_illegal() {
        for opc in [0x02u8, 0x0F, 0x1A, 0x2B, 0x39, 0x42, 0x7F, 0xFF] {
            let word = u32::from(opc) << 24;
            assert!(
                Instr::decode(word).is_err(),
                "opcode {opc:#x} should be illegal"
            );
        }
    }

    #[test]
    fn out_of_range_register_fields_are_illegal() {
        // ADD with rd = 12 (only 8 registers exist).
        let word = (u32::from(0x20u8) << 24) | (12 << 20);
        assert!(Instr::decode(word).is_err());
    }

    #[test]
    fn negative_immediates_survive_round_trip() {
        let i = Instr::Addi(Reg::R1, Reg::R2, -32768);
        assert_eq!(Instr::decode(i.encode()).unwrap(), i);
        let i = Instr::Ldi(Reg::R0, i16::MIN);
        assert_eq!(Instr::decode(i.encode()).unwrap(), i);
    }

    #[test]
    fn reg_constructor_validates() {
        assert!(Reg::new(7).is_some());
        assert!(Reg::new(8).is_none());
        assert_eq!(Reg::new(3).unwrap(), Reg::R3);
    }

    #[test]
    fn cycle_costs_reflect_complexity() {
        assert!(Instr::Mul(Reg::R0, Reg::R0, Reg::R0).cycles() > Instr::Nop.cycles());
        assert!(
            Instr::Div(Reg::R0, Reg::R0, Reg::R0).cycles()
                > Instr::Mul(Reg::R0, Reg::R0, Reg::R0).cycles()
        );
    }

    #[test]
    fn display_is_nonempty_for_all() {
        for instr in all_sample_instrs() {
            assert!(!instr.to_string().is_empty());
        }
    }

    #[test]
    fn random_words_never_panic_on_decode() {
        // Fault injection feeds arbitrary words to the decoder; it must fail
        // cleanly, never panic.
        let mut x = 0x12345678u32;
        for _ in 0..10_000 {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            let _ = Instr::decode(x);
        }
    }
}
