//! A small two-pass assembler for TM32.
//!
//! The fault-injection workloads (brake controllers, checksum loops, …) are
//! written as real assembly programs so that injected faults propagate the
//! way they would on the paper's hardware — through genuine loads, stores,
//! branches and stack traffic — instead of through a high-level behavioural
//! model.
//!
//! ## Syntax
//!
//! * one instruction per line; `;` or `#` starts a comment;
//! * labels are `name:`, on their own line or before an instruction;
//! * registers are `r0`–`r7`; immediates are decimal or `0x…` hex;
//! * memory operands are `[rN+off]` / `[rN-off]`;
//! * ports are `portN`;
//! * `.word v` emits a raw data word; `.zero n` emits `n` zero words.
//!
//! # Examples
//!
//! ```
//! use nlft_machine::asm::assemble;
//!
//! let image = assemble("
//!     start:
//!         ldi r0, 10     ; counter
//!     loop:
//!         addi r0, r0, -1
//!         jnz loop
//!         halt
//! ")?;
//! assert_eq!(image.words.len(), 4);
//! assert_eq!(image.labels["loop"], 4);
//! # Ok::<(), nlft_machine::asm::AsmError>(())
//! ```

use std::collections::BTreeMap;
use std::fmt;

use crate::isa::{Instr, Reg};
use crate::mem::WORD_BYTES;

/// An assembled program image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Image {
    /// Encoded instruction/data words, loaded contiguously from [`Image::base`].
    pub words: Vec<u32>,
    /// Label name → byte address (already relocated).
    pub labels: BTreeMap<String, u32>,
    /// Load address of the first word.
    pub base: u32,
}

impl Image {
    /// Size of the image in bytes.
    pub fn size_bytes(&self) -> u32 {
        self.words.len() as u32 * WORD_BYTES
    }

    /// Looks up a label's byte address.
    pub fn label(&self, name: &str) -> Option<u32> {
        self.labels.get(name).copied()
    }
}

/// An assembly error with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based line number in the source text.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for AsmError {}

fn err(line: usize, message: impl Into<String>) -> AsmError {
    AsmError {
        line,
        message: message.into(),
    }
}

/// One parsed statement awaiting label resolution.
#[derive(Debug, Clone)]
enum Stmt {
    Instr {
        line: usize,
        mnemonic: String,
        operands: Vec<String>,
    },
    Word(u32),
}

fn parse_reg(s: &str, line: usize) -> Result<Reg, AsmError> {
    let rest = s
        .strip_prefix('r')
        .ok_or_else(|| err(line, format!("expected register, got `{s}`")))?;
    let idx: u8 = rest
        .parse()
        .map_err(|_| err(line, format!("bad register `{s}`")))?;
    Reg::new(idx).ok_or_else(|| err(line, format!("register out of range `{s}`")))
}

fn parse_int(s: &str, line: usize) -> Result<i64, AsmError> {
    let (neg, body) = match s.strip_prefix('-') {
        Some(b) => (true, b),
        None => (false, s),
    };
    let value = if let Some(hex) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
        i64::from_str_radix(hex, 16)
    } else {
        body.parse()
    }
    .map_err(|_| err(line, format!("bad integer `{s}`")))?;
    Ok(if neg { -value } else { value })
}

fn parse_i16(s: &str, line: usize) -> Result<i16, AsmError> {
    let v = parse_int(s, line)?;
    i16::try_from(v).map_err(|_| err(line, format!("immediate `{s}` out of i16 range")))
}

fn parse_u16_any(s: &str, line: usize) -> Result<u16, AsmError> {
    let v = parse_int(s, line)?;
    if (0..=0xFFFF).contains(&v) {
        Ok(v as u16)
    } else if (-0x8000..0).contains(&v) {
        Ok(v as i16 as u16)
    } else {
        Err(err(line, format!("immediate `{s}` out of 16-bit range")))
    }
}

fn parse_port(s: &str, line: usize) -> Result<u16, AsmError> {
    let rest = s
        .strip_prefix("port")
        .ok_or_else(|| err(line, format!("expected portN, got `{s}`")))?;
    rest.parse()
        .map_err(|_| err(line, format!("bad port `{s}`")))
}

/// Parses `[rN+off]` / `[rN-off]` / `[rN]`.
fn parse_mem(s: &str, line: usize) -> Result<(Reg, i16), AsmError> {
    let inner = s
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or_else(|| err(line, format!("expected [reg+off], got `{s}`")))?;
    if let Some(pos) = inner.find(['+', '-']) {
        let (r, off) = inner.split_at(pos);
        Ok((parse_reg(r.trim(), line)?, parse_i16(off.trim(), line)?))
    } else {
        Ok((parse_reg(inner.trim(), line)?, 0))
    }
}

/// Resolves a branch target: a label or a numeric address.
fn resolve_target(s: &str, labels: &BTreeMap<String, u32>, line: usize) -> Result<u16, AsmError> {
    if let Some(&addr) = labels.get(s) {
        return u16::try_from(addr)
            .map_err(|_| err(line, format!("label `{s}` beyond 16-bit address space")));
    }
    if s.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        return parse_u16_any(s, line);
    }
    Err(err(line, format!("unknown label `{s}`")))
}

/// Assembles TM32 source into an image based at address 0.
///
/// # Errors
///
/// Returns the first [`AsmError`] encountered: unknown mnemonics, malformed
/// operands, out-of-range immediates, duplicate or unknown labels.
pub fn assemble(source: &str) -> Result<Image, AsmError> {
    assemble_at(source, 0)
}

/// Assembles TM32 source relocated to `base`: labels (and therefore all
/// branch/call targets and label immediates) resolve to `base + offset`,
/// so several programs can be co-resident in one memory under MMU
/// confinement — the layout a preemptive multi-task kernel needs.
///
/// # Errors
///
/// As [`assemble`]; additionally rejects a base that pushes any label past
/// the 16-bit immediate range or that is not word-aligned.
pub fn assemble_at(source: &str, base: u32) -> Result<Image, AsmError> {
    if !base.is_multiple_of(WORD_BYTES) {
        return Err(err(0, format!("base {base:#x} is not word-aligned")));
    }
    let mut labels: BTreeMap<String, u32> = BTreeMap::new();
    let mut stmts: Vec<Stmt> = Vec::new();

    // Pass 1: strip comments, collect labels and raw statements.
    for (idx, raw) in source.lines().enumerate() {
        let line_no = idx + 1;
        let mut text = raw;
        if let Some(p) = text.find([';', '#']) {
            text = &text[..p];
        }
        let mut text = text.trim();
        // Possibly several labels on one line: `a: b: instr`.
        while let Some(colon) = text.find(':') {
            let (label, rest) = text.split_at(colon);
            let label = label.trim();
            if label.is_empty()
                || !label.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
                || label.chars().next().is_some_and(|c| c.is_ascii_digit())
            {
                return Err(err(line_no, format!("bad label `{label}`")));
            }
            let addr = base + stmts.len() as u32 * WORD_BYTES;
            if labels.insert(label.to_string(), addr).is_some() {
                return Err(err(line_no, format!("duplicate label `{label}`")));
            }
            text = rest[1..].trim();
        }
        if text.is_empty() {
            continue;
        }
        let (mnemonic, rest) = match text.find(char::is_whitespace) {
            Some(p) => (&text[..p], text[p..].trim()),
            None => (text, ""),
        };
        let mnemonic = mnemonic.to_ascii_lowercase();
        let operands: Vec<String> = if rest.is_empty() {
            Vec::new()
        } else {
            rest.split(',').map(|s| s.trim().to_string()).collect()
        };
        match mnemonic.as_str() {
            ".word" => {
                if operands.len() != 1 {
                    return Err(err(line_no, ".word takes one operand"));
                }
                let v = parse_int(&operands[0], line_no)?;
                let w = if v < 0 { v as i32 as u32 } else { v as u32 };
                stmts.push(Stmt::Word(w));
            }
            ".zero" => {
                if operands.len() != 1 {
                    return Err(err(line_no, ".zero takes one operand"));
                }
                let n = parse_int(&operands[0], line_no)?;
                if !(0..=65_536).contains(&n) {
                    return Err(err(line_no, ".zero count out of range"));
                }
                for _ in 0..n {
                    stmts.push(Stmt::Word(0));
                }
            }
            _ => stmts.push(Stmt::Instr {
                line: line_no,
                mnemonic,
                operands,
            }),
        }
    }

    // Pass 2: encode with resolved labels.
    let mut words = Vec::with_capacity(stmts.len());
    for stmt in &stmts {
        match stmt {
            Stmt::Word(w) => words.push(*w),
            Stmt::Instr {
                line,
                mnemonic,
                operands,
            } => {
                let line = *line;
                let ops = operands;
                let need = |n: usize| -> Result<(), AsmError> {
                    if ops.len() == n {
                        Ok(())
                    } else {
                        Err(err(
                            line,
                            format!("{mnemonic} expects {n} operand(s), got {}", ops.len()),
                        ))
                    }
                };
                let rrr = |f: fn(Reg, Reg, Reg) -> Instr| -> Result<Instr, AsmError> {
                    need(3)?;
                    Ok(f(
                        parse_reg(&ops[0], line)?,
                        parse_reg(&ops[1], line)?,
                        parse_reg(&ops[2], line)?,
                    ))
                };
                let jump = |f: fn(u16) -> Instr| -> Result<Instr, AsmError> {
                    need(1)?;
                    Ok(f(resolve_target(&ops[0], &labels, line)?))
                };
                let instr = match mnemonic.as_str() {
                    "nop" => {
                        need(0)?;
                        Instr::Nop
                    }
                    "halt" => {
                        need(0)?;
                        Instr::Halt
                    }
                    "ldi" => {
                        need(2)?;
                        // The immediate may be a label: loading a data-table
                        // address into a register is the common idiom.
                        let imm = if let Some(&addr) = labels.get(ops[1].as_str()) {
                            u16::try_from(addr).map_err(|_| {
                                err(line, format!("label `{}` beyond 16-bit range", ops[1]))
                            })?
                        } else {
                            parse_u16_any(&ops[1], line)?
                        };
                        Instr::Ldi(parse_reg(&ops[0], line)?, imm as i16)
                    }
                    "lui" => {
                        need(2)?;
                        Instr::Lui(parse_reg(&ops[0], line)?, parse_u16_any(&ops[1], line)?)
                    }
                    "ld" => {
                        need(2)?;
                        let (rs1, off) = parse_mem(&ops[1], line)?;
                        Instr::Ld(parse_reg(&ops[0], line)?, rs1, off)
                    }
                    "st" => {
                        need(2)?;
                        let (rs1, off) = parse_mem(&ops[1], line)?;
                        Instr::St(parse_reg(&ops[0], line)?, rs1, off)
                    }
                    "mov" => {
                        need(2)?;
                        Instr::Mov(parse_reg(&ops[0], line)?, parse_reg(&ops[1], line)?)
                    }
                    "add" => rrr(Instr::Add)?,
                    "sub" => rrr(Instr::Sub)?,
                    "mul" => rrr(Instr::Mul)?,
                    "div" => rrr(Instr::Div)?,
                    "and" => rrr(Instr::And)?,
                    "or" => rrr(Instr::Or)?,
                    "xor" => rrr(Instr::Xor)?,
                    "shl" => rrr(Instr::Shl)?,
                    "shr" => rrr(Instr::Shr)?,
                    "addi" => {
                        need(3)?;
                        Instr::Addi(
                            parse_reg(&ops[0], line)?,
                            parse_reg(&ops[1], line)?,
                            parse_i16(&ops[2], line)?,
                        )
                    }
                    "cmp" => {
                        need(2)?;
                        Instr::Cmp(parse_reg(&ops[0], line)?, parse_reg(&ops[1], line)?)
                    }
                    "jmp" => jump(Instr::Jmp)?,
                    "jz" => jump(Instr::Jz)?,
                    "jnz" => jump(Instr::Jnz)?,
                    "jn" => jump(Instr::Jn)?,
                    "jge" => jump(Instr::Jge)?,
                    "call" => jump(Instr::Call)?,
                    "ret" => {
                        need(0)?;
                        Instr::Ret
                    }
                    "push" => {
                        need(1)?;
                        Instr::Push(parse_reg(&ops[0], line)?)
                    }
                    "pop" => {
                        need(1)?;
                        Instr::Pop(parse_reg(&ops[0], line)?)
                    }
                    "in" => {
                        need(2)?;
                        Instr::In(parse_reg(&ops[0], line)?, parse_port(&ops[1], line)?)
                    }
                    "out" => {
                        need(2)?;
                        Instr::Out(parse_reg(&ops[0], line)?, parse_port(&ops[1], line)?)
                    }
                    other => return Err(err(line, format!("unknown mnemonic `{other}`"))),
                };
                words.push(instr.encode());
            }
        }
    }

    Ok(Image {
        words,
        labels,
        base,
    })
}

/// Disassembles an image for traces and debugging; undecodable words render
/// as `.word`.
pub fn disassemble(words: &[u32]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for (i, &w) in words.iter().enumerate() {
        let addr = i as u32 * WORD_BYTES;
        match Instr::decode(w) {
            Ok(instr) => {
                let _ = writeln!(out, "{addr:#06x}: {instr}");
            }
            Err(_) => {
                let _ = writeln!(out, "{addr:#06x}: .word {w:#010x}");
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assembles_all_mnemonics() {
        let src = "
            start:
                nop
                ldi r0, -5
                lui r1, 0xFFFF
                ld  r2, [r1+8]
                st  r2, [r1-8]
                mov r3, r2
                add r4, r3, r2
                sub r4, r3, r2
                mul r4, r3, r2
                div r4, r3, r2
                and r4, r3, r2
                or  r4, r3, r2
                xor r4, r3, r2
                shl r4, r3, r2
                shr r4, r3, r2
                addi r5, r4, 100
                cmp r5, r4
                jmp start
                jz  start
                jnz start
                jn  start
                jge start
                call start
                ret
                push r6
                pop  r7
                in  r0, port0
                out r0, port15
                halt";
        let image = assemble(src).unwrap();
        assert_eq!(image.words.len(), 29);
        // Everything decodes back.
        for &w in &image.words {
            Instr::decode(w).unwrap();
        }
    }

    #[test]
    fn labels_resolve_forward_and_backward() {
        let src = "
            a:  jmp b
                nop
            b:  jmp a
                halt";
        let image = assemble(src).unwrap();
        assert_eq!(image.label("a"), Some(0));
        assert_eq!(image.label("b"), Some(8));
        assert_eq!(Instr::decode(image.words[0]).unwrap(), Instr::Jmp(8));
        assert_eq!(Instr::decode(image.words[2]).unwrap(), Instr::Jmp(0));
    }

    #[test]
    fn word_and_zero_directives() {
        let image = assemble(
            "
            data: .word 0xDEADBEEF
                  .word -1
                  .zero 3
                  halt",
        )
        .unwrap();
        assert_eq!(image.words[0], 0xDEAD_BEEF);
        assert_eq!(image.words[1], 0xFFFF_FFFF);
        assert_eq!(&image.words[2..5], &[0, 0, 0]);
        assert_eq!(image.words.len(), 6);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let image = assemble(
            "; file header
             # another comment style

             nop  ; trailing
             halt # trailing too",
        )
        .unwrap();
        assert_eq!(image.words.len(), 2);
    }

    #[test]
    fn duplicate_label_rejected() {
        let e = assemble("a:\na: nop").unwrap_err();
        assert!(e.message.contains("duplicate"));
        assert_eq!(e.line, 2);
    }

    #[test]
    fn unknown_label_rejected() {
        let e = assemble("jmp nowhere").unwrap_err();
        assert!(e.message.contains("unknown label"));
    }

    #[test]
    fn unknown_mnemonic_rejected() {
        let e = assemble("frobnicate r1, r2").unwrap_err();
        assert!(e.message.contains("unknown mnemonic"));
    }

    #[test]
    fn operand_count_checked() {
        assert!(assemble("add r0, r1").is_err());
        assert!(assemble("ret r0").is_err());
        assert!(assemble("push").is_err());
    }

    #[test]
    fn immediates_out_of_range_rejected() {
        assert!(assemble("addi r0, r0, 70000").is_err());
        assert!(assemble("ldi r0, 0x1FFFF").is_err());
        assert!(
            assemble("ldi r0, 0xFFFF").is_ok(),
            "0xFFFF allowed as bit pattern"
        );
    }

    #[test]
    fn memory_operand_forms() {
        let image = assemble("ld r0, [r1]\nld r0, [r1+4]\nld r0, [r1-4]").unwrap();
        assert_eq!(
            Instr::decode(image.words[0]).unwrap(),
            Instr::Ld(Reg::R0, Reg::R1, 0)
        );
        assert_eq!(
            Instr::decode(image.words[1]).unwrap(),
            Instr::Ld(Reg::R0, Reg::R1, 4)
        );
        assert_eq!(
            Instr::decode(image.words[2]).unwrap(),
            Instr::Ld(Reg::R0, Reg::R1, -4)
        );
    }

    #[test]
    fn disassembly_round_trips_text() {
        let image = assemble("ldi r0, 1\nadd r1, r0, r0\nhalt").unwrap();
        let text = disassemble(&image.words);
        assert!(text.contains("ldi r0, 1"));
        assert!(text.contains("add r1, r0, r0"));
        assert!(text.contains("halt"));
    }

    #[test]
    fn disassembly_marks_data_words() {
        let text = disassemble(&[0xFFFF_FFFF]);
        assert!(text.contains(".word"));
    }

    #[test]
    fn relocated_assembly_offsets_labels_and_targets() {
        let src = "
            start:
                ldi r1, table
                jmp start
            table: .word 7";
        let at0 = assemble_at(src, 0).unwrap();
        let at8k = assemble_at(src, 0x2000).unwrap();
        assert_eq!(at0.base, 0);
        assert_eq!(at8k.base, 0x2000);
        assert_eq!(at8k.label("start"), Some(0x2000));
        assert_eq!(at8k.label("table"), Some(0x2008));
        // The JMP target moved with the base.
        assert_eq!(Instr::decode(at8k.words[1]).unwrap(), Instr::Jmp(0x2000));
        // And the LDI label immediate too.
        assert_eq!(
            Instr::decode(at8k.words[0]).unwrap(),
            Instr::Ldi(Reg::R1, 0x2008)
        );
        // Words are identical except for relocated references.
        assert_eq!(at0.words.len(), at8k.words.len());
    }

    #[test]
    fn relocation_rejects_misaligned_or_oversized_base() {
        assert!(assemble_at("halt", 2).is_err());
        assert!(
            assemble_at("a: jmp a", 0x1_0000).is_err(),
            "label beyond u16"
        );
    }

    #[test]
    fn error_reports_line_numbers() {
        let e = assemble("nop\nnop\nbogus").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(!e.to_string().is_empty());
    }
}
