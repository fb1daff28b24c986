//! Error-detection mechanism (EDM) taxonomy — the paper's Table 1.
//!
//! Maps every detectable event in the simulated stack to the mechanism that
//! caught it, so fault-injection campaigns can report *which* mechanism
//! detects *which* fault class — the evidence Table 1 of the paper
//! summarises. Hardware mechanisms live here; the software mechanisms
//! (temporal error masking, execution-time monitoring, data-integrity
//! checks) are raised by the kernel crate but share this taxonomy.

use std::collections::BTreeMap;
use std::fmt;

use crate::fault::TargetClass;
use crate::machine::Exception;
use crate::mem::MemError;

/// An error-detection mechanism from Table 1 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Edm {
    /// CPU hardware exception: illegal op-code detection.
    IllegalOpcode,
    /// CPU hardware exception: address error (misalignment).
    AddressError,
    /// CPU hardware exception: bus error (unmapped access).
    BusError,
    /// CPU hardware exception: arithmetic trap (division by zero).
    ArithmeticTrap,
    /// Error-correcting code on memory detected an uncorrectable error.
    Ecc,
    /// Memory-management unit protection violation.
    Mmu,
    /// Kernel execution-time monitor (budget timer) expiry.
    ExecutionTimeMonitor,
    /// TEM double-execution result comparison mismatch.
    TemComparison,
    /// TEM three-way majority vote (no two results agree).
    TemVote,
    /// Data-integrity check (duplicated state or CRC mismatch).
    DataIntegrity,
    /// End-to-end check on message/input data.
    EndToEnd,
}

impl Edm {
    /// All mechanisms, in reporting order.
    pub const ALL: [Edm; 11] = [
        Edm::IllegalOpcode,
        Edm::AddressError,
        Edm::BusError,
        Edm::ArithmeticTrap,
        Edm::Ecc,
        Edm::Mmu,
        Edm::ExecutionTimeMonitor,
        Edm::TemComparison,
        Edm::TemVote,
        Edm::DataIntegrity,
        Edm::EndToEnd,
    ];

    /// Classifies a hardware exception by the mechanism that raised it.
    pub fn from_exception(e: &Exception) -> Edm {
        match e {
            Exception::IllegalOpcode { .. } => Edm::IllegalOpcode,
            Exception::Memory(MemError::Misaligned { .. }) => Edm::AddressError,
            Exception::Memory(MemError::Bus { .. }) => Edm::BusError,
            Exception::Memory(MemError::EccUncorrectable { .. }) => Edm::Ecc,
            Exception::Mmu(_) => Edm::Mmu,
            Exception::DivideByZero { .. } => Edm::ArithmeticTrap,
            Exception::PortFault { .. } => Edm::BusError,
        }
    }

    /// Short human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Edm::IllegalOpcode => "illegal opcode",
            Edm::AddressError => "address error",
            Edm::BusError => "bus error",
            Edm::ArithmeticTrap => "arithmetic trap",
            Edm::Ecc => "ECC",
            Edm::Mmu => "MMU",
            Edm::ExecutionTimeMonitor => "execution-time monitor",
            Edm::TemComparison => "TEM comparison",
            Edm::TemVote => "TEM majority vote",
            Edm::DataIntegrity => "data integrity check",
            Edm::EndToEnd => "end-to-end check",
        }
    }
}

impl fmt::Display for Edm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A (fault class × detection mechanism) count matrix.
///
/// Fault-injection campaigns accumulate one of these to reproduce Table 1:
/// every detected error increments the cell for the injected fault's class
/// and the mechanism that caught it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DetectionMatrix {
    cells: BTreeMap<(TargetClass, Edm), u64>,
    undetected: BTreeMap<TargetClass, u64>,
    benign: BTreeMap<TargetClass, u64>,
}

impl DetectionMatrix {
    /// Creates an empty matrix.
    pub fn new() -> Self {
        DetectionMatrix::default()
    }

    /// Records a detection of a fault from `class` by `edm`.
    pub fn record_detection(&mut self, class: TargetClass, edm: Edm) {
        *self.cells.entry((class, edm)).or_insert(0) += 1;
    }

    /// Records a fault whose error escaped every mechanism (silent data
    /// corruption / failure).
    pub fn record_undetected(&mut self, class: TargetClass) {
        *self.undetected.entry(class).or_insert(0) += 1;
    }

    /// Records a fault with no observable effect (overwritten or latent).
    pub fn record_benign(&mut self, class: TargetClass) {
        *self.benign.entry(class).or_insert(0) += 1;
    }

    /// Count in one cell.
    pub fn detections(&self, class: TargetClass, edm: Edm) -> u64 {
        self.cells.get(&(class, edm)).copied().unwrap_or(0)
    }

    /// Escapes for a class.
    pub fn undetected(&self, class: TargetClass) -> u64 {
        self.undetected.get(&class).copied().unwrap_or(0)
    }

    /// Benign outcomes for a class.
    pub fn benign(&self, class: TargetClass) -> u64 {
        self.benign.get(&class).copied().unwrap_or(0)
    }

    /// Total detected errors for a class across all mechanisms.
    pub(crate) fn total_detected(&self, class: TargetClass) -> u64 {
        Edm::ALL.iter().map(|&e| self.detections(class, e)).sum()
    }

    /// Total injections recorded for a class (detected + undetected + benign).
    pub fn total(&self, class: TargetClass) -> u64 {
        self.total_detected(class) + self.undetected(class) + self.benign(class)
    }

    /// Error-detection coverage for a class: detected / (detected +
    /// undetected). Benign faults do not count — the paper's fault rate
    /// covers *activated* faults only. Returns `None` with no errors.
    pub fn coverage(&self, class: TargetClass) -> Option<f64> {
        let det = self.total_detected(class) as f64;
        let esc = self.undetected(class) as f64;
        if det + esc == 0.0 {
            None
        } else {
            Some(det / (det + esc))
        }
    }

    /// Merges another matrix into this one (parallel campaign shards).
    pub fn merge(&mut self, other: &DetectionMatrix) {
        for (&k, &v) in &other.cells {
            *self.cells.entry(k).or_insert(0) += v;
        }
        for (&k, &v) in &other.undetected {
            *self.undetected.entry(k).or_insert(0) += v;
        }
        for (&k, &v) in &other.benign {
            *self.benign.entry(k).or_insert(0) += v;
        }
    }

    /// Renders the matrix as a fixed-width text table (the Table-1 artifact).
    pub fn render_table(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = write!(out, "{:<18}", "fault class");
        for e in Edm::ALL {
            let _ = write!(out, "{:>12}", abbreviate(e));
        }
        let _ = writeln!(out, "{:>10}{:>10}{:>10}", "escaped", "benign", "coverage");
        for c in TargetClass::ALL {
            if self.total(c) == 0 {
                continue;
            }
            let _ = write!(out, "{:<18}", c.name());
            for e in Edm::ALL {
                let _ = write!(out, "{:>12}", self.detections(c, e));
            }
            let cov = self
                .coverage(c)
                .map(|c| format!("{:.3}", c))
                .unwrap_or_else(|| "-".into());
            let _ = writeln!(
                out,
                "{:>10}{:>10}{:>10}",
                self.undetected(c),
                self.benign(c),
                cov
            );
        }
        out
    }
}

fn abbreviate(e: Edm) -> &'static str {
    match e {
        Edm::IllegalOpcode => "ill-op",
        Edm::AddressError => "addr-err",
        Edm::BusError => "bus-err",
        Edm::ArithmeticTrap => "arith",
        Edm::Ecc => "ecc",
        Edm::Mmu => "mmu",
        Edm::ExecutionTimeMonitor => "budget",
        Edm::TemComparison => "tem-cmp",
        Edm::TemVote => "tem-vote",
        Edm::DataIntegrity => "integrity",
        Edm::EndToEnd => "end2end",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mmu::{Access, MmuViolation};

    #[test]
    fn exception_mapping_covers_every_variant() {
        assert_eq!(
            Edm::from_exception(&Exception::IllegalOpcode { pc: 0, word: 0 }),
            Edm::IllegalOpcode
        );
        assert_eq!(
            Edm::from_exception(&Exception::Memory(MemError::Misaligned { addr: 2 })),
            Edm::AddressError
        );
        assert_eq!(
            Edm::from_exception(&Exception::Memory(MemError::Bus { addr: 0 })),
            Edm::BusError
        );
        assert_eq!(
            Edm::from_exception(&Exception::Memory(MemError::EccUncorrectable { addr: 0 })),
            Edm::Ecc
        );
        assert_eq!(
            Edm::from_exception(&Exception::Mmu(MmuViolation {
                addr: 0,
                access: Access::Write
            })),
            Edm::Mmu
        );
        assert_eq!(
            Edm::from_exception(&Exception::DivideByZero { pc: 0 }),
            Edm::ArithmeticTrap
        );
        assert_eq!(
            Edm::from_exception(&Exception::PortFault { port: 99 }),
            Edm::BusError
        );
    }

    #[test]
    fn matrix_counts_and_coverage() {
        let mut m = DetectionMatrix::new();
        for _ in 0..90 {
            m.record_detection(TargetClass::Pc, Edm::IllegalOpcode);
        }
        for _ in 0..9 {
            m.record_detection(TargetClass::Pc, Edm::BusError);
        }
        m.record_undetected(TargetClass::Pc);
        for _ in 0..5 {
            m.record_benign(TargetClass::Pc);
        }
        assert_eq!(m.detections(TargetClass::Pc, Edm::IllegalOpcode), 90);
        assert_eq!(m.total_detected(TargetClass::Pc), 99);
        assert_eq!(m.total(TargetClass::Pc), 105);
        assert!((m.coverage(TargetClass::Pc).unwrap() - 0.99).abs() < 1e-12);
    }

    #[test]
    fn coverage_none_when_no_errors() {
        let mut m = DetectionMatrix::new();
        assert_eq!(m.coverage(TargetClass::Memory), None);
        m.record_benign(TargetClass::Memory);
        assert_eq!(
            m.coverage(TargetClass::Memory),
            None,
            "benign-only has no coverage"
        );
    }

    #[test]
    fn merge_sums_counts() {
        let mut a = DetectionMatrix::new();
        let mut b = DetectionMatrix::new();
        a.record_detection(TargetClass::Sp, Edm::BusError);
        b.record_detection(TargetClass::Sp, Edm::BusError);
        b.record_undetected(TargetClass::Sp);
        a.merge(&b);
        assert_eq!(a.detections(TargetClass::Sp, Edm::BusError), 2);
        assert_eq!(a.undetected(TargetClass::Sp), 1);
    }

    #[test]
    fn render_table_mentions_active_rows_only() {
        let mut m = DetectionMatrix::new();
        m.record_detection(TargetClass::Pc, Edm::IllegalOpcode);
        let table = m.render_table();
        assert!(table.contains("program counter"));
        assert!(!table.contains("stack pointer"));
        assert!(table.contains("coverage"));
    }
}
