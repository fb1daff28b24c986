//! Memory-management unit with per-task region protection.
//!
//! The paper relies on an MMU for *fault confinement*: every task gets a set
//! of allowed regions, so a fault that derails a task's memory accesses (a
//! corrupted address register, a runaway stack pointer, a control-flow error
//! into foreign code) trips a protection violation instead of corrupting
//! other tasks or the kernel (§2.4, §2.7). Regions carry conventional
//! read/write/execute permissions.

use std::fmt;

/// The kind of access being checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Access {
    /// Data load.
    Read,
    /// Data store.
    Write,
    /// Instruction fetch.
    Execute,
}

impl fmt::Display for Access {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Access::Read => write!(f, "read"),
            Access::Write => write!(f, "write"),
            Access::Execute => write!(f, "execute"),
        }
    }
}

/// Permission bits of a region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Perms {
    /// Loads allowed.
    pub read: bool,
    /// Stores allowed.
    pub write: bool,
    /// Instruction fetches allowed.
    pub execute: bool,
}

impl Perms {
    /// Read-only data (constants, calibration tables).
    pub const R: Perms = Perms {
        read: true,
        write: false,
        execute: false,
    };
    /// Read-write data.
    pub const RW: Perms = Perms {
        read: true,
        write: true,
        execute: false,
    };
    /// Executable, read-only code.
    pub const RX: Perms = Perms {
        read: true,
        write: false,
        execute: true,
    };

    /// Whether the permission set allows the given access.
    pub(crate) fn allows(self, access: Access) -> bool {
        match access {
            Access::Read => self.read,
            Access::Write => self.write,
            Access::Execute => self.execute,
        }
    }
}

impl fmt::Display for Perms {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}{}",
            if self.read { 'r' } else { '-' },
            if self.write { 'w' } else { '-' },
            if self.execute { 'x' } else { '-' }
        )
    }
}

/// A contiguous protected address range `[start, start + len)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    /// First byte address covered.
    pub start: u32,
    /// Length in bytes.
    pub len: u32,
    /// Allowed access kinds.
    pub perms: Perms,
}

impl Region {
    /// Creates a region.
    ///
    /// # Panics
    ///
    /// Panics if the region is empty or wraps around the address space.
    pub fn new(start: u32, len: u32, perms: Perms) -> Self {
        assert!(len > 0, "region must be non-empty");
        assert!(
            start.checked_add(len - 1).is_some(),
            "region wraps address space"
        );
        Region { start, len, perms }
    }

    /// Whether `addr` lies inside the region.
    pub fn contains(&self, addr: u32) -> bool {
        addr >= self.start && addr - self.start < self.len
    }
}

/// A protection violation detected by the MMU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MmuViolation {
    /// The faulting byte address.
    pub addr: u32,
    /// The attempted access kind.
    pub access: Access,
}

impl fmt::Display for MmuViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MMU violation: {} at {:#06x}", self.access, self.addr)
    }
}

impl std::error::Error for MmuViolation {}

/// A task's (or the kernel's) view of memory: an ordered set of regions.
///
/// # Examples
///
/// ```
/// use nlft_machine::mmu::{Access, MemoryMap, Perms, Region};
///
/// let map = MemoryMap::from_regions(vec![
///     Region::new(0x0000, 0x400, Perms::RX),  // code
///     Region::new(0x1000, 0x400, Perms::RW),  // data + stack
/// ]);
/// assert!(map.check(0x0004, Access::Execute).is_ok());
/// assert!(map.check(0x1004, Access::Write).is_ok());
/// assert!(map.check(0x1004, Access::Execute).is_err());
/// assert!(map.check(0x2000, Access::Read).is_err());
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MemoryMap {
    regions: Vec<Region>,
}

impl MemoryMap {
    /// An empty map that denies everything.
    pub fn new() -> Self {
        MemoryMap::default()
    }

    /// Builds a map from a list of regions. Overlaps are allowed; an access
    /// is permitted if *any* covering region allows it.
    pub fn from_regions(regions: Vec<Region>) -> Self {
        MemoryMap { regions }
    }

    /// A map with a single region spanning the whole space with all
    /// permissions — the "MMU disabled" configuration.
    pub fn permissive() -> Self {
        MemoryMap::from_regions(vec![Region::new(
            0,
            u32::MAX,
            Perms {
                read: true,
                write: true,
                execute: true,
            },
        )])
    }

    /// Checks an access against the map.
    ///
    /// # Errors
    ///
    /// Returns [`MmuViolation`] when no region both covers `addr` and allows
    /// `access`.
    pub fn check(&self, addr: u32, access: Access) -> Result<(), MmuViolation> {
        for r in &self.regions {
            if r.contains(addr) && r.perms.allows(access) {
                return Ok(());
            }
        }
        Err(MmuViolation { addr, access })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task_map() -> MemoryMap {
        MemoryMap::from_regions(vec![
            Region::new(0x000, 0x100, Perms::RX),
            Region::new(0x200, 0x080, Perms::R),
            Region::new(0x400, 0x100, Perms::RW),
        ])
    }

    #[test]
    fn grants_access_inside_matching_region() {
        let m = task_map();
        assert!(m.check(0x000, Access::Execute).is_ok());
        assert!(m.check(0x0FF, Access::Read).is_ok());
        assert!(m.check(0x210, Access::Read).is_ok());
        assert!(m.check(0x4FF, Access::Write).is_ok());
    }

    #[test]
    fn denies_wrong_permission() {
        let m = task_map();
        assert_eq!(
            m.check(0x000, Access::Write),
            Err(MmuViolation {
                addr: 0x000,
                access: Access::Write
            })
        );
        assert!(m.check(0x210, Access::Write).is_err());
        assert!(m.check(0x400, Access::Execute).is_err());
    }

    #[test]
    fn denies_gaps_between_regions() {
        let m = task_map();
        assert!(m.check(0x100, Access::Read).is_err());
        assert!(m.check(0x3FF, Access::Read).is_err());
        assert!(m.check(0xFFFF_FFFF, Access::Read).is_err());
    }

    #[test]
    fn region_boundaries_are_half_open() {
        let r = Region::new(0x100, 0x10, Perms::RW);
        assert!(r.contains(0x100));
        assert!(r.contains(0x10F));
        assert!(!r.contains(0x110));
        assert!(!r.contains(0x0FF));
    }

    #[test]
    fn overlapping_regions_union_permissions() {
        let m = MemoryMap::from_regions(vec![
            Region::new(0x0, 0x100, Perms::R),
            Region::new(0x0, 0x100, Perms::RW),
        ]);
        assert!(m.check(0x10, Access::Write).is_ok());
    }

    #[test]
    fn permissive_map_allows_everything() {
        // Covers [0, u32::MAX) — every address a 64 KiB machine can emit.
        let m = MemoryMap::permissive();
        assert!(m.check(0, Access::Execute).is_ok());
        assert!(m.check(u32::MAX - 1, Access::Write).is_ok());
    }

    #[test]
    fn empty_map_denies_everything() {
        let m = MemoryMap::new();
        assert!(m.check(0, Access::Read).is_err());
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_length_region_rejected() {
        Region::new(0, 0, Perms::R);
    }

    #[test]
    #[should_panic(expected = "wraps")]
    fn wrapping_region_rejected() {
        Region::new(u32::MAX, 2, Perms::R);
    }

    #[test]
    fn perms_display() {
        assert_eq!(Perms::RX.to_string(), "r-x");
        assert_eq!(Perms::RW.to_string(), "rw-");
        assert_eq!(Perms::default().to_string(), "---");
    }
}
