//! Shared-resource model for multicore NLFT nodes: SRP-style ceiling
//! analysis and fault-tolerant resource-sharing protocols.
//!
//! The paper's kernel is strictly single-core, so "a task holds a
//! resource" never outlives the task: fail-silence at the node level
//! subsumes everything. On a multicore node two cores share state, and a
//! core can die *inside* a critical section — the questions the paper
//! never asks become the interesting ones:
//!
//! * **Ceiling analysis** ([`ResourceMap`]): each resource's priority
//!   ceiling is derived statically from the task set's resource-access
//!   declarations — ceiling(ρ) = the highest priority (numerically
//!   smallest [`Priority`]) of any task accessing ρ, exactly the RTFM/RTIC
//!   construction. From the ceilings follows the classic SRP blocking
//!   bound ([`ResourceMap::blocking_bound`]): a task is blocked at most
//!   once, by the longest critical section of a lower-priority task on a
//!   resource whose ceiling reaches the task's priority.
//! * **Protocols** ([`ResourceProtocol`]): a lock-based baseline
//!   ([`LockBased`]) and a LEFT-RS-style lock-free retry-bounded protocol
//!   ([`LeftRs`]). Under the lock, a core that dies while holding leaves
//!   the lock held forever — peers deadlock. Under LEFT-RS nothing is ever
//!   *held*: a section is executed optimistically against a per-resource
//!   generation counter and committed with a single CAS; a dead core
//!   simply never commits, and peers proceed unharmed. The price is
//!   bounded re-execution — on `n` cores a section retries at most
//!   `n − 1` times ([`LeftRs` retry bound][ResourceProtocol::retry_bound]),
//!   and that cost feeds [`crate::analysis::response_time_with_blocking`]
//!   as an explicit recovery term.

use std::collections::BTreeMap;
use std::fmt;

use nlft_sim::time::SimDuration;

use crate::analysis::response_time_with_blocking;
use crate::task::{Priority, TaskId, TaskSet, TaskSpec};

/// Identifies one shared resource of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ResourceId(pub u32);

impl fmt::Display for ResourceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}", self.0)
    }
}

/// One task's declared critical section on one resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CsAccess {
    /// The accessing task.
    pub task: TaskId,
    /// The resource accessed.
    pub resource: ResourceId,
    /// Worst-case critical-section length.
    pub section: SimDuration,
}

/// The static resource-access declaration of a task set, and the ceiling
/// analysis derived from it.
///
/// Declarations are the input to everything else: ceilings, blocking
/// bounds and the retry term are all pure functions of this map plus the
/// task set's priorities.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResourceMap {
    accesses: Vec<CsAccess>,
}

impl ResourceMap {
    /// An empty map: no task shares anything.
    pub fn new() -> Self {
        ResourceMap::default()
    }

    /// Declares that `task` accesses `resource` with a critical section of
    /// worst-case length `section`.
    ///
    /// # Panics
    ///
    /// Panics when `section` is zero or the `(task, resource)` pair was
    /// already declared — each task declares each resource at most once,
    /// with its single worst-case section length.
    pub fn declare(&mut self, task: TaskId, resource: ResourceId, section: SimDuration) {
        assert!(!section.is_zero(), "critical section must have a length");
        assert!(
            !self
                .accesses
                .iter()
                .any(|a| a.task == task && a.resource == resource),
            "duplicate access declaration for task {task:?} on {resource}",
        );
        self.accesses.push(CsAccess {
            task,
            resource,
            section,
        });
    }

    /// All declared accesses, in declaration order.
    pub fn accesses(&self) -> impl Iterator<Item = &CsAccess> {
        self.accesses.iter()
    }

    /// All declared resources, sorted and deduplicated.
    pub fn resources(&self) -> Vec<ResourceId> {
        let mut ids: Vec<ResourceId> = self.accesses.iter().map(|a| a.resource).collect();
        ids.sort();
        ids.dedup();
        ids
    }

    /// The declared section length of `task` on `resource`, if any.
    pub fn section(&self, task: TaskId, resource: ResourceId) -> Option<SimDuration> {
        self.accesses
            .iter()
            .find(|a| a.task == task && a.resource == resource)
            .map(|a| a.section)
    }

    /// The longest critical section `task` declares on any resource
    /// (zero when it shares nothing) — the unit of LEFT-RS re-execution.
    pub(crate) fn longest_section(&self, task: TaskId) -> SimDuration {
        self.accesses
            .iter()
            .filter(|a| a.task == task)
            .map(|a| a.section)
            .max()
            .unwrap_or(SimDuration::ZERO)
    }

    /// The SRP/RTFM priority ceiling of `resource`: the highest priority
    /// (numerically smallest [`Priority`]) among its accessors in `set`.
    ///
    /// Returns `None` when no declared accessor touches the resource.
    ///
    /// # Panics
    ///
    /// Panics when an accessor of `resource` is not a member of `set` —
    /// the access declaration would be dead static analysis input.
    pub fn ceiling(&self, set: &TaskSet, resource: ResourceId) -> Option<Priority> {
        self.accesses
            .iter()
            .filter(|a| a.resource == resource)
            .map(|a| {
                set.get(a.task)
                    .unwrap_or_else(|| panic!("{resource} accessed by unknown task {:?}", a.task))
                    .priority
            })
            .min()
    }

    /// The ceiling of every declared resource, sorted by resource id.
    pub(crate) fn ceilings(&self, set: &TaskSet) -> Vec<(ResourceId, Priority)> {
        self.resources()
            .into_iter()
            .map(|r| (r, self.ceiling(set, r).expect("resource has an accessor")))
            .collect()
    }

    /// The SRP blocking bound for `task`: the longest critical section of
    /// any *lower*-priority task on a resource whose ceiling is at least
    /// `task`'s priority (numerically `≤ task.priority`). Under SRP a task
    /// is blocked at most once, before it starts, so the bound is a `max`,
    /// not a sum.
    ///
    /// Priority ties break like [`TaskSet`] ordering: `(priority, id)`.
    pub fn blocking_bound(&self, set: &TaskSet, task: &TaskSpec) -> SimDuration {
        let key = (task.priority, task.id);
        self.accesses
            .iter()
            .filter(|a| {
                let Some(accessor) = set.get(a.task) else {
                    return false;
                };
                let lower = (accessor.priority, accessor.id) > key;
                let ceiling_reaches = self
                    .ceiling(set, a.resource)
                    .is_some_and(|c| c <= task.priority);
                lower && ceiling_reaches
            })
            .map(|a| a.section)
            .max()
            .unwrap_or(SimDuration::ZERO)
    }
}

/// Outcome of a section entry attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SectionEntry {
    /// The core may execute the section.
    Enter,
    /// Lock-based only: another core holds the resource; the caller spins.
    Blocked {
        /// The core currently holding the resource.
        holder: usize,
    },
}

/// Outcome of a section commit attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SectionCommit {
    /// The section's effects are published.
    Committed,
    /// LEFT-RS only: a peer committed first; re-execute the section
    /// against the fresh state.
    Retry,
}

/// A resource-sharing protocol for the multicore executive, modelled at
/// the granularity the fault analysis needs: entry, commit, and what
/// happens when the core inside a section dies.
///
/// Both implementations are driven by the deterministic tick executive in
/// [`crate::multicore`], which serializes core steps — the protocol state
/// machines themselves are sequential models of the concurrent originals.
pub trait ResourceProtocol: fmt::Debug {
    /// Protocol name for reports.
    fn name(&self) -> &'static str;

    /// `true` when a dead holder can never block peers (lock-freedom).
    fn lock_free(&self) -> bool;

    /// `core` asks to start executing a section on `resource`.
    fn try_enter(&mut self, resource: ResourceId, core: usize) -> SectionEntry;

    /// `core` finished executing the section body and asks to publish.
    fn commit(&mut self, resource: ResourceId, core: usize) -> SectionCommit;

    /// `core` left the section without committing. `orderly` is `true`
    /// when the kernel's escalation ladder silenced the core (FailSilent /
    /// Retired) and ran its release hook — the fix for the
    /// dead-holder-blocks-peers hazard — and `false` for a hard crash,
    /// where no release code runs.
    fn abandon(&mut self, resource: ResourceId, core: usize, orderly: bool);

    /// The core currently holding `resource`, when the protocol has a
    /// notion of holding (lock-free protocols always return `None`).
    fn holder(&self, resource: ResourceId) -> Option<usize>;

    /// Worst-case number of section re-executions on a node with `cores`
    /// cores. Zero for blocking protocols.
    fn retry_bound(&self, cores: u32) -> u32;
}

/// The lock-based baseline: a plain per-resource spin lock.
///
/// Correct and retry-free while everyone is alive; when the holding core
/// dies uncleanly the lock stays held forever and every peer that needs
/// the resource spins until its deadline — the deadlock the campaign
/// demonstrates.
#[derive(Debug, Clone, Default)]
pub struct LockBased {
    held: BTreeMap<ResourceId, usize>,
}

impl LockBased {
    /// A fresh protocol instance with no lock held.
    pub fn new() -> Self {
        LockBased::default()
    }
}

impl ResourceProtocol for LockBased {
    fn name(&self) -> &'static str {
        "lock-based"
    }

    fn lock_free(&self) -> bool {
        false
    }

    fn try_enter(&mut self, resource: ResourceId, core: usize) -> SectionEntry {
        match self.held.get(&resource) {
            Some(&holder) if holder != core => SectionEntry::Blocked { holder },
            _ => {
                self.held.insert(resource, core);
                SectionEntry::Enter
            }
        }
    }

    fn commit(&mut self, resource: ResourceId, core: usize) -> SectionCommit {
        debug_assert_eq!(self.held.get(&resource), Some(&core));
        self.held.remove(&resource);
        SectionCommit::Committed
    }

    fn abandon(&mut self, resource: ResourceId, core: usize, orderly: bool) {
        if self.held.get(&resource) == Some(&core) && orderly {
            // The escalation ladder's release hook ran: the lock is
            // revoked. A hard crash leaves it held — that is the hazard.
            self.held.remove(&resource);
        }
    }

    fn holder(&self, resource: ResourceId) -> Option<usize> {
        self.held.get(&resource).copied()
    }

    fn retry_bound(&self, _cores: u32) -> u32 {
        0
    }
}

/// LEFT-RS-style lock-free retry-bounded resource sharing.
///
/// Each resource carries a generation counter. A core entering a section
/// snapshots the generation, executes the section body against a private
/// copy, and commits with a single CAS: if the generation is unchanged the
/// commit publishes (generation bumps), otherwise a peer won the race and
/// the core re-executes against the fresh state. On `n` cores at most
/// `n − 1` peers can defeat one commit, so a section re-executes at most
/// `n − 1` times. Nothing is ever held: a core dying mid-section simply
/// never commits, and the fault is invisible to peers.
#[derive(Debug, Clone, Default)]
pub struct LeftRs {
    generation: BTreeMap<ResourceId, u64>,
    snapshot: BTreeMap<(ResourceId, usize), u64>,
}

impl LeftRs {
    /// A fresh protocol instance at generation zero everywhere.
    pub fn new() -> Self {
        LeftRs::default()
    }
}

impl ResourceProtocol for LeftRs {
    fn name(&self) -> &'static str {
        "left-rs"
    }

    fn lock_free(&self) -> bool {
        true
    }

    fn try_enter(&mut self, resource: ResourceId, core: usize) -> SectionEntry {
        let generation = self.generation.get(&resource).copied().unwrap_or(0);
        self.snapshot.insert((resource, core), generation);
        SectionEntry::Enter
    }

    fn commit(&mut self, resource: ResourceId, core: usize) -> SectionCommit {
        let generation = self.generation.entry(resource).or_insert(0);
        match self.snapshot.get(&(resource, core)) {
            Some(&snap) if snap == *generation => {
                *generation += 1;
                self.snapshot.remove(&(resource, core));
                SectionCommit::Committed
            }
            _ => {
                // CAS lost: re-snapshot and re-execute the section body.
                self.snapshot.insert((resource, core), *generation);
                SectionCommit::Retry
            }
        }
    }

    fn abandon(&mut self, resource: ResourceId, core: usize, _orderly: bool) {
        // Nothing is held; drop the private snapshot and move on.
        self.snapshot.remove(&(resource, core));
    }

    fn holder(&self, _resource: ResourceId) -> Option<usize> {
        None
    }

    fn retry_bound(&self, cores: u32) -> u32 {
        cores.saturating_sub(1)
    }
}

/// Selects which [`ResourceProtocol`] a node runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtocolKind {
    /// Per-resource spin locks ([`LockBased`]).
    LockBased,
    /// LEFT-RS lock-free retry-bounded sections ([`LeftRs`]).
    LeftRs,
}

impl ProtocolKind {
    /// Instantiates the protocol.
    pub fn build(self) -> Box<dyn ResourceProtocol> {
        match self {
            ProtocolKind::LockBased => Box::new(LockBased::new()),
            ProtocolKind::LeftRs => Box::new(LeftRs::new()),
        }
    }

    /// Protocol name without instantiating.
    pub fn name(self) -> &'static str {
        match self {
            ProtocolKind::LockBased => "lock-based",
            ProtocolKind::LeftRs => "left-rs",
        }
    }
}

/// Worst-case LEFT-RS re-execution cost for one job of `task` on a node
/// with `cores` cores: the longest declared section, re-executed once per
/// possible CAS defeat. This is the retry term fed to
/// [`response_time_with_blocking`] as an explicit recovery cost.
pub fn left_rs_retry_term(map: &ResourceMap, task: &TaskSpec, cores: u32) -> SimDuration {
    map.longest_section(task.id) * u64::from(cores.saturating_sub(1))
}

/// One task's certification verdict under [`certify`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertifiedTask {
    /// Task certified.
    pub id: TaskId,
    /// Task name for reports.
    pub name: String,
    /// Blocking term charged (SRP bound for locks, zero for LEFT-RS).
    pub blocking: SimDuration,
    /// Per-episode recovery term charged (retry re-execution for LEFT-RS).
    pub recovery: SimDuration,
    /// Worst-case response time, `None` when the deadline is blown.
    pub response: Option<SimDuration>,
}

/// Certifies every task of a `cores`-core node sharing `map` under
/// `protocol`, with `episodes` fault/contention episodes charged per job:
///
/// * **lock-based**: blocking = the SRP bound (the holder is assumed to
///   *finish* its section — an assumption a dead core voids, which is
///   exactly why certification does not save the baseline from core
///   death); recovery = zero (no retries).
/// * **LEFT-RS**: blocking = zero (nothing ever blocks); recovery = the
///   bounded retry re-execution term [`left_rs_retry_term`], charged once
///   per episode. This certification survives core death: a dead peer
///   only ever *removes* contention.
///
/// TEM recovery composes orthogonally — pass the combined closure to
/// [`response_time_with_blocking`] directly for a TEM-transformed set.
pub fn certify(
    set: &TaskSet,
    map: &ResourceMap,
    protocol: ProtocolKind,
    cores: u32,
    episodes: u32,
) -> Vec<CertifiedTask> {
    set.iter()
        .map(|t| {
            let (blocking, recovery) = match protocol {
                ProtocolKind::LockBased => (map.blocking_bound(set, t), SimDuration::ZERO),
                ProtocolKind::LeftRs => (SimDuration::ZERO, left_rs_retry_term(map, t, cores)),
            };
            let response =
                response_time_with_blocking(set, t, blocking, episodes, |k| match protocol {
                    ProtocolKind::LockBased => SimDuration::ZERO,
                    ProtocolKind::LeftRs => left_rs_retry_term(map, k, cores),
                });
            CertifiedTask {
                id: t.id,
                name: t.name.clone(),
                blocking,
                recovery,
                response,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{Criticality, TaskSpecBuilder};

    fn us(v: u64) -> SimDuration {
        SimDuration::from_micros(v)
    }

    fn task(id: u32, prio: u32, period_us: u64, wcet_us: u64) -> TaskSpec {
        TaskSpecBuilder::new(TaskId(id), format!("t{id}"))
            .period(us(period_us))
            .wcet(us(wcet_us))
            .priority(Priority(prio))
            .criticality(Criticality::NonCritical)
            .build()
            .unwrap()
    }

    fn three_task_set() -> TaskSet {
        [
            task(1, 0, 100, 10),
            task(2, 1, 200, 20),
            task(3, 2, 400, 40),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn ceiling_is_highest_accessor_priority() {
        let set = three_task_set();
        let mut map = ResourceMap::new();
        map.declare(TaskId(2), ResourceId(1), us(5));
        map.declare(TaskId(3), ResourceId(1), us(8));
        map.declare(TaskId(3), ResourceId(2), us(4));
        assert_eq!(map.ceiling(&set, ResourceId(1)), Some(Priority(1)));
        assert_eq!(map.ceiling(&set, ResourceId(2)), Some(Priority(2)));
        assert_eq!(map.ceiling(&set, ResourceId(9)), None);
        assert_eq!(
            map.ceilings(&set),
            vec![(ResourceId(1), Priority(1)), (ResourceId(2), Priority(2))]
        );
    }

    #[test]
    #[should_panic(expected = "unknown task")]
    fn ceiling_rejects_unknown_accessor() {
        let set = three_task_set();
        let mut map = ResourceMap::new();
        map.declare(TaskId(99), ResourceId(1), us(5));
        map.ceiling(&set, ResourceId(1));
    }

    #[test]
    #[should_panic(expected = "duplicate access")]
    fn duplicate_declaration_rejected() {
        let mut map = ResourceMap::new();
        map.declare(TaskId(1), ResourceId(1), us(5));
        map.declare(TaskId(1), ResourceId(1), us(6));
    }

    #[test]
    fn blocking_bound_is_max_lower_section_reaching_ceiling() {
        let set = three_task_set();
        let mut map = ResourceMap::new();
        // R1 shared by t1 and t3: ceiling = P(0). t3's 8us section can
        // block both t1 and t2 (ceiling reaches them).
        map.declare(TaskId(1), ResourceId(1), us(3));
        map.declare(TaskId(3), ResourceId(1), us(8));
        // R2 private to t2 and t3: ceiling = P(1), out of t1's reach.
        map.declare(TaskId(2), ResourceId(2), us(2));
        map.declare(TaskId(3), ResourceId(2), us(9));
        let t1 = set.get(TaskId(1)).unwrap();
        let t2 = set.get(TaskId(2)).unwrap();
        let t3 = set.get(TaskId(3)).unwrap();
        assert_eq!(map.blocking_bound(&set, t1), us(8));
        assert_eq!(map.blocking_bound(&set, t2), us(9));
        // Nothing runs below t3: it is never blocked.
        assert_eq!(map.blocking_bound(&set, t3), SimDuration::ZERO);
    }

    #[test]
    fn longest_section_and_lookup() {
        let mut map = ResourceMap::new();
        map.declare(TaskId(1), ResourceId(1), us(3));
        map.declare(TaskId(1), ResourceId(2), us(7));
        assert_eq!(map.longest_section(TaskId(1)), us(7));
        assert_eq!(map.longest_section(TaskId(9)), SimDuration::ZERO);
        assert_eq!(map.section(TaskId(1), ResourceId(1)), Some(us(3)));
        assert_eq!(map.section(TaskId(1), ResourceId(9)), None);
    }

    #[test]
    fn lock_based_blocks_and_releases() {
        let mut p = LockBased::new();
        let r = ResourceId(1);
        assert_eq!(p.try_enter(r, 0), SectionEntry::Enter);
        assert_eq!(p.try_enter(r, 1), SectionEntry::Blocked { holder: 0 });
        assert_eq!(p.holder(r), Some(0));
        assert_eq!(p.commit(r, 0), SectionCommit::Committed);
        assert_eq!(p.holder(r), None);
        assert_eq!(p.try_enter(r, 1), SectionEntry::Enter);
    }

    #[test]
    fn lock_based_crash_leaks_orderly_revokes() {
        let r = ResourceId(1);
        // Hard crash: the lock stays held; peers block forever.
        let mut p = LockBased::new();
        p.try_enter(r, 0);
        p.abandon(r, 0, false);
        assert_eq!(p.holder(r), Some(0));
        assert_eq!(p.try_enter(r, 1), SectionEntry::Blocked { holder: 0 });
        // Orderly fail-silence: the release hook revokes the lock.
        let mut p = LockBased::new();
        p.try_enter(r, 0);
        p.abandon(r, 0, true);
        assert_eq!(p.holder(r), None);
        assert_eq!(p.try_enter(r, 1), SectionEntry::Enter);
    }

    #[test]
    fn left_rs_never_blocks_and_retries_on_defeat() {
        let mut p = LeftRs::new();
        let r = ResourceId(1);
        assert_eq!(p.try_enter(r, 0), SectionEntry::Enter);
        assert_eq!(p.try_enter(r, 1), SectionEntry::Enter);
        assert_eq!(p.holder(r), None);
        // Core 0 commits first; core 1's CAS is defeated once.
        assert_eq!(p.commit(r, 0), SectionCommit::Committed);
        assert_eq!(p.commit(r, 1), SectionCommit::Retry);
        // Re-executed against the fresh snapshot, it commits.
        assert_eq!(p.commit(r, 1), SectionCommit::Committed);
    }

    #[test]
    fn left_rs_dead_core_is_invisible() {
        let mut p = LeftRs::new();
        let r = ResourceId(1);
        p.try_enter(r, 0);
        p.abandon(r, 0, false); // hard crash mid-section
        assert_eq!(p.try_enter(r, 1), SectionEntry::Enter);
        assert_eq!(p.commit(r, 1), SectionCommit::Committed);
    }

    #[test]
    fn retry_bounds() {
        assert_eq!(ProtocolKind::LockBased.build().retry_bound(4), 0);
        assert_eq!(ProtocolKind::LeftRs.build().retry_bound(1), 0);
        assert_eq!(ProtocolKind::LeftRs.build().retry_bound(2), 1);
        assert_eq!(ProtocolKind::LeftRs.build().retry_bound(5), 4);
        assert_eq!(LeftRs::new().retry_bound(3), 2);
        assert_eq!(LockBased::new().retry_bound(3), 0);
    }

    #[test]
    fn retry_term_scales_with_cores_and_section() {
        let set = three_task_set();
        let mut map = ResourceMap::new();
        map.declare(TaskId(1), ResourceId(1), us(5));
        let t1 = set.get(TaskId(1)).unwrap();
        let t2 = set.get(TaskId(2)).unwrap();
        assert_eq!(left_rs_retry_term(&map, t1, 2), us(5));
        assert_eq!(left_rs_retry_term(&map, t1, 4), us(15));
        assert_eq!(left_rs_retry_term(&map, t2, 4), SimDuration::ZERO);
    }

    #[test]
    fn certify_charges_blocking_for_locks_and_retries_for_left_rs() {
        let set = three_task_set();
        let mut map = ResourceMap::new();
        map.declare(TaskId(1), ResourceId(1), us(4));
        map.declare(TaskId(3), ResourceId(1), us(8));
        let locks = certify(&set, &map, ProtocolKind::LockBased, 2, 1);
        let cas = certify(&set, &map, ProtocolKind::LeftRs, 2, 1);
        // t1 under locks: R = 10 + B(8) = 18.
        assert_eq!(locks[0].blocking, us(8));
        assert_eq!(locks[0].response, Some(us(18)));
        // t1 under LEFT-RS: R = 10 + one 4us re-execution = 14.
        assert_eq!(cas[0].blocking, SimDuration::ZERO);
        assert_eq!(cas[0].recovery, us(4));
        assert_eq!(cas[0].response, Some(us(14)));
        // t2 declares nothing, yet neither protocol leaves it untouched:
        // under locks t3's ceiling-P(0) section blocks it (B = 8,
        // R = 20+8+10 = 38); under LEFT-RS the hep max-recovery charges
        // t1's retry term (R = 20+4+10 = 34).
        assert_eq!(locks[1].response, Some(us(38)));
        assert_eq!(cas[1].response, Some(us(34)));
    }
}
