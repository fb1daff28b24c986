//! Task model: specifications, criticality and control blocks.
//!
//! Tasks follow the paper's periodic *read input → compute → write output*
//! loop (Fig. 2). Each task carries a fixed priority assigned by
//! *criticality* (§2.8): the consequence of failure, not the rate, decides
//! who runs first. The task control block stores the initial CPU context so
//! the kernel can restore a clean state before a recovery execution
//! (scenario iii/iv of Fig. 3).

use std::fmt;

use nlft_sim::time::SimDuration;

/// Identifier of a task within one node's task set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u32);

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task#{}", self.0)
    }
}

/// Fixed priority; **lower numeric value = higher priority**.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Priority(pub u32);

impl Priority {
    /// The highest priority.
    pub const HIGHEST: Priority = Priority(0);
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "prio{}", self.0)
    }
}

/// Task criticality, which drives both priority assignment and the error
/// handling strategy (§2.2):
///
/// * **Critical** tasks are executed under TEM (twice + vote on error) and
///   may consume recovery slack;
/// * **NonCritical** tasks run once; on error they are simply shut down so
///   the critical tasks can keep going.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Criticality {
    /// Failure endangers the controlled system (e.g. a brake request).
    Critical,
    /// Failure is tolerable (e.g. a diagnostic request).
    NonCritical,
}

impl fmt::Display for Criticality {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Criticality::Critical => write!(f, "critical"),
            Criticality::NonCritical => write!(f, "non-critical"),
        }
    }
}

/// Static description of a periodic task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskSpec {
    /// Identifier, unique within the task set.
    pub id: TaskId,
    /// Human-readable name for traces.
    pub name: String,
    /// Release period.
    pub period: SimDuration,
    /// Relative deadline (≤ period for this kernel).
    pub deadline: SimDuration,
    /// Worst-case execution time of *one* copy of the task.
    pub wcet: SimDuration,
    /// Fixed priority.
    pub priority: Priority,
    /// Criticality level.
    pub criticality: Criticality,
}

/// Builder for [`TaskSpec`] with validation at `build` time.
///
/// # Examples
///
/// ```
/// use nlft_kernel::task::{Criticality, Priority, TaskId, TaskSpecBuilder};
/// use nlft_sim::time::SimDuration;
///
/// let spec = TaskSpecBuilder::new(TaskId(1), "brake-ctl")
///     .period(SimDuration::from_millis(5))
///     .wcet(SimDuration::from_micros(400))
///     .priority(Priority(0))
///     .criticality(Criticality::Critical)
///     .build()?;
/// assert_eq!(spec.deadline, spec.period, "deadline defaults to the period");
/// # Ok::<(), nlft_kernel::task::TaskSpecError>(())
/// ```
#[derive(Debug, Clone)]
pub struct TaskSpecBuilder {
    id: TaskId,
    name: String,
    period: Option<SimDuration>,
    deadline: Option<SimDuration>,
    wcet: Option<SimDuration>,
    priority: Priority,
    criticality: Criticality,
}

/// Validation error from [`TaskSpecBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskSpecError {
    /// No period given or period is zero.
    InvalidPeriod,
    /// No WCET given or WCET is zero.
    InvalidWcet,
    /// Deadline is zero or exceeds the period.
    InvalidDeadline,
    /// WCET exceeds the deadline — the task can never meet it.
    WcetExceedsDeadline,
}

impl fmt::Display for TaskSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaskSpecError::InvalidPeriod => write!(f, "period must be positive"),
            TaskSpecError::InvalidWcet => write!(f, "wcet must be positive"),
            TaskSpecError::InvalidDeadline => {
                write!(f, "deadline must be positive and at most the period")
            }
            TaskSpecError::WcetExceedsDeadline => write!(f, "wcet exceeds deadline"),
        }
    }
}

impl std::error::Error for TaskSpecError {}

impl TaskSpecBuilder {
    /// Starts a builder; period, WCET and priority still need setting.
    pub fn new(id: TaskId, name: impl Into<String>) -> Self {
        TaskSpecBuilder {
            id,
            name: name.into(),
            period: None,
            deadline: None,
            wcet: None,
            priority: Priority(u32::MAX),
            criticality: Criticality::NonCritical,
        }
    }

    /// Sets the release period.
    pub fn period(mut self, p: SimDuration) -> Self {
        self.period = Some(p);
        self
    }

    /// Sets the relative deadline (defaults to the period).
    pub fn deadline(mut self, d: SimDuration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Sets the single-copy WCET.
    pub fn wcet(mut self, c: SimDuration) -> Self {
        self.wcet = Some(c);
        self
    }

    /// Sets the fixed priority.
    pub fn priority(mut self, p: Priority) -> Self {
        self.priority = p;
        self
    }

    /// Sets the criticality level.
    pub fn criticality(mut self, c: Criticality) -> Self {
        self.criticality = c;
        self
    }

    /// Validates and builds the spec.
    ///
    /// # Errors
    ///
    /// Returns a [`TaskSpecError`] when the period/WCET are missing or zero,
    /// or the deadline is inconsistent.
    pub fn build(self) -> Result<TaskSpec, TaskSpecError> {
        let period = self
            .period
            .filter(|p| !p.is_zero())
            .ok_or(TaskSpecError::InvalidPeriod)?;
        let wcet = self
            .wcet
            .filter(|c| !c.is_zero())
            .ok_or(TaskSpecError::InvalidWcet)?;
        let deadline = self.deadline.unwrap_or(period);
        if deadline.is_zero() || deadline > period {
            return Err(TaskSpecError::InvalidDeadline);
        }
        if wcet > deadline {
            return Err(TaskSpecError::WcetExceedsDeadline);
        }
        Ok(TaskSpec {
            id: self.id,
            name: self.name,
            period,
            deadline,
            wcet,
            priority: self.priority,
            criticality: self.criticality,
        })
    }
}

/// A validated fixed-priority task set.
///
/// Invariants: non-empty-name tasks with unique ids; iteration order is by
/// descending priority (ascending numeric value), ties broken by id, which
/// is also the scheduler's dispatch order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TaskSet {
    tasks: Vec<TaskSpec>,
}

/// Error adding a task to a set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskSetError {
    /// A task with this id already exists.
    DuplicateId(TaskId),
}

impl fmt::Display for TaskSetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaskSetError::DuplicateId(id) => write!(f, "duplicate {id}"),
        }
    }
}

impl std::error::Error for TaskSetError {}

impl TaskSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        TaskSet::default()
    }

    /// Adds a task, keeping priority order.
    ///
    /// # Errors
    ///
    /// [`TaskSetError::DuplicateId`] if the id is taken.
    pub fn add(&mut self, spec: TaskSpec) -> Result<(), TaskSetError> {
        if self.tasks.iter().any(|t| t.id == spec.id) {
            return Err(TaskSetError::DuplicateId(spec.id));
        }
        self.tasks.push(spec);
        self.tasks.sort_by_key(|t| (t.priority, t.id));
        Ok(())
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// `true` when the set has no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Tasks in descending priority order.
    pub fn iter(&self) -> impl Iterator<Item = &TaskSpec> {
        self.tasks.iter()
    }

    /// Looks up a task by id.
    pub fn get(&self, id: TaskId) -> Option<&TaskSpec> {
        self.tasks.iter().find(|t| t.id == id)
    }

    /// Tasks with strictly higher priority than `task`.
    pub fn higher_priority_than<'a>(
        &'a self,
        task: &TaskSpec,
    ) -> impl Iterator<Item = &'a TaskSpec> + 'a {
        let key = (task.priority, task.id);
        self.tasks.iter().filter(move |t| (t.priority, t.id) < key)
    }

    /// Tasks with higher-or-equal priority (including `task` itself) —
    /// the `hep(i)` set of fault-tolerant response-time analysis.
    pub(crate) fn higher_or_equal_priority<'a>(
        &'a self,
        task: &TaskSpec,
    ) -> impl Iterator<Item = &'a TaskSpec> + 'a {
        let key = (task.priority, task.id);
        self.tasks.iter().filter(move |t| (t.priority, t.id) <= key)
    }

    /// Total single-copy utilisation `Σ C_i / T_i`.
    pub fn utilisation(&self) -> f64 {
        self.tasks
            .iter()
            .map(|t| t.wcet.as_secs_f64() / t.period.as_secs_f64())
            .sum()
    }
}

impl FromIterator<TaskSpec> for TaskSet {
    /// Builds a set, panicking on duplicate ids (use [`TaskSet::add`] for
    /// fallible construction).
    fn from_iter<I: IntoIterator<Item = TaskSpec>>(iter: I) -> Self {
        let mut set = TaskSet::new();
        for t in iter {
            set.add(t).expect("duplicate task id in from_iter");
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    fn spec(id: u32, prio: u32, period_ms: u64, wcet_ms: u64) -> TaskSpec {
        TaskSpecBuilder::new(TaskId(id), format!("t{id}"))
            .period(ms(period_ms))
            .wcet(ms(wcet_ms))
            .priority(Priority(prio))
            .build()
            .unwrap()
    }

    #[test]
    fn builder_validates_period_and_wcet() {
        assert_eq!(
            TaskSpecBuilder::new(TaskId(1), "x").wcet(ms(1)).build(),
            Err(TaskSpecError::InvalidPeriod)
        );
        assert_eq!(
            TaskSpecBuilder::new(TaskId(1), "x").period(ms(5)).build(),
            Err(TaskSpecError::InvalidWcet)
        );
        assert_eq!(
            TaskSpecBuilder::new(TaskId(1), "x")
                .period(ms(5))
                .wcet(ms(6))
                .build(),
            Err(TaskSpecError::WcetExceedsDeadline)
        );
    }

    #[test]
    fn deadline_defaults_to_period_and_is_bounded() {
        let s = spec(1, 0, 10, 2);
        assert_eq!(s.deadline, ms(10));
        assert_eq!(
            TaskSpecBuilder::new(TaskId(1), "x")
                .period(ms(5))
                .deadline(ms(6))
                .wcet(ms(1))
                .build(),
            Err(TaskSpecError::InvalidDeadline)
        );
    }

    #[test]
    fn set_orders_by_priority_then_id() {
        let mut set = TaskSet::new();
        set.add(spec(3, 2, 100, 1)).unwrap();
        set.add(spec(1, 0, 10, 1)).unwrap();
        set.add(spec(2, 0, 20, 1)).unwrap();
        let order: Vec<u32> = set.iter().map(|t| t.id.0).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn duplicate_ids_rejected() {
        let mut set = TaskSet::new();
        set.add(spec(1, 0, 10, 1)).unwrap();
        assert_eq!(
            set.add(spec(1, 1, 20, 1)),
            Err(TaskSetError::DuplicateId(TaskId(1)))
        );
    }

    #[test]
    fn higher_priority_sets() {
        let set: TaskSet = [spec(1, 0, 10, 1), spec(2, 1, 20, 2), spec(3, 2, 40, 4)]
            .into_iter()
            .collect();
        let t2 = set.get(TaskId(2)).unwrap();
        let hp: Vec<u32> = set.higher_priority_than(t2).map(|t| t.id.0).collect();
        assert_eq!(hp, vec![1]);
        let hep: Vec<u32> = set.higher_or_equal_priority(t2).map(|t| t.id.0).collect();
        assert_eq!(hep, vec![1, 2]);
    }

    #[test]
    fn utilisation_sums_ratios() {
        let set: TaskSet = [spec(1, 0, 10, 1), spec(2, 1, 20, 2)].into_iter().collect();
        assert!((set.utilisation() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn criticality_orders_critical_first() {
        assert!(Criticality::Critical < Criticality::NonCritical);
    }
}
