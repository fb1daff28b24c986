//! The campaign executor: one entry point over two paths.
//!
//! [`run_trials_with`] runs a campaign in-thread when it asks for at
//! most one worker and arms neither a trial budget nor chaos
//! injection; otherwise it runs on the work-stealing executor, the only
//! path with a watchdog. Both paths share one set-up — resumed prefix,
//! block partition, checkpoint cadence — and one in-order fold, so
//! their accumulators are bit-identical.
//!
//! # Scheduling
//!
//! Trials are partitioned into fixed-size *blocks*; the partition is a
//! pure function of the trial count (never of the worker count).
//! Blocks are dealt round-robin across per-worker deques. A worker
//! claims from the front of its own deque (locality: it keeps walking
//! its dealt arithmetic progression of block indices), falls back to
//! the rescue queue left behind by lost workers, and finally steals
//! from the *back* of the most-loaded victim's deque — the block its
//! owner would reach last.
//!
//! # Determinism
//!
//! Each trial runs into a fresh accumulator; successful trial
//! accumulators fold into the block partial in trial order; block
//! partials fold into the campaign accumulator strictly in block-index
//! order on the coordinating thread. The fold tree is therefore fixed
//! by `(trials, block_size)` alone and every accumulator bit — floats
//! included — is identical at any worker count, under any steal
//! schedule, across worker loss and re-execution, and across a
//! checkpoint/resume split.
//!
//! # Robustness
//!
//! Every trial runs under `catch_unwind`; a panic becomes a
//! [`Reproducer`] record, not a dead campaign. A watchdog asks
//! over-budget trials to cancel cooperatively, and past a grace period
//! declares the stuck worker lost: its deque is tipped into the rescue
//! queue, the stuck trial is quarantined (it would stick again), and
//! its in-flight block is re-executed by the survivors — trials are
//! pure functions of their index, so re-execution is safe. If every
//! worker dies the watchdog spawns a replacement, so the campaign
//! always drains.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::campaign::{
    CampaignOptions, CampaignRun, EngineConfig, EngineReport, Reproducer, TrialCampaign, TrialCtx,
};

/// Default block size for a campaign of `trials` trials: aim for ~256
/// blocks (enough slack for stealing), clamped to `[1, 4096]` so huge
/// campaigns stream through bounded blocks. A pure function of the
/// trial count — never of the worker count — so the fold tree, and
/// with it every accumulator bit, is fixed before scheduling starts.
pub fn auto_block_size(trials: u64) -> u64 {
    trials.div_ceil(256).clamp(1, 4096)
}

/// One contiguous run of trial indices, the unit of scheduling.
#[derive(Debug, Clone, Copy)]
struct Block {
    index: u64,
    start: u64,
    end: u64,
}

/// Everything the scheduler mutates, under one mutex.
struct SchedState<A> {
    /// Per-worker deques of unclaimed blocks.
    queues: Vec<VecDeque<Block>>,
    /// Blocks reclaimed from lost workers, claimable by anyone.
    rescue: VecDeque<Block>,
    /// Blocks not yet delivered to `pending` (queued or in flight).
    outstanding: u64,
    /// Completed block partials awaiting the in-order fold.
    pending: BTreeMap<u64, A>,
    /// Next block index the folder will consume.
    cursor: u64,
    /// Per-worker lost flags (a lost worker's reports are discarded).
    lost: Vec<bool>,
    /// Workers not lost and not exited.
    live: usize,
    /// Trial indices to skip on (re-)execution.
    quarantined: BTreeSet<u64>,
    panicked: Vec<Reproducer>,
    timed_out: Vec<Reproducer>,
    completed: u64,
    skipped: u64,
    steals: u64,
    lost_workers: usize,
    respawned: usize,
    max_pending: usize,
}

/// Watchdog-visible execution state of one worker thread.
///
/// Each worker stores to its slot on every trial, so slots are aligned
/// to their own pair of cache lines: two slots sharing a line would
/// make every store invalidate the other worker's copy.
#[repr(align(128))]
struct WorkerSlot {
    /// Cancellation request for the trial in flight.
    cancel: AtomicBool,
    /// Trial index in flight (valid while `busy_since != 0`).
    trial: AtomicU64,
    /// Nanoseconds since the engine epoch at which the in-flight trial
    /// started; 0 while idle.
    busy_since: AtomicU64,
    /// Trials executed by this worker (drives chaos injection).
    trials_run: AtomicU64,
    /// Block currently being executed, for rescue on loss.
    current: Mutex<Option<Block>>,
}

impl WorkerSlot {
    fn new() -> Self {
        WorkerSlot {
            cancel: AtomicBool::new(false),
            trial: AtomicU64::new(0),
            busy_since: AtomicU64::new(0),
            trials_run: AtomicU64::new(0),
            current: Mutex::new(None),
        }
    }
}

struct Shared<C: TrialCampaign> {
    campaign: C,
    cfg: EngineConfig,
    state: Mutex<SchedState<C::Acc>>,
    /// Wakes workers (new rescue work, or pending drained below cap).
    work_cv: Condvar,
    /// Wakes the folder (a new partial landed in `pending`).
    fold_cv: Condvar,
    /// Worker slots; grows if replacements are spawned.
    slots: Mutex<Vec<Arc<WorkerSlot>>>,
    epoch: Instant,
    done: AtomicBool,
    /// Completed-but-unfolded block cap: claiming stalls above it so
    /// buffering stays O(workers) regardless of trial count.
    pending_cap: usize,
}

impl<C: TrialCampaign> Shared<C> {
    fn nanos(&self) -> u64 {
        (self.epoch.elapsed().as_nanos() as u64).max(1)
    }
}

fn panic_detail(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panicked: {s}")
    } else {
        "panicked: <non-string payload>".to_string()
    }
}

/// Partitions `[base, total)` into blocks of `block_size` trials.
fn partition(base: u64, total: u64, block_size: u64) -> Vec<Block> {
    let mut blocks = Vec::new();
    let mut start = base;
    let mut index = 0;
    while start < total {
        let end = (start + block_size).min(total);
        blocks.push(Block { index, start, end });
        index += 1;
        start = end;
    }
    blocks
}

/// The in-order fold both paths share: the campaign accumulator (the
/// resumed prefix, or empty) and the checkpoint cadence.
struct Fold<'cb, A> {
    acc: A,
    every: u64,
    next_checkpoint: u64,
    #[allow(clippy::type_complexity)]
    on_checkpoint: Option<&'cb dyn Fn(u64, &A)>,
}

impl<A> Fold<'_, A> {
    /// Merges the partial of the next block, which ends at trial
    /// `end`, and fires the checkpoint callback when the cadence is due.
    fn block<C: TrialCampaign<Acc = A>>(&mut self, campaign: &C, partial: A, end: u64) {
        campaign.merge(&mut self.acc, partial);
        if end >= self.next_checkpoint {
            if let Some(cb) = self.on_checkpoint {
                cb(end, &self.acc);
            }
            self.next_checkpoint = end.saturating_add(self.every);
        }
    }
}

/// The set-up both paths share: the block partition of the trials
/// still to run and the fold that starts from the resumed prefix.
fn plan<'cb, C: TrialCampaign>(
    campaign: &C,
    cfg: &EngineConfig,
    opts: CampaignOptions<'cb, C::Acc>,
) -> (Vec<Block>, Fold<'cb, C::Acc>) {
    let total = campaign.trials();
    let base = opts.resume.as_ref().map_or(0, |r| r.trials_done.min(total));
    let acc = match opts.resume {
        Some(r) => r.acc,
        None => campaign.empty(),
    };
    // Sized from the whole campaign, not the resumed suffix: a
    // checkpoint lands on a block boundary of the uninterrupted run, so
    // the suffix splits into exactly that run's remaining blocks and
    // the fold tree — every float bit — is unchanged by the resume.
    let block_size = cfg
        .block_size
        .unwrap_or_else(|| auto_block_size(total))
        .max(1);
    let fold = Fold {
        acc,
        every: cfg.checkpoint_every,
        next_checkpoint: if cfg.checkpoint_every > 0 {
            base.saturating_add(cfg.checkpoint_every)
        } else {
            u64::MAX
        },
        on_checkpoint: opts.on_checkpoint,
    };
    (partition(base, total, block_size), fold)
}

/// The quarantine record for `trial` of `campaign`.
fn reproducer<C: TrialCampaign>(campaign: &C, trial: u64, detail: String) -> Reproducer {
    Reproducer {
        campaign: campaign.label(),
        rng_label: campaign.rng_label(),
        trial,
        detail,
    }
}

/// Runs one trial in a fresh accumulator under `catch_unwind`.
enum TrialExec<A> {
    Done(A),
    Panicked(String),
    TimedOut(String),
}

fn exec_trial<C: TrialCampaign>(
    campaign: &C,
    trial: u64,
    cancel: &AtomicBool,
    budget: Option<Duration>,
) -> TrialExec<C::Acc> {
    let ctx = TrialCtx::new(cancel, budget, trial);
    let mut acc = campaign.empty();
    let started = ctx.started();
    let result = catch_unwind(AssertUnwindSafe(|| {
        campaign.run_trial(trial, &ctx, &mut acc)
    }));
    let elapsed = started.elapsed();
    match result {
        Err(payload) => TrialExec::Panicked(panic_detail(payload)),
        Ok(()) if cancel.load(Ordering::Relaxed) || budget.is_some_and(|b| elapsed > b) => {
            TrialExec::TimedOut(format!(
                "exceeded trial budget: ran {}ms against {}ms",
                elapsed.as_millis(),
                budget.map_or(0, |b| b.as_millis())
            ))
        }
        Ok(()) => TrialExec::Done(acc),
    }
}

/// Claims the next block for worker `me`, or `None` if none is
/// runnable right now: own deque front, then rescue, then steal from
/// the back of the most-loaded victim.
fn claim<A>(st: &mut SchedState<A>, me: usize) -> Option<Block> {
    if let Some(b) = st.queues[me].pop_front() {
        return Some(b);
    }
    if let Some(b) = st.rescue.pop_front() {
        return Some(b);
    }
    let victim = (0..st.queues.len())
        .filter(|&v| v != me && !st.queues[v].is_empty())
        .max_by_key(|&v| st.queues[v].len())?;
    st.steals += 1;
    st.queues[victim].pop_back()
}

/// Claims the specific block `index` if it is still queued anywhere
/// (used under fold-buffer backpressure, where only the folder's next
/// block may enter execution).
fn claim_index<A>(st: &mut SchedState<A>, index: u64) -> Option<Block> {
    let SchedState { queues, rescue, .. } = st;
    queues
        .iter_mut()
        .chain(std::iter::once(rescue))
        .find_map(|q| {
            let pos = q.iter().position(|b| b.index == index)?;
            q.remove(pos)
        })
}

/// Marks worker `w` lost: tips its deque (and, if given, its in-flight
/// block) into the rescue queue.
fn mark_lost<A>(st: &mut SchedState<A>, w: usize, in_flight: Option<Block>) {
    st.lost[w] = true;
    st.live -= 1;
    st.lost_workers += 1;
    let queue = std::mem::take(&mut st.queues[w]);
    st.rescue.extend(queue);
    if let Some(b) = in_flight {
        // Front of the rescue queue: the folder is likely waiting on it.
        st.rescue.push_front(b);
    }
}

fn worker_loop<C: TrialCampaign + Send + Sync + 'static>(
    shared: Arc<Shared<C>>,
    me: usize,
    slot: Arc<WorkerSlot>,
) {
    loop {
        // Claim the next block (or exit when the campaign has drained).
        let block = {
            let mut st = shared.state.lock().expect("engine state poisoned");
            loop {
                if st.lost[me] {
                    return;
                }
                if st.outstanding == 0 {
                    st.live -= 1;
                    return;
                }
                // Backpressure: once the fold buffer is at cap, the only
                // claimable block is the one the folder is waiting on —
                // anything else would grow the buffer past O(workers).
                if st.pending.len() < shared.pending_cap {
                    if let Some(b) = claim(&mut st, me) {
                        break b;
                    }
                } else {
                    let cursor = st.cursor;
                    if let Some(b) = claim_index(&mut st, cursor) {
                        break b;
                    }
                }
                st = shared.work_cv.wait(st).expect("engine state poisoned");
            }
        };
        *slot.current.lock().expect("slot poisoned") = Some(block);

        // Snapshot the quarantine list for this range.
        let quarantined: Vec<u64> = {
            let st = shared.state.lock().expect("engine state poisoned");
            st.quarantined
                .range(block.start..block.end)
                .copied()
                .collect()
        };

        let mut acc = shared.campaign.empty();
        let mut panicked = Vec::new();
        let mut timed_out = Vec::new();
        let mut completed = 0u64;
        let mut skipped = 0u64;
        let mut died_mid_block = false;
        for trial in block.start..block.end {
            if quarantined.binary_search(&trial).is_ok() {
                skipped += 1;
                continue;
            }
            slot.trial.store(trial, Ordering::Relaxed);
            slot.cancel.store(false, Ordering::Relaxed);
            slot.busy_since.store(shared.nanos(), Ordering::Relaxed);
            let exec = exec_trial(
                &shared.campaign,
                trial,
                &slot.cancel,
                shared.cfg.trial_budget,
            );
            slot.busy_since.store(0, Ordering::Relaxed);
            match exec {
                TrialExec::Done(tacc) => {
                    shared.campaign.merge(&mut acc, tacc);
                    completed += 1;
                }
                TrialExec::Panicked(detail) => {
                    panicked.push(reproducer(&shared.campaign, trial, detail))
                }
                TrialExec::TimedOut(detail) => {
                    timed_out.push(reproducer(&shared.campaign, trial, detail))
                }
            }
            slot.trials_run.fetch_add(1, Ordering::Relaxed);
            if let Some(kill) = shared.cfg.chaos_kill {
                if kill.worker == me && slot.trials_run.load(Ordering::Relaxed) >= kill.after_trials
                {
                    died_mid_block = true;
                    break;
                }
            }
        }

        let mut current = slot.current.lock().expect("slot poisoned");
        let mut st = shared.state.lock().expect("engine state poisoned");
        if st.lost[me] {
            // The watchdog already rescued our block; our partial (and
            // its outcome records) must be discarded — the re-execution
            // will regenerate them.
            return;
        }
        let rescued = current.take();
        if died_mid_block {
            // Chaos injection: abandon the partial block and die. The
            // full block is re-executed elsewhere; trials are pure
            // functions of their index, so the result is unchanged.
            mark_lost(&mut st, me, rescued);
            shared.work_cv.notify_all();
            shared.fold_cv.notify_all();
            return;
        }
        st.pending.insert(block.index, acc);
        st.max_pending = st.max_pending.max(st.pending.len());
        st.outstanding -= 1;
        st.completed += completed;
        st.skipped += skipped;
        st.panicked.append(&mut panicked);
        st.timed_out.append(&mut timed_out);
        shared.fold_cv.notify_all();
        if st.outstanding == 0 {
            shared.work_cv.notify_all();
        }
    }
}

/// Watchdog: cancels over-budget trials, declares non-cooperating
/// workers lost past the grace period, and respawns a worker if every
/// worker has died with work still queued.
fn watchdog_loop<C: TrialCampaign + Send + Sync + 'static>(shared: Arc<Shared<C>>) {
    let poll = shared
        .cfg
        .trial_budget
        .map(|b| (b / 4).clamp(Duration::from_millis(1), Duration::from_millis(50)))
        .unwrap_or(Duration::from_millis(2));
    while !shared.done.load(Ordering::Relaxed) {
        std::thread::sleep(poll);
        let slots: Vec<Arc<WorkerSlot>> = shared.slots.lock().expect("slots poisoned").clone();
        if let Some(budget) = shared.cfg.trial_budget {
            let grace = budget + shared.cfg.lost_worker_grace;
            for (w, slot) in slots.iter().enumerate() {
                let busy = slot.busy_since.load(Ordering::Relaxed);
                if busy == 0 {
                    continue;
                }
                let elapsed = Duration::from_nanos(shared.nanos().saturating_sub(busy));
                if elapsed > budget {
                    slot.cancel.store(true, Ordering::Relaxed);
                }
                if elapsed > grace {
                    // The trial ignored cancellation: declare the worker
                    // lost, quarantine the stuck trial and rescue the
                    // rest of its block.
                    let mut current = slot.current.lock().expect("slot poisoned");
                    let mut st = shared.state.lock().expect("engine state poisoned");
                    let still_same = slot.busy_since.load(Ordering::Relaxed) == busy;
                    if st.lost[w] || !still_same {
                        continue;
                    }
                    let trial = slot.trial.load(Ordering::Relaxed);
                    st.quarantined.insert(trial);
                    let detail = format!(
                        "stuck past budget + grace ({}ms); worker {w} declared lost",
                        grace.as_millis()
                    );
                    st.timed_out
                        .push(reproducer(&shared.campaign, trial, detail));
                    st.skipped += 1;
                    mark_lost(&mut st, w, current.take());
                    shared.work_cv.notify_all();
                    shared.fold_cv.notify_all();
                }
            }
        }
        // Graceful degradation floor: if everyone died with work left,
        // spawn a replacement so the campaign still drains.
        let respawn = {
            let mut st = shared.state.lock().expect("engine state poisoned");
            if st.live == 0 && st.outstanding > 0 {
                let idx = st.queues.len();
                st.queues.push(Default::default());
                st.lost.push(false);
                st.live += 1;
                st.respawned += 1;
                Some(idx)
            } else {
                None
            }
        };
        if let Some(idx) = respawn {
            let slot = Arc::new(WorkerSlot::new());
            shared
                .slots
                .lock()
                .expect("slots poisoned")
                .push(Arc::clone(&slot));
            let shared2 = Arc::clone(&shared);
            std::thread::spawn(move || worker_loop(shared2, idx, slot));
        }
    }
}

/// Runs a campaign. See [`run_trials_with`] for resume and checkpoint
/// hooks.
pub fn run_trials<C>(campaign: C, cfg: &EngineConfig) -> CampaignRun<C::Acc>
where
    C: TrialCampaign + Send + Sync + 'static,
{
    run_trials_with(campaign, cfg, CampaignOptions::default())
}

/// Runs a campaign with resume / checkpoint options.
///
/// The path is chosen from the configuration: in-thread when
/// `cfg.workers <= 1` and neither [`EngineConfig::trial_budget`] nor
/// [`EngineConfig::chaos_kill`] is set — zero threads, no stealing —
/// and on the work-stealing executor otherwise, because only the
/// executor has the watchdog that enforces budgets and survives worker
/// loss. Both paths produce bit-identical accumulators.
pub fn run_trials_with<C>(
    campaign: C,
    cfg: &EngineConfig,
    opts: CampaignOptions<'_, C::Acc>,
) -> CampaignRun<C::Acc>
where
    C: TrialCampaign + Send + Sync + 'static,
{
    let (blocks, fold) = plan(&campaign, cfg, opts);
    if cfg.workers <= 1 && cfg.trial_budget.is_none() && cfg.chaos_kill.is_none() {
        run_in_thread(&campaign, blocks, fold)
    } else {
        run_executor(campaign, cfg, blocks, fold)
    }
}

/// The in-thread path: the shared partition and fold, trial after
/// trial on the calling thread. Panics are still isolated per trial.
fn run_in_thread<C: TrialCampaign>(
    campaign: &C,
    blocks: Vec<Block>,
    mut fold: Fold<'_, C::Acc>,
) -> CampaignRun<C::Acc> {
    // No budget on this path, so nothing ever requests cancellation.
    let never_cancelled = AtomicBool::new(false);
    let mut report = EngineReport {
        trials: campaign.trials(),
        blocks: blocks.len() as u64,
        workers: 0,
        ..EngineReport::default()
    };
    for b in &blocks {
        let mut partial = campaign.empty();
        for trial in b.start..b.end {
            match exec_trial(campaign, trial, &never_cancelled, None) {
                TrialExec::Done(tacc) => {
                    campaign.merge(&mut partial, tacc);
                    report.completed += 1;
                }
                TrialExec::Panicked(detail) => {
                    report.panicked.push(reproducer(campaign, trial, detail))
                }
                TrialExec::TimedOut(detail) => {
                    report.timed_out.push(reproducer(campaign, trial, detail))
                }
            }
        }
        fold.block(campaign, partial, b.end);
    }
    CampaignRun {
        acc: fold.acc,
        report,
    }
}

/// The work-stealing executor path.
///
/// Workers are real (unscoped) threads: a worker declared lost may
/// still be stuck inside a trial and is simply abandoned — it discards
/// its own results when it eventually returns. All surviving workers
/// are joined before this function returns.
fn run_executor<C>(
    campaign: C,
    cfg: &EngineConfig,
    blocks: Vec<Block>,
    mut fold: Fold<'_, C::Acc>,
) -> CampaignRun<C::Acc>
where
    C: TrialCampaign + Send + Sync + 'static,
{
    let total = campaign.trials();
    let workers = cfg.workers.max(1);
    let n_blocks = blocks.len() as u64;
    let mut queues: Vec<VecDeque<Block>> = vec![VecDeque::new(); workers];
    for b in &blocks {
        queues[(b.index % workers as u64) as usize].push_back(*b);
    }
    let shared = Arc::new(Shared {
        campaign,
        cfg: cfg.clone(),
        state: Mutex::new(SchedState {
            queues,
            rescue: VecDeque::new(),
            outstanding: n_blocks,
            pending: BTreeMap::new(),
            cursor: 0,
            lost: vec![false; workers],
            live: workers,
            quarantined: BTreeSet::new(),
            panicked: Vec::new(),
            timed_out: Vec::new(),
            completed: 0,
            skipped: 0,
            steals: 0,
            lost_workers: 0,
            respawned: 0,
            max_pending: 0,
        }),
        work_cv: Condvar::new(),
        fold_cv: Condvar::new(),
        slots: Mutex::new((0..workers).map(|_| Arc::new(WorkerSlot::new())).collect()),
        epoch: Instant::now(),
        done: AtomicBool::new(false),
        pending_cap: workers * 4 + 4,
    });

    let handles: Vec<_> = {
        let slots = shared.slots.lock().expect("slots poisoned").clone();
        slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(shared, i, slot))
            })
            .collect()
    };
    let watchdog = (cfg.trial_budget.is_some() || cfg.chaos_kill.is_some()).then(|| {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || watchdog_loop(shared))
    });

    // In-order fold on this thread: blocks leave `pending` strictly by
    // index, so the fold tree never depends on the schedule.
    let mut folded_blocks = 0u64;
    while folded_blocks < n_blocks {
        let batch: Vec<(u64, C::Acc)> = {
            let mut st = shared.state.lock().expect("engine state poisoned");
            loop {
                let mut batch = Vec::new();
                loop {
                    let idx = st.cursor;
                    let Some(partial) = st.pending.remove(&idx) else {
                        break;
                    };
                    st.cursor += 1;
                    batch.push((idx, partial));
                }
                if !batch.is_empty() {
                    // Draining may unblock claim backpressure.
                    shared.work_cv.notify_all();
                    break batch;
                }
                st = shared.fold_cv.wait(st).expect("engine state poisoned");
            }
        };
        for (idx, partial) in batch {
            fold.block(&shared.campaign, partial, blocks[idx as usize].end);
            folded_blocks += 1;
        }
    }
    shared.done.store(true, Ordering::Relaxed);
    {
        // Wake anything still waiting so it can observe outstanding == 0.
        let _st = shared.state.lock().expect("engine state poisoned");
        shared.work_cv.notify_all();
    }
    if let Some(w) = watchdog {
        let _ = w.join();
    }
    let lost = {
        let st = shared.state.lock().expect("engine state poisoned");
        st.lost.clone()
    };
    for (i, h) in handles.into_iter().enumerate() {
        // A lost worker may be stuck inside a trial forever; abandon it.
        if !lost.get(i).copied().unwrap_or(true) {
            let _ = h.join();
        }
    }

    let mut st = shared.state.lock().expect("engine state poisoned");
    let mut panicked = std::mem::take(&mut st.panicked);
    let mut timed_out = std::mem::take(&mut st.timed_out);
    panicked.sort_by_key(|r| r.trial);
    timed_out.sort_by_key(|r| r.trial);
    CampaignRun {
        acc: fold.acc,
        report: EngineReport {
            trials: total,
            completed: st.completed,
            skipped: st.skipped,
            panicked,
            timed_out,
            blocks: n_blocks,
            steals: st.steals,
            workers,
            lost_workers: st.lost_workers,
            respawned_workers: st.respawned,
            max_pending_blocks: st.max_pending,
        },
    }
}
