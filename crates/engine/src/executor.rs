//! The campaign executor: one entry point over two paths.
//!
//! [`run_trials_with`] runs a campaign in-thread when it asks for at
//! most one worker and arms neither a trial budget nor chaos
//! injection; otherwise it runs on the threaded executor, the only
//! path with a watchdog. Both paths share one set-up — resumed prefix,
//! block partition, checkpoint cadence — and one in-order fold, so
//! their accumulators are bit-identical.
//!
//! On the executor the calling thread is worker 0: at `n` workers it
//! starts `n − 1` helper threads, claims blocks like they do and folds
//! what is ready between its own blocks. Under a watchdog it only
//! folds, and `n` helpers run the trials: the watchdog may have to
//! abandon a worker stuck in a trial, and the calling thread cannot be
//! abandoned.
//!
//! # Scheduling
//!
//! Trials are partitioned into fixed-size *blocks*; the partition is a
//! pure function of the trial count (never of the worker count).
//! Every worker claims from one order, the block index: the lowest
//! block not yet claimed, unless a block rescued from a lost worker
//! has a lower index. Blocks in flight therefore always sit just past
//! the fold cursor, whatever their costs. Once the fold buffer is at
//! its cap only the cursor block may enter execution, and with
//! in-order claiming that block is never stranded behind work claimed
//! far ahead of it.
//!
//! # Determinism
//!
//! Each trial runs into a fresh accumulator; successful trial
//! accumulators fold into the block partial in trial order; block
//! partials fold into the campaign accumulator strictly in block-index
//! order on the calling thread. The fold tree is therefore fixed
//! by `(trials, block_size)` alone and every accumulator bit — floats
//! included — is identical at any worker count, under any claim
//! interleaving, across worker loss and re-execution, and across a
//! checkpoint/resume split.
//!
//! # Robustness
//!
//! Every trial runs under `catch_unwind`; a panic becomes a
//! [`Reproducer`] record, not a dead campaign. A watchdog asks
//! over-budget trials to cancel cooperatively, and past a grace period
//! declares the stuck worker lost: the stuck trial is quarantined (it
//! would stick again) and its in-flight block goes into the rescue set,
//! to be re-executed by the survivors — trials are pure functions of
//! their index, so re-execution is safe. If every helper dies the
//! watchdog spawns a replacement, so the campaign always drains.

use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::campaign::{
    CampaignOptions, CampaignRun, EngineConfig, EngineReport, Reproducer, TrialCampaign, TrialCtx,
};

/// Default block size for a campaign of `trials` trials: aim for ~256
/// blocks (enough to keep every worker busy), clamped to `[1, 4096]`
/// so huge campaigns stream through bounded blocks. A pure function of
/// the trial count — never of the worker count — so the fold tree, and
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
    /// The block partition, indexed by block index.
    blocks: Vec<Block>,
    /// Lowest block index never claimed.
    next: u64,
    /// Indices of blocks taken back from lost workers, claimable by
    /// anyone, lowest first.
    rescue: BTreeSet<u64>,
    /// Blocks not yet delivered to `pending` (unclaimed or in flight).
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
    lost_workers: usize,
    respawned: usize,
    max_pending: usize,
    /// Time helpers spent blocked on `work_cv`, summed over helpers.
    claim_wait: Duration,
}

impl<A> SchedState<A> {
    fn new(blocks: Vec<Block>, workers: usize) -> Self {
        SchedState {
            next: 0,
            rescue: BTreeSet::new(),
            outstanding: blocks.len() as u64,
            blocks,
            pending: BTreeMap::new(),
            cursor: 0,
            lost: vec![false; workers],
            live: workers,
            quarantined: BTreeSet::new(),
            panicked: Vec::new(),
            timed_out: Vec::new(),
            completed: 0,
            skipped: 0,
            lost_workers: 0,
            respawned: 0,
            max_pending: 0,
            claim_wait: Duration::ZERO,
        }
    }
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

/// Claims the lowest-indexed unclaimed block — a rescued block, else
/// `next` — or `None` if none is runnable right now. Once `cap`
/// completed blocks await the fold, only the block the folder is
/// waiting on (`cursor`) may enter execution: anything else would grow
/// the fold buffer past O(workers).
fn claim<A>(st: &mut SchedState<A>, cap: usize) -> Option<Block> {
    // A rescued block was claimed once, so its index is below `next`.
    let index = st.rescue.first().copied().unwrap_or(st.next);
    if index >= st.blocks.len() as u64 || (st.pending.len() >= cap && index != st.cursor) {
        return None;
    }
    if st.rescue.pop_first().is_none() {
        st.next += 1;
    }
    Some(st.blocks[index as usize])
}

/// Marks worker `w` lost and puts its in-flight block, if any, into the
/// rescue set.
fn mark_lost<A>(st: &mut SchedState<A>, w: usize, in_flight: Option<Block>) {
    st.lost[w] = true;
    st.live -= 1;
    st.lost_workers += 1;
    if let Some(b) = in_flight {
        st.rescue.insert(b.index);
    }
}

/// What one worker made of one block: its partial and outcome records,
/// to be delivered for the fold.
struct BlockPartial<A> {
    acc: A,
    panicked: Vec<Reproducer>,
    timed_out: Vec<Reproducer>,
    completed: u64,
    skipped: u64,
}

/// Runs the trials of `block` on the worker that owns `slot`, skipping
/// quarantined ones. Returns `None` when chaos injection kills the
/// worker partway through: `kill_after` is the number of trials the
/// worker may run in all, or `None` if it is no chaos victim.
fn run_block<C: TrialCampaign>(
    shared: &Shared<C>,
    slot: &WorkerSlot,
    block: Block,
    kill_after: Option<u64>,
) -> Option<BlockPartial<C::Acc>> {
    // Snapshot the quarantine list for this range.
    let quarantined: Vec<u64> = {
        let st = shared.state.lock().expect("engine state poisoned");
        st.quarantined
            .range(block.start..block.end)
            .copied()
            .collect()
    };

    let mut out = BlockPartial {
        acc: shared.campaign.empty(),
        panicked: Vec::new(),
        timed_out: Vec::new(),
        completed: 0,
        skipped: 0,
    };
    for trial in block.start..block.end {
        if quarantined.binary_search(&trial).is_ok() {
            out.skipped += 1;
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
                shared.campaign.merge(&mut out.acc, tacc);
                out.completed += 1;
            }
            TrialExec::Panicked(detail) => {
                out.panicked
                    .push(reproducer(&shared.campaign, trial, detail))
            }
            TrialExec::TimedOut(detail) => {
                out.timed_out
                    .push(reproducer(&shared.campaign, trial, detail))
            }
        }
        let run = slot.trials_run.fetch_add(1, Ordering::Relaxed) + 1;
        if kill_after.is_some_and(|after| run >= after) {
            return None;
        }
    }
    Some(out)
}

/// Hands the outcome of `block` — run by worker `me` from `slot` — to
/// the fold. Returns false when the worker must stop: the watchdog has
/// declared it lost, or chaos injection killed it (`ran` is `None`).
fn deliver<C: TrialCampaign>(
    shared: &Shared<C>,
    me: usize,
    slot: &WorkerSlot,
    block: Block,
    ran: Option<BlockPartial<C::Acc>>,
) -> bool {
    let mut current = slot.current.lock().expect("slot poisoned");
    let mut st = shared.state.lock().expect("engine state poisoned");
    if st.lost[me] {
        // The watchdog already rescued our block; our partial (and
        // its outcome records) must be discarded — the re-execution
        // will regenerate them.
        return false;
    }
    let rescued = current.take();
    let Some(mut partial) = ran else {
        // Chaos injection: abandon the partial block and die. The
        // full block is re-executed elsewhere; trials are pure
        // functions of their index, so the result is unchanged.
        mark_lost(&mut st, me, rescued);
        shared.work_cv.notify_all();
        shared.fold_cv.notify_all();
        return false;
    };
    st.pending.insert(block.index, partial.acc);
    st.max_pending = st.max_pending.max(st.pending.len());
    st.outstanding -= 1;
    st.completed += partial.completed;
    st.skipped += partial.skipped;
    st.panicked.append(&mut partial.panicked);
    st.timed_out.append(&mut partial.timed_out);
    shared.fold_cv.notify_all();
    if st.outstanding == 0 {
        shared.work_cv.notify_all();
    }
    true
}

/// A helper thread: claims blocks in index order and delivers them
/// until the campaign drains or the worker is lost.
fn worker_loop<C: TrialCampaign + Send + Sync + 'static>(
    shared: Arc<Shared<C>>,
    me: usize,
    slot: Arc<WorkerSlot>,
) {
    let kill_after = shared
        .cfg
        .chaos_kill
        .filter(|kill| kill.worker == me)
        .map(|kill| kill.after_trials);
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
                if let Some(b) = claim(&mut st, shared.pending_cap) {
                    break b;
                }
                let waited = Instant::now();
                st = shared.work_cv.wait(st).expect("engine state poisoned");
                st.claim_wait += waited.elapsed();
            }
        };
        *slot.current.lock().expect("slot poisoned") = Some(block);
        let ran = run_block(&shared, &slot, block, kill_after);
        if !deliver(&shared, me, &slot, block, ran) {
            return;
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
                let idx = st.lost.len();
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
            if spawn_worker(shared2, idx, slot).is_none() {
                // No thread to be had: the replacement counts as lost
                // at once, and the next poll tries again.
                let mut st = shared.state.lock().expect("engine state poisoned");
                st.lost[idx] = true;
                st.live -= 1;
                st.respawned -= 1;
            }
        }
    }
}

/// Starts worker `me` on a thread of its own, or returns `None` when the
/// system has no thread to give.
fn spawn_worker<C: TrialCampaign + Send + Sync + 'static>(
    shared: Arc<Shared<C>>,
    me: usize,
    slot: Arc<WorkerSlot>,
) -> Option<std::thread::JoinHandle<()>> {
    std::thread::Builder::new()
        .spawn(move || worker_loop(shared, me, slot))
        .ok()
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
/// [`EngineConfig::chaos_kill`] is set — zero threads — and on the
/// threaded executor otherwise, because only the executor has the
/// watchdog that enforces budgets and survives worker loss. Both paths produce bit-identical accumulators.
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
/// trial on the calling thread. Panics are still isolated per trial;
/// with no trial budget and no watchdog, no trial times out.
fn run_in_thread<C: TrialCampaign>(
    campaign: &C,
    blocks: Vec<Block>,
    mut fold: Fold<'_, C::Acc>,
) -> CampaignRun<C::Acc> {
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

/// The threaded executor path.
///
/// The calling thread is worker 0: it starts `n − 1` helper threads,
/// then claims blocks in the same index order and folds whatever is
/// ready between its own blocks. Under a watchdog (a trial budget or
/// chaos injection) it only folds and `n` helpers run the trials,
/// because the watchdog may abandon a worker stuck in a trial, and the
/// calling thread cannot be abandoned.
///
/// Helpers are real (unscoped) threads: a helper declared lost may
/// still be stuck inside a trial and is simply abandoned — it discards
/// its own results when it eventually returns. All surviving helpers
/// are joined before this function returns.
///
/// No more workers start than there are blocks, since a worker with no
/// block to claim would only idle. A helper whose thread cannot be
/// spawned is simply not there; with no helper at all the calling
/// thread runs every block itself, with no watchdog — an overrun is
/// still reported when its trial returns. The outcome is the same at
/// any worker count.
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
    let planned = cfg.workers.clamp(1, blocks.len().max(1));
    let n_blocks = blocks.len() as u64;
    let watched = cfg.trial_budget.is_some() || cfg.chaos_kill.is_some();
    let shared = Arc::new(Shared {
        campaign,
        cfg: cfg.clone(),
        state: Mutex::new(SchedState::new(blocks, planned)),
        work_cv: Condvar::new(),
        fold_cv: Condvar::new(),
        slots: Mutex::new((0..planned).map(|_| Arc::new(WorkerSlot::new())).collect()),
        epoch: Instant::now(),
        done: AtomicBool::new(false),
        pending_cap: planned * 4 + 4,
    });

    // Helpers take the indices after the caller's, or every index
    // under a watchdog.
    let first_helper = usize::from(!watched);
    let mut handles = Vec::with_capacity(planned);
    let slots = shared.slots.lock().expect("slots poisoned").clone();
    for (i, slot) in slots.iter().enumerate().skip(first_helper) {
        match spawn_worker(Arc::clone(&shared), i, Arc::clone(slot)) {
            Some(h) => handles.push(h),
            None => break,
        }
    }
    let caller_slot = (!watched || handles.is_empty()).then(|| Arc::clone(&slots[0]));
    let workers = if handles.is_empty() {
        1
    } else {
        first_helper + handles.len()
    };
    if workers < planned {
        // Forget the workers that never started; the running ones only
        // ever touch their own, lower, indices.
        shared
            .slots
            .lock()
            .expect("slots poisoned")
            .truncate(workers);
        let mut st = shared.state.lock().expect("engine state poisoned");
        st.lost.truncate(workers);
        st.live -= planned - workers;
    }
    // Without a watchdog thread nothing is cancelled mid-trial, but an
    // overrun is still reported when its trial returns.
    let watchdog = (watched && !handles.is_empty())
        .then(|| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .spawn(move || watchdog_loop(shared))
                .ok()
        })
        .flatten();

    // In-order fold on this thread: blocks leave `pending` strictly by
    // index, so the fold tree never depends on the schedule. When
    // nothing is ready the caller runs a block of its own, if it is a
    // worker and a block is claimable, and waits otherwise.
    enum Next<A> {
        /// (end trial, partial) of each ready block, in index order.
        Fold(Vec<(u64, A)>),
        Run(Block),
    }
    let mut folded_blocks = 0u64;
    let mut fold_wait = Duration::ZERO;
    while folded_blocks < n_blocks {
        let next = {
            let mut st = shared.state.lock().expect("engine state poisoned");
            loop {
                let mut batch = Vec::new();
                loop {
                    let idx = st.cursor;
                    let Some(partial) = st.pending.remove(&idx) else {
                        break;
                    };
                    st.cursor += 1;
                    batch.push((st.blocks[idx as usize].end, partial));
                }
                if !batch.is_empty() {
                    // Draining may unblock claim backpressure.
                    shared.work_cv.notify_all();
                    break Next::Fold(batch);
                }
                if caller_slot.is_some() {
                    if let Some(b) = claim(&mut st, shared.pending_cap) {
                        break Next::Run(b);
                    }
                }
                let waited = Instant::now();
                st = shared.fold_cv.wait(st).expect("engine state poisoned");
                fold_wait += waited.elapsed();
            }
        };
        match next {
            Next::Fold(batch) => {
                for (end, partial) in batch {
                    fold.block(&shared.campaign, partial, end);
                    folded_blocks += 1;
                }
            }
            Next::Run(block) => {
                let slot = caller_slot
                    .as_deref()
                    .expect("only a working caller claims");
                *slot.current.lock().expect("slot poisoned") = Some(block);
                // The caller is never a chaos victim, and with no
                // watchdog running it is never declared lost.
                let ran = run_block(&shared, slot, block, None);
                let delivered = deliver(&shared, 0, slot, block, ran);
                debug_assert!(delivered, "the calling thread is never lost");
            }
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
    for (i, h) in (first_helper..).zip(handles) {
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
            workers,
            lost_workers: st.lost_workers,
            respawned_workers: st.respawned,
            max_pending_blocks: st.max_pending,
            claim_wait: st.claim_wait,
            fold_wait,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scheduler over `blocks` one-trial blocks for two workers.
    fn state(blocks: u64) -> SchedState<()> {
        SchedState::new(partition(0, blocks, 1), 2)
    }

    fn next_claim(st: &mut SchedState<()>, cap: usize) -> Option<u64> {
        claim(st, cap).map(|b| b.index)
    }

    #[test]
    fn claims_follow_block_index_order() {
        let mut st = state(5);
        let claims: Vec<_> = std::iter::from_fn(|| next_claim(&mut st, usize::MAX)).collect();
        assert_eq!(claims, [0, 1, 2, 3, 4]);
    }

    #[test]
    fn a_rescued_block_is_claimed_before_next() {
        let mut st = state(8);
        let lost = claim(&mut st, usize::MAX);
        assert_eq!(next_claim(&mut st, usize::MAX), Some(1));
        mark_lost(&mut st, 0, lost);
        assert_eq!(next_claim(&mut st, usize::MAX), Some(0));
        assert_eq!(next_claim(&mut st, usize::MAX), Some(2));
    }

    #[test]
    fn rescued_blocks_come_back_lowest_first() {
        let mut st = state(8);
        let (b0, b1) = (claim(&mut st, usize::MAX), claim(&mut st, usize::MAX));
        mark_lost(&mut st, 1, b1);
        mark_lost(&mut st, 0, b0);
        let claims: Vec<_> = (0..3).map(|_| next_claim(&mut st, usize::MAX)).collect();
        assert_eq!(claims, [Some(0), Some(1), Some(2)]);
    }

    #[test]
    fn at_the_pending_cap_only_the_cursor_block_is_claimable() {
        // A cap of 0 holds the buffer at its cap from the start, with
        // the cursor block (0) still `next`.
        let mut st = state(8);
        assert_eq!(next_claim(&mut st, 0), Some(0));
        assert_eq!(next_claim(&mut st, 0), None, "next (1) is not the cursor");

        // Blocks 0..3 claimed, 1 and 2 completed: the buffer is at a
        // cap of 2 while the folder waits on block 0.
        let mut st = state(8);
        let b0 = claim(&mut st, 2);
        claim(&mut st, 2);
        claim(&mut st, 2);
        st.pending.insert(1, ());
        st.pending.insert(2, ());
        assert_eq!(next_claim(&mut st, 2), None, "next (3) is not the cursor");
        // Block 0's worker is lost: the cursor block is now in the
        // rescue set, and claimable at the cap.
        mark_lost(&mut st, 0, b0);
        assert_eq!(next_claim(&mut st, 2), Some(0));
        assert_eq!(next_claim(&mut st, 2), None);
    }
}
