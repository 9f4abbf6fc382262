//! Work-stealing scheduler for energy-point workloads.
//!
//! The paper's scaling story layers momentum/energy parallelism above the
//! per-point solvers (§4, Fig. 9). This module is that level: a
//! persistent worker pool that every sweep of [`crate::TransportEngine`]
//! runs on, reusable for any batch of independent tasks.
//!
//! Every attempt takes one path, whether a pool worker or a nested
//! `execute` runs it:
//!
//! * it runs under `catch_unwind` — a panicking solve becomes a typed
//!   [`TransportError::Panic`] and a fallback value, never a torn sweep;
//! * a failed attempt is re-enqueued after a capped exponential backoff
//!   (2 ms doubling to at most 50 ms), up to a budget of 2 retries;
//! * a task that exhausts the budget is **quarantined**: the batch still
//!   completes with the fallback value (the sweep hands those points to
//!   its interpolation path), and the task's stable key is remembered so a
//!   later batch gives it a single attempt;
//! * an attempt that ends past the batch's soft deadline (derived from
//!   `qtx-machine`'s [`qtx_machine::DeadlineModel`] by the sweep) marks
//!   its task a **straggler**.
//!
//! The pool runs no thread besides its workers. A worker that finds
//! nothing runnable takes a retry whose backoff is over, or parks until the
//! next one falls due or an enqueue wakes it. Each report goes straight
//! into its item's slot.
//!
//! # Determinism contract
//!
//! Results are **bit-identical for any worker count**. Tasks are pure
//! functions of their item (and attempt number); the pool only decides
//! *where* and *when* an attempt runs, never *what* it computes. Reports
//! come back in item order, and every retry/quarantine decision depends
//! only on the attempt outcomes — which are deterministic even under the
//! `fault-inject` harness, whose draws are keyed on mathematical identity
//! rather than call order. Only wall-time-derived fields (`straggler`)
//! may differ between schedules.

use crate::error::TransportError;
use std::collections::{HashSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Retries per task after its first attempt, before quarantine. Each sweep
/// attempt is a *full* escalation-ladder walk, so this multiplies the
/// ladder.
const MAX_RETRIES: u32 = 2;
/// Backoff before the first retry (ms); doubles per retry.
const BACKOFF_BASE_MS: u64 = 2;
/// Backoff ceiling (ms).
const BACKOFF_CAP_MS: u64 = 50;

/// Locks a mutex, recovering the data if a previous holder panicked (the
/// pool must keep serving batches after a caught task panic).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Pool construction: its width. The retry budget and backoff are fixed
/// (see the module docs).
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Worker threads (≥ 1).
    pub workers: usize,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig { workers: std::thread::available_parallelism().map_or(1, |n| n.get()) }
    }
}

/// What one task attempt produced.
pub enum TaskAttempt<R> {
    /// Terminal success — `R` is the task's result.
    Done(R),
    /// The attempt ran to completion but failed (e.g. an exhausted
    /// escalation ladder). Carries the best-effort value to use if the
    /// retry budget runs out.
    Retry(R),
}

/// Per-task outcome of [`Scheduler::execute`].
#[derive(Debug, Clone)]
pub struct TaskReport<R> {
    /// The task's value (from `Done`, the last `Retry`, or the panic
    /// fallback).
    pub value: R,
    /// Scheduler-level attempts consumed (1 = first try succeeded).
    pub attempts: u32,
    /// Attempts that ended in a caught panic.
    pub panics: u32,
    /// The retry budget ran out; `value` is a best-effort fallback.
    pub quarantined: bool,
    /// An attempt ended past the batch's soft deadline (wall-time-derived
    /// — excluded from determinism comparisons).
    pub straggler: bool,
}

/// Run-scoped accounting over a batch, for [`crate::sweep::SweepHealth`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Caught panics across all attempts.
    pub panics: u64,
    /// Scheduler-level retries (attempts beyond each task's first).
    pub retries: u64,
    /// Tasks that exhausted their retry budget.
    pub quarantined: usize,
    /// Tasks with an attempt that ended past the soft deadline.
    pub stragglers: usize,
}

impl std::ops::AddAssign for BatchStats {
    fn add_assign(&mut self, other: BatchStats) {
        self.panics += other.panics;
        self.retries += other.retries;
        self.quarantined += other.quarantined;
        self.stragglers += other.stragglers;
    }
}

/// Aggregates the run-scoped counters of a batch's reports.
pub fn stats_of<R>(reports: &[TaskReport<R>]) -> BatchStats {
    let mut s = BatchStats::default();
    for r in reports {
        s.panics += r.panics as u64;
        s.retries += (r.attempts - 1) as u64;
        s.quarantined += usize::from(r.quarantined);
        s.stragglers += usize::from(r.straggler);
    }
    s
}

/// Per-batch execution options.
#[derive(Debug, Clone, Default)]
pub struct BatchOptions {
    /// Soft per-task deadline (ms): an attempt that ends later marks its
    /// task a straggler. `None` disables straggler detection.
    pub deadline_ms: Option<f64>,
    /// Stable per-item identities for cross-batch quarantine (parallel to
    /// the item vector). Items whose key was quarantined by an earlier
    /// batch get a zero retry budget — one attempt, then fallback.
    pub keys: Option<Vec<u64>>,
}

/// Order-sensitive stable key for [`BatchOptions::keys`] (splitmix64
/// chain over the bit patterns — independent of the `fault-inject`
/// feature).
pub fn stable_key(parts: &[f64]) -> u64 {
    let mut h = 0x923f_ac5d_17ce_55a1u64;
    for p in parts {
        h = splitmix(h ^ p.to_bits());
    }
    h
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

thread_local! {
    /// True on pool worker threads: a nested `execute` (a task that
    /// itself sweeps) runs inline instead of deadlocking on its own pool.
    static IN_POOL: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// One enqueued attempt.
#[derive(Debug, Clone, Copy)]
struct Task {
    idx: u32,
    /// Attempts already consumed (0 on the first try).
    attempt: u32,
    /// Caught panics so far.
    panics: u32,
    /// An attempt so far ended past the deadline.
    late: bool,
}

impl Task {
    fn first(idx: u32) -> Task {
        Task { idx, attempt: 0, panics: 0, late: false }
    }
}

/// The reports of a batch as its tasks finish.
struct Progress<R> {
    /// One slot per item, filled when its task finishes.
    reports: Vec<Option<TaskReport<R>>>,
    /// Tasks not finished yet.
    left: usize,
    /// Keys quarantined by this batch.
    poison: Vec<u64>,
    /// A fallback closure panicked — the batch cannot complete.
    failed: Option<String>,
}

/// The typed state of one `execute` call.
struct Batch<T, R> {
    items: Vec<T>,
    #[allow(clippy::type_complexity)]
    run: Box<dyn Fn(usize, &T, u32) -> TaskAttempt<R> + Send + Sync>,
    #[allow(clippy::type_complexity)]
    on_panic: Box<dyn Fn(usize, &T, u32, &TransportError) -> R + Send + Sync>,
    /// Per-item retry budgets (0 for items with quarantined keys).
    budgets: Vec<u32>,
    deadline: Option<Duration>,
    keys: Option<Vec<u64>>,
    /// One deque per worker: the owner pops the front, thieves the back.
    deques: Vec<Mutex<VecDeque<Task>>>,
    /// Retries waiting out their backoff, each with the instant it falls
    /// due.
    delayed: Mutex<Vec<(Instant, Task)>>,
    progress: Mutex<Progress<R>>,
    /// Signalled when a task finishes or a fallback panics.
    done: Condvar,
}

impl<T: Send + Sync, R: Send> Batch<T, R> {
    /// Validates `opts` against the items and deals the tasks round-robin
    /// over `queues` deques in item order (the owner pops the front, so
    /// worker `w` walks items `w, w + W, …` — stealing rebalances from the
    /// back).
    #[allow(clippy::type_complexity)]
    fn new(
        items: Vec<T>,
        opts: &BatchOptions,
        poisoned: &HashSet<u64>,
        run: Box<dyn Fn(usize, &T, u32) -> TaskAttempt<R> + Send + Sync>,
        on_panic: Box<dyn Fn(usize, &T, u32, &TransportError) -> R + Send + Sync>,
        queues: usize,
    ) -> Self {
        let n = items.len();
        let budgets = match &opts.keys {
            Some(keys) => {
                assert_eq!(keys.len(), n, "BatchOptions::keys must parallel the item vector");
                keys.iter().map(|k| if poisoned.contains(k) { 0 } else { MAX_RETRIES }).collect()
            }
            None => vec![MAX_RETRIES; n],
        };
        let mut deques: Vec<VecDeque<Task>> = (0..queues).map(|_| VecDeque::new()).collect();
        for i in 0..n {
            deques[i % queues].push_back(Task::first(i as u32));
        }
        Batch {
            items,
            run,
            on_panic,
            budgets,
            deadline: opts
                .deadline_ms
                .and_then(|ms| Duration::try_from_secs_f64(ms.max(0.0) / 1000.0).ok()),
            keys: opts.keys.clone(),
            deques: deques.into_iter().map(Mutex::new).collect(),
            delayed: Mutex::new(Vec::new()),
            progress: Mutex::new(Progress {
                reports: (0..n).map(|_| None).collect(),
                left: n,
                poison: Vec::new(),
                failed: None,
            }),
            done: Condvar::new(),
        }
    }

    /// The next task for `worker`: the front of its own deque, else the
    /// back of the others' in ring order, else the delayed retry that falls
    /// due first — once its backoff is over, or at once when
    /// `!wait_backoff` (a nested batch must not stall the worker running
    /// it). `Err` carries when that retry falls due, if there is one.
    fn pop(&self, worker: usize, wait_backoff: bool) -> Result<Task, Option<Instant>> {
        let w = self.deques.len();
        for k in 0..w {
            let mut q = lock(&self.deques[(worker + k) % w]);
            if let Some(task) = if k == 0 { q.pop_front() } else { q.pop_back() } {
                return Ok(task);
            }
        }
        let mut delayed = lock(&self.delayed);
        match (0..delayed.len()).min_by_key(|&i| delayed[i].0) {
            Some(i) if !wait_backoff || delayed[i].0 <= Instant::now() => {
                Ok(delayed.swap_remove(i).1)
            }
            first => Err(first.map(|i| delayed[i].0)),
        }
    }

    /// Runs one attempt of `task` and settles it: done, re-enqueued after
    /// backoff, or quarantined with its last value (or `on_panic`'s
    /// fallback after a panic). `lease` charges the rayon shim's nesting
    /// cap while the attempt runs, so point solves on pool workers never
    /// multiply threads through nested scoped spawns (a nested batch's
    /// thread already holds one). Returns whether a retry is now pending.
    fn attempt(&self, mut task: Task, lease: bool) -> bool {
        let idx = task.idx as usize;
        let item = &self.items[idx];
        let started = Instant::now();
        let outcome = {
            let _lease = lease.then(rayon::enter_pool_worker);
            catch_unwind(AssertUnwindSafe(|| (self.run)(idx, item, task.attempt)))
        };
        task.attempt += 1;
        task.panics += u32::from(outcome.is_err());
        task.late |= self.deadline.is_some_and(|d| started.elapsed() > d);
        let (value, quarantined) = match outcome {
            Ok(TaskAttempt::Done(value)) => (value, false),
            // A failed or panicking attempt with budget left: retry later.
            _ if task.attempt <= self.budgets[idx] => {
                let exp = (task.attempt - 1).min(16);
                let backoff = (BACKOFF_BASE_MS << exp).min(BACKOFF_CAP_MS);
                lock(&self.delayed).push((Instant::now() + Duration::from_millis(backoff), task));
                return true;
            }
            Ok(TaskAttempt::Retry(value)) => (value, true),
            Err(payload) => {
                let err = TransportError::Panic { what: panic_text(payload.as_ref()) };
                let fallback = catch_unwind(AssertUnwindSafe(|| {
                    (self.on_panic)(idx, item, task.attempt, &err)
                }));
                match fallback {
                    Ok(value) => (value, true),
                    Err(p) => {
                        // The fallback is contractually infallible; if it
                        // panics anyway, fail the batch loudly instead of
                        // hanging its caller.
                        lock(&self.progress).failed = Some(panic_text(p.as_ref()));
                        self.done.notify_all();
                        return false;
                    }
                }
            }
        };
        self.finish(task, value, quarantined);
        false
    }

    /// Reports `task` into its item's slot.
    fn finish(&self, task: Task, value: R, quarantined: bool) {
        let idx = task.idx as usize;
        let mut p = lock(&self.progress);
        if quarantined {
            if let Some(keys) = &self.keys {
                p.poison.push(keys[idx]);
            }
        }
        p.reports[idx] = Some(TaskReport {
            value,
            attempts: task.attempt,
            panics: task.panics,
            quarantined,
            straggler: task.late,
        });
        p.left -= 1;
        drop(p);
        // Every report wakes the caller, not only the last: a caller that
        // slept through the whole batch made 40-point sweeps 10–20 % slower
        // in interleaved runs on a 2-core VM.
        self.done.notify_all();
    }

    /// Blocks until every task finished, then hands back the reports in
    /// item order and the keys this batch quarantined. Panics in the
    /// caller if a fallback closure panicked.
    fn wait(&self) -> (Vec<TaskReport<R>>, Vec<u64>) {
        let mut p = lock(&self.progress);
        while p.left > 0 && p.failed.is_none() {
            p = self.done.wait(p).unwrap_or_else(|e| e.into_inner());
        }
        if let Some(what) = p.failed.take() {
            panic!("scheduler fallback closure panicked: {what}");
        }
        let reports = std::mem::take(&mut p.reports);
        let reports = reports.into_iter().map(|r| r.expect("report for every task")).collect();
        (reports, std::mem::take(&mut p.poison))
    }
}

/// What one worker turn on a batch did.
enum Turn {
    /// An attempt ran; `true` if it left a retry pending.
    Ran(bool),
    /// Nothing is runnable; the first delayed retry falls due then.
    Idle(Option<Instant>),
}

/// Worker-facing view of a batch (type-erased so the pool threads need
/// not know `T`/`R`).
trait BatchRun: Send + Sync {
    fn turn(&self, worker: usize) -> Turn;
}

impl<T: Send + Sync, R: Send> BatchRun for Batch<T, R> {
    fn turn(&self, worker: usize) -> Turn {
        match self.pop(worker, true) {
            Ok(task) => Turn::Ran(self.attempt(task, true)),
            Err(due) => Turn::Idle(due),
        }
    }
}

/// What the pool threads watch.
struct PoolState {
    /// The installed batch (one at a time; `execute` calls serialize).
    batch: Option<Arc<dyn BatchRun>>,
    /// Bumped by every change and enqueue: a worker that found nothing to
    /// run parks only if the epoch has not moved since it looked.
    epoch: u64,
    shutdown: bool,
}

struct Shared {
    state: Mutex<PoolState>,
    wake: Condvar,
}

impl Shared {
    /// Applies `f` to the pool state, bumps the epoch and wakes every
    /// parked worker.
    fn update(&self, f: impl FnOnce(&mut PoolState)) {
        let mut state = lock(&self.state);
        f(&mut state);
        state.epoch += 1;
        drop(state);
        self.wake.notify_all();
    }
}

/// Removes the batch from the pool when `execute` leaves (even by
/// unwind), so workers never keep a stale batch alive.
struct Installed<'a>(&'a Shared);

impl Drop for Installed<'_> {
    fn drop(&mut self) {
        self.0.update(|state| state.batch = None);
    }
}

/// The persistent work-stealing pool.
pub struct Scheduler {
    workers: usize,
    shared: Arc<Shared>,
    threads: Vec<std::thread::JoinHandle<()>>,
    /// Serializes concurrent `execute` calls onto the one batch slot.
    batch_serial: Mutex<()>,
    /// Stable keys of tasks that exhausted a retry budget (poison points).
    poisoned: Mutex<HashSet<u64>>,
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler").field("workers", &self.workers).finish_non_exhaustive()
    }
}

impl Scheduler {
    /// Spawns the worker threads (`qtx-sched-{i}`).
    pub fn new(cfg: SchedulerConfig) -> Scheduler {
        let workers = cfg.workers.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState { batch: None, epoch: 0, shutdown: false }),
            wake: Condvar::new(),
        });
        let threads = (0..workers)
            .map(|w| {
                let sh = shared.clone();
                std::thread::Builder::new()
                    .name(format!("qtx-sched-{w}"))
                    .spawn(move || worker_loop(&sh, w))
                    .expect("spawn scheduler worker")
            })
            .collect();
        Scheduler {
            workers,
            shared,
            threads,
            batch_serial: Mutex::new(()),
            poisoned: Mutex::new(HashSet::new()),
        }
    }

    /// Worker-thread count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Keys quarantined so far (poison points remembered across batches).
    pub fn poisoned_count(&self) -> usize {
        lock(&self.poisoned).len()
    }

    /// Runs one batch: `run(idx, &item, attempt)` per task (with retries
    /// and panic isolation), `on_panic(idx, &item, attempts, &err)`
    /// building the fallback value when a task's budget ends on a panic.
    /// Returns reports in item order. Results are bit-identical for any
    /// worker count (see the module docs). Called from inside a task, it
    /// runs the batch on the calling thread.
    pub fn execute<T, R>(
        &self,
        items: Vec<T>,
        opts: &BatchOptions,
        run: impl Fn(usize, &T, u32) -> TaskAttempt<R> + Send + Sync + 'static,
        on_panic: impl Fn(usize, &T, u32, &TransportError) -> R + Send + Sync + 'static,
    ) -> Vec<TaskReport<R>>
    where
        T: Send + Sync + 'static,
        R: Send + 'static,
    {
        if items.is_empty() {
            return Vec::new();
        }
        // A task running a nested batch drives it on its own thread:
        // blocking on the pool it occupies would deadlock.
        let nested = IN_POOL.with(|c| c.get());
        let batch = Arc::new(Batch::new(
            items,
            opts,
            &lock(&self.poisoned),
            Box::new(run),
            Box::new(on_panic),
            if nested { 1 } else { self.workers },
        ));
        let (reports, poison) = if nested {
            while let Ok(task) = batch.pop(0, false) {
                batch.attempt(task, false);
            }
            batch.wait()
        } else {
            let _serial = lock(&self.batch_serial);
            self.shared.update(|state| state.batch = Some(batch.clone()));
            let _installed = Installed(&self.shared);
            batch.wait()
        };
        lock(&self.poisoned).extend(poison);
        reports
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shared.update(|state| state.shutdown = true);
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared, worker: usize) {
    IN_POOL.with(|c| c.set(true));
    loop {
        let (batch, epoch) = {
            let state = lock(&shared.state);
            if state.shutdown {
                return;
            }
            (state.batch.clone(), state.epoch)
        };
        let due = match batch.map(|b| b.turn(worker)) {
            Some(Turn::Ran(retry_pending)) => {
                // The new retry may fall due before a parked worker's
                // timeout: wake them to re-read it.
                if retry_pending {
                    shared.update(|_| {});
                }
                continue;
            }
            Some(Turn::Idle(due)) => due,
            None => None,
        };
        // Park unless something moved since the state was read; the
        // timeout only times the first delayed retry.
        let state = lock(&shared.state);
        if state.epoch == epoch {
            match due {
                Some(at) => {
                    let wait = at.saturating_duration_since(Instant::now());
                    drop(shared.wake.wait_timeout(state, wait));
                }
                None => drop(shared.wake.wait(state)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched(workers: usize) -> Scheduler {
        Scheduler::new(SchedulerConfig { workers })
    }

    fn values<R: Copy>(reports: &[TaskReport<R>]) -> Vec<R> {
        reports.iter().map(|r| r.value).collect()
    }

    #[test]
    fn results_arrive_in_item_order_for_any_worker_count() {
        for workers in [1usize, 2, 4] {
            let s = sched(workers);
            let items: Vec<u64> = (0..37).collect();
            let reports = s.execute(
                items,
                &BatchOptions::default(),
                |_, &x, _| TaskAttempt::Done(x * x),
                |_, _, _, _| 0,
            );
            assert_eq!(values(&reports), (0..37).map(|x: u64| x * x).collect::<Vec<_>>());
            assert!(reports.iter().all(|r| r.attempts == 1 && !r.quarantined && r.panics == 0));
        }
    }

    #[test]
    fn retries_consume_budget_then_succeed() {
        let s = sched(2);
        // Item value = number of failing attempts before success.
        let items: Vec<u32> = vec![0, 1, 2, 0, 2];
        let reports = s.execute(
            items.clone(),
            &BatchOptions::default(),
            |_, &fails, attempt| {
                if attempt < fails {
                    TaskAttempt::Retry(u32::MAX)
                } else {
                    TaskAttempt::Done(attempt)
                }
            },
            |_, _, _, _| u32::MAX,
        );
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.attempts, items[i] + 1, "item {i}");
            assert_eq!(r.value, items[i], "item {i} succeeded on its last allowed attempt");
            assert!(!r.quarantined);
        }
        let stats = stats_of(&reports);
        assert_eq!(stats.retries, 5);
        assert_eq!(stats.quarantined, 0);
    }

    #[test]
    fn exhausted_budget_quarantines_with_last_value() {
        let s = sched(3);
        let reports = s.execute(
            vec![(); 4],
            &BatchOptions::default(),
            |idx, _, attempt| {
                if idx == 2 {
                    TaskAttempt::Retry(100 + attempt)
                } else {
                    TaskAttempt::Done(idx as u32)
                }
            },
            |_, _, _, _| u32::MAX,
        );
        assert_eq!(reports[2].attempts, 3, "default budget: 1 try + 2 retries");
        assert!(reports[2].quarantined);
        assert_eq!(reports[2].value, 102, "fallback is the *last* attempt's value");
        assert!(reports.iter().enumerate().all(|(i, r)| i == 2 || !r.quarantined));
        assert_eq!(stats_of(&reports).quarantined, 1);
    }

    #[test]
    fn panics_are_isolated_and_pool_survives() {
        let s = sched(2);
        let reports = s.execute(
            (0..8u32).collect(),
            &BatchOptions::default(),
            |_, &x, _| {
                if x == 3 {
                    panic!("task {x} exploded");
                }
                TaskAttempt::Done(x)
            },
            |_, &x, attempts, err| {
                assert!(matches!(err, TransportError::Panic { what } if what.contains("exploded")));
                assert_eq!(attempts, 3);
                x + 1000
            },
        );
        assert_eq!(reports[3].value, 1003);
        assert_eq!(reports[3].attempts, 3);
        assert_eq!(reports[3].panics, 3, "every attempt panicked");
        assert!(reports[3].quarantined);
        assert!(reports.iter().enumerate().all(|(i, r)| i == 3 || r.panics == 0));
        // The pool must keep serving batches after a caught panic.
        let again = s.execute(
            vec![7u32],
            &BatchOptions::default(),
            |_, &x, _| TaskAttempt::Done(x),
            |_, _, _, _| 0,
        );
        assert_eq!(again[0].value, 7);
        assert_eq!(again[0].panics, 0);
    }

    #[test]
    fn poisoned_keys_skip_retries_in_later_batches() {
        let s = sched(2);
        let opts = BatchOptions { keys: Some(vec![11, 22, 33]), ..Default::default() };
        let run = |_: usize, &x: &u32, _: u32| {
            if x == 1 {
                TaskAttempt::Retry(0u32)
            } else {
                TaskAttempt::Done(x)
            }
        };
        let first = s.execute(vec![0u32, 1, 2], &opts, run, |_, _, _, _| 0);
        assert_eq!(first[1].attempts, 3, "fresh key gets the full budget");
        assert_eq!(s.poisoned_count(), 1);
        let second = s.execute(vec![0u32, 1, 2], &opts, run, |_, _, _, _| 0);
        assert_eq!(second[1].attempts, 1, "poisoned key: one attempt, no retries");
        assert!(second[1].quarantined);
        assert_eq!(second[0].attempts, 1);
        assert_eq!(s.poisoned_count(), 1, "no duplicate poison entries");
    }

    #[test]
    fn nested_execute_runs_inline_without_deadlock() {
        let s = Arc::new(sched(2));
        let inner = s.clone();
        let reports = s.execute(
            (0..4u64).collect(),
            &BatchOptions::default(),
            move |_, &x, _| {
                let sub = inner.execute(
                    vec![x, x + 1],
                    &BatchOptions::default(),
                    |_, &y, _| TaskAttempt::Done(y * 10),
                    |_, _, _, _| 0,
                );
                TaskAttempt::Done(sub[0].value + sub[1].value)
            },
            |_, _, _, _| 0,
        );
        assert_eq!(values(&reports), vec![10, 30, 50, 70]);
    }

    #[test]
    fn attempts_ending_past_the_deadline_are_stragglers() {
        let s = sched(2);
        let opts = BatchOptions { deadline_ms: Some(5.0), ..Default::default() };
        let reports = s.execute(
            vec![1u64, 80],
            &opts,
            |_, &ms, _| {
                std::thread::sleep(Duration::from_millis(ms));
                TaskAttempt::Done(ms)
            },
            |_, _, _, _| 0,
        );
        assert!(reports[1].straggler, "an 80 ms task must trip a 5 ms deadline");
        assert_eq!(values(&reports), vec![1, 80], "stragglers still complete normally");
    }

    #[test]
    fn a_panicking_fallback_panics_the_caller_instead_of_hanging() {
        let s = Arc::new(sched(2));
        let failing = |s: &Scheduler| {
            s.execute(
                (0..6u32).collect(),
                &BatchOptions::default(),
                |_, &x, _| {
                    if x == 2 {
                        panic!("task {x} exploded");
                    }
                    TaskAttempt::Done(x)
                },
                |_, _, _, _| -> u32 { panic!("fallback exploded") },
            )
        };
        let outer = catch_unwind(AssertUnwindSafe(|| failing(&s))).unwrap_err();
        assert!(panic_text(outer.as_ref()).contains("fallback exploded"));
        // Nested: the task driving the inner batch sees the same panic.
        let inner = s.clone();
        let reports = s.execute(
            vec![()],
            &BatchOptions::default(),
            move |_, _, _| {
                let caught = catch_unwind(AssertUnwindSafe(|| failing(&inner)));
                TaskAttempt::Done(caught.is_err())
            },
            |_, _, _, _| false,
        );
        assert!(reports[0].value, "the nested caller panicked too");
        // The pool keeps serving batches.
        let again = s.execute(
            vec![7u32],
            &BatchOptions::default(),
            |_, &x, _| TaskAttempt::Done(x),
            |_, _, _, _| 0,
        );
        assert_eq!(again[0].value, 7);
    }

    #[test]
    fn stable_key_is_order_sensitive() {
        assert_ne!(stable_key(&[1.0, 2.0]), stable_key(&[2.0, 1.0]));
        assert_eq!(stable_key(&[1.0, 2.0]), stable_key(&[1.0, 2.0]));
    }
}
