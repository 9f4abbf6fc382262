//! Supervised work-stealing scheduler for energy-point workloads.
//!
//! The paper's scaling story layers momentum/energy parallelism above the
//! per-point solvers (§4, Fig. 9). PR 6 made each *point* fault-tolerant
//! (escalation ladder, checkpoint/resume); this module makes the
//! *execution layer* match: a persistent, supervised worker pool replaces
//! the rayon shim's spawn-per-call scoped threads under every sweep of
//! [`crate::TransportEngine`], and is reusable for any batch of
//! independent tasks.
//!
//! Robustness machinery, per task:
//!
//! * every attempt runs under `catch_unwind` — a panicking solve becomes a
//!   typed [`TransportError::Panic`] and a fallback value, never a torn
//!   sweep;
//! * failed attempts are re-enqueued with capped exponential backoff, up
//!   to a per-batch retry budget;
//! * tasks that exhaust the budget are **quarantined**: the batch still
//!   completes with the fallback value (the sweep hands those points to
//!   its interpolation path), and the task's stable key is remembered so a
//!   later batch skips straight to a single attempt;
//! * a supervisor thread promotes delayed retries and enforces per-point
//!   soft deadlines (derived from `qtx-machine`'s [`qtx_machine::DeadlineModel`]
//!   by the sweep), marking overdue tasks as **stragglers**;
//! * the completion queue is bounded, so a fast pool cannot buffer
//!   unbounded results ahead of a slow consumer (backpressure), and
//!   shutdown is cooperative.
//!
//! # Determinism contract
//!
//! Results are **bit-identical for any worker count**. Tasks are pure
//! functions of their item (and attempt number); the pool only decides
//! *where* and *when* an attempt runs, never *what* it computes. Reports
//! are re-assembled in item order, the steal order is a seeded
//! permutation, and every retry/quarantine decision depends only on the
//! attempt outcomes — which are deterministic even under the
//! `fault-inject` harness, whose draws are keyed on mathematical identity
//! rather than call order. Only wall-time-derived fields (`straggler`)
//! may differ between schedules.

use crate::error::TransportError;
use std::collections::{HashSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Locks a mutex, recovering the data if a previous holder panicked (the
/// pool must keep serving batches after a caught task panic).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Pool construction knobs.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Worker threads (≥ 1).
    pub workers: usize,
    /// Seed of the per-worker steal-order permutations.
    pub seed: u64,
    /// Scheduler-level retries per task after a failed or panicking
    /// attempt, before quarantine. Each sweep attempt is a *full*
    /// escalation-ladder walk, so this multiplies the ladder.
    pub max_retries: u32,
    /// First-retry backoff (ms); doubles per retry.
    pub backoff_base_ms: f64,
    /// Backoff ceiling (ms).
    pub backoff_cap_ms: f64,
    /// Bounded completion-queue capacity (backpressure on the pool).
    pub completion_capacity: usize,
    /// Supervisor wake period (ms): retry promotion + deadline scans.
    pub supervisor_poll_ms: u64,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            seed: 0x51ED_0BAD_C0FF_EE07,
            max_retries: 2,
            backoff_base_ms: 2.0,
            backoff_cap_ms: 50.0,
            completion_capacity: 128,
            supervisor_poll_ms: 2,
        }
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
    /// The supervisor saw an attempt exceed the soft deadline
    /// (wall-time-derived — excluded from determinism comparisons).
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
    /// Tasks flagged by the deadline supervisor.
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

/// Per-batch execution knobs.
#[derive(Debug, Clone, Default)]
pub struct BatchOptions {
    /// Soft per-task deadline (ms) enforced by the supervisor; `None`
    /// disables straggler detection.
    pub deadline_ms: Option<f64>,
    /// Stable per-item identities for cross-batch quarantine (parallel to
    /// the item vector). Items whose key was quarantined by an earlier
    /// batch get a zero retry budget — one attempt, then fallback.
    pub keys: Option<Vec<u64>>,
    /// Overrides [`SchedulerConfig::max_retries`] for this batch.
    pub max_retries: Option<u32>,
    /// Intra-batch dependencies (parallel to the item vector):
    /// `deps[i] = Some(j)` holds task `i` back until task `j` has
    /// *finished* — whatever its outcome; retries, quarantine and panic
    /// fallbacks all count as finished, so a dependent is never stranded.
    /// Every dependency must point backwards (`j < i`), which makes cycles
    /// unrepresentable and lets the inline (nested-batch) path satisfy
    /// dependencies by plain index order. The sweep's OBC/interior overlap
    /// split rides on this: the Σ-prefetch task precedes its interior
    /// solve in the item vector.
    pub deps: Option<Vec<Option<u32>>>,
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
}

enum Step {
    Ran,
    Idle,
    Drained,
}

/// Worker-facing view of a batch (type-erased so the pool threads need
/// not know `T`/`R`).
trait BatchRun: Send + Sync {
    fn run_next(&self, worker: usize) -> Step;
    /// Promotes due retries and scans deadlines; true if work was made
    /// runnable.
    fn supervise(&self) -> bool;
}

/// Bounded MPSC channel: workers push completions, `execute` pops.
struct CompletionQueue<I> {
    q: Mutex<VecDeque<I>>,
    cap: usize,
    space: Condvar,
    ready: Condvar,
}

impl<I> CompletionQueue<I> {
    fn new(cap: usize) -> Self {
        CompletionQueue {
            q: Mutex::new(VecDeque::new()),
            cap: cap.max(1),
            space: Condvar::new(),
            ready: Condvar::new(),
        }
    }

    /// Blocks while the queue is full (backpressure) unless the batch was
    /// abandoned by its consumer.
    fn push(&self, item: I, abandoned: &AtomicBool) {
        let mut q = lock(&self.q);
        while q.len() >= self.cap && !abandoned.load(Ordering::SeqCst) {
            let (g, _) = self
                .space
                .wait_timeout(q, Duration::from_millis(10))
                .unwrap_or_else(|e| e.into_inner());
            q = g;
        }
        q.push_back(item);
        self.ready.notify_one();
    }

    fn pop_timeout(&self, d: Duration) -> Option<I> {
        let mut q = lock(&self.q);
        if q.is_empty() {
            let (g, _) = self.ready.wait_timeout(q, d).unwrap_or_else(|e| e.into_inner());
            q = g;
        }
        let item = q.pop_front();
        if item.is_some() {
            self.space.notify_one();
        }
        item
    }
}

/// The typed state of one `execute` call, shared with the pool.
struct Batch<T, R> {
    items: Vec<T>,
    #[allow(clippy::type_complexity)]
    run: Box<dyn Fn(usize, &T, u32) -> TaskAttempt<R> + Send + Sync>,
    #[allow(clippy::type_complexity)]
    on_panic: Box<dyn Fn(usize, &T, u32, &TransportError) -> R + Send + Sync>,
    /// Per-item retry budgets (0 for items with quarantined keys).
    budgets: Vec<u32>,
    backoff_base_ms: f64,
    backoff_cap_ms: f64,
    deadline: Option<Duration>,
    keys: Option<Vec<u64>>,
    /// Reverse dependency map: `dependents[j]` holds the tasks to enqueue
    /// once task `j` finishes (empty for dependency-free batches).
    dependents: Vec<Vec<u32>>,
    /// Per-worker deques: owner pops the front, thieves pop the back.
    deques: Vec<Mutex<VecDeque<Task>>>,
    /// Seeded victim permutation per worker.
    steal_order: Vec<Vec<usize>>,
    /// Backoff parking lot, promoted by the supervisor.
    delayed: Mutex<Vec<(Instant, Task)>>,
    /// What each worker is running, for deadline scans.
    #[allow(clippy::type_complexity)]
    inflight: Vec<Mutex<Option<(usize, Instant)>>>,
    straggler: Vec<AtomicBool>,
    completed: AtomicUsize,
    out: CompletionQueue<(usize, TaskReport<R>)>,
    /// Keys newly quarantined by this batch.
    new_poison: Mutex<Vec<u64>>,
    /// Set when the consumer gave up (or finished): pushers stop blocking.
    abandoned: AtomicBool,
    /// A fallback closure panicked — the batch cannot complete.
    poisoned_fallback: Mutex<Option<String>>,
}

impl<T: Send + Sync, R: Send> Batch<T, R> {
    fn pop_task(&self, worker: usize) -> Option<Task> {
        if let Some(t) = lock(&self.deques[worker]).pop_front() {
            return Some(t);
        }
        for &victim in &self.steal_order[worker] {
            if let Some(t) = lock(&self.deques[victim]).pop_back() {
                return Some(t);
            }
        }
        None
    }

    fn backoff_ms(&self, retries_done: u32) -> f64 {
        let exp = retries_done.saturating_sub(1).min(20) as i32;
        (self.backoff_base_ms * 2f64.powi(exp)).min(self.backoff_cap_ms)
    }

    fn requeue(&self, task: Task) {
        let backoff = self.backoff_ms(task.attempt);
        if backoff <= 0.0 {
            lock(&self.deques[task.idx as usize % self.deques.len()]).push_back(task);
        } else {
            lock(&self.delayed)
                .push((Instant::now() + Duration::from_secs_f64(backoff / 1000.0), task));
        }
    }

    fn quarantine_key(&self, idx: usize) {
        if let Some(keys) = &self.keys {
            lock(&self.new_poison).push(keys[idx]);
        }
    }

    fn finish(&self, idx: usize, value: R, attempts: u32, panics: u32, quarantined: bool) {
        // Release dependents before reporting: any outcome (success,
        // quarantine, panic fallback) satisfies the dependency.
        if let Some(waiters) = self.dependents.get(idx) {
            for &d in waiters {
                lock(&self.deques[d as usize % self.deques.len()]).push_back(Task {
                    idx: d,
                    attempt: 0,
                    panics: 0,
                });
            }
        }
        let report = TaskReport {
            value,
            attempts,
            panics,
            quarantined,
            straggler: self.straggler[idx].load(Ordering::Relaxed),
        };
        self.out.push((idx, report), &self.abandoned);
        self.completed.fetch_add(1, Ordering::SeqCst);
    }

    fn execute_task(&self, worker: usize, task: Task) {
        let idx = task.idx as usize;
        *lock(&self.inflight[worker]) = Some((idx, Instant::now()));
        // Charge the shim's nesting cap while the task runs, so point
        // solves on pool workers never multiply threads through nested
        // scoped spawns.
        let outcome = {
            let _pool = rayon::enter_pool_worker();
            catch_unwind(AssertUnwindSafe(|| (self.run)(idx, &self.items[idx], task.attempt)))
        };
        *lock(&self.inflight[worker]) = None;
        let attempts = task.attempt + 1;
        let budget = self.budgets[idx];
        match outcome {
            Ok(TaskAttempt::Done(value)) => self.finish(idx, value, attempts, task.panics, false),
            Ok(TaskAttempt::Retry(value)) => {
                if task.attempt < budget {
                    self.requeue(Task { idx: task.idx, attempt: attempts, panics: task.panics });
                } else {
                    self.quarantine_key(idx);
                    self.finish(idx, value, attempts, task.panics, true);
                }
            }
            Err(payload) => {
                let panics = task.panics + 1;
                if task.attempt < budget {
                    self.requeue(Task { idx: task.idx, attempt: attempts, panics });
                } else {
                    let err = TransportError::Panic { what: panic_text(payload.as_ref()) };
                    let fallback = catch_unwind(AssertUnwindSafe(|| {
                        (self.on_panic)(idx, &self.items[idx], attempts, &err)
                    }));
                    match fallback {
                        Ok(value) => {
                            self.quarantine_key(idx);
                            self.finish(idx, value, attempts, panics, true);
                        }
                        Err(p2) => {
                            // The fallback is contractually infallible; if
                            // it panics anyway, poison the batch loudly
                            // instead of hanging the consumer.
                            *lock(&self.poisoned_fallback) = Some(panic_text(p2.as_ref()));
                            self.abandoned.store(true, Ordering::SeqCst);
                        }
                    }
                }
            }
        }
    }
}

impl<T: Send + Sync, R: Send> BatchRun for Batch<T, R> {
    fn run_next(&self, worker: usize) -> Step {
        if self.completed.load(Ordering::SeqCst) >= self.items.len() {
            return Step::Drained;
        }
        match self.pop_task(worker) {
            Some(task) => {
                self.execute_task(worker, task);
                Step::Ran
            }
            None => {
                if self.completed.load(Ordering::SeqCst) >= self.items.len() {
                    Step::Drained
                } else {
                    Step::Idle
                }
            }
        }
    }

    fn supervise(&self) -> bool {
        let now = Instant::now();
        let mut moved = false;
        {
            let mut delayed = lock(&self.delayed);
            let mut i = 0;
            while i < delayed.len() {
                if delayed[i].0 <= now {
                    let (_, task) = delayed.swap_remove(i);
                    lock(&self.deques[task.idx as usize % self.deques.len()]).push_back(task);
                    moved = true;
                } else {
                    i += 1;
                }
            }
        }
        if let Some(deadline) = self.deadline {
            for slot in &self.inflight {
                if let Some((idx, started)) = *lock(slot) {
                    if now.duration_since(started) > deadline {
                        self.straggler[idx].store(true, Ordering::Relaxed);
                    }
                }
            }
        }
        moved
    }
}

/// State shared between the pool threads and `execute`.
struct Shared {
    /// The active batch (one at a time; `execute` calls serialize).
    slot: Mutex<Option<Arc<dyn BatchRun>>>,
    wake: Condvar,
    shutdown: AtomicBool,
}

impl Shared {
    /// Parks the calling pool thread until woken or `d` elapses.
    fn park(&self, d: Duration) {
        let guard = lock(&self.slot);
        let _ = self.wake.wait_timeout(guard, d).unwrap_or_else(|e| e.into_inner());
    }
}

/// Clears the batch slot when `execute` leaves (even by unwind), so pool
/// threads never keep a stale batch alive.
struct SlotGuard<'a> {
    shared: &'a Shared,
    abandoned: &'a AtomicBool,
}

impl Drop for SlotGuard<'_> {
    fn drop(&mut self) {
        self.abandoned.store(true, Ordering::SeqCst);
        *lock(&self.shared.slot) = None;
        self.shared.wake.notify_all();
    }
}

/// The persistent, supervised work-stealing pool.
pub struct Scheduler {
    cfg: SchedulerConfig,
    shared: Arc<Shared>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// Serializes concurrent `execute` calls onto the one batch slot.
    batch_serial: Mutex<()>,
    /// Stable keys of tasks that exhausted a retry budget (poison points).
    poisoned: Mutex<HashSet<u64>>,
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("workers", &self.cfg.workers)
            .field("seed", &self.cfg.seed)
            .finish_non_exhaustive()
    }
}

impl Scheduler {
    /// Spawns the worker pool and its supervisor.
    pub fn new(cfg: SchedulerConfig) -> Scheduler {
        let mut cfg = cfg;
        cfg.workers = cfg.workers.max(1);
        let shared = Arc::new(Shared {
            slot: Mutex::new(None),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let mut threads = Vec::with_capacity(cfg.workers + 1);
        for w in 0..cfg.workers {
            let sh = shared.clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("qtx-sched-{w}"))
                    .spawn(move || worker_loop(&sh, w))
                    .expect("spawn scheduler worker"),
            );
        }
        let sh = shared.clone();
        let poll = Duration::from_millis(cfg.supervisor_poll_ms.max(1));
        threads.push(
            std::thread::Builder::new()
                .name("qtx-sched-supervisor".into())
                .spawn(move || supervisor_loop(&sh, poll))
                .expect("spawn scheduler supervisor"),
        );
        Scheduler {
            cfg,
            shared,
            threads: Mutex::new(threads),
            batch_serial: Mutex::new(()),
            poisoned: Mutex::new(HashSet::new()),
        }
    }

    /// Worker-thread count.
    pub fn workers(&self) -> usize {
        self.cfg.workers
    }

    /// Keys quarantined so far (poison points remembered across batches).
    pub fn poisoned_count(&self) -> usize {
        lock(&self.poisoned).len()
    }

    /// Runs one batch: `run(idx, &item, attempt)` per task (with retries
    /// and panic isolation as configured), `on_panic(idx, &item,
    /// attempts, &err)` building the fallback value when a task's budget
    /// ends on a panic. Returns reports in item order. Results are
    /// bit-identical for any worker count (see the module docs).
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
        let n = items.len();
        if n == 0 {
            return Vec::new();
        }
        if let Some(keys) = &opts.keys {
            assert_eq!(keys.len(), n, "BatchOptions::keys must parallel the item vector");
        }
        let mut dependents: Vec<Vec<u32>> = Vec::new();
        if let Some(deps) = &opts.deps {
            assert_eq!(deps.len(), n, "BatchOptions::deps must parallel the item vector");
            dependents = vec![Vec::new(); n];
            for (i, dep) in deps.iter().enumerate() {
                if let Some(j) = dep {
                    assert!(
                        (*j as usize) < i,
                        "BatchOptions::deps must point backwards (task {i} depends on {j})"
                    );
                    dependents[*j as usize].push(i as u32);
                }
            }
        }
        let budgets = self.budgets(n, opts);
        if IN_POOL.with(|c| c.get()) {
            // A task is executing a nested batch on a pool thread:
            // blocking on our own workers would deadlock, so run inline.
            return self.execute_inline(&items, opts, &budgets, &run, &on_panic);
        }
        let _serial = lock(&self.batch_serial);

        let batch = Arc::new(Batch {
            budgets,
            run: Box::new(run),
            on_panic: Box::new(on_panic),
            backoff_base_ms: self.cfg.backoff_base_ms,
            backoff_cap_ms: self.cfg.backoff_cap_ms,
            deadline: opts.deadline_ms.map(|ms| Duration::from_secs_f64(ms.max(0.0) / 1000.0)),
            keys: opts.keys.clone(),
            dependents,
            deques: seed_deques(n, self.cfg.workers, opts.deps.as_deref()),
            steal_order: steal_orders(self.cfg.workers, self.cfg.seed),
            delayed: Mutex::new(Vec::new()),
            inflight: (0..self.cfg.workers).map(|_| Mutex::new(None)).collect(),
            straggler: (0..n).map(|_| AtomicBool::new(false)).collect(),
            completed: AtomicUsize::new(0),
            out: CompletionQueue::new(self.cfg.completion_capacity),
            new_poison: Mutex::new(Vec::new()),
            abandoned: AtomicBool::new(false),
            poisoned_fallback: Mutex::new(None),
            items,
        });
        *lock(&self.shared.slot) = Some(batch.clone() as Arc<dyn BatchRun>);
        self.shared.wake.notify_all();
        let _slot = SlotGuard { shared: self.shared.as_ref(), abandoned: &batch.abandoned };

        let mut reports: Vec<Option<TaskReport<R>>> = (0..n).map(|_| None).collect();
        let mut got = 0usize;
        while got < n {
            match batch.out.pop_timeout(Duration::from_millis(50)) {
                Some((idx, report)) => {
                    reports[idx] = Some(report);
                    got += 1;
                }
                None => {
                    if let Some(what) = lock(&batch.poisoned_fallback).take() {
                        panic!("scheduler fallback closure panicked: {what}");
                    }
                }
            }
        }
        self.absorb_poison(&batch.new_poison);
        reports.into_iter().map(|r| r.expect("report for every task")).collect()
    }

    /// Per-item retry budgets: the batch default, zeroed for items whose
    /// key is already quarantined.
    fn budgets(&self, n: usize, opts: &BatchOptions) -> Vec<u32> {
        let default = opts.max_retries.unwrap_or(self.cfg.max_retries);
        match &opts.keys {
            Some(keys) => {
                let poisoned = lock(&self.poisoned);
                keys.iter()
                    .take(n)
                    .map(|k| if poisoned.contains(k) { 0 } else { default })
                    .collect()
            }
            None => vec![default; n],
        }
    }

    fn absorb_poison(&self, new_poison: &Mutex<Vec<u64>>) {
        let fresh = std::mem::take(&mut *lock(new_poison));
        if !fresh.is_empty() {
            lock(&self.poisoned).extend(fresh);
        }
    }

    /// Sequential twin of the pool path, used for nested batches. Same
    /// retry/quarantine/panic semantics; no backoff sleeps (a nested
    /// batch must not stall the worker running it) and deadlines are
    /// checked after the fact.
    fn execute_inline<T, R>(
        &self,
        items: &[T],
        opts: &BatchOptions,
        budgets: &[u32],
        run: &(impl Fn(usize, &T, u32) -> TaskAttempt<R> + Send + Sync),
        on_panic: &(impl Fn(usize, &T, u32, &TransportError) -> R + Send + Sync),
    ) -> Vec<TaskReport<R>> {
        let deadline = opts.deadline_ms.map(|ms| Duration::from_secs_f64(ms.max(0.0) / 1000.0));
        let mut new_poison: Vec<u64> = Vec::new();
        let reports = items
            .iter()
            .enumerate()
            .map(|(idx, item)| {
                let mut attempt = 0u32;
                let mut panics = 0u32;
                let mut straggler = false;
                loop {
                    let started = Instant::now();
                    let outcome = catch_unwind(AssertUnwindSafe(|| run(idx, item, attempt)));
                    if let Some(d) = deadline {
                        straggler |= started.elapsed() > d;
                    }
                    let attempts = attempt + 1;
                    match outcome {
                        Ok(TaskAttempt::Done(value)) => {
                            return TaskReport {
                                value,
                                attempts,
                                panics,
                                quarantined: false,
                                straggler,
                            };
                        }
                        Ok(TaskAttempt::Retry(value)) => {
                            if attempt < budgets[idx] {
                                attempt = attempts;
                            } else {
                                if let Some(keys) = &opts.keys {
                                    new_poison.push(keys[idx]);
                                }
                                return TaskReport {
                                    value,
                                    attempts,
                                    panics,
                                    quarantined: true,
                                    straggler,
                                };
                            }
                        }
                        Err(payload) => {
                            panics += 1;
                            if attempt < budgets[idx] {
                                attempt = attempts;
                            } else {
                                let err =
                                    TransportError::Panic { what: panic_text(payload.as_ref()) };
                                let value = on_panic(idx, item, attempts, &err);
                                if let Some(keys) = &opts.keys {
                                    new_poison.push(keys[idx]);
                                }
                                return TaskReport {
                                    value,
                                    attempts,
                                    panics,
                                    quarantined: true,
                                    straggler,
                                };
                            }
                        }
                    }
                }
            })
            .collect();
        if !new_poison.is_empty() {
            lock(&self.poisoned).extend(new_poison);
        }
        reports
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.wake.notify_all();
        for handle in lock(&self.threads).drain(..) {
            let _ = handle.join();
        }
    }
}

/// Initial task distribution: round-robin over the worker deques, in
/// canonical item order (owner pops the front, so worker `w` walks items
/// `w, w + W, w + 2W, …` — stealing rebalances from the back). Tasks with
/// a dependency are held back; [`Batch::finish`] enqueues them when their
/// dependency completes.
fn seed_deques(
    n: usize,
    workers: usize,
    deps: Option<&[Option<u32>]>,
) -> Vec<Mutex<VecDeque<Task>>> {
    let mut deques: Vec<VecDeque<Task>> = (0..workers).map(|_| VecDeque::new()).collect();
    for idx in 0..n {
        if deps.is_some_and(|d| d[idx].is_some()) {
            continue;
        }
        deques[idx % workers].push_back(Task { idx: idx as u32, attempt: 0, panics: 0 });
    }
    deques.into_iter().map(Mutex::new).collect()
}

/// Seeded Fisher–Yates victim permutation per worker (deterministic steal
/// order, part of the reproducibility story).
fn steal_orders(workers: usize, seed: u64) -> Vec<Vec<usize>> {
    (0..workers)
        .map(|w| {
            let mut order: Vec<usize> = (0..workers).filter(|&v| v != w).collect();
            let mut state = splitmix(seed ^ (w as u64).wrapping_mul(0xA076_1D64_78BD_642F));
            for i in (1..order.len()).rev() {
                state = splitmix(state);
                order.swap(i, (state % (i as u64 + 1)) as usize);
            }
            order
        })
        .collect()
}

fn worker_loop(shared: &Shared, worker: usize) {
    IN_POOL.with(|c| c.set(true));
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let batch = lock(&shared.slot).clone();
        match batch {
            Some(b) => match b.run_next(worker) {
                Step::Ran => {}
                Step::Idle => shared.park(Duration::from_millis(1)),
                Step::Drained => shared.park(Duration::from_millis(1)),
            },
            None => shared.park(Duration::from_millis(5)),
        }
    }
}

fn supervisor_loop(shared: &Shared, poll: Duration) {
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let batch = lock(&shared.slot).clone();
        if let Some(b) = batch {
            if b.supervise() {
                shared.wake.notify_all();
            }
        }
        std::thread::sleep(poll);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched(workers: usize) -> Scheduler {
        Scheduler::new(SchedulerConfig {
            workers,
            backoff_base_ms: 0.5,
            backoff_cap_ms: 2.0,
            ..SchedulerConfig::default()
        })
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
            &BatchOptions { max_retries: Some(1), ..Default::default() },
            |_, &x, _| {
                if x == 3 {
                    panic!("task {x} exploded");
                }
                TaskAttempt::Done(x)
            },
            |_, &x, attempts, err| {
                assert!(matches!(err, TransportError::Panic { what } if what.contains("exploded")));
                assert_eq!(attempts, 2);
                x + 1000
            },
        );
        assert_eq!(reports[3].value, 1003);
        assert_eq!(reports[3].panics, 2, "both attempts panicked");
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
    fn supervisor_marks_deadline_stragglers() {
        let s = Scheduler::new(SchedulerConfig {
            workers: 2,
            supervisor_poll_ms: 1,
            ..SchedulerConfig::default()
        });
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
    fn bounded_completion_queue_applies_backpressure() {
        let s = Scheduler::new(SchedulerConfig {
            workers: 4,
            completion_capacity: 1,
            ..SchedulerConfig::default()
        });
        let reports = s.execute(
            (0..200u64).collect(),
            &BatchOptions::default(),
            |_, &x, _| TaskAttempt::Done(x),
            |_, _, _, _| 0,
        );
        assert_eq!(values(&reports), (0..200).collect::<Vec<u64>>());
    }

    #[test]
    fn dependent_tasks_run_after_their_dependency() {
        for workers in [1usize, 3] {
            let s = sched(workers);
            let order: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
            let trace = order.clone();
            let opts = BatchOptions {
                deps: Some(vec![None, Some(0), None, Some(2), Some(1)]),
                ..Default::default()
            };
            let reports = s.execute(
                (0..5u64).collect(),
                &opts,
                move |idx, &x, _| {
                    lock(&trace).push(idx);
                    TaskAttempt::Done(x * 10)
                },
                |_, _, _, _| 0,
            );
            assert_eq!(values(&reports), vec![0, 10, 20, 30, 40]);
            let ran = lock(&order).clone();
            let pos = |i: usize| ran.iter().position(|&r| r == i).expect("every task ran");
            assert!(pos(0) < pos(1), "1 depends on 0: {ran:?}");
            assert!(pos(2) < pos(3), "3 depends on 2: {ran:?}");
            assert!(pos(1) < pos(4), "4 depends on 1: {ran:?}");
        }
    }

    #[test]
    fn dependents_are_released_by_failed_dependencies() {
        let s = sched(2);
        let opts = BatchOptions {
            deps: Some(vec![None, Some(0)]),
            max_retries: Some(0),
            ..Default::default()
        };
        let reports = s.execute(
            vec![10u32, 11],
            &opts,
            |idx, &x, _| {
                if idx == 0 {
                    panic!("dependency failed");
                }
                TaskAttempt::Done(x)
            },
            |_, _, _, _| 100,
        );
        assert_eq!(reports[0].value, 100, "failed dependency falls back");
        assert!(reports[0].quarantined);
        assert_eq!(reports[1].value, 11, "dependent still runs after the failure");
        assert!(!reports[1].quarantined);
    }

    #[test]
    fn stable_key_is_order_sensitive() {
        assert_ne!(stable_key(&[1.0, 2.0]), stable_key(&[2.0, 1.0]));
        assert_eq!(stable_key(&[1.0, 2.0]), stable_key(&[1.0, 2.0]));
    }
}
