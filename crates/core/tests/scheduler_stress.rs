//! Stress battery for the scheduler's one attempt path.
//!
//! Randomized batches mix every outcome an attempt can have — done at
//! once, failing (`TaskAttempt::Retry`) k times, panicking k times, with
//! k ≤ 3 so that k = 3 exhausts the budget of two retries — with keys an
//! earlier batch already quarantined. Each batch runs on fresh pools of 1,
//! 2 and 4 workers and as a nested batch inside a pool task. All four runs
//! must give the reports the spec implies: the same
//! `(value, attempts, panics, quarantined)` per item and the same poison
//! set.

use proptest::prelude::*;
use qtx_core::{BatchOptions, Scheduler, SchedulerConfig, TaskAttempt};
use std::sync::{Arc, Once};

/// Retries a fresh key gets (the scheduler's fixed budget).
const BUDGET: u32 = 2;
const PANIC_TAG: &str = "injected stress panic";

#[derive(Debug, Clone, Copy)]
enum Outcome {
    Done,
    /// Fails this many attempts with `Retry`, then succeeds.
    Retry(u32),
    /// Panics on this many attempts, then succeeds.
    Panic(u32),
}

#[derive(Debug, Clone)]
struct Item {
    outcome: Outcome,
    /// Quarantined by a batch before this one.
    poisoned: bool,
}

/// `(value, attempts, panics, quarantined)` of one report.
type Summary = (u64, u32, u32, bool);

fn spec(n: usize, seed: u64) -> Vec<Item> {
    let mut rng = TestRng::new(seed);
    (0..n)
        .map(|_| {
            let k = (rng.next_u64() % 4) as u32;
            let outcome = match rng.next_u64() % 3 {
                0 => Outcome::Done,
                1 => Outcome::Retry(k),
                _ => Outcome::Panic(k),
            };
            Item { outcome, poisoned: rng.next_u64().is_multiple_of(5) }
        })
        .collect()
}

fn key(idx: usize) -> u64 {
    0x5EED_0000 + idx as u64
}

fn fails(item: &Item) -> u32 {
    match item.outcome {
        Outcome::Done => 0,
        Outcome::Retry(k) | Outcome::Panic(k) => k,
    }
}

fn budget(item: &Item) -> u32 {
    if item.poisoned {
        0
    } else {
        BUDGET
    }
}

/// The report the contract implies for item `idx`.
fn expected(idx: usize, item: &Item) -> Summary {
    let (f, b) = (fails(item), budget(item));
    let base = idx as u64 * 10;
    let panics = |n: u32| if matches!(item.outcome, Outcome::Panic(_)) { n } else { 0 };
    if f <= b {
        (base + f as u64, f + 1, panics(f), false)
    } else if matches!(item.outcome, Outcome::Panic(_)) {
        (5000 + base + (b + 1) as u64, b + 1, b + 1, true)
    } else {
        (1000 + base + b as u64, b + 1, 0, true)
    }
}

/// Silences the default hook for the panics this battery injects, and
/// only for those.
fn quiet_injected_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let p = info.payload();
            let text = p
                .downcast_ref::<String>()
                .map(String::as_str)
                .or(p.downcast_ref::<&str>().copied());
            if !text.is_some_and(|t| t.starts_with(PANIC_TAG)) {
                default(info);
            }
        }));
    });
}

fn fresh_pool(workers: usize, items: &[Item]) -> Arc<Scheduler> {
    let pool = Arc::new(Scheduler::new(SchedulerConfig { workers }));
    let poisoned: Vec<u64> =
        items.iter().enumerate().filter(|(_, it)| it.poisoned).map(|(i, _)| key(i)).collect();
    let primed = pool.execute(
        vec![(); poisoned.len()],
        &BatchOptions { keys: Some(poisoned.clone()), ..Default::default() },
        |_, _, _| TaskAttempt::Retry(()),
        |_, _, _, _| (),
    );
    assert!(primed.iter().all(|r| r.quarantined));
    assert_eq!(pool.poisoned_count(), poisoned.len());
    pool
}

/// Runs the batch on `pool`.
fn run_batch(pool: &Scheduler, items: &[Item]) -> Vec<Summary> {
    let opts =
        BatchOptions { keys: Some((0..items.len()).map(key).collect()), ..Default::default() };
    let reports = pool.execute(
        items.to_vec(),
        &opts,
        move |idx, item, attempt| {
            let value = idx as u64 * 10 + attempt as u64;
            match item.outcome {
                Outcome::Retry(k) if attempt < k => TaskAttempt::Retry(1000 + value),
                Outcome::Panic(k) if attempt < k => panic!("{PANIC_TAG}: item {idx}"),
                _ => TaskAttempt::Done(value),
            }
        },
        |idx, _, attempts, _| 5000 + idx as u64 * 10 + attempts as u64,
    );
    reports.iter().map(|r| (r.value, r.attempts, r.panics, r.quarantined)).collect()
}

fn check_case(n: usize, seed: u64) -> Result<(), String> {
    quiet_injected_panics();
    let items = spec(n, seed);
    let want: Vec<Summary> = items.iter().enumerate().map(|(i, it)| expected(i, it)).collect();
    let want_poison = items.iter().zip(&want).filter(|(it, w)| it.poisoned || w.3).count();
    let mut runs = Vec::new();
    for workers in [1usize, 2, 4] {
        let pool = fresh_pool(workers, &items);
        runs.push((format!("{workers} workers"), run_batch(&pool, &items), pool.poisoned_count()));
    }
    let pool = fresh_pool(2, &items);
    let (inner, nested_items) = (pool.clone(), items.clone());
    let outer = pool.execute(
        vec![()],
        &BatchOptions::default(),
        move |_, _, _| TaskAttempt::Done(run_batch(&inner, &nested_items)),
        |_, _, _, _| Vec::new(),
    );
    let nested = outer.into_iter().next().expect("one outer report");
    prop_assert!(nested.attempts == 1 && !nested.quarantined, "the outer task itself failed");
    runs.push(("nested".into(), nested.value, pool.poisoned_count()));
    for (label, got, poison) in &runs {
        prop_assert!(*got == want, "{label}: reports {got:?}\n  expected {want:?}");
        prop_assert!(*poison == want_poison, "{label}: {poison} poisoned keys, want {want_poison}");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_schedule_gives_the_reports_the_spec_implies(
        n in 1usize..48,
        seed in 0u64..u64::MAX,
    ) {
        check_case(n, seed)?;
    }
}
