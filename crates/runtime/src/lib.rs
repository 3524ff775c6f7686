//! A cilk-style randomized work-stealing task pool.
//!
//! The paper runs its shared-memory layer on the cilk++ scheduler: "each
//! thread maintains a double ended queue (deque) to store its outstanding
//! work … when a thread runs out of work, it chooses a random victim
//! thread and steals work from the *top* of the victim's queue" (§IV.A).
//! This crate reimplements exactly that discipline on
//! `crossbeam-deque`:
//!
//! * each worker owns a LIFO deque and pops its own newest task (good
//!   locality — the newest task touches the data just produced);
//! * an idle worker picks a uniformly random victim and steals that
//!   victim's *oldest* task (large, cache-cold work — cheap to migrate);
//! * per-worker execution and steal counters are exported so experiments
//!   can observe the scheduler (see `abl_work_division`).
//!
//! There is one worker loop (`run_pool`: own deque → retry queue →
//! random-victim steal, every task under `catch_unwind`) and two entry
//! points onto it. [`run_batch_retry`] re-runs a panicking task up to a
//! budget and reports exhaustion as a typed [`TaskPanicked`]; the
//! distributed drivers in `polar-mpi` use it for the intra-rank thread
//! level of the hybrid `OCT_MPI+CILK` algorithm and the batch engine for
//! its job waves. [`run_batch`] is the same loop at budget zero over
//! `FnOnce` tasks — every pooled solve stage fans out through it — and
//! re-raises a task's panic on the caller once all workers have stopped.
//!
//! A pool worker may itself want to fork (the plan build and the plan's
//! execute do). So that a pool that already fills the cores does not
//! oversubscribe them, each thread knows how many threads run at once
//! beside it (its `callers`: its pool's workers, times the threads the
//! pool's own caller runs beside) and forks onto no more than its share
//! of the host ([`fair_share`]).

use crossbeam_deque::{Steal, Stealer, Worker};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

thread_local! {
    /// How many threads the pool or server this thread works for runs at
    /// once; 1 on a plain thread.
    static CALLERS: Cell<usize> = const { Cell::new(1) };
}

/// How many threads run at once beside the calling thread, its own
/// included: inside a [`run_batch`] or [`run_batch_retry`] task,
/// `n_workers` times the count of the thread that started the pool (so a
/// pool inside each of P ranks counts P × `n_workers`); what
/// [`set_callers`] recorded on a server's worker or a rank thread; and 1
/// on any other thread.
fn callers() -> usize {
    CALLERS.with(Cell::get)
}

/// Record that the calling thread is one of `n` that a server (or a set
/// of ranks) runs at once, for the rest of the thread's life. Only for a
/// thread's owner, called once as the thread starts: it states a fact
/// about the thread, not a tuning knob. Pool workers need no call: the
/// pool records its size on each of them.
#[doc(hidden)]
pub fn set_callers(n: usize) {
    CALLERS.with(|c| c.set(n.max(1)));
}

/// The threads one caller may fork onto: the host's cores
/// (`available_parallelism`, read once) divided among the threads that
/// run at once beside the calling thread (1 on a plain thread), and at
/// least one. A pool or server that already runs a thread per core gets
/// 1 and stays inline; a plain caller gets the whole host.
pub fn fair_share() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    let cores = *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    (cores / callers()).max(1)
}

/// Scheduler observability: what each worker did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StealStats {
    /// Tasks executed per worker.
    pub executed: Vec<u64>,
    /// Successful steals per worker (tasks taken from a victim).
    pub steals: Vec<u64>,
}

impl StealStats {
    /// Total tasks run.
    pub fn total_executed(&self) -> u64 {
        self.executed.iter().sum()
    }

    /// Total successful steals.
    pub fn total_steals(&self) -> u64 {
        self.steals.iter().sum()
    }

    /// Accumulate another batch's counters elementwise — for combining
    /// the stats of several `run_batch` calls over the *same* worker set
    /// (e.g. the integrals/push/energy batches of one solve).
    pub fn merge(&mut self, other: &StealStats) {
        if self.executed.len() < other.executed.len() {
            self.executed.resize(other.executed.len(), 0);
            self.steals.resize(other.steals.len(), 0);
        }
        for (a, m) in self.executed.iter_mut().zip(&other.executed) {
            *a += m;
        }
        for (a, m) in self.steals.iter_mut().zip(&other.steals) {
            *a += m;
        }
    }

    /// Append another pool's workers — for combining stats across
    /// *disjoint* worker sets (e.g. per-rank pools of a hybrid run).
    pub fn concat(&mut self, other: &StealStats) {
        self.executed.extend_from_slice(&other.executed);
        self.steals.extend_from_slice(&other.steals);
    }

    /// Load imbalance: max/mean executed (1.0 = perfectly balanced).
    pub fn imbalance(&self) -> f64 {
        let max = self.executed.iter().copied().max().unwrap_or(0) as f64;
        let mean = self.total_executed() as f64 / self.executed.len().max(1) as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }
}

/// Run `tasks` on `n_workers` OS threads with randomized work stealing and
/// return the results in task order plus scheduler statistics.
///
/// ```
/// let tasks: Vec<_> = (0..32).map(|i| move || i * i).collect();
/// let (results, stats) = polar_runtime::run_batch(4, tasks);
/// assert_eq!(results[5], 25);
/// assert_eq!(stats.total_executed(), 32);
/// ```
///
/// Tasks are seeded round-robin onto the workers' deques (the static
/// half of the paper's two-level balancing), then migrate dynamically by
/// stealing. Determinism: results are deterministic because each task's
/// output lands in its own slot; the *schedule* (and `StealStats`) is not,
/// except with `n_workers == 1`.
///
/// This is [`run_batch_retry`] with a retry budget of zero over
/// take-once tasks: a task that panics stops the pool (workers finish
/// the task they are on and take no more), and once every worker has
/// stopped the panic is re-raised on the calling thread with the task's
/// own payload. No task runs twice.
pub fn run_batch<T, F>(n_workers: usize, tasks: Vec<F>) -> (Vec<T>, StealStats)
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    // `Mutex<Option<F>>` is Sync for any `F: Send`, so the shared worker
    // loop can call a task through `&` and still consume it.
    let slots: Vec<parking_lot::Mutex<Option<F>>> = tasks
        .into_iter()
        .map(|f| parking_lot::Mutex::new(Some(f)))
        .collect();
    let take_and_run = |idx: usize, _attempt: u32| {
        let f = slots[idx].lock().take();
        f.expect("with no retries each task is dequeued once")()
    };
    match run_pool(n_workers, slots.len(), &take_and_run, 0) {
        Ok((out, stats, _)) => (out, stats),
        Err((_, payload)) => resume_unwind(payload),
    }
}

/// A task kept panicking past the retry budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskPanicked {
    /// Index of the failing task in the submitted batch.
    pub index: usize,
    /// Attempts made (1 initial + retries), all of which panicked.
    pub attempts: u32,
}

impl std::fmt::Display for TaskPanicked {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "task {} panicked on all {} attempts (retry budget exhausted)",
            self.index, self.attempts
        )
    }
}

impl std::error::Error for TaskPanicked {}

/// What the panic-isolation layer observed during a batch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RetryOutcome {
    /// Total attempts that panicked and were retried.
    pub retries: u64,
    /// `(task index, failed attempts)` per task that panicked at least
    /// once but eventually succeeded, in task order.
    pub recovered: Vec<(usize, u32)>,
}

/// Like [`run_batch`], but a panicking task is re-enqueued (attempt + 1)
/// on a shared retry queue, where — with more than one worker — another
/// worker typically picks it up. A task that panics on more than
/// `retry_budget` re-runs fails the whole batch with a structured
/// [`TaskPanicked`] instead of tearing the pool down.
///
/// Tasks receive their attempt number (0 for the first run), which
/// deterministic fault injection uses to panic the first `k` attempts.
///
/// Counter discipline: `StealStats::executed` counts only *successful*
/// completions, so `total_executed()` equals the task count however many
/// retries happened — retried work is never double-counted, and a worker
/// whose only acquisition panicked reports 0 executed tasks.
pub fn run_batch_retry<T, F>(
    n_workers: usize,
    tasks: Vec<F>,
    retry_budget: u32,
) -> Result<(Vec<T>, StealStats, RetryOutcome), TaskPanicked>
where
    T: Send,
    F: Fn(u32) -> T + Send + Sync,
{
    let run = |idx: usize, attempt: u32| tasks[idx](attempt);
    run_pool(n_workers, tasks.len(), &run, retry_budget).map_err(|(err, _payload)| err)
}

/// The panic that exhausted a task's retry budget: which task, and the
/// payload it panicked with.
type Fatal = (TaskPanicked, Box<dyn Any + Send>);

/// The one worker loop behind [`run_batch`] and [`run_batch_retry`]:
/// `run(task index, attempt)` for every index in `0..n_tasks`, each
/// worker isolating task panics with `catch_unwind`. The error carries
/// the payload of the panic that exhausted the budget.
fn run_pool<T: Send>(
    n_workers: usize,
    n_tasks: usize,
    run: &(dyn Fn(usize, u32) -> T + Sync),
    retry_budget: u32,
) -> Result<(Vec<T>, StealStats, RetryOutcome), Fatal> {
    assert!(n_workers >= 1, "need at least one worker");
    // Each task writes its result into its own slot. `Mutex<Option<T>>`
    // is Sync for any `T: Send`, unlike OnceLock which would additionally
    // demand `T: Sync`.
    let results: Vec<parking_lot::Mutex<Option<T>>> = (0..n_tasks)
        .map(|_| parking_lot::Mutex::new(None))
        .collect();

    // Deques hold (task index, attempt); the task itself stays behind
    // `run` so a panicked task can be re-run.
    let workers: Vec<Worker<(usize, u32)>> = (0..n_workers).map(|_| Worker::new_lifo()).collect();
    let stealers: Vec<Stealer<(usize, u32)>> = workers.iter().map(|w| w.stealer()).collect();
    // Poisoned tasks go through a shared retry queue rather than back on
    // the panicking worker's own deque (vendored crossbeam-deque has no
    // Injector; a mutexed Vec is plenty for the rare-retry path).
    let retry_queue: parking_lot::Mutex<Vec<(usize, u32)>> = parking_lot::Mutex::new(Vec::new());
    for i in 0..n_tasks {
        workers[i % n_workers].push((i, 0));
    }

    let executed: Vec<AtomicU64> = (0..n_workers).map(|_| AtomicU64::new(0)).collect();
    let steals: Vec<AtomicU64> = (0..n_workers).map(|_| AtomicU64::new(0)).collect();
    let failed_attempts: Vec<AtomicU64> = (0..n_tasks).map(|_| AtomicU64::new(0)).collect();
    let total_retries = AtomicU64::new(0);
    let remaining = AtomicUsize::new(n_tasks);
    let fatal = parking_lot::Mutex::new(None);
    // Set with the first fatal panic: without it the surviving workers
    // would spin forever on a `remaining` count that can no longer
    // reach zero.
    let aborted = AtomicBool::new(false);
    // A pool started inside another pool's task or on a rank thread runs
    // beside the threads its caller runs beside.
    let pool_callers = callers() * n_workers;

    std::thread::scope(|scope| {
        for (wid, worker) in workers.into_iter().enumerate() {
            let stealers = &stealers;
            let retry_queue = &retry_queue;
            let results = &results;
            let executed = &executed;
            let steals = &steals;
            let failed_attempts = &failed_attempts;
            let total_retries = &total_retries;
            let remaining = &remaining;
            let fatal = &fatal;
            let aborted = &aborted;
            scope.spawn(move || {
                set_callers(pool_callers);
                let mut rng = SmallRng::seed_from_u64(0x9e37_79b9 ^ wid as u64);
                // After this worker panicked a task, it avoids the retry
                // queue for a few idle rounds so a *different* worker
                // takes the poisoned task when one exists.
                let mut retry_cooldown = 0u32;
                loop {
                    if aborted.load(Ordering::Acquire) {
                        break;
                    }
                    let take_retry = |who: &AtomicU64| -> Option<(usize, u32)> {
                        let job = retry_queue.lock().pop();
                        if job.is_some() {
                            who.fetch_add(1, Ordering::Relaxed);
                        }
                        job
                    };
                    // 1. Own deque, newest first (LIFO pop).
                    let job = worker
                        .pop()
                        .or_else(|| {
                            if retry_cooldown == 0 || n_workers == 1 {
                                take_retry(&steals[wid])
                            } else {
                                None
                            }
                        })
                        .or_else(|| {
                            // 2. Random victim, oldest first (FIFO steal).
                            if remaining.load(Ordering::Acquire) == 0 {
                                return None;
                            }
                            let n = stealers.len();
                            for probe in 0..(4 * n).max(4) {
                                let victim = if n > 1 {
                                    let mut v = rng.random_range(0..n);
                                    if v == wid {
                                        v = (v + 1 + probe % (n - 1)) % n;
                                    }
                                    v
                                } else {
                                    wid
                                };
                                // `Retry` means the victim's deque is *contended*
                                // (a concurrent pop/steal interfered), not empty —
                                // spin on the same victim until the race resolves.
                                // Moving on would misread a loaded-but-busy victim
                                // as having no work.
                                loop {
                                    match stealers[victim].steal() {
                                        Steal::Success(job) => {
                                            steals[wid].fetch_add(1, Ordering::Relaxed);
                                            return Some(job);
                                        }
                                        Steal::Retry => std::hint::spin_loop(),
                                        Steal::Empty => break,
                                    }
                                }
                            }
                            // Last resort: the retry queue even while
                            // cooling down (nobody else may be idle).
                            take_retry(&steals[wid])
                        });
                    match job {
                        Some((idx, attempt)) => {
                            match catch_unwind(AssertUnwindSafe(|| run(idx, attempt))) {
                                Ok(out) => {
                                    let prev = results[idx].lock().replace(out);
                                    assert!(prev.is_none(), "task {idx} ran twice");
                                    executed[wid].fetch_add(1, Ordering::Relaxed);
                                    remaining.fetch_sub(1, Ordering::AcqRel);
                                    retry_cooldown = retry_cooldown.saturating_sub(1);
                                }
                                Err(payload) => {
                                    failed_attempts[idx].fetch_add(1, Ordering::Relaxed);
                                    if attempt >= retry_budget {
                                        let err = TaskPanicked {
                                            index: idx,
                                            attempts: attempt + 1,
                                        };
                                        fatal.lock().get_or_insert((err, payload));
                                        aborted.store(true, Ordering::Release);
                                        break;
                                    }
                                    total_retries.fetch_add(1, Ordering::Relaxed);
                                    retry_queue.lock().push((idx, attempt + 1));
                                    retry_cooldown = 2;
                                }
                            }
                        }
                        None => {
                            if remaining.load(Ordering::Acquire) == 0 {
                                break;
                            }
                            // Back off briefly; other workers still hold work.
                            retry_cooldown = retry_cooldown.saturating_sub(1);
                            std::thread::yield_now();
                        }
                    }
                }
            });
        }
    });

    if let Some(err) = fatal.into_inner() {
        return Err(err);
    }
    let stats = StealStats {
        executed: executed.iter().map(|a| a.load(Ordering::Relaxed)).collect(),
        steals: steals.iter().map(|a| a.load(Ordering::Relaxed)).collect(),
    };
    let outcome = RetryOutcome {
        retries: total_retries.load(Ordering::Relaxed),
        recovered: failed_attempts
            .iter()
            .enumerate()
            .filter_map(|(i, a)| {
                let n = a.load(Ordering::Relaxed);
                (n > 0).then_some((i, n as u32))
            })
            .collect(),
    };
    let out = results
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.into_inner().unwrap_or_else(|| {
                // A lost task is a scheduler bug; dump the counters so
                // the failure is diagnosable from the panic alone.
                panic!(
                    "task {i} never ran: {}/{n_tasks} tasks executed \
                     (per-worker executed {:?}, steals {:?})",
                    stats.total_executed(),
                    stats.executed,
                    stats.steals,
                )
            })
        })
        .collect();
    Ok((out, stats, outcome))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64 as TestCounter;

    #[test]
    fn callers_reads_the_pool_size_inside_tasks_and_one_outside() {
        let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
        assert_eq!((callers(), fair_share()), (1, cores));
        for n in [1, 2, 3] {
            let tasks: Vec<_> = (0..2 * n).map(|_| || (callers(), fair_share())).collect();
            let (seen, _) = run_batch(n, tasks);
            assert!(
                seen.iter().all(|&s| s == (n, (cores / n).max(1))),
                "{n} workers: {seen:?}"
            );
        }
        let (seen, _, _) = run_batch_retry(3, vec![|_| callers(); 4], 0).unwrap();
        assert_eq!(seen, [3; 4]);
        assert_eq!(callers(), 1, "a pool leaves its caller's count alone");
        // A pool inside a pool's task runs beside the outer workers.
        let inner = || run_batch(2, vec![callers; 2]).0;
        let (seen, _) = run_batch(3, vec![inner; 2]);
        assert_eq!(seen, [[6, 6], [6, 6]]);
    }

    #[test]
    fn results_arrive_in_task_order() {
        let tasks: Vec<_> = (0..100).map(|i| move || i * 3).collect();
        let (out, stats) = run_batch(4, tasks);
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
        assert_eq!(stats.total_executed(), 100);
    }

    #[test]
    fn single_worker_executes_everything_without_steals() {
        let tasks: Vec<_> = (0..25).map(|i| move || i).collect();
        let (out, stats) = run_batch(1, tasks);
        assert_eq!(out.len(), 25);
        assert_eq!(stats.executed, vec![25]);
        assert_eq!(stats.total_steals(), 0);
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let counter = TestCounter::new(0);
        let tasks: Vec<_> = (0..500)
            .map(|_| {
                let c = &counter;
                move || {
                    c.fetch_add(1, Ordering::Relaxed);
                }
            })
            .collect();
        let (_, stats) = run_batch(8, tasks);
        assert_eq!(counter.load(Ordering::Relaxed), 500);
        assert_eq!(stats.total_executed(), 500);
    }

    #[test]
    fn empty_batch_is_fine() {
        let (out, stats) = run_batch::<u32, fn() -> u32>(4, vec![]);
        assert!(out.is_empty());
        assert_eq!(stats.total_executed(), 0);
    }

    #[test]
    fn skewed_tasks_get_stolen() {
        // Forced skew: round-robin seeding puts indices ≡ 0 mod 4 on
        // worker 0, so making exactly those tasks heavy loads one deque
        // with all the real work. Workers 1–3 drain their trivial tasks
        // immediately and can only keep busy by stealing worker 0's
        // backlog — the run must record at least one successful steal.
        let tasks: Vec<_> = (0..64)
            .map(|i| {
                move || {
                    if i % 4 != 0 {
                        return i as u64;
                    }
                    let mut acc = i as u64;
                    for k in 0..200_000u64 {
                        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
                    }
                    acc
                }
            })
            .collect();
        let (out, stats) = run_batch(4, tasks);
        assert_eq!(out.len(), 64);
        assert_eq!(stats.total_executed(), 64);
        // All four workers exist in the stats.
        assert_eq!(stats.executed.len(), 4);
        assert!(stats.imbalance() >= 1.0);
        assert!(
            stats.total_steals() > 0,
            "idle workers never stole from the loaded deque: {stats:?}"
        );
    }

    #[test]
    fn merge_accumulates_and_concat_appends() {
        let mut a = StealStats {
            executed: vec![1, 2],
            steals: vec![0, 1],
        };
        a.merge(&StealStats {
            executed: vec![10, 20, 30],
            steals: vec![1, 1, 1],
        });
        assert_eq!(a.executed, vec![11, 22, 30]);
        assert_eq!(a.steals, vec![1, 2, 1]);
        a.concat(&StealStats {
            executed: vec![5],
            steals: vec![2],
        });
        assert_eq!(a.executed, vec![11, 22, 30, 5]);
        assert_eq!(a.total_steals(), 6);
    }

    #[test]
    #[should_panic]
    fn zero_workers_rejected() {
        let _ = run_batch::<u32, fn() -> u32>(0, vec![]);
    }

    #[test]
    fn retry_batch_matches_plain_batch_without_faults() {
        let tasks: Vec<_> = (0..40usize).map(|i| move |_attempt: u32| i * i).collect();
        let (out, stats, outcome) = run_batch_retry(3, tasks, 2).unwrap();
        assert_eq!(out, (0..40).map(|i| i * i).collect::<Vec<_>>());
        assert_eq!(stats.total_executed(), 40);
        assert_eq!(outcome.retries, 0);
        assert!(outcome.recovered.is_empty());
    }

    #[test]
    fn panicked_task_is_retried_without_double_counting() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let n_tasks = 16usize;
        // Tasks 3 and 11 panic on their first attempt, succeed on retry.
        let poisoned = [3usize, 11];
        let attempts_seen: Vec<AtomicU32> = (0..n_tasks).map(|_| AtomicU32::new(0)).collect();
        let attempts_seen = &attempts_seen;
        let tasks: Vec<_> = (0..n_tasks)
            .map(|i| {
                move |attempt: u32| {
                    attempts_seen[i].fetch_max(attempt + 1, Ordering::Relaxed);
                    if poisoned.contains(&i) && attempt == 0 {
                        panic!("injected poison in task {i}");
                    }
                    i as u64 * 10
                }
            })
            .collect();
        let (out, stats, outcome) = run_batch_retry(4, tasks, 3).unwrap();
        assert_eq!(out, (0..n_tasks as u64).map(|i| i * 10).collect::<Vec<_>>());
        // The no-double-count invariant: executed counts successful
        // completions only, so retries never inflate the total.
        assert_eq!(stats.total_executed(), n_tasks as u64);
        assert_eq!(outcome.retries, 2);
        assert_eq!(outcome.recovered, vec![(3, 1), (11, 1)]);
        for &p in &poisoned {
            assert_eq!(attempts_seen[p].load(Ordering::Relaxed), 2);
        }
    }

    #[test]
    fn single_worker_retries_its_own_panics() {
        // With one worker there is no "other worker" — the cooldown must
        // not deadlock; the same worker re-runs the poisoned task.
        let tasks: Vec<_> = (0..5usize)
            .map(|i| {
                move |attempt: u32| {
                    if i == 2 && attempt < 2 {
                        panic!("double poison");
                    }
                    i
                }
            })
            .collect();
        let (out, stats, outcome) = run_batch_retry(1, tasks, 2).unwrap();
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
        assert_eq!(stats.total_executed(), 5);
        assert_eq!(outcome.retries, 2);
        assert_eq!(outcome.recovered, vec![(2, 2)]);
    }

    #[test]
    fn budget_exhaustion_returns_structured_error_not_panic() {
        let tasks: Vec<_> = (0..8usize)
            .map(|i| {
                move |_attempt: u32| {
                    if i == 5 {
                        panic!("always fails");
                    }
                    i
                }
            })
            .collect();
        let err = run_batch_retry(2, tasks, 1).unwrap_err();
        assert_eq!(err.index, 5);
        assert_eq!(err.attempts, 2);
        let msg = err.to_string();
        assert!(
            msg.contains("task 5") && msg.contains("2 attempts"),
            "{msg}"
        );
    }

    #[test]
    fn stats_merge_concat_tolerate_idle_workers_after_retry() {
        // A rank whose worker panicked its only acquisition reports 0
        // executed tasks; merging and concatenating such rows across
        // ranks must neither drop them nor double-count retried work.
        let tasks: Vec<_> = (0..2usize)
            .map(|i| {
                move |attempt: u32| {
                    if attempt == 0 {
                        panic!("first touch poisoned");
                    }
                    i
                }
            })
            .collect();
        let (out, stats, outcome) = run_batch_retry(4, tasks, 1).unwrap();
        assert_eq!(out, vec![0, 1]);
        assert_eq!(stats.executed.len(), 4);
        assert_eq!(stats.total_executed(), 2);
        assert_eq!(outcome.retries, 2);
        assert!(
            stats.executed.contains(&0),
            "expected an idle worker among {:?}",
            stats.executed
        );

        // Merge with a fully-idle rank: totals unchanged.
        let mut merged = stats.clone();
        merged.merge(&StealStats {
            executed: vec![0, 0, 0, 0],
            steals: vec![0, 0, 0, 0],
        });
        assert_eq!(merged.total_executed(), 2);
        assert!(merged.imbalance().is_finite());

        // Concat with an empty rank row set: lengths add, totals hold.
        let mut cat = stats.clone();
        cat.concat(&StealStats::default());
        assert_eq!(cat.executed.len(), 4);
        cat.concat(&StealStats {
            executed: vec![0],
            steals: vec![0],
        });
        assert_eq!(cat.executed.len(), 5);
        assert_eq!(cat.total_executed(), 2);
        assert!(cat.imbalance().is_finite());
    }

    #[test]
    fn a_panicking_task_stops_the_plain_pool_and_resurfaces_on_the_caller() {
        // Regression: the plain pool had no abort flag, so with two or
        // more workers the survivors spun forever on `remaining != 0`.
        // Run each batch on a helper thread so a hang fails the test
        // instead of wedging the suite.
        for n_workers in [1usize, 2, 4] {
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let runs: Vec<TestCounter> = (0..8).map(|_| TestCounter::new(0)).collect();
                let runs = &runs;
                let tasks: Vec<_> = (0..8usize)
                    .map(|i| {
                        move || {
                            runs[i].fetch_add(1, Ordering::Relaxed);
                            if i == 5 {
                                panic!("task five blew up");
                            }
                            i
                        }
                    })
                    .collect();
                let caught = catch_unwind(AssertUnwindSafe(|| run_batch(n_workers, tasks)));
                let message = caught
                    .err()
                    .and_then(|payload| payload.downcast_ref::<&str>().map(|s| s.to_string()));
                let max_runs = runs.iter().map(|c| c.load(Ordering::Relaxed)).max();
                let _ = tx.send((message, max_runs));
            });
            let (message, max_runs) = rx
                .recv_timeout(std::time::Duration::from_secs(30))
                .unwrap_or_else(|_| panic!("run_batch hung with {n_workers} workers"));
            // The task's own payload, not "a scoped thread panicked".
            assert_eq!(message.as_deref(), Some("task five blew up"));
            assert_eq!(max_runs, Some(1), "a task ran twice at {n_workers} workers");
        }
    }

    #[test]
    fn imbalance_of_empty_batch_is_finite() {
        // Regression: max/mean on zero executed tasks used to be 0/0 =
        // NaN, which poisoned every report comparison downstream. An
        // idle (or empty) batch is perfectly balanced by definition.
        let (_, stats) = run_batch::<u32, fn() -> u32>(4, vec![]);
        assert_eq!(stats.imbalance(), 1.0);

        let idle = StealStats {
            executed: vec![0, 0, 0],
            steals: vec![0, 0, 0],
        };
        assert_eq!(idle.imbalance(), 1.0);
        assert!(StealStats::default().imbalance().is_finite());
        assert_eq!(StealStats::default().imbalance(), 1.0);
    }
}
