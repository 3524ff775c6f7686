//! Discrete-event simulation of a randomized work-stealing scheduler.
//!
//! Models the cilk++ discipline inside one rank: tasks are dealt
//! round-robin to the workers' deques (the drivers in `polar-mpi` do the
//! same), each worker pops its own newest task, and an idle worker steals
//! the *oldest* task of a uniformly random victim, paying a steal
//! overhead. Different seeds yield different interleavings, giving the
//! run-to-run spread the paper plots as min/max over 20 runs (Fig. 6).

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::{BinaryHeap, VecDeque};

/// Outcome of one simulated schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StealSchedule {
    /// Time at which the last task finishes (seconds).
    pub makespan: f64,
    /// Number of successful steals.
    pub steals: u64,
    /// Busy fraction: total task time / (makespan · workers).
    pub utilization: f64,
}

/// Simulate `tasks` (work units each) on `workers` cores running at
/// `units_per_second`, with `steal_overhead`/`task_overhead` seconds of
/// scheduler cost. Deterministic in `seed`.
///
/// ```
/// use polar_cluster::simulate_work_stealing;
///
/// let tasks = vec![1_000u64; 64];
/// let s1 = simulate_work_stealing(&tasks, 1, 1e6, 0.0, 0.0, 42);
/// let s8 = simulate_work_stealing(&tasks, 8, 1e6, 0.0, 0.0, 42);
/// assert!((s1.makespan / s8.makespan - 8.0).abs() < 1e-6); // perfect split
/// ```
pub fn simulate_work_stealing(
    tasks: &[u64],
    workers: usize,
    units_per_second: f64,
    steal_overhead: f64,
    task_overhead: f64,
    seed: u64,
) -> StealSchedule {
    assert!(workers >= 1, "need at least one worker");
    assert!(units_per_second > 0.0, "rate must be positive");
    if tasks.is_empty() {
        return StealSchedule {
            makespan: 0.0,
            steals: 0,
            utilization: 1.0,
        };
    }
    let mut rng = StdRng::seed_from_u64(seed);
    // Deal tasks round-robin, like the drivers seed their deques.
    let mut deques: Vec<VecDeque<u64>> = vec![VecDeque::new(); workers];
    for (i, &t) in tasks.iter().enumerate() {
        deques[i % workers].push_back(t);
    }
    // Min-heap of (next-free-time, worker). BinaryHeap is a max-heap, so
    // store negated ordered floats.
    #[derive(PartialEq)]
    struct Entry(f64, usize);
    impl Eq for Entry {}
    impl PartialOrd for Entry {
        fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(o))
        }
    }
    impl Ord for Entry {
        fn cmp(&self, o: &Self) -> std::cmp::Ordering {
            // Reversed: smallest time pops first.
            o.0.total_cmp(&self.0).then(o.1.cmp(&self.1))
        }
    }
    let mut heap: BinaryHeap<Entry> = (0..workers).map(|w| Entry(0.0, w)).collect();
    let mut makespan = 0.0_f64;
    let mut steals = 0u64;
    let busy: f64 = tasks
        .iter()
        .map(|&t| t as f64 / units_per_second + task_overhead)
        .sum();

    while let Some(Entry(now, w)) = heap.pop() {
        // Own deque: newest first (LIFO back).
        let work = if let Some(t) = deques[w].pop_back() {
            Some((t, 0.0))
        } else {
            // Steal: random victims until one has work (oldest first).
            let candidates: Vec<usize> = (0..workers)
                .filter(|&v| v != w && !deques[v].is_empty())
                .collect();
            if candidates.is_empty() {
                None
            } else {
                let v = candidates[rng.random_range(0..candidates.len())];
                steals += 1;
                deques[v].pop_front().map(|t| (t, steal_overhead))
            }
        };
        match work {
            Some((units, extra)) => {
                let dur = units as f64 / units_per_second + task_overhead + extra;
                let done = now + dur;
                makespan = makespan.max(done);
                heap.push(Entry(done, w));
            }
            None => {
                // Worker retires; with a flat task graph no new work can
                // appear after all deques drain.
            }
        }
    }
    let utilization = if makespan > 0.0 {
        busy / (makespan * workers as f64)
    } else {
        1.0
    };
    StealSchedule {
        makespan,
        steals,
        utilization: utilization.min(1.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RATE: f64 = 1e6;

    #[test]
    fn single_worker_time_is_total_work() {
        let tasks = vec![1000u64; 32];
        let s = simulate_work_stealing(&tasks, 1, RATE, 0.0, 0.0, 1);
        let expect = 32.0 * 1000.0 / RATE;
        assert!((s.makespan - expect).abs() < 1e-12);
        assert_eq!(s.steals, 0);
        assert!((s.utilization - 1.0).abs() < 1e-9);
    }

    #[test]
    fn equal_tasks_scale_nearly_perfectly() {
        let tasks = vec![1000u64; 64];
        let s1 = simulate_work_stealing(&tasks, 1, RATE, 0.0, 0.0, 1);
        let s8 = simulate_work_stealing(&tasks, 8, RATE, 0.0, 0.0, 1);
        let speedup = s1.makespan / s8.makespan;
        assert!((speedup - 8.0).abs() < 1e-6, "speedup {speedup}");
    }

    #[test]
    fn makespan_never_beats_critical_path_or_average_bound() {
        let tasks: Vec<u64> = (1..=40).map(|i| i * 100).collect();
        let total: u64 = tasks.iter().sum();
        let max = *tasks.iter().max().unwrap();
        for workers in [1, 3, 7, 16] {
            let s = simulate_work_stealing(&tasks, workers, RATE, 1e-6, 1e-7, 9);
            let lb = (total as f64 / workers as f64).max(max as f64) / RATE;
            assert!(
                s.makespan >= lb - 1e-12,
                "w={workers}: {} < {lb}",
                s.makespan
            );
            assert!(s.utilization <= 1.0 && s.utilization > 0.0);
        }
    }

    #[test]
    fn skewed_load_triggers_steals_and_balances() {
        // All heavy tasks initially land on worker 0 (round-robin with
        // stride = workers): construct by padding with zeros.
        let mut tasks = Vec::new();
        for i in 0..64 {
            tasks.push(if i % 4 == 0 { 10_000 } else { 1 });
        }
        let s = simulate_work_stealing(&tasks, 4, RATE, 0.0, 0.0, 3);
        assert!(s.steals > 0, "no steals on skewed load");
        // Far better than worst case (all heavy on one core serialized
        // after its own queue):
        let serial_heavy = 16.0 * 10_000.0 / RATE;
        assert!(
            s.makespan < serial_heavy,
            "{} vs {serial_heavy}",
            s.makespan
        );
    }

    #[test]
    fn overheads_increase_makespan() {
        let tasks = vec![100u64; 128];
        let fast = simulate_work_stealing(&tasks, 8, RATE, 0.0, 0.0, 5);
        let slow = simulate_work_stealing(&tasks, 8, RATE, 1e-4, 1e-5, 5);
        assert!(slow.makespan > fast.makespan);
    }

    #[test]
    fn empty_task_list_is_zero_time() {
        let s = simulate_work_stealing(&[], 4, RATE, 0.0, 0.0, 1);
        assert_eq!(s.makespan, 0.0);
    }
}
