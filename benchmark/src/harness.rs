//! What every workload shares: the run configuration, the outcome it
//! hands back, repeated set-up, the round schedule and the seeded RNG.

use crate::trace::{band_mean, Tracer};
use std::time::Instant;

/// Where trace files, the suite's records and `serve_mix`'s PQR files
/// go, relative to the repository root the benchmark is run from.
pub const OUT_DIR: &str = "benchmark/out";

pub struct RunCfg {
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    pub trace: bool,
}

/// Set-up runs this many times per run and reports the median, so one
/// slow page-fault storm does not decide `setup_s`.
pub const SETUP_REPS: usize = 3;

/// Latency of every measured op and when it ended on the run's op
/// clock, in completion order.
#[derive(Default)]
pub struct Ops {
    pub ms: Vec<f64>,
    end_s: Vec<f64>,
}

/// What one round of ops measured.
pub struct RoundStats {
    pub p50_ms: f64,
    pub p95_ms: f64,
    pub ops_per_s: f64,
}

impl Ops {
    /// An op of a single-threaded loop: the op clock is the summed op
    /// time, so checks made between ops are not part of it.
    pub fn push(&mut self, ms: f64) {
        let end = self.end_s.last().copied().unwrap_or(0.0) + ms / 1e3;
        self.push_at(ms, end);
    }

    /// An op of concurrent clients, ended `end_s` into the phase.
    pub fn push_at(&mut self, ms: f64, end_s: f64) {
        self.ms.push(ms);
        self.end_s.push(end_s);
    }

    /// The ops cut into rounds of `round_len` in completion order (a
    /// partial last round is left out unless it is the only one).
    ///
    /// The end-to-end timings are the best round's: the host slows down
    /// for seconds at a time, which costs a run some rounds but rarely
    /// all of them, so the best round repeats where the whole-run
    /// figure does not (ROADMAP aim 1: min-of-N on this host). Latencies
    /// are band means (p50 over the 40th–60th percentile, p95 over the
    /// 90th–99th), which do not jump where the kernel's 4 ms timer tick
    /// quantizes TCP round trips into a few distinct values.
    pub fn rounds(&self, round_len: usize) -> Vec<RoundStats> {
        let mut order: Vec<usize> = (0..self.ms.len()).collect();
        order.sort_by(|&a, &b| self.end_s[a].total_cmp(&self.end_s[b]));
        let full = (order.len() / round_len.max(1)).max(1);
        let mut started_s = 0.0;
        order
            .chunks(round_len.max(1))
            .take(full)
            .map(|round| {
                let ms: Vec<f64> = round.iter().map(|&i| self.ms[i]).collect();
                let ended_s = self.end_s[round[round.len() - 1]];
                let stats = RoundStats {
                    p50_ms: band_mean(&ms, 0.40, 0.60),
                    p95_ms: band_mean(&ms, 0.90, 0.99),
                    ops_per_s: round.len() as f64 / (ended_s - started_s),
                };
                started_s = ended_s;
                stats
            })
            .collect()
    }
}

#[derive(Default)]
pub struct Outcome {
    /// Median wall of the set-up repetitions.
    pub setup_s: f64,
    /// The untraced ops.
    pub ops: Ops,
    /// Ops per round (see [`Ops::rounds`] and [`Rounds`]).
    pub round_len: usize,
    pub attempted: u64,
    pub failed: u64,
    /// Workload-level checks (naive bound, reconciling report, ...).
    pub checks_ok: bool,
    /// Σ plan bytes and Σ atoms over the workload's distinct base
    /// molecules, for `plan_bytes_per_atom`.
    pub plan_bytes: u64,
    pub plan_atoms: u64,
    /// The traced ops.
    pub traced: Ops,
    /// The traced op is the benchmark's layer-by-layer form of the
    /// library calls the untraced op makes, so the run holds the two to
    /// the same cost (see [`MAX_TRACE_OVERHEAD`]).
    pub layered: bool,
    /// Per-layer values the spans alone do not give (counts, rates).
    pub layer: Vec<(&'static str, f64)>,
    pub tracer: Option<Tracer>,
    /// Human-readable lines printed above the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Traced against untraced op cost (each the best round's p50, as
    /// `op_p50_ms` is), less one; `None` unless both kinds ran.
    pub fn overhead_share(&self) -> Option<f64> {
        let best_p50 = |ops: &Ops| {
            let rounds = ops.rounds(self.round_len);
            rounds.iter().map(|r| r.p50_ms).reduce(f64::min)
        };
        if self.ops.ms.is_empty() || self.traced.ms.is_empty() {
            return None;
        }
        Some(best_p50(&self.traced)? / best_p50(&self.ops)? - 1.0)
    }

    /// Whether a layered traced op still costs what the untraced one
    /// does (always true where the question does not arise).
    pub fn overhead_settled(&self) -> bool {
        !self.layered
            || self
                .overhead_share()
                .is_none_or(|o| o.abs() <= MAX_TRACE_OVERHEAD)
    }
}

/// A traced run of a workload with layered ops fails when its traced and
/// untraced ops differ in cost by more than this share: that is the
/// check that the layered form still does what the library does.
pub const MAX_TRACE_OVERHEAD: f64 = 0.05;
/// Before it fails for that, a run adds up to this many pairs of rounds:
/// a burst of host noise over one kind's rounds goes away with more
/// rounds, a layered form that has drifted does not.
const MAX_EXTRA_PAIRS: usize = 4;

/// The measured phase as a schedule of rounds: rounds run until
/// `seconds` have passed. A traced run alternates traced and untraced
/// rounds (traced first) and ends on an untraced one, so both kinds see
/// the same minutes of the host and `trace.overhead_share` compares
/// like with like.
pub struct Rounds {
    start: Instant,
    seconds: f64,
    trace: bool,
    done: usize,
    extra_pairs: usize,
}

impl Rounds {
    pub fn new(cfg: &RunCfg, start: Instant) -> Rounds {
        Rounds {
            start,
            seconds: cfg.seconds,
            trace: cfg.trace,
            done: 0,
            extra_pairs: 0,
        }
    }

    /// Whether the next round is traced; `None` when the phase is over.
    /// While `settled` is false the phase goes on past its time, by up
    /// to [`MAX_EXTRA_PAIRS`] pairs of rounds.
    pub fn next_is_traced(&mut self, settled: bool) -> Option<bool> {
        let pair_open = self.trace && self.done % 2 == 1;
        if self.done > 0 && !pair_open && self.start.elapsed().as_secs_f64() >= self.seconds {
            if settled || self.extra_pairs == MAX_EXTRA_PAIRS {
                return None;
            }
            self.extra_pairs += 1;
        }
        let traced = self.trace && self.done.is_multiple_of(2);
        self.done += 1;
        Some(traced)
    }
}

/// Run `setup` [`SETUP_REPS`] times, keep the last state, and return it
/// with the median wall time.
pub fn setup_median<S>(mut setup: impl FnMut() -> S) -> (S, f64) {
    let mut walls = Vec::with_capacity(SETUP_REPS);
    let mut state = None;
    for _ in 0..SETUP_REPS {
        drop(state.take()); // never hold two set-ups' memory at once
        let t = Instant::now();
        state = Some(setup());
        walls.push(t.elapsed().as_secs_f64());
    }
    (state.expect("SETUP_REPS > 0"), crate::trace::median(&walls))
}

/// Time one op; returns its result and latency in ms.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = std::hint::black_box(f());
    (r, t.elapsed().as_secs_f64() * 1e3)
}

/// SplitMix64: the benchmark's own input RNG, so op sequences do not
/// depend on the vendored `rand` stand-in's stream.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_seeded_and_shuffle_permutes() {
        let a: Vec<u64> = (0..4)
            .map(|_| 0)
            .scan(Rng::new(7), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..4)
            .map(|_| 0)
            .scan(Rng::new(7), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
        let mut r = Rng::new(1);
        assert!((0..1000).all(|_| r.below(5) < 5));
        let mut items: Vec<usize> = (0..50).collect();
        r.shuffle(&mut items);
        assert_ne!(items, (0..50).collect::<Vec<_>>());
        items.sort_unstable();
        assert_eq!(items, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn setup_median_keeps_the_last_state() {
        let mut n = 0;
        let (s, wall) = setup_median(|| {
            n += 1;
            n
        });
        assert_eq!(s, SETUP_REPS);
        assert!(wall >= 0.0);
    }

    #[test]
    fn rounds_are_cut_in_completion_order_and_drop_a_partial_tail() {
        let mut ops = Ops::default();
        // A slow round (10 ms ops), a fast one (1 ms), and a stray op.
        for ms in [10.0, 10.0, 10.0, 10.0, 1.0, 1.0, 1.0, 1.0, 99.0] {
            ops.push(ms);
        }
        let rounds = ops.rounds(4);
        assert_eq!(rounds.len(), 2);
        assert_eq!(rounds[0].p50_ms, 10.0);
        assert_eq!(rounds[1].p95_ms, 1.0);
        assert!((rounds[0].ops_per_s - 100.0).abs() < 1e-9);
        assert!((rounds[1].ops_per_s - 1000.0).abs() < 1e-6);
        // Fewer ops than a round: one round of what there is.
        assert_eq!(ops.rounds(100).len(), 1);
        // Concurrent clients: ordered by when ops ended, not when pushed.
        let mut ops = Ops::default();
        ops.push_at(5.0, 0.2);
        ops.push_at(7.0, 0.1);
        let rounds = ops.rounds(1);
        assert_eq!((rounds[0].p50_ms, rounds[1].p50_ms), (7.0, 5.0));
        assert!((rounds[1].ops_per_s - 10.0).abs() < 1e-9);
    }

    #[test]
    fn a_traced_run_alternates_and_ends_on_an_untraced_round() {
        let cfg = |trace| RunCfg {
            seed: 0,
            seconds: 0.0,
            trace,
        };
        let mut r = Rounds::new(&cfg(true), Instant::now());
        assert_eq!(r.next_is_traced(true), Some(true));
        assert_eq!(r.next_is_traced(true), Some(false));
        assert_eq!(r.next_is_traced(true), None);
        let mut r = Rounds::new(&cfg(false), Instant::now());
        assert_eq!(r.next_is_traced(true), Some(false));
        assert_eq!(r.next_is_traced(true), None);
        // Unsettled: whole pairs are added, but not for ever.
        let mut r = Rounds::new(&cfg(true), Instant::now());
        let extra = std::iter::from_fn(|| r.next_is_traced(false)).count();
        assert_eq!(extra, 2 + 2 * MAX_EXTRA_PAIRS);
    }
}
