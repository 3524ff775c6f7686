//! `warm_rescore` and `rescore_pressure`: the in-process `ServeEngine`
//! on a receptor set that fits its cache, and on one that does not.
//!
//! An op is one opaque `ServeEngine::rescore`. A traced round times the
//! same call and then replays its ops layer by layer on plans the
//! benchmark owns — `geometry_hash`, then (after a miss) surface, octrees
//! and plan build, then the Born and E_pol stages — so the part of an op
//! the layers do not account for is itself a number
//! (`batch.route_residual_ms`).

use crate::harness::{setup_median, timed, Outcome, Rng, Rounds, RunCfg};
use crate::layers::{self, PlanCounts};
use crate::oracle::{self, Check};
use crate::trace::{median, Tracer};
use polar_gb::batch::geometry_hash;
use polar_gb::{BatchJob, CacheStats, GbParams, GbSolver, InteractionPlan, ServeEngine};
use polar_molecule::generators;
use std::time::Instant;

pub struct Spec {
    receptors: usize,
    atoms: usize,
    cache_bytes: usize,
    /// Ops per round. The op sequence is one round, repeated; in steady
    /// state every round sees the same hits and misses, so the counts
    /// are exact (and the run fails if a round's counts differ).
    round: usize,
    /// Receptor `r` takes a 1/(r+1) share of the round, in a fixed
    /// shuffled order, instead of round-robin.
    skewed: bool,
    /// Ops of the sequence run in set-up, enough to reach the cache's
    /// steady state.
    warmup: usize,
}

/// 4 × 2500 atoms in 1 GiB: everything fits, every op hits.
pub const WARM: Spec = Spec {
    receptors: 4,
    atoms: 2500,
    cache_bytes: 1 << 30,
    round: 40,
    skewed: false,
    warmup: 4,
};

/// 8 × 1200 atoms (~52 MB of plan each, ~416 MB in all) in the CLI
/// default 256 MiB.
pub const PRESSURE: Spec = Spec {
    receptors: 8,
    atoms: 1200,
    cache_bytes: 256 << 20,
    round: 60,
    skewed: true,
    warmup: 60,
};

struct State {
    jobs: Vec<BatchJob>,
    checks: Vec<Check>,
    sequence: Vec<usize>,
    engine: ServeEngine,
    plans: PlanCounts,
}

fn setup(spec: &Spec, seed: u64) -> State {
    let p = GbParams::default();
    let mut plans = PlanCounts::default();
    let mut jobs = Vec::new();
    let mut checks = Vec::new();
    for i in 0..spec.receptors {
        let mol = generators::globular(format!("receptor_{i}"), spec.atoms, seed + 101 * i as u64);
        let solver = oracle::reference_solver(&mol);
        checks.push(Check::new(oracle::recursive_epol(&solver)));
        plans.add(&solver, &solver.plan(&p));
        jobs.push(BatchJob::new(mol, p));
    }
    let sequence = if spec.skewed {
        skewed_round(spec.receptors, spec.round)
    } else {
        (0..spec.round).map(|i| i % spec.receptors).collect()
    };
    let state = State {
        jobs,
        checks,
        sequence,
        engine: ServeEngine::new(spec.cache_bytes, None, 1),
        plans,
    };
    for &k in &state.sequence[..spec.warmup] {
        let _ = state.engine.rescore("bench", &state.jobs[k], None);
    }
    state
}

/// A round in which receptor `r` appears in proportion to 1/(r+1).
///
/// The order comes from a fixed stream, not from `--seed` (which makes
/// the receptors): the LRU hit share of a 60-op round swings by ±10 %
/// with the order alone, which would bury any change to plan size or
/// build time under seed-to-seed spread.
fn skewed_round(receptors: usize, len: usize) -> Vec<usize> {
    let total: f64 = (0..receptors).map(|r| 1.0 / (r + 1) as f64).sum();
    let mut round: Vec<usize> = (0..receptors)
        .flat_map(|r| {
            let share = len as f64 / (r + 1) as f64 / total;
            std::iter::repeat_n(r, (share.round() as usize).max(1))
        })
        .collect();
    round.resize(len, 0);
    Rng::new(0x0072_6f75_6e64).shuffle(&mut round);
    round
}

/// One rescore of receptor `k`; `None` if it errored or failed a check.
fn rescore(state: &mut State, k: usize) -> Option<polar_gb::ServeSolve> {
    let solve = state.engine.rescore("bench", &state.jobs[k], None).ok()?;
    state.checks[k]
        .pass(solve.result.epol_kcal)
        .then_some(solve)
}

/// What the cache did over one round.
fn window(before: &CacheStats, after: &CacheStats) -> Vec<(&'static str, f64)> {
    let hits = (after.hits - before.hits) as f64;
    let patched = (after.patched - before.patched) as f64;
    let misses = (after.misses - before.misses) as f64;
    vec![
        ("batch.hits", hits),
        ("batch.patched", patched),
        ("batch.misses", misses),
        (
            "batch.evictions",
            (after.evictions - before.evictions) as f64,
        ),
        ("batch.bytes_held", after.bytes_held as f64),
        ("batch.hit_share", hits / (hits + patched + misses).max(1.0)),
    ]
}

pub fn run(spec: &Spec, cfg: &RunCfg) -> Outcome {
    let (mut state, setup_s) = setup_median(|| setup(spec, cfg.seed));
    let mut out = Outcome {
        setup_s,
        round_len: spec.round,
        checks_ok: true,
        plan_bytes: state.plans.bytes,
        plan_atoms: state.plans.atoms,
        ..Outcome::default()
    };
    let sequence = state.sequence.clone();
    let p = GbParams::default();
    // The replay's own copy of each receptor's solver and plan.
    let mut own: Vec<(GbSolver, InteractionPlan)> = if cfg.trace {
        state
            .jobs
            .iter()
            .map(|job| {
                let solver = oracle::reference_solver(&job.molecule);
                let plan = solver.plan(&p);
                (solver, plan)
            })
            .collect()
    } else {
        Vec::new()
    };

    let mut tr = Tracer::new(cfg.trace, Instant::now());
    let mut hit_ms = Vec::new();
    let mut cache_round = Vec::new();
    let mut rounds = Rounds::new(cfg, Instant::now());
    while let Some(traced) = rounds.next_is_traced(true) {
        tr.set_on(traced);
        let first_op = out.traced.ms.len();
        let before = state.engine.cache_stats();
        let mut solves = Vec::with_capacity(sequence.len());
        for &k in &sequence {
            tr.set_op(out.traced.ms.len() as u32);
            tr.enter("op");
            let (solve, ms) = timed(|| rescore(&mut state, k));
            tr.exit();
            out.attempted += 1;
            out.failed += solve.is_none() as u64;
            if traced {
                out.traced.push(ms);
            } else {
                out.ops.push(ms);
                if solve.as_ref().is_some_and(|s| s.cache_hit) {
                    hit_ms.push(ms);
                }
            }
            solves.push(solve);
        }
        let this_round = window(&before, &state.engine.cache_stats());
        if cache_round.is_empty() {
            cache_round.clone_from(&this_round);
        } else if cache_round != this_round {
            out.checks_ok = false;
            out.notes.push(format!(
                "cache not in steady state: first round {cache_round:?}, a later one {this_round:?}"
            ));
        }
        // The round's engine ops first, its replays after: a replay
        // between two ops would push the next op's plan out of the CPU
        // caches.
        if traced {
            for (i, (&k, solve)) in sequence.iter().zip(solves).enumerate() {
                let Some(solve) = solve else { continue };
                tr.set_op((first_op + i) as u32);
                let epol = replay(&mut tr, &state.jobs[k], &mut own[k], solve.cache_hit);
                // The replay must compute what the engine computed.
                if oracle::rel_err(epol, solve.result.epol_kcal) > oracle::LANE_REL_TOL {
                    out.checks_ok = false;
                }
            }
        }
    }

    if cfg.trace {
        out.layer.append(&mut cache_round);
        layer_counts(&tr, &state, median(&hit_ms), &mut out);
        out.tracer = Some(tr);
    }
    out
}

/// One engine op again, layer by layer; returns its E_pol.
fn replay(
    tr: &mut Tracer,
    job: &BatchJob,
    own: &mut (GbSolver, InteractionPlan),
    cache_hit: bool,
) -> f64 {
    let p = GbParams::default();
    tr.enter("replay");
    std::hint::black_box(tr.span("batch.key_hash", || geometry_hash(&job.molecule)));
    if !cache_hit {
        tr.enter("batch.miss_build");
        let solver = layers::prepare(tr, &job.molecule);
        let plan = layers::build_plan(tr, &solver, &p);
        tr.exit();
        let old = std::mem::replace(own, (solver, plan));
        tr.span("plan.drop", || drop(old));
    }
    let (solver, plan) = &*own;
    let born = layers::born_stage(tr, solver, plan, &p);
    let epol = layers::epol_stage(tr, solver, plan, &p, &born);
    tr.exit();
    epol
}

fn layer_counts(tr: &Tracer, state: &State, hit_p50_ms: f64, out: &mut Outcome) {
    state.plans.layer_metrics(&mut out.layer);
    let med = |name: &str| median(&tr.per_op(name, false));
    let execute_ms = med("born.execute") + med("born.push") + med("epol.ctx") + med("epol.execute");
    let per_plan = |entries: u64, ms: f64| {
        if ms > 0.0 {
            entries as f64 / state.jobs.len() as f64 / (ms / 1e3)
        } else {
            0.0
        }
    };
    out.layer.extend([
        ("batch.route_residual_ms", hit_p50_ms - execute_ms),
        (
            "born.entries_per_s",
            per_plan(state.plans.born_entries(), med("born.execute")),
        ),
        (
            "epol.entries_per_s",
            per_plan(state.plans.epol_entries(), med("epol.execute")),
        ),
        (
            "plan.build_entries_per_s",
            per_plan(
                state.plans.born_entries() + state.plans.epol_entries(),
                med("plan.build"),
            ),
        ),
    ]);
}
