//! `trajectory`: the MD-relaxation path. One op moves a 1500-atom
//! globule to the next jittered frame (`apply_frame` → `delta` →
//! reuse / `patch` / rebuild, escape → cold solver, as
//! `polar trajectory` does), then evaluates energy and gradient on the
//! maintained plan.
//!
//! The untraced op calls `solve_with_plan_scratch` and
//! `gradient_with_plan` as a user would; the traced op runs the same
//! frame through the layer functions those two are made of, which is
//! what shows that `gradient_with_plan` recomputes the Born stage.
//! Rounds of the two alternate in a traced run, and the run fails if
//! they stop costing the same (`trace.overhead_share`): a layered copy
//! that no longer matches the library is caught, not reported.

use crate::harness::{setup_median, timed, Outcome, Rounds, RunCfg};
use crate::layers::{self, PlanCounts};
use crate::oracle::{self, LANE_REL_TOL};
use crate::trace::{median, Tracer};
use polar_gb::{GbParams, GbSolver, InteractionPlan, PlanDelta, ReplanConfig, SolveScratch};
use polar_geom::Vec3;
use polar_molecule::{generators, trajectory::jittered, Molecule};
use std::time::Instant;

const ATOMS: usize = 1500;
const MAX_STEP: f64 = 0.02;
/// Every this-many-th frame is also solved by the strict-fp recursive
/// traversal on the moved solver (outside the op timer); the cheap
/// checks run on every frame.
const RECURSIVE_CHECK_EVERY: u32 = 8;
/// Frames per round: four rebuild cycles, so every round has rebuilt
/// frames for its p95.
const ROUND: usize = 24;
/// Frame classes are counted over the first this-many frames of a traced
/// run — its first traced and first untraced round, which every run
/// completes — so the counts do not depend on the time budget.
const CLASS_WINDOW: usize = 2 * ROUND;

#[derive(Clone, Copy, PartialEq)]
enum Class {
    Reused,
    Patched { dirty_share: f64 },
    Rebuilt,
    Escaped,
}

struct State {
    frame: Molecule,
    frame_no: u32,
    seed: u64,
    solver: GbSolver,
    plan: InteractionPlan,
    scratch: SolveScratch,
    plans: PlanCounts,
}

fn setup(seed: u64) -> State {
    let p = GbParams::default();
    let frame = generators::globular("relaxing_globule", ATOMS, seed);
    let solver = oracle::reference_solver(&frame);
    let plan = solver.plan(&p);
    let mut plans = PlanCounts::default();
    plans.add(&solver, &plan);
    let mut scratch = SolveScratch::new();
    // Warm-up: page in the plan and size the scratch arena.
    let _ = solver.solve_with_plan_scratch(&plan, &p, &mut scratch);
    State {
        frame,
        frame_no: 0,
        seed,
        solver,
        plan,
        scratch,
        plans,
    }
}

/// Move solver and plan to the next frame.
fn advance(
    tr: &mut Tracer,
    s: &mut State,
    p: &GbParams,
    cfg: &ReplanConfig,
    layered: bool,
) -> Class {
    let pos = s.frame.positions();
    let moved = tr.span("octree.refresh", || {
        s.solver.apply_frame(&pos, cfg.slack, cfg.tolerance)
    });
    let Ok(frame_delta) = moved else {
        // Points left their slackened leaf cells: prepare the frame cold.
        s.solver = if layered {
            layers::prepare(tr, &s.frame)
        } else {
            oracle::reference_solver(&s.frame)
        };
        s.plan = layers::build_plan(tr, &s.solver, p);
        return Class::Escaped;
    };
    match tr.span("plan.delta", || {
        s.plan.delta(&s.solver, p, &frame_delta, cfg)
    }) {
        PlanDelta::Reusable => Class::Reused,
        PlanDelta::Patchable(set) => {
            let stats = tr
                .span("plan.patch", || s.plan.patch(&s.solver, p, &set))
                .expect("delta() checked the fingerprint");
            Class::Patched {
                dirty_share: (stats.dirty_born + stats.dirty_epol) as f64
                    / (stats.total_born + stats.total_epol).max(1) as f64,
            }
        }
        PlanDelta::Rebuild(_) => {
            // Clear accumulated drift so the fresh plan regains full
            // patch headroom (see `polar trajectory`).
            tr.span("octree.refresh", || s.solver.resync_geometry());
            s.plan = layers::build_plan(tr, &s.solver, p);
            Class::Rebuilt
        }
    }
}

/// Energy and gradient as a user gets them.
fn evaluate_api(s: &mut State, p: &GbParams) -> Option<(f64, f64, Vec<Vec3>)> {
    let solve = s
        .solver
        .solve_with_plan_scratch(&s.plan, p, &mut s.scratch)
        .ok()?;
    let grad = s.solver.gradient_with_plan(&s.plan, p).ok()?;
    Some((solve.epol_kcal, grad.epol_kcal, grad.grad))
}

/// The same two calls, layer by layer.
fn evaluate_layers(tr: &mut Tracer, s: &State, p: &GbParams) -> Option<(f64, f64, Vec<Vec3>)> {
    let born = layers::born_stage(tr, &s.solver, &s.plan, p);
    let epol = layers::epol_stage(tr, &s.solver, &s.plan, p, &born);
    // `gradient_with_plan` starts from a full solve of its own.
    tr.enter("gradient.born_recompute");
    let born = layers::born_stage(tr, &s.solver, &s.plan, p);
    tr.exit();
    let epol_again = layers::epol_stage(tr, &s.solver, &s.plan, p, &born);
    let grad = layers::gradient_stage(tr, &s.solver, &s.plan, p, &born).ok()?;
    Some((epol, epol_again, grad))
}

/// One op; returns the frame's class (if it evaluated) and whether its
/// results passed the per-frame checks.
fn frame_op(tr: &mut Tracer, s: &mut State, layered: bool) -> (Option<Class>, f64) {
    let p = GbParams::default();
    let cfg = ReplanConfig::default();
    s.frame_no += 1;
    s.frame = jittered(&s.frame, MAX_STEP, s.seed + s.frame_no as u64);
    tr.enter("op");
    let ((class, result), ms) = timed(|| {
        let class = advance(tr, s, &p, &cfg, layered);
        let result = if layered {
            evaluate_layers(tr, s, &p)
        } else {
            evaluate_api(s, &p)
        };
        (class, result)
    });
    tr.exit();
    let ok = result.is_some_and(|(epol, epol_grad, grad)| {
        let net = grad.iter().fold(Vec3::ZERO, |a, g| a + *g).norm();
        let scale: f64 = grad.iter().map(|g| g.norm()).sum();
        epol.is_finite()
            && epol.to_bits() == epol_grad.to_bits()
            && net <= 1e-8 * scale
            && (!s.frame_no.is_multiple_of(RECURSIVE_CHECK_EVERY)
                || oracle::rel_err(epol, oracle::recursive_epol(&s.solver)) <= LANE_REL_TOL)
    });
    (ok.then_some(class), ms)
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let (mut state, setup_s) = setup_median(|| setup(cfg.seed));
    let mut out = Outcome {
        setup_s,
        round_len: ROUND,
        layered: true,
        checks_ok: true,
        plan_bytes: state.plans.bytes,
        plan_atoms: state.plans.atoms,
        ..Outcome::default()
    };

    // The frame sequence is the same whichever form evaluates a frame,
    // so the classes of all frames are one deterministic list.
    let mut tr = Tracer::new(cfg.trace, Instant::now());
    let mut classes = Vec::new();
    let mut rounds = Rounds::new(cfg, Instant::now());
    while let Some(traced) = rounds.next_is_traced(out.overhead_settled()) {
        tr.set_on(traced);
        for _ in 0..ROUND {
            tr.set_op(out.traced.ms.len() as u32);
            let (class, ms) = frame_op(&mut tr, &mut state, traced);
            if traced {
                out.traced.push(ms);
            } else {
                out.ops.push(ms);
            }
            out.attempted += 1;
            out.failed += class.is_none() as u64;
            classes.push(class);
        }
    }
    if cfg.trace {
        layer_counts(&tr, &classes, &state.plans, &mut out);
        out.tracer = Some(tr);
    }
    out
}

fn layer_counts(tr: &Tracer, classes: &[Option<Class>], plans: &PlanCounts, out: &mut Outcome) {
    let window = &classes[..CLASS_WINDOW];
    let count = |f: fn(&Class) -> bool| window.iter().flatten().filter(|c| f(c)).count() as f64;
    let dirty: Vec<f64> = classes
        .iter()
        .flatten()
        .filter_map(|c| match c {
            Class::Patched { dirty_share } => Some(*dirty_share),
            _ => None,
        })
        .collect();
    // Born execute + push inside `gradient_with_plan`, over the frame.
    let recompute = tr.per_op("gradient.born_recompute", true);
    let op = tr.per_op("op", true);
    let shares: Vec<f64> = recompute.iter().zip(&op).map(|(r, o)| r / o).collect();
    plans.layer_metrics(&mut out.layer);
    out.layer.extend([
        ("plan.reused_frames", count(|c| *c == Class::Reused)),
        (
            "plan.patched_frames",
            count(|c| matches!(c, Class::Patched { .. })),
        ),
        ("plan.rebuilt_frames", count(|c| *c == Class::Rebuilt)),
        ("plan.escaped_frames", count(|c| *c == Class::Escaped)),
        ("plan.dirty_share", median(&dirty)),
        ("gradient.born_recompute_share", median(&shares)),
    ]);
}
