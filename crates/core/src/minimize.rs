//! Energy minimization on the plan-path gradient: steepest descent and
//! L-BFGS with Armijo backtracking line search. Every trial and accepted
//! point is reached through the frame stepper ([`crate::prepared::advance`]),
//! so a relaxation runs the delta re-planning path end-to-end.
//!
//! This replaces the fixed-step steepest descent the `md_relaxation`
//! example used to hand-roll, which could overshoot the quadratic bowl
//! and *climb* in energy with no diagnostic. The line search here only
//! ever accepts a trial point satisfying the Armijo sufficient-decrease
//! condition `E(x + t·d) ≤ E(x) + c₁·t·(g·d)` with a descent direction
//! `d` (`g·d < 0`), so the accepted energy sequence is monotonically
//! decreasing *by construction* — asserted in the example and tests.
//!
//! ## Objective consistency
//!
//! The gradient freezes Born radii (the standard GB-MD approximation);
//! the line-search objective re-solves energies with *fresh* radii at
//! each trial point. The mismatch is the chain-rule term through R,
//! orders of magnitude below the frozen term at MD step sizes, but near
//! a minimum it can make the analytic slope disagree with the sampled
//! energies. When backtracking exhausts [`MinimizeConfig::max_backtracks`]
//! without sufficient decrease the loop therefore *stalls gracefully*:
//! it stops, reports `converged = false` with the stall recorded, and
//! never accepts an uphill point.

use crate::energy::gradient::GradientError;
use crate::eval::LeafEval;
use crate::plan::{InteractionPlan, ReplanConfig};
use crate::prepared::{advance, FrameAction};
use crate::report::{GradientIterRow, GradientReport};
use crate::solver::{GbParams, GbSolver};
use polar_geom::Vec3;

/// Knobs for [`minimize`].
#[derive(Debug, Clone)]
pub struct MinimizeConfig {
    /// Stop after this many accepted iterations.
    pub max_iters: usize,
    /// Converged when the gradient max-norm falls below this
    /// (kcal/mol/Å).
    pub grad_tol: f64,
    /// First-trial maximum per-atom displacement for steepest-descent
    /// steps (Å). L-BFGS tries its natural unit step first, capped by
    /// [`MinimizeConfig::max_step`].
    pub initial_step: f64,
    /// Hard cap on the per-atom displacement of any trial step (Å) —
    /// keeps frames inside the re-planner's patchable regime.
    pub max_step: f64,
    /// Armijo sufficient-decrease constant `c₁`.
    pub c1: f64,
    /// Step-length shrink factor per backtrack.
    pub backtrack: f64,
    /// Give up (stall) after this many consecutive shrinks.
    pub max_backtracks: usize,
    /// L-BFGS history pairs; `0` selects plain steepest descent.
    pub lbfgs_memory: usize,
    /// Re-planning policy for the per-step frames.
    pub replan: ReplanConfig,
    /// Work-stealing threads for the gradient/energy evaluations;
    /// `None` = serial.
    pub workers: Option<usize>,
}

impl Default for MinimizeConfig {
    fn default() -> Self {
        MinimizeConfig {
            max_iters: 100,
            grad_tol: 0.5,
            initial_step: 0.02,
            max_step: 0.25,
            c1: 1e-4,
            backtrack: 0.5,
            max_backtracks: 12,
            lbfgs_memory: 5,
            replan: ReplanConfig::default(),
            workers: None,
        }
    }
}

/// What [`minimize`] did.
#[derive(Debug, Clone)]
pub struct MinimizeOutcome {
    /// Energy at the final iterate (kcal/mol).
    pub energy_kcal: f64,
    /// Gradient max-norm at the final iterate (kcal/mol/Å).
    pub grad_max: f64,
    /// Final coordinates, original atom order.
    pub positions: Vec<Vec3>,
    /// Whether `grad_max ≤ grad_tol` was reached.
    pub converged: bool,
    /// Accepted iterations performed.
    pub iters: usize,
    /// Per-iteration trace + plan-reuse counters.
    pub report: GradientReport,
}

/// Per-iteration replan counters, folded into the report rows.
#[derive(Default, Clone, Copy)]
struct StepCounters {
    patched: u64,
    rebuilt: u64,
    reused: u64,
    energy_evals: u64,
    energy_seconds: f64,
}

/// Minimize E_pol over atom positions with plan-path analytic gradients.
///
/// `solver` and `plan` are advanced in place: every accepted (and
/// trial) frame goes through [`advance`], which patches, reuses or
/// rebuilds the plan per [`MinimizeConfig::replan`] — the counters land
/// in the returned [`GradientReport`]. On return the solver sits at the
/// final iterate.
pub fn minimize(
    solver: &mut GbSolver,
    plan: &mut InteractionPlan,
    p: &GbParams,
    cfg: &MinimizeConfig,
) -> Result<MinimizeOutcome, GradientError> {
    let n = solver.n_atoms();
    let mode = if cfg.lbfgs_memory == 0 { "sd" } else { "lbfgs" };
    let mut report = GradientReport {
        molecule: solver.name.clone(),
        mode: mode.into(),
        kernel_mode: p.kernel.label().into(),
        n_atoms: n as u64,
        ..GradientReport::default()
    };
    let t_all = std::time::Instant::now();

    let mut counters = StepCounters::default();
    let t0 = std::time::Instant::now();
    let mut cur = solver.gradient_report(plan, p, cfg.workers)?.0;
    let mut grad_seconds = t0.elapsed().as_secs_f64();
    let mut x: Vec<Vec3> = solver.atom_pos.clone();

    // L-BFGS history: (s, y, 1/(sᵀy)), newest last.
    let mut hist: Vec<(Vec<Vec3>, Vec<Vec3>, f64)> = Vec::new();
    let mut converged = cur.grad_max() <= cfg.grad_tol;
    let mut iters = 0usize;

    while !converged && iters < cfg.max_iters {
        let mut d = direction(&cur.grad, &hist, cfg.lbfgs_memory);
        let mut slope = dot(&d, &cur.grad);
        // NaN-safe: a NaN slope must also trigger the reset, so this
        // cannot be `slope >= 0.0`.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(slope < 0.0) {
            // Non-descent (stale curvature or numerical noise): reset.
            d = cur.grad.iter().map(|g| -*g).collect();
            slope = -cur.grad.iter().map(|g| g.norm_sq()).sum::<f64>();
            hist.clear();
        }
        let d_max = d.iter().map(|v| v.norm()).fold(0.0, f64::max);
        if d_max == 0.0 {
            converged = true;
            break;
        }
        // Unit L-BFGS step, or a displacement-scaled SD step; always
        // capped so the frame stays patchable.
        let natural = if cfg.lbfgs_memory == 0 || hist.is_empty() {
            cfg.initial_step / d_max
        } else {
            1.0
        };
        let mut t = natural.min(cfg.max_step / d_max);

        // Armijo backtracking from the current iterate.
        let mut accepted = None;
        let evals_before = counters.energy_evals;
        for _ in 0..=cfg.max_backtracks {
            let trial: Vec<Vec3> = x.iter().zip(&d).map(|(xi, di)| *xi + *di * t).collect();
            let e_trial = energy_at(solver, plan, p, cfg, &trial, &mut counters)?;
            if e_trial <= cur.epol_kcal + cfg.c1 * t * slope {
                accepted = Some((trial, e_trial));
                break;
            }
            t *= cfg.backtrack;
        }
        let Some((trial, _)) = accepted else {
            // Stall: every shrink failed sufficient decrease. The solver
            // currently sits at the last (rejected) trial — move it back
            // to the accepted iterate before stopping.
            move_to(solver, plan, p, cfg, &x, &mut counters);
            report.stalled = true;
            break;
        };

        // Gradient (and consistent energy) at the accepted point. The
        // solver already sits there from the last trial move.
        let t0 = std::time::Instant::now();
        let next = solver.gradient_report(plan, p, cfg.workers)?.0;
        let step_grad_s = t0.elapsed().as_secs_f64();

        if cfg.lbfgs_memory > 0 {
            let s: Vec<Vec3> = trial.iter().zip(&x).map(|(a, b)| *a - *b).collect();
            let y: Vec<Vec3> = next
                .grad
                .iter()
                .zip(&cur.grad)
                .map(|(a, b)| *a - *b)
                .collect();
            let sy = dot(&s, &y);
            if sy > 1e-12 {
                hist.push((s, y, 1.0 / sy));
                if hist.len() > cfg.lbfgs_memory {
                    hist.remove(0);
                }
            }
        }

        iters += 1;
        report.rows.push(GradientIterRow {
            iter: iters as u64,
            energy_kcal: next.epol_kcal,
            grad_max: next.grad_max(),
            grad_rms: next.grad_rms(),
            step: t * d_max,
            energy_evals: counters.energy_evals - evals_before,
            patched: counters.patched,
            rebuilt: counters.rebuilt,
            reused: counters.reused,
            grad_seconds: step_grad_s,
            energy_seconds: counters.energy_seconds,
        });
        grad_seconds += step_grad_s;
        counters.patched = 0;
        counters.rebuilt = 0;
        counters.reused = 0;
        counters.energy_seconds = 0.0;
        x = trial;
        cur = next;
        converged = cur.grad_max() <= cfg.grad_tol;
    }

    report.converged = converged;
    report.iters = iters as u64;
    report.final_energy_kcal = cur.epol_kcal;
    report.final_grad_max = cur.grad_max();
    report.grad_seconds = grad_seconds;
    report.wall_s = t_all.elapsed().as_secs_f64();
    report.summarize();
    Ok(MinimizeOutcome {
        energy_kcal: cur.epol_kcal,
        grad_max: cur.grad_max(),
        positions: x,
        converged,
        iters,
        report,
    })
}

/// Move the solver to `pos`, keeping the plan current, and count what
/// the frame stepper had to do for it.
fn move_to(
    solver: &mut GbSolver,
    plan: &mut InteractionPlan,
    p: &GbParams,
    cfg: &MinimizeConfig,
    pos: &[Vec3],
    counters: &mut StepCounters,
) {
    match advance(solver, plan, pos, p, &cfg.replan).action {
        FrameAction::Reused => counters.reused += 1,
        FrameAction::Patched(_) => counters.patched += 1,
        FrameAction::Replanned(_) | FrameAction::Escaped(_) => counters.rebuilt += 1,
    }
}

/// Energy of the trial point `pos` (moves the solver there).
fn energy_at(
    solver: &mut GbSolver,
    plan: &mut InteractionPlan,
    p: &GbParams,
    cfg: &MinimizeConfig,
    pos: &[Vec3],
    counters: &mut StepCounters,
) -> Result<f64, GradientError> {
    move_to(solver, plan, p, cfg, pos, counters);
    let t0 = std::time::Instant::now();
    let e = solver
        .solve_report(LeafEval::Plan(plan), p, cfg.workers)?
        .0
        .epol_kcal;
    counters.energy_evals += 1;
    counters.energy_seconds += t0.elapsed().as_secs_f64();
    Ok(e)
}

fn dot(a: &[Vec3], b: &[Vec3]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x.dot(*y)).sum()
}

/// Search direction: `−g` (steepest descent) or the L-BFGS two-loop
/// recursion over `hist` with the standard `(sᵀy)/(yᵀy)` initial
/// Hessian scaling.
fn direction(grad: &[Vec3], hist: &[(Vec<Vec3>, Vec<Vec3>, f64)], memory: usize) -> Vec<Vec3> {
    if memory == 0 || hist.is_empty() {
        return grad.iter().map(|g| -*g).collect();
    }
    let mut q: Vec<Vec3> = grad.to_vec();
    let mut alphas = Vec::with_capacity(hist.len());
    for (s, y, rho) in hist.iter().rev() {
        let alpha = rho * dot(s, &q);
        for (qi, yi) in q.iter_mut().zip(y) {
            *qi -= *yi * alpha;
        }
        alphas.push(alpha);
    }
    let (s_last, y_last, _) = hist.last().expect("non-empty history");
    let gamma = dot(s_last, y_last) / dot(y_last, y_last).max(1e-300);
    for qi in q.iter_mut() {
        *qi *= gamma;
    }
    for ((s, y, rho), alpha) in hist.iter().zip(alphas.iter().rev()) {
        let beta = rho * dot(y, &q);
        for (qi, si) in q.iter_mut().zip(s) {
            *qi += *si * (alpha - beta);
        }
    }
    q.iter().map(|v| -*v).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::energy::gradient::epol_gradient_naive;
    use polar_geom::MathMode;
    use polar_molecule::{generators, Atom, Molecule};
    use polar_octree::OctreeConfig;
    use polar_surface::SurfaceConfig;

    fn setup(n: usize, seed: u64) -> (GbSolver, InteractionPlan, GbParams) {
        let mol = generators::globular("min", n, seed);
        let solver =
            GbSolver::for_molecule(&mol, &SurfaceConfig::coarse(), &OctreeConfig::default());
        let p = GbParams::default();
        let plan = solver.plan(&p);
        (solver, plan, p)
    }

    #[test]
    fn descent_is_monotone_and_uses_the_delta_path() {
        let (mut solver, mut plan, p) = setup(120, 11);
        let e0 = solver.solve_with_plan(&plan, &p).unwrap().epol_kcal;
        let cfg = MinimizeConfig {
            max_iters: 8,
            grad_tol: 1e-9, // unreachably tight: force all 8 iterations
            ..MinimizeConfig::default()
        };
        let out = minimize(&mut solver, &mut plan, &p, &cfg).unwrap();
        assert!(out.iters > 0, "no steps taken");
        let mut prev = e0;
        for row in &out.report.rows {
            assert!(
                row.energy_kcal <= prev + 1e-9,
                "uphill step: {} -> {}",
                prev,
                row.energy_kcal
            );
            prev = row.energy_kcal;
        }
        assert!(out.energy_kcal < e0, "{} !< {e0}", out.energy_kcal);
        // The per-step frames must exercise re-planning, not cold builds
        // only.
        let patched: u64 = out.report.rows.iter().map(|r| r.patched).sum();
        let reused: u64 = out.report.rows.iter().map(|r| r.reused).sum();
        assert!(patched + reused > 0, "delta path never taken");
        // Solver finished at the reported iterate.
        assert_eq!(solver.atom_pos, out.positions);
    }

    /// Full solver + energy at a bare coordinate set.
    fn cold_energy(pos: &[Vec3], radii: &[f64], q: &[f64], p: &GbParams) -> f64 {
        let atoms: Vec<Atom> = pos
            .iter()
            .zip(radii)
            .zip(q)
            .map(|((x, r), c)| Atom::new(*x, *r, *c))
            .collect();
        let mol = Molecule::new("cold", atoms);
        GbSolver::for_molecule(&mol, &SurfaceConfig::coarse(), &OctreeConfig::default())
            .solve(p)
            .epol_kcal
    }

    #[test]
    fn old_fixed_step_failure_geometry_now_descends_monotonically() {
        // Regression for the md_relaxation overshoot bug: the old
        // example's update rule x ← x − s·g with a *fixed* s has no
        // uphill rejection, and in the aggressive-step regime it climbs
        // in energy mid-descent. Reproduce the climb, capture the
        // geometry it failed from, and show the line-search minimizer
        // started there never accepts an uphill point.
        let (solver, _plan, p) = setup(60, 7);
        let radii = solver.atom_radii.clone();
        let q = solver.charges.clone();
        let tau = crate::constants::tau(p.eps_solvent);
        let mut pos = solver.atom_pos.clone();
        let mut prev = solver.solve(&p).epol_kcal;
        let mut failure: Option<(Vec<Vec3>, f64)> = None;
        for _ in 0..12 {
            let atoms: Vec<Atom> = pos
                .iter()
                .zip(&radii)
                .zip(&q)
                .map(|((x, r), c)| Atom::new(*x, *r, *c))
                .collect();
            let mol = Molecule::new("fixed", atoms);
            let sv =
                GbSolver::for_molecule(&mol, &SurfaceConfig::coarse(), &OctreeConfig::default());
            let born = sv.solve(&p).born;
            let g = epol_gradient_naive(&pos, &q, &born, tau, MathMode::Exact).unwrap();
            let gmax = g.iter().map(|v| v.norm()).fold(0.0, f64::max);
            let before = pos.clone();
            // ~3 Å max displacement per step: the old rule's overshoot
            // regime (no curvature information, no rejection).
            let s = 3.0 / gmax;
            for (x, gi) in pos.iter_mut().zip(&g) {
                *x -= *gi * s;
            }
            let e = cold_energy(&pos, &radii, &q, &p);
            if e > prev {
                failure = Some((before, prev));
                break;
            }
            prev = e;
        }
        let (fail_pos, e_fail) =
            failure.expect("fixed-step rule no longer overshoots — pick a harder fixture");

        // The line-search minimizer from the exact geometry the old rule
        // overshot from: monotone by construction, strictly downhill.
        let atoms: Vec<Atom> = fail_pos
            .iter()
            .zip(&radii)
            .zip(&q)
            .map(|((x, r), c)| Atom::new(*x, *r, *c))
            .collect();
        let mol = Molecule::new("failure", atoms);
        let mut s2 =
            GbSolver::for_molecule(&mol, &SurfaceConfig::coarse(), &OctreeConfig::default());
        let mut plan2 = s2.plan(&p);
        let cfg = MinimizeConfig {
            max_iters: 6,
            grad_tol: 1e-9,
            ..MinimizeConfig::default()
        };
        let out = minimize(&mut s2, &mut plan2, &p, &cfg).unwrap();
        assert!(out.iters > 0, "no steps accepted from the failure geometry");
        let mut prev = e_fail;
        for row in &out.report.rows {
            assert!(
                row.energy_kcal <= prev + 1e-9,
                "uphill: {prev} -> {}",
                row.energy_kcal
            );
            prev = row.energy_kcal;
        }
        assert!(out.energy_kcal < e_fail, "{} !< {e_fail}", out.energy_kcal);
    }

    #[test]
    fn lbfgs_descends_at_least_as_far_as_sd_per_iteration_budget() {
        let budget = 6;
        let (mut s_sd, mut p_sd, p) = setup(90, 3);
        let sd = minimize(
            &mut s_sd,
            &mut p_sd,
            &p,
            &MinimizeConfig {
                max_iters: budget,
                grad_tol: 1e-9,
                lbfgs_memory: 0,
                ..MinimizeConfig::default()
            },
        )
        .unwrap();
        let (mut s_lb, mut p_lb, _) = setup(90, 3);
        let lb = minimize(
            &mut s_lb,
            &mut p_lb,
            &p,
            &MinimizeConfig {
                max_iters: budget,
                grad_tol: 1e-9,
                lbfgs_memory: 5,
                ..MinimizeConfig::default()
            },
        )
        .unwrap();
        // Curvature information should not *hurt* on a smooth bowl; allow
        // a tiny slop for line-search luck.
        assert!(
            lb.energy_kcal <= sd.energy_kcal + 0.05 * sd.energy_kcal.abs().max(1.0),
            "lbfgs {} vs sd {}",
            lb.energy_kcal,
            sd.energy_kcal
        );
    }

    #[test]
    fn converges_on_opposite_charge_pair_and_reports_schema() {
        // An opposite-charge pair is the clean converging fixture:
        // E_pol favors separating the charges (better individual
        // solvation), and every interaction decays with distance, so the
        // gradient genuinely falls below tolerance — unlike a packed
        // blob, whose expansion funnel keeps grad_max O(10) forever.
        let atoms = vec![
            Atom::new(Vec3::new(0.0, 0.0, 0.0), 1.7, 0.8),
            Atom::new(Vec3::new(4.0, 0.0, 0.0), 1.7, -0.8),
        ];
        let mol = Molecule::new("pair", atoms);
        let mut solver =
            GbSolver::for_molecule(&mol, &SurfaceConfig::coarse(), &OctreeConfig::default());
        let p = GbParams::default();
        let mut plan = solver.plan(&p);
        let cfg = MinimizeConfig {
            max_iters: 100,
            grad_tol: 5.0,
            ..MinimizeConfig::default()
        };
        let out = minimize(&mut solver, &mut plan, &p, &cfg).unwrap();
        assert!(out.converged, "grad_max {}", out.grad_max);
        assert!(out.grad_max <= 5.0);
        let sep = (out.positions[0] - out.positions[1]).norm();
        assert!(sep > 4.0, "charges failed to separate: {sep}");
        let json = out.report.to_json();
        assert!(json.contains("\"schema\":\"gradient_report/v1\""));
        let csv = out.report.to_csv();
        assert_eq!(csv.lines().next().unwrap(), GradientReport::csv_header());
        assert_eq!(csv.lines().count() as u64, 1 + out.report.iters);
    }
}
