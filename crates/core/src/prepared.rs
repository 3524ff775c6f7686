//! A prepared solver with its interaction plan, and the one function
//! that steps the pair from one trajectory frame to the next.
//!
//! Every frame loop in the workspace — [`replay_frames`] (`polar
//! trajectory`, `bench_replan`), the minimizer's trial moves,
//! `bench_gradient` — and the engines' same-topology patch path go
//! through [`advance`] / [`Prepared::patched_to`]; nothing else sequences
//! [`GbSolver::apply_frame`], [`InteractionPlan::delta`],
//! [`InteractionPlan::patch`] and [`GbSolver::resync_geometry`]. (The
//! primitives stay public: `benchmark/` times them one by one.)

use crate::plan::{
    InteractionPlan, PlanDelta, PlanError, RebuildReason, ReplanConfig, ReplanStats,
};
use crate::report::{ReplanFrameRow, ReplanReport};
use crate::solver::{GbParams, GbResult, GbSolver};
use polar_geom::Vec3;
use polar_molecule::{Atom, Molecule};
use polar_octree::OctreeConfig;
use polar_surface::SurfaceConfig;

/// A cached unit: the prepared solver and its interaction plan. The
/// solver rides along because executing a plan needs the trees and
/// q-point aggregates it was built from — and rebuilding the solver
/// dominates a fresh solve's cost.
pub struct Prepared {
    pub solver: GbSolver,
    pub plan: InteractionPlan,
}

/// A solver for `mol` — surface and both octrees — under the one prep
/// configuration the engines and frame loops share (it is part of what
/// makes a cached plan valid, so it is fixed).
fn cold_solver(mol: &Molecule) -> GbSolver {
    GbSolver::for_molecule(mol, &SurfaceConfig::coarse(), &OctreeConfig::default())
}

impl Prepared {
    /// Prepare `mol` from scratch: solver, then its plan.
    pub fn cold(mol: &Molecule, p: &GbParams) -> Prepared {
        let solver = cold_solver(mol);
        let plan = solver.plan(p);
        Prepared { solver, plan }
    }

    /// Bytes the unit keeps resident: the plan's lists and the solver
    /// they execute against (atoms, q-points, both octrees, moments) —
    /// about as much again as the plan since the Born lists are stored
    /// per block. What the cache charges for an entry.
    pub fn memory_bytes(&self) -> usize {
        self.plan.memory_bytes() + self.solver.memory_bytes()
    }

    /// The patch-only entry for the engines: a copy of this same-topology
    /// entry moved to `mol`'s coordinates with the dirty plan segments
    /// spliced. Verifies the topology really is bitwise identical (hashes
    /// can lie) and pre-checks the displacement against the patch limit
    /// *before* paying for any clone. `None` means "prepare cold" —
    /// topology differs, the move is too large, the trees' leaf cells
    /// overflowed their slack, or the dirty fraction made patching
    /// pointless.
    pub fn patched_to(
        &self,
        mol: &Molecule,
        p: &GbParams,
        cfg: &ReplanConfig,
    ) -> Option<(Prepared, ReplanStats)> {
        let base = &self.solver;
        if base.n_atoms() != mol.len() {
            return None;
        }
        for (a, (r, c)) in mol
            .atoms
            .iter()
            .zip(base.atom_radii.iter().zip(&base.charges))
        {
            if a.radius.to_bits() != r.to_bits() || a.charge.to_bits() != c.to_bits() {
                return None;
            }
        }
        let new_pos = mol.positions();
        let max_d2 = new_pos
            .iter()
            .zip(&base.atom_pos)
            .map(|(n, o)| n.dist_sq(*o))
            .fold(0.0_f64, f64::max);
        if max_d2.sqrt() > cfg.max_displacement {
            return None;
        }
        let mut next = Prepared {
            solver: base.clone(),
            plan: self.plan.clone(),
        };
        next.solver.name = mol.name.clone();
        match step(&mut next.solver, &mut next.plan, &new_pos, p, cfg).action {
            FrameAction::Patched(stats) => Some((next, stats)),
            _ => None,
        }
    }
}

/// What one frame step did to the plan.
#[derive(Debug, Clone, PartialEq)]
pub enum FrameAction {
    /// The solver had not moved since the plan was built or patched.
    Reused,
    /// Dirty segments were re-planned and spliced in place.
    Patched(ReplanStats),
    /// The delta classifier refused a patch: node geometry was rescanned
    /// exactly and the plan rebuilt on the same trees.
    Replanned(RebuildReason),
    /// This many points left their slackened leaf cells, so the tree
    /// topology itself was stale: solver and plan were prepared cold.
    Escaped(usize),
}

/// Outcome of [`advance`].
#[derive(Debug, Clone, PartialEq)]
pub struct Advance {
    pub action: FrameAction,
    /// Largest single-point displacement the frame introduced (Å); zero
    /// for an escaped frame, whose trees never took the coordinates.
    pub max_disp: f64,
}

impl Advance {
    /// The [`ReplanFrameRow`] of frame `frame`: what the step did, the
    /// (now current) plan's segment totals, and the step's `seconds`
    /// booked as patch time on a patched frame and plan time on a
    /// rebuilt one. `exec_seconds` and `epol_kcal` are the caller's.
    pub fn row(&self, frame: usize, plan: &InteractionPlan, seconds: f64) -> ReplanFrameRow {
        let mut row = ReplanFrameRow {
            frame,
            max_disp: self.max_disp,
            total_born: plan.born.groups() as u64,
            total_epol: plan.epol.groups() as u64,
            ..ReplanFrameRow::default()
        };
        row.action = match &self.action {
            FrameAction::Reused => "reused",
            FrameAction::Patched(stats) => {
                row.patch_seconds = seconds;
                row.dirty_born = stats.dirty_born as u64;
                row.dirty_epol = stats.dirty_epol as u64;
                "patched"
            }
            FrameAction::Replanned(_) | FrameAction::Escaped(_) => {
                row.plan_seconds = seconds;
                "rebuilt"
            }
        }
        .into();
        row
    }
}

/// Move `solver` to `pos` and keep `plan` current for it: reuse the plan,
/// patch its dirty segments, re-plan on exactly rescanned trees when the
/// delta classifier says a patch is impossible or not worth it, or
/// prepare solver and plan cold when points escaped their leaf cells.
/// On return the plan always fits the solver at `pos`.
pub fn advance(
    solver: &mut GbSolver,
    plan: &mut InteractionPlan,
    pos: &[Vec3],
    p: &GbParams,
    cfg: &ReplanConfig,
) -> Advance {
    let out = step(solver, plan, pos, p, cfg);
    match out.action {
        FrameAction::Reused | FrameAction::Patched(_) => {}
        FrameAction::Replanned(_) => {
            // Clear accumulated drift first so the fresh plan measures
            // margins against exact geometry and later frames regain
            // full patch headroom.
            solver.resync_geometry();
            *plan = solver.plan(p);
        }
        FrameAction::Escaped(_) => {
            let atoms: Vec<Atom> = pos
                .iter()
                .zip(&solver.atom_radii)
                .zip(&solver.charges)
                .map(|((x, r), q)| Atom::new(*x, *r, *q))
                .collect();
            let cold = Prepared::cold(&Molecule::new(&solver.name, atoms), p);
            *solver = cold.solver;
            *plan = cold.plan;
        }
    }
    out
}

/// Apply the frame and patch if the classifier allows. After `Replanned`
/// the solver sits at `pos` with a stale plan; after `Escaped` neither
/// moved — [`advance`] finishes both, [`Prepared::patched_to`] discards
/// its copy.
fn step(
    solver: &mut GbSolver,
    plan: &mut InteractionPlan,
    pos: &[Vec3],
    p: &GbParams,
    cfg: &ReplanConfig,
) -> Advance {
    let frame = match solver.apply_frame(pos, cfg.slack, cfg.tolerance) {
        Ok(frame) => frame,
        Err(escaped) => {
            return Advance {
                action: FrameAction::Escaped(escaped),
                max_disp: 0.0,
            }
        }
    };
    let action = match plan.delta(solver, p, &frame, cfg) {
        PlanDelta::Reusable => FrameAction::Reused,
        PlanDelta::Patchable(set) => FrameAction::Patched(
            plan.patch(solver, p, &set)
                .expect("delta checked this plan's fingerprint against this solver"),
        ),
        PlanDelta::Rebuild(reason) => FrameAction::Replanned(reason),
    };
    Advance {
        action,
        max_disp: frame.max_disp,
    }
}

/// Replay `frames` (frame 0 = `mol` unperturbed) through one prepared
/// solver — frame 0 plans cold, every later frame is one [`advance`] —
/// solving each, and assemble the [`ReplanReport`]. `each_frame` sees
/// every later frame's row with the solver and the result behind it.
/// Engine-free, so the timings isolate plan maintenance from cache and
/// scheduling effects.
pub fn replay_frames(
    mol: &Molecule,
    frames: &[Molecule],
    p: &GbParams,
    cfg: &ReplanConfig,
    mut each_frame: impl FnMut(&ReplanFrameRow, &GbSolver, &GbResult),
) -> Result<ReplanReport, PlanError> {
    let wall = std::time::Instant::now();
    let mut solver = cold_solver(mol);
    let t = std::time::Instant::now();
    let mut plan = solver.plan(p);
    let cold_plan_seconds = t.elapsed().as_secs_f64();
    let t = std::time::Instant::now();
    let first = solver.solve_with_plan(&plan, p)?;
    let mut rows = vec![ReplanFrameRow {
        action: "cold".into(),
        total_born: plan.born.groups() as u64,
        total_epol: plan.epol.groups() as u64,
        plan_seconds: cold_plan_seconds,
        exec_seconds: t.elapsed().as_secs_f64(),
        epol_kcal: first.epol_kcal,
        ..ReplanFrameRow::default()
    }];
    for (k, frame) in frames.iter().enumerate().skip(1) {
        let t = std::time::Instant::now();
        let step = advance(&mut solver, &mut plan, &frame.positions(), p, cfg);
        let mut row = step.row(k, &plan, t.elapsed().as_secs_f64());
        let t = std::time::Instant::now();
        let result = solver.solve_with_plan(&plan, p)?;
        row.exec_seconds = t.elapsed().as_secs_f64();
        row.epol_kcal = result.epol_kcal;
        each_frame(&row, &solver, &result);
        rows.push(row);
    }
    let mut report = ReplanReport {
        molecule: mol.name.clone(),
        n_atoms: mol.len(),
        rows,
        ..ReplanReport::default()
    };
    report.summarize();
    report.wall_seconds = wall.elapsed().as_secs_f64();
    Ok(report)
}
