//! The leaf evaluator: which code runs one leaf segment of a stage.
//!
//! Every solve path — serial, pooled, each rank of the distributed
//! driver — is the same pipeline over leaf segments (paper Fig. 4); the
//! only thing that varies is whether a segment is evaluated by the
//! recursive traversals of Fig. 2/3 or by replaying a prebuilt
//! [`InteractionPlan`]'s flat lists. [`LeafEval`] is that choice, and the
//! only place that branches on it.

use crate::born::octree::{approx_integrals_into, BornOctreeCtx, BornPartials};
use crate::constants::tau;
use crate::energy::octree::{epol_for_leaf_segment, EpolCtx};
use crate::kernels::KernelMode;
use crate::plan::{InteractionPlan, PlanError};
use crate::report::PlanReport;
use crate::solver::{GbParams, GbSolver};
use crate::stats::WorkCounts;
use std::ops::Range;

/// How a leaf segment is evaluated.
#[derive(Clone, Copy)]
pub enum LeafEval<'a> {
    /// Recursive `APPROX-INTEGRALS` / `APPROX-EPOL` traversals (always
    /// scalar strict-fp arithmetic).
    Traverse,
    /// Replay the plan's per-leaf interaction lists in `p.kernel` mode.
    Plan(&'a InteractionPlan),
}

impl<'a> From<Option<&'a InteractionPlan>> for LeafEval<'a> {
    fn from(plan: Option<&'a InteractionPlan>) -> Self {
        plan.map_or(LeafEval::Traverse, LeafEval::Plan)
    }
}

impl LeafEval<'_> {
    /// Reject a plan that was not built from `solver` at `p`'s ε and the
    /// current geometry; the traversal has nothing to mismatch.
    pub fn check(&self, solver: &GbSolver, p: &GbParams) -> Result<(), PlanError> {
        match self {
            LeafEval::Traverse => Ok(()),
            LeafEval::Plan(plan) => plan.check_compatible(solver, p),
        }
    }

    /// The arithmetic this evaluator runs: only plan replay honours
    /// `p.kernel`.
    pub fn kernel_mode(&self, p: &GbParams) -> KernelMode {
        match self {
            LeafEval::Traverse => KernelMode::Strict,
            LeafEval::Plan(_) => p.kernel,
        }
    }

    /// Interaction-list statistics, when a plan executes.
    pub fn plan_stats(&self) -> Option<PlanReport> {
        match self {
            LeafEval::Traverse => None,
            LeafEval::Plan(plan) => Some(plan.stats()),
        }
    }

    /// `SolveReport::mode` of a single-process solve.
    pub(crate) fn mode(&self, pooled: bool) -> &'static str {
        match (self, pooled) {
            (LeafEval::Traverse, false) => "serial",
            (LeafEval::Traverse, true) => "parallel",
            (LeafEval::Plan(_), false) => "plan",
            (LeafEval::Plan(_), true) => "plan_parallel",
        }
    }

    /// Born-stage partial integrals of a `T_Q` leaf segment, accumulated
    /// into `partials`.
    pub fn born_into(
        &self,
        ctx: &BornOctreeCtx<'_>,
        p: &GbParams,
        qleaf_range: Range<usize>,
        partials: &mut BornPartials,
        work: &mut WorkCounts,
    ) {
        match self {
            LeafEval::Traverse => {
                approx_integrals_into(ctx, p.eps_born, qleaf_range, partials, work)
            }
            LeafEval::Plan(plan) => {
                plan.execute_born_segment(ctx, qleaf_range, p.kernel, partials, work)
            }
        }
    }

    /// As [`LeafEval::born_into`], into fresh partials — one pool task's
    /// or one rank's contribution.
    pub fn born(
        &self,
        ctx: &BornOctreeCtx<'_>,
        p: &GbParams,
        qleaf_range: Range<usize>,
        work: &mut WorkCounts,
    ) -> BornPartials {
        let mut partials = BornPartials::zeros(ctx.tree_a);
        self.born_into(ctx, p, qleaf_range, &mut partials, work);
        partials
    }

    /// Energy contribution of a `T_A` leaf segment. `born_slot` is the
    /// Born radii in Morton slot order (see [`GbSolver::born_by_slot`]),
    /// which the plan's SoA loops stream over.
    pub fn epol(
        &self,
        ectx: &EpolCtx<'_>,
        born_slot: &[f64],
        p: &GbParams,
        aleaf_range: Range<usize>,
        work: &mut WorkCounts,
    ) -> f64 {
        let t = tau(p.eps_solvent);
        match self {
            LeafEval::Traverse => {
                epol_for_leaf_segment(ectx, p.eps_epol, p.math, t, aleaf_range, work)
            }
            LeafEval::Plan(plan) => {
                plan.execute_epol_segment(ectx, born_slot, p.math, p.kernel, t, aleaf_range, work)
            }
        }
    }
}
