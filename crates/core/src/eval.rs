//! The Fig. 4 stages, written once.
//!
//! Every solve path — serial, pooled (`OCT_CILK`), each rank of the
//! replicated `OCT_MPI[+CILK]` driver and of the data-distributed driver
//! — is the same sequence of stages over leaf segments (paper Fig. 4):
//! [`born_stage`] (integrals over `T_Q` leaf runs), [`push_stage`] (Born
//! radii over atom-slot runs), [`epol_stage`] (energy over `T_A` leaf
//! runs) and, on the plan path, [`gradient_stage`]. A caller brings only
//! its chunking — a list of chunks, each a list of leaf runs — its
//! [`Runner`] and, between stages, its collectives. Each stage merges
//! chunk results in chunk order, so no answer depends on the steal
//! schedule.
//!
//! Inside a stage one thing varies: whether a leaf run is evaluated by
//! the recursive traversals of Fig. 2/3 or by replaying a prebuilt
//! [`InteractionPlan`]'s flat lists. [`LeafEval`] is that choice, and the
//! only place that branches on it.

use crate::born::octree::{
    approx_integrals_into, push_integrals_to_atoms_slots, BornOctreeCtx, BornPartials,
};
use crate::constants::tau;
use crate::energy::gradient::GradientError;
use crate::energy::octree::{epol_for_leaf_segment, EpolBuffers, EpolCtx};
use crate::kernels::KernelMode;
use crate::partition::even_segments;
use crate::plan::{InteractionPlan, PlanError};
use crate::report::PlanReport;
use crate::solver::{GbParams, GbSolver};
use crate::stats::WorkCounts;
use polar_geom::{MathMode, Vec3};
use polar_octree::Octree;
use polar_runtime::StealStats;
use std::convert::Infallible;
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
}

/// Runs a stage's chunk tasks and hands their results back in chunk
/// order.
pub trait Runner {
    /// How a batch can fail (the fault-tolerant driver aborts its rank).
    type Error;

    /// Whether chunks run in order on the caller's thread.
    fn inline(&self) -> bool {
        false
    }

    /// Run `task(c)` for every chunk `c` in `0..n`.
    fn run<T: Send, F: Fn(usize) -> T + Sync>(
        &mut self,
        n: usize,
        task: F,
    ) -> Result<Vec<T>, Self::Error>;

    /// Fold `chunk(c, acc, work)` over chunks `0..n`: inline, straight
    /// into `acc`; otherwise each chunk into its own `zero()`, merged
    /// into `acc` in chunk order.
    fn fold_chunks<A: Send>(
        &mut self,
        n: usize,
        acc: &mut A,
        zero: impl Fn() -> A + Sync,
        chunk: impl Fn(usize, &mut A, &mut WorkCounts) + Sync,
        merge: impl Fn(&mut A, A),
    ) -> Result<WorkCounts, Self::Error> {
        let mut work = WorkCounts::ZERO;
        if self.inline() {
            (0..n).for_each(|c| chunk(c, acc, &mut work));
            return Ok(work);
        }
        let parts = self.run(n, |c| {
            let (mut part, mut w) = (zero(), WorkCounts::ZERO);
            chunk(c, &mut part, &mut w);
            (part, w)
        })?;
        for (part, w) in parts {
            merge(acc, part);
            work.accumulate(w);
        }
        Ok(work)
    }
}

/// The single-process runner: inline on the caller's thread, or
/// `polar_runtime::run_batch` on work-stealing threads (the paper's
/// `OCT_CILK`), where a task panic resurfaces on the caller with its own
/// payload.
pub struct Local {
    /// Pool size, or `None` to run inline.
    pub(crate) workers: Option<usize>,
    /// Scheduler counters merged over every batch (`None` inline).
    pub steal: Option<StealStats>,
}

impl Local {
    pub fn new(workers: Option<usize>) -> Local {
        let workers = workers.map(|w| w.max(1));
        let steal = workers.map(|_| StealStats::default());
        Local { workers, steal }
    }
}

impl Runner for Local {
    type Error = Infallible;

    fn inline(&self) -> bool {
        self.workers.is_none()
    }

    fn run<T: Send, F: Fn(usize) -> T + Sync>(
        &mut self,
        n: usize,
        task: F,
    ) -> Result<Vec<T>, Infallible> {
        let (Some(workers), Some(steal)) = (self.workers, &mut self.steal) else {
            return Ok((0..n).map(task).collect());
        };
        let task = &task;
        let (out, stats) =
            polar_runtime::run_batch(workers, (0..n).map(|c| move || task(c)).collect());
        steal.merge(&stats);
        Ok(out)
    }
}

/// Born stage (Fig. 4 steps 2–3): `APPROX-INTEGRALS` over each chunk's
/// `T_Q` leaf runs, added into `acc` in chunk order. Returns its work.
pub fn born_stage<C: AsRef<[Range<usize>]> + Sync, R: Runner>(
    eval: LeafEval<'_>,
    ctx: &BornOctreeCtx<'_>,
    p: &GbParams,
    chunks: &[C],
    runner: &mut R,
    acc: &mut BornPartials,
) -> Result<WorkCounts, R::Error> {
    let chunk = |c: usize, part: &mut BornPartials, work: &mut WorkCounts| {
        for run in chunks[c].as_ref().iter().cloned() {
            match eval {
                LeafEval::Traverse => approx_integrals_into(ctx, p.eps_born, run, part, work),
                LeafEval::Plan(plan) => plan.execute_born_segment(ctx, run, p.kernel, part, work),
            }
        }
    };
    let zero = || BornPartials::zeros(ctx.tree_a);
    runner.fold_chunks(chunks.len(), acc, zero, chunk, |acc, part| acc.add(&part))
}

/// Push stage (Fig. 4 steps 4–5): `PUSH-INTEGRALS-TO-ATOMS` over atom-slot
/// runs, writing the runs' Born radii into `out` one after another — slot
/// order, which an allgather ships and [`unslot`] scatters. A radius does
/// not depend on where the slots are cut.
pub fn push_stage<R: Runner>(
    ctx: &BornOctreeCtx<'_>,
    totals: &BornPartials,
    math: MathMode,
    runs: &[Range<usize>],
    runner: &mut R,
    out: &mut [f64],
) -> Result<(), R::Error> {
    let push = |c: usize, out: &mut [f64]| {
        push_integrals_to_atoms_slots(ctx, totals, runs[c].clone(), math, out)
    };
    let pieces = match runner.inline() {
        true => Vec::new(),
        false => runner.run(runs.len(), |c| {
            let mut piece = vec![0.0; runs[c].len()];
            push(c, &mut piece);
            piece
        })?,
    };
    let mut rest = out;
    for (c, run) in runs.iter().enumerate() {
        let (head, tail) = rest.split_at_mut(run.len());
        match pieces.get(c) {
            Some(piece) => head.copy_from_slice(piece),
            None => push(c, head),
        }
        rest = tail;
    }
    Ok(())
}

/// Scatter slot-order Born radii into original atom order.
pub fn unslot(tree_a: &Octree, born_slot: &[f64], born: &mut [f64]) {
    for (&orig, &r) in tree_a.order().iter().zip(born_slot) {
        born[orig as usize] = r;
    }
}

/// The E_pol stage's context: per-node charge-bin histograms over `born`
/// (original atom order), refilled into `buffers`.
pub fn epol_ctx<'a>(
    solver: &'a GbSolver,
    born: &'a [f64],
    p: &GbParams,
    buffers: EpolBuffers,
) -> EpolCtx<'a> {
    EpolCtx::new_reusing(&solver.tree_a, &solver.charges, born, p.eps_epol, buffers)
}

/// E_pol stage (Fig. 4 steps 6–7): `APPROX-EPOL` over each chunk's `T_A`
/// leaf runs, chunk energies summed in chunk order. Only plan replay
/// reads `born_slot` (the radii in Morton slot order).
pub fn epol_stage<C: AsRef<[Range<usize>]> + Sync, R: Runner>(
    eval: LeafEval<'_>,
    ectx: &EpolCtx<'_>,
    born_slot: &[f64],
    p: &GbParams,
    chunks: &[C],
    runner: &mut R,
) -> Result<(f64, WorkCounts), R::Error> {
    let (t, math) = (tau(p.eps_solvent), p.math);
    let chunk = |c: usize, e: &mut f64, work: &mut WorkCounts| {
        for run in chunks[c].as_ref().iter().cloned() {
            *e += match eval {
                LeafEval::Traverse => epol_for_leaf_segment(ectx, p.eps_epol, math, t, run, work),
                LeafEval::Plan(plan) => {
                    plan.execute_epol_segment(ectx, born_slot, math, p.kernel, t, run, work)
                }
            };
        }
    };
    // −0.0 is the exact additive identity: an inline stage returns its
    // runs' sum bit for bit, while pooled chunk sums merge from +0.0.
    let mut e = if runner.inline() { -0.0 } else { 0.0 };
    let work = runner.fold_chunks(chunks.len(), &mut e, || -0.0, chunk, |e, part| *e += part)?;
    Ok((e, work))
}

/// Gradient stage at fixed Born radii (plan path) over `parts` even
/// segments of `T_A` leaves. Each segment writes the gradient of its own
/// contiguous slot span, so for fixed radii the result is bitwise the
/// same for any cut or schedule. Returns the gradient in original atom
/// order.
pub(crate) fn gradient_stage(
    plan: &InteractionPlan,
    solver: &GbSolver,
    p: &GbParams,
    born: &[f64],
    parts: usize,
    runner: &mut Local,
) -> Result<(Vec<Vec3>, WorkCounts), GradientError> {
    let segs = even_segments(solver.tree_a.leaves().len(), parts);
    let segs: Vec<_> = segs.into_iter().filter(|r| !r.is_empty()).collect();
    let born_slot = &solver.born_by_slot(born);
    let inv_born = &born_slot.iter().map(|&r| 1.0 / r).collect::<Vec<f64>>();
    let (tree, t) = (&solver.tree_a, tau(p.eps_solvent));
    let Ok(parts) = runner.run(segs.len(), |c| {
        // Leaves are Morton-ordered, so a leaf range's target slots form
        // one contiguous span.
        let r = segs[c].clone();
        let lo = tree.node(tree.leaves()[r.start]).start as usize;
        let hi = tree.node(tree.leaves()[r.end - 1]).end as usize;
        let (mut work, mut g) = (WorkCounts::ZERO, [(); 3].map(|_| vec![0.0; hi - lo]));
        let [gx, gy, gz] = &mut g;
        let res = plan.execute_gradient_segment(
            tree, born_slot, inv_born, p.math, p.kernel, t, r, lo, gx, gy, gz, &mut work,
        );
        (lo, g, work, res)
    });
    let mut grad = vec![Vec3::ZERO; solver.n_atoms()];
    let mut work = WorkCounts::ZERO;
    for (lo, [gx, gy, gz], w, res) in parts {
        res?;
        work.accumulate(w);
        for k in 0..gx.len() {
            grad[tree.order()[lo + k] as usize] = Vec3::new(gx[k], gy[k], gz[k]);
        }
    }
    Ok((grad, work))
}
