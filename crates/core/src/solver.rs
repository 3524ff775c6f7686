//! High-level GB solver: build once, solve for any ε.
//!
//! [`GbSolver`] owns the two octrees and the quadrature points. Its
//! methods call the stages of [`crate::eval`] (integrals over `T_Q` leaf
//! segments → push over atom segments → energy over `T_A` leaf segments)
//! as one chunk each on the caller's thread, or chunked on
//! `polar_runtime`'s work-stealing pool (the paper's `OCT_CILK`: the same
//! randomized-stealing discipline as cilk++). The drivers in `polar-mpi`
//! call the same stages per rank; the cluster simulator in
//! `polar-cluster` replays their per-leaf work counts.

use crate::born::exact as born_exact;
use crate::born::octree::{BornOctreeCtx, BornPartials, QDipole};
use crate::constants::tau;
use crate::energy::exact as energy_exact;
use crate::energy::gradient::GradientError;
use crate::energy::octree::EpolBuffers;
use crate::eval::{
    born_stage, epol_ctx, epol_stage, gradient_stage, push_stage, unslot, LeafEval, Local,
};
use crate::kernels::KernelMode;
use crate::partition::even_segments;
use crate::plan::{InteractionPlan, PlanError};
use crate::report::{SolveReport, StageReport, StealReport, TreeDepthStats};
use crate::stats::WorkCounts;
use polar_geom::{MathMode, Vec3};
use polar_molecule::Molecule;
use polar_octree::{Octree, OctreeConfig};
use polar_runtime::StealStats;
use polar_surface::{QuadPoint, SurfaceConfig};
use std::ops::Range;

/// Tunable solve parameters (paper §V.C uses ε = 0.9 for both stages).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GbParams {
    /// Approximation parameter for the Born radius stage (Fig. 2).
    pub eps_born: f64,
    /// Approximation parameter for the energy stage (Fig. 3).
    pub eps_epol: f64,
    /// Exact or approximate math kernels (paper's "approximate math").
    pub math: MathMode,
    /// Solvent dielectric (80 = water).
    pub eps_solvent: f64,
    /// Plan execute arithmetic: vectorized lane kernels (default) or the
    /// scalar strict-fp reference (CLI `--strict-fp`). Only affects
    /// plan-execute solves; the recursive traversals are always scalar.
    pub kernel: KernelMode,
}

impl Default for GbParams {
    fn default() -> Self {
        GbParams {
            eps_born: 0.9,
            eps_epol: 0.9,
            math: MathMode::Exact,
            eps_solvent: crate::constants::EPS_WATER,
            kernel: KernelMode::default(),
        }
    }
}

/// Output of a solve.
#[derive(Debug, Clone)]
pub struct GbResult {
    /// Born radii, original atom order (Å).
    pub born: Vec<f64>,
    /// Polarization energy (kcal/mol); negative for any real molecule.
    pub epol_kcal: f64,
    /// Work done by the Born stage.
    pub work_born: WorkCounts,
    /// Work done by the energy stage.
    pub work_epol: WorkCounts,
}

/// Output of a plan-path gradient evaluation: one plan replay yields
/// the energy *and* its analytic frozen-Born-radii gradient (the value/
/// gradient pair every line-search minimizer asks for per iterate),
/// sharing a single Born stage.
#[derive(Debug, Clone)]
pub struct GradResult {
    /// `∂E_pol/∂x` per atom, original atom order (kcal/mol/Å); the
    /// *force* is its negation.
    pub grad: Vec<Vec3>,
    /// Polarization energy at the evaluation point (kcal/mol).
    pub epol_kcal: f64,
    /// Born radii the gradient froze, original atom order (Å).
    pub born: Vec<f64>,
    /// Work done by the Born stage.
    pub work_born: WorkCounts,
    /// Work done by the energy stage.
    pub work_epol: WorkCounts,
    /// Work done by the gradient stage (exact pairwise far expansion, so
    /// its `pair_ops` exceed the energy stage's).
    pub work_grad: WorkCounts,
}

impl GradResult {
    fn new(solve: GbResult, grad: Vec<Vec3>, work_grad: WorkCounts) -> GradResult {
        GradResult {
            grad,
            epol_kcal: solve.epol_kcal,
            born: solve.born,
            work_born: solve.work_born,
            work_epol: solve.work_epol,
            work_grad,
        }
    }

    /// Max-norm of the gradient (kcal/mol/Å) — the minimizer's
    /// convergence measure.
    pub fn grad_max(&self) -> f64 {
        self.grad
            .iter()
            .flat_map(|g| [g.x.abs(), g.y.abs(), g.z.abs()])
            .fold(0.0, f64::max)
    }

    /// Root-mean-square gradient component (kcal/mol/Å).
    pub fn grad_rms(&self) -> f64 {
        if self.grad.is_empty() {
            return 0.0;
        }
        let ss: f64 = self.grad.iter().map(|g| g.norm_sq()).sum();
        (ss / (3.0 * self.grad.len() as f64)).sqrt()
    }
}

/// Reusable per-worker solve buffers — everything a plan-execute solve
/// would otherwise allocate per call (Born partials, Born radii in both
/// orders, the charge-bin histograms) lives here and is recycled across
/// solves. One arena per batch worker; never shared between threads.
pub struct SolveScratch {
    partials: BornPartials,
    born: Vec<f64>,
    born_slot: Vec<f64>,
    epol: EpolBuffers,
    /// Number of solves that have run out of this arena.
    pub reuses: u64,
}

impl SolveScratch {
    /// An empty arena; buffers grow to fit the first solve and are
    /// recycled afterwards.
    pub fn new() -> SolveScratch {
        SolveScratch {
            partials: BornPartials {
                s_node: Vec::new(),
                s_atom: Vec::new(),
            },
            born: Vec::new(),
            born_slot: Vec::new(),
            epol: EpolBuffers::default(),
            reuses: 0,
        }
    }

    /// Heap bytes currently held by the arena's buffers.
    pub fn memory_bytes(&self) -> usize {
        (self.partials.s_node.capacity()
            + self.partials.s_atom.capacity()
            + self.born.capacity()
            + self.born_slot.capacity())
            * 8
            + self.epol.memory_bytes()
    }

    /// Zeroed Born partials sized for `tree`, reusing capacity.
    fn partials_for(&mut self, tree: &Octree) -> &mut BornPartials {
        let p = &mut self.partials;
        p.s_node.clear();
        p.s_node.resize(tree.node_count(), 0.0);
        p.s_atom.clear();
        p.s_atom.resize(tree.len(), 0.0);
        p
    }
}

impl Default for SolveScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// What one [`GbSolver::apply_frame`] coordinate update did to the
/// prepared octrees — the input [`InteractionPlan::delta`] classifies.
#[derive(Debug, Clone, Default)]
pub struct FrameDelta {
    /// Atom-tree refresh summary.
    pub a: polar_octree::RefreshDelta,
    /// Q-point-tree refresh summary.
    pub q: polar_octree::RefreshDelta,
    /// Largest single-point displacement across both trees (Å).
    pub max_disp: f64,
}

/// Each range as a chunk of one run.
fn one_run_each(ranges: Vec<Range<usize>>) -> Vec<[Range<usize>; 1]> {
    ranges.into_iter().map(|r| [r]).collect()
}

/// The prepared solver: molecule data + both octrees + q-point aggregates.
#[derive(Clone)]
pub struct GbSolver {
    pub name: String,
    pub atom_pos: Vec<Vec3>,
    pub atom_radii: Vec<f64>,
    pub charges: Vec<f64>,
    pub qpoints: Vec<QuadPoint>,
    pub tree_a: Octree,
    pub tree_q: Octree,
    /// Per-`T_Q`-node pseudo-q-point normal sums.
    pub q_nsum: Vec<Vec3>,
    /// Per-`T_Q`-node dipole moments (far-field first-order correction).
    pub q_dipole: Vec<QDipole>,
    /// Bumped by every [`GbSolver::apply_frame`]; plans record the
    /// version they were built/patched at so a stale plan is rejected
    /// instead of silently executing over moved coordinates.
    pub geom_version: u64,
}

// `&[[0..n]]` below is a stage's chunk list: one chunk of one leaf run.
#[allow(clippy::single_range_in_vec_init)]
impl GbSolver {
    /// Build from a molecule: generates the surface quadrature and both
    /// octrees (the paper's pre-processing Step 1, O(M log M)).
    pub fn for_molecule(
        mol: &Molecule,
        surface: &SurfaceConfig,
        tree_cfg: &OctreeConfig,
    ) -> GbSolver {
        let qpoints = mol.surface(surface);
        Self::from_parts(
            mol.name.clone(),
            mol.positions(),
            mol.radii(),
            mol.charges(),
            qpoints,
            tree_cfg,
        )
    }

    /// Build from pre-computed parts (e.g. a surface loaded from disk).
    pub fn from_parts(
        name: String,
        atom_pos: Vec<Vec3>,
        atom_radii: Vec<f64>,
        charges: Vec<f64>,
        qpoints: Vec<QuadPoint>,
        tree_cfg: &OctreeConfig,
    ) -> GbSolver {
        assert_eq!(atom_pos.len(), atom_radii.len());
        assert_eq!(atom_pos.len(), charges.len());
        let tree_a = tree_cfg.build(&atom_pos);
        let qpos: Vec<Vec3> = qpoints.iter().map(|q| q.pos).collect();
        let tree_q = tree_cfg.build(&qpos);
        let q_nsum = BornOctreeCtx::q_normal_sums(&tree_q, &qpoints);
        let q_dipole = BornOctreeCtx::q_dipole_moments(&tree_q, &qpoints, &q_nsum);
        GbSolver {
            name,
            atom_pos,
            atom_radii,
            charges,
            qpoints,
            tree_a,
            tree_q,
            q_nsum,
            q_dipole,
            geom_version: 0,
        }
    }

    /// Move the prepared solver to a trajectory frame's coordinates
    /// without rebuilding anything: atoms take `new_pos`, every surface
    /// quadrature point translates rigidly with its owner atom (frozen
    /// surface topology — the small-displacement approximation the delta
    /// model is scoped to), both octrees refresh in place rescanning only
    /// the subtrees that actually moved, and the `T_Q` far-field
    /// aggregates are recomputed. Leaf topology (Morton permutation,
    /// ranges) is untouched, which is what keeps existing
    /// [`InteractionPlan`] segments spliceable.
    ///
    /// `slack` is the octree containment slack and `tolerance` the
    /// node-geometry drift tolerance (see
    /// [`polar_octree::Octree::refresh_delta`] and
    /// [`crate::plan::ReplanConfig::tolerance`]); if any point drifted
    /// outside its leaf's slackened cell the trees are left untouched and
    /// `Err(escaped_count)` tells the caller to rebuild the solver cold.
    /// Node centroids/radii stay bitwise-frozen while accumulated drift
    /// stays below `tolerance`, which is what makes in-tolerance frames
    /// patch without any traversal; pass `0.0` for exact geometry every
    /// frame. On success the
    /// solver's geometry version is bumped and the returned
    /// [`FrameDelta`] feeds [`InteractionPlan::delta`].
    pub fn apply_frame(
        &mut self,
        new_pos: &[Vec3],
        slack: f64,
        tolerance: f64,
    ) -> Result<FrameDelta, usize> {
        assert_eq!(new_pos.len(), self.n_atoms());
        let mut qpos: Vec<Vec3> = Vec::with_capacity(self.qpoints.len());
        for q in &self.qpoints {
            let owner = q.owner as usize;
            qpos.push(q.pos + (new_pos[owner] - self.atom_pos[owner]));
        }
        // Refresh T_A first; if T_Q then fails, T_A must roll back so the
        // solver is never left half-moved.
        let saved_a = self.tree_a.clone();
        let a = self.tree_a.refresh_delta(new_pos, slack, tolerance)?;
        let q = match self.tree_q.refresh_delta(&qpos, slack, tolerance) {
            Ok(q) => q,
            Err(escaped) => {
                self.tree_a = saved_a;
                return Err(escaped);
            }
        };
        self.atom_pos.clear();
        self.atom_pos.extend_from_slice(new_pos);
        for (qp, pos) in self.qpoints.iter_mut().zip(&qpos) {
            qp.pos = *pos;
        }
        self.q_nsum = BornOctreeCtx::q_normal_sums(&self.tree_q, &self.qpoints);
        self.q_dipole = BornOctreeCtx::q_dipole_moments(&self.tree_q, &self.qpoints, &self.q_nsum);
        self.geom_version += 1;
        let max_disp = a.max_point_disp.max(q.max_point_disp);
        Ok(FrameDelta { a, q, max_disp })
    }

    /// Rescan both octrees' node geometry exactly at the *current*
    /// coordinates, clearing any drift left by delta-tolerant frames,
    /// and bump the geometry version (existing plans become stale —
    /// their SoA node centers predate the rescan).
    ///
    /// Call before re-planning cold after a
    /// [`crate::plan::PlanDelta::Rebuild`]: the fresh plan then measures
    /// its margins against exact geometry and inherits full drift
    /// headroom, instead of the nearly-expired drift counters that made
    /// the old plan unpatchable in the first place (which would force
    /// the *next* frame to rebuild again).
    pub fn resync_geometry(&mut self) {
        let pos = self.atom_pos.clone();
        let qpos: Vec<Vec3> = self.qpoints.iter().map(|q| q.pos).collect();
        // Positions are unchanged, so containment cannot fail at any
        // slack; tolerance 0 forces an exact rescan of every drifted
        // leaf and resets its counter.
        self.tree_a
            .refresh_delta(&pos, f64::INFINITY, 0.0)
            .expect("unmoved points cannot escape");
        self.tree_q
            .refresh_delta(&qpos, f64::INFINITY, 0.0)
            .expect("unmoved points cannot escape");
        self.q_nsum = BornOctreeCtx::q_normal_sums(&self.tree_q, &self.qpoints);
        self.q_dipole = BornOctreeCtx::q_dipole_moments(&self.tree_q, &self.qpoints, &self.q_nsum);
        self.geom_version += 1;
    }

    /// Number of atoms (the paper's `M`).
    pub fn n_atoms(&self) -> usize {
        self.atom_pos.len()
    }

    /// Number of surface quadrature points (the paper's `N`).
    pub fn n_qpoints(&self) -> usize {
        self.qpoints.len()
    }

    /// The Born-stage traversal context.
    pub fn born_ctx(&self) -> BornOctreeCtx<'_> {
        BornOctreeCtx {
            tree_a: &self.tree_a,
            tree_q: &self.tree_q,
            qpoints: &self.qpoints,
            q_nsum: &self.q_nsum,
            q_dipole: &self.q_dipole,
            atom_radii: &self.atom_radii,
        }
    }

    /// Bytes of input data a purely distributed rank must replicate
    /// (atoms + q-points + both trees + aggregates). The basis of the
    /// paper's §IV.B memory argument for hybrid parallelism.
    pub fn memory_bytes(&self) -> usize {
        self.atom_pos.len() * 24
            + self.atom_radii.len() * 8
            + self.charges.len() * 8
            + self.qpoints.len() * std::mem::size_of::<QuadPoint>()
            + self.tree_a.memory_bytes()
            + self.tree_q.memory_bytes()
            + self.q_nsum.len() * 24
            + self.q_dipole.len() * std::mem::size_of::<QDipole>()
    }

    // ---------------------------------------------------------------
    // The Fig. 4 pipeline in one process: serial, or OCT_CILK on the
    // work-stealing pool
    // ---------------------------------------------------------------

    /// Octree-approximated Born radii (serial; all leaf segments).
    pub fn born_radii(&self, p: &GbParams) -> (Vec<f64>, WorkCounts) {
        let mut scratch = SolveScratch::new();
        let work = self.born_and_push(LeafEval::Traverse, p, &mut Local::new(None), &mut scratch);
        (scratch.born, work)
    }

    /// Octree-approximated E_pol given Born radii (serial).
    pub fn epol(&self, born: &[f64], p: &GbParams) -> (f64, WorkCounts) {
        let ectx = epol_ctx(self, born, p, EpolBuffers::default());
        let (eval, chunks) = (LeafEval::Traverse, [[0..self.tree_a.leaves().len()]]);
        let Ok(out) = epol_stage(eval, &ectx, &[], p, &chunks, &mut Local::new(None));
        out
    }

    /// Full serial octree solve.
    pub fn solve(&self, p: &GbParams) -> GbResult {
        let mut scratch = SolveScratch::new();
        self.solve_on(LeafEval::Traverse, p, &mut Local::new(None), &mut scratch)
            .0
    }

    /// Solve through `eval` plus a structured [`SolveReport`]: serial
    /// with `workers: None` (mode `"serial"` or `"plan"`), or on that
    /// many work-stealing threads (`OCT_CILK`: mode `"parallel"` or
    /// `"plan_parallel"`, with the scheduler counters of all three
    /// stages). Stage work totals are the serial solve's for any worker
    /// count.
    pub fn solve_report(
        &self,
        eval: LeafEval<'_>,
        p: &GbParams,
        workers: Option<usize>,
    ) -> Result<(GbResult, SolveReport), PlanError> {
        eval.check(self, p)?;
        let mut runner = Local::new(workers);
        let (result, seconds) = self.solve_on(eval, p, &mut runner, &mut SolveScratch::new());
        let report = self.eval_report(eval, p, &result, seconds, runner.steal);
        Ok((result, report))
    }

    /// The one [`SolveReport`] skeleton: identity, the two stage rows,
    /// tree shapes, memory. Callers attach the steal/comm/plan/fault
    /// sections of their execution mode.
    pub fn base_report(
        &self,
        mode: &str,
        kernel: KernelMode,
        p: &GbParams,
        epol_kcal: f64,
        born: (f64, WorkCounts),
        epol: (f64, WorkCounts),
    ) -> SolveReport {
        let stage = |name: &str, (wall_seconds, work): (f64, WorkCounts)| StageReport {
            name: name.into(),
            wall_seconds,
            work,
        };
        SolveReport {
            molecule: self.name.clone(),
            mode: mode.to_string(),
            kernel_mode: kernel.label().to_string(),
            n_atoms: self.n_atoms(),
            n_qpoints: self.n_qpoints(),
            eps_born: p.eps_born,
            eps_epol: p.eps_epol,
            epol_kcal,
            stages: vec![stage("born", born), stage("epol", epol)],
            tree_a: TreeDepthStats::for_tree(&self.tree_a),
            tree_q: TreeDepthStats::for_tree(&self.tree_q),
            steal: None,
            comm: None,
            plan: None,
            fault: None,
            memory_bytes: self.memory_bytes() as u64,
        }
    }

    fn eval_report(
        &self,
        eval: LeafEval<'_>,
        p: &GbParams,
        r: &GbResult,
        [born_s, epol_s]: [f64; 2],
        steal: Option<StealStats>,
    ) -> SolveReport {
        let (born, epol) = ((born_s, r.work_born), (epol_s, r.work_epol));
        let mode = eval.mode(steal.is_some());
        let mut report = self.base_report(mode, eval.kernel_mode(p), p, r.epol_kcal, born, epol);
        report.plan = eval.plan_stats();
        report.steal = steal.as_ref().map(StealReport::from);
        report
    }

    /// The pipeline on `runner`, out of `scratch`, with per-stage wall
    /// seconds. Inline, each stage is one chunk; on `w` workers, Born
    /// chunks hold `n/(w·8)` q-leaves, push has `w·4` atom segments and
    /// energy `w·8` leaf segments, merged in order (deterministic for a
    /// fixed worker count). The caller has checked `eval`.
    fn solve_on(
        &self,
        eval: LeafEval<'_>,
        p: &GbParams,
        runner: &mut Local,
        scratch: &mut SolveScratch,
    ) -> (GbResult, [f64; 2]) {
        let t0 = std::time::Instant::now();
        let work_born = self.born_and_push(eval, p, runner, scratch);
        let born_s = t0.elapsed().as_secs_f64();

        let t1 = std::time::Instant::now();
        let n_aleaves = self.tree_a.leaves().len();
        let chunks: &[[Range<usize>; 1]] = match runner.workers {
            None => &[[0..n_aleaves]],
            Some(w) => &one_run_each(even_segments(n_aleaves, w * 8)),
        };
        let ectx = epol_ctx(self, &scratch.born, p, std::mem::take(&mut scratch.epol));
        let Ok((epol_kcal, work_epol)) =
            epol_stage(eval, &ectx, &scratch.born_slot, p, chunks, runner);
        scratch.epol = ectx.into_buffers();
        scratch.reuses += 1;
        let epol_s = t1.elapsed().as_secs_f64();
        let born = scratch.born.clone();
        let result = GbResult {
            born,
            epol_kcal,
            work_born,
            work_epol,
        };
        (result, [born_s, epol_s])
    }

    /// The Born and push stages of [`GbSolver::solve_on`]: radii into
    /// `scratch.born_slot` and, scattered, `scratch.born`.
    fn born_and_push(
        &self,
        eval: LeafEval<'_>,
        p: &GbParams,
        runner: &mut Local,
        scratch: &mut SolveScratch,
    ) -> WorkCounts {
        let ctx = self.born_ctx();
        let (n_qleaves, n) = (self.tree_q.leaves().len(), self.n_atoms());
        let (chunks, runs): (&[[Range<usize>; 1]], &[Range<usize>]) = match runner.workers {
            None => (&[[0..n_qleaves]], &[0..n]),
            Some(w) => {
                let chunk = (n_qleaves / (w * 8)).max(1);
                let starts = (0..n_qleaves).step_by(chunk);
                let chunks = starts.map(|s| s..(s + chunk).min(n_qleaves)).collect();
                (&one_run_each(chunks), &even_segments(n, w * 4))
            }
        };
        let partials = scratch.partials_for(&self.tree_a);
        let Ok(work) = born_stage(eval, &ctx, p, chunks, runner, partials);
        let (born, born_slot) = (&mut scratch.born, &mut scratch.born_slot);
        born_slot.resize(n, 0.0);
        let Ok(()) = push_stage(&ctx, &scratch.partials, p.math, runs, runner, born_slot);
        born.resize(n, 0.0);
        unslot(&self.tree_a, born_slot, born);
        work
    }

    /// Permute original-order Born radii into Morton slot order — the
    /// layout the plan's SoA energy loop streams over.
    pub fn born_by_slot(&self, born: &[f64]) -> Vec<f64> {
        assert_eq!(born.len(), self.n_atoms());
        self.tree_a
            .order()
            .iter()
            .map(|&o| born[o as usize])
            .collect()
    }

    // ---------------------------------------------------------------
    // Plan + execute solver (flat interaction lists)
    // ---------------------------------------------------------------

    /// Build a reusable [`InteractionPlan`]: run both separation
    /// traversals once, emit flat SoA interaction lists. Amortized over
    /// repeated solves (the paper's ZDock re-scoring workload).
    pub fn plan(&self, p: &GbParams) -> InteractionPlan {
        InteractionPlan::build(self, p)
    }

    /// Solve by executing a previously built plan's interaction lists —
    /// no tree traversal. In [`KernelMode::Strict`] Born radii are
    /// bitwise identical to [`GbSolver::solve`]; in the default
    /// [`KernelMode::Lane`] they agree to ulp grade. E_pol matches to
    /// machine precision (≤ 1e-12 relative) in both modes.
    ///
    /// The plan must have been built from *this* solver at the same ε:
    /// a cheap fingerprint check rejects foreign/stale plans with a
    /// typed [`PlanError`] instead of silently computing wrong energies.
    pub fn solve_with_plan(
        &self,
        plan: &InteractionPlan,
        p: &GbParams,
    ) -> Result<GbResult, PlanError> {
        self.solve_with_plan_scratch(plan, p, &mut SolveScratch::new())
    }

    /// As [`GbSolver::solve_with_plan`], but working out of a reusable
    /// scratch arena: the Born partials, Born radii, slot permutation and
    /// charge-bin histogram buffers all come from `scratch` and go back
    /// into it, so repeated solves allocate nothing but the returned
    /// result. This is the batch engine's per-worker fast path.
    pub fn solve_with_plan_scratch(
        &self,
        plan: &InteractionPlan,
        p: &GbParams,
        scratch: &mut SolveScratch,
    ) -> Result<GbResult, PlanError> {
        plan.check_compatible(self, p)?;
        Ok(self
            .solve_on(LeafEval::Plan(plan), p, &mut Local::new(None), scratch)
            .0)
    }

    // ---------------------------------------------------------------
    // Plan-path analytic gradients
    // ---------------------------------------------------------------

    /// Energy + analytic frozen-Born-radii gradient from one plan
    /// replay: the Born and energy stages run exactly as
    /// [`GbSolver::solve_with_plan`], then the gradient stage replays
    /// the same energy lists with far entries expanded pairwise, so the
    /// result matches `epol_gradient_naive` to ~1e-12 per component in
    /// both kernel modes (it is a pure summation reorder) while coming
    /// out of the same plan build/patch the energies amortize.
    pub fn gradient_with_plan(
        &self,
        plan: &InteractionPlan,
        p: &GbParams,
    ) -> Result<GradResult, GradientError> {
        let solve = self.solve_with_plan(plan, p)?;
        let runner = &mut Local::new(None);
        let (grad, work) = gradient_stage(plan, self, p, &solve.born, 1, runner)?;
        Ok(GradResult::new(solve, grad, work))
    }

    /// Plan-path gradient plus a [`SolveReport`] with a third
    /// `"gradient"` stage row: serial with `workers: None` (mode
    /// `"plan_gradient"`), or with every stage on that many threads
    /// (mode `"plan_gradient_parallel"`, `w·8` gradient segments). For
    /// fixed Born radii the gradient stage is bitwise the same for any
    /// worker count; end to end the pooled path tracks the serial one at
    /// ulp grade, because the pooled Born stage re-associates partials.
    pub fn gradient_report(
        &self,
        plan: &InteractionPlan,
        p: &GbParams,
        workers: Option<usize>,
    ) -> Result<(GradResult, SolveReport), GradientError> {
        plan.check_compatible(self, p)?;
        let (eval, runner) = (LeafEval::Plan(plan), &mut Local::new(workers));
        let (solve, seconds) = self.solve_on(eval, p, runner, &mut SolveScratch::new());
        let t2 = std::time::Instant::now();
        let parts = runner.workers.map_or(1, |w| w * 8);
        let (grad, work) = gradient_stage(plan, self, p, &solve.born, parts, runner)?;
        let mut report = self.eval_report(eval, p, &solve, seconds, runner.steal.take());
        report.mode = match workers {
            None => "plan_gradient",
            Some(_) => "plan_gradient_parallel",
        }
        .into();
        report.stages.push(StageReport {
            name: "gradient".into(),
            wall_seconds: t2.elapsed().as_secs_f64(),
            work,
        });
        Ok((GradResult::new(solve, grad, work), report))
    }

    // ---------------------------------------------------------------
    // Naive reference
    // ---------------------------------------------------------------

    /// Naive O(M·N) Born radii (Eq. 4).
    pub fn born_naive(&self, p: &GbParams) -> Vec<f64> {
        born_exact::born_radii_r6(&self.atom_pos, &self.atom_radii, &self.qpoints, p.math)
    }

    /// Naive O(M²) E_pol (Eq. 2).
    pub fn epol_naive(&self, born: &[f64], p: &GbParams) -> f64 {
        energy_exact::epol_naive(
            &self.atom_pos,
            &self.charges,
            born,
            tau(p.eps_solvent),
            p.math,
        )
    }

    // ---------------------------------------------------------------
    // Work profiling for the cluster simulator
    // ---------------------------------------------------------------

    /// Per-`T_Q`-leaf work of the Born stage — the task sizes the paper's
    /// node-based division hands to ranks/threads. Real counts from the
    /// real traversal; the simulator replays them.
    pub fn born_work_per_qleaf(&self, p: &GbParams) -> Vec<WorkCounts> {
        // One shared accumulator (values unused): per-leaf allocation
        // would dominate at capsid scale.
        let (ctx, acc) = (self.born_ctx(), &mut BornPartials::zeros(&self.tree_a));
        let eval = LeafEval::Traverse;
        let leaf = |i| born_stage(eval, &ctx, p, &[[i..i + 1]], &mut Local::new(None), acc);
        let Ok(work) = (0..self.tree_q.leaves().len()).map(leaf).collect();
        work
    }

    /// Per-`T_A`-leaf work of the energy stage.
    pub fn epol_work_per_leaf(&self, born: &[f64], p: &GbParams) -> Vec<WorkCounts> {
        let ectx = epol_ctx(self, born, p, EpolBuffers::default());
        let eval = LeafEval::Traverse;
        let leaf = |i| epol_stage(eval, &ectx, &[], p, &[[i..i + 1]], &mut Local::new(None));
        let Ok(work) = (0..self.tree_a.leaves().len())
            .map(|i| leaf(i).map(|(_, w)| w))
            .collect();
        work
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polar_molecule::generators;

    fn solver(n: usize, seed: u64) -> GbSolver {
        let mol = generators::globular("s", n, seed);
        GbSolver::for_molecule(&mol, &SurfaceConfig::coarse(), &OctreeConfig::default())
    }

    #[test]
    fn solve_produces_negative_energy_and_valid_radii() {
        let s = solver(200, 1);
        let r = s.solve(&GbParams::default());
        assert!(r.epol_kcal < 0.0, "E_pol = {}", r.epol_kcal);
        assert_eq!(r.born.len(), 200);
        for (b, v) in r.born.iter().zip(&s.atom_radii) {
            assert!(*b >= *v, "Born radius below vdW: {b} < {v}");
            assert!(b.is_finite());
        }
        assert!(r.work_born.pair_ops > 0);
        assert!(r.work_epol.pair_ops > 0);
    }

    #[test]
    fn octree_solve_tracks_naive_within_a_percent_at_eps_09() {
        let s = solver(400, 2);
        let p = GbParams::default();
        let r = s.solve(&p);
        let born_naive = s.born_naive(&p);
        let e_naive = s.epol_naive(&born_naive, &p);
        let rel = ((r.epol_kcal - e_naive) / e_naive).abs();
        // Paper: < 1% error w.r.t. naive at ε = 0.9/0.9.
        assert!(
            rel < 0.01,
            "octree {} vs naive {e_naive} (rel {rel})",
            r.epol_kcal
        );
    }

    #[test]
    fn parallel_matches_serial() {
        let s = solver(300, 3);
        let p = GbParams::default();
        let serial = s.solve(&p);
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        let (par, _) = s
            .solve_report(LeafEval::Traverse, &p, Some(workers))
            .unwrap();
        for (a, b) in serial.born.iter().zip(&par.born) {
            assert!((a - b).abs() <= 1e-9 * a.abs().max(1.0), "{a} vs {b}");
        }
        assert!(
            (serial.epol_kcal - par.epol_kcal).abs() <= 1e-9 * serial.epol_kcal.abs(),
            "{} vs {}",
            serial.epol_kcal,
            par.epol_kcal
        );
    }

    #[test]
    fn work_profiles_sum_to_full_run() {
        let s = solver(250, 4);
        let p = GbParams::default();
        let (born, full_born) = s.born_radii(&p);
        let per_leaf: WorkCounts = s.born_work_per_qleaf(&p).into_iter().sum();
        assert_eq!(per_leaf.pair_ops, full_born.pair_ops);
        assert_eq!(per_leaf.far_ops, full_born.far_ops);
        let (_, full_epol) = s.epol(&born, &p);
        let per_leaf_e: WorkCounts = s.epol_work_per_leaf(&born, &p).into_iter().sum();
        assert_eq!(per_leaf_e.pair_ops, full_epol.pair_ops);
        assert_eq!(per_leaf_e.far_ops, full_epol.far_ops);
        // The work-stealing parallel path reports the same totals — its
        // chunking must not change what work gets counted.
        let (par_result, par_report) = s.solve_report(LeafEval::Traverse, &p, Some(3)).unwrap();
        assert_eq!(par_result.work_born, full_born);
        assert_eq!(par_result.work_epol, full_epol);
        assert_eq!(par_report.total_work(), full_born + full_epol);
        let steal = par_report
            .steal
            .expect("parallel report carries steal stats");
        assert!(steal.total_executed > 0);
    }

    #[test]
    fn a_panicking_stage_task_surfaces_from_the_pooled_solve_as_that_panic() {
        // ε ≤ 0 trips the separation-factor assertion inside every
        // pooled Born-stage task. The pool must stop and hand that
        // panic to the caller — not hang, and not bury it under "a scoped
        // thread panicked". On a helper thread so a hang fails the test.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let s = solver(150, 6);
            let p = GbParams {
                eps_born: -1.0,
                ..GbParams::default()
            };
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                s.solve_report(LeafEval::Traverse, &p, Some(2))
            }));
            let message = caught
                .err()
                .and_then(|payload| payload.downcast_ref::<&str>().map(|m| m.to_string()));
            let _ = tx.send(message);
        });
        let message = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("the pooled solve hung on a panicking task");
        assert_eq!(
            message.as_deref(),
            Some("approximation parameter ε must be positive")
        );
    }

    #[test]
    fn serial_report_is_populated() {
        let s = solver(200, 8);
        let (r, rep) = s
            .solve_report(LeafEval::Traverse, &GbParams::default(), None)
            .unwrap();
        assert_eq!(rep.mode, "serial");
        assert_eq!(rep.epol_kcal, r.epol_kcal);
        assert_eq!(rep.n_atoms, 200);
        assert!(rep.total_wall_seconds() > 0.0);
        assert!(rep.total_work().pair_ops > 0);
        assert!(rep.total_work().far_ops > 0);
        assert!(rep.memory_bytes > 0);
        assert_eq!(rep.tree_q.leaf_count, s.tree_q.leaves().len());
        assert_eq!(rep.tree_a.leaf_count, s.tree_a.leaves().len());
        assert!(rep.steal.is_none() && rep.comm.is_none());
    }

    #[test]
    fn pooled_gradient_steal_section_covers_all_four_batches() {
        // The steal section must come from the merged counters of the
        // integrals, push, energy *and* gradient batches: the busiest
        // worker's task count, `imbalance · total / workers`, is then a
        // whole number between the mean and the total for any schedule.
        let s = solver(400, 9);
        let p = GbParams::default();
        let plan = s.plan(&p);
        for workers in 2..=5 {
            let (_, rep) = s.gradient_report(&plan, &p, Some(workers)).unwrap();
            let steal = rep.steal.expect("pooled report carries steal stats");
            assert_eq!(steal.workers, workers);
            let total = steal.total_executed as f64;
            let busiest = steal.imbalance * total / workers as f64;
            assert!(
                (busiest - busiest.round()).abs() < 1e-6,
                "{workers} workers: busiest worker ran {busiest} of {total} tasks"
            );
            assert!(busiest.round() >= (total / workers as f64).ceil() && busiest <= total + 1e-6);
        }
        // Serial: no steal section, and the frozen name's exact bits.
        let (serial, rep) = s.gradient_report(&plan, &p, None).unwrap();
        assert_eq!(rep.mode, "plan_gradient");
        assert!(rep.steal.is_none() && rep.stages.len() == 3);
        let frozen = s.gradient_with_plan(&plan, &p).unwrap();
        assert_eq!((serial.grad, serial.born), (frozen.grad, frozen.born));
    }

    #[test]
    fn memory_accounting_is_positive_and_linear_ish() {
        let s1 = solver(200, 5);
        let s2 = solver(400, 5);
        assert!(s1.memory_bytes() > 0);
        let ratio = s2.memory_bytes() as f64 / s1.memory_bytes() as f64;
        assert!(ratio > 1.3 && ratio < 3.5, "ratio {ratio}");
    }

    #[test]
    fn docking_transform_reuses_octrees() {
        // Moving the whole system rigidly must not change the energy.
        use polar_geom::transform::{RigidTransform, Rotation};
        let mol = generators::globular("t", 150, 6);
        let p = GbParams::default();
        let s1 = GbSolver::for_molecule(&mol, &SurfaceConfig::coarse(), &OctreeConfig::default());
        let r1 = s1.solve(&p);
        let xf = RigidTransform {
            rotation: Rotation::axis_angle(Vec3::new(0.0, 1.0, 0.3), 0.8),
            translation: Vec3::new(25.0, -10.0, 5.0),
        };
        // Transform the prepared octrees directly (no rebuild).
        let tree_a = s1.tree_a.transformed(&xf);
        let tree_q = s1.tree_q.transformed(&xf);
        let qpoints: Vec<QuadPoint> = s1
            .qpoints
            .iter()
            .map(|q| QuadPoint {
                pos: xf.apply_point(q.pos),
                normal: xf.apply_direction(q.normal),
                ..*q
            })
            .collect();
        let q_nsum = BornOctreeCtx::q_normal_sums(&tree_q, &qpoints);
        let q_dipole = BornOctreeCtx::q_dipole_moments(&tree_q, &qpoints, &q_nsum);
        let s2 = GbSolver {
            name: "moved".into(),
            atom_pos: s1.atom_pos.iter().map(|&p| xf.apply_point(p)).collect(),
            atom_radii: s1.atom_radii.clone(),
            charges: s1.charges.clone(),
            q_nsum,
            q_dipole,
            qpoints,
            tree_a,
            tree_q,
            geom_version: 0,
        };
        let r2 = s2.solve(&p);
        assert!(
            (r1.epol_kcal - r2.epol_kcal).abs() <= 1e-6 * r1.epol_kcal.abs(),
            "{} vs {}",
            r1.epol_kcal,
            r2.epol_kcal
        );
    }
}
