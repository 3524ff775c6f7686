//! The solve pipeline as a sequence of calls into each layer's public
//! functions, one span per call. This is the layer-by-layer form of
//! `GbSolver::for_molecule` → `GbSolver::plan` → `solve_with_plan` →
//! `gradient_with_plan`, used by traced ops only. It is a copy of what
//! those functions do inside, and a copy can drift: the oracle checks
//! that it computes what they compute, and a traced run fails when it
//! stops costing what they cost (`harness::MAX_TRACE_OVERHEAD`).

use crate::trace::Tracer;
use polar_gb::born::octree::push_integrals_to_atoms;
use polar_gb::born::{BornOctreeCtx, BornPartials};
use polar_gb::constants::tau;
use polar_gb::energy::EpolCtx;
use polar_gb::{GbParams, GbSolver, GradientError, InteractionPlan, WorkCounts};
use polar_geom::Vec3;
use polar_molecule::Molecule;
use polar_octree::OctreeConfig;
use polar_surface::SurfaceConfig;

/// The prep configuration `polar energy`, `ServeEngine` and
/// `polar trajectory` all use.
pub fn surface_cfg() -> SurfaceConfig {
    SurfaceConfig::coarse()
}

/// Surface → both octrees → `T_Q` moments: `GbSolver::from_parts`,
/// spelled out so each layer gets its own span.
pub fn prepare(tr: &mut Tracer, mol: &Molecule) -> GbSolver {
    let qpoints = tr.span("surface.sample", || mol.surface(&surface_cfg()));
    let (atom_pos, atom_radii, charges) = (mol.positions(), mol.radii(), mol.charges());
    let (tree_a, tree_q) = tr.span("octree.build", || {
        let cfg = OctreeConfig::default();
        let qpos: Vec<Vec3> = qpoints.iter().map(|q| q.pos).collect();
        (cfg.build(&atom_pos), cfg.build(&qpos))
    });
    let (q_nsum, q_dipole) = tr.span("born.q_moments", || {
        let nsum = BornOctreeCtx::q_normal_sums(&tree_q, &qpoints);
        let dipole = BornOctreeCtx::q_dipole_moments(&tree_q, &qpoints, &nsum);
        (nsum, dipole)
    });
    GbSolver {
        name: mol.name.clone(),
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

pub fn build_plan(tr: &mut Tracer, solver: &GbSolver, p: &GbParams) -> InteractionPlan {
    tr.span("plan.build", || InteractionPlan::build(solver, p))
}

/// `APPROX-INTEGRALS` from the plan's lists, then
/// `PUSH-INTEGRALS-TO-ATOMS`: Born radii in original atom order.
pub fn born_stage(
    tr: &mut Tracer,
    solver: &GbSolver,
    plan: &InteractionPlan,
    p: &GbParams,
) -> Vec<f64> {
    let ctx = solver.born_ctx();
    let partials = tr.span("born.execute", || {
        let mut partials = BornPartials::zeros(&solver.tree_a);
        plan.execute_born_segment(
            &ctx,
            0..solver.tree_q.leaves().len(),
            p.kernel,
            &mut partials,
            &mut WorkCounts::default(),
        );
        partials
    });
    tr.span("born.push", || {
        let mut born = vec![0.0; solver.n_atoms()];
        push_integrals_to_atoms(&ctx, &partials, 0..solver.n_atoms(), p.math, &mut born);
        born
    })
}

/// `APPROX-EPOL` from the plan's lists.
pub fn epol_stage(
    tr: &mut Tracer,
    solver: &GbSolver,
    plan: &InteractionPlan,
    p: &GbParams,
    born: &[f64],
) -> f64 {
    let (ectx, born_slot) = tr.span("epol.ctx", || {
        (
            EpolCtx::new(&solver.tree_a, &solver.charges, born, p.eps_epol),
            solver.born_by_slot(born),
        )
    });
    tr.span("epol.execute", || {
        plan.execute_epol_segment(
            &ectx,
            &born_slot,
            p.math,
            p.kernel,
            tau(p.eps_solvent),
            0..solver.tree_a.leaves().len(),
            &mut WorkCounts::default(),
        )
    })
}

/// The gradient stage of `gradient_with_plan`, given Born radii.
pub fn gradient_stage(
    tr: &mut Tracer,
    solver: &GbSolver,
    plan: &InteractionPlan,
    p: &GbParams,
    born: &[f64],
) -> Result<Vec<Vec3>, GradientError> {
    tr.span("gradient.execute", || {
        let born_slot = solver.born_by_slot(born);
        let inv_born: Vec<f64> = born_slot.iter().map(|&r| 1.0 / r).collect();
        let n = solver.n_atoms();
        let (mut gx, mut gy, mut gz) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
        plan.execute_gradient_segment(
            &solver.tree_a,
            &born_slot,
            &inv_born,
            p.math,
            p.kernel,
            tau(p.eps_solvent),
            0..solver.tree_a.leaves().len(),
            0,
            &mut gx,
            &mut gy,
            &mut gz,
            &mut WorkCounts::default(),
        )?;
        let mut grad = vec![Vec3::ZERO; n];
        for (slot, &atom) in solver.tree_a.order().iter().enumerate() {
            grad[atom as usize] = Vec3::new(gx[slot], gy[slot], gz[slot]);
        }
        Ok(grad)
    })
}

/// Exact list sizes and bytes of one plan, summed into per-op counts.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PlanCounts {
    pub atoms: u64,
    pub bytes: u64,
    pub born_near: u64,
    pub born_far: u64,
    pub epol_near: u64,
    pub epol_far: u64,
}

impl PlanCounts {
    pub fn add(&mut self, solver: &GbSolver, plan: &InteractionPlan) {
        let s = plan.stats();
        self.atoms += solver.n_atoms() as u64;
        self.bytes += s.plan_bytes;
        self.born_near += s.born_near_entries;
        self.born_far += s.born_far_entries;
        self.epol_near += s.epol_near_entries;
        self.epol_far += s.epol_far_entries;
    }

    pub fn born_entries(&self) -> u64 {
        self.born_near + self.born_far
    }

    pub fn epol_entries(&self) -> u64 {
        self.epol_near + self.epol_far
    }

    pub fn bytes_per_atom(&self) -> f64 {
        self.bytes as f64 / self.atoms.max(1) as f64
    }

    /// The `plan.*` count metrics.
    pub fn layer_metrics(&self, out: &mut Vec<(&'static str, f64)>) {
        out.extend([
            ("plan.bytes", self.bytes as f64),
            ("plan.bytes_per_atom", self.bytes_per_atom()),
            ("plan.born_near_entries", self.born_near as f64),
            ("plan.born_far_entries", self.born_far as f64),
            ("plan.epol_near_entries", self.epol_near as f64),
            ("plan.epol_far_entries", self.epol_far as f64),
        ]);
    }
}
