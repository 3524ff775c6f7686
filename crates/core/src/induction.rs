//! Iterated point-dipole induction on the plan's coverage lists.
//!
//! Each atom carries an isotropic polarizability `α_i = scale·r_i³`
//! (the classic radius-cubed model) and acquires an induced dipole
//! `μ_i = α_i (E⁰_i + Σ_j T_ij μ_j)` where `E⁰_i` is the static field
//! of the partial charges and `T_ij` the dipole field tensor. The
//! fixed point is found by damped Jacobi iteration, optionally
//! accelerated by DIIS (Pulay) mixing, to a configurable residual.
//! The induction energy `U_ind = −½ Σ μ_i·E⁰_i` then rides alongside
//! `E_pol` as a separate report column.
//!
//! Both field matvecs (charge → field, dipoles → field) replay the
//! same flat near/far coverage lists the plan's energy and gradient
//! kernels use: per source leaf, the near partner slots plus the far
//! partner subtrees exactly partition all atom slots, so each matvec
//! is a pure summation reorder of the naive O(n²) double loop — the
//! plan path matches [`charge_field_naive`] to ~1e-12 per component
//! and inherits the plan's slot-disjoint parallel structure.
//!
//! The tensors here are bare vacuum Coulomb operators (no Thole
//! damping, no dielectric screening): the subsystem models *solute*
//! electronic polarization, complementing — not replacing — the GB
//! solvent response.

use crate::constants::COULOMB_KCAL;
use crate::energy::gradient::{GradientError, COINCIDENT_R_SQ};
use crate::plan::InteractionPlan;
use crate::report::InductionReport;
use crate::solver::GbSolver;
use polar_geom::Vec3;

/// Knobs for the induced-dipole fixed-point solve.
#[derive(Debug, Clone, Copy)]
pub struct InductionConfig {
    /// Polarizability model: `α_i = alpha_scale · r_i³` (Å³). The
    /// default is deliberately conservative — large enough to produce
    /// meaningful induction, small enough to keep the Jacobi map
    /// contractive for densely packed geometries (the "polarization
    /// catastrophe" regime starts near `α ≈ r³/4` at contact).
    pub alpha_scale: f64,
    /// Jacobi damping `ω ∈ (0, 1]`: `μ ← (1−ω)·μ + ω·α(E⁰ + Tμ)`.
    pub omega: f64,
    /// DIIS history length; `0` disables mixing (plain damped Jacobi).
    pub diis: usize,
    /// Iteration cap.
    pub max_iters: usize,
    /// Converged when the RMS per component (e·Å) of the field residual
    /// `α(E⁰ + Tμ) − μ` — the undamped Jacobi step, whatever `omega` —
    /// falls below this.
    pub residual_tol: f64,
}

impl Default for InductionConfig {
    fn default() -> Self {
        InductionConfig {
            alpha_scale: 0.05,
            omega: 0.7,
            diis: 4,
            max_iters: 200,
            residual_tol: 1e-9,
        }
    }
}

/// Converged induced dipoles and their energy.
#[derive(Debug, Clone)]
pub struct InductionResult {
    /// Induced dipoles (e·Å), original atom order.
    pub mu: Vec<Vec3>,
    /// Static charge field at each atom (e/Å²), original atom order.
    pub e0: Vec<Vec3>,
    /// `−½ Σ μ·E⁰` in kcal/mol.
    pub u_ind_kcal: f64,
    /// Iterations performed.
    pub iters: usize,
    /// RMS field residual `α(E⁰ + Tμ) − μ` per iteration, in order.
    pub residuals: Vec<f64>,
    /// Whether the final residual met [`InductionConfig::residual_tol`].
    pub converged: bool,
}

impl InductionResult {
    /// Per-iteration convergence trace as a structured report.
    pub fn report(&self, molecule: &str, mode: &str) -> InductionReport {
        InductionReport {
            molecule: molecule.into(),
            mode: mode.into(),
            n_atoms: self.mu.len() as u64,
            iters: self.iters as u64,
            converged: self.converged,
            u_ind_kcal: self.u_ind_kcal,
            residuals: self.residuals.clone(),
        }
    }
}

/// Static Coulomb field of the partial charges at every atom site,
/// naive O(n²) reference. Errors on coincident atoms — the field is
/// undefined there, matching the gradient path's contract.
pub fn charge_field_naive(pos: &[Vec3], charges: &[f64]) -> Result<Vec<Vec3>, GradientError> {
    let n = pos.len();
    let mut e0 = vec![Vec3::ZERO; n];
    for i in 0..n {
        for j in (i + 1)..n {
            let d = pos[i] - pos[j];
            let r_sq = d.norm_sq();
            if r_sq <= COINCIDENT_R_SQ {
                return Err(GradientError::CoincidentAtoms {
                    i,
                    j,
                    r: r_sq.sqrt(),
                });
            }
            let inv_r3 = 1.0 / (r_sq * r_sq.sqrt());
            e0[i] += d * (charges[j] * inv_r3);
            e0[j] -= d * (charges[i] * inv_r3);
        }
    }
    Ok(e0)
}

/// Field of the dipole set `mu` at every atom site, naive reference.
/// Assumes coincidences were already rejected by the charge field.
fn dipole_field_naive(pos: &[Vec3], mu: &[Vec3], out: &mut [Vec3]) {
    let n = pos.len();
    out.iter_mut().for_each(|v| *v = Vec3::ZERO);
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            out[i] += dipole_field_term(pos[i] - pos[j], mu[j]);
        }
    }
}

/// Field at displacement `d` (source → site) of a dipole `m` at the
/// source: `(3(m·r̂)r̂ − m)/r³`.
#[inline]
fn dipole_field_term(d: Vec3, m: Vec3) -> Vec3 {
    let r_sq = d.norm_sq();
    let inv_r2 = 1.0 / r_sq;
    let inv_r3 = inv_r2 / r_sq.sqrt();
    (d * (3.0 * m.dot(d) * inv_r2) - m) * inv_r3
}

/// Naive O(n²) reference solve.
pub fn induce_naive(
    pos: &[Vec3],
    radii: &[f64],
    charges: &[f64],
    cfg: &InductionConfig,
) -> Result<InductionResult, GradientError> {
    let e0 = charge_field_naive(pos, charges)?;
    let alpha: Vec<f64> = radii.iter().map(|r| cfg.alpha_scale * r * r * r).collect();
    let mut scratch = vec![Vec3::ZERO; pos.len()];
    let mut matvec = |mu: &[Vec3], out: &mut Vec<Vec3>| {
        dipole_field_naive(pos, mu, &mut scratch);
        out.clear();
        out.extend_from_slice(&scratch);
    };
    Ok(fixed_point(&e0, &alpha, cfg, &mut matvec))
}

/// Plan-path solve: field matvecs replay the plan's epol coverage
/// lists over the solver's atom octree.
pub fn induce_with_plan(
    solver: &GbSolver,
    plan: &InteractionPlan,
    cfg: &InductionConfig,
) -> Result<InductionResult, GradientError> {
    let tree = &solver.tree_a;
    let order = tree.order();
    let n = solver.n_atoms();
    let (ax, ay, az, q_slot) = plan.atom_soa();

    // Slot-order positions and polarizabilities.
    let pos_slot: Vec<Vec3> = (0..n).map(|s| Vec3::new(ax[s], ay[s], az[s])).collect();
    let alpha_slot: Vec<f64> = (0..n)
        .map(|s| {
            let r = solver.atom_radii[order[s] as usize];
            cfg.alpha_scale * r * r * r
        })
        .collect();

    // Per-leaf coverage: (target slot range, near partner slot runs, far
    // partner node ids). Materialized once; both matvecs replay it.
    let n_leaves = tree.leaves().len();
    let mut covers = Vec::with_capacity(n_leaves);
    for leaf in 0..n_leaves {
        if let Some(cover) = plan.epol_leaf_cover(leaf) {
            covers.push(cover);
        }
    }

    // Static charge field, plan coverage. Coincident pairs are mapped
    // back to original atom ids like the gradient path does.
    let mut e0_slot = vec![Vec3::ZERO; n];
    for (v_range, near, far) in &covers {
        for t in v_range.clone() {
            let xt = pos_slot[t];
            let mut acc = Vec3::ZERO;
            let mut add = |s: usize| -> Result<(), GradientError> {
                if s == t {
                    return Ok(());
                }
                let d = xt - pos_slot[s];
                let r_sq = d.norm_sq();
                if r_sq <= COINCIDENT_R_SQ {
                    let (a, b) = (order[t] as usize, order[s] as usize);
                    return Err(GradientError::CoincidentAtoms {
                        i: a.min(b),
                        j: a.max(b),
                        r: r_sq.sqrt(),
                    });
                }
                acc += d * (q_slot[s] / (r_sq * r_sq.sqrt()));
                Ok(())
            };
            for s in near.iter().flat_map(|run| run.slots()) {
                add(s)?;
            }
            for &p in *far {
                let node = tree.node(p);
                for s in node.start as usize..node.end as usize {
                    add(s)?;
                }
            }
            e0_slot[t] = acc;
        }
    }

    let mut matvec = |mu: &[Vec3], out: &mut Vec<Vec3>| {
        out.clear();
        out.resize(n, Vec3::ZERO);
        for (v_range, near, far) in &covers {
            for t in v_range.clone() {
                let xt = pos_slot[t];
                let mut acc = Vec3::ZERO;
                let mut add = |s: usize| {
                    if s != t {
                        acc += dipole_field_term(xt - pos_slot[s], mu[s]);
                    }
                };
                for s in near.iter().flat_map(|run| run.slots()) {
                    add(s);
                }
                for &p in *far {
                    let node = tree.node(p);
                    for s in node.start as usize..node.end as usize {
                        add(s);
                    }
                }
                out[t] = acc;
            }
        }
    };
    let mut slot_result = fixed_point(&e0_slot, &alpha_slot, cfg, &mut matvec);

    // Back to original atom order.
    let mut mu = vec![Vec3::ZERO; n];
    let mut e0 = vec![Vec3::ZERO; n];
    for s in 0..n {
        mu[order[s] as usize] = slot_result.mu[s];
        e0[order[s] as usize] = slot_result.e0[s];
    }
    slot_result.mu = mu;
    slot_result.e0 = e0;
    Ok(slot_result)
}

/// Damped Jacobi + optional DIIS fixed point for
/// `μ = α(E⁰ + T μ)`, generic over the `T μ` matvec.
fn fixed_point(
    e0: &[Vec3],
    alpha: &[f64],
    cfg: &InductionConfig,
    matvec: &mut dyn FnMut(&[Vec3], &mut Vec<Vec3>),
) -> InductionResult {
    let n = e0.len();
    // First Jacobi iterate: μ⁰ = αE⁰.
    let mut mu: Vec<Vec3> = e0.iter().zip(alpha).map(|(e, a)| *e * *a).collect();
    let mut field = Vec::with_capacity(n);
    let mut residuals = Vec::new();
    // DIIS history: (iterate, residual-vector) pairs, newest last.
    let mut hist: Vec<(Vec<Vec3>, Vec<Vec3>)> = Vec::new();
    let mut converged = false;
    let mut iters = 0usize;

    for _ in 0..cfg.max_iters {
        iters += 1;
        matvec(&mu, &mut field);
        // The undamped step: `omega` scales the move, not the test (nor
        // the DIIS coefficients, which ignore a common scale).
        let r_vec: Vec<Vec3> = (0..n)
            .map(|i| (e0[i] + field[i]) * alpha[i] - mu[i])
            .collect();
        let mut next: Vec<Vec3> = mu
            .iter()
            .zip(&r_vec)
            .map(|(m, r)| *m + *r * cfg.omega)
            .collect();
        let rms = (r_vec.iter().map(|v| v.norm_sq()).sum::<f64>() / (3 * n.max(1)) as f64).sqrt();
        residuals.push(rms);

        if cfg.diis > 0 {
            hist.push((next.clone(), r_vec));
            if hist.len() > cfg.diis {
                hist.remove(0);
            }
            if hist.len() >= 2 {
                if let Some(coeff) = diis_coefficients(&hist) {
                    let mut mixed = vec![Vec3::ZERO; n];
                    for ((m, _), c) in hist.iter().zip(&coeff) {
                        for (out, mi) in mixed.iter_mut().zip(m) {
                            *out += *mi * *c;
                        }
                    }
                    next = mixed;
                }
            }
        }
        mu = next;
        if rms <= cfg.residual_tol {
            converged = true;
            break;
        }
    }

    let u_ind_kcal = -0.5 * COULOMB_KCAL * mu.iter().zip(e0).map(|(m, e)| m.dot(*e)).sum::<f64>();
    InductionResult {
        mu,
        e0: e0.to_vec(),
        u_ind_kcal,
        iters,
        residuals,
        converged,
    }
}

/// Pulay coefficients: minimize `‖Σ cᵢ rᵢ‖` subject to `Σ cᵢ = 1` via
/// the bordered normal system. Returns `None` if the system is
/// (near-)singular — the caller falls back to the plain iterate.
fn diis_coefficients(hist: &[(Vec<Vec3>, Vec<Vec3>)]) -> Option<Vec<f64>> {
    let m = hist.len();
    let dim = m + 1;
    // Row-major augmented matrix [B −1; −1ᵀ 0 | 0…0 −1].
    let mut a = vec![0.0; dim * dim];
    let mut rhs = vec![0.0; dim];
    for i in 0..m {
        for j in 0..m {
            a[i * dim + j] = hist[i]
                .1
                .iter()
                .zip(&hist[j].1)
                .map(|(x, y)| x.dot(*y))
                .sum();
        }
        a[i * dim + m] = -1.0;
        a[m * dim + i] = -1.0;
    }
    rhs[m] = -1.0;

    // Gaussian elimination with partial pivoting.
    for col in 0..dim {
        let pivot = (col..dim)
            .max_by(|&r1, &r2| a[r1 * dim + col].abs().total_cmp(&a[r2 * dim + col].abs()))?;
        if a[pivot * dim + col].abs() < 1e-14 {
            return None;
        }
        if pivot != col {
            for k in 0..dim {
                a.swap(col * dim + k, pivot * dim + k);
            }
            rhs.swap(col, pivot);
        }
        for row in (col + 1)..dim {
            let f = a[row * dim + col] / a[col * dim + col];
            for k in col..dim {
                a[row * dim + k] -= f * a[col * dim + k];
            }
            rhs[row] -= f * rhs[col];
        }
    }
    let mut x = vec![0.0; dim];
    for row in (0..dim).rev() {
        let mut s = rhs[row];
        for k in (row + 1)..dim {
            s -= a[row * dim + k] * x[k];
        }
        x[row] = s / a[row * dim + row];
    }
    if x.iter().any(|v| !v.is_finite()) {
        return None;
    }
    x.truncate(m);
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::GbParams;
    use polar_geom::Vec3;
    use polar_molecule::generators;
    use polar_octree::OctreeConfig;
    use polar_surface::SurfaceConfig;

    fn setup(n: usize, seed: u64) -> (GbSolver, InteractionPlan, GbParams) {
        let mol = generators::globular("ind", n, seed);
        let solver =
            GbSolver::for_molecule(&mol, &SurfaceConfig::coarse(), &OctreeConfig::default());
        let p = GbParams::default();
        let plan = solver.plan(&p);
        (solver, plan, p)
    }

    #[test]
    fn plan_charge_field_matches_naive() {
        for seed in [1u64, 9, 42] {
            let (solver, plan, _) = setup(160, seed);
            let want = charge_field_naive(&solver.atom_pos, &solver.charges).unwrap();
            // Extract the plan field via a zero-iteration solve: μ⁰ = αE⁰
            // so e0 is reported directly.
            let cfg = InductionConfig {
                max_iters: 1,
                ..InductionConfig::default()
            };
            let got = induce_with_plan(&solver, &plan, &cfg).unwrap();
            let scale = want
                .iter()
                .flat_map(|v| [v.x.abs(), v.y.abs(), v.z.abs()])
                .fold(0.0f64, f64::max);
            for (w, g) in want.iter().zip(&got.e0) {
                assert!((w.x - g.x).abs() <= 1e-12 * scale, "{w:?} vs {g:?}");
                assert!((w.y - g.y).abs() <= 1e-12 * scale);
                assert!((w.z - g.z).abs() <= 1e-12 * scale);
            }
        }
    }

    #[test]
    fn plan_solve_matches_naive_solve() {
        let (solver, plan, _) = setup(140, 5);
        let cfg = InductionConfig::default();
        let naive =
            induce_naive(&solver.atom_pos, &solver.atom_radii, &solver.charges, &cfg).unwrap();
        let planned = induce_with_plan(&solver, &plan, &cfg).unwrap();
        assert!(naive.converged && planned.converged);
        let scale = naive.mu.iter().map(|v| v.norm()).fold(1e-30f64, f64::max);
        for (a, b) in naive.mu.iter().zip(&planned.mu) {
            assert!((*a - *b).norm() <= 1e-10 * scale, "{a:?} vs {b:?}");
        }
        let denom = naive.u_ind_kcal.abs().max(1e-12);
        assert!((naive.u_ind_kcal - planned.u_ind_kcal).abs() / denom <= 1e-9);
    }

    #[test]
    fn induction_energy_is_stabilizing_and_residual_meets_tol() {
        let (solver, plan, _) = setup(200, 2);
        let cfg = InductionConfig::default();
        let res = induce_with_plan(&solver, &plan, &cfg).unwrap();
        assert!(res.converged, "residuals: {:?}", res.residuals);
        assert!(*res.residuals.last().unwrap() <= cfg.residual_tol);
        // −½Σ αE² ≤ 0 at first order; the converged value stays
        // stabilizing in the contractive regime.
        assert!(res.u_ind_kcal < 0.0, "U_ind = {}", res.u_ind_kcal);
        // A vanishing damping factor barely moves the dipoles, so the
        // field residual stays large: measured on the damped step it
        // would read as converged at once.
        let stalled = InductionConfig {
            omega: 1e-12,
            max_iters: 3,
            ..cfg
        };
        let res = induce_with_plan(&solver, &plan, &stalled).unwrap();
        assert!(!res.converged, "residuals: {:?}", res.residuals);
        assert!(res.residuals[0] > cfg.residual_tol, "{:?}", res.residuals);
    }

    #[test]
    fn diis_is_no_slower_than_plain_jacobi() {
        let (solver, plan, _) = setup(150, 8);
        let plain = InductionConfig {
            diis: 0,
            ..InductionConfig::default()
        };
        let mixed = InductionConfig::default();
        let a = induce_with_plan(&solver, &plan, &plain).unwrap();
        let b = induce_with_plan(&solver, &plan, &mixed).unwrap();
        assert!(a.converged && b.converged);
        assert!(
            b.iters <= a.iters,
            "diis {} iters vs jacobi {}",
            b.iters,
            a.iters
        );
    }

    #[test]
    fn coincident_atoms_error_with_original_ids() {
        let pos = [Vec3::ZERO, Vec3::new(5.0, 0.0, 0.0), Vec3::ZERO];
        let q = [1.0, -1.0, 0.5];
        let err = charge_field_naive(&pos, &q).unwrap_err();
        match err {
            GradientError::CoincidentAtoms { i, j, r } => {
                assert_eq!((i, j), (0, 2));
                assert_eq!(r, 0.0);
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn report_carries_schema_and_rows() {
        let (solver, plan, _) = setup(60, 3);
        let res = induce_with_plan(&solver, &plan, &InductionConfig::default()).unwrap();
        let rep = res.report("ind", "plan");
        let json = rep.to_json();
        assert!(json.contains("\"schema\":\"induction_report/v1\""));
        assert!(json.contains("\"u_ind_kcal\""));
        let csv = rep.to_csv();
        assert_eq!(csv.lines().next().unwrap(), InductionReport::csv_header());
        assert_eq!(csv.lines().count(), 1 + res.residuals.len());
    }
}
