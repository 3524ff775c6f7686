//! Analytic E_pol gradients (forces) under frozen Born radii.
//!
//! Molecular dynamics needs ∂E_pol/∂x. The full GB gradient has two
//! parts: the explicit pairwise derivative of Eq. 2 and the chain-rule
//! term through the Born radii. This module implements the first under
//! the standard *frozen Born radii* approximation (R treated as
//! constants between radius rebuilds) — the dominant term, and the one
//! every GB-MD integrator evaluates every step. It is not part of the
//! paper's evaluation, but a production library for the paper's drug-
//! design use case is incomplete without it.
//!
//! Derivation: with `f² = r² + R_iR_j·e`, `e = exp(−r²/(4R_iR_j))`,
//!
//! ```text
//! df/dr       = (r/f)·(1 − e/4)
//! dE_pair/dr  = τ·q_i·q_j·(1 − e/4)·r / f³      (E_pair = −τ q_iq_j/f)
//! force on i  = −dE/dr · (x_i − x_j)/r
//! ```
//!
//! The diagonal self-energy terms are position-independent and contribute
//! nothing. Forces are pairwise central, so they conserve total linear
//! and angular momentum exactly — asserted in the tests along with a
//! finite-difference check of every component.
//!
//! Coincident atoms (r² ≤ [`COINCIDENT_R_SQ`]) are rejected with a typed
//! [`GradientError::CoincidentAtoms`] instead of being silently skipped:
//! the pair direction `(x_i − x_j)/r` is undefined there, so any force we
//! returned would be arbitrary, and overlapping centers almost always
//! mean corrupt input the caller needs to hear about.

use polar_geom::{MathMode, Vec3};

use crate::plan::PlanError;

/// Squared-distance floor below which two distinct atoms are treated as
/// coincident (shared with the plan-path gradient kernels).
pub const COINCIDENT_R_SQ: f64 = 1e-12;

/// Typed failure of a gradient evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum GradientError {
    /// Two distinct atoms closer than the coincidence guard: the pair
    /// force direction is undefined. Indices are in the caller's atom
    /// order; `r` is the offending center distance in Å.
    CoincidentAtoms { i: usize, j: usize, r: f64 },
    /// The supplied interaction plan could not be replayed.
    Plan(PlanError),
}

impl std::fmt::Display for GradientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GradientError::CoincidentAtoms { i, j, r } => write!(
                f,
                "coincident atoms {i} and {j} (r = {r:.3e} A): pair force direction undefined"
            ),
            GradientError::Plan(e) => write!(f, "plan: {e}"),
        }
    }
}

impl std::error::Error for GradientError {}

impl From<PlanError> for GradientError {
    fn from(e: PlanError) -> GradientError {
        GradientError::Plan(e)
    }
}

/// The magnitude factor `dE_pair/dr / r` for one ordered pair (so the
/// force contribution is `−factor · (x_i − x_j)`), excluding the τ
/// prefactor.
///
/// Domain edges of the Born-radius product `rr = R_iR_j` are guarded the
/// same way `fast_rsqrt`/`fast_inv_cbrt` guard theirs: outside the
/// normal-positive range we return the analytic limit instead of risking
/// `0·∞` or a flushed-exponential `0/0` (the `MathMode::Approximate`
/// `exp` is only calibrated for normal arguments):
///
/// * `rr → 0⁺` (or subnormal, or zero): `e → 0`, `f → r`, so the factor
///   collapses to the bare Coulomb derivative `q_iq_j/r³`.
/// * `rr → ∞`: `f → ∞`, so the force vanishes — `0.0`.
/// * `rr` NaN: propagates (a poisoned radius must not masquerade as a
///   finite force).
#[inline]
pub(crate) fn pair_dedr_over_r(
    qi: f64,
    qj: f64,
    r_sq: f64,
    ri: f64,
    rj: f64,
    math: MathMode,
) -> f64 {
    let rr = ri * rj;
    const MIN_NORMAL: f64 = f64::MIN_POSITIVE;
    if !(MIN_NORMAL..f64::INFINITY).contains(&rr) {
        if rr.is_nan() {
            return f64::NAN;
        }
        if rr == f64::INFINITY {
            return 0.0;
        }
        // Zero / subnormal (or negative, the limit from a degenerate
        // radius): Coulomb limit.
        let r = r_sq.sqrt();
        return qi * qj / (r_sq * r);
    }
    let e = math.exp(-r_sq / (4.0 * rr));
    let f_sq = r_sq + rr * e;
    let f = math.sqrt(f_sq);
    qi * qj * (1.0 - 0.25 * e) / (f_sq * f)
}

/// Naive O(M²) frozen-Born-radii gradient of
/// `E = −(τ/2)·Σ_{ij} q_iq_j/f_ij`: returns the gradient ∂E/∂x_k per
/// atom (the *force* is its negation), or a typed error if two atoms
/// coincide.
pub fn epol_gradient_naive(
    pos: &[Vec3],
    charges: &[f64],
    born: &[f64],
    tau: f64,
    math: MathMode,
) -> Result<Vec<Vec3>, GradientError> {
    assert_eq!(pos.len(), charges.len());
    assert_eq!(pos.len(), born.len());
    let n = pos.len();
    let mut grad = vec![Vec3::ZERO; n];
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
            // dE/dx_i = τ·q_iq_j·(1−e/4)/f³ · (x_i − x_j); pair appears
            // twice in the ordered sum, cancelling the −τ/2's 1/2.
            let k = tau * pair_dedr_over_r(charges[i], charges[j], r_sq, born[i], born[j], math);
            grad[i] += d * k;
            grad[j] -= d * k;
        }
    }
    Ok(grad)
}

/// Net torque of the force field about the origin (0 for a valid
/// pairwise central force — exported for integrator sanity checks).
pub fn net_torque(pos: &[Vec3], grad: &[Vec3]) -> Vec3 {
    pos.iter().zip(grad).map(|(p, g)| p.cross(-*g)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constants::{tau, EPS_WATER};
    use crate::energy::exact::epol_naive;
    use polar_molecule::generators;

    fn fixture(n: usize, seed: u64) -> (Vec<Vec3>, Vec<f64>, Vec<f64>, f64) {
        let mol = generators::globular("g", n, seed);
        let pos = mol.positions();
        let charges = mol.charges();
        let born: Vec<f64> = mol.radii().iter().map(|r| r + 1.0).collect();
        (pos, charges, born, tau(EPS_WATER))
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn gradient_matches_finite_differences() {
        let (pos, charges, born, t) = fixture(40, 1);
        let grad = epol_gradient_naive(&pos, &charges, &born, t, MathMode::Exact).unwrap();
        let h = 1e-5;
        for i in [0usize, 7, 19, 39] {
            for axis in 0..3 {
                let mut plus = pos.clone();
                let mut minus = pos.clone();
                match axis {
                    0 => {
                        plus[i].x += h;
                        minus[i].x -= h;
                    }
                    1 => {
                        plus[i].y += h;
                        minus[i].y -= h;
                    }
                    _ => {
                        plus[i].z += h;
                        minus[i].z -= h;
                    }
                }
                let ep = epol_naive(&plus, &charges, &born, t, MathMode::Exact);
                let em = epol_naive(&minus, &charges, &born, t, MathMode::Exact);
                let fd = (ep - em) / (2.0 * h);
                let an = grad[i][axis];
                assert!(
                    (fd - an).abs() <= 1e-5 * an.abs().max(1e-3),
                    "atom {i} axis {axis}: fd {fd} vs analytic {an}"
                );
            }
        }
    }

    #[test]
    fn forces_conserve_linear_momentum() {
        let (pos, charges, born, t) = fixture(120, 2);
        let grad = epol_gradient_naive(&pos, &charges, &born, t, MathMode::Exact).unwrap();
        let net: Vec3 = grad.iter().copied().sum();
        let scale: f64 = grad.iter().map(|g| g.norm()).sum();
        assert!(net.norm() <= 1e-12 * scale.max(1.0), "net force {net:?}");
    }

    #[test]
    fn forces_conserve_angular_momentum() {
        let (pos, charges, born, t) = fixture(80, 3);
        let grad = epol_gradient_naive(&pos, &charges, &born, t, MathMode::Exact).unwrap();
        let torque = net_torque(&pos, &grad);
        let scale: f64 = grad
            .iter()
            .zip(&pos)
            .map(|(g, p)| g.norm() * p.norm())
            .sum();
        assert!(
            torque.norm() <= 1e-10 * scale.max(1.0),
            "net torque {torque:?}"
        );
    }

    #[test]
    fn polarization_force_opposes_the_vacuum_interaction() {
        // For opposite charges the GB cross term is positive and grows
        // as they approach (solvent screening *opposes* the vacuum
        // attraction), so the polarization force pushes them apart:
        // ∂E/∂x₀ > 0 when atom 1 sits at +x.
        let pos = [Vec3::ZERO, Vec3::new(4.0, 0.0, 0.0)];
        let born = [2.0, 2.0];
        let g = epol_gradient_naive(&pos, &[1.0, -1.0], &born, tau(EPS_WATER), MathMode::Exact)
            .unwrap();
        assert!(g[0].x > 0.0 && g[1].x < 0.0, "{g:?}");
        // And for like charges it pulls them together (screening favors
        // the pair sharing one solvent cavity).
        let g2 =
            epol_gradient_naive(&pos, &[1.0, 1.0], &born, tau(EPS_WATER), MathMode::Exact).unwrap();
        assert!(g2[0].x < 0.0 && g2[1].x > 0.0, "{g2:?}");
    }

    #[test]
    fn coincident_atoms_are_a_typed_error() {
        // Regression: this used to silently `continue`, returning a zero
        // force for corrupt input. Now it is a typed, indexed error.
        let pos = [Vec3::ZERO, Vec3::new(7.0, 0.0, 0.0), Vec3::ZERO];
        let err = epol_gradient_naive(
            &pos,
            &[1.0, 1.0, -1.0],
            &[2.0, 2.0, 2.0],
            300.0,
            MathMode::Exact,
        )
        .unwrap_err();
        assert_eq!(err, GradientError::CoincidentAtoms { i: 0, j: 2, r: 0.0 });
        assert!(err.to_string().contains("coincident atoms 0 and 2"));
    }

    #[test]
    fn pair_dedr_domain_edges_are_guarded() {
        let r_sq = 9.0_f64;
        let coulomb = (1.0 * -2.0) / (r_sq * 3.0);
        for math in [MathMode::Exact, MathMode::Approximate] {
            // Subnormal / zero Born product → the bare Coulomb limit,
            // never 0/0.
            for rr_edge in [0.0, f64::MIN_POSITIVE / 4.0] {
                let v = pair_dedr_over_r(1.0, -2.0, r_sq, rr_edge, 1.0, math);
                assert!(
                    (v - coulomb).abs() <= 1e-15 * coulomb.abs(),
                    "rr {rr_edge:e} ({math:?}): {v} vs Coulomb {coulomb}"
                );
            }
            // Infinite Born product → zero force (f → ∞).
            assert_eq!(
                pair_dedr_over_r(1.0, -2.0, r_sq, f64::INFINITY, 1.0, math),
                0.0
            );
            assert_eq!(
                pair_dedr_over_r(1.0, -2.0, r_sq, f64::MAX, f64::MAX, math),
                0.0
            );
            // NaN propagates instead of masquerading as a force.
            assert!(pair_dedr_over_r(1.0, -2.0, r_sq, f64::NAN, 1.0, math).is_nan());
        }
        // Continuity: a tiny-but-normal product sits on the same limit
        // (exp flushes to an exact 0 there, so the formulas agree).
        let v = pair_dedr_over_r(1.0, -2.0, r_sq, 1e-150, 1e-150, MathMode::Exact);
        assert!(
            (v - coulomb).abs() <= 1e-12 * coulomb.abs(),
            "{v} vs {coulomb}"
        );
    }

    #[test]
    fn approximate_math_gradient_is_close() {
        let (pos, charges, born, t) = fixture(50, 5);
        let exact = epol_gradient_naive(&pos, &charges, &born, t, MathMode::Exact).unwrap();
        let approx = epol_gradient_naive(&pos, &charges, &born, t, MathMode::Approximate).unwrap();
        // Per-atom gradients are differences of large pair terms, so
        // compare against the field's typical magnitude, not each atom's
        // own (possibly tiny, heavily cancelled) norm.
        let avg: f64 = exact.iter().map(|g| g.norm()).sum::<f64>() / exact.len() as f64;
        for (a, b) in exact.iter().zip(&approx) {
            assert!(
                a.dist(*b) <= 0.15 * avg.max(1e-6),
                "{a:?} vs {b:?} (avg {avg})"
            );
        }
    }
}
