//! Reference results, computed in setup by paths the measured ops do
//! not use, and the per-op check against them.

use crate::layers::surface_cfg;
use polar_gb::{GbParams, GbSolver, KernelMode};
use polar_molecule::Molecule;
use polar_octree::OctreeConfig;

/// Lane-kernel E_pol against the strict-fp recursive solve (the
/// workspace-wide contract).
pub const LANE_REL_TOL: f64 = 1e-12;
/// Octree against the naive sums. The paper's claim (§V, and
/// `tests/end_to_end.rs` on one fixed molecule) is < 1 %; over seeded
/// inputs the realized error at ε = 0.9 ranges to ~1.2 % (see README), so
/// the gate that no seed may fail is 2 % and the realized error of each
/// `cold_solve` input is printed with the result.
pub const NAIVE_REL_TOL: f64 = 2e-2;

pub fn strict_params() -> GbParams {
    GbParams {
        kernel: KernelMode::Strict,
        ..GbParams::default()
    }
}

pub fn rel_err(x: f64, reference: f64) -> f64 {
    ((x - reference) / reference).abs()
}

/// What the library's own one-call path prepares for `mol`.
pub fn reference_solver(mol: &Molecule) -> GbSolver {
    GbSolver::for_molecule(mol, &surface_cfg(), &OctreeConfig::default())
}

/// E_pol of the strict-fp recursive traversal.
pub fn recursive_epol(solver: &GbSolver) -> f64 {
    solver.solve(&strict_params()).epol_kcal
}

/// E_pol of the naive O(M·N) Born radii + O(M²) energy sums.
pub fn naive_epol(solver: &GbSolver) -> f64 {
    let p = GbParams::default();
    solver.epol_naive(&solver.born_naive(&p), &p)
}

/// Per-molecule check applied to every op's energy: within
/// [`LANE_REL_TOL`] of the recursive reference, and bitwise equal to
/// the first op's value for the same molecule.
#[derive(Debug, Clone)]
pub struct Check {
    reference: f64,
    first: Option<u64>,
}

impl Check {
    pub fn new(reference: f64) -> Check {
        Check {
            reference,
            first: None,
        }
    }

    pub fn reference(&self) -> f64 {
        self.reference
    }

    pub fn pass(&mut self, epol: f64) -> bool {
        let first = *self.first.get_or_insert(epol.to_bits());
        epol.is_finite() && rel_err(epol, self.reference) <= LANE_REL_TOL && epol.to_bits() == first
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_rejects_drift_and_non_repeating_values() {
        let mut c = Check::new(-100.0);
        assert!(c.pass(-100.0));
        assert!(c.pass(-100.0));
        assert!(
            !c.pass(-100.0 * (1.0 + 1e-15)),
            "within tolerance but not bitwise"
        );
        let mut c = Check::new(-100.0);
        assert!(!c.pass(-100.001));
        assert!(!Check::new(-1.0).pass(f64::NAN));
    }
}
