//! Naive (quadratic) Born radius integrals — the accuracy reference.

use crate::constants::BORN_RADIUS_MAX;
use polar_geom::{MathMode, Vec3};
use polar_surface::QuadPoint;
use std::f64::consts::PI;

/// Convert an accumulated r⁶ surface integral `s = Σ w (r−x)·n/|r−x|⁶`
/// into a Born radius: `R = max(r_vdw, (s/4π)^(−1/3))`, clamped.
///
/// A non-positive integral (possible for numerically degenerate buried
/// atoms) means "no screening detected" and maps to the clamp value.
#[inline]
pub fn born_from_integral_r6(s: f64, vdw_radius: f64, math: MathMode) -> f64 {
    if s <= 1e-30 {
        return BORN_RADIUS_MAX;
    }
    let r = math.inv_cbrt(s / (4.0 * PI));
    r.clamp(vdw_radius, BORN_RADIUS_MAX)
}

/// Naive r⁶ Born radii (Eq. 4): for every atom, sum over *all* quadrature
/// points. O(M·N); the paper's "Naïve" baseline uses this together with
/// the naive pairwise energy.
pub fn born_radii_r6(
    atom_pos: &[Vec3],
    atom_radii: &[f64],
    qpoints: &[QuadPoint],
    math: MathMode,
) -> Vec<f64> {
    assert_eq!(atom_pos.len(), atom_radii.len());
    atom_pos
        .iter()
        .zip(atom_radii)
        .map(|(&x, &rv)| {
            let mut s = 0.0;
            for q in qpoints {
                let d = q.pos - x;
                let r2 = d.norm_sq();
                if r2 > 1e-12 {
                    s += q.weight * d.dot(q.normal) / (r2 * r2 * r2);
                }
            }
            born_from_integral_r6(s, rv, math)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use polar_surface::{generate_surface, SurfaceConfig};

    #[test]
    fn isolated_atom_born_radius_is_its_vdw_radius() {
        for rv in [1.2, 1.7] {
            let q = generate_surface(&[Vec3::ZERO], &[rv], &SurfaceConfig::fine());
            let born = born_radii_r6(&[Vec3::ZERO], &[rv], &q, MathMode::Exact);
            assert!(
                (born[0] - rv).abs() < 1e-4 * rv,
                "rv={rv}: born={}",
                born[0]
            );
        }
    }

    #[test]
    fn buried_atom_has_larger_born_radius_than_surface_atom() {
        // A line of touching spheres: the middle atom is more buried.
        let pos: Vec<Vec3> = (0..7)
            .map(|i| Vec3::new(i as f64 * 1.9, 0.0, 0.0))
            .collect();
        let radii = vec![1.2_f64; 7];
        let q = generate_surface(&pos, &radii, &SurfaceConfig::default());
        let born = born_radii_r6(&pos, &radii, &q, MathMode::Exact);
        assert!(born[3] > born[0], "middle {} vs end {}", born[3], born[0]);
        // All at least the vdW radius.
        for (b, r) in born.iter().zip(&radii) {
            assert!(*b >= *r);
        }
    }

    #[test]
    fn nonpositive_integral_clamps() {
        assert_eq!(
            born_from_integral_r6(0.0, 1.0, MathMode::Exact),
            BORN_RADIUS_MAX
        );
        assert_eq!(
            born_from_integral_r6(-3.0, 1.0, MathMode::Exact),
            BORN_RADIUS_MAX
        );
    }

    #[test]
    fn approximate_math_is_close_to_exact() {
        let pos: Vec<Vec3> = (0..5)
            .map(|i| Vec3::new(i as f64 * 2.5, 0.3, -0.1))
            .collect();
        let radii = vec![1.5_f64; 5];
        let q = generate_surface(&pos, &radii, &SurfaceConfig::default());
        let exact = born_radii_r6(&pos, &radii, &q, MathMode::Exact);
        let approx = born_radii_r6(&pos, &radii, &q, MathMode::Approximate);
        for (a, b) in exact.iter().zip(&approx) {
            assert!((a - b).abs() / a < 1e-3, "{a} vs {b}");
        }
    }
}
