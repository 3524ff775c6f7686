//! Surface quadrature point generation for a union of atomic spheres.
//!
//! The molecular surface is modeled as the boundary of the union of
//! (optionally probe-inflated) van der Waals spheres. Each sphere is
//! tessellated by a shared icosphere template, Dunavant quadrature points
//! are placed on every triangle and projected radially onto the sphere, and
//! points buried inside any neighboring sphere are culled. What survives is
//! a quadrature of the exposed molecular surface: each point carries its
//! position `r_k`, the outward unit normal `n_k`, and an area weight `w_k`
//! such that `Σ w_k f(r_k) ≈ ∮ f dA`.

use crate::dunavant::DunavantRule;
use crate::icosphere::IcoSphere;
use polar_geom::{Aabb, Vec3};
use std::collections::HashMap;
use std::f64::consts::PI;

/// A weighted quadrature point on the molecular surface.
///
/// This is the `(r_k, n⃗_k, w_k)` triple of Eq. 4 in the paper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuadPoint {
    /// Position on the surface (Å).
    pub pos: Vec3,
    /// Outward unit normal.
    pub normal: Vec3,
    /// Area weight (Å²). Weights over a fully exposed sphere sum to 4πr².
    pub weight: f64,
    /// Index of the atom whose sphere this point lies on (the point
    /// translates rigidly with it when a frame moves the atoms).
    pub owner: u32,
}

/// Parameters controlling surface generation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SurfaceConfig {
    /// Icosphere subdivision level (20·4^s triangles per atom).
    pub subdivisions: u32,
    /// Dunavant rule degree (1–7): quadrature points per triangle.
    pub quadrature_degree: u32,
    /// Probe radius added to every atomic radius (0 = van der Waals
    /// surface, 1.4 Å ≈ solvent-accessible surface for water).
    pub probe_radius: f64,
}

impl Default for SurfaceConfig {
    fn default() -> Self {
        // Degree-4 rule: 6 points/triangle, all weights positive.
        SurfaceConfig {
            subdivisions: 1,
            quadrature_degree: 4,
            probe_radius: 0.0,
        }
    }
}

impl SurfaceConfig {
    /// A cheap configuration for very large molecules (20 triangles/atom,
    /// 3 points each). The paper's inputs average ~4–6 q-points per atom.
    pub fn coarse() -> Self {
        SurfaceConfig {
            subdivisions: 0,
            quadrature_degree: 2,
            probe_radius: 0.0,
        }
    }

    /// A high-resolution configuration for accuracy studies.
    pub fn fine() -> Self {
        SurfaceConfig {
            subdivisions: 2,
            quadrature_degree: 5,
            probe_radius: 0.0,
        }
    }
}

/// Template of per-unit-sphere quadrature directions and weights, shared by
/// all atoms: direction `dir` on the unit sphere and weight `w_unit` such
/// that Σ w_unit = 4π exactly.
struct SphereTemplate {
    dirs: Vec<Vec3>,
    unit_weights: Vec<f64>,
}

impl SphereTemplate {
    fn build(cfg: &SurfaceConfig) -> SphereTemplate {
        let sphere = IcoSphere::new(cfg.subdivisions);
        let rule = DunavantRule::of_degree(cfg.quadrature_degree);
        // Rescale so the flat tessellation reproduces the exact sphere area.
        let kappa = 4.0 * PI / sphere.flat_area();
        let mut dirs = Vec::with_capacity(sphere.len() * rule.len());
        let mut unit_weights = Vec::with_capacity(sphere.len() * rule.len());
        for t in &sphere.triangles {
            let [a, b, c] = [
                sphere.vertices[t[0] as usize],
                sphere.vertices[t[1] as usize],
                sphere.vertices[t[2] as usize],
            ];
            let flat_area = (b - a).cross(c - a).norm() * 0.5;
            for p in &rule.points {
                let q = a * p.bary[0] + b * p.bary[1] + c * p.bary[2];
                dirs.push(q.normalized());
                unit_weights.push(p.weight * flat_area * kappa);
            }
        }
        SphereTemplate { dirs, unit_weights }
    }
}

/// Spatial hash over atoms for burial queries. Each atom is registered in
/// every grid cell its (inflated) sphere's bounding box overlaps, so a point
/// query only inspects one cell.
struct BurialGrid<'a> {
    cell: f64,
    centers: &'a [Vec3],
    radii: Vec<f64>,
    map: HashMap<(i64, i64, i64), Vec<u32>>,
}

impl<'a> BurialGrid<'a> {
    fn build(centers: &'a [Vec3], radii: &[f64], probe: f64) -> BurialGrid<'a> {
        let radii: Vec<f64> = radii.iter().map(|r| r + probe).collect();
        let max_r = radii.iter().copied().fold(0.0_f64, f64::max);
        let cell = (2.0 * max_r).max(1e-6);
        let mut map: HashMap<(i64, i64, i64), Vec<u32>> = HashMap::new();
        for (i, (&c, &r)) in centers.iter().zip(&radii).enumerate() {
            let b = Aabb::new(c - Vec3::splat(r), c + Vec3::splat(r));
            let lo = cell_of(b.min, cell);
            let hi = cell_of(b.max, cell);
            for x in lo.0..=hi.0 {
                for y in lo.1..=hi.1 {
                    for z in lo.2..=hi.2 {
                        map.entry((x, y, z)).or_default().push(i as u32);
                    }
                }
            }
        }
        BurialGrid {
            cell,
            centers,
            radii,
            map,
        }
    }

    /// Is `p` (a surface point of atom `owner`) strictly inside any other
    /// sphere? A relative tolerance keeps tangent spheres from culling each
    /// other's touching point.
    fn is_buried(&self, p: Vec3, owner: u32) -> bool {
        let key = cell_of(p, self.cell);
        if let Some(atoms) = self.map.get(&key) {
            for &j in atoms {
                if j == owner {
                    continue;
                }
                let r = self.radii[j as usize];
                let shrunk = r * (1.0 - 1e-9);
                if p.dist_sq(self.centers[j as usize]) < shrunk * shrunk {
                    return true;
                }
            }
        }
        false
    }
}

#[inline]
fn cell_of(p: Vec3, cell: f64) -> (i64, i64, i64) {
    (
        (p.x / cell).floor() as i64,
        (p.y / cell).floor() as i64,
        (p.z / cell).floor() as i64,
    )
}

/// Generate surface quadrature points for a union of spheres.
///
/// `centers` and `radii` must have equal lengths. Radii must be positive.
/// Returns points grouped by atom in input order; the GB solver does not
/// rely on the ordering.
pub fn generate_surface(centers: &[Vec3], radii: &[f64], cfg: &SurfaceConfig) -> Vec<QuadPoint> {
    assert_eq!(centers.len(), radii.len(), "centers/radii length mismatch");
    assert!(
        radii.iter().all(|&r| r > 0.0),
        "atomic radii must be positive"
    );
    let template = SphereTemplate::build(cfg);
    let grid = BurialGrid::build(centers, radii, cfg.probe_radius);
    let mut out = Vec::with_capacity(centers.len() * template.dirs.len() / 2);
    for (i, &c) in centers.iter().enumerate() {
        let r = grid.radii[i];
        let r_sq = r * r;
        for (dir, w_unit) in template.dirs.iter().zip(&template.unit_weights) {
            let pos = c + *dir * r;
            if !grid.is_buried(pos, i as u32) {
                out.push(QuadPoint {
                    pos,
                    normal: *dir,
                    weight: w_unit * r_sq,
                    owner: i as u32,
                });
            }
        }
    }
    out
}

/// Total exposed surface area represented by a quadrature point set.
pub fn total_area(points: &[QuadPoint]) -> f64 {
    points.iter().map(|p| p.weight).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn single_sphere(r: f64, cfg: &SurfaceConfig) -> Vec<QuadPoint> {
        generate_surface(&[Vec3::ZERO], &[r], cfg)
    }

    #[test]
    fn lone_sphere_area_is_exact() {
        for r in [1.0, 1.7, 3.2] {
            let pts = single_sphere(r, &SurfaceConfig::default());
            let area = total_area(&pts);
            let exact = 4.0 * PI * r * r;
            // κ-rescaling makes the total exact up to rounding.
            assert!(
                (area - exact).abs() < 1e-9 * exact,
                "r={r}: {area} vs {exact}"
            );
        }
    }

    #[test]
    fn normals_are_unit_and_outward() {
        let pts = single_sphere(2.0, &SurfaceConfig::default());
        for p in &pts {
            assert!((p.normal.norm() - 1.0).abs() < 1e-12);
            assert!(p.normal.dot(p.pos) > 0.0);
        }
    }

    #[test]
    fn closed_surface_normal_integral_vanishes() {
        // ∮ n dA = 0 for a closed surface.
        let pts = single_sphere(1.5, &SurfaceConfig::default());
        let s: Vec3 = pts.iter().map(|p| p.normal * p.weight).sum();
        let area = total_area(&pts);
        assert!(s.norm() < 1e-9 * area, "∮n dA = {s:?}");
    }

    #[test]
    fn gauss_theorem_solid_angle() {
        // ∮ (r−x)·n / |r−x|³ dA = 4π for x inside, 0 for x outside.
        let pts = single_sphere(1.0, &SurfaceConfig::fine());
        let solid_angle = |x: Vec3| -> f64 {
            pts.iter()
                .map(|p| {
                    let d = p.pos - x;
                    p.weight * d.dot(p.normal) / d.norm_sq().powf(1.5)
                })
                .sum()
        };
        let inside = solid_angle(Vec3::new(0.2, -0.1, 0.05));
        let outside = solid_angle(Vec3::new(3.0, 0.0, 0.0));
        assert!((inside - 4.0 * PI).abs() < 0.05, "inside: {inside}");
        assert!(outside.abs() < 0.05, "outside: {outside}");
    }

    #[test]
    fn born_integral_of_isolated_sphere_recovers_radius() {
        // (1/4π) ∮ (r−x)·n/|r−x|⁶ dA at the center x equals 1/R³ (Eq. 4),
        // i.e. the Born radius of an isolated atom is its own radius.
        for r in [1.0, 1.8] {
            let pts = single_sphere(r, &SurfaceConfig::fine());
            let s: f64 = pts
                .iter()
                .map(|p| {
                    let d = p.pos;
                    p.weight * d.dot(p.normal) / d.norm_sq().powi(3)
                })
                .sum();
            let born = (s / (4.0 * PI)).powf(-1.0 / 3.0);
            assert!((born - r).abs() < 1e-6 * r, "r={r}: born={born}");
        }
    }

    #[test]
    fn buried_points_are_culled_for_overlapping_spheres() {
        let centers = [Vec3::ZERO, Vec3::new(1.0, 0.0, 0.0)];
        let radii = [1.0, 1.0];
        let pts = generate_surface(&centers, &radii, &SurfaceConfig::default());
        // No surviving point may lie strictly inside the other sphere.
        for p in &pts {
            for (c, r) in centers.iter().zip(&radii) {
                let d = p.pos.dist(*c);
                assert!(d > r * (1.0 - 1e-6) - 1e-9, "buried point survived: {p:?}");
            }
        }
        // Exposed area of the pair is strictly less than two full spheres
        // but more than one.
        let area = total_area(&pts);
        let full = 4.0 * PI;
        assert!(area < 2.0 * full && area > full, "area {area}");
    }

    #[test]
    fn disjoint_spheres_keep_full_area() {
        let pts = generate_surface(
            &[Vec3::ZERO, Vec3::new(10.0, 0.0, 0.0)],
            &[1.0, 2.0],
            &SurfaceConfig::default(),
        );
        let exact = 4.0 * PI * (1.0 + 4.0);
        assert!((total_area(&pts) - exact).abs() < 1e-9 * exact);
    }

    #[test]
    fn probe_radius_inflates_spheres() {
        let cfg = SurfaceConfig {
            probe_radius: 1.4,
            ..SurfaceConfig::default()
        };
        let pts = single_sphere(1.0, &cfg);
        let exact = 4.0 * PI * 2.4 * 2.4;
        assert!((total_area(&pts) - exact).abs() < 1e-9 * exact);
    }

    #[test]
    fn tangent_spheres_do_not_cull_each_other() {
        // Exactly touching spheres: the tangent point must survive on both.
        let pts = generate_surface(
            &[Vec3::ZERO, Vec3::new(2.0, 0.0, 0.0)],
            &[1.0, 1.0],
            &SurfaceConfig::default(),
        );
        let exact = 2.0 * 4.0 * PI;
        assert!((total_area(&pts) - exact).abs() < 1e-9 * exact);
    }

    #[test]
    #[should_panic]
    fn mismatched_lengths_panic() {
        let _ = generate_surface(&[Vec3::ZERO], &[], &SurfaceConfig::default());
    }

    #[test]
    #[should_panic]
    fn nonpositive_radius_panics() {
        let _ = generate_surface(&[Vec3::ZERO], &[0.0], &SurfaceConfig::default());
    }
}
