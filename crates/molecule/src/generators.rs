//! Seeded synthetic molecule generators.
//!
//! The paper's benchmark inputs (ZDock suite 2.0, CMV and BTV capsids) are
//! not redistributable, so the harness generates *geometry-class*
//! equivalents:
//!
//! * [`globular`] — a packed, roughly spherical blob at protein atom
//!   density (jittered lattice), matching the ZDock proteins' shape class;
//! * [`virus_shell`] — a faceted icosahedral *shell* (hollow capsid) for
//!   the CMV/BTV experiments, where the molecule is surface-dominated;
//! * [`ligand`] — a short self-avoiding chain for docking examples;
//! * [`zdock_sizes`] — the atom counts of the 84-protein ZDock suite,
//!   log-spaced over 400–16,301 (the size sweep of the paper's Figs. 7–10;
//!   `registry::BenchmarkId::ZDock` builds one globule per size).
//!
//! All generators are deterministic in `(n_atoms, seed)`.

use crate::atom::{Atom, Element};
use crate::molecule::Molecule;
use polar_geom::Vec3;
use polar_surface::icosphere::IcoSphere;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Mean atom number density of packed protein matter (atoms/Å³, all-atom).
pub const PROTEIN_DENSITY: f64 = 0.08;

/// Draw an element according to the average protein composition.
fn sample_element(rng: &mut StdRng) -> Element {
    let x: f64 = rng.random::<f64>();
    let mut acc = 0.0;
    for &(el, f) in &Element::PROTEIN_COMPOSITION {
        acc += f;
        if x < acc {
            return el;
        }
    }
    Element::C
}

/// Assign per-atom partial charges: zero-mean, protein-like spread
/// (|q| mostly < 0.5 e), deterministic in `rng`.
fn assign_charges(n: usize, rng: &mut StdRng) -> Vec<f64> {
    let mut q: Vec<f64> = (0..n).map(|_| rng.random_range(-0.5..0.5)).collect();
    if n > 0 {
        let mean = q.iter().sum::<f64>() / n as f64;
        for v in &mut q {
            *v -= mean;
        }
    }
    q
}

/// Jittered-lattice fill of the region where `keep(p)` is true, producing
/// exactly `n` atoms (the `n` closest to the region's "preference" score
/// returned by `keep`; lower = kept first).
fn lattice_fill(
    n: usize,
    half_extent: f64,
    keep: impl Fn(Vec3) -> Option<f64>,
    rng: &mut StdRng,
) -> Vec<Vec3> {
    let a = (1.0 / PROTEIN_DENSITY).cbrt(); // lattice spacing ≈ 2.32 Å
    let cells = (half_extent / a).ceil() as i64;
    let mut candidates: Vec<(f64, Vec3)> = Vec::new();
    for ix in -cells..=cells {
        for iy in -cells..=cells {
            for iz in -cells..=cells {
                let base = Vec3::new(ix as f64, iy as f64, iz as f64) * a;
                let jitter = Vec3::new(
                    rng.random_range(-0.3..0.3),
                    rng.random_range(-0.3..0.3),
                    rng.random_range(-0.3..0.3),
                ) * a;
                let p = base + jitter;
                if let Some(score) = keep(p) {
                    candidates.push((score, p));
                }
            }
        }
    }
    assert!(
        candidates.len() >= n,
        "lattice region too small: {} candidates for {} atoms",
        candidates.len(),
        n
    );
    candidates.sort_by(|x, y| x.0.total_cmp(&y.0));
    candidates.truncate(n);
    candidates.into_iter().map(|(_, p)| p).collect()
}

/// Turn positions into a molecule with protein-like elements and charges.
fn finish(name: impl Into<String>, positions: Vec<Vec3>, rng: &mut StdRng) -> Molecule {
    let charges = assign_charges(positions.len(), rng);
    let atoms = positions
        .into_iter()
        .zip(charges)
        .map(|(p, q)| Atom::of_element(sample_element(rng), p, q))
        .collect();
    Molecule::new(name, atoms)
}

/// A packed globular pseudo-protein with exactly `n_atoms` atoms.
pub fn globular(name: impl Into<String>, n_atoms: usize, seed: u64) -> Molecule {
    assert!(n_atoms > 0, "n_atoms must be positive");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x676c_6f62);
    // Radius for n atoms at protein density, padded 40% for lattice slack.
    let r = (3.0 * n_atoms as f64 / (4.0 * std::f64::consts::PI * PROTEIN_DENSITY)).cbrt();
    let r_fill = r * 1.4 + 3.0;
    let positions = lattice_fill(
        n_atoms,
        r_fill,
        |p| {
            let d = p.norm();
            (d <= r_fill).then_some(d) // prefer center-out: keeps it globular
        },
        &mut rng,
    );
    finish(name, positions, &mut rng)
}

/// A faceted icosahedral capsid shell (hollow), ~`thickness` Å thick, with
/// exactly `n_atoms` atoms. Models the CMV/BTV geometry class: nearly all
/// atoms sit close to the surface, which is the regime where the paper's
/// surface-based r⁶ method and octree shine.
pub fn virus_shell(name: impl Into<String>, n_atoms: usize, thickness: f64, seed: u64) -> Molecule {
    assert!(n_atoms > 0 && thickness > 0.0);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7669_7275);
    // Face normals of the icosahedron: triangle centroids at subdivision 0.
    let ico = IcoSphere::new(0);
    let face_normals: Vec<Vec3> = ico
        .triangles
        .iter()
        .map(|t| {
            ((ico.vertices[t[0] as usize]
                + ico.vertices[t[1] as usize]
                + ico.vertices[t[2] as usize])
                / 3.0)
                .normalized()
        })
        .collect();
    // Mean shell radius from area × thickness × density = n.
    let r_mid = (n_atoms as f64 / (4.0 * std::f64::consts::PI * thickness * PROTEIN_DENSITY))
        .sqrt()
        .max(thickness);
    let r_out = r_mid + 0.5 * thickness;
    // Icosahedral support: distance to the polyhedral surface along dir.
    let support = move |dir: Vec3| -> f64 {
        face_normals
            .iter()
            .map(|n| n.dot(dir))
            .fold(0.0_f64, f64::max)
            .max(1e-9)
    };
    let positions = lattice_fill(
        n_atoms,
        r_out * 1.25 + 3.0,
        move |p| {
            let d = p.norm();
            if d < 1e-9 {
                return None;
            }
            // Radial distance measured against the faceted surface.
            let facet_r = r_mid / support(p / d);
            let off = (d - facet_r).abs();
            (off <= 0.75 * thickness).then_some(off) // prefer mid-shell
        },
        &mut rng,
    );
    finish(name, positions, &mut rng)
}

/// A small drug-like ligand: a self-avoiding random walk of `n_atoms`
/// heavy atoms with ~1.5 Å steps, centered at the origin.
pub fn ligand(name: impl Into<String>, n_atoms: usize, seed: u64) -> Molecule {
    assert!(n_atoms > 0);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6c69_6761);
    let mut positions = vec![Vec3::ZERO];
    let mut dir = Vec3::X;
    'grow: while positions.len() < n_atoms {
        for _attempt in 0..64 {
            // Persistent random walk: bias along the previous direction.
            let rnd = Vec3::new(
                rng.random_range(-1.0..1.0),
                rng.random_range(-1.0..1.0),
                rng.random_range(-1.0..1.0),
            );
            let cand_dir = (dir * 0.8 + rnd).normalized();
            let cand = *positions.last().unwrap() + cand_dir * 1.5;
            if positions.iter().all(|p| p.dist_sq(cand) > 1.2 * 1.2) {
                positions.push(cand);
                dir = cand_dir;
                continue 'grow;
            }
        }
        // Trapped: restart direction; extremely rare for small n.
        dir = Vec3::new(
            rng.random_range(-1.0..1.0),
            rng.random_range(-1.0..1.0),
            rng.random_range(-1.0..1.0),
        )
        .normalized();
    }
    let centroid = positions.iter().copied().sum::<Vec3>() / n_atoms as f64;
    for p in &mut positions {
        *p -= centroid;
    }
    // Ligands are heavy-atom chains: no hydrogens in the element draw.
    let charges = assign_charges(n_atoms, &mut rng);
    let atoms = positions
        .into_iter()
        .zip(charges)
        .map(|(p, q)| {
            let el = match rng.random_range(0..10) {
                0..=5 => Element::C,
                6..=7 => Element::N,
                8 => Element::O,
                _ => Element::S,
            };
            Atom::of_element(el, p, q)
        })
        .collect();
    Molecule::new(name, atoms)
}

/// The atom counts of the ZDock-like suite: `count` sizes log-spaced over
/// [400, 16,301] — the span the paper reports for the 84 bound proteins.
pub fn zdock_sizes(count: usize) -> Vec<usize> {
    let (lo, hi) = (400.0_f64, 16_301.0_f64);
    (0..count)
        .map(|i| {
            let t = if count > 1 {
                i as f64 / (count - 1) as f64
            } else {
                0.0
            };
            (lo * (hi / lo).powf(t)).round() as usize
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn globular_has_exact_count_and_is_deterministic() {
        let a = globular("g", 500, 7);
        let b = globular("g", 500, 7);
        let c = globular("g", 500, 8);
        assert_eq!(a.len(), 500);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn globular_is_roughly_spherical_at_protein_density() {
        let m = globular("g", 2000, 1);
        let r_expect = (3.0 * 2000.0 / (4.0 * std::f64::consts::PI * PROTEIN_DENSITY)).cbrt();
        let c = m.centroid();
        let max_r = m
            .atoms
            .iter()
            .map(|a| a.pos.dist(c))
            .fold(0.0_f64, f64::max);
        assert!(
            max_r < 1.5 * r_expect,
            "max_r {max_r} vs expected {r_expect}"
        );
        // Density check: n / volume of bounding sphere within 3x of target.
        let vol = 4.0 / 3.0 * std::f64::consts::PI * max_r.powi(3);
        let density = 2000.0 / vol;
        assert!(density > PROTEIN_DENSITY / 3.0 && density < PROTEIN_DENSITY * 3.0);
    }

    #[test]
    fn charges_are_zero_mean() {
        let m = globular("g", 1000, 3);
        assert!(m.total_charge().abs() < 1e-9);
    }

    #[test]
    fn atoms_are_not_badly_overlapping() {
        let m = globular("g", 300, 5);
        let mut min_d = f64::INFINITY;
        for i in 0..m.len() {
            for j in (i + 1)..m.len() {
                min_d = min_d.min(m.atoms[i].pos.dist(m.atoms[j].pos));
            }
        }
        // Jittered lattice guarantees ≥ a(1 − 2·0.3) ≈ 0.93 Å separation.
        assert!(min_d > 0.8, "atoms too close: {min_d}");
    }

    #[test]
    fn virus_shell_is_hollow() {
        let m = virus_shell("v", 4000, 15.0, 11);
        assert_eq!(m.len(), 4000);
        let c = m.centroid();
        let radii: Vec<f64> = m.atoms.iter().map(|a| a.pos.dist(c)).collect();
        let min_r = radii.iter().copied().fold(f64::INFINITY, f64::min);
        let max_r = radii.iter().copied().fold(0.0_f64, f64::max);
        // Hollow: interior cavity much larger than the shell thickness.
        assert!(min_r > 0.3 * max_r, "shell not hollow: [{min_r}, {max_r}]");
    }

    #[test]
    fn ligand_is_chain_like() {
        let m = ligand("l", 40, 2);
        assert_eq!(m.len(), 40);
        // Consecutive atoms are bond-length apart.
        for w in m.atoms.windows(2) {
            let d = w[0].pos.dist(w[1].pos);
            assert!((d - 1.5).abs() < 1e-9, "bond length {d}");
        }
        // Self-avoiding.
        for i in 0..m.len() {
            for j in (i + 2)..m.len() {
                assert!(m.atoms[i].pos.dist(m.atoms[j].pos) > 1.2);
            }
        }
        // Centered.
        assert!(m.centroid().norm() < 1e-9);
    }

    #[test]
    fn zdock_sizes_match_paper_range() {
        let s = zdock_sizes(84);
        assert_eq!(s.len(), 84);
        assert_eq!(s[0], 400);
        assert_eq!(*s.last().unwrap(), 16_301);
        assert!(s.windows(2).all(|w| w[0] <= w[1]));
    }
}
