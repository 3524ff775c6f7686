//! The [`Molecule`] container.

use crate::atom::Atom;
use polar_geom::{Aabb, RigidTransform, Vec3};
use polar_surface::{generate_surface, QuadPoint, SurfaceConfig};

/// A named collection of atoms.
#[derive(Debug, Clone, PartialEq)]
pub struct Molecule {
    pub name: String,
    pub atoms: Vec<Atom>,
}

impl Molecule {
    pub fn new(name: impl Into<String>, atoms: Vec<Atom>) -> Molecule {
        Molecule {
            name: name.into(),
            atoms,
        }
    }

    /// Number of atoms (the paper's `M`).
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// Positions of all atom centers, in order.
    pub fn positions(&self) -> Vec<Vec3> {
        self.atoms.iter().map(|a| a.pos).collect()
    }

    /// van der Waals radii, in order.
    pub fn radii(&self) -> Vec<f64> {
        self.atoms.iter().map(|a| a.radius).collect()
    }

    /// Partial charges, in order.
    pub fn charges(&self) -> Vec<f64> {
        self.atoms.iter().map(|a| a.charge).collect()
    }

    /// Net charge (elementary charges).
    pub fn total_charge(&self) -> f64 {
        self.atoms.iter().map(|a| a.charge).sum()
    }

    /// Geometric centroid of atom centers.
    pub fn centroid(&self) -> Vec3 {
        if self.atoms.is_empty() {
            return Vec3::ZERO;
        }
        self.atoms.iter().map(|a| a.pos).sum::<Vec3>() / self.atoms.len() as f64
    }

    /// Bounding box of atom centers (not inflated by radii).
    pub fn bounds(&self) -> Aabb {
        Aabb::from_points(self.atoms.iter().map(|a| a.pos))
    }

    /// A rigidly transformed copy (radii and charges unchanged).
    ///
    /// Docking sweeps (paper §IV.C) move a ligand with transformation
    /// matrices rather than regenerating it.
    pub fn transformed(&self, xf: &RigidTransform) -> Molecule {
        Molecule {
            name: self.name.clone(),
            atoms: self
                .atoms
                .iter()
                .map(|a| Atom {
                    pos: xf.apply_point(a.pos),
                    ..*a
                })
                .collect(),
        }
    }

    /// Merge two molecules (e.g. receptor + ligand complex).
    pub fn merged(&self, other: &Molecule, name: impl Into<String>) -> Molecule {
        let mut atoms = self.atoms.clone();
        atoms.extend_from_slice(&other.atoms);
        Molecule {
            name: name.into(),
            atoms,
        }
    }

    /// Generate surface quadrature points (the paper's set `Q`).
    pub fn surface(&self, cfg: &SurfaceConfig) -> Vec<QuadPoint> {
        generate_surface(&self.positions(), &self.radii(), cfg)
    }

    /// Check that the molecule is fit for a solve: at least one atom,
    /// finite coordinates and charges, strictly positive finite radii.
    ///
    /// A single NaN coordinate silently poisons every downstream energy
    /// (NaN propagates through the integrals without tripping anything),
    /// so loaders reject bad inputs up front with a descriptive error
    /// naming the offending atom.
    pub fn validate(&self) -> Result<(), String> {
        if self.atoms.is_empty() {
            return Err(format!(
                "molecule {:?} has no atoms — nothing to solve",
                self.name
            ));
        }
        for (i, a) in self.atoms.iter().enumerate() {
            if !(a.pos.x.is_finite() && a.pos.y.is_finite() && a.pos.z.is_finite()) {
                return Err(format!(
                    "atom {} of {:?}: non-finite coordinate ({}, {}, {})",
                    i + 1,
                    self.name,
                    a.pos.x,
                    a.pos.y,
                    a.pos.z
                ));
            }
            if !a.radius.is_finite() || a.radius <= 0.0 {
                return Err(format!(
                    "atom {} of {:?}: radius must be positive and finite, got {}",
                    i + 1,
                    self.name,
                    a.radius
                ));
            }
            if !a.charge.is_finite() {
                return Err(format!(
                    "atom {} of {:?}: non-finite charge {}",
                    i + 1,
                    self.name,
                    a.charge
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polar_geom::transform::Rotation;

    fn tiny() -> Molecule {
        Molecule::new(
            "tiny",
            vec![
                Atom::new(Vec3::ZERO, 1.0, 0.5),
                Atom::new(Vec3::new(2.0, 0.0, 0.0), 1.5, -0.5),
            ],
        )
    }

    #[test]
    fn accessors_are_consistent() {
        let m = tiny();
        assert_eq!(m.len(), 2);
        assert_eq!(m.positions().len(), 2);
        assert_eq!(m.radii(), vec![1.0, 1.5]);
        assert_eq!(m.charges(), vec![0.5, -0.5]);
        assert_eq!(m.total_charge(), 0.0);
        assert_eq!(m.centroid(), Vec3::new(1.0, 0.0, 0.0));
    }

    #[test]
    fn transform_preserves_charge_radius_and_shape() {
        let m = tiny();
        let xf = RigidTransform {
            rotation: Rotation::axis_angle(Vec3::Z, 1.0),
            translation: Vec3::new(10.0, -3.0, 1.0),
        };
        let t = m.transformed(&xf);
        assert_eq!(t.len(), m.len());
        for (a, b) in m.atoms.iter().zip(&t.atoms) {
            assert_eq!(a.radius, b.radius);
            assert_eq!(a.charge, b.charge);
        }
        // Pairwise distances unchanged.
        let d0 = m.atoms[0].pos.dist(m.atoms[1].pos);
        let d1 = t.atoms[0].pos.dist(t.atoms[1].pos);
        assert!((d0 - d1).abs() < 1e-12);
    }

    #[test]
    fn merged_concatenates() {
        let m = tiny();
        let c = m.merged(&m, "dimer");
        assert_eq!(c.len(), 4);
        assert_eq!(c.name, "dimer");
    }

    #[test]
    fn empty_molecule_centroid_is_origin() {
        let m = Molecule::new("empty", vec![]);
        assert!(m.is_empty());
        assert_eq!(m.centroid(), Vec3::ZERO);
    }

    #[test]
    fn validate_accepts_sane_and_rejects_degenerate_molecules() {
        assert!(tiny().validate().is_ok());

        let empty = Molecule::new("void", vec![]);
        let e = empty.validate().unwrap_err();
        assert!(e.contains("no atoms"), "{e}");

        let nan_pos = Molecule::new(
            "nanpos",
            vec![Atom::new(Vec3::new(0.0, f64::NAN, 0.0), 1.0, 0.0)],
        );
        let e = nan_pos.validate().unwrap_err();
        assert!(e.contains("atom 1") && e.contains("coordinate"), "{e}");

        let inf_pos = Molecule::new(
            "infpos",
            vec![Atom::new(Vec3::new(f64::INFINITY, 0.0, 0.0), 1.0, 0.0)],
        );
        assert!(inf_pos.validate().is_err());

        let zero_r = Molecule::new("zr", vec![Atom::new(Vec3::ZERO, 0.0, 0.1)]);
        let e = zero_r.validate().unwrap_err();
        assert!(e.contains("radius"), "{e}");

        let neg_r = Molecule::new("nr", vec![Atom::new(Vec3::ZERO, -1.5, 0.1)]);
        assert!(neg_r.validate().is_err());

        let nan_q = Molecule::new("nq", vec![Atom::new(Vec3::ZERO, 1.0, f64::NAN)]);
        let e = nan_q.validate().unwrap_err();
        assert!(e.contains("charge"), "{e}");
    }

    #[test]
    fn surface_of_single_atom_molecule() {
        let m = Molecule::new("one", vec![Atom::new(Vec3::ZERO, 1.7, 0.0)]);
        let q = m.surface(&SurfaceConfig::default());
        let area: f64 = q.iter().map(|p| p.weight).sum();
        let exact = 4.0 * std::f64::consts::PI * 1.7 * 1.7;
        assert!((area - exact).abs() < 1e-9 * exact);
    }
}
