//! Rigid-body transforms (rotation + translation).
//!
//! §IV.C of the paper: "for drug-design and docking where we need to place
//! the ligand at thousands of different positions w.r.t. the receptor, we can
//! move the same octree to different positions or rotate it as needed by
//! multiplying with proper transformation matrices, and then recompute the
//! energy values." This module supplies those matrices; the octree crate
//! applies them without rebuilding (`Octree::transformed`).

use crate::vec3::Vec3;

/// A proper rotation stored as a row-major 3×3 matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rotation {
    /// Rows of the matrix.
    pub rows: [Vec3; 3],
}

impl Rotation {
    pub const IDENTITY: Rotation = Rotation {
        rows: [Vec3::X, Vec3::Y, Vec3::Z],
    };

    /// Rotation of `angle` radians about the (normalized) `axis`
    /// (Rodrigues' formula).
    pub fn axis_angle(axis: Vec3, angle: f64) -> Rotation {
        let u = axis.normalized();
        let (s, c) = angle.sin_cos();
        let t = 1.0 - c;
        let (x, y, z) = (u.x, u.y, u.z);
        Rotation {
            rows: [
                Vec3::new(t * x * x + c, t * x * y - s * z, t * x * z + s * y),
                Vec3::new(t * x * y + s * z, t * y * y + c, t * y * z - s * x),
                Vec3::new(t * x * z - s * y, t * y * z + s * x, t * z * z + c),
            ],
        }
    }

    /// Apply to a vector.
    #[inline]
    pub fn apply(&self, v: Vec3) -> Vec3 {
        Vec3::new(
            self.rows[0].dot(v),
            self.rows[1].dot(v),
            self.rows[2].dot(v),
        )
    }

    /// Transpose (= inverse, for a proper rotation).
    pub fn transpose(&self) -> Rotation {
        let r = &self.rows;
        Rotation {
            rows: [
                Vec3::new(r[0].x, r[1].x, r[2].x),
                Vec3::new(r[0].y, r[1].y, r[2].y),
                Vec3::new(r[0].z, r[1].z, r[2].z),
            ],
        }
    }

    /// Determinant; +1 for a proper rotation.
    #[cfg(test)]
    pub fn det(&self) -> f64 {
        self.rows[0].dot(self.rows[1].cross(self.rows[2]))
    }

    /// Max deviation from orthonormality (0 for an exact rotation).
    pub fn orthonormality_error(&self) -> f64 {
        let t = self.transpose();
        let mut err = 0.0_f64;
        for i in 0..3 {
            for j in 0..3 {
                let e = t.rows[i].dot(t.rows[j]) - if i == j { 1.0 } else { 0.0 };
                err = err.max(e.abs());
            }
        }
        err
    }
}

impl std::ops::Mul for Rotation {
    type Output = Rotation;
    fn mul(self, o: Rotation) -> Rotation {
        let ot = o.transpose();
        Rotation {
            rows: [
                Vec3::new(
                    self.rows[0].dot(ot.rows[0]),
                    self.rows[0].dot(ot.rows[1]),
                    self.rows[0].dot(ot.rows[2]),
                ),
                Vec3::new(
                    self.rows[1].dot(ot.rows[0]),
                    self.rows[1].dot(ot.rows[1]),
                    self.rows[1].dot(ot.rows[2]),
                ),
                Vec3::new(
                    self.rows[2].dot(ot.rows[0]),
                    self.rows[2].dot(ot.rows[1]),
                    self.rows[2].dot(ot.rows[2]),
                ),
            ],
        }
    }
}

/// A rigid-body transform: `p ↦ R·p + t`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RigidTransform {
    pub rotation: Rotation,
    pub translation: Vec3,
}

impl RigidTransform {
    pub fn translation(t: Vec3) -> Self {
        RigidTransform {
            rotation: Rotation::IDENTITY,
            translation: t,
        }
    }

    pub fn rotation(r: Rotation) -> Self {
        RigidTransform {
            rotation: r,
            translation: Vec3::ZERO,
        }
    }

    /// Apply to a point (rotation then translation).
    #[inline]
    pub fn apply_point(&self, p: Vec3) -> Vec3 {
        self.rotation.apply(p) + self.translation
    }

    /// Apply to a direction (rotation only — normals don't translate).
    #[inline]
    pub fn apply_direction(&self, v: Vec3) -> Vec3 {
        self.rotation.apply(v)
    }

    /// Composition: `(self ∘ o)(p) = self(o(p))`.
    pub fn compose(&self, o: &RigidTransform) -> RigidTransform {
        RigidTransform {
            rotation: self.rotation * o.rotation,
            translation: self.rotation.apply(o.translation) + self.translation,
        }
    }

    /// Inverse transform.
    pub fn inverse(&self) -> RigidTransform {
        let rt = self.rotation.transpose();
        RigidTransform {
            rotation: rt,
            translation: -rt.apply(self.translation),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    fn assert_vec_close(a: Vec3, b: Vec3, tol: f64) {
        assert!(a.dist(b) < tol, "{a:?} != {b:?}");
    }

    #[test]
    fn identity_rotation_is_noop() {
        let v = Vec3::new(1.0, -2.0, 3.0);
        assert_eq!(Rotation::IDENTITY.apply(v), v);
    }

    #[test]
    fn quarter_turn_about_z() {
        let r = Rotation::axis_angle(Vec3::Z, FRAC_PI_2);
        assert_vec_close(r.apply(Vec3::X), Vec3::Y, 1e-12);
        assert_vec_close(r.apply(Vec3::Y), -Vec3::X, 1e-12);
        assert_vec_close(r.apply(Vec3::Z), Vec3::Z, 1e-12);
    }

    #[test]
    fn rotations_are_orthonormal_with_unit_det() {
        let r = Rotation::axis_angle(Vec3::Z, 0.3)
            * Rotation::axis_angle(Vec3::Y, -1.1)
            * Rotation::axis_angle(Vec3::X, 2.2);
        assert!(r.orthonormality_error() < 1e-12);
        assert!((r.det() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rotation_preserves_lengths_and_angles() {
        let r = Rotation::axis_angle(Vec3::new(1.0, 1.0, 0.2), 1.234);
        let a = Vec3::new(0.5, -2.0, 1.5);
        let b = Vec3::new(3.0, 0.1, -0.7);
        assert!((r.apply(a).norm() - a.norm()).abs() < 1e-12);
        assert!((r.apply(a).dot(r.apply(b)) - a.dot(b)).abs() < 1e-10);
    }

    #[test]
    fn transpose_is_inverse() {
        let r = Rotation::axis_angle(Vec3::Z, 1.0)
            * Rotation::axis_angle(Vec3::Y, 0.5)
            * Rotation::axis_angle(Vec3::X, -0.25);
        let i = r * r.transpose();
        assert!(i.orthonormality_error() < 1e-12);
        let v = Vec3::new(1.0, 2.0, 3.0);
        assert_vec_close(i.apply(v), v, 1e-12);
    }

    #[test]
    fn full_turn_is_identity() {
        let r = Rotation::axis_angle(Vec3::new(0.0, 1.0, 1.0), 2.0 * PI);
        let v = Vec3::new(-1.0, 4.0, 0.5);
        assert_vec_close(r.apply(v), v, 1e-9);
    }

    #[test]
    fn transform_compose_and_inverse_roundtrip() {
        let t1 = RigidTransform {
            rotation: Rotation::axis_angle(Vec3::Z, 0.7),
            translation: Vec3::new(1.0, 2.0, 3.0),
        };
        let t2 = RigidTransform::translation(Vec3::new(-4.0, 0.0, 9.0));
        let c = t2.compose(&t1);
        let p = Vec3::new(0.1, 0.2, 0.3);
        assert_vec_close(c.apply_point(p), t2.apply_point(t1.apply_point(p)), 1e-12);
        assert_vec_close(c.inverse().apply_point(c.apply_point(p)), p, 1e-12);
    }

    #[test]
    fn directions_do_not_translate() {
        let t = RigidTransform::translation(Vec3::splat(100.0));
        assert_eq!(t.apply_direction(Vec3::X), Vec3::X);
    }
}
