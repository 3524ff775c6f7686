//! Geometry primitives and approximate-math kernels shared by the whole
//! `polar-energy` workspace.
//!
//! The paper's solver operates on points in 3-space (atom centers and surface
//! quadrature points), organizes them with axis-aligned boxes (octree
//! cells), relocates rigid ligands with transformation matrices, and
//! optionally replaces `sqrt`/`exp`/`pow` with cheaper approximations
//! ("approximate math" in §V.C/§V.E of the paper).
//!
//! Everything here is dependency-free and deterministic.

pub mod aabb;
pub mod fastmath;
pub mod morton;
pub mod transform;
pub mod vec3;

pub use aabb::Aabb;
pub use fastmath::MathMode;
pub use transform::RigidTransform;
pub use vec3::Vec3;
