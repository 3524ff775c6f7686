//! # polar-energy
//!
//! A from-scratch Rust reproduction of *"Polarization Energy on a Cluster
//! of Multicores"* (Tithi & Chowdhury, SC 2012): an octree-based
//! hierarchical solver for Generalized Born polarization energy with
//! surface-based r⁶ Born radii, hybrid distributed/shared-memory
//! parallelism, baseline MD-package comparators, and a calibrated cluster
//! simulator that regenerates every table and figure of the paper's
//! evaluation.
//!
//! This facade crate re-exports the workspace:
//!
//! | crate | contents |
//! |---|---|
//! | [`geom`] | vectors, boxes, Morton codes, rigid transforms, approximate math |
//! | [`surface`] | Dunavant quadrature + molecular surface point generation |
//! | [`molecule`] | atoms, PQR/XYZ I/O, synthetic benchmark generators |
//! | [`octree`] | cache-friendly flat octrees with pseudo-particle aggregates |
//! | [`nblist`] | cell lists / neighbor lists (the baseline data structure) |
//! | [`gb`] | **the core contribution**: hierarchical Born radii + E_pol |
//! | [`runtime`] | cilk-style randomized work-stealing pool |
//! | [`mpi`] | in-process message passing + the OCT_MPI / hybrid driver |
//! | [`cluster`] | simulated cluster of multicores (scalability figures) |
//! | [`packages`] | Amber/Gromacs/NAMD/Tinker/GBr⁶-like baselines |
//!
//! ## Quick start
//!
//! ```
//! use polar_energy::prelude::*;
//!
//! // A synthetic 500-atom protein-like globule.
//! let mol = polar_energy::molecule::generators::globular("demo", 500, 42);
//! // Build surface quadrature + both octrees once...
//! let solver = GbSolver::for_molecule(&mol, &SurfaceConfig::coarse(), &OctreeConfig::default());
//! // ...then plan the octree traversals at any approximation parameter
//! // and execute the plan (reusable for every solve at that ε).
//! let params = GbParams::default();
//! let plan = solver.plan(&params);
//! let result = solver.solve_with_plan(&plan, &params).unwrap();
//! assert!(result.epol_kcal < 0.0);
//! ```

pub use polar_cluster as cluster;
pub use polar_gb as gb;
pub use polar_geom as geom;
pub use polar_molecule as molecule;
pub use polar_mpi as mpi;
pub use polar_nblist as nblist;
pub use polar_octree as octree;
pub use polar_packages as packages;
pub use polar_runtime as runtime;
pub use polar_surface as surface;

/// The types most programs need.
pub mod prelude {
    pub use polar_cluster::{ClusterExperiment, Layout, MachineSpec};
    pub use polar_gb::{GbParams, GbResult, GbSolver, LeafEval};
    pub use polar_geom::{MathMode, RigidTransform, Vec3};
    pub use polar_molecule::{Atom, Molecule};
    pub use polar_mpi::{run_distributed_ft, DistributedConfig, FaultSpec};
    pub use polar_octree::OctreeConfig;
    pub use polar_surface::SurfaceConfig;
}
