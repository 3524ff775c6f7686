//! Octree-based r⁶ Generalized Born polarization energy.
//!
//! This crate is the paper's primary contribution: hierarchical
//! (Greengard–Rokhlin near–far) approximation of
//!
//! 1. **Born radii** via the surface-based r⁶ integral (Eq. 4) — the
//!    `APPROX-INTEGRALS` and `PUSH-INTEGRALS-TO-ATOMS` algorithms of
//!    Fig. 2, traversing an atoms octree against the leaves of a surface
//!    quadrature-point octree;
//! 2. **GB polarization energy** (Eq. 2, STILL functional form) — the
//!    `APPROX-EPOL` algorithm of Fig. 3, with far-field charges binned by
//!    Born radius into `M_ε = log_{1+ε}(R_max/R_min)` buckets.
//!
//! Both stages are tunable by one approximation parameter ε each: larger
//! ε → more node pairs treated as far → faster and less accurate (paper
//! §V.E). Space usage is independent of ε.
//!
//! Naive quadratic reference kernels ([`born::exact`], [`energy::exact`])
//! are included for error measurement (the paper's "Naïve" rows), plus the
//! pairwise-descreening Born radii (HCT/OBC/Still) used by the baseline
//! packages, and shared-memory parallel drivers (the paper's `OCT_CILK`)
//! on `polar-runtime`'s work-stealing pool.
//!
//! # Quick start
//!
//! ```
//! use polar_gb::{GbParams, GbSolver};
//! use polar_molecule::generators;
//!
//! let mol = generators::globular("demo", 300, 42);
//! let solver = GbSolver::for_molecule(&mol, &Default::default(), &Default::default());
//! let result = solver.solve(&GbParams::default());
//! assert!(result.epol_kcal < 0.0); // polarization energy is negative
//! ```

pub mod batch;
pub mod born;
pub mod constants;
pub mod energy;
pub mod eval;
pub mod kernels;
pub mod metrics;
pub mod minimize;
pub mod partition;
pub mod plan;
pub mod prepared;
pub mod report;
pub mod solver;
pub mod stats;

pub use batch::{
    BatchEngine, BatchJob, BatchOutcome, CacheStats, RescoreError, ServeEngine, ServeSolve,
};
pub use energy::GradientError;
pub use eval::LeafEval;
pub use kernels::KernelMode;
pub use minimize::{minimize, MinimizeConfig, MinimizeOutcome};
pub use plan::{
    BornBlocks, InteractionPlan, PlanDelta, PlanError, RebuildReason, ReplanConfig, ReplanStats,
    StageLists,
};
/// The workspace's JSON codec, re-exported for crates that depend on
/// `polar-gb` but not on `polar-molecule`.
pub use polar_molecule::json;
/// For a server's worker threads only (`polar-serve`); see
/// `polar_runtime::set_callers`.
#[doc(hidden)]
pub use polar_runtime::set_callers;
pub use prepared::{advance, replay_frames, Advance, FrameAction, Prepared};
pub use report::{
    BatchReport, GradientIterRow, GradientReport, Histogram, ReplanFrameRow, ReplanReport,
    ServeReport, SolveReport,
};
pub use solver::{FrameDelta, GbParams, GbResult, GbSolver, GradResult, SolveScratch};
pub use stats::WorkCounts;
