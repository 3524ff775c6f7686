//! Born radius computation.
//!
//! * [`exact`] — the naive O(M·N) discrete r⁶ surface integral of Eq. 4,
//!   used as the accuracy reference;
//! * [`octree`] — the paper's hierarchical `APPROX-INTEGRALS` /
//!   `PUSH-INTEGRALS-TO-ATOMS` (Fig. 2), in both the single-tree variant
//!   the paper uses and the two-tree variant of its precursor \[6\].

pub mod exact;
pub mod octree;

pub use octree::{BornOctreeCtx, BornPartials};
