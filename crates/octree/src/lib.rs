//! Cache-friendly flat octrees with pseudo-particle aggregates.
//!
//! This is the paper's central data structure (§II "Octrees vs. Nblists"):
//! an adaptive spatial subdivision over atoms or surface quadrature points,
//! used by the Greengard–Rokhlin-style near–far decomposition. Compared to
//! the nonbonded lists used by Amber/Gromacs/NAMD it is
//!
//! * **linear-space** — size depends only on the number of points, not on
//!   any distance cutoff or approximation parameter;
//! * **cache-friendly** — points are permuted into Morton (Z-)order at
//!   build time, so every node at every level owns a *contiguous* slice of
//!   one flat array and traversals stream memory linearly;
//! * **reusable** — built once per molecule, then traversed for any
//!   approximation parameter ε, and rigidly movable (for docking sweeps)
//!   without a rebuild.
//!
//! The tree itself stores only geometry (centroid, enclosing-ball radius,
//! point ranges) in 48-byte DFS pre-order nodes whose `skip` link marks
//! where each subtree ends — the one layout the recursions and the plan
//! engine's stackless walk both read. Per-node physical aggregates —
//! pseudo-q-point normal sums, charge totals, Born-radius histograms —
//! are computed by the solver with [`Octree::aggregate`] and kept in
//! external arrays indexed by node id, which keeps the tree immutable and
//! shareable across threads and simulated ranks.

pub mod build;
pub mod tree;

pub use build::OctreeConfig;
pub use tree::{NodeId, Octree, OctreeNode, RefreshDelta};
