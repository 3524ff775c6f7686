//! GB polarization energy (Eq. 2).
//!
//! * [`exact`] — naive O(M²) pairwise sum, the accuracy reference;
//! * [`octree`] — the paper's `APPROX-EPOL` (Fig. 3): leaf-vs-tree
//!   traversal with far-field charges binned by Born radius.

pub mod exact;
pub mod gradient;
pub mod octree;

pub use gradient::{epol_gradient_naive, net_torque, GradientError};
pub use octree::EpolCtx;
