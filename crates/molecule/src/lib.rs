//! Molecule model, file I/O and synthetic benchmark generators.
//!
//! The paper evaluates on the ZDock Benchmark Suite 2.0 (84 bound protein
//! complexes, ~400–16,301 atoms), the Cucumber Mosaic Virus capsid
//! (509,640 atoms / 1,929,128 surface quadrature points) and the Blue
//! Tongue Virus (~6M atoms). Those input files are not redistributable, so
//! this crate provides:
//!
//! * [`Atom`]/[`Molecule`] with element-based van der Waals radii and
//!   partial charges,
//! * PQR and XYZ readers/writers for real structures when available,
//! * seeded synthetic generators ([`generators`]) that reproduce the
//!   *geometry class* of each benchmark: packed globular "proteins" at
//!   protein atom density across the same size sweep, and icosahedral
//!   virus shells at capsid scale,
//! * a [`registry`] naming every benchmark instance the experiment harness
//!   uses, so each figure's workload is reproducible from a single id.

pub mod atom;
pub mod generators;
pub mod io;
pub mod json;
pub mod manifest;
pub mod molecule;
pub mod registry;
pub mod request;
pub mod trajectory;

pub use atom::{Atom, Element};
pub use manifest::{Manifest, ManifestJob};
pub use molecule::Molecule;
pub use request::{Control, ServeJob, ServeRequest};
