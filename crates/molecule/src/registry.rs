//! Named benchmark workloads.
//!
//! Every experiment in EXPERIMENTS.md references molecules by the ids
//! defined here, so a figure can be regenerated from its id alone.

use crate::generators;
use crate::molecule::Molecule;

/// Atom count of the full-scale Cucumber Mosaic Virus shell (paper §V.F).
pub const CMV_ATOMS: usize = 509_640;
/// Atom count of the full-scale Blue Tongue Virus (paper §V.B).
pub const BTV_ATOMS: usize = 6_000_000;
/// Capsid thickness used for the synthetic shells (Å).
pub const CAPSID_THICKNESS: f64 = 25.0;

/// Master seed for all registry molecules; fixed so results are
/// reproducible across runs and machines.
pub const REGISTRY_SEED: u64 = 0x5343_3230_3132; // "SC2012"

/// A named, reproducible benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchmarkId {
    /// The i-th molecule (0-based) of the 84-protein ZDock-like suite.
    ZDock(usize),
    /// Cucumber Mosaic Virus shell at `scale_permille`/1000 of its
    /// 509,640 atoms (1000 = full scale).
    Cmv { scale_permille: u32 },
    /// Blue Tongue Virus at `scale_permille`/1000 of its ~6M atoms.
    Btv { scale_permille: u32 },
}

impl BenchmarkId {
    /// Materialize the molecule.
    pub fn build(self) -> Molecule {
        match self {
            BenchmarkId::ZDock(i) => {
                assert!(i < 84, "ZDock index {i} out of range");
                let n = generators::zdock_sizes(84)[i];
                generators::globular(
                    format!("zd{:03}_n{}", i + 1, n),
                    n,
                    REGISTRY_SEED.wrapping_add(i as u64),
                )
            }
            BenchmarkId::Cmv { scale_permille } => {
                let n = scaled(CMV_ATOMS, scale_permille);
                generators::virus_shell(
                    format!("cmv_n{n}"),
                    n,
                    CAPSID_THICKNESS,
                    REGISTRY_SEED ^ 0xC311,
                )
            }
            BenchmarkId::Btv { scale_permille } => {
                let n = scaled(BTV_ATOMS, scale_permille);
                generators::virus_shell(
                    format!("btv_n{n}"),
                    n,
                    CAPSID_THICKNESS,
                    REGISTRY_SEED ^ 0xB7B7,
                )
            }
        }
    }
}

fn scaled(full: usize, permille: u32) -> usize {
    ((full as u64 * u64::from(permille)) / 1000).max(100) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic]
    fn zdock_index_out_of_range_panics() {
        let _ = BenchmarkId::ZDock(84).build();
    }

    #[test]
    fn scaled_never_returns_zero() {
        assert!(scaled(1000, 0) >= 100);
    }
}
