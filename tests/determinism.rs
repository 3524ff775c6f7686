//! Bit-level reproducibility guarantees.
//!
//! Everything in this workspace is seeded and ordered deterministically:
//! generators, octree construction, traversal order, rank segmentation,
//! and the cluster simulator. These tests pin that property — it is what
//! makes the experiment harness's CSVs reproducible across runs and
//! machines (modulo the wall-clock columns).

use polar_energy::cluster::{ClusterExperiment, Layout, MachineSpec};
use polar_energy::molecule::generators;
use polar_energy::prelude::*;

#[test]
fn generators_are_bit_reproducible() {
    let a = generators::globular("d", 700, 123);
    let b = generators::globular("d", 700, 123);
    assert_eq!(a, b);
    let s1 = generators::virus_shell("v", 1500, 20.0, 9);
    let s2 = generators::virus_shell("v", 1500, 20.0, 9);
    assert_eq!(s1, s2);
}

#[test]
fn full_solve_is_bit_reproducible() {
    let mol = generators::globular("d", 500, 7);
    let cfg = SurfaceConfig::coarse();
    let tree = OctreeConfig::default();
    let p = GbParams::default();
    let r1 = GbSolver::for_molecule(&mol, &cfg, &tree).solve(&p);
    let r2 = GbSolver::for_molecule(&mol, &cfg, &tree).solve(&p);
    assert_eq!(r1.epol_kcal.to_bits(), r2.epol_kcal.to_bits());
    for (a, b) in r1.born.iter().zip(&r2.born) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    assert_eq!(r1.work_born.pair_ops, r2.work_born.pair_ops);
}

#[test]
fn distributed_runs_are_bit_reproducible() {
    let mol = generators::globular("d", 300, 8);
    let solver = GbSolver::for_molecule(&mol, &SurfaceConfig::coarse(), &OctreeConfig::default());
    let cfg = DistributedConfig::oct_mpi_cilk(3, 2, GbParams::default());
    let run = || run_distributed_ft(&solver, &cfg, &FaultSpec::none()).expect("no faults");
    let (r1, r2) = (run(), run());
    // Thread scheduling varies, but the additive reduction order is fixed
    // by rank, so even the hybrid driver is exactly reproducible.
    assert_eq!(r1.epol_kcal.to_bits(), r2.epol_kcal.to_bits());
    assert_eq!(r1.born.len(), r2.born.len());
    for (a, b) in r1.born.iter().zip(&r2.born) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

#[test]
fn cluster_simulation_is_deterministic_in_seed() {
    let tasks: Vec<u64> = (0..500).map(|i| (i * 37 % 1000 + 5) as u64).collect();
    let exp = ClusterExperiment {
        spec: MachineSpec::lonestar4(12),
        born_tasks: tasks.clone(),
        epol_tasks: tasks,
        data_bytes: 20 << 20,
        partials_bytes: 2 << 20,
        born_bytes: 1 << 18,
    };
    let l = Layout {
        ranks: 8,
        threads_per_rank: 3,
    };
    let a = exp.simulate(l, 42);
    let b = exp.simulate(l, 42);
    assert_eq!(a, b);
    // And different seeds actually differ (the Fig. 6 envelope is real).
    let c = exp.simulate(l, 43);
    assert_ne!(a.total_seconds.to_bits(), c.total_seconds.to_bits());
}
