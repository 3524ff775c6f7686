//! Capsid-scale run: a scaled Cucumber-Mosaic-Virus-like shell through
//! the serial, shared-memory (OCT_CILK), and distributed (OCT_MPI /
//! OCT_MPI+CILK) drivers, plus the simulated Lonestar4 projection.
//!
//! ```sh
//! cargo run --release --example virus_shell [atoms]
//! ```
//!
//! Default 30,000 atoms (the full CMV shell is 509,640 — pass it if you
//! have the patience; all code paths are identical).

use polar_energy::cluster::Layout;
use polar_energy::molecule::{generators, registry::CAPSID_THICKNESS};
use polar_energy::prelude::*;
use std::time::Instant;

fn main() {
    let n_atoms: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(30_000);
    let mol = generators::virus_shell("cmv-like", n_atoms, CAPSID_THICKNESS, 0xC311);
    println!("capsid: {} atoms", mol.len());

    let t = Instant::now();
    let solver = GbSolver::for_molecule(&mol, &SurfaceConfig::coarse(), &OctreeConfig::default());
    println!(
        "prepared {} q-points, octrees of {}+{} nodes in {:.2?} (memory: {:.1} MB/rank)",
        solver.n_qpoints(),
        solver.tree_a.node_count(),
        solver.tree_q.node_count(),
        t.elapsed(),
        solver.memory_bytes() as f64 / 1048576.0
    );

    let params = GbParams::default();
    let t = Instant::now();
    let serial = solver.solve(&params);
    println!(
        "serial octree solve:   E_pol = {:.4e} kcal/mol in {:.2?}",
        serial.epol_kcal,
        t.elapsed()
    );

    let t = Instant::now();
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (cilk, _) = solver
        .solve_report(LeafEval::Traverse, &params, Some(workers))
        .expect("the traversal has no plan to mismatch");
    println!(
        "OCT_CILK ({workers} workers):  E_pol = {:.4e} kcal/mol in {:.2?}",
        cilk.epol_kcal,
        t.elapsed()
    );

    for (name, cfg) in [
        ("OCT_MPI (4x1)", DistributedConfig::oct_mpi(4, params)),
        (
            "OCT_MPI+CILK (2x2)",
            DistributedConfig::oct_mpi_cilk(2, 2, params),
        ),
    ] {
        let t = Instant::now();
        let run =
            run_distributed_ft(&solver, &cfg, &FaultSpec::none()).expect("no faults are scheduled");
        println!(
            "{name:<22} E_pol = {:.4e} kcal/mol in {:.2?} (replicated {:.1} MB, sim comm {:.1} ms)",
            run.epol_kcal,
            t.elapsed(),
            run.total_replicated_bytes as f64 / 1048576.0,
            run.per_rank_comm_seconds
                .iter()
                .cloned()
                .fold(0.0, f64::max)
                * 1e3,
        );
    }

    // Project onto the modeled 144-core Lonestar4.
    println!("\nsimulated Lonestar4 projection (calibrated to this host):");
    let spec = MachineSpec::lonestar4(12);
    let born_tasks: Vec<u64> = solver
        .born_work_per_qleaf(&params)
        .iter()
        .map(|w| w.units())
        .collect();
    let (born, _) = solver.born_radii(&params);
    let epol_tasks: Vec<u64> = solver
        .epol_work_per_leaf(&born, &params)
        .iter()
        .map(|w| w.units())
        .collect();
    let exp = ClusterExperiment::for_solver(spec, &solver, born_tasks, epol_tasks);
    for cores in [12usize, 48, 144] {
        let mpi = exp.simulate(Layout::pure_mpi(cores), 1).total_seconds;
        let hyb = exp
            .simulate(
                Layout {
                    ranks: cores / 6,
                    threads_per_rank: 6,
                },
                1,
            )
            .total_seconds;
        println!("  {cores:>3} cores: OCT_MPI {mpi:>9.4}s | OCT_MPI+CILK {hyb:>9.4}s");
    }
}
