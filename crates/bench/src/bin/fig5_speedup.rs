//! Figure 5 — speedup of OCT_MPI and OCT_MPI+CILK with increasing cores
//! (relative to one 12-core node), on the BTV-class capsid.
//!
//! OCT_MPI runs 12 ranks per node; OCT_MPI+CILK runs 2 ranks × 6 threads
//! per node (one rank per socket — the paper's NUMA-avoiding placement,
//! §V.A). Work counts are measured from the real solver; times come from
//! the calibrated cluster simulator: the 144-core machine is modelled,
//! not run.

use polar_bench::{build_solver, calibrated_machine, experiment_for, fmt_secs, Scale, Table};
use polar_cluster::Layout;
use polar_gb::GbParams;
use polar_molecule::registry::BenchmarkId;

fn main() {
    let scale = Scale::from_env();
    let mol = BenchmarkId::Btv {
        scale_permille: scale.btv_permille,
    }
    .build();
    let solver = build_solver(&mol);
    let params = GbParams::default();
    let spec = calibrated_machine(12);
    let exp = experiment_for(&solver, &params, spec);

    let core_counts = [12usize, 24, 48, 72, 96, 120, 144];
    let base_mpi = exp.simulate(Layout::pure_mpi(12), 1).total_seconds;
    let base_hyb = exp
        .simulate(
            Layout {
                ranks: 2,
                threads_per_rank: 6,
            },
            1,
        )
        .total_seconds;

    let mut t = Table::new(
        "fig5_speedup",
        &[
            "cores",
            "OCT_MPI time",
            "OCT_MPI speedup",
            "OCT_MPI+CILK time",
            "OCT_MPI+CILK speedup",
        ],
    );
    for &cores in &core_counts {
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
        t.row(vec![
            cores.to_string(),
            fmt_secs(mpi),
            format!("{:.2}", base_mpi / mpi),
            fmt_secs(hyb),
            format!("{:.2}", base_hyb / hyb),
        ]);
    }
    t.emit();
    polar_bench::maybe_write_report("fig5_speedup", || {
        let l = Layout {
            ranks: 24,
            threads_per_rank: 6,
        };
        exp.report(
            &mol.name,
            params.eps_born,
            params.eps_epol,
            l,
            &exp.simulate(l, 1),
        )
    });
    println!(
        "molecule: {} ({} atoms, {} q-points)",
        mol.name,
        solver.n_atoms(),
        solver.n_qpoints()
    );
}
