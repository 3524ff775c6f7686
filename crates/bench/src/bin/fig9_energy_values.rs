//! Figure 9 — GB energy values computed by each algorithm per molecule.
//!
//! Paper observations to reproduce: Amber/Gromacs/NAMD/GBr⁶ and all
//! octree variants track the naive energy closely; Tinker reports ≈70% of
//! its magnitude; Tinker and GBr⁶ go OOM past ~12k/13k atoms.
//!
//! The "naive" reference is the octree solver at ε = 10⁻⁶, which the unit
//! tests prove is bit-level equivalent to the quadratic sums (nothing is
//! ever far-approximated) but runs in tree time.

use polar_bench::zdock_spread;
use polar_bench::{build_solver, Scale, Table};
use polar_gb::metrics::percent_diff;
use polar_gb::{GbParams, LeafEval};
use polar_packages::package::registry;

fn main() {
    let scale = Scale::from_env();
    let params = GbParams::default();
    let exact = GbParams {
        eps_born: 1e-6,
        eps_epol: 1e-6,
        ..params
    };

    let mut t = Table::new(
        "fig9_energy_values",
        &[
            "atoms",
            "Naive",
            "OCT(e=0.9)",
            "OCT err%",
            "Gromacs",
            "NAMD",
            "Amber",
            "Tinker",
            "GBr6",
        ],
    );
    let kcal = |e: f64| format!("{e:.1}");
    let mut last_solver = None;
    for mol in zdock_spread(scale.zdock_count) {
        let solver = build_solver(&mol);
        let naive = solver.solve(&exact).epol_kcal;
        let oct = solver.solve(&params).epol_kcal;
        let mut cells = vec![
            mol.len().to_string(),
            kcal(naive),
            kcal(oct),
            format!("{:+.3}", percent_diff(oct, naive)),
        ];
        for spec in registry() {
            cells.push(match spec.run(&mol) {
                Ok(run) => kcal(run.epol_kcal),
                Err(_) => "OOM".into(),
            });
        }
        t.row(cells);
        last_solver = Some(solver);
    }
    t.emit();
    if let Some(solver) = last_solver {
        polar_bench::maybe_write_report("fig9_energy_values", || {
            let (_, report) = solver
                .solve_report(LeafEval::Traverse, &params, None)
                .expect("the traversal has no plan to mismatch");
            report
        });
    }
    println!("energies in kcal/mol; OCT err% is the octree-vs-naive % difference (paper: <1%)");
}
