//! The speed/accuracy dial: sweep the approximation parameter ε and watch
//! error trade against work (the paper's Fig. 10 in miniature).
//!
//! ```sh
//! cargo run --release --example epsilon_sweep
//! ```

use polar_energy::molecule::generators;
use polar_energy::prelude::*;
use std::time::Instant;

/// Plan the octree traversals at `params`' ε and execute the plan.
fn solve(solver: &GbSolver, params: &GbParams) -> GbResult {
    solver
        .solve_with_plan(&solver.plan(params), params)
        .expect("the plan was built from this solver at these ε")
}

fn main() {
    let mol = generators::globular("sweep", 4_000, 3);
    let solver = GbSolver::for_molecule(&mol, &SurfaceConfig::coarse(), &OctreeConfig::default());
    println!(
        "molecule: {} atoms, {} q-points",
        solver.n_atoms(),
        solver.n_qpoints()
    );

    // Exact reference (ε → 0 never approximates; proven bit-equal to the
    // naive sums in the test suite).
    let exact = GbParams {
        eps_born: 1e-6,
        eps_epol: 1e-6,
        ..Default::default()
    };
    let reference = solve(&solver, &exact).epol_kcal;
    println!("reference E_pol = {reference:.4} kcal/mol\n");

    println!(
        "{:>5} {:>12} {:>10} {:>14} {:>12}",
        "eps", "E_pol", "err %", "pair ops", "time"
    );
    for k in [0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1.2, 1.5] {
        let params = GbParams {
            eps_born: k,
            eps_epol: k,
            ..Default::default()
        };
        let t = Instant::now();
        let r = solve(&solver, &params);
        let dt = t.elapsed();
        println!(
            "{k:>5.2} {:>12.4} {:>10.4} {:>14} {:>12.2?}",
            r.epol_kcal,
            100.0 * (r.epol_kcal - reference) / reference.abs(),
            r.work_born.pair_ops + r.work_epol.pair_ops,
            dt
        );
    }
    println!("\nlarger eps => fewer exact pairs, more far-field approximations, more error");
}
