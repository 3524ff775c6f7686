//! Quickstart: compute the GB polarization energy of a molecule.
//!
//! ```sh
//! cargo run --release --example quickstart [path/to/molecule.pqr]
//! ```
//!
//! With no argument a synthetic 2,000-atom protein-like globule is used.
//! The example walks the full pipeline: surface quadrature → octrees →
//! a plan of the Fig. 2/3 separation tests → Born radii and E_pol
//! executed from its flat lists, then cross-checks the result against
//! the naive quadratic reference.

use polar_energy::molecule::{generators, io};
use polar_energy::prelude::*;
use std::time::Instant;

fn main() {
    let mol = match std::env::args().nth(1) {
        Some(path) => io::load(std::path::Path::new(&path)).unwrap_or_else(|e| {
            eprintln!("failed to read {path}: {e}");
            std::process::exit(1);
        }),
        None => generators::globular("demo-globule", 2_000, 42),
    };
    println!(
        "molecule: {} ({} atoms, net charge {:+.3} e)",
        mol.name,
        mol.len(),
        mol.total_charge()
    );

    // 1. Pre-processing (paper §IV.C Step 1): sample the molecular
    //    surface and build both octrees. Done once per molecule; every
    //    subsequent solve reuses them for any ε.
    let t = Instant::now();
    let solver = GbSolver::for_molecule(&mol, &SurfaceConfig::coarse(), &OctreeConfig::default());
    println!(
        "preprocessing: {} surface quadrature points, atoms octree {} nodes, built in {:.2?}",
        solver.n_qpoints(),
        solver.tree_a.node_count(),
        t.elapsed()
    );

    // 2. Hierarchical solve at the paper's operating point ε = 0.9/0.9:
    //    plan the octree traversals once, then execute the plan.
    let params = GbParams::default();
    let t = Instant::now();
    let plan = solver.plan(&params);
    let result = solver
        .solve_with_plan(&plan, &params)
        .expect("the plan was built from this solver at these ε");
    let octree_time = t.elapsed();
    println!(
        "octree solve (eps = {}/{}): E_pol = {:.3} kcal/mol in {:.2?}",
        params.eps_born, params.eps_epol, result.epol_kcal, octree_time
    );
    println!(
        "  work: {} near-field pairs, {} far-field approximations",
        result.work_born.pair_ops + result.work_epol.pair_ops,
        result.work_born.far_ops + result.work_epol.far_ops
    );

    // 3. Naive quadratic reference (Eq. 2 + Eq. 4 as written).
    let t = Instant::now();
    let born_naive = solver.born_naive(&params);
    let e_naive = solver.epol_naive(&born_naive, &params);
    let naive_time = t.elapsed();
    println!("naive solve: E_pol = {e_naive:.3} kcal/mol in {naive_time:.2?}");
    println!(
        "  octree error: {:+.4}% | speedup over naive: {:.1}x",
        100.0 * (result.epol_kcal - e_naive) / e_naive.abs(),
        naive_time.as_secs_f64() / octree_time.as_secs_f64()
    );
}
