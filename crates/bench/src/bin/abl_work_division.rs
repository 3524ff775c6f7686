//! Ablation — node-based vs atom-based work division (paper §IV.A).
//!
//! Two claims to reproduce:
//! 1. node–node division's energy (hence error) is **independent of the
//!    rank count** — segment boundaries never split a tree node;
//! 2. atom-based division's error **changes with P**, because division
//!    boundaries split leaves into shards whose pseudo-particle geometry
//!    depends on where the boundary fell.

use polar_bench::zdock_spread;
use polar_bench::{build_solver, Scale, Table};
use polar_gb::constants::{tau, EPS_WATER};
use polar_gb::energy::octree::{epol_for_atom_segment, epol_for_leaf_segment, EpolCtx};
use polar_gb::metrics::percent_diff;
use polar_gb::partition::even_segments;
use polar_gb::{GbParams, LeafEval, WorkCounts};
use polar_geom::MathMode;

fn main() {
    let scale = Scale::from_env();
    // A handful of mid-sized molecules is enough for this ablation.
    let count = scale.zdock_count.clamp(3, 6);
    let params = GbParams::default();
    let t_w = tau(EPS_WATER);

    let mut t = Table::new(
        "abl_work_division",
        &["atoms", "P", "node-node err%", "atom-based err%"],
    );
    let mut last_solver = None;
    for mol in zdock_spread(count) {
        let solver = build_solver(&mol);
        let reference = solver
            .solve(&GbParams {
                eps_born: 1e-6,
                eps_epol: 1e-6,
                ..params
            })
            .epol_kcal;
        let (born, _) = solver.born_radii(&params);
        let ctx = EpolCtx::new(&solver.tree_a, &solver.charges, &born, params.eps_epol);
        for ranks in [1usize, 4, 12] {
            let node_e: f64 = even_segments(solver.tree_a.leaves().len(), ranks)
                .into_iter()
                .map(|r| {
                    epol_for_leaf_segment(
                        &ctx,
                        params.eps_epol,
                        MathMode::Exact,
                        t_w,
                        r,
                        &mut WorkCounts::default(),
                    )
                })
                .sum();
            let atom_e: f64 = even_segments(solver.n_atoms(), ranks)
                .into_iter()
                .map(|r| {
                    epol_for_atom_segment(
                        &ctx,
                        params.eps_epol,
                        MathMode::Exact,
                        t_w,
                        r,
                        &mut WorkCounts::default(),
                    )
                })
                .sum();
            t.row(vec![
                solver.n_atoms().to_string(),
                ranks.to_string(),
                format!("{:+.5}", percent_diff(node_e, reference)),
                format!("{:+.5}", percent_diff(atom_e, reference)),
            ]);
        }
        last_solver = Some(solver);
    }
    t.emit();
    if let Some(solver) = last_solver {
        polar_bench::maybe_write_report("abl_work_division", || {
            let workers = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1);
            let (_, report) = solver
                .solve_report(LeafEval::Traverse, &params, Some(workers))
                .expect("the traversal has no plan to mismatch");
            report
        });
    }
    println!(
        "node-node columns are constant in P (error independent of rank \
         count); atom-based columns drift with P — the paper's argument \
         for node-based division"
    );
}
