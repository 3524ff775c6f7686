//! Figure 10 — % error (avg ± std over the suite) and running time as the
//! E_pol approximation parameter sweeps 0.1 → 0.9 (Born ε fixed at 0.9,
//! approximate math OFF — the paper's setup).
//!
//! Times here are *measured wall-clock* of the real serial solver on this
//! host (this figure needs no cluster). Expected shape: error grows and
//! time falls monotonically with ε; for small molecules time barely moves.

use polar_bench::zdock_spread;
use polar_bench::{build_solver, fmt_secs, Scale, Table};
use polar_gb::metrics::{mean_std, percent_diff};
use polar_gb::{GbParams, LeafEval};
use std::time::Instant;

fn main() {
    let scale = Scale::from_env();
    let suite: Vec<_> = zdock_spread(scale.zdock_count)
        .into_iter()
        .map(|m| build_solver(&m))
        .collect();

    // Per-molecule exact reference (naive-equivalent) and ε=0.9 Born radii.
    let exact = GbParams {
        eps_born: 1e-6,
        eps_epol: 1e-6,
        math: Default::default(),
        ..Default::default()
    };
    let refs: Vec<f64> = suite.iter().map(|s| s.solve(&exact).epol_kcal).collect();
    let borns: Vec<Vec<f64>> = suite
        .iter()
        .map(|s| s.born_radii(&GbParams::default()).0)
        .collect();

    let mut t = Table::new(
        "fig10_epsilon_tradeoff",
        &[
            "eps_epol",
            "err% avg",
            "err% std",
            "total epol time",
            "pair ops",
        ],
    );
    for k in 1..=9 {
        let eps = k as f64 * 0.1;
        let params = GbParams {
            eps_epol: eps,
            ..GbParams::default()
        };
        let mut errors = Vec::with_capacity(suite.len());
        let mut pair_ops = 0u64;
        let start = Instant::now();
        for ((solver, born), reference) in suite.iter().zip(&borns).zip(&refs) {
            let (e, w) = solver.epol(born, &params);
            errors.push(percent_diff(e, *reference));
            pair_ops += w.pair_ops;
        }
        let elapsed = start.elapsed().as_secs_f64();
        let (avg, std) = mean_std(&errors);
        t.row(vec![
            format!("{eps:.1}"),
            format!("{avg:+.4}"),
            format!("{std:.4}"),
            fmt_secs(elapsed),
            pair_ops.to_string(),
        ]);
    }
    t.emit();
    if let Some(largest) = suite.last() {
        polar_bench::maybe_write_report("fig10_epsilon_tradeoff", || {
            let (_, report) = largest
                .solve_report(LeafEval::Traverse, &GbParams::default(), None)
                .expect("the traversal has no plan to mismatch");
            report
        });
    }
    println!(
        "suite: {} molecules; Born eps fixed at 0.9; approximate math off \
         (see abl_fastmath for the on/off comparison)",
        suite.len()
    );
}
