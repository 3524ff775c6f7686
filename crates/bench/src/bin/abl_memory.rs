//! Ablation — replicated memory: pure MPI vs hybrid (paper §V.B).
//!
//! Paper anchor: on one BTV node, 12 × 1 processes used 8.2 GB while
//! 2 × 6 used 1.4 GB — a 5.86× ratio that "continues to hold as we
//! increase the number of compute nodes".

use polar_bench::{build_solver, fmt_bytes, Scale, Table};
use polar_gb::GbParams;
use polar_molecule::registry::BenchmarkId;
use polar_mpi::{
    data_dist::run_data_distributed, run_distributed_ft, DistributedConfig, FaultSpec,
};

fn main() {
    let scale = Scale::from_env();
    let mol = BenchmarkId::Btv {
        scale_permille: scale.btv_permille,
    }
    .build();
    let solver = build_solver(&mol);
    let params = GbParams::default();

    let mut t = Table::new(
        "abl_memory",
        &[
            "layout",
            "ranks",
            "threads",
            "replicated bytes (1 node)",
            "ratio vs hybrid",
        ],
    );
    // Real distributed runs with memory accounting (the in-process ranks
    // register exactly what an MPI process would have to copy).
    let run = |cfg| run_distributed_ft(&solver, &cfg, &FaultSpec::none()).expect("no faults");
    let hybrid = run(DistributedConfig::oct_mpi_cilk(2, 6, params));
    let pure = run(DistributedConfig::oct_mpi(12, params));
    let ratio = pure.total_replicated_bytes as f64 / hybrid.total_replicated_bytes as f64;
    t.row(vec![
        "OCT_MPI+CILK".into(),
        "2".into(),
        "6".into(),
        fmt_bytes(hybrid.total_replicated_bytes as f64),
        "1.00".into(),
    ]);
    t.row(vec![
        "OCT_MPI".into(),
        "12".into(),
        "1".into(),
        fmt_bytes(pure.total_replicated_bytes as f64),
        format!("{ratio:.2}"),
    ]);
    // Future work (§VI): distributing data as well as computation —
    // q-points partitioned instead of replicated.
    let dd = run_data_distributed(&solver, &DistributedConfig::oct_mpi(12, params))
        .expect("no faults are armed");
    t.row(vec![
        "OCT_MPI+data-dist".into(),
        "12".into(),
        "1".into(),
        fmt_bytes(dd.total_bytes as f64),
        format!(
            "{:.2}",
            dd.total_bytes as f64 / hybrid.total_replicated_bytes as f64
        ),
    ]);
    t.emit();
    println!(
        "data distribution (paper's future work) at 12 ranks: {} vs {} \
         work-only ({}x saving); energy {:.4e} vs {:.4e} (rel diff {:.2e})",
        fmt_bytes(dd.total_bytes as f64),
        fmt_bytes(dd.work_only_bytes as f64),
        dd.work_only_bytes as f64 / dd.total_bytes as f64,
        dd.epol_kcal,
        pure.epol_kcal,
        ((dd.epol_kcal - pure.epol_kcal) / pure.epol_kcal).abs(),
    );
    println!(
        "paper: 8.2 GB vs 1.4 GB (5.86x) on the full 6M-atom BTV; the ratio \
         is exactly ranks_pure/ranks_hybrid = 6 for pure replication \
         (the paper's 5.86 includes non-replicated overheads)"
    );
    println!(
        "both layouts computed E_pol = {:.6e} (identical, as required)",
        pure.epol_kcal
    );
    assert!((pure.epol_kcal - hybrid.epol_kcal).abs() <= 1e-9 * pure.epol_kcal.abs());
}
