//! Configuration of the distributed driver, and its fault-free contracts.
//!
//! `OCT_MPI` is `P` ranks × 1 thread; `OCT_MPI+CILK` is `P` ranks × `p`
//! work-stealing threads. Both run through
//! [`run_distributed_ft`](crate::recovery::run_distributed_ft), the one
//! replicated-data driver; the tests here pin what it promises when no
//! fault is scheduled.

use crate::network::NetworkModel;
use polar_gb::GbParams;

/// Configuration of a distributed run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistributedConfig {
    /// Number of MPI-style ranks (`P`).
    pub ranks: usize,
    /// Threads inside each rank (`p`): 1 ⇒ `OCT_MPI`, >1 ⇒ `OCT_MPI+CILK`.
    pub threads_per_rank: usize,
    /// Solver approximation parameters.
    pub params: GbParams,
    /// Interconnect model for simulated communication time.
    pub network: NetworkModel,
    /// Execute a pre-built [`polar_gb::InteractionPlan`]'s flat lists
    /// instead of the recursive traversals (rank *i* takes segment *i*
    /// of the plan's leaf lists). The plan is built once, before the
    /// ranks spawn, and counts toward each rank's replicated memory.
    pub use_plan: bool,
}

impl DistributedConfig {
    /// Pure distributed (`OCT_MPI`): one thread per rank.
    pub fn oct_mpi(ranks: usize, params: GbParams) -> Self {
        DistributedConfig {
            ranks,
            threads_per_rank: 1,
            params,
            network: NetworkModel::lonestar4_infiniband(),
            use_plan: false,
        }
    }

    /// Hybrid (`OCT_MPI+CILK`): `ranks` processes of `threads` workers.
    pub fn oct_mpi_cilk(ranks: usize, threads: usize, params: GbParams) -> Self {
        DistributedConfig {
            ranks,
            threads_per_rank: threads,
            params,
            network: NetworkModel::lonestar4_infiniband(),
            use_plan: false,
        }
    }

    /// Total parallelism `P·p` (the paper compares configurations at equal
    /// core counts).
    pub fn total_cores(&self) -> usize {
        self.ranks * self.threads_per_rank
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultSpec;
    use crate::recovery::{run_distributed_ft, FtDistributedRun};
    use polar_gb::{GbSolver, LeafEval};
    use polar_molecule::generators;
    use polar_octree::OctreeConfig;
    use polar_surface::SurfaceConfig;

    fn solver(n: usize, seed: u64) -> GbSolver {
        let mol = generators::globular("d", n, seed);
        GbSolver::for_molecule(&mol, &SurfaceConfig::coarse(), &OctreeConfig::default())
    }

    fn fault_free(s: &GbSolver, cfg: &DistributedConfig) -> FtDistributedRun {
        run_distributed_ft(s, cfg, &FaultSpec::none()).expect("no faults injected")
    }

    #[test]
    fn distributed_matches_serial_octree_solve() {
        let s = solver(300, 21);
        let p = GbParams::default();
        let serial = s.solve(&p);
        for (ranks, threads) in [(1, 1), (2, 1), (4, 1), (2, 3), (3, 2)] {
            let run = fault_free(
                &s,
                &DistributedConfig {
                    ranks,
                    threads_per_rank: threads,
                    params: p,
                    network: NetworkModel::lonestar4_infiniband(),
                    use_plan: false,
                },
            );
            assert!(
                (run.epol_kcal - serial.epol_kcal).abs() <= 1e-9 * serial.epol_kcal.abs(),
                "P={ranks} p={threads}: {} vs {}",
                run.epol_kcal,
                serial.epol_kcal
            );
            for (a, b) in run.born.iter().zip(&serial.born) {
                assert!((a - b).abs() <= 1e-9 * b.abs().max(1.0));
            }
        }
    }

    #[test]
    fn node_based_division_keeps_result_independent_of_rank_count() {
        // The paper's key argument for node–node division (§IV.A): the
        // energy (hence the error) does not change with P.
        let s = solver(250, 22);
        let p = GbParams::default();
        let mut energies = Vec::new();
        for ranks in [1, 2, 3, 5] {
            let run = fault_free(&s, &DistributedConfig::oct_mpi(ranks, p));
            energies.push(run.epol_kcal);
        }
        for w in energies.windows(2) {
            assert!((w[0] - w[1]).abs() <= 1e-9 * w[0].abs(), "{w:?}");
        }
    }

    #[test]
    fn hybrid_replicates_fewer_copies_than_pure_mpi_at_equal_cores() {
        // 6 cores as 6×1 (pure MPI) vs 2×3 (hybrid): memory ratio = 3.
        let s = solver(200, 23);
        let p = GbParams::default();
        let pure = fault_free(&s, &DistributedConfig::oct_mpi(6, p));
        let hybrid = fault_free(&s, &DistributedConfig::oct_mpi_cilk(2, 3, p));
        assert_eq!(
            pure.total_replicated_bytes,
            3 * hybrid.total_replicated_bytes
        );
    }

    #[test]
    fn more_ranks_cost_more_communication() {
        let s = solver(200, 24);
        let p = GbParams::default();
        let r2 = fault_free(&s, &DistributedConfig::oct_mpi(2, p));
        let r6 = fault_free(&s, &DistributedConfig::oct_mpi(6, p));
        let c2: f64 = r2.per_rank_comm_seconds.iter().sum();
        let c6: f64 = r6.per_rank_comm_seconds.iter().sum();
        assert!(c6 > c2, "{c6} vs {c2}");
        assert!(r2.per_rank_comm_seconds.iter().all(|&t| t > 0.0));
    }

    #[test]
    fn work_is_distributed_across_ranks() {
        let s = solver(400, 25);
        let p = GbParams::default();
        let run = fault_free(&s, &DistributedConfig::oct_mpi(4, p));
        let per_rank_work: Vec<_> = run
            .per_rank_work_born
            .iter()
            .zip(&run.per_rank_work_epol)
            .map(|(&b, &e)| b + e)
            .collect();
        let total: u64 = per_rank_work.iter().map(|w| w.pair_ops).sum();
        assert!(total > 0);
        for w in &per_rank_work {
            // No rank is idle; none does everything.
            assert!(w.pair_ops > 0);
            assert!(w.pair_ops < total);
        }
    }

    #[test]
    fn reports_agree_across_serial_parallel_and_mpi() {
        // The acceptance invariant of the observability layer: the same
        // molecule at the same ε reports *identical* stage WorkCounts
        // from the serial solver, the work-stealing parallel solver, and
        // every distributed configuration.
        let s = solver(250, 27);
        let p = GbParams::default();
        let (_, serial) = s.solve_report(LeafEval::Traverse, &p, None).unwrap();
        let (_, parallel) = s.solve_report(LeafEval::Traverse, &p, Some(3)).unwrap();
        assert_eq!(serial.stage("born").work, parallel.stage("born").work);
        assert_eq!(serial.stage("epol").work, parallel.stage("epol").work);
        for (ranks, threads) in [(1, 1), (3, 1), (2, 2)] {
            let cfg = DistributedConfig {
                ranks,
                threads_per_rank: threads,
                params: p,
                network: NetworkModel::lonestar4_infiniband(),
                use_plan: false,
            };
            let run = fault_free(&s, &cfg);
            let rep = run.report(&s, &cfg);
            assert_eq!(
                rep.stage("born").work,
                serial.stage("born").work,
                "P={ranks} p={threads}"
            );
            assert_eq!(
                rep.stage("epol").work,
                serial.stage("epol").work,
                "P={ranks} p={threads}"
            );
            assert_eq!(
                rep.mode,
                if threads == 1 {
                    "oct_mpi"
                } else {
                    "oct_mpi_cilk"
                }
            );
            let comm = rep.comm.expect("distributed report has a comm section");
            assert_eq!(comm.ranks, ranks);
            if ranks > 1 {
                assert!(comm.sim_seconds > 0.0);
                assert!(comm.bytes_sent > 0);
            }
            assert_eq!(rep.steal.is_some(), threads > 1);
            assert!(rep.fault.is_none(), "no faults scheduled, no fault section");
            // Reports serialize without panicking and round out the row.
            assert!(rep.to_json().contains("\"mode\""));
            // Recursive distributed runs always report strict arithmetic.
            assert_eq!(rep.kernel_mode, "strict");
            assert_eq!(rep.to_csv_row().split(',').count(), 42);
        }
    }

    #[test]
    fn planned_distributed_matches_recursive_distributed() {
        // Executing plan segments per rank in strict-fp mode must
        // reproduce the recursive drivers: Born radii bitwise (same
        // accumulation order), energy to machine precision, and the
        // report carries the plan section.
        let s = solver(300, 28);
        let p = GbParams {
            kernel: polar_gb::KernelMode::Strict,
            ..GbParams::default()
        };
        let serial = s.solve(&p);
        for (ranks, threads) in [(1, 1), (3, 1), (2, 2)] {
            let mut cfg = DistributedConfig::oct_mpi_cilk(ranks, threads, p);
            cfg.use_plan = true;
            let run = fault_free(&s, &cfg);
            if ranks == 1 {
                // One rank replays the serial accumulation order exactly.
                assert_eq!(run.born, serial.born, "p={threads}");
            } else {
                // The allreduce sums rank partials in a different order
                // than the serial sweep — ulp-level, not bitwise.
                for (a, b) in run.born.iter().zip(&serial.born) {
                    assert!(
                        (a - b).abs() <= 1e-12 * b.abs().max(1.0),
                        "P={ranks} p={threads}: {a} vs {b}"
                    );
                }
            }
            assert!(
                (run.epol_kcal - serial.epol_kcal).abs() <= 1e-12 * serial.epol_kcal.abs(),
                "P={ranks} p={threads}: {} vs {}",
                run.epol_kcal,
                serial.epol_kcal
            );
            let rep = run.report(&s, &cfg);
            let plan = rep.plan.expect("planned run reports list stats");
            assert!(plan.born_near_entries > 0 && plan.plan_bytes > 0);
            // The plan's flat lists count as replicated bytes on top of
            // the octrees themselves.
            let mut base = cfg;
            base.use_plan = false;
            let recursive = fault_free(&s, &base);
            assert!(run.total_replicated_bytes > recursive.total_replicated_bytes);
            // Executing lists re-visits no tree nodes.
            assert_eq!(run.total_work_born().nodes_visited, 0);
            assert_eq!(rep.kernel_mode, "strict");
            assert_eq!(rep.to_csv_row().split(',').count(), 42);
        }
    }

    #[test]
    fn lane_planned_distributed_tracks_recursive_to_machine_precision() {
        // Default (lane) kernels across the rank universe: the vector
        // near-field re-associates, so Born radii agree to ulp grade and
        // E_pol within the 1e-12 lane contract; the report says "lane".
        let s = solver(300, 28);
        let p = GbParams::default();
        let serial = s.solve(&p);
        for (ranks, threads) in [(1, 1), (3, 1), (2, 2)] {
            let mut cfg = DistributedConfig::oct_mpi_cilk(ranks, threads, p);
            cfg.use_plan = true;
            let run = fault_free(&s, &cfg);
            for (a, b) in run.born.iter().zip(&serial.born) {
                assert!(
                    (a - b).abs() <= 1e-11 * b.abs().max(1.0),
                    "P={ranks} p={threads}: {a} vs {b}"
                );
            }
            assert!(
                (run.epol_kcal - serial.epol_kcal).abs() <= 1e-12 * serial.epol_kcal.abs(),
                "P={ranks} p={threads}: {} vs {}",
                run.epol_kcal,
                serial.epol_kcal
            );
            let rep = run.report(&s, &cfg);
            assert_eq!(rep.kernel_mode, "lane");
        }
    }

    #[test]
    fn single_rank_single_thread_equals_serial_counts() {
        let s = solver(150, 26);
        let p = GbParams::default();
        let serial = s.solve(&p);
        let run = fault_free(&s, &DistributedConfig::oct_mpi(1, p));
        assert_eq!(run.per_rank_work_born, vec![serial.work_born]);
        assert_eq!(run.per_rank_work_epol, vec![serial.work_epol]);
    }
}
