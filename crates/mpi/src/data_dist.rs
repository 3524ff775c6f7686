//! Data-distributed driver — the paper's future-work direction.
//!
//! §IV.A: "There are basically two ways of load balancing …: distribute
//! only the work/computation (each process will have all the data), \[or\]
//! distribute both the data and work evenly among the processes." The
//! paper implements only the first and names the second as future work
//! (§VI: "Distributing data as well as computation is also an interesting
//! approach to explore"). This module explores it.
//!
//! The surface quadrature points dominate the replicated footprint (the
//! paper's inputs have 3–25× more q-points than atoms), and the Born
//! traversal is *decomposable over q-points*: the integral accumulators
//! are sums of per-q-point contributions, so any partition of `Q` works.
//! Here each rank:
//!
//! 1. owns only its contiguous Morton segment of the quadrature points
//!    (1/P of the dominant array — this is real distribution: the rank
//!    clones just its slice and builds its own local `T_Q` over it),
//! 2. runs `APPROX-INTEGRALS` of its local tree against the (still
//!    replicated, much smaller) atoms octree,
//! 3. joins the usual Allreduce/push/energy pipeline of Fig. 4 — the
//!    shared stages of [`polar_gb::eval`], as the replicated driver runs
//!    them.
//!
//! The far-field grouping differs from the shared-tree traversal (each
//! rank's local octree has its own leaves), so the result is not
//! bit-identical across P — but it stays within the same ε error class,
//! which the tests check. Memory drops from `P × (atoms + qpoints)` to
//! `P × atoms + qpoints`.

use crate::comm::{Comm, CommError, Universe};
use crate::drivers::DistributedConfig;
use crate::recovery::{allreduce_born, concat_steal, rank_chunks};
use polar_gb::born::octree::{BornOctreeCtx, BornPartials};
use polar_gb::energy::octree::EpolBuffers;
use polar_gb::eval::{born_stage, epol_ctx, epol_stage, push_stage, unslot, Local};
use polar_gb::partition::even_segments;
use polar_gb::{GbSolver, LeafEval, WorkCounts};
use polar_octree::OctreeConfig;
use polar_runtime::StealStats;
use polar_surface::QuadPoint;

/// Result of a data-distributed run.
#[derive(Debug, Clone)]
pub struct DataDistributedRun {
    pub epol_kcal: f64,
    pub born: Vec<f64>,
    /// Total bytes held across all ranks (atoms replicated, q-points
    /// partitioned).
    pub total_bytes: u64,
    /// What the same rank count would replicate under the paper's
    /// work-only distribution (for the comparison table).
    pub work_only_bytes: u64,
    pub per_rank_work: Vec<WorkCounts>,
    /// Steal counters concatenated over the per-rank pools (`None` when
    /// ranks run one thread).
    pub steal: Option<StealStats>,
}

/// Fig. 4 with a partitioned quadrature set (work **and** data division).
///
/// Born and energy chunks run on `threads_per_rank` work-stealing threads
/// (`threads × 4` chunks), the push inline. The collectives are the
/// fault-aware ones of [`Comm`], but no faults are armed: a rank's
/// q-point share cannot be re-divided without regrouping the far field,
/// so a collective that reports an absent rank ends the run with
/// [`CommError::Crashed`] naming it, not a recovery.
pub fn run_data_distributed(
    solver: &GbSolver,
    cfg: &DistributedConfig,
) -> Result<DataDistributedRun, CommError> {
    assert!(cfg.ranks >= 1 && cfg.threads_per_rank >= 1);
    let p = cfg.params;
    let n_atoms = solver.n_atoms();
    let n_q = solver.n_qpoints();
    let threads = cfg.threads_per_rank;
    // Partition q-points by Morton slot (contiguous in space thanks to
    // the global tree's ordering) — each rank's share is geometrically
    // compact, which keeps its local octree shallow.
    let slot_segs = even_segments(n_q, cfg.ranks);
    let atom_segs = even_segments(n_atoms, cfg.ranks);
    let aleaf_segs = even_segments(solver.tree_a.leaves().len(), cfg.ranks);

    struct RankOut {
        epol: f64,
        born: Vec<f64>,
        bytes: u64,
        work: WorkCounts,
        steal: Option<StealStats>,
    }

    let outs: Vec<Result<RankOut, CommError>> = Universe::run(cfg.ranks, cfg.network, |comm| {
        let rank = comm.rank();
        let pool = &mut Local::new((threads > 1).then_some(threads));

        // --- Data distribution: own only this rank's q-point slice. ---
        let my_qpoints: Vec<QuadPoint> = slot_segs[rank]
            .clone()
            .map(|slot| solver.qpoints[solver.tree_q.order()[slot] as usize])
            .collect();
        let qpos: Vec<_> = my_qpoints.iter().map(|q| q.pos).collect();
        let local_tq = OctreeConfig::default().build(&qpos);
        let local_nsum = BornOctreeCtx::q_normal_sums(&local_tq, &my_qpoints);
        let local_dipole = BornOctreeCtx::q_dipole_moments(&local_tq, &my_qpoints, &local_nsum);
        // Resident bytes: replicated atom-side data + owned q share.
        let atom_side = n_atoms * (24 + 8 + 8) + solver.tree_a.memory_bytes();
        let q_side = my_qpoints.len() * std::mem::size_of::<QuadPoint>() + local_tq.memory_bytes();
        comm.register_replicated_memory(atom_side + q_side);

        // --- Step 2: integrals from this rank's own quadrature data. ---
        let ctx = BornOctreeCtx {
            tree_a: &solver.tree_a,
            tree_q: &local_tq,
            qpoints: &my_qpoints,
            q_nsum: &local_nsum,
            q_dipole: &local_dipole,
            atom_radii: &solver.atom_radii,
        };
        let chunks = rank_chunks(&even_segments(local_tq.leaves().len(), 1), threads, false);
        let mut partials = BornPartials::zeros(&solver.tree_a);
        let Ok(mut work) = born_stage(LeafEval::Traverse, &ctx, &p, &chunks, pool, &mut partials);

        // --- Steps 3–5: identical to Fig. 4. ---
        let (totals, absent) = allreduce_born(comm, partials)?;
        all_present(comm, &absent, "born_allreduce")?;
        let (mine, inline) = (atom_segs[rank].clone(), &mut Local::new(None));
        let mut vals = vec![0.0; mine.len()];
        // Push reads only the atom side of `ctx`.
        let Ok(()) = push_stage(&ctx, &totals, p.math, &[mine], inline, &mut vals);
        let (per_rank, absent) = comm.ft_allgather(&vals, "born_allgather")?;
        all_present(comm, &absent, "born_allgather")?;
        let mut born = vec![0.0; n_atoms];
        unslot(&solver.tree_a, &per_rank.concat(), &mut born);

        // --- Steps 6–7: energy (atom data is replicated as before). ---
        let ectx = epol_ctx(solver, &born, &p, EpolBuffers::default());
        let chunks = rank_chunks(&[aleaf_segs[rank].clone()], threads, false);
        // The traversal reads the radii through `ectx`: no slot copy.
        let Ok((e_part, w)) = epol_stage(LeafEval::Traverse, &ectx, &[], &p, &chunks, pool);
        work.accumulate(w);
        let (epol, absent) = comm.ft_allreduce_scalar(e_part, "epol_allreduce")?;
        all_present(comm, &absent, "epol_allreduce")?;
        Ok(RankOut {
            epol,
            born,
            bytes: comm.replicated_bytes(),
            work,
            steal: pool.steal.take(),
        })
    });
    let outs = outs.into_iter().collect::<Result<Vec<_>, _>>()?;

    Ok(DataDistributedRun {
        epol_kcal: outs[0].epol,
        born: outs[0].born.clone(),
        total_bytes: outs.iter().map(|o| o.bytes).sum(),
        work_only_bytes: (solver.memory_bytes() * cfg.ranks) as u64,
        per_rank_work: outs.iter().map(|o| o.work).collect(),
        steal: concat_steal(outs.iter().map(|o| o.steal.as_ref())),
    })
}

/// Any absent rank ends the run: its q-point share has no other owner.
fn all_present(comm: &Comm, absent: &[usize], collective: &str) -> Result<(), CommError> {
    match absent.first() {
        None => Ok(()),
        Some(&rank) => Err(CommError::Crashed {
            rank,
            at_collective: comm.collectives_entered(),
            reason: format!("absent from {collective}; its q-point share cannot be re-divided"),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polar_gb::GbParams;
    use polar_molecule::generators;
    use polar_surface::SurfaceConfig;

    fn solver(n: usize, seed: u64) -> GbSolver {
        let mol = generators::globular("dd", n, seed);
        GbSolver::for_molecule(&mol, &SurfaceConfig::coarse(), &OctreeConfig::default())
    }

    #[test]
    fn data_distributed_energy_stays_in_the_error_class() {
        let s = solver(400, 31);
        let p = GbParams::default();
        let serial = s.solve(&p).epol_kcal;
        for ranks in [1usize, 2, 5] {
            let run = run_data_distributed(&s, &DistributedConfig::oct_mpi(ranks, p)).unwrap();
            let rel = ((run.epol_kcal - serial) / serial).abs();
            // Different q-partitions regroup the far field; the ε-class
            // error bound still applies.
            assert!(
                rel < 5e-3,
                "P={ranks}: {} vs {serial} (rel {rel})",
                run.epol_kcal
            );
        }
    }

    #[test]
    fn single_rank_matches_serial_closely() {
        // One rank owns all q-points; only octree construction details
        // (its own T_Q) differ from the solver's shared tree.
        let s = solver(300, 32);
        let p = GbParams::default();
        let serial = s.solve(&p).epol_kcal;
        let run = run_data_distributed(&s, &DistributedConfig::oct_mpi(1, p)).unwrap();
        assert!(((run.epol_kcal - serial) / serial).abs() < 1e-3);
    }

    #[test]
    fn data_distribution_saves_memory_vs_work_only() {
        let s = solver(300, 33);
        let p = GbParams::default();
        let run = run_data_distributed(&s, &DistributedConfig::oct_mpi(6, p)).unwrap();
        // Work-only replicates the q-points 6×; data-distributed holds
        // each q-point once. With q-points dominating, the saving is big.
        assert!(
            (run.total_bytes as f64) < 0.5 * run.work_only_bytes as f64,
            "data-dist {} vs work-only {}",
            run.total_bytes,
            run.work_only_bytes
        );
    }

    #[test]
    fn every_rank_does_born_work() {
        let s = solver(400, 34);
        let p = GbParams::default();
        let run = run_data_distributed(&s, &DistributedConfig::oct_mpi(4, p)).unwrap();
        for w in &run.per_rank_work {
            assert!(w.pair_ops > 0);
        }
    }

    #[test]
    fn threads_per_rank_run_the_born_and_energy_chunks_on_a_pool() {
        let s = solver(400, 35);
        let p = GbParams::default();
        let serial = run_data_distributed(&s, &DistributedConfig::oct_mpi_cilk(2, 1, p)).unwrap();
        let hybrid = run_data_distributed(&s, &DistributedConfig::oct_mpi_cilk(2, 2, p)).unwrap();
        // Same local trees and the same terms, summed in chunk order.
        assert!(
            (hybrid.epol_kcal - serial.epol_kcal).abs() <= 1e-12 * serial.epol_kcal.abs(),
            "{} vs {}",
            hybrid.epol_kcal,
            serial.epol_kcal
        );
        assert_eq!(hybrid.per_rank_work, serial.per_rank_work);
        assert!(serial.steal.is_none());
        let steal = hybrid.steal.expect("two threads per rank run a pool");
        assert_eq!(steal.executed.len(), 4, "2 ranks × 2 workers");
        assert!(steal.total_executed() > 0);
    }
}
