//! The replicated-data distributed driver — the paper's Fig. 4 algorithm
//! (`OCT_MPI`: `P` ranks × 1 thread; `OCT_MPI+CILK`: `P` ranks × `p`
//! work-stealing threads) with fault detection, re-division and recovery.
//!
//! Every rank holds the full octrees (and the plan's lists, when one
//! executes); memory is accounted per rank. [`run_distributed_ft`] then
//! runs three stages, each dividing its items statically over ranks
//! (node-based work division) and combining with one collective:
//!
//! * **born** — integrals over `T_Q` leaf segments, `allreduce`;
//! * **atoms** — `PUSH-INTEGRALS-TO-ATOMS` over atom segments,
//!   `allgather` of the Born radii;
//! * **epol** — energy over `T_A` leaf segments, scalar `allreduce`.
//!
//! The collectives are the fault-tolerant ones of [`Comm`]: each returns
//! the *absent set* — ranks that failed to contribute — and the driver
//! responds with a **round loop**:
//!
//! 1. round 0 computes the original `even_segments` division (plus the
//!    segments of ranks already known dead, re-divided over the living);
//! 2. the stage collective combines contributions and reports absentees;
//! 3. items assigned to newly-dead ranks are collected, re-divided over
//!    the survivors with `even_segments`, recomputed, and combined with
//!    a follow-up collective — repeating until a round loses nothing.
//!
//! Only lost work is re-executed: contributions that made it into a
//! collective are never recomputed. With no faults the round loop exits
//! after round 0, and one rank × one thread accumulates in the serial
//! solver's order, so that run equals [`GbSolver::solve`] bitwise. Inside
//! a rank, the born and epol stages are the shared ones of
//! [`polar_gb::eval`], their chunks running on
//! [`polar_runtime::run_batch_retry`], which isolates a panicking task
//! with `catch_unwind` and re-runs it; a pool that exhausts its retry
//! budget kills the whole rank (via [`Comm::ft_abort`]), an ordinary rank
//! death the survivors recover from. The atoms stage pushes inline. Every
//! injected fault, retry, re-division, and recovery lands in a
//! deterministic [`FaultReport`].

use crate::comm::{Comm, CommError, Universe};
use crate::drivers::DistributedConfig;
use crate::faults::FaultSpec;
use polar_gb::born::octree::BornPartials;
use polar_gb::energy::octree::EpolBuffers;
use polar_gb::eval::{born_stage, epol_ctx, epol_stage, push_stage, Local, Runner};
use polar_gb::partition::even_segments;
use polar_gb::report::{CommReport, FaultEvent, FaultReport, PlanReport, SolveReport, StealReport};
use polar_gb::{GbParams, GbSolver, KernelMode, LeafEval, WorkCounts};
use polar_runtime::{run_batch_retry, StealStats};
use std::ops::Range;

/// A distributed solve that could not complete.
#[derive(Debug, Clone)]
pub enum DistributedError {
    /// Every rank died before the pipeline finished; the report records
    /// what was injected and observed up to the end.
    AllRanksDead { ranks: usize, report: FaultReport },
}

impl std::fmt::Display for DistributedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistributedError::AllRanksDead { ranks, report } => write!(
                f,
                "all {ranks} ranks died before completing the solve \
                 (fault seed {}, {} crashes) — the schedule is not survivable",
                report.seed, report.crashes
            ),
        }
    }
}

impl std::error::Error for DistributedError {}

/// Result of a distributed run.
#[derive(Debug, Clone)]
pub struct FtDistributedRun {
    /// Final polarization energy (identical on every surviving rank).
    pub epol_kcal: f64,
    /// Born radii, original atom order — recovered holes included.
    pub born: Vec<f64>,
    /// Ranks alive at the end, ascending.
    pub survivors: Vec<usize>,
    /// The audit trail: everything injected, retried, and recovered.
    pub fault: FaultReport,
    /// Whether the run was given a schedule other than
    /// [`FaultSpec::none`]; only then does [`FtDistributedRun::report`]
    /// carry the fault section and the `_ft` mode suffix.
    pub faults_scheduled: bool,
    /// Simulated wire seconds per rank (dead ranks: up to their death).
    pub per_rank_comm_seconds: Vec<f64>,
    /// Payload bytes per rank.
    pub per_rank_bytes_sent: Vec<u64>,
    /// Replicated input bytes summed over ranks.
    pub total_replicated_bytes: u64,
    /// Born-stage wall seconds (slowest surviving rank).
    pub born_seconds: f64,
    /// Energy-stage wall seconds (slowest surviving rank).
    pub epol_seconds: f64,
    /// Born-stage work per rank (Steps 2–4); zero for ranks that died.
    pub per_rank_work_born: Vec<WorkCounts>,
    /// Energy-stage work per rank (Step 6); zero for ranks that died.
    pub per_rank_work_epol: Vec<WorkCounts>,
    /// Steal counters concatenated over the per-rank pools (`None` for
    /// pure `OCT_MPI`, whose ranks run one thread).
    pub steal: Option<StealStats>,
    /// Arithmetic the leaf evaluator ran (strict unless a plan executed).
    pub kernel_mode: KernelMode,
    /// Interaction-list statistics when the run executed a plan.
    pub plan_stats: Option<PlanReport>,
}

impl FtDistributedRun {
    /// Aggregate Born-stage work over ranks. Fault-free it is schedule-
    /// and `P`-independent: the serial solve's totals for the same
    /// molecule and ε.
    pub fn total_work_born(&self) -> WorkCounts {
        self.per_rank_work_born.iter().copied().sum()
    }

    /// Aggregate energy-stage work over ranks.
    pub fn total_work_epol(&self) -> WorkCounts {
        self.per_rank_work_epol.iter().copied().sum()
    }

    /// Build the structured [`SolveReport`]: stage rows with
    /// rank-aggregated work, the simulated-communication section, the
    /// hybrid pools' steal counters, and — when faults were scheduled —
    /// the fault section.
    pub fn report(&self, solver: &GbSolver, cfg: &DistributedConfig) -> SolveReport {
        let mode = match (cfg.threads_per_rank == 1, self.faults_scheduled) {
            (true, false) => "oct_mpi",
            (false, false) => "oct_mpi_cilk",
            (true, true) => "oct_mpi_ft",
            (false, true) => "oct_mpi_cilk_ft",
        };
        let mut report = solver.base_report(
            mode,
            self.kernel_mode,
            &cfg.params,
            self.epol_kcal,
            (self.born_seconds, self.total_work_born()),
            (self.epol_seconds, self.total_work_epol()),
        );
        report.steal = self.steal.as_ref().map(StealReport::from);
        report.comm = Some(CommReport {
            ranks: cfg.ranks,
            sim_seconds: self
                .per_rank_comm_seconds
                .iter()
                .cloned()
                .fold(0.0, f64::max),
            bytes_sent: self.per_rank_bytes_sent.iter().sum(),
            replicated_bytes: self.total_replicated_bytes,
        });
        report.plan = self.plan_stats;
        report.fault = self.faults_scheduled.then(|| self.fault.clone());
        report
    }
}

/// Cut a run list into `parts` pieces holding near-equal numbers of items
/// (`even_segments` over the flattened items), each piece a list of
/// maximal runs: a fault-free piece is one range, which a single rank
/// and thread evaluates in the serial solver's order.
fn split_runs(runs: &[Range<usize>], parts: usize) -> Vec<Vec<Range<usize>>> {
    let mut items = runs.iter().flat_map(|r| r.clone());
    even_segments(count(runs), parts)
        .into_iter()
        .map(|share| {
            let mut piece: Vec<Range<usize>> = Vec::new();
            for i in items.by_ref().take(share.len()) {
                match piece.last_mut() {
                    Some(run) if run.end == i => run.end += 1,
                    _ => piece.push(i..i + 1),
                }
            }
            piece
        })
        .collect()
}

fn count(runs: &[Range<usize>]) -> usize {
    runs.iter().map(|r| r.len()).sum()
}

/// Split a rank's item runs into pool chunks: `threads × 4` for
/// intra-rank dynamic balancing, or a single chunk on the serial path —
/// unless a panic is scheduled there, in which case the runs are still
/// chunked so the poisoned task is a proper retry unit.
pub(crate) fn rank_chunks(
    runs: &[Range<usize>],
    threads: usize,
    poisoned: bool,
) -> Vec<Vec<Range<usize>>> {
    let n_chunks = match (threads > 1, poisoned) {
        (true, _) => threads * 4,
        (false, true) => 4,
        (false, false) => 1,
    };
    split_runs(runs, n_chunks.min(count(runs)).max(1))
}

/// Does the spec poison a task of (rank, stage)? Returns the poisoned
/// task index (pre-modulo) and how many attempts panic.
fn poison_for(spec: &FaultSpec, rank: usize, stage: &str) -> Option<(usize, u32)> {
    spec.worker_panics
        .iter()
        .find(|w| w.rank == rank && w.stage == stage)
        .map(|w| (w.task_index, w.panics))
}

/// Allreduce Born partials as one flat vector (node sums, then atom
/// slots); returns the sums and the absent set.
pub(crate) fn allreduce_born(
    comm: &mut Comm,
    part: BornPartials,
) -> Result<(BornPartials, Vec<usize>), CommError> {
    let (mut s_node, s_atom) = (part.s_node, part.s_atom);
    let n_nodes = s_node.len();
    s_node.extend_from_slice(&s_atom);
    let absent = comm.ft_allreduce_sum(&mut s_node, "born_allreduce")?;
    let s_atom = s_node.split_off(n_nodes);
    Ok((BornPartials { s_node, s_atom }, absent))
}

/// Concatenate per-rank pools' steal counters (disjoint workers).
pub(crate) fn concat_steal<'s>(
    per_rank: impl Iterator<Item = Option<&'s StealStats>>,
) -> Option<StealStats> {
    per_rank.flatten().fold(None, |acc, s| {
        let mut acc: StealStats = acc.unwrap_or_default();
        acc.concat(s);
        Some(acc)
    })
}

/// One rank's side of the driver: its communicator, its panic-isolated
/// worker pool — the stages' [`Runner`] — and its fault bookkeeping.
struct Rank<'a> {
    comm: &'a mut Comm,
    spec: &'a FaultSpec,
    threads: usize,
    /// The stage whose chunks the pool runs.
    stage: &'static str,
    known_dead: Vec<usize>,
    redivisions: u64,
    recovered: u64,
    retries: u64,
    events: Vec<FaultEvent>,
    /// Merged scheduler counters (`None` while the rank runs one thread).
    steal: Option<StealStats>,
}

impl<'a> Rank<'a> {
    fn new(comm: &'a mut Comm, spec: &'a FaultSpec, threads: usize) -> Rank<'a> {
        Rank {
            comm,
            spec,
            threads,
            stage: "",
            known_dead: Vec::new(),
            redivisions: 0,
            recovered: 0,
            retries: 0,
            events: Vec::new(),
            steal: None,
        }
    }

    /// This stage's pool chunks for `runs`.
    fn chunks(&self, runs: &[Range<usize>]) -> Vec<Vec<Range<usize>>> {
        let poisoned = poison_for(self.spec, self.comm.rank(), self.stage).is_some();
        rank_chunks(runs, self.threads, poisoned)
    }

    /// The round loop shared by all three stages: divide, compute, combine,
    /// detect absences, re-divide the lost items over the survivors, repeat.
    ///
    /// `compute` maps this rank's item runs to a local contribution (on
    /// the rank's pool); `exchange` runs the stage collective, folds the
    /// combined result into stage state, and returns the absent set. It
    /// also sees every live rank's item assignment — the deterministic
    /// map that lets all survivors agree on what a dead rank was
    /// computing.
    fn rounds<T>(
        &mut self,
        stage: &'static str,
        segs: &[Range<usize>],
        mut compute: impl FnMut(&mut Self, &[Range<usize>]) -> Result<T, CommError>,
        mut exchange: impl FnMut(
            &mut Comm,
            T,
            &[usize],
            &[Vec<Range<usize>>],
        ) -> Result<Vec<usize>, CommError>,
    ) -> Result<(), CommError> {
        self.stage = stage;
        // Items owned by ranks that died in earlier stages are lost before
        // the stage starts: they join round 0's re-division.
        let mut lost: Vec<Range<usize>> =
            self.known_dead.iter().map(|&q| segs[q].clone()).collect();
        for round in 0.. {
            if count(&lost) > 0 {
                self.redivisions += 1;
                self.recovered += count(&lost) as u64;
            }
            let live: Vec<usize> = (0..self.comm.size())
                .filter(|r| !self.known_dead.contains(r))
                .collect();
            let assignments: Vec<Vec<Range<usize>>> = live
                .iter()
                .zip(split_runs(&lost, live.len()))
                .map(|(&q, share)| {
                    let own = (round == 0).then(|| segs[q].clone());
                    own.into_iter().chain(share).collect()
                })
                .collect();
            let rank = self.comm.rank();
            let mine = live.iter().position(|&r| r == rank);
            let local = compute(self, &assignments[mine.expect("a running rank is alive")])?;
            let absent = exchange(self.comm, local, &live, &assignments)?;
            lost.clear();
            for (q, assigned) in live.iter().zip(&assignments) {
                if absent.contains(q) {
                    self.known_dead.push(*q);
                    lost.extend(assigned.iter().cloned());
                }
            }
            self.known_dead.sort_unstable();
            lost.sort_unstable_by_key(|r| r.start);
            if count(&lost) == 0 {
                break;
            }
        }
        Ok(())
    }

    /// Fig. 4 on this rank: the born, atoms and epol stages, each under
    /// the round loop with its own collective.
    fn pipeline(
        &mut self,
        solver: &GbSolver,
        eval: LeafEval<'_>,
        p: &GbParams,
        [qleaf_segs, atom_segs, aleaf_segs]: [&[Range<usize>]; 3],
    ) -> Result<RankGood, CommError> {
        let ctx = solver.born_ctx();
        // ---- Stage "born": steps 2–3, round loop over q-leaves.
        let t_born = std::time::Instant::now();
        let mut work_born = WorkCounts::ZERO;
        let mut totals = BornPartials::zeros(&solver.tree_a);
        self.rounds(
            "born",
            qleaf_segs,
            |rank, runs| {
                let mut part = BornPartials::zeros(&solver.tree_a);
                let chunks = rank.chunks(runs);
                work_born.accumulate(born_stage(eval, &ctx, p, &chunks, rank, &mut part)?);
                Ok(part)
            },
            |comm, part, _live, _assignments| {
                let (sums, absent) = allreduce_born(comm, part)?;
                totals.add(&sums);
                Ok(absent)
            },
        )?;

        // ---- Stage "atoms": steps 4–5, round loop over atom slots.
        let mut born = vec![0.0; solver.n_atoms()];
        let order = solver.tree_a.order();
        self.rounds(
            "atoms",
            atom_segs,
            |_rank, runs| {
                // Slot order on the wire, original order in memory.
                let mut vals = vec![0.0; count(runs)];
                let inline = &mut Local::new(None);
                let Ok(()) = push_stage(&ctx, &totals, p.math, runs, inline, &mut vals);
                Ok(vals)
            },
            |comm, vals, live, assignments| {
                let (per_rank, absent) = comm.ft_allgather(&vals, "born_allgather")?;
                // Every survivor reconstructs each contributor's slot
                // list from the shared deterministic assignment and
                // fills its copy of the Born array identically.
                for (q, assigned) in live.iter().zip(assignments) {
                    if !absent.contains(q) {
                        let slots = assigned.iter().flat_map(|r| r.clone());
                        for (slot, &v) in slots.zip(&per_rank[*q]) {
                            born[order[slot] as usize] = v;
                        }
                    }
                }
                Ok(absent)
            },
        )?;
        let born_s = t_born.elapsed().as_secs_f64();

        // ---- Stage "epol": steps 6–7, round loop over a-leaves.
        let t_epol = std::time::Instant::now();
        let mut work_epol = WorkCounts::ZERO;
        let ectx = epol_ctx(solver, &born, p, EpolBuffers::default());
        let born_slot = solver.born_by_slot(&born);
        let mut epol = 0.0f64;
        self.rounds(
            "epol",
            aleaf_segs,
            |rank, runs| {
                let chunks = rank.chunks(runs);
                let (e, w) = epol_stage(eval, &ectx, &born_slot, p, &chunks, rank)?;
                work_epol.accumulate(w);
                Ok(e)
            },
            |comm, e, _live, _assignments| {
                let (sum, absent) = comm.ft_allreduce_scalar(e, "epol_allreduce")?;
                epol += sum;
                Ok(absent)
            },
        )?;
        let epol_s = t_epol.elapsed().as_secs_f64();

        Ok(RankGood {
            epol,
            born,
            work_born,
            work_epol,
            born_s,
            epol_s,
            redivisions: self.redivisions,
            recovered_items: self.recovered,
        })
    }
}

impl Runner for Rank<'_> {
    type Error = CommError;

    /// Scheduled panics fire by (chunk index, attempt); recovered retries
    /// are logged, and a blown retry budget aborts the whole rank.
    fn run<T: Send, F: Fn(usize) -> T + Sync>(
        &mut self,
        n: usize,
        task: F,
    ) -> Result<Vec<T>, CommError> {
        let (rank, stage) = (self.comm.rank(), self.stage);
        let poison = poison_for(self.spec, rank, stage).map(|(i, k)| (i % n.max(1), k));
        let task = &task;
        let tasks: Vec<_> = (0..n)
            .map(|c| {
                move |attempt: u32| {
                    if poison.is_some_and(|(pi, panics)| c == pi && attempt < panics) {
                        panic!("injected worker panic: task {c} attempt {attempt}");
                    }
                    task(c)
                }
            })
            .collect();
        match run_batch_retry(self.threads, tasks, self.spec.worker_retry_budget) {
            Ok((results, stats, outcome)) => {
                if self.threads > 1 {
                    let steal = self.steal.get_or_insert_with(StealStats::default);
                    steal.merge(&stats);
                }
                self.retries += outcome.retries;
                for (idx, attempts) in &outcome.recovered {
                    self.events.push(FaultEvent {
                        at_collective: self.comm.collectives_entered() + 1,
                        kind: "worker_retry".into(),
                        rank,
                        peer: None,
                        detail: format!(
                            "stage {stage} task {idx} panicked {attempts}×, recovered by retry"
                        ),
                    });
                }
                Ok(results)
            }
            Err(e) => {
                self.retries += u64::from(e.attempts.saturating_sub(1));
                Err(self.comm.ft_abort(&format!(
                    "worker pool exhausted its retry budget in stage {stage}: {e}"
                )))
            }
        }
    }
}

struct RankGood {
    epol: f64,
    born: Vec<f64>,
    work_born: WorkCounts,
    work_epol: WorkCounts,
    born_s: f64,
    epol_s: f64,
    redivisions: u64,
    recovered_items: u64,
}

struct RankFtOut {
    result: Result<RankGood, CommError>,
    events: Vec<FaultEvent>,
    msg_retries: u64,
    worker_retries: u64,
    straggler_s: f64,
    comm_s: f64,
    bytes: u64,
    replicated: u64,
    steal: Option<StealStats>,
}

/// Run the Fig. 4 pipeline on an in-process rank universe, injecting
/// `spec`'s faults ([`FaultSpec::none`] for a plain run) and recovering
/// from them. For any survivable schedule (at least one rank alive at
/// the end) the returned energy and Born radii match the fault-free run
/// to 1e-12; identical specs produce identical [`FaultReport`]s. A
/// schedule that kills every rank returns
/// [`DistributedError::AllRanksDead`] — never a panic.
pub fn run_distributed_ft(
    solver: &GbSolver,
    cfg: &DistributedConfig,
    spec: &FaultSpec,
) -> Result<FtDistributedRun, DistributedError> {
    assert!(cfg.ranks >= 1 && cfg.threads_per_rank >= 1);
    let p = cfg.params;
    // Plan once, ahead of the rank universe: traversal cost is paid a
    // single time and the flat lists are replicated like the octrees.
    let plan = cfg.use_plan.then(|| solver.plan(&p));
    let eval = LeafEval::from(plan.as_ref());
    let plan_stats = eval.plan_stats();
    let replicated_bytes = solver.memory_bytes() + plan_stats.map_or(0, |s| s.plan_bytes as usize);
    let qleaf_segs = even_segments(solver.tree_q.leaves().len(), cfg.ranks);
    let atom_segs = even_segments(solver.n_atoms(), cfg.ranks);
    let aleaf_segs = even_segments(solver.tree_a.leaves().len(), cfg.ranks);

    let outs: Vec<RankFtOut> = Universe::run(cfg.ranks, cfg.network, |comm| {
        comm.arm_faults(spec);
        comm.register_replicated_memory(replicated_bytes);
        let mut rank = Rank::new(comm, spec, cfg.threads_per_rank);
        let result = rank.pipeline(solver, eval, &p, [&qleaf_segs, &atom_segs, &aleaf_segs]);
        let mut events = rank.comm.take_fault_events();
        events.append(&mut rank.events);
        RankFtOut {
            result,
            events,
            msg_retries: rank.comm.msg_retries(),
            worker_retries: rank.retries,
            straggler_s: rank.comm.straggler_extra_seconds(),
            comm_s: rank.comm.sim_comm_seconds(),
            bytes: rank.comm.bytes_sent(),
            replicated: rank.comm.replicated_bytes(),
            steal: rank.steal,
        }
    });

    // ---- Assemble the deterministic FaultReport.
    let good: Vec<Option<&RankGood>> = outs.iter().map(|o| o.result.as_ref().ok()).collect();
    let survivors: Vec<usize> = (0..cfg.ranks).filter(|&r| good[r].is_some()).collect();
    let dead_ranks: Vec<usize> = (0..cfg.ranks).filter(|&r| good[r].is_none()).collect();
    let mut events: Vec<FaultEvent> = outs.iter().flat_map(|o| o.events.clone()).collect();
    events.sort();
    events.dedup();
    let most = |f: fn(&RankGood) -> u64| good.iter().flatten().map(|&g| f(g)).max().unwrap_or(0);
    let slowest =
        |f: fn(&RankGood) -> f64| good.iter().flatten().map(|&g| f(g)).fold(0.0, f64::max);
    let report = FaultReport {
        seed: spec.seed,
        crashes: dead_ranks.len() as u64,
        drops: events.iter().filter(|e| e.kind == "drop").count() as u64,
        msg_retries: outs.iter().map(|o| o.msg_retries).sum(),
        worker_retries: outs.iter().map(|o| o.worker_retries).sum(),
        redivisions: most(|g| g.redivisions),
        recovered_items: most(|g| g.recovered_items),
        dead_ranks,
        straggler_extra_seconds: outs.iter().map(|o| o.straggler_s).sum(),
        events,
    };
    let Some(lead) = survivors.first().and_then(|&r| good[r]) else {
        let ranks = cfg.ranks;
        return Err(DistributedError::AllRanksDead { ranks, report });
    };
    for g in good.iter().flatten() {
        debug_assert!((g.epol - lead.epol).abs() <= 1e-12 * lead.epol.abs().max(1.0));
    }
    let work = |f: fn(&RankGood) -> WorkCounts| {
        good.iter().map(|g| g.map_or(WorkCounts::ZERO, f)).collect()
    };
    Ok(FtDistributedRun {
        epol_kcal: lead.epol,
        born: lead.born.clone(),
        survivors,
        fault: report,
        faults_scheduled: *spec != FaultSpec::none(),
        per_rank_comm_seconds: outs.iter().map(|o| o.comm_s).collect(),
        per_rank_bytes_sent: outs.iter().map(|o| o.bytes).collect(),
        total_replicated_bytes: outs.iter().map(|o| o.replicated).sum(),
        born_seconds: slowest(|g| g.born_s),
        epol_seconds: slowest(|g| g.epol_s),
        per_rank_work_born: work(|g| g.work_born),
        per_rank_work_epol: work(|g| g.work_epol),
        steal: concat_steal(outs.iter().map(|o| o.steal.as_ref())),
        kernel_mode: eval.kernel_mode(&p),
        plan_stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{CrashFault, WorkerPanicFault};
    use polar_gb::GbParams;
    use polar_molecule::generators;
    use polar_octree::OctreeConfig;
    use polar_surface::SurfaceConfig;

    fn solver(n: usize, seed: u64) -> GbSolver {
        let mol = generators::globular("d", n, seed);
        GbSolver::for_molecule(&mol, &SurfaceConfig::coarse(), &OctreeConfig::default())
    }

    /// The fault-free baseline every recovery is measured against.
    fn fault_free(s: &GbSolver, cfg: &DistributedConfig) -> FtDistributedRun {
        run_distributed_ft(s, cfg, &FaultSpec::none()).expect("no faults injected")
    }

    fn assert_matches(run: &FtDistributedRun, epol: f64, born: &[f64], tol: f64, what: &str) {
        assert!(
            (run.epol_kcal - epol).abs() <= tol * epol.abs(),
            "{what}: epol {} vs {epol}",
            run.epol_kcal
        );
        for (i, (a, b)) in run.born.iter().zip(born).enumerate() {
            assert!(
                (a - b).abs() <= tol * b.abs().max(1.0),
                "{what}: born[{i}] {a} vs {b}"
            );
        }
    }

    #[test]
    fn fault_free_single_rank_run_equals_the_serial_solver_bitwise() {
        let s = solver(260, 31);
        let p = GbParams::default();
        let serial = s.solve(&p);
        let ft = fault_free(&s, &DistributedConfig::oct_mpi(1, p));
        // One segment per stage, one contribution per collective: the
        // serial accumulation order, so exactly equal — not merely
        // within tolerance.
        assert_eq!(ft.epol_kcal, serial.epol_kcal);
        assert_eq!(ft.born, serial.born);
        assert_eq!(ft.total_work_born(), serial.work_born);
        assert_eq!(ft.total_work_epol(), serial.work_epol);
        assert_eq!(ft.survivors, vec![0]);
        assert!(!ft.faults_scheduled);
        let f = &ft.fault;
        assert_eq!(
            (
                f.crashes,
                f.drops,
                f.msg_retries,
                f.worker_retries,
                f.redivisions
            ),
            (0, 0, 0, 0, 0)
        );
        assert_eq!((f.recovered_items, f.straggler_extra_seconds), (0, 0.0));
        assert!(f.dead_ranks.is_empty() && f.events.is_empty(), "{f:?}");
    }

    #[test]
    fn a_crash_in_any_stage_is_recovered_to_the_fault_free_answer() {
        let s = solver(220, 32);
        let p = GbParams::default();
        let cfg = DistributedConfig::oct_mpi(3, p);
        let base = fault_free(&s, &cfg);
        // Collectives 1/2/3 are the born allreduce, the radii allgather,
        // and the energy allreduce: one death inside each stage.
        for at in 1..=3u64 {
            let mut spec = FaultSpec::none();
            spec.crashes.push(CrashFault {
                rank: 1,
                at_collective: at,
            });
            let ft = run_distributed_ft(&s, &cfg, &spec).expect("2 of 3 ranks survive");
            assert_matches(
                &ft,
                base.epol_kcal,
                &base.born,
                1e-12,
                &format!("crash@{at}"),
            );
            assert_eq!(ft.survivors, vec![0, 2]);
            assert_eq!(ft.fault.dead_ranks, vec![1]);
            assert_eq!(ft.fault.crashes, 1);
            assert!(ft.fault.redivisions >= 1, "lost work was re-divided");
            assert!(ft.fault.recovered_items >= 1);
            assert!(ft.fault.events.iter().any(|e| e.kind == "crash"));
        }
    }

    #[test]
    fn losing_the_root_fails_over_and_still_recovers() {
        let s = solver(220, 33);
        let p = GbParams::default();
        let cfg = DistributedConfig::oct_mpi(4, p);
        let base = fault_free(&s, &cfg);
        let mut spec = FaultSpec::none();
        spec.crashes.push(CrashFault {
            rank: 0,
            at_collective: 2,
        });
        let ft = run_distributed_ft(&s, &cfg, &spec).expect("3 of 4 ranks survive");
        assert_matches(&ft, base.epol_kcal, &base.born, 1e-12, "root crash");
        assert_eq!(ft.survivors, vec![1, 2, 3]);
    }

    #[test]
    fn cascading_crashes_down_to_one_rank_still_recover() {
        let s = solver(200, 34);
        let p = GbParams::default();
        let cfg = DistributedConfig::oct_mpi(4, p);
        let base = fault_free(&s, &cfg);
        let mut spec = FaultSpec::none();
        for (rank, at) in [(1, 1), (2, 2), (3, 3)] {
            spec.crashes.push(CrashFault {
                rank,
                at_collective: at,
            });
        }
        let ft = run_distributed_ft(&s, &cfg, &spec).expect("rank 0 survives");
        assert_matches(&ft, base.epol_kcal, &base.born, 1e-12, "cascade");
        assert_eq!(ft.survivors, vec![0]);
        assert_eq!(ft.fault.dead_ranks, vec![1, 2, 3]);
    }

    #[test]
    fn recovery_works_on_the_plan_and_hybrid_paths_too() {
        let s = solver(220, 35);
        let p = GbParams::default();
        let mut cfg = DistributedConfig::oct_mpi_cilk(3, 2, p);
        cfg.use_plan = true;
        let base = fault_free(&s, &cfg);
        let mut spec = FaultSpec::none();
        spec.crashes.push(CrashFault {
            rank: 2,
            at_collective: 1,
        });
        let ft = run_distributed_ft(&s, &cfg, &spec).expect("2 of 3 ranks survive");
        assert_matches(&ft, base.epol_kcal, &base.born, 1e-12, "plan+hybrid crash");
        assert!(ft.plan_stats.is_some());
    }

    #[test]
    fn killing_every_rank_is_a_structured_error_not_a_panic() {
        let s = solver(150, 36);
        let p = GbParams::default();
        let cfg = DistributedConfig::oct_mpi(3, p);
        let mut spec = FaultSpec::none();
        for rank in 0..3 {
            spec.crashes.push(CrashFault {
                rank,
                at_collective: 1,
            });
        }
        match run_distributed_ft(&s, &cfg, &spec) {
            Err(DistributedError::AllRanksDead { ranks, report }) => {
                assert_eq!(ranks, 3);
                assert_eq!(report.crashes, 3);
                assert_eq!(report.dead_ranks, vec![0, 1, 2]);
                let msg = DistributedError::AllRanksDead { ranks, report }.to_string();
                assert!(msg.contains("not survivable"), "{msg}");
            }
            Ok(_) => panic!("a schedule that kills every rank must not succeed"),
        }
    }

    #[test]
    fn worker_panics_within_budget_are_retried_and_logged() {
        let s = solver(220, 37);
        let p = GbParams::default();
        let cfg = DistributedConfig::oct_mpi_cilk(2, 3, p);
        let base = fault_free(&s, &cfg);
        let mut spec = FaultSpec::none();
        spec.worker_panics.push(WorkerPanicFault {
            rank: 1,
            stage: "born".into(),
            task_index: 2,
            panics: 2,
        });
        let ft = run_distributed_ft(&s, &cfg, &spec).expect("panic is within the retry budget");
        assert_matches(&ft, base.epol_kcal, &base.born, 1e-12, "worker panic");
        assert_eq!(ft.survivors, vec![0, 1]);
        assert!(ft.fault.worker_retries >= 2, "{}", ft.fault.worker_retries);
        assert!(ft.fault.events.iter().any(|e| e.kind == "worker_retry"));
    }

    #[test]
    fn a_worker_panic_past_the_budget_kills_the_rank_and_the_rest_recover() {
        let s = solver(220, 38);
        let p = GbParams::default();
        let mut cfg = DistributedConfig::oct_mpi_cilk(3, 2, p);
        cfg.params = p;
        let base = fault_free(&s, &cfg);
        let mut spec = FaultSpec::none();
        spec.worker_retry_budget = 1;
        spec.worker_panics.push(WorkerPanicFault {
            rank: 1,
            stage: "epol".into(),
            task_index: 0,
            panics: 5,
        });
        let ft = run_distributed_ft(&s, &cfg, &spec).expect("2 of 3 ranks survive");
        assert_matches(&ft, base.epol_kcal, &base.born, 1e-12, "budget blown");
        assert_eq!(ft.fault.dead_ranks, vec![1]);
        assert!(ft
            .fault
            .events
            .iter()
            .any(|e| e.kind == "crash" && e.detail.contains("retry budget")));
    }

    #[test]
    fn identical_specs_produce_byte_identical_fault_reports() {
        let s = solver(200, 39);
        let p = GbParams::default();
        let cfg = DistributedConfig::oct_mpi(3, p);
        let spec = FaultSpec::from_seed(7, 3);
        let a = run_distributed_ft(&s, &cfg, &spec);
        let b = run_distributed_ft(&s, &cfg, &spec);
        let json = |r: &Result<FtDistributedRun, DistributedError>| match r {
            Ok(run) => run.fault.to_json(),
            Err(DistributedError::AllRanksDead { report, .. }) => report.to_json(),
        };
        assert_eq!(json(&a), json(&b));
    }

    #[test]
    fn the_ft_report_carries_the_fault_section() {
        let s = solver(180, 40);
        let p = GbParams::default();
        let cfg = DistributedConfig::oct_mpi(2, p);
        let mut spec = FaultSpec::none();
        spec.crashes.push(CrashFault {
            rank: 1,
            at_collective: 2,
        });
        let ft = run_distributed_ft(&s, &cfg, &spec).expect("rank 0 survives");
        let rep = ft.report(&s, &cfg);
        assert_eq!(rep.mode, "oct_mpi_ft");
        let f = rep.fault.as_ref().expect("fault section present");
        assert_eq!(f.dead_ranks, vec![1]);
        assert!(rep.to_json().contains("\"fault\""));
        assert_eq!(
            rep.to_csv_row().split(',').count(),
            SolveReport::csv_header().split(',').count()
        );
    }
}
