//! End-to-end simulated runs of the Fig. 4 algorithm on a modeled cluster.
//!
//! A [`ClusterExperiment`] bundles the machine model with the *measured*
//! per-leaf work of a molecule (from `GbSolver::born_work_per_qleaf` /
//! `epol_work_per_leaf`) and the algorithm's payload sizes. `simulate`
//! then prices one `(ranks × threads)` layout:
//!
//! * static node-based division of leaf tasks across ranks (identical to
//!   the real drivers in `polar-mpi`),
//! * a work-stealing schedule simulation inside each rank,
//! * collective costs between phases (`allreduce` partials, `allgather`
//!   Born radii, scalar reduce),
//! * cache-fit, NUMA and RAM-pressure factors on the core rate.

use crate::spec::MachineSpec;
use crate::stealing::simulate_work_stealing;
use polar_gb::partition::{even_segments, weighted_segments};
use polar_gb::report::{CommReport, SolveReport, StageReport, StealReport, TreeDepthStats};
use polar_gb::{GbSolver, WorkCounts};

/// A parallel layout: `ranks × threads_per_rank` cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    pub ranks: usize,
    pub threads_per_rank: usize,
}

impl Layout {
    /// Pure distributed: every core is a rank (`OCT_MPI`).
    pub fn pure_mpi(cores: usize) -> Layout {
        Layout {
            ranks: cores,
            threads_per_rank: 1,
        }
    }

    /// Hybrid with one rank per socket of a Lonestar4-class node
    /// (`OCT_MPI+CILK` as run in §V.A: 2 ranks × 6 threads per node).
    pub fn hybrid_per_socket(cores: usize, cores_per_socket: usize) -> Layout {
        let ranks = cores.div_ceil(cores_per_socket).max(1);
        Layout {
            ranks,
            threads_per_rank: cores_per_socket.min(cores),
        }
    }

    pub fn cores(&self) -> usize {
        self.ranks * self.threads_per_rank
    }
}

/// The machine plus one molecule's measured workload.
#[derive(Debug, Clone)]
pub struct ClusterExperiment {
    pub spec: MachineSpec,
    /// Work units per `T_Q` leaf (Born stage tasks).
    pub born_tasks: Vec<u64>,
    /// Work units per `T_A` leaf (energy stage tasks).
    pub epol_tasks: Vec<u64>,
    /// Input bytes replicated in every rank (atoms + q-points + octrees).
    pub data_bytes: u64,
    /// Allreduce payload: the flattened partial-integral vectors.
    pub partials_bytes: u64,
    /// Total Born radius vector bytes (allgather payload).
    pub born_bytes: u64,
}

/// Simulated timings of one layout.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimOutcome {
    /// End-to-end seconds (computation + communication).
    pub total_seconds: f64,
    /// Born-stage computation (max over ranks).
    pub born_seconds: f64,
    /// Energy-stage computation (max over ranks).
    pub epol_seconds: f64,
    /// Collective communication seconds.
    pub comm_seconds: f64,
    /// Resident bytes on the fullest node (replication pressure).
    pub bytes_per_node: f64,
    /// Successful steals across all ranks (scheduler traffic).
    pub steals: u64,
}

/// How leaf tasks are assigned to ranks.
///
/// The paper ships with `CountEven` (its "explicit static load
/// balancing"); `WeightEven` and `GlobalStealing` implement its SVI
/// future-work directions ("explicit dynamic load balancing techniques
/// such as work-stealing").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DivisionPolicy {
    /// Contiguous segments with equal *counts* of leaves (the paper's
    /// scheme - cheap, but blind to per-leaf cost).
    CountEven,
    /// Contiguous segments balanced by measured per-leaf *work* (static,
    /// using the profiling pass the counting kernels provide).
    WeightEven,
    /// One global work-stealing pool across all ranks; cross-rank steals
    /// pay a network round trip per migrated task.
    GlobalStealing,
}

impl ClusterExperiment {
    /// `solver`'s per-leaf tasks on `spec`, with the payloads an OCT_MPI
    /// run moves: its replicated input, partials and Born radii.
    pub fn for_solver(
        spec: MachineSpec,
        solver: &GbSolver,
        born_tasks: Vec<u64>,
        epol_tasks: Vec<u64>,
    ) -> ClusterExperiment {
        ClusterExperiment {
            spec,
            born_tasks,
            epol_tasks,
            data_bytes: solver.memory_bytes() as u64,
            partials_bytes: ((solver.tree_a.node_count() + solver.n_atoms()) * 8) as u64,
            born_bytes: (solver.n_atoms() * 8) as u64,
        }
    }

    /// Price one layout. `seed` varies the stealing schedule (repeat with
    /// different seeds for a Fig. 6-style min/max envelope).
    pub fn simulate(&self, layout: Layout, seed: u64) -> SimOutcome {
        self.simulate_with_policy(layout, seed, DivisionPolicy::CountEven)
    }

    /// As [`ClusterExperiment::simulate`], with an explicit
    /// [`DivisionPolicy`].
    pub fn simulate_with_policy(
        &self,
        layout: Layout,
        seed: u64,
        policy: DivisionPolicy,
    ) -> SimOutcome {
        let spec = &self.spec;
        let ranks = layout.ranks;
        let threads = layout.threads_per_rank;
        assert!(ranks >= 1 && threads >= 1, "bad layout {layout:?}");
        let cores = layout.cores();
        assert!(
            cores <= spec.total_cores(),
            "layout needs {cores} cores, machine has {}",
            spec.total_cores()
        );

        // Placement: ranks fill nodes evenly.
        let nodes_used = cores.div_ceil(spec.cores_per_node()).max(1);
        let ranks_per_node = ranks.div_ceil(nodes_used).max(1);
        // Every rank holds the replicated inputs plus its own partial
        // accumulators — the §IV.B memory multiplier of pure MPI.
        let bytes_per_node = ranks_per_node as f64 * (self.data_bytes + self.partials_bytes) as f64;

        // Effective core rate.
        let ws_per_core = (self.data_bytes + self.partials_bytes) as f64 / cores.max(1) as f64;
        let mut factor = spec.cache_factor(ws_per_core) * spec.paging_factor(bytes_per_node);
        if threads > spec.cores_per_socket {
            // One rank's work-stealing threads span sockets: cilk++ has no
            // affinity manager, so cross-socket steals hit remote caches.
            factor *= spec.numa_penalty;
        }
        if threads > 1 && ranks > 1 {
            // The paper's §V.C: interfacing cilk++ with MPI costs extra.
            // A single-process run (OCT_CILK) pays only the NUMA factor.
            factor *= spec.hybrid_thread_efficiency;
        }
        let rate = factor / spec.seconds_per_unit;

        // Network: all-on-one-node runs use the cheap intra-node fabric.
        let net = if nodes_used == 1 {
            spec.network.intra_node()
        } else {
            spec.network
        };

        // Phase computation times under the chosen division policy.
        let mut steals = 0u64;
        let mut phase = |tasks: &[u64], salt: u64| -> f64 {
            match policy {
                DivisionPolicy::GlobalStealing => {
                    // One pool over every core; a steal migrates work
                    // across ranks with probability (ranks−1)/ranks and
                    // then pays a network round trip (small task payload)
                    // on top of the local steal overhead.
                    let cross = (ranks - 1) as f64 / ranks.max(1) as f64;
                    let steal_cost = spec.steal_overhead + cross * 2.0 * net.p2p(4096);
                    let task_seed = seed ^ salt;
                    let s = simulate_work_stealing(
                        tasks,
                        cores,
                        rate,
                        steal_cost,
                        spec.task_overhead,
                        task_seed,
                    );
                    steals += s.steals;
                    let jitter = 1.0 + spec.run_noise * unit_hash(task_seed ^ 0x6a77);
                    s.makespan * jitter
                }
                DivisionPolicy::CountEven | DivisionPolicy::WeightEven => {
                    let segs = if policy == DivisionPolicy::CountEven {
                        even_segments(tasks.len(), ranks)
                    } else {
                        weighted_segments(tasks, ranks)
                    };
                    let mut t_max = 0.0_f64;
                    for (r, seg) in segs.into_iter().enumerate() {
                        let task_seed =
                            seed ^ salt ^ (r as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                        let s = simulate_work_stealing(
                            &tasks[seg],
                            threads,
                            rate,
                            spec.steal_overhead,
                            spec.task_overhead,
                            task_seed,
                        );
                        steals += s.steals;
                        // Seeded per-rank system noise (OS jitter,
                        // contention): uniform in [1, 1 + run_noise] —
                        // noise only slows ranks down, and the phase ends
                        // at the slowest rank.
                        let jitter = 1.0 + spec.run_noise * unit_hash(task_seed ^ 0x6a77);
                        t_max = t_max.max(s.makespan * jitter);
                    }
                    t_max
                }
            }
        };
        let born_seconds = phase(&self.born_tasks, 0xb012);
        let epol_seconds = phase(&self.epol_tasks, 0xe901);

        // Collectives (paper Steps 3, 5, 7).
        let comm_seconds = net.allreduce(self.partials_bytes as usize, ranks)
            + net.allgather((self.born_bytes as usize).div_ceil(ranks.max(1)), ranks)
            + net.allreduce(8, ranks);

        SimOutcome {
            total_seconds: born_seconds + epol_seconds + comm_seconds,
            born_seconds,
            epol_seconds,
            comm_seconds,
            bytes_per_node,
            steals,
        }
    }

    /// Package one simulated layout's outcome as a [`SolveReport`]
    /// (mode `"cluster_sim"`), so simulated and real runs land in the
    /// same results tables.
    ///
    /// Caveats of the simulated record: the discrete-event scheduler
    /// replays flattened work *units*, not op categories, so each
    /// stage's work appears entirely as `pair_ops`; no per-worker
    /// execution counters exist, so the steal section carries totals
    /// with imbalance fixed at 1.0; no energy is computed, so
    /// `epol_kcal` is NaN (JSON `null`); tree shape reduces to the leaf
    /// counts the task lists encode. Wire bytes are the collectives'
    /// payloads: every rank contributes the partial-integral vector to
    /// the allreduce plus its Born segment to the allgather plus the
    /// final scalar.
    pub fn report(
        &self,
        molecule: &str,
        eps_born: f64,
        eps_epol: f64,
        layout: Layout,
        outcome: &SimOutcome,
    ) -> SolveReport {
        let units = |tasks: &[u64]| WorkCounts {
            pair_ops: tasks.iter().sum(),
            far_ops: 0,
            nodes_visited: 0,
        };
        let leaves = |tasks: &[u64]| TreeDepthStats {
            leaf_count: tasks.len(),
            ..Default::default()
        };
        SolveReport {
            molecule: molecule.to_string(),
            mode: "cluster_sim".to_string(),
            // The simulator replays work units; no kernel arithmetic runs.
            kernel_mode: "strict".to_string(),
            n_atoms: (self.born_bytes / 8) as usize,
            n_qpoints: 0,
            eps_born,
            eps_epol,
            epol_kcal: f64::NAN,
            stages: vec![
                StageReport {
                    name: "born".into(),
                    wall_seconds: outcome.born_seconds,
                    work: units(&self.born_tasks),
                },
                StageReport {
                    name: "epol".into(),
                    wall_seconds: outcome.epol_seconds,
                    work: units(&self.epol_tasks),
                },
            ],
            tree_a: leaves(&self.epol_tasks),
            tree_q: leaves(&self.born_tasks),
            steal: Some(StealReport {
                workers: layout.cores(),
                total_executed: (self.born_tasks.len() + self.epol_tasks.len()) as u64,
                total_steals: outcome.steals,
                imbalance: 1.0,
            }),
            comm: Some(CommReport {
                ranks: layout.ranks,
                sim_seconds: outcome.comm_seconds,
                bytes_sent: layout.ranks as u64 * (self.partials_bytes + 8) + self.born_bytes,
                replicated_bytes: layout.ranks as u64 * self.data_bytes,
            }),
            plan: None,
            fault: None,
            memory_bytes: self.data_bytes,
        }
    }

    /// Min/max total time over `runs` seeded repetitions (Fig. 6's
    /// 20-run envelope).
    pub fn envelope(&self, layout: Layout, runs: usize, base_seed: u64) -> (f64, f64) {
        assert!(runs >= 1);
        let mut lo = f64::INFINITY;
        let mut hi = 0.0_f64;
        for r in 0..runs {
            let t = self
                .simulate(layout, base_seed.wrapping_add(r as u64 * 104_729))
                .total_seconds;
            lo = lo.min(t);
            hi = hi.max(t);
        }
        (lo, hi)
    }
}

/// A deterministic hash of `x` mapped to [0, 1).
fn unit_hash(x: u64) -> f64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn experiment(n_tasks: usize, units: u64) -> ClusterExperiment {
        ClusterExperiment {
            spec: MachineSpec::lonestar4(12),
            born_tasks: vec![units; n_tasks],
            epol_tasks: vec![units; n_tasks],
            data_bytes: 50 << 20,
            partials_bytes: 8 << 20,
            born_bytes: 4 << 20,
        }
    }

    #[test]
    fn more_cores_run_faster() {
        let e = experiment(4096, 50_000);
        let t12 = e.simulate(Layout::pure_mpi(12), 1).total_seconds;
        let t48 = e.simulate(Layout::pure_mpi(48), 1).total_seconds;
        let t144 = e.simulate(Layout::pure_mpi(144), 1).total_seconds;
        assert!(t12 > t48, "{t12} vs {t48}");
        assert!(t48 > t144, "{t48} vs {t144}");
    }

    #[test]
    fn hybrid_uses_less_node_memory_than_pure_mpi() {
        let e = experiment(2048, 10_000);
        let pure = e.simulate(Layout::pure_mpi(12), 1);
        let hybrid = e.simulate(
            Layout {
                ranks: 2,
                threads_per_rank: 6,
            },
            1,
        );
        // 12 replicas vs 2 on the single node: exactly 6×.
        assert!((pure.bytes_per_node / hybrid.bytes_per_node - 6.0).abs() < 1e-9);
    }

    #[test]
    fn hybrid_communicates_less_than_pure_mpi() {
        let e = experiment(2048, 10_000);
        let pure = e.simulate(Layout::pure_mpi(144), 1);
        let hybrid = e.simulate(
            Layout {
                ranks: 24,
                threads_per_rank: 6,
            },
            1,
        );
        assert!(hybrid.comm_seconds < pure.comm_seconds);
    }

    #[test]
    fn oversubscribed_memory_pays_paging_penalty() {
        let mut e = experiment(2048, 10_000);
        // Blow past 24 GB/node with 12 replicated ranks.
        e.data_bytes = 4 << 30;
        let pure = e.simulate(Layout::pure_mpi(12), 1);
        let hybrid = e.simulate(
            Layout {
                ranks: 2,
                threads_per_rank: 6,
            },
            1,
        );
        assert!(
            pure.total_seconds > 2.0 * hybrid.total_seconds,
            "paging should cripple pure MPI: {} vs {}",
            pure.total_seconds,
            hybrid.total_seconds
        );
    }

    #[test]
    fn threads_spanning_sockets_pay_numa() {
        let e = experiment(2048, 10_000);
        let per_socket = e.simulate(
            Layout {
                ranks: 2,
                threads_per_rank: 6,
            },
            1,
        );
        let spanning = e.simulate(
            Layout {
                ranks: 1,
                threads_per_rank: 12,
            },
            1,
        );
        // Same cores; the spanning layout has cheaper comm (1 rank) but a
        // slower core rate. Computation alone must be slower:
        assert!(
            spanning.born_seconds > per_socket.born_seconds,
            "{} vs {}",
            spanning.born_seconds,
            per_socket.born_seconds
        );
    }

    #[test]
    fn envelope_brackets_single_runs() {
        let e = experiment(1024, 25_000);
        let l = Layout {
            ranks: 4,
            threads_per_rank: 6,
        };
        let (lo, hi) = e.envelope(l, 20, 7);
        assert!(lo <= hi);
        let one = e.simulate(l, 7).total_seconds;
        assert!(one >= lo - 1e-12 && one <= hi + 1e-12);
    }

    #[test]
    fn weighted_division_beats_count_division_on_skewed_tasks() {
        // Heavily skewed per-leaf work: count-even assigns equal leaf
        // counts but wildly unequal work; weight-even fixes it.
        let mut tasks = Vec::new();
        for i in 0..512 {
            tasks.push(if i < 64 { 80_000 } else { 500 });
        }
        let e = ClusterExperiment {
            spec: MachineSpec::lonestar4(12),
            born_tasks: tasks.clone(),
            epol_tasks: tasks,
            data_bytes: 10 << 20,
            partials_bytes: 1 << 20,
            born_bytes: 1 << 18,
        };
        let l = Layout::pure_mpi(48);
        let count = e.simulate_with_policy(l, 3, DivisionPolicy::CountEven);
        let weight = e.simulate_with_policy(l, 3, DivisionPolicy::WeightEven);
        assert!(
            weight.total_seconds < 0.8 * count.total_seconds,
            "weighted {} vs count {}",
            weight.total_seconds,
            count.total_seconds
        );
    }

    #[test]
    fn global_stealing_beats_static_on_skewed_tasks() {
        let mut tasks = Vec::new();
        for i in 0..512 {
            tasks.push(if i % 8 == 0 { 120_000 } else { 200 });
        }
        let e = ClusterExperiment {
            spec: MachineSpec::lonestar4(12),
            born_tasks: tasks.clone(),
            epol_tasks: tasks,
            data_bytes: 10 << 20,
            partials_bytes: 1 << 20,
            born_bytes: 1 << 18,
        };
        let l = Layout::pure_mpi(96);
        let stat = e.simulate_with_policy(l, 9, DivisionPolicy::CountEven);
        let steal = e.simulate_with_policy(l, 9, DivisionPolicy::GlobalStealing);
        assert!(
            steal.total_seconds < stat.total_seconds,
            "stealing {} vs static {}",
            steal.total_seconds,
            stat.total_seconds
        );
        assert!(steal.steals > 0);
    }

    #[test]
    fn policies_agree_on_uniform_tasks_within_noise() {
        let tasks = vec![10_000u64; 1024];
        let e = ClusterExperiment {
            spec: MachineSpec::lonestar4(12),
            born_tasks: tasks.clone(),
            epol_tasks: tasks,
            data_bytes: 10 << 20,
            partials_bytes: 1 << 20,
            born_bytes: 1 << 18,
        };
        let l = Layout::pure_mpi(24);
        let a = e
            .simulate_with_policy(l, 1, DivisionPolicy::CountEven)
            .total_seconds;
        let b = e
            .simulate_with_policy(l, 1, DivisionPolicy::WeightEven)
            .total_seconds;
        assert!((a - b).abs() < 0.15 * a, "{a} vs {b}");
    }

    #[test]
    fn sim_outcome_packages_into_a_report() {
        let e = experiment(512, 20_000);
        let l = Layout {
            ranks: 4,
            threads_per_rank: 6,
        };
        let o = e.simulate(l, 11);
        let r = e.report("sim-mol", 0.9, 0.9, l, &o);
        assert_eq!(r.mode, "cluster_sim");
        assert_eq!(r.total_work().pair_ops, 2 * 512 * 20_000);
        assert_eq!(r.stage("born").wall_seconds, o.born_seconds);
        let comm = r.comm.expect("sim report always has a comm section");
        assert_eq!(comm.ranks, 4);
        assert!(comm.sim_seconds > 0.0);
        assert_eq!(comm.replicated_bytes, 4 * e.data_bytes);
        // NaN energy serializes as JSON null, and the row stays parseable.
        assert!(r.to_json().contains("\"epol_kcal\":null"));
        assert_eq!(r.to_csv_row().split(',').count(), 42);
    }

    #[test]
    #[should_panic]
    fn layout_larger_than_machine_rejected() {
        let e = experiment(64, 100);
        let _ = e.simulate(Layout::pure_mpi(145), 1);
    }
}
