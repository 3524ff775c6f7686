//! The path matrix: every way this workspace can solve one molecule,
//! each held against the serial traversal `GbSolver::solve` at the
//! tolerance that path states.
//!
//! Rows are {serial, pooled at 1, 2 and 3 workers, distributed at P×p =
//! 1×1, 2×1, 3×1, 1×2, 2×2, one scheduled crash}; columns are the leaf
//! evaluators {traversal, plan in strict-fp mode, plan in lane mode}.
//! Within an evaluator the stage `WorkCounts` are identical on every
//! fault-free path (work is schedule- and division-independent); one
//! rank × one thread replays the serial accumulation order and is
//! therefore equal bit for bit. Every fault-free cell runs twice and
//! must repeat its own bits: chunks merge in chunk order, whatever the
//! steal schedule. The data-distributed driver adds a row of its own at
//! P = 1, 2, 3 ranks.

use polar_energy::gb::{KernelMode, WorkCounts};
use polar_energy::molecule::generators;
use polar_energy::mpi::{run_data_distributed, CrashFault, DataDistributedRun, FtDistributedRun};
use polar_energy::prelude::*;

/// What one path computed.
struct Outcome {
    born: Vec<f64>,
    epol: f64,
    work: (WorkCounts, WorkCounts),
}

impl From<&FtDistributedRun> for Outcome {
    fn from(run: &FtDistributedRun) -> Outcome {
        Outcome {
            born: run.born.clone(),
            epol: run.epol_kcal,
            work: (run.total_work_born(), run.total_work_epol()),
        }
    }
}

impl From<DataDistributedRun> for Outcome {
    fn from(run: DataDistributedRun) -> Outcome {
        let work = run.per_rank_work.iter().copied().sum();
        Outcome {
            born: run.born,
            epol: run.epol_kcal,
            work: (work, WorkCounts::ZERO),
        }
    }
}

impl From<GbResult> for Outcome {
    fn from(r: GbResult) -> Outcome {
        Outcome {
            born: r.born,
            epol: r.epol_kcal,
            work: (r.work_born, r.work_epol),
        }
    }
}

fn assert_bitwise(name: &str, got: &Outcome, want: &Outcome) {
    assert_eq!(
        got.epol.to_bits(),
        want.epol.to_bits(),
        "{name}: E_pol {} vs {}",
        got.epol,
        want.epol
    );
    for (i, (a, b)) in got.born.iter().zip(&want.born).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{name}: born[{i}] {a} vs {b}");
    }
}

fn assert_close(name: &str, got: &Outcome, want: &Outcome, tol_epol: f64, tol_born: f64) {
    assert!(
        (got.epol - want.epol).abs() <= tol_epol * want.epol.abs(),
        "{name}: E_pol {} vs {}",
        got.epol,
        want.epol
    );
    assert_eq!(got.born.len(), want.born.len(), "{name}");
    for (i, (a, b)) in got.born.iter().zip(&want.born).enumerate() {
        assert!(
            (a - b).abs() <= tol_born * b.abs().max(1.0),
            "{name}: born[{i}] {a} vs {b}"
        );
    }
}

#[test]
fn every_path_agrees_with_the_serial_traversal() {
    let mol = generators::globular("matrix", 300, 12);
    let solver = GbSolver::for_molecule(&mol, &SurfaceConfig::coarse(), &OctreeConfig::default());
    let serial: Outcome = solver.solve(&GbParams::default()).into();
    assert!(serial.epol < 0.0);

    let distributed = |cfg: &DistributedConfig, spec: &FaultSpec| {
        run_distributed_ft(&solver, cfg, spec).expect("a rank survives")
    };
    let layouts = [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2)];
    let twice = |name: &str, run: &dyn Fn() -> Outcome| {
        let got = run();
        assert_bitwise(&format!("{name} rerun"), &run(), &got);
        got
    };

    // (evaluator, kernel, E_pol and Born tolerance against `solve()`):
    // the traversal paths re-associate chunk partials (1e-9); strict
    // plan replay is the traversal term for term (1e-12, Born bitwise
    // when serial); lane kernels re-associate the near field (E_pol
    // 1e-12, Born radii ulp grade).
    let columns = [
        ("traverse", None, 1e-9, 1e-9),
        ("plan/strict", Some(KernelMode::Strict), 1e-12, 1e-12),
        ("plan/lane", Some(KernelMode::Lane), 1e-12, 1e-11),
    ];
    for (col, kernel, tol_epol, tol_born) in columns {
        let p = GbParams {
            kernel: kernel.unwrap_or_default(),
            ..GbParams::default()
        };
        let plan = kernel.map(|_| solver.plan(&p));
        let eval = LeafEval::from(plan.as_ref());
        // The evaluator's own serial path: the bitwise and work-count
        // reference for its column.
        let reference: Outcome = match &plan {
            None => solver.solve(&p).into(),
            Some(plan) => solver.solve_with_plan(plan, &p).unwrap().into(),
        };
        assert_close(col, &reference, &serial, tol_epol, tol_born);
        if kernel == Some(KernelMode::Strict) {
            assert_eq!(reference.born, serial.born, "{col}: Born radii bitwise");
        }
        assert_eq!(
            (reference.work.0.pair_ops, reference.work.0.far_ops),
            (serial.work.0.pair_ops, serial.work.0.far_ops),
            "{col}: Born-stage interactions"
        );
        assert_eq!(
            (reference.work.1.pair_ops, reference.work.1.far_ops),
            (serial.work.1.pair_ops, serial.work.1.far_ops),
            "{col}: energy-stage interactions"
        );

        let report: Outcome = solver.solve_report(eval, &p, None).unwrap().0.into();
        assert_bitwise(&format!("{col} solve_report"), &report, &reference);
        assert_eq!(report.work, reference.work, "{col} solve_report");

        for workers in [1, 2, 3] {
            let name = format!("{col} pooled x{workers}");
            let pooled = || solver.solve_report(eval, &p, Some(workers)).unwrap().0;
            let got = twice(&name, &|| pooled().into());
            assert_close(&name, &got, &serial, tol_epol, tol_born);
            assert_eq!(got.work, reference.work, "{name}");
        }

        let mut cfg = DistributedConfig::oct_mpi(1, p);
        cfg.use_plan = plan.is_some();
        for (ranks, threads) in layouts {
            let name = format!("{col} distributed {ranks}x{threads}");
            cfg.ranks = ranks;
            cfg.threads_per_rank = threads;
            let got = twice(&name, &|| {
                Outcome::from(&distributed(&cfg, &FaultSpec::none()))
            });
            if (ranks, threads) == (1, 1) {
                assert_bitwise(&name, &got, &reference);
            }
            assert_close(&name, &got, &serial, tol_epol, tol_born);
            assert_eq!(got.work, reference.work, "{name}");
        }

        // Rank 1 dies entering the Born-radii allgather; the survivors
        // re-divide its atoms and T_A leaves and land on the fault-free
        // answer of the same layout.
        cfg.ranks = 3;
        cfg.threads_per_rank = 1;
        let fault_free = Outcome::from(&distributed(&cfg, &FaultSpec::none()));
        let mut spec = FaultSpec::none();
        spec.crashes.push(CrashFault {
            rank: 1,
            at_collective: 2,
        });
        let run = distributed(&cfg, &spec);
        assert_eq!(run.survivors, vec![0, 2], "{col}");
        assert!(run.fault.recovered_items > 0, "{col}");
        let recovered = Outcome::from(&run);
        let name = format!("{col} recovered 3x1");
        assert_close(&name, &recovered, &fault_free, 1e-12, 1e-12);
        assert_close(&name, &recovered, &serial, tol_epol, tol_born);
    }

    // Each data-distributed rank builds its own `T_Q` over its q-point
    // share, so the far field regroups with P: the ε class of
    // `data_dist`'s own tests (E_pol to 5e-3, single radii to a few
    // percent), not the serial bits.
    for ranks in [1, 2, 3] {
        let name = format!("data-dist {ranks}x1");
        let cfg = DistributedConfig::oct_mpi(ranks, GbParams::default());
        let got = twice(&name, &|| {
            run_data_distributed(&solver, &cfg).unwrap().into()
        });
        assert_close(&name, &got, &serial, 5e-3, 5e-2);
    }
}

/// Footprint cell: a plan holds 40-byte windows of eight partner ids per
/// block of eight q-leaves (Born stage), an eight-byte run per stretch of
/// consecutive near partner slots and one `u32` per far partner (energy
/// stage), a handful of per-leaf and per-block columns and the SoA
/// coordinate mirrors — nothing else, and no `Vec` growth slack. A
/// reintroduced per-leaf Born list or per-entry column breaks the
/// equality and the ceiling.
#[test]
fn plan_footprint_is_its_list_lengths() {
    let mol = generators::globular("matrix", 300, 12);
    let solver = GbSolver::for_molecule(&mol, &SurfaceConfig::coarse(), &OctreeConfig::default());
    let plan = solver.plan(&GbParams::default());

    const U32: usize = std::mem::size_of::<u32>();
    const WORD: usize = std::mem::size_of::<usize>();
    const F64: usize = std::mem::size_of::<f64>();
    let born = &plan.born;
    let windows: usize = (0..born.blocks())
        .map(|b| born.far_windows(b).len() + born.near_windows(b).len())
        .sum();
    // Margin (f64), block count and two entry counts (u32) per q-leaf;
    // the far list's length (u32) per block and a usize offset column of
    // blocks + 1.
    let born_bytes = born.groups() * (F64 + 3 * U32)
        + born.blocks() * U32
        + (born.blocks() + 1) * WORD
        + windows * 40;
    let epol = &plan.epol;
    // src id, slot start, slot end, block count (u32) + margin (f64) per
    // group; two usize offset columns of groups + 1.
    let epol_bytes = epol.groups() * (4 * U32 + F64)
        + (epol.groups() + 1) * 2 * WORD
        + epol.near_runs() * 2 * U32
        + epol.far_entries() * U32;
    // Morton order keeps partners side by side: a run stands for many
    // slots, so the runs cost a fraction of one `u32` per slot.
    assert!(epol.near_runs() * 8 < epol.near_slots());
    // x, y, z, charge per atom; center x, y, z per `T_A` node; position,
    // normal, weight per q-point; the first slot of each q-leaf.
    let soa_bytes =
        (4 * solver.n_atoms() + 3 * solver.tree_a.node_count() + 7 * solver.n_qpoints()) * F64
            + (born.groups() + 1) * U32;
    let held = plan.stats().plan_bytes as usize;
    assert_eq!(
        held,
        born_bytes + epol_bytes + soa_bytes,
        "plan bytes vs list lengths"
    );
    assert_eq!(held, plan.memory_bytes());
    // A (q-leaf, partner) pair is a bit, so eight leaves' lists cost
    // little more than one leaf's: under a byte and a half per pair here.
    assert!(windows * 40 < (born.far_entries() + born.near_slots()) * 3 / 2);

    // 3,873 B/atom on this molecule (9,286 with per-leaf Born lists);
    // the ceiling sits 10 % above.
    let per_atom = held as f64 / solver.n_atoms() as f64;
    assert!(per_atom <= 4_260.0, "{per_atom:.0} B/atom");
}

/// Block cell: the Born lists are shared by blocks of eight q-leaves,
/// and nothing a caller can observe depends on where a leaf range cuts
/// them — on a globule, a capsid shell, an elongated chain and
/// degenerate inputs (one and two atoms, fewer than eight q-leaves, a
/// ragged last block). Strict replay of any partition is the recursive
/// traversal bit for bit; lane replay has its own bits, the same for
/// every partition; work counts are the traversal's on every path.
#[test]
fn born_blocks_cut_at_any_leaf_replay_the_same_sums() {
    use polar_energy::gb::born::octree::approx_integrals;
    use polar_energy::gb::born::BornPartials;
    use polar_energy::gb::kernels::QLEAF_BLOCK;

    let few_qpoints = {
        // Two atoms, three q-points: one q-leaf, one ragged block.
        let q = |x: f64| polar_energy::surface::QuadPoint {
            pos: Vec3::new(x, 0.3, 0.0),
            normal: Vec3::X,
            weight: 0.7,
            owner: 0,
        };
        GbSolver::from_parts(
            "few".into(),
            vec![Vec3::ZERO, Vec3::new(2.5, 0.0, 0.0)],
            vec![1.5; 2],
            vec![0.4, -0.4],
            vec![q(1.9), q(-1.7), q(4.2)],
            &OctreeConfig::default(),
        )
    };
    let prepared =
        |mol| GbSolver::for_molecule(&mol, &SurfaceConfig::coarse(), &OctreeConfig::default());
    let inputs = [
        ("globule", prepared(generators::globular("g", 260, 5))),
        (
            "capsid shell",
            prepared(generators::virus_shell("v", 300, 6.0, 5)),
        ),
        ("elongated chain", prepared(generators::ligand("l", 60, 5))),
        ("one atom", prepared(generators::globular("g1", 1, 5))),
        ("two atoms", prepared(generators::globular("g2", 2, 5))),
        ("three q-points", few_qpoints),
    ];
    let mut ragged = 0;
    for (name, solver) in &inputs {
        let p = GbParams::default();
        let plan = solver.plan(&p);
        let ctx = solver.born_ctx();
        let n = solver.tree_q.leaves().len();
        assert_eq!(plan.born.groups(), n, "{name}");
        assert_eq!(plan.born.blocks(), n.div_ceil(QLEAF_BLOCK), "{name}");
        ragged += (n % QLEAF_BLOCK != 0) as usize;

        let mut rec_work = WorkCounts::ZERO;
        let recursive = approx_integrals(&ctx, p.eps_born, 0..n, &mut rec_work);
        let replay = |kernel: KernelMode, cuts: &[usize]| {
            let mut partials = BornPartials::zeros(&solver.tree_a);
            let mut work = WorkCounts::ZERO;
            for range in cuts.windows(2) {
                plan.execute_born_segment(
                    &ctx,
                    range[0]..range[1],
                    kernel,
                    &mut partials,
                    &mut work,
                );
            }
            assert_eq!(
                (work.pair_ops, work.far_ops, work.nodes_visited),
                (rec_work.pair_ops, rec_work.far_ops, 0),
                "{name} {kernel:?} {cuts:?}"
            );
            partials
        };
        let strict = replay(KernelMode::Strict, &[0, n]);
        assert_eq!(strict, recursive, "{name}: strict replay vs recursion");
        let lane = replay(KernelMode::Lane, &[0, n]);
        // Every offset 1..7 into a block, as a lone cut, as the first
        // of a stride of 8 + offset (so later cuts land on every other
        // offset too), and one leaf per call.
        let mut partitions: Vec<Vec<usize>> = vec![(0..=n).collect()];
        for offset in 1..QLEAF_BLOCK {
            partitions.push(vec![0, offset.min(n), n]);
            let stride = QLEAF_BLOCK + offset;
            partitions.push((0..n).step_by(stride).chain([n]).collect());
        }
        for cuts in &partitions {
            assert_eq!(
                replay(KernelMode::Strict, cuts),
                strict,
                "{name} strict {cuts:?}"
            );
            assert_eq!(replay(KernelMode::Lane, cuts), lane, "{name} lane {cuts:?}");
        }
        let per_leaf: WorkCounts = plan.born_leaf_work().into_iter().sum();
        assert_eq!(
            (per_leaf.pair_ops, per_leaf.far_ops),
            (rec_work.pair_ops, rec_work.far_ops),
            "{name}: born_leaf_work"
        );
    }
    assert!(ragged >= 2, "no input ends in a ragged block");
}
