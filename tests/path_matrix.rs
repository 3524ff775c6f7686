//! The path matrix: every way this workspace can solve one molecule,
//! each held against the serial traversal `GbSolver::solve` at the
//! tolerance that path states.
//!
//! Rows are {serial, pooled at 1 and 3 workers, distributed at P×p =
//! 1×1, 3×1, 2×2, one scheduled crash}; columns are the leaf evaluators
//! {traversal, plan in strict-fp mode, plan in lane mode}. Within an
//! evaluator the stage `WorkCounts` are identical on every fault-free
//! path (work is schedule- and division-independent); one rank × one
//! thread replays the serial accumulation order and is therefore equal
//! bit for bit.

use polar_energy::gb::{KernelMode, WorkCounts};
use polar_energy::molecule::generators;
use polar_energy::mpi::{CrashFault, FtDistributedRun};
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
    let layouts = [(1, 1), (3, 1), (2, 2)];

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

        let report: Outcome = solver.solve_report(eval, &p).unwrap().0.into();
        assert_bitwise(&format!("{col} solve_report"), &report, &reference);
        assert_eq!(report.work, reference.work, "{col} solve_report");

        for workers in [1, 3] {
            let name = format!("{col} pooled x{workers}");
            let got: Outcome = solver
                .solve_pooled_report(eval, &p, workers)
                .unwrap()
                .0
                .into();
            assert_close(&name, &got, &serial, tol_epol, tol_born);
            assert_eq!(got.work, reference.work, "{name}");
        }

        let mut cfg = DistributedConfig::oct_mpi(1, p);
        cfg.use_plan = plan.is_some();
        for (ranks, threads) in layouts {
            let name = format!("{col} distributed {ranks}x{threads}");
            cfg.ranks = ranks;
            cfg.threads_per_rank = threads;
            let got = Outcome::from(&distributed(&cfg, &FaultSpec::none()));
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
}

/// Footprint cell: a plan holds two `u32` words per entry class (near
/// partner slots, far partner node ids), a handful of per-group columns
/// and the SoA coordinate mirrors — nothing else, and no `Vec` growth
/// slack. A reintroduced per-entry column (a source id or a slot range
/// beside every partner) breaks the equality and the ceiling.
#[test]
fn plan_footprint_is_its_list_lengths() {
    let mol = generators::globular("matrix", 300, 12);
    let solver = GbSolver::for_molecule(&mol, &SurfaceConfig::coarse(), &OctreeConfig::default());
    let plan = solver.plan(&GbParams::default());

    const U32: usize = std::mem::size_of::<u32>();
    const WORD: usize = std::mem::size_of::<usize>();
    const F64: usize = std::mem::size_of::<f64>();
    let stage_bytes = |l: &polar_energy::gb::StageLists| {
        // src id, slot start, slot end, block count (u32) + margin
        // (f64) per group; two usize offset columns of groups + 1.
        l.groups() * (4 * U32 + F64)
            + (l.groups() + 1) * 2 * WORD
            + (l.near_slots() + l.far_entries()) * U32
    };
    // x, y, z, charge per atom; center x, y, z per `T_A` node; position,
    // normal, weight per q-point.
    let soa_bytes =
        (4 * solver.n_atoms() + 3 * solver.tree_a.node_count() + 7 * solver.n_qpoints()) * F64;
    let expected = stage_bytes(&plan.born) + stage_bytes(&plan.epol) + soa_bytes;
    let held = plan.stats().plan_bytes as usize;
    assert_eq!(held, expected, "plan bytes vs list lengths");
    assert_eq!(held, plan.memory_bytes());

    // 9,286 B/atom on this molecule; the ceiling sits 10 % above.
    let per_atom = held as f64 / solver.n_atoms() as f64;
    assert!(per_atom <= 10_200.0, "{per_atom:.0} B/atom");
}
