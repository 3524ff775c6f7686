//! Chaos suite: randomized fault schedules against the fault-tolerant
//! distributed driver.
//!
//! The contract under test (ISSUE acceptance):
//!
//! * for **any survivable schedule** (at least one rank alive at the
//!   end), the recovered polarization energy and Born radii match the
//!   fault-free run to 1e-12;
//! * **identical seeds produce byte-identical `FaultReport`s** — the
//!   whole fault trajectory is reproducible from `--fault-seed N`;
//! * a schedule that kills every rank returns a structured error, never
//!   a panic or a hang.

use polar_gb::{GbParams, GbSolver};
use polar_molecule::generators;
use polar_mpi::recovery::{run_distributed_ft, DistributedError, FtDistributedRun};
use polar_mpi::{CrashFault, DistributedConfig, FaultSpec};
use polar_octree::OctreeConfig;
use polar_surface::SurfaceConfig;
use proptest::prelude::*;

fn solver(n: usize, seed: u64) -> GbSolver {
    let mol = generators::globular("chaos", n, seed);
    GbSolver::for_molecule(&mol, &SurfaceConfig::coarse(), &OctreeConfig::default())
}

fn report_json(r: &Result<FtDistributedRun, DistributedError>) -> String {
    match r {
        Ok(run) => run.fault.to_json(),
        Err(DistributedError::AllRanksDead { report, .. }) => report.to_json(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Seeded schedules are survivable by construction; whatever mix of
    /// crashes, drops, stragglers, and worker panics a seed draws, the
    /// survivors must reproduce the fault-free answer.
    #[test]
    fn any_survivable_schedule_recovers_the_fault_free_answer(
        seed in 0u64..1_000_000,
        ranks in 2usize..5,
        threads in 1usize..3,
    ) {
        let s = solver(170, 5);
        let p = GbParams::default();
        let cfg = if threads == 1 {
            DistributedConfig::oct_mpi(ranks, p)
        } else {
            DistributedConfig::oct_mpi_cilk(ranks, threads, p)
        };
        let base = run_distributed_ft(&s, &cfg, &FaultSpec::none())
            .expect("the fault-free baseline cannot lose a rank");
        let spec = FaultSpec::from_seed(seed, ranks);
        prop_assert!(spec.survivable(ranks));
        let ft = run_distributed_ft(&s, &cfg, &spec)
            .expect("seeded schedules leave at least one rank alive");
        prop_assert!(
            (ft.epol_kcal - base.epol_kcal).abs() <= 1e-12 * base.epol_kcal.abs(),
            "seed {seed} P={ranks} p={threads}: {} vs {}",
            ft.epol_kcal, base.epol_kcal
        );
        for (i, (a, b)) in ft.born.iter().zip(&base.born).enumerate() {
            prop_assert!(
                (a - b).abs() <= 1e-12 * b.abs().max(1.0),
                "seed {seed}: born[{i}] {a} vs {b}"
            );
        }
        prop_assert!(!ft.survivors.is_empty());
        // Every scheduled crash that fired is accounted for.
        prop_assert_eq!(ft.fault.crashes as usize, ft.fault.dead_ranks.len());
        prop_assert_eq!(ft.fault.seed, spec.seed);
    }

    /// Re-running the same seed reproduces the fault trajectory byte for
    /// byte — the property `--fault-seed N` relies on.
    #[test]
    fn identical_seeds_give_byte_identical_fault_reports(
        seed in 0u64..1_000_000,
        ranks in 2usize..5,
    ) {
        let s = solver(150, 6);
        let cfg = DistributedConfig::oct_mpi(ranks, GbParams::default());
        let spec = FaultSpec::from_seed(seed, ranks);
        let a = run_distributed_ft(&s, &cfg, &spec);
        let b = run_distributed_ft(&s, &cfg, &spec);
        prop_assert_eq!(report_json(&a), report_json(&b));
    }

    /// Non-survivable schedules (every rank crashes) fail with a
    /// structured error and a readable message — no panic, no hang.
    #[test]
    fn killing_all_ranks_is_always_a_structured_error(
        ranks in 1usize..5,
        at in 1u64..4,
    ) {
        let s = solver(120, 7);
        let cfg = DistributedConfig::oct_mpi(ranks, GbParams::default());
        let mut spec = FaultSpec::none();
        for rank in 0..ranks {
            spec.crashes.push(CrashFault { rank, at_collective: at });
        }
        prop_assert!(!spec.survivable(ranks));
        match run_distributed_ft(&s, &cfg, &spec) {
            Err(e @ DistributedError::AllRanksDead { ranks: n, .. }) => {
                prop_assert_eq!(n, ranks);
                let msg = e.to_string();
                prop_assert!(msg.contains("not survivable"), "{}", msg);
            }
            Ok(_) => prop_assert!(false, "schedule killed every rank yet run succeeded"),
        }
    }
}

/// A spec that survives a JSON round trip drives the exact same run:
/// what the CLI loads from `--faults spec.json` is what executes.
#[test]
fn json_round_tripped_specs_reproduce_the_run() {
    let s = solver(150, 8);
    let cfg = DistributedConfig::oct_mpi(3, GbParams::default());
    let spec = FaultSpec::from_seed(42, 3);
    let reparsed = FaultSpec::parse_json(&spec.to_json()).expect("own JSON parses");
    assert_eq!(spec, reparsed);
    let a = run_distributed_ft(&s, &cfg, &spec);
    let b = run_distributed_ft(&s, &cfg, &reparsed);
    assert_eq!(report_json(&a), report_json(&b));
    let (a, b) = (a.expect("survivable"), b.expect("survivable"));
    assert_eq!(a.epol_kcal, b.epol_kcal);
    assert_eq!(a.born, b.born);
}
