//! Qualitative claims of the paper, asserted as integration tests.
//! Each test names the section of the paper it checks.

use polar_energy::molecule::generators;
use polar_energy::nblist::{NbList, NbListConfig};
use polar_energy::packages::package::{amber12, gbr6, tinker60};
use polar_energy::prelude::*;

#[test]
fn sec2_octree_memory_is_cutoff_independent_nblist_is_not() {
    let mol = generators::globular("mem", 2_000, 11);
    let solver = GbSolver::for_molecule(&mol, &SurfaceConfig::coarse(), &OctreeConfig::default());
    let octree_bytes = solver.tree_a.memory_bytes();
    let pos = mol.positions();
    let nb_small = NbList::build(
        &pos,
        NbListConfig {
            cutoff: 6.0,
            skin: 0.0,
        },
    )
    .memory_bytes();
    let nb_large = NbList::build(
        &pos,
        NbListConfig {
            cutoff: 20.0,
            skin: 0.0,
        },
    )
    .memory_bytes();
    // The octree never changes with the cutoff; the nblist explodes.
    assert!(nb_large > 5 * nb_small, "{nb_small} -> {nb_large}");
    assert!(
        octree_bytes < nb_large,
        "octree {octree_bytes} vs nblist {nb_large}"
    );
}

#[test]
fn sec4a_node_division_error_constant_atom_division_error_varies() {
    use polar_energy::gb::constants::{tau, EPS_WATER};
    use polar_energy::gb::energy::octree::{epol_for_atom_segment, epol_for_leaf_segment, EpolCtx};
    use polar_energy::gb::partition::even_segments;
    use polar_energy::gb::WorkCounts;
    let mol = generators::globular("div", 400, 12);
    let solver = GbSolver::for_molecule(&mol, &SurfaceConfig::coarse(), &OctreeConfig::default());
    let params = GbParams::default();
    let (born, _) = solver.born_radii(&params);
    let ctx = EpolCtx::new(&solver.tree_a, &solver.charges, &born, params.eps_epol);
    let t = tau(EPS_WATER);
    let node_energy = |parts: usize| -> f64 {
        even_segments(solver.tree_a.leaves().len(), parts)
            .into_iter()
            .map(|r| {
                epol_for_leaf_segment(&ctx, 0.9, MathMode::Exact, t, r, &mut WorkCounts::default())
            })
            .sum()
    };
    let atom_energy = |parts: usize| -> f64 {
        even_segments(solver.n_atoms(), parts)
            .into_iter()
            .map(|r| {
                epol_for_atom_segment(&ctx, 0.9, MathMode::Exact, t, r, &mut WorkCounts::default())
            })
            .sum()
    };
    let n1 = node_energy(1);
    for p in [2usize, 5, 12] {
        assert!(
            (node_energy(p) - n1).abs() <= 1e-9 * n1.abs(),
            "node division varies at P={p}"
        );
    }
    let a1 = atom_energy(1);
    let varies = [2usize, 5, 12]
        .iter()
        .any(|&p| (atom_energy(p) - a1).abs() > 1e-12 * a1.abs());
    assert!(varies, "atom-based division should be P-dependent");
}

#[test]
fn sec4b_pure_mpi_replicates_p_times_more_memory() {
    let mol = generators::globular("rep", 300, 13);
    let solver = GbSolver::for_molecule(&mol, &SurfaceConfig::coarse(), &OctreeConfig::default());
    let params = GbParams::default();
    let run = |cfg| run_distributed_ft(&solver, &cfg, &FaultSpec::none()).expect("no faults");
    let pure = run(DistributedConfig::oct_mpi(8, params));
    let hybrid = run(DistributedConfig::oct_mpi_cilk(2, 4, params));
    assert_eq!(
        pure.total_replicated_bytes,
        4 * hybrid.total_replicated_bytes
    );
    assert!((pure.epol_kcal - hybrid.epol_kcal).abs() <= 1e-9 * pure.epol_kcal.abs());
}

#[test]
fn sec5d_tinker_energy_is_seventy_percent_class_and_small_packages_oom() {
    let mol = generators::globular("pk", 400, 14);
    let solver = GbSolver::for_molecule(&mol, &SurfaceConfig::coarse(), &OctreeConfig::default());
    let naive = {
        let p = GbParams {
            eps_born: 1e-6,
            eps_epol: 1e-6,
            ..Default::default()
        };
        solver.solve(&p).epol_kcal
    };
    let tinker = tinker60().run(&mol).unwrap().epol_kcal;
    let ratio = tinker / naive;
    assert!(
        ratio > 0.4 && ratio < 0.95,
        "Tinker/naive ratio {ratio} (paper ~0.7)"
    );
    // OOM limits (paper §V.D).
    let big = generators::globular("big", 13_500, 15);
    assert!(tinker60().run(&big).is_err());
    assert!(gbr6().run(&big).is_err());
    assert!(amber12().max_atoms.is_none());
}

#[test]
fn sec5f_octree_beats_amber_by_growing_factors() {
    // Work-ratio proxy for the speedup table: Amber's cutoff-free pair
    // count over the octree's total hierarchical work must grow with M.
    let params = GbParams::default();
    let mut ratios = Vec::new();
    for (n, seed) in [(1_000usize, 16u64), (4_000, 17)] {
        let mol = generators::globular("sp", n, seed);
        let solver =
            GbSolver::for_molecule(&mol, &SurfaceConfig::coarse(), &OctreeConfig::default());
        let r = solver.solve(&params);
        let oct_work =
            r.work_born.pair_ops + r.work_born.far_ops + r.work_epol.pair_ops + r.work_epol.far_ops;
        let amber_work = amber12().run(&mol).unwrap().work.pair_ops;
        ratios.push(amber_work as f64 / oct_work as f64);
    }
    assert!(
        ratios[1] > ratios[0],
        "octree advantage should grow with molecule size: {ratios:?}"
    );
    assert!(
        ratios[1] > 2.0,
        "expected a clear asymptotic win: {ratios:?}"
    );
}
