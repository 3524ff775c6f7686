//! Property-based tests of the GB solver's core invariants.

use polar_gb::born::octree::{approx_integrals, push_integrals_to_atoms};
use polar_gb::constants::tau;
use polar_gb::energy::exact::{epol_naive, f_gb};
use polar_gb::energy::octree::{epol_for_leaf_segment, EpolCtx};
use polar_gb::partition::even_segments;
use polar_gb::{GbParams, GbSolver, LeafEval, WorkCounts};
use polar_geom::{MathMode, Vec3};
use polar_molecule::{generators, Molecule};
use polar_octree::OctreeConfig;
use polar_surface::SurfaceConfig;
use proptest::prelude::*;

fn solver_for(n: usize, seed: u64) -> GbSolver {
    let mol = generators::globular("p", n, seed);
    GbSolver::for_molecule(&mol, &SurfaceConfig::coarse(), &OctreeConfig::default())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn f_gb_is_bounded_and_monotone(
        r in 0.0..100.0f64,
        ri in 0.5..30.0f64,
        rj in 0.5..30.0f64,
    ) {
        let f = f_gb(r * r, ri, rj, MathMode::Exact);
        // Bounds: max(r, √(RiRj)e^{-r²/8RiRj}) ≤ f ≤ √(r² + RiRj).
        prop_assert!(f <= (r * r + ri * rj).sqrt() + 1e-12);
        prop_assert!(f >= r - 1e-12);
        prop_assert!(f > 0.0);
        // Monotone in r.
        let f2 = f_gb((r + 1.0) * (r + 1.0), ri, rj, MathMode::Exact);
        prop_assert!(f2 >= f - 1e-12);
    }

    #[test]
    fn born_radii_bounded_below_by_vdw(n in 50usize..250, seed in 0u64..50) {
        let s = solver_for(n, seed);
        let (born, _) = s.born_radii(&GbParams::default());
        for (b, v) in born.iter().zip(&s.atom_radii) {
            prop_assert!(*b >= *v - 1e-12);
            prop_assert!(b.is_finite());
        }
    }

    #[test]
    fn energy_partition_is_exact_for_any_segmentation(
        n in 60usize..200,
        seed in 0u64..20,
        parts in 1usize..9,
    ) {
        // Leaf-segment energies always sum to the full energy, for any
        // number of parts — the invariant the MPI reduce relies on.
        let s = solver_for(n, seed);
        let p = GbParams::default();
        let (born, _) = s.born_radii(&p);
        let ctx = EpolCtx::new(&s.tree_a, &s.charges, &born, p.eps_epol);
        let t = tau(p.eps_solvent);
        let n_leaves = s.tree_a.leaves().len();
        let full = epol_for_leaf_segment(
            &ctx, p.eps_epol, p.math, t, 0..n_leaves, &mut WorkCounts::default(),
        );
        let sum: f64 = even_segments(n_leaves, parts)
            .into_iter()
            .map(|r| {
                epol_for_leaf_segment(&ctx, p.eps_epol, p.math, t, r, &mut WorkCounts::default())
            })
            .sum();
        prop_assert!((full - sum).abs() <= 1e-9 * full.abs().max(1.0));
    }

    #[test]
    fn born_partials_are_additive_over_any_split(
        n in 60usize..200,
        seed in 0u64..20,
        frac in 0.0..1.0f64,
    ) {
        let s = solver_for(n, seed);
        let ctx = s.born_ctx();
        let n_leaves = s.tree_q.leaves().len();
        let mid = ((n_leaves as f64) * frac) as usize;
        let full = approx_integrals(&ctx, 0.9, 0..n_leaves, &mut WorkCounts::default());
        let mut a = approx_integrals(&ctx, 0.9, 0..mid, &mut WorkCounts::default());
        let b = approx_integrals(&ctx, 0.9, mid..n_leaves, &mut WorkCounts::default());
        a.add(&b);
        for (x, y) in a.s_atom.iter().zip(&full.s_atom) {
            prop_assert!((x - y).abs() <= 1e-12 * y.abs().max(1e-3));
        }
    }

    #[test]
    fn work_is_monotone_nonincreasing_in_eps(n in 100usize..300, seed in 0u64..20) {
        let s = solver_for(n, seed);
        let mut prev = u64::MAX;
        for eps in [0.1, 0.5, 0.9, 1.5] {
            let p = GbParams { eps_born: eps, eps_epol: eps, ..Default::default() };
            let r = s.solve(&p);
            let work = r.work_born.pair_ops + r.work_epol.pair_ops;
            prop_assert!(work <= prev, "pair work grew with eps at {eps}");
            prev = work;
        }
    }

    #[test]
    fn energy_scales_quadratically_with_charges(n in 50usize..150, seed in 0u64..20, k in 0.1..3.0f64) {
        // E_pol is a quadratic form in the charge vector: scaling all
        // charges by k scales the energy by k².
        let mol = generators::globular("q", n, seed);
        let scaled = Molecule::new(
            "q2",
            mol.atoms.iter().map(|a| polar_molecule::Atom { charge: a.charge * k, ..*a }).collect(),
        );
        let cfg = SurfaceConfig::coarse();
        let tree = OctreeConfig::default();
        let p = GbParams::default();
        let e1 = GbSolver::for_molecule(&mol, &cfg, &tree).solve(&p).epol_kcal;
        let e2 = GbSolver::for_molecule(&scaled, &cfg, &tree).solve(&p).epol_kcal;
        prop_assert!((e2 - k * k * e1).abs() <= 1e-6 * e1.abs().max(1e-9), "{e2} vs k²·{e1}");
    }

    #[test]
    fn naive_energy_is_negative_for_nonzero_charges(
        charges in prop::collection::vec(-1.0..1.0f64, 2..20),
    ) {
        // −τ/2·Σ q_i q_j/f_ij with f from a valid metric is negative
        // definite (GB's defining property) — check on a line of atoms.
        prop_assume!(charges.iter().any(|q| q.abs() > 1e-6));
        let pos: Vec<Vec3> = (0..charges.len())
            .map(|i| Vec3::new(i as f64 * 3.0, 0.0, 0.0))
            .collect();
        let born = vec![2.0; charges.len()];
        let e = epol_naive(&pos, &charges, &born, tau(80.0), MathMode::Exact);
        prop_assert!(e < 0.0, "E_pol = {e} not negative");
    }

    #[test]
    fn report_stage_work_equals_per_leaf_sums(n in 60usize..200, seed in 0u64..20) {
        // The SolveReport's stage totals must equal the sum of the
        // per-leaf work profiles — the same decomposition the cluster
        // simulator replays — and must be schedule-independent: the
        // parallel report agrees exactly with the serial one.
        let s = solver_for(n, seed);
        let p = GbParams::default();
        let (result, report) = s.solve_report(LeafEval::Traverse, &p, None).unwrap();
        let born_leaf: WorkCounts = s.born_work_per_qleaf(&p).into_iter().sum();
        prop_assert_eq!(report.stage("born").work.pair_ops, born_leaf.pair_ops);
        prop_assert_eq!(report.stage("born").work.far_ops, born_leaf.far_ops);
        let epol_leaf: WorkCounts =
            s.epol_work_per_leaf(&result.born, &p).into_iter().sum();
        prop_assert_eq!(report.stage("epol").work.pair_ops, epol_leaf.pair_ops);
        prop_assert_eq!(report.stage("epol").work.far_ops, epol_leaf.far_ops);
        let (_, par) = s.solve_report(LeafEval::Traverse, &p, Some(4)).unwrap();
        prop_assert_eq!(par.stage("born").work, report.stage("born").work);
        prop_assert_eq!(par.stage("epol").work, report.stage("epol").work);
        prop_assert_eq!(par.total_work(), report.total_work());
    }

    #[test]
    fn push_covers_every_atom_exactly_once(n in 60usize..200, seed in 0u64..20) {
        let s = solver_for(n, seed);
        let ctx = s.born_ctx();
        let totals =
            approx_integrals(&ctx, 0.9, 0..s.tree_q.leaves().len(), &mut WorkCounts::default());
        let mut born = vec![f64::NAN; n];
        push_integrals_to_atoms(&ctx, &totals, 0..n, MathMode::Exact, &mut born);
        prop_assert!(born.iter().all(|b| b.is_finite()), "some atom never visited");
    }
}
