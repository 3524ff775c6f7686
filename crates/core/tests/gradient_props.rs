//! Property-based tests of the plan-path analytic gradient: for random
//! molecules, kernel modes, and plan provenance (cold-built vs
//! patched), [`GbSolver::gradient_with_plan`] must reproduce the naive
//! frozen-Born-radii gradient to machine grade, match a central finite
//! difference of the frozen-radii energy, conserve momentum (zero net
//! force and torque — the gradient is a sum of antisymmetric central
//! pair forces), and be bitwise segmentation-invariant at fixed Born
//! radii (run-to-run deterministic for any steal schedule).

use polar_gb::constants::tau;
use polar_gb::energy::exact::epol_naive;
use polar_gb::energy::{epol_gradient_naive, net_torque};
use polar_gb::{advance, FrameAction, GbParams, GbSolver, KernelMode, ReplanConfig};
use polar_geom::Vec3;
use polar_molecule::{generators, trajectory};
use polar_octree::OctreeConfig;
use polar_surface::SurfaceConfig;
use proptest::prelude::*;

fn solver_for(n: usize, seed: u64) -> GbSolver {
    let mol = generators::globular("g", n, seed);
    GbSolver::for_molecule(&mol, &SurfaceConfig::coarse(), &OctreeConfig::default())
}

fn params(kernel: KernelMode) -> GbParams {
    GbParams {
        kernel,
        ..GbParams::default()
    }
}

/// Largest absolute gradient component — the scale the per-component
/// tolerances are relative to.
fn grad_scale(g: &[Vec3]) -> f64 {
    g.iter()
        .flat_map(|v| [v.x.abs(), v.y.abs(), v.z.abs()])
        .fold(1e-30, f64::max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn plan_gradient_matches_naive_both_kernel_modes(
        n in 50usize..220,
        seed in 0u64..40,
        lane in 0u8..2,
    ) {
        let kernel = if lane == 1 { KernelMode::Lane } else { KernelMode::Strict };
        let s = solver_for(n, seed);
        let p = params(kernel);
        let plan = s.plan(&p);
        let res = s.gradient_with_plan(&plan, &p).expect("clean geometry");
        // The naive reference must freeze the *same* Born radii the plan
        // path solved for.
        let want = epol_gradient_naive(
            &s.atom_pos,
            &s.charges,
            &res.born,
            tau(p.eps_solvent),
            p.math,
        )
        .expect("clean geometry");
        let scale = grad_scale(&want);
        for (a, b) in res.grad.iter().zip(&want) {
            prop_assert!((a.x - b.x).abs() <= 1e-12 * scale, "{a:?} vs {b:?}");
            prop_assert!((a.y - b.y).abs() <= 1e-12 * scale, "{a:?} vs {b:?}");
            prop_assert!((a.z - b.z).abs() <= 1e-12 * scale, "{a:?} vs {b:?}");
        }
        // Energy rides along and matches the plan solve.
        let e = s.solve_with_plan(&plan, &p).expect("compatible plan");
        prop_assert_eq!(res.epol_kcal, e.epol_kcal);
        prop_assert_eq!(&res.born, &e.born);
    }

    #[test]
    fn plan_gradient_matches_central_finite_difference(
        n in 30usize..90,
        seed in 0u64..30,
        lane in 0u8..2,
    ) {
        let kernel = if lane == 1 { KernelMode::Lane } else { KernelMode::Strict };
        let s = solver_for(n, seed);
        let p = params(kernel);
        let plan = s.plan(&p);
        let res = s.gradient_with_plan(&plan, &p).expect("clean geometry");
        let t = tau(p.eps_solvent);
        let scale = grad_scale(&res.grad);
        let h = 1e-5;
        // Probe a handful of atoms (FD is O(n) energy evaluations each);
        // every component of each probed atom must agree to 1e-8
        // relative to the gradient scale.
        let probes = [0usize, n / 3, n / 2, n - 1];
        for &b in &probes {
            for axis in 0..3 {
                let mut plus = s.atom_pos.clone();
                let mut minus = s.atom_pos.clone();
                match axis {
                    0 => { plus[b].x += h; minus[b].x -= h; }
                    1 => { plus[b].y += h; minus[b].y -= h; }
                    _ => { plus[b].z += h; minus[b].z -= h; }
                }
                // Frozen radii: the FD energy uses the base Born radii on
                // both sides, matching the gradient's model exactly.
                let ep = epol_naive(&plus, &s.charges, &res.born, t, p.math);
                let em = epol_naive(&minus, &s.charges, &res.born, t, p.math);
                let fd = (ep - em) / (2.0 * h);
                let got = match axis {
                    0 => res.grad[b].x,
                    1 => res.grad[b].y,
                    _ => res.grad[b].z,
                };
                prop_assert!(
                    (got - fd).abs() <= 1e-8 * scale.max(fd.abs()),
                    "atom {b} axis {axis}: analytic {got} vs fd {fd}"
                );
            }
        }
    }

    #[test]
    fn patched_plan_gradient_stays_exact_for_its_born_radii(
        n in 60usize..200,
        seed in 0u64..30,
        amplitude in 0.002..0.05f64,
    ) {
        // Default tolerance: node geometry drifts frozen, so the
        // *Born radii* of a patched plan legitimately differ from a cold
        // solver's by O(tolerance). The gradient engine's exactness
        // claim is provenance-independent: whatever Born radii the
        // patched plan produced, the gradient must match the naive
        // frozen-radii reference for those radii to machine grade.
        let mut s = solver_for(n, seed);
        let p = GbParams::default();
        let mut plan = s.plan(&p);
        let cfg = ReplanConfig::default();
        let mol = generators::globular("g", n, seed);
        let frames = trajectory::jitter_frames(&mol, 4, amplitude, seed ^ 0x9e37);
        let mut saw_patch = false;
        for frame_mol in frames.iter().skip(1) {
            match advance(&mut s, &mut plan, &frame_mol.positions(), &p, &cfg).action {
                FrameAction::Escaped(_) => break, // left the slack boxes: out of scope here
                FrameAction::Patched(_) => saw_patch = true,
                FrameAction::Reused | FrameAction::Replanned(_) => {}
            }
            let res = s.gradient_with_plan(&plan, &p).expect("clean geometry");
            let want = epol_gradient_naive(
                &s.atom_pos,
                &s.charges,
                &res.born,
                tau(p.eps_solvent),
                p.math,
            )
            .expect("clean geometry");
            let scale = grad_scale(&want);
            for (a, b) in res.grad.iter().zip(&want) {
                prop_assert!((a.x - b.x).abs() <= 1e-12 * scale, "{a:?} vs {b:?}");
                prop_assert!((a.y - b.y).abs() <= 1e-12 * scale, "{a:?} vs {b:?}");
                prop_assert!((a.z - b.z).abs() <= 1e-12 * scale, "{a:?} vs {b:?}");
            }
        }
        // The amplitude range is chosen to keep frames patchable; if no
        // frame patched, the property lost its subject.
        prop_assert!(saw_patch, "no frame exercised the patch path");
    }

    #[test]
    fn exact_geometry_patched_plan_gradient_matches_cold_plan(
        n in 60usize..160,
        seed in 0u64..20,
        amplitude in 0.0003..0.0012f64,
    ) {
        // tolerance = 0 refreshes node geometry exactly every frame, so
        // a patched plan's lists equal a cold plan built on the same
        // solver (same trees, same separation decisions) — the gradient
        // then replays the identical summation order, bitwise. (A
        // from-scratch *solver* would differ at O(ε): rebuilding the
        // octree re-partitions space and flips near/far decisions.)
        let mut s = solver_for(n, seed);
        let p = GbParams::default();
        let mut plan = s.plan(&p);
        let cfg = ReplanConfig {
            tolerance: 0.0,
            ..ReplanConfig::default()
        };
        let mol = generators::globular("g", n, seed);
        let frames = trajectory::jitter_frames(&mol, 3, amplitude, seed ^ 0x51f1);
        let mut saw_patch = false;
        for frame_mol in frames.iter().skip(1) {
            match advance(&mut s, &mut plan, &frame_mol.positions(), &p, &cfg).action {
                FrameAction::Escaped(n) => panic!("a sub-milli-angstrom step escaped {n} points"),
                FrameAction::Patched(_) => saw_patch = true,
                FrameAction::Reused | FrameAction::Replanned(_) => {}
            }
            let patched = s.gradient_with_plan(&plan, &p).expect("clean geometry");
            let cold_plan = s.plan(&p);
            let cold = s
                .gradient_with_plan(&cold_plan, &p)
                .expect("clean geometry");
            for (a, b) in patched.grad.iter().zip(&cold.grad) {
                prop_assert_eq!(a.x.to_bits(), b.x.to_bits(), "{:?} vs {:?}", a, b);
                prop_assert_eq!(a.y.to_bits(), b.y.to_bits(), "{:?} vs {:?}", a, b);
                prop_assert_eq!(a.z.to_bits(), b.z.to_bits(), "{:?} vs {:?}", a, b);
            }
        }
        prop_assert!(saw_patch, "no frame exercised the patch path");
    }

    #[test]
    fn net_force_and_torque_vanish_on_plan_path(
        n in 50usize..250,
        seed in 0u64..40,
        lane in 0u8..2,
    ) {
        let kernel = if lane == 1 { KernelMode::Lane } else { KernelMode::Strict };
        let s = solver_for(n, seed);
        let p = params(kernel);
        let plan = s.plan(&p);
        let res = s.gradient_with_plan(&plan, &p).expect("clean geometry");
        let scale = grad_scale(&res.grad) * n as f64;
        let f: Vec3 = res.grad.iter().fold(Vec3::ZERO, |acc, g| acc + *g);
        prop_assert!(f.norm() <= 1e-11 * scale, "net force {f:?}");
        let t = net_torque(&s.atom_pos, &res.grad);
        // Torque picks up position lever arms: widen by the system size.
        let lever = s
            .atom_pos
            .iter()
            .map(|x| x.norm())
            .fold(0.0, f64::max)
            .max(1.0);
        prop_assert!(t.norm() <= 1e-11 * scale * lever, "net torque {t:?}");
    }

    #[test]
    fn gradient_stage_is_bitwise_segmentation_invariant(
        n in 60usize..260,
        seed in 0u64..40,
        cut_num in 1usize..8,
    ) {
        // The determinism claim of the gradient stage proper: for FIXED
        // Born radii, any partition of the leaf range into segments
        // produces bitwise-identical output, because each leaf's targets
        // occupy a disjoint slot span and each target's block sequence is
        // fixed by the plan. (End-to-end serial vs parallel is only
        // ulp-grade — the parallel Born stage re-associates partials.)
        let s = solver_for(n, seed);
        let p = GbParams::default();
        let plan = s.plan(&p);
        let solve = s.solve_with_plan(&plan, &p).expect("compatible plan");
        let order = s.tree_a.order();
        let mut born_slot = vec![0.0; n];
        for (slot, &atom) in order.iter().enumerate() {
            born_slot[slot] = solve.born[atom as usize];
        }
        let inv_born: Vec<f64> = born_slot.iter().map(|r| 1.0 / r).collect();
        let t = tau(p.eps_solvent);
        let leaves = s.tree_a.leaves();
        let n_leaves = leaves.len();

        let run = |ranges: &[std::ops::Range<usize>]| {
            let (mut gx, mut gy, mut gz) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
            for r in ranges {
                if r.is_empty() {
                    continue;
                }
                let lo = s.tree_a.node(leaves[r.start]).start as usize;
                let hi = s.tree_a.node(leaves[r.end - 1]).end as usize;
                let mut counts = polar_gb::WorkCounts::ZERO;
                plan.execute_gradient_segment(
                    &s.tree_a,
                    &born_slot,
                    &inv_born,
                    p.math,
                    p.kernel,
                    t,
                    r.clone(),
                    lo,
                    &mut gx[lo..hi],
                    &mut gy[lo..hi],
                    &mut gz[lo..hi],
                    &mut counts,
                )
                .expect("clean geometry");
            }
            (gx, gy, gz)
        };

        // A one-element slice of leaf ranges, not a range of leaves.
        #[allow(clippy::single_range_in_vec_init)]
        let whole = run(&[0..n_leaves]);
        let cut = (cut_num * n_leaves) / 8;
        let split = run(&[0..cut, cut..n_leaves]);
        for k in 0..n {
            prop_assert_eq!(whole.0[k].to_bits(), split.0[k].to_bits());
            prop_assert_eq!(whole.1[k].to_bits(), split.1[k].to_bits());
            prop_assert_eq!(whole.2[k].to_bits(), split.2[k].to_bits());
        }
    }

    #[test]
    fn parallel_gradient_is_deterministic_and_tracks_serial(
        n in 60usize..260,
        seed in 0u64..40,
        workers in 2usize..7,
    ) {
        let s = solver_for(n, seed);
        let p = GbParams::default();
        let plan = s.plan(&p);
        let serial = s.gradient_with_plan(&plan, &p).expect("clean geometry");
        let (par, report) = s
            .gradient_report(&plan, &p, Some(workers))
            .expect("clean geometry");
        // Same worker count, different steal schedule: the merge is by
        // task index, so a re-run must not perturb a single bit.
        let (par2, _) = s
            .gradient_report(&plan, &p, Some(workers))
            .expect("clean geometry");
        for (a, b) in par.grad.iter().zip(&par2.grad) {
            prop_assert_eq!(a.x.to_bits(), b.x.to_bits());
            prop_assert_eq!(a.y.to_bits(), b.y.to_bits());
            prop_assert_eq!(a.z.to_bits(), b.z.to_bits());
        }
        // Against the serial path the Born stage re-associates, so the
        // agreement is ulp-grade relative, not bitwise.
        let scale = grad_scale(&serial.grad);
        for (a, b) in serial.grad.iter().zip(&par.grad) {
            prop_assert!((a.x - b.x).abs() <= 1e-11 * scale, "{a:?} vs {b:?}");
            prop_assert!((a.y - b.y).abs() <= 1e-11 * scale, "{a:?} vs {b:?}");
            prop_assert!((a.z - b.z).abs() <= 1e-11 * scale, "{a:?} vs {b:?}");
        }
        assert_eq!(report.mode, "plan_gradient_parallel");
        prop_assert!(report.stages.iter().any(|st| st.name == "gradient"));
    }
}
