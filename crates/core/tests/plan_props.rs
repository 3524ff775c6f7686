//! Property-based tests of the plan+execute engine: for random
//! molecules and approximation parameters, executing an
//! [`InteractionPlan`]'s flat lists must reproduce the recursive
//! traversals' results — Born radii bitwise, E_pol to machine
//! precision — and a plan must be reusable across repeated solves.

use polar_gb::{
    advance, Advance, FrameAction, GbParams, GbSolver, InteractionPlan, KernelMode, LeafEval,
    PlanDelta, RebuildReason, ReplanConfig,
};
use polar_molecule::{generators, trajectory, Molecule};
use polar_octree::OctreeConfig;
use polar_surface::SurfaceConfig;
use proptest::prelude::*;

fn solver_for(n: usize, seed: u64) -> GbSolver {
    let mol = generators::globular("p", n, seed);
    GbSolver::for_molecule(&mol, &SurfaceConfig::coarse(), &OctreeConfig::default())
}

fn rel(a: f64, b: f64) -> f64 {
    (a - b).abs() / b.abs().max(1.0)
}

/// The frame step written out by hand on the public primitives — the
/// reference `polar_gb::advance` is held to, and the only such loop left
/// in the workspace outside `prepared.rs`.
fn hand_written_step(
    solver: &mut GbSolver,
    plan: &mut InteractionPlan,
    frame: &Molecule,
    p: &GbParams,
    cfg: &ReplanConfig,
) -> Advance {
    match solver.apply_frame(&frame.positions(), cfg.slack, cfg.tolerance) {
        Ok(delta) => {
            let action = match plan.delta(solver, p, &delta, cfg) {
                PlanDelta::Reusable => FrameAction::Reused,
                PlanDelta::Patchable(set) => FrameAction::Patched(
                    plan.patch(solver, p, &set)
                        .expect("patch set fits its solver"),
                ),
                PlanDelta::Rebuild(why) => {
                    solver.resync_geometry();
                    *plan = solver.plan(p);
                    FrameAction::Replanned(why)
                }
            };
            Advance {
                action,
                max_disp: delta.max_disp,
            }
        }
        Err(escaped) => {
            *solver =
                GbSolver::for_molecule(frame, &SurfaceConfig::coarse(), &OctreeConfig::default());
            *plan = solver.plan(p);
            Advance {
                action: FrameAction::Escaped(escaped),
                max_disp: 0.0,
            }
        }
    }
}

/// Two plans hold the same lists: Born windows block for block, energy
/// near runs and far ids leaf for leaf, same statistics, same bytes.
fn assert_same_lists(live: &InteractionPlan, other: &InteractionPlan, ctx: &str) {
    assert_eq!(live.born.blocks(), other.born.blocks());
    for b in 0..other.born.blocks() {
        assert_eq!(
            live.born.far_windows(b),
            other.born.far_windows(b),
            "{ctx} block {b}: far windows"
        );
        assert_eq!(
            live.born.near_windows(b),
            other.born.near_windows(b),
            "{ctx} block {b}: near windows"
        );
    }
    assert_eq!(live.epol.groups(), other.epol.groups());
    for leaf in 0..other.epol.groups() {
        assert_eq!(
            live.epol.leaf_near(leaf),
            other.epol.leaf_near(leaf),
            "{ctx} leaf {leaf}: near runs"
        );
        assert_eq!(
            live.epol.leaf_far(leaf),
            other.epol.leaf_far(leaf),
            "{ctx} leaf {leaf}: far ids"
        );
    }
    assert_eq!(
        format!("{:?}", live.stats()),
        format!("{:?}", other.stats()),
        "{ctx}"
    );
    assert_eq!(live.memory_bytes(), other.memory_bytes(), "{ctx}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn strict_planned_solve_matches_recursive_solve(
        n in 60usize..260,
        seed in 0u64..40,
        eps_born in 0.05..1.2f64,
        eps_epol in 0.05..1.2f64,
    ) {
        let s = solver_for(n, seed);
        let p = GbParams {
            eps_born,
            eps_epol,
            kernel: KernelMode::Strict,
            ..GbParams::default()
        };
        let recursive = s.solve(&p);
        let plan = s.plan(&p);
        let planned = s.solve_with_plan(&plan, &p).expect("compatible plan");

        // Born radii replay the recursive accumulation order exactly.
        prop_assert_eq!(&planned.born, &recursive.born);
        // The energy loop re-associates per leaf: machine precision.
        prop_assert!(
            rel(planned.epol_kcal, recursive.epol_kcal) <= 1e-12,
            "{} vs {}", planned.epol_kcal, recursive.epol_kcal
        );
        // Same pair/far evaluation counts; executing lists visits no
        // tree nodes.
        prop_assert_eq!(planned.work_born.pair_ops, recursive.work_born.pair_ops);
        prop_assert_eq!(planned.work_born.far_ops, recursive.work_born.far_ops);
        prop_assert_eq!(planned.work_epol.pair_ops, recursive.work_epol.pair_ops);
        prop_assert_eq!(planned.work_epol.far_ops, recursive.work_epol.far_ops);
        prop_assert_eq!(planned.work_born.nodes_visited, 0);
        prop_assert_eq!(planned.work_epol.nodes_visited, 0);
    }

    #[test]
    fn lane_planned_solve_tracks_recursive_solve(
        n in 60usize..260,
        seed in 0u64..40,
        eps_born in 0.05..1.2f64,
        eps_epol in 0.05..1.2f64,
    ) {
        // The default (lane) kernels re-associate near-field sums:
        // Born radii to ulp grade, E_pol within 1e-12 relative.
        let s = solver_for(n, seed);
        let p = GbParams {
            eps_born,
            eps_epol,
            ..GbParams::default()
        };
        let recursive = s.solve(&p);
        let plan = s.plan(&p);
        let planned = s.solve_with_plan(&plan, &p).expect("compatible plan");
        for (a, b) in planned.born.iter().zip(&recursive.born) {
            prop_assert!(rel(*a, *b) <= 1e-11, "{} vs {}", a, b);
        }
        prop_assert!(
            rel(planned.epol_kcal, recursive.epol_kcal) <= 1e-12,
            "{} vs {}", planned.epol_kcal, recursive.epol_kcal
        );
        // Work accounting is kernel-independent.
        prop_assert_eq!(planned.work_born.pair_ops, recursive.work_born.pair_ops);
        prop_assert_eq!(planned.work_epol.pair_ops, recursive.work_epol.pair_ops);
        prop_assert_eq!(planned.work_epol.far_ops, recursive.work_epol.far_ops);
    }

    #[test]
    fn plan_reuse_is_deterministic(n in 60usize..200, seed in 0u64..20) {
        // One plan, many solves: every execution returns identical
        // results (the ZDock re-scoring workload's correctness premise).
        let s = solver_for(n, seed);
        let p = GbParams::default();
        let plan = s.plan(&p);
        let first = s.solve_with_plan(&plan, &p).expect("compatible plan");
        for _ in 0..3 {
            let again = s.solve_with_plan(&plan, &p).expect("compatible plan");
            prop_assert_eq!(&again.born, &first.born);
            prop_assert_eq!(again.epol_kcal, first.epol_kcal);
        }
    }

    #[test]
    fn patched_plans_match_cold_plans_across_displacements(
        n in 80usize..200,
        seed in 0u64..30,
        step in 0.002f64..0.05,
        exact_sel in 0u8..2,
    ) {
        let exact = exact_sel == 1;
        // The incremental re-planning accuracy contract, over random
        // molecules, seeds and per-frame displacement magnitudes: after
        // every frame of a jittered trajectory — whatever the classifier
        // decided (patch, rebuild, escape) — the live plan must be
        // interchangeable with a cold plan built on the same refreshed
        // solver: Born radii bitwise, E_pol within 1e-12 relative. Both
        // tolerance regimes are exercised: the drift-frozen default
        // (node geometry held bitwise until cumulative drift crosses
        // 0.1 Å) and exact mode (tolerance 0, every moved node
        // refreshed, real dirty segments spliced).
        let mol = generators::globular("walk", n, seed);
        let cfg = if exact {
            ReplanConfig { tolerance: 0.0, max_dirty_fraction: 1.0, ..ReplanConfig::default() }
        } else {
            ReplanConfig::default()
        };
        let p = GbParams { kernel: KernelMode::Strict, ..GbParams::default() };
        let frames = trajectory::jitter_frames(&mol, 4, step, seed.wrapping_add(101));
        let mut solver = GbSolver::for_molecule(
            &frames[0],
            &SurfaceConfig::coarse(),
            &OctreeConfig::default(),
        );
        let mut plan = solver.plan(&p);
        let mut patched = 0u32;
        for frame in &frames[1..] {
            let step = advance(&mut solver, &mut plan, &frame.positions(), &p, &cfg);
            patched += matches!(step.action, FrameAction::Patched(_)) as u32;
            let cold = solver.plan(&p);
            let live = solver.solve_with_plan(&plan, &p).expect("live plan is current");
            let control = solver.solve_with_plan(&cold, &p).expect("cold control fits");
            prop_assert_eq!(&live.born, &control.born);
            prop_assert!(
                rel(live.epol_kcal, control.epol_kcal) <= 1e-12,
                "{} vs {}", live.epol_kcal, control.epol_kcal
            );
        }
        // In the drift-frozen regime every step here sits inside a fresh
        // 0.1 Å budget, so the very first warm frame always patches.
        if !exact {
            prop_assert!(patched >= 1, "delta path never engaged at step {step}");
        }
    }

    #[test]
    fn epol_ctx_reusing_matches_fresh_contexts_row_for_row(
        n in 60usize..180,
        seed in 0u64..30,
        jitter in 0.0f64..0.2,
    ) {
        // Scratch-arena reuse must be invisible: building an EpolCtx
        // into recycled (dirty, differently-sized) buffers over
        // perturbed Born radii yields bitwise the same histograms,
        // nonzero-bin counts and compacted lane rows as a fresh
        // allocation.
        use polar_gb::energy::octree::EpolCtx;
        let s = solver_for(n, seed);
        let p = GbParams::default();
        let base = s.solve(&p);
        let perturbed: Vec<f64> = base
            .born
            .iter()
            .enumerate()
            .map(|(i, b)| {
                let wob = ((i.wrapping_mul(2654435761) % 1000) as f64 / 1000.0) - 0.5;
                b * (1.0 + jitter * wob)
            })
            .collect();
        // Dirty donor buffers from a context over the *unperturbed*
        // radii (different bin layout, stale contents).
        let donor = EpolCtx::new(&s.tree_a, &s.charges, &base.born, p.eps_epol);
        let buffers = donor.into_buffers();
        let fresh = EpolCtx::new(&s.tree_a, &s.charges, &perturbed, p.eps_epol);
        let reused = EpolCtx::new_reusing(&s.tree_a, &s.charges, &perturbed, p.eps_epol, buffers);
        prop_assert_eq!(fresh.memory_bytes(), reused.memory_bytes());
        for id in 0..s.tree_a.node_count() as u32 {
            prop_assert_eq!(fresh.hist_row(id), reused.hist_row(id), "node {}", id);
            prop_assert_eq!(fresh.nonzero_bin_count(id), reused.nonzero_bin_count(id));
            let (fq, fr, fri) = fresh.compact_row(id);
            let (rq, rr, rri) = reused.compact_row(id);
            prop_assert_eq!(fq, rq);
            prop_assert_eq!(fr, rr);
            prop_assert_eq!(fri, rri);
        }
        prop_assert_eq!(fresh.inv_born_slot(), reused.inv_born_slot());
        let by_slot = s.born_by_slot(&perturbed);
        prop_assert_eq!(
            fresh.inv_born_slot(),
            &Vec::from_iter(by_slot.iter().map(|&r| 1.0 / r))[..]
        );
    }

    #[test]
    fn parallel_planned_solve_matches_serial_planned(
        n in 60usize..200,
        seed in 0u64..20,
        workers in 1usize..5,
    ) {
        let s = solver_for(n, seed);
        let p = GbParams::default();
        let plan = s.plan(&p);
        let serial = s.solve_with_plan(&plan, &p).expect("compatible plan");
        let (par, report) = s.solve_report(LeafEval::Plan(&plan), &p, Some(workers))
            .expect("compatible plan");
        // Chunked execution merges per-chunk partials by addition, which
        // re-associates the per-qleaf sums — ulp-level, not bitwise.
        for (a, b) in par.born.iter().zip(&serial.born) {
            prop_assert!(rel(*a, *b) <= 1e-12, "{} vs {}", a, b);
        }
        prop_assert!(
            rel(par.epol_kcal, serial.epol_kcal) <= 1e-12,
            "{} vs {}", par.epol_kcal, serial.epol_kcal
        );
        prop_assert_eq!(report.mode.as_str(), "plan_parallel");
        let stats = report.plan.expect("planned report carries list stats");
        prop_assert!(stats.plan_bytes > 0);
        prop_assert!(report.steal.is_some());
    }
}

#[test]
fn patched_lists_equal_cold_lists_window_for_window_and_run_for_run() {
    // The Born lists are spliced a block of eight q-leaves at a time, the
    // energy lists a source leaf at a time. In exact mode (tolerance 0:
    // every moved node refreshed) each jittered frame dirties real
    // leaves, and after every patch the live plan must hold exactly the
    // windows and the near runs a cold build records — same ids, same
    // lanes, same run boundaries, same order — with no byte of slack.
    let mol = generators::globular("walk", 180, 3);
    let cfg = ReplanConfig {
        tolerance: 0.0,
        max_dirty_fraction: 1.0,
        ..ReplanConfig::default()
    };
    let p = GbParams::default();
    let frames = trajectory::jitter_frames(&mol, 25, 0.004, 104);
    let mut solver = GbSolver::for_molecule(
        &frames[0],
        &SurfaceConfig::coarse(),
        &OctreeConfig::default(),
    );
    let mut plan = solver.plan(&p);
    let (mut patched, mut dirty_leaves, mut partly_dirty) = (0, 0, 0);
    for (k, frame) in frames[1..].iter().enumerate() {
        // What the classifier will hand the stepper, from a probe copy of
        // the solver: `delta` only reads the plan.
        let mut probe = solver.clone();
        let delta = probe
            .apply_frame(&frame.positions(), cfg.slack, cfg.tolerance)
            .expect("a 0.004 A jitter stays inside the slack");
        let set = match plan.delta(&probe, &p, &delta, &cfg) {
            PlanDelta::Patchable(set) => set,
            other => panic!("frame {k}: expected a patch, got {other:?}"),
        };
        match advance(&mut solver, &mut plan, &frame.positions(), &p, &cfg).action {
            FrameAction::Patched(stats) => {
                let blocks: std::collections::BTreeSet<u32> =
                    set.dirty_born.iter().map(|l| l / 8).collect();
                partly_dirty += (set.dirty_born.len() < 8 * blocks.len()) as usize;
                dirty_leaves += set.dirty_born.len();
                assert_eq!(stats.dirty_born, set.dirty_born.len());
                assert_eq!(stats.total_born, solver.tree_q.leaves().len());
                patched += 1;
            }
            other => panic!("frame {k}: expected a patch, got {other:?}"),
        }
        let cold = solver.plan(&p);
        assert_same_lists(&plan, &cold, &format!("frame {k}"));
        for leaf in 0..cold.epol.groups() {
            assert!(
                plan.epol
                    .leaf_near(leaf)
                    .windows(2)
                    .all(|w| w[0].slots().end != w[1].slots().start),
                "frame {k} leaf {leaf}: runs are not maximal"
            );
        }
        // Aged margins never overstate a fresh one.
        for (live, fresh) in plan.born.margins().iter().zip(cold.born.margins()) {
            assert!(
                live <= fresh,
                "frame {k}: margin {live} above the cold {fresh}"
            );
        }
    }
    assert!(patched >= 20, "{patched} patched frames");
    assert!(
        dirty_leaves > 0 && partly_dirty > 0,
        "no block was re-planned for a single leaf"
    );
}

#[test]
fn the_stepper_matches_the_hand_written_loop_frame_for_frame() {
    // One seeded 30-frame walk through every branch of the frame step —
    // in-tolerance frames, an exact-mode stretch with real dirty sets, a
    // frame past `max_displacement`, one past `max_dirty_fraction`, and
    // an escape — driven twice from the same start: by `advance` and by
    // the hand-written reference above. They must agree on everything.
    let drift = ReplanConfig::default();
    let exact = ReplanConfig {
        tolerance: 0.0,
        max_dirty_fraction: 1.0,
        ..drift
    };
    let no_dirt = ReplanConfig {
        max_dirty_fraction: 0.0,
        ..exact
    };
    let schedule: Vec<(f64, ReplanConfig)> = [
        vec![(0.02, drift); 8],
        vec![(0.004, exact); 8],
        vec![(0.6, drift)],
        vec![(0.02, drift); 4],
        vec![(0.05, no_dirt)],
        vec![(0.02, drift); 3],
        vec![(5.0, drift)],
        vec![(0.02, drift); 4],
    ]
    .concat();
    assert_eq!(schedule.len(), 30);

    let p = GbParams::default();
    let mut frame = generators::globular("walk", 180, 3);
    let mut solver =
        GbSolver::for_molecule(&frame, &SurfaceConfig::coarse(), &OctreeConfig::default());
    let mut plan = solver.plan(&p);
    let (mut ref_solver, mut ref_plan) = (solver.clone(), plan.clone());
    let mut seen = [0usize; 5];
    for (k, (step, cfg)) in schedule.iter().enumerate() {
        frame = trajectory::jittered(&frame, *step, 500 + k as u64);
        let got = advance(&mut solver, &mut plan, &frame.positions(), &p, cfg);
        let want = hand_written_step(&mut ref_solver, &mut ref_plan, &frame, &p, cfg);
        assert_eq!(got, want, "frame {k}");
        seen[match &got.action {
            FrameAction::Reused => unreachable!("a jittered frame always moves"),
            FrameAction::Patched(stats) if stats.dirty_born + stats.dirty_epol == 0 => 0,
            FrameAction::Patched(_) => 1,
            FrameAction::Replanned(RebuildReason::Displacement { .. }) => 2,
            FrameAction::Replanned(RebuildReason::DirtyFraction { .. }) => 3,
            FrameAction::Replanned(RebuildReason::Incompatible(e)) => panic!("frame {k}: {e}"),
            FrameAction::Escaped(_) => 4,
        }] += 1;
        assert_same_lists(&plan, &ref_plan, &format!("frame {k}"));
        assert_eq!(solver.geom_version, ref_solver.geom_version, "frame {k}");
        assert_eq!(plan.geom_version, ref_plan.geom_version, "frame {k}");
        assert_eq!(solver.atom_pos, frame.positions(), "frame {k}");
        let live = solver.solve_with_plan(&plan, &p).expect("plan is current");
        let reference = ref_solver
            .solve_with_plan(&ref_plan, &p)
            .expect("plan is current");
        assert_eq!(live.born, reference.born, "frame {k}");
        assert_eq!(
            live.epol_kcal.to_bits(),
            reference.epol_kcal.to_bits(),
            "frame {k}"
        );
    }
    // Clean patches, dirty patches, both rebuild reasons and the escape.
    assert!(seen.iter().all(|&n| n > 0), "{seen:?}");
}

#[test]
fn a_plan_built_inside_a_pool_is_the_plan_built_outside() {
    // A pool with a worker per core leaves each worker a share of one
    // thread, so a build inside it runs inline; on a plain thread it
    // forks onto every core. The lists are the same either way.
    let solver = solver_for(2500, 47);
    let p = GbParams::default();
    let outside = solver.plan(&p);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let task = || (polar_runtime::fair_share(), solver.plan(&p));
    let (mut inside, _) = polar_runtime::run_batch(cores.max(2), vec![task]);
    let (share, inside) = inside.pop().expect("one task");
    assert_eq!(share, 1, "a full pool's worker forks nothing");
    assert_eq!(polar_runtime::fair_share(), cores);
    assert_same_lists(&inside, &outside, "inside a pool");
    assert_eq!(inside.plan_work, outside.plan_work);
}

#[test]
fn plan_report_mode_and_stats_round_trip() {
    let s = solver_for(150, 7);
    let p = GbParams::default();
    let plan = s.plan(&p);
    let (result, report) = s
        .solve_report(LeafEval::Plan(&plan), &p, None)
        .expect("compatible plan");
    assert_eq!(report.mode, "plan");
    assert_eq!(report.epol_kcal, result.epol_kcal);
    let stats = report.plan.expect("plan stats present");
    assert_eq!(stats.plan_bytes, plan.memory_bytes() as u64);
    assert!(report.to_json().contains("\"plan\":{"));
    assert_eq!(report.kernel_mode, "lane");
    assert!(report.to_json().contains("\"kernel_mode\":\"lane\""));
    assert_eq!(report.to_csv_row().split(',').count(), 42);
}

#[test]
fn foreign_or_stale_plans_are_rejected_with_typed_errors() {
    use polar_gb::PlanError;
    let s = solver_for(150, 9);
    let p = GbParams::default();
    let plan = s.plan(&p);

    // Same plan, different ε: epsilon mismatch, not wrong energies.
    let shifted = GbParams {
        eps_born: 0.5,
        ..GbParams::default()
    };
    match s.solve_with_plan(&plan, &shifted) {
        Err(PlanError::EpsilonMismatch { .. }) => {}
        other => panic!("expected EpsilonMismatch, got {other:?}"),
    }

    // A plan built from a different molecule: geometry mismatch.
    let other = solver_for(220, 10);
    match other.solve_with_plan(&plan, &p) {
        Err(PlanError::GeometryMismatch { .. }) => {}
        ok => panic!("expected GeometryMismatch, got {ok:?}"),
    }
    assert!(other
        .solve_report(LeafEval::Plan(&plan), &p, Some(2))
        .is_err());
    assert!(other.solve_report(LeafEval::Plan(&plan), &p, None).is_err());

    // Errors render a readable message naming both fingerprints.
    let msg = plan.check_compatible(&other, &p).unwrap_err().to_string();
    assert!(msg.contains("atoms"), "{msg}");
}

#[test]
fn plan_error_display_names_counts_and_eps_bits() {
    use polar_gb::PlanError;

    // Geometry mismatch spells out both expected and actual counts.
    let msg = PlanError::GeometryMismatch {
        plan: (150, 600),
        solver: (220, 900),
    }
    .to_string();
    assert!(msg.contains("150 atoms / 600 q-points"), "{msg}");
    assert!(msg.contains("220 atoms / 900 q-points"), "{msg}");

    // Epsilon mismatch names both values *and* their bit patterns —
    // two ε that print identically can still differ in the last ulp,
    // and the bits are what the cache keys on.
    let msg = PlanError::EpsilonMismatch {
        plan: (0.9, 0.9),
        requested: (0.5, 0.9),
    }
    .to_string();
    assert!(
        msg.contains(&format!("{:#018x}", 0.9f64.to_bits())),
        "{msg}"
    );
    assert!(
        msg.contains(&format!("{:#018x}", 0.5f64.to_bits())),
        "{msg}"
    );

    // Stale geometry names both versions and the remedy.
    let msg = PlanError::StaleGeometry { plan: 3, solver: 5 }.to_string();
    assert!(msg.contains("version 3"), "{msg}");
    assert!(msg.contains("version 5"), "{msg}");
    assert!(msg.contains("patch or rebuild"), "{msg}");

    // The real path produces the same rendering: a solver that moved
    // after planning refuses with the stale-geometry message.
    let mut s = solver_for(120, 13);
    let p = polar_gb::GbParams::default();
    let plan = s.plan(&p);
    let moved = s.atom_pos.clone();
    s.apply_frame(&moved, ReplanConfig::default().slack, 0.0)
        .expect("unmoved frame cannot escape");
    let msg = s.solve_with_plan(&plan, &p).unwrap_err().to_string();
    assert!(msg.contains("geometry version"), "{msg}");
}

#[test]
fn scratch_arena_solves_match_fresh_solves_bitwise() {
    use polar_gb::SolveScratch;
    let s = solver_for(180, 11);
    let p = GbParams::default();
    let plan = s.plan(&p);
    let fresh = s.solve_with_plan(&plan, &p).unwrap();
    let mut scratch = SolveScratch::new();
    for round in 0..3 {
        let reused = s.solve_with_plan_scratch(&plan, &p, &mut scratch).unwrap();
        assert_eq!(reused.born, fresh.born, "round {round}");
        assert_eq!(reused.epol_kcal, fresh.epol_kcal, "round {round}");
    }
    assert_eq!(scratch.reuses, 3);
    assert!(scratch.memory_bytes() > 0);
}
