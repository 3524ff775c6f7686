//! Pins the summation order of the plan-execute kernels (see the
//! "Pinned summation order" section of `polar_gb::plan`'s module docs).
//!
//! The lane kernels accumulate `LANE_WIDTH` partial sums in slot order
//! and reduce them low→high, so the result depends on the lane width.
//! Reproducibility therefore requires the width to be *pinned*: these
//! tests lock `LANE_WIDTH == 8`, verify that the dispatched kernel and
//! the strict scalar order agree only to tolerance (i.e. the reduction
//! order genuinely matters, which is why it is pinned), and assert that
//! every mode is bitwise deterministic run-to-run and independent of
//! how a segment range is chunked. Agreement *between* the ISA tiers of
//! one kernel is the unit tests' job (`polar_gb::kernels`), where the
//! tiers are reachable.

use polar_gb::constants::tau;
use polar_gb::energy::exact::gb_pair;
use polar_gb::energy::EpolCtx;
use polar_gb::kernels::{self, KernelMode, LANE_WIDTH};
use polar_gb::{GbParams, GbSolver, WorkCounts};
use polar_geom::MathMode;
use polar_molecule::generators;
use polar_octree::OctreeConfig;
use polar_surface::SurfaceConfig;

/// The seeded 2k-atom molecule the pin is defined against.
fn big_solver() -> GbSolver {
    let mol = generators::globular("pin2k", 2000, 42);
    GbSolver::for_molecule(&mol, &SurfaceConfig::coarse(), &OctreeConfig::default())
}

#[test]
fn lane_width_is_pinned_to_eight() {
    // Changing this is a results-schema-level change: lane-mode energies
    // move by ulps and stop matching archived BENCH_kernels.json runs.
    assert_eq!(LANE_WIDTH, 8);
}

#[test]
fn epol_segment_summation_order_is_pinned_across_widths_and_modes() {
    let s = big_solver();
    let p = GbParams::default();
    let plan = s.plan(&p);
    let (born, _) = s.born_radii(&p);
    let born_slot = s.born_by_slot(&born);
    let ectx = EpolCtx::new(&s.tree_a, &s.charges, &born, p.eps_epol);
    let t = tau(p.eps_solvent);
    let n_leaves = s.tree_a.leaves().len();

    let run = |kernel: KernelMode| {
        let mut w = WorkCounts::ZERO;
        plan.execute_epol_segment(
            &ectx,
            &born_slot,
            MathMode::Exact,
            kernel,
            t,
            0..n_leaves,
            &mut w,
        )
    };

    // Scalar (strict) vs dispatched 8-wide lane: the accuracy contract.
    let strict = run(KernelMode::Strict);
    let lane = run(KernelMode::Lane);
    assert!(
        (strict - lane).abs() <= 1e-12 * strict.abs(),
        "{strict} vs {lane}"
    );

    // Both modes are bitwise deterministic run-to-run — the summation
    // order is a function of the plan alone, not of scheduling.
    assert_eq!(strict.to_bits(), run(KernelMode::Strict).to_bits());
    assert_eq!(lane.to_bits(), run(KernelMode::Lane).to_bits());

    // Chunking a segment range: each segment is scaled by -τ/2 before
    // the caller adds it, so the partition moves the result only at ulp
    // level — but any *fixed* partition is bitwise reproducible (what
    // the distributed drivers and batch engine actually rely on).
    for kernel in [KernelMode::Strict, KernelMode::Lane] {
        let whole = run(kernel);
        for n_chunks in [2, 3, 7] {
            let chunked = || {
                let mut acc = 0.0;
                let step = n_leaves.div_ceil(n_chunks);
                let mut start = 0;
                while start < n_leaves {
                    let end = (start + step).min(n_leaves);
                    let mut w = WorkCounts::ZERO;
                    acc += plan.execute_epol_segment(
                        &ectx,
                        &born_slot,
                        MathMode::Exact,
                        kernel,
                        t,
                        start..end,
                        &mut w,
                    );
                    start = end;
                }
                acc
            };
            let acc = chunked();
            assert!(
                (whole - acc).abs() <= 1e-13 * whole.abs(),
                "{kernel:?} x{n_chunks}: {whole} vs {acc}"
            );
            assert_eq!(acc.to_bits(), chunked().to_bits(), "{kernel:?} x{n_chunks}");
        }
    }
}

#[test]
fn dispatched_near_kernel_agrees_with_the_scalar_order_to_tolerance_only() {
    // Feed the near kernel real columns of the seeded 2k molecule: one
    // run of a ragged length (125 loaded windows and a 3-lane tail)
    // against the last six atoms. Eight lanes reduce in a different
    // order than the scalar double loop: they agree to ulp grade, and
    // each is deterministic.
    let s = big_solver();
    let p = GbParams::default();
    let (born, _) = s.born_radii(&p);
    let mol = generators::globular("pin2k", 2000, 42);
    let n = 1003; // ragged: not a multiple of the width
    let column = |f: &dyn Fn(usize) -> f64| Vec::from_iter((0..n).map(f));
    let atoms = [
        column(&|i| mol.atoms[i].pos.x),
        column(&|i| mol.atoms[i].pos.y),
        column(&|i| mol.atoms[i].pos.z),
        column(&|i| mol.atoms[i].charge),
        column(&|i| born[i]),
        column(&|i| 1.0 / born[i]),
    ];
    let [x, y, z, q, r, _] = &atoms;

    let mut scalar = 0.0;
    for a in 997..n {
        for b in 0..n {
            let r_sq = (x[b] - x[a]).powi(2) + (y[b] - y[a]).powi(2) + (z[b] - z[a]).powi(2);
            scalar += gb_pair(q[a], q[b], r_sq, r[a], r[b], MathMode::Exact);
        }
    }
    let a = atoms.each_ref().map(|c| c.as_slice());
    let run = [kernels::Run {
        start: 0,
        len: n as u32,
    }];
    let dispatched = kernels::epol_near_runs(&run, a, a.map(|c| &c[997..]));
    assert!(
        (dispatched - scalar).abs() <= 1e-12 * scalar.abs().max(1.0),
        "{dispatched} vs {scalar}"
    );
    let again = kernels::epol_near_runs(&run, a, a.map(|c| &c[997..]));
    assert_eq!(dispatched.to_bits(), again.to_bits());
}

#[test]
fn born_segment_is_pinned_the_same_way() {
    // Same contract for the Born stage: per-mode determinism for both
    // lists (strict replays the recursive arithmetic, lane runs the
    // blocked kernels with the pinned width), all of it
    // chunking-invariant although eight q-leaves share one window list:
    // every accumulator takes its terms in ascending q-leaf order, so a
    // range may cut a block at any of its seven interior offsets.
    let s = big_solver();
    let p = GbParams::default();
    let plan = s.plan(&p);
    let ctx = s.born_ctx();
    let n_qleaves = s.tree_q.leaves().len();
    assert_eq!(kernels::QLEAF_BLOCK, 8);

    for kernel in [KernelMode::Strict, KernelMode::Lane] {
        let mut whole = polar_gb::born::octree::BornPartials::zeros(&s.tree_a);
        let mut w = WorkCounts::ZERO;
        plan.execute_born_segment(&ctx, 0..n_qleaves, kernel, &mut whole, &mut w);

        // A fifth of the leaves at a time, then strides of 9 … 15
        // leaves, which walk through every offset into a block.
        for step in std::iter::once(n_qleaves.div_ceil(5)).chain(9..16) {
            let mut chunked = polar_gb::born::octree::BornPartials::zeros(&s.tree_a);
            let mut cw = WorkCounts::ZERO;
            for start in (0..n_qleaves).step_by(step) {
                let end = (start + step).min(n_qleaves);
                plan.execute_born_segment(&ctx, start..end, kernel, &mut chunked, &mut cw);
            }
            assert_eq!(whole.s_node, chunked.s_node, "{kernel:?} step {step}");
            assert_eq!(whole.s_atom, chunked.s_atom, "{kernel:?} step {step}");
            assert_eq!(w, cw, "{kernel:?} step {step}");
        }
    }
}
