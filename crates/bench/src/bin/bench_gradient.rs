//! Plan-threaded analytic gradient perf tracking: gradients over a
//! moving trajectory with delta-tolerant plan reuse vs cold re-planning
//! every frame, persisted to `results/BENCH_gradient.json`.
//!
//! The workload is the minimizer's shape: one globular molecule
//! replayed over a random-walk trajectory of bounded per-frame jitter
//! (0.02 Å). The *reuse* pass steps the prepared solver frame to frame
//! (`polar_gb::advance`: patch where the delta classifier allows) and
//! runs `gradient_with_plan`; the *cold* pass pays a full
//! separation-test traversal before every gradient.
//!
//! `speedup = mean_cold_seconds / mean_reuse_seconds` is the headline
//! and is floored at 1.2x by CI (`gradient-smoke`).
//!
//! The binary fails loudly if the accuracy contract breaks on any
//! frame: the plan gradient must match the naive frozen-Born-radii
//! gradient to 1e-12 (relative, per component) and a central finite
//! difference of the frozen-radii energy to 1e-8 on probe atoms. A
//! short line-search minimization must descend monotonically.
use polar_bench::{fmt_secs, Scale, Table};
use polar_gb::constants::tau;
use polar_gb::energy::epol_gradient_naive;
use polar_gb::energy::exact::epol_naive;
use polar_gb::{advance, minimize, FrameAction, GbParams, GbSolver, MinimizeConfig, ReplanConfig};
use polar_molecule::{generators, trajectory};
use polar_octree::OctreeConfig;
use polar_surface::SurfaceConfig;
use std::fmt::Write as _;
use std::time::Instant;

fn build(moll: &polar_molecule::Molecule) -> GbSolver {
    GbSolver::for_molecule(moll, &SurfaceConfig::coarse(), &OctreeConfig::default())
}

fn main() {
    let scale = Scale::from_env();
    let (n_atoms, n_frames, min_iters) = if scale == Scale::quick() {
        (400, 12, 6)
    } else if scale == Scale::full() {
        (4_000, 24, 12)
    } else {
        (1_500, 16, 8)
    };
    // The FD cross-check divides a second difference of the O(n²) naive
    // energy by 2h: the reference's own summation roundoff grows with n,
    // so only the CI (quick) size holds the full 1e-8 contract.
    let fd_tol = if scale == Scale::quick() { 1e-8 } else { 1e-7 };
    let max_step = 0.02;
    let p = GbParams::default();
    let cfg = ReplanConfig::default();
    let mol = generators::globular("grad_walker", n_atoms, 17);
    let frames = trajectory::jitter_frames(&mol, n_frames, max_step, 3);
    eprintln!(
        "[bench_gradient] {n_atoms} atoms, {n_frames} frames, step {max_step} Å, \
         tolerance {} Å",
        cfg.tolerance
    );
    let wall = Instant::now();

    // ---- Reuse pass: step the frame (patch or rebuild) + plan gradient.
    let mut solver = build(&mol);
    let t = Instant::now();
    let mut plan = solver.plan(&p);
    let cold_plan_seconds = t.elapsed().as_secs_f64();
    let mut reuse_seconds = 0.0f64;
    let mut patched = 0usize;
    let mut rebuilt = 0usize;
    let mut reused = 0usize;
    // Accuracy-contract accumulators over every frame.
    let mut max_naive_rel = 0.0f64;
    let mut max_fd_rel = 0.0f64;
    let mut naive_seconds = 0.0f64;
    for (k, frame) in frames.iter().enumerate().skip(1) {
        let t_frame = Instant::now();
        match advance(&mut solver, &mut plan, &frame.positions(), &p, &cfg).action {
            FrameAction::Reused => reused += 1,
            FrameAction::Patched(_) => patched += 1,
            FrameAction::Replanned(_) => rebuilt += 1,
            FrameAction::Escaped(escaped) => {
                eprintln!("[bench_gradient] frame {k}: {escaped} points escaped, cold rebuild");
                rebuilt += 1;
            }
        }
        let res = solver
            .gradient_with_plan(&plan, &p)
            .expect("jittered geometry has no coincident atoms");
        reuse_seconds += t_frame.elapsed().as_secs_f64();

        // Contract 1 (timed separately): plan gradient vs the naive
        // frozen-Born-radii gradient, 1e-12 relative per component. The
        // timing also reproduces what the pre-plan md_relaxation paid
        // per step: a naive Born pass plus the O(n²) gradient.
        let t_naive = Instant::now();
        std::hint::black_box(solver.born_naive(&p));
        let want = epol_gradient_naive(
            &solver.atom_pos,
            &solver.charges,
            &res.born,
            tau(p.eps_solvent),
            p.math,
        )
        .expect("same geometry as the plan gradient");
        naive_seconds += t_naive.elapsed().as_secs_f64();
        let scale_g = want
            .iter()
            .flat_map(|v| [v.x.abs(), v.y.abs(), v.z.abs()])
            .fold(1e-30, f64::max);
        for (a, b) in res.grad.iter().zip(&want) {
            for (ga, gb) in [(a.x, b.x), (a.y, b.y), (a.z, b.z)] {
                let rel = (ga - gb).abs() / scale_g;
                assert!(rel <= 1e-12, "frame {k}: plan vs naive gradient {rel:e}");
                max_naive_rel = max_naive_rel.max(rel);
            }
        }
        // Contract 2: central finite difference of the frozen-radii
        // energy on probe atoms, 1e-8 relative to the gradient scale.
        let h = 1e-5;
        let tt = tau(p.eps_solvent);
        for &b in &[0usize, n_atoms / 2, n_atoms - 1] {
            for axis in 0..3 {
                let mut plus = solver.atom_pos.clone();
                let mut minus = solver.atom_pos.clone();
                match axis {
                    0 => {
                        plus[b].x += h;
                        minus[b].x -= h;
                    }
                    1 => {
                        plus[b].y += h;
                        minus[b].y -= h;
                    }
                    _ => {
                        plus[b].z += h;
                        minus[b].z -= h;
                    }
                }
                let ep = epol_naive(&plus, &solver.charges, &res.born, tt, p.math);
                let em = epol_naive(&minus, &solver.charges, &res.born, tt, p.math);
                let fd = (ep - em) / (2.0 * h);
                let got = [res.grad[b].x, res.grad[b].y, res.grad[b].z][axis];
                let rel = (got - fd).abs() / scale_g.max(fd.abs());
                assert!(rel <= fd_tol, "frame {k} atom {b} axis {axis}: fd {rel:e}");
                max_fd_rel = max_fd_rel.max(rel);
            }
        }
    }
    let mean_reuse = reuse_seconds / (n_frames - 1) as f64;
    assert!(
        patched > 0,
        "trajectory produced no patched frame — the delta path never engaged"
    );

    // ---- Cold pass: same frames, full re-plan before every gradient.
    // A negative displacement ceiling makes the stepper refuse every
    // patch, so each frame pays the exact rescan and a cold plan.
    let never_patch = ReplanConfig {
        max_displacement: -1.0,
        ..cfg
    };
    let mut cold_solver = build(&mol);
    let mut cold_plan = cold_solver.plan(&p);
    let mut cold_seconds = 0.0f64;
    for frame in frames.iter().skip(1) {
        let t_frame = Instant::now();
        let pos = frame.positions();
        advance(&mut cold_solver, &mut cold_plan, &pos, &p, &never_patch);
        cold_solver
            .gradient_with_plan(&cold_plan, &p)
            .expect("jittered geometry has no coincident atoms");
        cold_seconds += t_frame.elapsed().as_secs_f64();
    }
    let mean_cold = cold_seconds / (n_frames - 1) as f64;
    let mean_naive = naive_seconds / (n_frames - 1) as f64;
    let speedup = mean_cold / mean_reuse;
    let speedup_vs_naive = mean_naive / mean_reuse;

    // ---- Minimizer: a short line-search run must descend monotonically
    // and ride the delta path.
    let mut min_solver = build(&mol);
    let mut min_plan = min_solver.plan(&p);
    let e_start = min_solver
        .solve_with_plan(&min_plan, &p)
        .expect("fresh plan is current")
        .epol_kcal;
    let min_cfg = MinimizeConfig {
        max_iters: min_iters,
        grad_tol: 0.0,
        ..MinimizeConfig::default()
    };
    let out = minimize(&mut min_solver, &mut min_plan, &p, &min_cfg)
        .expect("generated geometry has no coincident atoms");
    let mut prev = e_start;
    for row in &out.report.rows {
        assert!(
            row.energy_kcal <= prev,
            "minimizer accepted an uphill step: {prev} -> {}",
            row.energy_kcal
        );
        prev = row.energy_kcal;
    }
    assert!(
        out.report.total_patched + out.report.total_reused > 0,
        "minimizer never used the incremental re-planning path"
    );

    let mut t = Table::new("bench_gradient", &["metric", "value"]);
    t.row(vec!["frames".into(), (n_frames - 1).to_string()]);
    t.row(vec!["patched".into(), patched.to_string()]);
    t.row(vec!["rebuilt".into(), rebuilt.to_string()]);
    t.row(vec!["reused".into(), reused.to_string()]);
    t.row(vec!["cold plan".into(), fmt_secs(cold_plan_seconds)]);
    t.row(vec!["mean grad (reuse)".into(), fmt_secs(mean_reuse)]);
    t.row(vec!["mean grad (cold)".into(), fmt_secs(mean_cold)]);
    t.row(vec!["mean grad (naive)".into(), fmt_secs(mean_naive)]);
    t.row(vec!["speedup".into(), format!("{speedup:.2}x")]);
    t.row(vec![
        "speedup vs naive".into(),
        format!("{speedup_vs_naive:.2}x"),
    ]);
    t.row(vec!["max naive rel".into(), format!("{max_naive_rel:.2e}")]);
    t.row(vec!["max fd rel".into(), format!("{max_fd_rel:.2e}")]);
    t.row(vec![
        "minimize".into(),
        format!(
            "{} iters, E {:.2} -> {:.2}",
            out.iters, e_start, out.energy_kcal
        ),
    ]);
    t.emit();

    let mut json = String::from("{\"schema\":\"bench_gradient/v1\",");
    let _ = write!(
        json,
        "\"n_atoms\":{n_atoms},\"frames\":{},\"max_step\":{max_step},\
         \"tolerance\":{},\"patched_frames\":{patched},\"rebuilt_frames\":{rebuilt},\
         \"reused_frames\":{reused},\"cold_plan_seconds\":{cold_plan_seconds:.6e},\
         \"mean_reuse_seconds\":{mean_reuse:.6e},\"mean_cold_seconds\":{mean_cold:.6e},\
         \"mean_naive_seconds\":{mean_naive:.6e},\"speedup\":{speedup:.4},\
         \"speedup_vs_naive\":{speedup_vs_naive:.4},\"max_naive_rel\":{max_naive_rel:e},\
         \"max_fd_rel\":{max_fd_rel:e},\"fd_tol\":{fd_tol:e},\"minimize_iters\":{},\
         \"minimize_monotone\":true,\"minimize_e_start\":{e_start:.6},\
         \"minimize_e_final\":{:.6},\"minimize_patched\":{},\
         \"wall_seconds\":{:.6e}}}",
        n_frames - 1,
        cfg.tolerance,
        out.iters,
        out.energy_kcal,
        out.report.total_patched + out.report.total_reused,
        wall.elapsed().as_secs_f64(),
    );
    json.push('\n');
    let dir = std::path::Path::new("results");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("[bench_gradient] cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join("BENCH_gradient.json");
    match std::fs::write(&path, &json) {
        Ok(()) => eprintln!("[json] wrote {}", path.display()),
        Err(e) => eprintln!("[bench_gradient] cannot write {}: {e}", path.display()),
    }
    // Also persist the minimizer's full GradientReport as a CI artifact.
    let report_path = dir.join("GRADIENT_report.json");
    match std::fs::write(&report_path, out.report.to_json() + "\n") {
        Ok(()) => eprintln!("[json] wrote {}", report_path.display()),
        Err(e) => eprintln!(
            "[bench_gradient] cannot write {}: {e}",
            report_path.display()
        ),
    }

    if speedup < 1.2 {
        eprintln!(
            "[bench_gradient] WARNING: plan-reuse gradient speedup {speedup:.2} \
             < 1.2 acceptance floor"
        );
        std::process::exit(1);
    }
}
