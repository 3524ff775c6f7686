//! Incremental re-planning perf tracking: delta-tolerant plan patching
//! vs cold planning on a moving trajectory, persisted to
//! `results/BENCH_replan.json`.
//!
//! The workload is an MD-relaxation shape: one globular molecule
//! replayed over a random-walk trajectory of bounded per-frame jitter
//! (0.02 Å — comfortably inside the default 0.1 Å node-drift
//! tolerance). Frame 0 plans cold; every later frame moves the prepared
//! solver in place and patches the existing plan when the delta
//! classifier allows it (`polar_gb::replay_frames`, the loop `polar
//! trajectory` runs). Two numbers matter:
//!
//! * `cold_plan_seconds` — what one full separation-test traversal
//!   pass costs (the price every frame pays without the delta path),
//! * `mean_patch_seconds` — what a patched frame actually paid
//!   (drift accounting + margin check + SoA refresh + splice).
//!
//! `speedup = cold_plan_seconds / mean_patch_seconds` is the headline
//! and is floored at 2.0x by CI (`replan-smoke`).
//!
//! The binary fails loudly if the accuracy contract breaks: for every
//! patched frame, a cold plan built on the *same* refreshed solver must
//! produce bitwise-identical Born radii and E_pol within 1e-12
//! relative.

use polar_bench::{fmt_secs, Scale, Table};
use polar_gb::{replay_frames, GbParams, ReplanConfig};
use polar_molecule::{generators, trajectory};
use std::fmt::Write as _;

fn main() {
    let scale = Scale::from_env();
    let (n_atoms, n_frames) = if scale == Scale::quick() {
        (400, 12)
    } else if scale == Scale::full() {
        (4_000, 24)
    } else {
        (1_500, 16)
    };
    let max_step = 0.02;
    let p = GbParams::default();
    let cfg = ReplanConfig::default();
    let mol = generators::globular("replan_walker", n_atoms, 17);
    let frames = trajectory::jitter_frames(&mol, n_frames, max_step, 3);
    eprintln!(
        "[bench_replan] {n_atoms} atoms, {n_frames} frames, step {max_step} Å, \
         tolerance {} Å",
        cfg.tolerance
    );

    // Accuracy contract (outside the timed regions), over every patched
    // frame: a patched plan must be interchangeable with a cold plan built
    // on the same refreshed solver — Born radii bitwise, E_pol to 1e-12.
    let mut max_epol_rel = 0.0f64;
    let mut contract_checks = 0usize;
    let report = replay_frames(&mol, &frames, &p, &cfg, |row, solver, result| {
        if row.action != "patched" {
            return;
        }
        let k = row.frame;
        let cold = solver.plan(&p);
        let cold_result = solver
            .solve_with_plan(&cold, &p)
            .expect("cold control plan fits");
        assert_eq!(
            result.born, cold_result.born,
            "frame {k}: patched Born radii diverged from cold plan"
        );
        let rel = (result.epol_kcal - cold_result.epol_kcal).abs() / cold_result.epol_kcal.abs();
        assert!(rel <= 1e-12, "frame {k}: patched E_pol drifted by {rel:e}");
        max_epol_rel = max_epol_rel.max(rel);
        contract_checks += 1;
    })
    .expect("the stepper keeps the plan current for its solver");
    assert!(
        report.patched_frames > 0,
        "trajectory produced no patched frame — the delta path never engaged"
    );

    let mut t = Table::new("bench_replan", &["metric", "value"]);
    t.row(vec!["frames".into(), report.frames.to_string()]);
    t.row(vec!["patched".into(), report.patched_frames.to_string()]);
    t.row(vec!["rebuilt".into(), report.rebuilt_frames.to_string()]);
    t.row(vec!["cold plan".into(), fmt_secs(report.cold_plan_seconds)]);
    t.row(vec![
        "mean patch".into(),
        fmt_secs(report.mean_patch_seconds),
    ]);
    t.row(vec!["speedup".into(), format!("{:.2}x", report.speedup)]);
    t.emit();

    let mut json = String::from("{\"schema\":\"bench_replan/v1\",");
    let _ = write!(
        json,
        "\"n_atoms\":{n_atoms},\"frames\":{},\"max_step\":{max_step},\
         \"tolerance\":{},\"patched_frames\":{},\"rebuilt_frames\":{},\
         \"reused_frames\":{},\"cold_plan_seconds\":{:.6e},\
         \"mean_patch_seconds\":{:.6e},\"speedup\":{:.4},\
         \"wall_seconds\":{:.6e},\"contract_checks\":{contract_checks},\
         \"born_bitwise_equal\":true,\"max_epol_rel_diff\":{max_epol_rel:e}}}",
        report.frames,
        cfg.tolerance,
        report.patched_frames,
        report.rebuilt_frames,
        report.reused_frames,
        report.cold_plan_seconds,
        report.mean_patch_seconds,
        report.speedup,
        report.wall_seconds,
    );
    json.push('\n');
    let dir = std::path::Path::new("results");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("[bench_replan] cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join("BENCH_replan.json");
    match std::fs::write(&path, &json) {
        Ok(()) => eprintln!("[json] wrote {}", path.display()),
        Err(e) => eprintln!("[bench_replan] cannot write {}: {e}", path.display()),
    }
    // Also persist the full per-frame ReplanReport as a CI artifact.
    let report_path = dir.join("REPLAN_report.json");
    match std::fs::write(&report_path, report.to_json() + "\n") {
        Ok(()) => eprintln!("[json] wrote {}", report_path.display()),
        Err(e) => eprintln!("[bench_replan] cannot write {}: {e}", report_path.display()),
    }

    if report.speedup < 2.0 {
        eprintln!(
            "[bench_replan] WARNING: patch speedup {:.2} < 2.0 acceptance floor",
            report.speedup
        );
        std::process::exit(1);
    }
}
