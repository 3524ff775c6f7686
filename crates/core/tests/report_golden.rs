//! Golden bytes of every report emitter.
//!
//! The literals below were captured from the commit *before* the
//! emitters were rewritten over per-report field lists (PR 14) and must
//! keep passing unchanged: `results/*.csv`, the CLI `--profile` output,
//! the CI's python asserts and the benchmark all read these bytes. Two
//! fixtures per report type: one fully populated (every optional section
//! `Some`, a name with `,` `"` newline and a control character, one
//! failed batch row) and one all-default / all-NaN.
//!
//! The only bytes that differ from that parent commit are pinned by
//! `integers_at_or_above_2_pow_53_are_written_exactly`: the parent pushed
//! every integer through `f64`.

use polar_gb::json::Json;
use polar_gb::report::{
    BatchJobRow, CommReport, FaultEvent, FaultReport, PlanReport, StageReport, StealReport,
    TreeDepthStats,
};
use polar_gb::{
    BatchReport, GradientIterRow, GradientReport, Histogram, ReplanFrameRow, ReplanReport,
    ServeReport, SolveReport, WorkCounts,
};

const NASTY: &str = "1a,b\"c\nd\u{1}e\\f\tg";

fn fault_full() -> FaultReport {
    FaultReport {
        seed: 7,
        crashes: 1,
        drops: 2,
        msg_retries: 3,
        worker_retries: 4,
        redivisions: 5,
        recovered_items: 17,
        dead_ranks: vec![1, 3],
        straggler_extra_seconds: 0.25,
        events: vec![
            FaultEvent {
                at_collective: 2,
                kind: "drop".into(),
                rank: 0,
                peer: Some(2),
                detail: "lost 2x".into(),
            },
            FaultEvent {
                at_collective: 3,
                kind: "crash".into(),
                rank: 1,
                peer: None,
                detail: NASTY.into(),
            },
        ],
    }
}

fn solve_full() -> SolveReport {
    SolveReport {
        molecule: NASTY.into(),
        mode: "oct_mpi_cilk_ft".into(),
        kernel_mode: "lane".into(),
        n_atoms: 100,
        n_qpoints: 2000,
        eps_born: 0.9,
        eps_epol: 0.5,
        epol_kcal: -123.456,
        stages: vec![
            StageReport {
                name: "born".into(),
                wall_seconds: 0.25,
                work: WorkCounts {
                    pair_ops: 10,
                    far_ops: 20,
                    nodes_visited: 30,
                },
            },
            StageReport {
                name: "epol".into(),
                wall_seconds: 1e-7,
                work: WorkCounts {
                    pair_ops: 1,
                    far_ops: 2,
                    nodes_visited: 3,
                },
            },
        ],
        tree_a: TreeDepthStats {
            node_count: 9,
            leaf_count: 8,
            max_depth: 1,
            mean_leaf_depth: 1.0,
        },
        tree_q: TreeDepthStats {
            node_count: 73,
            leaf_count: 64,
            max_depth: 2,
            mean_leaf_depth: 1.875,
        },
        steal: Some(StealReport {
            workers: 4,
            total_executed: 64,
            total_steals: 7,
            imbalance: 1.25,
        }),
        comm: Some(CommReport {
            ranks: 3,
            sim_seconds: 0.001953125,
            bytes_sent: 4096,
            replicated_bytes: 1 << 40,
        }),
        plan: Some(PlanReport {
            born_near_entries: 11,
            born_far_entries: 22,
            epol_near_entries: 33,
            epol_far_entries: 44,
            plan_bytes: 1234,
        }),
        fault: Some(fault_full()),
        memory_bytes: 4096,
    }
}

fn solve_empty() -> SolveReport {
    SolveReport {
        molecule: String::new(),
        mode: String::new(),
        kernel_mode: String::new(),
        n_atoms: 0,
        n_qpoints: 0,
        eps_born: f64::NAN,
        eps_epol: f64::INFINITY,
        epol_kcal: f64::NEG_INFINITY,
        stages: Vec::new(),
        tree_a: TreeDepthStats::default(),
        tree_q: TreeDepthStats {
            mean_leaf_depth: f64::NAN,
            ..TreeDepthStats::default()
        },
        steal: None,
        comm: None,
        plan: None,
        fault: None,
        memory_bytes: 0,
    }
}

fn batch_full() -> BatchReport {
    BatchReport {
        jobs: 2,
        succeeded: 1,
        failed: 1,
        cache_hits: 1,
        cache_patched: 2,
        cache_misses: 3,
        cache_evictions: 4,
        poison_evictions: 5,
        cache_bytes_held: 6,
        cache_capacity_bytes: 7,
        arenas: 8,
        arena_reuses: 9,
        arena_bytes: 10,
        retries: 11,
        recovered_jobs: 12,
        total_epol_kcal: -1.5,
        total_work: WorkCounts {
            pair_ops: 13,
            far_ops: 14,
            nodes_visited: 15,
        },
        wall_seconds: 0.125,
        rows: vec![
            BatchJobRow {
                name: NASTY.into(),
                n_atoms: 10,
                kernel_mode: "lane".into(),
                epol_kcal: -1.5,
                cache_hit: true,
                cache_patched: false,
                pair_ops: 5,
                far_ops: 6,
                wall_seconds: 0.0625,
                error: None,
            },
            BatchJobRow {
                name: "failed".into(),
                n_atoms: 20,
                kernel_mode: "strict".into(),
                epol_kcal: f64::NAN,
                cache_hit: false,
                cache_patched: true,
                pair_ops: 0,
                far_ops: 0,
                wall_seconds: 0.5,
                error: Some("job panicked: \"boom\", twice".into()),
            },
        ],
    }
}

fn batch_empty() -> BatchReport {
    BatchReport {
        jobs: 0,
        succeeded: 0,
        failed: 0,
        cache_hits: 0,
        cache_patched: 0,
        cache_misses: 0,
        cache_evictions: 0,
        poison_evictions: 0,
        cache_bytes_held: 0,
        cache_capacity_bytes: 0,
        arenas: 0,
        arena_reuses: 0,
        arena_bytes: 0,
        retries: 0,
        recovered_jobs: 0,
        total_epol_kcal: f64::NAN,
        total_work: WorkCounts::ZERO,
        wall_seconds: f64::NAN,
        rows: Vec::new(),
    }
}

fn replan_full() -> ReplanReport {
    let mut r = ReplanReport {
        molecule: NASTY.into(),
        n_atoms: 40,
        wall_seconds: 0.75,
        rows: vec![
            ReplanFrameRow {
                frame: 0,
                action: "cold".into(),
                max_disp: 0.0,
                dirty_born: 8,
                total_born: 8,
                dirty_epol: 4,
                total_epol: 4,
                patch_seconds: 0.0,
                plan_seconds: 0.5,
                exec_seconds: 0.125,
                epol_kcal: -10.5,
            },
            ReplanFrameRow {
                frame: 1,
                action: "patched".into(),
                max_disp: 0.015625,
                dirty_born: 2,
                total_born: 8,
                dirty_epol: 1,
                total_epol: 4,
                patch_seconds: 0.03125,
                plan_seconds: 0.0,
                exec_seconds: 0.0625,
                epol_kcal: -10.25,
            },
        ],
        ..ReplanReport::default()
    };
    r.summarize();
    r
}

fn replan_empty() -> ReplanReport {
    let mut r = ReplanReport::default();
    r.summarize();
    r
}

fn gradient_full() -> GradientReport {
    let mut r = GradientReport {
        molecule: NASTY.into(),
        mode: "lbfgs".into(),
        kernel_mode: "lane".into(),
        n_atoms: 60,
        converged: true,
        stalled: false,
        iters: 2,
        final_energy_kcal: -20.5,
        final_grad_max: 0.0078125,
        grad_seconds: 0.25,
        wall_s: 1.5,
        rows: vec![
            GradientIterRow {
                iter: 1,
                energy_kcal: -20.25,
                grad_max: 0.5,
                grad_rms: 0.125,
                step: 0.03125,
                energy_evals: 2,
                patched: 1,
                rebuilt: 1,
                reused: 0,
                grad_seconds: 0.125,
                energy_seconds: 0.375,
            },
            GradientIterRow {
                iter: 2,
                energy_kcal: -20.5,
                grad_max: 0.0078125,
                grad_rms: 0.001953125,
                step: 0.015625,
                energy_evals: 1,
                patched: 1,
                rebuilt: 0,
                reused: 3,
                grad_seconds: 0.125,
                energy_seconds: 0.25,
            },
        ],
        ..GradientReport::default()
    };
    r.summarize();
    r
}

fn gradient_empty() -> GradientReport {
    GradientReport {
        final_energy_kcal: f64::NAN,
        final_grad_max: f64::INFINITY,
        rows: vec![GradientIterRow {
            energy_kcal: f64::NAN,
            ..GradientIterRow::default()
        }],
        ..GradientReport::default()
    }
}

fn serve_full() -> ServeReport {
    let mut latency_ms = Histogram::latency_ms();
    for v in [0.05, 0.7, 0.7, 40.0, 9999.0] {
        latency_ms.record(v);
    }
    let mut queue_depth = Histogram::queue_depth();
    for v in [0.0, 1.0, 3.0] {
        queue_depth.record(v);
    }
    ServeReport {
        requests: 13,
        rejected: 2,
        admitted: 10,
        completed: 5,
        shed: 2,
        deadline_exceeded: 1,
        panicked: 1,
        failed: 1,
        control: 1,
        cache_hits: 3,
        cache_patched: 1,
        cache_misses: 4,
        cache_evictions: 5,
        quota_evictions: 6,
        poison_evictions: 7,
        cache_bytes_held: 1 << 20,
        cache_capacity_bytes: 256 << 20,
        tenants: 2,
        arena_reuses: 8,
        connections: 9,
        workers: 2,
        queue_capacity: 64,
        peak_queue_depth: 3,
        peak_inflight_bytes: 4096,
        latency_ms,
        queue_depth,
        drained: true,
        wall_seconds: 12.5,
    }
}

/// `actual` is its golden bytes, and every JSON goes back through the
/// shared reader (no bare `NaN`, balanced nesting, valid escapes).
fn check(what: &str, actual: &str, expected: &str) {
    assert_eq!(actual, expected, "{what} drifted from its golden bytes");
    if what.ends_with("json") {
        Json::parse(actual).unwrap_or_else(|e| panic!("{what}: {e}"));
    }
}

#[test]
fn populated_reports_emit_their_golden_bytes() {
    check("solve json", &solve_full().to_json(), SOLVE_FULL_JSON);
    check("solve csv", &solve_full().to_csv(), SOLVE_FULL_CSV);
    check("fault json", &fault_full().to_json(), FAULT_FULL_JSON);
    check("batch json", &batch_full().to_json(), BATCH_FULL_JSON);
    check("batch csv", &batch_full().to_csv(), BATCH_FULL_CSV);
    check("replan json", &replan_full().to_json(), REPLAN_FULL_JSON);
    check("replan csv", &replan_full().to_csv(), REPLAN_FULL_CSV);
    check(
        "gradient json",
        &gradient_full().to_json(),
        GRADIENT_FULL_JSON,
    );
    check("gradient csv", &gradient_full().to_csv(), GRADIENT_FULL_CSV);
    check("serve json", &serve_full().to_json(), SERVE_FULL_JSON);
    check("serve csv", &serve_full().to_csv(), SERVE_FULL_CSV);
}

#[test]
fn default_and_non_finite_reports_emit_their_golden_bytes() {
    check("solve json", &solve_empty().to_json(), SOLVE_EMPTY_JSON);
    check("solve csv", &solve_empty().to_csv(), SOLVE_EMPTY_CSV);
    check(
        "fault json",
        &FaultReport::default().to_json(),
        FAULT_EMPTY_JSON,
    );
    check("batch json", &batch_empty().to_json(), BATCH_EMPTY_JSON);
    check("batch csv", &batch_empty().to_csv(), BATCH_EMPTY_CSV);
    check("replan json", &replan_empty().to_json(), REPLAN_EMPTY_JSON);
    check("replan csv", &replan_empty().to_csv(), REPLAN_EMPTY_CSV);
    check(
        "gradient json",
        &gradient_empty().to_json(),
        GRADIENT_EMPTY_JSON,
    );
    check(
        "gradient csv",
        &gradient_empty().to_csv(),
        GRADIENT_EMPTY_CSV,
    );
    check(
        "serve json",
        &ServeReport::default().to_json(),
        SERVE_EMPTY_JSON,
    );
    check(
        "serve csv",
        &ServeReport::default().to_csv(),
        SERVE_EMPTY_CSV,
    );
}

#[test]
fn non_finite_fields_emit_null_and_parse_back() {
    // Regression for the report-poisoning bug: NaN/inf written
    // verbatim produce invalid JSON that breaks artifact consumers.
    let mut r = solve_full();
    r.epol_kcal = f64::NAN;
    r.stages[0].wall_seconds = f64::INFINITY;
    r.tree_a.mean_leaf_depth = f64::NEG_INFINITY;
    r.steal.as_mut().unwrap().imbalance = f64::NAN;
    let j = r.to_json();
    assert!(!j.contains("NaN") && !j.contains("inf"), "{j}");
    let v = Json::parse(&j).expect("emitted JSON must parse");
    let null = Json::Null(0);
    assert_eq!(v.get("epol_kcal"), Some(&null));
    assert_eq!(
        v.get("tree_a").and_then(|t| t.get("mean_leaf_depth")),
        Some(&null)
    );
    assert_eq!(v.get("steal").and_then(|s| s.get("imbalance")), Some(&null));
    let stages = v.get("stages").unwrap().as_array("stages").unwrap();
    assert_eq!(stages[0].get("wall_seconds"), Some(&null));
    assert_eq!(stages[1].get("wall_seconds"), Some(&Json::Number(1e-7, 0)));
    // A fully finite report parses with its values intact.
    let clean = Json::parse(SOLVE_FULL_JSON).expect("clean JSON parses");
    assert_eq!(clean.get("epol_kcal"), Some(&Json::Number(-123.456, 0)));
    assert_eq!(clean.get("molecule"), Some(&Json::String(NASTY.into(), 0)));
    assert_eq!(
        clean.get("plan").and_then(|p| p.get("plan_bytes")),
        Some(&Json::Int(1234, 0))
    );
}

#[test]
fn stage_lookup_and_totals() {
    let r = solve_full();
    assert_eq!(r.stage("born").work.pair_ops, 10);
    assert_eq!(r.stage("missing").work, WorkCounts::ZERO);
    assert_eq!(r.stage("missing").name, "missing");
    let total = r.total_work();
    assert_eq!(total.pair_ops, 11);
    assert_eq!(total.far_ops, 22);
    assert!((r.total_wall_seconds() - 0.2500001).abs() < 1e-12);
}

/// Every CSV header is its report's declared column list, and every row
/// has the header's arity (quoted fields counted as one).
#[test]
fn csv_rows_match_their_header_arity() {
    fn arity(line: &str) -> usize {
        let mut in_quotes = false;
        1 + line
            .chars()
            .filter(|&c| {
                if c == '"' {
                    in_quotes = !in_quotes;
                }
                c == ',' && !in_quotes
            })
            .count()
    }
    // A quoted field may hold a newline: split records on newlines
    // outside quotes.
    fn records(csv: &str) -> Vec<String> {
        let mut out = vec![String::new()];
        let mut in_quotes = false;
        for c in csv.chars() {
            if c == '"' {
                in_quotes = !in_quotes;
            }
            if c == '\n' && !in_quotes {
                out.push(String::new());
            } else {
                out.last_mut().unwrap().push(c);
            }
        }
        assert_eq!(out.pop().as_deref(), Some(""), "CSV ends with a newline");
        out
    }
    for (what, columns, csv) in [
        ("solve", 42, solve_full().to_csv()),
        ("solve empty", 42, solve_empty().to_csv()),
        ("batch", 11, batch_full().to_csv()),
        ("replan", 12, replan_full().to_csv()),
        ("gradient", 11, gradient_full().to_csv()),
        ("gradient empty", 11, gradient_empty().to_csv()),
        ("serve", 31, serve_full().to_csv()),
        ("serve empty", 31, ServeReport::default().to_csv()),
    ] {
        for rec in records(&csv) {
            assert_eq!(arity(&rec), columns, "{what}: {rec}");
        }
    }
    assert_eq!(
        SolveReport::csv_header(),
        solve_full().to_csv().lines().next().unwrap()
    );
    assert_eq!(
        solve_full().to_csv(),
        format!(
            "{}\n{}\n",
            SolveReport::csv_header(),
            solve_full().to_csv_row()
        )
    );
}

/// The one intended byte change of PR 14: integers are written by integer
/// formatting, so the JSON seed equals the CSV `fault_seed` column. (The
/// parent printed `18446744073709552000` / `9007199254740992` in JSON.)
#[test]
fn integers_at_or_above_2_pow_53_are_written_exactly() {
    let mut r = solve_full();
    let fault = r.fault.as_mut().unwrap();
    fault.seed = u64::MAX;
    fault.events[0].at_collective = (1 << 53) + 1;
    r.memory_bytes = (1 << 53) + 1;
    let j = r.to_json();
    assert!(
        j.contains("\"fault\":{\"seed\":18446744073709551615,"),
        "{j}"
    );
    assert!(j.contains("\"at_collective\":9007199254740993,"), "{j}");
    assert!(j.ends_with("\"memory_bytes\":9007199254740993}"), "{j}");
    let row = r.to_csv_row();
    assert!(row.contains(",18446744073709551615,1,2,3,4,17,"), "{row}");
    assert!(row.ends_with(",9007199254740993"), "{row}");
}

const SOLVE_FULL_JSON: &str = "{\"molecule\":\"1a,b\\\"c\\nd\\u0001e\\\\f\\tg\",\"mode\":\"oct_mpi_cilk_ft\",\"kernel_mode\":\"lane\",\"n_atoms\":100,\"n_qpoints\":2000,\"eps_born\":0.9,\"eps_epol\":0.5,\"epol_kcal\":-123.456,\"stages\":[{\"name\":\"born\",\"wall_seconds\":0.25,\"pair_ops\":10,\"far_ops\":20,\"nodes_visited\":30},{\"name\":\"epol\",\"wall_seconds\":0.0000001,\"pair_ops\":1,\"far_ops\":2,\"nodes_visited\":3}],\"tree_a\":{\"node_count\":9,\"leaf_count\":8,\"max_depth\":1,\"mean_leaf_depth\":1},\"tree_q\":{\"node_count\":73,\"leaf_count\":64,\"max_depth\":2,\"mean_leaf_depth\":1.875},\"steal\":{\"workers\":4,\"total_executed\":64,\"total_steals\":7,\"imbalance\":1.25},\"comm\":{\"ranks\":3,\"sim_seconds\":0.001953125,\"bytes_sent\":4096,\"replicated_bytes\":1099511627776},\"plan\":{\"born_near_entries\":11,\"born_far_entries\":22,\"epol_near_entries\":33,\"epol_far_entries\":44,\"plan_bytes\":1234},\"fault\":{\"seed\":7,\"crashes\":1,\"drops\":2,\"msg_retries\":3,\"worker_retries\":4,\"redivisions\":5,\"recovered_items\":17,\"dead_ranks\":[1,3],\"straggler_extra_seconds\":0.25,\"events\":[{\"at_collective\":2,\"kind\":\"drop\",\"rank\":0,\"peer\":2,\"detail\":\"lost 2x\"},{\"at_collective\":3,\"kind\":\"crash\",\"rank\":1,\"peer\":null,\"detail\":\"1a,b\\\"c\\nd\\u0001e\\\\f\\tg\"}]},\"memory_bytes\":4096}";
const SOLVE_FULL_CSV: &str = "molecule,mode,kernel_mode,n_atoms,n_qpoints,eps_born,eps_epol,epol_kcal,born_wall_s,born_pair_ops,born_far_ops,born_nodes_visited,epol_wall_s,epol_pair_ops,epol_far_ops,epol_nodes_visited,tree_a_leaves,tree_a_max_depth,tree_a_mean_leaf_depth,tree_q_leaves,tree_q_max_depth,tree_q_mean_leaf_depth,workers,total_executed,total_steals,imbalance,ranks,comm_sim_s,bytes_sent,replicated_bytes,plan_born_near,plan_born_far,plan_epol_near,plan_epol_far,plan_bytes,fault_seed,fault_crashes,fault_drops,fault_msg_retries,fault_worker_retries,fault_recovered_items,memory_bytes\n\"1a,b\"\"c\nd\u{1}e\\f\tg\",oct_mpi_cilk_ft,lane,100,2000,0.9,0.5,-123.456,0.25,10,20,30,0.0000001,1,2,3,8,1,1,64,2,1.875,4,64,7,1.25,3,0.001953125,4096,1099511627776,11,22,33,44,1234,7,1,2,3,4,17,4096\n";
const FAULT_FULL_JSON: &str = "{\"seed\":7,\"crashes\":1,\"drops\":2,\"msg_retries\":3,\"worker_retries\":4,\"redivisions\":5,\"recovered_items\":17,\"dead_ranks\":[1,3],\"straggler_extra_seconds\":0.25,\"events\":[{\"at_collective\":2,\"kind\":\"drop\",\"rank\":0,\"peer\":2,\"detail\":\"lost 2x\"},{\"at_collective\":3,\"kind\":\"crash\",\"rank\":1,\"peer\":null,\"detail\":\"1a,b\\\"c\\nd\\u0001e\\\\f\\tg\"}]}";
const BATCH_FULL_JSON: &str = "{\"schema\":\"batch_report/v1\",\"jobs\":2,\"succeeded\":1,\"failed\":1,\"cache_hits\":1,\"cache_patched\":2,\"cache_misses\":3,\"cache_hit_rate\":0.16666666666666666,\"cache_evictions\":4,\"poison_evictions\":5,\"cache_bytes_held\":6,\"cache_capacity_bytes\":7,\"arenas\":8,\"arena_reuses\":9,\"arena_bytes\":10,\"retries\":11,\"recovered_jobs\":12,\"total_epol_kcal\":-1.5,\"total_pair_ops\":13,\"total_far_ops\":14,\"wall_seconds\":0.125,\"rows\":[{\"name\":\"1a,b\\\"c\\nd\\u0001e\\\\f\\tg\",\"n_atoms\":10,\"kernel_mode\":\"lane\",\"epol_kcal\":-1.5,\"cache_hit\":true,\"cache_patched\":false,\"pair_ops\":5,\"far_ops\":6,\"wall_seconds\":0.0625,\"error\":null},{\"name\":\"failed\",\"n_atoms\":20,\"kernel_mode\":\"strict\",\"epol_kcal\":null,\"cache_hit\":false,\"cache_patched\":true,\"pair_ops\":0,\"far_ops\":0,\"wall_seconds\":0.5,\"error\":\"job panicked: \\\"boom\\\", twice\"}]}";
const BATCH_FULL_CSV: &str = "job,name,n_atoms,kernel_mode,epol_kcal,cache_hit,cache_patched,pair_ops,far_ops,wall_s,error\n0,\"1a,b\"\"c\nd\u{1}e\\f\tg\",10,lane,-1.5,true,false,5,6,0.0625,\n1,failed,20,strict,,false,true,0,0,0.5,\"job panicked: \"\"boom\"\", twice\"\n";
const REPLAN_FULL_JSON: &str = "{\"schema\":\"replan_report/v1\",\"molecule\":\"1a,b\\\"c\\nd\\u0001e\\\\f\\tg\",\"n_atoms\":40,\"frames\":2,\"patched_frames\":1,\"rebuilt_frames\":0,\"reused_frames\":0,\"cold_plan_seconds\":0.5,\"mean_patch_seconds\":0.03125,\"speedup\":16,\"wall_seconds\":0.75,\"rows\":[{\"frame\":0,\"action\":\"cold\",\"max_disp\":0,\"dirty_born\":8,\"total_born\":8,\"dirty_epol\":4,\"total_epol\":4,\"patch_seconds\":0,\"plan_seconds\":0.5,\"exec_seconds\":0.125,\"epol_kcal\":-10.5},{\"frame\":1,\"action\":\"patched\",\"max_disp\":0.015625,\"dirty_born\":2,\"total_born\":8,\"dirty_epol\":1,\"total_epol\":4,\"patch_seconds\":0.03125,\"plan_seconds\":0,\"exec_seconds\":0.0625,\"epol_kcal\":-10.25}]}";
const REPLAN_FULL_CSV: &str = "frame,action,max_disp,dirty_born,total_born,dirty_epol,total_epol,patch_s,plan_s,exec_s,wall_s,epol_kcal\n0,cold,0,8,8,4,4,0,0.5,0.125,0.625,-10.5\n1,patched,0.015625,2,8,1,4,0.03125,0,0.0625,0.09375,-10.25\n";
const GRADIENT_FULL_JSON: &str = "{\"schema\":\"gradient_report/v1\",\"molecule\":\"1a,b\\\"c\\nd\\u0001e\\\\f\\tg\",\"mode\":\"lbfgs\",\"kernel_mode\":\"lane\",\"n_atoms\":60,\"converged\":true,\"stalled\":false,\"iters\":2,\"final_energy_kcal\":-20.5,\"final_grad_max\":0.0078125,\"total_patched\":2,\"total_rebuilt\":1,\"total_reused\":3,\"grad_seconds\":0.25,\"wall_s\":1.5,\"rows\":[{\"iter\":1,\"energy_kcal\":-20.25,\"grad_max\":0.5,\"grad_rms\":0.125,\"step\":0.03125,\"energy_evals\":2,\"patched\":1,\"rebuilt\":1,\"reused\":0,\"grad_seconds\":0.125,\"energy_seconds\":0.375},{\"iter\":2,\"energy_kcal\":-20.5,\"grad_max\":0.0078125,\"grad_rms\":0.001953125,\"step\":0.015625,\"energy_evals\":1,\"patched\":1,\"rebuilt\":0,\"reused\":3,\"grad_seconds\":0.125,\"energy_seconds\":0.25}]}";
const GRADIENT_FULL_CSV: &str = "iter,energy_kcal,grad_max,grad_rms,step,energy_evals,patched,rebuilt,reused,grad_s,energy_s\n1,-20.25,0.5,0.125,0.03125,2,1,1,0,0.125,0.375\n2,-20.5,0.0078125,0.001953125,0.015625,1,1,0,3,0.125,0.25\n";
const SERVE_FULL_JSON: &str = "{\"schema\":\"serve_report/v1\",\"requests\":13,\"rejected\":2,\"admitted\":10,\"completed\":5,\"shed\":2,\"deadline_exceeded\":1,\"panicked\":1,\"failed\":1,\"control\":1,\"reconciles\":true,\"cache_hits\":3,\"cache_patched\":1,\"cache_misses\":4,\"cache_hit_rate\":0.375,\"cache_evictions\":5,\"quota_evictions\":6,\"poison_evictions\":7,\"cache_bytes_held\":1048576,\"cache_capacity_bytes\":268435456,\"tenants\":2,\"arena_reuses\":8,\"connections\":9,\"workers\":2,\"queue_capacity\":64,\"peak_queue_depth\":3,\"peak_inflight_bytes\":4096,\"latency_ms\":{\"total\":5,\"sum\":10040.45,\"max\":9999,\"mean\":2008.0900000000001,\"p50\":1,\"p90\":9999,\"p99\":9999,\"buckets\":[{\"le\":0.1,\"count\":1},{\"le\":0.25,\"count\":0},{\"le\":0.5,\"count\":0},{\"le\":1,\"count\":2},{\"le\":2.5,\"count\":0},{\"le\":5,\"count\":0},{\"le\":10,\"count\":0},{\"le\":25,\"count\":0},{\"le\":50,\"count\":1},{\"le\":100,\"count\":0},{\"le\":250,\"count\":0},{\"le\":500,\"count\":0},{\"le\":1000,\"count\":0},{\"le\":2500,\"count\":0},{\"le\":5000,\"count\":0},{\"le\":null,\"count\":1}]},\"queue_depth\":{\"total\":3,\"sum\":4,\"max\":3,\"mean\":1.3333333333333333,\"p50\":1,\"p90\":3,\"p99\":3,\"buckets\":[{\"le\":0,\"count\":1},{\"le\":1,\"count\":1},{\"le\":2,\"count\":0},{\"le\":4,\"count\":1},{\"le\":8,\"count\":0},{\"le\":16,\"count\":0},{\"le\":32,\"count\":0},{\"le\":64,\"count\":0},{\"le\":128,\"count\":0},{\"le\":256,\"count\":0},{\"le\":512,\"count\":0},{\"le\":1024,\"count\":0},{\"le\":null,\"count\":0}]},\"drained\":true,\"wall_seconds\":12.5}";
const SERVE_FULL_CSV: &str = "requests,rejected,admitted,completed,shed,deadline_exceeded,panicked,failed,control,cache_hits,cache_patched,cache_misses,cache_hit_rate,cache_evictions,quota_evictions,poison_evictions,cache_bytes_held,cache_capacity_bytes,tenants,arena_reuses,connections,workers,queue_capacity,peak_queue_depth,peak_inflight_bytes,latency_p50_ms,latency_p90_ms,latency_p99_ms,latency_max_ms,drained,wall_s\n13,2,10,5,2,1,1,1,1,3,1,4,0.375,5,6,7,1048576,268435456,2,8,9,2,64,3,4096,1,9999,9999,9999,true,12.5\n";
const SOLVE_EMPTY_JSON: &str = "{\"molecule\":\"\",\"mode\":\"\",\"kernel_mode\":\"\",\"n_atoms\":0,\"n_qpoints\":0,\"eps_born\":null,\"eps_epol\":null,\"epol_kcal\":null,\"stages\":[],\"tree_a\":{\"node_count\":0,\"leaf_count\":0,\"max_depth\":0,\"mean_leaf_depth\":0},\"tree_q\":{\"node_count\":0,\"leaf_count\":0,\"max_depth\":0,\"mean_leaf_depth\":null},\"steal\":null,\"comm\":null,\"plan\":null,\"fault\":null,\"memory_bytes\":0}";
const SOLVE_EMPTY_CSV: &str = "molecule,mode,kernel_mode,n_atoms,n_qpoints,eps_born,eps_epol,epol_kcal,born_wall_s,born_pair_ops,born_far_ops,born_nodes_visited,epol_wall_s,epol_pair_ops,epol_far_ops,epol_nodes_visited,tree_a_leaves,tree_a_max_depth,tree_a_mean_leaf_depth,tree_q_leaves,tree_q_max_depth,tree_q_mean_leaf_depth,workers,total_executed,total_steals,imbalance,ranks,comm_sim_s,bytes_sent,replicated_bytes,plan_born_near,plan_born_far,plan_epol_near,plan_epol_far,plan_bytes,fault_seed,fault_crashes,fault_drops,fault_msg_retries,fault_worker_retries,fault_recovered_items,memory_bytes\n,,,0,0,NaN,inf,-inf,0,0,0,0,0,0,0,0,0,0,0,0,0,NaN,,,,,,,,,,,,,,,,,,,,0\n";
const FAULT_EMPTY_JSON: &str = "{\"seed\":0,\"crashes\":0,\"drops\":0,\"msg_retries\":0,\"worker_retries\":0,\"redivisions\":0,\"recovered_items\":0,\"dead_ranks\":[],\"straggler_extra_seconds\":0,\"events\":[]}";
const BATCH_EMPTY_JSON: &str = "{\"schema\":\"batch_report/v1\",\"jobs\":0,\"succeeded\":0,\"failed\":0,\"cache_hits\":0,\"cache_patched\":0,\"cache_misses\":0,\"cache_hit_rate\":null,\"cache_evictions\":0,\"poison_evictions\":0,\"cache_bytes_held\":0,\"cache_capacity_bytes\":0,\"arenas\":0,\"arena_reuses\":0,\"arena_bytes\":0,\"retries\":0,\"recovered_jobs\":0,\"total_epol_kcal\":null,\"total_pair_ops\":0,\"total_far_ops\":0,\"wall_seconds\":null,\"rows\":[]}";
const BATCH_EMPTY_CSV: &str = "job,name,n_atoms,kernel_mode,epol_kcal,cache_hit,cache_patched,pair_ops,far_ops,wall_s,error\n";
const REPLAN_EMPTY_JSON: &str = "{\"schema\":\"replan_report/v1\",\"molecule\":\"\",\"n_atoms\":0,\"frames\":0,\"patched_frames\":0,\"rebuilt_frames\":0,\"reused_frames\":0,\"cold_plan_seconds\":null,\"mean_patch_seconds\":null,\"speedup\":null,\"wall_seconds\":0,\"rows\":[]}";
const REPLAN_EMPTY_CSV: &str = "frame,action,max_disp,dirty_born,total_born,dirty_epol,total_epol,patch_s,plan_s,exec_s,wall_s,epol_kcal\n";
const GRADIENT_EMPTY_JSON: &str = "{\"schema\":\"gradient_report/v1\",\"molecule\":\"\",\"mode\":\"\",\"kernel_mode\":\"\",\"n_atoms\":0,\"converged\":false,\"stalled\":false,\"iters\":0,\"final_energy_kcal\":null,\"final_grad_max\":null,\"total_patched\":0,\"total_rebuilt\":0,\"total_reused\":0,\"grad_seconds\":0,\"wall_s\":0,\"rows\":[{\"iter\":0,\"energy_kcal\":null,\"grad_max\":0,\"grad_rms\":0,\"step\":0,\"energy_evals\":0,\"patched\":0,\"rebuilt\":0,\"reused\":0,\"grad_seconds\":0,\"energy_seconds\":0}]}";
const GRADIENT_EMPTY_CSV: &str = "iter,energy_kcal,grad_max,grad_rms,step,energy_evals,patched,rebuilt,reused,grad_s,energy_s\n0,NaN,0,0,0,0,0,0,0,0,0\n";
const SERVE_EMPTY_JSON: &str = "{\"schema\":\"serve_report/v1\",\"requests\":0,\"rejected\":0,\"admitted\":0,\"completed\":0,\"shed\":0,\"deadline_exceeded\":0,\"panicked\":0,\"failed\":0,\"control\":0,\"reconciles\":true,\"cache_hits\":0,\"cache_patched\":0,\"cache_misses\":0,\"cache_hit_rate\":null,\"cache_evictions\":0,\"quota_evictions\":0,\"poison_evictions\":0,\"cache_bytes_held\":0,\"cache_capacity_bytes\":0,\"tenants\":0,\"arena_reuses\":0,\"connections\":0,\"workers\":0,\"queue_capacity\":0,\"peak_queue_depth\":0,\"peak_inflight_bytes\":0,\"latency_ms\":{\"total\":0,\"sum\":0,\"max\":0,\"mean\":null,\"p50\":null,\"p90\":null,\"p99\":null,\"buckets\":[{\"le\":0.1,\"count\":0},{\"le\":0.25,\"count\":0},{\"le\":0.5,\"count\":0},{\"le\":1,\"count\":0},{\"le\":2.5,\"count\":0},{\"le\":5,\"count\":0},{\"le\":10,\"count\":0},{\"le\":25,\"count\":0},{\"le\":50,\"count\":0},{\"le\":100,\"count\":0},{\"le\":250,\"count\":0},{\"le\":500,\"count\":0},{\"le\":1000,\"count\":0},{\"le\":2500,\"count\":0},{\"le\":5000,\"count\":0},{\"le\":null,\"count\":0}]},\"queue_depth\":{\"total\":0,\"sum\":0,\"max\":0,\"mean\":null,\"p50\":null,\"p90\":null,\"p99\":null,\"buckets\":[{\"le\":0,\"count\":0},{\"le\":1,\"count\":0},{\"le\":2,\"count\":0},{\"le\":4,\"count\":0},{\"le\":8,\"count\":0},{\"le\":16,\"count\":0},{\"le\":32,\"count\":0},{\"le\":64,\"count\":0},{\"le\":128,\"count\":0},{\"le\":256,\"count\":0},{\"le\":512,\"count\":0},{\"le\":1024,\"count\":0},{\"le\":null,\"count\":0}]},\"drained\":false,\"wall_seconds\":0}";
const SERVE_EMPTY_CSV: &str = "requests,rejected,admitted,completed,shed,deadline_exceeded,panicked,failed,control,cache_hits,cache_patched,cache_misses,cache_hit_rate,cache_evictions,quota_evictions,poison_evictions,cache_bytes_held,cache_capacity_bytes,tenants,arena_reuses,connections,workers,queue_capacity,peak_queue_depth,peak_inflight_bytes,latency_p50_ms,latency_p90_ms,latency_p99_ms,latency_max_ms,drained,wall_s\n0,0,0,0,0,0,0,0,0,0,0,0,,0,0,0,0,0,0,0,0,0,0,0,0,,,,0,false,0\n";
