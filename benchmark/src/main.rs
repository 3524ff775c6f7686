//! One benchmark for the whole solve pipeline.
//!
//! `--workload NAME --seed N --seconds S --trace 0|1` runs one workload
//! in this process and prints, as the last line of stdout, the result
//! object `BENCHMARK.json` describes: the end-to-end metrics of an
//! untraced run, or the per-layer metrics of a traced one.
//!
//! Without `--workload` every workload runs, each pass in a fresh child
//! process (so peak RSS does not leak across), and every metric is
//! printed by name with its unit; `--compare` does that twice and checks
//! the two sets against the benchmark's own bounds. See README.md.

mod cold_solve;
mod harness;
mod json;
mod layers;
mod metrics;
mod oracle;
mod rescore;
mod serve_mix;
mod trace;
mod trajectory;

use harness::{Outcome, RoundStats, RunCfg, MAX_TRACE_OVERHEAD, OUT_DIR, SETUP_REPS};
use metrics::{num, END_TO_END, PER_LAYER, REPEAT_UNHELD, SPAN_METRICS, WORKLOADS};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use trace::median;

/// `run_seconds` of `BENCHMARK.json`, and the default `--seconds`.
const RUN_SECONDS: u32 = 10;
const DEFAULT_SEED: u64 = 47;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    /// `--trace 0|1` for a single run; for the suite, which passes run.
    untraced: bool,
    traced: bool,
    compare: bool,
    emit_manifest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        untraced: true,
        traced: true,
        compare: false,
        emit_manifest: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let w = value("a workload name")?;
                if !WORKLOADS.iter().any(|k| k.name == w) {
                    let names: Vec<&str> = WORKLOADS.iter().map(|k| k.name).collect();
                    return Err(format!(
                        "unknown workload {w:?} (expected one of {names:?})"
                    ));
                }
                a.workload = Some(w);
            }
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => match value("0 or 1")?.as_str() {
                "0" => (a.untraced, a.traced) = (true, false),
                "1" => (a.untraced, a.traced) = (false, true),
                other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
            },
            "--no-trace" => (a.untraced, a.traced) = (true, false),
            "--trace-only" => (a.untraced, a.traced) = (false, true),
            "--compare" => a.compare = true,
            "--emit-manifest" => a.emit_manifest = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if a.workload.is_some() && a.untraced == a.traced {
        return Err("a single-workload run needs --trace 0 or --trace 1".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("polar-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if args.emit_manifest {
        print!("{}", metrics::manifest(RUN_SECONDS));
        return ExitCode::SUCCESS;
    }
    let ok = match &args.workload {
        Some(w) => run_one(w, &args),
        None if args.compare => compare(&args),
        None => run_suite(&args).is_some_and(|s| s.correct),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

// ---------------------------------------------------------------------
// One workload, in this process.
// ---------------------------------------------------------------------

fn run_one(workload: &str, args: &Args) -> bool {
    let cfg = RunCfg {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.traced,
    };
    let out = match workload {
        "cold_solve" => cold_solve::run(&cfg),
        "warm_rescore" => rescore::run(&rescore::WARM, &cfg),
        "rescore_pressure" => rescore::run(&rescore::PRESSURE, &cfg),
        "trajectory" => trajectory::run(&cfg),
        "serve_mix" => serve_mix::run(&cfg),
        _ => unreachable!("parse_args checked the name"),
    };
    let metrics: Vec<(&str, &str, f64)> = if cfg.trace {
        per_layer(&out)
    } else {
        end_to_end(&out)
    };
    if let Some(tr) = &out.tracer {
        let path = Path::new(OUT_DIR).join(format!("trace_{workload}.json"));
        let written = std::fs::create_dir_all(OUT_DIR)
            .and_then(|()| std::fs::write(&path, tr.to_json(workload, cfg.seed)));
        match written {
            Ok(()) => println!("# trace: {} spans in {}", tr.spans().len(), path.display()),
            Err(e) => eprintln!("polar-benchmark: cannot write {}: {e}", path.display()),
        }
    }

    let correct = out.checks_ok && out.failed == 0 && out.overhead_settled();
    for note in &out.notes {
        println!("# {note}");
    }
    if !out.overhead_settled() {
        println!(
            "# traced ops cost {:+.1} % against untraced ones (limit ±{} %): the layered form and the library calls have drifted apart",
            out.overhead_share().unwrap_or(0.0) * 100.0,
            MAX_TRACE_OVERHEAD * 100.0
        );
    }
    for (name, unit, value) in &metrics {
        println!("{workload:<18} {name:<32} {value:>16.4} {unit}");
    }
    // Second-to-last line: what the run was, for the suite's record.
    println!(
        "{{\"workload\":\"{workload}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\"commit\":\"{}\",\"setup_reps\":{SETUP_REPS},\"round_len\":{},\"ops\":{},\"traced_ops\":{}}}",
        cfg.seed,
        num(cfg.seconds),
        cfg.trace,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        git_commit(),
        out.round_len,
        out.ops.ms.len(),
        out.traced.ms.len(),
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                num(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.attempted.max(1),
        out.failed,
        body.join(",")
    );
    correct
}

fn end_to_end(out: &Outcome) -> Vec<(&'static str, &'static str, f64)> {
    // The timings are the best round's (see `Ops::rounds`).
    let rounds = out.ops.rounds(out.round_len);
    let best = |of: fn(&RoundStats) -> f64, pick: fn(f64, f64) -> f64| {
        rounds.iter().map(of).reduce(pick).unwrap_or(0.0)
    };
    let value = |name: &str| match name {
        "setup_s" => out.setup_s,
        "op_p50_ms" => best(|r| r.p50_ms, f64::min),
        "op_p95_ms" => best(|r| r.p95_ms, f64::min),
        "ops_per_s" => best(|r| r.ops_per_s, f64::max),
        "peak_rss_mb" => peak_rss_mb(),
        "plan_bytes_per_atom" => out.plan_bytes as f64 / out.plan_atoms.max(1) as f64,
        other => unreachable!("end-to-end metric {other} has no definition"),
    };
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit, value(m.name)))
        .collect()
}

fn per_layer(out: &Outcome) -> Vec<(&'static str, &'static str, f64)> {
    let tr = out.tracer.as_ref().expect("a traced run records spans");
    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    for sm in SPAN_METRICS {
        values.insert(sm.metric, median(&tr.per_op(sm.span, sm.whole)) * sm.scale);
    }
    values.insert("trace.overhead_share", out.overhead_share().unwrap_or(0.0));
    values.insert("trace.residual_share", median(&tr.residual_shares()));
    values.insert("trace.op_samples", out.traced.ms.len() as f64);
    values.insert("trace.spans", tr.spans().len() as f64);
    for (name, value) in &out.layer {
        assert!(
            PER_LAYER.iter().any(|m| m.name == *name),
            "workload reported undeclared per-layer metric {name}"
        );
        values.insert(name, *value);
    }
    PER_LAYER
        .iter()
        .map(|m| (m.name, m.unit, values.get(m.name).copied().unwrap_or(0.0)))
        .collect()
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The checked-out commit, read from `.git` without running git; the
/// driver's checkout is not a repository, and then this is "unknown".
fn git_commit() -> String {
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let head = read(Path::new(".git/HEAD"));
    let commit = match head.as_deref().and_then(|h| h.strip_prefix("ref: ")) {
        Some(reference) => read(&Path::new(".git").join(reference)),
        None => head,
    };
    commit
        .filter(|c| c.len() >= 7 && c.bytes().all(|b| b.is_ascii_hexdigit()))
        .unwrap_or_else(|| "unknown".to_string())
}

// ---------------------------------------------------------------------
// Every workload, each pass in a child process.
// ---------------------------------------------------------------------

/// (metric, workload) → value, plus what the children said of themselves.
struct Suite {
    values: BTreeMap<(String, String), f64>,
    infos: Vec<String>,
    correct: bool,
}

fn run_child(workload: &str, trace: bool, args: &Args) -> Result<(json::Value, String), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args([
            "--workload",
            workload,
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let result = lines.next().ok_or("child printed nothing")?;
    let info = lines.next().unwrap_or("{}").to_string();
    Ok((json::parse(result)?, info))
}

fn run_suite(args: &Args) -> Option<Suite> {
    let mut suite = Suite {
        values: BTreeMap::new(),
        infos: Vec::new(),
        correct: true,
    };
    for w in WORKLOADS {
        for trace in [false, true] {
            if (trace && !args.traced) || (!trace && !args.untraced) {
                continue;
            }
            eprintln!(
                "[suite] {} ({})",
                w.name,
                if trace { "traced" } else { "untraced" }
            );
            let (result, info) = match run_child(w.name, trace, args) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("polar-benchmark: {} failed to run: {e}", w.name);
                    return None;
                }
            };
            suite.correct &= result.get("correct").and_then(json::Value::as_bool) == Some(true);
            let attempted = result
                .get("attempted")
                .and_then(json::Value::as_f64)
                .unwrap_or(0.0);
            let failed = result
                .get("failed")
                .and_then(json::Value::as_f64)
                .unwrap_or(0.0);
            // The issue's `fail_share`, from the result line's own keys.
            let key = if trace {
                "fail_share.traced"
            } else {
                "fail_share"
            };
            suite.values.insert(
                (key.to_string(), w.name.to_string()),
                failed / attempted.max(1.0),
            );
            for (name, m) in result
                .get("metrics")
                .and_then(json::Value::as_obj)
                .unwrap_or(&[])
            {
                if let Some(v) = m.get("value").and_then(json::Value::as_f64) {
                    suite.values.insert((name.clone(), w.name.to_string()), v);
                }
            }
            suite.infos.push(info);
        }
    }
    print_table(&suite);
    let path = Path::new(OUT_DIR).join("suite.json");
    let written =
        std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, suite_json(&suite)));
    if let Err(e) = written {
        eprintln!("polar-benchmark: cannot write {}: {e}", path.display());
    }
    Some(suite)
}

fn unit_of(metric: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == metric)
        .map_or("ratio", |(_, u)| u)
}

/// Metric names in declaration order (end-to-end, then per-layer).
fn metric_order(suite: &Suite) -> Vec<String> {
    let declared = END_TO_END
        .iter()
        .map(|m| m.name)
        .chain(["fail_share", "fail_share.traced"])
        .chain(PER_LAYER.iter().map(|m| m.name));
    declared
        .filter(|n| suite.values.keys().any(|(m, _)| m == n))
        .map(str::to_string)
        .collect()
}

fn print_table(suite: &Suite) {
    print!("{:<32} {:<7}", "metric", "unit");
    for w in WORKLOADS {
        print!(" {:>16}", w.name);
    }
    println!();
    for metric in metric_order(suite) {
        print!("{:<32} {:<7}", metric, unit_of(&metric));
        for w in WORKLOADS {
            match suite.values.get(&(metric.clone(), w.name.to_string())) {
                Some(v) => print!(" {v:>16.4}"),
                None => print!(" {:>16}", "-"),
            }
        }
        println!();
    }
}

fn suite_json(suite: &Suite) -> String {
    let mut o = format!(
        "{{\"schema\":\"polar_benchmark_suite/v1\",\"correct\":{},\"runs\":[{}],\"metrics\":[\n",
        suite.correct,
        suite.infos.join(",")
    );
    let rows: Vec<String> = suite
        .values
        .iter()
        .map(|((metric, workload), v)| {
            format!(
                "{{\"metric\":\"{metric}\",\"workload\":\"{workload}\",\"unit\":\"{}\",\"value\":{}}}",
                unit_of(metric),
                num(*v)
            )
        })
        .collect();
    o.push_str(&rows.join(",\n"));
    o.push_str("\n]}\n");
    o
}

// ---------------------------------------------------------------------
// The same commit and seed twice: do the two sets agree?
// ---------------------------------------------------------------------

/// Counts that must be identical between two runs of one commit and
/// seed (on the workloads where they are taken over a fixed window).
const EXACT: &[&str] = &[
    "plan.bytes",
    "plan.bytes_per_atom",
    "plan.born_near_entries",
    "plan.born_far_entries",
    "plan.epol_near_entries",
    "plan.epol_far_entries",
    "plan.reused_frames",
    "plan.patched_frames",
    "plan.rebuilt_frames",
    "plan.escaped_frames",
    "batch.hits",
    "batch.patched",
    "batch.misses",
    "batch.evictions",
    "batch.hit_share",
    "mpi.bytes_sent",
    "mpi.replicated_bytes",
    "mpi.work_imbalance",
    "runtime.executed",
    "cluster.sim_speedup_144",
    "surface.qpoints",
    "octree.nodes",
    "molecule.bytes_in",
    "plan_bytes_per_atom",
    "fail_share",
    "fail_share.traced",
];

fn compare(args: &Args) -> bool {
    let (Some(a), Some(b)) = (run_suite(args), run_suite(args)) else {
        return false;
    };
    let mut ok = a.correct && b.correct;
    let mut rows = Vec::new();
    println!(
        "\n{:<32} {:<18} {:>16} {:>16} {:>9}  verdict",
        "metric", "workload", "first", "second", "rel diff"
    );
    for metric in metric_order(&a) {
        for w in WORKLOADS {
            let key = (metric.clone(), w.name.to_string());
            let (Some(&x), Some(&y)) = (a.values.get(&key), b.values.get(&key)) else {
                continue;
            };
            let rel = if x == y {
                0.0
            } else {
                (y - x).abs() / x.abs().max(y.abs())
            };
            let limit = END_TO_END
                .iter()
                .find(|m| m.name == metric)
                .filter(|_| !REPEAT_UNHELD.contains(&(metric.as_str(), w.name)))
                .map(|m| m.repeat);
            // Two racing clients make serve_mix's cache counts
            // schedule-dependent; everywhere else they are exact.
            let exact = EXACT.contains(&metric.as_str())
                && !(w.name == "serve_mix" && metric.starts_with("batch."));
            let verdict = match limit {
                _ if exact && rel == 0.0 => "exact",
                _ if exact => "NOT EXACT",
                Some(limit) if rel <= limit => "within limit",
                Some(_) => "OUT OF LIMIT",
                None => "",
            };
            ok &= !verdict.contains("NOT") && !verdict.contains("OUT");
            println!(
                "{metric:<32} {:<18} {x:>16.4} {y:>16.4} {:>8.2}%  {verdict}",
                w.name,
                rel * 100.0
            );
            let mut row = String::new();
            let _ = write!(
                row,
                "{{\"metric\":\"{metric}\",\"workload\":\"{}\",\"unit\":\"{}\",\"first\":{},\"second\":{},\"rel_diff\":{},\"verdict\":\"{verdict}\"}}",
                w.name,
                unit_of(&metric),
                num(x),
                num(y),
                num(rel)
            );
            rows.push(row);
        }
    }
    let path = Path::new(OUT_DIR).join("repeat.json");
    let text = format!(
        "{{\"schema\":\"polar_benchmark_repeat/v1\",\"seed\":{},\"seconds\":{},\"agree\":{ok},\"rows\":[\n{}\n]}}\n",
        args.seed,
        num(args.seconds),
        rows.join(",\n")
    );
    match std::fs::write(&path, text) {
        Ok(()) => println!(
            "\nwrote {} — the two sets {}",
            path.display(),
            if ok { "agree" } else { "DISAGREE" }
        ),
        Err(e) => eprintln!("polar-benchmark: cannot write {}: {e}", path.display()),
    }
    ok
}
