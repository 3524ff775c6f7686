//! End-to-end tests of the `polar` binary.

use std::process::Command;

fn polar() -> Command {
    Command::new(env!("CARGO_BIN_EXE_polar"))
}

fn tmp_pqr(name: &str, n: usize) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("polar_cli_{name}_{n}.pqr"));
    let out = polar()
        .args(["generate", "globule", &n.to_string(), "--seed", "5"])
        .arg("--out")
        .arg(&path)
        .output()
        .expect("generate runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    path
}

#[test]
fn help_prints_usage_and_exits_zero() {
    let out = polar().arg("help").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("USAGE"));
    assert!(text.contains("energy"));
}

#[test]
fn unknown_command_fails_with_usage() {
    // `induce` (point-dipole induction) was retired with its solver.
    let cases: [&[&str]; 2] = [&["frobnicate"], &["induce", "x.pqr"]];
    for args in cases {
        let out = polar().args(args).output().unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains("unknown command"), "{args:?}: {err}");
    }
}

#[test]
fn generate_info_energy_pipeline() {
    let path = tmp_pqr("pipeline", 300);
    let info = polar().arg("info").arg(&path).output().unwrap();
    assert!(info.status.success());
    let text = String::from_utf8_lossy(&info.stdout);
    assert!(text.contains("atoms:       300"), "{text}");

    let energy = polar().arg("energy").arg(&path).output().unwrap();
    assert!(energy.status.success());
    let text = String::from_utf8_lossy(&energy.stdout);
    assert!(text.contains("E_pol = -"), "{text}");
}

#[test]
fn energy_with_naive_reports_error_percentage() {
    let path = tmp_pqr("naive", 200);
    let out = polar()
        .args(["energy"])
        .arg(&path)
        .arg("--naive")
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("octree error"), "{text}");
}

#[test]
fn sweep_emits_requested_rows() {
    let path = tmp_pqr("sweep", 200);
    let out = polar()
        .args(["sweep"])
        .arg(&path)
        .args(["--from", "0.3", "--to", "0.9", "--steps", "3"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    // Header + reference line + 3 sweep rows mentioning the eps values.
    assert!(text.contains("0.300"), "{text}");
    assert!(text.contains("0.600"), "{text}");
    assert!(text.contains("0.900"), "{text}");
}

#[test]
fn sweep_honours_the_math_and_kernel_options() {
    let path = tmp_pqr("sweep_modes", 200);
    // The E_pol column of each row, the reference line included.
    let energies = |extra: &[&str]| {
        let out = polar()
            .args(["sweep"])
            .arg(&path)
            .args(["--from", "0.5", "--to", "0.9", "--steps", "2"])
            .args(extra)
            .output()
            .unwrap();
        let text = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(out.status.success(), "{extra:?}: {text}");
        let reference = text.lines().next().and_then(|l| l.split(" = ").nth(1));
        let rows = text
            .lines()
            .skip(2)
            .filter_map(|l| l.split_whitespace().nth(1));
        let mut column = Vec::from_iter(reference.map(str::to_owned));
        column.extend(rows.map(str::to_owned));
        assert_eq!(column.len(), 3, "{extra:?}: {text}");
        column
    };
    let exact = energies(&[]);
    let approximate = energies(&["--approx-math"]);
    for (e, a) in exact.iter().zip(&approximate) {
        assert_ne!(e, a, "--approx-math moves every energy");
    }
    // Strict and lane kernels agree far below the printed digits.
    assert_eq!(energies(&["--strict-fp"]), exact);
}

#[test]
fn distributed_and_data_dist_run() {
    let path = tmp_pqr("dist", 250);
    let out = polar()
        .args(["distributed"])
        .arg(&path)
        .args(["--ranks", "3", "--threads", "2"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("3 ranks x 2 threads"));

    let dd = polar()
        .args(["distributed"])
        .arg(&path)
        .args(["--ranks", "4", "--data-dist"])
        .output()
        .unwrap();
    assert!(dd.status.success());
    assert!(String::from_utf8_lossy(&dd.stdout).contains("saving"));
}

#[test]
fn every_solve_runs_the_plan_engine() {
    let path = tmp_pqr("plan_default", 250);
    let json = |args: &[&str]| {
        let out = polar().args(args).arg(&path).output().unwrap();
        assert!(
            out.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(text.contains("E_pol = -"), "{args:?}: {text}");
        text
    };
    let serial = json(&["energy", "--profile", "json"]);
    assert!(serial.contains("\"mode\":\"plan\""), "{serial}");
    assert!(serial.contains("\"kernel_mode\":\"lane\""), "{serial}");
    assert!(serial.contains("\"plan\":{"), "{serial}");
    let parallel = json(&["energy", "--parallel", "--profile", "json"]);
    assert!(
        parallel.contains("\"mode\":\"plan_parallel\""),
        "{parallel}"
    );
    let strict = json(&["energy", "--strict-fp", "--profile", "json"]);
    assert!(strict.contains("\"kernel_mode\":\"strict\""), "{strict}");
    let dist = json(&[
        "distributed",
        "--ranks",
        "2",
        "--threads",
        "2",
        "--profile",
        "json",
    ]);
    assert!(dist.contains("\"kernel_mode\":\"lane\""), "{dist}");
    assert!(dist.contains("\"plan\":{"), "{dist}");

    // Plan-derived cluster projection runs.
    let proj = polar()
        .args(["project"])
        .arg(&path)
        .args(["--nodes", "2", "--plan"])
        .output()
        .unwrap();
    assert!(
        proj.status.success(),
        "{}",
        String::from_utf8_lossy(&proj.stderr)
    );
    assert!(String::from_utf8_lossy(&proj.stdout).contains("OCT_MPI"));
}

#[test]
fn missing_file_is_a_clean_error() {
    let out = polar()
        .args(["energy", "/nonexistent/file.pqr"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error"));
}

#[test]
fn bad_option_is_rejected() {
    // `x.pqr` does not exist: each row must be refused as a usage error
    // (exit 2) before any input is read, never run, coerced or panic.
    let cases: [(&[&str], &str); 17] = [
        (&["energy", "x.pqr", "--warp-speed"], "unknown option"),
        // The generators assert n > 0: this used to exit 101.
        (&["generate", "globule", "0"], "atom count must be >= 1"),
        (&["generate", "shell", "0"], "atom count must be >= 1"),
        (&["generate", "ligand", "0"], "atom count must be >= 1"),
        // Used to run silently as one node.
        (
            &["project", "x.pqr", "--nodes", "0"],
            "--nodes must be >= 1",
        ),
        // Every solve plans once: there is no plan-reuse count to give.
        (&["energy", "x.pqr", "--reuse-plan", "3"], "unknown option"),
        // A zero worker count: batch ran and printed "0 workers",
        // minimize ran serially, serve ran one worker; distributed read
        // the molecule first.
        (
            &["batch", "--manifest", "m.json", "--threads", "0"],
            "ranks and threads must be positive",
        ),
        (
            &["minimize", "x.pqr", "--threads", "0", "--parallel"],
            "ranks and threads must be positive",
        ),
        (
            &["serve", "--threads", "0"],
            "ranks and threads must be positive",
        ),
        (
            &["distributed", "x.pqr", "--threads", "0"],
            "ranks and threads must be positive",
        ),
        (
            &["distributed", "x.pqr", "--ranks", "0"],
            "ranks and threads must be positive",
        ),
        // Each command takes only the options it reads: these ran and
        // were silently ignored.
        (
            &["info", "x.pqr", "--parallel"],
            "unknown option --parallel",
        ),
        (&["distributed", "x.pqr", "--plan"], "unknown option --plan"),
        (
            &["generate", "globule", "10", "--strict-fp"],
            "unknown option --strict-fp",
        ),
        (&["serve", "--naive"], "unknown option --naive"),
        // The sweep sets both epsilons itself.
        (
            &["sweep", "x.pqr", "--eps-born", "0.5"],
            "unknown option --eps-born",
        ),
        (
            &["sweep", "x.pqr", "--eps-epol", "0.5"],
            "unknown option --eps-epol",
        ),
    ];
    for (args, message) in cases {
        let out = polar().args(args).output().unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains(message), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
    }
}

#[test]
fn distributed_fault_seed_runs_a_reproducible_chaos_run() {
    let path = tmp_pqr("chaos", 250);
    let run = |seed: &str| {
        let out = polar()
            .args(["distributed"])
            .arg(&path)
            .args(["--ranks", "3", "--fault-seed", seed, "--profile", "json"])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let a = run("11");
    assert!(a.contains("faults: seed 11"), "{a}");
    assert!(a.contains("surviving ranks"), "{a}");
    assert!(a.contains("\"fault\":{"), "{a}");
    assert!(a.contains("\"mode\":\"oct_mpi_ft\""), "{a}");
    // Same seed, same chaos: the JSON fault section is byte-identical.
    let b = run("11");
    let section = |s: &str| {
        let i = s.find("\"fault\":{").expect("fault section");
        s[i..].to_string()
    };
    assert_eq!(section(&a), section(&b));
}

#[test]
fn distributed_faults_file_drives_the_schedule() {
    let path = tmp_pqr("faultfile", 220);
    let spec = std::env::temp_dir().join("polar_cli_spec.json");
    std::fs::write(
        &spec,
        r#"{"seed": 1, "max_retries": 4, "worker_retry_budget": 2, "base_timeout_s": 0.0001,
            "crashes": [{"rank": 1, "at_collective": 2}],
            "drops": [], "stragglers": [], "worker_panics": []}"#,
    )
    .unwrap();
    let out = polar()
        .args(["distributed"])
        .arg(&path)
        .args(["--ranks", "3", "--faults"])
        .arg(&spec)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("2/3 surviving ranks"), "{text}");
    assert!(text.contains("1 crashes [1]"), "{text}");
}

#[test]
fn non_survivable_schedule_exits_nonzero_with_a_readable_message() {
    let path = tmp_pqr("allcrash", 150);
    let spec = std::env::temp_dir().join("polar_cli_allcrash.json");
    std::fs::write(
        &spec,
        r#"{"seed": 0, "max_retries": 4, "worker_retry_budget": 2, "base_timeout_s": 0.0001,
            "crashes": [{"rank": 0, "at_collective": 1}, {"rank": 1, "at_collective": 1}],
            "drops": [], "stragglers": [], "worker_panics": []}"#,
    )
    .unwrap();
    let out = polar()
        .args(["distributed"])
        .arg(&path)
        .args(["--ranks", "2", "--faults"])
        .arg(&spec)
        .output()
        .unwrap();
    assert!(!out.status.success(), "all-crash schedule must fail");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("not survivable"), "{err}");
    assert!(err.contains("all 2 ranks died"), "{err}");
}

#[test]
fn malformed_fault_spec_is_a_clean_error() {
    let path = tmp_pqr("badspec", 150);
    let spec = std::env::temp_dir().join("polar_cli_badspec.json");
    std::fs::write(&spec, r#"{"seed": "not a number"}"#).unwrap();
    let out = polar()
        .args(["distributed"])
        .arg(&path)
        .args(["--ranks", "2", "--faults"])
        .arg(&spec)
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--faults"), "{err}");

    let both = polar()
        .args(["distributed"])
        .arg(&path)
        .args(["--ranks", "2", "--fault-seed", "1", "--faults"])
        .arg(&spec)
        .output()
        .unwrap();
    assert!(!both.status.success());
    assert!(
        String::from_utf8_lossy(&both.stderr).contains("mutually exclusive"),
        "{}",
        String::from_utf8_lossy(&both.stderr)
    );
}

#[test]
fn batch_runs_a_manifest_and_emits_a_json_report() {
    let pqr = tmp_pqr("batchfile", 120);
    let manifest = std::env::temp_dir().join("polar_cli_batch.json");
    std::fs::write(
        &manifest,
        format!(
            r#"{{
  "jobs": [
    {{ "name": "gen_a", "generate": "globular", "n_atoms": 150, "seed": 3,
      "eps_born": 0.6, "eps_epol": 0.6, "repeat": 3 }},
    {{ "file": {:?}, "repeat": 2 }}
  ]
}}"#,
            pqr.to_string_lossy()
        ),
    )
    .unwrap();
    let out = polar()
        .args(["batch", "--manifest"])
        .arg(&manifest)
        .args(["--cache-mb", "64", "--threads", "2", "--profile", "json"])
        .output()
        .unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{err}");
    // Repeated geometries hit the cache: 5 jobs, 2 distinct plans.
    assert!(err.contains("hit rate 60%"), "{err}");
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(json.contains("\"schema\":\"batch_report/v1\""), "{json}");
    assert!(json.contains("\"jobs\":5"), "{json}");
    assert!(json.contains("\"cache_hits\":3"), "{json}");
    assert!(json.contains("\"failed\":0"), "{json}");
}

#[test]
fn batch_csv_profile_has_one_row_per_job() {
    let manifest = std::env::temp_dir().join("polar_cli_batch_csv.json");
    std::fs::write(
        &manifest,
        r#"{ "jobs": [ { "generate": "ligand", "n_atoms": 60, "repeat": 2 } ] }"#,
    )
    .unwrap();
    let out = polar()
        .args(["batch", "--manifest"])
        .arg(&manifest)
        .args(["--threads", "1", "--profile", "csv"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let csv = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = csv.lines().collect();
    assert_eq!(lines.len(), 3, "{csv}");
    assert!(lines[0].starts_with("job,name,n_atoms,kernel_mode,epol_kcal,cache_hit"));
}

#[test]
fn batch_without_manifest_or_with_bad_manifest_is_a_clean_error() {
    let out = polar().arg("batch").output().unwrap();
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--manifest"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let bad = std::env::temp_dir().join("polar_cli_batch_bad.json");
    std::fs::write(&bad, r#"{"jobs": [{"generate": "globular"}]}"#).unwrap();
    let out = polar()
        .args(["batch", "--manifest"])
        .arg(&bad)
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("n_atoms"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn serve_accepts_jobs_over_tcp_and_drains_to_exit_zero() {
    use std::io::{BufRead, BufReader, Read, Write};
    let mut child = polar()
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--threads",
            "2",
            "--profile",
            "json",
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("serve spawns");
    // First stdout line announces the resolved ephemeral address.
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    stdout.read_line(&mut line).unwrap();
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected announcement {line:?}"))
        .to_string();

    let stream = std::net::TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(60)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut roundtrip = |req: &str| -> String {
        writer.write_all(req.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        writer.flush().unwrap();
        let mut resp = String::new();
        reader.read_line(&mut resp).expect("response");
        resp.trim().to_string()
    };

    let req = r#"{"id":"e2e","generate":"globular","n_atoms":120,"seed":4}"#;
    let cold = roundtrip(req);
    assert!(cold.contains("\"status\":\"ok\""), "{cold}");
    let warm = roundtrip(req);
    assert!(warm.contains("\"cache_hit\":true"), "{warm}");
    let bad = roundtrip("{nope");
    assert!(bad.contains("\"status\":\"bad_request\""), "{bad}");
    let drained = roundtrip(r#"{"cmd":"drain"}"#);
    assert!(drained.contains("\"status\":\"drained\""), "{drained}");

    let status = child.wait().expect("serve exits");
    assert!(status.success(), "drained server must exit 0");
    // --profile json printed the final report after the announcement.
    let mut rest = String::new();
    stdout.read_to_string(&mut rest).unwrap();
    assert!(
        rest.contains("\"schema\":\"serve_report/v1\""),
        "final report on stdout: {rest}"
    );
    assert!(rest.contains("\"reconciles\":true"), "{rest}");
    assert!(rest.contains("\"completed\":2"), "{rest}");
}

#[test]
fn a_bad_epsilon_is_a_usage_error_not_a_panic() {
    // `--eps-born 0` used to reach the separation tests' `assert!(ε > 0)`.
    let path = tmp_pqr("bad_eps", 60);
    let commands = ["energy", "trajectory", "minimize", "distributed", "project"];
    let bad = [
        ("--eps-born", "0"),
        ("--eps-epol", "nan"),
        ("--eps-epol", "-0.5"),
    ];
    let mut rows = Vec::new();
    for (k, command) in commands.into_iter().enumerate() {
        // All three values on `energy`, one each on the others.
        let values = if k == 0 {
            &bad[..]
        } else {
            &bad[k % 3..k % 3 + 1]
        };
        rows.extend(
            values
                .iter()
                .map(|&(option, value)| (command, option, value)),
        );
    }
    // Step and tolerance options: negative tolerances and NaN steps used
    // to panic in the octree refresh or build, and the other values ran
    // to nonsense (a NaN mean patch time, E_pol off by a third).
    rows.extend([
        ("trajectory", "--tolerance", "-1"),
        ("trajectory", "--tolerance", "nan"),
        ("minimize", "--tolerance", "-1"),
        ("trajectory", "--max-step", "nan"),
        ("trajectory", "--max-step", "-1"),
        ("minimize", "--max-step", "-1"),
        ("minimize", "--step", "nan"),
        ("minimize", "--step", "-1"),
        // `--to inf` made the first ε `from + (inf - from)·0`, a NaN.
        ("sweep", "--to", "inf"),
        ("sweep", "--from", "nan"),
        ("sweep", "--from", "0"),
    ]);
    for (command, option, value) in rows {
        let out = polar()
            .arg(command)
            .arg(&path)
            .args([option, value])
            .output()
            .unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{command} {option} {value}: {err}"
        );
        let rule = match option {
            "--tolerance" | "--max-step" => "non-negative",
            _ => "positive",
        };
        assert!(
            err.contains(&format!("{option}: must be a finite {rule} number, got")),
            "{command} {option} {value}: {err}"
        );
        assert!(
            !err.contains("panicked"),
            "{command} {option} {value}: {err}"
        );
    }
    // An ε so small that 1 + ε == 1 is valid: it used to give the
    // energy stage zero Born-radius bins and an out-of-bounds index.
    let out = polar()
        .arg("energy")
        .arg(&path)
        .args(["--eps-epol", "1e-17"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("E_pol = -"));
}

#[test]
fn a_cache_size_that_overflows_is_a_usage_error_not_a_zero_byte_cache() {
    // `--cache-mb 17592186044416` used to compute `N << 20` = 0: the run
    // printed "cache 17592186044416 MB", evicted on every insert and
    // exited 0.
    let huge = "17592186044416"; // 2^44 MiB = 2^64 bytes
    let cases: [&[&str]; 3] = [
        &["batch", "--manifest", "unused.json", "--cache-mb", huge],
        &["serve", "--cache-mb", huge],
        &["serve", "--quota-mb", huge],
    ];
    for args in cases {
        let out = polar().args(args).output().unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(
            err.contains(&format!(
                "{}: {huge} MB does not fit in this platform's address space",
                args[args.len() - 2]
            )),
            "{args:?}: {err}"
        );
        assert!(!err.contains("panicked"), "{args:?}: {err}");
    }
}
