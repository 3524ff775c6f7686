//! Shared experiment-harness plumbing.
//!
//! Every table/figure of the paper has one binary in `src/bin/`
//! (`fig5_speedup`, `fig8_packages`, …). This library provides what they
//! share: workload scaling, host calibration, the solver → cluster-sim
//! glue, and table/CSV output (each binary prints its rows and also
//! writes `results/<name>.csv`).
//!
//! ## Scaling
//!
//! Full-scale workloads (84-protein suite, 509k-atom CMV, 6M-atom BTV)
//! are expensive on a laptop-class host. The `POLAR_SCALE` environment
//! variable selects:
//!
//! * `quick` — smoke-test sizes (seconds; used by CI and `cargo test`),
//! * `default` — minutes; all *shapes* reproduced,
//! * `full` — the paper's sizes (capsids at full atom count).

use polar_cluster::{ClusterExperiment, MachineSpec};
use polar_gb::{GbParams, GbSolver};
use polar_molecule::Molecule;
use polar_octree::OctreeConfig;
use polar_surface::SurfaceConfig;
use std::fmt::Write as _;
use std::io::Write as _;
use std::time::Instant;

/// Workload sizes for one harness run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// How many of the 84 ZDock-like molecules to use.
    pub zdock_count: usize,
    /// CMV shell size in permille of 509,640 atoms.
    pub cmv_permille: u32,
    /// BTV size in permille of ~6M atoms.
    pub btv_permille: u32,
    /// Seeded scheduler repetitions for min/max envelopes (paper: 20).
    pub sched_runs: usize,
}

impl Scale {
    pub fn quick() -> Scale {
        Scale {
            zdock_count: 8,
            cmv_permille: 4,
            btv_permille: 1,
            sched_runs: 5,
        }
    }

    pub fn default_scale() -> Scale {
        Scale {
            zdock_count: 84,
            cmv_permille: 30,
            btv_permille: 5,
            sched_runs: 20,
        }
    }

    pub fn full() -> Scale {
        Scale {
            zdock_count: 84,
            cmv_permille: 1000,
            btv_permille: 1000,
            sched_runs: 20,
        }
    }

    /// Read `POLAR_SCALE` (quick | default | full); default if unset.
    pub fn from_env() -> Scale {
        match std::env::var("POLAR_SCALE").as_deref() {
            Ok("quick") => Scale::quick(),
            Ok("full") => Scale::full(),
            _ => Scale::default_scale(),
        }
    }
}

/// `count` molecules spread evenly across the 84-protein suite's size
/// sweep (400 → 16,301 atoms), so reduced runs still cover the whole
/// range. `count >= 84` returns the full suite.
pub fn zdock_spread(count: usize) -> Vec<Molecule> {
    use polar_molecule::registry::BenchmarkId;
    let count = count.clamp(1, 84);
    (0..count)
        .map(|i| {
            let idx = if count == 1 { 0 } else { i * 83 / (count - 1) };
            BenchmarkId::ZDock(idx).build()
        })
        .collect()
}

/// The surface/octree configuration every experiment uses (coarse surface
/// ≈ the paper's ~4 q-points per atom after burial culling).
pub fn standard_surface() -> SurfaceConfig {
    SurfaceConfig::coarse()
}

pub fn standard_tree() -> OctreeConfig {
    OctreeConfig::default()
}

/// Build a solver for a molecule with the standard configuration,
/// reporting build time (the paper's ignorable pre-processing step).
pub fn build_solver(mol: &Molecule) -> GbSolver {
    let t = Instant::now();
    let s = GbSolver::for_molecule(mol, &standard_surface(), &standard_tree());
    eprintln!(
        "[build] {}: {} atoms, {} q-points, octrees built in {:.2?}",
        mol.name,
        s.n_atoms(),
        s.n_qpoints(),
        t.elapsed()
    );
    s
}

/// Measure this host's cost per near-field pair unit by timing the real
/// GB pair kernel, so simulated times are anchored to reality.
pub fn calibrate_seconds_per_unit() -> f64 {
    use polar_gb::energy::exact::epol_naive;
    use polar_molecule::generators;
    let mol = generators::globular("cal", 1200, 99);
    let pos = mol.positions();
    let charges = mol.charges();
    let born: Vec<f64> = mol.radii().iter().map(|r| r + 1.0).collect();
    let t = Instant::now();
    let mut sink = 0.0;
    const REPS: usize = 3;
    for _ in 0..REPS {
        sink += epol_naive(&pos, &charges, &born, 332.0, polar_geom::MathMode::Exact);
    }
    let secs = t.elapsed().as_secs_f64();
    std::hint::black_box(sink);
    let pairs = REPS as f64 * (pos.len() * (pos.len() + 1) / 2) as f64;
    secs / pairs
}

/// A Lonestar4-class machine spec calibrated to this host's kernel rate.
pub fn calibrated_machine(nodes: usize) -> MachineSpec {
    MachineSpec::lonestar4(nodes).calibrated(calibrate_seconds_per_unit())
}

/// Turn a prepared solver into a cluster-simulator workload: real per-leaf
/// work counts plus the algorithm's payload sizes.
pub fn experiment_for(
    solver: &GbSolver,
    params: &GbParams,
    spec: MachineSpec,
) -> ClusterExperiment {
    let born_tasks: Vec<u64> = solver
        .born_work_per_qleaf(params)
        .iter()
        .map(|w| w.units())
        .collect();
    let (born, _) = solver.born_radii(params);
    let epol_tasks: Vec<u64> = solver
        .epol_work_per_leaf(&born, params)
        .iter()
        .map(|w| w.units())
        .collect();
    ClusterExperiment::for_solver(spec, solver, born_tasks, epol_tasks)
}

/// Parse the bench binaries' shared `--report [json|csv]` flag from the
/// process arguments. Absent flag → `None`; omitted or unknown value →
/// `"json"` (with a warning for unknown values).
pub fn report_format() -> Option<String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    for (i, arg) in args.iter().enumerate() {
        let value = if let Some(v) = arg.strip_prefix("--report=") {
            v
        } else if arg == "--report" {
            match args.get(i + 1).map(String::as_str) {
                // A following `--flag` means the value was omitted.
                Some(v) if !v.starts_with("--") => v,
                _ => "json",
            }
        } else {
            continue;
        };
        return Some(match value {
            "json" | "csv" => value.to_string(),
            other => {
                eprintln!("warning: --report expects json or csv, got {other:?}; using json");
                "json".to_string()
            }
        });
    }
    None
}

/// When `--report` was passed, build the binary's representative
/// [`polar_gb::SolveReport`] and persist it as
/// `results/<name>_report.<json|csv>`. The closure is only invoked when
/// the flag is present, so binaries pay nothing by default.
pub fn maybe_write_report<F: FnOnce() -> polar_gb::SolveReport>(name: &str, make: F) {
    let Some(fmt) = report_format() else { return };
    let report = make();
    let (ext, body) = if fmt == "csv" {
        ("csv", report.to_csv())
    } else {
        ("json", report.to_json())
    };
    let dir = std::path::Path::new("results");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("[report] cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("{name}_report.{ext}"));
    match std::fs::write(&path, body) {
        Ok(()) => eprintln!("[report] wrote {}", path.display()),
        Err(e) => eprintln!("[report] cannot write {}: {e}", path.display()),
    }
}

/// A printable/CSV-writable table.
pub struct Table {
    pub name: String,
    pub headers: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(name: &str, headers: &[&str]) -> Table {
        Table {
            name: name.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Render aligned for the terminal.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.name);
        let line = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        let _ = writeln!(
            out,
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
        );
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// Print to stdout and persist as `results/<name>.csv`.
    pub fn emit(&self) {
        println!("{}", self.render());
        let dir = std::path::Path::new("results");
        if std::fs::create_dir_all(dir).is_ok() {
            let path = dir.join(format!("{}.csv", self.name));
            if let Ok(mut f) = std::fs::File::create(&path) {
                let _ = writeln!(f, "{}", self.headers.join(","));
                for row in &self.rows {
                    let _ = writeln!(f, "{}", row.join(","));
                }
                eprintln!("[csv] wrote {}", path.display());
            }
        }
    }
}

/// Format seconds compactly (µs → s → min).
pub fn fmt_secs(s: f64) -> String {
    if s < 1e-3 {
        format!("{:.1}us", s * 1e6)
    } else if s < 1.0 {
        format!("{:.1}ms", s * 1e3)
    } else if s < 120.0 {
        format!("{s:.2}s")
    } else {
        format!("{:.1}min", s / 60.0)
    }
}

/// Format byte counts compactly.
pub fn fmt_bytes(b: f64) -> String {
    if b < (1 << 20) as f64 {
        format!("{:.0}KB", b / 1024.0)
    } else if b < (1 << 30) as f64 {
        format!("{:.1}MB", b / (1 << 20) as f64)
    } else {
        format!("{:.2}GB", b / (1 << 30) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_ordered() {
        let q = Scale::quick();
        let d = Scale::default_scale();
        let f = Scale::full();
        assert!(q.zdock_count <= d.zdock_count);
        assert!(d.cmv_permille <= f.cmv_permille);
        assert_eq!(f.cmv_permille, 1000);
    }

    #[test]
    fn table_renders_and_rejects_bad_rows() {
        let mut t = Table::new("demo", &["a", "bb"]);
        t.row(vec!["1".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains("demo"));
        assert!(s.contains("bb"));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.row(vec!["only-one".into()])
        }));
        assert!(result.is_err());
    }

    #[test]
    fn formatting_helpers() {
        assert!(fmt_secs(5e-6).ends_with("us"));
        assert!(fmt_secs(0.5).ends_with("ms"));
        assert!(fmt_secs(30.0).ends_with('s'));
        assert!(fmt_secs(600.0).ends_with("min"));
        assert!(fmt_bytes(2048.0).ends_with("KB"));
        assert!(fmt_bytes(5e6).ends_with("MB"));
        assert!(fmt_bytes(5e9).ends_with("GB"));
    }

    #[test]
    fn calibration_returns_sane_cost() {
        let c = calibrate_seconds_per_unit();
        // Between 0.1 ns and 10 µs per pair on any plausible host/profile.
        assert!(c > 1e-10 && c < 1e-5, "cost {c}");
    }

    #[test]
    fn experiment_glue_produces_consistent_workload() {
        use polar_molecule::generators;
        let mol = generators::globular("glue", 250, 7);
        let s = GbSolver::for_molecule(&mol, &standard_surface(), &standard_tree());
        let e = experiment_for(&s, &GbParams::default(), MachineSpec::lonestar4(12));
        assert_eq!(e.born_tasks.len(), s.tree_q.leaves().len());
        assert_eq!(e.epol_tasks.len(), s.tree_a.leaves().len());
        assert!(e.born_tasks.iter().sum::<u64>() > 0);
        assert!(e.epol_tasks.iter().sum::<u64>() > 0);
        assert!(e.data_bytes > 0);
    }
}
