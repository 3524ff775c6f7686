//! Implementations of the `polar` subcommands.

use crate::args::{ArgError, Args};
use polar_cluster::Layout;
use polar_gb::{GbParams, GbSolver, LeafEval};
use polar_geom::MathMode;
use polar_molecule::manifest::{check_eps, check_non_negative, mib_to_bytes};
use polar_molecule::{generators, io, Molecule};
use polar_mpi::data_dist::run_data_distributed;
use polar_mpi::recovery::run_distributed_ft;
use polar_mpi::{DistributedConfig, FaultSpec};
use polar_octree::OctreeConfig;
use polar_surface::SurfaceConfig;
use std::time::Instant;

type CmdResult = Result<(), Box<dyn std::error::Error>>;

fn load_molecule(a: &Args) -> Result<Molecule, Box<dyn std::error::Error>> {
    let path = a.positional(0, "input file")?;
    Ok(io::load(std::path::Path::new(path))?)
}

/// `--<name>` (`default` when absent) checked by a `manifest::check_*`
/// rule, so a manifest and the command line refuse the same values.
fn checked(
    a: &Args,
    name: &str,
    default: f64,
    rule: fn(&str, f64) -> Result<f64, String>,
) -> Result<f64, ArgError> {
    rule(&format!("--{name}"), a.get_parsed(name, default)?).map_err(ArgError)
}

/// `--approx-math` and `--strict-fp` over the default parameters.
fn modes_from(a: &Args) -> GbParams {
    GbParams {
        math: if a.flag("approx-math") {
            MathMode::Approximate
        } else {
            MathMode::Exact
        },
        kernel: if a.flag("strict-fp") {
            polar_gb::KernelMode::Strict
        } else {
            polar_gb::KernelMode::Lane
        },
        ..GbParams::default()
    }
}

fn params_from(a: &Args) -> Result<GbParams, ArgError> {
    Ok(GbParams {
        eps_born: checked(a, "eps-born", 0.9, check_eps)?,
        eps_epol: checked(a, "eps-epol", 0.9, check_eps)?,
        ..modes_from(a)
    })
}

/// `--threads` (`default` when absent): a worker count, so 0 is refused
/// rather than run as nothing or as one.
fn worker_count(a: &Args, default: usize) -> Result<usize, ArgError> {
    match a.get_parsed("threads", default)? {
        0 => Err(ArgError("ranks and threads must be positive".into())),
        n => Ok(n),
    }
}

/// `--<name> N` (MiB) as a byte count.
fn mib_bytes(a: &Args, name: &str, default_mb: usize) -> Result<usize, ArgError> {
    mib_to_bytes(&format!("--{name}"), a.get_parsed(name, default_mb)?).map_err(ArgError)
}

/// Which serialization `--profile` asked for, if any.
#[derive(Clone, Copy, PartialEq, Eq)]
enum ProfileFormat {
    Json,
    Csv,
}

fn profile_format(a: &Args) -> Result<Option<ProfileFormat>, ArgError> {
    match a.get("profile") {
        None => Ok(None),
        Some("json") => Ok(Some(ProfileFormat::Json)),
        Some("csv") => Ok(Some(ProfileFormat::Csv)),
        Some(other) => Err(ArgError(format!(
            "--profile must be json or csv, got {other:?}"
        ))),
    }
}

/// Print a solve's structured report to stdout in the requested format.
fn emit_report(report: &polar_gb::SolveReport, fmt: Option<ProfileFormat>) {
    match fmt {
        None => {}
        Some(ProfileFormat::Json) => println!("{}", report.to_json()),
        Some(ProfileFormat::Csv) => print!("{}", report.to_csv()),
    }
}

fn prepare(mol: &Molecule) -> GbSolver {
    let t = Instant::now();
    let s = GbSolver::for_molecule(mol, &SurfaceConfig::coarse(), &OctreeConfig::default());
    eprintln!(
        "prepared {} atoms / {} q-points in {:.2?}",
        s.n_atoms(),
        s.n_qpoints(),
        t.elapsed()
    );
    s
}

/// Every core the process may run on.
fn all_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// `polar energy <file>`
pub fn energy(a: &Args) -> CmdResult {
    let profile = profile_format(a)?;
    let params = params_from(a)?;
    let mol = load_molecule(a)?;
    if mol.total_charge().abs() < 1e-12 && mol.charges().iter().all(|q| *q == 0.0) {
        eprintln!(
            "warning: all charges are zero (PDB/XYZ input?) — E_pol will be 0; \
             use a .pqr with real charges"
        );
    }
    let solver = prepare(&mol);
    let workers = a.flag("parallel").then(all_cores);
    let t = Instant::now();
    let (result, report) =
        solver.solve_report(LeafEval::Plan(&solver.plan(&params)), &params, workers)?;
    println!(
        "E_pol = {:.4} kcal/mol  (eps {}/{}, {} math, {:.2?})",
        result.epol_kcal,
        params.eps_born,
        params.eps_epol,
        params.math.label(),
        t.elapsed()
    );
    emit_report(&report, profile);
    if a.flag("naive") {
        let t = Instant::now();
        let born = solver.born_naive(&params);
        let e = solver.epol_naive(&born, &params);
        println!(
            "naive  = {e:.4} kcal/mol  ({:.2?}); octree error {:+.4}%",
            t.elapsed(),
            100.0 * (result.epol_kcal - e) / e.abs()
        );
    }
    Ok(())
}

/// `polar batch --manifest jobs.json [--cache-mb N] [--threads p]
/// [--profile json|csv]`: run a manifest of rescoring jobs through the
/// batch engine — plan-cached, arena-reusing, panic-isolated — and
/// print the BatchReport.
pub fn batch(a: &Args) -> CmdResult {
    use polar_gb::{BatchEngine, BatchJob, BatchOutcome};
    let manifest_path = a
        .get("manifest")
        .ok_or_else(|| ArgError("batch needs --manifest <jobs.json>".into()))?;
    let cache_bytes = mib_bytes(a, "cache-mb", 256)?;
    let workers = worker_count(a, all_cores())?;
    let profile = profile_format(a)?;
    let path = std::path::Path::new(manifest_path);
    let manifest = polar_molecule::manifest::load_manifest(path)?;
    let base = path.parent().unwrap_or_else(|| std::path::Path::new("."));

    let mut jobs = Vec::with_capacity(manifest.expanded_len());
    for entry in &manifest.jobs {
        let mol = entry.build_molecule(base)?;
        let params = GbParams {
            eps_born: entry.eps_born,
            eps_epol: entry.eps_epol,
            ..GbParams::default()
        };
        for _ in 0..entry.repeat {
            jobs.push(BatchJob::new(mol.clone(), params));
        }
    }
    eprintln!(
        "batch: {} jobs ({} manifest entries), cache {} MB, {workers} workers",
        jobs.len(),
        manifest.jobs.len(),
        cache_bytes >> 20,
    );

    let mut engine = BatchEngine::new(cache_bytes, workers);
    let (outcomes, report) = engine.run(&jobs);
    for (job, out) in jobs.iter().zip(&outcomes) {
        match out {
            BatchOutcome::Done {
                result,
                cache_hit,
                replan,
            } => eprintln!(
                "  {:<24} E_pol = {:>12.4} kcal/mol  [{}]",
                job.molecule.name,
                result.epol_kcal,
                if *cache_hit {
                    "cache hit"
                } else if replan.is_some() {
                    "patched"
                } else {
                    "built"
                },
            ),
            BatchOutcome::Failed { error } => {
                eprintln!("  {:<24} FAILED: {error}", job.molecule.name)
            }
        }
    }
    // hit_rate() is NaN for a zero-job batch; print "n/a" rather than NaN%.
    let hit_rate = if report.hit_rate().is_finite() {
        format!("{:.0}%", 100.0 * report.hit_rate())
    } else {
        "n/a".to_string()
    };
    eprintln!(
        "batch done: {}/{} ok, hit rate {hit_rate}, {} evictions, {:.1} MB cached, \
         {} arena reuses, {:.2}s",
        report.succeeded,
        report.jobs,
        report.cache_evictions,
        report.cache_bytes_held as f64 / 1048576.0,
        report.arena_reuses,
        report.wall_seconds,
    );
    match profile {
        None => {}
        Some(ProfileFormat::Json) => println!("{}", report.to_json()),
        Some(ProfileFormat::Csv) => print!("{}", report.to_csv()),
    }
    if report.failed > 0 {
        return Err(Box::new(ArgError(format!(
            "{} of {} jobs failed",
            report.failed, report.jobs
        ))));
    }
    Ok(())
}

/// `polar trajectory`: replay each manifest job's frame sequence through
/// the incremental re-planning path — frame 0 plans cold, every later
/// frame moves the prepared solver in place and patches the existing
/// plan when the delta classifier allows it (`polar_gb::replay_frames`)
/// — and report per-frame provenance plus the patch-time vs
/// cold-plan-time comparison.
pub fn trajectory(a: &Args) -> CmdResult {
    use polar_gb::ReplanConfig;
    use polar_molecule::manifest::FrameSpec;
    let profile = profile_format(a)?;
    let replan = ReplanConfig::default();
    let cfg = ReplanConfig {
        tolerance: checked(a, "tolerance", replan.tolerance, check_non_negative)?,
        ..replan
    };
    let override_count = match a.get("frames") {
        None => None,
        Some(_) => Some(a.get_parsed("frames", 0usize)?),
    };
    let override_step = match a.get("max-step") {
        None => None,
        Some(_) => Some(checked(a, "max-step", 0.0, check_non_negative)?),
    };
    let override_seed = match a.get("frame-seed") {
        None => None,
        Some(_) => Some(a.get_parsed("frame-seed", 0u64)?),
    };
    // Inputs come from a manifest (one sequence per job) or, like the
    // other solve commands, a single positional structure file.
    let mut inputs: Vec<(Molecule, FrameSpec, GbParams)> = Vec::new();
    if let Some(manifest_path) = a.get("manifest") {
        let path = std::path::Path::new(manifest_path);
        let manifest = polar_molecule::manifest::load_manifest(path)?;
        let base = path.parent().unwrap_or_else(|| std::path::Path::new("."));
        for entry in &manifest.jobs {
            let mol = entry.build_molecule(base)?;
            let params = GbParams {
                eps_born: entry.eps_born,
                eps_epol: entry.eps_epol,
                ..GbParams::default()
            };
            inputs.push((mol, entry.frames.unwrap_or_default(), params));
        }
    } else {
        let path = a.positional(0, "input file (or pass --manifest <jobs.json>)")?;
        let params = params_from(a)?;
        let mol = io::load(std::path::Path::new(path))?;
        inputs.push((mol, FrameSpec::default(), params));
    }

    let mut reports = Vec::new();
    for (mol, mut spec, params) in inputs {
        if let Some(n) = override_count {
            if n == 0 {
                return Err(Box::new(ArgError("--frames must be >= 1".into())));
            }
            spec.count = n;
        }
        if let Some(s) = override_step {
            spec.max_step = s;
        }
        if let Some(s) = override_seed {
            spec.seed = s;
        }
        let frames =
            polar_molecule::trajectory::jitter_frames(&mol, spec.count, spec.max_step, spec.seed);
        let report = polar_gb::replay_frames(&mol, &frames, &params, &cfg, |_, _, _| {})?;
        eprintln!(
            "{:<24} {} frames: {} patched / {} rebuilt / {} reused, \
             cold plan {:.2} ms, mean patch {:.2} ms ({:.1}x), {:.2}s",
            report.molecule,
            report.frames,
            report.patched_frames,
            report.rebuilt_frames,
            report.reused_frames,
            1e3 * report.cold_plan_seconds,
            1e3 * report.mean_patch_seconds,
            report.speedup,
            report.wall_seconds,
        );
        reports.push(report);
    }

    if let Some(out) = a.get("out") {
        let json = if reports.len() == 1 {
            reports[0].to_json()
        } else {
            let items: Vec<String> = reports.iter().map(|r| r.to_json()).collect();
            format!("[{}]", items.join(","))
        };
        std::fs::write(out, json)?;
        eprintln!("wrote {out}");
    }
    for report in &reports {
        match profile {
            None => {}
            Some(ProfileFormat::Json) => println!("{}", report.to_json()),
            Some(ProfileFormat::Csv) => print!("{}", report.to_csv()),
        }
    }
    Ok(())
}

/// `polar minimize <file>`: relax atom positions on the plan-path
/// analytic frozen-radii gradient — Armijo backtracking line search,
/// L-BFGS directions, every trial frame routed through the
/// incremental re-planning path.
pub fn minimize(a: &Args) -> CmdResult {
    use polar_gb::{MinimizeConfig, ReplanConfig};
    let profile = profile_format(a)?;
    let params = params_from(a)?;
    let threads = worker_count(a, if a.flag("parallel") { all_cores() } else { 1 })?;
    let defaults = MinimizeConfig::default();
    let cfg = MinimizeConfig {
        max_iters: a.get_parsed("max-iters", defaults.max_iters)?,
        grad_tol: a.get_parsed("grad-tol", defaults.grad_tol)?,
        initial_step: checked(a, "step", defaults.initial_step, check_eps)?,
        max_step: checked(a, "max-step", defaults.max_step, check_non_negative)?,
        lbfgs_memory: a.get_parsed("lbfgs-memory", defaults.lbfgs_memory)?,
        replan: ReplanConfig {
            tolerance: checked(
                a,
                "tolerance",
                defaults.replan.tolerance,
                check_non_negative,
            )?,
            ..defaults.replan
        },
        // One thread is the serial path.
        workers: (threads > 1).then_some(threads),
        ..defaults
    };

    let mol = load_molecule(a)?;
    let mut solver = prepare(&mol);
    let t = Instant::now();
    let mut plan = solver.plan(&params);
    eprintln!("cold plan in {:.2?}", t.elapsed());
    let e_start = solver.solve_with_plan(&plan, &params)?.epol_kcal;

    let out = polar_gb::minimize(&mut solver, &mut plan, &params, &cfg)?;
    let report = &out.report;
    println!(
        "E_pol {e_start:.4} -> {:.4} kcal/mol in {} iters ({}); |grad|max {:.4} kcal/mol/A",
        out.energy_kcal,
        out.iters,
        if report.converged {
            "converged"
        } else if report.stalled {
            "stalled at frozen-radii floor"
        } else {
            "iteration cap"
        },
        out.grad_max,
    );
    println!(
        "plan ops: {} patched / {} rebuilt / {} reused trial frames; \
         gradient stage {:.3}s of {:.3}s wall",
        report.total_patched,
        report.total_rebuilt,
        report.total_reused,
        report.grad_seconds,
        report.wall_s,
    );
    if let Some(path) = a.get("out") {
        std::fs::write(path, report.to_json())?;
        eprintln!("wrote {path}");
    }
    match profile {
        None => {}
        Some(ProfileFormat::Json) => println!("{}", report.to_json()),
        Some(ProfileFormat::Csv) => print!("{}", report.to_csv()),
    }
    Ok(())
}

/// `polar serve`: run the persistent rescoring server until a client
/// sends `{"cmd":"drain"}`, then print the final report and exit 0.
pub fn serve(a: &Args) -> CmdResult {
    use std::io::Write;
    let workers = worker_count(a, all_cores())?;
    let deadline_ms = match a.get("deadline-ms") {
        None => None,
        Some(_) => Some(a.get_parsed("deadline-ms", 0u64)?),
    };
    let tenant_quota_bytes = match a.get("quota-mb") {
        None => None,
        Some(_) => Some(mib_bytes(a, "quota-mb", 0)?),
    };
    let cache_bytes = mib_bytes(a, "cache-mb", 256)?;
    let profile = profile_format(a)?;
    let cfg = polar_serve::ServeConfig {
        addr: a.get("addr").unwrap_or("127.0.0.1:0").to_string(),
        workers,
        queue_depth: a.get_parsed("queue-depth", 64)?,
        default_deadline_ms: deadline_ms,
        cache_bytes,
        tenant_quota_bytes,
        drain_timeout: std::time::Duration::from_secs(a.get_parsed("drain-timeout", 10u64)?),
        ..polar_serve::ServeConfig::default()
    };
    let handle = polar_serve::start(cfg)?;
    // Scripts read the resolved address (port 0 = ephemeral) from the
    // first stdout line.
    println!("listening on {}", handle.local_addr());
    std::io::stdout().flush().ok();
    eprintln!(
        "serve: {workers} workers, queue depth {}, cache {} MB; \
         send {{\"cmd\":\"drain\"}} to stop",
        a.get_parsed("queue-depth", 64usize)?,
        cache_bytes >> 20,
    );
    let report = handle.join();
    eprintln!(
        "serve drained: {} requests ({} completed, {} shed, {} deadline-exceeded, \
         {} panicked, {} failed, {} rejected), counters {}",
        report.requests,
        report.completed,
        report.shed,
        report.deadline_exceeded,
        report.panicked,
        report.failed,
        report.rejected,
        if report.reconciles() {
            "reconcile"
        } else {
            "DO NOT RECONCILE"
        },
    );
    match profile {
        None => {}
        Some(ProfileFormat::Json) => println!("{}", report.to_json()),
        Some(ProfileFormat::Csv) => print!("{}", report.to_csv()),
    }
    if !report.reconciles() {
        return Err(Box::new(ArgError(
            "serve counters failed to reconcile".into(),
        )));
    }
    Ok(())
}

/// `polar info <file>`
pub fn info(a: &Args) -> CmdResult {
    let mol = load_molecule(a)?;
    let b = mol.bounds();
    println!("name:        {}", mol.name);
    println!("atoms:       {}", mol.len());
    println!("net charge:  {:+.4} e", mol.total_charge());
    println!(
        "bounds:      [{:.1} {:.1} {:.1}] .. [{:.1} {:.1} {:.1}]  (diag {:.1} A)",
        b.min.x,
        b.min.y,
        b.min.z,
        b.max.x,
        b.max.y,
        b.max.z,
        2.0 * b.circumradius()
    );
    let q = mol.surface(&SurfaceConfig::coarse());
    let area: f64 = q.iter().map(|p| p.weight).sum();
    println!(
        "surface:     {} quadrature points, {area:.0} A^2 exposed",
        q.len()
    );
    Ok(())
}

/// `polar generate <kind> <n>`
pub fn generate(a: &Args) -> CmdResult {
    let kind = a.positional(0, "kind (globule|shell|ligand)")?;
    let n: usize = a
        .positional(1, "atom count")?
        .parse()
        .map_err(|_| ArgError("atom count must be an integer".into()))?;
    if n == 0 {
        return Err(Box::new(ArgError("atom count must be >= 1".into())));
    }
    let seed = a.get_parsed("seed", 42_u64)?;
    let mol = match kind {
        "globule" => generators::globular(format!("globule_n{n}"), n, seed),
        "shell" => generators::virus_shell(format!("shell_n{n}"), n, 25.0, seed),
        "ligand" => generators::ligand(format!("ligand_n{n}"), n, seed),
        other => return Err(Box::new(ArgError(format!("unknown kind {other:?}")))),
    };
    let text = io::to_pqr(&mol);
    match a.get("out") {
        Some(path) => {
            std::fs::write(path, text)?;
            eprintln!("wrote {} atoms to {path}", mol.len());
        }
        None => print!("{text}"),
    }
    Ok(())
}

/// `polar sweep <file>`
pub fn sweep(a: &Args) -> CmdResult {
    let from = checked(a, "from", 0.1, check_eps)?;
    let to = checked(a, "to", 0.9, check_eps)?;
    let steps: usize = a.get_parsed("steps", 9)?;
    if !(to >= from && steps >= 1) {
        return Err(Box::new(ArgError(
            "need 0 < from <= to and steps >= 1".into(),
        )));
    }
    // The sweep sets both ε itself: `--eps-born`/`--eps-epol` are not
    // among its options.
    let modes = modes_from(a);
    let mol = load_molecule(a)?;
    let solver = prepare(&mol);
    let solve = |eps: f64| {
        let p = GbParams {
            eps_born: eps,
            eps_epol: eps,
            ..modes
        };
        solver.solve_with_plan(&solver.plan(&p), &p)
    };
    let reference = solve(1e-6)?.epol_kcal;
    println!("reference (exact) E_pol = {reference:.4} kcal/mol");
    println!("{:>7} {:>14} {:>9} {:>12}", "eps", "E_pol", "err %", "time");
    for k in 0..steps {
        let eps = if steps == 1 {
            from
        } else {
            from + (to - from) * k as f64 / (steps - 1) as f64
        };
        let t = Instant::now();
        let r = solve(eps)?;
        println!(
            "{eps:>7.3} {:>14.4} {:>9.4} {:>12.2?}",
            r.epol_kcal,
            100.0 * (r.epol_kcal - reference) / reference.abs(),
            t.elapsed()
        );
    }
    Ok(())
}

/// The fault schedule `polar distributed` was asked to inject, if any:
/// `--faults spec.json` loads an explicit [`FaultSpec`], `--fault-seed N`
/// derives one deterministically from the seed and rank count.
fn fault_spec_from(
    a: &Args,
    ranks: usize,
) -> Result<Option<FaultSpec>, Box<dyn std::error::Error>> {
    match (a.get("faults"), a.get("fault-seed")) {
        (Some(_), Some(_)) => Err(Box::new(ArgError(
            "--faults and --fault-seed are mutually exclusive; pick one".into(),
        ))),
        (Some(path), None) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| ArgError(format!("--faults {path}: {e}")))?;
            let spec = FaultSpec::parse_json(&text)
                .map_err(|e| ArgError(format!("--faults {path}: {e}")))?;
            Ok(Some(spec))
        }
        (None, Some(_)) => {
            let seed: u64 = a.get_parsed("fault-seed", 0)?;
            Ok(Some(FaultSpec::from_seed(seed, ranks)))
        }
        (None, None) => Ok(None),
    }
}

/// `polar distributed <file>`
pub fn distributed(a: &Args) -> CmdResult {
    let ranks: usize = a.get_parsed("ranks", 4)?;
    let threads = worker_count(a, 1)?;
    if ranks == 0 {
        return Err(Box::new(ArgError(
            "ranks and threads must be positive".into(),
        )));
    }
    let profile = profile_format(a)?;
    let params = params_from(a)?;
    let mol = load_molecule(a)?;
    let solver = prepare(&mol);
    let cfg = DistributedConfig {
        ranks,
        threads_per_rank: threads,
        params,
        use_plan: true,
        ..DistributedConfig::oct_mpi(ranks, params)
    };
    let fault_spec = fault_spec_from(a, ranks)?;
    if a.flag("data-dist") {
        if fault_spec.is_some() {
            return Err(Box::new(ArgError(
                "fault injection requires the replicated driver; drop --data-dist".into(),
            )));
        }
        if profile.is_some() {
            eprintln!("warning: --profile is not available for the data-distributed driver");
        }
        let t = Instant::now();
        let run = run_data_distributed(&solver, &cfg)?;
        println!(
            "data-distributed E_pol = {:.4} kcal/mol on {ranks} ranks in {:.2?}",
            run.epol_kcal,
            t.elapsed()
        );
        println!(
            "memory: {:.1} MB total vs {:.1} MB work-only replication ({:.1}x saving)",
            run.total_bytes as f64 / 1048576.0,
            run.work_only_bytes as f64 / 1048576.0,
            run.work_only_bytes as f64 / run.total_bytes as f64
        );
        return Ok(());
    }
    let t = Instant::now();
    let spec = fault_spec.unwrap_or_else(FaultSpec::none);
    let run = run_distributed_ft(&solver, &cfg, &spec)?;
    if run.faults_scheduled {
        let f = &run.fault;
        println!(
            "E_pol = {:.4} kcal/mol on {}/{ranks} surviving ranks x {threads} threads in {:.2?}",
            run.epol_kcal,
            run.survivors.len(),
            t.elapsed()
        );
        println!(
            "faults: seed {} | {} crashes {:?} | {} drops, {} message retries | \
             {} worker retries | {} re-divisions recovering {} items | +{:.1} ms straggler time",
            f.seed,
            f.crashes,
            f.dead_ranks,
            f.drops,
            f.msg_retries,
            f.worker_retries,
            f.redivisions,
            f.recovered_items,
            f.straggler_extra_seconds * 1e3,
        );
    } else {
        println!(
            "E_pol = {:.4} kcal/mol on {ranks} ranks x {threads} threads in {:.2?}",
            run.epol_kcal,
            t.elapsed()
        );
        println!(
            "replicated memory: {:.1} MB total; max simulated comm {:.2} ms/rank",
            run.total_replicated_bytes as f64 / 1048576.0,
            run.per_rank_comm_seconds
                .iter()
                .cloned()
                .fold(0.0, f64::max)
                * 1e3
        );
    }
    emit_report(&run.report(&solver, &cfg), profile);
    Ok(())
}

/// `polar project <file>` — simulated Lonestar4 timings.
pub fn project(a: &Args) -> CmdResult {
    let nodes: usize = a.get_parsed("nodes", 12)?;
    if nodes == 0 {
        return Err(Box::new(ArgError("--nodes must be >= 1".into())));
    }
    let params = params_from(a)?;
    let mol = load_molecule(a)?;
    let solver = prepare(&mol);
    let spec = polar_cluster::MachineSpec::lonestar4(nodes);
    let (born_tasks, epol_tasks): (Vec<u64>, Vec<u64>) = if a.flag("plan") {
        // Cost model from the plan's flat lists: cheaper to obtain than
        // the counting traversals and identical in the units that matter
        // (pair/far evaluations; no tree-walk term).
        let plan = solver.plan(&params);
        let (born, _) = solver.born_radii(&params);
        let ectx = polar_gb::eval::epol_ctx(&solver, &born, &params, Default::default());
        (
            plan.born_leaf_work().iter().map(|w| w.units()).collect(),
            plan.epol_leaf_work(&ectx)
                .iter()
                .map(|w| w.units())
                .collect(),
        )
    } else {
        let (born, _) = solver.born_radii(&params);
        (
            solver
                .born_work_per_qleaf(&params)
                .iter()
                .map(|w| w.units())
                .collect(),
            solver
                .epol_work_per_leaf(&born, &params)
                .iter()
                .map(|w| w.units())
                .collect(),
        )
    };
    let exp = polar_cluster::ClusterExperiment::for_solver(spec, &solver, born_tasks, epol_tasks);
    println!(
        "{:>6} {:>14} {:>18}",
        "cores", "OCT_MPI", "OCT_MPI+CILK(x6)"
    );
    let mut cores = 12;
    while cores <= spec.total_cores() {
        let mpi = exp.simulate(Layout::pure_mpi(cores), 1).total_seconds;
        let hyb = exp
            .simulate(
                Layout {
                    ranks: cores / 6,
                    threads_per_rank: 6,
                },
                1,
            )
            .total_seconds;
        println!("{cores:>6} {mpi:>13.4}s {hyb:>17.4}s");
        cores *= 2;
    }
    Ok(())
}
