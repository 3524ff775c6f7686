//! `polar` — the command-line front end.
//!
//! ```text
//! polar energy <file.pqr|.pdb|.xyz> [--eps-born E] [--eps-epol E]
//!                                   [--approx-math] [--strict-fp]
//!                                   [--parallel] [--naive] [--profile json|csv]
//! polar info <file>
//! polar generate <globule|shell|ligand> <n_atoms> [--seed S] [--out f.pqr]
//! polar sweep <file> [--from 0.1] [--to 0.9] [--steps 9]
//! polar distributed <file> [--ranks P] [--threads p] [--data-dist]
//!                          [--faults spec.json | --fault-seed N]
//! polar batch --manifest jobs.json [--cache-mb N] [--threads p]
//!                                  [--profile json|csv]
//! polar trajectory <file> | --manifest jobs.json
//!                  [--frames N] [--max-step S] [--frame-seed K]
//!                  [--tolerance T] [--out report.json] [--profile json|csv]
//! polar minimize <file> [--max-iters N] [--grad-tol G] [--step S]
//!                       [--max-step S] [--lbfgs-memory M] [--tolerance T]
//!                       [--out report.json] [--profile json|csv]
//! polar serve [--addr H:P] [--queue-depth N] [--deadline-ms N]
//!             [--cache-mb N] [--quota-mb N] [--drain-timeout S]
//! polar project <file> [--nodes N] [--plan]  # simulated cluster timings
//! ```
//!
//! Every solve (`energy`, `sweep`, replicated `distributed`) plans the
//! Fig. 2/3 separation tests once into flat interaction lists and
//! executes them; only `distributed --data-dist` walks the octrees.

mod args;
mod commands;

use args::Args;

const VALUE_OPTS: &[&str] = &[
    "eps-born",
    "eps-epol",
    "seed",
    "out",
    "from",
    "to",
    "steps",
    "ranks",
    "threads",
    "nodes",
    "profile",
    "faults",
    "fault-seed",
    "manifest",
    "cache-mb",
    "addr",
    "queue-depth",
    "deadline-ms",
    "quota-mb",
    "drain-timeout",
    "frames",
    "max-step",
    "frame-seed",
    "tolerance",
    "max-iters",
    "grad-tol",
    "step",
    "lbfgs-memory",
];
const BOOL_FLAGS: &[&str] = &[
    "approx-math",
    "parallel",
    "naive",
    "data-dist",
    "plan",
    "strict-fp",
];

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() || argv[0] == "help" || argv[0] == "--help" {
        print_usage();
        return;
    }
    let parsed = match Args::parse(&argv, VALUE_OPTS, BOOL_FLAGS) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            print_usage();
            std::process::exit(2);
        }
    };
    let result = match parsed.command.as_str() {
        "energy" => commands::energy(&parsed),
        "info" => commands::info(&parsed),
        "generate" => commands::generate(&parsed),
        "sweep" => commands::sweep(&parsed),
        "distributed" => commands::distributed(&parsed),
        "batch" => commands::batch(&parsed),
        "trajectory" => commands::trajectory(&parsed),
        "minimize" => commands::minimize(&parsed),
        "serve" => commands::serve(&parsed),
        "project" => commands::project(&parsed),
        other => {
            eprintln!("error: unknown command {other:?}");
            print_usage();
            std::process::exit(2);
        }
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        // A bad option value is a usage error, like an unknown option.
        std::process::exit(if e.is::<args::ArgError>() { 2 } else { 1 });
    }
}

fn print_usage() {
    eprintln!(
        "polar — octree-based GB polarization energy (SC 2012 reproduction)

USAGE:
  polar energy <file>       compute E_pol (octree plan, eps = 0.9/0.9 default)
      --eps-born E --eps-epol E   approximation parameters
      --approx-math               fast sqrt/exp/cbrt kernels
      --strict-fp                 scalar strict-fp plan execution (the
                                  lane-kernel fast path is the default)
      --parallel                  shared-memory (OCT_CILK) solve on the
                                  work-stealing pool
      --naive                     also run the O(M^2) reference + error
      --profile json|csv          print a structured SolveReport to stdout
  polar info <file>         atom counts, charge, bounds, surface size
  polar generate <kind> <n> synthesize globule|shell|ligand [--seed S] [--out f.pqr]
  polar sweep <file>        error/time vs eps [--from A --to B --steps K]
  polar distributed <file>  the in-process OCT_MPI / OCT_MPI+CILK driver
                            [--ranks P] [--threads p]; ranks execute
                            segments of one shared plan
      --data-dist                 partition the quadrature points over ranks
                                  instead of replicating them (octree
                                  traversal, no faults)
      --faults spec.json          inject the fault schedule from a FaultSpec file
      --fault-seed N              inject a deterministic seeded fault schedule;
                                  survivors recover lost work by re-division
  polar batch               run a manifest of rescoring jobs through the
      --manifest jobs.json        batch engine (LRU plan cache + scratch arenas)
      --cache-mb N                plan-cache capacity in MB (default 256)
      --threads p                 worker count (default: all cores)
      --profile json|csv          print the BatchReport to stdout
  polar trajectory [<file>] replay frame sequences through the incremental
      --manifest jobs.json        re-planning path (delta-tolerant plan
                                  patching for moving geometry) and report
                                  patched vs cold; a positional file runs
                                  one default-spec sequence
      --eps-born E --eps-epol E   approximation parameters (file form)
      --frames N                  override every job's frame count
      --max-step S                override per-frame jitter bound (Å)
      --frame-seed K              override the frame random-walk seed
      --tolerance T               node-geometry drift tolerance (Å, default 0.1)
      --out report.json           also write the ReplanReport JSON to a file
      --profile json|csv          print the ReplanReport to stdout
  polar minimize <file>     relax atom positions on the plan-path analytic
                            frozen-radii gradient (Armijo line search,
                            L-BFGS directions, incremental re-planning)
      --eps-born E --eps-epol E   approximation parameters
      --max-iters N               iteration cap (default 100)
      --grad-tol G                converge when |grad|max <= G (default 0.5)
      --step S                    first-iteration displacement, A (default 0.02)
      --max-step S                per-iteration displacement cap, A (default 0.25)
      --lbfgs-memory M            L-BFGS history pairs; 0 = steepest descent
      --tolerance T               node-geometry drift tolerance (A, default 0.1)
      --parallel / --threads p    parallel gradient + energy stages
      --out report.json           also write the GradientReport JSON to a file
      --profile json|csv          print the GradientReport to stdout
  polar serve               persistent rescoring server (line-delimited
      --addr HOST:PORT            JSON over TCP; port 0 = ephemeral)
      --queue-depth N             admission queue bound (default 64)
      --deadline-ms N             default per-request deadline (none)
      --cache-mb N                plan-cache capacity in MB (default 256)
      --quota-mb N                per-tenant cache quota in MB (none)
      --drain-timeout S           drain grace period, seconds (default 10)
      --threads p                 worker count (default: all cores)
      --profile json|csv          print the final ServeReport to stdout
  polar project <file>      simulated Lonestar4 timings [--nodes N]
      --plan                      derive per-leaf task costs from plan lists

Input formats: .pqr (charges+radii), .pdb/.ent (element radii, q=0), .xyz"
    );
}
