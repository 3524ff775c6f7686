//! `polar` — the command-line front end.
//!
//! ```text
//! polar energy <file.pqr|.pdb|.xyz> [--eps-born E] [--eps-epol E]
//!                                   [--approx-math] [--strict-fp]
//!                                   [--parallel] [--naive] [--profile json|csv]
//! polar info <file>
//! polar generate <globule|shell|ligand> <n_atoms> [--seed S] [--out f.pqr]
//! polar sweep <file> [--from 0.1] [--to 0.9] [--steps 9]
//!                    [--approx-math] [--strict-fp]
//! polar distributed <file> [--ranks P] [--threads p] [--data-dist]
//!                          [--faults spec.json | --fault-seed N]
//!                          [--eps-born E] [--eps-epol E] [--approx-math]
//!                          [--strict-fp] [--profile json|csv]
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
//! Each command takes only the options it reads ([`COMMANDS`]); any
//! other is an unknown option, a usage error (exit 2).

mod args;
mod commands;

use args::Args;

/// One `polar` command: what runs it, the options it takes a value for
/// and the flags it reads. Anything else on its command line is an
/// unknown option.
struct Command {
    name: &'static str,
    run: fn(&Args) -> Result<(), Box<dyn std::error::Error>>,
    values: &'static [&'static str],
    flags: &'static [&'static str],
}

const COMMANDS: &[Command] = &[
    Command {
        name: "energy",
        run: commands::energy,
        values: &["eps-born", "eps-epol", "profile"],
        flags: &["approx-math", "strict-fp", "parallel", "naive"],
    },
    Command {
        name: "info",
        run: commands::info,
        values: &[],
        flags: &[],
    },
    Command {
        name: "generate",
        run: commands::generate,
        values: &["seed", "out"],
        flags: &[],
    },
    Command {
        name: "sweep",
        run: commands::sweep,
        values: &["from", "to", "steps"],
        flags: &["approx-math", "strict-fp"],
    },
    Command {
        name: "distributed",
        run: commands::distributed,
        values: &[
            "eps-born",
            "eps-epol",
            "ranks",
            "threads",
            "faults",
            "fault-seed",
            "profile",
        ],
        flags: &["approx-math", "strict-fp", "data-dist"],
    },
    Command {
        name: "batch",
        run: commands::batch,
        values: &["manifest", "cache-mb", "threads", "profile"],
        flags: &[],
    },
    Command {
        name: "trajectory",
        run: commands::trajectory,
        values: &[
            "eps-born",
            "eps-epol",
            "manifest",
            "frames",
            "max-step",
            "frame-seed",
            "tolerance",
            "out",
            "profile",
        ],
        flags: &["approx-math", "strict-fp"],
    },
    Command {
        name: "minimize",
        run: commands::minimize,
        values: &[
            "eps-born",
            "eps-epol",
            "max-iters",
            "grad-tol",
            "step",
            "max-step",
            "lbfgs-memory",
            "tolerance",
            "threads",
            "out",
            "profile",
        ],
        flags: &["approx-math", "strict-fp", "parallel"],
    },
    Command {
        name: "serve",
        run: commands::serve,
        values: &[
            "addr",
            "queue-depth",
            "deadline-ms",
            "cache-mb",
            "quota-mb",
            "drain-timeout",
            "threads",
            "profile",
        ],
        flags: &[],
    },
    Command {
        name: "project",
        run: commands::project,
        values: &["eps-born", "eps-epol", "nodes"],
        flags: &["approx-math", "strict-fp", "plan"],
    },
];

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() || argv[0] == "help" || argv[0] == "--help" {
        eprintln!("{USAGE}");
        return;
    }
    let Some(command) = COMMANDS.iter().find(|c| c.name == argv[0]) else {
        eprintln!("error: unknown command {:?}", argv[0]);
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    let parsed = match Args::parse(&argv, command.values, command.flags) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = (command.run)(&parsed) {
        eprintln!("error: {e}");
        // A bad option value is a usage error, like an unknown option.
        std::process::exit(if e.is::<args::ArgError>() { 2 } else { 1 });
    }
}

const USAGE: &str = "polar — octree-based GB polarization energy (SC 2012 reproduction)

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
                            (sets both eps itself)
      --approx-math / --strict-fp as for energy
  polar distributed <file>  the in-process OCT_MPI / OCT_MPI+CILK driver
                            [--ranks P] [--threads p]; ranks execute
                            segments of one shared plan
      --data-dist                 partition the quadrature points over ranks
                                  instead of replicating them (octree
                                  traversal, no faults)
      --faults spec.json          inject the fault schedule from a FaultSpec file
      --fault-seed N              inject a deterministic seeded fault schedule;
                                  survivors recover lost work by re-division
      --eps-born E --eps-epol E   approximation parameters
      --approx-math / --strict-fp as for energy
      --profile json|csv          print the SolveReport to stdout
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
      --approx-math / --strict-fp as for energy (file form)
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
      --approx-math / --strict-fp as for energy
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
      --eps-born E --eps-epol E   approximation parameters
      --approx-math / --strict-fp as for energy

Input formats: .pqr (charges+radii), .pdb/.ent (element radii, q=0), .xyz";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_option_in_the_usage_is_accepted_by_its_command() {
        let mut command: Option<&Command> = None;
        let mut listed = Vec::new();
        for line in USAGE.lines() {
            if let Some(rest) = line.strip_prefix("  polar ") {
                let name = rest.split_whitespace().next().unwrap_or_default();
                command = COMMANDS.iter().find(|c| c.name == name);
                assert!(command.is_some(), "usage names no command {name:?}");
                listed.push(name);
            } else if !line.starts_with(' ') {
                command = None;
            }
            for option in line.split("--").skip(1) {
                let end = option.find(|c: char| !c.is_ascii_lowercase() && c != '-');
                let name = &option[..end.unwrap_or(option.len())];
                let c = command.unwrap_or_else(|| panic!("--{name} outside a command: {line}"));
                assert!(
                    c.values.contains(&name) || c.flags.contains(&name),
                    "polar {} does not accept --{name}",
                    c.name
                );
            }
        }
        let all = Vec::from_iter(COMMANDS.iter().map(|c| c.name));
        assert_eq!(listed, all, "the usage lists every command once, in order");
    }
}
