#!/usr/bin/env bash
# The structural guards: each one greps the source tree for a second copy
# of something the workspace keeps once (a JSON codec, a kernel source, a
# rescoring stack, a Fig. 4 pipeline) or for surface that was retired.
#
# Usage:  scripts/check_structure.sh        (from any working directory)
#
# Runs every guard, prints the name and offending lines of each one that
# fails and exits 1 if any failed. `tests/architecture.rs` runs it, so the
# tier-1 `cargo test` fails with the same output.
#
# Each guard body runs as its own `set -e` subshell and stops at its first
# failing command. Pipelines keep bash's default status (the last
# command's), so a first `grep` that matches nothing is not a failure.

cd "$(dirname "$0")/.." || exit 1

one_json_codec() {
  only_json_rs() { ! grep -v '^crates/molecule/src/json.rs:'; }
  grep -rnE 'fn parse_value|fn (esc|json_string|json_escape|escape_json|escape_into)\(' \
    crates --include='*.rs' | only_json_rs
  grep -rnF '\\u{:04x}' crates --include='*.rs' | only_json_rs
}

one_kernel_source() {
  intrinsic='_mm(256|512)?_[a-z0-9_]+'
  none() { ! grep .; }
  # The one other file with intrinsics is the micro-bench that times
  # the hardware gather the kernels do not use.
  grep -rnE "$intrinsic" crates --include='*.rs' \
    | grep -vE '^crates/(core/src|bench/benches)/kernels.rs:' | none
  awk -v intrinsic="$intrinsic" '
    /^impl Simd for / { inside = 1 }
    inside && /^}/ { inside = 0 }
    !inside && $0 ~ intrinsic { print FILENAME ":" FNR ": " $0; bad = 1 }
    END { exit bad }' crates/core/src/kernels.rs
  grep -rnE 'mod (avx2|avx512)' crates --include='*.rs' | none
}

one_rescoring_stack() {
  none() { ! grep .; }
  # Only prepared.rs sequences the frame primitives that solver.rs
  # and plan.rs define (benchmark/ times them one by one; tests may).
  grep -rnE 'apply_frame\(|\.delta\(|resync_geometry\(' crates/*/src examples --include='*.rs' \
    | grep -vE '^crates/core/src/(solver|plan|prepared)\.rs:' | none
  [ "$(grep -c 'thread::scope' crates/runtime/src/lib.rs)" -le 1 ]
  # Above its tests, batch.rs prepares cold in at most one place and
  # recognises a panic by its typed error, never by its message.
  awk '/^#\[cfg\(test\)\]/ { exit }
       /GbSolver::for_molecule\(/ { n++ }
       /contains\("panicked"\)/ { print FILENAME ":" FNR ": " $0; bad = 1 }
       END { exit bad || n > 1 }' crates/core/src/batch.rs
}

one_fig4_pipeline() {
  none() { ! grep .; }
  # Non-test lines (above each file's first #[cfg(test)]) of the
  # solver and polar-mpi: no stage arithmetic, chunk merge or pool
  # fan-out of their own.
  awk 'FNR == 1 { t = 0 } /^#\[cfg\(test\)\]/ { t = 1 } !t { print FILENAME ":" FNR ": " $0 }' \
    crates/core/src/solver.rs crates/mpi/src/*.rs \
    | grep -E 'push_integrals_to_atoms|EpolCtx::new|approx_integrals|epol_for_leaf_segment|\.(born_into|born|epol)\(|run_batch\(' | none
  grep -rnE 'fn (solve_timed|solve_pooled|fan_out|contiguous_runs|solve_pooled_report)\b' crates/*/src | none
}

no_callerless_surface() {
  none() { ! grep .; }
  # NetworkModel::{allreduce, allgather} stay, so the Comm and
  # NetworkModel names are keyed to their files.
  grep -nE 'fn (send|checked_send|recv|recv_from|set_recv_timeout|barrier|broadcast|allreduce_sum|allgather|allreduce_scalar|alive_ranks)\b|Disconnected' \
    crates/mpi/src/comm.rs | none
  grep -nE 'fn (barrier|broadcast|reduce)\b' crates/mpi/src/network.rs | none
  grep -rnE 'fn (split_even|split_weighted|makespan_envelope|epol_gradient_cutoff|epol_gradient_of_atom|for_each_in_ball|find_leaf|refresh|per_atom_area|born_radii_r4|zdock_like_suite|zdock_suite|atom_count|sphere_bounds|atom_bytes|build_frames|euler_zyx|rotation_about|lerp|any_orthonormal|dist_sq_to_point|cell_count|leaf_drift|to_xyz|to_pdb|symbol)\b|BoundingSphere|IDENTITY: RigidTransform' \
    crates/*/src | none
  find crates -name nonpolar.rs -o -name sphere.rs | none
  # A dead peer is an absent rank or a CommError, never a panic.
  grep -nE '\.(send|recv)\(.*\)\.(expect|unwrap)\(' crates/mpi/src/comm.rs | none
}

one_octree_layout() {
  # The tree is its own walk table: 48-byte pre-order nodes whose `skip`
  # links give the children. No second node table, no child arrays.
  ! grep -rnE '\b(WalkNode|walk_table|NO_NODE)\b|^\s*(pub(\([a-z]+\))? )?children:' crates/*/src
}

no_gather_scatter() {
  ! grep -rnE 'i32gather|i32scatter|i64gather|i64scatter' crates/*/src
}

no_point_dipole_induction() {
  # E_pol is the solvent's polarization; the solute's induced dipoles
  # (and the plan accessors that fed them) were retired.
  ! grep -rniE 'induc|InductionReport|epol_leaf_cover|atom_soa' crates/*/src
}

every_cli_solve_plans() {
  # `energy`, `sweep` and the replicated `distributed` execute a plan;
  # the traversal stays in the library as the reference the tests use.
  ! grep -rnE 'LeafEval::Traverse|\.solve\(|reuse-plan|use_plan: a\.flag' crates/cli/src
}

failed=0
guard() {
  local name=$1 out status
  out=$(set -e; "$2" 2>&1)
  status=$?
  if [ "$status" -ne 0 ]; then
    echo "FAILED: $name"
    [ -z "$out" ] || echo "$out"
    failed=1
  fi
}

guard "One JSON codec (no second reader, string escaper or \\u formatter under crates/)" one_json_codec
guard "One kernel source (every intrinsic inside an \`impl Simd for\` block of kernels.rs, no per-tier module)" one_kernel_source
guard "One rescoring stack (one frame stepper, one pool loop, one engine core)" one_rescoring_stack
guard "One Fig. 4 pipeline (the stages live in polar_gb::eval; the solver and the rank drivers only call them)" one_fig4_pipeline
guard "No caller-less surface (one collective layer, one partitioner, retired extensions stay retired)" no_callerless_surface
guard "One octree layout (the planner and the recursions read the pre-order nodes in place; no WalkNode copy, no children arrays)" one_octree_layout
guard "No hardware gather or scatter in library code (scalar loads won on every tier measured; see kernels.rs)" no_gather_scatter
guard "No point-dipole induction (the workspace computes the GB solvent polarization energy only)" no_point_dipole_induction
guard "Every CLI solve runs the plan engine (no recursive traversal, plan-reuse count or plan switch behind \`polar\`)" every_cli_solve_plans
exit "$failed"
