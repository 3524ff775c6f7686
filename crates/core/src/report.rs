//! Structured per-solve observability: the [`SolveReport`].
//!
//! Every solve path — serial, shared-memory parallel, the `polar-mpi`
//! distributed drivers, and the `polar-cluster` simulator — can emit one
//! `SolveReport` describing what the solve did: per-stage wall time and
//! [`WorkCounts`], octree shape statistics, work-stealing scheduler
//! counters, simulated communication cost, and memory footprints.
//!
//! Reports serialize to JSON ([`SolveReport::to_json`]) and flat CSV
//! ([`SolveReport::to_csv`]). Each report type declares its fields once,
//! in order, as (JSON key, CSV column, accessor) in its `Record` impl;
//! one JSON sink (over [`polar_molecule::json::JsonWriter`]) and one CSV
//! sink turn that list into every `to_json`, `csv_header` and `to_csv`
//! below, so a new field is one line. The CSV layout is one record per
//! line under a fixed header, so rows from many runs concatenate into
//! one analyzable table (`results/*.csv`).
//!
//! Invariant worth leaning on: `WorkCounts` are *schedule-independent* —
//! serial, work-stealing parallel, and simulated-MPI solves of the same
//! molecule at the same ε must report identical stage totals (asserted
//! in `tests/report_invariants.rs`).

use crate::stats::WorkCounts;
use polar_molecule::json::JsonWriter;
use polar_octree::Octree;
use polar_runtime::StealStats;
use Val::{Bool, Int, List, Null, Num, NumOrBlank, Obj, Rec, Str};

/// One pipeline stage (Born radii or E_pol) of one solve.
#[derive(Debug, Clone, PartialEq)]
pub struct StageReport {
    /// Stage name: `"born"` or `"epol"`.
    pub name: String,
    /// Wall-clock seconds spent in the stage (simulated seconds for the
    /// cluster simulator).
    pub wall_seconds: f64,
    /// Traversal work the stage performed.
    pub work: WorkCounts,
}

/// Shape statistics of one octree, as seen by the traversals.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TreeDepthStats {
    pub node_count: usize,
    pub leaf_count: usize,
    /// Depth of the deepest leaf (root = 0).
    pub max_depth: usize,
    /// Mean leaf depth — how balanced the spatial subdivision is.
    pub mean_leaf_depth: f64,
}

impl TreeDepthStats {
    /// Read every leaf's stored depth once.
    pub fn for_tree(tree: &Octree) -> TreeDepthStats {
        let depths = tree.leaves().iter().map(|&l| tree.node(l).depth as usize);
        let leaf_count = tree.leaves().len();
        TreeDepthStats {
            node_count: tree.node_count(),
            leaf_count,
            max_depth: depths.clone().max().unwrap_or(0),
            mean_leaf_depth: depths.sum::<usize>() as f64 / leaf_count.max(1) as f64,
        }
    }
}

/// Work-stealing scheduler summary (shared-memory and hybrid paths).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StealReport {
    /// Worker (thread) count behind the counters.
    pub workers: usize,
    /// Tasks executed across all workers.
    pub total_executed: u64,
    /// Successful steals across all workers.
    pub total_steals: u64,
    /// Max/mean executed tasks per worker (1.0 = perfectly balanced).
    pub imbalance: f64,
}

impl From<&StealStats> for StealReport {
    fn from(s: &StealStats) -> StealReport {
        StealReport {
            workers: s.executed.len(),
            total_executed: s.total_executed(),
            total_steals: s.total_steals(),
            imbalance: s.imbalance(),
        }
    }
}

/// Simulated communication cost (distributed and cluster-sim paths).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CommReport {
    /// Rank count of the run.
    pub ranks: usize,
    /// Simulated seconds the slowest rank spent in collectives (the
    /// communication critical path).
    pub sim_seconds: f64,
    /// Total payload bytes pushed onto the simulated wire, all ranks.
    pub bytes_sent: u64,
    /// Sum over ranks of replicated input bytes (§IV.B memory cost).
    pub replicated_bytes: u64,
}

/// Interaction-list statistics of a plan+execute solve (see
/// [`crate::plan::InteractionPlan`]).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PlanReport {
    /// Born-stage near-field (leaf, leaf) block entries.
    pub born_near_entries: u64,
    /// Born-stage far-field (node, node) entries.
    pub born_far_entries: u64,
    /// Energy-stage near-field (leaf, leaf) block entries.
    pub epol_near_entries: u64,
    /// Energy-stage far-field (node, node) entries.
    pub epol_far_entries: u64,
    /// Heap bytes the plan holds (lists + SoA input copies).
    pub plan_bytes: u64,
}

/// One recorded fault-layer event: an injected fault, a recovery
/// action, or a detection. Events carry only deterministic fields so a
/// fixed fault seed reproduces a byte-identical report.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct FaultEvent {
    /// Collective ordinal at which the event fired (rank-local program
    /// order; identical across ranks under the SPMD discipline).
    pub at_collective: u64,
    /// Event kind: `"crash"`, `"drop"`, `"straggler"`, `"worker_panic"`,
    /// `"redivide"`.
    pub kind: String,
    /// Primary rank involved (crashed rank, sender, straggler…).
    pub rank: usize,
    /// Secondary rank (receiver of a dropped message), if any.
    pub peer: Option<usize>,
    /// Free-form deterministic detail (stage name, item counts…).
    pub detail: String,
}

/// Fault-injection and recovery summary of one chaos run.
///
/// Filled by the fault-tolerant distributed driver
/// (`polar_mpi::recovery`). All fields are deterministic functions of the
/// fault spec and the molecule, so identical seeds serialize to
/// byte-identical JSON.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultReport {
    /// Seed the spec was generated from (0 for hand-written specs).
    pub seed: u64,
    /// Rank crashes injected by the spec that actually fired.
    pub crashes: u64,
    /// Messages dropped on first transmission.
    pub drops: u64,
    /// Message retransmissions performed (exponential-backoff retries).
    pub msg_retries: u64,
    /// Intra-rank worker tasks re-run after an isolated panic.
    pub worker_retries: u64,
    /// Segment re-division rounds (one per stage that lost a rank).
    pub redivisions: u64,
    /// Work items (leaves / atoms) re-executed by survivors.
    pub recovered_items: u64,
    /// Ranks that died, ascending.
    pub dead_ranks: Vec<usize>,
    /// Simulated seconds added by straggler slowdowns, all ranks.
    pub straggler_extra_seconds: f64,
    /// Ordered deterministic event log.
    pub events: Vec<FaultEvent>,
}

impl FaultReport {
    /// Serialize to a self-contained JSON object (stable field order).
    pub fn to_json(&self) -> String {
        json_of(self)
    }
}

/// One structured record per solve.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveReport {
    /// Molecule name.
    pub molecule: String,
    /// Which path produced the record: `"serial"`, `"parallel"`,
    /// `"plan"`, `"plan_parallel"`, `"oct_mpi"`, `"oct_mpi_cilk"`,
    /// `"cluster_sim"`.
    pub mode: String,
    /// Plan-execute arithmetic the solve used: `"lane"` (vectorized
    /// kernels) or `"strict"` (scalar strict-fp reference). Recursive
    /// traversal modes always report `"strict"`.
    pub kernel_mode: String,
    pub n_atoms: usize,
    pub n_qpoints: usize,
    pub eps_born: f64,
    pub eps_epol: f64,
    /// The solve's answer, for cross-checking reports against results.
    pub epol_kcal: f64,
    /// Per-stage timings and work, in execution order.
    pub stages: Vec<StageReport>,
    /// Atoms octree shape.
    pub tree_a: TreeDepthStats,
    /// Quadrature octree shape.
    pub tree_q: TreeDepthStats,
    /// Scheduler counters, when a work-stealing pool ran.
    pub steal: Option<StealReport>,
    /// Simulated communication, when ranks were involved.
    pub comm: Option<CommReport>,
    /// Interaction-list statistics, when a plan+execute path ran.
    pub plan: Option<PlanReport>,
    /// Fault-injection and recovery summary, when a chaos run.
    pub fault: Option<FaultReport>,
    /// Resident input bytes of one replica (solver data + octrees).
    pub memory_bytes: u64,
}

impl SolveReport {
    /// Stage lookup by name; zero-valued stage if absent.
    pub fn stage(&self, name: &str) -> StageReport {
        StageReport {
            name: name.to_string(),
            ..self.stage_or_zero(name).clone()
        }
    }

    fn stage_or_zero(&self, name: &str) -> &StageReport {
        static ZERO: StageReport = StageReport {
            name: String::new(),
            wall_seconds: 0.0,
            work: WorkCounts::ZERO,
        };
        self.stages.iter().find(|s| s.name == name).unwrap_or(&ZERO)
    }

    /// Sum of all stages' work — the schedule-invariant solve total.
    pub fn total_work(&self) -> WorkCounts {
        let mut acc = WorkCounts::ZERO;
        for s in &self.stages {
            acc.accumulate(s.work);
        }
        acc
    }

    /// Sum of all stages' wall seconds.
    pub fn total_wall_seconds(&self) -> f64 {
        self.stages.iter().map(|s| s.wall_seconds).sum()
    }

    /// Serialize to a self-contained JSON object.
    pub fn to_json(&self) -> String {
        json_of(self)
    }

    /// The fixed CSV column set (flattened: one record per line).
    pub fn csv_header() -> String {
        csv_header_of::<SolveReport>()
    }

    /// One CSV record matching [`SolveReport::csv_header`]. Optional
    /// sections (steal/comm/plan/fault) emit empty fields when absent.
    pub fn to_csv_row(&self) -> String {
        csv_row_of(self)
    }

    /// Header plus this report's record.
    pub fn to_csv(&self) -> String {
        format!("{}\n{}\n", Self::csv_header(), self.to_csv_row())
    }
}

/// One batch job's outcome inside a [`BatchReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct BatchJobRow {
    /// Molecule name of the job.
    pub name: String,
    pub n_atoms: usize,
    /// Plan-execute arithmetic the job ran with: `"lane"` or `"strict"`.
    pub kernel_mode: String,
    /// The job's E_pol; NaN (serialized as `null`) when the job failed.
    pub epol_kcal: f64,
    /// Did the job reuse a cached (or batch-shared) plan?
    pub cache_hit: bool,
    /// Did the job patch a same-topology cached plan instead of
    /// building one cold? (Mutually exclusive with `cache_hit`.)
    pub cache_patched: bool,
    /// Pair evaluations the solve performed (both stages).
    pub pair_ops: u64,
    /// Far-field evaluations the solve performed (both stages).
    pub far_ops: u64,
    /// Wall seconds the job spent inside its worker (prep + solve).
    pub wall_seconds: f64,
    /// Failure message when the job errored or panicked.
    pub error: Option<String>,
}

/// Summary of one batch-rescoring run (see `polar_gb::batch`).
///
/// Every field except the wall-clock timings is a deterministic function
/// of the job list and cache state, so identical manifests produce
/// byte-identical reports once the timings are cleared (the determinism
/// tests' comparison contract, `BatchReport::zero_wall_times`).
#[derive(Debug, Clone, PartialEq)]
pub struct BatchReport {
    /// Jobs submitted.
    pub jobs: usize,
    /// Jobs that produced a result.
    pub succeeded: usize,
    /// Jobs that failed (solve error or contained panic).
    pub failed: usize,
    /// Jobs served by a cached or batch-shared plan.
    pub cache_hits: u64,
    /// Jobs served by delta-patching a same-topology cached plan
    /// (a "hit with patch" — cheaper than a cold build, costlier than
    /// an exact hit).
    pub cache_patched: u64,
    /// Jobs that had to build a plan.
    pub cache_misses: u64,
    /// Plans evicted to stay under the byte capacity.
    pub cache_evictions: u64,
    /// Plan keys evicted because the job holding them panicked (the
    /// entry could be torn; the next batch rebuilds it cleanly).
    pub poison_evictions: u64,
    /// Plan bytes resident in the cache after the batch.
    pub cache_bytes_held: u64,
    /// Configured cache capacity in bytes.
    pub cache_capacity_bytes: u64,
    /// Per-worker scratch arenas the batch ran with.
    pub arenas: usize,
    /// Solves served out of recycled arenas (allocation-free solves).
    pub arena_reuses: u64,
    /// Bytes held by the arenas after the batch.
    pub arena_bytes: u64,
    /// Panicked attempts re-run by the work-stealing retry layer.
    pub retries: u64,
    /// Jobs that panicked at least once but eventually succeeded.
    pub recovered_jobs: u64,
    /// Sum of successful jobs' E_pol (kcal/mol).
    pub total_epol_kcal: f64,
    /// Aggregated solve work across all successful jobs.
    pub total_work: WorkCounts,
    /// Wall seconds for the whole batch.
    pub wall_seconds: f64,
    /// Per-job outcomes, submission order.
    pub rows: Vec<BatchJobRow>,
}

impl BatchReport {
    /// Fraction of jobs served by a reused plan. NaN when no jobs ran —
    /// a zero-job batch has no hit rate, and the JSON emitter turns the
    /// NaN into an explicit `null` (never a literal `NaN` token).
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_patched + self.cache_misses;
        if total == 0 {
            f64::NAN
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Clear every schedule-dependent field — wall clocks plus
    /// `arena_bytes` (arena capacities depend on which worker served
    /// which job) — leaving only the counters that are deterministic
    /// functions of the job list. Determinism tests compare this form
    /// byte-for-byte.
    #[cfg(test)]
    pub fn zero_wall_times(&mut self) {
        self.wall_seconds = 0.0;
        self.arena_bytes = 0;
        for row in &mut self.rows {
            row.wall_seconds = 0.0;
        }
    }

    /// Serialize to a self-contained JSON object (stable field order).
    pub fn to_json(&self) -> String {
        json_of(self)
    }

    /// The per-job CSV column set: the submission index, then the row.
    pub fn csv_header() -> String {
        format!("job,{}", csv_header_of::<BatchJobRow>())
    }

    /// Header plus one record per job; failed jobs leave `epol_kcal`
    /// empty and fill `error`.
    pub fn to_csv(&self) -> String {
        let mut out = Self::csv_header();
        out.push('\n');
        for (i, r) in self.rows.iter().enumerate() {
            out.push_str(&format!("{i},{}\n", csv_row_of(r)));
        }
        out
    }
}

/// One frame of a trajectory replay inside a [`ReplanReport`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ReplanFrameRow {
    /// Frame index (0 is the cold frame that built the plan).
    pub frame: usize,
    /// How the frame's plan was obtained: `"cold"` (built from
    /// scratch), `"patched"` (dirty segments spliced into the cached
    /// plan), `"rebuilt"` (delta outside tolerance forced a cold
    /// build), or `"reused"` (geometry unchanged, plan reused as-is).
    pub action: String,
    /// Largest point displacement this frame introduced (Å).
    pub max_disp: f64,
    /// Born-stage source leaves whose interaction segments were re-run.
    pub dirty_born: u64,
    /// Born-stage source leaves in the plan.
    pub total_born: u64,
    /// E_pol-stage source leaves whose segments were re-run.
    pub dirty_epol: u64,
    /// E_pol-stage source leaves in the plan.
    pub total_epol: u64,
    /// Seconds spent patching (zero for cold/rebuilt/reused frames).
    pub patch_seconds: f64,
    /// Seconds spent planning cold (zero for patched/reused frames).
    pub plan_seconds: f64,
    /// Seconds executing the kernels for this frame.
    pub exec_seconds: f64,
    /// The frame's polarization energy (kcal/mol).
    pub epol_kcal: f64,
}

/// Summary of one `polar trajectory` run: a frame sequence replayed
/// through the delta re-planning path, with per-frame provenance
/// (patched vs rebuilt) and the patch-time vs cold-plan-time
/// comparison the incremental path is justified by.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ReplanReport {
    /// Molecule name.
    pub molecule: String,
    pub n_atoms: usize,
    /// Frames replayed (including the cold frame 0).
    pub frames: usize,
    /// Frames served by patching the previous plan.
    pub patched_frames: u64,
    /// Frames whose delta exceeded tolerance and planned cold.
    pub rebuilt_frames: u64,
    /// Frames with no geometry change (plan reused untouched).
    pub reused_frames: u64,
    /// Cold-plan seconds for frame 0 (the patch path's baseline).
    pub cold_plan_seconds: f64,
    /// Mean patch seconds across patched frames (NaN when none).
    pub mean_patch_seconds: f64,
    /// `cold_plan_seconds / mean_patch_seconds` — how much cheaper a
    /// patch is than a cold plan (NaN when no frame patched).
    pub speedup: f64,
    /// Wall seconds for the whole trajectory.
    pub wall_seconds: f64,
    /// Per-frame rows, frame order.
    pub rows: Vec<ReplanFrameRow>,
}

impl ReplanReport {
    /// Fill the summary counters and timing aggregates from `rows`.
    pub fn summarize(&mut self) {
        self.frames = self.rows.len();
        self.patched_frames = self.rows.iter().filter(|r| r.action == "patched").count() as u64;
        self.rebuilt_frames = self.rows.iter().filter(|r| r.action == "rebuilt").count() as u64;
        self.reused_frames = self.rows.iter().filter(|r| r.action == "reused").count() as u64;
        self.cold_plan_seconds = self
            .rows
            .first()
            .map(|r| r.plan_seconds)
            .unwrap_or(f64::NAN);
        self.mean_patch_seconds = if self.patched_frames == 0 {
            f64::NAN
        } else {
            self.rows
                .iter()
                .filter(|r| r.action == "patched")
                .map(|r| r.patch_seconds)
                .sum::<f64>()
                / self.patched_frames as f64
        };
        self.speedup = self.cold_plan_seconds / self.mean_patch_seconds;
    }

    /// Serialize to a self-contained JSON object (stable field order).
    pub fn to_json(&self) -> String {
        json_of(self)
    }

    /// The per-frame CSV column set.
    pub fn csv_header() -> String {
        csv_header_of::<ReplanFrameRow>()
    }

    /// Header plus one record per frame.
    pub fn to_csv(&self) -> String {
        csv_table(&self.rows)
    }
}

/// One accepted iteration of a [`crate::minimize::minimize`] run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GradientIterRow {
    /// Accepted-iteration index (1-based; row 0 is the first step).
    pub iter: u64,
    /// Energy at the accepted point (kcal/mol).
    pub energy_kcal: f64,
    /// Gradient max-norm at the accepted point (kcal/mol/Å).
    pub grad_max: f64,
    /// Gradient RMS per component (kcal/mol/Å).
    pub grad_rms: f64,
    /// Accepted maximum per-atom displacement (Å).
    pub step: f64,
    /// Energy evaluations the line search spent (1 = first trial hit).
    pub energy_evals: u64,
    /// Trial frames served by patching the cached plan.
    pub patched: u64,
    /// Trial frames that forced a cold plan (or solver) rebuild.
    pub rebuilt: u64,
    /// Trial frames with a reusable plan (no splice needed).
    pub reused: u64,
    /// Seconds in the gradient kernel for this iteration.
    pub grad_seconds: f64,
    /// Seconds in line-search energy solves for this iteration.
    pub energy_seconds: f64,
}

/// Summary of one minimization run on the plan-path analytic gradient:
/// per-iteration energy/gradient trace plus the patch-vs-rebuild
/// counters showing the delta re-planning path carried the steps.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GradientReport {
    /// Molecule name.
    pub molecule: String,
    /// `"sd"` or `"lbfgs"`.
    pub mode: String,
    /// Kernel mode label (`"lane"` / `"strict"`).
    pub kernel_mode: String,
    pub n_atoms: u64,
    /// Whether the gradient tolerance was reached.
    pub converged: bool,
    /// Whether the line search stalled (objective/gradient
    /// inconsistency at the frozen-radii floor).
    pub stalled: bool,
    /// Accepted iterations.
    pub iters: u64,
    /// Energy at the final iterate (kcal/mol).
    pub final_energy_kcal: f64,
    /// Gradient max-norm at the final iterate (kcal/mol/Å).
    pub final_grad_max: f64,
    /// Trial frames patched, summed over all iterations.
    pub total_patched: u64,
    /// Trial frames rebuilt, summed.
    pub total_rebuilt: u64,
    /// Trial frames reused, summed.
    pub total_reused: u64,
    /// Seconds in gradient kernels across the run.
    pub grad_seconds: f64,
    /// Wall seconds for the whole run.
    pub wall_s: f64,
    /// Per-iteration rows, step order.
    pub rows: Vec<GradientIterRow>,
}

impl GradientReport {
    /// Fill the aggregate counters from `rows`.
    pub fn summarize(&mut self) {
        self.total_patched = self.rows.iter().map(|r| r.patched).sum();
        self.total_rebuilt = self.rows.iter().map(|r| r.rebuilt).sum();
        self.total_reused = self.rows.iter().map(|r| r.reused).sum();
    }

    /// Serialize to a self-contained JSON object (stable field order).
    pub fn to_json(&self) -> String {
        json_of(self)
    }

    /// The per-iteration CSV column set.
    pub fn csv_header() -> String {
        csv_header_of::<GradientIterRow>()
    }

    /// Header plus one record per accepted iteration.
    pub fn to_csv(&self) -> String {
        csv_table(&self.rows)
    }
}

/// Fixed-bucket histogram for serve-mode telemetry.
///
/// Buckets are cumulative-upper-bound style (`value <= bound`), with an
/// implicit overflow bucket past the last bound. Recording is O(buckets)
/// and allocation-free, so the server can record from its hot path;
/// quantiles are bucket-resolution estimates (the reported value is the
/// upper bound of the bucket containing the quantile, clamped to the
/// observed maximum).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Ascending bucket upper bounds. Values past the last bound land in
    /// the overflow bucket (`counts` has `bounds.len() + 1` slots).
    bounds: Vec<f64>,
    counts: Vec<u64>,
    total: u64,
    sum: f64,
    max: f64,
}

impl Histogram {
    /// Build a histogram over the given ascending upper bounds.
    pub fn with_bounds(bounds: Vec<f64>) -> Histogram {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        let counts = vec![0; bounds.len() + 1];
        Histogram {
            bounds,
            counts,
            total: 0,
            sum: 0.0,
            max: 0.0,
        }
    }

    /// Request-latency buckets: 0.1 ms .. 5 s, roughly 1-2.5-5 spaced.
    pub fn latency_ms() -> Histogram {
        Histogram::with_bounds(vec![
            0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0,
            5000.0,
        ])
    }

    /// Admission-queue-depth buckets: powers of two up to 1024.
    pub fn queue_depth() -> Histogram {
        Histogram::with_bounds(vec![
            0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0,
        ])
    }

    /// Record one observation.
    pub fn record(&mut self, value: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.total += 1;
        self.sum += value;
        if value > self.max {
            self.max = value;
        }
    }

    /// Observations recorded so far.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Largest observation recorded (0 when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Mean observation; NaN when empty (serialized as `null`).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            f64::NAN
        } else {
            self.sum / self.total as f64
        }
    }

    /// Bucket-resolution quantile estimate (`q` in [0, 1]); NaN when
    /// empty. Returns the upper bound of the bucket holding the q-th
    /// observation, clamped to the observed maximum so the overflow
    /// bucket reports a finite number.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return f64::NAN;
        }
        let rank = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let bound = self.bounds.get(i).copied().unwrap_or(f64::INFINITY);
                return bound.min(self.max);
            }
        }
        self.max
    }

    /// Serialize to a self-contained JSON object with cumulative-style
    /// buckets (`le` = upper bound; the overflow bucket has `le: null`).
    pub fn to_json(&self) -> String {
        json_of(self)
    }
}

/// Final (or snapshot) summary of one `polar serve` run.
///
/// The admission counters partition every request the server read:
///
/// ```text
/// requests == admitted + rejected + control
/// admitted == completed + shed + deadline_exceeded + panicked + failed
/// ```
///
/// [`ServeReport::reconciles`] checks both identities; the chaos
/// acceptance test and the CI smoke job assert it on live servers.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Request lines read across all connections (jobs + control frames;
    /// malformed lines count here too).
    pub requests: u64,
    /// Lines refused before admission: malformed JSON, invalid jobs,
    /// oversized payloads.
    pub rejected: u64,
    /// Well-formed jobs that entered admission control.
    pub admitted: u64,
    /// Admitted jobs that returned a result.
    pub completed: u64,
    /// Admitted jobs shed by the load limiter (queue depth or in-flight
    /// bytes over the bound); clients get a `retry_after_ms` hint.
    pub shed: u64,
    /// Admitted jobs that blew their deadline at a phase boundary.
    pub deadline_exceeded: u64,
    /// Admitted jobs whose worker panicked (contained; the plan key is
    /// evicted and the server keeps serving).
    pub panicked: u64,
    /// Admitted jobs that failed with a non-panic solve error.
    pub failed: u64,
    /// Control frames served (`health`, `stats`, `drain`).
    pub control: u64,
    /// Plan-cache hits across the run.
    pub cache_hits: u64,
    /// Exact-key misses served by delta-patching a same-topology
    /// cached plan (hit-with-patch).
    pub cache_patched: u64,
    /// Plan-cache misses (cold plan builds).
    pub cache_misses: u64,
    /// Capacity evictions from the shared plan cache.
    pub cache_evictions: u64,
    /// Evictions forced by per-tenant byte quotas.
    pub quota_evictions: u64,
    /// Plan keys evicted because the job holding them panicked.
    pub poison_evictions: u64,
    /// Plan bytes resident when the report was taken.
    pub cache_bytes_held: u64,
    /// Configured cache capacity in bytes.
    pub cache_capacity_bytes: u64,
    /// Distinct tenants holding cache bytes.
    pub tenants: u64,
    /// Solves served out of recycled scratch arenas.
    pub arena_reuses: u64,
    /// Client connections accepted.
    pub connections: u64,
    /// Worker threads the server ran with.
    pub workers: usize,
    /// Admission queue depth bound.
    pub queue_capacity: usize,
    /// Deepest the admission queue got.
    pub peak_queue_depth: u64,
    /// Largest sum of queued request bytes observed.
    pub peak_inflight_bytes: u64,
    /// End-to-end request latency (admission to response), milliseconds.
    pub latency_ms: Histogram,
    /// Queue depth sampled at each admission.
    pub queue_depth: Histogram,
    /// Did the run end with a graceful drain (vs. a snapshot)?
    pub drained: bool,
    /// Wall seconds the server was up.
    pub wall_seconds: f64,
}

impl Default for ServeReport {
    fn default() -> ServeReport {
        ServeReport {
            requests: 0,
            rejected: 0,
            admitted: 0,
            completed: 0,
            shed: 0,
            deadline_exceeded: 0,
            panicked: 0,
            failed: 0,
            control: 0,
            cache_hits: 0,
            cache_patched: 0,
            cache_misses: 0,
            cache_evictions: 0,
            quota_evictions: 0,
            poison_evictions: 0,
            cache_bytes_held: 0,
            cache_capacity_bytes: 0,
            tenants: 0,
            arena_reuses: 0,
            connections: 0,
            workers: 0,
            queue_capacity: 0,
            peak_queue_depth: 0,
            peak_inflight_bytes: 0,
            latency_ms: Histogram::latency_ms(),
            queue_depth: Histogram::queue_depth(),
            drained: false,
            wall_seconds: 0.0,
        }
    }
}

impl ServeReport {
    /// Plan-cache hit rate; NaN (JSON `null`) when no job touched the
    /// cache.
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_patched + self.cache_misses;
        if total == 0 {
            f64::NAN
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Do the admission counters partition the request stream? Both
    /// identities from the type-level docs must hold.
    pub fn reconciles(&self) -> bool {
        self.requests == self.admitted + self.rejected + self.control
            && self.admitted
                == self.completed + self.shed + self.deadline_exceeded + self.panicked + self.failed
    }

    /// Serialize to a self-contained JSON object (stable field order).
    pub fn to_json(&self) -> String {
        json_of(self)
    }

    /// The flat CSV column set (histograms flatten to p50/p90/p99/max).
    pub fn csv_header() -> String {
        csv_header_of::<ServeReport>()
    }

    /// Header plus one record. NaN quantiles (no completed requests)
    /// leave their field empty, keeping the arity fixed.
    pub fn to_csv(&self) -> String {
        format!("{}\n{}\n", Self::csv_header(), csv_row_of(self))
    }
}

// ----------------------------------------------------------------------
// Field lists and the sink that serializes them.
// ----------------------------------------------------------------------

/// What a declared field evaluates to; `write_val` and `csv_cell` are the
/// only code that formats one.
enum Val<'a> {
    Str(&'a str),
    Int(u64),
    /// JSON `null` when non-finite; CSV prints it as is (`NaN`, `inf`).
    Num(f64),
    /// As `Num`, but an empty CSV cell when non-finite.
    NumOrBlank(f64),
    Bool(bool),
    /// JSON `null`, empty CSV cell.
    Null,
    // Nested values exist in JSON only; declare them with an empty column.
    Rec(&'a dyn WriteJson),
    List(Vec<Val<'a>>),
    Obj(Vec<(&'static str, Val<'a>)>),
}

/// A report type: its fields, declared once, in output order.
trait Record: Sized {
    fn fields(s: &mut Sink<'_, Self>);
}

type Get<T> = for<'a> fn(&'a T) -> Val<'a>;
type GetRec<T, R> = for<'a> fn(&'a T) -> Option<&'a R>;

/// One pass over a field list: into a JSON object, the CSV header or a
/// CSV row.
struct Sink<'s, T> {
    /// The record being written; `None` for the header, and for the
    /// empty cells of an absent section.
    rec: Option<&'s T>,
    out: Out<'s>,
}

enum Out<'s> {
    Json(&'s mut JsonWriter),
    /// Column names, each behind the enclosing sections' prefix.
    Header(String, &'s mut Vec<String>),
    Row(&'s mut Vec<String>),
}

impl<T> Sink<'_, T> {
    /// A field with JSON key `key` and CSV column `col`; an empty name
    /// keeps it out of that format.
    fn field(&mut self, key: &'static str, col: &'static str, get: Get<T>) {
        match (&mut self.out, self.rec) {
            (Out::Json(w), Some(rec)) if !key.is_empty() => {
                w.key(key);
                write_val(w, get(rec));
            }
            (Out::Header(prefix, cols), _) if !col.is_empty() => {
                cols.push(format!("{prefix}{col}"));
            }
            (Out::Row(cells), rec) if !col.is_empty() => {
                cells.push(rec.map_or_else(String::new, |r| csv_cell(get(r))));
            }
            _ => {}
        }
    }

    /// A nested record: a JSON object under `key` (`null` when absent),
    /// and its own columns, each behind `prefix`, in the CSV (empty
    /// cells when absent).
    fn section<R: Record>(&mut self, key: &'static str, prefix: &'static str, get: GetRec<T, R>) {
        let rec = self.rec.and_then(get);
        match &mut self.out {
            Out::Json(w) if !key.is_empty() => {
                w.key(key);
                write_val(w, rec.map_or(Null, |r| Rec(r)));
            }
            Out::Json(_) => {}
            Out::Header(outer, cols) => {
                let out = Out::Header(format!("{outer}{prefix}"), cols);
                R::fields(&mut Sink { rec, out });
            }
            Out::Row(cells) => R::fields(&mut Sink {
                rec,
                out: Out::Row(cells),
            }),
        }
    }

    /// A field whose JSON key is also its CSV column.
    fn both(&mut self, name: &'static str, get: Get<T>) {
        self.field(name, name, get)
    }

    fn json(&mut self, key: &'static str, get: Get<T>) {
        self.field(key, "", get)
    }

    fn csv(&mut self, col: &'static str, get: Get<T>) {
        self.field("", col, get)
    }
}

/// Object-safe face of [`Record`], so a [`Val`] can hold any nested record.
trait WriteJson {
    fn write_json(&self, w: &mut JsonWriter);
}

impl<T: Record> WriteJson for T {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        let out = Out::Json(w);
        T::fields(&mut Sink {
            rec: Some(self),
            out,
        });
        w.end_object();
    }
}

/// A JSON array of nested records.
fn recs<R: Record>(rows: &[R]) -> Val<'_> {
    List(rows.iter().map(|r| Rec(r)).collect())
}

fn write_val(w: &mut JsonWriter, v: Val<'_>) {
    match v {
        Str(s) => w.str(s),
        Int(n) => w.u64(n),
        Num(x) | NumOrBlank(x) => w.f64(x),
        Bool(b) => w.bool(b),
        Null => w.null(),
        Rec(r) => {
            r.write_json(w);
            w
        }
        List(items) => {
            w.begin_array();
            for item in items {
                write_val(w, item);
            }
            w.end_array()
        }
        Obj(members) => {
            w.begin_object();
            for (key, member) in members {
                w.key(key);
                write_val(w, member);
            }
            w.end_object()
        }
    };
}

fn csv_cell(v: Val<'_>) -> String {
    match v {
        Str(s) => csv_field(s),
        Int(n) => n.to_string(),
        Num(x) => x.to_string(),
        NumOrBlank(x) if x.is_finite() => x.to_string(),
        Bool(b) => b.to_string(),
        NumOrBlank(_) | Null | Rec(_) | List(_) | Obj(_) => String::new(),
    }
}

fn json_of<T: Record>(rec: &T) -> String {
    let mut w = JsonWriter::new();
    rec.write_json(&mut w);
    w.finish()
}

fn csv_header_of<T: Record>() -> String {
    let mut cols = Vec::new();
    let out = Out::Header(String::new(), &mut cols);
    T::fields(&mut Sink { rec: None, out });
    cols.join(",")
}

fn csv_row_of<T: Record>(rec: &T) -> String {
    let mut cells = Vec::new();
    let out = Out::Row(&mut cells);
    T::fields(&mut Sink {
        rec: Some(rec),
        out,
    });
    cells.join(",")
}

/// Header plus one line per row.
fn csv_table<T: Record>(rows: &[T]) -> String {
    let mut out = csv_header_of::<T>();
    out.push('\n');
    for row in rows {
        out.push_str(&csv_row_of(row));
        out.push('\n');
    }
    out
}

/// Quote a CSV field only when it needs quoting (comma, quote, newline).
fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

impl Record for StageReport {
    fn fields(s: &mut Sink<'_, Self>) {
        s.json("name", |r| Str(&r.name));
        s.field("wall_seconds", "wall_s", |r| Num(r.wall_seconds));
        s.both("pair_ops", |r| Int(r.work.pair_ops));
        s.both("far_ops", |r| Int(r.work.far_ops));
        s.both("nodes_visited", |r| Int(r.work.nodes_visited));
    }
}

impl Record for TreeDepthStats {
    fn fields(s: &mut Sink<'_, Self>) {
        s.json("node_count", |r| Int(r.node_count as u64));
        s.field("leaf_count", "leaves", |r| Int(r.leaf_count as u64));
        s.both("max_depth", |r| Int(r.max_depth as u64));
        s.both("mean_leaf_depth", |r| Num(r.mean_leaf_depth));
    }
}

impl Record for StealReport {
    fn fields(s: &mut Sink<'_, Self>) {
        s.both("workers", |r| Int(r.workers as u64));
        s.both("total_executed", |r| Int(r.total_executed));
        s.both("total_steals", |r| Int(r.total_steals));
        s.both("imbalance", |r| Num(r.imbalance));
    }
}

impl Record for CommReport {
    fn fields(s: &mut Sink<'_, Self>) {
        s.both("ranks", |r| Int(r.ranks as u64));
        s.field("sim_seconds", "comm_sim_s", |r| Num(r.sim_seconds));
        s.both("bytes_sent", |r| Int(r.bytes_sent));
        s.both("replicated_bytes", |r| Int(r.replicated_bytes));
    }
}

/// CSV columns sit behind the `plan_` prefix [`SolveReport`] gives them.
impl Record for PlanReport {
    fn fields(s: &mut Sink<'_, Self>) {
        s.field("born_near_entries", "born_near", |r| {
            Int(r.born_near_entries)
        });
        s.field("born_far_entries", "born_far", |r| Int(r.born_far_entries));
        s.field("epol_near_entries", "epol_near", |r| {
            Int(r.epol_near_entries)
        });
        s.field("epol_far_entries", "epol_far", |r| Int(r.epol_far_entries));
        s.field("plan_bytes", "bytes", |r| Int(r.plan_bytes));
    }
}

impl Record for FaultEvent {
    fn fields(s: &mut Sink<'_, Self>) {
        s.json("at_collective", |r| Int(r.at_collective));
        s.json("kind", |r| Str(&r.kind));
        s.json("rank", |r| Int(r.rank as u64));
        s.json("peer", |r| r.peer.map_or(Null, |p| Int(p as u64)));
        s.json("detail", |r| Str(&r.detail));
    }
}

/// CSV columns sit behind the `fault_` prefix [`SolveReport`] gives them.
impl Record for FaultReport {
    fn fields(s: &mut Sink<'_, Self>) {
        s.both("seed", |r| Int(r.seed));
        s.both("crashes", |r| Int(r.crashes));
        s.both("drops", |r| Int(r.drops));
        s.both("msg_retries", |r| Int(r.msg_retries));
        s.both("worker_retries", |r| Int(r.worker_retries));
        s.json("redivisions", |r| Int(r.redivisions));
        s.both("recovered_items", |r| Int(r.recovered_items));
        s.json("dead_ranks", |r| {
            List(r.dead_ranks.iter().map(|&d| Int(d as u64)).collect())
        });
        s.json(
            "straggler_extra_seconds",
            |r| Num(r.straggler_extra_seconds),
        );
        s.json("events", |r| recs(&r.events));
    }
}

impl Record for SolveReport {
    fn fields(s: &mut Sink<'_, Self>) {
        s.both("molecule", |r| Str(&r.molecule));
        s.both("mode", |r| Str(&r.mode));
        s.both("kernel_mode", |r| Str(&r.kernel_mode));
        s.both("n_atoms", |r| Int(r.n_atoms as u64));
        s.both("n_qpoints", |r| Int(r.n_qpoints as u64));
        s.both("eps_born", |r| Num(r.eps_born));
        s.both("eps_epol", |r| Num(r.eps_epol));
        s.both("epol_kcal", |r| Num(r.epol_kcal));
        // JSON lists every stage; the CSV has fixed Born and E_pol columns.
        s.json("stages", |r| recs(&r.stages));
        s.section("", "born_", |r| Some(r.stage_or_zero("born")));
        s.section("", "epol_", |r| Some(r.stage_or_zero("epol")));
        s.section("tree_a", "tree_a_", |r| Some(&r.tree_a));
        s.section("tree_q", "tree_q_", |r| Some(&r.tree_q));
        s.section("steal", "", |r| r.steal.as_ref());
        s.section("comm", "", |r| r.comm.as_ref());
        s.section("plan", "plan_", |r| r.plan.as_ref());
        s.section("fault", "fault_", |r| r.fault.as_ref());
        s.both("memory_bytes", |r| Int(r.memory_bytes));
    }
}

impl Record for BatchJobRow {
    fn fields(s: &mut Sink<'_, Self>) {
        s.both("name", |r| Str(&r.name));
        s.both("n_atoms", |r| Int(r.n_atoms as u64));
        s.both("kernel_mode", |r| Str(&r.kernel_mode));
        s.both("epol_kcal", |r| NumOrBlank(r.epol_kcal));
        s.both("cache_hit", |r| Bool(r.cache_hit));
        s.both("cache_patched", |r| Bool(r.cache_patched));
        s.both("pair_ops", |r| Int(r.pair_ops));
        s.both("far_ops", |r| Int(r.far_ops));
        s.field("wall_seconds", "wall_s", |r| Num(r.wall_seconds));
        s.both("error", |r| r.error.as_deref().map_or(Null, Str));
    }
}

impl Record for BatchReport {
    fn fields(s: &mut Sink<'_, Self>) {
        s.json("schema", |_| Str("batch_report/v1"));
        s.json("jobs", |r| Int(r.jobs as u64));
        s.json("succeeded", |r| Int(r.succeeded as u64));
        s.json("failed", |r| Int(r.failed as u64));
        s.json("cache_hits", |r| Int(r.cache_hits));
        s.json("cache_patched", |r| Int(r.cache_patched));
        s.json("cache_misses", |r| Int(r.cache_misses));
        s.json("cache_hit_rate", |r| Num(r.hit_rate()));
        s.json("cache_evictions", |r| Int(r.cache_evictions));
        s.json("poison_evictions", |r| Int(r.poison_evictions));
        s.json("cache_bytes_held", |r| Int(r.cache_bytes_held));
        s.json("cache_capacity_bytes", |r| Int(r.cache_capacity_bytes));
        s.json("arenas", |r| Int(r.arenas as u64));
        s.json("arena_reuses", |r| Int(r.arena_reuses));
        s.json("arena_bytes", |r| Int(r.arena_bytes));
        s.json("retries", |r| Int(r.retries));
        s.json("recovered_jobs", |r| Int(r.recovered_jobs));
        s.json("total_epol_kcal", |r| Num(r.total_epol_kcal));
        s.json("total_pair_ops", |r| Int(r.total_work.pair_ops));
        s.json("total_far_ops", |r| Int(r.total_work.far_ops));
        s.json("wall_seconds", |r| Num(r.wall_seconds));
        s.json("rows", |r| recs(&r.rows));
    }
}

impl Record for ReplanFrameRow {
    fn fields(s: &mut Sink<'_, Self>) {
        s.both("frame", |r| Int(r.frame as u64));
        s.both("action", |r| Str(&r.action));
        s.both("max_disp", |r| Num(r.max_disp));
        s.both("dirty_born", |r| Int(r.dirty_born));
        s.both("total_born", |r| Int(r.total_born));
        s.both("dirty_epol", |r| Int(r.dirty_epol));
        s.both("total_epol", |r| Int(r.total_epol));
        s.field("patch_seconds", "patch_s", |r| Num(r.patch_seconds));
        s.field("plan_seconds", "plan_s", |r| Num(r.plan_seconds));
        s.field("exec_seconds", "exec_s", |r| Num(r.exec_seconds));
        s.csv("wall_s", |r| {
            Num(r.patch_seconds + r.plan_seconds + r.exec_seconds)
        });
        s.both("epol_kcal", |r| Num(r.epol_kcal));
    }
}

impl Record for ReplanReport {
    fn fields(s: &mut Sink<'_, Self>) {
        s.json("schema", |_| Str("replan_report/v1"));
        s.json("molecule", |r| Str(&r.molecule));
        s.json("n_atoms", |r| Int(r.n_atoms as u64));
        s.json("frames", |r| Int(r.frames as u64));
        s.json("patched_frames", |r| Int(r.patched_frames));
        s.json("rebuilt_frames", |r| Int(r.rebuilt_frames));
        s.json("reused_frames", |r| Int(r.reused_frames));
        s.json("cold_plan_seconds", |r| Num(r.cold_plan_seconds));
        s.json("mean_patch_seconds", |r| Num(r.mean_patch_seconds));
        s.json("speedup", |r| Num(r.speedup));
        s.json("wall_seconds", |r| Num(r.wall_seconds));
        s.json("rows", |r| recs(&r.rows));
    }
}

impl Record for GradientIterRow {
    fn fields(s: &mut Sink<'_, Self>) {
        s.both("iter", |r| Int(r.iter));
        s.both("energy_kcal", |r| Num(r.energy_kcal));
        s.both("grad_max", |r| Num(r.grad_max));
        s.both("grad_rms", |r| Num(r.grad_rms));
        s.both("step", |r| Num(r.step));
        s.both("energy_evals", |r| Int(r.energy_evals));
        s.both("patched", |r| Int(r.patched));
        s.both("rebuilt", |r| Int(r.rebuilt));
        s.both("reused", |r| Int(r.reused));
        s.field("grad_seconds", "grad_s", |r| Num(r.grad_seconds));
        s.field("energy_seconds", "energy_s", |r| Num(r.energy_seconds));
    }
}

impl Record for GradientReport {
    fn fields(s: &mut Sink<'_, Self>) {
        s.json("schema", |_| Str("gradient_report/v1"));
        s.json("molecule", |r| Str(&r.molecule));
        s.json("mode", |r| Str(&r.mode));
        s.json("kernel_mode", |r| Str(&r.kernel_mode));
        s.json("n_atoms", |r| Int(r.n_atoms));
        s.json("converged", |r| Bool(r.converged));
        s.json("stalled", |r| Bool(r.stalled));
        s.json("iters", |r| Int(r.iters));
        s.json("final_energy_kcal", |r| Num(r.final_energy_kcal));
        s.json("final_grad_max", |r| Num(r.final_grad_max));
        s.json("total_patched", |r| Int(r.total_patched));
        s.json("total_rebuilt", |r| Int(r.total_rebuilt));
        s.json("total_reused", |r| Int(r.total_reused));
        s.json("grad_seconds", |r| Num(r.grad_seconds));
        s.json("wall_s", |r| Num(r.wall_s));
        s.json("rows", |r| recs(&r.rows));
    }
}

impl Record for Histogram {
    fn fields(s: &mut Sink<'_, Self>) {
        s.json("total", |r| Int(r.total));
        s.json("sum", |r| Num(r.sum));
        s.json("max", |r| Num(r.max));
        s.json("mean", |r| Num(r.mean()));
        s.json("p50", |r| Num(r.quantile(0.5)));
        s.json("p90", |r| Num(r.quantile(0.9)));
        s.json("p99", |r| Num(r.quantile(0.99)));
        s.json("buckets", |r| {
            let bucket = |(i, &count): (usize, &u64)| {
                let le = r.bounds.get(i).map_or(Null, |&b| Num(b));
                Obj(vec![("le", le), ("count", Int(count))])
            };
            List(r.counts.iter().enumerate().map(bucket).collect())
        });
    }
}

impl Record for ServeReport {
    fn fields(s: &mut Sink<'_, Self>) {
        s.json("schema", |_| Str("serve_report/v1"));
        s.both("requests", |r| Int(r.requests));
        s.both("rejected", |r| Int(r.rejected));
        s.both("admitted", |r| Int(r.admitted));
        s.both("completed", |r| Int(r.completed));
        s.both("shed", |r| Int(r.shed));
        s.both("deadline_exceeded", |r| Int(r.deadline_exceeded));
        s.both("panicked", |r| Int(r.panicked));
        s.both("failed", |r| Int(r.failed));
        s.both("control", |r| Int(r.control));
        s.json("reconciles", |r| Bool(r.reconciles()));
        s.both("cache_hits", |r| Int(r.cache_hits));
        s.both("cache_patched", |r| Int(r.cache_patched));
        s.both("cache_misses", |r| Int(r.cache_misses));
        s.both("cache_hit_rate", |r| NumOrBlank(r.hit_rate()));
        s.both("cache_evictions", |r| Int(r.cache_evictions));
        s.both("quota_evictions", |r| Int(r.quota_evictions));
        s.both("poison_evictions", |r| Int(r.poison_evictions));
        s.both("cache_bytes_held", |r| Int(r.cache_bytes_held));
        s.both("cache_capacity_bytes", |r| Int(r.cache_capacity_bytes));
        s.both("tenants", |r| Int(r.tenants));
        s.both("arena_reuses", |r| Int(r.arena_reuses));
        s.both("connections", |r| Int(r.connections));
        s.both("workers", |r| Int(r.workers as u64));
        s.both("queue_capacity", |r| Int(r.queue_capacity as u64));
        s.both("peak_queue_depth", |r| Int(r.peak_queue_depth));
        s.both("peak_inflight_bytes", |r| Int(r.peak_inflight_bytes));
        // The histograms are JSON objects; the CSV flattens the latency
        // one to four quantile columns.
        s.json("latency_ms", |r| Rec(&r.latency_ms));
        s.csv("latency_p50_ms", |r| NumOrBlank(r.latency_ms.quantile(0.5)));
        s.csv("latency_p90_ms", |r| NumOrBlank(r.latency_ms.quantile(0.9)));
        s.csv("latency_p99_ms", |r| {
            NumOrBlank(r.latency_ms.quantile(0.99))
        });
        s.csv("latency_max_ms", |r| NumOrBlank(r.latency_ms.max()));
        s.json("queue_depth", |r| Rec(&r.queue_depth));
        s.both("drained", |r| Bool(r.drained));
        s.field("wall_seconds", "wall_s", |r| Num(r.wall_seconds));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polar_octree::OctreeConfig;

    #[test]
    fn histogram_quantiles_are_bucket_bound_estimates() {
        let mut h = Histogram::latency_ms();
        assert!(h.quantile(0.5).is_nan(), "empty histogram has no median");
        assert!(h.mean().is_nan());
        for _ in 0..90 {
            h.record(0.7); // lands in the (0.5, 1.0] bucket
        }
        for _ in 0..10 {
            h.record(40.0); // lands in the (25, 50] bucket
        }
        assert_eq!(h.total(), 100);
        assert_eq!(h.quantile(0.50), 1.0, "p50 reports its bucket bound");
        assert_eq!(h.quantile(0.90), 1.0);
        assert_eq!(h.quantile(0.99), 40.0, "clamped to the observed max");
        assert_eq!(h.max(), 40.0);
        // Overflow bucket: beyond the last bound, clamped to max.
        h.record(9999.0);
        assert_eq!(h.quantile(1.0), 9999.0);
        let j = h.to_json();
        assert!(j.contains("\"le\":null"), "overflow bucket in JSON: {j}");
        crate::json::Json::parse(&j).expect("histogram JSON must parse");
    }

    #[test]
    fn serve_report_reconciliation_checks_both_identities() {
        let mut r = ServeReport {
            requests: 10,
            rejected: 2,
            control: 1,
            admitted: 7,
            completed: 3,
            shed: 2,
            deadline_exceeded: 1,
            panicked: 1,
            failed: 0,
            ..ServeReport::default()
        };
        assert!(r.reconciles());
        r.completed += 1; // an answered job the admission gate never saw
        assert!(!r.reconciles());
        r.completed -= 1;
        r.requests += 1; // a read line no counter claims
        assert!(!r.reconciles());
    }

    #[test]
    fn tree_stats_count_leaves_and_depths() {
        let pts: Vec<polar_geom::Vec3> = (0..64)
            .map(|i| polar_geom::Vec3::new((i % 4) as f64, ((i / 4) % 4) as f64, (i / 16) as f64))
            .collect();
        let tree = OctreeConfig {
            max_leaf_size: 4,
            max_depth: 10,
        }
        .build(&pts);
        let s = TreeDepthStats::for_tree(&tree);
        assert_eq!(s.node_count, tree.node_count());
        assert_eq!(s.leaf_count, tree.leaves().len());
        assert!(s.max_depth >= 1);
        assert!(s.mean_leaf_depth > 0.0 && s.mean_leaf_depth <= s.max_depth as f64);
        // Empty tree: all zeros.
        let empty = OctreeConfig::default().build(&[]);
        assert_eq!(TreeDepthStats::for_tree(&empty), TreeDepthStats::default());
    }

    #[test]
    fn steal_report_from_stats() {
        let stats = StealStats {
            executed: vec![10, 30],
            steals: vec![2, 5],
        };
        let r = StealReport::from(&stats);
        assert_eq!(r.workers, 2);
        assert_eq!(r.total_executed, 40);
        assert_eq!(r.total_steals, 7);
        assert!((r.imbalance - 1.5).abs() < 1e-12);
    }
}
