//! Plan + execute engine for the two hot traversals.
//!
//! The recursive kernels in [`crate::born::octree`] and
//! [`crate::energy::octree`] interleave the Fig. 2/Fig. 3 *separation
//! tests* (pointer-chasing tree walks) with the *arithmetic* (pair sums
//! and far-field pseudo-particle terms). For a fixed geometry and ε the
//! outcome of every separation test is the same on every solve, so this
//! module splits the work FMM-style:
//!
//! * **plan** ([`InteractionPlan::build`]): run each traversal once and
//!   record its decisions as flat interaction lists, segmented by source
//!   leaf so the node-based work division still applies. The energy
//!   stage keeps one list segment per `T_A` leaf: the segment names its
//!   source leaf once and every entry stores only the partner — one
//!   `{start, len}` run of consecutive atom slots per stretch of
//!   near-field partners, one `u32` node id per far-field (node, node)
//!   pair (see [`StageLists`]). The Born stage,
//!   whose source leaves hold ~3 q-points each and whose neighbours'
//!   lists are nearly equal, plans and stores **blocks of eight
//!   consecutive `T_Q` leaves**: one joint walk of `T_A` per block, each
//!   partner id stored once per block in 40-byte windows of eight ids
//!   with a lane mask per leaf (see [`BornBlocks`]) — a fifth of the
//!   bytes of per-leaf lists for the same (leaf, partner) pairs. Each
//!   block's and each leaf's walk is independent of every other's, so a
//!   build plans them in contiguous chunks on the calling thread plus
//!   its share of the host's cores ([`polar_runtime::fair_share`]) and
//!   appends the chunks in order: the lists are the same bits for any
//!   thread count;
//! * **execute** ([`InteractionPlan::execute_born_segment`],
//!   [`InteractionPlan::execute_epol_segment`]): branch-free loops over
//!   those buffers reading SoA position/charge arrays (cache-friendly and
//!   auto-vectorizable), chunked through `polar_runtime::run_batch` by the
//!   parallel drivers so steal counters keep working. A Born segment is
//!   still a range of q-leaves; a range that cuts a block takes the
//!   block's windows with only its own leaves' rows. Inside, a large
//!   segment forks onto the caller's share of the cores: the Born far
//!   and near passes on two threads, energy and gradient leaves in
//!   chunks; every output is the same bits for any thread count.
//!
//! A plan built once is reusable across repeated solves of the same
//! prepared [`GbSolver`] — the paper's ZDock re-scoring workload
//! (§IV.C): many energy evaluations of one complex without re-walking
//! the trees. See `GbSolver::solve_with_plan`; every `polar` CLI solve
//! plans and executes this way.
//!
//! ## Fidelity to the recursive reference
//!
//! The plan records exactly the (source leaf, partner) pairs the
//! recursive traversal evaluates; the energy lists keep them in its
//! visit order (depth-first over the atoms tree). How faithfully execute
//! replays the arithmetic is selected per solve by [`KernelMode`]:
//!
//! * **[`KernelMode::Strict`]** runs the scalar reference loops, which
//!   replicate the recursive kernels' arithmetic term-for-term:
//!   Born-stage partials are **bitwise identical** to the recursive path
//!   (every accumulator receives the same terms in the same order), and
//!   E_pol agrees to machine precision (≲ 1e-12 relative — per-leaf
//!   contributions are re-associated: all near entries, then all far
//!   entries, instead of the recursion's interleaved nesting).
//! * **[`KernelMode::Lane`]** (the default) routes every list through
//!   the hand-vectorized kernels of [`crate::kernels`]. A Born window
//!   gathers its eight a-node centers (far) or atoms (near) and their
//!   accumulators once, adds each leaf's eight terms under that leaf's
//!   lane mask with the leaf's q side broadcast, and scatters once;
//!   the energy near kernel loads eight consecutive slots at a time
//!   straight out of the near runs (the same runs the strict loops walk)
//!   and a leaf's energy far entries run as one pass over their
//!   [`EpolCtx`]-precompacted histogram rows laid end to end. Exact-grade,
//!   not bitwise: lane accumulators re-associate sums, FMA contracts
//!   roundings and divisions become seeded Newton reciprocals, but every
//!   elementary term is computed to a few ulp, so E_pol stays within
//!   1e-12 relative of the recursive reference and Born radii differ
//!   only at the ulp level. Lane energy kernels implement exact-grade
//!   math only; when a solve asks for [`MathMode::Approximate`] the
//!   energy stage falls back to the strict scalar loops so the fast-math
//!   ablation keeps its exact semantics.
//!
//! ### Pinned summation order
//!
//! Both modes are deterministic run-to-run and across segment
//! partitions, because the order of every floating-point reduction is
//! part of this module's contract:
//!
//! * Born stage: **every accumulator (`s_node[a]`, `s_atom[slot]`)
//!   receives its terms in ascending q-leaf order**, one term per leaf
//!   that meets it — the recursion's order. A block stores each id in
//!   exactly one window and a window's ids are distinct, so the order of
//!   windows inside a block is free (it is the bucket order of
//!   [`BornBlocks`]); what is pinned is that the leaves of a window add
//!   in ascending order and blocks run in ascending order. Lanes hold
//!   accumulators, so there is no horizontal reduction, and no sum
//!   depends on the block size or on where a leaf range cuts a block;
//! * energy stage, per `T_A` leaf: near list, then far list, each in
//!   plan order; strict mode sums the source leaf's slot range ascending
//!   per listed slot, lane mode accumulates [`kernels::LANE_WIDTH`]-wide
//!   partial sums that reduce low → high;
//! * leaves combine in ascending order within a segment, and segment
//!   results add in rank order in the drivers.
//!
//! Changing the lane width would silently reorder the lane reductions —
//! the `width_is_pinned` unit test of [`crate::kernels`] locks it, and
//! `tests/kernel_modes.rs` pins each mode's bits run-to-run and across
//! segment chunkings (for the Born stage, across cuts at every offset
//! into a block).
//!
//! `WorkCounts` from execute report the same `pair_ops`/`far_ops` as the
//! recursive traversal in both modes; `nodes_visited` is counted once at
//! plan time (in [`InteractionPlan::plan_work`], summed per leaf as if
//! each had walked alone) and is zero during execute — that is the point
//! of planning.

use crate::born::octree::{separation_factor_r6, BornKernel, BornOctreeCtx, BornPartials};
use crate::energy::exact::gb_pair;
use crate::energy::gradient::{pair_dedr_over_r, GradientError, COINCIDENT_R_SQ};
use crate::energy::octree::{separation_factor_epol, EpolCtx};
use crate::kernels::{self, BlockWalk, KernelMode, QLeafMoments, Run, Window, QLEAF_BLOCK};
use crate::report::PlanReport;
use crate::solver::{FrameDelta, GbParams, GbSolver};
use crate::stats::WorkCounts;
use polar_geom::MathMode;
use polar_octree::{NodeId, Octree};
use std::fmt;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// Typed rejection of a stale or foreign plan.
///
/// Executing a plan against a solver or ε it was not built for would
/// silently produce wrong energies — the classic plan-cache staleness
/// hazard — so the `solve_with_plan` entry points check a cheap
/// fingerprint (atom/q-point counts + both ε) and refuse with this error
/// instead of panicking mid-batch or returning garbage.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// The plan was built at different approximation parameters.
    EpsilonMismatch {
        /// (ε_born, ε_epol) the plan was built with.
        plan: (f64, f64),
        /// (ε_born, ε_epol) the solve requested.
        requested: (f64, f64),
    },
    /// The plan was built for a solver with different geometry.
    GeometryMismatch {
        /// (n_atoms, n_qpoints) the plan was built from.
        plan: (usize, usize),
        /// (n_atoms, n_qpoints) of the solver handed to the solve.
        solver: (usize, usize),
    },
    /// The solver's coordinates moved (via `GbSolver::apply_frame`) after
    /// this plan was built or last patched. Executing it would stream
    /// stale SoA coordinates, so the solve refuses; run
    /// [`InteractionPlan::delta`] + [`InteractionPlan::patch`] (or
    /// rebuild) to catch the plan up.
    StaleGeometry {
        /// Geometry version the plan was built/patched at.
        plan: u64,
        /// Geometry version the solver has moved to.
        solver: u64,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::EpsilonMismatch { plan, requested } => write!(
                f,
                "plan built for eps (born {} [bits {:#018x}], epol {} [bits {:#018x}]) \
                 cannot solve at requested eps (born {} [bits {:#018x}], epol {} [bits {:#018x}])",
                plan.0,
                plan.0.to_bits(),
                plan.1,
                plan.1.to_bits(),
                requested.0,
                requested.0.to_bits(),
                requested.1,
                requested.1.to_bits()
            ),
            PlanError::GeometryMismatch { plan, solver } => write!(
                f,
                "plan expected {} atoms / {} q-points but the solver has {} atoms / {} q-points",
                plan.0, plan.1, solver.0, solver.1
            ),
            PlanError::StaleGeometry { plan, solver } => write!(
                f,
                "plan was built/patched at geometry version {plan} but the solver has moved to \
                 version {solver}; patch or rebuild the plan before solving"
            ),
        }
    }
}

impl std::error::Error for PlanError {}

/// Tunables of the delta re-planning path.
#[derive(Debug, Clone, Copy)]
pub struct ReplanConfig {
    /// Octree refresh slack: atoms may drift this far outside their
    /// leaf's original bounding cell before the tree topology itself is
    /// declared stale (escaped points force a full rebuild upstream).
    pub slack: f64,
    /// Frames whose largest single-point displacement exceeds this are
    /// rebuilt cold — the plan would be legally patchable but the margin
    /// bound turns uselessly conservative.
    pub max_displacement: f64,
    /// If more than this fraction of source-leaf segments is dirty, a
    /// cold rebuild is cheaper than splicing.
    pub max_dirty_fraction: f64,
    /// Node-geometry drift tolerance (Å) forwarded to
    /// [`polar_octree::Octree::refresh_delta`]: octree centroids and
    /// enclosing radii stay bitwise-frozen while a leaf's accumulated
    /// drift stays below this, so frames within the tolerance provably
    /// flip no separation test and patch without re-running any
    /// traversal. This is the delta model's accuracy knob: frozen node
    /// geometry is stale by at most `tolerance`, degrading the
    /// *far-field* approximation by `O(tolerance)` (near-field terms
    /// always use exact coordinates). `0.0` recovers exact geometry
    /// every frame — then only sub-margin steps (≲ 0.002 Å at ε = 0.9)
    /// are patchable, because the conservative erosion bound scales the
    /// per-frame radius change by `1 + 2/ε`.
    pub tolerance: f64,
}

impl Default for ReplanConfig {
    fn default() -> Self {
        ReplanConfig {
            slack: 0.75,
            max_displacement: 0.5,
            max_dirty_fraction: 0.5,
            tolerance: 0.1,
        }
    }
}

/// Why [`InteractionPlan::delta`] refused to patch.
#[derive(Debug, Clone, PartialEq)]
pub enum RebuildReason {
    /// Fingerprint mismatch — wrong solver or wrong ε; patching cannot
    /// help.
    Incompatible(PlanError),
    /// The frame's largest displacement exceeds
    /// [`ReplanConfig::max_displacement`].
    Displacement {
        /// Largest single-point displacement in the frame.
        max: f64,
        /// Configured ceiling.
        limit: f64,
    },
    /// Too many segments went dirty for splicing to beat a cold plan.
    DirtyFraction {
        /// Dirty source-leaf segments (both stages).
        dirty: usize,
        /// Total source-leaf segments (both stages).
        total: usize,
        /// Configured ceiling on `dirty / total`.
        limit: f64,
    },
}

impl fmt::Display for RebuildReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RebuildReason::Incompatible(e) => write!(f, "incompatible: {e}"),
            RebuildReason::Displacement { max, limit } => {
                write!(f, "displacement {max:.3e} exceeds patch limit {limit:.3e}")
            }
            RebuildReason::DirtyFraction {
                dirty,
                total,
                limit,
            } => write!(
                f,
                "{dirty}/{total} segments dirty exceeds patch fraction {limit}"
            ),
        }
    }
}

/// The segments a patch must re-plan, plus the margin erosion every
/// clean segment ages by. Produced by [`InteractionPlan::delta`],
/// consumed by [`InteractionPlan::patch`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PatchSet {
    /// Dirty `T_Q` source leaves of the Born lists (ascending).
    pub dirty_born: Vec<u32>,
    /// Dirty `T_A` source leaves of the energy lists (ascending).
    pub dirty_epol: Vec<u32>,
    /// Worst-case Born separation-test drift of this frame.
    pub erosion_born: f64,
    /// Worst-case energy separation-test drift of this frame.
    pub erosion_epol: f64,
}

/// Typed decision replacing the all-or-nothing compatibility check when
/// geometry moves: reuse the plan verbatim, patch the dirty segments, or
/// plan cold.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanDelta {
    /// The solver has not moved since the plan was built/patched.
    Reusable,
    /// Small move: re-plan the listed dirty segments and splice.
    Patchable(PatchSet),
    /// Patching is impossible or not worth it.
    Rebuild(RebuildReason),
}

/// What a [`InteractionPlan::patch`] actually did, for the
/// `ReplanReport` layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplanStats {
    /// Born-stage segments re-planned and spliced.
    pub dirty_born: usize,
    /// Energy-stage segments re-planned and spliced.
    pub dirty_epol: usize,
    /// Total Born-stage segments.
    pub total_born: usize,
    /// Total energy-stage segments.
    pub total_epol: usize,
}

/// Segmented flat interaction lists of the energy stage
/// (`APPROX-EPOL`, Fig. 3), grouped by source leaf: the source leaves are
/// `T_A` leaves `V` and the partner side is the `U` recursion over the
/// same tree. (The Born stage is stored as [`BornBlocks`]; the planner
/// here walks its recursion only in tests, as the per-leaf oracle those
/// blocks are expanded against.)
///
/// A group is one source leaf's recursion. What identifies the source is
/// stored **once per group** (`src` node id, its slot range, the number
/// of partner leaves, the margin); each *entry* stores only its partner:
///
/// * `near` — the near-field partner **slots** as maximal [`Run`]s of
///   consecutive slots: the slot ranges of the partner leaves the
///   recursion reached, in visit order, a range that begins where the
///   last one ended extending it. Atoms sit in Morton order, so a
///   group's partners are few runs, not many ids (5.55 M slots in 198 k
///   runs over `cold_solve`'s three molecules, 28 slots a run). Every
///   slot interacts exactly with every slot of the group's source
///   range. Strict loops, the lane kernel and the gradient all walk
///   this one list, slot by slot in run order; the runs of a group are a
///   function of its slot sequence alone, so they are no less patchable
///   than the slots were.
/// * `far` — one `u32` partner **node id** per far-field (node, node)
///   pair: a `T_A` node whose pseudo-particle term is banked against the
///   group's source node.
///
/// `near_off`/`far_off` (length `groups + 1`, `usize` so list sizes are
/// not capped at 2³² entries) delimit each group's slice, so rank `r`
/// executes the slices of its leaf segment — the same node-based work
/// division as the recursive path. Keying every list by source leaf is
/// also what makes the lists *patchable*: when geometry moves, dirty
/// leaves re-run their recursion in isolation and [`StageLists::splice`]
/// swaps just their segments.
///
/// Every column is allocated exact-sized (`capacity == len` after a
/// build and after a splice), so [`InteractionPlan::memory_bytes`]
/// charges the batch LRU for entries, not for `Vec` doubling slack.
#[derive(Debug, Clone, Default)]
pub struct StageLists {
    // Per-group columns (one row per source leaf).
    src: Vec<NodeId>,
    src_start: Vec<u32>,
    src_end: Vec<u32>,
    /// Partner leaves the group's recursion reached: the (leaf, leaf)
    /// block count [`PlanReport`] reports, which the `near` runs do not
    /// delimit.
    near_blocks: Vec<u32>,
    /// Per-source-leaf separation-test margin: the minimum `|d − sep|`
    /// over every separation test in that leaf's recursion. A geometry
    /// update whose worst-case test erosion stays below a leaf's margin
    /// provably flips none of its tests, so its segment can be kept
    /// verbatim (see [`InteractionPlan::delta`]).
    margin: Vec<f64>,
    near_off: Vec<usize>,
    far_off: Vec<usize>,
    // Per-entry columns (partner only).
    near: Vec<Run>,
    far: Vec<u32>,
}

/// One source leaf's slice of a [`StageLists`].
struct Group<'a> {
    /// Source leaf node id.
    src: NodeId,
    /// Source leaf slot range.
    slots: Range<usize>,
    /// Near partner slots, in recursion order, as maximal runs.
    near: &'a [Run],
    /// Far partner node ids, in recursion order.
    far: &'a [u32],
}

impl Group<'_> {
    /// The near partner slots, run by run.
    fn near_slots(&self) -> impl Iterator<Item = usize> + '_ {
        self.near.iter().flat_map(|run| run.slots())
    }

    /// How many near partner slots the runs hold.
    fn near_len(&self) -> usize {
        self.near.iter().map(|run| run.len as usize).sum()
    }
}

/// An offset column for `groups` groups: `groups + 1` slots, opened at 0.
fn offsets_with_capacity(groups: usize) -> Vec<usize> {
    let mut off = Vec::with_capacity(groups + 1);
    off.push(0);
    off
}

impl StageLists {
    /// Empty lists with room for exactly `groups` groups and for
    /// `entries` near runs and as many far ids.
    fn with_groups(groups: usize, entries: usize) -> StageLists {
        StageLists {
            src: Vec::with_capacity(groups),
            src_start: Vec::with_capacity(groups),
            src_end: Vec::with_capacity(groups),
            near_blocks: Vec::with_capacity(groups),
            margin: Vec::with_capacity(groups),
            near_off: offsets_with_capacity(groups),
            far_off: offsets_with_capacity(groups),
            near: Vec::with_capacity(entries),
            far: Vec::with_capacity(entries),
        }
    }

    /// Append the groups of `chunk` after this one's, rebasing its
    /// offsets, and empty `chunk` (its capacity stays for the next one).
    /// `share`: see [`append_projected`].
    fn append(&mut self, chunk: &mut StageLists, share: f64) {
        let (near, far) = (self.near.len(), self.far.len());
        self.near_off
            .extend(chunk.near_off[1..].iter().map(|&o| o + near));
        self.far_off
            .extend(chunk.far_off[1..].iter().map(|&o| o + far));
        chunk.near_off.truncate(1);
        chunk.far_off.truncate(1);
        self.src.append(&mut chunk.src);
        self.src_start.append(&mut chunk.src_start);
        self.src_end.append(&mut chunk.src_end);
        self.near_blocks.append(&mut chunk.near_blocks);
        self.margin.append(&mut chunk.margin);
        append_projected(&mut self.near, &mut chunk.near, share);
        append_projected(&mut self.far, &mut chunk.far, share);
    }

    /// Number of near-field (leaf, leaf) blocks — partner leaves reached,
    /// summed over groups (each is stored as its slots in the near list).
    pub fn near_entries(&self) -> usize {
        self.near_blocks.iter().map(|&b| b as usize).sum()
    }

    /// Near-field partner slots, summed over groups.
    pub fn near_slots(&self) -> usize {
        self.near.iter().map(|run| run.len as usize).sum()
    }

    /// Stored near-field runs (eight bytes each).
    pub fn near_runs(&self) -> usize {
        self.near.len()
    }

    /// Number of far-field (node, node) entries (one `u32` each).
    pub fn far_entries(&self) -> usize {
        self.far.len()
    }

    /// Number of source-leaf groups the lists are segmented by.
    pub fn groups(&self) -> usize {
        self.margin.len()
    }

    /// Per-group separation margins: how far (in distance units) each
    /// source leaf's tightest separation test sits from flipping. The
    /// delta pass marks a leaf dirty when the frame's erosion bound
    /// reaches its margin; exposing them lets benchmarks and diagnostics
    /// inspect how much headroom a plan has left.
    pub fn margins(&self) -> &[f64] {
        &self.margin
    }

    /// The near partner slots of source leaf `leaf`, as maximal runs in
    /// recursion order.
    pub fn leaf_near(&self, leaf: usize) -> &[Run] {
        self.group(leaf).near
    }

    /// The far partner node ids of source leaf `leaf`, in recursion order.
    pub fn leaf_far(&self, leaf: usize) -> &[u32] {
        self.group(leaf).far
    }

    fn group(&self, g: usize) -> Group<'_> {
        Group {
            src: self.src[g],
            slots: self.src_start[g] as usize..self.src_end[g] as usize,
            near: &self.near[self.near_off[g]..self.near_off[g + 1]],
            far: &self.far[self.far_off[g]..self.far_off[g + 1]],
        }
    }

    /// Heap bytes actually held — capacities, which builds and splices
    /// keep equal to the lengths, because the LRU cache in
    /// [`crate::batch`] charges tenants for what the allocator keeps
    /// resident.
    fn memory_bytes(&self) -> usize {
        (self.src.capacity()
            + self.src_start.capacity()
            + self.src_end.capacity()
            + self.near_blocks.capacity()
            + self.far.capacity())
            * std::mem::size_of::<u32>()
            + self.near.capacity() * std::mem::size_of::<Run>()
            + (self.near_off.capacity() + self.far_off.capacity()) * std::mem::size_of::<usize>()
            + self.margin.capacity() * std::mem::size_of::<f64>()
    }

    /// Close the group whose partner entries were just appended to
    /// `near`/`far`.
    fn close_group(&mut self, src: NodeId, slots: Range<u32>, blocks: u32, margin: f64) {
        self.src.push(src);
        self.src_start.push(slots.start);
        self.src_end.push(slots.end);
        self.near_blocks.push(blocks);
        self.margin.push(margin);
        self.near_off.push(self.near.len());
        self.far_off.push(self.far.len());
    }

    /// Replace the segments of `dirty` source leaves (ascending) with the
    /// freshly re-planned groups of `fresh` (one group per dirty leaf, in
    /// the same order), keeping every clean segment verbatim. Clean-leaf
    /// margins age by `erosion` — the worst-case test drift this update
    /// could have caused — so margins stay safe across repeated patches
    /// without re-measuring; dirty leaves take their exact fresh margin.
    /// The source columns are the tree's leaves and do not change.
    fn splice(&mut self, dirty: &[u32], fresh: &StageLists, erosion: f64) {
        debug_assert_eq!(dirty.len(), fresh.groups());
        for m in &mut self.margin {
            *m -= erosion;
        }
        if dirty.is_empty() {
            return;
        }
        for (k, &leaf) in dirty.iter().enumerate() {
            debug_assert_eq!(fresh.src[k], self.src[leaf as usize]);
            self.near_blocks[leaf as usize] = fresh.near_blocks[k];
            self.margin[leaf as usize] = fresh.margin[k];
        }
        (self.near, self.near_off) = splice_segments(
            &self.near,
            &self.near_off,
            dirty,
            &fresh.near,
            &fresh.near_off,
        );
        (self.far, self.far_off) =
            splice_segments(&self.far, &self.far_off, dirty, &fresh.far, &fresh.far_off);
    }
}

/// A segmented list (`off` delimits segment `i` as `off[i]..off[i + 1]`)
/// with the `dirty` segments (ascending) replaced by the segments of
/// `fresh`, in order, and every other segment kept verbatim.
///
/// One pass into an exact-sized list, O(total list size): rebuilding by
/// copy beats repeated mid-vector splices as soon as more than one
/// segment is dirty.
fn splice_segments<T: Copy>(
    list: &[T],
    off: &[usize],
    dirty: &[u32],
    fresh: &[T],
    fresh_off: &[usize],
) -> (Vec<T>, Vec<usize>) {
    let segments = off.len() - 1;
    let replaced: usize = dirty
        .iter()
        .map(|&d| off[d as usize + 1] - off[d as usize])
        .sum();
    let mut out = Vec::with_capacity(list.len() + fresh.len() - replaced);
    let mut out_off = offsets_with_capacity(segments);
    let mut k = 0;
    for i in 0..segments {
        if k < dirty.len() && dirty[k] as usize == i {
            out.extend_from_slice(&fresh[fresh_off[k]..fresh_off[k + 1]]);
            k += 1;
        } else {
            out.extend_from_slice(&list[off[i]..off[i + 1]]);
        }
        out_off.push(out.len());
    }
    debug_assert_eq!(k, dirty.len());
    (out, out_off)
}

/// Move `chunk` to the end of `list`, first growing `list`, when it must
/// grow, to the length projected from `share` — the share of the build's
/// items it holds once `chunk` is in — with a quarter to spare.
///
/// Doubling would copy the list at each growth: chunk buffers allocated
/// after it keep it from growing in place, and a copy holds the old and
/// the new list resident at once. Grown straight to its projection it is
/// copied once or twice, and the pages it reserves but never fills are
/// never touched.
fn append_projected<T>(list: &mut Vec<T>, chunk: &mut Vec<T>, share: f64) {
    let need = list.len() + chunk.len();
    if need > list.capacity() {
        let projected = (need as f64 / share * 1.25) as usize;
        list.reserve_exact(projected.max(need) - list.len());
    }
    list.append(chunk);
}

/// Source leaves whose margin no longer survives `erosion` — the
/// segments that must be re-planned for this update.
fn dirty_leaves(margin: &[f64], erosion: f64) -> Vec<u32> {
    margin
        .iter()
        .enumerate()
        .filter(|(_, &m)| m <= erosion)
        .map(|(i, _)| i as u32)
        .collect()
}

/// The q-leaves of block `block` among `n_leaves`: eight, fewer in a
/// ragged last block.
fn block_leaves(block: usize, n_leaves: usize) -> Range<usize> {
    let lo = block * QLEAF_BLOCK;
    lo..(lo + QLEAF_BLOCK).min(n_leaves)
}

/// The Born stage's interaction lists (`APPROX-INTEGRALS`, Fig. 2),
/// stored per **block** of [`QLEAF_BLOCK`] consecutive `T_Q` leaves.
///
/// Neighbouring q-leaves see almost the same `T_A`: on a 2.5k-atom
/// globule the union of eight consecutive leaves' far lists is 6× smaller
/// than their sum. So block `b` (leaves `8b..8b + 8`) stores each partner
/// id **once**, in [`Window`]s of eight ids — `T_A` node ids in the far
/// list, atom slots in the near list — and each window says per leaf
/// which of its lanes that leaf has a term for (`by_leaf`). A block's
/// ids are distinct, so every (leaf, partner) pair of the per-leaf
/// recursions is exactly one set bit.
///
/// Within a block, ids are bucketed by the set of leaves that meet them
/// — most leaves first, then by mask value, ids ascending inside a
/// bucket — and cut into windows in that order, so windows are
/// homogeneous: about half carry a term for all 64 (lane, leaf) pairs,
/// and a leaf's empty rows are skipped whole. The order is a function of
/// the per-leaf sets alone, which keeps a patched plan list-equal to a
/// cold one. The last window of a list repeats its last id in the unused
/// lanes, with no bit set.
///
/// What stays per q-leaf is what the delta path and the reports read:
/// the separation margin, the `T_A` leaves reached ([`PlanReport`]'s
/// near-entry count) and the two entry counts. A dirty leaf re-plans its
/// whole block and [`BornBlocks::splice`] swaps whole blocks.
///
/// All windows live in **one** list, block after block, a block's far
/// list before its near list. One list, because it is then the only
/// allocation that grows while the blocks are planned: it stays last in
/// the heap and grows in place. With the far and near windows in two
/// lists growing in turns, each growth copied one of them to fresh pages
/// past the other, and whether the allocator had such pages at hand
/// moved a cold build by 15 % from one process, or one call site, to the
/// next. Every column is exact-sized after a build and after a splice,
/// like [`StageLists`]'.
#[derive(Debug, Clone, Default)]
pub struct BornBlocks {
    // Per-q-leaf columns.
    /// Minimum `|d − sep|` over the leaf's separation tests (see
    /// [`StageLists`]).
    margin: Vec<f64>,
    /// `T_A` leaves the leaf's recursion reached.
    near_blocks: Vec<u32>,
    /// Near partner slots of the leaf: the set bits of its rows in the
    /// block's near windows.
    near_slots: Vec<u32>,
    /// Far partner nodes of the leaf, likewise.
    far_nodes: Vec<u32>,
    /// Per block, where its windows start (`blocks + 1` offsets).
    start: Vec<usize>,
    /// Per block, the length of its far list.
    far_len: Vec<u32>,
    /// Every block's far list, then its near list.
    windows: Vec<Window>,
}

/// The ids leaf `l` of a block has a term for, in window order.
fn leaf_partners(windows: &[Window], l: usize) -> impl Iterator<Item = u32> + '_ {
    windows.iter().flat_map(move |w| {
        let row = w.by_leaf[l];
        (0..kernels::LANE_WIDTH)
            .filter(move |k| row >> k & 1 == 1)
            .map(move |k| w.ids[k])
    })
}

impl BornBlocks {
    /// Number of near-field (leaf, leaf) blocks — `T_A` leaves reached,
    /// summed over q-leaves.
    pub fn near_entries(&self) -> usize {
        self.near_blocks.iter().map(|&b| b as usize).sum()
    }

    /// Near-field (q-leaf, atom slot) pairs: the set bits of the near
    /// windows.
    pub fn near_slots(&self) -> usize {
        self.near_slots.iter().map(|&n| n as usize).sum()
    }

    /// Far-field (q-leaf, `T_A` node) entries: the set bits of the far
    /// windows.
    pub fn far_entries(&self) -> usize {
        self.far_nodes.iter().map(|&n| n as usize).sum()
    }

    /// Number of q-leaf segments the lists cover — the unit of
    /// [`InteractionPlan::execute_born_segment`] ranges, margins and
    /// dirty sets.
    pub fn groups(&self) -> usize {
        self.margin.len()
    }

    /// Number of q-leaf blocks.
    pub fn blocks(&self) -> usize {
        self.far_len.len()
    }

    /// Per-q-leaf separation margins (see [`StageLists::margins`]).
    pub fn margins(&self) -> &[f64] {
        &self.margin
    }

    /// The far windows (`T_A` node ids) of one block.
    pub fn far_windows(&self, block: usize) -> &[Window] {
        let start = self.start[block];
        &self.windows[start..start + self.far_len[block] as usize]
    }

    /// The near windows (atom slots) of one block.
    pub fn near_windows(&self, block: usize) -> &[Window] {
        &self.windows[self.start[block] + self.far_len[block] as usize..self.start[block + 1]]
    }

    /// The `T_A` node ids q-leaf `qleaf` is separated from, in stored
    /// (window) order — the far list of its own recursion as a set.
    pub fn leaf_far(&self, qleaf: usize) -> impl Iterator<Item = u32> + '_ {
        leaf_partners(self.far_windows(qleaf / QLEAF_BLOCK), qleaf % QLEAF_BLOCK)
    }

    /// The atom slots q-leaf `qleaf` meets pairwise, in stored order.
    pub fn leaf_near(&self, qleaf: usize) -> impl Iterator<Item = u32> + '_ {
        leaf_partners(self.near_windows(qleaf / QLEAF_BLOCK), qleaf % QLEAF_BLOCK)
    }

    /// Heap bytes held (capacities, which builds and splices keep equal
    /// to the lengths).
    fn memory_bytes(&self) -> usize {
        self.margin.capacity() * std::mem::size_of::<f64>()
            + (self.near_blocks.capacity()
                + self.near_slots.capacity()
                + self.far_nodes.capacity()
                + self.far_len.capacity())
                * std::mem::size_of::<u32>()
            + self.start.capacity() * std::mem::size_of::<usize>()
            + self.windows.capacity() * std::mem::size_of::<Window>()
    }

    /// Empty lists with room for exactly `blocks` blocks of `leaves`
    /// q-leaves in all, and for `windows` windows.
    fn with_blocks(blocks: usize, leaves: usize, windows: usize) -> BornBlocks {
        BornBlocks {
            margin: Vec::with_capacity(leaves),
            near_blocks: Vec::with_capacity(leaves),
            near_slots: Vec::with_capacity(leaves),
            far_nodes: Vec::with_capacity(leaves),
            start: offsets_with_capacity(blocks),
            far_len: Vec::with_capacity(blocks),
            windows: Vec::with_capacity(windows),
        }
    }

    /// Append the blocks of `chunk` after this one's, rebasing its
    /// offsets, and empty `chunk` (its capacity stays for the next one).
    /// `share`: see [`append_projected`].
    fn append(&mut self, chunk: &mut BornBlocks, share: f64) {
        let windows = self.windows.len();
        self.start
            .extend(chunk.start[1..].iter().map(|&o| o + windows));
        chunk.start.truncate(1);
        self.margin.append(&mut chunk.margin);
        self.near_blocks.append(&mut chunk.near_blocks);
        self.near_slots.append(&mut chunk.near_slots);
        self.far_nodes.append(&mut chunk.far_nodes);
        self.far_len.append(&mut chunk.far_len);
        append_projected(&mut self.windows, &mut chunk.windows, share);
    }

    /// Replace the `dirty` blocks (ascending) with the freshly re-planned
    /// blocks of `fresh` (the same blocks, in order), keeping every other
    /// block verbatim. Margins of leaves in clean blocks age by `erosion`
    /// (see [`StageLists::splice`]); every leaf of a re-planned block
    /// takes its exact fresh margin.
    fn splice(&mut self, dirty: &[u32], fresh: &BornBlocks, erosion: f64) {
        debug_assert_eq!(dirty.len(), fresh.blocks());
        for m in &mut self.margin {
            *m -= erosion;
        }
        let mut at = 0;
        for (k, &block) in dirty.iter().enumerate() {
            let leaves = block_leaves(block as usize, self.groups());
            let from = at..at + leaves.len();
            at = from.end;
            self.margin[leaves.clone()].copy_from_slice(&fresh.margin[from.clone()]);
            self.near_blocks[leaves.clone()].copy_from_slice(&fresh.near_blocks[from.clone()]);
            self.near_slots[leaves.clone()].copy_from_slice(&fresh.near_slots[from.clone()]);
            self.far_nodes[leaves].copy_from_slice(&fresh.far_nodes[from]);
            self.far_len[block as usize] = fresh.far_len[k];
        }
        debug_assert_eq!(at, fresh.margin.len());
        if !dirty.is_empty() {
            (self.windows, self.start) = splice_segments(
                &self.windows,
                &self.start,
                dirty,
                &fresh.windows,
                &fresh.start,
            );
        }
    }
}

/// A reusable execution plan for one prepared solver at fixed ε.
///
/// Holds the interaction lists of both stages plus SoA copies of the
/// per-slot inputs the execute loops stream over (atom positions and
/// charges, q-point positions/normals/weights — all in Morton slot
/// order, so the inner loops are contiguous loads).
#[derive(Clone)]
pub struct InteractionPlan {
    /// ε the Born lists were planned for.
    pub eps_born: f64,
    /// ε the energy lists were planned for.
    pub eps_epol: f64,
    /// Atom count of the solver the plan was built from (fingerprint).
    pub n_atoms: usize,
    /// Q-point count of the solver the plan was built from (fingerprint).
    pub n_qpoints: usize,
    /// `GbSolver::geom_version` at build/patch time — the staleness
    /// fingerprint that keeps a moved solver from silently executing a
    /// plan whose SoA coordinates predate the move.
    pub geom_version: u64,
    /// Born-stage lists (blocks of `T_Q` leaves).
    pub born: BornBlocks,
    /// Energy-stage lists (source leaves: `T_A` leaves).
    pub epol: StageLists,
    /// Traversal work spent planning (the one-off cost a reused plan
    /// amortizes away).
    pub plan_work: WorkCounts,
    // Atom SoA, slot order.
    ax: Vec<f64>,
    ay: Vec<f64>,
    az: Vec<f64>,
    charge_slot: Vec<f64>,
    // `T_A` node centers by node id, for the gathered far-field Born
    // kernel (the strict path reads them through the tree instead).
    anx: Vec<f64>,
    any_: Vec<f64>,
    anz: Vec<f64>,
    // Q-point SoA, slot order.
    qx: Vec<f64>,
    qy: Vec<f64>,
    qz: Vec<f64>,
    qnx: Vec<f64>,
    qny: Vec<f64>,
    qnz: Vec<f64>,
    qw: Vec<f64>,
    /// First q-point slot of each `T_Q` leaf, plus the q-point count:
    /// leaf `i` covers slots `q_leaf_start[i]..q_leaf_start[i + 1]`.
    q_leaf_start: Vec<u32>,
}

impl InteractionPlan {
    /// Run both separation traversals once and record their decisions.
    ///
    /// The walks run on the calling thread plus its share of the host's
    /// cores ([`polar_runtime::fair_share`]); the plan is the same bits
    /// for any share.
    pub fn build(solver: &GbSolver, p: &GbParams) -> InteractionPlan {
        InteractionPlan::build_on(solver, p, polar_runtime::fair_share())
    }

    /// [`InteractionPlan::build`] on `threads` threads, the caller's
    /// included.
    fn build_on(solver: &GbSolver, p: &GbParams, threads: usize) -> InteractionPlan {
        let mut plan_work = WorkCounts::ZERO;
        let n_blocks = solver.tree_q.leaves().len().div_ceil(QLEAF_BLOCK);
        let born = plan_born_blocks(
            &solver.tree_a,
            &solver.tree_q,
            &Vec::from_iter(0..n_blocks as u32),
            p.eps_born,
            &mut plan_work,
            threads,
        );
        let epol = plan_stage(
            &solver.tree_a,
            &solver.tree_a,
            solver.tree_a.leaves(),
            Walk::epol(p.eps_epol),
            &mut plan_work,
            threads,
        );

        let mut plan = InteractionPlan {
            eps_born: p.eps_born,
            eps_epol: p.eps_epol,
            n_atoms: solver.n_atoms(),
            n_qpoints: solver.n_qpoints(),
            geom_version: solver.geom_version,
            born,
            epol,
            plan_work,
            ax: Vec::new(),
            ay: Vec::new(),
            az: Vec::new(),
            charge_slot: Vec::new(),
            anx: Vec::new(),
            any_: Vec::new(),
            anz: Vec::new(),
            qx: Vec::new(),
            qy: Vec::new(),
            qz: Vec::new(),
            qnx: Vec::new(),
            qny: Vec::new(),
            qnz: Vec::new(),
            qw: Vec::new(),
            q_leaf_start: Vec::new(),
        };
        plan.fill_soa(solver);
        plan
    }

    /// The slot-indexed atom columns the energy and gradient kernels
    /// read: x, y, z, charge, Born radius, reciprocal Born radius.
    fn atom_columns<'a>(&'a self, born: &'a [f64], inv_born: &'a [f64]) -> [&'a [f64]; 6] {
        [
            &self.ax,
            &self.ay,
            &self.az,
            &self.charge_slot,
            born,
            inv_born,
        ]
    }

    /// (Re)copy the solver's per-slot inputs into the plan's SoA streams.
    /// Run at build time and again by [`InteractionPlan::patch`] so a
    /// patched plan executes over the frame's fresh coordinates.
    /// Allocates each stream exact-sized on the first call and nothing
    /// afterwards (capacities are retained).
    fn fill_soa(&mut self, solver: &GbSolver) {
        fn reset<const N: usize>(streams: [&mut Vec<f64>; N], len: usize) {
            for v in streams {
                v.clear();
                v.reserve_exact(len);
            }
        }
        let atoms = [
            &mut self.ax,
            &mut self.ay,
            &mut self.az,
            &mut self.charge_slot,
        ];
        reset(atoms, solver.n_atoms());
        for (slot, pos) in solver.tree_a.points().iter().enumerate() {
            self.ax.push(pos.x);
            self.ay.push(pos.y);
            self.az.push(pos.z);
            self.charge_slot
                .push(solver.charges[solver.tree_a.order()[slot] as usize]);
        }
        reset(
            [&mut self.anx, &mut self.any_, &mut self.anz],
            solver.tree_a.node_count(),
        );
        for node in solver.tree_a.nodes() {
            self.anx.push(node.center.x);
            self.any_.push(node.center.y);
            self.anz.push(node.center.z);
        }
        let qpoints = [
            &mut self.qx,
            &mut self.qy,
            &mut self.qz,
            &mut self.qnx,
            &mut self.qny,
            &mut self.qnz,
            &mut self.qw,
        ];
        reset(qpoints, solver.n_qpoints());
        for &orig in solver.tree_q.order() {
            let q = &solver.qpoints[orig as usize];
            self.qx.push(q.pos.x);
            self.qy.push(q.pos.y);
            self.qz.push(q.pos.z);
            self.qnx.push(q.normal.x);
            self.qny.push(q.normal.y);
            self.qnz.push(q.normal.z);
            self.qw.push(q.weight);
        }
        self.q_leaf_start.clear();
        self.q_leaf_start
            .reserve_exact(solver.tree_q.leaves().len() + 1);
        for &leaf in solver.tree_q.leaves() {
            self.q_leaf_start.push(solver.tree_q.node(leaf).start);
        }
        self.q_leaf_start.push(solver.n_qpoints() as u32);
    }

    /// Identity part of the compatibility check: counts plus both ε.
    /// Shared by [`InteractionPlan::check_compatible`] (which also
    /// demands the geometry version matches) and by the delta path
    /// (which exists precisely because the versions differ).
    fn check_fingerprint(&self, solver: &GbSolver, p: &GbParams) -> Result<(), PlanError> {
        if (self.eps_born, self.eps_epol) != (p.eps_born, p.eps_epol) {
            return Err(PlanError::EpsilonMismatch {
                plan: (self.eps_born, self.eps_epol),
                requested: (p.eps_born, p.eps_epol),
            });
        }
        if (self.n_atoms, self.n_qpoints) != (solver.n_atoms(), solver.n_qpoints()) {
            return Err(PlanError::GeometryMismatch {
                plan: (self.n_atoms, self.n_qpoints),
                solver: (solver.n_atoms(), solver.n_qpoints()),
            });
        }
        Ok(())
    }

    /// Does this plan fit `solver` at parameters `p`? Cheap fingerprint
    /// check — atom/q-point counts, both ε, and the geometry version —
    /// run by every `solve_with_plan` entry point before executing the
    /// lists.
    pub fn check_compatible(&self, solver: &GbSolver, p: &GbParams) -> Result<(), PlanError> {
        self.check_fingerprint(solver, p)?;
        if self.geom_version != solver.geom_version {
            return Err(PlanError::StaleGeometry {
                plan: self.geom_version,
                solver: solver.geom_version,
            });
        }
        Ok(())
    }

    /// Classify a coordinate update against this plan: reusable as-is,
    /// patchable (with the dirty-segment sets), or cold-rebuild.
    ///
    /// The patchability argument is a triangle-inequality bound. Every
    /// separation test compares `d = |c_u − c_v|` against
    /// `sep = factor · (r_u + r_v)`; a frame that shifts node centers by
    /// at most `Δc` per tree and node radii by at most `Δr` can move any
    /// test value by at most `erosion = ΣΔc + factor · ΣΔr`. A source
    /// leaf whose recorded minimum margin `min |d − sep|` exceeds that
    /// erosion provably has no flippable test, so its recursion re-runs
    /// to the identical segment and can be kept verbatim — only leaves
    /// with `margin ≤ erosion` are dirty.
    pub fn delta(
        &self,
        solver: &GbSolver,
        p: &GbParams,
        frame: &FrameDelta,
        cfg: &ReplanConfig,
    ) -> PlanDelta {
        if let Err(e) = self.check_fingerprint(solver, p) {
            return PlanDelta::Rebuild(RebuildReason::Incompatible(e));
        }
        if self.geom_version == solver.geom_version {
            return PlanDelta::Reusable;
        }
        if frame.max_disp > cfg.max_displacement {
            return PlanDelta::Rebuild(RebuildReason::Displacement {
                max: frame.max_disp,
                limit: cfg.max_displacement,
            });
        }
        let erosion_born = (frame.a.max_center_shift + frame.q.max_center_shift)
            + separation_factor_r6(p.eps_born)
                * (frame.a.max_radius_delta + frame.q.max_radius_delta);
        let erosion_epol = 2.0 * frame.a.max_center_shift
            + 2.0 * separation_factor_epol(p.eps_epol) * frame.a.max_radius_delta;
        let dirty_born = dirty_leaves(&self.born.margin, erosion_born);
        let dirty_epol = dirty_leaves(&self.epol.margin, erosion_epol);
        let dirty = dirty_born.len() + dirty_epol.len();
        let total = self.born.groups() + self.epol.groups();
        if total > 0 && dirty as f64 > cfg.max_dirty_fraction * total as f64 {
            return PlanDelta::Rebuild(RebuildReason::DirtyFraction {
                dirty,
                total,
                limit: cfg.max_dirty_fraction,
            });
        }
        PlanDelta::Patchable(PatchSet {
            dirty_born,
            dirty_epol,
            erosion_born,
            erosion_epol,
        })
    }

    /// Apply a [`PatchSet`]: re-run the separation recursion for the
    /// dirty source leaves only (Born: for the blocks that hold one),
    /// splice the fresh segments in place,
    /// refresh the SoA coordinate streams, and catch the plan's geometry
    /// version up to the solver's. After a patch the plan's lists are
    /// identical to what a cold [`InteractionPlan::build`] on the moved
    /// solver would record — that is the delta model's accuracy
    /// contract, property-tested in `tests/plan_props.rs`.
    ///
    /// The dirty walks fork as a build's do ([`InteractionPlan::build`]).
    pub fn patch(
        &mut self,
        solver: &GbSolver,
        p: &GbParams,
        set: &PatchSet,
    ) -> Result<ReplanStats, PlanError> {
        self.patch_on(solver, p, set, polar_runtime::fair_share())
    }

    /// [`InteractionPlan::patch`] on `threads` threads, the caller's
    /// included.
    fn patch_on(
        &mut self,
        solver: &GbSolver,
        p: &GbParams,
        set: &PatchSet,
        threads: usize,
    ) -> Result<ReplanStats, PlanError> {
        self.check_fingerprint(solver, p)?;
        let mut patch_work = WorkCounts::ZERO;
        let mut dirty_blocks =
            Vec::from_iter(set.dirty_born.iter().map(|&l| l / QLEAF_BLOCK as u32));
        dirty_blocks.dedup();
        let fresh = plan_born_blocks(
            &solver.tree_a,
            &solver.tree_q,
            &dirty_blocks,
            p.eps_born,
            &mut patch_work,
            threads,
        );
        self.born.splice(&dirty_blocks, &fresh, set.erosion_born);
        let leaves = solver.tree_a.leaves();
        let fresh = plan_stage(
            &solver.tree_a,
            &solver.tree_a,
            &Vec::from_iter(set.dirty_epol.iter().map(|&l| leaves[l as usize])),
            Walk::epol(p.eps_epol),
            &mut patch_work,
            threads,
        );
        self.epol.splice(&set.dirty_epol, &fresh, set.erosion_epol);
        self.fill_soa(solver);
        self.geom_version = solver.geom_version;
        self.plan_work.accumulate(patch_work);
        Ok(ReplanStats {
            dirty_born: set.dirty_born.len(),
            dirty_epol: set.dirty_epol.len(),
            total_born: self.born.groups(),
            total_epol: self.epol.groups(),
        })
    }

    /// Heap bytes held by the plan: interaction lists + SoA input copies
    /// (capacities — what the allocator keeps resident — which equal the
    /// lengths after every build and patch, so the batch LRU charges
    /// tenants for entries only).
    pub fn memory_bytes(&self) -> usize {
        self.born.memory_bytes()
            + self.epol.memory_bytes()
            + (self.ax.capacity()
                + self.ay.capacity()
                + self.az.capacity()
                + self.charge_slot.capacity()
                + self.anx.capacity()
                + self.any_.capacity()
                + self.anz.capacity()
                + self.qx.capacity()
                + self.qy.capacity()
                + self.qz.capacity()
                + self.qnx.capacity()
                + self.qny.capacity()
                + self.qnz.capacity()
                + self.qw.capacity())
                * std::mem::size_of::<f64>()
            + self.q_leaf_start.capacity() * std::mem::size_of::<u32>()
    }

    /// List-length statistics for the [`crate::report::SolveReport`].
    pub fn stats(&self) -> PlanReport {
        PlanReport {
            born_near_entries: self.born.near_entries() as u64,
            born_far_entries: self.born.far_entries() as u64,
            epol_near_entries: self.epol.near_entries() as u64,
            epol_far_entries: self.epol.far_entries() as u64,
            plan_bytes: self.memory_bytes() as u64,
        }
    }

    /// Execute the Born-stage lists of a contiguous `T_Q` leaf segment,
    /// accumulating into `partials` like
    /// [`crate::born::octree::approx_integrals_into`] — bit-for-bit in
    /// [`KernelMode::Strict`] (the lists replay the recursive
    /// traversal's accumulation order), ulp-grade in
    /// [`KernelMode::Lane`] (see the module docs).
    ///
    /// The far pass writes only `partials.s_node` and the near pass only
    /// `partials.s_atom`, so a segment of two full chunks of blocks (see
    /// [`chunk_len`]) runs them on two threads when the caller's share of
    /// the cores ([`polar_runtime::fair_share`]) allows: each accumulator
    /// still takes its terms in ascending q-leaf order, and the partials
    /// are the same bits on one thread or two.
    pub fn execute_born_segment(
        &self,
        ctx: &BornOctreeCtx<'_>,
        qleaf_range: Range<usize>,
        kernel: KernelMode,
        partials: &mut BornPartials,
        counts: &mut WorkCounts,
    ) {
        let threads = polar_runtime::fair_share();
        self.execute_born_segment_on(ctx, qleaf_range, kernel, partials, counts, threads);
    }

    /// [`InteractionPlan::execute_born_segment`] on at most `threads`
    /// threads, the caller's included (two at most: there are only two
    /// disjoint sets of accumulators).
    fn execute_born_segment_on(
        &self,
        ctx: &BornOctreeCtx<'_>,
        qleaf_range: Range<usize>,
        kernel: KernelMode,
        partials: &mut BornPartials,
        counts: &mut WorkCounts,
        threads: usize,
    ) {
        if self.born.groups() == 0 || qleaf_range.is_empty() {
            return;
        }
        for leaf in qleaf_range.clone() {
            counts.accumulate(self.born_work(leaf));
        }
        let blocks = qleaf_range.end.div_ceil(QLEAF_BLOCK) - qleaf_range.start / QLEAF_BLOCK;
        let threads = if chunk_len(blocks, threads.min(2)).is_some() {
            2
        } else {
            1
        };
        let BornPartials { s_node, s_atom } = partials;
        let passes = vec![BornPass::Far(s_node), BornPass::Near(s_atom)];
        run_pieces(
            passes,
            threads,
            || (),
            |(), pass| match pass {
                BornPass::Far(s_node) => {
                    self.born_far_pass(ctx, qleaf_range.clone(), kernel, s_node)
                }
                BornPass::Near(s_atom) => self.born_near_pass(qleaf_range.clone(), kernel, s_atom),
            },
        );
    }

    /// The Born far pass of a q-leaf segment: every block's far windows,
    /// blocks in ascending order, into the `T_A` node accumulators.
    fn born_far_pass(
        &self,
        ctx: &BornOctreeCtx<'_>,
        qleaf_range: Range<usize>,
        kernel: KernelMode,
        s_node: &mut [f64],
    ) {
        let leaf_ids = ctx.tree_q.leaves();
        for (block, leaves) in block_spans(qleaf_range) {
            let (far, base) = (self.born.far_windows(block), block * QLEAF_BLOCK);
            if kernel == KernelMode::Strict {
                for leaf in leaves {
                    self.strict_born_far(ctx, far, leaf, s_node);
                }
                continue;
            }
            // The q side broadcasts per leaf; a window's a-node centers
            // and accumulators are gathered once for all of them.
            let mut moments = [QLeafMoments::default(); QLEAF_BLOCK];
            for (m, &q_id) in moments.iter_mut().zip(&leaf_ids[leaves.clone()]) {
                let (c, ns) = (ctx.tree_q.node(q_id).center, ctx.q_nsum[q_id as usize]);
                *m = QLeafMoments {
                    center: [c.x, c.y, c.z],
                    nsum: [ns.x, ns.y, ns.z],
                    dipole: ctx.q_dipole[q_id as usize],
                };
            }
            kernels::born_far_blocks(
                far,
                leaves.start - base,
                &moments[..leaves.len()],
                [&self.anx, &self.any_, &self.anz],
                s_node,
            );
        }
    }

    /// The Born near pass of a q-leaf segment: every block's near
    /// windows, blocks in ascending order, into the atom-slot
    /// accumulators.
    fn born_near_pass(&self, qleaf_range: Range<usize>, kernel: KernelMode, s_atom: &mut [f64]) {
        for (block, leaves) in block_spans(qleaf_range) {
            let (near, base) = (self.born.near_windows(block), block * QLEAF_BLOCK);
            if kernel == KernelMode::Strict {
                for leaf in leaves {
                    self.strict_born_near(near, leaf, s_atom);
                }
                continue;
            }
            // A window's atoms and accumulators are gathered once for all
            // of the block's leaves in the segment.
            kernels::born_near_blocks(
                near,
                leaves.start - base,
                &self.q_leaf_start[leaves.start..=leaves.end],
                [&self.ax, &self.ay, &self.az],
                [
                    &self.qx, &self.qy, &self.qz, &self.qnx, &self.qny, &self.qnz, &self.qw,
                ],
                s_atom,
            );
        }
    }

    /// Strict replay of one q-leaf's far windows: the recursive kernel's
    /// scalar far terms. A window's ids are distinct, so the window order
    /// is free and, run leaf by leaf, every `s_node` accumulator takes
    /// its terms in ascending q-leaf order, as in the recursion.
    fn strict_born_far(
        &self,
        ctx: &BornOctreeCtx<'_>,
        far: &[Window],
        leaf: usize,
        s_node: &mut [f64],
    ) {
        let q_id = ctx.tree_q.leaves()[leaf];
        let q = ctx.tree_q.node(q_id);
        for a_id in leaf_partners(far, leaf % QLEAF_BLOCK) {
            let a = ctx.tree_a.node(a_id);
            let d = q.center - a.center;
            let d_sq = a.center.dist_sq(q.center);
            s_node[a_id as usize] += BornKernel::R6.far_term(
                ctx.q_nsum[q_id as usize],
                &ctx.q_dipole[q_id as usize],
                d,
                d_sq,
            );
        }
    }

    /// Strict replay of one q-leaf's near windows: the recursive
    /// kernel's scalar pair sums, one `s_atom` term per partner atom, in
    /// ascending q-leaf order as [`InteractionPlan::strict_born_far`].
    fn strict_born_near(&self, near: &[Window], leaf: usize, s_atom: &mut [f64]) {
        for a in leaf_partners(near, leaf % QLEAF_BLOCK) {
            let a = a as usize;
            let (x, y, z) = (self.ax[a], self.ay[a], self.az[a]);
            let mut s = 0.0;
            for j in self.q_leaf_slots(leaf) {
                let dx = self.qx[j] - x;
                let dy = self.qy[j] - y;
                let dz = self.qz[j] - z;
                let r2 = dx * dx + dy * dy + dz * dz;
                let dot = self.qw[j] * (dx * self.qnx[j] + dy * self.qny[j] + dz * self.qnz[j]);
                // Same guard as the recursive kernel; adding the
                // masked 0.0 never flips the accumulator's bits.
                s += if r2 > 1e-12 {
                    dot / (r2 * r2 * r2)
                } else {
                    0.0
                };
            }
            s_atom[a] += s;
        }
    }

    /// Execute the energy-stage lists of a contiguous `T_A` leaf segment.
    ///
    /// `ectx` supplies the per-node binned-charge histograms (they depend
    /// on the solve's Born radii, so they are rebuilt per solve — cheap);
    /// `born_slot` is the solve's Born radii permuted into Morton slot
    /// order. Returns this segment's `−(τ/2)·Σ` contribution, matching
    /// [`crate::energy::octree::epol_for_leaf_segment`] to machine
    /// precision in both kernel modes.
    ///
    /// The lane kernels implement exact-grade math only, so
    /// [`MathMode::Approximate`] always runs the strict scalar loops —
    /// the fast-math ablation's semantics never silently change.
    ///
    /// Each leaf's sum is independent, so a segment of two full chunks
    /// of leaves (see [`chunk_len`]) runs its chunks on the caller's
    /// share of the cores ([`polar_runtime::fair_share`]); the leaf sums
    /// are then added in leaf order, so the result is the same bits for
    /// any thread count.
    #[allow(clippy::too_many_arguments)]
    pub fn execute_epol_segment(
        &self,
        ectx: &EpolCtx<'_>,
        born_slot: &[f64],
        math: MathMode,
        kernel: KernelMode,
        tau: f64,
        leaf_range: Range<usize>,
        counts: &mut WorkCounts,
    ) -> f64 {
        let threads = polar_runtime::fair_share();
        self.execute_epol_segment_on(
            ectx, born_slot, math, kernel, tau, leaf_range, counts, threads,
        )
    }

    /// [`InteractionPlan::execute_epol_segment`] on at most `threads`
    /// threads, the caller's included.
    #[allow(clippy::too_many_arguments)]
    fn execute_epol_segment_on(
        &self,
        ectx: &EpolCtx<'_>,
        born_slot: &[f64],
        math: MathMode,
        kernel: KernelMode,
        tau: f64,
        leaf_range: Range<usize>,
        counts: &mut WorkCounts,
        threads: usize,
    ) -> f64 {
        if self.epol.groups() == 0 {
            return 0.0;
        }
        let lane = kernel == KernelMode::Lane && math == MathMode::Exact;
        let atoms = self.atom_columns(born_slot, ectx.inv_born_slot());
        // One leaf's sum. Per-leaf sub-accumulators keep the summation
        // tree close to the recursion's per-leaf nesting (ulp-level
        // agreement).
        let leaf_sum = |leaf: usize, rows: &mut kernels::FarRows, counts: &mut WorkCounts| {
            let mut leaf_acc = 0.0;
            let g = self.epol.group(leaf);
            let (v_id, v_range) = (g.src, g.slots.clone());
            // Every near partner slot (the `U` side) meets the leaf's
            // whole slot range `V`.
            counts.pair_ops += (g.near_len() * v_range.len()) as u64;
            if lane {
                // Lanes run over the long partner side, straight out of
                // the near runs (the leaf's few atoms broadcast).
                leaf_acc +=
                    kernels::epol_near_runs(g.near, atoms, atoms.map(|c| &c[v_range.clone()]));
                // All the leaf's far nodes in one pass: U's real bins
                // laid end to end in the lanes, V's real bins broadcast.
                let (v, (vq, vr, vri)) = (v_id as usize, ectx.compact_row(v_id));
                rows.clear();
                for &u_id in g.far {
                    let (u, (uq, ur, uri)) = (u_id as usize, ectx.compact_row(u_id));
                    counts.far_ops += ((uq.len() * vq.len()) as u64).max(1);
                    let dx = self.anx[u] - self.anx[v];
                    let dy = self.any_[u] - self.any_[v];
                    let dz = self.anz[u] - self.anz[v];
                    rows.push_row(dx * dx + dy * dy + dz * dz, [uq, ur, uri]);
                }
                leaf_acc += kernels::epol_far_rows(rows, [vq, vr, vri]);
            } else {
                for a in g.near_slots() {
                    let (xa, ya, za) = (self.ax[a], self.ay[a], self.az[a]);
                    let (qa, ra) = (self.charge_slot[a], born_slot[a]);
                    for b in v_range.clone() {
                        let dx = self.ax[b] - xa;
                        let dy = self.ay[b] - ya;
                        let dz = self.az[b] - za;
                        let r_sq = dx * dx + dy * dy + dz * dz;
                        leaf_acc += gb_pair(qa, self.charge_slot[b], r_sq, ra, born_slot[b], math);
                    }
                }
                let (v, hv) = (ectx.tree.node(v_id), ectx.hist_row(v_id));
                for &u_id in g.far {
                    let d_sq = ectx.tree.node(u_id).center.dist_sq(v.center);
                    let hu = ectx.hist_row(u_id);
                    let mut evals = 0u64;
                    for (i, &qu) in hu.iter().enumerate() {
                        if qu == 0.0 {
                            continue;
                        }
                        for (j, &qv) in hv.iter().enumerate() {
                            if qv == 0.0 {
                                continue;
                            }
                            let rr = ectx.bins.radius_product(i, j);
                            let f = math.sqrt(d_sq + rr * math.exp(-d_sq / (4.0 * rr)));
                            leaf_acc += qu * qv / f;
                            evals += 1;
                        }
                    }
                    counts.far_ops += evals.max(1);
                }
            }
            leaf_acc
        };
        let n = leaf_range.len();
        let chunk = chunk_len(n, threads).unwrap_or(n.max(1));
        let mut sums = vec![0.0; n];
        let mut work = vec![WorkCounts::ZERO; n.div_ceil(chunk)];
        let pieces = Vec::from_iter(
            leaf_range
                .step_by(chunk)
                .zip(sums.chunks_mut(chunk))
                .zip(&mut work),
        );
        // A leaf's far rows take at most one entry per atom: its far
        // nodes are disjoint subtrees, and a node has no more real bins
        // than atoms.
        let rows_for = if lane { self.n_atoms } else { 0 };
        run_pieces(
            pieces,
            threads,
            || kernels::FarRows::with_capacity(rows_for),
            |rows, ((first, sums), work)| {
                for (leaf, sum) in (first..).zip(sums) {
                    *sum = leaf_sum(leaf, rows, work);
                }
            },
        );
        for w in work {
            counts.accumulate(w);
        }
        // Leaves combine in ascending order, from +0.0, as one thread
        // adds them.
        let acc = sums.iter().fold(0.0, |acc, &sum| acc + sum);
        -0.5 * tau * acc
    }

    /// Execute the frozen-Born-radii *gradient* over one energy-stage
    /// leaf segment, accumulating `∂E_pol/∂x` per atom slot into the
    /// `(gx, gy, gz)` spans (slot `s` writes index `s − slot_base`).
    ///
    /// The coverage argument: for each source leaf `V`, the recursion
    /// behind [`plan_stage`] either reaches a `U` leaf (near block) or
    /// cuts a `U` subtree (far entry), so the leaf's near slot list
    /// plus its far nodes' slot ranges exactly partition **all** atom
    /// slots. Expanding far entries *pairwise* (instead of the energy
    /// stage's histogram collapse) therefore computes each target's
    /// complete, exact gradient from its own leaf's lists alone — a pure
    /// summation reorder of the naive double sum, which is why the plan
    /// path agrees with [`crate::energy::gradient::epol_gradient_naive`]
    /// to ~1e-12 while remaining embarrassingly parallel over leaves
    /// (disjoint target slices, bitwise-stable across segmentations).
    /// So a segment of two full chunks of leaves (see [`chunk_len`]) runs
    /// its chunks on the caller's share of the cores
    /// ([`polar_runtime::fair_share`]), each into its own slot span: the
    /// gradient is the same bits for any thread count.
    ///
    /// `inv_born` must hold `1/born_slot` (only read on the lane path).
    /// Sub-guard pairs surface as [`GradientError::CoincidentAtoms`]
    /// with *original* atom indices (mapped through `tree.order()`); the
    /// target meeting itself in its own leaf's block is expected and
    /// contributes nothing. A segment with several such pairs reports
    /// the one in its first leaf that has one, whichever thread ran it.
    /// Like the energy stage, lane kernels run only for exact math —
    /// [`MathMode::Approximate`] takes the strict scalar loops.
    #[allow(clippy::too_many_arguments)]
    pub fn execute_gradient_segment(
        &self,
        tree: &Octree,
        born_slot: &[f64],
        inv_born: &[f64],
        math: MathMode,
        kernel: KernelMode,
        tau: f64,
        leaf_range: Range<usize>,
        slot_base: usize,
        gx: &mut [f64],
        gy: &mut [f64],
        gz: &mut [f64],
        counts: &mut WorkCounts,
    ) -> Result<(), GradientError> {
        let threads = polar_runtime::fair_share();
        let (born, grad) = ([born_slot, inv_born], [gx, gy, gz]);
        self.execute_gradient_segment_on(
            tree, born, math, kernel, tau, leaf_range, slot_base, grad, counts, threads,
        )
    }

    /// [`InteractionPlan::execute_gradient_segment`] on at most `threads`
    /// threads, the caller's included; `born` is `[born_slot, inv_born]`
    /// and `grad` is `[gx, gy, gz]`.
    #[allow(clippy::too_many_arguments)]
    fn execute_gradient_segment_on(
        &self,
        tree: &Octree,
        [born_slot, inv_born]: [&[f64]; 2],
        math: MathMode,
        kernel: KernelMode,
        tau: f64,
        leaf_range: Range<usize>,
        slot_base: usize,
        grad: [&mut [f64]; 3],
        counts: &mut WorkCounts,
        threads: usize,
    ) -> Result<(), GradientError> {
        if self.epol.groups() == 0 {
            return Ok(());
        }
        let lane = kernel == KernelMode::Lane && math == MathMode::Exact;
        let atoms = self.atom_columns(born_slot, inv_born);
        // The gradient of a run of leaves into the slot spans `[gx, gy,
        // gz]` that start at slot `slot_base`. `block` is the lane path's
        // partner block of one leaf (x, y, z, charge, radius,
        // reciprocal), grown once and refilled.
        let run = |leaf_range: Range<usize>,
                   slot_base: usize,
                   [gx, gy, gz]: [&mut [f64]; 3],
                   block: &mut [Vec<f64>; 6],
                   counts: &mut WorkCounts|
         -> Result<(), GradientError> {
            for leaf in leaf_range {
                let g = self.epol.group(leaf);
                if g.near.is_empty() {
                    continue;
                }
                // The leaf's own slot range is the target side (`V`); its
                // own `U` leaf is always among the near partners.
                let (v_range, n_near) = (g.slots.clone(), g.near_len());
                let out = (v_range.start - slot_base)..(v_range.end - slot_base);
                if lane {
                    counts.pair_ops += (n_near * v_range.len()) as u64;
                    // Fill the partner block run by run, padded to a lane
                    // multiple with zero-charge sentinels placed far away
                    // so padded lanes neither contribute nor count as
                    // suspects (position-clamped padding could replicate
                    // a coincident partner and inflate the count).
                    let n_pad = n_near.next_multiple_of(kernels::LANE_WIDTH);
                    let sentinel = [self.ax[v_range.start] + 1e6, 0.0, 0.0, 0.0, 1.0, 1.0];
                    for ((col, src), pad) in block.iter_mut().zip(atoms).zip(sentinel) {
                        col.clear();
                        for run in g.near {
                            col.extend_from_slice(&src[run.slots()]);
                        }
                        col.resize(n_pad, pad);
                    }
                    let targets = atoms.map(|c| &c[v_range.clone()]);
                    let [ox, oy, oz] = [&mut *gx, &mut *gy, &mut *gz].map(|c| &mut c[out.clone()]);
                    let mut suspects = kernels::epol_grad_block(
                        targets,
                        block.each_ref().map(|c| c.as_slice()),
                        tau,
                        [&mut *ox, &mut *oy, &mut *oz],
                    );
                    for &u_id in g.far {
                        let u = tree.node(u_id);
                        let u_range = u.start as usize..u.end as usize;
                        counts.pair_ops += (u_range.len() * v_range.len()) as u64;
                        counts.far_ops += 1;
                        // Far nodes passed a separation test, so real
                        // lanes (and their clamped tail replicas) cannot
                        // be sub-guard — dense slices are safe as-is.
                        suspects += kernels::epol_grad_block(
                            targets,
                            atoms.map(|c| &c[u_range.clone()]),
                            tau,
                            [&mut *ox, &mut *oy, &mut *oz],
                        );
                    }
                    // Each target meets exactly itself at r = 0 — one
                    // expected suspect per target. Any excess is a
                    // genuinely coincident pair: locate it with a scalar
                    // pass.
                    if suspects != v_range.len() as u64 {
                        if let Some(err) = self.find_coincident(tree, &g) {
                            return Err(err);
                        }
                    }
                } else {
                    for b in v_range.clone() {
                        let (xb, yb, zb) = (self.ax[b], self.ay[b], self.az[b]);
                        let (qb, rb) = (self.charge_slot[b], born_slot[b]);
                        let (mut ax_, mut ay_, mut az_) = (0.0, 0.0, 0.0);
                        let mut pair = |a: usize| -> Result<(), GradientError> {
                            if a == b {
                                return Ok(());
                            }
                            let dx = xb - self.ax[a];
                            let dy = yb - self.ay[a];
                            let dz = zb - self.az[a];
                            let r_sq = dx * dx + dy * dy + dz * dz;
                            if r_sq <= COINCIDENT_R_SQ {
                                return Err(coincident_error(tree, b, a, r_sq));
                            }
                            let k = tau
                                * pair_dedr_over_r(
                                    qb,
                                    self.charge_slot[a],
                                    r_sq,
                                    rb,
                                    born_slot[a],
                                    math,
                                );
                            ax_ += dx * k;
                            ay_ += dy * k;
                            az_ += dz * k;
                            Ok(())
                        };
                        counts.pair_ops += n_near as u64;
                        for a in g.near_slots() {
                            pair(a)?;
                        }
                        for &u_id in g.far {
                            let u = tree.node(u_id);
                            let u_range = u.start as usize..u.end as usize;
                            counts.pair_ops += u_range.len() as u64;
                            for a in u_range {
                                pair(a)?;
                            }
                        }
                        gx[b - slot_base] += ax_;
                        gy[b - slot_base] += ay_;
                        gz[b - slot_base] += az_;
                    }
                    counts.far_ops += g.far.len() as u64;
                }
            }
            Ok(())
        };
        let n = leaf_range.len();
        let Some(chunk) = chunk_len(n, threads) else {
            return run(leaf_range, slot_base, grad, &mut Default::default(), counts);
        };
        // Leaves are Morton-ordered, so each chunk's targets form one
        // slot span, starting at its first leaf's first slot; cut the
        // spans apart here.
        let firsts = Vec::from_iter(leaf_range.clone().step_by(chunk));
        let starts = Vec::from_iter(firsts.iter().map(|&l| self.epol.group(l).slots.start));
        let mut rest = grad.map(|g| &mut g[starts[0] - slot_base..]);
        let mut spans = Vec::with_capacity(firsts.len());
        for (c, &start) in starts.iter().enumerate() {
            let len = starts
                .get(c + 1)
                .map_or(rest[0].len(), |&next| next - start);
            let [(hx, tx), (hy, ty), (hz, tz)] = rest.map(|g| g.split_at_mut(len));
            spans.push([hx, hy, hz]);
            rest = [tx, ty, tz];
        }
        let mut work = vec![WorkCounts::ZERO; firsts.len()];
        let mut results = vec![Ok(()); firsts.len()];
        let pieces = Vec::from_iter(
            firsts
                .iter()
                .zip(&starts)
                .zip(spans)
                .zip(work.iter_mut().zip(&mut results)),
        );
        // The lane block of one leaf holds one entry per near partner
        // slot, and the near partners are distinct slots.
        let block_for = if lane {
            self.n_atoms.next_multiple_of(kernels::LANE_WIDTH)
        } else {
            0
        };
        run_pieces(
            pieces,
            threads,
            || [(); 6].map(|_| Vec::with_capacity(block_for)),
            |block, (((&first, &start), span), (work, result))| {
                let leaves = first..(first + chunk).min(leaf_range.end);
                *result = run(leaves, start, span, block, work);
            },
        );
        for w in work {
            counts.accumulate(w);
        }
        // The first chunk's error is the one a serial run stops at.
        results.into_iter().collect()
    }

    /// Scalar sweep for the coincident pair a lane suspect-count excess
    /// implies: checks every (target, partner) pair of the group's
    /// lists. Returns `None` if nothing is sub-guard (a blend at the
    /// exact guard boundary — nothing was lost, the pair's term is ~0).
    fn find_coincident(&self, tree: &Octree, g: &Group<'_>) -> Option<GradientError> {
        for b in g.slots.clone() {
            let check = |a: usize| -> Option<GradientError> {
                if a == b {
                    return None;
                }
                let dx = self.ax[b] - self.ax[a];
                let dy = self.ay[b] - self.ay[a];
                let dz = self.az[b] - self.az[a];
                let r_sq = dx * dx + dy * dy + dz * dz;
                if r_sq <= COINCIDENT_R_SQ {
                    return Some(coincident_error(tree, b, a, r_sq));
                }
                None
            };
            let far_slots = g.far.iter().flat_map(|&u_id| {
                let u = tree.node(u_id);
                u.start as usize..u.end as usize
            });
            if let Some(e) = g.near_slots().chain(far_slots).find_map(check) {
                return Some(e);
            }
        }
        None
    }

    /// The q-point slots of one `T_Q` leaf.
    fn q_leaf_slots(&self, qleaf: usize) -> Range<usize> {
        self.q_leaf_start[qleaf] as usize..self.q_leaf_start[qleaf + 1] as usize
    }

    /// One q-leaf's Born-stage work: every near partner slot meets the
    /// leaf's whole slot range, every far node is one term.
    fn born_work(&self, qleaf: usize) -> WorkCounts {
        WorkCounts {
            pair_ops: self.born.near_slots[qleaf] as u64 * self.q_leaf_slots(qleaf).len() as u64,
            far_ops: self.born.far_nodes[qleaf] as u64,
            ..WorkCounts::ZERO
        }
    }

    /// Per-`T_Q`-leaf Born-stage work implied by the lists — the task
    /// sizes the cluster simulator replays, derived without re-running
    /// the traversal. `pair_ops`/`far_ops` sum to the recursive
    /// traversal's totals; `nodes_visited` is zero (spent at plan time).
    pub fn born_leaf_work(&self) -> Vec<WorkCounts> {
        (0..self.born.groups())
            .map(|qleaf| self.born_work(qleaf))
            .collect()
    }

    /// Per-`T_A`-leaf energy-stage work implied by the lists. Needs the
    /// solve's [`EpolCtx`] because a far entry's evaluation count is the
    /// product of the two nodes' nonzero histogram bins.
    pub fn epol_leaf_work(&self, ectx: &EpolCtx<'_>) -> Vec<WorkCounts> {
        (0..self.epol.groups())
            .map(|leaf| {
                let g = self.epol.group(leaf);
                let nzv = ectx.nonzero_bin_count(g.src) as u64;
                let far_evals = |&u_id: &u32| (ectx.nonzero_bin_count(u_id) as u64 * nzv).max(1);
                WorkCounts {
                    pair_ops: (g.near_len() * g.slots.len()) as u64,
                    far_ops: g.far.iter().map(far_evals).sum(),
                    ..WorkCounts::ZERO
                }
            })
            .collect()
    }
}

/// Build the typed coincidence error for two atom *slots*, mapped back
/// to original atom indices (sorted) through the tree's Morton order so
/// the error reads in the caller's coordinate system.
fn coincident_error(tree: &Octree, slot_a: usize, slot_b: usize, r_sq: f64) -> GradientError {
    let oa = tree.order()[slot_a] as usize;
    let ob = tree.order()[slot_b] as usize;
    GradientError::CoincidentAtoms {
        i: oa.min(ob),
        j: oa.max(ob),
        r: r_sq.sqrt(),
    }
}

/// Which recursion a walk mirrors. `recurse_qleaf` in
/// [`crate::born::octree`] (Fig. 2) runs the separation test on every
/// node and only then asks whether it is a leaf; `recurse` in
/// [`crate::energy::octree`] (Fig. 3) accepts a `U` leaf as a near block
/// before any test, so leaves contribute no margin there.
#[derive(Clone, Copy)]
struct Walk {
    /// Separation factor of the stage at the plan's ε.
    factor: f64,
    leaf_before_test: bool,
}

impl Walk {
    #[cfg(test)]
    fn born(eps: f64) -> Walk {
        Walk {
            factor: separation_factor_r6(eps),
            leaf_before_test: false,
        }
    }

    fn epol(eps: f64) -> Walk {
        Walk {
            factor: separation_factor_epol(eps),
            leaf_before_test: true,
        }
    }
}

/// Fewest items — Born blocks or energy source leaves — in a chunk of a
/// forked plan, so a chunk outweighs a thread's start and its hand-off
/// even on a small tree; a plan of fewer than two full chunks runs inline.
/// (At 16, forking the few dirty blocks of a 400-atom patch made it
/// 25 % slower than planning them inline.)
const MIN_CHUNK: usize = 64;

/// Chunks per thread: enough that threads claiming them in turn finish
/// together though walks differ in cost, and that the `2 × threads`
/// chunk buffers hold an eighth of the lists; few enough that a
/// hand-off copies a run long enough to stream.
const CHUNKS_PER_THREAD: usize = 16;

/// The chunk length a plan of `n` items forks with on `threads` threads,
/// or `None` when it runs inline: one thread, or under two full chunks.
fn chunk_len(n: usize, threads: usize) -> Option<usize> {
    let chunk = n
        .div_ceil(threads.max(1) * CHUNKS_PER_THREAD)
        .max(MIN_CHUNK);
    (threads > 1 && n >= 2 * chunk).then_some(chunk)
}

/// The blocks a q-leaf segment meets, each with the segment's leaves in
/// it, in ascending order; a segment that cuts a block takes only its own
/// leaves of it.
fn block_spans(qleaf_range: Range<usize>) -> impl Iterator<Item = (usize, Range<usize>)> {
    let blocks = qleaf_range.start / QLEAF_BLOCK..qleaf_range.end.div_ceil(QLEAF_BLOCK);
    blocks.map(move |block| {
        let base = block * QLEAF_BLOCK;
        let leaves = qleaf_range.start.max(base)..qleaf_range.end.min(base + QLEAF_BLOCK);
        (block, leaves)
    })
}

/// One of the two Born passes with the accumulators it alone writes.
enum BornPass<'a> {
    /// Far windows, into the `T_A` node accumulators.
    Far(&'a mut [f64]),
    /// Near windows, into the atom-slot accumulators.
    Near(&'a mut [f64]),
}

#[cfg(test)]
thread_local! {
    /// Threads this thread's executes have spawned, for the tests.
    static SPAWNED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Run `work(scratch, piece)` for every piece on the calling thread plus
/// up to `threads - 1` scoped threads, one thread per piece at most. Each
/// thread claims the next piece from a shared queue (a thread that drew
/// cheap pieces takes more of them) and works out of its own scratch.
/// Pieces write disjoint outputs, so the result does not depend on which
/// thread ran which.
///
/// Every scratch is made here, on the calling thread, by `new_scratch`,
/// for the malloc-arena reason of [`plan_in_chunks`]. A panic in a
/// spawned thread reaches the caller with its own payload once every
/// thread has stopped; the others finish the queue, so nothing waits on
/// the panicked piece.
fn run_pieces<P: Send, S: Send>(
    pieces: Vec<P>,
    threads: usize,
    new_scratch: impl Fn() -> S,
    work: impl Fn(&mut S, P) + Sync,
) {
    let threads = threads.clamp(1, pieces.len().max(1));
    let mut scratch = Vec::from_iter((0..threads).map(|_| new_scratch()));
    let own = scratch.pop().expect("one scratch per thread");
    let queue = Mutex::new(pieces.into_iter());
    let drain = |mut scratch: S| loop {
        let Some(piece) = queue.lock().expect("claiming never panics").next() else {
            return;
        };
        work(&mut scratch, piece);
    };
    std::thread::scope(|scope| {
        let drain = &drain;
        let spawned = Vec::from_iter(scratch.into_iter().map(|s| {
            #[cfg(test)]
            SPAWNED.with(|n| n.set(n.get() + 1));
            scope.spawn(move || drain(s))
        }));
        drain(own);
        for handle in spawned {
            if let Err(payload) = handle.join() {
                resume_unwind(payload);
            }
        }
    });
}

/// Chunks that finished planning, waiting to be appended in order.
struct HandOff<'a, O, L> {
    /// The lists being assembled.
    out: &'a mut O,
    /// The chunk `out` needs next.
    next: usize,
    /// Finished chunks that come after `next`, with their buffers.
    parked: Vec<(usize, L)>,
    /// Empty buffers.
    spare: Vec<L>,
    /// A worker panicked: the others stop.
    aborted: bool,
}

/// Plan items `0..n` — Born blocks or energy source leaves — in chunks of
/// `chunk` on the calling thread plus up to `threads - 1` scoped threads,
/// and append the chunks to `out` in item order. Returns the nodes the
/// walks visited.
///
/// Workers claim chunks in order from a shared counter (so a thread
/// that drew cheap walks takes more of them), plan each into a buffer
/// with `plan(buffer, items)` and hand it off. The chunk `out` needs
/// next is appended at once with `append(out, buffer, share)` — which
/// empties the buffer; `share` is the share of the items `out` then
/// holds — along with any parked chunks it unblocks. A chunk that
/// finished early is parked and its worker takes a spare buffer. So
/// `out` grows in order, as a serial build's lists do, and the few
/// buffers are reused from chunk to chunk instead of holding a second
/// copy of the lists.
///
/// Every buffer is made on the calling thread, by `new_buffer`, and
/// `out` must arrive with room in each list it grows: a list a spawned
/// thread allocated first would live in that thread's malloc arena,
/// which keeps the freed pages after the build; a list allocated here
/// stays in this thread's arena however a worker grows it. So when no
/// spare is left, a spawned worker waits for one, while the calling
/// thread makes another: it never stalls behind a worker the host has
/// paused in the middle of the chunk `out` needs next.
fn plan_in_chunks<O: Send, L: Send>(
    n: usize,
    chunk: usize,
    threads: usize,
    out: &mut O,
    new_buffer: impl Fn() -> L + Sync,
    plan: impl Fn(&mut L, Range<usize>) -> u64 + Sync,
    append: impl Fn(&mut O, &mut L, f64) + Sync,
) -> u64 {
    let n_chunks = n.div_ceil(chunk);
    let threads = threads.min(n_chunks);
    let own = Vec::from_iter((0..threads).map(|_| new_buffer()));
    let hand_off = Mutex::new(HandOff {
        out,
        next: 0,
        parked: Vec::with_capacity(2 * threads),
        spare: Vec::from_iter((0..threads).map(|_| new_buffer())),
        aborted: false,
    });
    let freed = Condvar::new();
    // `claimed` only hands out indices and `visited` is a sum: the lists
    // themselves pass through the mutex, so neither orders anything.
    let (claimed, visited) = (AtomicUsize::new(0), AtomicU64::new(0));
    // The share of the items `out` holds once chunk `c` is in.
    let share = |c: usize| ((c + 1) * chunk).min(n) as f64 / n as f64;
    let work = |mut buffer: L, calling_thread: bool| loop {
        let c = claimed.fetch_add(1, Ordering::Relaxed);
        if c >= n_chunks {
            return;
        }
        let items = c * chunk..((c + 1) * chunk).min(n);
        match catch_unwind(AssertUnwindSafe(|| plan(&mut buffer, items))) {
            Ok(v) => visited.fetch_add(v, Ordering::Relaxed),
            Err(payload) => {
                // Wake the workers waiting for a buffer only this chunk
                // would have freed.
                hand_off.lock().expect("no hand-off panicked").aborted = true;
                freed.notify_all();
                resume_unwind(payload);
            }
        };
        let mut h = hand_off.lock().expect("no hand-off panicked");
        if c != h.next {
            h.parked.push((c, buffer));
            if h.spare.is_empty() && calling_thread {
                drop(h);
                buffer = new_buffer();
                continue;
            }
            h = freed
                .wait_while(h, |h| h.spare.is_empty() && !h.aborted)
                .expect("no hand-off panicked");
            match h.spare.pop() {
                Some(spare) if !h.aborted => buffer = spare,
                _ => return,
            }
            continue;
        }
        let h = &mut *h;
        append(h.out, &mut buffer, share(c));
        h.next += 1;
        while let Some(k) = h.parked.iter().position(|&(c, _)| c == h.next) {
            let (_, mut unblocked) = h.parked.swap_remove(k);
            append(h.out, &mut unblocked, share(h.next));
            h.spare.push(unblocked);
            h.next += 1;
            freed.notify_one();
        }
    };
    std::thread::scope(|scope| {
        let work = &work;
        let mut own = own.into_iter();
        let first = own.next().expect("two or more chunks");
        for buffer in own {
            scope.spawn(move || work(buffer, false));
        }
        work(first, true);
    });
    let h = hand_off.into_inner().expect("no hand-off panicked");
    debug_assert_eq!((h.next, h.parked.len()), (n_chunks, 0));
    visited.into_inner()
}

/// Plan one stage's lists for the source leaves `leaf_ids` of `sources`
/// (all of them at build time, just the dirty ones on the patch path)
/// against the `partners` tree: same tests, same visit order as the
/// recursive kernels, but recording decisions instead of evaluating.
///
/// Each source leaf's walk is independent, so a group planned here is
/// bitwise the group a full cold plan records for that leaf, and the
/// lists are the same bits for any `threads` (see [`plan_in_chunks`]).
/// The separation structure depends only on tree geometry and ε — not on
/// Born radii — so the lists stay valid across solves.
fn plan_stage(
    partners: &Octree,
    sources: &Octree,
    leaf_ids: &[NodeId],
    walk: Walk,
    counts: &mut WorkCounts,
    threads: usize,
) -> StageLists {
    if partners.is_empty() || leaf_ids.is_empty() {
        return StageLists::default();
    }
    let plan = |lists: &mut StageLists, leaves: Range<usize>| {
        plan_groups(partners, sources, &leaf_ids[leaves], walk, lists)
    };
    let n = leaf_ids.len();
    let mut lists;
    counts.nodes_visited += match chunk_len(n, threads) {
        None => {
            lists = StageLists::with_groups(n, 0);
            plan(&mut lists, 0..n)
        }
        Some(chunk) => {
            lists = StageLists::with_groups(n, chunk);
            plan_in_chunks(
                n,
                chunk,
                threads,
                &mut lists,
                || StageLists::with_groups(chunk, chunk),
                plan,
                StageLists::append,
            )
        }
    };
    // Give back the growth slack of appending, so a finished build holds
    // `capacity == len` in every column.
    lists.near.shrink_to_fit();
    lists.far.shrink_to_fit();
    lists
}

/// Append the groups of the source leaves `leaf_ids` to `lists` (see
/// [`plan_stage`]) and return the nodes their walks visited.
///
/// The walk is stackless and reads `partners.nodes()` in place: node ids
/// are DFS pre-order (`Octree::check_invariants` asserts it), so stepping
/// to `id + 1` descends to the first child and jumping to `skip` moves
/// past the subtree to the next sibling (or an ancestor's), visiting the
/// nodes the recursion would, in the recursion's order.
fn plan_groups(
    partners: &Octree,
    sources: &Octree,
    leaf_ids: &[NodeId],
    walk: Walk,
    lists: &mut StageLists,
) -> u64 {
    let nodes = partners.nodes();
    let mut visited = 0u64;
    for &leaf in leaf_ids {
        let src = sources.node(leaf);
        // `|d − sep|` is how far a test sits from flipping; the minimum
        // over the leaf's walk is the segment's reuse margin. (Coincident
        // centers, `d_sq == 0`, have margin 0 and are always re-planned.
        // The `d_sq > 0` guard is Fig. 2's; `d_sq > sep²` implies it, so
        // Fig. 3's walk, which never had it, is unchanged by it.)
        let mut margin = f64::INFINITY;
        let mut blocks = 0u32;
        let group_start = lists.near.len();
        let mut id = 0usize;
        while let Some(node) = nodes.get(id) {
            visited += 1;
            let separated = !(walk.leaf_before_test && node.is_leaf) && {
                let d_sq = node.center.dist_sq(src.center);
                let sep = (node.radius + src.radius) * walk.factor;
                margin = margin.min((d_sq.sqrt() - sep).abs());
                d_sq > sep * sep && d_sq > 0.0
            };
            if separated {
                lists.far.push(id as NodeId);
            } else if node.is_leaf {
                // A partner leaf that begins where the group's last run
                // ends extends it; the runs stay maximal.
                let len = node.end - node.start;
                match lists.near[group_start..].last_mut() {
                    Some(run) if run.start + run.len == node.start => run.len += len,
                    _ => lists.near.push(Run {
                        start: node.start,
                        len,
                    }),
                }
                blocks += 1;
            } else {
                id += 1;
                continue;
            }
            id = node.skip as usize;
        }
        lists.close_group(leaf, src.start..src.end, blocks, margin);
    }
    visited
}

/// The 255 nonempty leaf sets in bucket order: most leaves first, then
/// by value.
const MASK_ORDER: [u8; 255] = {
    let mut order = [0u8; 255];
    let (mut at, mut leaves) = (0, QLEAF_BLOCK as u32);
    while leaves > 0 {
        let mut mask = 1usize;
        while mask < 256 {
            if (mask as u8).count_ones() == leaves {
                order[at] = mask as u8;
                at += 1;
            }
            mask += 1;
        }
        leaves -= 1;
    }
    order
};

/// Transpose an 8×8 bit matrix held one row per byte (Hacker's Delight
/// 7-3): bit `c` of byte `r` becomes bit `r` of byte `c`.
fn transpose_bits(rows: [u8; 8]) -> [u8; 8] {
    let mut x = u64::from_le_bytes(rows);
    let mut t = (x ^ (x >> 7)) & 0x00aa_00aa_00aa_00aa;
    x ^= t ^ (t << 7);
    t = (x ^ (x >> 14)) & 0x0000_cccc_0000_cccc;
    x ^= t ^ (t << 14);
    t = (x ^ (x >> 28)) & 0x0000_0000_f0f0_f0f0;
    x ^= t ^ (t << 28);
    x.to_le_bytes()
}

/// Append one block's window list to `out`: the walk's (id, leaf set)
/// pairs bucketed by leaf set in [`MASK_ORDER`] — a stable counting
/// sort, so ids stay ascending inside a bucket — and cut into windows of
/// eight in that order. Returns each leaf's entry count.
fn pack_windows(pairs: &[(u32, u8)], out: &mut Vec<Window>) -> [u32; QLEAF_BLOCK] {
    // Bucket sizes, then each bucket's first position.
    let mut next = [0usize; 256];
    for &(_, leaves) in pairs {
        next[leaves as usize] += 1;
    }
    let mut at = 0;
    for mask in MASK_ORDER {
        at += std::mem::replace(&mut next[mask as usize], at);
    }
    debug_assert_eq!(at, pairs.len(), "an id with no leaf");
    let first = out.len();
    let empty = Window {
        ids: [0; kernels::LANE_WIDTH],
        by_leaf: [0; QLEAF_BLOCK],
    };
    out.resize(first + pairs.len().div_ceil(kernels::LANE_WIDTH), empty);
    let windows = &mut out[first..];
    // `by_leaf` holds one *lane* per byte until the transposition below.
    for &(id, leaves) in pairs {
        let pos = next[leaves as usize];
        next[leaves as usize] += 1;
        let w = &mut windows[pos / kernels::LANE_WIDTH];
        w.ids[pos % kernels::LANE_WIDTH] = id;
        w.by_leaf[pos % kernels::LANE_WIDTH] = leaves;
    }
    // Unused lanes of the last window repeat its last id, in no leaf's
    // row: gathers stay in range and the masked scatter skips them.
    let used = pairs.len() % kernels::LANE_WIDTH;
    if used > 0 {
        let ids = &mut windows[pairs.len() / kernels::LANE_WIDTH].ids;
        let last = ids[used - 1];
        ids[used..].fill(last);
    }
    let mut entries = [0; QLEAF_BLOCK];
    for w in windows {
        w.by_leaf = transpose_bits(w.by_leaf);
        for (n, row) in entries.iter_mut().zip(w.by_leaf) {
            *n += row.count_ones();
        }
    }
    entries
}

/// Plan the Born lists of the listed q-leaf `blocks` (ascending; all of
/// them at build time, the ones holding a dirty leaf on the patch path):
/// one joint walk of `T_A` per block ([`kernels::born_block_walk`]) that
/// makes, for each of its leaves, the decisions `recurse_qleaf` makes,
/// then one [`pack_windows`] per list.
///
/// A block's walk is independent of every other block's, so a block
/// planned here is bitwise the block a cold plan records, and the lists
/// are the same bits for any `threads` (see [`plan_in_chunks`]).
fn plan_born_blocks(
    tree_a: &Octree,
    tree_q: &Octree,
    blocks: &[u32],
    eps: f64,
    counts: &mut WorkCounts,
    threads: usize,
) -> BornBlocks {
    if tree_a.is_empty() || blocks.is_empty() {
        return BornBlocks::default();
    }
    let factor = separation_factor_r6(eps);
    let q_leaves = tree_q.leaves().len();
    let n_leaves = blocks
        .iter()
        .map(|&b| block_leaves(b as usize, q_leaves).len())
        .sum();
    let n = blocks.len();
    let mut lists;
    counts.nodes_visited += match chunk_len(n, threads) {
        // Alone, start with no windows: one list growing at the end of
        // the heap (see `BornBlocks`).
        None => {
            lists = BornBlocks::with_blocks(n, n_leaves, 0);
            plan_blocks(
                tree_a,
                tree_q,
                blocks,
                factor,
                &mut lists,
                &mut BlockWalk::default(),
            )
        }
        Some(chunk) => {
            lists = BornBlocks::with_blocks(n, n_leaves, chunk);
            // A buffer carries its walk's scratch, made here too.
            let buffer = || {
                let walk = BlockWalk {
                    far: Vec::with_capacity(chunk),
                    near: Vec::with_capacity(chunk),
                    ..BlockWalk::default()
                };
                (
                    BornBlocks::with_blocks(chunk, chunk * QLEAF_BLOCK, chunk),
                    walk,
                )
            };
            plan_in_chunks(
                n,
                chunk,
                threads,
                &mut lists,
                buffer,
                |(lists, walk), items| {
                    plan_blocks(tree_a, tree_q, &blocks[items], factor, lists, walk)
                },
                |out, (chunk, _), share| out.append(chunk, share),
            )
        }
    };
    // Give back the growth slack of appending (see `plan_stage`).
    lists.windows.shrink_to_fit();
    lists
}

/// Append the lists of the q-leaf `blocks` to `lists` (see
/// [`plan_born_blocks`]), walking with the scratch `walk`, and return
/// the nodes the leaves' walks visited.
fn plan_blocks(
    tree_a: &Octree,
    tree_q: &Octree,
    blocks: &[u32],
    factor: f64,
    lists: &mut BornBlocks,
    walk: &mut BlockWalk,
) -> u64 {
    let q_leaves = tree_q.leaves();
    let mut visited = 0;
    for &block in blocks {
        let ids = &q_leaves[block_leaves(block as usize, q_leaves.len())];
        // One leaf per lane; the lanes past a ragged last block repeat
        // its last leaf and are never active.
        let mut q = kernels::QLeafLanes::default();
        for lane in 0..kernels::LANE_WIDTH {
            let leaf = tree_q.node(ids[lane.min(ids.len() - 1)]);
            let [x, y, z, r] = &mut q.0;
            (x[lane], y[lane], z[lane]) = (leaf.center.x, leaf.center.y, leaf.center.z);
            r[lane] = leaf.radius;
        }
        let active = u8::MAX >> (QLEAF_BLOCK - ids.len());
        kernels::born_block_walk(tree_a, &q, active, factor, walk);
        visited += walk.visited;
        let start = lists.windows.len();
        let far_nodes = pack_windows(&walk.far, &mut lists.windows);
        lists.far_len.push((lists.windows.len() - start) as u32);
        let near_slots = pack_windows(&walk.near, &mut lists.windows);
        lists.start.push(lists.windows.len());
        lists.margin.extend(&walk.margin[..ids.len()]);
        lists.near_blocks.extend(&walk.near_blocks[..ids.len()]);
        lists.near_slots.extend(&near_slots[..ids.len()]);
        lists.far_nodes.extend(&far_nodes[..ids.len()]);
    }
    visited
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::born::octree::approx_integrals;
    use crate::constants::{tau, EPS_WATER};
    use crate::energy::octree::epol_for_leaf_segment;
    use crate::solver::GbSolver;
    use polar_geom::Vec3;
    use polar_molecule::generators;
    use polar_octree::OctreeConfig;
    use polar_surface::SurfaceConfig;
    use std::sync::atomic::AtomicBool;

    fn solver(n: usize, seed: u64) -> GbSolver {
        let mol = generators::globular("p", n, seed);
        GbSolver::for_molecule(&mol, &SurfaceConfig::coarse(), &OctreeConfig::default())
    }

    #[test]
    fn strict_born_execute_is_bitwise_identical_to_recursive() {
        let s = solver(300, 17);
        let p = GbParams::default();
        let plan = InteractionPlan::build(&s, &p);
        let ctx = s.born_ctx();
        let n_qleaves = s.tree_q.leaves().len();
        let mut rec_counts = WorkCounts::ZERO;
        let recursive = approx_integrals(&ctx, p.eps_born, 0..n_qleaves, &mut rec_counts);
        let mut planned = BornPartials::zeros(&s.tree_a);
        let mut plan_counts = WorkCounts::ZERO;
        plan.execute_born_segment(
            &ctx,
            0..n_qleaves,
            KernelMode::Strict,
            &mut planned,
            &mut plan_counts,
        );
        assert_eq!(recursive.s_node, planned.s_node);
        assert_eq!(recursive.s_atom, planned.s_atom);
        assert_eq!(rec_counts.pair_ops, plan_counts.pair_ops);
        assert_eq!(rec_counts.far_ops, plan_counts.far_ops);
        assert_eq!(plan_counts.nodes_visited, 0);
        assert!(plan.plan_work.nodes_visited > 0);
    }

    #[test]
    fn lane_born_execute_matches_recursive_to_ulp_grade() {
        let s = solver(300, 17);
        let p = GbParams::default();
        let plan = InteractionPlan::build(&s, &p);
        let ctx = s.born_ctx();
        let n_qleaves = s.tree_q.leaves().len();
        let mut rec_counts = WorkCounts::ZERO;
        let recursive = approx_integrals(&ctx, p.eps_born, 0..n_qleaves, &mut rec_counts);
        let mut planned = BornPartials::zeros(&s.tree_a);
        let mut plan_counts = WorkCounts::ZERO;
        plan.execute_born_segment(
            &ctx,
            0..n_qleaves,
            KernelMode::Lane,
            &mut planned,
            &mut plan_counts,
        );
        // Far entries use the reciprocal-multiply lane formulation: ulp
        // grade against the recursive two-division terms, not bitwise.
        let nscale = recursive
            .s_node
            .iter()
            .fold(0.0_f64, |m, &v| m.max(v.abs()));
        for (r, l) in recursive.s_node.iter().zip(&planned.s_node) {
            assert!((r - l).abs() <= 1e-11 * nscale, "{r} vs {l}");
        }
        // Near blocks re-associate; the integrals agree to ulp grade.
        let scale = recursive
            .s_atom
            .iter()
            .fold(0.0_f64, |m, &v| m.max(v.abs()));
        for (r, l) in recursive.s_atom.iter().zip(&planned.s_atom) {
            assert!((r - l).abs() <= 1e-11 * scale, "{r} vs {l}");
        }
        // Work accounting is mode-independent.
        let mut strict_counts = WorkCounts::ZERO;
        let mut strict = BornPartials::zeros(&s.tree_a);
        plan.execute_born_segment(
            &ctx,
            0..n_qleaves,
            KernelMode::Strict,
            &mut strict,
            &mut strict_counts,
        );
        assert_eq!(plan_counts.pair_ops, strict_counts.pair_ops);
        assert_eq!(plan_counts.far_ops, strict_counts.far_ops);
    }

    #[test]
    fn epol_execute_matches_recursive_to_machine_precision() {
        let s = solver(400, 18);
        let p = GbParams::default();
        let plan = InteractionPlan::build(&s, &p);
        let (born, _) = s.born_radii(&p);
        let ectx = EpolCtx::new(&s.tree_a, &s.charges, &born, p.eps_epol);
        let t = tau(EPS_WATER);
        let n_leaves = s.tree_a.leaves().len();
        let mut rec_counts = WorkCounts::ZERO;
        let recursive = epol_for_leaf_segment(
            &ectx,
            p.eps_epol,
            MathMode::Exact,
            t,
            0..n_leaves,
            &mut rec_counts,
        );
        let born_slot: Vec<f64> = s.tree_a.order().iter().map(|&o| born[o as usize]).collect();
        for kernel in [KernelMode::Strict, KernelMode::Lane] {
            let mut plan_counts = WorkCounts::ZERO;
            let planned = plan.execute_epol_segment(
                &ectx,
                &born_slot,
                MathMode::Exact,
                kernel,
                t,
                0..n_leaves,
                &mut plan_counts,
            );
            assert!(
                (recursive - planned).abs() <= 1e-12 * recursive.abs(),
                "{kernel:?}: {recursive} vs {planned}"
            );
            assert_eq!(rec_counts.pair_ops, plan_counts.pair_ops, "{kernel:?}");
            assert_eq!(rec_counts.far_ops, plan_counts.far_ops, "{kernel:?}");
        }
    }

    #[test]
    fn approximate_math_routes_lane_requests_to_strict_epol() {
        // The lane kernels are exact-grade only; asking for Lane with
        // approximate math must produce bitwise the strict approx result.
        let s = solver(300, 22);
        let p = GbParams::default();
        let plan = InteractionPlan::build(&s, &p);
        let (born, _) = s.born_radii(&p);
        let ectx = EpolCtx::new(&s.tree_a, &s.charges, &born, p.eps_epol);
        let t = tau(EPS_WATER);
        let n_leaves = s.tree_a.leaves().len();
        let born_slot: Vec<f64> = s.tree_a.order().iter().map(|&o| born[o as usize]).collect();
        let run = |kernel: KernelMode| {
            let mut counts = WorkCounts::ZERO;
            plan.execute_epol_segment(
                &ectx,
                &born_slot,
                MathMode::Approximate,
                kernel,
                t,
                0..n_leaves,
                &mut counts,
            )
        };
        assert_eq!(
            run(KernelMode::Lane).to_bits(),
            run(KernelMode::Strict).to_bits()
        );
    }

    #[test]
    fn leaf_segments_partition_the_planned_execution() {
        let s = solver(250, 19);
        let p = GbParams::default();
        let plan = InteractionPlan::build(&s, &p);
        let ctx = s.born_ctx();
        let n_qleaves = s.tree_q.leaves().len();
        // Segment boundaries must not change a single bit in either
        // kernel mode — per-q-leaf work is independent of chunking.
        for kernel in [KernelMode::Strict, KernelMode::Lane] {
            let mut scratch = WorkCounts::ZERO;
            let mut full = BornPartials::zeros(&s.tree_a);
            plan.execute_born_segment(&ctx, 0..n_qleaves, kernel, &mut full, &mut scratch);
            let mut pieced = BornPartials::zeros(&s.tree_a);
            let mid = n_qleaves / 2;
            plan.execute_born_segment(&ctx, 0..mid, kernel, &mut pieced, &mut scratch);
            plan.execute_born_segment(&ctx, mid..n_qleaves, kernel, &mut pieced, &mut scratch);
            assert_eq!(full.s_node, pieced.s_node, "{kernel:?}");
            assert_eq!(full.s_atom, pieced.s_atom, "{kernel:?}");
        }
    }

    #[test]
    fn leaf_work_vectors_sum_to_recursive_totals() {
        let s = solver(300, 20);
        let p = GbParams::default();
        let plan = InteractionPlan::build(&s, &p);
        let ctx = s.born_ctx();
        let mut rec = WorkCounts::ZERO;
        let _ = approx_integrals(&ctx, p.eps_born, 0..s.tree_q.leaves().len(), &mut rec);
        let per_leaf: WorkCounts = plan.born_leaf_work().into_iter().sum();
        assert_eq!(per_leaf.pair_ops, rec.pair_ops);
        assert_eq!(per_leaf.far_ops, rec.far_ops);

        let (born, _) = s.born_radii(&p);
        let ectx = EpolCtx::new(&s.tree_a, &s.charges, &born, p.eps_epol);
        let mut erec = WorkCounts::ZERO;
        let _ = epol_for_leaf_segment(
            &ectx,
            p.eps_epol,
            MathMode::Exact,
            tau(EPS_WATER),
            0..s.tree_a.leaves().len(),
            &mut erec,
        );
        let eper: WorkCounts = plan.epol_leaf_work(&ectx).into_iter().sum();
        assert_eq!(eper.pair_ops, erec.pair_ops);
        assert_eq!(eper.far_ops, erec.far_ops);
    }

    #[test]
    fn stats_and_memory_are_consistent() {
        let s = solver(200, 21);
        let plan = InteractionPlan::build(&s, &GbParams::default());
        let st = plan.stats();
        assert!(st.born_near_entries > 0);
        assert!(st.epol_near_entries > 0);
        assert_eq!(st.plan_bytes, plan.memory_bytes() as u64);
        assert!(plan.memory_bytes() > 0);
        // The lists grow with ε-driven far usage; sanity: entries bounded
        // by leaf-pair counts.
        let nl = s.tree_a.leaves().len() as u64;
        assert!(st.epol_near_entries <= nl * nl);
    }

    #[test]
    fn memory_bytes_sums_every_segment_capacity() {
        // `memory_bytes` feeds the batch cache's byte-capacity LRU, so
        // it must account for *every* backing segment — the Born
        // blocks' per-leaf, offset and window columns, the energy
        // stage's group/offset/near-run/far/margin columns and the SoA
        // coordinate mirrors — and charge for entries, not growth slack: after a
        // cold build and after a patch every column holds
        // `capacity == len`, so the ledger equals the sum of lengths.
        fn exact<T>(v: &Vec<T>, what: &str, when: &str) -> usize {
            assert_eq!(v.capacity(), v.len(), "{what} holds slack after {when}");
            v.len() * std::mem::size_of::<T>()
        }
        fn held(plan: &InteractionPlan, when: &str) -> usize {
            let born = |l: &BornBlocks| {
                exact(&l.margin, "born margin", when)
                    + exact(&l.near_blocks, "born near_blocks", when)
                    + exact(&l.near_slots, "born near_slots", when)
                    + exact(&l.far_nodes, "born far_nodes", when)
                    + exact(&l.start, "born start", when)
                    + exact(&l.far_len, "born far_len", when)
                    + exact(&l.windows, "born windows", when)
            };
            let stage = |l: &StageLists| {
                exact(&l.src, "src", when)
                    + exact(&l.src_start, "src_start", when)
                    + exact(&l.src_end, "src_end", when)
                    + exact(&l.near_blocks, "near_blocks", when)
                    + exact(&l.margin, "margin", when)
                    + exact(&l.near_off, "near_off", when)
                    + exact(&l.far_off, "far_off", when)
                    + exact(&l.near, "near", when)
                    + exact(&l.far, "far", when)
            };
            let soa = [
                (&plan.ax, "ax"),
                (&plan.ay, "ay"),
                (&plan.az, "az"),
                (&plan.charge_slot, "charge_slot"),
                (&plan.anx, "anx"),
                (&plan.any_, "any"),
                (&plan.anz, "anz"),
                (&plan.qx, "qx"),
                (&plan.qy, "qy"),
                (&plan.qz, "qz"),
                (&plan.qnx, "qnx"),
                (&plan.qny, "qny"),
                (&plan.qnz, "qnz"),
                (&plan.qw, "qw"),
            ];
            born(&plan.born)
                + stage(&plan.epol)
                + exact(&plan.q_leaf_start, "q_leaf_start", when)
                + soa
                    .iter()
                    .map(|(v, what)| exact(v, what, when))
                    .sum::<usize>()
        }
        let mut s = solver(260, 23);
        let p = GbParams::default();
        let mut plan = InteractionPlan::build(&s, &p);
        assert!(plan.born.far_entries() > 0 && plan.epol.far_entries() > 0);
        assert_eq!(plan.memory_bytes(), held(&plan, "build"));

        assert_eq!(std::mem::size_of::<Window>(), 40);
        assert_eq!(std::mem::size_of::<Run>(), 8);
        // Exact-geometry frame with every segment allowed to go dirty:
        // the splice really rebuilds both stages' columns.
        let cfg = ReplanConfig {
            tolerance: 0.0,
            max_dirty_fraction: 1.0,
            ..ReplanConfig::default()
        };
        let moved: Vec<Vec3> = s
            .atom_pos
            .iter()
            .enumerate()
            .map(|(i, &x)| x + Vec3::new(0.01, -0.02, 0.015) * ((i % 5) as f64 / 4.0))
            .collect();
        let frame = s
            .apply_frame(&moved, cfg.slack, cfg.tolerance)
            .expect("a 0.03 A step stays inside the slack");
        let PlanDelta::Patchable(set) = plan.delta(&s, &p, &frame, &cfg) else {
            panic!("a small exact-geometry step must be patchable");
        };
        assert!(!set.dirty_born.is_empty() && !set.dirty_epol.is_empty());
        plan.patch(&s, &p, &set).expect("patch set fits its solver");
        assert_eq!(plan.memory_bytes(), held(&plan, "patch"));
        // And what it holds is what a cold build holds, run for run.
        let cold = InteractionPlan::build(&s, &p);
        assert_eq!(plan.epol.near, cold.epol.near);
        assert_eq!(plan.epol.near_off, cold.epol.near_off);
        assert_eq!(plan.epol.far, cold.epol.far);
        assert_eq!(plan.born.windows, cold.born.windows);
    }

    /// The recursive planners the stackless walk replaced — direct
    /// mirrors of `recurse_qleaf` (Fig. 2) and `recurse` (Fig. 3) over
    /// the octree's own nodes — kept as the oracle for [`plan_stage`].
    mod oracle {
        use super::super::*;

        #[derive(Default)]
        pub struct Group {
            pub far: Vec<NodeId>,
            pub near: Vec<u32>,
            pub blocks: u32,
            pub margin: f64,
            pub nodes_visited: u64,
        }

        pub fn born(tree_a: &Octree, tree_q: &Octree, eps: f64, leaf_ids: &[NodeId]) -> Vec<Group> {
            let factor = separation_factor_r6(eps);
            leaf_ids
                .iter()
                .map(|&qleaf| {
                    let mut g = Group {
                        margin: f64::INFINITY,
                        ..Group::default()
                    };
                    if !tree_a.is_empty() {
                        born_rec(tree_a, tree_q, factor, Octree::ROOT, qleaf, &mut g);
                    }
                    g
                })
                .collect()
        }

        fn born_rec(
            tree_a: &Octree,
            tree_q: &Octree,
            factor: f64,
            a_id: NodeId,
            qleaf: NodeId,
            g: &mut Group,
        ) {
            g.nodes_visited += 1;
            let a = tree_a.node(a_id);
            let q = tree_q.node(qleaf);
            let d_sq = a.center.dist_sq(q.center);
            let sep = (a.radius + q.radius) * factor;
            g.margin = g.margin.min((d_sq.sqrt() - sep).abs());
            if d_sq > sep * sep && d_sq > 0.0 {
                g.far.push(a_id);
            } else if a.is_leaf {
                g.near.extend(a.start..a.end);
                g.blocks += 1;
            } else {
                for c in tree_a.children(a_id) {
                    born_rec(tree_a, tree_q, factor, c, qleaf, g);
                }
            }
        }

        pub fn epol(tree: &Octree, eps: f64, leaf_ids: &[NodeId]) -> Vec<Group> {
            let factor = separation_factor_epol(eps);
            leaf_ids
                .iter()
                .map(|&v| {
                    let mut g = Group {
                        margin: f64::INFINITY,
                        ..Group::default()
                    };
                    epol_rec(tree, factor, Octree::ROOT, v, &mut g);
                    g
                })
                .collect()
        }

        fn epol_rec(tree: &Octree, factor: f64, u_id: NodeId, v_id: NodeId, g: &mut Group) {
            g.nodes_visited += 1;
            let u = tree.node(u_id);
            let v = tree.node(v_id);
            if u.is_leaf {
                g.near.extend(u.start..u.end);
                g.blocks += 1;
                return;
            }
            let d_sq = u.center.dist_sq(v.center);
            let sep = (u.radius + v.radius) * factor;
            g.margin = g.margin.min((d_sq.sqrt() - sep).abs());
            if d_sq > sep * sep {
                g.far.push(u_id);
                return;
            }
            for c in tree.children(u_id) {
                epol_rec(tree, factor, c, v_id, g);
            }
        }
    }

    /// Hold `plan_stage` over `leaf_ids` to the oracle's groups: per
    /// group the far ids, near slots (the runs expanded, and maximal),
    /// block count, margin bits and source identity, and the summed
    /// `nodes_visited`.
    fn assert_stage_matches_oracle(
        partners: &Octree,
        sources: &Octree,
        leaf_ids: &[NodeId],
        walk: Walk,
        expected: &[oracle::Group],
        what: &str,
    ) -> StageLists {
        let mut counts = WorkCounts::ZERO;
        // Chunked across three threads: the oracle holds the
        // concatenation too.
        let lists = plan_stage(partners, sources, leaf_ids, walk, &mut counts, 3);
        assert_eq!(lists.groups(), expected.len(), "{what}: group count");
        assert_eq!(
            counts.nodes_visited,
            expected.iter().map(|g| g.nodes_visited).sum::<u64>(),
            "{what}: nodes_visited"
        );
        assert_eq!((counts.pair_ops, counts.far_ops), (0, 0));
        for (k, want) in expected.iter().enumerate() {
            let got = lists.group(k);
            let src = sources.node(leaf_ids[k]);
            assert_eq!(got.src, leaf_ids[k], "{what}: group {k} source");
            assert_eq!(got.slots, src.start as usize..src.end as usize);
            assert_eq!(got.far, &want.far[..], "{what}: group {k} far ids");
            assert_eq!(
                Vec::from_iter(got.near_slots().map(|slot| slot as u32)),
                want.near,
                "{what}: group {k} near slots"
            );
            assert_eq!(got.near_len(), want.near.len());
            assert!(
                got.near.iter().all(|run| run.len > 0)
                    && got
                        .near
                        .windows(2)
                        .all(|w| w[0].slots().end != w[1].slots().start),
                "{what}: group {k} runs are not maximal: {:?}",
                got.near
            );
            assert_eq!(
                lists.near_blocks[k], want.blocks,
                "{what}: group {k} blocks"
            );
            assert_eq!(
                lists.margin[k].to_bits(),
                want.margin.to_bits(),
                "{what}: group {k} margin {} vs {}",
                lists.margin[k],
                want.margin
            );
        }
        lists
    }

    /// Every `stride`-th leaf starting at `first`, as (leaf indices,
    /// node ids) — a dirty-set stand-in.
    fn leaf_subset(tree: &Octree, first: usize, stride: usize) -> (Vec<u32>, Vec<NodeId>) {
        let idx: Vec<u32> = (first..tree.leaves().len())
            .step_by(stride)
            .map(|i| i as u32)
            .collect();
        let ids = idx.iter().map(|&i| tree.leaves()[i as usize]).collect();
        (idx, ids)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Hold the blocked Born lists to the per-leaf planner's: every
    /// q-leaf's far and near sets, block count and margin bits, the
    /// per-leaf entry counts, the summed `nodes_visited`, and the window
    /// format itself (distinct ids per block, bucket order, padding).
    fn assert_blocks_match_per_leaf_lists(
        s: &GbSolver,
        eps: f64,
        built: &BornBlocks,
        per_leaf: &StageLists,
        nodes_visited: u64,
        what: &str,
    ) {
        let n_leaves = s.tree_q.leaves().len();
        let all_blocks = Vec::from_iter(0..n_leaves.div_ceil(QLEAF_BLOCK) as u32);
        let mut counts = WorkCounts::ZERO;
        let cold = plan_born_blocks(&s.tree_a, &s.tree_q, &all_blocks, eps, &mut counts, 1);
        assert_eq!(counts.nodes_visited, nodes_visited, "{what}: nodes_visited");
        assert_eq!((counts.pair_ops, counts.far_ops), (0, 0));
        assert_eq!(cold.windows, built.windows, "{what}: rebuilt windows");
        assert_eq!(
            (&cold.start, &cold.far_len),
            (&built.start, &built.far_len),
            "{what}: rebuilt block ranges"
        );
        assert_eq!(built.groups(), n_leaves, "{what}: leaves covered");
        assert_eq!(built.blocks(), all_blocks.len(), "{what}: block count");
        assert_eq!(
            bits(&built.margin),
            bits(&per_leaf.margin),
            "{what}: margins"
        );
        assert_eq!(built.near_blocks, per_leaf.near_blocks, "{what}: blocks");
        let sorted = |ids: &mut dyn Iterator<Item = u32>| {
            let mut v = Vec::from_iter(ids);
            v.sort_unstable();
            v
        };
        for leaf in 0..n_leaves {
            let want = per_leaf.group(leaf);
            // The recursion lists both in ascending order.
            assert_eq!(
                sorted(&mut built.leaf_far(leaf)),
                want.far,
                "{what}: leaf {leaf} far"
            );
            assert_eq!(
                sorted(&mut built.leaf_near(leaf)),
                Vec::from_iter(want.near_slots().map(|slot| slot as u32)),
                "{what}: leaf {leaf} near"
            );
            assert_eq!(built.far_nodes[leaf] as usize, want.far.len());
            assert_eq!(built.near_slots[leaf] as usize, want.near_len());
        }
        for block in 0..built.blocks() {
            let in_block = block_leaves(block, n_leaves).len();
            for windows in [built.far_windows(block), built.near_windows(block)] {
                // Lane by lane: the leaves that meet the id.
                let lanes = windows.iter().flat_map(|w| {
                    let leaves = transpose_bits(w.by_leaf);
                    (0..8).map(move |k| (w.ids[k], leaves[k]))
                });
                let used = Vec::from_iter(lanes.clone().filter(|&(_, leaves)| leaves != 0));
                let key = |&(id, leaves): &(u32, u8)| (8 - leaves.count_ones(), leaves, id);
                assert!(
                    used.windows(2).all(|p| key(&p[0]) < key(&p[1])),
                    "{what}: block {block} is not in bucket order with distinct ids"
                );
                assert!(used
                    .iter()
                    .all(|&(_, leaves)| leaves as u16 >> in_block == 0));
                // Padding: only at the very end, repeating the last id.
                let padding = Vec::from_iter(lanes.skip(used.len()));
                assert!(
                    padding.len() < 8,
                    "{what}: block {block} holds an empty window"
                );
                assert!(padding
                    .iter()
                    .all(|&(id, leaves)| leaves == 0 && id == used[used.len() - 1].0));
            }
        }
    }

    /// Re-plan the blocks holding the `dirty` leaves and splice them
    /// into a copy of `built`: nothing changes, window for window.
    fn assert_block_splice_reproduces_the_cold_blocks(
        s: &GbSolver,
        eps: f64,
        built: &BornBlocks,
        dirty: &[u32],
    ) {
        let mut blocks = Vec::from_iter(dirty.iter().map(|&l| l / QLEAF_BLOCK as u32));
        blocks.dedup();
        // Every third leaf dirties every block; thin the set so clean
        // blocks are copied too.
        blocks.retain(|b| b % 2 == 0);
        let fresh = plan_born_blocks(
            &s.tree_a,
            &s.tree_q,
            &blocks,
            eps,
            &mut WorkCounts::default(),
            1,
        );
        let mut spliced = built.clone();
        spliced.splice(&blocks, &fresh, 0.0);
        assert_eq!(spliced.windows, built.windows);
        assert_eq!(
            (&spliced.start, &spliced.far_len),
            (&built.start, &built.far_len)
        );
        assert_eq!(spliced.near_blocks, built.near_blocks);
        assert_eq!(spliced.near_slots, built.near_slots);
        assert_eq!(spliced.far_nodes, built.far_nodes);
        assert_eq!(bits(&spliced.margin), bits(&built.margin));
    }

    fn assert_planner_matches_oracle(s: &GbSolver, seed: u64, what: &str) {
        for eps in [0.1, 0.5, 0.9] {
            let what = format!("{what} seed {seed} eps {eps}");
            let p = GbParams {
                eps_born: eps,
                eps_epol: eps,
                ..GbParams::default()
            };
            let plan = InteractionPlan::build(s, &p);
            let born_oracle = |ids: &[NodeId]| oracle::born(&s.tree_a, &s.tree_q, eps, ids);
            let epol_oracle = |ids: &[NodeId]| oracle::epol(&s.tree_a, eps, ids);
            type Oracle<'a> = &'a dyn Fn(&[NodeId]) -> Vec<oracle::Group>;
            // The per-leaf planner runs both walks here; in the library
            // it plans the energy stage only, so only that stage has
            // built lists and a splice to hold it to.
            let stages: [(&Octree, Walk, Option<&StageLists>, &str, Oracle<'_>); 2] = [
                (&s.tree_q, Walk::born(eps), None, "born", &born_oracle),
                (
                    &s.tree_a,
                    Walk::epol(eps),
                    Some(&plan.epol),
                    "epol",
                    &epol_oracle,
                ),
            ];
            let mut report = Vec::new();
            for (sources, walk, built, stage, run_oracle) in stages {
                let what = format!("{what} {stage}");
                // Cold build: every source leaf.
                let all = sources.leaves();
                let expected = run_oracle(all);
                let cold =
                    assert_stage_matches_oracle(&s.tree_a, sources, all, walk, &expected, &what);
                report.push(expected.iter().map(|g| g.blocks as u64).sum::<u64>());
                report.push(expected.iter().map(|g| g.far.len() as u64).sum::<u64>());
                let (dirty, ids) = leaf_subset(sources, seed as usize % 3, 3);
                let Some(built) = built else {
                    let visited = expected.iter().map(|g| g.nodes_visited).sum();
                    assert_blocks_match_per_leaf_lists(s, eps, &plan.born, &cold, visited, &what);
                    assert_block_splice_reproduces_the_cold_blocks(s, eps, &plan.born, &dirty);
                    continue;
                };
                assert_eq!(cold.groups(), built.groups());
                for g in 0..cold.groups() {
                    assert_eq!(cold.group(g).near, built.group(g).near);
                    assert_eq!(cold.group(g).far, built.group(g).far);
                }

                // Patch path: a dirty subset plans to the same groups,
                // and splicing them back reproduces the cold lists.
                let fresh = assert_stage_matches_oracle(
                    &s.tree_a,
                    sources,
                    &ids,
                    walk,
                    &run_oracle(&ids),
                    &format!("{what} dirty subset"),
                );
                let mut spliced = built.clone();
                spliced.splice(&dirty, &fresh, 0.0);
                assert_eq!(spliced.near, built.near, "{what}: spliced near");
                assert_eq!(spliced.far, built.far, "{what}: spliced far");
                assert_eq!(spliced.near_off, built.near_off);
                assert_eq!(spliced.far_off, built.far_off);
                assert_eq!(spliced.near_blocks, built.near_blocks);
                assert_eq!(spliced.src, built.src);
                assert_eq!(
                    bits(&spliced.margin),
                    bits(&built.margin),
                    "{what}: spliced margins"
                );
                // One leaf at a time: `nodes_visited` per group.
                for &leaf in &ids {
                    assert_stage_matches_oracle(
                        &s.tree_a,
                        sources,
                        &[leaf],
                        walk,
                        &run_oracle(&[leaf]),
                        &format!("{what} leaf {leaf}"),
                    );
                }
            }
            // `PlanReport` counts logical pairs and leaf blocks — the
            // recursion's decisions — not stored words.
            let st = plan.stats();
            assert_eq!(
                vec![
                    st.born_near_entries,
                    st.born_far_entries,
                    st.epol_near_entries,
                    st.epol_far_entries
                ],
                report,
                "{what}: PlanReport entry counts"
            );
        }
    }

    fn solver_from_atoms(positions: &[Vec3], tree_cfg: &OctreeConfig) -> GbSolver {
        use polar_molecule::{Atom, Element, Molecule};
        let atoms = positions
            .iter()
            .enumerate()
            .map(|(i, &x)| Atom::of_element(Element::C, x, if i % 2 == 0 { 0.3 } else { -0.3 }))
            .collect();
        GbSolver::for_molecule(
            &Molecule::new("t", atoms),
            &SurfaceConfig::coarse(),
            tree_cfg,
        )
    }

    #[test]
    fn stackless_walk_matches_the_recursive_planners() {
        let cfg = OctreeConfig::default();
        let surface = SurfaceConfig::coarse();
        for seed in 0..3u64 {
            let molecules = [
                (
                    "globule",
                    generators::globular("g", 220 + 40 * seed as usize, seed),
                ),
                ("virus shell", generators::virus_shell("v", 320, 6.0, seed)),
                ("elongated", generators::ligand("l", 70, seed)),
                ("one atom", generators::globular("g1", 1, seed)),
                ("two atoms", generators::globular("g2", 2, seed)),
            ];
            for (what, mol) in &molecules {
                let s = GbSolver::for_molecule(mol, &surface, &cfg);
                assert_planner_matches_oracle(&s, seed, what);
            }
            // Coplanar: a jittered sheet in z = 0 (degenerate cells along
            // one axis).
            let sheet: Vec<Vec3> = (0..90)
                .map(|i| {
                    let wob = ((i * 7 + seed as usize * 13) % 11) as f64 * 0.03;
                    Vec3::new(
                        (i % 10) as f64 * 1.6 + wob,
                        (i / 10) as f64 * 1.6 - wob,
                        0.0,
                    )
                })
                .collect();
            assert_planner_matches_oracle(&solver_from_atoms(&sheet, &cfg), seed, "coplanar");
        }
    }

    #[test]
    fn stackless_walk_matches_the_recursive_planners_on_coincident_centers() {
        // `d_sq == 0` on both walks. Energy stage: the cube corners sum
        // to exactly zero, so with one-atom leaves the root's centroid
        // is bitwise the center atom's leaf. Born stage: a q-point pair
        // straddling an atom puts a `T_Q` leaf centroid exactly on a
        // `T_A` node center, and a q-point *on* an atom makes both radii
        // zero as well (`sep == 0`, margin 0).
        let one_per_leaf = OctreeConfig {
            max_leaf_size: 1,
            max_depth: 20,
        };
        let mut atoms = vec![Vec3::ZERO];
        for i in 0..8 {
            let sign = |bit: usize| if i >> bit & 1 == 0 { -2.0 } else { 2.0 };
            atoms.push(Vec3::new(sign(0), sign(1), sign(2)));
        }
        let q = |pos: Vec3, owner: u32| polar_surface::QuadPoint {
            pos,
            normal: Vec3::X,
            weight: 1.0,
            owner,
        };
        let qpoints = vec![
            q(Vec3::ZERO, 0),
            q(Vec3::new(1.0, 0.0, 0.0), 0),
            q(Vec3::new(-1.0, 0.0, 0.0), 0),
        ];
        let n = atoms.len();
        let build = |cfg: &OctreeConfig| {
            GbSolver::from_parts(
                "c".into(),
                atoms.clone(),
                vec![1.5; n],
                vec![0.1; n],
                qpoints.clone(),
                cfg,
            )
        };
        // Is some leaf of `sources` centered exactly on a *different*
        // node of `partners`?
        let coincident = |partners: &Octree, sources: &Octree| {
            sources.leaves().iter().any(|&l| {
                let c = sources.node(l).center;
                let same_node = |id: usize| std::ptr::eq(partners, sources) && id == l as usize;
                (0..partners.node_count())
                    .any(|id| !same_node(id) && partners.node(id as NodeId).center == c)
            })
        };
        for (cfg, what) in [
            (one_per_leaf, "coincident, one point per leaf"),
            (OctreeConfig::default(), "coincident, default leaves"),
        ] {
            let s = build(&cfg);
            assert!(
                coincident(&s.tree_a, &s.tree_q),
                "{what}: born case missing"
            );
            assert_planner_matches_oracle(&s, 0, what);
        }
        let s = build(&one_per_leaf);
        assert!(coincident(&s.tree_a, &s.tree_a), "epol case missing");
        let plan = InteractionPlan::build(&s, &GbParams::default());
        let tightest = plan
            .born
            .margins()
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        assert_eq!(tightest, 0.0, "zero-radius pair at d = 0");
    }

    #[test]
    fn empty_solver_yields_empty_plan() {
        let s = GbSolver::from_parts(
            "empty".into(),
            vec![],
            vec![],
            vec![],
            vec![],
            &OctreeConfig::default(),
        );
        let plan = InteractionPlan::build(&s, &GbParams::default());
        assert_eq!(plan.born.near_entries(), 0);
        assert_eq!(plan.epol.far_entries(), 0);
        let ectx = EpolCtx::new(&s.tree_a, &s.charges, &[], 0.9);
        let mut scratch = WorkCounts::ZERO;
        let e = plan.execute_epol_segment(
            &ectx,
            &[],
            MathMode::Exact,
            KernelMode::Lane,
            300.0,
            0..0,
            &mut scratch,
        );
        assert_eq!(e, 0.0);
    }

    /// Every column of both stages, bit for bit and capacity for
    /// capacity, the plan's work counts and its bytes.
    fn assert_same_plan(a: &InteractionPlan, b: &InteractionPlan, what: &str) {
        let (x, y) = (&a.born, &b.born);
        assert_eq!(bits(&x.margin), bits(&y.margin), "{what}: born margins");
        assert_eq!(
            (&x.near_blocks, &x.near_slots, &x.far_nodes),
            (&y.near_blocks, &y.near_slots, &y.far_nodes),
            "{what}: born per-leaf columns"
        );
        assert_eq!((&x.start, &x.far_len), (&y.start, &y.far_len), "{what}");
        assert!(x.windows == y.windows, "{what}: born windows");
        let born_caps = |l: &BornBlocks| {
            [
                l.margin.capacity(),
                l.near_blocks.capacity(),
                l.near_slots.capacity(),
                l.far_nodes.capacity(),
                l.start.capacity(),
                l.far_len.capacity(),
                l.windows.capacity(),
            ]
        };
        assert_eq!(born_caps(x), born_caps(y), "{what}: born capacities");
        let (x, y) = (&a.epol, &b.epol);
        assert_eq!(bits(&x.margin), bits(&y.margin), "{what}: epol margins");
        assert_eq!(
            (&x.src, &x.src_start, &x.src_end, &x.near_blocks),
            (&y.src, &y.src_start, &y.src_end, &y.near_blocks),
            "{what}: epol per-group columns"
        );
        assert_eq!(
            (&x.near_off, &x.far_off),
            (&y.near_off, &y.far_off),
            "{what}"
        );
        assert!(x.near == y.near && x.far == y.far, "{what}: epol entries");
        let epol_caps = |l: &StageLists| {
            [
                l.src.capacity(),
                l.src_start.capacity(),
                l.src_end.capacity(),
                l.near_blocks.capacity(),
                l.margin.capacity(),
                l.near_off.capacity(),
                l.far_off.capacity(),
                l.near.capacity(),
                l.far.capacity(),
            ]
        };
        assert_eq!(epol_caps(x), epol_caps(y), "{what}: epol capacities");
        assert_eq!(a.plan_work, b.plan_work, "{what}: plan_work");
        assert_eq!(a.memory_bytes(), b.memory_bytes(), "{what}: bytes");
    }

    /// Two inputs that fork on two threads and one under the threshold,
    /// prepared once for all the tests that share them.
    fn fork_cases() -> &'static [(&'static str, GbSolver); 3] {
        static CASES: std::sync::OnceLock<[(&str, GbSolver); 3]> = std::sync::OnceLock::new();
        CASES.get_or_init(|| {
            let coarse = |mol| {
                GbSolver::for_molecule(&mol, &SurfaceConfig::coarse(), &OctreeConfig::default())
            };
            [
                ("globule 2500", solver(2500, 47)),
                (
                    "shell 4000",
                    coarse(generators::virus_shell("c", 4000, 25.0, 47)),
                ),
                ("ligand 60", coarse(generators::ligand("l", 60, 47))),
            ]
        })
    }

    #[test]
    fn plans_are_the_same_bits_for_any_worker_count() {
        let empty = GbSolver::from_parts(
            "empty".into(),
            vec![],
            vec![],
            vec![],
            vec![],
            &OctreeConfig::default(),
        );
        let empty = [("empty", empty)];
        let cases = fork_cases().iter().chain(&empty);
        let p = GbParams::default();
        for (what, s) in cases {
            let serial = InteractionPlan::build_on(s, &p, 1);
            for w in [1, 2, 3, 7] {
                let built = InteractionPlan::build_on(s, &p, w);
                assert_same_plan(&built, &serial, &format!("{what}, {w} threads"));
            }
        }
        // The big inputs fork; the ligand has fewer blocks than 7 threads
        // have chunks, so its chunks are the minimum length.
        let [(_, globule), (_, shell), (_, ligand)] = fork_cases();
        let blocks = |s: &GbSolver| s.tree_q.leaves().len().div_ceil(QLEAF_BLOCK);
        assert!(chunk_len(blocks(globule), 2).is_some());
        assert!(chunk_len(shell.tree_a.leaves().len(), 7).is_some());
        let ligand = blocks(ligand);
        assert!(ligand < 7 * CHUNKS_PER_THREAD, "{ligand} blocks");
        assert_eq!(
            chunk_len(ligand, 7),
            (ligand >= 2 * MIN_CHUNK).then_some(MIN_CHUNK)
        );
        // A build of fewer than two full chunks spawns nothing.
        for n in [MIN_CHUNK, MIN_CHUNK + 1, 2 * MIN_CHUNK - 1] {
            assert_eq!(chunk_len(n, 2), None, "{n} items");
            assert_eq!(chunk_len(n, 7), None, "{n} items");
        }
        assert_eq!(chunk_len(2 * MIN_CHUNK, 2), Some(MIN_CHUNK));
        assert_eq!(chunk_len(0, 7), None);
        assert_eq!(chunk_len(1000, 1), None);
    }

    /// `plan_in_chunks` over items `0..n` that each plan to themselves.
    fn hand_off_items(
        n: usize,
        chunk: usize,
        threads: usize,
        before: impl Fn(&Range<usize>) + Sync,
    ) -> (Vec<usize>, u64) {
        let mut out = Vec::with_capacity(1);
        let visited = plan_in_chunks(
            n,
            chunk,
            threads,
            &mut out,
            || Vec::with_capacity(chunk),
            |buffer: &mut Vec<usize>, items| {
                before(&items);
                buffer.extend(items.clone());
                items.len() as u64
            },
            |out: &mut Vec<usize>, buffer, share| append_projected(out, buffer, share),
        );
        (out, visited)
    }

    #[test]
    fn chunks_finished_out_of_order_are_parked_and_appended_in_order() {
        // Chunk 0 is held until the three after it are planned, so they
        // are parked and the spares run out: their worker waits for chunk
        // 0's hand-off to free one, or makes one if it is the calling
        // thread.
        let planned = AtomicUsize::new(0);
        let (out, visited) = hand_off_items(64, 16, 2, |items| {
            if items.start == 0 {
                let t = std::time::Instant::now();
                while planned.load(Ordering::SeqCst) < 3 {
                    assert!(t.elapsed().as_secs() < 10, "chunks 1..4 never ran");
                    std::thread::yield_now();
                }
            } else {
                planned.fetch_add(1, Ordering::SeqCst);
            }
        });
        assert_eq!(out, Vec::from_iter(0..64));
        assert_eq!(visited, 64);
        // Ragged last chunk, more threads than chunks.
        assert_eq!(hand_off_items(50, 16, 7, |_| ()).0, Vec::from_iter(0..50));
    }

    #[test]
    fn the_calling_thread_never_waits_for_a_paused_worker() {
        // The spawned worker stops in its first chunk until the calling
        // thread has planned five: three more than the two spares hold.
        let caller = std::thread::current().id();
        let (started, ahead) = (AtomicBool::new(false), AtomicUsize::new(0));
        let wait_for = |what: &str, done: &dyn Fn() -> bool| {
            let t = std::time::Instant::now();
            while !done() {
                assert!(t.elapsed().as_secs() < 10, "{what}");
                std::thread::yield_now();
            }
        };
        let (out, _) = hand_off_items(128, 16, 2, |_| {
            if std::thread::current().id() == caller {
                wait_for("the worker never took a chunk", &|| {
                    started.load(Ordering::SeqCst)
                });
                ahead.fetch_add(1, Ordering::SeqCst);
            } else if !started.swap(true, Ordering::SeqCst) {
                wait_for("the calling thread waited on a paused worker", &|| {
                    ahead.load(Ordering::SeqCst) >= 5
                });
            }
        });
        assert_eq!(out, Vec::from_iter(0..128));
    }

    #[test]
    fn a_panicking_chunk_reaches_the_caller_instead_of_hanging() {
        // Chunk 0 panics after the others are parked and waiting for the
        // buffers only its hand-off would free.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let planned = AtomicUsize::new(0);
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                hand_off_items(96, 16, 2, |items| {
                    if items.start > 0 {
                        planned.fetch_add(1, Ordering::SeqCst);
                        return;
                    }
                    while planned.load(Ordering::SeqCst) < 3 {
                        std::thread::yield_now();
                    }
                    panic!("chunk 0 failed");
                })
            }));
            tx.send(outcome.is_err()).expect("receiver waits");
        });
        let panicked = rx
            .recv_timeout(std::time::Duration::from_secs(20))
            .expect("the hand-off hung after a panic");
        assert!(panicked);
    }

    #[test]
    fn a_plan_patched_on_two_threads_is_the_cold_plan() {
        let mut s = solver(2500, 47);
        let p = GbParams::default();
        let mut plan = InteractionPlan::build_on(&s, &p, 2);
        let cfg = ReplanConfig {
            tolerance: 0.0,
            max_dirty_fraction: 1.0,
            ..ReplanConfig::default()
        };
        let moved: Vec<Vec3> = s
            .atom_pos
            .iter()
            .enumerate()
            .map(|(i, &x)| x + Vec3::new(0.01, -0.02, 0.015) * ((i % 5) as f64 / 4.0))
            .collect();
        let frame = s
            .apply_frame(&moved, cfg.slack, cfg.tolerance)
            .expect("a 0.03 A step stays inside the slack");
        let PlanDelta::Patchable(set) = plan.delta(&s, &p, &frame, &cfg) else {
            panic!("a small exact-geometry step must be patchable");
        };
        // Both dirty sets are large enough to fork.
        let blocks = set.dirty_born.iter().map(|&l| l / QLEAF_BLOCK as u32);
        let mut blocks = Vec::from_iter(blocks);
        blocks.dedup();
        assert!(
            chunk_len(blocks.len(), 2).is_some(),
            "{} blocks",
            blocks.len()
        );
        assert!(chunk_len(set.dirty_epol.len(), 2).is_some());
        let before = plan.plan_work;
        plan.patch_on(&s, &p, &set, 2).expect("patch set fits");
        assert!(plan.plan_work.nodes_visited > before.nodes_visited);
        let mut cold = InteractionPlan::build_on(&s, &p, 2);
        // A patch adds its walks to the plan's work, and clean margins
        // age rather than being re-measured; the lists and every other
        // column are the cold plan's.
        cold.plan_work = plan.plan_work;
        plan.born.margin.clone_from(&cold.born.margin);
        plan.epol.margin.clone_from(&cold.epol.margin);
        assert_same_plan(&plan, &cold, "patched on two threads");
    }

    /// Every output of one plan's execute on `threads` threads: Born
    /// partials over the whole range and over a range that cuts blocks,
    /// E_pol and the gradient at Born radii `born`, and each stage's
    /// work, as bits.
    fn execute_bits(
        s: &GbSolver,
        plan: &InteractionPlan,
        p: &GbParams,
        born: &[f64],
        threads: usize,
    ) -> Vec<Vec<u64>> {
        let work = |w: WorkCounts| vec![w.pair_ops, w.far_ops, w.nodes_visited];
        let mut out = Vec::new();
        let (ctx, n_q) = (s.born_ctx(), s.tree_q.leaves().len());
        for range in [0..n_q, 3.min(n_q)..n_q.saturating_sub(5).max(3.min(n_q))] {
            let (mut partials, mut w) = (BornPartials::zeros(&s.tree_a), WorkCounts::ZERO);
            plan.execute_born_segment_on(&ctx, range, p.kernel, &mut partials, &mut w, threads);
            out.extend([bits(&partials.s_node), bits(&partials.s_atom), work(w)]);
        }
        let ectx = EpolCtx::new(&s.tree_a, &s.charges, born, p.eps_epol);
        let born_slot = s.born_by_slot(born);
        let t = tau(p.eps_solvent);
        let n_a = s.tree_a.leaves().len();
        for range in [0..n_a, 1.min(n_a)..n_a.saturating_sub(2).max(1.min(n_a))] {
            let mut w = WorkCounts::ZERO;
            let e = plan.execute_epol_segment_on(
                &ectx, &born_slot, p.math, p.kernel, t, range, &mut w, threads,
            );
            out.extend([vec![e.to_bits()], work(w)]);
        }
        let inv_born = Vec::from_iter(born_slot.iter().map(|r| 1.0 / r));
        let mut g = [(); 3].map(|_| vec![0.0; s.n_atoms()]);
        let [gx, gy, gz] = &mut g;
        let mut w = WorkCounts::ZERO;
        plan.execute_gradient_segment_on(
            &s.tree_a,
            [&born_slot, &inv_born],
            p.math,
            p.kernel,
            t,
            0..n_a,
            0,
            [gx, gy, gz],
            &mut w,
            threads,
        )
        .expect("no coincident atoms");
        out.extend(g.iter().map(|c| bits(c)));
        out.push(work(w));
        out
    }

    fn spawned() -> usize {
        SPAWNED.with(std::cell::Cell::get)
    }

    #[test]
    fn execute_is_the_same_bits_for_any_thread_count() {
        let modes = [
            (KernelMode::Strict, MathMode::Exact),
            (KernelMode::Lane, MathMode::Exact),
            (KernelMode::Lane, MathMode::Approximate),
        ];
        let cases = fork_cases();
        for (what, s) in cases {
            // The lists do not depend on the kernel or math mode.
            let plan = InteractionPlan::build_on(s, &GbParams::default(), 1);
            for (kernel, math) in modes {
                let p = GbParams {
                    kernel,
                    math,
                    ..GbParams::default()
                };
                let born = s.solve_with_plan(&plan, &p).expect("compatible plan").born;
                let serial = execute_bits(s, &plan, &p, &born, 1);
                for threads in [2, 3, 7] {
                    let before = spawned();
                    let forked = execute_bits(s, &plan, &p, &born, threads);
                    let what = format!("{what}, {kernel:?}, {math:?}, {threads} threads");
                    for (k, (a, b)) in forked.iter().zip(&serial).enumerate() {
                        assert!(a == b, "{what}: output {k} differs");
                    }
                    // The ligand is under two full chunks of anything.
                    let forks = spawned() - before;
                    assert_eq!(forks == 0, what.starts_with("ligand"), "{what}: {forks}");
                }
            }
        }
        // Both big inputs fork every stage, Born included.
        let [(_, globule), (_, shell), (_, ligand)] = cases;
        let blocks = |s: &GbSolver| s.tree_q.leaves().len().div_ceil(QLEAF_BLOCK);
        for s in [globule, shell] {
            assert!(chunk_len(blocks(s), 2).is_some());
            assert!(chunk_len(s.tree_a.leaves().len(), 2).is_some());
        }
        assert_eq!(chunk_len(blocks(ligand), 7), None);
        assert_eq!(chunk_len(ligand.tree_a.leaves().len(), 7), None);
    }

    #[test]
    fn a_panicking_execute_thread_reaches_the_caller_instead_of_hanging() {
        // The calling thread holds its first piece until a spawned thread
        // has claimed one, which panics.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let caller = std::thread::current().id();
            let claimed = AtomicBool::new(false);
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                run_pieces(
                    Vec::from_iter(0..16),
                    2,
                    || (),
                    |(), _| {
                        if std::thread::current().id() != caller {
                            claimed.store(true, Ordering::SeqCst);
                            panic!("spawned piece failed");
                        }
                        let t = std::time::Instant::now();
                        while !claimed.load(Ordering::SeqCst) && t.elapsed().as_secs() < 10 {
                            std::thread::yield_now();
                        }
                    },
                )
            }));
            let payload = outcome.err().map(|p| p.downcast_ref::<&str>().copied());
            tx.send(payload).expect("receiver waits");
        });
        let payload = rx
            .recv_timeout(std::time::Duration::from_secs(20))
            .expect("execute hung after a panic");
        assert_eq!(payload, Some(Some("spawned piece failed")));
    }

    #[test]
    fn a_coincident_pair_gives_the_serial_error_on_any_thread_count() {
        // The molecule of `fork_cases`' globule.
        let mol = generators::globular("p", 2500, 47);
        let s0 = &fork_cases()[0].1;
        let n = s0.n_atoms();
        // Stack the first two atoms of the first leaf, of the last, or
        // of both.
        let pair = |slots: [usize; 2]| {
            let mut atoms = slots.map(|slot| s0.tree_a.order()[slot] as usize);
            atoms.sort();
            atoms
        };
        let (first, last) = (pair([0, 1]), pair([n - 2, n - 1]));
        for (what, pairs, chunk) in [
            ("first leaf", vec![first], Some(0)),
            ("last leaf", vec![last], None),
            ("both", vec![first, last], Some(0)),
        ] {
            let mut m = mol.clone();
            for &[a, b] in &pairs {
                m.atoms[b].pos = m.atoms[a].pos;
            }
            let s = GbSolver::for_molecule(&m, &SurfaceConfig::coarse(), &OctreeConfig::default());
            for kernel in [KernelMode::Strict, KernelMode::Lane] {
                let p = GbParams {
                    kernel,
                    ..GbParams::default()
                };
                let plan = InteractionPlan::build_on(&s, &p, 1);
                let born = s.solve_with_plan(&plan, &p).expect("compatible plan").born;
                let born_slot = s.born_by_slot(&born);
                let inv_born = Vec::from_iter(born_slot.iter().map(|r| 1.0 / r));
                let n_a = s.tree_a.leaves().len();
                let gradient = |threads| {
                    let mut g = [(); 3].map(|_| vec![0.0; s.n_atoms()]);
                    let [gx, gy, gz] = &mut g;
                    plan.execute_gradient_segment_on(
                        &s.tree_a,
                        [&born_slot, &inv_born],
                        p.math,
                        kernel,
                        tau(p.eps_solvent),
                        0..n_a,
                        0,
                        [gx, gy, gz],
                        &mut WorkCounts::default(),
                        threads,
                    )
                };
                let serial = gradient(1).expect_err("a stacked pair is an error");
                let GradientError::CoincidentAtoms { i, j, .. } = serial else {
                    panic!("{what}: {serial:?}");
                };
                assert_eq!([i, j], pairs[0], "{what}, {kernel:?}");
                let slot = s.tree_a.order().iter().position(|&o| o as usize == i);
                let slot = slot.expect("every atom has a slot") as u32;
                let leaf = s.tree_a.leaves().iter().position(|&id| {
                    let node = s.tree_a.node(id);
                    (node.start..node.end).contains(&slot)
                });
                let leaf = leaf.expect("every slot is in a leaf");
                for threads in [2, 3, 7] {
                    // The pair sits in the chunk the case names.
                    let len = chunk_len(n_a, threads).expect("the globule forks");
                    let last_chunk = (n_a - 1) / len;
                    assert_eq!(leaf / len, chunk.unwrap_or(last_chunk), "{what}");
                    assert_eq!(gradient(threads), Err(serial.clone()), "{what}, {kernel:?}");
                }
            }
        }
    }

    #[test]
    fn a_solve_inside_a_pool_task_spawns_nothing() {
        let s = solver(2500, 47);
        let p = GbParams::default();
        let plan = s.plan(&p);
        let solve = || {
            let before = spawned();
            let e = s
                .solve_with_plan(&plan, &p)
                .expect("compatible plan")
                .epol_kcal;
            let g = s
                .gradient_with_plan(&plan, &p)
                .expect("no coincident atoms");
            (e.to_bits(), g.grad, spawned() - before)
        };
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let (mut inside, _) = polar_runtime::run_batch(cores.max(2), vec![solve]);
        let (e_in, grad_in, spawned_in) = inside.pop().expect("one task");
        assert_eq!(spawned_in, 0, "a full pool's worker forks nothing");
        let (e_out, grad_out, spawned_out) = solve();
        assert_eq!(spawned_out > 0, cores > 1, "a plain caller forks");
        assert_eq!(e_in, e_out);
        assert!(grad_in == grad_out);
    }
}
