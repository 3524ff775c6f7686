//! Batch rescoring engine: a stream of molecules through one plan cache.
//!
//! The paper's headline workload is docking re-scoring — many E_pol
//! evaluations over recurring geometries (§IV.C). [`crate::plan`] made
//! repeated solves of *one* prepared solver fast; this module makes the
//! unit of work a *queue of jobs*:
//!
//! * each job's geometry is fingerprinted ([`geometry_hash`]) and routed
//!   through a keyed **LRU plan cache** (key = geometry hash + both ε;
//!   capacity in bytes, accounted via `Prepared::memory_bytes`: the plan
//!   and the solver it rides with),
//!   so recurring conformations build their solver + plan once;
//! * solves execute out of **per-worker scratch arenas**
//!   ([`crate::solver::SolveScratch`]) — Born partials, Born radii and
//!   charge-bin histograms are allocated once per worker and recycled,
//!   never per solve;
//! * jobs run in parallel on the `polar_runtime` work-stealing pool via
//!   `run_batch_retry`: a panicking job is retried, and on its final
//!   attempt contained, so sibling jobs always keep their results.
//!
//! The run summary is a [`BatchReport`] whose counters (hits, misses,
//! evictions, bytes, arena reuses, per-job rows) are deterministic
//! functions of the job list — only wall-clock fields vary between runs.
//!
//! # Determinism discipline
//!
//! Cache decisions are made *serially in submission order* before any
//! parallel work starts: the first job to need a (geometry, ε) key is
//! its designated builder; later jobs with the same key are hits that
//! share the builder's plan. The parallel phases then never race on the
//! cache, so identical manifests yield identical hit/miss/eviction
//! counts whatever the steal schedule was.

use crate::plan::{InteractionPlan, PlanDelta, ReplanConfig, ReplanStats};
use crate::report::{BatchJobRow, BatchReport};
use crate::solver::{GbParams, GbResult, GbSolver, SolveScratch};
use crate::stats::WorkCounts;
use polar_molecule::Molecule;
use polar_octree::OctreeConfig;
use polar_surface::SurfaceConfig;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, TryLockError};
use std::time::Instant;

/// One unit of batch work: a molecule plus its solve parameters.
#[derive(Debug, Clone)]
pub struct BatchJob {
    pub molecule: Molecule,
    pub params: GbParams,
    /// Chaos injection: the job's first `panics` attempts deliberately
    /// panic inside the worker. Zero (the default) solves normally;
    /// a value above the engine's retry budget fails the job on every
    /// attempt. Exercises panic isolation deterministically in tests,
    /// the chaos CI suite, and `polar serve` fault drills.
    pub panics: u32,
}

impl BatchJob {
    pub fn new(molecule: Molecule, params: GbParams) -> BatchJob {
        BatchJob {
            molecule,
            params,
            panics: 0,
        }
    }

    /// Chaos variant: panic on the first `panics` attempts.
    pub fn with_panics(molecule: Molecule, params: GbParams, panics: u32) -> BatchJob {
        BatchJob {
            molecule,
            params,
            panics,
        }
    }
}

/// What happened to one job, submission order preserved.
#[derive(Debug, Clone)]
pub enum BatchOutcome {
    /// The job solved; `cache_hit` says whether it reused a plan
    /// verbatim, `replan` is `Some` when a same-topology cached plan was
    /// *patched* for this job's moved coordinates (a hit-with-patch,
    /// counted distinctly from both hits and misses).
    Done {
        result: GbResult,
        cache_hit: bool,
        replan: Option<ReplanStats>,
    },
    /// The job failed (typed solve error or contained panic); siblings
    /// are unaffected.
    Failed { error: String },
}

impl BatchOutcome {
    /// The result, if the job succeeded.
    pub fn result(&self) -> Option<&GbResult> {
        match self {
            BatchOutcome::Done { result, .. } => Some(result),
            BatchOutcome::Failed { .. } => None,
        }
    }

    /// The patch stats, if the job was served by patching a cached plan.
    pub fn replan(&self) -> Option<&ReplanStats> {
        match self {
            BatchOutcome::Done { replan, .. } => replan.as_ref(),
            BatchOutcome::Failed { .. } => None,
        }
    }
}

/// Try to serve `mol` by patching a same-topology cached entry instead
/// of planning cold: verify the topology really is bitwise identical
/// (hashes can lie), pre-check the displacement against the patch limit
/// *before* paying for any clone, then clone the base, move it to the
/// frame and splice the dirty plan segments. `None` means "plan cold" —
/// topology differs, the move is too large, the trees' leaf cells
/// overflowed their slack, or the dirty fraction made patching
/// pointless.
fn try_patch(
    base: &Prepared,
    mol: &Molecule,
    p: &GbParams,
    cfg: &ReplanConfig,
) -> Option<(Prepared, ReplanStats)> {
    if base.solver.n_atoms() != mol.len() {
        return None;
    }
    for (a, (r, c)) in mol
        .atoms
        .iter()
        .zip(base.solver.atom_radii.iter().zip(&base.solver.charges))
    {
        if a.radius.to_bits() != r.to_bits() || a.charge.to_bits() != c.to_bits() {
            return None;
        }
    }
    let new_pos = mol.positions();
    let max_d2 = new_pos
        .iter()
        .zip(&base.solver.atom_pos)
        .map(|(n, o)| n.dist_sq(*o))
        .fold(0.0_f64, f64::max);
    if max_d2.sqrt() > cfg.max_displacement {
        return None;
    }
    let mut solver = base.solver.clone();
    let mut plan = base.plan.clone();
    solver.name = mol.name.clone();
    let frame = match solver.apply_frame(&new_pos, cfg.slack, cfg.tolerance) {
        Ok(f) => f,
        Err(_) => return None,
    };
    match plan.delta(&solver, p, &frame, cfg) {
        PlanDelta::Patchable(set) => {
            let stats = plan.patch(&solver, p, &set).ok()?;
            Some((Prepared { solver, plan }, stats))
        }
        PlanDelta::Reusable | PlanDelta::Rebuild(_) => None,
    }
}

/// FNV-1a over the bit patterns of every atom's position, radius and
/// charge — a cheap, order-sensitive geometry fingerprint. Two molecules
/// hash equal iff they are bitwise the same conformation, which is
/// exactly when a plan built for one is valid for the other.
pub fn geometry_hash(mol: &Molecule) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
    };
    eat(mol.atoms.len() as u64);
    for a in &mol.atoms {
        eat(a.pos.x.to_bits());
        eat(a.pos.y.to_bits());
        eat(a.pos.z.to_bits());
        eat(a.radius.to_bits());
        eat(a.charge.to_bits());
    }
    h
}

/// Cache key: geometry fingerprint + the two ε the plan depends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct PlanKey {
    geom: u64,
    eps_born_bits: u64,
    eps_epol_bits: u64,
}

impl PlanKey {
    fn of(mol: &Molecule, p: &GbParams) -> PlanKey {
        PlanKey {
            geom: geometry_hash(mol),
            eps_born_bits: p.eps_born.to_bits(),
            eps_epol_bits: p.eps_epol.to_bits(),
        }
    }
}

/// FNV-1a over atom count, radii and charges — *positions excluded*.
/// Two frames of the same moving molecule share this hash while their
/// [`geometry_hash`]es differ, which is what lets a cache miss find a
/// same-topology base entry to patch instead of planning cold.
fn topology_hash(radii: &[f64], charges: &[f64]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
    };
    eat(radii.len() as u64);
    for r in radii {
        eat(r.to_bits());
    }
    for c in charges {
        eat(c.to_bits());
    }
    h
}

/// Secondary cache index key: topology fingerprint + both ε.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct TopoKey {
    topo: u64,
    eps_born_bits: u64,
    eps_epol_bits: u64,
}

impl TopoKey {
    fn of_mol(mol: &Molecule, p: &GbParams) -> TopoKey {
        TopoKey {
            topo: topology_hash(&mol.radii(), &mol.charges()),
            eps_born_bits: p.eps_born.to_bits(),
            eps_epol_bits: p.eps_epol.to_bits(),
        }
    }

    fn of_entry(solver: &GbSolver, key: &PlanKey) -> TopoKey {
        TopoKey {
            topo: topology_hash(&solver.atom_radii, &solver.charges),
            eps_born_bits: key.eps_born_bits,
            eps_epol_bits: key.eps_epol_bits,
        }
    }
}

/// A cached unit: the prepared solver and its interaction plan. The
/// solver rides along because executing a plan needs the trees and
/// q-point aggregates it was built from — and rebuilding the solver
/// dominates a fresh solve's cost.
pub struct Prepared {
    pub solver: GbSolver,
    pub plan: InteractionPlan,
}

impl Prepared {
    /// Bytes the unit keeps resident: the plan's lists and the solver
    /// they execute against (atoms, q-points, both octrees, moments) —
    /// about as much again as the plan since the Born lists are stored
    /// per block. What the cache charges for an entry.
    pub fn memory_bytes(&self) -> usize {
        self.plan.memory_bytes() + self.solver.memory_bytes()
    }
}

struct CacheSlot {
    entry: Arc<Prepared>,
    last_used: u64,
    /// Quota-accounting bucket the entry's bytes are charged to.
    tenant: String,
}

/// Byte-capacity LRU over prepared plans, with optional per-tenant
/// byte quotas. Capacity is accounted with
/// [`Prepared::memory_bytes`]; the most recently inserted entry is
/// always retained, so a single oversized plan can still serve its
/// batch before being evicted by the next insertion.
///
/// Quota semantics are graceful degradation, not rejection: a tenant
/// over its quota evicts *its own* least-recently-used plans first, so
/// one tenant hammering the cache with fresh geometry can never flush
/// another tenant's warm entries.
struct PlanCache {
    capacity_bytes: usize,
    /// Per-tenant cap on held plan bytes (`usize::MAX` = unlimited).
    tenant_quota_bytes: usize,
    map: HashMap<PlanKey, CacheSlot>,
    /// Topology → most recently inserted plan key for it: the delta
    /// path's way from "this exact conformation missed" to "but a
    /// same-topology plan exists to patch".
    topo: HashMap<TopoKey, PlanKey>,
    tenant_bytes: HashMap<String, usize>,
    tick: u64,
    bytes_held: usize,
    evictions: u64,
    /// Evictions forced by a tenant quota (subset not counted in
    /// `evictions`, which stays capacity-pressure only).
    quota_evictions: u64,
}

impl PlanCache {
    fn new(capacity_bytes: usize) -> PlanCache {
        Self::with_quota(capacity_bytes, usize::MAX)
    }

    fn with_quota(capacity_bytes: usize, tenant_quota_bytes: usize) -> PlanCache {
        PlanCache {
            capacity_bytes,
            tenant_quota_bytes,
            map: HashMap::new(),
            topo: HashMap::new(),
            tenant_bytes: HashMap::new(),
            tick: 0,
            bytes_held: 0,
            evictions: 0,
            quota_evictions: 0,
        }
    }

    /// Latest same-topology entry, LRU-touched — the candidate base for
    /// a plan patch when the exact-conformation key missed.
    fn topo_base(&mut self, tkey: &TopoKey) -> Option<Arc<Prepared>> {
        let key = *self.topo.get(tkey)?;
        self.get(&key)
    }

    /// Look up and touch (LRU-refresh) an entry.
    fn get(&mut self, key: &PlanKey) -> Option<Arc<Prepared>> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|slot| {
            slot.last_used = tick;
            slot.entry.clone()
        })
    }

    /// Drop one slot, fixing both byte ledgers and the topology index.
    fn drop_slot(&mut self, key: &PlanKey) -> Option<CacheSlot> {
        let slot = self.map.remove(key)?;
        let bytes = slot.entry.memory_bytes();
        self.bytes_held -= bytes;
        if let Some(held) = self.tenant_bytes.get_mut(&slot.tenant) {
            *held = held.saturating_sub(bytes);
            if *held == 0 {
                self.tenant_bytes.remove(&slot.tenant);
            }
        }
        let tkey = TopoKey::of_entry(&slot.entry.solver, key);
        if self.topo.get(&tkey) == Some(key) {
            self.topo.remove(&tkey);
        }
        Some(slot)
    }

    /// Evict a key outright (poisoned-entry path: a job panicked while
    /// holding this plan, so the cached entry is no longer trusted).
    /// Returns whether the key was present. Not counted as a capacity
    /// or quota eviction — callers track poison evictions themselves.
    fn remove(&mut self, key: &PlanKey) -> bool {
        self.drop_slot(key).is_some()
    }

    /// LRU victim among entries matching `pred`, never `keep`.
    fn victim_where(&self, keep: &PlanKey, pred: impl Fn(&CacheSlot) -> bool) -> Option<PlanKey> {
        self.map
            .iter()
            .filter(|(k, slot)| **k != *keep && pred(slot))
            .min_by_key(|(_, slot)| slot.last_used)
            .map(|(k, _)| *k)
    }

    /// Insert an entry charged to `tenant`, then evict: first the
    /// tenant's own LRU plans while it exceeds its quota, then global
    /// LRU plans while held bytes exceed capacity. The entry just
    /// inserted is never the victim.
    fn insert(&mut self, key: PlanKey, entry: Arc<Prepared>, tenant: &str) {
        self.tick += 1;
        let bytes = entry.memory_bytes();
        if self.map.contains_key(&key) {
            self.drop_slot(&key);
        }
        self.topo
            .insert(TopoKey::of_entry(&entry.solver, &key), key);
        self.map.insert(
            key,
            CacheSlot {
                entry,
                last_used: self.tick,
                tenant: tenant.to_string(),
            },
        );
        self.bytes_held += bytes;
        *self.tenant_bytes.entry(tenant.to_string()).or_insert(0) += bytes;
        while self
            .tenant_bytes
            .get(tenant)
            .is_some_and(|held| *held > self.tenant_quota_bytes)
        {
            match self.victim_where(&key, |slot| slot.tenant == tenant) {
                Some(v) => {
                    self.drop_slot(&v);
                    self.quota_evictions += 1;
                }
                None => break,
            }
        }
        while self.bytes_held > self.capacity_bytes && self.map.len() > 1 {
            match self.victim_where(&key, |_| true) {
                Some(v) => {
                    self.drop_slot(&v);
                    self.evictions += 1;
                }
                None => break,
            }
        }
    }
}

/// Pool of per-worker scratch arenas. At most `n_workers` tasks run
/// concurrently, so a task sweeping the slots with `try_lock` always
/// finds a free arena. A panic mid-solve may leave an arena's buffers in
/// a torn state and its mutex poisoned — both are harmless, because
/// every solve clears and resizes all buffers before use, so the pool
/// clears the poison and reuses the arena.
struct ArenaPool {
    slots: Vec<Mutex<SolveScratch>>,
}

impl ArenaPool {
    fn new(n: usize) -> ArenaPool {
        ArenaPool {
            slots: (0..n.max(1))
                .map(|_| Mutex::new(SolveScratch::new()))
                .collect(),
        }
    }

    /// Solve on any free arena (spinning across the slots).
    fn solve(&self, prepared: &Prepared, p: &GbParams) -> Result<GbResult, crate::plan::PlanError> {
        loop {
            for slot in &self.slots {
                let mut guard = match slot.try_lock() {
                    Ok(g) => g,
                    Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
                    Err(TryLockError::WouldBlock) => continue,
                };
                return prepared
                    .solver
                    .solve_with_plan_scratch(&prepared.plan, p, &mut guard);
            }
            std::thread::yield_now();
        }
    }

    fn total_reuses(&self) -> u64 {
        self.slots
            .iter()
            .map(|s| match s.lock() {
                Ok(g) => g.reuses,
                Err(p) => p.into_inner().reuses,
            })
            .sum()
    }

    fn total_bytes(&self) -> u64 {
        self.slots
            .iter()
            .map(|s| match s.lock() {
                Ok(g) => g.memory_bytes() as u64,
                Err(p) => p.into_inner().memory_bytes() as u64,
            })
            .sum()
    }
}

/// How a job gets its plan, decided serially before the parallel phases.
enum Assign {
    /// Entry already in the cache.
    Cached(Arc<Prepared>),
    /// First job with this key in the batch: builds the entry.
    Build(PlanKey),
    /// First job with this key, but a same-topology entry is cached:
    /// the builder wave tries to patch it before building cold.
    Patch(PlanKey, Arc<Prepared>),
    /// Shares the plan built by an earlier job this batch.
    Follow(PlanKey),
}

/// Quota bucket batch jobs are charged to (the batch CLI has no tenant
/// concept; `polar serve` does).
const DEFAULT_TENANT: &str = "default";

/// The batch rescoring engine. Owns the plan cache (warm across calls to
/// [`BatchEngine::run`]) and the prep configuration every job shares.
pub struct BatchEngine {
    surface: SurfaceConfig,
    tree_cfg: OctreeConfig,
    n_workers: usize,
    retry_budget: u32,
    cache: PlanCache,
    replan: ReplanConfig,
    /// Plan keys evicted because the job holding them panicked.
    poison_evictions: u64,
}

impl BatchEngine {
    /// Engine with default surface/octree configs.
    pub fn new(cache_capacity_bytes: usize, n_workers: usize) -> BatchEngine {
        Self::with_configs(
            cache_capacity_bytes,
            n_workers,
            SurfaceConfig::coarse(),
            OctreeConfig::default(),
        )
    }

    /// Engine with explicit prep configs (they are part of what makes a
    /// cached plan valid, so they are fixed per engine, not per job).
    pub fn with_configs(
        cache_capacity_bytes: usize,
        n_workers: usize,
        surface: SurfaceConfig,
        tree_cfg: OctreeConfig,
    ) -> BatchEngine {
        BatchEngine {
            surface,
            tree_cfg,
            n_workers: n_workers.max(1),
            retry_budget: 2,
            cache: PlanCache::new(cache_capacity_bytes),
            replan: ReplanConfig::default(),
            poison_evictions: 0,
        }
    }

    /// Panic-retry budget per job (attempts beyond the first; the final
    /// attempt is always contained so the batch cannot abort).
    pub fn set_retry_budget(&mut self, budget: u32) {
        self.retry_budget = budget;
    }

    /// Tune the delta re-planning path (patch tolerance, refresh slack,
    /// dirty-fraction ceiling).
    pub fn set_replan_config(&mut self, cfg: ReplanConfig) {
        self.replan = cfg;
    }

    /// Plan bytes currently held by the cache.
    pub fn cache_bytes_held(&self) -> usize {
        self.cache.bytes_held
    }

    /// Run a queue of jobs; outcomes come back in submission order.
    pub fn run(&mut self, jobs: &[BatchJob]) -> (Vec<BatchOutcome>, BatchReport) {
        let t0 = Instant::now();
        let arenas = ArenaPool::new(self.n_workers);

        // Phase 1 — serial, deterministic cache routing in submission
        // order: hits and builder designation never depend on the steal
        // schedule of the parallel phases below.
        let mut assigns: Vec<Assign> = Vec::with_capacity(jobs.len());
        let mut builder_of: HashMap<PlanKey, usize> = HashMap::new();
        for (i, job) in jobs.iter().enumerate() {
            let key = PlanKey::of(&job.molecule, &job.params);
            if let Some(entry) = self.cache.get(&key) {
                assigns.push(Assign::Cached(entry));
            } else {
                match builder_of.entry(key) {
                    std::collections::hash_map::Entry::Occupied(_) => {
                        assigns.push(Assign::Follow(key))
                    }
                    std::collections::hash_map::Entry::Vacant(v) => {
                        v.insert(i);
                        // Exact-key miss, but a plan for the same topology
                        // (radii + charges + eps) may be cached from an
                        // earlier frame of the same molecule; the builder
                        // wave will try to patch it before building cold.
                        let tkey = TopoKey::of_mol(&job.molecule, &job.params);
                        match self.cache.topo_base(&tkey) {
                            Some(base) => assigns.push(Assign::Patch(key, base)),
                            None => assigns.push(Assign::Build(key)),
                        }
                    }
                }
            }
        }

        // Phase 2 — wave A: builder jobs prep + solve in parallel, each
        // panic-isolated. A builder returns its Prepared entry for the
        // cache alongside its own result.
        let builders: Vec<usize> = assigns
            .iter()
            .enumerate()
            .filter_map(|(i, a)| matches!(a, Assign::Build(_) | Assign::Patch(_, _)).then_some(i))
            .collect();
        let mut retries = 0u64;
        let mut recovered_jobs = 0u64;
        let mut outcomes: Vec<Option<BatchOutcome>> = (0..jobs.len()).map(|_| None).collect();
        let mut walls: Vec<f64> = vec![0.0; jobs.len()];
        let mut built: HashMap<PlanKey, Arc<Prepared>> = HashMap::new();

        if !builders.is_empty() {
            let tasks: Vec<_> = builders
                .iter()
                .map(|&i| {
                    let job = &jobs[i];
                    let arenas = &arenas;
                    let surface = &self.surface;
                    let tree_cfg = &self.tree_cfg;
                    let budget = self.retry_budget;
                    let replan_cfg = self.replan;
                    let base: Option<Arc<Prepared>> = match &assigns[i] {
                        Assign::Patch(_, b) => Some(b.clone()),
                        _ => None,
                    };
                    move |attempt: u32| {
                        let t = Instant::now();
                        let out = contained(attempt >= budget, || {
                            if attempt < job.panics {
                                panic!("injected chaos panic (attempt {attempt})");
                            }
                            // Patch path first: a same-topology base plan
                            // exists, so try patching it against the new
                            // coordinates. Any tolerance breach falls
                            // through to a cold build.
                            if let Some(base) = &base {
                                if let Some((prepared, stats)) =
                                    try_patch(base, &job.molecule, &job.params, &replan_cfg)
                                {
                                    let prepared = Arc::new(prepared);
                                    let result = arenas
                                        .solve(&prepared, &job.params)
                                        .map_err(|e| e.to_string())?;
                                    return Ok((prepared, result, Some(stats)));
                                }
                            }
                            let solver = GbSolver::for_molecule(&job.molecule, surface, tree_cfg);
                            let plan = solver.plan(&job.params);
                            let prepared = Arc::new(Prepared { solver, plan });
                            let result = arenas
                                .solve(&prepared, &job.params)
                                .map_err(|e| e.to_string())?;
                            Ok((prepared, result, None))
                        });
                        (out, t.elapsed().as_secs_f64())
                    }
                })
                .collect();
            let (results, _steal, retry) =
                polar_runtime::run_batch_retry(self.n_workers, tasks, self.retry_budget)
                    .expect("final attempts are contained; the batch cannot abort");
            retries += retry.retries;
            recovered_jobs += retry.recovered.len() as u64;
            for (&i, (out, wall)) in builders.iter().zip(results) {
                walls[i] = wall;
                match out {
                    Ok((prepared, result, replan)) => {
                        if let Assign::Build(key) | Assign::Patch(key, _) = assigns[i] {
                            built.insert(key, prepared.clone());
                        }
                        outcomes[i] = Some(BatchOutcome::Done {
                            result,
                            cache_hit: false,
                            replan,
                        });
                    }
                    Err(error) => outcomes[i] = Some(BatchOutcome::Failed { error }),
                }
            }
        }

        // Serial interlude: publish built entries into the LRU in job
        // order, so eviction order is deterministic too. Followers whose
        // builder failed fall back to building their own plan in wave B.
        for &i in &builders {
            if let (Assign::Build(key) | Assign::Patch(key, _), Some(BatchOutcome::Done { .. })) =
                (&assigns[i], &outcomes[i])
            {
                self.cache.insert(*key, built[key].clone(), DEFAULT_TENANT);
            }
        }
        let mut cache_hits = 0u64;
        let mut cache_patched = 0u64;
        let mut cache_misses = 0u64;
        for &i in &builders {
            match &outcomes[i] {
                Some(BatchOutcome::Done {
                    replan: Some(_), ..
                }) => cache_patched += 1,
                _ => cache_misses += 1,
            }
        }
        // Keys re-published by a clean follower rebuild (wave B below):
        // these entries postdate any panic on the same key, so the
        // poisoned-entry sweep must not evict them.
        let mut republished: std::collections::HashSet<PlanKey> = std::collections::HashSet::new();

        // Phase 3 — wave B: everyone else, reusing a resolved entry when
        // one exists (a hit) and building fresh when the builder failed.
        let wave_b: Vec<(usize, Option<Arc<Prepared>>)> = assigns
            .iter()
            .enumerate()
            .filter_map(|(i, a)| match a {
                Assign::Build(_) | Assign::Patch(_, _) => None,
                Assign::Cached(entry) => Some((i, Some(entry.clone()))),
                Assign::Follow(key) => Some((i, built.get(key).cloned())),
            })
            .collect();
        for (_, entry) in &wave_b {
            if entry.is_some() {
                cache_hits += 1;
            } else {
                cache_misses += 1;
            }
        }

        if !wave_b.is_empty() {
            let tasks: Vec<_> = wave_b
                .iter()
                .map(|(i, entry)| {
                    let job = &jobs[*i];
                    let arenas = &arenas;
                    let surface = &self.surface;
                    let tree_cfg = &self.tree_cfg;
                    let budget = self.retry_budget;
                    move |attempt: u32| {
                        let t = Instant::now();
                        let out = contained(attempt >= budget, || {
                            if attempt < job.panics {
                                panic!("injected chaos panic (attempt {attempt})");
                            }
                            match entry {
                                Some(prepared) => arenas
                                    .solve(prepared, &job.params)
                                    .map(|result| (None, result))
                                    .map_err(|e| e.to_string()),
                                None => {
                                    // Orphaned follower: its builder
                                    // panicked, so rebuild here and hand
                                    // the fresh entry back for the cache.
                                    let solver =
                                        GbSolver::for_molecule(&job.molecule, surface, tree_cfg);
                                    let plan = solver.plan(&job.params);
                                    let prepared = Arc::new(Prepared { solver, plan });
                                    arenas
                                        .solve(&prepared, &job.params)
                                        .map(|result| (Some(prepared), result))
                                        .map_err(|e| e.to_string())
                                }
                            }
                        });
                        (out, t.elapsed().as_secs_f64())
                    }
                })
                .collect();
            let (results, _steal, retry) =
                polar_runtime::run_batch_retry(self.n_workers, tasks, self.retry_budget)
                    .expect("final attempts are contained; the batch cannot abort");
            retries += retry.retries;
            recovered_jobs += retry.recovered.len() as u64;
            let mut rebuilt: Vec<(usize, Arc<Prepared>)> = Vec::new();
            for ((i, entry), (out, wall)) in wave_b.iter().zip(results) {
                walls[*i] = wall;
                outcomes[*i] = Some(match out {
                    Ok((fresh, result)) => {
                        if let Some(prepared) = fresh {
                            rebuilt.push((*i, prepared));
                        }
                        BatchOutcome::Done {
                            result,
                            cache_hit: entry.is_some(),
                            replan: None,
                        }
                    }
                    Err(error) => BatchOutcome::Failed { error },
                });
            }
            // A builder-wave panic left its plan key unresolved; the
            // first follower that rebuilt it successfully (job order, so
            // deterministic) re-publishes the entry, keeping the key
            // warm for later batches instead of orphaned.
            rebuilt.sort_by_key(|(i, _)| *i);
            for (i, prepared) in rebuilt {
                if let Assign::Follow(key) = assigns[i] {
                    if republished.insert(key) {
                        self.cache.insert(key, prepared, DEFAULT_TENANT);
                    }
                }
            }
        }

        let outcomes: Vec<BatchOutcome> = outcomes
            .into_iter()
            .map(|o| o.expect("every job was assigned to exactly one wave"))
            .collect();

        // Poisoned-entry eviction: a job that panicked on its final
        // attempt may have torn the plan entry it was holding, so the
        // key is no longer trusted — evict it rather than hand it to the
        // next batch. Deterministic: driven by job order and outcomes.
        let mut poisoned: std::collections::HashSet<PlanKey> = std::collections::HashSet::new();
        for (job, out) in jobs.iter().zip(&outcomes) {
            if let BatchOutcome::Failed { error } = out {
                if error.contains("panicked") {
                    let key = PlanKey::of(&job.molecule, &job.params);
                    if republished.contains(&key) {
                        continue; // a clean rebuild postdates the panic
                    }
                    if poisoned.insert(key) && self.cache.remove(&key) {
                        self.poison_evictions += 1;
                    }
                }
            }
        }

        // Report assembly.
        let mut total_work = WorkCounts::ZERO;
        let mut total_epol = 0.0;
        let mut succeeded = 0usize;
        let rows: Vec<BatchJobRow> = jobs
            .iter()
            .zip(&outcomes)
            .enumerate()
            .map(|(i, (job, out))| match out {
                BatchOutcome::Done {
                    result,
                    cache_hit,
                    replan,
                } => {
                    succeeded += 1;
                    total_epol += result.epol_kcal;
                    total_work.accumulate(result.work_born);
                    total_work.accumulate(result.work_epol);
                    BatchJobRow {
                        name: job.molecule.name.clone(),
                        n_atoms: job.molecule.len(),
                        kernel_mode: job.params.kernel.label().to_string(),
                        epol_kcal: result.epol_kcal,
                        cache_hit: *cache_hit,
                        cache_patched: replan.is_some(),
                        pair_ops: result.work_born.pair_ops + result.work_epol.pair_ops,
                        far_ops: result.work_born.far_ops + result.work_epol.far_ops,
                        wall_seconds: walls[i],
                        error: None,
                    }
                }
                BatchOutcome::Failed { error } => BatchJobRow {
                    name: job.molecule.name.clone(),
                    n_atoms: job.molecule.len(),
                    kernel_mode: job.params.kernel.label().to_string(),
                    epol_kcal: f64::NAN,
                    cache_hit: false,
                    cache_patched: false,
                    pair_ops: 0,
                    far_ops: 0,
                    wall_seconds: walls[i],
                    error: Some(error.clone()),
                },
            })
            .collect();
        let report = BatchReport {
            jobs: jobs.len(),
            succeeded,
            failed: jobs.len() - succeeded,
            cache_hits,
            cache_patched,
            cache_misses,
            cache_evictions: self.cache.evictions,
            poison_evictions: self.poison_evictions,
            cache_bytes_held: self.cache.bytes_held as u64,
            cache_capacity_bytes: self.cache.capacity_bytes as u64,
            arenas: self.n_workers,
            arena_reuses: arenas.total_reuses(),
            arena_bytes: arenas.total_bytes(),
            retries,
            recovered_jobs,
            total_epol_kcal: total_epol,
            total_work,
            wall_seconds: t0.elapsed().as_secs_f64(),
            rows,
        };
        (outcomes, report)
    }
}

/// Run `f`, containing panics only when `contain` is set (the job's
/// final retry attempt): earlier attempts let the panic propagate so the
/// work-stealing pool's retry machinery re-enqueues the job, while the
/// last attempt converts a persistent panic into a per-job failure that
/// cannot take sibling jobs down with it.
fn contained<T>(contain: bool, f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    if !contain {
        return f();
    }
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(out) => out,
        Err(payload) => Err(format!("job panicked: {}", panic_message(payload))),
    }
}

/// Human-readable panic payload (the common `&str`/`String` cases).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "job panicked".to_string())
}

// ----------------------------------------------------------------------
// ServeEngine: the same cache + arenas, shared across server threads.
// ----------------------------------------------------------------------

/// Typed failure of one serve-mode rescore. Every variant maps to a
/// wire response — a request can never take the server down or vanish
/// without an answer.
#[derive(Debug, Clone, PartialEq)]
pub enum RescoreError {
    /// The job panicked inside the worker; the plan key it held was
    /// evicted so the poisoned entry cannot serve later requests.
    Panicked { message: String },
    /// A typed solve failure (plan staleness, solver error).
    Solve { message: String },
    /// The cooperative deadline expired at a phase boundary
    /// (`"plan"` before planning, `"execute"` before kernel execution).
    DeadlineExceeded { phase: &'static str },
}

impl std::fmt::Display for RescoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RescoreError::Panicked { message } => write!(f, "job panicked: {message}"),
            RescoreError::Solve { message } => write!(f, "solve failed: {message}"),
            RescoreError::DeadlineExceeded { phase } => {
                write!(f, "deadline exceeded before the {phase} phase")
            }
        }
    }
}

impl std::error::Error for RescoreError {}

/// One successful serve-mode rescore.
#[derive(Debug, Clone)]
pub struct ServeSolve {
    pub result: GbResult,
    /// Whether a cached plan served the request.
    pub cache_hit: bool,
    /// Whether a same-topology cached plan was delta-patched to the
    /// request's coordinates (counted separately from exact hits).
    pub patched: bool,
    /// Per-leaf dirty counts when the request was served by a patch.
    pub replan: Option<ReplanStats>,
    /// Seconds spent building solver + plan (zero on a hit).
    pub plan_seconds: f64,
    /// Seconds spent executing the kernels.
    pub exec_seconds: f64,
}

/// Point-in-time cache counters of a [`ServeEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    pub hits: u64,
    /// Misses resolved by patching a same-topology cached plan.
    pub patched: u64,
    pub misses: u64,
    pub evictions: u64,
    pub quota_evictions: u64,
    pub poison_evictions: u64,
    pub bytes_held: u64,
    pub capacity_bytes: u64,
    /// Tenants currently holding cached bytes.
    pub tenants: u64,
}

/// The persistent rescoring engine behind `polar serve`: one plan cache
/// and one scratch-arena pool shared by every connection and worker
/// thread, warm across the server's whole lifetime.
///
/// Unlike [`BatchEngine`] (one `&mut self` run over a job list), this
/// engine is `&self`-concurrent: the cache sits behind a mutex that is
/// held only for lookups and insertions — never while planning or
/// executing — and the arena pool already hands out per-worker slots.
pub struct ServeEngine {
    surface: SurfaceConfig,
    tree_cfg: OctreeConfig,
    cache: Mutex<PlanCache>,
    arenas: ArenaPool,
    hits: std::sync::atomic::AtomicU64,
    patched: std::sync::atomic::AtomicU64,
    misses: std::sync::atomic::AtomicU64,
    poison_evictions: std::sync::atomic::AtomicU64,
    replan: ReplanConfig,
}

/// Lock a mutex, clearing poison: every critical section here leaves
/// the cache structurally consistent (panics happen outside the lock).
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

impl ServeEngine {
    /// Engine with default prep configs. `tenant_quota_bytes = None`
    /// disables per-tenant quotas.
    pub fn new(
        cache_capacity_bytes: usize,
        tenant_quota_bytes: Option<usize>,
        n_workers: usize,
    ) -> ServeEngine {
        ServeEngine {
            surface: SurfaceConfig::coarse(),
            tree_cfg: OctreeConfig::default(),
            cache: Mutex::new(PlanCache::with_quota(
                cache_capacity_bytes,
                tenant_quota_bytes.unwrap_or(usize::MAX),
            )),
            arenas: ArenaPool::new(n_workers),
            hits: std::sync::atomic::AtomicU64::new(0),
            patched: std::sync::atomic::AtomicU64::new(0),
            misses: std::sync::atomic::AtomicU64::new(0),
            poison_evictions: std::sync::atomic::AtomicU64::new(0),
            replan: ReplanConfig::default(),
        }
    }

    /// Tune the delta re-planning path used when a request misses the
    /// exact plan key but a same-topology plan is cached.
    pub fn set_replan_config(&mut self, cfg: ReplanConfig) {
        self.replan = cfg;
    }

    /// Rescore one job for `tenant`, enforcing `deadline` cooperatively
    /// at the plan and execute phase boundaries.
    ///
    /// Fault envelope: a panic anywhere in planning or execution is
    /// caught here, the job's plan key is evicted (the entry may be
    /// poisoned), and a typed [`RescoreError::Panicked`] comes back —
    /// the worker thread, the arenas and the cache all keep serving.
    pub fn rescore(
        &self,
        tenant: &str,
        job: &BatchJob,
        deadline: Option<Instant>,
    ) -> Result<ServeSolve, RescoreError> {
        use std::sync::atomic::Ordering;
        deadline_gate(deadline, "plan")?;
        let key = PlanKey::of(&job.molecule, &job.params);
        let cached = lock(&self.cache).get(&key);
        let (prepared, cache_hit, patched, replan, plan_seconds) = match cached {
            Some(entry) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                (entry, true, false, None, 0.0)
            }
            None => {
                // Exact-key miss. A plan for the same topology may still
                // be cached from a nearby pose; patching it is much
                // cheaper than a cold build. The lock is held only for
                // the lookup — the patch itself runs outside it.
                let base =
                    lock(&self.cache).topo_base(&TopoKey::of_mol(&job.molecule, &job.params));
                let t = Instant::now();
                let built = catch_unwind(AssertUnwindSafe(|| {
                    if job.panics > 0 {
                        panic!("injected chaos panic (build)");
                    }
                    if let Some(base) = &base {
                        if let Some((prepared, stats)) =
                            try_patch(base, &job.molecule, &job.params, &self.replan)
                        {
                            return (Arc::new(prepared), Some(stats));
                        }
                    }
                    let solver =
                        GbSolver::for_molecule(&job.molecule, &self.surface, &self.tree_cfg);
                    let plan = solver.plan(&job.params);
                    (Arc::new(Prepared { solver, plan }), None)
                }))
                .map_err(|payload| {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    RescoreError::Panicked {
                        message: panic_message(payload),
                    }
                })?;
                let (built, stats) = built;
                if stats.is_some() {
                    self.patched.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                }
                lock(&self.cache).insert(key, built.clone(), tenant);
                (
                    built,
                    false,
                    stats.is_some(),
                    stats,
                    t.elapsed().as_secs_f64(),
                )
            }
        };
        deadline_gate(deadline, "execute")?;
        let t = Instant::now();
        let solved = catch_unwind(AssertUnwindSafe(|| {
            if job.panics > 0 {
                panic!("injected chaos panic (execute)");
            }
            self.arenas.solve(&prepared, &job.params)
        }));
        match solved {
            Err(payload) => {
                if lock(&self.cache).remove(&key) {
                    self.poison_evictions.fetch_add(1, Ordering::Relaxed);
                }
                Err(RescoreError::Panicked {
                    message: panic_message(payload),
                })
            }
            Ok(Err(e)) => Err(RescoreError::Solve {
                message: e.to_string(),
            }),
            Ok(Ok(result)) => Ok(ServeSolve {
                result,
                cache_hit,
                patched,
                replan,
                plan_seconds,
                exec_seconds: t.elapsed().as_secs_f64(),
            }),
        }
    }

    /// Current cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        use std::sync::atomic::Ordering;
        let cache = lock(&self.cache);
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            patched: self.patched.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: cache.evictions,
            quota_evictions: cache.quota_evictions,
            poison_evictions: self.poison_evictions.load(Ordering::Relaxed),
            bytes_held: cache.bytes_held as u64,
            capacity_bytes: cache.capacity_bytes as u64,
            tenants: cache.tenant_bytes.len() as u64,
        }
    }

    /// Total solves served out of recycled arenas.
    pub fn arena_reuses(&self) -> u64 {
        self.arenas.total_reuses()
    }
}

fn deadline_gate(deadline: Option<Instant>, phase: &'static str) -> Result<(), RescoreError> {
    match deadline {
        Some(d) if Instant::now() >= d => Err(RescoreError::DeadlineExceeded { phase }),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::KernelMode;
    use polar_molecule::generators;

    /// What the cache charges for one prepared molecule.
    fn entry_bytes(mol: &Molecule, p: &GbParams) -> usize {
        let solver =
            GbSolver::for_molecule(mol, &SurfaceConfig::coarse(), &OctreeConfig::default());
        let plan = solver.plan(p);
        Prepared { solver, plan }.memory_bytes()
    }

    fn jobs_of(geometries: &[(usize, u64)], repeat: usize) -> Vec<BatchJob> {
        let mut jobs = Vec::new();
        for _ in 0..repeat {
            for &(n, seed) in geometries {
                let mol = generators::globular(format!("g{n}_{seed}"), n, seed);
                jobs.push(BatchJob::new(mol, GbParams::default()));
            }
        }
        jobs
    }

    /// Same manifest, forced onto the scalar strict-fp kernels — the
    /// mode whose contract against the recursive solver is *bitwise*.
    fn jobs_strict(geometries: &[(usize, u64)], repeat: usize) -> Vec<BatchJob> {
        let mut jobs = jobs_of(geometries, repeat);
        for j in &mut jobs {
            j.params.kernel = KernelMode::Strict;
        }
        jobs
    }

    #[test]
    fn geometry_hash_distinguishes_conformations() {
        let a = generators::globular("a", 120, 1);
        let b = generators::globular("b", 120, 2);
        assert_eq!(geometry_hash(&a), geometry_hash(&a.clone()));
        assert_ne!(geometry_hash(&a), geometry_hash(&b));
        // A rigid move is a different conformation for caching purposes.
        let moved = a.transformed(&polar_geom::RigidTransform::translation(
            polar_geom::Vec3::new(1.0, 0.0, 0.0),
        ));
        assert_ne!(geometry_hash(&a), geometry_hash(&moved));
    }

    #[test]
    fn repeated_geometries_hit_the_cache_and_match_fresh_solves() {
        let jobs = jobs_strict(&[(120, 1), (150, 2)], 3); // 6 jobs, 2 geometries
        let mut engine = BatchEngine::new(64 << 20, 2);
        let (outcomes, report) = engine.run(&jobs);
        assert_eq!(report.jobs, 6);
        assert_eq!(report.succeeded, 6);
        assert_eq!(report.cache_misses, 2);
        assert_eq!(report.cache_hits, 4);
        assert!(report.hit_rate() > 0.5);
        assert!(report.arena_reuses >= 6);

        // Cached solves are bitwise (Born) / exact (E_pol replayed from
        // the same plan) identical to a per-molecule fresh solve.
        for (job, out) in jobs.iter().zip(&outcomes) {
            let result = out.result().expect("job succeeded");
            let solver = GbSolver::for_molecule(
                &job.molecule,
                &SurfaceConfig::coarse(),
                &OctreeConfig::default(),
            );
            let fresh = solver.solve(&job.params);
            assert_eq!(result.born, fresh.born, "{}", job.molecule.name);
            let rel = (result.epol_kcal - fresh.epol_kcal).abs() / fresh.epol_kcal.abs();
            assert!(rel <= 1e-12, "{}: {rel}", job.molecule.name);
        }

        // A second batch over the same manifest is all hits.
        let (_, again) = engine.run(&jobs);
        assert_eq!(again.cache_misses, 0);
        assert_eq!(again.cache_hits, 6);
    }

    #[test]
    fn lane_kernel_batches_track_recursive_solves_to_machine_precision() {
        // Default (lane) jobs: E_pol stays within the lane accuracy
        // contract of the recursive reference, and rows say so.
        let jobs = jobs_of(&[(120, 1), (150, 2)], 2);
        let mut engine = BatchEngine::new(64 << 20, 2);
        let (outcomes, report) = engine.run(&jobs);
        assert_eq!(report.succeeded, jobs.len());
        for row in &report.rows {
            assert_eq!(row.kernel_mode, "lane");
        }
        for (job, out) in jobs.iter().zip(&outcomes) {
            let result = out.result().expect("job succeeded");
            let solver = GbSolver::for_molecule(
                &job.molecule,
                &SurfaceConfig::coarse(),
                &OctreeConfig::default(),
            );
            let fresh = solver.solve(&job.params);
            let rel = (result.epol_kcal - fresh.epol_kcal).abs() / fresh.epol_kcal.abs();
            assert!(rel <= 1e-12, "{}: {rel}", job.molecule.name);
        }
    }

    #[test]
    fn lru_evicts_at_byte_capacity() {
        // Capacity fits roughly one plan: alternating geometries force
        // evictions, and the evicted key re-misses on the next batch.
        let probe = entry_bytes(&generators::globular("probe", 130, 5), &GbParams::default());
        let mut engine = BatchEngine::new(probe + probe / 2, 2);
        let jobs = jobs_of(&[(130, 5), (130, 6)], 1);
        let (_, first) = engine.run(&jobs);
        assert_eq!(first.cache_misses, 2);
        assert!(first.cache_evictions >= 1, "{first:?}");
        assert!(first.cache_bytes_held <= (probe + probe / 2) as u64);
        // The surviving entry hits; the evicted one rebuilds.
        let (_, second) = engine.run(&jobs);
        assert_eq!(second.cache_hits + second.cache_misses, 2);
        assert!(second.cache_misses >= 1, "{second:?}");
    }

    #[test]
    fn cache_byte_ledger_matches_resident_plan_bytes() {
        // `bytes_held` is an incremental ledger (updated on every insert
        // and drop); it must always reconcile with the ground truth —
        // the sum of `Prepared::memory_bytes` (plan lists at
        // segment-capacity accounting + the solver) over the entries
        // actually resident — including
        // across LRU evictions under capacity pressure.
        let p = GbParams::default();
        let probe = entry_bytes(&generators::globular("probe", 130, 5), &p);
        let capacity = 2 * probe + probe / 2;
        let mut engine = BatchEngine::new(capacity, 2);
        let reconcile = |engine: &BatchEngine, held: u64| {
            let ground_truth: usize = engine
                .cache
                .map
                .values()
                .map(|slot| slot.entry.memory_bytes())
                .sum();
            assert_eq!(engine.cache.bytes_held, ground_truth);
            assert_eq!(held as usize, ground_truth);
        };
        // Fill to capacity, then keep inserting fresh geometries so the
        // LRU has to evict on every round.
        let mut evictions = 0;
        for seed in 0..5 {
            let (_, report) = engine.run(&jobs_of(&[(130, seed)], 1));
            reconcile(&engine, report.cache_bytes_held);
            assert!(report.cache_bytes_held <= capacity as u64);
            evictions = report.cache_evictions;
        }
        assert!(evictions >= 1, "capacity for ~2 plans never evicted");
        // Re-running a warm seed (hit, no insert) leaves the ledger
        // untouched.
        let before = engine.cache.bytes_held;
        let (_, report) = engine.run(&jobs_of(&[(130, 4)], 1));
        assert_eq!(report.cache_hits, 1);
        assert_eq!(engine.cache.bytes_held, before);
        reconcile(&engine, report.cache_bytes_held);
    }

    #[test]
    fn small_displacement_frames_patch_the_cached_plan() {
        use polar_molecule::trajectory;
        let p = GbParams {
            kernel: KernelMode::Strict,
            ..GbParams::default()
        };
        let frames = trajectory::jitter_frames(&generators::globular("walker", 150, 3), 3, 0.02, 7);
        let mut engine = BatchEngine::new(64 << 20, 2);

        let (_, cold) = engine.run(&[BatchJob::new(frames[0].clone(), p)]);
        assert_eq!(cold.cache_misses, 1);
        assert_eq!(cold.cache_patched, 0);

        // Each later frame misses its exact key but patches the cached
        // same-topology plan from the previous frame.
        for frame in &frames[1..] {
            let (outcomes, warm) = engine.run(&[BatchJob::new(frame.clone(), p)]);
            assert_eq!(warm.cache_patched, 1, "{warm:?}");
            assert_eq!(warm.cache_hits, 0);
            assert_eq!(warm.cache_misses, 0);
            assert_eq!(
                warm.cache_hits + warm.cache_patched + warm.cache_misses,
                warm.jobs as u64,
                "counters must partition the jobs"
            );
            assert!(warm.rows[0].cache_patched && !warm.rows[0].cache_hit);
            let stats = outcomes[0].replan().expect("patched job carries stats");
            assert!(stats.dirty_born <= stats.total_born);
            assert!(stats.dirty_epol <= stats.total_epol);
            let result = outcomes[0].result().expect("patched job succeeded");
            assert!(result.epol_kcal.is_finite() && result.epol_kcal < 0.0);
        }

        // Re-submitting the last frame unchanged is an exact hit, not
        // another patch.
        let last = frames.last().unwrap().clone();
        let (_, again) = engine.run(&[BatchJob::new(last, p)]);
        assert_eq!(again.cache_hits, 1);
        assert_eq!(again.cache_patched, 0);
    }

    #[test]
    fn oversized_displacement_falls_back_to_a_cold_build() {
        use polar_molecule::trajectory;
        let p = GbParams::default();
        let mol = generators::globular("jumper", 140, 4);
        // Far beyond the default 0.5 Å per-frame displacement ceiling.
        let moved = trajectory::jittered(&mol, 5.0, 9);
        let mut engine = BatchEngine::new(64 << 20, 2);
        engine.run(&[BatchJob::new(mol, p)]);
        let (_, report) = engine.run(&[BatchJob::new(moved, p)]);
        assert_eq!(report.cache_patched, 0, "{report:?}");
        assert_eq!(report.cache_misses, 1);
        assert_eq!(report.succeeded, 1);
    }

    #[test]
    fn patched_plan_matches_cold_plan_on_the_same_geometry() {
        // The engine-level accuracy contract: the plan try_patch returns
        // is interchangeable with a cold plan built on the *same*
        // refreshed solver — Born radii bitwise, E_pol to 1e-12.
        use polar_molecule::trajectory;
        let p = GbParams {
            kernel: KernelMode::Strict,
            ..GbParams::default()
        };
        let mol = generators::globular("contract", 160, 5);
        // Two regimes: the drift-tolerant default keeps node geometry
        // frozen (zero dirty segments — pure SoA refresh), while
        // tolerance 0 refreshes geometry exactly so real segments go
        // dirty and the splice path runs. Both must satisfy the
        // contract.
        let exact = ReplanConfig {
            tolerance: 0.0,
            max_dirty_fraction: 1.0,
            ..ReplanConfig::default()
        };
        for (cfg, step, want_dirty) in
            [(ReplanConfig::default(), 0.05, false), (exact, 0.002, true)]
        {
            let solver =
                GbSolver::for_molecule(&mol, &SurfaceConfig::coarse(), &OctreeConfig::default());
            let plan = solver.plan(&p);
            let base = Prepared { solver, plan };
            let moved = trajectory::jittered(&mol, step, 13);
            let (prepared, stats) =
                try_patch(&base, &moved, &p, &cfg).expect("small delta patches");
            if want_dirty {
                assert!(stats.dirty_born > 0 || stats.dirty_epol > 0, "{stats:?}");
            } else {
                assert_eq!((stats.dirty_born, stats.dirty_epol), (0, 0), "{stats:?}");
            }
            let cold_plan = prepared.solver.plan(&p);
            let patched = prepared
                .solver
                .solve_with_plan(&prepared.plan, &p)
                .expect("patched plan is compatible");
            let cold = prepared
                .solver
                .solve_with_plan(&cold_plan, &p)
                .expect("cold plan is compatible");
            assert_eq!(patched.born, cold.born, "Born radii must be bitwise equal");
            let rel = (patched.epol_kcal - cold.epol_kcal).abs() / cold.epol_kcal.abs();
            assert!(rel <= 1e-12, "E_pol drifted: {rel}");
        }
    }

    #[test]
    fn eviction_drops_the_topology_index_with_the_entry() {
        use polar_molecule::trajectory;
        let p = GbParams::default();
        let mol = generators::globular("evictee", 130, 8);
        let probe = entry_bytes(&mol, &p);
        let mut engine = BatchEngine::new(probe + probe / 2, 2);
        engine.run(&[BatchJob::new(mol.clone(), p)]);
        // A different geometry class evicts the walker's plan...
        engine.run(&[BatchJob::new(generators::globular("usurper", 130, 9), p)]);
        // ...so the next frame has no base left to patch from.
        let (_, report) = engine.run(&[BatchJob::new(trajectory::jittered(&mol, 0.02, 3), p)]);
        assert_eq!(report.cache_patched, 0, "{report:?}");
        assert_eq!(report.cache_misses, 1);
    }

    #[test]
    fn serve_engine_patches_same_topology_requests() {
        use polar_molecule::trajectory;
        let p = GbParams::default();
        let mol = generators::globular("served", 140, 6);
        let engine = ServeEngine::new(64 << 20, None, 2);
        let cold = engine
            .rescore("t", &BatchJob::new(mol.clone(), p), None)
            .expect("cold solve");
        assert!(!cold.cache_hit && !cold.patched);
        let warm = engine
            .rescore(
                "t",
                &BatchJob::new(trajectory::jittered(&mol, 0.02, 21), p),
                None,
            )
            .expect("patched solve");
        assert!(warm.patched && !warm.cache_hit, "{warm:?}");
        assert!(warm.replan.is_some());
        let stats = engine.cache_stats();
        assert_eq!(stats.patched, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 0);
    }

    #[test]
    fn panicking_job_fails_alone_and_siblings_survive() {
        let mut jobs = jobs_strict(&[(120, 1), (140, 2), (160, 3)], 1);
        // ε ≤ 0 trips the separation-factor assertion inside the worker:
        // a genuine panic on every attempt.
        let poison = BatchJob::new(
            generators::globular("poison", 100, 9),
            GbParams {
                eps_born: -1.0,
                ..GbParams::default()
            },
        );
        jobs.insert(1, poison);
        let mut engine = BatchEngine::new(64 << 20, 2);
        let (outcomes, report) = engine.run(&jobs);
        assert_eq!(report.jobs, 4);
        assert_eq!(report.failed, 1);
        assert_eq!(report.succeeded, 3);
        match &outcomes[1] {
            BatchOutcome::Failed { error } => {
                assert!(error.contains("panicked"), "{error}");
            }
            other => panic!("poison job should fail, got {other:?}"),
        }
        // Siblings keep correct results.
        for (i, (job, out)) in jobs.iter().zip(&outcomes).enumerate() {
            if i == 1 {
                continue;
            }
            let result = out.result().expect("sibling survived");
            let solver = GbSolver::for_molecule(
                &job.molecule,
                &SurfaceConfig::coarse(),
                &OctreeConfig::default(),
            );
            assert_eq!(result.born, solver.solve(&job.params).born);
        }
        // The poisoned attempts went through the retry layer first.
        assert!(report.retries >= 1, "{report:?}");
        let row = &report.rows[1];
        assert!(row.error.is_some() && row.epol_kcal.is_nan());
    }

    #[test]
    fn builder_panic_leaves_followers_clean_and_the_key_warm() {
        // Regression: two identical-geometry jobs, the first panics past
        // the retry budget. The follower must rebuild cleanly AND the
        // rebuilt entry must be re-published, so the key is warm for the
        // next batch instead of orphaned.
        let mol = generators::globular("dup", 130, 11);
        let p = GbParams {
            kernel: KernelMode::Strict,
            ..GbParams::default()
        };
        let jobs = vec![
            BatchJob::with_panics(mol.clone(), p, 10), // > budget: permanent failure
            BatchJob::new(mol.clone(), p),
        ];
        let mut engine = BatchEngine::new(64 << 20, 2);
        let (outcomes, report) = engine.run(&jobs);
        assert_eq!(report.failed, 1);
        assert_eq!(report.succeeded, 1);
        match &outcomes[0] {
            BatchOutcome::Failed { error } => assert!(error.contains("panicked"), "{error}"),
            other => panic!("chaos builder should fail, got {other:?}"),
        }
        let rebuilt = outcomes[1].result().expect("follower rebuilds cleanly");
        let solver =
            GbSolver::for_molecule(&mol, &SurfaceConfig::coarse(), &OctreeConfig::default());
        assert_eq!(rebuilt.born, solver.solve(&p).born);
        // The clean rebuild is not mistaken for a poisoned entry...
        assert_eq!(report.poison_evictions, 0, "{report:?}");
        // ...so a follow-up batch over the same geometry is a pure hit.
        let (_, second) = engine.run(&[BatchJob::new(mol, p)]);
        assert_eq!(second.cache_hits, 1, "{second:?}");
        assert_eq!(second.cache_misses, 0);
    }

    #[test]
    fn panicking_job_evicts_its_warm_plan_key() {
        let mol = generators::globular("warm", 130, 12);
        let p = GbParams::default();
        let mut engine = BatchEngine::new(64 << 20, 2);
        let (_, warm) = engine.run(&[BatchJob::new(mol.clone(), p)]);
        assert_eq!(warm.cache_misses, 1);
        // A hit-path job that panics on every attempt poisons the entry.
        let (_, chaos) = engine.run(&[BatchJob::with_panics(mol.clone(), p, 10)]);
        assert_eq!(chaos.failed, 1);
        assert_eq!(chaos.poison_evictions, 1, "{chaos:?}");
        // The next batch rebuilds from scratch, cleanly.
        let (outcomes, third) = engine.run(&[BatchJob::new(mol, p)]);
        assert_eq!(third.cache_misses, 1, "evicted key must re-miss");
        assert!(outcomes[0].result().is_some());
    }

    #[test]
    fn serve_engine_hits_warm_keys_and_contains_chaos() {
        let engine = ServeEngine::new(64 << 20, None, 2);
        let p = GbParams::default();
        let mol = generators::globular("srv", 130, 21);
        let job = BatchJob::new(mol.clone(), p);
        let first = engine.rescore("default", &job, None).expect("cold solve");
        assert!(!first.cache_hit);
        let second = engine.rescore("default", &job, None).expect("warm solve");
        assert!(second.cache_hit);
        assert_eq!(second.result.born, first.result.born);
        // An already-expired deadline trips the plan gate before work.
        let err = engine
            .rescore("default", &job, Some(Instant::now()))
            .expect_err("deadline in the past");
        assert_eq!(err, RescoreError::DeadlineExceeded { phase: "plan" });
        // A chaos panic on the warm key evicts it (the entry may be
        // torn) but the engine keeps serving...
        let chaos = BatchJob::with_panics(mol.clone(), p, 1);
        let err = engine.rescore("default", &chaos, None).expect_err("chaos");
        assert!(matches!(err, RescoreError::Panicked { .. }), "{err}");
        let stats = engine.cache_stats();
        assert_eq!(stats.poison_evictions, 1, "{stats:?}");
        // ...and the next request rebuilds the key cleanly.
        let rebuilt = engine.rescore("default", &job, None).expect("rebuild");
        assert!(!rebuilt.cache_hit);
        assert_eq!(rebuilt.result.born, first.result.born);
        assert_eq!(stats.hits, 2, "warm solve + the chaos hit that poisoned it");
        assert_eq!(stats.misses, 1, "only the cold solve built a plan");
    }

    #[test]
    fn tenant_quotas_evict_own_entries_not_neighbors() {
        let probe = entry_bytes(&generators::globular("probe", 130, 5), &GbParams::default());
        // Quota fits roughly one plan per tenant; total capacity is huge
        // so only the quota can force evictions.
        let engine = ServeEngine::new(1 << 30, Some(probe + probe / 2), 2);
        let p = GbParams::default();
        let a1 = BatchJob::new(generators::globular("a1", 130, 5), p);
        let a2 = BatchJob::new(generators::globular("a2", 130, 6), p);
        let b1 = BatchJob::new(generators::globular("b1", 130, 7), p);
        engine.rescore("acme", &a1, None).unwrap();
        engine.rescore("beta", &b1, None).unwrap();
        // Busts acme's quota: acme's own LRU entry (a1) goes.
        engine.rescore("acme", &a2, None).unwrap();
        let stats = engine.cache_stats();
        assert!(stats.quota_evictions >= 1, "{stats:?}");
        assert_eq!(stats.evictions, 0, "capacity never pressed");
        assert!(
            engine.rescore("beta", &b1, None).unwrap().cache_hit,
            "the neighbor tenant's entry must survive acme's quota churn"
        );
        assert!(
            !engine.rescore("acme", &a1, None).unwrap().cache_hit,
            "acme's oldest entry was the quota victim"
        );
    }

    #[test]
    fn serve_engine_is_shareable_across_threads() {
        let engine = std::sync::Arc::new(ServeEngine::new(64 << 20, None, 4));
        let mol = generators::globular("conc", 120, 31);
        let p = GbParams::default();
        let mut handles = Vec::new();
        for _ in 0..4 {
            let e = std::sync::Arc::clone(&engine);
            let job = BatchJob::new(mol.clone(), p);
            handles.push(std::thread::spawn(move || {
                for _ in 0..3 {
                    e.rescore("default", &job, None).expect("concurrent solve");
                }
            }));
        }
        for h in handles {
            h.join().expect("no worker thread may die");
        }
        let stats = engine.cache_stats();
        assert_eq!(stats.hits + stats.misses, 12);
        // At worst every thread misses once before the key is published.
        assert!(stats.hits >= 8, "{stats:?}");
    }

    #[test]
    fn rescore_error_display_names_the_cause() {
        let cases = [
            (
                RescoreError::Panicked {
                    message: "boom".into(),
                },
                "job panicked: boom",
            ),
            (
                RescoreError::Solve {
                    message: "stale plan".into(),
                },
                "solve failed: stale plan",
            ),
            (
                RescoreError::DeadlineExceeded { phase: "execute" },
                "deadline exceeded before the execute phase",
            ),
        ];
        for (err, expected) in cases {
            assert_eq!(err.to_string(), expected);
        }
    }

    #[test]
    fn identical_manifests_produce_byte_identical_reports() {
        let jobs = jobs_of(&[(110, 4), (130, 5)], 2);
        let run = || {
            let mut engine = BatchEngine::new(64 << 20, 3);
            let (_, mut report) = engine.run(&jobs);
            report.zero_wall_times();
            report.to_json()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn report_rows_and_csv_cover_every_job() {
        let jobs = jobs_of(&[(110, 4)], 2);
        let mut engine = BatchEngine::new(64 << 20, 2);
        let (_, report) = engine.run(&jobs);
        assert_eq!(report.rows.len(), 2);
        let json = report.to_json();
        assert!(json.contains("\"schema\":\"batch_report/v1\""));
        assert!(json.contains("\"cache_hit_rate\":0.5"));
        let csv = report.to_csv();
        assert_eq!(csv.lines().count(), 3); // header + 2 rows
        assert!(csv.starts_with("job,name,n_atoms,kernel_mode,"));
        for row in &report.rows {
            assert_eq!(row.kernel_mode, "lane"); // batch default
        }
    }
}
