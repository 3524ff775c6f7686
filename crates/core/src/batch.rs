//! The rescoring engines: a stream of molecules through one plan cache.
//!
//! The paper's headline workload is docking re-scoring — many E_pol
//! evaluations over recurring geometries (§IV.C). [`crate::plan`] made
//! repeated solves of *one* prepared solver fast; this module makes the
//! unit of work a *job* routed through shared state:
//!
//! * each job's geometry is fingerprinted ([`geometry_hash`]) and routed
//!   through a keyed **LRU plan cache** (key = geometry hash + both ε;
//!   capacity in bytes, accounted via `Prepared::memory_bytes`: the plan
//!   and the solver it rides with), so recurring conformations build
//!   their solver + plan once, and a moved pose of a cached topology
//!   patches that entry instead of preparing cold;
//! * solves execute out of **per-worker scratch arenas**
//!   ([`crate::solver::SolveScratch`]) — Born partials, Born radii and
//!   charge-bin histograms are allocated once per worker and recycled,
//!   never per solve.
//!
//! # One core, two drivers
//!
//! [`ServeEngine`] owns the cache, the arenas and the five steps every
//! job is made of — `route` (exact-key lookup, else the latest
//! same-topology base), `prepare` (patch the base or build cold; touches
//! no shared state), `publish` (insert + quota/capacity eviction),
//! `execute` (arena solve) and `poison` (evict a key whose holder
//! panicked). The two drivers only sequence them:
//!
//! * [`ServeEngine::rescore`] — one job at a time from any thread, the
//!   steps in order under `catch_unwind`, with cooperative deadline gates;
//! * [`BatchEngine::run`] — a job list in submission order on the
//!   `polar_runtime` work-stealing pool via `run_batch_retry`: a
//!   panicking job is retried, and on its final attempt contained, so
//!   sibling jobs always keep their results. The run summary is a
//!   [`BatchReport`] whose counters (hits, misses, evictions, bytes,
//!   arena reuses, per-job rows) are deterministic functions of the job
//!   list — only wall-clock fields vary between runs.
//!
//! # Determinism discipline
//!
//! A batch makes its cache decisions *serially in submission order*
//! before any parallel work starts: the first job to need a
//! (geometry, ε) key is its designated builder; later jobs with the same
//! key follow it and share its plan. Entries are published serially in
//! job order between the parallel waves. The waves then never race on
//! the cache, so identical manifests yield identical hit/miss/eviction
//! counts whatever the steal schedule was.

use crate::plan::{ReplanConfig, ReplanStats};
pub use crate::prepared::Prepared;
use crate::report::{BatchJobRow, BatchReport};
use crate::solver::{GbParams, GbResult, GbSolver, SolveScratch};
use crate::stats::WorkCounts;
use polar_molecule::Molecule;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, TryLockError};
use std::time::Instant;

/// One unit of batch work: a molecule plus its solve parameters.
#[derive(Debug, Clone)]
pub struct BatchJob {
    pub molecule: Molecule,
    pub params: GbParams,
    /// Chaos injection: the job's first `panics` attempts deliberately
    /// panic inside the worker. Zero (the default) solves normally;
    /// a value above the batch retry budget fails the job on every
    /// attempt (`rescore` makes one attempt). Exercises panic isolation
    /// deterministically in tests, the chaos CI suite, and `polar serve`
    /// fault drills.
    pub panics: u32,
}

impl BatchJob {
    pub fn new(molecule: Molecule, params: GbParams) -> BatchJob {
        BatchJob::with_panics(molecule, params, 0)
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

/// FNV-1a over the little-endian bytes of `words`.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in words.into_iter().flat_map(u64::to_le_bytes) {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a over the bit patterns of every atom's position, radius and
/// charge — a cheap, order-sensitive geometry fingerprint. Two molecules
/// hash equal iff they are bitwise the same conformation, which is
/// exactly when a plan built for one is valid for the other.
pub fn geometry_hash(mol: &Molecule) -> u64 {
    let atoms = mol
        .atoms
        .iter()
        .flat_map(|a| [a.pos.x, a.pos.y, a.pos.z, a.radius, a.charge].map(f64::to_bits));
    fnv1a(std::iter::once(mol.atoms.len() as u64).chain(atoms))
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
    let values = radii.iter().chain(charges).map(|v| v.to_bits());
    fnv1a(std::iter::once(radii.len() as u64).chain(values))
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
    fn new(capacity_bytes: usize, tenant_quota_bytes: usize) -> PlanCache {
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
        self.slots.iter().map(|s| lock(s).reuses).sum()
    }

    fn total_bytes(&self) -> u64 {
        self.slots
            .iter()
            .map(|s| lock(s).memory_bytes() as u64)
            .sum()
    }
}

/// Quota bucket batch jobs are charged to (the batch CLI has no tenant
/// concept; `polar serve` does).
const DEFAULT_TENANT: &str = "default";

/// Panic retries a batch job gets after its first attempt; the last
/// attempt is contained, so a batch cannot abort.
const RETRY_BUDGET: u32 = 2;

/// Typed failure of one rescore. Every variant maps to a wire response
/// or a failed batch row — a job can never take its engine down or
/// vanish without an answer.
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

/// Run `f`, turning a panic into the job's typed failure.
fn contain<T>(f: impl FnOnce() -> Result<T, RescoreError>) -> Result<T, RescoreError> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        Err(RescoreError::Panicked {
            message: panic_message(payload),
        })
    })
}

/// Human-readable panic payload (the common `&str`/`String` cases).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "job panicked".to_string())
}

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

/// Where `route` found a job's plan.
enum Route {
    /// The exact (geometry, ε) key is cached.
    Hit(Arc<Prepared>),
    /// Not cached; the latest same-topology entry, if any, can serve as
    /// the base of a patch.
    Miss(Option<Arc<Prepared>>),
}

/// The rescoring engine core, and the persistent engine behind
/// `polar serve`: one plan cache and one scratch-arena pool shared by
/// every connection and worker thread, warm across the server's whole
/// lifetime.
///
/// The engine is `&self`-concurrent: the cache sits behind a mutex that
/// is held only for lookups and insertions — never while planning or
/// executing — and the arena pool hands out per-worker slots.
pub struct ServeEngine {
    cache: Mutex<PlanCache>,
    arenas: ArenaPool,
    /// How [`ServeEngine::rescore`] calls were served.
    hits: AtomicU64,
    patched: AtomicU64,
    misses: AtomicU64,
    /// Plan keys evicted because the job holding them panicked.
    poison_evictions: AtomicU64,
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
    /// `tenant_quota_bytes = None` disables per-tenant quotas.
    pub fn new(
        cache_capacity_bytes: usize,
        tenant_quota_bytes: Option<usize>,
        n_workers: usize,
    ) -> ServeEngine {
        ServeEngine {
            cache: Mutex::new(PlanCache::new(
                cache_capacity_bytes,
                tenant_quota_bytes.unwrap_or(usize::MAX),
            )),
            arenas: ArenaPool::new(n_workers),
            hits: AtomicU64::new(0),
            patched: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            poison_evictions: AtomicU64::new(0),
        }
    }

    /// Step 1: look `key` up, LRU-touching what is found. On an exact
    /// miss a plan for the same topology may still be cached from a
    /// nearby pose; patching it is much cheaper than a cold build. The
    /// lock is held for the lookups only.
    fn route(&self, key: &PlanKey, job: &BatchJob) -> Route {
        let cached = lock(&self.cache).get(key);
        match cached {
            Some(entry) => Route::Hit(entry),
            None => Route::Miss(
                lock(&self.cache).topo_base(&TopoKey::of_mol(&job.molecule, &job.params)),
            ),
        }
    }

    /// Step 2: the job's solver + plan — `base` patched to the job's
    /// coordinates when the delta model allows, else prepared cold.
    /// Touches no shared state. Panics iff `attempt < job.panics`.
    fn prepare(
        job: &BatchJob,
        base: Option<&Prepared>,
        attempt: u32,
    ) -> (Arc<Prepared>, Option<ReplanStats>) {
        if attempt < job.panics {
            panic!("injected chaos panic (attempt {attempt})");
        }
        let patched =
            base.and_then(|b| b.patched_to(&job.molecule, &job.params, &ReplanConfig::default()));
        match patched {
            Some((prepared, stats)) => (Arc::new(prepared), Some(stats)),
            None => (Arc::new(Prepared::cold(&job.molecule, &job.params)), None),
        }
    }

    /// Step 3: insert an entry charged to `tenant`, evicting by quota
    /// then capacity.
    fn publish(&self, key: PlanKey, entry: Arc<Prepared>, tenant: &str) {
        lock(&self.cache).insert(key, entry, tenant);
    }

    /// Step 4: solve on a free arena. Panics iff `attempt < job.panics`.
    fn execute(
        &self,
        job: &BatchJob,
        prepared: &Prepared,
        attempt: u32,
    ) -> Result<GbResult, RescoreError> {
        if attempt < job.panics {
            panic!("injected chaos panic (attempt {attempt})");
        }
        self.arenas
            .solve(prepared, &job.params)
            .map_err(|e| RescoreError::Solve {
                message: e.to_string(),
            })
    }

    /// Step 5: a job that panicked may have torn the plan entry it was
    /// holding, so the key is no longer trusted — evict it rather than
    /// hand it to the next job.
    fn poison(&self, key: &PlanKey, err: &RescoreError) {
        if matches!(err, RescoreError::Panicked { .. }) && lock(&self.cache).remove(key) {
            self.poison_evictions.fetch_add(1, Ordering::Relaxed);
        }
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
        deadline_gate(deadline, "plan")?;
        let key = PlanKey::of(&job.molecule, &job.params);
        let (prepared, replan, cache_hit, plan_seconds) = match self.route(&key, job) {
            Route::Hit(entry) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                (entry, None, true, 0.0)
            }
            Route::Miss(base) => {
                let t = Instant::now();
                let built = contain(|| Ok(Self::prepare(job, base.as_deref(), 0)));
                let served_by = match &built {
                    Ok((_, Some(_))) => &self.patched,
                    _ => &self.misses,
                };
                served_by.fetch_add(1, Ordering::Relaxed);
                let (built, replan) = built?;
                self.publish(key, built.clone(), tenant);
                (built, replan, false, t.elapsed().as_secs_f64())
            }
        };
        deadline_gate(deadline, "execute")?;
        let t = Instant::now();
        let result =
            contain(|| self.execute(job, &prepared, 0)).inspect_err(|e| self.poison(&key, e))?;
        Ok(ServeSolve {
            result,
            cache_hit,
            patched: replan.is_some(),
            replan,
            plan_seconds,
            exec_seconds: t.elapsed().as_secs_f64(),
        })
    }

    /// Current cache counters.
    pub fn cache_stats(&self) -> CacheStats {
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

/// Where a batch job's plan comes from, decided serially before the
/// parallel waves.
enum Source {
    /// A cached or already-built entry.
    Have(Arc<Prepared>),
    /// The job prepares its own: the first job of its key this batch
    /// (from a same-topology base when `route` found one), or a follower
    /// whose builder failed.
    Make(Option<Arc<Prepared>>),
}

/// What one batch job's successful attempt hands back: the entry it
/// prepared (if it had to), the solve, and the patch stats (if patched).
type Solved = (Option<Arc<Prepared>>, GbResult, Option<ReplanStats>);

/// The batch driver: an ordered client of a [`ServeEngine`] whose cache
/// stays warm across calls to [`BatchEngine::run`].
pub struct BatchEngine {
    core: ServeEngine,
    n_workers: usize,
}

impl BatchEngine {
    pub fn new(cache_capacity_bytes: usize, n_workers: usize) -> BatchEngine {
        let n_workers = n_workers.max(1);
        BatchEngine {
            core: ServeEngine::new(cache_capacity_bytes, None, n_workers),
            n_workers,
        }
    }

    /// Run a queue of jobs; outcomes come back in submission order.
    pub fn run(&mut self, jobs: &[BatchJob]) -> (Vec<BatchOutcome>, BatchReport) {
        let t0 = Instant::now();
        let core = &self.core;
        let n_workers = self.n_workers;
        let reuses_before = core.arena_reuses();

        // Serial, deterministic cache routing in submission order: hits
        // and builder designation never depend on the steal schedule of
        // the waves below. Wave A is each new key's first job; wave B is
        // every hit, and every follower of a wave-A key.
        let keys = Vec::from_iter(jobs.iter().map(|j| PlanKey::of(&j.molecule, &j.params)));
        let mut wave_a: Vec<(usize, Source)> = Vec::new();
        let mut wave_b: Vec<(usize, Source)> = Vec::new();
        let mut has_builder = std::collections::HashSet::new();
        for (i, (job, key)) in jobs.iter().zip(&keys).enumerate() {
            if has_builder.contains(key) {
                wave_b.push((i, Source::Make(None)));
                continue;
            }
            match core.route(key, job) {
                Route::Hit(entry) => wave_b.push((i, Source::Have(entry))),
                Route::Miss(base) => {
                    has_builder.insert(*key);
                    wave_a.push((i, Source::Make(base)));
                }
            }
        }

        // One attempt of one job. Earlier attempts let a panic reach the
        // pool, which re-enqueues the job; the last is contained, so a
        // persistent panic fails this job and cannot take siblings down.
        let attempt_job = |job: &BatchJob, source: &Source, attempt: u32| {
            let steps = || -> Result<Solved, RescoreError> {
                match source {
                    Source::Have(entry) => {
                        let result = core.execute(job, entry, attempt)?;
                        Ok((None, result, None))
                    }
                    Source::Make(base) => {
                        let (made, replan) = ServeEngine::prepare(job, base.as_deref(), attempt);
                        let result = core.execute(job, &made, attempt)?;
                        Ok((Some(made), result, replan))
                    }
                }
            };
            if attempt >= RETRY_BUDGET {
                contain(steps)
            } else {
                steps()
            }
        };

        // Per job: wall seconds, whether it was handed a cached entry, and
        // its solve + patch stats (or typed failure).
        let mut walls = vec![0.0; jobs.len()];
        let mut solved = Vec::from_iter(jobs.iter().map(|_| None));
        let mut retries = 0u64;
        let mut recovered_jobs = 0u64;
        // Run one wave on the pool, then publish — serially and in job
        // order, so eviction order is deterministic too — the entry each
        // key's first successful maker prepared. Returns what it published.
        let mut run_wave = |wave: &[(usize, Source)]| {
            let mut published: HashMap<PlanKey, Arc<Prepared>> = HashMap::new();
            if wave.is_empty() {
                return published;
            }
            let attempt_job = &attempt_job;
            let tasks = Vec::from_iter(wave.iter().map(|(i, source)| {
                let job = &jobs[*i];
                move |attempt: u32| {
                    let t = Instant::now();
                    let out = attempt_job(job, source, attempt);
                    (out, t.elapsed().as_secs_f64())
                }
            }));
            let (results, _steal, retry) =
                polar_runtime::run_batch_retry(n_workers, tasks, RETRY_BUDGET)
                    .expect("final attempts are contained; the batch cannot abort");
            retries += retry.retries;
            recovered_jobs += retry.recovered.len() as u64;
            for ((i, source), (out, wall)) in wave.iter().zip(results) {
                walls[*i] = wall;
                let out = out.map(|(made, result, replan)| {
                    if let (Some(entry), Entry::Vacant(slot)) = (made, published.entry(keys[*i])) {
                        core.publish(keys[*i], entry.clone(), DEFAULT_TENANT);
                        slot.insert(entry);
                    }
                    (result, replan)
                });
                solved[*i] = Some((matches!(source, Source::Have(_)), out));
            }
            published
        };

        let built = run_wave(&wave_a);
        // Followers share their builder's entry — a hit. One whose
        // builder failed stays `Make`: it prepares its own, and the first
        // in job order re-publishes the key, keeping it warm for later
        // batches instead of orphaned.
        for (i, source) in &mut wave_b {
            if let (Source::Make(_), Some(entry)) = (&source, built.get(&keys[*i])) {
                *source = Source::Have(entry.clone());
            }
        }
        let republished = run_wave(&wave_b);

        // Poison sweep, in job order. An entry re-published by a clean
        // follower postdates any panic on its key and stays.
        for (key, out) in keys.iter().zip(&solved) {
            if let Some((_, Err(err))) = out {
                if !republished.contains_key(key) {
                    core.poison(key, err);
                }
            }
        }

        // Report assembly. The counters partition the jobs: handed a cached
        // entry (a hit, whatever happened next), patched, or a miss.
        let (mut cache_hits, mut cache_patched) = (0u64, 0u64);
        let mut total_work = WorkCounts::ZERO;
        let mut total_epol = 0.0;
        let mut succeeded = 0usize;
        let mut rows = Vec::with_capacity(jobs.len());
        let mut outcomes = Vec::with_capacity(jobs.len());
        for ((job, out), wall_seconds) in jobs.iter().zip(solved).zip(walls) {
            let mut row = BatchJobRow {
                name: job.molecule.name.clone(),
                n_atoms: job.molecule.len(),
                kernel_mode: job.params.kernel.label().to_string(),
                epol_kcal: f64::NAN,
                cache_hit: false,
                cache_patched: false,
                pair_ops: 0,
                far_ops: 0,
                wall_seconds,
                error: None,
            };
            let (cache_hit, out) = out.expect("every job was assigned to exactly one wave");
            cache_hits += cache_hit as u64;
            outcomes.push(match out {
                Ok((result, replan)) => {
                    succeeded += 1;
                    cache_patched += replan.is_some() as u64;
                    total_epol += result.epol_kcal;
                    total_work.accumulate(result.work_born);
                    total_work.accumulate(result.work_epol);
                    row.epol_kcal = result.epol_kcal;
                    row.cache_hit = cache_hit;
                    row.cache_patched = replan.is_some();
                    row.pair_ops = result.work_born.pair_ops + result.work_epol.pair_ops;
                    row.far_ops = result.work_born.far_ops + result.work_epol.far_ops;
                    BatchOutcome::Done {
                        result,
                        cache_hit,
                        replan,
                    }
                }
                Err(err) => {
                    let error = err.to_string();
                    row.error = Some(error.clone());
                    BatchOutcome::Failed { error }
                }
            });
            rows.push(row);
        }
        let cache = core.cache_stats();
        let report = BatchReport {
            jobs: jobs.len(),
            succeeded,
            failed: jobs.len() - succeeded,
            cache_hits,
            cache_patched,
            cache_misses: jobs.len() as u64 - cache_hits - cache_patched,
            cache_evictions: cache.evictions,
            poison_evictions: cache.poison_evictions,
            cache_bytes_held: cache.bytes_held,
            cache_capacity_bytes: cache.capacity_bytes,
            arenas: n_workers,
            arena_reuses: core.arena_reuses() - reuses_before,
            arena_bytes: core.arenas.total_bytes(),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::KernelMode;
    use polar_molecule::generators;
    use polar_octree::OctreeConfig;
    use polar_surface::SurfaceConfig;

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
            let cache = lock(&engine.core.cache);
            let ground_truth: usize = cache
                .map
                .values()
                .map(|slot| slot.entry.memory_bytes())
                .sum();
            assert_eq!(cache.bytes_held, ground_truth);
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
        let before = lock(&engine.core.cache).bytes_held;
        let (_, report) = engine.run(&jobs_of(&[(130, 4)], 1));
        assert_eq!(report.cache_hits, 1);
        assert_eq!(lock(&engine.core.cache).bytes_held, before);
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
        // The engine-level accuracy contract: the plan `patched_to` returns
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
            let (prepared, stats) = base
                .patched_to(&moved, &p, &cfg)
                .expect("small delta patches");
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
        let run = |jobs: &[BatchJob], capacity: usize, workers: usize| {
            let mut engine = BatchEngine::new(capacity, workers);
            let (_, mut report) = engine.run(jobs);
            report.zero_wall_times();
            report.arenas = 0; // the worker count itself
            report.to_json()
        };
        assert_eq!(run(&jobs, 64 << 20, 3), run(&jobs, 64 << 20, 3));
        // Under pressure too, and whatever the worker count: a cache that
        // holds ~2.5 entries evicts while the mixed sequence runs.
        let (mixed, capacity) = mixed_sequence();
        let serial = run(&mixed, capacity, 1);
        assert!(!serial.contains("\"cache_evictions\":0,"), "{serial}");
        assert_eq!(serial, run(&mixed, capacity, 3));
    }

    /// A seeded 40-job sequence over three topologies — repeats, 0.02 Å
    /// jittered poses of a cached topology, fresh geometries, a 5 Å jump,
    /// a chaos repeat past the retry budget and a fresh chaos geometry
    /// within it — and a cache capacity of about 2.5 entries, so
    /// evictions happen along the way.
    fn mixed_sequence() -> (Vec<BatchJob>, usize) {
        use polar_molecule::trajectory;
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let p = GbParams {
            kernel: KernelMode::Strict,
            ..GbParams::default()
        };
        let mut poses: Vec<Molecule> = (0..3)
            .map(|t| generators::globular(format!("topo{t}"), 120, 40 + t))
            .collect();
        let capacity = 5 * entry_bytes(&poses[0], &p) / 2;
        let mut rng = StdRng::seed_from_u64(0x5eed_0024);
        let mut jobs: Vec<BatchJob> = Vec::new();
        for k in 0..40u64 {
            let t = rng.random_range(0..poses.len());
            let draw = rng.random_range(0..10);
            let pose = &mut poses[t];
            match (k, draw) {
                (13, _) => *pose = trajectory::jittered(pose, 5.0, k),
                (_, 0..=3) => {} // repeat the topology's current pose
                (29, _) | (_, 8..) => {
                    *pose = generators::globular(format!("topo{t}"), 120, 100 + k)
                }
                _ => *pose = trajectory::jittered(pose, 0.02, k),
            }
            jobs.push(match k {
                // The job just before is cached, so this one panics on the
                // hit path and poisons the entry.
                21 => BatchJob::with_panics(jobs[20].molecule.clone(), p, RETRY_BUDGET + 1),
                29 => BatchJob::with_panics(pose.clone(), p, 1),
                _ => BatchJob::new(pose.clone(), p),
            });
        }
        (jobs, capacity)
    }

    #[test]
    fn batch_and_serve_drivers_agree_job_for_job() {
        // The same sequence through `BatchEngine::run` — one job per run,
        // so both drivers see the cache in the same state before every
        // job (a longer run routes all its jobs before it publishes any)
        // — and through `ServeEngine::rescore` on a fresh engine of the
        // same capacity. The five steps are shared, so provenance, bits
        // and the cache ledger must match.
        let (jobs, capacity) = mixed_sequence();
        let mut batch = BatchEngine::new(capacity, 1);
        let serve = ServeEngine::new(capacity, None, 1);
        let mut kinds = std::collections::BTreeMap::new();
        let mut recovered = 0;
        for (k, job) in jobs.iter().enumerate() {
            let (outcomes, report) = batch.run(std::slice::from_ref(job));
            let served = match serve.rescore(DEFAULT_TENANT, job, None) {
                // Within its retry budget the batch re-ran the job; a
                // serve client resubmits.
                Err(RescoreError::Panicked { .. }) if job.panics <= RETRY_BUDGET => {
                    recovered += report.recovered_jobs;
                    let clean = BatchJob::new(job.molecule.clone(), job.params);
                    serve.rescore(DEFAULT_TENANT, &clean, None)
                }
                other => other,
            };
            let kind = match (&outcomes[0], &served) {
                (
                    BatchOutcome::Done {
                        result,
                        cache_hit,
                        replan,
                    },
                    Ok(solve),
                ) => {
                    assert_eq!(*cache_hit, solve.cache_hit, "job {k}");
                    assert_eq!(*replan, solve.replan, "job {k}");
                    assert_eq!(result.born, solve.result.born, "job {k}");
                    assert_eq!(
                        result.epol_kcal.to_bits(),
                        solve.result.epol_kcal.to_bits(),
                        "job {k}"
                    );
                    match (cache_hit, replan) {
                        (true, _) => "hit",
                        (false, Some(_)) => "patched",
                        (false, None) => "built",
                    }
                }
                (BatchOutcome::Failed { error }, Err(err)) => {
                    assert!(matches!(err, RescoreError::Panicked { .. }), "job {k}");
                    // The same error up to the attempt number it names.
                    assert!(
                        error.starts_with("job panicked: injected"),
                        "job {k}: {error}"
                    );
                    "failed"
                }
                (batch, serve) => panic!("job {k}: batch {batch:?} vs serve {serve:?}"),
            };
            *kinds.entry(kind).or_insert(0usize) += 1;
            let cache = serve.cache_stats();
            assert_eq!(report.cache_evictions, cache.evictions, "job {k}");
            assert_eq!(report.poison_evictions, cache.poison_evictions, "job {k}");
            assert_eq!(report.cache_bytes_held, cache.bytes_held, "job {k}");
        }
        for kind in ["hit", "patched", "built", "failed"] {
            assert!(kinds.contains_key(kind), "no {kind} job in {kinds:?}");
        }
        assert_eq!(recovered, 1);
        let cache = serve.cache_stats();
        assert!(
            cache.evictions > 0 && cache.poison_evictions > 0,
            "{cache:?}"
        );
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
