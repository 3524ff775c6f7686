//! Deterministic fault injection for the distributed drivers.
//!
//! A [`FaultSpec`] is a *schedule*, not a probability: it pins every
//! injected fault to a deterministic point — a rank's n-th fault-aware
//! collective, the n-th message on an ordered rank pair, a task index
//! inside a named stage — so a chaos run is exactly reproducible from the
//! spec (and a spec is exactly reproducible from a seed via
//! [`FaultSpec::from_seed`]). Four fault kinds:
//!
//! * **crash** — the rank dies at entry to its `at_collective`-th
//!   fault-aware collective (announced through the universe's shared
//!   dead-flag array; survivors detect it at their next collective);
//! * **drop** — the contribution message from `from` to `to` at the
//!   sender's `at_collective`-th collective is lost `times` times; the sender retransmits with exponential
//!   backoff charged against the [`NetworkModel`](crate::NetworkModel)
//!   clock, and gives up (escalating to a rank abort) past `max_retries`;
//! * **straggler** — the rank stalls `extra_seconds` of simulated time at
//!   one collective (slowest-rank accounting picks it up);
//! * **worker panic** — inside the rank's work-stealing pool, one task of
//!   a named stage panics its first `panics` attempts; the pool isolates
//!   the panic (`catch_unwind`) and retries on another worker.
//!
//! Specs are read and written as JSON by the workspace's one codec
//! (`polar_gb::json`, i.e. `polar_molecule::json`).

use polar_gb::json::{Json, JsonError, JsonWriter};

/// One scheduled rank crash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashFault {
    /// Rank that dies.
    pub rank: usize,
    /// 1-based index of the fault-aware collective at whose entry the
    /// rank dies (counted per rank; SPMD discipline keeps the counter
    /// consistent across ranks).
    pub at_collective: u64,
}

/// One scheduled message loss.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DropFault {
    /// Sending rank.
    pub from: usize,
    /// Receiving rank.
    pub to: usize,
    /// 1-based fault-aware collective (sender's counter) whose
    /// contribution message is lost. Keying drops on the collective —
    /// not a raw per-pair message count — keeps injection deterministic
    /// even when root failover reroutes contributions.
    pub at_collective: u64,
    /// How many transmissions are lost before one gets through.
    pub times: u32,
}

/// One scheduled slowdown.
#[derive(Debug, Clone, PartialEq)]
pub struct StragglerFault {
    /// Rank that stalls.
    pub rank: usize,
    /// 1-based fault-aware collective at whose entry the stall happens.
    pub at_collective: u64,
    /// Simulated seconds added to the rank's communication clock.
    pub extra_seconds: f64,
}

/// One scheduled in-rank task panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerPanicFault {
    /// Rank whose pool is poisoned.
    pub rank: usize,
    /// Stage name the task belongs to (`"born"` or `"epol"`).
    pub stage: String,
    /// Task index within the stage's batch (taken modulo the batch size
    /// at run time, so specs stay valid across problem sizes).
    pub task_index: usize,
    /// Number of attempts that panic before the task succeeds.
    pub panics: u32,
}

/// A complete, deterministic fault schedule for one distributed run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultSpec {
    /// Seed this spec was generated from (0 for hand-written specs); it
    /// is echoed into the `FaultReport` so runs are auditable by seed.
    pub seed: u64,
    /// Retransmission budget per message before the sender gives up and
    /// the rank aborts.
    pub max_retries: u32,
    /// Per-task retry budget for panic-isolated workers.
    pub worker_retry_budget: u32,
    /// Base backoff charged (simulated seconds) for the first
    /// retransmission; attempt `k` waits `base_timeout_s · 2^k`.
    pub base_timeout_s: f64,
    pub crashes: Vec<CrashFault>,
    pub drops: Vec<DropFault>,
    pub stragglers: Vec<StragglerFault>,
    pub worker_panics: Vec<WorkerPanicFault>,
}

/// splitmix64 — a tiny, dependency-free deterministic stream.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl FaultSpec {
    /// A spec with no faults scheduled — the identity chaos run.
    pub fn none() -> FaultSpec {
        FaultSpec {
            max_retries: 5,
            worker_retry_budget: 2,
            base_timeout_s: 1e-4,
            ..FaultSpec::default()
        }
    }

    /// Generate a *survivable* random schedule for a universe of
    /// `n_ranks`: at most `n_ranks − 1` distinct ranks crash, drops stay
    /// within the retry budget, and worker panics stay within the worker
    /// budget. Identical `(seed, n_ranks)` always produce the identical
    /// spec.
    pub fn from_seed(seed: u64, n_ranks: usize) -> FaultSpec {
        assert!(n_ranks >= 1);
        let mut s = seed ^ 0x0ddc_0ffe_e0dd_f00d;
        let mut spec = FaultSpec {
            seed,
            ..FaultSpec::none()
        };
        // Crashes: 0..n_ranks-1 distinct ranks, each at collective 1..=6.
        let n_crashes = (splitmix64(&mut s) as usize) % n_ranks;
        let mut ranks: Vec<usize> = (0..n_ranks).collect();
        for i in (1..ranks.len()).rev() {
            let j = (splitmix64(&mut s) as usize) % (i + 1);
            ranks.swap(i, j);
        }
        for &rank in ranks.iter().take(n_crashes) {
            spec.crashes.push(CrashFault {
                rank,
                at_collective: 1 + splitmix64(&mut s) % 6,
            });
        }
        // Drops: up to 3, each lost ≤ max_retries times (recoverable).
        let n_drops = (splitmix64(&mut s) % 4) as usize;
        for _ in 0..n_drops {
            if n_ranks < 2 {
                break;
            }
            let from = (splitmix64(&mut s) as usize) % n_ranks;
            let mut to = (splitmix64(&mut s) as usize) % n_ranks;
            if to == from {
                to = (to + 1) % n_ranks;
            }
            spec.drops.push(DropFault {
                from,
                to,
                at_collective: 1 + splitmix64(&mut s) % 6,
                times: 1 + (splitmix64(&mut s) % spec.max_retries as u64) as u32,
            });
        }
        // Stragglers: up to 2 stalls of 1–100 ms simulated time.
        let n_strag = (splitmix64(&mut s) % 3) as usize;
        for _ in 0..n_strag {
            spec.stragglers.push(StragglerFault {
                rank: (splitmix64(&mut s) as usize) % n_ranks,
                at_collective: 1 + splitmix64(&mut s) % 6,
                extra_seconds: 1e-3 * (1 + splitmix64(&mut s) % 100) as f64,
            });
        }
        // Worker panics: up to 2, each within the worker retry budget.
        let n_panics = (splitmix64(&mut s) % 3) as usize;
        for _ in 0..n_panics {
            spec.worker_panics.push(WorkerPanicFault {
                rank: (splitmix64(&mut s) as usize) % n_ranks,
                stage: if splitmix64(&mut s).is_multiple_of(2) {
                    "born".into()
                } else {
                    "epol".into()
                },
                task_index: (splitmix64(&mut s) as usize) % 16,
                panics: 1 + (splitmix64(&mut s) % spec.worker_retry_budget.max(1) as u64) as u32,
            });
        }
        spec
    }

    /// Ranks scheduled to crash (sorted, deduplicated).
    pub fn crashing_ranks(&self) -> Vec<usize> {
        let mut r: Vec<usize> = self.crashes.iter().map(|c| c.rank).collect();
        r.sort_unstable();
        r.dedup();
        r
    }

    /// Does at least one rank of a `n_ranks` universe survive the
    /// schedule? (Drops beyond the retry budget also kill their sender,
    /// so they count as crashes here.)
    pub fn survivable(&self, n_ranks: usize) -> bool {
        let mut dead = vec![false; n_ranks];
        for c in &self.crashes {
            if c.rank < n_ranks {
                dead[c.rank] = true;
            }
        }
        for d in &self.drops {
            if d.times > self.max_retries && d.from < n_ranks {
                dead[d.from] = true;
            }
        }
        dead.iter().any(|&d| !d)
    }

    /// Serialize as JSON (stable field order, no whitespace).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("seed").u64(self.seed);
        w.key("max_retries").u64(self.max_retries.into());
        w.key("worker_retry_budget")
            .u64(self.worker_retry_budget.into());
        w.key("base_timeout_s").f64(self.base_timeout_s);
        w.key("crashes").begin_array();
        for c in &self.crashes {
            w.begin_object();
            w.key("rank").u64(c.rank as u64);
            w.key("at_collective").u64(c.at_collective);
            w.end_object();
        }
        w.end_array().key("drops").begin_array();
        for d in &self.drops {
            w.begin_object();
            w.key("from").u64(d.from as u64);
            w.key("to").u64(d.to as u64);
            w.key("at_collective").u64(d.at_collective);
            w.key("times").u64(d.times.into());
            w.end_object();
        }
        w.end_array().key("stragglers").begin_array();
        for t in &self.stragglers {
            w.begin_object();
            w.key("rank").u64(t.rank as u64);
            w.key("at_collective").u64(t.at_collective);
            w.key("extra_seconds").f64(t.extra_seconds);
            w.end_object();
        }
        w.end_array().key("worker_panics").begin_array();
        for p in &self.worker_panics {
            w.begin_object();
            w.key("rank").u64(p.rank as u64);
            w.key("stage").str(&p.stage);
            w.key("task_index").u64(p.task_index as u64);
            w.key("panics").u64(p.panics.into());
            w.end_object();
        }
        w.end_array().end_object();
        w.finish()
    }

    /// Parse a spec from JSON (the format `to_json` emits, whitespace
    /// tolerated). Top-level keys are optional and default to
    /// [`FaultSpec::none`]; every key of a `crashes` / `drops` /
    /// `stragglers` / `worker_panics` item is required. Unknown keys,
    /// integers outside their field's range and negative or non-finite
    /// durations are rejected with the byte offset of the value.
    pub fn parse_json(text: &str) -> Result<FaultSpec, String> {
        Json::parse(text)
            .and_then(|v| Self::from_json(&v))
            .map_err(|e| e.to_string())
    }

    fn from_json(v: &Json) -> Result<FaultSpec, JsonError> {
        let mut spec = FaultSpec::none();
        for (key, val) in v.as_object("fault spec")? {
            match key.as_str() {
                "seed" => spec.seed = val.as_u64(key)?,
                "max_retries" => spec.max_retries = val.as_u32(key)?,
                "worker_retry_budget" => spec.worker_retry_budget = val.as_u32(key)?,
                "base_timeout_s" => spec.base_timeout_s = seconds(val, key)?,
                "crashes" => {
                    for item in val.as_array(key)? {
                        spec.crashes.push(CrashFault {
                            rank: required(item, "rank")?.as_usize("rank")?,
                            at_collective: required(item, "at_collective")?
                                .as_u64("at_collective")?,
                        });
                    }
                }
                "drops" => {
                    for item in val.as_array(key)? {
                        spec.drops.push(DropFault {
                            from: required(item, "from")?.as_usize("from")?,
                            to: required(item, "to")?.as_usize("to")?,
                            at_collective: required(item, "at_collective")?
                                .as_u64("at_collective")?,
                            times: required(item, "times")?.as_u32("times")?,
                        });
                    }
                }
                "stragglers" => {
                    for item in val.as_array(key)? {
                        spec.stragglers.push(StragglerFault {
                            rank: required(item, "rank")?.as_usize("rank")?,
                            at_collective: required(item, "at_collective")?
                                .as_u64("at_collective")?,
                            extra_seconds: seconds(
                                required(item, "extra_seconds")?,
                                "extra_seconds",
                            )?,
                        });
                    }
                }
                "worker_panics" => {
                    for item in val.as_array(key)? {
                        spec.worker_panics.push(WorkerPanicFault {
                            rank: required(item, "rank")?.as_usize("rank")?,
                            stage: required(item, "stage")?.as_str("stage")?.to_string(),
                            task_index: required(item, "task_index")?.as_usize("task_index")?,
                            panics: required(item, "panics")?.as_u32("panics")?,
                        });
                    }
                }
                other => return Err(val.error(format!("unknown fault-spec key {other:?}"))),
            }
        }
        Ok(spec)
    }
}

/// Member `key` of a fault item, which must be an object holding it.
fn required<'a>(item: &'a Json, key: &str) -> Result<&'a Json, JsonError> {
    item.as_object("fault item")?
        .get(key)
        .ok_or_else(|| item.error(format!("missing required key {key:?}")))
}

/// A duration in simulated seconds: finite and non-negative.
fn seconds(v: &Json, what: &str) -> Result<f64, JsonError> {
    let x = v.as_f64(what)?;
    if x >= 0.0 {
        Ok(x)
    } else {
        Err(v.error(format!("{what} must be a non-negative number, got {x}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_seed_is_deterministic_and_survivable() {
        for seed in 0..64u64 {
            for ranks in [1usize, 2, 3, 5, 8] {
                let a = FaultSpec::from_seed(seed, ranks);
                let b = FaultSpec::from_seed(seed, ranks);
                assert_eq!(a, b, "seed {seed} ranks {ranks}");
                assert!(a.survivable(ranks), "seed {seed} ranks {ranks}: {a:?}");
                assert!(a.crashing_ranks().len() < ranks.max(1));
                for d in &a.drops {
                    assert!(d.times <= a.max_retries);
                }
                for w in &a.worker_panics {
                    assert!(w.panics <= a.worker_retry_budget);
                }
            }
        }
        // Different seeds eventually differ.
        assert_ne!(FaultSpec::from_seed(1, 4), FaultSpec::from_seed(2, 4));
    }

    #[test]
    fn json_roundtrip_preserves_spec() {
        for seed in [0u64, 7, 42, 1234] {
            let spec = FaultSpec::from_seed(seed, 6);
            let text = spec.to_json();
            let back = FaultSpec::parse_json(&text).unwrap();
            assert_eq!(spec, back, "{text}");
        }
        // Seeds past 2^53 and stage names that need escaping survive too.
        for seed in [0, (1 << 53) + 1, u64::MAX] {
            let mut spec = FaultSpec::from_seed(seed, 4);
            spec.crashes.push(CrashFault {
                rank: 2,
                at_collective: u64::MAX - 1,
            });
            spec.worker_panics.push(WorkerPanicFault {
                rank: 1,
                stage: "b\"ørn\n".into(),
                task_index: 3,
                panics: 1,
            });
            let text = spec.to_json();
            assert!(text.starts_with(&format!("{{\"seed\":{seed},")), "{text}");
            assert!(text.contains(r#""stage":"b\"ørn\n""#), "{text}");
            assert_eq!(FaultSpec::parse_json(&text).unwrap(), spec, "{text}");
        }
        // Whitespace-tolerant.
        let spec = FaultSpec::parse_json(
            r#"{
                "seed": 3,
                "max_retries": 4,
                "crashes": [ { "rank": 1, "at_collective": 2 } ],
                "stragglers": [ { "rank": 0, "at_collective": 1, "extra_seconds": 0.25 } ]
            }"#,
        )
        .unwrap();
        assert_eq!(spec.seed, 3);
        assert_eq!(
            spec.crashes,
            vec![CrashFault {
                rank: 1,
                at_collective: 2
            }]
        );
        assert_eq!(spec.stragglers[0].extra_seconds, 0.25);
    }

    #[test]
    fn parse_rejects_malformed_specs_with_readable_errors() {
        let e = FaultSpec::parse_json("{\"bogus\":1}").unwrap_err();
        assert!(e.contains("bogus"), "{e}");
        let e = FaultSpec::parse_json("{\"crashes\":[{\"rank\":0}]}").unwrap_err();
        assert!(e.contains("at_collective"), "{e}");
        let e = FaultSpec::parse_json("{\"seed\":-1}").unwrap_err();
        assert!(e.contains("non-negative"), "{e}");
        assert!(FaultSpec::parse_json("not json").is_err());
        let e = FaultSpec::parse_json("{\"seed\":1} trailing").unwrap_err();
        assert!(e.contains("trailing"), "{e}");
        // Out-of-range values are errors at their byte, not truncations.
        for (text, needle) in [
            (
                r#"{"max_retries":4294967296}"#,
                "byte 15: max_retries must be at most",
            ),
            (
                r#"{"worker_retry_budget":1e10}"#,
                "worker_retry_budget must be at most",
            ),
            (
                r#"{"base_timeout_s":-0.5}"#,
                "byte 18: base_timeout_s must be a non-negative",
            ),
            (r#"{"base_timeout_s":1e999}"#, "byte 18: malformed number"),
            (
                r#"{"drops":[{"from":0,"to":1,"at_collective":1,"times":-1}]}"#,
                "times must be a non-negative integer, got -1",
            ),
            (
                r#"{"stragglers":[{"rank":0,"at_collective":1,"extra_seconds":-1}]}"#,
                "extra_seconds must be a non-negative number",
            ),
            (
                r#"{"worker_panics":[{"rank":0,"stage":"born","task_index":0,"panics":1e12}]}"#,
                "panics must be at most 4294967295",
            ),
            (r#"{"seed":1,"seed":2}"#, "byte 10: duplicate key \"seed\""),
        ] {
            let e = FaultSpec::parse_json(text).unwrap_err();
            assert!(e.contains(needle), "{text} -> {e}");
        }
    }

    #[test]
    fn survivability_accounts_for_exhausted_drops() {
        let mut spec = FaultSpec::none();
        spec.max_retries = 2;
        spec.drops.push(DropFault {
            from: 0,
            to: 1,
            at_collective: 1,
            times: 3, // > max_retries: sender 0 will abort
        });
        assert!(spec.survivable(2));
        spec.crashes.push(CrashFault {
            rank: 1,
            at_collective: 1,
        });
        assert!(!spec.survivable(2), "both ranks doomed");
        assert!(spec.survivable(3));
    }
}
