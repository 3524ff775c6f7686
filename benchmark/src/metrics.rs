//! The benchmark's schema in one place: workloads, end-to-end metrics
//! with their regression bounds, per-layer metrics, and the span → metric
//! table. `BENCHMARK.json` is generated from these tables
//! (`--emit-manifest`), so the file and the binary cannot drift.

use std::fmt::Write as _;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "cold_solve",
        why: "Cold solve through the plan engine (a ServeEngine miss, `energy --reuse-plan`, a trajectory's first frame) on 2.5k/6k/4k atoms: plan build is ~2/3 of a pass, execute kernels barely show",
    },
    Workload {
        name: "warm_rescore",
        why: "ZDock-style repeated rescoring, 100% cache hits: Born+E_pol execute is nearly all of an op and plan build is zero, so kernel work shows and build work must not",
    },
    Workload {
        name: "rescore_pressure",
        why: "Same engine at the 256 MiB default with a skewed 8-receptor set that does not fit: inserts and LRU evictions beside hits, so plan size moves the hit share",
    },
    Workload {
        name: "trajectory",
        why: "MD-relaxation frames on the delta path: patch, per-frame Born recompute and the gradient kernel dominate and every 6th frame rebuilds, which sets the p95",
    },
    Workload {
        name: "serve_mix",
        why: "Closed loop of 2 TCP clients on small receptors (60% repeat, 25% jittered pose, 15% fresh): parse, queue, cache routing and the wire outweigh compute",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// `BENCHMARK.json`'s bound: the share of the parent's median by
    /// which a change may worsen the metric, on any workload, measured
    /// over runs with different seeds.
    pub bound: f64,
    /// `--compare`'s limit: the relative difference two runs of one
    /// commit and one seed may show (0: they must be identical).
    pub repeat: f64,
}

/// (metric, workload) pairs `--compare` reports but does not hold to
/// the metric's `repeat` limit: the peak RSS of the workloads that keep
/// replacing plans depends on how many ops the time budget allowed and
/// differs by 5–9 % between two runs of one seed.
pub const REPEAT_UNHELD: &[(&str, &str)] = &[
    ("peak_rss_mb", "rescore_pressure"),
    ("peak_rss_mb", "trajectory"),
    ("peak_rss_mb", "serve_mix"),
];

/// Reported by every workload's untraced run. `fail_share` is not here:
/// the result line carries `attempted`/`failed` itself, and a metric
/// that is always 0 is not allowed. `cache_hit_share` is 0 by definition
/// on workloads without a cache, so it is the per-layer
/// `batch.hit_share`.
///
/// `bound` is three times the widest spread (IQR ÷ median) the metric
/// showed on any workload in two sweeps of ten seeds on the 2-core
/// development host, rounded up to a multiple of 0.05 (of 0.01 below
/// that) and capped at the 0.25 a bound may be. The file takes one bound
/// per metric for all five workloads, and between the two sweeps — the
/// same code, fifteen minutes apart — `trajectory`'s medians moved by
/// 8 %, so the 10 % / 5 % / 1 % the issue asked for cannot hold here;
/// `repeat` keeps them for `--compare`. README.md has the table.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        repeat: 0.1,
    },
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
        repeat: 0.1,
    },
    EndToEnd {
        name: "op_p95_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
        repeat: 0.1,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.2,
        repeat: 0.1,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.25,
        repeat: 0.05,
    },
    EndToEnd {
        name: "plan_bytes_per_atom",
        unit: "B/atom",
        better: "lower",
        bound: 0.03,
        repeat: 0.0,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn pl(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Reported by every workload's traced run; a layer a workload does not
/// exercise reads 0. Times are medians over ops of the layer's span
/// self time within the op; counts are exact (see README for windows).
pub const PER_LAYER: &[PerLayer] = &[
    pl("molecule.parse_pqr_ms", "ms", "lower"),
    pl("molecule.parse_request_us", "us", "lower"),
    pl("molecule.bytes_in", "B", "lower"),
    pl("surface.sample_ms", "ms", "lower"),
    pl("surface.qpoints", "count", "lower"),
    pl("surface.qpoints_per_s", "1/s", "higher"),
    pl("octree.build_ms", "ms", "lower"),
    pl("octree.nodes", "count", "lower"),
    pl("octree.refresh_ms", "ms", "lower"),
    pl("plan.build_ms", "ms", "lower"),
    pl("plan.first_touch_build_ms", "ms", "lower"),
    pl("plan.build_entries_per_s", "1/s", "higher"),
    pl("plan.drop_ms", "ms", "lower"),
    pl("plan.bytes", "B", "lower"),
    pl("plan.bytes_per_atom", "B/atom", "lower"),
    pl("plan.born_near_entries", "count", "lower"),
    pl("plan.born_far_entries", "count", "lower"),
    pl("plan.epol_near_entries", "count", "lower"),
    pl("plan.epol_far_entries", "count", "lower"),
    pl("plan.delta_ms", "ms", "lower"),
    pl("plan.patch_ms", "ms", "lower"),
    pl("plan.dirty_share", "ratio", "lower"),
    pl("plan.reused_frames", "count", "higher"),
    pl("plan.patched_frames", "count", "higher"),
    pl("plan.rebuilt_frames", "count", "lower"),
    pl("plan.escaped_frames", "count", "lower"),
    pl("born.q_moments_ms", "ms", "lower"),
    pl("born.execute_ms", "ms", "lower"),
    pl("born.entries_per_s", "1/s", "higher"),
    pl("born.bytes_per_entry", "B", "lower"),
    pl("born.push_ms", "ms", "lower"),
    pl("born.traverse_ms", "ms", "lower"),
    pl("epol.ctx_ms", "ms", "lower"),
    pl("epol.execute_ms", "ms", "lower"),
    pl("epol.entries_per_s", "1/s", "higher"),
    pl("epol.traverse_ms", "ms", "lower"),
    pl("gradient.execute_ms", "ms", "lower"),
    pl("gradient.born_recompute_share", "ratio", "lower"),
    pl("batch.key_hash_us", "us", "lower"),
    pl("batch.route_residual_ms", "ms", "lower"),
    pl("batch.miss_build_ms", "ms", "lower"),
    pl("batch.hits", "count", "higher"),
    pl("batch.patched", "count", "higher"),
    pl("batch.misses", "count", "lower"),
    pl("batch.evictions", "count", "lower"),
    pl("batch.bytes_held", "B", "lower"),
    pl("batch.hit_share", "ratio", "higher"),
    pl("serve.server_wall_ms", "ms", "lower"),
    pl("serve.wire_residual_ms", "ms", "lower"),
    pl("serve.hit_ms", "ms", "lower"),
    pl("serve.patched_ms", "ms", "lower"),
    pl("serve.miss_ms", "ms", "lower"),
    pl("serve.queue_depth_p50", "count", "lower"),
    pl("serve.peak_queue_depth", "count", "lower"),
    pl("serve.shed", "count", "lower"),
    pl("serve.reconciles", "count", "higher"),
    pl("mpi.wall_ms", "ms", "lower"),
    pl("mpi.modeled_comm_ms", "ms", "lower"),
    pl("mpi.bytes_sent", "B", "lower"),
    pl("mpi.work_imbalance", "ratio", "lower"),
    pl("mpi.replicated_bytes", "B", "lower"),
    pl("runtime.executed", "count", "lower"),
    pl("runtime.steals", "count", "lower"),
    pl("runtime.imbalance", "ratio", "lower"),
    pl("cluster.simulate_ms", "ms", "lower"),
    pl("cluster.sim_speedup_144", "ratio", "higher"),
    pl("trace.overhead_share", "ratio", "lower"),
    pl("trace.residual_share", "ratio", "lower"),
    pl("trace.op_samples", "count", "higher"),
    pl("trace.spans", "count", "lower"),
];

/// How a span name becomes a per-layer time.
pub struct SpanMetric {
    pub span: &'static str,
    pub metric: &'static str,
    /// Multiplier from the span's milliseconds to the metric's unit.
    pub scale: f64,
    /// Whole duration (wrapper spans) instead of self time.
    pub whole: bool,
}

const fn sm(span: &'static str, metric: &'static str, scale: f64, whole: bool) -> SpanMetric {
    SpanMetric {
        span,
        metric,
        scale,
        whole,
    }
}

pub const SPAN_METRICS: &[SpanMetric] = &[
    sm("molecule.parse_pqr", "molecule.parse_pqr_ms", 1.0, false),
    sm(
        "molecule.parse_request",
        "molecule.parse_request_us",
        1e3,
        false,
    ),
    sm("surface.sample", "surface.sample_ms", 1.0, false),
    sm("octree.build", "octree.build_ms", 1.0, false),
    sm("octree.refresh", "octree.refresh_ms", 1.0, false),
    sm("plan.build", "plan.build_ms", 1.0, false),
    sm("plan.drop", "plan.drop_ms", 1.0, false),
    sm("plan.delta", "plan.delta_ms", 1.0, false),
    sm("plan.patch", "plan.patch_ms", 1.0, false),
    sm("born.q_moments", "born.q_moments_ms", 1.0, false),
    sm("born.execute", "born.execute_ms", 1.0, false),
    sm("born.push", "born.push_ms", 1.0, false),
    sm("born.traverse", "born.traverse_ms", 1.0, false),
    sm("epol.ctx", "epol.ctx_ms", 1.0, false),
    sm("epol.execute", "epol.execute_ms", 1.0, false),
    sm("epol.traverse", "epol.traverse_ms", 1.0, false),
    sm("gradient.execute", "gradient.execute_ms", 1.0, false),
    sm("batch.key_hash", "batch.key_hash_us", 1e3, false),
    sm("batch.miss_build", "batch.miss_build_ms", 1.0, true),
    sm("mpi.run", "mpi.wall_ms", 1.0, false),
    sm("cluster.simulate", "cluster.simulate_ms", 1.0, false),
];

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The text of `BENCHMARK.json`.
pub fn manifest(run_seconds: u32) -> String {
    let mut o = String::from("{\n");
    o.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    o.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(o, "  \"run_seconds\": {run_seconds},");
    o.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let _ = writeln!(
            o,
            "    {{\"name\": {}, \"why\": {}}}{}",
            json_str(w.name),
            json_str(w.why),
            if i + 1 == WORKLOADS.len() { "" } else { "," }
        );
    }
    o.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let _ = writeln!(
            o,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{}",
            json_str(m.name),
            json_str(m.unit),
            json_str(m.better),
            m.bound,
            if i + 1 == END_TO_END.len() { "" } else { "," }
        );
    }
    o.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let _ = writeln!(
            o,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{}",
            json_str(m.name),
            json_str(m.unit),
            json_str(m.better),
            if i + 1 == PER_LAYER.len() { "" } else { "," }
        );
    }
    o.push_str("  ]\n}\n");
    o
}

/// A finite JSON number with all its digits (non-finite reads 0).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_manifest_is_the_generated_one() {
        assert_eq!(
            include_str!("../../BENCHMARK.json"),
            manifest(crate::RUN_SECONDS),
            "regenerate with `-- --emit-manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn tables_meet_the_manifest_contract() {
        let ok_name = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.as_bytes()[0].is_ascii_alphanumeric()
                && s.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
        };
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        assert!(names.iter().all(|n| ok_name(n)));
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(PER_LAYER.len() <= 128);
        for s in SPAN_METRICS {
            assert!(PER_LAYER.iter().any(|m| m.name == s.metric), "{}", s.metric);
        }
        for (metric, workload) in REPEAT_UNHELD {
            assert!(END_TO_END.iter().any(|m| m.name == *metric), "{metric}");
            assert!(WORKLOADS.iter().any(|w| w.name == *workload), "{workload}");
        }
        let text = manifest(10);
        assert!(text.len() < 64 * 1024);
        assert!(crate::json::parse(&text).is_ok());
    }
}
