//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded from the benchmark's own files, around calls into
//! each layer's public functions. Every span carries a name, start and
//! end (ns since the tracer's origin), its parent span and the id of
//! the op it belongs to; nothing is written until the workload ends. A
//! tracer that is off records nothing and costs one branch per span, so
//! workloads run the same code in the untraced and the traced pass.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// `parent` of a root span; `op` of a span recorded outside any op.
pub const NONE: u32 = u32::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub op: u32,
}

impl Span {
    pub fn dur_ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
}

impl Tracer {
    /// Span times count from `origin` (shared between the threads of
    /// one run).
    pub fn new(on: bool, origin: Instant) -> Tracer {
        Tracer {
            on,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
            op: NONE,
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Record from here on, or stop recording (between traced rounds).
    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.open.is_empty(), "toggled inside a span");
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Spans opened from here on belong to op `op` (until `set_op(NONE)`).
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let id = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied().unwrap_or(NONE),
            op: self.op,
        });
        self.open.push(id);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let id = self.open.pop().expect("exit without enter");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// A leaf span around one call.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let r = f();
        self.exit();
        r
    }

    /// Append another thread's spans (same origin), re-basing parents.
    pub fn merge(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NONE {
                s.parent += base;
            }
            s
        }));
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_ms(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::dur_ms).collect();
        for s in &self.spans {
            if s.parent != NONE {
                own[s.parent as usize] -= s.dur_ms();
            }
        }
        own
    }

    /// Per op, the summed time of the spans called `name` — self time,
    /// or whole duration when `whole` (for wrapper spans whose children
    /// are layers of their own). Ops without such a span are absent.
    pub fn per_op(&self, name: &str, whole: bool) -> Vec<f64> {
        let own = self.self_ms();
        let mut by_op: BTreeMap<u32, f64> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == name {
                *by_op.entry(s.op).or_insert(0.0) += if whole { s.dur_ms() } else { own[i] };
            }
        }
        by_op.into_values().collect()
    }

    /// Per op, the share of the `op` span that no other span accounts
    /// for. The accounted part is the op's children; where the op is one
    /// opaque call it has none, and the same op's `replay` span (the
    /// layer-by-layer re-run) stands in for them.
    pub fn residual_shares(&self) -> Vec<f64> {
        let mut op_dur: BTreeMap<u32, f64> = BTreeMap::new();
        let mut children: BTreeMap<u32, f64> = BTreeMap::new();
        let mut replay: BTreeMap<u32, f64> = BTreeMap::new();
        for s in &self.spans {
            if s.parent == NONE {
                match s.name {
                    "op" => *op_dur.entry(s.op).or_insert(0.0) += s.dur_ms(),
                    "replay" => *replay.entry(s.op).or_insert(0.0) += s.dur_ms(),
                    _ => {}
                }
            } else if self.spans[s.parent as usize].name == "op" {
                *children.entry(s.op).or_insert(0.0) += s.dur_ms();
            }
        }
        op_dur
            .iter()
            .filter(|(_, &d)| d > 0.0)
            .filter_map(|(op, &d)| {
                let accounted = children.get(op).or_else(|| replay.get(op))?;
                Some((d - accounted) / d)
            })
            .collect()
    }

    /// The trace file: one object per span, in recording order.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let own = self.self_ms();
        let mut out = format!(
            "{{\"schema\":\"polar_benchmark_trace/v1\",\"workload\":\"{workload}\",\"seed\":{seed},\"unit\":\"ns\",\"spans\":[\n"
        );
        for (i, s) in self.spans.iter().enumerate() {
            let opt = |v: u32| {
                if v == NONE {
                    "null".to_string()
                } else {
                    v.to_string()
                }
            };
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{},\"op\":{},\"self_ms\":{:.6}}}{}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent),
                opt(s.op),
                own[i],
                if i + 1 == self.spans.len() { "" } else { "," }
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// Nearest-rank percentile of an unsorted sample; 0 when empty.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Mean of the samples ranked between quantiles `lo` and `hi`; the
/// nearest-rank percentile at their midpoint when the band is empty.
///
/// On a continuous distribution this estimates the quantile at the
/// band's midpoint (see `Ops::rounds` for why latencies are read so).
pub fn band_mean(samples: &[f64], lo: f64, hi: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as f64;
    let band = &v[(lo * n).floor() as usize..((hi * n).ceil() as usize).min(v.len())];
    if band.is_empty() {
        return percentile(samples, (lo + hi) / 2.0);
    }
    band.iter().sum::<f64>() / band.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_residual_uses_replay() {
        let mut t = Tracer::new(true, Instant::now());
        t.set_op(0);
        t.enter("op");
        t.span("a", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.exit();
        t.set_op(1);
        t.span("op", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.enter("replay");
        t.span("a", || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        t.exit();
        let own = t.self_ms();
        assert!(own[0] < t.spans()[0].dur_ms());
        assert_eq!(t.per_op("a", false).len(), 2);
        let r = t.residual_shares();
        assert_eq!(r.len(), 2);
        assert!(r[0] < 0.5, "op 0 is mostly its child: {r:?}");
        assert!(
            r[1] > 0.0 && r[1] < 1.0,
            "op 1 is judged by its replay: {r:?}"
        );
        assert!(t.to_json("w", 1).contains("\"parent\":0"));
    }

    #[test]
    fn off_tracer_records_nothing_and_percentiles_are_nearest_rank() {
        let mut t = Tracer::new(false, Instant::now());
        t.span("a", || ());
        assert!(t.spans().is_empty());
        assert_eq!(percentile(&[3.0, 1.0, 2.0, 4.0], 0.5), 2.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0, 4.0], 0.95), 4.0);
        assert_eq!(median(&[]), 0.0);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(band_mean(&v, 0.40, 0.60), 50.5);
        assert_eq!(band_mean(&v, 0.90, 0.99), 95.0);
        assert_eq!(band_mean(&[1.0, 2.0, 9.0], 0.90, 0.99), 9.0);
        assert_eq!(band_mean(&[], 0.4, 0.6), 0.0);
    }
}
