//! Network cost model for the simulated fabric.
//!
//! Communication time is modeled as `t_s + t_w·m` per message of `m`
//! bytes (startup latency + per-byte transfer), with the standard
//! collective-algorithm costs of Grama, Gupta, Karypis & Kumar,
//! *Introduction to Parallel Computing*, Table 4.1 — exactly the model the
//! paper's §IV.C analysis uses (`t_s log P + t_w (M/P)(P−1)` for its
//! gather steps).

/// Per-message cost parameters of the interconnect.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkModel {
    /// Startup (latency) time per message, seconds — the paper's `t_s`.
    pub t_s: f64,
    /// Transfer time per byte, seconds — the paper's `t_w` (per word in
    /// the book; we use bytes and fold the word size in).
    pub t_w: f64,
    /// Multiplier applied when both endpoints share a compute node
    /// (shared-memory transport is far cheaper than the wire; the paper's
    /// §IV.B cost ordering "threads < same-node processes < cross-node").
    pub intra_node_factor: f64,
    /// Software cost per collective round (MPI stack, process wakeups,
    /// skew absorption), charged as `collective_sync · log₂ p` on top of
    /// the wire terms. Unlike `t_s`/`t_w` this does *not* shrink for
    /// intra-node runs — it is process-scheduling, not transport.
    pub collective_sync: f64,
}

impl NetworkModel {
    /// Lonestar4-class QDR InfiniBand: ~2 µs MPI latency, 40 Gb/s
    /// point-to-point (≈ 3.2 GB/s effective payload bandwidth), with
    /// intra-node transport ~5× cheaper.
    pub fn lonestar4_infiniband() -> NetworkModel {
        NetworkModel {
            t_s: 2.0e-6,
            t_w: 1.0 / 3.2e9,
            intra_node_factor: 0.2,
            collective_sync: 5.0e-5,
        }
    }

    /// An idealized zero-cost network (useful to isolate computation).
    pub fn free() -> NetworkModel {
        NetworkModel {
            t_s: 0.0,
            t_w: 0.0,
            intra_node_factor: 1.0,
            collective_sync: 0.0,
        }
    }

    /// One point-to-point message of `bytes`.
    pub fn p2p(&self, bytes: usize) -> f64 {
        self.t_s + self.t_w * bytes as f64
    }

    /// Allreduce of `bytes` across `p` ranks (recursive doubling):
    /// `(t_s + t_w·m)·log p`.
    pub fn allreduce(&self, bytes: usize, p: usize) -> f64 {
        (self.t_s + self.collective_sync + self.t_w * bytes as f64) * log2_ceil(p)
    }

    /// All-gather where each rank contributes `bytes_each`
    /// (ring: `t_s·log p + t_w·m·(p−1)` — the expression in the paper's
    /// Step 3 & 5 analysis).
    pub fn allgather(&self, bytes_each: usize, p: usize) -> f64 {
        (self.t_s + self.collective_sync) * log2_ceil(p)
            + self.t_w * bytes_each as f64 * (p.saturating_sub(1)) as f64
    }

    /// Scale every cost for intra-node communication.
    pub fn intra_node(&self) -> NetworkModel {
        NetworkModel {
            t_s: self.t_s * self.intra_node_factor,
            t_w: self.t_w * self.intra_node_factor,
            intra_node_factor: 1.0,
            collective_sync: self.collective_sync,
        }
    }
}

fn log2_ceil(p: usize) -> f64 {
    if p <= 1 {
        0.0
    } else {
        (p as f64).log2().ceil()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rank_collectives_are_free() {
        let n = NetworkModel::lonestar4_infiniband();
        assert_eq!(n.allreduce(1 << 20, 1), 0.0);
        assert_eq!(n.allgather(1 << 20, 1), 0.0);
    }

    #[test]
    fn costs_grow_with_ranks_and_bytes() {
        let n = NetworkModel::lonestar4_infiniband();
        assert!(n.allreduce(1024, 16) > n.allreduce(1024, 2));
        assert!(n.allreduce(1 << 20, 8) > n.allreduce(1024, 8));
        assert!(n.allgather(1024, 16) > n.allgather(1024, 4));
        assert!(n.p2p(1 << 20) > n.p2p(0));
    }

    #[test]
    fn allgather_is_linear_in_ranks_for_large_payloads() {
        // The t_w·m·(p−1) term dominates: doubling p−1 ≈ doubles cost.
        let n = NetworkModel {
            t_s: 0.0,
            t_w: 1e-9,
            intra_node_factor: 1.0,
            collective_sync: 0.0,
        };
        let a = n.allgather(1 << 20, 5);
        let b = n.allgather(1 << 20, 9);
        assert!((b / a - 2.0).abs() < 1e-9);
    }

    #[test]
    fn intra_node_is_cheaper() {
        let n = NetworkModel::lonestar4_infiniband();
        assert!(n.intra_node().p2p(4096) < n.p2p(4096));
    }

    #[test]
    fn free_network_costs_nothing() {
        let n = NetworkModel::free();
        assert_eq!(n.allreduce(1 << 30, 1024), 0.0);
    }
}
