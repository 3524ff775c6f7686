//! The SPMD communicator: rank threads + collectives.
//!
//! Ranks run as OS threads over crossbeam channels. The API is the slice
//! of MPI the paper's Fig. 4 algorithm needs: an element-wise allreduce
//! (Step 3), an allgather (Step 5) and a scalar allreduce (Step 7), each
//! fault-aware — it returns the *absent set* of ranks that did not
//! contribute, or a [`CommError`], never a hang. All ranks must call each
//! collective in the same program order — the usual MPI discipline; the
//! collectives are implemented root-gathered (functionally equivalent to
//! any tree), while their *simulated* cost is charged from the
//! [`NetworkModel`]'s collective formulas, not the transport actually
//! used.

use crate::faults::FaultSpec;
use crate::network::NetworkModel;
use crossbeam_channel::{unbounded, Receiver, Sender};
use polar_gb::report::FaultEvent;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A communication failure surfaced as a value instead of a panic, so the
/// fault-tolerant drivers can recover (or report) instead of aborting the
/// whole universe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// No message arrived from `from` at `to` within the receive window —
    /// the peer is dead or never sent.
    Timeout {
        from: usize,
        to: usize,
        collective: String,
    },
    /// The retransmission budget ran out on a repeatedly-dropped message.
    RetriesExhausted {
        from: usize,
        to: usize,
        collective: String,
        attempts: u32,
    },
    /// This rank died (injected crash, or voluntary abort after an
    /// unrecoverable local failure).
    Crashed {
        rank: usize,
        at_collective: u64,
        reason: String,
    },
    /// No rank is left alive to act as a collective root.
    AllRanksDead,
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::Timeout {
                from,
                to,
                collective,
            } => write!(
                f,
                "timeout in {collective}: rank {to} received nothing from rank {from}"
            ),
            CommError::RetriesExhausted {
                from,
                to,
                collective,
                attempts,
            } => write!(
                f,
                "rank {from} exhausted {attempts} retransmissions to rank {to} in {collective}"
            ),
            CommError::Crashed {
                rank,
                at_collective,
                reason,
            } => write!(
                f,
                "rank {rank} died at collective {at_collective}: {reason}"
            ),
            CommError::AllRanksDead => write!(f, "all ranks are dead; no collective can complete"),
        }
    }
}

impl std::error::Error for CommError {}

/// One armed drop: fires once, on the contribution send to `to` at the
/// sender's `at_collective`-th collective.
#[derive(Debug, Clone)]
struct ArmedDrop {
    to: usize,
    at_collective: u64,
    times: u32,
    fired: bool,
}

/// The slice of a [`FaultSpec`] relevant to one rank.
#[derive(Debug, Clone)]
struct ArmedFaults {
    crash_at: Option<u64>,
    drops: Vec<ArmedDrop>,
    /// `(at_collective, extra simulated seconds)`.
    stragglers: Vec<(u64, f64)>,
    max_retries: u32,
    base_timeout_s: f64,
}

/// Which payload a root-gathered fault-tolerant collective carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FtOp {
    /// Element-wise sum of equal-length contributions.
    Sum,
    /// Length-prefixed concatenation keyed by original rank.
    Gather,
}

/// Per-rank endpoint handed to the SPMD closure.
pub struct Comm {
    rank: usize,
    size: usize,
    /// `tx[peer]`: send to peer.
    tx: Vec<Sender<Vec<f64>>>,
    /// `rx[peer]`: receive from peer.
    rx: Vec<Receiver<Vec<f64>>>,
    network: NetworkModel,
    sim_comm_seconds: f64,
    bytes_sent: u64,
    replicated_bytes: u64,
    /// Shared death announcements: `dead[r]` is set (by rank `r`'s own
    /// thread) when `r` crashes or its body panics. Survivors read the
    /// flags at collective boundaries — the in-process stand-in for a
    /// failure detector.
    dead: Arc<Vec<AtomicBool>>,
    /// Armed fault schedule for this rank, if any.
    faults: Option<ArmedFaults>,
    /// Count of fault-aware collectives this rank has entered.
    collectives_entered: u64,
    /// Deterministic log of injected faults observed by this rank.
    events: Vec<FaultEvent>,
    /// Retransmissions performed by this rank.
    msg_retries: u64,
    /// Simulated seconds of injected straggle on this rank.
    straggler_extra_s: f64,
}

/// Wall-clock backstop for receives; generous so it only trips on genuine
/// protocol bugs (a live peer that never sends), not on slow peers.
const RECV_BACKSTOP: Duration = Duration::from_secs(10);

impl Comm {
    /// This rank's id (0-based).
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the universe.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Simulated wire time accrued by this rank's collectives (seconds).
    pub fn sim_comm_seconds(&self) -> f64 {
        self.sim_comm_seconds
    }

    /// Payload bytes this rank pushed into channels.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// Record that this rank holds `bytes` of *replicated* input data —
    /// the quantity behind the paper's §IV.B memory argument.
    pub fn register_replicated_memory(&mut self, bytes: usize) {
        self.replicated_bytes += bytes as u64;
    }

    /// Replicated bytes registered so far.
    pub fn replicated_bytes(&self) -> u64 {
        self.replicated_bytes
    }

    /// Arm this rank with its slice of a fault schedule. Drops whose
    /// endpoints include a crashing rank are ignored: a loss on a path
    /// to or from a dying rank is indistinguishable from the crash
    /// itself, and skipping them keeps seeded runs deterministic under
    /// root failover.
    pub fn arm_faults(&mut self, spec: &FaultSpec) {
        let crashing = spec.crashing_ranks();
        let crash_at = spec
            .crashes
            .iter()
            .filter(|c| c.rank == self.rank)
            .map(|c| c.at_collective)
            .min();
        let drops = spec
            .drops
            .iter()
            .filter(|d| {
                d.from == self.rank
                    && d.to != self.rank
                    && d.to < self.size
                    && !crashing.contains(&d.from)
                    && !crashing.contains(&d.to)
            })
            .map(|d| ArmedDrop {
                to: d.to,
                at_collective: d.at_collective,
                times: d.times,
                fired: false,
            })
            .collect();
        let stragglers = spec
            .stragglers
            .iter()
            .filter(|t| t.rank == self.rank)
            .map(|t| (t.at_collective, t.extra_seconds))
            .collect();
        self.faults = Some(ArmedFaults {
            crash_at,
            drops,
            stragglers,
            max_retries: spec.max_retries,
            base_timeout_s: spec.base_timeout_s,
        });
    }

    /// Has `rank` announced its death?
    pub fn is_dead(&self, rank: usize) -> bool {
        self.dead[rank].load(Ordering::Acquire)
    }

    /// Fault-aware collectives entered so far by this rank.
    pub fn collectives_entered(&self) -> u64 {
        self.collectives_entered
    }

    /// Retransmissions this rank performed for dropped messages.
    pub fn msg_retries(&self) -> u64 {
        self.msg_retries
    }

    /// Injected straggle accrued by this rank (simulated seconds).
    pub fn straggler_extra_seconds(&self) -> f64 {
        self.straggler_extra_s
    }

    /// Drain the deterministic fault-event log.
    pub fn take_fault_events(&mut self) -> Vec<FaultEvent> {
        std::mem::take(&mut self.events)
    }

    /// Announce this rank dead and return the error to propagate — the
    /// escape hatch for unrecoverable *local* failures (e.g. a worker
    /// pool that exhausted its retry budget). Survivors observe the flag
    /// at their next collective and re-divide this rank's work.
    pub fn ft_abort(&mut self, reason: &str) -> CommError {
        let at = self.collectives_entered + 1;
        self.dead[self.rank].store(true, Ordering::Release);
        self.events.push(FaultEvent {
            at_collective: at,
            kind: "crash".into(),
            rank: self.rank,
            peer: None,
            detail: reason.to_string(),
        });
        CommError::Crashed {
            rank: self.rank,
            at_collective: at,
            reason: reason.to_string(),
        }
    }

    /// Wait for the next message from `p`; `Ok(None)` means `p` is dead
    /// and everything it ever sent has been consumed. The wall-clock
    /// deadline only trips on protocol bugs (a live peer that never
    /// sends), surfacing them as errors instead of hangs.
    fn poll_from(&mut self, p: usize, collective: &str) -> Result<Option<Vec<f64>>, CommError> {
        let deadline = Instant::now() + RECV_BACKSTOP;
        loop {
            if let Ok(m) = self.rx[p].try_recv() {
                return Ok(Some(m));
            }
            if self.is_dead(p) {
                // The flag is set with Release *after* the peer's last
                // send, so one more drain observes anything in flight.
                return Ok(self.rx[p].try_recv().ok());
            }
            if Instant::now() > deadline {
                return Err(CommError::Timeout {
                    from: p,
                    to: self.rank,
                    collective: collective.to_string(),
                });
            }
            std::thread::yield_now();
        }
    }

    /// Entry gate of every fault-tolerant collective: bumps the counter,
    /// injects stragglers, and fires a scheduled crash.
    fn ft_entry(&mut self, name: &str) -> Result<(), CommError> {
        self.collectives_entered += 1;
        let c = self.collectives_entered;
        let Some(f) = &self.faults else {
            return Ok(());
        };
        let crash_here = f.crash_at == Some(c);
        let stall: f64 = f
            .stragglers
            .iter()
            .filter(|&&(at, _)| at == c)
            .map(|&(_, s)| s)
            .sum();
        if stall > 0.0 {
            self.sim_comm_seconds += stall;
            self.straggler_extra_s += stall;
            self.events.push(FaultEvent {
                at_collective: c,
                kind: "straggler".into(),
                rank: self.rank,
                peer: None,
                detail: format!("stalled {stall}s entering {name}"),
            });
        }
        if crash_here {
            self.dead[self.rank].store(true, Ordering::Release);
            self.events.push(FaultEvent {
                at_collective: c,
                kind: "crash".into(),
                rank: self.rank,
                peer: None,
                detail: format!("injected crash entering {name}"),
            });
            return Err(CommError::Crashed {
                rank: self.rank,
                at_collective: c,
                reason: format!("injected crash entering {name}"),
            });
        }
        Ok(())
    }

    /// Send a contribution toward a collective root, applying any armed
    /// drop for this collective: each loss charges exponential backoff
    /// (`base · 2^k`) of simulated time before the retransmission, and
    /// blowing the budget kills the sender.
    fn ft_send_contribution(
        &mut self,
        to: usize,
        data: Vec<f64>,
        name: &str,
    ) -> Result<(), CommError> {
        let c = self.collectives_entered;
        let mut lost = 0u32;
        let mut budget = u32::MAX;
        let mut base = 0.0f64;
        if let Some(f) = &mut self.faults {
            budget = f.max_retries;
            base = f.base_timeout_s;
            if let Some(d) = f
                .drops
                .iter_mut()
                .find(|d| d.to == to && d.at_collective == c && !d.fired)
            {
                d.fired = true;
                lost = d.times;
            }
        }
        if lost > 0 {
            let attempts = lost.min(budget);
            for k in 0..attempts {
                self.sim_comm_seconds += base * f64::from(1u32 << k.min(20));
            }
            self.msg_retries += u64::from(attempts);
            if lost > budget {
                self.events.push(FaultEvent {
                    at_collective: c,
                    kind: "drop".into(),
                    rank: self.rank,
                    peer: Some(to),
                    detail: format!("message to rank {to} lost past the {budget}-retry budget"),
                });
                self.dead[self.rank].store(true, Ordering::Release);
                self.events.push(FaultEvent {
                    at_collective: c,
                    kind: "crash".into(),
                    rank: self.rank,
                    peer: None,
                    detail: format!(
                        "gave up after {budget} retransmissions to rank {to} in {name}"
                    ),
                });
                return Err(CommError::RetriesExhausted {
                    from: self.rank,
                    to,
                    collective: name.to_string(),
                    attempts: budget,
                });
            }
            self.events.push(FaultEvent {
                at_collective: c,
                kind: "drop".into(),
                rank: self.rank,
                peer: Some(to),
                detail: format!("message to rank {to} lost {lost}×, retransmitted with backoff"),
            });
        }
        let bytes = data.len() * 8;
        self.bytes_sent += bytes as u64;
        self.sim_comm_seconds += self.network.p2p(bytes) * f64::from(lost + 1);
        // The receiver's endpoint outlives the universe scope, so a send
        // to a dead rank parks harmlessly in its channel.
        let _ = self.tx[to].send(data);
        Ok(())
    }

    /// Root-gathered fault-tolerant collective. The root is the lowest
    /// live rank; if it dies before answering, contributors fail over to
    /// the next live rank and resend (stale contributions rot unread in
    /// the dead root's channel). The root's reply is prefixed with the
    /// *absent set* — ranks that did not contribute — so every survivor
    /// leaves the collective with an identical view of who is dead.
    ///
    /// Returns `(payload, absent)`; the payload is identical on every
    /// surviving rank. `FtOp::Sum` accumulates from zero in rank order, so
    /// a fault-free sum is bitwise the rank-order sum of the contributions.
    fn ft_collective(
        &mut self,
        local: &[f64],
        name: &str,
        op: FtOp,
    ) -> Result<(Vec<f64>, Vec<usize>), CommError> {
        self.ft_entry(name)?;
        self.sim_comm_seconds += match op {
            FtOp::Sum => self.network.allreduce(local.len() * 8, self.size),
            FtOp::Gather => self.network.allgather(local.len() * 8, self.size),
        };
        if self.size == 1 {
            let payload = match op {
                FtOp::Sum => local.to_vec(),
                FtOp::Gather => {
                    let mut w = vec![local.len() as f64];
                    w.extend_from_slice(local);
                    w
                }
            };
            return Ok((payload, Vec::new()));
        }
        loop {
            let root = match (0..self.size).find(|&r| !self.is_dead(r)) {
                Some(r) => r,
                None => return Err(CommError::AllRanksDead),
            };
            if root == self.rank {
                // Collect one contribution (or a death) from every peer.
                let mut contribs: Vec<Option<Vec<f64>>> = vec![None; self.size];
                contribs[self.rank] = Some(local.to_vec());
                let (me, size) = (self.rank, self.size);
                for p in (0..size).filter(|&p| p != me) {
                    let c = self.poll_from(p, name)?;
                    contribs[p] = c;
                }
                let absent: Vec<usize> =
                    (0..self.size).filter(|&p| contribs[p].is_none()).collect();
                let payload = match op {
                    FtOp::Sum => {
                        let mut acc = vec![0.0; local.len()];
                        for c in contribs.iter().flatten() {
                            assert_eq!(c.len(), acc.len(), "{name}: length mismatch");
                            for (a, b) in acc.iter_mut().zip(c) {
                                *a += b;
                            }
                        }
                        acc
                    }
                    FtOp::Gather => {
                        let mut w = Vec::new();
                        for c in &contribs {
                            match c {
                                Some(c) => {
                                    w.push(c.len() as f64);
                                    w.extend_from_slice(c);
                                }
                                None => w.push(0.0),
                            }
                        }
                        w
                    }
                };
                let mut wire = Vec::with_capacity(1 + absent.len() + payload.len());
                wire.push(absent.len() as f64);
                wire.extend(absent.iter().map(|&a| a as f64));
                wire.extend_from_slice(&payload);
                for p in 0..self.size {
                    if p != self.rank && !self.is_dead(p) {
                        self.bytes_sent += (wire.len() * 8) as u64;
                        let _ = self.tx[p].send(wire.clone());
                    }
                }
                return Ok((payload, absent));
            }
            // Contributor: send to the believed root, await its reply.
            self.ft_send_contribution(root, local.to_vec(), name)?;
            match self.poll_from(root, name)? {
                Some(wire) => {
                    let n_absent = wire[0] as usize;
                    let absent: Vec<usize> =
                        wire[1..1 + n_absent].iter().map(|&a| a as usize).collect();
                    let payload = wire[1 + n_absent..].to_vec();
                    return Ok((payload, absent));
                }
                // The root died without answering: fail over and resend.
                None => continue,
            }
        }
    }

    /// Fault-tolerant element-wise allreduce. On success every surviving
    /// rank holds the sum over *contributing* ranks and the sorted absent
    /// set (identical everywhere) telling the caller whose work is lost.
    pub fn ft_allreduce_sum(
        &mut self,
        buf: &mut Vec<f64>,
        name: &str,
    ) -> Result<Vec<usize>, CommError> {
        let (payload, absent) = self.ft_collective(buf, name, FtOp::Sum)?;
        *buf = payload;
        Ok(absent)
    }

    /// Fault-tolerant allgather: returns each original rank's
    /// contribution (empty for absent ranks) plus the absent set.
    pub fn ft_allgather(
        &mut self,
        local: &[f64],
        name: &str,
    ) -> Result<(Vec<Vec<f64>>, Vec<usize>), CommError> {
        let (payload, absent) = self.ft_collective(local, name, FtOp::Gather)?;
        let mut per_rank = Vec::with_capacity(self.size);
        let mut pos = 0;
        for _ in 0..self.size {
            let len = payload[pos] as usize;
            pos += 1;
            per_rank.push(payload[pos..pos + len].to_vec());
            pos += len;
        }
        debug_assert_eq!(pos, payload.len());
        Ok((per_rank, absent))
    }

    /// Fault-tolerant scalar allreduce.
    pub fn ft_allreduce_scalar(
        &mut self,
        x: f64,
        name: &str,
    ) -> Result<(f64, Vec<usize>), CommError> {
        let mut v = vec![x];
        let absent = self.ft_allreduce_sum(&mut v, name)?;
        Ok((v[0], absent))
    }
}

/// Launches SPMD rank threads.
pub struct Universe;

impl Universe {
    /// Run `f` on `n_ranks` threads; returns each rank's result, by rank.
    /// Each rank thread records the ranks as the threads it runs beside,
    /// so whatever a rank forks takes its share of the host's cores
    /// ([`polar_runtime::fair_share`]), not all of them.
    ///
    /// A panic in any rank propagates (fail-fast, like an MPI abort). The
    /// panicking rank is announced dead at once, so its peers' collectives
    /// see it absent instead of waiting out the receive backstop; once
    /// every rank has returned, the lowest panicking rank's own payload is
    /// re-raised on the caller.
    ///
    /// ```
    /// use polar_mpi::{NetworkModel, Universe};
    ///
    /// let sums = Universe::run(4, NetworkModel::free(), |comm| {
    ///     let (sum, absent) = comm.ft_allreduce_scalar(comm.rank() as f64, "sum").unwrap();
    ///     assert!(absent.is_empty());
    ///     sum
    /// });
    /// assert_eq!(sums, vec![6.0; 4]); // 0+1+2+3 on every rank
    /// ```
    pub fn run<R, F>(n_ranks: usize, network: NetworkModel, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&mut Comm) -> R + Sync,
    {
        assert!(n_ranks >= 1, "need at least one rank");
        // Build the channel mesh: one channel per ordered pair.
        let mut txs: Vec<Vec<Option<Sender<Vec<f64>>>>> = (0..n_ranks)
            .map(|_| (0..n_ranks).map(|_| None).collect())
            .collect();
        let mut rxs: Vec<Vec<Option<Receiver<Vec<f64>>>>> = (0..n_ranks)
            .map(|_| (0..n_ranks).map(|_| None).collect())
            .collect();
        for from in 0..n_ranks {
            for to in 0..n_ranks {
                let (s, r) = unbounded();
                txs[from][to] = Some(s);
                rxs[to][from] = Some(r);
            }
        }
        let dead: Arc<Vec<AtomicBool>> =
            Arc::new((0..n_ranks).map(|_| AtomicBool::new(false)).collect());
        let mut comms: Vec<Comm> = txs
            .into_iter()
            .zip(rxs)
            .enumerate()
            .map(|(rank, (tx_row, rx_row))| Comm {
                rank,
                size: n_ranks,
                tx: tx_row.into_iter().map(Option::unwrap).collect(),
                rx: rx_row.into_iter().map(Option::unwrap).collect(),
                network,
                sim_comm_seconds: 0.0,
                bytes_sent: 0,
                replicated_bytes: 0,
                dead: Arc::clone(&dead),
                faults: None,
                collectives_entered: 0,
                events: Vec::new(),
                msg_retries: 0,
                straggler_extra_s: 0.0,
            })
            .collect();

        let f = &f;
        let outcomes: Vec<std::thread::Result<R>> = std::thread::scope(|scope| {
            let handles: Vec<_> = comms
                .iter_mut()
                .map(|comm| {
                    scope.spawn(move || {
                        polar_runtime::set_callers(n_ranks);
                        let out = catch_unwind(AssertUnwindSafe(|| f(comm)));
                        if out.is_err() {
                            comm.dead[comm.rank].store(true, Ordering::Release);
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("rank panics are caught"))
                .collect()
        });
        outcomes
            .into_iter()
            .map(|out| out.unwrap_or_else(|payload| resume_unwind(payload)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> NetworkModel {
        NetworkModel::lonestar4_infiniband()
    }

    #[test]
    fn each_rank_forks_onto_its_share_of_the_cores() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        for p in [1, 2, 3] {
            let shares = Universe::run(p, net(), |_| polar_runtime::fair_share());
            assert_eq!(shares, vec![(cores / p).max(1); p], "{p} ranks");
        }
        assert_eq!(
            polar_runtime::fair_share(),
            cores,
            "the caller keeps its own"
        );
    }

    #[test]
    fn ranks_see_their_ids() {
        let out = Universe::run(4, net(), |c| (c.rank(), c.size()));
        assert_eq!(out, vec![(0, 4), (1, 4), (2, 4), (3, 4)]);
    }

    #[test]
    fn allreduce_sums_across_ranks() {
        let out = Universe::run(5, net(), |c| {
            let mut v = vec![c.rank() as f64, 1.0];
            let absent = c.ft_allreduce_sum(&mut v, "sum").unwrap();
            (v, absent)
        });
        for (v, absent) in out {
            assert_eq!(v, vec![0.0 + 1.0 + 2.0 + 3.0 + 4.0, 5.0]);
            assert!(absent.is_empty());
        }
    }

    #[test]
    fn allgather_concatenates_in_rank_order() {
        let out = Universe::run(3, net(), |c| {
            // Unequal contributions: rank r contributes r+1 copies of r.
            let local = vec![c.rank() as f64; c.rank() + 1];
            c.ft_allgather(&local, "gather").unwrap().0.concat()
        });
        let expect = vec![0.0, 1.0, 1.0, 2.0, 2.0, 2.0];
        for v in out {
            assert_eq!(v, expect);
        }
    }

    #[test]
    fn scalar_allreduce() {
        let out = Universe::run(6, net(), |c| {
            c.ft_allreduce_scalar(c.rank() as f64, "sum").unwrap().0
        });
        for v in out {
            assert_eq!(v, 15.0);
        }
    }

    #[test]
    fn single_rank_universe_works() {
        let out = Universe::run(1, net(), |c| {
            let mut v = vec![3.0];
            c.ft_allreduce_sum(&mut v, "sum").unwrap();
            let (g, absent) = c.ft_allgather(&[1.0, 2.0], "gather").unwrap();
            assert!(absent.is_empty());
            (v[0], g)
        });
        assert_eq!(out[0].0, 3.0);
        assert_eq!(out[0].1, vec![vec![1.0, 2.0]]);
    }

    #[test]
    fn memory_accounting_accumulates() {
        let out = Universe::run(2, net(), |c| {
            c.register_replicated_memory(1000);
            c.register_replicated_memory(24);
            c.replicated_bytes()
        });
        assert_eq!(out, vec![1024, 1024]);
    }

    #[test]
    fn a_panicking_rank_reaches_the_caller_at_once_with_its_own_message() {
        // The panicking rank is announced dead, so its peers' collective
        // returns without waiting out the 10 s receive backstop. Run on a
        // helper thread so a stall fails the test instead of wedging it.
        for ranks in [2usize, 4] {
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let caught = catch_unwind(|| {
                    Universe::run(ranks, net(), |c| {
                        if c.rank() == 1 {
                            panic!("rank 1 gave up before the energy sum");
                        }
                        c.ft_allreduce_scalar(1.0, "epol_allreduce")
                    })
                });
                let message = caught
                    .err()
                    .and_then(|payload| payload.downcast_ref::<&str>().map(|s| s.to_string()));
                let _ = tx.send(message);
            });
            let message = rx
                .recv_timeout(Duration::from_secs(2))
                .unwrap_or_else(|_| panic!("{ranks} ranks: the panic took over 2 s to surface"));
            assert_eq!(
                message.as_deref(),
                Some("rank 1 gave up before the energy sum")
            );
        }
    }

    #[test]
    fn ft_collectives_match_plain_ones_without_faults() {
        // Inexact contributions, so only the rank-order sum from zero
        // matches bit for bit.
        let contribution = |r: usize| vec![0.1 * r as f64, 2.0 / (r as f64 + 3.0)];
        let mut plain = vec![0.0; 2];
        for r in 0..4 {
            for (a, b) in plain.iter_mut().zip(contribution(r)) {
                *a += b;
            }
        }
        let out = Universe::run(4, net(), |c| {
            let mut ft = contribution(c.rank());
            let absent = c.ft_allreduce_sum(&mut ft, "sum").unwrap();
            assert!(absent.is_empty());
            let (per_rank, ab2) = c
                .ft_allgather(&vec![c.rank() as f64; c.rank() + 1], "gather")
                .unwrap();
            assert!(ab2.is_empty());
            (ft, per_rank)
        });
        for (ft, per_rank) in out {
            assert_eq!(ft, plain, "fault-free ft allreduce is the rank-order sum");
            assert_eq!(per_rank.len(), 4);
            for (r, seg) in per_rank.iter().enumerate() {
                assert_eq!(seg, &vec![r as f64; r + 1]);
            }
        }
    }

    #[test]
    fn crashed_rank_is_reported_absent_and_survivors_agree() {
        use crate::faults::{CrashFault, FaultSpec};
        let mut spec = FaultSpec::none();
        // Rank 1 dies entering its second collective.
        spec.crashes.push(CrashFault {
            rank: 1,
            at_collective: 2,
        });
        let out = Universe::run(3, net(), |c| {
            c.arm_faults(&spec);
            let mut v = vec![1.0];
            let a1 = c.ft_allreduce_sum(&mut v, "first")?;
            assert!(a1.is_empty());
            assert_eq!(v, vec![3.0]);
            let mut w = vec![10.0];
            let a2 = c.ft_allreduce_sum(&mut w, "second")?;
            Ok::<_, CommError>((w[0], a2))
        });
        assert!(matches!(out[1], Err(CommError::Crashed { rank: 1, .. })));
        for r in [0, 2] {
            let (sum, absent) = out[r].clone().unwrap();
            assert_eq!(sum, 20.0, "only the two survivors contributed");
            assert_eq!(absent, vec![1]);
        }
    }

    #[test]
    fn root_death_fails_over_to_next_live_rank() {
        use crate::faults::{CrashFault, FaultSpec};
        let mut spec = FaultSpec::none();
        // Rank 0 — the root — dies entering the second collective; the
        // survivors must elect rank 1 and still agree on the sum.
        spec.crashes.push(CrashFault {
            rank: 0,
            at_collective: 2,
        });
        let out = Universe::run(4, net(), |c| {
            c.arm_faults(&spec);
            let mut v = vec![c.rank() as f64];
            c.ft_allreduce_sum(&mut v, "warmup")?;
            let mut w = vec![1.0];
            let absent = c.ft_allreduce_sum(&mut w, "after_root_death")?;
            Ok::<_, CommError>((w[0], absent))
        });
        assert!(matches!(out[0], Err(CommError::Crashed { rank: 0, .. })));
        for o in &out[1..] {
            let (sum, absent) = o.clone().unwrap();
            assert_eq!(sum, 3.0);
            assert_eq!(absent, vec![0]);
        }
    }

    #[test]
    fn dropped_messages_retry_with_backoff_and_count() {
        use crate::faults::{DropFault, FaultSpec};
        let mut spec = FaultSpec::none();
        spec.drops.push(DropFault {
            from: 2,
            to: 0,
            at_collective: 1,
            times: 3,
        });
        let out = Universe::run(3, net(), |c| {
            c.arm_faults(&spec);
            let mut v = vec![1.0];
            c.ft_allreduce_sum(&mut v, "sum").unwrap();
            (v[0], c.msg_retries(), c.take_fault_events())
        });
        for (sum, _, _) in &out {
            assert_eq!(*sum, 3.0, "retransmission delivered the contribution");
        }
        assert_eq!(out[2].1, 3, "sender counted its retries");
        assert!(out[2].2.iter().any(|e| e.kind == "drop"));
        assert_eq!(out[0].1 + out[1].1, 0);
    }

    #[test]
    fn drop_past_budget_kills_the_sender() {
        use crate::faults::{DropFault, FaultSpec};
        let mut spec = FaultSpec::none();
        spec.max_retries = 2;
        spec.drops.push(DropFault {
            from: 1,
            to: 0,
            at_collective: 1,
            times: 5,
        });
        let out = Universe::run(2, net(), |c| {
            c.arm_faults(&spec);
            let mut v = vec![1.0];
            let absent = c.ft_allreduce_sum(&mut v, "sum")?;
            Ok::<_, CommError>((v[0], absent))
        });
        assert_eq!(
            out[1],
            Err(CommError::RetriesExhausted {
                from: 1,
                to: 0,
                collective: "sum".into(),
                attempts: 2
            })
        );
        let (sum, absent) = out[0].clone().unwrap();
        assert_eq!(sum, 1.0);
        assert_eq!(absent, vec![1]);
    }

    #[test]
    fn all_ranks_dead_is_an_error_not_a_hang() {
        use crate::faults::{CrashFault, FaultSpec};
        let mut spec = FaultSpec::none();
        for r in 0..2 {
            spec.crashes.push(CrashFault {
                rank: r,
                at_collective: 1,
            });
        }
        let out = Universe::run(2, net(), |c| {
            c.arm_faults(&spec);
            let mut v = vec![1.0];
            c.ft_allreduce_sum(&mut v, "sum")
        });
        for r in out {
            assert!(matches!(r, Err(CommError::Crashed { .. })));
        }
    }

    #[test]
    fn stragglers_charge_simulated_time_deterministically() {
        use crate::faults::{FaultSpec, StragglerFault};
        let mut spec = FaultSpec::none();
        spec.stragglers.push(StragglerFault {
            rank: 1,
            at_collective: 1,
            extra_seconds: 0.75,
        });
        let run = || {
            Universe::run(3, NetworkModel::free(), |c| {
                c.arm_faults(&spec);
                let mut v = vec![1.0];
                c.ft_allreduce_sum(&mut v, "sum").unwrap();
                (c.straggler_extra_seconds(), c.sim_comm_seconds())
            })
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "straggle injection is deterministic");
        assert_eq!(a[1], (0.75, 0.75));
        assert_eq!(a[0].0, 0.0);
    }

    #[test]
    fn comm_time_reflects_model() {
        // With a free network, simulated time stays zero however much we
        // communicate.
        let out = Universe::run(3, NetworkModel::free(), |c| {
            let mut v = vec![1.0; 1024];
            c.ft_allreduce_sum(&mut v, "sum").unwrap();
            c.sim_comm_seconds()
        });
        for t in out {
            assert_eq!(t, 0.0);
        }
    }

    /// Every CommError variant renders its routing fields — sender,
    /// receiver, collective name, attempt count — so a recovery log
    /// line is actionable without a debugger.
    #[test]
    fn comm_error_display_names_every_routing_field() {
        let cases: [(CommError, &str); 4] = [
            (
                CommError::Timeout {
                    from: 3,
                    to: 1,
                    collective: "allreduce_sum".into(),
                },
                "timeout in allreduce_sum: rank 1 received nothing from rank 3",
            ),
            (
                CommError::RetriesExhausted {
                    from: 2,
                    to: 5,
                    collective: "broadcast".into(),
                    attempts: 4,
                },
                "rank 2 exhausted 4 retransmissions to rank 5 in broadcast",
            ),
            (
                CommError::Crashed {
                    rank: 7,
                    at_collective: 12,
                    reason: "injected".into(),
                },
                "rank 7 died at collective 12: injected",
            ),
            (
                CommError::AllRanksDead,
                "all ranks are dead; no collective can complete",
            ),
        ];
        for (err, expected) in cases {
            assert_eq!(err.to_string(), expected);
        }
    }
}
