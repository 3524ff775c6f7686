//! `serve_mix`: `polar_serve::start` in-process, driven over TCP by a
//! closed loop of two client connections (docking-funnel callers wait
//! for each reply before sending the next request).
//!
//! Receptors are small (300–900 atoms), so compute is little and
//! `molecule` parsing, the admission queue, cache routing and the wire
//! do most of the work. Each request line goes out in one `write_all`
//! and is timed from just before the write to the end of the reply
//! line.

use crate::harness::{setup_median, Outcome, Rng, Rounds, RunCfg, OUT_DIR};
use crate::json::{self, Value};
use crate::layers::PlanCounts;
use crate::oracle::{self, NAIVE_REL_TOL};
use crate::trace::{median, Tracer, NONE};
use polar_gb::{GbParams, ServeReport};
use polar_molecule::request::parse_request;
use polar_molecule::{generators, io, trajectory::jittered};
use polar_serve::{ServeConfig, ServerHandle};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const CLIENTS: usize = 2;
const POOL_ATOMS: [usize; 6] = [300, 420, 540, 660, 780, 900];
/// The pool is the fixed set of receptors a docking funnel screens
/// against: its geometry does not come from `--seed`, which draws the
/// request order, the jittered poses and the fresh geometries. (Plans of
/// molecules this small differ by several percent from one geometry to
/// the next, which would otherwise be `plan_bytes_per_atom`'s spread.)
const POOL_SEED: u64 = 0x706f_6f6c;
/// Requests a client sends per block; in a traced run it alternates
/// traced and untraced blocks.
const BLOCK: usize = 20;
/// Requests in one client's seeded sequence; it wraps around when the
/// time budget allows more. Jittered and fresh files are long evicted
/// by the time they come round again, so their class is unchanged.
const SEQUENCE: usize = 300;
const REPEAT_SHARE: f64 = 0.60;
const JITTER_SHARE: f64 = 0.25;
const JITTER_STEP: f64 = 0.02;
/// Requests whose `molecule` layer is replayed after the traced phase.
const REPLAY_SAMPLE: usize = 60;

struct Request {
    line: String,
    file: String,
    /// Pool member whose energy the reply must stay within 1 % of
    /// (exact repeats and jittered poses); `None` for fresh geometry.
    member: Option<usize>,
}

impl Request {
    fn new(id: String, file: String, member: Option<usize>) -> Request {
        Request {
            line: format!("{{\"id\":\"{id}\",\"file\":\"{file}\"}}\n"),
            file,
            member,
        }
    }
}

struct State {
    dir: PathBuf,
    sequences: Vec<Vec<Request>>,
    references: Vec<f64>,
    plans: PlanCounts,
    server: Option<ServerHandle>,
    clients: Vec<Client>,
}

impl Drop for State {
    fn drop(&mut self) {
        self.clients.clear();
        if let Some(server) = self.server.take() {
            server.drain();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    reply: String,
}

struct Reply {
    latency_ms: f64,
    /// When the reply line ended, in seconds since the phase began.
    end_s: f64,
    /// Sent in a traced round.
    traced: bool,
    /// `None` unless the reply is `status: "ok"` with a finite energy
    /// inside the request's bound.
    ok: Option<OkReply>,
}

#[derive(Clone, Copy)]
struct OkReply {
    cache_hit: bool,
    patched: bool,
    wall_ms: f64,
}

impl Client {
    fn connect(server: &ServerHandle) -> std::io::Result<Client> {
        let writer = TcpStream::connect(server.local_addr())?;
        writer.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Client {
            reader: BufReader::new(writer.try_clone()?),
            writer,
            reply: String::new(),
        })
    }

    /// Returns the latency in ms and the checked reply, if it was ok.
    fn round_trip(&mut self, req: &Request, references: &[f64]) -> (f64, Option<OkReply>) {
        self.reply.clear();
        let t = Instant::now();
        let io_ok = self.writer.write_all(req.line.as_bytes()).is_ok()
            && self.reader.read_line(&mut self.reply).is_ok();
        let latency_ms = t.elapsed().as_secs_f64() * 1e3;
        let ok = io_ok
            .then(|| json::parse(self.reply.trim()).ok())
            .flatten()
            .and_then(|v| check_reply(&v, req, references));
        (latency_ms, ok)
    }
}

fn check_reply(v: &Value, req: &Request, references: &[f64]) -> Option<OkReply> {
    if v.get("status")?.as_str()? != "ok" {
        return None;
    }
    let epol = v.get("epol_kcal")?.as_f64()?;
    let in_bound = match req.member {
        Some(k) => oracle::rel_err(epol, references[k]) < NAIVE_REL_TOL,
        None => epol < 0.0,
    };
    (epol.is_finite() && in_bound).then_some(OkReply {
        cache_hit: v.get("cache_hit")?.as_bool()?,
        patched: v.get("patched")?.as_bool()?,
        wall_ms: v.get("wall_ms")?.as_f64()?,
    })
}

fn write_pqr(dir: &Path, file: &str, mol: &polar_molecule::Molecule) {
    std::fs::write(dir.join(file), io::to_pqr(mol))
        .expect("write PQR into the benchmark's out dir");
}

fn setup(seed: u64, dir: &Path) -> State {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create the benchmark's out dir");
    let p = GbParams::default();
    let mut rng = Rng::new(seed);

    let mut pool = Vec::new();
    let mut references = Vec::new();
    let mut plans = PlanCounts::default();
    for (k, &atoms) in POOL_ATOMS.iter().enumerate() {
        let mol = generators::globular(format!("pool_{k}"), atoms, POOL_SEED + 101 * k as u64);
        write_pqr(dir, &format!("pool_{k}.pqr"), &mol);
        // The server solves what it parses back from the file.
        let parsed = io::load(&dir.join(format!("pool_{k}.pqr"))).expect("generated PQR parses");
        let solver = oracle::reference_solver(&parsed);
        references.push(oracle::recursive_epol(&solver));
        plans.add(&solver, &solver.plan(&p));
        pool.push(mol);
    }

    let sequences: Vec<Vec<Request>> = (0..CLIENTS)
        .map(|c| {
            (0..SEQUENCE)
                .map(|i| {
                    let class = rng.unit();
                    let k = rng.below(pool.len());
                    let (file, member) = if class < REPEAT_SHARE {
                        (format!("pool_{k}.pqr"), Some(k))
                    } else {
                        let file = format!("c{c}_r{i}.pqr");
                        let fresh_seed = rng.next_u64() >> 32;
                        if class < REPEAT_SHARE + JITTER_SHARE {
                            write_pqr(dir, &file, &jittered(&pool[k], JITTER_STEP, fresh_seed));
                            (file, Some(k))
                        } else {
                            let atoms =
                                POOL_ATOMS[0] + rng.below(POOL_ATOMS[5] - POOL_ATOMS[0] + 1);
                            write_pqr(
                                dir,
                                &file,
                                &generators::globular("fresh", atoms, fresh_seed),
                            );
                            (file, None)
                        }
                    };
                    Request::new(format!("c{c}-{i}"), file, member)
                })
                .collect()
        })
        .collect();

    let server = polar_serve::start(ServeConfig {
        workers: 2,
        base_dir: dir.to_path_buf(),
        ..ServeConfig::default()
    })
    .expect("bind an ephemeral local port");
    let mut clients: Vec<Client> = (0..CLIENTS)
        .map(|_| Client::connect(&server).expect("connect to the local server"))
        .collect();
    // Warm-up: every pool member is cached before the measured phase.
    for k in 0..pool.len() {
        let warm = Request::new(format!("warm-{k}"), format!("pool_{k}.pqr"), Some(k));
        clients[0].round_trip(&warm, &references);
    }
    State {
        dir: dir.to_path_buf(),
        sequences,
        references,
        plans,
        server: Some(server),
        clients,
    }
}

struct ClientLog {
    replies: Vec<Reply>,
    tracer: Tracer,
}

/// Both clients run their sequences (wrapping) round by round until the
/// phase is over; in a traced run each alternates traced and untraced
/// blocks.
fn closed_loop(state: &mut State, cfg: &RunCfg, start: Instant) -> Vec<ClientLog> {
    let references = &state.references;
    std::thread::scope(|s| {
        let handles: Vec<_> = state
            .clients
            .iter_mut()
            .zip(&state.sequences)
            .enumerate()
            .map(|(c, (client, sequence))| {
                s.spawn(move || {
                    let mut tracer = Tracer::new(cfg.trace, start);
                    let mut replies = Vec::new();
                    let mut rounds = Rounds::new(cfg, start);
                    while let Some(traced) = rounds.next_is_traced(true) {
                        tracer.set_on(traced);
                        for _ in 0..BLOCK {
                            let i = replies.len();
                            // Op ids interleave the clients: 2·i + c.
                            tracer.set_op((CLIENTS * i + c) as u32);
                            tracer.enter("op");
                            let (latency_ms, ok) =
                                client.round_trip(&sequence[i % sequence.len()], references);
                            tracer.exit();
                            replies.push(Reply {
                                latency_ms,
                                end_s: start.elapsed().as_secs_f64(),
                                traced,
                                ok,
                            });
                        }
                    }
                    ClientLog { replies, tracer }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let dir = Path::new(OUT_DIR).join(format!("serve_mix_{}", std::process::id()));
    let (mut state, setup_s) = setup_median(|| setup(cfg.seed, &dir));
    let mut out = Outcome {
        setup_s,
        // One round for the whole phase: rounds of a few dozen replies
        // differ in their mix of hits, patches and misses, so the best
        // round would be the luckiest mix, and a round trip that mostly
        // waits for a delayed ACK does not feel the host's noise anyway.
        round_len: usize::MAX,
        checks_ok: true,
        plan_bytes: state.plans.bytes,
        plan_atoms: state.plans.atoms,
        ..Outcome::default()
    };

    let start = Instant::now();
    let logs = closed_loop(&mut state, cfg, start);
    for reply in logs.iter().flat_map(|l| &l.replies) {
        let ops = if reply.traced {
            &mut out.traced
        } else {
            &mut out.ops
        };
        ops.push_at(reply.latency_ms, reply.end_s);
        out.attempted += 1;
        out.failed += reply.ok.is_none() as u64;
    }

    // Closing the connections first lets the drain finish at once.
    state.clients.clear();
    let report = state.server.take().expect("server runs until here").drain();
    out.checks_ok &= report.reconciles() && report.drained;
    if !out.checks_ok {
        out.notes.push(format!(
            "drained report does not reconcile: {}",
            report.to_json()
        ));
    }

    if cfg.trace {
        let mut tr = Tracer::new(true, start);
        let sent_traced: Vec<usize> = (0..logs[0].replies.len())
            .filter(|&i| logs[0].replies[i].traced)
            .take(REPLAY_SAMPLE)
            .collect();
        let replies: Vec<Reply> = logs
            .into_iter()
            .flat_map(|log| {
                tr.merge(log.tracer);
                log.replies
            })
            .collect();
        replay_molecule_layer(&mut tr, &state, &sent_traced, &mut out);
        layer_counts(&replies, &report, &state.plans, &mut out);
        out.tracer = Some(tr);
    }
    out
}

/// What the server does with a request line before it reaches the
/// engine, re-run here for client 0's first traced requests (`sent`
/// holds their positions in its sequence).
fn replay_molecule_layer(tr: &mut Tracer, state: &State, sent: &[usize], out: &mut Outcome) {
    let mut bytes_in = Vec::new();
    let sequence = &state.sequences[0];
    for &i in sent {
        let req = &sequence[i % sequence.len()];
        tr.set_op((CLIENTS * i) as u32);
        tr.enter("replay");
        let parsed = tr.span("molecule.parse_request", || parse_request(req.line.trim()));
        let text = std::fs::read_to_string(state.dir.join(&req.file));
        let mol = tr.span("molecule.parse_pqr", || {
            text.as_ref().ok().map(|t| io::parse_pqr(t, "replay"))
        });
        tr.exit();
        if parsed.is_err() || !matches!(mol, Some(Ok(_))) {
            out.checks_ok = false;
            out.notes
                .push(format!("replay could not parse {:?}", req.line));
        }
        bytes_in.push((req.line.len() + text.map_or(0, |t| t.len())) as f64);
    }
    tr.set_op(NONE);
    out.layer.push(("molecule.bytes_in", median(&bytes_in)));
}

fn layer_counts(replies: &[Reply], report: &ServeReport, plans: &PlanCounts, out: &mut Outcome) {
    let ok: Vec<(f64, OkReply)> = replies
        .iter()
        .filter_map(|r| r.ok.map(|o| (r.latency_ms, o)))
        .collect();
    let latency_of = |want: fn(&OkReply) -> bool| -> f64 {
        let v: Vec<f64> = ok
            .iter()
            .filter(|(_, o)| want(o))
            .map(|(l, _)| *l)
            .collect();
        median(&v)
    };
    let walls: Vec<f64> = ok.iter().map(|(_, o)| o.wall_ms).collect();
    let residuals: Vec<f64> = ok.iter().map(|(l, o)| l - o.wall_ms).collect();
    let routed = (report.cache_hits + report.cache_patched + report.cache_misses).max(1) as f64;
    plans.layer_metrics(&mut out.layer);
    out.layer.extend([
        ("serve.server_wall_ms", median(&walls)),
        ("serve.wire_residual_ms", median(&residuals)),
        ("serve.hit_ms", latency_of(|o| o.cache_hit)),
        ("serve.patched_ms", latency_of(|o| o.patched)),
        ("serve.miss_ms", latency_of(|o| !o.cache_hit && !o.patched)),
        ("serve.queue_depth_p50", report.queue_depth.quantile(0.5)),
        ("serve.peak_queue_depth", report.peak_queue_depth as f64),
        ("serve.shed", report.shed as f64),
        ("serve.reconciles", report.reconciles() as u64 as f64),
        // Whole-run totals from the drained report (warm-up and the
        // untraced half included): two racing clients make these
        // schedule-dependent, unlike the rescore workloads' windows.
        ("batch.hits", report.cache_hits as f64),
        ("batch.patched", report.cache_patched as f64),
        ("batch.misses", report.cache_misses as f64),
        ("batch.evictions", report.cache_evictions as f64),
        ("batch.bytes_held", report.cache_bytes_held as f64),
        ("batch.hit_share", report.cache_hits as f64 / routed),
    ]);
}
