//! The serving workload: an in-process `resemble-serve` server (one shard,
//! one I/O thread) and one closed-loop generator thread driving two
//! frozen-controller sessions with the same key, so their decision
//! windows pool across sessions. Each session keeps up to `WINDOW`
//! requests in flight and follows every miss with a `DemandFill` event,
//! sent in bursts (see `FILL_BURST`). `run.py` runs this workload pinned
//! to one CPU, so that the threads' hand-offs do not wait on the host.
//!
//! The run is a series of rounds. Each round opens two fresh sessions,
//! streams `ROUND` accesses on each and closes them, then replays both
//! streams offline through `SessionModel::on_run`/`on_event`, off the
//! clock, and counts every decision that differs from the served one as
//! failed.

use crate::probe::{timed_paper_bank, Layers, Stopwatch, TimedSource};
use crate::report::{
    median, quantile_sorted, ratio, steady_latency, steady_rate, Metrics, Outcome, RoundClock,
};
use resemble_core::{ResembleConfig, ResembleMlp};
use resemble_nn::Matrix;
use resemble_serve::protocol::read_frame;
use resemble_serve::{
    EventKind, ModelBuilder, Reply, Request, ServeClient, ServeConfig, Server, SessionModel,
    TelemetrySnapshot,
};
use resemble_trace::gen::app_by_name;
use resemble_trace::record::{block_align, block_of};
use resemble_trace::{MemAccess, TraceSource};
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::Arc;

/// The served model: the frozen DQN ensemble.
pub const MODEL: &str = "resemble_frozen";
/// Apps the two sessions stream: one spatial, one temporal pattern class.
pub const APPS: [&str; 2] = ["433.milc", "471.omnetpp"];
/// Requests each session keeps in flight. Deeper windows swing the
/// decision rate by a multiple from run to run on small hosts.
pub const WINDOW: usize = 16;
/// Accesses per session per round: short rounds, so the quantiles over
/// rounds rest on many rounds.
pub const ROUND: usize = 25_000;
/// Accesses per session between bursts of `DemandFill` events. The shard
/// serves a session's queued requests through the cross-session pooled
/// window only while no event sits between them; with a fill after every
/// miss (about two accesses in three) sent at once, no window would pool.
/// Sending the fills of every `FILL_BURST` accesses together keeps each
/// fill after its miss and in stream order, and leaves most windows free
/// of events.
const FILL_BURST: usize = 64;
/// Lines of the client-side direct-mapped cache that decides hit/miss.
const CLIENT_LINES: usize = 32_768;
/// Times set-up is repeated to report its median: one set-up takes under
/// a millisecond, mostly thread starts and socket calls, so single
/// readings scatter widely.
const SETUP_REPS: usize = 101;

/// One streamed item, kept for the offline replay.
#[derive(Clone, Copy)]
enum Item {
    Access(MemAccess, bool),
    Fill(u64),
}

/// An app trace with a client-side hit/miss model.
struct Stream {
    src: Box<dyn TraceSource + Send>,
    buf: Vec<MemAccess>,
    pos: usize,
    tags: Vec<u64>,
}

impl Stream {
    fn new(src: Box<dyn TraceSource + Send>) -> Self {
        Self {
            src,
            buf: Vec::with_capacity(1024),
            pos: 0,
            tags: vec![u64::MAX; CLIENT_LINES],
        }
    }

    fn next(&mut self) -> (MemAccess, bool) {
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
            let got = self.src.next_batch(&mut self.buf, 1024);
            assert!(got > 0, "generated app traces are unbounded");
        }
        let a = self.buf[self.pos];
        self.pos += 1;
        let block = block_of(a.addr);
        let slot = &mut self.tags[(block % CLIENT_LINES as u64) as usize];
        let hit = *slot == block;
        *slot = block;
        (a, hit)
    }
}

/// One client session, open for one round.
struct Session {
    client: ServeClient,
    /// the round's items, in stream order
    log: Vec<Item>,
    /// served decisions, flattened, with per-decision ends
    served: Vec<u64>,
    served_end: Vec<usize>,
    inflight: VecDeque<(u32, Stopwatch)>,
    /// lines of misses whose `DemandFill` is not yet queued
    fills: Vec<u64>,
    next_req: u32,
    sent: usize,
    /// requests refused or answered with something other than a decision
    refused: u64,
    /// offline replica of the server-side model
    offline: SessionModel,
}

/// Model seed of the sessions for a workload seed.
fn model_seed(seed: u64) -> u64 {
    seed ^ 0x5E55
}

fn open_session(addr: SocketAddr, seed: u64) -> Session {
    let mut client = ServeClient::connect(addr).expect("connect to the in-process server");
    client
        .hello(MODEL, model_seed(seed), true)
        .expect("the server accepts the frozen model");
    Session {
        client,
        log: Vec::with_capacity(2 * ROUND),
        served: Vec::new(),
        served_end: Vec::with_capacity(ROUND),
        inflight: VecDeque::with_capacity(WINDOW),
        fills: Vec::with_capacity(FILL_BURST),
        next_req: 0,
        sent: 0,
        refused: 0,
        offline: SessionModel::build(MODEL, model_seed(seed), true)
            .expect("the frozen model builds"),
    }
}

fn close_session(s: &mut Session) {
    s.client.queue_bye();
    s.client.flush().expect("send bye");
    while let Some(reply) = s.client.recv().expect("receive goodbye") {
        if matches!(reply, Reply::Goodbye { .. }) {
            break;
        }
    }
}

/// A running server and the two app streams its sessions consume.
struct Rig {
    server: Server,
    streams: Vec<Stream>,
    seed: u64,
}

fn server_config() -> ServeConfig {
    ServeConfig {
        shards: 1,
        io_threads: 1,
        ..ServeConfig::default()
    }
}

/// Build the traces, start the server and open both sessions (closed
/// again off the clock); returns the rig and the seconds it took.
fn set_up(seed: u64, builder: ModelBuilder, layers: Option<&Arc<Layers>>) -> (Rig, f64) {
    let t0 = Stopwatch::start();
    let streams: Vec<Stream> = APPS
        .iter()
        .map(|app| {
            let src = app_by_name(app, seed)
                .expect("workload apps are valid")
                .source;
            Stream::new(match layers {
                Some(l) => Box::new(TimedSource::new(src, l.clone())),
                None => src,
            })
        })
        .collect();
    let server = Server::start(server_config(), builder).expect("server starts");
    let mut sessions: Vec<Session> = streams
        .iter()
        .map(|_| open_session(server.local_addr(), seed))
        .collect();
    let took = t0.secs();
    sessions.iter_mut().for_each(close_session);
    let rig = Rig {
        server,
        streams,
        seed,
    };
    (rig, took)
}

impl Rig {
    /// Drain and stop the server.
    fn tear_down(self) -> TelemetrySnapshot {
        self.server.shutdown()
    }

    /// Serve `ROUND` accesses on each session; returns the wall seconds.
    ///
    /// Each turn first writes to every session, then reads one reply from
    /// each, so both sessions' requests wait in the shard side by side and
    /// pool into shared windows. A session is topped up to `WINDOW` in
    /// flight once a quarter of a window is left, so one write carries
    /// three quarters of a window or more. A session's round-trip times
    /// include the generator's turns on the other session, as for any
    /// single-threaded client of two sessions.
    fn serve_round(&mut self, sessions: &mut [Session], rtt_ns: &mut Vec<u64>) -> f64 {
        let t0 = Stopwatch::start();
        loop {
            for (s, stream) in sessions.iter_mut().zip(&mut self.streams) {
                let refill = s.inflight.len() <= WINDOW / 4;
                while refill && s.sent < ROUND && s.inflight.len() < WINDOW {
                    let (access, hit) = stream.next();
                    s.client.queue_access(s.next_req, 0, access, hit);
                    s.inflight.push_back((s.next_req, Stopwatch::start()));
                    s.log.push(Item::Access(access, hit));
                    if !hit {
                        s.fills.push(block_align(access.addr));
                    }
                    s.next_req = s.next_req.wrapping_add(1);
                    s.sent += 1;
                    if s.sent % FILL_BURST == 0 || s.sent == ROUND {
                        for line in s.fills.drain(..) {
                            s.client.queue_event(EventKind::DemandFill, line);
                            s.log.push(Item::Fill(line));
                        }
                    }
                }
                s.client.flush().expect("send requests");
            }
            let mut busy = false;
            for s in sessions.iter_mut() {
                let Some((req, queued)) = s.inflight.pop_front() else {
                    continue;
                };
                busy = true;
                match s.client.recv().expect("receive reply") {
                    Some(Reply::Decision { req_id, prefetches }) if req_id == req => {
                        rtt_ns.push(queued.ns());
                        s.served.extend_from_slice(&prefetches);
                    }
                    _ => s.refused += 1,
                }
                s.served_end.push(s.served.len());
            }
            if !busy {
                break;
            }
        }
        t0.secs()
    }
}

/// Per-phase busy time of the traced offline replay.
#[derive(Default)]
struct PhaseTimes {
    windows: u64,
    prepare_ns: f64,
    forward_ns: f64,
    commit_ns: f64,
}

/// Compares offline decisions with the served ones, in order.
struct Compare<'a> {
    served: &'a [u64],
    ends: &'a [usize],
    next: usize,
    mismatches: u64,
}

impl Compare<'_> {
    fn check(&mut self, k: usize, issued: &[u64]) {
        let i = self.next + k;
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        if self.ends.get(i).map(|&e| &self.served[start..e]) != Some(issued) {
            self.mismatches += 1;
        }
    }
}

/// Apply one run of accesses to the offline model and compare.
fn apply(
    model: &mut SessionModel,
    run: &mut Vec<(MemAccess, bool)>,
    phases: Option<&mut PhaseTimes>,
    q: &mut Matrix,
    cmp: &mut Compare,
) {
    if run.is_empty() {
        return;
    }
    match phases {
        Some(pt) => {
            let sw = Stopwatch::start();
            model.window_prepare(run);
            let prepared = sw.ns();
            model.window_forward(q);
            let forwarded = sw.ns();
            model.window_commit(run, q, 0, |k, issued| cmp.check(k, issued));
            let committed = sw.ns();
            pt.prepare_ns += prepared as f64;
            pt.forward_ns += (forwarded - prepared) as f64;
            pt.commit_ns += (committed - forwarded) as f64;
            pt.windows += 1;
        }
        None => model.on_run(run, |k, issued| cmp.check(k, issued)),
    }
    cmp.next += run.len();
    run.clear();
}

/// Replay a session's round offline and count decisions that differ from
/// the served ones. With `phases`, decisions come from the public window
/// phases (runs split at events and capped at `WINDOW`), timed; otherwise
/// from `on_run`.
fn replay(s: &mut Session, mut phases: Option<&mut PhaseTimes>) -> u64 {
    let Session {
        log,
        served,
        served_end,
        offline,
        ..
    } = s;
    let mut cmp = Compare {
        served,
        ends: served_end,
        next: 0,
        mismatches: 0,
    };
    let mut run = Vec::with_capacity(WINDOW);
    let mut q = Matrix::default();
    for item in log.iter() {
        match *item {
            Item::Access(a, hit) => {
                run.push((a, hit));
                if phases.is_some() && run.len() == WINDOW {
                    apply(offline, &mut run, phases.as_deref_mut(), &mut q, &mut cmp);
                }
            }
            Item::Fill(line) => {
                apply(offline, &mut run, phases.as_deref_mut(), &mut q, &mut cmp);
                offline.on_event(EventKind::DemandFill, line);
            }
        }
    }
    apply(offline, &mut run, phases, &mut q, &mut cmp);
    cmp.mismatches + (served_end.len() as u64).abs_diff(cmp.next as u64)
}

/// CPU time of every live thread of this process, seconds.
fn process_cpu_s() -> f64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0.0;
    };
    tasks
        .filter_map(Result::ok)
        .filter_map(|t| std::fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<f64>().ok())
        .sum::<f64>()
        * 1e-9
}

/// Totals of a serving pass.
#[derive(Default)]
struct Pass {
    clock: RoundClock,
    /// replies per second, one per round
    rates: Vec<f64>,
    /// round-trip percentiles of each round, microseconds
    p50_us: Vec<f64>,
    p99_us: Vec<f64>,
    attempted: u64,
    failed: u64,
    cpu_s: f64,
    frames: u64,
    decisions: u64,
    phases: PhaseTimes,
    codec_log: Vec<Item>,
}

impl Pass {
    /// Decisions per second that most rounds reached (`steady_rate`).
    fn rate(&self) -> f64 {
        steady_rate(&self.rates)
    }
}

/// Serve rounds on `rig` for `seconds`, replaying each. Fresh sessions
/// make every round the same work: member tables fill from empty, as for
/// a client that connects, streams and leaves. (ISB and Domino tables hold up to 2^19 entries and fill over
/// about 600k accesses, so one long session would drift in speed and
/// memory through a run.)
fn serve_pass(rig: &mut Rig, seconds: f64, traced: bool) -> Pass {
    let mut pass = Pass {
        clock: RoundClock::new(seconds),
        ..Pass::default()
    };
    let mut rtt = Vec::with_capacity(2 * ROUND);
    while pass.clock.more() {
        let addr = rig.server.local_addr();
        let mut sessions: Vec<Session> = rig
            .streams
            .iter()
            .map(|_| open_session(addr, rig.seed))
            .collect();
        rtt.clear();
        let cpu0 = process_cpu_s();
        let dt = rig.serve_round(&mut sessions, &mut rtt);
        pass.clock.record(dt);
        pass.cpu_s += process_cpu_s() - cpu0;
        sessions.iter_mut().for_each(close_session);
        rtt.sort_unstable();
        let us = |q| quantile_sorted(&rtt, q).unwrap_or(0) as f64 / 1e3;
        let replies: usize = sessions.iter().map(|s| s.served_end.len()).sum();
        pass.rates.push(replies as f64 / dt);
        pass.p50_us.push(us(0.5));
        pass.p99_us.push(us(0.99));
        eprintln!(
            "round {}: {:.0} decisions/s, rtt p50 {:.1} us, p99 {:.1} us",
            pass.clock.rounds(),
            replies as f64 / dt,
            us(0.5),
            us(0.99)
        );
        for s in &mut sessions {
            pass.attempted += s.sent as u64;
            pass.frames += s.log.len() as u64;
            pass.decisions += (s.served_end.len() as u64).saturating_sub(s.refused);
            pass.failed += s.refused;
            pass.failed += replay(s, traced.then_some(&mut pass.phases));
        }
        if traced {
            pass.codec_log = std::mem::take(&mut sessions[0].log);
        }
    }
    pass
}

/// Failures the final telemetry shows: sessions or connections left open,
/// decisions the server counted but the clients did not receive, and a
/// pass in which no window pooled both sessions.
fn telemetry_failures(snap: &TelemetrySnapshot, decisions: u64) -> u64 {
    snap.sessions_opened.abs_diff(snap.sessions_closed)
        + snap.connections_opened.abs_diff(snap.connections_closed)
        + snap.decisions.abs_diff(decisions)
        + u64::from(snap.pool_batches == 0)
}

/// Set up, run a pass and stop the server, folding the telemetry checks
/// into the failure count.
fn full_pass(
    seed: u64,
    seconds: f64,
    builder: &ModelBuilder,
    layers: Option<&Arc<Layers>>,
) -> (Pass, f64, TelemetrySnapshot) {
    let (mut rig, setup) = set_up(seed, builder.clone(), layers);
    let mut pass = serve_pass(&mut rig, seconds, layers.is_some());
    let snap = rig.tear_down();
    eprintln!(
        "{} rounds: {:.0} decisions/s, mean batch {:.2}, {} of {} batches pooled, {:.2} sessions each",
        pass.clock.rounds(),
        pass.rate(),
        snap.mean_batch,
        snap.pool_batches,
        snap.batches,
        ratio(snap.pool_sessions as f64, snap.pool_batches as f64)
    );
    pass.failed += telemetry_failures(&snap, pass.decisions);
    (pass, setup, snap)
}

/// The end-to-end run.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let builder = SessionModel::default_builder();
    let (pass, setup, _) = full_pass(seed, seconds, &builder, None);
    let peak_rss_mb = crate::report::peak_rss_mb();
    // More set-ups for the median, after the run so that the servers they
    // start and stop leave no memory behind in the measured peak.
    let mut setups = vec![setup];
    setups.extend((1..SETUP_REPS).map(|_| {
        let (rig, t) = set_up(seed, builder.clone(), None);
        rig.tear_down();
        t
    }));
    let mut m = Metrics::default();
    m.put("setup_s", median(setups), "s");
    m.put("peak_rss_mb", peak_rss_mb, "MB");
    // Over many short rounds, the level most rounds held. One decision per
    // served access.
    let rate = pass.rate();
    m.put("accesses_per_s", rate, "1/s");
    m.put("decisions_per_s", rate, "1/s");
    m.put("rtt_p50_us", steady_latency(&pass.p50_us), "us");
    m.put("rtt_p99_us", steady_latency(&pass.p99_us), "us");
    Outcome {
        attempted: pass.attempted,
        failed: pass.failed,
        metrics: m,
    }
}

/// The frozen model with every bank member timed: bit-identical to the
/// built-in `resemble_frozen`, which the offline replay checks.
pub fn timed_builder(layers: Arc<Layers>) -> ModelBuilder {
    Arc::new(move |model: &str, seed: u64, fast: bool| {
        if model != MODEL {
            return SessionModel::build(model, seed, fast);
        }
        let cfg = if fast {
            ResembleConfig::fast()
        } else {
            ResembleConfig::default()
        };
        let mut m = ResembleMlp::new(timed_paper_bank(&layers, None), cfg, seed);
        m.agent_mut().frozen = true;
        Ok(SessionModel::Mlp(Box::new(m)))
    })
}

/// Encode and decode `log`'s frames; nanoseconds per frame.
fn frame_codec_ns(log: &[Item]) -> f64 {
    let reqs: Vec<Request> = log
        .iter()
        .enumerate()
        .map(|(i, item)| match *item {
            Item::Access(access, hit) => Request::Access {
                req_id: i as u32,
                deadline_us: 0,
                access,
                hit,
            },
            Item::Fill(addr) => Request::Event {
                kind: EventKind::DemandFill,
                addr,
            },
        })
        .collect();
    let mut buf = Vec::with_capacity(reqs.len() * 40);
    let mut payload = Vec::new();
    let t0 = Stopwatch::start();
    for r in &reqs {
        r.encode_into(&mut buf);
    }
    let mut rd = buf.as_slice();
    let mut decoded = 0usize;
    while let Ok(Some(ty)) = read_frame(&mut rd, &mut payload) {
        let req = Request::decode(ty, &payload).expect("frames the client encodes decode");
        decoded += usize::from(std::hint::black_box(&req) == &reqs[decoded]);
    }
    let ns = t0.ns() as f64;
    assert_eq!(decoded, reqs.len(), "every frame round-trips");
    ratio(ns, reqs.len() as f64)
}

/// The traced run: an untraced pass for the overhead, then a pass with
/// timed trace sources and bank members and the offline replay through
/// the timed window phases.
pub fn run_traced(seed: u64, seconds: f64) -> Outcome {
    let builder = SessionModel::default_builder();
    let (plain, _, _) = full_pass(seed, seconds / 2.0, &builder, None);
    let layers = Arc::new(Layers::default());
    let (pass, _, snap) = full_pass(
        seed,
        seconds / 2.0,
        &timed_builder(layers.clone()),
        Some(&layers),
    );
    let per_round = 1.0 / pass.clock.rounds() as f64;
    let mut m = crate::layers::common(&layers, per_round);
    crate::layers::sim_absent(&mut m);
    let rows = snap.mean_batch.round().max(1.0) as usize;
    crate::layers::nn_probe(&mut m, rows, snap.batches as f64 * per_round, 0.0);
    let ph = &pass.phases;
    let windows = ph.windows.max(1) as f64;
    m.put("serve.server_p50_us", snap.latency_us_p50 as f64, "us");
    m.put("serve.server_p99_us", snap.latency_us_p99 as f64, "us");
    m.put("serve.mean_batch", snap.mean_batch, "count");
    m.put(
        "serve.pool_sessions_per_batch",
        ratio(snap.pool_sessions as f64, snap.pool_batches as f64),
        "count",
    );
    m.put(
        "serve.pooled_frac",
        ratio(snap.pool_batches as f64, snap.batches as f64),
        "ratio",
    );
    m.put("serve.prepare_us", ph.prepare_ns / windows / 1e3, "us");
    m.put("serve.forward_us", ph.forward_ns / windows / 1e3, "us");
    m.put("serve.commit_us", ph.commit_ns / windows / 1e3, "us");
    let codec_ns = frame_codec_ns(&pass.codec_log);
    m.put("serve.frame_codec_ns", codec_ns, "ns");
    m.put(
        "serve.events_applied",
        snap.events as f64 * per_round,
        "count",
    );
    // Serving CPU time the spans explain: trace pulls, the shard's window
    // phases (timed on the same windows offline), and four codec passes
    // per request frame (client and server, each way).
    let attributed = layers.trace.secs()
        + (ph.prepare_ns + ph.forward_ns + ph.commit_ns) * 1e-9
        + 4.0 * codec_ns * pass.frames as f64 * 1e-9;
    m.put(
        "unattributed_frac",
        1.0 - ratio(attributed, pass.cpu_s),
        "ratio",
    );
    m.put(
        "trace_overhead_frac",
        plain.rate() / pass.rate() - 1.0,
        "ratio",
    );
    Outcome {
        attempted: plain.attempted + pass.attempted,
        failed: plain.failed + pass.failed,
        metrics: m,
    }
}
