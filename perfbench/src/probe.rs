//! Spans around the calls the benchmark makes into each layer.
//!
//! Every timed wrapper accumulates into plain local counters and adds them
//! to a shared [`Layers`] record when it is dropped, so a traced run pays
//! two clock reads per wrapped call and no shared-memory traffic. The
//! wrappers forward every trait method unchanged; the bit-identity tests
//! pin that the simulated results do not move.

use resemble_prefetch::{CacheEvent, PredictionKind, Prefetcher, PrefetcherBank};
use resemble_trace::{MemAccess, TraceSource};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
// lint:allow(wall-clock-in-sim): the benchmark measures host time, which no simulated result sees
use std::time::Instant;

/// Busy time and call count of one span name, summed over threads.
#[derive(Debug, Default)]
pub struct Span {
    ns: AtomicU64,
    calls: AtomicU64,
}

impl Span {
    /// Add `ns` of busy time over `calls` calls.
    pub fn add(&self, ns: u64, calls: u64) {
        self.ns.fetch_add(ns, Relaxed);
        self.calls.fetch_add(calls, Relaxed);
    }

    /// Add the time `sw` has run as one call.
    pub fn since(&self, sw: Stopwatch) {
        self.add(sw.ns(), 1);
    }

    /// Busy time in seconds.
    pub fn secs(&self) -> f64 {
        self.ns.load(Relaxed) as f64 * 1e-9
    }

    /// Calls recorded.
    pub fn calls(&self) -> u64 {
        self.calls.load(Relaxed)
    }
}

/// A running host-time measurement: the benchmark's only clock.
#[derive(Debug, Clone, Copy)]
// lint:allow(wall-clock-in-sim): the benchmark measures host time, which no simulated result sees
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Start measuring.
    pub fn start() -> Stopwatch {
        // lint:allow(wall-clock-in-sim): the benchmark measures host time, which no simulated result sees
        Stopwatch(Instant::now())
    }

    /// Nanoseconds since the start.
    pub fn ns(self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Seconds since the start.
    pub fn secs(self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

/// The paper bank's members, in bank order; each gets its own span.
pub const MEMBERS: [&str; 4] = ["bo", "spp", "isb", "domino"];

/// The span a timed wrapper adds its time to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanId {
    /// One of the [`MEMBERS`], by index.
    Member(usize),
    /// Every call the engine makes into the prefetcher it hosts.
    TopPrefetcher,
    /// An SBP(E) ensemble, members included.
    SbpE,
    /// Members called from inside an SBP(E).
    SbpEMembers,
    /// A tabular ReSemble ensemble, members included.
    ResembleT,
    /// Members called from inside a tabular ReSemble.
    ResembleTMembers,
}

/// Span totals of one traced run, one field per layer boundary.
#[derive(Debug, Default)]
pub struct Layers {
    /// `TraceSource::next_batch` / `next_access`; calls count accesses.
    pub trace: Span,
    /// Building the app trace sources (`app_by_name`, graph included).
    pub trace_build: Span,
    /// `Engine::run`, everything inside included; calls count accesses.
    pub engine: Span,
    /// Engine → prefetcher calls (see [`SpanId::TopPrefetcher`]).
    pub top_prefetcher: Span,
    /// Cache events the engine delivered to its prefetcher.
    pub cache_events: AtomicU64,
    /// One span per [`MEMBERS`] entry; calls count `on_access` calls.
    pub members: [Span; 4],
    /// SBP(E) totals (see [`SpanId::SbpE`]).
    pub sbp_e: Span,
    /// Member time inside SBP(E).
    pub sbp_e_members: Span,
    /// Tabular ReSemble totals.
    pub resemble_t: Span,
    /// Member time inside tabular ReSemble.
    pub resemble_t_members: Span,
    /// DQN controller: `ReplayMemory` calls.
    pub core_replay: Span,
    /// DQN controller: `preprocess::mlp_state`.
    pub core_preprocess: Span,
    /// DQN controller: `DqnAgent::select_action`.
    pub core_act: Span,
    /// DQN controller: `DqnAgent::train_tick`.
    pub core_train: Span,
    /// SGD steps the DQN agents took.
    pub train_steps: AtomicU64,
    /// Prefetched/useful/missed totals of the simulated runs, for the
    /// simulated accuracy and coverage.
    pub issued: AtomicU64,
    /// Useful prefetches.
    pub useful: AtomicU64,
    /// LLC demand misses left with the prefetcher active.
    pub misses: AtomicU64,
}

impl Layers {
    /// The span an id names.
    pub fn span(&self, id: SpanId) -> &Span {
        match id {
            SpanId::Member(i) => &self.members[i],
            SpanId::TopPrefetcher => &self.top_prefetcher,
            SpanId::SbpE => &self.sbp_e,
            SpanId::SbpEMembers => &self.sbp_e_members,
            SpanId::ResembleT => &self.resemble_t,
            SpanId::ResembleTMembers => &self.resemble_t_members,
        }
    }

    /// Total member busy time, seconds.
    pub fn members_secs(&self) -> f64 {
        self.members.iter().map(Span::secs).sum()
    }

    /// Member `on_access` calls.
    pub fn member_calls(&self) -> u64 {
        self.members.iter().map(Span::calls).sum()
    }

    /// DQN controller self time (its four decomposed stages), seconds.
    pub fn dqn_secs(&self) -> f64 {
        self.core_replay.secs()
            + self.core_preprocess.secs()
            + self.core_act.secs()
            + self.core_train.secs()
    }

    /// SBP(E) time outside its members, seconds.
    pub fn sbp_e_self_secs(&self) -> f64 {
        (self.sbp_e.secs() - self.sbp_e_members.secs()).max(0.0)
    }

    /// Tabular ReSemble time outside its members, seconds.
    pub fn resemble_t_self_secs(&self) -> f64 {
        (self.resemble_t.secs() - self.resemble_t_members.secs()).max(0.0)
    }
}

/// A trace source whose pulls are timed into [`Layers::trace`].
pub struct TimedSource {
    inner: Box<dyn TraceSource + Send>,
    layers: Arc<Layers>,
    ns: u64,
    accesses: u64,
}

impl TimedSource {
    /// Wrap `inner`.
    pub fn new(inner: Box<dyn TraceSource + Send>, layers: Arc<Layers>) -> Self {
        Self {
            inner,
            layers,
            ns: 0,
            accesses: 0,
        }
    }
}

impl TraceSource for TimedSource {
    fn next_access(&mut self) -> Option<MemAccess> {
        let sw = Stopwatch::start();
        let a = self.inner.next_access();
        self.ns += sw.ns();
        self.accesses += u64::from(a.is_some());
        a
    }

    fn next_batch(&mut self, out: &mut Vec<MemAccess>, n: usize) -> usize {
        let sw = Stopwatch::start();
        let got = self.inner.next_batch(out, n);
        self.ns += sw.ns();
        self.accesses += got as u64;
        got
    }
}

impl Drop for TimedSource {
    fn drop(&mut self) {
        self.layers.trace.add(self.ns, self.accesses);
    }
}

/// A prefetcher whose calls are timed into one or two spans. Calls count
/// `on_access` invocations; cache events are counted when the wrapper is
/// the engine's top-level prefetcher.
pub struct Timed {
    inner: Box<dyn Prefetcher + Send>,
    layers: Arc<Layers>,
    spans: Vec<SpanId>,
    ns: u64,
    calls: u64,
    events: u64,
}

impl Timed {
    /// Wrap `inner`, adding its time to every span in `spans`.
    pub fn new(inner: Box<dyn Prefetcher + Send>, layers: Arc<Layers>, spans: Vec<SpanId>) -> Self {
        Self {
            inner,
            layers,
            spans,
            ns: 0,
            calls: 0,
            events: 0,
        }
    }

    fn timed<R>(&mut self, f: impl FnOnce(&mut (dyn Prefetcher + Send)) -> R) -> R {
        let sw = Stopwatch::start();
        let r = f(&mut *self.inner);
        self.ns += sw.ns();
        r
    }
}

impl Prefetcher for Timed {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn kind(&self) -> PredictionKind {
        self.inner.kind()
    }

    fn on_access(&mut self, access: &MemAccess, hit: bool, out: &mut Vec<u64>) {
        self.calls += 1;
        self.timed(|p| p.on_access(access, hit, out));
    }

    fn on_prefetch_fill(&mut self, addr: u64) {
        self.timed(|p| p.on_prefetch_fill(addr));
    }

    fn on_demand_fill(&mut self, addr: u64) {
        self.timed(|p| p.on_demand_fill(addr));
    }

    fn on_evict(&mut self, addr: u64, unused_prefetch: bool) {
        self.timed(|p| p.on_evict(addr, unused_prefetch));
    }

    fn on_cache_events(&mut self, events: &[CacheEvent]) {
        self.events += events.len() as u64;
        self.timed(|p| p.on_cache_events(events));
    }

    fn budget_bytes(&self) -> usize {
        self.inner.budget_bytes()
    }

    fn max_degree(&self) -> usize {
        self.inner.max_degree()
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

impl Drop for Timed {
    fn drop(&mut self) {
        for &id in &self.spans {
            self.layers.span(id).add(self.ns, self.calls);
        }
        if self.spans.contains(&SpanId::TopPrefetcher) {
            self.layers.cache_events.fetch_add(self.events, Relaxed);
        }
    }
}

/// A fresh, untimed instance of member `i` of the paper bank.
pub fn member(i: usize) -> Box<dyn Prefetcher + Send> {
    match i {
        0 => Box::new(resemble_prefetch::BestOffset::new()),
        1 => Box::new(resemble_prefetch::Spp::new()),
        2 => Box::new(resemble_prefetch::Isb::new()),
        _ => Box::new(resemble_prefetch::Domino::new()),
    }
}

/// The paper bank (BO, SPP, ISB, Domino) built from timed members; `inner`
/// names the span their time also counts toward inside an ensemble.
pub fn timed_paper_bank(layers: &Arc<Layers>, inner: Option<SpanId>) -> PrefetcherBank {
    PrefetcherBank::new(
        (0..MEMBERS.len())
            .map(|i| {
                let spans = std::iter::once(SpanId::Member(i)).chain(inner).collect();
                Box::new(Timed::new(member(i), layers.clone(), spans)) as Box<dyn Prefetcher + Send>
            })
            .collect(),
    )
}
