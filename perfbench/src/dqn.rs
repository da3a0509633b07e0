//! Algorithm 1 of the paper decomposed over the public controller parts,
//! with a span around each stage.
//!
//! `ResembleMlp::on_access` runs the whole loop in one call, so a wrapper
//! can only time it as a block. This controller performs the same steps
//! in the same order through the public `ReplayMemory`,
//! `preprocess::mlp_state` and `DqnAgent` calls, which lets the traced
//! run split controller time into replay, preprocess, act and train. The
//! bit-identity tests pin that it simulates exactly like `ResembleMlp`.

use crate::probe::{Layers, Stopwatch};
use resemble_core::preprocess::mlp_state;
use resemble_core::{DqnAgent, EnsembleStats, ReplayMemory, ResembleConfig};
use resemble_prefetch::{CacheEvent, PredictionKind, Prefetcher, PrefetcherBank};
use resemble_trace::record::block_of;
use resemble_trace::MemAccess;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

/// The DQN ensemble controller with per-stage spans.
pub struct DecomposedMlp {
    bank: PrefetcherBank,
    kinds: Vec<PredictionKind>,
    agent: DqnAgent,
    replay: ReplayMemory,
    cfg: ResembleConfig,
    seed: u64,
    prev_id: Option<u64>,
    obs_buf: Vec<Option<u64>>,
    state_buf: Vec<f32>,
    blocks_buf: Vec<u64>,
    assigned: Vec<(u64, f32)>,
    stats: EnsembleStats,
    layers: Arc<Layers>,
    /// replay, preprocess, act, train busy nanoseconds
    ns: [u64; 4],
}

impl DecomposedMlp {
    /// The same controller `ResembleMlp::new(bank, cfg, seed)` builds.
    pub fn new(bank: PrefetcherBank, cfg: ResembleConfig, seed: u64, layers: Arc<Layers>) -> Self {
        assert_eq!(bank.len(), cfg.state_dim, "bank size must equal state_dim");
        Self {
            kinds: bank.kinds(),
            agent: DqnAgent::new(cfg, seed),
            replay: ReplayMemory::new(cfg.replay_capacity, cfg.window, cfg.input_dim()),
            stats: EnsembleStats::new(cfg.action_dim, 1000),
            cfg,
            seed,
            bank,
            prev_id: None,
            obs_buf: Vec::new(),
            state_buf: Vec::new(),
            blocks_buf: Vec::new(),
            assigned: Vec::new(),
            layers,
            ns: [0; 4],
        }
    }
}

impl Prefetcher for DecomposedMlp {
    fn name(&self) -> &'static str {
        "resemble"
    }

    fn kind(&self) -> PredictionKind {
        PredictionKind::Temporal
    }

    fn on_access(&mut self, access: &MemAccess, hit: bool, out: &mut Vec<u64>) {
        let block = block_of(access.addr);
        let t = Stopwatch::start();
        self.replay.on_access(block, &mut self.assigned);
        self.ns[0] += t.ns();
        let reward_sum: f64 = self.assigned.iter().map(|&(_, r)| r as f64).sum();

        self.obs_buf.clear();
        self.obs_buf
            .extend_from_slice(self.bank.observe(access, hit));
        let t = Stopwatch::start();
        mlp_state(
            &self.obs_buf,
            &self.kinds,
            access.addr,
            access.pc,
            &self.cfg,
            &mut self.state_buf,
        );
        self.ns[1] += t.ns();

        let t = Stopwatch::start();
        if let Some(pid) = self.prev_id {
            self.replay.set_next_state(pid, &self.state_buf);
        }
        self.ns[0] += t.ns();

        let t = Stopwatch::start();
        let action = self.agent.select_action(&self.state_buf);
        self.ns[2] += t.ns();
        self.blocks_buf.clear();
        if action < self.bank.len() {
            let sugg = self.bank.suggestions(action);
            out.extend_from_slice(sugg);
            self.blocks_buf.extend(sugg.iter().map(|&p| block_of(p)));
        }
        let t = Stopwatch::start();
        self.prev_id = Some(self.replay.push(&self.state_buf, action, &self.blocks_buf));
        self.ns[0] += t.ns();
        self.stats.record(action, reward_sum);

        let t = Stopwatch::start();
        self.agent.train_tick(&mut self.replay);
        self.ns[3] += t.ns();
    }

    fn on_prefetch_fill(&mut self, addr: u64) {
        self.bank.on_prefetch_fill(addr);
    }

    fn on_demand_fill(&mut self, addr: u64) {
        self.bank.on_demand_fill(addr);
    }

    fn on_evict(&mut self, addr: u64, unused_prefetch: bool) {
        self.bank.on_evict(addr, unused_prefetch);
    }

    fn on_cache_events(&mut self, events: &[CacheEvent]) {
        self.bank.on_cache_events(events);
    }

    fn budget_bytes(&self) -> usize {
        self.bank.budget_bytes() + self.agent.param_count() * 2
    }

    fn reset(&mut self) {
        self.bank.reset();
        self.agent = DqnAgent::new(self.cfg, self.seed);
        self.replay = ReplayMemory::new(
            self.cfg.replay_capacity,
            self.cfg.window,
            self.cfg.input_dim(),
        );
        self.stats = EnsembleStats::new(self.cfg.action_dim, 1000);
        self.prev_id = None;
    }
}

impl Drop for DecomposedMlp {
    fn drop(&mut self) {
        let l = &self.layers;
        for (span, &ns) in [
            &l.core_replay,
            &l.core_preprocess,
            &l.core_act,
            &l.core_train,
        ]
        .into_iter()
        .zip(&self.ns)
        {
            span.add(ns, 0);
        }
        l.train_steps.fetch_add(self.agent.train_steps, Relaxed);
    }
}
