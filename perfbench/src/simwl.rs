//! The simulation workloads: an `apps × prefetchers` matrix run through
//! `runner::run_matrix` on the `resemble-runtime` sweep, repeated in
//! rounds with identical inputs for the run's seconds.
//!
//! The traced pass rebuilds the same matrix on a `Sweep` with timed
//! sources, timed members and the decomposed DQN controller, and checks
//! that every result equals the untraced one.

use crate::dqn::DecomposedMlp;
use crate::probe::{member, timed_paper_bank, Layers, SpanId, Stopwatch, Timed, TimedSource};
use crate::report::{
    median, process_cpu_s, quantile_sorted, steady_latency, steady_rate, thread_cpu_s, HostTicks,
    Metrics, Outcome, RoundClock,
};
use crate::runtime_journal::Journal;
use resemble_bench::factory::{self, MAIN_LINEUP};
use resemble_bench::{run_matrix, RunResult, SweepParams};
use resemble_core::{ResembleConfig, ResembleTabular, SbpE};
use resemble_prefetch::Prefetcher;
use resemble_runtime::Sweep;
use resemble_sim::{Engine, SimStats};
use resemble_trace::gen::app_by_name;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, OnceLock};

/// One simulation workload: the matrix one round runs.
pub struct SimSpec {
    /// Applications (rows).
    pub apps: &'static [&'static str],
    /// Prefetchers (columns); each app's no-prefetch baseline runs once
    /// per round besides these.
    pub pfs: &'static [&'static str],
}

/// Figs 8–10 lineup on one app per pattern class: graph, short-lag
/// streaming, PC-local temporal.
///
/// Graph apps come first in both matrices: their jobs then start side by
/// side on every worker, so two graphs are resident at once in every run.
/// Later in the matrix, whether two graph jobs overlap depends on how the
/// controller jobs before them happened to finish, and the peak resident
/// set jumps by a graph's size from run to run.
pub const PAPER_MATRIX: SimSpec = SimSpec {
    apps: &["gap.pr", "433.milc", "471.omnetpp"],
    pfs: MAIN_LINEUP,
};

/// The members and SBP(E) without a neural network, over graph, streaming
/// and irregular apps whose footprints differ against the LLC.
pub const MEMBERS_SWEEP: SimSpec = SimSpec {
    apps: &[
        "gap.pr",
        "gap.cc",
        "gap.bfs",
        "433.lbm",
        "433.milc",
        "429.mcf",
        "471.omnetpp",
        "623.xalancbmk",
    ],
    pfs: &["bo", "spp", "isb", "domino", "sbp_e"],
};

/// Times set-up is repeated to report its median.
const SETUP_REPS: usize = 25;

/// The sweep parameters of a round: the harness defaults (20k warmup,
/// 80k measured accesses, fast controller config) on every host core.
pub fn params(seed: u64) -> SweepParams {
    SweepParams {
        seed,
        jobs: resemble_runtime::host_parallelism(),
        ..SweepParams::default()
    }
}

impl SimSpec {
    fn app_names(&self) -> Vec<String> {
        self.apps.iter().map(|a| a.to_string()).collect()
    }

    fn jobs(&self) -> usize {
        self.apps.len() * self.pfs.len()
    }

    /// Simulated accesses one round performs: every job plus one
    /// baseline per app, each over warmup and measure.
    fn accesses_per_round(&self, p: &SweepParams) -> u64 {
        ((self.jobs() + self.apps.len()) * (p.warmup + p.measure)) as u64
    }
}

/// Jobs of `round` that fail a check: a missing result, a measured
/// window of the wrong length, baseline and prefetcher runs that retired
/// different instruction counts, or a result that differs from the first
/// round's (every round simulates identical inputs).
fn failed_jobs(spec: &SimSpec, p: &SweepParams, round: &[RunResult], first: &[RunResult]) -> usize {
    if round.len() != spec.jobs() {
        return spec.jobs();
    }
    let measure = p.measure as u64;
    round
        .iter()
        .zip(first)
        .filter(|(r, f)| {
            r.baseline.demand_accesses != measure
                || r.with_pf.demand_accesses != measure
                || r.baseline.instructions != r.with_pf.instructions
                || !same_result(r, f)
        })
        .count()
}

/// Bitwise equality of two results.
pub fn same_result(a: &RunResult, b: &RunResult) -> bool {
    a.app == b.app
        && a.pf == b.pf
        && same_stats(&a.baseline, &b.baseline)
        && same_stats(&a.with_pf, &b.with_pf)
}

/// Bitwise equality of two stats records.
pub fn same_stats(a: &SimStats, b: &SimStats) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

/// Build one input trace per app and one model per prefetcher, as every
/// job of a round does before its first access; returns the CPU seconds
/// of this thread, which leave out time the host steals from it.
fn setup_once(spec: &SimSpec, p: &SweepParams) -> f64 {
    let mut s = 0.0;
    for app in spec.apps {
        let t0 = thread_cpu_s();
        let src = app_by_name(app, p.seed).expect("workload apps are valid");
        let engine = Engine::new(p.sim);
        s += thread_cpu_s() - t0;
        drop((src, engine));
    }
    for pf in spec.pfs {
        let t0 = thread_cpu_s();
        let model = factory::make(pf, p.seed, p.fast);
        s += thread_cpu_s() - t0;
        drop(model);
    }
    s
}

/// Result of the untraced rounds.
struct Rounds {
    clock: RoundClock,
    /// process CPU seconds of each round
    cpu_s: Vec<f64>,
    /// share of each round's host CPU time the host stole
    steal: Vec<f64>,
    /// peak resident set over the rounds, MiB
    peak_rss_mb: f64,
    attempted: u64,
    failed: u64,
    first: Vec<RunResult>,
}

/// Run untraced rounds for `seconds`.
fn untraced_rounds(spec: &SimSpec, p: &SweepParams, seconds: f64) -> Rounds {
    let apps = spec.app_names();
    let mut out = Rounds {
        clock: RoundClock::new(seconds),
        cpu_s: Vec::new(),
        steal: Vec::new(),
        peak_rss_mb: 0.0,
        attempted: 0,
        failed: 0,
        first: Vec::new(),
    };
    while out.clock.more() {
        let (t0, cpu0, ticks0) = (Stopwatch::start(), process_cpu_s(), HostTicks::now());
        let round = catch_unwind(AssertUnwindSafe(|| run_matrix(&apps, spec.pfs, p)));
        let dt = t0.secs();
        out.clock.record(dt);
        out.cpu_s.push(process_cpu_s() - cpu0);
        out.steal.push(HostTicks::now().steal_share_since(ticks0));
        out.attempted += spec.jobs() as u64;
        let round = round.unwrap_or_default();
        if out.first.is_empty() {
            out.first = round.clone();
        }
        out.failed += failed_jobs(spec, p, &round, &out.first) as u64;
        eprintln!(
            "round {}: {:.0} accesses/s, {:.0} per CPU-second, {:.1}% stolen",
            out.clock.rounds(),
            spec.accesses_per_round(p) as f64 / dt,
            spec.accesses_per_round(p) as f64 / out.cpu_s[out.cpu_s.len() - 1],
            out.steal[out.steal.len() - 1] * 100.0
        );
    }
    out.peak_rss_mb = crate::report::peak_rss_mb();
    out
}

/// Mean IPC improvement (%) of every prefetcher over its app's baseline.
fn ipc_gain_pct(results: &[RunResult]) -> f64 {
    results
        .iter()
        .map(RunResult::ipc_improvement_pct)
        .sum::<f64>()
        / results.len().max(1) as f64
}

/// The end-to-end run. Rates are per second of the process's CPU time,
/// which on a paravirtualized guest leaves out the time the host steals
/// and does not depend on how the jobs happened to share the workers.
/// Round-trip times are job latencies, a job's start to its result (from
/// the sweep's run journal), less the share of their round the host stole.
/// Both are taken over the rounds with `steady_rate`/`steady_latency`.
pub fn run(spec: &SimSpec, seed: u64, seconds: f64) -> Outcome {
    let p = params(seed);
    let journal = Journal::enable();
    let r = untraced_rounds(spec, &p, seconds);
    let setup = median((0..SETUP_REPS).map(|_| setup_once(spec, &p)).collect());
    // One journaled run per round, in round order.
    let job_s = journal.summarize("run_matrix").job_s;
    let mut jobs: Vec<f64> = job_s
        .into_values()
        .map(|s| {
            let s: Vec<f64> = s
                .iter()
                .zip(&r.steal)
                .map(|(s, st)| s * (1.0 - st))
                .collect();
            steady_latency(&s)
        })
        .collect();
    jobs.sort_by(f64::total_cmp);
    let us = |q| quantile_sorted(&jobs, q).unwrap_or(0.0) * 1e6;
    let mut m = Metrics::default();
    m.put("setup_s", setup, "s");
    m.put("peak_rss_mb", r.peak_rss_mb, "MB");
    let per_cpu_s = |accesses: f64| {
        let rates: Vec<f64> = r.cpu_s.iter().map(|s| accesses / s).collect();
        steady_rate(&rates)
    };
    let pf_accesses = (spec.jobs() * (p.warmup + p.measure)) as f64;
    m.put(
        "accesses_per_s",
        per_cpu_s(spec.accesses_per_round(&p) as f64),
        "1/s",
    );
    m.put("decisions_per_s", per_cpu_s(pf_accesses), "1/s");
    m.put("rtt_p50_us", us(0.5), "us");
    m.put("rtt_p99_us", us(0.99), "us");
    Outcome {
        attempted: r.attempted,
        failed: r.failed,
        metrics: m,
    }
}

/// A prefetcher by factory name, built from timed parts.
pub fn traced_prefetcher(
    name: &str,
    seed: u64,
    fast: bool,
    layers: &Arc<Layers>,
) -> Box<dyn Prefetcher + Send> {
    let cfg = if fast {
        ResembleConfig::fast()
    } else {
        ResembleConfig::default()
    };
    let (inner, mut spans): (Box<dyn Prefetcher + Send>, Vec<SpanId>) = match name {
        "sbp_e" => (
            Box::new(SbpE::new(
                timed_paper_bank(layers, Some(SpanId::SbpEMembers)),
                256,
            )),
            vec![SpanId::SbpE],
        ),
        "resemble_t" => (
            Box::new(ResembleTabular::new(
                timed_paper_bank(layers, Some(SpanId::ResembleTMembers)),
                cfg,
                8,
                seed,
            )),
            vec![SpanId::ResembleT],
        ),
        "resemble" => (
            Box::new(DecomposedMlp::new(
                timed_paper_bank(layers, None),
                cfg,
                seed,
                layers.clone(),
            )),
            vec![],
        ),
        _ => {
            let i = crate::probe::MEMBERS
                .iter()
                .position(|m| *m == name)
                .unwrap_or_else(|| panic!("no traced build of prefetcher '{name}'"));
            (member(i), vec![SpanId::Member(i)])
        }
    };
    spans.push(SpanId::TopPrefetcher);
    Box::new(Timed::new(inner, layers.clone(), spans))
}

/// One simulation with timed parts, on the same trace window as
/// `runner::run_one`.
pub fn traced_sim(app: &str, pf: Option<&str>, p: &SweepParams, layers: &Arc<Layers>) -> SimStats {
    let t0 = Stopwatch::start();
    let src = app_by_name(app, p.seed)
        .expect("workload apps are valid")
        .source;
    layers.trace_build.since(t0);
    let mut src = TimedSource::new(src, layers.clone());
    let mut engine = Engine::new(p.sim);
    let mut pref = pf.map(|pf| traced_prefetcher(pf, p.seed, p.fast, layers));
    let t0 = Stopwatch::start();
    let stats = engine.run(
        &mut src,
        pref.as_deref_mut().map(|x| x as &mut dyn Prefetcher),
        p.warmup,
        p.measure,
    );
    layers.engine.add(t0.ns(), (p.warmup + p.measure) as u64);
    if pf.is_some() {
        layers.issued.fetch_add(stats.prefetches_issued, Relaxed);
        layers.useful.fetch_add(stats.prefetches_useful, Relaxed);
        layers.misses.fetch_add(stats.llc_demand_misses, Relaxed);
    }
    stats
}

/// One traced round, job for job the matrix `run_matrix` runs.
pub struct TracedRound {
    /// Results in `run_matrix` order.
    pub results: Vec<RunResult>,
    /// Seconds of wall time.
    pub wall_s: f64,
    /// Seconds the jobs were busy, summed over workers.
    pub busy_s: f64,
    /// Baseline simulations executed.
    pub baseline_runs: usize,
}

/// Run one traced round.
pub fn traced_round(spec: &SimSpec, p: &SweepParams, layers: &Arc<Layers>) -> TracedRound {
    let cells: Vec<OnceLock<SimStats>> = spec.apps.iter().map(|_| OnceLock::new()).collect();
    let baseline_runs = AtomicUsize::new(0);
    let busy_ns = std::sync::atomic::AtomicU64::new(0);
    let mut sweep = Sweep::quiet("perfbench_traced", p.jobs).base_seed(p.seed);
    for (ai, &app) in spec.apps.iter().enumerate() {
        for &pf in spec.pfs {
            let (cells, baseline_runs, busy_ns) = (&cells, &baseline_runs, &busy_ns);
            sweep.push(format!("{app}/{pf}"), move |_ctx| {
                let t0 = Stopwatch::start();
                let baseline = *cells[ai].get_or_init(|| {
                    baseline_runs.fetch_add(1, Relaxed);
                    traced_sim(app, None, p, layers)
                });
                let r = RunResult {
                    app: app.to_string(),
                    pf: pf.to_string(),
                    baseline,
                    with_pf: traced_sim(app, Some(pf), p, layers),
                };
                busy_ns.fetch_add(t0.ns(), Relaxed);
                r
            });
        }
    }
    let t0 = Stopwatch::start();
    let results = sweep
        .try_run()
        .results
        .into_iter()
        .filter_map(Result::ok)
        .collect();
    TracedRound {
        results,
        wall_s: t0.secs(),
        busy_s: busy_ns.load(Relaxed) as f64 * 1e-9,
        baseline_runs: baseline_runs.load(Relaxed),
    }
}

/// The traced run: half the time untraced (for the overhead and the
/// runtime journal), half traced; per-layer metrics per round.
pub fn run_traced(spec: &SimSpec, seed: u64, seconds: f64) -> Outcome {
    let p = params(seed);
    let journal = Journal::enable();
    let untraced = untraced_rounds(spec, &p, seconds / 2.0);
    let runtime = journal.summarize("run_matrix");

    let layers = Arc::new(Layers::default());
    let (mut busy, mut baselines) = (0.0, 0usize);
    let (mut attempted, mut failed) = (untraced.attempted, untraced.failed);
    let mut clock = RoundClock::new(seconds / 2.0);
    while clock.more() {
        let r = traced_round(spec, &p, &layers);
        clock.record(r.wall_s);
        attempted += spec.jobs() as u64;
        failed += failed_jobs(spec, &p, &r.results, &untraced.first) as u64;
        busy += r.busy_s;
        baselines += r.baseline_runs;
    }
    let wall = clock.total_s();
    let per_round = 1.0 / clock.rounds() as f64;
    let l = &layers;
    let accesses = l.engine.calls() as f64;
    let sim_self = (l.engine.secs() - l.trace.secs() - l.top_prefetcher.secs()).max(0.0);
    let core_self = l.dqn_secs() + l.sbp_e_self_secs() + l.resemble_t_self_secs();
    let idle = (wall * p.jobs as f64 - busy).max(0.0);
    let attributed =
        l.trace_build.secs() + l.trace.secs() + sim_self + l.members_secs() + core_self + idle;

    let mut m = crate::layers::common(l, per_round);
    m.put("sim.self_s", sim_self * per_round, "s");
    m.put("sim.self_ns_per_access", sim_self * 1e9 / accesses, "ns");
    m.put("sim.ipc_gain_pct", ipc_gain_pct(&untraced.first), "%");
    m.put("runtime.busy_s", runtime.busy_s, "s");
    m.put("runtime.parallel_eff", runtime.parallel_eff, "ratio");
    m.put("runtime.tail_s", runtime.tail_s, "s");
    m.put(
        "runtime.baseline_runs",
        baselines as f64 * per_round,
        "count",
    );
    let steps = l.train_steps_per(per_round);
    let batch = ResembleConfig::fast().batch_size;
    crate::layers::nn_probe(&mut m, batch, 2.0 * steps, steps);
    crate::layers::serve_absent(&mut m);
    m.put(
        "unattributed_frac",
        1.0 - attributed / (wall * p.jobs as f64),
        "ratio",
    );
    m.put(
        "trace_overhead_frac",
        clock.median_s() / untraced.clock.median_s() - 1.0,
        "ratio",
    );
    Outcome {
        attempted,
        failed,
        metrics: m,
    }
}
