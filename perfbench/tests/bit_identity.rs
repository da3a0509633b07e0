//! Tracing changes nothing measured: the timed trace sources, the timed
//! members, the timed ensembles and the decomposed DQN controller give
//! results bit-identical to the untraced builds.

use resemble_bench::{run_one, SweepParams};
use resemble_perfbench::probe::Layers;
use resemble_perfbench::servewl::{timed_builder, MODEL};
use resemble_perfbench::simwl::{same_stats, traced_sim};
use resemble_serve::SessionModel;
use resemble_sim::SimConfig;
use resemble_trace::gen::app_by_name;
use resemble_trace::TraceSource;
use std::sync::Arc;

const APPS: [&str; 5] = ["433.milc", "433.lbm", "429.mcf", "471.omnetpp", "gap.pr"];
const PFS: [&str; 7] = [
    "resemble",
    "resemble_t",
    "sbp_e",
    "bo",
    "spp",
    "isb",
    "domino",
];

#[test]
fn traced_simulations_match_untraced_ones_bit_for_bit() {
    for app in APPS {
        for fast in [true, false] {
            let p = SweepParams {
                warmup: 1_500,
                measure: 4_500,
                seed: 11,
                fast,
                sim: SimConfig::harness(),
                jobs: 1,
            };
            let layers = Arc::new(Layers::default());
            let baseline = traced_sim(app, None, &p, &layers);
            for pf in PFS {
                let plain = run_one(app, pf, &p);
                assert!(same_stats(&plain.baseline, &baseline), "{app} baseline");
                let traced = traced_sim(app, Some(pf), &p, &layers);
                assert!(
                    same_stats(&plain.with_pf, &traced),
                    "{app}/{pf} (fast={fast}): {:?} != {:?}",
                    plain.with_pf,
                    traced
                );
            }
            // The spans saw the work they wrap.
            let runs = (PFS.len() + 1) as u64;
            assert_eq!(layers.trace.calls(), runs * (p.warmup + p.measure) as u64);
            assert!(layers.core_train.secs() > 0.0 && layers.sbp_e.secs() > 0.0);
            assert!(layers.train_steps_per(1.0) > 0.0);
            assert!(layers.members.iter().all(|m| m.calls() > 0));
        }
    }
}

#[test]
fn timed_serving_model_decides_like_the_built_in_one() {
    let trace: Vec<_> = app_by_name("471.omnetpp", 3)
        .expect("known app")
        .source
        .collect_n(6_000)
        .into_iter()
        .enumerate()
        .map(|(i, a)| (a, i % 3 == 0))
        .collect();
    let layers = Arc::new(Layers::default());
    let mut timed = timed_builder(layers.clone())(MODEL, 5, true).expect("builds");
    let mut plain = SessionModel::build(MODEL, 5, true).expect("builds");
    let decide = |m: &mut SessionModel| {
        let mut out = Vec::new();
        for run in trace.chunks(16) {
            m.on_run(run, |_, issued| out.push(issued.to_vec()));
        }
        out
    };
    assert_eq!(decide(&mut timed), decide(&mut plain));
    drop(timed);
    assert_eq!(layers.member_calls(), 4 * trace.len() as u64);
}
