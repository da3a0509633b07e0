//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload and prints its result as one JSON line, last on
//! standard output.

use resemble_perfbench::{run, WORKLOADS};

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload {{{}}} --seed N --seconds S --trace 0|1",
        WORKLOADS.join(",")
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            usage("every flag takes a value")
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        usage("--workload, --seed, --seconds and --trace are all required")
    };
    eprintln!(
        "host: nproc {}, kernel backend {}, cpu caps {}",
        resemble_runtime::host_parallelism(),
        resemble_nn::simd::dispatched().name(),
        resemble_nn::simd::capabilities().summary()
    );
    match run(&workload, seed, seconds, trace) {
        Some(outcome) => println!("{}", outcome.to_json()),
        None => usage(&format!("unknown workload '{workload}'")),
    }
}
