//! Runtime-layer metrics from the sweep executor's JSONL run journal
//! (`RESEMBLE_RUN_JOURNAL`), which records every run's start and end and
//! every job's start and duration.

use crate::report::median;
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// An enabled journal file under the working directory.
pub struct Journal {
    path: PathBuf,
}

/// Per-run medians over the journaled runs.
#[derive(Debug, Default)]
pub struct RuntimeSummary {
    /// Job busy time of one run, summed over workers.
    pub busy_s: f64,
    /// Busy time ÷ (run wall time × workers).
    pub parallel_eff: f64,
    /// Time from the last job start to the end of the run.
    pub tail_s: f64,
    /// Every job's durations, start to result, one per run, by job key.
    pub job_s: BTreeMap<String, Vec<f64>>,
}

impl Journal {
    /// Point the executor's journal at a fresh file. Call before any
    /// thread starts: it sets a process environment variable.
    pub fn enable() -> Journal {
        let dir = PathBuf::from(".bench_run");
        std::fs::create_dir_all(&dir).expect("create .bench_run for the run journal");
        let path = dir.join(format!("journal-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        std::env::set_var("RESEMBLE_RUN_JOURNAL", &path);
        Journal { path }
    }

    /// Summarize the runs labelled `label`, stop journaling and delete
    /// the file.
    pub fn summarize(self, label: &str) -> RuntimeSummary {
        std::env::remove_var("RESEMBLE_RUN_JOURNAL");
        let text = std::fs::read_to_string(&self.path).unwrap_or_default();
        let _ = std::fs::remove_file(&self.path);
        summarize(&text, label)
    }
}

/// Summarize the journal text for runs labelled `label`.
pub fn summarize(text: &str, label: &str) -> RuntimeSummary {
    let (mut busy, mut eff, mut tail) = (Vec::new(), Vec::new(), Vec::new());
    let mut job_s: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let (mut workers, mut job_ms, mut last_start) = (1.0, 0.0, 0.0);
    for rec in text.lines().filter_map(|l| serde_json::from_str(l).ok()) {
        if rec.get("run").and_then(Value::as_str) != Some(label) {
            continue;
        }
        let num = |key: &str| rec.get(key).and_then(Value::as_f64);
        match rec.get("ev").and_then(Value::as_str) {
            Some("run_start") => {
                workers = num("workers").unwrap_or(1.0).max(1.0);
                job_ms = 0.0;
                last_start = num("t_ms").unwrap_or(0.0);
            }
            Some("start") => last_start = num("t_ms").unwrap_or(last_start),
            Some("finish") => {
                let ms = num("job_ms").unwrap_or(0.0);
                job_ms += ms;
                let job = rec.get("job").and_then(Value::as_str).unwrap_or_default();
                job_s.entry(job.to_string()).or_default().push(ms / 1e3);
            }
            Some("run_end") => {
                let run_ms = num("run_ms").unwrap_or(0.0).max(1.0);
                let end = num("t_ms").unwrap_or(last_start);
                busy.push(job_ms / 1e3);
                eff.push(job_ms / (run_ms * workers));
                tail.push((end - last_start).max(0.0) / 1e3);
            }
            _ => {}
        }
    }
    RuntimeSummary {
        busy_s: median(busy),
        parallel_eff: median(eff),
        tail_s: median(tail),
        job_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summarizes_runs_of_one_label() {
        let text = "\
{\"ev\":\"run_start\",\"run\":\"m\",\"jobs\":2,\"workers\":2,\"t_ms\":1000}
{\"ev\":\"start\",\"run\":\"m\",\"index\":0,\"job\":\"a\",\"t_ms\":1000}
{\"ev\":\"start\",\"run\":\"other\",\"index\":0,\"job\":\"x\",\"t_ms\":5000}
{\"ev\":\"start\",\"run\":\"m\",\"index\":1,\"job\":\"b\",\"t_ms\":1100}
{\"ev\":\"finish\",\"run\":\"m\",\"index\":0,\"job\":\"a\",\"outcome\":\"ok\",\"job_ms\":300,\"t_ms\":1300}
{\"ev\":\"finish\",\"run\":\"m\",\"index\":1,\"job\":\"b\",\"outcome\":\"ok\",\"job_ms\":500,\"t_ms\":1600}
{\"ev\":\"run_end\",\"run\":\"m\",\"jobs\":2,\"failed\":0,\"run_ms\":600,\"t_ms\":1600}
";
        let s = summarize(text, "m");
        assert!((s.busy_s - 0.8).abs() < 1e-12);
        assert!((s.parallel_eff - 800.0 / 1200.0).abs() < 1e-12);
        assert!((s.tail_s - 0.5).abs() < 1e-12);
        assert_eq!(s.job_s["a"], vec![0.3]);
        assert_eq!(s.job_s["b"], vec![0.5]);
        assert_eq!(s.job_s.len(), 2, "jobs of other runs are left out");
    }
}
