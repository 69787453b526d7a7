//! The HunIPU workspace benchmark: one command per workload that times
//! verified solves on the host clock, reads modeled device time from the
//! cycle model, checks every answer against an f64 Jonker–Volgenant
//! ground truth, and prints every metric by name and unit.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload dense-n256 --seed 1 --seconds 30 --trace 0 [--threads 1]
//! ```
//!
//! The last line of standard output is the JSON result. With `--trace 0`
//! it carries the end-to-end metrics, with `--trace 1` the per-layer
//! metrics, and the traced run also writes its spans as a Chrome trace
//! under `perfbench/out/`. See `perfbench/README.md` for the workloads,
//! the metrics and what each layer metric is expected to move.

mod device;
mod metrics;
mod serve_mix;
mod solves;
mod spans;

use lsap::{Assignment, CostMatrix};
use metrics::{median, Metrics};
use rand::{RngCore, SeedableRng};
use std::process::ExitCode;
use std::time::Instant;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["dense-n256", "serve-mix-n128", "tiled-n4096"];

/// End-to-end metrics `--trace 0` prints for every workload: name, unit.
/// Host wall time per operation is reported too, but per layer: on a
/// shared machine it moves between runs by more than any bound an
/// end-to-end metric may have (see the README).
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("device_ms_per_op", "ms"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("max_rate_rps", "req/s"),
    ("success_frac", "frac"),
];

/// Per-layer metrics `--trace 1` prints for every workload: name, unit.
/// A layer a workload does not exercise, or that cannot be timed from
/// outside on it, reads 0 (see the README's table).
pub const PER_LAYER: [(&str, &str); 52] = [
    ("wall_p50_s", "s"),
    ("wall_tail_s", "s"),
    ("ops_per_s", "1/s"),
    ("datasets.gen_s", "s"),
    ("cpu-hungarian.ground_truth_s", "s"),
    ("hunipu.compile_s", "s"),
    ("hunipu.program_load_cycles", "cycles"),
    ("hunipu.step1.compute_cycles", "cycles"),
    ("hunipu.step2.compute_cycles", "cycles"),
    ("hunipu.step3.compute_cycles", "cycles"),
    ("hunipu.step4.compute_cycles", "cycles"),
    ("hunipu.step5.compute_cycles", "cycles"),
    ("hunipu.step6.compute_cycles", "cycles"),
    ("hunipu.other.compute_cycles", "cycles"),
    ("hunipu.step4.iterations", "count"),
    ("hunipu.supersteps_per_step4_iter", "ratio"),
    ("hunipu.augmentations", "count"),
    ("hunipu.dual_updates", "count"),
    ("ipu-sim.run_s", "s"),
    ("ipu-sim.compute_cycles", "cycles"),
    ("ipu-sim.sync_cycles", "cycles"),
    ("ipu-sim.exchange_cycles", "cycles"),
    ("ipu-sim.control_cycles", "cycles"),
    ("ipu-sim.supersteps", "count"),
    ("ipu-sim.exchanges", "count"),
    ("ipu-sim.exchange_bytes", "bytes"),
    ("ipu-sim.host_bytes", "bytes"),
    ("ipu-sim.total_over_compute", "ratio"),
    ("ipu-sim.host_ns_per_superstep", "ns"),
    ("ipu-sim.peak_tile_bytes", "bytes"),
    ("lsap.verify_s", "s"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.queue_wait_tail_ms", "ms"),
    ("serve.service_p50_ms", "ms"),
    ("serve.device_busy_frac", "frac"),
    ("serve.rung.seeded", "count"),
    ("serve.rung.hunipu", "count"),
    ("serve.rung.cpu", "count"),
    ("serve.rung.greedy", "count"),
    ("serve.seeded_ratio", "ratio"),
    ("serve.seeded_fallbacks", "count"),
    ("serve.retries", "count"),
    ("serve.rerouted", "count"),
    ("serve.shed", "count"),
    ("serve.queue_high_water", "count"),
    ("serve.pool_hits", "count"),
    ("serve.pool_misses", "count"),
    ("serve.load_cycles_charged", "cycles"),
    ("serve.submit_s", "s"),
    ("serve.drain_s", "s"),
    ("failed_frac", "frac"),
    ("trace.overhead_s", "s"),
];

/// Command-line options.
#[derive(Debug, Clone, PartialEq)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Host simulator threads, at most the machine's parallelism.
    pub threads: usize,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        threads: 1,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => opts.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--threads" => opts.threads = value.parse().map_err(|e| bad(&e))?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(opts.seconds.is_finite() && opts.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let available = std::thread::available_parallelism().map_or(1, |n| n.get());
    if opts.threads == 0 || opts.threads > available {
        return Err(format!(
            "--threads must be between 1 and the machine's {available}"
        ));
    }
    Ok(opts)
}

/// What a workload run produced.
pub struct Run {
    pub e2e: Metrics,
    pub layer: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Answers that disagreed with the ground truth (also in `failed`).
    pub wrong: u64,
    pub notes: Vec<String>,
    pub tracer: spans::Tracer,
}

impl Run {
    fn new(setup_s: f64) -> Self {
        let mut e2e = Metrics::default();
        e2e.put("setup_s", setup_s, "s");
        Self {
            e2e,
            layer: Metrics::default(),
            attempted: 0,
            failed: 0,
            wrong: 0,
            notes: Vec::new(),
            tracer: spans::Tracer::default(),
        }
    }

    fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Counts a failed operation. Only the first few are described.
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failed <= 5 {
            self.notes.push(format!("FAILED {why}"));
        }
    }

    /// Counts a wrong answer, which is also a failed operation.
    fn wrong(&mut self, why: String) {
        self.wrong += 1;
        self.fail(why);
    }
}

/// Host seconds of one set-up, by phase.
pub struct SetupTimes {
    pub gen_s: f64,
    pub truth_s: f64,
    pub compile_s: f64,
}

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Runs the set-up [`SETUP_REPS`] times and keeps the last result. The
/// run's record starts with the medians: `setup_s` end to end, and the
/// generation and ground-truth phases per layer.
fn set_up<T>(mut setup: impl FnMut() -> (T, SetupTimes)) -> (T, Run, SetupTimes) {
    let mut total = Vec::new();
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t = Instant::now();
        let (value, phases) = setup();
        total.push(t.elapsed().as_secs_f64());
        times.push(phases);
        last = Some(value);
    }
    let med = |f: fn(&SetupTimes) -> f64| median(&times.iter().map(f).collect::<Vec<_>>());
    let medians = SetupTimes {
        gen_s: med(|t| t.gen_s),
        truth_s: med(|t| t.truth_s),
        compile_s: med(|t| t.compile_s),
    };
    let mut run = Run::new(median(&total));
    run.layer.put("datasets.gen_s", medians.gen_s, "s");
    run.layer
        .put("cpu-hungarian.ground_truth_s", medians.truth_s, "s");
    (last.expect("at least one set-up"), run, medians)
}

/// `count` instance seeds drawn from the workload seed and a per-use salt.
pub fn seeds(seed: u64, salt: u64, count: usize) -> Vec<u64> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ salt.rotate_left(32));
    (0..count).map(|_| rng.next_u64()).collect()
}

/// The ground-truth check: a perfect matching whose cost under `m`, and
/// whose claimed objective, both equal the f64 JV optimum.
pub fn matches_truth(m: &CostMatrix, a: &Assignment, claimed: f64, truth: f64) -> bool {
    let close = |x: f64| (x - truth).abs() <= 1e-9 * truth.abs().max(1.0);
    a.is_perfect() && a.cost(m).is_ok_and(close) && close(claimed)
}

fn run(opts: &Opts) -> Run {
    let mut run = match opts.workload.as_str() {
        "dense-n256" => solves::dense(opts),
        "tiled-n4096" => solves::tiled(opts),
        "serve-mix-n128" => serve_mix::serve_mix(opts),
        other => unreachable!("workload {other} passed argument checks"),
    };
    let failed_frac = run.failed as f64 / run.attempted.max(1) as f64;
    run.e2e.put("success_frac", 1.0 - failed_frac, "frac");
    let l = &mut run.layer;
    l.put("failed_frac", failed_frac, "frac");
    for (name, unit) in PER_LAYER {
        if run.layer.get(name).is_none() {
            run.layer.put(name, 0.0, unit);
        }
    }
    run
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1 [--threads T]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let available = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench workload={} seed={} seconds={} trace={} threads={} (available_parallelism={available})",
        opts.workload, opts.seed, opts.seconds, opts.trace as u8, opts.threads
    );
    let started = Instant::now();
    let run = run(&opts);

    for line in &run.notes {
        println!("note: {line}");
    }
    println!(
        "attempted={} failed={} wrong={} failed_frac={:.6} elapsed_s={:.1}",
        run.attempted,
        run.failed,
        run.wrong,
        run.failed as f64 / run.attempted.max(1) as f64,
        started.elapsed().as_secs_f64()
    );
    let mut out = if opts.trace {
        match write_trace(&opts, &run.tracer) {
            Ok(path) => println!("trace: {path}"),
            Err(e) => {
                eprintln!("perfbench: could not write the trace: {e}");
                return ExitCode::FAILURE;
            }
        }
        run.layer.clone()
    } else {
        run.e2e.clone()
    };
    let wanted: Vec<&str> = if opts.trace {
        PER_LAYER.iter().map(|m| m.0).collect()
    } else {
        END_TO_END.iter().map(|m| m.0).collect()
    };
    out.retain(|name| wanted.contains(&name));
    assert_eq!(out.names().count(), wanted.len(), "a metric is missing");
    println!(
        "metrics ({}):",
        if opts.trace {
            "per-layer"
        } else {
            "end-to-end"
        }
    );
    print!("{}", out.table());
    println!(
        "{}",
        metrics::result_json(run.wrong == 0, run.attempted, run.failed, &out)
    );
    ExitCode::SUCCESS
}

/// Writes the spans once, at the end, as a Chrome trace next to the
/// benchmark's sources, and checks the file against the trace schema.
fn write_trace(opts: &Opts, tracer: &spans::Tracer) -> Result<String, String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!("trace-{}-seed{}.json", opts.workload, opts.seed));
    let json = tracer.chrome_trace(&opts.workload).to_json();
    trace::ChromeTrace::validate_json(&json)?;
    std::fs::write(&path, json).map_err(|e| e.to_string())?;
    Ok(path.display().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn arguments_parse_and_bad_ones_are_refused() {
        let o = parse_args(&args(
            "--workload tiled-n4096 --seed 7 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!((o.seed, o.seconds, o.trace, o.threads), (7, 3.0, true, 1));
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--workload dense-n256 --trace 2")).is_err());
        assert!(parse_args(&args("--workload dense-n256 --threads 0")).is_err());
        assert!(parse_args(&args("--workload dense-n256 --threads 100000")).is_err());
        assert!(parse_args(&args("--workload dense-n256 --seed")).is_err());
    }

    #[test]
    fn every_metric_name_follows_the_grammar_and_is_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, _) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(metrics::valid_name(name), "{name}");
            assert!(seen.insert(*name), "{name} listed twice");
        }
    }

    /// The workloads and metric lists here and in `BENCHMARK.json` are
    /// the same, in the same order, with the same units.
    #[test]
    fn benchmark_json_lists_what_this_program_prints() {
        use serde::Value;
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let spec: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let field = |v: &Value, key: &str| -> Value {
            match v {
                Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).expect(key).1.clone(),
                other => panic!("expected an object, got {other:?}"),
            }
        };
        let text_of = |v: Value| match v {
            Value::Str(s) => s,
            other => panic!("expected a string, got {other:?}"),
        };
        let entries = |section: &str, second: &str| -> Vec<(String, String)> {
            match field(&spec, section) {
                Value::Arr(items) => items
                    .iter()
                    .map(|e| (text_of(field(e, "name")), text_of(field(e, second))))
                    .collect(),
                other => panic!("{section} is not an array: {other:?}"),
            }
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(entries("end_to_end", "unit"), own(&END_TO_END));
        assert_eq!(entries("per_layer", "unit"), own(&PER_LAYER));
        let workloads: Vec<String> = entries("workloads", "name")
            .into_iter()
            .map(|w| w.0)
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn ground_truth_check_rejects_suboptimal_and_partial_answers() {
        let m = CostMatrix::from_rows(&[&[4.0, 1.0], &[2.0, 8.0]]).unwrap();
        let best = Assignment::from_permutation(vec![1, 0]);
        let worse = Assignment::from_permutation(vec![0, 1]);
        assert!(matches_truth(&m, &best, 3.0, 3.0));
        assert!(!matches_truth(&m, &worse, 12.0, 3.0));
        assert!(
            !matches_truth(&m, &best, 2.0, 3.0),
            "a misreported objective fails"
        );
        let partial = Assignment::from_row_to_col(vec![Some(1), None]);
        assert!(!matches_truth(&m, &partial, 1.0, 1.0));
    }
}
