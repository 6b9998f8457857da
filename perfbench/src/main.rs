//! `hrmc-perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload loopback-bulk --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Runs one workload for `--seconds`, checks every output, and prints as
//! its last stdout line one JSON object: `correct`, `attempted`,
//! `failed`, and `metrics` — the end-to-end metrics with `--trace 0`, the
//! per-layer metrics (plus the tracing overhead) with `--trace 1`. A
//! traced run also writes its spans, with self times, to
//! `perfbench/out/`. See `perfbench/README.md` for the workloads and the
//! layer → end-to-end map.

mod host;
mod live;
mod metrics;
mod probes;
mod sim;
mod spans;
mod stats;

use std::process::ExitCode;
use std::time::Instant;

use metrics::{Outcome, END_TO_END, PER_LAYER};

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 4] = [
    "loopback-bulk",
    "loopback-stream",
    "sim-fanout",
    "sim-lossy-analyze",
];

/// No iteration starts after a run has lasted this many seconds.
const HARD_LIMIT_S: f64 = 150.0;

/// One run's settings.
pub struct Plan {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    started: Instant,
}

impl Plan {
    /// `true` once the run must stop starting iterations.
    pub fn over_budget(&self) -> bool {
        self.started.elapsed().as_secs_f64() > HARD_LIMIT_S.min(self.seconds * 4.0 + 30.0)
    }

    /// Seconds of untraced iterations a traced run makes first, as the
    /// baseline of the tracing overhead; 0 in an untraced run.
    pub fn baseline_seconds(&self) -> f64 {
        if self.traced {
            self.seconds / 3.0
        } else {
            0.0
        }
    }

    /// Seconds of the iterations whose figures the run reports.
    pub fn measured_seconds(&self) -> f64 {
        self.seconds - self.baseline_seconds()
    }
}

/// Why an iteration failed, and whether it produced wrong output (as
/// opposed to failing or timing out).
pub type Failure = (String, bool);

/// Run iterations `next`, `next + 1`, ... until `seconds` have passed and
/// at least `min` were attempted; returns the successful ones. Each
/// failure counts against the run, never as a dropped sample.
pub fn collect<T>(
    plan: &Plan,
    seconds: f64,
    min: u64,
    next: &mut u64,
    out: &mut Outcome,
    mut iterate: impl FnMut(u64) -> Result<T, Failure>,
) -> Vec<T> {
    let start = Instant::now();
    let mut its = Vec::new();
    let mut tried = 0;
    while tried < min || start.elapsed().as_secs_f64() < seconds {
        out.attempted += 1;
        tried += 1;
        match iterate(*next) {
            Ok(it) => its.push(it),
            Err((why, corrupt)) => {
                out.corrupt |= corrupt;
                out.fail(&why);
            }
        }
        *next += 1;
        if plan.over_budget() {
            break;
        }
    }
    its
}

fn usage(why: &str) -> ExitCode {
    eprintln!(
        "perfbench: {why}\nusage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1).map(String::as_str);
        match (args[i].as_str(), value) {
            ("--workload", Some(v)) => workload = Some(v.to_string()),
            ("--seed", Some(v)) => seed = v.parse::<u64>().ok(),
            ("--seconds", Some(v)) => {
                seconds = v.parse::<f64>().ok().filter(|s| *s > 0.0 && *s <= 60.0)
            }
            ("--trace", Some(v)) => trace = matches!(v, "0" | "1").then(|| v == "1"),
            (flag, _) => return usage(&format!("bad argument {flag}")),
        }
        i += 2;
    }
    let (Some(workload), Some(seed), Some(seconds), Some(traced)) =
        (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds (1-60) and --trace are required");
    };
    if !WORKLOADS.contains(&workload.as_str()) {
        return usage(&format!("unknown workload {workload}"));
    }
    let plan = Plan {
        seed,
        seconds,
        traced,
        started: Instant::now(),
    };
    let spans = spans::Spans::new(traced);
    let mut out = Outcome::default();
    let sizing = match workload.as_str() {
        "loopback-bulk" | "loopback-stream" => {
            let shape = if workload == "loopback-bulk" {
                live::Shape::Bulk
            } else {
                live::Shape::Stream
            };
            live::run(shape, &plan, &spans, &mut out);
            let config = live::config();
            probes::Sizing {
                segment: config.segment_size,
                population: 2,
                loss: 0.0,
                config,
            }
        }
        _ => {
            let shape = if workload == "sim-fanout" {
                sim::Shape::Fanout
            } else {
                sim::Shape::LossyAnalyze
            };
            sim::run(shape, &plan, &spans, &mut out);
            probes::Sizing {
                segment: sim::SEGMENT,
                population: shape.population(),
                loss: shape.loss(),
                config: hrmc_core::ProtocolConfig::hrmc().with_buffer(256 * 1024),
            }
        }
    };
    let usage = host::Usage::now();
    if traced {
        probes::run(&sizing, seed, &spans, &mut out);
        fill_unused(&workload, &mut out);
        write_spans(&workload, seed, &spans);
    } else {
        out.set("peak_rss_MB", usage.maxrss_kb as f64 * 1024.0 / 1e6);
    }
    let catalogue = if traced { PER_LAYER } else { END_TO_END };
    match out.result_line(catalogue) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(why) => {
            eprintln!("perfbench: no result: {why}");
            ExitCode::FAILURE
        }
    }
}

/// Layers a workload does not exercise read 0; say so on stderr.
fn fill_unused(workload: &str, out: &mut Outcome) {
    let mut unused = Vec::new();
    for (name, _) in PER_LAYER {
        if out.get(name).is_none() {
            out.set(name, 0.0);
            unused.push(*name);
        }
    }
    if !unused.is_empty() {
        eprintln!(
            "perfbench: not exercised by {workload} (reported as 0): {}",
            unused.join(", ")
        );
    }
}

/// Write the spans as JSON lines under `perfbench/out/`, and their self
/// time per name to stderr.
fn write_spans(workload: &str, seed: u64, spans: &spans::Spans) {
    let recorded = spans.take();
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{workload}-seed{seed}.jsonl"));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, spans::to_jsonl(&recorded)));
    match written {
        Ok(()) => eprintln!("perfbench: {} spans in {}", recorded.len(), path.display()),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }
    for (name, own) in spans::self_time_by_name(&recorded) {
        eprintln!(
            "perfbench: self time {name:<18} {:>10.3} ms",
            own.as_secs_f64() * 1e3
        );
    }
}
