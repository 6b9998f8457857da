//! The simulator workloads, driven through `hrmc-sim`'s public API.
//!
//! - `sim-fanout`: the lossless LAN fan-out of the `scalability`
//!   experiment at [`FANOUT_RECEIVERS`] receivers. The membership gate,
//!   PROBE/UPDATE control traffic and the event queue do the work; no
//!   sockets, no wire encoding, no event log.
//! - `sim-lossy-analyze`: a lossy LAN with the JSONL event log on, whose
//!   log `hrmc-trace` then parses and analyses (like `timeline
//!   --analyze`). NAK recovery, `obs` encoding and trace parsing do the
//!   work; membership stays small.
//!
//! The end-to-end times are wall-clock, except the lossy workload's
//! delivery latency, which is the simulated one (see [`run`]).

use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use hrmc_app::Scenario;
use hrmc_sim::{SimReport, Simulation};
use hrmc_trace::Analysis;

use crate::host::{self, Usage};
use crate::metrics::Outcome;
use crate::spans::{Open, Spans};
use crate::stats::{self, ms};
use crate::{collect, Plan};

/// Receivers in the fan-out workload.
pub const FANOUT_RECEIVERS: usize = 4096;
/// Receivers in the lossy workload.
pub const LOSSY_RECEIVERS: usize = 32;
/// Per-hop loss rate of the lossy workload.
pub const LOSSY_LOSS: f64 = 0.01;
/// The quantile of the iterations' wall-clock times a run reports (see
/// [`run`]).
const TIME_QUANTILE: f64 = 0.9;
/// The simulator's segment size (the protocol default).
pub const SEGMENT: usize = 1400;

/// Which simulator workload.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    Fanout,
    LossyAnalyze,
}

impl Shape {
    /// Receivers simulated.
    pub fn population(self) -> usize {
        match self {
            Shape::Fanout => FANOUT_RECEIVERS,
            Shape::LossyAnalyze => LOSSY_RECEIVERS,
        }
    }

    /// Loss rate of the simulated network.
    pub fn loss(self) -> f64 {
        match self {
            Shape::Fanout => 0.0,
            Shape::LossyAnalyze => LOSSY_LOSS,
        }
    }

    /// The scenario of iteration seed `seed`. The seed drives the
    /// simulator's RNG and the payload length (up to one segment more),
    /// so even the lossless fan-out differs from seed to seed.
    fn scenario(self, seed: u64) -> Scenario {
        let extra = host::mix(seed) % SEGMENT as u64;
        match self {
            Shape::Fanout => {
                // As in the scalability experiment's fan-out sweep: a
                // modern fabric (1 Gbps, fast CPUs, population-sized
                // queues) with the data plane paced at 10 Mbps, so the
                // run measures protocol- and simulator-side scaling.
                let n = FANOUT_RECEIVERS;
                let mut s = Scenario::lan(n, 1_000_000_000, 256 * 1024, 200_000 + extra)
                    .with_probe_batch(64);
                s.cpu_scale = 0.01;
                s.router_queue = s.router_queue.max(2 * n);
                s.max_rate_factor = 0.01;
                s.sender_txqueue = s.sender_txqueue.max(n / 4);
                s.with_seed(seed)
            }
            Shape::LossyAnalyze => {
                Scenario::lan(LOSSY_RECEIVERS, 100_000_000, 256 * 1024, 5_000_000 + extra)
                    .with_loss(LOSSY_LOSS)
                    .with_seed(seed)
            }
        }
    }
}

/// `Write` into a shared in-memory buffer, so the event log outlives the
/// simulation that writes it.
#[derive(Clone)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

/// Room reserved for one event log (about 9 MB at the lossy workload's
/// size), so the buffer never reallocates mid-run.
const LOG_CAPACITY: usize = 16 << 20;

impl Write for SharedBuf {
    fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .expect("log buffer poisoned")
            .extend_from_slice(b);
        Ok(b.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// What one successful iteration measured.
#[derive(Default)]
struct Iteration {
    new: Duration,
    run: Duration,
    /// The same simulation with the event log off (traced lossy runs).
    run_unlogged: Option<Duration>,
    parse: Duration,
    analyze: Duration,
    completion: Duration,
    user_us: u64,
    sys_us: u64,
    delivered_bytes: u64,
    /// Each receiver's simulated stream completion, milliseconds.
    completed_ms: Vec<f64>,
    log_events: u64,
    log_bytes: u64,
    report: Option<SimReport>,
}

/// Build and run one simulation; with `log`, capture its event log.
fn simulate(
    shape: Shape,
    seed: u64,
    log: Option<&SharedBuf>,
    spans: &Spans,
    parent: &Open,
    i: u64,
) -> (SimReport, Duration, Duration) {
    let params = shape.scenario(seed).params();
    let (mut sim, new) = spans.time("sim.new", Some(parent), i, || Simulation::new(params));
    if let Some(buf) = log {
        sim.set_event_log(Box::new(buf.clone()));
    }
    let (report, run) = spans.time("sim.run", Some(parent), i, || sim.run());
    (report, new, run)
}

/// One iteration: simulate, check, and (lossy) parse and analyse the log.
fn iteration(
    shape: Shape,
    seed: u64,
    i: u64,
    spans: &Spans,
    traced: bool,
) -> Result<Iteration, String> {
    let sim_seed = host::iteration_seed(seed, i);
    let mut it = Iteration::default();
    let root = spans.open("iteration", None, i);
    let before = Usage::now();
    let log = (shape == Shape::LossyAnalyze)
        .then(|| SharedBuf(Arc::new(Mutex::new(Vec::with_capacity(LOG_CAPACITY)))));
    let (report, new, run) = simulate(shape, sim_seed, log.as_ref(), spans, &root, i);
    it.new = new;
    it.run = run;
    if !(report.completed && report.all_intact()) {
        return Err(format!(
            "simulation seed {sim_seed}: completed={} intact={}",
            report.completed,
            report.all_intact()
        ));
    }
    it.delivered_bytes = report.receivers.iter().map(|r| r.bytes).sum();
    it.completed_ms = report
        .receivers
        .iter()
        .filter_map(|r| r.completed_at.map(|us| us as f64 / 1e3))
        .collect();
    if let Some(buf) = log {
        let text = String::from_utf8(std::mem::take(
            &mut *buf.0.lock().expect("log buffer poisoned"),
        ))
        .map_err(|e| format!("event log is not UTF-8: {e}"))?;
        it.log_bytes = text.len() as u64;
        let (parsed, took) = spans.time("trace.parse", Some(&root), i, || {
            hrmc_trace::parse_str(&text)
        });
        it.parse = took;
        let (events, pstats) = parsed.map_err(|e| format!("trace parse: {e}"))?;
        it.log_events = events.len() as u64;
        let (analysis, took) = spans.time("trace.analyze", Some(&root), i, || {
            Analysis::from_events(&events, pstats)
        });
        it.analyze = took;
        if analysis.parse.skipped != 0 || analysis.lifecycle.incomplete != 0 {
            return Err(format!(
                "analysis of seed {sim_seed}: {} skipped lines, {} unaccounted sequences",
                analysis.parse.skipped, analysis.lifecycle.incomplete
            ));
        }
        it.completion = it.run + it.parse + it.analyze;
    } else {
        it.completion = it.run;
    }
    let (user, sys) = Usage::now().cpu_since(&before);
    it.user_us = user;
    it.sys_us = sys;
    if traced && shape == Shape::LossyAnalyze {
        // The log's own cost: the same run with the log off.
        let (_, _, run) = simulate(shape, sim_seed, None, spans, &root, i);
        it.run_unlogged = Some(run);
    }
    it.report = Some(report);
    spans.close(root);
    Ok(it)
}

/// Run `shape` under `plan`, filling `out` with the end-to-end metrics
/// (untraced) or the per-layer ones (traced).
pub fn run(shape: Shape, plan: &Plan, spans: &Spans, out: &mut Outcome) {
    let quiet = Spans::new(false);
    let mut next = 0u64;
    let run_one = |i: u64, spans: &Spans, traced: bool| {
        let it = iteration(shape, plan.seed, i, spans, traced).map_err(|e| (e, true))?;
        let r = it
            .report
            .as_ref()
            .expect("successful iterations keep their report");
        eprintln!(
            "perfbench: iteration {i}: new {:.3} ms, completion {:.3} s (cpu {:.3} s, run {:.3} s), \
             {} events, {:.3} simulated s",
            ms(it.new),
            it.completion.as_secs_f64(),
            (it.user_us + it.sys_us) as f64 / 1e6,
            it.run.as_secs_f64(),
            r.events_popped,
            r.elapsed_us as f64 / 1e6
        );
        Ok(it)
    };
    let baseline = collect(plan, plan.baseline_seconds(), 0, &mut next, out, |i| {
        run_one(i, &quiet, false)
    });
    let its = collect(plan, plan.measured_seconds(), 1, &mut next, out, |i| {
        run_one(i, spans, plan.traced)
    });
    if its.is_empty() {
        return;
    }
    if plan.traced {
        layers(&its, &baseline, out);
        return;
    }
    // The shared host this was tuned on alternates between a contended
    // plateau, where the same simulation (identical event counts, CPU time
    // equal to wall time) runs about 0.6x as fast, and faster periods whose
    // speed and length vary from run to run. The 90th percentile of the
    // iterations sits on the plateau, which is steady from run to run; the
    // median moves with the mix. Every time below is that quantile.
    let tail = |v: Vec<f64>, p: f64| stats::quantile(&v, p).unwrap_or(0.0);
    let per = |f: &dyn Fn(&Iteration) -> f64| its.iter().map(f).collect::<Vec<_>>();
    let mb = |it: &Iteration| it.delivered_bytes as f64 / 1e6;
    let delivered: Vec<f64> = match shape {
        // Simulated per-receiver stream completion: the simulator's own
        // delivery figure, shaped by each seed's losses and repairs.
        Shape::LossyAnalyze => its
            .iter()
            .flat_map(|it| it.completed_ms.iter().copied())
            .collect(),
        // On the paced, lossless, symmetric LAN every receiver completes at
        // the same simulated instant for every seed, so the figure is the
        // wall-clock latency until each receiver's result is in hand: its
        // iteration's completion, once per receiver.
        Shape::Fanout => its
            .iter()
            .flat_map(|it| std::iter::repeat_n(ms(it.completion), shape.population()))
            .collect(),
    };
    out.set(
        "setup_s",
        stats::median(&per(&|it| it.new.as_secs_f64())).unwrap_or(0.0),
    );
    out.set(
        "completion_s",
        tail(per(&|it| it.completion.as_secs_f64()), TIME_QUANTILE),
    );
    out.set(
        "goodput_MBps",
        tail(
            per(&|it| mb(it) / it.completion.as_secs_f64()),
            1.0 - TIME_QUANTILE,
        ),
    );
    out.set(
        "cpu_ms_per_MB",
        tail(
            per(&|it| (it.user_us + it.sys_us) as f64 / 1e3 / mb(it)),
            TIME_QUANTILE,
        ),
    );
    out.set(
        "delivery_p50_ms",
        stats::quantile(&delivered, 0.5).unwrap_or(0.0),
    );
    out.set(
        "delivery_p99_ms",
        stats::quantile(&delivered, 0.99).unwrap_or(0.0),
    );
    eprintln!(
        "perfbench: {} iterations, {} receiver results",
        its.len(),
        delivered.len()
    );
}

/// Per-layer metrics of the traced iterations `its`; `baseline` are the
/// untraced ones run first in the same process.
fn layers(its: &[Iteration], baseline: &[Iteration], out: &mut Outcome) {
    let n = its.len() as f64;
    let per = |f: &dyn Fn(&Iteration) -> f64| its.iter().map(f).sum::<f64>() / n;
    fn rep(it: &Iteration) -> &SimReport {
        it.report
            .as_ref()
            .expect("successful iterations keep their report")
    }
    out.set("bench.iterations", n);
    out.set("sim.new_ms", per(&|it| ms(it.new)));
    out.set("sim.run_ms", per(&|it| ms(it.run)));
    let events: u64 = its.iter().map(|it| rep(it).events_popped).sum();
    let run_s: f64 = its.iter().map(|it| it.run.as_secs_f64()).sum();
    out.set("sim.events_popped", events as f64 / n);
    out.set("sim.events_per_s", events as f64 / run_s);
    out.set(
        "sim.peak_queue_len",
        per(&|it| rep(it).peak_queue_len as f64),
    );
    out.set(
        "sim.engine_ticks",
        per(&|it| rep(it).host_ticks.iter().sum::<u64>() as f64),
    );
    let data: u64 = its.iter().map(|it| rep(it).sender.data_packets_sent).sum();
    let retrans: u64 = its.iter().map(|it| rep(it).sender.retransmissions).sum();
    let rsum = |f: &dyn Fn(&hrmc_core::ReceiverStats) -> u64| {
        per(&|it| rep(it).receivers.iter().map(|r| f(&r.stats)).sum::<u64>() as f64)
    };
    out.set("core.data_packets", data as f64 / n);
    out.set("core.retransmissions", retrans as f64 / n);
    out.set("core.retransmit_ratio", stats::ratio(retrans, data));
    out.set("core.naks_sent", rsum(&|r| r.naks_sent));
    out.set(
        "core.naks_received",
        per(&|it| rep(it).sender.naks_received as f64),
    );
    out.set("core.duplicates_dropped", rsum(&|r| r.duplicates_dropped));
    out.set(
        "core.rate_halvings",
        per(&|it| rep(it).rate_halvings as f64),
    );
    out.set("core.urgent_stops", per(&|it| rep(it).urgent_stops as f64));
    out.set("core.rx_overflow_drops", rsum(&|r| r.overflow_drops));
    out.set(
        "core.probes_sent",
        per(&|it| rep(it).sender.probes_sent as f64),
    );
    out.set(
        "core.updates_received",
        per(&|it| rep(it).sender.updates_received as f64),
    );
    out.set(
        "membership.gate_checks",
        per(&|it| rep(it).sender.gate_checks as f64),
    );
    out.set(
        "membership.members_scanned",
        per(&|it| rep(it).sender.gate_members_scanned as f64),
    );
    out.set("obs.log_events", per(&|it| it.log_events as f64));
    out.set("obs.log_bytes", per(&|it| it.log_bytes as f64));
    let logged: Vec<&Iteration> = its.iter().filter(|it| it.run_unlogged.is_some()).collect();
    out.set(
        "obs.encode_ms",
        if logged.is_empty() {
            0.0
        } else {
            logged
                .iter()
                .map(|it| ms(it.run) - ms(it.run_unlogged.expect("filtered")))
                .sum::<f64>()
                / logged.len() as f64
        },
    );
    out.set("trace.parse_ms", per(&|it| ms(it.parse)));
    out.set("trace.analyze_ms", per(&|it| ms(it.analyze)));
    out.set("proc.user_ms", per(&|it| it.user_us as f64 / 1e3));
    out.set("proc.sys_ms", per(&|it| it.sys_us as f64 / 1e3));
    let completion_ms = |v: &[Iteration]| v.iter().map(|it| ms(it.completion)).collect::<Vec<_>>();
    out.set(
        "bench.trace_overhead_ms",
        stats::overhead(&completion_ms(its), &completion_ms(baseline)),
    );
}
