//! The live workloads: one sender and two in-process receivers over real
//! UDP multicast on loopback, driven through `hrmc-net`'s public API on
//! the CLI's defaults (epoll, the process-wide reactor).
//!
//! Load comes from two threads: this one sends, and one reader thread
//! drains both receivers. The reader polls each receiver without
//! blocking and sleeps only when neither has bytes, never past the moment
//! a unit could arrive (see `read_all`). A slow receiver so never delays
//! the reading of the other, as a blocking `recv` (which waits in 10 ms
//! slices) would.
//!
//! - `loopback-bulk` is a closed loop: the payload is offered as fast as
//!   `send` accepts it; each 2 KiB unit's delivery is timed from the
//!   `send` call that offered it.
//! - `loopback-stream` is an open loop: chunk `k` is due at
//!   `k * CHUNK / STREAM_RATE` seconds and is timed from then, so a stall
//!   also charges the chunks queued behind it.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hrmc_core::{Event, Micros, ProtocolConfig, ProtocolObserver, ReceiverStats, SenderStats};
use hrmc_net::{Reactor, ReactorPool, ReactorStats, ReceiverHandle, Session};

use crate::host::{self, Usage};
use crate::metrics::Outcome;
use crate::spans::Spans;
use crate::stats::{self, ms};
use crate::{collect, Failure, Plan};

/// Bytes per `send` call, and the unit each delivery latency times.
pub const CHUNK: usize = 16 * 1024;
/// Payload of one bulk transfer.
pub const BULK_BYTES: usize = 1024 * 1024;
/// Delivery-latency sample size of the bulk workload.
const BULK_UNIT: usize = 2 * 1024;
/// Offered load of the stream workload, bytes per second (below the rate
/// at which the loopback path starts to drop).
pub const STREAM_RATE: f64 = 2_000_000.0;
/// Length of one stream session: 512 chunks, so one session alone
/// yields enough samples (1024 over both receivers) to support its p99.
pub const STREAM_SECS: f64 = 4.2;
/// Payload of the untimed warm-up transfer.
const WARMUP_BYTES: usize = 256 * 1024;
/// Shortest idle sleep of the reader when neither receiver has bytes.
const POLL_MIN: Duration = Duration::from_micros(20);
/// Longest idle sleep while the next unit is not yet offered.
const POLL_MAX: Duration = Duration::from_micros(250);
/// Longest idle sleep while a long-due unit is still outstanding.
const POLL_AGED: Duration = Duration::from_millis(2);
/// An iteration that has not completed by then counts as failed.
const ITERATION_TIMEOUT: Duration = Duration::from_secs(60);
/// In-process receivers per session.
const RECEIVERS: usize = 2;

/// Which live workload.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    Bulk,
    Stream,
}

impl Shape {
    /// Payload of one iteration.
    fn payload_len(self) -> usize {
        match self {
            Shape::Bulk => BULK_BYTES,
            Shape::Stream => (STREAM_SECS * STREAM_RATE) as usize / CHUNK * CHUNK,
        }
    }

    /// Bytes per delivery-latency sample. A stream chunk is timed whole;
    /// bulk chunks are split so one 1 MiB transfer alone yields enough
    /// samples (1024 over both receivers) to support its p99.
    fn unit(self) -> usize {
        match self {
            Shape::Bulk => BULK_UNIT,
            Shape::Stream => CHUNK,
        }
    }
}

/// The protocol configuration of the `hrmc` CLI's defaults (20 MiB/s
/// `max_rate`, 512 KiB buffers) with its `selftest`'s two in-process
/// settings: a loopback-sized initial RTT, and a release hold that keeps
/// the first segments until the receivers' data-triggered JOINs land.
pub fn config() -> ProtocolConfig {
    let mut c = ProtocolConfig::hrmc().with_buffer(512 * 1024);
    c.max_rate = 20 * 1024 * 1024;
    c.initial_rtt = 2_000;
    c.anonymous_release_hold = 500_000;
    c
}

/// Counts the sender's rate halvings and urgent stops (traced runs only:
/// the engine exposes them through its observer, not its stats).
#[derive(Clone, Default)]
struct RateEvents {
    halvings: Arc<AtomicU64>,
    urgent_stops: Arc<AtomicU64>,
}

impl ProtocolObserver for RateEvents {
    fn on_event(&mut self, _now: Micros, ev: &Event) {
        match ev {
            Event::RateHalved { .. } => self.halvings.fetch_add(1, Ordering::Relaxed),
            Event::UrgentStopped { .. } => self.urgent_stops.fetch_add(1, Ordering::Relaxed),
            _ => 0,
        };
    }
}

/// What one successful iteration measured.
#[derive(Default)]
struct Iteration {
    setup: Duration,
    bind: Duration,
    completion: Duration,
    send: Duration,
    close_wait: Duration,
    recv_wait: Duration,
    latencies_ms: Vec<f64>,
    late_ms: Vec<f64>,
    user_us: u64,
    sys_us: u64,
    reader_cpu_us: u64,
    sender: SenderStats,
    receivers: Vec<ReceiverStats>,
    halvings: u64,
    urgent_stops: u64,
}

/// What the reader thread saw.
#[derive(Default)]
struct ReadReport {
    error: Option<String>,
    corrupt: bool,
    last_eof: Option<Instant>,
    recv_wait: Duration,
    latencies_ms: Vec<f64>,
    /// The reader thread's own CPU (user, sys), microseconds.
    cpu_us: (u64, u64),
}

/// Offer/due times of each delivery unit (`unit` bytes of payload),
/// nanoseconds after the transfer began; `u64::MAX` until offered.
struct Schedule {
    t0: Instant,
    unit: usize,
    due_ns: Vec<AtomicU64>,
}

impl Schedule {
    fn due(&self, k: usize) -> Option<Instant> {
        let ns = self.due_ns[k].load(Ordering::Acquire);
        (ns != u64::MAX).then(|| self.t0 + Duration::from_nanos(ns))
    }
}

/// Drain both receivers until each reads EOF, checking every byte
/// against `payload` and timing each unit from its due time.
fn read_all(
    rx: &[ReceiverHandle],
    payload: &[u8],
    sched: &Schedule,
    deadline: Instant,
    abort: &AtomicBool,
) -> ReadReport {
    let mut rep = ReadReport::default();
    let mut offset = vec![0usize; rx.len()];
    let mut done = vec![false; rx.len()];
    let mut buf = vec![0u8; 64 * 1024];
    let cpu0 = Usage::thread_now();
    while done.iter().any(|d| !d) {
        let mut progressed = false;
        for (i, r) in rx.iter().enumerate() {
            if done[i] {
                continue;
            }
            match r.recv(&mut buf, Duration::ZERO) {
                Ok(0) => {
                    done[i] = true;
                    progressed = true;
                    rep.last_eof = Some(Instant::now());
                    if offset[i] != payload.len() {
                        rep.corrupt = true;
                        rep.error = Some(format!(
                            "receiver {i}: EOF after {} of {} bytes",
                            offset[i],
                            payload.len()
                        ));
                    }
                }
                Ok(n) => {
                    let now = Instant::now();
                    progressed = true;
                    let (from, to) = (offset[i], offset[i] + n);
                    if to > payload.len() || buf[..n] != payload[from..to] {
                        rep.corrupt = true;
                        rep.error = Some(format!(
                            "receiver {i}: bytes {from}..{to} differ from the payload"
                        ));
                        return rep;
                    }
                    // Units whose last byte arrived in this read.
                    for k in from / sched.unit..to / sched.unit {
                        if let Some(due) = sched.due(k) {
                            rep.latencies_ms
                                .push(now.saturating_duration_since(due).as_secs_f64() * 1e3);
                        }
                    }
                    offset[i] = to;
                }
                Err(hrmc_net::NetError::Timeout) => {}
                Err(e) => {
                    rep.error = Some(format!("receiver {i}: {e}"));
                    return rep;
                }
            }
        }
        if progressed {
            continue;
        }
        let now = Instant::now();
        if now >= deadline || abort.load(Ordering::Acquire) {
            rep.error = Some(format!(
                "timed out with receivers at {offset:?} of {} bytes",
                payload.len()
            ));
            return rep;
        }
        // Nothing arrives before it is due. For each unfinished
        // receiver's next unit: not yet due, sleep no later than its due
        // time; already due, poll again within 1/64 of its age, so a poll
        // adds under 2% to the latency it times; not yet offered (or only
        // EOF left), poll within POLL_MAX. Idle time while a unit is due
        // counts as waiting.
        let mut outstanding = false;
        let mut nap = ITERATION_TIMEOUT;
        for (o, _) in offset.iter().zip(&done).filter(|(_, d)| !**d) {
            let k = o / sched.unit;
            let limit = match sched.due_ns.get(k).and_then(|_| sched.due(k)) {
                Some(due) if due <= now => {
                    outstanding = true;
                    ((now - due) / 64).clamp(POLL_MIN, POLL_AGED)
                }
                Some(due) => due - now,
                None => POLL_MAX,
            };
            nap = nap.min(limit);
        }
        std::thread::sleep(nap);
        if outstanding {
            rep.recv_wait += now.elapsed();
        }
    }
    rep.cpu_us = Usage::thread_now().cpu_since(&cpu0);
    rep
}

/// One transfer: bind, send the seeded payload, close, verify.
fn iteration(
    shape: Shape,
    len: usize,
    seed: u64,
    i: u64,
    spans: &Spans,
    traced: bool,
) -> Result<Iteration, Failure> {
    let group = host::group_for(seed, i);
    let payload = host::payload(host::iteration_seed(seed, i), len);
    let unit = shape.unit();
    debug_assert_eq!(payload.len() % CHUNK, 0, "payloads are whole chunks");
    let cfg = config();
    let lo = std::net::Ipv4Addr::LOCALHOST;
    let mut it = Iteration::default();
    let root = spans.open("iteration", None, i);

    let setup = spans.open("setup", Some(&root), i);
    let mut receivers = Vec::with_capacity(RECEIVERS);
    for _ in 0..RECEIVERS {
        let (r, took) = spans.time("net.bind", Some(&setup), i, || {
            Session::receiver(group)
                .interface(lo)
                .config(cfg.clone())
                .bind()
        });
        it.bind += took;
        receivers.push(r.map_err(|e| (format!("receiver bind on {group}: {e}"), false))?);
    }
    let rate = RateEvents::default();
    let (sender, took) = spans.time("net.bind", Some(&setup), i, || {
        let b = Session::sender(group).interface(lo).config(cfg.clone());
        if traced {
            b.observer(Box::new(rate.clone())).bind()
        } else {
            b.bind()
        }
    });
    it.bind += took;
    let sender = sender.map_err(|e| (format!("sender bind on {group}: {e}"), false))?;
    it.setup = spans.close(setup);

    let before = Usage::now();
    let t0 = Instant::now();
    let sched = Schedule {
        t0,
        unit,
        due_ns: (0..payload.len() / unit)
            .map(|k| match shape {
                Shape::Bulk => AtomicU64::new(u64::MAX),
                Shape::Stream => {
                    AtomicU64::new((k as f64 * CHUNK as f64 / STREAM_RATE * 1e9) as u64)
                }
            })
            .collect(),
    };
    let deadline = t0 + ITERATION_TIMEOUT;
    let abort = AtomicBool::new(false);
    let transfer = spans.open("transfer", Some(&root), i);
    let (sent, read) = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let sp = spans.open("reader", Some(&transfer), i);
            let rep = read_all(&receivers, &payload, &sched, deadline, &abort);
            spans.close(sp);
            rep
        });
        let sent = (|| -> Result<Instant, String> {
            for (k, chunk) in payload.chunks(CHUNK).enumerate() {
                match shape {
                    Shape::Bulk => {
                        let offered = t0.elapsed().as_nanos() as u64;
                        for u in k * CHUNK / unit..(k + 1) * CHUNK / unit {
                            sched.due_ns[u].store(offered, Ordering::Release);
                        }
                    }
                    Shape::Stream => {
                        let due = sched.due(k).expect("stream chunks are scheduled");
                        debug_assert_eq!(unit, CHUNK);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        it.late_ms.push(due.elapsed().as_secs_f64() * 1e3);
                    }
                }
                let (res, took) = spans.time("net.send", Some(&transfer), i, || sender.send(chunk));
                it.send += took;
                res.map_err(|e| format!("send of chunk {k}: {e}"))?;
            }
            let left = deadline.saturating_duration_since(Instant::now());
            let (res, took) = spans.time("net.close_wait", Some(&transfer), i, || {
                sender.close_and_wait(left)
            });
            it.close_wait = took;
            res.map_err(|e| format!("close_and_wait: {e}"))?;
            Ok(Instant::now())
        })();
        if sent.is_err() {
            abort.store(true, Ordering::Release);
        }
        (sent, reader.join().expect("reader thread panicked"))
    });
    spans.close(transfer);
    let closed = sent.map_err(|e| (e, false))?;
    if let Some(e) = read.error {
        return Err((e, read.corrupt));
    }
    let last_eof = read.last_eof.expect("every receiver reached EOF");
    it.completion = closed.max(last_eof) - t0;
    let (user, sys) = Usage::now().cpu_since(&before);
    it.user_us = user;
    it.sys_us = sys;
    it.recv_wait = read.recv_wait;
    it.reader_cpu_us = read.cpu_us.0 + read.cpu_us.1;
    it.latencies_ms = read.latencies_ms;
    it.sender = sender.stats();
    it.receivers = receivers.iter().map(ReceiverHandle::stats).collect();
    it.halvings = rate.halvings.load(Ordering::Relaxed);
    it.urgent_stops = rate.urgent_stops.load(Ordering::Relaxed);
    let teardown = spans.open("teardown", Some(&root), i);
    drop(sender);
    drop(receivers);
    spans.close(teardown);
    spans.close(root);
    Ok(it)
}

/// Run `shape` under `plan`, filling `out` with the end-to-end metrics
/// (untraced) or the per-layer ones (traced).
pub fn run(shape: Shape, plan: &Plan, spans: &Spans, out: &mut Outcome) {
    let reactor = ReactorPool::from(Reactor::global());
    // Warm-up: start the reactor thread and fault in the allocator on a
    // short transfer of its own; verified, not timed.
    out.attempted += 1;
    match iteration(
        Shape::Bulk,
        WARMUP_BYTES,
        plan.seed,
        u64::MAX,
        &Spans::new(false),
        false,
    ) {
        Ok(it) => eprintln!(
            "perfbench: warm-up transfer took {:.3} s",
            it.completion.as_secs_f64()
        ),
        Err((e, corrupt)) => {
            out.corrupt |= corrupt;
            out.fail(&format!("warm-up: {e}"));
        }
    }
    let min = match shape {
        Shape::Bulk => 3,
        Shape::Stream => 2,
    };
    let quiet = Spans::new(false);
    let mut next = 0u64;
    let run_one = |i: u64, spans: &Spans, traced: bool| {
        let drops0 = host::udp_rcvbuf_errors().unwrap_or(0);
        let it = iteration(shape, shape.payload_len(), plan.seed, i, spans, traced)?;
        eprintln!(
            "perfbench: iteration {i}: setup {:.3} ms, completion {:.3} s, cpu {:.1} ms (reader {:.1} ms), \
             {} retransmissions, {} kernel drops",
            ms(it.setup),
            it.completion.as_secs_f64(),
            (it.user_us + it.sys_us) as f64 / 1e3,
            it.reader_cpu_us as f64 / 1e3,
            it.sender.retransmissions,
            host::udp_rcvbuf_errors().unwrap_or(0).saturating_sub(drops0)
        );
        Ok(it)
    };
    let baseline = collect(plan, plan.baseline_seconds(), 0, &mut next, out, |i| {
        run_one(i, &quiet, false)
    });
    let snmp0 = host::udp_rcvbuf_errors();
    let stats0 = reactor.aggregate();
    let its = collect(plan, plan.measured_seconds(), min, &mut next, out, |i| {
        run_one(i, spans, plan.traced)
    });
    let stats1 = reactor.aggregate();
    let snmp1 = host::udp_rcvbuf_errors();
    if its.is_empty() {
        return;
    }
    let payload_mb = shape.payload_len() as f64 / 1e6;
    let completion: Vec<f64> = its.iter().map(|it| it.completion.as_secs_f64()).collect();
    if plan.traced {
        layers(
            shape,
            &its,
            &baseline,
            &stats0,
            &stats1,
            snmp0.zip(snmp1),
            out,
        );
        return;
    }
    // Each iteration's own percentiles (every iteration has at least
    // 1024 samples, so p99 has 10 beyond it), then the median over the
    // run: one stalled transfer cannot swing the run.
    let delivery = |p: f64| {
        let v: Vec<f64> = its
            .iter()
            .map(|it| stats::quantile(&it.latencies_ms, p).unwrap_or(0.0))
            .collect();
        stats::median(&v).unwrap_or(0.0)
    };
    let setup: Vec<f64> = its.iter().map(|it| it.setup.as_secs_f64()).collect();
    let goodput: Vec<f64> = completion.iter().map(|c| payload_mb / c).collect();
    let cpu: Vec<f64> = its
        .iter()
        .map(|it| (it.user_us + it.sys_us) as f64 / 1e3 / payload_mb)
        .collect();
    out.set("setup_s", stats::median(&setup).unwrap_or(0.0));
    out.set("completion_s", stats::median(&completion).unwrap_or(0.0));
    out.set("goodput_MBps", stats::median(&goodput).unwrap_or(0.0));
    out.set("cpu_ms_per_MB", stats::median(&cpu).unwrap_or(0.0));
    out.set("delivery_p50_ms", delivery(0.5));
    out.set("delivery_p99_ms", delivery(0.99));
    let samples = its
        .iter()
        .map(|it| it.latencies_ms.len())
        .min()
        .unwrap_or(0);
    eprintln!(
        "perfbench: {} iterations, at least {samples} delivery samples each (highest supported percentile {:?})",
        its.len(),
        stats::highest_supported(samples)
    );
}

/// Per-layer metrics of the traced iterations `its`; `baseline` are the
/// untraced ones run first in the same process.
fn layers(
    shape: Shape,
    its: &[Iteration],
    baseline: &[Iteration],
    s0: &ReactorStats,
    s1: &ReactorStats,
    snmp: Option<(u64, u64)>,
    out: &mut Outcome,
) {
    let n = its.len() as f64;
    let per = |f: &dyn Fn(&Iteration) -> f64| its.iter().map(f).sum::<f64>() / n;
    out.set("bench.iterations", n);
    out.set("net.bind_ms", per(&|it| ms(it.bind)));
    out.set("net.send_ms", per(&|it| ms(it.send)));
    out.set("net.recv_wait_ms", per(&|it| ms(it.recv_wait)));
    out.set("net.close_wait_ms", per(&|it| ms(it.close_wait)));
    let syscalls = (s1.recvmmsg_calls + s1.sendmmsg_calls + s1.uring_enters)
        - (s0.recvmmsg_calls + s0.sendmmsg_calls + s0.uring_enters);
    let packets = (s1.packets_rx + s1.packets_tx) - (s0.packets_rx + s0.packets_tx);
    out.set("net.syscalls", syscalls as f64 / n);
    out.set("net.packets", packets as f64 / n);
    out.set("net.syscalls_per_packet", stats::ratio(syscalls, packets));
    out.set("net.rx_batch_mean", s1.rx_batch_mean);
    out.set("net.tx_batch_mean", s1.tx_batch_mean);
    out.set(
        "net.wakeups",
        (s1.epoll_wakeups - s0.epoll_wakeups) as f64 / n,
    );
    out.set(
        "net.timer_fires",
        (s1.timer_fires - s0.timer_fires) as f64 / n,
    );
    out.set("net.kicks", (s1.kicks - s0.kicks) as f64 / n);
    out.set("net.loop_p99_us", s1.loop_p99_us as f64);
    out.set("net.timer_slippage_p99_us", s1.timer_slippage_p99_us as f64);
    out.set("net.tx_retries", (s1.tx_retries - s0.tx_retries) as f64 / n);
    out.set("net.tx_drops", (s1.tx_drops - s0.tx_drops) as f64 / n);
    match snmp {
        Some((a, b)) => out.set("net.kernel_rcvbuf_drops", b.saturating_sub(a) as f64 / n),
        None => {
            eprintln!("perfbench: net.kernel_rcvbuf_drops unmeasured: /proc/net/snmp has no Udp RcvbufErrors");
            out.set("net.kernel_rcvbuf_drops", 0.0);
        }
    }
    let data: u64 = its.iter().map(|it| it.sender.data_packets_sent).sum();
    let retrans: u64 = its.iter().map(|it| it.sender.retransmissions).sum();
    let rsum = |f: &dyn Fn(&ReceiverStats) -> u64| {
        per(&|it| it.receivers.iter().map(f).sum::<u64>() as f64)
    };
    out.set("core.data_packets", data as f64 / n);
    out.set("core.retransmissions", retrans as f64 / n);
    out.set("core.retransmit_ratio", stats::ratio(retrans, data));
    out.set("core.naks_sent", rsum(&|r| r.naks_sent));
    out.set(
        "core.naks_received",
        per(&|it| it.sender.naks_received as f64),
    );
    out.set("core.duplicates_dropped", rsum(&|r| r.duplicates_dropped));
    out.set("core.rate_halvings", per(&|it| it.halvings as f64));
    out.set("core.urgent_stops", per(&|it| it.urgent_stops as f64));
    out.set("core.rx_overflow_drops", rsum(&|r| r.overflow_drops));
    out.set("core.probes_sent", per(&|it| it.sender.probes_sent as f64));
    out.set(
        "core.updates_received",
        per(&|it| it.sender.updates_received as f64),
    );
    out.set(
        "membership.gate_checks",
        per(&|it| it.sender.gate_checks as f64),
    );
    out.set(
        "membership.members_scanned",
        per(&|it| it.sender.gate_members_scanned as f64),
    );
    let late: Vec<f64> = its
        .iter()
        .flat_map(|it| it.late_ms.iter().copied())
        .collect();
    if shape == Shape::Bulk {
        eprintln!("perfbench: gen.late_* not applicable: the bulk loop has no schedule");
    }
    out.set(
        "gen.late_p99_ms",
        stats::quantile(&late, 0.99).unwrap_or(0.0),
    );
    out.set(
        "gen.late_max_ms",
        stats::quantile(&late, 1.0).unwrap_or(0.0),
    );
    out.set("proc.user_ms", per(&|it| it.user_us as f64 / 1e3));
    out.set("proc.sys_ms", per(&|it| it.sys_us as f64 / 1e3));
    out.set(
        "gen.reader_cpu_ms",
        per(&|it| it.reader_cpu_us as f64 / 1e3),
    );
    let completion_ms = |v: &[Iteration]| v.iter().map(|it| ms(it.completion)).collect::<Vec<_>>();
    out.set(
        "bench.trace_overhead_ms",
        stats::overhead(&completion_ms(its), &completion_ms(baseline)),
    );
}
