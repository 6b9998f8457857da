//! Scheduler-efficiency benchmark: one fixed scalability scenario (64
//! mostly-idle receivers on a slow shared segment — the regime where
//! timer work, not packet work, dominates), timed end to end.
//!
//! Writes `BENCH_sim.json` at the repository root with wall-clock,
//! events popped from the `EventQueue`, and the peak heap length, so
//! future PRs have a perf baseline to compare against.
//!
//! ```sh
//! cargo bench -p hrmc-bench --bench sim           # full run + JSON
//! cargo bench -p hrmc-bench --bench sim -- --test   # one small smoke run
//! cargo bench -p hrmc-bench --bench sim -- --check  # regression gate
//! ```
//!
//! `--check` re-runs the full scenario once and compares the
//! *deterministic* scheduler-work counters (`events_popped`,
//! `engine_ticks`) against the committed `BENCH_sim.json`; more than 10%
//! regression on either exits nonzero. Wall-clock is reported but never
//! gated (CI machines vary); the work counters are exact on a fixed
//! seed, so any growth is a real scheduler regression, not noise.
//!
//! A second fixed scenario, the `scalability` experiment's lossless
//! fan-out at 1000 receivers, is pinned under a `fanout_1k` key: its
//! `events_popped` and `engine_ticks` are gated by the same +10% rule,
//! so a change to the membership gate or PROBE pacing that moves the
//! fan-out trajectory shows up here.
//!
//! The run also times the membership index directly at 1k / 10k / 100k
//! members (update / `all_have` / `lacking` in the sender's MINBUF query
//! mix, plus `lacking` after the crowd drained away from one laggard)
//! under a `membership` key. `--check` gates the deterministic
//! `members_scanned_per_lacking` counter two ways: against the committed
//! per-population pin (+10%), and for sub-linear growth across the
//! 1k → 100k sweep (the 100× population may cost at most 12.5× the scan
//! work; the range scan holds it at 1×).
//!
//! The run also drives a live multi-session reactor micro-benchmark
//! (4 sender→receiver pairs over loopback multicast on one shared
//! reactor) and records its batched-syscall efficiency — syscalls per
//! packet moved and mean `recvmmsg` batch size — under a `reactor` key.
//! `--check` gates `syscalls_per_packet` inside a tolerance band around
//! the committed baseline's reactor ratio: up to 2× the pinned value
//! (with an absolute +0.05 floor so tiny baselines aren't impossible to
//! hold), and never at or above 1.0 — the one-syscall-per-datagram
//! floor that batched I/O must always beat. When the committed baseline
//! has no reactor section (it was written where multicast was
//! unavailable), only the absolute floor applies. Skipped (with a
//! notice) when this environment forbids multicast.

use hrmc_core::membership::Membership;
use hrmc_core::{PeerId, ProtocolConfig};
use hrmc_net::{McastSocket, Reactor, Session};
use hrmc_sim::{SimParams, SimReport, Simulation, TopologyBuilder};
use std::net::{Ipv4Addr, SocketAddrV4};
use std::time::{Duration, Instant};

/// The fixed scalability scenario: 64 receivers, 1 Mbps shared LAN,
/// 0.5% loss, 200 KB transfer. At ~80 packets/s the population is idle
/// most of the simulated time, which is exactly what the paper's larger
/// fan-outs look like between loss events.
fn scalability_params(receivers: usize, transfer: u64) -> SimParams {
    let bandwidth = 1_000_000;
    let mut protocol = ProtocolConfig::hrmc().with_buffer(256 * 1024);
    protocol.max_rate = ((bandwidth as f64 / 8.0 * 0.95) as u64).max(protocol.min_rate);
    let topology = TopologyBuilder::new().lan(receivers, bandwidth, 0.005);
    let mut p = SimParams::new(protocol, topology, transfer);
    p.horizon_us = 1_800 * 1_000_000;
    p
}

fn run_once(receivers: usize, transfer: u64) -> (SimReport, f64) {
    let t0 = Instant::now();
    let report = Simulation::new(scalability_params(receivers, transfer)).run();
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert!(report.completed, "scalability scenario must complete");
    assert!(report.all_intact(), "scalability scenario must be reliable");
    (report, wall_ms)
}

/// Receivers in the pinned fan-out scenario.
const FANOUT_RECEIVERS: usize = 1_000;

/// The `scalability` experiment's lossless fan-out at
/// [`FANOUT_RECEIVERS`], reduced to its deterministic scheduler-work
/// counters: events popped and engine ticks summed over all hosts.
fn fanout_counters() -> (u64, u64) {
    let report = hrmc_experiments::fanout_scenario(FANOUT_RECEIVERS, 200_000).run();
    assert!(report.completed, "fan-out scenario must complete");
    assert!(report.all_intact(), "fan-out scenario must be reliable");
    (report.events_popped, report.host_ticks.iter().sum())
}

const LO: Ipv4Addr = Ipv4Addr::new(127, 0, 0, 1);

fn multicast_available(port: u16) -> bool {
    let g = SocketAddrV4::new(Ipv4Addr::new(239, 255, 95, 1), port);
    let Ok(rx) = McastSocket::receiver(g, LO) else {
        return false;
    };
    let Ok(tx) = McastSocket::sender(g, LO) else {
        return false;
    };
    let _ = rx.set_read_timeout(Duration::from_millis(500));
    if tx.send_multicast(b"probe").is_err() {
        return false;
    }
    let mut buf = [0u8; 16];
    rx.recv_from(&mut buf).is_ok()
}

/// Batched-syscall efficiency of the shared reactor under live load.
struct ReactorBench {
    wall_ms: f64,
    packets: u64,
    syscalls_per_packet: f64,
    rx_batch_mean: f64,
    rx_batch_max: u64,
}

/// Run `pairs` concurrent sender→receiver transfers of `payload` bytes
/// each on ONE private reactor over loopback multicast, and read the
/// batching gauges off its stats. `None` when multicast is unavailable.
fn reactor_microbench(pairs: usize, payload: usize) -> Option<ReactorBench> {
    if !multicast_available(49000) {
        return None;
    }
    let reactor = Reactor::new().expect("reactor");
    let mut protocol = ProtocolConfig::hrmc().with_buffer(256 * 1024);
    protocol.max_rate = 16 * 1024 * 1024;
    protocol.initial_rtt = 2_000;
    protocol.anonymous_release_hold = 500_000;
    let t0 = Instant::now();
    let groups: Vec<SocketAddrV4> = (0..pairs as u16)
        .map(|i| SocketAddrV4::new(Ipv4Addr::new(239, 255, 95, 10 + i as u8), 49010 + i))
        .collect();
    let receivers: Vec<_> = groups
        .iter()
        .map(|&g| {
            Session::receiver(g)
                .interface(LO)
                .config(protocol.clone())
                .reactor(reactor.clone())
                .bind()
                .expect("join receiver")
        })
        .collect();
    let senders: Vec<_> = groups
        .iter()
        .map(|&g| {
            Session::sender(g)
                .interface(LO)
                .config(protocol.clone())
                .reactor(reactor.clone())
                .bind()
                .expect("bind sender")
        })
        .collect();
    let data: Vec<u8> = (0..payload).map(|i| (i * 31 % 251) as u8).collect();
    let readers: Vec<_> = receivers
        .into_iter()
        .map(|r| {
            let len = data.len();
            std::thread::spawn(move || {
                let mut got = 0usize;
                let mut buf = [0u8; 16 * 1024];
                loop {
                    match r.recv(&mut buf, Duration::from_secs(60)) {
                        Ok(0) => break,
                        Ok(n) => got += n,
                        Err(e) => panic!("bench recv failed: {e}"),
                    }
                }
                assert_eq!(got, len, "bench transfer truncated");
            })
        })
        .collect();
    let writers: Vec<_> = senders
        .into_iter()
        .map(|s| {
            let data = data.clone();
            std::thread::spawn(move || {
                s.send(&data).expect("bench send");
                s.close_and_wait(Duration::from_secs(120))
                    .expect("bench close");
            })
        })
        .collect();
    for w in writers {
        w.join().expect("bench writer panicked");
    }
    for r in readers {
        r.join().expect("bench reader panicked");
    }
    let st = reactor.stats();
    Some(ReactorBench {
        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
        packets: st.packets_rx + st.packets_tx,
        syscalls_per_packet: st.syscalls_per_packet(),
        rx_batch_mean: st.rx_batch_mean,
        rx_batch_max: st.rx_batch_max,
    })
}

/// One membership micro-bench row: per-operation wall time (noisy,
/// informational) and the deterministic scan-cost counters the `--check`
/// gate rides on.
struct MembershipBench {
    n: usize,
    update_ns: f64,
    all_have_ns: f64,
    lacking_ns: f64,
    /// `lacking` once the crowd has moved far ahead of one laggard: the
    /// cost must follow the laggard, not the population it once shared
    /// a sequence range with.
    lacking_after_drain_ns: f64,
    /// Members touched per `lacking` call — the release gate's probe
    /// fan-out cost. Deterministic for the fixed workload; flat in `n`
    /// because the range scan touches only the laggards.
    members_scanned_per_lacking: f64,
}

/// The protocol-shaped hot loop at population `n`: the group marches its
/// `next_expected` forward one stride per round (crossing the u32 wrap
/// mid-march) while one laggard trails a round behind — the MINBUF
/// regime, where the release gate fails on a small trailing set, `lacking`
/// names it, the laggard catches up, and the gate passes. The range scan
/// stops at the gate, so its cost tracks the laggard count, not the
/// population.
fn membership_microbench(n: usize) -> MembershipBench {
    const ROUNDS: u32 = 64;
    const STRIDE: u32 = 64;
    let base: u32 = u32::MAX - ROUNDS * STRIDE / 2; // cross the wrap mid-march
    let mut m = Membership::new();
    for p in 0..n {
        m.add(PeerId(p as u32), base, p as u64);
    }
    let mut now = n as u64;
    let (mut t_update, mut t_all_have, mut t_lacking) = (0u128, 0u128, 0u128);
    let (mut updates, mut lackings) = (0u64, 0u64);
    let mut scratch: Vec<PeerId> = Vec::new();
    for r in 1..=ROUNDS {
        let front = base.wrapping_add(r * STRIDE);
        let t0 = Instant::now();
        for p in 1..n {
            now += 1;
            m.update(PeerId(p as u32), front.wrapping_add(1), now);
            updates += 1;
        }
        t_update += t0.elapsed().as_nanos();
        let t0 = Instant::now();
        let complete = m.all_have(front);
        t_all_have += t0.elapsed().as_nanos();
        assert!(!complete, "laggard must hold the gate");
        let t0 = Instant::now();
        m.lacking_into(front, &mut scratch);
        t_lacking += t0.elapsed().as_nanos();
        lackings += 1;
        assert_eq!(scratch.len(), 1, "exactly the laggard lacks");
        now += 1;
        m.update(PeerId(0), front.wrapping_add(1), now);
        updates += 1;
        let t0 = Instant::now();
        let complete = m.all_have(front);
        t_all_have += t0.elapsed().as_nanos();
        assert!(complete, "caught-up group must release");
    }
    let costs = m.costs();

    // The drained crowd: everyone starts together, then all but one
    // member move 64 strides ahead, leaving one laggard behind.
    const DRAIN_CALLS: u32 = 2_000;
    let mut d = Membership::new();
    for p in 0..n {
        d.add(PeerId(p as u32), 0, p as u64);
    }
    for p in 1..n {
        d.update(PeerId(p as u32), ROUNDS * STRIDE, (n + p) as u64);
    }
    let t0 = Instant::now();
    for _ in 0..DRAIN_CALLS {
        d.lacking_into(std::hint::black_box(0), &mut scratch);
    }
    let t_drain = t0.elapsed().as_nanos();
    assert_eq!(scratch, [PeerId(0)], "only the laggard lacks");

    MembershipBench {
        n,
        update_ns: t_update as f64 / updates as f64,
        all_have_ns: t_all_have as f64 / (2 * ROUNDS) as f64,
        lacking_ns: t_lacking as f64 / lackings as f64,
        lacking_after_drain_ns: t_drain as f64 / f64::from(DRAIN_CALLS),
        members_scanned_per_lacking: costs.members_scanned as f64 / lackings as f64,
    }
}

const MEMBERSHIP_POPULATIONS: [usize; 3] = [1_000, 10_000, 100_000];

fn print_membership_row(b: &MembershipBench) {
    println!(
        "bench: membership/{}m  update={:.0} ns  all_have={:.0} ns  lacking={:.0} ns  \
         lacking_after_drain={:.0} ns  scanned/lacking={:.1}",
        b.n,
        b.update_ns,
        b.all_have_ns,
        b.lacking_ns,
        b.lacking_after_drain_ns,
        b.members_scanned_per_lacking
    );
}

/// Baseline path: the committed `BENCH_sim.json` at the repo root.
fn baseline_path() -> &'static str {
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sim.json")
}

/// The `--check` regression gate: compare this build's deterministic
/// scheduler-work counters against the committed baseline.
fn check_against_baseline() -> ! {
    let (report, wall_ms) = run_once(64, 200_000);
    let ticks_total: u64 = report.host_ticks.iter().sum();
    let (fanout_events, fanout_ticks) = fanout_counters();
    let body = std::fs::read_to_string(baseline_path())
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", baseline_path()));
    let baseline = serde_json::from_str(&body).expect("BENCH_sim.json must be valid JSON");
    let base = |path: &[&str]| -> u64 {
        path.iter()
            .try_fold(&baseline, |v, key| v.get(key))
            .and_then(|v| v.as_u64())
            .unwrap_or_else(|| panic!("BENCH_sim.json has no numeric `{}`", path.join("/")))
    };
    let mut failed = false;
    for (name, current, pinned) in [
        (
            "events_popped",
            report.events_popped,
            base(&["events_popped"]),
        ),
        ("engine_ticks", ticks_total, base(&["engine_ticks"])),
        (
            "fanout_1k/events_popped",
            fanout_events,
            base(&["fanout_1k", "events_popped"]),
        ),
        (
            "fanout_1k/engine_ticks",
            fanout_ticks,
            base(&["fanout_1k", "engine_ticks"]),
        ),
    ] {
        // >10% growth over the committed baseline fails the gate.
        let limit = pinned + pinned.div_ceil(10);
        let verdict = if current > limit { "REGRESSED" } else { "ok" };
        failed |= current > limit;
        println!(
            "bench-check: {name}  current={current}  baseline={pinned}  \
             limit={limit}  {verdict}"
        );
    }
    println!("bench-check: wall={wall_ms:.1} ms (informational, not gated)");
    // Membership gate: the release-gate scan cost must stay flat (well
    // sub-linear) as the population grows 1k -> 100k, and must not grow
    // past the committed per-population pin by more than 10%. Both
    // checks ride on the deterministic `members_scanned` counter — wall
    // times are printed but never gated.
    let rows: Vec<MembershipBench> = MEMBERSHIP_POPULATIONS
        .iter()
        .map(|&n| membership_microbench(n))
        .collect();
    for b in &rows {
        print_membership_row(b);
        let pinned = baseline
            .get("membership")
            .and_then(|v| v.get(&b.n.to_string()))
            .and_then(|v| v.get("members_scanned_per_lacking"))
            .and_then(|v| v.as_f64());
        if let Some(p) = pinned {
            let limit = p * 1.1 + 0.5;
            let verdict = if b.members_scanned_per_lacking > limit {
                "REGRESSED"
            } else {
                "ok"
            };
            failed |= b.members_scanned_per_lacking > limit;
            println!(
                "bench-check: membership/{}m scanned/lacking={:.1}  baseline={p:.1}  \
                 limit={limit:.1}  {verdict}",
                b.n, b.members_scanned_per_lacking
            );
        } else {
            println!(
                "bench-check: membership/{}m has no committed pin (re-baseline to add one)",
                b.n
            );
        }
    }
    let (small, large) = (&rows[0], &rows[rows.len() - 1]);
    let ratio = large.members_scanned_per_lacking / small.members_scanned_per_lacking.max(1.0);
    let growth = large.n as f64 / small.n as f64;
    let sublinear = ratio <= growth / 8.0;
    failed |= !sublinear;
    println!(
        "bench-check: membership scan growth {}m -> {}m = {ratio:.2}x \
         (population grew {growth:.0}x; limit {:.1}x)  {}",
        small.n,
        large.n,
        growth / 8.0,
        if sublinear { "ok" } else { "REGRESSED" }
    );
    match reactor_microbench(4, 150_000) {
        Some(r) => {
            // Tolerance band around the committed reactor baseline:
            // loopback batching varies run to run, so allow up to 2×
            // the pinned ratio (with a +0.05 absolute floor so a very
            // tight baseline stays holdable) — but never at or above
            // 1.0, the one-syscall-per-datagram floor below which the
            // reactor has degenerated to unbatched I/O.
            let pinned = baseline
                .get("reactor")
                .filter(|v| !v.is_null())
                .and_then(|v| v.get("syscalls_per_packet"))
                .and_then(|v| v.as_f64());
            let limit = match pinned {
                Some(b) => (b * 2.0).max(b + 0.05).min(1.0),
                None => 1.0,
            };
            let verdict = if r.syscalls_per_packet < limit {
                "ok"
            } else {
                "REGRESSED"
            };
            failed |= r.syscalls_per_packet >= limit;
            println!(
                "bench-check: reactor syscalls_per_packet={:.3}  baseline={}  \
                 limit=<{limit:.3}  rx_batch_mean={:.2}  rx_batch_max={}  packets={}  \
                 wall={:.1} ms  {verdict}",
                r.syscalls_per_packet,
                pinned.map_or_else(|| "none".to_string(), |b| format!("{b:.3}")),
                r.rx_batch_mean,
                r.rx_batch_max,
                r.packets,
                r.wall_ms
            );
        }
        None => println!("bench-check: reactor micro-bench skipped (no multicast loopback)"),
    }
    if failed {
        eprintln!(
            "bench-check: perf regressed vs BENCH_sim.json / the batching floor; \
             fix the regression or deliberately re-baseline with \
             `cargo bench -p hrmc-bench --bench sim`"
        );
        std::process::exit(1);
    }
    std::process::exit(0);
}

fn main() {
    if std::env::args().any(|a| a == "--check") {
        check_against_baseline();
    }
    let smoke = std::env::args().any(|a| a == "--test");
    let (receivers, transfer, iters) = if smoke {
        (8, 50_000, 1)
    } else {
        (64, 200_000, 3)
    };

    let mut best: Option<(SimReport, f64)> = None;
    for _ in 0..iters {
        let (report, wall_ms) = run_once(receivers, transfer);
        if best.as_ref().is_none_or(|(_, w)| wall_ms < *w) {
            best = Some((report, wall_ms));
        }
    }
    let (report, wall_ms) = best.expect("at least one iteration");
    let ticks_total: u64 = report.host_ticks.iter().sum();
    println!(
        "bench: sim/scalability-{receivers}r  wall={wall_ms:.1} ms  events_popped={}  \
         peak_queue_len={}  engine_ticks={}  sim_elapsed={} us",
        report.events_popped, report.peak_queue_len, ticks_total, report.elapsed_us
    );

    let fanout = (!smoke).then(fanout_counters);
    if let Some((events, ticks)) = fanout {
        println!(
            "bench: sim/fanout-{FANOUT_RECEIVERS}r  events_popped={events}  engine_ticks={ticks}"
        );
    }

    let membership: Vec<MembershipBench> = if smoke {
        vec![membership_microbench(1_000)]
    } else {
        MEMBERSHIP_POPULATIONS
            .iter()
            .map(|&n| membership_microbench(n))
            .collect()
    };
    for b in &membership {
        print_membership_row(b);
    }

    let reactor = reactor_microbench(
        if smoke { 2 } else { 4 },
        if smoke { 30_000 } else { 150_000 },
    );
    match &reactor {
        Some(r) => println!(
            "bench: reactor/{}p  wall={:.1} ms  packets={}  syscalls_per_packet={:.3}  \
             rx_batch_mean={:.2}  rx_batch_max={}",
            if smoke { 2 } else { 4 },
            r.wall_ms,
            r.packets,
            r.syscalls_per_packet,
            r.rx_batch_mean,
            r.rx_batch_max
        ),
        None => println!("bench: reactor micro-bench skipped (no multicast loopback)"),
    }

    if smoke {
        return; // CI smoke: no baseline file
    }
    let mut membership_json = serde_json::Map::new();
    for b in &membership {
        membership_json.insert(
            b.n.to_string(),
            serde_json::json!({
                "update_ns": b.update_ns,
                "all_have_ns": b.all_have_ns,
                "lacking_ns": b.lacking_ns,
                "lacking_after_drain_ns": b.lacking_after_drain_ns,
                "members_scanned_per_lacking": b.members_scanned_per_lacking,
            }),
        );
    }
    let membership_json = serde_json::Value::Object(membership_json);
    let out = serde_json::json!({
        "scenario": {
            "receivers": receivers,
            "bandwidth_bps": 1_000_000,
            "loss": 0.005,
            "transfer_bytes": transfer,
            "seed": 1,
        },
        "wall_ms": wall_ms,
        "events_popped": report.events_popped,
        "peak_queue_len": report.peak_queue_len,
        "engine_ticks": ticks_total,
        "sim_elapsed_us": report.elapsed_us,
        "throughput_mbps": report.throughput_mbps,
        "fanout_1k": fanout.map(|(events, ticks)| serde_json::json!({
            "receivers": FANOUT_RECEIVERS,
            "transfer_bytes": 200_000,
            "events_popped": events,
            "engine_ticks": ticks,
        })),
        "membership": membership_json,
        "reactor": reactor.as_ref().map(|r| serde_json::json!({
            "pairs": 4,
            "transfer_bytes": 150_000,
            "wall_ms": r.wall_ms,
            "packets": r.packets,
            "syscalls_per_packet": r.syscalls_per_packet,
            "rx_batch_mean": r.rx_batch_mean,
            "rx_batch_max": r.rx_batch_max,
        })),
    });
    let path = baseline_path();
    let body = serde_json::to_string_pretty(&out).expect("serialize BENCH_sim.json");
    std::fs::write(path, body + "\n").expect("write BENCH_sim.json");
    println!("bench: wrote {path}");
}
