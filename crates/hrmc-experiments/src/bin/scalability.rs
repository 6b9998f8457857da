//! Extension experiment: sender load vs. receiver population, with the
//! paper's centralized recovery against the local-recovery extension
//! (paper future-work item 3: "use of local recovery to improve the
//! scalability of the protocol").
//!
//! For each population, a lossy LAN transfer runs twice; the series of
//! interest is the *sender's* repair work (retransmissions) and how much
//! of it the peer group absorbs.
//!
//! A second sweep measures raw fan-out: lossless transfers at 1k / 10k /
//! 100k receivers, reporting simulator events per delivered byte and
//! sender work per receiver — the O(log n) membership index and the
//! deadline-heap scheduler are what keep both columns flat as the
//! population grows three orders of magnitude.
//!
//! ```sh
//! cargo run --release -p hrmc-experiments --bin scalability
//! # fan-out sweep only, chosen populations (CI smoke):
//! HRMC_EXP_FANOUT=10000 cargo run --release -p hrmc-experiments --bin scalability
//! ```

use hrmc_app::{mean, Scenario};
use hrmc_experiments::{ExpOptions, Table};
use serde_json::json;

/// The fan-out sweep: one lossless LAN transfer per population (see
/// [`hrmc_experiments::fanout_scenario`]). Small fixed transfer — the
/// quantity under test is per-receiver overhead, not bulk throughput.
fn fanout_sweep(opts: &ExpOptions, populations: &[usize]) {
    let transfer = opts.transfer(200_000);
    let mut table = Table::new(
        &format!(
            "Scalability: sender fan-out, lossless LAN ({} KB, 1 Gbps)",
            transfer / 1000
        ),
        &[
            "receivers",
            "events",
            "ev/KB delivered",
            "sender ticks",
            "ticks/rcv",
            "sim s",
            "wall s",
        ],
    );
    let mut series = serde_json::Map::new();
    for &n in populations {
        let scenario = hrmc_experiments::fanout_scenario(n, transfer);
        let started = std::time::Instant::now();
        let r = scenario.run();
        let wall = started.elapsed();
        assert!(r.completed, "fan-out run did not complete at n={n}");
        assert!(r.all_intact(), "fan-out run corrupted data at n={n}");
        if std::env::var("HRMC_EXP_DEBUG").is_ok() {
            eprintln!(
                "n={n} probes={} keepalives={} updates={} naks={} retrans={} data={} joins={} ticks0={} deferred={}",
                r.sender.probes_sent, r.sender.keepalives_sent, r.sender.updates_received,
                r.sender.naks_received, r.sender.retransmissions, r.sender.data_packets_sent,
                r.sender.joins, r.host_ticks[0], r.sender.probes_deferred_by_batch,
            );
        }
        let delivered: u64 = r.receivers.iter().map(|x| x.bytes).sum();
        let ev_per_kb = r.events_popped as f64 * 1000.0 / delivered as f64;
        let sender_ticks = r.host_ticks[0];
        let ticks_per_rcv = sender_ticks as f64 / n as f64;
        table.row(vec![
            n.to_string(),
            r.events_popped.to_string(),
            format!("{ev_per_kb:.2}"),
            sender_ticks.to_string(),
            format!("{ticks_per_rcv:.3}"),
            format!("{:.2}", r.elapsed_us as f64 / 1e6),
            format!("{:.2}", wall.as_secs_f64()),
        ]);
        series.insert(
            n.to_string(),
            json!({
                "events_popped": r.events_popped,
                "events_per_delivered_kb": ev_per_kb,
                "sender_ticks": sender_ticks,
                "sender_ticks_per_receiver": ticks_per_rcv,
                "elapsed_us": r.elapsed_us,
                "wall_ms": wall.as_millis() as u64,
                "peak_queue_len": r.peak_queue_len,
            }),
        );
    }
    table.print();
    println!(
        "Sender ticks per receiver fall as the population grows 1k -> 100k:\n\
         per-receiver sender cost is bounded by the O(log n) membership\n\
         index and the deadline-heap sweep, not by the group size. (Events\n\
         per delivered KB track raw control traffic — the receivers'\n\
         periodic UPDATE waves are inherently O(n) — so that column grows\n\
         with the feedback volume, not with sender-side work.)"
    );
    opts.save_json("scalability_fanout", &serde_json::Value::Object(series));
}

fn main() {
    let opts = ExpOptions::from_env();
    // `HRMC_EXP_FANOUT=n[,n...]` runs only the fan-out sweep at the
    // listed populations (the CI smoke path). Unset: both sweeps, with
    // the fan-out sweep at the full 1k/10k/100k grid.
    if let Ok(spec) = std::env::var("HRMC_EXP_FANOUT") {
        let populations: Vec<usize> = spec
            .split(',')
            .filter_map(|s| s.trim().parse().ok())
            .collect();
        if !populations.is_empty() {
            fanout_sweep(&opts, &populations);
            return;
        }
    }
    let transfer = opts.transfer(4_000_000);
    let loss = 0.01;
    let mut table = Table::new(
        &format!(
            "Scalability: sender retransmissions, centralized vs local recovery \
             ({} MB, 10 Mbps, {:.1}% loss)",
            transfer / 1_000_000,
            loss * 100.0
        ),
        &[
            "receivers",
            "central",
            "local",
            "peer repairs",
            "cancelled",
            "thr c",
            "thr l",
        ],
    );
    let mut series = serde_json::Map::new();
    for receivers in [2usize, 5, 10, 20, 40] {
        let base = Scenario::lan(receivers, 10_000_000, 256 * 1024, transfer).with_loss(loss);
        let central = opts.run_seeds(&base);
        let local = opts.run_seeds(&base.clone().with_local_recovery());
        for r in central.iter().chain(local.iter()) {
            assert!(
                r.completed && r.all_intact(),
                "unreliable run at n={receivers}"
            );
        }
        let c_retrans = mean(
            &central
                .iter()
                .map(|r| r.sender.retransmissions as f64)
                .collect::<Vec<_>>(),
        );
        let l_retrans = mean(
            &local
                .iter()
                .map(|r| r.sender.retransmissions as f64)
                .collect::<Vec<_>>(),
        );
        let repairs = mean(
            &local
                .iter()
                .map(|r| {
                    r.receivers
                        .iter()
                        .map(|x| x.stats.repairs_sent)
                        .sum::<u64>() as f64
                })
                .collect::<Vec<_>>(),
        );
        let cancelled = mean(
            &local
                .iter()
                .map(|r| r.sender.retransmissions_cancelled as f64)
                .collect::<Vec<_>>(),
        );
        let thr_c = mean(
            &central
                .iter()
                .map(|r| r.throughput_mbps)
                .collect::<Vec<_>>(),
        );
        let thr_l = mean(&local.iter().map(|r| r.throughput_mbps).collect::<Vec<_>>());
        table.row(vec![
            receivers.to_string(),
            format!("{c_retrans:.0}"),
            format!("{l_retrans:.0}"),
            format!("{repairs:.0}"),
            format!("{cancelled:.0}"),
            format!("{thr_c:.2}"),
            format!("{thr_l:.2}"),
        ]);
        series.insert(
            receivers.to_string(),
            json!({
                "central_retransmissions": c_retrans,
                "local_retransmissions": l_retrans,
                "peer_repairs": repairs,
                "cancelled": cancelled,
            }),
        );
    }
    table.print();
    println!(
        "Peer repairs absorb retransmission work that would otherwise land on\n\
         the sender; the effect grows with the population, which is exactly\n\
         the scalability argument of the paper's future-work item (3)."
    );
    opts.save_json("scalability", &serde_json::Value::Object(series));
    fanout_sweep(&opts, &[1_000, 10_000, 100_000]);
}
