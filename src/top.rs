//! `hrmc top` rendering: turn continuous telemetry into terminal
//! dashboard frames.
//!
//! Two inputs, one look:
//!
//! * **live** — the `/json` body of a running [`hrmc_net::Telemetry`]
//!   endpoint, refreshed in place ([`render_endpoint_frame`]);
//! * **recorded** — a JSONL file of sampler lines (written by
//!   `--telemetry`'s sink, a simulation's `--timeseries`, or any mixed
//!   event/telemetry stream), summarized once ([`render_trace`]).
//!
//! Pure string-in/string-out so every frame is testable without a
//! terminal; the only ANSI the caller needs is [`CLEAR`].

use std::fmt::Write as _;

use hrmc_core::TelemetrySample;
use serde_json::Value;

/// ANSI: clear the screen and home the cursor (prefix of every live
/// refresh).
pub const CLEAR: &str = "\x1b[2J\x1b[H";

/// Eight-level unicode sparkline of a series, scaled to its maximum.
fn sparkline(vals: &[u64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = vals.iter().copied().max().unwrap_or(0).max(1);
    vals.iter().map(|v| BARS[(v * 7 / max) as usize]).collect()
}

/// Downsample a series to at most `width` buckets by summing runs, so a
/// long recording still fits one terminal line.
fn downsample(vals: &[u64], width: usize) -> Vec<u64> {
    if vals.len() <= width || width == 0 {
        return vals.to_vec();
    }
    let mut out = Vec::with_capacity(width);
    for b in 0..width {
        let lo = b * vals.len() / width;
        let hi = ((b + 1) * vals.len() / width).max(lo + 1);
        out.push(vals[lo..hi.min(vals.len())].iter().sum());
    }
    out
}

/// The alerts pane: the `/alerts`-shaped transition history (also
/// embedded in `/json` under `"alerts"`) as a summary line plus the
/// most recent transitions, newest last. Raised entries are flagged
/// `!!`; a rule is *active* when its latest transition is a raise.
fn render_alerts(out: &mut String, alerts: &[Value]) {
    let mut last_state: std::collections::BTreeMap<&str, bool> = Default::default();
    for a in alerts {
        if let (Some(rule), Some(raised)) = (
            a.get("rule").and_then(Value::as_str),
            a.get("raised").and_then(Value::as_bool),
        ) {
            last_state.insert(rule, raised);
        }
    }
    let active = last_state.values().filter(|&&raised| raised).count();
    let _ = writeln!(
        out,
        "alerts  {active} active, {} transition(s)",
        alerts.len()
    );
    let skip = alerts.len().saturating_sub(8);
    for a in &alerts[skip..] {
        let raised = a.get("raised").and_then(Value::as_bool).unwrap_or(false);
        let _ = writeln!(
            out,
            "  {} {:<8} {:<17} {:<7} t +{:.1}s  value {}m  limit {}m",
            if raised { "!!" } else { "  " },
            a.get("severity").and_then(Value::as_str).unwrap_or("?"),
            a.get("rule").and_then(Value::as_str).unwrap_or("?"),
            if raised { "RAISED" } else { "cleared" },
            a.get("t_us").and_then(Value::as_u64).unwrap_or(0) as f64 / 1e6,
            a.get("value_m").and_then(Value::as_u64).unwrap_or(0),
            a.get("limit_m").and_then(Value::as_u64).unwrap_or(0),
        );
    }
}

fn fmt_rate(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.1}")
    }
}

/// The per-sample body shared by both views: interval rates, gauges,
/// and histogram quantiles.
fn render_sample(out: &mut String, s: &TelemetrySample) {
    let _ = writeln!(
        out,
        "sample #{}  t +{:.1}s  interval {}ms",
        s.seq,
        s.t_us as f64 / 1e6,
        s.interval_us / 1_000
    );
    let mut rates: Vec<(&str, u64, f64)> = s
        .counters
        .iter()
        .map(|(k, &d)| (k.as_str(), d, s.rate_per_sec(k)))
        .filter(|&(_, d, _)| d > 0)
        .collect();
    rates.sort_by(|a, b| b.2.total_cmp(&a.2).then(a.0.cmp(b.0)));
    if !rates.is_empty() {
        let _ = writeln!(out, "\n  {:<32} {:>10} {:>12}", "counter", "Δ", "per-sec");
        for (name, delta, rate) in rates.iter().take(14) {
            let _ = writeln!(out, "  {:<32} {:>10} {:>12}", name, delta, fmt_rate(*rate));
        }
    }
    if !s.gauges.is_empty() {
        let _ = write!(out, "\n  gauges ");
        for (i, (k, v)) in s.gauges.iter().enumerate() {
            let _ = write!(out, "{}{k}={v}", if i > 0 { "  " } else { "" });
        }
        out.push('\n');
    }
    if !s.hists.is_empty() {
        let _ = writeln!(
            out,
            "\n  {:<32} {:>8} {:>8} {:>8} {:>8} {:>8}",
            "histogram", "count", "p50", "p90", "p99", "max"
        );
        for (name, h) in &s.hists {
            let _ = writeln!(
                out,
                "  {:<32} {:>8} {:>8} {:>8} {:>8} {:>8}",
                name, h.count, h.p50, h.p90, h.p99, h.max
            );
        }
    }
}

/// Render one live frame from a telemetry endpoint's `/json` body.
/// Unknown or missing sections degrade to absence, never to a panic —
/// the dashboard must outlive whatever half-written state it scrapes.
pub fn render_endpoint_frame(endpoint: &str, body: &Value) -> String {
    let mut out = String::with_capacity(1024);
    let _ = writeln!(out, "hrmc top — {endpoint}\n");
    if let Some(r) = body.get("reactor") {
        // Endpoints predating the reactor pool omit shards: they ran one
        // reactor. Recordings made while a second datapath existed also
        // carry a "backend" key, which is ignored.
        let _ = writeln!(
            out,
            "reactor  shards {}  sessions {}  syscalls/pkt {}  loop p99 {}µs  timer slip p99 {}µs  idle cap {}ms",
            r.get("shards").and_then(Value::as_u64).unwrap_or(1),
            r.get("sessions").and_then(Value::as_u64).unwrap_or(0),
            r.get("syscalls_per_packet")
                .and_then(Value::as_f64)
                .map(|v| format!("{v:.4}"))
                .unwrap_or_else(|| "-".into()),
            r.get("loop_p99_us").and_then(Value::as_u64).unwrap_or(0),
            r.get("timer_slippage_p99_us")
                .and_then(Value::as_u64)
                .unwrap_or(0),
            r.get("idle_cap_ms").and_then(Value::as_u64).unwrap_or(0),
        );
    }
    if let Some(sessions) = body.get("sessions").and_then(Value::as_array) {
        if !sessions.is_empty() {
            let _ = writeln!(
                out,
                "\n  {:<4} {:<9} {:>12} {:>12} {:>14} {:>14} {:>10} {:>8}",
                "id", "role", "rx pkts", "tx pkts", "rx bytes", "tx bytes", "rcvbuf", "k-drops"
            );
            for sess in sessions {
                let field = |k: &str| sess.get(k).and_then(Value::as_u64);
                // Endpoints predating kernel buffer sizing omit the
                // last two columns: "-", not a misleading 0.
                let or_dash = |v: Option<String>| v.unwrap_or_else(|| "-".into());
                let _ = writeln!(
                    out,
                    "  {:<4} {:<9} {:>12} {:>12} {:>14} {:>14} {:>10} {:>8}",
                    field("id").unwrap_or(0),
                    sess.get("role").and_then(Value::as_str).unwrap_or("?"),
                    field("packets_rx").unwrap_or(0),
                    field("packets_tx").unwrap_or(0),
                    field("bytes_rx").unwrap_or(0),
                    field("bytes_tx").unwrap_or(0),
                    or_dash(field("rcvbuf_bytes").map(|b| format!("{}K", b / 1024))),
                    or_dash(field("kernel_drops").map(|d| d.to_string())),
                );
            }
        }
    }
    if let Some(alerts) = body.get("alerts").and_then(Value::as_array) {
        if !alerts.is_empty() {
            out.push('\n');
            render_alerts(&mut out, alerts);
        }
    }
    out.push('\n');
    match body
        .get("sample")
        .and_then(hrmc_trace::parse_telemetry_sample)
    {
        Some(s) => render_sample(&mut out, &s),
        None => {
            let _ = writeln!(out, "(no sample yet)");
        }
    }
    out
}

/// Adapt a simulator timeseries (flat [`hrmc_sim::SimSamplePoint`]
/// rows, as `timeline --timeseries` writes) into sampler-shaped
/// [`TelemetrySample`]s so both recorded formats render through one
/// view. Cumulative fields become totals (with per-interval deltas
/// recomputed), instantaneous fields become gauges; lines without the
/// sim-point shape are passed over.
pub fn parse_sim_timeseries(input: &str) -> Vec<TelemetrySample> {
    let mut out: Vec<TelemetrySample> = Vec::new();
    let mut prev_t = 0u64;
    let mut prev: std::collections::BTreeMap<String, u64> = Default::default();
    for line in input.lines() {
        let Ok(v) = serde_json::from_str(line.trim()) else {
            continue;
        };
        let (Some(t_us), Some(_)) = (
            v.get("t_us").and_then(Value::as_u64),
            v.get("bytes_received").and_then(Value::as_u64),
        ) else {
            continue;
        };
        let mut totals = std::collections::BTreeMap::new();
        for key in [
            "bytes_received",
            "naks_sent",
            "retransmissions",
            "rate_halvings",
        ] {
            if let Some(n) = v.get(key).and_then(Value::as_u64) {
                totals.insert(key.to_string(), n);
            }
        }
        let counters = totals
            .iter()
            .map(|(k, &n)| {
                (
                    k.clone(),
                    n.saturating_sub(prev.get(k).copied().unwrap_or(0)),
                )
            })
            .collect();
        let mut gauges = std::collections::BTreeMap::new();
        for key in [
            "sender_buffered_bytes",
            "rate_bps",
            "rtt_us",
            "recovery_backlog",
            "completed_receivers",
        ] {
            if let Some(n) = v.get(key).and_then(Value::as_u64) {
                gauges.insert(key.to_string(), n);
            }
        }
        if let Some(occ) = v.get("window_occupancy").and_then(Value::as_f64) {
            gauges.insert(
                "window_occupancy_pct".to_string(),
                (occ * 100.0).round() as u64,
            );
        }
        let interval_us = if out.is_empty() {
            0
        } else {
            t_us.saturating_sub(prev_t)
        };
        prev_t = t_us;
        prev = totals.clone();
        out.push(TelemetrySample {
            seq: out.len() as u64,
            t_us,
            interval_us,
            counters,
            totals,
            gauges,
            hists: Default::default(),
        });
    }
    out
}

/// Summarize a recorded telemetry series: per-counter totals with a
/// rate sparkline, final gauges, and the last sample in full.
pub fn render_trace(source: &str, samples: &[TelemetrySample]) -> String {
    let mut out = String::with_capacity(1024);
    let _ = writeln!(out, "hrmc top — {source} (recorded)\n");
    let Some(last) = samples.last() else {
        let _ = writeln!(out, "(no telemetry samples)");
        return out;
    };
    let first = &samples[0];
    let _ = writeln!(
        out,
        "{} samples spanning {:.1}s (t {}µs → {}µs)\n",
        samples.len(),
        last.t_us.saturating_sub(first.t_us) as f64 / 1e6,
        first.t_us,
        last.t_us
    );
    // One line per counter that ever moved: cumulative total, peak
    // per-interval delta, and the shape of its activity over time.
    let mut names: Vec<&String> = last.totals.keys().collect();
    names.sort_by_key(|n| std::cmp::Reverse(last.total(n)));
    let _ = writeln!(
        out,
        "  {:<32} {:>12} {:>10}  activity",
        "counter", "total", "peak Δ"
    );
    for name in names.into_iter().take(14) {
        let deltas: Vec<u64> = samples.iter().map(|s| s.counter_delta(name)).collect();
        if deltas.iter().all(|&d| d == 0) {
            continue;
        }
        let _ = writeln!(
            out,
            "  {:<32} {:>12} {:>10}  {}",
            name,
            last.total(name),
            deltas.iter().copied().max().unwrap_or(0),
            sparkline(&downsample(&deltas, 32)),
        );
    }
    out.push('\n');
    render_sample(&mut out, last);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn sample(seq: u64, t_us: u64, interval_us: u64, sent_delta: u64) -> TelemetrySample {
        let mut counters = BTreeMap::new();
        counters.insert("data_packets_sent".to_string(), sent_delta);
        let mut totals = BTreeMap::new();
        totals.insert("data_packets_sent".to_string(), (seq + 1) * sent_delta);
        let mut gauges = BTreeMap::new();
        gauges.insert("reactor_sessions".to_string(), 2);
        TelemetrySample {
            seq,
            t_us,
            interval_us,
            counters,
            totals,
            gauges,
            hists: BTreeMap::new(),
        }
    }

    #[test]
    fn sparkline_scales_to_max_and_downsamples() {
        assert_eq!(sparkline(&[0, 7, 14]), "▁▄█");
        assert_eq!(sparkline(&[0]), "▁");
        let long: Vec<u64> = (0..100).collect();
        assert_eq!(downsample(&long, 10).len(), 10);
        assert_eq!(downsample(&long, 10).iter().sum::<u64>(), (0..100).sum());
        assert_eq!(downsample(&[1, 2, 3], 10), vec![1, 2, 3]);
    }

    #[test]
    fn endpoint_frame_renders_reactor_sessions_and_sample() {
        let body: Value = serde_json::from_str(
            "{\"sample\":{\"telemetry\":1,\"seq\":3,\"t_us\":2000000,\"interval_us\":500000,\
             \"counters\":{\"data_packets_sent\":50},\"totals\":{\"data_packets_sent\":200},\
             \"gauges\":{\"reactor_sessions\":2},\
             \"hists\":{\"reactor_loop_us\":{\"count\":9,\"delta\":4,\"p50\":15,\"p90\":31,\
             \"p99\":63,\"max\":60}}},\
             \"sessions\":[{\"id\":1,\"role\":\"sender\",\"packets_rx\":7,\"packets_tx\":150,\
             \"bytes_rx\":700,\"bytes_tx\":210000,\"kernel_drops\":3,\
             \"rcvbuf_bytes\":1048576,\"sndbuf_bytes\":1048576}],\
             \"reactor\":{\"shards\":4,\"sessions\":1,\
             \"syscalls_per_packet\":0.1441,\"loop_p99_us\":63,\
             \"timer_slippage_p99_us\":127,\"idle_cap_ms\":100}}",
        )
        .unwrap();
        let frame = render_endpoint_frame("127.0.0.1:9000", &body);
        assert!(frame.contains("hrmc top — 127.0.0.1:9000"));
        assert!(frame.contains("reactor  shards 4  sessions 1"), "{frame}");
        assert!(frame.contains("syscalls/pkt 0.1441"));
        assert!(frame.contains("loop p99 63µs"));
        assert!(frame.contains("sender"));
        assert!(frame.contains("210000"));
        assert!(frame.contains("1024K"), "{frame}");
        assert!(frame.contains("k-drops"), "{frame}");
        assert!(frame.contains("sample #3"));
        assert!(frame.contains("data_packets_sent"));
        assert!(frame.contains("100")); // 50 Δ / 0.5 s = 100/s
        assert!(frame.contains("reactor_loop_us"));
    }

    #[test]
    fn downsample_handles_single_sample_and_empty_series() {
        assert_eq!(downsample(&[5], 32), vec![5]);
        assert_eq!(downsample(&[5], 1), vec![5]);
        assert_eq!(downsample(&[5], 0), vec![5]);
        assert_eq!(downsample(&[], 32), Vec::<u64>::new());
        assert_eq!(sparkline(&[5]), "█");
        let one = sample(0, 250_000, 0, 40);
        let text = render_trace("one.jsonl", &[one]);
        assert!(text.contains("1 samples"), "{text}");
        assert!(text.contains("sample #0"), "{text}");
    }

    #[test]
    fn endpoint_frame_renders_alerts_pane() {
        let body: Value = serde_json::from_str(
            "{\"sample\":null,\"sessions\":[],\"alerts\":[\
             {\"t_us\":600000,\"rule\":\"nak_storm\",\"severity\":\"warning\",\
              \"raised\":true,\"value_m\":22000,\"limit_m\":1000},\
             {\"t_us\":2100000,\"rule\":\"window_stall\",\"severity\":\"critical\",\
              \"raised\":true,\"value_m\":2500,\"limit_m\":2000},\
             {\"t_us\":3200000,\"rule\":\"nak_storm\",\"severity\":\"warning\",\
              \"raised\":false,\"value_m\":200,\"limit_m\":1000}]}",
        )
        .unwrap();
        let frame = render_endpoint_frame("127.0.0.1:9000", &body);
        assert!(
            frame.contains("alerts  1 active, 3 transition(s)"),
            "{frame}"
        );
        assert!(
            frame.contains("!! warning  nak_storm         RAISED"),
            "{frame}"
        );
        assert!(
            frame.contains("!! critical window_stall      RAISED"),
            "{frame}"
        );
        assert!(
            frame.contains("   warning  nak_storm         cleared"),
            "{frame}"
        );
        assert!(
            frame.contains("t +0.6s  value 22000m  limit 1000m"),
            "{frame}"
        );
    }

    #[test]
    fn healthy_alerts_section_renders_no_pane() {
        let body: Value = serde_json::from_str("{\"sample\":null,\"alerts\":[]}").unwrap();
        let frame = render_endpoint_frame("x", &body);
        assert!(!frame.contains("alerts "), "{frame}");
        assert!(frame.contains("(no sample yet)"));
    }

    #[test]
    fn endpoint_frame_renders_old_recordings_with_a_backend() {
        // Recordings from builds with a second datapath name it in the
        // reactor section, and older ones predate shards; both render.
        for (reactor, want) in [
            (
                "\"backend\":\"uring\",\"shards\":4,",
                "reactor  shards 4  sessions 2",
            ),
            ("", "reactor  shards 1  sessions 2"),
        ] {
            let body: Value = serde_json::from_str(&format!(
                "{{\"sample\":null,\"reactor\":{{{reactor}\"sessions\":2,\
                 \"syscalls_per_packet\":0.2,\"loop_p99_us\":1,\
                 \"timer_slippage_p99_us\":2,\"idle_cap_ms\":100}}}}"
            ))
            .unwrap();
            let frame = render_endpoint_frame("x", &body);
            assert!(frame.contains(want), "{frame}");
            assert!(frame.contains("syscalls/pkt 0.2000"), "{frame}");
            assert!(!frame.contains("backend"), "{frame}");
        }
    }

    #[test]
    fn endpoint_frame_survives_missing_sections() {
        let body: Value = serde_json::from_str("{\"sample\":null}").unwrap();
        let frame = render_endpoint_frame("x", &body);
        assert!(frame.contains("(no sample yet)"));
    }

    #[test]
    fn sim_timeseries_adapts_to_sampler_shape() {
        let input = "\
            {\"t_us\":50000,\"bytes_received\":1000,\"throughput_mbps\":0.16,\"naks_sent\":2,\
             \"nak_rate_per_sec\":40.0,\"retransmissions\":1,\"sender_buffered_bytes\":4096,\
             \"rate_bps\":125000,\"rtt_us\":2000,\"recovery_backlog\":3,\
             \"window_occupancy\":0.25,\"completed_receivers\":0,\"rate_halvings\":0}\n\
            not json\n\
            {\"t_us\":100000,\"bytes_received\":3000,\"throughput_mbps\":0.32,\"naks_sent\":2,\
             \"nak_rate_per_sec\":0.0,\"retransmissions\":1,\"sender_buffered_bytes\":0,\
             \"rate_bps\":125000,\"rtt_us\":2100,\"recovery_backlog\":0,\
             \"window_occupancy\":0.5,\"completed_receivers\":2,\"rate_halvings\":3}\n";
        let samples = parse_sim_timeseries(input);
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].total("bytes_received"), 1000);
        assert_eq!(samples[0].interval_us, 0);
        assert_eq!(samples[1].interval_us, 50_000);
        assert_eq!(samples[1].counter_delta("bytes_received"), 2000);
        assert_eq!(samples[1].counter_delta("rate_halvings"), 3);
        assert_eq!(samples[1].gauge("window_occupancy_pct"), Some(50));
        assert_eq!(samples[1].gauge("completed_receivers"), Some(2));
        let text = render_trace("sim.jsonl", &samples);
        assert!(text.contains("bytes_received"));
    }

    #[test]
    fn trace_summary_spans_the_series() {
        let samples: Vec<TelemetrySample> = (0..20)
            .map(|i| sample(i, (i + 1) * 250_000, if i == 0 { 0 } else { 250_000 }, 40))
            .collect();
        let text = render_trace("run.jsonl", &samples);
        assert!(text.contains("hrmc top — run.jsonl (recorded)"));
        assert!(text.contains("20 samples"));
        assert!(text.contains("data_packets_sent"));
        assert!(text.contains('█'), "sparkline rendered: {text}");
        assert!(text.contains("sample #19"));
        let empty = render_trace("none.jsonl", &[]);
        assert!(empty.contains("(no telemetry samples)"));
    }
}
