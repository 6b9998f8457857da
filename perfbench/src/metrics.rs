//! The metric catalogue and the result line.
//!
//! Every metric the benchmark can print is declared here with its unit.
//! An untraced run prints exactly [`END_TO_END`], a traced run exactly
//! [`PER_LAYER`]; `BENCHMARK.json` at the repository root lists the same
//! names and units (a test keeps the two in step).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: what a user of the system sees.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("completion_s", "s"),
    ("goodput_MBps", "MB/s"),
    ("cpu_ms_per_MB", "ms/MB"),
    ("delivery_p50_ms", "ms"),
    ("delivery_p99_ms", "ms"),
    ("peak_rss_MB", "MB"),
];

/// Per-layer metrics, grouped by the workspace module they describe.
/// Counts are per successful iteration (mean); ratios are computed from
/// summed numerators and denominators, both of which are listed too.
pub const PER_LAYER: &[(&str, &str)] = &[
    // hrmc-net: sockets, the reactor and its datapath.
    ("net.bind_ms", "ms"),
    ("net.send_ms", "ms"),
    ("net.recv_wait_ms", "ms"),
    ("net.close_wait_ms", "ms"),
    ("net.syscalls", "count"),
    ("net.packets", "count"),
    ("net.syscalls_per_packet", "ratio"),
    ("net.rx_batch_mean", "pkt/call"),
    ("net.tx_batch_mean", "pkt/call"),
    ("net.wakeups", "count"),
    ("net.timer_fires", "count"),
    ("net.kicks", "count"),
    ("net.loop_p99_us", "us"),
    ("net.timer_slippage_p99_us", "us"),
    ("net.tx_retries", "count"),
    ("net.tx_drops", "count"),
    ("net.kernel_rcvbuf_drops", "count"),
    // hrmc-core engines.
    ("core.data_packets", "count"),
    ("core.retransmissions", "count"),
    ("core.retransmit_ratio", "ratio"),
    ("core.naks_sent", "count"),
    ("core.naks_received", "count"),
    ("core.duplicates_dropped", "count"),
    ("core.rate_halvings", "count"),
    ("core.urgent_stops", "count"),
    ("core.rx_overflow_drops", "count"),
    ("core.probes_sent", "count"),
    ("core.updates_received", "count"),
    ("core.sender_packet_ns", "ns"),
    ("core.receiver_packet_ns", "ns"),
    ("core.tick_ns", "ns"),
    // hrmc-core::membership.
    ("membership.gate_checks", "count"),
    ("membership.members_scanned", "count"),
    ("membership.update_ns", "ns"),
    ("membership.all_have_ns", "ns"),
    ("membership.lacking_ns", "ns"),
    ("membership.lacking_after_drain_ns", "ns"),
    // hrmc-wire.
    ("wire.encode_data_ns", "ns"),
    ("wire.decode_data_ns", "ns"),
    ("wire.encode_ctrl_ns", "ns"),
    ("wire.decode_ctrl_ns", "ns"),
    // hrmc-sim.
    ("sim.new_ms", "ms"),
    ("sim.run_ms", "ms"),
    ("sim.events_popped", "count"),
    ("sim.events_per_s", "1/s"),
    ("sim.peak_queue_len", "count"),
    ("sim.engine_ticks", "count"),
    // hrmc-core::obs and hrmc-trace.
    ("obs.log_events", "count"),
    ("obs.log_bytes", "B"),
    ("obs.encode_ms", "ms"),
    ("trace.parse_ms", "ms"),
    ("trace.analyze_ms", "ms"),
    // The load generator, the process, and the benchmark itself.
    ("gen.late_p99_ms", "ms"),
    ("gen.late_max_ms", "ms"),
    ("gen.reader_cpu_ms", "ms"),
    ("proc.user_ms", "ms"),
    ("proc.sys_ms", "ms"),
    ("bench.iterations", "count"),
    ("bench.trace_overhead_ms", "ms"),
];

/// What one run measured: operation counts and named values.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Iterations (transfers or simulations) started.
    pub attempted: u64,
    /// Iterations that failed, timed out or produced wrong output.
    pub failed: u64,
    /// `false` once any checked output was wrong.
    pub corrupt: bool,
    values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Record `value` under `name`, which must be in a catalogue.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(unit_of(name).is_some(), "undeclared metric {name}");
        self.values.insert(name, value);
    }

    /// The value recorded under `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Count one failed iteration, with its reason on stderr.
    pub fn fail(&mut self, why: &str) {
        eprintln!("perfbench: iteration failed: {why}");
        self.failed += 1;
    }

    /// The result line for `catalogue`. Errors name every metric the run
    /// did not produce, or that is not finite.
    pub fn result_line(&self, catalogue: &[(&str, &str)]) -> Result<String, String> {
        let mut problems = Vec::new();
        let mut metrics = String::new();
        for (i, (name, unit)) in catalogue.iter().enumerate() {
            match self.values.get(name) {
                Some(v) if v.is_finite() => {
                    let sep = if i == 0 { "" } else { ", " };
                    let _ = write!(
                        metrics,
                        "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
                    );
                }
                Some(v) => problems.push(format!("{name}={v}")),
                None => problems.push(format!("{name} missing")),
            }
        }
        if !problems.is_empty() {
            return Err(problems.join(", "));
        }
        let correct = !self.corrupt && self.failed == 0;
        Ok(format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.attempted.max(1),
            self.failed
        ))
    }
}

/// The declared unit of `name`, searching both catalogues.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// `true` when `name` is a valid metric or workload name: 1 to 64
    /// characters from `[A-Za-z0-9_.-]`, starting with a letter or digit.
    pub fn valid_name(name: &str) -> bool {
        let first_ok = name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric());
        first_ok
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// `true` when `unit` is 1 to 16 characters from `[A-Za-z0-9_/%.-]`.
    pub fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn every_name_and_unit_is_valid_and_unique() {
        let mut seen = HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(name), "bad metric name {name}");
            assert!(valid_unit(unit), "bad unit {unit} for {name}");
            assert!(seen.insert(*name), "duplicate metric {name}");
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn name_rules_reject_malformed_names_and_units() {
        assert!(valid_name("net.bind_ms"));
        assert!(valid_name("9lives"));
        assert!(!valid_name(""));
        assert!(!valid_name("_leading"));
        assert!(!valid_name(".dot"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/ed"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_name(&"x".repeat(64)));
        assert!(valid_unit("1/s") && valid_unit("%") && valid_unit("ms/MB"));
        assert!(!valid_unit("") && !valid_unit("m s") && !valid_unit(&"u".repeat(17)));
    }

    /// `BENCHMARK.json` must declare exactly this catalogue, in order,
    /// with the same units.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let section = text
                .split(&format!("\"{key}\""))
                .nth(1)
                .and_then(|s| s.split(']').next())
                .expect("section present");
            let declared: Vec<(String, String)> = section
                .split('{')
                .skip(1)
                .map(|entry| (field(entry, "name"), field(entry, "unit")))
                .collect();
            let expected: Vec<(String, String)> = catalogue
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(declared, expected, "{key} out of step with BENCHMARK.json");
        }
    }

    fn field(entry: &str, key: &str) -> String {
        entry
            .split(&format!("\"{key}\": \""))
            .nth(1)
            .and_then(|s| s.split('"').next())
            .unwrap_or_default()
            .to_string()
    }

    #[test]
    fn result_line_lists_every_metric_or_fails() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.set("setup_s", 0.25);
        assert!(o
            .result_line(END_TO_END)
            .unwrap_err()
            .contains("completion_s missing"));
        for (name, _) in END_TO_END {
            o.set(name, 1.5);
        }
        let line = o.result_line(END_TO_END).expect("complete");
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        o.set("peak_rss_MB", f64::NAN);
        assert!(o.result_line(END_TO_END).is_err());
    }
}
