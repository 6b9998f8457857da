//! # hrmc-experiments
//!
//! Regeneration harnesses for every table and figure in the paper's
//! evaluation (§5). Each `fig*` module sweeps the paper's parameter grid
//! through the simulator and prints the same rows/series the paper
//! plots; each has a matching binary (`cargo run --release -p
//! hrmc-experiments --bin fig10`).
//!
//! Absolute numbers are not expected to match the 1999 testbed — the
//! substrate here is the paper's own simulator model, re-implemented —
//! but the *shapes* are: who wins, by roughly what factor, and where the
//! knees fall. `EXPERIMENTS.md` records paper-vs-measured for each id.
//!
//! Common knobs (command line or environment):
//!
//! * `--quick` / `HRMC_EXP_QUICK=1` — divide transfer sizes by 10 and
//!   run 1 repeat; for smoke-testing the harnesses.
//! * `--repeats N` / `HRMC_EXP_REPEATS` — runs per configuration
//!   (the paper averages 5).
//! * `--out DIR` / `HRMC_EXP_OUT` — where JSON series are written
//!   (default `results/`).
//! * `--jobs N` / `HRMC_EXP_JOBS` — worker threads for the parallel
//!   sweep runner (default: available parallelism; 1 = sequential).
//!   Results are ordered and byte-identical at any worker count.

pub mod analyze;
pub mod churn;
pub mod fig03;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig15;
pub mod fig16;
pub mod hostile;
pub mod options;
pub mod sweep;
pub mod table;

pub use options::ExpOptions;
pub use table::Table;

/// The paper's kernel-buffer sweep: 64 K – 1024 K.
pub const BUFFERS: [usize; 5] = [64 * 1024, 128 * 1024, 256 * 1024, 512 * 1024, 1024 * 1024];

/// Extended sweep for Figure 13 ("an increase in buffer size beyond
/// 1024K causes some NAKs to be generated").
pub const BUFFERS_EXTENDED: [usize; 7] = [
    64 * 1024,
    128 * 1024,
    256 * 1024,
    512 * 1024,
    1024 * 1024,
    2048 * 1024,
    4096 * 1024,
];

/// 10 Mbps.
pub const MBPS_10: u64 = 10_000_000;

/// 100 Mbps.
pub const MBPS_100: u64 = 100_000_000;

/// 10 MB transfer (the paper's small file).
pub const MB_10: u64 = 10_000_000;

/// 40 MB transfer (the paper's large file).
pub const MB_40: u64 = 40_000_000;

/// Label for a buffer size, paper-style ("64K", "1024K").
pub fn buf_label(bytes: usize) -> String {
    format!("{}K", bytes / 1024)
}

/// The raw fan-out scenario of the `scalability` sweep: one lossless LAN
/// transfer of `transfer` bytes to `receivers` receivers, with PROBE
/// fan-out paced so a single tick never bursts O(receivers) unicast
/// probes.
///
/// Modern-fabric footing, scaled with the population. The paper's 1999
/// constants (300 MHz host, 10 Mbps LAN, 256 KB queues, 30-packet NIC
/// rings) each become a wall well before 10k receivers, and every wall
/// poisons the RTT estimator the same way: feedback (JOINs, periodic
/// UPDATEs at ~2/s per receiver) queues or retries for seconds, the
/// delayed echoes inflate SRTT, and MINBUF = 10 RTTs then stalls buffer
/// release by minutes. A 1 Gbps fabric with population-sized queues and
/// a ~100x CPU keeps the sweep measuring protocol- and simulator-side
/// scaling rather than 1999 hardware.
pub fn fanout_scenario(receivers: usize, transfer: u64) -> hrmc_app::Scenario {
    let mut scenario = hrmc_app::Scenario::lan(receivers, 1_000_000_000, 256 * 1024, transfer)
        .with_probe_batch(64);
    scenario.cpu_scale = 0.01;
    // The JOIN burst and the grid-aligned periodic-UPDATE waves each land
    // on the router as one packet per receiver in one tick; the queue must
    // hold a couple of such waves or the shed packets turn into retries
    // (and SRTT poison, as above).
    scenario.router_queue = scenario.router_queue.max(2 * receivers);
    // Pace the data plane at the paper's 10 Mbps while control traffic
    // rides the full fabric. This keeps the transfer long enough to span
    // the JOIN wave, so the release gate really is evaluated against all
    // live members rather than an empty group.
    scenario.max_rate_factor = 0.01;
    // The JOIN handshake answers every receiver unicast; the burst must
    // fit the sender's transmit ring or dropped responses trigger JOIN
    // retries (whose stale echoes again poison SRTT).
    scenario.sender_txqueue = scenario.sender_txqueue.max(receivers / 4);
    scenario
}
