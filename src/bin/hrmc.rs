//! `hrmc` — reliable multicast file transfer over UDP, from the command
//! line. One sender, any number of receivers, one H-RMC session.
//!
//! ```sh
//! # On each receiving machine (or terminal):
//! hrmc recv out.bin --group 239.255.42.9:47500
//!
//! # Then on the sender:
//! hrmc send big.iso --group 239.255.42.9:47500 --wait-receivers 2
//!
//! # Single-machine smoke test over loopback (spawns 2 in-process receivers):
//! hrmc selftest
//!
//! # Post-mortem: diagnose any JSONL trace (stream, sim log, or flight dump)
//! hrmc analyze trace.jsonl
//! ```

use std::io::{Read, Write};
use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4};
use std::time::Duration;

use hrmc::net::Session;
use hrmc::{
    JsonlObserver, MetricsObserver, MultiObserver, ProtocolConfig, ProtocolObserver, SharedRecorder,
};

struct Opts {
    group: SocketAddrV4,
    iface: Ipv4Addr,
    rate: u64,
    buffer: usize,
    wait_receivers: usize,
    fec: Option<usize>,
    trace: Option<String>,
    metrics: bool,
    flight: Option<String>,
    flight_capacity: usize,
    json: bool,
    telemetry: Option<SocketAddr>,
    sample_interval_ms: u64,
    telemetry_jsonl: Option<String>,
    health: bool,
    once: bool,
    refresh_ms: u64,
    reactor_threads: usize,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            group: SocketAddrV4::new(Ipv4Addr::new(239, 255, 42, 9), 47500),
            iface: Ipv4Addr::new(127, 0, 0, 1),
            rate: 20 * 1024 * 1024,
            buffer: 512 * 1024,
            wait_receivers: 1,
            fec: None,
            trace: None,
            metrics: false,
            flight: None,
            flight_capacity: 4096,
            json: false,
            telemetry: None,
            sample_interval_ms: 500,
            telemetry_jsonl: None,
            health: false,
            once: false,
            refresh_ms: 1000,
            reactor_threads: 1,
        }
    }
}

/// One trace file shared by every endpoint in this process (selftest
/// runs three). [`JsonlObserver`] emits each event as a single `write`
/// of one full line, so a mutex around the writer keeps lines atomic.
#[derive(Clone)]
struct SharedLog(std::sync::Arc<std::sync::Mutex<std::io::BufWriter<std::fs::File>>>);

impl Write for SharedLog {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.0.lock().unwrap().flush()
    }
}

/// The observability stack requested by `--trace` / `--metrics` /
/// `--flight`: endpoints in this process share one JSONL file (each line
/// tagged with the endpoint's role via `"src"`), one metrics registry,
/// and — unlike the unbounded trace — a bounded per-endpoint flight
/// recorder whose surviving window is dumped on exit.
struct Obs {
    log: Option<SharedLog>,
    metrics: Option<MetricsObserver>,
    flight_path: Option<String>,
    flight_capacity: usize,
    recorders: std::sync::Mutex<Vec<SharedRecorder>>,
    /// The continuous-telemetry pipeline (`--telemetry <addr>`): a
    /// sampling thread plus an HTTP endpoint serving `/metrics`
    /// (Prometheus text) and `/json` — watch it live with `hrmc top`.
    telemetry: Option<hrmc::net::Telemetry>,
    /// The reactor pool behind `--reactor-threads`; `None` means every
    /// session rides the default global reactor.
    pool: Option<hrmc::net::ReactorPool>,
}

impl Obs {
    fn open(opts: &Opts) -> Result<Obs, Box<dyn std::error::Error>> {
        let log = match &opts.trace {
            Some(path) => {
                let f = std::fs::File::create(path)
                    .map_err(|e| format!("cannot create trace file {path}: {e}"))?;
                Some(SharedLog(std::sync::Arc::new(std::sync::Mutex::new(
                    std::io::BufWriter::new(f),
                ))))
            }
            None => None,
        };
        let metrics = opts.metrics.then(MetricsObserver::new);
        let pool = if opts.reactor_threads > 1 {
            let pool = hrmc::net::ReactorPool::shared(opts.reactor_threads)
                .map_err(|e| format!("cannot start the reactor pool: {e}"))?;
            eprintln!("reactor: {} thread(s)", pool.shards());
            Some(pool)
        } else {
            None
        };
        if opts.health && opts.telemetry.is_none() {
            return Err("--health requires --telemetry (the monitor rides the \
                        telemetry pipeline)"
                .into());
        }
        let telemetry = match opts.telemetry {
            Some(addr) => {
                let mut b = hrmc::net::Telemetry::builder()
                    .listen(addr)
                    .sample_interval(Duration::from_millis(opts.sample_interval_ms.max(10)));
                if let Some(pool) = &pool {
                    b = b.reactor_pool(pool);
                }
                if opts.health {
                    b = b.health(hrmc::HealthConfig::default());
                }
                if let Some(path) = &opts.telemetry_jsonl {
                    b = b
                        .jsonl_path(std::path::Path::new(path))
                        .map_err(|e| format!("cannot create telemetry sink {path}: {e}"))?;
                }
                let t = b
                    .start()
                    .map_err(|e| format!("cannot start telemetry endpoint on {addr}: {e}"))?;
                if let Some(bound) = t.local_addr() {
                    eprintln!(
                        "telemetry: serving /metrics{} and /json at http://{bound} \
                         (watch live: hrmc top {bound})",
                        if opts.health { ", /alerts" } else { "" }
                    );
                }
                Some(t)
            }
            None => None,
        };
        Ok(Obs {
            log,
            metrics,
            flight_path: opts.flight.clone(),
            flight_capacity: opts.flight_capacity,
            recorders: std::sync::Mutex::new(Vec::new()),
            telemetry,
            pool,
        })
    }

    /// Observer stack for one endpoint, or `None` when no observability
    /// flag was given (the engine then keeps its zero-cost no-op path).
    fn for_role(&self, role: &str) -> Option<Box<dyn ProtocolObserver>> {
        let mut stack = MultiObserver::new();
        let mut any = false;
        if let Some(log) = &self.log {
            stack.push(Box::new(JsonlObserver::new(log.clone()).with_label(role)));
            any = true;
        }
        if let Some(m) = &self.metrics {
            stack.push(Box::new(m.clone()));
            any = true;
        }
        if self.flight_path.is_some() {
            let rec = SharedRecorder::new(self.flight_capacity).with_label(role);
            self.recorders.lock().unwrap().push(rec.clone());
            stack.push(Box::new(rec));
            any = true;
        }
        if let Some(t) = &self.telemetry {
            stack.push(t.observer());
            any = true;
        }
        any.then(|| Box::new(stack) as Box<dyn ProtocolObserver>)
    }

    /// Flush the trace, dump flight-recorder windows, and print the
    /// metrics registry as JSON on stdout.
    fn finish(&self) {
        if let Some(log) = &self.log {
            let _ = log.0.lock().unwrap().flush();
        }
        let recorders = self.recorders.lock().unwrap();
        if let Some(path) = &self.flight_path {
            match std::fs::File::create(path) {
                Ok(f) => {
                    let mut w = std::io::BufWriter::new(f);
                    for rec in recorders.iter() {
                        let _ = w.write_all(rec.dump().as_bytes());
                    }
                    let _ = w.flush();
                    eprintln!("flight recorder window written to {path}");
                }
                Err(e) => eprintln!("cannot write flight recording {path}: {e}"),
            }
        }
        if let Some(t) = &self.telemetry {
            // Capture the final state in the series before the pipeline
            // is torn down, and push it through any JSONL sink.
            t.sample_now();
            t.flush();
        }
        if let Some(m) = &self.metrics {
            {
                let reg = m.registry();
                let mut reg = reg.lock().unwrap();
                for rec in recorders.iter() {
                    rec.with_recorder(|r| r.publish_metrics(&mut reg));
                }
                // The CLI's sessions all ride one reactor (or pool):
                // its sessions/wakeups/batched-syscall gauges belong in
                // the same report.
                match &self.pool {
                    Some(pool) => pool.publish_metrics(&mut reg),
                    None => hrmc::net::Reactor::global().publish_metrics(&mut reg),
                }
            }
            println!("{}", m.snapshot().render_json());
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage:\n  \
         hrmc send <file>  [--group A.B.C.D:port] [--iface ip] [--rate-mbps N]\n            \
                           [--buffer-kb N] [--wait-receivers N] [--fec K]\n  \
         hrmc recv <file>  [--group A.B.C.D:port] [--iface ip] [--buffer-kb N]\n  \
         hrmc selftest     [--group A.B.C.D:port] (with --telemetry: serves\n                    \
                           until stdin closes)\n  \
         hrmc analyze <trace.jsonl> [--json]\n  \
         hrmc top <addr | telemetry.jsonl> [--once] [--refresh ms]\n\n\
         Observability (send/recv/selftest):\n  \
         --trace <path>    write every protocol state transition as JSON lines\n                    \
                           (wall-clock µs since bind/join, \"src\" tags the endpoint)\n  \
         --metrics         print the metrics registry (counters, gauges,\n                    \
                           latency histograms) as JSON on exit\n  \
         --flight <path>   bounded flight recorder: keep the last N events per\n                    \
                           endpoint in memory, dump the window on exit\n  \
         --flight-capacity N  events retained per endpoint (default 4096)\n  \
         --telemetry <ip:port>  serve continuous telemetry over HTTP while the\n                    \
                           transfer runs: /metrics (Prometheus text) and /json;\n                    \
                           port 0 picks a free port (printed on stderr)\n  \
         --sample-interval N  telemetry sampling interval in ms (default 500)\n  \
         --telemetry-jsonl <path>  also stream every telemetry sample to a\n                    \
                           JSONL file (replay with: hrmc top <path>)\n  \
         --health          arm the online protocol health monitor (needs\n                    \
                           --telemetry): streaming invariant checks raise\n                    \
                           structured alerts on /alerts, in /json, and as\n                    \
                           hrmc_alerts_* metrics on /metrics\n  \
         --reactor-threads N  shard sessions across N reactor threads\n                    \
                           (default 1); telemetry aggregates all shards\n\n\
         `top` renders a refreshing terminal dashboard from a live telemetry\n\
         endpoint (`hrmc top 127.0.0.1:9090`) or summarizes a recorded sample\n\
         file; --once prints a single frame, --refresh sets the period. With\n\
         --health armed on the scraped endpoint, frames include an alerts pane.\n\n\
         `analyze` reconstructs per-sequence causal lifecycles from any JSONL\n\
         trace this tool or the simulator writes (streamed or flight-recorded)\n\
         and prints loss, recovery-latency, NAK-suppression, flow-control,\n\
         buffer-release, and RTT diagnoses (--json for machine-readable).\n\n\
         Reliable multicast file transfer (H-RMC, SC'99). The group address\n\
         must be a multicast address (239.0.0.0/8 recommended); every\n\
         participant must use the same group and interface."
    );
    std::process::exit(2);
}

fn parse(args: &[String]) -> (Opts, Vec<String>) {
    let mut opts = Opts::default();
    let mut positional = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--group" => {
                i += 1;
                opts.group = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--iface" => {
                i += 1;
                opts.iface = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--rate-mbps" => {
                i += 1;
                let mbps: u64 = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
                opts.rate = mbps * 1_000_000 / 8;
            }
            "--buffer-kb" => {
                i += 1;
                let kb: usize = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
                opts.buffer = kb * 1024;
            }
            "--wait-receivers" => {
                i += 1;
                opts.wait_receivers = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--fec" => {
                i += 1;
                opts.fec = Some(
                    args.get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            "--trace" => {
                i += 1;
                opts.trace = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--metrics" => {
                opts.metrics = true;
            }
            "--flight" => {
                i += 1;
                opts.flight = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--flight-capacity" => {
                i += 1;
                opts.flight_capacity = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--json" => {
                opts.json = true;
            }
            "--telemetry" => {
                i += 1;
                opts.telemetry = Some(
                    args.get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            "--sample-interval" => {
                i += 1;
                opts.sample_interval_ms = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--telemetry-jsonl" => {
                i += 1;
                opts.telemetry_jsonl = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--health" => {
                opts.health = true;
            }
            "--reactor-threads" => {
                i += 1;
                opts.reactor_threads = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage());
            }
            "--once" => {
                opts.once = true;
            }
            "--refresh" => {
                i += 1;
                opts.refresh_ms = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            other if other.starts_with("--") => usage(),
            other => positional.push(other.to_string()),
        }
        i += 1;
    }
    (opts, positional)
}

fn config(opts: &Opts) -> ProtocolConfig {
    let mut c = ProtocolConfig::hrmc().with_buffer(opts.buffer);
    c.max_rate = opts.rate;
    if let Some(k) = opts.fec {
        c = c.with_fec(k);
    }
    c
}

/// Print the kernel buffers the session sockets were granted (stderr,
/// beside the `reactor:` line), with a warning naming the sysctl when
/// the kernel granted less than the protocol window asked for.
fn report_buffers(b: hrmc::net::SocketBuffers) {
    eprintln!(
        "socket buffers: rcvbuf {} KiB, sndbuf {} KiB effective (asked {} / {} KiB; \
         the kernel reports twice a full grant)",
        b.rcvbuf / 1024,
        b.sndbuf / 1024,
        b.rcvbuf_requested / 1024,
        b.sndbuf_requested / 1024
    );
    for (clamped, what, sysctl) in [
        (b.rcvbuf_clamped(), "SO_RCVBUF", "net.core.rmem_max"),
        (b.sndbuf_clamped(), "SO_SNDBUF", "net.core.wmem_max"),
    ] {
        if clamped {
            eprintln!(
                "warning: the kernel clamped {what} below the protocol window; \
                 raise {sysctl} (e.g. sysctl -w {sysctl}=4194304) or expect \
                 self-inflicted socket drops"
            );
        }
    }
}

fn cmd_send(file: &str, opts: &Opts) -> Result<(), Box<dyn std::error::Error>> {
    let mut f = std::fs::File::open(file)?;
    let size = f.metadata()?.len();
    let obs = Obs::open(opts)?;
    let mut b = Session::sender(opts.group)
        .interface(opts.iface)
        .config(config(opts));
    if let Some(pool) = &obs.pool {
        b = b.reactor_pool(pool);
    }
    if let Some(o) = obs.for_role("sender") {
        b = b.observer(o);
    }
    let sender = b.bind()?;
    report_buffers(sender.socket_buffers());
    eprintln!(
        "sending {file} ({size} bytes) to {} — waiting for {} receiver(s)...",
        opts.group, opts.wait_receivers
    );
    // Kick the group with a trickle so receivers can JOIN (membership is
    // data-triggered), then wait for the roster.
    let started = std::time::Instant::now();
    let mut buf = vec![0u8; 256 * 1024];
    let mut sent: u64 = 0;
    // Send the first chunk to trigger JOINs.
    let n = f.read(&mut buf)?;
    sender.send(&buf[..n])?;
    sent += n as u64;
    while sender.member_count() < opts.wait_receivers {
        if started.elapsed() > Duration::from_secs(60) {
            return Err("timed out waiting for receivers to join".into());
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("{} receiver(s) joined; streaming...", sender.member_count());
    loop {
        let n = f.read(&mut buf)?;
        if n == 0 {
            break;
        }
        sender.send(&buf[..n])?;
        sent += n as u64;
        eprint!("\r{:>3}%", sent * 100 / size.max(1));
    }
    let stats = sender.close_and_wait(Duration::from_secs(600))?;
    let secs = started.elapsed().as_secs_f64();
    eprintln!(
        "\rdone: {sent} bytes in {secs:.2} s ({:.2} Mbit/s), {} retransmissions, rtt {:.1} ms",
        sent as f64 * 8.0 / secs / 1e6,
        stats.retransmissions,
        sender.rtt() as f64 / 1000.0
    );
    obs.finish();
    Ok(())
}

fn cmd_recv(file: &str, opts: &Opts) -> Result<(), Box<dyn std::error::Error>> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(file)?);
    let obs = Obs::open(opts)?;
    let mut b = Session::receiver(opts.group)
        .interface(opts.iface)
        .config(config(opts));
    if let Some(pool) = &obs.pool {
        b = b.reactor_pool(pool);
    }
    if let Some(o) = obs.for_role("recv") {
        b = b.observer(o);
    }
    let receiver = b.bind()?;
    report_buffers(receiver.socket_buffers());
    eprintln!("joined {}; waiting for the stream...", opts.group);
    let mut buf = vec![0u8; 64 * 1024];
    let mut total: u64 = 0;
    let started = std::time::Instant::now();
    loop {
        match receiver.recv(&mut buf, Duration::from_secs(3600)) {
            Ok(0) => break,
            Ok(n) => {
                out.write_all(&buf[..n])?;
                total += n as u64;
            }
            Err(e) => return Err(format!("receive failed: {e}").into()),
        }
    }
    out.flush()?;
    receiver.close();
    let secs = started.elapsed().as_secs_f64();
    eprintln!(
        "received {total} bytes into {file} in {secs:.2} s ({:.2} Mbit/s)",
        total as f64 * 8.0 / secs / 1e6
    );
    obs.finish();
    Ok(())
}

fn cmd_selftest(opts: &Opts) -> Result<(), Box<dyn std::error::Error>> {
    eprintln!("selftest: 2 in-process receivers over loopback, 1 MB");
    let payload: Vec<u8> = (0..1_000_000usize).map(|i| (i * 31 % 251) as u8).collect();
    let mut cfg = config(opts);
    cfg.initial_rtt = 2_000;
    cfg.anonymous_release_hold = 500_000;
    let obs = Obs::open(opts)?;
    let receivers: Vec<_> = (0..2)
        .map(|i| {
            let mut b = Session::receiver(opts.group)
                .interface(opts.iface)
                .config(cfg.clone());
            if let Some(pool) = &obs.pool {
                b = b.reactor_pool(pool);
            }
            if let Some(o) = obs.for_role(&format!("recv{i}")) {
                b = b.observer(o);
            }
            b.bind().unwrap_or_else(|e| panic!("receiver {i}: {e}"))
        })
        .collect();
    let mut b = Session::sender(opts.group)
        .interface(opts.iface)
        .config(cfg);
    if let Some(pool) = &obs.pool {
        b = b.reactor_pool(pool);
    }
    if let Some(o) = obs.for_role("sender") {
        b = b.observer(o);
    }
    let sender = b.bind()?;
    report_buffers(
        receivers
            .iter()
            .map(|r| r.socket_buffers())
            .fold(sender.socket_buffers(), hrmc::net::SocketBuffers::min),
    );
    let readers: Vec<_> = receivers
        .into_iter()
        .map(|r| {
            let expect = payload.clone();
            std::thread::spawn(move || {
                let mut got = Vec::with_capacity(expect.len());
                let mut buf = [0u8; 16 * 1024];
                loop {
                    match r.recv(&mut buf, Duration::from_secs(60)) {
                        Ok(0) => break,
                        Ok(n) => got.extend_from_slice(&buf[..n]),
                        Err(e) => panic!("recv: {e}"),
                    }
                }
                assert_eq!(got, expect, "stream corrupted");
                r
            })
        })
        .collect();
    sender.send(&payload)?;
    sender.close_and_wait(Duration::from_secs(120))?;
    // The receivers stay registered until the end, so a telemetry
    // scrape after the pass line still sees every session's counters.
    let _receivers: Vec<_> = readers
        .into_iter()
        .map(|t| t.join().expect("reader panicked"))
        .collect();
    eprintln!("selftest passed: both receivers verified 1 MB byte-for-byte");
    if opts.telemetry.is_some() {
        serve_until_stdin_eof();
    }
    obs.finish();
    Ok(())
}

/// Keep the telemetry endpoint up after the run until stdin reaches
/// EOF, so a script can scrape the final state without racing the
/// exit: it holds stdin open (a pipe or fifo) and closes it when done.
/// A terminal or `/dev/null` stdin returns at once.
fn serve_until_stdin_eof() {
    use std::io::IsTerminal;
    let stdin = std::io::stdin();
    if stdin.is_terminal() {
        return;
    }
    eprintln!("telemetry: serving until stdin closes");
    let _ = std::io::copy(&mut stdin.lock(), &mut std::io::sink());
}

fn cmd_analyze(trace: &str, opts: &Opts) -> Result<(), Box<dyn std::error::Error>> {
    let analysis = hrmc_trace::analyze_file(std::path::Path::new(trace))?;
    if opts.json {
        println!("{}", analysis.to_json());
    } else {
        print!("{}", analysis.render_table());
    }
    Ok(())
}

/// `hrmc top <addr>` — live refreshing dashboard scraped from a
/// telemetry endpoint's `/json`; `hrmc top <file>` — one-shot summary
/// of a recorded telemetry JSONL (mixed event/telemetry streams work:
/// event lines are passed over).
fn cmd_top(target: &str, opts: &Opts) -> Result<(), Box<dyn std::error::Error>> {
    if let Ok(addr) = target.parse::<SocketAddr>() {
        loop {
            let body = hrmc::net::telemetry::scrape(addr, "/json", Duration::from_secs(5))
                .map_err(|e| format!("cannot scrape {addr}: {e}"))?;
            let json: serde_json::Value =
                serde_json::from_str(&body).map_err(|e| format!("bad /json body: {e}"))?;
            let frame = hrmc::top::render_endpoint_frame(&addr.to_string(), &json);
            if opts.once {
                print!("{frame}");
                return Ok(());
            }
            print!("{}{frame}", hrmc::top::CLEAR);
            std::io::stdout().flush()?;
            std::thread::sleep(Duration::from_millis(opts.refresh_ms.max(100)));
        }
    }
    let (mut samples, stats) = hrmc_trace::parse_telemetry_file(std::path::Path::new(target))?;
    if samples.is_empty() {
        // Not a sampler stream — maybe a simulator timeseries
        // (`timeline --timeseries`): flat rows, no discriminator.
        samples = hrmc::top::parse_sim_timeseries(&std::fs::read_to_string(target)?);
    }
    if samples.is_empty() {
        return Err(format!(
            "{target}: no telemetry samples found ({} lines read; is this an event-only trace?)",
            stats.lines
        )
        .into());
    }
    print!("{}", hrmc::top::render_trace(target, &samples));
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let (opts, positional) = parse(&args[1..]);
    let result = match (args[0].as_str(), positional.as_slice()) {
        ("send", [file]) => cmd_send(file, &opts),
        ("recv", [file]) => cmd_recv(file, &opts),
        ("selftest", []) => cmd_selftest(&opts),
        ("analyze", [trace]) => cmd_analyze(trace, &opts),
        ("top", [target]) => cmd_top(target, &opts),
        _ => usage(),
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
