//! Continuous telemetry for live sessions: a background sampler over
//! the shared metrics registry plus a dependency-free exposition
//! endpoint.
//!
//! [`Telemetry`] owns three things:
//!
//! 1. a shared [`MetricsRegistry`] fed by per-session
//!    [`MetricsObserver`]s (attach with
//!    [`crate::SenderBuilder::telemetry`] /
//!    [`crate::ReceiverBuilder::telemetry`]) and by the reactor's
//!    health gauges ([`Reactor::publish_metrics`], re-published on
//!    every sampling interval);
//! 2. a sampling thread that turns the registry into a bounded time
//!    series of [`TelemetrySample`]s (see [`hrmc_core::telemetry`]),
//!    optionally streaming each sample as a JSONL line;
//! 3. an optional TCP listener serving the Prometheus text exposition
//!    format on `/metrics`, the latest sample plus per-session health
//!    on `/json`, and the online health monitor's alert history on
//!    `/alerts` — a tiny blocking HTTP/1.0 responder, no dependencies,
//!    pointable at any scraper or at `hrmc top`.
//!
//! Everything stops and joins when the [`Telemetry`] handle drops.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hrmc_core::{
    HealthConfig, MetricsObserver, MetricsRegistry, MultiObserver, ProtocolObserver, Sampler,
    SharedMonitor, TelemetrySample,
};
use parking_lot::Mutex;

use crate::pool::ReactorPool;
use crate::reactor::Reactor;

/// Configures and starts a [`Telemetry`] pipeline.
pub struct TelemetryBuilder {
    sample_interval: Duration,
    ring: usize,
    listen: Option<SocketAddr>,
    sink: Option<Box<dyn Write + Send>>,
    pool: Option<ReactorPool>,
    health: Option<HealthConfig>,
}

impl TelemetryBuilder {
    /// Wall-clock distance between samples (default 500 ms).
    pub fn sample_interval(mut self, interval: Duration) -> Self {
        self.sample_interval = interval.max(Duration::from_millis(10));
        self
    }

    /// How many samples the in-memory ring retains (default 720 — six
    /// minutes at the default interval).
    pub fn ring(mut self, capacity: usize) -> Self {
        self.ring = capacity;
        self
    }

    /// Serve `/metrics` (Prometheus text) and `/json` on this address.
    /// Bind port 0 to let the kernel pick; read the result from
    /// [`Telemetry::local_addr`].
    pub fn listen(mut self, addr: SocketAddr) -> Self {
        self.listen = Some(addr);
        self
    }

    /// Stream every sample as one JSONL line to `w`.
    pub fn sink(mut self, w: Box<dyn Write + Send>) -> Self {
        self.sink = Some(w);
        self
    }

    /// Stream every sample as JSONL to a file (created/truncated).
    pub fn jsonl_path(mut self, path: &Path) -> std::io::Result<Self> {
        let f = std::fs::File::create(path)?;
        self.sink = Some(Box::new(std::io::BufWriter::new(f)));
        Ok(self)
    }

    /// Which reactor's health to publish (default: [`Reactor::global`]).
    pub fn reactor(mut self, reactor: Reactor) -> Self {
        self.pool = Some(reactor.into());
        self
    }

    /// Publish a whole [`ReactorPool`]'s health instead: counters
    /// summed and histograms merged across shards, per-session health
    /// ids tagged with their shard, and the pool width reported as
    /// `hrmc_reactor_shards` / the `"shards"` key of `/json`.
    pub fn reactor_pool(mut self, pool: &ReactorPool) -> Self {
        self.pool = Some(pool.clone());
        self
    }

    /// Arm the online [`hrmc_core::HealthMonitor`] with this rule set.
    /// Session observers obtained from [`Telemetry::observer`] then fan
    /// into the monitor as well, each sample is fed to it, and alert
    /// transitions surface as `hrmc_alerts_*` metrics, on the `/alerts`
    /// route, and inside `/json`.
    pub fn health(mut self, cfg: HealthConfig) -> Self {
        self.health = Some(cfg);
        self
    }

    /// Start the sampling thread (and the listener, if configured).
    pub fn start(self) -> std::io::Result<Telemetry> {
        let mut sampler = Sampler::new(self.ring);
        if let Some(sink) = self.sink {
            sampler.set_sink(sink);
        }
        let shared = Arc::new(Shared {
            obs: MetricsObserver::new(),
            sampler: Mutex::new(sampler),
            pool: self.pool.unwrap_or_else(|| Reactor::global().into()),
            monitor: self
                .health
                .filter(HealthConfig::armed)
                .map(SharedMonitor::new),
            epoch: Instant::now(),
            shutdown: AtomicBool::new(false),
        });
        let mut threads = Vec::new();
        let mut local_addr = None;
        if let Some(addr) = self.listen {
            let listener = TcpListener::bind(addr)?;
            local_addr = Some(listener.local_addr()?);
            listener.set_nonblocking(true)?;
            let shared2 = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("hrmc-telemetry-http".into())
                    .spawn(move || serve(&shared2, &listener))?,
            );
        }
        let interval = self.sample_interval;
        let shared2 = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name("hrmc-telemetry-sampler".into())
                .spawn(move || {
                    while !sleep_interruptibly(&shared2.shutdown, interval) {
                        shared2.collect();
                    }
                })?,
        );
        Ok(Telemetry {
            shared,
            threads,
            local_addr,
        })
    }
}

/// Sleep for `total` in short slices, returning `true` as soon as the
/// shutdown flag is observed (so Drop never waits a full interval).
fn sleep_interruptibly(shutdown: &AtomicBool, total: Duration) -> bool {
    let deadline = Instant::now() + total;
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return true;
        }
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return false;
        }
        std::thread::sleep(left.min(Duration::from_millis(20)));
    }
}

struct Shared {
    /// Source of the shared registry; clones of this observer are what
    /// sessions install.
    obs: MetricsObserver,
    sampler: Mutex<Sampler>,
    /// The reactor(s) whose health this pipeline publishes — a single
    /// reactor is just a pool of one.
    pool: ReactorPool,
    /// The armed online health monitor, when the builder asked for one.
    monitor: Option<SharedMonitor>,
    epoch: Instant,
    shutdown: AtomicBool,
}

impl Shared {
    /// One full snapshot: protocol metrics + reactor health, in a form
    /// every renderer shares. Alert and sampling-loss gauges are set on
    /// the local snapshot (never on the live registry), so the picture
    /// is consistent without nesting locks.
    fn gather(&self) -> MetricsRegistry {
        let mut reg = self.obs.snapshot();
        self.pool.publish_metrics(&mut reg);
        if let Some(mon) = &self.monitor {
            reg.set_gauge("alerts_active", mon.active());
        }
        let dropped = self.sampler.lock().overwritten();
        reg.set_gauge("telemetry_samples_dropped", dropped);
        reg
    }

    /// Take one sample now, feeding it (and any alert transitions it
    /// triggers) through the monitor.
    fn collect(&self) {
        let reg = self.gather();
        let now_us = self.epoch.elapsed().as_micros() as u64;
        self.sampler.lock().sample(now_us, &reg);
        if let Some(mon) = &self.monitor {
            if let Some(sample) = self.sampler.lock().latest().cloned() {
                mon.observe_sample(&sample);
            }
            // Alert transitions flow through a registry observer so the
            // `hrmc_alerts_raised_total` / `_cleared_total` counters and
            // any JSONL sink see the same `health_alert` events the sim
            // path writes.
            let alerts = mon.take_alerts();
            if !alerts.is_empty() {
                let mut obs = self.obs.clone();
                for a in &alerts {
                    obs.on_event(a.t_us, &a.to_event());
                }
            }
        }
    }

    /// The `/alerts` body: the monitor's retained alert history as a
    /// JSON array, `[]` when no monitor is armed.
    fn alerts_json(&self) -> String {
        match &self.monitor {
            Some(mon) => mon.render_json(),
            None => "[]".to_string(),
        }
    }

    /// The `/json` body: latest sample, per-session health, derived
    /// reactor ratios. Hand-rolled JSON — names are identifiers,
    /// numbers are numbers.
    fn json_body(&self) -> String {
        use std::fmt::Write as _;
        let sample = self
            .sampler
            .lock()
            .latest()
            .map(|s| s.to_json_line())
            .unwrap_or_else(|| "null".to_string());
        let st = self.pool.aggregate();
        let mut out = String::with_capacity(512 + sample.len());
        let _ = write!(out, "{{\"sample\":{sample},\"sessions\":[");
        for (i, h) in self.pool.session_health().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"id\":{},\"role\":\"{}\",\"packets_rx\":{},\"packets_tx\":{},\
                 \"bytes_rx\":{},\"bytes_tx\":{},\"kernel_drops\":{},\
                 \"rcvbuf_bytes\":{},\"sndbuf_bytes\":{}}}",
                h.id,
                h.role,
                h.packets_rx,
                h.packets_tx,
                h.bytes_rx,
                h.bytes_tx,
                h.kernel_drops,
                h.rcvbuf_bytes,
                h.sndbuf_bytes
            );
        }
        let _ = write!(out, "],\"alerts\":{}", self.alerts_json());
        let _ = write!(
            out,
            ",\"reactor\":{{\"shards\":{},\"sessions\":{},\
             \"syscalls_per_packet\":{:.4},\
             \"loop_p99_us\":{},\"timer_slippage_p99_us\":{},\"idle_cap_ms\":{}}}}}",
            self.pool.shards(),
            st.sessions,
            st.syscalls_per_packet(),
            st.loop_p99_us,
            st.timer_slippage_p99_us,
            st.idle_cap_ms
        );
        out
    }
}

/// A running telemetry pipeline. Dropping it stops the sampler and the
/// listener and joins both threads.
pub struct Telemetry {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
    local_addr: Option<SocketAddr>,
}

impl Telemetry {
    /// Start configuring a pipeline.
    pub fn builder() -> TelemetryBuilder {
        TelemetryBuilder {
            sample_interval: Duration::from_millis(500),
            ring: 720,
            listen: None,
            sink: None,
            pool: None,
            health: None,
        }
    }

    /// A protocol observer feeding this pipeline's registry; attach one
    /// per session ([`crate::SenderBuilder::telemetry`] does this).
    /// With a health monitor armed, the observer fans into it too, so
    /// session events drive the online invariant rules.
    pub fn observer(&self) -> Box<dyn ProtocolObserver> {
        match &self.shared.monitor {
            Some(mon) => Box::new(
                MultiObserver::new()
                    .with(Box::new(self.shared.obs.clone()))
                    .with(Box::new(mon.clone())),
            ),
            None => Box::new(self.shared.obs.clone()),
        }
    }

    /// The alert history as a JSON array — what an `/alerts` scrape
    /// returns. `[]` when no monitor is armed or nothing fired.
    pub fn alerts_json(&self) -> String {
        self.shared.alerts_json()
    }

    /// The listener's bound address, if one was configured.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.local_addr
    }

    /// Take a sample immediately, outside the periodic schedule (end of
    /// run, tests).
    pub fn sample_now(&self) {
        self.shared.collect();
    }

    /// The newest sample, if any.
    pub fn latest(&self) -> Option<TelemetrySample> {
        self.shared.sampler.lock().latest().cloned()
    }

    /// The retained time series, oldest first.
    pub fn samples(&self) -> Vec<TelemetrySample> {
        self.shared.sampler.lock().samples().cloned().collect()
    }

    /// The Prometheus text exposition a `/metrics` scrape would return.
    pub fn render_prometheus(&self) -> String {
        self.shared.gather().render_prometheus()
    }

    /// The JSON document a `/json` scrape would return.
    pub fn render_json(&self) -> String {
        self.shared.json_body()
    }

    /// Flush the JSONL sink, if any.
    pub fn flush(&self) {
        self.shared.sampler.lock().flush();
    }
}

impl Drop for Telemetry {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        self.shared.sampler.lock().flush();
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("local_addr", &self.local_addr)
            .field("samples", &self.shared.sampler.lock().len())
            .finish()
    }
}

// ---------------------------------------------------------------------
// The exposition endpoint
// ---------------------------------------------------------------------

/// Accept loop: nonblocking accepts polled on a short tick so shutdown
/// is observed promptly; each connection is served inline (scrapes are
/// rare and tiny — no per-connection threads).
fn serve(shared: &Shared, listener: &TcpListener) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = handle(shared, stream);
            }
            Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

/// Serve one request: read the request line, route on the path, write
/// one response, close.
fn handle(shared: &Shared, mut stream: TcpStream) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    stream.set_nonblocking(false)?;
    let mut buf = [0u8; 1024];
    let mut head = Vec::new();
    // Read until the end of the request head (or the buffer bound —
    // scrapers send tiny requests; anything bigger is not one).
    loop {
        let n = match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        };
        head.extend_from_slice(&buf[..n]);
        if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() > 4096 {
            break;
        }
    }
    let request_line = head
        .split(|&b| b == b'\r' || b == b'\n')
        .next()
        .unwrap_or(&[]);
    let path = std::str::from_utf8(request_line)
        .ok()
        .and_then(|line| line.split_whitespace().nth(1))
        .unwrap_or("/");
    let (status, ctype, body) = match path {
        "/" | "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4",
            shared.gather().render_prometheus(),
        ),
        "/json" => ("200 OK", "application/json", shared.json_body()),
        "/alerts" => ("200 OK", "application/json", shared.alerts_json()),
        _ => ("404 Not Found", "text/plain", "not found\n".to_string()),
    };
    let header = format!(
        "HTTP/1.0 {status}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(header.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Fetch `path` from a telemetry endpoint and return the response body.
/// The client half of the exposition protocol, shared by `hrmc top` and
/// the smoke tests — a plain HTTP/1.0 GET over one connection.
pub fn scrape(addr: SocketAddr, path: &str, timeout: Duration) -> std::io::Result<String> {
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    write!(stream, "GET {path} HTTP/1.0\r\nHost: hrmc\r\n\r\n")?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    match response.split_once("\r\n\r\n") {
        Some((head, body)) if head.starts_with("HTTP/1.0 200") => Ok(body.to_string()),
        Some((head, _)) => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!(
                "scrape {path}: {}",
                head.lines().next().unwrap_or("bad response")
            ),
        )),
        None => Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "scrape: truncated response",
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{Ipv4Addr, SocketAddrV4};

    fn loopback_any() -> SocketAddr {
        SocketAddr::V4(SocketAddrV4::new(Ipv4Addr::LOCALHOST, 0))
    }

    #[test]
    fn endpoint_serves_metrics_json_and_404() {
        let reactor = Reactor::new().expect("reactor");
        let t = Telemetry::builder()
            .listen(loopback_any())
            .sample_interval(Duration::from_millis(50))
            .reactor(reactor)
            .start()
            .expect("telemetry");
        // Seed the registry through a session-style observer.
        let mut obs = t.observer();
        obs.on_event(
            0,
            &hrmc_core::Event::RateHalved {
                rate_bps: 1_000_000,
            },
        );
        t.sample_now();
        let addr = t.local_addr().expect("bound");
        let timeout = Duration::from_secs(5);
        let metrics = scrape(addr, "/metrics", timeout).expect("scrape /metrics");
        assert!(metrics.contains("hrmc_rate_halvings_total 1"), "{metrics}");
        assert!(metrics.contains("hrmc_reactor_loop_us"), "{metrics}");
        assert!(
            metrics.contains("hrmc_reactor_timer_slippage_us"),
            "{metrics}"
        );
        assert!(
            metrics.contains("hrmc_reactor_idle_cap_ms 100"),
            "{metrics}"
        );
        let json = scrape(addr, "/json", timeout).expect("scrape /json");
        assert!(json.contains("\"sample\":{\"telemetry\":1,"), "{json}");
        assert!(json.contains("\"alerts\":[]"), "{json}");
        assert!(json.contains("\"reactor\":{"), "{json}");
        let alerts = scrape(addr, "/alerts", timeout).expect("scrape /alerts");
        assert_eq!(alerts, "[]", "healthy endpoint must report no alerts");
        let err = scrape(addr, "/nope", timeout).expect_err("404");
        assert!(err.to_string().contains("404"), "{err}");
    }

    #[test]
    fn armed_monitor_surfaces_alerts_on_every_route() {
        let reactor = Reactor::new().expect("reactor");
        let t = Telemetry::builder()
            .listen(loopback_any())
            .sample_interval(Duration::from_secs(3600)) // manual sampling only
            .reactor(reactor)
            .health(hrmc_core::HealthConfig::default())
            .start()
            .expect("telemetry");
        let addr = t.local_addr().expect("bound");
        let timeout = Duration::from_secs(5);
        // Quiet monitor: all routes present, nothing raised.
        assert_eq!(scrape(addr, "/alerts", timeout).expect("alerts"), "[]");
        let metrics = scrape(addr, "/metrics", timeout).expect("metrics");
        assert!(metrics.contains("hrmc_alerts_active 0"), "{metrics}");
        assert!(
            metrics.contains("hrmc_telemetry_samples_dropped 0"),
            "{metrics}"
        );
        // Drive a NAK storm through a session-style observer; the fanned
        // observer must feed the monitor, and the next collect() must
        // publish the raised alert everywhere. Two gap-NAKs per 100 ms
        // with zero deliveries trips the storm rule (and only it) well
        // past its sustain window.
        let mut obs = t.observer();
        for i in 0u64..=10 {
            for j in 0..2 {
                obs.on_event(
                    i * 100_000,
                    &hrmc_core::Event::NakSent {
                        first: i * 2 + j,
                        count: 1,
                        trigger: hrmc_core::NakTrigger::Gap,
                    },
                );
            }
        }
        t.sample_now();
        let alerts = scrape(addr, "/alerts", timeout).expect("alerts");
        assert!(alerts.contains("\"rule\":\"nak_storm\""), "{alerts}");
        assert!(alerts.contains("\"raised\":true"), "{alerts}");
        assert_eq!(alerts, t.alerts_json());
        let metrics = scrape(addr, "/metrics", timeout).expect("metrics");
        assert!(metrics.contains("hrmc_alerts_active 1"), "{metrics}");
        assert!(metrics.contains("hrmc_alerts_raised_total 1"), "{metrics}");
        let json = scrape(addr, "/json", timeout).expect("json");
        assert!(json.contains("\"alerts\":[{\"t_us\":"), "{json}");
    }

    #[test]
    fn sampler_thread_accumulates_a_time_series() {
        let reactor = Reactor::new().expect("reactor");
        let t = Telemetry::builder()
            .sample_interval(Duration::from_millis(20))
            .ring(8)
            .reactor(reactor)
            .start()
            .expect("telemetry");
        let deadline = Instant::now() + Duration::from_secs(5);
        while t.samples().len() < 3 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        let samples = t.samples();
        assert!(
            samples.len() >= 3,
            "sampler thread produced {} samples",
            samples.len()
        );
        assert!(samples.windows(2).all(|w| w[1].t_us > w[0].t_us));
        assert!(samples.len() <= 8, "ring bound respected");
        drop(t); // must join both threads promptly
    }
}
