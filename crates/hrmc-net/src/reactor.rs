//! The shared multi-session reactor: one poll-driven event loop that
//! owns every session's sockets, drains RX in `recvmmsg` batches,
//! flushes engine output in `sendmmsg` batches, and services every
//! engine's `next_wakeup` deadline from a single min-heap timer — the
//! user-space analog of the paper's kernel placement (§4, Fig. 4),
//! where all H-RMC sockets share one softirq delivery path and one
//! timer wheel instead of spawning threads per endpoint.
//!
//! Thread count is O(1) per reactor, not O(sessions): a process serving
//! thousands of H-RMC sessions runs one reactor thread (plus whatever
//! application threads call `send`/`recv`). Sessions register at bind
//! time and deregister when their handle drops; `SenderHandle` /
//! `ReceiverHandle` are thin fronts over reactor-owned state.
//!
//! ## Event loop
//!
//! ```text
//!            ┌────────────── epoll_wait (≤ next deadline) ─────────────┐
//!            │                                                         │
//!   eventfd kick ──► re-fold dirty sessions' deadlines (min-heap)      │
//!   socket ready ──► recvmmsg burst ─► engine.handle_packet ─► flush   │
//!   deadline due ──► engine.on_tick ──────────────────────────► flush  │
//!            │                                                         │
//!            └── flush = poll_output ─► sendmmsg batches ─► events ────┘
//! ```
//!
//! Deadlines follow the same fold-min discipline the per-endpoint timer
//! threads used: an active engine's "one jiffy from now" wish recedes on
//! every re-read, so the heap keeps the earliest deadline promised so
//! far per session (stale entries are skipped lazily on pop) and a fresh
//! deadline is taken only after servicing a tick. A sender that just
//! accepted data answers "now"; the kick folds that in as the minimum,
//! so the data leaves on the next loop pass.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hrmc_core::{Histogram, MetricsRegistry};
use parking_lot::Mutex;

use crate::datapath::{Datapath, EpollDatapath};
use crate::socket::{McastSocket, RxBatch, SocketBuffers, TX_SLOTS};
use crate::NetError;

/// Sockets per session the token scheme supports (receiver = 2).
const MAX_ROLES: u64 = 2;
/// Readiness token of the kick eventfd.
pub(crate) const KICK_TOKEN: u64 = u64::MAX;
/// Attempts beyond the first before a transient `sendmmsg` error drops
/// the remaining batch (mirrors the single-send retry budget).
const TX_RETRIES: u32 = 4;

/// Tunables for a reactor instance.
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Longest uninterrupted readiness wait when no deadline is armed
    /// (and the cap applied to armed deadlines, so a session registered
    /// while the loop sleeps is noticed within this bound even if its
    /// kick is somehow lost). Smaller values trade idle CPU for
    /// responsiveness.
    pub idle_deadline_cap: Duration,
    /// Reactor threads a [`crate::ReactorPool`] built from this config
    /// runs (sessions are hash-assigned per shard). A plain [`Reactor`]
    /// ignores this and always runs one thread.
    pub shards: usize,
}

impl Default for ReactorConfig {
    fn default() -> ReactorConfig {
        ReactorConfig {
            idle_deadline_cap: Duration::from_millis(100),
            shards: 1,
        }
    }
}

/// Why the reactor stopped driving a session.
pub(crate) enum Fatal {
    /// A socket returned an unrecoverable error (e.g. `EBADF`); the
    /// error is surfaced so the session can report `SessionFailed`.
    Io(io::Error),
    /// The reactor itself shut down while the session was registered.
    ReactorClosed,
}

/// A session the reactor can drive. Implemented by the sender's and
/// receiver's shared state; all methods are called from the reactor
/// thread (the session's engine mutex provides interior mutability).
pub(crate) trait ReactorSession: Send + Sync {
    /// The sockets to watch, in role order (index = role).
    fn sockets(&self) -> Vec<&McastSocket>;
    /// Drain `role`'s socket into the engine and flush output. A returned
    /// error is fatal: the reactor stops watching this session and calls
    /// [`ReactorSession::on_fatal`].
    fn on_readable(&self, role: usize, io: &mut IoBatch) -> io::Result<()>;
    /// Service the session's earliest timer deadline.
    fn on_tick(&self, io: &mut IoBatch);
    /// The engine's next deadline on the shared monotonic timeline.
    fn next_deadline(&self) -> Option<Instant>;
    /// Terminal notification: the reactor no longer drives this session.
    fn on_fatal(&self, reason: Fatal);
    /// Per-session traffic totals for telemetry (`id` filled in by the
    /// reactor, which owns the numbering).
    fn health(&self) -> SessionHealth;
    /// Publish engine-level gauges (e.g. the sender's membership
    /// pressure) into a metrics registry. Default: none. With several
    /// publishing sessions on one reactor the last writer wins per
    /// gauge, matching the common one-sender-per-process deployment.
    fn publish_metrics(&self, _reg: &mut MetricsRegistry) {}
}

/// Per-session traffic totals, the raw material for per-session rate
/// telemetry (a sampler diffs successive snapshots).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SessionHealth {
    /// Reactor-assigned session id.
    pub id: u64,
    /// Endpoint role: `"sender"` or `"receiver"`.
    pub role: &'static str,
    /// Datagrams received by this session.
    pub packets_rx: u64,
    /// Datagrams staged for transmission by this session.
    pub packets_tx: u64,
    /// Payload bytes received.
    pub bytes_rx: u64,
    /// Payload bytes staged for transmission.
    pub bytes_tx: u64,
    /// Sender rate-halving episodes — the congestion-response count a
    /// degrading network shows first (0 for receivers).
    pub rate_halvings: u64,
    /// Sender urgent stops (0 for receivers).
    pub urgent_stops: u64,
    /// Members this sender ejected (0 for receivers).
    pub members_ejected: u64,
    /// Structurally invalid packets the engine rejected.
    pub malformed_packets: u64,
    /// Datagrams discarded for checksum failure.
    pub checksum_failures: u64,
    /// Receive-window overflow drops (0 for senders).
    pub overflow_drops: u64,
    /// Datagrams the kernel dropped because one of this session's socket
    /// queues was full (`SO_RXQ_OVFL`, summed over its sockets): loss
    /// the host inflicted, not the network.
    pub kernel_drops: u64,
    /// Effective `SO_RCVBUF` of the session's sockets (the smallest, if
    /// several), as read back from the kernel.
    pub rcvbuf_bytes: u64,
    /// Effective `SO_SNDBUF`, likewise.
    pub sndbuf_bytes: u64,
    /// `true` when the session declared terminal failure.
    pub session_failed: bool,
}

/// Atomic traffic counters each session embeds; the reactor thread
/// bumps them on the hot path (relaxed ordering — telemetry reads need
/// no synchronisation with the data they count). Also holds the kernel
/// buffer grant of the session's sockets, fixed at open time.
#[derive(Debug, Default)]
pub(crate) struct SessionCounters {
    packets_rx: AtomicU64,
    packets_tx: AtomicU64,
    bytes_rx: AtomicU64,
    bytes_tx: AtomicU64,
    /// Latest cumulative `SO_RXQ_OVFL` count per socket role.
    kernel_drops: [AtomicU64; MAX_ROLES as usize],
    buffers: SocketBuffers,
}

impl SessionCounters {
    pub(crate) fn new(buffers: SocketBuffers) -> SessionCounters {
        SessionCounters {
            buffers,
            ..SessionCounters::default()
        }
    }

    /// The kernel buffer grant of the session's sockets.
    pub(crate) fn buffers(&self) -> SocketBuffers {
        self.buffers
    }

    /// Count one receive batch on socket `role`; `kernel_drops` is the
    /// batch's [`RxBatch::kernel_drops`].
    pub(crate) fn note_rx(&self, role: usize, packets: u64, bytes: u64, kernel_drops: Option<u32>) {
        self.packets_rx.fetch_add(packets, Ordering::Relaxed);
        self.bytes_rx.fetch_add(bytes, Ordering::Relaxed);
        if let Some(total) = kernel_drops {
            self.kernel_drops[role].store(u64::from(total), Ordering::Relaxed);
        }
    }

    pub(crate) fn note_tx(&self, bytes: u64) {
        self.packets_tx.fetch_add(1, Ordering::Relaxed);
        self.bytes_tx.fetch_add(bytes, Ordering::Relaxed);
    }

    pub(crate) fn health(&self, role: &'static str) -> SessionHealth {
        SessionHealth {
            id: 0,
            role,
            packets_rx: self.packets_rx.load(Ordering::Relaxed),
            packets_tx: self.packets_tx.load(Ordering::Relaxed),
            bytes_rx: self.bytes_rx.load(Ordering::Relaxed),
            bytes_tx: self.bytes_tx.load(Ordering::Relaxed),
            kernel_drops: self
                .kernel_drops
                .iter()
                .map(|d| d.load(Ordering::Relaxed))
                .sum(),
            rcvbuf_bytes: self.buffers.rcvbuf as u64,
            sndbuf_bytes: self.buffers.sndbuf as u64,
            ..SessionHealth::default()
        }
    }
}

// ---------------------------------------------------------------------
// Batched I/O scratch state (one per reactor thread)
// ---------------------------------------------------------------------

/// Reusable I/O scratch owned by the reactor thread: the RX buffer
/// pool, the TX staging area, and the [`Datapath`] everything crosses
/// the kernel through — shared by every session so buffers are
/// allocated once per reactor, not per session.
pub(crate) struct IoBatch {
    /// RX buffer pool; sessions read decoded datagrams from here.
    pub(crate) rx: RxBatch,
    /// The syscall boundary (epoll + `recvmmsg`/`sendmmsg`).
    pub(crate) dp: Box<dyn Datapath>,
    /// Encoded-packet staging for the next TX submit.
    tx_bufs: Vec<Vec<u8>>,
    tx_dsts: Vec<SocketAddr>,
    tx_len: usize,
    stats: Arc<StatsCells>,
}

impl IoBatch {
    fn new(stats: Arc<StatsCells>, dp: Box<dyn Datapath>) -> IoBatch {
        IoBatch {
            rx: RxBatch::new(),
            dp,
            tx_bufs: Vec::new(),
            tx_dsts: Vec::new(),
            tx_len: 0,
            stats,
        }
    }

    /// One datapath drain into the pool; records batch-size stats. (The
    /// datapath counts its own syscalls; this layer counts packets.)
    pub(crate) fn recv(&mut self, sock: &McastSocket) -> io::Result<usize> {
        let n = self.dp.recv_batch(sock, &mut self.rx)?;
        let s = &self.stats;
        s.packets_rx.fetch_add(n as u64, Ordering::Relaxed);
        s.rx_batches.lock().record(n as u64);
        Ok(n)
    }

    /// Stage one outgoing packet: returns the cleared scratch buffer to
    /// encode into; commit with [`IoBatch::commit`].
    pub(crate) fn stage(&mut self) -> &mut Vec<u8> {
        if self.tx_len == self.tx_bufs.len() {
            self.tx_bufs.push(Vec::new());
            self.tx_dsts
                .push(SocketAddr::V4(std::net::SocketAddrV4::new(
                    std::net::Ipv4Addr::UNSPECIFIED,
                    0,
                )));
        }
        let buf = &mut self.tx_bufs[self.tx_len];
        buf.clear();
        buf
    }

    /// Commit the staged packet to `dst`; flushes `sock` when the batch
    /// is full. All packets staged between flushes go out `sock`.
    pub(crate) fn commit(&mut self, dst: SocketAddr, sock: &McastSocket) {
        self.tx_dsts[self.tx_len] = dst;
        self.tx_len += 1;
        if self.tx_len >= TX_SLOTS {
            self.flush_tx(sock);
        }
    }

    /// Flush every staged packet out `sock` in datapath batches,
    /// retrying transient kernel pressure (`EAGAIN`/`EINTR`/`ENOBUFS`)
    /// with the same short doubling backoff the single-send path used. A
    /// persistently failing datagram is dropped (the protocol's NAK path
    /// recovers it) without sacrificing the rest of the batch. Each
    /// attempt — success or transient failure — is a real kernel
    /// crossing, counted by the datapath itself.
    pub(crate) fn flush_tx(&mut self, sock: &McastSocket) {
        let mut off = 0;
        let mut attempt = 0;
        let mut backoff = Duration::from_micros(200);
        while off < self.tx_len {
            match self.dp.send_batch(
                sock,
                &self.tx_bufs[off..self.tx_len],
                &self.tx_dsts[off..self.tx_len],
            ) {
                Ok(n) => {
                    let s = &self.stats;
                    s.packets_tx.fetch_add(n as u64, Ordering::Relaxed);
                    s.tx_batches.lock().record(n as u64);
                    off += n.max(1);
                    attempt = 0;
                    backoff = Duration::from_micros(200);
                }
                Err(ref e) if is_transient(e) && attempt < TX_RETRIES => {
                    self.stats.tx_retries.fetch_add(1, Ordering::Relaxed);
                    attempt += 1;
                    std::thread::sleep(backoff);
                    backoff *= 2;
                }
                Err(_) => {
                    // Drop the message at the head and keep going: one
                    // unreachable unicast peer must not starve the rest.
                    self.stats.tx_drops.fetch_add(1, Ordering::Relaxed);
                    off += 1;
                    attempt = 0;
                    backoff = Duration::from_micros(200);
                }
            }
        }
        self.tx_len = 0;
    }
}

/// `true` for errors a loaded kernel returns transiently on UDP sends.
fn is_transient(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
    ) || e.raw_os_error() == Some(ENOBUFS)
}

/// `true` for receive-side errors that clear themselves: an empty queue,
/// a signal, or an asynchronous ICMP error queued against the socket
/// (port/host/net unreachable after a feedback send to a dead peer).
/// Everything else — `EBADF` above all — is fatal and must NOT be
/// retried: the old per-endpoint RX loops spun at 100% CPU on exactly
/// that case.
pub(crate) fn rx_error_disposition(e: &io::Error) -> RxError {
    match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => RxError::Drained,
        io::ErrorKind::Interrupted
        | io::ErrorKind::ConnectionRefused
        | io::ErrorKind::ConnectionReset => RxError::Retry,
        _ if matches!(e.raw_os_error(), Some(EHOSTUNREACH) | Some(ENETUNREACH)) => RxError::Retry,
        _ => RxError::Fatal,
    }
}

/// Classification of a receive error (see [`rx_error_disposition`]).
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum RxError {
    /// Nothing queued: stop draining this socket for now.
    Drained,
    /// Transient (signal / ICMP error consumed): try the next batch.
    Retry,
    /// Unrecoverable: fail the session.
    Fatal,
}

const ENOBUFS: i32 = 105;
const ENETUNREACH: i32 = 101;
const EHOSTUNREACH: i32 = 113;

// ---------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------

/// The reactor's shared counter cells. The datapath holds an `Arc` and
/// bumps the syscall counters (`recvmmsg_calls`/`sendmmsg_calls`); the
/// reactor side owns the rest.
#[derive(Default)]
pub(crate) struct StatsCells {
    pub(crate) sessions_hwm: AtomicU64,
    pub(crate) epoll_wakeups: AtomicU64,
    pub(crate) timer_fires: AtomicU64,
    pub(crate) kicks: AtomicU64,
    pub(crate) recvmmsg_calls: AtomicU64,
    pub(crate) sendmmsg_calls: AtomicU64,
    pub(crate) packets_rx: AtomicU64,
    pub(crate) packets_tx: AtomicU64,
    pub(crate) tx_retries: AtomicU64,
    pub(crate) tx_drops: AtomicU64,
    /// Raw timer-heap length (includes lazily-deleted stale entries).
    pub(crate) timer_heap_len: AtomicU64,
    /// Sessions with a live armed deadline (the authoritative map).
    pub(crate) timers_armed: AtomicU64,
    pub(crate) rx_batches: Mutex<Histogram>,
    pub(crate) tx_batches: Mutex<Histogram>,
    /// Busy time per loop iteration (µs): deadline service + dispatch,
    /// excluding the readiness-wait sleep itself.
    pub(crate) loop_us: Mutex<Histogram>,
    /// Timer slippage (µs): how late each deadline fired (fired-at minus
    /// deadline) — the loop's scheduling health under load.
    pub(crate) timer_slippage_us: Mutex<Histogram>,
}

/// Point-in-time snapshot of a reactor's gauges: how many sessions it
/// carries, how hard the event loop is working, and — the batching
/// payoff — how many packets each `recvmmsg`/`sendmmsg` syscall moved.
#[derive(Debug, Clone, Default)]
pub struct ReactorStats {
    /// Sessions currently registered.
    pub sessions: usize,
    /// Most sessions ever registered at once.
    pub sessions_hwm: u64,
    /// `epoll_wait` returns (the loop's wakeup count).
    pub epoll_wakeups: u64,
    /// Engine deadlines serviced from the timer heap.
    pub timer_fires: u64,
    /// Deadline re-folds requested by application threads.
    pub kicks: u64,
    /// `recvmmsg` syscalls issued.
    pub recvmmsg_calls: u64,
    /// `sendmmsg` syscalls issued (every attempt counts, including
    /// transiently failing ones that were retried).
    pub sendmmsg_calls: u64,
    /// Always 0: the io_uring datapath that counted `io_uring_enter`
    /// calls here is gone. The field stays only because the `perfbench`
    /// benchmark still adds it into its syscall count; drop it once
    /// that benchmark no longer reads it.
    pub uring_enters: u64,
    /// Datagrams received.
    pub packets_rx: u64,
    /// Datagrams sent.
    pub packets_tx: u64,
    /// Transient `sendmmsg` errors retried with backoff.
    pub tx_retries: u64,
    /// Datagrams dropped after the retry budget (NAK path recovers).
    pub tx_drops: u64,
    /// Raw timer-heap length (includes lazily-deleted stale entries).
    pub timer_heap_len: u64,
    /// Sessions with a live armed deadline.
    pub timers_armed: u64,
    /// Mean datagrams per `recvmmsg` call.
    pub rx_batch_mean: f64,
    /// Largest single `recvmmsg` batch.
    pub rx_batch_max: u64,
    /// Mean datagrams per `sendmmsg` call.
    pub tx_batch_mean: f64,
    /// Largest single `sendmmsg` batch.
    pub tx_batch_max: u64,
    /// 99th-percentile busy time per loop iteration (µs).
    pub loop_p99_us: u64,
    /// 99th-percentile timer slippage (µs): fired-at minus deadline.
    pub timer_slippage_p99_us: u64,
    /// The configured idle-deadline cap, milliseconds.
    pub idle_cap_ms: u64,
}

impl ReactorStats {
    /// Batched-I/O syscalls per packet moved: 1.0 is the unbatched
    /// floor (one syscall per datagram); batching pushes it below.
    /// 0.0 before any packet has moved — a reactor that has only
    /// polled must not report a syscall *rate*, and the old
    /// divide-by-`max(1)` form quietly reported the raw syscall count
    /// in that state.
    pub fn syscalls_per_packet(&self) -> f64 {
        let syscalls = self.recvmmsg_calls + self.sendmmsg_calls;
        let packets = self.packets_rx + self.packets_tx;
        if packets == 0 {
            return 0.0;
        }
        syscalls as f64 / packets as f64
    }
}

// ---------------------------------------------------------------------
// Reactor
// ---------------------------------------------------------------------

/// A socket-set change an application thread asks the reactor thread to
/// apply. The datapath lives on the reactor thread only, so registration
/// and deregistration are queued here and drained at the top of each
/// loop iteration — the kick eventfd bounds the latency.
enum DpCmd {
    /// Watch the sockets of session `id` (already in the sessions map).
    Register { id: u64 },
    /// Stop watching `fd`. The owning session's Arc rides along and is
    /// dropped only after `EPOLL_CTL_DEL` has run: were the socket closed
    /// first, a newly registered socket could reuse its fd number, and
    /// this DEL would remove that socket from the set instead.
    Deregister {
        fd: i32,
        keepalive: Arc<dyn ReactorSession>,
    },
}

struct Core {
    wakefd: i32,
    config: ReactorConfig,
    sessions: Mutex<HashMap<u64, Arc<dyn ReactorSession>>>,
    dirty: Mutex<Vec<u64>>,
    dp_cmds: Mutex<Vec<DpCmd>>,
    next_id: AtomicU64,
    shutdown: AtomicBool,
    stats: Arc<StatsCells>,
}

// SAFETY-free: fds are plain ints; all syscalls on them are thread-safe.

impl Core {
    fn session(&self, id: u64) -> Option<Arc<dyn ReactorSession>> {
        self.sessions.lock().get(&id).cloned()
    }

    fn deregister(&self, id: u64, session: &dyn ReactorSession) {
        let removed = self.sessions.lock().remove(&id);
        if let Some(owner) = removed {
            let mut cmds = self.dp_cmds.lock();
            for sock in session.sockets() {
                cmds.push(DpCmd::Deregister {
                    fd: sock.raw_fd(),
                    keepalive: Arc::clone(&owner),
                });
            }
            drop(cmds);
            self.wake();
        }
    }

    fn kick(&self, id: u64) {
        self.dirty.lock().push(id);
        self.wake();
    }

    /// Ring the eventfd so the reactor's readiness wait returns.
    fn wake(&self) {
        let one: u64 = 1;
        unsafe {
            libc::write(self.wakefd, &one as *const u64 as *const libc::c_void, 8);
        }
    }
}

impl Drop for Core {
    fn drop(&mut self) {
        unsafe {
            libc::close(self.wakefd);
        }
    }
}

/// Joins the reactor thread when the last user-held [`Reactor`] handle
/// drops. Sessions hold only the [`Core`], so the thread's lifetime is
/// tied to the handles, not to straggling sessions.
struct ThreadGuard {
    core: Arc<Core>,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl Drop for ThreadGuard {
    fn drop(&mut self) {
        self.core.shutdown.store(true, Ordering::SeqCst);
        self.core.wake();
        if let Some(t) = self.thread.lock().take() {
            let _ = t.join();
        }
    }
}

/// Handle to a shared reactor. Cheap to clone; the reactor thread runs
/// until the last handle drops ([`Reactor::global`]'s never does).
#[derive(Clone)]
pub struct Reactor {
    core: Arc<Core>,
    _guard: Arc<ThreadGuard>,
}

impl Reactor {
    /// Spawn a dedicated reactor (its own epoll instance and thread).
    /// Most applications want [`Reactor::global`] instead and should
    /// only build private reactors to shard very large session counts
    /// across cores.
    pub fn new() -> io::Result<Reactor> {
        Reactor::with_config(ReactorConfig::default())
    }

    /// Spawn a dedicated reactor with explicit tunables.
    pub fn with_config(config: ReactorConfig) -> io::Result<Reactor> {
        let wakefd = unsafe { libc::eventfd(0, libc::EFD_CLOEXEC | libc::EFD_NONBLOCK) };
        if wakefd < 0 {
            return Err(io::Error::last_os_error());
        }
        let stats = Arc::new(StatsCells::default());
        let dp = match EpollDatapath::new(wakefd, Arc::clone(&stats)) {
            Ok(dp) => Box::new(dp),
            Err(e) => {
                unsafe { libc::close(wakefd) };
                return Err(e);
            }
        };
        let core = Arc::new(Core {
            wakefd,
            config,
            sessions: Mutex::new(HashMap::new()),
            dirty: Mutex::new(Vec::new()),
            dp_cmds: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            stats,
        });
        let thread = {
            let core = Arc::clone(&core);
            std::thread::Builder::new()
                .name("hrmc-reactor".into())
                .spawn(move || run(&core, dp))?
        };
        Ok(Reactor {
            _guard: Arc::new(ThreadGuard {
                core: Arc::clone(&core),
                thread: Mutex::new(Some(thread)),
            }),
            core,
        })
    }

    /// The process-wide shared reactor, created on first use. Every
    /// session built without an explicit [`crate::Session`] `.reactor(..)`
    /// lands here — one thread no matter how many sessions the process
    /// runs.
    ///
    /// # Panics
    /// Panics if the kernel refuses the epoll/eventfd setup on first
    /// use (a process-fatal condition).
    pub fn global() -> Reactor {
        static GLOBAL: OnceLock<Reactor> = OnceLock::new();
        GLOBAL
            .get_or_init(|| Reactor::new().expect("cannot create the global hrmc reactor"))
            .clone()
    }

    /// Sessions currently registered.
    pub fn session_count(&self) -> usize {
        self.core.sessions.lock().len()
    }

    /// Snapshot of the reactor's counters and batch-size distributions.
    pub fn stats(&self) -> ReactorStats {
        let s = &self.core.stats;
        let rx = s.rx_batches.lock();
        let tx = s.tx_batches.lock();
        let loop_us = s.loop_us.lock();
        let slip = s.timer_slippage_us.lock();
        ReactorStats {
            sessions: self.session_count(),
            sessions_hwm: s.sessions_hwm.load(Ordering::Relaxed),
            epoll_wakeups: s.epoll_wakeups.load(Ordering::Relaxed),
            timer_fires: s.timer_fires.load(Ordering::Relaxed),
            kicks: s.kicks.load(Ordering::Relaxed),
            recvmmsg_calls: s.recvmmsg_calls.load(Ordering::Relaxed),
            sendmmsg_calls: s.sendmmsg_calls.load(Ordering::Relaxed),
            uring_enters: 0,
            packets_rx: s.packets_rx.load(Ordering::Relaxed),
            packets_tx: s.packets_tx.load(Ordering::Relaxed),
            tx_retries: s.tx_retries.load(Ordering::Relaxed),
            tx_drops: s.tx_drops.load(Ordering::Relaxed),
            timer_heap_len: s.timer_heap_len.load(Ordering::Relaxed),
            timers_armed: s.timers_armed.load(Ordering::Relaxed),
            rx_batch_mean: rx.mean(),
            rx_batch_max: rx.max().unwrap_or(0),
            tx_batch_mean: tx.mean(),
            tx_batch_max: tx.max().unwrap_or(0),
            loop_p99_us: loop_us.p99(),
            timer_slippage_p99_us: slip.p99(),
            idle_cap_ms: self.core.config.idle_deadline_cap.as_millis() as u64,
        }
    }

    /// The tunables this reactor was built with.
    pub fn config(&self) -> &ReactorConfig {
        &self.core.config
    }

    /// Per-session traffic totals, ordered by session id — the basis
    /// for per-session rate displays (`hrmc top`) and the `/json`
    /// telemetry dump.
    pub fn session_health(&self) -> Vec<SessionHealth> {
        let mut out: Vec<SessionHealth> = self
            .core
            .sessions
            .lock()
            .iter()
            .map(|(&id, s)| {
                let mut h = s.health();
                h.id = id;
                h
            })
            .collect();
        out.sort_by_key(|h| h.id);
        out
    }

    /// Publish the reactor's gauges and histograms into a metrics
    /// registry under `reactor_*` names. Idempotent (gauges are set,
    /// histograms replaced), so a telemetry sampler can call it on
    /// every sampling interval without double-counting.
    pub fn publish_metrics(&self, reg: &mut MetricsRegistry) {
        // A single reactor is one shard; `ReactorPool::publish_metrics`
        // uses the same helpers with its aggregate and width.
        publish_reactor_gauges(reg, &self.stats(), 1);
        reg.set_histogram("reactor_rx_batch", &self.core.stats.rx_batches.lock());
        reg.set_histogram("reactor_tx_batch", &self.core.stats.tx_batches.lock());
        reg.set_histogram("reactor_loop_us", &self.core.stats.loop_us.lock());
        reg.set_histogram(
            "reactor_timer_slippage_us",
            &self.core.stats.timer_slippage_us.lock(),
        );
        publish_session_gauges(reg, &self.sessions_snapshot());
    }

    /// Clone out the live session list. Sessions are cloned out of the
    /// lock first: a session's own engine lock is taken inside
    /// `publish_metrics`, and holding the registry lock across it would
    /// order those locks against the reactor thread's.
    pub(crate) fn sessions_snapshot(&self) -> Vec<Arc<dyn ReactorSession>> {
        self.core.sessions.lock().values().cloned().collect()
    }

    /// The shared counter cells (for [`crate::ReactorPool`]'s
    /// cross-shard histogram merges).
    pub(crate) fn stats_cells(&self) -> Arc<StatsCells> {
        Arc::clone(&self.core.stats)
    }

    /// Register a session: its sockets are switched to nonblocking and
    /// queued for the reactor thread's datapath, and its first deadline
    /// is folded into the timer heap. Returns the session id and the
    /// [`ReactorRef`] the handle drives kicks and deregistration
    /// through — deliberately *not* a full [`Reactor`], so live
    /// sessions do not keep the reactor thread alive past the last
    /// user-held handle. A socket the datapath cannot watch surfaces
    /// asynchronously via [`ReactorSession::on_fatal`].
    pub(crate) fn register(
        &self,
        session: Arc<dyn ReactorSession>,
    ) -> Result<(u64, ReactorRef), NetError> {
        if self.core.shutdown.load(Ordering::SeqCst) {
            return Err(NetError::ReactorClosed);
        }
        let id = self.core.next_id.fetch_add(1, Ordering::Relaxed);
        {
            let sockets = session.sockets();
            assert!(
                sockets.len() as u64 <= MAX_ROLES,
                "too many session sockets"
            );
            for sock in &sockets {
                sock.set_nonblocking(true).map_err(NetError::Io)?;
            }
        }
        {
            let mut map = self.core.sessions.lock();
            map.insert(id, session);
            let n = map.len() as u64;
            self.core.stats.sessions_hwm.fetch_max(n, Ordering::Relaxed);
        }
        self.core.dp_cmds.lock().push(DpCmd::Register { id });
        self.core.kick(id);
        Ok((
            id,
            ReactorRef {
                core: Arc::clone(&self.core),
            },
        ))
    }
}

/// A session handle's grip on its reactor: shares the [`Core`] (so
/// kicks and deregistration work) but NOT the thread guard — dropping
/// the last user-held [`Reactor`] shuts the loop down even while
/// sessions are live, and those sessions fail over to
/// [`crate::NetError::ReactorClosed`].
#[derive(Clone)]
pub(crate) struct ReactorRef {
    core: Arc<Core>,
}

impl ReactorRef {
    /// Ask the reactor to re-read `id`'s deadline: a submit, close, or
    /// application event may have armed an earlier timer. The eventfd's
    /// counter semantics make the kick impossible to lose — the old
    /// per-endpoint drivers needed a lock dance for the same guarantee.
    pub(crate) fn kick(&self, id: u64) {
        self.core.kick(id);
    }

    /// Remove a session: its sockets leave the epoll set, the reactor
    /// drops its timer state lazily.
    pub(crate) fn deregister(&self, id: u64, session: &dyn ReactorSession) {
        self.core.deregister(id, session);
    }
}

impl std::fmt::Debug for Reactor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reactor")
            .field("sessions", &self.session_count())
            .finish()
    }
}

/// Set the `reactor_*` gauges from a stats snapshot (a single reactor's
/// or a pool aggregate).
pub(crate) fn publish_reactor_gauges(reg: &mut MetricsRegistry, st: &ReactorStats, shards: u64) {
    reg.set_gauge("reactor_shards", shards);
    reg.set_gauge("reactor_sessions", st.sessions as u64);
    reg.set_gauge("reactor_sessions_hwm", st.sessions_hwm);
    reg.set_gauge("reactor_epoll_wakeups", st.epoll_wakeups);
    reg.set_gauge("reactor_timer_fires", st.timer_fires);
    reg.set_gauge("reactor_kicks", st.kicks);
    reg.set_gauge("reactor_recvmmsg_calls", st.recvmmsg_calls);
    reg.set_gauge("reactor_sendmmsg_calls", st.sendmmsg_calls);
    reg.set_gauge("reactor_packets_rx", st.packets_rx);
    reg.set_gauge("reactor_packets_tx", st.packets_tx);
    reg.set_gauge("reactor_tx_retries", st.tx_retries);
    reg.set_gauge("reactor_tx_drops", st.tx_drops);
    reg.set_gauge("reactor_timer_heap_len", st.timer_heap_len);
    reg.set_gauge("reactor_timers_armed", st.timers_armed);
    reg.set_gauge("reactor_idle_cap_ms", st.idle_cap_ms);
}

/// Sum engine-level degradation counters over `sessions` and let each
/// session publish its own gauges. With several publishing sessions the
/// last writer wins per gauge, matching the common one-sender-per-
/// process deployment.
pub(crate) fn publish_session_gauges(
    reg: &mut MetricsRegistry,
    sessions: &[Arc<dyn ReactorSession>],
) {
    let healths: Vec<SessionHealth> = sessions.iter().map(|s| s.health()).collect();
    let mut agg = SessionHealth::default();
    let mut failed = 0u64;
    for h in &healths {
        agg.rate_halvings += h.rate_halvings;
        agg.urgent_stops += h.urgent_stops;
        agg.members_ejected += h.members_ejected;
        agg.malformed_packets += h.malformed_packets;
        agg.checksum_failures += h.checksum_failures;
        agg.overflow_drops += h.overflow_drops;
        agg.kernel_drops += h.kernel_drops;
        failed += u64::from(h.session_failed);
    }
    // Degradation counters summed over live sessions: the live-wire
    // equivalents of the hostile matrix's SimReport columns.
    reg.set_gauge("sessions_rate_halvings", agg.rate_halvings);
    reg.set_gauge("sessions_urgent_stops", agg.urgent_stops);
    reg.set_gauge("sessions_members_ejected", agg.members_ejected);
    reg.set_gauge("sessions_malformed_packets", agg.malformed_packets);
    reg.set_gauge("sessions_checksum_failures", agg.checksum_failures);
    reg.set_gauge("sessions_overflow_drops", agg.overflow_drops);
    reg.set_gauge("sessions_failed", failed);
    // Host-inflicted loss, and the smallest kernel buffers granted (the
    // socket queue that overflows first; 0 with no live session).
    reg.set_gauge("sessions_kernel_drops", agg.kernel_drops);
    let smallest = |f: fn(&SessionHealth) -> u64| healths.iter().map(f).min().unwrap_or(0);
    reg.set_gauge("sessions_rcvbuf_bytes", smallest(|h| h.rcvbuf_bytes));
    reg.set_gauge("sessions_sndbuf_bytes", smallest(|h| h.sndbuf_bytes));
    for s in sessions {
        s.publish_metrics(reg);
    }
}

// ---------------------------------------------------------------------
// The event loop
// ---------------------------------------------------------------------

/// Fold a freshly read deadline into the per-session minimum (heap +
/// `deadlines` map form a lazy-deletion min-heap: the map holds the
/// authoritative earliest promise, the heap may hold stale extras).
fn fold_deadline(
    session: &Arc<dyn ReactorSession>,
    id: u64,
    deadlines: &mut HashMap<u64, Instant>,
    heap: &mut BinaryHeap<Reverse<(Instant, u64)>>,
) {
    if let Some(d) = session.next_deadline() {
        let earlier = deadlines.get(&id).is_none_or(|&cur| d < cur);
        if earlier {
            deadlines.insert(id, d);
            heap.push(Reverse((d, id)));
        }
    }
}

/// Apply queued socket-set changes on the reactor thread (the only
/// thread allowed to touch the datapath). A registration the datapath
/// refuses fails the session asynchronously, mirroring what a fatal
/// socket error during dispatch does.
fn drain_dp_cmds(core: &Arc<Core>, io: &mut IoBatch, deadlines: &mut HashMap<u64, Instant>) {
    let cmds = std::mem::take(&mut *core.dp_cmds.lock());
    for cmd in cmds {
        match cmd {
            DpCmd::Register { id } => {
                let Some(session) = core.session(id) else {
                    continue; // deregistered before the loop saw it
                };
                let mut err = None;
                {
                    let sockets = session.sockets();
                    for (role, sock) in sockets.iter().enumerate() {
                        if let Err(e) = io.dp.register(sock.raw_fd(), id * MAX_ROLES + role as u64)
                        {
                            for prior in &sockets[..role] {
                                io.dp.deregister(prior.raw_fd());
                            }
                            err = Some(e);
                            break;
                        }
                    }
                }
                if let Some(e) = err {
                    core.sessions.lock().remove(&id);
                    deadlines.remove(&id);
                    session.on_fatal(Fatal::Io(e));
                }
            }
            DpCmd::Deregister { fd, keepalive } => {
                io.dp.deregister(fd);
                drop(keepalive); // only now may the socket close
            }
        }
    }
}

fn run(core: &Arc<Core>, dp: Box<dyn Datapath>) {
    let mut io = IoBatch::new(Arc::clone(&core.stats), dp);
    let mut deadlines: HashMap<u64, Instant> = HashMap::new();
    let mut heap: BinaryHeap<Reverse<(Instant, u64)>> = BinaryHeap::new();
    let mut ready: Vec<u64> = Vec::with_capacity(64);

    let idle_cap = core.config.idle_deadline_cap;

    while !core.shutdown.load(Ordering::SeqCst) {
        // 0. Apply queued registrations/deregistrations.
        drain_dp_cmds(core, &mut io, &mut deadlines);

        // 1. Service every due deadline.
        let now = Instant::now();
        while let Some(&Reverse((t, id))) = heap.peek() {
            if t > now {
                break;
            }
            heap.pop();
            if deadlines.get(&id) != Some(&t) {
                continue; // stale entry superseded by an earlier fold
            }
            deadlines.remove(&id);
            let Some(session) = core.session(id) else {
                continue;
            };
            core.stats.timer_fires.fetch_add(1, Ordering::Relaxed);
            // Slippage: how far past its deadline this timer fired —
            // the loop's scheduling health under load.
            core.stats
                .timer_slippage_us
                .lock()
                .record(now.saturating_duration_since(t).as_micros() as u64);
            session.on_tick(&mut io);
            // A fresh deadline is taken only after servicing a tick.
            fold_deadline(&session, id, &mut deadlines, &mut heap);
        }
        core.stats
            .timer_heap_len
            .store(heap.len() as u64, Ordering::Relaxed);
        core.stats
            .timers_armed
            .store(deadlines.len() as u64, Ordering::Relaxed);
        let busy_before_wait = now.elapsed();

        // 2. Sleep until the earliest remaining deadline (rounded up to
        //    the next millisecond — a jiffy is 10 ms) or an event.
        let timeout_ms = match heap.peek() {
            Some(&Reverse((t, _))) => t
                .saturating_duration_since(now)
                .min(idle_cap)
                .as_micros()
                .div_ceil(1000) as i32,
            None => idle_cap.as_millis() as i32,
        };
        if let Err(e) = io.dp.wait(timeout_ms, &mut ready) {
            if e.kind() == io::ErrorKind::Interrupted {
                continue;
            }
            break; // EBADF after close: shutting down
        }
        core.stats.epoll_wakeups.fetch_add(1, Ordering::Relaxed);
        let dispatch_start = Instant::now();

        // 3. Dispatch readiness.
        for &token in &ready {
            if token == KICK_TOKEN {
                let mut drained: u64 = 0;
                unsafe {
                    libc::read(
                        core.wakefd,
                        &mut drained as *mut u64 as *mut libc::c_void,
                        8,
                    );
                }
                let ids = std::mem::take(&mut *core.dirty.lock());
                core.stats
                    .kicks
                    .fetch_add(ids.len() as u64, Ordering::Relaxed);
                for id in ids {
                    match core.session(id) {
                        Some(session) => fold_deadline(&session, id, &mut deadlines, &mut heap),
                        None => {
                            deadlines.remove(&id);
                        }
                    }
                }
                continue;
            }
            let id = token / MAX_ROLES;
            let role = (token % MAX_ROLES) as usize;
            let Some(session) = core.session(id) else {
                continue;
            };
            match session.on_readable(role, &mut io) {
                Ok(()) => fold_deadline(&session, id, &mut deadlines, &mut heap),
                Err(e) => {
                    // Fatal socket error: stop watching (level-triggered
                    // epoll would otherwise re-report it forever — the
                    // busy-spin the old per-endpoint RX threads had) and
                    // surface the failure to the application.
                    core.sessions.lock().remove(&id);
                    for sock in session.sockets() {
                        io.dp.deregister(sock.raw_fd());
                    }
                    deadlines.remove(&id);
                    session.on_fatal(Fatal::Io(e));
                }
            }
        }

        // Loop latency = busy time this iteration (deadline service +
        // dispatch), excluding the epoll sleep itself.
        let busy = busy_before_wait + dispatch_start.elapsed();
        core.stats.loop_us.lock().record(busy.as_micros() as u64);
    }

    // Shutdown: every still-registered session learns its driver died.
    let sessions = std::mem::take(&mut *core.sessions.lock());
    for (_, session) in sessions {
        session.on_fatal(Fatal::ReactorClosed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reactor_spins_up_and_down() {
        let r = Reactor::new().expect("reactor");
        assert_eq!(r.session_count(), 0);
        let st = r.stats();
        assert_eq!(st.sessions_hwm, 0);
        assert_eq!(st.packets_rx, 0);
        drop(r); // must join the thread without hanging
    }

    #[test]
    fn clones_share_the_core() {
        let r = Reactor::new().expect("reactor");
        let r2 = r.clone();
        drop(r);
        // The thread is still alive for r2: stats remain readable.
        let _ = r2.stats();
    }

    #[test]
    fn global_reactor_is_a_singleton() {
        let a = Reactor::global();
        let b = Reactor::global();
        assert!(Arc::ptr_eq(&a.core, &b.core));
    }

    #[test]
    fn rx_error_classification() {
        use io::ErrorKind as K;
        let d = |e: io::Error| rx_error_disposition(&e);
        assert_eq!(d(io::Error::from(K::WouldBlock)), RxError::Drained);
        assert_eq!(d(io::Error::from(K::TimedOut)), RxError::Drained);
        assert_eq!(d(io::Error::from(K::Interrupted)), RxError::Retry);
        assert_eq!(d(io::Error::from(K::ConnectionRefused)), RxError::Retry);
        assert_eq!(
            d(io::Error::from_raw_os_error(EHOSTUNREACH)),
            RxError::Retry
        );
        // The busy-spin bug: EBADF must be fatal, never retried.
        assert_eq!(d(io::Error::from_raw_os_error(9)), RxError::Fatal);
        assert_eq!(d(io::Error::from(K::PermissionDenied)), RxError::Fatal);
    }

    #[test]
    fn stats_syscalls_per_packet() {
        let st = ReactorStats {
            recvmmsg_calls: 10,
            sendmmsg_calls: 10,
            packets_rx: 50,
            packets_tx: 30,
            ..ReactorStats::default()
        };
        assert!((st.syscalls_per_packet() - 0.25).abs() < 1e-9);
        assert!(ReactorStats::default().syscalls_per_packet() < 1e-9);
    }

    /// A scripted datapath: counts `send_batch` invocations and plays
    /// back a canned verdict per call — the trait seam that lets the
    /// retry loop be tested without provoking real kernel pressure.
    struct ScriptedDatapath {
        calls: Arc<AtomicU64>,
        verdicts: Mutex<std::collections::VecDeque<Result<usize, io::ErrorKind>>>,
    }

    impl Datapath for ScriptedDatapath {
        fn register(&mut self, _fd: i32, _token: u64) -> io::Result<()> {
            Ok(())
        }
        fn deregister(&mut self, _fd: i32) {}
        fn wait(&mut self, _timeout_ms: i32, ready: &mut Vec<u64>) -> io::Result<()> {
            ready.clear();
            Ok(())
        }
        fn recv_batch(&mut self, _sock: &McastSocket, _rx: &mut RxBatch) -> io::Result<usize> {
            Err(io::Error::from(io::ErrorKind::WouldBlock))
        }
        fn send_batch(
            &mut self,
            _sock: &McastSocket,
            bufs: &[Vec<u8>],
            _dsts: &[SocketAddr],
        ) -> io::Result<usize> {
            self.calls.fetch_add(1, Ordering::Relaxed);
            match self.verdicts.lock().pop_front() {
                Some(Ok(n)) => Ok(n.min(bufs.len())),
                Some(Err(kind)) => Err(io::Error::from(kind)),
                None => Ok(bufs.len()),
            }
        }
    }

    fn loopback_sender() -> McastSocket {
        let group = std::net::SocketAddrV4::new(std::net::Ipv4Addr::new(239, 255, 87, 1), 47001);
        McastSocket::sender(group, std::net::Ipv4Addr::LOCALHOST).expect("socket")
    }

    /// Transient send failures re-invoke the datapath — one
    /// `send_batch` call per attempt, so a datapath that counts per
    /// invocation (epoll does) reports every real kernel crossing, not
    /// just the winners.
    #[test]
    fn flush_tx_reinvokes_backend_once_per_attempt() {
        let calls = Arc::new(AtomicU64::new(0));
        let mut verdicts = std::collections::VecDeque::new();
        verdicts.push_back(Err(io::ErrorKind::WouldBlock));
        verdicts.push_back(Err(io::ErrorKind::Interrupted));
        verdicts.push_back(Ok(3));
        let stats = Arc::new(StatsCells::default());
        let mut io = IoBatch::new(
            Arc::clone(&stats),
            Box::new(ScriptedDatapath {
                calls: Arc::clone(&calls),
                verdicts: Mutex::new(verdicts),
            }),
        );
        let sock = loopback_sender();
        let dst = SocketAddr::V4(std::net::SocketAddrV4::new(
            std::net::Ipv4Addr::LOCALHOST,
            47002,
        ));
        for _ in 0..3 {
            io.stage().extend_from_slice(b"payload");
            io.commit(dst, &sock);
        }
        io.flush_tx(&sock);
        assert_eq!(calls.load(Ordering::Relaxed), 3, "one call per attempt");
        assert_eq!(stats.tx_retries.load(Ordering::Relaxed), 2);
        assert_eq!(stats.packets_tx.load(Ordering::Relaxed), 3);
        assert_eq!(stats.tx_drops.load(Ordering::Relaxed), 0);
    }

    /// A persistently failing head datagram is dropped, the rest of the
    /// batch still goes out, and every attempt was a counted call.
    #[test]
    fn flush_tx_drops_poisoned_head_after_retry_budget() {
        let calls = Arc::new(AtomicU64::new(0));
        let mut verdicts = std::collections::VecDeque::new();
        for _ in 0..TX_RETRIES {
            verdicts.push_back(Err(io::ErrorKind::WouldBlock));
        }
        // Budget spent: the next failure (transient or not) drops the head.
        verdicts.push_back(Err(io::ErrorKind::WouldBlock));
        verdicts.push_back(Ok(1)); // the surviving tail
        let stats = Arc::new(StatsCells::default());
        let mut io = IoBatch::new(
            Arc::clone(&stats),
            Box::new(ScriptedDatapath {
                calls: Arc::clone(&calls),
                verdicts: Mutex::new(verdicts),
            }),
        );
        let sock = loopback_sender();
        let dst = SocketAddr::V4(std::net::SocketAddrV4::new(
            std::net::Ipv4Addr::LOCALHOST,
            47003,
        ));
        for _ in 0..2 {
            io.stage().extend_from_slice(b"payload");
            io.commit(dst, &sock);
        }
        io.flush_tx(&sock);
        assert_eq!(calls.load(Ordering::Relaxed), TX_RETRIES as u64 + 2);
        assert_eq!(stats.tx_retries.load(Ordering::Relaxed), TX_RETRIES as u64);
        assert_eq!(stats.tx_drops.load(Ordering::Relaxed), 1);
        assert_eq!(stats.packets_tx.load(Ordering::Relaxed), 1);
    }

    /// The epoll datapath counts the syscall *before* the verdict: a
    /// failing `sendmmsg` (here: destination port 0, `EINVAL`) is still
    /// a kernel crossing and must show up in `sendmmsg_calls` — the
    /// under-count that skewed `syscalls_per_packet` on lossy paths.
    #[test]
    fn epoll_backend_counts_failed_send_attempts() {
        let wakefd = unsafe { libc::eventfd(0, libc::EFD_NONBLOCK | libc::EFD_CLOEXEC) };
        assert!(wakefd >= 0);
        let stats = Arc::new(StatsCells::default());
        let mut dp = EpollDatapath::new(wakefd, Arc::clone(&stats)).expect("dp");
        let sock = loopback_sender();
        let good = SocketAddr::V4(std::net::SocketAddrV4::new(
            std::net::Ipv4Addr::LOCALHOST,
            47004,
        ));
        let bad = SocketAddr::V4(std::net::SocketAddrV4::new(
            std::net::Ipv4Addr::LOCALHOST,
            0,
        ));
        dp.send_batch(&sock, &[b"ok".to_vec()], &[good])
            .expect("send");
        assert_eq!(stats.sendmmsg_calls.load(Ordering::Relaxed), 1);
        let err = dp.send_batch(&sock, &[b"x".to_vec()], &[bad]);
        assert!(err.is_err(), "port 0 must fail");
        assert_eq!(
            stats.sendmmsg_calls.load(Ordering::Relaxed),
            2,
            "failed attempt is still a syscall"
        );
        drop(dp);
        unsafe { libc::close(wakefd) };
    }

    #[test]
    fn syscalls_per_packet_is_zero_before_any_packet_moves() {
        // An idle reactor polls (recvmmsg returning WouldBlock still
        // counts a syscall in principle) without moving packets; the
        // ratio must read 0.0, not the raw syscall count.
        let st = ReactorStats {
            recvmmsg_calls: 1_000,
            sendmmsg_calls: 7,
            packets_rx: 0,
            packets_tx: 0,
            ..ReactorStats::default()
        };
        assert_eq!(st.syscalls_per_packet(), 0.0);
    }

    #[test]
    fn idle_cap_is_configurable_and_exported() {
        let r = Reactor::with_config(ReactorConfig {
            idle_deadline_cap: Duration::from_millis(25),
            ..ReactorConfig::default()
        })
        .expect("reactor");
        assert_eq!(r.config().idle_deadline_cap, Duration::from_millis(25));
        assert_eq!(r.stats().idle_cap_ms, 25);
        let mut reg = MetricsRegistry::new();
        r.publish_metrics(&mut reg);
        assert_eq!(reg.gauge("reactor_idle_cap_ms"), Some(25));
        assert_eq!(reg.gauge("reactor_timer_heap_len"), Some(0));
        // Default config keeps the historical 100 ms cap.
        assert_eq!(
            ReactorConfig::default().idle_deadline_cap,
            Duration::from_millis(100)
        );
        drop(r);
    }

    #[test]
    fn publish_metrics_is_idempotent() {
        let r = Reactor::new().expect("reactor");
        // Let the loop run a few iterations so loop_us has samples.
        std::thread::sleep(Duration::from_millis(5));
        r.core.wake();
        std::thread::sleep(Duration::from_millis(5));
        let mut reg = MetricsRegistry::new();
        r.publish_metrics(&mut reg);
        let first = reg.histogram("reactor_loop_us").map(|h| h.count());
        r.publish_metrics(&mut reg);
        let second = reg.histogram("reactor_loop_us").map(|h| h.count());
        // Re-publishing replaces rather than doubling: counts can only
        // grow by what the live loop recorded in between.
        if let (Some(a), Some(b)) = (first, second) {
            assert!(b >= a, "count shrank: {a} -> {b}");
            assert!(b < 2 * a.max(1) + 16, "double-counted: {a} -> {b}");
        }
    }
}
