//! io_uring backend: submission/completion rings in place of the
//! epoll backend's wait+drain+flush syscall train.
//!
//! Shape of the ring traffic:
//!
//! * **RX** — multishot-style receive batches: [`RX_INFLIGHT`]
//!   `RECVMSG` requests stay posted per socket, each owning a
//!   preallocated 64 KiB slot from the registered buffer pool, so a
//!   burst of datagrams completes as a burst of CQEs with no syscall
//!   per packet. Consumed slots are re-posted at the next wait.
//! * **TX** — linked submits: each `flush_tx` batch becomes a chain of
//!   `SENDMSG` SQEs joined with `IOSQE_IO_LINK` (in-order submission);
//!   a link severed by a transient error is re-queued unlinked once.
//! * **Timers** — the reactor's deadline wait becomes an `OP_TIMEOUT`
//!   SQE; a later-than-needed pending timeout is left to fire as a
//!   harmless early wake, so rapid loop iterations do not stack
//!   timeouts.
//! * **Kick** — a oneshot `POLL_ADD` on the reactor's eventfd,
//!   re-armed per wait.
//!
//! One `io_uring_enter(…, GETEVENTS)` per loop iteration submits all
//! queued SQEs and reaps all CQEs — that single syscall is the whole
//! kernel crossing, counted in `ReactorStats::uring_enters`.
//!
//! Two fd-lifetime rules this file encodes (learned the hard way by
//! every io_uring consumer):
//!
//! 1. A nonblocking socket makes `RECVMSG` complete `-EAGAIN` instead
//!    of arming the internal poll — sockets stay *blocking* under this
//!    backend (the reactor skips `set_nonblocking` for it).
//! 2. A pending SQE holds a file reference, so `close(2)` does not
//!    cancel it. Deregistration parks the owning session's Arc (which
//!    keeps the fd open) in a graveyard, posts `ASYNC_CANCEL` for the
//!    slots still posted, and releases the Arc only when the last CQE
//!    for that fd arrives.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use super::Datapath;
use crate::reactor::{ReactorSession, StatsCells, KICK_TOKEN};
use crate::socket::{rxq_ovfl, sockaddr_in_of, McastSocket, RxBatch, RX_CTRL_WORDS};

/// Submission ring size: a full TX flush (16) per session across a
/// dispatch burst plus RX reposts fit comfortably; overflow spills to
/// the userspace deferred queue and drains next pump.
const SQ_ENTRIES: u32 = 256;
/// Completion ring size (via `IORING_SETUP_CQSIZE`): large enough that
/// a burst across every registered socket cannot overflow it.
const CQ_ENTRIES: u32 = 4096;
/// `RECVMSG` requests kept posted per socket — the multishot-style
/// batch depth, matching the epoll path's `RX_SLOTS` recvmmsg width.
const RX_INFLIGHT: usize = 8;
/// Per-slot receive buffer: the UDP maximum, so no datagram truncates.
const RX_SLOT_BUF: usize = 64 * 1024;
/// TX slot pool cap: deep enough for several sessions' flushes in one
/// dispatch burst; exhaustion surfaces as `WouldBlock` to the caller's
/// backoff loop.
const TX_POOL: usize = 256;

const TAG_SHIFT: u32 = 56;
const TAG_MASK: u64 = 0xff << TAG_SHIFT;
const TAG_RX: u64 = 1 << TAG_SHIFT;
const TAG_TX: u64 = 2 << TAG_SHIFT;
const TAG_KICK: u64 = 3 << TAG_SHIFT;
const TAG_TIMEOUT: u64 = 4 << TAG_SHIFT;
const TAG_CANCEL: u64 = 5 << TAG_SHIFT;

const POLLIN: u32 = 0x1;
const EAGAIN: i32 = 11;
const EINTR: i32 = 4;
const EBUSY: i32 = 16;
const ENOBUFS: i32 = 105;
const ECANCELED: i32 = 125;

/// One pre-posted receive request's backing store. Boxed so every
/// pointer the kernel holds (`buf`, `name`, `iov`, `msg`) stays stable
/// while the slot vector grows.
struct RxSlot {
    buf: Vec<u8>,
    name: libc::sockaddr_in,
    iov: libc::iovec,
    msg: libc::msghdr,
    /// Control buffer for the socket's `SO_RXQ_OVFL` drop count.
    ctrl: [u64; RX_CTRL_WORDS],
    /// Socket this slot is posted against or holds data from; -1 free.
    fd: i32,
    /// Payload length filled in from the completion.
    len: usize,
}

impl RxSlot {
    fn new() -> Box<RxSlot> {
        Box::new(RxSlot {
            buf: vec![0u8; RX_SLOT_BUF],
            name: unsafe { std::mem::zeroed() },
            iov: libc::iovec {
                iov_base: std::ptr::null_mut(),
                iov_len: 0,
            },
            msg: unsafe { std::mem::zeroed() },
            ctrl: [0; RX_CTRL_WORDS],
            fd: -1,
            len: 0,
        })
    }
}

/// One in-flight transmit's backing store (same stability argument).
struct TxSlot {
    buf: Vec<u8>,
    name: libc::sockaddr_in,
    iov: libc::iovec,
    msg: libc::msghdr,
    fd: i32,
    /// Already re-queued after a severed link (`-ECANCELED`).
    relinked: bool,
    /// Already re-queued after a transient error.
    retried: bool,
    /// Kernel-visible (queued or submitted, completion pending).
    live: bool,
}

impl TxSlot {
    fn new() -> Box<TxSlot> {
        Box::new(TxSlot {
            buf: Vec::new(),
            name: unsafe { std::mem::zeroed() },
            iov: libc::iovec {
                iov_base: std::ptr::null_mut(),
                iov_len: 0,
            },
            msg: unsafe { std::mem::zeroed() },
            fd: -1,
            relinked: false,
            retried: false,
            live: false,
        })
    }
}

/// A completed receive waiting for the session to drain it.
enum RxDone {
    /// Slot index holding payload + source address.
    Data(usize),
    /// Receive error (positive errno), surfaced once then cleared.
    Err(i32),
}

/// Per-watched-fd state.
struct FdState {
    token: u64,
    /// Completions not yet consumed by `recv_batch`, oldest first.
    ready: VecDeque<RxDone>,
    /// RECVMSG (and cancel-pending) requests the kernel still holds.
    inflight: usize,
    /// Deregistered: stop reposting, drop completions, release
    /// `keepalive` once `inflight` hits zero.
    dying: bool,
    /// The owning session, parked so the fd outlives pending SQEs.
    keepalive: Option<Arc<dyn ReactorSession>>,
}

fn sqe(opcode: u8, fd: i32, addr: u64, len: u32, user_data: u64) -> libc::io_uring_sqe {
    libc::io_uring_sqe {
        opcode,
        fd,
        addr,
        len,
        user_data,
        ..libc::io_uring_sqe::default()
    }
}

pub(crate) struct UringDatapath {
    fd: i32,
    wakefd: i32,
    stats: Arc<StatsCells>,

    // Ring mappings. `cq_ring` aliases `sq_ring` on
    // IORING_FEAT_SINGLE_MMAP kernels (cq_ring_len == 0 then).
    sq_ring: *mut u8,
    sq_ring_len: usize,
    cq_ring: *mut u8,
    cq_ring_len: usize,
    sqes: *mut libc::io_uring_sqe,
    sqes_len: usize,

    // Ring geometry: raw offsets resolved to pointers.
    sq_head: *const AtomicU32,
    sq_tail: *const AtomicU32,
    sq_mask: u32,
    sq_entries: u32,
    sq_array: *mut u32,
    cq_head: *const AtomicU32,
    cq_tail: *const AtomicU32,
    cq_mask: u32,
    cqes: *const libc::io_uring_cqe,

    /// SQEs accepted but not yet copied into the ring (ring-full spill
    /// and everything queued between enters).
    pending: VecDeque<libc::io_uring_sqe>,
    fds: HashMap<i32, FdState>,
    // The boxes are load-bearing, not clippy::vec_box noise: submitted
    // SQEs carry raw pointers into a slot's msghdr/iovec/buffer, and
    // the kernel dereferences them asynchronously. Boxing pins each
    // slot's address across Vec growth.
    #[allow(clippy::vec_box)]
    rx_slots: Vec<Box<RxSlot>>,
    rx_free: Vec<usize>,
    /// Consumed slots awaiting repost at the next wait.
    rx_repost: Vec<usize>,
    #[allow(clippy::vec_box)]
    tx_slots: Vec<Box<TxSlot>>,
    tx_free: Vec<usize>,
    kick_armed: bool,
    kick_fired: bool,
    timeout_gen: u64,
    /// Generation and absolute deadline of the earliest armed
    /// `OP_TIMEOUT` still pending.
    pending_timeout: Option<(u64, Instant)>,
    /// Timespec storage per armed timeout generation (the kernel reads
    /// it at submission; freed when the CQE arrives).
    timeout_specs: HashMap<u64, Box<libc::__kernel_timespec>>,
}

// SAFETY: the raw pointers target ring mmaps owned by this struct; all
// access happens from the one reactor thread that owns the box.
unsafe impl Send for UringDatapath {}

impl UringDatapath {
    pub(crate) fn new(wakefd: i32, stats: Arc<StatsCells>) -> io::Result<UringDatapath> {
        let mut params = libc::io_uring_params {
            flags: libc::IORING_SETUP_CQSIZE,
            cq_entries: CQ_ENTRIES,
            ..libc::io_uring_params::default()
        };
        let fd = unsafe {
            libc::syscall(
                libc::SYS_io_uring_setup,
                SQ_ENTRIES,
                &mut params as *mut libc::io_uring_params,
            )
        } as i32;
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        let close_on_err = |e: io::Error| {
            unsafe { libc::close(fd) };
            Err(e)
        };

        let sq_sz =
            params.sq_off.array as usize + params.sq_entries as usize * std::mem::size_of::<u32>();
        let cq_sz = params.cq_off.cqes as usize
            + params.cq_entries as usize * std::mem::size_of::<libc::io_uring_cqe>();
        let single = params.features & libc::IORING_FEAT_SINGLE_MMAP != 0;
        let sq_ring_len = if single { sq_sz.max(cq_sz) } else { sq_sz };
        let map = |len: usize, off: i64| -> io::Result<*mut u8> {
            let p = unsafe {
                libc::mmap(
                    std::ptr::null_mut(),
                    len,
                    libc::PROT_READ | libc::PROT_WRITE,
                    libc::MAP_SHARED | libc::MAP_POPULATE,
                    fd,
                    off,
                )
            };
            if p == libc::MAP_FAILED {
                Err(io::Error::last_os_error())
            } else {
                Ok(p as *mut u8)
            }
        };
        let sq_ring = match map(sq_ring_len, libc::IORING_OFF_SQ_RING) {
            Ok(p) => p,
            Err(e) => return close_on_err(e),
        };
        let (cq_ring, cq_ring_len) = if single {
            (sq_ring, 0)
        } else {
            match map(cq_sz, libc::IORING_OFF_CQ_RING) {
                Ok(p) => (p, cq_sz),
                Err(e) => {
                    unsafe { libc::munmap(sq_ring as *mut libc::c_void, sq_ring_len) };
                    return close_on_err(e);
                }
            }
        };
        let sqes_len = params.sq_entries as usize * std::mem::size_of::<libc::io_uring_sqe>();
        let sqes = match map(sqes_len, libc::IORING_OFF_SQES) {
            Ok(p) => p as *mut libc::io_uring_sqe,
            Err(e) => {
                unsafe {
                    if cq_ring_len > 0 {
                        libc::munmap(cq_ring as *mut libc::c_void, cq_ring_len);
                    }
                    libc::munmap(sq_ring as *mut libc::c_void, sq_ring_len);
                }
                return close_on_err(e);
            }
        };

        unsafe {
            let at = |base: *mut u8, off: u32| base.add(off as usize);
            Ok(UringDatapath {
                fd,
                wakefd,
                stats,
                sq_ring,
                sq_ring_len,
                cq_ring,
                cq_ring_len,
                sqes,
                sqes_len,
                sq_head: at(sq_ring, params.sq_off.head) as *const AtomicU32,
                sq_tail: at(sq_ring, params.sq_off.tail) as *const AtomicU32,
                sq_mask: *(at(sq_ring, params.sq_off.ring_mask) as *const u32),
                sq_entries: params.sq_entries,
                sq_array: at(sq_ring, params.sq_off.array) as *mut u32,
                cq_head: at(cq_ring, params.cq_off.head) as *const AtomicU32,
                cq_tail: at(cq_ring, params.cq_off.tail) as *const AtomicU32,
                cq_mask: *(at(cq_ring, params.cq_off.ring_mask) as *const u32),
                cqes: at(cq_ring, params.cq_off.cqes) as *const libc::io_uring_cqe,
                pending: VecDeque::new(),
                fds: HashMap::new(),
                rx_slots: Vec::new(),
                rx_free: Vec::new(),
                rx_repost: Vec::new(),
                tx_slots: Vec::new(),
                tx_free: Vec::new(),
                kick_armed: false,
                kick_fired: false,
                timeout_gen: 0,
                pending_timeout: None,
                timeout_specs: HashMap::new(),
            })
        }
    }

    /// Copy deferred SQEs into the ring (as many as fit) and return the
    /// count the next `io_uring_enter` should submit.
    fn pump(&mut self) -> u32 {
        unsafe {
            let head = (*self.sq_head).load(Ordering::Acquire);
            let mut tail = (*self.sq_tail).load(Ordering::Relaxed);
            while tail.wrapping_sub(head) < self.sq_entries {
                let Some(s) = self.pending.pop_front() else {
                    break;
                };
                let idx = tail & self.sq_mask;
                *self.sqes.add(idx as usize) = s;
                *self.sq_array.add(idx as usize) = idx;
                tail = tail.wrapping_add(1);
            }
            (*self.sq_tail).store(tail, Ordering::Release);
            tail.wrapping_sub((*self.sq_head).load(Ordering::Acquire))
        }
    }

    /// One `io_uring_enter` — the backend's only syscall, counted.
    fn enter(&self, to_submit: u32, min_complete: u32, flags: u32) -> io::Result<i64> {
        self.stats.uring_enters.fetch_add(1, Ordering::Relaxed);
        let rc = unsafe {
            libc::syscall(
                libc::SYS_io_uring_enter,
                self.fd,
                to_submit,
                min_complete,
                flags,
                std::ptr::null_mut::<libc::c_void>(),
                0usize,
            )
        };
        if rc < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(rc)
        }
    }

    /// Drain every available CQE into userspace state.
    fn reap(&mut self) {
        unsafe {
            let tail = (*self.cq_tail).load(Ordering::Acquire);
            let mut head = (*self.cq_head).load(Ordering::Relaxed);
            while head != tail {
                let cqe = *self.cqes.add((head & self.cq_mask) as usize);
                head = head.wrapping_add(1);
                self.on_cqe(cqe);
            }
            (*self.cq_head).store(head, Ordering::Release);
        }
    }

    fn on_cqe(&mut self, cqe: libc::io_uring_cqe) {
        let payload = cqe.user_data & !TAG_MASK;
        match cqe.user_data & TAG_MASK {
            TAG_RX => self.on_rx_cqe(payload as usize, cqe.res),
            TAG_TX => self.on_tx_cqe(payload as usize, cqe.res),
            TAG_KICK => {
                self.kick_armed = false;
                self.kick_fired = true;
            }
            TAG_TIMEOUT => {
                self.timeout_specs.remove(&payload);
                if let Some((gen, _)) = self.pending_timeout {
                    if gen == payload {
                        self.pending_timeout = None;
                    }
                }
            }
            TAG_CANCEL => {} // best-effort; the canceled op's own CQE settles state
            _ => {}
        }
    }

    fn on_rx_cqe(&mut self, slot_idx: usize, res: i32) {
        let fd = self.rx_slots[slot_idx].fd;
        let Some(state) = self.fds.get_mut(&fd) else {
            // fd already finalized (should not happen — finalize waits
            // for inflight to reach zero); recycle the slot defensively.
            self.rx_slots[slot_idx].fd = -1;
            self.rx_free.push(slot_idx);
            return;
        };
        state.inflight -= 1;
        if state.dying {
            self.rx_slots[slot_idx].fd = -1;
            self.rx_free.push(slot_idx);
            Self::finalize_if_drained(&mut self.fds, fd);
            return;
        }
        if res >= 0 {
            self.rx_slots[slot_idx].len = res as usize;
            state.ready.push_back(RxDone::Data(slot_idx));
        } else {
            let errno = -res;
            self.rx_slots[slot_idx].fd = -1;
            if errno == ECANCELED {
                self.rx_free.push(slot_idx);
            } else {
                // Surface the error in arrival order; the slot itself
                // reposts so the socket keeps draining if the session
                // treats the error as transient.
                state.ready.push_back(RxDone::Err(errno));
                self.rx_repost.push(slot_idx);
                // Reposting needs the fd back on the slot.
                self.rx_slots[slot_idx].fd = fd;
            }
        }
    }

    fn on_tx_cqe(&mut self, slot_idx: usize, res: i32) {
        let errno = if res < 0 { -res } else { 0 };
        let requeue = {
            let slot = &mut self.tx_slots[slot_idx];
            slot.live = false;
            if res >= 0 {
                None
            } else if errno == ECANCELED && !slot.relinked {
                // Collateral of a severed IO_LINK chain, not a real
                // failure: resubmit unlinked.
                slot.relinked = true;
                Some(false)
            } else if matches!(errno, EAGAIN | EINTR | ENOBUFS) && !slot.retried {
                slot.retried = true;
                Some(true)
            } else {
                self.stats.tx_drops.fetch_add(1, Ordering::Relaxed);
                slot.fd = -1;
                self.tx_free.push(slot_idx);
                return;
            }
        };
        match requeue {
            None => {
                let slot = &mut self.tx_slots[slot_idx];
                slot.fd = -1;
                self.tx_free.push(slot_idx);
            }
            Some(count_retry) => {
                if count_retry {
                    self.stats.tx_retries.fetch_add(1, Ordering::Relaxed);
                }
                self.queue_tx(slot_idx, false);
            }
        }
    }

    /// Queue the RECVMSG for a slot already assigned to an fd.
    fn queue_rx(&mut self, slot_idx: usize) {
        let slot = &mut self.rx_slots[slot_idx];
        let fd = slot.fd;
        slot.iov.iov_base = slot.buf.as_mut_ptr() as *mut libc::c_void;
        slot.iov.iov_len = RX_SLOT_BUF;
        slot.msg = unsafe { std::mem::zeroed() };
        slot.msg.msg_name = &mut slot.name as *mut libc::sockaddr_in as *mut libc::c_void;
        slot.msg.msg_namelen = std::mem::size_of::<libc::sockaddr_in>() as libc::socklen_t;
        slot.msg.msg_iov = &mut slot.iov;
        slot.msg.msg_iovlen = 1;
        slot.msg.msg_control = slot.ctrl.as_mut_ptr() as *mut libc::c_void;
        slot.msg.msg_controllen = RX_CTRL_WORDS * 8;
        let addr = &slot.msg as *const libc::msghdr as u64;
        self.pending.push_back(sqe(
            libc::IORING_OP_RECVMSG,
            fd,
            addr,
            1,
            TAG_RX | slot_idx as u64,
        ));
        if let Some(state) = self.fds.get_mut(&fd) {
            state.inflight += 1;
        }
    }

    /// Queue the SENDMSG for a filled TX slot.
    fn queue_tx(&mut self, slot_idx: usize, link: bool) {
        let slot = &mut self.tx_slots[slot_idx];
        slot.iov.iov_base = slot.buf.as_mut_ptr() as *mut libc::c_void;
        slot.iov.iov_len = slot.buf.len();
        slot.msg = unsafe { std::mem::zeroed() };
        slot.msg.msg_name = &mut slot.name as *mut libc::sockaddr_in as *mut libc::c_void;
        slot.msg.msg_namelen = std::mem::size_of::<libc::sockaddr_in>() as libc::socklen_t;
        slot.msg.msg_iov = &mut slot.iov;
        slot.msg.msg_iovlen = 1;
        slot.live = true;
        let mut s = sqe(
            libc::IORING_OP_SENDMSG,
            slot.fd,
            &slot.msg as *const libc::msghdr as u64,
            1,
            TAG_TX | slot_idx as u64,
        );
        if link {
            s.flags |= libc::IOSQE_IO_LINK;
        }
        self.pending.push_back(s);
    }

    fn finalize_if_drained(fds: &mut HashMap<i32, FdState>, fd: i32) {
        if let Some(state) = fds.get(&fd) {
            if state.dying && state.inflight == 0 {
                fds.remove(&fd); // dropping keepalive releases the fd
            }
        }
    }

    /// Arm an `OP_TIMEOUT` for `timeout_ms` from now, unless one at
    /// least as early is already pending (an earlier one firing first
    /// is a harmless spurious wake).
    fn arm_timeout(&mut self, timeout_ms: i32) {
        let timeout_ms = timeout_ms.max(0) as u64;
        let deadline = Instant::now() + Duration::from_millis(timeout_ms);
        if let Some((_, d)) = self.pending_timeout {
            if d <= deadline + Duration::from_millis(1) {
                return;
            }
        }
        self.timeout_gen += 1;
        let gen = self.timeout_gen;
        let ts = Box::new(libc::__kernel_timespec {
            tv_sec: (timeout_ms / 1000) as i64,
            tv_nsec: ((timeout_ms % 1000) * 1_000_000) as i64,
        });
        let addr = &*ts as *const libc::__kernel_timespec as u64;
        self.timeout_specs.insert(gen, ts);
        self.pending
            .push_back(sqe(libc::IORING_OP_TIMEOUT, -1, addr, 1, TAG_TIMEOUT | gen));
        self.pending_timeout = Some((gen, deadline));
    }

    /// Re-post every consumed RX slot whose socket is still live.
    fn repost_rx(&mut self) {
        let slots = std::mem::take(&mut self.rx_repost);
        for slot_idx in slots {
            let fd = self.rx_slots[slot_idx].fd;
            let alive = self.fds.get(&fd).is_some_and(|s| !s.dying);
            if alive {
                self.queue_rx(slot_idx);
            } else {
                self.rx_slots[slot_idx].fd = -1;
                self.rx_free.push(slot_idx);
            }
        }
    }

    /// Append the tokens of every fd with undrained completions, plus
    /// the kick if it fired.
    fn collect_ready(&mut self, ready: &mut Vec<u64>) {
        for state in self.fds.values() {
            if !state.dying && !state.ready.is_empty() {
                ready.push(state.token);
            }
        }
        if self.kick_fired {
            self.kick_fired = false;
            ready.push(KICK_TOKEN);
        }
    }

    fn outstanding(&self) -> usize {
        let rx: usize = self.fds.values().map(|s| s.inflight).sum();
        let tx = self.tx_slots.iter().filter(|s| s.live).count();
        rx + tx
    }
}

impl Datapath for UringDatapath {
    fn backend(&self) -> &'static str {
        "uring"
    }

    fn register(&mut self, fd: i32, token: u64) -> io::Result<()> {
        if fd == self.wakefd {
            // The kick eventfd is driven by oneshot POLL_ADD armed per
            // wait, not a persistent registration.
            return Ok(());
        }
        self.fds.insert(
            fd,
            FdState {
                token,
                ready: VecDeque::new(),
                inflight: 0,
                dying: false,
                keepalive: None,
            },
        );
        for _ in 0..RX_INFLIGHT {
            let slot_idx = self.rx_free.pop().unwrap_or_else(|| {
                self.rx_slots.push(RxSlot::new());
                self.rx_slots.len() - 1
            });
            self.rx_slots[slot_idx].fd = fd;
            self.queue_rx(slot_idx);
        }
        Ok(())
    }

    fn deregister(&mut self, fd: i32, keepalive: Arc<dyn ReactorSession>) {
        let Some(state) = self.fds.get_mut(&fd) else {
            return;
        };
        state.dying = true;
        // Unconsumed completions are discarded; their slots free up now.
        let ready = std::mem::take(&mut state.ready);
        for done in ready {
            if let RxDone::Data(slot_idx) = done {
                self.rx_slots[slot_idx].fd = -1;
                self.rx_free.push(slot_idx);
            }
        }
        let state = self.fds.get_mut(&fd).expect("still present");
        if state.inflight == 0 {
            self.fds.remove(&fd);
            drop(keepalive);
            return;
        }
        // Pending SQEs hold a file reference past close(2): park the
        // session Arc until their CQEs arrive, and hasten them along
        // with ASYNC_CANCEL.
        state.keepalive = Some(keepalive);
        for slot_idx in 0..self.rx_slots.len() {
            if self.rx_slots[slot_idx].fd == fd {
                self.pending.push_back(sqe(
                    libc::IORING_OP_ASYNC_CANCEL,
                    -1,
                    TAG_RX | slot_idx as u64,
                    0,
                    TAG_CANCEL,
                ));
            }
        }
    }

    fn wait(&mut self, timeout_ms: i32, ready: &mut Vec<u64>) -> io::Result<()> {
        ready.clear();
        self.repost_rx();
        if !self.kick_armed {
            self.kick_armed = true;
            self.pending
                .push_back(sqe(libc::IORING_OP_POLL_ADD, self.wakefd, 0, 0, TAG_KICK));
            let s = self.pending.back_mut().expect("just pushed");
            s.op_flags = POLLIN;
        }
        // Completions may already be queued (reaped during the send
        // path, or arrived since): report them without blocking, after
        // submitting whatever is pending.
        self.reap();
        self.collect_ready(ready);
        if !ready.is_empty() {
            let to_submit = self.pump();
            if to_submit > 0 {
                match self.enter(to_submit, 0, 0) {
                    Ok(_) => {}
                    Err(ref e) if e.raw_os_error() == Some(EBUSY) => self.reap(),
                    Err(ref e) if e.raw_os_error() == Some(EINTR) => {}
                    Err(e) => return Err(e),
                }
            }
            return Ok(());
        }
        self.arm_timeout(timeout_ms);
        let to_submit = self.pump();
        match self.enter(to_submit, 1, libc::IORING_ENTER_GETEVENTS) {
            Ok(_) => {}
            Err(ref e) if e.raw_os_error() == Some(EINTR) => {
                return Err(io::Error::from(io::ErrorKind::Interrupted));
            }
            Err(ref e) if e.raw_os_error() == Some(EBUSY) => {}
            Err(e) => return Err(e),
        }
        self.reap();
        self.collect_ready(ready);
        Ok(())
    }

    fn recv_batch(&mut self, sock: &McastSocket, rx: &mut RxBatch) -> io::Result<usize> {
        let fd = sock.raw_fd();
        let Some(state) = self.fds.get_mut(&fd) else {
            return Err(io::Error::from(io::ErrorKind::WouldBlock));
        };
        match state.ready.front() {
            None => return Err(io::Error::from(io::ErrorKind::WouldBlock)),
            Some(RxDone::Err(_)) => {
                let Some(RxDone::Err(errno)) = state.ready.pop_front() else {
                    unreachable!()
                };
                return Err(io::Error::from_raw_os_error(errno));
            }
            Some(RxDone::Data(_)) => {}
        }
        rx.clear();
        let mut consumed = Vec::new();
        while let Some(&RxDone::Data(slot_idx)) = state.ready.front() {
            state.ready.pop_front();
            consumed.push(slot_idx);
            if consumed.len() == crate::socket::RX_SLOTS {
                break;
            }
        }
        let n = consumed.len();
        for slot_idx in consumed {
            let slot = &self.rx_slots[slot_idx];
            rx.push(&slot.buf[..slot.len], slot.name, rxq_ovfl(&slot.msg));
            self.rx_repost.push(slot_idx);
        }
        Ok(n)
    }

    fn send_batch(
        &mut self,
        sock: &McastSocket,
        bufs: &[Vec<u8>],
        dsts: &[SocketAddr],
    ) -> io::Result<usize> {
        let fd = sock.raw_fd();
        let mut queued = Vec::new();
        for (buf, dst) in bufs.iter().zip(dsts) {
            let name = match sockaddr_in_of(*dst) {
                Ok(n) => n,
                Err(e) => {
                    if queued.is_empty() {
                        return Err(e);
                    }
                    break;
                }
            };
            let slot_idx = match self.tx_free.pop() {
                Some(i) => i,
                None if self.tx_slots.len() < TX_POOL => {
                    self.tx_slots.push(TxSlot::new());
                    self.tx_slots.len() - 1
                }
                None => {
                    // Pool exhausted: completions may be sitting in the
                    // CQ — reap, then give the caller's backoff loop a
                    // turn if still dry.
                    self.reap();
                    match self.tx_free.pop() {
                        Some(i) => i,
                        None if !queued.is_empty() => break,
                        None => return Err(io::Error::from(io::ErrorKind::WouldBlock)),
                    }
                }
            };
            let slot = &mut self.tx_slots[slot_idx];
            slot.buf.clear();
            slot.buf.extend_from_slice(buf);
            slot.name = name;
            slot.fd = fd;
            slot.relinked = false;
            slot.retried = false;
            queued.push(slot_idx);
        }
        let n = queued.len();
        for (i, slot_idx) in queued.into_iter().enumerate() {
            // Chain the batch in submission order; the last entry
            // terminates the link so unrelated later SQEs stay
            // independent.
            self.queue_tx(slot_idx, i + 1 < n);
        }
        Ok(n)
    }
}

impl Drop for UringDatapath {
    fn drop(&mut self) {
        // Cancel every still-posted RX and drain all in-flight work so
        // the kernel's last references into the slot pool die before
        // the pool does.
        let fds: Vec<i32> = self.fds.keys().copied().collect();
        for fd in fds {
            let state = self.fds.get_mut(&fd).expect("listed");
            state.dying = true;
            let ready = std::mem::take(&mut state.ready);
            for done in ready {
                if let RxDone::Data(slot_idx) = done {
                    self.rx_slots[slot_idx].fd = -1;
                    self.rx_free.push(slot_idx);
                }
            }
            Self::finalize_if_drained(&mut self.fds, fd);
        }
        for slot_idx in 0..self.rx_slots.len() {
            if self.rx_slots[slot_idx].fd >= 0 {
                self.pending.push_back(sqe(
                    libc::IORING_OP_ASYNC_CANCEL,
                    -1,
                    TAG_RX | slot_idx as u64,
                    0,
                    TAG_CANCEL,
                ));
            }
        }
        let deadline = Instant::now() + Duration::from_secs(1);
        while self.outstanding() > 0 && Instant::now() < deadline {
            self.arm_timeout(100);
            let to_submit = self.pump();
            let _ = self.enter(to_submit, 1, libc::IORING_ENTER_GETEVENTS);
            self.reap();
        }
        if self.outstanding() > 0 {
            // The kernel may still write into slot memory after a
            // deferred ring teardown: leak the pools rather than free
            // memory the kernel holds pointers into.
            std::mem::forget(std::mem::take(&mut self.rx_slots));
            std::mem::forget(std::mem::take(&mut self.tx_slots));
            std::mem::forget(std::mem::take(&mut self.timeout_specs));
        }
        unsafe {
            libc::munmap(self.sqes as *mut libc::c_void, self.sqes_len);
            if self.cq_ring_len > 0 {
                libc::munmap(self.cq_ring as *mut libc::c_void, self.cq_ring_len);
            }
            libc::munmap(self.sq_ring as *mut libc::c_void, self.sq_ring_len);
            libc::close(self.fd);
        }
    }
}
