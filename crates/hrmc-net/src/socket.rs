//! Multicast UDP socket setup and batched datagram I/O.
//!
//! `std::net::UdpSocket` cannot set `SO_REUSEADDR`/`SO_REUSEPORT` before
//! binding, which several receivers sharing one group port on one machine
//! require — exactly the configuration of every multi-receiver test in
//! the paper. The two `setsockopt` calls are issued through `libc` on the
//! raw fd before `bind`; everything else stays `std` — except the
//! reactor's hot path, which drains and flushes whole bursts per syscall
//! via [`RxBatch`] (`recvmmsg`) and [`McastSocket::send_batch`]
//! (`sendmmsg`), the user-space analog of the kernel driver servicing a
//! softirq queue in one pass.
//!
//! Every session socket is also sized to the protocol window
//! ([`McastSocket::prepare`]): the paper's "per-socket kernel buffer
//! size" is `ProtocolConfig::rcvbuf`/`sndbuf`, so `SO_RCVBUF`/`SO_SNDBUF`
//! are set from them and read back, and `SO_RXQ_OVFL` makes every
//! received datagram carry the socket's cumulative kernel drop count
//! ([`RxBatch::kernel_drops`]).

use std::io;
use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4, UdpSocket};

#[cfg(unix)]
use std::os::unix::io::{AsRawFd, FromRawFd, RawFd};

/// A UDP socket configured for multicast experiments on one machine.
#[derive(Debug)]
pub struct McastSocket {
    inner: UdpSocket,
    group: SocketAddrV4,
}

#[cfg(unix)]
fn bind_reuse(addr: SocketAddrV4) -> io::Result<UdpSocket> {
    unsafe {
        let fd = libc::socket(libc::AF_INET, libc::SOCK_DGRAM, 0);
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        for opt in [libc::SO_REUSEADDR, libc::SO_REUSEPORT] {
            if let Err(e) = set_int_opt(fd, opt, 1) {
                libc::close(fd);
                return Err(e);
            }
        }
        let sin = libc::sockaddr_in {
            sin_family: libc::AF_INET as libc::sa_family_t,
            sin_port: addr.port().to_be(),
            sin_addr: libc::in_addr {
                s_addr: u32::from_ne_bytes(addr.ip().octets()),
            },
            sin_zero: [0; 8],
        };
        if libc::bind(
            fd,
            &sin as *const _ as *const libc::sockaddr,
            std::mem::size_of::<libc::sockaddr_in>() as libc::socklen_t,
        ) < 0
        {
            let e = io::Error::last_os_error();
            libc::close(fd);
            return Err(e);
        }
        Ok(UdpSocket::from_raw_fd(fd))
    }
}

/// A socket's kernel buffer sizes: what was asked for and what the
/// kernel granted, as read back with `getsockopt`.
///
/// Linux doubles a `SO_RCVBUF`/`SO_SNDBUF` request to leave room for its
/// per-datagram bookkeeping, so a full grant reads back as twice the
/// request. Less than that means `net.core.rmem_max` (receive) or
/// `net.core.wmem_max` (send) clamped it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SocketBuffers {
    /// Requested `SO_RCVBUF` bytes.
    pub rcvbuf_requested: usize,
    /// Effective `SO_RCVBUF` bytes.
    pub rcvbuf: usize,
    /// Requested `SO_SNDBUF` bytes.
    pub sndbuf_requested: usize,
    /// Effective `SO_SNDBUF` bytes.
    pub sndbuf: usize,
}

impl SocketBuffers {
    /// `true` when `net.core.rmem_max` clamped the receive buffer.
    pub fn rcvbuf_clamped(&self) -> bool {
        self.rcvbuf < 2 * self.rcvbuf_requested
    }

    /// `true` when `net.core.wmem_max` clamped the send buffer.
    pub fn sndbuf_clamped(&self) -> bool {
        self.sndbuf < 2 * self.sndbuf_requested
    }

    /// Field-wise minimum of the effective sizes: the binding grant over
    /// several sockets opened with the same request.
    pub fn min(self, other: SocketBuffers) -> SocketBuffers {
        SocketBuffers {
            rcvbuf: self.rcvbuf.min(other.rcvbuf),
            sndbuf: self.sndbuf.min(other.sndbuf),
            ..self
        }
    }
}

impl McastSocket {
    /// A receiver socket: binds the group port with address/port reuse,
    /// joins `group` on `interface`, and enables multicast loopback so
    /// several processes on one host form a working group.
    pub fn receiver(group: SocketAddrV4, interface: Ipv4Addr) -> io::Result<McastSocket> {
        let sock = bind_reuse(SocketAddrV4::new(Ipv4Addr::UNSPECIFIED, group.port()))?;
        sock.join_multicast_v4(group.ip(), &interface)?;
        sock.set_multicast_loop_v4(true)?;
        Ok(McastSocket { inner: sock, group })
    }

    /// A sender socket: binds an ephemeral port, scopes multicast to
    /// `interface`, enables loopback, TTL 1 (the paper's LAN scope).
    pub fn sender(group: SocketAddrV4, interface: Ipv4Addr) -> io::Result<McastSocket> {
        let sock = UdpSocket::bind(SocketAddrV4::new(Ipv4Addr::UNSPECIFIED, 0))?;
        sock.set_multicast_loop_v4(true)?;
        sock.set_multicast_ttl_v4(1)?;
        set_multicast_if(&sock, interface)?;
        Ok(McastSocket { inner: sock, group })
    }

    /// Session-socket setup: request `rcvbuf`/`sndbuf` bytes of kernel
    /// buffer, enable `SO_RXQ_OVFL` drop counting, and read back what
    /// the kernel granted. The kernel clamps an oversized request
    /// silently; the returned effective sizes are the only place the
    /// clamp shows.
    #[cfg(unix)]
    pub fn prepare(&self, rcvbuf: usize, sndbuf: usize) -> io::Result<SocketBuffers> {
        let fd = self.inner.as_raw_fd();
        let clamp = |bytes: usize| libc::c_int::try_from(bytes).unwrap_or(libc::c_int::MAX);
        set_int_opt(fd, libc::SO_RCVBUF, clamp(rcvbuf))?;
        set_int_opt(fd, libc::SO_SNDBUF, clamp(sndbuf))?;
        set_int_opt(fd, libc::SO_RXQ_OVFL, 1)?;
        Ok(SocketBuffers {
            rcvbuf_requested: rcvbuf,
            rcvbuf: get_int_opt(fd, libc::SO_RCVBUF)? as usize,
            sndbuf_requested: sndbuf,
            sndbuf: get_int_opt(fd, libc::SO_SNDBUF)? as usize,
        })
    }

    /// The group this socket addresses.
    pub fn group(&self) -> SocketAddrV4 {
        self.group
    }

    /// Local bound address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.inner.local_addr()
    }

    /// Send `buf` to the multicast group, retrying transient kernel
    /// errors with a short backoff (see [`send_retrying`]).
    pub fn send_multicast(&self, buf: &[u8]) -> io::Result<usize> {
        send_retrying(|| self.inner.send_to(buf, SocketAddr::V4(self.group)))
    }

    /// Send `buf` to a specific peer (unicast), retrying transient
    /// kernel errors with a short backoff (see [`send_retrying`]).
    pub fn send_unicast(&self, buf: &[u8], to: SocketAddr) -> io::Result<usize> {
        send_retrying(|| self.inner.send_to(buf, to))
    }

    /// Receive one datagram (honors the configured read timeout).
    pub fn recv_from(&self, buf: &mut [u8]) -> io::Result<(usize, SocketAddr)> {
        self.inner.recv_from(buf)
    }

    /// Set the blocking-read timeout (drivers use a short timeout so
    /// shutdown flags are observed).
    pub fn set_read_timeout(&self, dur: std::time::Duration) -> io::Result<()> {
        self.inner.set_read_timeout(Some(dur))
    }

    /// Clone the underlying socket handle (same fd, shared by threads).
    pub fn try_clone(&self) -> io::Result<McastSocket> {
        Ok(McastSocket {
            inner: self.inner.try_clone()?,
            group: self.group,
        })
    }

    /// Switch blocking mode. The reactor runs every registered socket
    /// nonblocking (epoll says when to read; `recvmmsg` must never park
    /// the shared thread).
    pub fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        self.inner.set_nonblocking(nonblocking)
    }

    /// The raw fd, for epoll registration.
    #[cfg(unix)]
    pub fn raw_fd(&self) -> RawFd {
        self.inner.as_raw_fd()
    }

    /// Send up to [`TX_SLOTS`] datagrams in one `sendmmsg` syscall, each
    /// to its own destination. Returns how many messages the kernel
    /// accepted (≥ 1 on success); an error means message `0` of the slice
    /// failed and nothing was sent.
    #[cfg(unix)]
    pub fn send_batch(&self, bufs: &[Vec<u8>], dsts: &[SocketAddr]) -> io::Result<usize> {
        debug_assert_eq!(bufs.len(), dsts.len());
        let n = bufs.len().min(dsts.len()).min(TX_SLOTS);
        if n == 0 {
            return Ok(0);
        }
        let mut names = [EMPTY_SOCKADDR_IN; TX_SLOTS];
        let mut iovs = [EMPTY_IOVEC; TX_SLOTS];
        let mut hdrs = [EMPTY_MMSGHDR; TX_SLOTS];
        for i in 0..n {
            names[i] = sockaddr_in_of(dsts[i])?;
            iovs[i].iov_base = bufs[i].as_ptr() as *mut libc::c_void;
            iovs[i].iov_len = bufs[i].len();
            hdrs[i].msg_hdr.msg_name = &mut names[i] as *mut libc::sockaddr_in as *mut libc::c_void;
            hdrs[i].msg_hdr.msg_namelen =
                std::mem::size_of::<libc::sockaddr_in>() as libc::socklen_t;
            hdrs[i].msg_hdr.msg_iov = &mut iovs[i];
            hdrs[i].msg_hdr.msg_iovlen = 1;
        }
        let sent = unsafe {
            libc::sendmmsg(
                self.inner.as_raw_fd(),
                hdrs.as_mut_ptr(),
                n as libc::c_uint,
                0,
            )
        };
        if sent < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(sent as usize)
        }
    }
}

/// Slots per `recvmmsg` call: the most datagrams one syscall can drain.
pub const RX_SLOTS: usize = 8;
/// Slots per `sendmmsg` call: the most datagrams one syscall can flush.
pub const TX_SLOTS: usize = 16;
/// Per-slot receive buffer: the UDP maximum, so no datagram is ever
/// truncated regardless of the session's configured segment size.
const RX_BUF: usize = 64 * 1024;
/// Per-slot control buffer, in `u64` words (cmsg alignment): room for
/// the one ancillary item sessions enable, the `SO_RXQ_OVFL` count.
const RX_CTRL_WORDS: usize =
    libc::CMSG_SPACE(std::mem::size_of::<u32>() as libc::c_uint) as usize / 8;

/// The socket's cumulative kernel drop count carried by a received
/// message's `SO_RXQ_OVFL` item. The kernel attaches it only once the
/// count is nonzero, so `None` means "no drops yet" on a prepared socket.
fn rxq_ovfl(msg: &libc::msghdr) -> Option<u32> {
    // SAFETY: `msg` was filled by the kernel; its control fields describe
    // the slot's control buffer, and the walk stays inside it.
    unsafe {
        let mut c = libc::CMSG_FIRSTHDR(msg);
        while !c.is_null() {
            if (*c).cmsg_level == libc::SOL_SOCKET && (*c).cmsg_type == libc::SO_RXQ_OVFL {
                return Some(std::ptr::read_unaligned(libc::CMSG_DATA(c) as *const u32));
            }
            c = libc::CMSG_NXTHDR(msg, c);
        }
    }
    None
}

const EMPTY_SOCKADDR_IN: libc::sockaddr_in = libc::sockaddr_in {
    sin_family: 0,
    sin_port: 0,
    sin_addr: libc::in_addr { s_addr: 0 },
    sin_zero: [0; 8],
};
const EMPTY_IOVEC: libc::iovec = libc::iovec {
    iov_base: std::ptr::null_mut(),
    iov_len: 0,
};
const EMPTY_MMSGHDR: libc::mmsghdr = libc::mmsghdr {
    msg_hdr: libc::msghdr {
        msg_name: std::ptr::null_mut(),
        msg_namelen: 0,
        msg_iov: std::ptr::null_mut(),
        msg_iovlen: 0,
        msg_control: std::ptr::null_mut(),
        msg_controllen: 0,
        msg_flags: 0,
    },
    msg_len: 0,
};

fn sockaddr_in_of(addr: SocketAddr) -> io::Result<libc::sockaddr_in> {
    match addr {
        SocketAddr::V4(a) => Ok(libc::sockaddr_in {
            sin_family: libc::AF_INET as libc::sa_family_t,
            sin_port: a.port().to_be(),
            sin_addr: libc::in_addr {
                s_addr: u32::from_ne_bytes(a.ip().octets()),
            },
            sin_zero: [0; 8],
        }),
        SocketAddr::V6(_) => Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "AF_INET socket cannot address an IPv6 destination",
        )),
    }
}

/// Reusable `recvmmsg` buffer pool: [`RX_SLOTS`] full-size datagram
/// buffers plus the per-message source-address and control storage,
/// allocated once per reactor and refilled by every [`RxBatch::recv`]
/// call.
pub struct RxBatch {
    bufs: Vec<Vec<u8>>,
    names: [libc::sockaddr_in; RX_SLOTS],
    ctrl: [[u64; RX_CTRL_WORDS]; RX_SLOTS],
    lens: [usize; RX_SLOTS],
    count: usize,
    drops: Option<u32>,
}

impl RxBatch {
    /// Allocate the pool (RX_SLOTS × 64 KiB, reused for the reactor's
    /// lifetime).
    pub fn new() -> RxBatch {
        RxBatch {
            bufs: (0..RX_SLOTS).map(|_| vec![0u8; RX_BUF]).collect(),
            names: [EMPTY_SOCKADDR_IN; RX_SLOTS],
            ctrl: [[0; RX_CTRL_WORDS]; RX_SLOTS],
            lens: [0; RX_SLOTS],
            count: 0,
            drops: None,
        }
    }

    /// One `recvmmsg` call on `sock`: fill the pool with every queued
    /// datagram (up to [`RX_SLOTS`]) and return how many arrived. On a
    /// nonblocking socket an empty queue surfaces as `WouldBlock`.
    #[cfg(unix)]
    pub fn recv(&mut self, sock: &McastSocket) -> io::Result<usize> {
        self.count = 0;
        self.drops = None;
        let mut iovs = [EMPTY_IOVEC; RX_SLOTS];
        let mut hdrs = [EMPTY_MMSGHDR; RX_SLOTS];
        for i in 0..RX_SLOTS {
            iovs[i].iov_base = self.bufs[i].as_mut_ptr() as *mut libc::c_void;
            iovs[i].iov_len = RX_BUF;
            hdrs[i].msg_hdr.msg_name =
                &mut self.names[i] as *mut libc::sockaddr_in as *mut libc::c_void;
            hdrs[i].msg_hdr.msg_namelen =
                std::mem::size_of::<libc::sockaddr_in>() as libc::socklen_t;
            hdrs[i].msg_hdr.msg_iov = &mut iovs[i];
            hdrs[i].msg_hdr.msg_iovlen = 1;
            hdrs[i].msg_hdr.msg_control = self.ctrl[i].as_mut_ptr() as *mut libc::c_void;
            hdrs[i].msg_hdr.msg_controllen = RX_CTRL_WORDS * 8;
        }
        let n = unsafe {
            libc::recvmmsg(
                sock.inner.as_raw_fd(),
                hdrs.as_mut_ptr(),
                RX_SLOTS as libc::c_uint,
                0,
                std::ptr::null_mut(),
            )
        };
        if n < 0 {
            return Err(io::Error::last_os_error());
        }
        let n = n as usize;
        for (len, hdr) in self.lens.iter_mut().zip(hdrs.iter()).take(n) {
            *len = hdr.msg_len as usize;
            self.drops = rxq_ovfl(&hdr.msg_hdr).or(self.drops);
        }
        self.count = n;
        Ok(n)
    }

    /// The socket's cumulative kernel drop count as of the newest
    /// datagram in the last batch (`SO_RXQ_OVFL`), or `None` when no
    /// datagram carried one. The kernel stamps the count when it queues
    /// a datagram, so drops after the newest queued datagram show up
    /// with the next one.
    pub fn kernel_drops(&self) -> Option<u32> {
        self.drops
    }

    /// Number of datagrams the last [`RxBatch::recv`] filled.
    pub fn len(&self) -> usize {
        self.count
    }

    /// `true` when the last receive drained nothing.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Datagram `i` of the last batch: payload bytes and source address.
    pub fn datagram(&self, i: usize) -> (&[u8], SocketAddr) {
        assert!(i < self.count, "datagram index out of batch");
        let name = self.names[i];
        let addr = SocketAddr::V4(SocketAddrV4::new(
            // `s_addr` holds the four octets in network order; reading the
            // native bytes back recovers them (inverse of the bind path).
            Ipv4Addr::from(name.sin_addr.s_addr.to_ne_bytes()),
            u16::from_be(name.sin_port),
        ));
        (&self.bufs[i][..self.lens[i]], addr)
    }
}

impl Default for RxBatch {
    fn default() -> Self {
        RxBatch::new()
    }
}

/// Attempts beyond the first before a transient send error is surfaced.
const SEND_RETRIES: u32 = 4;

/// Linux `ENOBUFS` (the pinned `libc` predates the re-export): the
/// kernel's socket buffers are momentarily full.
const ENOBUFS: i32 = 105;

/// `true` for errors a loaded kernel returns transiently on UDP sends:
/// `EAGAIN`/`EWOULDBLOCK`, `EINTR`, and `ENOBUFS` (socket buffers
/// momentarily full — the classic burst symptom on loopback).
fn is_transient(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
    ) || e.raw_os_error() == Some(ENOBUFS)
}

/// Run `send`, retrying transient errors up to [`SEND_RETRIES`] times
/// with a doubling backoff starting at 200 µs. A datagram the kernel
/// refuses under momentary pressure would otherwise be silently lost
/// and cost a full NAK round trip to recover; a sub-millisecond retry
/// is far cheaper. Persistent errors surface to the caller unchanged.
fn send_retrying<F: FnMut() -> io::Result<usize>>(mut send: F) -> io::Result<usize> {
    let mut backoff = std::time::Duration::from_micros(200);
    let mut attempt = 0;
    loop {
        match send() {
            Err(ref e) if is_transient(e) && attempt < SEND_RETRIES => {
                attempt += 1;
                std::thread::sleep(backoff);
                backoff *= 2;
            }
            other => return other,
        }
    }
}

#[cfg(unix)]
fn set_int_opt(fd: RawFd, opt: libc::c_int, value: libc::c_int) -> io::Result<()> {
    let rc = unsafe {
        libc::setsockopt(
            fd,
            libc::SOL_SOCKET,
            opt,
            &value as *const _ as *const libc::c_void,
            std::mem::size_of::<libc::c_int>() as libc::socklen_t,
        )
    };
    if rc < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(())
    }
}

#[cfg(unix)]
fn get_int_opt(fd: RawFd, opt: libc::c_int) -> io::Result<libc::c_int> {
    let mut value: libc::c_int = 0;
    let mut len = std::mem::size_of::<libc::c_int>() as libc::socklen_t;
    let rc = unsafe {
        libc::getsockopt(
            fd,
            libc::SOL_SOCKET,
            opt,
            &mut value as *mut _ as *mut libc::c_void,
            &mut len,
        )
    };
    if rc < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(value)
    }
}

#[cfg(unix)]
fn set_multicast_if(sock: &UdpSocket, interface: Ipv4Addr) -> io::Result<()> {
    let addr = libc::in_addr {
        s_addr: u32::from_ne_bytes(interface.octets()),
    };
    let rc = unsafe {
        libc::setsockopt(
            sock.as_raw_fd(),
            libc::IPPROTO_IP,
            libc::IP_MULTICAST_IF,
            &addr as *const _ as *const libc::c_void,
            std::mem::size_of::<libc::in_addr>() as libc::socklen_t,
        )
    };
    if rc < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    const LO: Ipv4Addr = Ipv4Addr::new(127, 0, 0, 1);

    fn group(port: u16) -> SocketAddrV4 {
        SocketAddrV4::new(Ipv4Addr::new(239, 255, 77, 7), port)
    }

    #[test]
    fn transient_send_errors_are_retried_then_succeed() {
        let mut attempts = 0;
        let r = send_retrying(|| {
            attempts += 1;
            if attempts <= 2 {
                Err(io::Error::from(io::ErrorKind::WouldBlock))
            } else {
                Ok(42)
            }
        });
        assert_eq!(r.unwrap(), 42);
        assert_eq!(attempts, 3);
    }

    #[test]
    fn persistent_and_fatal_send_errors_surface() {
        // A persistent transient error gives up after the retry budget.
        let mut attempts = 0;
        let r = send_retrying(|| {
            attempts += 1;
            Err::<usize, _>(io::Error::from_raw_os_error(ENOBUFS))
        });
        assert!(r.is_err());
        assert_eq!(attempts, 1 + SEND_RETRIES);
        // A non-transient error is never retried.
        let mut attempts = 0;
        let r = send_retrying(|| {
            attempts += 1;
            Err::<usize, _>(io::Error::from(io::ErrorKind::PermissionDenied))
        });
        assert_eq!(r.unwrap_err().kind(), io::ErrorKind::PermissionDenied);
        assert_eq!(attempts, 1);
    }

    #[test]
    fn multicast_reaches_two_receivers_on_one_port() {
        let g = group(46001);
        let rx1 = McastSocket::receiver(g, LO).expect("rx1");
        let rx2 = McastSocket::receiver(g, LO).expect("rx2");
        let tx = McastSocket::sender(g, LO).expect("tx");
        rx1.set_read_timeout(Duration::from_secs(2)).unwrap();
        rx2.set_read_timeout(Duration::from_secs(2)).unwrap();
        tx.send_multicast(b"both-of-you").unwrap();
        let mut buf = [0u8; 64];
        let (n1, _) = rx1.recv_from(&mut buf).expect("rx1 recv");
        assert_eq!(&buf[..n1], b"both-of-you");
        let (n2, _) = rx2.recv_from(&mut buf).expect("rx2 recv");
        assert_eq!(&buf[..n2], b"both-of-you");
    }

    #[test]
    fn batched_send_and_receive_roundtrip() {
        let g = group(46003);
        let rx = McastSocket::receiver(g, LO).expect("rx");
        let tx = McastSocket::sender(g, LO).expect("tx");
        // Three datagrams in one sendmmsg, drained by one recvmmsg.
        let bufs: Vec<Vec<u8>> = vec![b"alpha".to_vec(), b"beta".to_vec(), b"gamma".to_vec()];
        let dsts: Vec<SocketAddr> = vec![SocketAddr::V4(g); 3];
        let sent = tx.send_batch(&bufs, &dsts).expect("send_batch");
        assert_eq!(sent, 3);
        std::thread::sleep(Duration::from_millis(50));
        rx.set_nonblocking(true).unwrap();
        let mut batch = RxBatch::new();
        let n = batch.recv(&rx).expect("recvmmsg");
        assert_eq!(n, 3, "one syscall drains the whole burst");
        let (payload, from) = batch.datagram(0);
        assert_eq!(payload, b"alpha");
        assert_eq!(from.port(), tx.local_addr().unwrap().port());
        let (payload, _) = batch.datagram(2);
        assert_eq!(payload, b"gamma");
        // Drained: the nonblocking socket now reports WouldBlock.
        let e = batch.recv(&rx).expect_err("queue must be empty");
        assert_eq!(e.kind(), io::ErrorKind::WouldBlock);
    }

    #[test]
    fn rxq_ovfl_counts_what_a_tiny_buffer_dropped() {
        const N: usize = 64;
        let g = group(46005);
        let rx = McastSocket::receiver(g, LO).expect("rx");
        let tx = McastSocket::sender(g, LO).expect("tx");
        // Far below any rmem_max: granted in full (the kernel raises it
        // to its minimum), yet a few 1 KB datagrams fill it.
        let grant = rx.prepare(4096, 4096).expect("prepare");
        assert!(grant.rcvbuf >= 4096, "{grant:?}");
        assert!(!grant.rcvbuf_clamped(), "{grant:?}");
        rx.set_nonblocking(true).unwrap();
        for _ in 0..N {
            tx.send_multicast(&[0xa5; 1000]).expect("send");
        }
        std::thread::sleep(Duration::from_millis(50));
        // Datagrams queued, and the newest drop count they carried.
        let drain = || {
            let mut batch = RxBatch::new();
            let (mut got, mut drops) = (0, None);
            loop {
                match batch.recv(&rx) {
                    Ok(n) => {
                        got += n;
                        drops = batch.kernel_drops().or(drops);
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => return (got, drops),
                    Err(e) => panic!("recvmmsg: {e}"),
                }
            }
        };
        let (m, _) = drain();
        assert!(
            m > 0 && m < N,
            "the tiny buffer must keep some, drop some: {m}"
        );
        // The kernel stamps the count when it queues a datagram, so the
        // first one queued after the overflow carries all N - M drops.
        tx.send_multicast(b"probe").expect("send probe");
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(drain(), (1, Some((N - m) as u32)));
    }

    #[test]
    fn prepare_reads_back_the_granted_buffers() {
        const WANT: usize = 512 * 1024;
        let g = group(46006);
        let rx = McastSocket::receiver(g, LO).expect("rx");
        let grant = rx.prepare(WANT, WANT).expect("prepare");
        assert_eq!(grant.rcvbuf_requested, WANT);
        assert_eq!(grant.sndbuf_requested, WANT);
        let rmem_max: Option<usize> = std::fs::read_to_string("/proc/sys/net/core/rmem_max")
            .ok()
            .and_then(|s| s.trim().parse().ok());
        match rmem_max {
            Some(max) if max >= WANT => {
                assert!(grant.rcvbuf >= WANT, "{grant:?}");
                assert!(!grant.rcvbuf_clamped(), "{grant:?}");
            }
            // The clamp must show in the read-back, never pass silently.
            Some(max) => {
                assert!(grant.rcvbuf_clamped(), "rmem_max {max}: {grant:?}");
            }
            None => eprintln!("no /proc/sys/net/core/rmem_max: read-back unchecked"),
        }
    }

    #[test]
    fn send_batch_rejects_ipv6_destination() {
        let g = group(46004);
        let tx = McastSocket::sender(g, LO).expect("tx");
        let v6: SocketAddr = "[::1]:9".parse().unwrap();
        let e = tx
            .send_batch(&[b"x".to_vec()], &[v6])
            .expect_err("IPv6 dest on AF_INET socket");
        assert_eq!(e.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn unicast_reply_path() {
        let g = group(46002);
        let rx = McastSocket::receiver(g, LO).expect("rx");
        let tx = McastSocket::sender(g, LO).expect("tx");
        rx.set_read_timeout(Duration::from_secs(2)).unwrap();
        tx.set_read_timeout(Duration::from_secs(2)).unwrap();
        tx.send_multicast(b"ping").unwrap();
        let mut buf = [0u8; 64];
        let (_, sender_addr) = rx.recv_from(&mut buf).expect("rx recv");
        rx.send_unicast(b"pong", sender_addr).unwrap();
        let (n, _) = tx.recv_from(&mut buf).expect("tx recv reply");
        assert_eq!(&buf[..n], b"pong");
    }
}
