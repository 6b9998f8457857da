//! Minimal in-tree stand-in for the `libc` crate on Linux.
//!
//! Declares exactly the C types, constants, and functions
//! `hrmc-net` uses: multicast socket setup and kernel buffer sizing
//! (`hrmc-net::socket`, including the `SO_RXQ_OVFL` control message
//! each received datagram carries), the shared reactor's event loop
//! (`hrmc-net::reactor` — epoll, eventfd, and the batched
//! `recvmmsg`/`sendmmsg` datagram syscalls).
//! Constant values are the Linux userspace ABI values (identical on
//! x86-64 and aarch64).

#![allow(non_camel_case_types)]
#![allow(non_snake_case)] // CMSG_* helpers match libc's (C macro) names

pub type c_int = i32;
pub type c_uint = u32;
pub type c_long = i64;
pub type c_void = std::ffi::c_void;
pub type size_t = usize;
pub type ssize_t = isize;
pub type socklen_t = u32;
pub type sa_family_t = u16;
pub type in_addr_t = u32;
pub type in_port_t = u16;
pub type time_t = i64;

pub const AF_INET: c_int = 2;
pub const SOCK_DGRAM: c_int = 2;
pub const SOL_SOCKET: c_int = 1;
pub const SO_REUSEADDR: c_int = 2;
pub const SO_REUSEPORT: c_int = 15;
pub const SO_SNDBUF: c_int = 7;
pub const SO_RCVBUF: c_int = 8;
pub const SO_RXQ_OVFL: c_int = 40;
pub const IPPROTO_IP: c_int = 0;
pub const IP_MULTICAST_IF: c_int = 32;

pub const EPOLL_CLOEXEC: c_int = 0o2000000;
pub const EPOLL_CTL_ADD: c_int = 1;
pub const EPOLL_CTL_DEL: c_int = 2;
pub const EPOLL_CTL_MOD: c_int = 3;
pub const EPOLLIN: u32 = 0x001;
pub const EPOLLERR: u32 = 0x008;
pub const EPOLLHUP: u32 = 0x010;

pub const EFD_CLOEXEC: c_int = 0o2000000;
pub const EFD_NONBLOCK: c_int = 0o4000;

/// IPv4 address in network byte order.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct in_addr {
    pub s_addr: in_addr_t,
}

/// IPv4 socket address (matches the kernel's `struct sockaddr_in`).
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct sockaddr_in {
    pub sin_family: sa_family_t,
    pub sin_port: in_port_t,
    pub sin_addr: in_addr,
    pub sin_zero: [u8; 8],
}

/// Opaque generic socket address.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct sockaddr {
    pub sa_family: sa_family_t,
    pub sa_data: [u8; 14],
}

/// Scatter/gather element (`struct iovec`).
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct iovec {
    pub iov_base: *mut c_void,
    pub iov_len: size_t,
}

/// Message header for `sendmsg`/`recvmsg` families (`struct msghdr`,
/// 64-bit Linux layout — `repr(C)` inserts the kernel's padding).
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct msghdr {
    pub msg_name: *mut c_void,
    pub msg_namelen: socklen_t,
    pub msg_iov: *mut iovec,
    pub msg_iovlen: size_t,
    pub msg_control: *mut c_void,
    pub msg_controllen: size_t,
    pub msg_flags: c_int,
}

/// Ancillary-data header (`struct cmsghdr`, 64-bit Linux layout); the
/// payload follows at [`CMSG_DATA`].
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct cmsghdr {
    pub cmsg_len: size_t,
    pub cmsg_level: c_int,
    pub cmsg_type: c_int,
}

const fn cmsg_align(len: usize) -> usize {
    let a = std::mem::size_of::<size_t>();
    (len + a - 1) & !(a - 1)
}

/// Control-buffer bytes one ancillary item of `length` payload bytes
/// occupies, padding included.
pub const fn CMSG_SPACE(length: c_uint) -> c_uint {
    (cmsg_align(length as usize) + cmsg_align(std::mem::size_of::<cmsghdr>())) as c_uint
}

/// First ancillary item of a received message, or null when it has none.
///
/// # Safety
/// `mhdr` must point to a valid `msghdr` whose control fields describe a
/// live buffer.
pub unsafe fn CMSG_FIRSTHDR(mhdr: *const msghdr) -> *mut cmsghdr {
    if (*mhdr).msg_controllen >= std::mem::size_of::<cmsghdr>() {
        (*mhdr).msg_control as *mut cmsghdr
    } else {
        std::ptr::null_mut()
    }
}

/// The ancillary item after `cmsg`, or null at the end of the buffer.
///
/// # Safety
/// `cmsg` must come from [`CMSG_FIRSTHDR`]/`CMSG_NXTHDR` on `mhdr`.
pub unsafe fn CMSG_NXTHDR(mhdr: *const msghdr, cmsg: *const cmsghdr) -> *mut cmsghdr {
    if (*cmsg).cmsg_len < std::mem::size_of::<cmsghdr>() {
        return std::ptr::null_mut();
    }
    let next = (cmsg as usize + cmsg_align((*cmsg).cmsg_len)) as *mut cmsghdr;
    let end = (*mhdr).msg_control as usize + (*mhdr).msg_controllen;
    if (next as usize) + std::mem::size_of::<cmsghdr>() > end
        || (next as usize) + cmsg_align((*next).cmsg_len) > end
    {
        std::ptr::null_mut()
    } else {
        next
    }
}

/// Payload of an ancillary item.
///
/// # Safety
/// `cmsg` must point into a live control buffer.
pub unsafe fn CMSG_DATA(cmsg: *const cmsghdr) -> *mut u8 {
    (cmsg as *mut u8).add(cmsg_align(std::mem::size_of::<cmsghdr>()))
}

/// One slot of a `recvmmsg`/`sendmmsg` vector (`struct mmsghdr`).
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct mmsghdr {
    pub msg_hdr: msghdr,
    pub msg_len: c_uint,
}

/// Nanosecond timeout (`struct timespec`, 64-bit Linux).
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct timespec {
    pub tv_sec: time_t,
    pub tv_nsec: c_long,
}

/// One `epoll_wait` event. The kernel reads/writes this packed on
/// x86-64 (the historic 32-bit layout); other architectures use natural
/// alignment — mirror the real `libc` crate's cfg.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Debug, Clone, Copy)]
pub struct epoll_event {
    pub events: u32,
    pub u64: u64,
}

extern "C" {
    pub fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
    pub fn bind(sockfd: c_int, addr: *const sockaddr, addrlen: socklen_t) -> c_int;
    pub fn setsockopt(
        sockfd: c_int,
        level: c_int,
        optname: c_int,
        optval: *const c_void,
        optlen: socklen_t,
    ) -> c_int;
    pub fn getsockopt(
        sockfd: c_int,
        level: c_int,
        optname: c_int,
        optval: *mut c_void,
        optlen: *mut socklen_t,
    ) -> c_int;
    pub fn close(fd: c_int) -> c_int;
    pub fn read(fd: c_int, buf: *mut c_void, count: size_t) -> ssize_t;
    pub fn write(fd: c_int, buf: *const c_void, count: size_t) -> ssize_t;

    pub fn epoll_create1(flags: c_int) -> c_int;
    pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut epoll_event) -> c_int;
    pub fn epoll_wait(
        epfd: c_int,
        events: *mut epoll_event,
        maxevents: c_int,
        timeout: c_int,
    ) -> c_int;
    pub fn eventfd(initval: c_uint, flags: c_int) -> c_int;

    pub fn recvmmsg(
        sockfd: c_int,
        msgvec: *mut mmsghdr,
        vlen: c_uint,
        flags: c_int,
        timeout: *mut timespec,
    ) -> c_int;
    pub fn sendmmsg(sockfd: c_int, msgvec: *mut mmsghdr, vlen: c_uint, flags: c_int) -> c_int;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn socket_roundtrip() {
        unsafe {
            let fd = socket(AF_INET, SOCK_DGRAM, 0);
            assert!(fd >= 0, "socket() failed");
            let one: c_int = 1;
            let rc = setsockopt(
                fd,
                SOL_SOCKET,
                SO_REUSEADDR,
                &one as *const _ as *const c_void,
                std::mem::size_of::<c_int>() as socklen_t,
            );
            assert_eq!(
                rc,
                0,
                "setsockopt failed: {:?}",
                std::io::Error::last_os_error()
            );
            assert_eq!(close(fd), 0);
        }
    }

    #[test]
    fn sockaddr_in_layout() {
        assert_eq!(std::mem::size_of::<sockaddr_in>(), 16);
        assert_eq!(std::mem::size_of::<sockaddr>(), 16);
    }

    #[test]
    fn msghdr_layout_matches_64_bit_linux() {
        assert_eq!(std::mem::size_of::<iovec>(), 16);
        assert_eq!(std::mem::size_of::<msghdr>(), 56);
        // mmsghdr pads msg_len out to pointer alignment.
        assert_eq!(std::mem::size_of::<mmsghdr>(), 64);
        assert_eq!(std::mem::size_of::<timespec>(), 16);
    }

    #[test]
    fn cmsghdr_layout_matches_64_bit_linux() {
        assert_eq!(std::mem::size_of::<cmsghdr>(), 16);
        // One u32 item (the SO_RXQ_OVFL drop count): 16-byte header,
        // 4-byte payload, padded to 8.
        assert_eq!(CMSG_SPACE(4), 24);
        assert_eq!(CMSG_SPACE(8), 24);
        let hdr = cmsghdr {
            cmsg_len: 0,
            cmsg_level: 0,
            cmsg_type: 0,
        };
        assert_eq!(
            unsafe { CMSG_DATA(&hdr) } as usize - &hdr as *const _ as usize,
            16
        );
    }

    #[test]
    fn buffer_sizes_read_back_through_getsockopt() {
        unsafe {
            let fd = socket(AF_INET, SOCK_DGRAM, 0);
            assert!(fd >= 0, "socket() failed");
            for opt in [SO_RCVBUF, SO_SNDBUF] {
                // 8 KiB is far below any rmem_max/wmem_max, so Linux
                // grants it in full and reports it doubled.
                let want: c_int = 8192;
                let rc = setsockopt(
                    fd,
                    SOL_SOCKET,
                    opt,
                    &want as *const _ as *const c_void,
                    std::mem::size_of::<c_int>() as socklen_t,
                );
                assert_eq!(rc, 0, "setsockopt: {:?}", std::io::Error::last_os_error());
                let mut got: c_int = 0;
                let mut len = std::mem::size_of::<c_int>() as socklen_t;
                let rc = getsockopt(
                    fd,
                    SOL_SOCKET,
                    opt,
                    &mut got as *mut _ as *mut c_void,
                    &mut len,
                );
                assert_eq!(rc, 0, "getsockopt: {:?}", std::io::Error::last_os_error());
                assert_eq!(len as usize, std::mem::size_of::<c_int>());
                assert_eq!(got, 2 * want);
            }
            let one: c_int = 1;
            let rc = setsockopt(
                fd,
                SOL_SOCKET,
                SO_RXQ_OVFL,
                &one as *const _ as *const c_void,
                std::mem::size_of::<c_int>() as socklen_t,
            );
            assert_eq!(rc, 0, "SO_RXQ_OVFL: {:?}", std::io::Error::last_os_error());
            assert_eq!(close(fd), 0);
        }
    }

    #[test]
    fn epoll_event_layout() {
        let expect = if cfg!(target_arch = "x86_64") { 12 } else { 16 };
        assert_eq!(std::mem::size_of::<epoll_event>(), expect);
    }

    #[test]
    fn epoll_eventfd_roundtrip() {
        unsafe {
            let ep = epoll_create1(EPOLL_CLOEXEC);
            assert!(ep >= 0, "epoll_create1 failed");
            let ev = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
            assert!(ev >= 0, "eventfd failed");
            let mut reg = epoll_event {
                events: EPOLLIN,
                u64: 7,
            };
            assert_eq!(epoll_ctl(ep, EPOLL_CTL_ADD, ev, &mut reg), 0);
            // Nothing written yet: wait with a zero timeout sees nothing.
            let mut out = [epoll_event { events: 0, u64: 0 }; 4];
            assert_eq!(epoll_wait(ep, out.as_mut_ptr(), 4, 0), 0);
            // Write the counter; the event becomes readable with our token.
            let one: u64 = 1;
            assert_eq!(
                write(ev, &one as *const u64 as *const c_void, 8),
                8,
                "eventfd write"
            );
            let n = epoll_wait(ep, out.as_mut_ptr(), 4, 1000);
            assert_eq!(n, 1);
            let token = out[0].u64;
            assert_eq!(token, 7);
            let mut drained: u64 = 0;
            assert_eq!(read(ev, &mut drained as *mut u64 as *mut c_void, 8), 8);
            assert_eq!(drained, 1);
            assert_eq!(close(ev), 0);
            assert_eq!(close(ep), 0);
        }
    }

    #[test]
    fn recvmmsg_batches_queued_datagrams() {
        use std::net::UdpSocket;
        let rx = UdpSocket::bind("127.0.0.1:0").expect("bind rx");
        let tx = UdpSocket::bind("127.0.0.1:0").expect("bind tx");
        let dst = rx.local_addr().unwrap();
        for payload in [&b"one"[..], b"two", b"three"] {
            tx.send_to(payload, dst).expect("send");
        }
        // Give loopback a moment to queue all three.
        std::thread::sleep(std::time::Duration::from_millis(50));
        // Nonblocking: a blocking recvmmsg with flags=0 and no timeout
        // would park until every slot fills, and only 3 of 4 ever will.
        // (The reactor runs all its sockets nonblocking for the same
        // reason.)
        rx.set_nonblocking(true).expect("nonblocking");
        use std::os::unix::io::AsRawFd;
        const SLOTS: usize = 4;
        let mut bufs = [[0u8; 32]; SLOTS];
        let mut iovs = [iovec {
            iov_base: std::ptr::null_mut(),
            iov_len: 0,
        }; SLOTS];
        let mut names = [sockaddr_in {
            sin_family: 0,
            sin_port: 0,
            sin_addr: in_addr { s_addr: 0 },
            sin_zero: [0; 8],
        }; SLOTS];
        let mut hdrs = [mmsghdr {
            msg_hdr: msghdr {
                msg_name: std::ptr::null_mut(),
                msg_namelen: 0,
                msg_iov: std::ptr::null_mut(),
                msg_iovlen: 0,
                msg_control: std::ptr::null_mut(),
                msg_controllen: 0,
                msg_flags: 0,
            },
            msg_len: 0,
        }; SLOTS];
        for i in 0..SLOTS {
            iovs[i].iov_base = bufs[i].as_mut_ptr() as *mut c_void;
            iovs[i].iov_len = 32;
            hdrs[i].msg_hdr.msg_name = &mut names[i] as *mut sockaddr_in as *mut c_void;
            hdrs[i].msg_hdr.msg_namelen = std::mem::size_of::<sockaddr_in>() as socklen_t;
            hdrs[i].msg_hdr.msg_iov = &mut iovs[i];
            hdrs[i].msg_hdr.msg_iovlen = 1;
        }
        let n = unsafe {
            recvmmsg(
                rx.as_raw_fd(),
                hdrs.as_mut_ptr(),
                SLOTS as c_uint,
                0,
                std::ptr::null_mut(),
            )
        };
        assert_eq!(n, 3, "all queued datagrams in one call");
        assert_eq!(&bufs[0][..hdrs[0].msg_len as usize], b"one");
        assert_eq!(&bufs[2][..hdrs[2].msg_len as usize], b"three");
        // Source address captured per message.
        let port = u16::from_be(names[0].sin_port);
        assert_eq!(port, tx.local_addr().unwrap().port());
    }
}
