//! Host-side measurement: process CPU and peak RSS from
//! `getrusage(RUSAGE_SELF)` (microsecond CPU, all threads), the kernel's
//! UDP receive-buffer drop counter, and the seeded input generator.

use std::net::{Ipv4Addr, SocketAddrV4};

/// `struct timeval` as Linux lays it out on 64-bit targets.
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` (Linux, 64-bit): two timevals and fourteen longs.
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    /// `ru_maxrss`, kilobytes; the other thirteen longs follow it.
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_THREAD: i32 = 1;

/// A snapshot of this process's resource usage.
#[derive(Clone, Copy, Debug, Default)]
pub struct Usage {
    /// User CPU over all threads, microseconds.
    pub user_us: u64,
    /// Kernel CPU over all threads, microseconds.
    pub sys_us: u64,
    /// Peak resident set size so far, kilobytes.
    pub maxrss_kb: u64,
}

impl Usage {
    /// Read `getrusage(RUSAGE_SELF)`: the whole process.
    pub fn now() -> Usage {
        Usage::read(RUSAGE_SELF)
    }

    /// Read `getrusage(RUSAGE_THREAD)`: the calling thread only.
    pub fn thread_now() -> Usage {
        Usage::read(RUSAGE_THREAD)
    }

    fn read(who: i32) -> Usage {
        let mut ru = Rusage::default();
        // SAFETY: `ru` is a live, writable `struct rusage` with the
        // kernel's 64-bit layout (144 bytes, checked by a test), and
        // `who` is RUSAGE_SELF or RUSAGE_THREAD, both valid on Linux.
        let rc = unsafe { getrusage(who, &mut ru) };
        assert_eq!(rc, 0, "getrusage({who}) cannot fail for a valid who");
        let us = |t: Timeval| (t.sec as u64) * 1_000_000 + t.usec as u64;
        Usage {
            user_us: us(ru.utime),
            sys_us: us(ru.stime),
            maxrss_kb: ru.maxrss_kb as u64,
        }
    }

    /// CPU (user, sys) spent since `earlier`, microseconds.
    pub fn cpu_since(&self, earlier: &Usage) -> (u64, u64) {
        (self.user_us - earlier.user_us, self.sys_us - earlier.sys_us)
    }
}

/// The host-wide `Udp: RcvbufErrors` count from `/proc/net/snmp`: UDP
/// datagrams the kernel dropped because a socket's receive buffer was
/// full. `None` where the file or field is missing.
pub fn udp_rcvbuf_errors() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/net/snmp").ok()?;
    let mut udp = text.lines().filter(|l| l.starts_with("Udp:"));
    let header = udp.next()?;
    let values = udp.next()?;
    let col = header
        .split_whitespace()
        .position(|h| h == "RcvbufErrors")?;
    values.split_whitespace().nth(col)?.parse().ok()
}

/// SplitMix64: the seed expander for every generated input.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The seed of iteration `i` of a run seeded with `seed`.
pub fn iteration_seed(seed: u64, i: u64) -> u64 {
    mix(seed ^ mix(i))
}

/// `len` pseudo-random bytes determined by `seed`.
pub fn payload(seed: u64, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len + 8);
    let mut state = seed;
    while out.len() < len {
        state = mix(state);
        out.extend_from_slice(&state.to_le_bytes());
    }
    out.truncate(len);
    out
}

/// A multicast group and port for one live iteration. Derived from the
/// run seed, the process id and the iteration, so concurrent or
/// back-to-back runs never share a group (no cross-talk between runs).
pub fn group_for(seed: u64, i: u64) -> SocketAddrV4 {
    let h = mix(iteration_seed(seed, i) ^ u64::from(std::process::id()).rotate_left(32));
    let b = h.to_le_bytes();
    // 239.255.0.0/16 is the site-local administratively scoped range;
    // avoid .0 and .255 in the last octet.
    let ip = Ipv4Addr::new(239, 255, b[0], 1 + b[1] % 254);
    let port = 20_000 + (u16::from_le_bytes([b[2], b[3]]) % 40_000);
    SocketAddrV4::new(ip, port)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rusage_layout_matches_the_kernel() {
        assert_eq!(std::mem::size_of::<Rusage>(), 144);
        let a = Usage::now();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(mix(i)));
        }
        let b = Usage::now();
        let (user, sys) = b.cpu_since(&a);
        assert!(user + sys > 0, "busy loop must show CPU");
        assert!(b.maxrss_kb > 0);
    }

    #[test]
    fn inputs_follow_the_seed() {
        assert_eq!(payload(7, 1000), payload(7, 1000));
        assert_ne!(payload(7, 1000), payload(8, 1000));
        assert_eq!(payload(7, 13).len(), 13);
        assert_ne!(iteration_seed(1, 0), iteration_seed(1, 1));
        assert_ne!(group_for(1, 0), group_for(1, 1));
        assert!(group_for(3, 9).ip().is_multicast());
    }
}
