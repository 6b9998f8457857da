//! The reactor's datapath: `epoll_wait` readiness on nonblocking
//! sockets, `recvmmsg` to drain and `sendmmsg` to flush.

use std::io;
use std::net::SocketAddr;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use super::Datapath;
use crate::reactor::{StatsCells, KICK_TOKEN};
use crate::socket::{McastSocket, RxBatch};

/// Events drained per `epoll_wait` (the historical reactor batch size).
const EVENTS: usize = 64;

pub(crate) struct EpollDatapath {
    epfd: i32,
    events: [libc::epoll_event; EVENTS],
    stats: Arc<StatsCells>,
}

impl EpollDatapath {
    /// Create the epoll set and register the kick eventfd under
    /// [`KICK_TOKEN`].
    pub(crate) fn new(wakefd: i32, stats: Arc<StatsCells>) -> io::Result<EpollDatapath> {
        let epfd = unsafe { libc::epoll_create1(libc::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        let mut dp = EpollDatapath {
            epfd,
            events: [libc::epoll_event { events: 0, u64: 0 }; EVENTS],
            stats,
        };
        dp.register(wakefd, KICK_TOKEN)?;
        Ok(dp)
    }

    fn epoll_ctl(&self, op: i32, fd: i32, token: u64) -> io::Result<()> {
        let mut ev = libc::epoll_event {
            events: libc::EPOLLIN,
            u64: token,
        };
        let rc = unsafe { libc::epoll_ctl(self.epfd, op, fd, &mut ev) };
        if rc < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(())
        }
    }
}

impl Drop for EpollDatapath {
    fn drop(&mut self) {
        unsafe {
            libc::close(self.epfd);
        }
    }
}

impl Datapath for EpollDatapath {
    fn register(&mut self, fd: i32, token: u64) -> io::Result<()> {
        self.epoll_ctl(libc::EPOLL_CTL_ADD, fd, token)
    }

    fn deregister(&mut self, fd: i32) {
        // A socket that failed may already have left the set; DEL's
        // error then says nothing useful — ignore it.
        let _ = self.epoll_ctl(libc::EPOLL_CTL_DEL, fd, 0);
    }

    fn wait(&mut self, timeout_ms: i32, ready: &mut Vec<u64>) -> io::Result<()> {
        ready.clear();
        let n = unsafe {
            libc::epoll_wait(
                self.epfd,
                self.events.as_mut_ptr(),
                EVENTS as i32,
                timeout_ms,
            )
        };
        if n < 0 {
            return Err(io::Error::last_os_error());
        }
        for ev in &self.events[..n as usize] {
            ready.push(ev.u64);
        }
        Ok(())
    }

    fn recv_batch(&mut self, sock: &McastSocket, rx: &mut RxBatch) -> io::Result<usize> {
        // `recvmmsg` on an empty nonblocking socket is WouldBlock and
        // is deliberately not counted: the historical counter recorded
        // only calls that moved data, and the bench baseline pins the
        // resulting ratio.
        let n = rx.recv(sock)?;
        self.stats.recvmmsg_calls.fetch_add(1, Ordering::Relaxed);
        Ok(n)
    }

    fn send_batch(
        &mut self,
        sock: &McastSocket,
        bufs: &[Vec<u8>],
        dsts: &[SocketAddr],
    ) -> io::Result<usize> {
        // Counted before the verdict: a transiently failing `sendmmsg`
        // still crossed the kernel boundary, and the retry loop above
        // will cross it again — each attempt is a real syscall, so each
        // attempt counts (the old success-only counter under-reported
        // the ratio exactly on the lossy runs where it mattered).
        self.stats.sendmmsg_calls.fetch_add(1, Ordering::Relaxed);
        sock.send_batch(bufs, dsts)
    }
}
