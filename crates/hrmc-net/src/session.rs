//! The unified session builder: one construction path for both
//! endpoint roles, replacing the `HrmcSender::bind` / `HrmcReceiver::join`
//! pair and the racy post-bind `set_observer` / `attach_flight_recorder`
//! calls. Everything a session needs — interface, protocol config,
//! observers, flight recorder, reactor — is declared *before* `bind()`,
//! so the engine is fully instrumented before the reactor can deliver
//! its first packet or tick.
//!
//! ```no_run
//! use hrmc_net::Session;
//! use std::net::SocketAddrV4;
//!
//! let group: SocketAddrV4 = "239.255.1.1:45000".parse().unwrap();
//! let tx = Session::sender(group).bind().unwrap();
//! let rx = Session::receiver(group).flight_recorder(4096).bind().unwrap();
//! tx.send(b"hello, group").unwrap();
//! # let _ = rx;
//! ```

use std::net::{Ipv4Addr, SocketAddrV4};

use hrmc_core::{MultiObserver, ProtocolConfig, ProtocolObserver, SharedRecorder};

use crate::pool::ReactorPool;
use crate::reactor::Reactor;
use crate::receiver::{self, ReceiverHandle};
use crate::sender::{self, SenderHandle};
use crate::NetError;

/// Entry point for building H-RMC endpoints.
pub struct Session;

impl Session {
    /// Start building a sending endpoint for `group`.
    pub fn sender(group: SocketAddrV4) -> SenderBuilder {
        SenderBuilder {
            common: Common::new(group),
        }
    }

    /// Start building a receiving endpoint for `group`.
    pub fn receiver(group: SocketAddrV4) -> ReceiverBuilder {
        ReceiverBuilder {
            common: Common::new(group),
        }
    }
}

/// Builder state shared by both roles.
struct Common {
    group: SocketAddrV4,
    interface: Ipv4Addr,
    config: ProtocolConfig,
    observers: Vec<Box<dyn ProtocolObserver>>,
    flight_capacity: Option<usize>,
    reactor: Option<Reactor>,
    pool: Option<ReactorPool>,
    reactor_threads: Option<usize>,
}

impl Common {
    fn new(group: SocketAddrV4) -> Common {
        Common {
            group,
            interface: Ipv4Addr::UNSPECIFIED,
            config: ProtocolConfig::hrmc(),
            observers: Vec::new(),
            flight_capacity: None,
            reactor: None,
            pool: None,
            reactor_threads: None,
        }
    }

    /// Resolve the reactor, the flight recorder, and the composed
    /// observer stack (user observers first, recorder last).
    ///
    /// Reactor resolution, most specific first: an explicit
    /// [`Reactor`], the group's shard of an explicit [`ReactorPool`],
    /// the shared pool of the requested `reactor_threads` width, the
    /// process-wide [`Reactor::global`].
    fn finish(self, flight_label: &str) -> Result<Resolved, NetError> {
        let group = self.group;
        let reactor = match (self.reactor, self.pool, self.reactor_threads) {
            (Some(r), _, _) => r,
            (None, Some(pool), _) => pool.shard_for(group).clone(),
            (None, None, Some(n)) => ReactorPool::shared(n)?.shard_for(group).clone(),
            (None, None, None) => Reactor::global(),
        };
        let flight = self
            .flight_capacity
            .map(|cap| SharedRecorder::new(cap).with_label(flight_label));
        let mut stack: Vec<Box<dyn ProtocolObserver>> = self.observers;
        if let Some(rec) = &flight {
            stack.push(Box::new(rec.clone()));
        }
        let observer: Option<Box<dyn ProtocolObserver>> = match stack.len() {
            0 => None,
            1 => stack.pop(),
            _ => {
                let mut multi = MultiObserver::new();
                for obs in stack {
                    multi.push(obs);
                }
                Some(Box::new(multi))
            }
        };
        Ok(Resolved {
            group,
            interface: self.interface,
            config: self.config,
            observer,
            flight,
            reactor,
        })
    }
}

struct Resolved {
    group: SocketAddrV4,
    interface: Ipv4Addr,
    config: ProtocolConfig,
    observer: Option<Box<dyn ProtocolObserver>>,
    flight: Option<SharedRecorder>,
    reactor: Reactor,
}

macro_rules! builder_options {
    ($Builder:ident, $Handle:ident) => {
        impl $Builder {
            /// Local interface to use (default: `0.0.0.0`, the kernel's
            /// choice — loopback setups pass `127.0.0.1`).
            pub fn interface(mut self, interface: Ipv4Addr) -> Self {
                self.common.interface = interface;
                self
            }

            /// Protocol configuration (default: [`ProtocolConfig::hrmc`]).
            pub fn config(mut self, config: ProtocolConfig) -> Self {
                self.common.config = config;
                self
            }

            /// Add a protocol observer. May be called repeatedly; all
            /// observers (plus the flight recorder, if any) see every
            /// event from the session's very first packet — installed
            /// before the reactor learns the session exists.
            pub fn observer(mut self, observer: Box<dyn ProtocolObserver>) -> Self {
                self.common.observers.push(observer);
                self
            }

            /// Attach a bounded flight recorder keeping the last
            /// `capacity` protocol events; retrieve it from the handle
            /// via its `flight_recorder()` accessor.
            pub fn flight_recorder(mut self, capacity: usize) -> Self {
                self.common.flight_capacity = Some(capacity);
                self
            }

            /// Drive the session from a specific reactor instead of the
            /// process-wide [`Reactor::global`] — useful to shard very
            /// large session counts across threads, or to isolate tests.
            /// Takes precedence over [`Self::reactor_pool`] and
            /// [`Self::reactor_threads`].
            pub fn reactor(mut self, reactor: Reactor) -> Self {
                self.common.reactor = Some(reactor);
                self
            }

            /// Drive the session from this pool: the session lands on
            /// the shard its multicast group hashes to
            /// ([`crate::ReactorPool::shard_for`]).
            pub fn reactor_pool(mut self, pool: &crate::ReactorPool) -> Self {
                self.common.pool = Some(pool.clone());
                self
            }

            /// Drive the session from the process-wide shared pool of
            /// `n` reactor threads ([`crate::ReactorPool::shared`]) —
            /// sessions for distinct groups spread across cores while
            /// every endpoint of one group shares a shard.
            pub fn reactor_threads(mut self, n: usize) -> Self {
                self.common.reactor_threads = Some(n);
                self
            }

            /// Feed this session's protocol events into a running
            /// [`crate::Telemetry`] pipeline (shorthand for
            /// `.observer(telemetry.observer())`).
            pub fn telemetry(mut self, telemetry: &crate::Telemetry) -> Self {
                self.common.observers.push(telemetry.observer());
                self
            }
        }
    };
}

/// Builds a sending endpoint ([`Session::sender`]).
pub struct SenderBuilder {
    common: Common,
}

builder_options!(SenderBuilder, SenderHandle);

impl SenderBuilder {
    /// Bind the sender ("binds to a local port, connects to a known
    /// multicast address and port number") and register it with the
    /// reactor.
    pub fn bind(self) -> Result<SenderHandle, NetError> {
        let r = self.common.finish("sender")?;
        sender::bind_with(
            r.group,
            r.interface,
            r.config,
            r.observer,
            r.flight,
            r.reactor,
        )
    }
}

/// Builds a receiving endpoint ([`Session::receiver`]).
pub struct ReceiverBuilder {
    common: Common,
}

builder_options!(ReceiverBuilder, ReceiverHandle);

impl ReceiverBuilder {
    /// Join the multicast group ("the receiving application uses
    /// setsockopt to join the multicast group") and register the session
    /// with the reactor.
    pub fn bind(self) -> Result<ReceiverHandle, NetError> {
        let r = self.common.finish("recv")?;
        receiver::join_with(
            r.group,
            r.interface,
            r.config,
            r.observer,
            r.flight,
            r.reactor,
        )
    }
}
