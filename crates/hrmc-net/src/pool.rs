//! Multi-shard reactor pool: N independent [`Reactor`] threads with
//! sessions hash-assigned per shard by multicast group.
//!
//! A single reactor thread caps throughput at one core regardless of
//! session fan-out. The pool keeps the per-reactor model intact — each
//! shard is a full reactor with its own datapath, timer heap, and
//! stats — and adds only the assignment function on top: a session's
//! multicast group FNV-hashes to a shard, so all endpoints of one group
//! in one process share a shard (their loopback traffic stays on one
//! thread) while distinct groups spread across cores.
//!
//! Per-shard [`ReactorStats`] stay visible for debugging;
//! [`ReactorPool::aggregate`] sums the counters and merges the
//! histograms for telemetry and `hrmc top`.

use std::collections::HashMap;
use std::io;
use std::net::SocketAddrV4;
use std::sync::{Arc, OnceLock};

use hrmc_core::{Histogram, MetricsRegistry};
use parking_lot::Mutex;

use crate::reactor::{
    publish_reactor_gauges, publish_session_gauges, Reactor, ReactorConfig, ReactorStats,
    SessionHealth,
};

/// Bits reserved for the session id inside a pool-tagged health id: the
/// shard index lives above them, so per-session ids stay unique across
/// shards in one telemetry dump.
const SHARD_ID_SHIFT: u32 = 32;

/// A fixed-width pool of reactors. Cheap to clone (shards are shared);
/// every shard's thread runs until the last pool handle (and any
/// individual [`Reactor`] clones) drop.
#[derive(Clone)]
pub struct ReactorPool {
    shards: Arc<Vec<Reactor>>,
}

impl ReactorPool {
    /// Spawn `n` reactors (at least one) with default tunables.
    pub fn new(n: usize) -> io::Result<ReactorPool> {
        ReactorPool::with_config(ReactorConfig {
            shards: n,
            ..ReactorConfig::default()
        })
    }

    /// Spawn `config.shards` reactors (at least one), each built with
    /// this config.
    pub fn with_config(config: ReactorConfig) -> io::Result<ReactorPool> {
        let n = config.shards.max(1);
        let mut shards = Vec::with_capacity(n);
        for _ in 0..n {
            shards.push(Reactor::with_config(config.clone())?);
        }
        Ok(ReactorPool {
            shards: Arc::new(shards),
        })
    }

    /// The process-wide pool of `shards` reactor threads — what
    /// `Session::…().reactor_threads(n)` resolves to, so every session
    /// asking for the same width shares one set of reactor threads (and
    /// its shard assignment) instead of spawning a private fleet.
    pub fn shared(shards: usize) -> io::Result<ReactorPool> {
        static POOLS: OnceLock<Mutex<HashMap<usize, ReactorPool>>> = OnceLock::new();
        let shards = shards.max(1);
        let mut pools = POOLS.get_or_init(Mutex::default).lock();
        if let Some(pool) = pools.get(&shards) {
            return Ok(pool.clone());
        }
        let pool = ReactorPool::new(shards)?;
        pools.insert(shards, pool.clone());
        Ok(pool)
    }

    /// Number of shards (reactor threads).
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Shard `i` (panics out of range).
    pub fn shard(&self, i: usize) -> &Reactor {
        &self.shards[i]
    }

    /// The shard a session for `group` is assigned to: FNV-1a over the
    /// group address and port, modulo the pool width. Deterministic, so
    /// every endpoint of one group in one process lands on the same
    /// shard.
    pub fn shard_for(&self, group: SocketAddrV4) -> &Reactor {
        &self.shards[self.shard_index(group)]
    }

    /// The index [`ReactorPool::shard_for`] picks (exposed for tests
    /// and diagnostics).
    pub fn shard_index(&self, group: SocketAddrV4) -> usize {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in group
            .ip()
            .octets()
            .iter()
            .chain(group.port().to_be_bytes().iter())
        {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // FNV alone leaves correlated inputs (addr and port stepping
        // together, the typical group-allocation pattern) correlated
        // mod small shard counts; a murmur-style finalizer avalanches
        // the low bits.
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        (h % self.shards.len() as u64) as usize
    }

    /// Sessions registered across all shards.
    pub fn session_count(&self) -> usize {
        self.shards.iter().map(Reactor::session_count).sum()
    }

    /// Per-shard stats snapshots, in shard order.
    pub fn stats(&self) -> Vec<ReactorStats> {
        self.shards.iter().map(Reactor::stats).collect()
    }

    /// Pool-wide stats: counters summed over shards (including
    /// `sessions_hwm`, so the aggregate is exactly the sum of the
    /// per-shard snapshots), batch/latency figures recomputed from the
    /// merged histograms.
    pub fn aggregate(&self) -> ReactorStats {
        let (rx, tx, loop_us, slip) = self.merged_histograms();
        let mut agg = ReactorStats::default();
        for st in self.stats() {
            agg.sessions += st.sessions;
            agg.sessions_hwm += st.sessions_hwm;
            agg.epoll_wakeups += st.epoll_wakeups;
            agg.timer_fires += st.timer_fires;
            agg.kicks += st.kicks;
            agg.recvmmsg_calls += st.recvmmsg_calls;
            agg.sendmmsg_calls += st.sendmmsg_calls;
            agg.packets_rx += st.packets_rx;
            agg.packets_tx += st.packets_tx;
            agg.tx_retries += st.tx_retries;
            agg.tx_drops += st.tx_drops;
            agg.timer_heap_len += st.timer_heap_len;
            agg.timers_armed += st.timers_armed;
            agg.idle_cap_ms = st.idle_cap_ms;
        }
        agg.rx_batch_mean = rx.mean();
        agg.rx_batch_max = rx.max().unwrap_or(0);
        agg.tx_batch_mean = tx.mean();
        agg.tx_batch_max = tx.max().unwrap_or(0);
        agg.loop_p99_us = loop_us.p99();
        agg.timer_slippage_p99_us = slip.p99();
        agg
    }

    /// Per-session traffic totals across every shard, each id tagged
    /// with its shard (`shard << 32 | id`) so ids stay unique pool-wide.
    pub fn session_health(&self) -> Vec<SessionHealth> {
        let mut out = Vec::new();
        for (shard, r) in self.shards.iter().enumerate() {
            for mut h in r.session_health() {
                h.id |= (shard as u64) << SHARD_ID_SHIFT;
                out.push(h);
            }
        }
        out
    }

    /// Publish pool-wide gauges and merged histograms under the same
    /// `reactor_*` names a single reactor uses — the telemetry endpoint
    /// and `hrmc top` see one logical reactor plus the
    /// `reactor_shards` width.
    pub fn publish_metrics(&self, reg: &mut MetricsRegistry) {
        publish_reactor_gauges(reg, &self.aggregate(), self.shards.len() as u64);
        let (rx, tx, loop_us, slip) = self.merged_histograms();
        reg.set_histogram("reactor_rx_batch", &rx);
        reg.set_histogram("reactor_tx_batch", &tx);
        reg.set_histogram("reactor_loop_us", &loop_us);
        reg.set_histogram("reactor_timer_slippage_us", &slip);
        let mut sessions = Vec::new();
        for r in self.shards.iter() {
            sessions.extend(r.sessions_snapshot());
        }
        publish_session_gauges(reg, &sessions);
    }

    fn merged_histograms(&self) -> (Histogram, Histogram, Histogram, Histogram) {
        let mut rx = Histogram::new();
        let mut tx = Histogram::new();
        let mut loop_us = Histogram::new();
        let mut slip = Histogram::new();
        for r in self.shards.iter() {
            let cells = r.stats_cells();
            rx.merge(&cells.rx_batches.lock());
            tx.merge(&cells.tx_batches.lock());
            loop_us.merge(&cells.loop_us.lock());
            slip.merge(&cells.timer_slippage_us.lock());
        }
        (rx, tx, loop_us, slip)
    }
}

/// A pool of one pre-existing reactor: the aggregation, health-tagging,
/// and gauge-publishing surface over a reactor that already runs — how
/// the telemetry pipeline treats a single reactor and a sharded pool
/// uniformly.
impl From<Reactor> for ReactorPool {
    fn from(reactor: Reactor) -> ReactorPool {
        ReactorPool {
            shards: Arc::new(vec![reactor]),
        }
    }
}

impl std::fmt::Debug for ReactorPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReactorPool")
            .field("shards", &self.shards.len())
            .field("sessions", &self.session_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn group(a: u8, port: u16) -> SocketAddrV4 {
        SocketAddrV4::new(Ipv4Addr::new(239, 255, 80, a), port)
    }

    #[test]
    fn pool_spawns_and_assigns_deterministically() {
        let pool = ReactorPool::new(4).expect("pool");
        assert_eq!(pool.shards(), 4);
        assert_eq!(pool.session_count(), 0);
        let g = group(1, 45001);
        let a = pool.shard_index(g);
        assert_eq!(a, pool.shard_index(g), "assignment is deterministic");
        // Distinct groups spread: with 64 groups over 4 shards, every
        // shard gets at least one (FNV mixes the low octets well).
        let mut hit = [false; 4];
        for i in 0..64u8 {
            hit[pool.shard_index(group(i, 45000 + u16::from(i)))] = true;
        }
        assert!(hit.iter().all(|&h| h), "all shards reachable: {hit:?}");
    }

    #[test]
    fn zero_width_pool_is_clamped_to_one() {
        let pool = ReactorPool::new(0).expect("pool");
        assert_eq!(pool.shards(), 1);
    }

    #[test]
    fn aggregate_sums_shard_counters() {
        let pool = ReactorPool::new(2).expect("pool");
        // Idle reactors still wake on their idle cap; aggregate wakeups
        // must equal the sum of the per-shard snapshots (both counters
        // only grow, so take the per-shard sum *after* the aggregate —
        // sum >= aggregate proves no double-count, aggregate >= earlier
        // per-shard readings proves no loss).
        let before: u64 = pool.stats().iter().map(|s| s.epoll_wakeups).sum();
        let agg = pool.aggregate().epoll_wakeups;
        let after: u64 = pool.stats().iter().map(|s| s.epoll_wakeups).sum();
        assert!(agg >= before, "aggregate lost counts: {before} -> {agg}");
        assert!(after >= agg, "aggregate double-counted: {agg} -> {after}");
    }

    #[test]
    fn pool_publishes_shard_width() {
        let pool = ReactorPool::new(3).expect("pool");
        let mut reg = MetricsRegistry::new();
        pool.publish_metrics(&mut reg);
        assert_eq!(reg.gauge("reactor_shards"), Some(3));
        assert_eq!(reg.gauge("reactor_sessions"), Some(0));
    }
}
