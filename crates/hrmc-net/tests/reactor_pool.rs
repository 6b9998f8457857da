//! Multi-shard reactor pool under real load: 32 loopback sessions
//! spread across a 2-shard pool, with the telemetry endpoint reporting
//! the pool as one logical reactor whose counters are exactly the sum
//! of the per-shard snapshots.

use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4};
use std::time::Duration;

use hrmc_core::ProtocolConfig;
use hrmc_net::telemetry::scrape;
use hrmc_net::{McastSocket, ReactorPool, Session, Telemetry};

const LO: Ipv4Addr = Ipv4Addr::new(127, 0, 0, 1);

fn multicast_available(port: u16) -> bool {
    let g = SocketAddrV4::new(Ipv4Addr::new(239, 255, 90, 11), port);
    let Ok(rx) = McastSocket::receiver(g, LO) else {
        return false;
    };
    let Ok(tx) = McastSocket::sender(g, LO) else {
        return false;
    };
    let _ = rx.set_read_timeout(Duration::from_millis(500));
    if tx.send_multicast(b"probe").is_err() {
        return false;
    }
    let mut buf = [0u8; 16];
    rx.recv_from(&mut buf).is_ok()
}

fn config() -> ProtocolConfig {
    let mut c = ProtocolConfig::hrmc().with_buffer(256 * 1024);
    c.max_rate = 20 * 1024 * 1024;
    c.initial_rtt = 2_000;
    c.anonymous_release_hold = 500_000;
    c
}

fn pattern(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 31 % 251) as u8).collect()
}

/// 16 groups × (sender + receiver) = 32 sessions on a 2-shard pool:
/// every transfer completes byte-for-byte, sessions actually land on
/// both shards, and after quiesce the per-shard stats sum to the
/// aggregate the telemetry endpoint serves.
#[test]
fn thirty_two_sessions_across_two_shards() {
    if !multicast_available(46300) {
        eprintln!("skipping: multicast loopback unavailable");
        return;
    }
    let pool = ReactorPool::new(2).expect("pool");
    let telemetry = Telemetry::builder()
        .listen(SocketAddr::V4(SocketAddrV4::new(LO, 0)))
        .sample_interval(Duration::from_millis(100))
        .reactor_pool(&pool)
        .start()
        .expect("telemetry");

    let groups: Vec<SocketAddrV4> = (0..16u8)
        .map(|i| SocketAddrV4::new(Ipv4Addr::new(239, 255, 90, 20 + i), 46310 + u16::from(i)))
        .collect();
    // The hash must actually use both shards for this group set (it
    // does — pinned here so a future hash change that collapses the
    // spread fails loudly instead of silently serializing the pool).
    let mut shard_hit = [false; 2];
    for g in &groups {
        shard_hit[pool.shard_index(*g)] = true;
    }
    assert!(shard_hit.iter().all(|&h| h), "groups cover both shards");

    let workers: Vec<_> = groups
        .iter()
        .enumerate()
        .map(|(i, &group)| {
            let pool = pool.clone();
            std::thread::spawn(move || {
                let rx = Session::receiver(group)
                    .interface(LO)
                    .config(config())
                    .reactor_pool(&pool)
                    .bind()
                    .expect("join receiver");
                let tx = Session::sender(group)
                    .interface(LO)
                    .config(config())
                    .reactor_pool(&pool)
                    .bind()
                    .expect("bind sender");
                let data = pattern(20_000 + i * 500);
                tx.send(&data).expect("send");
                tx.close();
                let mut got = Vec::new();
                let mut buf = [0u8; 8192];
                loop {
                    match rx.recv(&mut buf, Duration::from_secs(30)) {
                        Ok(0) => break,
                        Ok(n) => got.extend_from_slice(&buf[..n]),
                        Err(e) => panic!("group {group} recv failed: {e}"),
                    }
                }
                assert_eq!(got, data, "group {group} stream corrupted");
                tx.close_and_wait(Duration::from_secs(60)).expect("close");
            })
        })
        .collect();
    for w in workers {
        w.join().expect("worker panicked");
    }

    // Quiesced: every session deregistered, no more packet traffic.
    assert_eq!(pool.session_count(), 0, "sessions leaked");
    let per_shard = pool.stats();
    assert_eq!(per_shard.len(), 2);
    assert!(
        per_shard.iter().all(|s| s.sessions_hwm > 0),
        "both shards must have hosted sessions: {per_shard:?}"
    );
    let agg = pool.aggregate();
    for (name, agg_v, sum) in [
        (
            "packets_rx",
            agg.packets_rx,
            per_shard.iter().map(|s| s.packets_rx).sum::<u64>(),
        ),
        (
            "packets_tx",
            agg.packets_tx,
            per_shard.iter().map(|s| s.packets_tx).sum::<u64>(),
        ),
        (
            "sessions_hwm",
            agg.sessions_hwm,
            per_shard.iter().map(|s| s.sessions_hwm).sum::<u64>(),
        ),
    ] {
        assert_eq!(agg_v, sum, "{name}: aggregate != per-shard sum");
    }
    assert!(
        agg.packets_rx > 0 && agg.packets_tx > 0,
        "no traffic: {agg:?}"
    );

    // The endpoint serves the same aggregate: raw packet gauges on
    // /metrics equal the per-shard sum, and /json reports the pool
    // shape.
    let addr = telemetry.local_addr().expect("bound");
    let timeout = Duration::from_secs(5);
    let metrics = scrape(addr, "/metrics", timeout).expect("scrape /metrics");
    for (name, sum) in [
        ("hrmc_reactor_packets_rx", agg.packets_rx),
        ("hrmc_reactor_packets_tx", agg.packets_tx),
        ("hrmc_reactor_shards", 2),
    ] {
        assert!(
            metrics.lines().any(|l| l == format!("{name} {sum}")),
            "{name} {sum} missing from exposition:\n{metrics}"
        );
    }
    let json = scrape(addr, "/json", timeout).expect("scrape /json");
    assert!(json.contains("\"shards\":2"), "{json}");
}
