//! Layer probes, run only in traced runs and sized from the workload:
//! the wire codec at the workload's segment size, the membership index
//! at its population, and the engines over an in-memory channel at its
//! loss rate. Each reports nanoseconds per call, timed over batches so
//! the clock read is amortised.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use bytes::Bytes;
use hrmc_core::membership::Membership;
use hrmc_core::{Dest, PeerId, ProtocolConfig, ReceiverEngine, SenderEngine, JIFFY_US};
use hrmc_wire::{Packet, PacketType};

use crate::host;
use crate::metrics::Outcome;
use crate::spans::Spans;
use crate::stats;

/// What the probes are sized from.
pub struct Sizing {
    pub segment: usize,
    pub population: usize,
    pub loss: f64,
    pub config: ProtocolConfig,
}

/// Run every probe, each inside a span, and record its metrics.
pub fn run(sizing: &Sizing, seed: u64, spans: &Spans, out: &mut Outcome) {
    let root = spans.open("probes", None, u64::MAX);
    spans.time("probe.wire", Some(&root), u64::MAX, || {
        wire(sizing.segment, seed, out)
    });
    spans.time("probe.membership", Some(&root), u64::MAX, || {
        membership(sizing.population, out)
    });
    spans.time("probe.engine", Some(&root), u64::MAX, || {
        engine(sizing, seed, out)
    });
    spans.close(root);
}

/// Median over `rounds` of the per-call time of `reps` calls of `f`.
fn per_call_ns(rounds: usize, reps: u64, mut f: impl FnMut()) -> f64 {
    let v: Vec<f64> = (0..rounds)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..reps {
                f();
            }
            t.elapsed().as_nanos() as f64 / reps as f64
        })
        .collect();
    stats::median(&v).expect("at least one round")
}

fn wire(segment: usize, seed: u64, out: &mut Outcome) {
    let data = Packet::data(7000, 7001, 42, Bytes::from(host::payload(seed, segment)));
    let mut nak = Packet::control(PacketType::Nak, 8000, 7001, 1234);
    nak.header.length = 3;
    let mut buf = Vec::new();
    let data_wire = data.encode();
    let nak_wire = nak.encode();
    out.set(
        "wire.encode_data_ns",
        per_call_ns(7, 20_000, || {
            black_box(&data).encode_into(black_box(&mut buf))
        }),
    );
    out.set(
        "wire.decode_data_ns",
        per_call_ns(7, 20_000, || {
            black_box(Packet::decode(black_box(&data_wire)).expect("own encoding decodes"));
        }),
    );
    out.set(
        "wire.encode_ctrl_ns",
        per_call_ns(7, 50_000, || {
            black_box(&nak).encode_into(black_box(&mut buf))
        }),
    );
    out.set(
        "wire.decode_ctrl_ns",
        per_call_ns(7, 50_000, || {
            black_box(Packet::decode(black_box(&nak_wire)).expect("own encoding decodes"));
        }),
    );
}

/// The membership index at population `n`, in the sender's MINBUF query
/// mix: the group marches forward one shard span per round (crossing the
/// sequence wrap) while one laggard trails, so the gate fails, `lacking`
/// names the laggard, and the gate passes once it catches up.
fn membership(n: usize, out: &mut Outcome) {
    const ROUNDS: u32 = 64;
    const STRIDE: u32 = 64;
    let base: u32 = u32::MAX - ROUNDS * STRIDE / 2;
    let mut m = Membership::new();
    for p in 0..n {
        m.add(PeerId(p as u32), base, p as u64);
    }
    let mut now = n as u64;
    let (mut t_update, mut t_all_have, mut t_lacking) =
        (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let mut updates = 0u64;
    let mut scratch = Vec::new();
    for r in 1..=ROUNDS {
        let front = base.wrapping_add(r * STRIDE);
        let t = Instant::now();
        for p in 1..n {
            now += 1;
            m.update(PeerId(p as u32), front.wrapping_add(1), now);
        }
        t_update += t.elapsed();
        updates += n.saturating_sub(1) as u64;
        let t = Instant::now();
        black_box(m.all_have(front));
        t_all_have += t.elapsed();
        let t = Instant::now();
        m.lacking_into(front, &mut scratch);
        t_lacking += t.elapsed();
        now += 1;
        m.update(PeerId(0), front.wrapping_add(1), now);
        updates += 1;
    }
    let ns = |d: Duration, calls: u64| d.as_nanos() as f64 / calls.max(1) as f64;
    out.set("membership.update_ns", ns(t_update, updates));
    out.set("membership.all_have_ns", ns(t_all_have, u64::from(ROUNDS)));
    out.set("membership.lacking_ns", ns(t_lacking, u64::from(ROUNDS)));

    // After a drain: the whole group shares one shard, then all but one
    // member move far ahead. The emptied shard keeps one member; a
    // `lacking` descent into it should cost one member, not the crowd
    // it once held.
    let mut m = Membership::new();
    for p in 0..n {
        m.add(PeerId(p as u32), 0, p as u64);
    }
    for p in 1..n {
        m.update(PeerId(p as u32), 64 * STRIDE, n as u64 + p as u64);
    }
    out.set(
        "membership.lacking_after_drain_ns",
        per_call_ns(7, 2_000, || m.lacking_into(black_box(0), &mut scratch)),
    );
}

/// A seeded lossy in-memory channel with a fixed one-way delay.
struct Channel {
    inflight: BinaryHeap<Reverse<(u64, u64, usize)>>,
    packets: Vec<Option<(Option<usize>, Packet)>>,
    delay: u64,
    loss: f64,
    rng: u64,
}

impl Channel {
    fn send(&mut self, now: u64, to: Option<usize>, pkt: Packet) {
        self.rng = host::mix(self.rng);
        if ((self.rng >> 11) as f64 / (1u64 << 53) as f64) < self.loss {
            return;
        }
        let id = self.packets.len();
        self.packets.push(Some((to, pkt)));
        self.inflight
            .push(Reverse((now + self.delay, id as u64, id)));
    }

    fn due(&mut self, now: u64, out: &mut Vec<(Option<usize>, Packet)>) {
        while let Some(&Reverse((t, _, id))) = self.inflight.peek() {
            if t > now {
                break;
            }
            self.inflight.pop();
            out.push(self.packets[id].take().expect("delivered once"));
        }
    }
}

/// Sender and receivers over the channel at the workload's loss rate,
/// timing `handle_packet` on each side and `on_tick` on every engine.
fn engine(sizing: &Sizing, seed: u64, out: &mut Outcome) {
    const TRANSFER: usize = 1_000_000;
    let receivers = sizing.population.clamp(1, 32);
    let cfg = sizing.config.clone();
    let mut sender = SenderEngine::new(cfg.clone(), 7000, 7001, 0, 0);
    let mut rx: Vec<ReceiverEngine> = (0..receivers)
        .map(|i| {
            let mut r = ReceiverEngine::new(cfg.clone(), 8000 + i as u16, 7001, 0);
            r.expect_stream_start(0);
            r
        })
        .collect();
    let mut ch = Channel {
        inflight: BinaryHeap::new(),
        packets: Vec::new(),
        delay: 500,
        loss: sizing.loss,
        rng: seed,
    };
    let data = host::payload(seed, TRANSFER);
    let mut offset = 0;
    let mut got = vec![0usize; receivers];
    let (mut t_snd, mut t_rcv, mut t_tick) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let (mut n_snd, mut n_rcv, mut n_tick) = (0u64, 0u64, 0u64);
    let mut arrivals = Vec::new();
    let mut buf = vec![0u8; 64 * 1024];
    let mut now = 0u64;
    for _ in 0..200_000 {
        now += JIFFY_US;
        if offset < data.len() {
            offset += sender.submit(&data[offset..], now);
            if offset == data.len() {
                sender.close(now);
            }
        }
        arrivals.clear();
        ch.due(now, &mut arrivals);
        let (to_sender, to_rx): (Vec<_>, Vec<_>) =
            arrivals.drain(..).partition(|(to, _)| to.is_none());
        let t = Instant::now();
        for (_, pkt) in &to_sender {
            let peer = PeerId(u32::from(pkt.header.src_port - 8000));
            sender.handle_packet(pkt, peer, now);
        }
        t_snd += t.elapsed();
        n_snd += to_sender.len() as u64;
        let t = Instant::now();
        for (to, pkt) in &to_rx {
            rx[to.expect("receiver-bound")].handle_packet(pkt, now);
        }
        t_rcv += t.elapsed();
        n_rcv += to_rx.len() as u64;
        let t = Instant::now();
        sender.on_tick(now);
        for r in rx.iter_mut() {
            r.on_tick(now);
        }
        t_tick += t.elapsed();
        n_tick += 1 + receivers as u64;
        while let Some(o) = sender.poll_output() {
            match o.dest {
                Dest::Multicast => {
                    for i in 0..receivers {
                        ch.send(now, Some(i), o.packet.clone());
                    }
                }
                Dest::Unicast(p) => ch.send(now, Some(p.0 as usize), o.packet),
                Dest::Sender => {}
            }
        }
        for (i, r) in rx.iter_mut().enumerate() {
            loop {
                let n = r.read(&mut buf, now);
                if n == 0 {
                    break;
                }
                got[i] += n;
            }
            while let Some(o) = r.poll_output() {
                ch.send(now, None, o.packet);
            }
        }
        if sender.is_finished() && rx.iter().all(ReceiverEngine::fully_consumed) {
            break;
        }
    }
    if got.iter().any(|&g| g != TRANSFER) {
        eprintln!("perfbench: engine probe delivered {got:?} of {TRANSFER} bytes per receiver");
        out.corrupt = true;
    }
    let ns = |d: Duration, calls: u64| d.as_nanos() as f64 / calls.max(1) as f64;
    out.set("core.sender_packet_ns", ns(t_snd, n_snd));
    out.set("core.receiver_packet_ns", ns(t_rcv, n_rcv));
    out.set("core.tick_ns", ns(t_tick, n_tick));
}
