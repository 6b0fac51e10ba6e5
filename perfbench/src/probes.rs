//! Layer probes for the traced run: the bare simulation kernel, the JXTA
//! wire codec per frame kind, the XML advertisement parser, and the TPS
//! event codec. Each probe reports host time per call and allocations per
//! call, measured through the layer's public entry points only.

use crate::alloc;
use crate::util::{median, now, Report};
use bytes::Bytes;
use jxta::endpoint::{WireMessage, WirePacket};
use jxta::xml::XmlElement;
use jxta::{Advertisement, Message, PeerAdvertisement, PeerGroupId, PeerId, PipeId, Uuid};
use simnet::{
    Datagram, NetworkBuilder, NodeConfig, NodeContext, SimAddress, SimNode, SubnetId, TransportKind,
};
use ski_rental::{OfferGenerator, RentalOffer, SkiRental};
use std::any::Any;
use std::hint::black_box;

/// Batches per timed figure; the figure is the median batch.
const BATCHES: usize = 7;
/// The payload size of the probed `WireData` frame.
const PAYLOAD_BYTES: usize = 256;

/// Host nanoseconds and allocations per call of `f`, from the median of
/// `BATCHES` batches of `calls` calls each.
fn per_call<R>(calls: usize, mut f: impl FnMut() -> R) -> (f64, f64) {
    let mut times = Vec::with_capacity(BATCHES);
    let mut allocs = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let a0 = alloc::allocs();
        let start = now();
        for _ in 0..calls {
            black_box(f());
        }
        times.push(start.elapsed().as_nanos() as f64 / calls as f64);
        allocs.push((alloc::allocs() - a0) as f64 / calls as f64);
    }
    (median(&times), median(&allocs))
}

pub fn run(report: &mut Report, seed: u64) {
    kernel(report);
    wire(report, seed);
    tps_codec(report, seed);
}

/// A node that ignores everything it receives.
struct Noop;

impl SimNode for Noop {
    fn on_datagram(&mut self, _ctx: &mut NodeContext<'_>, _datagram: Datagram) {}
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The kernel alone: one node sends a datagram to each of `depth` no-op
/// nodes at once, so `depth` deliveries sit in the event queue, and the
/// kernel drains them. Reported as host nanoseconds per processed event.
fn kernel(report: &mut Report) {
    let payload = Bytes::from(vec![0u8; 627]);
    for (depth, rounds) in [(1_000usize, 200usize), (10_000, 20), (100_000, 3)] {
        let mut builder = NetworkBuilder::new(depth as u64);
        let sender = builder.add_node(Box::new(Noop), NodeConfig::lan_peer(SubnetId(0)));
        let targets: Vec<_> = (0..depth)
            .map(|_| builder.add_node(Box::new(Noop), NodeConfig::lan_peer(SubnetId(0))))
            .collect();
        let mut net = builder.build();
        net.run_until_idle();
        let addrs: Vec<SimAddress> = targets
            .iter()
            .map(|&t| {
                net.addresses_of(t)
                    .iter()
                    .copied()
                    .find(|a| a.transport == TransportKind::Tcp)
                    .expect("lan peers have a TCP address")
            })
            .collect();
        let mut per_event = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            net.invoke::<Noop, _>(sender, |_, ctx| {
                for &addr in &addrs {
                    ctx.send(addr, payload.clone()).expect("send to a live peer");
                }
            });
            let start = now();
            let events = net.run_until_idle();
            per_event.push(start.elapsed().as_nanos() as f64 / events.max(1) as f64);
        }
        report.push(
            format!("simnet.bare_ns_per_event.d{depth}"),
            "ns",
            median(&per_event),
        );
    }
}

/// One frame of each kind the data and control planes put on the wire.
fn frames(seed: u64) -> Vec<(&'static str, WireMessage)> {
    let peer = PeerId::derive("skier-0");
    let rdv = PeerId::derive("rdv-0");
    let addr = SimAddress::new(TransportKind::Tcp, 0x0A00_0009, 9701);
    let payload: Vec<u8> = (0..PAYLOAD_BYTES).map(|i| (seed as usize + i) as u8).collect();
    let data = WireMessage::WireData(WirePacket {
        pipe_id: PipeId::derive("perfbench-pipe"),
        msg_id: Uuid(u128::from(seed) << 64 | 0x5EED),
        src_peer: PeerId::derive("shop-0"),
        ttl: 4,
        trace_ids: Vec::new(),
        payload: Bytes::from(payload),
    });
    let adv = PeerAdvertisement::new(peer, "skier-0", PeerGroupId::net()).with_endpoints(vec![addr]);
    let rdv_adv = PeerAdvertisement::new(rdv, "rdv-0", PeerGroupId::net())
        .with_endpoints(vec![addr])
        .with_rendezvous(true);
    vec![
        (
            "Relay",
            WireMessage::Relay {
                dest: peer,
                inner: data.to_bytes(),
            },
        ),
        ("WireData", data),
        ("RendezvousConnect", WireMessage::RendezvousConnect { peer: adv }),
        (
            "RendezvousLease",
            WireMessage::RendezvousLease {
                rdv,
                granted: true,
                lease_ms: 120_000,
            },
        ),
        (
            "LoadReport",
            WireMessage::LoadReport {
                peer: rdv,
                report: jxta::LoadReport {
                    events_relayed: 1_000 + seed % 1_000,
                    fan_out: 250,
                    mailbox_depth: 0,
                    lease_count: 250,
                },
            },
        ),
        (
            "MeshLink",
            WireMessage::MeshLink {
                peer: rdv_adv,
                ack: false,
            },
        ),
    ]
}

fn wire(report: &mut Report, seed: u64) {
    for (kind, frame) in frames(seed) {
        let (encode_ns, encode_allocs) = per_call(2_000, || frame.to_bytes());
        let bytes = frame.to_bytes();
        let (decode_ns, decode_allocs) = per_call(2_000, || {
            WireMessage::from_bytes(&bytes).expect("a frame this codec wrote decodes")
        });
        assert_eq!(
            WireMessage::from_bytes(&bytes).expect("decodes"),
            frame,
            "{kind} must survive a round trip"
        );
        report.push(format!("jxta.wire.encode_ns.{kind}"), "ns", encode_ns);
        report.push(format!("jxta.wire.decode_ns.{kind}"), "ns", decode_ns);
        report.push(format!("jxta.wire.encode_allocs.{kind}"), "count", encode_allocs);
        report.push(format!("jxta.wire.decode_allocs.{kind}"), "count", decode_allocs);
        report.push(format!("jxta.wire.frame_bytes.{kind}"), "B", bytes.len() as f64);
        if kind == "WireData" {
            report.push(
                "jxta.wire.envelope_bytes.WireData",
                "B",
                (bytes.len() - PAYLOAD_BYTES) as f64,
            );
            let (_, message_allocs) = per_call(2_000, || Message::from_bytes(&bytes).expect("decodes"));
            report.push("jxta.message.decode_allocs", "count", message_allocs);
        }
        if kind == "RendezvousConnect" {
            let WireMessage::RendezvousConnect { peer } = &frame else {
                unreachable!("matched by kind")
            };
            let xml = peer.to_xml().to_xml();
            let (parse_ns, parse_allocs) = per_call(2_000, || XmlElement::parse(&xml).expect("well-formed"));
            report.push("jxta.xml.parse_ns.peer_adv", "ns", parse_ns);
            report.push("jxta.xml.parse_allocs.peer_adv", "count", parse_allocs);
        }
    }
}

/// Marshal, unmarshal and upcast (decode as the `RentalOffer` supertype)
/// of the ski-rental offer.
fn tps_codec(report: &mut Report, seed: u64) {
    let offer = OfferGenerator::new(seed).next_offer();
    let (encode_ns, encode_allocs) = per_call(5_000, || tps::codec::to_vec(&offer).expect("encodes"));
    let bytes = tps::codec::to_vec(&offer).expect("encodes");
    let (decode_ns, decode_allocs) = per_call(5_000, || {
        tps::codec::from_slice::<SkiRental>(&bytes).expect("decodes")
    });
    let (upcast_ns, upcast_allocs) = per_call(5_000, || {
        tps::codec::from_slice::<RentalOffer>(&bytes).expect("upcasts")
    });
    assert_eq!(
        tps::codec::from_slice::<SkiRental>(&bytes).expect("decodes"),
        offer
    );
    report.push("tps.codec.encode_ns", "ns", encode_ns);
    report.push("tps.codec.decode_ns", "ns", decode_ns);
    report.push("tps.codec.upcast_ns", "ns", upcast_ns);
    report.push("tps.codec.encode_allocs", "count", encode_allocs);
    report.push("tps.codec.decode_allocs", "count", decode_allocs);
    report.push("tps.codec.upcast_allocs", "count", upcast_allocs);
}
