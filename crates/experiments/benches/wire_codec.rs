//! The wire codec on its own: what one frame costs to encode and to decode.
//!
//! The served path pays a decode per delivery on the client and a decode per
//! request on the broker, so these rows are the per-frame unit of the
//! benchmark's `wire.*_ns_per_deliver` counters. The `Deliver` is the one the
//! `fanout_wide` workload sends (two integer coordinates, ≈ 110 bytes); the
//! `Publish` carries the same event and the `Subscribe` a game-workload
//! filter (two ranges, four predicates). `wire_read_fanout` reads what a
//! `fanout_wide` session reads — each publication's `Deliver`s back to back,
//! one per matching subscription — through one `FrameReader`, which decodes
//! the event once per publication. The last row reads the largest scenario
//! spec under `scenarios/` — the decoder's other consumer.
//!
//! The two `channel_*` rows time the in-process transport the frames cross
//! in the lockstep workloads: `channel_kib_round_trip` sends 1 KiB and reads
//! it back out with a 4 KiB buffer, as the benchmark's
//! `transport.channel_ns_per_kib` does, and `channel_recv_empty` is the
//! `recv` the broker makes on every idle session every turn.
//!
//! Each iteration of a frame or channel row handles [`BATCH`] frames or
//! calls, so the stand-in criterion's per-iteration clock reads are a
//! fraction of a percent of what is timed: ns per frame is ns/iter ÷ [`BATCH`].

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dps_broker::wire::{decode, encode, Frame, FrameReader};
use dps_broker::{ChannelTransport, Transport};
use dps_content::{Event, Filter, Value};
use dps_scenarios::ScenarioSpec;

/// Frames per timed iteration.
const BATCH: usize = 256;

/// The largest spec in the scenario library (1 251 bytes).
const SPEC: &str = include_str!("../../../scenarios/latency/jittery-partition-heal.json");

/// Publications in the reader row's batch; each reaches `BATCH / FANOUT_PUBS`
/// subscriptions.
const FANOUT_PUBS: usize = 16;

/// Frame `i` of a batch: the numbers vary as they do between deliveries.
fn frames(kind: &str) -> Vec<Frame> {
    (0..BATCH as u64)
        .map(|i| {
            let event = || {
                Event::new([
                    ("x", Value::from(100 + (i as i64 * 37) % 900)),
                    ("y", Value::from(100 + (i as i64 * 91) % 900)),
                ])
                .into()
            };
            match kind {
                "deliver" => Frame::Deliver {
                    sub: i % 64,
                    publisher: 3 + i % 5,
                    pub_seq: 1000 + i as u32,
                    event: event(),
                },
                "publish" => Frame::Publish {
                    seq: 1000 + i,
                    event: event(),
                },
                "subscribe" => Frame::Subscribe {
                    seq: 10 + i,
                    sub: i % 64,
                    filter: format!(
                        "x > {} & x < {} & y > {} & y < {}",
                        i,
                        i + 500,
                        2 * i,
                        2 * i + 500
                    )
                    .parse::<Filter>()
                    .expect("a well-formed filter")
                    .into(),
                    credit: 64,
                },
                other => unreachable!("no frame kind {other}"),
            }
        })
        .collect()
}

fn bench_wire_codec(c: &mut Criterion) {
    for kind in ["deliver", "publish", "subscribe"] {
        let frames = frames(kind);
        let encoded: Vec<Vec<u8>> = frames
            .iter()
            .map(|f| encode(f).expect("small frames encode"))
            .collect();
        c.bench_function(&format!("wire_encode_{kind}_x{BATCH}"), |b| {
            b.iter(|| {
                for f in &frames {
                    black_box(encode(black_box(f)).expect("small frames encode"));
                }
            })
        });
        c.bench_function(&format!("wire_decode_{kind}_x{BATCH}"), |b| {
            b.iter(|| {
                for bytes in &encoded {
                    black_box(decode(black_box(bytes)).expect("own encoding decodes"));
                }
            })
        });
    }

    // Deliver `i` of the "deliver" batch carries publication `i`'s event.
    let deliver = frames("deliver");
    let per_pub = BATCH / FANOUT_PUBS;
    let stream: Vec<u8> = (0..BATCH)
        .flat_map(|i| {
            let Frame::Deliver { event, .. } = &deliver[i / per_pub] else {
                unreachable!("a Deliver batch")
            };
            let frame = Frame::Deliver {
                sub: (i % per_pub) as u64,
                publisher: 3,
                pub_seq: 1000 + (i / per_pub) as u32,
                event: event.clone(),
            };
            encode(&frame).expect("small frames encode")
        })
        .collect();
    let mut reader = FrameReader::new();
    c.bench_function(&format!("wire_read_fanout_x{BATCH}"), |b| {
        b.iter(|| {
            // In the pieces a `Link` reads a socket in.
            for piece in stream.chunks(4096) {
                reader.feed(black_box(piece));
                while let Some(frame) = reader.next_frame().expect("own encoding decodes") {
                    black_box(frame);
                }
            }
        })
    });

    let channel = ChannelTransport::new();
    let mut listener = channel.listen("bench").expect("a fresh address");
    let mut tx = channel.connect("bench").expect("a listener");
    let mut rx = listener
        .accept()
        .expect("channel accept")
        .expect("one pending connection");
    let kib = [7u8; 1024];
    let mut buf = [0u8; 4096];
    c.bench_function(&format!("channel_kib_round_trip_x{BATCH}"), |b| {
        b.iter(|| {
            for _ in 0..BATCH {
                tx.send(black_box(&kib)).expect("open");
                let mut got = 0;
                while got < kib.len() {
                    got += rx.recv(&mut buf).expect("bytes queued");
                }
            }
        })
    });
    c.bench_function(&format!("channel_recv_empty_x{BATCH}"), |b| {
        b.iter(|| {
            for _ in 0..BATCH {
                black_box(rx.recv(&mut buf).is_err());
            }
        })
    });

    c.bench_function("scenario_spec_from_json_str", |b| {
        b.iter(|| ScenarioSpec::from_json_str(black_box(SPEC)).expect("a valid spec"))
    });
}

criterion_group!(benches, bench_wire_codec);
criterion_main!(benches);
