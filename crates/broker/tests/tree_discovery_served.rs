//! Discovery pin for the served path. Sessions shaped like the
//! `multiplayer_game` workload subscribe `x… & y…` filters, which under the
//! default `JoinRule::First` all join tree `x`: tree `y` never exists, yet
//! every publication carries `y`. The publisher's node must look for that
//! tree once per `OWNER_MERGE_EVERY` period — not once (let alone thirteen
//! times) per publication — and a publication must not sit in the node's
//! pending list waiting for a tree nobody will ever create.

use dps::config::{FIND_TREE_RETRIES, OWNER_MERGE_EVERY, WALK_TTL};
use dps_broker::wire::{encode, Frame, FrameReader, PROTOCOL_VERSION};
use dps_broker::{Broker, BrokerConfig, ChannelTransport, Connection, Transport};
use dps_content::{Event, Filter, SharedEvent};
use dps_sim::{MsgClass, NodeId};

struct Client {
    conn: Box<dyn Connection>,
    reader: FrameReader,
    delivers: usize,
    /// Overlay node of this session, learnt from its first publish `Ack`.
    node: Option<NodeId>,
}

impl Client {
    fn connect(t: &ChannelTransport) -> Self {
        let mut c = Client {
            conn: t.connect("hub").expect("broker is listening"),
            reader: FrameReader::new(),
            delivers: 0,
            node: None,
        };
        c.send(&Frame::Hello {
            version: PROTOCOL_VERSION,
            session: None,
        });
        c
    }

    fn send(&mut self, frame: &Frame) {
        let bytes = encode(frame).unwrap();
        assert_eq!(self.conn.send(&bytes).unwrap(), bytes.len());
    }

    fn read(&mut self) {
        let mut buf = [0u8; 4096];
        while let Ok(n) = self.conn.recv(&mut buf) {
            if n == 0 {
                break;
            }
            self.reader.feed(&buf[..n]);
        }
        while let Some(f) = self.reader.next_frame().unwrap() {
            match f {
                Frame::Deliver { .. } => self.delivers += 1,
                Frame::Ack {
                    pub_id: Some(p),
                    error: None,
                    ..
                } => self.node = Some(NodeId::from_index(p.node as usize)),
                Frame::Ack { error, .. } => assert_eq!(error, None),
                _ => {}
            }
        }
    }
}

/// A quarter of the 1000 × 1000 plane, placed by `k`.
fn filter(k: u64) -> Filter {
    let (x, y) = (k * 37 % 500, k * 91 % 500);
    format!("x > {x} & x < {} & y > {y} & y < {}", x + 500, y + 500)
        .parse()
        .unwrap()
}

fn event(i: u64) -> SharedEvent {
    let event: Event = format!("x = {} & y = {}", i * 53 % 1000, i * 29 % 1000)
        .parse()
        .unwrap();
    SharedEvent::new(event)
}

const SESSIONS: u64 = 4;
const SUBS: u64 = 16;
const PUBLISHERS: usize = 2;

/// A broker with its subscriber and publisher sessions, driven in lockstep.
struct Rig {
    broker: Broker,
    clients: Vec<Client>,
    publishers: Vec<Client>,
    seq: u64,
}

impl Rig {
    fn turns(&mut self, n: u64) {
        for _ in 0..n {
            self.broker.pump().unwrap();
            self.clients.iter_mut().for_each(Client::read);
            self.publishers.iter_mut().for_each(Client::read);
        }
    }

    /// `n` turns with one publication per publisher each.
    fn publish_turns(&mut self, n: u64) {
        for _ in 0..n {
            for p in &mut self.publishers {
                p.send(&Frame::Publish {
                    seq: self.seq,
                    event: event(self.seq),
                });
                self.seq += 1;
            }
            self.turns(1);
        }
    }

    fn management_received(&self) -> u64 {
        let metrics = self.broker.network().metrics();
        metrics.total_received(MsgClass::Management)
    }

    fn delivered(&self) -> usize {
        self.clients.iter().map(|c| c.delivers).sum()
    }

    /// Publications the publishers' overlay nodes still hold.
    fn pending(&self) -> usize {
        let sim = self.broker.network().sim();
        self.publishers
            .iter()
            .map(|p| {
                let node = p.node.expect("every publisher was acked");
                let node = sim.node(node).expect("session is open");
                node.pending_publications()
            })
            .sum()
    }
}

#[test]
fn an_absent_tree_is_looked_for_per_period_not_per_publication() {
    let t = ChannelTransport::new();
    let cfg = BrokerConfig::default();
    let steps_per_pump = cfg.steps_per_pump;
    let broker = Broker::new(cfg, t.listen("hub").unwrap());
    let mut rig = Rig {
        broker,
        clients: (0..SESSIONS).map(|_| Client::connect(&t)).collect(),
        publishers: (0..PUBLISHERS).map(|_| Client::connect(&t)).collect(),
        seq: 0,
    };
    rig.turns(1);
    for (s, c) in rig.clients.iter_mut().enumerate() {
        for sub in 0..SUBS {
            c.send(&Frame::Subscribe {
                seq: sub,
                sub,
                filter: filter(s as u64 * SUBS + sub).into(),
                credit: 1 << 20,
            });
        }
    }
    rig.turns(150);
    assert_eq!(rig.broker.network().pending_subscriptions(), 0);

    // Past the first lookup of `y`, whichever way it is paid.
    rig.publish_turns(40);

    let (turns, before, delivered_before) = (150, rig.management_received(), rig.delivered());
    rig.publish_turns(turns);
    let pubs = turns * PUBLISHERS as u64;
    let per_pub = (rig.management_received() - before) as f64 / pubs as f64;
    // What is left is the overlay's upkeep (heartbeats, view exchange,
    // shuffles, one `PubAck` per publication) plus a lookup per period.
    assert!(
        per_pub < 60.0,
        "{per_pub:.1} management messages received per publication"
    );
    assert!(rig.delivered() > delivered_before + pubs as usize);

    // A publication stays pending only while a lookup it waits on runs.
    // Let the traffic above conclude, and the absence it recorded lapse.
    let lookup = (1 + FIND_TREE_RETRIES as u64) * (WALK_TTL as u64 + 2);
    let lookup_turns = lookup / steps_per_pump + 3;
    rig.turns(lookup_turns + OWNER_MERGE_EVERY / steps_per_pump);
    assert_eq!(rig.pending(), 0);
    // A lone publication walks for `y` itself and is gone when the lookup
    // gives up (13 walk rounds used to keep it ≈ 80 turns)...
    rig.publish_turns(1);
    assert_eq!(rig.pending(), PUBLISHERS);
    rig.turns(lookup_turns);
    assert_eq!(rig.pending(), 0);
    // ...and the next, finding the absence remembered, only waits for the
    // `x` tree's acknowledgement.
    rig.publish_turns(1);
    rig.turns(3);
    assert_eq!(rig.pending(), 0);
}
