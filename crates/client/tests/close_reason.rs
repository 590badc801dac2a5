//! A broker that refuses a session writes `Close { reason }` and drops the
//! link. The client's next call must fail with that reason — not with the
//! `send failed` it meets first when it tries to write to the dead link.
//!
//! No broker here: the test holds the server half of a `ChannelTransport`
//! connection itself, so the order of events is fixed.

use std::cell::RefCell;
use std::io;
use std::time::Duration;

use dps_broker::wire::{encode, Frame, PROTOCOL_VERSION};
use dps_broker::{ChannelTransport, Connection, Listener, Transport};
use dps_client::Session;

/// Accepts each connection as it is made, answers its `Hello` ahead of time
/// and keeps the server half for the test to script.
struct Scripted {
    channel: ChannelTransport,
    listener: RefCell<Box<dyn Listener>>,
    server: RefCell<Option<Box<dyn Connection>>>,
}

impl Transport for Scripted {
    fn listen(&self, addr: &str) -> io::Result<Box<dyn Listener>> {
        self.channel.listen(addr)
    }

    fn connect(&self, addr: &str) -> io::Result<Box<dyn Connection>> {
        let client = self.channel.connect(addr)?;
        let mut server = self
            .listener
            .borrow_mut()
            .accept()?
            .expect("just connected");
        let hello = Frame::Hello {
            version: PROTOCOL_VERSION,
            session: Some(1),
        };
        server.send(&encode(&hello).unwrap())?;
        *self.server.borrow_mut() = Some(server);
        Ok(client)
    }
}

#[test]
fn the_brokers_close_reason_wins_over_the_failed_send() {
    let channel = ChannelTransport::new();
    let transport = Scripted {
        listener: RefCell::new(channel.listen("hub").unwrap()),
        channel,
        server: RefCell::new(None),
    };
    let session = Session::connect(&transport, "hub", Duration::from_secs(5)).unwrap();
    let publisher = session.publisher().unwrap();

    let mut server = transport.server.take().expect("connect stored it");
    let close = Frame::Close {
        reason: "shard is draining".into(),
    };
    server.send(&encode(&close).unwrap()).unwrap();
    drop(server);

    let err = publisher
        .publish("price = 150".parse::<dps::Event>().unwrap())
        .unwrap_err();
    assert!(
        err.to_string().contains("shard is draining"),
        "the broker said why; the caller saw {err}"
    );
    assert!(!session.is_open());
}
