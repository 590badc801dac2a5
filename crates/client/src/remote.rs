//! The served backend: one [`Link`] to a `dps-broker`, the `Hello` handshake,
//! one request/ack round trip at a time, and the routing of what the broker
//! sends in between.

use std::time::{Duration, Instant};

use dps::DpsError;
use dps_broker::wire::{Fill, Frame, Link, PubRef, PROTOCOL_VERSION};
use dps_broker::{wait_readable, Connection, Transport};
use dps_content::{SharedEvent, SharedFilter};

use crate::{Backend, Delivery, Session};

struct Remote {
    link: Link,
    /// Bounds the handshake and every later request/ack round trip.
    timeout: Duration,
    session: Option<u64>,
    next_seq: u64,
    /// The request whose `Ack` is being waited for (requests are strictly one
    /// at a time) and, once it came, what it said. Any other `Ack` answers a
    /// request that already timed out and is discarded on arrival.
    awaited: Option<u64>,
    answer: Option<Result<Option<PubRef>, String>>,
    /// Deliveries read while waiting for something else, until the session's
    /// next poll collects them.
    delivered: Vec<(u64, Delivery)>,
    /// Set when the broker sent `Close` (its reason) or the link died.
    closed_reason: Option<String>,
}

impl Remote {
    fn new(conn: Box<dyn Connection>, timeout: Duration) -> Remote {
        Remote {
            link: Link::new(conn),
            timeout,
            session: None,
            next_seq: 1,
            awaited: None,
            answer: None,
            delivered: Vec::new(),
            closed_reason: None,
        }
    }

    fn queue(&mut self, frame: &Frame) -> Result<(), DpsError> {
        let queued = self.link.queue(frame);
        queued.map_err(|e| DpsError::Protocol(e.to_string()))
    }

    /// Queues the request `frame` builds around a fresh sequence number.
    fn send(&mut self, frame: impl FnOnce(u64) -> Frame) -> Result<u64, DpsError> {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue(&frame(seq))?;
        Ok(seq)
    }

    /// Sends a request and waits for its `Ack`.
    fn request(&mut self, frame: impl FnOnce(u64) -> Frame) -> Result<Option<PubRef>, DpsError> {
        self.awaited = Some(self.send(frame)?);
        let answer = self.wait("broker ack", |r| r.answer.take());
        self.awaited = None;
        answer?.map_err(DpsError::Protocol)
    }

    /// Non-blocking progress: flush pending output, read frames, route them.
    fn pump(&mut self) -> Result<(), DpsError> {
        if self.closed_reason.is_some() {
            return Ok(());
        }
        let sent = self.link.flush();
        let fill = self.link.fill();
        // Route what the peer already sent before judging the link: a broker
        // that refuses the session writes `Close` and hangs up, and its
        // stated reason must win over the failed send or the EOF that follow.
        loop {
            match self.link.next_frame() {
                Ok(Some(frame)) => self.route(frame),
                Ok(None) => break,
                Err(e) => {
                    let e = DpsError::Protocol(e.to_string());
                    self.closed_reason = Some(e.to_string());
                    return Err(e);
                }
            }
        }
        if self.closed_reason.is_none() {
            self.closed_reason = match (sent, fill) {
                (Err(e), _) => Some(format!("send failed: {e}")),
                (_, Fill::Failed(e)) => Some(format!("recv failed: {e}")),
                (_, Fill::Eof) => Some("broker closed the connection".into()),
                (Ok(()), Fill::Open) => None,
            };
        }
        Ok(())
    }

    fn route(&mut self, frame: Frame) {
        match frame {
            Frame::Hello { session, .. } => self.session = session,
            Frame::Ack { seq, pub_id, error } => {
                if self.awaited == Some(seq) {
                    self.answer = Some(match error {
                        None => Ok(pub_id),
                        Some(e) => Err(e),
                    });
                }
            }
            Frame::Deliver {
                sub,
                publisher,
                pub_seq,
                event,
            } => self.delivered.push((
                sub,
                Delivery {
                    publisher,
                    seq: pub_seq,
                    event,
                },
            )),
            Frame::Close { reason } => {
                self.closed_reason = Some(format!("broker closed session: {reason}"));
            }
            // Client-only frames from the broker are a protocol violation.
            Frame::Subscribe { .. }
            | Frame::Unsubscribe { .. }
            | Frame::Publish { .. }
            | Frame::Credit { .. } => {
                self.closed_reason = Some("broker sent a client-only frame".into());
            }
        }
    }

    /// Pumps until `done` yields a value or the session's timeout passes.
    fn wait<T>(
        &mut self,
        what: &str,
        mut done: impl FnMut(&mut Remote) -> Option<T>,
    ) -> Result<T, DpsError> {
        let deadline = Instant::now() + self.timeout;
        loop {
            self.pump()?;
            if let Some(v) = done(self) {
                return Ok(v);
            }
            self.check()?;
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(DpsError::Transport(format!("timed out waiting for {what}")));
            }
            self.idle(left);
        }
    }
}

impl Backend for Remote {
    fn subscribe(&mut self, sub: u64, filter: &SharedFilter, credit: u32) -> Result<(), DpsError> {
        let filter = filter.clone();
        let subscribe = |seq| Frame::Subscribe {
            seq,
            sub,
            filter,
            credit,
        };
        self.request(subscribe).map(drop)
    }

    fn unsubscribe(&mut self, sub: u64, wait: bool) -> Result<(), DpsError> {
        let unsubscribe = |seq| Frame::Unsubscribe { seq, sub };
        if wait {
            return self.request(unsubscribe).map(drop);
        }
        // Nobody is left to hear the answer: see the request off, no more.
        self.send(unsubscribe)?;
        self.pump()
    }

    fn publish(&mut self, event: SharedEvent) -> Result<PubRef, DpsError> {
        self.request(|seq| Frame::Publish { seq, event })?
            .ok_or_else(|| DpsError::Protocol("publish ack without a pub_id".into()))
    }

    fn poll(&mut self, deliver: &mut dyn FnMut(u64, Delivery)) -> Result<(), DpsError> {
        let out = self.pump();
        for (sub, delivery) in self.delivered.drain(..) {
            deliver(sub, delivery);
        }
        out
    }

    fn consumed(&mut self, sub: u64, n: u32) {
        let _ = self.queue(&Frame::Credit { sub, more: n });
    }

    /// Sends `Close` and waits for the broker's echo (or EOF).
    fn close(&mut self) -> Result<(), DpsError> {
        if self.closed_reason.is_none() {
            self.queue(&Frame::Close {
                reason: "client close".into(),
            })?;
            // A link that dies instead of answering is closed too.
            let _ = self.wait("broker close", |r| r.closed_reason.as_ref().map(|_| ()));
        }
        self.link.shutdown();
        Ok(())
    }

    fn check(&self) -> Result<(), DpsError> {
        match &self.closed_reason {
            Some(reason) => Err(DpsError::Transport(reason.clone())),
            None => Ok(()),
        }
    }

    /// Waits on the link. Not while output is left to flush (the next pump
    /// has work whatever arrives) nor once the link is closed (it is no
    /// longer read, so what it holds would end every wait at once): those
    /// are polled at the default period.
    fn idle(&mut self, at_most: Duration) {
        let watch = self.closed_reason.is_none() && self.link.out.is_empty();
        let source = self.link.readiness().filter(|_| watch);
        wait_readable(&mut [source.into()], at_most);
    }
}

impl Session {
    /// Connects over `transport` to the broker at `addr` and completes the
    /// `Hello` handshake (bounded by `timeout`, which also bounds every later
    /// request/ack round-trip on this session).
    pub fn connect(
        transport: &dyn Transport,
        addr: &str,
        timeout: Duration,
    ) -> Result<Session, DpsError> {
        let conn = transport
            .connect(addr)
            .map_err(|e| DpsError::Transport(format!("connect to {addr}: {e}")))?;
        let mut remote = Remote::new(conn, timeout);
        remote.queue(&Frame::Hello {
            version: PROTOCOL_VERSION,
            session: None,
        })?;
        let id = remote.wait("broker hello", |r| r.session)?;
        Ok(Session::over(Box::new(remote), id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dps_broker::{wire::encode, ChannelTransport};

    /// The test holds the server half of the connection and scripts it.
    #[test]
    fn a_late_ack_is_discarded_and_the_next_request_gets_its_own() {
        let channel = ChannelTransport::new();
        let mut listener = channel.listen("hub").unwrap();
        let mut remote = Remote::new(channel.connect("hub").unwrap(), Duration::from_millis(20));
        let mut server = listener.accept().unwrap().expect("just connected");
        let event = || SharedEvent::from("a = 1".parse::<dps::Event>().unwrap());
        let mut ack = |seq, pub_id: PubRef| {
            let frame = Frame::Ack {
                seq,
                pub_id: Some(pub_id),
                error: None,
            };
            server.send(&encode(&frame).unwrap()).unwrap();
        };

        // Nobody answers the first publish (request 1): it times out.
        let err = remote.publish(event()).unwrap_err();
        assert!(err.to_string().contains("timed out"), "got {err}");
        // Its ack comes late, ahead of the second publish's (request 2).
        let own = PubRef { node: 9, seq: 1 };
        ack(1, PubRef { node: 9, seq: 0 });
        ack(2, own);
        assert_eq!(remote.publish(event()), Ok(own));
        assert_eq!((remote.awaited, remote.answer), (None, None));
    }
}
