//! The DPS wire protocol: length-prefixed, JSON-framed, versioned.
//!
//! Every message on a broker connection is one **frame**: a 4-byte big-endian
//! length prefix followed by that many bytes of JSON encoding one [`Frame`]
//! value (externally tagged, e.g. `{"Publish":{...}}`). The prefix counts the
//! JSON body only. Frames larger than [`MAX_FRAME`] are rejected *before* any
//! allocation sized by the prefix, so a hostile length cannot OOM the peer.
//! Senders write compact JSON; receivers accept any JSON whitespace.
//!
//! A broker fans one publication out to many subscriptions, so the `event`
//! member of its `Deliver` frames is encoded once ([`EventBody`]) and
//! [`write_deliver`] splices those shared bytes into each frame; on the
//! receiving end a [`FrameReader`] decodes that event once for a run of such
//! frames and hands each of them the same [`SharedEvent`].
//!
//! The full grammar, version rules and credit/close semantics are documented
//! in `docs/protocol.md` at the repository root.

use std::collections::VecDeque;
use std::sync::Arc;

use dps_content::{SharedEvent, SharedFilter};
use serde::{Deserialize, Serialize};

use crate::transport::Connection;

/// Protocol revision spoken by this build. A broker rejects a `Hello` carrying
/// any other version with a `Close` frame naming both sides' versions.
pub const PROTOCOL_VERSION: u32 = 1;

/// Upper bound on the JSON body of a single frame, in bytes (1 MiB).
pub const MAX_FRAME: u32 = 1 << 20;

/// A publication identity on the wire: the publishing overlay node and its
/// per-publisher sequence number. Mirrors the simulator's `PubId`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PubRef {
    /// Index of the publishing overlay node.
    pub node: u64,
    /// The publisher's per-node publication sequence number.
    pub seq: u32,
}

/// One protocol message. Externally tagged in JSON: `{"Hello": {...}}`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Frame {
    /// First frame in both directions. The client sends `session: None`; the
    /// broker replies with the session id it assigned (or `Close` on version
    /// mismatch).
    Hello {
        /// [`PROTOCOL_VERSION`] of the sender.
        version: u32,
        /// Broker-assigned session id (set only in the broker's reply).
        session: Option<u64>,
    },
    /// Client → broker: install a subscription. `sub` is a client-chosen id,
    /// unique within the session; `credit` is the initial delivery window.
    Subscribe {
        /// Client request sequence number, echoed in the `Ack`.
        seq: u64,
        /// Client-chosen subscription id.
        sub: u64,
        /// The content filter.
        filter: SharedFilter,
        /// Initial delivery credit (number of `Deliver` frames the broker may
        /// send before waiting for `Credit`).
        credit: u32,
    },
    /// Client → broker: cancel subscription `sub`.
    Unsubscribe {
        /// Client request sequence number, echoed in the `Ack`.
        seq: u64,
        /// The subscription to cancel.
        sub: u64,
    },
    /// Client → broker: publish an event from this session's node.
    Publish {
        /// Client request sequence number, echoed in the `Ack`.
        seq: u64,
        /// The event body.
        event: SharedEvent,
    },
    /// Broker → client: an event matched subscription `sub`. Consumes one
    /// credit of that subscription.
    Deliver {
        /// The client-chosen id of the matching subscription.
        sub: u64,
        /// Index of the publishing overlay node.
        publisher: u64,
        /// The publisher's per-node publication sequence number.
        pub_seq: u32,
        /// The event body.
        event: SharedEvent,
    },
    /// Broker → client: reply to `Subscribe`/`Unsubscribe`/`Publish`. Carries
    /// the publication identity for a publish, or an error message when the
    /// request was refused (the session stays open).
    Ack {
        /// The request's sequence number.
        seq: u64,
        /// Identity of the accepted publication (publish acks only).
        pub_id: Option<PubRef>,
        /// Why the request was refused, if it was.
        error: Option<String>,
    },
    /// Client → broker: extend subscription `sub`'s delivery window by `more`.
    Credit {
        /// The subscription whose window to extend.
        sub: u64,
        /// Additional `Deliver` frames the broker may send.
        more: u32,
    },
    /// Graceful teardown, either direction. The broker cancels the session's
    /// subscriptions, retires its node, echoes `Close` and drops the link.
    Close {
        /// Human-readable reason.
        reason: String,
    },
}

/// Why a frame could not be encoded or decoded. Named variants so transport
/// code can tell a hostile prefix from a short read from garbage JSON.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The length prefix exceeds [`MAX_FRAME`] (or an encoded body would).
    FrameTooLarge {
        /// The offending length.
        len: u32,
        /// The cap it exceeds.
        max: u32,
    },
    /// The buffer ends mid-frame and no more bytes will ever come (EOF).
    Truncated {
        /// Bytes present.
        have: usize,
        /// Bytes the prefix promised.
        need: usize,
    },
    /// The frame body is not valid JSON for any [`Frame`] variant.
    Decode(String),
    /// The peer speaks a different protocol revision.
    Version {
        /// The peer's version.
        theirs: u32,
        /// Our [`PROTOCOL_VERSION`].
        ours: u32,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::FrameTooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte cap")
            }
            WireError::Truncated { have, need } => {
                write!(f, "truncated frame: have {have} of {need} bytes")
            }
            WireError::Decode(e) => write!(f, "undecodable frame: {e}"),
            WireError::Version { theirs, ours } => {
                write!(
                    f,
                    "protocol version mismatch: peer speaks v{theirs}, this build v{ours}"
                )
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Encodes `frame` as one wire frame (prefix + JSON body).
///
/// Fails with [`WireError::FrameTooLarge`] if the body exceeds [`MAX_FRAME`] —
/// the sender learns immediately instead of the receiver dropping the link.
pub fn encode(frame: &Frame) -> Result<Vec<u8>, WireError> {
    let body = serde_json::to_string(frame).map_err(|e| WireError::Decode(e.to_string()))?;
    if body.len() > MAX_FRAME as usize {
        return Err(WireError::FrameTooLarge {
            len: body.len() as u32,
            max: MAX_FRAME,
        });
    }
    let mut out = Vec::with_capacity(4 + body.len());
    out.extend_from_slice(&(body.len() as u32).to_be_bytes());
    out.extend_from_slice(body.as_bytes());
    Ok(out)
}

/// The JSON encoding of one event, as it appears in the `event` member of a
/// `Deliver` frame. Cloning shares the bytes, so every frame carrying the same
/// publication is cut from one encoding.
#[derive(Debug, Clone)]
pub struct EventBody(Arc<str>);

impl EventBody {
    /// Encodes `event` (the one encoding of its fan-out).
    pub fn encode(event: &SharedEvent) -> Self {
        let json = serde_json::to_string(event).expect("vendored serialization is infallible");
        EventBody(json.into())
    }

    /// The encoded JSON.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

/// The body of a `Deliver` as [`write_deliver`] spells it: these pieces, with
/// `sub`, `publisher`, `pub_seq` and the event between them in that order.
/// [`FrameReader`] recognises the same layout, so writer and reader share it.
const DELIVER: [&[u8]; 5] = [
    br#"{"Deliver":{"sub":"#,
    br#","publisher":"#,
    br#","pub_seq":"#,
    br#","event":"#,
    b"}}",
];

fn decimal_len(n: u64) -> usize {
    n.checked_ilog10().map_or(1, |d| d as usize + 1)
}

/// Appends `n` in decimal, as `u64`'s `Display` writes it.
fn write_decimal(out: &mut VecDeque<u8>, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend(&digits[at..]);
}

/// Appends one `Deliver` frame (prefix + body) to `out`, byte for byte what
/// [`encode`] produces for `Frame::Deliver` with the event `body` encodes.
///
/// Fails with [`WireError::FrameTooLarge`] — leaving `out` untouched — if the
/// frame body would exceed [`MAX_FRAME`].
pub fn write_deliver(
    out: &mut VecDeque<u8>,
    sub: u64,
    publisher: u64,
    pub_seq: u32,
    body: &EventBody,
) -> Result<(), WireError> {
    let numbers = [sub, publisher, u64::from(pub_seq)];
    let len = DELIVER.iter().map(|piece| piece.len()).sum::<usize>()
        + numbers.iter().map(|&n| decimal_len(n)).sum::<usize>()
        + body.0.len();
    if len > MAX_FRAME as usize {
        return Err(WireError::FrameTooLarge {
            len: u32::try_from(len).unwrap_or(u32::MAX),
            max: MAX_FRAME,
        });
    }
    let start = out.len();
    out.reserve(4 + len);
    out.extend((len as u32).to_be_bytes());
    for (piece, n) in DELIVER.iter().zip(numbers) {
        out.extend(*piece);
        write_decimal(out, n);
    }
    out.extend(DELIVER[3]);
    out.extend(body.0.as_bytes());
    out.extend(DELIVER[4]);
    debug_assert_eq!(out.len() - start, 4 + len, "the prefix counts the body");
    Ok(())
}

/// The decimal [`write_decimal`] writes at the front of `bytes`, and what
/// follows it: at least one digit, no leading zero, no more than `u64::MAX`.
/// Anything else is `None`, whether or not JSON would read it as a number.
fn read_decimal(bytes: &[u8]) -> Option<(u64, &[u8])> {
    let digits = bytes.iter().take_while(|b| b.is_ascii_digit()).count();
    let (number, rest) = bytes.split_at(digits);
    if number.is_empty() || (number[0] == b'0' && digits > 1) {
        return None;
    }
    let mut n: u64 = 0;
    for d in number {
        n = n.checked_mul(10)?.checked_add(u64::from(d - b'0'))?;
    }
    Some((n, rest))
}

/// A `Deliver` body spelled byte for byte as [`write_deliver`] spells it:
/// its `sub`, `publisher` and `pub_seq`, and the bytes of its `event` member.
/// `None` for any other body, decodable or not.
fn canonical_deliver(body: &[u8]) -> Option<(u64, u64, u32, &[u8])> {
    let rest = body.strip_prefix(DELIVER[0])?;
    let (sub, rest) = read_decimal(rest)?;
    let (publisher, rest) = read_decimal(rest.strip_prefix(DELIVER[1])?)?;
    let (pub_seq, rest) = read_decimal(rest.strip_prefix(DELIVER[2])?)?;
    let event = rest.strip_prefix(DELIVER[3])?.strip_suffix(DELIVER[4])?;
    Some((sub, publisher, u32::try_from(pub_seq).ok()?, event))
}

/// The body of the first frame of `buf`, once it is complete (see [`decode`]).
fn frame_body(buf: &[u8]) -> Result<Option<&[u8]>, WireError> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]);
    if len > MAX_FRAME {
        return Err(WireError::FrameTooLarge {
            len,
            max: MAX_FRAME,
        });
    }
    Ok(buf.get(4..4 + len as usize))
}

fn decode_body(body: &[u8]) -> Result<Frame, WireError> {
    let body = std::str::from_utf8(body)
        .map_err(|e| WireError::Decode(format!("frame body is not UTF-8: {e}")))?;
    serde_json::from_str(body).map_err(|e| WireError::Decode(e.to_string()))
}

/// Decodes the first complete frame of `buf`, returning it and the number of
/// bytes it occupied. `Ok(None)` means the buffer holds only a frame prefix or
/// a partial body — feed more bytes and retry. Errors are terminal for the
/// connection: a hostile prefix ([`WireError::FrameTooLarge`]) or a body that
/// is not a [`Frame`] ([`WireError::Decode`]).
pub fn decode(buf: &[u8]) -> Result<Option<(Frame, usize)>, WireError> {
    match frame_body(buf)? {
        Some(body) => Ok(Some((decode_body(body)?, 4 + body.len()))),
        None => Ok(None),
    }
}

/// Incremental frame reassembly over a byte stream: feed it whatever chunks
/// the transport produces, take complete frames out. Never allocates based on
/// the length prefix — a hostile prefix errors out at 4 bytes read.
///
/// It also decodes each publication's event once. The reader remembers the
/// `event` member bytes of the last `Deliver` it decoded that is spelled byte
/// for byte as [`write_deliver`] spells it, and the event they decoded to. A
/// following `Deliver` of that spelling whose `event` bytes are the same
/// gets the same [`SharedEvent`] (a reference, not a parse) and has only its
/// three numbers read. Every other frame — another event, another spelling,
/// another frame type — is read by [`decode`], so what the reader returns,
/// errors included, is exactly what [`decode`] returns frame by frame. A
/// broker writes a session's `Deliver`s of one publication back to back, so
/// the last event is the one worth remembering.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed by decoded frames (compacted lazily).
    consumed: usize,
    /// The `event` member bytes of the last canonical `Deliver` decoded, and
    /// the event they hold.
    last_event: Vec<u8>,
    last: Option<SharedEvent>,
}

impl FrameReader {
    /// An empty reader.
    pub fn new() -> Self {
        FrameReader::default()
    }

    /// Appends raw transport bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        // Compact before growing: keeps the buffer near one frame in size.
        if self.consumed > 0 {
            self.buf.drain(..self.consumed);
            self.consumed = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Takes the next complete frame, if one is buffered. `Ok(None)` means
    /// "need more bytes"; errors mean the stream is unrecoverable and the
    /// connection should be dropped.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, WireError> {
        let Some(body) = frame_body(&self.buf[self.consumed..])? else {
            return Ok(None);
        };
        let used = 4 + body.len();
        let canonical = canonical_deliver(body);
        let frame = match (canonical, &self.last) {
            // These event bytes, between these same pieces, decoded to a
            // `Deliver` before — so they hold one event and nothing else (a
            // repeated or unknown member is a decode error) — and the numbers
            // read here are the ones `decode` would read.
            (Some((sub, publisher, pub_seq, event)), Some(last)) if event == self.last_event => {
                Frame::Deliver {
                    sub,
                    publisher,
                    pub_seq,
                    event: last.clone(),
                }
            }
            _ => {
                let frame = decode_body(body)?;
                if let (Some((.., bytes)), Frame::Deliver { event, .. }) = (canonical, &frame) {
                    self.last_event.clear();
                    self.last_event.extend_from_slice(bytes);
                    self.last = Some(event.clone());
                }
                frame
            }
        };
        self.consumed += used;
        Ok(Some(frame))
    }

    /// Called at EOF: a cleanly drained reader returns `Ok(())`; leftover
    /// bytes mean the peer died mid-frame ([`WireError::Truncated`]).
    pub fn finish(&self) -> Result<(), WireError> {
        let rest = &self.buf[self.consumed..];
        if rest.is_empty() {
            return Ok(());
        }
        let need = if rest.len() >= 4 {
            4 + u32::from_be_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize
        } else {
            4
        };
        Err(WireError::Truncated {
            have: rest.len(),
            need,
        })
    }
}

/// Where [`Link::fill`] stopped reading.
pub enum Fill {
    /// Everything that has arrived is buffered; the peer may send more.
    Open,
    /// The peer closed its side: no more bytes will ever come.
    Eof,
    /// The transport failed.
    Failed(std::io::Error),
}

/// One end of a framed connection: the byte stream, a [`FrameReader`] for
/// what arrives and the encoded bytes waiting to leave. No call blocks.
pub struct Link {
    conn: Box<dyn Connection>,
    reader: FrameReader,
    /// Encoded frames the transport has not taken yet ([`write_deliver`]
    /// appends here; its length is what an output cap is checked against).
    pub out: VecDeque<u8>,
}

impl Link {
    /// A link over `conn` with nothing buffered either way.
    pub fn new(conn: Box<dyn Connection>) -> Self {
        Link {
            conn,
            reader: FrameReader::new(),
            out: VecDeque::new(),
        }
    }

    /// Encodes `frame` onto the output buffer (sent by [`Link::flush`]).
    pub fn queue(&mut self, frame: &Frame) -> Result<(), WireError> {
        self.out.extend(encode(frame)?);
        Ok(())
    }

    /// Reads every byte the transport has into the frame reader.
    pub fn fill(&mut self) -> Fill {
        let mut buf = [0u8; 4096];
        loop {
            match self.conn.recv(&mut buf) {
                Ok(0) => return Fill::Eof,
                Ok(n) => self.reader.feed(&buf[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Fill::Open,
                Err(e) => return Fill::Failed(e),
            }
        }
    }

    /// Writes as much buffered output as the transport takes right now; what
    /// is left stays in [`Link::out`].
    pub fn flush(&mut self) -> std::io::Result<()> {
        while !self.out.is_empty() {
            match self.conn.send(self.out.as_slices().0) {
                Ok(0) => break,
                Ok(n) => drop(self.out.drain(..n)),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// The next complete frame read so far ([`FrameReader::next_frame`]).
    pub fn next_frame(&mut self) -> Result<Option<Frame>, WireError> {
        self.reader.next_frame()
    }

    /// After [`Fill::Eof`]: whether the peer stopped mid-frame
    /// ([`FrameReader::finish`]).
    pub fn finish(&self) -> Result<(), WireError> {
        self.reader.finish()
    }

    /// Closes the write side of the connection.
    pub fn shutdown(&mut self) {
        self.conn.shutdown();
    }

    /// What a wait watches to learn that [`Link::fill`] would read something
    /// ([`Connection::readiness`]).
    pub fn readiness(&self) -> Option<std::os::unix::io::RawFd> {
        self.conn.readiness()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_one_frame() {
        let f = Frame::Publish {
            seq: 7,
            event: "price = 150".parse::<dps_content::Event>().unwrap().into(),
        };
        let bytes = encode(&f).unwrap();
        let (back, used) = decode(&bytes).unwrap().unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(back, f);
    }

    #[test]
    fn hostile_length_prefix_is_rejected_before_allocation() {
        let mut buf = u32::MAX.to_be_bytes().to_vec();
        buf.extend_from_slice(b"whatever");
        assert_eq!(
            decode(&buf).unwrap_err(),
            WireError::FrameTooLarge {
                len: u32::MAX,
                max: MAX_FRAME
            }
        );
    }

    #[test]
    fn reader_reassembles_across_arbitrary_chunking() {
        let frames = vec![
            Frame::Hello {
                version: PROTOCOL_VERSION,
                session: None,
            },
            Frame::Credit { sub: 3, more: 16 },
            Frame::Close {
                reason: "done".into(),
            },
        ];
        let mut stream = Vec::new();
        for f in &frames {
            stream.extend_from_slice(&encode(f).unwrap());
        }
        // Feed one byte at a time: every frame still comes out intact.
        let mut r = FrameReader::new();
        let mut got = Vec::new();
        for b in stream {
            r.feed(&[b]);
            while let Some(f) = r.next_frame().unwrap() {
                got.push(f);
            }
        }
        assert_eq!(got, frames);
        r.finish().unwrap();
    }

    #[test]
    fn eof_mid_frame_is_a_named_truncation() {
        let bytes = encode(&Frame::Credit { sub: 1, more: 1 }).unwrap();
        let mut r = FrameReader::new();
        r.feed(&bytes[..bytes.len() - 2]);
        assert_eq!(r.next_frame().unwrap(), None);
        assert_eq!(
            r.finish().unwrap_err(),
            WireError::Truncated {
                have: bytes.len() - 2,
                need: bytes.len(),
            }
        );
    }

    #[test]
    fn garbage_body_is_a_decode_error() {
        let mut buf = 9u32.to_be_bytes().to_vec();
        buf.extend_from_slice(b"not json!");
        assert!(matches!(decode(&buf), Err(WireError::Decode(_))));
    }
}
