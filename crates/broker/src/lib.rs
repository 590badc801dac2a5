//! **dps-broker** — the served half of DPS: a long-lived process hosting a
//! shard of the semantic overlay, spoken to over a framed, versioned wire
//! protocol.
//!
//! Three layers, bottom up:
//!
//! - [`wire`]: the frame codec — length-prefixed JSON frames with a hard size
//!   cap and loud, named decode errors;
//! - [`transport`]: the byte-stream abstraction the frames ride on — Unix
//!   sockets for deployments, in-process channels for deterministic tests —
//!   and [`wait_readable`], the one way either side waits for the other;
//! - [`broker`]: the single-threaded event loop tying a [`dps::Overlay`]
//!   shard to live client sessions, with per-subscription credit-based
//!   backpressure.
//!
//! The `dps-broker` binary wraps [`broker::Broker::serve`] around a Unix
//! socket; the `dps-client` crate implements the client side behind its
//! `Session`/`Publisher`/`Subscriber` handles.

// `deny`, not `forbid`: `poll` holds the one foreign call (`ppoll(2)`) and
// opts out for itself; CI checks that no other file does.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod broker;
mod poll;
pub mod transport;
pub mod wire;

pub use broker::{Broker, BrokerConfig, BrokerStats, LogSink, MAX_OUTBUF, MAX_PENDING};
pub use transport::{
    wait_readable, ChannelTransport, Connection, Listener, Transport, UnixTransport,
};
pub use wire::{Frame, FrameReader, PubRef, WireError, MAX_FRAME, PROTOCOL_VERSION};
