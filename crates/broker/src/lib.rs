//! **dps-broker** — the served half of DPS: a long-lived process hosting a
//! shard of the semantic overlay, spoken to over a framed, versioned wire
//! protocol.
//!
//! Three layers, bottom up:
//!
//! - [`wire`]: the frame codec — length-prefixed JSON frames with a hard size
//!   cap and loud, named decode errors;
//! - [`transport`]: the byte-stream abstraction the frames ride on — Unix
//!   sockets for deployments, in-process channels for deterministic tests;
//! - [`broker`]: the single-threaded event loop tying a [`dps::Overlay`]
//!   shard to live client sessions, with per-subscription credit-based
//!   backpressure.
//!
//! The `dps-broker` binary wraps [`broker::Broker::serve`] around a Unix
//! socket; the `dps-client` crate implements the client side behind its
//! `Session`/`Publisher`/`Subscriber` handles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod broker;
pub mod transport;
pub mod wire;

pub use broker::{Broker, BrokerConfig, LogSink};
pub use transport::{ChannelTransport, Connection, Listener, Transport, UnixTransport};
pub use wire::{Frame, FrameReader, PubRef, WireError, MAX_FRAME, PROTOCOL_VERSION};
