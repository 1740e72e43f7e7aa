//! # service — the Delta-net verification daemon
//!
//! The paper's setting is *real-time* verification of a stream of
//! forwarding updates; this crate turns the [`deltanet`] engine into a
//! long-running daemon for exactly that:
//!
//! * [`json`] — the minimal exact-integer JSON used on the wire: one pull
//!   lexer, which the tree parser and the request decoder both drive.
//! * [`proto`] — the line-delimited ndjson protocol: `insert` / `remove` /
//!   `batch` / `what_if` / `snapshot` / `stats` / `subscribe` / `shutdown`
//!   requests with client ids, structured error replies reusing the
//!   engine's [`UpdateError`](netmodel::checker::UpdateError) /
//!   [`ReplayError`](netmodel::checker::ReplayError) semantics, and the
//!   violation event stream.
//! * [`server`] — the daemon: a bounded ingest queue (backpressure =
//!   blocked senders), windowed batching onto one
//!   [`Session`](deltanet::Session) with applied-prefix acks on failure,
//!   violation fan-out to many subscribers with a drop-with-gap-marker
//!   slow-consumer policy (the engine never blocks on a client), and
//!   optional durability by mounting a checkpointing
//!   [`Journal`](deltanet::Journal) in the session so a restart recovers
//!   and resumes the stream.
//!
//! Everything is std-only (`std::net` + threads) and the protocol is
//! transport-agnostic: the same framing runs over TCP and stdin/stdout,
//! and an async transport can slot in later without protocol changes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod proto;
pub mod server;

pub use json::{obj, parse, Json, JsonError};
pub use proto::{
    batch_request, op_request, parse_request, rule_to_json, ProtoError, Request, RequestBody,
};
pub use server::{serve_stdio, CheckpointSetup, Server, ServiceConfig};
