//! # deltanet-cli — library backing the `deltanet` command-line tool
//!
//! The binary (`src/main.rs`) is a thin wrapper over this library so that
//! every command is unit-testable:
//!
//! * [`topo_text`] — a line-oriented text format for topologies, the
//!   companion of [`netmodel::trace`]'s trace format, so that datasets can
//!   be written to disk and replayed elsewhere.
//! * [`args`] — dependency-free command-line parsing.
//! * [`commands`] — the `generate`, `replay`, `whatif`, `audit`, … commands.
//! * `paper` — the paper's tables and figures behind `deltanet paper`, and
//!   the per-operation timing statistics `replay` shares with them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod commands;
mod paper;
pub mod topo_text;
