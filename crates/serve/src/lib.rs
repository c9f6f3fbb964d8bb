//! # `wfdl-serve` — the std-only HTTP serving substrate
//!
//! The transport half of `wfdl serve`: a hand-rolled HTTP/1.1 server over
//! [`std::net::TcpListener`] with a fixed worker thread pool, a bounded
//! accept queue, keep-alive connections, graceful drain on shutdown, and
//! the epoch-tagged [`EpochSlot`] used to hot-swap an immutable model
//! under live traffic.
//!
//! This crate knows nothing about Datalog: it routes parsed [`Request`]s
//! into an [`App`] implementation and writes the [`Response`]s back. The
//! wfdl-specific application layer (the `/healthz`, `/query`, `/ingest`
//! and `/stats` endpoints over a `SolvedModel`) lives in the `wfdatalog`
//! façade's `serve` module, which depends on this crate — that direction
//! keeps the substrate reusable and lets the `wfdl` binary use both
//! without a dependency cycle. See `src/README.md` for the threading
//! model and the hot-swap design.
//!
//! The workspace builds fully offline (no tokio, hyper, or libc crate),
//! so everything here — request parsing, the pool, signal handling — is
//! plain `std`.

mod http;
mod server;
mod signal;
mod slot;

pub use http::{HttpError, Limits, Method, Request, Response};
pub use server::{App, Server, ServerConfig, ServerHandle, Stopper};
pub use signal::{
    install_shutdown_signals, request_shutdown, shutdown_requested, wait_for_shutdown,
};
pub use slot::EpochSlot;
