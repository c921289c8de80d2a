//! `sweep-server`: the long-running compute-cache service over the cell
//! store (ROADMAP direction 1), plus the HTTP client the bench CLI's
//! `grid --remote` uses to talk to it.
//!
//! The simulator's results are pure functions of their [`tss::CellKey`],
//! so a sweep service is really a memoized compute cache: a grid request
//! decomposes into content-addressed cells, every cell seen before is a
//! cache hit, every cell two requests share is computed once
//! (single-flight), and everything computed is written back to the shared
//! [`tss::CellStore`] so a restarted server comes back warm. Cache
//! validation borrows the lease shape of Tardis: a stored cell is served
//! only while its embedded `CELL_REV` matches the running code's.
//!
//! The workspace is offline — no hyper, no tokio — so the service is
//! hand-rolled over [`std::net::TcpListener`]: [`http`] is a minimal
//! HTTP/1.1 request/response layer (with chunked streaming for progress
//! events), [`service`] the threaded server around one
//! shared FIFO cell queue, [`client`] the blocking client, and
//! [`signal`] the SIGTERM/SIGINT hook for graceful shutdown.
//!
//! | endpoint | what it does |
//! |---|---|
//! | `POST /v1/grids` | submit a grid request (JSON), get `{id, cells}`; store hits are answered here, never queued; past [`service::MAX_LIVE_GRIDS`] unstreamed grids, evicts the oldest |
//! | `GET /v1/grids/{id}` | stream NDJSON progress + the final report; single-use (404 once the stream has ended) |
//! | `GET /v1/cells/{key}` | one cached cell; `ETag "<CELL_REV>-<key>"`, honors `If-None-Match` |
//! | `GET /v1/healthz` | liveness |
//! | `GET /v1/stats` | cells requested/executed/deduped/cache-hit, queue submitted (cells queued)/abandoned, live `grids` (posted, stream not ended, at most [`service::MAX_LIVE_GRIDS`]) |
//!
//! The accept thread blocks in `accept()`; shutdown wakes it with one
//! loopback connection, so no request waits on a poll period.

#![warn(missing_docs)]
// Unlike the rest of the workspace this crate cannot forbid unsafe: the
// signal module registers a SIGTERM/SIGINT handler through a raw libc
// binding (the only unsafe in the crate — see `signal.rs`).
#![deny(unsafe_op_in_unsafe_fn)]

pub mod client;
pub mod http;
pub mod service;
pub mod signal;

pub use client::{GridRequest, ProgressEvent, RemoteError};
pub use service::{ServerConfig, SweepServer};
