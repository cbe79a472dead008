//! `bce-serve`: a hardened, long-running emulation service.
//!
//! The daemon accepts scenario and state-file submissions over a
//! hand-rolled HTTP/1.1 subset (the workspace stays dependency-free) and
//! runs them through the supervised, checkpointing executor. Its
//! robustness contract:
//!
//! - **Bounded everything.** A fixed worker pool behind an explicit
//!   [`AdmissionQueue`]; when the queue is full the connection is shed
//!   immediately with `503 + Retry-After`. Header, body, and header-count
//!   caps reject oversized requests before buffering them.
//! - **Budgeted requests.** Each `/campaign` carries a wall-clock
//!   deadline; work proceeds in checkpointed chunks (the executor's
//!   `stop_after_runs`) so an expired budget parks the campaign rather
//!   than truncating it.
//! - **No wedged workers.** Socket read/write timeouts bound slow-loris
//!   clients; malformed and oversized input maps to typed `4xx`; panics
//!   are quarantined per request (`catch_unwind` at the route layer, the
//!   supervised executor underneath).
//! - **No polling.** The acceptor blocks in `accept(2)`; a drain wakes
//!   it with one connection to its own listener, and SIGTERM/SIGINT
//!   reach the drain through a self-pipe ([`signal`]). No timed sleep
//!   sits between a connection arriving and a worker receiving it.
//! - **Graceful drain.** SIGTERM/SIGINT (or [`ServerHandle::drain`])
//!   stops admission, finishes admitted work, parks campaigns at a chunk
//!   boundary with their checkpoint persisted, and exits. A restarted
//!   daemon resumes a parked campaign bit-identically — the CI smoke
//!   job diffs the resumed table against an uninterrupted reference.
//! - **Observable.** `/healthz`, `/readyz`, `/metrics` (the `bce-obs`
//!   registry, with request-latency and queue-wait histograms), and
//!   `/trace` (the last run's typed trace as JSONL).

pub mod http;
pub mod queue;
pub mod signal;
pub mod wall;

mod handlers;
mod server;

pub use http::{error_response, read_request, HttpError, Request, Response};
pub use queue::{AdmissionQueue, Rejection};
pub use server::{ServeConfig, ServeSummary, Server, ServerHandle};
pub use wall::{retry_io, retry_io_with, WallRetry, ACCEPT_RETRY, CHECKPOINT_RETRY};
