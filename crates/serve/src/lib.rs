//! # sw-serve — the always-on graph query service
//!
//! The paper's engine is a one-shot benchmark harness; this crate is
//! the ROADMAP's "millions of users, heavy traffic" scenario made
//! concrete: a long-lived server that loads a Kronecker graph once and
//! answers a stream of concurrent traversal queries — BFS distance,
//! reachability, k-hop neighbourhood size — over the same framed wire
//! protocol the rank fabric speaks ([`sw_net::framing`], kinds
//! `QUERY`/`RESULT`/`BUSY`).
//!
//! The pipeline is **admission → batcher → MS-BFS sweep → result
//! cache** (DESIGN.md §9):
//!
//! * **Admission** — a bounded queue in front of the worker. A full
//!   queue sheds the query immediately with a structured `BUSY` frame
//!   (queue depth and limit attached) instead of letting latency grow
//!   without bound; per-query deadlines turn into structured
//!   [`sw_net::framing::QueryStatus::Timeout`] answers, never hangs.
//! * **Batcher** — every operation the service offers is a function of
//!   the BFS level array of its root, so the worker coalesces up to 64
//!   distinct queued roots into *one* bit-parallel
//!   [`sw_algos::msbfs`] sweep: one edge pass serves the whole batch.
//! * **Result cache** — an LRU of hot-root level maps; repeat roots
//!   are answered without touching the kernel at all.
//!
//! Every stage reports through the `serve.*` counter namespace (and
//! optional per-query/per-sweep spans) via `sw-trace`, and `swgate`
//! (`sw-bench`) holds those counters exactly to `BENCH_service.json`.
//!
//! ```no_run
//! use sw_graph::{generate_kronecker, KroneckerConfig};
//! use sw_net::framing::QueryOp;
//! use sw_serve::{Client, Response, ServeConfig, Server};
//!
//! let el = generate_kronecker(&KroneckerConfig::graph500(16, 42));
//! let server = Server::start(&el, ServeConfig::default()).unwrap();
//! let mut client = Client::connect(&server.addr()).unwrap();
//! match client.query(QueryOp::Distance, 1, 4242, 0, 0).unwrap() {
//!     Response::Answer(r) => println!("distance = {}", r.value),
//!     Response::Busy(b) => println!("shed at depth {}", b.queue_depth),
//! }
//! ```

#![deny(missing_docs)]

pub mod batcher;
pub mod cache;
pub mod client;
pub mod counters;
pub mod server;
pub mod wire;

pub use client::{Client, Response};
pub use server::{ServeConfig, Server, ServerAddr, SlowQuery};
