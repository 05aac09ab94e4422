//! Distributed top-k query execution, simulated.
//!
//! Section 5 of the paper motivates BPA2 with distributed systems: "in a
//! distributed system, BPA needs to retrieve the position of each accessed
//! data item and keep the seen positions at the query originator … thus
//! incurring communication cost", and the evaluation argues that "the
//! number of messages … is proportional to the number of accesses done to
//! the lists".
//!
//! This crate simulates that setting in process:
//!
//! * every sorted list is held by a [`ListOwner`] node that also manages
//!   the list's best position (as BPA2 prescribes),
//! * the [`ClusterRuntime`] ([`runtime`]) runs one worker thread per list
//!   owner behind request/reply channels and serves any number of
//!   concurrent, isolated query sessions ([`AsyncClusterSources`]),
//! * a session adapts the backend-generic
//!   [`SourceSet`](topk_lists::source::SourceSet) API onto typed
//!   [`message`]s, one exchange per access, so the *same* `topk_core`
//!   algorithms execute distributed with no re-implementation — pick one
//!   with [`AlgorithmKind`](topk_core::AlgorithmKind) and call
//!   [`run_on`](topk_core::TopKAlgorithm::run_on),
//! * every session counts each message, its payload, a per-round
//!   breakdown, and — under a pluggable, deterministic [`LatencyModel`] —
//!   the *simulated time* of two schedules per round: every exchange
//!   serialized versus in-round requests overlapped across owners
//!   ([`NetworkStats`], [`RoundStats`]). Cutting *rounds* (the paper's
//!   BPA2 argument) is exactly what makes the overlapped makespan drop,
//! * the resulting [`NetworkStats`] quantify the communication-cost claims:
//!   BPA2 sends fewer messages than BPA (fewer accesses) *and* smaller ones
//!   (no positions shipped to the originator).
//!
//! The simulation is deterministic: latencies come from the seeded
//! [`LatencyModel`], never from the host clock, so the same run always
//! reports the same figures.
//!
//! ```
//! use topk_core::examples_paper::figure2_database;
//! use topk_core::{AlgorithmKind, TopKQuery};
//! use topk_distributed::ClusterRuntime;
//!
//! let db = figure2_database();
//! let runtime = ClusterRuntime::spawn(&db);
//! let mut session = runtime.connect();
//! let result = AlgorithmKind::Bpa2
//!     .create()
//!     .run_on(&mut session, &TopKQuery::top(3))
//!     .unwrap();
//! assert_eq!(result.len(), 3);
//! let network = session.network();
//! // One request and one response per access: 36 accesses -> 72 messages.
//! assert_eq!(network.messages, 72);
//! // Four originator rounds, accounted message by message.
//! assert_eq!(network.rounds(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod fault;
pub mod latency;
pub mod message;
pub mod owner;
#[cfg(test)]
mod protocol;
pub mod runtime;
mod source;

pub use cluster::{NetworkStats, RoundStats};
pub use fault::{FaultKind, FaultPlan, FaultStats, RetryPolicy};
pub use latency::{format_nanos, LatencyModel};
pub use message::{Request, Response};
pub use owner::ListOwner;
pub use runtime::{AsyncClusterSources, ClusterRuntime, SessionOptions};
