//! `vpr-serve`: a crash-recoverable sweep service.
//!
//! The batch binaries (`table2`, `fig4`, …) regenerate the paper's
//! artefacts one process invocation at a time. This crate turns the same
//! job execution ([`vpr_bench::jobs`]) into a **long-running daemon**: N
//! clients submit sweep grids over a Unix-domain socket (line-delimited
//! JSON, parsed by the workspace's own [`vpr_snap::manifest`] reader),
//! workers execute them under leases, each distinct job runs once and
//! its identical duplicates reuse the result, and a shared
//! warm-checkpoint store dedups warm passes across tenants.
//!
//! The robustness contract, built from four pieces:
//!
//! 1. **Write-ahead journal** ([`journal`]): every acknowledged job and
//!    every terminal result is fsynced to `jobs.wal` before it is
//!    visible on the wire. A crash (SIGTERM, SIGKILL, power) loses no
//!    accepted work; a restart replays the journal, re-queues unfinished
//!    jobs, and serves finished results without recomputation.
//! 2. **Worker leases** ([`server`]): each job attempt runs under a
//!    deadline; expired leases are reclaimed and retried with capped
//!    exponential backoff ([`vpr_core::par::RetryPolicy`]). An exhausted
//!    budget degrades into the structured NaN failure the batch sweep
//!    reports — a poisoned job can never wedge the queue.
//! 3. **Cross-tenant dedup**: jobs coalesce on their
//!    (workload, seed, scheme-family) key via single-flight locks over
//!    the [`vpr_bench::checkpoints::CheckpointStore`]; a warm pass that
//!    crashes is re-run by the next waiter, and artefacts are deposited
//!    only on success (atomic writes), so nothing torn is ever cached.
//!    Under the same lock, a job whose identical spec already succeeded
//!    reuses that result; failed attempts are never memoised.
//! 4. **Fault hooks**: the daemon consults
//!    [`vpr_snap::faults`] at its four service-specific points —
//!    journal append, lease expiry, client disconnect, worker kill —
//!    and the service fault tests pin that any single injected fault
//!    leaves every client's results byte-identical to a fault-free
//!    serial run.
//!
//! Protocol, journal format, and the operator playbook are documented in
//! `docs/service.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod journal;
pub mod protocol;
pub mod server;

pub use client::Client;
pub use journal::{Journal, Record, JOURNAL_FILE};
pub use protocol::{PollResult, Request};
pub use server::{ServeConfig, Server, STORE_SUBDIR, TELEMETRY_FILE};
