//! # vpr-trace — synthetic SPEC95-like workload generators
//!
//! The paper drives its simulator with Atom-instrumented Alpha traces of
//! nine SPEC95 benchmarks. Those traces cannot be regenerated here, so
//! this crate substitutes deterministic synthetic models, one per
//! benchmark, that reproduce the four workload properties the renaming
//! schemes are sensitive to — instruction mix, dependence-chain depth,
//! working-set size (cache-miss exposure) and branch predictability. The
//! schemes see a workload only through when values are produced and
//! consumed, which those four axes decide; so absolute IPC differs from
//! the paper, but the relative claims carry over (`tests/paper_claims.rs`
//! pins them).
//!
//! * [`Benchmark`] — the nine-program suite, with the paper's reference
//!   IPC numbers attached;
//! * [`TraceBuilder`] → [`TraceGen`] — an infinite, deterministic
//!   [`DynInst`](vpr_isa::DynInst) iterator for a benchmark;
//! * [`Program`]/[`LoopSpec`]/[`SynthOp`] — the building blocks, public so
//!   users can model their own workloads;
//! * [`paper_example_chain`] — the §3.1 motivating code;
//! * [`write_trace`] / [`TraceFile`] — record any stream to a compact
//!   binary file and replay it later (the repeatability role Atom traces
//!   played in the paper).
//!
//! ## Example
//!
//! ```
//! use vpr_isa::OpClass;
//! use vpr_trace::{Benchmark, TraceBuilder};
//!
//! let mut swim = TraceBuilder::new(Benchmark::Swim).seed(7).build();
//! let window: Vec<_> = (&mut swim).take(1000).collect();
//! assert!(window.iter().any(|d| d.op() == OpClass::FpMul));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod gen;
mod models;
pub mod ops;
mod paper_example;
mod program;
mod trace_file;

pub use gen::TraceGen;
pub use models::{Benchmark, ParseBenchmarkError, TraceBuilder};
pub use paper_example::{paper_example_chain, paper_example_trace};
pub use program::{LoopSpec, Program, StreamKind, StreamSpec, SynthOp};
pub use trace_file::{open_trace, read_trace, read_trace_file, write_trace, TraceFile};
