//! Per-benchmark synthetic workload models.
//!
//! The paper evaluates nine SPEC95 programs via Atom-instrumented Alpha
//! traces. Those traces are not reproducible here, so each benchmark is
//! replaced by a *synthetic model*: a small static program whose
//! instruction mix, dependence-chain depth, working-set size and branch
//! predictability match the published characteristics of the benchmark.
//! The renaming schemes under study only observe those four axes, because
//! they react only to when values are produced and consumed (the
//! substitution argument of the crate docs).
//!
//! Models are deliberately simple — a handful of parameterised loops — and
//! deterministic given a seed.

mod apsi;
mod compress;
mod go;
mod hydro2d;
mod li;
mod mgrid;
mod swim;
mod vortex;
mod wave5;

use crate::{Program, TraceGen};
use std::fmt;
use std::str::FromStr;

/// The SPEC95 subset evaluated in the paper (§4.1): four integer and five
/// floating-point programs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Benchmark {
    /// SPECint95 `go` — game tree search: branchy, hard-to-predict integer
    /// code with small working set.
    Go,
    /// SPECint95 `li` — Lisp interpreter: pointer chasing and moderately
    /// predictable branches.
    Li,
    /// SPECint95 `compress` — dictionary compression: table lookups over a
    /// large buffer, mostly independent iterations.
    Compress,
    /// SPECint95 `vortex` — object database: predictable branches, lots of
    /// loads/stores.
    Vortex,
    /// SPECfp95 `apsi` — pollutant distribution: mixed streaming and
    /// compute loops with divisions.
    Apsi,
    /// SPECfp95 `swim` — shallow-water stencil: large-array streaming,
    /// high miss rate, abundant memory parallelism.
    Swim,
    /// SPECfp95 `mgrid` — multigrid solver: stencil sweeps over large
    /// grids, deep FP chains.
    Mgrid,
    /// SPECfp95 `hydro2d` — hydrodynamics: cache-resident, high-ILP FP.
    Hydro2d,
    /// SPECfp95 `wave5` — plasma simulation: accumulation chains that
    /// limit achievable parallelism.
    Wave5,
}

impl Benchmark {
    /// All nine benchmarks, integer first (the paper's table order).
    pub const ALL: [Benchmark; 9] = [
        Benchmark::Go,
        Benchmark::Li,
        Benchmark::Compress,
        Benchmark::Vortex,
        Benchmark::Apsi,
        Benchmark::Swim,
        Benchmark::Mgrid,
        Benchmark::Hydro2d,
        Benchmark::Wave5,
    ];

    /// The integer subset.
    pub const INTEGER: [Benchmark; 4] = [
        Benchmark::Go,
        Benchmark::Li,
        Benchmark::Compress,
        Benchmark::Vortex,
    ];

    /// The floating-point subset.
    pub const FP: [Benchmark; 5] = [
        Benchmark::Apsi,
        Benchmark::Swim,
        Benchmark::Mgrid,
        Benchmark::Hydro2d,
        Benchmark::Wave5,
    ];

    /// Lower-case benchmark name as printed in the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            Benchmark::Go => "go",
            Benchmark::Li => "li",
            Benchmark::Compress => "compress",
            Benchmark::Vortex => "vortex",
            Benchmark::Apsi => "apsi",
            Benchmark::Swim => "swim",
            Benchmark::Mgrid => "mgrid",
            Benchmark::Hydro2d => "hydro2d",
            Benchmark::Wave5 => "wave5",
        }
    }

    /// True for the floating-point subset.
    pub fn is_fp(&self) -> bool {
        Benchmark::FP.contains(self)
    }

    /// The static synthetic program modelling this benchmark.
    pub fn program(&self) -> Program {
        match self {
            Benchmark::Go => go::program(),
            Benchmark::Li => li::program(),
            Benchmark::Compress => compress::program(),
            Benchmark::Vortex => vortex::program(),
            Benchmark::Apsi => apsi::program(),
            Benchmark::Swim => swim::program(),
            Benchmark::Mgrid => mgrid::program(),
            Benchmark::Hydro2d => hydro2d::program(),
            Benchmark::Wave5 => wave5::program(),
        }
    }

    /// IPC the paper reports for the conventional scheme at 64 physical
    /// registers (Table 2) — the reference point our reproduction aims to
    /// approximate in *shape*, not absolute value.
    pub fn paper_conventional_ipc(&self) -> f64 {
        match self {
            Benchmark::Go => 0.73,
            Benchmark::Li => 0.98,
            Benchmark::Compress => 1.75,
            Benchmark::Vortex => 1.14,
            Benchmark::Apsi => 1.37,
            Benchmark::Swim => 1.12,
            Benchmark::Mgrid => 1.32,
            Benchmark::Hydro2d => 2.16,
            Benchmark::Wave5 => 1.64,
        }
    }

    /// IPC the paper reports for the virtual-physical scheme with
    /// write-back allocation, NRR = 32, 64 physical registers (Table 2).
    pub fn paper_vp_writeback_ipc(&self) -> f64 {
        match self {
            Benchmark::Go => 0.76,
            Benchmark::Li => 1.05,
            Benchmark::Compress => 1.84,
            Benchmark::Vortex => 1.24,
            Benchmark::Apsi => 1.76,
            Benchmark::Swim => 2.06,
            Benchmark::Mgrid => 2.09,
            Benchmark::Hydro2d => 2.24,
            Benchmark::Wave5 => 1.71,
        }
    }

    /// Table 2's percentage improvement for this benchmark.
    pub fn paper_improvement_percent(&self) -> f64 {
        (self.paper_vp_writeback_ipc() / self.paper_conventional_ipc() - 1.0) * 100.0
    }
}

impl fmt::Display for Benchmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned when parsing an unknown benchmark name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBenchmarkError(String);

impl fmt::Display for ParseBenchmarkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown benchmark `{}`", self.0)
    }
}

impl std::error::Error for ParseBenchmarkError {}

impl FromStr for Benchmark {
    type Err = ParseBenchmarkError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Benchmark::ALL
            .into_iter()
            .find(|b| b.name() == s)
            .ok_or_else(|| ParseBenchmarkError(s.to_owned()))
    }
}

/// Builds a deterministic synthetic trace for a benchmark.
///
/// ```
/// use vpr_trace::{Benchmark, TraceBuilder};
/// let mut trace = TraceBuilder::new(Benchmark::Swim).seed(42).build();
/// let first = trace.next().expect("traces are infinite");
/// let again = TraceBuilder::new(Benchmark::Swim).seed(42).build().next();
/// assert_eq!(Some(first), again);
/// ```
#[derive(Debug, Clone)]
pub struct TraceBuilder {
    benchmark: Benchmark,
    seed: u64,
}

impl TraceBuilder {
    /// Starts a builder for `benchmark` with the default seed (0).
    pub fn new(benchmark: Benchmark) -> Self {
        Self { benchmark, seed: 0 }
    }

    /// Sets the generator seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builds the infinite trace generator.
    pub fn build(&self) -> TraceGen {
        TraceGen::new(self.benchmark.program(), self.seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpr_isa::OpClass;

    #[test]
    fn every_model_validates_and_generates() {
        for b in Benchmark::ALL {
            let mut t = TraceBuilder::new(b).seed(1).build();
            let insts: Vec<_> = (&mut t).take(20_000).collect();
            assert_eq!(insts.len(), 20_000, "{b}: traces are infinite");
            // The committed path is coherent.
            for w in insts.windows(2) {
                assert_eq!(w[0].next_pc(), w[1].pc(), "{b}");
            }
        }
    }

    #[test]
    fn fp_benchmarks_are_fp_heavy_and_int_ones_are_not() {
        for b in Benchmark::ALL {
            let insts: Vec<_> = TraceBuilder::new(b).seed(2).build().take(30_000).collect();
            let fp_ops = insts
                .iter()
                .filter(|d| {
                    matches!(
                        d.op(),
                        OpClass::FpAdd | OpClass::FpMul | OpClass::FpDiv | OpClass::FpSqrt
                    ) || (d.op() == OpClass::Load
                        && d.inst()
                            .dest()
                            .is_some_and(|r| r.class() == vpr_isa::RegClass::Fp))
                })
                .count();
            let frac = fp_ops as f64 / insts.len() as f64;
            if b.is_fp() {
                assert!(frac > 0.3, "{b}: FP fraction {frac:.2} too low");
            } else {
                assert!(
                    frac < 0.05,
                    "{b}: FP fraction {frac:.2} too high for integer code"
                );
            }
        }
    }

    #[test]
    fn branch_density_separates_go_from_fp_codes() {
        let density = |b: Benchmark| {
            let insts: Vec<_> = TraceBuilder::new(b).seed(3).build().take(30_000).collect();
            insts
                .iter()
                .filter(|d| d.op() == OpClass::BranchCond)
                .count() as f64
                / insts.len() as f64
        };
        assert!(density(Benchmark::Go) > 2.0 * density(Benchmark::Swim));
    }

    #[test]
    fn names_round_trip() {
        for b in Benchmark::ALL {
            assert_eq!(b.name().parse::<Benchmark>().unwrap(), b);
        }
        assert!("gcc".parse::<Benchmark>().is_err());
    }

    #[test]
    fn paper_numbers_match_table2() {
        // Harmonic means of the Table 2 columns: 1.23 and 1.46 (+19%).
        let conv: Vec<f64> = Benchmark::ALL
            .iter()
            .map(|b| b.paper_conventional_ipc())
            .collect();
        let vp: Vec<f64> = Benchmark::ALL
            .iter()
            .map(|b| b.paper_vp_writeback_ipc())
            .collect();
        let hm = |v: &[f64]| v.len() as f64 / v.iter().map(|x| 1.0 / x).sum::<f64>();
        assert!((hm(&conv) - 1.23).abs() < 0.01);
        assert!((hm(&vp) - 1.46).abs() < 0.01);
        assert!((Benchmark::Swim.paper_improvement_percent() - 84.0).abs() < 1.0);
    }
}
