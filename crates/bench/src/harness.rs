//! Shared simulation driver for all experiments, plus host-side
//! throughput instrumentation.
//!
//! Besides the paper-facing [`run_benchmark`] driver, this module measures
//! the *simulator's own* speed: [`measure_throughput`] times the quick
//! table2 workload under all four renaming schemes and reports simulated
//! committed instructions per host second (**sim-MIPS**), and
//! [`write_throughput_json`] records the result as machine-readable
//! `BENCH_throughput.json` so every PR leaves a perf trajectory.

use crate::jobs::JobSpec;
use crate::sweep::{json_escape, run_sweep, SweepPoint};
use crate::workloads::Workload;
use std::fmt::Write as _;
use std::time::Instant;
use vpr_core::{
    harmonic_mean, par, Processor, RenameScheme, SimConfig, SimStats, Stage, StageProfile,
};
use vpr_trace::TraceBuilder;

/// How much to simulate and with which trace seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExperimentConfig {
    /// Committed instructions to skip before measuring (the paper skips
    /// 100 M; the synthetic models reach steady state much sooner).
    pub warmup: u64,
    /// Committed instructions in the measurement window (the paper
    /// measures 50 M).
    pub measure: u64,
    /// Trace-generator seed.
    pub seed: u64,
    /// L1 miss penalty in cycles (the paper uses 50, with a 20-cycle
    /// sensitivity point for Table 2).
    pub miss_penalty: u64,
    /// Worker threads for sweeps (`0` = one per host core). Purely a
    /// host-side knob: sweep outputs are byte-identical for every value
    /// (see [`crate::sweep`]).
    pub jobs: usize,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self {
            warmup: 50_000,
            measure: 500_000,
            seed: 42,
            miss_penalty: 50,
            jobs: 0,
        }
    }
}

impl ExperimentConfig {
    /// A fast configuration for tests and smoke runs.
    pub fn quick() -> Self {
        Self {
            warmup: 2_000,
            measure: 30_000,
            ..Self::default()
        }
    }

    /// The sweep worker count this configuration resolves to.
    pub fn effective_jobs(&self) -> usize {
        if self.jobs == 0 {
            par::default_jobs()
        } else {
            self.jobs
        }
    }

    /// Parses `--warmup N`, `--measure N`, `--seed N`, `--miss-penalty N`,
    /// `--jobs N` from a command line, starting from the defaults.
    ///
    /// # Errors
    ///
    /// Returns a message for unknown flags or unparsable values.
    pub fn from_args<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut cfg = Self::default();
        cfg.apply_args(args)?;
        Ok(cfg)
    }

    /// Parses the shared experiment flags onto `self` (whatever base —
    /// [`ExperimentConfig::default`] or [`ExperimentConfig::quick`] — the
    /// caller started from). Binaries with extra flags extract those via
    /// [`crate::take_flag_value`] first and hand the rest here, so the
    /// flag set is parsed in exactly one place.
    ///
    /// # Errors
    ///
    /// Returns a message for unknown flags or unparsable values.
    pub fn apply_args<I: IntoIterator<Item = String>>(&mut self, args: I) -> Result<(), String> {
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let mut take = |name: &str| -> Result<u64, String> {
                it.next()
                    .ok_or_else(|| format!("{name} needs a value"))?
                    .parse::<u64>()
                    .map_err(|e| format!("bad value for {name}: {e}"))
            };
            match flag.as_str() {
                "--warmup" => self.warmup = take("--warmup")?,
                "--measure" => self.measure = take("--measure")?,
                "--seed" => self.seed = take("--seed")?,
                "--miss-penalty" => self.miss_penalty = take("--miss-penalty")?,
                "--jobs" => self.jobs = take("--jobs")? as usize,
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        Ok(())
    }
}

/// Runs one workload (synthetic benchmark or assembled program) under one
/// scheme and register-file size, returning the measurement-window
/// statistics. Accepts anything convertible into a [`Workload`], so
/// `run_benchmark(Benchmark::Swim, ..)` call sites read unchanged.
pub fn run_benchmark(
    workload: impl Into<Workload>,
    scheme: RenameScheme,
    physical_regs: usize,
    exp: &ExperimentConfig,
) -> SimStats {
    run_benchmark_observed(workload, scheme, physical_regs, exp, vpr_core::NoObs).0
}

/// [`run_benchmark`] with a lifecycle observer attached, returning both
/// the measurement-window statistics and the observer it fed.
///
/// The observer is reset at the measurement-window boundary, so its
/// metrics cover *exactly* the measured instructions — the same window
/// [`SimStats`] covers, and the same window a checkpoint-restored run
/// measures. With [`vpr_core::NoObs`] this monomorphises back to
/// [`run_benchmark`] exactly (zero-overhead contract, see
/// `docs/observability.md`). Both are the store-less case of the one
/// point executor, [`crate::jobs::execute_job_with`].
pub fn run_benchmark_observed<O: vpr_core::PipeObserver + Clone>(
    workload: impl Into<Workload>,
    scheme: RenameScheme,
    physical_regs: usize,
    exp: &ExperimentConfig,
    obs: O,
) -> (SimStats, O) {
    let spec = JobSpec {
        workload: workload.into(),
        scheme,
        physical_regs,
        exp: *exp,
    };
    let run = crate::jobs::execute_job_with(&spec, None, obs);
    (run.stats, run.obs)
}

// ----------------------------------------------------------------------
// Simulator throughput (sim-MIPS)
// ----------------------------------------------------------------------

pub use crate::workloads::{scheme_label, THROUGHPUT_BENCHMARKS, THROUGHPUT_SCHEMES};

/// A fixed-work host-speed reference measurement.
///
/// The sim-MIPS numbers in `BENCH_throughput.json` are hostage to the
/// build host's momentary load: the shared runner swings tens of percent
/// minute to minute. Recording how fast the *same fixed arithmetic
/// workload* runs next to every sweep lets a reader (or a future gate)
/// judge sim-MIPS regressions load-independently via
/// [`ThroughputReport::sim_mips_per_host_mops`]: simulator work per unit
/// of host capability rather than per wall-clock second.
#[derive(Debug, Clone, Copy)]
pub struct HostCalibration {
    /// Operations executed (fixed across runs and hosts).
    pub ops: u64,
    /// Wall-clock seconds the reference loop took (best of 3).
    pub seconds: f64,
    /// Millions of reference operations per second.
    pub mops: f64,
}

/// Reference operation count for [`calibrate_host`]. Fixed forever: the
/// recorded `mops` figures are only comparable across reports because the
/// work is identical.
pub const HOST_CALIBRATION_OPS: u64 = 1 << 26;

/// Times the fixed xorshift64* reference loop (best of 3 runs, to shed
/// scheduler noise the same way the sim timings do). Dependency-free and
/// allocation-free: the loop is pure register arithmetic, so its speed
/// tracks the host's scalar throughput — the same resource the simulator
/// kernel is bound by.
pub fn calibrate_host() -> HostCalibration {
    let mut best = f64::INFINITY;
    for round in 0..3u64 {
        let start = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ (round + 1);
        let mut acc = 0u64;
        for _ in 0..HOST_CALIBRATION_OPS {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            acc = acc.wrapping_add(x.wrapping_mul(0x2545_F491_4F6C_DD1D));
        }
        std::hint::black_box(acc);
        best = best.min(start.elapsed().as_secs_f64().max(1e-9));
    }
    HostCalibration {
        ops: HOST_CALIBRATION_OPS,
        seconds: best,
        mops: HOST_CALIBRATION_OPS as f64 / best / 1e6,
    }
}

/// One timed simulation: how fast the *simulator* ran, not the simulated
/// machine.
#[derive(Debug, Clone)]
pub struct ThroughputRun {
    /// `"<benchmark>/<scheme>"`.
    pub label: String,
    /// Simulated instructions committed (warm-up plus measurement window).
    pub committed: u64,
    /// Simulated cycles covered in the same span.
    pub cycles: u64,
    /// Host wall-clock seconds for the whole run, including trace
    /// generation and processor construction.
    pub host_seconds: f64,
    /// Simulated committed instructions per host second, in millions.
    pub sim_mips: f64,
    /// IPC of the measurement window (sanity anchor: the *simulated*
    /// performance must not change when the kernel gets faster).
    pub ipc: f64,
}

/// Wall-clock timing of the whole sweep run through the parallel engine,
/// next to the serial per-run timings.
#[derive(Debug, Clone, Copy)]
pub struct SweepTiming {
    /// Worker threads the parallel sweep used.
    pub jobs: usize,
    /// Wall-clock seconds for the whole grid under [`run_sweep`].
    pub wall_seconds: f64,
    /// Sum of the serial per-run host seconds (the best-of-N minima) —
    /// the wall-clock a one-worker sweep would need.
    pub serial_seconds: f64,
}

/// The full throughput sweep produced by [`measure_throughput`].
#[derive(Debug, Clone)]
pub struct ThroughputReport {
    /// The experiment configuration the sweep ran under.
    pub config: ExperimentConfig,
    /// Timed repetitions per configuration; each run reports its fastest
    /// (repetitions exist to shed scheduler noise, not to change what is
    /// measured — the simulated outcome is identical every time).
    pub runs_per_config: usize,
    /// One entry per (benchmark, scheme) pair.
    pub runs: Vec<ThroughputRun>,
    /// Parallel-sweep wall-clock measurement.
    pub sweep: SweepTiming,
    /// The host-speed reference measured next to the sweep.
    pub host: HostCalibration,
    /// Free-form notes recorded into the artefact (PR context, observed
    /// speedups, host caveats); empty when none were given.
    pub notes: String,
    /// Per-stage host-cost attribution over the whole grid (see
    /// [`profile_throughput`]); `None` unless `--profile` was requested.
    pub profile: Option<StageProfile>,
}

impl ThroughputReport {
    /// Harmonic mean of the per-run sim-MIPS figures (matches how the
    /// paper aggregates IPC, and penalises slow outliers).
    pub fn harmonic_mean_sim_mips(&self) -> f64 {
        let rates: Vec<f64> = self.runs.iter().map(|r| r.sim_mips).collect();
        harmonic_mean(&rates)
    }

    /// Harmonic-mean sim-MIPS per million host reference operations per
    /// second — the load-independent throughput figure (see
    /// [`HostCalibration`]).
    pub fn sim_mips_per_host_mops(&self) -> f64 {
        if self.host.mops == 0.0 {
            0.0
        } else {
            self.harmonic_mean_sim_mips() / self.host.mops
        }
    }

    /// Harmonic-mean sim-MIPS over the `go/*` rows only — the
    /// mispredict-shadow workload the event-driven governor targets, and
    /// the per-workload micro-gate's numerator.
    pub fn go_harmonic_sim_mips(&self) -> f64 {
        let rates: Vec<f64> = self
            .runs
            .iter()
            .filter(|r| r.label.starts_with("go/"))
            .map(|r| r.sim_mips)
            .collect();
        if rates.is_empty() {
            0.0
        } else {
            harmonic_mean(&rates)
        }
    }

    /// [`ThroughputReport::go_harmonic_sim_mips`] per host Mops — the
    /// host-calibrated `go` figure the CI micro-gate compares.
    pub fn go_sim_mips_per_host_mops(&self) -> f64 {
        if self.host.mops == 0.0 {
            0.0
        } else {
            self.go_harmonic_sim_mips() / self.host.mops
        }
    }

    /// Renders the report as a small, stable JSON document
    /// (`vpr-bench-throughput/v5`). Hand-rolled: the build environment has
    /// no serde. v2 added `runs_per_config` (per-run sim-MIPS is the best
    /// of that many timed repetitions) and the `sweep` wall-clock block
    /// for the parallel engine; v3 added the `host_calibration` block and
    /// `sim_mips_per_host_mops`, so sim-MIPS regressions can be judged
    /// independently of the runner's momentary load; v4 adds
    /// `go_sim_mips_per_host_mops` (the `go` micro-gate figure) and the
    /// free-form `notes` string; v5 adds the optional `profile` block
    /// (per-stage host-ns and event counts, present only for `--profile`
    /// runs — the key is omitted otherwise).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n  \"schema\": \"vpr-bench-throughput/v5\",\n");
        let _ = writeln!(
            s,
            "  \"config\": {{\"warmup\": {}, \"measure\": {}, \"seed\": {}, \"miss_penalty\": {}}},",
            self.config.warmup, self.config.measure, self.config.seed, self.config.miss_penalty
        );
        let _ = writeln!(s, "  \"runs_per_config\": {},", self.runs_per_config);
        s.push_str("  \"runs\": [\n");
        for (i, r) in self.runs.iter().enumerate() {
            let _ = write!(
                s,
                "    {{\"label\": \"{}\", \"committed\": {}, \"cycles\": {}, \
                 \"host_seconds\": {:.6}, \"sim_mips\": {:.3}, \"ipc\": {:.4}}}",
                r.label, r.committed, r.cycles, r.host_seconds, r.sim_mips, r.ipc
            );
            s.push_str(if i + 1 < self.runs.len() { ",\n" } else { "\n" });
        }
        s.push_str("  ],\n");
        let _ = writeln!(
            s,
            "  \"harmonic_mean_sim_mips\": {:.3},",
            self.harmonic_mean_sim_mips()
        );
        let _ = writeln!(
            s,
            "  \"sweep\": {{\"jobs\": {}, \"wall_seconds\": {:.6}, \"serial_seconds\": {:.6}}},",
            self.sweep.jobs, self.sweep.wall_seconds, self.sweep.serial_seconds
        );
        let _ = writeln!(
            s,
            "  \"host_calibration\": {{\"ops\": {}, \"seconds\": {:.6}, \"mops\": {:.3}}},",
            self.host.ops, self.host.seconds, self.host.mops
        );
        let _ = writeln!(
            s,
            "  \"sim_mips_per_host_mops\": {:.6},",
            self.sim_mips_per_host_mops()
        );
        let _ = writeln!(
            s,
            "  \"go_sim_mips_per_host_mops\": {:.6},",
            self.go_sim_mips_per_host_mops()
        );
        if let Some(p) = &self.profile {
            let _ = writeln!(
                s,
                "  \"profile\": {{\"steps\": {}, \"total_ns\": {}, \"stages\": [",
                p.steps,
                p.total_ns()
            );
            for (i, stage) in Stage::ALL.iter().enumerate() {
                let rec = p.stage(*stage);
                let _ = write!(
                    s,
                    "    {{\"stage\": \"{}\", \"ns\": {}, \"events\": {}}}",
                    stage.name(),
                    rec.ns,
                    rec.events
                );
                s.push_str(if i + 1 < Stage::ALL.len() {
                    ",\n"
                } else {
                    "\n"
                });
            }
            s.push_str("  ]},\n");
        }
        let _ = writeln!(s, "  \"notes\": \"{}\"", json_escape(&self.notes));
        s.push_str("}\n");
        s
    }
}

/// Times one `(benchmark, scheme)` simulation end to end and converts it
/// to sim-MIPS. With `repeats > 1` the simulation is run that many times
/// and the fastest wall-clock is reported — the simulated outcome is
/// deterministic, so repetition only sheds host scheduler noise.
pub fn time_one_best(
    workload: impl Into<Workload>,
    scheme: RenameScheme,
    exp: &ExperimentConfig,
    repeats: usize,
) -> ThroughputRun {
    let workload = workload.into();
    let mut best: Option<ThroughputRun> = None;
    for _ in 0..repeats.max(1) {
        let start = Instant::now();
        let config = SimConfig::builder()
            .scheme(scheme)
            .physical_regs(64)
            .miss_penalty(exp.miss_penalty)
            .build();
        let mut cpu = Processor::new(config, workload.stream(exp.seed));
        cpu.warm_up(exp.warmup);
        let stats = cpu.run(exp.measure);
        let host_seconds = start.elapsed().as_secs_f64().max(1e-9);
        let committed = exp.warmup + stats.committed;
        let run = ThroughputRun {
            label: format!("{}/{}", workload.name(), scheme_label(scheme)),
            committed,
            cycles: cpu.cycle(),
            host_seconds,
            sim_mips: committed as f64 / host_seconds / 1e6,
            ipc: stats.ipc(),
        };
        if best
            .as_ref()
            .is_none_or(|b| run.host_seconds < b.host_seconds)
        {
            best = Some(run);
        }
    }
    best.expect("repeats >= 1")
}

/// Times one `(benchmark, scheme)` simulation end to end and converts it
/// to sim-MIPS.
pub fn time_one(
    workload: impl Into<Workload>,
    scheme: RenameScheme,
    exp: &ExperimentConfig,
) -> ThroughputRun {
    time_one_best(workload, scheme, exp, 1)
}

/// The throughput grid: [`THROUGHPUT_BENCHMARKS`] × [`THROUGHPUT_SCHEMES`]
/// at 64 registers per class.
pub fn throughput_points() -> Vec<SweepPoint> {
    crate::workloads::throughput_grid()
        .into_iter()
        .map(|(benchmark, scheme)| SweepPoint::at64(benchmark, scheme))
        .collect()
}

/// Runs the throughput sweep: each grid point timed serially
/// (`runs_per_config` repetitions, fastest kept), then the whole grid
/// once more through the parallel engine for the sweep wall-clock.
pub fn measure_throughput(exp: &ExperimentConfig, runs_per_config: usize) -> ThroughputReport {
    let mut runs = Vec::new();
    for benchmark in THROUGHPUT_BENCHMARKS {
        for scheme in THROUGHPUT_SCHEMES {
            runs.push(time_one_best(benchmark, scheme, exp, runs_per_config));
        }
    }
    let points = throughput_points();
    let wall = Instant::now();
    let sweep_stats = run_sweep(&points, exp);
    let wall_seconds = wall.elapsed().as_secs_f64().max(1e-9);
    debug_assert_eq!(sweep_stats.len(), runs.len());
    ThroughputReport {
        config: *exp,
        runs_per_config: runs_per_config.max(1),
        sweep: SweepTiming {
            jobs: exp.effective_jobs(),
            wall_seconds,
            serial_seconds: runs.iter().map(|r| r.host_seconds).sum(),
        },
        host: calibrate_host(),
        runs,
        notes: String::new(),
        profile: None,
    }
}

/// Runs the whole throughput grid once more in profile mode — every
/// active cycle stepped through `Processor::step_profiled` — and returns
/// the merged per-stage host-cost attribution (`throughput --profile`,
/// schema v5's `profile` block).
///
/// Profiled stepping pays two monotonic-clock reads per stage per active
/// cycle, so this runs *separately from* (and slower than) the timed
/// sweep: the sim-MIPS figures stay clean, and the profile explains them.
/// The event counts are architectural and deterministic; only the ns
/// attributions carry host noise.
pub fn profile_throughput(exp: &ExperimentConfig) -> StageProfile {
    let mut total = StageProfile::new();
    for benchmark in THROUGHPUT_BENCHMARKS {
        for scheme in THROUGHPUT_SCHEMES {
            let config = SimConfig::builder()
                .scheme(scheme)
                .physical_regs(64)
                .miss_penalty(exp.miss_penalty)
                .build();
            let trace = TraceBuilder::new(benchmark).seed(exp.seed).build();
            let mut cpu = Processor::new(config, trace);
            let mut prof = StageProfile::new();
            cpu.run_profiled(exp.warmup + exp.measure, &mut prof);
            total.merge(&prof);
        }
    }
    total
}

/// Writes `report` to `path` as `BENCH_throughput.json`.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_throughput_json(
    path: &std::path::Path,
    report: &ThroughputReport,
) -> std::io::Result<()> {
    std::fs::write(path, report.to_json())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpr_trace::Benchmark;

    #[test]
    fn arg_parsing_round_trip() {
        let cfg = ExperimentConfig::from_args(
            ["--measure", "1000", "--seed", "7", "--miss-penalty", "20"].map(String::from),
        )
        .unwrap();
        assert_eq!(cfg.measure, 1000);
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.miss_penalty, 20);
        assert_eq!(cfg.warmup, ExperimentConfig::default().warmup);
        assert!(ExperimentConfig::from_args(["--bogus".to_string()]).is_err());
        assert!(ExperimentConfig::from_args(["--seed".to_string()]).is_err());
    }

    #[test]
    fn run_produces_sane_stats() {
        let exp = ExperimentConfig {
            warmup: 500,
            measure: 5_000,
            ..ExperimentConfig::default()
        };
        let s = run_benchmark(Benchmark::Swim, RenameScheme::Conventional, 64, &exp);
        assert!(s.committed >= 5_000);
        assert!(s.ipc() > 0.1 && s.ipc() < 8.0);
    }

    #[test]
    fn throughput_report_is_sane_and_serialises() {
        let exp = ExperimentConfig {
            warmup: 200,
            measure: 2_000,
            ..ExperimentConfig::default()
        };
        let run = time_one(Benchmark::Swim, RenameScheme::Conventional, &exp);
        assert!(run.committed >= 2_200);
        assert!(run.sim_mips > 0.0);
        assert!(run.host_seconds > 0.0);
        let report = ThroughputReport {
            config: exp,
            runs_per_config: 1,
            sweep: SweepTiming {
                jobs: 1,
                wall_seconds: run.host_seconds,
                serial_seconds: run.host_seconds,
            },
            host: HostCalibration {
                ops: HOST_CALIBRATION_OPS,
                seconds: 0.1,
                mops: HOST_CALIBRATION_OPS as f64 / 0.1 / 1e6,
            },
            runs: vec![run],
            notes: "governor \"refresh\"".into(),
            profile: None,
        };
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"vpr-bench-throughput/v5\""));
        assert!(json.contains("\"runs_per_config\": 1"));
        assert!(json.contains("\"sweep\": {\"jobs\": 1"));
        assert!(json.contains("\"host_calibration\": {\"ops\": "));
        assert!(json.contains("sim_mips_per_host_mops"));
        assert!(json.contains("go_sim_mips_per_host_mops"));
        assert!(json.contains("\"notes\": \"governor \\\"refresh\\\"\""));
        assert!(json.contains("swim/conventional"));
        assert!(json.contains("harmonic_mean_sim_mips"));
        assert!(
            !json.contains("\"profile\""),
            "unprofiled reports omit the profile block"
        );
        assert!(report.harmonic_mean_sim_mips() > 0.0);
        assert!(report.sim_mips_per_host_mops() > 0.0);
        // No go rows in this report: the go figures degrade to zero
        // rather than poisoning the harmonic mean.
        assert_eq!(report.go_harmonic_sim_mips(), 0.0);
    }

    #[test]
    fn profile_block_serialises_all_stages() {
        let exp = ExperimentConfig {
            warmup: 200,
            measure: 2_000,
            ..ExperimentConfig::default()
        };
        let run = time_one(Benchmark::Swim, RenameScheme::Conventional, &exp);
        let mut prof = StageProfile::new();
        prof.record(Stage::Commit, std::time::Duration::from_nanos(10), 3);
        prof.steps = 1;
        let report = ThroughputReport {
            config: exp,
            runs_per_config: 1,
            sweep: SweepTiming {
                jobs: 1,
                wall_seconds: run.host_seconds,
                serial_seconds: run.host_seconds,
            },
            host: HostCalibration {
                ops: HOST_CALIBRATION_OPS,
                seconds: 0.1,
                mops: HOST_CALIBRATION_OPS as f64 / 0.1 / 1e6,
            },
            runs: vec![run],
            notes: String::new(),
            profile: Some(prof),
        };
        let json = report.to_json();
        assert!(json.contains("\"profile\": {\"steps\": 1"));
        for stage in Stage::ALL {
            assert!(
                json.contains(&format!("\"stage\": \"{}\"", stage.name())),
                "missing stage {}",
                stage.name()
            );
        }
    }

    #[test]
    fn host_calibration_is_sane() {
        let cal = calibrate_host();
        assert_eq!(cal.ops, HOST_CALIBRATION_OPS);
        assert!(cal.seconds > 0.0);
        assert!(cal.mops > 0.0);
    }

    #[test]
    fn scheme_labels_are_stable() {
        assert_eq!(scheme_label(RenameScheme::Conventional), "conventional");
        assert_eq!(
            scheme_label(RenameScheme::VirtualPhysicalWriteback { nrr: 32 }),
            "vp-wb-nrr32"
        );
        assert_eq!(
            scheme_label(RenameScheme::VirtualPhysicalIssue { nrr: 8 }),
            "vp-issue-nrr8"
        );
    }
}
