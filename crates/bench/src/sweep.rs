//! The parallel sweep engine: planning a grid and folding its results.
//!
//! Every paper artefact is a sweep: the same simulator run over a grid of
//! `(benchmark, scheme, register-file size)` points. The points are
//! mutually independent and each simulation is deterministic, so a sweep
//! plans its grid into [`JobSpec`]s, fans them out over
//! [`vpr_core::par`]'s work-stealing pool, and merges the results back **in
//! submission order**: the output is byte-identical to running the same
//! points serially, for any worker count (`--jobs 1` included). The
//! cycle-exact goldens and `tests/parallel_determinism.rs` pin this down.
//!
//! Points run through [`crate::jobs`], the executor the `vpr-serve`
//! daemon also calls, so the batch and the daemon cannot drift apart.
//! This module adds only what a whole grid needs: sampled sharing groups,
//! retries, run telemetry, progress and the failure report.
//!
//! The experiment functions in [`crate::experiments`] all route through
//! here; pass `--jobs N` to any figure/table binary (0 = one worker per
//! host core, the default) to control the pool.

use crate::checkpoints::{group_scheme_label, record_usage, CheckpointOutcome, CheckpointStore};
use crate::jobs::{execute_job_with, group_pass, sample_job, JobSpec};
use crate::sampling::SamplingPlan;
use crate::workloads::scheme_label;
use crate::ExperimentConfig;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;
use vpr_core::par;
use vpr_core::{NoObs, RenameScheme, SimObserver, SimStats};
use vpr_obs::{JobOutcome, JobTelemetry, Progress, RunTelemetry, SimMetrics};

pub use vpr_obs::json_escape;

use crate::workloads::Workload;

/// One point of a sweep grid: a full simulator configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepPoint {
    /// The workload (synthetic benchmark or assembled program).
    pub workload: Workload,
    /// The renaming scheme under test.
    pub scheme: RenameScheme,
    /// Physical registers per class.
    pub physical_regs: usize,
}

impl SweepPoint {
    /// Shorthand for the common 64-registers-per-class configuration.
    pub fn at64(workload: impl Into<Workload>, scheme: RenameScheme) -> Self {
        Self {
            workload: workload.into(),
            scheme,
            physical_regs: 64,
        }
    }
}

/// Runs every point of `points` under `exp` — one simulator per point,
/// `exp.effective_jobs()` at a time — and returns their measurement-window
/// statistics in `points` order.
pub fn run_sweep(points: &[SweepPoint], exp: &ExperimentConfig) -> Vec<SimStats> {
    let exp = *exp;
    par::par_map(exp.effective_jobs(), points.to_vec(), move |_, p| {
        execute_job_with(&JobSpec::new(p, exp), None, NoObs).stats
    })
}

// ----------------------------------------------------------------------
// Exact vs sampled sweeps
// ----------------------------------------------------------------------

/// How a sweep obtains each point's metrics.
#[derive(Debug, Clone, Default)]
pub enum SweepMode {
    /// Simulate every point full-length. With a checkpoint directory, warm
    /// `.vprsnap` checkpoints are restored instead of simulating warm-up,
    /// and a point that finds none deposits its own for the next run —
    /// restored continuations are bit-identical, so the output does not
    /// depend on whether (or which) checkpoints were found.
    #[default]
    Exact,
    /// Estimate every point from checkpoint-seeded detailed windows
    /// ([`crate::jobs::sample_job`]). Interval checkpoints are loaded from
    /// the checkpoint directory when a valid set exists, and produced
    /// in-memory by one warm serial pass otherwise (then deposited in the
    /// directory, if one was given, so the next sampled run skips the
    /// pass).
    Sampled,
}

/// Where a sweep looks for (and deposits) `.vprsnap` checkpoints.
#[derive(Debug, Clone, Default)]
pub struct SweepContext {
    /// The sweep mode.
    pub mode: SweepMode,
    /// Checkpoint directory, if any.
    pub checkpoint_dir: Option<PathBuf>,
    /// Sampling plan override for sampled sweeps; `None` derives the
    /// checkpoint-seeded plan from the experiment configuration.
    pub plan: Option<SamplingPlan>,
}

impl SweepContext {
    /// An exact sweep with no checkpoint directory (the historical
    /// default).
    pub fn exact() -> Self {
        Self::default()
    }

    /// An exact or sampled sweep using `dir` for checkpoints.
    pub fn new(sampled: bool, dir: Option<&Path>) -> Self {
        Self {
            mode: if sampled {
                SweepMode::Sampled
            } else {
                SweepMode::Exact
            },
            checkpoint_dir: dir.map(Path::to_path_buf),
            plan: None,
        }
    }

    /// True in sampled mode.
    pub fn is_sampled(&self) -> bool {
        matches!(self.mode, SweepMode::Sampled)
    }

    /// The sampling plan a sampled sweep of `exp` will use (the explicit
    /// override, or the derived checkpoint-seeded plan); `None` in exact
    /// mode.
    pub fn effective_plan(&self, exp: &ExperimentConfig) -> Option<SamplingPlan> {
        self.is_sampled().then(|| {
            self.plan
                .unwrap_or_else(|| SamplingPlan::for_experiment_checkpointed(exp))
        })
    }

    /// Checks the context against an experiment before any simulation
    /// runs: a sampled sweep's plan must be consistent (binaries turn the
    /// message into a usage error instead of panicking mid-sweep).
    ///
    /// # Errors
    ///
    /// Describes the violated plan constraint.
    pub fn try_validate(&self, exp: &ExperimentConfig) -> Result<(), String> {
        match self.effective_plan(exp) {
            Some(plan) => plan
                .try_validate()
                .map_err(|e| format!("invalid sampling plan for this experiment: {e}")),
            None => Ok(()),
        }
    }
}

/// The per-point result a figure/table needs, independent of whether it
/// was measured exactly or estimated from samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointMetrics {
    /// Committed IPC (exact, or the sampled estimate).
    pub ipc: f64,
    /// Cache miss ratio.
    pub miss_ratio: f64,
    /// Executions per committed instruction.
    pub executions_per_commit: f64,
}

impl PointMetrics {
    /// The metrics of an exact measurement window.
    pub(crate) fn from_stats(stats: &SimStats) -> Self {
        Self {
            ipc: stats.ipc(),
            miss_ratio: stats.cache.miss_ratio(),
            executions_per_commit: stats.executions_per_commit(),
        }
    }

    /// The placeholder metrics of a point whose job failed permanently
    /// (every retry exhausted): all-NaN, rendered as `null` in JSON. The
    /// matching [`SweepFailure`] in the sweep's `failures` block says
    /// why.
    pub fn failed() -> Self {
        Self {
            ipc: f64::NAN,
            miss_ratio: f64::NAN,
            executions_per_commit: f64::NAN,
        }
    }

    /// True for the [`PointMetrics::failed`] placeholder.
    pub fn is_failed(&self) -> bool {
        self.ipc.is_nan()
    }
}

/// Renders a float for JSON: non-finite values (a failed point's NaN
/// placeholder) become `null` — `NaN` is not valid JSON.
pub fn json_num(v: f64, decimals: usize) -> String {
    if v.is_finite() {
        format!("{v:.decimals$}")
    } else {
        "null".to_string()
    }
}

/// One fault a sweep survived (or degraded around): which point, at what
/// stage, whether the result was still produced. Recorded into every
/// experiment artefact's `failures` block so degradation is never
/// silent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepFailure {
    /// The sweep point (or group / store) the fault hit, e.g.
    /// `"swim/vp-wb-nrr32@64r"`.
    pub point: String,
    /// Pipeline stage: `"store-open"`, `"checkpoint-load"`,
    /// `"warm-pass"`, `"simulate"`, `"sample"`, or `"persist"`.
    pub stage: &'static str,
    /// What went wrong.
    pub error: String,
    /// Attempts consumed when the fault hit a retried job (1 otherwise).
    pub attempts: u32,
    /// `true` when the sweep still produced this point's exact result
    /// (retry succeeded, or a degraded-but-bit-identical path ran);
    /// `false` when the point's metrics are the failed placeholder.
    pub recovered: bool,
}

impl SweepFailure {
    /// Renders one failure as a JSON object.
    pub fn to_json_value(&self) -> String {
        format!(
            "{{\"point\": \"{}\", \"stage\": \"{}\", \"recovered\": {}, \
             \"attempts\": {}, \"error\": \"{}\"}}",
            json_escape(&self.point),
            self.stage,
            self.recovered,
            self.attempts,
            json_escape(&self.error)
        )
    }
}

/// Renders a sweep's failures as the JSON value of a `"failures"` field
/// (an array; empty on a fault-free run).
pub fn failures_json(failures: &[SweepFailure]) -> String {
    if failures.is_empty() {
        return "[]".to_string();
    }
    let mut s = String::from("[\n");
    for (i, f) in failures.iter().enumerate() {
        let _ = write!(s, "    {}", f.to_json_value());
        s.push_str(if i + 1 < failures.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]");
    s
}

/// Provenance of a sweep's numbers, recorded into every JSON artefact so
/// sampled and exact results are never confusable.
#[derive(Debug, Clone)]
pub enum SamplingProvenance {
    /// Every point simulated full-length.
    Exact,
    /// Points estimated by checkpoint-seeded sampling.
    Sampled {
        /// The sampling plan used.
        plan: SamplingPlan,
        /// Estimator name (stable identifier).
        estimator: &'static str,
        /// Where the interval checkpoints came from: `"checkpoint-dir"`
        /// when every point loaded a valid on-disk set, `"warm-pass"` when
        /// at least one point generated its checkpoints in-memory.
        seeded_from: &'static str,
        /// The checkpoint directory involved, if any.
        checkpoint_dir: Option<String>,
    },
}

impl SamplingProvenance {
    /// Renders the provenance as the JSON value of a `"sampling"` field.
    pub fn to_json_value(&self) -> String {
        match self {
            SamplingProvenance::Exact => "{\"mode\": \"exact\"}".to_string(),
            SamplingProvenance::Sampled {
                plan,
                estimator,
                seeded_from,
                checkpoint_dir,
            } => {
                let mut s = String::new();
                let _ = write!(
                    s,
                    "{{\"mode\": \"sampled\", \"estimator\": \"{estimator}\", \
                     \"seeded_from\": \"{seeded_from}\", \"plan\": {{\"offset\": {}, \
                     \"region\": {}, \"intervals\": {}, \"detailed_warmup\": {}, \
                     \"detailed_measure\": {}, \"detailed_fraction\": {:.4}}}",
                    plan.offset,
                    plan.region,
                    plan.intervals,
                    plan.detailed_warmup,
                    plan.detailed_measure,
                    plan.detailed_fraction()
                );
                match checkpoint_dir {
                    Some(dir) => {
                        // The directory is user input; escape it.
                        let _ = write!(s, ", \"checkpoint_dir\": \"{}\"}}", json_escape(dir));
                    }
                    None => s.push('}'),
                }
                s
            }
        }
    }
}

/// The simulated-machine metrics block of a sweep's JSON artefact.
///
/// Exact sweeps aggregate every point's [`SimMetrics`] (submission-order
/// integer merge, so the block is byte-identical for any `--jobs`).
/// Sampled sweeps measure only detailed windows — their counters would be
/// biased samples of the full run — so the block records the mode and no
/// series rather than publishing misleading numbers.
#[derive(Debug, Clone)]
pub enum MetricsBlock {
    /// Aggregated measurement-window metrics of an exact sweep.
    Exact(Box<SimMetrics>),
    /// A sampled sweep: per-run metric series are deliberately withheld.
    SampledUnavailable,
}

impl MetricsBlock {
    /// Renders the block as the JSON value of a `"metrics"` field.
    pub fn to_json_value(&self) -> String {
        match self {
            MetricsBlock::Exact(m) => format!(
                "{{\"mode\": \"exact\", \"series\": {}}}",
                m.export().to_json_value()
            ),
            MetricsBlock::SampledUnavailable => "{\"mode\": \"sampled\"}".to_string(),
        }
    }

    /// Prometheus text exposition of the aggregated series; `None` for
    /// sampled sweeps (nothing sound to expose).
    pub fn to_prometheus(&self) -> Option<String> {
        match self {
            MetricsBlock::Exact(m) => Some(m.export().to_prometheus()),
            MetricsBlock::SampledUnavailable => None,
        }
    }

    /// Folds another sweep's block into this one (multi-sweep
    /// experiments). Any sampled contribution poisons the aggregate to
    /// [`MetricsBlock::SampledUnavailable`] — a partial series must never
    /// masquerade as the whole experiment's.
    pub fn merge(&mut self, other: MetricsBlock) {
        match other {
            MetricsBlock::Exact(o) => {
                if let MetricsBlock::Exact(m) = self {
                    m.merge(*o);
                }
            }
            MetricsBlock::SampledUnavailable => *self = MetricsBlock::SampledUnavailable,
        }
    }
}

/// A sweep's metrics plus the provenance its artefacts must record.
#[derive(Debug, Clone)]
pub struct SweepMetrics {
    /// Per-point metrics, in `points` order. A permanently failed point
    /// holds [`PointMetrics::failed`] (rendered `null` in JSON) and has a
    /// `recovered: false` entry in `failures`.
    pub points: Vec<PointMetrics>,
    /// How they were obtained.
    pub provenance: SamplingProvenance,
    /// Faults the sweep survived or degraded around (empty on a clean
    /// run). Recorded into every artefact's `failures` block.
    pub failures: Vec<SweepFailure>,
    /// Aggregated simulated-machine metrics (the artefact's `metrics`
    /// block).
    pub metrics: MetricsBlock,
    /// How the sweep engine spent its time (written to
    /// `run.telemetry.json`, never into the experiment JSON — wall-clock
    /// data is not reproducible).
    pub telemetry: RunTelemetry,
}

/// Retry discipline for each sweep job: one immediate retry, which is
/// exactly what a single transient fault needs and what a deterministic
/// bug cannot abuse. The long-running service layers a backoff policy on
/// top of the same [`vpr_core::par::RetryPolicy`] machinery.
const SWEEP_RETRIES: vpr_core::par::RetryPolicy = vpr_core::par::RetryPolicy::immediate(1);

/// The stable label of one sweep point in failure reports and fault-
/// injection job matching.
pub fn point_label(p: &SweepPoint) -> String {
    format!(
        "{}/{}@{}r",
        p.workload.name(),
        scheme_label(p.scheme),
        p.physical_regs
    )
}

/// The label a sampled sharing group reports under:
/// `group:<workload>/<family>@<regs>r`.
fn group_label(spec: &JobSpec) -> String {
    format!(
        "group:{}/{}@{}r",
        spec.workload.name(),
        group_scheme_label(spec.scheme, spec.physical_regs, &spec.exp),
        spec.physical_regs
    )
}

/// Records a job's recovered store faults at `point`: a degradation note
/// and a failed deposit, neither of which changes the job's result.
fn record_store_faults(
    failures: &mut Vec<SweepFailure>,
    point: &str,
    note: &Option<String>,
    persist_error: &Option<String>,
) {
    for (stage, error) in [("checkpoint-load", note), ("persist", persist_error)] {
        if let Some(error) = error {
            failures.push(SweepFailure {
                point: point.to_string(),
                stage,
                error: error.clone(),
                attempts: 1,
                recovered: true,
            });
        }
    }
}

/// The bookkeeping every stage of one sweep shares.
struct Stages {
    workers: usize,
    start: Instant,
    progress: Progress,
    telemetry: RunTelemetry,
    failures: Vec<SweepFailure>,
}

impl Stages {
    /// Runs one pool stage of `(label, job)` pairs and folds the results
    /// in submission order.
    ///
    /// Each job is panic-isolated with [`SWEEP_RETRIES`], matched against
    /// injected job faults by its label, timed (queue wait from the sweep's
    /// start, and wall clock) and ticks progress. Recovered panics become
    /// recovered failures; an exhausted retry budget becomes a terminal
    /// failure. A success is handed to `fold`, which records the job's own
    /// notes and names its checkpoint outcome for the telemetry.
    fn run<T: Sync, R: Send>(
        &mut self,
        stage: &'static str,
        jobs: &[(String, T)],
        run: impl Fn(&T) -> R + Sync,
        mut fold: impl FnMut(&mut Vec<SweepFailure>, &str, &T, &R) -> JobOutcome,
    ) -> Vec<Result<R, par::JobFailure>> {
        let (start, progress) = (self.start, &self.progress);
        let indices = (0..jobs.len()).collect();
        let results = par::par_try_map(self.workers, SWEEP_RETRIES, indices, |_, &i| {
            let (label, item) = &jobs[i];
            let queue_wait_s = start.elapsed().as_secs_f64();
            let started = Instant::now();
            vpr_snap::faults::maybe_panic_job(label);
            let value = run(item);
            progress.point_done();
            (value, queue_wait_s, started.elapsed().as_secs_f64())
        });
        let mut out = Vec::with_capacity(jobs.len());
        for ((label, item), job) in jobs.iter().zip(results) {
            for jf in &job.recovered {
                self.failures.push(SweepFailure {
                    point: label.clone(),
                    stage,
                    error: jf.message.clone(),
                    attempts: jf.attempts,
                    recovered: true,
                });
            }
            let recovered = job.recovered.len() as u64;
            out.push(match job.result {
                Ok((value, queue_wait_s, wall_s)) => {
                    let outcome = fold(&mut self.failures, label, item, &value);
                    self.telemetry.push(JobTelemetry {
                        label: label.clone(),
                        stage,
                        queue_wait_s,
                        wall_s,
                        outcome,
                        recovered,
                    });
                    Ok(value)
                }
                Err(jf) => {
                    self.telemetry.fault_recoveries += recovered;
                    self.failures.push(SweepFailure {
                        point: label.clone(),
                        stage,
                        error: jf.message.clone(),
                        attempts: jf.attempts,
                        recovered: false,
                    });
                    Err(jf)
                }
            });
        }
        out
    }
}

/// Runs a sweep in the requested mode and returns per-point metrics in
/// `points` order. Every job runs through [`crate::jobs`] on the worker
/// pool with the usual submission-order merge, so metrics are
/// byte-identical for any `exp.jobs`.
///
/// An exact sweep runs one [`execute_job_with`] job per point. With a
/// checkpoint directory, points restore their warm checkpoints and
/// deposit the ones they miss. A sampled sweep first runs one
/// [`group_pass`] per *sharing group* — (workload, scheme family,
/// register-file size), not per point: every NRR value of a
/// virtual-physical family restores the same canonical interval
/// checkpoints and re-prices only the NRR-dependent state, so an NRR
/// sweep pays one warm pass per family instead of one per NRR value. Then
/// it runs one [`sample_job`] per point against its group's set.
///
/// The sweep is **fault-tolerant**: every job is panic-isolated with one
/// retry, a corrupt checkpoint store degrades to warm-pass regeneration
/// (bit-identical results), and a permanently failing point reports into
/// [`SweepMetrics::failures`] with [`PointMetrics::failed`] metrics
/// instead of tearing down the grid.
pub fn run_sweep_metrics(
    points: &[SweepPoint],
    exp: &ExperimentConfig,
    ctx: &SweepContext,
) -> SweepMetrics {
    let mut failures = Vec::new();
    let store = ctx.checkpoint_dir.as_ref().map(|dir| {
        let (store, note) = CheckpointStore::open_resilient(dir);
        if let Some(error) = note {
            failures.push(SweepFailure {
                point: dir.display().to_string(),
                stage: "store-open",
                error,
                attempts: 1,
                recovered: true,
            });
        }
        Mutex::new(store)
    });
    let store = store.as_ref();
    let specs: Vec<(String, JobSpec)> = points
        .iter()
        .map(|p| (point_label(p), JobSpec::new(*p, *exp)))
        .collect();
    let plan = ctx.effective_plan(exp);

    // Sampled sharing groups, in first-appearance order.
    let mut groups: Vec<(String, JobSpec)> = Vec::new();
    let group_of: Vec<usize> = match plan {
        None => Vec::new(),
        Some(_) => specs
            .iter()
            .map(|(_, spec)| {
                let key = spec.group_key();
                let found = groups.iter().position(|(_, g)| g.group_key() == key);
                found.unwrap_or_else(|| {
                    groups.push((group_label(spec), spec.clone()));
                    groups.len() - 1
                })
            })
            .collect(),
    };

    let mut stages = Stages {
        workers: exp.effective_jobs(),
        start: Instant::now(),
        progress: Progress::new(groups.len() + points.len(), Progress::stderr_is_tty()),
        telemetry: RunTelemetry::new(exp.effective_jobs()),
        failures,
    };
    let (out, provenance, metrics) = match plan {
        None => {
            let mut used_files = Vec::new();
            let runs = stages.run(
                "simulate",
                &specs,
                |spec| execute_job_with(spec, store, SimObserver::new()),
                |failures, label, _, run| {
                    record_store_faults(failures, label, &run.note, &run.persist_error);
                    if let CheckpointOutcome::Hit(file) = &run.outcome {
                        used_files.push(file.clone());
                    }
                    run.outcome.job_outcome()
                },
            );
            // Fold this sweep's restores into the store's reuse ledger
            // (telemetry only: failing to write it never affects results).
            if let Some(dir) = &ctx.checkpoint_dir {
                let _ = record_usage(dir, &used_files);
            }
            let mut agg = SimMetrics::default();
            let out = runs
                .into_iter()
                .map(|run| match run {
                    Ok(run) => {
                        agg.merge(run.obs.metrics);
                        PointMetrics::from_stats(&run.stats)
                    }
                    Err(_) => PointMetrics::failed(),
                })
                .collect();
            (
                out,
                SamplingProvenance::Exact,
                MetricsBlock::Exact(Box::new(agg)),
            )
        }
        Some(plan) => {
            let passes = stages.run(
                "warm-pass",
                &groups,
                |spec| group_pass(spec, &plan, store),
                |failures, label, _, pass| {
                    record_store_faults(failures, label, &pass.note, &pass.persist_error);
                    pass.outcome
                },
            );
            // Points whose group pass failed permanently never simulate;
            // the rest measure against their group's set. The first point
            // of each group "owns" the pass (counted in the warm-pass
            // stage); every further one reuses the shared artefact, the
            // cross-NRR reuse the telemetry counts.
            let mut seen = vec![false; passes.len()];
            let mut jobs = Vec::new();
            for ((label, spec), &g) in specs.into_iter().zip(&group_of) {
                match &passes[g] {
                    Ok(pass) => {
                        let outcome = match std::mem::replace(&mut seen[g], true) {
                            true => JobOutcome::SharedReuse,
                            false => JobOutcome::NoStore,
                        };
                        jobs.push((label, (spec, pass, outcome)));
                    }
                    Err(group_failure) => stages.failures.push(SweepFailure {
                        point: label,
                        stage: "warm-pass",
                        error: group_failure.message.clone(),
                        attempts: group_failure.attempts,
                        recovered: false,
                    }),
                }
            }
            let mut estimates = stages
                .run(
                    "sample",
                    &jobs,
                    |(spec, pass, _)| sample_job(spec, &plan, &pass.set),
                    |_, _, &(_, _, outcome), _| outcome,
                )
                .into_iter();
            let out = group_of
                .iter()
                .map(|&g| match &passes[g] {
                    Ok(_) => estimates.next().and_then(Result::ok),
                    Err(_) => None,
                })
                .map(|m| m.unwrap_or_else(PointMetrics::failed))
                .collect();
            let from_disk = passes
                .iter()
                .all(|p| matches!(p, Ok(pass) if pass.outcome == JobOutcome::CacheHit));
            let provenance = SamplingProvenance::Sampled {
                plan,
                estimator: "per-phase-regression",
                seeded_from: if from_disk {
                    "checkpoint-dir"
                } else {
                    "warm-pass"
                },
                checkpoint_dir: ctx.checkpoint_dir.as_ref().map(|d| d.display().to_string()),
            };
            (out, provenance, MetricsBlock::SampledUnavailable)
        }
    };
    stages.telemetry.wall_s = stages.start.elapsed().as_secs_f64();
    SweepMetrics {
        points: out,
        provenance,
        failures: stages.failures,
        metrics,
        telemetry: stages.telemetry,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpr_trace::Benchmark;

    #[test]
    fn sweep_matches_serial_run_order() {
        let exp = ExperimentConfig {
            warmup: 200,
            measure: 2_000,
            jobs: 3,
            ..ExperimentConfig::default()
        };
        let points = [
            SweepPoint::at64(Benchmark::Swim, RenameScheme::Conventional),
            SweepPoint::at64(
                Benchmark::Go,
                RenameScheme::VirtualPhysicalWriteback { nrr: 32 },
            ),
            SweepPoint {
                workload: Benchmark::Swim.into(),
                scheme: RenameScheme::VirtualPhysicalIssue { nrr: 16 },
                physical_regs: 48,
            },
        ];
        let parallel = run_sweep(&points, &exp);
        let serial: Vec<_> = points
            .iter()
            .map(|p| crate::run_benchmark(p.workload, p.scheme, p.physical_regs, &exp))
            .collect();
        assert_eq!(parallel, serial, "pool output must merge in point order");
    }
}
