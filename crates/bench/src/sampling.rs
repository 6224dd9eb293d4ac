//! SMARTS/SimPoint-style interval sampling.
//!
//! A full experiment simulates every instruction in detail; after the
//! PR 1–2 kernel work, *run length* — not kernel speed — bounds how long a
//! workload can be measured. This module estimates a long run's metrics
//! from a handful of short **detailed intervals** spread systematically
//! over the instruction stream, fast-forwarding between them:
//!
//! ```text
//! |--skip--|warm|==measure==|--skip--|warm|==measure==|--skip--| ...
//! ```
//!
//! * **Fast-forward** uses [`WorkloadStream::fast_forward`]: positioning
//!   the stream costs nanoseconds per instruction (synthetic generation,
//!   or emulator-only execution for assembled programs) and touches no
//!   simulator state, so skipped spans cost little.
//! * **Detailed warm-up** re-warms microarchitectural state (cache,
//!   predictor, window) from cold at each interval start; its counters are
//!   discarded ([`Processor::warm_up`]).
//! * **Measure** windows contribute to the estimate. The per-interval
//!   simulations are mutually independent, so the harness fans them out
//!   over [`vpr_core::par`] with the same submission-order merge as the
//!   figure sweeps — sampled results are byte-identical for any `--jobs`.
//!
//! The estimator stack, from cheapest to strongest (each falls back to
//! the next): **regression (control-variate)** using functionally-known
//! per-window miss/misprediction rates whose region means are exact →
//! **phase-stratified** (SimPoint-style, weighting per-loop CPI by true
//! phase frequencies) → **pooled mean**.
//!
//! ## Two seeding modes
//!
//! * **Functionally seeded** (above): intervals start from functionally
//!   approximated machine state, produced by *one warm serial functional
//!   pass* over the stream ([`sample_benchmark`]); a detailed warm-up span
//!   per interval repairs what the functional model cannot capture
//!   (window occupancy, in-flight misses). Cheap — the functional pass is
//!   orders of magnitude faster than simulation — but each window carries
//!   residual cold-start bias: ≈ 4 % worst per-configuration IPC error on
//!   the quick table2 grid.
//! * **Checkpoint seeded** ([`sample_from_checkpoints`]): intervals
//!   restore the **exact** machine state of the uninterrupted run from
//!   `.vprsnap` interval checkpoints written by one warm serial *detailed*
//!   pass (`vpr_bench::checkpoints`). Windows are then true slices of the
//!   full run — no warm-up, no bias — and only gap extrapolation remains;
//!   the pass records each window as it runs through it, so a cold run at
//!   the pass's own configuration measures nothing twice
//!   (`estimate_from_windows`). The **per-phase regression
//!   estimator** ([`CheckpointedReport::ipc`]) fits window CPI on each
//!   span's exact per-phase instruction composition plus its functional
//!   miss/misprediction rates, and prices every unmeasured gap from its
//!   own exactly-known covariates: ≤ 2 % worst per-configuration error
//!   (−1.5 % observed) and ≤ 1 % harmonic-mean error on the quick table2
//!   grid, from windows covering ≈ half the region. The serial pass is an
//!   artefact, paid once per configuration and reused by every later
//!   sampled run (`--sampled --checkpoint-dir` on the figure/table
//!   binaries).
//!
//! Accuracy is *reported*, not assumed: [`evaluate_sampling`] runs the
//! uninterrupted simulation next to the sampled one and reports the
//! relative per-metric error, and `tests/sampling_accuracy.rs` gates both
//! modes — the functional estimator at ≤ 2 % harmonic-mean / ≤ 10 %
//! per-configuration error from ≤ 25 % detailed instructions, the
//! checkpoint-seeded estimator at ≤ 1 % / ≤ 2 % from ≤ 50 %. On this
//! deliberately tiny CI workload (30 k-instruction region, windows of a
//! few hundred instructions) the estimates carry irreducible sampling
//! variance; at real run lengths both the window count and the window
//! length grow, and the error shrinks with both (the full-size table2
//! grid samples to within ≈ 0.5 % per configuration).

use crate::harness::ExperimentConfig;
use crate::workloads::{Workload, WorkloadStream};
use std::fmt::Write as _;
use vpr_core::{par, Processor, RenameScheme, SimConfig, SimStats};

/// Shape of one sampled estimate: where the estimated region lies in the
/// instruction stream and how much of it is simulated in detail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplingPlan {
    /// Instructions skipped before the estimated region (the full run's
    /// warm-up span, which its measurement window never covers either).
    pub offset: u64,
    /// Length of the estimated region, in committed instructions.
    pub region: u64,
    /// Number of detailed intervals, spread evenly over the region.
    pub intervals: usize,
    /// Detailed warm-up commits per interval (simulated, discarded).
    pub detailed_warmup: u64,
    /// Measured commits per interval.
    pub detailed_measure: u64,
    /// Functional-warming span per interval: how many of the skipped
    /// instructions leading up to each interval are replayed through the
    /// functional cache/predictor warmers ([`DataCache::warm_touch`] /
    /// BHT training) before detailed simulation starts. `None` warms over
    /// the interval's whole prefix — most faithful, still two orders of
    /// magnitude cheaper than detailed simulation.
    ///
    /// [`DataCache::warm_touch`]: vpr_mem::DataCache::warm_touch
    pub functional_window: Option<u64>,
}

impl SamplingPlan {
    /// The plan used against [`ExperimentConfig::quick`]'s full run
    /// (warm-up 2 000 + measure 30 000): eighteen 440-instruction detailed
    /// intervals — 7 920 detailed instructions, 24.75 % of the full run's
    /// 32 000. The split (180 warm-up / 260 measured) was tuned
    /// empirically: FP chain codes need ≥ ~180 commits of detailed
    /// warm-up to re-establish steady-state window overlap, and more,
    /// smaller intervals beat fewer, larger ones once the regression
    /// estimator absorbs miss/misprediction variance.
    pub fn quick() -> Self {
        Self {
            offset: 2_000,
            region: 30_000,
            intervals: 18,
            detailed_warmup: 180,
            detailed_measure: 260,
            functional_window: None,
        }
    }

    /// A plan matched to `exp`: the tuned [`SamplingPlan::quick`] for the
    /// quick workload shape, otherwise the same design scaled to the
    /// experiment's warm-up/measure spans.
    pub fn for_experiment(exp: &ExperimentConfig) -> Self {
        let quick = Self::quick();
        if exp.warmup == quick.offset && exp.measure == quick.region {
            return quick;
        }
        let per_interval = ((exp.warmup + exp.measure) / 4 / 18).max(44);
        Self {
            offset: exp.warmup,
            region: exp.measure,
            intervals: 18,
            detailed_warmup: per_interval * 9 / 22,
            detailed_measure: per_interval * 13 / 22,
            functional_window: None,
        }
    }

    /// The plan used for **checkpoint-seeded** sampling of the quick
    /// workload: 48 windows of 310 commits, no per-interval detailed
    /// warm-up (each window restores the *exact* machine state of the
    /// uninterrupted run from its interval checkpoint, so there is nothing
    /// to re-warm). 46.5 % of the region is simulated in detail — more
    /// than the functional plan affords, because here the detailed windows
    /// are the *only* simulation a sampled run pays (the serial pass that
    /// produced the checkpoints is a reusable artefact), and denser
    /// windows are what pushes the worst per-configuration error under
    /// 2 % (empirically −1.5 % on the quick table2 grid, vs ≈4 % for the
    /// functionally-seeded plan).
    pub fn quick_checkpointed() -> Self {
        Self {
            offset: 2_000,
            region: 30_000,
            intervals: 48,
            detailed_warmup: 0,
            detailed_measure: 310,
            functional_window: None,
        }
    }

    /// A checkpoint-seeded plan matched to `exp`: the tuned
    /// [`SamplingPlan::quick_checkpointed`] for the quick workload shape,
    /// otherwise the same design (warm-up-free windows covering ≈46.5 %
    /// of the region) scaled to the experiment's spans. Tiny regions get
    /// fewer intervals and windows are floored at 16 commits: consecutive
    /// interval starts are never closer than one window, and a window must
    /// exceed the commit-width overshoot (≤ 7) or the serial pass could be
    /// asked to checkpoint behind its own position.
    pub fn for_experiment_checkpointed(exp: &ExperimentConfig) -> Self {
        let quick = Self::quick_checkpointed();
        if exp.warmup == quick.offset && exp.measure == quick.region {
            return quick;
        }
        let min_measure = 16u64;
        let intervals = 48.min((exp.measure / (2 * min_measure)).max(1)) as usize;
        Self {
            offset: exp.warmup,
            region: exp.measure,
            intervals,
            detailed_warmup: 0,
            detailed_measure: (exp.measure * 93 / 200 / intervals as u64).max(min_measure),
            functional_window: None,
        }
    }

    /// Detailed commits per interval (warm-up + measure).
    pub fn detailed_per_interval(&self) -> u64 {
        self.detailed_warmup + self.detailed_measure
    }

    /// Fraction of the full run (`offset + region`) simulated in detail.
    pub fn detailed_fraction(&self) -> f64 {
        (self.intervals as u64 * self.detailed_per_interval()) as f64
            / (self.offset + self.region) as f64
    }

    /// Interval start positions (committed-instruction offsets into the
    /// stream): one per stride, jittered inside its stride by a
    /// deterministic golden-ratio sequence so the sample pattern cannot
    /// alias with the workload's loop periodicity (plain systematic
    /// sampling measurably biases phase-heavy workloads).
    pub fn starts(&self) -> Vec<u64> {
        let stride = self.region / self.intervals.max(1) as u64;
        let slack = stride.saturating_sub(self.detailed_per_interval());
        (0..self.intervals)
            .map(|i| {
                // Low-discrepancy fraction of the stride's slack:
                // frac(i * phi) via 64-bit fixed point.
                let phi = 0x9E37_79B9_7F4A_7C15u64; // 2^64 / golden ratio
                let frac = (i as u64).wrapping_mul(phi) >> 32;
                let jitter = (slack * frac) >> 32;
                self.offset + i as u64 * stride + jitter
            })
            .collect()
    }

    /// Checks the plan's consistency.
    ///
    /// # Errors
    ///
    /// Describes the first violated constraint: at least one interval,
    /// a non-empty measure span, and detailed spans that fit the region.
    pub fn try_validate(&self) -> Result<(), String> {
        if self.intervals == 0 {
            return Err("need at least one interval".into());
        }
        if self.detailed_measure == 0 {
            return Err("intervals must measure something".into());
        }
        if self.intervals as u64 * self.detailed_per_interval() > self.region {
            return Err(format!(
                "detailed spans exceed the sampled region ({} intervals x {} > {})",
                self.intervals,
                self.detailed_per_interval(),
                self.region
            ));
        }
        Ok(())
    }

    /// Validates the plan.
    ///
    /// # Panics
    ///
    /// Panics if there are no intervals, no measured commits, or the
    /// detailed spans overrun the region ([`SamplingPlan::try_validate`]).
    pub fn validate(&self) {
        if let Err(e) = self.try_validate() {
            panic!("invalid sampling plan: {e}");
        }
    }
}

/// One detailed interval's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalSample {
    /// Committed-instruction offset at which the interval began.
    pub start: u64,
    /// Phase label at the interval start: the generator's active loop
    /// index (see [`WorkloadStream::current_loop`]; always 0 for
    /// assembled programs).
    pub phase: usize,
    /// Functional cache misses per instruction over the measured span
    /// (from the no-timing model — the regression estimator's first
    /// auxiliary variable).
    pub func_miss_rate: f64,
    /// Functional branch mispredictions per instruction over the measured
    /// span (second auxiliary variable).
    pub func_mispred_rate: f64,
    /// Measurement-window statistics of the interval.
    pub stats: SimStats,
}

/// A sampled estimate of a long run.
#[derive(Debug, Clone, PartialEq)]
pub struct SamplingReport {
    /// The plan that produced it.
    pub plan: SamplingPlan,
    /// Per-interval results, in stream order.
    pub samples: Vec<IntervalSample>,
    /// True per-phase instruction weights over the estimated region, from
    /// the functional profiling pass (`weights[p]` = fraction of region
    /// instructions executed in loop `p`; sums to 1).
    pub phase_weights: Vec<f64>,
    /// Functional cache misses per instruction over the whole region.
    pub region_miss_rate: f64,
    /// Functional branch mispredictions per instruction over the whole
    /// region.
    pub region_mispred_rate: f64,
}

impl SamplingReport {
    /// Estimated IPC — the harness's best estimator: a **regression
    /// (control-variate) estimate** over the sampled windows, falling back
    /// to the phase-stratified and pooled means when the regression is
    /// ill-conditioned.
    ///
    /// Each window's CPI is paired with two *functionally known*
    /// covariates — its no-timing cache-miss and branch-misprediction
    /// rates — whose exact region-wide means the profiling pass computed.
    /// Fitting `CPI ≈ β₀ + β₁·miss + β₂·mispred` on the samples and
    /// evaluating at the region means removes the variance those two
    /// mechanisms explain, which is most of what distinguishes one window
    /// from another at this machine's bottlenecks.
    pub fn ipc(&self) -> f64 {
        match self.cpi_regression() {
            Some(cpi) => 1.0 / cpi,
            None => self.ipc_stratified(),
        }
    }

    /// The regression estimate of region CPI, when well-conditioned.
    fn cpi_regression(&self) -> Option<f64> {
        let n = self.samples.len();
        if n < 6 {
            return None;
        }
        let mut min_cpi = f64::INFINITY;
        let mut max_cpi = 0.0f64;
        // Normal equations for y = b0 + b1 x1 + b2 x2 (ridge-stabilised).
        let mut xtx = [[0.0f64; 3]; 3];
        let mut xty = [0.0f64; 3];
        for s in &self.samples {
            if s.stats.committed == 0 {
                return None;
            }
            let y = s.stats.cycles as f64 / s.stats.committed as f64;
            min_cpi = min_cpi.min(y);
            max_cpi = max_cpi.max(y);
            let x = [1.0, s.func_miss_rate, s.func_mispred_rate];
            for i in 0..3 {
                for j in 0..3 {
                    xtx[i][j] += x[i] * x[j];
                }
                xty[i] += x[i] * y;
            }
        }
        for (i, row) in xtx.iter_mut().enumerate() {
            row[i] += if i == 0 { 1e-9 } else { 1e-7 };
        }
        let beta = solve3(xtx, xty)?;
        let cpi = beta[0] + beta[1] * self.region_miss_rate + beta[2] * self.region_mispred_rate;
        // Guard against an extrapolation blow-up: the region mean must
        // land inside (a modest widening of) the observed window range.
        if !cpi.is_finite() || cpi < min_cpi * 0.7 || cpi > max_cpi * 1.3 {
            return None;
        }
        Some(cpi)
    }

    /// Estimated IPC, **phase-stratified** (SimPoint-style): samples are
    /// grouped by the phase (generator loop) they landed in, each group's
    /// cycles-per-instruction is weighted by the phase's *true* share of
    /// the region (from the functional profiling pass), and phases no
    /// sample landed in fall back to the pooled CPI. This removes the
    /// aliasing error a plain pooled mean suffers when systematic sample
    /// positions beat against the workload's loop structure.
    pub fn ipc_stratified(&self) -> f64 {
        let committed: u64 = self.samples.iter().map(|s| s.stats.committed).sum();
        let cycles: u64 = self.samples.iter().map(|s| s.stats.cycles).sum();
        if committed == 0 || cycles == 0 {
            return 0.0;
        }
        let pooled_cpi = cycles as f64 / committed as f64;
        if self.phase_weights.is_empty() {
            return 1.0 / pooled_cpi;
        }
        let phases = self.phase_weights.len();
        let mut phase_committed = vec![0u64; phases];
        let mut phase_cycles = vec![0u64; phases];
        for s in &self.samples {
            if s.phase < phases {
                phase_committed[s.phase] += s.stats.committed;
                phase_cycles[s.phase] += s.stats.cycles;
            }
        }
        let mut cpi = 0.0;
        for (p, &w) in self.phase_weights.iter().enumerate() {
            cpi += w * if phase_committed[p] > 0 {
                phase_cycles[p] as f64 / phase_committed[p] as f64
            } else {
                pooled_cpi
            };
        }
        1.0 / cpi
    }

    /// Estimated IPC from the pooled (unstratified) mean: total measured
    /// commits over total measured cycles.
    pub fn ipc_pooled(&self) -> f64 {
        let committed: u64 = self.samples.iter().map(|s| s.stats.committed).sum();
        let cycles: u64 = self.samples.iter().map(|s| s.stats.cycles).sum();
        if cycles == 0 {
            0.0
        } else {
            committed as f64 / cycles as f64
        }
    }

    /// Estimated cache miss ratio over the measured windows.
    pub fn miss_ratio(&self) -> f64 {
        let (mut miss, mut total) = (0u64, 0u64);
        for s in &self.samples {
            miss += s.stats.cache.misses + s.stats.cache.merged_misses;
            total += s.stats.cache.hits + s.stats.cache.misses + s.stats.cache.merged_misses;
        }
        if total == 0 {
            0.0
        } else {
            miss as f64 / total as f64
        }
    }

    /// Estimated executions per committed instruction (re-execution rate).
    pub fn executions_per_commit(&self) -> f64 {
        let committed: u64 = self.samples.iter().map(|s| s.stats.committed).sum();
        let executions: u64 = self.samples.iter().map(|s| s.stats.executions).sum();
        if committed == 0 {
            0.0
        } else {
            executions as f64 / committed as f64
        }
    }
}

/// Solves the 3×3 system `a·x = b` by Gaussian elimination with partial
/// pivoting; `None` when singular.
fn solve3(mut a: [[f64; 3]; 3], mut b: [f64; 3]) -> Option<[f64; 3]> {
    for col in 0..3 {
        let pivot = (col..3).max_by(|&i, &j| {
            a[i][col]
                .abs()
                .partial_cmp(&a[j][col].abs())
                .unwrap_or(std::cmp::Ordering::Equal)
        })?;
        if a[pivot][col].abs() < 1e-18 {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        for row in 0..3 {
            if row == col {
                continue;
            }
            let f = a[row][col] / a[col][col];
            let pivot_row = a[col];
            for (k, v) in pivot_row.iter().enumerate().skip(col) {
                a[row][k] -= f * v;
            }
            b[row] -= f * b[col];
        }
    }
    Some([b[0] / a[0][0], b[1] / a[1][1], b[2] / a[2][2]])
}

/// Solves the dense `n × n` system `a·x = b` by Gaussian elimination with
/// partial pivoting (`n` is the per-phase regression's phase count plus
/// two covariates — single digits); `None` when singular.
fn solve_dense(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Option<Vec<f64>> {
    let n = b.len();
    for col in 0..n {
        let pivot = (col..n).max_by(|&i, &j| {
            a[i][col]
                .abs()
                .partial_cmp(&a[j][col].abs())
                .unwrap_or(std::cmp::Ordering::Equal)
        })?;
        if a[pivot][col].abs() < 1e-14 {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        for row in 0..n {
            if row == col {
                continue;
            }
            let f = a[row][col] / a[col][col];
            if f == 0.0 {
                continue;
            }
            let pivot_row = std::mem::take(&mut a[col]);
            for (k, v) in pivot_row.iter().enumerate().skip(col) {
                a[row][k] -= f * v;
            }
            a[col] = pivot_row;
            b[row] -= f * b[col];
        }
    }
    Some((0..n).map(|i| b[i] / a[i][i]).collect())
}

// ----------------------------------------------------------------------
// Checkpoint-seeded sampling
// ----------------------------------------------------------------------

/// Functionally-known description of one committed-stream span: its exact
/// per-phase instruction composition and functional miss/misprediction
/// rates. These are the per-phase regression estimator's covariates — all
/// derived from a generation-only pass, never from timing simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanProfile {
    /// First committed-instruction position of the span (inclusive).
    pub begin: u64,
    /// One past the last position (exclusive).
    pub end: u64,
    /// Exact fraction of the span's instructions executed in each
    /// generator loop (phase); sums to 1.
    pub phase_fracs: Vec<f64>,
    /// Functional cache misses per span instruction.
    pub miss_rate: f64,
    /// Functional branch mispredictions per span instruction.
    pub mispred_rate: f64,
}

impl SpanProfile {
    /// Span length in committed instructions.
    pub fn len(&self) -> u64 {
        self.end - self.begin
    }

    /// True when the span is empty.
    pub fn is_empty(&self) -> bool {
        self.end == self.begin
    }
}

/// One measured window of a checkpoint-seeded sampled run: the span's
/// functional profile plus the *exact* measurement-window statistics of
/// the restored machine (bit-identical to the uninterrupted run over the
/// same span).
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointedSample {
    /// The window's span and covariates.
    pub span: SpanProfile,
    /// Detailed statistics of the window.
    pub stats: SimStats,
}

/// A checkpoint-seeded sampled estimate: exact window measurements plus
/// functionally-profiled gaps, combined by the **per-phase regression
/// estimator** ([`CheckpointedReport::ipc`]).
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointedReport {
    /// The plan that produced it.
    pub plan: SamplingPlan,
    /// Measured windows, in stream order.
    pub windows: Vec<CheckpointedSample>,
    /// Unmeasured gaps between (and after) the windows, in stream order.
    pub gaps: Vec<SpanProfile>,
}

impl CheckpointedReport {
    /// Estimated region IPC — the checkpoint-seeded harness's estimator.
    ///
    /// The measured windows' cycles are **exact** (each window restored
    /// the uninterrupted run's machine state from its checkpoint), so only
    /// the gaps need estimating. Window CPI is regressed on the spans'
    /// functionally-known covariates — the per-phase instruction
    /// composition (an intercept *per generator-loop phase*, entered
    /// fractionally so windows spanning a phase transition inform both
    /// phases) plus cache-miss and branch-misprediction rates, the control
    /// variates — and each gap's CPI is predicted from its own exactly-
    /// known covariates. Predictions falling outside the observed window
    /// CPI range (widened ×1.5) fall back to the pooled window CPI, as
    /// does everything when the fit is singular.
    pub fn ipc(&self) -> f64 {
        let committed: u64 = self
            .windows
            .iter()
            .map(|w| w.stats.committed)
            .chain(self.gaps.iter().map(SpanProfile::len))
            .sum();
        let cycles = self.estimated_cycles();
        if cycles <= 0.0 {
            return 0.0;
        }
        committed as f64 / cycles
    }

    /// Total estimated cycles over windows (measured) plus gaps
    /// (predicted).
    fn estimated_cycles(&self) -> f64 {
        let window_cycles: u64 = self.windows.iter().map(|w| w.stats.cycles).sum();
        let pooled = self.pooled_cpi();
        let predict = self.fit_gap_predictor();
        let (mut lo, mut hi) = (f64::INFINITY, 0.0f64);
        for w in &self.windows {
            if w.stats.committed > 0 {
                let cpi = w.stats.cycles as f64 / w.stats.committed as f64;
                lo = lo.min(cpi);
                hi = hi.max(cpi);
            }
        }
        let mut cycles = window_cycles as f64;
        for gap in &self.gaps {
            let mut cpi = predict.as_ref().map_or(pooled, |p| p.predict(gap));
            if !cpi.is_finite() || cpi < lo / 1.5 || cpi > hi * 1.5 {
                cpi = pooled;
            }
            cycles += gap.len() as f64 * cpi;
        }
        cycles
    }

    /// Fits the per-phase regression on the measured windows; `None` when
    /// under-determined or singular.
    fn fit_gap_predictor(&self) -> Option<GapPredictor> {
        let phases = self
            .windows
            .iter()
            .map(|w| w.span.phase_fracs.len())
            .max()?;
        // Phases at least one window actually executed in; unseen phases
        // cannot be fitted and are priced at the pooled CPI instead.
        let present: Vec<usize> = (0..phases)
            .filter(|&p| {
                self.windows
                    .iter()
                    .any(|w| w.span.phase_fracs.get(p).copied().unwrap_or(0.0) > 0.0)
            })
            .collect();
        let dims = present.len() + 2;
        if self.windows.len() < dims + 2 {
            return None;
        }
        let mut xtx = vec![vec![0.0f64; dims]; dims];
        let mut xty = vec![0.0f64; dims];
        let mut row = vec![0.0f64; dims];
        for w in &self.windows {
            if w.stats.committed == 0 {
                return None;
            }
            let y = w.stats.cycles as f64 / w.stats.committed as f64;
            for (i, &p) in present.iter().enumerate() {
                row[i] = w.span.phase_fracs.get(p).copied().unwrap_or(0.0);
            }
            row[present.len()] = w.span.miss_rate;
            row[present.len() + 1] = w.span.mispred_rate;
            for i in 0..dims {
                for j in 0..dims {
                    xtx[i][j] += row[i] * row[j];
                }
                xty[i] += row[i] * y;
            }
        }
        for (i, r) in xtx.iter_mut().enumerate() {
            r[i] += 1e-7;
        }
        let beta = solve_dense(xtx, xty)?;
        Some(GapPredictor {
            present,
            beta,
            pooled: self.pooled_cpi(),
        })
    }

    /// Pooled CPI over the measured windows (the estimator of last
    /// resort).
    fn pooled_cpi(&self) -> f64 {
        let committed: u64 = self.windows.iter().map(|w| w.stats.committed).sum();
        let cycles: u64 = self.windows.iter().map(|w| w.stats.cycles).sum();
        if committed == 0 {
            0.0
        } else {
            cycles as f64 / committed as f64
        }
    }

    /// Estimated IPC from the pooled window mean alone (no gap modelling)
    /// — the diagnostic baseline the regression is judged against.
    pub fn ipc_pooled(&self) -> f64 {
        let cpi = self.pooled_cpi();
        if cpi == 0.0 {
            0.0
        } else {
            1.0 / cpi
        }
    }

    /// Cache miss ratio over the measured windows.
    pub fn miss_ratio(&self) -> f64 {
        let (mut miss, mut total) = (0u64, 0u64);
        for w in &self.windows {
            miss += w.stats.cache.misses + w.stats.cache.merged_misses;
            total += w.stats.cache.hits + w.stats.cache.misses + w.stats.cache.merged_misses;
        }
        if total == 0 {
            0.0
        } else {
            miss as f64 / total as f64
        }
    }

    /// Executions per committed instruction over the measured windows (the
    /// re-execution rate Table 2 reports for the VP write-back scheme).
    pub fn executions_per_commit(&self) -> f64 {
        let committed: u64 = self.windows.iter().map(|w| w.stats.committed).sum();
        let executions: u64 = self.windows.iter().map(|w| w.stats.executions).sum();
        if committed == 0 {
            0.0
        } else {
            executions as f64 / committed as f64
        }
    }

    /// Fraction of the estimated region actually simulated in detail.
    pub fn detailed_fraction_achieved(&self) -> f64 {
        let windows: u64 = self.windows.iter().map(|w| w.stats.committed).sum();
        let gaps: u64 = self.gaps.iter().map(SpanProfile::len).sum();
        if windows + gaps == 0 {
            0.0
        } else {
            windows as f64 / (windows + gaps) as f64
        }
    }
}

/// The fitted per-phase regression: CPI ≈ Σ_p frac_p·α_p + β₁·miss +
/// β₂·mispred, with phases absent from every window priced at the pooled
/// window CPI.
struct GapPredictor {
    present: Vec<usize>,
    beta: Vec<f64>,
    pooled: f64,
}

impl GapPredictor {
    fn predict(&self, span: &SpanProfile) -> f64 {
        let k = self.present.len();
        let mut cpi = self.beta[k] * span.miss_rate + self.beta[k + 1] * span.mispred_rate;
        let mut seen_frac = 0.0;
        for (i, &p) in self.present.iter().enumerate() {
            let f = span.phase_fracs.get(p).copied().unwrap_or(0.0);
            cpi += f * self.beta[i];
            seen_frac += f;
        }
        // Instructions in phases no window sampled: pooled CPI.
        cpi + (1.0 - seen_frac).max(0.0) * self.pooled
    }
}

/// Profiles an ordered, disjoint list of spans (given by their
/// `[begin, end)` committed positions) in **one** functional pass over the
/// stream: exact per-phase composition and functional miss/misprediction
/// rates per span.
fn profile_spans(
    workload: Workload,
    seed: u64,
    spans: &[(u64, u64)],
    config: &SimConfig,
) -> Vec<SpanProfile> {
    let mut trace = workload.stream(seed);
    let mut model = FunctionalModel::new(config);
    let phases = trace.loop_count();
    let mut pos = 0u64;
    let mut out = Vec::with_capacity(spans.len());
    for &(begin, end) in spans {
        // Consecutive windows can overlap by up to commit-width − 1 when a
        // window's achieved end runs past the next checkpoint's start; the
        // single forward pass then profiles the later span from where it
        // stands (≤ a few instructions short — covariates only).
        let begin = begin.max(pos);
        let end = end.max(begin);
        while pos < begin {
            let di = trace.next().expect("synthetic traces are infinite");
            model.step(&di);
            pos += 1;
        }
        let mut counts = vec![0u64; phases];
        let (mut misses, mut mispreds) = (0u64, 0u64);
        while pos < end {
            counts[trace.current_loop()] += 1;
            let di = trace.next().expect("synthetic traces are infinite");
            let (miss, mispred) = model.step(&di);
            misses += u64::from(miss);
            mispreds += u64::from(mispred);
            pos += 1;
        }
        let n = (end - begin).max(1) as f64;
        out.push(SpanProfile {
            begin,
            end,
            phase_fracs: counts.into_iter().map(|c| c as f64 / n).collect(),
            miss_rate: misses as f64 / n,
            mispred_rate: mispreds as f64 / n,
        });
    }
    out
}

/// One detailed window of a checkpoint-seeded estimate: the committed
/// span `[begin, end)` it covered and its exact statistics. `begin` is the
/// interval checkpoint's achieved position and `end` the first cycle
/// boundary at or past `begin + plan.detailed_per_interval()`. A window
/// restored from its checkpoint and one recorded by the warm pass that
/// took the checkpoint (`vpr_bench::checkpoints`) are the same slice of
/// the same run, bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasuredWindow {
    /// Committed-instruction position the window starts at.
    pub begin: u64,
    /// Committed-instruction position the window ends at.
    pub end: u64,
    /// Detailed statistics of the window.
    pub stats: SimStats,
}

/// Runs a **checkpoint-seeded** sampled estimate: every interval restores
/// the exact machine state of the uninterrupted run from its checkpoint
/// (`checkpoints[i] = (interval start, snapshot)`, as produced by
/// `vpr_bench::checkpoints::generate_checkpoints` or loaded from a
/// `.vprsnap` directory) and simulates only the measured window — no
/// functional re-warming, no discarded detailed warm-up. Window runs fan
/// out over [`vpr_core::par`] with submission-order determinism. The
/// estimate is then built from the windows exactly as from the windows a
/// group pass recorded (`estimate_from_windows`).
///
/// # Panics
///
/// Panics if the checkpoint list does not match the plan's interval
/// count, or if a snapshot fails to restore (a validated checkpoint that
/// does not restore is a bug, not an input error).
pub fn sample_from_checkpoints(
    workload: impl Into<Workload>,
    scheme: RenameScheme,
    physical_regs: usize,
    exp: &ExperimentConfig,
    plan: &SamplingPlan,
    checkpoints: &[(u64, vpr_snap::Snapshot)],
    jobs: usize,
) -> CheckpointedReport {
    let workload = workload.into();
    let windows = measure_windows(workload, scheme, exp, plan, checkpoints, jobs);
    estimate_from_windows(workload, scheme, physical_regs, exp, plan, &windows)
}

/// The restore-and-measure half of [`sample_from_checkpoints`].
pub(crate) fn measure_windows(
    workload: impl Into<Workload>,
    scheme: RenameScheme,
    exp: &ExperimentConfig,
    plan: &SamplingPlan,
    checkpoints: &[(u64, vpr_snap::Snapshot)],
    jobs: usize,
) -> Vec<MeasuredWindow> {
    let workload = workload.into();
    plan.validate();
    assert_eq!(
        checkpoints.len(),
        plan.intervals,
        "need one checkpoint per interval"
    );
    let measure = plan.detailed_per_interval();
    par::par_map(
        jobs.max(1),
        checkpoints.iter().collect(),
        move |_, (_, snapshot)| {
            let fresh = workload.stream(exp.seed);
            let mut cpu: Processor<WorkloadStream> =
                Processor::restore(snapshot, fresh).expect("interval checkpoint restores");
            // Shared (canonical-NRR) checkpoints serve every NRR value of
            // their scheme family: re-price the NRR-dependent state for
            // the target configuration before measuring. Non-shared
            // checkpoints already carry the target scheme (a no-op here).
            assert!(
                crate::checkpoints::same_family(cpu.config().scheme, scheme),
                "checkpoint scheme {:?} cannot seed a {scheme:?} window",
                cpu.config().scheme
            );
            if let Some(target_nrr) = scheme.nrr() {
                if cpu.config().scheme.nrr() != Some(target_nrr) {
                    // Mild downshifts (the only re-targets the sharing
                    // policy produces — `checkpoints::shares_group_pass`)
                    // measure well as direct slices under write-back
                    // allocation: the canonical operating point is close
                    // enough that no settling span is needed (worst
                    // observed +0.9 % over the exact-seeded error on the
                    // quick fig4 grid). Issue allocation is touchier —
                    // the NRR gates *waiting* instructions, so window
                    // occupancy needs to re-equilibrate — and gets half a
                    // window of discarded settling commits (10 % → 2.9 %
                    // worst error on the quick fig5 grid; a full window
                    // overshoots the stride and drifts li by ~3.5 %).
                    cpu.retarget_nrr(target_nrr);
                    if matches!(scheme, RenameScheme::VirtualPhysicalIssue { .. }) {
                        cpu.run(plan.detailed_measure / 2);
                    }
                }
            }
            let begin = cpu.absolute_committed();
            cpu.reset_window();
            let stats = cpu.run(measure);
            MeasuredWindow {
                begin,
                end: cpu.absolute_committed(),
                stats,
            }
        },
    )
}

/// Builds a checkpoint-seeded estimate from its measured windows (in
/// interval order): the gap spans between them, one functional
/// `profile_spans` pass over windows and gaps, and the report whose
/// per-phase regression prices the gaps.
pub(crate) fn estimate_from_windows(
    workload: impl Into<Workload>,
    scheme: RenameScheme,
    physical_regs: usize,
    exp: &ExperimentConfig,
    plan: &SamplingPlan,
    windows: &[MeasuredWindow],
) -> CheckpointedReport {
    let workload = workload.into();
    let config = crate::checkpoints::sim_config(scheme, physical_regs, exp);
    // Span accounting: windows are exact slices of the uninterrupted run;
    // the gaps between them (and the tail out to the region end) are what
    // the estimator predicts. Consecutive windows can overlap by up to
    // commit-width − 1 instructions when an interval's achieved end runs
    // past the next checkpoint's achieved start — the overlapped commits
    // are counted in both windows (numerator and denominator alike, a
    // ≤0.1 % effect at quick scale), and the gap in between is empty.
    let region_end = (plan.offset + plan.region).max(windows.last().map_or(0, |w| w.end));
    let mut gap_spans = Vec::with_capacity(windows.len());
    for (i, w) in windows.iter().enumerate() {
        let next_begin = windows.get(i + 1).map_or(region_end, |n| n.begin);
        if next_begin > w.end {
            gap_spans.push((w.end, next_begin));
        }
    }
    // One functional pass profiles windows and gaps together: label the
    // interleaved spans, sort by position, and split the profiles back
    // out afterwards (ordering within each class is preserved).
    let mut labelled: Vec<(u64, u64, bool)> = windows
        .iter()
        .map(|w| (w.begin, w.end, false))
        .chain(gap_spans.iter().map(|&(b, e)| (b, e, true)))
        .collect();
    labelled.sort_unstable();
    let spans: Vec<(u64, u64)> = labelled.iter().map(|&(b, e, _)| (b, e)).collect();
    let profiles = profile_spans(workload, exp.seed, &spans, &config);
    let mut window_profiles = Vec::with_capacity(windows.len());
    let mut gap_profiles = Vec::with_capacity(gap_spans.len());
    for (profile, &(_, _, is_gap)) in profiles.into_iter().zip(&labelled) {
        if is_gap {
            gap_profiles.push(profile);
        } else {
            window_profiles.push(profile);
        }
    }
    CheckpointedReport {
        plan: *plan,
        windows: window_profiles
            .into_iter()
            .zip(windows)
            .map(|(span, w)| CheckpointedSample {
                span,
                stats: w.stats.clone(),
            })
            .collect(),
        gaps: gap_profiles,
    }
}

/// The no-timing functional machine model: a trained branch predictor and
/// a resident-line cache. It is what fast-forwarded spans are replayed
/// through — warming the state a detailed interval starts from, and
/// counting the functional miss/misprediction events the regression
/// estimator uses as covariates.
#[derive(Clone)]
struct FunctionalModel {
    bht: vpr_frontend::BranchHistoryTable,
    cache: vpr_mem::DataCache,
}

impl FunctionalModel {
    fn new(config: &SimConfig) -> Self {
        Self {
            bht: vpr_frontend::BranchHistoryTable::new(config.bht_entries),
            cache: vpr_mem::DataCache::new(config.cache),
        }
    }

    /// Processes one instruction; returns `(functional_miss, mispredict)`.
    fn step(&mut self, di: &vpr_isa::DynInst) -> (bool, bool) {
        match di.op() {
            vpr_isa::OpClass::BranchCond => {
                let b = di.branch().expect("trace records outcomes");
                let mispredict = self.bht.predict(di.pc()) != b.taken;
                self.bht.update(di.pc(), b.taken);
                (false, mispredict)
            }
            op if op.is_mem() => {
                let m = di.mem().expect("memory op carries an access");
                let hit = self.cache.would_hit(m.addr);
                self.cache.warm_touch(m.addr, op == vpr_isa::OpClass::Store);
                (!hit, false)
            }
            _ => (false, false),
        }
    }
}

/// The functional profiling pass over the estimated region: per-phase
/// instruction weights plus the region's functional miss and
/// misprediction rates (the regression estimator's known means).
pub struct RegionProfile {
    /// `weights[p]` = fraction of region instructions executed in loop `p`.
    pub phase_weights: Vec<f64>,
    /// Functional cache misses per region instruction.
    pub miss_rate: f64,
    /// Functional branch mispredictions per region instruction.
    pub mispred_rate: f64,
}

/// Profiles `[offset, offset + region)` functionally — one generation-only
/// pass, no simulation. The model is warmed over the `offset` prefix so
/// region rates carry no cold-start artefacts.
pub fn profile_region(
    workload: impl Into<Workload>,
    seed: u64,
    offset: u64,
    region: u64,
    config: &SimConfig,
) -> RegionProfile {
    let mut trace = workload.into().stream(seed);
    let mut model = FunctionalModel::new(config);
    for _ in 0..offset {
        let di = trace.next().expect("synthetic traces are infinite");
        model.step(&di);
    }
    let mut counts = vec![0u64; trace.loop_count()];
    let (mut misses, mut mispreds) = (0u64, 0u64);
    for _ in 0..region {
        counts[trace.current_loop()] += 1;
        let di = trace.next().expect("synthetic traces are infinite");
        let (miss, mispred) = model.step(&di);
        misses += u64::from(miss);
        mispreds += u64::from(mispred);
    }
    RegionProfile {
        phase_weights: counts
            .into_iter()
            .map(|c| c as f64 / region as f64)
            .collect(),
        miss_rate: misses as f64 / region as f64,
        mispred_rate: mispreds as f64 / region as f64,
    }
}

/// One interval's functional seed: the stream position (as [`Resumable`]
/// state), the warmed predictor/cache to preheat the processor with, the
/// phase label, and the measured window's functional covariates.
///
/// [`Resumable`]: vpr_snap::Resumable
struct FunctionalSeed {
    phase: usize,
    trace_state: Vec<u8>,
    bht: vpr_frontend::BranchHistoryTable,
    cache: vpr_mem::DataCache,
    func_miss_rate: f64,
    func_mispred_rate: f64,
}

/// Seeds every interval from **one warm serial functional pass**: a single
/// generation-only walk over `[0, last interval end)` that checkpoints the
/// stream cursor and the warmed predictor/cache at each interval start,
/// and tallies each measured window's functional covariates along the
/// way. State-identical to independently re-warming each interval over
/// its whole prefix (the model is deterministic and the walk is the same),
/// at O(region) rather than O(intervals × region) functional work.
fn functional_seeds(
    workload: Workload,
    seed: u64,
    plan: &SamplingPlan,
    config: &SimConfig,
) -> Vec<FunctionalSeed> {
    use vpr_snap::Resumable as _;
    let mut trace = workload.stream(seed);
    let mut model = FunctionalModel::new(config);
    let mut pos = 0u64;
    let step = |trace: &mut WorkloadStream, model: &mut FunctionalModel| {
        let di = trace.next().expect("synthetic traces are infinite");
        model.step(&di)
    };
    let mut seeds = Vec::with_capacity(plan.intervals);
    for start in plan.starts() {
        while pos < start {
            step(&mut trace, &mut model);
            pos += 1;
        }
        let mut enc = vpr_snap::Encoder::new();
        trace.save_state(&mut enc);
        let phase = trace.current_loop();
        let bht = model.bht.clone();
        let cache = model.cache.clone();
        // Covariates of the measured span [start + warmup, + measure):
        // the plan guarantees the detailed span fits inside the stride, so
        // the window ends before the next interval starts.
        let wstart = start + plan.detailed_warmup;
        while pos < wstart {
            step(&mut trace, &mut model);
            pos += 1;
        }
        let (mut misses, mut mispreds) = (0u64, 0u64);
        while pos < wstart + plan.detailed_measure {
            let (miss, mispred) = step(&mut trace, &mut model);
            misses += u64::from(miss);
            mispreds += u64::from(mispred);
            pos += 1;
        }
        seeds.push(FunctionalSeed {
            phase,
            trace_state: enc.into_bytes(),
            bht,
            cache,
            func_miss_rate: misses as f64 / plan.detailed_measure as f64,
            func_mispred_rate: mispreds as f64 / plan.detailed_measure as f64,
        });
    }
    seeds
}

/// One interval's prepared inputs: the positioned generator, the warmed
/// functional state to preheat the processor with, the phase label, and
/// the window's functional covariates.
struct PreparedInterval {
    trace: WorkloadStream,
    model: FunctionalModel,
    phase: usize,
    func_miss_rate: f64,
    func_mispred_rate: f64,
}

/// Positions a fresh generator at `start` with the functional model warmed
/// over the leading span, and extracts the measured window's functional
/// miss/misprediction rates from a throw-away clone.
fn prepare_interval(
    workload: Workload,
    seed: u64,
    start: u64,
    plan: &SamplingPlan,
    config: &SimConfig,
) -> PreparedInterval {
    let mut trace = workload.stream(seed);
    let warm_span = plan.functional_window.map_or(start, |w| w.min(start));
    trace.fast_forward(start - warm_span);
    let mut model = FunctionalModel::new(config);
    for _ in 0..warm_span {
        let di = trace.next().expect("synthetic traces are infinite");
        model.step(&di);
    }
    let phase = trace.current_loop();
    // Covariates for the measured span `[start + warmup, start + warmup +
    // measure)`, from clones — the real generator/model must stay at
    // `start` for the detailed simulation.
    let mut ftrace = trace.clone();
    let mut fmodel = model.clone();
    for _ in 0..plan.detailed_warmup {
        let di = ftrace.next().expect("synthetic traces are infinite");
        fmodel.step(&di);
    }
    let (mut misses, mut mispreds) = (0u64, 0u64);
    for _ in 0..plan.detailed_measure {
        let di = ftrace.next().expect("synthetic traces are infinite");
        let (miss, mispred) = fmodel.step(&di);
        misses += u64::from(miss);
        mispreds += u64::from(mispred);
    }
    PreparedInterval {
        trace,
        model,
        phase,
        func_miss_rate: misses as f64 / plan.detailed_measure as f64,
        func_mispred_rate: mispreds as f64 / plan.detailed_measure as f64,
    }
}

/// Runs one sampled estimate: `plan.intervals` independent detailed
/// simulations fanned out over the worker pool (submission-order merge —
/// the report is byte-identical for every `exp.jobs`).
pub fn sample_benchmark(
    workload: impl Into<Workload>,
    scheme: RenameScheme,
    physical_regs: usize,
    exp: &ExperimentConfig,
    plan: &SamplingPlan,
) -> SamplingReport {
    let workload = workload.into();
    let profile_config = crate::checkpoints::sim_config(scheme, physical_regs, exp);
    let profile = profile_region(
        workload,
        exp.seed,
        plan.offset,
        plan.region,
        &profile_config,
    );
    sample_benchmark_with_profile(workload, scheme, physical_regs, exp, plan, &profile)
}

/// [`sample_benchmark`] with a precomputed [`RegionProfile`]: the profile
/// depends only on the workload (benchmark, seed, spans) and the
/// cache/predictor geometry — not on the renaming scheme — so callers
/// sweeping several schemes over one benchmark profile once and reuse it.
pub fn sample_benchmark_with_profile(
    workload: impl Into<Workload>,
    scheme: RenameScheme,
    physical_regs: usize,
    exp: &ExperimentConfig,
    plan: &SamplingPlan,
    profile: &RegionProfile,
) -> SamplingReport {
    let workload = workload.into();
    plan.validate();
    let starts = plan.starts();
    let exp = *exp;
    let plan = *plan;
    let build_config = move || crate::checkpoints::sim_config(scheme, physical_regs, &exp);
    let outcomes = if plan.functional_window.is_none() {
        // One warm serial functional pass seeds every interval; only the
        // detailed windows fan out over the pool.
        let seeds = functional_seeds(workload, exp.seed, &plan, &build_config());
        par::par_map(exp.effective_jobs(), seeds, move |_, seed| {
            use vpr_snap::Resumable as _;
            let mut trace = workload.stream(exp.seed);
            trace.restore_state(&mut vpr_snap::Decoder::new(&seed.trace_state));
            let mut cpu = Processor::new(build_config(), trace);
            cpu.preheat(seed.bht, seed.cache);
            cpu.warm_up(plan.detailed_warmup);
            let stats = cpu.run(plan.detailed_measure);
            (
                seed.phase,
                seed.func_miss_rate,
                seed.func_mispred_rate,
                stats,
            )
        })
    } else {
        // A bounded functional window re-warms each interval
        // independently (the windows may overlap arbitrarily, so no
        // single pass covers them).
        par::par_map(exp.effective_jobs(), starts.clone(), move |_, start| {
            let config = build_config();
            let prepared = prepare_interval(workload, exp.seed, start, &plan, &config);
            let mut cpu = Processor::new(config, prepared.trace);
            cpu.preheat(prepared.model.bht, prepared.model.cache);
            cpu.warm_up(plan.detailed_warmup);
            let stats = cpu.run(plan.detailed_measure);
            (
                prepared.phase,
                prepared.func_miss_rate,
                prepared.func_mispred_rate,
                stats,
            )
        })
    };
    SamplingReport {
        plan,
        samples: starts
            .into_iter()
            .zip(outcomes)
            .map(
                |(start, (phase, func_miss_rate, func_mispred_rate, stats))| IntervalSample {
                    start,
                    phase,
                    func_miss_rate,
                    func_mispred_rate,
                    stats,
                },
            )
            .collect(),
        phase_weights: profile.phase_weights.clone(),
        region_miss_rate: profile.miss_rate,
        region_mispred_rate: profile.mispred_rate,
    }
}

/// A sampled estimate next to its full-run reference.
#[derive(Debug, Clone)]
pub struct SamplingAccuracy {
    /// The workload.
    pub workload: Workload,
    /// The renaming scheme.
    pub scheme: RenameScheme,
    /// IPC of the uninterrupted full run's measurement window.
    pub full_ipc: f64,
    /// IPC estimated from the sampled intervals.
    pub sampled_ipc: f64,
    /// Cache miss ratio of the full run.
    pub full_miss_ratio: f64,
    /// Cache miss ratio estimated from the samples.
    pub sampled_miss_ratio: f64,
    /// Fraction of the full run simulated in detail by the sampled
    /// estimate.
    pub detailed_fraction: f64,
}

impl SamplingAccuracy {
    /// Relative IPC error of the sampled estimate, in percent.
    pub fn ipc_error_percent(&self) -> f64 {
        if self.full_ipc == 0.0 {
            0.0
        } else {
            (self.sampled_ipc / self.full_ipc - 1.0) * 100.0
        }
    }
}

/// Runs the full simulation and the sampled estimate side by side.
pub fn evaluate_sampling(
    workload: impl Into<Workload>,
    scheme: RenameScheme,
    physical_regs: usize,
    exp: &ExperimentConfig,
    plan: &SamplingPlan,
) -> SamplingAccuracy {
    let workload = workload.into();
    let config = crate::checkpoints::sim_config(scheme, physical_regs, exp);
    let profile = profile_region(workload, exp.seed, plan.offset, plan.region, &config);
    evaluate_sampling_with_profile(workload, scheme, physical_regs, exp, plan, &profile)
}

/// [`evaluate_sampling`] with a precomputed, scheme-independent
/// [`RegionProfile`] (see [`sample_benchmark_with_profile`]).
pub fn evaluate_sampling_with_profile(
    workload: impl Into<Workload>,
    scheme: RenameScheme,
    physical_regs: usize,
    exp: &ExperimentConfig,
    plan: &SamplingPlan,
    profile: &RegionProfile,
) -> SamplingAccuracy {
    let workload = workload.into();
    let full = crate::run_benchmark(workload, scheme, physical_regs, exp);
    let sampled =
        sample_benchmark_with_profile(workload, scheme, physical_regs, exp, plan, profile);
    SamplingAccuracy {
        workload,
        scheme,
        full_ipc: full.ipc(),
        sampled_ipc: sampled.ipc(),
        full_miss_ratio: full.cache.miss_ratio(),
        sampled_miss_ratio: sampled.miss_ratio(),
        detailed_fraction: plan.detailed_fraction(),
    }
}

/// Renders a set of accuracy rows as JSON (`vpr-bench-sampling/v1`),
/// mirroring the other artefacts' hand-rolled style.
pub fn accuracy_to_json(rows: &[SamplingAccuracy], plan: &SamplingPlan) -> String {
    let mut s = String::new();
    s.push_str("{\n  \"schema\": \"vpr-bench-sampling/v1\",\n");
    let _ = writeln!(
        s,
        "  \"plan\": {{\"offset\": {}, \"region\": {}, \"intervals\": {}, \
         \"detailed_warmup\": {}, \"detailed_measure\": {}, \"detailed_fraction\": {:.4}}},",
        plan.offset,
        plan.region,
        plan.intervals,
        plan.detailed_warmup,
        plan.detailed_measure,
        plan.detailed_fraction()
    );
    s.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"benchmark\": \"{}\", \"scheme\": \"{}\", \"full_ipc\": {:.4}, \
             \"sampled_ipc\": {:.4}, \"ipc_error_percent\": {:.3}, \
             \"full_miss_ratio\": {:.4}, \"sampled_miss_ratio\": {:.4}}}",
            r.workload.name(),
            crate::harness::scheme_label(r.scheme),
            r.full_ipc,
            r.sampled_ipc,
            r.ipc_error_percent(),
            r.full_miss_ratio,
            r.sampled_miss_ratio
        );
        s.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    let worst = rows
        .iter()
        .map(|r| r.ipc_error_percent().abs())
        .fold(0.0f64, f64::max);
    let _ = writeln!(s, "  ],\n  \"worst_ipc_error_percent\": {worst:.3}");
    s.push_str("}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpr_trace::Benchmark;

    #[test]
    fn plan_geometry() {
        let plan = SamplingPlan::quick();
        plan.validate();
        assert_eq!(plan.starts().len(), plan.intervals);
        assert_eq!(plan.starts()[0], plan.offset);
        assert!(
            plan.detailed_fraction() <= 0.25,
            "{}",
            plan.detailed_fraction()
        );
        let for_exp = SamplingPlan::for_experiment(&ExperimentConfig::quick());
        for_exp.validate();
        assert!(for_exp.detailed_fraction() <= 0.25);
    }

    #[test]
    fn sampled_report_is_deterministic_across_jobs() {
        let plan = SamplingPlan {
            offset: 500,
            region: 6_000,
            intervals: 3,
            detailed_warmup: 100,
            detailed_measure: 300,
            functional_window: Some(1_000),
        };
        let mut exp = ExperimentConfig {
            warmup: 500,
            measure: 6_000,
            ..ExperimentConfig::default()
        };
        exp.jobs = 1;
        let serial = sample_benchmark(Benchmark::Swim, RenameScheme::Conventional, 64, &exp, &plan);
        exp.jobs = 4;
        let parallel =
            sample_benchmark(Benchmark::Swim, RenameScheme::Conventional, 64, &exp, &plan);
        assert_eq!(serial, parallel, "sampling must merge deterministically");
        assert!(serial.ipc() > 0.0);
    }

    #[test]
    #[should_panic(expected = "exceed the sampled region")]
    fn oversized_plan_rejected() {
        SamplingPlan {
            offset: 0,
            region: 100,
            intervals: 10,
            detailed_warmup: 10,
            detailed_measure: 10,
            functional_window: None,
        }
        .validate();
    }
}
