//! One iteration of a workload, run in a child process of its own so that
//! every iteration pays process start, program assembly and store or
//! daemon start, and so its peak memory is its own.
//!
//! The child prints `ready` once set-up is done (the parent times set-up
//! up to that line), then, at the end, one line per result:
//!
//! * `m NAME VALUE` — a metric;
//! * `p LABEL KEY=VALUE ...` — a sweep point's result digest;
//! * `l MS` — one point's latency from submission to result;
//! * `f LABEL MESSAGE` — a failed check (`*` fails every point);
//!
//! and finally `done`. A set-up probe ([`Mode::Setup`]) stops after
//! `ready`.
//!
//! [`Mode::Plain`] iterations of `table2-exact` and `asm-sampled` call
//! the experiment functions users run (`table2_in`, `asm_eval_in`).
//! [`Mode::Driver`] and [`Mode::Traced`] iterations drive the same grid
//! through each layer's public functions from this file, with the span
//! recorder off and on, and must reproduce the plain results bit for bit.
//! `serve-overlap` runs the same client code in every mode; the other two
//! modes add the check against the batch path.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use vpr_bench::checkpoints::{
    generate_group_checkpoints, group_scheme_label, sim_config, CheckpointLoadError,
    CheckpointOutcome, CheckpointStore, GeneratedCheckpoint, KIND_INTERVAL,
};
use vpr_bench::experiments::{asm_eval_in, asm_eval_workloads, table2_in};
use vpr_bench::jobs::{execute_job, JobOutput, JobSpec};
use vpr_bench::sampling::{sample_from_checkpoints, SamplingPlan};
use vpr_bench::sweep::{point_label, SweepContext, SweepPoint};
use vpr_bench::workloads::{Workload, WorkloadStream, TABLE2_SCHEMES, THROUGHPUT_SCHEMES};
use vpr_bench::ExperimentConfig;
use vpr_core::{par, Processor, SimStats};
use vpr_exec::AsmProgram;
use vpr_obs::RunTelemetry;
use vpr_serve::{Client, ServeConfig, Server};
use vpr_snap::manifest::ManifestError;
use vpr_snap::Snapshot;

use crate::spans::{self, Recorder, Span, NO_POINT};
use crate::stats::median;

/// A point's result digest: field name to exact value (floats as the hex
/// of their bits, so equality is bit equality).
pub type Digest = BTreeMap<String, String>;

/// Hex of an `f64`'s bits.
pub fn bits(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

/// Tenants (client connections) of `serve-overlap`.
pub const TENANTS: usize = 2;

/// Delay between a tenant's polls for its jobs' results: the interval
/// `vpr_serve::Client::wait`, and so `vpr-serve submit`, polls at.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// `serve-overlap`'s job size, as a multiple of the quick size. At the
/// quick size a job simulates for about 7 ms, and the journal's and the
/// store's fsyncs, whose latency follows the host's disk load, decide
/// much of an iteration's wall time; at twice that size the simulation
/// does.
const SERVE_SCALE: u64 = 2;

/// Warm passes `asm-sampled` makes over the store each cold pass fills.
/// A warm pass takes about a third of a cold one, so one per iteration
/// would leave `warm_s` and the latencies (which come from the warm
/// passes) with few samples a run.
const WARM_PASSES: usize = 2;

/// Instructions each stream yields in the trace-generation and emulator
/// rate measurements.
const STREAM_SAMPLE: usize = 200_000;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Table2Exact,
    AsmSampled,
    ServeOverlap,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Table2Exact, Kind::AsmSampled, Kind::ServeOverlap];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Table2Exact => "table2-exact",
            Kind::AsmSampled => "asm-sampled",
            Kind::ServeOverlap => "serve-overlap",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Sweep or daemon workers. `table2-exact` is the one parallel sweep
    /// (two workers, or fewer on a smaller host). The other two run one
    /// worker, which leaves a core for the fsync-bound store and journal
    /// work, the tenants and the daemon's other threads, so their timings
    /// do not depend on how two busy workers share the host's cores.
    pub fn workers(self, nproc: usize) -> usize {
        match self {
            Kind::Table2Exact => nproc.clamp(1, 2),
            Kind::AsmSampled | Kind::ServeOverlap => 1,
        }
    }

    /// Run lengths. `table2-exact` uses the sizes `table2` defaults to.
    /// `asm-sampled` runs three fifths of `asm_eval`'s: a cold pass
    /// encodes, writes and fsyncs the same 1,373 checkpoints at any size,
    /// and the time that takes follows the host's disk and memory load,
    /// so a smaller size would leave more of `cold_s` to the host, and a
    /// larger one would not fit three iterations in a 35-second run.
    /// `serve-overlap` runs jobs [`SERVE_SCALE`] times the quick size
    /// `vpr-serve submit` defaults to.
    pub fn exp(self, trace_seed: u64, workers: usize) -> ExperimentConfig {
        let base = match self {
            Kind::Table2Exact => ExperimentConfig::default(),
            Kind::AsmSampled => ExperimentConfig {
                warmup: 30_000,
                measure: 300_000,
                ..ExperimentConfig::default()
            },
            Kind::ServeOverlap => {
                let quick = ExperimentConfig::quick();
                ExperimentConfig {
                    warmup: quick.warmup * SERVE_SCALE,
                    measure: quick.measure * SERVE_SCALE,
                    ..quick
                }
            }
        };
        ExperimentConfig {
            seed: trace_seed,
            jobs: workers,
            ..base
        }
    }

    /// The sweep grid, in submission order.
    pub fn grid(self) -> Vec<SweepPoint> {
        let (workloads, schemes): (Vec<Workload>, &[_]) = match self {
            Kind::Table2Exact => (Workload::synthetic(), &TABLE2_SCHEMES),
            Kind::AsmSampled => (asm_eval_workloads(), &THROUGHPUT_SCHEMES),
            Kind::ServeOverlap => (Workload::all(), &THROUGHPUT_SCHEMES),
        };
        workloads
            .iter()
            .flat_map(|&w| schemes.iter().map(move |&s| SweepPoint::at64(w, s)))
            .collect()
    }

    /// Points checked per iteration.
    pub fn points(self) -> usize {
        match self {
            Kind::ServeOverlap => TENANTS * self.grid().len(),
            _ => self.grid().len(),
        }
    }
}

/// What a child process runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Set-up only: the child exits once it is ready.
    Setup,
    /// The experiment call users run, untraced: the end-to-end figures.
    Plain,
    /// The benchmark's own per-layer driver with the span recorder off:
    /// the base `obs.span_overhead_pct` is measured against.
    Driver,
    /// The per-layer driver inside spans: the per-layer figures.
    Traced,
}

impl Mode {
    pub const ALL: [Mode; 4] = [Mode::Setup, Mode::Plain, Mode::Driver, Mode::Traced];

    pub fn name(self) -> &'static str {
        match self {
            Mode::Setup => "setup",
            Mode::Plain => "plain",
            Mode::Driver => "driver",
            Mode::Traced => "traced",
        }
    }

    pub fn parse(name: &str) -> Option<Mode> {
        Mode::ALL.into_iter().find(|m| m.name() == name)
    }
}

/// What one child iteration runs.
pub struct Ctx {
    pub kind: Kind,
    pub trace_seed: u64,
    pub workers: usize,
    /// Fresh state directory (relative to the checkout, so the daemon's
    /// socket path stays short).
    pub state: PathBuf,
    pub mode: Mode,
    /// Where a traced iteration writes its spans.
    pub spans_out: PathBuf,
}

impl Ctx {
    fn exp(&self) -> ExperimentConfig {
        self.kind.exp(self.trace_seed, self.workers)
    }
}

/// The lines a child prints after `ready`.
#[derive(Default)]
pub struct Out {
    metrics: BTreeMap<String, f64>,
    lines: Vec<String>,
}

impl Out {
    fn metric(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    fn get(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(f64::NAN)
    }

    fn point(&mut self, label: &str, digest: &Digest) {
        let fields: Vec<String> = digest.iter().map(|(k, v)| format!("{k}={v}")).collect();
        self.lines.push(format!("p {label} {}", fields.join(" ")));
    }

    fn latency_ms(&mut self, ms: f64) {
        self.lines.push(format!("l {ms}"));
    }

    fn fail(&mut self, label: &str, message: &str) {
        self.lines
            .push(format!("f {label} {}", message.replace('\n', " ")));
    }

    fn emit(self) {
        let mut stdout = std::io::stdout().lock();
        for (name, value) in &self.metrics {
            let _ = writeln!(stdout, "m {name} {value}");
        }
        for line in self.lines {
            let _ = writeln!(stdout, "{line}");
        }
        let _ = writeln!(stdout, "done");
        let _ = stdout.flush();
    }
}

/// Tells the parent set-up is over: the next thing this process does is
/// submit the first point.
fn ready() {
    let mut stdout = std::io::stdout().lock();
    let _ = writeln!(stdout, "ready");
    let _ = stdout.flush();
}

/// This process's peak resident set, in MB (`VmHWM`).
fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Runs one iteration (or set-up probe) and prints its results.
pub fn run(ctx: &Ctx) {
    let traced = ctx.mode == Mode::Traced;
    let rec = Recorder::new(traced);
    let mut out = match (ctx.kind, ctx.mode) {
        (kind, Mode::Setup) => {
            setup_probe(ctx, kind);
            return;
        }
        (Kind::Table2Exact, Mode::Plain) => table2_plain(ctx),
        (Kind::Table2Exact, _) => table2_driver(ctx, &rec),
        (Kind::AsmSampled, Mode::Plain) => asm_plain(ctx),
        (Kind::AsmSampled, _) => asm_driver(ctx, &rec),
        (Kind::ServeOverlap, _) => serve(ctx, &rec),
    };
    out.metric("rss_peak_mb", rss_peak_mb());
    if traced {
        let spans = rec.finish();
        if let Some(root) = spans.iter().find(|s| s.name == "iteration") {
            out.metric("obs.span_coverage", spans::coverage(&spans, root));
        }
        for (name, (count, total, self_ns)) in spans::by_name(&spans) {
            out.metric(&format!("span.{name}.count"), count as f64);
            out.metric(&format!("span.{name}.total_ns"), total as f64);
            out.metric(&format!("span.{name}.self_ns"), self_ns as f64);
        }
        if let Err(e) = std::fs::write(&ctx.spans_out, spans::to_tsv(&spans)) {
            eprintln!("cannot write {}: {e}", ctx.spans_out.display());
        }
        layer_metrics(ctx.kind, &spans, &mut out);
    }
    out.emit();
}

/// The set-up an iteration of `kind` pays before its first point, and
/// nothing else: the parent times many of these for `setup_s`.
fn setup_probe(ctx: &Ctx, kind: Kind) {
    let rec = Recorder::new(false);
    match kind {
        Kind::Table2Exact => ready(),
        Kind::AsmSampled => {
            let grid = Sampled::new(ctx);
            let store = asm_setup(&rec, &ctx.state.join("checkpoints"));
            std::hint::black_box((&grid, &store));
            ready();
        }
        Kind::ServeOverlap => {
            let (_, server) = serve_setup(ctx, &rec);
            ready();
            server.stop();
        }
    }
    Out::default().emit();
}

// ----------------------------------------------------------------------
// Shared pieces
// ----------------------------------------------------------------------

/// Sweep-engine figures from the experiment calls' telemetry, plus the
/// latency from submission (sweep start) to result of every `stage` point
/// of each of the `timed` calls.
fn sweep_figures(out: &mut Out, telemetry: &[&RunTelemetry], timed: &[&RunTelemetry], stage: &str) {
    let mut busy = 0.0;
    let mut capacity = 0.0;
    let mut recoveries = 0;
    for t in telemetry {
        busy += t.busy_s();
        capacity += t.wall_s * t.jobs.max(1) as f64;
        recoveries += t.fault_recoveries + t.points.iter().map(|p| p.recovered).sum::<u64>();
    }
    let mut waits = Vec::new();
    for p in timed
        .iter()
        .flat_map(|t| &t.points)
        .filter(|p| p.stage == stage)
    {
        waits.push(p.queue_wait_s * 1e3);
        out.latency_ms((p.queue_wait_s + p.wall_s) * 1e3);
    }
    out.metric("sweep.queue_wait_p50_ms", median(&waits));
    out.metric("sweep.utilisation", busy / capacity.max(f64::MIN_POSITIVE));
    out.metric("sweep.recoveries", recoveries as f64);
}

/// One point simulated directly through `Processor::{new, warm_up, run}`.
pub struct Direct {
    pub stats: SimStats,
    /// Instructions committed including warm-up.
    pub committed_total: u64,
    /// Cycles simulated including warm-up.
    pub cycles_total: u64,
}

/// The grid through the kernel's public entry points, scheduled by
/// `vpr_core::par` as the sweep engine schedules it.
pub fn grid_direct(
    rec: &Recorder,
    parent: Option<u64>,
    points: &[SweepPoint],
    exp: &ExperimentConfig,
    workers: usize,
) -> Vec<Direct> {
    let exp = *exp;
    rec.span("sweep.par_map", parent, NO_POINT, |sweep| {
        par::par_map(workers, points.to_vec(), |i, p| {
            let i = i as u64;
            rec.span("sweep.job", Some(sweep.id), i, |job| {
                let mut cpu = rec.span("core.new", Some(job.id), i, |_| {
                    Processor::new(
                        sim_config(p.scheme, p.physical_regs, &exp),
                        p.workload.stream(exp.seed),
                    )
                });
                rec.span("core.warm_up", Some(job.id), i, |_| cpu.warm_up(exp.warmup));
                let stats = rec.span("core.run", Some(job.id), i, |_| cpu.run(exp.measure));
                Direct {
                    stats,
                    committed_total: cpu.absolute_committed(),
                    cycles_total: cpu.cycle(),
                }
            })
        })
    })
}

/// The digest of a directly simulated point.
pub fn direct_digest(d: &Direct) -> Digest {
    let mut digest = Digest::new();
    digest.insert("committed".into(), d.stats.committed.to_string());
    digest.insert("cycles".into(), d.stats.cycles.to_string());
    digest.insert("ipc".into(), bits(d.stats.ipc()));
    digest.insert("epc".into(), bits(d.stats.executions_per_commit()));
    digest.insert("miss".into(), bits(d.stats.cache.miss_ratio()));
    digest
}

/// Modelled-machine counts summed over a directly simulated grid.
fn sim_figures(out: &mut Out, grid: &[Direct]) {
    let sum = |f: &dyn Fn(&SimStats) -> u64| grid.iter().map(|d| f(&d.stats)).sum::<u64>();
    let committed = sum(&|s| s.committed);
    let per_commit = |n: u64| n as f64 / committed.max(1) as f64;
    out.metric("sim.cycles", sum(&|s| s.cycles) as f64);
    out.metric("sim.committed", committed as f64);
    out.metric(
        "sim.rename_stalls",
        sum(&|s| s.int.rename_stalls + s.fp.rename_stalls) as f64,
    );
    out.metric(
        "sim.reg_hold_per_commit",
        per_commit(sum(&|s| s.int.hold_cycles + s.fp.hold_cycles)),
    );
    let misses = sum(&|s| s.cache.misses + s.cache.merged_misses);
    let accesses = sum(&|s| s.cache.hits) + misses;
    out.metric(
        "sim.dcache_miss_ratio",
        misses as f64 / accesses.max(1) as f64,
    );
    out.metric(
        "sim.reexec_per_commit",
        per_commit(sum(&|s| s.register_reexecutions + s.memory_reexecutions)),
    );
    out.metric(
        "sim.wrong_path_squashed",
        sum(&|s| s.wrong_path_squashed) as f64,
    );
    // Commits and cycles including warm-up: the denominators of the
    // kernel's host time per event, since the core spans time warm-up too.
    out.metric(
        "sim.committed_total",
        grid.iter().map(|d| d.committed_total).sum::<u64>() as f64,
    );
    out.metric(
        "sim.cycles_total",
        grid.iter().map(|d| d.cycles_total).sum::<u64>() as f64,
    );
}

/// Instructions per second a stream yields on its own (no pipeline).
fn stream_rate(rec: &Recorder, name: &'static str, workloads: &[Workload], seed: u64) -> f64 {
    let t = Instant::now();
    for (i, w) in workloads.iter().enumerate() {
        rec.span(name, None, i as u64, |_| {
            let n = w
                .stream(seed)
                .take(STREAM_SAMPLE)
                .map(|d| std::hint::black_box(d).pc())
                .fold(0u64, u64::wrapping_add);
            std::hint::black_box(n);
        });
    }
    (workloads.len() * STREAM_SAMPLE) as f64 / t.elapsed().as_secs_f64() / 1e6
}

/// `Processor::new` for every point of the grid (the kernel's set-up
/// cost, measured where the benchmark does not build processors itself).
fn core_new(rec: &Recorder, points: &[SweepPoint], exp: &ExperimentConfig) {
    for (i, p) in points.iter().enumerate() {
        let cpu = rec.span("core.new", None, i as u64, |_| {
            Processor::new(
                sim_config(p.scheme, p.physical_regs, exp),
                p.workload.stream(exp.seed),
            )
        });
        std::hint::black_box(&cpu);
    }
}

/// Per-layer figures derived from the spans.
fn layer_metrics(kind: Kind, spans: &[Span], out: &mut Out) {
    // The warm pass of `asm-sampled` starts with the store's reopen, the
    // one `store.open` span inside the iteration.
    let warm_from = spans
        .iter()
        .find(|s| s.name == "store.open" && s.parent.is_some())
        .map_or(0, |s| s.start_ns);
    let ns = |name: &str, from: u64| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name && s.start_ns >= from)
            .map(|s| s.dur_ns() as f64)
            .collect()
    };
    let total = |name: &str, from: u64| ns(name, from).iter().sum::<f64>();
    let p50 = |name: &str| median(&ns(name, 0));
    out.metric("core.new_us", p50("core.new") / 1e3);
    if kind != Kind::AsmSampled {
        let busy = total("core.new", 0) + total("core.warm_up", 0) + total("core.run", 0);
        out.metric("core.busy_s", busy / 1e9);
        out.metric("core.ns_per_commit", busy / out.get("sim.committed_total"));
        out.metric("core.ns_per_cycle", busy / out.get("sim.cycles_total"));
    }
    match kind {
        Kind::Table2Exact => {}
        Kind::AsmSampled => {
            out.metric("exec.assemble_ms", p50("exec.assemble") / 1e6);
            out.metric("snap.encode_us", p50("snap.encode") / 1e3);
            out.metric("snap.decode_restore_us", p50("snap.decode_restore") / 1e3);
            out.metric("store.open_ms", p50("store.open") / 1e6);
            out.metric("store.persist_ms", total("store.persist", 0) / 1e6);
            out.metric("store.load_ms", total("store.load", warm_from) / 1e6);
            out.metric("sampling.warm_pass_s", total("sampling.warm_pass", 0) / 1e9);
            out.metric(
                "sampling.windows_s",
                total("sampling.windows", warm_from) / 1e9,
            );
        }
        Kind::ServeOverlap => {
            let execute = p50("jobs.execute") / 1e6;
            out.metric("serve.start_ms", p50("serve.start") / 1e6);
            out.metric("serve.submit_ack_p50_ms", p50("serve.submit") / 1e6);
            out.metric("jobs.execute_p50_ms", execute);
            out.metric(
                "serve.overhead_p50_ms",
                out.get("serve.latency_p50_ms") - execute,
            );
        }
    }
}

// ----------------------------------------------------------------------
// table2-exact
// ----------------------------------------------------------------------

fn table2_plain(ctx: &Ctx) -> Out {
    let exp = ctx.exp();
    let mut out = Out::default();
    ready();
    let t = Instant::now();
    let table = table2_in(&exp, &SweepContext::exact());
    let wall = t.elapsed().as_secs_f64();
    for r in &table.rows {
        let [conv, vp] = TABLE2_SCHEMES.map(|s| point_label(&SweepPoint::at64(r.workload, s)));
        out.point(&conv, &Digest::from([("ipc".into(), bits(r.conv_ipc))]));
        out.point(
            &vp,
            &Digest::from([
                ("ipc".into(), bits(r.vp_ipc)),
                ("epc".into(), bits(r.vp_executions_per_commit)),
            ]),
        );
    }
    for f in &table.failures {
        out.fail(&f.point, &format!("{}: {}", f.stage, f.error));
    }
    sweep_figures(
        &mut out,
        &[&table.telemetry],
        &[&table.telemetry],
        "simulate",
    );
    let detailed = table.rows.len() as u64 * 2 * (exp.warmup + exp.measure);
    out.metric("wall_s", wall);
    out.metric("cold_s", wall);
    out.metric("warm_s", wall);
    out.metric("sim_mips", detailed as f64 / wall / 1e6);
    out
}

fn table2_driver(ctx: &Ctx, rec: &Recorder) -> Out {
    let exp = ctx.exp();
    let points = ctx.kind.grid();
    let mut out = Out::default();
    ready();
    let root = rec.begin("iteration", None, NO_POINT);
    let t = Instant::now();
    let grid = grid_direct(rec, Some(root.id), &points, &exp, ctx.workers);
    let wall = t.elapsed().as_secs_f64();
    rec.end(root);
    for (p, d) in points.iter().zip(&grid) {
        out.point(&point_label(p), &direct_digest(d));
    }
    out.metric("wall_s", wall);
    sim_figures(&mut out, &grid);
    out.metric(
        "trace.gen_minst_per_s",
        stream_rate(rec, "trace.gen", &Workload::synthetic(), exp.seed),
    );
    out
}

// ----------------------------------------------------------------------
// asm-sampled
// ----------------------------------------------------------------------

/// Assembles the bundled programs (the first `program()` call assembles
/// all of them) and opens the empty checkpoint store: the set-up a user's
/// `asm_eval --sampled` process pays before its first point.
fn asm_setup(rec: &Recorder, dir: &Path) -> CheckpointStore {
    rec.span("exec.assemble", None, NO_POINT, |_| {
        std::hint::black_box(AsmProgram::Matmul.program());
    });
    std::fs::create_dir_all(dir).expect("create the checkpoint directory");
    rec.span("store.open", None, NO_POINT, |_| CheckpointStore::open(dir))
        .expect("open the empty checkpoint store")
}

/// The `asm-sampled` grid and how its points share warm passes.
struct Sampled {
    exp: ExperimentConfig,
    plan: SamplingPlan,
    workers: usize,
    points: Vec<SweepPoint>,
    /// Sharing groups, formed as the sampled sweep forms them.
    groups: Vec<SweepPoint>,
    /// Each point's group.
    group_of: Vec<usize>,
}

/// One group's interval set, and what the cold pass generated for it.
struct GroupSet {
    set: Vec<(u64, Snapshot)>,
    generated: Vec<GeneratedCheckpoint>,
    hit: bool,
}

/// What a sampled pass produced: each point's estimate and each group's
/// set, or why there is none.
struct PassOut {
    estimates: Vec<Result<f64, String>>,
    sets: Vec<Result<GroupSet, String>>,
}

impl Sampled {
    fn new(ctx: &Ctx) -> Self {
        let exp = ctx.exp();
        let points = ctx.kind.grid();
        let key = |p: &SweepPoint| {
            (
                p.workload,
                group_scheme_label(p.scheme, p.physical_regs, &exp),
                p.physical_regs,
            )
        };
        let mut groups: Vec<SweepPoint> = Vec::new();
        let group_of = points
            .iter()
            .map(|p| match groups.iter().position(|g| key(g) == key(p)) {
                Some(i) => i,
                None => {
                    groups.push(*p);
                    groups.len() - 1
                }
            })
            .collect();
        Self {
            plan: SamplingPlan::for_experiment_checkpointed(&exp),
            exp,
            workers: ctx.workers,
            points,
            groups,
            group_of,
        }
    }

    /// Detailed (pipeline-simulated) instructions of a cold and a warm
    /// pass: each group's warm serial pass runs up to its last interval
    /// start (cold pass only), and every point simulates its windows in
    /// both passes.
    fn detailed(&self) -> u64 {
        let warm_pass = self
            .plan
            .starts()
            .last()
            .copied()
            .unwrap_or(0)
            .max(self.exp.warmup);
        let windows = self.plan.intervals as u64 * self.plan.detailed_per_interval();
        self.groups.len() as u64 * warm_pass + 2 * self.points.len() as u64 * windows
    }

    /// Looks a group's interval set up in `store`; on a miss in the cold
    /// pass, runs its warm pass (which encodes the snapshots).
    fn load_or_generate(
        &self,
        rec: &Recorder,
        job: u64,
        store: &CheckpointStore,
        g: &SweepPoint,
        cold: bool,
    ) -> Result<GroupSet, String> {
        let (exp, plan) = (&self.exp, &self.plan);
        let loaded = rec.span("store.load", Some(job), NO_POINT, |_| {
            store.load_group_interval_set(g.workload, g.scheme, g.physical_regs, exp, plan)
        });
        match loaded {
            Ok(set) => Ok(GroupSet {
                set,
                generated: Vec::new(),
                hit: true,
            }),
            Err(CheckpointLoadError::Manifest(ManifestError::NotFound(_))) if cold => {
                let generated = rec.span("sampling.warm_pass", Some(job), NO_POINT, |_| {
                    generate_group_checkpoints(
                        g.workload,
                        g.scheme,
                        g.physical_regs,
                        exp,
                        Some(plan),
                    )
                });
                let set = generated
                    .iter()
                    .filter(|c| c.key.kind == KIND_INTERVAL)
                    .map(|c| (c.key.target, c.snapshot.clone()))
                    .collect();
                Ok(GroupSet {
                    set,
                    generated,
                    hit: false,
                })
            }
            Err(e) => Err(e.to_string()),
        }
    }

    /// One sampled pass through the layers, as the sampled sweep makes it:
    /// every group's interval set (loaded, or generated and persisted),
    /// then every point's windows.
    fn pass(&self, rec: &Recorder, root: u64, store: &mut CheckpointStore, cold: bool) -> PassOut {
        let store_ref = &*store;
        let sets: Vec<Result<GroupSet, String>> =
            rec.span("sweep.par_map", Some(root), NO_POINT, |sweep| {
                par::par_map(self.workers, self.groups.clone(), |i, g| {
                    rec.span("sweep.job", Some(sweep.id), i as u64, |job| {
                        self.load_or_generate(rec, job.id, store_ref, &g, cold)
                    })
                })
            });
        let generated: Vec<GeneratedCheckpoint> = sets
            .iter()
            .flatten()
            .flat_map(|s| s.generated.iter().cloned())
            .collect();
        let persisted = if generated.is_empty() {
            Ok(())
        } else {
            rec.span("store.persist", Some(root), NO_POINT, |_| {
                store.save_all(&generated).and_then(|()| store.flush())
            })
            .map_err(|e| format!("persist: {e}"))
        };
        let estimates = rec.span("sweep.par_map", Some(root), NO_POINT, |sweep| {
            par::par_map(self.workers, self.points.clone(), |i, p| {
                let set = match (&sets[self.group_of[i]], &persisted) {
                    (Ok(s), Ok(())) => &s.set,
                    (Err(e), _) | (_, Err(e)) => return Err(e.clone()),
                };
                let i = i as u64;
                rec.span("sweep.job", Some(sweep.id), i, |job| {
                    rec.span("sampling.windows", Some(job.id), i, |_| {
                        let report = sample_from_checkpoints(
                            p.workload,
                            p.scheme,
                            p.physical_regs,
                            &self.exp,
                            &self.plan,
                            set,
                            1,
                        );
                        Ok(report.ipc())
                    })
                })
            })
        });
        PassOut { estimates, sets }
    }
}

fn asm_plain(ctx: &Ctx) -> Out {
    let grid = Sampled::new(ctx);
    let dir = ctx.state.join("checkpoints");
    drop(asm_setup(&Recorder::new(false), &dir));
    let mut out = Out::default();
    let sweep = SweepContext::new(true, Some(&dir));
    ready();
    let t = Instant::now();
    let cold = asm_eval_in(&grid.exp, &sweep);
    let cold_s = t.elapsed().as_secs_f64();
    let mut warm = Vec::new();
    let mut warm_times = Vec::new();
    for _ in 0..WARM_PASSES {
        let t = Instant::now();
        warm.push(asm_eval_in(&grid.exp, &sweep));
        warm_times.push(t.elapsed().as_secs_f64());
    }
    let warm_s = median(&warm_times);

    let ipcs = |e: &vpr_bench::experiments::AsmEval| -> Vec<f64> {
        e.rows
            .iter()
            .flat_map(|r| [r.conv_ipc, r.early_ipc, r.vp_issue_ipc, r.vp_wb_ipc])
            .collect()
    };
    let warm_ipcs: Vec<Vec<f64>> = warm.iter().map(ipcs).collect();
    for (k, (p, c)) in grid.points.iter().zip(ipcs(&cold)).enumerate() {
        let label = point_label(p);
        for w in warm_ipcs
            .iter()
            .map(|w| w.get(k).copied().unwrap_or(f64::NAN))
        {
            if c.to_bits() != w.to_bits() {
                out.fail(&label, &format!("warm estimate {w} differs from cold {c}"));
            }
        }
        out.point(&label, &Digest::from([("sipc".into(), bits(c))]));
    }
    for f in cold
        .failures
        .iter()
        .chain(warm.iter().flat_map(|w| &w.failures))
    {
        out.fail(&f.point, &format!("{}: {}", f.stage, f.error));
    }
    for w in &warm {
        if w.telemetry.checkpoint_hits != grid.groups.len() as u64 {
            out.fail(
                "*",
                &format!(
                    "warm pass restored {} of {} groups from the store",
                    w.telemetry.checkpoint_hits,
                    grid.groups.len()
                ),
            );
        }
    }
    // Latencies from the warm passes: the cold pass's points all wait for
    // its warm passes, so pooling both would put the median on the edge
    // between two clusters.
    let t_warm: Vec<&RunTelemetry> = warm.iter().map(|w| &w.telemetry).collect();
    let t_all: Vec<&RunTelemetry> = [&cold.telemetry]
        .into_iter()
        .chain(t_warm.clone())
        .collect();
    sweep_figures(&mut out, &t_all, &t_warm, "sample");
    // Over the cold pass and one warm pass, as the per-layer driver counts.
    let hits: u64 = t_all[..2].iter().map(|t| t.checkpoint_hits).sum();
    let lookups = hits + t_all[..2].iter().map(|t| t.checkpoint_misses).sum::<u64>();
    out.metric("store.hit_ratio", hits as f64 / lookups.max(1) as f64);
    out.metric("wall_s", cold_s + warm_s);
    out.metric("cold_s", cold_s);
    out.metric("warm_s", warm_s);
    out.metric("sim_mips", grid.detailed() as f64 / (cold_s + warm_s) / 1e6);
    out
}

fn asm_driver(ctx: &Ctx, rec: &Recorder) -> Out {
    let grid = Sampled::new(ctx);
    let exp = grid.exp;
    let dir = ctx.state.join("checkpoints");
    let mut store = asm_setup(rec, &dir);
    let mut out = Out::default();
    ready();
    let root = rec.begin("iteration", None, NO_POINT);
    let t = Instant::now();
    let cold = grid.pass(rec, root.id, &mut store, true);
    let cold_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut store = rec
        .span("store.open", Some(root.id), NO_POINT, |_| {
            CheckpointStore::open(&dir)
        })
        .expect("reopen the checkpoint store");
    let warm = grid.pass(rec, root.id, &mut store, false);
    let warm_s = t.elapsed().as_secs_f64();
    rec.end(root);

    for ((p, c), w) in grid.points.iter().zip(&cold.estimates).zip(&warm.estimates) {
        let label = point_label(p);
        match (c, w) {
            (Ok(c), Ok(w)) => {
                if c.to_bits() != w.to_bits() {
                    out.fail(&label, &format!("warm estimate {w} differs from cold {c}"));
                }
                out.point(&label, &Digest::from([("sipc".into(), bits(*c))]));
            }
            (Err(e), _) | (_, Err(e)) => out.fail(&label, e),
        }
    }
    let hits = cold
        .sets
        .iter()
        .chain(&warm.sets)
        .filter(|s| matches!(s, Ok(GroupSet { hit: true, .. })))
        .count();
    out.metric("wall_s", cold_s + warm_s);
    out.metric("cold_s", cold_s);
    out.metric("warm_s", warm_s);
    out.metric(
        "store.hit_ratio",
        hits as f64 / (2 * grid.groups.len()) as f64,
    );

    // Layer rates, outside the timed iteration.
    out.metric(
        "exec.emit_minst_per_s",
        stream_rate(rec, "exec.emit", &Workload::asm(), exp.seed),
    );
    let synthetic: Vec<Workload> = asm_eval_workloads()
        .into_iter()
        .filter(|w| matches!(w, Workload::Synthetic(_)))
        .collect();
    out.metric(
        "trace.gen_minst_per_s",
        stream_rate(rec, "trace.gen", &synthetic, exp.seed),
    );
    let mut bytes = Vec::new();
    for (i, (g, s)) in grid.groups.iter().zip(&warm.sets).enumerate() {
        let Some((_, snap)) = s.as_ref().ok().and_then(|s| s.set.get(s.set.len() / 2)) else {
            continue;
        };
        let i = i as u64;
        let cpu = rec.span("snap.decode_restore", None, i, |_| {
            Processor::<WorkloadStream>::restore(snap, g.workload.stream(exp.seed))
        });
        match cpu {
            Ok(cpu) => {
                let again = rec.span("snap.encode", None, i, |_| cpu.snapshot());
                bytes.push(again.to_bytes().len() as f64);
            }
            Err(e) => out.fail("*", &format!("snapshot does not restore: {e}")),
        }
    }
    out.metric("snap.bytes", median(&bytes));
    core_new(rec, &grid.points, &exp);
    out
}

// ----------------------------------------------------------------------
// serve-overlap
// ----------------------------------------------------------------------

/// One tenant's view of one job.
struct Done {
    output: Option<JobOutput>,
    error: Option<String>,
    latency_ms: f64,
}

/// One tenant, driving the daemon as `vpr-serve submit` does: one submit
/// of the whole grid, then a poll of every id each [`POLL_INTERVAL`]
/// until all are terminal. A job's latency runs from the submit to the
/// poll that first sees it terminal.
fn tenant(
    rec: &Recorder,
    root: u64,
    tenant: usize,
    specs: &[JobSpec],
    socket: &Path,
    start: &Barrier,
) -> Vec<Done> {
    let client = Client::new(socket);
    let point = tenant as u64;
    start.wait();
    rec.span("serve.tenant", Some(root), point, |span| {
        let t0 = Instant::now();
        let give_up = |error: String| {
            let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
            specs
                .iter()
                .map(|_| Done {
                    output: None,
                    error: Some(error.clone()),
                    latency_ms,
                })
                .collect()
        };
        let ids = match rec.span("serve.submit", Some(span.id), point, |_| {
            client.submit(specs)
        }) {
            Ok(ids) if ids.len() == specs.len() => ids,
            Ok(ids) => {
                return give_up(format!(
                    "submit: {} ids for {} jobs",
                    ids.len(),
                    specs.len()
                ))
            }
            Err(e) => return give_up(format!("submit: {e}")),
        };
        let mut done: Vec<Option<Done>> = specs.iter().map(|_| None).collect();
        loop {
            let results = match rec.span("serve.poll", Some(span.id), point, |_| client.poll(&ids))
            {
                Ok(results) if results.len() == ids.len() => results,
                Ok(results) => {
                    return give_up(format!(
                        "poll: {} results for {} ids",
                        results.len(),
                        ids.len()
                    ))
                }
                Err(e) => return give_up(format!("poll: {e}")),
            };
            let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
            for (slot, r) in done.iter_mut().zip(results) {
                if slot.is_none() && r.is_terminal() {
                    *slot = Some(match r.state.as_str() {
                        "done" => Done {
                            output: r.output,
                            error: None,
                            latency_ms,
                        },
                        _ => Done {
                            output: None,
                            error: Some(r.error.unwrap_or(r.state)),
                            latency_ms,
                        },
                    });
                }
            }
            if done.iter().all(Option::is_some) {
                return done.into_iter().flatten().collect();
            }
            std::thread::sleep(POLL_INTERVAL);
        }
    })
}

fn output_digest(o: &JobOutput) -> Digest {
    Digest::from([
        ("ipc".into(), bits(o.metrics.ipc)),
        ("epc".into(), bits(o.metrics.executions_per_commit)),
        ("miss".into(), bits(o.metrics.miss_ratio)),
    ])
}

/// The serve grid as jobs, and a started daemon with a fresh state
/// directory.
fn serve_setup(ctx: &Ctx, rec: &Recorder) -> (Vec<JobSpec>, Server) {
    let exp = ctx.exp();
    let specs: Vec<JobSpec> = ctx
        .kind
        .grid()
        .iter()
        .map(|p| JobSpec {
            workload: p.workload,
            scheme: p.scheme,
            physical_regs: p.physical_regs,
            exp: ExperimentConfig { jobs: 0, ..exp },
        })
        .collect();
    let mut cfg = ServeConfig::new(ctx.state.join("d.sock"), ctx.state.join("serve"));
    cfg.workers = ctx.workers;
    let server = rec
        .span("serve.start", None, NO_POINT, |_| Server::start(cfg))
        .expect("start the daemon");
    (specs, server)
}

fn serve(ctx: &Ctx, rec: &Recorder) -> Out {
    let exp = ctx.exp();
    let points = ctx.kind.grid();
    let (specs, server) = serve_setup(ctx, rec);
    let socket = ctx.state.join("d.sock");
    let mut out = Out::default();
    ready();
    let root = rec.begin("iteration", None, NO_POINT);
    let t = Instant::now();
    let start = Barrier::new(TENANTS);
    let results: Vec<Vec<Done>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..TENANTS)
            .map(|n| {
                let (socket, start, specs) = (&socket, &start, &specs);
                s.spawn(move || tenant(rec, root.id, n, specs, socket, start))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("tenant thread panicked"))
            .collect()
    });
    let wall = t.elapsed().as_secs_f64();
    rec.end(root);
    let m = server.metrics();
    server.stop();

    let mut detailed = 0;
    for (n, done) in results.iter().enumerate() {
        for (spec, d) in specs.iter().zip(done) {
            let label = format!("t{n}/{}", spec.label());
            out.latency_ms(d.latency_ms);
            match (&d.output, &d.error) {
                (Some(o), None) => {
                    out.point(&label, &output_digest(o));
                    detailed += exp.measure
                        + match o.outcome {
                            CheckpointOutcome::Hit(_) => 0,
                            _ => exp.warmup,
                        };
                }
                (_, e) => out.fail(&label, e.as_deref().unwrap_or("no output")),
            }
        }
    }
    // Tenants submitted the same grid: their results must agree cell for
    // cell.
    for (k, spec) in specs.iter().enumerate() {
        let cells: Vec<Option<Digest>> = results
            .iter()
            .map(|r| r[k].output.as_ref().map(output_digest))
            .collect();
        if cells.windows(2).any(|w| w[0] != w[1]) {
            out.fail(&format!("t1/{}", spec.label()), "tenants disagree");
        }
    }
    out.metric("wall_s", wall);
    out.metric("cold_s", wall);
    out.metric("warm_s", wall);
    out.metric("sim_mips", detailed as f64 / wall / 1e6);
    let jobs = (TENANTS * specs.len()) as f64;
    out.metric("serve.dedup_ratio", m.dedup_hits as f64 / jobs);
    out.metric("serve.retries", m.retries as f64);
    out.metric("serve.lease_expiries", m.lease_expiries as f64);
    if m.jobs_failed > 0 {
        out.fail("*", &format!("{} jobs degraded to failures", m.jobs_failed));
    }

    if ctx.mode != Mode::Plain {
        let latencies: Vec<f64> = results.iter().flatten().map(|d| d.latency_ms).collect();
        out.metric("serve.latency_p50_ms", median(&latencies));
        // The batch path the daemon must match, cell for cell: in-process
        // `execute_job`, and the kernel driven directly.
        let batch: Vec<JobOutput> = rec.span("sweep.par_map", None, NO_POINT, |sweep| {
            par::par_map(ctx.workers, specs.clone(), |i, spec| {
                rec.span("jobs.execute", Some(sweep.id), i as u64, |_| {
                    execute_job(&spec, None)
                })
            })
        });
        let grid = grid_direct(rec, None, &points, &exp, ctx.workers);
        for (k, (spec, (b, d))) in specs.iter().zip(batch.iter().zip(&grid)).enumerate() {
            let want = output_digest(b);
            let direct = direct_digest(d);
            let agrees = want.iter().all(|(key, v)| direct.get(key) == Some(v));
            for (n, r) in results.iter().enumerate() {
                let label = format!("t{n}/{}", spec.label());
                if r[k].output.as_ref().map(output_digest) != Some(want.clone()) || !agrees {
                    out.fail(&label, "daemon result differs from the batch path");
                }
            }
            out.point(&format!("batch/{}", spec.label()), &direct);
        }
        sim_figures(&mut out, &grid);
        out.metric(
            "trace.gen_minst_per_s",
            stream_rate(rec, "trace.gen", &Workload::synthetic(), exp.seed),
        );
        out.metric(
            "exec.emit_minst_per_s",
            stream_rate(rec, "exec.emit", &Workload::asm(), exp.seed),
        );
    }
    out
}
