//! `perfbench`: the repository's benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! perfbench --workload all ... # every workload in turn
//! perfbench --describe        # every metric, with its unit and meaning
//! perfbench refs [--out PATH] # regenerate the reference digests
//! ```
//!
//! A run repeats one workload, one fresh child process per iteration,
//! until `--seconds` are spent, checks every point's result and prints
//! one JSON object as the last line of standard output. `--trace 0`
//! reports the end-to-end metrics, with set-up probes (child processes
//! that stop once set up) between iterations for `setup_s`; `--trace 1`
//! cycles through plain, driver and traced iterations (see [`iter`]) and
//! reports the per-layer metrics. A fuller report
//! (spreads, host, toolchain, seeds) goes to `.perfbench/reports/`, and
//! the last traced iteration's spans to `.perfbench/spans/`. See
//! `README.md` beside this package for the workloads and metrics.

mod iter;
mod refs;
mod spans;
mod stats;

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::io::BufRead as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use iter::{Digest, Kind, Mode, TENANTS};
use stats::{iqr_share, median, percentile};
use vpr_bench::sweep::json_escape;
use vpr_core::harmonic_mean;

/// Where runs keep their state, reports and spans (relative to the
/// checkout the benchmark runs in).
const WORK_DIR: &str = ".perfbench";

/// A run whose iterations have not finished this long after it started
/// kills the one in flight and fails, so it always exits within three
/// minutes.
const RUN_DEADLINE: Duration = Duration::from_secs(170);

/// Fewest plain iterations per `--trace 0` run (and plain, driver and
/// traced rounds per `--trace 1` run), whatever `--seconds` says.
const MIN_ITERATIONS: u32 = 3;
const MIN_TRACED_ROUNDS: u32 = 1;

/// Set-up probes before each plain iteration of a `--trace 0` run. Set-up
/// takes milliseconds, so one sample per iteration leaves its median at
/// the mercy of a few slow process starts; `asm-sampled` runs only three
/// iterations, and sixteen probes before each still give its median
/// about fifty samples.
const SETUP_PROBES: u32 = 16;

/// How a metric is reported.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Level {
    EndToEnd,
    Layer,
}

struct MetricDef {
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    level: Level,
    about: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    level: Level,
    about: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        level,
        about,
    }
}

use Level::{EndToEnd as E, Layer as L};

/// Every metric, in report order. `BENCHMARK.json` lists the same names.
const METRICS: &[MetricDef] = &[
    m("setup_s", "s", "lower", E, "process (or daemon) start, program assembly and store open, until the first point is submitted; median over the iterations and the set-up probes between them"),
    m("wall_s", "s", "lower", E, "first point submitted until the last result is in (asm-sampled: cold_s + warm_s); median over iterations"),
    m("sim_mips", "Minst/s", "higher", E, "detailed-simulated committed instructions (warm-up included, functional profiling excluded) per host second"),
    m("cold_s", "s", "lower", E, "asm-sampled: the pass over an empty checkpoint store (warm passes, snapshot encode, atomic writes). Single-pass workloads report their one pass, which starts cold"),
    m("warm_s", "s", "lower", E, "asm-sampled: a pass over the store the cold pass filled (manifest load, decode, restore, windows); median of an iteration's two warm passes. Single-pass workloads report their one pass"),
    m("sample_err_max_pct", "%", "lower", E, "asm-sampled: worst per-configuration |sampled IPC - exact IPC| / exact IPC. Exact workloads: worse of the conventional and VP write-back harmonic-mean IPC errors against the paper's Table 2 means (1.23, 1.46)"),
    m("job_p50_ms", "ms", "lower", E, "per-point time from submission to result, pooled over iterations: a daemon job from its tenant's submit of the grid to the first poll (every 50 ms, as vpr-serve submit polls) that sees it finished (serve-overlap), a sweep point from sweep start to its result (batch workloads; asm-sampled: its warm passes)"),
    m("job_p90_ms", "ms", "lower", E, "90th percentile of the same samples (job_samples gives their count; p90 keeps at least ten samples beyond it once there are 100)"),
    m("rss_peak_mb", "MB", "lower", E, "peak resident memory of an iteration's process (daemon and clients together for serve-overlap); median"),
    m("failed_frac", "ratio", "lower", L, "points failed, NaN, or whose checked output mismatched, over points attempted (the result line's failed / attempted)"),
    m("job_samples", "count", "higher", L, "latency samples behind job_p50_ms and job_p90_ms"),
    m("trace.gen_minst_per_s", "Minst/s", "higher", L, "vpr-trace: synthetic instructions generated per second, stream alone"),
    m("exec.emit_minst_per_s", "Minst/s", "higher", L, "vpr-exec: emulated asm/ instructions emitted per second, stream alone"),
    m("exec.assemble_ms", "ms", "lower", L, "vpr-exec: assembling the five bundled programs"),
    m("core.new_us", "us", "lower", L, "vpr-core: median Processor::new, stream construction included"),
    m("core.busy_s", "s", "lower", L, "vpr-core: total time in Processor::{new, warm_up, run} over the grid"),
    m("core.ns_per_commit", "ns", "lower", L, "vpr-core: host time per committed instruction (warm-up included)"),
    m("core.ns_per_cycle", "ns", "lower", L, "vpr-core: host time per simulated cycle (warm-up included)"),
    m("snap.encode_us", "us", "lower", L, "vpr-snap: median Processor::snapshot of an interval checkpoint"),
    m("snap.decode_restore_us", "us", "lower", L, "vpr-snap: median Processor::restore of an interval checkpoint"),
    m("snap.bytes", "B", "lower", L, "vpr-snap: median encoded snapshot size"),
    m("store.open_ms", "ms", "lower", L, "vpr-bench::checkpoints: median CheckpointStore::open (empty at set-up, full at the warm pass)"),
    m("store.persist_ms", "ms", "lower", L, "vpr-bench::checkpoints: save_all + flush of the cold pass's checkpoints (atomic write and fsync each)"),
    m("store.load_ms", "ms", "lower", L, "vpr-bench::checkpoints: total load_group_interval_set time in the warm pass"),
    m("store.hit_ratio", "ratio", "higher", L, "vpr-bench::checkpoints: group lookups that hit, over the cold pass and one warm pass (0.5: the cold pass misses, the warm pass hits)"),
    m("sampling.warm_pass_s", "s", "lower", L, "vpr-bench::sampling: total generate_group_checkpoints time (cold pass)"),
    m("sampling.windows_s", "s", "lower", L, "vpr-bench::sampling: total sample_from_checkpoints time in the warm pass"),
    m("sweep.queue_wait_p50_ms", "ms", "lower", L, "vpr-bench::sweep / par: median wait from sweep start to a point starting, from the experiment call's RunTelemetry"),
    m("sweep.utilisation", "ratio", "higher", L, "vpr-bench::sweep / par: busy / (wall x workers)"),
    m("sweep.recoveries", "count", "lower", L, "vpr-bench::sweep / par: job panics recovered by retry"),
    m("jobs.execute_p50_ms", "ms", "lower", L, "vpr-bench::jobs: median in-process execute_job of the serve grid (no store)"),
    m("serve.start_ms", "ms", "lower", L, "vpr-serve: Server::start (journal open, store open, bind, threads)"),
    m("serve.submit_ack_p50_ms", "ms", "lower", L, "vpr-serve: median round trip of a tenant's submit of the whole grid (connect, journal append and fsync, ack)"),
    m("serve.overhead_p50_ms", "ms", "lower", L, "vpr-serve: median traced job latency (submit of the grid to the poll that sees the job finished) minus jobs.execute_p50_ms"),
    m("serve.dedup_ratio", "ratio", "higher", L, "vpr-serve: warm-pass dedup hits / jobs"),
    m("serve.retries", "count", "lower", L, "vpr-serve: retry attempts scheduled"),
    m("serve.lease_expiries", "count", "lower", L, "vpr-serve: leases reclaimed at their deadline"),
    m("sim.cycles", "count", "lower", L, "modelled machine: measured-window cycles summed over the grid"),
    m("sim.committed", "count", "higher", L, "modelled machine: measured-window commits summed over the grid"),
    m("sim.rename_stalls", "count", "lower", L, "modelled machine: rename stalls (int + fp)"),
    m("sim.reg_hold_per_commit", "cycles", "lower", L, "modelled machine: physical-register hold cycles per commit"),
    m("sim.dcache_miss_ratio", "ratio", "lower", L, "modelled machine: data-cache misses (merged included) over accesses"),
    m("sim.reexec_per_commit", "ratio", "lower", L, "modelled machine: register and memory re-executions per commit"),
    m("sim.wrong_path_squashed", "count", "lower", L, "modelled machine: wrong-path instructions squashed"),
    m("sim.paper_ipc_err_pct", "%", "lower", L, "mean |IPC - paper Table 2 IPC| / paper IPC over the synthetic conventional and VP write-back cells"),
    m("obs.span_coverage", "ratio", "higher", L, "share of the traced iteration's wall inside layer spans"),
    m("obs.span_overhead_pct", "%", "lower", L, "(traced - driver wall_s) / driver wall_s: the benchmark's per-layer driver with the span recorder on against the same driver with it off"),
];

const NOTES: &[&str] = &[
    "Reference: the paper's Table 2 IPCs are the only reference to measured results; the model is not validated against hardware, and the asm/ programs have no reference.",
    "Correctness: every point is checked against reference digests (committed, cycles, IPC bits) stored in perfbench/refs.tsv, and against the other iterations of the run, so traced results must equal untraced ones; asm-sampled's warm estimates must equal its cold ones bit for bit, and serve-overlap's tenants must agree with each other and with the batch path.",
    "Seeds: --seed N runs trace seed 42 + N % 16; --seed 9001 runs the held-out trace seed 9001. asm:* streams ignore the seed.",
    "Loops: every workload is a closed loop driven from one process, with min(2, nproc) sweep workers for table2-exact and one sweep or daemon worker for the other two; serve-overlap has 2 client connections, and its tenants each submit the whole grid at once and poll every 50 ms, as vpr-serve submit does.",
];

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <{}|all> --seed N --seconds S --trace 0|1\n       \
         perfbench --describe\n       perfbench refs [--out PATH]",
        Kind::ALL.map(Kind::name).join("|")
    );
    ExitCode::from(2)
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("iter") => child(&args[1..]),
        Some("refs") => {
            let out = flag(&args, "--out").unwrap_or("perfbench/refs.tsv");
            match refs::generate(Path::new(out), nproc().min(2)) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("cannot write {out}: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("--describe") => {
            describe();
            ExitCode::SUCCESS
        }
        _ => {
            // `all` runs every workload in turn, one result line each.
            let kinds = match flag(&args, "--workload") {
                Some("all") => Some(Kind::ALL.to_vec()),
                name => name.and_then(Kind::parse).map(|k| vec![k]),
            };
            let seed = flag(&args, "--seed").and_then(|s| s.parse::<u64>().ok());
            let seconds = flag(&args, "--seconds").and_then(|s| s.parse::<u64>().ok());
            let trace = match flag(&args, "--trace") {
                Some("0") | None => Some(false),
                Some("1") => Some(true),
                Some(_) => None,
            };
            match (kinds, seed, seconds, trace) {
                (Some(kinds), Some(seed), Some(seconds), Some(trace)) => {
                    for kind in kinds {
                        if let Err(e) = bench(kind, seed, seconds, trace) {
                            eprintln!("perfbench: {}: {e}", kind.name());
                            return ExitCode::FAILURE;
                        }
                    }
                    ExitCode::SUCCESS
                }
                _ => usage(),
            }
        }
    }
}

fn describe() {
    println!("workloads:");
    for k in Kind::ALL {
        println!("  {}", k.name());
    }
    for (level, title) in [(E, "end-to-end (--trace 0)"), (L, "per-layer (--trace 1)")] {
        println!("{title}:");
        for d in METRICS.iter().filter(|d| d.level == level) {
            println!("  {:<26} {:<8} {:<6} {}", d.name, d.unit, d.better, d.about);
        }
    }
    println!("notes:");
    for n in NOTES {
        println!("  {n}");
    }
}

/// `perfbench iter`: one iteration (see [`iter`]).
fn child(args: &[String]) -> ExitCode {
    let parsed = (|| {
        Some(iter::Ctx {
            kind: Kind::parse(flag(args, "--workload")?)?,
            trace_seed: flag(args, "--trace-seed")?.parse().ok()?,
            workers: flag(args, "--workers")?.parse().ok()?,
            state: PathBuf::from(flag(args, "--state")?),
            mode: Mode::parse(flag(args, "--mode")?)?,
            spans_out: PathBuf::from(flag(args, "--spans")?),
        })
    })();
    match parsed {
        Some(ctx) => {
            iter::run(&ctx);
            ExitCode::SUCCESS
        }
        None => usage(),
    }
}

/// One finished iteration, as its child reported it.
struct Iteration {
    mode: Mode,
    setup_s: f64,
    metrics: BTreeMap<String, f64>,
    points: Vec<(String, Digest)>,
    latencies_ms: Vec<f64>,
    fails: Vec<(String, String)>,
}

fn spawn_iteration(
    deadline: Instant,
    kind: Kind,
    trace_seed: u64,
    state: &Path,
    mode: Mode,
    spans_out: &Path,
) -> Result<Iteration, String> {
    let exe = std::env::current_exe().map_err(|e| format!("no current exe: {e}"))?;
    let t0 = Instant::now();
    let mut child = Command::new(exe)
        .arg("iter")
        .args(["--workload", kind.name()])
        .args(["--trace-seed", &trace_seed.to_string()])
        .args(["--workers", &kind.workers(nproc()).to_string()])
        .arg("--state")
        .arg(state)
        .args(["--mode", mode.name()])
        .arg("--spans")
        .arg(spans_out)
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start an iteration: {e}"))?;
    let stdout = child.stdout.take().expect("stdout is piped");
    // The reader stamps each line as it arrives, so `setup_s` does not
    // include this thread's wake-up.
    let (tx, rx) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        for line in std::io::BufReader::new(stdout).lines() {
            if tx.send((Instant::now(), line)).is_err() {
                break;
            }
        }
    });
    let mut setup_s = None;
    let mut lines = Vec::new();
    let outcome = loop {
        let left = deadline.saturating_duration_since(Instant::now());
        match rx.recv_timeout(left) {
            Ok((at, Ok(line))) if line == "ready" && setup_s.is_none() => {
                setup_s = Some(at.duration_since(t0).as_secs_f64());
            }
            Ok((_, Ok(line))) => lines.push(line),
            Ok((_, Err(e))) => break Err(format!("reading an iteration's output: {e}")),
            Err(mpsc::RecvTimeoutError::Disconnected) => break Ok(()),
            Err(mpsc::RecvTimeoutError::Timeout) => {
                break Err(format!(
                    "iteration still running {RUN_DEADLINE:?} into the run"
                ))
            }
        }
    };
    if outcome.is_err() {
        let _ = child.kill();
    }
    let status = child
        .wait()
        .map_err(|e| format!("waiting for an iteration: {e}"));
    let _ = reader.join();
    outcome?;
    let status = status?;
    if !status.success() {
        return Err(format!("iteration exited with {status}"));
    }
    if lines.last().map(String::as_str) != Some("done") {
        return Err("iteration ended without reporting".into());
    }
    let mut it = Iteration {
        mode,
        setup_s: setup_s.ok_or("iteration never reported ready")?,
        metrics: BTreeMap::new(),
        points: Vec::new(),
        latencies_ms: Vec::new(),
        fails: Vec::new(),
    };
    for line in &lines {
        let mut parts = line.splitn(3, ' ');
        match (parts.next(), parts.next(), parts.next()) {
            (Some("m"), Some(name), Some(v)) => {
                it.metrics
                    .insert(name.to_string(), v.parse().unwrap_or(f64::NAN));
            }
            (Some("p"), Some(label), rest) => {
                let digest = rest
                    .unwrap_or("")
                    .split(' ')
                    .filter_map(|kv| kv.split_once('='))
                    .map(|(k, v)| (k.to_string(), v.to_string()))
                    .collect();
                it.points.push((label.to_string(), digest));
            }
            (Some("l"), Some(v), None) => it.latencies_ms.push(v.parse().unwrap_or(f64::NAN)),
            (Some("f"), Some(label), msg) => {
                it.fails
                    .push((label.to_string(), msg.unwrap_or("").to_string()));
            }
            _ => {}
        }
    }
    Ok(it)
}

/// The labels a workload's iteration must report.
fn expected_labels(kind: Kind) -> Vec<String> {
    let base: Vec<String> = kind
        .grid()
        .iter()
        .map(vpr_bench::sweep::point_label)
        .collect();
    match kind {
        Kind::ServeOverlap => (0..TENANTS)
            .flat_map(|n| base.iter().map(move |l| format!("t{n}/{l}")))
            .collect(),
        _ => base,
    }
}

/// Checks every iteration's points against the reference digests and
/// against each other. Returns the failed-point count and the reasons.
fn check(kind: Kind, trace_seed: u64, iters: &[Iteration]) -> (usize, Vec<String>) {
    let expected = expected_labels(kind);
    let mut first: BTreeMap<&str, &Digest> = BTreeMap::new();
    let mut failed = 0;
    let mut reasons = Vec::new();
    for (n, it) in iters.iter().enumerate() {
        let mut bad: BTreeSet<String> = BTreeSet::new();
        let mut fail = |label: &str, why: String, bad: &mut BTreeSet<String>| {
            reasons.push(format!("iteration {n}: {label}: {why}"));
            if label == "*" {
                bad.extend(expected.iter().cloned());
            } else if let Some(rest) = label.strip_prefix("batch/") {
                bad.extend((0..TENANTS).map(|t| format!("t{t}/{rest}")));
            } else {
                bad.insert(label.to_string());
            }
        };
        for (label, why) in &it.fails {
            fail(label, why.clone(), &mut bad);
        }
        let reported: BTreeSet<&str> = it.points.iter().map(|(l, _)| l.as_str()).collect();
        for label in &expected {
            if !reported.contains(label.as_str()) {
                fail(label, "no result".into(), &mut bad);
            }
        }
        for (label, digest) in &it.points {
            match refs::lookup(kind, trace_seed, label) {
                None => fail(label, "no reference digest".into(), &mut bad),
                Some(want) => {
                    let common: Vec<&String> =
                        digest.keys().filter(|k| want.contains_key(*k)).collect();
                    if common.is_empty() {
                        fail(
                            label,
                            "nothing to compare with the reference".into(),
                            &mut bad,
                        );
                    }
                    for k in common {
                        if digest[k] != want[k] {
                            fail(
                                label,
                                format!("{k} is {} but the reference has {}", digest[k], want[k]),
                                &mut bad,
                            );
                        }
                    }
                }
            }
            match first.get(label.as_str()) {
                None => {
                    first.insert(label, digest);
                }
                Some(earlier) => {
                    for (k, v) in digest.iter() {
                        if earlier.get(k).is_some_and(|e| e != v) {
                            fail(
                                label,
                                format!(
                                    "{k} differs from an earlier iteration ({} mode)",
                                    it.mode.name()
                                ),
                                &mut bad,
                            );
                        }
                    }
                }
            }
        }
        failed += bad.iter().filter(|l| expected.contains(l)).count();
    }
    (failed, reasons)
}

/// IPC errors of the first plain iteration's points against their
/// references. Returns the workload's `sample_err_max_pct` — the worst
/// sampled-versus-exact error for `asm-sampled`; for the exact workloads
/// the worse of the two harmonic-mean errors against the paper's Table 2
/// means over the same benchmarks (1.23 and 1.46 over all nine), which is
/// stable across seeds where single cells are not — and the mean per-cell
/// error against the paper's Table 2 (`sim.paper_ipc_err_pct`).
fn ipc_errors(kind: Kind, trace_seed: u64, it: &Iteration) -> (f64, f64) {
    let ipc = |d: &Digest, k: &str| {
        d.get(k)
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .map(f64::from_bits)
    };
    let err = |got: f64, want: f64| (got - want).abs() / want * 100.0;
    let mut vs_exact = Vec::new();
    let mut vs_paper = Vec::new();
    let mut by_scheme: BTreeMap<bool, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for (label, d) in &it.points {
        let Some(got) = ipc(d, "sipc").or_else(|| ipc(d, "ipc")) else {
            continue;
        };
        if let Some(paper) = refs::paper_ipc(label) {
            vs_paper.push(err(got, paper));
            let (sim, reference) = by_scheme
                .entry(label.contains("/conventional@"))
                .or_default();
            sim.push(got);
            reference.push(paper);
        }
        if d.contains_key("sipc") {
            if let Some(exact) = refs::lookup(kind, trace_seed, label).and_then(|r| ipc(r, "ipc")) {
                vs_exact.push(err(got, exact));
            }
        }
    }
    let worst = if kind == Kind::AsmSampled {
        vs_exact.iter().copied().fold(f64::NAN, f64::max)
    } else {
        by_scheme
            .values()
            .map(|(sim, paper)| err(harmonic_mean(sim), harmonic_mean(paper)))
            .fold(f64::NAN, f64::max)
    };
    let mean = vs_paper.iter().sum::<f64>() / vs_paper.len().max(1) as f64;
    (worst, mean)
}

/// A reported metric: its value, the per-iteration values behind it
/// (empty for run-level figures) and how many samples it summarises.
struct Reported {
    value: f64,
    per_iteration: Vec<f64>,
    samples: usize,
}

impl Reported {
    fn median_of(per_iteration: Vec<f64>) -> Self {
        Self {
            value: median(&per_iteration),
            samples: per_iteration.len(),
            per_iteration,
        }
    }

    fn run_level(value: f64) -> Self {
        Self {
            value,
            per_iteration: Vec::new(),
            samples: 1,
        }
    }

    fn spread(&self) -> Option<f64> {
        (!self.per_iteration.is_empty()).then(|| iqr_share(&self.per_iteration))
    }
}

fn from_iterations(iters: &[&Iteration], name: &str) -> Option<Reported> {
    let values: Vec<f64> = iters
        .iter()
        .filter_map(|it| it.metrics.get(name).copied())
        .collect();
    (!values.is_empty()).then(|| Reported::median_of(values))
}

fn bench(kind: Kind, seed: u64, seconds: u64, trace: bool) -> Result<(), String> {
    let trace_seed = refs::trace_seed(seed);
    let work = PathBuf::from(WORK_DIR);
    let run_dir = work.join(format!("run-{}", std::process::id()));
    let spans_dir = work.join("spans");
    let reports_dir = work.join("reports");
    for d in [&run_dir, &spans_dir, &reports_dir] {
        std::fs::create_dir_all(d).map_err(|e| format!("cannot create {}: {e}", d.display()))?;
    }
    let spans_out = spans_dir.join(format!("{}-seed{seed}.tsv", kind.name()));
    let budget = Duration::from_secs(seconds);
    let started = Instant::now();
    let modes: &[Mode] = if trace {
        &[Mode::Plain, Mode::Driver, Mode::Traced]
    } else {
        &[Mode::Plain]
    };
    let (min_rounds, probes) = if trace {
        (MIN_TRACED_ROUNDS, 0)
    } else {
        (MIN_ITERATIONS, SETUP_PROBES)
    };
    let mut iters: Vec<Iteration> = Vec::new();
    let mut probe_setups: Vec<f64> = Vec::new();
    let result = (|| {
        let mut n = 0;
        let mut spawn = |mode: Mode| {
            let state = run_dir.join(format!("i{n}"));
            n += 1;
            let it = spawn_iteration(
                started + RUN_DEADLINE,
                kind,
                trace_seed,
                &state,
                mode,
                &spans_out,
            );
            let _ = std::fs::remove_dir_all(&state);
            // Commit the removal before the next child starts, so its
            // set-up does not wait behind this one's file-system work.
            if let Ok(dir) = std::fs::File::open(&run_dir) {
                let _ = dir.sync_all();
            }
            it
        };
        for round in 1.. {
            for &mode in modes {
                if mode == Mode::Plain {
                    for _ in 0..probes {
                        probe_setups.push(spawn(Mode::Setup)?.setup_s);
                    }
                }
                iters.push(spawn(mode)?);
            }
            let per_round = started.elapsed() / round;
            if round >= min_rounds && started.elapsed() + per_round > budget {
                break;
            }
        }
        Ok::<(), String>(())
    })();
    let _ = std::fs::remove_dir_all(&run_dir);
    result?;

    let of_mode =
        |mode: Mode| -> Vec<&Iteration> { iters.iter().filter(|i| i.mode == mode).collect() };
    let plain = of_mode(Mode::Plain);
    let (failed, reasons) = check(kind, trace_seed, &iters);
    let attempted = iters.len() * kind.points();
    let (err_max, paper_err_mean) = ipc_errors(kind, trace_seed, plain[0]);

    let mut values: BTreeMap<&'static str, Reported> = BTreeMap::new();
    values.insert(
        "setup_s",
        Reported::median_of(
            plain
                .iter()
                .map(|i| i.setup_s)
                .chain(probe_setups.iter().copied())
                .collect(),
        ),
    );
    let latencies: Vec<f64> = plain
        .iter()
        .flat_map(|i| i.latencies_ms.iter().copied())
        .collect();
    for (name, p) in [("job_p50_ms", 50.0), ("job_p90_ms", 90.0)] {
        let per_iter: Vec<f64> = plain
            .iter()
            .map(|i| percentile(&i.latencies_ms, p))
            .collect();
        values.insert(
            name,
            Reported {
                value: percentile(&latencies, p),
                per_iteration: per_iter,
                samples: latencies.len(),
            },
        );
    }
    let run_level = Reported::run_level;
    values.insert("job_samples", run_level(latencies.len() as f64));
    values.insert("sample_err_max_pct", run_level(err_max));
    values.insert("sim.paper_ipc_err_pct", run_level(paper_err_mean));
    values.insert("failed_frac", run_level(failed as f64 / attempted as f64));
    let wall = |its: &[&Iteration]| {
        median(
            &its.iter()
                .filter_map(|i| i.metrics.get("wall_s").copied())
                .collect::<Vec<_>>(),
        )
    };
    let (off, on) = (wall(&of_mode(Mode::Driver)), wall(&of_mode(Mode::Traced)));
    if trace {
        values.insert("obs.span_overhead_pct", run_level((on - off) / off * 100.0));
    }
    for d in METRICS {
        if values.contains_key(d.name) {
            continue;
        }
        // End-to-end figures come from plain iterations only; layer
        // figures from whichever iterations measured them.
        let source: Vec<&Iteration> = match d.level {
            E => plain.clone(),
            L => iters.iter().collect(),
        };
        if let Some(r) = from_iterations(&source, d.name) {
            values.insert(d.name, r);
        }
    }

    // The result line.
    let level = if trace { L } else { E };
    let mut json = String::new();
    for d in METRICS.iter().filter(|d| d.level == level) {
        let v = values
            .get(d.name)
            .map(|r| r.value)
            .filter(|v| v.is_finite());
        let v = match (v, level) {
            (Some(v), _) => v,
            (None, E) => return Err(format!("{} was not measured", d.name)),
            // A layer this workload does not exercise reports 0.
            (None, L) => 0.0,
        };
        if !json.is_empty() {
            json.push_str(", ");
        }
        let _ = write!(
            json,
            "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            d.name, d.unit
        );
    }
    let report = report_json(
        kind,
        seed,
        trace_seed,
        seconds,
        trace,
        &iters,
        probe_setups.len(),
        &values,
        failed,
        attempted,
        &reasons,
    );
    let report_path = reports_dir.join(format!(
        "{}-seed{seed}-trace{}.json",
        kind.name(),
        u8::from(trace)
    ));
    if let Err(e) = std::fs::write(&report_path, &report) {
        eprintln!("cannot write {}: {e}", report_path.display());
    }
    summarise(
        kind,
        seed,
        trace_seed,
        &iters,
        probe_setups.len(),
        &values,
        &reasons,
        &report_path,
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{json}}}}}",
        failed == 0
    );
    Ok(())
}

/// "N plain, N driver, N traced".
fn mode_counts(iters: &[Iteration]) -> String {
    [Mode::Plain, Mode::Driver, Mode::Traced]
        .map(|m| {
            let n = iters.iter().filter(|i| i.mode == m).count();
            format!("{n} {}", m.name())
        })
        .join(", ")
}

#[allow(clippy::too_many_arguments)]
fn summarise(
    kind: Kind,
    seed: u64,
    trace_seed: u64,
    iters: &[Iteration],
    probes: usize,
    values: &BTreeMap<&'static str, Reported>,
    reasons: &[String],
    report_path: &Path,
) {
    eprintln!(
        "perfbench {} --seed {seed} (trace seed {trace_seed}): {} iterations ({}), \
         {probes} set-up probes, nproc {}, {} workers, {} client connections",
        kind.name(),
        iters.len(),
        mode_counts(iters),
        nproc(),
        kind.workers(nproc()),
        if kind == Kind::ServeOverlap {
            TENANTS
        } else {
            0
        },
    );
    for d in METRICS {
        if let Some(r) = values.get(d.name) {
            let spread = r.spread().map_or_else(String::new, |s| {
                format!("  iqr {:.1}% of {}", s * 100.0, r.samples)
            });
            eprintln!("  {:<26} {:>14.6} {:<8}{spread}", d.name, r.value, d.unit);
        }
    }
    for r in reasons.iter().take(20) {
        eprintln!("  FAILED {r}");
    }
    eprintln!("  report: {}", report_path.display());
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

#[allow(clippy::too_many_arguments)]
fn report_json(
    kind: Kind,
    seed: u64,
    trace_seed: u64,
    seconds: u64,
    trace: bool,
    iters: &[Iteration],
    probes: usize,
    values: &BTreeMap<&'static str, Reported>,
    failed: usize,
    attempted: usize,
    reasons: &[String],
) -> String {
    let mut s = String::from("{\n  \"schema\": \"perfbench-report/v1\",\n");
    let _ = writeln!(s, "  \"workload\": \"{}\",", kind.name());
    let _ = writeln!(s, "  \"seed\": {seed},\n  \"trace_seed\": {trace_seed},");
    let _ = writeln!(s, "  \"held_out_seed\": {},", refs::HELD_OUT_SEED);
    let _ = writeln!(s, "  \"seconds\": {seconds},\n  \"trace\": {trace},");
    let _ = writeln!(
        s,
        "  \"host\": {{\"nproc\": {}, \"workers\": {}, \"client_connections\": {}}},",
        nproc(),
        kind.workers(nproc()),
        if kind == Kind::ServeOverlap {
            TENANTS
        } else {
            0
        }
    );
    let _ = writeln!(
        s,
        "  \"toolchain\": \"{}\",",
        json_escape(env!("PERFBENCH_RUSTC_VERSION"))
    );
    let _ = writeln!(
        s,
        "  \"iterations\": {{{}}},\n  \"setup_probes\": {probes},",
        [Mode::Plain, Mode::Driver, Mode::Traced]
            .map(|m| format!(
                "\"{}\": {}",
                m.name(),
                iters.iter().filter(|i| i.mode == m).count()
            ))
            .join(", ")
    );
    let _ = writeln!(s, "  \"attempted\": {attempted},\n  \"failed\": {failed},");
    s.push_str("  \"metrics\": {\n");
    let rows: Vec<String> = METRICS
        .iter()
        .filter_map(|d| {
            let r = values.get(d.name)?;
            let per_iteration: Vec<String> = r.per_iteration.iter().map(|&v| json_num(v)).collect();
            Some(format!(
                "    \"{}\": {{\"value\": {}, \"unit\": \"{}\", \"level\": \"{}\", \"iqr_share\": {}, \"samples\": {}, \"per_iteration\": [{}]}}",
                d.name,
                json_num(r.value),
                d.unit,
                if d.level == E { "end_to_end" } else { "per_layer" },
                r.spread().map_or("null".into(), json_num),
                r.samples,
                per_iteration.join(", ")
            ))
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  },\n  \"span_totals_ns\": {\n");
    let spans: Vec<String> = iters
        .iter()
        .rev()
        .find(|i| i.mode == Mode::Traced)
        .map(|i| {
            i.metrics
                .keys()
                .filter(|k| k.starts_with("span."))
                .map(|k| format!("    \"{}\": {}", json_escape(k), json_num(i.metrics[k])))
                .collect()
        })
        .unwrap_or_default();
    s.push_str(&spans.join(",\n"));
    s.push_str("\n  },\n  \"failures\": [");
    let shown: Vec<String> = reasons
        .iter()
        .take(50)
        .map(|r| format!("\"{}\"", json_escape(r)))
        .collect();
    s.push_str(&shown.join(", "));
    s.push_str("],\n  \"notes\": [");
    let notes: Vec<String> = NOTES
        .iter()
        .map(|n| format!("\"{}\"", json_escape(n)))
        .collect();
    s.push_str(&notes.join(", "));
    s.push_str("]\n}\n");
    s
}
