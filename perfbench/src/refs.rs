//! Workload seeds and the reference digests results are checked against.
//!
//! `--seed N` selects one of sixteen trace seeds (`42 + N % 16`), or the
//! held-out seed [`HELD_OUT_SEED`] itself, so every `--seed` lands on a
//! trace seed whose reference digests are stored in `refs.tsv`. The
//! held-out seed is one no tuning run used, kept for checking later
//! claims. `asm:*` streams ignore the seed: an assembled
//! program's instruction stream is what it is, so their digests are
//! stored once, under seed `*`.
//!
//! The digests are produced by `perfbench refs`, which simulates every
//! point through `Processor::{new, warm_up, run}` directly (and, for
//! `asm-sampled`, runs the sampled estimate once without a store) — a
//! path independent of the sweep engine, the checkpoint store and the
//! daemon that the timed runs go through.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::OnceLock;

use vpr_bench::experiments::asm_eval_for;
use vpr_bench::sweep::{point_label, SweepContext};
use vpr_bench::workloads::Workload;

use crate::iter::{bits, direct_digest, grid_direct, Digest, Kind};
use crate::spans::Recorder;

/// Seeds `--seed` maps onto: `BASE_SEED .. BASE_SEED + SEED_COUNT`.
const BASE_SEED: u64 = 42;
const SEED_COUNT: u64 = 16;

/// The held-out seed: `--seed 9001` runs trace seed 9001, which no run
/// used while the benchmark was tuned.
pub const HELD_OUT_SEED: u64 = 9001;

/// The trace seed `--seed` selects.
pub fn trace_seed(seed: u64) -> u64 {
    if seed == HELD_OUT_SEED {
        HELD_OUT_SEED
    } else {
        BASE_SEED + seed % SEED_COUNT
    }
}

fn all_trace_seeds() -> Vec<u64> {
    (BASE_SEED..BASE_SEED + SEED_COUNT)
        .chain([HELD_OUT_SEED])
        .collect()
}

const REFS: &str = include_str!("../refs.tsv");

type Key = (String, String, String);

fn table() -> &'static HashMap<Key, Digest> {
    static TABLE: OnceLock<HashMap<Key, Digest>> = OnceLock::new();
    TABLE.get_or_init(|| {
        REFS.lines()
            .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
            .filter_map(|l| {
                let mut cols = l.split('\t');
                let key = (
                    cols.next()?.to_string(),
                    cols.next()?.to_string(),
                    cols.next()?.to_string(),
                );
                let digest = cols
                    .next()?
                    .split(' ')
                    .filter_map(|kv| kv.split_once('='))
                    .map(|(k, v)| (k.to_string(), v.to_string()))
                    .collect();
                Some((key, digest))
            })
            .collect()
    })
}

/// A point label without its tenant or batch prefix
/// (`t1/swim/conventional@64r` → `swim/conventional@64r`).
pub fn base_label(label: &str) -> &str {
    match label.split_once('/') {
        Some((prefix, rest))
            if prefix == "batch"
                || (prefix.starts_with('t') && prefix[1..].parse::<u32>().is_ok()) =>
        {
            rest
        }
        _ => label,
    }
}

/// True for labels of seed-independent (`asm:*`) points.
fn seed_independent(label: &str) -> bool {
    label.starts_with("asm:")
}

/// The stored digest of a point.
pub fn lookup(kind: Kind, trace_seed: u64, label: &str) -> Option<&'static Digest> {
    let label = base_label(label);
    let seed = if seed_independent(label) {
        "*".to_string()
    } else {
        trace_seed.to_string()
    };
    table().get(&(kind.name().to_string(), seed, label.to_string()))
}

/// The paper's Table 2 IPC for a point, when it has one: a synthetic
/// benchmark under the conventional or the VP write-back (NRR 32) scheme
/// at 64 registers. These are the benchmark's only reference to measured
/// results; the model itself is not validated against hardware, and the
/// `asm/` programs have no reference.
pub fn paper_ipc(label: &str) -> Option<f64> {
    let (workload, scheme) = base_label(label).split_once('/')?;
    let Ok(Workload::Synthetic(b)) = Workload::parse(workload) else {
        return None;
    };
    match scheme {
        "conventional@64r" => Some(b.paper_conventional_ipc()),
        "vp-wb-nrr32@64r" => Some(b.paper_vp_writeback_ipc()),
        _ => None,
    }
}

/// Recomputes every reference digest and writes `path`.
pub fn generate(path: &Path, workers: usize) -> std::io::Result<()> {
    let mut text = String::from(
        "# Reference digests: workload, trace seed (* = seed-independent), point, digest.\n\
         # Regenerate with `perfbench refs`; see perfbench/README.md.\n",
    );
    let rec = Recorder::new(false);
    for kind in Kind::ALL {
        for (i, seed) in all_trace_seeds().into_iter().enumerate() {
            let exp = kind.exp(seed, workers);
            let points: Vec<_> = kind
                .grid()
                .into_iter()
                .filter(|p| i == 0 || !matches!(p.workload, Workload::Asm(_)))
                .collect();
            let mut digests: Vec<Digest> = grid_direct(&rec, None, &points, &exp, workers)
                .iter()
                .map(direct_digest)
                .collect();
            if kind == Kind::AsmSampled {
                let mut workloads: Vec<Workload> = points.iter().map(|p| p.workload).collect();
                workloads.dedup();
                let eval = asm_eval_for(&workloads, &exp, &SweepContext::new(true, None));
                let sampled = eval
                    .rows
                    .iter()
                    .flat_map(|r| [r.conv_ipc, r.early_ipc, r.vp_issue_ipc, r.vp_wb_ipc]);
                for (d, ipc) in digests.iter_mut().zip(sampled) {
                    d.insert("sipc".into(), bits(ipc));
                }
            }
            for (p, d) in points.iter().zip(&digests) {
                let label = point_label(p);
                let seed = if seed_independent(&label) {
                    "*".to_string()
                } else {
                    seed.to_string()
                };
                let fields: Vec<String> = d.iter().map(|(k, v)| format!("{k}={v}")).collect();
                let _ = writeln!(
                    text,
                    "{}\t{seed}\t{label}\t{}",
                    kind.name(),
                    fields.join(" ")
                );
            }
            eprintln!("refs: {} seed {seed} done", kind.name());
        }
    }
    std::fs::write(path, text)
}
