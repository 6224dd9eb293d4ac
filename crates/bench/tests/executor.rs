//! The one point executor (`vpr_bench::jobs`) against a checkpoint store:
//! every path through it — no store, a miss that deposits, a hit, and the
//! degraded paths — yields the metrics of the uninterrupted run, and the
//! degraded paths say why.
//!
//! 1. `exact_sweep_deposits_on_a_miss_and_restores_on_the_next_run`: an
//!    exact sweep with a checkpoint directory deposits what it misses, so
//!    the next one restores every point, and neither differs from the
//!    store-less sweep by a bit, metrics block included.
//! 2. The degradation rule: an absent checkpoint falls back silently; a
//!    corrupt artefact is quarantined, noted and replaced; a stale
//!    manifest entry is noted.

use std::path::PathBuf;
use std::sync::Mutex;
use vpr_bench::checkpoints::{CheckpointOutcome, CheckpointStore};
use vpr_bench::jobs::{execute_job, execute_job_with, JobOutput, JobSpec};
use vpr_bench::sweep::{run_sweep_metrics, SweepContext, SweepPoint};
use vpr_bench::{run_benchmark, ExperimentConfig};
use vpr_core::{NoObs, RenameScheme};
use vpr_trace::Benchmark;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vpr-executor-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spec(scheme: RenameScheme) -> JobSpec {
    JobSpec {
        workload: Benchmark::Swim.into(),
        scheme,
        physical_regs: 64,
        exp: ExperimentConfig {
            warmup: 500,
            measure: 3_000,
            ..ExperimentConfig::quick()
        },
    }
}

/// A store in a fresh directory holding `spec`'s warm checkpoint, and the
/// artefact's path.
fn seeded_store(tag: &str, spec: &JobSpec) -> (PathBuf, PathBuf) {
    let dir = temp_dir(tag);
    let store = Mutex::new(CheckpointStore::open(&dir).unwrap());
    let first = execute_job(spec, Some(&store));
    assert_eq!(first.outcome, CheckpointOutcome::Miss, "empty store misses");
    let file = dir.join(&store.lock().unwrap().manifest.entries[0].file);
    (dir, file)
}

fn assert_same_bits(got: &JobOutput, want: &JobOutput) {
    assert_eq!(got.metrics.ipc.to_bits(), want.metrics.ipc.to_bits());
    assert_eq!(
        got.metrics.miss_ratio.to_bits(),
        want.metrics.miss_ratio.to_bits()
    );
    assert_eq!(
        got.metrics.executions_per_commit.to_bits(),
        want.metrics.executions_per_commit.to_bits()
    );
}

#[test]
fn exact_sweep_deposits_on_a_miss_and_restores_on_the_next_run() {
    let exp = ExperimentConfig {
        warmup: 400,
        measure: 2_000,
        jobs: 2,
        ..ExperimentConfig::default()
    };
    let points = [
        SweepPoint::at64(Benchmark::Swim, RenameScheme::Conventional),
        SweepPoint::at64(
            Benchmark::Go,
            RenameScheme::VirtualPhysicalWriteback { nrr: 32 },
        ),
        SweepPoint::at64(
            Benchmark::Go,
            RenameScheme::VirtualPhysicalWriteback { nrr: 8 },
        ),
    ];
    let dir = temp_dir("sweep");
    let plain = run_sweep_metrics(&points, &exp, &SweepContext::exact());
    let ctx = SweepContext::new(false, Some(&dir));
    let cold = run_sweep_metrics(&points, &exp, &ctx);
    let warm = run_sweep_metrics(&points, &exp, &ctx);

    assert_eq!(cold.telemetry.checkpoint_misses, points.len() as u64);
    assert_eq!(warm.telemetry.checkpoint_hits, points.len() as u64);
    for run in [&cold, &warm] {
        assert!(run.failures.is_empty(), "{:?}", run.failures);
        assert_eq!(
            run.metrics.to_json_value(),
            plain.metrics.to_json_value(),
            "the metrics block must not depend on the store"
        );
        for (got, want) in run.points.iter().zip(&plain.points) {
            assert_eq!(got.ipc.to_bits(), want.ipc.to_bits());
            assert_eq!(got.miss_ratio.to_bits(), want.miss_ratio.to_bits());
            assert_eq!(
                got.executions_per_commit.to_bits(),
                want.executions_per_commit.to_bits()
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn empty_store_falls_back_silently_and_matches_the_plain_run() {
    let s = spec(RenameScheme::Conventional);
    let dir = temp_dir("fallback");
    let store = Mutex::new(CheckpointStore::open(&dir).unwrap());
    let with = execute_job_with(&s, Some(&store), NoObs);
    assert_eq!(with.outcome, CheckpointOutcome::Miss);
    assert_eq!(with.note, None, "an absent checkpoint is no degradation");
    assert_eq!(with.persist_error, None);
    let without = run_benchmark(s.workload, s.scheme, s.physical_regs, &s.exp);
    assert_eq!(with.stats, without);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_artefact_is_quarantined_and_the_job_degrades_to_exact() {
    let s = spec(RenameScheme::VirtualPhysicalWriteback { nrr: 32 });
    let reference = execute_job(&s, None);
    let (dir, file) = seeded_store("corrupt", &s);

    // Re-plant a corrupt artefact: the executor must quarantine it,
    // simulate the warm-up with a note, stay bit-identical to never
    // having had a store, and deposit a good replacement.
    let mut bytes = std::fs::read(&file).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x40;
    std::fs::write(&file, &bytes).unwrap();
    let store = Mutex::new(CheckpointStore::open(&dir).unwrap());
    let degraded = execute_job(&s, Some(&store));
    assert_eq!(degraded.outcome, CheckpointOutcome::Miss);
    let note = degraded.note.as_deref().expect("degradation surfaced");
    assert!(note.contains("corrupt"), "{note}");
    let mut quarantined = file.clone().into_os_string();
    quarantined.push(".corrupt");
    assert!(PathBuf::from(quarantined).exists(), "evidence kept");
    assert_same_bits(&degraded, &reference);

    let healed = execute_job(&s, Some(&store));
    assert!(matches!(healed.outcome, CheckpointOutcome::Hit(_)));
    assert_eq!(healed.note, None);
    assert_same_bits(&healed, &reference);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stale_manifest_entry_leaves_a_note() {
    let s = spec(RenameScheme::VirtualPhysicalWriteback { nrr: 32 });
    let reference = execute_job(&s, None);
    let (dir, _) = seeded_store("stale", &s);

    // The entry now claims another configuration took it.
    let mut reopened = CheckpointStore::open(&dir).unwrap();
    reopened.manifest.entries[0].config_hash ^= 1;
    reopened.flush().unwrap();
    let store = Mutex::new(CheckpointStore::open(&dir).unwrap());
    let out = execute_job(&s, Some(&store));
    assert_eq!(out.outcome, CheckpointOutcome::Miss);
    let note = out.note.as_deref().expect("a stale entry is reported");
    assert!(note.contains("stale"), "{note}");
    assert_same_bits(&out, &reference);
    let _ = std::fs::remove_dir_all(&dir);
}
