//! The one executor of a sweep point.
//!
//! A [`JobSpec`] is one `(workload, scheme, register-file size)` point plus
//! the experiment parameters it runs under, and this module is the only
//! code that runs one. The batch sweep ([`crate::sweep`]) plans a grid into
//! specs and fans them out; the `vpr-serve` daemon runs the same specs one
//! at a time for tenants sharing a checkpoint store. Both therefore produce
//! bit-identical metrics by construction.
//!
//! * [`execute_job_with`] runs one exact point under a lifecycle observer;
//!   [`execute_job`] is its [`NoObs`] case, the one the daemon calls.
//! * [`group_pass`] gives a sampled sweep's sharing group its interval
//!   checkpoints, and [`sample_job`] estimates one point from them.
//!
//! With a store, an exact job restores its warm checkpoint when present;
//! otherwise it simulates the warm-up, **deposits** the checkpoint and
//! continues the same machine. A group pass likewise loads its interval
//! set, or generates and deposits it. So the first job of a coordinate
//! pays the warm pass and every later one, from any sweep or tenant,
//! restores it. Restored continuations are bit-identical to uninterrupted
//! runs (the `vpr-snap` contract): reuse changes a result's cost, never the
//! result. The store mutex is held only around store I/O.
//!
//! Store trouble never fails a job either. An absent checkpoint is the
//! normal cold start and is silent; a stale entry, a corrupt (quarantined)
//! artefact or a snapshot that refuses to restore leaves a note, and a
//! failed deposit a persist error.

use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::checkpoints::{
    checkpoint_key, config_hash, generate_group_checkpoints, group_scheme_label, sim_config,
    CheckpointOutcome, CheckpointStore, GeneratedCheckpoint, KIND_INTERVAL, KIND_WARM,
};
use crate::sampling::{sample_from_checkpoints, SamplingPlan};
use crate::sweep::{json_escape, json_num, point_label, PointMetrics, SweepPoint};
use crate::workloads::{parse_scheme, scheme_label, Workload, WorkloadStream};
use crate::ExperimentConfig;
use vpr_core::{NoObs, PipeObserver, Processor, RenameScheme, SimStats};
use vpr_obs::JobOutcome;
use vpr_snap::manifest::JsonValue;
use vpr_snap::Snapshot;

/// One unit of service work: a single sweep point plus the experiment
/// parameters it runs under. Two specs with equal fields produce
/// byte-identical results — the service's dedup and replay machinery
/// depends on nothing else.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// The workload (synthetic benchmark or assembled program).
    pub workload: Workload,
    /// The renaming scheme.
    pub scheme: RenameScheme,
    /// Physical (or virtual-physical) register-file size.
    pub physical_regs: usize,
    /// Warm-up/measurement lengths, seed, and miss penalty.
    pub exp: ExperimentConfig,
}

impl JobSpec {
    /// The job running sweep point `p` under `exp`.
    pub(crate) fn new(p: SweepPoint, exp: ExperimentConfig) -> Self {
        Self {
            workload: p.workload,
            scheme: p.scheme,
            physical_regs: p.physical_regs,
            exp,
        }
    }

    /// The job's stable label, its point's [`point_label`]
    /// (`swim/vp-wb-nrr32@64r`), used for fault-injection matching and
    /// failure reports.
    pub fn label(&self) -> String {
        point_label(&SweepPoint {
            workload: self.workload,
            scheme: self.scheme,
            physical_regs: self.physical_regs,
        })
    }

    /// The single-flight key two tenants' warm passes coalesce on: the
    /// (workload, seed, scheme-family) coordinate, via the checkpoint
    /// store's family-label machinery. Family members serialise their
    /// warm passes behind one lock; identical points behind it dedup
    /// outright.
    pub fn group_key(&self) -> String {
        format!(
            "{}/{}@{}r/s{}/w{}/mp{}",
            self.workload.name(),
            group_scheme_label(self.scheme, self.physical_regs, &self.exp),
            self.physical_regs,
            self.exp.seed,
            self.exp.warmup,
            self.exp.miss_penalty
        )
    }

    /// Wire rendering: one JSON object (no newlines), parseable by
    /// [`JobSpec::from_json`].
    pub fn to_json(&self) -> String {
        format!(
            "{{\"workload\": \"{}\", \"scheme\": \"{}\", \"regs\": {}, \
             \"warmup\": {}, \"measure\": {}, \"seed\": {}, \"miss_penalty\": {}}}",
            json_escape(&self.workload.name()),
            json_escape(&scheme_label(self.scheme)),
            self.physical_regs,
            self.exp.warmup,
            self.exp.measure,
            self.exp.seed,
            self.exp.miss_penalty
        )
    }

    /// Parses the object produced by [`JobSpec::to_json`].
    ///
    /// # Errors
    ///
    /// Describes the missing or malformed field.
    pub fn from_json(v: &JsonValue) -> Result<Self, String> {
        let obj = v.as_object().ok_or("job spec must be a JSON object")?;
        let field = |k: &str| obj.get(k).ok_or_else(|| format!("missing field `{k}`"));
        let num = |k: &str| -> Result<u64, String> {
            field(k)?
                .as_u64()
                .ok_or_else(|| format!("field `{k}` must be a non-negative integer"))
        };
        let workload = Workload::parse(
            field("workload")?
                .as_str()
                .ok_or("field `workload` must be a string")?,
        )?;
        let scheme = parse_scheme(
            field("scheme")?
                .as_str()
                .ok_or("field `scheme` must be a string")?,
        )?;
        Ok(Self {
            workload,
            scheme,
            physical_regs: num("regs")? as usize,
            exp: ExperimentConfig {
                warmup: num("warmup")?,
                measure: num("measure")?,
                seed: num("seed")?,
                miss_penalty: num("miss_penalty")?,
                jobs: 0,
            },
        })
    }
}

/// The terminal product of one job: the figure/table metrics plus how
/// the warm checkpoint store was used (the service's dedup accounting).
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutput {
    /// The point metrics (all-NaN for a degraded job; see
    /// [`PointMetrics::failed`]).
    pub metrics: PointMetrics,
    /// Warm-checkpoint outcome: `Hit` means this job skipped its warm
    /// pass thanks to a previously deposited artefact.
    pub outcome: CheckpointOutcome,
    /// Degradation note (store trouble the job recovered around), if any.
    pub note: Option<String>,
}

impl JobOutput {
    /// Wire rendering: one JSON object carrying the metrics at full
    /// round-trip precision (`{}` on an `f64` prints the shortest string
    /// that parses back to the same bits — the byte-identity tests
    /// compare through exactly this representation).
    pub fn to_json(&self) -> String {
        let f = |v: f64| {
            if v.is_finite() {
                format!("{v}")
            } else {
                "null".to_string()
            }
        };
        let mut s = format!(
            "{{\"ipc\": {}, \"miss_ratio\": {}, \"executions_per_commit\": {}, \"warm\": \"{}\"",
            f(self.metrics.ipc),
            f(self.metrics.miss_ratio),
            f(self.metrics.executions_per_commit),
            match &self.outcome {
                CheckpointOutcome::Hit(_) => "hit",
                CheckpointOutcome::Miss => "miss",
                CheckpointOutcome::NoStore => "no-store",
            }
        );
        if let Some(note) = &self.note {
            s.push_str(&format!(", \"note\": \"{}\"", json_escape(note)));
        }
        s.push('}');
        s
    }

    /// Parses the object produced by [`JobOutput::to_json`].
    ///
    /// # Errors
    ///
    /// Describes the missing or malformed field.
    pub fn from_json(v: &JsonValue) -> Result<Self, String> {
        let obj = v.as_object().ok_or("job output must be a JSON object")?;
        let num = |k: &str| -> Result<f64, String> {
            match obj.get(k) {
                None => Err(format!("missing field `{k}`")),
                Some(JsonValue::Null) => Ok(f64::NAN),
                Some(v) => v
                    .as_f64()
                    .ok_or_else(|| format!("field `{k}` must be a number or null")),
            }
        };
        let outcome = match obj.get("warm").and_then(JsonValue::as_str) {
            Some("hit") => CheckpointOutcome::Hit(String::new()),
            Some("miss") => CheckpointOutcome::Miss,
            _ => CheckpointOutcome::NoStore,
        };
        Ok(Self {
            metrics: PointMetrics {
                ipc: num("ipc")?,
                miss_ratio: num("miss_ratio")?,
                executions_per_commit: num("executions_per_commit")?,
            },
            outcome,
            note: obj
                .get("note")
                .and_then(JsonValue::as_str)
                .map(str::to_string),
        })
    }

    /// Renders the metrics the way the batch tables do (4 decimals, NaN
    /// as `null`) — the representation CI compares against `table2.json`.
    pub fn table_cells(&self) -> (String, String, String) {
        (
            json_num(self.metrics.ipc, 4),
            json_num(self.metrics.miss_ratio, 4),
            json_num(self.metrics.executions_per_commit, 4),
        )
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Writes `generated` into the store and persists its manifest; the
/// error, if any, as a persist note.
fn deposit(store: &Mutex<CheckpointStore>, generated: &[GeneratedCheckpoint]) -> Option<String> {
    let mut guard = lock(store);
    let written = guard.save_all(generated).and_then(|()| guard.flush());
    written
        .err()
        .map(|e| format!("checkpoint persist failed: {e}"))
}

/// What one exact execution produced.
#[derive(Debug)]
pub struct Executed<O> {
    /// Measurement-window statistics.
    pub stats: SimStats,
    /// How the warm-up was satisfied.
    pub outcome: CheckpointOutcome,
    /// Why a present checkpoint could not be used, if one could not.
    pub note: Option<String>,
    /// Why depositing the warm checkpoint failed, if it did.
    pub persist_error: Option<String>,
    /// The observer, covering exactly the measurement window.
    pub obs: O,
}

/// Runs one exact point under lifecycle observer `obs`: the executor
/// behind [`execute_job`] and the batch sweep's exact mode.
///
/// Without a store this is the plain uninterrupted run. With one, a
/// valid warm checkpoint is restored and only the measurement window is
/// simulated; otherwise the warm-up is simulated, its end deposited as
/// the point's warm checkpoint, and the same machine continues. Either
/// way the window, and the observer (reset at its start), are the ones
/// the uninterrupted run produces. `O = NoObs` monomorphises the
/// instrumentation away.
///
/// The observer must be `Clone` because a restore that fails after
/// validation consumes its argument; a fresh observer is cheap.
pub fn execute_job_with<O: PipeObserver + Clone>(
    spec: &JobSpec,
    store: Option<&Mutex<CheckpointStore>>,
    obs: O,
) -> Executed<O> {
    let config = sim_config(spec.scheme, spec.physical_regs, &spec.exp);
    let hash = config_hash(spec.workload, &config, spec.exp.seed);
    let key = checkpoint_key(
        spec.workload,
        spec.scheme,
        spec.physical_regs,
        &spec.exp,
        KIND_WARM,
        spec.exp.warmup,
    );
    let fresh = || spec.workload.stream(spec.exp.seed);
    let measure = |mut cpu: Processor<WorkloadStream, O>, outcome, note, persist_error| {
        cpu.reset_window();
        cpu.observer_mut().reset();
        let stats = cpu.run(spec.exp.measure);
        Executed {
            stats,
            outcome,
            note,
            persist_error,
            obs: cpu.into_observer(),
        }
    };

    let mut note = None;
    if let Some(store) = store {
        let loaded = lock(store).load(&key, hash);
        note = match loaded {
            Ok((entry, snapshot)) => match Processor::restore_with(&snapshot, fresh(), obs.clone())
            {
                Ok(cpu) => return measure(cpu, CheckpointOutcome::Hit(entry.file), None, None),
                // A snapshot that validates but refuses to restore (shape
                // mismatch) is as good as stale: simulate the warm-up.
                Err(e) => Some(format!("restore failed: {e}")),
            },
            Err(e) => e.note(),
        };
    }
    let mut cpu = Processor::with_observer(config, fresh(), obs);
    cpu.run(spec.exp.warmup);
    match store {
        None => measure(cpu, CheckpointOutcome::NoStore, None, None),
        Some(store) => {
            let persist_error = deposit(store, &[GeneratedCheckpoint::capture(&cpu, key, hash)]);
            measure(cpu, CheckpointOutcome::Miss, note, persist_error)
        }
    }
}

/// Executes one job, unobserved: [`execute_job_with`] with [`NoObs`], a
/// failed deposit folded into the note.
pub fn execute_job(spec: &JobSpec, store: Option<&Mutex<CheckpointStore>>) -> JobOutput {
    let run = execute_job_with(spec, store, NoObs);
    let note = match (run.note, run.persist_error) {
        (Some(n), Some(p)) => Some(format!("{n}; {p}")),
        (n, p) => n.or(p),
    };
    JobOutput {
        metrics: PointMetrics::from_stats(&run.stats),
        outcome: run.outcome,
        note,
    }
}

/// A sampled sharing group's interval checkpoints and where they came
/// from.
#[derive(Debug)]
pub struct GroupPass {
    /// `(interval start, snapshot)` pairs, in interval order.
    pub set: Vec<(u64, Snapshot)>,
    /// [`JobOutcome::CacheHit`] when the set was loaded from the store.
    pub outcome: JobOutcome,
    /// Why a present set could not be used, if one could not.
    pub note: Option<String>,
    /// Why depositing a generated set failed, if it did.
    pub persist_error: Option<String>,
}

/// Obtains the interval checkpoints of `spec`'s sharing group for `plan`
/// (every NRR value of a virtual-physical family restores the same
/// canonical set; see [`crate::checkpoints::group_config`]). With a store
/// the set is loaded when valid; otherwise the group's warm serial pass
/// generates it and the pass's checkpoints are deposited. A corrupt
/// on-disk set has already been quarantined by the loader, and the
/// regenerated set is bit-identical, because the on-disk artefacts came
/// from the very same pass.
pub fn group_pass(
    spec: &JobSpec,
    plan: &SamplingPlan,
    store: Option<&Mutex<CheckpointStore>>,
) -> GroupPass {
    let (workload, scheme, regs, exp) = (spec.workload, spec.scheme, spec.physical_regs, &spec.exp);
    let mut note = None;
    if let Some(store) = store {
        match lock(store).load_group_interval_set(workload, scheme, regs, exp, plan) {
            Ok(set) => {
                return GroupPass {
                    set,
                    outcome: JobOutcome::CacheHit,
                    note: None,
                    persist_error: None,
                }
            }
            Err(e) => note = e.note(),
        }
    }
    let generated = generate_group_checkpoints(workload, scheme, regs, exp, Some(plan));
    let set = generated
        .iter()
        .filter(|g| g.key.kind == KIND_INTERVAL)
        .map(|g| (g.key.target, g.snapshot.clone()))
        .collect();
    GroupPass {
        set,
        outcome: match store {
            Some(_) => JobOutcome::CacheMiss,
            None => JobOutcome::NoStore,
        },
        note,
        persist_error: store.and_then(|store| deposit(store, &generated)),
    }
}

/// Estimates one sampled point from its group's interval set (see
/// [`group_pass`]). The windows run serially, so a sweep's pool is never
/// nested.
pub fn sample_job(spec: &JobSpec, plan: &SamplingPlan, set: &[(u64, Snapshot)]) -> PointMetrics {
    let report = sample_from_checkpoints(
        spec.workload,
        spec.scheme,
        spec.physical_regs,
        &spec.exp,
        plan,
        set,
        1,
    );
    PointMetrics {
        ipc: report.ipc(),
        miss_ratio: report.miss_ratio(),
        executions_per_commit: report.executions_per_commit(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpr_snap::manifest::parse_json;
    use vpr_trace::Benchmark;

    fn spec() -> JobSpec {
        JobSpec {
            workload: Benchmark::Swim.into(),
            scheme: RenameScheme::VirtualPhysicalWriteback { nrr: 32 },
            physical_regs: 64,
            exp: ExperimentConfig {
                warmup: 500,
                measure: 3_000,
                ..ExperimentConfig::quick()
            },
        }
    }

    #[test]
    fn spec_round_trips_through_json() {
        let s = spec();
        let parsed = JobSpec::from_json(&parse_json(&s.to_json()).unwrap()).unwrap();
        assert_eq!(parsed, s);
        assert_eq!(parsed.label(), "swim/vp-wb-nrr32@64r");
        // Asm workloads exercise the `:`-bearing name path.
        let asm = JobSpec {
            workload: Workload::parse("asm:matmul").unwrap(),
            ..s
        };
        let parsed = JobSpec::from_json(&parse_json(&asm.to_json()).unwrap()).unwrap();
        assert_eq!(parsed, asm);
    }

    #[test]
    fn spec_rejects_malformed_objects() {
        for bad in [
            "{}",
            "{\"workload\": \"swim\"}",
            "{\"workload\": \"nope\", \"scheme\": \"conventional\", \"regs\": 64, \
             \"warmup\": 1, \"measure\": 1, \"seed\": 1, \"miss_penalty\": 1}",
            "{\"workload\": \"swim\", \"scheme\": \"nope\", \"regs\": 64, \
             \"warmup\": 1, \"measure\": 1, \"seed\": 1, \"miss_penalty\": 1}",
        ] {
            assert!(
                JobSpec::from_json(&parse_json(bad).unwrap()).is_err(),
                "{bad}"
            );
        }
    }

    #[test]
    fn output_round_trips_including_nan_degradation() {
        let out = JobOutput {
            metrics: PointMetrics {
                ipc: 1.2345678901234,
                miss_ratio: 0.0625,
                executions_per_commit: 1.0,
            },
            outcome: CheckpointOutcome::Miss,
            note: Some("checkpoint persist failed: disk full".into()),
        };
        let parsed = JobOutput::from_json(&parse_json(&out.to_json()).unwrap()).unwrap();
        assert_eq!(parsed.metrics.ipc.to_bits(), out.metrics.ipc.to_bits());
        assert_eq!(
            parsed.note.as_deref(),
            Some("checkpoint persist failed: disk full")
        );

        let failed = JobOutput {
            metrics: PointMetrics::failed(),
            outcome: CheckpointOutcome::NoStore,
            note: None,
        };
        let parsed = JobOutput::from_json(&parse_json(&failed.to_json()).unwrap()).unwrap();
        assert!(parsed.metrics.is_failed());
    }

    #[test]
    fn execution_matches_batch_and_dedups_via_the_store() {
        let s = spec();
        let batch = execute_job(&s, None);
        assert!(matches!(batch.outcome, CheckpointOutcome::NoStore));

        let dir = std::env::temp_dir().join("vpr-bench-jobs-exec-test");
        let _ = std::fs::remove_dir_all(&dir);
        let store = Mutex::new(CheckpointStore::open(&dir).unwrap());

        // First run: warm miss, deposits the artefact, matches batch bits.
        let first = execute_job(&s, Some(&store));
        assert!(
            matches!(first.outcome, CheckpointOutcome::Miss),
            "{:?}",
            first.outcome
        );
        assert_eq!(first.metrics.ipc.to_bits(), batch.metrics.ipc.to_bits());

        // Second run (another tenant): warm hit, identical bits.
        let second = execute_job(&s, Some(&store));
        assert!(
            matches!(second.outcome, CheckpointOutcome::Hit(_)),
            "{:?}",
            second.outcome
        );
        assert_eq!(second.metrics.ipc.to_bits(), batch.metrics.ipc.to_bits());
        assert_eq!(
            second.metrics.executions_per_commit.to_bits(),
            batch.metrics.executions_per_commit.to_bits()
        );
        assert_eq!(
            second.metrics.miss_ratio.to_bits(),
            batch.metrics.miss_ratio.to_bits()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn group_key_coalesces_family_members() {
        let a = spec();
        let b = JobSpec {
            scheme: RenameScheme::VirtualPhysicalWriteback { nrr: 16 },
            ..a.clone()
        };
        // nrr 16 and 32 share a warm-pass family at 64 regs.
        assert_eq!(a.group_key(), b.group_key());
        let c = JobSpec {
            scheme: RenameScheme::Conventional,
            ..a.clone()
        };
        assert_ne!(a.group_key(), c.group_key());
        let d = JobSpec {
            exp: ExperimentConfig { seed: 7, ..a.exp },
            ..a.clone()
        };
        assert_ne!(a.group_key(), d.group_key());
    }
}
