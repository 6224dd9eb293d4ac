//! Daemon lifecycle drills, driving the real `vpr-serve` binary as a
//! child process:
//!
//! 1. start → submit a grid → SIGTERM mid-sweep → restart → the journal
//!    replay completes every accepted job **byte-identically** to a
//!    fault-free serial run;
//! 2. the same restart serves already-finished jobs from the journal
//!    (replay hits) instead of recomputing them;
//! 3. the `--abort-after-appends` drill: a daemon that dies mid-submit
//!    never acknowledged the batch, and the journalled prefix plus a
//!    clean resubmission converge on the same bits;
//! 4. a restarted daemon answers a re-submitted grid from the journal's
//!    finished results without executing anything.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use vpr_bench::checkpoints::CheckpointOutcome;
use vpr_bench::jobs::{execute_job, JobOutput, JobSpec};
use vpr_bench::ExperimentConfig;
use vpr_core::RenameScheme;
use vpr_serve::client::Client;
use vpr_serve::protocol::PollResult;
use vpr_trace::Benchmark;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vpr-serve-lifecycle-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The drill grid: two workloads × (conventional, virtual-physical).
fn grid() -> Vec<JobSpec> {
    let exp = ExperimentConfig {
        warmup: 256,
        measure: 1_024,
        ..ExperimentConfig::quick()
    };
    let mut specs = Vec::new();
    for workload in [Benchmark::Swim, Benchmark::Go] {
        for scheme in [
            RenameScheme::Conventional,
            RenameScheme::VirtualPhysicalWriteback { nrr: 8 },
        ] {
            specs.push(JobSpec {
                workload: workload.into(),
                scheme,
                physical_regs: 64,
                exp,
            });
        }
    }
    specs
}

/// A child daemon, killed on drop so a failing assert can't leak it.
struct Daemon(Child);

impl Daemon {
    fn spawn(socket: &Path, dir: &Path, extra: &[&str]) -> Daemon {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_vpr-serve"));
        cmd.arg("serve")
            .arg("--socket")
            .arg(socket)
            .arg("--dir")
            .arg(dir)
            .arg("--workers")
            .arg("2")
            .args(extra)
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        Daemon(cmd.spawn().expect("spawn vpr-serve"))
    }

    /// The production kill path: plain SIGTERM, no graceful handler —
    /// the journal is what makes this safe.
    fn sigterm(&mut self) {
        let _ = Command::new("kill").arg(self.0.id().to_string()).status();
        let _ = self.0.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn assert_bits(r: &PollResult, want: &JobOutput, ctx: &str) {
    assert_eq!(r.state, "done", "{ctx}: {:?}", r.error);
    let got = r.output.as_ref().expect("done result carries output");
    assert_eq!(
        got.metrics.ipc.to_bits(),
        want.metrics.ipc.to_bits(),
        "{ctx}: ipc"
    );
    assert_eq!(
        got.metrics.miss_ratio.to_bits(),
        want.metrics.miss_ratio.to_bits(),
        "{ctx}: miss ratio"
    );
    assert_eq!(
        got.metrics.executions_per_commit.to_bits(),
        want.metrics.executions_per_commit.to_bits(),
        "{ctx}: executions per commit"
    );
}

#[test]
fn sigterm_mid_sweep_then_restart_completes_byte_identically() {
    let specs = grid();
    let reference: Vec<JobOutput> = specs.iter().map(|s| execute_job(s, None)).collect();

    let root = tmp("sigterm");
    let socket = root.join("serve.sock");
    let dir = root.join("state");

    let mut daemon = Daemon::spawn(&socket, &dir, &[]);
    let mut client = Client::new(&socket);
    client.timeout = Duration::from_secs(60);
    let ids = client.submit(&specs).expect("submit against fresh daemon");

    // Kill mid-sweep. The ack above covers journalled jobs only;
    // whatever was running dies with the process.
    daemon.sigterm();

    // Restart on the same state dir: replay re-queues unfinished work.
    let _daemon2 = Daemon::spawn(&socket, &dir, &[]);
    let results = client
        .wait(&ids, Duration::from_secs(180))
        .expect("grid completes after restart");
    for ((spec, r), want) in specs.iter().zip(&results).zip(&reference) {
        assert_bits(r, want, &format!("after restart: {}", spec.label()));
    }

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn restart_serves_finished_jobs_from_the_journal() {
    let specs = grid();
    let reference: Vec<JobOutput> = specs.iter().map(|s| execute_job(s, None)).collect();

    let root = tmp("replay");
    let socket = root.join("serve.sock");
    let dir = root.join("state");

    let mut daemon = Daemon::spawn(&socket, &dir, &[]);
    let client = Client::new(&socket);
    let ids = client.submit(&specs).unwrap();
    client
        .wait(&ids, Duration::from_secs(180))
        .expect("grid completes");

    // Kill the daemon with everything finished, restart, and ask again:
    // every result must come back from the journal, bit-for-bit, with
    // the replay visible in the metrics surface.
    daemon.sigterm();
    let _daemon2 = Daemon::spawn(&socket, &dir, &[]);
    let results = client
        .wait(&ids, Duration::from_secs(60))
        .expect("replayed results are immediately terminal");
    for ((spec, r), want) in specs.iter().zip(&results).zip(&reference) {
        assert_bits(r, want, &format!("replayed: {}", spec.label()));
    }
    let (_, prometheus) = client.metrics().expect("metrics after replay");
    assert!(
        prometheus.contains(&format!("vpr_serve_replay_hits_total {}", specs.len())),
        "all {} finished jobs should replay from the journal:\n{prometheus}",
        specs.len()
    );

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn aborted_submit_never_acknowledges_unjournalled_work() {
    let specs = grid();
    let reference: Vec<JobOutput> = specs.iter().map(|s| execute_job(s, None)).collect();

    let root = tmp("abort");
    let socket = root.join("serve.sock");
    let dir = root.join("state");

    // The drill's simulated SIGKILL: abort after two journalled job
    // records, i.e. mid-way through accepting the 4-job batch.
    let _daemon = Daemon::spawn(&socket, &dir, &["--abort-after-appends", "2"]);
    let mut client = Client::new(&socket);
    client.timeout = Duration::from_secs(3);
    let err = client
        .submit(&specs)
        .expect_err("the daemon died before acknowledging");
    assert!(err.contains("timed out"), "{err}");

    // Restart without the abort hook. The journalled prefix replays and
    // runs; the client, which never got an ack, resubmits the whole
    // grid under fresh ids. Both paths produce the same bits.
    let _daemon2 = Daemon::spawn(&socket, &dir, &[]);
    let mut client = Client::new(&socket);
    client.timeout = Duration::from_secs(60);
    let ids = client.submit(&specs).expect("resubmit after restart");
    let results = client
        .wait(&ids, Duration::from_secs(180))
        .expect("resubmitted grid completes");
    for ((spec, r), want) in specs.iter().zip(&results).zip(&reference) {
        assert_bits(r, want, &format!("after abort drill: {}", spec.label()));
    }

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn restart_answers_a_resubmitted_grid_from_journalled_results() {
    let specs = grid();
    let reference: Vec<JobOutput> = specs.iter().map(|s| execute_job(s, None)).collect();

    let root = tmp("memo");
    let socket = root.join("serve.sock");
    let dir = root.join("state");

    let mut daemon = Daemon::spawn(&socket, &dir, &[]);
    let client = Client::new(&socket);
    let first = client.submit(&specs).unwrap();
    client
        .wait(&first, Duration::from_secs(180))
        .expect("grid completes");

    // Restart, then submit the same grid again under fresh ids (what a
    // client does when its submit ack was lost). Every job reuses a
    // journalled result instead of simulating.
    daemon.sigterm();
    let _daemon2 = Daemon::spawn(&socket, &dir, &[]);
    let second = client.submit(&specs).expect("resubmit after restart");
    assert!(second.iter().all(|id| !first.contains(id)), "{second:?}");
    let results = client
        .wait(&second, Duration::from_secs(60))
        .expect("resubmitted grid completes");
    for ((spec, r), want) in specs.iter().zip(&results).zip(&reference) {
        let ctx = format!("resubmitted: {}", spec.label());
        assert_bits(r, want, &ctx);
        let outcome = &r.output.as_ref().unwrap().outcome;
        assert!(
            matches!(outcome, CheckpointOutcome::Hit(_)),
            "{ctx}: {outcome:?}"
        );
    }
    let (_, prometheus) = client.metrics().expect("metrics after resubmit");
    assert!(
        prometheus.contains(&format!("vpr_serve_result_hits_total {}\n", specs.len())),
        "all {} resubmitted jobs should reuse journalled results:\n{prometheus}",
        specs.len()
    );

    let _ = std::fs::remove_dir_all(&root);
}
