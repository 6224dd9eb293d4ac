//! Single-fault byte-identity at the **service** layer: any one injected
//! fault at the daemon's four hook points — a journal append that errors,
//! tears, or bit-flips; a lease that expires early; a client connection
//! dropped before the response; a worker killed the moment it picks a job
//! up — may cost a retry or a reconnect, but every client's results must
//! stay byte-identical to a fault-free serial run.
//!
//! Seeds sweep [`FaultPlan::from_seed_service`], which covers the whole
//! service matrix (kind × hook × position). Each seed runs an in-process
//! daemon (the fault registry is process-global) with two concurrent
//! tenants submitting overlapping grids, so the dedup/single-flight path
//! is exercised under fault too.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::time::Duration;

use vpr_bench::jobs::{execute_job, JobOutput, JobSpec};
use vpr_bench::ExperimentConfig;
use vpr_core::par::RetryPolicy;
use vpr_core::RenameScheme;
use vpr_serve::{Client, ServeConfig, Server};
use vpr_snap::faults::{self, FaultPlan};
use vpr_trace::Benchmark;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vpr-serve-faults-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn grid() -> Vec<JobSpec> {
    let exp = ExperimentConfig {
        warmup: 256,
        measure: 2_048,
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

fn assert_bits(got: &JobOutput, want: &JobOutput, ctx: &str) {
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
fn any_single_service_fault_leaves_every_client_byte_identical() {
    // Arming is process-global: serialise against every other fault test.
    let _x = faults::exclusive();

    let specs = grid();
    let reference: Vec<JobOutput> = specs.iter().map(|s| execute_job(s, None)).collect();

    // Pick the smallest seed set that covers the full service matrix:
    // 6 (kind, hook) combos × 2 positions.
    let mut seeds = Vec::new();
    let mut distinct = BTreeSet::new();
    for seed in 0..256u64 {
        let plan = FaultPlan::from_seed_service(seed, "");
        if distinct.insert((plan.kind.label(), plan.nth)) {
            seeds.push(seed);
        }
        if distinct.len() == 12 {
            break;
        }
    }

    let mut covered: BTreeSet<&'static str> = BTreeSet::new();
    for seed in seeds {
        let plan = FaultPlan::from_seed_service(seed, "");
        covered.insert(plan.kind.label());
        let ctx = format!(
            "seed {seed}: {}/{} nth={}",
            plan.kind.label(),
            plan.op.label(),
            plan.nth
        );

        let root = tmp(&format!("seed-{seed}"));
        let socket = root.join("serve.sock");
        let mut cfg = ServeConfig::new(&socket, root.join("state"));
        cfg.workers = 2;
        cfg.lease_ms = 30_000;
        cfg.retry = RetryPolicy::immediate(3);
        let server = Server::start(cfg).expect("daemon starts");
        faults::arm(plan);

        // Two tenants, overlapping grids, concurrently.
        let handles: Vec<_> = (0..2)
            .map(|tenant| {
                let specs = specs.clone();
                let socket = socket.clone();
                std::thread::spawn(move || {
                    let client = Client::new(socket);
                    let ids = client
                        .submit(&specs)
                        .unwrap_or_else(|e| panic!("tenant {tenant} submit: {e}"));
                    client
                        .wait(&ids, Duration::from_secs(180))
                        .unwrap_or_else(|e| panic!("tenant {tenant} wait: {e}"))
                })
            })
            .collect();
        let tenants: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();

        let fired = faults::disarm();
        server.stop();

        for (tenant, results) in tenants.iter().enumerate() {
            assert_eq!(results.len(), specs.len(), "{ctx}");
            for ((spec, r), want) in specs.iter().zip(results).zip(&reference) {
                let ctx = format!("{ctx} (fired: {fired:?}) tenant {tenant}: {}", spec.label());
                assert_eq!(r.state, "done", "{ctx}: {:?}", r.error);
                assert_bits(r.output.as_ref().expect("done carries output"), want, &ctx);
            }
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    // The seed sweep must have touched every service fault kind.
    let expected: BTreeSet<&'static str> = [
        "io-error",
        "truncate",
        "bit-flip",
        "lease-expire",
        "client-disconnect",
        "worker-kill",
    ]
    .into_iter()
    .collect();
    assert_eq!(covered, expected, "seed sweep missed part of the matrix");
}

#[test]
fn exhausted_retry_budget_degrades_into_a_structured_failure() {
    let _x = faults::exclusive();

    // A plan that kills the worker every time it picks this job up would
    // need a multi-shot registry; instead, exhaust the budget with a
    // zero-retry policy and a single worker-kill — one attempt, one
    // injected death, budget gone.
    let spec = grid().remove(0);
    let root = tmp("degrade");
    let socket = root.join("serve.sock");
    let mut cfg = ServeConfig::new(&socket, root.join("state"));
    cfg.workers = 1;
    cfg.retry = RetryPolicy::none();
    let server = Server::start(cfg).expect("daemon starts");
    faults::arm(FaultPlan::new(
        vpr_snap::faults::FaultKind::WorkerKill,
        vpr_snap::faults::FaultOp::Worker,
        "",
    ));

    let client = Client::new(&socket);
    let ids = client.submit(std::slice::from_ref(&spec)).unwrap();
    let results = client.wait(&ids, Duration::from_secs(60)).unwrap();

    let fired = faults::disarm();
    server.stop();

    assert!(fired.is_some(), "the worker-kill fault must have fired");
    let r = &results[0];
    assert_eq!(
        r.state, "failed",
        "budget 0 means the first death is terminal"
    );
    assert!(
        r.error.as_deref().unwrap_or("").contains("worker kill"),
        "{:?}",
        r.error
    );
    // The degradation is structured: NaN metrics, not a wedged queue.
    assert!(r
        .output
        .as_ref()
        .expect("failed carries the NaN placeholder")
        .metrics
        .is_failed());

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn identical_jobs_execute_once_and_a_killed_leader_memoises_nothing() {
    let _x = faults::exclusive();

    let specs = grid();
    let reference: Vec<JobOutput> = specs.iter().map(|s| execute_job(s, None)).collect();

    // Two workers, two tenants on the same grid: every spec executes once
    // and its duplicate reuses the result. The second round first kills
    // the worker that picks up one spec's leader; that attempt must leave
    // nothing behind, so its duplicate still ends with the reference bits.
    let killed = specs[0].label();
    for kill in [false, true] {
        let root = tmp(&format!("memo-kill-{kill}"));
        let socket = root.join("serve.sock");
        let mut cfg = ServeConfig::new(&socket, root.join("state"));
        cfg.workers = 2;
        cfg.retry = RetryPolicy::immediate(3);
        let server = Server::start(cfg).expect("daemon starts");
        if kill {
            faults::arm(FaultPlan::new(
                vpr_snap::faults::FaultKind::WorkerKill,
                vpr_snap::faults::FaultOp::Worker,
                killed.as_str(),
            ));
        }

        let handles: Vec<_> = (0..2)
            .map(|tenant| {
                let specs = specs.clone();
                let socket = socket.clone();
                std::thread::spawn(move || {
                    let client = Client::new(socket);
                    let ids = client
                        .submit(&specs)
                        .unwrap_or_else(|e| panic!("tenant {tenant} submit: {e}"));
                    client
                        .wait(&ids, Duration::from_secs(180))
                        .unwrap_or_else(|e| panic!("tenant {tenant} wait: {e}"))
                })
            })
            .collect();
        let tenants: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();

        let fired = if kill { faults::disarm() } else { None };
        let metrics = server.metrics();
        server.stop();

        assert_eq!(fired.is_some(), kill, "the worker-kill fault must fire");
        for (tenant, results) in tenants.iter().enumerate() {
            assert_eq!(results.len(), specs.len());
            for ((spec, r), want) in specs.iter().zip(results).zip(&reference) {
                let ctx = format!("kill {kill}, tenant {tenant}: {}", spec.label());
                assert_eq!(r.state, "done", "{ctx}: {:?}", r.error);
                assert_bits(r.output.as_ref().expect("done carries output"), want, &ctx);
            }
        }
        // Whichever of a spec's two jobs runs first executes it and the
        // other reuses it: the killed attempt executed nothing and its
        // retry counts as an ordinary duplicate.
        assert_eq!(metrics.result_hits, specs.len() as u64, "kill {kill}");
        assert_eq!(metrics.retries, u64::from(kill), "kill {kill}");
        let _ = std::fs::remove_dir_all(&root);
    }
}
