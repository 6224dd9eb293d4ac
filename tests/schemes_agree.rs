//! Cross-scheme architectural agreement: all renaming schemes must commit
//! exactly the same instruction stream — only timing may differ. Renaming
//! decides *when* an instruction may run, never *what* it computes.

use vpr::core::{Processor, RenameScheme, SimConfig, SimStats};
use vpr::trace::{Benchmark, TraceBuilder};

fn run(b: Benchmark, scheme: RenameScheme, insts: u64) -> SimStats {
    let config = SimConfig::builder().scheme(scheme).build();
    let trace = TraceBuilder::new(b).seed(99).build();
    let mut cpu = Processor::new(config, trace);
    cpu.run(insts)
}

#[test]
fn all_schemes_commit_the_same_work() {
    for b in [Benchmark::Swim, Benchmark::Go, Benchmark::Li] {
        let conv = run(b, RenameScheme::Conventional, 30_000);
        let issue = run(b, RenameScheme::VirtualPhysicalIssue { nrr: 32 }, 30_000);
        let wb = run(
            b,
            RenameScheme::VirtualPhysicalWriteback { nrr: 32 },
            30_000,
        );
        // Same committed count (we ask for the same budget)...
        assert!(conv.committed >= 30_000);
        assert!(issue.committed >= 30_000);
        assert!(wb.committed >= 30_000);
        // ...and the same *architectural work*: identical destination and
        // branch mixes per committed instruction. The trace is shared, so
        // any divergence means a scheme skipped or duplicated commits.
        let key = |s: &SimStats| {
            (
                s.committed_with_dest as f64 / s.committed as f64 * 1000.0,
                s.fetch.cond_branches as f64 / s.committed as f64 * 1000.0,
            )
        };
        let (kc, ki, kw) = (key(&conv), key(&issue), key(&wb));
        assert!(
            (kc.0 - ki.0).abs() < 15.0,
            "{b}: dest mix diverged {kc:?} {ki:?}"
        );
        assert!(
            (kc.0 - kw.0).abs() < 15.0,
            "{b}: dest mix diverged {kc:?} {kw:?}"
        );
        assert!((kc.1 - ki.1).abs() < 15.0, "{b}: branch mix diverged");
        assert!((kc.1 - kw.1).abs() < 15.0, "{b}: branch mix diverged");
    }
}

#[test]
fn identical_finite_traces_commit_identically() {
    // On a *finite* trace every scheme must commit exactly every
    // instruction.
    let make = || {
        let mut t = TraceBuilder::new(Benchmark::Compress).seed(5).build();
        t.by_ref().take(20_000).collect::<Vec<_>>()
    };
    let mut committed = Vec::new();
    for scheme in [
        RenameScheme::Conventional,
        RenameScheme::VirtualPhysicalIssue { nrr: 8 },
        RenameScheme::VirtualPhysicalWriteback { nrr: 8 },
    ] {
        let config = SimConfig::builder().scheme(scheme).build();
        let stats = Processor::new(config, make().into_iter()).run_to_completion();
        committed.push(stats.committed);
    }
    assert_eq!(committed[0], 20_000);
    assert_eq!(committed, vec![20_000, 20_000, 20_000]);
}

#[test]
fn issue_allocation_never_reexecutes_for_registers() {
    for b in [Benchmark::Swim, Benchmark::Mgrid] {
        let s = run(b, RenameScheme::VirtualPhysicalIssue { nrr: 4 }, 20_000);
        assert_eq!(
            s.register_reexecutions, 0,
            "{b}: issue allocation must never squash for registers"
        );
    }
}

#[test]
fn writeback_reexecutions_appear_under_pressure() {
    let config = SimConfig::builder()
        .scheme(RenameScheme::VirtualPhysicalWriteback { nrr: 4 })
        .physical_regs(48)
        .build();
    let trace = TraceBuilder::new(Benchmark::Swim).seed(3).build();
    let mut cpu = Processor::new(config, trace);
    let stats = cpu.run(30_000);
    assert!(
        stats.register_reexecutions > 0,
        "a small register file with small NRR must force re-executions"
    );
    assert!(stats.executions_per_commit() > 1.0);
}
