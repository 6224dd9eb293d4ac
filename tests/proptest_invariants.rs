//! Property-based tests over randomly generated programs and machine
//! configurations: the simulator must uphold its invariants (every
//! program completes without deadlock, all schemes commit the same
//! stream, and generated traces are coherent) for *any* workload, not just
//! the nine benchmark models.

use proptest::prelude::*;
use vpr::core::{Processor, RenameScheme, SimConfig};
use vpr::isa::OpClass;
use vpr::trace::ops::{br_on, fadd, fdiv, fload, fmul, fstore, iadd, iload, imul, istore};
use vpr::trace::{LoopSpec, Program, StreamSpec, SynthOp, TraceGen};

/// A random but well-formed loop body of 3..=12 operations.
fn body_strategy() -> impl Strategy<Value = Vec<SynthOp>> {
    let op = prop_oneof![
        (1usize..30, 1usize..30, 1usize..30).prop_map(|(d, a, b)| iadd(d, a, b)),
        (1usize..30, 1usize..30, 1usize..30).prop_map(|(d, a, b)| imul(d, a, b)),
        (1usize..30, 1usize..30, 1usize..30).prop_map(|(d, a, b)| fadd(d, a, b)),
        (1usize..30, 1usize..30, 1usize..30).prop_map(|(d, a, b)| fmul(d, a, b)),
        (1usize..30, 1usize..30, 1usize..30).prop_map(|(d, a, b)| fdiv(d, a, b)),
        (1usize..30, 1usize..30).prop_map(|(d, b)| iload(d, b, 0)),
        (1usize..30, 1usize..30).prop_map(|(d, b)| fload(d, b, 0)),
        (1usize..30, 1usize..30).prop_map(|(d, b)| istore(d, b, 1)),
        (1usize..30, 1usize..30).prop_map(|(d, b)| fstore(d, b, 1)),
        (1usize..30, 0.0f64..=1.0).prop_map(|(r, p)| br_on(r, p, 0)),
    ];
    prop::collection::vec(op, 3..=12)
}

fn program_strategy() -> impl Strategy<Value = Program> {
    (
        body_strategy(),
        body_strategy(),
        1.0f64..64.0,
        1.0f64..64.0,
        0u64..4,
    )
        .prop_map(|(body_a, body_b, trips_a, trips_b, ws_sel)| {
            let ws = [2048u64, 16 * 1024, 128 * 1024, 1 << 20][ws_sel as usize];
            let mk = |base_pc: u64, body: Vec<SynthOp>, trips: f64, region: u64| LoopSpec {
                base_pc,
                body,
                streams: vec![
                    StreamSpec::strided(region, ws, 8),
                    StreamSpec::random(region + (1 << 24), ws),
                ],
                mean_trips: trips,
            };
            Program {
                loops: vec![
                    mk(0x1_0000, body_a, trips_a, 0x100_0000),
                    mk(0x2_0000, body_b, trips_b, 0x800_0000),
                ],
                weights: vec![1.0, 1.0],
            }
        })
}

fn scheme_strategy() -> impl Strategy<Value = RenameScheme> {
    prop_oneof![
        Just(RenameScheme::Conventional),
        (1usize..=8).prop_map(|nrr| RenameScheme::VirtualPhysicalIssue { nrr }),
        (1usize..=8).prop_map(|nrr| RenameScheme::VirtualPhysicalWriteback { nrr }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Invariants 1-4: no double alloc/free (the free lists assert these
    /// internally), in-order commit of every instruction, and progress —
    /// any random program on any scheme with a *minimal* register file
    /// runs to completion without tripping the deadlock watchdog.
    #[test]
    fn random_programs_complete_on_all_schemes(
        program in program_strategy(),
        scheme in scheme_strategy(),
        extra_regs in 1usize..32,
    ) {
        let n = 3_000usize;
        let trace: Vec<_> = TraceGen::new(program, 11).take(n).collect();
        let config = SimConfig::builder()
            .scheme(scheme)
            .physical_regs(32 + extra_regs.max(scheme.nrr().unwrap_or(1)))
            .build();
        let stats = Processor::new(config, trace.into_iter()).run_to_completion();
        prop_assert_eq!(stats.committed, n as u64);
        // Conservation: everything allocated during the run is freed by
        // commit or still held by an architectural mapping; the free lists
        // panic on any imbalance, so reaching here is the assertion.
        prop_assert!(stats.cycles > 0);
    }

    /// Invariant 5 (weak form): the committed instruction count and mix
    /// are identical across schemes for the same finite trace.
    #[test]
    fn schemes_commit_identical_streams(program in program_strategy()) {
        let n = 2_000usize;
        let trace: Vec<_> = TraceGen::new(program, 7).take(n).collect();
        let mems = trace.iter().filter(|d| d.op().is_mem()).count();
        for scheme in [
            RenameScheme::Conventional,
            RenameScheme::VirtualPhysicalIssue { nrr: 4 },
            RenameScheme::VirtualPhysicalWriteback { nrr: 4 },
        ] {
            let config = SimConfig::builder().scheme(scheme).physical_regs(40).build();
            let stats = Processor::new(config, trace.clone().into_iter()).run_to_completion();
            prop_assert_eq!(stats.committed, n as u64);
            // Memory operations all pass through the LSQ exactly once at
            // commit; forwarding/violation counters never exceed them.
            prop_assert!(stats.lsq.violations <= mems as u64);
        }
    }

    /// The trace generator itself: the emitted stream is a coherent
    /// committed path (next_pc chains) and is deterministic per seed.
    #[test]
    fn generated_traces_are_coherent(program in program_strategy(), seed in 0u64..1000) {
        let a: Vec<_> = TraceGen::new(program.clone(), seed).take(1_000).collect();
        let b: Vec<_> = TraceGen::new(program, seed).take(1_000).collect();
        prop_assert_eq!(&a, &b);
        for w in a.windows(2) {
            prop_assert_eq!(w[0].next_pc(), w[1].pc());
        }
        for d in &a {
            if d.op().is_mem() {
                prop_assert!(d.mem().is_some());
            }
            if d.op().is_branch() {
                prop_assert!(d.branch().is_some());
            }
            prop_assert!(d.op() != OpClass::Nop);
        }
    }
}
