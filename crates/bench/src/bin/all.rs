//! Runs the complete evaluation — Table 2 and Figures 4-7 — and prints
//! each artefact, plus a Markdown rendering of each table.

use vpr_bench::sweep::SweepContext;
use vpr_bench::{
    experiments, take_flag, take_flag_value, write_json_artifact, write_prometheus_metrics,
    write_run_telemetry, ExperimentConfig,
};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let json = take_flag_value(&mut args, "--json").unwrap_or_else(|| "eval.json".into());
    let sampled = take_flag(&mut args, "--sampled");
    let checkpoint_dir: Option<std::path::PathBuf> =
        take_flag_value(&mut args, "--checkpoint-dir").map(Into::into);
    let metrics_prom = take_flag_value(&mut args, "--metrics-prom");
    let exp = ExperimentConfig::from_args(args).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let ctx = SweepContext::new(sampled, checkpoint_dir.as_deref());
    if let Err(e) = ctx.try_validate(&exp) {
        eprintln!("{e}");
        std::process::exit(2);
    }
    println!(
        "# Full evaluation (warmup {}, measure {}, seed {}{})\n",
        exp.warmup,
        exp.measure,
        exp.seed,
        if sampled { ", sampled" } else { "" }
    );

    println!("## Table 2 — conv vs VP write-back (NRR=32, 64 regs)\n");
    let t2 = experiments::table2_in(&exp, &ctx);
    println!("{}", t2.render().to_markdown());
    println!(
        "mean improvement: {:+.0}% (paper: +19%)\n",
        t2.mean_improvement_percent()
    );

    let exp20 = ExperimentConfig {
        miss_penalty: 20,
        ..exp
    };
    let t2b = experiments::table2_in(&exp20, &ctx);
    println!("### Table 2 variant — 20-cycle miss penalty\n");
    println!(
        "mean improvement: {:+.0}% (paper: +12%)\n",
        t2b.mean_improvement_percent()
    );

    println!("## Figure 4 — VP write-back speedup vs NRR\n");
    let f4 = experiments::fig4_in(&exp, &ctx);
    println!("{}", f4.render().to_markdown());

    println!("## Figure 5 — VP issue speedup vs NRR\n");
    let f5 = experiments::fig5_in(&exp, &ctx);
    println!("{}", f5.render().to_markdown());

    println!("## Figure 6 — write-back vs issue (NRR=32)\n");
    let f6 = experiments::fig6_in(&exp, &ctx);
    println!("{}", f6.render().to_markdown());
    println!(
        "write-back win rate: {:.0}%\n",
        100.0 * f6.writeback_win_rate()
    );

    println!("## Figure 7 — IPC vs register-file size\n");
    let f7 = experiments::fig7_in(&exp, &ctx);
    println!("{}", f7.render().to_markdown());
    let imp = f7.mean_improvements_percent();
    println!(
        "mean improvements: {:+.0}% / {:+.0}% / {:+.0}% for 48/64/96 regs (paper: +31/+19/+8)",
        imp[0], imp[1], imp[2]
    );

    // Combined machine-readable artefact: every table/figure JSON under
    // one roof, so one file holds the whole evaluation.
    let indent = |j: &str| j.trim_end().replace('\n', "\n  ");
    let combined = format!(
        "{{\n  \"schema\": \"vpr-bench-eval/v4\",\n  \"table2\": {},\n  \"table2_miss_penalty_20\": {},\n  \"fig4\": {},\n  \"fig5\": {},\n  \"fig6\": {},\n  \"fig7\": {}\n}}\n",
        indent(&t2.to_json()),
        indent(&t2b.to_json()),
        indent(&f4.to_json()),
        indent(&f5.to_json()),
        indent(&f6.to_json()),
        indent(&f7.to_json()),
    );
    write_json_artifact(std::path::Path::new(&json), &combined);

    // One telemetry twin and one metric series for the whole evaluation:
    // fold the six sweeps together (integer-sum merges, so order only
    // affects nothing but the `jobs`/`wall_s` header fields).
    let mut telemetry = t2.telemetry.clone();
    for other in [
        &t2b.telemetry,
        &f4.telemetry,
        &f5.telemetry,
        &f6.telemetry,
        &f7.telemetry,
    ] {
        telemetry.merge(other.clone());
    }
    write_run_telemetry(std::path::Path::new(&json), &telemetry);
    if let Some(p) = metrics_prom {
        let mut metrics = t2.metrics.clone();
        for other in [
            &t2b.metrics,
            &f4.metrics,
            &f5.metrics,
            &f6.metrics,
            &f7.metrics,
        ] {
            metrics.merge(other.clone());
        }
        write_prometheus_metrics(std::path::Path::new(&p), &metrics);
    }
}
