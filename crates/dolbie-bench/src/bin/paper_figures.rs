//! Regenerates every figure of the DOLBIE paper plus the extension
//! experiments.
//!
//! ```text
//! cargo run --release -p dolbie-bench --bin paper_figures -- all
//! cargo run --release -p dolbie-bench --bin paper_figures -- fig3 fig11
//! cargo run --release -p dolbie-bench --bin paper_figures -- --quick all
//! cargo run --release -p dolbie-bench --bin paper_figures -- --threads 4 fig4
//! cargo run --release -p dolbie-bench --bin paper_figures -- --quick --bench fig3 fig4 regret
//! ```
//!
//! Realization loops fan out over `--threads N` worker threads (default:
//! the machine's available parallelism) with outputs byte-identical to a
//! sequential run; see `dolbie_core::parallel`. `--bench` additionally
//! times every requested target at one thread and at `N` threads and
//! writes the measurements to `BENCH_paper_figures.json` in the workspace
//! root.
//!
//! A `--quick` run writes every artifact it shrinks under a
//! `_quick`-suffixed name (`results/fig4_per_round_latency_ci_quick.csv`,
//! `BENCH_paper_figures_quick.json`, ...), so a smoke never overwrites
//! the committed output of a full run. Targets without a quick mode
//! (`fig3`, `fig6`–`fig10`, `comms`, `faults`, `churn`) write their full
//! output either way.

use dolbie_bench::common;
use dolbie_bench::experiments::large_n::{LargeNOptions, RowKernel};
use dolbie_bench::experiments::{
    ablation, accuracy, bandit, chaos, chaos_net, churn, comms, edge_exp, faults, large_n, latency,
    mc, per_worker, regret, tcp, utilization,
};
use dolbie_core::parallel;
use std::time::Instant;

const TARGETS: [&str; 12] = [
    "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "regret", "comms",
    "edge",
];

const EXTENSION_TARGETS: [&str; 9] =
    ["ablation", "faults", "bandit", "large_n", "chaos", "chaos_net", "mc", "churn", "tcp"];

fn usage() -> ! {
    eprintln!(
        "usage: paper_figures [--quick] [--threads N] [--bench] [--kernel K] [--gate] <target>...\n\
         targets: {}, {}, all\n\
         --quick    reduces realization counts for a fast smoke run (writes *_quick artifacts)\n\
         --threads  worker threads for the realization fan-out (default: all cores)\n\
         --bench    times each target at 1 and N threads; writes BENCH_paper_figures.json\n\
         --kernel   large_n round kernels: split, fused, simd, all, or a comma list (default: all)\n\
         --gate     large_n only: fail if quick throughput regresses >20% below BENCH_large_n.json",
        TARGETS.join(", "),
        EXTENSION_TARGETS.join(", ")
    );
    std::process::exit(2);
}

/// Per-run options beyond the target list; only `large_n` consumes the
/// kernel selection and the gate.
struct RunOptions {
    quick: bool,
    kernels: Vec<RowKernel>,
    gate: bool,
}

fn run(target: &str, options: &RunOptions) {
    let quick = options.quick;
    match target {
        "fig3" => latency::fig3(),
        "fig4" => latency::fig4(quick),
        "fig5" => latency::fig5(quick),
        "fig6" => accuracy::fig6(),
        "fig7" => accuracy::fig7(),
        "fig8" => accuracy::fig8(),
        "fig9" => per_worker::fig9(),
        "fig10" => per_worker::fig10(),
        "fig11" => utilization::fig11(quick),
        "regret" => regret::regret(quick),
        "comms" => comms::comms(),
        "edge" => edge_exp::edge(quick),
        "ablation" => ablation::ablation(quick),
        "faults" => faults::faults(),
        "bandit" => bandit::bandit(quick),
        "large_n" => large_n::large_n_with(&LargeNOptions {
            quick,
            kernels: options.kernels.clone(),
            gate: options.gate,
        }),
        "chaos" => chaos::chaos(quick),
        "chaos_net" => chaos_net::chaos_net(quick),
        "mc" => mc::mc(quick),
        "churn" => churn::churn(),
        "tcp" => tcp::tcp(quick),
        other => {
            eprintln!("unknown target: {other}");
            usage();
        }
    }
    println!();
}

struct BenchRow {
    target: String,
    seconds: f64,
    seconds_one_thread: f64,
}

fn write_bench_json(rows: &[BenchRow], threads: usize, quick: bool) {
    let path = common::workspace_root()
        .join(format!("{}.json", common::artifact("BENCH_paper_figures", quick)));
    let cpu_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut body = String::from("{\n");
    body.push_str(&format!("  \"cpu_cores\": {cpu_cores},\n"));
    body.push_str(&format!("  \"threads\": {threads},\n"));
    body.push_str(&format!("  \"quick\": {quick},\n"));
    body.push_str("  \"targets\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let speedup = row.seconds_one_thread / row.seconds.max(1e-9);
        body.push_str(&format!(
            "    {{\"target\": \"{}\", \"seconds\": {:.3}, \"seconds_1thread\": {:.3}, \"speedup\": {:.2}}}{}\n",
            row.target,
            row.seconds,
            row.seconds_one_thread,
            speedup,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    body.push_str("  ],\n");
    let total: f64 = rows.iter().map(|r| r.seconds).sum();
    let total_one: f64 = rows.iter().map(|r| r.seconds_one_thread).sum();
    body.push_str(&format!("  \"total_seconds\": {total:.3},\n"));
    body.push_str(&format!("  \"total_seconds_1thread\": {total_one:.3},\n"));
    body.push_str(&format!("  \"total_speedup\": {:.2}\n", total_one / total.max(1e-9)));
    body.push_str("}\n");
    match std::fs::write(&path, body) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("failed to write {}: {e}", path.display()),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut bench = false;
    let mut gate = false;
    let mut kernels: Vec<RowKernel> = Vec::new();
    let mut threads: Option<usize> = None;
    let mut targets: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--bench" => bench = true,
            "--gate" => gate = true,
            "--kernel" => {
                let Some(value) = it.next() else {
                    eprintln!("--kernel requires a value (split, fused, simd, all)");
                    usage();
                };
                for part in value.split(',') {
                    if part == "all" {
                        kernels.extend(RowKernel::all());
                        continue;
                    }
                    match RowKernel::parse(part) {
                        Some(k) if !kernels.contains(&k) => kernels.push(k),
                        Some(_) => {}
                        None => {
                            eprintln!(
                                "invalid value for --kernel: {part:?} (expected split, fused, \
                                 simd, or all)"
                            );
                            usage();
                        }
                    }
                }
            }
            "--threads" => {
                let Some(value) = it.next() else {
                    eprintln!("--threads requires a value (a positive worker-thread count)");
                    usage();
                };
                match value.parse::<usize>() {
                    Ok(n) if n > 0 => threads = Some(n),
                    _ => {
                        eprintln!(
                            "invalid value for --threads: {value:?} (expected a positive integer)"
                        );
                        usage();
                    }
                }
            }
            "--help" | "-h" => usage(),
            other if other.starts_with("--") => {
                eprintln!("unknown flag: {other}");
                usage();
            }
            target => targets.push(target.to_string()),
        }
    }
    if targets.is_empty() {
        usage();
    }
    let threads =
        threads.unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    parallel::set_threads(threads);
    if kernels.is_empty() {
        kernels.extend(RowKernel::all());
    }
    let options = RunOptions { quick, kernels, gate };

    // Expand `all` preserving the canonical ordering.
    let expanded: Vec<&str> = targets
        .iter()
        .flat_map(|t| {
            if t == "all" {
                TARGETS.iter().chain(EXTENSION_TARGETS.iter()).copied().collect::<Vec<_>>()
            } else {
                vec![t.as_str()]
            }
        })
        .collect();

    if bench {
        if std::thread::available_parallelism().map_or(1, |n| n.get()) == 1 {
            eprintln!(
                "[warn] this machine reports a single CPU core: multi-thread timings will sit \
                 near 1.0x the single-thread ones; that is the hardware, not a harness regression"
            );
        }
        let mut rows = Vec::with_capacity(expanded.len());
        for target in &expanded {
            parallel::set_threads(1);
            let start = Instant::now();
            run(target, &options);
            let seconds_one_thread = start.elapsed().as_secs_f64();
            parallel::set_threads(threads);
            let start = Instant::now();
            run(target, &options);
            let seconds = start.elapsed().as_secs_f64();
            println!(
                "[bench] {target}: {seconds:.3} s at {threads} threads, {seconds_one_thread:.3} s at 1 thread ({:.2}x)",
                seconds_one_thread / seconds.max(1e-9)
            );
            rows.push(BenchRow { target: target.to_string(), seconds, seconds_one_thread });
        }
        write_bench_json(&rows, threads, quick);
    } else {
        for target in &expanded {
            run(target, &options);
        }
    }
}
