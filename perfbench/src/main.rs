//! End-to-end and per-layer benchmark of the DOLBIE kernel, the sharded
//! TCP control plane and the model checker.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload tree_256_churn --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The process confines itself to one CPU before it starts any thread,
//! runs the workload for `--seconds` of timed work, checks every result
//! against its reference outside the timed region, and prints one JSON
//! result line last: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics of a separate traced run with `--trace 1`. See
//! `perfbench/README.md` for the workloads and the metric map.

mod host;
mod kernel;
mod mc;
mod report;
mod speed;
mod trace;
mod tree;

use report::{json_object, jstr, result_line, Metrics};
use std::path::PathBuf;
use std::time::Duration;
use trace::Tracer;
use tree::TreeShape;

/// Workload names, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["kernel_1m", "tree_256_churn", "mc_mw3x3"];

/// Every per-layer metric a traced run reports, with its unit. A
/// workload that does not exercise a layer reports it as 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("kernel.bytes_per_round", "B"),
    ("kernel.gbps_computed", "GB/s"),
    ("kernel.setup_fleet_s", "s"),
    ("kernel.setup_slab_s", "s"),
    ("wire.encode_ns", "ns"),
    ("wire.decode_ns", "ns"),
    ("wire.frames_per_round", "count"),
    ("wire.bytes_per_round", "B"),
    ("driver.write_us_per_round", "us"),
    ("driver.read_wait_ms_per_round", "ms"),
    ("driver.self_us_per_round", "us"),
    ("driver.cpu_ms_per_round", "ms"),
    ("worker.compute_us_per_round", "us"),
    ("shard.cpu_ms_per_round", "ms"),
    ("shard.worker_frames_per_round", "count"),
    ("shard.worker_bytes_per_round", "B"),
    ("root.cpu_ms_per_round", "ms"),
    ("backbone.frames_per_round", "count"),
    ("backbone.bytes_per_round", "B"),
    ("sched.switches_per_round", "count"),
    ("sched.runq_ms_per_round", "ms"),
    ("sched.idle_ms_per_round", "ms"),
    ("round.mean_ms", "ms"),
    ("round.samples", "count"),
    ("host.reference_ms", "ms"),
    ("host.speed_scale", "ratio"),
    ("epoch.count", "count"),
    ("epoch.replayed_rounds", "count"),
    ("epoch.transition_ms", "ms"),
    ("epoch.round_ms_p50", "ms"),
    ("seq_engine.round_us", "us"),
    ("mc.explore_s", "s"),
    ("mc.runs_per_s", "1/s"),
    ("mc.replay_us_p50", "us"),
    ("mc.runs", "count"),
    ("mc.states_explored", "count"),
    ("mc.states_pruned", "count"),
    ("mc.decisions_per_run", "count"),
    ("mc.bookkeeping_share", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

/// Work at the start of each session that is run but left out of the
/// latency samples. Fresh threads, sockets, pages and buffers make the
/// first ≈100 ms of a session slower (a 16-worker tree's median round
/// falls from 0.53 ms over its first ten rounds to a steady ≈0.32 ms
/// after ≈200); users pay that once per set-up, not per round.
pub const WARMUP: Duration = Duration::from_millis(100);

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (rounds, steps, explorations, replays).
    pub attempted: u64,
    /// Operations failed, failed correctness gates included.
    pub failed: u64,
    /// End-to-end metrics, from the untraced part of the run.
    pub e2e: Metrics,
    /// Per-layer metrics, from the traced part (traced runs only).
    pub layers: Metrics,
    /// Sample counts behind the reported quantiles.
    pub samples: Vec<(&'static str, usize)>,
    /// Figures printed with the host facts: the speed reference's block
    /// time and scale, and the unscaled median.
    pub notes: Vec<(&'static str, f64)>,
}

/// splitmix64 of `seed` salted by `salt`: the seeded stream every input
/// of the benchmark is drawn from.
pub fn mix(seed: u64, salt: u64) -> u64 {
    fn splitmix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    splitmix(seed ^ splitmix(salt))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(Args { workload, seed: seed.unwrap_or(1), seconds, trace: trace.unwrap_or(false) })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let cpu_cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = match host::pin_to_one_cpu() {
        Ok(cpu) => cpu,
        Err(e) => {
            eprintln!("perfbench: cannot confine the run to one CPU: {e}");
            std::process::exit(3);
        }
    };

    let mut tracer = Tracer::new(args.trace);
    let (seed, seconds, traced) = (args.seed, args.seconds, args.trace);
    let outcome = match args.workload.as_str() {
        "kernel_1m" => kernel::run(seed, seconds, traced, &mut tracer),
        "tree_256_churn" => {
            let shape = TreeShape {
                n: 256,
                m: 2,
                rounds: 250,
                kill_every: Some(50),
                trace_stride: 8,
                block_every: 4,
            };
            tree::run(&shape, seed, seconds, traced, &mut tracer)
        }
        "mc_mw3x3" => mc::run(seed, seconds, traced, &mut tracer),
        _ => unreachable!("validated in parse_args"),
    };
    if let Err(e) = host::check_confined(cpu) {
        eprintln!("perfbench: confinement did not hold: {e}");
        std::process::exit(3);
    }

    let mut facts = vec![
        ("workload", jstr(&args.workload)),
        ("seed", seed.to_string()),
        ("trace", u8::from(traced).to_string()),
        ("cpu_cores", cpu_cores.to_string()),
        ("pinned_cpu", cpu.to_string()),
        ("driver_threads", "1".to_owned()),
        ("rustc", jstr(env!("PERFBENCH_RUSTC_VERSION"))),
    ];
    let sample_fields: Vec<(String, String)> = outcome
        .samples
        .iter()
        .map(|(name, n)| (format!("samples.{name}"), n.to_string()))
        .collect();
    facts.extend(sample_fields.iter().map(|(k, v)| (k.as_str(), v.clone())));
    facts.extend(outcome.notes.iter().map(|&(k, v)| (k, report::jnum(v))));

    let metrics = if traced {
        let path = PathBuf::from("perfbench/traces").join(format!("{}-{seed}.tsv", args.workload));
        match tracer.write_tsv(&path) {
            Ok(()) => facts.push(("spans_file", jstr(&path.to_string_lossy()))),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
        let mut layers = Metrics::default();
        for &(name, unit) in PER_LAYER {
            layers.put(name, outcome.layers.get(name).unwrap_or(0.0), unit);
        }
        layers
    } else {
        outcome.e2e
    };
    println!("{}", json_object(&facts));
    let correct = outcome.failed == 0;
    println!("{}", result_line(correct, outcome.attempted.max(1), outcome.failed, &metrics));
}
