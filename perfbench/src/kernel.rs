//! `kernel_1m`: the fused round kernel (`FusedDolbie`, SIMD variant on
//! stable lanes) over a seeded 10⁶-worker `LatencyCost` fleet, one
//! thread. The only workload where `dolbie-core::kernel` does nearly all
//! the work.

use crate::host;
use crate::report::{mean, median, quantile};
use crate::speed::{SpeedGauge, Stream, NOMINAL_PASS_MS};
use crate::trace::{totals_by_name, Span, Tracer};
use crate::{mix, Outcome, WARMUP};
use dolbie_core::cost::{DynCost, LatencyCost};
use dolbie_core::numeric::pairwise_neumaier_sum;
use dolbie_core::{CostSlab, Dolbie, FusedDolbie, KernelVariant, LoadBalancer, Observation};
use std::hint::black_box;
use std::time::Instant;

/// Fleet size.
pub const N: usize = 1_000_000;

/// Fleets built (set-ups timed) per run.
const SESSIONS: usize = 10;

/// Steps between two passes of the memory reference ([`Stream`]): the
/// passes, interleaved with the steps, measure the bandwidth the host
/// leaves this run over the same stretch of time, and each session's step
/// times are scaled by their median. The step right after a pass runs
/// with the pass's data in the caches and leaves the samples.
const STEPS_PER_PASS: u32 = 8;

/// Steps the correctness gate plays in lockstep with the split engine.
/// At N = 10⁶ the default step size is ≈5e-13, so a round moves shares
/// by a few ulps and a one-ulp error in the kernel takes tens of rounds
/// to surface in the shares.
const GATE_STEPS: usize = 30;

/// Compulsory memory traffic of one latency-slab round, per worker: sweep
/// 1 reads and writes `x` and reads the gain and the three slab streams
/// (8 + 8 + 8 + 24 bytes); sweep 2 reads `x` and the slab and writes the
/// gain (8 + 24 + 8). The O(N/128) block partials are not counted.
pub const BYTES_PER_WORKER: usize = 88;

/// The seeded fleet parameters: speeds spread 8× over a 256-sample batch.
fn fleet(seed: u64) -> Vec<LatencyCost> {
    let mut state = seed;
    (0..N)
        .map(|_| {
            state = mix(state, 0x4B45_524E);
            let u = (state >> 11) as f64 / (1u64 << 53) as f64;
            LatencyCost::new(256.0, 64.0 + 448.0 * u, 0.05)
        })
        .collect()
}

/// Plays the kernel against the split `Dolbie` for a few rounds and
/// checks every straggler, global cost and share bit for bit. Returns
/// the failures and the split engine's seconds per round.
fn gate(seed: u64) -> (Vec<String>, f64) {
    let costs: Vec<DynCost> = fleet(seed).into_iter().map(|c| Box::new(c) as DynCost).collect();
    let mut fused = FusedDolbie::from_costs(&costs)
        .expect("a latency fleet has a slab layout")
        .with_variant(KernelVariant::Simd);
    let mut split = Dolbie::new(N);
    let mut failures = Vec::new();
    let mut split_s = 0.0;
    for t in 0..GATE_STEPS {
        let round = fused.step();
        let started = Instant::now();
        let played = split.allocation().clone();
        let obs = Observation::from_costs(t, &played, &costs);
        let (straggler, cost) = (obs.straggler(), obs.global_cost());
        split.observe(&obs);
        split_s += started.elapsed().as_secs_f64();
        if round.straggler != straggler || round.global_cost.to_bits() != cost.to_bits() {
            failures.push(format!("step {t}: the kernel elected a different straggler or cost"));
        }
    }
    let same = (0..N)
        .all(|i| fused.allocation().share(i).to_bits() == split.allocation().share(i).to_bits());
    if !same {
        failures.push("the kernel's shares diverged from the split engine's".into());
    }
    (failures, split_s / GATE_STEPS as f64)
}

/// Runs `kernel_1m` for `seconds`.
pub fn run(seed: u64, seconds: f64, traced: bool, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let per_session = seconds / SESSIONS as f64;
    let (mut plain_steps, mut traced_steps) = (Vec::new(), Vec::new());
    // The end-to-end step timings, each scaled by its session's passes.
    let (mut session_p50, mut session_p90, mut scaled_ms) = (Vec::new(), Vec::new(), 0.0);
    let mut bandwidth = SpeedGauge::new(NOMINAL_PASS_MS);
    let mut stream = Stream::new();
    let (mut setups, mut fleet_s, mut slab_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut gauge = SpeedGauge::default();
    for session in 0..SESSIONS {
        gauge.sample();
        // A traced run alternates untraced and traced sessions, so both
        // see the same mix of host speeds.
        let tracing = traced && session % 2 == 1;
        let mut quiet = Tracer::new(false);
        let tr = if tracing { &mut *tracer } else { &mut quiet };
        let start = tr.now();
        let root = tr.push(Span { name: "session", start, end: start, parent: None, round: 0 });

        let began = Instant::now();
        let t = tr.now();
        let params = fleet(seed);
        tr.record("setup_fleet", t, Some(root), 0);
        let fleet_done = Instant::now();
        let t = tr.now();
        let mut kernel =
            FusedDolbie::new(CostSlab::latency(&params)).with_variant(KernelVariant::Simd);
        drop(params);
        tr.record("setup_slab", t, Some(root), 0);
        let done = Instant::now();
        fleet_s.push(fleet_done.duration_since(began).as_secs_f64());
        slab_s.push(done.duration_since(fleet_done).as_secs_f64());
        setups.push(done.duration_since(began).as_secs_f64());

        let mut warmup = 0u64;
        while done.elapsed() < WARMUP {
            black_box(kernel.step());
            warmup += 1;
        }
        let mut this = Vec::new();
        let mut passes = Vec::new();
        let mut step = 0u32;
        while done.elapsed().as_secs_f64() < per_session {
            let after_pass = step.is_multiple_of(STEPS_PER_PASS);
            if after_pass {
                passes.push(stream.time_pass());
            }
            let t = tr.now();
            let at = Instant::now();
            black_box(kernel.step());
            let ms = at.elapsed().as_secs_f64() * 1e3;
            tr.record("step", t, Some(root), step);
            if !after_pass {
                this.push(ms);
            }
            step += 1;
        }
        tr.close(root);
        let scale = bandwidth.record(&passes);
        if tracing {
            traced_steps.extend_from_slice(&this);
        } else {
            session_p50.push(median(&this) * scale);
            session_p90.push(quantile(&this, 0.9) * scale);
            scaled_ms += this.iter().sum::<f64>() * scale;
            plain_steps.extend_from_slice(&this);
        }
        out.attempted += u64::from(step) + warmup;
        let sum = pairwise_neumaier_sum(kernel.allocation().as_slice());
        if (sum - 1.0).abs() >= 1e-12 {
            eprintln!("perfbench: gate failed: |Σx − 1| = {:e}", (sum - 1.0).abs());
            out.failed += 1;
        }
    }

    // Steps are bound by memory bandwidth and scaled by the memory
    // reference; set-up is CPU work and scaled by the CPU reference.
    out.e2e.put("round_ms_p50", mean(&session_p50), "ms");
    out.e2e.put("round_ms_p90", mean(&session_p90), "ms");
    let steps = plain_steps.len() as f64;
    out.e2e.put("worker_rounds_per_s", N as f64 * steps / (scaled_ms / 1e3), "1/s");
    out.e2e.put("setup_s", median(&setups) * gauge.scale(), "s");
    out.e2e.put("peak_rss_mb", host::peak_rss_mb(), "MiB");
    out.samples.push(("round_ms", plain_steps.len()));
    out.samples.push(("setup_s", setups.len()));
    out.samples.push(("reference_blocks", gauge.blocks()));
    out.notes.push(("reference_ms", gauge.block_ms()));
    out.notes.push(("speed_scale", gauge.scale()));
    out.notes.push(("wall_round_ms_p50", median(&plain_steps)));
    out.notes.push(("pass_ms", bandwidth.block_ms()));
    out.notes.push(("bandwidth_scale", bandwidth.scale()));

    let (failures, split_round_s) = gate(seed);
    for f in &failures {
        eprintln!("perfbench: gate failed: {f}");
    }
    out.attempted += GATE_STEPS as u64;
    out.failed += failures.len() as u64;

    if traced {
        let spans = tracer.spans();
        let by_name = totals_by_name(spans);
        let step_ns = by_name.get("step").map_or(0.0, |t| t.self_ns as f64 / t.count as f64);
        let bytes = (N * BYTES_PER_WORKER) as f64;
        let l = &mut out.layers;
        l.put("kernel.bytes_per_round", bytes, "B");
        l.put("kernel.gbps_computed", bytes / step_ns, "GB/s");
        l.put("kernel.setup_fleet_s", median(&fleet_s), "s");
        l.put("kernel.setup_slab_s", median(&slab_s), "s");
        l.put("round.mean_ms", step_ns / 1e6, "ms");
        l.put("host.reference_ms", gauge.block_ms(), "ms");
        l.put("host.speed_scale", gauge.scale(), "ratio");
        l.put("seq_engine.round_us", split_round_s * 1e6, "us");
        let overhead = median(&traced_steps) / median(&plain_steps) - 1.0;
        l.put("trace.overhead_pct", overhead * 100.0, "%");
        l.put("trace.spans", spans.len() as f64, "count");
        l.put("round.samples", traced_steps.len() as f64, "count");
    }
    out
}
