//! `mc_mw3x3`: the model checker exploring the master-worker N=3, 3-round
//! configuration under the full drop + duplicate retry envelope, DFS, one
//! thread — the workload dominated by `dolbie-simnet` replays and
//! `dolbie-mc` bookkeeping (fingerprints, visited set, confluence).

use crate::host;
use crate::report::{mean, median, quantile};
use crate::speed::{self, SpeedGauge};
use crate::trace::{Span, Tracer};
use crate::{mix, Outcome};
use dolbie_mc::{explore, replay, Arch, ExploreStats, McConfig, Strategy};
use dolbie_simnet::{FaultPlan, RetryPolicy};
use std::time::Instant;

/// Fleet size and horizon of the explored configuration.
const N: usize = 3;
const ROUNDS: usize = 3;

/// Sampled prefixes replayed one by one after each exploration; their
/// individual times are the checker's per-run latency. Enough that the
/// p90 of one session rests on a thousand samples.
const REPLAYS_PER_SESSION: usize = 10_000;

/// Replays between two reference blocks: the blocks, interleaved with
/// the replays, measure the host's speed over the same stretch of time,
/// and each session's replay times are scaled by their median.
const REPLAYS_PER_BLOCK: usize = 100;

/// Set-ups timed per session. One takes tens of microseconds, so a
/// single one per session would leave the median to a few samples.
const SETUPS_PER_SESSION: usize = 16;

/// Prefixes per random walk before it restarts.
const WALK_LENGTH: usize = 16;

/// The explored configuration: master-worker, N=3, 3 rounds, drop 0.2 +
/// duplicate 0.1 under a two-attempt retry policy.
pub fn config() -> McConfig {
    let mut plan =
        FaultPlan::seeded(0xD01B_0002).with_drop_probability(0.2).with_duplicate_probability(0.1);
    plan.retry = RetryPolicy::new(0.05, 2.0, 2);
    McConfig::new(Arch::MasterWorker, N, ROUNDS).with_plan(plan)
}

/// Seeded random walks over the decision tree: each prefix branches off
/// the previous run's trail at a random decision point, taking an
/// alternative the run did not take, and every [`WALK_LENGTH`] prefixes
/// the walk restarts from the default run, so the sample spreads over
/// the tree instead of following one long correlated path.
pub fn sample_prefixes(config: &McConfig, seed: u64, count: usize) -> Vec<Vec<u32>> {
    let mut state = seed;
    let default = replay(config, &[]).trail;
    let mut trail = default.clone();
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let mut points: Vec<usize> = (0..trail.len()).filter(|&i| trail[i].options > 1).collect();
        if points.is_empty() || out.len().is_multiple_of(WALK_LENGTH) {
            trail = default.clone();
            points = (0..trail.len()).filter(|&i| trail[i].options > 1).collect();
            assert!(!points.is_empty(), "the default run passes no decision with alternatives");
        }
        state = mix(state, out.len() as u64);
        let i = points[(state % points.len() as u64) as usize];
        let d = trail[i];
        let alt = (d.chosen + 1 + ((state >> 32) as u32 % (d.options - 1))) % d.options;
        let mut prefix: Vec<u32> = trail[..i].iter().map(|r| r.chosen).collect();
        prefix.push(alt);
        trail = replay(config, &prefix).trail;
        out.push(prefix);
    }
    out
}

/// Runs `mc_mw3x3` for `seconds`.
pub fn run(seed: u64, seconds: f64, traced: bool, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let prefixes = sample_prefixes(&config(), seed, REPLAYS_PER_SESSION);
    let (mut setups, mut explores) = (Vec::new(), Vec::new());
    let (mut plain_replays, mut traced_replays) = (Vec::new(), Vec::new());
    // The end-to-end timings, each scaled by its session's reference
    // blocks.
    let (mut session_p50, mut session_p90) = (Vec::new(), Vec::new());
    let (mut scaled_setups, mut scaled_explores) = (Vec::new(), Vec::new());
    let mut decisions = Vec::new();
    let mut reference: Option<ExploreStats> = None;
    let mut gauge = SpeedGauge::default();
    let mut timed = 0.0;
    let mut session = 0u32;
    while timed < seconds || (traced && traced_replays.is_empty()) {
        // A traced run alternates untraced and traced sessions, so both
        // see the same mix of host speeds.
        let tracing = traced && session % 2 == 1;
        let mut quiet = Tracer::new(false);
        let tr = if tracing { &mut *tracer } else { &mut quiet };
        let began = Instant::now();
        let start = tr.now();
        let root =
            tr.push(Span { name: "session", start, end: start, parent: None, round: session });

        let t = tr.now();
        let mut built = None;
        for _ in 0..SETUPS_PER_SESSION {
            let at = Instant::now();
            let cfg = config();
            let first = replay(&cfg, &[]);
            setups.push(at.elapsed().as_secs_f64());
            if first.verdict.is_err() {
                eprintln!("perfbench: gate failed: the default run violates an invariant");
                out.failed += 1;
            }
            built = Some(cfg);
        }
        let cfg = built.expect("at least one set-up per session");
        tr.record("setup", t, Some(root), session);

        let t = tr.now();
        let at = Instant::now();
        let ex = explore(&cfg, Strategy::Dfs);
        explores.push(at.elapsed().as_secs_f64());
        tr.record("explore", t, Some(root), session);
        out.attempted += 1;
        let consistent = reference.get_or_insert_with(|| ex.stats.clone());
        if !ex.complete || ex.violation.is_some() || *consistent != ex.stats {
            eprintln!(
                "perfbench: gate failed: exploration complete={} violation={:?} runs={}",
                ex.complete,
                ex.violation.as_ref().map(|v| &v.message),
                ex.stats.runs
            );
            out.failed += 1;
        }

        let replays = if tracing { &mut traced_replays } else { &mut plain_replays };
        let mut blocks = Vec::with_capacity(REPLAYS_PER_SESSION / REPLAYS_PER_BLOCK);
        for (k, prefix) in prefixes.iter().enumerate() {
            if k % REPLAYS_PER_BLOCK == 0 {
                blocks.push(speed::time_block());
            }
            let t = tr.now();
            let at = Instant::now();
            let outcome = replay(&cfg, prefix);
            replays.push(at.elapsed().as_secs_f64() * 1e3);
            tr.record("replay", t, Some(root), k as u32);
            decisions.push(outcome.trail.len() as f64);
            out.attempted += 1;
            if outcome.verdict.is_err() {
                out.failed += 1;
            }
        }
        tr.close(root);
        timed += began.elapsed().as_secs_f64();
        let scale = gauge.record(&blocks);
        if !tracing {
            let this = &replays[replays.len() - prefixes.len()..];
            session_p50.push(median(this) * scale);
            session_p90.push(quantile(this, 0.9) * scale);
            scaled_explores.push(explores[explores.len() - 1] * scale);
            let this = &setups[setups.len() - SETUPS_PER_SESSION..];
            scaled_setups.extend(this.iter().map(|s| s * scale));
        }
        session += 1;
    }

    let stats = reference.unwrap_or_default();
    let runs = stats.runs as f64;
    let replays = if plain_replays.is_empty() { &traced_replays } else { &plain_replays };
    out.e2e.put("round_ms_p50", mean(&session_p50), "ms");
    out.e2e.put("round_ms_p90", mean(&session_p90), "ms");
    let simulated = runs * (N * ROUNDS) as f64;
    out.e2e.put("worker_rounds_per_s", simulated / mean(&scaled_explores), "1/s");
    out.e2e.put("setup_s", median(&scaled_setups), "s");
    out.e2e.put("peak_rss_mb", host::peak_rss_mb(), "MiB");
    out.samples.push(("round_ms", replays.len()));
    out.samples.push(("setup_s", setups.len()));
    out.samples.push(("explore_s", explores.len()));
    out.samples.push(("reference_blocks", gauge.blocks()));
    out.notes.push(("reference_ms", gauge.block_ms()));
    out.notes.push(("speed_scale", gauge.scale()));
    out.notes.push(("wall_round_ms_p50", median(&plain_replays)));

    if traced {
        let explore_s = median(&explores);
        let replay_ms = median(&traced_replays);
        let l = &mut out.layers;
        l.put("mc.explore_s", explore_s, "s");
        l.put("mc.runs_per_s", runs / explore_s, "1/s");
        l.put("mc.replay_us_p50", replay_ms * 1e3, "us");
        l.put("mc.runs", runs, "count");
        l.put("mc.states_explored", stats.states_explored as f64, "count");
        l.put("mc.states_pruned", stats.states_pruned as f64, "count");
        l.put("mc.decisions_per_run", mean(&decisions), "count");
        l.put("mc.bookkeeping_share", 1.0 - runs * replay_ms / 1e3 / explore_s, "ratio");
        l.put("round.mean_ms", mean(&traced_replays), "ms");
        l.put("host.reference_ms", gauge.block_ms(), "ms");
        l.put("host.speed_scale", gauge.scale(), "ratio");
        let overhead = replay_ms / median(&plain_replays) - 1.0;
        l.put("trace.overhead_pct", overhead * 100.0, "%");
        l.put("trace.spans", tracer.spans().len() as f64, "count");
        l.put("round.samples", traced_replays.len() as f64, "count");
    }
    out
}
