//! Experiment X8 (extension): model-checking coverage of the DOLBIE
//! protocols.
//!
//! Where the chaos sweeps (`chaos`, X7) *sample* the fault space with
//! seeded randomness, this experiment runs `dolbie-mc` to *enumerate*
//! it: every event interleaving and every fault decision inside the
//! configured envelope, for three small-but-adversarial configurations
//! — one per architecture, matching the crate's acceptance gates:
//!
//! - (a) master-worker, N=3, 3 rounds, the full drop + duplicate wire
//!   envelope under a two-attempt retry policy;
//! - (b) ring, N=4, 3 rounds, one crash window;
//! - (c) fully-distributed, N=3, 3 rounds, a leave + join epoch pair
//!   overlapping a crash window.
//!
//! Each exploration must complete (frontier drained, `max_runs` not
//! tripped), find zero invariant violations, and prune more than half of
//! the naive state encounters via canonical-fingerprint reconvergence —
//! the partial-order reduction is what keeps the spaces tractable, and
//! the experiment gates on it staying effective. The deterministic
//! coverage counters land in `results/mc_coverage.csv`; wall-clock and
//! machine facts (which are *not* deterministic) go to `BENCH_mc.json`
//! at the workspace root. On a violation the experiment shrinks the
//! counterexample and prints the copy-pasteable `#[test]` reproducer
//! before panicking, mirroring the chaos sweeps' hard-gate behavior.
//!
//! `--quick` explores a single crash-only configuration (still
//! exhaustive within its envelope) and writes `results/mc_quick.csv`,
//! never clobbering the full run's outputs.

use crate::common::{emit_csv, host_json_fields, workspace_root};
use dolbie_core::parallel;
use dolbie_mc::{decision_count, explore, reproducer, shrink, Arch, McConfig, Strategy};
use dolbie_metrics::Table;
use dolbie_simnet::{Crash, FaultPlan, LeaveKind, MembershipSchedule, RetryPolicy};
use std::time::Instant;

/// The bounded wire envelope every configuration uses: a two-attempt
/// retry policy, so drop decisions stay within the delivery guarantee.
fn wire_retry() -> RetryPolicy {
    RetryPolicy::new(0.05, 2.0, 2)
}

/// Configuration (a): master-worker under the full lossy wire envelope.
#[must_use]
pub fn config_mw_lossy() -> McConfig {
    let mut plan =
        FaultPlan::seeded(0xD01B_0002).with_drop_probability(0.2).with_duplicate_probability(0.1);
    plan.retry = wire_retry();
    McConfig::new(Arch::MasterWorker, 3, 3).with_plan(plan)
}

/// Configuration (b): ring with one crash window.
#[must_use]
pub fn config_ring_crash() -> McConfig {
    let mut plan = FaultPlan::seeded(0xD01B_0003).with_crash(Crash {
        worker: 2,
        from_round: 1,
        until_round: 2,
    });
    plan.retry = wire_retry();
    McConfig::new(Arch::Ring, 4, 3).with_plan(plan)
}

/// Configuration (c): fully-distributed with a leave + join epoch pair
/// overlapping a crash window.
#[must_use]
pub fn config_fd_join_crash() -> McConfig {
    let mut plan = FaultPlan::seeded(0xD01B_0004).with_crash(Crash {
        worker: 1,
        from_round: 1,
        until_round: 2,
    });
    plan.retry = wire_retry();
    let schedule = MembershipSchedule::none().with_leave(1, 2, LeaveKind::Graceful).with_join(2, 2);
    McConfig::new(Arch::FullyDistributed, 3, 3).with_plan(plan).with_schedule(schedule)
}

/// The `--quick` configuration: master-worker, N=3, 3 rounds, a single
/// crash window and a lossless wire — a sub-second exhaustive space
/// sized for the tier-1 smoke gate.
#[must_use]
pub fn config_quick() -> McConfig {
    let mut plan = FaultPlan::seeded(0xD01B_0001).with_crash(Crash {
        worker: 1,
        from_round: 1,
        until_round: 2,
    });
    plan.retry = wire_retry();
    McConfig::new(Arch::MasterWorker, 3, 3).with_plan(plan)
}

struct CoverageRow {
    name: &'static str,
    config: McConfig,
    runs: usize,
    states_explored: usize,
    states_pruned: usize,
    max_depth: usize,
    seconds: f64,
}

/// Explores one configuration under BFS (so the wave replays ride the
/// deterministic parallel harness), enforcing the experiment's gates.
/// Panics with a shrunk, copy-pasteable reproducer on any violation.
fn run_config(name: &'static str, config: McConfig) -> CoverageRow {
    println!("  [{name}] {} N={} rounds={} ...", config.arch.name(), config.n, config.rounds);
    let started = Instant::now();
    let ex = explore(&config, Strategy::Bfs);
    let seconds = started.elapsed().as_secs_f64();

    if let Some(v) = ex.violation {
        println!("  FAILURE: {name}: {}", v.message);
        println!("  shrinking to a minimal decision prefix...");
        let minimal = shrink(&config, &v.prefix);
        println!(
            "--- minimal reproducer ({} non-default decision(s)) ---",
            decision_count(&minimal)
        );
        println!("{}", reproducer(&config, &minimal, &v.message));
        panic!("model checker found an invariant violation in {name}");
    }
    assert!(ex.complete, "{name}: exploration tripped max_runs before draining the frontier");
    assert!(
        ex.stats.states_pruned * 2 > ex.stats.naive_states(),
        "{name}: pruning fell below 50% of naive ({} of {})",
        ex.stats.states_pruned,
        ex.stats.naive_states()
    );
    println!(
        "  [{name}] {} runs, {} states explored, {} pruned ({:.1}% of naive), depth {} \
         ({seconds:.2} s)",
        ex.stats.runs,
        ex.stats.states_explored,
        ex.stats.states_pruned,
        100.0 * ex.stats.states_pruned as f64 / ex.stats.naive_states() as f64,
        ex.stats.max_depth,
    );
    CoverageRow {
        name,
        config,
        runs: ex.stats.runs,
        states_explored: ex.stats.states_explored,
        states_pruned: ex.stats.states_pruned,
        max_depth: ex.stats.max_depth,
        seconds,
    }
}

/// The coverage table is deterministic — counters only, no wall-clock —
/// so repeated runs diff clean.
fn emit_coverage_csv(rows: &[CoverageRow], name: &str) {
    let mut table = Table::new(vec![
        "config",
        "arch",
        "n",
        "rounds",
        "runs",
        "states_explored",
        "states_pruned",
        "naive_states",
        "pruned_pct",
        "max_depth",
        "violations",
    ]);
    for row in rows {
        let naive = row.states_explored + row.states_pruned;
        table.push_row(vec![
            row.name.to_string(),
            row.config.arch.name().to_string(),
            row.config.n.to_string(),
            row.config.rounds.to_string(),
            row.runs.to_string(),
            row.states_explored.to_string(),
            row.states_pruned.to_string(),
            naive.to_string(),
            format!("{:.1}", 100.0 * row.states_pruned as f64 / naive as f64),
            row.max_depth.to_string(),
            "0".to_string(),
        ]);
    }
    emit_csv(&table, name);
}

fn write_bench_json(rows: &[CoverageRow]) {
    let path = workspace_root().join("BENCH_mc.json");
    let threads = parallel::threads();
    let mut body = String::from("{\n");
    body.push_str(&host_json_fields());
    body.push_str(&format!("  \"threads\": {threads},\n"));
    body.push_str("  \"configs\": [\n");
    for (i, row) in rows.iter().enumerate() {
        body.push_str(&format!(
            "    {{\"config\": \"{}\", \"arch\": \"{}\", \"n\": {}, \"rounds\": {}, \
             \"runs\": {}, \"states_explored\": {}, \"states_pruned\": {}, \
             \"max_depth\": {}, \"seconds\": {:.3}}}{}\n",
            row.name,
            row.config.arch.name(),
            row.config.n,
            row.config.rounds,
            row.runs,
            row.states_explored,
            row.states_pruned,
            row.max_depth,
            row.seconds,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    body.push_str("  ]\n}\n");
    match std::fs::write(&path, body) {
        Ok(()) => println!("  wrote {}", path.display()),
        Err(e) => eprintln!("  failed to write {}: {e}", path.display()),
    }
}

/// Entry point. Full mode exhaustively verifies the three acceptance
/// configurations and writes `results/mc_coverage.csv` +
/// `BENCH_mc.json`; `--quick` verifies the crash-only smoke
/// configuration and writes `results/mc_quick.csv`.
pub fn mc(quick: bool) {
    if quick {
        println!("== Model checker: quick crash-only exhaustive smoke ==");
        let rows = vec![run_config("mw3x3_crash_quick", config_quick())];
        emit_coverage_csv(&rows, "mc_quick");
        return;
    }
    println!("== Model checker: exhaustive coverage of three fault envelopes ==");
    let rows = vec![
        run_config("mw3x3_drop_dup", config_mw_lossy()),
        run_config("ring4x3_crash", config_ring_crash()),
        run_config("fd3x3_join_crash", config_fd_join_crash()),
    ];
    emit_coverage_csv(&rows, "mc_coverage");
    write_bench_json(&rows);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The quick configuration must stay a sub-second exhaustive space
    /// with working pruning — it gates tier-1 under a 10 s budget.
    #[test]
    fn quick_config_is_small_clean_and_pruned() {
        let ex = explore(&config_quick(), Strategy::Bfs);
        assert!(ex.complete);
        assert!(ex.violation.is_none());
        assert!(ex.stats.states_pruned * 2 > ex.stats.naive_states());
        assert!(ex.stats.runs < 10_000, "quick space grew to {} runs", ex.stats.runs);
    }
}
