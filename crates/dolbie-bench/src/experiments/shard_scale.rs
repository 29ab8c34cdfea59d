//! Experiment X6 (extension): the sharded hierarchical control plane.
//!
//! At `M = 1` one shard-master fans every round through one process:
//! `Θ(N)` frames in, `Θ(N)` frames out on the worker links. Adding
//! shard-masters splits that fan-in, and the root above them sees only
//! shard-level aggregates, so its per-round work is `O(M)` frames
//! regardless of `N`. This sweep measures that claim on real loopback
//! TCP at N = 4096 with M ∈ {1, 4, 16}, recording per-round latency, the
//! root's per-round frame count, and the worker-tier frame count.
//! Latency methodology: one untimed warm-up run, then every scenario
//! measured three times in alternating order with the median-steady rep
//! recorded, and per-round latency taken steady-state (the root's own
//! round timestamps, round 0 excluded — it absorbs worker admission).
//! Results land in `results/shard_scale.csv` and `BENCH_shard.json`
//! (schema mirrors `BENCH_large_n.json`).
//!
//! Every row is also a correctness gate: the trajectory is checked
//! bitwise against the sequential engine before the row is emitted, so
//! the CSV cannot claim latency for a run that diverged. The quick
//! variant (tier-1 smoke) runs the same gates at N = 64 and writes
//! `results/shard_scale_quick.csv`, never clobbering the full
//! measurement.

use crate::common::{emit_csv, run_tree_bitwise, steady_rounds_per_s, workspace_root};
use dolbie_core::parallel;
use dolbie_metrics::Table;
use dolbie_net::env::{EnvKind, WireEnvSpec};
use dolbie_net::shard::ShardedConfig;

const ENV_SEED: u64 = 0xD01B_54A2;

/// One measured configuration: the tree at `shards` shard-masters.
struct Row {
    n: usize,
    shards: usize,
    rounds: usize,
    seconds: f64,
    /// Steady-state per-round latency in ms: the root's per-round
    /// timestamps, first round excluded. Round 0 additionally absorbs the
    /// shard-masters' worker admission (the root's clock starts when the
    /// backbone is up, before the shards have admitted their fleets), so
    /// including it would charge connection setup to the protocol.
    steady_ms_per_round: f64,
    /// Logical backbone frames the root exchanged per round — `O(M)`.
    root_frames_per_round: f64,
    /// Frames on every shard-master's worker links (sent + received) per
    /// round — the `Θ(N)` fan-in the root never sees.
    worker_frames_per_round: f64,
}

impl Row {
    fn per_round_ms(&self) -> f64 {
        self.seconds * 1e3 / self.rounds.max(1) as f64
    }
}

/// The rep with the median steady-state latency — the whole row, so
/// every reported field comes from one coherent run.
fn median_row(mut reps: Vec<Row>) -> Row {
    assert!(!reps.is_empty(), "at least one rep per scenario");
    reps.sort_by(|a, b| {
        a.steady_ms_per_round.partial_cmp(&b.steady_ms_per_round).expect("finite latency")
    });
    let mid = (reps.len() - 1) / 2;
    reps.swap_remove(mid)
}

fn scenario(n: usize, m: usize, rounds: usize) -> Row {
    let env = WireEnvSpec { kind: EnvKind::ChaosMix, seed: ENV_SEED + n as u64 };
    let run = run_tree_bitwise(&ShardedConfig::new(n, m, rounds, env));
    let root_frames: usize = run.root.rounds.iter().map(|r| r.messages).sum();
    let worker_frames: u64 =
        run.shards.iter().map(|s| s.wire.frames_sent + s.wire.frames_received).sum();
    Row {
        n,
        shards: m,
        rounds,
        seconds: run.root.wall_clock,
        steady_ms_per_round: 1e3 / steady_rounds_per_s(&run.root),
        root_frames_per_round: root_frames as f64 / rounds as f64,
        worker_frames_per_round: worker_frames as f64 / rounds as f64,
    }
}

fn write_bench_json(rows: &[Row], quick: bool, reps: usize) {
    let path = if quick {
        let dir = workspace_root().join("results");
        let _ = std::fs::create_dir_all(&dir);
        dir.join("shard_quick.json")
    } else {
        workspace_root().join("BENCH_shard.json")
    };
    let cpu_cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let threads = parallel::threads();
    let mut body = String::from("{\n");
    body.push_str(&format!("  \"cpu_cores\": {cpu_cores},\n"));
    body.push_str(&format!("  \"threads\": {threads},\n"));
    body.push_str(&format!("  \"quick\": {quick},\n"));
    body.push_str(&format!("  \"reps_per_scenario\": {reps},\n"));
    body.push_str("  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        body.push_str(&format!(
            "    {{\"n\": {}, \"shards\": {}, \"rounds\": {}, \"seconds\": {:.3}, \
             \"per_round_ms\": {:.2}, \"steady_ms_per_round\": {:.2}, \
             \"root_frames_per_round\": {:.1}, \"worker_frames_per_round\": {:.1}, \
             \"bitwise_match\": true}}{}\n",
            row.n,
            row.shards,
            row.rounds,
            row.seconds,
            row.per_round_ms(),
            row.steady_ms_per_round,
            row.root_frames_per_round,
            row.worker_frames_per_round,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    body.push_str("  ]\n}\n");
    match std::fs::write(&path, body) {
        Ok(()) => println!("  wrote {}", path.display()),
        Err(e) => eprintln!("  failed to write {}: {e}", path.display()),
    }
    if cpu_cores == 1 {
        eprintln!(
            "  [warn] this machine reports 1 CPU core: shard-masters time-slice one core, so \
             latency gains come from cheaper sweeps, not parallelism"
        );
    }
}

/// Runs the sweep and writes `results/<name>.csv` plus the JSON record.
pub fn shard_scale_named(name: &str, quick: bool) {
    println!("== sharded control-plane sweep ({}) ==", if quick { "quick" } else { "full" });
    let (n, rounds, shard_counts): (usize, usize, &[usize]) =
        if quick { (64, 30, &[1, 4]) } else { (4096, 30, &[1, 4, 16]) };

    // Pair-fair measurement. A single pass (smallest M first, largest M
    // last) would bill the process's first-run costs — allocator growth,
    // page cache, scheduler warm-up — entirely to the first scenario,
    // and any ambient container noise entirely to whichever scenario it
    // landed on. Instead: one untimed warm-up run, then every scenario
    // measured `reps` times in alternating order, each reporting its
    // median-steady rep. The quick smoke keeps a single pass — it gates
    // correctness, not latency.
    let reps = if quick { 1 } else { 3 };
    if !quick {
        let env = WireEnvSpec { kind: EnvKind::ChaosMix, seed: ENV_SEED + n as u64 };
        let _ = run_tree_bitwise(&ShardedConfig::new(n, 1, 3, env));
    }
    let mut per_m: Vec<Vec<Row>> = shard_counts.iter().map(|_| Vec::new()).collect();
    for _ in 0..reps {
        for (j, &m) in shard_counts.iter().enumerate() {
            per_m[j].push(scenario(n, m, rounds));
        }
    }
    let rows: Vec<Row> = per_m.into_iter().map(median_row).collect();

    let mut table = Table::new(vec![
        "n",
        "shards",
        "rounds",
        "wall_clock_s",
        "per_round_ms",
        "steady_ms_per_round",
        "root_frames_per_round",
        "worker_frames_per_round",
        "bitwise_vs_sequential",
    ]);
    for row in &rows {
        table.push_row(vec![
            row.n.to_string(),
            row.shards.to_string(),
            row.rounds.to_string(),
            format!("{:.3}", row.seconds),
            format!("{:.2}", row.per_round_ms()),
            format!("{:.2}", row.steady_ms_per_round),
            format!("{:.1}", row.root_frames_per_round),
            format!("{:.1}", row.worker_frames_per_round),
            "yes".to_string(),
        ]);
        println!(
            "  M={}@N={}: {} rounds in {:.3} s — {:.2} ms/round steady-state \
             ({:.2} ms/round incl. warm-up), {:.1} root frames/round, \
             {:.1} worker-link frames/round, bitwise vs sequential: yes",
            row.shards,
            row.n,
            row.rounds,
            row.seconds,
            row.steady_ms_per_round,
            row.per_round_ms(),
            row.root_frames_per_round,
            row.worker_frames_per_round,
        );
    }
    emit_csv(&table, name);
    write_bench_json(&rows, quick, reps);

    // The headline claim, asserted so the sweep is a gate and not just a
    // printout: the root's fan-in is O(M) — at the largest M it must
    // still sit far below the Θ(N) frame count of the M = 1
    // shard-master's worker links.
    let single = &rows[0];
    let largest = rows.last().expect("at least one row");
    assert!(
        largest.root_frames_per_round * 8.0 < single.worker_frames_per_round,
        "root fan-in ({:.1}/round at M={}) is not clearly below the M = 1 worker tier's \
         ({:.1}/round)",
        largest.root_frames_per_round,
        largest.shards,
        single.worker_frames_per_round,
    );
    println!(
        "  root fan-in at M={}: {:.1} frames/round vs {:.1} on the M = 1 worker links — O(M), \
         not O(N).",
        largest.shards, largest.root_frames_per_round, single.worker_frames_per_round,
    );
}

/// The default entry point: `results/shard_scale.csv` for the full
/// sweep, `results/shard_scale_quick.csv` for the quick smoke.
pub fn shard_scale(quick: bool) {
    if quick {
        shard_scale_named("shard_scale_quick", quick);
    } else {
        shard_scale_named("shard_scale", quick);
    }
}
