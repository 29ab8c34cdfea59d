//! Experiment X4 (extension): the TCP sweep — the real runtime over
//! loopback on one (N, M, loss) grid.
//!
//! Every cell runs the `dolbie-net` tree: a root, `M` shard-masters and
//! `N` worker threads, every byte through the kernel's loopback
//! interface. The paper's flat master is the `M = 1` tree. Each cell is
//! a correctness gate before it is a measurement: its trajectory must be
//! **bitwise** the sequential engine's over the whole horizon, with no
//! worker lost ([`run_tree_bitwise`]), and its shard-masters must count
//! exactly `4N` logical worker messages a round, or the sweep aborts.
//! The grid is the union of three families, each with its own
//! environment seed (plus `N`):
//!
//! - `loopback` (`0xD01B_0E75`): N = 4 and 16 on clean links, and N = 4
//!   under a seeded socket-level fault plan (drops, duplicates, ack
//!   losses, real retransmission timers). Loss only delays frames, so
//!   the trajectory stays bitwise; the wire bill is what changes.
//! - `scale` (`0xD01B_5CA1`): fleets to N = 4096 under one shard-master.
//! - `shards` (`0xD01B_54A2`): one N at several M. The root sees only
//!   shard-level aggregates, so its fan-in is `O(M)` frames a round while
//!   the worker links carry `Θ(N)`. At every `M > 1` the sweep asserts
//!   that the root's frames a round, times 8, stay below the worker-link
//!   frames a round of the `M = 1` cell at the same N.
//!
//! The full `shards` cells are the latency measurement: one untimed
//! warm-up run, then three reps in alternating order, each cell keeping
//! its rep with the median steady-state latency (the root's round
//! stamps, round 0 excluded because it absorbs worker admission).
//!
//! A full run writes `results/tcp_sweep.csv` and `BENCH_shard.json`
//! (schema mirrors `BENCH_large_n.json`). A quick run (the tier-1 smoke)
//! runs smaller fleets and writes `results/tcp_sweep_quick.csv` and
//! `results/shard_quick.json`, never touching the full measurement.
//!
//! One CSV row per cell. The wire counters sum every shard-master's
//! worker links, with frames and bytes sent and received kept apart;
//! `backbone_frames` counts the root's logical frames. The shard wall
//! clock (the slowest shard-master's) starts when worker admission ends;
//! the root's wall clock and `first_round_s`, its time to round 0's
//! commit, include admission. Timing columns measure this machine and
//! vary run to run, and the lossy row's wire counters can drift by a
//! frame or two between runs (an ack racing its retransmission timer is
//! real time, not simulated). The lossless counters are deterministic.

use crate::common::{
    artifact, emit_csv, results_dir, run_tree_bitwise, steady_rounds_per_s, workspace_root,
};
use dolbie_core::parallel;
use dolbie_metrics::Table;
use dolbie_net::env::{EnvKind, WireEnvSpec};
use dolbie_net::shard::ShardedConfig;
use dolbie_net::transport::WireStats;
use dolbie_simnet::faults::{FaultPlan, RetryPolicy};

/// Which measurement a cell belongs to: its CSV name and its
/// environment seed (plus `N`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Family(&'static str, u64);

const LOOPBACK: Family = Family("loopback", 0xD01B_0E75);
const SCALE: Family = Family("scale", 0xD01B_5CA1);
const SHARDS: Family = Family("shards", 0xD01B_54A2);

/// One grid cell.
#[derive(Debug, Clone, Copy)]
struct Cell {
    family: Family,
    n: usize,
    shards: usize,
    rounds: usize,
    /// Whether the worker links run the seeded fault plan.
    lossy: bool,
}

const fn cell(family: Family, n: usize, shards: usize, rounds: usize, lossy: bool) -> Cell {
    Cell { family, n, shards, rounds, lossy }
}

const FULL: [Cell; 9] = [
    cell(LOOPBACK, 4, 1, 500, false),
    cell(LOOPBACK, 16, 1, 500, false),
    cell(LOOPBACK, 4, 1, 60, true),
    cell(SCALE, 256, 1, 60, false),
    cell(SCALE, 1024, 1, 30, false),
    cell(SCALE, 4096, 1, 10, false),
    cell(SHARDS, 4096, 1, 30, false),
    cell(SHARDS, 4096, 4, 30, false),
    cell(SHARDS, 4096, 16, 30, false),
];

const QUICK: [Cell; 7] = [
    cell(LOOPBACK, 4, 1, 60, false),
    cell(LOOPBACK, 16, 1, 60, false),
    cell(LOOPBACK, 4, 1, 60, true),
    cell(SCALE, 64, 1, 20, false),
    cell(SCALE, 256, 1, 10, false),
    cell(SHARDS, 64, 1, 30, false),
    cell(SHARDS, 64, 4, 30, false),
];

/// Reps of each full `shards` cell (every other cell runs once).
const LATENCY_REPS: usize = 3;

/// One measured run of a cell.
struct Row {
    cell: Cell,
    /// Logical worker-protocol messages, summed over the shard-masters.
    logical: usize,
    /// Every shard-master's worker links, summed.
    wire: WireStats,
    /// The root's logical backbone frames.
    backbone: usize,
    shard_wall: f64,
    root_wall: f64,
    first_round: f64,
    steady_ms: f64,
}

impl Row {
    fn per_round(&self, count: f64) -> f64 {
        count / self.cell.rounds as f64
    }

    fn root_frames_per_round(&self) -> f64 {
        self.per_round(self.backbone as f64)
    }

    fn worker_frames_per_round(&self) -> f64 {
        self.per_round((self.wire.frames_sent + self.wire.frames_received) as f64)
    }
}

fn measure(cell: Cell) -> Row {
    let Cell { family, n, shards: m, rounds, lossy } = cell;
    let env = WireEnvSpec { kind: EnvKind::ChaosMix, seed: family.1 + n as u64 };
    let mut cfg = ShardedConfig::new(n, m, rounds, env);
    if lossy {
        // The plan's probabilities and seed ship in `Welcome`; its retry
        // pacing, tightened for a brisk run, drives both link directions.
        cfg = cfg.with_fault_plan(
            FaultPlan::seeded(0xBE)
                .with_drop_probability(0.10)
                .with_duplicate_probability(0.05)
                .with_retry(RetryPolicy::new(0.01, 1.5, 6)),
        );
    }
    let run = run_tree_bitwise(&cfg);
    let mut wire = WireStats::default();
    for shard in &run.shards {
        wire.absorb(&shard.wire);
    }
    let logical = run.shards.iter().flat_map(|s| &s.rounds).map(|r| r.messages).sum();
    assert_eq!(logical, 4 * n * rounds, "N = {n}, M = {m}: logical worker messages");
    Row {
        cell,
        logical,
        wire,
        backbone: run.root.rounds.iter().map(|r| r.messages).sum(),
        shard_wall: run.shards.iter().map(|s| s.wall_clock).fold(0.0, f64::max),
        root_wall: run.root.wall_clock,
        first_round: run.root.rounds[0].elapsed,
        steady_ms: 1e3 / steady_rounds_per_s(&run.root),
    }
}

/// The rep with the median steady-state latency — the whole row, so
/// every reported field comes from one coherent run.
fn median_row(mut reps: Vec<Row>) -> Row {
    reps.sort_by(|a, b| a.steady_ms.total_cmp(&b.steady_ms));
    let mid = (reps.len() - 1) / 2;
    reps.swap_remove(mid)
}

fn write_bench_json(rows: &[&Row], quick: bool, reps: usize) {
    let path = if quick {
        results_dir().join("shard_quick.json")
    } else {
        workspace_root().join("BENCH_shard.json")
    };
    let cpu_cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let mut body = String::from("{\n");
    body.push_str(&format!("  \"cpu_cores\": {cpu_cores},\n"));
    body.push_str(&format!("  \"threads\": {},\n", parallel::threads()));
    body.push_str(&format!("  \"quick\": {quick},\n"));
    body.push_str(&format!("  \"reps_per_scenario\": {reps},\n"));
    body.push_str("  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let Cell { n, shards: m, rounds, .. } = row.cell;
        body.push_str(&format!(
            "    {{\"n\": {n}, \"shards\": {m}, \"rounds\": {rounds}, \"seconds\": {:.3}, \
             \"per_round_ms\": {:.2}, \"steady_ms_per_round\": {:.2}, \
             \"root_frames_per_round\": {:.1}, \"worker_frames_per_round\": {:.1}, \
             \"bitwise_match\": true}}{}\n",
            row.root_wall,
            row.per_round(row.root_wall * 1e3),
            row.steady_ms,
            row.root_frames_per_round(),
            row.worker_frames_per_round(),
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    body.push_str("  ]\n}\n");
    match std::fs::write(&path, body) {
        Ok(()) => println!("  wrote {}", path.display()),
        Err(e) => eprintln!("  failed to write {}: {e}", path.display()),
    }
}

/// Runs the sweep: `results/tcp_sweep.csv` and `BENCH_shard.json` for
/// the full grid, `results/tcp_sweep_quick.csv` and
/// `results/shard_quick.json` for the quick one.
pub fn tcp(quick: bool) {
    println!("== TCP sweep over loopback ({}) ==", if quick { "quick" } else { "full" });
    let cells: &[Cell] = if quick { &QUICK } else { &FULL };
    // Pair-fair latency. A single pass would bill the process's
    // first-run costs (allocator growth, page cache, scheduler warm-up)
    // to the first latency cell, and ambient noise to whichever cell it
    // landed on. So one untimed warm-up run, then the latency cells
    // measured in alternating order, each keeping its median rep. The
    // quick smoke gates correctness, not latency: one pass.
    let reps = if quick { 1 } else { LATENCY_REPS };
    let reps_of = |c: &Cell| if c.family == SHARDS { reps } else { 1 };
    if let Some(&first) = cells.iter().find(|c| reps_of(c) > 1) {
        let _ = measure(Cell { rounds: 3, ..first });
    }
    let mut runs: Vec<Vec<Row>> = cells.iter().map(|_| Vec::new()).collect();
    for rep in 0..reps {
        for (&c, out) in cells.iter().zip(&mut runs) {
            if rep < reps_of(&c) {
                out.push(measure(c));
            }
        }
    }
    let rows: Vec<Row> = runs.into_iter().map(median_row).collect();

    let mut table = Table::new(vec![
        "family",
        "n",
        "shards",
        "rounds",
        "loss",
        "logical_messages",
        "frames_sent",
        "frames_received",
        "bytes_sent",
        "bytes_received",
        "retransmissions",
        "acks",
        "duplicates",
        "backbone_frames",
        "shard_wall_clock_s",
        "root_wall_clock_s",
        "first_round_s",
        "steady_ms_per_round",
        "reps",
        "bitwise_vs_sequential",
    ]);
    for row in &rows {
        let Cell { family, n, shards: m, rounds, lossy } = row.cell;
        let wire = &row.wire;
        table.push_row(vec![
            family.0.to_string(),
            n.to_string(),
            m.to_string(),
            rounds.to_string(),
            if lossy { "lossy" } else { "lossless" }.to_string(),
            row.logical.to_string(),
            wire.frames_sent.to_string(),
            wire.frames_received.to_string(),
            wire.bytes_sent.to_string(),
            wire.bytes_received.to_string(),
            wire.retransmissions.to_string(),
            wire.acks.to_string(),
            wire.duplicates.to_string(),
            row.backbone.to_string(),
            format!("{:.3}", row.shard_wall),
            format!("{:.3}", row.root_wall),
            format!("{:.3}", row.first_round),
            format!("{:.2}", row.steady_ms),
            reps_of(&row.cell).to_string(),
            "yes".to_string(),
        ]);
        println!(
            "  {}@N={n},M={m}{}: {rounds} rounds, {} logical messages as {} + {} frames \
             ({} retransmissions), {:.2} ms/round steady, {:.1} root frames/round, bitwise vs \
             sequential: yes",
            family.0,
            if lossy { ",lossy" } else { "" },
            row.logical,
            wire.frames_sent,
            wire.frames_received,
            wire.retransmissions,
            row.steady_ms,
            row.root_frames_per_round(),
        );
    }
    emit_csv(&table, &artifact("tcp_sweep", quick));
    let latency: Vec<&Row> = rows.iter().filter(|r| r.cell.family == SHARDS).collect();
    write_bench_json(&latency, quick, reps);

    // The headline claim, asserted so the sweep is a gate and not just a
    // printout: the root's fan-in is O(M), far below the Θ(N) frames of
    // the M = 1 shard-master's worker links at the same N.
    for row in rows.iter().filter(|r| r.cell.shards > 1) {
        let Cell { family, n, shards: m, .. } = row.cell;
        let single = rows
            .iter()
            .find(|f| f.cell.family == family && f.cell.n == n && f.cell.shards == 1)
            .expect("every M > 1 cell has an M = 1 cell at its N");
        assert!(
            row.root_frames_per_round() * 8.0 < single.worker_frames_per_round(),
            "root fan-in ({:.1}/round at M = {m}, N = {n}) is not clearly below the M = 1 \
             worker tier's ({:.1}/round)",
            row.root_frames_per_round(),
            single.worker_frames_per_round(),
        );
        println!(
            "  root fan-in at M={m}, N={n}: {:.1} frames/round vs {:.1} on the M = 1 worker \
             links — O(M), not O(N).",
            row.root_frames_per_round(),
            single.worker_frames_per_round(),
        );
    }
}
