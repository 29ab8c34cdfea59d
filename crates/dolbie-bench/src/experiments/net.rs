//! Experiment X4 (extension): the real TCP runtime over loopback.
//!
//! Runs the `dolbie-net` master-worker runtime — the `M = 1` tree, real
//! sockets, real wire bytes — in three scenarios and writes
//! `results/net_loopback.csv`:
//!
//! - `lossless_n4` and `lossless_n16`: clean loopback links; the
//!   trajectory must be **bitwise identical** to the sequential engine
//!   (the experiment aborts on the first diverging bit, making the CSV a
//!   regression gate, not just a measurement);
//! - `lossy_n4`: a seeded socket-level fault plan (drops, duplicates,
//!   ack losses) with real retransmission timers; loss only delays
//!   frames, so the trajectory is *still* bitwise the sequential one —
//!   what changes is the wire bill, which the CSV records.
//!
//! Columns: logical protocol messages vs actual frames on the worker
//! links vs bytes, plus retransmissions/acks/duplicates and wall-clock
//! throughput over the shard-master's clock, which starts when worker
//! admission ends; then the root's logical backbone frames and its time
//! to round 0's commit, admission included. Wall-clock columns vary run
//! to run (they measure this machine), and the lossy row's wire counters
//! can drift by a frame or two between runs (an ack racing its
//! retransmission timer is real-time, not simulated) — the *trajectory*
//! stays bitwise pinned regardless; the lossless rows are fully
//! deterministic.

use crate::common::{emit_csv, run_tree_bitwise};
use dolbie_metrics::Table;
use dolbie_net::env::{EnvKind, WireEnvSpec};
use dolbie_net::shard::ShardedConfig;
use dolbie_simnet::faults::{FaultPlan, RetryPolicy};

const ENV_SEED: u64 = 0xD01B_0E75;
const FULL_ROUNDS: usize = 500;
const QUICK_ROUNDS: usize = 60;

fn scenario(table: &mut Table, name: &str, n: usize, rounds: usize, fault: FaultPlan) {
    let env = WireEnvSpec { kind: EnvKind::ChaosMix, seed: ENV_SEED + n as u64 };
    let run = run_tree_bitwise(&ShardedConfig::new(n, 1, rounds, env).with_fault_plan(fault));
    let shard = &run.shards[0];
    let logical: usize = shard.rounds.iter().map(|r| r.messages).sum();
    let backbone: usize = run.root.rounds.iter().map(|r| r.messages).sum();
    let wire = &shard.wire;
    let wall = shard.wall_clock;
    let first = run.root.rounds[0].elapsed;
    let rate = rounds as f64 / wall.max(1e-9);
    table.push_row(vec![
        name.to_string(),
        n.to_string(),
        rounds.to_string(),
        logical.to_string(),
        wire.frames_sent.to_string(),
        wire.bytes_sent.to_string(),
        wire.retransmissions.to_string(),
        wire.acks.to_string(),
        wire.duplicates.to_string(),
        format!("{wall:.3}"),
        format!("{rate:.1}"),
        "yes".to_string(),
        backbone.to_string(),
        format!("{first:.3}"),
    ]);
    println!(
        "  {name}: {rounds} rounds, {logical} logical messages as {} frames / {} bytes \
         ({} retransmissions), {rate:.1} rounds/s, {backbone} backbone frames, bitwise vs \
         sequential: yes",
        wire.frames_sent, wire.bytes_sent, wire.retransmissions,
    );
}

/// Runs the loopback scenarios and writes `results/<name>.csv`.
pub fn net_named(name: &str, quick: bool) {
    let rounds = if quick { QUICK_ROUNDS } else { FULL_ROUNDS };
    println!("== Real TCP runtime over loopback: {rounds} rounds per scenario ==");
    let mut table = Table::new(vec![
        "scenario",
        "n",
        "rounds",
        "logical_messages",
        "wire_frames",
        "wire_bytes",
        "retransmissions",
        "acks",
        "duplicates",
        "wall_clock_s",
        "rounds_per_s",
        "bitwise_vs_sequential",
        "backbone_frames",
        "first_round_s",
    ]);
    scenario(&mut table, "lossless_n4", 4, rounds, FaultPlan::none());
    scenario(&mut table, "lossless_n16", 16, rounds, FaultPlan::none());
    // The plan's probabilities/seed ship in `Welcome`; its retry pacing,
    // tightened for a brisk run, drives both link directions.
    let plan = FaultPlan::seeded(0xBE)
        .with_drop_probability(0.10)
        .with_duplicate_probability(0.05)
        .with_retry(RetryPolicy::new(0.01, 1.5, 6));
    scenario(&mut table, "lossy_n4", 4, rounds.min(QUICK_ROUNDS), plan);
    emit_csv(&table, name);
    println!("  every scenario held bitwise parity with the sequential engine.");
}

/// The default entry point: writes `results/net_loopback.csv`.
pub fn net(quick: bool) {
    net_named("net_loopback", quick);
}
