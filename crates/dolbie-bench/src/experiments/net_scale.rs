//! Experiment X5 (extension): how the TCP runtime scales with fleet size.
//!
//! Runs real loopback fleets at N ∈ {256, 1024, 4096} under the `M = 1`
//! tree — one shard-master over the whole fleet — and writes rounds/s
//! and bytes/s per configuration to `results/net_scale.csv`. The rates
//! divide by the shard-master's wall clock, which starts when worker
//! admission ends; `first_round_s` is the root's time to round 0's
//! commit, admission included. The quick variant used by the tier-1
//! smoke runs smaller fleets and writes `results/net_scale_quick.csv`,
//! so a smoke run never clobbers the full measurement.
//!
//! Every row is also a correctness gate: the trajectory at every size is
//! checked bitwise against the sequential engine before the row is
//! emitted, so the CSV cannot claim throughput for a run that diverged.
//! Throughput columns measure this machine and vary run to run; the
//! trajectory does not.

use crate::common::{emit_csv, run_tree_bitwise};
use dolbie_metrics::Table;
use dolbie_net::env::{EnvKind, WireEnvSpec};
use dolbie_net::shard::ShardedConfig;

const ENV_SEED: u64 = 0xD01B_5CA1;

/// One fleet at one size, gated bitwise against the sequential engine.
fn scenario(table: &mut Table, n: usize, rounds: usize) {
    let env = WireEnvSpec { kind: EnvKind::ChaosMix, seed: ENV_SEED + n as u64 };
    let run = run_tree_bitwise(&ShardedConfig::new(n, 1, rounds, env));
    let shard = &run.shards[0];
    let logical: usize = shard.rounds.iter().map(|r| r.messages).sum();
    let wire = &shard.wire;
    let wall = shard.wall_clock;
    let first = run.root.rounds[0].elapsed;
    let bytes = wire.bytes_sent + wire.bytes_received;
    let rounds_per_s = rounds as f64 / wall.max(1e-9);
    let bytes_per_s = bytes as f64 / wall.max(1e-9);
    table.push_row(vec![
        "m1-tree".to_string(),
        n.to_string(),
        rounds.to_string(),
        logical.to_string(),
        wire.frames_sent.to_string(),
        bytes.to_string(),
        format!("{wall:.3}"),
        format!("{rounds_per_s:.1}"),
        format!("{bytes_per_s:.0}"),
        "yes".to_string(),
        format!("{first:.3}"),
    ]);
    println!(
        "  m1-tree@N={n}: {rounds} rounds in {wall:.3} s — {rounds_per_s:.1} rounds/s, \
         {bytes_per_s:.0} wire bytes/s ({first:.3} s to the first commit), bitwise vs \
         sequential: yes",
    );
}

/// Runs the scaling sweep and writes `results/<name>.csv`.
pub fn net_scale_named(name: &str, quick: bool) {
    println!(
        "== TCP runtime scaling sweep, M = 1 tree ({}) ==",
        if quick { "quick" } else { "full" }
    );
    let mut table = Table::new(vec![
        "master",
        "n",
        "rounds",
        "logical_messages",
        "wire_frames",
        "wire_bytes",
        "wall_clock_s",
        "rounds_per_s",
        "bytes_per_s",
        "bitwise_vs_sequential",
        "first_round_s",
    ]);
    let sizes: &[(usize, usize)] =
        if quick { &[(64, 20), (256, 10)] } else { &[(256, 60), (1024, 30), (4096, 10)] };
    for &(n, rounds) in sizes {
        scenario(&mut table, n, rounds);
    }
    emit_csv(&table, name);
    println!("  every fleet held bitwise parity with the sequential engine.");
}

/// The default entry point: `results/net_scale.csv` for the full sweep,
/// `results/net_scale_quick.csv` for the quick smoke.
pub fn net_scale(quick: bool) {
    if quick {
        net_scale_named("net_scale_quick", quick);
    } else {
        net_scale_named("net_scale", quick);
    }
}
