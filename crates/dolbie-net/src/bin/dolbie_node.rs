//! `dolbie_node` — run one DOLBIE node role over real TCP.
//!
//! ```text
//! dolbie_node master --listen 127.0.0.1:4100 --workers 4 [--rounds 500]
//!                    [--env-seed 7] [--env chaos|ramp] [--drop-p 0.1]
//!                    [--dup-p 0.05] [--fault-seed 21] [--verify]
//! dolbie_node worker --connect 127.0.0.1:4100
//! dolbie_node root   --listen 127.0.0.1:4200 --shards 4 --workers 64
//!                    [--rounds 500] [--env chaos|ramp] [--env-seed 7]
//!                    [--drop-p 0.1] [--dup-p 0.05] [--fault-seed 21]
//!                    [--bb-drop-p 0.1] [--bb-dup-p 0.05] [--bb-seed 33]
//!                    [--min-live-shards 1]
//! dolbie_node shard  --connect 127.0.0.1:4200 --listen 127.0.0.1:4301
//!                    --shard 1 --shards 4
//!                    [--bb-drop-p 0.1] [--bb-dup-p 0.05] [--bb-seed 33]
//! ```
//!
//! The master is the `M = 1` tree in one process: the root and its single
//! shard-master on two threads joined by an in-process backbone socket.
//! It prints `listening on <addr>` once bound (with the resolved port
//! when `--listen` named port 0), accepts exactly `--workers`
//! connections (at least two), runs the horizon, and prints a per-run
//! summary. With `--verify` it replays the same environment through the
//! sequential engine and exits 1 unless the TCP trajectory is bitwise
//! identical. Malformed flags exit 2 with a message naming the flag and
//! value.
//!
//! The sharded control plane is three processes deep: one `root`
//! coordinating `--shards` shard-masters, each `shard` a real TCP master
//! over its contiguous worker range (workers point their `--connect` at
//! their shard, not the root). Fault flags live on the root; they ship
//! to every shard-master in `ShardWelcome`.

use dolbie_core::{run_episode, Dolbie, DolbieConfig, EpisodeOptions};
use dolbie_net::env::{EnvKind, WireEnvSpec};
use dolbie_net::shard::{
    run_root, run_shard_master, run_single_shard, stitch_allocations, ShardMasterOptions,
    ShardedConfig,
};
use dolbie_net::transport::{connect_with_backoff, DEFAULT_FRAME_TIMEOUT};
use dolbie_net::worker::{run_worker, WorkerOptions};
use dolbie_simnet::faults::FaultPlan;
use std::net::{SocketAddr, TcpListener};
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage:\n  dolbie_node master --listen ADDR --workers N [--rounds T] [--env chaos|ramp]\n\
         \x20                  [--env-seed S] [--drop-p P] [--dup-p P] [--fault-seed S] [--verify]\n\
         \x20 dolbie_node worker --connect ADDR\n\
         \x20 dolbie_node root   --listen ADDR --shards M --workers N [--rounds T]\n\
         \x20                  [--env chaos|ramp] [--env-seed S] [--drop-p P] [--dup-p P]\n\
         \x20                  [--fault-seed S] [--bb-drop-p P] [--bb-dup-p P] [--bb-seed S]\n\
         \x20                  [--min-live-shards Q]\n\
         \x20 dolbie_node shard  --connect ROOT --listen ADDR --shard K --shards M\n\
         \x20                  [--bb-drop-p P] [--bb-dup-p P] [--bb-seed S]"
    );
    std::process::exit(2);
}

fn bad(flag: &str, value: &str, expected: &str) -> ! {
    eprintln!("error: invalid value '{value}' for {flag}: expected {expected}");
    std::process::exit(2);
}

fn take_value(flag: &str, it: &mut std::env::Args) -> String {
    it.next().unwrap_or_else(|| {
        eprintln!("error: {flag} requires a value");
        std::process::exit(2);
    })
}

fn parse_addr(flag: &str, value: &str) -> SocketAddr {
    value.parse().unwrap_or_else(|_| bad(flag, value, "a socket address like 127.0.0.1:4100"))
}

fn parse_usize(flag: &str, value: &str, min: usize) -> usize {
    match value.parse::<usize>() {
        Ok(v) if v >= min => v,
        _ => bad(flag, value, &format!("an integer >= {min}")),
    }
}

fn parse_prob(flag: &str, value: &str) -> f64 {
    match value.parse::<f64>() {
        Ok(p) if (0.0..1.0).contains(&p) => p,
        _ => bad(flag, value, "a probability in [0, 1)"),
    }
}

fn parse_u64(flag: &str, value: &str) -> u64 {
    value.parse().unwrap_or_else(|_| bad(flag, value, "an unsigned integer"))
}

fn main() {
    let mut args = std::env::args();
    let _ = args.next();
    match args.next().as_deref() {
        Some("master") => master_main(args),
        Some("worker") => worker_main(args),
        Some("root") => root_main(args),
        Some("shard") => shard_main(args),
        _ => usage(),
    }
}

fn master_main(mut args: std::env::Args) {
    let mut listen: Option<SocketAddr> = None;
    let mut workers: Option<usize> = None;
    let mut rounds = 500usize;
    let mut env_kind = EnvKind::ChaosMix;
    let mut env_seed = 7u64;
    let mut drop_p = 0.0;
    let mut dup_p = 0.0;
    let mut fault_seed = 0u64;
    let mut verify = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--listen" => listen = Some(parse_addr("--listen", &take_value("--listen", &mut args))),
            "--workers" => {
                workers = Some(parse_usize("--workers", &take_value("--workers", &mut args), 2))
            }
            "--rounds" => rounds = parse_usize("--rounds", &take_value("--rounds", &mut args), 1),
            "--env" => {
                let value = take_value("--env", &mut args);
                env_kind = match value.as_str() {
                    "chaos" => EnvKind::ChaosMix,
                    "ramp" => EnvKind::StaticRamp,
                    _ => bad("--env", &value, "'chaos' or 'ramp'"),
                };
            }
            "--env-seed" => {
                env_seed = parse_u64("--env-seed", &take_value("--env-seed", &mut args))
            }
            "--drop-p" => drop_p = parse_prob("--drop-p", &take_value("--drop-p", &mut args)),
            "--dup-p" => dup_p = parse_prob("--dup-p", &take_value("--dup-p", &mut args)),
            "--fault-seed" => {
                fault_seed = parse_u64("--fault-seed", &take_value("--fault-seed", &mut args))
            }
            "--verify" => verify = true,
            other => {
                eprintln!("error: unknown flag '{other}' for dolbie_node master");
                std::process::exit(2);
            }
        }
    }
    let (Some(listen), Some(workers)) = (listen, workers) else { usage() };

    let env = WireEnvSpec { kind: env_kind, seed: env_seed };
    let mut fault = FaultPlan::seeded(fault_seed);
    if drop_p > 0.0 {
        fault = fault.with_drop_probability(drop_p);
    }
    if dup_p > 0.0 {
        fault = fault.with_duplicate_probability(dup_p);
    }
    let cfg = ShardedConfig::new(workers, 1, rounds, env).with_fault_plan(fault);

    let listener = TcpListener::bind(listen).unwrap_or_else(|e| {
        eprintln!("error: cannot listen on {listen}: {e}");
        std::process::exit(1);
    });
    let local = listener.local_addr().expect("bound listener has an address");
    println!("listening on {local}");

    let (root, shard) = run_single_shard(&listener, &cfg).unwrap_or_else(|e| {
        eprintln!("error: master run failed: {e}");
        std::process::exit(1);
    });
    println!(
        "completed {} rounds over {} workers in {:.3} s ({:.0} rounds/s)",
        root.rounds.len(),
        workers,
        root.wall_clock,
        root.rounds.len() as f64 / root.wall_clock.max(1e-9),
    );
    println!(
        "wire: {} frames / {} bytes sent, {} frames / {} bytes received, \
         {} retransmissions, {} duplicates, {} acks",
        shard.wire.frames_sent,
        shard.wire.bytes_sent,
        shard.wire.frames_received,
        shard.wire.bytes_received,
        shard.wire.retransmissions,
        shard.wire.duplicates,
        shard.wire.acks,
    );
    println!("epochs crossed: {}", root.epochs.len());
    let allocations = stitch_allocations(&root, std::slice::from_ref(&shard));
    let last = allocations.last().expect("stitching yields a final entry");
    let shares: Vec<String> = last.iter().map(|x| format!("{x:.4}")).collect();
    println!("final allocation: [{}]", shares.join(", "));

    if verify {
        if !root.epochs.is_empty() {
            eprintln!("verify: skipped — membership changed mid-run, no sequential twin exists");
            std::process::exit(1);
        }
        let mut sequential =
            Dolbie::with_config(dolbie_core::Allocation::uniform(workers), DolbieConfig::new());
        let mut driver = env.environment(workers);
        let reference = run_episode(&mut sequential, &mut driver, EpisodeOptions::new(rounds));
        for (t, played) in allocations.iter().take(rounds).enumerate() {
            for (i, x) in played.iter().enumerate() {
                let net = x.to_bits();
                let seq = reference.records[t].allocation.share(i).to_bits();
                if net != seq {
                    eprintln!(
                        "verify: FAILED at round {t}, worker {i}: net {net:#018x} != sequential {seq:#018x}"
                    );
                    std::process::exit(1);
                }
            }
        }
        println!("verify: OK — {rounds} rounds bitwise identical to the sequential engine");
    }
}

fn root_main(mut args: std::env::Args) {
    let mut listen: Option<SocketAddr> = None;
    let mut shards: Option<usize> = None;
    let mut workers: Option<usize> = None;
    let mut rounds = 500usize;
    let mut env_kind = EnvKind::ChaosMix;
    let mut env_seed = 7u64;
    let mut drop_p = 0.0;
    let mut dup_p = 0.0;
    let mut fault_seed = 0u64;
    let mut bb_drop_p = 0.0;
    let mut bb_dup_p = 0.0;
    let mut bb_seed = 0u64;
    let mut min_live_shards = 1usize;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--listen" => listen = Some(parse_addr("--listen", &take_value("--listen", &mut args))),
            "--shards" => {
                shards = Some(parse_usize("--shards", &take_value("--shards", &mut args), 1))
            }
            "--workers" => {
                workers = Some(parse_usize("--workers", &take_value("--workers", &mut args), 2))
            }
            "--rounds" => rounds = parse_usize("--rounds", &take_value("--rounds", &mut args), 1),
            "--env" => {
                let value = take_value("--env", &mut args);
                env_kind = match value.as_str() {
                    "chaos" => EnvKind::ChaosMix,
                    "ramp" => EnvKind::StaticRamp,
                    _ => bad("--env", &value, "'chaos' or 'ramp'"),
                };
            }
            "--env-seed" => {
                env_seed = parse_u64("--env-seed", &take_value("--env-seed", &mut args))
            }
            "--drop-p" => drop_p = parse_prob("--drop-p", &take_value("--drop-p", &mut args)),
            "--dup-p" => dup_p = parse_prob("--dup-p", &take_value("--dup-p", &mut args)),
            "--fault-seed" => {
                fault_seed = parse_u64("--fault-seed", &take_value("--fault-seed", &mut args))
            }
            "--bb-drop-p" => {
                bb_drop_p = parse_prob("--bb-drop-p", &take_value("--bb-drop-p", &mut args))
            }
            "--bb-dup-p" => {
                bb_dup_p = parse_prob("--bb-dup-p", &take_value("--bb-dup-p", &mut args))
            }
            "--bb-seed" => bb_seed = parse_u64("--bb-seed", &take_value("--bb-seed", &mut args)),
            "--min-live-shards" => {
                min_live_shards =
                    parse_usize("--min-live-shards", &take_value("--min-live-shards", &mut args), 1)
            }
            other => {
                eprintln!("error: unknown flag '{other}' for dolbie_node root");
                std::process::exit(2);
            }
        }
    }
    let (Some(listen), Some(shards), Some(workers)) = (listen, shards, workers) else { usage() };
    if shards > workers {
        eprintln!("error: --shards {shards} exceeds --workers {workers}");
        std::process::exit(2);
    }
    if min_live_shards > shards {
        eprintln!("error: --min-live-shards {min_live_shards} exceeds --shards {shards}");
        std::process::exit(2);
    }

    let env = WireEnvSpec { kind: env_kind, seed: env_seed };
    let mut fault = FaultPlan::seeded(fault_seed);
    if drop_p > 0.0 {
        fault = fault.with_drop_probability(drop_p);
    }
    if dup_p > 0.0 {
        fault = fault.with_duplicate_probability(dup_p);
    }
    let mut backbone_fault = FaultPlan::seeded(bb_seed);
    if bb_drop_p > 0.0 {
        backbone_fault = backbone_fault.with_drop_probability(bb_drop_p);
    }
    if bb_dup_p > 0.0 {
        backbone_fault = backbone_fault.with_duplicate_probability(bb_dup_p);
    }
    let cfg = ShardedConfig::new(workers, shards, rounds, env)
        .with_fault_plan(fault)
        .with_backbone_fault_plan(backbone_fault)
        .with_min_live_shards(min_live_shards);

    let listener = TcpListener::bind(listen).unwrap_or_else(|e| {
        eprintln!("error: cannot listen on {listen}: {e}");
        std::process::exit(1);
    });
    let local = listener.local_addr().expect("bound listener has an address");
    println!("root listening on {local}, awaiting {shards} shard-masters");

    let report = run_root(&listener, &cfg).unwrap_or_else(|e| {
        eprintln!("error: root run failed: {e}");
        std::process::exit(1);
    });
    let messages: usize = report.rounds.iter().map(|r| r.messages).sum();
    println!(
        "root completed {} rounds over {} shards ({} workers) in {:.3} s ({:.0} rounds/s)",
        report.rounds.len(),
        shards,
        workers,
        report.wall_clock,
        report.rounds.len() as f64 / report.wall_clock.max(1e-9),
    );
    println!(
        "backbone: {} logical frames ({:.1}/round — O(M), not O(N)), {} bytes sent, {} bytes received",
        messages,
        messages as f64 / report.rounds.len().max(1) as f64,
        report.wire.bytes_sent,
        report.wire.bytes_received,
    );
    if !report.epochs.is_empty() {
        println!(
            "membership epochs crossed: {} (dead shard-masters, in burial order: {:?})",
            report.epochs.len(),
            report.dead_shards,
        );
    }
}

fn shard_main(mut args: std::env::Args) {
    let mut connect: Option<SocketAddr> = None;
    let mut listen: Option<SocketAddr> = None;
    let mut shard: Option<usize> = None;
    let mut shards: Option<usize> = None;
    let mut bb_drop_p = 0.0;
    let mut bb_dup_p = 0.0;
    let mut bb_seed = 0u64;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--connect" => {
                connect = Some(parse_addr("--connect", &take_value("--connect", &mut args)))
            }
            "--listen" => listen = Some(parse_addr("--listen", &take_value("--listen", &mut args))),
            "--shard" => shard = Some(parse_usize("--shard", &take_value("--shard", &mut args), 0)),
            "--shards" => {
                shards = Some(parse_usize("--shards", &take_value("--shards", &mut args), 1))
            }
            "--bb-drop-p" => {
                bb_drop_p = parse_prob("--bb-drop-p", &take_value("--bb-drop-p", &mut args))
            }
            "--bb-dup-p" => {
                bb_dup_p = parse_prob("--bb-dup-p", &take_value("--bb-dup-p", &mut args))
            }
            "--bb-seed" => bb_seed = parse_u64("--bb-seed", &take_value("--bb-seed", &mut args)),
            other => {
                eprintln!("error: unknown flag '{other}' for dolbie_node shard");
                std::process::exit(2);
            }
        }
    }
    let (Some(connect), Some(listen), Some(shard), Some(shards)) = (connect, listen, shard, shards)
    else {
        usage()
    };
    if shard >= shards {
        eprintln!("error: --shard {shard} is out of range for --shards {shards}");
        std::process::exit(2);
    }

    let listener = TcpListener::bind(listen).unwrap_or_else(|e| {
        eprintln!("error: cannot listen on {listen}: {e}");
        std::process::exit(1);
    });
    let local = listener.local_addr().expect("bound listener has an address");
    println!("shard {shard}/{shards} listening on {local}, dialing root at {connect}");

    let stream = connect_with_backoff(connect, 10, Duration::from_millis(50), shard as u64)
        .unwrap_or_else(|e| {
            eprintln!("error: cannot reach root at {connect}: {e}");
            std::process::exit(1);
        });
    let mut backbone_fault = FaultPlan::seeded(bb_seed);
    if bb_drop_p > 0.0 {
        backbone_fault = backbone_fault.with_drop_probability(bb_drop_p);
    }
    if bb_dup_p > 0.0 {
        backbone_fault = backbone_fault.with_duplicate_probability(bb_dup_p);
    }
    let opts = ShardMasterOptions {
        shard,
        num_shards: shards,
        frame_timeout: DEFAULT_FRAME_TIMEOUT,
        backbone_fault,
        die_after_round: None,
        die_mid_round: false,
    };
    let report = run_shard_master(stream, &listener, &opts).unwrap_or_else(|e| {
        eprintln!("error: shard-master run failed: {e}");
        std::process::exit(1);
    });
    println!(
        "shard {} done: {} rounds over workers {:?}, {} frames / {} bytes on the worker tier",
        report.shard,
        report.rounds.len(),
        report.range,
        report.wire.frames_sent + report.wire.frames_received,
        report.wire.bytes_sent + report.wire.bytes_received,
    );
}

fn worker_main(mut args: std::env::Args) {
    let mut connect: Option<SocketAddr> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--connect" => {
                connect = Some(parse_addr("--connect", &take_value("--connect", &mut args)))
            }
            other => {
                eprintln!("error: unknown flag '{other}' for dolbie_node worker");
                std::process::exit(2);
            }
        }
    }
    let Some(connect) = connect else { usage() };

    let stream =
        connect_with_backoff(connect, 10, Duration::from_millis(50), 0).unwrap_or_else(|e| {
            eprintln!("error: cannot reach master at {connect}: {e}");
            std::process::exit(1);
        });
    let report = run_worker(stream, &WorkerOptions::default()).unwrap_or_else(|e| {
        eprintln!("error: worker run failed: {e}");
        std::process::exit(1);
    });
    println!(
        "worker {} done: {} rounds, final share {:.6}, {} epochs crossed",
        report.worker_id, report.rounds_seen, report.final_share, report.epochs_seen
    );
}
