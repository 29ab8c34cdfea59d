//! Experiment X7 (extension): the net-tier chaos harness.
//!
//! The simnet chaos sweep (`paper_figures chaos`) stresses the protocol
//! *logic* under simulated faults; this sweep stresses the shipped TCP
//! control plane itself. Every case builds a real loopback tree — root,
//! `M` shard-masters, `N` worker threads, every byte through the kernel
//! — and injects seeded chaos at the socket layer: scheduled worker
//! kills, shard-master kills at randomized round offsets (pre- and
//! post-commit), lossy stop-and-wait envelopes on the worker tier and
//! on the backbone, and quorum policies that demand structured
//! termination. Each surviving run is machine-checked against the five
//! chaos invariants:
//!
//! 1. **simplex feasibility** — every stitched allocation satisfies
//!    `|Σx − 1| < 1e-9` with `x_i ≥ 0`, and the final allocation holds
//!    `|Σx − 1| ≤ 1e-12` over the surviving members;
//! 2. **α monotonicity** — the root's recorded step size never rises;
//! 3. **no stranded share** — a worker buried by any recorded epoch
//!    holds exactly `0.0` from that epoch's round on;
//! 4. **twin agreement** — the surviving trajectory is **bitwise**
//!    identical to a sequential engine replaying the recorded
//!    membership schedule (`RootEpoch` by `RootEpoch`);
//! 5. **termination** — the run completes its full horizon (or, on a
//!    quorum case, returns the structured quorum error), with no panic;
//!
//! plus **no hang**: every case, passing or failing, must finish inside
//! a hard wall-clock bound — a stuck deadline loop fails the sweep even
//! if it would eventually satisfy the other five.
//!
//! A failing case is greedily shrunk — kills removed, loss silenced,
//! horizon halved, while the failure reproduces — and printed as a
//! copy-pasteable `#[test]` reproducer, exactly like the simnet sweep.
//! The quick variant writes `results/chaos_net_quick.csv`, never
//! clobbering the full sweep's `results/chaos_net.csv`.

use crate::common::{artifact, emit_csv, hash, unit};
use dolbie_core::fingerprint::mix64;
use dolbie_metrics::Table;
use dolbie_net::env::{EnvKind, WireEnvSpec};
use dolbie_net::shard::{run_sharded_loopback, twin_allocations, ShardKill, ShardedConfig};
use dolbie_simnet::faults::{FaultPlan, RetryPolicy};
use dolbie_simnet::invariants;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Cases in the full sweep.
const FULL_CASES: usize = 80;
/// Cases in the `--quick` smoke sweep (the tier-1 gate).
const QUICK_CASES: usize = 10;
/// Master seed the whole sweep is derived from.
const MASTER_SEED: u64 = 0xD01B_0C4A;
/// The per-case hang bound. Cases are ≤ 30 rounds over ≤ 10 workers
/// with 2 s frame deadlines; protocol time is well under a second, so
/// this only has to absorb dev-profile CI noise while still catching a
/// run that sleeps a deadline loop forever.
const CASE_WALL_BOUND: Duration = Duration::from_secs(30);

/// One randomized net-chaos case — everything `run_case` needs to build
/// the loopback tree, all derived from pure hashes of the case index.
#[derive(Debug, Clone)]
pub struct NetChaosCase {
    /// Case index within the sweep (names the case in the CSV).
    pub id: usize,
    /// Fleet size.
    pub n: usize,
    /// Shard count.
    pub m: usize,
    /// Horizon in rounds.
    pub rounds: usize,
    /// Seed for the per-round cost functions.
    pub env_seed: u64,
    /// Scheduled worker kills `(global id, die_after_round)`.
    pub worker_kills: Vec<(usize, usize)>,
    /// An optional shard-master kill.
    pub shard_kill: Option<ShardKill>,
    /// Worker-tier socket loss `(drop_p, dup_p, seed)`, if any.
    pub worker_loss: Option<(f64, f64, u64)>,
    /// Backbone socket loss `(drop_p, dup_p, seed)`, if any.
    pub backbone_loss: Option<(f64, f64, u64)>,
    /// Quorum floor; cases with `min_live_shards == m` and a shard kill
    /// expect the structured quorum error instead of a degraded run.
    pub min_live_shards: usize,
}

impl NetChaosCase {
    /// Whether this case must terminate with the structured quorum
    /// error rather than complete degraded.
    pub fn expects_quorum_error(&self) -> bool {
        self.shard_kill.is_some() && self.min_live_shards >= self.m
    }

    /// The loopback configuration this case runs.
    pub fn config(&self) -> ShardedConfig {
        let env = WireEnvSpec { kind: EnvKind::ChaosMix, seed: self.env_seed };
        let mut cfg = ShardedConfig::new(self.n, self.m, self.rounds, env)
            .with_min_live_shards(self.min_live_shards);
        cfg.frame_timeout = Duration::from_secs(2);
        if let Some((drop_p, dup_p, seed)) = self.worker_loss {
            cfg = cfg.with_fault_plan(
                FaultPlan::seeded(seed)
                    .with_drop_probability(drop_p)
                    .with_duplicate_probability(dup_p)
                    .with_retry(RetryPolicy::new(0.001, 1.5, 6)),
            );
        }
        if let Some((drop_p, dup_p, seed)) = self.backbone_loss {
            cfg = cfg.with_backbone_fault_plan(
                FaultPlan::seeded(seed)
                    .with_drop_probability(drop_p)
                    .with_duplicate_probability(dup_p)
                    .with_retry(RetryPolicy::new(0.001, 1.5, 6)),
            );
        }
        for &(w, r) in &self.worker_kills {
            cfg = cfg.with_worker_kill(w, r);
        }
        if let Some(kill) = self.shard_kill {
            cfg = cfg.with_shard_kill(kill);
        }
        cfg
    }
}

/// Derives case `id` of the sweep — a pure function, so any subset can
/// be regenerated independently and in any order. Kill placement is
/// constrained so at least one worker always survives (total fleet
/// death is a distinct structured error, tested separately).
pub fn case_from_seed(id: usize, master_seed: u64) -> NetChaosCase {
    let s = mix64(master_seed ^ (id as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let n = 4 + (hash(s, 1) % 7) as usize;
    let m = 1 + (hash(s, 2) % 3) as usize;
    let rounds = 8 + (hash(s, 3) % 23) as usize;

    let shard_kill = (id % 5 == 3 && m >= 2).then(|| ShardKill {
        shard: hash(s, 10) as usize % m,
        after_round: 1 + hash(s, 11) as usize % (rounds - 3),
        mid_round: hash(s, 12) & 1 == 0,
    });
    // Victims come from outside the killed shard's range, and at least
    // one non-victim member must remain.
    let buried = shard_kill.map(|sk| {
        let per = n / m;
        let extra = n % m;
        let start = sk.shard * per + sk.shard.min(extra);
        let len = per + usize::from(sk.shard < extra);
        start..start + len
    });
    let mut worker_kills = Vec::new();
    if id.is_multiple_of(2) {
        let eligible: Vec<usize> =
            (0..n).filter(|i| buried.as_ref().is_none_or(|r| !r.contains(i))).collect();
        let budget = (1 + hash(s, 4) as usize % 2).min(eligible.len().saturating_sub(1));
        for j in 0..budget {
            let victim = eligible[hash(s, 20 + j as u64) as usize % eligible.len()];
            if worker_kills.iter().any(|&(w, _)| w == victim) {
                continue;
            }
            worker_kills.push((victim, 1 + hash(s, 30 + j as u64) as usize % (rounds - 2)));
        }
    }

    let worker_loss =
        (id % 3 == 1).then(|| (0.02 + unit(hash(s, 5)) * 0.1, unit(hash(s, 6)) * 0.05, hash(s, 7)));
    let backbone_loss = (id % 4 == 2)
        .then(|| (0.02 + unit(hash(s, 8)) * 0.1, unit(hash(s, 9)) * 0.05, hash(s, 13)));
    let min_live_shards = if id % 11 == 7 && shard_kill.is_some() { m } else { 1 };

    NetChaosCase {
        id,
        n,
        m,
        rounds,
        env_seed: hash(s, 14),
        worker_kills,
        shard_kill,
        worker_loss,
        backbone_loss,
        min_live_shards,
    }
}

/// Runs one case over real loopback TCP and checks the invariants. A
/// panic anywhere in the tree is converted into a failure; a hang is
/// caught by the wall bound.
pub fn run_case(case: &NetChaosCase) -> Result<(), String> {
    let case = case.clone();
    let started = Instant::now();
    let outcome =
        catch_unwind(AssertUnwindSafe(move || check_case(&case))).unwrap_or_else(|payload| {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic".into());
            Err(format!("panic: {msg}"))
        });
    if started.elapsed() >= CASE_WALL_BOUND {
        return Err(format!(
            "no-hang: the case took {:.1} s, past the {:.0} s bound",
            started.elapsed().as_secs_f64(),
            CASE_WALL_BOUND.as_secs_f64()
        ));
    }
    outcome
}

fn check_case(case: &NetChaosCase) -> Result<(), String> {
    let cfg = case.config();
    if case.expects_quorum_error() {
        return match run_sharded_loopback(&cfg) {
            Ok(_) => Err("quorum: the run completed instead of failing the quorum policy".into()),
            Err(e) => {
                let msg = e.to_string();
                if msg.contains("quorum") {
                    Ok(())
                } else {
                    Err(format!("quorum: expected the structured quorum error, got: {msg}"))
                }
            }
        };
    }
    let run = run_sharded_loopback(&cfg).map_err(|e| format!("run failed: {e}"))?;

    // (5) termination.
    if invariants::termination_violation(run.root.rounds.len(), case.rounds) {
        return Err(format!(
            "termination: {} of {} rounds committed",
            run.root.rounds.len(),
            case.rounds
        ));
    }
    let stitched = run.allocations();
    let reference = twin_allocations(&cfg, &run.root.epochs);

    // The membership mask in force at round `t`: the last epoch applied
    // at or before `t` (an epoch at round `t` applies *before* `t`).
    let members_at = |t: usize| -> Vec<bool> {
        run.root
            .epochs
            .iter()
            .rfind(|e| e.round <= t)
            .map(|e| e.members.clone())
            .unwrap_or_else(|| vec![true; case.n])
    };

    let mut alpha = invariants::AlphaMonotone::new();
    for (t, round) in run.root.rounds.iter().enumerate() {
        // (1) simplex feasibility on the stitched allocation.
        match invariants::simplex_violation(&stitched[t], invariants::SIMPLEX_TOL) {
            Some(invariants::SimplexViolation::Sum(sum)) => {
                return Err(format!("feasibility: round {t} sums to {sum:.12}"));
            }
            Some(invariants::SimplexViolation::Negative { worker, share }) => {
                return Err(format!(
                    "feasibility: round {t} gives worker {worker} share {share:e}"
                ));
            }
            None => {}
        }
        // (2) α monotonicity.
        if let Some(rise) = alpha.observe(round.alpha) {
            return Err(format!(
                "alpha: round {t} raised α {:.12} -> {:.12}",
                rise.previous, rise.alpha
            ));
        }
        // (3) no stranded share. The stitched representation has no
        // per-round active set, so only the share check applies.
        match invariants::stranded_violation(&members_at(t), &stitched[t], None) {
            Some(invariants::StrandedShare::Share { worker, share }) => {
                return Err(format!(
                    "stranded share: round {t} leaves {share:.3e} on buried worker {worker}"
                ));
            }
            Some(invariants::StrandedShare::Active { .. }) | None => {}
        }
        // (4) twin agreement, bitwise.
        for i in 0..case.n {
            if stitched[t][i].to_bits() != reference[t][i].to_bits() {
                return Err(format!(
                    "twin: round {t}, worker {i}: {:e} (net) != {:e} (sequential twin)",
                    stitched[t][i], reference[t][i]
                ));
            }
        }
    }
    // Final entry: the tight simplex bound over survivors, and parity.
    let last = &stitched[case.rounds];
    let sum: f64 = last.iter().sum();
    if (sum - 1.0).abs() > 1e-12 {
        return Err(format!("feasibility: final Σx = {sum:.15}"));
    }
    for i in 0..case.n {
        if last[i].to_bits() != reference[case.rounds][i].to_bits() {
            return Err(format!("twin: final shares diverge at worker {i}"));
        }
    }
    Ok(())
}

/// Greedily shrinks a failing case to a local minimum: drop kills,
/// silence loss, relax the quorum, and halve the horizon, keeping each
/// reduction only while the failure reproduces.
pub fn shrink(case: &NetChaosCase) -> NetChaosCase {
    let mut current = case.clone();
    loop {
        let mut improved = false;
        for i in 0..current.worker_kills.len() {
            let mut cand = current.clone();
            cand.worker_kills.remove(i);
            if run_case(&cand).is_err() {
                current = cand;
                improved = true;
                break;
            }
        }
        if improved {
            continue;
        }
        for strip in [
            |c: &mut NetChaosCase| c.shard_kill = None,
            |c: &mut NetChaosCase| c.worker_loss = None,
            |c: &mut NetChaosCase| c.backbone_loss = None,
            |c: &mut NetChaosCase| c.min_live_shards = 1,
        ] {
            let mut cand = current.clone();
            strip(&mut cand);
            if format!("{cand:?}") != format!("{current:?}") && run_case(&cand).is_err() {
                current = cand;
                improved = true;
                break;
            }
        }
        if improved {
            continue;
        }
        if current.rounds > 4 {
            let mut cand = current.clone();
            cand.rounds /= 2;
            cand.worker_kills.retain(|&(_, r)| r + 2 <= cand.rounds);
            if cand.shard_kill.is_some_and(|sk| sk.after_round + 3 > cand.rounds) {
                cand.shard_kill = None;
            }
            if run_case(&cand).is_err() {
                current = cand;
                improved = true;
            }
        }
        if !improved {
            return current;
        }
    }
}

/// Renders a case as a copy-pasteable `#[test]` reproducer.
pub fn reproducer(case: &NetChaosCase) -> String {
    let mut out = String::new();
    out.push_str("#[test]\nfn chaos_net_reproducer() {\n");
    out.push_str(&format!(
        "    // net sweep case {} (n = {}, m = {}, {} rounds)\n",
        case.id, case.n, case.m, case.rounds
    ));
    out.push_str(&format!(
        "    let case = NetChaosCase {{\n        id: {},\n        n: {},\n        m: {},\n        \
         rounds: {},\n        env_seed: {:#018x},\n        worker_kills: vec!{:?},\n        \
         shard_kill: {:?},\n        worker_loss: {:?},\n        backbone_loss: {:?},\n        \
         min_live_shards: {},\n    }};\n",
        case.id,
        case.n,
        case.m,
        case.rounds,
        case.env_seed,
        case.worker_kills,
        case.shard_kill,
        case.worker_loss,
        case.backbone_loss,
        case.min_live_shards,
    ));
    out.push_str("    assert!(chaos_net::run_case(&case).is_ok());\n}\n");
    out
}

/// Runs the net-chaos sweep, emits `results/<name>.csv`, and panics
/// with a shrunk reproducer if any invariant fails. Cases run
/// sequentially: each one already fans a whole process tree of threads
/// across the machine, and sequential execution keeps the wall-clock
/// hang bound meaningful.
pub fn chaos_net_named(quick: bool, name: &str) {
    let total = if quick { QUICK_CASES } else { FULL_CASES };
    println!("== Net chaos sweep: {total} seeded kill/loss cases over real loopback TCP ==");
    let results: Vec<(NetChaosCase, Result<(), String>)> = (0..total)
        .map(|id| {
            let case = case_from_seed(id, MASTER_SEED);
            let outcome = run_case(&case);
            (case, outcome)
        })
        .collect();

    let mut table = Table::new(vec![
        "case",
        "n",
        "shards",
        "rounds",
        "worker_kills",
        "shard_kill",
        "quorum_case",
        "worker_drop_p",
        "backbone_drop_p",
        "passed",
    ]);
    let mut failures: Vec<(&NetChaosCase, &String)> = Vec::new();
    for (case, outcome) in &results {
        if let Err(msg) = outcome {
            failures.push((case, msg));
        }
        table.push_row(vec![
            case.id.to_string(),
            case.n.to_string(),
            case.m.to_string(),
            case.rounds.to_string(),
            case.worker_kills.len().to_string(),
            (case.shard_kill.is_some() as u8).to_string(),
            (case.expects_quorum_error() as u8).to_string(),
            format!("{:.4}", case.worker_loss.map_or(0.0, |(d, _, _)| d)),
            format!("{:.4}", case.backbone_loss.map_or(0.0, |(d, _, _)| d)),
            (outcome.is_ok() as u8).to_string(),
        ]);
    }
    emit_csv(&table, name);
    let kills: usize = results.iter().map(|(c, _)| c.worker_kills.len()).sum();
    let shard_kills = results.iter().filter(|(c, _)| c.shard_kill.is_some()).count();
    println!(
        "  {} / {total} cases passed ({kills} worker kills, {shard_kills} shard-master kills, \
         every survivor bitwise on its membership twin)",
        total - failures.len(),
    );

    if let Some((case, msg)) = failures.first() {
        println!("  FAILURE: case {}: {msg}", case.id);
        println!("  shrinking to a minimal reproducer...");
        let minimal = shrink(case);
        let final_msg = run_case(&minimal).expect_err("shrunk case still fails");
        println!("--- minimal reproducer ({final_msg}) ---");
        println!("{}", reproducer(&minimal));
        panic!("net chaos sweep found {} invariant violation(s)", failures.len());
    }
}

/// The default entry point: `results/chaos_net.csv` for the full sweep,
/// `results/chaos_net_quick.csv` for the quick smoke — distinct names,
/// so the smoke never clobbers a full measurement.
pub fn chaos_net(quick: bool) {
    chaos_net_named(quick, &artifact("chaos_net", quick));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_cases_are_deterministic_and_mixed() {
        let cases: Vec<NetChaosCase> =
            (0..FULL_CASES).map(|i| case_from_seed(i, MASTER_SEED)).collect();
        for case in &cases {
            let again = case_from_seed(case.id, MASTER_SEED);
            assert_eq!(format!("{case:?}"), format!("{again:?}"), "case {}", case.id);
            assert!(case.n >= 4 && case.m >= 1 && case.m <= 3 && case.m <= case.n);
            assert!(case.rounds >= 8);
            for &(w, r) in &case.worker_kills {
                assert!(w < case.n && r + 2 <= case.rounds, "kill ({w}, {r}) out of bounds");
            }
            if let Some(sk) = case.shard_kill {
                assert!(sk.shard < case.m && sk.after_round + 3 <= case.rounds);
            }
        }
        assert!(cases.iter().any(|c| !c.worker_kills.is_empty()), "the sweep must kill workers");
        assert!(cases.iter().any(|c| c.shard_kill.is_some()), "the sweep must kill shard-masters");
        assert!(
            cases.iter().any(|c| c.shard_kill.is_some_and(|sk| sk.mid_round)),
            "the sweep must kill a shard-master mid-round"
        );
        assert!(
            cases.iter().any(|c| c.worker_loss.is_some()),
            "the sweep must stress lossy workers"
        );
        assert!(
            cases.iter().any(|c| c.backbone_loss.is_some()),
            "the sweep must stress a lossy backbone"
        );
        assert!(
            cases.iter().any(|c| c.expects_quorum_error()),
            "the sweep must exercise the quorum policy"
        );
    }

    /// Kill placement never empties the fleet: at least one worker
    /// survives every case's combined shard and worker kills.
    #[test]
    fn kill_placement_always_leaves_a_survivor() {
        for id in 0..FULL_CASES {
            let case = case_from_seed(id, MASTER_SEED);
            let mut alive = vec![true; case.n];
            if let Some(sk) = case.shard_kill {
                let cfg = case.config();
                let layout = dolbie_core::ShardLayout::even(cfg.num_workers, cfg.num_shards);
                for i in layout.range(sk.shard) {
                    alive[i] = false;
                }
            }
            for &(w, _) in &case.worker_kills {
                alive[w] = false;
            }
            assert!(alive.iter().any(|&a| a), "case {id} kills the whole fleet");
        }
    }

    /// A small prefix of the sweep passes end to end — real sockets,
    /// real kills, invariants checked. Kept to a prefix so `cargo test`
    /// stays brisk; the full sweep runs through `paper_figures`.
    #[test]
    fn a_small_prefix_of_the_sweep_passes() {
        for id in 0..6 {
            let case = case_from_seed(id, MASTER_SEED);
            if let Err(msg) = run_case(&case) {
                panic!("case {id} failed: {msg}\n{}", reproducer(&shrink(&case)));
            }
        }
    }
}
