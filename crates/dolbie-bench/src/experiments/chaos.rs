//! Chaos sweep (extension): the simnet invariant harness.
//!
//! Hundreds of random `FaultPlan × MembershipSchedule` combinations —
//! lossy links, duplicate deliveries, crash windows (including
//! whole-shard-master crashes), and worker leave/join epochs, all derived
//! from pure hashes of the case index — are run through all four protocol
//! architectures, and five invariants are machine-checked on every trace:
//!
//! 1. **simplex feasibility** — every executed allocation satisfies
//!    `|Σx − 1| < 1e-9` with `x_i ≥ 0`;
//! 2. **α monotonicity** — the recorded system step size never increases
//!    within a run (the eq. (7) invariant, through every epoch boundary);
//! 3. **no stranded share** — a worker outside the membership view holds
//!    exactly `0.0` and never participates;
//! 4. **architecture agreement** — crash-free cases (type A) must agree
//!    *bitwise* across master-worker, fully-distributed, and ring;
//!    cases with crash windows (type B) hold the two leaderless
//!    architectures to `1e-9` agreement (the master-worker protocol is
//!    exempt there: its master can remember an α tightening that a
//!    straggler crash erases from every peer — the documented corner of
//!    the fault subsystem, see `tests/fault_props.rs`). The sharded
//!    two-level architecture must agree with master-worker **bitwise on
//!    every case, type A and B alike** — including cases where a whole
//!    shard-master crashes mid-run and epochs drain workers out from
//!    under shards;
//! 5. **termination** — every run produces exactly its scheduled number
//!    of rounds (no deadlock, no panic).
//!
//! A failing case is automatically *shrunk* — events, crash windows, link
//! loss, and rounds are greedily removed while the failure reproduces —
//! and the minimal case is printed as a copy-pasteable reproducer before
//! the sweep aborts.
//!
//! The sweep fans out across `--threads` workers; case outcomes are pure
//! functions of the case index, so `results/chaos_invariants.csv` is
//! byte-identical at any thread count.

use crate::common::{emit_csv, hash, unit};
use dolbie_core::cost::DynCost;
use dolbie_core::environment::FnEnvironment;
use dolbie_core::fingerprint::mix64;
use dolbie_core::parallel;
use dolbie_core::DolbieConfig;
use dolbie_core::ShardLayout;
use dolbie_metrics::Table;
use dolbie_simnet::invariants;
use dolbie_simnet::{
    Crash, FaultPlan, FixedLatency, FullyDistributedSim, MasterWorkerSim, MembershipChange,
    MembershipSchedule, ProtocolTrace, RingSim, ShardedSim,
};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Cases in the full sweep. One in four carries crash windows (type B),
/// leaving well over 200 crash-free (type A) cases for the bitwise
/// three-architecture claim.
const FULL_CASES: usize = 280;
/// Cases in the `--quick` smoke sweep (the tier-1 gate).
const QUICK_CASES: usize = 20;
/// Master seed the whole sweep is derived from (public so the model
/// checker's cross-validation can regenerate the exact sweep cases).
pub const MASTER_SEED: u64 = 0xD01B_1E00;

/// One randomized chaos case: a fleet size, a horizon, a seeded
/// environment, and the fault plan × membership schedule to survive.
#[derive(Debug, Clone)]
pub struct ChaosCase {
    /// Case index within the sweep (names the case in the CSV).
    pub id: usize,
    /// Fleet size.
    pub n: usize,
    /// Horizon in rounds.
    pub rounds: usize,
    /// Seed for the per-round cost functions.
    pub env_seed: u64,
    /// Link faults and crash windows (worker-level only; a shard-master
    /// crash is carried separately in `shard_crash`).
    pub plan: FaultPlan,
    /// Worker churn epochs.
    pub schedule: MembershipSchedule,
    /// Shard count for the two-level architecture (`1..=min(4, n)`).
    pub shards: usize,
    /// An optional shard-master crash `(shard, from_round, until_round)`:
    /// the sharded sim takes the whole shard dark via
    /// `with_shard_master_crash`, while the flat sims get the equivalent
    /// per-worker crash windows — the equivalence invariant 4 checks.
    pub shard_crash: Option<(usize, usize, usize)>,
}

impl ChaosCase {
    /// Type A cases are crash-free: churn and lossy links only. Only they
    /// claim bitwise agreement across the leaderless architectures (the
    /// sharded tier claims bitwise agreement with master-worker always).
    pub fn is_type_a(&self) -> bool {
        self.plan.crashes.is_empty() && self.shard_crash.is_none()
    }

    /// The flat simulators' fault plan: the worker-level plan plus the
    /// shard-master crash expanded to its slice's per-worker windows.
    pub fn flat_plan(&self) -> FaultPlan {
        let mut plan = self.plan.clone();
        if let Some((shard, from_round, until_round)) = self.shard_crash {
            for worker in ShardLayout::even(self.n, self.shards).range(shard) {
                plan.crashes.push(Crash { worker, from_round, until_round });
            }
        }
        plan
    }
}

/// Derives case `id` of the sweep — a pure function, so any subset of the
/// sweep can be regenerated independently and in any order.
pub fn case_from_seed(id: usize, master_seed: u64) -> ChaosCase {
    let s = mix64(master_seed ^ (id as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let n = 2 + (hash(s, 1) % 6) as usize;
    let rounds = 12 + (hash(s, 2) % 19) as usize;
    let mut plan = FaultPlan::seeded(hash(s, 5))
        .with_drop_probability(unit(hash(s, 3)) * 0.5)
        .with_duplicate_probability(unit(hash(s, 4)) * 0.25);
    if id % 4 == 3 {
        let count = 1 + (hash(s, 6) % 2) as usize;
        for k in 0..count {
            let h = hash(s, 16 + k as u64);
            let from = (h >> 8) as usize % rounds;
            let len = 1 + (h >> 24) as usize % (rounds / 2).max(1);
            plan = plan.with_crash(Crash {
                worker: h as usize % n,
                from_round: from,
                until_round: (from + len).min(rounds),
            });
        }
    }
    let schedule = MembershipSchedule::random(hash(s, 7), n, rounds, 0.08, 0.12);
    let shards = 1 + (hash(s, 9) % n.min(4) as u64) as usize;
    let shard_crash = if id % 5 == 2 {
        let h = hash(s, 10);
        let shard = h as usize % shards;
        let from = (h >> 16) as usize % rounds;
        let len = 1 + (h >> 40) as usize % (rounds / 2).max(1);
        Some((shard, from, (from + len).min(rounds)))
    } else {
        None
    };
    ChaosCase { id, n, rounds, env_seed: hash(s, 8), plan, schedule, shards, shard_crash }
}

/// The deterministic per-round cost functions a case runs against — the
/// chaos-mix environment, whose single definition lives in
/// [`dolbie_mc::chaos_mix_env`] so the model checker's cross-validation
/// replays run against byte-identical cost streams.
pub fn env_for(seed: u64, n: usize) -> FnEnvironment<impl FnMut(usize) -> Vec<DynCost>> {
    dolbie_mc::chaos_mix_env(seed, n)
}

/// The five machine-checked invariants, as a pure function of the three
/// traces — separable so the negative tests can feed it corrupted traces.
///
/// Invariants 1, 2, 3, and 5 are the shared detectors of
/// [`dolbie_simnet::invariants`] (one definition for this sweep, the
/// net-tier sweep, and the model checker); invariant 4's *pairing
/// policy* — which traces must agree, and how tightly — stays here.
pub fn check_invariants(
    case: &ChaosCase,
    mw: &ProtocolTrace,
    fd: &ProtocolTrace,
    ring: &ProtocolTrace,
    sharded: &ProtocolTrace,
) -> Result<(), String> {
    // (5), (1), (2), (3) per trace, via the shared detectors.
    for tr in [mw, fd, ring, sharded] {
        invariants::check_trace(tr, case.rounds, |t| case.schedule.members_at(case.n, t))?;
    }
    // (4) architecture agreement.
    for t in 0..case.rounds {
        let (m, f, r) = (&mw.rounds[t], &fd.rounds[t], &ring.rounds[t]);
        if case.is_type_a() {
            if !(invariants::rounds_agree_bitwise(m, f) && invariants::rounds_agree_bitwise(f, r)) {
                return Err(format!("agreement: type A architectures diverge at round {t}"));
            }
        } else if f.allocation.l2_distance(&r.allocation) >= 1e-9 {
            return Err(format!("agreement: FD and ring diverge at round {t} (type B)"));
        }
        // The sharded tier's claim is unconditional: bitwise agreement
        // with the flat master on every case, crashes included.
        let s = &sharded.rounds[t];
        if !invariants::rounds_agree_bitwise(m, s) || m.active != s.active {
            return Err(format!("agreement: sharded diverges from master-worker at round {t}"));
        }
    }
    Ok(())
}

/// Runs one case through all four architectures and checks the
/// invariants; a panic anywhere (deadlock assert, infeasible allocation)
/// is converted into a failure.
pub fn run_case(case: &ChaosCase) -> Result<(), String> {
    let case = case.clone();
    catch_unwind(AssertUnwindSafe(move || {
        let flat_plan = case.flat_plan();
        let mw = MasterWorkerSim::new(
            env_for(case.env_seed, case.n),
            DolbieConfig::new(),
            FixedLatency::lan(),
        )
        .with_fault_plan(flat_plan.clone())
        .with_membership(case.schedule.clone())
        .run(case.rounds);
        let fd = FullyDistributedSim::new(
            env_for(case.env_seed, case.n),
            DolbieConfig::new(),
            FixedLatency::lan(),
        )
        .with_fault_plan(flat_plan.clone())
        .with_membership(case.schedule.clone())
        .run(case.rounds);
        let ring =
            RingSim::new(env_for(case.env_seed, case.n), DolbieConfig::new(), FixedLatency::lan())
                .with_fault_plan(flat_plan)
                .with_membership(case.schedule.clone())
                .run(case.rounds);
        let mut sharded_sim = ShardedSim::new(
            env_for(case.env_seed, case.n),
            DolbieConfig::new(),
            FixedLatency::lan(),
            case.shards,
        )
        .with_fault_plan(case.plan.clone())
        .with_membership(case.schedule.clone());
        if let Some((shard, from_round, until_round)) = case.shard_crash {
            sharded_sim = sharded_sim.with_shard_master_crash(shard, from_round, until_round);
        }
        let sharded = sharded_sim.run(case.rounds);
        check_invariants(&case, &mw, &fd, &ring, &sharded.trace)
    }))
    .unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic".into());
        Err(format!("panic: {msg}"))
    })
}

/// Non-panicking version of `MembershipSchedule::validate`, for vetting
/// shrink candidates (deleting a join can make a later leave empty the
/// set, which the simulators reject).
fn schedule_is_valid(schedule: &MembershipSchedule, n: usize) -> bool {
    if schedule.max_worker().is_some_and(|max| max >= n) {
        return false;
    }
    let mut members = vec![true; n];
    let rounds: Vec<usize> = schedule.events.iter().map(|e| e.round).collect();
    for t in rounds {
        schedule.apply_round(t, &mut members);
        if !members.iter().any(|&m| m) {
            return false;
        }
    }
    true
}

/// Greedily shrinks a failing case to a local minimum: drop membership
/// events, drop crash windows, silence the lossy link, and halve the
/// horizon, keeping each reduction only while the failure reproduces.
pub fn shrink(case: &ChaosCase) -> ChaosCase {
    let mut current = case.clone();
    loop {
        let mut improved = false;
        for i in 0..current.schedule.events.len() {
            let mut cand = current.clone();
            cand.schedule.events.remove(i);
            if schedule_is_valid(&cand.schedule, cand.n) && run_case(&cand).is_err() {
                current = cand;
                improved = true;
                break;
            }
        }
        if improved {
            continue;
        }
        for i in 0..current.plan.crashes.len() {
            let mut cand = current.clone();
            cand.plan.crashes.remove(i);
            if run_case(&cand).is_err() {
                current = cand;
                improved = true;
                break;
            }
        }
        if improved {
            continue;
        }
        if current.shard_crash.is_some() {
            let mut cand = current.clone();
            cand.shard_crash = None;
            if run_case(&cand).is_err() {
                current = cand;
                continue;
            }
        }
        for zero in [
            |c: &mut ChaosCase| c.plan.drop_probability = 0.0,
            |c: &mut ChaosCase| c.plan.duplicate_probability = 0.0,
        ] {
            let mut cand = current.clone();
            zero(&mut cand);
            if cand.plan != current.plan && run_case(&cand).is_err() {
                current = cand;
                improved = true;
                break;
            }
        }
        if improved {
            continue;
        }
        if current.rounds > 2 {
            let mut cand = current.clone();
            cand.rounds /= 2;
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
pub fn reproducer(case: &ChaosCase) -> String {
    let mut out = String::new();
    out.push_str("#[test]\nfn chaos_reproducer() {\n");
    out.push_str(&format!(
        "    // sweep case {} (n = {}, {} rounds)\n",
        case.id, case.n, case.rounds
    ));
    out.push_str(&format!(
        "    let plan = FaultPlan::seeded({:#018x})\n        .with_drop_probability({:?})\n        .with_duplicate_probability({:?})",
        case.plan.seed, case.plan.drop_probability, case.plan.duplicate_probability
    ));
    for c in &case.plan.crashes {
        out.push_str(&format!(
            "\n        .with_crash(Crash {{ worker: {}, from_round: {}, until_round: {} }})",
            c.worker, c.from_round, c.until_round
        ));
    }
    out.push_str(";\n    let schedule = MembershipSchedule::none()");
    for e in &case.schedule.events {
        match e.change {
            MembershipChange::Leave(kind) => out.push_str(&format!(
                "\n        .with_leave({}, {}, LeaveKind::{kind:?})",
                e.round, e.worker
            )),
            MembershipChange::Join => {
                out.push_str(&format!("\n        .with_join({}, {})", e.round, e.worker))
            }
        }
    }
    out.push_str(";\n");
    out.push_str(&format!(
        "    let case = ChaosCase {{ id: {}, n: {}, rounds: {}, env_seed: {:#018x}, plan, schedule, shards: {}, shard_crash: {:?} }};\n",
        case.id, case.n, case.rounds, case.env_seed, case.shards, case.shard_crash
    ));
    out.push_str("    assert!(chaos::run_case(&case).is_ok());\n}\n");
    out
}

/// Runs the chaos sweep, emits `results/<name>.csv`, and panics with a
/// shrunk reproducer if any invariant fails — making the quick sweep a
/// hard CI gate.
pub fn chaos_named(quick: bool, name: &str) {
    let total = if quick { QUICK_CASES } else { FULL_CASES };
    println!("== Chaos sweep: {total} random FaultPlan x MembershipSchedule cases ==");
    let results = parallel::parallel_map(total, |id| {
        let case = case_from_seed(id, MASTER_SEED);
        let outcome = run_case(&case);
        (case, outcome)
    });

    let mut table = Table::new(vec![
        "case",
        "kind",
        "n",
        "rounds",
        "membership_events",
        "crash_windows",
        "shards",
        "shard_crash",
        "drop_probability",
        "duplicate_probability",
        "passed",
    ]);
    let mut type_a = 0usize;
    let mut failures: Vec<(&ChaosCase, &String)> = Vec::new();
    for (case, outcome) in &results {
        if case.is_type_a() {
            type_a += 1;
        }
        if let Err(msg) = outcome {
            failures.push((case, msg));
        }
        table.push_row(vec![
            case.id.to_string(),
            if case.is_type_a() { "A".into() } else { "B".into() },
            case.n.to_string(),
            case.rounds.to_string(),
            case.schedule.events.len().to_string(),
            case.plan.crashes.len().to_string(),
            case.shards.to_string(),
            (case.shard_crash.is_some() as u8).to_string(),
            format!("{:.4}", case.plan.drop_probability),
            format!("{:.4}", case.plan.duplicate_probability),
            (outcome.is_ok() as u8).to_string(),
        ]);
    }
    emit_csv(&table, name);
    println!(
        "  {} / {total} cases passed all five invariants ({type_a} type A bitwise, {} type B)",
        total - failures.len(),
        total - type_a
    );

    if let Some((case, msg)) = failures.first() {
        println!("  FAILURE: case {}: {msg}", case.id);
        println!("  shrinking to a minimal reproducer...");
        let minimal = shrink(case);
        let final_msg = run_case(&minimal).expect_err("shrunk case still fails");
        println!("--- minimal reproducer ({final_msg}) ---");
        println!("{}", reproducer(&minimal));
        panic!("chaos sweep found {} invariant violation(s)", failures.len());
    }
}

/// The default entry point: writes `results/chaos_invariants.csv`.
pub fn chaos(quick: bool) {
    chaos_named(quick, "chaos_invariants");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_cases_are_deterministic_and_mixed() {
        let a: Vec<ChaosCase> = (0..24).map(|i| case_from_seed(i, MASTER_SEED)).collect();
        for case in &a {
            let again = case_from_seed(case.id, MASTER_SEED);
            assert_eq!(case.schedule, again.schedule, "case {}", case.id);
            assert_eq!(case.plan.seed, again.plan.seed, "case {}", case.id);
            assert!(case.n >= 2, "the protocols need two workers");
        }
        assert!(a.iter().any(|c| c.is_type_a()));
        assert!(a.iter().any(|c| !c.is_type_a()));
        assert!(a.iter().any(|c| !c.schedule.is_none()), "the sweep must contain churn");
        assert!(a.iter().any(|c| c.shards > 1), "the sweep must shard some fleets");
        assert!(a.iter().any(|c| c.shard_crash.is_some()), "the sweep must crash a shard-master");
        for case in &a {
            assert!(case.shards >= 1 && case.shards <= case.n);
            if let Some((shard, from, until)) = case.shard_crash {
                assert!(shard < case.shards && from < until && until <= case.rounds);
            }
        }
    }

    #[test]
    fn a_small_prefix_of_the_sweep_passes() {
        for id in 0..8 {
            let case = case_from_seed(id, MASTER_SEED);
            if let Err(msg) = run_case(&case) {
                panic!("case {id} failed: {msg}\n{}", reproducer(&shrink(&case)));
            }
        }
    }

    /// The negative test the acceptance criteria require: a corrupted
    /// trace — the kind a broken engine would emit — must be caught by
    /// the checker, invariant by invariant.
    #[test]
    fn corrupted_traces_are_caught() {
        let case = case_from_seed(0, MASTER_SEED);
        let build = |arch| {
            let mut mw = MasterWorkerSim::new(
                env_for(case.env_seed, case.n),
                DolbieConfig::new(),
                FixedLatency::lan(),
            )
            .with_fault_plan(case.flat_plan())
            .with_membership(case.schedule.clone());
            let mut t = mw.run(case.rounds);
            t.architecture = arch;
            t
        };
        let (mw, fd, ring, sh) =
            (build("master-worker"), build("fully-distributed"), build("ring"), build("sharded"));
        assert!(check_invariants(&case, &mw, &fd, &ring, &sh).is_ok(), "identical traces pass");

        // A step size that grows mid-run (a broken eq. (7) cap).
        let mut bad = mw.clone();
        let last = bad.rounds.len() - 1;
        bad.rounds[last].alpha = bad.rounds[0].alpha + 1.0;
        let err =
            check_invariants(&case, &bad, &fd, &ring, &sh).expect_err("rising α must be caught");
        assert!(err.contains("alpha"), "got: {err}");

        // A truncated run (deadlock that was papered over).
        let mut bad = mw.clone();
        bad.rounds.pop();
        let err =
            check_invariants(&case, &bad, &fd, &ring, &sh).expect_err("lost round must be caught");
        assert!(err.contains("termination"), "got: {err}");

        // Divergent trajectories (a protocol that stopped agreeing).
        let mut bad = mw.clone();
        bad.rounds[last].straggler = (bad.rounds[last].straggler + 1) % case.n;
        if case.is_type_a() {
            let err = check_invariants(&case, &bad, &fd, &ring, &sh)
                .expect_err("divergent straggler must be caught");
            assert!(err.contains("agreement"), "got: {err}");
        }

        // A sharded tier that silently drifts off the flat trajectory —
        // caught even on type B cases, where the claim is unconditional.
        let mut bad = sh.clone();
        let share0 = bad.rounds[last].allocation.share(0);
        let mut shares: Vec<f64> = bad.rounds[last].allocation.iter().copied().collect();
        shares[0] = share0 + 1e-13;
        shares[1] -= 1e-13;
        bad.rounds[last].allocation =
            dolbie_core::Allocation::from_update(shares).expect("still feasible");
        let err = check_invariants(&case, &mw, &fd, &ring, &bad)
            .expect_err("sharded drift must be caught");
        assert!(err.contains("sharded"), "got: {err}");
    }
}
