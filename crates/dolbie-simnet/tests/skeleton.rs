//! Contracts of the simulator skeleton the architectures share: the
//! world fingerprint a model checker reads between steps, and the
//! builder's range checks.

use dolbie_core::environment::RotatingStragglerEnvironment;
use dolbie_core::DolbieConfig;
use dolbie_simnet::{
    Crash, DecisionPoint, FaultPlan, FixedLatency, FullyDistributedSim, LeaveKind, MasterWorkerSim,
    MembershipSchedule, Protocol, RingSim, Scheduler, ShardedSim, World,
};
use std::panic::{catch_unwind, AssertUnwindSafe};

const N: usize = 4;
const ROUNDS: usize = 8;

fn env() -> RotatingStragglerEnvironment {
    RotatingStragglerEnvironment::new(N, 3, 6.0, 1.0)
}

fn plan(seed: u64) -> FaultPlan {
    FaultPlan::seeded(seed)
        .with_drop_probability(0.2)
        .with_duplicate_probability(0.1)
        .with_crash(Crash { worker: 1, from_round: 2, until_round: 4 })
}

fn schedule() -> MembershipSchedule {
    MembershipSchedule::none().with_leave(3, 2, LeaveKind::CrashDetected).with_join(6, 2)
}

/// Observes every state it is offered and takes seeded choices: a random
/// delivery rank, and a flipped default on about one decision in four.
struct Recorder {
    rng: u64,
    observed: Option<u64>,
    chose: bool,
}

impl Recorder {
    fn next(&mut self) -> u64 {
        // splitmix64
        self.rng = self.rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

impl Scheduler for Recorder {
    fn choose_delivery(&mut self, pending: usize) -> usize {
        self.chose = true;
        (self.next() % pending as u64) as usize
    }

    fn decide(&mut self, _point: DecisionPoint, default: bool) -> bool {
        default ^ self.next().is_multiple_of(4)
    }

    fn wants_state(&self) -> bool {
        true
    }

    fn observe_state(&mut self, fingerprint: u64) {
        assert!(self.observed.is_none(), "one observation per step");
        self.observed = Some(fingerprint);
    }
}

/// Steps `world` to its horizon, checking at every step boundary that
/// `fingerprint()` is what the next step reports, and `Some` exactly
/// when that step makes a delivery choice.
fn assert_fingerprint_contract<P: Protocol>(
    mut world: World<P, RotatingStragglerEnvironment, FixedLatency>,
    seed: u64,
) {
    let mut sched = Recorder { rng: seed, observed: None, chose: false };
    let (mut steps, mut choices) = (0, 0);
    loop {
        let expected = world.fingerprint();
        sched.observed = None;
        sched.chose = false;
        if !world.step(&mut sched) {
            assert_eq!(expected, None, "a finished run has no choice left");
            break;
        }
        assert_eq!(sched.observed, expected, "step {steps}: fingerprint() vs the observed state");
        assert_eq!(expected.is_some(), sched.chose, "step {steps}: Some exactly at a choice");
        steps += 1;
        choices += usize::from(sched.chose);
    }
    assert_eq!(world.into_trace().rounds.len(), ROUNDS);
    assert!(0 < choices && choices < steps, "{choices} choices in {steps} steps");
}

#[test]
fn world_fingerprint_is_what_the_next_step_observes() {
    for seed in 0..6 {
        let mw = MasterWorkerSim::new(env(), DolbieConfig::new(), FixedLatency::lan())
            .with_fault_plan(plan(seed).with_cost_timeout(1.0))
            .with_membership(schedule());
        assert_fingerprint_contract(mw.into_world(ROUNDS), seed);
        let fd = FullyDistributedSim::new(env(), DolbieConfig::new(), FixedLatency::lan())
            .with_fault_plan(plan(seed))
            .with_membership(schedule());
        assert_fingerprint_contract(fd.into_world(ROUNDS), seed);
        let ring = RingSim::new(env(), DolbieConfig::new(), FixedLatency::lan())
            .with_fault_plan(plan(seed))
            .with_membership(schedule());
        assert_fingerprint_contract(ring.into_world(ROUNDS), seed);
    }
}

/// Runs `build` and returns its panic message.
fn panic_message(build: impl FnOnce()) -> String {
    let err = catch_unwind(AssertUnwindSafe(build)).expect_err("the builder must panic");
    match err.downcast::<&str>() {
        Ok(msg) => msg.to_string(),
        Err(err) => *err.downcast::<String>().expect("a string panic"),
    }
}

#[test]
fn crash_windows_out_of_range_are_rejected_by_every_simulator() {
    let crash = Crash { worker: N, from_round: 0, until_round: 1 };
    let (cfg, lan) = (DolbieConfig::new, FixedLatency::lan);
    let plan = || FaultPlan::none().with_crash(crash);
    let messages = [
        panic_message(|| drop(MasterWorkerSim::new(env(), cfg(), lan()).with_crash(crash))),
        panic_message(|| drop(MasterWorkerSim::new(env(), cfg(), lan()).with_fault_plan(plan()))),
        panic_message(|| drop(FullyDistributedSim::new(env(), cfg(), lan()).with_crash(crash))),
        panic_message(|| {
            drop(FullyDistributedSim::new(env(), cfg(), lan()).with_fault_plan(plan()))
        }),
        panic_message(|| drop(RingSim::new(env(), cfg(), lan()).with_crash(crash))),
        panic_message(|| drop(RingSim::new(env(), cfg(), lan()).with_fault_plan(plan()))),
        panic_message(|| drop(ShardedSim::new(env(), cfg(), lan(), 2).with_crash(crash))),
        panic_message(|| drop(ShardedSim::new(env(), cfg(), lan(), 2).with_fault_plan(plan()))),
    ];
    for (case, msg) in messages.iter().enumerate() {
        assert_eq!(msg, "crash worker out of range", "case {case}");
    }
}
