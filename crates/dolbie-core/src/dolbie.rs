//! The DOLBIE algorithm (Algorithms 1–2 of the paper).
//!
//! Both the master-worker and the fully-distributed architectures compute
//! the *same* sequence of decisions; they differ only in who exchanges
//! which scalar with whom. This module implements that shared decision
//! logic as a [`LoadBalancer`]; the `dolbie-simnet` crate runs it as the
//! two actual message-passing protocols and verifies trajectory
//! equivalence against this sequential engine.
//!
//! Per round, given the revealed costs:
//!
//! 1. identify the straggler `s_t` (max local cost, lowest index on ties);
//! 2. each non-straggler moves a step `α_t` toward its maximum acceptable
//!    workload `x'_{i,t}` (eq. (5)) — the **risk-averse assistance**;
//! 3. the straggler absorbs the remainder (eq. (6)), preserving
//!    `Σ_i x_i = 1` by construction;
//! 4. the step size tightens per eq. (7), preserving `x_i >= 0` in all
//!    future rounds with no projection.
//!
//! The update is gradient-free and projection-free: the only per-worker
//! work is one monotone inverse (closed-form for the latency model of
//! §VI-A, bisection otherwise).
//!
//! [`Dolbie`] is the reference oracle every other engine and tier is
//! pinned against bit for bit, and the general path: any
//! [`CostFunction`](crate::cost::CostFunction), per-worker share caps,
//! and the [`LoadBalancer`] trait. The per-round arithmetic itself lives
//! in [`engine`](crate::engine) as a structure-of-arrays implementation
//! shared with the large-N kernel
//! [`FusedDolbie`](crate::kernel::FusedDolbie); this module keeps the
//! user-facing configuration and the sequential wrapper.

use crate::allocation::Allocation;
use crate::balancer::LoadBalancer;
use crate::engine::SoaEngine;
use crate::observation::Observation;
use crate::step_size::paper_initial_alpha;

/// How to choose the initial step size `α_1`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InitialAlpha {
    /// The paper's formula `α_1 = min_i x_{i,1} / (N − 2 + min_i x_{i,1})`
    /// (end of §IV-B.1).
    ///
    /// Note this sits *exactly* on the eq. (7) feasibility boundary: on a
    /// strongly heterogeneous first round (every non-straggler's `x' = 1`)
    /// the first step drains the straggler to a share of exactly zero,
    /// after which eq. (7) pins `α` to zero and DOLBIE freezes. The paper
    /// states the initialization as an upper bound (`α_1 ≤ ...` is valid);
    /// [`InitialAlpha::CapFraction`] backs off from the boundary.
    PaperFormula,
    /// A fraction of the paper's cap (the default uses `0.5`): safely
    /// inside the eq. (7) boundary, so a maximal first step halves `α`
    /// instead of zeroing it.
    CapFraction(f64),
    /// A fixed value in `[0, 1]`; the paper's experiments use `0.001`.
    Fixed(f64),
}

/// Configuration for [`Dolbie`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DolbieConfig {
    /// Initial step size selection. Defaults to [`InitialAlpha::PaperFormula`].
    pub initial_alpha: InitialAlpha,
    /// Optional lower bound on `α_t` (an *extension*, default `0.0` = off).
    ///
    /// The paper's schedule is non-increasing and can approach zero, after
    /// which DOLBIE stops adapting; a small floor keeps it responsive in
    /// highly non-stationary environments at the cost of the Theorem 1
    /// guarantee (which needs `α_t` non-increasing). The feasibility guard
    /// below keeps the iterates feasible even with a floor.
    pub alpha_floor: f64,
}

impl DolbieConfig {
    /// The default configuration: the eq. (7) schedule with `α_1` at half
    /// the paper's cap (see [`InitialAlpha::CapFraction`]).
    pub fn new() -> Self {
        Self { initial_alpha: InitialAlpha::CapFraction(0.5), alpha_floor: 0.0 }
    }

    /// The literal paper initialization `α_1 = min_i x_{i,1}/(N−2+min_i x_{i,1})`.
    pub fn paper_initial() -> Self {
        Self { initial_alpha: InitialAlpha::PaperFormula, alpha_floor: 0.0 }
    }

    /// Sets a fixed initial step size (the experiments in §VI use `0.001`).
    pub fn with_initial_alpha(mut self, alpha: f64) -> Self {
        self.initial_alpha = InitialAlpha::Fixed(alpha);
        self
    }

    /// Sets the step-size floor extension.
    pub fn with_alpha_floor(mut self, floor: f64) -> Self {
        self.alpha_floor = floor.clamp(0.0, 1.0);
        self
    }

    /// Resolves the configured `α_1` for a given initial partition — the
    /// single source of truth shared by the sequential engine and the
    /// protocol implementations in `dolbie-simnet`.
    pub fn resolve_initial_alpha(&self, initial: &Allocation) -> f64 {
        match self.initial_alpha {
            InitialAlpha::PaperFormula => paper_initial_alpha(initial),
            InitialAlpha::CapFraction(f) => paper_initial_alpha(initial) * f.clamp(0.0, 1.0),
            InitialAlpha::Fixed(a) => a.clamp(0.0, 1.0),
        }
    }
}

impl Default for DolbieConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// Counters exposed for experiments and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DolbieStats {
    /// Rounds observed so far.
    pub rounds: usize,
    /// Times the floating-point feasibility guard rescaled a step. In exact
    /// arithmetic this is always zero (the paper proves eq. (7) suffices);
    /// it exists to absorb rounding and the `alpha_floor` extension.
    pub guard_activations: usize,
}

/// The DOLBIE load balancer.
///
/// # Examples
///
/// ```
/// use dolbie_core::{Allocation, Dolbie, LoadBalancer, Observation};
/// use dolbie_core::cost::{DynCost, LinearCost};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut dolbie = Dolbie::new(3);
/// // Worker 0 is 4x slower: it straggles under the uniform split.
/// let costs: Vec<DynCost> = vec![
///     Box::new(LinearCost::new(4.0, 0.0)),
///     Box::new(LinearCost::new(1.0, 0.0)),
///     Box::new(LinearCost::new(1.0, 0.0)),
/// ];
/// let played = dolbie.allocation().clone();
/// let obs = Observation::from_costs(0, &played, &costs);
/// dolbie.observe(&obs);
/// // The straggler sheds load; the helpers take it up.
/// assert!(dolbie.allocation().share(0) < 1.0 / 3.0);
/// assert!(dolbie.allocation().share(1) > 1.0 / 3.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Dolbie {
    engine: SoaEngine,
}

impl Dolbie {
    /// Creates DOLBIE over `n` workers with the uniform initial split and
    /// the paper's initial step size.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        Self::with_config(Allocation::uniform(n), DolbieConfig::new())
    }

    /// Creates DOLBIE from an arbitrary feasible initial partition and a
    /// configuration.
    pub fn with_config(initial: Allocation, config: DolbieConfig) -> Self {
        Self { engine: SoaEngine::new(initial, config) }
    }

    /// Adds per-worker share caps `x_i <= caps[i]` (a capacity-constraint
    /// extension; the paper's problem has `caps = 1`). Non-stragglers then
    /// target `min(x'_{i,t}, caps[i])`; the straggler's share only ever
    /// decreases, so the caps hold for the whole run. The matching
    /// clairvoyant comparator is
    /// [`instantaneous_minimizer_capped`](crate::oracle::instantaneous_minimizer_capped).
    ///
    /// # Panics
    ///
    /// Panics if the cap vector has the wrong length, leaves the initial
    /// allocation infeasible, contains values outside `[0, 1]`, or cannot
    /// cover the workload (`Σ caps < 1`).
    pub fn with_share_caps(mut self, caps: Vec<f64>) -> Self {
        self.engine.set_share_caps(caps);
        self
    }

    /// The current step size `α_t`.
    pub fn alpha(&self) -> f64 {
        self.engine.root.alpha()
    }

    /// Canonical fingerprint of the engine state the model checker hashes
    /// for visited-state pruning: shares (bitwise), the current `α`, and
    /// the membership mask. Two engines fingerprint equal only if every
    /// share and the step size are *bitwise* equal under the same mask —
    /// the same contract as the repo's trajectory-parity tests.
    pub fn fingerprint(&self) -> u64 {
        let mut fp = crate::fingerprint::StateFp::new(0xD01B_F1A9);
        fp.push_f64_slice(self.engine.x.as_slice());
        fp.push_f64(self.engine.root.alpha());
        fp.push_bool_slice(&self.engine.active);
        fp.finish()
    }

    /// Crosses a membership epoch boundary: departing workers' shares are
    /// redistributed proportionally over the continuing members
    /// ([`renormalize_onto_members`](crate::membership::renormalize_onto_members)),
    /// joiners enter at share exactly `0.0` (the eq. (5)/(6) update grows
    /// them), and `α` shrinks to the eq. (7) cap re-derived against the
    /// new member count
    /// ([`membership_alpha_cap`](crate::membership::membership_alpha_cap)),
    /// so it never increases. Subsequent rounds must be observed through
    /// [`Observation::from_costs_masked`] with the same member mask so
    /// that non-members are excluded from the straggler argmax.
    ///
    /// # Panics
    ///
    /// Panics if `members.len()` differs from the worker count, no worker
    /// remains a member, or share caps are installed (caps describe a
    /// fixed fleet; combining them with churn is unsupported).
    pub fn apply_membership(&mut self, members: &[bool]) {
        self.engine.apply_membership(members);
    }

    /// The step sizes actually applied in each observed round — the
    /// sequence `{α_t}` appearing in the Theorem 1 bound.
    pub fn alphas_used(&self) -> &[f64] {
        self.engine.root.alphas_used()
    }

    /// Update counters.
    pub fn stats(&self) -> DolbieStats {
        self.engine.root.stats()
    }
}

impl LoadBalancer for Dolbie {
    fn name(&self) -> &str {
        "DOLBIE"
    }

    fn allocation(&self) -> &Allocation {
        self.engine.allocation()
    }

    fn observe(&mut self, observation: &Observation<'_>) {
        self.engine.observe_round(observation);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{DynCost, ExponentialCost, LatencyCost, LinearCost, PowerCost};

    fn linear_costs(slopes: &[f64]) -> Vec<DynCost> {
        slopes.iter().map(|&s| Box::new(LinearCost::new(s, 0.0)) as DynCost).collect()
    }

    fn step(balancer: &mut Dolbie, costs: &[DynCost], round: usize) -> f64 {
        let played = balancer.allocation().clone();
        let obs = Observation::from_costs(round, &played, costs);
        let global = obs.global_cost();
        balancer.observe(&obs);
        global
    }

    #[test]
    fn converges_toward_balanced_costs_on_static_linear() {
        let mut d = Dolbie::new(3);
        let costs = linear_costs(&[4.0, 1.0, 2.0]);
        let mut last = f64::INFINITY;
        for t in 0..200 {
            let g = step(&mut d, &costs, t);
            assert!(g <= last + 1e-9, "global cost must not increase on a static instance");
            last = g;
        }
        // Optimum: x_i ∝ 1/slope_i -> l* = 1 / (1/4 + 1 + 1/2) = 4/7.
        let opt = 4.0 / 7.0;
        assert!(
            last < opt * 1.25,
            "after 200 rounds DOLBIE should be near the optimum: {last} vs {opt}"
        );
    }

    #[test]
    fn feasibility_invariants_hold_every_round() {
        let mut d = Dolbie::new(5);
        let costs = linear_costs(&[10.0, 1.0, 2.0, 3.0, 0.5]);
        for t in 0..500 {
            step(&mut d, &costs, t);
            let x = d.allocation();
            let sum: f64 = x.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "round {t}: sum {sum}");
            for i in 0..5 {
                assert!(x.share(i) >= 0.0, "round {t}: negative share on worker {i}");
            }
        }
        assert_eq!(d.stats().rounds, 500);
        assert_eq!(d.stats().guard_activations, 0, "guard must stay idle per eq. (7)");
    }

    #[test]
    fn alpha_sequence_is_non_increasing() {
        let mut d = Dolbie::new(4);
        let costs = linear_costs(&[5.0, 1.0, 1.0, 1.0]);
        for t in 0..100 {
            step(&mut d, &costs, t);
        }
        let alphas = d.alphas_used();
        assert_eq!(alphas.len(), 100);
        for w in alphas.windows(2) {
            assert!(w[1] <= w[0] + 1e-15);
        }
    }

    #[test]
    fn non_stragglers_never_lose_work_stragglers_never_gain() {
        let mut d = Dolbie::new(4);
        let costs = linear_costs(&[1.0, 7.0, 2.0, 3.0]);
        for t in 0..50 {
            let before = d.allocation().clone();
            let obs = Observation::from_costs(t, &before, &costs);
            let s = obs.straggler();
            d.observe(&obs);
            let after = d.allocation();
            for i in 0..4 {
                if i == s {
                    assert!(after.share(i) <= before.share(i) + 1e-12);
                } else {
                    assert!(after.share(i) + 1e-12 >= before.share(i));
                }
            }
        }
    }

    #[test]
    fn handles_nonlinear_costs() {
        let costs: Vec<DynCost> = vec![
            Box::new(PowerCost::new(6.0, 2.0, 0.1)),
            Box::new(ExponentialCost::new(0.5, 2.0, 0.05)),
            Box::new(LinearCost::new(1.5, 0.2)),
        ];
        let mut d = Dolbie::new(3);
        let first = step(&mut d, &costs, 0);
        let mut last = first;
        for t in 1..300 {
            last = step(&mut d, &costs, t);
        }
        assert!(last < first, "DOLBIE should improve on non-linear costs: {first} -> {last}");
        // At convergence the costs should be roughly equalized.
        let x = d.allocation();
        let vals: Vec<f64> = (0..3).map(|i| costs[i].eval(x.share(i))).collect();
        let spread = vals.iter().cloned().fold(f64::MIN, f64::max)
            - vals.iter().cloned().fold(f64::MAX, f64::min);
        assert!(spread < 0.25 * last, "cost spread {spread} too wide vs level {last}");
    }

    #[test]
    fn latency_model_matches_section_6a_closed_form() {
        // With the latency cost, x' = min(1, (l − f^C)γ/B): check that one
        // DOLBIE round reproduces a hand-computed update.
        let b = 256.0;
        let costs: Vec<DynCost> = vec![
            Box::new(LatencyCost::new(b, 64.0, 0.1)),  // slow
            Box::new(LatencyCost::new(b, 512.0, 0.1)), // fast
        ];
        let alpha = 0.5;
        let mut d = Dolbie::with_config(
            Allocation::uniform(2),
            DolbieConfig::new().with_initial_alpha(alpha),
        );
        let played = d.allocation().clone();
        let obs = Observation::from_costs(0, &played, &costs);
        // l_t = 0.5*256/64 + 0.1 = 2.1; x'_1 = min(1, (2.1−0.1)*512/256) = 1.
        assert!((obs.global_cost() - 2.1).abs() < 1e-12);
        d.observe(&obs);
        // x_1 <- 0.5 + 0.5*(1 − 0.5) = 0.75; x_0 <- 0.25.
        assert!((d.allocation().share(1) - 0.75).abs() < 1e-12);
        assert!((d.allocation().share(0) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn single_worker_is_a_fixed_point() {
        let mut d = Dolbie::new(1);
        let costs = linear_costs(&[3.0]);
        for t in 0..10 {
            step(&mut d, &costs, t);
            assert_eq!(d.allocation().share(0), 1.0);
        }
        assert_eq!(d.stats().rounds, 10, "a fixed-point round still counts");
    }

    #[test]
    fn two_workers_rebalance_fully() {
        // N = 2: the eq. (7) cap degenerates to 1 while the straggler has
        // work, so the paper formula would step fully and oscillate; a
        // damped fixed step converges to the balanced split.
        let mut d = Dolbie::with_config(
            Allocation::uniform(2),
            DolbieConfig::new().with_initial_alpha(0.3),
        );
        let costs = linear_costs(&[9.0, 1.0]);
        for t in 0..100 {
            step(&mut d, &costs, t);
        }
        let x = d.allocation();
        // Optimum: x0 = 0.1, x1 = 0.9.
        assert!((x.share(0) - 0.1).abs() < 0.05, "x0 = {}", x.share(0));
    }

    #[test]
    fn fixed_initial_alpha_is_respected() {
        let d = Dolbie::with_config(
            Allocation::uniform(30),
            DolbieConfig::new().with_initial_alpha(0.001),
        );
        assert_eq!(d.alpha(), 0.001);
    }

    #[test]
    fn alpha_floor_keeps_adapting_and_guard_protects() {
        let cfg = DolbieConfig::new().with_initial_alpha(0.9).with_alpha_floor(0.9);
        let mut d = Dolbie::with_config(Allocation::uniform(3), cfg);
        // Adversarial: the straggler rotates, pushing aggressive steps.
        for t in 0..100 {
            let slow = t % 3;
            let mut slopes = [1.0, 1.0, 1.0];
            slopes[slow] = 20.0;
            let costs = linear_costs(&slopes);
            step(&mut d, &costs, t);
            let sum: f64 = d.allocation().iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
            assert!(d.allocation().iter().all(|&v| v >= 0.0));
        }
        assert_eq!(d.alpha(), 0.9, "floor must hold the step size up");
        assert!(d.stats().guard_activations > 0, "aggressive floor must trip the guard");
    }

    #[test]
    fn config_builder_and_defaults() {
        let cfg = DolbieConfig::default();
        assert_eq!(cfg.initial_alpha, InitialAlpha::CapFraction(0.5));
        assert_eq!(cfg.alpha_floor, 0.0);
        let cfg = cfg.with_alpha_floor(2.0);
        assert_eq!(cfg.alpha_floor, 1.0, "floor clamps to [0,1]");
        assert_eq!(DolbieConfig::paper_initial().initial_alpha, InitialAlpha::PaperFormula);
    }

    #[test]
    fn initial_alpha_variants_resolve_correctly() {
        let x = Allocation::uniform(4);
        let cap = crate::step_size::paper_initial_alpha(&x);
        assert_eq!(DolbieConfig::paper_initial().resolve_initial_alpha(&x), cap);
        assert_eq!(DolbieConfig::new().resolve_initial_alpha(&x), cap / 2.0);
        assert_eq!(DolbieConfig::new().with_initial_alpha(0.007).resolve_initial_alpha(&x), 0.007);
    }

    #[test]
    fn paper_formula_exact_boundary_can_freeze_but_default_does_not() {
        // Strongly heterogeneous static instance: with the literal paper
        // α_1 the first step exactly drains the straggler and eq. (7)
        // pins α to zero; the half-cap default keeps adapting.
        let costs = linear_costs(&[6.0, 1.0, 2.0]);
        let mut frozen = Dolbie::with_config(Allocation::uniform(3), DolbieConfig::paper_initial());
        let mut live = Dolbie::new(3);
        for t in 0..80 {
            step(&mut frozen, &costs, t);
            step(&mut live, &costs, t);
        }
        assert_eq!(frozen.alpha(), 0.0, "boundary init collapses the step size");
        assert!(live.alpha() > 0.0, "default init keeps a positive step size");
        let frozen_cost = costs
            .iter()
            .enumerate()
            .map(|(i, f)| f.eval(frozen.allocation().share(i)))
            .fold(f64::MIN, f64::max);
        let live_cost = costs
            .iter()
            .enumerate()
            .map(|(i, f)| f.eval(live.allocation().share(i)))
            .fold(f64::MIN, f64::max);
        assert!(
            live_cost < frozen_cost,
            "the live run converges further: {live_cost} vs {frozen_cost}"
        );
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(Dolbie::new(2).name(), "DOLBIE");
    }

    #[test]
    fn share_caps_bind_and_shift_the_equilibrium() {
        // Uncapped, the fast worker 1 would take 0.8 of the work; capped
        // at 0.5 it must stop there and the others absorb the rest.
        let costs = linear_costs(&[4.0, 1.0, 4.0]);
        let caps = vec![1.0, 0.5, 1.0];
        let mut capped = Dolbie::new(3).with_share_caps(caps.clone());
        for t in 0..300 {
            step(&mut capped, &costs, t);
            for (i, &cap) in caps.iter().enumerate() {
                assert!(
                    capped.allocation().share(i) <= cap + 1e-9,
                    "round {t}: worker {i} exceeds its cap"
                );
            }
        }
        assert!(
            (capped.allocation().share(1) - 0.5).abs() < 0.02,
            "the cap should bind at equilibrium: {}",
            capped.allocation().share(1)
        );
        // And the achieved level matches the capped clairvoyant optimum.
        let opt = crate::oracle::instantaneous_minimizer_capped(&costs, Some(&caps)).unwrap();
        let level = costs
            .iter()
            .enumerate()
            .map(|(i, f)| f.eval(capped.allocation().share(i)))
            .fold(f64::MIN, f64::max);
        assert!(
            level < opt.level * 1.15,
            "capped DOLBIE near capped OPT: {level} vs {}",
            opt.level
        );
    }

    #[test]
    fn slack_caps_do_not_change_the_trajectory() {
        let costs = linear_costs(&[3.0, 1.0]);
        let mut plain = Dolbie::new(2);
        let mut capped = Dolbie::new(2).with_share_caps(vec![1.0, 1.0]);
        for t in 0..60 {
            step(&mut plain, &costs, t);
            step(&mut capped, &costs, t);
        }
        assert!(plain.allocation().l2_distance(capped.allocation()) < 1e-12);
    }

    #[test]
    #[should_panic(expected = "exceeds its cap")]
    fn caps_below_initial_shares_are_rejected() {
        let _ = Dolbie::new(4).with_share_caps(vec![0.1, 1.0, 1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "not supported together with share caps")]
    fn membership_with_share_caps_is_rejected() {
        let mut d = Dolbie::new(4).with_share_caps(vec![1.0; 4]);
        d.apply_membership(&[true, true, true, false]);
    }

    /// `begin_round → abort_round` leaves the root engine bitwise
    /// indistinguishable from one that never started the attempt — the
    /// property the net tier's crash→epoch round restart rests on.
    #[test]
    fn abort_round_unwinds_begin_round_bitwise() {
        let n = 12;
        let costs: Vec<DynCost> = (0..n)
            .map(|i| {
                let speed = 64.0 + ((i * 149) % 448) as f64;
                Box::new(LatencyCost::new(256.0, speed, 0.05)) as DynCost
            })
            .collect();
        let mut clean = Dolbie::new(n);
        let mut aborted = Dolbie::new(n);
        for t in 0..300 {
            // The aborted twin opens (and sometimes guards) an attempt it
            // then abandons before every real round.
            let root = &mut aborted.engine.root;
            let alpha = root.begin_round();
            // Force the guard arithmetic with a synthetic overshoot.
            let guard_fired = t % 5 == 0 && root.guard_scale(0.25, 0.5 + alpha).is_some();
            root.abort_round(guard_fired);

            step(&mut clean, &costs, t);
            step(&mut aborted, &costs, t);
            for i in 0..n {
                assert_eq!(
                    clean.allocation().share(i).to_bits(),
                    aborted.allocation().share(i).to_bits(),
                    "t={t}, i={i}"
                );
            }
        }
        assert_eq!(clean.alphas_used(), aborted.alphas_used());
        assert_eq!(clean.stats(), aborted.stats());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::cost::{DynCost, LatencyCost, LinearCost, PowerCost};
    use crate::numeric::pairwise_neumaier_sum;
    use proptest::prelude::*;

    fn arbitrary_costs(n: usize) -> impl Strategy<Value = Vec<DynCost>> {
        proptest::collection::vec((0.01f64..50.0, 0.0f64..5.0, prop::bool::ANY), n).prop_map(
            |params| {
                params
                    .into_iter()
                    .map(|(a, b, quadratic)| {
                        if quadratic {
                            Box::new(PowerCost::new(a, 2.0, b)) as DynCost
                        } else {
                            Box::new(LinearCost::new(a, b)) as DynCost
                        }
                    })
                    .collect()
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Feasibility (constraints (2)-(3)) holds under adversarial
        /// time-varying mixes of linear and quadratic costs.
        #[test]
        fn feasible_under_adversarial_costs(
            n in 2usize..12,
            seeds in proptest::collection::vec(0u64..u64::MAX, 1..30),
        ) {
            let mut d = Dolbie::new(n);
            for (t, seed) in seeds.iter().enumerate() {
                // Derive per-round costs deterministically from the seed.
                let costs: Vec<DynCost> = (0..n).map(|i| {
                    let h = seed.wrapping_mul(6364136223846793005).wrapping_add(i as u64);
                    let slope = 0.1 + (h % 1000) as f64 / 50.0;
                    Box::new(LinearCost::new(slope, (h % 7) as f64 * 0.1)) as DynCost
                }).collect();
                let played = d.allocation().clone();
                let obs = Observation::from_costs(t, &played, &costs);
                d.observe(&obs);
                let sum: f64 = d.allocation().iter().sum();
                prop_assert!((sum - 1.0).abs() < 1e-9);
                prop_assert!(d.allocation().iter().all(|&v| v >= 0.0));
            }
        }

        /// On a static instance the global cost is non-increasing
        /// (risk-averse assistance never creates a worse straggler).
        #[test]
        fn static_global_cost_monotone(costs in arbitrary_costs(6)) {
            let mut d = Dolbie::new(6);
            let mut last = f64::INFINITY;
            for t in 0..40 {
                let played = d.allocation().clone();
                let obs = Observation::from_costs(t, &played, &costs);
                prop_assert!(obs.global_cost() <= last + 1e-9);
                last = obs.global_cost();
                d.observe(&obs);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Share redistribution conserves |Σx − 1| < 1e-12 across
        /// membership epochs — worker-level leaves plus, optionally, one
        /// epoch that drains a whole contiguous range of workers (a dead
        /// shard's) into the rest — and departed workers hold exactly 0.
        #[test]
        fn redistribution_conserves_the_simplex_through_epochs(
            n in 8usize..40,
            seed in 0u64..u64::MAX,
            epochs in proptest::collection::vec((1usize..60, 0usize..40), 0..4),
            drain_pick in 0usize..14,
            drain_start in 0usize..40,
            drain_len in 1usize..20,
            rounds in 20usize..70,
        ) {
            let mut state = seed;
            let fleet: Vec<DynCost> = (0..n).map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let speed = 32.0 + (state >> 40) as f64 / 65536.0;
                Box::new(LatencyCost::new(128.0, speed, 0.02)) as DynCost
            }).collect();

            let mut d = Dolbie::new(n);
            let mut members = vec![true; n];
            let mut boundaries: Vec<(usize, Vec<bool>)> = Vec::new();
            for &(t, w) in &epochs {
                let mut next = members.clone();
                next[w % n] = false;
                if next.iter().any(|&x| x) {
                    members = next.clone();
                    boundaries.push((t, next));
                }
            }
            if drain_pick < 7 {
                let start = drain_start % n;
                let mut next = members.clone();
                for alive in &mut next[start..(start + drain_len).min(n)] {
                    *alive = false;
                }
                if next.iter().any(|&x| x) {
                    boundaries.push((rounds / 2, next));
                }
            }
            boundaries.sort_by_key(|(t, _)| *t);

            let mut current = vec![true; n];
            for t in 0..rounds {
                for (bt, mm) in &boundaries {
                    if *bt == t {
                        current = mm.clone();
                        d.apply_membership(&current);
                        let sum = pairwise_neumaier_sum(d.allocation().as_slice());
                        prop_assert!(
                            (sum - 1.0).abs() < 1e-12,
                            "epoch at t={t}: |Σx − 1| = {:e}", (sum - 1.0).abs()
                        );
                    }
                }
                let played = d.allocation().clone();
                let obs = Observation::from_costs_masked(t, &played, &fleet, &current, Vec::new());
                d.observe(&obs);
                let sum = pairwise_neumaier_sum(d.allocation().as_slice());
                prop_assert!(
                    (sum - 1.0).abs() < 1e-12,
                    "round {t}: |Σx − 1| = {:e}", (sum - 1.0).abs()
                );
                prop_assert!(d.allocation().iter().all(|&v| v >= 0.0));
                for (i, &is_member) in current.iter().enumerate() {
                    if !is_member {
                        prop_assert_eq!(d.allocation().share(i), 0.0, "stranded share on {}", i);
                    }
                }
            }
        }
    }
}
