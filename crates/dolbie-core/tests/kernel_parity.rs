//! Exhaustive bitwise-parity matrix for the fused/SIMD round kernel.
//!
//! The tentpole determinism claim of the kernel
//! ([`dolbie_core::kernel`]): for every cost stream, kernel variant and
//! membership mask, the fused engine's trajectory — per-round shares, straggler ids, the α schedule, the
//! update counters — is **bitwise identical** to the sequential split
//! engine ([`Dolbie`]). The reference trajectories here are produced by
//! the plain `Dolbie` + `Observation` path, so any fusion, pipelining,
//! blocking or SIMD bug that moves a single bit fails the matrix.

use dolbie_core::cost::{DynCost, LatencyCost, LinearCost};
use dolbie_core::kernel::{CostSlab, FusedDolbie, KernelVariant};
use dolbie_core::{
    pairwise_neumaier_sum, Allocation, Dolbie, DolbieConfig, LoadBalancer, Observation,
};

fn splitmix(state: &mut u64) -> f64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z = z ^ (z >> 31);
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// Heterogeneous-latency fleet: speeds from a seeded hash.
fn latency_fleet(n: usize, seed: u64) -> Vec<DynCost> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            let speed = 64.0 + 448.0 * splitmix(&mut state);
            Box::new(LatencyCost::new(256.0, speed, 0.05)) as DynCost
        })
        .collect()
}

/// Heterogeneous linear fleet: slopes and intercepts from a seeded hash.
fn linear_fleet(n: usize, seed: u64) -> Vec<DynCost> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            let slope = 0.5 + 4.0 * splitmix(&mut state);
            let intercept = 0.2 * splitmix(&mut state);
            Box::new(LinearCost::new(slope, intercept)) as DynCost
        })
        .collect()
}

/// Tie-heavy fleet: only 3 distinct slopes across n workers, so the
/// straggler argmax faces massive ties every round and must resolve them
/// to the lowest index — the case a stride-lane SIMD argmax would break.
fn tie_heavy_fleet(n: usize) -> Vec<DynCost> {
    (0..n)
        .map(|i| {
            let slope = [3.0, 3.0, 1.0][i % 3];
            Box::new(LinearCost::new(slope, 0.1)) as DynCost
        })
        .collect()
}

/// Equal-maximum fleet: every worker has slope 1 except "peak" workers
/// with slope 3, placed in pairs at indices ≡ 3 and ≡ 0 (mod 4) — the
/// last lane of one lane group and the first lane of the next — at the
/// start of the fleet and across every `SUM_BLOCK` boundary, plus a pair
/// in the reverse lane order. Equal peaks keep equal costs until one is
/// elected, so a lane-wise first-max that let a lower lane beat a lower
/// index would pick the wrong straggler.
fn peak_fleet(n: usize) -> Vec<DynCost> {
    let mut peak = vec![false; n];
    for at in [3usize, 4, 8, 11] {
        peak[at] = true;
    }
    for boundary in (128..n).step_by(128) {
        peak[boundary - 1] = true;
        peak[boundary] = true;
    }
    peak.iter()
        .map(|&p| Box::new(LinearCost::new(if p { 3.0 } else { 1.0 }, 0.1)) as DynCost)
        .collect()
}

struct Trajectory {
    share_bits: Vec<Vec<u64>>,
    stragglers: Vec<usize>,
    global_cost_bits: Vec<u64>,
    alpha_bits: Vec<u64>,
}

fn run_split_reference(costs: &[DynCost], rounds: usize) -> Trajectory {
    run_split(Dolbie::new(costs.len()), costs, rounds)
}

/// Plays the split engine `d` against `costs`, recording every round.
fn run_split(mut d: Dolbie, costs: &[DynCost], rounds: usize) -> Trajectory {
    let mut t = Trajectory {
        share_bits: Vec::new(),
        stragglers: Vec::new(),
        global_cost_bits: Vec::new(),
        alpha_bits: Vec::new(),
    };
    for round in 0..rounds {
        let played = d.allocation().clone();
        let obs = Observation::from_costs(round, &played, costs);
        t.stragglers.push(obs.straggler());
        t.global_cost_bits.push(obs.global_cost().to_bits());
        d.observe(&obs);
        t.share_bits.push(d.allocation().iter().map(|v| v.to_bits()).collect());
    }
    t.alpha_bits = d.alphas_used().iter().map(|a| a.to_bits()).collect();
    t
}

/// Plays the fused kernel over `costs` from the uniform split.
fn run_fused(costs: &[DynCost], rounds: usize, variant: KernelVariant, reads: bool) -> Trajectory {
    let d = FusedDolbie::from_costs(costs).expect("fleet has a slab layout");
    play_fused(d, rounds, variant, reads)
}

/// Plays the kernel `d`. With `reads`, the shares are read after every
/// round; without, only the final shares are recorded.
fn play_fused(d: FusedDolbie, rounds: usize, variant: KernelVariant, reads: bool) -> Trajectory {
    let mut d = d.with_variant(variant);
    let mut t = Trajectory {
        share_bits: Vec::new(),
        stragglers: Vec::new(),
        global_cost_bits: Vec::new(),
        alpha_bits: Vec::new(),
    };
    for _ in 0..rounds {
        let round = d.step();
        t.stragglers.push(round.straggler);
        t.global_cost_bits.push(round.global_cost.to_bits());
        // Reading the allocation between every pair of steps checks the
        // shares each round leaves, not only the last.
        if reads {
            t.share_bits.push(d.allocation().iter().map(|v| v.to_bits()).collect());
        }
    }
    if !reads {
        t.share_bits.push(d.allocation().iter().map(|v| v.to_bits()).collect());
    }
    t.alpha_bits = d.alphas_used().iter().map(|a| a.to_bits()).collect();
    t
}

/// Asserts a per-round fused trajectory equals the reference.
fn assert_same(got: &Trajectory, reference: &Trajectory, tag: &str) {
    assert_eq!(got.stragglers, reference.stragglers, "stragglers ({tag})");
    assert_eq!(got.global_cost_bits, reference.global_cost_bits, "global costs ({tag})");
    assert_eq!(got.alpha_bits, reference.alpha_bits, "alpha schedule ({tag})");
    assert_eq!(got.share_bits, reference.share_bits, "shares ({tag})");
}

/// The small matrix: {latency, tie-heavy} × {Fused, Simd}, n prime so
/// the last block is ragged and the SIMD lanes leave a scalar remainder.
#[test]
fn fused_kernel_matches_split_engine_across_the_matrix() {
    let n = 97;
    let rounds = 60;
    for costs in [latency_fleet(n, 11), tie_heavy_fleet(n)] {
        let reference = run_split_reference(&costs, rounds);
        for variant in KernelVariant::all() {
            let got = run_fused(&costs, rounds, variant, true);
            assert_same(&got, &reference, &format!("{variant:?}"));
        }
    }
}

/// The matrix where the lane-wise reductions run: n ∈ {512, 1031, 2177}
/// (one, two and four full lockstep groups of `SUM_BLOCK` blocks, the
/// last two with ragged tails) × {latency, linear, tie-heavy, equal-peak} ×
/// {Fused, Simd} × with and without per-round allocation reads.
#[test]
fn fused_kernel_matches_split_engine_where_the_lanes_run() {
    let rounds = 40;
    for n in [512, 1031, 2177] {
        for (fleet, costs) in [
            ("latency", latency_fleet(n, 13)),
            ("linear", linear_fleet(n, 17)),
            ("tie", tie_heavy_fleet(n)),
            ("peak", peak_fleet(n)),
        ] {
            let reference = run_split_reference(&costs, rounds);
            for variant in KernelVariant::all() {
                for reads in [true, false] {
                    let got = run_fused(&costs, rounds, variant, reads);
                    let tag = format!("n {n}, {fleet}, {variant:?}, reads {reads}");
                    assert_eq!(got.stragglers, reference.stragglers, "stragglers ({tag})");
                    assert_eq!(
                        got.global_cost_bits, reference.global_cost_bits,
                        "global costs ({tag})"
                    );
                    assert_eq!(got.alpha_bits, reference.alpha_bits, "alphas ({tag})");
                    let want = if reads {
                        &reference.share_bits[..]
                    } else {
                        &reference.share_bits[rounds - 1..]
                    };
                    assert_eq!(got.share_bits, want, "shares ({tag})");
                }
            }
        }
    }
}

/// Pipelining must be invisible at episode scale too: run the kernel
/// without mid-stream allocation reads across a horizon crossing two Σx
/// refresh intervals, and compare the end state and episode aggregates.
#[test]
fn fused_episode_aggregates_match_split_engine() {
    let n = 97;
    let rounds = 530; // Past 2 × TOTAL_REFRESH_INTERVAL.
    let costs = latency_fleet(n, 3);
    let mut split = Dolbie::new(n);
    let summary = dolbie_core::runner::run_episode_with_static_costs(&mut split, &costs, rounds);
    for variant in KernelVariant::all() {
        let mut fused = FusedDolbie::from_costs(&costs).unwrap().with_variant(variant);
        let got = fused.run(rounds);
        assert_eq!(got.total_cost.to_bits(), summary.total_cost.to_bits(), "{variant:?}");
        assert_eq!(
            got.final_global_cost.to_bits(),
            summary.final_global_cost.to_bits(),
            "{variant:?}"
        );
        assert_eq!(fused.stats(), split.stats(), "{variant:?}");
        for i in 0..n {
            assert_eq!(
                fused.allocation().share(i).to_bits(),
                split.allocation().share(i).to_bits(),
                "worker {i} ({variant:?})"
            );
        }
    }
}

/// Membership epochs: a leave, a second leave, and a rejoin mid-episode.
/// The reference drives the split engine through `from_costs_masked`; the
/// kernel crosses the same boundaries via `apply_membership`, right after
/// a pipelined step, which must discard the costs that step folded at the
/// old shares. The fused loop runs in two modes: with per-round
/// allocation reads (per-round share bits compared), and without.
///
/// Masked rounds fold scalar, group by group. At n = 41 the fleet is one
/// partial `GROUP`; at n = 1 031 it is two full groups and a ragged
/// third, and the workers that leave sit on both sides of the first group
/// boundary (511, 512) and in the scalar tail (1 030).
#[test]
fn fused_kernel_matches_split_engine_through_membership_epochs() {
    // Per fleet size: the workers outside the membership from round 20,
    // from round 35, and from round 60 (a rejoin) on.
    let cases: [(usize, [&[usize]; 3]); 2] =
        [(41, [&[3], &[3, 0], &[0]]), (1031, [&[511, 512], &[511, 512, 1030], &[1030]])];
    for (n, out) in cases {
        membership_epochs_case(n, out);
    }
}

fn membership_epochs_case(n: usize, out: [&[usize]; 3]) {
    let rounds = 90;
    let costs = latency_fleet(n, 29);
    let boundary = |t: usize| -> Option<Vec<bool>> {
        let k = [20, 35, 60].iter().position(|&r| r == t)?;
        Some((0..n).map(|i| !out[k].contains(&i)).collect())
    };

    let mut members = vec![true; n];
    let mut split = Dolbie::new(n);
    let mut reference = Trajectory {
        share_bits: Vec::new(),
        stragglers: Vec::new(),
        global_cost_bits: Vec::new(),
        alpha_bits: Vec::new(),
    };
    for t in 0..rounds {
        if let Some(m) = boundary(t) {
            members = m;
            split.apply_membership(&members);
        }
        let played = split.allocation().clone();
        let obs = Observation::from_costs_masked(t, &played, &costs, &members, Vec::new());
        reference.stragglers.push(obs.straggler());
        reference.global_cost_bits.push(obs.global_cost().to_bits());
        split.observe(&obs);
        reference.share_bits.push(split.allocation().iter().map(|v| v.to_bits()).collect());
    }
    reference.alpha_bits = split.alphas_used().iter().map(|a| a.to_bits()).collect();

    for variant in KernelVariant::all() {
        for read_each_round in [true, false] {
            let mut fused = FusedDolbie::from_costs(&costs).unwrap().with_variant(variant);
            let mut got = Trajectory {
                share_bits: Vec::new(),
                stragglers: Vec::new(),
                global_cost_bits: Vec::new(),
                alpha_bits: Vec::new(),
            };
            for t in 0..rounds {
                if let Some(m) = boundary(t) {
                    fused.apply_membership(&m);
                }
                let round = fused.step();
                got.stragglers.push(round.straggler);
                got.global_cost_bits.push(round.global_cost.to_bits());
                if read_each_round {
                    got.share_bits.push(fused.allocation().iter().map(|v| v.to_bits()).collect());
                }
            }
            got.alpha_bits = fused.alphas_used().iter().map(|a| a.to_bits()).collect();
            let final_bits: Vec<u64> = fused.allocation().iter().map(|v| v.to_bits()).collect();
            let tag = format!("n {n}, {variant:?}, reads {read_each_round}");
            assert_eq!(got.stragglers, reference.stragglers, "stragglers ({tag})");
            assert_eq!(got.global_cost_bits, reference.global_cost_bits, "costs ({tag})");
            assert_eq!(got.alpha_bits, reference.alpha_bits, "alpha schedule ({tag})");
            if read_each_round {
                assert_eq!(got.share_bits, reference.share_bits, "shares ({tag})");
            } else {
                assert_eq!(
                    &final_bits,
                    reference.share_bits.last().unwrap(),
                    "final shares ({tag})"
                );
            }
        }
    }

    let sum = pairwise_neumaier_sum(split.allocation().as_slice());
    assert!((sum - 1.0).abs() < 1e-12, "n {n}: |Σx − 1| = {:e}", (sum - 1.0).abs());
}

/// Workers of the exact-arithmetic tie fleet: one straggler at share 1/2
/// and `TIE_N − 1` = 1 024 workers at 1/2048, so the fleet fills two
/// whole lane groups plus a one-worker scalar tail (n mod 4 = 1).
const TIE_N: usize = 1025;

/// A fleet whose round-0 straggler is `s` and whose pinned straggler
/// cost at round 1 ties worker `tie` exactly, every value exact in
/// binary: `s` costs `x` (slope 1), every other worker a constant, so
/// each gains `α·(1 − 1/2048)` with α = 2⁻¹²; the gains sum to
/// 2047/8192 and the pin lands `s` on 1/2 − 2047/8192 = 2049/8192 =
/// `tie`'s constant cost. The rest cost half of that.
fn pinned_tie_case(s: usize, tie: usize) -> (Vec<DynCost>, Allocation, DolbieConfig) {
    let level = 2049.0 / 8192.0;
    let costs = (0..TIE_N)
        .map(|i| {
            let f = match i {
                _ if i == s => LinearCost::new(1.0, 0.0),
                _ if i == tie => LinearCost::new(0.0, level),
                _ => LinearCost::new(0.0, level / 2.0),
            };
            Box::new(f) as DynCost
        })
        .collect();
    let shares = (0..TIE_N).map(|i| if i == s { 0.5 } else { 1.0 / 2048.0 }).collect();
    let initial = Allocation::new(shares).expect("the shares sum to 1 exactly");
    (costs, initial, DolbieConfig::new().with_initial_alpha(1.0 / 4096.0))
}

/// The pipelined tail leaves the straggler out of the fold and combines
/// its pinned cost by value, then lowest index. The straggler sits at
/// every lane position (4–7), on both sides of the `GROUP` boundary
/// (511–513), at the end of a group (1023) and in the scalar tail
/// (1024); its pinned cost ties a lower-index worker (which must win
/// round 1) and a higher-index worker (which must lose it), in the same
/// group, across a group boundary and at the fleet's ends.
#[test]
fn pinned_straggler_ties_resolve_to_the_lowest_index_wherever_it_sits() {
    let rounds = 6;
    for s in [4usize, 5, 6, 7, 511, 512, 513, 1023, 1024] {
        let lower = [Some(0), s.checked_sub(1), s.checked_sub(4)];
        let higher = [Some(s + 1), Some(s + 4), Some(TIE_N - 1)];
        for tie in lower.into_iter().chain(higher).flatten() {
            if tie == s || tie >= TIE_N {
                continue;
            }
            let (costs, initial, config) = pinned_tie_case(s, tie);
            let reference = run_split(Dolbie::with_config(initial.clone(), config), &costs, rounds);
            assert_eq!(reference.stragglers[0], s, "round-0 straggler (s {s}, tie {tie})");
            assert_eq!(
                reference.stragglers[1],
                s.min(tie),
                "the construction ties s {s} with {tie} at round 1"
            );
            for variant in KernelVariant::all() {
                let slab = CostSlab::from_costs(&costs).expect("a linear slab");
                let d = FusedDolbie::with_config(slab, initial.clone(), config);
                let got = play_fused(d, rounds, variant, true);
                assert_same(&got, &reference, &format!("s {s}, tie {tie}, {variant:?}"));
            }
        }
    }
}

/// A guard rescale on a Σx-refresh round (round index 255): the sweep
/// runs again with the rescaled gains, the refresh reads the shares the
/// second sweep wrote, and the ordinary rounds after it (the guard stops
/// firing after round 257 on this fleet) start from the folded costs of
/// the rescaled shares. Shares are read between every pair of steps.
#[test]
fn guard_rescale_on_a_refresh_round_matches_split_engine() {
    let n = 1031;
    let rounds = 300;
    let costs = latency_fleet(n, 77);
    let config = DolbieConfig::new().with_alpha_floor(0.00146);
    let mut split = Dolbie::with_config(Allocation::uniform(n), config);
    let mut fired = Vec::new();
    for t in 0..rounds {
        let before = split.stats().guard_activations;
        let played = split.allocation().clone();
        split.observe(&Observation::from_costs(t, &played, &costs));
        fired.push(split.stats().guard_activations > before);
    }
    assert!(fired[255], "the guard must fire on the refresh round");
    assert!(!fired[258] && !fired[259], "ordinary rounds must follow it");
    let reference = run_split(Dolbie::with_config(Allocation::uniform(n), config), &costs, rounds);
    for variant in KernelVariant::all() {
        let slab = CostSlab::from_costs(&costs).expect("a latency slab");
        let d = FusedDolbie::with_config(slab, Allocation::uniform(n), config);
        let got = play_fused(d, rounds, variant, true);
        assert_same(&got, &reference, &format!("{variant:?}"));
    }
}
