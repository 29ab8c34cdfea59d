//! Exhaustive bitwise-parity matrix for the fused/SIMD round kernel.
//!
//! The tentpole determinism claim of the kernel
//! ([`dolbie_core::kernel`]): for every cost stream, chunk size, thread
//! count, kernel variant and membership mask, the fused engine's
//! trajectory — per-round shares, straggler ids, the α schedule, the
//! update counters — is **bitwise identical** to the sequential split
//! engine ([`Dolbie`]). The reference trajectories here are produced by
//! the plain `Dolbie` + `Observation` path, so any fusion, deferral,
//! blocking or SIMD bug that moves a single bit fails the matrix.

use dolbie_core::cost::{DynCost, LatencyCost, LinearCost};
use dolbie_core::kernel::{FusedDolbie, KernelVariant};
use dolbie_core::parallel::set_threads;
use dolbie_core::{pairwise_neumaier_sum, Dolbie, LoadBalancer, Observation};

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
    let mut d = Dolbie::new(costs.len());
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

/// Plays the fused kernel. With `reads`, the shares are read after every
/// round; without, the deferred tail spans rounds and only the final
/// shares are recorded.
fn run_fused(
    costs: &[DynCost],
    rounds: usize,
    variant: KernelVariant,
    chunk: Option<usize>,
    reads: bool,
) -> Trajectory {
    let mut d = FusedDolbie::from_costs(costs).expect("fleet has a slab layout");
    d = d.with_variant(variant);
    if let Some(c) = chunk {
        d = d.with_chunk_size(c);
    }
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
        // Reading the allocation every round forces the deferred tail to
        // materialize mid-stream — the hardest schedule for the kernel.
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

/// The full matrix: {latency, tie-heavy} × {Fused, Simd} ×
/// chunk {None, 1, 7, 64, N} × threads {1, 4}, n prime so every chunk
/// size leaves a ragged tail (and the SIMD lanes a scalar remainder).
#[test]
fn fused_kernel_matches_split_engine_across_the_matrix() {
    let n = 97;
    let rounds = 60;
    for costs in [latency_fleet(n, 11), tie_heavy_fleet(n)] {
        let reference = run_split_reference(&costs, rounds);
        for variant in [KernelVariant::Fused, KernelVariant::Simd] {
            for chunk in [None, Some(1usize), Some(7), Some(64), Some(n)] {
                for threads in [1usize, 4] {
                    set_threads(threads);
                    let got = run_fused(&costs, rounds, variant, chunk, true);
                    set_threads(0);
                    let tag = format!("{variant:?}, chunk {chunk:?}, threads {threads}");
                    assert_eq!(got.stragglers, reference.stragglers, "stragglers ({tag})");
                    assert_eq!(
                        got.global_cost_bits, reference.global_cost_bits,
                        "global costs ({tag})"
                    );
                    assert_eq!(got.alpha_bits, reference.alpha_bits, "alpha schedule ({tag})");
                    assert_eq!(got.share_bits, reference.share_bits, "shares ({tag})");
                }
            }
        }
    }
}

/// The matrix where the lane-wise reductions run: n ∈ {512, 1031, 2177}
/// (one, two and four full lockstep groups of `SUM_BLOCK` blocks, the
/// last two with ragged tails) × {latency, tie-heavy, equal-peak} ×
/// {Fused, Simd} × chunk {None, 7, 640} × threads {1, 4} × with and
/// without per-round allocation reads.
#[test]
fn fused_kernel_matches_split_engine_where_the_lanes_run() {
    let rounds = 40;
    for n in [512, 1031, 2177] {
        for (fleet, costs) in [
            ("latency", latency_fleet(n, 13)),
            ("tie", tie_heavy_fleet(n)),
            ("peak", peak_fleet(n)),
        ] {
            let reference = run_split_reference(&costs, rounds);
            for variant in [KernelVariant::Fused, KernelVariant::Simd] {
                for chunk in [None, Some(7usize), Some(640)] {
                    for threads in [1usize, 4] {
                        for reads in [true, false] {
                            set_threads(threads);
                            let got = run_fused(&costs, rounds, variant, chunk, reads);
                            set_threads(0);
                            let tag = format!(
                                "n {n}, {fleet}, {variant:?}, chunk {chunk:?}, threads {threads}, \
                                 reads {reads}"
                            );
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
    }
}

/// Deferred application must be invisible at episode scale too: run the
/// kernel without mid-stream allocation reads (so the deferral actually
/// spans rounds) across a horizon crossing two Σx refresh intervals, and
/// compare the end state and episode aggregates.
#[test]
fn fused_episode_aggregates_match_split_engine() {
    let n = 97;
    let rounds = 530; // Past 2 × TOTAL_REFRESH_INTERVAL.
    let costs = latency_fleet(n, 3);
    let mut split = Dolbie::new(n);
    let summary =
        dolbie_core::runner::run_episode_with_static_costs(&mut split, &costs, rounds, None);
    for variant in [KernelVariant::Fused, KernelVariant::Simd] {
        for chunk in [None, Some(64)] {
            let mut fused = FusedDolbie::from_costs(&costs).unwrap().with_variant(variant);
            if let Some(c) = chunk {
                fused = fused.with_chunk_size(c);
            }
            let got = fused.run(rounds);
            let tag = format!("{variant:?}, chunk {chunk:?}");
            assert_eq!(got.total_cost.to_bits(), summary.total_cost.to_bits(), "{tag}");
            assert_eq!(
                got.final_global_cost.to_bits(),
                summary.final_global_cost.to_bits(),
                "{tag}"
            );
            assert_eq!(fused.stats(), split.stats(), "{tag}");
            for i in 0..n {
                assert_eq!(
                    fused.allocation().share(i).to_bits(),
                    split.allocation().share(i).to_bits(),
                    "worker {i} ({tag})"
                );
            }
        }
    }
}

/// Membership epochs: a leave, a second leave, and a rejoin mid-episode.
/// The reference drives the split engine through `from_costs_masked`; the
/// kernel crosses the same boundaries via `apply_membership`, which must
/// materialize its deferred state first. The fused loop runs in two
/// modes: with per-round allocation reads (per-round share bits
/// compared), and without (so each epoch boundary genuinely arrives with
/// the previous round's tail still deferred, making the
/// materialize-before-renormalize ordering load-bearing).
#[test]
fn fused_kernel_matches_split_engine_through_membership_epochs() {
    let n = 41;
    let rounds = 90;
    let costs = latency_fleet(n, 29);
    let boundary = |t: usize| -> Option<Vec<bool>> {
        match t {
            20 => Some((0..n).map(|i| i != 3).collect()),
            35 => Some((0..n).map(|i| i != 3 && i != 0).collect()),
            60 => Some((0..n).map(|i| i != 0).collect()),
            _ => None,
        }
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

    for variant in [KernelVariant::Fused, KernelVariant::Simd] {
        for chunk in [None, Some(7usize)] {
            for threads in [1usize, 4] {
                for read_each_round in [true, false] {
                    set_threads(threads);
                    let mut fused = FusedDolbie::from_costs(&costs).unwrap().with_variant(variant);
                    if let Some(c) = chunk {
                        fused = fused.with_chunk_size(c);
                    }
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
                            got.share_bits
                                .push(fused.allocation().iter().map(|v| v.to_bits()).collect());
                        }
                    }
                    got.alpha_bits = fused.alphas_used().iter().map(|a| a.to_bits()).collect();
                    let final_bits: Vec<u64> =
                        fused.allocation().iter().map(|v| v.to_bits()).collect();
                    set_threads(0);
                    let tag = format!(
                        "{variant:?}, chunk {chunk:?}, threads {threads}, reads {read_each_round}"
                    );
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
        }
    }

    let sum = pairwise_neumaier_sum(split.allocation().as_slice());
    assert!((sum - 1.0).abs() < 1e-12, "|Σx − 1| = {:e}", (sum - 1.0).abs());
}
