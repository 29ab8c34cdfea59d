//! Experiment E1: the edge-computing task-offloading scenario (§III-B).

use crate::common::{artifact, emit_csv, ALGORITHM_ORDER};
use dolbie_baselines::paper_suite;
use dolbie_core::parallel;
use dolbie_core::{run_episode, EpisodeOptions};
use dolbie_edge::{EdgeConfig, EdgeScenario};
use dolbie_metrics::{Summary, Table};

/// Runs the full §VI algorithm suite on the offloading scenario across
/// repeated realizations, reporting total task-completion time.
pub fn edge(quick: bool) {
    let realizations = if quick { 10 } else { 50 };
    const ROUNDS: usize = 100;
    println!(
        "== Example 2: task offloading, total completion time over {ROUNDS} rounds ({realizations} realizations) =="
    );

    // Every (seed, algorithm) pair replays its own scenario copy; fan the
    // grid out and refill `totals` in the sequential seed-major order.
    let n_algs = ALGORITHM_ORDER.len();
    let mut totals: Vec<Vec<f64>> = vec![Vec::new(); n_algs];
    let flat = parallel::parallel_map(realizations * n_algs, |i| {
        let seed = (i / n_algs) as u64;
        let k = i % n_algs;
        let env = EdgeScenario::sample(EdgeConfig::paper_like(), seed);
        let mut balancer = paper_suite(env.num_participants(), env.clone()).swap_remove(k);
        let mut driver = env;
        let trace = run_episode(balancer.as_mut(), &mut driver, EpisodeOptions::new(ROUNDS));
        trace.total_cost()
    });
    for (i, total) in flat.into_iter().enumerate() {
        totals[i % n_algs].push(total);
    }

    let mut table =
        Table::new(vec!["algorithm", "total_completion_mean_s", "total_completion_ci95_s"]);
    println!("  total completion time (mean ± 95% CI):");
    for (alg, samples) in ALGORITHM_ORDER.iter().zip(&totals) {
        let s = Summary::from_samples(samples);
        println!("    {:8} {:9.3} ± {:.3} s", alg, s.mean(), s.ci95_half_width());
        table.push_row(vec![
            alg.to_string(),
            format!("{:.4}", s.mean()),
            format!("{:.4}", s.ci95_half_width()),
        ]);
    }
    emit_csv(&table, &artifact("edge_offloading", quick));
}
