//! Figures 3–5: per-round and cumulative latency of the six algorithms.

use crate::common::{
    cluster_suite, emit_csv, emit_svg, paper_cluster, reduction_pct, run_suite, ALGORITHM_ORDER,
};
use dolbie_core::parallel;
use dolbie_metrics::plot::{PlotConfig, Series};
use dolbie_metrics::{per_round_summaries, Table};
use dolbie_mlsim::run_training;
use dolbie_mlsim::{MlModel, TrainingConfig};

const ROUNDS: usize = 100;

/// Fig. 3: one realization of the per-round latency when training
/// ResNet18, all six algorithms, plus the paper's headline "by round 40"
/// reductions.
pub fn fig3() {
    println!("== Fig. 3: per-round latency, one realization (ResNet18, N = 30, B = 256) ==");
    let cluster = paper_cluster(MlModel::ResNet18, 42);
    let outcomes = run_suite(&cluster, TrainingConfig::latency_only(ROUNDS));

    let mut columns = vec!["round".to_string()];
    columns.extend(ALGORITHM_ORDER.iter().map(|s| s.to_string()));
    let mut table = Table::new(columns);
    for t in 0..ROUNDS {
        let mut row = vec![t as f64];
        row.extend(outcomes.iter().map(|o| o.rounds[t].global_latency));
        table.push_numeric_row(&row);
    }
    emit_csv(&table, "fig3_per_round_latency");
    let series: Vec<Series> =
        outcomes.iter().map(|o| Series::from_values(o.algorithm.clone(), &o.latencies())).collect();
    emit_svg(
        "fig3_per_round_latency",
        &PlotConfig::new("Fig. 3: per-round latency (ResNet18)", "round", "latency (s)")
            .with_log_y(),
        &series,
    );

    // The paper reports reductions at round 40 of DOLBIE vs EQU/OGD/LB-BSP/ABS.
    let at = 40.min(ROUNDS - 1);
    let dolbie = outcomes[4].rounds[at].global_latency;
    println!("  per-round latency at round {at}:");
    for o in &outcomes {
        println!("    {:8} {:.4} s", o.algorithm, o.rounds[at].global_latency);
    }
    println!(
        "  DOLBIE reduction at round {at} (paper: 89.6/82.2/67.4/47.6% vs EQU/OGD/LB-BSP/ABS):"
    );
    for name in ["EQU", "OGD", "LB-BSP", "ABS"] {
        let base = outcomes
            .iter()
            .find(|o| o.algorithm == name)
            .map(|o| o.rounds[at].global_latency)
            .unwrap();
        println!("    vs {:8} {:5.1}%", name, reduction_pct(base, dolbie));
    }
}

/// Shared engine of Figs. 4–5: mean ± CI latency series over repeated
/// cluster realizations. Public so the determinism regression test can run
/// it at a small realization count under different thread settings.
pub fn ci_figure(cumulative: bool, name: &str, title: &str, realizations: usize) {
    println!("== {title} ({realizations} realizations of processor sampling) ==");
    // One latency series per algorithm per realization. Every
    // (seed, algorithm) pair is independent, so the whole grid fans out
    // over the harness; collection order matches the sequential
    // seed-major loop exactly.
    let n_algs = ALGORITHM_ORDER.len();
    let flat = parallel::parallel_map(realizations * n_algs, |i| {
        let seed = (i / n_algs) as u64;
        let k = i % n_algs;
        let cluster = paper_cluster(MlModel::ResNet18, seed);
        let mut balancer = cluster_suite(&cluster).swap_remove(k);
        let outcome =
            run_training(balancer.as_mut(), cluster, TrainingConfig::latency_only(ROUNDS));
        let mut s = outcome.latencies();
        if cumulative {
            let mut acc = 0.0;
            for v in &mut s {
                acc += *v;
                *v = acc;
            }
        }
        s
    });
    let mut series: Vec<Vec<Vec<f64>>> = vec![Vec::new(); n_algs];
    for (i, s) in flat.into_iter().enumerate() {
        series[i % n_algs].push(s);
    }

    let mut columns = vec!["round".to_string()];
    for alg in ALGORITHM_ORDER {
        columns.push(format!("{alg}_mean"));
        columns.push(format!("{alg}_ci95"));
    }
    let mut table = Table::new(columns);
    let summaries: Vec<_> = series.iter().map(|s| per_round_summaries(s)).collect();
    for t in 0..ROUNDS {
        let mut row = vec![t as f64];
        for alg in &summaries {
            row.push(alg[t].mean());
            row.push(alg[t].ci95_half_width());
        }
        table.push_numeric_row(&row);
    }
    emit_csv(&table, name);
    let svg_series: Vec<Series> = ALGORITHM_ORDER
        .iter()
        .zip(&summaries)
        .map(|(alg, s)| {
            let means: Vec<f64> = s.iter().map(|v| v.mean()).collect();
            let bands: Vec<f64> = s.iter().map(|v| v.ci95_half_width()).collect();
            Series::from_values(alg.to_string(), &means).with_band(bands)
        })
        .collect();
    emit_svg(name, &PlotConfig::new(title, "round", "latency (s)").with_log_y(), &svg_series);

    let last = ROUNDS - 1;
    println!(
        "  round {last} ({} latency), mean ± 95% CI:",
        if cumulative { "cumulative" } else { "per-round" }
    );
    for (alg, s) in ALGORITHM_ORDER.iter().zip(&summaries) {
        println!("    {:8} {:9.4} ± {:.4} s", alg, s[last].mean(), s[last].ci95_half_width());
    }
}

/// Fig. 4: per-round latency with 95% confidence intervals over repeated
/// realizations of the processor sampling.
pub fn fig4(quick: bool) {
    ci_figure(
        false,
        "fig4_per_round_latency_ci",
        "Fig. 4: per-round latency with 95% CI",
        if quick { 10 } else { 100 },
    );
}

/// Fig. 5: cumulative training latency with 95% confidence intervals.
pub fn fig5(quick: bool) {
    ci_figure(
        true,
        "fig5_cumulative_latency_ci",
        "Fig. 5: cumulative latency with 95% CI",
        if quick { 10 } else { 100 },
    );
}
