//! Figure 11: average time spent per worker (computation, communication,
//! waiting) and the decision-overhead box statistics.

use crate::common::{cluster_suite, emit_csv, paper_cluster, reduction_pct, ALGORITHM_ORDER};
use dolbie_core::parallel;
use dolbie_metrics::{Summary, Table};
use dolbie_mlsim::{run_training, MlModel, TrainingConfig};

const ROUNDS: usize = 100;

/// Fig. 11: both panels.
pub fn fig11(quick: bool) {
    let realizations = if quick { 10 } else { 100 };
    println!(
        "== Fig. 11: average time per worker over {ROUNDS} rounds ({realizations} realizations) =="
    );

    // Accumulate mean breakdowns and idle times per algorithm. Each
    // (seed, algorithm) cell is independent; the harness fans the grid out
    // and hands results back in the sequential seed-major order.
    let n_algs = ALGORITHM_ORDER.len();
    let mut compute = vec![Vec::new(); n_algs];
    let mut comm = vec![Vec::new(); n_algs];
    let mut wait = vec![Vec::new(); n_algs];
    let mut overhead: Vec<Vec<f64>> = vec![Vec::new(); n_algs];
    let flat = parallel::parallel_map(realizations * n_algs, |i| {
        let seed = (i / n_algs) as u64;
        let k = i % n_algs;
        let cluster = paper_cluster(MlModel::ResNet18, seed);
        let mut balancer = cluster_suite(&cluster).swap_remove(k);
        let o = run_training(balancer.as_mut(), cluster, TrainingConfig::latency_only(ROUNDS));
        let mean = o.utilization.mean_breakdown();
        (mean.computation, mean.communication, mean.waiting, o.overhead_micros)
    });
    for (i, (c, m, w, micros)) in flat.into_iter().enumerate() {
        let k = i % n_algs;
        compute[k].push(c);
        comm[k].push(m);
        wait[k].push(w);
        overhead[k].extend(micros);
    }

    let mut table = Table::new(vec![
        "algorithm",
        "computation_s",
        "communication_s",
        "waiting_s",
        "utilization",
        "overhead_us_min",
        "overhead_us_q1",
        "overhead_us_median",
        "overhead_us_q3",
        "overhead_us_max",
    ]);
    println!("  upper panel — mean seconds per worker (computation / communication / waiting):");
    let mut idle_means = vec![0.0; n_algs];
    for k in 0..n_algs {
        let c = Summary::from_samples(&compute[k]).mean();
        let m = Summary::from_samples(&comm[k]).mean();
        let w = Summary::from_samples(&wait[k]).mean();
        idle_means[k] = w;
        let util = (c + m) / (c + m + w);
        let ov = Summary::from_samples(&overhead[k]);
        let (omin, oq1, omed, oq3, omax) = ov.box_stats();
        println!(
            "    {:8} {c:8.2} / {m:8.2} / {w:8.2}  (utilization {:5.1}%)",
            ALGORITHM_ORDER[k],
            util * 100.0
        );
        table.push_row(vec![
            ALGORITHM_ORDER[k].to_string(),
            format!("{c:.4}"),
            format!("{m:.4}"),
            format!("{w:.4}"),
            format!("{util:.4}"),
            format!("{omin:.3}"),
            format!("{oq1:.3}"),
            format!("{omed:.3}"),
            format!("{oq3:.3}"),
            format!("{omax:.3}"),
        ]);
    }
    emit_csv(&table, "fig11_utilization");

    println!("  lower panel — decision overhead per round (microseconds, median [q1, q3]):");
    for k in 0..n_algs {
        let ov = Summary::from_samples(&overhead[k]);
        let (_, q1, med, q3, _) = ov.box_stats();
        println!("    {:8} {med:9.3} [{q1:9.3}, {q3:9.3}]", ALGORITHM_ORDER[k]);
    }

    let dolbie_idx = 4;
    println!("  DOLBIE idle-time reduction (paper: 84.6/71.1/67.2/42.8% vs EQU/OGD/LB-BSP/ABS):");
    for name in ["EQU", "OGD", "LB-BSP", "ABS"] {
        let idx = ALGORITHM_ORDER.iter().position(|a| a == &name).unwrap();
        println!(
            "    vs {:8} {:5.1}%",
            name,
            reduction_pct(idle_means[idx], idle_means[dolbie_idx])
        );
    }
}
