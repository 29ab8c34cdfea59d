//! Experiment A1: ablation of the risk-averse step-size rule (eq. (7)).
//!
//! The paper's design hinges on the coordinated, diminishing step size:
//! it keeps the iterates feasible with no projection and keeps
//! non-stragglers from over-committing ("risk-averse"). This ablation
//! compares the paper's schedule against risk-seeking variants on the same
//! cluster realizations:
//!
//! - **paper** — eq. (7), initial `α` from the paper's formula;
//! - **fixed-α** — a constant step size (no tightening), relying on the
//!   in-engine feasibility guard;
//! - **aggressive** — `α = 1`: every non-straggler jumps straight to its
//!   maximum acceptable workload.

use crate::common::{emit_csv, paper_cluster};
use dolbie_core::parallel;
use dolbie_core::{Allocation, Dolbie, DolbieConfig};
use dolbie_metrics::{Summary, Table};
use dolbie_mlsim::{run_training, MlModel, TrainingConfig};

const ROUNDS: usize = 100;

/// Runs the ablation across repeated cluster realizations.
pub fn ablation(quick: bool) {
    let realizations = if quick { 10 } else { 50 };
    println!(
        "== Ablation: the risk-averse step-size rule of eq. (7) ({realizations} realizations) =="
    );

    let variants: Vec<(&str, DolbieConfig)> = vec![
        ("paper (eq. 7)", DolbieConfig::new()),
        ("fixed α=0.05", DolbieConfig::new().with_initial_alpha(0.05).with_alpha_floor(0.05)),
        ("fixed α=0.3", DolbieConfig::new().with_initial_alpha(0.3).with_alpha_floor(0.3)),
        ("aggressive α=1", DolbieConfig::new().with_initial_alpha(1.0).with_alpha_floor(1.0)),
    ];

    let mut table = Table::new(vec![
        "variant",
        "total_latency_mean_s",
        "total_latency_ci95_s",
        "worse_straggler_rounds",
        "guard_activations",
    ]);
    println!("  variant          total latency (mean ± CI)   worse-straggler rds  guard hits");
    for (name, config) in &variants {
        // Realizations are independent; fan them out and fold the results
        // back in seed order.
        let per_seed = parallel::parallel_map(realizations, |seed| {
            let cluster = paper_cluster(MlModel::ResNet18, seed as u64);
            let n = dolbie_core::Environment::num_workers(&cluster);
            let mut dolbie = Dolbie::with_config(Allocation::uniform(n), *config);
            let outcome = run_training(&mut dolbie, cluster, TrainingConfig::latency_only(ROUNDS));
            // A "worse straggler" event: the global latency jumped by more
            // than the ambient fluctuation (20%) over the previous round —
            // the risk the paper's rule is designed to avoid.
            let worse = outcome
                .rounds
                .windows(2)
                .filter(|w| w[1].global_latency > w[0].global_latency * 1.2)
                .count();
            (outcome.total_wall_clock(), worse, dolbie.stats().guard_activations)
        });
        let mut totals = Vec::new();
        let mut worse_rounds = 0usize;
        let mut guards = 0usize;
        for (total, worse, guard) in per_seed {
            totals.push(total);
            worse_rounds += worse;
            guards += guard;
        }
        let s = Summary::from_samples(&totals);
        println!(
            "  {name:16} {:9.2} ± {:7.2} s        {worse_rounds:6}              {guards:6}",
            s.mean(),
            s.ci95_half_width()
        );
        table.push_row(vec![
            name.to_string(),
            format!("{:.4}", s.mean()),
            format!("{:.4}", s.ci95_half_width()),
            worse_rounds.to_string(),
            guards.to_string(),
        ]);
    }
    emit_csv(&table, "ablation_step_size");
    println!(
        "  reading: the eq. (7) schedule is the only variant that is feasible *by design*\n  \
         (zero guard activations) and satisfies the non-increasing-α premise of Theorem 1;\n  \
         the risk-seeking variants converge faster here but lean on the engine's\n  \
         out-of-paper feasibility guard thousands of times and produce more\n  \
         worse-straggler rounds — the trade-off §IV-B is about."
    );
}
