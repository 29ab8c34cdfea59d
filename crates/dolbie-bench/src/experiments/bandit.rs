//! Feedback models (extension experiment): DOLBIE under weakened
//! feedback.
//!
//! The paper assumes each worker observes its full local cost *function*
//! immediately after acting. Two library extensions relax that:
//! `dolbie-core::bandit` (only the realized cost value, with a
//! secant-estimated local model) and `dolbie-core::delayed` (observations
//! land `d` rounds late). This experiment quantifies the price of each on
//! the paper's ML cluster.

use crate::common::{artifact, emit_csv, paper_cluster};
use dolbie_core::parallel;
use dolbie_core::{BanditDolbie, DelayedDolbie, Dolbie, DolbieConfig, LoadBalancer};
use dolbie_metrics::{Summary, Table};
use dolbie_mlsim::{run_training, MlModel, TrainingConfig};

/// Compares full-information DOLBIE against the bandit and delayed
/// variants (and EQU as the no-learning anchor) across repeated cluster
/// realizations.
pub fn bandit(quick: bool) {
    let realizations = if quick { 10 } else { 50 };
    const ROUNDS: usize = 100;
    println!(
        "== Feedback models: full vs bandit vs delayed DOLBIE ({realizations} realizations) =="
    );

    let mut totals: Vec<(String, Vec<f64>)> = vec![
        ("EQU".into(), Vec::new()),
        ("DOLBIE".into(), Vec::new()),
        ("DOLBIE-bandit".into(), Vec::new()),
        ("DOLBIE-delayed(3)".into(), Vec::new()),
    ];
    // Every (seed, feedback-model) cell is independent; fan the grid out
    // and refill `totals` in the sequential seed-major order.
    let n_variants = totals.len();
    let flat = parallel::parallel_map(realizations * n_variants, |i| {
        let seed = (i / n_variants) as u64;
        let k = i % n_variants;
        let cluster = paper_cluster(MlModel::ResNet18, seed);
        let n = dolbie_core::Environment::num_workers(&cluster);
        let config = TrainingConfig::latency_only(ROUNDS);
        let mut balancer: Box<dyn LoadBalancer> = match k {
            0 => Box::new(dolbie_baselines::Equ::new(n)),
            1 => Box::new(Dolbie::with_config(
                dolbie_core::Allocation::uniform(n),
                DolbieConfig::new().with_initial_alpha(0.001),
            )),
            2 => Box::new(BanditDolbie::with_config(
                dolbie_core::Allocation::uniform(n),
                DolbieConfig::new().with_initial_alpha(0.001),
            )),
            _ => Box::new(DelayedDolbie::with_config(
                dolbie_core::Allocation::uniform(n),
                3,
                DolbieConfig::new().with_initial_alpha(0.001),
            )),
        };
        run_training(balancer.as_mut(), cluster, config).total_wall_clock()
    });
    for (i, total) in flat.into_iter().enumerate() {
        totals[i % n_variants].1.push(total);
    }

    let mut table = Table::new(vec!["algorithm", "wall_clock_mean_s", "wall_clock_ci95_s"]);
    println!("  total wall-clock over {ROUNDS} rounds (mean ± 95% CI):");
    let mut means = Vec::new();
    for (name, samples) in &totals {
        let s = Summary::from_samples(samples);
        println!("    {:14} {:9.2} ± {:.2} s", name, s.mean(), s.ci95_half_width());
        table.push_row(vec![
            name.clone(),
            format!("{:.4}", s.mean()),
            format!("{:.4}", s.ci95_half_width()),
        ]);
        means.push(s.mean());
    }
    emit_csv(&table, &artifact("bandit_feedback", quick));
    let bandit_price = (means[2] - means[1]) / means[1] * 100.0;
    let delay_price = (means[3] - means[1]) / means[1] * 100.0;
    println!(
        "  price of bandit feedback: {bandit_price:+.1}%; of a 3-round delay: {delay_price:+.1}%\n  \
         wall-clock vs full information (all variants stay far ahead of EQU; the secant\n  \
         model is exact for the affine latency costs once two shares have been played)."
    );
}
