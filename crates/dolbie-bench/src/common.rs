//! Shared plumbing for the figure-regeneration experiments.

use dolbie_baselines::paper_suite;
use dolbie_core::fingerprint::mix64;
use dolbie_core::LoadBalancer;
use dolbie_metrics::{plot, Table};
use dolbie_mlsim::{
    run_training, Cluster, ClusterConfig, MlModel, TrainingConfig, TrainingOutcome,
};
use dolbie_net::shard::{
    run_sharded_loopback, twin_allocations, RootReport, ShardedConfig, ShardedLoopbackRun,
};
use std::path::{Path, PathBuf};

/// The algorithm display order used throughout the paper's figures.
pub const ALGORITHM_ORDER: [&str; 6] = ["EQU", "OGD", "ABS", "LB-BSP", "DOLBIE", "OPT"];

/// The workspace root (two levels above this crate's manifest), or the
/// current directory when run elsewhere.
pub fn workspace_root() -> PathBuf {
    // When run via `cargo run -p dolbie-bench`, CARGO_MANIFEST_DIR points
    // at crates/dolbie-bench; the workspace root is two levels up.
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
}

/// The CPUs this process may run on, as the BENCH JSON files record them.
pub fn cpu_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPU baseline this binary was compiled for: `"x86-64-v3"` under the
/// repo's `.cargo/config.toml` (AVX2), `"x86-64"` for a portable SSE2
/// build, and the bare architecture name elsewhere. Recorded next to
/// `cpu_cores`, so timings from the two x86 builds are never compared
/// unmarked.
pub fn target_cpu() -> &'static str {
    if cfg!(target_feature = "avx2") {
        "x86-64-v3"
    } else if cfg!(target_arch = "x86_64") {
        "x86-64"
    } else {
        std::env::consts::ARCH
    }
}

/// The host lines every BENCH JSON file opens with: `cpu_cores` and
/// `target_cpu`, each indented two spaces and ending in `,\n`.
pub fn host_json_fields() -> String {
    format!("  \"cpu_cores\": {},\n  \"target_cpu\": \"{}\",\n", cpu_cores(), target_cpu())
}

/// Where experiment CSVs are written (`results/` under the workspace root,
/// or the current directory when run elsewhere).
pub fn results_dir() -> PathBuf {
    workspace_root().join("results")
}

/// Samples the paper's cluster (`N = 30`, `B = 256`) for `model`.
pub fn paper_cluster(model: MlModel, seed: u64) -> Cluster {
    Cluster::sample(ClusterConfig::paper(model), seed)
}

/// The §VI comparison suite for a given cluster realization.
pub fn cluster_suite(cluster: &Cluster) -> Vec<Box<dyn LoadBalancer>> {
    paper_suite(dolbie_core::Environment::num_workers(cluster), cluster.clone())
}

/// Runs the whole suite on one cluster realization, returning outcomes in
/// [`ALGORITHM_ORDER`]. The six algorithms run in parallel (each gets its
/// own copy of the cluster, so this is exactly the sequential computation
/// fanned out).
pub fn run_suite(cluster: &Cluster, config: TrainingConfig) -> Vec<TrainingOutcome> {
    dolbie_core::parallel::parallel_map(ALGORITHM_ORDER.len(), |k| {
        let mut balancer = cluster_suite(cluster).swap_remove(k);
        run_training(balancer.as_mut(), cluster.clone(), config)
    })
}

/// The name a run's artifacts take: `<name>_quick` for a `--quick` run,
/// so a smoke never overwrites the full run's committed output.
pub fn artifact(name: &str, quick: bool) -> String {
    if quick {
        format!("{name}_quick")
    } else {
        name.to_owned()
    }
}

/// Writes `table` to `results/<name>.csv` and reports the path on stdout.
pub fn emit_csv(table: &Table, name: &str) {
    let path = results_dir().join(format!("{name}.csv"));
    match table.write_csv(&path) {
        Ok(()) => println!("  wrote {}", path.display()),
        Err(e) => eprintln!("  failed to write {}: {e}", path.display()),
    }
}

/// Writes an SVG chart to `results/<name>.svg` and reports the path.
pub fn emit_svg(name: &str, config: &plot::PlotConfig, series: &[plot::Series]) {
    let path = results_dir().join(format!("{name}.svg"));
    match plot::write_svg(&path, config, series) {
        Ok(()) => println!("  wrote {}", path.display()),
        Err(e) => eprintln!("  failed to write {}: {e}", path.display()),
    }
}

/// Runs the TCP tree over loopback and asserts it completed the horizon
/// without an epoch, its trajectory bitwise the sequential engine's.
/// Panicking here is deliberate: a CSV row claiming parity that does not
/// hold would be worse than no row.
pub fn run_tree_bitwise(cfg: &ShardedConfig) -> ShardedLoopbackRun {
    let (n, m) = (cfg.num_workers, cfg.num_shards);
    let run = run_sharded_loopback(cfg).expect("loopback TCP tree");
    assert_eq!(run.root.rounds.len(), cfg.rounds);
    assert!(run.root.epochs.is_empty(), "no worker may be lost to connect or deadline pressure");
    let (stitched, twin) = (run.allocations(), twin_allocations(cfg, &[]));
    assert_eq!(stitched.len(), twin.len());
    for (t, (net, seq)) in stitched.iter().zip(&twin).enumerate() {
        assert_eq!(net.len(), n);
        for (i, (x, y)) in net.iter().zip(seq).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "N = {n}, M = {m}: round {t}, worker {i} diverged from the sequential engine"
            );
        }
    }
    run
}

/// Steady-state rounds per second of a tree run: rounds 1..T from the
/// root's per-round commit stamps. Round 0 is left out because it
/// absorbs the shard-masters' worker admission (the root's clock starts
/// once the backbone is up).
pub fn steady_rounds_per_s(root: &RootReport) -> f64 {
    let stamps: Vec<f64> = root.rounds.iter().map(|r| r.elapsed).collect();
    assert!(stamps.len() >= 2, "a steady-state rate needs at least two rounds");
    (stamps.len() - 1) as f64 / (stamps[stamps.len() - 1] - stamps[0]).max(1e-9)
}

/// The seeded case hash the chaos sweeps derive every case field from:
/// a pure function of `(seed, salt)`, so any case regenerates alone.
pub fn hash(seed: u64, salt: u64) -> u64 {
    mix64(seed ^ mix64(salt))
}

/// Maps a hash to `[0, 1)` by its top 53 bits.
pub fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Percentage reduction of `ours` relative to `baseline`.
pub fn reduction_pct(baseline: f64, ours: f64) -> f64 {
    if baseline <= 0.0 {
        return 0.0;
    }
    (baseline - ours) / baseline * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_order_matches_constant() {
        let cluster = paper_cluster(MlModel::ResNet18, 1);
        let suite = cluster_suite(&cluster);
        let names: Vec<&str> = suite.iter().map(|b| b.name()).collect();
        assert_eq!(names, ALGORITHM_ORDER);
    }

    #[test]
    fn run_suite_produces_one_outcome_per_algorithm() {
        let mut cfg = ClusterConfig::paper(MlModel::LeNet5);
        cfg.num_workers = 4;
        let cluster = Cluster::sample(cfg, 2);
        let outcomes = run_suite(&cluster, TrainingConfig::latency_only(5));
        assert_eq!(outcomes.len(), 6);
        for (o, name) in outcomes.iter().zip(ALGORITHM_ORDER) {
            assert_eq!(o.algorithm, name);
            assert_eq!(o.rounds.len(), 5);
        }
    }

    #[test]
    fn reduction_pct_hand_check() {
        assert_eq!(reduction_pct(2.0, 1.0), 50.0);
        assert_eq!(reduction_pct(0.0, 1.0), 0.0);
    }

    #[test]
    fn quick_artifacts_take_a_suffix() {
        assert_eq!(artifact("chaos_invariants", true), "chaos_invariants_quick");
        assert_eq!(artifact("chaos_invariants", false), "chaos_invariants");
    }

    #[test]
    fn results_dir_is_workspace_level() {
        let dir = results_dir();
        assert!(dir.ends_with("results"));
    }
}
