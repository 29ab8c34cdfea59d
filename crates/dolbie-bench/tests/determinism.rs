//! Regression test for the parallel experiment engine's determinism
//! guarantee: the CSV a figure writes must be byte-identical whether the
//! realization fan-out runs on one thread or several.

use dolbie_bench::common;
use dolbie_bench::experiments::{chaos, churn, latency};
use dolbie_core::parallel;

#[test]
fn parallel_figure_csv_is_byte_identical_to_sequential() {
    let read = |name: &str| {
        let path = common::results_dir().join(format!("{name}.csv"));
        let bytes =
            std::fs::read(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
        // Clean up both the CSV and the companion SVG.
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(common::results_dir().join(format!("{name}.svg")));
        bytes
    };

    parallel::set_threads(1);
    latency::ci_figure(false, "test_determinism_seq", "determinism regression (sequential)", 2);
    let sequential = read("test_determinism_seq");

    parallel::set_threads(4);
    latency::ci_figure(false, "test_determinism_par", "determinism regression (4 threads)", 2);
    parallel::set_threads(0);
    let parallel = read("test_determinism_par");

    assert!(!sequential.is_empty(), "figure produced an empty CSV");
    assert_eq!(sequential, parallel, "4-thread CSV bytes must match the sequential run exactly");
}

fn read_and_remove(name: &str) -> Vec<u8> {
    let path = common::results_dir().join(format!("{name}.csv"));
    let bytes = std::fs::read(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(common::results_dir().join(format!("{name}.svg")));
    bytes
}

#[test]
fn churn_recovery_csv_is_byte_identical_across_thread_counts() {
    parallel::set_threads(1);
    churn::churn_named("test_churn_det_seq");
    let sequential = read_and_remove("test_churn_det_seq");

    parallel::set_threads(4);
    churn::churn_named("test_churn_det_par");
    parallel::set_threads(0);
    let parallel = read_and_remove("test_churn_det_par");

    assert!(!sequential.is_empty(), "churn experiment produced an empty CSV");
    assert_eq!(sequential, parallel, "churn CSV bytes must match the sequential run exactly");
}

#[test]
fn chaos_sweep_csv_is_byte_identical_across_thread_counts() {
    parallel::set_threads(1);
    chaos::chaos_named(true, "test_chaos_det_seq");
    let sequential = read_and_remove("test_chaos_det_seq");

    parallel::set_threads(4);
    chaos::chaos_named(true, "test_chaos_det_par");
    parallel::set_threads(0);
    let parallel = read_and_remove("test_chaos_det_par");

    assert!(!sequential.is_empty(), "chaos sweep produced an empty CSV");
    assert_eq!(sequential, parallel, "chaos CSV bytes must match the sequential run exactly");
}
