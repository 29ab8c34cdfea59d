//! Experiment X2: large-N single-episode scaling across round kernels.
//!
//! For each fleet size N the experiment runs one episode over an
//! identical seeded heterogeneous latency fleet once per requested
//! kernel variant:
//!
//! - `split` — the sequential multi-pass `Dolbie` engine (the baseline
//!   and the bitwise reference for every other row),
//! - `fused` — the fused two-sweep kernel (`FusedDolbie`),
//! - `simd`  — the fused kernel with explicit four-wide lanes.
//!
//! Every fused/SIMD row asserts its episode aggregate, final shares and
//! α schedule are *bitwise* identical to the split reference, and records
//! worker-rounds/second, the share-buffer alignment and peak RSS.
//!
//! Output routing keeps the recorded baseline honest: the full sweep
//! (N up to 10^6 — the acceptance configuration) writes
//! `BENCH_large_n.json` at the workspace root; `--quick` runs a reduced
//! grid for the tier-1 smoke and writes `results/large_n_quick.json`
//! instead, never clobbering the recorded baseline. With `gate` set, the
//! quick run additionally enforces a throughput floor against the
//! recorded baseline (a >20% per-core regression fails tier-1).

use crate::common::{emit_csv, workspace_root};
use crate::harness;
use dolbie_core::cost::{DynCost, LatencyCost};
use dolbie_core::kernel::{FusedDolbie, KernelVariant};
use dolbie_core::{run_episode_with_static_costs, Dolbie, LoadBalancer};
use dolbie_metrics::Table;
use std::time::Instant;

/// Fraction of the recorded per-core baseline a gated quick run must
/// reach: a >20% regression fails tier-1.
const GATE_FLOOR: f64 = 0.8;

/// Which round engine one row measures: the split reference or a
/// [`FusedDolbie`] variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RowKernel {
    /// The sequential multi-pass [`Dolbie`] engine over
    /// `Box<dyn CostFunction>` — the baseline and the parity oracle.
    Split,
    /// The fused kernel in the given variant.
    Fused(KernelVariant),
}

impl RowKernel {
    /// Parses a CLI spelling (`"split"`, `"fused"`, `"simd"`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "split" => Some(Self::Split),
            other => KernelVariant::parse(other).map(Self::Fused),
        }
    }

    /// The lower-case name that [`parse`](Self::parse) accepts and BENCH
    /// rows record.
    pub fn name(self) -> &'static str {
        match self {
            Self::Split => "split",
            Self::Fused(variant) => variant.name(),
        }
    }

    /// Every row kernel, baseline first.
    pub fn all() -> [Self; 3] {
        let [fused, simd] = KernelVariant::all();
        [Self::Split, Self::Fused(fused), Self::Fused(simd)]
    }
}

/// Options threaded in from the `paper_figures` CLI.
pub struct LargeNOptions {
    /// Reduced grid + `results/large_n_quick.json` output.
    pub quick: bool,
    /// Which kernels to measure (the split reference always runs — it is
    /// the parity oracle — but only gets a row when requested).
    pub kernels: Vec<RowKernel>,
    /// Enforce the throughput floor against the recorded baseline.
    pub gate: bool,
}

impl LargeNOptions {
    /// All kernels, no gate.
    pub fn new(quick: bool) -> Self {
        Self { quick, kernels: RowKernel::all().to_vec(), gate: false }
    }
}

/// One measured (fleet size, kernel) cell.
struct KernelRow {
    n: usize,
    rounds: usize,
    kernel: RowKernel,
    /// Largest power of two dividing the share-buffer address (capped at
    /// 4096): the effective alignment the blocked sweeps actually got.
    alignment: usize,
    seconds: f64,
    peak_rss_bytes: u64,
    bitwise_match: bool,
}

impl KernelRow {
    fn worker_rounds(&self) -> f64 {
        (self.n * self.rounds) as f64
    }

    fn worker_rounds_per_sec(&self) -> f64 {
        self.worker_rounds() / self.seconds.max(1e-9)
    }
}

/// splitmix64: the same seeded generator used across the bench suite for
/// deterministic parameters without pulling in `rand` here.
fn splitmix(state: &mut u64) -> f64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z = z ^ (z >> 31);
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// A heterogeneous fleet under the §VI-A latency model (closed-form
/// eq. (4) inverse, so the per-round work is the engine, not bisection):
/// speeds spread 8x, seeded and deterministic.
fn latency_fleet(n: usize, seed: u64) -> Vec<DynCost> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            let speed = 64.0 + 448.0 * splitmix(&mut state);
            Box::new(LatencyCost::new(256.0, speed, 0.05)) as DynCost
        })
        .collect()
}

/// Peak resident set size of this process (Linux `VmHWM`), if available.
/// The high-water mark is monotone process-wide, which is why the sweep
/// runs fleet sizes in increasing order.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

/// Total system memory (Linux `MemTotal`), if available.
fn mem_total_bytes() -> Option<u64> {
    let meminfo = std::fs::read_to_string("/proc/meminfo").ok()?;
    for line in meminfo.lines() {
        if let Some(rest) = line.strip_prefix("MemTotal:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

/// Largest power of two dividing `ptr`, capped at one page-ish (4096):
/// the alignment the hot share buffer actually landed on.
fn buffer_alignment(ptr: *const f64) -> usize {
    let addr = ptr as usize;
    if addr == 0 {
        return 0;
    }
    1usize << (addr.trailing_zeros().min(12))
}

/// Runs one fleet size through the split reference and each requested
/// fused-kernel variant, asserting bitwise equivalence of episode cost,
/// final shares and α schedule for every non-reference row.
fn measure(n: usize, rounds: usize, seed: u64, kernels: &[RowKernel]) -> Vec<KernelRow> {
    let costs = latency_fleet(n, seed);

    // The split engine always runs: it is the parity oracle.
    let mut sequential = Dolbie::new(n);
    let start = Instant::now();
    let seq_summary = run_episode_with_static_costs(&mut sequential, &costs, rounds, None);
    let sequential_seconds = start.elapsed().as_secs_f64();

    let mut rows = Vec::with_capacity(kernels.len());
    for &kernel in kernels {
        let row = match kernel {
            RowKernel::Split => KernelRow {
                n,
                rounds,
                kernel,
                alignment: buffer_alignment(sequential.allocation().as_slice().as_ptr()),
                seconds: sequential_seconds,
                peak_rss_bytes: peak_rss_bytes().unwrap_or(0),
                bitwise_match: true, // the reference itself
            },
            RowKernel::Fused(variant) => {
                let mut fused = FusedDolbie::from_costs(&costs)
                    .expect("the latency fleet has a slab layout")
                    .with_variant(variant);
                let start = Instant::now();
                let summary = fused.run(rounds);
                let seconds = start.elapsed().as_secs_f64();
                let bitwise_match = summary.total_cost.to_bits()
                    == seq_summary.total_cost.to_bits()
                    && summary.final_global_cost.to_bits()
                        == seq_summary.final_global_cost.to_bits()
                    && fused.alphas_used() == sequential.alphas_used()
                    && (0..n).all(|i| {
                        fused.allocation().share(i).to_bits()
                            == sequential.allocation().share(i).to_bits()
                    });
                assert!(
                    bitwise_match,
                    "N = {n}: the {} kernel diverged from the split engine",
                    kernel.name()
                );
                KernelRow {
                    n,
                    rounds,
                    kernel,
                    alignment: buffer_alignment(fused.allocation().as_slice().as_ptr()),
                    seconds,
                    peak_rss_bytes: peak_rss_bytes().unwrap_or(0),
                    bitwise_match,
                }
            }
        };
        rows.push(row);
    }
    rows
}

fn write_bench_json(rows: &[KernelRow], quick: bool) {
    let path = if quick {
        let dir = workspace_root().join("results");
        let _ = std::fs::create_dir_all(&dir);
        dir.join("large_n_quick.json")
    } else {
        workspace_root().join("BENCH_large_n.json")
    };
    let cpu_cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let threads = harness::threads();
    let mut body = String::from("{\n");
    body.push_str(&format!("  \"cpu_cores\": {cpu_cores},\n"));
    body.push_str(&format!("  \"threads\": {threads},\n"));
    body.push_str(&format!("  \"quick\": {quick},\n"));
    body.push_str("  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        body.push_str(&format!(
            "    {{\"n\": {}, \"rounds\": {}, \"kernel\": \"{}\", \"alignment\": {}, \
             \"seconds\": {:.3}, \"worker_rounds_per_sec\": {:.3e}, \"peak_rss_mb\": {:.1}, \
             \"bitwise_match\": {}}}{}\n",
            row.n,
            row.rounds,
            row.kernel.name(),
            row.alignment,
            row.seconds,
            row.worker_rounds_per_sec(),
            row.peak_rss_bytes as f64 / (1024.0 * 1024.0),
            row.bitwise_match,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    body.push_str("  ]\n}\n");
    match std::fs::write(&path, body) {
        Ok(()) => println!("  wrote {}", path.display()),
        Err(e) => eprintln!("  failed to write {}: {e}", path.display()),
    }
    if cpu_cores == 1 {
        eprintln!(
            "  [warn] this machine reports 1 CPU core: throughput numbers are per-core by \
             construction"
        );
    }
}

/// One recorded baseline cell parsed back out of `BENCH_large_n.json`.
struct BaselineRow {
    n: usize,
    kernel: String,
    worker_rounds_per_sec: f64,
}

/// Extracts the quoted/numeric value following `"key":` in a JSON row
/// line. Hand-rolled (the workspace has no JSON dependency) but total:
/// returns `None` on any shape surprise instead of panicking.
fn json_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = line[start..].trim_start();
    let end = rest.find([',', '}'])?;
    Some(rest[..end].trim().trim_matches('"'))
}

/// Parses the per-(n, kernel) rows of a `BENCH_large_n.json`. Rows
/// without a `"kernel"` field (the pre-fusion schema) are skipped, which
/// downstream treats as "no baseline recorded".
fn parse_baseline_rows(text: &str) -> Vec<BaselineRow> {
    text.lines()
        .filter(|l| l.contains("\"kernel\""))
        .filter_map(|l| {
            Some(BaselineRow {
                n: json_field(l, "n")?.parse().ok()?,
                kernel: json_field(l, "kernel")?.to_string(),
                worker_rounds_per_sec: json_field(l, "worker_rounds_per_sec")?.parse().ok()?,
            })
        })
        .collect()
}

/// The tier-1 throughput-floor gate: every measured (n, kernel) cell with
/// a matching row in the recorded `BENCH_large_n.json` must reach at
/// least [`GATE_FLOOR`] of the recorded per-core worker-rounds/second.
///
/// The gate warn-skips (never fails) when the measurement would be
/// meaningless: non-release builds, machines with < 2 GB of RAM, or a
/// missing/pre-fusion-schema baseline. A genuine violation exits with
/// status 1 so `scripts/tier1.sh` fails.
fn enforce_throughput_floor(rows: &[KernelRow]) {
    if cfg!(debug_assertions) {
        eprintln!("  [gate] skipped: debug build (throughput floors assume --release)");
        return;
    }
    if let Some(total) = mem_total_bytes() {
        if total < 2 * 1024 * 1024 * 1024 {
            eprintln!(
                "  [gate] skipped: {:.1} GB RAM < 2 GB (timings would be swap-bound)",
                total as f64 / (1024.0 * 1024.0 * 1024.0)
            );
            return;
        }
    }
    let path = workspace_root().join("BENCH_large_n.json");
    let Ok(text) = std::fs::read_to_string(&path) else {
        eprintln!("  [gate] skipped: no recorded baseline at {}", path.display());
        return;
    };
    let baselines = parse_baseline_rows(&text);
    if baselines.is_empty() {
        eprintln!("  [gate] skipped: {} has no per-kernel rows (old schema?)", path.display());
        return;
    }
    let mut checked = 0;
    let mut violations = Vec::new();
    for row in rows {
        let Some(baseline) =
            baselines.iter().find(|b| b.n == row.n && b.kernel == row.kernel.name())
        else {
            continue;
        };
        checked += 1;
        let floor = GATE_FLOOR * baseline.worker_rounds_per_sec;
        let got = row.worker_rounds_per_sec();
        if got < floor {
            violations.push(format!(
                "N = {}, kernel {}: {:.3e} wr/s < {:.0}% of the recorded {:.3e}",
                row.n,
                row.kernel.name(),
                got,
                GATE_FLOOR * 100.0,
                baseline.worker_rounds_per_sec
            ));
        }
    }
    if checked == 0 {
        eprintln!("  [gate] skipped: no measured cell matches a recorded (n, kernel) baseline");
        return;
    }
    if violations.is_empty() {
        println!(
            "  [gate] OK: {checked} cell(s) within {:.0}% of the recorded baseline",
            GATE_FLOOR * 100.0
        );
    } else {
        for v in &violations {
            eprintln!("  [gate] FAIL: {v}");
        }
        eprintln!("  [gate] throughput regressed more than 20% below BENCH_large_n.json");
        std::process::exit(1);
    }
}

/// Runs the large-N scaling sweep with the default options (all kernels,
/// no gate) — the `paper_figures` entry point for plain `large_n`.
pub fn large_n(quick: bool) {
    large_n_with(&LargeNOptions::new(quick));
}

/// Runs the large-N scaling sweep. `quick` runs a reduced grid for the
/// tier-1 smoke and writes `results/large_n_quick.json`; the full sweep
/// ends at the acceptance configuration N = 10^6 × 10^3 rounds and
/// refreshes `BENCH_large_n.json`.
pub fn large_n_with(options: &LargeNOptions) {
    println!("== X2: large-N episode scaling (split vs fused vs SIMD round kernels) ==");
    let sweep: &[(usize, usize)] = if options.quick {
        &[(1_000, 400), (10_000, 200), (100_000, 60)]
    } else {
        &[(1_000, 10_000), (10_000, 10_000), (100_000, 1_000), (1_000_000, 1_000)]
    };
    let kernel_names: Vec<&str> = options.kernels.iter().map(|k| k.name()).collect();
    println!(
        "  threads = {}, kernels = {}; every fused/SIMD row asserts bitwise equality with the \
         split engine",
        harness::threads(),
        kernel_names.join(",")
    );
    let mut table = Table::new(vec![
        "N",
        "rounds",
        "kernel",
        "alignment",
        "seconds",
        "worker_rounds_per_sec",
        "peak_rss_mb",
        "bitwise_match",
    ]);
    println!("  N        rounds   kernel  align  seconds    wr/s         peak RSS");
    let mut rows = Vec::new();
    for &(n, rounds) in sweep {
        for row in measure(n, rounds, 0x1a6e, &options.kernels) {
            println!(
                "  {:8} {:7}  {:6}  {:5}  {:9.3}  {:11.3e}  {:6.1} MB",
                row.n,
                row.rounds,
                row.kernel.name(),
                row.alignment,
                row.seconds,
                row.worker_rounds_per_sec(),
                row.peak_rss_bytes as f64 / (1024.0 * 1024.0),
            );
            table.push_row(vec![
                row.n.to_string(),
                row.rounds.to_string(),
                row.kernel.name().to_string(),
                row.alignment.to_string(),
                format!("{:.3}", row.seconds),
                format!("{:.3e}", row.worker_rounds_per_sec()),
                format!("{:.1}", row.peak_rss_bytes as f64 / (1024.0 * 1024.0)),
                row.bitwise_match.to_string(),
            ]);
            rows.push(row);
        }
    }
    if let Some(acceptance) =
        rows.iter().find(|r| r.n == 1_000_000 && r.rounds == 1_000 && r.kernel != RowKernel::Split)
    {
        println!(
            "  acceptance: N = 10^6 x 10^3 rounds, {} kernel: {:.3e} worker-rounds/s \
             (target >= 1e8 per core)",
            acceptance.kernel.name(),
            acceptance.worker_rounds_per_sec()
        );
    }
    emit_csv(&table, if options.quick { "large_n_quick" } else { "large_n_scaling" });
    write_bench_json(&rows, options.quick);
    if options.gate {
        enforce_throughput_floor(&rows);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_is_deterministic_and_heterogeneous() {
        let a = latency_fleet(64, 7);
        let b = latency_fleet(64, 7);
        let speeds = |fleet: &[DynCost]| -> Vec<u64> {
            fleet.iter().map(|f| format!("{f:?}").len() as u64).collect()
        };
        assert_eq!(speeds(&a), speeds(&b), "same seed, same fleet");
        let evals: Vec<f64> = a.iter().map(|f| f.eval(0.5)).collect();
        let min = evals.iter().cloned().fold(f64::MAX, f64::min);
        let max = evals.iter().cloned().fold(f64::MIN, f64::max);
        assert!(max > min * 1.5, "speeds must spread: {min}..{max}");
    }

    #[test]
    fn measure_asserts_bitwise_equality_for_all_kernels() {
        let rows = measure(257, 20, 3, &RowKernel::all());
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert_eq!(row.n, 257);
            assert_eq!(row.rounds, 20);
            assert!(row.bitwise_match, "{} kernel", row.kernel.name());
            assert!(row.seconds >= 0.0);
            assert!(row.alignment >= 8, "f64 buffers are at least 8-byte aligned");
        }
    }

    #[test]
    fn row_kernel_spellings_round_trip() {
        for k in RowKernel::all() {
            assert_eq!(RowKernel::parse(k.name()), Some(k));
        }
        let names: Vec<&str> = RowKernel::all().iter().map(|k| k.name()).collect();
        assert_eq!(names, ["split", "fused", "simd"], "the BENCH row names");
        assert_eq!(RowKernel::parse("warp"), None);
    }

    #[test]
    fn measure_honors_the_kernel_selection() {
        let simd = RowKernel::Fused(KernelVariant::Simd);
        let rows = measure(64, 10, 5, &[simd]);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].kernel, simd);
    }

    #[test]
    fn peak_rss_is_readable_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_bytes().unwrap_or(0) > 0, "VmHWM should be present");
        }
    }

    #[test]
    fn baseline_parser_reads_per_kernel_rows_and_skips_old_schema() {
        let new_schema = r#"{
  "rows": [
    {"n": 1000, "rounds": 10000, "kernel": "split", "alignment": 64, "seconds": 0.1, "worker_rounds_per_sec": 1.0e8, "peak_rss_mb": 10.0, "bitwise_match": true},
    {"n": 1000000, "rounds": 1000, "kernel": "simd", "alignment": 4096, "seconds": 5.0, "worker_rounds_per_sec": 2.0e8, "peak_rss_mb": 100.0, "bitwise_match": true}
  ]
}"#;
        let rows = parse_baseline_rows(new_schema);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].n, 1000);
        assert_eq!(rows[0].kernel, "split");
        assert!((rows[0].worker_rounds_per_sec - 1.0e8).abs() < 1.0);
        assert_eq!(rows[1].kernel, "simd");

        let old_schema = r#"{
  "rows": [
    {"n": 1000, "rounds": 10000, "sequential_seconds": 0.1, "worker_rounds_per_sec_sequential": 1.0e8, "bitwise_match": true}
  ]
}"#;
        assert!(parse_baseline_rows(old_schema).is_empty(), "old schema has no kernel rows");
    }

    #[test]
    fn buffer_alignment_is_the_largest_dividing_power_of_two() {
        assert_eq!(buffer_alignment(std::ptr::dangling::<f64>()), 8);
        assert_eq!(buffer_alignment(64 as *const f64), 64);
        assert_eq!(buffer_alignment(96 as *const f64), 32);
        assert_eq!(buffer_alignment((1 << 20) as *const f64), 4096, "capped at a page");
        assert_eq!(buffer_alignment(std::ptr::null()), 0);
    }
}
