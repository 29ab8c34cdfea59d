//! Experiment C1: the §IV-C communication-complexity claims.

use crate::common::emit_csv;
use dolbie_core::environment::StaticLinearEnvironment;
use dolbie_core::parallel;
use dolbie_core::DolbieConfig;
use dolbie_metrics::Table;
use dolbie_simnet::{FixedLatency, FullyDistributedSim, MasterWorkerSim, RingSim};

/// Measures messages and bytes per round for both architectures across a
/// sweep of worker counts, verifying `O(N)` (master-worker) against
/// `O(N²)` (fully-distributed).
pub fn comms() {
    println!("== §IV-C: per-round communication of the two architectures ==");
    let mut table = Table::new(vec![
        "N",
        "mw_messages",
        "mw_bytes",
        "fd_messages",
        "fd_bytes",
        "ring_messages",
        "ring_bytes",
        "mw_control_overhead_s",
        "fd_control_overhead_s",
        "ring_control_overhead_s",
    ]);
    const ROUNDS: usize = 10;
    println!("  N     MW msgs/rnd  MW bytes/rnd  FD msgs/rnd  FD bytes/rnd  ring msgs/rnd");
    // The worker-count sweep fans out (the N = 64 fully-distributed run
    // dominates); printing and the exact message-count asserts stay on the
    // main thread, in sweep order.
    const NS: [usize; 6] = [2, 4, 8, 16, 32, 64];
    let sweeps = parallel::parallel_map_items(&NS, |&n| {
        let slopes: Vec<f64> = (1..=n).map(|i| i as f64).collect();
        let env = StaticLinearEnvironment::from_slopes(slopes);
        let mw =
            MasterWorkerSim::new(env.clone(), DolbieConfig::new(), FixedLatency::lan()).run(ROUNDS);
        let fd = FullyDistributedSim::new(env.clone(), DolbieConfig::new(), FixedLatency::lan())
            .run(ROUNDS);
        let ring = RingSim::new(env, DolbieConfig::new(), FixedLatency::lan()).run(ROUNDS);
        (mw, fd, ring)
    });
    for (&n, (mw, fd, ring)) in NS.iter().zip(&sweeps) {
        let mw_msgs = mw.total_messages() / ROUNDS;
        let fd_msgs = fd.total_messages() / ROUNDS;
        let ring_msgs = ring.total_messages() / ROUNDS;
        let mw_bytes = mw.total_bytes() / ROUNDS;
        let fd_bytes = fd.total_bytes() / ROUNDS;
        let ring_bytes = ring.total_bytes() / ROUNDS;
        println!(
            "  {n:3}   {mw_msgs:11}  {mw_bytes:12}  {fd_msgs:11}  {fd_bytes:12}  {ring_msgs:13}"
        );
        assert_eq!(mw_msgs, 3 * n, "master-worker must be exactly 3N messages");
        assert_eq!(
            fd_msgs,
            n * (n - 1) + (n - 1),
            "fully-distributed must be N(N-1) + (N-1) messages"
        );
        assert!((2 * n..=2 * n + 1).contains(&ring_msgs), "ring must be 2N or 2N+1 messages");
        table.push_row(vec![
            n.to_string(),
            mw_msgs.to_string(),
            mw_bytes.to_string(),
            fd_msgs.to_string(),
            fd_bytes.to_string(),
            ring_msgs.to_string(),
            ring_bytes.to_string(),
            format!("{:.6}", mw.mean_control_overhead()),
            format!("{:.6}", fd.mean_control_overhead()),
            format!("{:.6}", ring.mean_control_overhead()),
        ]);
    }
    emit_csv(&table, "comms_architectures");
    println!(
        "  master-worker grows linearly (3N); fully-distributed quadratically (N² − 1);\n  \
         the ring extension stays linear (≈2N) but pays O(N) sequential hops of control\n  \
         latency per round (see the control-overhead columns in the CSV)."
    );
}
