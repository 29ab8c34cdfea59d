//! DOLBIE as an actual distributed protocol: Algorithm 1 (master-worker)
//! and Algorithm 2 (fully-distributed) running message by message on the
//! discrete-event simulator, plus a token ring — all producing the same
//! trajectory, at very different communication costs.
//!
//! ```text
//! cargo run --release --example fully_distributed
//! ```

use dolbie::core::environment::RotatingStragglerEnvironment;
use dolbie::core::DolbieConfig;
use dolbie::simnet::{FixedLatency, FullyDistributedSim, MasterWorkerSim, RingSim};

fn main() {
    let n = 8;
    let rounds = 40;
    // The slow worker rotates every 5 rounds: a genuinely dynamic system.
    let env = RotatingStragglerEnvironment::new(n, 5, 6.0, 1.0);

    let mw =
        MasterWorkerSim::new(env.clone(), DolbieConfig::new(), FixedLatency::lan()).run(rounds);
    let fd =
        FullyDistributedSim::new(env.clone(), DolbieConfig::new(), FixedLatency::lan()).run(rounds);
    let ring = RingSim::new(env, DolbieConfig::new(), FixedLatency::lan()).run(rounds);

    println!("architecture        messages/round   bytes/round   makespan");
    println!(
        "master-worker   {:14}   {:11}   {:8.3} s",
        mw.total_messages() / rounds,
        mw.total_bytes() / rounds,
        mw.makespan()
    );
    println!(
        "fully-distrib.  {:14}   {:11}   {:8.3} s",
        fd.total_messages() / rounds,
        fd.total_bytes() / rounds,
        fd.makespan()
    );
    println!(
        "token ring     {:14}   {:11}   {:8.3} s",
        ring.total_messages() / rounds,
        ring.total_bytes() / rounds,
        ring.makespan()
    );

    // The three implementations walk the same trajectory.
    let mut max_dev: f64 = 0.0;
    for ((a, b), r) in mw.rounds.iter().zip(&fd.rounds).zip(&ring.rounds) {
        max_dev = max_dev.max(a.allocation.l2_distance(&b.allocation));
        max_dev = max_dev.max(a.allocation.l2_distance(&r.allocation));
    }
    println!("\nmax trajectory deviation across the three implementations: {max_dev:.2e}");
    assert!(max_dev < 1e-9, "implementations must agree");
    println!("final allocation: {}", mw.rounds.last().expect("ran {rounds} rounds").allocation);
    println!(
        "§IV-C confirmed: O(N) master-worker vs O(N²) fully-distributed messaging\n\
         (plus the O(N)-messages / O(N)-depth ring extension), identical decisions."
    );
}
