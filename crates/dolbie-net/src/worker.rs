//! The worker node role: one worker's half of Algorithm 1 over a socket.
//!
//! A worker is authoritative for exactly one scalar — its own share — and
//! never reveals its cost *function*, only the scalars §IV-B prescribes:
//! the observed local cost (line 4) and its risk-averse decision (line 7).
//! The per-round cost function is derived locally from the
//! [`WireEnvSpec`](crate::env::WireEnvSpec) the master ships in `Welcome`.
//!
//! The arithmetic here is the engine's per-worker update:
//! `gain = (α · (x' − x)).max(0.0)`, `x ← x + gain`, with the rare
//! `Adjust` (the root's feasibility guard fired) replaying
//! `x ← x_old + gain · scale` — bitwise what the sequential engine's
//! rescale-then-apply computes, which is what makes the whole
//! distributed trajectory bitwise-reproducible.
//!
//! The worker's read deadline is not a knob of its own: it derives from
//! the shard-master's `frame_timeout`, shipped in `Welcome`
//! ([`worker_deadline`]).
//!
//! The worker does not compute on impossible values. A share (in
//! `Welcome`, `Assignment` or `Epoch`), an `α` or an `Adjust` scale
//! outside `[0, 1]`, or a non-finite global cost, ends the run with
//! [`NetError::Protocol`]; each bound is derived, at its check, from the
//! code that produces the value.

use crate::shard::{worker_deadline, ADMISSION_WAIT};
use crate::transport::{FrameConn, Link, TransportError, WireStats};
use crate::wire::{Frame, VERSION};
use crate::NetError;
use dolbie_core::cost::DynCost;
use dolbie_core::observation::max_acceptable_share;
use dolbie_simnet::faults::{FaultPlan, RetryPolicy};
use std::net::TcpStream;
use std::time::Duration;

/// Knobs of a worker run.
#[derive(Debug, Clone, Default)]
pub struct WorkerOptions {
    /// Overrides the lossy link's retransmission pacing (the fault plan
    /// itself always comes from `Welcome`). Senders need not agree on
    /// pacing, so tests can run a faster schedule than the default.
    pub retry: Option<RetryPolicy>,
    /// Fault injection for crash tests: drop the connection right after
    /// reporting the local cost of this round, simulating a worker killed
    /// mid-round.
    pub die_after_round: Option<usize>,
    /// Fault injection for stall tests: after reporting the local cost of
    /// the given round, go silent for the given duration with the socket
    /// held open — the head-of-line shape a hung-but-connected worker
    /// presents — then return. The master's frame deadline declares the
    /// worker dead long before the stall ends.
    pub stall_after_round: Option<(usize, Duration)>,
}

/// What a worker saw over its run.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerReport {
    /// The identity the master assigned in `Welcome`.
    pub worker_id: usize,
    /// Rounds this worker participated in (counting restarts once).
    pub rounds_seen: usize,
    /// The worker's final authoritative share.
    pub final_share: f64,
    /// Membership epochs crossed.
    pub epochs_seen: u32,
    /// This connection's wire counters.
    pub wire: WireStats,
}

/// Injected faults as `(die_after_round, stall_after_round)`; see
/// [`WorkerOptions`].
pub(crate) type InjectedFaults = (Option<usize>, Option<(usize, Duration)>);

/// Runs the worker protocol on `stream` until `Shutdown` (or injected
/// death). Handshakes raw, then speaks through the fault plan announced
/// in `Welcome`.
pub fn run_worker(stream: TcpStream, opts: &WorkerOptions) -> Result<WorkerReport, NetError> {
    run_worker_as(stream, opts, |_| (opts.die_after_round, opts.stall_after_round))
}

/// [`run_worker`] with the injected faults chosen by the id the master
/// admits the worker under, ignoring the ones in `opts`. Ids follow
/// Hello-completion order, so a harness that schedules a fault for a
/// global worker id resolves it here, after `Welcome`, not per thread.
pub(crate) fn run_worker_as(
    stream: TcpStream,
    opts: &WorkerOptions,
    faults: impl FnOnce(usize) -> InjectedFaults,
) -> Result<WorkerReport, NetError> {
    let mut conn = FrameConn::new(stream).map_err(TransportError::from)?;
    conn.send(&Frame::Hello { version: VERSION })?;
    let (worker_id, env, mut share, plan, deadline) = match conn.recv(ADMISSION_WAIT)? {
        Frame::Welcome {
            worker_id,
            env,
            initial_share,
            drop_probability,
            duplicate_probability,
            fault_seed,
            frame_timeout_us,
            ..
        } => {
            let mut plan = FaultPlan::seeded(fault_seed);
            if drop_probability > 0.0 {
                plan = plan.with_drop_probability(drop_probability);
            }
            if duplicate_probability > 0.0 {
                plan = plan.with_duplicate_probability(duplicate_probability);
            }
            if let Some(retry) = opts.retry {
                plan = plan.with_retry(retry);
            }
            let t = Duration::from_micros(frame_timeout_us);
            let deadline = worker_deadline(t).min(ADMISSION_WAIT);
            // `Allocation::uniform(N)`'s 1/N, N ≥ 1 (`run_shard_master`).
            let initial_share = unit_interval("Welcome share", initial_share)?;
            (worker_id as usize, env, initial_share, plan, deadline)
        }
        _ => return Err(NetError::Protocol("expected Welcome after Hello".into())),
    };
    let (die_after_round, stall_after_round) = faults(worker_id);
    let mut link = Link::with_plan(conn, plan, worker_id as u64 + 1, 0);

    let mut cost_fn: Option<DynCost> = None;
    // The pre-decision share and gain of the current round, kept for the
    // rare `Adjust` replay.
    let (mut x_old, mut gain) = (share, 0.0f64);
    let mut rounds_seen = 0usize;
    let mut epochs_seen = 0u32;
    let mut my_epoch = 0u32;
    // No deadline until the first `RoundStart`: the shard-master may
    // still be admitting the rest of its range.
    let mut timeout = ADMISSION_WAIT;

    loop {
        match link.recv(timeout)? {
            Frame::RoundStart { epoch, round } => {
                timeout = deadline;
                if epoch != my_epoch {
                    return Err(NetError::Protocol(format!(
                        "round started under epoch {epoch}, worker is at {my_epoch}"
                    )));
                }
                // Lines 1–4: execute, observe, report.
                let f = env.cost_for(round as usize, worker_id);
                let cost = f.eval(share);
                cost_fn = Some(f);
                rounds_seen += 1;
                link.send(&Frame::LocalCost { epoch: my_epoch, round, cost })?;
                if let Some((stall_round, hold)) = stall_after_round {
                    if stall_round == round as usize {
                        // Injected stall: hold the socket open, say
                        // nothing, and leave only after the master has
                        // long since moved on.
                        std::thread::sleep(hold);
                        return Ok(WorkerReport {
                            worker_id,
                            rounds_seen,
                            final_share: share,
                            epochs_seen,
                            wire: link.stats(),
                        });
                    }
                }
                if die_after_round == Some(round as usize) {
                    // Injected crash: vanish without a goodbye.
                    return Ok(WorkerReport {
                        worker_id,
                        rounds_seen,
                        final_share: share,
                        epochs_seen,
                        wire: link.stats(),
                    });
                }
            }
            Frame::Coordination { global_cost, alpha, is_straggler, round } => {
                // The elected straggler's cost, which the shard-master and
                // the root both check finite before it is elected.
                if !global_cost.is_finite() {
                    return Err(NetError::Protocol(format!(
                        "Coordination global cost {global_cost} is not finite"
                    )));
                }
                // `StepSize` clamps α into [0, 1] and only lowers it.
                let alpha = unit_interval("Coordination α", alpha)?;
                if is_straggler {
                    // Line 8: the pin arrives as an Assignment.
                    continue;
                }
                // Lines 5–7: risk-averse assistance, the engine's exact
                // arithmetic.
                let f = cost_fn
                    .as_ref()
                    .ok_or_else(|| NetError::Protocol("coordination before any round".into()))?;
                x_old = share;
                let target = max_acceptable_share(&**f, share, global_cost);
                gain = (alpha * (target - share)).max(0.0);
                share = x_old + gain;
                link.send(&Frame::Decision { epoch: my_epoch, round, share, gain })?;
            }
            Frame::Assignment { share: pinned, .. } => {
                // `RootEngine::pin`: 1 − the others' mass, clamped at 0.
                share = unit_interval("Assignment share", pinned)?;
            }
            Frame::Adjust { scale, .. } => {
                // `RootEngine::guard_scale` only shrinks gains: it sends
                // x_s / Σ gains only when Σ gains > x_s.
                share = x_old + gain * unit_interval("Adjust scale", scale)?;
            }
            Frame::Epoch { epoch, share: authoritative, .. } => {
                // A crash elsewhere: adopt the post-renormalization share,
                // discarding any tentative in-round state. Renormalized
                // shares are non-negative and sum to 1
                // (`renormalize_onto_members`).
                my_epoch = epoch;
                share = unit_interval("Epoch share", authoritative)?;
                epochs_seen += 1;
            }
            Frame::Shutdown => {
                return Ok(WorkerReport {
                    worker_id,
                    rounds_seen,
                    final_share: share,
                    epochs_seen,
                    wire: link.stats(),
                });
            }
            _ => return Err(NetError::Protocol("unexpected frame at the worker".into())),
        }
    }
}

/// `value`, if it lies in `[0, 1]` (NaN does not); otherwise the
/// protocol error naming `what`.
fn unit_interval(what: &str, value: f64) -> Result<f64, NetError> {
    if (0.0..=1.0).contains(&value) {
        Ok(value)
    } else {
        Err(NetError::Protocol(format!("{what} {value} is outside [0, 1]")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{EnvKind, WireEnvSpec};
    use crate::handshake::welcome_frame;
    use std::net::TcpListener;
    use std::time::Instant;

    /// The worker's deadline comes from the tree: a fake shard-master
    /// ships T = 50 ms in `Welcome`, stays silent for a second — longer
    /// than `worker_deadline(T)` — and the worker still answers the late
    /// first `RoundStart`; after that, silence costs the worker a timeout
    /// error within `worker_deadline(T)` and a margin, not a fixed 10 s.
    #[test]
    fn worker_deadline_derives_from_the_welcome() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let worker = std::thread::spawn(move || {
            let stream = TcpStream::connect(addr).expect("connect");
            run_worker(stream, &WorkerOptions::default())
        });
        let (stream, _) = listener.accept().expect("accept");
        let mut master = FrameConn::new(stream).expect("conn");
        let hello = master.recv(Duration::from_secs(5)).expect("Hello");
        assert!(matches!(hello, Frame::Hello { .. }));
        let t = Duration::from_millis(50);
        let env = WireEnvSpec { kind: EnvKind::StaticRamp, seed: 3 };
        master.send(&welcome_frame(0, 2, 10, env, 0.5, &FaultPlan::none(), t)).expect("Welcome");
        std::thread::sleep(Duration::from_secs(1));
        master.send(&Frame::RoundStart { epoch: 0, round: 0 }).expect("RoundStart");
        let reply = master.recv(Duration::from_secs(5)).expect("the worker answers");
        assert!(matches!(reply, Frame::LocalCost { epoch: 0, round: 0, .. }), "{reply:?}");
        let silent = Instant::now();
        let result = worker.join().expect("worker thread");
        let waited = silent.elapsed();
        match result {
            Err(NetError::Transport(e)) if e.is_timeout() => {}
            other => panic!("expected a read timeout, got {other:?}"),
        }
        assert!(waited >= worker_deadline(t) / 2, "gave up after {waited:?}");
        assert!(waited < worker_deadline(t) + Duration::from_secs(1), "waited {waited:?}");
        drop(master);
    }
}
