//! The worker node role: one worker's half of Algorithm 1 (lines 1–8).
//!
//! A worker is authoritative for exactly one scalar — its own share — and
//! never reveals its cost *function*, only the scalars §IV-B prescribes:
//! the observed local cost (line 4) and its risk-averse decision (line 7).
//! The per-round cost function is derived locally from the
//! [`WireEnvSpec`] the master ships in `Welcome`.
//!
//! [`WorkerMachine`] is the whole protocol, sans I/O: built from the
//! `Welcome` frame, it takes one frame at a time and answers with a
//! [`Step`] — a frame to send, nothing, or the end of the run — and
//! names the read deadline its driver should apply. It opens no socket,
//! sleeps never and reads no clock, so sockets, test harnesses and a
//! model checker can all drive the same code. [`run_worker`] is the one
//! socket loop that drives it; the loopback harness's scheduled kills
//! and stalls are choices of that loop (after it sends a round's
//! `LocalCost`, it leaves, or holds the socket silent first), never of
//! the machine.
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
//! outside `[0, 1]`, a non-finite global cost, a `Welcome` drop or
//! duplicate probability outside `[0, 1)` or a zero `frame_timeout`
//! ends the run with [`NetError::Protocol`]; each bound is derived, at
//! its check, from the code that produces the value. Nor does it act on
//! an impossible order: a `Coordination`, `Assignment` or `Adjust` for
//! any round but the one the last `RoundStart` opened, or an `Adjust`
//! before this round's `Decision` (an honest shard-master rescales only
//! the gains it collected), ends the run the same way.

use crate::env::WireEnvSpec;
use crate::handshake::shipped_fault_plan;
use crate::shard::{worker_deadline, ADMISSION_WAIT};
use crate::transport::{FrameConn, Link, TransportError, WireStats};
use crate::wire::{Frame, VERSION};
use crate::{unit_interval, NetError};
use dolbie_core::cost::DynCost;
use dolbie_core::observation::max_acceptable_share;
use dolbie_simnet::faults::{FaultPlan, RetryPolicy};
use std::time::Duration;

/// Knobs of a worker run.
#[derive(Debug, Clone, Default)]
pub struct WorkerOptions {
    /// Overrides the lossy link's retransmission pacing (the fault plan
    /// itself always comes from `Welcome`). Senders need not agree on
    /// pacing, so tests can run a faster schedule than the default.
    pub retry: Option<RetryPolicy>,
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

/// What a [`WorkerMachine`] makes of one frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// Send this frame (a `LocalCost` or a `Decision`) to the
    /// shard-master.
    Reply(Frame),
    /// Nothing to send: read the next frame.
    Quiet,
    /// `Shutdown`: the run is over.
    Finished,
}

/// One worker's protocol state, sans I/O; see the [module docs](self).
///
/// It holds scalars and the current round's cost function only, nothing
/// that grows with the run. After `Shutdown` or an error it is stopped:
/// every later frame is refused with [`NetError::Protocol`] and changes
/// nothing.
#[derive(Debug)]
pub struct WorkerMachine {
    worker_id: usize,
    env: WireEnvSpec,
    share: f64,
    /// The pre-decision share and gain of the current round, kept for the
    /// rare `Adjust` replay.
    x_old: f64,
    gain: f64,
    epoch: u32,
    /// The round the last `RoundStart` opened, and its cost function.
    open: Option<(u64, DynCost)>,
    /// Whether this round's `Decision` went out, which an `Adjust`
    /// rescales.
    decided: bool,
    rounds_seen: usize,
    epochs_seen: u32,
    /// The read deadline now: [`ADMISSION_WAIT`] until the first
    /// `RoundStart` (the shard-master may still be admitting the rest of
    /// its range), then `round_deadline`.
    deadline: Duration,
    round_deadline: Duration,
    stopped: bool,
}

impl WorkerMachine {
    /// A worker admitted by `welcome`, its shard-master's answer to
    /// `Hello`, and the fault plan that `Welcome` ships for the link.
    pub fn welcome(welcome: Frame) -> Result<(Self, FaultPlan), NetError> {
        let Frame::Welcome {
            worker_id,
            env,
            initial_share,
            drop_probability,
            duplicate_probability,
            fault_seed,
            frame_timeout_us,
            ..
        } = welcome
        else {
            return Err(NetError::Protocol("expected Welcome after Hello".into()));
        };
        let plan = shipped_fault_plan(fault_seed, drop_probability, duplicate_probability)?;
        // The shard-master's own per-frame read deadline on this link
        // (`welcome_frame`), which is positive: a zero one would expire
        // every read at once.
        if frame_timeout_us == 0 {
            return Err(NetError::Protocol("Welcome frame timeout is zero".into()));
        }
        let t = Duration::from_micros(frame_timeout_us);
        // `Allocation::uniform(N)`'s 1/N, N ≥ 1 (`run_shard_master`).
        let share = unit_interval("Welcome share", initial_share)?;
        let machine = Self {
            worker_id: worker_id as usize,
            env,
            share,
            x_old: share,
            gain: 0.0,
            epoch: 0,
            open: None,
            decided: false,
            rounds_seen: 0,
            epochs_seen: 0,
            deadline: ADMISSION_WAIT,
            round_deadline: worker_deadline(t).min(ADMISSION_WAIT),
            stopped: false,
        };
        Ok((machine, plan))
    }

    /// The identity the shard-master assigned in `Welcome`.
    pub fn worker_id(&self) -> usize {
        self.worker_id
    }

    /// The worker's current share.
    pub fn share(&self) -> f64 {
        self.share
    }

    /// How long the driver may wait for the next frame before the
    /// shard-master counts as gone.
    pub fn deadline(&self) -> Duration {
        self.deadline
    }

    /// The run so far, with the driver's wire counters.
    pub fn report(&self, wire: WireStats) -> WorkerReport {
        WorkerReport {
            worker_id: self.worker_id,
            rounds_seen: self.rounds_seen,
            final_share: self.share,
            epochs_seen: self.epochs_seen,
            wire,
        }
    }

    /// Takes one frame from the shard-master.
    pub fn step(&mut self, frame: Frame) -> Result<Step, NetError> {
        if self.stopped {
            return Err(NetError::Protocol("frame after the worker stopped".into()));
        }
        let step = self.apply(frame);
        self.stopped = !matches!(step, Ok(Step::Reply(_) | Step::Quiet));
        step
    }

    /// The open round's cost function, for an in-round `what` frame of
    /// `round`; a frame for any other round is refused.
    fn open_round(&self, what: &str, round: u64) -> Result<&DynCost, NetError> {
        match &self.open {
            Some((open, f)) if *open == round => Ok(f),
            open => Err(NetError::Protocol(format!(
                "{what} for round {round}, but the open round is {:?}",
                open.as_ref().map(|(open, _)| open)
            ))),
        }
    }

    fn apply(&mut self, frame: Frame) -> Result<Step, NetError> {
        match frame {
            Frame::RoundStart { epoch, round } => {
                self.deadline = self.round_deadline;
                if epoch != self.epoch {
                    return Err(NetError::Protocol(format!(
                        "round started under epoch {epoch}, worker is at {}",
                        self.epoch
                    )));
                }
                // Lines 1–4: execute, observe, report.
                let f = self.env.cost_for(round as usize, self.worker_id);
                let cost = f.eval(self.share);
                self.open = Some((round, f));
                self.decided = false;
                self.rounds_seen += 1;
                Ok(Step::Reply(Frame::LocalCost { epoch, round, cost }))
            }
            Frame::Coordination { global_cost, alpha, is_straggler, round } => {
                let f = self.open_round("Coordination", round)?;
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
                    return Ok(Step::Quiet);
                }
                // Lines 5–7: risk-averse assistance, the engine's exact
                // arithmetic.
                let target = max_acceptable_share(&**f, self.share, global_cost);
                self.x_old = self.share;
                self.gain = (alpha * (target - self.share)).max(0.0);
                self.share = self.x_old + self.gain;
                self.decided = true;
                let (share, gain) = (self.share, self.gain);
                Ok(Step::Reply(Frame::Decision { epoch: self.epoch, round, share, gain }))
            }
            Frame::Assignment { round, share: pinned } => {
                self.open_round("Assignment", round)?;
                // `RootEngine::pin`: 1 − the others' mass, clamped at 0.
                self.share = unit_interval("Assignment share", pinned)?;
                Ok(Step::Quiet)
            }
            Frame::Adjust { round, scale } => {
                self.open_round("Adjust", round)?;
                if !self.decided {
                    return Err(NetError::Protocol(format!(
                        "Adjust before round {round}'s Decision"
                    )));
                }
                // `RootEngine::guard_scale` only shrinks gains: it sends
                // x_s / Σ gains only when Σ gains > x_s.
                self.share = self.x_old + self.gain * unit_interval("Adjust scale", scale)?;
                Ok(Step::Quiet)
            }
            Frame::Epoch { epoch, share: authoritative, .. } => {
                // A crash elsewhere: adopt the post-renormalization share,
                // discarding any tentative in-round state. Renormalized
                // shares are non-negative and sum to 1
                // (`renormalize_onto_members`).
                self.epoch = epoch;
                self.share = unit_interval("Epoch share", authoritative)?;
                self.decided = false;
                self.epochs_seen += 1;
                Ok(Step::Quiet)
            }
            Frame::Shutdown => Ok(Step::Finished),
            _ => Err(NetError::Protocol("unexpected frame at the worker".into())),
        }
    }
}

/// Runs the worker protocol on `stream` until `Shutdown`. Handshakes
/// raw, then speaks through the fault plan announced in `Welcome`.
pub fn run_worker(
    stream: std::net::TcpStream,
    opts: &WorkerOptions,
) -> Result<WorkerReport, NetError> {
    drive_worker(stream, opts, |_, _| None)
}

/// The one socket loop over a [`WorkerMachine`]. After it sends round
/// `r`'s `LocalCost` it asks `leave(worker_id, r)`: `Some(hold)` keeps
/// the socket open and silent for `hold` and then returns, a stall — or,
/// with a zero hold, a worker killed right after its report. The ids are
/// the ones `Welcome` assigns, in Hello-completion order, so a harness
/// that schedules a fault for a global worker id resolves it here, not
/// per thread.
pub(crate) fn drive_worker(
    stream: std::net::TcpStream,
    opts: &WorkerOptions,
    leave: impl Fn(usize, usize) -> Option<Duration>,
) -> Result<WorkerReport, NetError> {
    let mut conn = FrameConn::new(stream).map_err(TransportError::from)?;
    conn.send(&Frame::Hello { version: VERSION })?;
    let (mut machine, mut plan) = WorkerMachine::welcome(conn.recv(ADMISSION_WAIT)?)?;
    if let Some(retry) = opts.retry {
        plan = plan.with_retry(retry);
    }
    let id = machine.worker_id();
    let mut link = Link::with_plan(conn, plan, id as u64 + 1, 0);
    loop {
        match machine.step(link.recv(machine.deadline())?)? {
            Step::Reply(frame) => {
                link.send(&frame)?;
                if let Frame::LocalCost { round, .. } = frame {
                    if let Some(hold) = leave(id, round as usize) {
                        std::thread::sleep(hold);
                        break;
                    }
                }
            }
            Step::Quiet => {}
            Step::Finished => break,
        }
    }
    Ok(machine.report(link.stats()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::EnvKind;
    use crate::handshake::welcome_frame;
    use std::net::{TcpListener, TcpStream};
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

    /// A worker welcomed at share 0.5 with round 3 open.
    fn machine_in_round_3() -> WorkerMachine {
        let env = WireEnvSpec { kind: EnvKind::StaticRamp, seed: 3 };
        let welcome = welcome_frame(0, 2, 10, env, 0.5, &FaultPlan::none(), Duration::from_secs(1));
        let (mut machine, _) = WorkerMachine::welcome(welcome).expect("a valid Welcome");
        let opened = machine.step(Frame::RoundStart { epoch: 0, round: 3 });
        assert!(matches!(opened, Ok(Step::Reply(Frame::LocalCost { round: 3, .. }))));
        machine
    }

    fn coordination(round: u64, is_straggler: bool) -> Frame {
        Frame::Coordination { round, global_cost: 10.0, alpha: 0.5, is_straggler }
    }

    fn refused(step: Result<Step, NetError>) -> bool {
        matches!(step, Err(NetError::Protocol(_)))
    }

    /// A `Coordination` for a round other than the open one is refused,
    /// not answered from the open round's cost function.
    #[test]
    fn an_off_round_coordination_is_refused() {
        assert!(refused(machine_in_round_3().step(coordination(9, false))));
        assert!(refused(machine_in_round_3().step(coordination(2, true))));
        let answered = machine_in_round_3().step(coordination(3, false));
        assert!(matches!(answered, Ok(Step::Reply(Frame::Decision { round: 3, .. }))));
    }

    /// An `Assignment` for a round other than the open one is refused
    /// and leaves the share alone.
    #[test]
    fn an_off_round_assignment_is_refused() {
        let mut machine = machine_in_round_3();
        assert!(matches!(machine.step(coordination(3, true)), Ok(Step::Quiet)));
        assert!(refused(machine.step(Frame::Assignment { round: 4, share: 0.9 })));
        assert_eq!(machine.share(), 0.5);
        let mut machine = machine_in_round_3();
        assert!(matches!(machine.step(coordination(3, true)), Ok(Step::Quiet)));
        assert!(matches!(
            machine.step(Frame::Assignment { round: 3, share: 0.9 }),
            Ok(Step::Quiet)
        ));
        assert_eq!(machine.share(), 0.9);
    }

    /// An `Adjust` for a round other than the open one, or before the
    /// open round's `Decision`, is refused and leaves the share alone.
    #[test]
    fn an_off_round_or_undecided_adjust_is_refused() {
        let mut machine = machine_in_round_3();
        assert!(matches!(machine.step(coordination(3, false)), Ok(Step::Reply(_))));
        let decided = machine.share();
        assert!(refused(machine.step(Frame::Adjust { round: 42, scale: 0.5 })));
        assert_eq!(machine.share(), decided);
        let mut machine = machine_in_round_3();
        assert!(refused(machine.step(Frame::Adjust { round: 3, scale: 0.5 })));
        assert_eq!(machine.share(), 0.5);
        let mut machine = machine_in_round_3();
        assert!(matches!(machine.step(coordination(3, false)), Ok(Step::Reply(_))));
        assert!(matches!(machine.step(Frame::Adjust { round: 3, scale: 1.0 }), Ok(Step::Quiet)));
        assert_eq!(machine.share(), decided);
    }
}
