//! Worker admission: the `Hello → Welcome` handshake and its rejection
//! semantics, run by every shard-master ([`crate::shard`]).
//!
//! The rules: strict magic/version checks ride inside
//! `Frame` decode; worker ids are assigned in Hello-completion order; a
//! socket that fails the handshake — timeout, garbage bytes, a premature
//! close, or a well-formed non-`Hello` opener — is rejected while the
//! listener keeps accepting, so a rogue or slow peer never aborts or
//! consumes a slot of the real fleet. The handshake precedes the lossy
//! envelope; faults start with the first round frame.

use crate::env::WireEnvSpec;
use crate::fleet::{Conn, IdleWait, READ_CHUNK_BYTES};
use crate::transport::TransportError;
use crate::wire::Frame;
use crate::NetError;
use dolbie_simnet::faults::FaultPlan;
use std::io::ErrorKind;
use std::net::TcpListener;
use std::time::{Duration, Instant};

/// Builds the `Welcome` frame a shard-master sends in response to a
/// worker's `Hello` — the one place the fault-plan fields and the
/// shard-master's `frame_timeout` map onto the wire.
pub(crate) fn welcome_frame(
    worker_id: u32,
    num_workers: u32,
    rounds: u64,
    env: WireEnvSpec,
    initial_share: f64,
    fault: &FaultPlan,
    frame_timeout: Duration,
) -> Frame {
    Frame::Welcome {
        worker_id,
        num_workers,
        rounds,
        env,
        initial_share,
        drop_probability: fault.drop_probability,
        duplicate_probability: fault.duplicate_probability,
        fault_seed: fault.seed,
        frame_timeout_us: frame_timeout.as_micros().try_into().unwrap_or(u64::MAX),
    }
}

/// The fault plan a `Welcome` or `ShardWelcome` ships, rebuilt on the
/// receiving end — the inverse of [`welcome_frame`]. The sender's plan
/// came through `FaultPlan::with_drop_probability` and
/// `with_duplicate_probability`, which admit only `[0, 1)`; a probability
/// outside it (NaN included) is a protocol error, not a panic in those
/// builders' asserts, and not silently dropped.
pub(crate) fn shipped_fault_plan(
    fault_seed: u64,
    drop_probability: f64,
    duplicate_probability: f64,
) -> Result<FaultPlan, NetError> {
    for (what, p) in [("drop", drop_probability), ("duplicate", duplicate_probability)] {
        if !(0.0..1.0).contains(&p) {
            return Err(NetError::Protocol(format!("{what} probability {p} is outside [0, 1)")));
        }
    }
    let mut plan = FaultPlan::seeded(fault_seed);
    if drop_probability > 0.0 {
        plan = plan.with_drop_probability(drop_probability);
    }
    if duplicate_probability > 0.0 {
        plan = plan.with_duplicate_probability(duplicate_probability);
    }
    Ok(plan)
}

/// How often admission asks whether its caller's upstream has gone.
const UPSTREAM_CHECK: Duration = Duration::from_millis(20);

/// Concurrent evented admission: every pending socket handshakes under
/// its own Hello deadline, `frame_timeout` from its accept, checked in
/// each pass over the candidates; slots are assigned in Hello-completion
/// order. The listener must already be non-blocking. Welcome content and
/// lossy peer codes come from the closures, keyed by the admission slot,
/// so a shard-master offsets them by its global id range.
///
/// Admission itself has no deadline; it ends early, with an error, when
/// `upstream_gone` says the party the fleet is being admitted for has
/// left (every [`UPSTREAM_CHECK`]).
pub(crate) fn admit_concurrent(
    listener: &TcpListener,
    count: usize,
    frame_timeout: Duration,
    fault: &FaultPlan,
    mut welcome: impl FnMut(usize) -> Frame,
    mut peer_code: impl FnMut(usize) -> u64,
    mut upstream_gone: impl FnMut() -> bool,
) -> Result<Vec<Option<Conn>>, NetError> {
    let mut idle = IdleWait::new();
    let mut candidates: Vec<Option<(Conn, Instant)>> = Vec::new();
    let mut admitted: Vec<Option<Conn>> = (0..count).map(|_| None).collect();
    let mut next_id = 0usize;
    let mut next_check = Instant::now() + UPSTREAM_CHECK;
    let mut read_buf = vec![0; READ_CHUNK_BYTES];
    while next_id < count {
        let now = Instant::now();
        if now >= next_check {
            if upstream_gone() {
                return Err(NetError::Protocol(format!(
                    "the upstream link closed after {next_id} of {count} workers were admitted"
                )));
            }
            next_check = now + UPSTREAM_CHECK;
        }
        let mut progressed = false;
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    if let Ok(conn) = Conn::new(stream) {
                        candidates.push(Some((conn, now + frame_timeout)));
                        progressed = true;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(TransportError::from(e).into()),
            }
        }
        for slot in candidates.iter_mut() {
            if next_id >= count {
                break;
            }
            let Some((conn, deadline)) = slot.as_mut() else { continue };
            match conn.pump_read(&mut read_buf) {
                Ok(p) => progressed |= p,
                Err(_) => {
                    // Rejected: dead socket or undecodable bytes.
                    *slot = None;
                    continue;
                }
            }
            match conn.inbox.pop_front() {
                // Hello never arrived within the deadline: rejected.
                None if now >= *deadline => *slot = None,
                None => {}
                Some(Frame::Hello { .. }) => {
                    let (mut conn, _) = slot.take().expect("candidate present");
                    let id = next_id;
                    next_id += 1;
                    conn.queue(&welcome(id), now);
                    // The handshake precedes the envelope; faults start
                    // with the first round frame (like the worker side).
                    conn.install_lossy(fault, 0, peer_code(id));
                    // Write errors surface at the fleet's first flush.
                    let _ = conn.pump_write();
                    admitted[id] = Some(conn);
                    progressed = true;
                }
                // A well-formed but out-of-protocol opener: rejected.
                Some(_) => *slot = None,
            }
        }
        idle.pace(progressed);
    }
    Ok(admitted)
}
