//! Worker admission: the `Hello → Welcome` handshake and its rejection
//! semantics, run by every shard-master ([`crate::shard`]).
//!
//! The rules: strict magic/version checks ride inside
//! `Frame` decode; worker ids are assigned in Hello-completion order; a
//! socket that fails the handshake — timeout, garbage bytes, a premature
//! close, or a well-formed non-`Hello` opener — is rejected while the
//! listener keeps accepting, so a rogue or slow peer never aborts or
//! consumes a slot of the real fleet. `Welcome` ships the link's hold
//! plan; holds start with the worker's first reply.

use crate::env::WireEnvSpec;
use crate::fleet::{Conn, IdleWait, READ_CHUNK_BYTES};
use crate::shard::ADMISSION_WAIT;
use crate::transport::TransportError;
use crate::wire::Frame;
use crate::NetError;
use dolbie_simnet::faults::{FaultPlan, RetryPolicy};
use std::io::ErrorKind;
use std::net::TcpListener;
use std::time::{Duration, Instant};

/// Builds the `Welcome` frame a shard-master sends in response to a
/// worker's `Hello` — the one place the hold plan and the
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
        duplicate_probability: 0.0,
        fault_seed: fault.seed,
        frame_timeout_us: frame_timeout.as_micros().try_into().unwrap_or(u64::MAX),
        retry_ack_timeout: fault.retry.ack_timeout,
        retry_backoff: fault.retry.backoff,
        retry_max_attempts: fault.retry.max_attempts.try_into().unwrap_or(u32::MAX),
    }
}

/// The hold plan a `Welcome` or `ShardWelcome` ships, rebuilt on the
/// receiving end — the inverse of [`welcome_frame`], if the sender could
/// have built it. The sender's plan came through
/// `FaultPlan::with_drop_probability`, which admits only `[0, 1)`, and
/// `RetryPolicy::new`, which admits a positive, finite ack timeout, a
/// finite backoff ≥ 1 and at least one attempt; and its longest timeout
/// `ack_timeout · backoff^(attempts − 1)` lies within [`ADMISSION_WAIT`],
/// the longest wait of the protocol, so a hold's `Duration` cannot
/// overflow. Anything else — NaN included — is a protocol error, not a
/// panic in those builders' asserts.
pub(crate) fn shipped_plan(
    fault_seed: u64,
    drop_probability: f64,
    ack_timeout: f64,
    backoff: f64,
    max_attempts: u32,
) -> Result<FaultPlan, NetError> {
    if !(0.0..1.0).contains(&drop_probability) {
        return Err(NetError::Protocol(format!(
            "drop probability {drop_probability} is outside [0, 1)"
        )));
    }
    let sound = ack_timeout > 0.0
        && ack_timeout.is_finite()
        && backoff >= 1.0
        && backoff.is_finite()
        && max_attempts >= 1
        && ack_timeout * backoff.powf(f64::from(max_attempts - 1)) <= ADMISSION_WAIT.as_secs_f64();
    if !sound {
        return Err(NetError::Protocol(format!(
            "hold pacing ({ack_timeout} s, ×{backoff}, {max_attempts} attempts) is impossible"
        )));
    }
    Ok(FaultPlan::seeded(fault_seed)
        .with_drop_probability(drop_probability)
        .with_retry(RetryPolicy::new(ack_timeout, backoff, max_attempts as usize)))
}

/// How often admission asks whether its caller's upstream has gone.
const UPSTREAM_CHECK: Duration = Duration::from_millis(20);

/// Concurrent evented admission: every pending socket handshakes under
/// its own Hello deadline, `frame_timeout` from its accept, checked in
/// each pass over the candidates; slots are assigned in Hello-completion
/// order. The listener must already be non-blocking. Welcome content
/// comes from the closure, keyed by the admission slot, so a
/// shard-master offsets it by its global id range.
///
/// Admission itself has no deadline; it ends early, with an error, when
/// `upstream_gone` says the party the fleet is being admitted for has
/// left (every [`UPSTREAM_CHECK`]).
pub(crate) fn admit_concurrent(
    listener: &TcpListener,
    count: usize,
    frame_timeout: Duration,
    mut welcome: impl FnMut(usize) -> Frame,
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
                    conn.codec.queue(&welcome(id));
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
