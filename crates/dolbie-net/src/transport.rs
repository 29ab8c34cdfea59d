//! Socket transport, split into a readiness-free **buffer/codec layer**
//! ([`FrameCodec`]: reassembly, strict decode, batched transmit queues)
//! and the policies on top of it: the blocking [`FrameConn`] used by
//! workers and on the root ↔ shard-master backbone, bounded seeded
//! reconnect, and the seeded sender-side hold. A shard-master drives the
//! same codec over its blocking worker sockets ([`crate::shard`]).
//!
//! ## Loss is delay
//!
//! TCP never drops, duplicates or reorders a frame on a live connection,
//! and a connection that dies is a crash, which the tree survives as a
//! membership epoch. So the only effect a [`FaultPlan`]'s message loss
//! can have over TCP is delay: each dropped attempt of a frame is one
//! more retransmission timeout before it arrives.
//! [`FrameConn::hold_sends`] realises exactly that. Before it writes a frame, the sender sleeps for
//! the timeouts a stop-and-wait sender would have waited out before the
//! attempt that got through ([`hold`]): `Σ_{j<k} ack_timeout · backoff^j`
//! when the plan's data coins drop `k` attempts, the final attempt
//! forced. The plan's duplicate and ack-drop coins have no counterpart
//! over TCP.
//!
//! Holds never change a frame's contents or relative order, so the
//! protocol trajectory under a delayed link is identical to the lossless
//! one; only wall-clock time differs. Senders hold only their replies
//! (a worker's `LocalCost` and `Decision`, a shard-master's backbone
//! frames to the root); on a request/reply round, holding the reply
//! costs the same time as holding the request. `thread::sleep` is
//! precise, where a socket read timeout is rounded up to the kernel's
//! timer tick.

use crate::wire::{Frame, WireError, MAX_FRAME_BYTES};
use dolbie_simnet::faults::FaultPlan;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A transport failure: I/O, malformed bytes, or a protocol violation.
#[derive(Debug)]
pub enum TransportError {
    /// The socket failed (includes read-deadline timeouts and EOF).
    Io(std::io::Error),
    /// The peer sent undecodable bytes.
    Wire(WireError),
    /// The peer sent a well-formed frame that violates the protocol.
    Protocol(&'static str),
}

impl TransportError {
    /// Whether this is a read-deadline expiry (as opposed to a dead peer
    /// or malformed traffic).
    pub fn is_timeout(&self) -> bool {
        matches!(
            self,
            Self::Io(e) if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            )
        )
    }
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "socket error: {e}"),
            Self::Wire(e) => write!(f, "wire error: {e}"),
            Self::Protocol(what) => write!(f, "protocol violation: {what}"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<std::io::Error> for TransportError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<WireError> for TransportError {
    fn from(e: WireError) -> Self {
        Self::Wire(e)
    }
}

/// Wire-level counters of one connection (or a whole run, summed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Frames written to the socket.
    pub frames_sent: u64,
    /// Frames read off the socket.
    pub frames_received: u64,
    /// Bytes written, length prefixes included.
    pub bytes_sent: u64,
    /// Bytes read.
    pub bytes_received: u64,
    /// Frames the sender held back for a seeded drop before writing
    /// them ([`FrameConn::hold_sends`]).
    pub holds: u64,
}

impl WireStats {
    /// Adds another connection's counters into this one.
    pub fn absorb(&mut self, other: &WireStats) {
        self.frames_sent += other.frames_sent;
        self.frames_received += other.frames_received;
        self.bytes_sent += other.bytes_sent;
        self.bytes_received += other.bytes_received;
        self.holds += other.holds;
    }
}

/// The pure buffer/codec layer of a framed connection: bytes in one side,
/// frames out the other, plus an outgoing byte queue — no socket, no
/// blocking, no readiness. Both the blocking [`FrameConn`] and a
/// shard-master's worker connections sit on top of this.
///
/// Incoming bytes accumulate in a reassembly buffer and complete frames
/// parse off its front, so a read ending mid-frame never desynchronizes
/// the stream — the partial bytes stay buffered for the next ingest.
/// Outgoing frames encode into a contiguous transmit buffer the owner
/// drains at whatever pace the socket accepts, which is what lets the
/// event loop batch many frames into one `write` call.
#[derive(Debug, Default)]
pub struct FrameCodec {
    rx: Vec<u8>,
    tx: Vec<u8>,
    tx_at: usize,
    stats: WireStats,
}

impl FrameCodec {
    /// An empty codec.
    pub fn new() -> Self {
        Self { rx: Vec::with_capacity(4096), tx: Vec::new(), tx_at: 0, stats: WireStats::default() }
    }

    /// Appends raw bytes read off the socket.
    pub fn ingest(&mut self, bytes: &[u8]) {
        self.rx.extend_from_slice(bytes);
        self.stats.bytes_received += bytes.len() as u64;
    }

    /// Parses one complete frame off the front of the reassembly buffer.
    /// `Ok(None)` means more bytes are needed; malformed bytes are a hard
    /// error (strict decode never partially consumes).
    pub fn pop_frame(&mut self) -> Result<Option<Frame>, WireError> {
        match Frame::decode(&self.rx) {
            Ok((frame, used)) => {
                self.rx.drain(..used);
                self.stats.frames_received += 1;
                Ok(Some(frame))
            }
            Err(WireError::Truncated) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Encodes `frame` onto the transmit queue. Counted as sent here —
    /// the bytes are committed to this connection from this point.
    pub fn queue(&mut self, frame: &Frame) {
        let bytes = frame.encode();
        self.queue_raw(&bytes);
    }

    /// Appends pre-encoded frame bytes to the transmit queue — the
    /// coalesced-broadcast path: encode a frame once, queue it on many
    /// connections without re-encoding.
    pub fn queue_raw(&mut self, bytes: &[u8]) {
        self.tx.extend_from_slice(bytes);
        self.stats.frames_sent += 1;
        self.stats.bytes_sent += bytes.len() as u64;
    }

    /// The bytes awaiting transmission.
    pub fn pending_tx(&self) -> &[u8] {
        &self.tx[self.tx_at..]
    }

    /// Marks `n` pending bytes as written; reclaims the buffer once fully
    /// drained.
    pub fn advance_tx(&mut self, n: usize) {
        self.tx_at += n;
        debug_assert!(self.tx_at <= self.tx.len());
        if self.tx_at == self.tx.len() {
            self.tx.clear();
            self.tx_at = 0;
        }
    }

    /// Whether any bytes await transmission.
    pub fn has_tx(&self) -> bool {
        self.tx_at < self.tx.len()
    }

    /// This connection's byte/frame counters.
    pub fn stats(&self) -> WireStats {
        self.stats
    }
}

/// A framed **blocking** TCP connection: length-prefixed frames in, frames
/// out, with a per-call read deadline — a [`FrameCodec`] plus a socket and
/// the readiness policy "block until the deadline" — and, once
/// [`FrameConn::hold_sends`] installs them, seeded holds on what it sends.
#[derive(Debug)]
pub struct FrameConn {
    stream: TcpStream,
    codec: FrameCodec,
    /// The plan this end's sends are held by, its node codes `(from,
    /// to)`, and the sequence number of the next frame it sends.
    hold: Option<(FaultPlan, u64, u64, u64)>,
}

impl FrameConn {
    /// Wraps a connected stream; disables Nagle so the small protocol
    /// frames are not batched behind a delayed-ack timer.
    pub fn new(stream: TcpStream) -> std::io::Result<Self> {
        stream.set_nodelay(true)?;
        Ok(Self { stream, codec: FrameCodec::new(), hold: None })
    }

    /// Holds every later frame this end sends by `plan`'s seeded drops
    /// on the link from node code `from` to `to` ([`hold`]), numbering
    /// them from 0; a plan that drops nothing holds nothing. Node codes
    /// follow the `dolbie-simnet` convention: a shard-master is 0 and
    /// worker `i` is `i + 1`.
    pub fn hold_sends(&mut self, plan: &FaultPlan, from: u64, to: u64) {
        self.hold = (plan.drop_probability > 0.0).then(|| (plan.clone(), from, to, 0));
    }

    /// Whether the peer has closed the connection (or it failed), asked
    /// without waiting and without consuming anything. A peer that sent
    /// bytes and then closed reads as open until those bytes are taken.
    pub fn peer_closed(&self) -> bool {
        if self.stream.set_nonblocking(true).is_err() {
            return true;
        }
        let closed = match self.stream.peek(&mut [0u8; 1]) {
            Ok(0) => true,
            Ok(_) => false,
            Err(e) => !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted),
        };
        let restored = self.stream.set_nonblocking(false).is_ok();
        closed || !restored
    }

    /// Writes one frame, after its hold if [`FrameConn::hold_sends`]
    /// installed one.
    pub fn send(&mut self, frame: &Frame) -> Result<(), TransportError> {
        if let Some((plan, from, to, seq)) = self.hold.as_mut() {
            let wait = hold(plan, *seq, *from, *to);
            *seq += 1;
            if !wait.is_zero() {
                std::thread::sleep(wait);
                self.codec.stats.holds += 1;
            }
        }
        self.codec.queue(frame);
        while self.codec.has_tx() {
            match self.stream.write(self.codec.pending_tx()) {
                Ok(0) => {
                    return Err(std::io::Error::from(std::io::ErrorKind::WriteZero).into());
                }
                Ok(k) => self.codec.advance_tx(k),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        Ok(())
    }

    /// Reads one frame, waiting at most `deadline`.
    pub fn recv(&mut self, deadline: Duration) -> Result<Frame, TransportError> {
        let until = Instant::now() + deadline;
        loop {
            if let Some(frame) = self.codec.pop_frame()? {
                return Ok(frame);
            }
            let remaining = until.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(std::io::Error::from(std::io::ErrorKind::TimedOut).into());
            }
            // set_read_timeout(Some(0)) is an error by contract; clamp up.
            self.stream.set_read_timeout(Some(remaining.max(Duration::from_millis(1))))?;
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(std::io::Error::from(std::io::ErrorKind::UnexpectedEof).into()),
                Ok(k) => self.codec.ingest(&chunk[..k]),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// This connection's byte/frame counters.
    pub fn stats(&self) -> WireStats {
        self.codec.stats()
    }
}

/// How long frame `seq` from node `from` to node `to` is held under
/// `plan`: the retransmission timeouts a stop-and-wait sender would wait
/// out before the attempt that gets through, `Σ_{j<k} ack_timeout ·
/// backoff^j` when the plan's data coins drop attempts `0..k`. The final
/// attempt is forced, so `k < max_attempts`.
pub fn hold(plan: &FaultPlan, seq: u64, from: u64, to: u64) -> Duration {
    let retry = plan.retry;
    let (mut wait, mut timeout) = (0.0, retry.ack_timeout);
    for attempt in 0..retry.max_attempts.saturating_sub(1) {
        if !plan.wire_drop(seq, from, to, attempt) {
            break;
        }
        wait += timeout;
        timeout *= retry.backoff;
    }
    Duration::from_secs_f64(wait)
}

/// Connects with bounded, seeded exponential backoff: attempt `k` waits
/// `base · 2^k · (1 + jitter_k)` with deterministic per-seed jitter in
/// `[0, 0.5)`, with each wait clamped to [`MAX_BACKOFF_SLEEP`] so long
/// retry schedules grow linearly rather than exponentially past the cap.
/// Returns the last error if every attempt fails.
pub fn connect_with_backoff(
    addr: SocketAddr,
    attempts: usize,
    base: Duration,
    seed: u64,
) -> std::io::Result<TcpStream> {
    assert!(attempts >= 1, "at least one connection attempt is required");
    let mut last = None;
    for k in 0..attempts {
        match TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(e) => last = Some(e),
        }
        if k + 1 < attempts {
            let jitter = (mix(seed, k as u64) >> 11) as f64 / (1u64 << 53) as f64 * 0.5;
            let wait = base.mul_f64((1u64 << k.min(16)) as f64 * (1.0 + jitter));
            std::thread::sleep(wait.min(MAX_BACKOFF_SLEEP));
        }
    }
    Err(last.expect("at least one attempt ran"))
}

/// Per-attempt ceiling of the reconnect backoff: past this point more
/// attempts buy a longer *total* wait without ever parking a worker for
/// minutes at a time.
pub const MAX_BACKOFF_SLEEP: Duration = Duration::from_secs(2);

/// The connect retry schedule for a fleet of `n` workers racing one
/// listener: `(attempts, base, stagger)`.
///
/// The OS listen backlog is fixed (std offers no knob), so at large `n`
/// simultaneous SYNs overflow it and late workers ride kernel SYN
/// retransmits or outright refusals. Two N-scaled levers compensate:
/// the worker's *attempt budget* grows with `log2 n` (each capped at
/// [`MAX_BACKOFF_SLEEP`], so the worst-case total wait scales ~linearly
/// in the budget), and worker `k` delays its first SYN by
/// `k · stagger` to spread the herd across the accept loop's capacity
/// instead of a single instant.
pub fn connect_schedule(n: usize, k: usize) -> (usize, Duration, Duration) {
    let log2n = usize::BITS - n.max(1).leading_zeros();
    let attempts = 10 + 2 * log2n as usize;
    let stagger = if n > 256 { Duration::from_micros(100) * (k as u32) } else { Duration::ZERO };
    (attempts, Duration::from_millis(10), stagger)
}

fn mix(seed: u64, salt: u64) -> u64 {
    let mut z =
        (seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15)).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Default `frame_timeout` T, a shard-master's per-frame read deadline on
/// its worker links: generous enough that a held reply is not taken for
/// a dead worker, short enough that a crashed peer is detected promptly. The
/// backbone and worker deadlines derive from it
/// ([`root_deadline`](crate::shard::root_deadline),
/// [`shard_deadline`](crate::shard::shard_deadline),
/// [`worker_deadline`](crate::shard::worker_deadline)).
pub const DEFAULT_FRAME_TIMEOUT: Duration = Duration::from_secs(10);

#[allow(unused)]
const _ASSERT_CAP_FITS: () = assert!(MAX_FRAME_BYTES <= u32::MAX as usize);

#[cfg(test)]
mod tests {
    use super::*;
    use dolbie_simnet::faults::RetryPolicy;
    use std::net::TcpListener;

    fn pair() -> (FrameConn, FrameConn) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        (FrameConn::new(client).unwrap(), FrameConn::new(server).unwrap())
    }

    #[test]
    fn frames_cross_a_real_socket() {
        let (mut a, mut b) = pair();
        let frame = Frame::LocalCost { epoch: 0, round: 9, cost: 1.0 / 3.0 };
        a.send(&frame).unwrap();
        let got = b.recv(Duration::from_secs(2)).unwrap();
        assert_eq!(got, frame);
        assert_eq!(a.stats().frames_sent, 1);
        assert_eq!(b.stats().frames_received, 1);
        assert_eq!(a.stats().bytes_sent, b.stats().bytes_received);
    }

    #[test]
    fn read_deadline_expires_without_desync() {
        let (mut a, mut b) = pair();
        let err = b.recv(Duration::from_millis(30)).unwrap_err();
        assert!(err.is_timeout());
        // The stream still works after the timeout.
        a.send(&Frame::Shutdown).unwrap();
        assert_eq!(b.recv(Duration::from_secs(2)).unwrap(), Frame::Shutdown);
    }

    #[test]
    fn peer_closed_sees_a_close_but_not_silence_or_unread_bytes() {
        let (mut a, mut b) = pair();
        assert!(!b.peer_closed(), "a silent open peer is not closed");
        a.send(&Frame::Shutdown).unwrap();
        assert!(!b.peer_closed(), "unread bytes read as open");
        assert_eq!(b.recv(Duration::from_secs(2)).unwrap(), Frame::Shutdown);
        drop(a);
        let deadline = Instant::now() + Duration::from_secs(2);
        while !b.peer_closed() {
            assert!(Instant::now() < deadline, "the close never showed");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// The first sequence number whose data coins from node 1 to node 0
    /// drop exactly the attempts `dropped` marks, of its first
    /// `dropped.len()`.
    fn seq_dropping(plan: &FaultPlan, dropped: &[bool]) -> u64 {
        (0..)
            .find(|&seq| {
                dropped.iter().enumerate().all(|(a, &d)| plan.wire_drop(seq, 1, 0, a) == d)
            })
            .expect("some sequence number")
    }

    /// A hold is the timeouts of the dropped attempts before the one
    /// that gets through, `ack_timeout · backoff^j` each, and the forced
    /// final attempt ends it however the coins fall.
    #[test]
    fn a_hold_waits_out_each_dropped_attempt_up_to_the_forced_one() {
        let plan = FaultPlan::seeded(21)
            .with_drop_probability(0.5)
            .with_retry(RetryPolicy::new(0.01, 2.0, 4));
        let ms = |seq| hold(&plan, seq, 1, 0).as_secs_f64() * 1e3;
        assert_eq!(ms(seq_dropping(&plan, &[false])), 0.0, "a delivered first attempt");
        let held = ms(seq_dropping(&plan, &[true, true, false]));
        assert!((held - 30.0).abs() < 1e-9, "two drops wait 10 + 20 ms, not {held} ms");
        let forced = ms(seq_dropping(&plan, &[true, true, true, true]));
        assert!((forced - 70.0).abs() < 1e-9, "the fourth attempt is forced, not {forced} ms");
        for seq in 0..64 {
            assert_eq!(hold(&FaultPlan::none(), seq, 1, 0), Duration::ZERO, "lossless");
        }
    }

    /// Held frames cross the socket in order and unchanged; the sender
    /// counts each frame it held, and the waits add up.
    #[test]
    fn held_sends_arrive_in_order_and_count_their_holds() {
        let (mut a, mut b) = pair();
        let plan = FaultPlan::seeded(21)
            .with_drop_probability(0.4)
            .with_retry(RetryPolicy::new(0.002, 1.5, 6));
        a.hold_sends(&plan, 1, 0);
        let frame = |round: u64| Frame::LocalCost { epoch: 0, round, cost: round as f64 };
        let started = Instant::now();
        for round in 0..50u64 {
            a.send(&frame(round)).unwrap();
        }
        let waited = started.elapsed();
        for round in 0..50u64 {
            assert_eq!(b.recv(Duration::from_secs(2)).unwrap(), frame(round));
        }
        let holds: Vec<Duration> = (0..50).map(|seq| hold(&plan, seq, 1, 0)).collect();
        let held = holds.iter().filter(|h| !h.is_zero()).count() as u64;
        assert!(held > 0, "40% drop over 50 frames must hold some");
        assert_eq!(a.stats().holds, held);
        assert!(waited >= holds.iter().sum(), "slept {waited:?}");
        assert_eq!(b.stats().holds, 0, "the receiver holds nothing");
    }

    #[test]
    fn a_lossless_plan_holds_nothing() {
        let (mut a, mut b) = pair();
        a.hold_sends(&FaultPlan::none(), 1, 0);
        let frame = Frame::Assignment { round: 0, share: 0.5 };
        a.send(&frame).unwrap();
        assert_eq!(b.recv(Duration::from_secs(2)).unwrap(), frame);
        assert_eq!(a.stats().bytes_sent, frame.encode().len() as u64);
        assert_eq!(a.stats().holds, 0);
    }

    #[test]
    fn backoff_connect_eventually_reaches_a_late_listener() {
        // Reserve a port, close it, then re-listen shortly after the
        // client starts retrying.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        drop(listener);
        let opener = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(60));
            let listener = TcpListener::bind(addr).unwrap();
            listener.accept().map(|_| ()).unwrap();
        });
        let stream = connect_with_backoff(addr, 8, Duration::from_millis(25), 7).unwrap();
        drop(stream);
        opener.join().unwrap();
    }
}
