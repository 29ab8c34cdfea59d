//! Socket transport, split into a readiness-free **buffer/codec layer**
//! ([`FrameCodec`]: reassembly, strict decode, batched transmit queues)
//! and the policies on top of it: the blocking [`FrameConn`]/[`Link`]
//! used by workers and on the root ↔ shard-master backbone, bounded
//! seeded reconnect, and the deterministic lossy envelope. A
//! shard-master drives the same codec and the same envelope over its
//! worker sockets ([`crate::shard`]).
//!
//! ## The lossy mode
//!
//! A lossy [`Link`] replays a [`FaultPlan`]'s drop/duplicate/ack-drop
//! decisions at the socket layer. Every protocol frame is carried in a
//! [`Frame::Data`] envelope tagged with a per-direction sequence number
//! and attempt counter; a "dropped" transmission is simply never written
//! to the socket (real non-delivery), the sender waits out a real
//! retransmission timeout ([`RetryPolicy`](dolbie_simnet::faults::RetryPolicy))
//! and tries again, the receiver
//! acknowledges every arriving copy (unless the plan drops the ack) and
//! deduplicates by sequence number. The final attempt is written
//! unconditionally and not awaited — TCP itself guarantees its delivery —
//! so progress is guaranteed and a lossy run always terminates.
//!
//! Because loss only ever *delays* frames and never changes their
//! contents or relative order, the protocol trajectory under a lossy link
//! is identical to the lossless one; only wall-clock and wire-byte
//! accounting differ. Lossless links skip the envelope entirely: zero
//! overhead, raw protocol frames on the wire.
//!
//! The envelope itself is one sans-I/O state machine with no socket and
//! no clock of its own: it consumes frames and caller-supplied instants
//! and emits the frames to write. [`Link`] drives it with blocking reads
//! bounded by the in-flight attempt's deadline; a shard-master's polled
//! worker connections drive it from their readiness sweep.

use crate::wire::{Frame, WireError, MAX_FRAME_BYTES};
use dolbie_simnet::faults::FaultPlan;
use std::collections::VecDeque;
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
    /// Frames written to the socket (envelope and ack frames included).
    pub frames_sent: u64,
    /// Frames read off the socket.
    pub frames_received: u64,
    /// Bytes written, length prefixes included.
    pub bytes_sent: u64,
    /// Bytes read.
    pub bytes_received: u64,
    /// Data retransmission attempts beyond each frame's first.
    pub retransmissions: u64,
    /// Fault-injected duplicate copies written.
    pub duplicates: u64,
    /// Acknowledgement frames written.
    pub acks: u64,
}

impl WireStats {
    /// Adds another connection's counters into this one.
    pub fn absorb(&mut self, other: &WireStats) {
        self.frames_sent += other.frames_sent;
        self.frames_received += other.frames_received;
        self.bytes_sent += other.bytes_sent;
        self.bytes_received += other.bytes_received;
        self.retransmissions += other.retransmissions;
        self.duplicates += other.duplicates;
        self.acks += other.acks;
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
/// the readiness policy "block until the deadline".
#[derive(Debug)]
pub struct FrameConn {
    stream: TcpStream,
    codec: FrameCodec,
}

impl FrameConn {
    /// Wraps a connected stream; disables Nagle so the small protocol
    /// frames are not batched behind a delayed-ack timer.
    pub fn new(stream: TcpStream) -> std::io::Result<Self> {
        stream.set_nodelay(true)?;
        Ok(Self { stream, codec: FrameCodec::new() })
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

    /// Writes one frame.
    pub fn send(&mut self, frame: &Frame) -> Result<(), TransportError> {
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

/// One stop-and-wait attempt in flight.
#[derive(Debug)]
struct Inflight {
    seq: u64,
    frame: Frame,
    attempt: usize,
    /// This attempt's retransmission timeout in seconds,
    /// `ack_timeout · backoff^attempt`.
    rto: f64,
    /// When this attempt was transmitted (or hash-dropped).
    at: Instant,
}

/// The lossy Data/Ack envelope of one connection as a sans-I/O state
/// machine: it consumes protocol frames to send, frames off the wire and
/// a caller-supplied clock, and emits the frames to write. The blocking
/// [`Link`] and a shard-master's polled worker connections are two thin
/// I/O loops over it.
///
/// It owns the per-direction sequence numbers, the outbox and the one
/// in-flight attempt (stop-and-wait: pipelining would break the
/// receiver's high-water-mark dedup), the `ack_timeout · backoff^k`
/// retransmission clock, every [`FaultPlan`] wire decision, and the
/// envelope counters.
#[derive(Debug)]
pub(crate) struct Envelope {
    plan: FaultPlan,
    /// This endpoint's node code in the fault-decision hash (master 0,
    /// worker `i` → `i + 1`; the `dolbie-simnet` convention).
    self_code: u64,
    peer_code: u64,
    next_seq: u64,
    last_delivered: Option<u64>,
    outbox: VecDeque<Frame>,
    inflight: Option<Inflight>,
    /// Frames to write, in order; the I/O loop drains them.
    wire: Vec<Frame>,
    retransmissions: u64,
    duplicates: u64,
    acks: u64,
}

impl Envelope {
    /// The envelope replaying `plan` between `self_code` and `peer_code`,
    /// or `None` for a lossless plan: lossless links carry raw frames.
    pub(crate) fn new(plan: &FaultPlan, self_code: u64, peer_code: u64) -> Option<Self> {
        (!plan.is_lossless()).then(|| Self {
            plan: plan.clone(),
            self_code,
            peer_code,
            next_seq: 0,
            last_delivered: None,
            outbox: VecDeque::new(),
            inflight: None,
            wire: Vec::new(),
            retransmissions: 0,
            duplicates: 0,
            acks: 0,
        })
    }

    /// Queues one protocol frame for delivery.
    pub(crate) fn push(&mut self, frame: Frame, now: Instant) {
        self.outbox.push_back(frame);
        self.kick(now);
    }

    /// Whether a frame is queued or awaiting its ack.
    pub(crate) fn busy(&self) -> bool {
        self.inflight.is_some() || !self.outbox.is_empty()
    }

    /// When the in-flight attempt's retransmission timeout expires.
    pub(crate) fn deadline(&self) -> Option<Instant> {
        self.inflight.as_ref().map(|i| i.at + Duration::from_secs_f64(i.rto))
    }

    /// Drives the retransmission clock to `now`: at most one further
    /// attempt per call, its own timeout counted from `now`.
    pub(crate) fn poll(&mut self, now: Instant) {
        if self.deadline().is_none_or(|due| now < due) {
            return;
        }
        let inflight = self.inflight.as_mut().expect("a deadline implies an attempt");
        inflight.attempt += 1;
        inflight.rto *= self.plan.retry.backoff;
        self.retransmissions += 1;
        self.transmit(now);
        self.kick(now);
    }

    /// Takes one frame off the wire. Data is acked (unless the plan
    /// drops the ack) and deduplicated; the payload comes back iff it is
    /// new. An ack of the in-flight attempt completes it.
    pub(crate) fn receive(
        &mut self,
        frame: Frame,
        now: Instant,
    ) -> Result<Option<Frame>, TransportError> {
        match frame {
            Frame::Data { seq, attempt, inner } => {
                // Ack fate is keyed on the DATA direction (peer → self),
                // so the sender reaches the same verdict.
                if !self.plan.wire_ack_drop(seq, self.peer_code, self.self_code, attempt as usize) {
                    self.wire.push(Frame::Ack { seq });
                    self.acks += 1;
                }
                // Per-direction seqs are strictly increasing; anything at
                // or below the high-water mark is a copy already delivered.
                if self.last_delivered.is_none_or(|last| seq > last) {
                    self.last_delivered = Some(seq);
                    return Ok(Some(*inner));
                }
                Ok(None)
            }
            Frame::Ack { seq } => {
                // A late ack for an attempt already completed is ignored.
                if self.inflight.as_ref().is_some_and(|i| i.seq == seq) {
                    self.inflight = None;
                    self.kick(now);
                }
                Ok(None)
            }
            _ => Err(TransportError::Protocol("raw frame on a lossy link")),
        }
    }

    /// The frames to write since the last call, in write order.
    pub(crate) fn drain_wire(&mut self) -> std::vec::Drain<'_, Frame> {
        self.wire.drain(..)
    }

    /// Overlays the envelope counters on a connection's socket counters.
    pub(crate) fn stamp(&self, stats: &mut WireStats) {
        stats.retransmissions = self.retransmissions;
        stats.duplicates = self.duplicates;
        stats.acks = self.acks;
    }

    /// Starts queued frames while nothing is in flight.
    fn kick(&mut self, now: Instant) {
        while self.inflight.is_none() {
            let Some(frame) = self.outbox.pop_front() else { return };
            let seq = self.next_seq;
            self.next_seq += 1;
            let rto = self.plan.retry.ack_timeout;
            self.inflight = Some(Inflight { seq, frame, attempt: 0, rto, at: now });
            self.transmit(now);
        }
    }

    /// Emits (or hash-drops) the current attempt. The final attempt is
    /// emitted unconditionally and not awaited — TCP delivers what is
    /// written — so it completes the envelope.
    fn transmit(&mut self, now: Instant) {
        let inflight = self.inflight.as_mut().expect("an attempt in flight");
        let (seq, attempt) = (inflight.seq, inflight.attempt);
        let forced = attempt + 1 >= self.plan.retry.max_attempts;
        if forced || !self.plan.wire_drop(seq, self.self_code, self.peer_code, attempt) {
            let data = Frame::Data {
                seq,
                attempt: attempt as u32,
                inner: Box::new(inflight.frame.clone()),
            };
            if self.plan.wire_duplicate(seq, self.self_code, self.peer_code, attempt) {
                self.wire.push(data.clone());
                self.duplicates += 1;
            }
            self.wire.push(data);
        }
        inflight.at = now;
        if forced {
            self.inflight = None;
        }
    }
}

/// A protocol-frame channel over one blocking TCP connection: either raw
/// frames (lossless) or the lossy envelope, driven by blocking waits.
#[derive(Debug)]
pub struct Link {
    conn: FrameConn,
    envelope: Option<Envelope>,
    /// Payloads the envelope delivered while a send awaited its ack.
    inbox: VecDeque<Frame>,
}

impl Link {
    /// A raw pass-through link: protocol frames directly on the wire.
    pub fn lossless(conn: FrameConn) -> Self {
        Self { conn, envelope: None, inbox: VecDeque::new() }
    }

    /// A link replaying `plan`'s socket-layer faults. `self_code` and
    /// `peer_code` are the endpoints' node codes (master 0, worker `i` →
    /// `i + 1`), which key the per-attempt fate hashes so both ends agree
    /// on every decision. Falls back to a pass-through if the plan is
    /// lossless.
    pub fn with_plan(conn: FrameConn, plan: FaultPlan, self_code: u64, peer_code: u64) -> Self {
        Self { conn, envelope: Envelope::new(&plan, self_code, peer_code), inbox: VecDeque::new() }
    }

    /// Sends one protocol frame; in lossy mode this blocks through the
    /// retransmission schedule until a copy is acknowledged (or the final
    /// attempt is force-written), servicing inbound traffic meanwhile.
    pub fn send(&mut self, frame: &Frame) -> Result<(), TransportError> {
        let Some(envelope) = self.envelope.as_mut() else { return self.conn.send(frame) };
        envelope.push(frame.clone(), Instant::now());
        loop {
            self.flush()?;
            let Some(due) = self.envelope.as_ref().and_then(Envelope::deadline) else {
                return Ok(());
            };
            match self.conn.recv(due.saturating_duration_since(Instant::now())) {
                Ok(frame) => self.on_wire(frame)?,
                Err(e) if e.is_timeout() => {}
                Err(e) => return Err(e),
            }
            self.envelope.as_mut().expect("lossy mode").poll(Instant::now());
        }
    }

    /// Receives the next protocol frame, waiting at most `deadline`.
    pub fn recv(&mut self, deadline: Duration) -> Result<Frame, TransportError> {
        if self.envelope.is_none() {
            return self.conn.recv(deadline);
        }
        let until = Instant::now() + deadline;
        loop {
            if let Some(frame) = self.inbox.pop_front() {
                return Ok(frame);
            }
            let remaining = until.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(std::io::Error::from(std::io::ErrorKind::TimedOut).into());
            }
            let frame = self.conn.recv(remaining)?;
            self.on_wire(frame)?;
        }
    }

    /// Hands one wire frame to the envelope, inboxing any payload and
    /// writing any ack.
    fn on_wire(&mut self, frame: Frame) -> Result<(), TransportError> {
        let envelope = self.envelope.as_mut().expect("lossy mode");
        if let Some(payload) = envelope.receive(frame, Instant::now())? {
            self.inbox.push_back(payload);
        }
        self.flush()
    }

    /// Writes every frame the envelope emitted.
    fn flush(&mut self) -> Result<(), TransportError> {
        let Self { conn, envelope, .. } = self;
        for frame in envelope.as_mut().expect("lossy mode").drain_wire() {
            conn.send(&frame)?;
        }
        Ok(())
    }

    /// Combined socket and link-layer counters.
    pub fn stats(&self) -> WireStats {
        let mut stats = self.conn.stats();
        if let Some(envelope) = &self.envelope {
            envelope.stamp(&mut stats);
        }
        stats
    }
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
/// its worker links: generous enough for the full lossy retransmission
/// schedule, short enough that a crashed peer is detected promptly. The
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

    #[test]
    fn lossy_link_delivers_exactly_once_despite_faults() {
        let (client, server) = pair();
        let plan = FaultPlan::seeded(21)
            .with_drop_probability(0.4)
            .with_duplicate_probability(0.3)
            .with_retry(RetryPolicy::new(0.01, 1.5, 6));
        let sender = std::thread::spawn({
            let plan = plan.clone();
            move || {
                let mut link = Link::with_plan(client, plan, 1, 0);
                for round in 0..50u64 {
                    link.send(&Frame::LocalCost { epoch: 0, round, cost: round as f64 }).unwrap();
                }
                link.stats()
            }
        });
        let mut link = Link::with_plan(server, plan, 0, 1);
        for round in 0..50u64 {
            let frame = link.recv(Duration::from_secs(10)).unwrap();
            assert_eq!(
                frame,
                Frame::LocalCost { epoch: 0, round, cost: round as f64 },
                "in-order exactly-once delivery"
            );
        }
        let sent = sender.join().unwrap();
        assert!(sent.retransmissions > 0, "40% drop over 50 frames must retransmit somewhere");
        assert!(sent.duplicates > 0, "30% duplication must fire somewhere");
    }

    /// Checks `envelope`'s in-flight attempt against the exact schedule:
    /// a new frame starts at `now` on attempt 0, and attempt `k` starts
    /// at attempt `k − 1`'s deadline and times out
    /// `ack_timeout · backoff^k` later. `last` is the previous
    /// observation `(seq, attempt, deadline)`.
    fn check_schedule(envelope: &Envelope, now: Instant, last: &mut Option<(u64, usize, Instant)>) {
        let Some(inflight) = envelope.inflight.as_ref() else {
            *last = None;
            return;
        };
        let retry = envelope.plan.retry;
        let rto = (0..inflight.attempt).fold(retry.ack_timeout, |r, _| r * retry.backoff);
        let due = inflight.at + Duration::from_secs_f64(rto);
        assert_eq!(envelope.deadline(), Some(due), "attempt {}", inflight.attempt);
        match *last {
            Some((seq, attempt, prev_due)) if seq == inflight.seq => {
                if inflight.attempt != attempt {
                    assert_eq!(inflight.attempt, attempt + 1, "one attempt per expiry");
                    assert_eq!(inflight.at, prev_due, "a retransmission fires at its deadline");
                }
            }
            _ => {
                assert_eq!(inflight.attempt, 0, "a new frame starts on attempt 0");
                assert_eq!(inflight.at, now, "a new frame starts when its turn comes");
            }
        }
        *last = Some((inflight.seq, inflight.attempt, due));
    }

    /// The envelope without sockets: two instances exchange 200 frames
    /// each way through in-memory queues on a fake clock under drop,
    /// duplication and ack-drop. Every frame arrives exactly once and in
    /// order, every retransmission fires exactly at
    /// `ack_timeout · backoff^k` on the fake clock (and not a tick
    /// before), and the forced final attempt completes its frame without
    /// an ack.
    #[test]
    fn envelope_delivers_exactly_once_on_a_fake_clock() {
        let plan = FaultPlan::seeded(21)
            .with_drop_probability(0.4)
            .with_duplicate_probability(0.3)
            .with_retry(RetryPolicy::new(0.01, 1.5, 6));
        let last_attempt = (plan.retry.max_attempts - 1) as u32;
        let mut a = Envelope::new(&plan, 1, 0).expect("lossy plan");
        let mut b = Envelope::new(&plan, 0, 1).expect("lossy plan");
        let frames = 200u64;
        let frame = |round: u64| Frame::LocalCost { epoch: 0, round, cost: round as f64 };
        let mut now = Instant::now();
        for round in 0..frames {
            a.push(frame(round), now);
            b.push(frame(round), now);
        }
        let (mut at_a, mut at_b) = (Vec::new(), Vec::new());
        let (mut last_a, mut last_b) = (None, None);
        let (mut data_to_b, mut forced) = (0u64, 0usize);
        loop {
            // Zero-latency delivery until both directions are quiet.
            loop {
                let to_b: Vec<Frame> = a.drain_wire().collect();
                let to_a: Vec<Frame> = b.drain_wire().collect();
                if to_b.is_empty() && to_a.is_empty() {
                    break;
                }
                for f in to_b {
                    if let Frame::Data { seq, attempt, .. } = f {
                        data_to_b += 1;
                        if attempt == last_attempt {
                            forced += 1;
                            let inflight = a.inflight.as_ref().map(|i| i.seq);
                            assert_ne!(inflight, Some(seq), "the forced attempt completes");
                        }
                    }
                    at_b.extend(b.receive(f, now).unwrap());
                }
                for f in to_a {
                    at_a.extend(a.receive(f, now).unwrap());
                }
            }
            check_schedule(&a, now, &mut last_a);
            check_schedule(&b, now, &mut last_b);
            if !a.busy() && !b.busy() {
                break;
            }
            let due = a.deadline().into_iter().chain(b.deadline()).min().expect("an attempt");
            let early = due - Duration::from_nanos(1);
            let before = (a.retransmissions, b.retransmissions);
            a.poll(early);
            b.poll(early);
            assert_eq!((a.retransmissions, b.retransmissions), before, "fired before its deadline");
            now = due;
            a.poll(now);
            b.poll(now);
        }
        let expected: Vec<Frame> = (0..frames).map(frame).collect();
        assert_eq!(at_b, expected, "a → b: in-order exactly-once delivery");
        assert_eq!(at_a, expected, "b → a: in-order exactly-once delivery");
        assert!(a.retransmissions > 0 && a.duplicates > 0, "drop and duplication must fire");
        assert!(b.acks < data_to_b, "some acks must be dropped");
        assert!(forced > 0, "some frame must run out to its forced final attempt");
    }

    #[test]
    fn lossless_link_adds_zero_envelope_overhead() {
        let (client, server) = pair();
        let mut tx = Link::with_plan(client, FaultPlan::none(), 1, 0);
        let mut rx = Link::lossless(server);
        let frame = Frame::Assignment { round: 0, share: 0.5 };
        tx.send(&frame).unwrap();
        assert_eq!(rx.recv(Duration::from_secs(2)).unwrap(), frame);
        assert_eq!(tx.stats().bytes_sent, frame.encode().len() as u64);
        assert_eq!(tx.stats().retransmissions + tx.stats().acks + tx.stats().duplicates, 0);
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
