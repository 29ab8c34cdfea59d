//! Socket transport, split into a readiness-free **buffer/codec layer**
//! ([`FrameCodec`]: reassembly, strict decode, batched transmit queues)
//! and the policies on top of it: the blocking [`FrameConn`]/[`Link`]
//! used by workers and on the root ↔ shard-master backbone, bounded
//! seeded reconnect, and the deterministic lossy link layer. A
//! shard-master drives the same codec over its worker sockets
//! ([`crate::shard`]).
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

/// Sender/receiver state of the lossy envelope on one connection.
#[derive(Debug)]
struct LossyState {
    plan: FaultPlan,
    /// This endpoint's node code in the fault-decision hash (master 0,
    /// worker `i` → `i + 1`; the `dolbie-simnet` convention).
    self_code: u64,
    peer_code: u64,
    next_seq: u64,
    last_delivered: Option<u64>,
    inbox: VecDeque<Frame>,
    retransmissions: u64,
    duplicates: u64,
    acks: u64,
}

/// A protocol-frame channel over one TCP connection: either raw frames
/// (lossless) or the deterministic lossy envelope.
#[derive(Debug)]
pub struct Link {
    conn: FrameConn,
    lossy: Option<LossyState>,
}

impl Link {
    /// A raw pass-through link: protocol frames directly on the wire.
    pub fn lossless(conn: FrameConn) -> Self {
        Self { conn, lossy: None }
    }

    /// A link replaying `plan`'s socket-layer faults. `self_code` and
    /// `peer_code` are the endpoints' node codes (master 0, worker `i` →
    /// `i + 1`), which key the per-attempt fate hashes so both ends agree
    /// on every decision. Falls back to a pass-through if the plan is
    /// lossless.
    pub fn with_plan(conn: FrameConn, plan: FaultPlan, self_code: u64, peer_code: u64) -> Self {
        if plan.is_lossless() {
            return Self::lossless(conn);
        }
        Self {
            conn,
            lossy: Some(LossyState {
                plan,
                self_code,
                peer_code,
                next_seq: 0,
                last_delivered: None,
                inbox: VecDeque::new(),
                retransmissions: 0,
                duplicates: 0,
                acks: 0,
            }),
        }
    }

    /// Sends one protocol frame; in lossy mode this blocks through the
    /// retransmission schedule until a copy is acknowledged (or the final
    /// attempt is force-written).
    pub fn send(&mut self, frame: &Frame) -> Result<(), TransportError> {
        if self.lossy.is_none() {
            return self.conn.send(frame);
        }
        let (seq, retry, plan, me, peer) = {
            let state = self.lossy.as_mut().expect("checked above");
            let seq = state.next_seq;
            state.next_seq += 1;
            (seq, state.plan.retry, state.plan.clone(), state.self_code, state.peer_code)
        };
        let mut rto = retry.ack_timeout;
        for attempt in 0..retry.max_attempts {
            let forced = attempt + 1 == retry.max_attempts;
            if attempt > 0 {
                self.lossy.as_mut().expect("lossy mode").retransmissions += 1;
            }
            let delivered = forced || !plan.wire_drop(seq, me, peer, attempt);
            if delivered {
                let data =
                    Frame::Data { seq, attempt: attempt as u32, inner: Box::new(frame.clone()) };
                self.conn.send(&data)?;
                if plan.wire_duplicate(seq, me, peer, attempt) {
                    self.conn.send(&data)?;
                    self.lossy.as_mut().expect("lossy mode").duplicates += 1;
                }
                if forced {
                    // TCP delivers what we wrote; nothing left to await.
                    return Ok(());
                }
                if self.await_ack(seq, Duration::from_secs_f64(rto))? {
                    return Ok(());
                }
            } else {
                // The "network" ate this attempt before the wire: nothing
                // was written. Wait out the timeout anyway (that is the
                // injected delay), servicing any incoming traffic.
                let _ = self.await_ack(seq, Duration::from_secs_f64(rto))?;
            }
            rto *= retry.backoff;
        }
        unreachable!("the forced final attempt returns")
    }

    /// Receives the next protocol frame, waiting at most `deadline`.
    pub fn recv(&mut self, deadline: Duration) -> Result<Frame, TransportError> {
        if self.lossy.is_none() {
            return self.conn.recv(deadline);
        }
        let until = Instant::now() + deadline;
        loop {
            if let Some(frame) = self.lossy.as_mut().expect("lossy mode").inbox.pop_front() {
                return Ok(frame);
            }
            let remaining = until.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(std::io::Error::from(std::io::ErrorKind::TimedOut).into());
            }
            let frame = self.conn.recv(remaining)?;
            self.on_wire_frame(frame)?;
        }
    }

    /// Waits up to `window` for the ack of `seq`, servicing interleaved
    /// peer traffic. Returns whether the ack arrived.
    fn await_ack(&mut self, seq: u64, window: Duration) -> Result<bool, TransportError> {
        let until = Instant::now() + window;
        loop {
            let remaining = until.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Ok(false);
            }
            match self.conn.recv(remaining) {
                Ok(Frame::Ack { seq: acked }) if acked == seq => return Ok(true),
                Ok(frame) => self.on_wire_frame(frame)?,
                Err(e) if e.is_timeout() => return Ok(false),
                Err(e) => return Err(e),
            }
        }
    }

    /// Receiver-side handling of one frame off the wire in lossy mode:
    /// ack-or-suppress, dedup, and inbox the payload.
    fn on_wire_frame(&mut self, frame: Frame) -> Result<(), TransportError> {
        match frame {
            Frame::Data { seq, attempt, inner } => {
                let state = self.lossy.as_ref().expect("lossy mode");
                // Ack fate is keyed on the DATA direction (peer → self),
                // so the sender would reach the same verdict.
                let suppressed = state.plan.wire_ack_drop(
                    seq,
                    state.peer_code,
                    state.self_code,
                    attempt as usize,
                );
                if !suppressed {
                    self.conn.send(&Frame::Ack { seq })?;
                    self.lossy.as_mut().expect("lossy mode").acks += 1;
                }
                let state = self.lossy.as_mut().expect("lossy mode");
                // Per-direction seqs are strictly increasing; anything at
                // or below the high-water mark is a retransmitted or
                // duplicated copy of a frame already delivered upward.
                if state.last_delivered.is_none_or(|last| seq > last) {
                    state.last_delivered = Some(seq);
                    state.inbox.push_back(*inner);
                }
                Ok(())
            }
            // A late ack for an attempt we stopped waiting on.
            Frame::Ack { .. } => Ok(()),
            _ => Err(TransportError::Protocol("raw frame on a lossy link")),
        }
    }

    /// Combined socket and link-layer counters.
    pub fn stats(&self) -> WireStats {
        let mut stats = self.conn.stats();
        if let Some(state) = &self.lossy {
            stats.retransmissions = state.retransmissions;
            stats.duplicates = state.duplicates;
            stats.acks = state.acks;
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

/// Default per-frame read deadline used by both node roles: generous
/// enough for the full lossy retransmission schedule, short enough that a
/// crashed peer is detected promptly.
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
