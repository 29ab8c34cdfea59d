//! A shard-master's worker set over sockets, with one collect path: the
//! blocking staircase. After admission every member socket blocks, and a
//! collect reads the awaited members one at a time. On lossy links each
//! read is also bounded by the earliest retransmission deadline in the
//! fleet, and a wake there services every lossy [`Envelope`], so the
//! envelope runs on the clock of the staircase's blocking waits (the
//! blocking [`Link`] drives the same envelope by its own blocking waits).
//!
//! Everything below the protocol script of [`crate::shard`] — frame
//! reassembly, broadcast fan-out, deadlines, crash discovery — lives
//! here as [`Fleet`].
//!
//! [`Link`]: crate::transport::Link

use crate::transport::{Envelope, FrameCodec, WireStats};
use crate::wire::Frame;
use crate::NetError;
use dolbie_simnet::faults::FaultPlan;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Read-buffer size for one `read` call. One page-multiple chunk keeps
/// syscall count low; frames larger than this simply reassemble across
/// reads. Each [`Fleet`] (and each admission loop) holds one such buffer
/// and lends it to every read, instead of zeroing a fresh one per call.
pub(crate) const READ_CHUNK_BYTES: usize = 16384;

/// Consecutive idle polls tolerated before the pacing loop stops
/// spin-yielding and starts sleeping. Low enough that a quiet listener
/// backs off within microseconds; high enough that a single empty poll
/// between bursts never costs a sleep.
pub(crate) const SPIN_YIELD_STREAK: u32 = 8;

/// Sleep length, in microseconds, for each idle pass once the
/// [`SPIN_YIELD_STREAK`] budget is exhausted. Half a millisecond keeps
/// the added latency per handshake far below any `frame_timeout`.
pub(crate) const IDLE_SLEEP_MICROS: u64 = 500;

/// Adaptive idle pacing of the admission loops: spin-yield while
/// traffic flows, back off to brief sleeps once the loop goes quiet,
/// reset on any progress.
pub(crate) struct IdleWait {
    streak: u32,
}

impl IdleWait {
    pub(crate) fn new() -> Self {
        Self { streak: 0 }
    }

    pub(crate) fn pace(&mut self, progressed: bool) {
        if progressed {
            self.streak = 0;
            return;
        }
        self.streak += 1;
        if self.streak < SPIN_YIELD_STREAK {
            std::thread::yield_now();
        } else {
            std::thread::sleep(Duration::from_micros(IDLE_SLEEP_MICROS));
        }
    }
}

/// Why one connection stopped being usable.
pub(crate) enum ConnFail {
    /// Socket-level death: EOF, reset, write-zero. Maps to a crash.
    Dead,
    /// The peer sent malformed or protocol-violating traffic.
    Fatal(NetError),
}

impl ConnFail {
    /// The fleet-level failure of member `i`'s connection.
    fn of(self, i: usize) -> FleetFail {
        match self {
            Self::Dead => FleetFail::Dead(vec![i]),
            Self::Fatal(e) => FleetFail::Fatal(e),
        }
    }
}

/// One admitted (or handshaking) connection: a socket (non-blocking
/// during admission, blocking in a [`Fleet`]), the shared
/// reassembly/transmit codec, the optional lossy envelope, and an inbox
/// of fully decoded protocol frames.
#[derive(Debug)]
pub(crate) struct Conn {
    stream: TcpStream,
    pub(crate) codec: FrameCodec,
    envelope: Option<Envelope>,
    pub(crate) inbox: VecDeque<Frame>,
    /// Whether a collect phase currently awaits a frame from this peer.
    pub(crate) awaiting: bool,
}

impl Conn {
    pub(crate) fn new(stream: TcpStream) -> std::io::Result<Self> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            codec: FrameCodec::new(),
            envelope: None,
            inbox: VecDeque::new(),
            awaiting: false,
        })
    }

    pub(crate) fn install_lossy(&mut self, plan: &FaultPlan, self_code: u64, peer_code: u64) {
        self.envelope = Envelope::new(plan, self_code, peer_code);
    }

    pub(crate) fn is_lossy(&self) -> bool {
        self.envelope.is_some()
    }

    /// Whether this connection still has outbound work: unsent bytes or
    /// a live lossy envelope.
    pub(crate) fn busy(&self) -> bool {
        self.codec.has_tx() || self.envelope.as_ref().is_some_and(Envelope::busy)
    }

    /// Queues one protocol frame, through the lossy envelope when one is
    /// installed.
    pub(crate) fn queue(&mut self, frame: &Frame, now: Instant) {
        match self.envelope.as_mut() {
            Some(envelope) => {
                envelope.push(frame.clone(), now);
                self.flush_envelope();
            }
            None => self.codec.queue(frame),
        }
    }

    /// Moves the envelope's emitted frames onto the transmit queue.
    fn flush_envelope(&mut self) {
        if let Some(envelope) = self.envelope.as_mut() {
            for frame in envelope.drain_wire() {
                self.codec.queue(&frame);
            }
        }
    }

    /// Drives the envelope's retransmission clock to `now`.
    fn poll_envelope(&mut self, now: Instant) {
        if let Some(envelope) = self.envelope.as_mut() {
            envelope.poll(now);
            self.flush_envelope();
        }
    }

    /// Receiver-side routing of one decoded frame: straight to the inbox
    /// on lossless connections, through the envelope on lossy ones.
    fn route(&mut self, frame: Frame) -> Result<(), ConnFail> {
        let Some(envelope) = self.envelope.as_mut() else {
            self.inbox.push_back(frame);
            return Ok(());
        };
        match envelope.receive(frame, Instant::now()) {
            Ok(payload) => self.inbox.extend(payload),
            Err(e) => return Err(ConnFail::Fatal(NetError::Transport(e))),
        }
        self.flush_envelope();
        Ok(())
    }

    /// One `read` call through the borrowed buffer `chunk`, its complete
    /// frames routed into the inbox. Returns whether bytes arrived:
    /// `false` when a blocking socket's deadline passed, or a
    /// non-blocking one had nothing buffered.
    fn read_once(&mut self, chunk: &mut [u8]) -> Result<bool, ConnFail> {
        loop {
            match self.stream.read(chunk) {
                Ok(0) => return Err(ConnFail::Dead),
                Ok(k) => {
                    self.codec.ingest(&chunk[..k]);
                    break;
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return Ok(false)
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return Err(ConnFail::Dead),
            }
        }
        loop {
            match self.codec.pop_frame() {
                Ok(Some(frame)) => self.route(frame)?,
                Ok(None) => return Ok(true),
                Err(e) => return Err(ConnFail::Fatal(NetError::Transport(e.into()))),
            }
        }
    }

    /// Drains whatever the non-blocking socket has buffered. Returns
    /// whether any bytes arrived.
    pub(crate) fn pump_read(&mut self, chunk: &mut [u8]) -> Result<bool, ConnFail> {
        let mut progressed = false;
        while self.read_once(chunk)? {
            progressed = true;
        }
        Ok(progressed)
    }

    /// [`Conn::pump_read`] on a blocking socket: takes what it has
    /// buffered without waiting.
    fn read_buffered(&mut self, chunk: &mut [u8]) -> Result<(), ConnFail> {
        self.stream.set_nonblocking(true).map_err(|_| ConnFail::Dead)?;
        let read = self.pump_read(chunk);
        let restored = self.stream.set_nonblocking(false);
        read?;
        restored.map_err(|_| ConnFail::Dead)
    }

    /// Writes as much of the transmit queue as the socket accepts.
    pub(crate) fn pump_write(&mut self) -> Result<(), ConnFail> {
        while self.codec.has_tx() {
            match self.stream.write(self.codec.pending_tx()) {
                Ok(0) => return Err(ConnFail::Dead),
                Ok(k) => self.codec.advance_tx(k),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return Err(ConnFail::Dead),
            }
        }
        Ok(())
    }

    /// One service pass over a blocking connection: a lossy one takes
    /// what its socket has buffered (acks and data) and drives its
    /// retransmission clock; then the transmit queue is written.
    fn service(&mut self, chunk: &mut [u8]) -> Result<(), ConnFail> {
        if self.is_lossy() {
            let read = self.read_buffered(chunk);
            // The clock runs on a dead socket too, so its deadline moves
            // on instead of waking every later wait at once.
            self.poll_envelope(Instant::now());
            read?;
        }
        self.pump_write()
    }

    /// Combined socket and envelope counters.
    pub(crate) fn stats(&self) -> WireStats {
        let mut stats = self.codec.stats();
        if let Some(envelope) = &self.envelope {
            envelope.stamp(&mut stats);
        }
        stats
    }
}

/// Which worker frame a collect phase awaits.
#[derive(Clone, Copy)]
pub(crate) enum Phase<'a> {
    /// `LocalCost` frames (Algorithm 1 lines 9–11).
    Cost,
    /// `Decision` frames (Algorithm 1 lines 13–14) of a round played at
    /// step size `alpha`; `shares` is the shard-master's committed share
    /// slice, which bounds each member's gain ([`gain_ceiling`]).
    Decision { alpha: f64, shares: &'a [f64] },
}

/// The largest gain a worker at committed share `x` can honestly report
/// under step size `alpha`: eq. (5) with a target `x′ ≤ 1`. The bound is
/// exact, not a tolerance: an honest gain is `(α·(x′ − x)).max(0)`, and
/// because `x′ ≤ 1` and the rounding of `−` and `·` is monotone, it never
/// exceeds `(α·(1 − x)).max(0)`.
pub(crate) fn gain_ceiling(alpha: f64, x: f64) -> f64 {
    (alpha * (1.0 - x)).max(0.0)
}

/// The collect-phase frame matcher: the value carried by the awaited
/// frame, `None` for a stale leftover of an abandoned epoch (silently
/// filtered), `Dead` for a worker whose awaited value is impossible (a
/// non-finite cost; a gain outside `[0, gain_ceiling(α, x_i)]`) — a
/// wrong worker is buried like a crashed one — or `Fatal` on a protocol
/// violation.
fn phase_value(
    phase: Phase<'_>,
    frame: Frame,
    t: usize,
    epoch: u32,
    i: usize,
) -> Result<Option<f64>, FleetFail> {
    let value = match (phase, frame) {
        (Phase::Cost, Frame::LocalCost { epoch: e, round, cost }) => {
            (e == epoch && round == t as u64).then_some(cost)
            // else: stale frame from an abandoned attempt
        }
        (Phase::Cost, Frame::Decision { epoch: e, .. }) if e < epoch => None,
        (Phase::Decision { .. }, Frame::Decision { epoch: e, round, gain, .. }) => {
            (e == epoch && round == t as u64).then_some(gain)
        }
        (Phase::Decision { .. }, Frame::LocalCost { epoch: e, .. }) if e < epoch => None,
        (_, _) => {
            let what = match phase {
                Phase::Cost => "cost",
                Phase::Decision { .. } => "decision",
            };
            return Err(FleetFail::Fatal(NetError::Protocol(format!(
                "worker {i} sent an unexpected frame during {what} collection"
            ))));
        }
    };
    let possible = |v: f64| match phase {
        Phase::Cost => v.is_finite(),
        Phase::Decision { alpha, shares } => {
            v.is_finite() && (0.0..=gain_ceiling(alpha, shares[i])).contains(&v)
        }
    };
    match value {
        Some(v) if !possible(v) => Err(FleetFail::Dead(vec![i])),
        _ => Ok(value),
    }
}

/// Consumes `conn`'s reassembled frames until the one `phase` awaits
/// from member `i` arrives (recording it and clearing `awaiting`) or the
/// inbox runs dry. Stale frames are filtered.
fn serve_inbox(
    conn: &mut Conn,
    phase: Phase<'_>,
    t: usize,
    epoch: u32,
    i: usize,
    out: &mut [f64],
    logical: &mut usize,
) -> Result<(), FleetFail> {
    while conn.awaiting {
        let Some(frame) = conn.inbox.pop_front() else { break };
        if let Some(value) = phase_value(phase, frame, t, epoch, i)? {
            out[i] = value;
            *logical += 1;
            conn.awaiting = false;
        }
    }
    Ok(())
}

/// How a fleet operation failed, when it did.
pub(crate) enum FleetFail {
    /// These members' sockets died or their deadlines expired — all
    /// deaths discovered in one pass, so simultaneous stalls bury
    /// together instead of costing a timeout each.
    Dead(Vec<usize>),
    /// Unrecoverable failure (protocol violation, malformed bytes).
    Fatal(NetError),
}

/// A shard-master's member set over blocking sockets: coalesced
/// broadcast, the staircase collect, deadline and crash-discovery
/// machinery. The protocol script stays in [`crate::shard`]; `Fleet`
/// only knows how to move frames and discover deaths.
pub(crate) struct Fleet {
    /// Member connections by id; `None` marks a buried member.
    pub(crate) links: Vec<Option<Conn>>,
    frame_timeout: Duration,
    /// The one read buffer every socket read of this fleet goes through.
    read_buf: Box<[u8]>,
}

impl Fleet {
    /// The fleet over the admitted `links`, every socket flipped to
    /// blocking mode — once, here, for good — with `frame_timeout` as
    /// both read and write deadline.
    ///
    /// Doing the mode switch once instead of per collect call is not a
    /// nicety: toggling `O_NONBLOCK` and `SO_RCVTIMEO` around every
    /// phase costs four syscalls per member per collect, which at
    /// N = 4096 across sixteen shard-masters is ~32k syscalls a round —
    /// on a mitigated kernel, tens of milliseconds of pure mode-flipping
    /// stolen from the workers the phase is waiting on. Only a lossy
    /// fleet re-arms `SO_RCVTIMEO`, once per blocking read, to meet its
    /// retransmission deadlines ([`Fleet::collect_blocking`]).
    pub(crate) fn new(links: Vec<Option<Conn>>, frame_timeout: Duration) -> Result<Self, NetError> {
        for (i, slot) in links.iter().enumerate() {
            let Some(conn) = slot else { continue };
            if conn.stream.set_nonblocking(false).is_err()
                || conn.stream.set_read_timeout(Some(frame_timeout)).is_err()
                || conn.stream.set_write_timeout(Some(frame_timeout)).is_err()
            {
                return Err(NetError::Protocol(format!(
                    "worker socket {i} died entering blocking mode"
                )));
            }
        }
        Ok(Self { links, frame_timeout, read_buf: vec![0; READ_CHUNK_BYTES].into_boxed_slice() })
    }

    /// Run-total wire counters over every live connection.
    pub(crate) fn wire_snapshot(&self) -> WireStats {
        let mut total = WireStats::default();
        for conn in self.links.iter().flatten() {
            total.absorb(&conn.stats());
        }
        total
    }

    /// Queues `frame` on every listed connection, encoding once for the
    /// lossless ones; the lossy envelope needs per-connection sequence
    /// numbers, so those re-frame individually.
    pub(crate) fn broadcast(&mut self, frame: &Frame, to: &[usize], now: Instant) {
        let bytes = frame.encode();
        for &i in to {
            let conn = self.links[i].as_mut().expect("active members have connections");
            if conn.is_lossy() {
                conn.queue(frame, now);
            } else {
                conn.codec.queue_raw(&bytes);
            }
        }
    }

    /// Queues one frame on one member's connection.
    pub(crate) fn queue_to(&mut self, i: usize, frame: &Frame, now: Instant) {
        self.links[i].as_mut().expect("active members have connections").queue(frame, now);
    }

    /// Drops the awaiting flag everywhere — the cleanup step of any
    /// aborted collect.
    pub(crate) fn clear_awaiting(&mut self) {
        for conn in self.links.iter_mut().flatten() {
            conn.awaiting = false;
        }
    }

    /// Awaits one `phase` frame from every member in `await_set`: flush
    /// every pending queue, then take the awaited frames by *sequential
    /// blocking reads* — the staircase. Frames tagged with an epoch
    /// other than `epoch` (or a round other than `t`) are stale leftovers
    /// of an abandoned attempt and are filtered.
    ///
    /// Between a broadcast and the matching collect the only traffic on
    /// the fleet is the awaited frames themselves, plus, on lossy links,
    /// acks and retransmissions. The coordinator can therefore sleep in
    /// the kernel on one socket at a time while arrivals from the others
    /// buffer; the phase is a barrier, so its completion time is that of
    /// its last arrival, with no poll/sleep duty cycle — read syscalls
    /// against empty sockets and timeslices stolen from the very workers
    /// the phase is waiting on. Shedding that duty cycle is the measured
    /// win of the TCP sweep's N = 4096 latency cells (`paper_figures
    /// tcp`).
    ///
    /// The trade is deadline coarsening: each turn waits up to
    /// `frame_timeout` from the moment it comes, so a slow but live early
    /// member pushes the later deadlines back. Stalls still cost one
    /// `frame_timeout` per phase, not one per stalled member: when the
    /// first turn's deadline expires, every member not yet read has also
    /// had a full `frame_timeout` since the flush, so each is read once
    /// without blocking and every silent one is reported in the same
    /// [`FleetFail::Dead`].
    ///
    /// A lossless turn's deadline is the kernel's `SO_RCVTIMEO`, armed
    /// once by [`Fleet::new`]. A lossy turn's reads also end at the
    /// earliest retransmission deadline anywhere in the fleet, and a
    /// wake there services every envelope before the turn resumes
    /// ([`Fleet::wait_on`]); such a wake does not move the turn's
    /// deadline.
    pub(crate) fn collect_blocking(
        &mut self,
        t: usize,
        epoch: u32,
        phase: Phase<'_>,
        await_set: &[usize],
        out: &mut [f64],
        logical: &mut usize,
    ) -> Result<(), FleetFail> {
        for &i in await_set {
            self.links[i].as_mut().expect("active members have connections").awaiting = true;
        }
        let result = self.staircase(t, epoch, phase, await_set, out, logical);
        if result.is_err() {
            self.clear_awaiting();
        }
        result
    }

    /// The body of [`Fleet::collect_blocking`].
    fn staircase(
        &mut self,
        t: usize,
        epoch: u32,
        phase: Phase<'_>,
        await_set: &[usize],
        out: &mut [f64],
        logical: &mut usize,
    ) -> Result<(), FleetFail> {
        // Flush everything queued (coordination frames, pins) so every
        // member is computing before the staircase starts sleeping; on
        // a lossy fleet this also takes the acks already buffered, so a
        // frame queued behind one whose ack has arrived goes out now.
        let dead = self.drain().map_err(FleetFail::Fatal)?;
        if !dead.is_empty() {
            return Err(FleetFail::Dead(dead));
        }
        // Descend the staircase in *reverse* broadcast order. The phase
        // opener was written to member 0 first, so replies arrive in
        // roughly ascending index order — and a blocking read only parks
        // the thread when its socket is still empty. Read in arrival
        // order and every single read parks: two context switches per
        // member per phase, thousands a round across a shard tier.
        // Read in reverse and the first read parks once, on the member
        // whose reply lands last, while everyone else's frames buffer in
        // their sockets; the remaining reads return without sleeping.
        // Stragglers out of order cost one extra park each, nothing
        // more, and the phase still completes at the last arrival.
        for (pos, &i) in await_set.iter().rev().enumerate() {
            let until = Instant::now() + self.frame_timeout;
            loop {
                // Serve whatever is already reassembled before sleeping.
                let conn = self.links[i].as_mut().expect("active members have connections");
                serve_inbox(conn, phase, t, epoch, i, out, logical)?;
                if !conn.awaiting {
                    break;
                }
                if !self.wait_on(i, until)? {
                    // The turn's deadline: this member and every one not
                    // yet read are a full frame_timeout past the flush.
                    let unread = &await_set[..await_set.len() - pos];
                    let dead = self.reap_silent(unread, t, epoch, phase, out, logical)?;
                    return if dead.is_empty() { Ok(()) } else { Err(FleetFail::Dead(dead)) };
                }
            }
        }
        Ok(())
    }

    /// One blocking wait on member `i`'s socket: `true` once bytes
    /// arrived or the fleet was serviced, `false` once the turn's
    /// deadline passed with nothing read — on a lossless socket the
    /// `SO_RCVTIMEO` armed by [`Fleet::new`], on a lossy one `until`.
    ///
    /// A lossy wait also ends at the earliest retransmission deadline
    /// anywhere in the fleet, and waking there services every envelope
    /// ([`Fleet::drain`]): each socket's buffered acks and data, the
    /// retransmission clocks, the writes. So a frame the plan dropped to
    /// one member goes out again on time while the staircase sleeps on
    /// another.
    fn wait_on(&mut self, i: usize, until: Instant) -> Result<bool, FleetFail> {
        let conn = self.links[i].as_mut().expect("active members have connections");
        if !conn.is_lossy() {
            return conn.read_once(&mut self.read_buf).map_err(|fail| fail.of(i));
        }
        let wake = self.next_retransmission().map_or(until, |due| due.min(until));
        let now = Instant::now();
        if wake > now {
            let conn = self.links[i].as_mut().expect("active members have connections");
            let read = match conn.stream.set_read_timeout(Some(wake - now)) {
                Ok(()) => conn.read_once(&mut self.read_buf),
                Err(_) => Err(ConnFail::Dead),
            };
            // The payload's ack (or a frame its ack let through) goes out
            // before the staircase reads on.
            if read.and_then(|got| conn.pump_write().map(|()| got)).map_err(|fail| fail.of(i))? {
                return Ok(true);
            }
        }
        if Instant::now() >= until {
            return Ok(false);
        }
        match self.drain().map_err(FleetFail::Fatal)? {
            dead if dead.is_empty() => Ok(true),
            dead => Err(FleetFail::Dead(dead)),
        }
    }

    /// The earliest retransmission deadline of any envelope in the fleet.
    fn next_retransmission(&self) -> Option<Instant> {
        self.links.iter().flatten().filter_map(|c| c.envelope.as_ref()?.deadline()).min()
    }

    /// The staircase's failure path: reads each of `members` once
    /// without blocking and returns the ones that still owe their frame,
    /// ascending. Every member here has had at least one `frame_timeout`
    /// since the phase's flush, so all of them are dead — a whole bank
    /// of stalls in one failure.
    fn reap_silent(
        &mut self,
        members: &[usize],
        t: usize,
        epoch: u32,
        phase: Phase<'_>,
        out: &mut [f64],
        logical: &mut usize,
    ) -> Result<Vec<usize>, FleetFail> {
        let mut dead = Vec::new();
        for &i in members {
            let conn = self.links[i].as_mut().expect("active members have connections");
            match conn.read_buffered(&mut self.read_buf) {
                Err(ConnFail::Fatal(e)) => return Err(FleetFail::Fatal(e)),
                Err(ConnFail::Dead) => dead.push(i),
                Ok(()) => match serve_inbox(conn, phase, t, epoch, i, out, logical) {
                    Ok(()) if conn.awaiting => dead.push(i),
                    Ok(()) => {}
                    Err(FleetFail::Dead(_)) => dead.push(i),
                    Err(fail) => return Err(fail),
                },
            }
        }
        dead.sort_unstable();
        Ok(dead)
    }

    /// Services every connection with outbound work or an awaited frame,
    /// without blocking on any reply: a lossy one takes what its socket
    /// has buffered (acks and data) and drives its retransmission clock,
    /// then each writes its transmit queue. Returns the members whose
    /// sockets died or whose writes outlasted the kernel's write
    /// deadline (a member that stopped reading long enough for its
    /// socket buffer and the deadline to fill). An envelope still
    /// awaiting its ack is not a death: the next blocking wait services
    /// it.
    ///
    /// After a commit this delivers the commit frames, and the caller
    /// maps a non-empty list onto the round-stands crash branch.
    pub(crate) fn drain(&mut self) -> Result<Vec<usize>, NetError> {
        let mut dead = Vec::new();
        for (i, slot) in self.links.iter_mut().enumerate() {
            let Some(conn) = slot.as_mut() else { continue };
            if !(conn.awaiting || conn.busy()) {
                continue;
            }
            match conn.service(&mut self.read_buf) {
                Ok(()) if conn.codec.has_tx() => dead.push(i),
                Ok(()) => {}
                Err(ConnFail::Dead) => dead.push(i),
                Err(ConnFail::Fatal(e)) => return Err(e),
            }
        }
        Ok(dead)
    }

    /// Orderly end of the run: queues `Shutdown` on every live link,
    /// flushes it, then **lingers** on each peer in turn, with the
    /// staircase's waits, until it closes its socket or `limit` expires.
    /// On lossy links those waits keep servicing the envelopes, so a
    /// `Shutdown` the plan drops is retransmitted and a peer's
    /// retransmitted final frame is re-acked. The linger matters there:
    /// a peer whose final frame's ack was eaten is still blocked in its
    /// stop-and-wait retransmission schedule when `Shutdown` lands, and
    /// closing its socket mid-schedule would fire a reset into that
    /// send. Peers close as soon as they finish, so the common case is
    /// one read per peer, not the deadline.
    pub(crate) fn shutdown(&mut self, limit: Duration) {
        let now = Instant::now();
        for conn in self.links.iter_mut().flatten() {
            conn.queue(&Frame::Shutdown, now);
        }
        // Flush every goodbye before reaping any EOF, so no peer's close
        // waits behind another's blocking read.
        let _ = self.drain();
        let until = now + limit;
        for i in 0..self.links.len() {
            while self.links[i].is_some() && Instant::now() < until {
                match self.wait_on(i, until) {
                    // Stray bytes, a serviced wake, another peer's goodbye.
                    Ok(true) => {}
                    Err(FleetFail::Dead(dead)) if !dead.contains(&i) => {}
                    // This peer's goodbye, a reset, or the deadline.
                    Ok(false) | Err(_) => break,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{FrameConn, Link};
    use dolbie_simnet::faults::RetryPolicy;
    use std::net::TcpListener;

    /// `phase_value` is the collect's stale-epoch filter: frames tagged
    /// with an older epoch — leftovers of a round attempt abandoned by a
    /// membership transition — are skipped, never mis-consumed and never
    /// fatal; same-epoch frames of the wrong phase stay protocol
    /// violations.
    #[test]
    fn phase_value_filters_stale_epochs_but_rejects_phase_violations() {
        // Stale epoch, either frame kind, either phase: skipped.
        let stale_cost = Frame::LocalCost { epoch: 0, round: 7, cost: 1.0 };
        assert!(matches!(phase_value(Phase::Cost, stale_cost, 7, 1, 0), Ok(None)));
        let stale_decision = Frame::Decision { epoch: 0, round: 7, share: 0.1, gain: 0.2 };
        assert!(matches!(phase_value(Phase::Cost, stale_decision, 7, 1, 0), Ok(None)));
        let stale_cost = Frame::LocalCost { epoch: 0, round: 7, cost: 1.0 };
        let decision = Phase::Decision { alpha: 0.5, shares: &[0.25] };
        assert!(matches!(phase_value(decision, stale_cost, 7, 1, 0), Ok(None)));
        // Stale round at the current epoch: also skipped.
        let replayed = Frame::LocalCost { epoch: 1, round: 6, cost: 1.0 };
        assert!(matches!(phase_value(Phase::Cost, replayed, 7, 1, 0), Ok(None)));
        // The matching frame is consumed.
        let fresh = Frame::LocalCost { epoch: 1, round: 7, cost: 42.0 };
        assert!(matches!(phase_value(Phase::Cost, fresh, 7, 1, 0), Ok(Some(v)) if v == 42.0));
        // A *current*-epoch frame of the wrong phase is a violation,
        // not a stale leftover — the filter must not swallow it.
        let misplaced = Frame::Decision { epoch: 1, round: 7, share: 0.1, gain: 0.2 };
        assert!(matches!(phase_value(Phase::Cost, misplaced, 7, 1, 0), Err(FleetFail::Fatal(_))));
    }

    /// The awaited value is checked before it is used: a non-finite
    /// cost or a gain outside `[0, gain_ceiling(α, x_i)]` makes its
    /// sender `Dead`, the crash path, while a stale frame is filtered
    /// unread.
    #[test]
    fn phase_value_buries_impossible_values() {
        let dead =
            |r: Result<Option<f64>, FleetFail>| matches!(r, Err(FleetFail::Dead(d)) if d == [3]);
        for cost in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let frame = Frame::LocalCost { epoch: 1, round: 7, cost };
            assert!(dead(phase_value(Phase::Cost, frame, 7, 1, 3)), "cost {cost}");
        }
        // Member 3 sits at x = 0.25, so under α = 0.5 its ceiling is 0.375.
        let shares = [0.9, 0.9, 0.9, 0.25];
        let decision = Phase::Decision { alpha: 0.5, shares: &shares };
        let ceiling = gain_ceiling(0.5, 0.25);
        assert_eq!(ceiling, 0.375);
        for gain in [f64::NAN, f64::INFINITY, -1e-300, ceiling.next_up(), 1.0] {
            let frame = Frame::Decision { epoch: 1, round: 7, share: 0.1, gain };
            assert!(dead(phase_value(decision, frame, 7, 1, 3)), "gain {gain}");
        }
        for gain in [0.0, 1e-300, ceiling] {
            let frame = Frame::Decision { epoch: 1, round: 7, share: 0.1, gain };
            assert!(
                matches!(phase_value(decision, frame, 7, 1, 3), Ok(Some(v)) if v == gain),
                "gain {gain}"
            );
        }
        // A member at or past x = 1 has nothing to gain.
        let full = Phase::Decision { alpha: 0.5, shares: &[0.0, 0.0, 0.0, 1.0] };
        let tiny = Frame::Decision { epoch: 1, round: 7, share: 0.1, gain: 1e-300 };
        assert!(dead(phase_value(full, tiny, 7, 1, 3)));
        let stale = Frame::LocalCost { epoch: 0, round: 7, cost: f64::NAN };
        assert!(matches!(phase_value(Phase::Cost, stale, 7, 1, 3), Ok(None)));
    }

    fn fleet_over_sockets(n: usize, frame_timeout: Duration) -> (Fleet, Vec<TcpStream>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let mut links = Vec::new();
        let mut peers = Vec::new();
        for _ in 0..n {
            peers.push(TcpStream::connect(addr).expect("connect"));
            let (server, _) = listener.accept().expect("accept");
            links.push(Some(Conn::new(server).expect("conn")));
        }
        (Fleet::new(links, frame_timeout).expect("blocking mode"), peers)
    }

    /// Makes every member link of `fleet` lossy under `plan`, member `i`
    /// with node code `i + 1`.
    fn make_lossy(fleet: &mut Fleet, plan: &FaultPlan) {
        for (i, conn) in fleet.links.iter_mut().flatten().enumerate() {
            conn.install_lossy(plan, 0, i as u64 + 1);
        }
    }

    /// A lossy plan, with a brisk retry schedule, under which `drops`
    /// holds: the first seed whose wire decisions it accepts.
    fn lossy_plan(drops: impl Fn(&FaultPlan) -> bool) -> FaultPlan {
        (0..)
            .map(|seed| {
                FaultPlan::seeded(seed)
                    .with_drop_probability(0.3)
                    .with_retry(RetryPolicy::new(0.02, 1.5, 6))
            })
            .find(|plan| drops(plan))
            .expect("some seed")
    }

    /// Writes `frame` as a member's end of the link puts it on the wire:
    /// raw on a lossless link, as data with sequence number `seq` on a
    /// lossy one.
    fn send_as_peer(peer: &mut TcpStream, lossy: bool, seq: u64, frame: Frame) {
        let frame =
            if lossy { Frame::Data { seq, attempt: 0, inner: Box::new(frame) } } else { frame };
        peer.write_all(&frame.encode()).expect("peer write");
    }

    /// Regression: the staircase reports every silent member at its
    /// first read deadline — one failure, one `frame_timeout` — instead
    /// of one member per `frame_timeout`; a member that did answer is
    /// not among the dead.
    #[test]
    fn staircase_reports_every_silent_member_at_the_first_expiry() {
        use std::io::Write as _;
        let timeout = Duration::from_millis(200);
        let (mut fleet, mut peers) = fleet_over_sockets(4, timeout);
        peers[2].write_all(&Frame::LocalCost { epoch: 0, round: 5, cost: 1.0 }.encode()).unwrap();
        let (mut out, mut logical) = ([0.0f64; 4], 0usize);
        let started = Instant::now();
        let result =
            fleet.collect_blocking(5, 0, Phase::Cost, &[0, 1, 2, 3], &mut out, &mut logical);
        let elapsed = started.elapsed();
        assert!(matches!(result, Err(FleetFail::Dead(ref dead)) if dead == &[0, 1, 3]));
        assert!(elapsed < timeout * 2, "three silent members cost {elapsed:?}");
    }

    /// Regression: a worker's epoch-0 report arriving *after* the
    /// shard-local epoch bumped to 1 (the worker answered the abandoned
    /// attempt before it saw the `Epoch` frame) must be discarded by the
    /// collect, which then waits for — and takes — the re-reported
    /// epoch-1 value. Exercised on a lossless and a lossy fleet.
    #[test]
    fn collect_skips_frames_from_before_a_local_epoch_bump() {
        for lossy in [false, true] {
            let (mut fleet, mut peers) = fleet_over_sockets(1, Duration::from_secs(2));
            if lossy {
                make_lossy(&mut fleet, &lossy_plan(|_| true));
            }
            let peer = &mut peers[0];
            send_as_peer(peer, lossy, 0, Frame::LocalCost { epoch: 0, round: 7, cost: 1.0 });
            send_as_peer(peer, lossy, 1, Frame::LocalCost { epoch: 1, round: 7, cost: 42.0 });
            let mut out = [0.0f64];
            let mut logical = 0usize;
            let result = fleet.collect_blocking(7, 1, Phase::Cost, &[0], &mut out, &mut logical);
            assert!(result.is_ok(), "lossy {lossy}: the stale frame must be skipped, not fatal");
            assert_eq!(out[0], 42.0, "lossy {lossy}: the epoch-1 re-report is the consumed value");
            assert_eq!(logical, 1, "lossy {lossy}: one logical frame per member per phase");
        }
    }

    /// A NaN cost report fails the collect of a lossless and of a lossy
    /// fleet with exactly its sender dead, and leaves no member awaiting.
    #[test]
    fn a_nan_report_is_a_death_on_lossless_and_lossy_fleets() {
        for lossy in [false, true] {
            let (mut fleet, mut peers) = fleet_over_sockets(3, Duration::from_secs(2));
            if lossy {
                make_lossy(&mut fleet, &lossy_plan(|_| true));
            }
            for (peer, cost) in peers.iter_mut().zip([1.0, f64::NAN, 2.0]) {
                send_as_peer(peer, lossy, 0, Frame::LocalCost { epoch: 0, round: 5, cost });
            }
            let (mut out, mut logical) = ([0.0f64; 3], 0usize);
            let result =
                fleet.collect_blocking(5, 0, Phase::Cost, &[0, 1, 2], &mut out, &mut logical);
            assert!(
                matches!(result, Err(FleetFail::Dead(ref dead)) if dead == &[1]),
                "lossy {lossy}"
            );
            assert!(fleet.links.iter().flatten().all(|c| !c.awaiting), "lossy {lossy}");
        }
    }

    /// A member's end of a lossy link, on a thread: answers the first
    /// frame it is sent with a round-5 `LocalCost` after `hold`, acks
    /// what follows until `Shutdown`, and returns how long that first
    /// frame took to arrive.
    fn lossy_member(
        stream: TcpStream,
        plan: &FaultPlan,
        code: u64,
        hold: Duration,
    ) -> std::thread::JoinHandle<Duration> {
        let plan = plan.clone();
        std::thread::spawn(move || {
            let started = Instant::now();
            let mut link = Link::with_plan(FrameConn::new(stream).expect("conn"), plan, code, 0);
            let _opener = link.recv(Duration::from_secs(5)).expect("the opener arrives");
            let arrived = started.elapsed();
            std::thread::sleep(hold);
            link.send(&Frame::LocalCost { epoch: 0, round: 5, cost: code as f64 }).expect("send");
            while !matches!(link.recv(Duration::from_secs(5)), Ok(Frame::Shutdown) | Err(_)) {}
            arrived
        })
    }

    /// On a lossy fleet, a `RoundStart` the plan drops to member 0 is
    /// retransmitted at its deadline while the staircase sleeps on
    /// member 1, who answers late; member 0 answers, and nobody is
    /// buried.
    #[test]
    fn a_dropped_frame_is_resent_while_the_staircase_reads_another_member() {
        // Master (code 0) to member 0 (code 1): the first attempt of
        // sequence 0 is dropped, the second is not; member 1 (code 2)
        // gets it at once.
        let plan = lossy_plan(|p| {
            p.wire_drop(0, 0, 1, 0) && !p.wire_drop(0, 0, 1, 1) && !p.wire_drop(0, 0, 2, 0)
        });
        let (mut fleet, peers) = fleet_over_sockets(2, Duration::from_secs(2));
        make_lossy(&mut fleet, &plan);
        let hold = Duration::from_millis(400);
        let members: Vec<_> = peers
            .into_iter()
            .enumerate()
            .map(|(i, s)| lossy_member(s, &plan, i as u64 + 1, [Duration::ZERO, hold][i]))
            .collect();
        fleet.broadcast(&Frame::RoundStart { epoch: 0, round: 5 }, &[0, 1], Instant::now());
        let (mut out, mut logical) = ([0.0f64; 2], 0usize);
        let result = fleet.collect_blocking(5, 0, Phase::Cost, &[0, 1], &mut out, &mut logical);
        assert!(result.is_ok(), "nobody is buried");
        assert_eq!(out, [1.0, 2.0]);
        fleet.shutdown(Duration::from_secs(2));
        let arrived = members.into_iter().map(|m| m.join().expect("member")).collect::<Vec<_>>();
        // Resent at the 20 ms retransmission deadline, not when the
        // staircase reached member 0 after member 1's late answer.
        assert!(arrived[0] < hold / 2, "the dropped RoundStart arrived after {:?}", arrived[0]);
    }

    /// On a lossy fleet, a member whose commit frame is still unacked
    /// (the plan dropped it) at `drain` is not reported dead; the next
    /// collect's blocking wait retransmits it, and the member answers.
    #[test]
    fn an_unacked_commit_frame_at_drain_is_not_a_death() {
        let plan = lossy_plan(|p| p.wire_drop(0, 0, 1, 0) && !p.wire_drop(0, 0, 1, 1));
        let (mut fleet, mut peers) = fleet_over_sockets(1, Duration::from_secs(2));
        make_lossy(&mut fleet, &plan);
        let member = lossy_member(peers.pop().expect("one peer"), &plan, 1, Duration::ZERO);
        fleet.queue_to(0, &Frame::Assignment { round: 4, share: 0.5 }, Instant::now());
        assert!(
            matches!(fleet.drain(), Ok(dead) if dead.is_empty()),
            "an unacked frame is no death"
        );
        assert!(fleet.links[0].as_ref().is_some_and(Conn::busy), "the commit frame awaits its ack");
        fleet.broadcast(&Frame::RoundStart { epoch: 0, round: 5 }, &[0], Instant::now());
        let (mut out, mut logical) = ([0.0f64], 0usize);
        let result = fleet.collect_blocking(5, 0, Phase::Cost, &[0], &mut out, &mut logical);
        assert!(result.is_ok(), "the member answers once its commit frame is resent");
        assert_eq!(out, [1.0]);
        fleet.shutdown(Duration::from_secs(2));
        member.join().expect("member");
    }
}
