//! A shard-master's worker set over sockets: non-blocking connections
//! pumped by a level-triggered readiness loop, with per-connection
//! deadlines on a hashed timer wheel and the lossy [`Envelope`] driven
//! by the sweep's clock (the blocking [`Link`] drives the same envelope
//! by blocking waits) — or, on lossless fleets, the blocking staircase
//! collect.
//!
//! Everything below the protocol script of [`crate::shard`] — readiness
//! sweeps, frame reassembly, broadcast fan-out, deadline bookkeeping,
//! crash discovery — lives here as [`Fleet`].
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

/// Slot count of the hashed timer wheel. Must be a power of two (checked
/// by a debug assertion in [`TimerWheel::new`]) so the slot index — taken
/// with `%` for clarity — compiles to a mask, and so a full rotation
/// divides the tick space evenly. 256 slots of [`WHEEL_TICK_MICROS`]
/// cover a ~1 s horizon per rotation; deadlines beyond it are re-kept
/// when the cursor crosses their slot.
pub(crate) const WHEEL_SLOTS: usize = 256;

/// Width of one timer-wheel slot in microseconds. With [`WHEEL_SLOTS`]
/// slots this bounds deadline-firing granularity at 4 ms — far below any
/// configured `frame_timeout`, so expiry jitter never masquerades as a
/// premature crash declaration.
pub(crate) const WHEEL_TICK_MICROS: u128 = 4_000;

/// Read-buffer size for one non-blocking `read` call. One page-multiple
/// chunk keeps syscall count low while bounding the stack frame of every
/// sweep; frames larger than this simply reassemble across reads.
pub(crate) const READ_CHUNK_BYTES: usize = 16384;

/// Consecutive idle sweeps tolerated before the pacing loop stops
/// spin-yielding and starts sleeping. Low enough that a quiet fleet
/// backs off within microseconds; high enough that a single empty sweep
/// between frame bursts never costs a sleep.
pub(crate) const SPIN_YIELD_STREAK: u32 = 8;

/// Sleep length, in microseconds, for each idle pass once the
/// [`SPIN_YIELD_STREAK`] budget is exhausted. Half a millisecond keeps
/// worst-case added latency per frame well under the timer-wheel tick.
pub(crate) const IDLE_SLEEP_MICROS: u64 = 500;

#[derive(Debug, Clone, Copy)]
pub(crate) struct Timer {
    at: Instant,
    conn: usize,
    gen: u64,
}

/// A hashed timer wheel: [`WHEEL_SLOTS`] slots of [`WHEEL_TICK_MICROS`].
/// Arming is O(1); expiry drains only the slots the cursor crosses,
/// re-keeping entries armed a full rotation or more ahead. Cancellation
/// is lazy: each connection carries a generation counter and a fired
/// timer whose generation is stale is simply discarded.
#[derive(Debug)]
pub(crate) struct TimerWheel {
    slots: Vec<Vec<Timer>>,
    epoch: Instant,
    tick: u64,
}

impl TimerWheel {
    pub(crate) fn new(now: Instant) -> Self {
        debug_assert!(WHEEL_SLOTS.is_power_of_two(), "wheel slot count must be a power of two");
        Self { slots: vec![Vec::new(); WHEEL_SLOTS], epoch: now, tick: 0 }
    }

    fn tick_of(&self, at: Instant) -> u64 {
        (at.saturating_duration_since(self.epoch).as_micros() / WHEEL_TICK_MICROS) as u64
    }

    pub(crate) fn arm(&mut self, at: Instant, conn: usize, gen: u64) {
        let tick = self.tick_of(at).max(self.tick);
        self.slots[(tick as usize) % WHEEL_SLOTS].push(Timer { at, conn, gen });
    }

    /// Drains every timer due by `now`, sorted by (deadline, connection)
    /// so expiry order never depends on slot hashing.
    pub(crate) fn expire(&mut self, now: Instant) -> Vec<Timer> {
        let now_tick = self.tick_of(now);
        if now_tick < self.tick {
            return Vec::new();
        }
        let mut due = Vec::new();
        // Past a full rotation every slot is visited exactly once.
        let span = (now_tick - self.tick + 1).min(WHEEL_SLOTS as u64);
        for step in 0..span {
            let slot = ((self.tick + step) as usize) % WHEEL_SLOTS;
            let mut keep = Vec::new();
            for timer in self.slots[slot].drain(..) {
                if timer.at <= now {
                    due.push(timer);
                } else {
                    keep.push(timer);
                }
            }
            self.slots[slot] = keep;
        }
        self.tick = now_tick;
        due.sort_by(|a, b| a.at.cmp(&b.at).then(a.conn.cmp(&b.conn)));
        due
    }
}

impl Timer {
    pub(crate) fn conn(&self) -> usize {
        self.conn
    }

    pub(crate) fn gen(&self) -> u64 {
        self.gen
    }
}

/// Adaptive idle pacing: spin-yield while traffic flows, back off to
/// brief sleeps once the loop goes quiet, reset on any progress.
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

/// One admitted (or handshaking) connection: a non-blocking socket, the
/// shared reassembly/transmit codec, the optional lossy envelope, and an
/// inbox of fully decoded protocol frames.
#[derive(Debug)]
pub(crate) struct Conn {
    stream: TcpStream,
    pub(crate) codec: FrameCodec,
    envelope: Option<Envelope>,
    pub(crate) inbox: VecDeque<Frame>,
    /// Deadline generation; bumping it lazily cancels armed timers.
    pub(crate) gen: u64,
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
            gen: 0,
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
    fn route(&mut self, frame: Frame, now: Instant) -> Result<(), ConnFail> {
        let Some(envelope) = self.envelope.as_mut() else {
            self.inbox.push_back(frame);
            return Ok(());
        };
        match envelope.receive(frame, now) {
            Ok(payload) => self.inbox.extend(payload),
            Err(e) => return Err(ConnFail::Fatal(NetError::Transport(e))),
        }
        self.flush_envelope();
        Ok(())
    }

    /// Drains whatever the socket has buffered and parses complete
    /// frames into the inbox. Returns whether any bytes arrived.
    pub(crate) fn pump_read(&mut self, now: Instant) -> Result<bool, ConnFail> {
        let mut progressed = false;
        let mut chunk = [0u8; READ_CHUNK_BYTES];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(ConnFail::Dead),
                Ok(k) => {
                    self.codec.ingest(&chunk[..k]);
                    progressed = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return Err(ConnFail::Dead),
            }
        }
        loop {
            match self.codec.pop_frame() {
                Ok(Some(frame)) => self.route(frame, now)?,
                Ok(None) => break,
                Err(e) => return Err(ConnFail::Fatal(NetError::Transport(e.into()))),
            }
        }
        Ok(progressed)
    }

    /// Writes as much of the transmit queue as the socket accepts.
    pub(crate) fn pump_write(&mut self) -> Result<bool, ConnFail> {
        let mut progressed = false;
        while self.codec.has_tx() {
            match self.stream.write(self.codec.pending_tx()) {
                Ok(0) => return Err(ConnFail::Dead),
                Ok(k) => {
                    self.codec.advance_tx(k);
                    progressed = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return Err(ConnFail::Dead),
            }
        }
        Ok(progressed)
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

/// One full readiness pass over a connection: retransmission clock,
/// write, read, then clock again (an ack may have freed the envelope).
pub(crate) fn pump(conn: &mut Conn, now: Instant) -> Result<bool, ConnFail> {
    conn.poll_envelope(now);
    let wrote = conn.pump_write()?;
    let read = conn.pump_read(now)?;
    conn.poll_envelope(now);
    let flushed = conn.pump_write()?;
    Ok(wrote | read | flushed)
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

/// The shared collect-phase frame matcher: the value carried by the
/// awaited frame, `None` for a stale leftover of an abandoned epoch
/// (silently filtered), `Dead` for a worker whose awaited value is
/// impossible (a non-finite cost; a gain outside
/// `[0, gain_ceiling(α, x_i)]`) — a wrong worker is buried like a
/// crashed one — or `Fatal` on a protocol violation.
fn phase_value(
    phase: Phase<'_>,
    frame: Frame,
    t: usize,
    epoch: u32,
    i: usize,
) -> Result<Option<f64>, SweepFail> {
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
            return Err(SweepFail::Fatal(NetError::Protocol(format!(
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
        Some(v) if !possible(v) => Err(SweepFail::Dead(vec![i])),
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
) -> Result<(), SweepFail> {
    while conn.awaiting {
        let Some(frame) = conn.inbox.pop_front() else { break };
        if let Some(value) = phase_value(phase, frame, t, epoch, i)? {
            out[i] = value;
            *logical += 1;
            conn.awaiting = false;
            conn.gen += 1;
        }
    }
    Ok(())
}

/// How a fleet sweep failed, when it did.
pub(crate) enum SweepFail {
    /// These members' sockets died or their deadlines expired — all
    /// deaths discovered in one sweep, so simultaneous stalls bury
    /// together instead of costing a timeout each.
    Dead(Vec<usize>),
    /// Unrecoverable failure (protocol violation, malformed bytes).
    Fatal(NetError),
}

/// A shard-master's member set over sockets: the readiness sweep, the
/// staircase, coalesced broadcast, deadline, and crash-discovery
/// machinery. The protocol script stays in [`crate::shard`]; `Fleet`
/// only knows how to move frames and discover deaths.
pub(crate) struct Fleet {
    /// Member connections by id; `None` marks a buried member.
    pub(crate) links: Vec<Option<Conn>>,
    frame_timeout: Duration,
    wheel: TimerWheel,
    idle: IdleWait,
    /// Whether the sockets have been flipped to blocking mode for the
    /// staircase collect; see [`Fleet::enter_staircase`].
    staircase: bool,
}

impl Fleet {
    pub(crate) fn new(links: Vec<Option<Conn>>, frame_timeout: Duration) -> Self {
        Self {
            links,
            frame_timeout,
            wheel: TimerWheel::new(Instant::now()),
            idle: IdleWait::new(),
            staircase: false,
        }
    }

    /// Flips every member socket to blocking mode — permanently — with
    /// `frame_timeout` as both read and write deadline, committing this
    /// fleet to the [`Fleet::collect_blocking`] staircase.
    ///
    /// Doing the mode switch once, here, instead of per collect call is
    /// not a nicety: toggling `O_NONBLOCK` and `SO_RCVTIMEO` around every
    /// phase costs four syscalls per member per collect, which at
    /// N = 4096 across sixteen shard-masters is ~32k syscalls a round —
    /// on a mitigated kernel, tens of milliseconds of pure mode-flipping
    /// stolen from the workers the phase is waiting on. A fleet in
    /// staircase mode must never re-enter the readiness sweep
    /// ([`Fleet::collect`]); `drain` and `shutdown` take blocking-safe
    /// paths instead.
    pub(crate) fn enter_staircase(&mut self) -> Result<(), SweepFail> {
        debug_assert!(
            self.links.iter().flatten().all(|c| !c.is_lossy()),
            "the blocking staircase is a lossless-only path: lossy envelopes need the sweep's \
             retransmission clock"
        );
        for (i, slot) in self.links.iter_mut().enumerate() {
            let Some(conn) = slot.as_mut() else { continue };
            if conn.stream.set_nonblocking(false).is_err()
                || conn.stream.set_read_timeout(Some(self.frame_timeout)).is_err()
                || conn.stream.set_write_timeout(Some(self.frame_timeout)).is_err()
            {
                return Err(SweepFail::Dead(vec![i]));
            }
        }
        self.staircase = true;
        Ok(())
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

    /// Drops the awaiting flag (and cancels the deadline) everywhere —
    /// the cleanup step of any aborted collect.
    pub(crate) fn clear_awaiting(&mut self) {
        for conn in self.links.iter_mut().flatten() {
            if conn.awaiting {
                conn.awaiting = false;
                conn.gen += 1;
            }
        }
    }

    /// Awaits one `phase` frame from every member in `await_set` on this
    /// fleet's collect path: the staircase once
    /// [`Fleet::enter_staircase`] has run, the readiness sweep otherwise.
    pub(crate) fn await_phase(
        &mut self,
        t: usize,
        epoch: u32,
        phase: Phase<'_>,
        await_set: &[usize],
        out: &mut [f64],
        logical: &mut usize,
    ) -> Result<(), SweepFail> {
        if self.staircase {
            self.collect_blocking(t, epoch, phase, await_set, out, logical)
        } else {
            self.collect(t, epoch, phase, await_set, out, logical)
        }
    }

    /// Awaits one matching worker frame from every member in
    /// `await_set`, pumping every busy connection each sweep. Deadlines
    /// ride the timer wheel and *all* expiries of a sweep are collected
    /// before aborting, so simultaneous stalls cost one `frame_timeout`
    /// total. Frames tagged with an epoch other than `epoch` (or a round
    /// other than `t`) are stale leftovers of an abandoned attempt and
    /// are filtered.
    pub(crate) fn collect(
        &mut self,
        t: usize,
        epoch: u32,
        phase: Phase<'_>,
        await_set: &[usize],
        out: &mut [f64],
        logical: &mut usize,
    ) -> Result<(), SweepFail> {
        debug_assert!(!self.staircase, "a staircase fleet's sockets block; the sweep would hang");
        let now = Instant::now();
        let mut waiting = vec![false; self.links.len()];
        for &i in await_set {
            waiting[i] = true;
            let conn = self.links[i].as_mut().expect("active members have connections");
            conn.gen += 1;
            conn.awaiting = true;
            self.wheel.arm(now + self.frame_timeout, i, conn.gen);
        }
        let mut remaining = await_set.len();
        while remaining > 0 {
            let now = Instant::now();
            let mut progressed = false;
            let mut dead: Vec<usize> = Vec::new();
            for (i, slot) in self.links.iter_mut().enumerate() {
                let Some(conn) = slot.as_mut() else { continue };
                if !(conn.awaiting || conn.busy()) {
                    continue;
                }
                match pump(conn, now) {
                    Ok(p) => progressed |= p,
                    Err(ConnFail::Dead) => {
                        dead.push(i);
                        continue;
                    }
                    Err(ConnFail::Fatal(e)) => return Err(SweepFail::Fatal(e)),
                }
                if waiting[i] {
                    match serve_inbox(conn, phase, t, epoch, i, out, logical) {
                        Ok(()) => {}
                        Err(SweepFail::Dead(wrong)) => {
                            dead.extend(wrong);
                            continue;
                        }
                        Err(fail) => return Err(fail),
                    }
                    if !conn.awaiting {
                        waiting[i] = false;
                        remaining -= 1;
                    }
                }
            }
            for timer in self.wheel.expire(now) {
                let expired = self.links[timer.conn()]
                    .as_ref()
                    .is_some_and(|c| c.awaiting && c.gen == timer.gen());
                if expired && !dead.contains(&timer.conn()) {
                    dead.push(timer.conn());
                }
            }
            if !dead.is_empty() {
                dead.sort_unstable();
                dead.dedup();
                self.clear_awaiting();
                return Err(SweepFail::Dead(dead));
            }
            self.idle.pace(progressed);
        }
        Ok(())
    }

    /// The lossless fast path of [`Fleet::collect`]: flush every pending
    /// queue, then take the awaited frames by *sequential blocking reads*
    /// — the staircase — instead of the readiness sweep.
    ///
    /// With no lossy envelopes there are no retransmission timers and no
    /// acks to service, so between a broadcast and the matching collect
    /// the only traffic on the fleet is the awaited frames themselves.
    /// The coordinator can therefore sleep in the kernel on one socket at
    /// a time while arrivals from the others buffer; the phase is a
    /// barrier, so its completion time is unchanged, and what disappears
    /// is the sweep's poll/sleep duty cycle — read syscalls against
    /// empty sockets and timeslices stolen from the very workers the
    /// phase is waiting on. Shedding that duty cycle is the measured win
    /// of the `shard_scale` experiment.
    ///
    /// The trade is deadline coarsening: each read waits up to
    /// `frame_timeout` from the moment its turn comes, so a slow but
    /// live early member pushes the later deadlines back. Stalls still
    /// cost one `frame_timeout` per phase, not one per stalled member:
    /// when the first read deadline expires, every member not yet read
    /// has also had a full `frame_timeout` since the flush, so each is
    /// read once without blocking and every silent one is reported in
    /// the same [`SweepFail::Dead`]. A shard-master takes the staircase
    /// whenever its fault plan is lossless.
    ///
    /// Requires [`Fleet::enter_staircase`] to have flipped the sockets
    /// to blocking mode first — the deadlines here are the kernel's
    /// `SO_RCVTIMEO`, armed once, not per-call socket reconfiguration.
    pub(crate) fn collect_blocking(
        &mut self,
        t: usize,
        epoch: u32,
        phase: Phase<'_>,
        await_set: &[usize],
        out: &mut [f64],
        logical: &mut usize,
    ) -> Result<(), SweepFail> {
        debug_assert!(self.staircase, "collect_blocking requires enter_staircase");
        // Flush everything queued (coordination frames, pins) so every
        // member is computing before the staircase starts sleeping. The
        // sockets block with a write deadline, so a pass that leaves
        // bytes behind means the member stopped reading long enough for
        // both its socket buffer and the deadline to fill: dead.
        for (i, slot) in self.links.iter_mut().enumerate() {
            let Some(conn) = slot.as_mut() else { continue };
            if conn.busy() {
                match conn.pump_write() {
                    Ok(_) if conn.busy() => return Err(SweepFail::Dead(vec![i])),
                    Ok(_) => {}
                    Err(ConnFail::Dead) => return Err(SweepFail::Dead(vec![i])),
                    Err(ConnFail::Fatal(e)) => return Err(SweepFail::Fatal(e)),
                }
            }
        }
        for &i in await_set {
            let conn = self.links[i].as_mut().expect("active members have connections");
            conn.awaiting = true;
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
        let mut failed: Option<SweepFail> = None;
        'staircase: for (pos, &i) in await_set.iter().rev().enumerate() {
            let conn = self.links[i].as_mut().expect("active members have connections");
            let mut chunk = [0u8; READ_CHUNK_BYTES];
            loop {
                // Serve whatever is already reassembled before sleeping.
                if let Err(fail) = serve_inbox(conn, phase, t, epoch, i, out, logical) {
                    failed = Some(fail);
                    break 'staircase;
                }
                if !conn.awaiting {
                    break;
                }
                match conn.stream.read(&mut chunk) {
                    Ok(0) => {
                        failed = Some(SweepFail::Dead(vec![i]));
                        break 'staircase;
                    }
                    Ok(k) => {
                        conn.codec.ingest(&chunk[..k]);
                        loop {
                            match conn.codec.pop_frame() {
                                Ok(Some(frame)) => conn.inbox.push_back(frame),
                                Ok(None) => break,
                                Err(e) => {
                                    failed = Some(SweepFail::Fatal(NetError::Transport(e.into())));
                                    break 'staircase;
                                }
                            }
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e)
                        if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut =>
                    {
                        // The staircase deadline: this member and every
                        // one not yet read are a full frame_timeout past
                        // the flush.
                        let unread = &await_set[..await_set.len() - pos];
                        failed = match self.reap_silent(unread, t, epoch, phase, out, logical) {
                            Ok(dead) if dead.is_empty() => None,
                            Ok(dead) => Some(SweepFail::Dead(dead)),
                            Err(fail) => Some(fail),
                        };
                        break 'staircase;
                    }
                    Err(_) => {
                        failed = Some(SweepFail::Dead(vec![i]));
                        break 'staircase;
                    }
                }
            }
        }
        if let Some(fail) = failed {
            self.clear_awaiting();
            return Err(fail);
        }
        Ok(())
    }

    /// The staircase's failure path: reads each of `members` once
    /// without blocking and returns the ones that still owe their frame,
    /// ascending. Every member here has had at least one `frame_timeout`
    /// since the phase's flush, so all of them are dead — a whole bank
    /// of stalls in one failure, as in the sweep.
    fn reap_silent(
        &mut self,
        members: &[usize],
        t: usize,
        epoch: u32,
        phase: Phase<'_>,
        out: &mut [f64],
        logical: &mut usize,
    ) -> Result<Vec<usize>, SweepFail> {
        let now = Instant::now();
        let mut dead = Vec::new();
        for &i in members {
            let conn = self.links[i].as_mut().expect("active members have connections");
            if conn.stream.set_nonblocking(true).is_err() {
                dead.push(i);
                continue;
            }
            let read = conn.pump_read(now);
            let restored = conn.stream.set_nonblocking(false).is_ok();
            match read {
                Err(ConnFail::Fatal(e)) => return Err(SweepFail::Fatal(e)),
                Err(ConnFail::Dead) => dead.push(i),
                Ok(_) => match serve_inbox(conn, phase, t, epoch, i, out, logical) {
                    Ok(()) if conn.awaiting || !restored => dead.push(i),
                    Ok(()) => {}
                    Err(SweepFail::Dead(_)) => dead.push(i),
                    Err(fail) => return Err(fail),
                },
            }
        }
        dead.sort_unstable();
        Ok(dead)
    }

    /// Flushes every pending queue and live envelope within one
    /// `frame_timeout`; connections that fail or stall come back as the
    /// dead list. Used after a commit, so the caller maps a non-empty
    /// list onto the round-stands crash branch.
    pub(crate) fn drain(&mut self) -> Result<Vec<usize>, NetError> {
        if self.staircase {
            // Blocking sockets: a read sweep would hang on quiet members,
            // and on a lossless fleet there is nothing inbound to service
            // between phases anyway. Draining is flushing the queued
            // commit frames; the kernel's write deadline turns a member
            // that stopped reading into a timeout, reported as dead.
            let mut dead: Vec<usize> = Vec::new();
            for (i, slot) in self.links.iter_mut().enumerate() {
                let Some(conn) = slot.as_mut() else { continue };
                if !conn.busy() {
                    continue;
                }
                match conn.pump_write() {
                    Ok(_) if conn.busy() => dead.push(i),
                    Ok(_) => {}
                    Err(ConnFail::Dead) => dead.push(i),
                    Err(ConnFail::Fatal(e)) => return Err(e),
                }
            }
            return Ok(dead);
        }
        let until = Instant::now() + self.frame_timeout;
        let mut dead: Vec<usize> = Vec::new();
        loop {
            let now = Instant::now();
            let mut busy_any = false;
            let mut progressed = false;
            for (i, slot) in self.links.iter_mut().enumerate() {
                let Some(conn) = slot.as_mut() else { continue };
                if dead.contains(&i) || !conn.busy() {
                    continue;
                }
                match pump(conn, now) {
                    Ok(p) => progressed |= p,
                    Err(ConnFail::Dead) => {
                        dead.push(i);
                        continue;
                    }
                    Err(ConnFail::Fatal(e)) => return Err(e),
                }
                if conn.busy() {
                    busy_any = true;
                }
            }
            if !busy_any {
                break;
            }
            if now >= until {
                for (i, slot) in self.links.iter().enumerate() {
                    if slot.as_ref().is_some_and(Conn::busy) && !dead.contains(&i) {
                        dead.push(i);
                    }
                }
                break;
            }
            self.idle.pace(progressed);
        }
        dead.sort_unstable();
        Ok(dead)
    }

    /// Orderly end of the run: queues `Shutdown` on every live link,
    /// flushes it, then **lingers** — keeps pumping (and therefore
    /// re-acking retransmitted duplicates) until each peer closes its
    /// socket or `limit` expires. The linger matters under loss: a peer
    /// whose final frame's ack was eaten is still blocked in its
    /// stop-and-wait retransmission schedule when `Shutdown` lands, and
    /// closing its socket mid-schedule would fire a reset into that
    /// send. Peers close as soon as they finish, so the common case is a
    /// handful of sweeps, not the deadline.
    pub(crate) fn shutdown(&mut self, limit: Duration) {
        let now = Instant::now();
        for conn in self.links.iter_mut().flatten() {
            conn.queue(&Frame::Shutdown, now);
        }
        if self.staircase {
            // Flush every goodbye before reaping any EOF, so no peer's
            // close waits behind another's blocking read; then collect
            // the closes, each read bounded by the socket deadline and
            // the whole pass by `limit`. Lossless peers never block in a
            // retransmission schedule, so there is nothing to re-ack.
            for conn in self.links.iter_mut().flatten() {
                let _ = conn.pump_write();
            }
            let until = now + limit;
            let mut chunk = [0u8; READ_CHUNK_BYTES];
            for conn in self.links.iter_mut().flatten() {
                loop {
                    if Instant::now() >= until {
                        return;
                    }
                    match conn.stream.read(&mut chunk) {
                        Ok(0) => break, // the peer's goodbye
                        Ok(_) => {}     // stray bytes; keep reaping
                        Err(e) if e.kind() == ErrorKind::Interrupted => {}
                        Err(_) => break, // deadline or reset: give up on this peer
                    }
                }
            }
            return;
        }
        let until = now + limit;
        let mut open: Vec<bool> = self.links.iter().map(Option::is_some).collect();
        let mut idle = IdleWait::new();
        loop {
            let now = Instant::now();
            if now >= until {
                return;
            }
            let mut progressed = false;
            let mut remaining = false;
            for (i, slot) in self.links.iter_mut().enumerate() {
                if !open[i] {
                    continue;
                }
                let conn = slot.as_mut().expect("open connections exist");
                match pump(conn, now) {
                    Ok(p) => {
                        progressed |= p;
                        remaining = true;
                    }
                    // EOF or error: the peer's goodbye.
                    Err(_) => open[i] = false,
                }
            }
            if !remaining {
                return;
            }
            idle.pace(progressed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// `phase_value` is the stale-epoch filter of both collect paths:
    /// frames tagged with an older epoch — leftovers of a round attempt
    /// abandoned by a membership transition — are skipped, never
    /// mis-consumed and never fatal; same-epoch frames of the wrong
    /// phase stay protocol violations.
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
        assert!(matches!(phase_value(Phase::Cost, misplaced, 7, 1, 0), Err(SweepFail::Fatal(_))));
    }

    /// The awaited value is checked before it is used: a non-finite
    /// cost or a gain outside `[0, gain_ceiling(α, x_i)]` makes its
    /// sender `Dead`, the crash path, while a stale frame is filtered
    /// unread.
    #[test]
    fn phase_value_buries_impossible_values() {
        let dead =
            |r: Result<Option<f64>, SweepFail>| matches!(r, Err(SweepFail::Dead(d)) if d == [3]);
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
        (Fleet::new(links, frame_timeout), peers)
    }

    fn fleet_over_one_socket() -> (Fleet, TcpStream) {
        let (fleet, mut peers) = fleet_over_sockets(1, Duration::from_secs(2));
        (fleet, peers.pop().expect("one peer"))
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
        assert!(fleet.enter_staircase().is_ok());
        peers[2].write_all(&Frame::LocalCost { epoch: 0, round: 5, cost: 1.0 }.encode()).unwrap();
        let (mut out, mut logical) = ([0.0f64; 4], 0usize);
        let started = Instant::now();
        let result =
            fleet.collect_blocking(5, 0, Phase::Cost, &[0, 1, 2, 3], &mut out, &mut logical);
        let elapsed = started.elapsed();
        assert!(matches!(result, Err(SweepFail::Dead(ref dead)) if dead == &[0, 1, 3]));
        assert!(elapsed < timeout * 2, "three silent members cost {elapsed:?}");
    }

    /// Regression: a worker's epoch-0 report arriving *after* the
    /// shard-local epoch bumped to 1 (the worker answered the abandoned
    /// attempt before it saw the `Epoch` frame) must be discarded by the
    /// collect, which then waits for — and takes — the re-reported
    /// epoch-1 value. Exercised on both collect paths.
    #[test]
    fn collect_skips_frames_from_before_a_local_epoch_bump() {
        use std::io::Write as _;
        for staircase in [false, true] {
            let (mut fleet, mut peer) = fleet_over_one_socket();
            if staircase {
                assert!(fleet.enter_staircase().is_ok());
            }
            peer.write_all(&Frame::LocalCost { epoch: 0, round: 7, cost: 1.0 }.encode())
                .expect("stale frame");
            peer.write_all(&Frame::LocalCost { epoch: 1, round: 7, cost: 42.0 }.encode())
                .expect("fresh frame");
            let mut out = [0.0f64];
            let mut logical = 0usize;
            let result = if staircase {
                fleet.collect_blocking(7, 1, Phase::Cost, &[0], &mut out, &mut logical)
            } else {
                fleet.collect(7, 1, Phase::Cost, &[0], &mut out, &mut logical)
            };
            assert!(result.is_ok(), "the stale frame must be skipped, not fatal");
            assert_eq!(out[0], 42.0, "the epoch-1 re-report is the consumed value");
            assert_eq!(logical, 1, "exactly one logical frame per member per phase");
        }
    }

    /// A NaN cost report fails either collect path with exactly its
    /// sender dead, and leaves no member awaiting.
    #[test]
    fn a_nan_report_is_a_death_on_both_collect_paths() {
        use std::io::Write as _;
        for staircase in [false, true] {
            let (mut fleet, mut peers) = fleet_over_sockets(3, Duration::from_secs(2));
            if staircase {
                assert!(fleet.enter_staircase().is_ok());
            }
            for (peer, cost) in peers.iter_mut().zip([1.0, f64::NAN, 2.0]) {
                peer.write_all(&Frame::LocalCost { epoch: 0, round: 5, cost }.encode())
                    .expect("report");
            }
            let (mut out, mut logical) = ([0.0f64; 3], 0usize);
            let result = if staircase {
                fleet.collect_blocking(5, 0, Phase::Cost, &[0, 1, 2], &mut out, &mut logical)
            } else {
                fleet.collect(5, 0, Phase::Cost, &[0, 1, 2], &mut out, &mut logical)
            };
            assert!(
                matches!(result, Err(SweepFail::Dead(ref dead)) if dead == &[1]),
                "staircase {staircase}"
            );
            assert!(fleet.links.iter().flatten().all(|c| !c.awaiting), "staircase {staircase}");
        }
    }
}
