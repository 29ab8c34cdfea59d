//! A deterministic discrete-event queue.
//!
//! Events are ordered by simulated time with a monotonically increasing
//! sequence number as the tie-breaker, so two runs over the same inputs
//! produce identical schedules — the property the trajectory-equivalence
//! tests rely on.
//!
//! ## What an event costs
//!
//! The heap orders 16-byte keys — `(time, seq, slot)`, the sequence
//! number and the slot 32 bits each — in a plain `Vec`, and the events
//! themselves sit still in a slab, in the slot their key names.
//! A sift moves keys, never events, and a slot freed by a pop is reused
//! by the next schedule (the vacant slots form a list threaded through
//! the slab), so a queue that has reached its peak size schedules and
//! pops without allocating. [`pop_nth`](EventQueue::pop_nth) extracts
//! the keys it skips heapsort-style, into the tail of the heap's own
//! buffer, and sifts them back in, so an out-of-order delivery allocates
//! nothing either. Cloning a queue (the model checker's fork) copies the
//! keys and the slab into buffers of the original's capacity: two
//! allocations and two slice copies, whatever the number of pending
//! events.

/// An event scheduled at a simulated time.
#[derive(Debug, Clone)]
pub struct Scheduled<E> {
    /// Simulated time at which the event fires.
    pub time: f64,
    /// The event itself.
    pub event: E,
}

/// A pending event's place in the canonical order: its time, its
/// sequence number, and the slab slot holding the event. Sixteen bytes,
/// so a sift moves a key as one word pair.
#[derive(Debug, Clone, Copy)]
struct Key {
    time: f64,
    seq: u32,
    slot: u32,
}

impl Key {
    /// Whether `self` fires before `other`: earlier time, then lower
    /// sequence number. Sequence numbers are unique within a queue, so
    /// this is a strict total order on its pending keys.
    fn before(&self, other: &Self) -> bool {
        match self.time.partial_cmp(&other.time).expect("event times are finite") {
            std::cmp::Ordering::Equal => self.seq < other.seq,
            order => order.is_lt(),
        }
    }
}

/// Moves the key at `i` up the min-heap `heap` to its place.
fn sift_up(heap: &mut [Key], mut i: usize) {
    let key = heap[i];
    while i > 0 {
        let parent = (i - 1) / 2;
        if !key.before(&heap[parent]) {
            break;
        }
        heap[i] = heap[parent];
        i = parent;
    }
    heap[i] = key;
}

/// Moves the key at `i` down the min-heap `heap` to its place (an empty
/// heap has none to move).
fn sift_down(heap: &mut [Key], mut i: usize) {
    let Some(&key) = heap.get(i) else { return };
    loop {
        let left = 2 * i + 1;
        if left >= heap.len() {
            break;
        }
        let right = left + 1;
        let child =
            if right < heap.len() && heap[right].before(&heap[left]) { right } else { left };
        if !heap[child].before(&key) {
            break;
        }
        heap[i] = heap[child];
        i = child;
    }
    heap[i] = key;
}

/// A slab slot: a pending event, or a vacant slot linking to the next
/// vacant one.
#[derive(Debug, Clone, Copy)]
enum Slot<E> {
    Full(E),
    Vacant { next: u32 },
}

/// The end of the vacant-slot list.
const NO_SLOT: u32 = u32::MAX;

/// A min-heap of timestamped events with deterministic FIFO tie-breaking.
///
/// # Examples
///
/// ```
/// use dolbie_simnet::event::EventQueue;
///
/// let mut q = EventQueue::new();
/// q.schedule(2.0, "late");
/// q.schedule(1.0, "early");
/// q.schedule(1.0, "early-second");
/// assert_eq!(q.pop().unwrap().event, "early");
/// assert_eq!(q.pop().unwrap().event, "early-second");
/// assert_eq!(q.pop().unwrap().event, "late");
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// The pending keys, a binary min-heap in [`Key::before`] order.
    heap: Vec<Key>,
    slab: Vec<Slot<E>>,
    /// The first vacant slot of the slab ([`NO_SLOT`]: none).
    vacant: u32,
    next_seq: u32,
    now: f64,
}

impl<E: Clone> Clone for EventQueue<E> {
    /// Copies the keys and the slab into buffers as large as the
    /// original's, so a fork scheduling the rest of its round does not
    /// regrow them.
    fn clone(&self) -> Self {
        let mut heap = Vec::with_capacity(self.heap.capacity());
        heap.extend_from_slice(&self.heap);
        let mut slab = Vec::with_capacity(self.slab.capacity());
        slab.extend_from_slice(&self.slab);
        Self { heap, slab, vacant: self.vacant, next_seq: self.next_seq, now: self.now }
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        Self { heap: Vec::new(), slab: Vec::new(), vacant: NO_SLOT, next_seq: 0, now: 0.0 }
    }

    /// Empties the queue and rewinds its clock and sequence numbers to a
    /// new queue's, keeping its buffers: the next round's queue at no
    /// allocation.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.slab.clear();
        self.vacant = NO_SLOT;
        self.next_seq = 0;
        self.now = 0.0;
    }

    /// Reserves room for at least `additional` more events.
    pub fn reserve(&mut self, additional: usize) {
        self.heap.reserve(additional);
        self.slab.reserve(additional);
    }

    /// Schedules `event` at absolute simulated time `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is non-finite or earlier than the current time
    /// (events cannot fire in the past), or if the queue has already
    /// scheduled 2³² − 1 events since it was created or
    /// [cleared](Self::clear).
    pub fn schedule(&mut self, time: f64, event: E) {
        assert!(time.is_finite(), "event time must be finite");
        assert!(time + 1e-12 >= self.now, "cannot schedule into the past: {time} < {}", self.now);
        let seq = self.next_seq;
        self.next_seq = seq.checked_add(1).expect("at most 2^32 - 1 events per queue");
        let slot = match self.slab.get(self.vacant as usize) {
            Some(&Slot::Vacant { next }) => {
                let slot = self.vacant;
                self.vacant = next;
                self.slab[slot as usize] = Slot::Full(event);
                slot
            }
            _ => {
                // A slot index is below the sequence number, so it fits.
                self.slab.push(Slot::Full(event));
                (self.slab.len() - 1) as u32
            }
        };
        let last = self.heap.len();
        self.heap.push(Key { time: time.max(self.now), seq, slot });
        sift_up(&mut self.heap, last);
    }

    /// Takes the event a popped key names, vacating its slot.
    fn take(&mut self, key: Key) -> Scheduled<E> {
        let vacated = Slot::Vacant { next: self.vacant };
        let slot = std::mem::replace(&mut self.slab[key.slot as usize], vacated);
        self.vacant = key.slot;
        let Slot::Full(event) = slot else { unreachable!("a pending key names a full slot") };
        self.now = key.time.max(self.now);
        Scheduled { time: key.time, event }
    }

    /// Pops the earliest event, advancing the simulated clock to its time.
    ///
    /// The clock never runs backwards: after an out-of-order
    /// [`pop_nth`](Self::pop_nth) jumped `now` past earlier pending
    /// events, popping one of those stragglers keeps the later clock. In
    /// FIFO-only use the `max` is a no-op — the heap minimum is always
    /// `>= now` — so historical traces are unaffected bitwise.
    pub fn pop(&mut self) -> Option<Scheduled<E>> {
        let last = self.heap.pop()?;
        let key = match self.heap.first_mut() {
            Some(root) => {
                let key = std::mem::replace(root, last);
                sift_down(&mut self.heap, 0);
                key
            }
            None => last,
        };
        Some(self.take(key))
    }

    /// Pops the event of `rank` in the canonical `(time, seq)` order
    /// (`pop_nth(0)` is exactly [`pop`](Self::pop)), skipping over the
    /// `rank` earlier events, which stay pending with their original
    /// times and sequence numbers.
    ///
    /// This is the model checker's delivery-order injection point: a
    /// scheduler enumerating ranks enumerates every delivery
    /// interleaving. Out-of-order delivery advances the clock to the
    /// *chosen* event's time (simulated time is observational here — the
    /// protocol's behaviour must not depend on it, which is exactly what
    /// the model checker verifies), and skipped events deliver later
    /// under the never-backwards clock rule.
    ///
    /// # Panics
    ///
    /// Panics if `rank >= len()`.
    pub fn pop_nth(&mut self, rank: usize) -> Option<Scheduled<E>> {
        let len = self.heap.len();
        assert!(rank < len, "pop_nth rank {rank} out of range {len}");
        if rank == 0 {
            return self.pop();
        }
        // Heapsort's extraction: each of the `rank + 1` earliest keys in
        // turn swaps into the tail, the earliest at the very end, so the
        // chosen key lands at `end` with the skipped ones after it.
        let end = len - 1 - rank;
        for last in (end..len).rev() {
            self.heap.swap(0, last);
            sift_down(&mut self.heap[..last], 0);
        }
        let chosen = self.heap[end];
        // The skipped keys go back as they were: their original seq
        // numbers keep the canonical order of the remaining multiset.
        for k in end + 1..len {
            self.heap[k - 1] = self.heap[k];
            sift_up(&mut self.heap[..k], k - 1);
        }
        self.heap.truncate(len - 1);
        Some(self.take(chosen))
    }

    /// Visits every pending event in unspecified order — the model
    /// checker folds these into an order-independent multiset
    /// fingerprint, so iteration order must not matter to the caller.
    pub fn for_each_pending(&self, mut visit: impl FnMut(&E)) {
        for slot in &self.slab {
            if let Slot::Full(event) = slot {
                visit(event);
            }
        }
    }

    /// The current simulated time (the time of the last popped event).
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue has no pending events.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The queue's specification as the simplest model: every pending
    /// `(time, seq, event)` in a `Vec`, sorted on demand.
    #[derive(Default)]
    struct SortedModel {
        pending: Vec<(f64, u64, u32)>,
        next_seq: u64,
        now: f64,
    }

    impl SortedModel {
        fn schedule(&mut self, time: f64, event: u32) {
            self.pending.push((time.max(self.now), self.next_seq, event));
            self.next_seq += 1;
        }

        fn clear(&mut self) {
            *self = Self::default();
        }

        fn pop_nth(&mut self, rank: usize) -> (f64, u32) {
            self.pending.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let (time, _, event) = self.pending.remove(rank);
            self.now = time.max(self.now);
            (time, event)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Over random `schedule`/`pop`/`pop_nth` sequences on a coarse
        /// time grid (so times tie often), with an occasional `clear`, the
        /// queue pops what the sorted model pops, at the same time, with
        /// the same clock after every operation, and keeps the same
        /// pending multiset.
        #[test]
        fn the_queue_matches_a_sorted_vec_model(
            ops in prop::collection::vec((0u8..16, 0u32..4, 0usize..8), 1..120),
        ) {
            let mut queue = EventQueue::new();
            let mut model = SortedModel::default();
            for (id, &(op, step, rank)) in ops.iter().enumerate() {
                let id = id as u32;
                match op {
                    0..=6 => {
                        let time = queue.now() + f64::from(step) * 0.25;
                        queue.schedule(time, id);
                        model.schedule(time, id);
                    }
                    15 => {
                        queue.clear();
                        model.clear();
                    }
                    _ if model.pending.is_empty() => {
                        prop_assert!(queue.pop().is_none());
                    }
                    7..=10 => {
                        let got = queue.pop().expect("the model has a pending event");
                        let want = model.pop_nth(0);
                        prop_assert_eq!((got.time.to_bits(), got.event), (want.0.to_bits(), want.1));
                    }
                    _ => {
                        let rank = rank % model.pending.len();
                        let got = queue.pop_nth(rank).expect("rank is in range");
                        let want = model.pop_nth(rank);
                        prop_assert_eq!((got.time.to_bits(), got.event), (want.0.to_bits(), want.1));
                    }
                }
                prop_assert_eq!(queue.now().to_bits(), model.now.to_bits());
                prop_assert_eq!(queue.len(), model.pending.len());
                let mut visited = Vec::new();
                queue.for_each_pending(|&e| visited.push(e));
                let mut expected: Vec<u32> = model.pending.iter().map(|p| p.2).collect();
                visited.sort_unstable();
                expected.sort_unstable();
                prop_assert_eq!(visited, expected);
            }
        }
    }

    /// A clone is an independent queue with the same pending events: both
    /// pop the same sequence, and a slot the original reuses does not
    /// reach the clone.
    #[test]
    fn a_clone_pops_what_the_original_pops() {
        let mut q = EventQueue::new();
        for (t, e) in [(3.0, 3), (1.0, 1), (2.0, 2), (1.0, 11)] {
            q.schedule(t, e);
        }
        assert_eq!(q.pop_nth(2).unwrap().event, 2);
        let mut fork = q.clone();
        q.schedule(q.now(), 22);
        let drain = |q: &mut EventQueue<i32>| {
            std::iter::from_fn(|| q.pop().map(|s| s.event)).collect::<Vec<_>>()
        };
        assert_eq!(drain(&mut q), vec![1, 11, 22, 3]);
        assert_eq!(drain(&mut fork), vec![1, 11, 3]);
    }

    /// A clone's buffers are as large as the original's, so a fork's
    /// next schedules do not regrow them.
    #[test]
    fn a_clone_keeps_the_original_capacity() {
        let mut q = EventQueue::new();
        q.reserve(9);
        for (t, e) in [(3.0, 3), (1.0, 1), (2.0, 2)] {
            q.schedule(t, e);
        }
        let fork = q.clone();
        assert_eq!(fork.heap.capacity(), q.heap.capacity());
        assert_eq!(fork.slab.capacity(), q.slab.capacity());
        assert!(fork.heap.capacity() >= 9 && fork.slab.capacity() >= 9);
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(3.0, 3);
        q.schedule(1.0, 1);
        q.schedule(2.0, 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|s| s.event)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(5.0, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|s| s.event)).collect();
        let expected: Vec<i32> = (0..100).collect();
        assert_eq!(order, expected);
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.schedule(1.0, ());
        q.schedule(4.0, ());
        assert_eq!(q.now(), 0.0);
        q.pop();
        assert_eq!(q.now(), 1.0);
        // Scheduling relative to now is fine.
        q.schedule(q.now() + 0.5, ());
        q.pop();
        assert_eq!(q.now(), 1.5);
        q.pop();
        assert_eq!(q.now(), 4.0);
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(5.0, ());
        q.pop();
        q.schedule(1.0, ());
    }

    #[test]
    fn default_is_empty() {
        let q: EventQueue<()> = EventQueue::default();
        assert!(q.is_empty());
    }

    #[test]
    fn pop_nth_zero_is_pop() {
        let mut a = EventQueue::new();
        let mut b = EventQueue::new();
        for (t, e) in [(2.0, 2), (1.0, 1), (1.0, 11)] {
            a.schedule(t, e);
            b.schedule(t, e);
        }
        while !a.is_empty() {
            let x = a.pop_nth(0).unwrap();
            let y = b.pop().unwrap();
            assert_eq!(x.event, y.event);
            assert_eq!(x.time.to_bits(), y.time.to_bits());
            assert_eq!(a.now().to_bits(), b.now().to_bits());
        }
    }

    #[test]
    fn pop_nth_skips_earlier_events_and_preserves_their_order() {
        let mut q = EventQueue::new();
        q.schedule(1.0, 1);
        q.schedule(2.0, 2);
        q.schedule(3.0, 3);
        q.schedule(3.0, 33); // FIFO tie with 3
        assert_eq!(q.pop_nth(2).unwrap().event, 3);
        assert_eq!(q.now(), 3.0);
        // Skipped events remain, in canonical order; the clock holds.
        assert_eq!(q.pop().unwrap().event, 1);
        assert_eq!(q.now(), 3.0);
        assert_eq!(q.pop().unwrap().event, 2);
        assert_eq!(q.pop().unwrap().event, 33);
        assert!(q.is_empty());
    }

    #[test]
    fn pop_nth_then_schedule_relative_to_now_is_legal() {
        let mut q = EventQueue::new();
        q.schedule(1.0, 1);
        q.schedule(5.0, 5);
        assert_eq!(q.pop_nth(1).unwrap().event, 5);
        // A reply scheduled "now + delay" lands after the jumped clock,
        // not before the still-pending earlier event.
        q.schedule(q.now() + 0.5, 55);
        assert_eq!(q.pop().unwrap().event, 1);
        assert_eq!(q.pop().unwrap().event, 55);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn pop_nth_out_of_range_panics() {
        let mut q = EventQueue::new();
        q.schedule(1.0, ());
        q.pop_nth(1);
    }

    #[test]
    fn for_each_pending_visits_every_event_once() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.schedule(10.0 - i as f64, i);
        }
        let mut sum = 0;
        let mut count = 0;
        q.for_each_pending(|&e| {
            sum += e;
            count += 1;
        });
        assert_eq!(count, 10);
        assert_eq!(sum, 45);
    }
}
