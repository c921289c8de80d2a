//! Deterministic event calendar.
//!
//! The queue is a bucketed *calendar queue* (one 1 ns bucket per instant
//! over a sliding window, plus an overflow heap for far-future events)
//! rather than a binary heap: the simulators schedule short, dense
//! deadlines (link hops, controller occupancies, token waves), so almost
//! every event lands in the in-window array and is pushed/popped in O(1)
//! instead of O(log n). An occupancy bitmap keeps "find the next
//! non-empty instant" at a handful of word scans.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::{Gt, GtKey, Time};

/// An instant viewed as a wrapping-ordered counter: every comparison of
/// calendar instants goes through [`Gt`]'s signed-wrapping rule, so the
/// window arithmetic keeps working when simulated time crosses the `u64`
/// boundary (instants in flight are always within [`SPAN`] + one event
/// horizon of `now`, far inside the 2^63 comparison window).
#[inline]
fn ord(t: Time) -> Gt {
    Gt::from_raw(t.as_ns())
}

/// Width of the in-window calendar in nanoseconds/buckets. Events within
/// `[now, now + SPAN)` take the O(1) bucket path; later ones wait in the
/// overflow heap and migrate when the window advances. Covers every
/// Table 2 latency and the workload generators' typical inter-op gaps.
const SPAN: usize = 1024;

/// A calendar queue of timestamped events.
///
/// Events scheduled for the same instant are returned in the order they
/// were scheduled (FIFO), which makes simulations bit-for-bit
/// reproducible — a property the paper's methodology leans on when it
/// re-runs perturbed simulations and takes the minimum (§4.3). The
/// FIFO-within-instant guarantee holds across the bucket/overflow split:
/// an instant's bucket is always filled in scheduling order (overflow
/// entries migrate into a fresh window before any new event for that
/// instant can be scheduled).
///
/// # Example
///
/// ```
/// use tss_sim::{EventQueue, Time};
///
/// let mut q = EventQueue::new();
/// assert!(q.is_empty());
/// q.schedule(Time::from_ns(10), 'b');
/// q.schedule(Time::from_ns(10), 'c'); // same instant: FIFO order
/// q.schedule(Time::from_ns(3), 'a');
/// assert_eq!(q.len(), 3);
/// assert_eq!(q.peek_time(), Some(Time::from_ns(3)));
/// let drained: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(drained, vec!['a', 'b', 'c']);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// One FIFO bucket per instant of the window `[base, base + SPAN)`.
    /// Entries within a bucket share the instant, so insertion order *is*
    /// `(time, seq)` order.
    ring: Vec<VecDeque<E>>,
    /// Bitmap of non-empty buckets (one bit per bucket).
    occupied: Vec<u64>,
    /// Events at or beyond `base + SPAN`, ordered by their [`GtKey`]
    /// (wrapping-safe instant, then scheduling sequence).
    overflow: BinaryHeap<Reverse<Overflow<E>>>,
    /// Absolute time (ns) of `ring[0]`; wraps through `u64::MAX` on
    /// unbounded runs — all offsets from it use wrapping subtraction.
    base: u64,
    /// Index of the earliest non-empty bucket (valid while `ring_len > 0`).
    cursor: usize,
    /// Events currently in the ring.
    ring_len: usize,
    /// Cached earliest pending timestamp (`None` when empty).
    next_at: Option<Time>,
    seq: u64,
    now: Time,
    popped: u64,
}

#[derive(Debug)]
struct Overflow<E> {
    /// Instant (as a wrapping-ordered [`Gt`]) plus the scheduling
    /// sequence number as the raw tiebreak — the old `(at, seq)` tuple
    /// order, made wraparound-safe.
    key: GtKey,
    event: E,
}

impl<E> Overflow<E> {
    /// The absolute instant in nanoseconds.
    #[inline]
    fn at(&self) -> u64 {
        self.key.gt().as_raw()
    }
}

impl<E> PartialEq for Overflow<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<E> Eq for Overflow<E> {}
impl<E> PartialOrd for Overflow<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Overflow<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

// The calendar event pin: an overflow entry must stay two words of key
// plus the payload (see the `size-pins` CI check).
const _: () = assert!(
    std::mem::size_of::<Overflow<()>>() <= 16,
    "calendar overflow event grew past 2 words"
);

impl<E> EventQueue<E> {
    /// Creates an empty queue positioned at [`Time::ZERO`].
    pub fn new() -> Self {
        Self::starting_at(Time::ZERO)
    }

    /// Creates an empty queue whose clock starts at `start` — the way to
    /// begin a run near (or straddling) the `u64` boundary, since from a
    /// zero-origin queue such instants would lie in the past under the
    /// wrapping comparison rule.
    pub fn starting_at(start: Time) -> Self {
        EventQueue {
            ring: (0..SPAN).map(|_| VecDeque::new()).collect(),
            occupied: vec![0; SPAN / 64],
            overflow: BinaryHeap::new(),
            base: start.as_ns(),
            cursor: 0,
            ring_len: 0,
            next_at: None,
            seq: 0,
            now: start,
            popped: 0,
        }
    }

    /// Schedules `event` to fire at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current simulation time: an event
    /// handler may only schedule into the present or future.
    pub fn schedule(&mut self, at: Time, event: E) {
        assert!(
            ord(at) >= ord(self.now),
            "event scheduled in the past ({at:?} < now {:?})",
            self.now
        );
        let t = at.as_ns();
        // `base <= now <= at` in wrapping order, so this offset is the
        // true logical distance even when the window straddles u64::MAX.
        if self.ring_len == 0 && t.wrapping_sub(self.base) >= SPAN as u64 {
            // The window is exhausted and `at` falls outside it. Re-anchor
            // at `now`: every future schedule is >= now, so indices can
            // never underflow, and migration keeps the overflow invariant
            // (no overflow entry ever lies inside the live window).
            self.rebase(self.now.as_ns());
        }
        let offset = t.wrapping_sub(self.base);
        if offset < SPAN as u64 {
            let i = offset as usize;
            if self.ring_len == 0 || i < self.cursor {
                self.cursor = i;
            }
            self.ring[i].push_back(event);
            self.occupied[i / 64] |= 1 << (i % 64);
            self.ring_len += 1;
        } else {
            // `seq` orders overflow entries among themselves; ring
            // buckets are FIFO by construction and don't need it.
            self.seq += 1;
            self.overflow.push(Reverse(Overflow {
                key: GtKey::new(ord(at), self.seq),
                event,
            }));
        }
        if self.next_at.is_none_or(|n| ord(at) < ord(n)) {
            self.next_at = Some(at);
        }
    }

    /// Removes and returns the earliest event, advancing the simulation
    /// clock to its timestamp. Returns `None` when the calendar is empty.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        let at = self.next_at?;
        if self.ring_len == 0 {
            // Only overflow events remain; their minimum is `next_at`.
            self.rebase(at.as_ns());
        }
        debug_assert!(!self.ring[self.cursor].is_empty(), "cursor points at min");
        let bucket = &mut self.ring[self.cursor];
        let event = bucket.pop_front().expect("cursor valid");
        self.ring_len -= 1;
        debug_assert!(
            ord(at) >= ord(self.now)
                && at == Time::from_ns(self.base.wrapping_add(self.cursor as u64))
        );
        self.now = at;
        self.popped += 1;
        if bucket.is_empty() {
            // Bucket exhausted: retire its bit and find the next instant.
            self.occupied[self.cursor / 64] &= !(1 << (self.cursor % 64));
            self.settle();
        }
        // Otherwise the cursor bucket still holds the minimum and
        // `next_at` is already correct — the common case while draining a
        // burst of same-instant events (a token wave).
        Some((at, event))
    }

    /// The timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<Time> {
        self.next_at
    }

    /// The current simulation time (the timestamp of the last popped event).
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of events currently pending.
    pub fn len(&self) -> usize {
        self.ring_len + self.overflow.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events popped so far (a cheap progress metric).
    pub fn events_processed(&self) -> u64 {
        self.popped
    }

    /// Re-anchors the window at `new_base` and migrates every overflow
    /// event that now falls inside it, in `(time, seq)` order, so bucket
    /// FIFO order keeps matching scheduling order. Callers guarantee the
    /// ring is empty and `new_base` is at most the overflow minimum... or
    /// rather: `new_base <= overflow minimum` is *not* required — only
    /// that no pending or future event precedes `new_base`.
    fn rebase(&mut self, new_base: u64) {
        debug_assert_eq!(self.ring_len, 0, "rebase with live ring entries");
        self.base = new_base;
        self.cursor = 0;
        while let Some(Reverse(top)) = self.overflow.peek() {
            // Wrapping distance from the new anchor: entries past the
            // horizon stay in the heap (an in-window entry is always
            // within SPAN, far under the 2^63 wrapping window).
            if top.at().wrapping_sub(new_base) >= SPAN as u64 {
                break;
            }
            let Reverse(o) = self.overflow.pop().expect("peeked");
            let offset = o.at().wrapping_sub(new_base);
            debug_assert!(offset as i64 >= 0, "overflow event precedes the window");
            let i = offset as usize;
            if self.ring_len == 0 || i < self.cursor {
                self.cursor = i;
            }
            self.ring[i].push_back(o.event);
            self.occupied[i / 64] |= 1 << (i % 64);
            self.ring_len += 1;
        }
    }

    /// Re-establishes `cursor`/`next_at` after a pop.
    fn settle(&mut self) {
        if self.ring_len > 0 {
            let mut word = self.cursor / 64;
            // Mask off bits below the cursor within its word.
            let mut bits = self.occupied[word] & !((1u64 << (self.cursor % 64)) - 1);
            while bits == 0 {
                word += 1;
                debug_assert!(word < self.occupied.len(), "ring_len > 0 but bitmap empty");
                bits = self.occupied[word];
            }
            self.cursor = word * 64 + bits.trailing_zeros() as usize;
            self.next_at = Some(Time::from_ns(self.base.wrapping_add(self.cursor as u64)));
        } else {
            self.next_at = self.overflow.peek().map(|Reverse(o)| Time::from_ns(o.at()));
        }
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
    use crate::rng::SimRng;

    #[test]
    fn orders_by_time_then_fifo() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_ns(5), 1);
        q.schedule(Time::from_ns(2), 2);
        q.schedule(Time::from_ns(5), 3);
        q.schedule(Time::from_ns(2), 4);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![2, 4, 1, 3]);
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_ns(7), ());
        q.schedule(Time::from_ns(7), ());
        q.schedule(Time::from_ns(9), ());
        let mut last = Time::ZERO;
        while let Some((t, ())) = q.pop() {
            assert!(t >= last);
            last = t;
        }
        assert_eq!(q.now(), Time::from_ns(9));
        assert_eq!(q.events_processed(), 3);
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_ns(10), ());
        q.pop();
        q.schedule(Time::from_ns(3), ());
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule(Time::from_ns(4), 'x');
        assert_eq!(q.peek_time(), Some(Time::from_ns(4)));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((Time::from_ns(4), 'x')));
        assert!(q.is_empty());
    }

    #[test]
    fn handlers_may_schedule_at_now() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_ns(5), 1);
        let (t, _) = q.pop().unwrap();
        q.schedule(t, 2); // zero-latency follow-up event is allowed
        assert_eq!(q.pop(), Some((t, 2)));
    }

    #[test]
    fn far_future_events_cross_the_window() {
        let mut q = EventQueue::new();
        // Far beyond SPAN: exercises the overflow heap and rebase.
        q.schedule(Time::from_ns(1_000_000), 'z');
        q.schedule(Time::from_ns(3), 'a');
        assert_eq!(q.peek_time(), Some(Time::from_ns(3)));
        assert_eq!(q.pop(), Some((Time::from_ns(3), 'a')));
        assert_eq!(q.peek_time(), Some(Time::from_ns(1_000_000)));
        // A near event scheduled after the window emptied still comes first.
        q.schedule(Time::from_ns(40), 'b');
        assert_eq!(q.pop(), Some((Time::from_ns(40), 'b')));
        assert_eq!(q.pop(), Some((Time::from_ns(1_000_000), 'z')));
        assert!(q.pop().is_none());
    }

    #[test]
    fn fifo_is_preserved_across_the_overflow_boundary() {
        let mut q = EventQueue::new();
        let t = Time::from_ns(SPAN as u64 + 100);
        q.schedule(t, 1); // goes to overflow
        q.schedule(Time::from_ns(10), 0);
        assert_eq!(q.pop(), Some((Time::from_ns(10), 0)));
        // After the window advances past the overflow entry's instant, a
        // newly scheduled event at the same instant must still come second.
        q.schedule(t, 2);
        assert_eq!(q.pop(), Some((t, 1)));
        assert_eq!(q.pop(), Some((t, 2)));
    }

    /// A reference model: the binary-heap calendar this queue replaced.
    /// `(time, seq)`-ordered pops — via the wrapping [`GtKey`] rank — are
    /// the specification.
    struct Reference<E> {
        heap: BinaryHeap<Reverse<Overflow<E>>>,
        seq: u64,
    }

    impl<E> Reference<E> {
        fn new() -> Self {
            Reference {
                heap: BinaryHeap::new(),
                seq: 0,
            }
        }
        fn schedule(&mut self, at: Time, event: E) {
            self.heap.push(Reverse(Overflow {
                key: GtKey::new(ord(at), self.seq),
                event,
            }));
            self.seq += 1;
        }
        fn pop(&mut self) -> Option<(Time, E)> {
            self.heap
                .pop()
                .map(|Reverse(o)| (Time::from_ns(o.at()), o.event))
        }
    }

    /// Model-based property test (seeded `SimRng` loops, repo convention):
    /// random interleavings of schedules and pops — with deltas spanning
    /// same-instant ties, in-window offsets and far-overflow jumps — must
    /// drain in exactly the reference heap's `(time, seq)` order.
    #[test]
    fn matches_reference_heap_on_random_schedules() {
        for case in 0..40u64 {
            let mut rng = SimRng::from_seed_and_stream(case, 0xCA1);
            let mut q = EventQueue::new();
            let mut r = Reference::new();
            let mut now = 0u64;
            let mut id = 0u32;
            for _ in 0..400 {
                let burst = 1 + rng.gen_range(0..4);
                for _ in 0..burst {
                    let delta = match rng.gen_range(0..10) {
                        0 => 0, // same-instant tie
                        1..=6 => rng.gen_range(0..200),
                        7 | 8 => rng.gen_range(0..2 * SPAN as u64),
                        _ => rng.gen_range(0..50_000),
                    };
                    let at = Time::from_ns(now + delta);
                    q.schedule(at, id);
                    r.schedule(at, id);
                    id += 1;
                }
                for _ in 0..rng.gen_range(0..4) {
                    let got = q.pop();
                    let want = r.pop();
                    assert_eq!(got, want, "case {case}: pop diverged from reference");
                    if let Some((t, _)) = got {
                        now = t.as_ns();
                        assert_eq!(q.now(), t);
                    }
                }
                assert_eq!(q.len(), r.heap.len(), "case {case}: length diverged");
                assert_eq!(
                    q.peek_time(),
                    r.heap.peek().map(|Reverse(o)| Time::from_ns(o.at()))
                );
            }
            // Drain completely; the tail must agree too.
            loop {
                let (got, want) = (q.pop(), r.pop());
                assert_eq!(got, want, "case {case}: drain diverged");
                if got.is_none() {
                    break;
                }
            }
            assert!(q.is_empty());
        }
    }

    /// The reference-model property again, with the whole run straddling
    /// the `u64` boundary: a queue anchored just below `u64::MAX` must
    /// schedule, migrate and pop through the wraparound exactly like the
    /// wrapping-keyed reference heap (seeded loops, repo convention).
    #[test]
    fn matches_reference_heap_across_the_u64_boundary() {
        for case in 0..20u64 {
            let start = Time::from_ns(u64::MAX - 1 - (case * 977) % 5_000);
            let mut rng = SimRng::from_seed_and_stream(case, 0x0E4A);
            let mut q = EventQueue::starting_at(start);
            let mut r = Reference::new();
            let mut now = start.as_ns();
            let mut id = 0u32;
            for _ in 0..300 {
                for _ in 0..1 + rng.gen_range(0..3) {
                    let delta = match rng.gen_range(0..8) {
                        0 => 0, // same-instant tie
                        1..=5 => rng.gen_range(0..200),
                        _ => rng.gen_range(0..3 * SPAN as u64),
                    };
                    let at = Time::from_ns(now.wrapping_add(delta));
                    q.schedule(at, id);
                    r.schedule(at, id);
                    id += 1;
                }
                for _ in 0..rng.gen_range(0..3) {
                    let got = q.pop();
                    assert_eq!(got, r.pop(), "case {case}: pop diverged at wrap");
                    if let Some((t, _)) = got {
                        now = t.as_ns();
                    }
                }
            }
            loop {
                let (got, want) = (q.pop(), r.pop());
                assert_eq!(got, want, "case {case}: drain diverged at wrap");
                if got.is_none() {
                    break;
                }
            }
        }
    }

    /// FIFO-within-instant holds while the window crosses `u64::MAX`:
    /// same-instant events on both sides of the boundary pop in
    /// scheduling order, and the clock keeps advancing in wrapping order.
    #[test]
    fn fifo_within_instant_straddles_wraparound() {
        let start = Time::from_ns(u64::MAX - 5);
        let mut q = EventQueue::starting_at(start);
        let after = Time::from_ns(3); // 9 ns later, across the boundary
        q.schedule(after, 'c');
        q.schedule(start, 'a');
        q.schedule(after, 'd');
        q.schedule(start, 'b');
        assert_eq!(q.peek_time(), Some(start));
        assert_eq!(q.pop(), Some((start, 'a')));
        assert_eq!(q.pop(), Some((start, 'b')));
        assert_eq!(q.pop(), Some((after, 'c')));
        assert_eq!(q.pop(), Some((after, 'd')));
        assert_eq!(q.now(), after);
        assert!(q.pop().is_none());
    }

    /// FIFO-within-instant, checked directly: many events on few instants,
    /// popped ids must be ascending within each instant.
    #[test]
    fn fifo_within_instant_on_random_bursts() {
        for case in 0..20u64 {
            let mut rng = SimRng::from_seed_and_stream(case, 0xF1F0);
            let mut q = EventQueue::new();
            for id in 0..300u32 {
                // Few distinct instants, some beyond the window.
                let at = 10 * rng.gen_range(0..8) + SPAN as u64 * rng.gen_range(0..2);
                q.schedule(Time::from_ns(at), id);
            }
            let mut last_per_instant: std::collections::HashMap<u64, u32> =
                std::collections::HashMap::new();
            let mut last_t = 0;
            while let Some((t, id)) = q.pop() {
                assert!(t.as_ns() >= last_t, "case {case}: time went backwards");
                last_t = t.as_ns();
                if let Some(&prev) = last_per_instant.get(&t.as_ns()) {
                    assert!(prev < id, "case {case}: FIFO broken at {t:?}");
                }
                last_per_instant.insert(t.as_ns(), id);
            }
        }
    }
}
