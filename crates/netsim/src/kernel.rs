//! Discrete-event simulation kernel.
//!
//! The kernel is a timestamp-ordered event queue plus a virtual clock. It
//! is generic over a [`World`]: the world owns all model state (hosts,
//! links, NICs, protocol endpoints) and interprets events. Ties in
//! timestamps are broken by insertion sequence number, which makes every
//! run fully deterministic for a given seed and input.
//!
//! # Queue structure
//!
//! The queue is a two-tier calendar queue (see [`CalendarQueue`]): a
//! timing wheel of `NBUCKETS` ring slots covers the near future at
//! `2^BUCKET_SHIFT` ns per bucket, and a binary heap holds the far-future
//! overflow, promoted lazily as the wheel advances. Pushes into the wheel
//! are O(1) appends; a bucket is sorted once when the clock enters it, so
//! same-instant bursts drain as one contiguous sorted run instead of
//! paying a heap sift per event, and pushes landing *on* the instant
//! currently draining ride an O(1) FIFO batch lane (completion storms
//! never pay a sorted insert). Pop order is *exactly* `(time, seq)` —
//! identical to the reference binary heap retained in [`reference`](mod@reference) —
//! which the differential tests assert.

use crate::time::{SimDur, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A model driven by the simulation kernel.
pub trait World: Sized {
    /// The event alphabet of this world.
    type Event;

    /// Handle one event at its scheduled time. New events are scheduled
    /// through `sched`; the current time is `sched.now()`.
    fn handle(&mut self, ev: Self::Event, sched: &mut Scheduler<Self::Event>);
}

/// Ring slots in the timing wheel (power of two).
const NBUCKETS: usize = 1024;
const BUCKET_MASK: u64 = NBUCKETS as u64 - 1;
/// Nanoseconds per bucket as a shift: 2^16 ns ≈ 65.5 µs, so the wheel
/// spans ~67 ms — enough to keep WAN-RTT-scale events out of the
/// overflow heap while same-µs bursts still share a bucket.
const BUCKET_SHIFT: u32 = 16;

/// A queued event's sort key plus its arena slot.
#[derive(Clone, Copy)]
struct EntryRef {
    at: SimTime,
    seq: u64,
    idx: u32,
}

impl EntryRef {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

/// Two-tier calendar queue / timing wheel with exact `(time, seq)` pop
/// order.
///
/// Near-future events (within `NBUCKETS` buckets of the page being
/// drained) land in ring buckets as unsorted O(1) appends; each bucket is
/// sorted by `(time, seq)` once, when the queue advances into it, and
/// then drained front to back so ties pop in insertion order. Far-future
/// events go to an overflow min-heap and are promoted lazily whenever the
/// wheel window slides. Event payloads live in a slot arena (freelist
/// reuse), so a push allocates nothing in steady state.
///
/// Contract: `push` timestamps must be `>=` the timestamp of the last
/// popped entry (the scheduler's no-past-scheduling rule). Pushing into
/// the page currently being drained is fine — a push onto the instant at
/// the head of the drain goes to an O(1) FIFO batch lane (the
/// same-timestamp burst case), anything else is inserted at its sorted
/// position in the undrained tail.
pub struct CalendarQueue<E> {
    /// Ring buckets; bucket `b` holds entries of exactly one page
    /// (`at >> BUCKET_SHIFT`) in the current window at a time.
    buckets: Vec<Vec<EntryRef>>,
    /// One bit per bucket: bucket non-empty (undrained entries remain).
    occupied: [u64; NBUCKETS / 64],
    /// Page the queue is currently draining; the wheel window is
    /// `[base_page, base_page + NBUCKETS)`.
    base_page: u64,
    /// Consumed prefix of the bucket at `base_page` (sorted drain run).
    drain_pos: usize,
    /// Batch lane for the head page: pushes landing exactly on the
    /// instant currently at the head of the drain. Sequence numbers only
    /// grow, so FIFO order here IS `(at, seq)` order, and a same-instant
    /// completion storm costs O(1) per event instead of a sorted insert
    /// that shifts every later entry in the bucket. Entries here always
    /// belong to `base_page` and sort after the bucket's own equal-time
    /// run (their seqs are newer); `pop` merges the two lanes by key.
    batch: std::collections::VecDeque<EntryRef>,
    /// The instant `batch` holds (meaningful while `batch` is non-empty).
    batch_at: SimTime,
    /// Entries in wheel buckets (excluding the drained prefix).
    wheel_len: usize,
    /// Far-future overflow, min-ordered by `(at, seq)`.
    overflow: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    /// Event payload arena + freelist: buckets and overflow store `u32`
    /// slot indices, not payloads.
    slots: Vec<Option<E>>,
    free: Vec<u32>,
    len: usize,
}

impl<E> Default for CalendarQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> CalendarQueue<E> {
    pub fn new() -> Self {
        CalendarQueue {
            buckets: (0..NBUCKETS).map(|_| Vec::new()).collect(),
            occupied: [0; NBUCKETS / 64],
            base_page: 0,
            drain_pos: 0,
            batch: std::collections::VecDeque::new(),
            batch_at: SimTime::ZERO,
            wheel_len: 0,
            overflow: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            len: 0,
        }
    }

    /// Pending entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn alloc(&mut self, ev: E) -> u32 {
        if let Some(idx) = self.free.pop() {
            self.slots[idx as usize] = Some(ev);
            idx
        } else {
            self.slots.push(Some(ev));
            (self.slots.len() - 1) as u32
        }
    }

    #[inline]
    fn mark(&mut self, b: usize) {
        self.occupied[b / 64] |= 1 << (b % 64);
    }

    #[inline]
    fn unmark(&mut self, b: usize) {
        self.occupied[b / 64] &= !(1 << (b % 64));
    }

    /// Enqueue. `seq` must be strictly increasing across pushes and `at`
    /// must not precede the last popped timestamp.
    pub fn push(&mut self, at: SimTime, seq: u64, ev: E) {
        let idx = self.alloc(ev);
        let page = at.0 >> BUCKET_SHIFT;
        debug_assert!(
            page >= self.base_page,
            "push into an already-drained page: {page} < {}",
            self.base_page
        );
        if page >= self.base_page + NBUCKETS as u64 {
            self.overflow.push(Reverse((at, seq, idx)));
        } else {
            let b = (page & BUCKET_MASK) as usize;
            let entry = EntryRef { at, seq, idx };
            if page == self.base_page {
                // Head page. A push onto the instant at the head of the
                // drain — the same-timestamp burst pattern — takes the
                // O(1) batch lane (seq order there is FIFO order). Any
                // other timestamp binary-searches the undrained tail,
                // which stays sorted; a fresh (at, seq) is >= everything
                // already consumed.
                if !self.batch.is_empty() && at == self.batch_at {
                    self.batch.push_back(entry);
                } else if self.batch.is_empty()
                    && self.buckets[b]
                        .get(self.drain_pos)
                        .is_some_and(|e| e.at == at)
                {
                    self.batch_at = at;
                    self.batch.push_back(entry);
                } else {
                    let tail = &self.buckets[b][self.drain_pos..];
                    let pos = self.drain_pos + tail.partition_point(|e| e.key() < entry.key());
                    self.buckets[b].insert(pos, entry);
                }
            } else {
                self.buckets[b].push(entry);
            }
            self.mark(b);
            self.wheel_len += 1;
        }
        self.len += 1;
    }

    /// First occupied bucket at or after `base_page` within the window,
    /// as a page number. Caller guarantees `wheel_len > 0`.
    fn next_occupied_page(&self) -> u64 {
        let start = (self.base_page & BUCKET_MASK) as usize;
        // Scan NBUCKETS bits beginning at `start`, wrapping; word-at-a-
        // time with the first word masked below `start`.
        let words = self.occupied.len();
        let mut w = start / 64;
        let mut bits = self.occupied[w] & (!0u64 << (start % 64));
        for step in 0..=words {
            if bits != 0 {
                let b = w * 64 + bits.trailing_zeros() as usize;
                // Convert bucket index back to a page in the window.
                let delta = (b as u64).wrapping_sub(self.base_page & BUCKET_MASK) & BUCKET_MASK;
                return self.base_page + delta;
            }
            debug_assert!(step < words, "wheel_len > 0 but no occupied bucket");
            w = (w + 1) % words;
            bits = self.occupied[w];
            if w == start / 64 {
                // Wrapped to the first word: only bits below `start` left.
                bits &= !(!0u64 << (start % 64));
            }
        }
        unreachable!("occupancy scan exhausted");
    }

    /// Position the queue at its head: advance `base_page` (promoting
    /// overflow pages that slide into the window) and sort the head
    /// bucket if it is newly entered. No-op if already positioned.
    fn settle(&mut self) -> bool {
        if self.len == 0 {
            return false;
        }
        loop {
            let b = (self.base_page & BUCKET_MASK) as usize;
            if self.drain_pos < self.buckets[b].len() || !self.batch.is_empty() {
                return true;
            }
            // Head bucket exhausted (batch included): recycle, advance.
            if self.drain_pos > 0 {
                self.buckets[b].clear();
                self.drain_pos = 0;
                self.unmark(b);
            }
            let new_base = if self.wheel_len > 0 {
                self.next_occupied_page()
            } else {
                // Wheel empty: jump the window to the earliest overflow
                // page. `len > 0` guarantees the overflow is non-empty.
                let Reverse((at, _, _)) = *self.overflow.peek().expect("len>0, wheel empty");
                at.0 >> BUCKET_SHIFT
            };
            debug_assert!(new_base >= self.base_page);
            self.base_page = new_base;
            // Lazy promotion: pull overflow entries whose pages now fall
            // inside the window.
            let limit = self.base_page + NBUCKETS as u64;
            while let Some(&Reverse((at, _, _))) = self.overflow.peek() {
                if at.0 >> BUCKET_SHIFT >= limit {
                    break;
                }
                let Reverse((at, seq, idx)) = self.overflow.pop().expect("peeked");
                let ob = ((at.0 >> BUCKET_SHIFT) & BUCKET_MASK) as usize;
                self.buckets[ob].push(EntryRef { at, seq, idx });
                self.mark(ob);
                self.wheel_len += 1;
            }
            // Entering the head bucket: one sort puts the whole page —
            // including any same-instant burst — into final drain order.
            let b = (self.base_page & BUCKET_MASK) as usize;
            if !self.buckets[b].is_empty() {
                self.buckets[b].sort_unstable_by_key(EntryRef::key);
                return true;
            }
        }
    }

    /// True if the next pop comes from the batch lane rather than the
    /// bucket's sorted run. Call only after a successful `settle`.
    #[inline]
    fn head_in_batch(&self, b: usize) -> bool {
        match (self.buckets[b].get(self.drain_pos), self.batch.front()) {
            (Some(e), Some(f)) => f.key() < e.key(),
            (None, Some(_)) => true,
            _ => false,
        }
    }

    /// Timestamp of the head entry. `&mut` because positioning at the
    /// head may slide the window and sort a bucket (order is unaffected).
    pub fn peek_at(&mut self) -> Option<SimTime> {
        if !self.settle() {
            return None;
        }
        let b = (self.base_page & BUCKET_MASK) as usize;
        if self.head_in_batch(b) {
            Some(self.batch.front().expect("settled").at)
        } else {
            Some(self.buckets[b][self.drain_pos].at)
        }
    }

    /// Remove and return the earliest entry, `(time, seq)`-ordered.
    pub fn pop(&mut self) -> Option<(SimTime, u64, E)> {
        if !self.settle() {
            return None;
        }
        let b = (self.base_page & BUCKET_MASK) as usize;
        let entry = if self.head_in_batch(b) {
            self.batch.pop_front().expect("settled")
        } else {
            let e = self.buckets[b][self.drain_pos];
            self.drain_pos += 1;
            e
        };
        self.wheel_len -= 1;
        self.len -= 1;
        if self.drain_pos == self.buckets[b].len() {
            // Dead prefix fully consumed; the bucket stays marked while
            // the batch lane still holds entries for this page.
            self.buckets[b].clear();
            self.drain_pos = 0;
            if self.batch.is_empty() {
                self.unmark(b);
            }
        }
        let ev = self.slots[entry.idx as usize].take().expect("live slot");
        self.free.push(entry.idx);
        Some((entry.at, entry.seq, ev))
    }
}

/// The event queue handed to [`World::handle`]; schedules future events.
pub struct Scheduler<E> {
    now: SimTime,
    seq: u64,
    queue: CalendarQueue<E>,
}

impl<E> Scheduler<E> {
    fn new() -> Self {
        Scheduler {
            now: SimTime::ZERO,
            seq: 0,
            queue: CalendarQueue::new(),
        }
    }

    /// Current simulation time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `ev` to fire `delay` from now.
    #[inline]
    pub fn after(&mut self, delay: SimDur, ev: E) {
        self.at(self.now + delay, ev);
    }

    /// Schedule `ev` at an absolute time. Scheduling in the past is a model
    /// bug; it is clamped to `now` in release builds and panics in debug.
    #[inline]
    pub fn at(&mut self, at: SimTime, ev: E) {
        debug_assert!(
            at >= self.now,
            "event scheduled in the past: {at} < {}",
            self.now
        );
        let at = at.max(self.now);
        self.queue.push(at, self.seq, ev);
        self.seq += 1;
    }

    /// Schedule `ev` to fire immediately (after already-queued events at
    /// the current instant).
    #[inline]
    pub fn now_ev(&mut self, ev: E) {
        self.at(self.now, ev);
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }
}

/// Outcome of [`Sim::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The event queue drained: nothing left to simulate.
    Drained,
    /// The configured horizon was reached with events still pending.
    Horizon,
    /// The world signalled completion via [`Sim::run_until`]'s predicate.
    Predicate,
    /// The event budget was exhausted (runaway-model guard).
    EventBudget,
}

/// How often [`Sim::run_until`] polls its `done` predicate within a
/// same-instant event batch. See [`Sim::check_every`].
pub const DEFAULT_CHECK_EVERY: u32 = 64;

/// The simulator: a world plus its event queue and clock.
pub struct Sim<W: World> {
    world: W,
    sched: Scheduler<W::Event>,
    processed: u64,
    /// Hard cap on processed events; guards against accidental infinite
    /// event loops in model code. Generous default: 2^33 events.
    pub event_budget: u64,
    /// Stop-predicate polling interval for [`Sim::run_until`], in events.
    ///
    /// The predicate is always re-checked exactly when the clock is about
    /// to advance to a later instant (so, for predicates that flip at a
    /// distinct timestamp — every transfer-completion predicate in this
    /// workspace — the stop point is identical to per-event checking).
    /// Within a burst of same-instant events it is additionally polled
    /// every `check_every` events so runaway same-instant loops are still
    /// caught promptly. Set to 1 for strict per-event checking.
    pub check_every: u32,
}

impl<W: World> Sim<W> {
    pub fn new(world: W) -> Self {
        Sim {
            world,
            sched: Scheduler::new(),
            processed: 0,
            event_budget: 1 << 33,
            check_every: DEFAULT_CHECK_EVERY,
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.sched.now
    }

    /// Total events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Immutable access to the world (for inspecting results).
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Mutable access to the world (for wiring up experiments).
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// Consume the simulator and return the world.
    pub fn into_world(self) -> W {
        self.world
    }

    /// Schedule an initial event before running.
    pub fn prime(&mut self, delay: SimDur, ev: W::Event) {
        self.sched.after(delay, ev);
    }

    /// Run until the queue drains or `horizon` is reached.
    ///
    /// Horizon semantics are **inclusive**: an event scheduled exactly
    /// *at* the horizon fires; the run stops before the first event
    /// strictly later than the horizon, with the clock clamped to the
    /// horizon so callers measuring elapsed time see the full window.
    pub fn run(&mut self, horizon: SimTime) -> RunOutcome {
        self.run_until(horizon, |_| false)
    }

    /// Run until the queue drains, `horizon` passes, or `done(&world)`
    /// returns true.
    ///
    /// The predicate is evaluated at every instant boundary (before the
    /// clock advances past events just processed) and every
    /// [`Sim::check_every`] events within a same-instant batch — not
    /// after every single event. A predicate observed true takes
    /// precedence over [`RunOutcome::Drained`] / [`RunOutcome::Horizon`];
    /// the event budget takes precedence over everything.
    pub fn run_until(&mut self, horizon: SimTime, mut done: impl FnMut(&W) -> bool) -> RunOutcome {
        let check_every = self.check_every.max(1);
        // Events handled since `done` was last consulted; the predicate
        // can only have flipped if this is non-zero.
        let mut since_check: u32 = 0;
        loop {
            let Some(head_at) = self.sched.queue.peek_at() else {
                if since_check > 0 && done(&self.world) {
                    return RunOutcome::Predicate;
                }
                return RunOutcome::Drained;
            };
            if since_check > 0 && (head_at > self.sched.now || head_at > horizon) {
                // Instant boundary (or imminent horizon stop): re-check
                // exactly before letting the clock move on.
                if done(&self.world) {
                    return RunOutcome::Predicate;
                }
                since_check = 0;
            }
            if head_at > horizon {
                // Leave the event queued; advance the clock to the horizon so
                // callers measuring elapsed time see the full window. Events
                // at exactly `horizon` have already fired by this point.
                self.sched.now = horizon;
                return RunOutcome::Horizon;
            }
            let (at, _seq, ev) = self.sched.queue.pop().expect("peeked entry vanished");
            self.sched.now = at;
            self.world.handle(ev, &mut self.sched);
            self.processed += 1;
            if self.processed >= self.event_budget {
                return RunOutcome::EventBudget;
            }
            since_check += 1;
            if since_check >= check_every {
                if done(&self.world) {
                    return RunOutcome::Predicate;
                }
                since_check = 0;
            }
        }
    }
}

/// Reference binary-heap scheduler, retained as the ordering oracle for
/// the calendar queue's differential tests and as the baseline in the
/// kernel microbenchmarks. Not used by the simulator itself.
pub mod reference {
    use crate::time::SimTime;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// The pre-calendar event queue: one binary heap ordered by
    /// `(time, seq)`.
    pub struct HeapQueue<E> {
        heap: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
        slots: Vec<Option<E>>,
        free: Vec<u32>,
    }

    impl<E> Default for HeapQueue<E> {
        fn default() -> Self {
            Self::new()
        }
    }

    impl<E> HeapQueue<E> {
        pub fn new() -> Self {
            HeapQueue {
                heap: BinaryHeap::new(),
                slots: Vec::new(),
                free: Vec::new(),
            }
        }

        pub fn len(&self) -> usize {
            self.heap.len()
        }

        pub fn is_empty(&self) -> bool {
            self.heap.is_empty()
        }

        pub fn push(&mut self, at: SimTime, seq: u64, ev: E) {
            let idx = if let Some(idx) = self.free.pop() {
                self.slots[idx as usize] = Some(ev);
                idx
            } else {
                self.slots.push(Some(ev));
                (self.slots.len() - 1) as u32
            };
            self.heap.push(Reverse((at, seq, idx)));
        }

        pub fn peek_at(&self) -> Option<SimTime> {
            self.heap.peek().map(|Reverse((at, _, _))| *at)
        }

        pub fn pop(&mut self) -> Option<(SimTime, u64, E)> {
            let Reverse((at, seq, idx)) = self.heap.pop()?;
            let ev = self.slots[idx as usize].take().expect("live slot");
            self.free.push(idx);
            Some((at, seq, ev))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Toy world: events are integers; each event `n > 0` schedules `n - 1`
    /// one microsecond later and records its firing time.
    struct Countdown {
        fired: Vec<(SimTime, u32)>,
    }

    impl World for Countdown {
        type Event = u32;
        fn handle(&mut self, ev: u32, sched: &mut Scheduler<u32>) {
            self.fired.push((sched.now(), ev));
            if ev > 0 {
                sched.after(SimDur::from_micros(1), ev - 1);
            }
        }
    }

    #[test]
    fn runs_in_time_order_and_drains() {
        let mut sim = Sim::new(Countdown { fired: vec![] });
        sim.prime(SimDur::from_micros(5), 3);
        let out = sim.run(SimTime(u64::MAX / 2));
        assert_eq!(out, RunOutcome::Drained);
        let w = sim.world();
        assert_eq!(
            w.fired,
            vec![
                (SimTime(5_000), 3),
                (SimTime(6_000), 2),
                (SimTime(7_000), 1),
                (SimTime(8_000), 0),
            ]
        );
    }

    #[test]
    fn horizon_stops_early() {
        let mut sim = Sim::new(Countdown { fired: vec![] });
        sim.prime(SimDur::from_micros(1), 100);
        let out = sim.run(SimTime(3_500));
        assert_eq!(out, RunOutcome::Horizon);
        assert_eq!(sim.world().fired.len(), 3); // events at 1us, 2us, 3us
        assert_eq!(sim.now(), SimTime(3_500));
    }

    /// The horizon is inclusive: an event scheduled exactly at the
    /// horizon fires before the run reports `Horizon`.
    #[test]
    fn event_exactly_at_horizon_fires() {
        let mut sim = Sim::new(Countdown { fired: vec![] });
        sim.prime(SimDur::from_micros(1), 100);
        // Countdown fires at 1us, 2us, 3us, ...; stop exactly on an event.
        let out = sim.run(SimTime(3_000));
        assert_eq!(out, RunOutcome::Horizon);
        assert_eq!(
            sim.world().fired,
            vec![
                (SimTime(1_000), 100),
                (SimTime(2_000), 99),
                (SimTime(3_000), 98), // at the horizon: fires
            ]
        );
        assert_eq!(sim.now(), SimTime(3_000));
    }

    /// A run whose last pending event is exactly at the horizon drains.
    #[test]
    fn horizon_on_final_event_drains() {
        let mut sim = Sim::new(Countdown { fired: vec![] });
        sim.prime(SimDur::from_micros(5), 0); // single event at 5us
        assert_eq!(sim.run(SimTime(5_000)), RunOutcome::Drained);
        assert_eq!(sim.world().fired, vec![(SimTime(5_000), 0)]);
    }

    #[test]
    fn predicate_stops() {
        let mut sim = Sim::new(Countdown { fired: vec![] });
        sim.prime(SimDur::ZERO, 100);
        let out = sim.run_until(SimTime(u64::MAX / 2), |w| w.fired.len() == 4);
        assert_eq!(out, RunOutcome::Predicate);
        assert_eq!(sim.world().fired.len(), 4);
    }

    /// With the default `check_every`, a monotone predicate still stops
    /// the run at the exact instant boundary where it flipped, because
    /// the kernel re-checks before advancing the clock.
    #[test]
    fn predicate_exact_at_instant_boundary_with_coarse_polling() {
        let mut sim = Sim::new(Countdown { fired: vec![] });
        assert_eq!(sim.check_every, DEFAULT_CHECK_EVERY);
        sim.prime(SimDur::ZERO, 1000);
        let out = sim.run_until(SimTime(u64::MAX / 2), |w| w.fired.len() >= 7);
        assert_eq!(out, RunOutcome::Predicate);
        // Events are 1 µs apart (distinct instants), so no overshoot.
        assert_eq!(sim.world().fired.len(), 7);
        assert_eq!(sim.now(), SimTime(6_000));
    }

    /// Within a same-instant burst the predicate is polled every
    /// `check_every` events (bounded overshoot), not after each one.
    #[test]
    fn same_instant_burst_polls_at_interval() {
        struct SelfSched {
            fired: u32,
        }
        impl World for SelfSched {
            type Event = ();
            fn handle(&mut self, _ev: (), sched: &mut Scheduler<()>) {
                self.fired += 1;
                sched.now_ev(()); // endless same-instant chain
            }
        }
        let mut sim = Sim::new(SelfSched { fired: 0 });
        sim.check_every = 16;
        sim.prime(SimDur::ZERO, ());
        let out = sim.run_until(SimTime(u64::MAX / 2), |w| w.fired >= 20);
        assert_eq!(out, RunOutcome::Predicate);
        // Flips at 20, caught at the next 16-multiple poll.
        assert_eq!(sim.world().fired, 32);
    }

    /// Ties at the same instant must fire in scheduling order.
    struct Recorder {
        order: Vec<u32>,
    }
    impl World for Recorder {
        type Event = u32;
        fn handle(&mut self, ev: u32, _s: &mut Scheduler<u32>) {
            self.order.push(ev);
        }
    }

    #[test]
    fn fifo_among_ties() {
        let mut sim = Sim::new(Recorder { order: vec![] });
        for i in 0..100 {
            sim.prime(SimDur::from_micros(7), i);
        }
        sim.run(SimTime(u64::MAX / 2));
        assert_eq!(sim.world().order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn event_budget_guards_runaway() {
        /// Schedules itself forever at the same instant.
        struct Runaway;
        impl World for Runaway {
            type Event = ();
            fn handle(&mut self, _ev: (), sched: &mut Scheduler<()>) {
                sched.now_ev(());
            }
        }
        let mut sim = Sim::new(Runaway);
        sim.event_budget = 1000;
        sim.prime(SimDur::ZERO, ());
        assert_eq!(sim.run(SimTime(u64::MAX / 2)), RunOutcome::EventBudget);
        assert_eq!(sim.events_processed(), 1000);
    }

    /// Pushes spanning the wheel window, the overflow heap, and the
    /// currently-draining bucket all pop in exact `(time, seq)` order.
    #[test]
    fn calendar_queue_cross_tier_ordering() {
        let mut q = CalendarQueue::new();
        let bucket = 1u64 << BUCKET_SHIFT;
        let window = bucket * NBUCKETS as u64;
        let times = [
            0,
            1,
            bucket - 1,      // same first bucket
            bucket,          // second bucket
            window - 1,      // last in-window bucket
            window,          // overflow
            window + bucket, // overflow
            3 * window,      // deep overflow
            3 * window,      // tie broken by seq
        ];
        for (seq, t) in times.iter().enumerate() {
            q.push(SimTime(*t), seq as u64, seq);
        }
        let mut expect: Vec<(SimTime, u64)> = times
            .iter()
            .enumerate()
            .map(|(s, t)| (SimTime(*t), s as u64))
            .collect();
        expect.sort();
        let mut got = Vec::new();
        while let Some((at, seq, _ev)) = q.pop() {
            got.push((at, seq));
        }
        assert_eq!(got, expect);
    }

    /// Pushing into the bucket currently being drained lands the entry at
    /// its sorted position in the undrained tail.
    #[test]
    fn push_into_draining_bucket_keeps_order() {
        let mut q = CalendarQueue::new();
        q.push(SimTime(10), 0, 'a');
        q.push(SimTime(30), 1, 'c');
        assert_eq!(q.pop().map(|(_, _, e)| e), Some('a'));
        // Mid-drain push between the consumed head and the pending tail.
        q.push(SimTime(20), 2, 'b');
        q.push(SimTime(10), 3, 'z'); // tie with drained time: fires next
        assert_eq!(q.pop().map(|(_, _, e)| e), Some('z'));
        assert_eq!(q.pop().map(|(_, _, e)| e), Some('b'));
        assert_eq!(q.pop().map(|(_, _, e)| e), Some('c'));
        assert!(q.pop().is_none());
    }

    /// The arena recycles slots: heavy push/pop cycling doesn't grow the
    /// slot table past the peak population.
    #[test]
    fn arena_reuses_slots() {
        let mut q = CalendarQueue::new();
        for round in 0..100u64 {
            for i in 0..8u64 {
                q.push(SimTime(round * 1000 + i), round * 8 + i, i);
            }
            for _ in 0..8 {
                q.pop().unwrap();
            }
        }
        assert!(q.slots.len() <= 8, "slot table grew: {}", q.slots.len());
    }
}
