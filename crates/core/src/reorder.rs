//! Out-of-order block reassembly.
//!
//! With multiple parallel data queue pairs, blocks of one session arrive
//! out of order at the sink. The protocol reassembles them by sequence
//! number and delivers an in-order stream to the application (§IV.C:
//! "the sink is able to reassemble out-of-order blocks and deliver an
//! in-order sequence of blocks to upper applications according to the
//! session identifier and sequence number").

use std::collections::BTreeMap;

/// Reassembles a dense sequence `0, 1, 2, …` delivered out of order.
///
/// ```
/// use rftp_core::ReorderBuffer;
/// let mut r = ReorderBuffer::new();
/// assert!(r.push(1, "b").is_empty());        // ahead of sequence: held
/// let out = r.push(0, "a");                  // gap filled
/// assert_eq!(out, vec![(0, "a"), (1, "b")]); // delivered in order
/// assert!(r.is_drained());
/// ```
#[derive(Debug)]
pub struct ReorderBuffer<T> {
    next: u32,
    held: BTreeMap<u32, T>,
    /// High-water mark of blocks parked out of order.
    pub max_held: usize,
    /// Total blocks that arrived out of order (ahead of `next`).
    pub ooo_arrivals: u64,
}

impl<T> Default for ReorderBuffer<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> ReorderBuffer<T> {
    pub fn new() -> ReorderBuffer<T> {
        ReorderBuffer::starting_at(0)
    }

    /// A buffer whose first expected sequence is `next` (a resumed
    /// session continues from the old buffer's high-water mark).
    pub fn starting_at(next: u32) -> ReorderBuffer<T> {
        ReorderBuffer {
            next,
            held: BTreeMap::new(),
            max_held: 0,
            ooo_arrivals: 0,
        }
    }

    /// Next sequence number the consumer is waiting for.
    pub fn expected(&self) -> u32 {
        self.next
    }

    /// Blocks currently parked.
    pub fn held(&self) -> usize {
        self.held.len()
    }

    /// Insert block `seq`; returns the newly deliverable in-order run
    /// (empty if `seq` is still ahead of the expected number).
    ///
    /// Duplicate or stale sequence numbers panic: RC transport never
    /// duplicates, so such an arrival is a protocol bug.
    pub fn push(&mut self, seq: u32, item: T) -> Vec<(u32, T)> {
        let mut out = Vec::new();
        self.push_into(seq, item, &mut out);
        out
    }

    /// [`push`](Self::push) that appends the deliverable run to `out`
    /// instead of returning it, so a caller with a queue of its own
    /// allocates nothing per block.
    ///
    /// ```
    /// use rftp_core::ReorderBuffer;
    /// use std::collections::VecDeque;
    /// let (mut r, mut ready) = (ReorderBuffer::new(), VecDeque::new());
    /// r.push_into(1, "b", &mut ready);
    /// assert!(ready.is_empty());
    /// r.push_into(0, "a", &mut ready);
    /// assert_eq!(ready, [(0, "a"), (1, "b")]);
    /// ```
    pub fn push_into(&mut self, seq: u32, item: T, out: &mut impl Extend<(u32, T)>) {
        assert!(
            seq >= self.next,
            "stale sequence {seq}, already delivered up to {}",
            self.next
        );
        if seq != self.next {
            self.ooo_arrivals += 1;
            let prev = self.held.insert(seq, item);
            assert!(prev.is_none(), "duplicate sequence {seq}");
            self.max_held = self.max_held.max(self.held.len());
            return;
        }
        out.extend(Some((seq, item)));
        self.next += 1;
        while let Some(item) = self.held.remove(&self.next) {
            out.extend(Some((self.next, item)));
            self.next += 1;
        }
    }

    /// Like [`push`](Self::push), but tolerant of duplicate and stale
    /// sequences, which a recovering session legitimately produces (a
    /// retransmitted block whose original did land, or a resend of
    /// everything past the resume point). Returns `Err(item)` when `seq`
    /// was already delivered or is already parked — the caller must free
    /// the backing block rather than place it twice.
    pub fn offer(&mut self, seq: u32, item: T) -> Result<Vec<(u32, T)>, T> {
        if seq < self.next || self.held.contains_key(&seq) {
            return Err(item);
        }
        Ok(self.push(seq, item))
    }

    /// True when nothing is parked (all arrived blocks were delivered).
    pub fn is_drained(&self) -> bool {
        self.held.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // spec: [P4.2-stream-in-order]
    #[test]
    fn in_order_passthrough() {
        let mut r = ReorderBuffer::new();
        for i in 0..10 {
            let out = r.push(i, i * 100);
            assert_eq!(out, vec![(i, i * 100)]);
        }
        assert_eq!(r.expected(), 10);
        assert_eq!(r.ooo_arrivals, 0);
    }

    // spec: [P4.2-stream-in-order]
    #[test]
    fn gap_holds_then_flushes() {
        let mut r = ReorderBuffer::new();
        assert!(r.push(1, "b").is_empty());
        assert!(r.push(2, "c").is_empty());
        assert_eq!(r.held(), 2);
        let out = r.push(0, "a");
        assert_eq!(out, vec![(0, "a"), (1, "b"), (2, "c")]);
        assert!(r.is_drained());
        assert_eq!(r.max_held, 2);
        assert_eq!(r.ooo_arrivals, 2);
    }

    // spec: [P4.2-stream-in-order]
    #[test]
    fn interleaved_gaps() {
        let mut r = ReorderBuffer::new();
        assert!(r.push(2, ()).is_empty());
        assert_eq!(r.push(0, ()).len(), 1); // delivers 0 only, 1 missing
        assert_eq!(r.expected(), 1);
        let out = r.push(1, ());
        assert_eq!(out.iter().map(|(s, _)| *s).collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "duplicate sequence")]
    fn duplicate_panics() {
        let mut r = ReorderBuffer::new();
        r.push(5, ());
        r.push(5, ());
    }

    #[test]
    #[should_panic(expected = "stale sequence")]
    fn stale_panics() {
        let mut r = ReorderBuffer::new();
        r.push(0, ());
        r.push(0, ());
    }

    // spec: [P6-duplicate-block]
    #[test]
    fn offer_rejects_duplicates_without_double_delivery() {
        let mut r = ReorderBuffer::new();
        assert_eq!(r.offer(0, "a").unwrap(), vec![(0, "a")]);
        // Stale: 0 already delivered. The item comes back for freeing.
        assert_eq!(r.offer(0, "a2"), Err("a2"));
        // Parked duplicate: 2 held, second copy rejected.
        assert!(r.offer(2, "c").unwrap().is_empty());
        assert_eq!(r.offer(2, "c2"), Err("c2"));
        // The original parked copy is the one delivered.
        assert_eq!(r.offer(1, "b").unwrap(), vec![(1, "b"), (2, "c")]);
        assert_eq!(r.expected(), 3);
        assert!(r.is_drained());
    }

    #[test]
    fn starting_at_resumes_mid_sequence() {
        let mut r = ReorderBuffer::starting_at(70);
        assert_eq!(r.expected(), 70);
        assert_eq!(r.offer(69, ()), Err(())); // below the resume point
        assert_eq!(r.offer(70, ()).unwrap().len(), 1);
        assert_eq!(r.expected(), 71);
    }

    /// `push_into` appends exactly the runs `push` returns, in the same
    /// order, and keeps the same counters.
    #[test]
    fn push_into_delivers_the_runs_push_returns() {
        let order = [3u32, 0, 1, 7, 2, 5, 4, 6, 9, 8, 10];
        let (mut a, mut b) = (ReorderBuffer::new(), ReorderBuffer::new());
        let mut queue = std::collections::VecDeque::new();
        for seq in order {
            let run = a.push(seq, seq * 10);
            let before = queue.len();
            b.push_into(seq, seq * 10, &mut queue);
            assert!(queue.iter().skip(before).eq(run.iter()), "seq {seq}");
        }
        assert_eq!(queue.len(), order.len());
        assert_eq!(
            (a.expected(), a.max_held, a.ooo_arrivals),
            (b.expected(), b.max_held, b.ooo_arrivals)
        );
        assert!(b.is_drained());
    }

    #[test]
    fn reverse_order_delivers_once_complete() {
        let mut r = ReorderBuffer::new();
        for i in (1..100).rev() {
            assert!(r.push(i, i).is_empty());
        }
        let out = r.push(0, 0);
        assert_eq!(out.len(), 100);
        assert!(out.windows(2).all(|w| w[0].0 + 1 == w[1].0));
        assert_eq!(r.max_held, 99);
    }
}
