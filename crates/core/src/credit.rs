//! Credit-based flow control.
//!
//! RDMA WRITE needs a destination address before it can fire, so the sink
//! hands out **credits** — (rkey, offset, len, slot) tuples naming free
//! blocks in its registered pool. The paper's key design point (§IV.A,
//! third optimization) is the **active feedback** mechanism:
//!
//! * The sink *proactively* pushes credits; the source never has to ask
//!   first (asking costs a full RTT — the drawback the paper identifies
//!   in Tian et al.'s RXIO design).
//! * On every block-completion notification, the sink grants **up to
//!   two** fresh credits. Granting two per consumed one makes the
//!   source's credit stock grow exponentially at session start —
//!   "similar to the slow start of TCP".
//! * If the source still runs dry it sends an `MrRequest` and blocks; the
//!   sink must answer as soon as at least one region frees up.
//!
//! [`CreditStock`] is the source side (a FIFO of usable credits);
//! [`Granter`] is the sink side (policy for when and how many to grant).
//! Both are pure data structures, fabric-agnostic.

use crate::wire::Credit;
use std::collections::VecDeque;

/// Source-side credit inventory.
///
/// ```
/// use rftp_core::CreditStock;
/// use rftp_core::wire::Credit;
/// let mut s = CreditStock::new();
/// assert!(s.should_request());      // dry: ask the sink once
/// assert!(!s.should_request());     // debounced until credits arrive
/// s.deposit([Credit { slot: 0, rkey: 1, offset: 0, len: 4096 }]);
/// assert!(s.take().is_some());
/// ```
#[derive(Debug, Default)]
pub struct CreditStock {
    queue: VecDeque<Credit>,
    /// True while an `MrRequest` is outstanding (at most one at a time —
    /// "the source is blocked until the sink sends back a response").
    pub request_outstanding: bool,
    /// Counters for experiment reports.
    pub received_total: u64,
    pub consumed_total: u64,
    pub requests_sent: u64,
    /// High-water mark of stocked credits (shows the slow-start ramp).
    pub max_stock: usize,
}

impl CreditStock {
    pub fn new() -> CreditStock {
        CreditStock::default()
    }

    pub fn available(&self) -> usize {
        self.queue.len()
    }

    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Stock freshly received credits; clears the outstanding request.
    pub fn deposit(&mut self, credits: impl IntoIterator<Item = Credit>) {
        for c in credits {
            self.queue.push_back(c);
            self.received_total += 1;
        }
        self.max_stock = self.max_stock.max(self.queue.len());
        self.request_outstanding = false;
    }

    /// Take one credit to fire a WRITE.
    pub fn take(&mut self) -> Option<Credit> {
        let c = self.queue.pop_front()?;
        self.consumed_total += 1;
        Some(c)
    }

    /// Put back a credit that could not be used after all (e.g. every
    /// send queue was full); it returns to the front of the line and is
    /// not double-counted.
    pub fn restore(&mut self, c: Credit) {
        self.queue.push_front(c);
        self.consumed_total -= 1;
    }

    /// Drop every stocked credit and forget any outstanding request —
    /// used on session resume, when the sink re-advertises its pool and
    /// stale credits would name blocks about to be re-granted. The
    /// received/consumed counters keep their history (the dropped
    /// credits were received but never consumed, which is accurate).
    pub fn clear(&mut self) {
        self.queue.clear();
        self.request_outstanding = false;
    }

    /// Should the source send an `MrRequest` now? True exactly once per
    /// dry spell (the flag debounces repeated requests).
    pub fn should_request(&mut self) -> bool {
        if self.queue.is_empty() && !self.request_outstanding {
            self.request_outstanding = true;
            self.requests_sent += 1;
            true
        } else {
            false
        }
    }
}

/// Sink-side grant policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CreditMode {
    /// The paper's design: push credits proactively (initial batch at
    /// accept, up to `grant_per_completion` per completion notification).
    Proactive,
    /// RXIO-style ablation: grant only when the source asks. Every refill
    /// costs one RTT at the worst possible moment.
    OnDemand,
}

/// Decides how many credits the sink releases at each protocol event.
#[derive(Debug)]
pub struct Granter {
    pub mode: CreditMode,
    /// Credits pushed with the session accept (the slow-start seed).
    pub initial: u32,
    /// Credits granted per completion notification (2 in the paper: this
    /// is what makes the ramp exponential).
    pub per_completion: u32,
    /// Credits granted per explicit `MrRequest`.
    pub per_request: u32,
    /// A request arrived while nothing was free; answer on next free.
    pub pending_request: bool,
}

impl Granter {
    pub fn new(mode: CreditMode, initial: u32, per_completion: u32, per_request: u32) -> Granter {
        assert!(per_request >= 1, "a request must be answerable");
        Granter {
            mode,
            initial,
            per_completion,
            per_request,
            pending_request: false,
        }
    }

    /// The paper's defaults: proactive, 2 initial, 2 per completion.
    pub fn paper_default() -> Granter {
        Granter::new(CreditMode::Proactive, 2, 2, 4)
    }

    /// How many credits to push when the session is accepted.
    pub fn on_accept(&mut self) -> u32 {
        match self.mode {
            CreditMode::Proactive => self.initial,
            CreditMode::OnDemand => 0,
        }
    }

    /// How many credits to push on a block-completion notification.
    pub fn on_completion(&mut self) -> u32 {
        match self.mode {
            CreditMode::Proactive => self.per_completion,
            CreditMode::OnDemand => 0,
        }
    }

    /// An `MrRequest` arrived; `free` blocks are currently available.
    /// Returns how many to grant now (0 ⇒ remember and answer later).
    pub fn on_request(&mut self, free: usize) -> u32 {
        if free == 0 {
            self.pending_request = true;
            0
        } else {
            self.pending_request = false;
            self.per_request.min(free as u32)
        }
    }

    /// A block was freed (`put_free_blk`). Returns how many credits to
    /// push now — nonzero only if a request went unanswered ("the
    /// responder will be delayed until one becomes available").
    pub fn on_block_freed(&mut self) -> u32 {
        if self.pending_request {
            self.pending_request = false;
            1
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn credit(slot: u32) -> Credit {
        Credit {
            slot,
            rkey: 1,
            offset: slot as u64 * 4096,
            len: 4096,
        }
    }

    #[test]
    fn stock_fifo_and_counters() {
        let mut s = CreditStock::new();
        s.deposit([credit(0), credit(1)]);
        assert_eq!(s.available(), 2);
        assert_eq!(s.take().unwrap().slot, 0);
        assert_eq!(s.take().unwrap().slot, 1);
        assert!(s.take().is_none());
        assert_eq!(s.received_total, 2);
        assert_eq!(s.consumed_total, 2);
        assert_eq!(s.max_stock, 2);
    }

    #[test]
    fn request_debounces() {
        let mut s = CreditStock::new();
        assert!(s.should_request());
        assert!(!s.should_request(), "second request must be suppressed");
        s.deposit([credit(0)]);
        assert!(!s.request_outstanding);
        s.take();
        assert!(s.should_request(), "new dry spell, new request");
        assert_eq!(s.requests_sent, 2);
    }

    /// Resume discards stale-session credits: a cleared stock accepts
    /// re-grants of the very same slots without double-counting state.
    #[test]
    fn clear_discards_stale_credits_and_request() {
        let mut s = CreditStock::new();
        s.deposit([credit(0), credit(1)]);
        s.take();
        assert!(!s.should_request());
        s.take();
        assert!(s.should_request()); // dry, request outstanding
        s.deposit([credit(2)]);
        s.take();
        assert!(s.should_request());
        s.clear();
        assert!(s.is_empty());
        assert!(!s.request_outstanding, "resume forgets the in-flight ask");
        // Double-grant after resume: the sink re-advertises slots 0 and 1.
        // The stock treats them as fresh credits, FIFO as usual.
        s.deposit([credit(0), credit(1)]);
        assert_eq!(s.available(), 2);
        assert_eq!(s.take().unwrap().slot, 0);
        assert!(!s.should_request());
        assert_eq!(s.take().unwrap().slot, 1);
    }

    #[test]
    fn proactive_granter_follows_paper_policy() {
        let mut g = Granter::paper_default();
        assert_eq!(g.on_accept(), 2);
        assert_eq!(g.on_completion(), 2);
        assert_eq!(g.on_request(10), 4);
        assert!(!g.pending_request);
    }

    #[test]
    fn on_demand_granter_never_pushes() {
        let mut g = Granter::new(CreditMode::OnDemand, 2, 2, 8);
        assert_eq!(g.on_accept(), 0);
        assert_eq!(g.on_completion(), 0);
        assert_eq!(g.on_request(10), 8);
    }

    #[test]
    fn starved_request_is_remembered() {
        let mut g = Granter::paper_default();
        assert_eq!(g.on_request(0), 0);
        assert!(g.pending_request);
        // First freed block answers the request.
        assert_eq!(g.on_block_freed(), 1);
        assert!(!g.pending_request);
        // Subsequent frees are quiet (proactive grants ride completions).
        assert_eq!(g.on_block_freed(), 0);
    }

    #[test]
    fn request_grant_capped_by_free() {
        let mut g = Granter::paper_default();
        assert_eq!(g.on_request(2), 2);
    }

    /// The exponential ramp: granting 2 per completed 1 doubles the
    /// source's working set each round until the sink pool caps it.
    #[test]
    fn grant_policy_yields_exponential_ramp() {
        let mut g = Granter::paper_default();
        let pool = 64u32;
        let mut free = pool - g.on_accept();
        let mut stock = g.on_accept(); // credits at the source
        let mut rounds = 0;
        // Each "round": all stocked credits get used (completions), each
        // completion frees 1 and grants up to 2.
        while stock < pool / 2 && rounds < 20 {
            let completions = stock;
            let mut granted = 0;
            for _ in 0..completions {
                free += 1; // consumed block gets freed
                let want = g.on_completion();
                let take = want.min(free);
                free -= take;
                granted += take;
            }
            stock = granted;
            rounds += 1;
        }
        assert!(
            rounds <= 5,
            "2-per-completion must ramp a 64-block window in O(log) rounds, took {rounds}"
        );
    }
}
