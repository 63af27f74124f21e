//! Shared-resource primitives for the multi-session daemon: a lock-free
//! slot arena and a weighted-fair credit arbiter.
//!
//! A long-lived server cannot give every session its own registered
//! pool — pinned, registered memory is the scarce resource the paper's
//! buffer-pool design exists to amortize. The daemon therefore registers
//! ONE pool of slots at startup and partitions it dynamically:
//! [`SlotArena`] hands each admitted session an all-or-nothing lease of
//! slot indices and takes them back at teardown, with the same Vyukov
//! MPMC index ring ([`IndexQueue`]) the per-session pools already use —
//! no lock, no allocation on the lease/release path beyond the returned
//! index vector.
//!
//! The indices themselves are the registration contract: a leased index
//! is a *stable global* name for one slot buffer for the arena's whole
//! lifetime (leases permute which session holds an index, never what it
//! names). That is what lets the io_uring daemon register the entire
//! slab as fixed buffers **exactly once** at startup — a lease's index
//! doubles as the kernel `buf_index`, so admission and teardown never
//! touch buffer registration and no transfer ever waits on page
//! pinning. (The daemon asserts this: its shared ring's registration
//! count stays at 1 across every admission.)
//!
//! [`WeightedFair`] is the companion admission: once sessions share the
//! link and the CPU, credit grants are the throttle (credits bound
//! blocks in flight, Fig. 5's active feedback), so the daemon clamps
//! each session's *outstanding* credits to a weighted share of a global
//! budget. Max-min with borrowing: unused share is work-conserving (a
//! solo bulk session gets the whole budget), but a session can never
//! borrow another session's unused guarantee, and a session at zero
//! outstanding is always granted at least one credit — a 1 GB bulk
//! transfer cannot starve a 4 KB interactive session.

use crate::pool::IndexQueue;
use std::collections::HashMap;
use std::sync::Mutex;

/// A shared pool of slot indices partitioned dynamically across
/// sessions. Indices are *global* slot numbers in the daemon's one
/// registered buffer pool; each session maps them to its session-local
/// slot space (wire slot `i` = `lease[i]`). On the io_uring backend the
/// global index is also the fixed-buffer `buf_index` in the daemon's
/// one-time registration, so indices must stay within `0..total` and
/// never be renamed — leasing moves ownership, not identity.
pub struct SlotArena {
    free: IndexQueue,
    total: u32,
}

impl SlotArena {
    /// An arena owning slots `0..total`.
    pub fn new(total: u32) -> SlotArena {
        SlotArena {
            free: IndexQueue::full(total),
            total,
        }
    }

    pub fn total_slots(&self) -> u32 {
        self.total
    }

    /// Free slots at this instant (racy by nature; exact only when no
    /// lease/release is concurrent — e.g. at daemon drain).
    pub fn free_slots(&self) -> usize {
        self.free.len()
    }

    /// Lease exactly `n` slots, all or nothing. On contention two
    /// concurrent leases can both fail where one could have succeeded —
    /// the caller treats that as transient saturation (admission replies
    /// busy/retry, it never hangs).
    pub fn lease(&self, n: usize) -> Option<Vec<u32>> {
        let mut got = Vec::with_capacity(n);
        for _ in 0..n {
            match self.free.try_pop() {
                Some(s) => got.push(s),
                None => {
                    // Roll back: somebody else wins this race.
                    for s in got {
                        self.free.push_must(s);
                    }
                    return None;
                }
            }
        }
        Some(got)
    }

    /// Return a lease. Each index must come from a prior [`lease`] of
    /// this arena and be returned exactly once.
    ///
    /// [`lease`]: SlotArena::lease
    pub fn release(&self, slots: &[u32]) {
        for &s in slots {
            debug_assert!(s < self.total, "foreign slot {s} released");
            self.free.push_must(s);
        }
    }
}

struct FairSession {
    weight: u32,
    /// Slots the session leased: it can never have more credits out,
    /// so no more of the budget is held for it.
    lease: u32,
    outstanding: u32,
}

struct FairInner {
    sessions: HashMap<u64, FairSession>,
    total_weight: u64,
    total_outstanding: u32,
}

/// Weighted max-min arbiter for outstanding credits across sessions.
///
/// Every registered session owns a guaranteed share of the global
/// budget proportional to its weight, capped at its lease (always at
/// least 1). [`allow`]
/// grants first from the caller's unused guarantee, then from the
/// surplus the budget holds beyond *everyone's* unused guarantees — so
/// borrowing is work-conserving but can never consume a quiet session's
/// reserve. A session at zero outstanding is granted at least one
/// credit even when the budget is exhausted (progress backstop; the
/// budget is a target, not a hard wall).
///
/// All methods take `&self`; internal state is one mutex, amortized by
/// the callers' existing grant batching.
///
/// [`allow`]: WeightedFair::allow
pub struct WeightedFair {
    budget: u32,
    inner: Mutex<FairInner>,
}

impl WeightedFair {
    pub fn new(budget: u32) -> WeightedFair {
        assert!(budget > 0, "zero credit budget");
        WeightedFair {
            budget,
            inner: Mutex::new(FairInner {
                sessions: HashMap::new(),
                total_weight: 0,
                total_outstanding: 0,
            }),
        }
    }

    pub fn budget(&self) -> u32 {
        self.budget
    }

    /// Add a session with the given weight (> 0) and no lease cap on
    /// its guarantee: [`WeightedFair::register_leased`] with an
    /// unbounded lease.
    pub fn register(&self, id: u64, weight: u32) {
        self.register_leased(id, weight, u32::MAX);
    }

    /// Add a session with the given weight (> 0) that leased `lease`
    /// slots. Its guarantee is its weighted share of the budget, but
    /// never more than `lease`: a session cannot have more credits out
    /// than it has slots, so holding more of the budget in reserve for
    /// it would only starve the others. Re-registering an id replaces
    /// its weight and lease and keeps its outstanding count.
    pub fn register_leased(&self, id: u64, weight: u32, lease: u32) {
        assert!(weight > 0, "zero weight");
        let mut g = self.inner.lock().unwrap();
        let prior = match g.sessions.entry(id) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                e.get_mut().lease = lease;
                std::mem::replace(&mut e.get_mut().weight, weight)
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(FairSession {
                    weight,
                    lease,
                    outstanding: 0,
                });
                0
            }
        };
        g.total_weight += weight as u64 - prior as u64;
    }

    /// Remove a session, returning whatever it still had outstanding to
    /// the budget.
    pub fn deregister(&self, id: u64) {
        let mut g = self.inner.lock().unwrap();
        if let Some(s) = g.sessions.remove(&id) {
            g.total_weight -= s.weight as u64;
            g.total_outstanding -= s.outstanding;
        }
    }

    /// A session's guarantee: its weighted share of the budget, capped
    /// at its lease, and at least 1.
    fn fair_share(&self, s: &FairSession, total_weight: u64) -> u32 {
        let share = (self.budget as u64 * s.weight as u64 / total_weight.max(1)) as u32;
        share.min(s.lease).max(1)
    }

    /// Clamp a grant of `want` credits for session `id` and record the
    /// allowed amount as outstanding. Unregistered ids are not clamped
    /// (standalone one-shot sinks run without an arbiter).
    pub fn allow(&self, id: u64, want: u32) -> u32 {
        if want == 0 {
            return 0;
        }
        let mut g = self.inner.lock().unwrap();
        let Some(me) = g.sessions.get(&id) else {
            return want;
        };
        let total_weight = g.total_weight;
        let (my_fair, my_out) = (self.fair_share(me, total_weight), me.outstanding);
        // Budget held in reserve for guarantees nobody is using yet
        // (including the caller's own).
        let reserved_unused: u64 = g
            .sessions
            .values()
            .map(|s| {
                self.fair_share(s, total_weight)
                    .saturating_sub(s.outstanding) as u64
            })
            .sum();
        let surplus = (self.budget as u64)
            .saturating_sub(g.total_outstanding as u64)
            .saturating_sub(reserved_unused) as u32;
        let from_guarantee = my_fair.saturating_sub(my_out).min(want);
        let from_surplus = (want - from_guarantee).min(surplus);
        let mut allowed = from_guarantee + from_surplus;
        if allowed == 0 && my_out == 0 {
            allowed = 1; // starvation backstop
        }
        let me = g.sessions.get_mut(&id).unwrap();
        me.outstanding += allowed;
        g.total_outstanding += allowed;
        allowed
    }

    /// A credit came back (its block was consumed and freed).
    pub fn release(&self, id: u64, n: u32) {
        let mut g = self.inner.lock().unwrap();
        if let Some(s) = g.sessions.get_mut(&id) {
            let n = n.min(s.outstanding);
            s.outstanding -= n;
            g.total_outstanding -= n;
        }
    }

    /// Current outstanding credits for a session (tests, stats).
    pub fn outstanding(&self, id: u64) -> u32 {
        self.inner
            .lock()
            .unwrap()
            .sessions
            .get(&id)
            .map_or(0, |s| s.outstanding)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lease_is_all_or_nothing() {
        let a = SlotArena::new(8);
        let l1 = a.lease(5).expect("5 of 8");
        assert_eq!(l1.len(), 5);
        assert!(a.lease(4).is_none(), "only 3 left");
        assert_eq!(a.free_slots(), 3, "failed lease rolled back");
        let l2 = a.lease(3).expect("exactly the rest");
        let mut all: Vec<u32> = l1.iter().chain(l2.iter()).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..8).collect::<Vec<u32>>());
        a.release(&l1);
        a.release(&l2);
        assert_eq!(a.free_slots(), 8);
    }

    /// The registration contract: indices are stable global names.
    /// Over any sequence of lease/release cycles the arena only hands
    /// out indices in `0..total`, and a full drain recovers exactly the
    /// set `0..total` — no renumbering, no invention — so a one-time
    /// fixed-buffer registration (`buf_index` = global index) covers
    /// every future lease.
    #[test]
    fn lease_indices_are_stable_global_names() {
        let a = SlotArena::new(8);
        for _ in 0..10 {
            let l1 = a.lease(3).unwrap();
            let l2 = a.lease(5).unwrap();
            assert!(l1.iter().chain(&l2).all(|&s| s < 8));
            a.release(&l1);
            a.release(&l2);
        }
        let mut all = a.lease(8).unwrap();
        all.sort_unstable();
        assert_eq!(all, (0..8).collect::<Vec<u32>>());
        a.release(&all);
    }

    #[test]
    fn arena_concurrent_lease_release_loses_nothing() {
        let a = Arc::new(SlotArena::new(64));
        let mut hs = Vec::new();
        for t in 0..4u32 {
            let a = Arc::clone(&a);
            hs.push(std::thread::spawn(move || {
                for i in 0..200 {
                    let n = 1 + ((t as usize + i) % 24);
                    if let Some(l) = a.lease(n) {
                        assert_eq!(l.len(), n);
                        std::thread::yield_now();
                        a.release(&l);
                    }
                }
            }));
        }
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(a.free_slots(), 64, "every leased slot came home");
    }

    /// Spin-stress on the all-or-nothing rollback path: half the
    /// threads ask for more than can ever be free at once (their leases
    /// fail and must roll back *fully*), the other half cycle small
    /// leases. A shared claim table catches the two rollback bugs this
    /// protects against — a slot handed to two sessions at once, and a
    /// rolled-back slot pushed twice (which would later double-lease).
    #[test]
    fn lease_rollback_spin_stress_never_duplicates_a_slot() {
        use std::sync::atomic::{AtomicBool, Ordering};
        const TOTAL: u32 = 32;
        let a = Arc::new(SlotArena::new(TOTAL));
        let claimed: Arc<Vec<AtomicBool>> =
            Arc::new((0..TOTAL).map(|_| AtomicBool::new(false)).collect());
        let mut hs = Vec::new();
        for t in 0..8u32 {
            let a = Arc::clone(&a);
            let claimed = Arc::clone(&claimed);
            hs.push(std::thread::spawn(move || {
                for i in 0..500 {
                    // Even threads contend for 24 of 32 — with four of
                    // them, most attempts fail mid-scan and roll back.
                    let n = if t % 2 == 0 { 24 } else { 1 + (i % 4) };
                    if let Some(l) = a.lease(n) {
                        assert_eq!(l.len(), n);
                        for &s in &l {
                            assert!(s < TOTAL, "foreign slot {s}");
                            assert!(
                                !claimed[s as usize].swap(true, Ordering::AcqRel),
                                "slot {s} leased to two sessions at once"
                            );
                        }
                        std::thread::yield_now();
                        for &s in &l {
                            claimed[s as usize].store(false, Ordering::Release);
                        }
                        a.release(&l);
                    } else {
                        std::thread::yield_now();
                    }
                }
            }));
        }
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(a.free_slots(), TOTAL as usize, "rollbacks leaked slots");
        let mut all = a.lease(TOTAL as usize).unwrap();
        all.sort_unstable();
        assert_eq!(all, (0..TOTAL).collect::<Vec<u32>>(), "identity drift");
        a.release(&all);
    }

    #[test]
    fn fair_share_solo_is_work_conserving() {
        let f = WeightedFair::new(32);
        f.register(1, 1);
        assert_eq!(f.allow(1, 40), 32, "alone, the whole budget");
        assert_eq!(f.allow(1, 4), 0, "budget spent");
        f.release(1, 10);
        assert_eq!(f.allow(1, 40), 10);
    }

    #[test]
    fn bulk_cannot_eat_interactive_guarantee() {
        let f = WeightedFair::new(32);
        f.register(1, 1); // bulk
        f.register(2, 7); // interactive
                          // Interactive's guarantee: 32*7/8 = 28. Bulk asks for the world.
        let bulk = f.allow(1, 1000);
        assert_eq!(bulk, 4, "bulk clamped to its share: 32*1/8");
        assert_eq!(f.allow(2, 28), 28, "guarantee intact");
        // Budget exhausted and bulk at zero after release: backstop = 1.
        f.release(1, 4);
        assert_eq!(f.allow(1, 100), 4, "bulk's own guarantee refills");
        f.release(1, 4);
        assert_eq!(f.outstanding(1), 0);
        // Interactive still holds 28, bulk gets its 4 back — now drain
        // interactive and bulk may borrow the surplus.
        f.release(2, 28);
        f.deregister(2);
        assert_eq!(f.allow(1, 100), 32, "peer gone, budget is bulk's");
    }

    /// A 256 KiB interactive session leases 4 slots: the budget holds
    /// those 4 for it, not its weighted 28, so the bulk session beside
    /// it gets its whole 8-slot lease instead of 4.
    #[test]
    fn guarantee_is_capped_at_the_lease() {
        let f = WeightedFair::new(32);
        f.register_leased(1, 1, 8); // bulk
        f.register_leased(2, 8, 4); // interactive
        assert_eq!(f.allow(1, 8), 8, "bulk gets its whole lease");
        assert_eq!(f.allow(2, 4), 4, "interactive keeps its guarantee");
        // The interactive guarantee stays reserved for it: bulk can
        // borrow what nobody's guarantee holds, never those 4.
        f.release(2, 4);
        assert_eq!(f.allow(1, 100), 32 - 8 - 4, "surplus beyond the reserve");
        assert_eq!(f.allow(2, 4), 4, "the reserve held");
    }

    #[test]
    fn starvation_backstop_always_grants_one() {
        let f = WeightedFair::new(4);
        f.register(1, 1);
        f.register(2, 1);
        assert_eq!(f.allow(1, 100), 2, "half the tiny budget");
        assert_eq!(f.allow(2, 100), 2);
        f.register(3, 1); // late joiner, budget fully out
        let got = f.allow(3, 5);
        assert_eq!(got, 1, "backstop: at least one credit at zero");
        assert_eq!(f.allow(3, 5), 0, "backstop fires only at zero");
    }

    /// Spin-stress on surplus borrowing racing concurrent release: four
    /// sessions (two interactive-weighted, two bulk) hammer `allow`
    /// while their own releases land from a second thread each, so
    /// grants constantly draw from a surplus that is being recomputed
    /// under them. Invariants held throughout: a session never holds
    /// more than the whole budget; when the arbiter itself reports the
    /// outstanding count it must match the session's own ledger; and a
    /// full drain returns the budget intact — borrowing under churn
    /// neither mints credits nor loses them.
    #[test]
    fn fair_surplus_borrowing_spin_stress_conserves_the_budget() {
        use std::sync::atomic::{AtomicU32, Ordering};
        const BUDGET: u32 = 32;
        let f = Arc::new(WeightedFair::new(BUDGET));
        let ids: [(u64, u32); 4] = [(1, 4), (2, 4), (3, 1), (4, 1)];
        for (id, w) in ids {
            f.register(id, w);
        }
        let mut hs = Vec::new();
        for (id, _) in ids {
            let f = Arc::clone(&f);
            // The session's own ledger: the granter adds after the
            // arbiter records a grant, the releaser subtracts before
            // telling the arbiter — so the ledger always reads at or
            // below the arbiter's outstanding and the budget bound on
            // it is sound even mid-race.
            let ledger = Arc::new(AtomicU32::new(0));
            let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
            let granter = {
                let f = Arc::clone(&f);
                let ledger = Arc::clone(&ledger);
                let done = Arc::clone(&done);
                std::thread::spawn(move || {
                    for i in 0..2000u32 {
                        let want = 1 + (i % 7);
                        let got = f.allow(id, want);
                        assert!(got <= want, "granted more than asked");
                        let held = ledger.fetch_add(got, Ordering::AcqRel) + got;
                        assert!(
                            held <= BUDGET,
                            "session {id} holds {held} of a {BUDGET} budget"
                        );
                        if i % 3 == 0 {
                            std::thread::yield_now();
                        }
                    }
                    done.store(true, Ordering::Release);
                })
            };
            let releaser = {
                let f = Arc::clone(&f);
                let ledger = Arc::clone(&ledger);
                let done = Arc::clone(&done);
                std::thread::spawn(move || {
                    // Spinning here is the point — releases land in the
                    // middle of other sessions' surplus math.
                    loop {
                        let held = ledger.load(Ordering::Acquire);
                        if held == 0 {
                            if done.load(Ordering::Acquire) && ledger.load(Ordering::Acquire) == 0 {
                                break;
                            }
                            std::thread::yield_now();
                            continue;
                        }
                        let n = (held / 2).max(1);
                        ledger.fetch_sub(n, Ordering::AcqRel);
                        f.release(id, n);
                    }
                })
            };
            hs.push(granter);
            hs.push(releaser);
        }
        for h in hs {
            h.join().unwrap();
        }
        for (id, _) in ids {
            assert_eq!(f.outstanding(id), 0, "session {id} leaked outstanding");
            f.deregister(id);
        }
        // The budget survived the churn: a fresh solo session can draw
        // exactly all of it.
        f.register(9, 1);
        assert_eq!(f.allow(9, 10 * BUDGET), BUDGET, "budget not conserved");
    }

    #[test]
    fn deregister_returns_outstanding() {
        let f = WeightedFair::new(16);
        f.register(1, 1);
        f.register(2, 1);
        assert_eq!(f.allow(1, 8), 8);
        f.deregister(1);
        assert_eq!(f.allow(2, 16), 16, "departed session's credits back");
    }

    #[test]
    fn unregistered_is_unclamped() {
        let f = WeightedFair::new(4);
        assert_eq!(f.allow(99, 1000), 1000);
    }
}
