//! The control-plane coalescing loop, extracted once.
//!
//! Every control handler in the suite — the thread-per-channel sink's
//! protocol brain and the io_uring sink drivers — runs the same drain
//! shape: block for a batch of events, process it, then *dwell* up to
//! the flush window for more events while a partial ack/credit batch is
//! pending, and flush before the next unbounded wait so coalescing never
//! costs latency.
//! This module is that shape, written once; the handlers implement
//! [`CoalescedSink`] and differ only in what an event is and what a
//! flush sends.

use std::time::Duration;

/// Why [`drain_coalesced`] returned.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum DrainEnd {
    /// The sink reported itself done after processing an event.
    Done,
    /// The event source closed (the recv callback returned `false` on an
    /// unbounded wait). Pending output was flushed first.
    Closed,
}

/// A control handler driven by [`drain_coalesced`]: processes events,
/// accumulates coalesced output (acks, credit grants), and flushes it at
/// drain boundaries.
pub(crate) trait CoalescedSink<T> {
    type Err;
    /// Process one event (may flush internally when a batch fills).
    fn handle(&mut self, ev: T) -> Result<(), Self::Err>;
    /// Whether a partial output batch is pending *and* the handler wants
    /// to dwell for more events before flushing it. Returning `false`
    /// flushes immediately (unbatched wire modes do exactly that).
    fn dwell(&self) -> bool;
    /// The dwell window: how long each bounded wait may linger for more
    /// events while a partial batch is pending. Re-read before every
    /// wait, so an adaptive handler can rescale it mid-run as its RTT
    /// estimate converges (~srtt/8 instead of the loopback-tuned floor).
    fn window(&self) -> Duration;
    /// Whether the handler has seen the end of its work. Checked before
    /// every unbounded wait and after every event.
    fn done(&self) -> bool;
    /// Send the pending output batch (no-op when empty).
    fn flush(&mut self) -> Result<(), Self::Err>;
}

/// Drive `sink` from an event source until it is [`CoalescedSink::done`]
/// or the source closes.
///
/// `recv(None, buf)` must block for at least one event; `recv(Some(w),
/// buf)` waits at most `w`. Both return `false` when the source is
/// closed (unbounded) or the wait timed out / closed (bounded) — a
/// bounded `false` just ends the dwell and flushes. The channel backends
/// adapt `recv_batch`/`recv_batch_timeout`; the io_uring sink adapts a
/// CQE drain with a timeout SQE.
pub(crate) fn drain_coalesced<T, S: CoalescedSink<T>>(
    sink: &mut S,
    recv: &mut dyn FnMut(Option<Duration>, &mut Vec<T>) -> bool,
) -> Result<DrainEnd, S::Err> {
    let mut events: Vec<T> = Vec::with_capacity(64);
    loop {
        if sink.done() {
            return Ok(DrainEnd::Done);
        }
        if !recv(None, &mut events) {
            sink.flush()?;
            return Ok(DrainEnd::Closed);
        }
        // Dwell for the flush window on a partial batch — the output
        // leaves before the next unbounded wait, so coalescing costs no
        // latency. Each wait gets the full window, so the dwell extends
        // while events keep arriving (adaptive batching under load) and
        // ends after one quiet window. The dwell-floor contract is on
        // `recv`: a bounded call returns `false` only once its window
        // has genuinely elapsed — a ring completion that yields no
        // handler event must keep waiting out the remainder, not cut
        // the dwell short (see the spurious-wakeup test). `true` with
        // no events re-enters the dwell without flushing.
        loop {
            for ev in events.drain(..) {
                sink.handle(ev)?;
            }
            if sink.done() || !sink.dwell() {
                break;
            }
            if !recv(Some(sink.window()), &mut events) {
                break;
            }
        }
        sink.flush()?;
    }
}

/// Adapt a crossbeam receiver to [`drain_coalesced`]'s recv callback:
/// unbounded waits are `recv_batch`, dwell waits are
/// `recv_batch_timeout`, and `cap` bounds each drain.
pub(crate) fn channel_events<'a, T>(
    rx: &'a crossbeam::channel::Receiver<T>,
    cap: usize,
) -> impl FnMut(Option<Duration>, &mut Vec<T>) -> bool + 'a {
    move |window, buf| match window {
        None => rx.recv_batch(buf, cap).is_ok(),
        Some(w) => rx.recv_batch_timeout(buf, cap, w).is_ok(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::bounded;

    /// A toy sink that batches integers and "flushes" them into sums.
    struct Summer {
        pending: Vec<u64>,
        flushed: Vec<u64>,
        seen: u64,
        target: u64,
        batch: usize,
        window: Duration,
    }

    impl CoalescedSink<u64> for Summer {
        type Err = std::convert::Infallible;
        fn handle(&mut self, ev: u64) -> Result<(), Self::Err> {
            self.seen += 1;
            self.pending.push(ev);
            if self.pending.len() >= self.batch {
                self.flush()?;
            }
            Ok(())
        }
        fn dwell(&self) -> bool {
            !self.pending.is_empty()
        }
        fn window(&self) -> Duration {
            self.window
        }
        fn done(&self) -> bool {
            self.seen >= self.target
        }
        fn flush(&mut self) -> Result<(), Self::Err> {
            if !self.pending.is_empty() {
                self.flushed.push(self.pending.drain(..).sum());
            }
            Ok(())
        }
    }

    #[test]
    fn drains_to_done_and_flushes_partials() {
        let (tx, rx) = bounded::<u64>(64);
        for v in 0..10u64 {
            tx.send(v).unwrap();
        }
        let mut s = Summer {
            pending: Vec::new(),
            flushed: Vec::new(),
            seen: 0,
            target: 10,
            batch: 4,
            window: Duration::from_micros(100),
        };
        let end = drain_coalesced(&mut s, &mut channel_events(&rx, 64)).unwrap();
        assert_eq!(end, DrainEnd::Done);
        assert_eq!(s.flushed.iter().sum::<u64>(), 45);
        assert!(s.pending.is_empty(), "partial batch must flush");
    }

    /// The dwell floor: a ring-style event source can wake with
    /// completions that yield no handler events (partial reads, control
    /// re-arms). Such spurious wakeups — `recv` returning `true` with
    /// an empty batch — must re-enter the dwell, not end it and flush a
    /// partial ack batch before the window has elapsed.
    #[test]
    fn spurious_wakeups_do_not_cut_the_dwell_short() {
        let mut calls = 0;
        let mut recv = |_w: Option<Duration>, buf: &mut Vec<u64>| -> bool {
            let n = calls;
            calls += 1;
            match n {
                0 => {
                    buf.push(1); // unbounded wait: first event
                    true
                }
                1..=3 => true, // dwell: spurious wakes, no events
                4 => {
                    buf.push(2); // dwell: second event joins the batch
                    true
                }
                _ => false, // source closes
            }
        };
        let mut s = Summer {
            pending: Vec::new(),
            flushed: Vec::new(),
            seen: 0,
            target: 100,
            batch: 64,
            window: Duration::from_millis(5),
        };
        let end = drain_coalesced(&mut s, &mut recv).unwrap();
        assert_eq!(end, DrainEnd::Closed);
        assert_eq!(s.flushed, vec![3], "both events coalesce into one flush");
    }

    #[test]
    fn close_flushes_and_reports_closed() {
        let (tx, rx) = bounded::<u64>(8);
        tx.send(7).unwrap();
        drop(tx);
        let mut s = Summer {
            pending: Vec::new(),
            flushed: Vec::new(),
            seen: 0,
            target: 100,
            batch: 4,
            window: Duration::from_micros(100),
        };
        let end = drain_coalesced(&mut s, &mut channel_events(&rx, 8)).unwrap();
        assert_eq!(end, DrainEnd::Closed);
        assert_eq!(s.flushed, vec![7]);
    }
}
