//! The control-plane coalescing loop, extracted once.
//!
//! The sink's control handler runs this drain shape on every transport:
//! block for a batch of events, process it, then *dwell* up to the
//! flush window for more events while a partial ack/credit batch is
//! pending, and flush before the next unbounded wait so coalescing never
//! costs latency. This module is that shape, written once against
//! [`CoalescedSink`]; the one implementation is the sink's `SinkHandler`
//! (plus a fake in this module's tests).

use crossbeam::channel::Receiver;
use std::time::Duration;

/// Why [`drain_coalesced`] returned.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum DrainEnd {
    /// The sink reported itself done after processing an event.
    Done,
    /// The event channel closed (every sender gone, queue drained).
    /// Pending output was flushed first.
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

/// Drive `sink` from an event channel until it is
/// [`CoalescedSink::done`] or the channel closes, taking at most `cap`
/// events per drain.
///
/// Every sink feeds its handler this way — TCP/shm receiver threads and
/// the uring driver alike fill one channel per session.
pub(crate) fn drain_coalesced<T, S: CoalescedSink<T>>(
    sink: &mut S,
    events: &Receiver<T>,
    cap: usize,
) -> Result<DrainEnd, S::Err> {
    let mut batch: Vec<T> = Vec::with_capacity(cap);
    loop {
        if sink.done() {
            return Ok(DrainEnd::Done);
        }
        if events.recv_batch(&mut batch, cap).is_err() {
            sink.flush()?;
            return Ok(DrainEnd::Closed);
        }
        // Dwell for the flush window on a partial batch — the output
        // leaves before the next unbounded wait, so coalescing costs no
        // latency. Each wait gets the full window, so the dwell extends
        // while events keep arriving (adaptive batching under load) and
        // ends after one quiet window.
        loop {
            for ev in batch.drain(..) {
                sink.handle(ev)?;
            }
            if sink.done() || !sink.dwell() {
                break;
            }
            if events
                .recv_batch_timeout(&mut batch, cap, sink.window())
                .is_err()
            {
                break;
            }
        }
        sink.flush()?;
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
        let end = drain_coalesced(&mut s, &rx, 64).unwrap();
        assert_eq!(end, DrainEnd::Done);
        assert_eq!(s.flushed.iter().sum::<u64>(), 45);
        assert!(s.pending.is_empty(), "partial batch must flush");
    }

    /// The dwell: a partial batch waits out the flush window for more
    /// events, so one that lands inside the window joins the same flush
    /// instead of costing a control frame of its own.
    #[test]
    fn events_inside_the_dwell_window_share_one_flush() {
        let (tx, rx) = bounded::<u64>(8);
        tx.send(1).unwrap();
        let late = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(2));
            tx.send(2).unwrap(); // then the channel closes
        });
        let mut s = Summer {
            pending: Vec::new(),
            flushed: Vec::new(),
            seen: 0,
            target: 100,
            batch: 64,
            window: Duration::from_millis(500),
        };
        let end = drain_coalesced(&mut s, &rx, 64).unwrap();
        late.join().unwrap();
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
        let end = drain_coalesced(&mut s, &rx, 8).unwrap();
        assert_eq!(end, DrainEnd::Closed);
        assert_eq!(s.flushed, vec![7]);
    }
}
