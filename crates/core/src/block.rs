//! Buffer-block finite state machines (Fig. 6 of the paper).
//!
//! The protocol models every buffer block as a small FSM. At the **data
//! source** (Fig. 6a):
//!
//! ```text
//! Free ──get_free_blk──▶ Loading ──load done──▶ Loaded
//!   ▲                                             │ post WRITE
//!   │                                       StartSending
//!   │                                             │ posted ok
//!   └───────── poll success ────────────── Waiting
//!                    (poll failure: Waiting ──▶ Loaded, for re-send)
//! ```
//!
//! At the **data sink** (Fig. 6b):
//!
//! ```text
//! Free ──grant credit──▶ Waiting ──finish notification──▶ DataReady
//!   ▲                                                        │
//!   └──────────────── put_free_blk (app consumed) ───────────┘
//! ```
//!
//! Transitions are typed: every illegal transition is an error carrying
//! both states, so protocol bugs fail loudly instead of corrupting the
//! pool.

use std::fmt;

/// Source-side block states (Fig. 6a).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SrcState {
    /// Available for reuse.
    Free,
    /// An application thread is filling the block from its data source.
    Loading,
    /// Filled; waiting for a credit and a queue-pair slot.
    Loaded,
    /// A WRITE work request is being posted ("Start sending").
    StartSending,
    /// The WRITE is in flight; contents pinned until completion.
    Waiting,
}

/// Sink-side block states (Fig. 6b).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SnkState {
    /// Available: may be advertised to the source as a credit.
    Free,
    /// Advertised; the source may write into it at any moment.
    Waiting,
    /// Payload landed (finish notification seen); awaiting the consumer.
    DataReady,
}

/// An illegal FSM transition: the operation attempted and the state the
/// block was actually in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FsmError {
    pub op: &'static str,
    pub actual: &'static str,
}

impl fmt::Display for FsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "illegal block transition {} from state {}",
            self.op, self.actual
        )
    }
}

impl std::error::Error for FsmError {}

impl SrcState {
    pub(crate) fn name(self) -> &'static str {
        match self {
            SrcState::Free => "Free",
            SrcState::Loading => "Loading",
            SrcState::Loaded => "Loaded",
            SrcState::StartSending => "StartSending",
            SrcState::Waiting => "Waiting",
        }
    }

    fn step(self, op: &'static str, from: SrcState, to: SrcState) -> Result<SrcState, FsmError> {
        if self == from {
            Ok(to)
        } else {
            Err(FsmError {
                op,
                actual: self.name(),
            })
        }
    }

    /// `get_free_blk`: reserve for loading.
    pub fn reserve(self) -> Result<SrcState, FsmError> {
        self.step("reserve", SrcState::Free, SrcState::Loading)
    }

    /// Data finished loading from the application.
    pub fn loaded(self) -> Result<SrcState, FsmError> {
        self.step("loaded", SrcState::Loading, SrcState::Loaded)
    }

    /// A memory-semantic task is being built and posted.
    pub fn start_sending(self) -> Result<SrcState, FsmError> {
        self.step("start_sending", SrcState::Loaded, SrcState::StartSending)
    }

    /// The post succeeded; contents are in flight.
    pub fn posted(self) -> Result<SrcState, FsmError> {
        self.step("posted", SrcState::StartSending, SrcState::Waiting)
    }

    /// Completion polled successfully: block is reusable.
    pub fn complete(self) -> Result<SrcState, FsmError> {
        self.step("complete", SrcState::Waiting, SrcState::Free)
    }

    /// Completion polled with failure: back to Loaded for re-send
    /// (the paper: "'loaded' for re-sending if polling fails").
    pub fn send_failed(self) -> Result<SrcState, FsmError> {
        self.step("send_failed", SrcState::Waiting, SrcState::Loaded)
    }
}

impl SnkState {
    pub(crate) fn name(self) -> &'static str {
        match self {
            SnkState::Free => "Free",
            SnkState::Waiting => "Waiting",
            SnkState::DataReady => "DataReady",
        }
    }

    fn step(self, op: &'static str, from: SnkState, to: SnkState) -> Result<SnkState, FsmError> {
        if self == from {
            Ok(to)
        } else {
            Err(FsmError {
                op,
                actual: self.name(),
            })
        }
    }

    /// The block was advertised to the source as a credit.
    pub fn grant(self) -> Result<SnkState, FsmError> {
        self.step("grant", SnkState::Free, SnkState::Waiting)
    }

    /// A finish notification for this block arrived.
    pub fn ready(self) -> Result<SnkState, FsmError> {
        self.step("ready", SnkState::Waiting, SnkState::DataReady)
    }

    /// `put_free_blk`: the application consumed the payload.
    pub fn put_free(self) -> Result<SnkState, FsmError> {
        self.step("put_free", SnkState::DataReady, SnkState::Free)
    }

    /// Teardown reclamation: a credit that was advertised but never used
    /// by the time its session completed returns to the free pool.
    pub fn revoke(self) -> Result<SnkState, FsmError> {
        self.step("revoke", SnkState::Waiting, SnkState::Free)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // spec: [P2-source-fsm] [P4.2-load]
    #[test]
    fn source_happy_path() {
        let s = SrcState::Free;
        let s = s.reserve().unwrap();
        assert_eq!(s, SrcState::Loading);
        let s = s.loaded().unwrap();
        let s = s.start_sending().unwrap();
        let s = s.posted().unwrap();
        assert_eq!(s, SrcState::Waiting);
        assert_eq!(s.complete().unwrap(), SrcState::Free);
    }

    // spec: [P2-source-fsm]
    #[test]
    fn source_resend_path() {
        // Waiting --poll failure--> Loaded --> send again.
        let s = SrcState::Waiting;
        let s = s.send_failed().unwrap();
        assert_eq!(s, SrcState::Loaded);
        assert!(s.start_sending().is_ok());
    }

    // spec: [P2-source-fsm]
    #[test]
    fn source_illegal_transitions_error() {
        assert!(SrcState::Free.loaded().is_err());
        assert!(SrcState::Free.complete().is_err());
        assert!(SrcState::Loading.reserve().is_err());
        assert!(SrcState::Loaded.posted().is_err());
        assert!(SrcState::Waiting.reserve().is_err());
        let e = SrcState::Waiting.start_sending().unwrap_err();
        assert_eq!(e.op, "start_sending");
        assert_eq!(e.actual, "Waiting");
    }

    // spec: [P2-sink-fsm]
    #[test]
    fn sink_happy_path() {
        let s = SnkState::Free;
        let s = s.grant().unwrap();
        let s = s.ready().unwrap();
        assert_eq!(s.put_free().unwrap(), SnkState::Free);
    }

    // spec: [P2-sink-fsm]
    #[test]
    fn sink_illegal_transitions_error() {
        assert!(SnkState::Free.ready().is_err());
        assert!(SnkState::Free.put_free().is_err());
        assert!(SnkState::Waiting.grant().is_err());
        assert!(SnkState::DataReady.grant().is_err());
        assert!(SnkState::DataReady.ready().is_err());
    }

    /// Exhaustive: from every state exactly one transition is legal on the
    /// sink (plus the resend alternative at the source's Waiting).
    // spec: [P2-source-fsm] [P2-sink-fsm]
    #[test]
    fn exhaustive_legality() {
        use SrcState::*;
        type SrcOp = fn(SrcState) -> Result<SrcState, FsmError>;
        let src_ops: [(&str, SrcOp); 6] = [
            ("reserve", SrcState::reserve),
            ("loaded", SrcState::loaded),
            ("start_sending", SrcState::start_sending),
            ("posted", SrcState::posted),
            ("complete", SrcState::complete),
            ("send_failed", SrcState::send_failed),
        ];
        for st in [Free, Loading, Loaded, StartSending, Waiting] {
            let legal = src_ops.iter().filter(|(_, f)| f(st).is_ok()).count();
            let expect = if st == Waiting { 2 } else { 1 };
            assert_eq!(legal, expect, "state {st:?}");
        }
    }
}
