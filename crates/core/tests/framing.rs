//! Stream-framing robustness: control frames split across arbitrary
//! partial reads must reassemble byte-exactly.
//!
//! A TCP read returns any prefix of the bytes in flight, so the
//! [`FrameDecoder`] sees frame boundaries nowhere in particular: mid
//! length-prefix, mid body, several frames at once. These properties
//! feed a random message sequence through random chunkings — from
//! 1-byte reads up to the whole stream in one push — and assert the
//! decoded sequence equals the encoded one, with no bytes left over.

use proptest::prelude::*;
use rftp_core::wire::{
    encode_stream_frame, BlockAck, Credit, CtrlMsg, FrameDecoder, CTRL_SLOT_LEN, FRAME_PREFIX_LEN,
};

/// A corpus-indexed control message: every variant that crosses the
/// stream in phase 2/3, with size-varying batch payloads.
fn msg(ix: u8, n: usize) -> CtrlMsg {
    let n = n.clamp(1, 8);
    match ix % 7 {
        0 => CtrlMsg::SessionRequest {
            session: 1,
            block_size: 256 << 10,
            channels: 8,
            total_bytes: 1 << 30,
            notify_imm: ix & 8 != 0,
        },
        1 => CtrlMsg::SessionAccept {
            session: 1,
            block_size: 256 << 10,
            data_qpns: (0..n as u32).collect(),
        },
        2 => CtrlMsg::MrRequest { session: 1 },
        3 => CtrlMsg::Credits {
            session: 1,
            credits: (0..n as u32)
                .map(|i| Credit {
                    slot: i,
                    rkey: 0x11FE,
                    offset: i as u64 * 65560,
                    len: 65560,
                })
                .collect(),
        },
        4 => CtrlMsg::AckBatch {
            session: 1,
            acks: (0..n as u32)
                .map(|i| BlockAck {
                    seq: 1000 + i,
                    slot: i,
                    len: 65536 - i,
                })
                .collect(),
        },
        5 => CtrlMsg::CreditBatch {
            session: 1,
            rkey: 0x11FE,
            slot_len: 65560,
            slots: (0..n as u32).rev().collect(),
        },
        _ => CtrlMsg::DatasetComplete {
            session: 1,
            total_blocks: 1 + ix as u32,
        },
    }
}

fn encode_all(msgs: &[CtrlMsg]) -> Vec<u8> {
    let mut stream = Vec::new();
    let mut buf = [0u8; FRAME_PREFIX_LEN + CTRL_SLOT_LEN];
    for m in msgs {
        let len = encode_stream_frame(m, &mut buf);
        stream.extend_from_slice(&buf[..len]);
    }
    stream
}

/// Feed `stream` to a decoder in chunks whose sizes cycle through
/// `cuts`; return every decoded message.
fn decode_chunked(stream: &[u8], cuts: &[usize]) -> Vec<CtrlMsg> {
    let mut dec = FrameDecoder::new();
    let mut got = Vec::new();
    let mut off = 0;
    let mut ci = 0;
    while off < stream.len() {
        let take = cuts[ci % cuts.len()].clamp(1, stream.len() - off);
        ci += 1;
        dec.push(&stream[off..off + take]);
        off += take;
        while let Some(m) = dec.next_frame().expect("well-formed stream must decode") {
            got.push(m);
        }
    }
    assert_eq!(dec.pending_bytes(), 0, "no bytes may be left over");
    got
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        ..ProptestConfig::default()
    })]

    // spec: [P7-ctrl-codec]
    #[test]
    fn random_chunk_boundaries_reassemble_exactly(
        picks in prop::collection::vec((any::<u8>(), 1usize..=8), 1..24),
        cuts in prop::collection::vec(1usize..=64, 1..16),
    ) {
        let msgs: Vec<CtrlMsg> = picks.iter().map(|&(ix, n)| msg(ix, n)).collect();
        let stream = encode_all(&msgs);
        prop_assert_eq!(decode_chunked(&stream, &cuts), msgs);
    }

    // spec: [P7-ctrl-codec]
    #[test]
    fn one_byte_reads_reassemble_exactly(
        picks in prop::collection::vec((any::<u8>(), 1usize..=8), 1..12),
    ) {
        let msgs: Vec<CtrlMsg> = picks.iter().map(|&(ix, n)| msg(ix, n)).collect();
        let stream = encode_all(&msgs);
        prop_assert_eq!(decode_chunked(&stream, &[1]), msgs);
    }

    // spec: [P7-ctrl-codec]
    #[test]
    fn whole_stream_single_push_reassembles_exactly(
        picks in prop::collection::vec((any::<u8>(), 1usize..=8), 1..24),
    ) {
        let msgs: Vec<CtrlMsg> = picks.iter().map(|&(ix, n)| msg(ix, n)).collect();
        let stream = encode_all(&msgs);
        prop_assert_eq!(decode_chunked(&stream, &[stream.len()]), msgs);
    }

    /// A WAN path reorders and duplicates whole frames (the netem shim
    /// does exactly this between channels); exactly-once is the claim
    /// bitmap's job a layer up. The framing contract underneath it:
    /// any *frame-level* impairment composed with any chunking still
    /// decodes each delivered frame intact and in delivery order —
    /// reordering and duplication must never desynchronize the length-
    /// prefixed stream itself.
    // spec: [P7-ctrl-codec]
    #[test]
    fn reordered_and_duplicated_frames_never_desynchronize(
        picks in prop::collection::vec((any::<u8>(), 1usize..=8), 1..16),
        swaps in prop::collection::vec((0usize..64, 0usize..64), 0..12),
        dups in prop::collection::vec(0usize..64, 0..6),
        cuts in prop::collection::vec(1usize..=48, 1..12),
    ) {
        let mut frames: Vec<CtrlMsg> = picks.iter().map(|&(ix, n)| msg(ix, n)).collect();
        // Impair the frame sequence: arbitrary transpositions, then a
        // few duplicated deliveries spliced back in.
        for &(a, b) in &swaps {
            let (a, b) = (a % frames.len(), b % frames.len());
            frames.swap(a, b);
        }
        for &d in &dups {
            let d = d % frames.len();
            let copy = frames[d].clone();
            frames.insert(d, copy);
        }
        let stream = encode_all(&frames);
        prop_assert_eq!(decode_chunked(&stream, &cuts), frames);
    }
}
