//! Deterministic test-data pattern, its verifier, and a checksum,
//! word-at-a-time.
//!
//! One definition shared by every layer that generates or verifies
//! payload bytes — [`crate::mr::MemoryRegion`] (simulated registered
//! memory), the `rftp-core` simulator's real-data sink, and the
//! `rftp-live` pipeline's loaders and sink — so a pattern written
//! anywhere checks out anywhere else.
//!
//! **The stream.** The pattern for `seed` is the little-endian
//! serialization of the words `w_j = mix(seed) + j·STEP` (wrapping), cut
//! to the buffer's length; a ragged tail holds the low bytes of the next
//! word. Byte `k` depends only on `(seed, k)`, so a receiver can recompute
//! any range without knowing where in the sender's region the data lived.
//! `STEP` is odd, so `j ↦ j·STEP` is a bijection on `u64` and the words of
//! one block are pairwise distinct; `mix` is a bijection too, so two
//! distinct seeds never start a block with the same word.
//!
//! **One mix per block.** Loaders fill and the sink verifies every payload
//! byte on the live pipeline's measured path, so the stream is built to be
//! cheap to make: the multiply-xorshift scramble runs once per block to
//! pick the starting word, and each further word is one add — an
//! induction the compiler vectorizes — instead of one multiply per 8
//! bytes.
//!
//! **Exact to check.** [`pattern_matches`] regenerates the stream and
//! compares every byte against it in one pass; nothing is folded, so a
//! block passes only if it is byte-identical to what the source wrote.
//! [`checksum`] (four interleaved FNV-style fold lanes, length-finalized)
//! is no longer on the live path: it stays for comparing files, simulated
//! regions and test buffers.

/// FNV-1a 64-bit offset basis (used as the fold's initial state).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime (used as the fold's multiplier).
const FNV_PRIME: u64 = 0x1000_0000_01b3;

/// Distance between consecutive words of one block: the 64-bit golden
/// ratio (splitmix64's Weyl increment). Odd, so a block's words never
/// repeat; dense in both halves, so neighbouring words differ in many
/// bits and low bytes.
const STEP: u64 = 0x9E37_79B9_7F4A_7C15;

/// Multiply-xorshift scramble of the seed into a block's first word.
/// Both steps are bijections on `u64` (an odd multiplier, a right
/// xorshift), so distinct seeds give distinct first words. Test data
/// needs to be position- and seed-unique, not cryptographic.
#[inline]
fn mix(x: u64) -> u64 {
    let z = (x ^ 0x9E37_79B9_7F4A_7C15).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 31)
}

/// Fill `buf` with the deterministic pattern for `seed`.
pub fn fill_pattern(buf: &mut [u8], seed: u64) {
    let mut w = mix(seed);
    let mut words = buf.chunks_exact_mut(8);
    for c in &mut words {
        c.copy_from_slice(&w.to_le_bytes());
        w = w.wrapping_add(STEP);
    }
    let rem = words.into_remainder();
    let n = rem.len();
    rem.copy_from_slice(&w.to_le_bytes()[..n]);
}

/// Whether `buf` is exactly the [`fill_pattern`] stream for `seed`:
/// every byte, ragged tail included, compared in one pass. The words'
/// differences are or-ed together rather than tested one by one, so the
/// loop has no data-dependent branch and vectorizes like the fill.
pub fn pattern_matches(buf: &[u8], seed: u64) -> bool {
    let mut w = mix(seed);
    let mut diff = 0u64;
    let mut words = buf.chunks_exact(8);
    for c in &mut words {
        diff |= u64::from_le_bytes(c.try_into().expect("8-byte chunk")) ^ w;
        w = w.wrapping_add(STEP);
    }
    let rem = words.remainder();
    diff == 0 && *rem == w.to_le_bytes()[..rem.len()]
}

/// Fold one word into the running checksum state.
#[inline]
fn fold(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(FNV_PRIME)
}

/// Checksum of a byte range: four interleaved 8-byte fold lanes (words
/// `4i+l` feed lane `l`, so the multiplies are independent), combined,
/// then the trailing words, the zero-padded partial word and the length
/// folded in so prefixes don't collide.
pub fn checksum(buf: &[u8]) -> u64 {
    let mut lanes = [FNV_OFFSET; 4];
    let mut groups = buf.chunks_exact(32);
    for g in &mut groups {
        for (l, w) in lanes.iter_mut().zip(g.chunks_exact(8)) {
            *l = fold(*l, u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
    }
    let mut h = lanes.into_iter().reduce(fold).expect("four lanes");
    let mut chunks = groups.remainder().chunks_exact(8);
    for c in &mut chunks {
        h = fold(h, u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut w = [0u8; 8];
        w[..rem.len()].copy_from_slice(rem);
        h = fold(h, u64::from_le_bytes(w));
    }
    fold(h, buf.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every lane-group / tail-word / partial-byte shape (0..=67) plus
    /// page-sized and odd large blocks.
    fn lengths() -> impl Iterator<Item = usize> {
        (0usize..=67).chain([4096, 4097, 100_003])
    }

    fn filled(len: usize, seed: u64) -> Vec<u8> {
        let mut buf = vec![0u8; len];
        fill_pattern(&mut buf, seed);
        buf
    }

    #[test]
    fn pattern_matches_its_own_fill_at_every_length() {
        for len in lengths() {
            assert!(
                pattern_matches(&filled(len, 0xDEAD_BEEF), 0xDEAD_BEEF),
                "len {len}"
            );
        }
    }

    #[test]
    fn any_single_byte_flip_fails_the_match() {
        for len in lengths() {
            let mut buf = filled(len, 77);
            // Every offset, except that the 100 003-byte block (a full
            // re-scan per flip) takes its head, its tail and a prime
            // stride, which still lands on every byte lane of a word.
            let probe =
                |&k: &usize| len <= 4097 || k < 256 || k + 256 >= len || k.is_multiple_of(61);
            for k in (0..len).filter(probe) {
                buf[k] ^= 0x01;
                assert!(!pattern_matches(&buf, 77), "flip at {k} of {len}");
                buf[k] ^= 0x81;
                assert!(!pattern_matches(&buf, 77), "flip at {k} of {len}");
                buf[k] ^= 0x80;
            }
            assert!(pattern_matches(&buf, 77), "len {len} restored");
        }
    }

    #[test]
    fn a_neighbouring_seed_or_a_shifted_block_fails_the_match() {
        // Seeds as the live pipeline forms them: session in the high
        // half, sequence in the low half, so `seed ± 1` is the block
        // before or after. Below one word the test holds for these seeds
        // (the first words' low bytes differ); from one word up it holds
        // for any seeds, because `mix` is a bijection.
        let seed = (1u64 << 32) | 1000;
        for len in lengths().filter(|&len| len > 0) {
            let buf = filled(len, seed);
            assert!(!pattern_matches(&buf, seed + 1), "seq+1 at len {len}");
            assert!(!pattern_matches(&buf, seed - 1), "seq-1 at len {len}");
            // One word late: w_{j+1} = w_j + STEP, and STEP's low byte is
            // non-zero, so even a one-byte block differs.
            let late = filled(len + 8, seed);
            assert!(!pattern_matches(&late[8..], seed), "shifted at len {len}");
        }
    }

    #[test]
    fn pattern_is_seed_and_position_dependent() {
        assert_ne!(filled(8, 1), filled(8, 2));
        let buf = filled(64 << 10, 3);
        let mut words: Vec<u64> = buf
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        words.sort_unstable();
        words.dedup();
        assert_eq!(words.len(), (64 << 10) / 8, "a block's words repeat");
    }

    #[test]
    fn fill_is_prefix_stable() {
        // Byte k depends only on (seed, k): a short fill is a prefix of a
        // longer one.
        let long = filled(96, 42);
        for len in [1usize, 7, 8, 9, 31, 32, 33, 95] {
            assert_eq!(filled(len, 42)[..], long[..len], "len {len}");
        }
    }

    #[test]
    fn checksum_distinguishes_length_and_content() {
        let buf = filled(16, 9);
        assert_ne!(checksum(&buf[..15]), checksum(&buf));
        assert_ne!(checksum(&[1, 0]), checksum(&[1]));
        let mut tweaked = buf.clone();
        tweaked[3] ^= 1;
        assert_ne!(checksum(&tweaked), checksum(&buf));
    }

    #[test]
    fn checksum_detects_single_bit_flips_across_lanes() {
        let buf = filled(80, 5);
        let base = checksum(&buf);
        for byte in 0..buf.len() {
            let mut t = buf.clone();
            t[byte] ^= 0x80;
            assert_ne!(checksum(&t), base, "flip at byte {byte} undetected");
        }
    }
}
