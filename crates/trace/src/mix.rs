//! Deterministic seed mixing.
//!
//! Every layer that derives child seeds from a master seed (user
//! populations in `tailwise-workload`, fleet scenarios in
//! `tailwise-fleet`, fractional release policies in `tailwise-radio`)
//! must use the *same* mixing function, or regenerating a dataset from a
//! recorded seed would depend on which crate did the deriving. This
//! module is that single definition — the mixer, and the hash chain
//! every spill checksum, cache key and manifest digest folds its words
//! through; it lives here because the trace crate is the workspace's
//! zero-dependency root.

/// The golden-ratio increment SplitMix64 adds before mixing, and the
/// step of a SplitMix64 stream's state.
pub const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 finalizer (Steele, Lea & Flood 2014): a cheap, high-quality
/// 64-bit mixer. Bit-stable across platforms and releases — recorded
/// seeds depend on it.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One hash-chain step: the running hash XOR the next word, mixed.
pub fn fold(h: u64, word: u64) -> u64 {
    splitmix64(h ^ word)
}

/// Folds a byte string eight bytes at a time, each chunk a little-endian
/// word, the last one zero-padded. The length is not folded: a caller
/// that needs two strings of different lengths to stay apart folds it
/// first.
pub fn fold_bytes(h: u64, bytes: &[u8]) -> u64 {
    bytes.chunks(8).fold(h, |h, chunk| {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        fold(h, u64::from_le_bytes(word))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_values_are_pinned() {
        // Regenerating recorded datasets depends on these exact outputs;
        // if this test ever fails, the mixing constants changed.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(1), 0x910A_2DEC_8902_5CC1);
        assert_eq!(splitmix64(0x3001), splitmix64(0x3001));
        assert_ne!(splitmix64(2), splitmix64(3));
    }

    #[test]
    fn fold_bytes_folds_zero_padded_little_endian_words() {
        let h = 0xD16E;
        let two_words = fold(
            fold(h, u64::from_le_bytes(*b"12345678")),
            u64::from_le_bytes(*b"9\0\0\0\0\0\0\0"),
        );
        assert_eq!(fold_bytes(h, b"123456789"), two_words);
        assert_eq!(fold_bytes(h, b""), h, "the length is the caller's to fold");
    }

    #[test]
    fn consecutive_inputs_decorrelate() {
        // Adjacent seeds must not share low bits (they feed RNG states).
        let a = splitmix64(100);
        let b = splitmix64(101);
        assert!((a ^ b).count_ones() > 16, "{a:#x} vs {b:#x}");
    }
}
