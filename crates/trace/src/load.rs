//! Compact per-second signaling-load runs.
//!
//! Pass 2 of a cell-topology run sums the RRC messages of each user's
//! replay per second: the user's [`LoadDeltas`], `(second, msgs)` pairs
//! strictly ascending by second. Which cell a second's messages load is
//! the fold's business, not the run's: the fold cuts the run where the
//! user's cell changes. So the replay memo keeps one run for every
//! replayed user, whatever the topology's cell count or mobility model,
//! and a `.twr` spill stores it verbatim. It lives as bytes, about 2 a
//! pair on real traffic (second gaps under 128, a few messages each)
//! instead of 16.
//!
//! ## Layout
//!
//! `varint(zigzag(first second))`, `varint(msgs)`, then for each further
//! pair `varint(second − previous second − 1)`, `varint(msgs)`. A user
//! who charged no second is zero bytes.
//!
//! A varint is unsigned LEB128: seven bits a byte, the low group first,
//! the high bit set on every byte but the last, at most ten bytes.
//! Storing every gap less one makes the strict order hold by
//! construction: no byte string decodes to a repeated or descending
//! second. [`LoadDeltas::from_bytes`] accepts only the canonical form
//! (no padding byte, no bit beyond the 64th, no overflow, exactly the
//! declared pairs and nothing after them), so two values are equal
//! exactly when their pairs are, and the derived `Eq` is bit equality.

use core::fmt;

use crate::error::TraceError;

/// A user's per-second signaling load: `(second, msgs)` pairs strictly
/// ascending by second, held as one byte run (see the
/// [module docs](self) for the layout).
///
/// Built by [`from_pairs`](Self::from_pairs), which checks the order, or
/// read back by [`from_bytes`](Self::from_bytes), which checks the
/// encoding; either way every value is canonical, so decoding never
/// fails.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct LoadDeltas {
    /// Pairs held.
    len: u64,
    /// The run, at its exact length.
    bytes: Box<[u8]>,
}

impl LoadDeltas {
    /// Encodes `pairs`, which must be strictly ascending by second; the
    /// first one out of order is a [`TraceError::Parse`] at its index.
    pub fn from_pairs(
        pairs: impl IntoIterator<Item = (i64, u64)>,
    ) -> Result<LoadDeltas, TraceError> {
        let mut bytes = Vec::new();
        let mut last: Option<i64> = None;
        let mut len = 0u64;
        for (index, (second, msgs)) in pairs.into_iter().enumerate() {
            match last {
                None => put_varint(&mut bytes, zigzag(second)),
                Some(last) if last < second => put_varint(&mut bytes, second.abs_diff(last) - 1),
                Some(last) => {
                    return Err(TraceError::Parse {
                        location: index,
                        message: format!(
                            "load second {second} does not follow {last}: pairs must be \
                             strictly ascending by second"
                        ),
                    });
                }
            }
            put_varint(&mut bytes, msgs);
            last = Some(second);
            len += 1;
        }
        Ok(LoadDeltas { len, bytes: bytes.into_boxed_slice() })
    }

    /// Takes `bytes` as the run of `len` pairs, checking that it is
    /// canonical: every varint ends inside the run, fits 64 bits and
    /// carries no padding byte; seconds stay in range; and the run holds
    /// exactly `len` pairs. A failure is a [`TraceError::Parse`] at the
    /// byte offset where it was found.
    pub fn from_bytes(len: u64, bytes: Vec<u8>) -> Result<LoadDeltas, TraceError> {
        check(len, &bytes)
            .map_err(|(location, message)| TraceError::Parse { location, message })?;
        Ok(LoadDeltas { len, bytes: bytes.into_boxed_slice() })
    }

    /// Pairs held.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when the user charged no second at all.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The encoded run, as [`from_bytes`](Self::from_bytes) takes it.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Replaces `out`'s contents with the pairs, ascending by second,
    /// in one pass over the run.
    pub fn decode_into(&self, out: &mut Vec<(i64, u64)>) {
        out.clear();
        if self.bytes.is_empty() {
            return;
        }
        out.reserve(self.len as usize);
        let mut at = 0;
        let mut second = unzigzag(take_varint(&self.bytes, &mut at));
        out.push((second, take_varint(&self.bytes, &mut at)));
        // Canonical runs keep every sum in range, so wrapping arithmetic
        // is exact here.
        let mut rest = &self.bytes[at..];
        loop {
            match rest {
                // Most pairs: a gap under 128 and a count under 128, one
                // byte each.
                [gap, msgs, tail @ ..] if (gap | msgs) < 0x80 => {
                    second = second.wrapping_add(*gap as i64 + 1);
                    out.push((second, *msgs as u64));
                    rest = tail;
                }
                [] => return,
                _ => {
                    let mut at = 0;
                    second = second.wrapping_add(take_varint(rest, &mut at) as i64).wrapping_add(1);
                    out.push((second, take_varint(rest, &mut at)));
                    rest = &rest[at..];
                }
            }
        }
    }

    /// Every pair, decoded, ascending by second.
    pub fn to_pairs(&self) -> Vec<(i64, u64)> {
        let mut pairs = Vec::new();
        self.decode_into(&mut pairs);
        pairs
    }
}

impl fmt::Debug for LoadDeltas {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.to_pairs()).finish()
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(u: u64) -> i64 {
    (u >> 1) as i64 ^ -((u & 1) as i64)
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Reads a varint already known to be canonical.
#[inline]
fn take_varint(bytes: &[u8], at: &mut usize) -> u64 {
    let first = bytes[*at];
    *at += 1;
    if first < 0x80 {
        return first as u64;
    }
    let (mut v, mut shift) = ((first & 0x7F) as u64, 7);
    loop {
        let b = bytes[*at];
        *at += 1;
        v |= ((b & 0x7F) as u64) << shift;
        if b < 0x80 {
            return v;
        }
        shift += 7;
    }
}

type CheckError = (usize, String);

/// Reads the varint at `*at` from bytes not yet trusted.
fn checked_varint(bytes: &[u8], at: &mut usize, what: &str) -> Result<u64, CheckError> {
    let start = *at;
    let (mut v, mut shift) = (0u64, 0);
    loop {
        let Some(&b) = bytes.get(*at) else {
            return Err((start, format!("truncated {what} varint")));
        };
        *at += 1;
        // The tenth byte holds bit 63 alone.
        if shift == 63 && b > 1 {
            return Err((start, format!("{what} varint overflows 64 bits")));
        }
        v |= ((b & 0x7F) as u64) << shift;
        if b < 0x80 {
            if b == 0 && shift > 0 {
                return Err((start, format!("{what} varint has a padding byte")));
            }
            return Ok(v);
        }
        shift += 7;
    }
}

/// Checks `bytes` as the canonical run of `len` pairs.
fn check(len: u64, bytes: &[u8]) -> Result<(), CheckError> {
    let mut at = 0;
    let mut second: Option<i64> = None;
    let mut pairs = 0u64;
    // Each pair takes at least two bytes, so a corrupt count ends at the
    // run's end, not after `len` steps.
    while at < bytes.len() {
        let start = at;
        second = Some(match second {
            None => unzigzag(checked_varint(bytes, &mut at, "first second")?),
            Some(last) => last
                .checked_add_unsigned(checked_varint(bytes, &mut at, "second gap")?)
                .and_then(|s| s.checked_add(1))
                .ok_or_else(|| (start, "second overflows 64 bits".to_string()))?,
        });
        checked_varint(bytes, &mut at, "message count")?;
        pairs += 1;
    }
    if pairs != len {
        return Err((
            bytes.len(),
            format!("the run holds {pairs} pair(s), not the declared {len}"),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn encode(pairs: &[(i64, u64)]) -> LoadDeltas {
        LoadDeltas::from_pairs(pairs.iter().copied()).unwrap()
    }

    fn message(result: Result<LoadDeltas, TraceError>) -> String {
        match result {
            Err(TraceError::Parse { message, .. }) => message,
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    #[test]
    fn typical_traffic_takes_two_bytes_a_pair() {
        // A message burst every few seconds: one byte per gap and one
        // per count.
        let pairs: Vec<_> = (0..100).map(|i| (1_000 + 7 * i, 1 + (i as u64 % 5))).collect();
        let deltas = encode(&pairs);
        assert_eq!(deltas.len(), 100);
        // Two bytes a pair, and one more for the first second, whose
        // zigzag (2000) takes two.
        assert_eq!(deltas.as_bytes().len(), 201);
        assert_eq!(deltas.to_pairs(), pairs);
    }

    #[test]
    fn the_layout_is_pinned() {
        let deltas = encode(&[(-3, 28), (90, 5), (91, 300), (300, 6)]);
        #[rustfmt::skip]
        let expect = [
            // zigzag(-3) = 5, 28 messages.
            5, 28,
            // Gap 93 stored as 92, 5 messages.
            92, 5,
            // Gap 1 stored as 0, then 300 messages in two bytes.
            0, 172, 2,
            // Gap 209 stored as 208 in two bytes, 6 messages.
            208, 1, 6,
        ];
        assert_eq!(deltas.as_bytes(), &expect[..], "{deltas:?}");
        assert_eq!(LoadDeltas::from_bytes(4, expect.to_vec()).unwrap(), deltas);
    }

    #[test]
    fn the_constructor_rejects_out_of_order_and_repeated_pairs() {
        let swapped = [(5, 1), (4, 1)];
        let repeated = [(5, 1), (5, 2)];
        for bad in [&swapped[..], &repeated] {
            let err = LoadDeltas::from_pairs(bad.iter().copied()).unwrap_err();
            assert!(matches!(err, TraceError::Parse { location: 1, .. }), "{bad:?}: {err}");
            assert!(err.to_string().contains("strictly ascending"), "{err}");
        }
    }

    #[test]
    fn empty_deltas_are_zero_bytes() {
        let empty = encode(&[]);
        assert!(empty.is_empty() && empty.as_bytes().is_empty());
        assert_eq!(empty, LoadDeltas::default());
        assert_eq!(LoadDeltas::from_bytes(0, Vec::new()).unwrap(), empty);
        assert!(empty.to_pairs().is_empty());
    }

    #[test]
    fn malformed_runs_are_typed_errors() {
        let valid = encode(&[(1, 2), (3, 4), (9, 1)]);
        let bytes = valid.as_bytes().to_vec();
        assert_eq!(bytes, [2, 2, 1, 4, 5, 1]);
        let cases: [(&str, Vec<u8>, u64); 7] = [
            ("truncated", bytes[..bytes.len() - 1].to_vec(), 3),
            ("count mismatch", bytes.clone(), 4),
            ("longer than its pairs", bytes.clone(), 2),
            ("padding byte", [&[0x82, 0][..], &bytes[1..]].concat(), 3),
            ("eleven bytes", [&[0x80; 10][..], &[1, 0]].concat(), 1),
            ("overflows 64 bits", [&[0xFF; 9][..], &[2, 1]].concat(), 1),
            (
                "second overflow",
                // Second i64::MAX − 1 (zigzag 2^64 − 4), then a gap of 1.
                [&[0xFC][..], &[0xFF; 8], &[1, 0, 1, 0]].concat(),
                2,
            ),
        ];
        for (what, bytes, len) in cases {
            let result = LoadDeltas::from_bytes(len, bytes.clone());
            assert!(matches!(result, Err(TraceError::Parse { .. })), "{what}: {bytes:?}");
        }
        // The messages name the fault.
        let overflow = message(LoadDeltas::from_bytes(1, [&[0xFF; 9][..], &[2, 1]].concat()));
        assert!(overflow.contains("overflows 64 bits"), "{overflow}");
        let count = message(LoadDeltas::from_bytes(4, bytes.clone()));
        assert!(count.contains("3 pair(s), not the declared 4"), "{count}");
        // The largest second still decodes: one below i64::MAX, then it.
        let top = encode(&[(i64::MAX - 1, 0), (i64::MAX, 0)]);
        assert_eq!(LoadDeltas::from_bytes(2, top.as_bytes().to_vec()).unwrap(), top);
    }

    /// Ascending pairs over small and extreme seconds and message
    /// counts: each component picks an extreme a quarter of the time.
    fn arb_pairs() -> impl Strategy<Value = Vec<(i64, u64)>> {
        let second = (0usize..12, -200i64..200, -1_000_000_000i64..1_000_000_000).prop_map(
            |(pick, near, far)| match pick {
                0 => i64::MIN,
                1 => i64::MIN + 1,
                2 => i64::MAX - 1,
                3 => i64::MAX,
                4..=7 => far,
                _ => near,
            },
        );
        let msgs =
            (0usize..8, 0u64..130, 0u64..u64::MAX).prop_map(|(pick, small, any)| match pick {
                0 => 0,
                1 => u64::MAX,
                2 => any,
                _ => small,
            });
        prop::collection::vec((second, msgs), 0..40).prop_map(|mut pairs| {
            pairs.sort_unstable_by_key(|&(second, _)| second);
            pairs.dedup_by_key(|&mut (second, _)| second);
            pairs
        })
    }

    proptest! {
        /// Encoding then decoding is the identity over any ascending
        /// pairs — negative seconds, both `i64` extremes, and message
        /// counts of 0 and `u64::MAX` included — and the bytes read back
        /// as the same value.
        #[test]
        fn encode_decode_is_the_identity(pairs in arb_pairs()) {
            let deltas = encode(&pairs);
            prop_assert_eq!(deltas.len(), pairs.len() as u64);
            prop_assert_eq!(deltas.to_pairs(), pairs);
            let back = LoadDeltas::from_bytes(deltas.len(), deltas.as_bytes().to_vec()).unwrap();
            prop_assert_eq!(back, deltas);
        }

        /// Arbitrary damage to a valid run is a typed error or a
        /// canonical value that encodes back to the same bytes — never a
        /// panic, and never an allocation beyond the bytes given.
        #[test]
        fn damaged_runs_fail_cleanly(
            pairs in arb_pairs(),
            flips in prop::collection::vec((0usize..512, 0u8..=255), 1..6),
            cut in 0usize..512,
            truncate in prop::bool::ANY,
            len_delta in -2i64..=2,
        ) {
            let deltas = encode(&pairs);
            let mut bytes = deltas.as_bytes().to_vec();
            if truncate {
                bytes.truncate(cut % (bytes.len() + 1));
            }
            for (at, byte) in flips {
                if !bytes.is_empty() {
                    let at = at % bytes.len();
                    bytes[at] = byte;
                }
            }
            let len = deltas.len().saturating_add_signed(len_delta);
            if let Ok(back) = LoadDeltas::from_bytes(len, bytes.clone()) {
                let pairs = back.to_pairs();
                prop_assert_eq!(pairs.len() as u64, len);
                prop_assert!(pairs.windows(2).all(|w| w[0].0 < w[1].0));
                let again = encode(&pairs);
                prop_assert_eq!(again.as_bytes(), &bytes[..]);
            }
        }
    }
}
