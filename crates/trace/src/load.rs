//! Compact per-second signaling-load deltas.
//!
//! Pass 2 of a cell-topology run charges each RRC transition of a user
//! to the cell the user occupies and the second it fires in. The
//! charges sum to the user's [`LoadDeltas`]: `(cell, second, msgs)`
//! triples strictly ascending by `(cell, second)`. The replay memo
//! keeps one for every replayed user and a `.twr` spill stores it
//! verbatim, so it lives as bytes: one varint-coded run per cell, about
//! 2 bytes a triple on real traffic (second gaps under 128, a few
//! messages each) instead of 24.
//!
//! ## Layout
//!
//! The runs follow each other with nothing between them, ascending by
//! cell. Each run is:
//!
//! * `varint(cell − previous run's cell − 1)`; the first run stores
//!   `varint(cell)`;
//! * `varint(entries)`, at least 1;
//! * `varint(body bytes)`, then the body: `varint(zigzag(first
//!   second))`, `varint(msgs)`, then for each further entry
//!   `varint(second − previous second − 1)`, `varint(msgs)`.
//!
//! A varint is unsigned LEB128: seven bits a byte, the low group first,
//! the high bit set on every byte but the last, at most ten bytes.
//! Storing every gap less one makes the strict order hold by
//! construction: no byte string decodes to a repeated or descending
//! pair. [`LoadDeltas::from_bytes`] accepts only the canonical form (no
//! padding byte, no bit beyond the 64th, no empty run, no overflow, each
//! body exactly as long as its entries), so two values are equal exactly
//! when their triples are, and the derived `Eq` is bit equality.

use core::fmt;

use crate::error::TraceError;

/// A user's per-second signaling-load deltas: `(cell, second, msgs)`
/// triples strictly ascending by `(cell, second)`, held as one byte
/// run per cell (see the [module docs](self) for the layout).
///
/// Built by [`from_triples`](Self::from_triples), which checks the
/// order, or read back by [`from_bytes`](Self::from_bytes), which checks
/// the encoding; either way every value is canonical, so decoding never
/// fails.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct LoadDeltas {
    /// Triples held.
    len: u64,
    /// The runs, back to back, at their exact length.
    bytes: Box<[u8]>,
}

/// One cell's entries within a [`LoadDeltas`].
#[derive(Debug, Clone, Copy)]
pub struct LoadRun<'a> {
    /// The cell the run charges.
    pub cell: u64,
    /// Entries in the run, at least 1.
    len: usize,
    body: &'a [u8],
}

/// The runs of a [`LoadDeltas`], ascending by cell.
#[derive(Debug, Clone)]
pub struct LoadRuns<'a> {
    bytes: &'a [u8],
    at: usize,
    cell: Option<u64>,
}

impl LoadDeltas {
    /// Encodes `triples`, which must be strictly ascending by
    /// `(cell, second)`; the first one out of order is a
    /// [`TraceError::Parse`] at its index.
    pub fn from_triples(
        triples: impl IntoIterator<Item = (u64, i64, u64)>,
    ) -> Result<LoadDeltas, TraceError> {
        let mut bytes = Vec::new();
        let mut body = Vec::new();
        let mut len = 0u64;
        // The open run's cell, entries and last second, and the cell of
        // the run before it.
        let mut run: Option<(u64, u64, i64)> = None;
        let mut prev_cell: Option<u64> = None;
        for (index, (cell, second, msgs)) in triples.into_iter().enumerate() {
            match run {
                Some((c, entries, last)) if c == cell && last < second => {
                    put_varint(&mut body, second.abs_diff(last) - 1);
                    run = Some((c, entries + 1, second));
                }
                Some((c, _, last)) if (c, last) >= (cell, second) => {
                    return Err(TraceError::Parse {
                        location: index,
                        message: format!(
                            "load triple ({cell}, {second}) does not follow ({c}, {last}): \
                             triples must be strictly ascending by (cell, second)"
                        ),
                    });
                }
                open => {
                    if let Some((c, entries, _)) = open {
                        close_run(&mut bytes, &body, prev_cell, c, entries);
                        prev_cell = Some(c);
                    }
                    body.clear();
                    put_varint(&mut body, zigzag(second));
                    run = Some((cell, 1, second));
                }
            }
            put_varint(&mut body, msgs);
            len += 1;
        }
        if let Some((c, entries, _)) = run {
            close_run(&mut bytes, &body, prev_cell, c, entries);
        }
        Ok(LoadDeltas { len, bytes: bytes.into_boxed_slice() })
    }

    /// Takes `bytes` as the runs of `len` triples, checking that they are
    /// canonical: every varint ends inside its run, fits 64 bits and
    /// carries no padding byte; no run is empty; each body holds exactly
    /// its entries; cells and seconds stay in range; and the runs hold
    /// `len` triples in all. A failure is a [`TraceError::Parse`] at the
    /// byte offset where it was found.
    pub fn from_bytes(len: u64, bytes: Vec<u8>) -> Result<LoadDeltas, TraceError> {
        check(len, &bytes)
            .map_err(|(location, message)| TraceError::Parse { location, message })?;
        Ok(LoadDeltas { len, bytes: bytes.into_boxed_slice() })
    }

    /// Triples held.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when the user charged no cell at all.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The encoded runs, as [`from_bytes`](Self::from_bytes) takes them.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The runs, ascending by cell.
    pub fn runs(&self) -> LoadRuns<'_> {
        LoadRuns { bytes: &self.bytes, at: 0, cell: None }
    }

    /// Every triple, decoded, in `(cell, second)` order.
    pub fn to_triples(&self) -> Vec<(u64, i64, u64)> {
        let mut triples = Vec::with_capacity(self.len as usize);
        let mut entries = Vec::new();
        for run in self.runs() {
            run.decode_into(&mut entries);
            triples.extend(entries.iter().map(|&(second, msgs)| (run.cell, second, msgs)));
        }
        triples
    }
}

impl fmt::Debug for LoadDeltas {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.to_triples()).finish()
    }
}

impl LoadRun<'_> {
    /// Replaces `out`'s contents with the run's `(second, msgs)` entries,
    /// strictly ascending by second, in one pass over its body.
    pub fn decode_into(&self, out: &mut Vec<(i64, u64)>) {
        out.clear();
        out.reserve(self.len);
        let mut at = 0;
        let mut second = unzigzag(take_varint(self.body, &mut at));
        out.push((second, take_varint(self.body, &mut at)));
        // Canonical bodies keep every sum in range, so wrapping
        // arithmetic is exact here.
        let mut rest = &self.body[at..];
        loop {
            match rest {
                // Most entries: a gap under 128 and a count under 128,
                // one byte each.
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
}

impl<'a> Iterator for LoadRuns<'a> {
    type Item = LoadRun<'a>;

    fn next(&mut self) -> Option<LoadRun<'a>> {
        if self.at == self.bytes.len() {
            return None;
        }
        let gap = take_varint(self.bytes, &mut self.at);
        let cell = self.cell.map_or(gap, |prev| prev.wrapping_add(gap).wrapping_add(1));
        self.cell = Some(cell);
        let len = take_varint(self.bytes, &mut self.at) as usize;
        let body_len = take_varint(self.bytes, &mut self.at) as usize;
        let body = &self.bytes[self.at..self.at + body_len];
        self.at += body_len;
        Some(LoadRun { cell, len, body })
    }
}

/// Appends one finished run: its cell gap, entry count, body length and
/// body.
fn close_run(bytes: &mut Vec<u8>, body: &[u8], prev_cell: Option<u64>, cell: u64, entries: u64) {
    put_varint(bytes, prev_cell.map_or(cell, |prev| cell - prev - 1));
    put_varint(bytes, entries);
    put_varint(bytes, body.len() as u64);
    bytes.extend_from_slice(body);
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

/// A position in bytes that are not yet trusted.
struct Checked<'a> {
    bytes: &'a [u8],
    at: usize,
}

type CheckError = (usize, String);

impl Checked<'_> {
    fn varint(&mut self, what: &str) -> Result<u64, CheckError> {
        let start = self.at;
        let (mut v, mut shift) = (0u64, 0);
        loop {
            let Some(&b) = self.bytes.get(self.at) else {
                return Err((start, format!("truncated {what} varint")));
            };
            self.at += 1;
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
}

/// Checks `bytes` as the canonical runs of `len` triples.
fn check(len: u64, bytes: &[u8]) -> Result<(), CheckError> {
    let mut r = Checked { bytes, at: 0 };
    let mut total = 0u64;
    let mut prev_cell: Option<u64> = None;
    while r.at < bytes.len() {
        let start = r.at;
        let gap = r.varint("cell gap")?;
        let cell = match prev_cell {
            None => Some(gap),
            Some(prev) => prev.checked_add(gap).and_then(|c| c.checked_add(1)),
        }
        .ok_or_else(|| (start, "cell overflows 64 bits".to_string()))?;
        let entries = r.varint("entry count")?;
        if entries == 0 {
            return Err((start, format!("cell {cell} has an empty run")));
        }
        let body_len = r.varint("body length")?;
        let body_end = match usize::try_from(body_len).ok().and_then(|n| r.at.checked_add(n)) {
            Some(end) if end <= bytes.len() => end,
            _ => return Err((start, format!("cell {cell}'s run body overruns the runs"))),
        };
        let mut body = Checked { bytes: &bytes[..body_end], at: r.at };
        let mut second = unzigzag(body.varint("first second")?);
        body.varint("message count")?;
        // Each entry takes at least two bytes, so a corrupt count ends
        // at the body's end, not after `entries` steps.
        for _ in 1..entries {
            let at = body.at;
            let gap = body.varint("second gap")?;
            second = second
                .checked_add_unsigned(gap)
                .and_then(|s| s.checked_add(1))
                .ok_or_else(|| (at, "second overflows 64 bits".to_string()))?;
            body.varint("message count")?;
        }
        if body.at != body_end {
            return Err((body.at, format!("cell {cell}'s run body is longer than its entries")));
        }
        r.at = body_end;
        total = total.saturating_add(entries);
        prev_cell = Some(cell);
    }
    if total != len {
        return Err((
            bytes.len(),
            format!("the runs hold {total} triple(s), not the declared {len}"),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn encode(triples: &[(u64, i64, u64)]) -> LoadDeltas {
        LoadDeltas::from_triples(triples.iter().copied()).unwrap()
    }

    fn message(result: Result<LoadDeltas, TraceError>) -> String {
        match result {
            Err(TraceError::Parse { message, .. }) => message,
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    #[test]
    fn typical_traffic_takes_two_bytes_a_triple() {
        // One cell, a message burst every few seconds: one byte per gap
        // and one per count, plus the run's three-byte head.
        let triples: Vec<_> = (0..100).map(|i| (3, 1_000 + 7 * i, 1 + (i as u64 % 5))).collect();
        let deltas = encode(&triples);
        assert_eq!(deltas.len(), 100);
        // The head: cell 3, 100 entries, and the body's length in two
        // bytes. The body: two bytes an entry, and one more for the first
        // second, whose zigzag (2000) takes two.
        assert_eq!(deltas.as_bytes().len(), 1 + 1 + 2 + 201);
        assert_eq!(deltas.to_triples(), triples);
    }

    #[test]
    fn the_layout_is_pinned() {
        let deltas = encode(&[(0, -3, 28), (0, 90, 5), (2, 90, 6), (2, 91, 300)]);
        #[rustfmt::skip]
        let expect = [
            // Cell 0, 2 entries, a 4-byte body: zigzag(-3) = 5, 28
            // messages, gap 93 stored as 92, 5 messages.
            0, 2, 4, 5, 28, 92, 5,
            // Cell 2 (stored as 2 − 0 − 1), 2 entries, a 6-byte body:
            // zigzag(90) = 180 in two bytes, 6 messages, gap 1 stored as
            // 0, then 300 messages in two bytes.
            1, 2, 6, 180, 1, 6, 0, 172, 2,
        ];
        assert_eq!(deltas.as_bytes(), &expect[..], "{deltas:?}");
        assert_eq!(LoadDeltas::from_bytes(4, expect.to_vec()).unwrap(), deltas);
    }

    #[test]
    fn the_constructor_rejects_out_of_order_and_repeated_pairs() {
        let swapped = [(0, 5, 1), (0, 4, 1)];
        let repeated = [(1, 5, 1), (1, 5, 2)];
        let back_a_cell = [(2, 5, 1), (1, 9, 1)];
        for bad in [&swapped[..], &repeated, &back_a_cell] {
            let err = LoadDeltas::from_triples(bad.iter().copied()).unwrap_err();
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
        assert_eq!(empty.runs().count(), 0);
    }

    #[test]
    fn malformed_runs_are_typed_errors() {
        let valid = encode(&[(0, 1, 2), (0, 3, 4), (5, 0, 1)]);
        let bytes = valid.as_bytes().to_vec();
        assert_eq!(bytes, [0, 2, 4, 2, 2, 1, 4, 4, 1, 2, 0, 1]);
        let cases: [(&str, Vec<u8>, u64); 10] = [
            ("truncated", bytes[..bytes.len() - 1].to_vec(), 3),
            ("count mismatch", bytes.clone(), 4),
            ("padding byte", [&[0x80, 0][..], &bytes[1..]].concat(), 3),
            ("empty run", [&bytes[..], &[1, 0, 0]].concat(), 3),
            ("body overruns", [&bytes[..2], &[20], &bytes[3..]].concat(), 3),
            ("body longer than its entries", [&bytes[..1], &[1], &bytes[2..]].concat(), 2),
            ("eleven bytes", [&[0x80; 10][..], &[1]].concat(), 0),
            ("overflows 64 bits", [&[0xFF; 9][..], &[2, 1, 2, 0, 0]].concat(), 1),
            ("cell overflow", [&[0, 1, 2, 0, 0], &[0xFF; 9][..], &[1, 1, 2, 0, 0]].concat(), 2),
            (
                "second overflow",
                // Second i64::MAX − 1 (zigzag 2^64 − 4), then a gap of 1.
                [&[0, 2, 13], &[0xFC][..], &[0xFF; 8], &[1, 0, 1, 0]].concat(),
                2,
            ),
        ];
        for (what, bytes, len) in cases {
            let result = LoadDeltas::from_bytes(len, bytes.clone());
            assert!(matches!(result, Err(TraceError::Parse { .. })), "{what}: {bytes:?}");
        }
        // The messages name the fault.
        let overflow = message(LoadDeltas::from_bytes(1, [&[0xFF; 9][..], &[2]].concat()));
        assert!(overflow.contains("overflows 64 bits"), "{overflow}");
        let count = message(LoadDeltas::from_bytes(4, bytes.clone()));
        assert!(count.contains("3 triple(s), not the declared 4"), "{count}");
        // The largest second still decodes: one below i64::MAX, then it.
        let top = encode(&[(0, i64::MAX - 1, 0), (0, i64::MAX, 0)]);
        assert_eq!(LoadDeltas::from_bytes(2, top.as_bytes().to_vec()).unwrap(), top);
    }

    /// Ascending triples over small and extreme cells, seconds and
    /// message counts: each component picks an extreme a quarter of the
    /// time.
    fn arb_triples() -> impl Strategy<Value = Vec<(u64, i64, u64)>> {
        let cell = (0usize..8, 0u64..6)
            .prop_map(|(pick, c)| [u64::MAX - 1, u64::MAX].get(pick).copied().unwrap_or(c));
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
        prop::collection::vec((cell, second, msgs), 0..40).prop_map(|mut triples| {
            triples.sort_unstable_by_key(|&(cell, second, _)| (cell, second));
            triples.dedup_by_key(|&mut (cell, second, _)| (cell, second));
            triples
        })
    }

    proptest! {
        /// Encoding then decoding is the identity over any ascending
        /// triples — negative seconds, both `i64` extremes, the largest
        /// cells, and message counts of 0 and `u64::MAX` included — and
        /// the bytes read back as the same value.
        #[test]
        fn encode_decode_is_the_identity(triples in arb_triples()) {
            let deltas = encode(&triples);
            prop_assert_eq!(deltas.len(), triples.len() as u64);
            prop_assert_eq!(deltas.to_triples(), triples.clone());
            let cells: Vec<u64> = deltas.runs().map(|run| run.cell).collect();
            let mut expect: Vec<u64> = triples.iter().map(|t| t.0).collect();
            expect.dedup();
            prop_assert_eq!(cells, expect);
            let back = LoadDeltas::from_bytes(deltas.len(), deltas.as_bytes().to_vec()).unwrap();
            prop_assert_eq!(back, deltas);
        }

        /// Arbitrary damage to valid runs is a typed error or a canonical
        /// value that encodes back to the same bytes — never a panic, and
        /// never an allocation beyond the bytes given.
        #[test]
        fn damaged_runs_fail_cleanly(
            triples in arb_triples(),
            flips in prop::collection::vec((0usize..512, 0u8..=255), 1..6),
            cut in 0usize..512,
            truncate in prop::bool::ANY,
            len_delta in -2i64..=2,
        ) {
            let deltas = encode(&triples);
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
                let triples = back.to_triples();
                prop_assert_eq!(triples.len() as u64, len);
                prop_assert!(triples.windows(2).all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)));
                let again = encode(&triples);
                prop_assert_eq!(again.as_bytes(), &bytes[..]);
            }
        }
    }
}
