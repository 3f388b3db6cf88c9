//! Counts of an inter-arrival window at fixed cut points, kept current
//! push by push, so neither MakeIdle's energy rule nor the literal
//! confidence rule sorts the window per gap.

use tailwise_trace::stats::SlidingWindow;
use tailwise_trace::time::Duration;

/// Integer statistics of a window at fixed cut points, kept current by
/// one insert and one evict per push.
///
/// The cuts are in ascending order, each holding the number of samples
/// *above* it and their µs sum; the window's totals sit beside them. So
/// an insert or an evict walks the cuts only while they lie below the
/// sample, and the count at or below cut `i` is the total minus the
/// count above it.
#[derive(Debug, Clone, Default)]
pub(crate) struct CutCounts {
    cuts: Vec<Cut>,
    total: i64,
    total_us: i64,
    /// `(stream, pushes)` of the window the counts describe; `None`
    /// after the cut points change.
    synced: Option<(u64, u64)>,
}

/// One cut point and the samples above it.
#[derive(Debug, Clone, Copy, Default)]
struct Cut {
    at_us: i64,
    above: i64,
    above_us: i64,
}

impl CutCounts {
    /// Moves the cut points to `at_us`, sorted ascending; returns each
    /// given point's index for [`at`](Self::at). The counts wait for
    /// the next [`follow`](Self::follow) to rebuild them.
    pub(crate) fn reset(&mut self, at_us: impl IntoIterator<Item = i64>) -> Vec<usize> {
        let at_us: Vec<i64> = at_us.into_iter().collect();
        let mut order: Vec<usize> = (0..at_us.len()).collect();
        order.sort_by_key(|&i| at_us[i]);
        let mut index = vec![0; at_us.len()];
        for (position, &i) in order.iter().enumerate() {
            index[i] = position;
        }
        self.cuts = order.iter().map(|&i| Cut { at_us: at_us[i], ..Cut::default() }).collect();
        self.synced = None;
        index
    }

    /// Brings the counts up to date with `window`: nothing if it is the
    /// window last seen, one insert and at most one evict if it is that
    /// window plus one push, a recount from its sorted view otherwise.
    pub(crate) fn follow(&mut self, window: &SlidingWindow) {
        let now = (window.stream(), window.pushes());
        match (self.synced, window.last_push()) {
            (Some(seen), _) if seen == now => return,
            (Some((stream, pushes)), Some((inserted, evicted)))
                if stream == now.0 && pushes + 1 == now.1 =>
            {
                self.add(inserted, 1);
                if let Some(evicted) = evicted {
                    self.add(evicted, -1);
                }
            }
            _ => self.rebuild(window.dist().sorted_samples()),
        }
        self.synced = Some(now);
    }

    /// Recounts from the sorted samples in one walk: the cuts are
    /// visited in ascending order, each taking the samples the walk has
    /// passed so far as the ones at or below it.
    fn rebuild(&mut self, sorted: &[Duration]) {
        self.total = sorted.len() as i64;
        self.total_us = sorted.iter().map(|s| s.as_micros()).sum();
        let (mut k, mut sum) = (0, 0);
        for cut in &mut self.cuts {
            while k < sorted.len() && sorted[k].as_micros() <= cut.at_us {
                sum += sorted[k].as_micros();
                k += 1;
            }
            cut.above = self.total - k as i64;
            cut.above_us = self.total_us - sum;
        }
    }

    /// Adds (`sign` 1) or removes (`sign` −1) one sample: to the totals,
    /// and above every cut below it.
    fn add(&mut self, sample: Duration, sign: i64) {
        let us = sample.as_micros();
        self.total += sign;
        self.total_us += sign * us;
        for cut in self.cuts.iter_mut().take_while(|cut| cut.at_us < us) {
            cut.above += sign;
            cut.above_us += sign * us;
        }
    }

    /// `(count, µs sum)` of the whole window.
    pub(crate) fn totals(&self) -> (i64, i64) {
        (self.total, self.total_us)
    }

    /// `(count, µs sum)` of the samples at or below cut `i`.
    pub(crate) fn at(&self, i: usize) -> (i64, i64) {
        let cut = &self.cuts[i];
        (self.total - cut.above, self.total_us - cut.above_us)
    }
}
