//! Witness bookkeeping shared by IDB and RB: which processes vouched for
//! which value of one broadcast instance.
//!
//! Each instance keeps its distinct values in first-seen order, each with a
//! process bitset that stores its own count. A received echo costs one
//! value comparison and one bit test; the value is cloned only when it is
//! the first witness of a distinct value. The first value and the first 64
//! processes live inline, so the common case — every sender vouching for
//! the one value a correct origin sent, `n ≤ 64` — touches no heap memory
//! beyond the value itself.

use dex_types::ProcessId;

/// A set of process ids: one bit per process in `u64` words, plus the
/// number of bits set. Processes `0..64` live in the inline word.
#[derive(Clone, Debug, Default)]
pub(crate) struct WitnessSet {
    low: u64,
    high: Vec<u64>,
    len: usize,
}

impl WitnessSet {
    /// Adds `p`; returns the set size afterwards. Adding a member again
    /// changes nothing.
    fn insert(&mut self, p: ProcessId) -> usize {
        let (i, bit) = (p.index(), 1u64 << (p.index() % 64));
        let word = if i < 64 {
            &mut self.low
        } else {
            let w = i / 64 - 1;
            if w >= self.high.len() {
                self.high.resize(w + 1, 0);
            }
            &mut self.high[w]
        };
        if *word & bit == 0 {
            *word |= bit;
            self.len += 1;
        }
        self.len
    }
}

/// Witness sets of one broadcast instance, one per distinct value, in the
/// order the values were first witnessed: `first`, then `rest`.
#[derive(Clone, Debug)]
pub(crate) struct Witnesses<V> {
    /// The first value witnessed — for a correct origin, the only one.
    first: Option<(V, WitnessSet)>,
    /// Further distinct values (equivocation or forged echoes).
    rest: Vec<(V, WitnessSet)>,
}

impl<V> Default for Witnesses<V> {
    fn default() -> Self {
        Witnesses {
            first: None,
            rest: Vec::new(),
        }
    }
}

impl<V: Clone + Eq> Witnesses<V> {
    /// Records `from` as a witness for `value` and returns how many distinct
    /// processes have now witnessed it.
    pub(crate) fn record(&mut self, value: &V, from: ProcessId) -> usize {
        if self.first.as_ref().is_none_or(|(v, _)| v == value) {
            let (_, set) = self
                .first
                .get_or_insert_with(|| (value.clone(), WitnessSet::default()));
            return set.insert(from);
        }
        let i = match self.rest.iter().position(|(v, _)| v == value) {
            Some(i) => i,
            None => {
                self.rest.push((value.clone(), WitnessSet::default()));
                self.rest.len() - 1
            }
        };
        self.rest[i].1.insert(from)
    }

    /// Number of distinct processes that witnessed `value`.
    pub(crate) fn count(&self, value: &V) -> usize {
        self.first
            .iter()
            .chain(&self.rest)
            .find(|(v, _)| v == value)
            .map_or(0, |(_, set)| set.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn senders_count_once_per_value() {
        let mut w: Witnesses<u64> = Witnesses::default();
        assert_eq!(w.record(&7, p(1)), 1);
        assert_eq!(w.record(&7, p(1)), 1);
        assert_eq!(w.record(&7, p(2)), 2);
        // An equivocating sender counts once for each value it vouched for.
        assert_eq!(w.record(&8, p(1)), 1);
        assert_eq!(w.count(&7), 2);
        assert_eq!(w.count(&8), 1);
        assert_eq!(w.count(&9), 0);
    }

    #[test]
    fn sets_span_word_boundaries() {
        let mut w: Witnesses<u64> = Witnesses::default();
        for i in [0, 63, 64, 126, 127, 64, 0] {
            w.record(&1, p(i));
        }
        assert_eq!(w.count(&1), 5);
        let (_, set) = w.first.as_ref().unwrap();
        assert_eq!(set.high.len(), 1);
    }
}
