//! Flat object-id indexes: the delta overlay's base index and the
//! broadcast layout's object → data-slot table.

use crate::ObjectId;

/// Values keyed by [`ObjectId`], stored flat in ascending id order.
///
/// [`IdTable::new`] sorts its input by id with a stable least-significant
/// digit radix sort whose digits are about `log2(n) + 1` bits wide, so
/// building takes one counting pass for ids below `2n` — the dense ids
/// [`RTree::build`](crate::RTree::build) assigns, and the near-dense ones
/// a materialized [`DeltaOverlay`](crate::DeltaOverlay) keeps — and a
/// few passes for any other `u32` ids. When an id repeats, the last entry
/// in input order wins.
///
/// [`IdTable::get`] first probes the slot whose position equals the id,
/// which hits whenever the ids are dense, and falls back to a binary
/// search.
///
/// ```
/// use tnn_rtree::{IdTable, ObjectId};
///
/// let table = IdTable::new(vec![(ObjectId(70), 'b'), (ObjectId(3), 'a'), (ObjectId(70), 'c')]);
/// assert_eq!(table.len(), 2);
/// assert_eq!(table.get(ObjectId(70)), Some('c'));
/// assert_eq!(table.get(ObjectId(4)), None);
/// let ids: Vec<u32> = table.iter().map(|(id, _)| id.0).collect();
/// assert_eq!(ids, [3, 70]);
/// ```
#[derive(Debug, Clone)]
pub struct IdTable<T> {
    entries: Vec<(ObjectId, T)>,
}

impl<T: Copy> IdTable<T> {
    /// Indexes `entries` by id.
    pub fn new(mut entries: Vec<(ObjectId, T)>) -> Self {
        // Digits of about log2(n) + 1 bits: ids below 2n, dense ones
        // among them, sort in a single pass, and wider ids take one pass
        // per digit up to the largest id's top bit.
        let width = (usize::BITS - entries.len().leading_zeros()).clamp(4, 16);
        let top = entries.iter().map(|e| e.0 .0).max().unwrap_or(0);
        let span = u32::BITS - top.leading_zeros();
        let mask = (1usize << width) - 1;
        let mut starts = vec![0usize; mask + 1];
        let mut spare: Vec<(ObjectId, T)> = Vec::new();
        let mut shift = 0;
        while shift < span {
            let digit = |e: &(ObjectId, T)| (e.0 .0 >> shift) as usize & mask;
            starts.fill(0);
            for e in &entries {
                starts[digit(e)] += 1;
            }
            let mut sum = 0;
            for slot in &mut starts {
                sum += *slot;
                *slot = sum - *slot;
            }
            spare.clear();
            spare.resize(entries.len(), entries[0]);
            for &e in &entries {
                let d = digit(&e);
                spare[starts[d]] = e;
                starts[d] += 1;
            }
            std::mem::swap(&mut entries, &mut spare);
            shift += width;
        }
        entries.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                *kept = *later;
            }
            same
        });
        IdTable { entries }
    }

    /// The value stored for `id`.
    #[inline]
    pub fn get(&self, id: ObjectId) -> Option<T> {
        match self.entries.get(id.index()) {
            Some(&(key, value)) if key == id => Some(value),
            _ => self
                .entries
                .binary_search_by_key(&id, |e| e.0)
                .ok()
                .map(|i| self.entries[i].1),
        }
    }

    /// `true` when `id` has an entry.
    #[inline]
    pub fn contains(&self, id: ObjectId) -> bool {
        self.get(id).is_some()
    }

    /// Number of distinct ids.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the table holds no entry.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entries in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (ObjectId, T)> + '_ {
        self.entries.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    proptest! {
        #[test]
        fn id_table_equals_a_btree_map(
            raw in prop::collection::vec((0u32..4, 0u32..u32::MAX, 0u32..1000), 0..300),
        ) {
            // Ids from a mix of ranges: small dense-ish, mid-size and the
            // full u32 range, so every radix digit is exercised.
            let entries: Vec<(ObjectId, u32)> = raw
                .iter()
                .map(|&(range, wide, value)| {
                    let id = match range {
                        0 => wide % 64,
                        1 => wide % 70_000,
                        2 => wide % (1 << 24),
                        _ => wide,
                    };
                    (ObjectId(id), value)
                })
                .collect();
            let table = IdTable::new(entries.clone());
            let map: BTreeMap<ObjectId, u32> = entries.iter().copied().collect();
            prop_assert_eq!(table.iter().collect::<Vec<_>>(), map.iter().map(|(&k, &v)| (k, v)).collect::<Vec<_>>());
            prop_assert_eq!(table.len(), map.len());
            for &(id, _) in &entries {
                prop_assert_eq!(table.get(id), map.get(&id).copied());
                let probe = ObjectId(id.0.wrapping_add(1));
                prop_assert_eq!(table.get(probe), map.get(&probe).copied());
            }
        }
    }

    #[test]
    fn dense_ids_hit_their_own_slot() {
        let table = IdTable::new((0..500u32).rev().map(|i| (ObjectId(i), i * 2)).collect());
        for i in 0..500u32 {
            assert_eq!(table.get(ObjectId(i)), Some(i * 2));
        }
        assert_eq!(table.get(ObjectId(500)), None);
        assert!(IdTable::<u8>::new(Vec::new()).is_empty());
    }
}
