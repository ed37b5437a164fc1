//! Indexable shadow model for the tree workloads.

/// A key → value map kept as one key-sorted `Vec`: the in-memory shadow the
/// tree workloads verify their persistent structure against.
///
/// Update transactions pick a uniformly random existing key by rank; a
/// sorted vector answers that in O(1) ([`nth_key`](SortedShadow::nth_key)),
/// where a `BTreeMap` must walk `i` keys. Inserting a new key shifts the
/// tail, a single `memmove` at the sizes the workloads reach.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SortedShadow {
    entries: Vec<(u64, u64)>,
}

impl SortedShadow {
    /// An empty shadow.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets `key` to `value`, inserting the key if it is new.
    pub fn insert(&mut self, key: u64, value: u64) {
        match self.entries.binary_search_by_key(&key, |&(k, _)| k) {
            Ok(i) => self.entries[i].1 = value,
            Err(i) => self.entries.insert(i, (key, value)),
        }
    }

    /// The `i`-th smallest key, if there are more than `i` keys.
    pub fn nth_key(&self, i: usize) -> Option<u64> {
        self.entries.get(i).map(|&(k, _)| k)
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the shadow holds no keys.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The `(key, value)` pairs in ascending key order.
    pub fn iter(&self) -> std::slice::Iter<'_, (u64, u64)> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    proptest! {
        /// Rank lookups and in-order iteration agree with `BTreeMap` after
        /// any mix of fresh inserts and updates (keys drawn from a small
        /// range so updates are frequent).
        #[test]
        fn matches_btreemap(ops in prop::collection::vec((0u64..64, any::<u64>()), 0..200)) {
            let mut shadow = SortedShadow::new();
            let mut model = BTreeMap::new();
            for &(key, value) in &ops {
                shadow.insert(key, value);
                model.insert(key, value);
                prop_assert_eq!(shadow.len(), model.len());
            }
            for i in 0..=model.len() {
                prop_assert_eq!(shadow.nth_key(i), model.keys().nth(i).copied());
            }
            prop_assert!(shadow.iter().map(|(k, v)| (k, v)).eq(model.iter()));
            prop_assert_eq!(shadow.is_empty(), model.is_empty());
        }
    }
}
