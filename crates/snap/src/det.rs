//! Deterministic iteration over hash-ordered containers.
//!
//! `HashMap`/`HashSet` iteration order is unspecified and varies across
//! builds, platforms and hasher seeds, so it must never feed snapshot bytes,
//! stats export or event order. This module is the *designated* sorted
//! helper: `clippy.toml` disallows direct hash iteration in the library
//! crates and points here instead.

#![expect(
    clippy::disallowed_methods,
    reason = "designated helper: every iteration below is sorted before it is returned"
)]

use std::collections::{HashMap, HashSet};
use std::hash::BuildHasher;

/// Entries of `map` as a vector sorted by key.
#[must_use]
pub fn sorted_entries<K, V, S>(map: &HashMap<K, V, S>) -> Vec<(K, V)>
where
    K: Ord + Clone,
    V: Clone,
    S: BuildHasher,
{
    let mut out: Vec<(K, V)> = map.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
    out.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    out
}

/// Keys of `map` as a sorted vector.
#[must_use]
pub fn sorted_keys<K, V, S>(map: &HashMap<K, V, S>) -> Vec<K>
where
    K: Ord + Clone,
    S: BuildHasher,
{
    let mut out: Vec<K> = map.keys().cloned().collect();
    out.sort_unstable();
    out
}

/// Items of `set` as a sorted vector.
#[must_use]
pub fn sorted_items<T, S>(set: &HashSet<T, S>) -> Vec<T>
where
    T: Ord + Clone,
    S: BuildHasher,
{
    let mut out: Vec<T> = set.iter().cloned().collect();
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_keys_and_items_come_out_sorted() {
        let mut map = HashMap::new();
        for k in [9u64, 1, 5, 3] {
            map.insert(k, k * 10);
        }
        assert_eq!(
            sorted_entries(&map),
            vec![(1, 10), (3, 30), (5, 50), (9, 90)]
        );
        assert_eq!(sorted_keys(&map), vec![1, 3, 5, 9]);

        let set: HashSet<u64> = [4u64, 2, 8].into_iter().collect();
        assert_eq!(sorted_items(&set), vec![2, 4, 8]);
    }
}
