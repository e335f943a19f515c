//! A small ordered map stored as one sorted vector.
//!
//! Per-station state is a handful of small maps: about a dozen clock
//! models, a few next-hop queues, at most `max_outstanding_plans` plans.
//! At that size a sorted `Vec` of pairs beats a `BTreeMap` on memory
//! (no half-empty 11-slot nodes, no node kept after the last entry goes)
//! and is no slower: a binary search over a dozen contiguous keys touches
//! one or two cache lines.

/// An ordered map from `K` to `V` kept as a `Vec` of pairs sorted by key.
///
/// It iterates in ascending key order, like `BTreeMap`. Its buffer grows
/// one slot at a time, so a map that only grows holds exactly its
/// entries, and removing the last entry frees the buffer. Lookups are
/// binary searches; inserts and removes shift the tail, so the type is
/// meant for maps of tens of entries, not thousands.
#[derive(Clone, Debug)]
pub struct VecMap<K, V> {
    entries: Vec<(K, V)>,
}

impl<K, V> Default for VecMap<K, V> {
    fn default() -> Self {
        VecMap {
            entries: Vec::new(),
        }
    }
}

impl<K: Ord, V> VecMap<K, V> {
    /// An empty map (allocates nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries the buffer can hold without reallocating (0 once emptied).
    pub fn capacity(&self) -> usize {
        self.entries.capacity()
    }

    fn find(&self, key: &K) -> Result<usize, usize> {
        self.entries.binary_search_by(|(k, _)| k.cmp(key))
    }

    /// Insert at sorted position `i`, growing the buffer by exactly one
    /// slot when it is full.
    fn insert_at(&mut self, i: usize, key: K, value: V) -> &mut V {
        self.entries.reserve_exact(1);
        self.entries.insert(i, (key, value));
        &mut self.entries[i].1
    }

    /// The value under `key`.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.find(key).ok().map(|i| &self.entries[i].1)
    }

    /// The value under `key`, mutably.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.find(key).ok().map(|i| &mut self.entries[i].1)
    }

    /// Set `key` to `value`, returning the value it replaced.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.find(&key) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            Err(i) => {
                self.insert_at(i, key, value);
                None
            }
        }
    }

    /// Remove `key`, returning its value; the last removal frees the
    /// buffer.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let i = self.find(key).ok()?;
        let (_, value) = self.entries.remove(i);
        if self.entries.is_empty() {
            self.entries = Vec::new();
        }
        Some(value)
    }

    /// Remove every entry and free the buffer.
    pub fn clear(&mut self) {
        self.entries = Vec::new();
    }

    /// The slot for `key`, for in-place insert-or-update.
    pub fn entry(&mut self, key: K) -> Entry<'_, K, V> {
        let at = self.find(&key);
        Entry { map: self, key, at }
    }

    /// Entries in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// Entries in ascending key order, values mutably.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&K, &mut V)> {
        self.entries.iter_mut().map(|(k, v)| (&*k, v))
    }

    /// Keys in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.entries.iter().map(|(k, _)| k)
    }

    /// Values in ascending key order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.entries.iter().map(|(_, v)| v)
    }

    /// Values in ascending key order, mutably.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.entries.iter_mut().map(|(_, v)| v)
    }

    /// The values in ascending key order, consuming the map.
    pub fn into_values(self) -> impl Iterator<Item = V> {
        self.entries.into_iter().map(|(_, v)| v)
    }
}

impl<K, V> IntoIterator for VecMap<K, V> {
    type Item = (K, V);
    type IntoIter = std::vec::IntoIter<(K, V)>;

    /// Entries in ascending key order, consuming the map.
    fn into_iter(self) -> Self::IntoIter {
        self.entries.into_iter()
    }
}

/// A key's slot in a [`VecMap`], from [`VecMap::entry`].
pub struct Entry<'a, K, V> {
    map: &'a mut VecMap<K, V>,
    key: K,
    /// Where the key is (`Ok`) or would be inserted (`Err`).
    at: Result<usize, usize>,
}

impl<'a, K: Ord, V> Entry<'a, K, V> {
    /// The value, inserting `make()` first if the key is absent.
    pub fn or_insert_with(self, make: impl FnOnce() -> V) -> &'a mut V {
        match self.at {
            Ok(i) => &mut self.map.entries[i].1,
            Err(i) => self.map.insert_at(i, self.key, make()),
        }
    }

    /// The value, inserting `value` first if the key is absent.
    pub fn or_insert(self, value: V) -> &'a mut V {
        self.or_insert_with(|| value)
    }

    /// The value, inserting `V::default()` first if the key is absent.
    pub fn or_default(self) -> &'a mut V
    where
        V: Default,
    {
        self.or_insert_with(V::default)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parn_sim::Rng;
    use std::collections::BTreeMap;

    fn assert_same(map: &VecMap<u8, u32>, reference: &BTreeMap<u8, u32>) {
        assert_eq!(map.len(), reference.len());
        assert_eq!(map.is_empty(), reference.is_empty());
        let got: Vec<(u8, u32)> = map.iter().map(|(&k, &v)| (k, v)).collect();
        let want: Vec<(u8, u32)> = reference.iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(got, want, "iteration order or contents differ");
        assert!(map.keys().eq(reference.keys()));
        assert!(map.values().eq(reference.values()));
        if map.is_empty() {
            assert_eq!(map.capacity(), 0, "an emptied map kept its buffer");
        }
    }

    #[test]
    fn matches_btreemap_over_random_operations() {
        let mut rng = Rng::new(0x5eed);
        for round in 0..200 {
            let mut map: VecMap<u8, u32> = VecMap::new();
            let mut reference: BTreeMap<u8, u32> = BTreeMap::new();
            // Small key spaces force hits, misses, drains and refills.
            let keys = 1 + rng.below(40);
            for step in 0..400u32 {
                let k = rng.below(keys) as u8;
                match rng.below(8) {
                    0 | 1 => assert_eq!(map.insert(k, step), reference.insert(k, step)),
                    2 | 3 => assert_eq!(map.remove(&k), reference.remove(&k)),
                    4 => assert_eq!(map.get(&k), reference.get(&k)),
                    5 => {
                        *map.entry(k).or_insert(step) += 1;
                        *reference.entry(k).or_insert(step) += 1;
                    }
                    6 => {
                        *map.entry(k).or_default() += step;
                        *reference.entry(k).or_default() += step;
                        if let (Some(a), Some(b)) = (map.get_mut(&k), reference.get_mut(&k)) {
                            *a ^= 7;
                            *b ^= 7;
                        }
                    }
                    _ if rng.below(20) == 0 => {
                        map.clear();
                        reference.clear();
                    }
                    _ => {
                        for v in map.values_mut() {
                            *v = v.wrapping_mul(3);
                        }
                        for v in reference.values_mut() {
                            *v = v.wrapping_mul(3);
                        }
                        for (&k, v) in map.iter_mut() {
                            *v ^= u32::from(k);
                        }
                        for (&k, v) in reference.iter_mut() {
                            *v ^= u32::from(k);
                        }
                    }
                }
                assert_same(&map, &reference);
            }
            let drained: Vec<(u8, u32)> = map.clone().into_iter().collect();
            assert_eq!(drained, reference.clone().into_iter().collect::<Vec<_>>());
            assert!(
                map.into_values().eq(reference.into_values()),
                "round {round}"
            );
        }
    }

    #[test]
    fn grows_one_slot_at_a_time_and_frees_when_drained() {
        let mut map: VecMap<u64, u64> = VecMap::new();
        assert_eq!(map.capacity(), 0);
        for k in (0..13u64).rev() {
            map.entry(k).or_insert_with(|| k * 10);
            assert_eq!(map.capacity(), map.len(), "buffer not exact at {k}");
        }
        assert_eq!(map.get(&4), Some(&40));
        for k in 0..13u64 {
            assert_eq!(map.remove(&k), Some(k * 10));
        }
        assert_eq!(map.capacity(), 0);
        assert_eq!(map.remove(&3), None);
    }
}
