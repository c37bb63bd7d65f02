//! An open-addressed index over the items of a `Vec` its owner keeps beside it.
//!
//! A [`Dictionary`](crate::Dictionary) finds its strings, and a probabilistic answer its
//! values and rows, through a [`HashIndex`]: a power-of-two table of positions, at most half
//! full, probed linearly.  The index stores positions only — the owner keeps each item and its
//! hash, says what matches, and re-reads a hash when the table is rebuilt — so one index type
//! serves items of any kind, and no item is hashed twice.

/// A slot no item occupies.
const FREE: u32 = u32::MAX;

/// An open-addressed index from hash to position in a `Vec` kept beside it, at most half full.
#[derive(Debug, Clone, Default)]
pub struct HashIndex {
    slots: Vec<u32>,
}

impl HashIndex {
    /// Where an item with this hash is, or goes: `Ok(position)` of the item `is_match`
    /// accepts, `Err(slot)` for the free slot that ends its chain.  An index nothing was
    /// reserved in holds nothing.
    pub fn probe(&self, hash: u64, is_match: impl Fn(usize) -> bool) -> Result<usize, usize> {
        if self.slots.is_empty() {
            return Err(0);
        }
        let mask = self.slots.len() - 1;
        let mut slot = hash as usize & mask;
        loop {
            match self.slots[slot] {
                FREE => return Err(slot),
                item if is_match(item as usize) => return Ok(item as usize),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Keeps the index at most half full with `additional` more items than the `len` it
    /// holds; `hash_of` re-reads the hash of the item at a position when the table grows.
    /// Returns whether it grew: a slot probed before is then stale.
    pub fn reserve(
        &mut self,
        len: usize,
        additional: usize,
        hash_of: impl Fn(usize) -> u64,
    ) -> bool {
        let needed = (len + additional) * 2;
        if needed <= self.slots.len() {
            return false;
        }
        self.slots.clear();
        self.slots.resize(needed.next_power_of_two().max(16), FREE);
        self.place(len, hash_of);
        true
    }

    /// Bytes the index holds on the heap.
    #[must_use]
    pub(crate) fn estimated_bytes(&self) -> usize {
        size_of_val(self.slots.as_slice())
    }

    /// How many items the index holds before it grows.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.slots.len() / 2
    }

    /// Rebuilds a table larger than `len` items need into the smallest one that holds them at
    /// most half full, so that room reserved for items that never came is given back.
    pub fn shrink_to_fit(&mut self, len: usize, hash_of: impl Fn(usize) -> u64) {
        let fits = if len == 0 {
            0
        } else {
            (len * 2).next_power_of_two().max(16)
        };
        if fits < self.slots.len() {
            self.slots = vec![FREE; fits];
            self.place(len, hash_of);
        }
    }

    /// Puts the items at positions `0..len`, in order, into an empty table.
    fn place(&mut self, len: usize, hash_of: impl Fn(usize) -> u64) {
        let Some(mask) = self.slots.len().checked_sub(1) else {
            return;
        };
        for item in 0..len {
            let mut slot = hash_of(item) as usize & mask;
            while self.slots[slot] != FREE {
                slot = (slot + 1) & mask;
            }
            self.slots[slot] = item as u32; // `occupy` let no position past `u32`
        }
    }

    /// Puts the item about to be pushed at position `len` into the free `slot` its probe
    /// ended at, and returns the position as the item's id.
    ///
    /// # Panics
    ///
    /// If `len` is `u32::MAX` or more.
    pub fn occupy(&mut self, slot: usize, len: usize) -> u32 {
        let id = u32::try_from(len).ok().filter(|&id| id != FREE);
        self.slots[slot] = id.expect("fewer than 2^32 - 1 items");
        self.slots[slot]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn items_are_found_by_hash_and_match_after_growing_and_shrinking() {
        // Hashes collide in pairs, so chains are probed past a mismatch.
        let hashes: Vec<u64> = (0..100u64).map(|i| i / 2).collect();
        let mut index = HashIndex::default();
        assert_eq!(index.probe(0, |_| true), Err(0));
        for (item, &hash) in hashes.iter().enumerate() {
            index.reserve(item, 1, |at| hashes[at]);
            let slot = index.probe(hash, |at| at == item).unwrap_err();
            assert_eq!(index.occupy(slot, item), item as u32);
        }
        let find = |index: &HashIndex, item: usize| index.probe(hashes[item], |at| at == item);
        assert!((0..100).all(|item| find(&index, item) == Ok(item)));
        // Room for ten thousand, given back down to what a hundred need.
        assert!(index.reserve(100, 10_000, |at| hashes[at]));
        assert!(!index.reserve(100, 1, |at| hashes[at]));
        assert_eq!(index.capacity(), 16_384);
        index.shrink_to_fit(100, |at| hashes[at]);
        assert_eq!(index.capacity(), 128);
        assert!((0..100).all(|item| find(&index, item) == Ok(item)));
        // Already tight: left as it is.
        index.shrink_to_fit(100, |_| unreachable!());
        assert_eq!(index.capacity(), 128);
        index.shrink_to_fit(0, |_| unreachable!());
        assert_eq!(index.probe(0, |_| true), Err(0));
    }
}
