//! Name storage: strings stored back to back in one buffer and addressed
//! by 4-byte symbols, so a table of 10^5 names costs two allocations,
//! not 10^5; plus the hash index the type table finds names with.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// A symbol: the index of one name in a [`NameArena`]. Only meaningful
/// against the arena that issued it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Sym(u32);

impl Sym {
    /// Raw index into the issuing arena.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Append-only name storage: one `String` holding every name back to
/// back, plus the end offset of each. [`NameArena::push`] never
/// deduplicates.
#[derive(Clone, Debug, Default)]
pub struct NameArena {
    buf: String,
    ends: Vec<u32>,
}

impl NameArena {
    /// An empty arena with room for `names` names totalling `bytes` bytes.
    #[must_use]
    pub fn with_capacity(names: usize, bytes: usize) -> Self {
        NameArena { buf: String::with_capacity(bytes), ends: Vec::with_capacity(names) }
    }

    /// Appends `s`, returning its new symbol.
    ///
    /// # Panics
    ///
    /// Panics if the arena would exceed `u32::MAX` bytes or names.
    pub fn push(&mut self, s: &str) -> Sym {
        let sym = Sym(u32::try_from(self.ends.len()).expect("name arena exceeds u32 range"));
        self.buf.push_str(s);
        self.ends.push(u32::try_from(self.buf.len()).expect("name arena exceeds u32 range"));
        sym
    }

    /// The text of `sym`.
    ///
    /// # Panics
    ///
    /// Panics if `sym` was not issued by this arena.
    #[must_use]
    pub fn get(&self, sym: Sym) -> &str {
        let i = sym.index();
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.buf[start..self.ends[i] as usize]
    }

    /// Number of names stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether no name is stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Heap bytes held (capacity, not length).
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        self.buf.capacity() + self.ends.capacity() * 4
    }
}

/// Hasher for keys that already are 64-bit hashes: passes them through.
#[derive(Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("PassThrough only hashes u64 keys");
    }

    fn write_u64(&mut self, h: u64) {
        self.0 = h;
    }
}

/// The 64-bit hash a [`NameIndex`] files a name under.
pub(crate) fn hash_name(s: &str) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    s.hash(&mut h);
    h.finish()
}

const END: u32 = u32::MAX;

/// Finds entries by name: maps a name's 64-bit hash to the newest entry
/// filed under it, and chains older entries with the same hash through
/// one dense `u32` per entry. The index stores no text; callers compare
/// names while walking a chain, so a hash collision costs a comparison,
/// never a wrong answer. Building it costs one hash-map probe per entry
/// and no allocation per entry.
#[derive(Clone, Debug, Default)]
pub(crate) struct NameIndex {
    heads: HashMap<u64, u32, BuildHasherDefault<PassThrough>>,
    next: Vec<u32>,
}

impl NameIndex {
    /// An empty index with room for `entries` entries.
    pub(crate) fn with_capacity(entries: usize) -> Self {
        NameIndex {
            heads: HashMap::with_capacity_and_hasher(entries, BuildHasherDefault::default()),
            next: Vec::with_capacity(entries),
        }
    }

    /// Files entry `id` under hash `h`.
    pub(crate) fn insert(&mut self, h: u64, id: usize) {
        let id = u32::try_from(id).expect("name index exceeds u32 range");
        if self.next.len() <= id as usize {
            self.next.resize(id as usize + 1, END);
        }
        self.next[id as usize] = self.heads.insert(h, id).unwrap_or(END);
    }

    /// The entries filed under hash `h`, newest first.
    pub(crate) fn chain(&self, h: u64) -> impl Iterator<Item = usize> + '_ {
        let mut at = self.heads.get(&h).copied().unwrap_or(END);
        std::iter::from_fn(move || {
            (at != END).then(|| {
                let id = at as usize;
                at = self.next[id];
                id
            })
        })
    }

    /// Heap bytes held (capacity, not length).
    pub(crate) fn approx_bytes(&self) -> usize {
        // A hash-map slot holds the key and value plus one control byte.
        self.heads.capacity() * 17 + self.next.capacity() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_returns_what_was_pushed() {
        let mut a = NameArena::default();
        let x = a.push("alpha");
        let empty = a.push("");
        let y = a.push("alpha");
        assert_ne!(x, y, "push never deduplicates");
        assert_eq!((a.get(x), a.get(empty), a.get(y)), ("alpha", "", "alpha"));
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn chains_list_every_entry_under_a_hash_newest_first() {
        let mut i = NameIndex::default();
        i.insert(hash_name("Reader"), 4);
        i.insert(hash_name("Writer"), 5);
        i.insert(hash_name("Reader"), 9);
        assert_eq!(i.chain(hash_name("Reader")).collect::<Vec<_>>(), [9, 4]);
        assert_eq!(i.chain(hash_name("Writer")).collect::<Vec<_>>(), [5]);
        assert_eq!(i.chain(hash_name("Stream")).count(), 0);
    }

    #[test]
    fn colliding_names_share_a_chain() {
        // Two different names filed under one hash both stay reachable;
        // telling them apart is the caller's text comparison.
        let mut i = NameIndex::default();
        i.insert(7, 0);
        i.insert(7, 1);
        assert_eq!(i.chain(7).collect::<Vec<_>>(), [1, 0]);
    }
}
