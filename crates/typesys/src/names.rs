//! Name storage: strings stored back to back in one byte array and
//! addressed by `u32` ids, so a table of 10^5 names costs two arrays, not
//! 10^5 allocations; plus the hash index the type table finds names with.
//!
//! The arena's two arrays are exactly the `.pspk` string pool's: a
//! loaded arena borrows both from the snapshot buffer.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

use crate::{Slab, TypeError};

/// Append-only name storage: every name's UTF-8 bytes back to back, and
/// `len + 1` byte offsets — name `i` is `bytes[offsets[i]..offsets[i + 1]]`.
/// [`NameArena::push`] never deduplicates. Ids are only meaningful
/// against the arena that issued them.
#[derive(Clone, Debug)]
pub struct NameArena {
    offsets: Slab<u32>,
    bytes: Slab<u8>,
}

impl Default for NameArena {
    fn default() -> Self {
        NameArena { offsets: Slab::from_vec(vec![0]), bytes: Slab::default() }
    }
}

impl NameArena {
    /// An arena over stored arrays (a snapshot's string pool), checked so
    /// that every id below [`NameArena::len`] names valid UTF-8: offsets
    /// start at 0, never decrease, end at the byte count, and fall on
    /// character boundaries of a blob that is UTF-8 as a whole.
    ///
    /// # Errors
    ///
    /// [`TypeError::InvalidTable`] naming the violated rule.
    pub fn from_slabs(offsets: Slab<u32>, bytes: Slab<u8>) -> Result<NameArena, TypeError> {
        let invalid = |detail: String| Err(TypeError::InvalidTable { detail });
        let Ok(text) = std::str::from_utf8(&bytes) else {
            return invalid("name bytes are not UTF-8".to_owned());
        };
        if offsets.first() != Some(&0) {
            return invalid("name offsets must start at 0".to_owned());
        }
        if let Some(i) = offsets.windows(2).position(|w| w[0] > w[1]) {
            return invalid(format!("name offsets must be monotone (entry {i})"));
        }
        let end = offsets[offsets.len() - 1] as usize;
        if end != text.len() {
            let stored = text.len();
            return invalid(format!("name offsets end at {end} but {stored} bytes are stored"));
        }
        if let Some(i) = offsets.iter().position(|&o| !text.is_char_boundary(o as usize)) {
            return invalid(format!("name {i} starts inside a UTF-8 sequence"));
        }
        Ok(NameArena { offsets, bytes })
    }

    /// Appends `s`, returning its new id.
    ///
    /// # Panics
    ///
    /// Panics if the arena would exceed `u32::MAX` bytes or names.
    pub fn push(&mut self, s: &str) -> u32 {
        let id = u32::try_from(self.len()).expect("name arena exceeds u32 range");
        self.bytes.make_mut().extend_from_slice(s.as_bytes());
        let end = u32::try_from(self.bytes.len()).expect("name arena exceeds u32 range");
        self.offsets.make_mut().push(end);
        id
    }

    /// The UTF-8 bytes of name `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not below [`NameArena::len`].
    #[must_use]
    pub fn bytes(&self, id: u32) -> &[u8] {
        let i = id as usize;
        &self.bytes[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// The text of name `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not below [`NameArena::len`].
    #[must_use]
    pub fn get(&self, id: u32) -> &str {
        std::str::from_utf8(self.bytes(id)).expect("names are UTF-8 by construction")
    }

    /// Number of names stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether no name is stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether both arrays borrow from a snapshot buffer.
    #[must_use]
    pub fn is_borrowed(&self) -> bool {
        self.offsets.is_borrowed() && self.bytes.is_borrowed()
    }

    /// Bytes the two arrays occupy, owned or borrowed.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of_val(self.offsets.as_slice()) + self.bytes.len()
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

/// The 64-bit hash a [`NameIndex`] files a name's UTF-8 bytes under.
pub(crate) fn hash_name(s: &[u8]) -> u64 {
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
        self.walk(self.heads.get(&h).copied().unwrap_or(END))
    }

    /// The entries filed under `id`'s hash before it, newest first.
    pub(crate) fn older(&self, id: usize) -> impl Iterator<Item = usize> + '_ {
        self.walk(self.next[id])
    }

    fn walk(&self, mut at: u32) -> impl Iterator<Item = usize> + '_ {
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
    fn stored_arrays_are_checked() {
        let arena = |offsets: Vec<u32>, bytes: &[u8]| {
            NameArena::from_slabs(Slab::from_vec(offsets), Slab::from_vec(bytes.to_vec()))
        };
        let ok = arena(vec![0, 3, 3, 6], "héllo".as_bytes()).expect("valid pool");
        assert_eq!((ok.get(0), ok.get(1), ok.get(2)), ("h\u{e9}", "", "llo"));
        for (offsets, bytes, why) in [
            (vec![], &b""[..], "no offsets"),
            (vec![1, 2], &b"ab"[..], "first offset not 0"),
            (vec![0, 2, 1, 2], &b"ab"[..], "decreasing"),
            (vec![0, 1], &b"ab"[..], "short of the blob"),
            (vec![0, 3], &b"ab"[..], "past the blob"),
            (vec![0, 2, 3], "hé".as_bytes(), "cut inside \u{e9}"),
            (vec![0, 2], &[0xC3, 0x28][..], "not UTF-8"),
        ] {
            assert!(
                matches!(arena(offsets, bytes), Err(TypeError::InvalidTable { .. })),
                "{why}"
            );
        }
    }

    #[test]
    fn chains_list_every_entry_under_a_hash_newest_first() {
        let mut i = NameIndex::default();
        i.insert(hash_name(b"Reader"), 4);
        i.insert(hash_name(b"Writer"), 5);
        i.insert(hash_name(b"Reader"), 9);
        assert_eq!(i.chain(hash_name(b"Reader")).collect::<Vec<_>>(), [9, 4]);
        assert_eq!(i.older(9).collect::<Vec<_>>(), [4]);
        assert_eq!(i.chain(hash_name(b"Writer")).collect::<Vec<_>>(), [5]);
        assert_eq!(i.chain(hash_name(b"Stream")).count(), 0);
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
