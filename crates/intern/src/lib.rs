//! # intern — allocation-free term interning
//!
//! The engine's scan/remap hot path performs one vocabulary lookup per
//! token. Backing those lookups with `HashMap<String, _>` costs a heap
//! allocation per distinct term (the owned key), a SipHash pass per
//! probe, and pointer-chasing per string. This crate removes all three:
//!
//! * [`TermInterner`] — terms live contiguously in one string **arena**;
//!   the map is a span-keyed open-addressing table hashed with a
//!   hand-rolled FxHash-style multiply-xor hasher. Interning an
//!   already-seen term is one hash pass and zero allocations; a new term
//!   appends its bytes to the arena (amortized, no per-term allocation).
//!   Ids are dense `0..len` in first-insertion order.
//! * [`TermTable`] — an immutable, lexicographically sorted term list in
//!   one arena with `O(log n)` string→id search and `O(1)` id→string
//!   access. This replaces `Vec<String>` vocabulary tables.
//!
//! Both arenas are `String`s: UTF-8 is checked once, when a term enters
//! (or a serialized table is rebuilt), and reading a term back is a
//! slice with no re-validation.
//!
//! Both structures are deterministic: no random hash seeds, iteration in
//! insertion (respectively sorted) order.

/// Multiplier of the FxHash-style hasher (the Firefox/rustc hash): a
/// single odd constant with good bit dispersion under wrapping multiply.
const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Hash `bytes` by folding 8-byte words: `h = (rotl(h, 5) ^ w) * SEED`.
/// One multiply per word instead of SipHash's per-byte rounds; not
/// DoS-hardened, which is fine for trusted corpus-derived terms.
#[inline]
pub fn fxhash(bytes: &[u8]) -> u64 {
    #[inline]
    fn mix(h: u64, w: u64) -> u64 {
        (h.rotate_left(5) ^ w).wrapping_mul(FX_SEED)
    }
    let mut h = 0u64;
    let mut chunks = bytes.chunks_exact(8);
    for c in chunks.by_ref() {
        h = mix(h, u64::from_le_bytes(c.try_into().unwrap()));
    }
    let rest = chunks.remainder();
    if !rest.is_empty() {
        let mut w = 0u64;
        for (i, &b) in rest.iter().enumerate() {
            w |= (b as u64) << (8 * i);
        }
        // Fold the length in so "ab" and "ab\0" (as a padded word) differ.
        h = mix(h, w ^ ((bytes.len() as u64) << 56));
    } else {
        h = mix(h, bytes.len() as u64);
    }
    h
}

/// (arena offset, length) of one interned term.
#[derive(Debug, Clone, Copy)]
struct Span {
    start: u32,
    len: u32,
}

/// A deterministic string interner: dense `u32` ids in insertion order,
/// term bytes in a single arena, lookups via span-keyed open addressing.
#[derive(Debug, Clone, Default)]
pub struct TermInterner {
    arena: String,
    spans: Vec<Span>,
    /// Open-addressing table of `id + 1` (0 = empty). Power-of-two size.
    table: Vec<u32>,
}

impl TermInterner {
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-size for about `terms` distinct terms of `avg_len` bytes.
    pub fn with_capacity(terms: usize, avg_len: usize) -> Self {
        let mut s = TermInterner {
            arena: String::with_capacity(terms * avg_len),
            spans: Vec::with_capacity(terms),
            table: Vec::new(),
        };
        s.rebuild_table(terms);
        s
    }

    /// Number of distinct interned terms.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The bytes of term `id`.
    #[inline]
    pub fn bytes(&self, id: u32) -> &[u8] {
        self.get(id).as_bytes()
    }

    /// The term `id`: a slice of the arena, checked as UTF-8 when it
    /// was interned.
    #[inline]
    pub fn get(&self, id: u32) -> &str {
        let s = self.spans[id as usize];
        &self.arena[s.start as usize..(s.start + s.len) as usize]
    }

    /// Terms in insertion (id) order.
    pub fn iter(&self) -> impl Iterator<Item = &str> + '_ {
        (0..self.spans.len() as u32).map(|id| self.get(id))
    }

    #[inline]
    fn mask(&self) -> usize {
        self.table.len() - 1
    }

    /// Grow (or create) the table for at least `want` entries and rehash
    /// every span. Capacity stays a power of two at < 50% load.
    fn rebuild_table(&mut self, want: usize) {
        let cap = (want.max(8) * 2).next_power_of_two();
        self.table = vec![0u32; cap];
        let mask = cap - 1;
        for (i, s) in self.spans.iter().enumerate() {
            let bytes = &self.arena.as_bytes()[s.start as usize..(s.start + s.len) as usize];
            let mut at = (fxhash(bytes) as usize) & mask;
            while self.table[at] != 0 {
                at = (at + 1) & mask;
            }
            self.table[at] = i as u32 + 1;
        }
    }

    /// Intern `term`: returns `(id, newly_inserted)`. Exactly one hash
    /// pass; an existing term allocates nothing.
    pub fn intern(&mut self, term: &str) -> (u32, bool) {
        self.intern_raw(term.as_bytes(), fxhash(term.as_bytes()))
    }

    /// Intern term `id` of `other`: the path for moving terms between
    /// interners.
    pub fn intern_from(&mut self, other: &TermInterner, id: u32) -> (u32, bool) {
        let bytes = other.bytes(id);
        self.intern_raw(bytes, fxhash(bytes))
    }

    /// Byte-keyed [`TermInterner::intern`] for ASCII terms, with the
    /// caller supplying `fxhash(bytes)` — for hot paths that produce
    /// terms as bytes and probe several interner-backed sets with one
    /// hash computation (the tokenizer shares one hash between the
    /// stopword set and the vocabulary).
    ///
    /// # Panics
    /// If `bytes` is not ASCII: the arena must stay valid UTF-8, and
    /// ASCII is the check that costs a word compare per eight bytes.
    #[inline]
    pub fn intern_ascii_hashed(&mut self, bytes: &[u8], hash: u64) -> (u32, bool) {
        assert!(bytes.is_ascii(), "byte-keyed terms are ASCII");
        self.intern_raw(bytes, hash)
    }

    /// The one insert path. `bytes` is valid UTF-8 and `hash` its
    /// `fxhash`; every public entry point establishes both. Only a new
    /// term's bytes are checked again, as they enter the arena.
    #[inline]
    fn intern_raw(&mut self, bytes: &[u8], hash: u64) -> (u32, bool) {
        debug_assert_eq!(hash, fxhash(bytes), "caller-supplied hash");
        if self.table.is_empty() || self.spans.len() * 2 >= self.table.len() {
            self.rebuild_table(self.spans.len() + 1);
        }
        let mask = self.mask();
        let mut at = (hash as usize) & mask;
        loop {
            match self.table[at] {
                0 => break,
                slot => {
                    if self.bytes(slot - 1) == bytes {
                        return (slot - 1, false);
                    }
                    at = (at + 1) & mask;
                }
            }
        }
        let id = self.spans.len() as u32;
        let start = self.arena.len() as u32;
        self.arena
            .push_str(std::str::from_utf8(bytes).expect("interned terms are UTF-8"));
        self.spans.push(Span {
            start,
            len: bytes.len() as u32,
        });
        self.table[at] = id + 1;
        (id, true)
    }

    /// Id of `term` if present; one hash pass, zero allocations.
    #[inline]
    pub fn lookup(&self, term: &str) -> Option<u32> {
        self.lookup_bytes(term.as_bytes())
    }

    /// Byte-keyed variant of [`TermInterner::lookup`].
    #[inline]
    pub fn lookup_bytes(&self, bytes: &[u8]) -> Option<u32> {
        self.lookup_bytes_hashed(bytes, fxhash(bytes))
    }

    /// [`TermInterner::lookup_bytes`] with the caller supplying
    /// `fxhash(bytes)` (see [`TermInterner::intern_ascii_hashed`]).
    #[inline]
    pub fn lookup_bytes_hashed(&self, bytes: &[u8], hash: u64) -> Option<u32> {
        debug_assert_eq!(hash, fxhash(bytes), "caller-supplied hash");
        if self.table.is_empty() {
            return None;
        }
        let mask = self.mask();
        let mut at = (hash as usize) & mask;
        loop {
            match self.table[at] {
                0 => return None,
                slot => {
                    if self.bytes(slot - 1) == bytes {
                        return Some(slot - 1);
                    }
                    at = (at + 1) & mask;
                }
            }
        }
    }
}

/// An immutable, lexicographically sorted term list: one byte arena plus
/// an offset table. `table[i]` is the term with canonical id `i`;
/// [`TermTable::position`] finds a term's id by binary search.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TermTable {
    arena: String,
    /// `offsets[i]..offsets[i+1]` spans term `i`; length `len + 1`.
    offsets: Vec<u32>,
}

impl TermTable {
    /// Build from terms already in ascending order (callers sort; the
    /// engine's canonical vocabulary is sorted collectively).
    pub fn from_sorted<'a>(terms: impl IntoIterator<Item = &'a str>) -> Self {
        let mut arena = String::new();
        let mut offsets = vec![0u32];
        for t in terms {
            arena.push_str(t);
            offsets.push(arena.len() as u32);
        }
        debug_assert!(
            (1..offsets.len().saturating_sub(1)).all(|i| {
                let a = &arena[offsets[i - 1] as usize..offsets[i] as usize];
                let b = &arena[offsets[i] as usize..offsets[i + 1] as usize];
                a <= b
            }),
            "TermTable input must be sorted"
        );
        TermTable { arena, offsets }
    }

    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The term with canonical id `i`: a slice of the arena, checked as
    /// UTF-8 when the table was built.
    #[inline]
    pub fn get(&self, i: usize) -> &str {
        &self.arena[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Canonical id of `term`, if present (binary search).
    pub fn position(&self, term: &str) -> Option<usize> {
        let mut lo = 0usize;
        let mut hi = self.len();
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.get(mid).cmp(term) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Some(mid),
            }
        }
        None
    }

    /// Terms in canonical (sorted) order.
    pub fn iter(&self) -> impl Iterator<Item = &str> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// The raw term arena, for serialization. Together with
    /// [`TermTable::offsets`] this is the table's entire state.
    pub fn arena_bytes(&self) -> &[u8] {
        self.arena.as_bytes()
    }

    /// The offset table (`len + 1` entries, `offsets[i]..offsets[i+1]`
    /// spans term `i`), for serialization.
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// Rebuild a table from a serialized arena and offset table,
    /// validating every invariant [`TermTable::from_sorted`] guarantees:
    /// offsets start at 0, end at the arena length, are non-decreasing,
    /// every span is valid UTF-8, and terms are strictly ascending.
    pub fn from_parts(arena: Vec<u8>, offsets: Vec<u32>) -> Result<Self, String> {
        if offsets.is_empty() {
            return Err("offset table is empty (needs at least [0])".into());
        }
        if offsets[0] != 0 {
            return Err(format!("offset table starts at {}, not 0", offsets[0]));
        }
        if *offsets.last().unwrap() as usize != arena.len() {
            return Err(format!(
                "offset table ends at {} but the arena has {} bytes",
                offsets.last().unwrap(),
                arena.len()
            ));
        }
        for (i, w) in offsets.windows(2).enumerate() {
            if w[0] > w[1] {
                return Err(format!("offsets decrease at term {i}: {} > {}", w[0], w[1]));
            }
        }
        // Every span is UTF-8 exactly when the whole arena is and no
        // offset splits a character; the term named is the first one
        // that holds (or ends inside) the bad bytes.
        let not_utf8 = |at: usize| {
            let i = offsets.partition_point(|&o| o as usize <= at) - 1;
            format!("term {i} is not valid UTF-8")
        };
        let arena = String::from_utf8(arena).map_err(|e| not_utf8(e.utf8_error().valid_up_to()))?;
        if let Some(&o) = offsets
            .iter()
            .find(|&&o| !arena.is_char_boundary(o as usize))
        {
            return Err(not_utf8(o as usize - 1));
        }
        // Byte order is `str` order: the order check compares bytes and
        // reads terms only for its message.
        let t = TermTable { arena, offsets };
        let span = |i: usize| &t.arena.as_bytes()[t.offsets[i] as usize..t.offsets[i + 1] as usize];
        for i in 1..t.len() {
            if span(i - 1) >= span(i) {
                return Err(format!(
                    "terms not strictly ascending at {i}: `{}` >= `{}`",
                    t.get(i - 1),
                    t.get(i)
                ));
            }
        }
        Ok(t)
    }
}

impl std::ops::Index<usize> for TermTable {
    type Output = str;
    fn index(&self, i: usize) -> &str {
        self.get(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_dense_ids_in_insertion_order() {
        let mut it = TermInterner::new();
        assert_eq!(it.intern("protein"), (0, true));
        assert_eq!(it.intern("kinase"), (1, true));
        assert_eq!(it.intern("protein"), (0, false));
        assert_eq!(it.len(), 2);
        assert_eq!(it.get(0), "protein");
        assert_eq!(it.get(1), "kinase");
        assert_eq!(it.iter().collect::<Vec<_>>(), vec!["protein", "kinase"]);
    }

    #[test]
    fn lookup_without_insert() {
        let mut it = TermInterner::new();
        assert_eq!(it.lookup("x"), None);
        it.intern("x");
        assert_eq!(it.lookup("x"), Some(0));
        assert_eq!(it.lookup("y"), None);
    }

    #[test]
    fn survives_growth_and_collisions() {
        let mut it = TermInterner::new();
        let words: Vec<String> = (0..5000).map(|i| format!("term{i}")).collect();
        for (i, w) in words.iter().enumerate() {
            assert_eq!(it.intern(w), (i as u32, true));
        }
        // Every term still resolves after many table rebuilds.
        for (i, w) in words.iter().enumerate() {
            assert_eq!(it.lookup(w), Some(i as u32), "{w}");
            assert_eq!(it.get(i as u32), w);
        }
        assert_eq!(it.len(), 5000);
    }

    #[test]
    fn empty_and_embedded_terms_distinct() {
        let mut it = TermInterner::new();
        let (a, _) = it.intern("ab");
        let (b, _) = it.intern("abc");
        let (c, _) = it.intern("");
        assert!(a != b && b != c && a != c);
        assert_eq!(it.lookup(""), Some(c));
        assert_eq!(it.get(c), "");
    }

    #[test]
    fn fxhash_is_stable_and_length_sensitive() {
        // Pin values so shard placement / table layouts never change
        // silently across toolchains.
        assert_eq!(fxhash(b"protein"), fxhash(b"protein"));
        assert_ne!(fxhash(b"abc"), fxhash(b"acb"));
        assert_ne!(fxhash(b"a"), fxhash(b"a\0"));
        assert_ne!(fxhash(b""), fxhash(b"\0"));
        assert_ne!(fxhash(b"12345678"), fxhash(b"123456780"));
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let mut a = TermInterner::new();
        let mut b = TermInterner::with_capacity(100, 8);
        for w in ["alpha", "beta", "alpha", "gamma"] {
            assert_eq!(a.intern(w), b.intern(w));
        }
    }

    #[test]
    fn byte_keyed_paths_agree_with_intern() {
        let mut by_str = TermInterner::new();
        let mut by_bytes = TermInterner::new();
        for w in ["kinase", "il6", "kinase", "p53", "il6"] {
            let b = w.as_bytes();
            assert_eq!(by_str.intern(w), by_bytes.intern_ascii_hashed(b, fxhash(b)));
        }
        // Moving terms interner to interner keeps ids, flags and bytes.
        let mut moved = TermInterner::new();
        for id in 0..by_bytes.len() as u32 {
            assert_eq!(moved.intern_from(&by_bytes, id), (id, true));
            assert_eq!(moved.intern_from(&by_bytes, id), (id, false));
            assert_eq!(moved.get(id), by_str.get(id));
        }
    }

    #[test]
    #[should_panic(expected = "byte-keyed terms are ASCII")]
    fn byte_keyed_intern_rejects_non_ascii() {
        let bad = [0xFFu8, 0xFE];
        TermInterner::new().intern_ascii_hashed(&bad, fxhash(&bad));
    }

    #[test]
    fn clone_is_independent() {
        let mut a = TermInterner::new();
        a.intern("one");
        let mut b = a.clone();
        b.intern("two");
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 2);
        assert_eq!(a.lookup("two"), None);
    }

    #[test]
    fn table_roundtrip_and_search() {
        let mut terms: Vec<String> = (0..500).map(|i| format!("w{i:04}")).collect();
        terms.sort();
        let t = TermTable::from_sorted(terms.iter().map(|s| s.as_str()));
        assert_eq!(t.len(), 500);
        for (i, w) in terms.iter().enumerate() {
            assert_eq!(t.get(i), w);
            assert_eq!(&t[i], w.as_str());
            assert_eq!(t.position(w), Some(i));
        }
        assert_eq!(t.position("zzz"), None);
        assert_eq!(t.position(""), None);
    }

    #[test]
    fn table_empty() {
        let t = TermTable::from_sorted(std::iter::empty());
        assert_eq!(t.len(), 0);
        assert!(t.is_empty());
        assert_eq!(t.position("x"), None);
        assert_eq!(t.iter().count(), 0);
    }

    #[test]
    fn table_parts_roundtrip() {
        let t = TermTable::from_sorted(["apple", "banana", "cherry"]);
        let back = TermTable::from_parts(t.arena_bytes().to_vec(), t.offsets().to_vec()).unwrap();
        assert_eq!(t, back);
        assert_eq!(back.position("banana"), Some(1));

        let empty = TermTable::from_sorted(std::iter::empty());
        let back =
            TermTable::from_parts(empty.arena_bytes().to_vec(), empty.offsets().to_vec()).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn from_parts_rejects_malformed_input() {
        // Empty offset table.
        assert!(TermTable::from_parts(vec![], vec![]).is_err());
        // First offset not zero.
        assert!(TermTable::from_parts(b"ab".to_vec(), vec![1, 2]).is_err());
        // Last offset disagrees with arena length.
        assert!(TermTable::from_parts(b"ab".to_vec(), vec![0, 1]).is_err());
        // Decreasing offsets.
        assert!(TermTable::from_parts(b"ab".to_vec(), vec![0, 2, 1, 2]).is_err());
        // Invalid UTF-8 span, named by its term.
        assert!(TermTable::from_parts(vec![0xFF, 0xFE], vec![0, 2]).is_err());
        assert_eq!(
            TermTable::from_parts(vec![b'a', 0xFF, b'b'], vec![0, 1, 2, 3]),
            Err("term 1 is not valid UTF-8".to_string())
        );
        // A valid arena cut inside a character ("é" is two bytes).
        assert_eq!(
            TermTable::from_parts("é".into(), vec![0, 1, 2]),
            Err("term 0 is not valid UTF-8".to_string())
        );
        // Unsorted terms.
        assert!(TermTable::from_parts(b"ba".to_vec(), vec![0, 1, 2]).is_err());
        // Duplicate terms (must be strictly ascending).
        assert!(TermTable::from_parts(b"aa".to_vec(), vec![0, 1, 2]).is_err());
    }

    #[test]
    fn table_iter_sorted() {
        let t = TermTable::from_sorted(["apple", "banana", "cherry"]);
        let v: Vec<&str> = t.iter().collect();
        assert_eq!(v, vec!["apple", "banana", "cherry"]);
        for w in v.windows(2) {
            assert!(w[0] < w[1]);
        }
    }
}
