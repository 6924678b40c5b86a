//! The on-disk term → (document, field) index: one encoder, one reader.
//!
//! The engine's Index-stage snapshot sections and an ingest segment store
//! the same five sections (DESIGN.md §8) beside a `terms`/`termoff`
//! vocabulary:
//!
//! ```text
//! postdir  per term: varint(posting count), varint(encoded bytes)
//! postblk  all posting lists, concatenated, block-compressed
//! postskp  skip entries of multi-block lists, concatenated
//! dfv      varint u32 per term (document frequency)
//! tfv      varint u64 per term (collection term frequency)
//! ```
//!
//! [`encode_posting_sections`] is the only writer of those bytes and
//! [`PostingsReader`] the only reader, whichever container they sit in.
//! The reader owns the parsed tables (directory, df, tf) and borrows the
//! posting bytes, per call, from the [`Snapshot`] its caller keeps — an
//! [`crate::EngineSnapshot`], an ingest segment, or the serving state
//! that merges both.

use crate::index::{unpack_posting, Posting};
use crate::snapshot::schema::{DFV, POSTBLK, POSTDIR, POSTSKP, TERMOFF, TERMS, TFV};
use crate::{DocId, TermId};
use inspire_store::{codec, Snapshot, SnapshotWriter};
use intern::TermTable;
use std::cell::RefCell;
use std::io;
use std::ops::Range;

// The codec packs the field id into 3 bits of the value varint.
const _: () = assert!(
    crate::FIELD_NAMES.len() <= 8,
    "field ids must fit the codec's 3-bit field slot"
);

thread_local! {
    /// Reusable per-thread decode buffer: one list's block decodes land
    /// here before conversion to [`Posting`]s, so steady-state serving
    /// does no per-query pair allocations.
    static PAIR_SCRATCH: RefCell<Vec<(u32, u32)>> = const { RefCell::new(Vec::new()) };
}

/// Codec pair for one posting: key = doc id, val = `freq << 3 | field`.
/// Pairs must be produced from [`Posting`]-sorted order (doc, field,
/// freq): that is the order every query path serves.
pub fn posting_to_pair(p: Posting) -> (u32, u32) {
    (p.doc, (p.freq.min(0xFF_FFFF) << 3) | p.field as u32)
}

/// Inverse of [`posting_to_pair`].
pub fn pair_to_posting(key: u32, val: u32) -> Posting {
    Posting {
        doc: key,
        field: (val & 0x7) as crate::FieldId,
        freq: val >> 3,
    }
}

/// The block-compressed index sections (DESIGN.md §8): a per-term
/// directory, concatenated delta/varint posting blocks, skip entries for
/// multi-block terms only, and varint df/tf streams.
pub struct EncodedIndex {
    pub dir: Vec<u8>,
    pub blk: Vec<u8>,
    pub skips: Vec<u64>,
    pub dfv: Vec<u8>,
    pub tfv: Vec<u8>,
}

/// Encode the engine's replicated index — flat packed postings behind
/// per-term offsets — into the compressed sections. Postings are sorted
/// per term (scatter order depends on scheduling) before delta-encoding,
/// which both makes the bytes deterministic and matches the order every
/// query path serves.
pub fn encode_index_sections(
    offsets: &[i64],
    postdat: &[u64],
    df: &[u32],
    tf: &[u64],
) -> EncodedIndex {
    encode_posting_sections(offsets.len().saturating_sub(1), df, tf, |t, posts| {
        let (lo, hi) = (offsets[t] as usize, offsets[t + 1] as usize);
        posts.extend(postdat[lo..hi].iter().map(|&e| unpack_posting(e)));
    })
}

/// Encode arbitrary posting lists into the compressed sections. `fill`
/// appends term `t`'s postings (any order — they are sorted by (doc,
/// field) here; a term lists each pair once). The batch pipeline, the
/// incremental-ingest sealer and the compactor all write through this, so
/// segment bytes follow the exact rules of a full rebuild: saturated
/// freqs, count+len directory varints, and skip entries only for lists
/// longer than one block.
pub fn encode_posting_sections(
    vocab: usize,
    df: &[u32],
    tf: &[u64],
    mut fill: impl FnMut(usize, &mut Vec<Posting>),
) -> EncodedIndex {
    let mut enc = EncodedIndex {
        dir: Vec::with_capacity(vocab * 3),
        blk: Vec::new(),
        skips: Vec::new(),
        dfv: Vec::with_capacity(vocab * 2),
        tfv: Vec::with_capacity(vocab * 2),
    };
    let mut posts: Vec<Posting> = Vec::new();
    let mut keys: Vec<u64> = Vec::new();
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    let mut term_skips: Vec<u64> = Vec::new();
    for t in 0..vocab {
        posts.clear();
        fill(t, &mut posts);
        // Sort `doc | field | saturated freq` as one integer: the order of
        // `Posting`'s derived `Ord`, at a third of the comparison cost.
        // (doc, field) is unique within a term, so freq never decides.
        keys.clear();
        keys.extend(posts.iter().map(|p| {
            ((p.doc as u64) << 32) | ((p.field as u64) << 24) | p.freq.min(0xFF_FFFF) as u64
        }));
        keys.sort_unstable();
        debug_assert!(
            keys.windows(2).all(|w| w[0] >> 24 < w[1] >> 24),
            "term {t}: (doc, field) repeats"
        );
        pairs.clear();
        pairs.extend(keys.iter().map(|&k| {
            posting_to_pair(Posting {
                doc: (k >> 32) as DocId,
                field: (k >> 24) as crate::FieldId,
                freq: k as u32 & 0xFF_FFFF,
            })
        }));
        term_skips.clear();
        let byte_len = codec::encode_list(&pairs, &mut enc.blk, &mut term_skips);
        codec::write_u32(&mut enc.dir, pairs.len() as u32);
        codec::write_u32(&mut enc.dir, byte_len as u32);
        // Single-block lists need no seek table; deriving "no skips" from
        // the count keeps the section proportional to long lists only.
        if pairs.len() > codec::BLOCK_LEN {
            enc.skips.extend_from_slice(&term_skips);
        }
    }
    for &d in df {
        codec::write_u32(&mut enc.dfv, d);
    }
    for &v in tf {
        codec::write_u64(&mut enc.tfv, v);
    }
    enc
}

/// Append the five index sections to `w`: the one place the batch
/// pipeline, `vaengine migrate`, the ingest sealer and the compactor
/// write them.
pub fn write_index_sections(w: &mut SnapshotWriter, enc: &EncodedIndex) -> io::Result<()> {
    POSTDIR.put(w, &enc.dir)?;
    POSTBLK.put(w, &enc.blk)?;
    POSTSKP.put(w, &enc.skips)?;
    DFV.put(w, &enc.dfv)?;
    TFV.put(w, &enc.tfv)
}

/// Parsed `postdir` directory: where each term's compressed posting list
/// and skip entries live inside the `postblk` / `postskp` sections.
/// Parsing touches only the directory (two varints per term); posting
/// bytes stay unread until a query decodes them.
pub struct PostingsDir {
    counts: Vec<u32>,
    offsets: Vec<u64>,
    skip_offsets: Vec<u32>,
}

impl PostingsDir {
    /// Parse and fully cross-check the directory against the posting and
    /// skip section lengths.
    pub fn parse(dir: &[u8], vocab: usize, blk_len: usize, skip_len: usize) -> io::Result<Self> {
        let err =
            |msg: String| io::Error::new(io::ErrorKind::InvalidData, format!("postdir: {msg}"));
        let mut counts = Vec::with_capacity(vocab);
        let mut offsets = Vec::with_capacity(vocab + 1);
        let mut skip_offsets = Vec::with_capacity(vocab + 1);
        let mut at = 0usize;
        let mut byte_at = 0u64;
        let mut skip_at = 0u32;
        for _ in 0..vocab {
            offsets.push(byte_at);
            skip_offsets.push(skip_at);
            let n = codec::read_u32(dir, &mut at)?;
            let len = codec::read_u32(dir, &mut at)?;
            counts.push(n);
            byte_at += len as u64;
            if n as usize > codec::BLOCK_LEN {
                skip_at += (n as usize).div_ceil(codec::BLOCK_LEN) as u32;
            }
        }
        offsets.push(byte_at);
        skip_offsets.push(skip_at);
        if at != dir.len() {
            return Err(err(format!("{} trailing bytes", dir.len() - at)));
        }
        if byte_at != blk_len as u64 {
            return Err(err(format!(
                "directory covers {byte_at} posting bytes, section has {blk_len}"
            )));
        }
        if skip_at as usize != skip_len {
            return Err(err(format!(
                "directory expects {skip_at} skip entries, section has {skip_len}"
            )));
        }
        Ok(PostingsDir {
            counts,
            offsets,
            skip_offsets,
        })
    }

    pub fn vocab(&self) -> usize {
        self.counts.len()
    }

    /// Posting count of `term`.
    pub fn count(&self, term: TermId) -> u32 {
        self.counts[term as usize]
    }

    /// Total postings across all terms.
    pub fn total_postings(&self) -> u64 {
        self.counts.iter().map(|&c| c as u64).sum()
    }

    /// Byte range of `term`'s list within `postblk`.
    pub fn byte_range(&self, term: TermId) -> Range<usize> {
        self.offsets[term as usize] as usize..self.offsets[term as usize + 1] as usize
    }

    /// Range of `term`'s entries within `postskp` (empty for lists of at
    /// most one block).
    pub fn skip_range(&self, term: TermId) -> Range<usize> {
        self.skip_offsets[term as usize] as usize..self.skip_offsets[term as usize + 1] as usize
    }
}

pub(crate) fn bad(snap: &Snapshot, msg: String) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("{}: {msg}", snap.source()),
    )
}

/// The sorted vocabulary stored in `snap`'s `terms`/`termoff` sections.
pub fn read_terms(snap: &Snapshot) -> io::Result<TermTable> {
    let arena = snap.require(TERMS.name)?.bytes().to_vec();
    let offsets = snap.require(TERMOFF.name)?.as_u32s()?.to_vec();
    TermTable::from_parts(arena, offsets).map_err(|e| bad(snap, format!("vocabulary: {e}")))
}

/// Reader of one container's index sections. [`PostingsReader::open`]
/// validates all five once; every later call is handed the same
/// snapshot and only decodes.
pub struct PostingsReader {
    dir: PostingsDir,
    df: Vec<u32>,
    tf: Vec<u64>,
}

impl PostingsReader {
    /// Parse and cross-check `snap`'s index sections for a vocabulary of
    /// `vocab` terms. `postdir`/`dfv`/`tfv` are read through `.bytes()`:
    /// segments sealed before the one writer carry them as `Bytes`.
    pub fn open(snap: &Snapshot, vocab: usize) -> io::Result<PostingsReader> {
        let blk = snap.require(POSTBLK.name)?.as_packed()?;
        let skips = snap.require(POSTSKP.name)?.as_skips()?;
        let dir = PostingsDir::parse(
            snap.require(POSTDIR.name)?.bytes(),
            vocab,
            blk.len(),
            skips.len(),
        )
        .map_err(|e| bad(snap, e.to_string()))?;
        let dfv = snap.require(DFV.name)?.bytes();
        let mut df = Vec::with_capacity(vocab);
        let mut at = 0usize;
        codec::read_varints_u32(dfv, &mut at, vocab, &mut df)
            .map_err(|e| bad(snap, format!("dfv: {e}")))?;
        if at != dfv.len() {
            return Err(bad(snap, format!("dfv: {} trailing bytes", dfv.len() - at)));
        }
        let tfv = snap.require(TFV.name)?.bytes();
        let mut tf = Vec::with_capacity(vocab);
        let mut at = 0usize;
        for _ in 0..vocab {
            tf.push(codec::read_u64(tfv, &mut at).map_err(|e| bad(snap, format!("tfv: {e}")))?);
        }
        if at != tfv.len() {
            return Err(bad(snap, format!("tfv: {} trailing bytes", tfv.len() - at)));
        }
        Ok(PostingsReader { dir, df, tf })
    }

    /// Where each term's list lives (counts, byte and skip ranges).
    pub fn dir(&self) -> &PostingsDir {
        &self.dir
    }

    /// Document frequency per term.
    pub fn df(&self) -> &[u32] {
        &self.df
    }

    /// Collection frequency per term.
    pub fn tf(&self) -> &[u64] {
        &self.tf
    }

    /// Decode part of `term`'s list out of `snap` — the container this
    /// reader was opened on — through the per-thread pair scratch. The
    /// store's CRCs cover the bytes, so an error here means the file was
    /// written wrong, not that the disk flipped a bit.
    fn decode(
        &self,
        snap: &Snapshot,
        term: TermId,
        out: &mut Vec<Posting>,
        run: impl FnOnce(&[u8], usize, &mut Vec<(u32, u32)>) -> io::Result<()>,
    ) -> io::Result<()> {
        let n = self.dir.count(term) as usize;
        if n == 0 {
            return Ok(());
        }
        let blk = snap.require(POSTBLK.name)?.bytes();
        PAIR_SCRATCH.with(|s| {
            let mut pairs = s.borrow_mut();
            pairs.clear();
            run(&blk[self.dir.byte_range(term)], n, &mut pairs)
                .map_err(|e| bad(snap, format!("postings of term {term}: {e}")))?;
            out.extend(pairs.iter().map(|&(k, v)| pair_to_posting(k, v)));
            Ok(())
        })
    }

    /// Append `term`'s full posting list, in (doc, field) order.
    pub fn postings_into(
        &self,
        snap: &Snapshot,
        term: TermId,
        out: &mut Vec<Posting>,
    ) -> io::Result<()> {
        self.decode(snap, term, out, codec::decode_list)
    }

    /// Append only postings with `doc ≥ min_doc`, seeking through the
    /// skip entries of multi-block lists.
    pub fn postings_from(
        &self,
        snap: &Snapshot,
        term: TermId,
        min_doc: u32,
        out: &mut Vec<Posting>,
    ) -> io::Result<()> {
        self.decode(snap, term, out, |bytes, n, pairs| {
            let skips = snap.require(POSTSKP.name)?.as_skips()?;
            codec::decode_from(bytes, n, &skips[self.dir.skip_range(term)], min_doc, pairs)
        })
    }

    /// Append only postings with a document in `docs`, seeking to the
    /// first block that can hold one and stopping after the block that
    /// passes `docs.end`.
    pub fn postings_in(
        &self,
        snap: &Snapshot,
        term: TermId,
        docs: Range<DocId>,
        out: &mut Vec<Posting>,
    ) -> io::Result<()> {
        self.decode(snap, term, out, |bytes, n, pairs| {
            let skips = snap.require(POSTSKP.name)?.as_skips()?;
            codec::decode_range(bytes, n, &skips[self.dir.skip_range(term)], docs, pairs)
        })
    }
}

/// Sorted union of component vocabularies — merge-on-read serving and
/// compaction see the same merged term order. `visit` is called once per
/// distinct term, in byte order, with the `(component, local term id)`
/// of every component that holds it, components ascending.
pub fn union_vocabularies<'a>(
    vocabs: &[&'a TermTable],
    mut visit: impl FnMut(&'a str, &[(usize, u32)]),
) {
    let mut keyed: Vec<(&str, usize, u32)> =
        Vec::with_capacity(vocabs.iter().map(|t| t.len()).sum());
    for (c, terms) in vocabs.iter().enumerate() {
        for (local, term) in terms.iter().enumerate() {
            keyed.push((term, c, local as u32));
        }
    }
    keyed.sort_unstable_by(|a, b| a.0.as_bytes().cmp(b.0.as_bytes()).then(a.1.cmp(&b.1)));
    let mut members: Vec<(usize, u32)> = Vec::new();
    let mut at = 0usize;
    while at < keyed.len() {
        let term = keyed[at].0;
        members.clear();
        while at < keyed.len() && keyed[at].0 == term {
            members.push((keyed[at].1, keyed[at].2));
            at += 1;
        }
        visit(term, &members);
    }
}
