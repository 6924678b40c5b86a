//! The one declaration of every on-disk section.
//!
//! An engine snapshot and an ingest segment are `inspire-store`
//! containers of named sections. Each section is one [`Row`]: writers
//! and readers take names and kinds from the rows, [`check`] holds a
//! file to its table at open, `core::migrate` re-encodes the
//! [`RETIRED_INDEX`] rows, and a test holds DESIGN.md §8's tables to
//! them. Adding a section is one row, its [`Row::put`] and its consumer.

use super::Stage;
use crate::postings::bad;
use crate::signature::SignatureStats;
use inspire_store::{Scalar, SectionKind, Snapshot, SnapshotWriter};
use std::io;
use Len::{Fixed, LastOf, Parser, SumPlusOne};
use SectionKind::{Bytes, Packed, Quant, Skip, F64, I64, U32, U64};
use Stage::{Final, Index, Scan, Sig};
use Values::{Any, IdsBelow, Offsets, Partition};

/// What fixes a section's element count.
#[derive(Clone, Copy)]
pub enum Len {
    /// A count the `meta` section fixes.
    Fixed(fn(&EngineMeta) -> usize),
    /// The last entry of an offsets section.
    LastOf(&'static Row),
    /// One more than the sum of a counts section.
    SumPlusOne(&'static Row),
    /// Nothing in the table: the section's parser judges the payload,
    /// reading it through `.bytes()` whatever byte kind it carries.
    Parser,
}

/// What a section's entries must be, beyond their count.
#[derive(Clone, Copy)]
pub enum Values {
    Any,
    /// An offsets table — first entry 0, non-decreasing — whose last
    /// entry the `LastOf` rows citing it pin.
    Offsets,
    /// An offsets table whose last entry is the document count.
    Partition,
    /// Distinct `u32` ids below a count.
    IdsBelow(fn(&EngineMeta) -> usize),
}

/// One on-disk section.
#[derive(Clone, Copy)]
pub struct Row {
    pub name: &'static str,
    pub kind: SectionKind,
    /// First stage whose snapshots carry the section.
    pub stage: Stage,
    /// Last stage whose snapshots carry the section.
    pub last: Stage,
    pub len: Len,
    pub values: Values,
}

const fn row(name: &'static str, kind: SectionKind, stage: Stage, len: Len) -> Row {
    Row {
        name,
        kind,
        stage,
        last: Final,
        len,
        values: Any,
    }
}

impl Row {
    /// Append `data` as this section: name and kind come from the row,
    /// so a writer cannot disagree with the table.
    pub fn put<T: Scalar>(&self, w: &mut SnapshotWriter, data: &[T]) -> io::Result<()> {
        w.add_section(self.name, self.kind, data)
    }

    /// Whether a snapshot of `stage` carries the section.
    pub fn carried_at(&self, stage: Stage) -> bool {
        (self.stage..=self.last).contains(&stage)
    }

    const fn values(self, values: Values) -> Row {
        Row { values, ..self }
    }

    const fn until(self, last: Stage) -> Row {
        Row { last, ..self }
    }
}

// The counts several rows share.
const PER_RANK_4: Len = Fixed(|m| m.nprocs * 4);
const VOCAB: Len = Fixed(|m| m.vocab_size);
const VOCAB_PLUS_1: Len = Fixed(|m| m.vocab_size + 1);
const DOCS: Len = Fixed(|m| m.docs());
const DOCS_PLUS_1: Len = Fixed(|m| m.docs() + 1);
const DOCS_BY_DIMS: Len = Fixed(|m| m.docs() * m.m_dims);
const N_MAJOR: Len = Fixed(|m| m.n_major);
const K: Len = Fixed(|m| m.k);

// Scan & Map.
pub static META: Row = row("meta", U64, Scan, Fixed(|_| META_SLOTS));
pub static DOCBASE: Row = row("docbase", U64, Scan, Fixed(|m| m.nprocs + 1)).values(Partition);
pub static TERMS: Row = row("terms", Bytes, Scan, Parser);
pub static TERMOFF: Row = row("termoff", U32, Scan, VOCAB_PLUS_1);
pub static DOCTOK: Row = row("doctok", U32, Scan, DOCS);
pub static SEGOFF: Row = row("segoff", U64, Scan, DOCS_PLUS_1).values(Offsets);
pub static SEGFLD: Row = row("segfld", U32, Scan, LastOf(&SEGOFF));
pub static SEGLEN: Row = row("seglen", U32, Scan, LastOf(&SEGOFF));
// The forward index feeds the Index stage and nothing after it; from
// then on the inverted file holds the same (term, doc, field, freq) facts.
pub static FWDOFF: Row = row("fwdoff", I64, Scan, DOCS_PLUS_1)
    .values(Offsets)
    .until(Scan);
pub static FWDDAT: Row = row("fwddat", U64, Scan, LastOf(&FWDOFF)).until(Scan);
pub static RANKIO: Row = row("rankio", U64, Scan, PER_RANK_4);
// The inverted file: the five index sections (`core::postings`), which
// [`SEGMENT`] shares, and the load-balance telemetry.
pub static POSTDIR: Row = row("postdir", Packed, Index, Parser);
pub static POSTBLK: Row = row("postblk", Packed, Index, Parser);
pub static POSTSKP: Row = row("postskp", Skip, Index, Parser);
pub static DFV: Row = row("dfv", Packed, Index, Parser);
pub static TFV: Row = row("tfv", Packed, Index, Parser);
pub static LOAD: Row = row("load", U64, Index, PER_RANK_4);
// Topicality, association matrix, signatures.
pub static MAJOR: Row = row("major", U32, Sig, N_MAJOR).values(IdsBelow(|m| m.vocab_size));
pub static MSCORE: Row = row("mscore", F64, Sig, N_MAJOR);
pub static TOPICS: Row = row("topics", U32, Sig, Fixed(|m| m.m_dims));
pub static ASSOC: Row = row("assoc", F64, Sig, Fixed(|m| m.n_major * m.m_dims));
pub static SIGS: Row = row("sigs", F64, Sig, DOCS_BY_DIMS);
// Clustering, projection, labels.
pub static ASSIGN: Row = row("assign", U32, Final, DOCS);
pub static CENTROID: Row = row("centroid", F64, Final, Fixed(|m| m.k * m.m_dims));
pub static CSIZE: Row = row("csize", U64, Final, K);
pub static COORDND: Row = row(
    "coordnd",
    F64,
    Final,
    Fixed(|m| m.docs() * m.projection_dims),
);
pub static LABSTR: Row = row("labstr", Bytes, Final, LastOf(&LABOFF));
pub static LABOFF: Row = row("laboff", U32, Final, SumPlusOne(&LABCNT)).values(Offsets);
pub static LABCNT: Row = row("labcnt", U32, Final, K);

/// Every section of every engine snapshot, in file order.
pub static ENGINE: [&Row; 29] = [
    &META, &DOCBASE, &TERMS, &TERMOFF, &DOCTOK, &SEGOFF, &SEGFLD, &SEGLEN, &FWDOFF, &FWDDAT,
    &RANKIO, &POSTDIR, &POSTBLK, &POSTSKP, &DFV, &TFV, &LOAD, &MAJOR, &MSCORE, &TOPICS, &ASSOC,
    &SIGS, &ASSIGN, &CENTROID, &CSIZE, &COORDND, &LABSTR, &LABOFF, &LABCNT,
];

// IVF + quantized signatures (§13).
pub static QSIG: Row = row("qsig", Quant, Final, DOCS_BY_DIMS);
pub static QSCALE: Row = row("qscale", F64, Final, DOCS);
pub static QOFF: Row = row("qoff", F64, Final, DOCS);
pub static SIGNRM: Row = row("signrm", F64, Final, DOCS);
pub static IVFDOC: Row = row("ivfdoc", U32, Final, DOCS).values(IdsBelow(|m| m.docs()));
pub static IVFOFF: Row = row("ivfoff", U64, Final, Fixed(|m| m.k + 1)).values(Partition);

/// What follows [`ENGINE`]'s sections where [`EngineMeta::wants_ann`].
pub static ANN: [&Row; 6] = [&QSIG, &QSCALE, &QOFF, &SIGNRM, &IVFDOC, &IVFOFF];

// Ingest segments. `Segment::open` parses `smeta` (4 slots, version 1)
// and `tomb`, which only a segment that deletes documents carries; a
// segment's vocabulary size is recorded nowhere but in its `termoff`.
pub static SMETA: Row = row("smeta", U64, Index, Parser);
pub static SEG_TOFF: Row = row(TERMOFF.name, U32, Scan, Parser);
pub static TOMB: Row = row("tomb", U32, Index, Parser);

/// Every section of an ingest segment, in file order.
pub static SEGMENT: [&Row; 9] = [
    &SMETA, &TERMS, &SEG_TOFF, &POSTDIR, &POSTBLK, &POSTSKP, &DFV, &TFV, &TOMB,
];

// The fixed-width index of format-v1 files, in the order they wrote it:
// read by `vaengine migrate` only, which re-encodes it.
pub static POSTOFF: Row = row("postoff", I64, Index, VOCAB_PLUS_1).values(Offsets);
pub static POSTDAT: Row = row("postdat", U64, Index, LastOf(&POSTOFF));
pub static DF: Row = row("df", U32, Index, VOCAB);
pub static TF: Row = row("tf", U64, Index, VOCAB);
pub static RETIRED_INDEX: [&Row; 4] = [&POSTOFF, &POSTDAT, &DF, &TF];

/// Slots of the `meta` section.
pub const META_SLOTS: usize = 18;

/// Parsed snapshot metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineMeta {
    pub stage: Stage,
    pub nprocs: usize,
    pub total_docs: u32,
    pub vocab_size: usize,
    pub config_fp: u64,
    pub corpus_fp: u64,
    pub total_tokens: u64,
    pub n_major: usize,
    pub m_dims: usize,
    pub dim_expansions: usize,
    pub sig_stats: SignatureStats,
    pub k: usize,
    pub kmeans_iters: usize,
    pub kmeans_objective: f64,
    pub variance_explained: f64,
    pub projection_dims: usize,
}

impl EngineMeta {
    /// The `meta` section's slots; [`EngineMeta::from_slots`] reads them
    /// back in this order.
    pub fn to_slots(&self) -> [u64; META_SLOTS] {
        [
            self.stage as u64,
            self.nprocs as u64,
            self.total_docs as u64,
            self.vocab_size as u64,
            self.config_fp,
            self.corpus_fp,
            self.total_tokens,
            self.n_major as u64,
            self.m_dims as u64,
            self.dim_expansions as u64,
            self.sig_stats.total,
            self.sig_stats.null,
            self.sig_stats.weak,
            self.k as u64,
            self.kmeans_iters as u64,
            self.kmeans_objective.to_bits(),
            self.variance_explained.to_bits(),
            self.projection_dims as u64,
        ]
    }

    /// Inverse of [`EngineMeta::to_slots`]; the message names what is
    /// wrong with slots no writer produced.
    pub fn from_slots(slots: &[u64]) -> Result<EngineMeta, String> {
        let &[stage, nprocs, docs, vocab, config_fp, corpus_fp, tokens, n_major, m_dims, expansions, total, null, weak, k, iters, objective, variance, proj] =
            slots
        else {
            let n = slots.len();
            return Err(format!(
                "section `meta` has {n} slots, expected {META_SLOTS}"
            ));
        };
        let stages = [Scan, Index, Sig, Final];
        let Some(&stage) = stages.iter().find(|&&s| s as u64 == stage) else {
            return Err(format!("unknown stage {stage}"));
        };
        // These size every other section, two at a time: inside u32
        // (where doc and term ids live) no product overflows.
        let counts = [nprocs, docs, vocab, n_major, m_dims, k, proj];
        if let Some(c) = counts.iter().find(|&&c| c > u32::MAX as u64) {
            return Err(format!("section `meta` records a count of {c}, beyond u32"));
        }
        if nprocs == 0 {
            return Err("snapshot records zero processes".into());
        }
        // Readers take `row[0]`, `row[1]` of every `coordnd` row.
        if stage == Stage::Final && !(2..=3).contains(&proj) {
            return Err(format!(
                "meta records {proj} projection dimensions, expected 2 or 3"
            ));
        }
        Ok(EngineMeta {
            stage,
            nprocs: nprocs as usize,
            total_docs: docs as u32,
            vocab_size: vocab as usize,
            config_fp,
            corpus_fp,
            total_tokens: tokens,
            n_major: n_major as usize,
            m_dims: m_dims as usize,
            dim_expansions: expansions as usize,
            sig_stats: SignatureStats { total, null, weak },
            k: k as usize,
            kmeans_iters: iters as usize,
            kmeans_objective: f64::from_bits(objective),
            variance_explained: f64::from_bits(variance),
            projection_dims: proj as usize,
        })
    }

    /// Parse the `meta` section of an engine snapshot container.
    pub(crate) fn parse(snap: &Snapshot) -> io::Result<EngineMeta> {
        Self::from_slots(snap.require(META.name)?.as_u64s()?).map_err(|msg| bad(snap, msg))
    }

    fn docs(&self) -> usize {
        self.total_docs as usize
    }

    /// Whether a Final snapshot of this shape carries the IVF +
    /// quantized-signature sections (§13): every one does, except a
    /// degenerate corpus with no signature dimensions or no documents,
    /// where similarity queries are meaningless.
    pub(crate) fn wants_ann(&self) -> bool {
        self.stage == Stage::Final && self.m_dims > 0 && self.total_docs > 0
    }
}

/// The rows a snapshot of this shape carries, in file order.
pub fn engine_rows(meta: &EngineMeta) -> Vec<&'static Row> {
    let ann = ANN.iter().filter(|_| meta.wants_ann());
    let staged = ENGINE.iter().filter(|r| r.carried_at(meta.stage));
    staged.chain(ann).copied().collect()
}

const MIGRATE: &str = ": this layout is no longer read — convert the file once with \
                       `vaengine migrate --in <old.isnap> --out <new.isnap>`";

/// An integer section's entries, widened from their little-endian
/// bytes. A negative `i64` lands above every valid offset, where the
/// offsets check refuses it.
fn entries<'a>(
    snap: &'a Snapshot,
    row: &Row,
) -> io::Result<impl DoubleEndedIterator<Item = u64> + 'a> {
    let widen = |e: &[u8]| e.iter().rev().fold(0, |v, &b| v << 8 | b as u64);
    let bytes = snap.require(row.name)?.bytes();
    Ok(bytes.chunks_exact(row.kind.elem_size()).map(widen))
}

/// Hold `snap` to `rows`: every one present, and — unless its parser is
/// the judge — of the declared kind and length, a well-formed offsets
/// table where the row says so, its ids distinct and in range. The only
/// passes over payload bytes are those last two, all O(documents).
pub fn check(snap: &Snapshot, rows: &[&'static Row], meta: &EngineMeta) -> io::Result<()> {
    // A length rule cites another section's contents; taking the cited
    // rows first makes the section that lies the one the error names.
    let mut rows = rows.to_vec();
    rows.sort_by_key(|r| match r.len {
        Fixed(_) | Parser => 0,
        SumPlusOne(_) => 1,
        LastOf(_) => 2,
    });
    for row in rows {
        let refuse = |what: String| Err(bad(snap, format!("section `{}` {what}", row.name)));
        let Some(view) = snap.section(row.name) else {
            // A file an earlier release wrote lacks exactly these.
            let retired = [POSTDIR.name, QSIG.name].contains(&row.name);
            return refuse(format!("is missing{}", if retired { MIGRATE } else { "" }));
        };
        let want = match row.len {
            Parser => continue,
            Fixed(count) => count(meta) as u64,
            SumPlusOne(counts) => entries(snap, counts)?.sum::<u64>() + 1,
            LastOf(offsets) => entries(snap, offsets)?.next_back().unwrap_or(0),
        };
        let (held, len) = (
            view.kind(),
            (view.bytes().len() / row.kind.elem_size()) as u64,
        );
        if (held, len) != (row.kind, want) {
            let kind = row.kind;
            return refuse(format!("holds {len} × {held}, expected {want} × {kind}"));
        }
        if matches!(row.values, Offsets | Partition) {
            let mut last = 0;
            for (i, at) in entries(snap, row)?.enumerate() {
                if at < last || (i == 0 && at != 0) {
                    return refuse(format!("does not start at 0 and ascend (entry {i})"));
                }
                last = at;
            }
            let docs = meta.total_docs as u64;
            if matches!(row.values, Partition) && last != docs {
                return refuse(format!("does not end at the {docs} documents it splits"));
            }
        }
        // `major` indexes vocabulary-length tables on restore; with
        // its length fixed, `ivfdoc` is a permutation of the documents.
        if let IdsBelow(bound) = row.values {
            let mut seen = vec![false; bound(meta)];
            let stray = view.as_u32s()?.iter().find(|&&id| {
                seen.get_mut(id as usize)
                    .is_none_or(|s| std::mem::replace(s, true))
            });
            if let Some(id) = stray {
                return refuse(format!("is not a set of ids below {}: {id}", seen.len()));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_meta() -> EngineMeta {
        EngineMeta {
            stage: Stage::Final,
            nprocs: 4,
            total_docs: 1_000_003,
            vocab_size: 70_001,
            config_fp: 0xDEAD_BEEF_0BAD_F00D,
            corpus_fp: u64::MAX,
            total_tokens: 1 << 40,
            n_major: 600,
            m_dims: 60,
            dim_expansions: 2,
            sig_stats: SignatureStats {
                total: 1_000_003,
                null: 17,
                weak: 461,
            },
            k: 64,
            kmeans_iters: 16,
            kmeans_objective: 1234.5678e-9,
            variance_explained: 0.731,
            projection_dims: 3,
        }
    }

    /// How DESIGN.md spells each count the `meta` section fixes.
    type Count = fn(&EngineMeta) -> usize;
    const SPELLINGS: [(&str, Count); 15] = [
        ("18", |_| 18),
        ("nprocs + 1", |m| m.nprocs + 1),
        ("nprocs × 4", |m| m.nprocs * 4),
        ("vocab", |m| m.vocab_size),
        ("vocab + 1", |m| m.vocab_size + 1),
        ("docs", |m| m.total_docs as usize),
        ("docs + 1", |m| m.total_docs as usize + 1),
        ("n_major", |m| m.n_major),
        ("m_dims", |m| m.m_dims),
        ("n_major × m_dims", |m| m.n_major * m.m_dims),
        ("docs × m_dims", |m| m.total_docs as usize * m.m_dims),
        ("docs × projection_dims", |m| {
            m.total_docs as usize * m.projection_dims
        }),
        ("k", |m| m.k),
        ("k + 1", |m| m.k + 1),
        ("k × m_dims", |m| m.k * m.m_dims),
    ];

    /// DESIGN.md's spelling of a count the `meta` section fixes: the one
    /// that computes what `count` computes (on [`sample_meta`], where all
    /// fifteen differ), so the document cannot say what the code does not.
    fn spelt(count: Count) -> &'static str {
        let meta = sample_meta();
        let agree = SPELLINGS.iter().filter(|(_, f)| f(&meta) == count(&meta));
        let agree: Vec<&str> = agree.map(|&(text, _)| text).collect();
        assert_eq!(agree.len(), 1, "spellings of {}: {agree:?}", count(&meta));
        agree[0]
    }

    /// One row of a DESIGN.md §8 section table.
    fn design_row(row: &Row) -> String {
        let mut rule = match row.len {
            Fixed(count) => spelt(count).to_string(),
            LastOf(offsets) => format!("last entry of `{}`", offsets.name),
            SumPlusOne(counts) => format!("sum of `{}` + 1", counts.name),
            Parser => "checked by its parser".to_string(),
        };
        rule += &match row.values {
            Any => String::new(),
            Offsets => "; offsets".to_string(),
            Partition => "; offsets ending at docs".to_string(),
            IdsBelow(bound) => format!("; distinct ids below {}", spelt(bound)),
        };
        let is = |other: &Row| std::ptr::eq(row, other);
        let when = match () {
            _ if ANN.iter().any(|r| is(r)) => "`wants_ann`",
            _ if is(&TOMB) => "the segment deletes documents",
            _ => "—",
        };
        let (name, kind, stage, last) = (row.name, row.kind, row.stage, row.last);
        format!("| `{name}` | {kind} | {stage:?} | {last:?} | {rule} | {when} |")
    }

    /// DESIGN.md §8 documents the tables row for row; this is what keeps
    /// it from drifting. On failure the message is the table to paste.
    #[test]
    fn design_md_section_tables_are_the_schema() {
        let design = include_str!("../../../../DESIGN.md");
        let engine = [&ENGINE[..], &ANN[..]].concat();
        let tables: [(&str, &[&Row]); 3] = [
            ("engine", &engine),
            ("segment", &SEGMENT),
            ("retired", &RETIRED_INDEX),
        ];
        for (table, rows) in tables {
            let open = format!("<!-- schema:{table} -->\n");
            let (_, rest) = design.split_once(&open).expect("table marker in DESIGN.md");
            let (body, _) = rest.split_once("<!-- /schema -->").expect("closing marker");
            let documented: Vec<&str> = body.lines().skip(2).collect();
            let declared: Vec<String> = rows.iter().map(|r| design_row(r)).collect();
            assert_eq!(
                documented,
                declared,
                "{table} rows:\n{}",
                declared.join("\n")
            );
        }
    }

    #[test]
    fn meta_slots_round_trip() {
        let meta = sample_meta();
        let slots = meta.to_slots();
        assert_eq!(EngineMeta::from_slots(&slots), Ok(meta.clone()));
        // Every slot carries a distinct field: none is dropped or read
        // from a neighbour's position.
        for i in 0..META_SLOTS {
            let mut bumped = slots;
            bumped[i] = if i == 0 { 3 } else { slots[i] ^ 1 };
            assert_ne!(
                EngineMeta::from_slots(&bumped).as_ref(),
                Ok(&meta),
                "slot {i} is ignored"
            );
        }
        assert!(EngineMeta::from_slots(&slots[..17]).is_err());
        // A count no corpus reaches must be refused, not multiplied.
        let mut huge = slots;
        huge[8] = u64::MAX;
        assert!(EngineMeta::from_slots(&huge)
            .unwrap_err()
            .contains("beyond u32"));
    }
}
