//! The one declaration of every on-disk section.
//!
//! An engine snapshot and an ingest segment are both `inspire-store`
//! containers of named sections. Each section is one [`Row`] here — its
//! name, element kind, the first [`Stage`] that writes it, what fixes its
//! length, whether it is an offsets table, and when it may be absent —
//! and everything else derives from the rows: the writers and readers
//! take section names from them, [`check`] holds a file to its table at
//! open, `core::migrate` re-encodes the [`RETIRED_INDEX`] rows and copies
//! the rest through, and a test holds DESIGN.md §8's tables to the rows.
//! Adding a section is one row (listed in its table), the `add_*` call
//! that writes it, and its consumer.

use super::Stage;
use crate::signature::SignatureStats;
use inspire_store::{SectionKind, Snapshot};
use std::io;
use SectionKind::{Bytes, Packed, Quant, Skip, F64, I64, U32, U64};
use Stage::{Final, Index, Scan, Sig};

/// What fixes a section's element count.
#[derive(Clone, Copy)]
pub enum Len {
    /// A count the `meta` section fixes: how DESIGN.md spells it, and
    /// the count.
    Fixed(&'static str, fn(&EngineMeta) -> usize),
    /// The last entry of an offsets section.
    LastOf(&'static Row),
    /// One more than the sum of a counts section.
    SumPlusOne(&'static Row),
    /// Nothing in the table: the named parser checks the payload, which
    /// it reads through `.bytes()` whatever byte kind the section has.
    Parser(&'static str),
}

/// Whether a section is an offsets table.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Offsets {
    No,
    /// First entry 0, non-decreasing. The `LastOf` rows that cite the
    /// section pin its last entry.
    Yes,
    /// …and the last entry is the document count: a partition of the
    /// corpus.
    OfDocs,
}

/// When a container carries a section (from the row's stage on).
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum When {
    Always,
    /// Final snapshots of a non-degenerate corpus
    /// ([`EngineMeta::wants_ann`]).
    Ann,
    /// Segments that delete documents.
    Tombstones,
}

/// A check on a section's *values* that no length rule expresses.
type Rule = fn(&Snapshot, &EngineMeta) -> io::Result<()>;

/// One on-disk section.
#[derive(Clone, Copy)]
pub struct Row {
    pub name: &'static str,
    pub kind: SectionKind,
    /// First stage whose snapshots carry the section.
    pub stage: Stage,
    pub len: Len,
    pub offsets: Offsets,
    pub when: When,
    rule: Option<Rule>,
}

const fn row(name: &'static str, kind: SectionKind, stage: Stage, len: Len) -> Row {
    Row {
        name,
        kind,
        stage,
        len,
        offsets: Offsets::No,
        when: When::Always,
        rule: None,
    }
}

impl Row {
    const fn offsets(self, offsets: Offsets) -> Row {
        Row { offsets, ..self }
    }

    const fn when(self, when: When) -> Row {
        Row { when, ..self }
    }

    const fn rule(self, rule: Rule) -> Row {
        Row {
            rule: Some(rule),
            ..self
        }
    }
}

const DOCS: Len = Len::Fixed("docs", |m| m.docs());
const DOCS_PLUS_1: Len = Len::Fixed("docs + 1", |m| m.docs() + 1);
const PER_RANK_4: Len = Len::Fixed("nprocs × 4", |m| m.nprocs * 4);
const N_MAJOR: Len = Len::Fixed("n_major", |m| m.n_major);
const K: Len = Len::Fixed("k", |m| m.k);
const VOCABULARY: Len = Len::Parser("`TermTable::from_parts`");
const INDEX: Len = Len::Parser("`PostingsReader::open`");

// ---- Scan & Map ----
pub static META: Row = row("meta", U64, Scan, Len::Fixed("18", |_| META_SLOTS));
pub static DOCBASE: Row = row(
    "docbase",
    U64,
    Scan,
    Len::Fixed("nprocs + 1", |m| m.nprocs + 1),
)
.offsets(Offsets::OfDocs);
pub static TERMS: Row = row("terms", Bytes, Scan, VOCABULARY);
pub static TERMOFF: Row = row(
    "termoff",
    U32,
    Scan,
    Len::Fixed("vocab + 1", |m| m.vocab_size + 1),
);
pub static DOCTOK: Row = row("doctok", U32, Scan, DOCS);
pub static SEGOFF: Row = row("segoff", U64, Scan, DOCS_PLUS_1).offsets(Offsets::Yes);
pub static SEGFLD: Row = row("segfld", U32, Scan, Len::LastOf(&SEGOFF));
pub static SEGLEN: Row = row("seglen", U32, Scan, Len::LastOf(&SEGOFF));
pub static FWDOFF: Row = row("fwdoff", I64, Scan, DOCS_PLUS_1).offsets(Offsets::Yes);
pub static FWDDAT: Row = row("fwddat", U64, Scan, Len::LastOf(&FWDOFF));
pub static RANKIO: Row = row("rankio", U64, Scan, PER_RANK_4);

// ---- Inverted file: the five index sections (`core::postings`), shared
// ---- with [`SEGMENT`], and the load-balance telemetry ----
pub static POSTDIR: Row = row("postdir", Packed, Index, INDEX);
pub static POSTBLK: Row = row("postblk", Packed, Index, INDEX);
pub static POSTSKP: Row = row("postskp", Skip, Index, INDEX);
pub static DFV: Row = row("dfv", Packed, Index, INDEX);
pub static TFV: Row = row("tfv", Packed, Index, INDEX);
pub static LOAD: Row = row("load", U64, Index, PER_RANK_4);

// ---- Topicality, association matrix, signatures ----
pub static MAJOR: Row = row("major", U32, Sig, N_MAJOR).rule(major_inside_vocabulary);
pub static MSCORE: Row = row("mscore", F64, Sig, N_MAJOR);
pub static TOPICS: Row = row("topics", U32, Sig, Len::Fixed("m_dims", |m| m.m_dims));
pub static ASSOC: Row = row(
    "assoc",
    F64,
    Sig,
    Len::Fixed("n_major × m_dims", |m| m.n_major * m.m_dims),
);
pub static SIGS: Row = row(
    "sigs",
    F64,
    Sig,
    Len::Fixed("docs × m_dims", |m| m.docs() * m.m_dims),
);

// ---- Clustering, projection, labels ----
pub static ASSIGN: Row = row("assign", U32, Final, DOCS);
pub static CENTROID: Row = row(
    "centroid",
    F64,
    Final,
    Len::Fixed("k × m_dims", |m| m.k * m.m_dims),
);
pub static CSIZE: Row = row("csize", U64, Final, K);
pub static COORDND: Row = row(
    "coordnd",
    F64,
    Final,
    Len::Fixed("docs × projection_dims", |m| m.docs() * m.projection_dims),
)
.rule(projection_width_2_or_3);
pub static LABSTR: Row = row("labstr", Bytes, Final, Len::LastOf(&LABOFF));
pub static LABOFF: Row = row("laboff", U32, Final, Len::SumPlusOne(&LABCNT)).offsets(Offsets::Yes);
pub static LABCNT: Row = row("labcnt", U32, Final, K);

// ---- IVF + quantized signatures (§13) ----
pub static QSIG: Row = row(
    "qsig",
    Quant,
    Final,
    Len::Fixed("docs × m_dims", |m| m.docs() * m.m_dims),
)
.when(When::Ann);
pub static QSCALE: Row = row("qscale", F64, Final, DOCS).when(When::Ann);
pub static QOFF: Row = row("qoff", F64, Final, DOCS).when(When::Ann);
pub static SIGNRM: Row = row("signrm", F64, Final, DOCS).when(When::Ann);
pub static IVFDOC: Row = row("ivfdoc", U32, Final, DOCS)
    .when(When::Ann)
    .rule(ivfdoc_is_a_permutation);
pub static IVFOFF: Row = row("ivfoff", U64, Final, Len::Fixed("k + 1", |m| m.k + 1))
    .offsets(Offsets::OfDocs)
    .when(When::Ann);

/// Every section of an engine snapshot, in file order.
pub static ENGINE: [&Row; 35] = [
    &META, &DOCBASE, &TERMS, &TERMOFF, &DOCTOK, &SEGOFF, &SEGFLD, &SEGLEN, &FWDOFF, &FWDDAT,
    &RANKIO, &POSTDIR, &POSTBLK, &POSTSKP, &DFV, &TFV, &LOAD, &MAJOR, &MSCORE, &TOPICS, &ASSOC,
    &SIGS, &ASSIGN, &CENTROID, &CSIZE, &COORDND, &LABSTR, &LABOFF, &LABCNT, &QSIG, &QSCALE, &QOFF,
    &SIGNRM, &IVFDOC, &IVFOFF,
];

// ---- Ingest segments: `smeta`, a vocabulary, the index, tombstones ----
pub static SMETA: Row = row(
    "smeta",
    U64,
    Index,
    Len::Parser("`Segment::open`: 4 slots, version 1"),
);
/// A segment's vocabulary size is recorded nowhere else.
pub static SEG_TERMOFF: Row = Row {
    len: VOCABULARY,
    ..TERMOFF
};
pub static TOMB: Row = row(
    "tomb",
    U32,
    Index,
    Len::Parser("`Segment::open`: strictly ascending"),
)
.when(When::Tombstones);

/// Every section of an ingest segment, in file order.
pub static SEGMENT: [&Row; 9] = [
    &SMETA,
    &TERMS,
    &SEG_TERMOFF,
    &POSTDIR,
    &POSTBLK,
    &POSTSKP,
    &DFV,
    &TFV,
    &TOMB,
];

// ---- The fixed-width index of format-v1 files: read by `vaengine
// ---- migrate` only, which replaces it with the five index sections ----
pub static POSTOFF: Row = row(
    "postoff",
    I64,
    Index,
    Len::Fixed("vocab + 1", |m| m.vocab_size + 1),
)
.offsets(Offsets::Yes);
pub static POSTDAT: Row = row("postdat", U64, Index, Len::LastOf(&POSTOFF));
pub static DF: Row = row("df", U32, Index, Len::Fixed("vocab", |m| m.vocab_size));
pub static TF: Row = row("tf", U64, Index, Len::Fixed("vocab", |m| m.vocab_size));

/// The retired index sections, in the order format v1 wrote them.
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
            return Err(format!(
                "section `meta` has {} slots, expected {META_SLOTS}",
                slots.len()
            ));
        };
        let stage = match stage {
            1 => Stage::Scan,
            2 => Stage::Index,
            3 => Stage::Sig,
            4 => Stage::Final,
            _ => return Err(format!("unknown stage {stage}")),
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
    let carried = |r: &&&Row| r.stage <= meta.stage && (r.when != When::Ann || meta.wants_ann());
    ENGINE.iter().filter(carried).copied().collect()
}

pub(crate) fn bad(snap: &Snapshot, msg: String) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("{}: {msg}", snap.source()),
    )
}

/// The one error for a file an earlier release wrote: fixed-width index
/// sections, or a Final stage without the ANN sections.
fn missing(snap: &Snapshot, row: &Row) -> io::Error {
    let retired = if row.name == POSTDIR.name {
        "the index is stored as fixed-width arrays"
    } else if row.name == QSIG.name {
        "the Final stage has no similarity-search sections"
    } else {
        return bad(snap, format!("missing section `{}`", row.name));
    };
    bad(
        snap,
        format!(
            "{retired}; this layout is no longer read — convert the file once with \
             `vaengine migrate --in <old.isnap> --out <new.isnap>`"
        ),
    )
}

/// An integer section's entries, widened. A negative `i64` lands above
/// every valid offset, where the offsets check refuses it.
fn entries<'a>(
    snap: &'a Snapshot,
    row: &Row,
) -> io::Result<Box<dyn DoubleEndedIterator<Item = u64> + 'a>> {
    let view = snap.require(row.name)?;
    Ok(match row.kind {
        U32 => Box::new(view.as_u32s()?.iter().map(|&v| v as u64)),
        U64 => Box::new(view.as_u64s()?.iter().copied()),
        I64 => Box::new(view.as_i64s()?.iter().map(|&v| v as u64)),
        kind => unreachable!("`{}` ({kind}) is cited as an integer section", row.name),
    })
}

/// Hold `snap` to `rows`: every one present, and — unless its parser is
/// the judge — of the declared kind and length, a well-formed offsets
/// table where the row says so, and passing the row's value rule. The
/// only passes over payload bytes are the offsets scans and the two
/// value rules over `major` and `ivfdoc`, all O(documents).
pub fn check(snap: &Snapshot, rows: &[&'static Row], meta: &EngineMeta) -> io::Result<()> {
    // A length rule cites another section's contents; taking the cited
    // rows first makes the section that lies the one the error names.
    let order = |len: &Len| match len {
        Len::Fixed(..) | Len::Parser(_) => 0,
        Len::SumPlusOne(_) => 1,
        Len::LastOf(_) => 2,
    };
    for pass in 0..3 {
        for row in rows.iter().filter(|r| order(&r.len) == pass) {
            let Some(view) = snap.section(row.name) else {
                return Err(missing(snap, row));
            };
            let want = match row.len {
                Len::Parser(_) => continue,
                Len::Fixed(_, count) => count(meta) as u64,
                Len::SumPlusOne(counts) => entries(snap, counts)?.sum::<u64>() + 1,
                Len::LastOf(offsets) => entries(snap, offsets)?.next_back().unwrap_or(0),
            };
            if view.kind() != row.kind {
                return Err(bad(
                    snap,
                    format!(
                        "section `{}` holds {} elements, expected {}",
                        row.name,
                        view.kind(),
                        row.kind
                    ),
                ));
            }
            let len = (view.bytes().len() / row.kind.elem_size()) as u64;
            if len != want {
                return Err(bad(
                    snap,
                    format!("section `{}` has {len} elements, expected {want}", row.name),
                ));
            }
            if row.offsets != Offsets::No {
                let mut last = 0u64;
                for (i, at) in entries(snap, row)?.enumerate() {
                    if at < last || (i == 0 && at != 0) {
                        return Err(bad(
                            snap,
                            format!(
                                "section `{}` is not an offsets table: entry {i} is {at}",
                                row.name
                            ),
                        ));
                    }
                    last = at;
                }
                if row.offsets == Offsets::OfDocs && last != meta.docs() as u64 {
                    return Err(bad(
                        snap,
                        format!(
                            "section `{}` ends at {last}, not at the {} documents it partitions",
                            row.name, meta.total_docs
                        ),
                    ));
                }
            }
            if let Some(rule) = row.rule {
                rule(snap, meta)?;
            }
        }
    }
    Ok(())
}

/// Major ids index vocabulary-length tables on restore.
fn major_inside_vocabulary(snap: &Snapshot, meta: &EngineMeta) -> io::Result<()> {
    let major = snap.require(MAJOR.name)?.as_u32s()?;
    match major.iter().find(|&&t| t as usize >= meta.vocab_size) {
        Some(t) => Err(bad(
            snap,
            format!("section `major` names term {t} beyond the vocabulary"),
        )),
        None => Ok(()),
    }
}

/// Readers take `row[0]`, `row[1]` of every coordinate row.
fn projection_width_2_or_3(snap: &Snapshot, meta: &EngineMeta) -> io::Result<()> {
    if (2..=3).contains(&meta.projection_dims) {
        return Ok(());
    }
    Err(bad(
        snap,
        format!(
            "meta records {} projection dimensions, expected 2 or 3",
            meta.projection_dims
        ),
    ))
}

/// Every document sits in exactly one IVF list.
fn ivfdoc_is_a_permutation(snap: &Snapshot, meta: &EngineMeta) -> io::Result<()> {
    let mut seen = vec![false; meta.docs()];
    for &d in snap.require(IVFDOC.name)?.as_u32s()? {
        match seen.get_mut(d as usize) {
            Some(slot) if !*slot => *slot = true,
            _ => {
                return Err(bad(
                    snap,
                    format!(
                        "section `ivfdoc` is not a permutation of 0..{} (doc {d})",
                        meta.total_docs
                    ),
                ))
            }
        }
    }
    Ok(())
}

/// A segment's tombstones are sorted and deduplicated.
pub fn tombstones_ascend(ids: &[u32]) -> bool {
    ids.windows(2).all(|w| w[0] < w[1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meta_slots_round_trip() {
        let meta = EngineMeta {
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
        };
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
