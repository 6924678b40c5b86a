//! Term lookup and simple ranked retrieval over the inverted index.
//!
//! The paper positions visual analytics as complementary to classical IR,
//! but the engine's indices support lookup directly; this module exposes
//! them for the example applications and tests (and mirrors what the
//! production engine offers alongside the visualization pipeline).

use crate::index::{InvertedIndex, Posting};
use crate::scan::ScanOutput;
use crate::{DocId, FieldId, TermId};
use spmd::Ctx;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Read-only view of the term statistics and postings a query needs.
///
/// Both retrieval backends implement this: [`LiveIndex`] adapts the
/// engine's rank-resident [`ScanOutput`] + [`InvertedIndex`] (postings
/// fetched through the SPMD context), and the serving tier's extracted
/// snapshot state answers from plain shared vectors with no context at
/// all. Every query algorithm below is written against this trait once,
/// so the two paths cannot drift: a served answer is byte-identical to
/// the single-shot CLI answer by construction.
pub trait SearchIndex {
    /// Canonical id of `term`, if indexed.
    fn term_id(&self, term: &str) -> Option<TermId>;
    /// A term's postings, sorted by (doc, field) for determinism.
    fn postings_of(&self, term: TermId) -> Vec<Posting>;
    /// Append a term's postings (same order as [`postings_of`]) to a
    /// caller-owned buffer. Backends that decode postings on demand
    /// override this to fill `out` directly instead of materializing an
    /// intermediate vector.
    ///
    /// [`postings_of`]: SearchIndex::postings_of
    fn postings_into(&self, term: TermId, out: &mut Vec<Posting>) {
        out.extend(self.postings_of(term));
    }
    /// Append only the postings with `doc >= min_doc`, preserving order.
    /// Backends with block-aligned skip pointers override this to seek
    /// past whole blocks; the default filters the full list, so both
    /// yield exactly the tail of [`postings_of`].
    ///
    /// [`postings_of`]: SearchIndex::postings_of
    fn postings_from(&self, term: TermId, min_doc: DocId, out: &mut Vec<Posting>) {
        out.extend(
            self.postings_of(term)
                .into_iter()
                .filter(|p| p.doc >= min_doc),
        );
    }
    /// Document frequency of `term`.
    fn df(&self, term: TermId) -> u32;
    /// Total documents in the collection.
    fn total_docs(&self) -> u32;
}

/// [`SearchIndex`] over the engine's live rank state: term lookups hit
/// the canonical vocabulary and postings are fetched through the SPMD
/// context (paying modeled communication when the index is distributed).
pub struct LiveIndex<'a> {
    pub ctx: &'a Ctx,
    pub scan: &'a ScanOutput,
    pub index: &'a InvertedIndex,
}

impl SearchIndex for LiveIndex<'_> {
    fn term_id(&self, term: &str) -> Option<TermId> {
        self.scan.term_id(term)
    }

    fn postings_of(&self, term: TermId) -> Vec<Posting> {
        self.index.postings_of(self.ctx, term)
    }

    fn df(&self, term: TermId) -> u32 {
        self.index.df[term as usize]
    }

    fn total_docs(&self) -> u32 {
        self.index.total_docs
    }
}

/// A boolean retrieval expression over terms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Query {
    /// Documents containing the term (any field).
    Term(String),
    /// Documents containing the term within one named field.
    FieldTerm(&'static str, String),
    /// Intersection.
    And(Vec<Query>),
    /// Union.
    Or(Vec<Query>),
    /// Set difference: matches of the first operand minus the second's.
    AndNot(Box<Query>, Box<Query>),
}

/// A token of the query expression language.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    LParen,
    RParen,
    And,
    Or,
    Not,
    Word(String),
}

fn lex(input: &str) -> Vec<Tok> {
    let mut toks = Vec::new();
    let mut cur = String::new();
    let flush = |cur: &mut String, toks: &mut Vec<Tok>| {
        if cur.is_empty() {
            return;
        }
        let t = match cur.as_str() {
            w if w.eq_ignore_ascii_case("and") => Tok::And,
            w if w.eq_ignore_ascii_case("or") => Tok::Or,
            w if w.eq_ignore_ascii_case("not") => Tok::Not,
            w => Tok::Word(w.to_ascii_lowercase()),
        };
        toks.push(t);
        cur.clear();
    };
    for c in input.chars() {
        match c {
            '(' => {
                flush(&mut cur, &mut toks);
                toks.push(Tok::LParen);
            }
            ')' => {
                flush(&mut cur, &mut toks);
                toks.push(Tok::RParen);
            }
            c if c.is_whitespace() => flush(&mut cur, &mut toks),
            c => cur.push(c),
        }
    }
    flush(&mut cur, &mut toks);
    toks
}

struct Parser {
    toks: Vec<Tok>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn at_atom(&self) -> bool {
        matches!(self.peek(), Some(Tok::Word(_)) | Some(Tok::LParen))
    }

    fn parse_or(&mut self) -> Result<Query, String> {
        let mut parts = vec![self.parse_and()?];
        while self.eat(&Tok::Or) {
            parts.push(self.parse_and()?);
        }
        Ok(if parts.len() == 1 {
            parts.pop().unwrap()
        } else {
            Query::Or(parts)
        })
    }

    /// A conjunction: atoms joined by explicit `AND` or plain
    /// juxtaposition, with `NOT` prefixing the atoms to subtract.
    fn parse_and(&mut self) -> Result<Query, String> {
        let mut positive = Vec::new();
        let mut negative = Vec::new();
        loop {
            let mut negated = false;
            while self.eat(&Tok::Not) {
                negated = !negated;
            }
            if !self.at_atom() {
                return Err(match self.peek() {
                    Some(t) => format!("expected a term, found {t:?}"),
                    None => "expected a term, found end of query".into(),
                });
            }
            let atom = self.parse_atom()?;
            if negated {
                negative.push(atom);
            } else {
                positive.push(atom);
            }
            if self.eat(&Tok::And) {
                continue; // operand required; checked at loop top
            }
            if self.at_atom() || self.peek() == Some(&Tok::Not) {
                continue; // juxtaposition is conjunction
            }
            break;
        }
        if positive.is_empty() {
            return Err("a query cannot be pure negation".into());
        }
        let pos = if positive.len() == 1 {
            positive.pop().unwrap()
        } else {
            Query::And(positive)
        };
        Ok(match negative.len() {
            0 => pos,
            1 => Query::AndNot(Box::new(pos), Box::new(negative.pop().unwrap())),
            _ => Query::AndNot(Box::new(pos), Box::new(Query::Or(negative))),
        })
    }

    fn parse_atom(&mut self) -> Result<Query, String> {
        if self.eat(&Tok::LParen) {
            let inner = self.parse_or()?;
            if !self.eat(&Tok::RParen) {
                return Err("unbalanced parenthesis".into());
            }
            return Ok(inner);
        }
        let Some(Tok::Word(w)) = self.peek().cloned() else {
            return Err("expected a term".into());
        };
        self.pos += 1;
        if let Some((field, term)) = w.split_once(':') {
            let Some(&name) = crate::FIELD_NAMES.iter().find(|&&n| n == field) else {
                return Err(format!(
                    "unknown field {field:?} (known: {})",
                    crate::FIELD_NAMES.join(", ")
                ));
            };
            if term.is_empty() {
                return Err(format!("empty term after {field}:"));
            }
            return Ok(Query::FieldTerm(name, term.to_string()));
        }
        Ok(Query::Term(w))
    }
}

impl Query {
    /// Parse a boolean query expression.
    ///
    /// Grammar (keywords case-insensitive, terms lowercased to match the
    /// indexing tokenizer):
    ///
    /// ```text
    /// expr := and ( OR and )*
    /// and  := [NOT] atom ( [AND] [NOT] atom )*    — juxtaposition is AND
    /// atom := '(' expr ')' | field:term | term
    /// ```
    ///
    /// `NOT` atoms subtract from the surrounding conjunction, so
    /// `heart AND NOT title:attack` is `AndNot(heart, title:attack)`.
    pub fn parse(input: &str) -> Result<Query, String> {
        let mut p = Parser {
            toks: lex(input),
            pos: 0,
        };
        if p.toks.is_empty() {
            return Err("empty query".into());
        }
        let q = p.parse_or()?;
        if let Some(t) = p.peek() {
            return Err(format!("unexpected {t:?} after complete query"));
        }
        Ok(q)
    }

    /// Canonical text form: fully parenthesized with explicit keywords,
    /// so any two expressions that parse to the same tree normalize to
    /// the same string (`a AND b`, `a b`, `(a) (b)` all become
    /// `(a AND b)`). The serving tier keys its result cache on this.
    /// Normalized text reparses to the original tree.
    pub fn normalized(&self) -> String {
        match self {
            Query::Term(t) => t.clone(),
            Query::FieldTerm(f, t) => format!("{f}:{t}"),
            Query::And(parts) => {
                let inner: Vec<String> = parts.iter().map(|p| p.normalized()).collect();
                format!("({})", inner.join(" AND "))
            }
            Query::Or(parts) => {
                let inner: Vec<String> = parts.iter().map(|p| p.normalized()).collect();
                format!("({})", inner.join(" OR "))
            }
            Query::AndNot(keep, drop) => {
                format!("({} AND NOT {})", keep.normalized(), drop.normalized())
            }
        }
    }
}

/// Postings for a term string, or empty when the term is unknown.
pub fn lookup(ctx: &Ctx, scan: &ScanOutput, index: &InvertedIndex, term: &str) -> Vec<Posting> {
    lookup_in(&LiveIndex { ctx, scan, index }, term)
}

/// [`lookup`] against any [`SearchIndex`] backend.
pub fn lookup_in(ix: &impl SearchIndex, term: &str) -> Vec<Posting> {
    match ix.term_id(term) {
        Some(t) => ix.postings_of(t),
        None => Vec::new(),
    }
}

/// A ranked retrieval result.
#[derive(Debug, Clone, PartialEq)]
pub struct Hit {
    pub doc: DocId,
    pub score: f64,
}

/// Evaluate a boolean [`Query`] against the inverted index, returning the
/// matching documents in ascending id order. Classic postings-merge
/// evaluation: term postings are fetched once, deduplicated to document
/// sets, and combined with sorted-set operations.
pub fn evaluate(ctx: &Ctx, scan: &ScanOutput, index: &InvertedIndex, query: &Query) -> Vec<DocId> {
    evaluate_in(&LiveIndex { ctx, scan, index }, query)
}

/// [`evaluate`] against any [`SearchIndex`] backend.
pub fn evaluate_in(ix: &impl SearchIndex, query: &Query) -> Vec<DocId> {
    match query {
        Query::Term(t) => docs_of(ix, t, None),
        Query::FieldTerm(field, t) => {
            let fid = crate::field_id(field);
            docs_of(ix, t, fid)
        }
        Query::And(parts) => {
            // Split the conjunction into term atoms — whose postings can
            // be decoded from a lower bound via `postings_from` (the
            // block-compressed backend seeks over whole blocks below the
            // first surviving candidate) — and complex sub-queries, which
            // evaluate fully.
            let mut atoms: Vec<(TermId, Option<FieldId>)> = Vec::new();
            let mut complex: Vec<Vec<DocId>> = Vec::new();
            for p in parts {
                match p {
                    Query::Term(t) => match ix.term_id(t) {
                        Some(id) => atoms.push((id, None)),
                        None => return Vec::new(),
                    },
                    Query::FieldTerm(f, t) => match ix.term_id(t) {
                        Some(id) => atoms.push((id, crate::field_id(f))),
                        None => return Vec::new(),
                    },
                    other => complex.push(evaluate_in(ix, other)),
                }
            }
            // Cheapest base first: smallest complex set, else the rarest
            // atom (df orders atoms without touching postings).
            complex.sort_by_key(|s| s.len());
            atoms.sort_by_key(|&(t, _)| ix.df(t));
            let mut atom_it = atoms.into_iter();
            let mut acc: Vec<DocId> = if !complex.is_empty() {
                let mut it = complex.into_iter();
                let mut acc = it.next().unwrap();
                for s in it {
                    acc = intersect(&acc, &s);
                    if acc.is_empty() {
                        break;
                    }
                }
                acc
            } else if let Some((t, f)) = atom_it.next() {
                docs_of_id(ix, t, f)
            } else {
                return Vec::new();
            };
            let mut scratch: Vec<Posting> = Vec::new();
            for (t, f) in atom_it {
                if acc.is_empty() {
                    break;
                }
                scratch.clear();
                ix.postings_from(t, acc[0], &mut scratch);
                acc = intersect(&acc, &docs_from_postings(&scratch, f));
            }
            acc
        }
        Query::Or(parts) => {
            let mut acc: Vec<DocId> = Vec::new();
            for p in parts {
                acc = union(&acc, &evaluate_in(ix, p));
            }
            acc
        }
        Query::AndNot(keep, drop) => {
            let keep = evaluate_in(ix, keep);
            let drop = evaluate_in(ix, drop);
            difference(&keep, &drop)
        }
    }
}

/// Sorted distinct documents containing `term`, optionally restricted to
/// one field — this is where the paper's *term-to-field* index pays off.
fn docs_of(ix: &impl SearchIndex, term: &str, field: Option<FieldId>) -> Vec<DocId> {
    match ix.term_id(term) {
        Some(t) => docs_of_id(ix, t, field),
        None => Vec::new(),
    }
}

fn docs_of_id(ix: &impl SearchIndex, term: TermId, field: Option<FieldId>) -> Vec<DocId> {
    let mut posts = Vec::new();
    ix.postings_into(term, &mut posts);
    docs_from_postings(&posts, field)
}

/// Sorted distinct doc ids of `posts` (already doc-ordered), optionally
/// restricted to one field.
fn docs_from_postings(posts: &[Posting], field: Option<FieldId>) -> Vec<DocId> {
    let mut docs: Vec<DocId> = posts
        .iter()
        .filter(|p| field.is_none_or(|f| p.field == f))
        .map(|p| p.doc)
        .collect();
    docs.dedup();
    docs
}

fn intersect(a: &[DocId], b: &[DocId]) -> Vec<DocId> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

fn union(a: &[DocId], b: &[DocId]) -> Vec<DocId> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        let take_a = j >= b.len() || (i < a.len() && a[i] <= b[j]);
        if take_a {
            if j < b.len() && i < a.len() && a[i] == b[j] {
                j += 1;
            }
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out
}

fn difference(a: &[DocId], b: &[DocId]) -> Vec<DocId> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() {
        while j < b.len() && b[j] < a[i] {
            j += 1;
        }
        if j >= b.len() || b[j] != a[i] {
            out.push(a[i]);
        }
        i += 1;
    }
    out
}

/// TF-IDF ranked retrieval for a free-text query (terms are tokenized with
/// the same rules as indexing; unknown terms are ignored).
pub fn search(
    ctx: &Ctx,
    scan: &ScanOutput,
    index: &InvertedIndex,
    query: &str,
    top: usize,
) -> Vec<Hit> {
    search_in(&LiveIndex { ctx, scan, index }, query, top)
}

/// A [`Hit`] ordered by rank: `Less` ranks earlier — the higher score,
/// then the lower doc id.
struct Ranked(Hit);

impl Ord for Ranked {
    fn cmp(&self, other: &Self) -> Ordering {
        let by_score = other.0.score.partial_cmp(&self.0.score);
        by_score
            .expect("tf-idf scores are never NaN")
            .then(self.0.doc.cmp(&other.0.doc))
    }
}

impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Ranked {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Ranked {}

/// [`search`] against any [`SearchIndex`] backend.
///
/// Document at a time. Each token's list arrives (doc, field)-sorted, so
/// folding a document's fields is a run-length pass that leaves one
/// `(doc, (1 + ln f)·idf)` run per document, ascending. The tokens' runs
/// are then merged by document: a document's score starts at 0.0 and
/// takes its contributions in token order (a repeated token contributes
/// once per occurrence) — the order in which a per-document accumulator
/// would have met them, so every sum has the same bits. Only the best
/// `top` are kept, in a heap whose root is the worst of them; documents
/// arrive in ascending id, so one that merely ties the root ranks after
/// it and is dropped.
pub fn search_in(ix: &impl SearchIndex, query: &str, top: usize) -> Vec<Hit> {
    let tokenizer = crate::tokenize::Tokenizer::default();
    let mut terms = Vec::new();
    tokenizer.tokenize_into(query, |t| terms.push(t.to_string()));

    let d = ix.total_docs() as f64;
    let mut posts: Vec<Posting> = Vec::new();
    // Every token's runs back to back, and how many each token that has
    // any contributed.
    let mut runs: Vec<(DocId, f64)> = Vec::new();
    let mut lens: Vec<usize> = Vec::new();
    for term in terms {
        let Some(t) = ix.term_id(&term) else {
            continue;
        };
        let df = ix.df(t) as f64;
        if df == 0.0 {
            continue;
        }
        let idf = ((d + 1.0) / (df + 1.0)).ln();
        posts.clear();
        ix.postings_into(t, &mut posts);
        let before = runs.len();
        runs.extend(posts.chunk_by(|a, b| a.doc == b.doc).map(|fields| {
            let freq: u32 = fields.iter().map(|p| p.freq).sum();
            (fields[0].doc, (1.0 + (freq as f64).ln()) * idf)
        }));
        if runs.len() > before {
            lens.push(runs.len() - before);
        }
    }

    // One cursor per such token, in token order; none in the list is
    // ever empty, so the next document is the smallest one any of them
    // points at.
    let mut rest = runs.as_slice();
    let mut cursors: Vec<&[(DocId, f64)]> = Vec::with_capacity(lens.len());
    for len in lens {
        let (own, later) = rest.split_at(len);
        cursors.push(own);
        rest = later;
    }
    let mut best: BinaryHeap<Ranked> = BinaryHeap::new();
    while let Some(doc) = cursors.iter().map(|c| c[0].0).min() {
        let mut score = 0.0;
        let mut spent = false;
        for c in &mut cursors {
            if c[0].0 == doc {
                score += c[0].1;
                *c = &c[1..];
                spent |= c.is_empty();
            }
        }
        if spent {
            cursors.retain(|c| !c.is_empty());
        }
        let hit = Ranked(Hit { doc, score });
        if best.len() < top {
            best.push(hit);
        } else if let Some(mut worst) = best.peek_mut() {
            if hit < *worst {
                *worst = hit;
            }
        }
    }
    best.into_sorted_vec().into_iter().map(|r| r.0).collect()
}

/// The ranked-retrieval reference the tests hold [`search_in`] to, rank
/// by rank and bit by bit: scores accumulate in a hash map per query
/// and fields fold in a second one per term, then every scored document
/// is sorted.
#[cfg(test)]
fn search_oracle(ix: &impl SearchIndex, query: &str, top: usize) -> Vec<Hit> {
    use std::collections::HashMap;
    let tokenizer = crate::tokenize::Tokenizer::default();
    let mut terms = Vec::new();
    tokenizer.tokenize_into(query, |t| terms.push(t.to_string()));

    let d = ix.total_docs() as f64;
    let mut scores: HashMap<DocId, f64> = HashMap::new();
    let mut posts: Vec<Posting> = Vec::new();
    for term in terms {
        let Some(t) = ix.term_id(&term) else {
            continue;
        };
        let df = ix.df(t) as f64;
        if df == 0.0 {
            continue;
        }
        let idf = ((d + 1.0) / (df + 1.0)).ln();
        // Merge field postings per document.
        posts.clear();
        ix.postings_into(t, &mut posts);
        let mut per_doc: HashMap<DocId, u32> = HashMap::new();
        for p in &posts {
            *per_doc.entry(p.doc).or_insert(0) += p.freq;
        }
        for (doc, freq) in per_doc {
            *scores.entry(doc).or_insert(0.0) += (1.0 + (freq as f64).ln()) * idf;
        }
    }
    let mut hits: Vec<Hit> = scores
        .into_iter()
        .map(|(doc, score)| Hit { doc, score })
        .collect();
    hits.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap()
            .then(a.doc.cmp(&b.doc))
    });
    hits.truncate(top);
    hits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::index::invert;
    use crate::scan::scan;
    use corpus::CorpusSpec;
    use spmd::Runtime;

    fn corpus() -> corpus::SourceSet {
        CorpusSpec {
            source_bytes: 8 * 1024,
            ..CorpusSpec::pubmed(48 * 1024, 61)
        }
        .generate()
    }

    #[test]
    fn lookup_unknown_term_is_empty() {
        let src = corpus();
        let rt = Runtime::for_testing();
        rt.run(2, |ctx| {
            let cfg = EngineConfig::for_testing();
            let (s, fwd) = scan(ctx, &src, &cfg);
            let idx = invert(ctx, &s, fwd, &cfg);
            assert!(lookup(ctx, &s, &idx, "qqqqq").is_empty());
        });
    }

    #[test]
    fn lookup_known_term_matches_df() {
        let src = corpus();
        let rt = Runtime::for_testing();
        rt.run(2, |ctx| {
            let cfg = EngineConfig::for_testing();
            let (s, fwd) = scan(ctx, &src, &cfg);
            let idx = invert(ctx, &s, fwd, &cfg);
            // Pick a mid-frequency term from the vocabulary.
            let t = (0..s.vocab_size())
                .find(|&t| idx.df[t] >= 3)
                .expect("some term with df >= 3");
            let term = s.terms[t].to_string();
            let posts = lookup(ctx, &s, &idx, &term);
            let mut docs: Vec<DocId> = posts.iter().map(|p| p.doc).collect();
            docs.dedup();
            assert_eq!(docs.len() as u32, idx.df[t]);
        });
    }

    #[test]
    fn search_ranks_matching_docs() {
        let src = corpus();
        let rt = Runtime::for_testing();
        rt.run(2, |ctx| {
            let cfg = EngineConfig::for_testing();
            let (s, fwd) = scan(ctx, &src, &cfg);
            let idx = invert(ctx, &s, fwd, &cfg);
            let t = (0..s.vocab_size()).max_by_key(|&t| idx.df[t]).unwrap();
            let term = s.terms[t].to_string();
            let hits = search(ctx, &s, &idx, &term, 10);
            assert!(!hits.is_empty());
            assert!(hits.len() <= 10);
            for w in hits.windows(2) {
                assert!(w[0].score >= w[1].score);
            }
        });
    }

    #[test]
    fn set_operations_are_correct() {
        assert_eq!(intersect(&[1, 3, 5, 7], &[3, 4, 5, 9]), vec![3, 5]);
        assert_eq!(intersect(&[], &[1]), Vec::<DocId>::new());
        assert_eq!(union(&[1, 3, 5], &[2, 3, 6]), vec![1, 2, 3, 5, 6]);
        assert_eq!(union(&[], &[]), Vec::<DocId>::new());
        assert_eq!(difference(&[1, 2, 3, 4], &[2, 4, 8]), vec![1, 3]);
        assert_eq!(difference(&[], &[1]), Vec::<DocId>::new());
    }

    #[test]
    fn boolean_queries_respect_set_algebra() {
        let src = corpus();
        let rt = Runtime::for_testing();
        rt.run(2, |ctx| {
            let cfg = EngineConfig::for_testing();
            let (s, fwd) = scan(ctx, &src, &cfg);
            let idx = invert(ctx, &s, fwd, &cfg);
            // Two mid-frequency terms.
            let mut picks = (0..s.vocab_size())
                .filter(|&t| idx.df[t] >= 4 && (idx.df[t] as f64) < idx.total_docs as f64 * 0.5)
                .map(|t| s.terms[t].to_string());
            let ta = picks.next().expect("term a");
            let tb = picks.next().expect("term b");

            let a = evaluate(ctx, &s, &idx, &Query::Term(ta.clone()));
            let b = evaluate(ctx, &s, &idx, &Query::Term(tb.clone()));
            let and = evaluate(
                ctx,
                &s,
                &idx,
                &Query::And(vec![Query::Term(ta.clone()), Query::Term(tb.clone())]),
            );
            let or = evaluate(
                ctx,
                &s,
                &idx,
                &Query::Or(vec![Query::Term(ta.clone()), Query::Term(tb.clone())]),
            );
            let not = evaluate(
                ctx,
                &s,
                &idx,
                &Query::AndNot(
                    Box::new(Query::Term(ta.clone())),
                    Box::new(Query::Term(tb.clone())),
                ),
            );
            // |A∩B| + |A∪B| = |A| + |B|.
            assert_eq!(and.len() + or.len(), a.len() + b.len());
            // A \ B and A ∩ B partition A.
            assert_eq!(not.len() + and.len(), a.len());
            // Membership coherence.
            for d in &and {
                assert!(a.binary_search(d).is_ok() && b.binary_search(d).is_ok());
            }
            for d in &not {
                assert!(a.binary_search(d).is_ok() && b.binary_search(d).is_err());
            }
            // Results sorted ascending.
            for w in or.windows(2) {
                assert!(w[0] < w[1]);
            }
        });
    }

    #[test]
    fn field_scoped_query_narrower_than_global() {
        let src = corpus();
        let rt = Runtime::for_testing();
        rt.run(2, |ctx| {
            let cfg = EngineConfig::for_testing();
            let (s, fwd) = scan(ctx, &src, &cfg);
            let idx = invert(ctx, &s, fwd, &cfg);
            // A frequent term appears in abstracts far more than titles.
            let t = (0..s.vocab_size()).max_by_key(|&t| idx.df[t]).unwrap();
            let term = s.terms[t].to_string();
            let all = evaluate(ctx, &s, &idx, &Query::Term(term.clone()));
            let title_only = evaluate(ctx, &s, &idx, &Query::FieldTerm("title", term.clone()));
            assert!(title_only.len() <= all.len());
            // Every title match is also a global match.
            for d in &title_only {
                assert!(all.binary_search(d).is_ok());
            }
            // Union over all indexed fields reconstructs the global set.
            let by_fields = evaluate(
                ctx,
                &s,
                &idx,
                &Query::Or(vec![
                    Query::FieldTerm("title", term.clone()),
                    Query::FieldTerm("abstract", term.clone()),
                    Query::FieldTerm("mesh", term.clone()),
                    Query::FieldTerm("body", term.clone()),
                ]),
            );
            assert_eq!(by_fields, all);
        });
    }

    #[test]
    fn empty_and_unknown_boolean_queries() {
        let src = corpus();
        let rt = Runtime::for_testing();
        rt.run(1, |ctx| {
            let cfg = EngineConfig::for_testing();
            let (s, fwd) = scan(ctx, &src, &cfg);
            let idx = invert(ctx, &s, fwd, &cfg);
            assert!(evaluate(ctx, &s, &idx, &Query::And(vec![])).is_empty());
            assert!(evaluate(ctx, &s, &idx, &Query::Or(vec![])).is_empty());
            assert!(evaluate(ctx, &s, &idx, &Query::Term("zz-unknown-zz".into())).is_empty());
        });
    }

    #[test]
    fn parser_builds_expected_trees() {
        assert_eq!(Query::parse("heart").unwrap(), Query::Term("heart".into()));
        assert_eq!(
            Query::parse("Heart Attack").unwrap(),
            Query::And(vec![
                Query::Term("heart".into()),
                Query::Term("attack".into())
            ])
        );
        assert_eq!(
            Query::parse("heart AND attack").unwrap(),
            Query::parse("heart attack").unwrap()
        );
        assert_eq!(
            Query::parse("title:heart OR (lung AND NOT mesh:cancer)").unwrap(),
            Query::Or(vec![
                Query::FieldTerm("title", "heart".into()),
                Query::AndNot(
                    Box::new(Query::Term("lung".into())),
                    Box::new(Query::FieldTerm("mesh", "cancer".into()))
                ),
            ])
        );
        // Multiple negations collect into one subtracted union.
        assert_eq!(
            Query::parse("a NOT b NOT c").unwrap(),
            Query::AndNot(
                Box::new(Query::Term("a".into())),
                Box::new(Query::Or(vec![
                    Query::Term("b".into()),
                    Query::Term("c".into())
                ]))
            )
        );
    }

    #[test]
    fn normalized_is_canonical_and_reparses() {
        // Equivalent spellings normalize to the same string.
        for (a, b) in [
            ("heart attack", "heart AND attack"),
            ("a (b)", "a AND b"),
            ("x OR y OR z", "x or y or z"),
            ("a NOT b", "a AND NOT b"),
        ] {
            assert_eq!(
                Query::parse(a).unwrap().normalized(),
                Query::parse(b).unwrap().normalized(),
                "{a:?} vs {b:?}"
            );
        }
        // Normalized text reparses to the same tree.
        for e in [
            "heart",
            "title:heart OR (lung AND NOT mesh:cancer)",
            "a NOT b NOT c",
            "(a OR b) (c OR d)",
        ] {
            let q = Query::parse(e).unwrap();
            assert_eq!(Query::parse(&q.normalized()).unwrap(), q, "{e:?}");
        }
    }

    #[test]
    fn parser_rejects_malformed_queries() {
        for bad in [
            "",
            "   ",
            "AND x",
            "x OR",
            "x AND",
            "NOT x",
            "(a OR b",
            "a b)",
            "nosuchfield:x",
            "title:",
        ] {
            assert!(Query::parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn parsed_queries_evaluate_like_constructed_ones() {
        let src = corpus();
        let rt = Runtime::for_testing();
        rt.run(2, |ctx| {
            let cfg = EngineConfig::for_testing();
            let (s, fwd) = scan(ctx, &src, &cfg);
            let idx = invert(ctx, &s, fwd, &cfg);
            let mut picks = (0..s.vocab_size())
                .filter(|&t| idx.df[t] >= 4)
                .map(|t| s.terms[t].to_string());
            let ta = picks.next().expect("term a");
            let tb = picks.next().expect("term b");
            let parsed = Query::parse(&format!("{ta} AND NOT (title:{tb} OR {tb})")).unwrap();
            let built = Query::AndNot(
                Box::new(Query::Term(ta.clone())),
                Box::new(Query::Or(vec![
                    Query::FieldTerm("title", tb.clone()),
                    Query::Term(tb.clone()),
                ])),
            );
            assert_eq!(parsed, built);
            assert_eq!(
                evaluate(ctx, &s, &idx, &parsed),
                evaluate(ctx, &s, &idx, &built)
            );
        });
    }

    #[test]
    fn search_empty_query_no_hits() {
        let src = corpus();
        let rt = Runtime::for_testing();
        rt.run(1, |ctx| {
            let cfg = EngineConfig::for_testing();
            let (s, fwd) = scan(ctx, &src, &cfg);
            let idx = invert(ctx, &s, fwd, &cfg);
            assert!(search(ctx, &s, &idx, "", 5).is_empty());
            assert!(search(ctx, &s, &idx, "the and of", 5).is_empty());
        });
    }

    /// Deterministic xorshift for the seeded query mix.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// Equal length, and at every rank equal doc and equal score bits.
    fn assert_matches_oracle(ix: &impl SearchIndex, text: &str, top: usize) -> Vec<Hit> {
        let got = search_in(ix, text, top);
        let want = search_oracle(ix, text, top);
        assert_eq!(got.len(), want.len(), "{text:?} top={top}");
        for (rank, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g.doc, w.doc, "{text:?} top={top} rank {rank}");
            assert_eq!(
                g.score.to_bits(),
                w.score.to_bits(),
                "{text:?} top={top} rank {rank}: {} vs {}",
                g.score,
                w.score
            );
        }
        got
    }

    #[test]
    fn search_matches_the_oracle_bit_for_bit_on_seeded_queries() {
        let src = CorpusSpec::pubmed(1024 * 1024, 83).generate();
        let rt = Runtime::for_testing();
        for procs in [1, 2] {
            rt.run(procs, |ctx| {
                let cfg = EngineConfig::for_testing();
                let (s, fwd) = scan(ctx, &src, &cfg);
                let idx = invert(ctx, &s, fwd, &cfg);
                let ix = LiveIndex {
                    ctx,
                    scan: &s,
                    index: &idx,
                };
                // Vocabulary by descending df: cubing a uniform draw puts
                // a third of the tokens in the most frequent 3 % of terms
                // and still reaches the df = 1 tail.
                let mut by_df: Vec<usize> = (0..s.vocab_size()).collect();
                by_df.sort_by_key(|&t| (std::cmp::Reverse(idx.df[t]), t));
                assert!(idx.df[by_df[0]] > 50 * idx.df[by_df[by_df.len() - 1]]);
                let mut rng = Rng(0x9e37_79b9_7f4a_7c15 ^ procs as u64);
                let mut nonempty = 0;
                for q in 0..2_000 {
                    let mut tokens: Vec<String> = (0..1 + rng.below(5))
                        .map(|_| {
                            let u = rng.below(1 << 20) as f64 / (1u64 << 20) as f64;
                            let at = (u * u * u * by_df.len() as f64) as usize;
                            s.terms[by_df[at]].to_string()
                        })
                        .collect();
                    if q % 5 == 0 {
                        let again = tokens[rng.below(tokens.len())].clone();
                        tokens.insert(rng.below(tokens.len() + 1), again);
                    }
                    if q % 7 == 0 {
                        tokens.insert(rng.below(tokens.len() + 1), "zzunknownzz".into());
                    }
                    let text = tokens.join(" ");
                    // `top` of 1, 5, 50, and more than can match.
                    let top = [1, 5, 50, idx.total_docs as usize + 1][q % 4];
                    nonempty += usize::from(!assert_matches_oracle(&ix, &text, top).is_empty());
                }
                assert!(nonempty > 1_900, "only {nonempty} queries matched");
                for text in ["", "the and of", "zzunknownzz", "zzunknownzz qqunknownqq"] {
                    assert!(assert_matches_oracle(&ix, text, 10).is_empty(), "{text:?}");
                }
            });
        }
    }

    /// A hand-built index: `lists[t]` is the postings of `term<t>`.
    struct Toy {
        lists: Vec<Vec<Posting>>,
        total_docs: u32,
    }

    impl SearchIndex for Toy {
        fn term_id(&self, term: &str) -> Option<TermId> {
            let id: usize = term.strip_prefix("term")?.parse().ok()?;
            (id < self.lists.len()).then_some(id as TermId)
        }

        fn postings_of(&self, term: TermId) -> Vec<Posting> {
            self.lists[term as usize].clone()
        }

        fn df(&self, term: TermId) -> u32 {
            let mut docs: Vec<DocId> = self.lists[term as usize].iter().map(|p| p.doc).collect();
            docs.dedup();
            docs.len() as u32
        }

        fn total_docs(&self) -> u32 {
            self.total_docs
        }
    }

    #[test]
    fn search_lists_zero_idf_hits_and_breaks_ties_by_doc() {
        let post = |doc, field, freq| Posting { doc, field, freq };
        let toy = Toy {
            lists: vec![
                // term0 is in every document: idf = ln(1) = 0.
                vec![
                    post(0, 0, 3),
                    post(1, 0, 1),
                    post(1, 2, 4),
                    post(2, 1, 1),
                    post(3, 0, 2),
                    post(4, 0, 1),
                ],
                // term1: documents 1, 3 and 4 tie exactly (frequency 2 each,
                // 3 and 4 in one field, 1 folded from two).
                vec![post(1, 0, 1), post(1, 1, 1), post(3, 1, 2), post(4, 3, 2)],
                // term2 breaks the tie for document 4 only.
                vec![post(4, 0, 1)],
                // term3 is in the vocabulary with no postings (df = 0).
                vec![],
            ],
            total_docs: 5,
        };
        let docs = |text: &str, top: usize| -> Vec<(DocId, f64)> {
            let hits = assert_matches_oracle(&toy, text, top);
            hits.iter().map(|h| (h.doc, h.score)).collect()
        };
        // Zero idf: every document is a hit with score 0.0, in doc order.
        let all_zero: Vec<(DocId, f64)> = (0..5).map(|d| (d, 0.0)).collect();
        assert_eq!(docs("term0", 10), all_zero);
        assert_eq!(docs("term0 term0", 3), all_zero[..3]);
        // Exact ties rank by ascending doc, also when `top` cuts them.
        let tied = docs("term1", 10);
        assert_eq!(tied.iter().map(|h| h.0).collect::<Vec<_>>(), vec![1, 3, 4]);
        assert!(tied[0].1 > 0.0 && tied[0].1 == tied[1].1 && tied[1].1 == tied[2].1);
        assert_eq!(docs("term1", 2), tied[..2]);
        assert_eq!(docs("term1", 1), tied[..1]);
        // Zero-score hits rank below the positive ones, still by doc.
        let mixed = docs("term0 term1 term2", 10);
        assert_eq!(
            mixed.iter().map(|h| h.0).collect::<Vec<_>>(),
            vec![4, 1, 3, 0, 2]
        );
        assert_eq!(docs("term1 term0 term2 term1", 4).len(), 4);
        assert_eq!(docs("term2 term3 term9", 10).len(), 1);
        assert!(docs("term3", 10).is_empty());
    }
}
