//! # corpus — synthetic stand-ins for the paper's datasets
//!
//! The paper evaluates on subsets of two corpora we cannot redistribute:
//!
//! * **PubMed** — *"15+ million abstracts … Each abstract is defined as
//!   unstructured (or free form) text and is consistent in both size and
//!   language type"* (§4.1). Subsets of 2.75, 6.67 and 16.44 GB.
//! * **TREC GOV2** — *"a collection of web data crawled from web sites in
//!   the .gov domain … 426GB in size and contains 25 million documents"*
//!   (§4.1). Subsets of 1, 4 and 8.21 GB.
//!
//! The engine never sees the *meaning* of the text — only its statistical
//! structure: record/field framing, vocabulary growth (Heaps), term
//! frequency skew (Zipf), term burstiness (what Bookstein topicality
//! detects), latent topical grouping (what clustering recovers), and the
//! document-length distribution (what stresses load balancing). The
//! generators here reproduce exactly those properties:
//!
//! * [`pubmed`] emits MEDLINE-style records (`PMID-`/`TI  -`/`AB  -`/
//!   `MH  -` tags) with near-uniform abstract lengths and a
//!   medical-flavoured vocabulary.
//! * [`trec`] emits `<DOC><DOCNO>…</DOCNO>…</DOC>` framed pages with
//!   HTML-ish markup noise and heavy-tailed (Pareto) body lengths — the
//!   heterogeneity that makes static partitioning imbalanced.
//! * Both draw tokens from a [`themes`] mixture model (latent themes over
//!   a Zipfian background), so downstream clustering and ThemeView find
//!   real structure instead of noise.
//!
//! Corpora are generated deterministically from a seed, in parallel
//! (rayon), and framed into multiple [`Source`]s ("files") that the
//! engine's scanner partitions by size exactly as the paper describes.

pub mod load;
pub mod newswire;
pub mod partition;
pub mod pubmed;
pub mod record;
pub mod stats;
pub mod themes;
pub mod trec;
pub mod vocab;
pub mod zipf;

pub use load::{load_dir, load_file, sniff_format};
pub use partition::partition_contiguous;
pub use record::{FormatKind, RawDocument, Source, SourceSet};
pub use stats::CorpusStats;
pub use themes::ThemeModel;
pub use vocab::{Flavour, Vocabulary};
pub use zipf::Zipf;

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Specification for generating a synthetic corpus.
#[derive(Debug, Clone)]
pub struct CorpusSpec {
    /// Approximate total size to generate, in bytes.
    pub target_bytes: u64,
    /// Which corpus to imitate.
    pub flavour: Flavour,
    /// RNG seed; identical specs generate identical corpora.
    pub seed: u64,
    /// Approximate bytes per source "file".
    pub source_bytes: u64,
}

/// Distinct words in each flavour's closed vocabulary, and its number of
/// latent themes.
const fn lexicon(flavour: Flavour) -> (usize, usize) {
    match flavour {
        Flavour::Medical => (24_000, 24),
        Flavour::Web => (32_000, 16),
        Flavour::Newswire => (20_000, 20),
    }
}

impl CorpusSpec {
    /// A corpus of `flavour` of roughly `target_bytes`, framed into many
    /// sources so the byte-based static partitioner has granularity at
    /// every processor count (a miniature corpus must still look like a
    /// directory of files, not one blob).
    fn new(flavour: Flavour, target_bytes: u64, seed: u64) -> Self {
        CorpusSpec {
            target_bytes,
            flavour,
            seed,
            source_bytes: (target_bytes / 256).clamp(4 * 1024, 256 * 1024),
        }
    }

    /// A PubMed-flavoured corpus of roughly `target_bytes`.
    pub fn pubmed(target_bytes: u64, seed: u64) -> Self {
        Self::new(Flavour::Medical, target_bytes, seed)
    }

    /// A TREC GOV2-flavoured corpus of roughly `target_bytes`.
    pub fn trec(target_bytes: u64, seed: u64) -> Self {
        Self::new(Flavour::Web, target_bytes, seed)
    }

    /// A newswire / message-traffic corpus of roughly `target_bytes`.
    pub fn newswire(target_bytes: u64, seed: u64) -> Self {
        Self::new(Flavour::Newswire, target_bytes, seed)
    }

    /// Generate the corpus.
    pub fn generate(&self) -> SourceSet {
        let (vocab_size, n_themes) = lexicon(self.flavour);
        let vocab = Vocabulary::synthesize(self.flavour, vocab_size, self.seed ^ 0x5eed);
        let themes = ThemeModel::build(&vocab, n_themes, self.seed ^ 0x7e0e);
        match self.flavour {
            Flavour::Medical => pubmed::generate(self, &vocab, &themes),
            Flavour::Web => trec::generate(self, &vocab, &themes),
            Flavour::Newswire => newswire::generate(self, &vocab, &themes),
        }
    }

    pub(crate) fn rng_for_source(&self, source_idx: usize) -> StdRng {
        StdRng::seed_from_u64(
            self.seed
                .wrapping_mul(0x9e3779b97f4a7c15)
                .wrapping_add(source_idx as u64),
        )
    }

    /// Number of sources needed to reach the byte target.
    pub(crate) fn n_sources(&self) -> usize {
        self.target_bytes.div_ceil(self.source_bytes).max(1) as usize
    }

    /// Byte quota for each individual source, so the total lands on the
    /// target even when it is smaller than `source_bytes`.
    pub(crate) fn source_quota(&self) -> u64 {
        self.target_bytes.div_ceil(self.n_sources() as u64).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let spec = CorpusSpec::pubmed(64 * 1024, 42);
        let a = spec.generate();
        let b = spec.generate();
        assert_eq!(a.sources.len(), b.sources.len());
        for (x, y) in a.sources.iter().zip(&b.sources) {
            assert_eq!(x.data, y.data);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = CorpusSpec::pubmed(32 * 1024, 1).generate();
        let b = CorpusSpec::pubmed(32 * 1024, 2).generate();
        assert_ne!(a.sources[0].data, b.sources[0].data);
    }

    #[test]
    fn size_near_target() {
        for target in [64 * 1024u64, 300 * 1024] {
            let total: u64 = CorpusSpec::trec(target, 7)
                .generate()
                .sources
                .iter()
                .map(|s| s.data.len() as u64)
                .sum();
            let ratio = total as f64 / target as f64;
            assert!(
                (0.7..1.4).contains(&ratio),
                "total {total} vs target {target}"
            );
        }
    }

    /// The generated bytes, source names included, as every earlier build
    /// produced them: the flavours' lexicon sizes, theme counts and
    /// framing all feed these sums.
    #[test]
    fn generated_bytes_are_pinned() {
        let pinned = [
            (
                CorpusSpec::pubmed as fn(u64, u64) -> CorpusSpec,
                5,
                0x54b9e260,
            ),
            (CorpusSpec::trec, 5, 0x2d23d5b2),
            (CorpusSpec::newswire, 5, 0xa819f0c7),
            (CorpusSpec::pubmed, 11, 0xd0936147),
            (CorpusSpec::trec, 11, 0x4fdc2c08),
            (CorpusSpec::newswire, 11, 0x26821a27),
        ];
        for (spec, seed, want) in pinned {
            let spec = spec(64 * 1024, seed);
            let mut crc = inspire_store::Crc32::new();
            for s in &spec.generate().sources {
                crc.update(s.name.as_bytes());
                crc.update(&s.data);
            }
            let got = crc.finish();
            assert_eq!(got, want, "{:?} seed {seed}: {got:#010x}", spec.flavour);
        }
    }

    #[test]
    fn sources_have_expected_format() {
        let pm = CorpusSpec::pubmed(32 * 1024, 3).generate();
        assert!(pm.sources.iter().all(|s| s.format == FormatKind::Medline));
        let tr = CorpusSpec::trec(32 * 1024, 3).generate();
        assert!(tr.sources.iter().all(|s| s.format == FormatKind::TrecWeb));
    }
}
