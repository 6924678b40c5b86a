//! Tokenization: field text → terms.
//!
//! §3.2: *"terms are separated by whitespaces (or any delimiters specified
//! during configuration)"*. The delimiters are fixed here, and so is the
//! rest of the tokenizer: the build, the live sealer and every query
//! tokenize alike. It splits on everything that is not an ASCII letter
//! or digit, case-folds, keeps tokens of 3 to 40 bytes that hold a
//! letter, and drops stopwords (the list includes HTML structural words
//! so GOV2-style markup does not pollute the vocabulary). It works on
//! bytes: a token is pure ASCII, and every byte of a non-ASCII character
//! is a separator.
//!
//! [`Tokenizer`] is a zero-size handle; the stopword set it probes is
//! built at most once per process, on first use.

use intern::{fxhash, TermInterner};
use std::sync::LazyLock;

/// English function words plus markup noise. Short (the engine's
/// statistics reject high-df terms anyway); this list mainly keeps the
/// vocabulary map small.
const STOPWORDS: &[&str] = &[
    "a", "an", "and", "are", "as", "at", "be", "but", "by", "for", "from", "has", "have", "he",
    "in", "is", "it", "its", "of", "on", "or", "that", "the", "this", "to", "was", "were", "will",
    "with", "not", "they", "their", "we", "you", "all", "can", "her", "his", "our", "than", "then",
    "there", "these", "which", "who", "would", // Markup / web noise:
    "html", "head", "body", "title", "div", "span", "href", "http", "https", "www", "com", "gov",
    "org", "net", "img", "src", "br", "hr", "table", "tr", "td", "ul", "li", "meta", "doc",
    "docno", "dochdr",
];

/// Minimum term length in bytes.
const MIN_LEN: usize = 3;
/// Maximum term length in bytes (longer tokens are dropped as junk).
const MAX_LEN: usize = 40;

/// Longest stopword in bytes: longer tokens skip the stopword probe.
const MAX_STOPWORD_LEN: usize = {
    let (mut longest, mut i) = (0, 0);
    while i < STOPWORDS.len() {
        if STOPWORDS[i].len() > longest {
            longest = STOPWORDS[i].len();
        }
        i += 1;
    }
    longest
};

/// The stopword set as an interner, so membership tests share the scan
/// hot path's single-hash-pass, allocation-free lookup.
static STOPWORD_SET: LazyLock<TermInterner> = LazyLock::new(|| {
    let mut set = TermInterner::new();
    for w in STOPWORDS {
        set.intern(w);
    }
    set
});

/// Byte classes of the scanner: everything that is not an ASCII letter
/// or digit separates tokens. Bytes ≥ 0x80 only occur inside multi-byte
/// UTF-8 sequences, i.e. inside non-ASCII `char`s, which are separators.
const SEP: u8 = 0;
const DIGIT: u8 = 1;
const ALPHA: u8 = 2;

const CLASS: [u8; 256] = {
    let mut t = [SEP; 256];
    let mut b = 0usize;
    while b < 256 {
        if (b as u8).is_ascii_digit() {
            t[b] = DIGIT;
        } else if (b as u8).is_ascii_alphabetic() {
            t[b] = ALPHA;
        }
        b += 1;
    }
    t
};

/// The tokenizer: a zero-size handle over the fixed rules above, so
/// making one costs nothing. Braced rather than a unit struct, so that
/// callers writing `Tokenizer::default()` stay clean under clippy's
/// `default_constructed_unit_structs`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tokenizer {}

impl Tokenizer {
    /// The one scanner behind every tokenize entry point: walk `text`
    /// byte-wise and call `emit` with each accepted token's lower-cased
    /// bytes and their fxhash (computed once, shared with the stopword
    /// probe). Returns the number of raw token candidates examined.
    #[inline(always)]
    fn scan_tokens(&self, text: &[u8], mut emit: impl FnMut(&[u8], u64)) -> u64 {
        let stopwords: &TermInterner = &STOPWORD_SET;
        let mut candidates = 0u64;
        let mut buf = [0u8; MAX_LEN];
        let mut at = 0usize;
        while at < text.len() {
            if CLASS[text[at] as usize] == SEP {
                at += 1;
                continue;
            }
            let start = at;
            let mut classes = 0u8;
            while at < text.len() && CLASS[text[at] as usize] != SEP {
                classes |= CLASS[text[at] as usize];
                at += 1;
            }
            candidates += 1;
            let raw = &text[start..at];
            if raw.len() < MIN_LEN || raw.len() > MAX_LEN || classes & ALPHA == 0 {
                continue;
            }
            // `| 0x20` lowercases letters and leaves digits (0x30..=0x39,
            // bit 5 already set) unchanged.
            let term = &mut buf[..raw.len()];
            for (lower, &b) in term.iter_mut().zip(raw) {
                *lower = b | 0x20;
            }
            debug_assert!(term.is_ascii());
            let hash = fxhash(term);
            if term.len() <= MAX_STOPWORD_LEN && stopwords.lookup_bytes_hashed(term, hash).is_some()
            {
                continue;
            }
            emit(term, hash);
        }
        candidates
    }

    /// Tokenize `text`, invoking `emit` for each accepted term
    /// (lowercased). Returns the number of raw token candidates examined
    /// (for work accounting).
    pub fn tokenize_into(&self, text: &str, mut emit: impl FnMut(&str)) -> u64 {
        self.scan_tokens(text.as_bytes(), |term, _hash| {
            emit(std::str::from_utf8(term).expect("tokens are ASCII"))
        })
    }

    /// Collect accepted terms into a vector (test/diagnostic helper).
    pub fn tokenize(&self, text: &str) -> Vec<String> {
        let mut out = Vec::new();
        self.tokenize_into(text, |t| out.push(t.to_string()));
        out
    }

    /// Tokenize + intern in one pass: each accepted token is interned
    /// into `terms` by its bytes with the hash the scanner already
    /// computed (where [`Tokenizer::tokenize_into`] +
    /// `TermInterner::intern` hashes every surviving token twice). `emit`
    /// receives the id from `terms` and whether it was newly interned.
    /// Returns the candidate count, same as `tokenize_into`.
    pub fn tokenize_intern_into(
        &self,
        text: &str,
        terms: &mut TermInterner,
        mut emit: impl FnMut(u32, bool),
    ) -> u64 {
        self.scan_tokens(text.as_bytes(), |term, hash| {
            let (id, is_new) = terms.intern_ascii_hashed(term, hash);
            emit(id, is_new);
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn splits_on_punctuation_and_folds_case() {
        let t = Tokenizer::default();
        assert_eq!(
            t.tokenize("Cardiomyopathy, HYPERTENSION; renal-failure."),
            vec!["cardiomyopathy", "hypertension", "renal", "failure"]
        );
    }

    #[test]
    fn filters_stopwords_and_short_terms() {
        let t = Tokenizer::default();
        assert_eq!(
            t.tokenize("the cat is on a mat with it"),
            vec!["cat", "mat"]
        );
    }

    #[test]
    fn drops_bare_numbers_but_keeps_alphanumerics() {
        let t = Tokenizer::default();
        assert_eq!(
            t.tokenize("12345 il6 2024 p53kinase"),
            vec!["il6", "p53kinase"]
        );
    }

    #[test]
    fn markup_words_filtered() {
        let t = Tokenizer::default();
        assert_eq!(
            t.tokenize("<html><body>policy statute</body></html>"),
            vec!["policy", "statute"]
        );
    }

    #[test]
    fn overlong_tokens_dropped() {
        let t = Tokenizer::default();
        let long = "x".repeat(50);
        assert!(t.tokenize(&long).is_empty());
    }

    #[test]
    fn candidate_count_includes_rejected() {
        let t = Tokenizer::default();
        let mut n = 0;
        let candidates = t.tokenize_into("the 123 cat", |_| n += 1);
        assert_eq!(candidates, 3);
        assert_eq!(n, 1);
    }

    #[test]
    fn empty_text() {
        let t = Tokenizer::default();
        assert!(t.tokenize("").is_empty());
        assert!(t.tokenize("... --- !!!").is_empty());
    }

    /// The `char`-split loop the byte-wise scanner replaced, kept as the
    /// oracle: split on non-ASCII-alphanumeric `char`s, filter, lowercase
    /// through `String::push`, search the stopword list for every token.
    fn tokenize_into_oracle(text: &str, mut emit: impl FnMut(&str)) -> u64 {
        let mut candidates = 0u64;
        let mut buf = String::new();
        for raw in text.split(|c: char| !c.is_ascii_alphanumeric()) {
            if raw.is_empty() {
                continue;
            }
            candidates += 1;
            if raw.len() < MIN_LEN || raw.len() > MAX_LEN {
                continue;
            }
            if !raw.bytes().any(|b| b.is_ascii_alphabetic()) {
                continue;
            }
            buf.clear();
            for b in raw.bytes() {
                buf.push(b.to_ascii_lowercase() as char);
            }
            if STOPWORDS.contains(&buf.as_str()) {
                continue;
            }
            emit(&buf);
        }
        candidates
    }

    /// Both entry points against the oracle + `intern`: same candidate
    /// count, same emitted ids and `is_new` flags, same interner contents.
    fn assert_matches_oracle(text: &str) {
        let t = Tokenizer::default();
        let mut want_terms = Vec::new();
        let mut want_interner = TermInterner::new();
        let want_candidates = tokenize_into_oracle(text, |term| {
            want_terms.push(want_interner.intern(term));
        });

        let mut str_terms = Vec::new();
        let mut str_interner = TermInterner::new();
        let str_candidates = t.tokenize_into(text, |term| {
            str_terms.push(str_interner.intern(term));
        });

        let mut fold_terms = Vec::new();
        let mut fold_interner = TermInterner::new();
        let fold_candidates = t.tokenize_intern_into(text, &mut fold_interner, |id, is_new| {
            fold_terms.push((id, is_new))
        });

        for (candidates, terms, interner) in [
            (str_candidates, &str_terms, &str_interner),
            (fold_candidates, &fold_terms, &fold_interner),
        ] {
            assert_eq!(want_candidates, candidates, "text={text:?}");
            assert_eq!(&want_terms, terms, "text={text:?}");
            assert_eq!(
                want_interner.iter().collect::<Vec<_>>(),
                interner.iter().collect::<Vec<_>>(),
                "text={text:?}"
            );
        }
    }

    #[test]
    fn scanner_matches_char_split_oracle() {
        let texts = [
            "Cardiomyopathy, HYPERTENSION; renal-failure.",
            "the cat is on a mat with it",
            "12345 il6 2024 p53kinase",
            "<html><body>policy statute</body></html>",
            "naïve café résumé mixed ASCII-only splits",
            "repeat repeat REPEAT rePEAT",
            "",
            "... --- !!!",
            "x1 y2 z3 aa0 0aa 000",
            "٣٣٣ abc٣def ١٢٣abc",
            "dochdr dochdrs DOCHDR theres",
        ];
        for text in texts {
            assert_matches_oracle(text);
        }
    }

    /// One piece of generated text: a run of `len` characters of a kind
    /// chosen to sit on the scanner's decision boundaries.
    fn piece(kind: usize, len: usize, out: &mut String) {
        const STOP: &[&str] = &["the", "With", "DOCHDR", "https", "a"];
        match kind {
            0 => out.extend(std::iter::repeat_n('q', len)),
            1 => out.extend((0..len).map(|i| if i % 2 == 0 { 'K' } else { 'z' })),
            2 => out.extend((0..len).map(|i| char::from(b'0' + (i % 10) as u8))),
            3 => out.extend((0..len).map(|i| if i % 3 == 0 { '7' } else { 'B' })),
            4 => out.push_str(STOP[len % STOP.len()]),
            5 => out.push('é'),
            6 => out.push('٣'),
            7 => out.push('😀'),
            8 => out.push(' '),
            _ => out.push_str(".-"),
        }
    }

    proptest! {
        #[test]
        fn scanner_matches_oracle_on_boundary_text(
            // Lengths straddle min_len−1 = 2 and max_len+1 = 41.
            picks in prop::collection::vec((0usize..10, 0usize..44), 0..40),
        ) {
            let mut text = String::new();
            for (kind, len) in picks {
                piece(kind, len, &mut text);
            }
            assert_matches_oracle(&text);
        }

        #[test]
        fn scanner_matches_oracle_on_arbitrary_utf8(text in "\\PC{0,200}") {
            assert_matches_oracle(&text);
        }
    }
}
