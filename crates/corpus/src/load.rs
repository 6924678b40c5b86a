//! Loading real corpora from disk.
//!
//! The generators make synthetic stand-ins; this module ingests *actual*
//! files — a directory of MEDLINE exports or TREC-format bundles — into a
//! [`SourceSet`] the engine can process. Format is detected per file by
//! content sniffing (extension-independent, as crawl bundles rarely have
//! meaningful extensions).

use crate::record::{FormatKind, Source, SourceSet};
use std::io;
use std::path::{Path, PathBuf};

/// Detect the record format of a file from its leading bytes.
///
/// Returns `None` when the content matches neither format (the loader
/// skips such files rather than mis-parsing them).
pub fn sniff_format(data: &[u8]) -> Option<FormatKind> {
    // Skip leading whitespace.
    let start = data
        .iter()
        .position(|b| !b.is_ascii_whitespace())
        .unwrap_or(data.len());
    let head = &data[start..data.len().min(start + 4096)];
    if head.starts_with(b"<DOC>") {
        return Some(FormatKind::TrecWeb);
    }
    if head.starts_with(b"From ") {
        return Some(FormatKind::Message);
    }
    // MEDLINE: begins with a `XXXX- ` tag line such as `PMID- `.
    let is_medline_tag = |line: &[u8]| -> bool {
        line.len() >= 6
            && line[..4]
                .iter()
                .all(|b| b.is_ascii_uppercase() || *b == b' ')
            && (line[4] == b'-' || line[5] == b'-')
    };
    if let Some(first_line) = head.split(|&b| b == b'\n').next() {
        if is_medline_tag(first_line) {
            return Some(FormatKind::Medline);
        }
    }
    None
}

/// Load one file as a [`Source`], sniffing its format.
pub fn load_file(path: &Path) -> io::Result<Option<Source>> {
    let data = std::fs::read(path)?;
    if std::str::from_utf8(&data).is_err() {
        return Ok(None); // binary file; skip
    }
    let Some(format) = sniff_format(&data) else {
        return Ok(None);
    };
    Ok(Some(Source {
        name: path.display().to_string(),
        data,
        format,
    }))
}

/// Load every recognizable file under `dir` (non-recursive sort for
/// stable document numbering; subdirectories are descended into, also in
/// sorted order). Each source is named by its path relative to `dir`, so
/// a name — and the corpus fingerprint that hashes it — does not depend
/// on how `dir` is spelled or where it lives.
pub fn load_dir(dir: &Path) -> io::Result<SourceSet> {
    let mut sources = Vec::new();
    let mut stack = vec![PathBuf::new()];
    while let Some(rel_dir) = stack.pop() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(dir.join(&rel_dir))?
            .filter_map(|e| e.ok().map(|e| rel_dir.join(e.file_name())))
            .collect();
        entries.sort();
        for rel in entries {
            let path = dir.join(&rel);
            if path.is_dir() {
                stack.push(rel);
            } else if let Some(mut src) = load_file(&path)? {
                src.name = rel.display().to_string();
                sources.push(src);
            }
        }
    }
    // Deterministic global order regardless of traversal.
    sources.sort_by(|a, b| a.name.cmp(&b.name));
    Ok(SourceSet { sources })
}

/// Write a [`SourceSet`] to a directory, one file per source (the inverse
/// of [`load_dir`]; used to materialize synthetic corpora for external
/// tools and tests).
pub fn write_dir(set: &SourceSet, dir: &Path) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    for src in &set.sources {
        // Keep only the basename; sources loaded from a nested directory
        // carry their relative path.
        let base = Path::new(&src.name)
            .file_name()
            .map(|s| s.to_string_lossy().to_string())
            .unwrap_or_else(|| "source.txt".to_string());
        std::fs::write(dir.join(base), &src.data)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CorpusSpec;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("corpus-load-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn sniffs_both_formats() {
        assert_eq!(
            sniff_format(b"PMID- 123\nTI  - hello\n"),
            Some(FormatKind::Medline)
        );
        assert_eq!(
            sniff_format(b"<DOC>\n<DOCNO>GX1</DOCNO>\n"),
            Some(FormatKind::TrecWeb)
        );
        assert_eq!(
            sniff_format(b"\n\n  <DOC>\n<DOCNO>GX1</DOCNO>"),
            Some(FormatKind::TrecWeb)
        );
        assert_eq!(
            sniff_format(b"From analyst1 Mon Jan 5 2004\nSubject: x\n"),
            Some(FormatKind::Message)
        );
        assert_eq!(sniff_format(b"just some plain text"), None);
        assert_eq!(sniff_format(b""), None);
    }

    #[test]
    fn roundtrip_through_disk() {
        let set = CorpusSpec::pubmed(64 * 1024, 42).generate();
        let dir = tmpdir("rt");
        write_dir(&set, &dir).unwrap();
        let loaded = load_dir(&dir).unwrap();
        assert_eq!(loaded.sources.len(), set.sources.len());
        assert_eq!(loaded.total_records(), set.total_records());
        assert_eq!(loaded.total_bytes(), set.total_bytes());
        // Every loaded source is format-sniffed correctly.
        assert!(loaded
            .sources
            .iter()
            .all(|s| s.format == FormatKind::Medline));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mixed_directory_loads_both_formats_and_skips_junk() {
        let dir = tmpdir("mixed");
        let pm = CorpusSpec::pubmed(16 * 1024, 1).generate();
        let tr = CorpusSpec::trec(16 * 1024, 2).generate();
        std::fs::write(dir.join("a-medline.txt"), &pm.sources[0].data).unwrap();
        std::fs::write(dir.join("b-trec.txt"), &tr.sources[0].data).unwrap();
        std::fs::write(dir.join("c-junk.txt"), b"not a corpus file at all").unwrap();
        std::fs::write(dir.join("d-binary.bin"), [0u8, 159, 146, 150]).unwrap();
        let loaded = load_dir(&dir).unwrap();
        assert_eq!(loaded.sources.len(), 2);
        assert_eq!(loaded.sources[0].format, FormatKind::Medline);
        assert_eq!(loaded.sources[1].format, FormatKind::TrecWeb);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn subdirectories_are_descended() {
        let dir = tmpdir("nested");
        let sub = dir.join("year2004");
        std::fs::create_dir_all(&sub).unwrap();
        let pm = CorpusSpec::pubmed(16 * 1024, 3).generate();
        std::fs::write(sub.join("part1.txt"), &pm.sources[0].data).unwrap();
        let loaded = load_dir(&dir).unwrap();
        assert_eq!(loaded.sources.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
