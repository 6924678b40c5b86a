//! Serving an ingest directory: the manifest's base snapshot and
//! segments, opened and checked against the manifest, become the
//! components of one [`ServeState`] (see [`crate::state`] for the
//! merge-on-read rules).

use crate::state::ServeState;
use inspire_core::EngineSnapshot;
use inspire_ingest::{Manifest, Segment};
use std::io;
use std::path::Path;

fn bad(dir: &Path, msg: String) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("{}: {msg}", dir.display()),
    )
}

/// Build a serving state over an ingest directory: base snapshot plus
/// every manifest-listed segment, merged at read time. The base is
/// required — merge-on-read unions postings with it — and must carry an
/// inverted index.
pub fn load_live_state(dir: &Path) -> io::Result<ServeState> {
    let manifest = Manifest::load(dir)?
        .ok_or_else(|| bad(dir, "not an ingest directory (no manifest)".into()))?;
    let base_path = manifest
        .base
        .clone()
        .ok_or_else(|| bad(dir, "live serving requires a base snapshot".into()))?;
    let base = EngineSnapshot::open(&base_path)?;
    if base.index().is_none() {
        return Err(bad(
            dir,
            format!(
                "base snapshot {} predates the Index stage; cannot merge postings",
                base_path.display()
            ),
        ));
    }
    if base.meta().total_docs != manifest.base_docs {
        return Err(bad(
            dir,
            format!(
                "manifest says the base has {} documents, snapshot has {}",
                manifest.base_docs,
                base.meta().total_docs
            ),
        ));
    }
    let segments: Vec<Segment> = manifest
        .segments
        .iter()
        .map(|s| Segment::open(&dir.join(&s.file)))
        .collect::<io::Result<_>>()?;
    for (r, seg) in manifest.segments.iter().zip(&segments) {
        if seg.doc_base() != r.doc_base || seg.doc_count() != r.doc_count {
            return Err(bad(
                dir,
                format!(
                    "segment {} covers docs [{}, {}) but the manifest says [{}, {})",
                    r.file,
                    seg.doc_base(),
                    seg.doc_end(),
                    r.doc_base,
                    r.doc_base + r.doc_count
                ),
            ));
        }
    }

    let mut state = ServeState::over(base, segments)?;
    state.generation = manifest.generation;
    state.last_seal_unix = manifest.last_seal_unix;
    state.ingest_dir = Some(dir.to_path_buf());
    Ok(state)
}
