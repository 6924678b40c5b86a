//! Offline conversion of engine snapshots written by earlier releases
//! (`vaengine migrate --in <old.isnap> --out <new.isnap>`).
//!
//! Two layouts are no longer read at run time and are rewritten here
//! instead: the fixed-width index of format-v1 files (`postoff` i64 per
//! term + 1, `postdat` u64 per posting, `df` u32 and `tf` u64 per term),
//! and Final-stage files that predate the similarity-search sections
//! (§13). Every other section is copied through verbatim, in file order,
//! so migrating a current snapshot reproduces it byte for byte.

use crate::postings::{bad, encode_index_sections};
use crate::snapshot::{write_ann_sections, write_index_sections, EngineMeta, EngineSnapshot};
use inspire_store::{Snapshot, SnapshotWriter};
use std::io;
use std::path::Path;

/// The fixed-width index sections, in the order format v1 wrote them.
const FIXED_WIDTH_INDEX: [&str; 4] = ["postoff", "postdat", "df", "tf"];

/// What [`migrate`] rewrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrateReport {
    /// The fixed-width index was re-encoded into the compressed sections.
    pub reencoded_index: bool,
    /// The similarity-search sections were built and appended.
    pub added_ann: bool,
    /// Size of the written file.
    pub bytes: u64,
}

/// Re-encode `snap`'s fixed-width index and append it to `w`. Sizes are
/// checked first: the encoder indexes by them.
fn reencode_index(snap: &Snapshot, vocab: usize, w: &mut SnapshotWriter) -> io::Result<()> {
    let postoff = snap.require("postoff")?.as_i64s()?;
    let postdat = snap.require("postdat")?.as_u64s()?;
    let df = snap.require("df")?.as_u32s()?;
    let tf = snap.require("tf")?.as_u64s()?;
    let tiles = postoff.first() == Some(&0)
        && postoff.windows(2).all(|w| w[0] <= w[1])
        && postoff.last() == Some(&(postdat.len() as i64));
    if postoff.len() != vocab + 1 || !tiles || df.len() != vocab || tf.len() != vocab {
        return Err(bad(
            snap,
            format!(
                "fixed-width index does not describe {vocab} terms over {} postings",
                postdat.len()
            ),
        ));
    }
    write_index_sections(w, &encode_index_sections(postoff, postdat, df, tf))
}

/// Build the similarity-search sections from `snap`'s own signatures,
/// assignments and cluster count, and append them to `w`.
fn append_ann(snap: &Snapshot, meta: &EngineMeta, w: &mut SnapshotWriter) -> io::Result<()> {
    let sigs = snap.require("sigs")?.as_f64s()?;
    let assign = snap.require("assign")?.as_u32s()?;
    let docs = meta.total_docs as usize;
    if Some(sigs.len()) != docs.checked_mul(meta.m_dims)
        || assign.len() != docs
        || assign.iter().any(|&a| a as usize >= meta.k)
    {
        return Err(bad(
            snap,
            format!(
                "signatures/assignments do not describe {docs} documents × {} dimensions in {} clusters",
                meta.m_dims, meta.k
            ),
        ));
    }
    write_ann_sections(w, sigs, meta.m_dims, assign, meta.k)
}

/// Convert `input` to the current layout at `output` (tmp + rename, so a
/// failed run leaves nothing behind). The result is opened as an
/// [`EngineSnapshot`] before it is published.
pub fn migrate(input: &Path, output: &Path) -> io::Result<MigrateReport> {
    let snap = Snapshot::open(input)?;
    let meta = EngineMeta::parse(&snap)?;
    let reencoded_index = snap.has("postoff");
    let added_ann = meta.wants_ann() && !snap.has("qsig");

    let tmp = output.with_extension("isnap.tmp");
    let written: io::Result<u64> = (|| {
        let mut w = SnapshotWriter::create(&tmp)?;
        for (name, kind, _) in snap.sections() {
            if name == "postoff" {
                reencode_index(&snap, meta.vocab_size, &mut w)?;
            } else if !(reencoded_index && FIXED_WIDTH_INDEX.contains(&name)) {
                w.add_section(name, kind, snap.require(name)?.bytes())?;
            }
        }
        if added_ann {
            append_ann(&snap, &meta, &mut w)?;
        }
        let bytes = w.finish()?.total_bytes;
        EngineSnapshot::open(&tmp)?;
        std::fs::rename(&tmp, output)?;
        Ok(bytes)
    })();
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    Ok(MigrateReport {
        reencoded_index,
        added_ann,
        bytes: written?,
    })
}
