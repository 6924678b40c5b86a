//! Offline conversion of engine snapshots written by earlier releases
//! (`vaengine migrate --in <old.isnap> --out <new.isnap>`).
//!
//! Two layouts are no longer read at run time and are rewritten here
//! instead: the fixed-width index of format-v1 files (the schema's
//! [`RETIRED_INDEX`] rows), and Final-stage files that predate the
//! similarity-search sections (§13). Every other section is copied
//! through verbatim, in file order, so migrating a current snapshot
//! reproduces it byte for byte.

use crate::postings::{bad, encode_index_sections, write_index_sections};
use crate::snapshot::schema::{self, ASSIGN, DF, POSTDAT, POSTOFF, QSIG, RETIRED_INDEX, SIGS, TF};
use crate::snapshot::{write_ann_sections, EngineMeta, EngineSnapshot};
use inspire_store::{publish, Snapshot, SnapshotWriter};
use std::io;
use std::path::Path;

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

/// Re-encode `snap`'s fixed-width index and append it to `w`. The
/// encoder indexes by the sizes the schema's rows fix, so those are held
/// first.
fn reencode_index(snap: &Snapshot, meta: &EngineMeta, w: &mut SnapshotWriter) -> io::Result<()> {
    schema::check(snap, &RETIRED_INDEX, meta)?;
    let postoff = snap.require(POSTOFF.name)?.as_i64s()?;
    let postdat = snap.require(POSTDAT.name)?.as_u64s()?;
    let df = snap.require(DF.name)?.as_u32s()?;
    let tf = snap.require(TF.name)?.as_u64s()?;
    write_index_sections(w, &encode_index_sections(postoff, postdat, df, tf))
}

/// Build the similarity-search sections from `snap`'s own signatures,
/// assignments and cluster count, and append them to `w`.
fn append_ann(snap: &Snapshot, meta: &EngineMeta, w: &mut SnapshotWriter) -> io::Result<()> {
    schema::check(snap, &[&SIGS, &ASSIGN], meta)?;
    let sigs = snap.require(SIGS.name)?.as_f64s()?;
    let assign = snap.require(ASSIGN.name)?.as_u32s()?;
    if let Some(a) = assign.iter().find(|&&a| a as usize >= meta.k) {
        return Err(bad(
            snap,
            format!("section `assign` names cluster {a} of {}", meta.k),
        ));
    }
    write_ann_sections(w, sigs, meta.m_dims, assign, meta.k)
}

/// Convert `input` to the current layout at `output` (through
/// [`publish`], so a failed run leaves nothing behind). The result is
/// opened as an [`EngineSnapshot`] before it is published.
pub fn migrate(input: &Path, output: &Path) -> io::Result<MigrateReport> {
    let snap = Snapshot::open(input)?;
    let meta = EngineMeta::parse(&snap)?;
    let reencoded_index = snap.has(POSTOFF.name);
    let added_ann = meta.wants_ann() && !snap.has(QSIG.name);

    let bytes = publish(output, |tmp| {
        let mut w = SnapshotWriter::create(tmp)?;
        for (name, kind, _) in snap.sections() {
            if name == POSTOFF.name {
                reencode_index(&snap, &meta, &mut w)?;
            } else if !(reencoded_index && RETIRED_INDEX.iter().any(|r| r.name == name)) {
                w.add_section(name, kind, snap.require(name)?.bytes())?;
            }
        }
        if added_ann {
            append_ann(&snap, &meta, &mut w)?;
        }
        let bytes = w.finish()?.total_bytes;
        EngineSnapshot::open(tmp)?;
        Ok(bytes)
    })?;
    Ok(MigrateReport {
        reencoded_index,
        added_ann,
        bytes,
    })
}
