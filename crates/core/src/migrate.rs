//! Offline conversion of engine snapshots written by the previous
//! release (`vaengine migrate --in <old.isnap> --out <new.isnap>`).
//!
//! `migrate` converts one layout only, the one immediately before the
//! current one: files past the Scan stage written while every stage
//! kept the forward index (`fwdoff`/`fwddat`, now Scan-only rows). They
//! open as they are, because `schema::check` ignores sections it has no
//! row for; migrating drops the two sections, about half of such a
//! file. Every other section is copied through verbatim, in file order,
//! so migrating a current snapshot reproduces it byte for byte. Older
//! layouts are refused at open and not converted.

use crate::snapshot::schema::{ENGINE, FWDDAT};
use crate::snapshot::{EngineMeta, EngineSnapshot};
use inspire_store::{publish, Snapshot, SnapshotWriter};
use std::io;
use std::path::Path;

/// What [`migrate`] rewrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrateReport {
    /// The forward index of a file past the Scan stage was dropped.
    pub stripped_forward: bool,
    /// Size of the written file.
    pub bytes: u64,
}

/// Convert `input` to the current layout at `output` (through
/// [`publish`], so a failed run leaves nothing behind). The result is
/// opened as an [`EngineSnapshot`] before it is published.
pub fn migrate(input: &Path, output: &Path) -> io::Result<MigrateReport> {
    let snap = Snapshot::open(input)?;
    let meta = EngineMeta::parse(&snap)?;
    let stripped_forward = !FWDDAT.carried_at(meta.stage) && snap.has(FWDDAT.name);
    // Rows whose last stage the file is past.
    let dropped = |name: &str| {
        ENGINE
            .iter()
            .any(|r| r.name == name && !r.carried_at(meta.stage))
    };

    let bytes = publish(output, |tmp| {
        let mut w = SnapshotWriter::create(tmp)?;
        for (name, kind, _) in snap.sections().filter(|(name, ..)| !dropped(name)) {
            w.add_section(name, kind, snap.require(name)?.bytes())?;
        }
        let bytes = w.finish()?.total_bytes;
        EngineSnapshot::open(tmp)?;
        Ok(bytes)
    })?;
    Ok(MigrateReport {
        stripped_forward,
        bytes,
    })
}
