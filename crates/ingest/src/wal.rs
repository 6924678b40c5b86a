//! The write-ahead log: the durability point of incremental ingestion.
//!
//! Every mutation (a document batch, a set of deletes) is appended to
//! `wal.log` as one length-prefixed, CRC-covered record and fsynced
//! before the caller proceeds; an append that fails is cut back off the
//! file, so a failed write leaves no partial frame for later records to
//! land behind. One process writes a directory's log at a time.
//!
//! Replay starts at a watermark — the manifest's `wal_sealed_bytes`, the
//! end of the last record sealed into a segment — because every record
//! below it lives on in a CRC-checked segment and is never read again.
//! From there it stops at the first sign of a torn tail — a header that
//! does not fit, a length that runs past EOF, or a payload whose CRC32
//! disagrees — so a crash mid-write loses at most the record being
//! written, never an acknowledged one. Everything before the torn point
//! is the *durable prefix* and is recovered exactly.
//!
//! Record frame (all little-endian):
//!
//! ```text
//! [len: u32] [crc32(payload): u32] [payload: len bytes]
//! ```
//!
//! Payloads:
//!
//! ```text
//! tag 1 (AddBatch):  [1u8] [format: u8] [name_len: u32] [name] [source data]
//! tag 2 (Delete):    [2u8] [count: u32] [doc_id: u32 × count]
//! ```

use crate::bad;
use corpus::{FormatKind, Source};
use inspire_store::crc32;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// WAL file name inside an ingest directory.
pub const WAL_FILE: &str = "wal.log";

const TAG_ADD_BATCH: u8 = 1;
const TAG_DELETE: u8 = 2;

/// One durable mutation.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A batch of documents to index, carried as a whole corpus source.
    AddBatch(Source),
    /// Global document ids to tombstone.
    Delete(Vec<u32>),
}

fn format_to_u8(f: FormatKind) -> u8 {
    match f {
        FormatKind::Medline => 0,
        FormatKind::TrecWeb => 1,
        FormatKind::Message => 2,
    }
}

fn format_from_u8(v: u8) -> Option<FormatKind> {
    match v {
        0 => Some(FormatKind::Medline),
        1 => Some(FormatKind::TrecWeb),
        2 => Some(FormatKind::Message),
        _ => None,
    }
}

fn encode_payload(rec: &WalRecord) -> Vec<u8> {
    match rec {
        WalRecord::AddBatch(src) => {
            let mut out = Vec::with_capacity(10 + src.name.len() + src.data.len());
            out.push(TAG_ADD_BATCH);
            out.push(format_to_u8(src.format));
            out.extend_from_slice(&(src.name.len() as u32).to_le_bytes());
            out.extend_from_slice(src.name.as_bytes());
            out.extend_from_slice(&src.data);
            out
        }
        WalRecord::Delete(ids) => {
            let mut out = Vec::with_capacity(5 + ids.len() * 4);
            out.push(TAG_DELETE);
            out.extend_from_slice(&(ids.len() as u32).to_le_bytes());
            for id in ids {
                out.extend_from_slice(&id.to_le_bytes());
            }
            out
        }
    }
}

/// Decode a CRC-verified payload. Failure here is corruption the CRC
/// missed or a version skew — an error, not a torn tail.
fn decode_payload(path: &Path, payload: &[u8]) -> io::Result<WalRecord> {
    let tag = *payload
        .first()
        .ok_or_else(|| bad(path, "empty WAL payload".into()))?;
    match tag {
        TAG_ADD_BATCH => {
            if payload.len() < 6 {
                return Err(bad(path, "AddBatch payload shorter than its header".into()));
            }
            let format = format_from_u8(payload[1])
                .ok_or_else(|| bad(path, format!("unknown source format {}", payload[1])))?;
            let name_len = u32::from_le_bytes(payload[2..6].try_into().unwrap()) as usize;
            let data_at = 6 + name_len;
            if payload.len() < data_at {
                return Err(bad(path, "AddBatch name runs past the payload".into()));
            }
            let name = std::str::from_utf8(&payload[6..data_at])
                .map_err(|_| bad(path, "AddBatch source name is not UTF-8".into()))?
                .to_string();
            let data = payload[data_at..].to_vec();
            if std::str::from_utf8(&data).is_err() {
                return Err(bad(path, format!("AddBatch `{name}` data is not UTF-8")));
            }
            Ok(WalRecord::AddBatch(Source { name, data, format }))
        }
        TAG_DELETE => {
            if payload.len() < 5 {
                return Err(bad(path, "Delete payload shorter than its header".into()));
            }
            let count = u32::from_le_bytes(payload[1..5].try_into().unwrap()) as usize;
            if payload.len() != 5 + count * 4 {
                return Err(bad(
                    path,
                    format!("Delete payload length {} for {count} ids", payload.len()),
                ));
            }
            let ids = payload[5..]
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
                .collect();
            Ok(WalRecord::Delete(ids))
        }
        other => Err(bad(path, format!("unknown WAL record tag {other}"))),
    }
}

/// A replayed log tail: the durable records past a watermark plus how
/// much of the file (if anything) was a torn tail.
#[derive(Debug)]
pub struct WalReplay {
    /// `(end_offset, record)` for each durable record past the
    /// watermark, in append order. `end_offset` is the file offset one
    /// past the record's last byte — the manifest's `wal_sealed_bytes`
    /// watermark compares against it.
    pub records: Vec<(u64, WalRecord)>,
    /// File length of the durable prefix.
    pub durable_bytes: u64,
    /// Bytes past the durable prefix (0 for a clean log).
    pub torn_bytes: u64,
}

/// Append-only handle on a WAL file. Stateless between calls: every
/// append re-opens in append mode, writes one whole record, and fsyncs,
/// so a crashed writer never leaves the file in a state replay cannot
/// classify.
#[derive(Debug, Clone)]
pub struct Wal {
    path: PathBuf,
}

impl Wal {
    pub fn new(path: PathBuf) -> Wal {
        Wal { path }
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Current file length (0 if the log does not exist yet).
    pub fn len(&self) -> io::Result<u64> {
        match std::fs::metadata(&self.path) {
            Ok(m) => Ok(m.len()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(0),
            Err(e) => Err(e),
        }
    }

    pub fn is_empty(&self) -> io::Result<bool> {
        Ok(self.len()? == 0)
    }

    /// Append one record and fsync. Returns the file length after the
    /// append — the record's durable end offset. On failure the file is
    /// cut back to its length before the append (best-effort) and the
    /// original error returned.
    pub fn append(&self, rec: &WalRecord) -> io::Result<u64> {
        let payload = encode_payload(rec);
        let mut frame = Vec::with_capacity(8 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        let mut f = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        let before = f.metadata()?.len();
        let mut appended = f.write_all(&frame).and_then(|()| f.sync_all());
        if appended.is_ok() && before == 0 {
            // This append may have created the log: its directory entry
            // must be as durable as the record.
            let dir = self.path.parent().filter(|p| !p.as_os_str().is_empty());
            appended = File::open(dir.unwrap_or(Path::new("."))).and_then(|d| d.sync_all());
        }
        if let Err(e) = appended {
            let _ = f.set_len(before).and_then(|()| f.sync_all());
            return Err(e);
        }
        Ok(before + frame.len() as u64)
    }

    /// Decode the durable records past `watermark` (a record end offset,
    /// the manifest's `wal_sealed_bytes`) and classify any torn tail.
    /// Offsets in the result are absolute. A log shorter than the
    /// watermark has lost sealed bytes and is refused; a missing log is
    /// empty, which only watermark 0 accepts.
    pub fn replay_after(&self, watermark: u64) -> io::Result<WalReplay> {
        let len = self.len()?;
        if len < watermark {
            return Err(bad(
                &self.path,
                format!("{len} bytes, shorter than the {watermark} bytes already sealed"),
            ));
        }
        let mut tail = Vec::new();
        if len > watermark {
            let mut f = File::open(&self.path)?;
            f.seek(SeekFrom::Start(watermark))?;
            f.read_to_end(&mut tail)?;
        }
        let mut records = Vec::new();
        let mut at = 0usize;
        loop {
            if tail.len() - at < 8 {
                break; // header torn off (or clean EOF when at == len)
            }
            let len = u32::from_le_bytes(tail[at..at + 4].try_into().unwrap()) as usize;
            let crc = u32::from_le_bytes(tail[at + 4..at + 8].try_into().unwrap());
            let Some(end) = at.checked_add(8).and_then(|v| v.checked_add(len)) else {
                break;
            };
            if end > tail.len() {
                break; // payload torn off
            }
            let payload = &tail[at + 8..end];
            if crc32(payload) != crc {
                break; // payload half-written when the header landed
            }
            records.push((watermark + end as u64, decode_payload(&self.path, payload)?));
            at = end;
        }
        Ok(WalReplay {
            records,
            durable_bytes: watermark + at as u64,
            torn_bytes: (tail.len() - at) as u64,
        })
    }

    /// Discard everything past `durable_bytes` (the torn tail found by
    /// [`Wal::replay_after`]). No-op when the file is already that short.
    pub fn truncate_to(&self, durable_bytes: u64) -> io::Result<()> {
        if self.len()? <= durable_bytes {
            return Ok(());
        }
        let f = OpenOptions::new().write(true).open(&self.path)?;
        f.set_len(durable_bytes)?;
        f.sync_all()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(name: &str, text: &str) -> WalRecord {
        WalRecord::AddBatch(Source {
            name: name.to_string(),
            data: text.as_bytes().to_vec(),
            format: FormatKind::Medline,
        })
    }

    #[test]
    fn roundtrip_and_torn_tail_at_every_byte() {
        let dir = std::env::temp_dir().join(format!("wal_rt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let wal = Wal::new(dir.join(WAL_FILE));
        let recs = vec![
            batch("a.txt", "TI  - alpha\nAB  - one two\n"),
            WalRecord::Delete(vec![3, 9, 11]),
            batch("b.txt", "TI  - beta\nAB  - three four five\n"),
        ];
        let mut ends = Vec::new();
        for r in &recs {
            ends.push(wal.append(r).unwrap());
        }
        let full = std::fs::read(wal.path()).unwrap();
        let replay = wal.replay_after(0).unwrap();
        assert_eq!(replay.durable_bytes, full.len() as u64);
        assert_eq!(replay.torn_bytes, 0);
        assert_eq!(replay.records.len(), 3);
        for (i, (end, rec)) in replay.records.iter().enumerate() {
            assert_eq!(*end, ends[i]);
            assert_eq!(rec, &recs[i]);
        }

        // Truncate at every byte: replay must recover exactly the
        // records whose frames fit entirely below the cut.
        let torn = Wal::new(dir.join("torn.log"));
        for cut in 0..=full.len() {
            std::fs::write(torn.path(), &full[..cut]).unwrap();
            let r = torn.replay_after(0).unwrap();
            let durable = ends.iter().filter(|&&e| e <= cut as u64).count();
            assert_eq!(r.records.len(), durable, "cut at {cut}");
            let expect_durable = if durable == 0 { 0 } else { ends[durable - 1] };
            assert_eq!(r.durable_bytes, expect_durable, "cut at {cut}");
            assert_eq!(r.torn_bytes, cut as u64 - expect_durable, "cut at {cut}");
            torn.truncate_to(r.durable_bytes).unwrap();
            assert_eq!(torn.len().unwrap(), r.durable_bytes);
        }

        // From every record boundary, replay reads only the records past
        // it, at their absolute end offsets, tolerating a torn tail.
        for (k, &watermark) in [0].iter().chain(&ends).enumerate() {
            let r = wal.replay_after(watermark).unwrap();
            assert_eq!(r.records.len(), 3 - k, "watermark {watermark}");
            for ((end, rec), i) in r.records.iter().zip(k..) {
                assert_eq!((*end, rec), (ends[i], &recs[i]));
            }
            assert_eq!((r.durable_bytes, r.torn_bytes), (full.len() as u64, 0));
        }
        std::fs::write(torn.path(), &full[..full.len() - 3]).unwrap();
        let r = torn.replay_after(ends[1]).unwrap();
        assert_eq!(r.records.len(), 0, "last frame is torn");
        assert_eq!(r.durable_bytes, ends[1]);
        assert_eq!(r.torn_bytes, full.len() as u64 - 3 - ends[1]);

        // A flipped payload byte is a torn tail (CRC catches it), and
        // everything before the flip survives.
        let mut flipped = full.clone();
        let in_last = ends[1] as usize + 9;
        flipped[in_last] ^= 0x40;
        std::fs::write(torn.path(), &flipped).unwrap();
        let r = torn.replay_after(0).unwrap();
        assert_eq!(r.records.len(), 2);
        assert_eq!(r.durable_bytes, ends[1]);

        // Below the watermark nothing is read: a flip inside a sealed
        // record cannot cost the records past it.
        let mut flipped = full.clone();
        flipped[9] ^= 0x40;
        std::fs::write(torn.path(), &flipped).unwrap();
        let r = torn.replay_after(ends[0]).unwrap();
        assert_eq!(r.records.len(), 2);
        assert_eq!((r.durable_bytes, r.torn_bytes), (full.len() as u64, 0));

        // A log shorter than the watermark is refused by name; a missing
        // one is empty only at watermark 0.
        let err = torn.replay_after(full.len() as u64 + 1).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let msg = err.to_string();
        let lengths = [full.len(), full.len() + 1].map(|n| format!(" {n} bytes"));
        assert!(msg.contains("torn.log"), "{msg}");
        assert!(lengths.iter().all(|l| msg.contains(l.as_str())), "{msg}");
        let missing = Wal::new(dir.join("missing.log"));
        assert_eq!(missing.replay_after(0).unwrap().durable_bytes, 0);
        assert!(missing.replay_after(ends[0]).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
