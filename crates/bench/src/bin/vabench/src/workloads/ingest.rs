//! `ingest_live`: writes beside reads. One operation is one batch made
//! visible: `IngestDir::append` (WAL fsync → seal → manifest flip) →
//! `load_live_state` → `Server::swap_state` → an HTTP `/term` probe for
//! the batch's unique sentinel token, timed from the `append` call to the
//! sentinel showing in a served body. A reader thread issues cold
//! `/search` requests against the same server the whole time.

use super::build::snapshot_sizes;
use super::{p50, Job, Outcome};
use crate::fixture::{Fixture, Sizing};
use crate::load::{self, TIMEOUT};
use crate::requests::{self, lane, Req};
use crate::spans::{step, Recorder};
use crate::stats::{percentile_sorted, sorted, supported_percentile, Rng};
use corpus::{CorpusSpec, Source};
use inspire_ingest::{IngestDir, MANIFEST_FILE, WAL_FILE};
use inspire_serve::{execute, http, load_live_state, ServeState, Server};
use std::io;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Bytes per live batch, and per source file of the corpus they are
/// cut from.
const BATCH_BYTES: u64 = 16 * 1024;
/// Base corpora have at most this many source files (`CorpusSpec`
/// frames a corpus as 256 files). Live batches are the sources *after*
/// these of the same seeded stream, so they share the base's vocabulary
/// and themes but repeat none of its documents.
const BASE_SOURCES: usize = 256;
/// Every this many batches, four earlier sentinel documents are deleted.
const DELETE_EVERY: usize = 8;
const DELETES: usize = 4;
/// Batches ingested however short the run is; a multiple of
/// [`DELETE_EVERY`], so the deletes among them always happen too.
const MIN_BATCHES: usize = 16;
/// Distinct cold searches the reader cycles through.
const READER_REQUESTS: usize = 2048;
/// Reader requests re-checked byte for byte once ingest has ended.
const READER_RECHECK: usize = 100;
/// In-process searches compared before and after the first compaction.
const SEGMENT_SEARCHES: usize = 200;

pub struct Batch {
    pub source: Source,
    pub sentinel: String,
}

/// The token only batch `i` contains.
pub fn sentinel(i: usize) -> String {
    format!("vbsentinel{i:05}")
}

/// Put `token` at the head of the first abstract in `source`, so the
/// batch's first document — and no other document anywhere — holds it.
pub fn inject_sentinel(source: &mut Source, token: &str) {
    const TAG: &[u8] = b"AB  - ";
    let at = source
        .data
        .windows(TAG.len())
        .position(|w| w == TAG)
        .expect("a MEDLINE batch has an abstract")
        + TAG.len();
    let mut word = token.as_bytes().to_vec();
    word.push(b' ');
    source.data.splice(at..at, word);
}

/// The seeded live batches, sentinels injected.
pub fn live_batches(sizing: &Sizing, seed: u64) -> Vec<Batch> {
    let spec = CorpusSpec {
        source_bytes: BATCH_BYTES,
        ..CorpusSpec::pubmed(
            (BASE_SOURCES + sizing.ingest_batches) as u64 * BATCH_BYTES,
            seed,
        )
    };
    let sources = spec.generate().sources;
    sources
        .into_iter()
        .skip(BASE_SOURCES)
        .enumerate()
        .map(|(i, mut source)| {
            let sentinel = sentinel(i);
            inject_sentinel(&mut source, &sentinel);
            Batch { source, sentinel }
        })
        .collect()
}

fn term_probe(token: &str) -> Req {
    Req::new(format!("/term?t={token}&top=10"), "")
}

/// The writer's view of the live system.
struct Writer<'a> {
    job: &'a Job,
    live_dir: &'a Path,
    server: &'a Server,
    addr: SocketAddr,
    rec: Option<Recorder>,
    out: Outcome,
}

impl Writer<'_> {
    /// Reload the merged view and hot-swap it into the server.
    fn flip(&mut self, id: u64) -> io::Result<Arc<ServeState>> {
        let dir = self.live_dir;
        let state = Arc::new(step(&mut self.rec, "serve.live.load", id, || {
            load_live_state(dir)
        })?);
        let (server, next) = (self.server, Arc::clone(&state));
        step(&mut self.rec, "serve.server.swap", id, || {
            server.swap_state(next)
        });
        Ok(state)
    }

    /// Ask the server for `token` until its body is what `state` answers
    /// in process and shows `postings` occurrences. One attempted
    /// operation; failed when the server never gets there. Returns the
    /// oracle body.
    fn probe(
        &mut self,
        id: u64,
        state: &ServeState,
        token: &str,
        postings: usize,
    ) -> io::Result<String> {
        let req = term_probe(token);
        let want = execute(state, &req.parsed).map_err(|e| {
            io::Error::other(format!("oracle refused {}: {}", req.target, e.message))
        })?;
        self.out.attempted += 1;
        let addr = self.addr;
        // A swap is atomic, so the first probe should already see it;
        // the retries only bound how long a broken server is waited for.
        let tries = if want.contains(&format!("\"postings\":{postings},")) {
            100
        } else {
            0
        };
        for _ in 0..tries {
            let got = step(&mut self.rec, "serve.live.probe", id, || {
                http::get(addr, &req.target, TIMEOUT)
            });
            if got.is_ok_and(|r| r.status == 200 && r.body == want) {
                return Ok(want);
            }
        }
        self.out.failed += 1;
        eprintln!("vabench: {token} never showed {postings} posting(s) in a served body");
        Ok(want)
    }
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// `(wal, segments, manifest)` bytes the live directory holds.
fn disk_bytes(ing: &IngestDir) -> (u64, u64, u64) {
    let dir = ing.dir();
    let segments = ing
        .manifest()
        .segments
        .iter()
        .map(|s| file_len(&dir.join(&s.file)))
        .sum();
    (
        file_len(&dir.join(WAL_FILE)),
        segments,
        file_len(&dir.join(MANIFEST_FILE)),
    )
}

/// The reader: closed-loop cold searches until `stop`. While ingest
/// runs the right answer depends on the generation that served it, so a
/// read is checked for status and shape here and byte for byte in the
/// re-check after ingest has ended.
fn read_until(stop: &AtomicBool, addr: SocketAddr, reqs: &[Req]) -> (Vec<f64>, u64) {
    let (mut ms, mut failed) = (Vec::new(), 0u64);
    for r in reqs.iter().cycle() {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let t0 = Instant::now();
        let resp = http::get(addr, &r.target, TIMEOUT);
        let took = t0.elapsed().as_secs_f64() * 1e3;
        match resp {
            Ok(r) if r.status == 200 && r.body.starts_with("{\"kind\":\"search\"") => ms.push(took),
            _ => failed += 1,
        }
    }
    (ms, failed)
}

/// The workload's seeded inputs: the live batches and the reader's
/// request list. Set-up generates them too (and drops them), so their
/// cost is part of `setup_s`.
pub fn inputs(fx: &Fixture, sizing: &Sizing, seed: u64) -> (Vec<Batch>, Vec<Req>) {
    (
        live_batches(sizing, seed),
        requests::reader(fx, Rng::new(seed, lane::READER), READER_REQUESTS),
    )
}

pub fn run(job: &Job) -> io::Result<Outcome> {
    let fx = Fixture::open(&job.dir)?;
    let (batches, reader_reqs) = inputs(&fx, &job.sizing, job.seed);
    let live_dir = job.dir.join("live");
    if live_dir.exists() {
        std::fs::remove_dir_all(&live_dir)?;
    }
    let mut ing = IngestDir::create(&live_dir, Some(&fx.snapshot_path))?;
    let server = load::start_server(Arc::clone(&fx.state))?;
    let mut w = Writer {
        job,
        live_dir: &live_dir,
        server: &server,
        addr: server.local_addr(),
        rec: job.recorder(),
        out: Outcome::default(),
    };

    let stop = AtomicBool::new(false);
    let addr = w.addr;
    let (ingested, reads) = std::thread::scope(|s| {
        let reader = s.spawn(|| read_until(&stop, addr, &reader_reqs));
        let ingested = ingest_phase(&mut w, &mut ing, &batches, &fx);
        stop.store(true, Ordering::Relaxed);
        (ingested, reader.join().expect("reader thread panicked"))
    });
    let mut ingested = ingested?;
    let (read_ms, read_failed) = reads;
    w.out.attempted += read_ms.len() as u64 + read_failed;
    w.out.failed += read_failed;
    let read_ms = sorted(read_ms);

    // Disk cost is sampled just before the first compaction — a fixed
    // batch count, so the ratio repeats exactly — or, in a run too short
    // to reach one, before the final compaction folds it away.
    let (on_disk, input_bytes) = ingested
        .disk_sample
        .unwrap_or((disk_bytes(&ing), ingested.input_bytes));
    let (wal, segments, manifest) = on_disk;
    w.out.disk_ratio = (wal + segments + manifest) as f64 / input_bytes as f64;
    let t0 = Instant::now();
    let last = step(&mut w.rec, "ingest.compact", u64::MAX, || ing.compact())?;
    ingested.compact_s.push(t0.elapsed().as_secs_f64());
    ingested.compact_bytes += last.map_or(0, |r| r.bytes_written);
    w.flip(u64::MAX)?;

    // Restart: acknowledged writes and deletes must survive a reopen.
    drop(ing);
    let t0 = Instant::now();
    let reopened = IngestDir::open(&live_dir)?;
    let recovery_open_ms = t0.elapsed().as_secs_f64() * 1e3;
    if reopened.recovery.sealed_records != 0 || reopened.recovery.torn_bytes != 0 {
        w.out.problem(format!(
            "a clean shutdown needed recovery: {:?}",
            reopened.recovery
        ));
    }
    let recovered = w.flip(u64::MAX)?;
    // The answers digest covers the sentinels every run ingests (and
    // whose deletes every run reaches), so it repeats for a seed however
    // many batches the timed phase fitted.
    let mut digest = Vec::new();
    for (i, b) in batches.iter().take(ingested.batches).enumerate() {
        let postings = usize::from(!ingested.deleted.contains(&i));
        let body = w.probe(u64::MAX, &recovered, &b.sentinel, postings)?;
        if i < MIN_BATCHES {
            digest.push(body);
        }
    }
    // The generation is fixed now, so reads have one right answer again.
    let recheck = &reader_reqs[..READER_RECHECK];
    let oracle = load::oracle_bodies(&recovered, recheck)?;
    let order: Vec<u32> = (0..READER_RECHECK as u32).collect();
    let checked = load::closed_loop(
        w.addr,
        recheck,
        &oracle,
        &order,
        load::Stop::Count(READER_RECHECK),
        None,
    );
    w.out.attempted += checked.samples.len() as u64;
    w.out.failed += checked.failed();
    let Writer { mut out, rec, .. } = w;
    server.shutdown();
    out.ops = ingested.docs as f64;
    out.wall_s = ingested.wall_s;
    out.op_ms = sorted(ingested.ttv_ms);
    out.info.push((
        "answers_crc32",
        format!("{:08x}", load::answers_crc32(&digest)),
    ));
    out.info
        .push(("requests_crc32", format!("{:08x}", batches_crc32(&batches))));
    out.info.push(("batches", ingested.batches.to_string()));

    if let Some(rec) = rec {
        let ms = |name: &str| p50(rec.durations_ns(name)) / 1e6;
        let l = &mut out.layers;
        l.set("client.ttv_p50_ms", percentile_sorted(&out.op_ms, 50.0));
        l.set(
            "client.ttv_p90_ms",
            percentile_sorted(&out.op_ms, supported_percentile(out.op_ms.len())),
        );
        l.set("client.read_p50_ms", percentile_sorted(&read_ms, 50.0));
        l.set("ingest.wal.append_ms", p50(ingested.wal_ms));
        l.set("ingest.seal_ms", p50(ingested.seal_ms));
        l.set("serve.live.load_ms", ms("serve.live.load"));
        l.set("serve.live.load_ms_at_1seg", ingested.load_ms_first);
        l.set("serve.live.load_ms_at_64seg", ingested.load_ms_full);
        l.set("serve.server.swap_us", ms("serve.server.swap") * 1e3);
        l.set("serve.live.probe_ms", ms("serve.live.probe"));
        l.set("ingest.compact_s", p50(ingested.compact_s));
        l.set(
            "ingest.compact_bytes_rewritten",
            ingested.compact_bytes as f64,
        );
        l.set("ingest.segments_open_max", ingested.segments_max as f64);
        l.set("ingest.wal_bytes", wal as f64);
        l.set("ingest.segment_bytes", segments as f64);
        l.set("ingest.manifest_bytes", manifest as f64);
        l.set("ingest.tombstones", ingested.deleted.len() as f64);
        l.set("serve.live.search_us_at_64seg", ingested.search_us_full);
        l.set(
            "serve.live.search_us_compacted",
            ingested.search_us_compacted,
        );
        l.set("ingest.recovery_open_ms", recovery_open_ms);
        snapshot_sizes(l, &fx);
        out.lanes.push(("writer".to_string(), rec));
    }
    Ok(out)
}

/// What the ingest phase did, for the metrics.
#[derive(Default)]
struct Ingested {
    batches: usize,
    docs: u64,
    input_bytes: u64,
    wall_s: f64,
    ttv_ms: Vec<f64>,
    wal_ms: Vec<f64>,
    seal_ms: Vec<f64>,
    /// Batch indices whose sentinel document was deleted.
    deleted: Vec<usize>,
    compact_s: Vec<f64>,
    compact_bytes: u64,
    /// `(wal, segments, manifest)` bytes on disk and input bytes so far,
    /// taken just before the first compaction.
    disk_sample: Option<((u64, u64, u64), u64)>,
    segments_max: usize,
    load_ms_first: f64,
    /// Live-state load and in-process search cost with every segment
    /// since the last compaction open, then right after compacting.
    load_ms_full: f64,
    search_us_full: f64,
    search_us_compacted: f64,
}

/// p50 microseconds of `reqs` executed in process against `state`.
fn search_us(state: &ServeState, reqs: &[Req]) -> f64 {
    p50(reqs
        .iter()
        .map(|r| {
            let t0 = Instant::now();
            std::hint::black_box(execute(state, &r.parsed).is_ok());
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect())
}

fn ingest_phase(
    w: &mut Writer,
    ing: &mut IngestDir,
    batches: &[Batch],
    fx: &Fixture,
) -> io::Result<Ingested> {
    let mut done = Ingested::default();
    let job = w.job;
    let searches = requests::reader(fx, Rng::new(job.seed, lane::SAMPLE), SEGMENT_SEARCHES);
    let mut first_doc = Vec::new();
    let started = Instant::now();
    for (i, batch) in batches.iter().enumerate() {
        if i >= MIN_BATCHES && started.elapsed() >= job.timed() {
            break;
        }
        let id = i as u64;
        first_doc.push(ing.total_docs());
        let t0 = Instant::now();
        let source = batch.source.clone();
        let stats = step(&mut w.rec, "ingest.append", id, || ing.append(source))?;
        let state = w.flip(id)?;
        w.probe(id, &state, &batch.sentinel, 1)?;
        done.ttv_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        done.wal_ms.push(stats.wal_s * 1e3);
        done.seal_ms.push(stats.seal_s * 1e3);
        done.docs += stats.docs as u64;
        done.input_bytes += batch.source.data.len() as u64;
        done.batches = i + 1;
        done.segments_max = done.segments_max.max(state.segments_open());
        if i == 0 {
            done.load_ms_first = last_ms(&w.rec, "serve.live.load");
        }

        if (i + 1) % DELETE_EVERY == 0 {
            // Delete the sentinel documents of four earlier batches.
            let victims: Vec<usize> =
                (i + 1 - DELETE_EVERY..i + 1 - DELETE_EVERY + DELETES).collect();
            let ids = victims.iter().map(|&v| first_doc[v]).collect();
            step(&mut w.rec, "ingest.delete", id, || ing.delete(ids))?;
            let state = w.flip(id)?;
            w.probe(id, &state, &batches[victims[0]].sentinel, 0)?;
            done.segments_max = done.segments_max.max(state.segments_open());
            done.deleted.extend(victims);
        }

        if (i + 1) % job.sizing.compact_every == 0 {
            let first = done.compact_s.is_empty();
            if first {
                done.disk_sample = Some((disk_bytes(ing), done.input_bytes));
            }
            if first && job.traced {
                let full = w.flip(id)?;
                done.load_ms_full = last_ms(&w.rec, "serve.live.load");
                done.search_us_full = search_us(&full, &searches);
            }
            let t0 = Instant::now();
            let report = step(&mut w.rec, "ingest.compact", id, || ing.compact())?;
            done.compact_s.push(t0.elapsed().as_secs_f64());
            done.compact_bytes += report.map_or(0, |r| r.bytes_written);
            let compacted = w.flip(id)?;
            if first && job.traced {
                done.search_us_compacted = search_us(&compacted, &searches);
            }
        }
    }
    done.wall_s = started.elapsed().as_secs_f64();
    Ok(done)
}

/// Milliseconds of the most recent span named `name`; 0 when untraced.
fn last_ms(rec: &Option<Recorder>, name: &str) -> f64 {
    rec.as_ref()
        .and_then(|r| r.spans().iter().rev().find(|s| s.name == name))
        .map_or(0.0, |s| s.dur_ns() as f64 / 1e6)
}

/// Digest of the ingest input: every batch's bytes, in order.
fn batches_crc32(batches: &[Batch]) -> u32 {
    let mut crc = inspire_store::Crc32::new();
    for b in batches {
        crc.update(&b.source.data);
    }
    crc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use inspire_ingest::Segment;

    #[test]
    fn each_batch_gains_exactly_one_posting_for_its_sentinel() {
        let sizing = Sizing {
            ingest_batches: 3,
            ..Sizing::new(true)
        };
        let batches = live_batches(&sizing, 5);
        assert_eq!(batches.len(), 3);
        let dir = crate::out_dir().join(format!("test-sentinel-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut ing = IngestDir::create(&dir, None).unwrap();
        for b in &batches {
            let records = b.source.record_ranges().len();
            let stats = ing.append(b.source.clone()).unwrap();
            assert_eq!(stats.docs as usize, records, "injection adds no record");
            let seg = Segment::open(&dir.join(&stats.segment_file)).unwrap();
            for other in &batches {
                let mut posts = Vec::new();
                if let Some(local) = seg.terms().position(&other.sentinel) {
                    seg.postings_into(local as u32, &mut posts);
                }
                let want = usize::from(other.sentinel == b.sentinel);
                assert_eq!(posts.len(), want, "{} in {}", other.sentinel, b.sentinel);
                if want == 1 {
                    assert_eq!(posts[0].doc, seg.doc_base(), "the batch's first document");
                    assert_eq!(posts[0].freq, 1);
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn batches_are_seeded() {
        let sizing = Sizing {
            ingest_batches: 4,
            ..Sizing::new(true)
        };
        let crc = |seed| batches_crc32(&live_batches(&sizing, seed));
        assert_eq!(crc(11), crc(11));
        assert_ne!(crc(11), crc(12));
    }
}
