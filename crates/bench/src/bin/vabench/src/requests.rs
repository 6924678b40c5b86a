//! Seeded request lists. Every list is a pure function of the loaded
//! snapshot and the `--seed`; the program only ever sees the generated
//! targets. Lists are all-distinct under the server's *normalized* cache
//! key, so a cold replay cannot hit by accident.

use crate::fixture::{Bucket, Fixture};
use crate::stats::Rng;
use inspire_core::query::SearchIndex;
use inspire_serve::request::split_target;
use inspire_serve::ServeRequest;
use std::collections::HashSet;
use std::io;

/// RNG lanes, one per list, so lists never share draws.
pub mod lane {
    pub const COLD: u64 = 1;
    pub const HOT: u64 = 2;
    pub const HOT_ORDER: u64 = 3;
    pub const SIMILAR: u64 = 4;
    pub const RECALL: u64 = 5;
    pub const READER: u64 = 6;
    pub const SAMPLE: u64 = 7;
}

/// One generated request: the wire target, its typed form for the
/// in-process oracle, and the class its latency is reported under.
#[derive(Debug, Clone)]
pub struct Req {
    pub target: String,
    pub parsed: ServeRequest,
    /// Selectivity bucket of a `/search` (`rare`/`mid`/`common`), the
    /// `nprobeN` of a `/similar`, empty otherwise.
    pub class: &'static str,
}

impl Req {
    pub fn new(target: String, class: &'static str) -> Req {
        let (path, params) = split_target(&target);
        let parsed = ServeRequest::parse(path, &params)
            .unwrap_or_else(|e| panic!("generated target {target} does not parse: {}", e.message));
        Req {
            target,
            parsed,
            class,
        }
    }

    pub fn kind(&self) -> &'static str {
        self.parsed.kind()
    }
}

/// CRC-32 over the targets in list order: two runs drove the program
/// with the same inputs exactly when this matches.
pub fn requests_crc32(reqs: &[Req]) -> u32 {
    let mut crc = inspire_store::Crc32::new();
    for r in reqs {
        crc.update(r.target.as_bytes());
        crc.update(b"\n");
    }
    crc.finish()
}

/// Draw until `make` yields a request whose cache key is new.
fn distinct(seen: &mut HashSet<String>, mut make: impl FnMut() -> Req) -> Req {
    for _ in 0..10_000 {
        let req = make();
        if seen.insert(req.parsed.cache_key()) {
            return req;
        }
    }
    panic!("request space exhausted: cannot draw another distinct request");
}

const TOPS: [usize; 3] = [5, 10, 50];

/// 40 % `/search`, 25 % `/query`, 15 % `/term`, 10 % `/cluster`,
/// 10 % `/rect`, interleaved in a fixed 20-slot pattern.
const MIX: [u8; 20] = *b"SQTSCQSRSQTSQCSRSQTS";

struct Mixer<'a> {
    fx: &'a Fixture,
    rng: Rng,
    searches: usize,
    queries: usize,
    bounds: [(f64, f64); 2],
}

impl Mixer<'_> {
    fn word(&mut self, bucket: &Bucket) -> String {
        let id = bucket.pick(&mut self.rng);
        self.fx.term(id).to_string()
    }

    fn top(&mut self) -> usize {
        *self.rng.pick(&TOPS)
    }

    /// 2–4 terms; a third of the searches all-rare, a third all-mid, a
    /// third with at least one common term.
    fn search(&mut self) -> Req {
        let fx = self.fx;
        let b = &fx.buckets;
        let n = 2 + self.rng.below(3);
        let (class, words): (_, Vec<String>) = match self.searches % 3 {
            0 => ("rare", (0..n).map(|_| self.word(&b.rare)).collect()),
            1 => ("mid", (0..n).map(|_| self.word(&b.mid)).collect()),
            _ => {
                // The first term is common; each further one is a coin
                // flip between common and mid.
                let mut w = vec![self.word(&b.common)];
                for _ in 1..n {
                    let bucket = [&b.common, &b.mid][self.rng.below(2)];
                    w.push(self.word(bucket));
                }
                ("common", w)
            }
        };
        self.searches += 1;
        Req::new(
            format!("/search?q={}&top={}", words.join("+"), self.top()),
            class,
        )
    }

    /// Five boolean shapes in rotation: common∧rare, common∧common,
    /// 3-way OR, NOT, and a `title:`-scoped conjunction.
    fn query(&mut self) -> Req {
        let fx = self.fx;
        let b = &fx.buckets;
        let expr = match self.queries % 5 {
            0 => format!("{}+AND+{}", self.word(&b.common), self.word(&b.rare)),
            1 => format!("{}+AND+{}", self.word(&b.common), self.word(&b.common)),
            2 => format!(
                "{}+OR+{}+OR+{}",
                self.word(&b.mid),
                self.word(&b.mid),
                self.word(&b.mid)
            ),
            3 => format!("{}+NOT+{}", self.word(&b.common), self.word(&b.mid)),
            _ => format!("title:{}+AND+{}", self.word(&b.mid), self.word(&b.common)),
        };
        self.queries += 1;
        Req::new(format!("/query?q={expr}&top={}", self.top()), "")
    }

    fn term(&mut self) -> Req {
        let fx = self.fx;
        let b = &fx.buckets;
        let bucket = [&b.rare, &b.mid, &b.common][self.rng.below(3)];
        Req::new(
            format!("/term?t={}&top={}", self.word(bucket), self.top()),
            "",
        )
    }

    fn cluster(&mut self) -> Req {
        let c = self.rng.below(self.fx.state.cluster_sizes.len());
        Req::new(
            format!("/cluster?c={c}&top={}", 5 + self.rng.below(496)),
            "",
        )
    }

    /// A window 4–30 % of the layout wide, centred anywhere inside it.
    fn rect(&mut self) -> Req {
        let mut corner = [0.0; 4];
        for (axis, (lo, hi)) in self.bounds.into_iter().enumerate() {
            let half = (hi - lo) * (0.02 + 0.13 * self.rng.unit());
            let mid = lo + (hi - lo) * self.rng.unit();
            corner[axis] = mid - half;
            corner[axis + 2] = mid + half;
        }
        let [x0, y0, x1, y1] = corner;
        Req::new(
            format!("/rect?x0={x0}&y0={y0}&x1={x1}&y1={y1}&top={}", self.top()),
            "",
        )
    }
}

/// `n` all-distinct requests in the five-kind mix.
pub fn mixed(fx: &Fixture, rng: Rng, n: usize) -> Vec<Req> {
    let coords = fx
        .state
        .coords
        .as_deref()
        .expect("Final snapshot has a layout");
    let span = |pick: fn(&(f64, f64)) -> f64| {
        let (lo, hi) = coords
            .iter()
            .map(pick)
            .fold((f64::MAX, f64::MIN), |(lo, hi), v| (lo.min(v), hi.max(v)));
        (lo, hi)
    };
    let mut mixer = Mixer {
        fx,
        rng,
        searches: 0,
        queries: 0,
        bounds: [span(|c| c.0), span(|c| c.1)],
    };
    let mut seen = HashSet::new();
    (0..n)
        .map(|i| {
            distinct(&mut seen, || match MIX[i % MIX.len()] {
                b'S' => mixer.search(),
                b'Q' => mixer.query(),
                b'T' => mixer.term(),
                b'C' => mixer.cluster(),
                _ => mixer.rect(),
            })
        })
        .collect()
}

/// The association matrix's row terms, the only words free text can
/// embed through.
pub fn major_terms(fx: &Fixture) -> io::Result<Vec<String>> {
    let ids = fx.state.snapshot().store().require("major")?.as_u32s()?;
    Ok(ids.iter().map(|&t| fx.term(t).to_string()).collect())
}

pub const NPROBES: [(usize, &str); 3] = [(4, "nprobe4"), (16, "nprobe16"), (64, "nprobe64")];

/// `n` all-distinct `/similar` requests: 70 % by document id, 30 % by
/// text of 3–5 major terms, `nprobe` cycling 4/16/64, `top` 10 or 50.
pub fn similar(fx: &Fixture, mut rng: Rng, n: usize) -> io::Result<Vec<Req>> {
    let major = major_terms(fx)?;
    let docs = fx.state.total_docs() as usize;
    let mut seen = HashSet::new();
    Ok((0..n)
        .map(|i| {
            let (nprobe, class) = NPROBES[i % NPROBES.len()];
            distinct(&mut seen, || {
                let top = [10, 50][rng.below(2)];
                let what = if i % 10 < 7 {
                    format!("doc={}", rng.below(docs))
                } else {
                    let words: Vec<&str> = (0..3 + rng.below(3))
                        .map(|_| rng.pick(&major).as_str())
                        .collect();
                    format!("text={}", words.join("+"))
                };
                Req::new(format!("/similar?{what}&nprobe={nprobe}&top={top}"), class)
            })
        })
        .collect())
}

/// `n` all-distinct cold `/search` requests on the mid and common
/// buckets: what `ingest_live`'s reader asks while the writer ingests.
pub fn reader(fx: &Fixture, mut rng: Rng, n: usize) -> Vec<Req> {
    let b = &fx.buckets;
    let mut seen = HashSet::new();
    (0..n)
        .map(|i| {
            distinct(&mut seen, || {
                let lead = if i % 2 == 0 { &b.common } else { &b.mid };
                let mut words = vec![fx.term(lead.pick(&mut rng))];
                words.extend((0..1 + rng.below(2)).map(|_| fx.term(b.mid.pick(&mut rng))));
                let class = if i % 2 == 0 { "common" } else { "mid" };
                Req::new(format!("/search?q={}&top=10", words.join("+")), class)
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::test_fixture;

    #[test]
    fn request_lists_are_a_function_of_the_seed() {
        let fx = test_fixture();
        let crc = |seed| {
            [
                requests_crc32(&mixed(fx, Rng::new(seed, lane::COLD), 400)),
                requests_crc32(&similar(fx, Rng::new(seed, lane::SIMILAR), 400).unwrap()),
                requests_crc32(&reader(fx, Rng::new(seed, lane::READER), 400)),
            ]
        };
        assert_eq!(crc(11), crc(11));
        let (a, b) = (crc(11), crc(12));
        assert!(a.iter().zip(&b).all(|(x, y)| x != y), "{a:?} vs {b:?}");
    }

    #[test]
    fn mixed_list_keeps_its_proportions_and_never_repeats_a_cache_key() {
        let fx = test_fixture();
        let reqs = mixed(fx, Rng::new(11, lane::COLD), 400);
        let count = |kind: &str| reqs.iter().filter(|r| r.kind() == kind).count();
        assert_eq!(
            [
                count("search"),
                count("query"),
                count("term"),
                count("cluster"),
                count("rect")
            ],
            [160, 100, 60, 40, 40]
        );
        for class in ["rare", "mid", "common"] {
            let n = reqs.iter().filter(|r| r.class == class).count();
            assert!((53..=54).contains(&n), "{class}: {n} of 160 searches");
        }
        let keys: HashSet<String> = reqs.iter().map(|r| r.parsed.cache_key()).collect();
        assert_eq!(keys.len(), reqs.len());
    }

    #[test]
    fn similar_list_cycles_nprobe_and_mixes_doc_and_text_queries() {
        let fx = test_fixture();
        let reqs = similar(fx, Rng::new(11, lane::SIMILAR), 300).unwrap();
        for (_, class) in NPROBES {
            assert_eq!(reqs.iter().filter(|r| r.class == class).count(), 100);
        }
        let by_text = reqs.iter().filter(|r| r.target.contains("text=")).count();
        assert_eq!(by_text, 90);
        assert!(reqs.iter().all(|r| r.kind() == "similar"));
    }
}
