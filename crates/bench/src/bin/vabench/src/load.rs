//! The closed-loop HTTP load driver and its oracle.
//!
//! Two client threads share one issue counter; each sends its next
//! request only after the previous answer arrived (an analyst's UI waits
//! for its answer before asking again). Every body is compared byte for
//! byte with the in-process `execute` oracle computed beforehand; a
//! transport error, a non-200 status (429 included) or a differing byte
//! is one failed operation.

use crate::requests::Req;
use crate::spans::Recorder;
use inspire_serve::{execute, http, ServeConfig, ServeState, Server};
use inspire_trace::json::Value;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const CLIENTS: usize = 2;
pub const TIMEOUT: Duration = Duration::from_secs(30);

/// Load sizing for a two-core box: two workers, a queue the two clients
/// can never fill, everything else (request tracing included) at the
/// product default.
pub fn start_server(state: Arc<ServeState>) -> io::Result<Server> {
    Server::start(
        state,
        &ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_depth: 64,
            ..ServeConfig::default()
        },
    )
}

/// The server's `/metrics` document, rendered in process so the scrape
/// adds no request of its own to the counters it reads.
pub fn scrape(server: &Server) -> Value {
    inspire_trace::json::parse(server.metrics_json().trim_end()).expect("/metrics is valid JSON")
}

/// `doc[a][b]` as a number; 0 when absent.
pub fn field(doc: &Value, a: &str, b: &str) -> f64 {
    doc.get(a)
        .and_then(|v| v.get(b))
        .and_then(|v| v.as_f64())
        .unwrap_or(0.0)
}

/// p50, in microseconds, of the server-side histogram `name`; 0 when the
/// server has not observed that kind.
pub fn server_p50_us(doc: &Value, name: &str) -> f64 {
    doc.get("histograms")
        .and_then(|h| h.as_arr())
        .and_then(|hs| {
            hs.iter()
                .find(|h| h.get("name").and_then(|n| n.as_str()) == Some(name))
        })
        .and_then(|h| h.get("p50_ns"))
        .and_then(|v| v.as_f64())
        .map_or(0.0, |ns| ns / 1e3)
}

/// The oracle: every request executed in process against `state`.
pub fn oracle_bodies(state: &ServeState, reqs: &[Req]) -> io::Result<Vec<String>> {
    reqs.iter()
        .map(|r| {
            execute(state, &r.parsed).map_err(|e| {
                io::Error::other(format!("oracle refused {}: {}", r.target, e.message))
            })
        })
        .collect()
}

/// CRC-32 over the oracle bodies in list order. Served bodies are
/// compared byte for byte with these, so this is the digest of the
/// answers: a parent-vs-change pair shows at a glance whether they
/// drifted.
pub fn answers_crc32(bodies: &[String]) -> u32 {
    let mut crc = inspire_store::Crc32::new();
    for b in bodies {
        crc.update(b.as_bytes());
    }
    crc.finish()
}

/// When a phase stops issuing requests.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    Count(usize),
    After(Duration),
}

/// One answered (or failed) request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Index into the request list.
    pub req: u32,
    /// Connect → last byte, milliseconds.
    pub ms: f64,
    pub ok: bool,
}

pub struct Phase {
    pub samples: Vec<Sample>,
    pub wall_s: f64,
    /// What the first failed request looked like, for the log.
    pub first_failure: Option<String>,
    /// One span lane per client (traced runs only).
    pub lanes: Vec<Recorder>,
}

impl Phase {
    pub fn failed(&self) -> u64 {
        self.samples.iter().filter(|s| !s.ok).count() as u64
    }

    /// Latencies of the verified-OK requests `keep` selects, ascending.
    pub fn ok_ms(&self, keep: impl Fn(&Sample) -> bool) -> Vec<f64> {
        crate::stats::sorted(
            self.samples
                .iter()
                .filter(|s| s.ok && keep(s))
                .map(|s| s.ms)
                .collect(),
        )
    }
}

/// Drive `reqs` in `order` (cycled) from [`CLIENTS`] closed-loop
/// clients until `stop`. `trace_origin` switches span recording on.
pub fn closed_loop(
    addr: SocketAddr,
    reqs: &[Req],
    oracle: &[String],
    order: &[u32],
    stop: Stop,
    trace_origin: Option<Instant>,
) -> Phase {
    let next = AtomicUsize::new(0);
    let t0 = Instant::now();
    let client = || {
        let mut samples = Vec::new();
        let mut first_failure = None;
        let mut lane = trace_origin.map(Recorder::new);
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let done = match stop {
                Stop::Count(n) => i >= n,
                Stop::After(d) => t0.elapsed() >= d,
            };
            if done {
                break;
            }
            let req = order[i % order.len()];
            let target = &reqs[req as usize].target;
            let sent = Instant::now();
            let resp = match &mut lane {
                Some(rec) => rec.span("client.request", i as u64, |_| {
                    http::get(addr, target, TIMEOUT)
                }),
                None => http::get(addr, target, TIMEOUT),
            };
            let ms = sent.elapsed().as_secs_f64() * 1e3;
            let failure = match resp {
                Ok(r) if r.status != 200 => Some(format!("{target}: status {}", r.status)),
                Ok(r) if r.body != oracle[req as usize] => {
                    Some(format!("{target}: body differs from the oracle"))
                }
                Ok(_) => None,
                Err(e) => Some(format!("{target}: {e}")),
            };
            samples.push(Sample {
                req,
                ms,
                ok: failure.is_none(),
            });
            if first_failure.is_none() {
                first_failure = failure;
            }
        }
        (samples, first_failure, lane)
    };
    let per_client: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS).map(|_| s.spawn(client)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let mut phase = Phase {
        samples: Vec::new(),
        wall_s,
        first_failure: None,
        lanes: Vec::new(),
    };
    for (samples, failure, lane) in per_client {
        phase.samples.extend(samples);
        phase.first_failure = phase.first_failure.or(failure);
        phase.lanes.extend(lane);
    }
    phase
}
