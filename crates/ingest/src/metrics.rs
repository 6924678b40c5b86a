//! Cumulative ingest metrics, persisted as a sidecar file.
//!
//! The ingest tier's interesting latencies — how long a commit takes to
//! seal its batch and publish the generation that shows it, how long
//! compaction runs — happen in short-lived CLI processes, while the
//! consumer (the serving tier's `/metrics?format=prom` exposition) is a
//! different, long-lived process. The bridge is `ingest_metrics.json`:
//! a [`Registry`] persisted at full bucket fidelity
//! ([`Registry::to_persist_json`]) next to the manifest, reloaded on
//! every open so histograms keep accumulating across processes, and
//! rewritten atomically (through `inspire_store::publish`) so readers
//! never see a torn file.
//!
//! The sidecar holds only the histograms ingest alone can measure:
//!
//! * `seal_latency_seconds` — a batch sealed into a segment and the
//!   manifest naming it on disk, i.e. the commit until it is visible.
//! * `compaction_duration_seconds` — one full compaction pass.
//!
//! Point-in-time gauges (`snapshot_generation`, `segments_open`) are
//! *not* persisted — the exposition computes them live from the
//! manifest.
//!
//! A missing or corrupt sidecar degrades to an empty registry: metrics
//! are an observation, never a reason to fail ingestion.

use inspire_trace::Registry;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Sidecar file name inside an ingest directory.
pub const METRICS_FILE: &str = "ingest_metrics.json";

/// Handle on the sidecar: an in-memory [`Registry`] plus the directory
/// it persists into.
#[derive(Debug, Clone)]
pub struct IngestMetrics {
    dir: PathBuf,
    reg: Registry,
}

impl IngestMetrics {
    /// Load the sidecar under `dir`; a missing or unparsable file yields
    /// an empty registry.
    pub fn load(dir: &Path) -> IngestMetrics {
        IngestMetrics {
            dir: dir.to_path_buf(),
            reg: load_registry(dir).unwrap_or_default(),
        }
    }

    pub fn registry(&self) -> &Registry {
        &self.reg
    }

    /// Record `secs` into histogram `name` (stored in nanoseconds, like
    /// every registry histogram; the `_seconds` suffix is the exposition
    /// unit).
    pub fn observe_seconds(&mut self, name: &str, secs: f64) {
        self.reg
            .observe(name, Duration::from_secs_f64(secs.max(0.0)));
    }

    /// Durably and atomically rewrite the sidecar.
    pub fn store(&self) -> io::Result<()> {
        inspire_store::publish(&self.dir.join(METRICS_FILE), |tmp| {
            std::fs::write(tmp, self.reg.to_persist_json())
        })
    }
}

/// Read-only load of the sidecar registry (the serving tier's view).
/// `None` when the file is absent or unreadable.
pub fn load_registry(dir: &Path) -> Option<Registry> {
    let text = std::fs::read_to_string(dir.join(METRICS_FILE)).ok()?;
    Registry::from_persist_json(&text).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sidecar_accumulates_across_loads() {
        let dir = std::env::temp_dir().join(format!("ingest_metrics_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();

        assert!(load_registry(&dir).is_none());
        let mut m = IngestMetrics::load(&dir);
        m.observe_seconds("seal_latency_seconds", 0.002);
        m.store().unwrap();

        // A second process observes more; counts accumulate.
        let mut m2 = IngestMetrics::load(&dir);
        m2.observe_seconds("seal_latency_seconds", 0.004);
        m2.observe_seconds("compaction_duration_seconds", 0.1);
        m2.store().unwrap();

        let reg = load_registry(&dir).expect("sidecar readable");
        let h = reg.histogram("seal_latency_seconds").unwrap();
        assert_eq!(h.count(), 2);
        assert!(reg.histogram("compaction_duration_seconds").is_some());

        // Corruption degrades to empty, never errors.
        std::fs::write(dir.join(METRICS_FILE), b"not json").unwrap();
        assert!(load_registry(&dir).is_none());
        assert_eq!(IngestMetrics::load(&dir).registry().summaries().len(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
