#!/usr/bin/env python3
"""Validate a Prometheus text-format scrape of `/metrics?format=prom`.

Every sample family must carry a `# TYPE` line, summary quantiles must
be monotone, the `_sum`/`_count` pairs must be consistent, and the
serve-side metric names the dashboards key on must be present
(`--require-ingest` adds the seal/compaction names a live
ingest-backed server exposes).

Usage:
  validate_prom.py metrics.prom [--require-ingest]

Stdlib only — the CI image has no third-party Python packages.
"""

import argparse
import sys

FAILURES = []


def fail(msg):
    FAILURES.append(msg)


def check(cond, msg):
    if not cond:
        fail(msg)
    return cond


# Serve-side families every scrape must expose, whatever backs the
# server. Quantile/sum/count suffixes are derived, not listed.
PROM_REQUIRED_SERVE = (
    "serve_requests_total",
    "serve_errors_total",
    "serve_cache_hits_total",
    "serve_cache_misses_total",
    "serve_uptime_seconds",
    "snapshot_generation",
)

# Families only an ingest-dir-backed server exposes (the histograms
# come from the ingest metrics sidecar).
PROM_REQUIRED_INGEST = (
    "seal_latency_seconds",
    "compaction_duration_seconds",
    "snapshot_generation",
)


def parse_prom(text):
    """Prometheus text format -> (samples, types).

    samples: base family name -> {sample name or (name, quantile): value}
    types:   family name -> declared type from its `# TYPE` line
    """
    samples = {}
    types = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 4 and parts[1] == "TYPE":
                types[parts[2]] = parts[3]
            continue
        parts = line.split()
        if len(parts) != 2:
            fail(f"prom line {lineno}: expected 'name value', got {line!r}")
            continue
        name, raw = parts
        quantile = None
        if "{" in name:
            name, _, labels = name.partition("{")
            labels = labels.rstrip("}")
            for lab in labels.split(","):
                k, _, v = lab.partition("=")
                if k == "quantile":
                    quantile = v.strip('"')
        try:
            value = float(raw)
        except ValueError:
            fail(f"prom line {lineno}: bad sample value {raw!r}")
            continue
        base = name
        for suffix in ("_sum", "_count"):
            if base.endswith(suffix) and base[: -len(suffix)] in types:
                base = base[: -len(suffix)]
        fam = samples.setdefault(base, {})
        fam[(name, quantile) if quantile is not None else name] = value
    return samples, types


def validate_prom(text, require_ingest):
    samples, types = parse_prom(text)
    check(len(samples) > 0, "no samples in prom scrape")

    required = list(PROM_REQUIRED_SERVE)
    if require_ingest:
        required += [n for n in PROM_REQUIRED_INGEST if n not in required]
    for name in required:
        check(name in samples, f"required metric family missing: {name}")

    for base, fam in samples.items():
        if base not in types:
            fail(f"family {base}: samples without a # TYPE line")
            continue
        if types[base] != "summary":
            continue
        # Summaries: monotone quantiles and a consistent _sum/_count pair.
        quantiles = {k[1]: v for k, v in fam.items() if isinstance(k, tuple)}
        ordered = sorted(quantiles.items(), key=lambda kv: float(kv[0]))
        values = [v for _, v in ordered]
        check(values == sorted(values),
              f"family {base}: quantiles not monotone: {ordered}")
        total = fam.get(f"{base}_sum")
        count = fam.get(f"{base}_count")
        check(total is not None, f"family {base}: missing {base}_sum")
        check(count is not None, f"family {base}: missing {base}_count")
        if total is not None and count is not None:
            if count == 0:
                check(total == 0, f"family {base}: count 0 but sum {total}")
            else:
                check(total > 0, f"family {base}: count {count:.0f} but sum {total}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("path", help="Prometheus text scrape to validate")
    ap.add_argument("--require-ingest", action="store_true",
                    help="also require the seal/compaction families")
    args = ap.parse_args()

    try:
        with open(args.path, encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        print(f"validate_prom: {args.path}: {e}", file=sys.stderr)
        return 1
    validate_prom(text, args.require_ingest)
    if FAILURES:
        print(f"validate_prom: {args.path}: {len(FAILURES)} problem(s)",
              file=sys.stderr)
        for msg in FAILURES:
            print(f"  - {msg}", file=sys.stderr)
        return 1
    print(f"validate_prom: {args.path}: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
