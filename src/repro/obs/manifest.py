"""Run manifests: one JSON document describing what a CLI invocation did.

``repro <anything> --run-manifest run.json`` captures the run's
provenance and outcome in a single machine-readable artifact:

* invocation: argv, exit code, wall-clock duration, package version;
* model identity: the simulator-source fingerprint and cache schema
  version (the same values the execution wire protocol handshakes on);
* configuration: resolved backend spec, store description, per-tier
  cache entry counts and byte sizes;
* what happened: aggregated per-backend batch counters (submitted /
  unique / hits / misses / executed / failed), per-stage wall time, the
  engines that actually ran (jobs per pipeline kernel, traces per
  walker engine, fallback reasons — as reported by the processes that
  simulated, workers included), the full metrics-registry snapshot
  (including the per-job latency histogram), and the trace-out path
  when spans were also collected.

``repro report run.json`` renders the manifest for humans. The helpers
here are deliberately reusable: :func:`to_json` is the canonical
serializer for every observability artifact (``repro cache stats
--json`` uses it too), and :func:`validate_run_manifest` is the schema
check shared by the tests and the CI observability smoke.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.obs import metrics, tracer

__all__ = [
    "MANIFEST_SCHEMA",
    "build_run_manifest",
    "load_manifest",
    "render_manifest",
    "to_json",
    "validate_run_manifest",
    "write_run_manifest",
]

MANIFEST_SCHEMA = "repro.run-manifest/1"


def to_json(document: object) -> str:
    """Canonical JSON for observability artifacts: sorted, indented, LF."""
    return json.dumps(document, sort_keys=True, indent=2) + "\n"


def _cache_tiers() -> List[dict]:
    from repro.exec import cache as result_cache
    from repro.exec.stores import store_layers

    store = result_cache.active()
    if store is None:
        return []
    try:
        layers = store_layers(store)
    except TypeError:
        return []
    tiers = []
    for name, layer in layers:
        stats = layer.stats()
        tiers.append(
            {
                "tier": name,
                "directory": str(layer.directory),
                "entries": stats.entries,
                "total_bytes": stats.total_bytes,
            }
        )
    return tiers


def build_run_manifest(
    argv: Optional[List[str]] = None,
    exit_code: int = 0,
    started: Optional[float] = None,
) -> dict:
    """Assemble the manifest for the current process state."""
    from repro import package_version
    from repro.exec import engine
    from repro.exec.backends import get_default_backend_spec
    from repro.exec.cache import active
    from repro.exec.hashing import CACHE_SCHEMA_VERSION, model_fingerprint
    from repro.util import stagetime

    now = time.time()
    backends: Dict[str, dict] = {}
    jobs_total = {
        "submitted": 0,
        "unique": 0,
        "cache_hits": 0,
        "cache_misses": 0,
        "executed": 0,
        "failed": 0,
    }
    for name, tally in engine.telemetry().items():
        backends[name] = {
            "submitted": tally.submitted,
            "unique": tally.unique,
            "cache_hits": tally.cache_hits,
            "cache_misses": tally.cache_misses,
            "executed": tally.executed,
            "failed": tally.failed,
            "workers_used": tally.workers_used,
            "stage_seconds": dict(tally.stage_seconds),
            "latency_quantiles": dict(tally.latency_quantiles),
            "kernels": dict(tally.kernels),
            "trace_engines": dict(tally.trace_engines),
            "fallbacks": list(tally.fallbacks),
        }
        for key in jobs_total:
            jobs_total[key] += backends[name][key]
    store = active()
    snapshot = metrics.registry().snapshot()
    return {
        "schema": MANIFEST_SCHEMA,
        "argv": list(argv) if argv is not None else None,
        "exit_code": exit_code,
        "created_unix": now,
        "duration_seconds": (now - started) if started is not None else None,
        "package_version": package_version(),
        "model_fingerprint": model_fingerprint(),
        "cache_schema_version": CACHE_SCHEMA_VERSION,
        "backend_spec": get_default_backend_spec(),
        "store": store.describe() if store is not None else None,
        "cache_tiers": _cache_tiers(),
        "jobs": jobs_total,
        "backends": backends,
        "stage_seconds": stagetime.totals(),
        "engines": metrics.engines_used(snapshot["counters"]),
        "metrics": snapshot,
        "trace_out": tracer.output_path(),
    }


def write_run_manifest(
    path: Union[str, Path],
    argv: Optional[List[str]] = None,
    exit_code: int = 0,
    started: Optional[float] = None,
) -> Path:
    """Build and write the manifest; returns the written path."""
    manifest = build_run_manifest(argv=argv, exit_code=exit_code, started=started)
    target = Path(path)
    if target.parent != Path(""):
        target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(to_json(manifest))
    return target


def load_manifest(path: Union[str, Path]) -> dict:
    """Read a manifest back; raises ``ValueError`` on a non-manifest file."""
    document = json.loads(Path(path).read_text())
    problems = validate_run_manifest(document)
    if problems:
        raise ValueError(
            f"{path} is not a valid run manifest: " + "; ".join(problems[:5])
        )
    return document


def validate_run_manifest(document: object) -> List[str]:
    """Schema-check a manifest document; returns a list of problems."""
    problems: List[str] = []
    if not isinstance(document, dict):
        return [f"manifest must be a JSON object, got {type(document).__name__}"]
    if document.get("schema") != MANIFEST_SCHEMA:
        problems.append(
            f"schema must be {MANIFEST_SCHEMA!r}, got {document.get('schema')!r}"
        )
    for key, kind in (
        ("exit_code", int),
        ("created_unix", (int, float)),
        ("package_version", str),
        ("model_fingerprint", str),
        ("backend_spec", str),
        ("jobs", dict),
        ("backends", dict),
        ("stage_seconds", dict),
        ("metrics", dict),
        ("cache_tiers", list),
    ):
        if key not in document:
            problems.append(f"missing {key!r}")
        elif not isinstance(document[key], kind):
            problems.append(f"{key!r} has the wrong type")
    metrics_doc = document.get("metrics")
    if isinstance(metrics_doc, dict):
        for family in ("counters", "gauges", "histograms"):
            if not isinstance(metrics_doc.get(family), dict):
                problems.append(f"metrics.{family!r} must be an object")
    jobs = document.get("jobs")
    if isinstance(jobs, dict):
        for key in ("submitted", "executed", "failed", "cache_hits"):
            if not isinstance(jobs.get(key), int):
                problems.append(f"jobs.{key!r} must be an integer")
    return problems


def render_manifest(document: dict) -> str:
    """The human rendering ``repro report <run.json>`` prints."""
    from repro.util.stagetime import format_stages

    lines: List[str] = []
    argv = document.get("argv")
    lines.append("Run manifest")
    lines.append("=" * 72)
    if argv:
        lines.append(f"command:      repro {' '.join(argv)}")
    lines.append(f"exit code:    {document.get('exit_code')}")
    duration = document.get("duration_seconds")
    if duration is not None:
        lines.append(f"duration:     {duration:.2f}s")
    lines.append(f"version:      {document.get('package_version')}")
    fingerprint = str(document.get("model_fingerprint", ""))
    lines.append(
        f"model:        {fingerprint[:12]}... "
        f"(cache schema {document.get('cache_schema_version')})"
    )
    lines.append(f"backend:      {document.get('backend_spec')}")
    lines.append(f"store:        {document.get('store') or '(disabled)'}")
    for tier in document.get("cache_tiers") or []:
        lines.append(
            f"  {tier.get('tier')}: {tier.get('entries')} entries, "
            f"{tier.get('total_bytes')} bytes  ({tier.get('directory')})"
        )
    jobs = document.get("jobs") or {}
    lines.append(
        "jobs:         "
        f"submitted={jobs.get('submitted', 0)} unique={jobs.get('unique', 0)} "
        f"hits={jobs.get('cache_hits', 0)} misses={jobs.get('cache_misses', 0)} "
        f"executed={jobs.get('executed', 0)} failed={jobs.get('failed', 0)}"
    )
    for name, tally in sorted((document.get("backends") or {}).items()):
        lines.append(
            f"  backend {name}: executed={tally.get('executed', 0)} "
            f"failed={tally.get('failed', 0)} workers={tally.get('workers_used', 1)}"
        )
        quantile_map = tally.get("latency_quantiles") or {}
        if quantile_map:
            rendered = " ".join(
                f"{label}={quantile_map[label]:.4f}s"
                for label in sorted(quantile_map, key=lambda k: float(k[1:]))
            )
            lines.append(f"    job latency: {rendered}")
    engines = document.get("engines") or {}
    if engines.get("kernels") or engines.get("trace_engines"):
        lines.append(
            "engines:      "
            + metrics.format_engines(
                engines.get("kernels") or {}, engines.get("trace_engines") or {}
            )
        )
    for reason in engines.get("fallbacks") or []:
        lines.append(f"  fallback: {reason}")
    stage_seconds = document.get("stage_seconds") or {}
    if stage_seconds:
        lines.append(f"stages:       {format_stages(stage_seconds)}")
    histograms = (document.get("metrics") or {}).get("histograms") or {}
    job_hist = histograms.get(metrics.JOB_SECONDS)
    if job_hist and job_hist.get("count"):
        marks = metrics.quantiles(job_hist)
        lines.append(
            f"job latency:  count={job_hist['count']} "
            + " ".join(f"{k}={v:.4f}s" for k, v in sorted(
                marks.items(), key=lambda kv: float(kv[0][1:])
            ))
            + (f" max={job_hist['max']:.4f}s" if job_hist.get("max") is not None else "")
        )
    trace_out = document.get("trace_out")
    if trace_out:
        lines.append(f"trace:        {trace_out} (load in https://ui.perfetto.dev)")
    return "\n".join(lines)
