"""Helpers shared by the benchmark's orchestrator and its child processes.

Everything the benchmark writes lives under ``.bench_build/`` at the root
of the checkout: the compiled-kernel cache, one scratch directory per run
(result stores, temp files, logs), and the per-run result records.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
import time
from pathlib import Path
from typing import Dict, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
KERNEL_CACHE = BUILD / "kernel-cache"
RESULTS = BUILD / "results"

class BenchError(RuntimeError):
    """The benchmark could not produce a valid measurement."""


#: Workload knobs, limits, pinned digests and the per-layer map.
SPEC = json.loads((HERE / "spec.json").read_text())


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (0..1) of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of an empty sample")
    position = q * (len(ordered) - 1)
    lo = math.floor(position)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (position - lo)


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


def digest(text: str) -> str:
    """Short content digest of a rendered output."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def child_env(store_dir: Path, tmp_dir: Path) -> Dict[str, str]:
    """Environment for a process that runs the program.

    Every ``REPRO_*`` override is dropped so the program runs on its
    defaults (kernel, streaming, backend, workers); the result store,
    the compiled-kernel cache and temp files are pinned inside the run's
    scratch directory, so ``~/.cache/repro`` is never read or written.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=str(SRC),
        REPRO_CACHE_DIR=str(store_dir),
        REPRO_KERNEL_CACHE=str(KERNEL_CACHE),
        XDG_CACHE_HOME=str(tmp_dir / "xdg"),
        TMPDIR=str(tmp_dir),
    )
    return env


def emit(document: dict) -> None:
    """One JSON line on stdout: the child-to-orchestrator protocol."""
    sys.stdout.write(json.dumps(document, sort_keys=True) + "\n")
    sys.stdout.flush()


def ready_document() -> dict:
    """Import the CLI and load the engine libraries; report provenance.

    The import alone is timed here (``cli.import_s``); the whole set-up,
    interpreter start included, is timed by the parent as ``setup_s``.
    """
    started = time.perf_counter()
    import repro.cli  # noqa: F401  (the import is what is timed)

    import_s = time.perf_counter() - started
    from repro.cpu import _trace_build
    from repro.cpu import kernel

    return {
        "event": "ready",
        "import_s": import_s,
        "kernel": kernel.resolve_kernel(None),
        "batch_kernel_available": kernel.batch_kernel_available(),
        "batch_kernel_unavailable": kernel.batch_kernel_unavailable_reason(),
        "trace_kernel_available": _trace_build.trace_kernel_available(),
        "trace_kernel_unavailable": _trace_build.trace_kernel_unavailable_reason(),
    }

