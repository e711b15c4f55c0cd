"""Process-wide per-stage wall-time accounting for simulation runs.

The columnar batch path splits a run into three stages — ``generate``
(pulling the next trace chunk out of the walker), ``kernel`` (the C
cycle loop), and ``pricing`` (statistics assembly and the closed-loop
pricing walk). This module is the accumulator they
report into: a flat ``stage -> seconds`` map with snapshot/delta
helpers, so :func:`repro.exec.engine.run_jobs` can attribute exactly
the time spent inside one batch to that batch's
:class:`~repro.exec.engine.BatchReport`.

Since the observability layer landed, this module is a *compat shim*
over the metrics registry (:mod:`repro.obs.metrics`): each stage is the
counter ``stage_seconds.<stage>`` in the process-wide registry, so
stage time shows up in metric snapshots, run manifests, and the wire
relays automatically — pool *and* SSH workers ship their deltas back to
the coordinator as part of the generic metrics relay. The historical
API (``add``/``totals``/``delta_since``/``absorb``/``timed``) is
unchanged, and :func:`timed`/:func:`timed_iterator` additionally emit
``stage.<name>`` spans when tracing (:mod:`repro.obs.tracer`) is
enabled.

Timings are observability only: they never feed results, cache keys, or
control flow.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, Tuple, TypeVar

from repro.obs import metrics, tracer

_T = TypeVar("_T")

__all__ = [
    "STAGES",
    "STAGE_PREFIX",
    "absorb",
    "absorb_into",
    "add",
    "delta_since",
    "format_stages",
    "reset",
    "snapshot",
    "timed",
    "timed_iterator",
    "totals",
]

#: Canonical stage names in pipeline order (other names are allowed;
#: these are the ones the batch path reports and the CLIs print).
STAGES = ("generate", "kernel", "pricing")

#: Registry namespace: stage ``generate`` is counter
#: ``stage_seconds.generate`` in :func:`repro.obs.metrics.registry`.
STAGE_PREFIX = "stage_seconds."


def add(stage: str, seconds: float) -> None:
    """Accrue ``seconds`` of wall time to ``stage``."""
    metrics.registry().counter(STAGE_PREFIX + stage).value += seconds


def absorb_into(into: Dict[str, float], delta: Dict[str, float]) -> None:
    """Merge ``delta`` into an external ``stage -> seconds`` map."""
    for stage, seconds in delta.items():
        into[stage] = into.get(stage, 0.0) + seconds


def absorb(delta: Dict[str, float]) -> None:
    """Merge another process's stage delta into this accumulator."""
    for stage, seconds in delta.items():
        add(stage, seconds)


def totals() -> Dict[str, float]:
    """A copy of the accumulated ``stage -> seconds`` map."""
    return {
        name[len(STAGE_PREFIX):]: counter.value
        for name, counter in metrics.registry().counters.items()
        if name.startswith(STAGE_PREFIX)
    }


def snapshot() -> Dict[str, float]:
    """Alias of :func:`totals` that reads as intent at call sites."""
    return totals()


def delta_since(before: Dict[str, float]) -> Dict[str, float]:
    """Per-stage seconds accrued since ``before`` (a :func:`snapshot`)."""
    delta: Dict[str, float] = {}
    for stage, seconds in totals().items():
        gained = seconds - before.get(stage, 0.0)
        if gained > 0.0:
            delta[stage] = gained
    return delta


def reset() -> None:
    """Zero the accumulator (tests, embedding applications)."""
    metrics.registry().remove_prefixed(STAGE_PREFIX)


@contextmanager
def timed(stage: str) -> Iterator[None]:
    """Accrue the wall time of the enclosed block to ``stage``.

    Also emits a ``stage.<name>`` span when tracing is enabled (the
    disabled path costs one shared no-op context manager — nothing).
    """
    span = tracer.span("stage." + stage, category="stage")
    span.__enter__()
    start = time.perf_counter()
    try:
        yield
    finally:
        add(stage, time.perf_counter() - start)
        span.__exit__(None, None, None)


def timed_iterator(stage: str, iterable: Iterable[_T]) -> Iterator[_T]:
    """Yield from ``iterable``, charging each ``next()`` to ``stage``.

    This is how lazy trace generation gets attributed: the chunk
    iterator does its work inside ``next()``, which this wrapper times,
    while the consumer's own time between pulls is charged elsewhere.
    Each pull becomes its own ``stage.<name>`` span when tracing.
    """
    iterator = iter(iterable)
    while True:
        span = tracer.span("stage." + stage, category="stage")
        span.__enter__()
        start = time.perf_counter()
        try:
            item = next(iterator)
        except StopIteration:
            add(stage, time.perf_counter() - start)
            span.__exit__(None, None, None)
            return
        add(stage, time.perf_counter() - start)
        span.__exit__(None, None, None)
        yield item


def format_stages(stage_seconds: Dict[str, float]) -> str:
    """One ``stage=1.234s`` token per stage, canonical stages first."""
    ordered: Tuple[str, ...] = tuple(
        [s for s in STAGES if s in stage_seconds]
        + sorted(s for s in stage_seconds if s not in STAGES)
    )
    return " ".join(f"{s}={stage_seconds[s]:.3f}s" for s in ordered)
