"""The evaluation request schema: one argv -> parameters -> output path.

A request is JSON::

    {"kind": "sweep" | "perf" | "robustness" | "simulate",
     "quick": false,
     "params": {...}}

:func:`build_request` validates the payload and normalizes it into a
:class:`ServeRequest`: every default, grid spec, name list and range
check lives here, so ``repro sweep|perf|robustness`` (which builds its
request with :func:`payload_from_args` and runs it in-process) and
``repro serve`` (which runs it on behalf of a client) cannot disagree.
Anything out of range or unknown raises :class:`RequestError` before
any work runs.

:attr:`ServeRequest.key` is the canonical coalescing identity the
service reads: it hashes the normalized parameters together with the
sorted cache keys of every simulation the request needs (which already
fold in the model fingerprint), so two requests coalesce exactly when
they would hit the same cache entries and render the same report. It is
computed on first access, so a local run never pays for it.

``params`` by kind (all optional unless noted):

* ``sweep`` — ``p_grid``/``alpha_grid`` (grid spec string or number
  list), ``policies``, ``benchmarks`` (comma string or list).
* ``perf`` — ``p_grid``, ``policies``, ``alpha``, ``wakeup_latencies``,
  ``benchmarks``.
* ``robustness`` — ``scenarios``, ``scenario_seed``, ``families``,
  ``policies``, ``p``, ``alpha``, ``instructions``.
* ``simulate`` — ``benchmark`` (required), ``instructions`` (required),
  ``warmup``, ``seed``, ``fus``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Collection, Dict, List, Mapping, NamedTuple
from typing import Sequence, Tuple

from repro.core.parameters import TechnologyParameters, check_alpha
from repro.core.sleep_control import POLICY_BUILDERS
from repro.cpu.config import MachineConfig
from repro.cpu.simulator import cached_result
from repro.cpu.workloads import benchmark_names, get_benchmark
from repro.exec.hashing import canonical_key
from repro.exec.jobs import SimulationJob
from repro.experiments import perf_impact, robustness, sweep
from repro.experiments.common import DEFAULT_SCALE, QUICK_SCALE, ExperimentScale
from repro.scenarios.space import ScenarioSpace
from repro.util.lookup import unknown_name_message

#: Schema tag stamped into every canonical request key and health reply.
SERVE_SCHEMA = "repro.serve/1"

KINDS = ("sweep", "perf", "robustness", "simulate")


class RequestError(ValueError):
    """A payload that cannot be normalized into a request."""


def _names(value: Any, what: str) -> Tuple[str, ...]:
    """A comma string or list of strings -> a tuple of names."""
    if value is None:
        return ()
    if isinstance(value, str):
        return tuple(token.strip() for token in value.split(",") if token.strip())
    if isinstance(value, (list, tuple)):
        if not all(isinstance(item, str) for item in value):
            raise RequestError(f"{what} must be strings, got {value!r}")
        return tuple(value)
    raise RequestError(f"{what} must be a comma string or list, got {value!r}")


def _known(names: Sequence[str], kind: str, known: Collection[str]) -> List[str]:
    """``names`` as a list, each one in ``known`` and none repeated.

    Only for the name lists no domain object validates (benchmarks and
    closed-loop policies); the others go through their own validators.
    """
    for name in names:
        if name not in known:
            raise RequestError(unknown_name_message(kind, name, known))
    if len(set(names)) != len(names):
        raise RequestError(f"duplicate {kind} names in {list(names)}")
    return list(names)


def _check(what: str, validate: Callable[[], Any]) -> None:
    """Run a domain validator, reporting its ValueError as a RequestError."""
    try:
        validate()
    except ValueError as error:
        raise RequestError(f"{what}: {error}") from None


def _grid(value: Any, what: str) -> Tuple[float, ...]:
    """A grid spec string ('lo:hi:n' / comma list) or number list."""
    if isinstance(value, str):
        try:
            return sweep.parse_grid(value)
        except ValueError as error:
            raise RequestError(f"{what}: {error}") from None
    if isinstance(value, (list, tuple)) and value:
        try:
            return tuple(float(item) for item in value)
        except (TypeError, ValueError):
            raise RequestError(f"{what} must be numbers, got {value!r}") from None
    raise RequestError(f"{what} must be a grid spec or number list, got {value!r}")


def _number(value: Any, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise RequestError(f"{what} must be a number, got {value!r}")
    return float(value)


def _integer(value: Any, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise RequestError(f"{what} must be an integer, got {value!r}")
    return value


def _leakage(value: Any, what: str) -> float:
    """A leakage factor in ``(0, 1]``."""
    p = _number(value, what)
    _check(what, lambda: TechnologyParameters(leakage_factor_p=p))
    return p


def _alpha(value: Any, what: str) -> float:
    """An activity factor in ``[0, 1]``."""
    alpha = _number(value, what)
    _check(what, lambda: check_alpha(alpha))
    return alpha


def _benchmarks(value: Any) -> List[str]:
    return _known(_names(value, "benchmarks"), "benchmark", benchmark_names())


def _policies(value: Any, default: Sequence[str]) -> Tuple[str, ...]:
    return _names(value, "policies") or tuple(default)


@dataclass(frozen=True)
class ServeRequest:
    """One normalized evaluation request.

    ``params`` is the fully-defaulted, JSON-ready parameter set.
    :meth:`jobs` lists the simulations the request needs (for warm
    probing and batch folding), :meth:`run` executes it and returns the
    experiment's result, and :meth:`render` formats that result as the
    exact text ``repro <kind>`` prints.
    """

    kind: str
    quick: bool
    params: Mapping[str, Any] = field(hash=False)

    @property
    def scale(self) -> ExperimentScale:
        return QUICK_SCALE if self.quick else DEFAULT_SCALE

    @cached_property
    def key(self) -> str:
        """The canonical coalescing identity (computed once, on demand)."""
        return canonical_key(
            {
                "schema": SERVE_SCHEMA,
                "kind": self.kind,
                "quick": self.quick,
                "params": dict(self.params),
                "jobs": sorted(job.cache_key() for job in self.jobs()),
            },
            versioned=False,
        )

    def jobs(self) -> List[SimulationJob]:
        return _KINDS[self.kind].jobs(self.params, self.scale)

    def run(self) -> Any:
        return _KINDS[self.kind].run(self.params, self.scale)

    def render(self, result: Any = None) -> str:
        """The report text for ``result`` (by default, a fresh :meth:`run`)."""
        if result is None:
            result = self.run()
        return _KINDS[self.kind].render(self.params, result)


def job_is_cached(job: SimulationJob) -> bool:
    """Whether ``job`` would be a pure cache read (memo or store)."""
    return (
        cached_result(
            job.profile,
            job.num_instructions,
            config=job.config,
            seed=job.seed,
            warmup_instructions=job.warmup_instructions,
            sleep=job.sleep,
            record_sequences=job.record_sequences,
        )
        is not None
    )


# --- sweep ---------------------------------------------------------------


def _sweep_params(params: Mapping[str, Any]) -> Dict[str, Any]:
    p_grid = _grid(params.get("p_grid") or sweep.DEFAULT_P_SPEC, "p_grid")
    alpha_grid = _grid(params.get("alpha_grid") or sweep.DEFAULT_ALPHA_SPEC, "alpha_grid")
    p_values = tuple(_leakage(p, "p_grid") for p in p_grid)
    alphas = tuple(_alpha(alpha, "alpha_grid") for alpha in alpha_grid)
    policies = _policies(params.get("policies"), sweep.DEFAULT_POLICIES)
    _check("policies", lambda: sweep.SweepGrid(p_values, alphas, policies))
    return {
        "p_values": list(p_values),
        "alphas": list(alphas),
        "policies": list(policies),
        "benchmarks": _benchmarks(params.get("benchmarks")),
    }


def _sweep_jobs(params: Mapping[str, Any], scale: ExperimentScale):
    return sweep.sweep_jobs(scale=scale, benchmarks=params["benchmarks"] or None)


def _sweep_run(params: Mapping[str, Any], scale: ExperimentScale):
    return sweep.run(
        scale=scale,
        grid=sweep.SweepGrid(
            p_values=tuple(params["p_values"]),
            alphas=tuple(params["alphas"]),
            policies=tuple(params["policies"]),
        ),
        benchmarks=tuple(params["benchmarks"]),
    )


# --- perf ----------------------------------------------------------------


def _wakeup_latencies(value: Any) -> List[int]:
    if value is None:
        latencies = list(perf_impact.DEFAULT_WAKEUP_LATENCIES)
    elif isinstance(value, str):
        try:
            latencies = [int(token) for token in _names(value, "wakeup_latencies")]
        except ValueError:
            raise RequestError(
                f"wakeup_latencies must be integers, got {value!r}"
            ) from None
    elif isinstance(value, (list, tuple)):
        latencies = [_integer(latency, "wakeup_latencies") for latency in value]
    else:
        raise RequestError(
            f"wakeup_latencies must be a comma string or list, got {value!r}"
        )
    if not latencies:
        raise RequestError(f"wakeup_latencies names no latency: {value!r}")
    negative = [latency for latency in latencies if latency < 0]
    if negative:
        raise RequestError(f"wakeup_latencies must be >= 0, got {negative}")
    return latencies


def _perf_params(params: Mapping[str, Any]) -> Dict[str, Any]:
    p_grid = params.get("p_grid")
    return {
        "p_values": [
            _leakage(p, "p_grid")
            for p in (_grid(p_grid, "p_grid") if p_grid else perf_impact.DEFAULT_P_VALUES)
        ],
        "policies": _known(
            _policies(params.get("policies"), perf_impact.DEFAULT_PERF_POLICIES),
            "policy",
            POLICY_BUILDERS,
        ),
        "alpha": _alpha(params.get("alpha", perf_impact.DEFAULT_ALPHA), "alpha"),
        "wakeup_latencies": _wakeup_latencies(params.get("wakeup_latencies")),
        "benchmarks": _benchmarks(params.get("benchmarks")),
    }


def _perf_arguments(params: Mapping[str, Any], scale: ExperimentScale):
    return dict(
        scale=scale,
        policies=tuple(params["policies"]),
        p_values=tuple(params["p_values"]),
        alpha=params["alpha"],
        wakeup_latencies=tuple(params["wakeup_latencies"]),
        benchmarks=tuple(params["benchmarks"]) or None,
    )


# --- robustness ----------------------------------------------------------


def _robustness_params(params: Mapping[str, Any]) -> Dict[str, Any]:
    scenarios = _integer(
        params.get("scenarios", robustness.DEFAULT_SCENARIO_COUNT), "scenarios"
    )
    if scenarios < 1:
        raise RequestError(f"scenarios must be >= 1, got {scenarios}")
    instructions = params.get("instructions")
    if instructions is not None:
        instructions = _integer(instructions, "instructions")
        _check(
            "instructions",
            lambda: ExperimentScale(window_instructions=instructions),
        )
    families = _names(params.get("families"), "families")
    if families:
        _check("families", lambda: ScenarioSpace(families))
    policies = _policies(
        params.get("policies"), robustness.DEFAULT_ROBUSTNESS_POLICIES
    )
    _check("policies", lambda: robustness.check_policies(policies))
    return {
        "scenarios": scenarios,
        "scenario_seed": _integer(
            params.get("scenario_seed", robustness.DEFAULT_SCENARIO_SEED),
            "scenario_seed",
        ),
        "families": list(families),
        "policies": list(policies),
        "p": _leakage(params.get("p", robustness.DEFAULT_P), "p"),
        "alpha": _alpha(
            params.get("alpha", robustness.DEFAULT_ROBUSTNESS_ALPHA), "alpha"
        ),
        "instructions": instructions,
    }


def _robustness_jobs(params: Mapping[str, Any], scale: ExperimentScale):
    from repro.scenarios.space import sample_scenarios

    if params["instructions"] is not None:
        scale = ExperimentScale(
            window_instructions=params["instructions"],
            warmup_instructions=scale.warmup_instructions,
            seed=scale.seed,
        )
    scenarios = sample_scenarios(
        params["scenarios"],
        seed=params["scenario_seed"],
        families=tuple(params["families"]) or None,
    )
    return robustness.robustness_jobs(scenarios, scale=scale)


def _robustness_run(params: Mapping[str, Any], scale: ExperimentScale):
    return robustness.run(
        scale=scale,
        count=params["scenarios"],
        seed=params["scenario_seed"],
        families=tuple(params["families"]) or None,
        policies=tuple(params["policies"]),
        p=params["p"],
        alpha=params["alpha"],
        instructions=params["instructions"],
    )


# --- simulate ------------------------------------------------------------


def _simulate_params(params: Mapping[str, Any]) -> Dict[str, Any]:
    name = params.get("benchmark")
    if not isinstance(name, str) or name not in benchmark_names():
        raise RequestError(
            f"simulate needs 'benchmark', one of {', '.join(benchmark_names())}; "
            f"got {name!r}"
        )
    instructions = _integer(params.get("instructions"), "instructions")
    if instructions < 1:
        raise RequestError(f"instructions must be >= 1, got {instructions}")
    warmup = _integer(params.get("warmup", 0), "warmup")
    if warmup < 0:
        raise RequestError(f"warmup must be >= 0, got {warmup}")
    fus = params.get("fus")
    if fus is not None:
        fus = _integer(fus, "fus")
        _check("fus", lambda: MachineConfig().with_int_fus(fus))
    return {
        "benchmark": name,
        "instructions": instructions,
        "warmup": warmup,
        "seed": _integer(params.get("seed", 1), "seed"),
        "fus": fus,
    }


def _simulate_job(params: Mapping[str, Any]) -> SimulationJob:
    config = MachineConfig()
    if params["fus"] is not None:
        config = config.with_int_fus(params["fus"])
    return SimulationJob(
        profile=get_benchmark(params["benchmark"]),
        num_instructions=params["instructions"],
        warmup_instructions=params["warmup"],
        seed=params["seed"],
        config=config,
        record_sequences=False,
    )


def _simulate_run(params: Mapping[str, Any], scale: ExperimentScale):
    from repro.exec.engine import run_jobs

    return run_jobs([_simulate_job(params)])[0]


def _simulate_render(params: Mapping[str, Any], result) -> str:
    stats = result.stats
    return (
        f"simulate {params['benchmark']}: "
        f"instructions={params['instructions']} "
        f"cycles={stats.total_cycles} ipc={stats.ipc:.6f}"
    )


class _Kind(NamedTuple):
    """One request kind: normalize params, list jobs, run, render."""

    normalize: Callable[[Mapping[str, Any]], Dict[str, Any]]
    jobs: Callable[[Mapping[str, Any], ExperimentScale], List[SimulationJob]]
    run: Callable[[Mapping[str, Any], ExperimentScale], Any]
    render: Callable[[Mapping[str, Any], Any], str]


# The experiment modules' run/render are looked up at call time, so
# rebinding those module attributes (as profiling wrappers do) applies.
_KINDS: Dict[str, _Kind] = {
    "sweep": _Kind(
        _sweep_params,
        _sweep_jobs,
        _sweep_run,
        lambda params, result: sweep.render(result),
    ),
    "perf": _Kind(
        _perf_params,
        lambda params, scale: perf_impact.perf_jobs(**_perf_arguments(params, scale)),
        lambda params, scale: perf_impact.run(**_perf_arguments(params, scale)),
        lambda params, result: perf_impact.render(result),
    ),
    "robustness": _Kind(
        _robustness_params,
        _robustness_jobs,
        _robustness_run,
        lambda params, result: robustness.render(result),
    ),
    "simulate": _Kind(
        _simulate_params,
        lambda params, scale: [_simulate_job(params)],
        _simulate_run,
        _simulate_render,
    ),
}


def build_request(payload: Any) -> ServeRequest:
    """Validate and normalize a JSON payload into a :class:`ServeRequest`.

    Raises :class:`RequestError` for anything malformed — unknown kind,
    wrong types, unparseable grids, unknown benchmark, policy or family
    names, out-of-range values — so no work is scheduled for it.
    """
    if not isinstance(payload, Mapping):
        raise RequestError(f"request body must be a JSON object, got {payload!r}")
    kind = payload.get("kind")
    if kind not in KINDS:
        raise RequestError(f"unknown kind {kind!r}; expected one of {KINDS}")
    quick = payload.get("quick", False)
    if not isinstance(quick, bool):
        raise RequestError(f"'quick' must be a boolean, got {quick!r}")
    raw = payload.get("params") or {}
    if not isinstance(raw, Mapping):
        raise RequestError(f"'params' must be a JSON object, got {raw!r}")
    return ServeRequest(kind=kind, quick=quick, params=_KINDS[kind].normalize(raw))


def payload_from_args(kind: str, args: Any) -> Dict[str, Any]:
    """Build a request payload from parsed ``repro`` CLI arguments.

    Ships the *raw* CLI values (grid spec strings, comma lists, None for
    defaulted flags) and leaves every default and check to
    :func:`build_request`. ``repro sweep|perf|robustness`` runs the
    resulting request in-process, and ``--server URL`` sends the same
    payload to a ``repro serve`` instance, so the two print the same
    bytes for the same argv.
    """
    if kind == "sweep":
        params: Dict[str, Any] = {
            "p_grid": args.p_grid,
            "alpha_grid": args.alpha_grid,
            "policies": args.policies,
            "benchmarks": args.benchmarks,
        }
    elif kind == "perf":
        params = {
            "p_grid": args.p_grid,
            "policies": args.policies,
            "alpha": args.alpha,
            "wakeup_latencies": args.wakeup_latencies,
            "benchmarks": args.benchmarks,
        }
    elif kind == "robustness":
        params = {
            "scenarios": args.scenarios,
            "scenario_seed": args.scenario_seed,
            "families": args.families,
            "policies": args.policies,
            "p": args.p,
            "alpha": args.alpha,
            "instructions": args.instructions,
        }
    else:
        raise RequestError(f"no request kind for the {kind!r} subcommand")
    return {
        "kind": kind,
        "quick": bool(getattr(args, "quick", False)),
        # None and "" both mean "defaulted" to the normalizer; drop them
        # so equivalent invocations produce identical payloads.
        "params": {
            name: value
            for name, value in params.items()
            if value is not None and value != ""
        },
    }
