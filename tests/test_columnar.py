"""The columnar-equivalence gate (CI) plus TraceChunk machinery units.

The keystone contract of the columnar trace pipeline: the column-backed
chunk streams — from the compiled C trace walker, and from the
no-compiler fallback that packs the reference walk into the same chunks
— reproduce the per-instruction reference walk *digest-identical*
(:func:`~repro.cpu.trace.trace_digest` over every field of every slot),
for every seed benchmark, for sampled scenarios, and for phased
composites, across chunk sizes. Each gate runs once on the default
engine and once with the walker forced unavailable. Digest identity is
strictly stronger than the float-equality the simulation gates assert:
two traces with the same digest are the same sequence of integers, so
*any* consumer — either pipeline kernel, any statistic, any future
analysis — is automatically unaffected by which generator produced
them.

The simulation half closes the loop end-to-end: column-backed chunks
fed zero-copy to the batch kernel produce results ``==`` the walked
reference, open- and closed-loop, streaming on and off, across chunk
sizes including the degenerate ones (1 and 7, via re-chunking) the
streaming generators themselves refuse.

The unit half covers the dual-representation :class:`TraceChunk`
itself: ``from_columns`` validation, lazy instruction materialization,
object->column projection round-trips, and ``is_columnar`` provenance
(projection must not masquerade as native columnar backing — the CI
fast-path guard depends on it).
"""

import dataclasses
from array import array

import pytest

from repro.cpu import _trace_build
from repro.cpu._trace_build import (
    trace_kernel_available,
    trace_kernel_unavailable_reason,
)
from repro.cpu.isa import OpClass
from repro.cpu.kernel import (
    KERNEL_BATCH,
    KERNEL_WALK,
    batch_kernel_available,
    chunk_trace,
    run_batch,
)
from repro.cpu.pipeline import Pipeline
from repro.cpu.simulator import Simulator
from repro.cpu.sleep import SleepRuntimeSpec
from repro.cpu.stream import (
    COLUMN_TYPECODES,
    TraceChunk,
    columns_chunk,
)
from repro.cpu.trace import TraceInstruction, trace_digest
from repro.cpu.workloads import (
    _PACKED_MEMO_SIZE,
    _packed_program,
    _walk_trace,
    benchmark_names,
    generate_trace,
    get_benchmark,
    iter_trace,
)
from repro.obs import metrics
from repro.scenarios import sample_scenarios
from repro.scenarios.phased import PhasedProfile

#: Closed-loop runtime with a nonzero wakeup latency so sleep decisions
#: really feed back into timing.
CLOSED_LOOP = SleepRuntimeSpec(policy="MaxSleep", wakeup_latency=2)


def _phased(name="columnar-mix"):
    return PhasedProfile(
        name,
        (get_benchmark("gcc"), get_benchmark("mcf"), get_benchmark("vortex")),
        (700, 333, 1009),
    )


#: Trace engines every digest gate runs on: whatever ``iter_trace``
#: picks here (the C walker where it builds), and the recorded
#: no-compiler fallback.
ENGINES = ("default", "fallback")

#: The reason the forced fallback reports.
FORCED_REASON = "trace kernel unavailable: forced by the test"


def _force_fallback(monkeypatch):
    """Make the C walker unusable, as a missing compiler does."""
    monkeypatch.setattr(
        _trace_build, "trace_kernel_unavailable_reason", lambda: FORCED_REASON
    )


def _use_engine(engine, monkeypatch):
    if engine == "fallback":
        _force_fallback(monkeypatch)


def _engines_since(before):
    """Trace engines and fallbacks recorded since a registry snapshot."""
    delta = metrics.registry().delta_since(before)
    return metrics.engines_used(delta.get("counters", {}))


def _drain(chunks):
    """Materialize a chunk stream, asserting it is column-backed."""
    instructions = []
    for chunk in chunks:
        assert chunk.is_columnar, "generator fell back to object chunks"
        instructions.extend(chunk.instructions)
    return instructions


# -- the digest-identity gate ---------------------------------------------------


class TestColumnarDigestGate:
    """Columnar generation == the reference walk, digest for digest."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("name", benchmark_names())
    def test_all_benchmarks(self, name, engine, monkeypatch):
        profile = get_benchmark(name)
        reference = trace_digest(list(_walk_trace(profile, 20_000, 7)))
        _use_engine(engine, monkeypatch)
        for chunk_size in (64, 1_024, 20_000):
            columnar = _drain(
                iter_trace(profile, 20_000, seed=7, chunk_size=chunk_size)
            )
            assert trace_digest(columnar) == reference, (name, chunk_size)

    @pytest.mark.skipif(
        not trace_kernel_available(),
        reason=f"no trace kernel: {trace_kernel_unavailable_reason()}",
    )
    def test_c_walker_matches_fallback(self, monkeypatch):
        """Direct C-vs-fallback comparison on one benchmark: the engine
        dispatch switches engines without changing the stream, and the
        fallback is recorded with its reason."""
        profile = get_benchmark("mcf")
        before = metrics.registry().snapshot()
        c_digest = trace_digest(_drain(iter_trace(profile, 30_000, seed=9)))
        assert _engines_since(before)["trace_engines"] == {"c": 1}
        _force_fallback(monkeypatch)
        before = metrics.registry().snapshot()
        py_digest = trace_digest(_drain(iter_trace(profile, 30_000, seed=9)))
        used = _engines_since(before)
        assert used["trace_engines"] == {"python": 1}
        assert used["fallbacks"] == [FORCED_REASON]
        assert c_digest == py_digest

    def test_generate_trace_matches_reference(self):
        profile = get_benchmark("gzip")
        reference = list(_walk_trace(profile, 10_000, 5))
        assert trace_digest(generate_trace(profile, 10_000, seed=5)) == (
            trace_digest(reference)
        )

    @pytest.mark.parametrize("engine", ENGINES)
    def test_sampled_scenarios(self, engine, monkeypatch):
        scenarios = sample_scenarios(4, seed=17)
        references = [
            trace_digest(generate_trace(scenario.profile, 8_000, seed=2))
            for scenario in scenarios
        ]
        _use_engine(engine, monkeypatch)
        for scenario, reference in zip(scenarios, references):
            columnar = _drain(iter_trace(scenario.profile, 8_000, seed=2))
            assert trace_digest(columnar) == reference

    @pytest.mark.parametrize("engine", ENGINES)
    def test_phased_composite(self, engine, monkeypatch):
        """The columnar member-relocating interleave == the object
        interleave (``build_trace``, on the default engine), chunk
        boundaries included."""
        profile = _phased()
        reference = profile.build_trace(25_000, seed=11)
        _use_engine(engine, monkeypatch)
        for chunk_size in (64, 1_024, 25_000):
            chunks = list(
                profile.iter_trace_chunks(25_000, seed=11, chunk_size=chunk_size)
            )
            sizes = [len(c) for c in chunks]
            assert sizes[:-1] == [chunk_size] * (len(sizes) - 1)
            assert 0 < sizes[-1] <= chunk_size
            columnar = _drain(chunks)
            assert trace_digest(columnar) == trace_digest(reference)


# -- the packed-program memo ----------------------------------------------------


_needs_trace_kernel = pytest.mark.skipif(
    not trace_kernel_available(),
    reason=f"no trace kernel: {trace_kernel_unavailable_reason()}",
)


class TestPackedProgramMemo:
    """The C walker's static tables are built once per (profile, seed)
    and shared across walks without changing a single trace slot; both
    engines cut chunks at the same boundaries."""

    @_needs_trace_kernel
    def test_results_equal_cold_and_warm(self):
        profile = get_benchmark("vortex")
        _packed_program.cache_clear()
        cold = Simulator(profile, seed=4, kernel=KERNEL_BATCH).run(6_000)
        cold_digest = trace_digest(_drain(iter_trace(profile, 6_000, seed=4)))
        assert _packed_program.cache_info().hits >= 1
        warm = Simulator(profile, seed=4, kernel=KERNEL_BATCH).run(6_000)
        warm_digest = trace_digest(_drain(iter_trace(profile, 6_000, seed=4)))
        assert warm.stats == cold.stats
        assert warm_digest == cold_digest
        assert cold_digest == trace_digest(list(_walk_trace(profile, 6_000, 4)))

    @_needs_trace_kernel
    def test_lru_stays_bounded(self):
        _packed_program.cache_clear()
        profile = get_benchmark("gzip")
        for seed in range(_PACKED_MEMO_SIZE + 5):
            next(iter(iter_trace(profile, 10, seed=seed)))
        info = _packed_program.cache_info()
        assert info.maxsize == _PACKED_MEMO_SIZE <= 16
        assert info.currsize == _PACKED_MEMO_SIZE

    @_needs_trace_kernel
    def test_same_name_profiles_do_not_collide(self):
        base = get_benchmark("gcc")
        twin = dataclasses.replace(base, num_blocks=base.num_blocks // 2)
        assert twin.name == base.name and twin != base
        _packed_program.cache_clear()
        for profile in (base, twin, base, twin):
            columnar = _drain(iter_trace(profile, 5_000, seed=3))
            reference = list(_walk_trace(profile, 5_000, 3))
            assert trace_digest(columnar) == trace_digest(reference)
        assert _packed_program.cache_info().currsize == 2

    @pytest.mark.parametrize(
        "length, chunk_size, sizes",
        [
            (100, 1_024, [100]),
            (768, 256, [256, 256, 256]),
            (1_000, 1_000, [1_000]),
            (1_001, 500, [500, 500, 1]),
        ],
    )
    @pytest.mark.parametrize("engine", ENGINES)
    def test_chunk_boundaries(self, length, chunk_size, sizes, engine, monkeypatch):
        profile = get_benchmark("mcf")
        _use_engine(engine, monkeypatch)
        before = metrics.registry().snapshot()
        for _ in range(2):  # memo cold, then warm
            chunks = list(iter_trace(profile, length, seed=8, chunk_size=chunk_size))
            assert [len(c) for c in chunks] == sizes
            assert [c.start for c in chunks] == [
                sum(sizes[:i]) for i in range(len(sizes))
            ]
            assert trace_digest(_drain(chunks)) == trace_digest(
                list(_walk_trace(profile, length, 8))
            )
        if engine == "fallback":
            used = _engines_since(before)
            assert used["trace_engines"] == {"python": 2}
            assert used["fallbacks"] == [FORCED_REASON]


# -- the simulation gate --------------------------------------------------------


@pytest.mark.skipif(
    not batch_kernel_available(),
    reason="no C compiler: the batch kernel cannot be built",
)
class TestColumnarSimulationGate:
    """Column-backed chunks through the batch kernel == the walk."""

    @pytest.mark.parametrize("name", benchmark_names())
    def test_all_benchmarks_open_loop(self, name):
        profile = get_benchmark(name)
        walk = Simulator(profile, seed=7, kernel=KERNEL_WALK).run(5_000)
        batch = Simulator(profile, seed=7, kernel=KERNEL_BATCH).run(5_000)
        assert batch.stats == walk.stats

    @pytest.mark.parametrize("name", ("gcc", "mcf", "health"))
    def test_closed_loop(self, name):
        profile = get_benchmark(name)
        walk = Simulator(
            profile, seed=3, sleep=CLOSED_LOOP, kernel=KERNEL_WALK
        ).run(4_000, warmup_instructions=400)
        batch = Simulator(
            profile, seed=3, sleep=CLOSED_LOOP, kernel=KERNEL_BATCH
        ).run(4_000, warmup_instructions=400)
        assert batch.stats == walk.stats

    @pytest.mark.parametrize("streaming", (False, True))
    def test_streaming_on_off(self, streaming):
        """Columnar chunks feed both regimes: materialized (object view
        of the columns) and streamed (chunks pulled on demand)."""
        profile = get_benchmark("vpr")
        walk = Simulator(
            profile, seed=5, streaming=streaming, kernel=KERNEL_WALK
        ).run(4_000)
        batch = Simulator(profile, seed=5, kernel=KERNEL_BATCH).run(4_000)
        assert batch.stats == walk.stats

    @pytest.mark.parametrize("chunk_size", (1, 7, 1_024, 6_000))
    def test_chunk_sizes_incl_degenerate(self, chunk_size):
        """Sizes the streaming generators refuse (1, 7) still reach the
        kernel via re-chunking; boundaries can never affect results."""
        trace = generate_trace(get_benchmark("gcc"), 6_000, seed=11)
        reference = Pipeline(list(trace)).run()
        batch = run_batch(chunk_trace(trace, chunk_size), len(trace))
        assert batch == reference

    def test_sampled_scenarios(self):
        for scenario in sample_scenarios(3, seed=17):
            walk = Simulator(
                scenario.profile, seed=2, kernel=KERNEL_WALK
            ).run(4_000)
            batch = Simulator(
                scenario.profile, seed=2, kernel=KERNEL_BATCH
            ).run(4_000)
            assert batch.stats == walk.stats

    def test_phased_composite(self):
        profile = _phased()
        walk = Simulator(profile, seed=11, kernel=KERNEL_WALK).run(6_000)
        batch = Simulator(profile, seed=11, kernel=KERNEL_BATCH).run(6_000)
        assert batch.stats == walk.stats


# -- TraceChunk machinery units -------------------------------------------------


def _columns(rows):
    """Columns for ``rows`` of (op, pc, dep1, dep2, address, taken, target)."""
    cols = list(zip(*rows))
    return tuple(
        array(code, values)
        for code, values in zip(COLUMN_TYPECODES, cols)
    )


class TestTraceChunkMachinery:
    ROWS = [
        (int(OpClass.INT_ALU), 0x400000, 0, 0, 0, 0, 0),
        (int(OpClass.LOAD), 0x400004, 1, 0, 0x30000000, 0, 0),
        (int(OpClass.BRANCH), 0x400008, 2, 1, 0, 1, 0x400100),
    ]

    def test_from_columns_is_column_backed(self):
        chunk = TraceChunk.from_columns(0, _columns(self.ROWS))
        assert chunk.is_columnar
        assert len(chunk) == 3
        assert chunk.end == 3

    def test_lazy_materialization(self):
        chunk = TraceChunk.from_columns(5, _columns(self.ROWS))
        instructions = chunk.instructions
        assert [i.op for i in instructions] == [OpClass.INT_ALU, OpClass.LOAD, OpClass.BRANCH]
        assert instructions[1].address == 0x30000000
        assert instructions[2].taken is True
        assert instructions[2].target == 0x400100
        # Materialization is cached, not recomputed per access.
        assert chunk.instructions is instructions

    def test_projection_round_trip(self):
        objects = [
            TraceInstruction(
                OpClass(op), pc, dep1=d1, dep2=d2, address=addr, taken=bool(taken), target=target
            )
            for op, pc, d1, d2, addr, taken, target in self.ROWS
        ]
        chunk = TraceChunk(0, objects)
        rebuilt = TraceChunk.from_columns(0, chunk.columns)
        assert rebuilt.instructions == objects
        # Projection is cached too.
        assert chunk.columns is chunk.columns

    def test_is_columnar_is_provenance_not_state(self):
        """Projecting an object chunk's columns must NOT flip it to
        columnar — the CI fast-path guard reads this flag to prove the
        generators produced columns natively."""
        chunk = TraceChunk(0, [TraceInstruction(OpClass.NOP, 0x400000)])
        assert not chunk.is_columnar
        _ = chunk.columns
        assert not chunk.is_columnar

    def test_columns_chunk_helper(self):
        chunk = columns_chunk(3, [int(OpClass.NOP)], [0x400000], [0], [0], [0], [0], [0])
        assert chunk.is_columnar
        assert chunk.start == 3
        assert chunk.instructions[0].op is OpClass.NOP

    def test_from_columns_validation(self):
        good = _columns(self.ROWS)
        with pytest.raises(ValueError):
            TraceChunk.from_columns(-1, good)
        with pytest.raises(ValueError):
            TraceChunk.from_columns(0, good[:6])  # wrong arity
        bad_type = list(good)
        bad_type[1] = array("i", [0, 0, 0])  # pc must be 'q'
        with pytest.raises(ValueError):
            TraceChunk.from_columns(0, tuple(bad_type))
        ragged = list(good)
        ragged[2] = array("q", [0])  # shorter than the others
        with pytest.raises(ValueError):
            TraceChunk.from_columns(0, tuple(ragged))
        with pytest.raises(ValueError):
            TraceChunk.from_columns(
                0, tuple(array(code) for code in COLUMN_TYPECODES)
            )  # empty

    def test_object_constructor_still_validates(self):
        with pytest.raises(ValueError):
            TraceChunk(-1, [TraceInstruction(OpClass.NOP, 0)])
        with pytest.raises(ValueError):
            TraceChunk(0, [])
