"""The out-of-order pipeline timing model.

A trace-driven model of the Table 2 machine: 4-wide fetch through an
8-entry fetch queue (with I-TLB/I-cache and the combining branch
predictor), in-order dispatch into a 128-entry ROB with split integer /
floating-point issue queues and load/store queues, register-file
occupancy limits, oldest-first issue to the round-robin integer FU pool
and the memory ports, and 4-wide in-order commit.

Trace-driven approximations (documented in DESIGN.md):

* Only the committed path executes; a mispredicted branch halts fetch
  until it resolves and then pays the redirect latency, rather than
  running wrong-path work. Wrong-path FU usage is therefore not modeled.
* The predictor trains at fetch (in-order, immediately), a standard
  trace-simulator simplification.
* Memory disambiguation is perfect: a load that overlaps an older
  in-flight store waits for that store and then forwards at L1-hit
  latency.
* Stores write the data cache at commit without stalling commit
  (a store buffer is assumed).

With a :class:`~repro.cpu.sleep.SleepRuntimeSpec` the integer FU pool
runs closed-loop: units sleep under online policy control, an acquire
that hits a sleeping unit triggers a wakeup and stalls until it
completes, and those cycles are attributed as ``wakeup_stall_cycles``.

The trace operand is any length-aware sequence. The model reads it
through two near-sequential cursors — the fetch index, and the
fetch-queue head during dispatch (which trails fetch by at most the
fetch-queue depth) — and every statistic (idle histograms, sleep
tallies, stall counts) accumulates online, cycle by cycle. A
:class:`~repro.cpu.stream.StreamingTrace` therefore drops in for the
materialized list unchanged: chunks are pulled on demand and evicted
behind the dispatch cursor, so 10M+-instruction runs execute in
bounded memory with bit-identical results.

This walked model is the *reference* implementation — the ``walk`` side
of the ``--kernel walk|batch`` knob, and the fallback when no C compiler
is available. :mod:`repro.cpu.kernel` runs the same machine as the
default array-batched C engine, ~10x faster on long traces;
the kernel-equivalence gate (``tests/test_kernel_equivalence.py``)
holds that engine to this one, ``==`` on every statistic. Behavioral
changes here must therefore land in ``_pipeline_kernel.c`` in the same
commit, or the gate fails.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Dict, List, Optional, Sequence

from repro.cpu.branch import CombiningPredictor
from repro.cpu.config import MachineConfig
from repro.cpu.fu import FunctionalUnitPool
from repro.cpu.isa import OpClass
from repro.cpu.memory import MemoryHierarchy
from repro.cpu.sleep import SleepRuntimeSpec
from repro.cpu.stats import FunctionalUnitUsage, SimulationStats
from repro.cpu.trace import TraceInstruction

# Fast int aliases for the hot loop.
_INT_ALU = int(OpClass.INT_ALU)
_INT_MULT = int(OpClass.INT_MULT)
_LOAD = int(OpClass.LOAD)
_STORE = int(OpClass.STORE)
_BRANCH = int(OpClass.BRANCH)
_CALL = int(OpClass.CALL)
_RETURN = int(OpClass.RETURN)
_FP_ALU = int(OpClass.FP_ALU)
_FP_MULT = int(OpClass.FP_MULT)
_NOP = int(OpClass.NOP)

_INT_FU_OPS = (_INT_ALU, _INT_MULT, _BRANCH, _CALL, _RETURN, _NOP)
_INT_PRODUCERS = (_INT_ALU, _INT_MULT, _LOAD, _CALL)
_FP_OPS = (_FP_ALU, _FP_MULT)

#: Architectural integer/FP registers the renamer must keep mapped; only
#: the remainder of each physical file is available for in-flight results.
ARCH_REGS = 32

_INT_MULT_LATENCY = 3
_FP_LATENCY = 4
_STORE_EXEC_LATENCY = 1


class _InflightOp:
    """Dynamic state of one in-flight instruction."""

    __slots__ = (
        "seq",
        "op",
        "address",
        "pending",
        "consumers",
        "done",
        "mispredicted",
        "forwarded",
    )

    def __init__(self, seq: int, op: int, address: int):
        self.seq = seq
        self.op = op
        self.address = address
        self.pending = 0
        self.consumers: List["_InflightOp"] = []
        self.done = False
        self.mispredicted = False
        self.forwarded = False


class DeadlockError(RuntimeError):
    """The pipeline made no progress within the cycle budget."""


class Pipeline:
    """One simulation instance; construct, then :meth:`run` once.

    ``trace`` may be a materialized list or a bounded-memory
    :class:`~repro.cpu.stream.StreamingTrace`; the model's access
    pattern (two monotone cursors, bounded lag) is exactly what the
    streaming view's sliding window supports.
    """

    def __init__(
        self,
        trace: Sequence[TraceInstruction],
        config: Optional[MachineConfig] = None,
        record_sequences: bool = True,
        sleep_spec: Optional[SleepRuntimeSpec] = None,
    ):
        if len(trace) == 0:
            raise ValueError("cannot simulate an empty trace")
        self.trace = trace
        self.config = config if config is not None else MachineConfig()
        self.memory = MemoryHierarchy.from_machine_config(self.config)
        self.predictor = CombiningPredictor(self.config.branch_predictor)
        self.sleep_spec = sleep_spec
        if sleep_spec is None:
            self.int_pool = FunctionalUnitPool(
                self.config.num_int_fus, record_sequences=record_sequences
            )
        else:
            # Closed-loop: the integer pool's units sleep under online
            # control and stall acquires on the wakeup latency. The FP
            # pool stays oblivious (the paper's study is integer FUs).
            self.int_pool = sleep_spec.build_pool(
                self.config.num_int_fus, record_sequences=record_sequences
            )
        self.fp_pool = FunctionalUnitPool(
            self.config.num_fp_fus, record_sequences=False
        )

        self.cycle = 0
        self._fetch_index = 0
        self._fetch_stalled_until = 0
        self._waiting_branch: Optional[_InflightOp] = None
        self._current_fetch_line = -1
        self._line_bits = self.config.l1_icache.line_bytes.bit_length() - 1

        self._fetch_queue: deque = deque()
        self._rob: deque = deque()
        self._inflight: Dict[int, _InflightOp] = {}
        self._last_store_by_addr: Dict[int, _InflightOp] = {}

        self._iq_int_free = self.config.int_issue_entries
        self._iq_fp_free = self.config.fp_issue_entries
        self._lq_free = self.config.load_queue_entries
        self._sq_free = self.config.store_queue_entries
        self._int_regs_free = max(1, self.config.int_physical_regs - ARCH_REGS)
        self._fp_regs_free = max(1, self.config.fp_physical_regs - ARCH_REGS)

        self._ready_int: List = []
        self._ready_mem: List = []
        self._ready_fp: List = []
        self._completions: List = []

        self.committed = 0
        self.fetch_stall_cycles = 0
        self.wakeup_stall_cycles = 0
        self._wakeup_blocked = False
        self._ran = False
        self._measure_start_cycle = 0
        self._committed_at_measure_start = 0
        self._counter_snapshot: Dict[str, int] = {}

    # -- stages (called once per cycle, in reverse pipeline order) ----------

    def _writeback(self) -> bool:
        cycle = self.cycle
        completions = self._completions
        progress = False
        while completions and completions[0][0] <= cycle:
            _, _, iop = heapq.heappop(completions)
            iop.done = True
            progress = True
            op = iop.op
            for consumer in iop.consumers:
                consumer.pending -= 1
                if consumer.pending == 0:
                    self._push_ready(consumer)
            iop.consumers = []
            if iop is self._waiting_branch:
                self._fetch_stalled_until = (
                    cycle + self.config.branch_mispredict_latency
                )
                self._waiting_branch = None
            if op == _STORE and self._last_store_by_addr.get(iop.address) is iop:
                # Future loads can hit the cache/store buffer directly.
                del self._last_store_by_addr[iop.address]
        return progress

    def _push_ready(self, iop: _InflightOp) -> None:
        op = iop.op
        if op == _LOAD or op == _STORE:
            heapq.heappush(self._ready_mem, (iop.seq, iop))
        elif op == _FP_ALU or op == _FP_MULT:
            heapq.heappush(self._ready_fp, (iop.seq, iop))
        else:
            heapq.heappush(self._ready_int, (iop.seq, iop))

    def _commit(self) -> bool:
        rob = self._rob
        width = self.config.commit_width
        committed_now = 0
        while rob and committed_now < width and rob[0].done:
            iop = rob.popleft()
            op = iop.op
            if op == _STORE:
                # Commit-time cache write (store buffer drains here).
                self.memory.data_access_latency(iop.address)
                self._sq_free += 1
            elif op == _LOAD:
                self._lq_free += 1
            if op in _INT_PRODUCERS:
                self._int_regs_free += 1
            elif op in _FP_OPS:
                self._fp_regs_free += 1
            del self._inflight[iop.seq]
            committed_now += 1
        self.committed += committed_now
        return committed_now > 0

    def _issue(self) -> bool:
        cycle = self.cycle
        width = self.config.issue_width
        ports_left = self.config.num_memory_ports
        issued = 0
        int_blocked = False
        fp_blocked = False
        ready_int = self._ready_int
        ready_mem = self._ready_mem
        ready_fp = self._ready_fp

        mem_blocked = False
        self._wakeup_blocked = False
        while issued < width:
            # Pick the globally oldest ready op whose resource class is
            # not exhausted this cycle (oldest-first scheduling).
            best_seq = None
            best_class = 0
            if ready_int and not int_blocked:
                best_seq = ready_int[0][0]
                best_class = 1
            if ready_mem and ports_left > 0 and not mem_blocked:
                seq = ready_mem[0][0]
                if best_seq is None or seq < best_seq:
                    best_seq = seq
                    best_class = 2
            if ready_fp and not fp_blocked:
                seq = ready_fp[0][0]
                if best_seq is None or seq < best_seq:
                    best_seq = seq
                    best_class = 3
            if best_seq is None:
                break

            if best_class == 1:
                iop = ready_int[0][1]
                latency = _INT_MULT_LATENCY if iop.op == _INT_MULT else 1
                unit = self.int_pool.acquire(cycle, latency)
                if unit is None:
                    int_blocked = True
                    if self.int_pool.blocked_on_wakeup:
                        self._wakeup_blocked = True
                    continue
                heapq.heappop(ready_int)
                self._iq_int_free += 1
                heapq.heappush(
                    self._completions, (cycle + latency, iop.seq, iop)
                )
            elif best_class == 2:
                # A memory op needs a port plus one cycle of an integer
                # unit for effective-address generation (the 21264
                # computes addresses in the integer pipes).
                agen_unit = self.int_pool.acquire(cycle, 1)
                if agen_unit is None:
                    mem_blocked = True
                    if self.int_pool.blocked_on_wakeup:
                        self._wakeup_blocked = True
                    continue
                _, iop = heapq.heappop(ready_mem)
                ports_left -= 1
                if iop.op == _LOAD:
                    if iop.forwarded:
                        latency = self.config.l1_dcache.hit_latency
                    else:
                        latency = self.memory.data_access_latency(iop.address)
                else:
                    latency = _STORE_EXEC_LATENCY
                heapq.heappush(
                    self._completions, (cycle + latency, iop.seq, iop)
                )
            else:
                iop = ready_fp[0][1]
                unit = self.fp_pool.acquire(cycle, _FP_LATENCY)
                if unit is None:
                    fp_blocked = True
                    continue
                heapq.heappop(ready_fp)
                self._iq_fp_free += 1
                heapq.heappush(
                    self._completions, (cycle + _FP_LATENCY, iop.seq, iop)
                )
            issued += 1
        if self._wakeup_blocked:
            # At least one ready op waited only on a sleeping/waking unit
            # this cycle — the closed-loop performance cost, attributed.
            self.wakeup_stall_cycles += 1
        return issued > 0

    def _dispatch(self) -> bool:
        width = self.config.decode_width
        rob_limit = self.config.reorder_buffer_entries
        fetch_queue = self._fetch_queue
        dispatched = 0
        while dispatched < width and fetch_queue:
            if len(self._rob) >= rob_limit:
                break
            iop = fetch_queue[0]
            op = iop.op
            # Structural resources.
            if op == _LOAD:
                if self._lq_free == 0 or self._int_regs_free == 0:
                    break
                self._lq_free -= 1
                self._int_regs_free -= 1
            elif op == _STORE:
                if self._sq_free == 0:
                    break
                self._sq_free -= 1
            elif op == _FP_ALU or op == _FP_MULT:
                if self._iq_fp_free == 0 or self._fp_regs_free == 0:
                    break
                self._iq_fp_free -= 1
                self._fp_regs_free -= 1
            else:
                if self._iq_int_free == 0:
                    break
                if op in (_INT_ALU, _INT_MULT, _CALL):
                    if self._int_regs_free == 0:
                        break
                    self._int_regs_free -= 1
                self._iq_int_free -= 1

            fetch_queue.popleft()
            self._rob.append(iop)
            self._inflight[iop.seq] = iop

            # Register dependencies via trace distances.
            instr = self.trace[iop.seq]
            for distance in (instr.dep1, instr.dep2):
                if distance:
                    producer = self._inflight.get(iop.seq - distance)
                    if producer is not None and not producer.done:
                        iop.pending += 1
                        producer.consumers.append(iop)
            # Memory disambiguation: wait on an older in-flight store to
            # the same address, then forward from it.
            if op == _LOAD:
                store = self._last_store_by_addr.get(iop.address)
                if store is not None and not store.done and store.seq < iop.seq:
                    iop.pending += 1
                    iop.forwarded = True
                    store.consumers.append(iop)
            elif op == _STORE:
                self._last_store_by_addr[iop.address] = iop

            if iop.pending == 0:
                self._push_ready(iop)
            dispatched += 1
        return dispatched > 0

    def _fetch(self) -> bool:
        if self._fetch_index >= len(self.trace):
            return False
        if self._waiting_branch is not None or self.cycle < self._fetch_stalled_until:
            self.fetch_stall_cycles += 1
            return False
        width = self.config.fetch_width
        queue_limit = self.config.fetch_queue_entries
        fetch_queue = self._fetch_queue
        trace = self.trace
        fetched = 0
        while (
            fetched < width
            and len(fetch_queue) < queue_limit
            and self._fetch_index < len(trace)
        ):
            instr = trace[self._fetch_index]
            line = instr.pc >> self._line_bits
            if line != self._current_fetch_line:
                latency = self.memory.instruction_fetch_latency(instr.pc)
                self._current_fetch_line = line
                hit_latency = self.config.l1_icache.hit_latency
                if latency > hit_latency:
                    # Miss: fetch resumes once the line arrives. The
                    # instruction itself is fetched then.
                    self._fetch_stalled_until = self.cycle + (latency - hit_latency)
                    break

            iop = _InflightOp(self._fetch_index, int(instr.op), instr.address)
            fetch_queue.append(iop)
            self._fetch_index += 1
            fetched += 1

            op = iop.op
            if op == _BRANCH:
                mispredicted = self.predictor.update(
                    instr.pc, instr.taken, instr.target
                )
                if mispredicted:
                    iop.mispredicted = True
                    self._waiting_branch = iop
                    break
                if instr.taken:
                    break  # a taken branch ends the fetch group
            elif op == _CALL:
                mispredicted = self.predictor.update_call(
                    instr.pc, instr.pc + 4, instr.target
                )
                if mispredicted:
                    iop.mispredicted = True
                    self._waiting_branch = iop
                break  # calls always redirect fetch
            elif op == _RETURN:
                mispredicted = self.predictor.update_return(instr.pc, instr.target)
                if mispredicted:
                    iop.mispredicted = True
                    self._waiting_branch = iop
                break  # returns always redirect fetch
        return fetched > 0

    # -- main loop -----------------------------------------------------------

    def run(
        self,
        max_cycles: Optional[int] = None,
        warmup_instructions: int = 0,
    ) -> SimulationStats:
        """Simulate the whole trace and return the measured statistics.

        ``warmup_instructions`` commits that many instructions before the
        measurement region begins: caches, TLBs, the branch predictor,
        and in-flight machine state stay warm, but every statistic is
        reset — mirroring the paper's use of mid-execution simulation
        windows ("80M-140M" etc.).
        """
        if self._ran:
            raise RuntimeError("pipeline instances are single-use")
        self._ran = True
        trace_length = len(self.trace)
        if warmup_instructions < 0 or warmup_instructions >= trace_length:
            raise ValueError(
                f"warmup must be in [0, {trace_length}), got {warmup_instructions}"
            )
        if max_cycles is None:
            # Generous: even fully serialized memory-bound traces finish
            # within ~memory-latency cycles per instruction.
            max_cycles = 400 * trace_length + 10_000
        warmup_pending = warmup_instructions > 0

        while self.committed < trace_length:
            progress = self._writeback()
            progress |= self._commit()
            progress |= self._issue()
            progress |= self._dispatch()
            progress |= self._fetch()

            if warmup_pending and self.committed >= warmup_instructions:
                self._end_warmup()
                warmup_pending = False

            if progress:
                self.cycle += 1
            else:
                self.cycle = self._next_event_cycle()
            if self.cycle > max_cycles:
                raise DeadlockError(
                    f"no forward progress by cycle {self.cycle} "
                    f"({self.committed}/{trace_length} committed)"
                )

        end_cycle = self.cycle
        self.int_pool.finalize(end_cycle)
        self.fp_pool.finalize(end_cycle)
        return self._build_stats(end_cycle)

    def _end_warmup(self) -> None:
        """Reset all statistics at the measurement-region boundary."""
        cycle = self.cycle
        self._measure_start_cycle = cycle
        self._committed_at_measure_start = self.committed
        self.int_pool.reset_statistics(cycle)
        self.fp_pool.reset_statistics(cycle)
        self.fetch_stall_cycles = 0
        self.wakeup_stall_cycles = 0
        memory = self.memory
        self._counter_snapshot = {
            "branch_lookups": self.predictor.lookups,
            "branch_mispredicts": (
                self.predictor.direction_mispredicts
                + self.predictor.btb_misses_on_taken
            ),
            "L1I.a": memory.l1_icache.accesses, "L1I.m": memory.l1_icache.misses,
            "L1D.a": memory.l1_dcache.accesses, "L1D.m": memory.l1_dcache.misses,
            "L2.a": memory.l2_cache.accesses, "L2.m": memory.l2_cache.misses,
            "ITLB.a": memory.itlb.accesses, "ITLB.m": memory.itlb.misses,
            "DTLB.a": memory.dtlb.accesses, "DTLB.m": memory.dtlb.misses,
        }

    def _next_event_cycle(self) -> int:
        """Skip idle stretches (long memory stalls) in one step."""
        candidates = []
        if self._completions:
            candidates.append(self._completions[0][0])
        fetch_possible = (
            self._fetch_index < len(self.trace)
            and self._waiting_branch is None
            and len(self._fetch_queue) < self.config.fetch_queue_entries
        )
        if fetch_possible:
            candidates.append(self._fetch_stalled_until)
        if self._ready_int or self._ready_mem:
            # Closed-loop: a pending wakeup completing is an event —
            # a ready op blocked on it can issue then.
            wake_ready = self.int_pool.next_wake_ready()
            if wake_ready is not None:
                candidates.append(wake_ready)
        if not candidates:
            # Nothing outstanding: only possible if the run is complete,
            # which the caller's loop condition would have caught.
            return self.cycle + 1
        target = min(candidates)
        # Credit the skipped cycles that the walked path would have
        # counted: ``_fetch`` records a stall for every visited cycle
        # with instructions left to fetch while either a mispredicted
        # branch is unresolved or fetch is stalled on a redirect/I-miss.
        # The skip must account those cycles identically or the stat
        # would depend on whether stretches were skipped or walked.
        if self._fetch_index < len(self.trace):
            if self._waiting_branch is not None:
                stall_horizon = target
            else:
                stall_horizon = min(target, self._fetch_stalled_until)
            self.fetch_stall_cycles += max(0, stall_horizon - self.cycle - 1)
        # Same invariance for wakeup stalls: if this cycle's issue pass
        # stalled ready ops on a waking unit, every skipped cycle up to
        # the next event would have stalled identically (pool state
        # cannot change in between), so account them now.
        if self._wakeup_blocked:
            self.wakeup_stall_cycles += max(0, target - self.cycle - 1)
        return max(self.cycle + 1, target)

    def _build_stats(self, end_cycle: int) -> SimulationStats:
        tallies = getattr(self.int_pool, "tallies", None)
        usage = [
            FunctionalUnitUsage(
                unit_id=unit,
                busy_cycles=self.int_pool.busy_cycles[unit],
                operations=self.int_pool.operations[unit],
                idle_histogram=self.int_pool.histograms[unit],
                idle_intervals=self.int_pool.interval_sequences[unit],
                sleep_tally=tallies[unit] if tallies is not None else None,
            )
            for unit in range(self.int_pool.num_units)
        ]
        memory = self.memory
        snapshot = self._counter_snapshot
        return SimulationStats(
            total_cycles=end_cycle - self._measure_start_cycle,
            committed_instructions=(
                self.committed - self._committed_at_measure_start
            ),
            fu_usage=usage,
            branch_lookups=self.predictor.lookups
            - snapshot.get("branch_lookups", 0),
            branch_mispredicts=(
                self.predictor.direction_mispredicts
                + self.predictor.btb_misses_on_taken
                - snapshot.get("branch_mispredicts", 0)
            ),
            fetch_stall_cycles=self.fetch_stall_cycles,
            wakeup_stall_cycles=self.wakeup_stall_cycles,
            cache_accesses={
                "L1I": memory.l1_icache.accesses - snapshot.get("L1I.a", 0),
                "L1D": memory.l1_dcache.accesses - snapshot.get("L1D.a", 0),
                "L2": memory.l2_cache.accesses - snapshot.get("L2.a", 0),
                "ITLB": memory.itlb.accesses - snapshot.get("ITLB.a", 0),
                "DTLB": memory.dtlb.accesses - snapshot.get("DTLB.a", 0),
            },
            cache_misses={
                "L1I": memory.l1_icache.misses - snapshot.get("L1I.m", 0),
                "L1D": memory.l1_dcache.misses - snapshot.get("L1D.m", 0),
                "L2": memory.l2_cache.misses - snapshot.get("L2.m", 0),
                "ITLB": memory.itlb.misses - snapshot.get("ITLB.m", 0),
                "DTLB": memory.dtlb.misses - snapshot.get("DTLB.m", 0),
            },
        )
