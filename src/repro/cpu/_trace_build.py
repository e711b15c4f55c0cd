"""Lazy build and ctypes bindings for the C columnar trace walker.

``_trace_kernel.c`` replays the dynamic CFG walk with bit-exact
CPython-``random`` draw semantics (the generator states are transplanted
from ``Random.getstate()``, so no seeding logic exists in C). Build and
caching follow the batch pipeline kernel exactly — lazy ``cc`` compile
into the hash-keyed cache via
:func:`repro.cpu._kernel_build.build_shared_library`, plain C ABI, no
``Python.h`` — and availability only ever affects speed: without a
compiler :mod:`repro.cpu.workloads` packs its reference walk into the
same chunks instead, digest-identical by the same CI gate.
"""

from __future__ import annotations

import ctypes
from pathlib import Path
from typing import Optional

from repro.cpu._kernel_build import build_shared_library

_SOURCE = Path(__file__).resolve().parent / "_trace_kernel.c"

#: Length of the double config block (C ``TF_*`` layout).
TRACE_CFG_F_LEN = 7
#: Length of the int64 config block (C ``TI_*`` layout).
TRACE_CFG_I_LEN = 10
#: Indirect-dispatch fan-out per branch site (C ``INDIRECT_TARGETS``).
INDIRECT_TARGETS = 6
#: MT19937 state words shipped per stream: 624 + the cursor index.
MT_STATE_LEN = 625

_lib: Optional[ctypes.CDLL] = None
_load_attempted = False
_load_error: Optional[str] = None


def _bind(lib: ctypes.CDLL) -> ctypes.CDLL:
    """Declare argument/return types for the trace-walker symbols."""
    i64 = ctypes.c_int64
    i32 = ctypes.c_int32
    p_f64 = ctypes.POINTER(ctypes.c_double)
    p_i64 = ctypes.POINTER(i64)
    p_i32 = ctypes.POINTER(i32)
    p_u8 = ctypes.POINTER(ctypes.c_uint8)
    p_u32 = ctypes.POINTER(ctypes.c_uint32)
    handle = ctypes.c_void_p

    lib.repro_trace_create.argtypes = [
        p_f64, p_i64,          # cfg_f, cfg_i
        p_u32, p_u32,          # walk / data MT states (625 words each)
        i32,                   # nblocks
        p_i64, p_i64,          # start_pc, term_pc
        p_u8, p_i32,           # terminator, call_target
        p_i32, p_i32,          # body_off, body_len
        p_u8, i64,             # body_ops, body_total
        p_u8, p_f64,           # br_is_loop, br_trip_mean
        p_i64, p_f64,          # br_fixed, br_taken_prob
        p_i32, p_i32,          # br_target, br_indirect
        p_u8,                  # br_has_ind
    ]
    lib.repro_trace_create.restype = handle
    lib.repro_trace_fill.argtypes = [
        handle, i64, p_u8, p_i64, p_i64, p_i64, p_i64, p_u8, p_i64,
    ]
    lib.repro_trace_fill.restype = i64
    lib.repro_trace_destroy.argtypes = [handle]
    lib.repro_trace_destroy.restype = None
    return lib


def trace_library() -> ctypes.CDLL:
    """The loaded trace-walker library, building it on first use.

    Raises ``RuntimeError`` when it cannot be built or loaded; the
    outcome is cached for the life of the process.
    """
    global _lib, _load_attempted, _load_error
    if _lib is not None:
        return _lib
    if _load_attempted and _load_error is not None:
        raise RuntimeError(_load_error)
    _load_attempted = True
    try:
        _lib = _bind(ctypes.CDLL(str(build_shared_library(_SOURCE))))
    except Exception as error:  # noqa: BLE001 - reason is surfaced to callers
        _load_error = f"trace kernel unavailable: {error}"
        raise RuntimeError(_load_error) from error
    return _lib


# -- array.array -> ctypes pointer casts ---------------------------------------

_P_F64 = ctypes.POINTER(ctypes.c_double)
_P_I64 = ctypes.POINTER(ctypes.c_int64)
_P_I32 = ctypes.POINTER(ctypes.c_int32)
_P_U8 = ctypes.POINTER(ctypes.c_uint8)
_P_U32 = ctypes.POINTER(ctypes.c_uint32)


def f64_ptr(column) -> "ctypes._Pointer":
    return ctypes.cast(column.buffer_info()[0], _P_F64)


def i64_ptr(column) -> "ctypes._Pointer":
    return ctypes.cast(column.buffer_info()[0], _P_I64)


def i32_ptr(column) -> "ctypes._Pointer":
    return ctypes.cast(column.buffer_info()[0], _P_I32)


def u8_ptr(column) -> "ctypes._Pointer":
    return ctypes.cast(column.buffer_info()[0], _P_U8)


def u32_ptr(column) -> "ctypes._Pointer":
    return ctypes.cast(column.buffer_info()[0], _P_U32)


def trace_kernel_available() -> bool:
    """Can the C trace walker be used here? (Builds on demand.)"""
    return trace_kernel_unavailable_reason() is None


def trace_kernel_unavailable_reason() -> Optional[str]:
    """Why the C trace walker cannot be used, or None when it can."""
    try:
        trace_library()
    except RuntimeError as error:
        return str(error)
    return None
