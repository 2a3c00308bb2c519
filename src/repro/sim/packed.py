"""Columnar (struct-of-arrays) workload representation.

A :class:`PackedWorkload` holds the exact information content of a
:class:`~repro.sim.workload.SimWorkload` — demand parameters, stream
segmentation, phase barriers — as flat NumPy columns instead of
per-demand Python objects.  It is the engine's only input format:
:meth:`repro.sim.engine.Engine.run` binds the columns to a machine model
with a handful of vectorised lookups, so a 10⁶-demand run built in
columns never materialises 10⁶ ``Demand`` instances.

Three ways to obtain one:

* :func:`pack_workload` compiles an existing object workload in one
  pass (what the engine does on entry with a ``SimWorkload``);
* :class:`PackedBuilder` builds columns directly with the same
  phase/stream/demand vocabulary as ``SimWorkload`` (what the
  application models' ``build_packed`` methods use);
* :meth:`PackedBuilder.compute_many` & friends append whole column
  chunks at once, and :meth:`PackedBuilder.rounds` appends *n* rounds
  of a fixed demand pattern (what the application models' chunk loops
  and the benchmarks use).

The builder keeps every bulk append as a chunk of NumPy arrays, and
scalar appends as a row tail that becomes one chunk when needed;
:meth:`PackedBuilder.build` makes one concatenate per column.  So a bulk
build costs a few array operations per call, not per demand.

String-valued demand attributes (workload class, paradigm, filesystem)
are interned into small name tables with integer codes per demand, so
machine-model resolution happens once per distinct name instead of once
per demand.  ``NetworkDemand.endpoint`` is not represented: the engine
ignores it (all simulated traffic shares one machine-level link).

Packed workloads are plain picklable dataclasses of arrays: they ship
through the run-service pool exactly like object workloads do.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, NamedTuple, Sequence

import numpy as np

from repro.core.errors import WorkloadError
from repro.sim.demands import (
    ComputeDemand,
    IODemand,
    MemoryDemand,
    NetworkDemand,
    SleepDemand,
)
from repro.sim.workload import SimWorkload
from repro.telemetry.spans import span

__all__ = ["PackedWorkload", "PackedBuilder", "RoundPart", "pack_workload"]

#: Demand-kind codes (the ``kinds`` column; shared with the engine).
KIND_COMPUTE, KIND_IO, KIND_MEM, KIND_NET, KIND_SLEEP = range(5)

_EMPTY_IDX = np.zeros(0, dtype=np.intp)
_EMPTY_I64 = np.zeros(0, dtype=np.int64)
_EMPTY_F64 = np.zeros(0, dtype=np.float64)
_INF = float("inf")


@dataclass
class PackedWorkload:
    """A complete workload as flat per-type demand columns.

    Demands are numbered globally in execution order (phase by phase,
    stream by stream, serially within a stream).  ``kinds[i]`` is the
    demand-kind code of demand *i*; the per-type ``*_pos`` arrays hold
    the global indices of that type's demands, and the companion columns
    hold their attributes in the same order.  Streams are contiguous
    index ranges ``[stream_first[s], stream_end[s])`` belonging to phase
    ``stream_phase[s]``; phases are barriers exactly as in
    :class:`~repro.sim.workload.SimWorkload`.
    """

    name: str
    base_rss: int = 2 << 20
    metadata: dict[str, Any] = field(default_factory=dict)

    n: int = 0
    n_phases: int = 0
    kinds: np.ndarray = field(default_factory=lambda: _EMPTY_I64)
    stream_phase: np.ndarray = field(default_factory=lambda: _EMPTY_IDX)
    stream_first: np.ndarray = field(default_factory=lambda: _EMPTY_IDX)
    stream_end: np.ndarray = field(default_factory=lambda: _EMPTY_IDX)

    #: Interned string tables; per-demand columns store codes into these.
    class_names: tuple[str, ...] = ()
    paradigm_names: tuple[str, ...] = ()
    fs_names: tuple[str, ...] = ()

    # compute columns
    c_pos: np.ndarray = field(default_factory=lambda: _EMPTY_IDX)
    c_instr: np.ndarray = field(default_factory=lambda: _EMPTY_F64)
    #: Calibrated cycle targets; NaN encodes "derive from instructions".
    c_cc: np.ndarray = field(default_factory=lambda: _EMPTY_F64)
    c_class: np.ndarray = field(default_factory=lambda: _EMPTY_IDX)
    c_fpi: np.ndarray = field(default_factory=lambda: _EMPTY_F64)
    c_threads: np.ndarray = field(default_factory=lambda: _EMPTY_I64)
    c_paradigm: np.ndarray = field(default_factory=lambda: _EMPTY_IDX)
    #: Stall-ratio overrides; NaN encodes "use the class default".
    c_sr: np.ndarray = field(default_factory=lambda: _EMPTY_F64)

    # io columns
    i_pos: np.ndarray = field(default_factory=lambda: _EMPTY_IDX)
    i_read: np.ndarray = field(default_factory=lambda: _EMPTY_I64)
    i_written: np.ndarray = field(default_factory=lambda: _EMPTY_I64)
    i_block: np.ndarray = field(default_factory=lambda: _EMPTY_I64)
    i_fs: np.ndarray = field(default_factory=lambda: _EMPTY_IDX)

    # memory columns
    m_pos: np.ndarray = field(default_factory=lambda: _EMPTY_IDX)
    m_alloc: np.ndarray = field(default_factory=lambda: _EMPTY_I64)
    m_free: np.ndarray = field(default_factory=lambda: _EMPTY_I64)
    m_block: np.ndarray = field(default_factory=lambda: _EMPTY_I64)

    # network columns
    net_pos: np.ndarray = field(default_factory=lambda: _EMPTY_IDX)
    net_sent: np.ndarray = field(default_factory=lambda: _EMPTY_I64)
    net_recv: np.ndarray = field(default_factory=lambda: _EMPTY_I64)
    net_block: np.ndarray = field(default_factory=lambda: _EMPTY_I64)

    # sleep columns
    s_pos: np.ndarray = field(default_factory=lambda: _EMPTY_IDX)
    s_secs: np.ndarray = field(default_factory=lambda: _EMPTY_F64)

    @property
    def n_demands(self) -> int:
        """Total number of demands (mirrors ``SimWorkload.n_demands``)."""
        return self.n

    @property
    def empty(self) -> bool:
        """Whether the workload holds no demands."""
        return self.n == 0

    def column_arrays(self) -> dict[str, np.ndarray]:
        """All array columns by field name (tests compare these)."""
        return {
            name: getattr(self, name)
            for name in (
                "kinds", "stream_phase", "stream_first", "stream_end",
                "c_pos", "c_instr", "c_cc", "c_class", "c_fpi",
                "c_threads", "c_paradigm", "c_sr",
                "i_pos", "i_read", "i_written", "i_block", "i_fs",
                "m_pos", "m_alloc", "m_free", "m_block",
                "net_pos", "net_sent", "net_recv", "net_block",
                "s_pos", "s_secs",
            )
        }

    def nbytes(self) -> int:
        """Total array payload size in bytes (the columnar footprint)."""
        return sum(column.nbytes for column in self.column_arrays().values())


class _Interner:
    """String → small-int code table preserving first-seen order."""

    __slots__ = ("codes",)

    def __init__(self) -> None:
        self.codes: dict[str, int] = {}

    def __call__(self, name: str) -> int:
        code = self.codes.get(name)
        if code is None:
            code = len(self.codes)
            self.codes[name] = code
        return code

    def names(self) -> tuple[str, ...]:
        return tuple(self.codes)

    def remap(self, other: Sequence[str]) -> np.ndarray:
        """Code-translation array for another table's codes into this one."""
        return np.asarray([self(name) for name in other], dtype=np.intp)


class _Columns:
    """One demand kind's columns under construction.

    Bulk appends land as array chunks; scalar appends go to a cheap row
    tail (one tuple per demand) that becomes a chunk when a bulk append
    follows or the workload is built.  Chunks hold arrays no caller
    keeps, so a lone chunk is the finished column as it stands.
    """

    __slots__ = ("dtypes", "chunks", "rows")

    def __init__(self, dtypes: tuple[np.dtype, ...]) -> None:
        self.dtypes = dtypes
        self.chunks: list[tuple[np.ndarray, ...]] = []
        self.rows: list[tuple] = []

    def add(self, chunk: tuple[np.ndarray, ...]) -> None:
        self._flush()
        self.chunks.append(chunk)

    def _flush(self) -> None:
        if self.rows:
            self.chunks.append(tuple(
                np.array(column, dtype=dtype)
                for column, dtype in zip(zip(*self.rows), self.dtypes)
            ))
            self.rows.clear()

    def arrays(self) -> tuple[np.ndarray, ...] | None:
        """Every column as one array (one concatenate each); None if empty."""
        self._flush()
        if len(self.chunks) <= 1:
            return self.chunks[0] if self.chunks else None
        return tuple(
            np.concatenate(parts, dtype=dtype)
            for parts, dtype in zip(zip(*self.chunks), self.dtypes)
        )


_F64, _I64, _IDX = np.dtype(np.float64), np.dtype(np.int64), np.dtype(np.intp)

#: Value rules of the bulk appends: (predicate over a column, wording).
#: Comparisons are False for NaN, so a rule rejects NaN unless it says
#: otherwise; none of them warns on NaN input.
_FINITE_NONNEG = (lambda a: (a >= 0) & (a < np.inf), "finite and non-negative")
_FINITE = (np.isfinite, "finite")
_NONNEG = (lambda a: a >= 0, "non-negative")
_NONNEG_OR_NAN = (lambda a: ~(a < 0), "non-negative")
_POSITIVE = (lambda a: a > 0, "positive")


class _Kind(NamedTuple):
    """Bulk-append schema of one demand kind."""

    code: int
    pos: str
    #: (column, field, dtype or name-table field, default, rule); a
    #: ``None`` default is stored as NaN ("unset") and skips the rule.
    columns: tuple[tuple[str, str, Any, Any, Any], ...]


_KINDS: dict[str, _Kind] = {
    "compute": _Kind(KIND_COMPUTE, "c_pos", (
        ("c_instr", "instructions", _F64, 0.0, _FINITE_NONNEG),
        ("c_cc", "calibrated_cycles", _F64, None, _FINITE),
        ("c_class", "workload_class", "class_names", "app.generic", None),
        ("c_fpi", "flops_per_instruction", _F64, 0.0,
         (lambda a: (a >= 0) & (a <= 1), "in [0, 1]")),
        ("c_threads", "threads", _I64, 1, (lambda a: a >= 1, ">= 1")),
        ("c_paradigm", "paradigm", "paradigm_names", "serial", None),
        ("c_sr", "stall_ratio", _F64, None, _NONNEG_OR_NAN),
    )),
    "io": _Kind(KIND_IO, "i_pos", (
        ("i_read", "bytes_read", _I64, 0, _NONNEG),
        ("i_written", "bytes_written", _I64, 0, _NONNEG),
        ("i_block", "block_size", _I64, 1 << 20, _POSITIVE),
        ("i_fs", "filesystem", "fs_names", "local", None),
    )),
    "memory": _Kind(KIND_MEM, "m_pos", (
        ("m_alloc", "allocate", _I64, 0, _NONNEG),
        ("m_free", "free", _I64, 0, _NONNEG),
        ("m_block", "block_size", _I64, 1 << 20, _POSITIVE),
    )),
    "network": _Kind(KIND_NET, "net_pos", (
        ("net_sent", "bytes_sent", _I64, 0, _NONNEG),
        ("net_recv", "bytes_received", _I64, 0, _NONNEG),
        ("net_block", "block_size", _I64, 64 << 10, _POSITIVE),
    )),
    "sleep": _Kind(KIND_SLEEP, "s_pos", (
        ("s_secs", "seconds", _F64, 0.0, _FINITE_NONNEG),
    )),
}


#: Per kind, the dtypes of a ``_Columns`` chunk: positions, then columns.
_CHUNK_DTYPES = {
    kind: (_IDX,) + tuple(
        _IDX if isinstance(dtype, str) else dtype for _, _, dtype, _, _ in spec.columns
    )
    for kind, spec in _KINDS.items()
}


def _cast(array: np.ndarray, dtype: np.dtype, field: str) -> np.ndarray:
    """``array`` as ``dtype``, refusing floats that would wrap in int64."""
    if dtype.kind == "i" and array.dtype.kind == "f":
        if not (np.abs(array) < 2.0 ** 63).all():
            raise WorkloadError(f"{field} must be finite and fit in int64")
    return array.astype(dtype, copy=False)


def _per_round(value: Any, count: int) -> np.ndarray:
    """``value`` as a length-``count`` array (a single value repeats)."""
    array = np.asarray(value)
    if array.shape == (count,):
        return array
    if array.size == 1:
        return array.reshape(()).repeat(count)
    raise WorkloadError(f"expected {count} values, got shape {array.shape}")


class RoundPart(NamedTuple):
    """One slot of the pattern :meth:`PackedBuilder.rounds` repeats.

    ``kind`` names a scalar builder method (``"compute"``, ``"io"``, ...)
    and ``fields`` its keyword arguments: a scalar repeats, an array
    gives one value per round.  ``where`` is an optional per-round mask;
    the part is skipped in rounds where it is False.
    """

    kind: str
    fields: dict[str, Any]
    where: Any = None


class PackedBuilder:
    """Incremental constructor of :class:`PackedWorkload` columns.

    Mirrors the object API's building vocabulary::

        b = PackedBuilder("my-app")
        b.phase("startup")
        b.stream("main")
        b.compute(instructions=1e9, workload_class="app.md")
        b.io(bytes_read=1 << 20, filesystem="lustre")
        packed = b.build()

    ``phase``/``stream`` only delimit segments (names are accepted for
    symmetry with ``SimWorkload`` but not stored).  Appending a demand
    with no open stream opens one implicitly (and a phase if needed).
    The ``*_many`` methods append whole column chunks to the current
    stream in one call, and :meth:`rounds` appends a repeated demand
    pattern the same way.
    """

    def __init__(
        self,
        name: str,
        base_rss: int = 2 << 20,
        metadata: dict[str, Any] | None = None,
    ) -> None:
        self.name = name
        self.base_rss = base_rss
        self.metadata = dict(metadata) if metadata else {}
        self._n = 0
        self._n_phases = 0
        self._stream_phase: list[int] = []
        self._stream_first: list[int] = []
        self._stream_end: list[int] = []
        self._stream_open = False
        self._classes = _Interner()
        self._paradigms = _Interner()
        self._fs = _Interner()
        self._tables = {
            "class_names": self._classes,
            "paradigm_names": self._paradigms,
            "fs_names": self._fs,
        }
        self._columns = {kind: _Columns(dtypes) for kind, dtypes in _CHUNK_DTYPES.items()}
        self._c = self._columns["compute"].rows
        self._i = self._columns["io"].rows
        self._m = self._columns["memory"].rows
        self._net = self._columns["network"].rows
        self._s = self._columns["sleep"].rows

    # -- segmentation -------------------------------------------------------

    def phase(self, name: str = "") -> "PackedBuilder":
        """Open a new phase (a barrier); returns self for chaining."""
        del name
        self._close_stream()
        self._n_phases += 1
        return self

    def stream(self, name: str = "") -> "PackedBuilder":
        """Open a new stream in the current phase; returns self."""
        del name
        if self._n_phases == 0:
            self._n_phases = 1
        self._close_stream()
        self._stream_phase.append(self._n_phases - 1)
        self._stream_first.append(self._n)
        self._stream_open = True
        return self

    def _close_stream(self) -> None:
        if self._stream_open:
            self._stream_end.append(self._n)
            self._stream_open = False

    def _slot(self) -> int:
        """Global index for the next demand (opens segments as needed)."""
        if not self._stream_open:
            self.stream()
        index = self._n
        self._n = index + 1
        return index

    def _bulk_slots(self, count: int) -> int:
        if not self._stream_open:
            self.stream()
        first = self._n
        self._n = first + count
        return first

    # -- scalar appends -----------------------------------------------------

    def compute(
        self,
        instructions: float = 0.0,
        workload_class: str = "app.generic",
        flops_per_instruction: float = 0.0,
        threads: int = 1,
        paradigm: str = "serial",
        calibrated_cycles: float | None = None,
        stall_ratio: float | None = None,
    ) -> "PackedBuilder":
        """Append one compute demand (``ComputeDemand`` semantics)."""
        if not 0.0 <= instructions < _INF:
            raise WorkloadError("instructions must be finite and non-negative")
        if threads < 1:
            raise WorkloadError("threads must be >= 1")
        if not (0.0 <= flops_per_instruction <= 1.0):
            raise WorkloadError("flops_per_instruction must be in [0, 1]")
        if calibrated_cycles is not None and not -_INF < calibrated_cycles < _INF:
            raise WorkloadError("calibrated_cycles must be finite")
        if stall_ratio is not None and stall_ratio < 0:
            raise WorkloadError("stall_ratio must be non-negative")
        self._c.append((
            self._slot(),
            float(instructions),
            np.nan if calibrated_cycles is None else float(calibrated_cycles),
            self._classes(workload_class),
            float(flops_per_instruction),
            int(threads),
            self._paradigms(paradigm),
            np.nan if stall_ratio is None else float(stall_ratio),
        ))
        return self

    def io(
        self,
        bytes_read: int = 0,
        bytes_written: int = 0,
        block_size: int = 1 << 20,
        filesystem: str = "local",
    ) -> "PackedBuilder":
        """Append one I/O demand (``IODemand`` semantics)."""
        if bytes_read < 0 or bytes_written < 0:
            raise WorkloadError("I/O byte counts must be non-negative")
        if block_size <= 0:
            raise WorkloadError("block size must be positive")
        self._i.append((
            self._slot(), int(bytes_read), int(bytes_written), int(block_size),
            self._fs(filesystem),
        ))
        return self

    def memory(
        self, allocate: int = 0, free: int = 0, block_size: int = 1 << 20
    ) -> "PackedBuilder":
        """Append one memory demand (``MemoryDemand`` semantics)."""
        if allocate < 0 or free < 0:
            raise WorkloadError("memory byte counts must be non-negative")
        if block_size <= 0:
            raise WorkloadError("block size must be positive")
        self._m.append((self._slot(), int(allocate), int(free), int(block_size)))
        return self

    def network(
        self, bytes_sent: int = 0, bytes_received: int = 0, block_size: int = 64 << 10
    ) -> "PackedBuilder":
        """Append one network demand (``NetworkDemand`` semantics)."""
        if bytes_sent < 0 or bytes_received < 0:
            raise WorkloadError("network byte counts must be non-negative")
        if block_size <= 0:
            raise WorkloadError("block size must be positive")
        self._net.append(
            (self._slot(), int(bytes_sent), int(bytes_received), int(block_size))
        )
        return self

    def sleep(self, seconds: float) -> "PackedBuilder":
        """Append one sleep demand (``SleepDemand`` semantics)."""
        if not 0.0 <= seconds < _INF:
            raise WorkloadError("sleep duration must be finite and non-negative")
        self._s.append((self._slot(), float(seconds)))
        return self

    # -- bulk appends -------------------------------------------------------
    #
    # Every bulk path runs through ``_validate`` (broadcast, rules) and
    # ``_resolve`` (name interning) into one array chunk per kind.

    def compute_many(self, instructions: object, **fields: Any) -> "PackedBuilder":
        """Append a chunk of compute demands.

        ``instructions`` and the other fields of :meth:`compute` may be
        arrays or scalars; they broadcast against each other like NumPy.
        ``workload_class`` and ``paradigm`` name the whole chunk, and a
        NaN ``stall_ratio`` means "class default", like ``None``.
        """
        return self._append("compute", None, dict(fields, instructions=instructions))

    def io_many(self, *, count: int | None = None, **fields: Any) -> "PackedBuilder":
        """Append a chunk of I/O demands (the fields of :meth:`io`, as
        arrays or scalars broadcast like NumPy; ``count`` fixes the length)."""
        return self._append("io", count, fields)

    def memory_many(self, *, count: int | None = None, **fields: Any) -> "PackedBuilder":
        """Append a chunk of memory demands (fields of :meth:`memory`, as in
        :meth:`io_many`)."""
        return self._append("memory", count, fields)

    def network_many(self, *, count: int | None = None, **fields: Any) -> "PackedBuilder":
        """Append a chunk of network demands (fields of :meth:`network`, as
        in :meth:`io_many`)."""
        return self._append("network", count, fields)

    def rounds(self, count: int, *parts: RoundPart) -> "PackedBuilder":
        """Append ``count`` rounds of a fixed demand pattern in one call.

        Round ``r`` appends one demand per part, in part order, skipping
        the parts whose ``where`` mask is False at ``r``; the columns equal
        those of that scalar loop.  For example, ``n`` compute chunks each
        followed by an I/O demand when that chunk has bytes to write::

            b.rounds(n, RoundPart("compute", {"instructions": per_chunk}),
                     RoundPart("io", {"bytes_written": sizes}, sizes > 0))
        """
        if count < 0:
            raise WorkloadError("rounds count must be non-negative")
        mask = np.ones((count, len(parts)), dtype=bool)
        for j, part in enumerate(parts):
            if part.where is not None:
                mask[:, j] = part.where
        offsets = (np.cumsum(mask) - 1).reshape(mask.shape)
        placed = []
        for j, part in enumerate(parts):
            keep = mask[:, j]
            fields = part.fields if part.where is None else {
                field: value if isinstance(value, str) or np.ndim(value) == 0
                else _per_round(value, count)[keep]
                for field, value in part.fields.items()
            }
            size, values = self._validate(part.kind, int(keep.sum()), fields)
            if size:
                placed.append((offsets[keep, j], part.kind, values))
        if not placed:
            return self
        first = self._bulk_slots(int(offsets[-1, -1]) + 1)
        by_kind: dict[str, list[tuple[np.ndarray, ...]]] = {}
        # Intern names in the order the scalar loop would first meet them.
        for offset, kind, values in sorted(placed, key=lambda item: item[0][0]):
            by_kind.setdefault(kind, []).append(
                self._resolve(kind, offset + first, values)
            )
        for kind, chunks in by_kind.items():
            if len(chunks) > 1:  # parts of one kind interleave by position
                merged = [np.concatenate(column) for column in zip(*chunks)]
                order = np.argsort(merged[0])
                chunks = [tuple(column[order] for column in merged)]
            self._columns[kind].add(chunks[0])
        return self

    def _append(self, kind: str, count: int | None, fields: dict) -> "PackedBuilder":
        size, values = self._validate(kind, count, fields)
        if size:
            first = self._bulk_slots(size)
            pos = np.arange(first, first + size, dtype=np.intp)
            self._columns[kind].add(self._resolve(kind, pos, values))
        return self

    def _validate(self, kind: str, count: int | None, fields: dict) -> tuple[int, list]:
        """The chunk length (``count``, or the arguments' broadcast length)
        and per schema column a checked array, or the name of a name field.
        Nothing is interned or appended, so a rejected call leaves no trace."""
        spec = _KINDS.get(kind)
        if spec is None:
            raise WorkloadError(f"unknown demand kind {kind!r}")
        unknown = set(fields) - {field for _, field, _, _, _ in spec.columns}
        if unknown:
            raise WorkloadError(f"unknown {kind} fields: {sorted(unknown)}")
        values: list = []
        for _, field, dtype, default, _ in spec.columns:
            value = fields.get(field, default)
            if isinstance(dtype, str):
                value = str(value)
            elif value is not None:
                # A private flat copy: callers may reuse their arrays.
                value = np.array(value).ravel()
            values.append(value)
        if count is None:
            count = np.broadcast_shapes(
                *(value.shape for value in values if isinstance(value, np.ndarray))
            )[0]
        for index, (_, field, dtype, _, rule) in enumerate(spec.columns):
            value = values[index]
            if value is None:
                values[index] = np.full(count, np.nan)
            elif not isinstance(dtype, str):
                # Rules see the values as given, before any int truncation.
                if count and rule is not None and not rule[0](value).all():
                    raise WorkloadError(f"{field} must be {rule[1]}")
                values[index] = _per_round(_cast(value, dtype, field), count)
        return count, values

    def _resolve(self, kind: str, pos: np.ndarray, values: list) -> tuple:
        """One ``_Columns`` chunk: positions, then columns with names interned."""
        return (pos,) + tuple(
            np.intp(self._tables[dtype](value)).repeat(pos.size)
            if isinstance(dtype, str) else value
            for value, (_, _, dtype, _, _) in zip(values, _KINDS[kind].columns)
        )

    # -- composition --------------------------------------------------------

    def append_flat(self, inner: PackedWorkload) -> "PackedBuilder":
        """Append every demand of ``inner`` serially to the current stream.

        This is the flattening composition the DAG skeleton uses: the
        inner workload's phase/stream structure is discarded and its
        demands run serially, in global demand order, as part of the
        current stream.  Name tables are re-interned into this builder.
        The columns were checked when ``inner`` was built, so they are
        appended as array chunks without a second check.
        """
        if inner.n == 0:
            return self
        first = self._bulk_slots(inner.n)
        for kind, spec in _KINDS.items():
            pos = getattr(inner, spec.pos)
            if pos.size:
                self._columns[kind].add((pos + first,) + tuple(
                    self._tables[dtype].remap(getattr(inner, dtype))[
                        getattr(inner, column)
                    ]
                    if isinstance(dtype, str) else getattr(inner, column).copy()
                    for column, _, dtype, _, _ in spec.columns
                ))
        return self

    # -- finalisation -------------------------------------------------------

    @property
    def n_demands(self) -> int:
        """Demands appended so far."""
        return self._n

    def build(self) -> PackedWorkload:
        """Freeze the columns into an immutable-by-convention workload.

        Each column is one concatenate over its chunks; the ``kinds``
        column is scattered from the per-kind positions.  Kinds with no
        demands keep the workload's empty defaults.
        """
        self._close_stream()
        columns: dict[str, np.ndarray] = {}
        kinds = np.empty(self._n, dtype=np.int64)
        for kind, spec in _KINDS.items():
            chunk = self._columns[kind].arrays()
            if chunk is None:
                continue
            pos, *arrays = chunk
            kinds[pos] = spec.code
            columns[spec.pos] = pos
            columns.update(zip((column for column, *_ in spec.columns), arrays))
        return PackedWorkload(
            name=self.name,
            base_rss=self.base_rss,
            metadata=self.metadata,
            n=self._n,
            n_phases=self._n_phases,
            kinds=kinds,
            stream_phase=np.asarray(self._stream_phase, dtype=np.intp),
            stream_first=np.asarray(self._stream_first, dtype=np.intp),
            stream_end=np.asarray(self._stream_end, dtype=np.intp),
            class_names=self._classes.names(),
            paradigm_names=self._paradigms.names(),
            fs_names=self._fs.names(),
            **columns,
        )


def pack_workload(workload: SimWorkload) -> PackedWorkload:
    """Compile an object workload into columns (one Python pass).

    Demand order, stream segmentation and attribute values are preserved
    exactly; :meth:`~repro.sim.engine.Engine.run` calls this on every
    object workload, so both forms take the same execution path.
    """
    with span("engine.pack", workload=workload.name) as sp:
        builder = PackedBuilder(
            workload.name,
            base_rss=workload.base_rss,
            metadata=dict(workload.metadata),
        )
        for phase in workload.phases:
            builder.phase()
            for stream in phase.streams:
                builder.stream()
                for demand in stream.demands:
                    if isinstance(demand, ComputeDemand):
                        builder.compute(
                            instructions=demand.instructions,
                            workload_class=demand.workload_class,
                            flops_per_instruction=demand.flops_per_instruction,
                            threads=demand.threads,
                            paradigm=demand.paradigm,
                            calibrated_cycles=demand.calibrated_cycles,
                            stall_ratio=demand.stall_ratio,
                        )
                    elif isinstance(demand, IODemand):
                        builder.io(
                            bytes_read=demand.bytes_read,
                            bytes_written=demand.bytes_written,
                            block_size=demand.block_size,
                            filesystem=demand.filesystem,
                        )
                    elif isinstance(demand, MemoryDemand):
                        builder.memory(
                            allocate=demand.allocate,
                            free=demand.free,
                            block_size=demand.block_size,
                        )
                    elif isinstance(demand, NetworkDemand):
                        builder.network(
                            bytes_sent=demand.bytes_sent,
                            bytes_received=demand.bytes_received,
                            block_size=demand.block_size,
                        )
                    elif isinstance(demand, SleepDemand):
                        builder.sleep(demand.seconds)
                    else:
                        raise WorkloadError(
                            f"unsupported demand type {type(demand).__name__}"
                        )
        packed = builder.build()
        sp.set(demands=packed.n, nbytes=packed.nbytes())
    return packed
