"""Request classes and per-request demand synthesis for traffic runs.

A :class:`RequestClass` names one kind of request (e.g. ``web``, ``api``,
``batch``) as a :class:`~repro.predict.models.DemandVector` plus a
sampling weight and a per-request size dispersion.  A :class:`RequestMix`
draws seeded ``(class index, size factor)`` pairs for each arrival batch:
class indices from the normalised weights, size factors from a mean-1
lognormal whose coefficient of variation is the class's ``size_cv``
(``size_cv == 0`` yields exactly 1.0).

Draw counts per call are fixed by construction (``n`` uniforms, then —
iff any class disperses sizes — ``n`` normals), so the RNG bit stream is
identical no matter how arrivals are chunked, and :meth:`state_dict`
checkpoints resume mid-trace exactly.

:func:`batch_for_class` turns a run of same-class requests into a
:class:`~repro.sim.packed.PackedWorkload` by direct column construction:
each request contributes the same fixed demand-kind pattern (the
``DemandVector.to_demands`` order — compute, memory, I/O, network,
sleep — restricted to the vector's non-zero components), with the
consumption columns scaled by the per-request size factors.  Because the
pattern is per-request and the requests keep arrival order, the packed
columns for any chunking of the same request sequence concatenate to the
same demand sequence — the property the traffic plane's ledger
chunking-invariance golden rests on.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.predict.models import DemandVector
from repro.sim.packed import (
    KIND_COMPUTE,
    KIND_IO,
    KIND_MEM,
    KIND_NET,
    KIND_SLEEP,
    PackedWorkload,
)

__all__ = [
    "RequestClass",
    "RequestMix",
    "batch_for_class",
    "default_mix",
    "restore_mix",
    "unit_seconds",
]


@dataclass(frozen=True)
class RequestClass:
    """One request type: demand vector + mix weight + size dispersion."""

    name: str
    weight: float
    vector: DemandVector
    size_cv: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("request class name must be non-empty")
        if self.weight <= 0:
            raise ValueError(f"request class weight must be positive, got {self.weight}")
        if self.size_cv < 0:
            raise ValueError(f"size_cv must be non-negative, got {self.size_cv}")
        if self.vector.empty:
            raise ValueError(f"request class {self.name!r} has an empty demand vector")


class RequestMix:
    """Seeded sampler of (class, size factor) pairs per arrival batch."""

    def __init__(self, classes: Sequence[RequestClass], seed: int = 0) -> None:
        if not classes:
            raise ValueError("a request mix needs at least one class")
        names = [cls.name for cls in classes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate request class names: {names}")
        self.classes: Tuple[RequestClass, ...] = tuple(classes)
        self.seed = int(seed)
        # Two independent streams (class picks vs size factors): each
        # consumes exactly n values per draw(n), so the bit-stream
        # position depends only on the cumulative request count — never
        # on how the trace is chunked.  One interleaved stream would
        # break chunking invariance.
        self._rng = np.random.Generator(np.random.PCG64(self.seed))
        self._rng_size = np.random.Generator(np.random.PCG64(self.seed).jumped(1))
        weights = np.asarray([cls.weight for cls in classes], dtype=np.float64)
        self._cum = np.cumsum(weights / weights.sum())
        # Mean-1 lognormal: sigma^2 = ln(1 + cv^2), mu = -sigma^2 / 2.
        self._sigma = np.sqrt(np.log1p(np.asarray(
            [cls.size_cv for cls in classes], dtype=np.float64) ** 2))
        self._disperse = bool(np.any(self._sigma > 0))

    def draw(self, n: int) -> Tuple[np.ndarray, np.ndarray]:
        """Class indices and size factors for the next ``n`` requests."""
        n = int(n)
        if n <= 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        u = self._rng.random(n)
        idx = np.searchsorted(self._cum, u, side="right")
        idx = np.minimum(idx, len(self.classes) - 1).astype(np.int64)
        if self._disperse:
            z = self._rng_size.standard_normal(n)
            sigma = self._sigma[idx]
            sizes = np.exp(sigma * z - 0.5 * sigma * sigma)
        else:
            sizes = np.ones(n, dtype=np.float64)
        return idx, sizes

    def state_dict(self) -> Dict[str, Any]:
        """JSON-safe snapshot (class definitions + RNG position)."""
        return {
            "version": 1,
            "seed": self.seed,
            "rng": self._rng.bit_generator.state,
            "rng_size": self._rng_size.bit_generator.state,
            "classes": [
                {
                    "name": cls.name,
                    "weight": cls.weight,
                    "size_cv": cls.size_cv,
                    "vector": asdict(cls.vector),
                }
                for cls in self.classes
            ],
        }


def restore_mix(state: Dict[str, Any]) -> RequestMix:
    """Rebuild a :class:`RequestMix` from :meth:`RequestMix.state_dict`."""
    classes = [
        RequestClass(
            name=spec["name"],
            weight=spec["weight"],
            vector=DemandVector(**spec["vector"]),
            size_cv=spec["size_cv"],
        )
        for spec in state["classes"]
    ]
    mix = RequestMix(classes, seed=int(state["seed"]))
    mix._rng.bit_generator.state = state["rng"]
    mix._rng_size.bit_generator.state = state["rng_size"]
    return mix


def default_mix(seed: int = 0) -> RequestMix:
    """A serving-style three-class mix (web / api / batch)."""
    return RequestMix(
        [
            RequestClass(
                name="web",
                weight=0.6,
                vector=DemandVector(
                    instructions=2e7,
                    flops=6e6,
                    net_bytes=float(128 << 10),
                ),
                size_cv=0.4,
            ),
            RequestClass(
                name="api",
                weight=0.3,
                vector=DemandVector(
                    instructions=8e7,
                    flops=2e7,
                    io_read_bytes=float(1 << 20),
                    io_write_bytes=float(256 << 10),
                    io_block_size=256 << 10,
                ),
                size_cv=0.6,
            ),
            RequestClass(
                name="batch",
                weight=0.1,
                vector=DemandVector(
                    instructions=6e8,
                    flops=2e8,
                    mem_alloc_bytes=float(16 << 20),
                    mem_free_bytes=float(16 << 20),
                ),
                size_cv=0.8,
            ),
        ],
        seed=seed,
    )


def _pattern(vector: DemandVector) -> List[int]:
    """Demand-kind codes one request of this vector expands into.

    Mirrors ``DemandVector.to_demands`` component order exactly:
    compute, memory, I/O, network, sleep — restricted to non-zero parts.
    """
    kinds: List[int] = []
    if vector.instructions > 0:
        kinds.append(KIND_COMPUTE)
    if vector.mem_alloc_bytes > 0 or vector.mem_free_bytes > 0:
        kinds.append(KIND_MEM)
    if vector.io_read_bytes > 0 or vector.io_write_bytes > 0:
        kinds.append(KIND_IO)
    if vector.net_bytes > 0:
        kinds.append(KIND_NET)
    if vector.sleep_seconds > 0:
        kinds.append(KIND_SLEEP)
    return kinds


_EMPTY_IDX = np.zeros(0, dtype=np.intp)
_EMPTY_I64 = np.zeros(0, dtype=np.int64)
_EMPTY_F64 = np.zeros(0, dtype=np.float64)


def batch_for_class(
    cls: RequestClass, sizes: np.ndarray, name: str = "traffic"
) -> PackedWorkload:
    """Packed demands for a run of same-class requests.

    One fixed per-request demand pattern, consumption columns scaled by
    ``sizes``; a single stream in a single phase (requests on one machine
    queue run serially).  Built by direct column construction — no
    per-request Python objects.
    """
    sizes = np.asarray(sizes, dtype=np.float64)
    k = sizes.size
    vector = cls.vector
    kinds_pattern = _pattern(vector)
    nk = len(kinds_pattern)
    n = k * nk
    if n == 0:
        raise ValueError(f"empty batch for request class {cls.name!r}")
    kinds = np.tile(np.asarray(kinds_pattern, dtype=np.int64), k)
    base = np.arange(k, dtype=np.intp) * nk

    columns: Dict[str, Any] = {}
    class_names: Tuple[str, ...] = ()
    paradigm_names: Tuple[str, ...] = ()
    fs_names: Tuple[str, ...] = ()
    for j, kind in enumerate(kinds_pattern):
        pos = base + j
        if kind == KIND_COMPUTE:
            class_names = (vector.workload_class,)
            paradigm_names = (vector.paradigm,)
            fpi = min(1.0, vector.flops / vector.instructions)
            columns.update(
                c_pos=pos,
                c_instr=vector.instructions * sizes,
                c_cc=np.full(k, np.nan),
                c_class=np.zeros(k, dtype=np.intp),
                c_fpi=np.full(k, fpi),
                c_threads=np.full(k, vector.threads, dtype=np.int64),
                c_paradigm=np.zeros(k, dtype=np.intp),
                c_sr=np.full(k, np.nan),
            )
        elif kind == KIND_MEM:
            columns.update(
                m_pos=pos,
                m_alloc=np.rint(vector.mem_alloc_bytes * sizes).astype(np.int64),
                m_free=np.rint(vector.mem_free_bytes * sizes).astype(np.int64),
                m_block=np.full(k, 1 << 20, dtype=np.int64),
            )
        elif kind == KIND_IO:
            fs_names = ("default",)
            columns.update(
                i_pos=pos,
                i_read=np.rint(vector.io_read_bytes * sizes).astype(np.int64),
                i_written=np.rint(vector.io_write_bytes * sizes).astype(np.int64),
                i_block=np.full(k, vector.io_block_size, dtype=np.int64),
                i_fs=np.zeros(k, dtype=np.intp),
            )
        elif kind == KIND_NET:
            columns.update(
                net_pos=pos,
                net_sent=np.rint(vector.net_bytes * sizes).astype(np.int64),
                net_recv=np.zeros(k, dtype=np.int64),
                net_block=np.full(k, vector.net_block_size, dtype=np.int64),
            )
        else:  # KIND_SLEEP
            columns.update(
                s_pos=pos,
                s_secs=vector.sleep_seconds * sizes,
            )
    return PackedWorkload(
        name=name,
        n=n,
        n_phases=1,
        kinds=kinds,
        stream_phase=np.zeros(1, dtype=np.intp),
        stream_first=np.zeros(1, dtype=np.intp),
        stream_end=np.asarray([n], dtype=np.intp),
        class_names=class_names,
        paradigm_names=paradigm_names,
        fs_names=fs_names,
        **columns,
    )


def unit_seconds(
    classes: Sequence[RequestClass],
    machines: Sequence[Any],
    predictor: Any = None,
) -> np.ndarray:
    """Predicted seconds per unit-size request: shape (classes, machines).

    Uses the analytical :class:`~repro.predict.predictor.Predictor` —
    the same model the placement planner ranks machines with — so the
    fleet's online dispatch agrees with offline planning.  Per-request
    service time is the unit figure scaled linearly by the request's
    size factor (the traffic plane's deliberate approximation: constant
    per-demand latency terms are folded into the linear rate).
    """
    if predictor is None:
        from repro.predict.predictor import Predictor  # noqa: PLC0415 (lazy)

        predictor = Predictor()
    return predictor.predict_many([cls.vector for cls in classes], machines)
