"""Application model protocol for the simulation plane.

An *application model* is a parameterised generator of resource demands:
the simulation plane's stand-in for a real executable.  The profiler
treats it as a black box — it only ever sees the counters the engine
produces — so the models only need to reproduce the resource-consumption
*trace shape* of the application they replace (see DESIGN.md §2 for the
Gromacs substitution argument).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.core.errors import WorkloadError
from repro.sim.packed import PackedWorkload, pack_workload
from repro.sim.resource import MachineSpec
from repro.sim.workload import SimWorkload

__all__ = ["ApplicationModel", "chunk_sizes"]

_INT64_MAX = int(np.iinfo(np.int64).max)


def chunk_sizes(total: int | float, chunks: int) -> np.ndarray:
    """Sizes of the ``chunks`` slices of ``total`` cut at ``total * k // chunks``.

    These are exactly the boundaries of the per-chunk loop in the
    models' ``build_workload``.  An integer total goes through ``divmod``,
    so no intermediate product leaves int64 however large ``total *
    chunks`` is; slices that do not themselves fit int64 raise
    :class:`WorkloadError` instead of wrapping.  A float total (a spec
    such as ``bytes_written=1e6``) follows float floor division, as the
    loop does.
    """
    if isinstance(total, (float, np.floating)):
        return np.diff(total * np.arange(chunks + 1, dtype=np.float64) // chunks)
    quotient, remainder = divmod(int(total), chunks)
    if not -_INT64_MAX <= quotient < _INT64_MAX or chunks > 1 << 31:
        raise WorkloadError(f"{total} bytes in {chunks} chunks overflow int64")
    if not remainder:
        return np.full(chunks, quotient, dtype=np.int64)
    steps = remainder * np.arange(chunks + 1, dtype=np.int64) // chunks
    return quotient + np.diff(steps)


class ApplicationModel(ABC):
    """Base class of all virtual applications."""

    #: Short executable-like name; used as the profile command index.
    name: str = "app"

    @abstractmethod
    def build_workload(self, machine: MachineSpec) -> SimWorkload:
        """Emit the demand workload this application runs on ``machine``.

        Machine-dependence captures compile-time effects: the *same*
        science problem may execute a different number of instructions on
        different resources (the paper's main source of emulation
        uncertainty, §7).
        """

    def build_packed(self, machine: MachineSpec) -> PackedWorkload:
        """Columnar form of :meth:`build_workload` (same demands).

        The default compiles the object workload; models override it
        with a direct column builder so large workloads never
        materialise per-demand objects at all.  Both forms execute
        bit-identically.
        """
        return pack_workload(self.build_workload(machine))

    def command(self) -> str:
        """The command string under which profiles of this app are indexed."""
        return self.name

    def tags(self) -> dict[str, object]:
        """Tags distinguishing this parameterisation (e.g. iteration count)."""
        return {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag_text = ",".join(f"{k}={v}" for k, v in self.tags().items())
        return f"{type(self).__name__}({tag_text})"
