"""Analytical runtime prediction of demand vectors on machine models.

The predictor maps a :class:`~repro.predict.models.DemandVector` onto any
:class:`~repro.sim.resource.MachineSpec` *without* running the simulation
engine: each vector component is costed with the machine's sustained
rates (IPC × clock for compute, latency + bandwidth for I/O, memory and
network), reproducing the paper-companion's analytical placement model.
The vector is costed as the demands
:meth:`~repro.predict.models.DemandVector.to_demands` emits, through the
engine's own kernels in :mod:`repro.sim.costs`, so a prediction equals
the noise-free emulated runtime of the same vector by construction — the
property the closed-loop validation in :mod:`repro.predict.validate`
measures.

Two performance features make the predictor usable as a planner inner
loop:

* a digest-keyed LRU cache over ``(vector, machine, filesystem)``
  triples — planners re-evaluate the same pair many times;
* :meth:`Predictor.predict_many`, a batch API evaluating a full
  ``workloads × machines`` cost matrix with one kernel pass per machine
  (thousands of pairs per millisecond, see ``bench_e6_placement``);
  :meth:`Predictor.predict` is its one-vector case behind the cache.

``calibrated=True`` additionally charges each machine's kernel
calibration bias (``calib_ipc / ipc``, fitted by :mod:`repro.sim.calibrate`
and encoded per workload class) — use it when the placed workload is an
emulation kernel rather than a real application (E.3 semantics).
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.predict.models import DemandVector
from repro.sim.costs import (
    bind_compute,
    bind_io,
    compute_costs,
    io_costs,
    memory_costs,
    network_costs,
)
from repro.sim.demands import MemoryDemand
from repro.sim.machines import resolve_machine
from repro.sim.resource import MachineSpec

__all__ = ["Prediction", "Predictor"]

#: Bound on the machine-fingerprint memo, so long ablation sweeps over
#: many replace()'d specs do not pin every variant in memory.
_MACHINE_MEMO_SIZE = 128

#: Block size of the memory demand a vector replays as (the default).
_MEM_BLOCK = MemoryDemand().block_size


@dataclass(frozen=True)
class Prediction:
    """Predicted serial runtime of one demand vector on one machine."""

    machine: str
    compute_seconds: float
    io_seconds: float
    memory_seconds: float
    network_seconds: float
    sleep_seconds: float

    @property
    def seconds(self) -> float:
        """Total predicted runtime (uncontended, serial execution)."""
        return (
            self.compute_seconds
            + self.io_seconds
            + self.memory_seconds
            + self.network_seconds
            + self.sleep_seconds
        )

    def breakdown(self) -> dict[str, float]:
        """Component name -> seconds mapping (for tables and reports)."""
        return {
            "compute": self.compute_seconds,
            "io": self.io_seconds,
            "memory": self.memory_seconds,
            "network": self.network_seconds,
            "sleep": self.sleep_seconds,
            "total": self.seconds,
        }


class Predictor:
    """Cost model evaluating demand vectors against machine models.

    Parameters
    ----------
    cache_size:
        Maximum number of ``(vector, machine, filesystem)`` predictions
        kept in the LRU cache (0 disables caching).
    calibrated:
        Charge the per-class kernel calibration bias on compute time
        (the E.3 systematic error; off for application-class vectors).
    """

    def __init__(self, cache_size: int = 4096, calibrated: bool = False) -> None:
        if cache_size < 0:
            raise ValueError("cache_size must be non-negative")
        self.cache_size = cache_size
        self.calibrated = calibrated
        self._cache: OrderedDict[tuple[str, str, str], Prediction] = OrderedDict()
        #: id(machine) -> (machine, content fingerprint), FIFO-bounded.
        #: Keeping the strong reference makes the id-based memo safe
        #: against id reuse while an entry lives.
        self._machine_keys: OrderedDict[int, tuple[MachineSpec, str]] = OrderedDict()
        self._hits = 0
        self._misses = 0

    def _machine_fingerprint(self, machine: MachineSpec) -> str:
        """Content hash of a machine spec (cache key component).

        Keying on content rather than ``machine.name`` keeps the cache
        correct when callers compare tweaked variants of one machine
        (e.g. ``dataclasses.replace`` ablations) under the same name.
        """
        entry = self._machine_keys.get(id(machine))
        if entry is not None and entry[0] is machine:
            return entry[1]
        digest = hashlib.blake2b(
            repr(machine).encode("utf-8"), digest_size=12
        ).hexdigest()
        self._machine_keys[id(machine)] = (machine, digest)
        while len(self._machine_keys) > _MACHINE_MEMO_SIZE:
            self._machine_keys.popitem(last=False)
        return digest

    # -- single-pair API -----------------------------------------------------

    def predict(
        self,
        demand: DemandVector,
        machine: MachineSpec | str,
        filesystem: str | None = None,
    ) -> Prediction:
        """Predict the uncontended runtime of ``demand`` on ``machine``.

        ``filesystem`` selects the I/O target mount (default mount when
        ``None``); results are cached by content digest.  A miss is a
        one-vector :meth:`predict_many` evaluation.
        """
        machine = resolve_machine(machine)
        fs_name = filesystem if filesystem else machine.default_fs
        key = (demand.digest(), self._machine_fingerprint(machine), fs_name)
        cached = self._cache.get(key)
        if cached is not None:
            self._hits += 1
            self._cache.move_to_end(key)
            return cached
        self._misses += 1
        compute, io, memory, network = self._components(
            [demand], [machine], fs_name
        )[:, 0, 0].tolist()
        prediction = Prediction(
            machine=machine.name,
            compute_seconds=compute,
            io_seconds=io,
            memory_seconds=memory,
            network_seconds=network,
            sleep_seconds=demand.sleep_seconds,
        )
        if self.cache_size:
            self._cache[key] = prediction
            if len(self._cache) > self.cache_size:
                self._cache.popitem(last=False)
        return prediction

    # -- batch API -----------------------------------------------------------

    def predict_many(
        self,
        demands: Sequence[DemandVector] | Iterable[DemandVector],
        machines: Sequence[MachineSpec | str],
        filesystem: str | None = None,
    ) -> np.ndarray:
        """Total predicted seconds for every (workload, machine) pair.

        Returns an ``(n_demands, n_machines)`` float array whose entry
        ``[i, j]`` equals ``predict(demands[i], machines[j]).seconds``
        exactly.  The cost kernels run once per machine over all vectors,
        which is what keeps exhaustive candidate sweeps (thousands of
        pairs) in the millisecond range.  ``filesystem`` selects the I/O
        target mount on every machine (each machine's default mount when
        ``None``), matching :meth:`predict`'s parameter.
        """
        demands = list(demands)
        specs = [resolve_machine(m) for m in machines]
        if not demands or not specs:
            return np.zeros((len(demands), len(specs)), dtype=float)
        compute, io, memory, network = self._components(demands, specs, filesystem)
        sleep = np.array([d.sleep_seconds for d in demands], dtype=float)
        return compute + io + memory + network + sleep[:, None]

    def _components(
        self,
        demands: Sequence[DemandVector],
        machines: Sequence[MachineSpec],
        filesystem: str | None,
    ) -> np.ndarray:
        """Compute, I/O, memory and network seconds, ``(4, demands, machines)``.

        Each vector is costed as the demands :meth:`DemandVector.to_demands`
        emits for it — byte counts truncated with ``int()`` the same way —
        through the engine's own kernels: one compute demand (targeting
        ``instructions / ipc`` cycles when ``calibrated``), one I/O demand
        on ``filesystem``, one memory demand in the default block size and
        one network send.
        """
        n = len(demands)

        def ints(name: str) -> np.ndarray:
            return np.array([int(getattr(d, name)) for d in demands], dtype=np.int64)

        instructions = np.array([d.instructions for d in demands], dtype=float)
        class_names, classes = _intern([d.workload_class for d in demands])
        paradigm_names, paradigms = _intern([d.paradigm for d in demands])
        threads = ints("threads")
        read, written, io_block = (
            ints("io_read_bytes"), ints("io_write_bytes"), ints("io_block_size")
        )
        alloc, freed = ints("mem_alloc_bytes"), ints("mem_free_bytes")
        net, net_block = ints("net_bytes"), ints("net_block_size")
        mem_block = np.full(n, _MEM_BLOCK, dtype=np.int64)
        zeros = np.zeros(n, dtype=np.int64)
        out = np.zeros((4, n, len(machines)))
        for j, machine in enumerate(machines):
            bound = bind_compute(
                machine, class_names, classes, paradigm_names, paradigms, threads
            )
            target = instructions / bound.ipc if self.calibrated else np.full(n, np.nan)
            out[0, :, j] = compute_costs(
                machine, bound, instructions, target, zeros
            )["duration"]
            if read.any() or written.any():
                fs = bind_io(machine, (filesystem,), zeros)
                out[1, :, j] = io_costs(fs, read, written, io_block)["duration"]
            out[2, :, j] = memory_costs(machine, alloc, freed, mem_block)["duration"]
            out[3, :, j] = network_costs(machine, net, zeros, net_block)["duration"]
        return out

    # -- cache introspection -------------------------------------------------

    def cache_info(self) -> dict[str, int]:
        """Hit/miss/size counters of the prediction cache."""
        return {
            "hits": self._hits,
            "misses": self._misses,
            "size": len(self._cache),
            "max_size": self.cache_size,
        }

    def clear_cache(self) -> None:
        """Drop all cached predictions and reset the counters."""
        self._cache.clear()
        self._machine_keys.clear()
        self._hits = 0
        self._misses = 0


def _intern(names: list[str]) -> tuple[tuple[str, ...], np.ndarray]:
    """Distinct ``names`` in first-seen order and each entry's code."""
    table = {name: code for code, name in enumerate(dict.fromkeys(names))}
    return tuple(table), np.array([table[name] for name in names], dtype=np.intp)
