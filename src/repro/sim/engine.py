"""The discrete-event execution engine of the simulation plane.

The engine converts a :class:`~repro.sim.workload.SimWorkload` into an
:class:`ExecutionRecord`: the full virtual-time evolution of every
counter a watcher can observe (cycles, instructions, bytes, RSS, ...).
Profiling a simulated run then means *sampling these timelines* — the
same black-box view `/proc` and ``perf stat`` give the real profiler.

Execution semantics (matching §4.4 of the paper):

* phases run strictly in order — a barrier separates them; phase *n+1*
  never starts before every stream of phase *n* finished;
* streams within a phase start together at the phase start and run their
  demands serially;
* contention is modelled per phase: the total number of CPU workers
  beyond the core count slows compute demands proportionally, and
  concurrent I/O streams targeting the same filesystem share its
  bandwidth;
* demand durations and counter increments receive deterministic
  lognormal noise (see :mod:`repro.sim.noise`).

The cycle accounting implements the paper's E.3 mechanism: a demand
carrying ``calibrated_cycles`` (i.e. an emulation kernel told to consume
a target number of cycles) consumes ``target * cycle_bias`` cycles, where
the bias is the machine's calibration-vs-sustained IPC ratio for that
kernel class.

Array-first execution model
---------------------------

:meth:`Engine.run` is written for throughput: many emulated runs per
placement decision (closed-loop validation, E.7) make the engine itself
the hot path.  Every input becomes a
:class:`~repro.sim.packed.PackedWorkload` (object workloads are compiled
by :func:`~repro.sim.packed.pack_workload`), whose columns are *bound*
to the machine — parameters resolved once per distinct workload class,
paradigm and filesystem — and everything afterwards is batched NumPy:

1. the per-type cost kernels and the phase-contention rule of
   :mod:`repro.sim.costs` (the one cost model, shared with the
   analytical predictor and the placement planner) evaluate every
   compute/I-O/memory/network demand of the workload at once;
2. noise is drawn as *one* RNG batch over a packed slot array holding,
   per demand, its duration followed by its counter amounts — the slot
   order and zero-skip rule reproduce the scalar draw stream bit for
   bit, so seeded runs are identical to the pre-vectorisation engine;
3. demand start/end times come from per-stream ``cumsum`` over the
   noisy durations (left-associated, matching scalar accumulation);
4. counter timelines are built from packed ``(t0, t1, amount)`` arrays
   per counter name — no per-demand segment objects exist anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, NamedTuple, Sequence

import numpy as np

from repro.sim.costs import (
    bind_compute,
    bind_io,
    compute_costs,
    io_costs,
    memory_costs,
    network_costs,
    phase_contention,
)
from repro.sim.noise import NoiseModel
from repro.sim.packed import PackedWorkload, pack_workload
from repro.sim.resource import MachineSpec
from repro.sim.workload import SimWorkload
from repro.telemetry.spans import span
from repro.util.timeseries import TimeSeries

__all__ = ["Engine", "ExecutionRecord", "IOEvent"]


class IOEvent(NamedTuple):
    """One I/O demand as seen by the experimental blktrace watcher."""

    t: float
    op: str
    nbytes: int
    block_size: int
    filesystem: str


class _LazyIOEvents(Sequence):
    """Per-operation :class:`IOEvent` list, materialised on first access.

    Most consumers (profilers sampling counters, campaign reductions)
    never look at I/O events, so building one object per operation on
    every run is pure overhead; the columns are kept instead and the
    event list is built only when someone indexes or iterates.  Pickling
    (records shipping through the run-service pool) degrades to a plain
    list.
    """

    __slots__ = ("_starts", "_read", "_written", "_block", "_fs", "_events")

    def __init__(self, starts, read, written, block, fs) -> None:
        self._starts = starts
        self._read = read
        self._written = written
        self._block = block
        self._fs = fs
        self._events: list[IOEvent] | None = None

    def _materialise(self) -> list[IOEvent]:
        if self._events is None:
            events: list[IOEvent] = []
            starts = np.asarray(self._starts).tolist()
            read = np.asarray(self._read).tolist()
            written = np.asarray(self._written).tolist()
            block = np.asarray(self._block).tolist()
            fs = self._fs
            for j, t in enumerate(starts):
                if read[j]:
                    events.append(IOEvent(t, "read", read[j], block[j], fs[j]))
                if written[j]:
                    events.append(IOEvent(t, "write", written[j], block[j], fs[j]))
            self._events = events
        return self._events

    def __len__(self) -> int:
        if self._events is not None:
            return len(self._events)
        if not len(self._starts):
            return 0
        return int(
            np.count_nonzero(np.asarray(self._read))
            + np.count_nonzero(np.asarray(self._written))
        )

    def __getitem__(self, index):
        return self._materialise()[index]

    def __iter__(self):
        return iter(self._materialise())

    def __eq__(self, other) -> bool:
        if isinstance(other, (list, tuple, _LazyIOEvents)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"<io_events n={len(self)}>"

    def __reduce__(self):
        return (list, (self._materialise(),))


@dataclass
class ExecutionRecord:
    """Complete observable history of one simulated process execution."""

    machine: MachineSpec
    duration: float
    counters: dict[str, TimeSeries]
    levels: dict[str, TimeSeries]
    io_events: Sequence[IOEvent]
    phase_bounds: list[tuple[float, float]]
    metadata: dict[str, Any] = field(default_factory=dict)

    def counters_at(self, t: float) -> dict[str, float]:
        """All cumulative counters and levels evaluated at time ``t``."""
        out = {name: ts.value_at(t) for name, ts in self.counters.items()}
        out.update({name: ts.value_at(t) for name, ts in self.levels.items()})
        out["time.runtime"] = min(max(t, 0.0), self.duration)
        return out

    def counters_many(self, ts: np.ndarray) -> dict[str, np.ndarray]:
        """Vectorised :meth:`counters_at`: one array per metric.

        ``ts`` is an array of (relative) sample times; every counter and
        level series is interpolated over the whole grid in one shot.
        Entry *i* of each array equals ``counters_at(ts[i])[name]``.
        """
        ts = np.asarray(ts, dtype=float)
        out = {name: s.values_at(ts) for name, s in self.counters.items()}
        out.update({name: s.values_at(ts) for name, s in self.levels.items()})
        out["time.runtime"] = np.minimum(np.maximum(ts, 0.0), self.duration)
        return out

    def totals(self) -> dict[str, float]:
        """Final counter values (cumulative) and maxima (levels)."""
        out = {name: ts.last() if len(ts) else 0.0 for name, ts in self.counters.items()}
        out.update({name: ts.max() for name, ts in self.levels.items()})
        out["time.runtime"] = self.duration
        return out


#: Demand-type codes (the packed workload's ``kinds`` values).
_COMPUTE, _IO, _MEM, _NET, _SLEEP = range(5)
#: Counter slots per demand type (for noise-slot packing).
_COUNTER_SLOTS = np.array([5, 2, 2, 2, 0], dtype=np.int64)

_EMPTY_POS = np.zeros(0, dtype=np.intp)


class _Gather:
    """One window of packed demand columns bound to a machine.

    Apart from the counts ``n``/``n_phases``, every field is an array.
    ``*_pos`` fields hold the global demand index of every demand of one
    type, in execution order, and the companion columns that type's
    attributes; ``c_bind``/``i_bind`` hold the per-demand machine
    parameters resolved by :mod:`repro.sim.costs` (``None`` when the
    window has no demand of that type).  ``contention`` is the per-demand phase
    slowdown factor (CPU oversubscription for compute, shared-filesystem
    streams for I/O, 1.0 otherwise).
    """

    __slots__ = (
        "n", "n_phases", "kinds", "contention",
        "stream_phase", "stream_first", "stream_end",
        "c_pos", "c_instr", "c_cc", "c_fpi", "c_bind",
        "i_pos", "i_read", "i_written", "i_block", "i_fs", "i_bind",
        "m_pos", "m_phase", "m_alloc", "m_free", "m_block",
        "n_pos", "n_sent", "n_recv", "n_block",
        "s_pos", "s_secs",
    )


class _Frame(NamedTuple):
    """Result of executing one bound window (a run or one batch)."""

    duration: float
    counters: dict[str, TimeSeries]
    levels: dict[str, TimeSeries]
    io_events: Sequence[IOEvent]
    phase_bounds: list[tuple[float, float]]
    rss_end: float
    peak_end: float
    carries: dict[str, tuple[float, float, float]]


class Engine:
    """Executes workloads against one machine model."""

    def __init__(self, machine: MachineSpec, noise: NoiseModel | None = None) -> None:
        self.machine = machine
        self.noise = noise if noise is not None else NoiseModel.silent()

    # -- bind pass -----------------------------------------------------------------

    def _bind(self, workload: SimWorkload | PackedWorkload) -> _Gather:
        """Bind a workload's columns to this machine (the one input path).

        Object workloads are compiled by :func:`pack_workload` first.
        Machine parameters are resolved once per *distinct* workload
        class / paradigm / filesystem name and fanned out to demands by
        interned code; phase contention comes from the stream tables.
        """
        p = workload
        if not isinstance(p, PackedWorkload):
            p = pack_workload(p)
        cores = self.machine.cpu.cores
        g = _Gather()
        g.n = p.n
        g.n_phases = p.n_phases
        g.kinds = p.kinds
        g.stream_phase = p.stream_phase
        g.stream_first = p.stream_first
        g.stream_end = p.stream_end
        demand_phase = np.repeat(p.stream_phase, p.stream_end - p.stream_first)

        g.c_pos, g.c_instr, g.c_cc, g.c_fpi = p.c_pos, p.c_instr, p.c_cc, p.c_fpi
        g.c_bind = None
        cpu_phase = cpu_workers = _EMPTY_POS
        if p.c_pos.size:
            g.c_bind = bind_compute(
                self.machine, p.class_names, p.c_class,
                p.paradigm_names, p.c_paradigm, p.c_threads, p.c_sr,
            )
            # One entry per computing stream: its phase and max workers.
            c_stream = np.searchsorted(p.stream_first, p.c_pos, side="right") - 1
            seg_starts = np.concatenate(([0], np.flatnonzero(np.diff(c_stream)) + 1))
            cpu_workers = np.maximum.reduceat(
                g.c_bind.workers.astype(float), seg_starts
            )
            cpu_phase = p.stream_phase[c_stream[seg_starts]]

        g.i_pos, g.i_read, g.i_written, g.i_block = (
            p.i_pos, p.i_read, p.i_written, p.i_block,
        )
        g.i_fs = np.asarray(p.fs_names, dtype=object)[p.i_fs]
        g.i_bind = None
        n_fs = len(p.fs_names)
        io_phase = io_fs = _EMPTY_POS
        if p.i_pos.size:
            g.i_bind = bind_io(self.machine, p.fs_names, p.i_fs)
            # One entry per distinct (stream, filesystem) pair.
            i_stream = np.searchsorted(p.stream_first, p.i_pos, side="right") - 1
            pair = np.unique(i_stream * n_fs + p.i_fs)
            io_phase = p.stream_phase[pair // n_fs]
            io_fs = pair % n_fs

        contention = np.ones(p.n)
        if p.c_pos.size or p.i_pos.size:
            f_cpu, f_io = phase_contention(
                cores, p.n_phases, cpu_phase, cpu_workers, io_phase, io_fs, n_fs
            )
            contention[p.c_pos] = f_cpu[demand_phase[p.c_pos]]
            contention[p.i_pos] = f_io[demand_phase[p.i_pos], p.i_fs]
        g.contention = contention

        g.m_pos, g.m_alloc, g.m_free, g.m_block = (
            p.m_pos, p.m_alloc, p.m_free, p.m_block,
        )
        g.m_phase = demand_phase[p.m_pos]
        g.n_pos, g.n_sent, g.n_recv, g.n_block = (
            p.net_pos, p.net_sent, p.net_recv, p.net_block,
        )
        g.s_pos, g.s_secs = p.s_pos, p.s_secs
        return g

    # -- execution ---------------------------------------------------------------

    def run(self, workload: SimWorkload | PackedWorkload) -> ExecutionRecord:
        """Execute a workload; returns its full observable history.

        Accepts the object form (``SimWorkload``, compiled on entry by
        :func:`~repro.sim.packed.pack_workload`) and the columnar form
        (:class:`~repro.sim.packed.PackedWorkload`) interchangeably;
        both take the same bind-and-execute path.
        """
        with span(
            "engine.run", workload=workload.name, machine=self.machine.name
        ) as sp:
            record = self._run(workload)
            sp.set(demands=workload.n_demands, sim_duration=record.duration)
        return record

    def _run(self, workload: SimWorkload | PackedWorkload) -> ExecutionRecord:
        frame = self._execute(self._bind(workload), float(workload.base_rss))
        metadata = dict(workload.metadata)
        metadata.setdefault("workload_name", workload.name)
        return ExecutionRecord(
            machine=self.machine,
            duration=frame.duration,
            counters=frame.counters,
            levels=frame.levels,
            io_events=frame.io_events,
            phase_bounds=frame.phase_bounds,
            metadata=metadata,
        )

    def _execute(
        self,
        g: _Gather,
        base_rss: float,
        *,
        t_start: float = 0.0,
        rss0: float | None = None,
        peak0: float | None = None,
        initial: dict[str, tuple[float, float, float]] | None = None,
    ) -> "_Frame":
        """Cost, noise and timeline for one bound window of demands.

        With the default arguments this executes a whole workload from
        virtual time zero (the :meth:`run` path).  The streaming path
        calls it once per arrival batch with the previous batch's end
        time, RSS level/peak and per-counter carries, which — because
        every accumulation here is a left-associated fold — continues
        the timelines bit-identically to an uninterrupted run.
        """
        n = g.n

        costs: dict[int, dict[str, np.ndarray]] = {}
        if g.c_bind is not None:
            costs[_COMPUTE] = compute_costs(
                self.machine, g.c_bind, g.c_instr, g.c_cc, g.c_fpi
            )
        if g.i_bind is not None:
            costs[_IO] = io_costs(g.i_bind, g.i_read, g.i_written, g.i_block)
        if g.m_pos.size:
            costs[_MEM] = memory_costs(self.machine, g.m_alloc, g.m_free, g.m_block)
        if g.n_pos.size:
            costs[_NET] = network_costs(self.machine, g.n_sent, g.n_recv, g.n_block)
        base_duration = np.zeros(n)
        for kind, group in costs.items():
            base_duration[_positions(g, kind)] = group["duration"]
        if g.s_pos.size:
            base_duration[g.s_pos] = g.s_secs

        durations = base_duration * g.contention
        noisy = self._draw_noise(g, durations, costs)
        durations = noisy.pop("duration")

        t0, t1, phase_bounds = self._timeline(g, durations, t_start)
        duration = phase_bounds[-1][1] if phase_bounds else t_start

        counters, carries = self._build_counters(
            self._pack_counters(g, t0, t1, noisy), t_start, duration, initial
        )
        levels, rss_end, peak_end = self._build_levels(
            g, t0, t1, base_rss, t_start, duration, rss0, peak0
        )
        io_events = _LazyIOEvents(
            t0[g.i_pos], g.i_read, g.i_written, g.i_block, g.i_fs
        )
        return _Frame(
            duration, counters, levels, io_events, phase_bounds,
            rss_end, peak_end, carries,
        )

    def run_many(
        self, workloads: Iterable[SimWorkload | PackedWorkload]
    ) -> list[ExecutionRecord]:
        """Execute several workloads back to back on this engine.

        Runs share the engine's noise model, so the RNG stream continues
        across workloads exactly as consecutive :meth:`run` calls would —
        ``run_many(ws)`` is the batch equivalent of ``[run(w) for w in
        ws]``.  For multi-core fan-out across engines see
        :func:`repro.core.multiproc.parallel_map` and
        :meth:`repro.sim.backend.SimBackend.spawn_many`.
        """
        return [self.run(workload) for workload in workloads]

    # -- streaming ---------------------------------------------------------------

    def open_stream(
        self,
        name: str = "stream",
        base_rss: int = 2 << 20,
        metadata: dict[str, Any] | None = None,
    ):
        """Open an incremental run: feed arrival batches, get timelines.

        Returns an :class:`~repro.sim.stream.EngineStream`; see there
        for ``feed``/``checkpoint``/``restore`` semantics.
        """
        from repro.sim.stream import EngineStream  # noqa: PLC0415 (cycle)

        return EngineStream(self, name=name, base_rss=base_rss, metadata=metadata)

    def run_stream(
        self,
        arrivals: Iterable[SimWorkload | PackedWorkload],
        name: str = "stream",
        base_rss: int = 2 << 20,
        metadata: dict[str, Any] | None = None,
    ):
        """Execute an arrival stream of demand batches incrementally.

        A generator of per-batch :class:`ExecutionRecord` deltas (times
        are absolute, counter values cumulative across batches), so a
        million-demand run holds only one batch in memory at a time.
        Batches are complete phase groups: each starts at a barrier.
        """
        stream = self.open_stream(name=name, base_rss=base_rss, metadata=metadata)
        for batch in arrivals:
            yield stream.feed(batch)

    # -- batched noise ----------------------------------------------------------

    def _draw_noise(
        self,
        g: _Gather,
        durations: np.ndarray,
        costs: dict[int, dict[str, np.ndarray]],
    ) -> dict[str, np.ndarray]:
        """Draw all noise for the run in one batched RNG pass.

        The slot layout is, per demand in execution order: its duration,
        then its counter amounts in the fixed per-type order.  This is
        exactly the order the scalar engine made its ``duration()`` /
        ``counter()`` calls in, so seeded runs reproduce the scalar
        noise stream bit for bit (zero values skip their draw in both).
        """
        noise = self.noise
        if noise.silent_model:
            out: dict[str, np.ndarray] = {"duration": durations}
            for kind, group in costs.items():
                for name in _KIND_COUNTERS[kind]:
                    out[name] = group[name]
            return out

        slots = _COUNTER_SLOTS[g.kinds] + 1
        offsets = np.concatenate(([0], np.cumsum(slots)))
        bases = offsets[:-1]
        total = int(offsets[-1])

        values = np.zeros(total)
        sigmas = np.full(total, noise.counter_sigma)
        values[bases] = durations
        sigmas[bases] = noise.duration_sigma
        for kind, group in costs.items():
            group_bases = bases[_positions(g, kind)]
            for slot, name in enumerate(_KIND_COUNTERS[kind], start=1):
                values[group_bases + slot] = group[name]

        noisy = noise.apply(values, sigmas)

        out = {"duration": noisy[bases]}
        for kind in costs:
            group_bases = bases[_positions(g, kind)]
            for slot, name in enumerate(_KIND_COUNTERS[kind], start=1):
                out[name] = noisy[group_bases + slot]
        return out

    # -- timeline ----------------------------------------------------------------

    @staticmethod
    def _timeline(
        g: _Gather, durations: np.ndarray, t_start: float = 0.0
    ) -> tuple[np.ndarray, np.ndarray, list[tuple[float, float]]]:
        """Per-demand start/end times and phase bounds.

        Demands run serially within a stream (cumulative sum of noisy
        durations, left-associated like the scalar accumulation), streams
        start together at the phase start, and phases are barriers.  The
        first phase starts at ``t_start`` (nonzero for streamed batches).
        """
        t0 = np.empty(g.n)
        t1 = np.empty(g.n)
        phase_bounds: list[tuple[float, float]] = []
        t_phase = float(t_start)
        stream_iter = zip(
            g.stream_phase.tolist(), g.stream_first.tolist(), g.stream_end.tolist()
        )
        pending = next(stream_iter, None)
        for p_idx in range(g.n_phases):
            phase_end = t_phase
            while pending is not None and pending[0] == p_idx:
                _, first, end = pending
                if end > first:
                    bounds = np.cumsum(
                        np.concatenate(([t_phase], durations[first:end]))
                    )
                    t0[first:end] = bounds[:-1]
                    t1[first:end] = bounds[1:]
                    phase_end = max(phase_end, float(bounds[-1]))
                pending = next(stream_iter, None)
            phase_bounds.append((t_phase, phase_end))
            t_phase = phase_end
        return t0, t1, phase_bounds

    # -- counter timelines ---------------------------------------------------------

    @staticmethod
    def _pack_counters(
        g: _Gather,
        t0: np.ndarray,
        t1: np.ndarray,
        noisy: dict[str, np.ndarray],
    ) -> dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Packed ``(t0, t1, amount)`` arrays per counter name."""
        packed: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        for kind, names in _KIND_COUNTERS.items():
            pos = _positions(g, kind)
            if not pos.size:
                continue
            kt0 = t0[pos]
            kt1 = t1[pos]
            for name in names:
                packed[name] = (kt0, kt1, np.asarray(noisy[name]))
        return packed

    @staticmethod
    def _build_counters(
        packed: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]],
        t_lo: float,
        t_hi: float,
        initial: dict[str, tuple[float, float, float]] | None = None,
    ) -> tuple[dict[str, TimeSeries], dict[str, tuple[float, float, float]]]:
        """Turn accrual spans into piecewise-linear cumulative series.

        Series cover the window ``[t_lo, t_hi]`` (the whole run for the
        batch path).  ``initial`` maps counter names to their
        ``(raw, guarded)`` carry from the previous window: the raw
        left-fold sum seeds this window's ``cumsum`` and the guarded
        value floors the monotonic guard, so streamed windows reproduce
        the uninterrupted series bit for bit.  Returns the series plus
        this window's end carries.
        """
        out: dict[str, TimeSeries] = {}
        carries: dict[str, tuple[float, float, float]] = {}
        if initial is None:
            initial = {}
        # Counters of one demand type share their span arrays; cache the
        # breakpoint grid per (t0, t1) identity so the expensive sorts
        # run once per type, not once per counter.
        grid_cache: dict[tuple[int, int], tuple] = {}
        for name in sorted(set(packed) | set(initial)):
            raw0, guard0, rate0 = initial.get(name, (0.0, 0.0, 0.0))
            spans = packed.get(name)
            mask = None if spans is None else (spans[2] != 0.0)
            if spans is None or not mask.any():
                # Nothing accrues in this window: carry the level flat.
                out[name] = TimeSeries([t_lo, t_hi], [guard0, guard0])
                carries[name] = (raw0, guard0, rate0)
                continue
            t0a, t1a, amt = spans
            if mask.all():
                key = (id(t0a), id(t1a))
                cached = grid_cache.get(key)
                if cached is None:
                    t1a = np.maximum(t1a, t0a + 1e-12)
                    bps = np.unique(np.concatenate([[t_lo, t_hi], t0a, t1a]))
                    i0 = np.searchsorted(bps, t0a)
                    i1 = np.searchsorted(bps, t1a)
                    idle = _idle_intervals(bps.size, i0, i1)
                    widths = np.diff(bps)
                    grid_cache[key] = (t0a, t1a, bps, i0, i1, idle, widths)
                else:
                    t0a, t1a, bps, i0, i1, idle, widths = cached
            else:
                t0a, t1a, amt = t0a[mask], t1a[mask], amt[mask]
                t1a = np.maximum(t1a, t0a + 1e-12)
                bps = np.unique(np.concatenate([[t_lo, t_hi], t0a, t1a]))
                i0 = np.searchsorted(bps, t0a)
                i1 = np.searchsorted(bps, t1a)
                idle = _idle_intervals(bps.size, i0, i1)
                widths = np.diff(bps)
            rates = amt / (t1a - t0a)
            # Two bins per breakpoint — span *ends* fold before span
            # *starts* at the same timestamp.  This keeps the running
            # rate a pure left fold that batch boundaries (always phase
            # barriers) split cleanly, so streamed windows seeded with
            # the carried running rate continue it bit for bit.
            delta = np.zeros(2 * bps.size)
            np.add.at(delta, 2 * i1, -rates)
            np.add.at(delta, 2 * i0 + 1, rates)
            running = np.cumsum(np.concatenate([[rate0], delta]))
            rate_per_interval = running[2::2][: bps.size - 1].copy()
            # Overlapping spans leave ~1-ulp fold residue after they all
            # end; the exact integer span count pins idle intervals to a
            # rate of exactly zero (and makes them exactly flat).
            rate_per_interval[idle] = 0.0
            increments = rate_per_interval * widths
            values = np.cumsum(np.concatenate([[raw0], increments]))
            raw_end = float(values[-1])
            # Guard against tiny negative drift from float cancellation.
            values = np.maximum.accumulate(np.maximum(values, guard0))
            out[name] = TimeSeries.presorted(bps, values)
            carries[name] = (raw_end, float(values[-1]), float(running[-1]))
        return out, carries

    # -- level timelines -----------------------------------------------------------

    def _build_levels(
        self,
        g: _Gather,
        t0: np.ndarray,
        t1: np.ndarray,
        base_rss: float,
        t_lo: float,
        t_hi: float,
        rss0: float | None = None,
        peak0: float | None = None,
    ) -> tuple[dict[str, TimeSeries], float, float]:
        """Level series over ``[t_lo, t_hi]``; returns end RSS and peak.

        ``rss0``/``peak0`` carry the previous window's end level and
        running maximum into a streamed window (``None`` starts a run
        from ``base_rss``).
        """
        rss = float(base_rss) if rss0 is None else rss0
        if g.m_pos.size:
            # RSS changes apply in global time order *within* each phase
            # (barriers order the phases themselves), ties broken by
            # delta — the same total order the scalar fold used.  The
            # running level clamps at zero, a sequential dependency, but
            # between clamps the fold is a plain cumulative sum, so the
            # loop below runs once per *clamp* (usually never), not once
            # per demand, and each segment's cumsum reproduces the
            # scalar left fold bit for bit.
            whens = t1[g.m_pos]
            deltas = (g.m_alloc - g.m_free).astype(float)
            order = np.lexsort((deltas, whens, g.m_phase))
            whens = whens[order]
            deltas = deltas[order]
            folded = np.empty(deltas.size)
            start = 0
            while start < deltas.size:
                seg = np.cumsum(np.concatenate(([rss], deltas[start:])))[1:]
                below = np.flatnonzero(seg < 0.0)
                if not below.size:
                    folded[start:] = seg
                    rss = float(seg[-1])
                    break
                cut = int(below[0])
                folded[start : start + cut] = seg[:cut]
                folded[start + cut] = 0.0
                rss = 0.0
                start += cut + 1
            rss_series = _step_series_arrays(
                np.concatenate(([t_lo], whens)),
                np.concatenate(([float(base_rss) if rss0 is None else rss0], folded)),
                t_lo,
                t_hi,
            )
        else:
            rss_series = _step_series([(t_lo, rss)], t_lo, t_hi)
        peak_series = _running_max(rss_series, peak0)
        levels = {
            "mem.rss": rss_series,
            "mem.peak": peak_series,
            "cpu.threads": self._thread_level(g, t0, t1, t_lo, t_hi),
        }
        levels["sys.load_cpu"] = TimeSeries.presorted(
            levels["cpu.threads"].times,
            levels["cpu.threads"].values / self.machine.cpu.cores,
        )
        return levels, rss, float(peak_series.values[-1])

    @staticmethod
    def _thread_level(
        g: _Gather, t0: np.ndarray, t1: np.ndarray, t_lo: float, t_hi: float
    ) -> TimeSeries:
        """Active-worker level series, fully vectorised.

        Every multi-threaded compute demand contributes a
        ``(start, +workers-1)`` / ``(end, -(workers-1))`` event pair:
        events sort by ``(time, delta)``, the running level starts at one
        worker, and recorded levels clamp at one.  (No cross-window carry is needed:
        windows start at phase barriers, where every stream has joined.)
        """
        if not g.c_pos.size:
            return TimeSeries([t_lo, t_hi], [1.0, 1.0])
        workers = g.c_bind.workers.astype(float)
        multi = workers > 1
        if not multi.any():
            return TimeSeries([t_lo, t_hi], [1.0, 1.0])
        extra = workers[multi] - 1.0
        pos = g.c_pos[multi]
        whens = np.concatenate([t0[pos], t1[pos]])
        deltas = np.concatenate([extra, -extra])
        order = np.lexsort((deltas, whens))
        whens = whens[order]
        levels = np.maximum(1.0, 1.0 + np.cumsum(deltas[order]))
        return _step_series_arrays(
            np.concatenate(([t_lo], whens)),
            np.concatenate(([1.0], levels)),
            t_lo,
            t_hi,
        )


#: Counter names per demand type, in scalar-dict insertion order (the
#: noise draw order within one demand).
_KIND_COUNTERS: dict[int, tuple[str, ...]] = {
    _COMPUTE: (
        "cpu.instructions",
        "cpu.cycles_used",
        "cpu.cycles_stalled_front",
        "cpu.cycles_stalled_back",
        "cpu.flops",
    ),
    _IO: ("io.bytes_read", "io.bytes_written"),
    _MEM: ("mem.allocated", "mem.freed"),
    _NET: ("net.bytes_written", "net.bytes_read"),
}


def _positions(g: _Gather, kind: int) -> np.ndarray:
    return (g.c_pos, g.i_pos, g.m_pos, g.n_pos, g.s_pos)[kind]


def _idle_intervals(n_bps: int, i0: np.ndarray, i1: np.ndarray) -> np.ndarray:
    """Boolean mask of breakpoint intervals with zero active spans.

    The active-span count is exact integer arithmetic, so idle intervals
    are identified identically by a full run and by its streamed
    windows — which is what lets both pin their rates to exactly zero.
    """
    steps = np.zeros(n_bps, dtype=np.int64)
    np.add.at(steps, i0, 1)
    np.add.at(steps, i1, -1)
    return np.cumsum(steps)[:-1] == 0


def _step_series(
    steps: Sequence[tuple[float, float]], t_lo: float, t_hi: float
) -> TimeSeries:
    """Build a piecewise-constant series from (time, new_level) steps.

    The series opens at ``t_lo`` and closes at ``max(t_hi, last step
    time)``.  Steps at absolute time zero only set the opening level;
    steps at any later time emit a level transition — including steps
    exactly at a window's ``t_lo``, which an uninterrupted run (where
    that instant is interior) would have emitted too.
    """
    steps = sorted(steps)
    times: list[float] = []
    values: list[float] = []
    level = steps[0][1] if steps else 0.0
    times.append(t_lo)
    values.append(level)
    for when, new_level in steps:
        if when > 0.0:
            times.extend([when, when])
            values.extend([level, new_level])
        level = new_level
    times.append(max(t_hi, times[-1]))
    values.append(level)
    return TimeSeries(times, values)


def _step_series_arrays(
    times: np.ndarray, values: np.ndarray, t_lo: float, t_hi: float
) -> TimeSeries:
    """Vectorised :func:`_step_series` over ``(time, new_level)`` arrays.

    Replicates the scalar loop exactly: steps sort by ``(time, level)``,
    each positive-time step emits the level just before and just after
    it, and the series is closed at ``max(t_hi, last step time)``.
    """
    if not times.size:
        return _step_series([], t_lo, t_hi)
    order = np.lexsort((values, times))
    times = times[order]
    values = values[order]
    keep = times > 0.0
    kept_t = times[keep]
    prev = np.empty_like(values)
    prev[0] = values[0]
    prev[1:] = values[:-1]
    k = kept_t.size
    out_t = np.empty(2 * k + 2)
    out_v = np.empty(2 * k + 2)
    out_t[0] = t_lo
    out_v[0] = values[0]
    out_t[1:-1:2] = kept_t
    out_t[2:-1:2] = kept_t
    out_v[1:-1:2] = prev[keep]
    out_v[2:-1:2] = values[keep]
    last_t = kept_t[-1] if k else t_lo
    out_t[-1] = t_hi if t_hi > last_t else last_t
    out_v[-1] = values[-1]
    return TimeSeries.presorted(out_t, out_v)


def _running_max(series: TimeSeries, floor: float | None = None) -> TimeSeries:
    """Monotone running maximum of a level series (peak RSS).

    ``floor`` carries a previous window's peak into a streamed window.
    """
    if not len(series):
        return series
    values = series.values if floor is None else np.maximum(series.values, floor)
    return TimeSeries.presorted(series.times, np.maximum.accumulate(values))
