"""Per-layer tracing from outside the program.

The tracer wraps the public entry points of each layer (module
functions and methods of the classes in ``src/repro``) with a timing
shim.  Nothing under ``src/`` changes: the shims are installed for a
traced run, record only inside :meth:`Tracer.recording` and are removed
when the run ends.

Each wrapped call that returns becomes one span ``(layer, pid, dur,
self, top, outer, work)``:

* ``dur`` is the call's wall time, ``self`` is ``dur`` minus the time
  covered by wrapped calls made from inside it (in the same process);
* ``top`` marks a span with no wrapped caller in its process;
* ``outer`` is false for a call nested inside a call of the same layer
  (a skeleton app's ``build_packed`` calling its components'), so busy
  time is not counted twice;
* ``work`` holds the work counts of the call (demands, requests, ...).

Spans recorded in the main process are kept in memory and written out
when the run ends.  Spans recorded in run-service pool workers travel
back through the program's own telemetry bus: while the tracer is
attached as a sink the service ships a telemetry context with every
chunk, the worker captures every event emitted under it and the parent
replays the captured events into its sinks.  Workers are forked from
the main process, so they inherit the shims as long as the pool is started
after :meth:`Tracer.install`.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time
from typing import Any, Callable, Iterator

PREFIX = "perfbench:"

#: ``RunService.stats`` counters reported (as deltas over the traced
#: phase) under ``runtime.service.run.<name>``.
SERVICE_STATS = ("pool_starts", "requeued", "fallbacks")


def _n_demands(workload: Any) -> int:
    return int(getattr(workload, "n_demands", 0))


def _service_work(args: tuple, kwargs: dict, result: Any) -> dict:
    service, requests = args[0], args[1]
    processes = args[2] if len(args) > 2 else kwargs.get("processes")
    pooled = sum(1 for request in requests if request.poolable)
    workers = service.resolve_workers(processes, pooled) if pooled else 1
    return {
        "requests": len(requests),
        "pooled": pooled,
        "workers": workers,
        "worker_busy_s": sum(r.seconds for r in result),
    }


def _put_many_work(args: tuple, kwargs: dict, result: Any) -> dict:
    root = args[0].root
    return {
        "profiles": len(result),
        "bytes": sum(os.path.getsize(root / pid) for pid in result),
    }


def _campaign_work(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"cells_executed": result.executed, "cells_failed": len(result.failed)}


class Tracer:
    """Installs the timing shims and aggregates their spans."""

    def __init__(self) -> None:
        self.main_pid = os.getpid()
        self.spans: list[tuple] = []
        self._pid = self.main_pid
        self._stack: list[list[float]] = []
        self._open: dict[str, int] = {}
        self._patches: list[tuple[Any, str, Any]] = []
        self._workers = False
        self._paused = True

    @contextlib.contextmanager
    def pause(self) -> Iterator[None]:
        """Stop recording main-process spans (the benchmark's own checks)."""
        paused, self._paused = self._paused, True
        try:
            yield
        finally:
            self._paused = paused

    @contextlib.contextmanager
    def recording(self) -> Iterator[None]:
        """Record spans for the duration (the tracer starts paused).

        When pool workers are traced the tracer is attached as a bus sink
        meanwhile: the run service then ships a telemetry context with
        every chunk, and the spans the workers capture come home.  An
        attached sink also turns on the program's own spans and events,
        so it is attached only while recording, and only for workloads
        that use the pool.
        """
        from repro.telemetry.events import get_bus  # noqa: PLC0415

        if self._workers:
            get_bus().add_sink(self)
        self._paused = False
        try:
            yield
        finally:
            self._paused = True
            if self._workers:
                get_bus().remove_sink(self)

    # -- span recording -------------------------------------------------------

    def wrap(self, layer: str, fn: Callable, work: Callable | None = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def shim(*args: Any, **kwargs: Any) -> Any:
            return tracer._call(layer, fn, work, args, kwargs)

        return shim

    def _call(self, layer: str, fn: Callable, work: Callable | None,
              args: tuple, kwargs: dict) -> Any:
        pid = os.getpid()
        if self._paused and pid == self.main_pid:
            return fn(*args, **kwargs)
        if pid != self._pid:
            # First traced call in a forked pool worker: the stack and the
            # open-layer counts copied from the main process do not belong here.
            self._pid, self._stack, self._open = pid, [], {}
        frame = [0.0]
        self._stack.append(frame)
        outer = self._open.get(layer, 0) == 0
        self._open[layer] = self._open.get(layer, 0) + 1
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - t0
            self._stack.pop()
            self._open[layer] -= 1
            if self._stack:
                self._stack[-1][0] += dur
        counts = work(args, kwargs, result) if work is not None else {}
        self._record((layer, pid, dur, dur - frame[0], not self._stack, outer, counts))
        return result

    def _record(self, span: tuple) -> None:
        if span[1] == self.main_pid:
            self.spans.append(span)
            return
        from repro.telemetry.events import Event, get_bus  # noqa: PLC0415

        bus = get_bus()
        if bus.active:  # a chunk capture is open: ship the span home
            bus.emit(Event(name=PREFIX + span[0], ts=0.0, kind="span",
                           attrs={"span": span}, pid=span[1]))

    def handle(self, event: Any) -> None:
        """Bus sink: keep the spans replayed from pool workers."""
        if event.name.startswith(PREFIX) and event.pid != self.main_pid:
            self.spans.append(tuple(event.attrs["span"]))

    # -- shims ----------------------------------------------------------------

    def _patch(self, owner: Any, attr: str, layer: str,
               work: Callable | None = None,
               outer: Callable[[Callable], Callable] | None = None) -> None:
        """Replace ``owner.attr`` with its shim (``outer`` adapts the shim,
        e.g. to normalise arguments before the shim sees them)."""
        owned = attr in vars(owner)
        original = vars(owner)[attr] if owned else getattr(owner, attr)
        if isinstance(original, classmethod):
            replacement: Any = classmethod(self.wrap(layer, original.__func__, work))
        else:
            replacement = self.wrap(layer, original, work)
        if outer is not None:
            replacement = outer(replacement)
        self._patches.append((owner, attr, original if owned else None))
        setattr(owner, attr, replacement)
        if isinstance(owner, type(sys)):
            # Rebind ``from module import fn`` copies held by other modules.
            for module in list(sys.modules.values()):
                name = getattr(module, "__name__", "")
                if (module is not owner and name.startswith("repro")
                        and vars(module).get(attr) is original):
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self, workers: bool) -> None:
        """Wrap every layer entry point (paused until :meth:`recording`).

        With ``workers`` spans are also collected from run-service pool
        workers; the pool must be started after this call, so that the
        forked workers inherit the shims.
        """
        self._workers = workers
        import repro.apps  # noqa: F401,PLC0415 - registers every app model
        from repro.apps.base import ApplicationModel  # noqa: PLC0415
        from repro.core.emulator import Emulator  # noqa: PLC0415
        from repro.core.plan import EmulationPlan  # noqa: PLC0415
        from repro.core.profiler import Profiler  # noqa: PLC0415
        from repro.runtime import analyze, campaign  # noqa: PLC0415
        from repro.runtime.service import RunService  # noqa: PLC0415
        from repro.sim.engine import Engine  # noqa: PLC0415
        from repro.sim.noise import NoiseModel  # noqa: PLC0415
        from repro.sim.stream import EngineStream  # noqa: PLC0415
        from repro.storage.filestore import FileStore  # noqa: PLC0415
        from repro.traffic import arrivals, fleet, sim, workload  # noqa: PLC0415
        from repro.watchers.base import WatcherBase  # noqa: PLC0415

        built = lambda args, kwargs, result: {"demands": _n_demands(result)}  # noqa: E731
        fed = lambda args, kwargs, result: {"demands": _n_demands(args[1])}  # noqa: E731

        apps = [ApplicationModel]
        for cls in apps:
            apps.extend(cls.__subclasses__())
        for cls in apps:
            if "build_packed" in vars(cls):
                self._patch(cls, "build_packed", "apps.build_packed", built)
        self._patch(Engine, "run", "sim.engine.run", fed)
        self._patch(NoiseModel, "apply", "sim.noise.apply")
        self._patch(EngineStream, "feed", "sim.stream.feed", fed)
        self._patch(Profiler, "run", "core.profiler.run")
        self._patch(WatcherBase, "sample_batch", "watchers.sample_batch")
        self._patch(Emulator, "run", "core.emulator.run")
        self._patch(EmulationPlan, "from_profile", "core.plan.from_profile")

        def listed(shim: Callable) -> Callable:
            # RunService.run accepts any iterable; materialise it first so
            # the work counter and the service see the same requests.
            @functools.wraps(shim)
            def run(service, requests, processes=None, rethrow=True):
                return shim(service, list(requests), processes, rethrow)
            return run

        self._patch(RunService, "run", "runtime.service.run", _service_work, listed)
        self._patch(campaign, "run_campaign", "runtime.campaign.run_campaign",
                    _campaign_work)
        self._patch(campaign, "completed_cells", "runtime.campaign.completed_cells")
        self._patch(analyze, "analyze_campaign", "runtime.analyze.analyze_campaign")
        self._patch(FileStore, "put_many", "storage.filestore.put_many", _put_many_work)
        self._patch(FileStore, "get_many", "storage.filestore.get_many")
        self._patch(FileStore, "get", "storage.filestore.get")
        self._patch(FileStore, "entries", "storage.filestore.entries")
        self._patch(arrivals.ArrivalProcess, "take", "traffic.arrivals.take")
        self._patch(arrivals.TraceReplay, "take", "traffic.arrivals.take")
        self._patch(workload.RequestMix, "draw", "traffic.workload.draw")
        self._patch(workload, "batch_for_class", "traffic.workload.batch_for_class")
        self._patch(fleet.Fleet, "offer", "traffic.fleet.offer")
        for method in ("note_arrivals", "add_batch", "add"):
            self._patch(fleet.LatencyRecorder, method, "traffic.fleet.recorder")
        self._patch(sim.TrafficSim, "feed", "traffic.sim.feed")
        self._patch(sim.ClosedLoopSim, "run", "traffic.sim.closed_loop")

    def uninstall(self) -> None:
        """Restore every original."""
        for owner, attr, original in reversed(self._patches):
            if original is None:  # the shim shadowed an inherited method
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- aggregation ----------------------------------------------------------

    def metrics(self, names: list[str], wall_s: float, overhead_frac: float,
                service_stats: dict[str, int]) -> dict[str, float]:
        """The named per-layer metrics over the recorded spans.

        ``<layer>.<field>`` reads a field aggregated over the layer's
        spans (``calls``, ``busy_s``, ``self_s`` or a work count); layers
        the workload never called read 0.
        """
        layers: dict[str, dict[str, float]] = {}
        attributed = 0.0
        util_busy = util_capacity = 0.0
        for layer, pid, dur, self_s, _top, outer, work in self.spans:
            agg = layers.setdefault(layer, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["self_s"] += self_s
            if pid == self.main_pid:
                attributed += self_s
            if not outer:
                continue
            agg["busy_s"] += dur
            for key, value in work.items():
                agg[key] = agg.get(key, 0) + value
            if layer == "runtime.service.run":
                workers = max(1, work["workers"])
                agg["overhead_s"] = (
                    agg.get("overhead_s", 0.0) + dur - work["worker_busy_s"] / workers
                )
                if work["pooled"] and workers > 1:
                    util_busy += work["worker_busy_s"]
                    util_capacity += dur * workers
        service = layers.setdefault("runtime.service.run", {})
        service["pool_utilization"] = util_busy / util_capacity if util_capacity else 0.0
        for key in SERVICE_STATS:
            service[key] = service_stats.get(key, 0)
        runs = layers.get("runtime.campaign.run_campaign", {})
        executed = runs.get("cells_executed", 0)
        failed = runs.get("cells_failed", 0)
        totals = {
            "runtime.campaign.cells_executed": executed,
            "runtime.campaign.cells_failed": failed,
            "runtime.campaign.useful_frac": (
                executed / (executed + failed) if executed + failed else 0.0
            ),
            "trace.wall_s": wall_s,
            "trace.attributed_s": attributed,
            "trace.unattributed_s": wall_s - attributed,
            "trace.overhead_frac": overhead_frac,
        }
        out: dict[str, float] = {}
        for name in names:
            if name in totals:
                out[name] = totals[name]
                continue
            layer, _, field = name.rpartition(".")
            out[name] = layers.get(layer, {}).get(field, 0)
        return out

    def write_spans(self, path: str) -> None:
        """Dump every span, one JSON array per line (main process pid first)."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"main_pid": self.main_pid}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
