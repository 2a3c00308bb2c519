"""Traffic simulations: open/closed-loop drivers over a :class:`Fleet`.

Two load models, following the classic serving-benchmark distinction:

* **Open loop** (:class:`TrafficSim`) — arrivals come from an
  :class:`~repro.traffic.arrivals.ArrivalProcess` at its own rate,
  independent of completions.  Queues can grow without bound if the
  fleet saturates; this is the model that exposes tail-latency collapse.
* **Closed loop** (:class:`ClosedLoopSim`) — a fixed population of
  ``clients`` each issues one request, waits for it to finish, thinks
  for an exponential pause, and repeats.  In-flight requests never
  exceed the client count by construction (the property test pins it).

:class:`TrafficSim` runs in arrival chunks (bounded memory), evaluates an
optional :class:`AutoscalePolicy` against a windowed p99 at fixed
request-count boundaries — *fixed* so that scaling decisions are
invariant to how the caller chunks the trace, preserving the
determinism goldens — and checkpoints the entire simulation (arrival
process RNG, request mix RNG, queues, engine ledgers, latency digest,
autoscaler state) to a JSON-safe dict that resumes bit-exactly.

``feed()`` streams arrivals; ``finish()`` drains in-flight work and
builds a :class:`TrafficReport` (sustained request rate, latency
quantiles, per-machine utilisation, digests).  ``run()`` is both in one
call.  Telemetry: every chunk increments ``traffic.requests`` and
updates per-machine queue-depth gauges; autoscale decisions emit
``traffic.autoscale`` events and the window p99 lands in the
``traffic.window_p99`` histogram.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.sim.noise import seed_from
from repro.sim.resource import MachineSpec
from repro.telemetry.events import get_bus
from repro.telemetry.metrics import get_registry
from repro.traffic.arrivals import ArrivalProcess, make_process, restore_process
from repro.traffic.fleet import Fleet, LatencyHistogram
from repro.traffic.workload import RequestMix, default_mix, restore_mix

__all__ = ["AutoscalePolicy", "TrafficSim", "ClosedLoopSim", "TrafficReport"]

_CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class AutoscalePolicy:
    """Scale the fleet against a p99 latency SLO, evaluated in-sim.

    Every ``every`` requests the windowed p99 (latencies completed since
    the previous evaluation) is compared against ``slo_p99``: above it,
    one machine is added (up to ``max_machines``); below
    ``slo_p99 * scale_down_margin``, one autoscaled clone is retired
    (base machines always stay).  After any action, ``cooldown``
    evaluations pass before the next one, letting the new capacity
    reflect in the window.
    """

    slo_p99: float
    max_machines: int
    every: int = 5000
    scale_down_margin: float = 0.25
    cooldown: int = 2

    def __post_init__(self) -> None:
        if self.slo_p99 <= 0:
            raise ValueError("slo_p99 must be positive")
        if self.max_machines < 1:
            raise ValueError("max_machines must be >= 1")
        if self.every < 1:
            raise ValueError("every must be >= 1")
        if not 0.0 <= self.scale_down_margin < 1.0:
            raise ValueError("scale_down_margin must be in [0, 1)")
        if self.cooldown < 0:
            raise ValueError("cooldown must be non-negative")


class TrafficReport:
    """Result of a traffic run: rates, latency quantiles, digests."""

    def __init__(self, data: Dict[str, Any]) -> None:
        self.data = data

    def __getitem__(self, key: str) -> Any:
        return self.data[key]

    def to_dict(self) -> Dict[str, Any]:
        return self.data

    def table(self) -> str:
        d = self.data
        lat = d["latency"]
        lines = [
            f"traffic run: {d['name']}",
            f"  requests        {d['requests']:>12,}",
            f"  horizon         {d['horizon']:>12.2f} s (virtual)",
            f"  offered rate    {d['offered_rate']:>12.1f} req/s",
            f"  throughput      {d['throughput']:>12.1f} req/s",
            f"  latency mean    {lat['mean'] * 1e3:>12.3f} ms",
            f"  latency p50     {lat['p50'] * 1e3:>12.3f} ms",
            f"  latency p90     {lat['p90'] * 1e3:>12.3f} ms",
            f"  latency p99     {lat['p99'] * 1e3:>12.3f} ms",
            f"  latency max     {lat['max'] * 1e3:>12.3f} ms",
            f"  queue wait mean {d['wait']['mean'] * 1e3:>12.3f} ms",
            f"  sim speed       {d['sim_requests_per_sec']:>12,.0f} req/s (wall)",
            f"  latency digest  {d['latency_digest']}",
            f"  ledger digest   {d['ledger_digest']}",
            "  machines:",
        ]
        for m in d["machines"]:
            flag = "" if m["active"] else " (retired)"
            lines.append(
                f"    {m['name']:<14} {m['requests']:>9,} req  "
                f"util {m['utilization'] * 100:5.1f} %{flag}"
            )
        for event in d["autoscale_events"]:
            lines.append(
                f"  autoscale @req {event['at']:>8,}: {event['action']:<5}"
                f" {event.get('machine') or '-':<12} window p99"
                f" {event['p99'] * 1e3:8.2f} ms"
            )
        return "\n".join(lines)


def _build_report(
    name: str,
    fleet: Fleet,
    requests: int,
    wall_seconds: float,
    autoscale_events: List[Dict[str, Any]],
) -> TrafficReport:
    recorder = fleet.recorder
    hist = recorder.hist
    horizon = recorder.max_finish
    first = recorder.first_arrival or 0.0
    last = recorder.last_arrival or 0.0
    span = last - first
    busy = fleet.busy_seconds()
    counts = fleet.request_counts()
    machines = [
        {
            "name": server.name,
            "requests": counts[server.name],
            "busy_seconds": busy[server.name],
            "utilization": busy[server.name] / horizon if horizon > 0 else 0.0,
            "active": server.active,
        }
        for server in fleet._servers
    ]
    return TrafficReport(
        {
            "name": name,
            "requests": requests,
            "horizon": horizon,
            "offered_rate": requests / span if span > 0 else 0.0,
            "throughput": requests / horizon if horizon > 0 else 0.0,
            "latency": {
                "mean": hist.mean,
                "p50": hist.quantile(0.50),
                "p90": hist.quantile(0.90),
                "p99": hist.quantile(0.99),
                "max": hist.max,
                "min": hist.min if hist.count else 0.0,
            },
            "wait": {
                "mean": recorder.wait_total / requests if requests else 0.0,
                "max": recorder.wait_max,
            },
            "machines": machines,
            "autoscale_events": list(autoscale_events),
            "latency_digest": recorder.digest.hexdigest(),
            "ledger_digest": fleet.ledger_digest(),
            "ledger": fleet.ledger_totals(),
            "wall_seconds": wall_seconds,
            "sim_requests_per_sec": requests / wall_seconds if wall_seconds > 0 else 0.0,
        }
    )


class TrafficSim:
    """Open-loop traffic run: an arrival process through a fleet."""

    def __init__(
        self,
        process: ArrivalProcess | str,
        machines: Sequence[MachineSpec | str],
        mix: Optional[RequestMix] = None,
        *,
        discipline: str = "fifo",
        dispatch: str = "eft",
        alloc_cost: float = 0.0,
        engine: bool = True,
        noise_seed: Optional[int] = None,
        autoscale: Optional[AutoscalePolicy] = None,
        keep_records: bool = False,
        seed: int = 0,
        name: str = "traffic",
    ) -> None:
        if isinstance(process, str):
            process = make_process(process, seed=seed)
        self.process = process
        if mix is None:
            mix = default_mix(seed=seed_from("traffic.mix", process.seed))
        self.mix = mix
        self.autoscale = autoscale
        self.name = name
        self.fleet = Fleet(
            machines,
            mix,
            discipline=discipline,
            dispatch=dispatch,
            alloc_cost=alloc_cost,
            engine=engine,
            noise_seed=noise_seed,
            keep_records=keep_records,
            name=name,
        )
        self.n_done = 0
        self._window = LatencyHistogram()
        self._next_eval = autoscale.every if autoscale else 0
        self._cool = 0
        self.autoscale_events: List[Dict[str, Any]] = []
        self._wall = 0.0
        self._finished = False

    def feed(self, requests: int, chunk: int = 8192) -> None:
        """Stream the next ``requests`` arrivals through the fleet.

        Memory is bounded by ``chunk``; when autoscaling is on, chunks
        are split internally at policy boundaries so scale decisions
        land at the same request counts for any caller chunking.
        """
        if self._finished:
            raise RuntimeError("cannot feed a finished traffic simulation")
        if chunk < 1:
            raise ValueError("chunk must be >= 1")
        bus = get_bus()
        registry = get_registry()
        started = time.perf_counter()
        remaining = int(requests)
        while remaining > 0:
            k = min(chunk, remaining)
            if self.autoscale:
                k = min(k, self._next_eval - self.n_done)
            times = self.process.take(k)
            classes, sizes = self.mix.draw(k)
            stats = self.fleet.offer(times, classes, sizes, self.n_done)
            self.n_done += k
            remaining -= k
            latencies = stats["latencies"]
            if latencies.size:
                self._window.observe_many(latencies)
            registry.inc("traffic.requests", k)
            for machine, depth in stats["depths"].items():
                registry.set_gauge(f"traffic.queue_depth.{machine}", depth)
            bus.event(
                "traffic.chunk",
                level="debug",
                sim=self.name,
                requests=self.n_done,
                t_last=stats["t_last"],
                machines=self.fleet.active_count,
            )
            if self.autoscale and self.n_done == self._next_eval:
                self._autoscale_step(stats["t_last"])
                self._next_eval += self.autoscale.every
        self._wall += time.perf_counter() - started

    def _autoscale_step(self, t: float) -> None:
        policy = self.autoscale
        p99 = self._window.quantile(0.99) if self._window.count else 0.0
        get_registry().observe("traffic.window_p99", p99)
        if self._cool > 0:
            self._cool -= 1
        else:
            action = None
            machine = None
            if p99 > policy.slo_p99 and self.fleet.active_count < policy.max_machines:
                machine = self.fleet.scale_up()
                action = "up"
            elif p99 < policy.slo_p99 * policy.scale_down_margin:
                machine = self.fleet.scale_down()
                action = "down" if machine else None
            if action:
                self._cool = policy.cooldown
                event = {
                    "at": self.n_done,
                    "t": t,
                    "p99": p99,
                    "action": action,
                    "machine": machine,
                }
                self.autoscale_events.append(event)
                get_bus().event("traffic.autoscale", sim=self.name, **event)
        self._window = LatencyHistogram()

    def finish(self) -> TrafficReport:
        """Drain in-flight work and build the report."""
        if not self._finished:
            started = time.perf_counter()
            self.fleet.drain()
            self._wall += time.perf_counter() - started
            self._finished = True
        return _build_report(
            self.name, self.fleet, self.n_done, self._wall, self.autoscale_events
        )

    def run(self, requests: int, chunk: int = 8192) -> TrafficReport:
        """Feed ``requests`` arrivals and finish: the one-call form."""
        self.feed(requests, chunk=chunk)
        return self.finish()

    # -- checkpoint / restore ----------------------------------------------

    def checkpoint(self) -> Dict[str, Any]:
        """JSON-safe snapshot of the whole simulation mid-trace."""
        if self._finished:
            raise RuntimeError("cannot checkpoint a finished traffic simulation")
        return {
            "version": _CHECKPOINT_VERSION,
            "name": self.name,
            "n_done": self.n_done,
            "process": self.process.state_dict(),
            "fleet": self.fleet.checkpoint(),
            "autoscale": asdict(self.autoscale) if self.autoscale else None,
            "next_eval": self._next_eval,
            "cool": self._cool,
            "window": self._window.state_dict(),
            "events": list(self.autoscale_events),
            "wall": self._wall,
        }

    @classmethod
    def restore(
        cls,
        state: Dict[str, Any],
        trace: Optional[Sequence[float]] = None,
        keep_records: bool = False,
    ) -> "TrafficSim":
        """Resume a simulation from :meth:`checkpoint` output.

        ``trace`` is required iff the arrival process is a
        :class:`~repro.traffic.arrivals.TraceReplay` (checkpoints hold
        only its cursor).
        """
        version = state.get("version")
        if version != _CHECKPOINT_VERSION:
            raise ValueError(f"cannot restore traffic checkpoint version {version!r}")
        sim = cls.__new__(cls)
        sim.process = restore_process(state["process"], trace=trace)
        sim.fleet = Fleet.restore(state["fleet"], keep_records=keep_records)
        sim.mix = sim.fleet.mix
        policy = state["autoscale"]
        sim.autoscale = AutoscalePolicy(**policy) if policy else None
        sim.name = state["name"]
        sim.n_done = int(state["n_done"])
        sim._window = LatencyHistogram.restore(state["window"])
        sim._next_eval = int(state["next_eval"])
        sim._cool = int(state["cool"])
        sim.autoscale_events = list(state["events"])
        sim._wall = float(state["wall"])
        sim._finished = False
        return sim


class ClosedLoopSim:
    """Closed-loop load: ``clients`` issue-wait-think loops over a fleet.

    Each client issues a request, waits for its completion, sleeps an
    exponential think time (mean ``think`` seconds), then issues the
    next — so at most ``clients`` requests are ever in the system.
    FIFO queues only: a closed loop needs each request's finish time at
    dispatch to schedule the client's next arrival, which processor
    sharing cannot provide online.
    """

    def __init__(
        self,
        machines: Sequence[MachineSpec | str],
        mix: Optional[RequestMix] = None,
        *,
        clients: int = 16,
        think: float = 0.1,
        dispatch: str = "eft",
        alloc_cost: float = 0.0,
        engine: bool = False,
        noise_seed: Optional[int] = None,
        keep_records: bool = False,
        seed: int = 0,
        name: str = "closed-loop",
    ) -> None:
        if clients < 1:
            raise ValueError("clients must be >= 1")
        if think < 0:
            raise ValueError("think time must be non-negative")
        if mix is None:
            mix = default_mix(seed=seed_from("traffic.mix", seed))
        self.mix = mix
        self.clients = int(clients)
        self.think = float(think)
        self.name = name
        self._rng = np.random.Generator(np.random.PCG64(seed_from("traffic.think", seed)))
        self.fleet = Fleet(
            machines,
            mix,
            discipline="fifo",
            dispatch=dispatch,
            alloc_cost=alloc_cost,
            engine=engine,
            noise_seed=noise_seed,
            keep_records=keep_records,
            name=name,
        )

    def run(self, requests: int) -> TrafficReport:
        """Drive the client population until ``requests`` complete."""
        started = time.perf_counter()
        registry = get_registry()
        # All clients start thinking at t=0 (staggered by the think
        # draw), so the ramp-up itself is seeded and deterministic.
        heap: List[tuple] = []
        for client in range(self.clients):
            heapq.heappush(
                heap, (float(self._rng.exponential(self.think)), client)
            )
        one = np.empty(1, dtype=np.float64)
        for rid in range(int(requests)):
            t, client = heapq.heappop(heap)
            classes, sizes = self.mix.draw(1)
            one[0] = t
            stats = self.fleet.offer(one, classes, sizes, rid)
            finish = t + float(stats["latencies"][0])
            pause = float(self._rng.exponential(self.think))
            heapq.heappush(heap, (finish + pause, client))
            if (rid + 1) % 1024 == 0:
                registry.inc("traffic.requests", 1024)
        registry.inc("traffic.requests", int(requests) % 1024)
        wall = time.perf_counter() - started
        return _build_report(self.name, self.fleet, int(requests), wall, [])
