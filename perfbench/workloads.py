"""The benchmark's four workloads.

Each workload builds its inputs from the run seed (``setup``; the
fresh store directory each op writes to is made untimed at the start of
the op, because its cost is file-system latency, not program work), checks
one small fixed-seed *canary* against pinned digests (which also warms
the interpreter and starts the run-service pool before anything is
timed), and then runs *ops*: one op is one unit of the work a user waits
for, timed on the host clock, followed by output checks that are not
timed.  ``OpResult.units`` counts what ``ops_per_s`` reports per
workload; ``phases`` carries the per-phase figures (profiles/s,
emulations/s, cells/s, resume and report seconds, simulated requests/s).

Why these four (each stresses different layers):

* ``profile_emulate`` -- the paper's loop at fine trace granularity;
  per-request work (~0.9 s) far exceeds pool dispatch cost, and time
  goes to ``build_packed`` and ``Engine.run`` inside the pool workers,
  then to store reads, plan building and replays in the main process.
* ``campaign_sweep`` -- many ~7 ms cells, close to the pool's dispatch
  cost; time goes to the run service, ``FileStore.put_many`` and the
  ledger reads of resume and report.
* ``traffic_open`` -- the E11 open-loop replay: large arrival chunks
  through ``Fleet.offer``'s per-request dispatch loop and 8192-request
  ``EngineStream.feed`` batches.
* ``traffic_closed`` -- the closed loop with API defaults: one request
  per ``Fleet.offer``/``EngineStream.feed`` call, driven by a heap, so
  a per-call setup cost that batching hides shows up here.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import repro
from repro.apps import GromacsModel
from repro.core.api import traffic
from repro.core.config import SynapseConfig
from repro.runtime import analyze, campaign
from repro.sim.backend import SimBackend
from repro.sim.machines import resolve_machine
from repro.storage import FileStore
from repro.telemetry.metrics import get_registry
from repro.traffic.arrivals import TraceReplay
from repro.traffic.sim import TrafficSim
from repro.traffic.workload import default_mix, unit_seconds

MACHINES = ("thinkie", "comet", "stampede", "archer")

#: Seed of every canary input (the paper's conference date).
PIN_SEED = 20160523

Quiet = Callable[[], contextlib.AbstractContextManager]


def derive(*parts: object) -> int:
    """Stable 31-bit seed from the run seed and a workload-local path."""
    text = "\x1f".join(str(part) for part in parts).encode("utf-8")
    return int.from_bytes(hashlib.blake2b(text, digest_size=4).digest(), "big") >> 1


def profile_digest(profile: Any) -> str:
    """Digest of a profile without its wall-clock and process identity."""
    doc = campaign.comparable_artifact(profile)
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode("utf-8")).hexdigest()


@dataclass
class OpResult:
    """One timed op: units of work, host seconds, phase figures, check failures."""

    units: float
    seconds: float
    phases: dict[str, float] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)


def _expect(errors: list[str], ok: bool, message: str) -> None:
    if not ok:
        errors.append(message)


class Workload:
    """Interface of one workload; see the module docstring."""

    name = ""
    #: What one unit of ``ops_per_s`` is.
    unit = ""
    #: Host seconds of one op on a 2-core x86-64 VM; sets how many ops a
    #: traced run replays, so traced work is a function of ``--seconds``.
    nominal_op_s = 1.0
    #: Whether ops run requests in the run service's process pool.
    pooled = False

    def setup(self, seed: int, workdir: Path) -> Any:
        raise NotImplementedError

    def canary(self, inputs: Any, quiet: Quiet) -> list[str]:
        raise NotImplementedError

    def op(self, inputs: Any, index: int, quiet: Quiet) -> OpResult:
        raise NotImplementedError

    def seeds(self, inputs: Any, ops: int) -> dict[str, Any]:
        """The derived input seeds, for the trajectory record."""
        return {}


# -- profile -> emulate ----------------------------------------------------------


@dataclass
class ProfileEmulateInputs:
    seed: int
    app: GromacsModel
    canary_app: GromacsModel
    config: SynapseConfig
    root: Path


class ProfileEmulate(Workload):
    name = "profile_emulate"
    unit = "profiles taken through profile, store, lookup and emulation on 4 targets"
    nominal_op_s = 1.3
    pooled = True
    #: Profiles per op: one per pool worker on a 2-core host.
    REPEATS = 2
    PINS = {
        "profiles": [
            "9446ee64faf1f3492cc25e941c706238eb2b4f12b45f8a58a2431cf9a62efb5a",
            "a988c91c8b3f2ba2ca9355625f3c775b77cbffa7e5654b7c00b71a010d57ffc5",
        ],
        "tx": {
            "thinkie": [3.408571026524234, 3.4086184362030467],
            "comet": [3.466401008521693, 3.4664512882388436],
            "stampede": [3.432617550365554, 3.4326765267293156],
            "archer": [3.452172596850457, 3.4522305614184092],
        },
    }

    def setup(self, seed: int, workdir: Path) -> ProfileEmulateInputs:
        return ProfileEmulateInputs(
            seed=seed,
            app=GromacsModel(iterations=10**6, chunks=10**5),
            canary_app=GromacsModel(iterations=10**5, chunks=10**4),
            config=SynapseConfig(sample_rate=10.0),
            root=workdir,
        )

    def _round(self, inputs: ProfileEmulateInputs, app: GromacsModel,
               seed: int) -> tuple[OpResult, list, list, dict]:
        path = Path(tempfile.mkdtemp(dir=inputs.root))
        t0 = time.perf_counter()
        profiles = repro.profile(
            app, backend=SimBackend("thinkie", seed=seed), config=inputs.config,
            store=FileStore(path), repeats=self.REPEATS,
        )
        t1 = time.perf_counter()
        # A fresh handle, so reads hit disk like a separate `repro emulate`.
        reader = FileStore(path)
        ids = [entry.id for entry in reader.entries(app.command(), app.tags())]
        stored = reader.get_many(ids)
        tx: dict[str, list[float]] = {}
        for machine in MACHINES:
            tx[machine] = [
                repro.emulate(profile, backend=SimBackend(machine, seed=seed)).tx
                for profile in stored
            ]
            # The paper's emulate(command, tags): the newest stored profile.
            tx[machine].append(repro.emulate(
                app.command(), app.tags(),
                backend=SimBackend(machine, seed=seed), store=reader,
            ).tx)
        t2 = time.perf_counter()
        emulations = sum(len(values) for values in tx.values())
        result = OpResult(
            units=len(profiles),
            seconds=t2 - t0,
            phases={
                "profiles_per_s": len(profiles) / (t1 - t0),
                "emulations_per_s": emulations / (t2 - t1),
            },
        )
        shutil.rmtree(path, ignore_errors=True)
        return result, profiles, stored, tx

    def _check(self, result: OpResult, profiles: list, stored: list,
               tx: dict[str, list[float]]) -> None:
        errors = result.errors
        _expect(errors, len(profiles) == self.REPEATS,
                f"{len(profiles)} profiles, expected {self.REPEATS}")
        for profile in profiles:
            _expect(errors, profile.info.get("exit_code") == 0 and profile.n_samples > 0,
                    f"profile {profile.command} failed or has no samples")
        _expect(errors, sorted(map(profile_digest, stored))
                == sorted(map(profile_digest, profiles)),
                "stored profiles differ from the profiles the run returned")
        for machine, values in tx.items():
            _expect(errors, all(math.isfinite(v) and v > 0 for v in values),
                    f"non-positive emulated Tx on {machine}: {values}")
            _expect(errors, len(values) == len(stored) + 1 and values[-1] == values[-2],
                    f"emulate(command, tags) on {machine} did not replay the newest "
                    f"stored profile: {values}")

    def canary(self, inputs: ProfileEmulateInputs, quiet: Quiet) -> list[str]:
        result, profiles, stored, tx = self._round(inputs, inputs.canary_app, PIN_SEED)
        with quiet():
            self._check(result, profiles, stored, tx)
            got = {
                "profiles": sorted(map(profile_digest, profiles)),
                "tx": {machine: sorted(values[:-1]) for machine, values in tx.items()},
            }
        _expect(result.errors, got == self.PINS,
                f"canary differs from its pins: {json.dumps(got)}")
        return result.errors

    def op(self, inputs: ProfileEmulateInputs, index: int, quiet: Quiet) -> OpResult:
        seed = derive(inputs.seed, self.name, index)
        result, profiles, stored, tx = self._round(inputs, inputs.app, seed)
        with quiet():
            self._check(result, profiles, stored, tx)
        return result

    def seeds(self, inputs: ProfileEmulateInputs, ops: int) -> dict[str, Any]:
        return {"backend": [derive(inputs.seed, self.name, i) for i in range(ops)]}


# -- campaign sweep ----------------------------------------------------------------


@dataclass
class CampaignInputs:
    seed: int
    spec: dict[str, Any]
    root: Path


class CampaignSweep(Workload):
    name = "campaign_sweep"
    unit = "campaign cells taken through sweep, resume and report"
    nominal_op_s = 0.8
    pooled = True
    APPS = [
        "gromacs:iterations=10000",
        "gromacs:iterations=100000",
        "gromacs:iterations=1000000",
        "synthetic",
        "sleeper:sleep_seconds=2",
        "ensemble:width=4,stages=2",
    ]
    #: Seeds per op: 6 apps x 4 machines x 2 repeats x 2 seeds = 96 cells,
    #: so that a run holds ~20 ops and their median rides out host drift.
    SEEDS = 2
    PINS = {"ledger_digest":
            "2694e9a6e8103491d87079d81a75722def2fc492335cd1dc65cf0ec318aeb4b3"}

    def setup(self, seed: int, workdir: Path) -> CampaignInputs:
        spec = {
            "name": "perfbench",
            "kind": "profile",
            "apps": list(self.APPS),
            "machines": list(MACHINES),
            "repeats": 2,
            "config": {"sample_rate": 2},
        }
        campaign.CampaignSpec.from_dict({**spec, "seeds": [0]})  # validate
        return CampaignInputs(seed=seed, spec=spec, root=workdir)

    def _sweep(self, inputs: CampaignInputs, seeds: list[int],
               quiet: Quiet) -> tuple[OpResult, str]:
        spec = campaign.CampaignSpec.from_dict({**inputs.spec, "seeds": seeds})
        path = Path(tempfile.mkdtemp(dir=inputs.root))
        store = FileStore(path)
        t0 = time.perf_counter()
        sweep = campaign.run_campaign(spec, store)
        t1 = time.perf_counter()
        with quiet():
            swept = campaign.ledger_digest(store, spec.name)
        t2 = time.perf_counter()
        resume = campaign.run_campaign(spec, store)
        t3 = time.perf_counter()
        report = analyze.analyze_campaign(spec, store)
        t4 = time.perf_counter()
        result = OpResult(
            units=spec.n_cells,
            seconds=(t1 - t0) + (t4 - t2),
            phases={
                "cells_per_s": spec.n_cells / (t1 - t0),
                "resume_s": t3 - t2,
                "report_s": t4 - t3,
            },
        )
        errors = result.errors
        with quiet():
            resumed = campaign.ledger_digest(store, spec.name)
        _expect(errors, sweep.executed == spec.n_cells and not sweep.failed,
                f"sweep executed {sweep.executed}/{spec.n_cells} cells, "
                f"failures: {sweep.failed[:1]}")
        _expect(errors, resume.executed == 0 and resume.skipped == spec.n_cells,
                f"resume re-executed {resume.executed} cells")
        _expect(errors, swept == resumed,
                f"ledger digest changed across the resume: {swept} -> {resumed}")
        _expect(errors, report.complete
                and len(report.groups) == len(spec.apps) * len(spec.machines),
                "campaign report is incomplete")
        shutil.rmtree(path, ignore_errors=True)
        return result, swept

    def canary(self, inputs: CampaignInputs, quiet: Quiet) -> list[str]:
        result, digest = self._sweep(inputs, [0], quiet)
        _expect(result.errors, digest == self.PINS["ledger_digest"],
                f"canary ledger digest {digest} differs from its pin")
        return result.errors

    def _seeds(self, inputs: CampaignInputs, index: int) -> list[int]:
        return [derive(inputs.seed, self.name, index, k) for k in range(self.SEEDS)]

    def op(self, inputs: CampaignInputs, index: int, quiet: Quiet) -> OpResult:
        return self._sweep(inputs, self._seeds(inputs, index), quiet)[0]

    def seeds(self, inputs: CampaignInputs, ops: int) -> dict[str, Any]:
        return {"campaign": [self._seeds(inputs, i) for i in range(ops)]}


# -- traffic -------------------------------------------------------------------------


def fleet_capacity(mix_seed: int) -> float:
    """Requests/s the fleet serves at full load (predicted unit costs)."""
    mix = default_mix(seed=mix_seed)
    units = unit_seconds(mix.classes, [resolve_machine(m) for m in MACHINES])
    weights = np.asarray([c.weight for c in mix.classes])
    return float(np.sum(1.0 / ((weights / weights.sum()) @ units)))


def poisson_trace(seed: int, rate: float, n: int) -> np.ndarray:
    rng = np.random.Generator(np.random.PCG64(seed))
    return np.cumsum(rng.exponential(1.0 / rate, n))


@dataclass
class TrafficInputs:
    seed: int
    mix_seed: int
    capacity: float
    trace: np.ndarray | None = None
    #: Digests of the first op: every later op on the same input must match.
    reference: tuple[str, str] | None = None


class _Traffic(Workload):
    unit = "simulated requests"
    REQUESTS = 0
    CANARY_REQUESTS = 0
    PINS: dict[str, str] = {}

    def _replay(self, inputs: TrafficInputs, requests: int) -> dict[str, Any]:
        raise NotImplementedError

    def _run(self, inputs: TrafficInputs, requests: int
             ) -> tuple[OpResult, tuple[str, str]]:
        """One timed replay; returns it with its (latency, ledger) digests."""
        registry = get_registry()
        counted = registry.counter("traffic.requests")
        t0 = time.perf_counter()
        report = self._replay(inputs, requests)
        seconds = time.perf_counter() - t0
        result = OpResult(
            units=requests, seconds=seconds,
            phases={"sim_requests_per_s": requests / seconds},
        )
        errors = result.errors
        served = sum(machine["requests"] for machine in report["machines"])
        _expect(errors, report["requests"] == requests and served == requests,
                f"{report['requests']} requests reported, {served} served, "
                f"expected {requests}")
        _expect(errors, registry.counter("traffic.requests") - counted == requests,
                "traffic.requests counter disagrees with the replayed requests")
        _expect(errors, report["latency"]["p50"] > 0 and report["latency"]["min"] >= 0,
                f"implausible latencies: {report['latency']}")
        self._check(inputs, report, errors)
        return result, (report["latency_digest"], report["ledger_digest"])

    def _check(self, inputs: TrafficInputs, report: dict, errors: list[str]) -> None:
        pass

    def canary(self, inputs: TrafficInputs, quiet: Quiet) -> list[str]:
        canary = self._canary_inputs()
        result, (latency, ledger) = self._run(canary, self.CANARY_REQUESTS)
        _expect(result.errors, latency == self.PINS["latency_digest"]
                and ledger == self.PINS["ledger_digest"],
                f"canary digests {latency}/{ledger} differ from their pins")
        return result.errors

    def _canary_inputs(self) -> TrafficInputs:
        raise NotImplementedError

    def op(self, inputs: TrafficInputs, index: int, quiet: Quiet) -> OpResult:
        result, digests = self._run(inputs, self.REQUESTS)
        if inputs.reference is None:
            inputs.reference = digests
        _expect(result.errors, digests == inputs.reference,
                f"replay of the same input diverged: {digests} vs {inputs.reference}")
        return result


class TrafficOpen(_Traffic):
    name = "traffic_open"
    nominal_op_s = 0.8
    REQUESTS = 1 << 17
    CANARY_REQUESTS = 1 << 15
    UTILIZATION = 0.70
    CHUNK = 8192
    PINS = {"latency_digest": "145e71062795ac593ecee4f37f0f1848",
            "ledger_digest": "ebe6e1213b9ee3b9e7f5d81cf521a4d8"}

    def setup(self, seed: int, workdir: Path) -> TrafficInputs:
        mix_seed = derive(seed, self.name, "mix")
        capacity = fleet_capacity(mix_seed)
        trace = poisson_trace(derive(seed, self.name, "trace"),
                              self.UTILIZATION * capacity, self.REQUESTS)
        return TrafficInputs(seed=seed, mix_seed=mix_seed, capacity=capacity,
                             trace=trace)

    def _canary_inputs(self) -> TrafficInputs:
        # E11's trace and mix seeds: a prefix of its 10^6-request replay.
        capacity = fleet_capacity(11)
        trace = poisson_trace(PIN_SEED, self.UTILIZATION * capacity,
                              self.CANARY_REQUESTS)
        return TrafficInputs(seed=PIN_SEED, mix_seed=11, capacity=capacity,
                             trace=trace)

    def _replay(self, inputs: TrafficInputs, requests: int) -> dict[str, Any]:
        sim = TrafficSim(
            TraceReplay(inputs.trace[:requests]), list(MACHINES),
            default_mix(seed=inputs.mix_seed), discipline="fifo", dispatch="eft",
            engine=True, name="perfbench",
        )
        return sim.run(requests, chunk=self.CHUNK).to_dict()

    def _check(self, inputs: TrafficInputs, report: dict, errors: list[str]) -> None:
        offered = report["offered_rate"] / (self.UTILIZATION * inputs.capacity)
        _expect(errors, 0.95 < offered < 1.05,
                f"offered rate is {offered:.3f}x the trace's rate")

    def seeds(self, inputs: TrafficInputs, ops: int) -> dict[str, Any]:
        return {"trace": derive(inputs.seed, self.name, "trace"),
                "mix": inputs.mix_seed}


class TrafficClosed(_Traffic):
    name = "traffic_closed"
    nominal_op_s = 0.9
    REQUESTS = 1024
    CANARY_REQUESTS = 256
    #: API/CLI defaults of ``repro.traffic(..., closed_loop=N)``.
    CLIENTS = 16
    THINK = 0.1
    PINS = {"latency_digest": "c88d9383f845e305231ef2262ad2f196",
            "ledger_digest": "7218ff13dd955a17fafea1521231d73c"}

    def setup(self, seed: int, workdir: Path) -> TrafficInputs:
        from repro.sim.noise import seed_from  # noqa: PLC0415

        sim_seed = derive(seed, self.name)
        # The mix repro.traffic derives from its seed; priced for the check.
        mix_seed = seed_from("traffic.mix", sim_seed)
        return TrafficInputs(seed=sim_seed, mix_seed=mix_seed,
                             capacity=fleet_capacity(mix_seed))

    def _canary_inputs(self) -> TrafficInputs:
        return TrafficInputs(seed=PIN_SEED, mix_seed=0, capacity=0.0)

    def _replay(self, inputs: TrafficInputs, requests: int) -> dict[str, Any]:
        return traffic(
            None, list(MACHINES), requests=requests, closed_loop=self.CLIENTS,
            think=self.THINK, seed=inputs.seed,
        ).to_dict()

    def _check(self, inputs: TrafficInputs, report: dict, errors: list[str]) -> None:
        # A closed loop cannot outrun its clients' think time (Little's law,
        # with slack for the sampled think times), nor the fleet.
        bound = self.CLIENTS / self.THINK * 1.2
        if inputs.capacity:
            bound = min(bound, inputs.capacity * 1.2)
        _expect(errors, 0 < report["throughput"] < bound,
                f"closed-loop throughput {report['throughput']:.1f}/s out of "
                f"(0, {bound:.1f})")

    def seeds(self, inputs: TrafficInputs, ops: int) -> dict[str, Any]:
        return {"sim": inputs.seed, "mix": inputs.mix_seed}


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (ProfileEmulate(), CampaignSweep(), TrafficOpen(), TrafficClosed())
}
