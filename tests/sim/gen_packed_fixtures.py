"""Generate the object-workload reference digests for the packed tests.

Run as a script to (re)create ``tests/sim/fixtures/packed_records.json``::

    PYTHONPATH=src python tests/sim/gen_packed_fixtures.py

Every engine input now goes through :func:`repro.sim.packed.pack_workload`
and one bind pass, so comparing an object run against a packed run
would compare that path with itself.  The committed fixture instead
holds full-record SHA-256 digests produced by the engine's former
per-demand *gather* pass over ``SimWorkload`` objects — the independent
reference ``test_packed.py`` pins both input forms to.  Regenerate only
when the execution model changes on purpose (new cost formula, new
noise semantics), never to paper over an accidental behaviour change.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.sim.demands import (
    ComputeDemand,
    IODemand,
    MemoryDemand,
    NetworkDemand,
    SleepDemand,
)
from repro.sim.engine import Engine
from repro.sim.machines import get_machine
from repro.sim.noise import NoiseModel
from repro.sim.workload import SimWorkload

FIXTURE_PATH = Path(__file__).parent / "fixtures" / "packed_records.json"

MACHINES = ("thinkie", "stampede", "comet")
SEEDS = (0, 1, 2, 3)
#: (machine, workload seed, run count) of the back-to-back run_many case.
RUN_MANY_CASE = ("thinkie", 5, 2)


def random_workload(rng: np.random.Generator, machine, name: str = "rand") -> SimWorkload:
    """A randomised workload exercising all five demand types and
    multi-stream (contention) phases."""
    filesystems = sorted(machine.filesystems)
    workload = SimWorkload(name=name, base_rss=int(rng.integers(1 << 20, 8 << 20)))
    for p in range(int(rng.integers(1, 5))):
        phase = workload.phase(f"p{p}")
        for s in range(int(rng.integers(1, 4))):
            stream = phase.stream(f"s{s}")
            for _ in range(int(rng.integers(0, 6))):
                kind = int(rng.integers(0, 5))
                if kind == 0:
                    stream.add(
                        ComputeDemand(
                            instructions=float(rng.uniform(1e6, 1e9)),
                            workload_class=str(
                                rng.choice(["app.generic", "app.md", "app.startup"])
                            ),
                            flops_per_instruction=float(rng.uniform(0, 1)),
                            threads=int(rng.integers(1, 8)),
                            paradigm=str(rng.choice(["serial", "openmp", "mpi"])),
                            calibrated_cycles=(
                                float(rng.uniform(1e6, 1e9))
                                if rng.integers(0, 2)
                                else None
                            ),
                            stall_ratio=(
                                float(rng.uniform(0, 2)) if rng.integers(0, 2) else None
                            ),
                        )
                    )
                elif kind == 1:
                    stream.add(
                        IODemand(
                            bytes_read=int(rng.integers(0, 1 << 24)),
                            bytes_written=int(rng.integers(0, 1 << 24)),
                            block_size=int(rng.integers(1, 1 << 21)),
                            filesystem=str(rng.choice(filesystems)),
                        )
                    )
                elif kind == 2:
                    stream.add(
                        MemoryDemand(
                            allocate=int(rng.integers(0, 1 << 26)),
                            free=int(rng.integers(0, 1 << 24)),
                            block_size=int(rng.integers(1, 1 << 21)),
                        )
                    )
                elif kind == 3:
                    stream.add(
                        NetworkDemand(
                            bytes_sent=int(rng.integers(0, 1 << 20)),
                            bytes_received=int(rng.integers(0, 1 << 20)),
                            block_size=int(rng.integers(1, 1 << 17)),
                        )
                    )
                else:
                    stream.add(SleepDemand(float(rng.uniform(0, 0.5))))
    return workload


def make_noise(seed: int, noisy: bool) -> NoiseModel:
    """The noise model of one randomised case (fresh per run)."""
    if not noisy:
        return NoiseModel.silent()
    return NoiseModel(seed=seed + 99, duration_sigma=0.02, counter_sigma=0.007)


def record_digest(record) -> str:
    """SHA-256 over the full observable timeline of a record.

    Covers duration, phase bounds, every counter and level series
    (times and values byte-exact) and every I/O event — equal digests
    mean bit-identical runs.
    """
    h = hashlib.sha256()
    h.update(np.float64(record.duration).tobytes())
    h.update(repr(record.phase_bounds).encode())
    for group in (record.counters, record.levels):
        for name in sorted(group):
            series = group[name]
            h.update(name.encode())
            h.update(np.asarray(series.times, dtype=np.float64).tobytes())
            h.update(np.asarray(series.values, dtype=np.float64).tobytes())
    for event in record.io_events:
        h.update(repr(tuple(event)).encode())
    return h.hexdigest()


def case_key(machine: str, seed: int, noisy: bool) -> str:
    return f"{machine}-{seed}-{'noisy' if noisy else 'silent'}"


def randomized_case(machine_name: str, seed: int, noisy: bool) -> dict:
    machine = get_machine(machine_name)
    workload = random_workload(np.random.default_rng(seed), machine)
    record = Engine(machine, make_noise(seed, noisy)).run(workload)
    events = list(record.io_events)
    return {
        "digest": record_digest(record),
        "n_io_events": len(events),
        "first_io_event": list(events[0]) if events else None,
    }


def run_many_case() -> list[str]:
    machine_name, seed, count = RUN_MANY_CASE
    machine = get_machine(machine_name)
    workload = random_workload(np.random.default_rng(seed), machine)
    engine = Engine(machine, NoiseModel.silent())
    return [record_digest(r) for r in engine.run_many([workload] * count)]


def main() -> None:
    out = {
        "randomized": {
            case_key(machine, seed, noisy): randomized_case(machine, seed, noisy)
            for machine in MACHINES
            for seed in SEEDS
            for noisy in (False, True)
        },
        "run_many": run_many_case(),
    }
    FIXTURE_PATH.parent.mkdir(exist_ok=True)
    with open(FIXTURE_PATH, "w", encoding="utf-8") as handle:
        json.dump(out, handle, indent=1, sort_keys=True)
    print(f"wrote {FIXTURE_PATH}")


if __name__ == "__main__":
    main()
