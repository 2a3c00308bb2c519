"""Synapse reproduction benchmark: one command, four workloads.

Run from the repository root::

    python3 perfbench/run.py --workload profile_emulate --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` runs every op twice, untraced and traced, and reports the
per-layer metrics of the traced runs plus the tracing overhead.
``--workload all`` runs every workload in a fresh interpreter, one after
the other, so peak RSS, the run-service pool and the store caches never
carry over.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; each run also
appends one record to ``perfbench/trajectory.jsonl``.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"

#: Set-ups per run; setup_s is their median.
SETUP_REPEATS = 15

#: Per-phase figures printed beside the end-to-end metrics.
PHASE_UNITS = {
    "ops_per_s_host": "1/s",
    "setup_s_host": "s",
    "profiles_per_s": "1/s",
    "emulations_per_s": "1/s",
    "cells_per_s": "1/s",
    "resume_s": "s",
    "report_s": "s",
    "sim_requests_per_s": "1/s",
}


def _peak_rss_mb() -> float:
    """Peak resident set of this process (pool workers not included)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tally:
    """Attempted and failed ops with the first failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def add(self, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(errors[: max(0, 8 - len(self.errors))])


def _guarded(tally: Tally, fn, *args: Any) -> Any:
    """Run one op; an exception counts the op as failed."""
    try:
        result = fn(*args)
    except Exception:  # noqa: BLE001 - a failing op is a result, not a crash
        tally.add([traceback.format_exc(limit=4)])
        return None
    tally.add(result if isinstance(result, list) else result.errors)
    return result


class HostSpeed:
    """Host-speed probe, timed between ops to take host drift out of figures.

    This VM's vCPUs share physical cores with other tenants: the same
    code runs up to a third slower for tens of seconds at a time, and a
    run's raw median moves with it.  A fixed kernel (an interpreter loop
    and NumPy sorts, the two kinds of work the program does) is timed
    before the first op and after every op; each op's host seconds are
    scaled by ``REFERENCE_S / probe``, with ``probe`` the mean of the
    probes on either side, into seconds on a host where the probe takes
    ``REFERENCE_S``.  A change to the program moves the op and not the
    probe, so it shows in full.  Each probe is the fastest of three, so
    one preemption does not skew it.  Raw host figures are printed and
    recorded beside the scaled ones.
    """

    #: Probe seconds on the reference host (a 2-vCPU x86-64 VM).
    REFERENCE_S = 0.008

    def __init__(self) -> None:
        import numpy as np  # noqa: PLC0415

        self._array = np.random.default_rng(0).random(60_000)
        self._sort = np.sort
        self._last = self._probe()

    def _probe(self) -> float:
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            total = 0
            for i in range(50_000):
                total += i * i
            for _ in range(7):
                self._sort(self._array)
            best = min(best, time.perf_counter() - t0)
        return best

    def scale(self) -> float:
        """Reference seconds per host second over the span since the last call."""
        before, self._last = self._last, self._probe()
        return self.REFERENCE_S / ((before + self._last) / 2)


def run_end_to_end(workload: Any, spec: dict, seed: int, seconds: float,
                   workdir: Path) -> dict:
    speed = HostSpeed()
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = workload.setup(seed, workdir)
        setups.append(time.perf_counter() - t0)
    setup_scale = speed.scale()
    tally = Tally()
    _guarded(tally, workload.canary, inputs, contextlib.nullcontext)
    rates: list[float] = []
    scaled: list[float] = []
    phases: dict[str, list[float]] = {}
    start = time.perf_counter()
    speed.scale()
    ops = 0
    while True:
        result = _guarded(tally, workload.op, inputs, ops, contextlib.nullcontext)
        scale = speed.scale()
        ops += 1
        if result is not None:
            rates.append(result.units / result.seconds)
            scaled.append(rates[-1] / scale)
            for key, value in result.phases.items():
                phases.setdefault(key, []).append(value)
        if time.perf_counter() - start >= seconds:
            break
    metrics = {
        "ops_per_s": statistics.median(scaled) if scaled else 0.0,
        "setup_s": statistics.median(setups) * setup_scale,
        "peak_rss_mb": _peak_rss_mb(),
        "ok_frac": 1.0 - tally.failed / tally.attempted,
    }
    phases["ops_per_s_host"] = rates
    phases["setup_s_host"] = setups
    return {
        "tally": tally,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in spec["end_to_end"]},
        "phases": {key: statistics.median(values) for key, values in phases.items()},
        "samples": {"ops_per_s_host": rates, "setup_s_host": setups,
                    "ops_per_s": scaled},
        "ops": ops,
        "seeds": workload.seeds(inputs, ops),
    }


def _timed(tally: Tally, workload: Any, inputs: Any, index: int, quiet: Any) -> float:
    """Wall seconds of one op, its checks included."""
    t0 = time.perf_counter()
    _guarded(tally, workload.op, inputs, index, quiet)
    return time.perf_counter() - t0


def run_traced(workload: Any, spec: dict, seed: int, seconds: float, workdir: Path,
               spans_path: Path) -> dict:
    from repro.runtime.service import get_service  # noqa: PLC0415
    from tracer import SERVICE_STATS, Tracer  # noqa: PLC0415

    inputs = workload.setup(seed, workdir)
    tally = Tally()
    tracer = Tracer()
    # Installed before the canary starts the pool, so that the forked
    # workers inherit the shims; they record only inside recording().
    tracer.install(workers=workload.pooled)
    try:
        _guarded(tally, workload.canary, inputs, tracer.pause)
        # Each op runs twice, untraced and traced, in alternating order, so
        # host drift hits both sides alike: the wall-time ratio is the
        # tracing overhead.  The op count depends on --seconds only, so
        # traced work is the same on every commit.
        ops = max(1, round(seconds / 2 / workload.nominal_op_s))
        wall = untraced = 0.0
        stats = dict.fromkeys(SERVICE_STATS, 0)
        for index in range(ops):
            for traced in ((False, True) if index % 2 == 0 else (True, False)):
                if not traced:
                    untraced += _timed(tally, workload, inputs, index, tracer.pause)
                    continue
                before = dict(get_service().stats)
                with tracer.recording():
                    wall += _timed(tally, workload, inputs, index, tracer.pause)
                for key in SERVICE_STATS:
                    stats[key] += get_service().stats[key] - before[key]
    finally:
        tracer.uninstall()
    tracer.write_spans(str(spans_path))
    names = [metric["name"] for metric in spec["per_layer"]]
    values = tracer.metrics(names, wall, wall / untraced - 1.0, stats)
    return {
        "tally": tally,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in spec["per_layer"]},
        "phases": {},
        "samples": {},
        "ops": ops,
        "seeds": workload.seeds(inputs, ops),
    }


def _commit() -> str | None:
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.exists():
            return path.read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _digest(paths: list[Path]) -> str:
    """Digest of files' names and bytes, so records key the code they measured."""
    digest = hashlib.sha256()
    for path in sorted(paths):
        digest.update(str(path.relative_to(ROOT)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _telemetry(service_stats: dict) -> dict:
    from repro.telemetry.metrics import get_registry  # noqa: PLC0415

    registry = get_registry()
    return {
        "traffic.requests": registry.counter("traffic.requests"),
        "service.requests.ok": registry.counter("service.requests.ok"),
        "service.requests.failed": registry.counter("service.requests.failed"),
        "service.stats": service_stats,
    }


def run_one(args: argparse.Namespace, spec: dict) -> int:
    from repro.runtime.service import get_service, reset_service  # noqa: PLC0415
    from workloads import WORKLOADS  # noqa: PLC0415

    workload = WORKLOADS[args.workload]
    WORK.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    try:
        if args.trace:
            spans = args.spans or WORK / "spans" / f"{workload.name}-{args.seed}.jsonl"
            outcome = run_traced(workload, spec, args.seed, args.seconds, workdir,
                                 Path(spans))
        else:
            outcome = run_end_to_end(workload, spec, args.seed, args.seconds, workdir)
        service_stats = dict(get_service().stats)
    finally:
        reset_service()  # joins the pool workers
        shutil.rmtree(workdir, ignore_errors=True)

    tally: Tally = outcome["tally"]
    for error in tally.errors:
        print(f"check failed: {error}", file=sys.stderr)
    print(f"# {workload.name}: {outcome['ops']} ops of {workload.unit}")
    for name, metric in outcome["metrics"].items():
        print(f"{workload.name} {name} {metric['value']:.6g} {metric['unit']}")
    for name, value in outcome["phases"].items():
        print(f"{workload.name} {name} {value:.6g} {PHASE_UNITS[name]}")
    print(f"{workload.name} failed_frac {tally.failed / tally.attempted:.6g} ratio")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": outcome["metrics"],
    }
    if args.trajectory:
        record = {
            "ts": time.time(),
            "commit": _commit(),
            "src_digest": _digest(list((ROOT / "src").rglob("*.py"))),
            "bench_digest": _digest([*HERE.glob("*.py"), ROOT / "BENCHMARK.json"]),
            "platform": platform.platform(),
            "cores": os.cpu_count(),
            "python": platform.python_version(),
            "workload": workload.name,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "input_seeds": outcome["seeds"],
            "phases": outcome["phases"],
            "samples": outcome["samples"],
            "telemetry": _telemetry(service_stats),
            **result,
        }
        with open(args.trajectory, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args: argparse.Namespace, names: list[str]) -> int:
    """Every workload in its own interpreter; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--trajectory", args.trajectory]
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trajectory", default=str(HERE / "trajectory.jsonl"),
                        help="file each run appends its record to ('' to skip)")
    parser.add_argument("--spans", default=None,
                        help="where a traced run writes its spans")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args, names)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
