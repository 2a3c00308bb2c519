"""E.8 (extension) — Campaign throughput: plain vs elastic runs & report build.

The campaign layer is how this reproduction runs paper-scale sweeps, so
its moving parts get measured like any other hot path:

* **solo elastic worker vs plain run** — the same spec executed by one
  ``run_campaign`` invocation and by one ``elastic_worker`` into fresh
  FileStores, in alternating pairs.  The wall-clock ratio is the cost
  of the lease protocol (member heartbeat, lease writes, confirm and
  GC scans) when nobody shares the store; the resume of a complete
  ledger is timed the same way;
* **2-worker fleet** — ``run_elastic`` with two spawned worker
  processes sharing one ``file://`` store, reported with the host's
  core count (the fleet pays process start-up and only scales with
  real cores);
* **report-build throughput** — how many ledger cells per second
  ``repro.runtime.analyze`` aggregates into the paper-style
  consistency/error tables (the ``--report`` path).

Every elastic ledger is asserted to have the plain run's
``ledger_digest`` before any timing is reported.  Results land in
``benchmarks/results/BENCH_e8_campaign.json``.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_e8_campaign.py [--quick] [--out X.json]

or through pytest: ``pytest benchmarks/bench_e8_campaign.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import tempfile
import time
from pathlib import Path

from repro.runtime import (
    CampaignSpec,
    analyze_campaign,
    elastic_worker,
    ledger_digest,
    run_campaign,
    run_elastic,
)
from repro.storage import FileStore
from repro.util.tables import Table


def make_spec(seeds: int, repeats: int) -> CampaignSpec:
    return CampaignSpec.from_dict({
        "name": "bench-e8",
        "kind": "profile",
        "apps": ["gromacs:iterations=50000", "sleeper:sleep_seconds=2"],
        "machines": ["thinkie", "comet"],
        "seeds": list(range(seeds)),
        "repeats": repeats,
        "config": {"sample_rate": 2.0},
    })


def _timed(fn) -> tuple[float, object]:
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


def _sweep_and_resume(runner, spec: CampaignSpec, store) -> tuple[float, float]:
    """Seconds of a full sweep and of the resume that follows it."""
    sweep_s, sweep = _timed(lambda: runner(spec, store))
    assert sweep.complete and sweep.executed == spec.n_cells, sweep.to_dict()
    resume_s, resume = _timed(lambda: runner(spec, store))
    assert resume.executed == 0 and resume.complete, resume.to_dict()
    return sweep_s, resume_s


def measure(seeds: int = 6, repeats: int = 2, pairs: int = 8,
            report_rounds: int = 5) -> dict:
    spec = make_spec(seeds, repeats)
    plain_sweep, plain_resume, solo_sweep, solo_resume = [], [], [], []
    with tempfile.TemporaryDirectory(prefix="bench-e8-") as root:
        reference = None
        for index in range(pairs):
            plain = FileStore(Path(root) / f"plain-{index}")
            solo = FileStore(Path(root) / f"solo-{index}")
            # Alternate the order so host drift hits both sides alike.
            order = [("plain", plain), ("solo", solo)]
            if index % 2:
                order.reverse()
            for kind, store in order:
                if kind == "plain":
                    sweep_s, resume_s = _sweep_and_resume(
                        run_campaign, spec, store)
                    plain_sweep.append(sweep_s)
                    plain_resume.append(resume_s)
                else:
                    sweep_s, resume_s = _sweep_and_resume(
                        elastic_worker, spec, store)
                    solo_sweep.append(sweep_s)
                    solo_resume.append(resume_s)
            digest = ledger_digest(plain, spec.name)
            reference = reference or digest
            assert digest == reference, "plain runs disagree"
            assert ledger_digest(solo, spec.name) == reference, (
                "solo elastic worker diverged from the plain run")

        # A 2-worker fleet of spawned processes on one shared store.
        fleet_root = Path(root) / "fleet"
        fleet_s, fleet = _timed(
            lambda: run_elastic(spec, f"file://{fleet_root}", workers=2))
        assert fleet.complete and not fleet.failed, fleet.to_dict()
        fleet_store = FileStore(fleet_root)
        assert ledger_digest(fleet_store, spec.name) == reference, (
            "2-worker fleet diverged from the plain run")

        # Report-build throughput over the finished ledger.
        t0 = time.perf_counter()
        for _ in range(report_rounds):
            analysis = analyze_campaign(spec, fleet_store)
        report_seconds = (time.perf_counter() - t0) / report_rounds
        assert analysis.complete

    plain_s = statistics.median(plain_sweep)
    solo_s = statistics.median(solo_sweep)
    return {
        "spec": {
            "n_cells": spec.n_cells,
            "apps": len(spec.apps),
            "machines": len(spec.machines),
            "seeds": seeds,
            "repeats": repeats,
        },
        "host_cpu_count": os.cpu_count() or 1,
        "ledger_digest": reference,
        "plain_run": {
            "pairs": pairs,
            "sweep_seconds_median": plain_s,
            "resume_seconds_median": statistics.median(plain_resume),
            "cells_per_sec": spec.n_cells / plain_s,
        },
        "solo_elastic": {
            "pairs": pairs,
            "sweep_seconds_median": solo_s,
            "resume_seconds_median": statistics.median(solo_resume),
            "cells_per_sec": spec.n_cells / solo_s,
            "sweep_ratio_vs_plain": solo_s / plain_s,
            "resume_ratio_vs_plain": (
                statistics.median(solo_resume) / statistics.median(plain_resume)
            ),
        },
        "fleet_2_workers": {
            "workers": 2,
            "seconds": fleet_s,
            "cells_per_sec": spec.n_cells / fleet_s,
            "speedup_vs_plain": plain_s / fleet_s,
        },
        "report_build": {
            "rounds": report_rounds,
            "seconds": report_seconds,
            "cells_per_sec": spec.n_cells / report_seconds,
            "groups": len(analysis.groups),
        },
    }


def as_table(results: dict) -> Table:
    table = Table(
        ["metric", "seconds", "cells/sec", "note"],
        title=(f"E8 campaign throughput ({results['spec']['n_cells']} cells, "
               f"{results['host_cpu_count']} cores)"),
    )
    plain = results["plain_run"]
    table.add_row(["plain run_campaign (median)", plain["sweep_seconds_median"],
                   plain["cells_per_sec"], f"{plain['pairs']} pairs"])
    solo = results["solo_elastic"]
    table.add_row([
        "solo elastic_worker (median)", solo["sweep_seconds_median"],
        solo["cells_per_sec"],
        f"{solo['sweep_ratio_vs_plain']:.2f}x of plain (lease overhead)",
    ])
    table.add_row([
        "resume: solo elastic", solo["resume_seconds_median"], "-",
        f"{solo['resume_ratio_vs_plain']:.2f}x of plain "
        f"({plain['resume_seconds_median'] * 1e3:.1f} ms)",
    ])
    fleet = results["fleet_2_workers"]
    table.add_row([
        "2-worker fleet (spawned)", fleet["seconds"], fleet["cells_per_sec"],
        f"{fleet['speedup_vs_plain']:.2f}x vs plain",
    ])
    report = results["report_build"]
    table.add_row([
        "--report build",
        report["seconds"],
        report["cells_per_sec"],
        f"{report['groups']} groups/round",
    ])
    return table


def test_e8_campaign():
    """Pytest entry: quick measurement + report registration."""
    from conftest import report  # noqa: PLC0415 - pytest-only plumbing

    results = measure(seeds=2, repeats=1, pairs=2, report_rounds=2)
    assert results["plain_run"]["cells_per_sec"] > 0
    assert results["report_build"]["cells_per_sec"] > 0
    # The lease protocol costs store bookkeeping, never reruns cells:
    # well under ten times the plain run even on a tiny sweep.
    assert results["solo_elastic"]["sweep_ratio_vs_plain"] < 10.0
    report("E8: campaign throughput", str(as_table(results)))


def main() -> None:
    from harness import write_json_result  # noqa: PLC0415 - script entry

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small sweep (smoke run)")
    parser.add_argument("--out", default=None,
                        help="result JSON path (default: benchmarks/results/)")
    args = parser.parse_args()
    if args.quick:
        results = measure(seeds=2, repeats=1, pairs=2, report_rounds=2)
    else:
        results = measure()
    results["mode"] = "quick" if args.quick else "full"
    print(as_table(results).render())
    path = write_json_result("BENCH_e8_campaign", results, out=args.out)
    print(f"\nresults written to {path}")
    print(json.dumps(results["solo_elastic"], indent=1))


if __name__ == "__main__":
    main()
