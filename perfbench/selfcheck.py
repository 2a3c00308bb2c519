"""Quick-mode self-check of the benchmark (about a minute on 2 cores).

Run explicitly from the repository root::

    python3 -m pytest perfbench/selfcheck.py -q

For every workload it runs one short untraced and one short traced run,
each in a fresh interpreter, and checks that

* the result line has exactly the keys correct, attempted, failed and
  metrics, and every op passed its output checks;
* the untraced run emits every end-to-end metric of BENCHMARK.json and
  the traced run every per-layer metric, each with its unit;
* in the traced run, the self times of the spans recorded in the main
  process plus the reported unattributed remainder add up to the traced
  wall time, and that the self times telescope to the top-level spans;
* spans recorded inside pool workers reach the main process;
* each run appends one stamped record to the trajectory file.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]


def _run(tmp_path: Path, workload: str, trace: int) -> tuple[dict, Path]:
    trajectory = tmp_path / "trajectory.jsonl"
    spans = tmp_path / "spans.jsonl"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace),
         "--trajectory", str(trajectory), "--spans", str(spans)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 2
    records = [json.loads(line) for line in trajectory.read_text().splitlines()]
    assert len(records) == 1
    record = records[0]
    assert record["workload"] == workload and record["seed"] == 7
    for key in ("platform", "cores", "python", "src_digest", "input_seeds", "telemetry"):
        assert record[key] is not None, key
    return result, spans


def _expect_metrics(result: dict, declared: list[dict]) -> None:
    metrics = result["metrics"]
    assert list(metrics) == [metric["name"] for metric in declared]
    for metric in declared:
        emitted = metrics[metric["name"]]
        assert emitted["unit"] == metric["unit"], metric["name"]
        assert isinstance(emitted["value"], (int, float)), metric["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(tmp_path: Path, workload: str) -> None:
    result, _spans = _run(tmp_path, workload, 0)
    _expect_metrics(result, BENCHMARK["end_to_end"])
    for metric in BENCHMARK["end_to_end"]:
        assert result["metrics"][metric["name"]]["value"] > 0, metric["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_layers_add_up(tmp_path: Path, workload: str) -> None:
    result, spans_path = _run(tmp_path, workload, 1)
    _expect_metrics(result, BENCHMARK["per_layer"])
    metrics = {name: value["value"] for name, value in result["metrics"].items()}

    lines = spans_path.read_text().splitlines()
    main = json.loads(lines[0])["main_pid"]
    spans = [json.loads(line) for line in lines[1:]]
    in_main = [span for span in spans if span[1] == main]
    self_total = sum(span[3] for span in in_main)
    top_total = sum(span[2] for span in in_main if span[4])
    assert self_total == pytest.approx(top_total, rel=1e-6, abs=1e-6)
    assert self_total == pytest.approx(metrics["trace.attributed_s"], rel=1e-9)
    assert metrics["trace.unattributed_s"] >= 0
    assert (metrics["trace.attributed_s"] + metrics["trace.unattributed_s"]
            == pytest.approx(metrics["trace.wall_s"], rel=1e-9))
    if workload in ("profile_emulate", "campaign_sweep"):
        assert any(span[1] != main for span in spans), "no spans from pool workers"
        assert metrics["runtime.service.run.pooled"] > 0
        assert metrics["storage.filestore.put_many.profiles"] > 0
    else:
        assert metrics["traffic.fleet.offer.calls"] > 0
        assert metrics["sim.stream.feed.demands"] > 0


def test_refuses_without_program(tmp_path: Path) -> None:
    """Without src/ beside it the benchmark fails fast and prints no result."""
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180, check=False,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
