"""Analytical predictor tests (repro.predict.predictor)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.predict.models import DemandVector
from repro.predict.predictor import Predictor
from repro.sim.engine import Engine
from repro.sim.machines import get_machine, list_machines
from repro.sim.noise import NoiseModel
from repro.sim.workload import SimWorkload

MACHINES = ("thinkie", "stampede", "titan", "comet", "supermic")

VECTORS = [
    DemandVector(instructions=5e9, workload_class="app.md"),
    DemandVector(instructions=1e9, io_write_bytes=64 << 20, io_block_size=256 << 10),
    DemandVector(io_read_bytes=128 << 20),
    DemandVector(mem_alloc_bytes=512 << 20, mem_free_bytes=256 << 20),
    DemandVector(net_bytes=32 << 20),
    DemandVector(instructions=2e9, threads=4, paradigm="openmp"),
    DemandVector(sleep_seconds=1.5),
]


def random_vector(rng: np.random.Generator, kind: str) -> DemandVector:
    """A random vector: whole byte counts, fractional ones, or scaled."""

    def amount(high: float) -> float:
        value = float(rng.uniform(0, high)) if rng.integers(0, 3) else 0.0
        return value if kind == "fractional" else float(int(value))

    vector = DemandVector(
        instructions=amount(1e10),
        flops=amount(1e9),
        io_read_bytes=amount(1e8),
        io_write_bytes=amount(1e8),
        mem_alloc_bytes=amount(1e9),
        mem_free_bytes=amount(1e8),
        net_bytes=amount(1e7),
        sleep_seconds=float(rng.uniform(0, 1)) if rng.integers(0, 2) else 0.0,
        workload_class=str(rng.choice(["app.generic", "app.md", "kernel.asm"])),
        threads=int(rng.integers(1, 48)),
        paradigm=str(rng.choice(["serial", "openmp", "mpi"])),
        io_block_size=int(rng.integers(1, 1 << 21)),
        net_block_size=int(rng.integers(1, 1 << 17)),
    )
    return vector.scaled(0.37) if kind == "scaled" else vector


def emulated_seconds(vector: DemandVector, machine_name: str) -> float:
    """Noise-free engine runtime of the vector as a single-stream workload."""
    machine = get_machine(machine_name)
    workload = SimWorkload(name="predictor-oracle")
    stream = workload.phase("p").stream("s")
    for demand in vector.to_demands(filesystem=machine.default_fs):
        stream.add(demand)
    return Engine(machine, NoiseModel.silent()).run(workload).duration


class TestPredictionAccuracy:
    @pytest.mark.parametrize("machine", MACHINES)
    @pytest.mark.parametrize("index", range(len(VECTORS)))
    def test_prediction_equals_exact_emulation(self, machine, index):
        vector = VECTORS[index]
        predicted = Predictor().predict(vector, machine).seconds
        assert predicted == pytest.approx(emulated_seconds(vector, machine), rel=1e-9)

    def test_faster_machine_predicts_shorter_compute(self):
        vector = DemandVector(instructions=1e10, workload_class="app.md")
        predictor = Predictor()
        titan = predictor.predict(vector, "titan").seconds
        supermic = predictor.predict(vector, "supermic").seconds
        assert supermic < titan

    def test_calibrated_mode_charges_cycle_bias(self):
        vector = DemandVector(instructions=1e10, workload_class="kernel.asm")
        machine = get_machine("supermic")
        plain = Predictor().predict(vector, machine)
        biased = Predictor(calibrated=True).predict(vector, machine)
        spec = machine.cpu.spec("kernel.asm")
        assert biased.compute_seconds == pytest.approx(
            plain.compute_seconds * spec.cycle_bias, rel=1e-12
        )
        assert spec.cycle_bias > 1.0

    def test_breakdown_sums_to_total(self):
        vector = DemandVector(
            instructions=1e9, io_write_bytes=1 << 20, mem_alloc_bytes=1 << 20
        )
        prediction = Predictor().predict(vector, "comet")
        parts = prediction.breakdown()
        total = parts.pop("total")
        assert total == pytest.approx(sum(parts.values()), rel=1e-12)


class TestCache:
    def test_cache_hits_on_equal_vectors(self):
        predictor = Predictor()
        a = DemandVector(instructions=1e9)
        b = DemandVector(instructions=1e9)  # equal content, distinct object
        first = predictor.predict(a, "titan")
        second = predictor.predict(b, "titan")
        assert first == second
        info = predictor.cache_info()
        assert info["hits"] == 1
        assert info["misses"] == 1

    def test_cache_distinguishes_machines_and_filesystems(self):
        predictor = Predictor()
        vector = DemandVector(io_write_bytes=1 << 20)
        predictor.predict(vector, "supermic")
        predictor.predict(vector, "titan")
        predictor.predict(vector, "supermic", filesystem="local")
        assert predictor.cache_info()["misses"] == 3

    def test_cache_keys_on_spec_content_not_name(self):
        # An ablated spec sharing the registry machine's name must not
        # hit the original's cached prediction.
        from dataclasses import replace

        predictor = Predictor()
        vector = DemandVector(instructions=1e10, workload_class="app.md")
        titan = get_machine("titan")
        slow = replace(titan, cpu=replace(titan.cpu, frequency=titan.cpu.frequency / 2))
        fast_prediction = predictor.predict(vector, titan)
        slow_prediction = predictor.predict(vector, slow)
        assert slow_prediction.compute_seconds == pytest.approx(
            2 * fast_prediction.compute_seconds, rel=1e-9
        )
        assert predictor.cache_info()["misses"] == 2

    def test_lru_eviction(self):
        predictor = Predictor(cache_size=2)
        for exponent in range(4):
            predictor.predict(DemandVector(instructions=10.0**exponent), "titan")
        assert predictor.cache_info()["size"] == 2

    def test_clear_cache(self):
        predictor = Predictor()
        predictor.predict(DemandVector(instructions=1e9), "titan")
        predictor.clear_cache()
        assert predictor.cache_info() == {
            "hits": 0,
            "misses": 0,
            "size": 0,
            "max_size": 4096,
        }


class TestPredictMany:
    def test_matches_single_pair_api(self):
        predictor = Predictor()
        machines = list(MACHINES)
        matrix = predictor.predict_many(VECTORS, machines)
        assert matrix.shape == (len(VECTORS), len(machines))
        for i, vector in enumerate(VECTORS):
            for j, machine in enumerate(machines):
                assert matrix[i, j] == pytest.approx(
                    predictor.predict(vector, machine).seconds, rel=1e-9
                )

    @pytest.mark.parametrize("calibrated", [False, True], ids=["plain", "calibrated"])
    @pytest.mark.parametrize("kind", ["integer", "fractional", "scaled"])
    def test_batch_equals_single_pair_exactly(self, kind, calibrated):
        rng = np.random.default_rng(2016)
        vectors = [random_vector(rng, kind) for _ in range(40)]
        machines = list_machines()
        predictor = Predictor(calibrated=calibrated)
        matrix = predictor.predict_many(vectors, machines)
        for i, vector in enumerate(vectors):
            for j, machine in enumerate(machines):
                assert matrix[i, j] == predictor.predict(vector, machine).seconds

    def test_fractional_bytes_truncate_like_single_pair_api(self):
        vector = DemandVector(
            io_read_bytes=1.5e6 + 0.5,
            io_write_bytes=3.3e6 + 0.7,
            mem_alloc_bytes=2**20 + 0.5,
            net_bytes=1e6 + 0.9,
        )
        predictor = Predictor()
        single = predictor.predict(vector, "stampede").seconds
        assert predictor.predict_many([vector], ["stampede"])[0, 0] == single
        assert single == pytest.approx(emulated_seconds(vector, "stampede"), rel=1e-12)

    def test_calibrated_batch_matches_single(self):
        predictor = Predictor(calibrated=True)
        vectors = [DemandVector(instructions=1e9, workload_class="kernel.c")]
        matrix = predictor.predict_many(vectors, ["supermic"])
        assert matrix[0, 0] == pytest.approx(
            predictor.predict(vectors[0], "supermic").seconds, rel=1e-9
        )

    def test_filesystem_parameter_matches_single_pair_api(self):
        predictor = Predictor()
        vectors = [DemandVector(io_write_bytes=64 << 20)]
        matrix = predictor.predict_many(vectors, ["supermic"], filesystem="local")
        assert matrix[0, 0] == pytest.approx(
            predictor.predict(vectors[0], "supermic", filesystem="local").seconds,
            rel=1e-9,
        )
        # Lustre and local rates differ on supermic, so the mounts must too.
        default = predictor.predict_many(vectors, ["supermic"])
        assert matrix[0, 0] != pytest.approx(default[0, 0], rel=1e-3)

    def test_empty_inputs(self):
        predictor = Predictor()
        assert predictor.predict_many([], ["titan"]).shape == (0, 1)
        assert predictor.predict_many(VECTORS, []).shape == (len(VECTORS), 0)

    def test_thousand_pairs_under_a_second(self):
        import time

        rng = np.random.default_rng(7)
        vectors = [
            DemandVector(
                instructions=float(rng.integers(1e8, 1e10)),
                io_write_bytes=float(rng.integers(0, 1 << 24)),
                workload_class=("app.md", "app.generic")[int(rng.integers(2))],
            )
            for _ in range(250)
        ]
        predictor = Predictor()
        start = time.perf_counter()
        matrix = predictor.predict_many(vectors, list(MACHINES)[:4])
        elapsed = time.perf_counter() - start
        assert matrix.shape == (250, 4)  # 1000 (workload, machine) pairs
        assert elapsed < 1.0
        assert np.all(matrix > 0)
