"""Columnar (packed) workloads: builder fidelity and engine bit-identity.

The packed plane's contract is *exact* equivalence, not tolerance.  Every
engine input takes one path (``pack_workload`` for object workloads, then
one bind pass), so object and packed runs are pinned to an independent
reference instead of to each other: full-record digests that the former
per-demand gather path produced over the same randomised workloads
(``fixtures/packed_records.json``, see ``gen_packed_fixtures.py``).  The
randomised workloads cover all five demand types and contention phases,
silent and noisy; the builder tests pin every direct ``build_packed``
builder in the tree to the compiler.
"""

from __future__ import annotations

import json
import math
import pickle

import numpy as np
import pytest
from gen_packed_fixtures import (
    FIXTURE_PATH,
    MACHINES,
    RUN_MANY_CASE,
    SEEDS,
    case_key,
    make_noise,
    random_workload,
    record_digest,
)

from repro.apps import EnsembleApp, GromacsModel, SleeperApp, SyntheticApp
from repro.apps.base import chunk_sizes
from repro.apps.ensemble import EnsembleStage
from repro.apps.skeleton import chain, fan_out_fan_in
from repro.atoms.base import AtomWork
from repro.core.config import SynapseConfig
from repro.core.errors import WorkloadError
from repro.core.plan import EmulationPlan, PlanSample
from repro.sim.backend import SimBackend
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
from repro.sim.packed import PackedBuilder, PackedWorkload, RoundPart, pack_workload
from repro.sim.workload import Phase, SimWorkload, Stream


# -- helpers -----------------------------------------------------------------


def assert_packed_equal(got: PackedWorkload, ref: PackedWorkload) -> None:
    assert got.name == ref.name
    assert got.base_rss == ref.base_rss
    assert got.metadata == ref.metadata
    assert got.n == ref.n
    assert got.n_phases == ref.n_phases
    assert got.class_names == ref.class_names
    assert got.paradigm_names == ref.paradigm_names
    assert got.fs_names == ref.fs_names
    for attr in ("kinds", "stream_phase", "stream_first", "stream_end"):
        assert np.array_equal(getattr(got, attr), getattr(ref, attr)), attr
    got_cols, ref_cols = got.column_arrays(), ref.column_arrays()
    assert got_cols.keys() == ref_cols.keys()
    for key in ref_cols:
        a, b = got_cols[key], ref_cols[key]
        assert a.dtype == b.dtype, key
        assert np.array_equal(a, b, equal_nan=(a.dtype.kind == "f")), key


def assert_records_identical(got, ref) -> None:
    """Bit-exact record equality — no tolerances anywhere."""
    assert got.duration == ref.duration
    assert got.phase_bounds == ref.phase_bounds
    assert set(got.counters) == set(ref.counters)
    for name in ref.counters:
        assert np.array_equal(got.counters[name].times, ref.counters[name].times), name
        assert np.array_equal(got.counters[name].values, ref.counters[name].values), name
    assert set(got.levels) == set(ref.levels)
    for name in ref.levels:
        assert np.array_equal(got.levels[name].times, ref.levels[name].times), name
        assert np.array_equal(got.levels[name].values, ref.levels[name].values), name
    assert list(got.io_events) == list(ref.io_events)
    assert got.totals() == ref.totals()


# -- compiler ----------------------------------------------------------------


def test_pack_workload_is_deterministic():
    rng = np.random.default_rng(0)
    machine = get_machine("stampede")
    workload = random_workload(rng, machine)
    assert_packed_equal(pack_workload(workload), pack_workload(workload))


def test_pack_preserves_counts_and_structure():
    rng = np.random.default_rng(1)
    machine = get_machine("thinkie")
    workload = random_workload(rng, machine)
    packed = pack_workload(workload)
    assert packed.n == workload.n_demands
    assert packed.n_phases == len(workload.phases)
    assert packed.base_rss == workload.base_rss
    # Streams are contiguous index ranges partitioning [0, n).
    sizes = packed.stream_end - packed.stream_first
    assert int(sizes.sum()) == packed.n
    assert (sizes >= 0).all()


def test_pack_empty_workload():
    packed = pack_workload(SimWorkload(name="empty"))
    assert packed.n == 0
    assert packed.empty
    record = Engine(get_machine("thinkie"), NoiseModel.silent()).run(packed)
    assert record.duration == 0.0


def test_none_calibrated_cycles_round_trip_as_nan():
    workload = SimWorkload(name="cc")
    stream = workload.phase("p").stream("s")
    stream.add(ComputeDemand(instructions=1e6))
    stream.add(ComputeDemand(instructions=0.0, calibrated_cycles=2e6))
    packed = pack_workload(workload)
    assert np.isnan(packed.c_cc[0])
    assert packed.c_cc[1] == 2e6


# -- engine bit-identity -----------------------------------------------------


with open(FIXTURE_PATH, encoding="utf-8") as _handle:
    REFERENCE = json.load(_handle)


def test_reference_fixture_covers_the_grid():
    assert set(REFERENCE["randomized"]) == {
        case_key(machine, seed, noisy)
        for machine in MACHINES
        for seed in SEEDS
        for noisy in (False, True)
    }
    assert len(REFERENCE["run_many"]) == RUN_MANY_CASE[2]


@pytest.mark.parametrize("machine_name", MACHINES)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("noisy", [False, True], ids=["silent", "noisy"])
def test_randomized_engine_bit_identity(machine_name, seed, noisy):
    machine = get_machine(machine_name)
    workload = random_workload(np.random.default_rng(seed), machine)
    expected = REFERENCE["randomized"][case_key(machine_name, seed, noisy)]["digest"]

    ref = Engine(machine, make_noise(seed, noisy)).run(workload)
    got = Engine(machine, make_noise(seed, noisy)).run(pack_workload(workload))
    assert record_digest(ref) == expected
    assert record_digest(got) == expected
    assert_records_identical(got, ref)


def test_run_many_accepts_packed():
    machine_name, seed, count = RUN_MANY_CASE
    machine = get_machine(machine_name)
    engine = Engine(machine, NoiseModel.silent())
    workload = random_workload(np.random.default_rng(seed), machine)
    packed = pack_workload(workload)
    refs = engine.run_many([workload] * count)
    gots = engine.run_many([packed] * count)
    assert [record_digest(r) for r in refs] == REFERENCE["run_many"]
    assert [record_digest(r) for r in gots] == REFERENCE["run_many"]


def test_lazy_io_events_behave_like_lists():
    machine = get_machine("stampede")
    workload = random_workload(np.random.default_rng(2), machine)
    case = REFERENCE["randomized"][case_key("stampede", 2, False)]
    got = Engine(machine, NoiseModel.silent()).run(pack_workload(workload))
    events = got.io_events
    # The lazy count must agree with the materialised list.
    assert len(events) == case["n_io_events"]
    assert len(list(events)) == case["n_io_events"]
    assert record_digest(got) == case["digest"]
    if len(events):
        assert list(events[0]) == case["first_io_event"]
    # Records cross process boundaries in spawn_many: pickling must work
    # and reduce the lazy sequence to a plain list.
    assert pickle.loads(pickle.dumps(events)) == list(events)


# -- direct builders ---------------------------------------------------------

APP_CASES = [
    ("synthetic-full", lambda: SyntheticApp(
        instructions=5e8, bytes_read=1 << 22, bytes_written=1 << 21,
        memory_bytes=1 << 24, net_sent=1 << 20, net_received=1 << 19,
        sleep_seconds=0.2, threads=4, overlap_io=True, chunks=12)),
    ("synthetic-serial", lambda: SyntheticApp(
        instructions=3e8, bytes_written=1 << 20, chunks=5)),
    ("synthetic-empty-overlap", lambda: SyntheticApp(overlap_io=True, chunks=3)),
    ("gromacs-threads", lambda: GromacsModel(iterations=20_000, threads=4)),
    # 4,100 output bytes over 5,000 chunks: most chunks write nothing.
    ("gromacs-sparse-io", lambda: GromacsModel(iterations=1, chunks=5000)),
    ("gromacs-benchmark", lambda: GromacsModel(iterations=10**6, chunks=10**5)),
    ("synthetic-tiny-serial", lambda: SyntheticApp(
        instructions=0, bytes_written=3, chunks=8)),
    ("synthetic-tiny-overlap", lambda: SyntheticApp(
        instructions=0, bytes_written=3, chunks=8, overlap_io=True)),
    # bytes_written * chunks is 2**66: the chunk boundaries leave int64.
    ("synthetic-int64-overflow", lambda: SyntheticApp(
        instructions=1e9, bytes_written=(1 << 62) + 12345, chunks=16)),
    ("synthetic-float-bytes", lambda: SyntheticApp(
        instructions=1e9, bytes_read=1e6 + 0.5, bytes_written=3.7e15, chunks=13)),
    ("sleeper", lambda: SleeperApp(sleep_seconds=1.5)),
    ("ensemble", lambda: EnsembleApp(stages=(
        EnsembleStage(tasks=4, instructions=1e9, bytes_written=4096),
        EnsembleStage(tasks=1, instructions=5e8)))),
    ("skeleton-chain", lambda: chain(
        {"a": SleeperApp(sleep_seconds=0.1), "b": GromacsModel(iterations=2000)})),
    ("skeleton-fan", lambda: fan_out_fan_in(
        SyntheticApp(bytes_read=1 << 20, chunks=2),
        {"w1": GromacsModel(iterations=1000), "w2": SleeperApp(sleep_seconds=0.2)},
        SyntheticApp(bytes_written=1 << 20, chunks=2))),
]


@pytest.mark.parametrize(
    "factory", [case[1] for case in APP_CASES], ids=[case[0] for case in APP_CASES]
)
def test_app_build_packed_matches_compiler(factory):
    machine = get_machine("stampede")
    app = factory()
    assert_packed_equal(
        app.build_packed(machine), pack_workload(app.build_workload(machine))
    )


def test_plan_build_packed_workload_matches_compiler():
    rng = np.random.default_rng(11)
    samples = [
        PlanSample(
            index=i,
            work=AtomWork(
                cycles=float(rng.integers(0, 2)) * float(rng.uniform(1e6, 1e9)),
                flops=float(rng.uniform(0, 5e8)),
                alloc_bytes=int(rng.integers(0, 1 << 22)),
                free_bytes=int(rng.integers(0, 1 << 20)),
                read_bytes=int(rng.integers(0, 1 << 22)),
                write_bytes=int(rng.integers(0, 1 << 22)),
                sent_bytes=int(rng.integers(0, 1 << 16)),
                received_bytes=int(rng.integers(0, 1 << 16)),
            ),
        )
        for i in range(25)
    ]
    plan = EmulationPlan(samples=samples, command="cmd")
    for config in (
        SynapseConfig(),
        SynapseConfig(cpu_load=0.5, efficiency_target=0.8),
        SynapseConfig(mpi_processes=4, io_filesystem="lustre"),
    ):
        assert_packed_equal(
            plan.build_packed_workload(config),
            pack_workload(plan.build_sim_workload(config)),
        )


def test_backend_resolves_packed_targets():
    backend = SimBackend("thinkie", noisy=True, seed=7)
    app = GromacsModel(iterations=5_000)
    packed = app.build_packed(backend.machine)
    ref = SimBackend("thinkie", noisy=True, seed=7).spawn(app).record
    got = backend.spawn(packed).record
    assert_records_identical(got, ref)


def test_backend_prefers_build_packed():
    class Probe:
        def __init__(self):
            self.packed_calls = 0

        def build_packed(self, machine):
            self.packed_calls += 1
            return GromacsModel(iterations=1000).build_packed(machine)

        def build_workload(self, machine):  # pragma: no cover - must not run
            raise AssertionError("build_workload used despite build_packed")

    probe = Probe()
    SimBackend("thinkie", noisy=False).spawn(probe)
    assert probe.packed_calls == 1


def test_chunk_sizes_match_the_python_loop():
    for total, chunks in [(0, 4), (3, 8), (4100, 5000), (10**6, 7), (-5, 3),
                          ((1 << 62) + 12345, 16), ((1 << 63) - 1, 1000)]:
        loop = [total * (k + 1) // chunks - total * k // chunks for k in range(chunks)]
        sizes = chunk_sizes(total, chunks)
        assert sizes.dtype == np.int64
        assert sizes.tolist() == loop, (total, chunks)


def test_chunk_sizes_raise_instead_of_wrapping():
    with pytest.raises(WorkloadError):
        chunk_sizes(1 << 70, 2)
    with pytest.raises(WorkloadError):
        SyntheticApp(bytes_written=1 << 70, chunks=2).build_packed(get_machine("thinkie"))


# -- builder validation ------------------------------------------------------


def test_builder_rejects_invalid_demands():
    b = PackedBuilder("bad")
    with pytest.raises(WorkloadError):
        b.compute(instructions=-1.0)
    with pytest.raises(WorkloadError):
        b.compute(threads=0)
    with pytest.raises(WorkloadError):
        b.io(bytes_read=-1)
    with pytest.raises(WorkloadError):
        b.io(block_size=0)
    with pytest.raises(WorkloadError):
        b.memory(allocate=-1)
    with pytest.raises(WorkloadError):
        b.network(bytes_sent=-1)
    with pytest.raises(WorkloadError):
        b.sleep(-0.1)


NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("value", NON_FINITE, ids=str)
def test_non_finite_demand_values_are_rejected(value):
    with pytest.raises(ValueError):
        ComputeDemand(instructions=value)
    with pytest.raises(ValueError):
        ComputeDemand(instructions=1.0, calibrated_cycles=value)
    with pytest.raises(ValueError):
        SleepDemand(value)
    b = PackedBuilder("non-finite")
    with pytest.raises(WorkloadError):
        b.compute(instructions=value)
    with pytest.raises(WorkloadError):
        b.compute(instructions=0.0, calibrated_cycles=value)
    with pytest.raises(WorkloadError):
        b.sleep(value)
    with pytest.raises(WorkloadError):
        b.compute_many([1.0, value])
    with pytest.raises(WorkloadError):
        b.compute_many([0.0, 0.0], calibrated_cycles=[1.0, value])
    with pytest.raises(WorkloadError):
        b.rounds(2, RoundPart("sleep", {"seconds": [0.5, value]}))
    with pytest.raises(WorkloadError):
        b.io_many(bytes_read=[1.0, value])
    # Nothing was appended by the rejected calls.
    assert b.n_demands == 0
    assert b.build().class_names == ()


def test_nan_instructions_no_longer_run_to_an_empty_record():
    b = PackedBuilder("nan-run")
    with pytest.raises(WorkloadError):
        b.compute(instructions=float("nan"))
    b.compute(instructions=1e9)
    record = Engine(get_machine("thinkie"), NoiseModel.silent()).run(b.build())
    assert record.duration > 0
    assert all(
        np.isfinite(series.values).all() for series in record.counters.values()
    )


@pytest.mark.filterwarnings("error")
def test_bulk_and_scalar_validation_agree():
    b = PackedBuilder("agree")
    with pytest.raises(WorkloadError):
        b.compute(flops_per_instruction=math.nan)
    with pytest.raises(WorkloadError):
        b.compute_many([1.0, 2.0], flops_per_instruction=[0.5, math.nan])
    with pytest.raises(WorkloadError):
        b.compute_many([1.0], stall_ratio=[-0.5])
    # Rules see the values as given: -0.3 bytes is not truncated to 0.
    with pytest.raises(WorkloadError):
        b.io(bytes_read=-0.3)
    with pytest.raises(WorkloadError):
        b.io_many(bytes_read=[1.0, -0.3])
    # NaN is the stall-ratio "class default" encoding: an all-NaN array is
    # accepted without warnings and equals leaving the argument unset.
    bulk = PackedBuilder("sr").compute_many(
        [1e6, 2e6], stall_ratio=np.full(2, np.nan)
    ).build()
    scalar = PackedBuilder("sr").compute(instructions=1e6).compute(
        instructions=2e6
    ).build()
    assert_packed_equal(bulk, scalar)


def test_bulk_builders_match_scalar_appends():
    instr = np.array([1e6, 2e6, 3e6])
    reads = np.array([1 << 20, 2 << 20])
    allocs = np.array([4 << 20, 8 << 20])
    sent = np.array([64 << 10, 128 << 10])

    bulk = PackedBuilder("bulk")
    bulk.phase("p").stream("s")
    bulk.compute_many(instr, workload_class="app.md", threads=2, paradigm="openmp")
    bulk.io_many(bytes_read=reads, bytes_written=1 << 19, filesystem="local")
    bulk.memory_many(allocate=allocs, free=2 << 20)
    bulk.network_many(bytes_sent=sent, bytes_received=32 << 10)

    scalar = PackedBuilder("bulk")
    scalar.phase("p").stream("s")
    for i in instr:
        scalar.compute(
            instructions=float(i),
            workload_class="app.md",
            threads=2,
            paradigm="openmp",
        )
    for r in reads:
        scalar.io(bytes_read=int(r), bytes_written=1 << 19, filesystem="local")
    for a in allocs:
        scalar.memory(allocate=int(a), free=2 << 20)
    for s in sent:
        scalar.network(bytes_sent=int(s), bytes_received=32 << 10)

    assert_packed_equal(bulk.build(), scalar.build())


def test_bulk_appends_copy_their_arguments():
    instr = np.array([1e6, 2e6])
    b = PackedBuilder("copy").compute_many(instr)
    instr[:] = 0.0
    assert b.build().c_instr.tolist() == [1e6, 2e6]


def _rounds_pattern(sizes):
    return (
        RoundPart("compute", {"instructions": 1e6, "workload_class": "app.md"},
                  where=sizes % 3 != 0),
        RoundPart("io", {"bytes_written": sizes, "filesystem": "lustre"},
                  where=sizes > 0),
        RoundPart("compute", {"instructions": sizes * 10.0,
                              "workload_class": "app.startup", "threads": 2}),
        RoundPart("sleep", {"seconds": 0.25}, where=sizes == 2),
    )


def _scalar_rounds(b, count, parts):
    for r in range(count):
        for part in parts:
            if part.where is not None and not part.where[r]:
                continue
            getattr(b, part.kind)(**{
                name: value[r] if isinstance(value, (list, np.ndarray)) else value
                for name, value in part.fields.items()
            })


def test_rounds_match_the_scalar_loop():
    sizes = np.array([0, 2, 5, 0, 3, 2, 7])
    parts = _rounds_pattern(sizes)
    rounds = PackedBuilder("rounds").rounds(len(sizes), *parts).build()
    scalar = PackedBuilder("rounds")
    _scalar_rounds(scalar, len(sizes), parts)
    # Round 0 skips the first compute part, so "app.startup" is met first.
    assert rounds.class_names == ("app.startup", "app.md")
    assert_packed_equal(rounds, scalar.build())


def test_mixed_scalar_bulk_and_round_appends_keep_chunk_order():
    sizes = np.array([4, 0, 3, 1])
    parts = _rounds_pattern(sizes)

    def emit(b, bulk):
        b.phase("a").stream("s0")
        b.sleep(0.5)
        if bulk:
            b.compute_many([1e6, 2e6], workload_class="app.md")
        else:
            b.compute(instructions=1e6, workload_class="app.md")
            b.compute(instructions=2e6, workload_class="app.md")
        b.io(bytes_read=10, filesystem="nfs")
        if bulk:
            b.rounds(len(sizes), *parts)
        else:
            _scalar_rounds(b, len(sizes), parts)
        b.memory(allocate=5)
        b.stream("s1")
        if bulk:
            b.io_many(bytes_read=[1, 2, 3], filesystem="lustre")
            b.network_many(bytes_sent=[8, 9])
        else:
            for read in (1, 2, 3):
                b.io(bytes_read=read, filesystem="lustre")
            for sent in (8, 9):
                b.network(bytes_sent=sent)
        b.compute(instructions=3e6, paradigm="mpi", threads=4)
        b.phase("b").stream("s2")
        if bulk:
            b.rounds(3, RoundPart("memory", {"allocate": [1, 2, 3]}),
                     RoundPart("network", {"bytes_received": 4}))
        else:
            for allocate in (1, 2, 3):
                b.memory(allocate=allocate)
                b.network(bytes_received=4)
        b.sleep(0.1)
        return b.build()

    mixed = emit(PackedBuilder("mixed"), bulk=True)
    assert_packed_equal(mixed, emit(PackedBuilder("mixed"), bulk=False))
    assert mixed.n_phases == 2
    assert mixed.stream_first.tolist() == [0, 14, 20]


def test_rounds_reject_bad_patterns():
    b = PackedBuilder("bad-rounds")
    with pytest.raises(WorkloadError):
        b.rounds(2, RoundPart("teleport", {}))
    with pytest.raises(WorkloadError):
        b.rounds(2, RoundPart("io", {"bytes": 1}))
    with pytest.raises(WorkloadError):
        b.rounds(3, RoundPart("io", {"bytes_read": [1, 2]}, where=[True, True, False]))
    with pytest.raises(WorkloadError):
        b.rounds(-1, RoundPart("sleep", {"seconds": 1.0}))
    assert b.rounds(0, RoundPart("sleep", {"seconds": 1.0})).n_demands == 0


def test_bulk_builders_reject_invalid_demands():
    b = PackedBuilder("bad-bulk")
    with pytest.raises(WorkloadError):
        b.memory_many(allocate=[-1])
    with pytest.raises(WorkloadError):
        b.memory_many(allocate=[1], block_size=0)
    with pytest.raises(WorkloadError):
        b.network_many(bytes_sent=[-1])
    with pytest.raises(WorkloadError):
        b.network_many(bytes_sent=[1], block_size=0)


def test_append_flat_reinterns_name_tables():
    inner = PackedBuilder("inner")
    inner.phase("p").stream("s")
    inner.compute(instructions=1e6, workload_class="app.md", paradigm="mpi")
    inner.io(bytes_read=1024, filesystem="lustre")
    inner_packed = inner.build()

    outer = PackedBuilder("outer")
    outer.phase("p0").stream("s0")
    outer.compute(instructions=2e6, workload_class="app.generic")
    outer.io(bytes_written=2048, filesystem="local")
    outer.append_flat(inner_packed)
    packed = outer.build()

    assert packed.n == 4
    assert "app.md" in packed.class_names
    assert "mpi" in packed.paradigm_names
    assert "lustre" in packed.fs_names
    # The inner demands keep their own codes through the remap.
    assert packed.class_names[packed.c_class[1]] == "app.md"
    assert packed.fs_names[packed.i_fs[1]] == "lustre"


# -- satellite: slotted demand/workload objects ------------------------------


@pytest.mark.parametrize(
    "instance",
    [
        ComputeDemand(instructions=1.0),
        IODemand(bytes_read=1),
        MemoryDemand(allocate=1),
        NetworkDemand(bytes_sent=1),
        SleepDemand(0.1),
        Stream(),
        Phase(),
        SimWorkload(name="w"),
    ],
    ids=lambda obj: type(obj).__name__,
)
def test_hot_path_objects_are_slotted(instance):
    assert not hasattr(instance, "__dict__")
    # Frozen+slots dataclasses raise FrozenInstanceError on 3.12+, but a
    # TypeError on 3.11 (cpython gh-91126); either way, no new attributes.
    with pytest.raises((AttributeError, TypeError)):
        instance.arbitrary_new_attribute = 1


# -- the streaming prerequisite: RNG split invariance ------------------------


def test_standard_normal_draws_are_split_invariant():
    """PCG64 ``standard_normal(k1); standard_normal(k2)`` must equal one
    ``standard_normal(k1 + k2)`` call bit for bit — the property that
    lets a streamed run consume the noise stream in batch-sized bites.
    """
    whole = np.random.Generator(np.random.PCG64(123)).standard_normal(97)
    gen = np.random.Generator(np.random.PCG64(123))
    parts = np.concatenate([gen.standard_normal(k) for k in (13, 41, 29, 14)])
    assert np.array_equal(whole, parts)
