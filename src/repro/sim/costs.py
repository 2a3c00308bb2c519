"""The cost model of the simulation plane, as functions over plain arrays.

Every formula that turns demand parameters into seconds lives here, and
nothing else reads a machine's rates for costing:

* **binding tables** — machine parameters resolved once per distinct
  workload class, ``(paradigm, workers)`` pair and filesystem, then
  fanned out to demands by interned code (:func:`bind_compute`,
  :func:`bind_io`);
* **per-type kernels** — :func:`compute_costs`, :func:`io_costs`,
  :func:`memory_costs` and :func:`network_costs` cost every demand of
  one type at once and return its duration plus the counter amounts the
  watchers observe;
* **phase contention** — :func:`phase_contention`, the slowdown that
  concurrent streams inside one barrier-delimited phase impose on each
  other.

The engine (:mod:`repro.sim.engine`), the analytical predictor
(:mod:`repro.predict.predictor`) and the placement wave model
(:mod:`repro.predict.placement`) all call these functions, so a
prediction equals the noise-free emulated runtime of the same demands
by construction, and a cost-model change edits this file only.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from repro.sim.resource import MachineSpec

__all__ = [
    "ComputeBinding",
    "IOBinding",
    "bind_compute",
    "bind_io",
    "compute_costs",
    "io_costs",
    "memory_costs",
    "network_costs",
    "phase_contention",
]


class ComputeBinding(NamedTuple):
    """Per-demand machine parameters of a set of compute demands."""

    #: Threads clamped to the machine's core count.
    workers: np.ndarray
    ipc: np.ndarray
    cycle_bias: np.ndarray
    stall_ratio: np.ndarray
    front_fraction: np.ndarray
    #: Parallel time factor and cycle-overhead fraction (1 and 0 serially).
    factor: np.ndarray
    overhead: np.ndarray


class IOBinding(NamedTuple):
    """Per-demand filesystem parameters of a set of I/O demands."""

    read_latency: np.ndarray
    write_latency: np.ndarray
    #: Seconds per read byte, blending page cache and device.
    read_blend: np.ndarray
    write_bandwidth: np.ndarray


# -- binding tables -----------------------------------------------------------


def bind_compute(
    machine: MachineSpec,
    class_names: Sequence[str],
    classes: np.ndarray,
    paradigm_names: Sequence[str],
    paradigms: np.ndarray,
    threads: np.ndarray,
    stall_ratio: np.ndarray | None = None,
) -> ComputeBinding:
    """Resolve compute parameters for demands given by interned codes.

    ``classes``/``paradigms`` index into ``class_names``/``paradigm_names``.
    ``stall_ratio`` holds per-demand overrides (NaN keeps the class
    default); ``None`` means no overrides.
    """
    cpu = machine.cpu
    cores = cpu.cores
    n_cls = len(class_names)
    ipc_t = np.empty(n_cls)
    bias_t = np.empty(n_cls)
    sr_t = np.empty(n_cls)
    ff_t = np.empty(n_cls)
    for code, wc in enumerate(class_names):
        spec = cpu.spec(wc)
        ipc_t[code] = spec.ipc
        bias_t[code] = spec.cycle_bias
        sr_t[code] = spec.stall_ratio
        ff_t[code] = spec.stall_front_fraction
    stall = sr_t[classes]
    if stall_ratio is not None:
        stall = np.where(np.isnan(stall_ratio), stall, stall_ratio)

    workers = np.minimum(threads, cores)
    factor = np.ones(workers.size)
    overhead = np.zeros(workers.size)
    multi = workers > 1
    if multi.any():
        # Resolve scaling once per distinct (paradigm, workers).
        key = paradigms[multi] * (cores + 1) + workers[multi]
        uniq, inv = np.unique(key, return_inverse=True)
        f_u = np.empty(uniq.size)
        o_u = np.empty(uniq.size)
        for u_idx, k in enumerate(uniq.tolist()):
            scaling = machine.scaling_model(paradigm_names[k // (cores + 1)])
            w = int(k % (cores + 1))
            f_u[u_idx] = scaling.time_factor(w)
            o_u[u_idx] = scaling.overhead_cycles_fraction(w)
        factor[multi] = f_u[inv]
        overhead[multi] = o_u[inv]
    return ComputeBinding(
        workers, ipc_t[classes], bias_t[classes], stall, ff_t[classes], factor, overhead
    )


def bind_io(
    machine: MachineSpec, fs_names: Sequence[str], fs: np.ndarray
) -> IOBinding:
    """Resolve filesystem parameters for demands given by interned codes."""
    n_fs = len(fs_names)
    rlat = np.empty(n_fs)
    wlat = np.empty(n_fs)
    rblend = np.empty(n_fs)
    wbw = np.empty(n_fs)
    for code, fs_name in enumerate(fs_names):
        model = machine.filesystem(fs_name)
        hit = model.cache_hit_fraction
        rlat[code] = model.read_latency
        wlat[code] = model.write_latency
        rblend[code] = hit / model.cache_bandwidth + (1.0 - hit) / model.read_bandwidth
        wbw[code] = model.write_bandwidth
    return IOBinding(rlat[fs], wlat[fs], rblend[fs], wbw[fs])


# -- per-type kernels ---------------------------------------------------------


def compute_costs(
    machine: MachineSpec,
    bound: ComputeBinding,
    instructions: np.ndarray,
    calibrated_cycles: np.ndarray,
    flops_per_instruction: np.ndarray,
) -> dict[str, np.ndarray]:
    """Duration and CPU counters of compute demands.

    A demand with a calibrated cycle target (non-NaN) consumes
    ``target * cycle_bias`` cycles — the E.3 calibration error of an
    emulation kernel; otherwise cycles follow from instructions / IPC.
    Parallel runs pay the paradigm's time factor and cycle overhead.
    """
    ipc = bound.ipc
    with np.errstate(invalid="ignore"):
        has_cc = ~np.isnan(calibrated_cycles)
        cycles = np.where(
            has_cc, calibrated_cycles * bound.cycle_bias, instructions / ipc
        )
        instr = np.where(has_cc, cycles * ipc, instructions)
    over = bound.overhead
    cycles_total = cycles * (1.0 + over)
    instr_total = instr * (1.0 + over)
    duration = (cycles / machine.cpu.frequency) * bound.factor
    stalled = cycles_total * bound.stall_ratio
    front_fraction = bound.front_fraction
    return {
        "duration": duration,
        "cpu.instructions": instr_total,
        "cpu.cycles_used": cycles_total,
        "cpu.cycles_stalled_front": stalled * front_fraction,
        "cpu.cycles_stalled_back": stalled * (1.0 - front_fraction),
        "cpu.flops": instr_total * flops_per_instruction,
    }


def io_costs(
    bound: IOBinding, read: np.ndarray, written: np.ndarray, block: np.ndarray
) -> dict[str, np.ndarray]:
    """Duration and byte counters of I/O demands.

    Each direction costs ``ceil(bytes / block) * latency + transfer``;
    reads blend page-cache and device bandwidth.
    """
    nread = np.asarray(read, dtype=float)
    nwritten = np.asarray(written, dtype=float)
    block = np.asarray(block, dtype=float)
    read_ops = np.ceil(nread / block)
    write_ops = np.ceil(nwritten / block)
    read_time = np.where(
        nread > 0, read_ops * bound.read_latency + nread * bound.read_blend, 0.0
    )
    write_time = np.where(
        nwritten > 0,
        write_ops * bound.write_latency + nwritten / bound.write_bandwidth,
        0.0,
    )
    return {
        "duration": read_time + write_time,
        "io.bytes_read": nread,
        "io.bytes_written": nwritten,
    }


def memory_costs(
    machine: MachineSpec, alloc: np.ndarray, freed: np.ndarray, block: np.ndarray
) -> dict[str, np.ndarray]:
    """Duration and byte counters of memory demands.

    Allocation pays a per-block latency plus touch bandwidth, freeing a
    per-block latency; a nonzero size costs at least one block.
    """
    mem = machine.memory
    alloc = np.asarray(alloc, dtype=np.int64)
    freed = np.asarray(freed, dtype=np.int64)
    block = np.asarray(block, dtype=np.int64)
    alloc_ops = np.maximum(1, -(-alloc // block))
    free_ops = np.maximum(1, -(-freed // block))
    alloc_time = np.where(
        alloc > 0, alloc_ops * mem.alloc_latency + alloc / mem.touch_bandwidth, 0.0
    )
    free_time = np.where(freed > 0, free_ops * mem.free_latency, 0.0)
    return {
        "duration": alloc_time + free_time,
        "mem.allocated": alloc.astype(float),
        "mem.freed": freed.astype(float),
    }


def network_costs(
    machine: MachineSpec, sent: np.ndarray, received: np.ndarray, block: np.ndarray
) -> dict[str, np.ndarray]:
    """Duration and byte counters of network demands.

    All traffic shares one machine-level link: per-message latency over
    ``ceil(bytes / block)`` messages plus bytes over bandwidth.
    """
    sent = np.asarray(sent, dtype=np.int64)
    received = np.asarray(received, dtype=np.int64)
    block = np.asarray(block, dtype=np.int64)
    nbytes = sent + received
    ops = -(-nbytes // block)
    duration = ops * machine.net_latency + nbytes / machine.net_bandwidth
    return {
        "duration": duration,
        "net.bytes_written": sent.astype(float),
        "net.bytes_read": received.astype(float),
    }


# -- contention ---------------------------------------------------------------


def phase_contention(
    cores: int,
    n_phases: int,
    cpu_phase: np.ndarray,
    cpu_workers: np.ndarray,
    io_phase: np.ndarray,
    io_fs: np.ndarray,
    n_fs: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-phase CPU and per-(phase, filesystem) I/O slowdown factors.

    ``cpu_phase``/``cpu_workers`` hold one entry per stream that computes:
    its phase and its largest (core-clamped) worker count.  The CPU
    factor of a phase is ``max(1, Σ workers / cores)`` — oversubscribing
    the cores slows every compute demand proportionally.
    ``io_phase``/``io_fs`` hold one entry per distinct (stream,
    filesystem) pair doing I/O; the I/O factor is ``max(1, streams)`` on
    that filesystem — concurrent streams share its bandwidth.

    Returns ``(f_cpu, f_io)`` with shapes ``(n_phases,)`` and
    ``(n_phases, n_fs)``.
    """
    workers = np.bincount(cpu_phase, weights=cpu_workers, minlength=n_phases)
    f_cpu = np.maximum(1.0, workers / cores)
    streams = np.bincount(io_phase * n_fs + io_fs, minlength=n_phases * n_fs)
    f_io = np.maximum(1.0, streams.reshape(n_phases, n_fs))
    return f_cpu, f_io
