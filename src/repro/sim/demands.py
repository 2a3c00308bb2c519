"""Resource demand primitives executed by the simulation engine.

A *demand* is one contiguous consumption of one resource type — the
simulation-plane counterpart of what an emulation atom does on the host
plane (§3.3 of the paper).  Virtual applications and emulation plans are
both expressed as sequences of demands, so the profiler observes the two
through exactly the same counters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "Demand",
    "ComputeDemand",
    "IODemand",
    "MemoryDemand",
    "NetworkDemand",
    "SleepDemand",
]


class Demand:
    """Marker base class for all demand types."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class ComputeDemand(Demand):
    """Execute ``instructions`` machine instructions.

    ``workload_class`` selects the machine's IPC/stall characteristics
    (an application class such as ``"app.md"``, or a kernel class such as
    ``"kernel.asm"``).  ``calibrated_cycles`` is set by the compute atom
    when the demand was derived from a target cycle count: the engine then
    charges the kernel's *calibration-biased* cycle consumption instead of
    deriving cycles from instructions (this reproduces the E.3 kernel
    fidelity differences mechanistically).
    """

    instructions: float
    workload_class: str = "app.generic"
    flops_per_instruction: float = 0.0
    threads: int = 1
    paradigm: str = "serial"
    calibrated_cycles: float | None = None
    #: Override of the machine class's stalled/used cycle ratio.  Set by
    #: the emulator when a CPU-efficiency target is configured (Table 1
    #: lists efficiency emulation as partially supported — a manual
    #: tunable): efficiency = 1 / (1 + stall_ratio).
    stall_ratio: float | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.instructions < math.inf:
            raise ValueError("instructions must be finite and non-negative")
        if self.calibrated_cycles is not None and not math.isfinite(
            self.calibrated_cycles
        ):
            raise ValueError("calibrated_cycles must be finite")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if not (0.0 <= self.flops_per_instruction <= 1.0):
            raise ValueError("flops_per_instruction must be in [0, 1]")
        if self.stall_ratio is not None and self.stall_ratio < 0:
            raise ValueError("stall_ratio must be non-negative")


@dataclass(frozen=True, slots=True)
class IODemand(Demand):
    """Read/write bytes from/to a named filesystem in fixed-size blocks."""

    bytes_read: int = 0
    bytes_written: int = 0
    block_size: int = 1 << 20
    filesystem: str = "local"

    def __post_init__(self) -> None:
        if self.bytes_read < 0 or self.bytes_written < 0:
            raise ValueError("I/O byte counts must be non-negative")
        if self.block_size <= 0:
            raise ValueError("block size must be positive")


@dataclass(frozen=True, slots=True)
class MemoryDemand(Demand):
    """Allocate and/or free bytes of memory (libc malloc/free analogue)."""

    allocate: int = 0
    free: int = 0
    block_size: int = 1 << 20

    def __post_init__(self) -> None:
        if self.allocate < 0 or self.free < 0:
            raise ValueError("memory byte counts must be non-negative")
        if self.block_size <= 0:
            raise ValueError("block size must be positive")


@dataclass(frozen=True, slots=True)
class NetworkDemand(Demand):
    """Send/receive bytes over a (virtual) socket connection."""

    bytes_sent: int = 0
    bytes_received: int = 0
    block_size: int = 64 << 10
    endpoint: str = "peer"

    def __post_init__(self) -> None:
        if self.bytes_sent < 0 or self.bytes_received < 0:
            raise ValueError("network byte counts must be non-negative")
        if self.block_size <= 0:
            raise ValueError("block size must be positive")


@dataclass(frozen=True, slots=True)
class SleepDemand(Demand):
    """Consume wall time without consuming any other resource.

    This models the paper's ``sleep(3)`` limitation example (§4.5): lots
    of Tx, almost no cycles.
    """

    seconds: float

    def __post_init__(self) -> None:
        if not 0 <= self.seconds < math.inf:
            raise ValueError("sleep duration must be finite and non-negative")
