"""Declarative campaigns: sweeps with a resumable on-store ledger.

A *campaign* is a declarative description of an experiment sweep — the
cross product of application specs, machine models, noise seeds and
repeats — executed through the :class:`~repro.runtime.service.RunService`
and recorded in a :class:`~repro.storage.base.ProfileStore`.

Every cell of the sweep has a deterministic identity (a digest over the
cell's parameters *and* the spec settings that influence its result);
the stored artifact carries that identity in its tags
(``campaign=<name>``, ``cell=<digest>``).  The store therefore *is* the
campaign ledger: re-running a campaign queries it first and only
executes the missing cells, so an interrupted sweep resumes where it
stopped and a completed sweep is a no-op.  Because each cell's noise
derives from its own ``(seed, repeat)`` identity — never from execution
order — a resumed campaign's ledger is identical to an uninterrupted
run's.

Spec form (dict or JSON file)::

    {
      "name": "sweep1",
      "kind": "profile",                      // or "run" (raw engine)
      "apps": ["gromacs:iterations=50000", "sleeper:sleep_seconds=2"],
      "machines": ["thinkie", "comet"],
      "seeds": [0, 1],                        // default [0]
      "repeats": 2,                           // default 1
      "noisy": true,                          // default true
      "config": {"sample_rate": 2.0},         // SynapseConfig kwargs
      "tags": {"experiment": "demo"},         // extra tags on every cell
      "policy": {"retries": 1, "timeout": null, "backoff": 0.0}
    }

One invocation of :func:`run_campaign` owns its store: it writes no
coordination markers, so two plain runs racing on one ledger can both
execute a cell.  Several invocations (processes, hosts) sharing a store
coordinate through the elastic leases of
:mod:`repro.runtime.coordinator` instead.  Because every cell's result
derives only from its own identity, any double execution stores a
bit-identical duplicate that resume and analysis dedupe by digest —
ugly, never wrong.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import random
import secrets
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping

from repro.core.errors import ConfigError, is_retryable
from repro.core.samples import Profile
from repro.runtime.service import RunPolicy, RunRequest, RunService, get_service
from repro.telemetry.events import get_bus
from repro.telemetry.spans import span
from repro.util.tables import Table

__all__ = [
    "CampaignCell",
    "CampaignReport",
    "CampaignSpec",
    "comparable_artifact",
    "completed_cells",
    "ledger",
    "ledger_digest",
    "run_campaign",
]

_KINDS = ("profile", "run")
_SPEC_KEYS = frozenset(
    {"name", "kind", "apps", "machines", "seeds", "repeats", "noisy", "config",
     "tags", "policy"}
)

#: Cells stored per checkpoint wave: an interrupted sweep keeps every
#: finished wave in the ledger and resumes from the next one.
DEFAULT_CHECKPOINT = 8

#: Attempts per ledger store operation (scans, artifact/marker writes)
#: before a transient store failure fails the campaign.
STORE_ATTEMPTS = 3


def _new_owner() -> str:
    """A fresh invocation identity: pid plus a random token."""
    return f"{os.getpid():x}-{secrets.token_hex(4)}"


def _store_op(what: str, fn: Callable[[], Any], owner: str) -> Any:
    """Run one ledger store operation with short transient-fault retries.

    Long campaigns should not die to a single flaky store call (NFS
    hiccup, injected chaos): retryable failures (per
    :func:`~repro.core.errors.is_retryable`) get
    :data:`STORE_ATTEMPTS` tries with a small deterministic-jitter
    sleep seeded by ``(owner, what, attempt)``; fatal errors and
    exhausted budgets propagate.  A retried ``put_many`` that partially
    landed can store duplicate artifacts — bit-identical, deduped by
    digest on resume and analysis (the module-docstring invariant: ugly,
    never wrong).
    """
    for attempt in range(1, STORE_ATTEMPTS + 1):
        try:
            return fn()
        except Exception as exc:  # noqa: BLE001 - classified below
            if attempt >= STORE_ATTEMPTS or not is_retryable(exc):
                raise
            get_bus().event(
                "campaign.store.retry", level="warning", op=what,
                attempt=attempt, attempts=STORE_ATTEMPTS, error=repr(exc),
            )
            # Deterministic full jitter seeded per caller/op/attempt:
            # workers retrying the same op sleep for different times, and
            # the global RNG is untouched.
            time.sleep(
                0.05 * attempt
                * random.Random(f"{owner}|{what}|{attempt}").random()
            )


def _str_list(value: Any, what: str) -> tuple[str, ...]:
    if isinstance(value, str) or not isinstance(value, (list, tuple)):
        raise ConfigError(f"campaign {what} must be a list of strings")
    items = tuple(str(item) for item in value)
    if not items:
        raise ConfigError(f"campaign {what} must not be empty")
    return items


@dataclass(frozen=True)
class CampaignSpec:
    """Validated campaign description (see module docstring for the form)."""

    name: str
    apps: tuple[str, ...]
    machines: tuple[str, ...]
    kind: str = "profile"
    seeds: tuple[int, ...] = (0,)
    repeats: int = 1
    noisy: bool = True
    config: dict[str, Any] = field(default_factory=dict)
    tags: dict[str, Any] = field(default_factory=dict)
    policy: RunPolicy | None = None

    def __post_init__(self) -> None:
        if not self.name or any(c in self.name for c in "=,\n"):
            raise ConfigError(
                f"campaign name {self.name!r} must be non-empty and free of '=', ','"
            )
        if self.kind not in _KINDS:
            raise ConfigError(f"campaign kind must be one of {_KINDS}, not {self.kind!r}")
        if self.repeats < 1:
            raise ConfigError("campaign repeats must be >= 1")
        if not self.seeds:
            raise ConfigError("campaign seeds must not be empty")
        # Duplicates would expand to digest-identical cells: one stored
        # artifact would then pose as several independent measurements
        # (n inflated, std 0) in the campaign analysis.
        for what, values in (
            ("apps", self.apps), ("machines", self.machines),
            ("seeds", self.seeds),
        ):
            if len(set(values)) != len(values):
                raise ConfigError(f"campaign {what} must not contain duplicates")

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignSpec":
        unknown = set(data) - _SPEC_KEYS
        if unknown:
            raise ConfigError(f"unknown campaign spec keys: {sorted(unknown)}")
        if "name" not in data or "apps" not in data or "machines" not in data:
            raise ConfigError("campaign specs need 'name', 'apps' and 'machines'")
        policy = data.get("policy")
        if policy is not None:
            try:
                policy = RunPolicy.from_dict(policy)
            except ValueError as exc:
                raise ConfigError(f"invalid campaign policy: {exc}") from exc
        return cls(
            name=str(data["name"]),
            apps=_str_list(data["apps"], "apps"),
            machines=_str_list(data["machines"], "machines"),
            kind=str(data.get("kind", "profile")),
            seeds=tuple(int(seed) for seed in data.get("seeds", (0,))),
            repeats=int(data.get("repeats", 1)),
            noisy=bool(data.get("noisy", True)),
            config=dict(data.get("config", {})),
            tags=dict(data.get("tags", {})),
            policy=policy,
        )

    @classmethod
    def from_json(cls, path: str | Path) -> "CampaignSpec":
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read campaign spec {path}: {exc}") from exc
        if not isinstance(data, Mapping):
            raise ConfigError(f"campaign spec {path} must be a JSON object")
        return cls.from_dict(data)

    @property
    def n_cells(self) -> int:
        return len(self.apps) * len(self.machines) * len(self.seeds) * self.repeats

    def cells(self) -> list["CampaignCell"]:
        """Expand the sweep into its cells, in deterministic spec order."""
        cells = []
        for app in self.apps:
            for machine in self.machines:
                for seed in self.seeds:
                    for rep in range(self.repeats):
                        cells.append(CampaignCell(self, app, machine, seed, rep))
        return cells


@dataclass(frozen=True)
class CampaignCell:
    """One (app, machine, seed, repeat) point of a campaign sweep."""

    spec: CampaignSpec
    app: str
    machine: str
    seed: int
    rep: int

    @property
    def digest(self) -> str:
        """Deterministic cell identity.

        Hashes the cell coordinates plus every spec setting that
        influences the cell's stored artifact (kind, noisy, config,
        tags), so editing the spec invalidates — rather than silently
        reuses — old cells.  The run policy is deliberately *not*
        hashed: retries/timeouts change how stubbornly a cell executes,
        never what it produces.
        """
        payload = json.dumps(
            [
                self.spec.name,
                self.spec.kind,
                self.app,
                self.machine,
                self.seed,
                self.rep,
                bool(self.spec.noisy),
                sorted(self.spec.config.items()),
                sorted((str(k), str(v)) for k, v in self.spec.tags.items()),
            ],
            sort_keys=True,
            default=str,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    def cell_tags(self) -> dict[str, Any]:
        return {
            **self.spec.tags,
            "campaign": self.spec.name,
            "cell": self.digest,
            "app": self.app,
            "machine": self.machine,
            "seed": self.seed,
            "rep": self.rep,
        }

    def to_request(self) -> RunRequest:
        """The declarative run request this cell executes as."""
        from repro.apps.registry import parse_app  # noqa: PLC0415 (cycle)

        app = parse_app(self.app)
        if self.spec.kind == "profile":
            return RunRequest(
                kind="profile",
                target=app,
                machine=self.machine,
                config=dict(self.spec.config),
                noisy=self.spec.noisy,
                seed=self.seed,
                index=self.rep + 1,
                tags=self.cell_tags(),
                command=app.command(),
                key=self.digest,
                policy=self.spec.policy,
            )
        return RunRequest(
            kind="engine",
            target=app,
            machine=self.machine,
            noisy=self.spec.noisy,
            seed=self.seed,
            index=self.rep + 1,
            reduce=_engine_summary,
            key=self.digest,
            policy=self.spec.policy,
            metadata={"command": app.command()},
        )

    def artifact(self, value: Any):
        """The ledger document for this cell's run outcome.

        ``profile`` cells store the profile itself; ``run`` cells store
        a summary profile (statics only) so both kinds live in the same
        store and resume the same way.
        """
        from repro.apps.registry import parse_app  # noqa: PLC0415 (cycle)
        from repro.sim.machines import get_machine  # noqa: PLC0415 (cycle)

        if self.spec.kind == "profile":
            return value
        statics = dict(value["totals"])
        statics["time.runtime_rusage"] = value["duration"]
        return Profile(
            command=parse_app(self.app).command(),
            tags=self.cell_tags(),
            machine=dict(get_machine(self.machine).info()),
            config=dict(self.spec.config),
            statics=statics,
            info={"campaign_kind": "run", "phase_bounds": value["phase_bounds"]},
        )


def _engine_summary(record: Any) -> dict[str, Any]:
    """Worker-side reducer for ``run`` cells: totals, not histories."""
    return {
        "duration": record.duration,
        "totals": record.totals(),
        "phase_bounds": [list(bounds) for bounds in record.phase_bounds],
    }


@dataclass
class CampaignReport:
    """Outcome of one :func:`run_campaign` (or elastic worker) invocation."""

    name: str
    total: int
    skipped: int
    executed: int
    failed: list[dict[str, str]] = field(default_factory=list)
    seconds: float = 0.0
    truncated: bool = False
    #: Pending cells this invocation was responsible for (``total -
    #: skipped`` for a plain run; the cells it executed for an elastic
    #: worker).
    assigned: int = 0
    #: Cells an elastic worker left to a live rival's lease.
    deferred: int = 0
    #: True when a ``stop`` request (SIGTERM/SIGINT drain) ended the
    #: sweep early: the current wave was finished and persisted, the
    #: remaining waves were never started.
    interrupted: bool = False

    @property
    def remaining(self) -> int:
        """Cells still missing from the ledger after this invocation.

        Sweep-wide view: for an elastic worker this includes the cells
        its rivals still hold, so ``complete`` only turns true once the
        whole fleet has filled the ledger.
        """
        return self.total - self.skipped - self.executed

    @property
    def complete(self) -> bool:
        return self.remaining == 0 and not self.failed

    def to_dict(self) -> dict[str, Any]:
        return {
            "campaign": self.name,
            "total": self.total,
            "skipped": self.skipped,
            "executed": self.executed,
            "failed": list(self.failed),
            "remaining": self.remaining,
            "complete": self.complete,
            "seconds": self.seconds,
            "truncated": self.truncated,
            "assigned": self.assigned,
            "deferred": self.deferred,
            "interrupted": self.interrupted,
        }

    def table(self) -> Table:
        state = "complete" if self.complete else "partial"
        if self.interrupted:
            state = "interrupted (drained)"
        table = Table(
            ["cells", "skipped (ledger)", "executed", "failed", "deferred",
             "remaining"],
            title=f"campaign {self.name!r}: {state} in {self.seconds:.2f}s",
        )
        table.add_row(
            [self.total, self.skipped, self.executed, len(self.failed),
             self.deferred, self.remaining]
        )
        return table


#: Cell digests are the first 16 hex chars of a SHA-256 (see
#: :meth:`CampaignCell.digest`); anything else in a ``cell=`` tag is a
#: corrupt/tampered entry and must not count as a completed cell.
_DIGEST_CHARS = frozenset("0123456789abcdef")


def _is_cell_digest(text: str) -> bool:
    return len(text) == 16 and set(text) <= _DIGEST_CHARS


def _ledger_ids(store: Any, name: str) -> list[tuple[str, str]]:
    """``(digest, store id)`` pairs for every well-formed ledger entry.

    Entries whose ``cell=`` tag is missing, empty or malformed are
    skipped: they can never correspond to a spec cell, so treating them
    as completed would silently drop cells from a resumed sweep.  The
    scan runs on the store's index plane (cell digests live in the
    tags), so ledger bookkeeping — resume checks, lease dealing — never
    deserialises artifact payloads.
    """
    pairs: list[tuple[str, str]] = []
    for entry in store.entries(tags=[f"campaign={name}"]):
        for tag in entry.tags:
            if tag.startswith("cell="):
                digest = tag[len("cell="):]
                if _is_cell_digest(digest):
                    pairs.append((digest, entry.id))
    return pairs


def completed_cells(store: Any, name: str) -> set[str]:
    """Digests of all cells of campaign ``name`` already in the ledger.

    Index-plane only: a campaign resume (or an elastic worker's rescan)
    costs one tag-filtered index scan, not a full-ledger
    deserialisation.
    """
    return {digest for digest, _pid in _ledger_ids(store, name)}


def ledger(store: Any, name: str) -> dict[str, Any]:
    """The campaign's ledger: cell digest -> stored artifact profile.

    Resolves digests on the index plane, then batch-loads exactly the
    artifact payloads via ``get_many`` (duplicate digests — racing
    workers' bit-identical artifacts — dedupe to the newest entry).
    """
    pairs = _ledger_ids(store, name)
    profiles = store.get_many([pid for _digest, pid in pairs])
    return {digest: profile for (digest, _pid), profile in zip(pairs, profiles)}


def comparable_artifact(profile: Any) -> dict[str, Any]:
    """A ledger artifact document scrubbed of run-environment identity.

    Campaign results are deterministic by construction (cell-derived
    noise streams); only *when* and *by which process* a cell ran leaks
    into its stored document.  Dropping the wall-clock ``created`` stamp
    and the recording process id leaves exactly the fields that must be
    bit-identical across reruns, workers, resumes and chaos runs.
    """
    doc = profile.to_dict() if hasattr(profile, "to_dict") else dict(profile)
    doc = json.loads(json.dumps(doc, sort_keys=True, default=str))
    doc.pop("created", None)
    process = doc.get("info", {}).get("process")
    if isinstance(process, dict):
        process.pop("pid", None)
    return doc


def ledger_digest(store: Any, name: str) -> str:
    """Canonical digest of campaign ``name``'s ledger.

    Two campaign runs converged to the same results — regardless of
    execution order, worker count, interruptions, retries or
    injected faults — produce the same digest.  The chaos smoke test
    (and CI job) pins a faulted run against a fault-free one with this.
    """
    led = ledger(store, name)
    payload = json.dumps(
        {digest: comparable_artifact(profile)
         for digest, profile in sorted(led.items())},
        sort_keys=True,
        default=str,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _failure(cell: CampaignCell, error: str) -> dict[str, str]:
    return {"cell": cell.digest, "app": cell.app, "machine": cell.machine,
            "error": error}


def _execute_wave(
    wave: list[CampaignCell],
    store: Any,
    svc: RunService,
    processes: int | None,
    owner: str,
    guard: Any = contextlib.nullcontext(),
    hold: Callable[[list[RunRequest]], None] | None = None,
) -> tuple[int, list[dict[str, str]]]:
    """Execute one wave of cells and persist its artifacts.

    Cells become run requests, run through ``svc`` and land in ``store``
    with one ``put_many``; returns ``(executed, failures)``.  Cells whose
    spec cannot become a request, and runs that fail, are reported as
    failure dicts and never stored.  ``hold`` sees the wave's requests
    just before they run (the elastic worker starts renewing its leases
    there); ``guard`` is entered around the store write (the elastic
    worker's store lock).
    """
    failures: list[dict[str, str]] = []
    requests, runnable = [], []
    for cell in wave:
        try:
            requests.append(cell.to_request())
            runnable.append(cell)
        except Exception as exc:  # unknown app spec, bad config, ...
            failures.append(_failure(cell, repr(exc)))
    if hold is not None:
        hold(requests)
    results = svc.run(requests, processes=processes, rethrow=False)
    artifacts = []
    for cell, result in zip(runnable, results):
        if result.ok:
            artifacts.append(cell.artifact(result.value))
        else:
            failures.append(_failure(cell, result.error or "unknown error"))
    if artifacts:
        with guard:
            _store_op("artifacts.put", lambda: store.put_many(artifacts), owner)
    return len(artifacts), failures


def run_campaign(
    spec: CampaignSpec | Mapping[str, Any],
    store: Any,
    processes: int | None = None,
    service: RunService | None = None,
    limit: int | None = None,
    checkpoint: int = DEFAULT_CHECKPOINT,
    progress: Any = None,
    stop: Callable[[], bool] | None = None,
) -> CampaignReport:
    """Execute (or resume) a campaign sweep against its store ledger.

    Cells already present in the ledger are skipped; the rest execute
    through the run service in checkpointed waves of ``checkpoint``
    cells — each wave is persisted before the next starts, so an
    interruption loses at most one wave and a re-run completes only the
    missing cells.  ``limit`` caps the cells executed in this
    invocation (handy for smoke tests and incremental sweeps); failures
    are recorded in the report, never stored as completed cells.  To
    split a sweep across processes or hosts, run elastic workers
    (:mod:`repro.runtime.coordinator`) instead.

    ``progress`` is an optional per-wave callback receiving a summary
    dict (``wave``, ``waves``, ``cells``, ``executed``, ``failed``,
    ``completed``, ``pending``, ``elapsed``) after each wave is
    persisted — the CLI's live progress lines.

    ``stop`` is an optional zero-argument drain predicate checked
    between waves (the CLI wires its SIGTERM/SIGINT handler here): once
    it returns true the current wave is finished and persisted, the
    remaining waves never start, and the report comes back with
    ``interrupted=True`` — a graceful shutdown loses nothing and a
    re-run resumes from the ledger.

    Ledger store operations (resume scan, artifact writes) retry
    transient failures :data:`STORE_ATTEMPTS` times (with deterministic
    jitter) before failing the campaign.

    Telemetry: the sweep runs under a ``campaign.run`` span with one
    ``campaign.wave`` span per wave (pooled per-request spans stitch
    under it) and emits ``campaign.start`` / ``campaign.wave.finish`` /
    ``campaign.store.retry`` / ``campaign.interrupted`` /
    ``campaign.finish`` events on the process bus.
    """
    if not isinstance(spec, CampaignSpec):
        spec = CampaignSpec.from_dict(spec)
    svc = service if service is not None else get_service()
    owner = _new_owner()
    cells = spec.cells()
    done = _store_op(
        "completed_cells", lambda: completed_cells(store, spec.name), owner
    )
    pending = [cell for cell in cells if cell.digest not in done]
    skipped = len(cells) - len(pending)
    assigned = len(pending)
    truncated = False
    if limit is not None and len(pending) > limit:
        pending = pending[: max(0, limit)]
        truncated = True

    bus = get_bus()
    executed = 0
    interrupted = False
    failures: list[dict[str, str]] = []
    start = time.perf_counter()
    step = max(1, checkpoint)
    n_waves = (len(pending) + step - 1) // step
    with span(
        "campaign.run", level="info", campaign=spec.name, total=len(cells),
        skipped=skipped, assigned=assigned, owner=owner,
    ) as campaign_span:
        bus.event(
            "campaign.start", campaign=spec.name, total=len(cells),
            skipped=skipped, assigned=assigned, waves=n_waves, owner=owner,
        )
        for wave_no, wave_start in enumerate(range(0, len(pending), step), start=1):
            if stop is not None and stop():
                # Drain semantics: the wave that was running when the
                # stop request arrived has already been persisted; just
                # never start the next one.
                interrupted = True
                bus.event(
                    "campaign.interrupted", level="warning",
                    campaign=spec.name, wave=wave_no, waves=n_waves,
                    executed=executed,
                    pending=len(cells) - skipped - executed,
                )
                break
            wave = pending[wave_start : wave_start + step]
            with span(
                "campaign.wave", level="info", campaign=spec.name,
                wave=wave_no, waves=n_waves, cells=len(wave),
            ) as wave_span:
                wave_executed, wave_failures = _execute_wave(
                    wave, store, svc, processes, owner
                )
                wave_span.set(executed=wave_executed, failed=len(wave_failures))
            executed += wave_executed
            failures.extend(wave_failures)
            summary = {
                "campaign": spec.name,
                "wave": wave_no,
                "waves": n_waves,
                "total": len(cells),
                "cells": len(wave),
                "executed": wave_executed,
                "failed": len(wave_failures),
                "completed": skipped + executed,
                "pending": len(cells) - skipped - executed,
                "elapsed": time.perf_counter() - start,
            }
            bus.event("campaign.wave.finish", **summary)
            if progress is not None:
                progress(dict(summary))
        campaign_span.set(executed=executed, failed=len(failures),
                          interrupted=interrupted)
        bus.event(
            "campaign.finish", campaign=spec.name, executed=executed,
            failed=len(failures), interrupted=interrupted,
            seconds=time.perf_counter() - start,
        )

    return CampaignReport(
        name=spec.name,
        total=len(cells),
        skipped=skipped,
        executed=executed,
        failed=failures,
        seconds=time.perf_counter() - start,
        truncated=truncated,
        assigned=assigned,
        interrupted=interrupted,
    )
