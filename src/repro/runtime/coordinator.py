"""Elastic campaign coordination: heartbeats, leases, work stealing.

This is how several invocations share one campaign: a **lease-based pull
loop** over the campaign's store ledger (see
:mod:`repro.runtime.campaign`), so any number of workers — joining
late, crashing, hanging or draining out — converge the campaign
cooperatively:

* **Membership.** Each worker registers a *heartbeat document* (command
  :data:`MEMBER_COMMAND`) and renews it from a background thread every
  third of the lease TTL.  A worker whose newest heartbeat is older
  than the TTL is dead: its leases become stealable immediately, and a
  draining worker deregisters outright so survivors do not even wait
  out the TTL.
* **Leases.** Pending cells are pulled in batches; each pulled cell is
  leased (command :data:`LEASE_COMMAND`) with the owner, an **epoch**
  counter and a creation stamp.  The heartbeat thread renews held
  leases while the wave executes — but stops renewing once the wave has
  provably overrun its :func:`~repro.runtime.service.batch_budget`
  deadline, so even a worker hung past every enforcement tier loses its
  leases.
* **Stealing.** A lease is *live* while its newest record is fresher
  than the TTL **and** its owner's heartbeat is live.  Anything else is
  stolen: the thief writes a lease at ``epoch + 1``.  Lease resolution
  is deterministic — highest epoch wins, ties resolve on ``(created,
  owner)`` — so a resurrected owner's late renewal (old epoch) defers
  to the thief instead of fighting it.
* **Exactly-once ledger.** Every cell's artifact derives only from the
  cell's own identity, so the pathological races (two workers executing
  one cell during a steal window, a resurrected worker storing after
  its thief) store bit-identical duplicates the ledger dedupes by
  digest — the campaign module's "ugly, never wrong" invariant.  The
  chaos bar: a run that loses a worker mid-wave and gains another late
  converges to a ledger digest identical to a fault-free run's.

Fault points (:mod:`repro.faults`): ``coordinator.heartbeat`` fires on
every beat (``crash`` mode kills the worker process mid-wave — the CI
chaos smoke), ``coordinator.lease.renew`` on every lease renewal
(``error`` mode drops renewals, ageing a live worker's leases into
stealability), ``coordinator.steal`` on every steal attempt.

Telemetry: ``campaign.member.join`` / ``campaign.member.leave`` /
``campaign.member.steal`` events, ``coordinator.steals`` /
``coordinator.waves`` counters, ``coordinator.lease.age.seconds``
histogram (lease age at steal time) and a ``coordinator.members``
gauge.
"""

from __future__ import annotations

import secrets
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.core.errors import ConfigError
from repro.core.samples import Profile
from repro.faults import inject
from repro.runtime.campaign import (
    DEFAULT_CHECKPOINT,
    CampaignReport,
    CampaignSpec,
    _execute_wave,
    _new_owner,
    _store_op,
    completed_cells,
)
from repro.runtime.service import RunService, batch_budget, get_service
from repro.telemetry.events import get_bus
from repro.telemetry.metrics import get_registry
from repro.telemetry.spans import span

__all__ = [
    "DEFAULT_LEASE_TTL",
    "LEASE_COMMAND",
    "MEMBER_COMMAND",
    "LeaseRecord",
    "elastic_worker",
    "lease_records",
    "live_members",
    "resolve_lease",
    "run_elastic",
]

#: Command under which member heartbeat documents are stored.
MEMBER_COMMAND = "synapse:campaign-member"

#: Command under which cell lease documents are stored.
LEASE_COMMAND = "synapse:campaign-lease"

#: Seconds a lease (and a member heartbeat) stays live without renewal.
#: Heartbeats renew at TTL/3, so takeover latency after a hard crash is
#: about one TTL.
DEFAULT_LEASE_TTL = 60.0

#: Marker documents (leases, heartbeats) older than ``ttl * this`` are
#: garbage — superseded renewals of dead workers — and are expired
#: server-side where the store supports it.
STALE_MARKER_FACTOR = 4.0


def _heartbeat_interval(ttl: float) -> float:
    return max(0.05, ttl / 3.0)


def _poll_interval(ttl: float) -> float:
    """How long a worker with nothing stealable waits before rescanning."""
    return min(1.0, max(0.05, ttl / 4.0))


@dataclass(frozen=True)
class LeaseRecord:
    """One stored lease document, index-plane view (no payload read)."""

    digest: str
    owner: str
    epoch: int
    created: float
    id: str


@dataclass(frozen=True)
class LeaseState:
    """Resolution of one cell's lease records (see :func:`resolve_lease`)."""

    owner: str
    epoch: int
    #: Newest record stamp of the winning ``(owner, epoch)`` lease.
    renewed: float
    #: Live = fresh within the TTL *and* the owner's heartbeat is live.
    alive: bool


def _tag_value(tags: tuple[str, ...], key: str) -> str | None:
    prefix = f"{key}="
    for tag in tags:
        if tag.startswith(prefix):
            return tag[len(prefix):]
    return None


def live_members(
    store: Any, name: str, ttl: float, now: float | None = None
) -> dict[str, float]:
    """Members of campaign ``name`` with a heartbeat fresher than ``ttl``.

    Returns member id -> newest heartbeat stamp.  Index-plane only: a
    membership scan costs one tag-filtered ``entries`` call, no payload
    reads.
    """
    now = time.time() if now is None else now
    newest: dict[str, float] = {}
    for entry in store.entries(MEMBER_COMMAND, tags=[f"campaign={name}"]):
        member = _tag_value(entry.tags, "member")
        if member is not None:
            newest[member] = max(newest.get(member, 0.0), entry.created)
    return {
        member: stamp for member, stamp in newest.items() if now - stamp <= ttl
    }


def lease_records(store: Any, name: str) -> dict[str, list[LeaseRecord]]:
    """All lease documents of campaign ``name``, grouped by cell digest."""
    found: dict[str, list[LeaseRecord]] = {}
    for entry in store.entries(LEASE_COMMAND, tags=[f"campaign={name}"]):
        digest = _tag_value(entry.tags, "lease")
        owner = _tag_value(entry.tags, "owner")
        epoch = _tag_value(entry.tags, "epoch")
        if digest is None or owner is None or epoch is None:
            continue
        try:
            epoch_no = int(epoch)
        except ValueError:
            continue
        found.setdefault(digest, []).append(
            LeaseRecord(digest, owner, epoch_no, entry.created, entry.id)
        )
    return found


def resolve_lease(
    records: list[LeaseRecord],
    now: float,
    ttl: float,
    live: Mapping[str, float] | set | frozenset = frozenset(),
) -> LeaseState | None:
    """Resolve one cell's lease records to their current holder.

    The **highest epoch** wins outright (a steal supersedes everything
    before it), and same-epoch races — two workers acquiring or stealing
    concurrently — resolve on the ``(created, owner)`` minimum.  The
    winning lease is *alive* while its newest record is fresher than
    ``ttl`` **and** its owner appears in ``live`` — a deregistered or
    dead owner's lease is stealable immediately, which is what makes
    the SIGTERM drain hand work over without waiting out the TTL.
    """
    if not records:
        return None
    top = max(record.epoch for record in records)
    contenders = [record for record in records if record.epoch == top]
    _, owner = min((record.created, record.owner) for record in contenders)
    renewed = max(
        record.created for record in contenders if record.owner == owner
    )
    alive = (now - renewed <= ttl) and owner in live
    return LeaseState(owner=owner, epoch=top, renewed=renewed, alive=alive)


def _member_doc(name: str, worker: str) -> Profile:
    return Profile(
        command=MEMBER_COMMAND,
        tags={"campaign": name, "member": worker},
        created=time.time(),
    )


def _lease_doc(name: str, digest: str, worker: str, epoch: int) -> Profile:
    return Profile(
        command=LEASE_COMMAND,
        tags={"campaign": name, "lease": digest, "owner": worker, "epoch": epoch},
        created=time.time(),
    )


class _Heartbeat(threading.Thread):
    """Renews the member heartbeat and held leases in the background.

    All store traffic from this thread is serialised against the main
    pull loop through ``lock`` (profile stores are not thread-safe) and
    is strictly best-effort: a failed beat is a *dropped* heartbeat —
    survivable by design, and exactly what the ``coordinator.heartbeat``
    / ``coordinator.lease.renew`` fault points simulate.

    Lease renewal keeps two documents per held cell: the **anchor** (the
    acquire-time document, whose ``created`` stamp is the cell's
    priority in same-epoch tie-breaks) and the newest renewal.
    Renewals past the wave ``deadline`` are withheld — the deadline
    plumbing that lets survivors steal from a worker hung beyond its
    whole :func:`~repro.runtime.service.batch_budget`.
    """

    def __init__(
        self, store: Any, lock: threading.Lock, campaign: str, worker: str,
        ttl: float,
    ) -> None:
        super().__init__(name=f"heartbeat-{worker}", daemon=True)
        self.store = store
        self.lock = lock
        self.campaign = campaign
        self.worker = worker
        self.ttl = ttl
        self.interval = _heartbeat_interval(ttl)
        self._halt = threading.Event()
        self._state = threading.Lock()
        self._member_id: str | None = None
        #: digest -> {"epoch": int, "anchor": pid, "renewal": pid | None}
        self._held: dict[str, dict[str, Any]] = {}
        self._deadline: float | None = None

    # -- main-thread API ------------------------------------------------------

    def register(self) -> None:
        """Write the initial member heartbeat (before the thread starts)."""
        with self.lock:
            pid = _store_op(
                "member.put",
                lambda: self.store.put(_member_doc(self.campaign, self.worker)),
                self.worker,
            )
        with self._state:
            self._member_id = pid

    def hold(self, leases: dict[str, tuple[int, str]], budget: float | None) -> None:
        """Start renewing these leases (digest -> (epoch, anchor id)).

        ``budget`` is the wave's wall-clock bound: past it renewals stop
        and the leases age into stealability (``None`` = renew as long
        as this process lives).
        """
        with self._state:
            for digest, (epoch, anchor) in leases.items():
                self._held[digest] = {
                    "epoch": epoch, "anchor": anchor, "renewal": None,
                }
            self._deadline = (
                None if budget is None else time.monotonic() + budget
            )

    def release(self) -> list[str]:
        """Stop renewing all held leases; returns their document ids."""
        with self._state:
            held, self._held = self._held, {}
            self._deadline = None
        ids: list[str] = []
        for state in held.values():
            ids.append(state["anchor"])
            if state["renewal"] is not None:
                ids.append(state["renewal"])
        return ids

    def deregister(self) -> list[str]:
        """Stop the thread; returns every marker id still to delete."""
        self._halt.set()
        self.join(timeout=max(2.0, self.interval * 4))
        ids = self.release()
        with self._state:
            if self._member_id is not None:
                ids.append(self._member_id)
                self._member_id = None
        return ids

    # -- thread body ----------------------------------------------------------

    def run(self) -> None:  # pragma: no cover - exercised via workers
        while not self._halt.wait(self.interval):
            self.beat()

    def beat(self) -> None:
        """One renewal round (public for deterministic tests)."""
        try:
            # ``crash`` rules here kill the whole worker process —
            # the chaos smoke's mid-wave worker loss.  ``error`` rules
            # drop this beat: the member heartbeat ages exactly as if
            # the network had eaten it.
            inject("coordinator.heartbeat", key=self.worker)
        except Exception:  # noqa: BLE001 - injected drop
            return
        self._renew_member()
        self._renew_leases()

    def _renew_member(self) -> None:
        try:
            with self.lock:
                pid = self.store.put(_member_doc(self.campaign, self.worker))
                with self._state:
                    previous, self._member_id = self._member_id, pid
                if previous is not None:
                    _delete_markers(self.store, [previous])
        except Exception:  # noqa: BLE001 - dropped heartbeat, survivable
            pass

    def _renew_leases(self) -> None:
        with self._state:
            past_deadline = (
                self._deadline is not None
                and time.monotonic() > self._deadline
            )
            held = dict(self._held)
        if past_deadline:
            # The wave overran its whole batch budget: stop defending
            # its leases so survivors can steal the cells.
            return
        for digest, state in held.items():
            try:
                inject("coordinator.lease.renew", key=self.worker)
                with self.lock:
                    pid = self.store.put(
                        _lease_doc(
                            self.campaign, digest, self.worker, state["epoch"]
                        )
                    )
                    stale = None
                    with self._state:
                        current = self._held.get(digest)
                        if current is None or current["anchor"] != state["anchor"]:
                            stale = pid  # released while we renewed
                        else:
                            stale, current["renewal"] = current["renewal"], pid
                    if stale is not None:
                        _delete_markers(self.store, [stale])
            except Exception:  # noqa: BLE001 - dropped renewal, survivable
                continue


def _delete_markers(store: Any, ids: list[str]) -> None:
    """Best-effort deletion of heartbeat/lease documents by store id."""
    delete = getattr(store, "delete", None)
    if delete is None:
        return
    for pid in ids:
        try:
            delete(pid)
        except Exception:  # noqa: BLE001 - already gone / read-only store
            pass


def _expire_stale_markers(store: Any, ttl: float) -> None:
    """Best-effort server-side expiry of superseded marker documents."""
    expire = getattr(store, "expire_markers", None)
    if expire is None:
        return
    try:
        expire(MEMBER_COMMAND, ttl * STALE_MARKER_FACTOR)
        expire(LEASE_COMMAND, ttl * STALE_MARKER_FACTOR)
    except Exception:  # noqa: BLE001 - cleanup must never fail a wave
        pass


def _gc_dead_markers(
    store: Any, name: str, ttl: float, now: float,
    horizon: float | None = None,
) -> None:
    """Best-effort deletion of marker docs no survivor will ever need.

    Hard-killed workers leave their last heartbeat and lease documents
    behind forever; once those age past the stale horizon (several
    TTLs — long dead, long since stolen from) they are pure garbage
    that every membership/lease scan would re-parse.  Live documents
    are renewed every TTL/3, so nothing fresh is ever touched.  A
    still-held lease's *anchor* document can age past the horizon on a
    very long wave; deleting it merely shifts the owner's same-epoch
    tie-break stamp to its newest renewal, which matters only during
    acquisition races, never after a lease is won.

    ``horizon`` overrides the default several-TTL staleness bound; the
    fleet parent sweeps with ``horizon=ttl`` after every child has
    exited, when anything older than one TTL is dead by definition
    (live documents — a still-attached ``--join`` worker's — are
    renewed every TTL/3 and stay fresher than that).
    """
    if horizon is None:
        horizon = ttl * STALE_MARKER_FACTOR
    try:
        doomed = [
            entry.id
            for command in (MEMBER_COMMAND, LEASE_COMMAND)
            for entry in store.entries(command, tags=[f"campaign={name}"])
            if now - entry.created > horizon
        ]
    except Exception:  # noqa: BLE001 - GC must never fail a wave
        return
    _delete_markers(store, doomed)


def _gc_worker_markers(store: Any, name: str, workers: list[str]) -> None:
    """Best-effort deletion of the named workers' marker documents."""
    targets = set(workers)
    try:
        doomed = [
            entry.id
            for command, key in (
                (MEMBER_COMMAND, "member"), (LEASE_COMMAND, "owner"),
            )
            for entry in store.entries(command, tags=[f"campaign={name}"])
            if _tag_value(entry.tags, key) in targets
        ]
    except Exception:  # noqa: BLE001 - cleanup must never fail the fleet
        return
    _delete_markers(store, doomed)


def elastic_worker(
    spec: CampaignSpec | Mapping[str, Any],
    store: Any,
    worker: str | None = None,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    batch: int = DEFAULT_CHECKPOINT,
    processes: int | None = None,
    service: RunService | None = None,
    limit: int | None = None,
    progress: Any = None,
    stop: Callable[[], bool] | None = None,
) -> CampaignReport:
    """Run one elastic worker against a campaign's shared store ledger.

    The worker joins the campaign's membership (heartbeat + background
    renewal), then pulls **leased batches** of pending cells until the
    ledger is complete: free cells are leased outright, cells whose
    lease has gone stale — owner crashed, hung past its batch budget,
    or drained away — are stolen at a bumped epoch.  Each wave is
    executed through the run service and persisted before its leases
    are released, so an interruption loses at most one wave of work and
    any number of workers can run this function concurrently against
    the same store (locally or from different hosts).

    ``stop`` drains gracefully: the in-flight wave finishes and
    persists, held leases are released and the membership deregisters —
    survivors steal the remainder immediately instead of waiting out
    ``lease_ttl``.  ``limit`` caps the cells executed by *this* worker.

    Returns the familiar :class:`CampaignReport`; ``remaining`` counts
    sweep-wide missing cells, so a worker that drained early (or
    deferred cells to live rivals) reports ``complete=False`` while the
    fleet as a whole still converges.
    """
    if not isinstance(spec, CampaignSpec):
        spec = CampaignSpec.from_dict(spec)
    if worker is None:
        worker = _new_owner()
    if any(c in worker for c in "=,\n"):
        raise ConfigError(
            f"worker name {worker!r} must be free of '=', ',' and newlines"
        )
    if lease_ttl <= 0:
        raise ConfigError("lease_ttl must be positive")
    svc = service if service is not None else get_service()
    bus = get_bus()
    registry = get_registry()
    name = spec.name
    cells = {cell.digest: cell for cell in spec.cells()}
    lock = threading.Lock()

    def locked_op(what: str, fn: Callable[[], Any]) -> Any:
        with lock:
            return _store_op(what, fn, worker)

    done_at_start = locked_op(
        "completed_cells", lambda: completed_cells(store, name)
    )
    skipped = len(set(cells) & done_at_start)

    executed = 0
    deferred = 0
    stolen = 0
    truncated = False
    interrupted = False
    failures: list[dict[str, str]] = []
    start = time.perf_counter()
    step = max(1, batch)

    heartbeat = _Heartbeat(store, lock, name, worker, lease_ttl)
    with span(
        "campaign.run", level="info", campaign=name, total=len(cells),
        skipped=skipped, owner=worker, elastic=True,
    ) as campaign_span:
        heartbeat.register()
        heartbeat.start()
        # Under the lock like every store call from here on: the beat
        # thread is already writing to the same (thread-unsafe) store.
        with lock:
            members = live_members(store, name, lease_ttl)
        registry.set_gauge("coordinator.members", float(len(members)))
        bus.event(
            "campaign.member.join", campaign=name, member=worker,
            members=sorted(members), lease_ttl=lease_ttl,
        )
        bus.event(
            "campaign.start", campaign=name, total=len(cells),
            skipped=skipped, assigned=0, waves=0, owner=worker,
        )
        wave_no = 0
        try:
            while True:
                if stop is not None and stop():
                    interrupted = True
                    bus.event(
                        "campaign.interrupted", level="warning", campaign=name,
                        wave=wave_no, executed=executed, member=worker,
                    )
                    break
                if limit is not None and executed >= limit:
                    truncated = True
                    break
                done = locked_op(
                    "completed_cells", lambda: completed_cells(store, name)
                )
                pending = [
                    digest for digest in cells if digest not in done
                ]
                if not pending:
                    break
                failed_here = {failure["cell"] for failure in failures}
                workable = [d for d in pending if d not in failed_here]
                if not workable:
                    break  # everything left already failed here; give up
                now = time.time()
                with lock:
                    _expire_stale_markers(store, lease_ttl)
                    members = live_members(store, name, lease_ttl, now)
                    leases = _store_op(
                        "lease.scan", lambda: lease_records(store, name), worker
                    )
                registry.set_gauge("coordinator.members", float(len(members)))
                # Deal this wave: free cells first, then stale leases to
                # steal.  Cells under a live rival's lease are deferred.
                step_now = step
                if limit is not None:
                    step_now = min(step, limit - executed)
                to_acquire: list[tuple[str, int]] = []
                to_steal: list[tuple[str, int, LeaseState]] = []
                blocked = 0
                for digest in workable:
                    if len(to_acquire) + len(to_steal) >= step_now:
                        break
                    state = resolve_lease(
                        leases.get(digest, []), now, lease_ttl, members
                    )
                    if state is None:
                        to_acquire.append((digest, 1))
                    elif state.alive and state.owner != worker:
                        blocked += 1
                    elif state.alive and state.owner == worker:
                        # A leftover of our own (failed release): renew
                        # in place at the same epoch.
                        to_acquire.append((digest, state.epoch))
                    else:
                        to_steal.append((digest, state.epoch + 1, state))
                if not to_acquire and not to_steal:
                    if blocked and (set(members) - {worker}):
                        # Live rivals hold everything pending: wait for
                        # leases to resolve rather than busy-scanning.
                        if _wait(stop, _poll_interval(lease_ttl)):
                            continue
                        interrupted = True
                        break
                    if not blocked:
                        # Nothing acquirable and nobody live holds the
                        # pending cells (all remaining failed here).
                        break
                    # Leases look alive but their owners are gone — the
                    # records will age past the TTL; rescan shortly.
                    if _wait(stop, _poll_interval(lease_ttl)):
                        continue
                    interrupted = True
                    break
                wanted = list(to_acquire)
                stolen_now = 0
                for digest, epoch, state in to_steal:
                    try:
                        # An injected fault here is a failed takeover
                        # (store rejected the steal write): the cell
                        # stays deferred this wave and is re-examined
                        # on the next scan.
                        inject("coordinator.steal", key=digest)
                    except Exception:  # noqa: BLE001 - injected steal failure
                        deferred += 1
                        continue
                    age = now - state.renewed
                    registry.inc("coordinator.steals")
                    registry.observe("coordinator.lease.age.seconds", age)
                    bus.event(
                        "campaign.member.steal", level="warning",
                        campaign=name, member=worker, cell=digest,
                        from_owner=state.owner, epoch=epoch, lease_age=age,
                    )
                    wanted.append((digest, epoch))
                    stolen_now += 1
                stolen += stolen_now
                if not wanted:
                    if _wait(stop, _poll_interval(lease_ttl)):
                        continue
                    interrupted = True
                    break
                docs = [
                    _lease_doc(name, digest, worker, epoch)
                    for digest, epoch in wanted
                ]
                anchor_ids = locked_op(
                    "lease.put", lambda: list(store.put_many(docs))
                )
                anchors = {
                    digest: (epoch, anchor)
                    for (digest, epoch), anchor in zip(wanted, anchor_ids)
                }
                # Confirm: re-read and keep only the cells we actually
                # won — a racing rival acquiring/stealing the same cell
                # resolves deterministically for everyone.
                with lock:
                    confirm = _store_op(
                        "lease.confirm", lambda: lease_records(store, name),
                        worker,
                    )
                now = time.time()
                won: dict[str, tuple[int, str]] = {}
                lost_ids: list[str] = []
                for digest, (epoch, anchor) in anchors.items():
                    state = resolve_lease(
                        confirm.get(digest, []), now, lease_ttl, {worker: now}
                    )
                    if (
                        state is not None
                        and state.owner == worker
                        and state.epoch == epoch
                    ):
                        won[digest] = (epoch, anchor)
                    else:
                        deferred += 1
                        lost_ids.append(anchor)
                if lost_ids:
                    with lock:
                        _delete_markers(store, lost_ids)
                if not won:
                    continue
                wave_no += 1
                wave_cells = [cells[digest] for digest in won]
                registry.inc("coordinator.waves")
                with span(
                    "campaign.wave", level="info", campaign=name,
                    wave=wave_no, cells=len(wave_cells), member=worker,
                    stolen=stolen_now,
                ) as wave_span:
                    try:
                        wave_executed, wave_failures = _execute_wave(
                            wave_cells, store, svc, processes, worker,
                            guard=lock,
                            hold=lambda requests: heartbeat.hold(
                                won, batch_budget(requests)
                            ),
                        )
                    finally:
                        with lock:
                            _delete_markers(store, heartbeat.release())
                    wave_span.set(
                        executed=wave_executed, failed=len(wave_failures)
                    )
                executed += wave_executed
                failures.extend(wave_failures)
                with lock:
                    _gc_dead_markers(store, name, lease_ttl, time.time())
                summary = {
                    "campaign": name,
                    "member": worker,
                    "wave": wave_no,
                    "waves": wave_no,
                    "total": len(cells),
                    "cells": len(wave_cells),
                    "executed": wave_executed,
                    "failed": len(wave_failures),
                    "deferred": deferred,
                    "stolen": stolen_now,
                    "completed": skipped + executed,
                    "pending": len(pending) - wave_executed,
                    "elapsed": time.perf_counter() - start,
                }
                bus.event("campaign.wave.finish", **summary)
                if progress is not None:
                    progress(dict(summary))
        finally:
            with lock:
                _delete_markers(store, heartbeat.deregister())
            bus.event(
                "campaign.member.leave", campaign=name, member=worker,
                executed=executed, stolen=stolen, interrupted=interrupted,
            )
        campaign_span.set(
            executed=executed, failed=len(failures), deferred=deferred,
            stolen=stolen, interrupted=interrupted,
        )
        bus.event(
            "campaign.finish", campaign=name, executed=executed,
            failed=len(failures), deferred=deferred, interrupted=interrupted,
            seconds=time.perf_counter() - start,
        )

    final_done = locked_op(
        "completed_cells", lambda: completed_cells(store, name)
    )
    remaining_failures = [
        failure for failure in failures if failure["cell"] not in final_done
    ]
    return CampaignReport(
        name=name,
        total=len(cells),
        # ``skipped`` counts everything completed by someone else — at
        # start or by rivals while we ran — so ``remaining`` reflects
        # the sweep-wide ledger state.
        skipped=len(set(cells) & final_done) - executed,
        executed=executed,
        failed=remaining_failures,
        seconds=time.perf_counter() - start,
        truncated=truncated,
        assigned=executed,
        deferred=deferred,
        interrupted=interrupted,
    )


def _wait(stop: Callable[[], bool] | None, seconds: float) -> bool:
    """Sleep in small stop-aware slices; False when asked to stop."""
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        if stop is not None and stop():
            return False
        time.sleep(min(0.02, seconds))
    return True


# -- local fleets -------------------------------------------------------------


def _fleet_child(
    spec_data: dict[str, Any],
    store_url: str,
    worker: str,
    lease_ttl: float,
    batch: int,
    queue: Any,
) -> None:
    """Entry point of one fleet worker process."""
    import signal  # noqa: PLC0415 - child-only setup

    from repro.storage import open_store  # noqa: PLC0415 - child-only

    stop_flag = {"stop": False}

    def _drain(signum, frame) -> None:  # noqa: ARG001 - signal signature
        stop_flag["stop"] = True

    signal.signal(signal.SIGTERM, _drain)
    signal.signal(signal.SIGINT, _drain)
    store = open_store(store_url)
    report = elastic_worker(
        CampaignSpec.from_dict(spec_data),
        store,
        worker=worker,
        lease_ttl=lease_ttl,
        batch=batch,
        processes=1,  # serial inside the child; the fleet is the pool
        stop=lambda: stop_flag["stop"],
    )
    try:
        queue.put(report.to_dict())
    except Exception:  # noqa: BLE001 - parent may be gone
        pass


def run_elastic(
    spec: CampaignSpec | Mapping[str, Any],
    store_url: str,
    workers: int = 3,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    batch: int = DEFAULT_CHECKPOINT,
    stop: Callable[[], bool] | None = None,
) -> CampaignReport:
    """Spawn a local fleet of elastic workers and converge the campaign.

    Each worker is a separate OS process with its own store handle (the
    fleet shares state only through the store, exactly like a
    multi-host deployment) executing cells serially — the fleet *is*
    the pool.  Workers inherit the active fault plan through
    ``REPRO_FAULTS``, so chaos rules with cross-process ``fuse`` files
    can kill exactly one of them mid-wave; survivors steal the dead
    worker's leases and the campaign still converges.  A worker can be
    attached to the same campaign later (another ``run_elastic``, a
    ``--join`` CLI invocation, a different host) — late joiners simply
    become members and start pulling.

    ``stop`` drains the whole fleet: children receive SIGTERM, finish
    their in-flight wave, release leases and deregister.  The report
    aggregates the fleet run from the ledger itself (a crashed child
    reports nothing — the ledger is the truth).
    """
    import multiprocessing  # noqa: PLC0415 - fleet-only dependency

    if not isinstance(spec, CampaignSpec):
        spec = CampaignSpec.from_dict(spec)
    if workers < 1:
        raise ConfigError("run_elastic needs at least one worker")
    if store_url in ("memory://", "mongo://"):
        raise ConfigError(
            f"a fleet shares state only through the store; {store_url!r} is "
            "process-private — use a file:// or persistent mongo:// store"
        )
    from repro.storage import open_store  # noqa: PLC0415 (cycle)

    store = open_store(store_url)
    cells = {cell.digest for cell in spec.cells()}
    done_before = completed_cells(store, spec.name) & cells
    start = time.perf_counter()

    ctx = multiprocessing.get_context("spawn")
    queue = ctx.Queue()
    token = secrets.token_hex(2)
    names = [f"w{index}-{token}" for index in range(workers)]
    children = [
        ctx.Process(
            target=_fleet_child,
            args=(
                spec_to_dict(spec), store_url, name,
                lease_ttl, batch, queue,
            ),
            daemon=False,
        )
        for name in names
    ]
    for child in children:
        child.start()
    get_bus().event(
        "campaign.fleet.start", campaign=spec.name, workers=workers,
        lease_ttl=lease_ttl,
    )
    interrupted = False
    try:
        while any(child.is_alive() for child in children):
            if stop is not None and stop() and not interrupted:
                interrupted = True
                for child in children:
                    if child.is_alive():
                        child.terminate()  # SIGTERM -> graceful drain
            for child in children:
                child.join(timeout=0.05)
    finally:
        for child in children:
            if child.is_alive():
                child.terminate()
                child.join(timeout=5.0)

    reports: list[dict[str, Any]] = []
    try:
        while True:
            reports.append(queue.get_nowait())
    except Exception:  # noqa: BLE001 - queue drained (or a child died)
        pass
    crashed = sum(1 for child in children if child.exitcode not in (0, None))
    # Crashed children leak their last heartbeat/lease documents.  All
    # children have exited, so every marker naming one of *our* workers
    # is certainly dead — sweep them (plus anything older than one TTL)
    # so a chaos-heavy fleet leaves the store as clean as a calm one.
    # A still-attached foreign ``--join`` worker's fresh documents are
    # untouched.
    _gc_worker_markers(store, spec.name, names)
    _gc_dead_markers(store, spec.name, lease_ttl, time.time(), horizon=lease_ttl)
    done_after = completed_cells(store, spec.name) & cells
    executed = len(done_after - done_before)
    failures: list[dict[str, str]] = []
    seen_failed: set[str] = set()
    for report in reports:
        for failure in report.get("failed", ()):
            cell = failure.get("cell")
            if cell in done_after or cell in seen_failed:
                continue
            seen_failed.add(cell)
            failures.append(failure)
    interrupted = interrupted or any(
        report.get("interrupted") for report in reports
    )
    get_bus().event(
        "campaign.fleet.finish", campaign=spec.name, workers=workers,
        crashed=crashed, executed=executed, failed=len(failures),
        interrupted=interrupted, seconds=time.perf_counter() - start,
    )
    return CampaignReport(
        name=spec.name,
        total=len(cells),
        skipped=len(done_before),
        executed=executed,
        failed=failures,
        seconds=time.perf_counter() - start,
        assigned=executed,
        deferred=sum(int(report.get("deferred", 0)) for report in reports),
        interrupted=interrupted,
    )


def spec_to_dict(spec: CampaignSpec) -> dict[str, Any]:
    """Serialise a spec back to its JSON form (fleet child handoff)."""
    data: dict[str, Any] = {
        "name": spec.name,
        "kind": spec.kind,
        "apps": list(spec.apps),
        "machines": list(spec.machines),
        "seeds": list(spec.seeds),
        "repeats": spec.repeats,
        "noisy": spec.noisy,
        "config": dict(spec.config),
        "tags": dict(spec.tags),
    }
    if spec.policy is not None:
        data["policy"] = {
            "retries": spec.policy.retries,
            "timeout": spec.policy.timeout,
            "backoff": spec.policy.backoff,
            "jitter": spec.policy.jitter,
        }
    return data
