"""Campaign determinism goldens: cell digests and noise seeds.

Every cell of a campaign draws its noise from its own identity, so a
ledger is bit-identical however it was filled — one run, a resumed run,
or an elastic fleet (``tests/runtime/test_coordinator.py`` checks the
fleets against this spec).  The digest scheme and the noise-seed
derivation feeding that guarantee are pinned against a committed golden
fixture: a change to either the cell-digest scheme or ``seed_from``
fails these tests instead of silently invalidating every stored ledger.
The fixture's campaign name is hashed into every cell digest, so it
stays as committed.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.runtime import CampaignSpec, ledger, run_campaign
from repro.storage.base import MemoryStore

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = json.loads(
    (FIXTURES / "campaign_seed_golden.json").read_text(encoding="utf-8")
)
SPEC = GOLDEN["spec"]


@pytest.fixture(scope="module")
def reference():
    """One-invocation reference run of the golden spec (shared; read-only)."""
    spec = CampaignSpec.from_dict(SPEC)
    store = MemoryStore()
    report = run_campaign(spec, store)
    assert report.complete
    return spec, store


class TestSeedGoldens:
    """Pin the digest scheme and per-cell noise-seed derivation."""

    def test_digests_match_golden(self):
        cells = {c.digest: c for c in CampaignSpec.from_dict(SPEC).cells()}
        assert len(GOLDEN["cells"]) == len(cells)
        for pin in GOLDEN["cells"]:
            cell = cells.get(pin["digest"])
            assert cell is not None, f"digest {pin['digest']} disappeared"
            assert (cell.app, cell.machine, cell.seed, cell.rep) == (
                pin["app"], pin["machine"], pin["seed"], pin["rep"]
            )

    def test_noise_seeds_match_golden(self):
        """The exact seed each cell's engine noise stream derives from.

        ``seed_from(machine, workload, seed, index)`` is the spawn-slot
        derivation the sim backend and the run service share; the pins
        make any change to it (or to the workload naming it hashes)
        loud.
        """
        from repro.apps.registry import parse_app
        from repro.sim.machines import resolve_machine
        from repro.sim.noise import seed_from

        for pin in GOLDEN["cells"]:
            workload = parse_app(pin["app"]).build_workload(
                resolve_machine(pin["machine"])
            )
            assert workload.name == pin["workload"]
            assert (
                seed_from(pin["machine"], workload.name, pin["seed"], pin["rep"] + 1)
                == pin["noise_seed"]
            )

    def test_executed_profiles_draw_the_pinned_streams(self, reference):
        """End to end: two independent runs of the pinned spec agree on
        every noisy duration, so the goldens really pin the streams the
        ledger stores."""
        spec, ref_store = reference
        store = MemoryStore()
        run_campaign(spec, store)
        reference_entries = ledger(ref_store, spec.name)
        for digest, profile in ledger(store, spec.name).items():
            assert profile.tx == reference_entries[digest].tx
