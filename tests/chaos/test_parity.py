"""One chaos plan, two executors: ``jobs=1`` and ``jobs=4`` must agree.

Every ``--jobs`` value goes through the same supervision loop; only the
executor differs (inline for ``jobs=1``, a process pool above).  So one
saboteur plan must leave the same artifacts, the same attempt counts and
the same failure trails at both.  Hang and kill saboteurs are left out:
an inline unit has no worker process for the watchdog to reclaim.
"""

from __future__ import annotations

import pytest

from repro.campaign import ArtifactStore, CampaignRunner, CampaignSpec
from repro.faults import ChaosPlan, Saboteur
from repro.perf.scheduler import SupervisionPolicy

pytestmark = pytest.mark.chaos_smoke


class TestJobsParity:
    def test_one_plan_gives_the_same_store_at_jobs_1_and_4(
        self,
        tmp_path,
        chaos_campaign: CampaignSpec,
        fast_supervision: SupervisionPolicy,
        store_digest,
    ) -> None:
        plan = ChaosPlan.build(
            {
                "K1-E1-s0": Saboteur(kind="crash", times=1),
                "K1-E2-s0": Saboteur(kind="crash", times=-1),
                "K2-E2-s0": Saboteur(kind="corrupt", times=-1),
            }
        )
        runs = {}
        for jobs in (1, 4):
            store = ArtifactStore(tmp_path / f"jobs{jobs}")
            summary = CampaignRunner(chaos_campaign, store, chaos=plan).run(
                jobs=jobs, supervision=fast_supervision
            )
            keys = [spec.key() for spec in chaos_campaign.expand()]
            runs[jobs] = {
                "digest": store_digest(store.root),
                "attempts": {key: store.attempts_used(key) for key in keys},
                "trails": {
                    key: [
                        (record["attempt"], record["kind"])
                        for record in store.failure_records(key)
                    ]
                    for key in keys
                },
                "counts": (
                    summary.executed,
                    summary.skipped,
                    summary.quarantined,
                    summary.interrupted,
                ),
                "outcome_attempts": [o.attempts for o in summary.outcomes],
                "healthy": store.verify() == [],
            }

        # Five healthy units plus the crash-once one complete; the
        # crash-always and corrupt-always units are quarantined.
        assert runs[1]["counts"] == (6, 0, 2, False)
        assert runs[1]["healthy"]
        assert sum(runs[1]["attempts"].values()) == 1 + 2 * 2
        for field in ("digest", "attempts", "trails", "counts"):
            assert runs[1][field] == runs[4][field], field
        assert runs[1]["outcome_attempts"] == runs[4]["outcome_attempts"]
        assert runs[4]["healthy"]
