"""Unsupervised passes fail the same way at every ``--jobs``.

``supervision=None`` gives every unit a single attempt and writes no
failure record.  A failed unit does not stop the pass: the remaining
units still run and are checkpointed, then :class:`ParallelUnitError`
is raised — inline (``jobs=1``) exactly as with worker processes.
"""

from __future__ import annotations

import pytest

from repro.campaign import ArtifactStore, CampaignRunner, CampaignSpec
from repro.campaign.runner import ParallelUnitError

pytestmark = pytest.mark.parallel_smoke


def test_inline_unsupervised_pass_runs_the_rest_then_raises(
    tmp_path, tiny_campaign: CampaignSpec, monkeypatch
) -> None:
    import repro.campaign.runner as runner_module

    real = runner_module.execute_unit

    def sabotaged(spec, datasets=None, observer=None):
        if spec.epochs == 2 and spec.participants == 2:
            raise RuntimeError("sabotaged unit")
        return real(spec, datasets=datasets, observer=observer)

    monkeypatch.setattr(runner_module, "execute_unit", sabotaged)
    store = ArtifactStore(tmp_path / "store")
    with pytest.raises(ParallelUnitError, match="sabotaged") as raised:
        CampaignRunner(tiny_campaign, store).run(jobs=1, supervision=None)
    # The unit's own exception is chained for callers that want it.
    assert isinstance(raised.value.__cause__, RuntimeError)

    assert len(store.completed_keys()) == len(tiny_campaign) - 1
    assert store.quarantined_keys() == set()
    assert not any(
        path.is_file() for path in store.quarantine_dir.rglob("*")
    ), "an unsupervised pass writes no failure record"
    assert store.verify() == []
