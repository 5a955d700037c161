"""Process-group drain of a pool-backend campaign.

A terminal's Ctrl-C, a container stop or a batch scheduler's preemption
signals the whole process group at once: the campaign process and its
scheduler workers.  One such SIGTERM must drain the run — no second
signal — and leave a ``verify()``-clean store that resumes to the bytes
of an uninterrupted run.

The signal is fired from inside the run, just before the second round
of the first unit to reach it, through a file latch so it fires exactly
once per run.  The units name the ``pool`` backend, a spelling of the
sequential engine, so stores keyed by it keep draining and resuming.
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.campaign import ArtifactStore, CampaignRunner, CampaignSpec, RunSpec

pytestmark = pytest.mark.chaos_smoke

# Subprocess campaigns import the package from this checkout.
_SRC = str(Path(__file__).resolve().parents[2] / "src")

_DRAIN_TIMEOUT_S = 60

_SCRIPT = textwrap.dedent(
    """
    import json
    import os
    import signal
    import sys

    from repro.campaign import ArtifactStore, CampaignRunner
    from repro.campaign import CampaignSpec, RunSpec
    from repro.fl.training import FederatedTrainer

    store_root, latch, jobs = sys.argv[1], sys.argv[2], int(sys.argv[3])
    real_run_round = FederatedTrainer.run_round

    def run_round(self):
        if self.coordinator.rounds_completed == 1:
            try:
                os.close(os.open(latch, os.O_CREAT | os.O_EXCL))
            except FileExistsError:
                pass
            else:
                os.killpg(0, signal.SIGTERM)
        return real_run_round(self)

    FederatedTrainer.run_round = run_round

    spec = RunSpec(
        name="tiny", n_train=160, n_test=80, n_servers=4,
        participants=2, epochs=2, max_rounds=3,
        train_to_target=False, backend="pool",
    )
    campaign = CampaignSpec(
        name="pool-drain", base=spec, participants=(1, 2), epochs=(1, 2)
    )
    summary = CampaignRunner(campaign, ArtifactStore(store_root)).run(
        jobs=jobs
    )
    print(json.dumps({
        "executed": summary.executed,
        "interrupted": summary.interrupted,
    }))
    """
)


def _campaign(tiny_spec: RunSpec) -> CampaignSpec:
    base = dataclasses.replace(tiny_spec, backend="pool")
    return CampaignSpec(
        name="pool-drain", base=base, participants=(1, 2), epochs=(1, 2)
    )


class TestProcessGroupDrain:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_one_group_sigterm_drains_a_pool_campaign(
        self, tmp_path, tiny_spec: RunSpec, store_digest, jobs: int
    ) -> None:
        store_root = tmp_path / "store"
        latch = tmp_path / "latch"
        script_path = tmp_path / "pool_drain.py"
        script_path.write_text(_SCRIPT)
        env = {**os.environ, "PYTHONPATH": _SRC}
        # Its own session, so the group signal reaches the campaign and
        # its workers and never this test process.
        process = subprocess.Popen(
            [
                sys.executable,
                str(script_path),
                str(store_root),
                str(latch),
                str(jobs),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            stdout, stderr = process.communicate(timeout=_DRAIN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
            pytest.fail(
                f"the campaign did not drain within {_DRAIN_TIMEOUT_S}s "
                "of one process-group SIGTERM"
            )
        assert latch.exists(), "the group signal was never sent"
        assert process.returncode == 0, stderr
        summary = json.loads(stdout.strip().splitlines()[-1])
        assert summary["interrupted"]

        store = ArtifactStore(store_root)
        assert store.verify() == []
        campaign = _campaign(tiny_spec)
        resumed = CampaignRunner(campaign, store).run()
        assert resumed.executed + summary["executed"] == 4
        assert len(store.completed_keys()) == 4

        reference = ArtifactStore(tmp_path / "reference")
        CampaignRunner(campaign, reference).run()
        assert store_digest(store_root) == store_digest(reference.root)
