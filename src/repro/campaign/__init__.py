"""Campaign orchestration: declare, execute, interrupt, resume sweeps.

The paper's evaluation *is* a campaign — a grid over ``(K, E)``, seeds,
and failure scenarios, trained to a fixed accuracy and priced in joules.
This package makes that a first-class object instead of a pile of
per-figure scripts:

* :class:`~repro.campaign.spec.RunSpec` — the unified public run
  configuration (supersedes the ``ExperimentScale`` +
  ``FederatedConfig`` + ``ResilienceConfig`` trio; those remain as thin
  projections of it).
* :class:`~repro.campaign.spec.CampaignSpec` — a named, JSON-serialisable
  grid over K/E/seed/backend/fault-plan/resilience axes that expands
  into deterministic :class:`RunSpec` units with content-hashed keys.
* :class:`~repro.campaign.runner.CampaignRunner` — executes units on
  fresh testbeds (any :mod:`repro.fl.engine` backend), checkpointing
  each into an :class:`~repro.campaign.store.ArtifactStore`; interrupted
  campaigns resume bit-identically by skipping completed keys.
* :class:`~repro.campaign.repository.CampaignRepository` /
  :func:`~repro.campaign.repository.open_store` — the storage API,
  implemented by one store with a WAL-mode SQLite index;
  :func:`~repro.campaign.repository.migrate_store` imports a store
  whose index is a legacy ``manifest.json`` document.
* :class:`~repro.campaign.report.CampaignReport` — regenerates the
  Fig. 5/6 energy grids and the best-``(K, E)`` headline from stored
  artifacts alone, without re-running any training.

Campaign passes are *supervised* by default: failed units retry with
deterministic backoff, hung workers are reclaimed by a watchdog, broken
process pools are rebuilt, and units that exhaust their budget are
quarantined with durable failure records instead of sinking the sweep.
``repro campaign doctor`` audits (and with ``--repair`` self-heals) a
store that crashed mid-write.

CLI: ``python -m repro campaign {init,run,status,report,doctor,migrate}``.
"""

from repro.campaign.report import CampaignReport, campaign_telemetry, load_rows
from repro.campaign.repository import (
    CampaignRepository,
    MigrationResult,
    migrate_store,
    open_store,
)
from repro.campaign.runner import (
    DEFAULT_SUPERVISION,
    CampaignRunner,
    CampaignRunSummary,
    ParallelUnitError,
    UnitOutcome,
    UnitVerificationError,
)
from repro.campaign.spec import (
    CampaignSpec,
    FaultAxis,
    ResilienceAxis,
    RunSpec,
    make_demo_campaign,
)
from repro.campaign.status import CampaignStatus, CampaignStatusMonitor, UnitStatus
from repro.campaign.store import (
    ArtifactStore,
    DoctorReport,
    StoreError,
    StoreHealthReport,
    UnitArtifact,
)
from repro.perf.scheduler import SupervisionPolicy

__all__ = [
    "ArtifactStore",
    "CampaignReport",
    "CampaignRepository",
    "CampaignRunSummary",
    "CampaignRunner",
    "CampaignSpec",
    "CampaignStatus",
    "CampaignStatusMonitor",
    "DEFAULT_SUPERVISION",
    "DoctorReport",
    "FaultAxis",
    "MigrationResult",
    "ParallelUnitError",
    "ResilienceAxis",
    "RunSpec",
    "StoreError",
    "StoreHealthReport",
    "SupervisionPolicy",
    "UnitArtifact",
    "UnitOutcome",
    "UnitStatus",
    "UnitVerificationError",
    "campaign_telemetry",
    "load_rows",
    "make_demo_campaign",
    "migrate_store",
    "open_store",
]
