"""EE-FEI: energy-efficient federated edge intelligence for IoT networks.

Reproduction of Wang et al., "Towards Energy-efficient Federated Edge
Intelligence for IoT Networks", ICDCS 2021.

Public API highlights:

* :class:`RunSpec` — the unified run configuration: dataset/testbed
  sizes, ``(K, E)``, budgets, execution backend, fault plan and
  resilience policy in one validated, JSON-round-trippable object.
* :class:`CampaignSpec` / :class:`CampaignRunner` /
  :class:`ArtifactStore` / :class:`CampaignReport` — declare a sweep
  over K/E/seed/backend/fault axes, execute it with checkpoint/resume,
  and regenerate the Fig. 5/6 grids from stored artifacts
  (:mod:`repro.campaign`).
* :class:`CampaignRepository` / :func:`open_store` — the campaign
  storage API: one store with a SQLite index, typed
  :class:`StoreHealthReport` integrity results, and
  :func:`~repro.campaign.repository.migrate_store`, the one-way import
  of a legacy ``manifest.json`` store (:mod:`repro.campaign.repository`).
* :class:`repro.core.EnergyPlanner` — calibrated constants in, optimal
  integer ``(K, E, T)`` schedule out (the paper's contribution).
* :mod:`repro.fl` — FedAvg substrate (model, clients, coordinator, loop).
* :mod:`repro.data` — synthetic-MNIST dataset substrate.
* :mod:`repro.hardware` — simulated Raspberry-Pi prototype + power meter.
* :mod:`repro.iot` — IoT data-collection uplinks; :mod:`repro.net` —
  the edge link's transfer-time law and model message sizes.
* :mod:`repro.experiments` — regenerates every table/figure of §VI.
* :mod:`repro.obs` — structured events, metrics and tracing;
  attach an :class:`~repro.obs.Observer` to any execution layer.

Deprecated (still importable from here, with a ``DeprecationWarning``):
``ExperimentScale``, ``FederatedConfig``, and ``ResilienceConfig`` are
now projections of :class:`RunSpec` — new code should declare a
:class:`RunSpec` and derive them via :meth:`RunSpec.scale` /
:meth:`RunSpec.federated_config` / the ``resilience`` field.  These
top-level aliases will be removed in repro 2.0; the classes themselves
keep working indefinitely at their original homes
(:mod:`repro.experiments.config`, :mod:`repro.fl.training`,
:mod:`repro.faults`).
"""

import warnings

from repro.campaign import (
    ArtifactStore,
    CampaignReport,
    CampaignRepository,
    CampaignRunner,
    CampaignSpec,
    CampaignStatus,
    RunSpec,
    StoreHealthReport,
    campaign_telemetry,
    open_store,
)
from repro.core import (
    ACSSolver,
    ConvergenceBound,
    EnergyObjective,
    EnergyParams,
    EnergyPlan,
    EnergyPlanner,
)
from repro.obs import Observer

__version__ = "1.0.0"

__all__ = [
    "ACSSolver",
    "ArtifactStore",
    "CampaignReport",
    "CampaignRepository",
    "CampaignRunner",
    "CampaignSpec",
    "CampaignStatus",
    "ConvergenceBound",
    "EnergyObjective",
    "EnergyParams",
    "EnergyPlan",
    "EnergyPlanner",
    "Observer",
    "RunSpec",
    "StoreHealthReport",
    "__version__",
    "campaign_telemetry",
    "open_store",
]

# Thin deprecation shims: the pre-RunSpec configuration trio stays
# importable from the top level, but warns and points at the unified
# surface.  The canonical homes (repro.experiments.config,
# repro.fl.training, repro.faults) do not warn.
_DEPRECATED_SHIMS = {
    "ExperimentScale": (
        "repro.experiments.config",
        "declare a repro.RunSpec and use RunSpec.scale()",
    ),
    "FederatedConfig": (
        "repro.fl.training",
        "declare a repro.RunSpec and use RunSpec.federated_config()",
    ),
    "ResilienceConfig": (
        "repro.faults.policies",
        "declare a repro.RunSpec and set its 'resilience' field",
    ),
}


def __getattr__(name: str):
    """Serve deprecated top-level aliases of the legacy config trio."""
    shim = _DEPRECATED_SHIMS.get(name)
    if shim is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module_name, advice = shim
    warnings.warn(
        f"repro.{name} is deprecated and will be removed in repro 2.0; "
        f"{advice} (the class itself remains at {module_name})",
        DeprecationWarning,
        stacklevel=2,
    )
    import importlib

    return getattr(importlib.import_module(module_name), name)
