"""Declarative run and campaign specifications.

The paper's headline results are *sweeps*: Fig. 5 is a grid over ``K``,
Fig. 6 a grid over ``E``, Table I a grid over ``(E, n_k)``, and the
49.8 % saving is a comparison of two cells of that space.  After PRs 1-3
describing one such cell required stitching together three disjoint
config surfaces (:class:`~repro.experiments.config.ExperimentScale`,
:class:`~repro.fl.training.FederatedConfig`,
:class:`~repro.faults.policies.ResilienceConfig`) plus CLI flags.

This module unifies them:

* :class:`RunSpec` — one frozen, validated, JSON-round-trippable
  dataclass describing a complete testbed run: dataset/testbed sizes,
  ``(K, E)``, round budget and accuracy target, execution backend,
  fault plan and resilience policy, telemetry.  It *projects onto* the
  legacy trio (:meth:`RunSpec.scale`, :meth:`RunSpec.federated_config`,
  the ``resilience`` field) so every existing layer keeps working
  unchanged underneath.
* :class:`CampaignSpec` — a named grid over the axes the evaluations
  sweep (``K``, ``E``, seeds, backends, fault plans, resilience
  policies) that expands deterministically into :class:`RunSpec` units.

Both carry content-hashed keys (:meth:`RunSpec.key`,
:meth:`CampaignSpec.key`): the SHA-256 of the canonical JSON form.  The
key is the unit's identity in the on-disk artifact store, which is what
makes interrupted campaigns resumable — a completed unit is recognised
by its key and skipped, and because every unit is executed on a fresh,
independently-seeded testbed, the skip is bit-exact.  Result-neutral
execution knobs (``telemetry``, ``pool_workers``) are excluded from the
hash: they cannot change what a run computes, so toggling them on a
finished campaign must not invalidate its completed units.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.experiments.config import ExperimentScale
from repro.faults.models import FaultPlan
from repro.faults.policies import ResilienceConfig
from repro.fl.engine import AUTO_BACKEND, BACKENDS
from repro.fl.training import FederatedConfig

__all__ = [
    "RunSpec",
    "CampaignSpec",
    "FaultAxis",
    "ResilienceAxis",
    "make_demo_campaign",
]

_RUN_SCHEMA = "repro.run-spec/1"
_CAMPAIGN_SCHEMA = "repro.campaign-spec/1"

# Execution knobs that cannot change what a run computes (telemetry only
# records, pool_workers only partitions bit-identical work) and are
# therefore excluded from content keys: toggling them on a finished
# campaign must not force a retrain of already-computed cells.
_KEY_NEUTRAL_FIELDS = ("telemetry", "pool_workers")

# Fields added after schema v1 shipped.  At their defaults they describe
# exactly what the field's absence used to describe, so they are dropped
# from the identity projection — otherwise every key minted before the
# field existed would dangle and finished campaigns would retrain from
# scratch.  Non-default values *do* change results and enter the hash.
_DEFAULTED_IDENTITY_FIELDS = (("tiers", 0), ("population_dtype", "float64"))


def _canonical_json(data: dict) -> str:
    """Canonical JSON form: sorted keys, no whitespace."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _content_key(data: dict) -> str:
    """Content hash of a spec document (16 hex chars of SHA-256)."""
    return hashlib.sha256(_canonical_json(data).encode("utf-8")).hexdigest()[
        :16
    ]


@dataclass(frozen=True)
class RunSpec:
    """One complete, self-describing testbed run.

    This is the unified public configuration surface: everything the old
    ``ExperimentScale`` + ``FederatedConfig`` + ``ResilienceConfig``
    trio expressed (plus the backend/telemetry knobs that previously
    lived on CLI flags) in a single composable, serialisable object.

    Attributes:
        name: label used in campaign manifests and reports.
        n_train / n_test: synthetic-MNIST sizes.
        n_servers: testbed size ``N``.
        participants: the paper's ``K`` (edge servers per round).
        epochs: the paper's ``E`` (local epochs per round).
        max_rounds: round budget ``T_max``.
        target_accuracy: the accuracy level accuracy-driven runs train
            to (Figs. 5-6 use 92 % at paper scale).
        train_to_target: when ``True`` the run stops at
            ``target_accuracy``; when ``False`` it executes exactly
            ``max_rounds`` rounds (fixed-budget mode, used by the
            deterministic campaign tests).
        l2: L2 strength supplying the bound's strong convexity
            (see :class:`~repro.experiments.config.ExperimentScale`).
        seed: base seed for every derived random stream.
        noise_std: synthetic-MNIST pixel-noise level.
        dropout_probability / proximal_mu / overselection: forwarded to
            :class:`~repro.fl.training.FederatedConfig`.
        backend: execution engine (``sequential`` / ``batched`` /
            ``pool`` / ``population``, or ``auto`` for data-driven
            selection; see :mod:`repro.fl.engine`).
        pool_workers: worker count for the ``pool`` backend.
        tiers: fog aggregation tiers between edge and cloud; ``0``
            keeps the paper's flat (single-hop) aggregation.  Tiered
            folds match the flat mean to ``~1e-12``, not bit-for-bit,
            so a non-zero value changes the unit's identity key.
        population_dtype: compute dtype for the ``population`` backend
            (``float64`` default; ``float32`` computes at a documented
            accuracy delta and changes the identity key).
        telemetry: attach an :class:`~repro.obs.Observer` to the run and
            persist its event log next to the run's artifacts.
        fault_plan: optional declarative fault plan injected into the
            run (see :class:`~repro.faults.FaultPlan`).
        resilience: optional recovery policies (see
            :class:`~repro.faults.ResilienceConfig`).
    """

    name: str = "run"
    n_train: int = 2_000
    n_test: int = 600
    n_servers: int = 20
    participants: int = 1
    epochs: int = 1
    max_rounds: int = 150
    target_accuracy: float = 0.82
    train_to_target: bool = True
    l2: float = 1e-3
    seed: int = 0
    noise_std: float = 0.25
    dropout_probability: float = 0.0
    proximal_mu: float = 0.0
    overselection: int = 0
    backend: str = "sequential"
    pool_workers: int = 2
    tiers: int = 0
    population_dtype: str = "float64"
    telemetry: bool = False
    fault_plan: FaultPlan | None = None
    resilience: ResilienceConfig | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("name must be non-empty")
        if self.participants < 1:
            raise ValueError(
                f"participants must be >= 1; got {self.participants}"
            )
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1; got {self.epochs}")
        if self.participants + self.overselection > self.n_servers:
            raise ValueError(
                f"participants + overselection = "
                f"{self.participants + self.overselection} exceeds "
                f"n_servers = {self.n_servers}"
            )
        if self.noise_std < 0:
            raise ValueError(
                f"noise_std must be non-negative; got {self.noise_std}"
            )
        if self.backend not in BACKENDS and self.backend != AUTO_BACKEND:
            raise ValueError(
                f"backend must be one of {BACKENDS} or {AUTO_BACKEND!r}; "
                f"got {self.backend!r}"
            )
        if self.tiers < 0:
            raise ValueError(f"tiers must be >= 0; got {self.tiers}")
        # Delegate the remaining range checks to the legacy constructors
        # so RunSpec can never describe a run they would reject.
        self.scale()
        self.federated_config()

    # ------------------------------------------------------------------
    # Projections onto the legacy configuration trio.
    # ------------------------------------------------------------------
    def scale(self) -> ExperimentScale:
        """The :class:`ExperimentScale` slice of this spec."""
        return ExperimentScale(
            name=self.name,
            n_train=self.n_train,
            n_test=self.n_test,
            n_servers=self.n_servers,
            max_rounds=self.max_rounds,
            target_accuracy=self.target_accuracy,
            l2=self.l2,
            seed=self.seed,
        )

    def federated_config(self) -> FederatedConfig:
        """The :class:`FederatedConfig` slice of this spec."""
        scale = self.scale()
        return FederatedConfig(
            n_rounds=self.max_rounds,
            participants_per_round=self.participants,
            local_epochs=self.epochs,
            sgd=scale.sgd_config(),
            target_accuracy=(
                self.target_accuracy if self.train_to_target else None
            ),
            dropout_probability=self.dropout_probability,
            proximal_mu=self.proximal_mu,
            overselection=self.overselection,
            seed=self.seed,
            backend=self.backend,
            pool_workers=self.pool_workers,
            population_dtype=self.population_dtype,
        )

    @classmethod
    def from_components(
        cls,
        scale: ExperimentScale,
        federated: FederatedConfig | None = None,
        resilience: ResilienceConfig | None = None,
        fault_plan: FaultPlan | None = None,
        **overrides,
    ) -> "RunSpec":
        """Assemble a spec from the legacy config trio.

        This is the migration path for code holding the old objects:
        the scale contributes sizes/seed/target, an optional federated
        config contributes ``(K, E)`` and the training knobs, and the
        fault/resilience objects ride along unchanged.  Keyword
        ``overrides`` win over every derived field.
        """
        fields: dict = {
            "name": scale.name,
            "n_train": scale.n_train,
            "n_test": scale.n_test,
            "n_servers": scale.n_servers,
            "max_rounds": scale.max_rounds,
            "target_accuracy": scale.target_accuracy,
            "l2": scale.l2,
            "seed": scale.seed,
            "fault_plan": fault_plan,
            "resilience": resilience,
        }
        if federated is not None:
            fields.update(
                participants=federated.participants_per_round,
                epochs=federated.local_epochs,
                max_rounds=federated.n_rounds,
                train_to_target=federated.target_accuracy is not None,
                dropout_probability=federated.dropout_probability,
                proximal_mu=federated.proximal_mu,
                overselection=federated.overselection,
                seed=federated.seed,
                backend=federated.backend,
                pool_workers=federated.pool_workers,
                population_dtype=federated.population_dtype,
            )
            if federated.target_accuracy is not None:
                fields["target_accuracy"] = federated.target_accuracy
        fields.update(overrides)
        return cls(**fields)

    # ------------------------------------------------------------------
    # Serialisation and identity.
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-type dict form; inverse of :meth:`from_dict`."""
        return {
            "schema": _RUN_SCHEMA,
            "name": str(self.name),
            "n_train": int(self.n_train),
            "n_test": int(self.n_test),
            "n_servers": int(self.n_servers),
            "participants": int(self.participants),
            "epochs": int(self.epochs),
            "max_rounds": int(self.max_rounds),
            "target_accuracy": float(self.target_accuracy),
            "train_to_target": bool(self.train_to_target),
            "l2": float(self.l2),
            "seed": int(self.seed),
            "noise_std": float(self.noise_std),
            "dropout_probability": float(self.dropout_probability),
            "proximal_mu": float(self.proximal_mu),
            "overselection": int(self.overselection),
            "backend": str(self.backend),
            "pool_workers": int(self.pool_workers),
            "tiers": int(self.tiers),
            "population_dtype": str(self.population_dtype),
            "telemetry": bool(self.telemetry),
            "fault_plan": (
                None if self.fault_plan is None else self.fault_plan.to_dict()
            ),
            "resilience": (
                None if self.resilience is None else self.resilience.to_dict()
            ),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunSpec":
        """Rebuild a spec from :meth:`to_dict` output."""
        if not isinstance(data, dict):
            raise ValueError(f"run spec must be a dict; got {type(data)}")
        schema = data.get("schema", _RUN_SCHEMA)
        if schema != _RUN_SCHEMA:
            raise ValueError(
                f"unexpected run-spec schema {schema!r}; "
                f"expected {_RUN_SCHEMA!r}"
            )
        try:
            return cls(
                name=str(data["name"]),
                n_train=int(data["n_train"]),
                n_test=int(data["n_test"]),
                n_servers=int(data["n_servers"]),
                participants=int(data["participants"]),
                epochs=int(data["epochs"]),
                max_rounds=int(data["max_rounds"]),
                target_accuracy=float(data["target_accuracy"]),
                train_to_target=bool(data["train_to_target"]),
                l2=float(data["l2"]),
                seed=int(data["seed"]),
                noise_std=float(data["noise_std"]),
                dropout_probability=float(data["dropout_probability"]),
                proximal_mu=float(data["proximal_mu"]),
                overselection=int(data["overselection"]),
                backend=str(data["backend"]),
                pool_workers=int(data["pool_workers"]),
                # Post-v1 fields: absent in documents written before
                # they existed, where absence means the default.
                tiers=int(data.get("tiers", 0)),
                population_dtype=str(
                    data.get("population_dtype", "float64")
                ),
                telemetry=bool(data["telemetry"]),
                fault_plan=(
                    None
                    if data["fault_plan"] is None
                    else FaultPlan.from_dict(data["fault_plan"])
                ),
                resilience=(
                    None
                    if data["resilience"] is None
                    else ResilienceConfig.from_dict(data["resilience"])
                ),
            )
        except (KeyError, TypeError) as error:
            raise ValueError(f"malformed run spec: {error}") from None

    def to_json(self, indent: int | None = None) -> str:
        """JSON form; inverse of :meth:`from_json`."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "RunSpec":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(text))

    def identity_dict(self) -> dict:
        """:meth:`to_dict` minus the result-neutral execution knobs.

        This is the projection the content hash covers: every field that
        can change what the run computes, and nothing that merely
        changes how it is executed or observed (``telemetry``,
        ``pool_workers``).  Post-v1 fields (``tiers``,
        ``population_dtype``) are dropped at their default values so
        keys minted before those fields existed keep resolving; away
        from the defaults they change results and enter the hash.
        """
        doc = self.to_dict()
        for field_name in _KEY_NEUTRAL_FIELDS:
            del doc[field_name]
        for field_name, default in _DEFAULTED_IDENTITY_FIELDS:
            if doc[field_name] == default:
                del doc[field_name]
        return doc

    def key(self) -> str:
        """Deterministic content hash identifying this unit.

        Two specs with equal field values always share a key regardless
        of construction order or process; any semantic change (a
        different seed, backend, fault plan, ...) changes it, while
        result-neutral knobs (``telemetry``, ``pool_workers``) do not —
        so enabling telemetry on a finished campaign never forces a
        retrain.  The artifact store uses the key as the unit's
        directory name and the resume logic as its completed-work
        identity.
        """
        return _content_key(self.identity_dict())


@dataclass(frozen=True)
class FaultAxis:
    """One labelled point on a campaign's fault-plan axis."""

    label: str
    plan: FaultPlan | None = None

    def __post_init__(self) -> None:
        if not self.label:
            raise ValueError("fault-axis label must be non-empty")

    def to_dict(self) -> dict:
        """Plain-type dict form; inverse of :meth:`from_dict`."""
        return {
            "label": self.label,
            "plan": None if self.plan is None else self.plan.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultAxis":
        """Rebuild an axis point from :meth:`to_dict` output."""
        try:
            plan = data["plan"]
            return cls(
                label=str(data["label"]),
                plan=None if plan is None else FaultPlan.from_dict(plan),
            )
        except (KeyError, TypeError) as error:
            raise ValueError(f"malformed fault axis: {error}") from None


@dataclass(frozen=True)
class ResilienceAxis:
    """One labelled point on a campaign's resilience axis."""

    label: str
    config: ResilienceConfig | None = None

    def __post_init__(self) -> None:
        if not self.label:
            raise ValueError("resilience-axis label must be non-empty")

    def to_dict(self) -> dict:
        """Plain-type dict form; inverse of :meth:`from_dict`."""
        return {
            "label": self.label,
            "config": (
                None if self.config is None else self.config.to_dict()
            ),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ResilienceAxis":
        """Rebuild an axis point from :meth:`to_dict` output."""
        try:
            config = data["config"]
            return cls(
                label=str(data["label"]),
                config=(
                    None
                    if config is None
                    else ResilienceConfig.from_dict(config)
                ),
            )
        except (KeyError, TypeError) as error:
            raise ValueError(f"malformed resilience axis: {error}") from None


@dataclass(frozen=True)
class CampaignSpec:
    """A named grid of runs over the axes the paper's evaluations sweep.

    Every axis left empty pins that dimension to the ``base`` spec's
    value, so a ``CampaignSpec`` with all axes empty is a campaign of
    exactly one unit.  :meth:`expand` produces the units in a fixed
    deterministic order (participants, then epochs, then seeds, then
    backends, then fault plans, then resilience policies — row-major),
    which the runner, store, and reports all rely on.

    Attributes:
        name: campaign label (also the prefix of every unit name).
        base: defaults shared by every unit.
        participants: swept ``K`` values (Fig. 5's axis).
        epochs: swept ``E`` values (Fig. 6's axis).
        seeds: swept base seeds (multi-seed replication).
        backends: swept execution engines (``auto`` allowed).
        tiers: swept fog-tier counts (``0`` = flat aggregation).  Unit
            names carry a ``-T{t}`` suffix only for non-zero points, so
            campaigns that never sweep tiers keep their exact pre-tiers
            unit names.
        faults: labelled fault-plan axis (``FaultAxis`` points).
        resiliences: labelled resilience-policy axis.
    """

    name: str
    base: RunSpec = field(default_factory=RunSpec)
    participants: tuple[int, ...] = ()
    epochs: tuple[int, ...] = ()
    seeds: tuple[int, ...] = ()
    backends: tuple[str, ...] = ()
    tiers: tuple[int, ...] = ()
    faults: tuple[FaultAxis, ...] = ()
    resiliences: tuple[ResilienceAxis, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("campaign name must be non-empty")
        # Normalise list inputs (e.g. straight from JSON) to tuples so
        # the spec is hashable and its canonical form is stable.
        for attr in (
            "participants",
            "epochs",
            "seeds",
            "backends",
            "tiers",
            "faults",
            "resiliences",
        ):
            object.__setattr__(self, attr, tuple(getattr(self, attr)))
        for axis_name in (
            "participants",
            "epochs",
            "seeds",
            "backends",
            "tiers",
        ):
            values = getattr(self, axis_name)
            if len(values) != len(set(values)):
                raise ValueError(f"duplicate values on axis {axis_name!r}")
        for axis_name in ("faults", "resiliences"):
            labels = [point.label for point in getattr(self, axis_name)]
            if len(labels) != len(set(labels)):
                raise ValueError(f"duplicate labels on axis {axis_name!r}")
        for backend in self.backends:
            if backend not in BACKENDS and backend != AUTO_BACKEND:
                raise ValueError(
                    f"backend must be one of {BACKENDS} or "
                    f"{AUTO_BACKEND!r}; got {backend!r}"
                )
        # Fail at declaration time, not mid-campaign: every grid cell
        # must be a valid RunSpec.
        for unit in self.expand():
            unit.key()

    def axis_sizes(self) -> dict[str, int]:
        """Effective length of each axis (empty axes count 1)."""
        return {
            "participants": max(1, len(self.participants)),
            "epochs": max(1, len(self.epochs)),
            "seeds": max(1, len(self.seeds)),
            "backends": max(1, len(self.backends)),
            "tiers": max(1, len(self.tiers)),
            "faults": max(1, len(self.faults)),
            "resiliences": max(1, len(self.resiliences)),
        }

    def __len__(self) -> int:
        total = 1
        for size in self.axis_sizes().values():
            total *= size
        return total

    def expand(self) -> tuple[RunSpec, ...]:
        """The campaign's units, in deterministic row-major axis order."""
        k_axis = self.participants or (self.base.participants,)
        e_axis = self.epochs or (self.base.epochs,)
        seed_axis = self.seeds or (self.base.seed,)
        backend_axis = self.backends or (self.base.backend,)
        tier_axis = self.tiers or (self.base.tiers,)
        fault_axis = self.faults or (
            FaultAxis(label="base", plan=self.base.fault_plan),
        )
        res_axis = self.resiliences or (
            ResilienceAxis(label="base", config=self.base.resilience),
        )
        units = []
        for k, e, seed, backend, tier, fault, res in itertools.product(
            k_axis,
            e_axis,
            seed_axis,
            backend_axis,
            tier_axis,
            fault_axis,
            res_axis,
        ):
            # Flat aggregation (tier 0) keeps the historical name form
            # so pre-tiers campaign manifests stay byte-identical.
            tier_tag = f"-T{tier}" if tier else ""
            unit_name = (
                f"{self.name}/K{k}-E{e}-s{seed}-{backend}{tier_tag}"
                f"-f.{fault.label}-r.{res.label}"
            )
            units.append(
                replace(
                    self.base,
                    name=unit_name,
                    participants=k,
                    epochs=e,
                    seed=seed,
                    backend=backend,
                    tiers=tier,
                    fault_plan=fault.plan,
                    resilience=res.config,
                )
            )
        return tuple(units)

    # ------------------------------------------------------------------
    # Serialisation and identity.
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-type dict form; inverse of :meth:`from_dict`."""
        return {
            "schema": _CAMPAIGN_SCHEMA,
            "name": str(self.name),
            "base": self.base.to_dict(),
            "participants": [int(k) for k in self.participants],
            "epochs": [int(e) for e in self.epochs],
            "seeds": [int(s) for s in self.seeds],
            "backends": [str(b) for b in self.backends],
            "tiers": [int(t) for t in self.tiers],
            "faults": [point.to_dict() for point in self.faults],
            "resiliences": [point.to_dict() for point in self.resiliences],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignSpec":
        """Rebuild a campaign from :meth:`to_dict` output."""
        if not isinstance(data, dict):
            raise ValueError(f"campaign spec must be a dict; got {type(data)}")
        schema = data.get("schema", _CAMPAIGN_SCHEMA)
        if schema != _CAMPAIGN_SCHEMA:
            raise ValueError(
                f"unexpected campaign-spec schema {schema!r}; "
                f"expected {_CAMPAIGN_SCHEMA!r}"
            )
        try:
            return cls(
                name=str(data["name"]),
                base=RunSpec.from_dict(data["base"]),
                participants=tuple(int(k) for k in data["participants"]),
                epochs=tuple(int(e) for e in data["epochs"]),
                seeds=tuple(int(s) for s in data["seeds"]),
                backends=tuple(str(b) for b in data["backends"]),
                tiers=tuple(int(t) for t in data.get("tiers", ())),
                faults=tuple(
                    FaultAxis.from_dict(point) for point in data["faults"]
                ),
                resiliences=tuple(
                    ResilienceAxis.from_dict(point)
                    for point in data["resiliences"]
                ),
            )
        except (KeyError, TypeError) as error:
            raise ValueError(f"malformed campaign spec: {error}") from None

    def to_json(self, indent: int | None = None) -> str:
        """JSON form; inverse of :meth:`from_json`."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "CampaignSpec":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(text))

    def save(self, path: str | Path) -> None:
        """Write the campaign spec to a JSON file."""
        Path(path).write_text(self.to_json(indent=2) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "CampaignSpec":
        """Read a campaign spec from a JSON file."""
        return cls.from_json(Path(path).read_text(encoding="utf-8"))

    def key(self) -> str:
        """Deterministic content hash identifying this campaign.

        Like :meth:`RunSpec.key`, the hash covers the identity
        projection of the base spec, so toggling a result-neutral knob
        (``telemetry``, ``pool_workers``) on a finished campaign keeps
        the store's campaign binding — and resume — intact.  The
        post-v1 ``tiers`` axis is dropped when empty for the same
        reason: an un-swept axis describes exactly what its absence
        used to.
        """
        doc = self.to_dict()
        doc["base"] = self.base.identity_dict()
        if not doc["tiers"]:
            del doc["tiers"]
        return _content_key(doc)


def make_demo_campaign(
    name: str = "demo",
    n_servers: int = 8,
    n_train: int = 800,
    n_test: int = 200,
    max_rounds: int = 5,
    participants: tuple[int, ...] = (1, 2, 4, 8),
    epochs: tuple[int, ...] = (1, 5, 20),
    seeds: tuple[int, ...] = (0,),
    backend: str = "sequential",
) -> CampaignSpec:
    """A small, fast ``(K, E)`` energy-grid campaign.

    The default grid is a reduced Fig. 5/6 reproduction: a fixed-budget
    sweep over ``K x E`` on an 8-server testbed, small enough for smoke
    tests and the ``campaign init`` CLI template while still exhibiting
    the interior-optimal shapes the paper reports at full scale.
    """
    base = RunSpec(
        name=name,
        n_train=n_train,
        n_test=n_test,
        n_servers=n_servers,
        max_rounds=max_rounds,
        target_accuracy=0.82,
        train_to_target=False,
        backend=backend,
    )
    return CampaignSpec(
        name=name,
        base=base,
        participants=participants,
        epochs=epochs,
        seeds=seeds,
    )
