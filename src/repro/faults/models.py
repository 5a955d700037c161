"""Declarative fault models: what can go wrong, to whom, and when.

A :class:`FaultPlan` is a seeded, declarative description of every
failure a simulated deployment will experience: client crashes,
straggler slowdowns, bursty link loss (a two-state Gilbert–Elliott
channel), battery depletion, and corrupted (non-finite) uploads.  The
plan itself holds no random state — it is pure data, JSON-serialisable
so a study can be captured next to its results and replayed exactly.
The :class:`~repro.faults.injector.FaultInjector` turns a plan into
per-round decisions using independent named RNG streams derived from
the plan seed, so two runs of the same plan are bit-identical.

The paper's 20-Pi prototype treats the WiFi link as reliable and every
edge server as always-on; these models are the controlled departure
from that assumption.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

__all__ = [
    "substream",
    "GilbertElliottModel",
    "CrashFault",
    "StragglerFault",
    "BurstLossFault",
    "BatteryFault",
    "CorruptionFault",
    "FaultPlan",
    "make_demo_plan",
]


def substream(seed: int, *labels: int | str) -> np.random.Generator:
    """Independent, reproducible RNG stream named by ``labels``.

    Maps string labels to stable integers (CRC-32, not Python's salted
    ``hash``) and spawns ``default_rng([seed, *label_ints])``.  Distinct
    labels give statistically independent streams, so consumers (client
    sampling, dropout, fault channels, backoff jitter) cannot perturb
    each other's draws — the RNG-coupling bug this replaces.
    """
    ints = [int(seed)]
    for label in labels:
        if isinstance(label, str):
            ints.append(zlib.crc32(label.encode("utf-8")))
        else:
            ints.append(int(label))
    return np.random.default_rng(ints)


class GilbertElliottModel:
    """Two-state Markov (Gilbert–Elliott) burst-loss channel model.

    The channel alternates between a *good* state (low loss) and a *bad*
    state (high loss); transitions are drawn per attempt, so losses
    arrive in bursts rather than independently; ``loss_good ==
    loss_bad`` is the i.i.d. special case, stationary loss rate
    ``loss_good``.  The one source of upload loss in a run:
    :func:`~repro.faults.policies.simulate_upload` asks
    :meth:`attempt_lost` once per transfer attempt.

    Args:
        p_enter_bad: per-attempt probability of a good→bad transition.
        p_exit_bad: per-attempt probability of a bad→good transition.
        loss_good: loss probability while in the good state.
        loss_bad: loss probability while in the bad state.
        start_bad: start in the bad state (default: good).
    """

    __slots__ = ("p_enter_bad", "p_exit_bad", "loss_good", "loss_bad", "bad")

    def __init__(
        self,
        p_enter_bad: float,
        p_exit_bad: float,
        loss_good: float = 0.0,
        loss_bad: float = 0.9,
        start_bad: bool = False,
    ) -> None:
        for name, p in (
            ("p_enter_bad", p_enter_bad),
            ("p_exit_bad", p_exit_bad),
            ("loss_good", loss_good),
            ("loss_bad", loss_bad),
        ):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]; got {p}")
        if loss_bad >= 1.0 and p_exit_bad == 0.0:
            raise ValueError(
                "loss_bad = 1 with p_exit_bad = 0 makes the bad state "
                "absorbing and every upload after it fail"
            )
        self.p_enter_bad = p_enter_bad
        self.p_exit_bad = p_exit_bad
        self.loss_good = loss_good
        self.loss_bad = loss_bad
        self.bad = start_bad

    def attempt_lost(self, rng: np.random.Generator) -> bool:
        """Draw one attempt: loss in the current state, then transition."""
        lost = rng.random() < (self.loss_bad if self.bad else self.loss_good)
        flip = self.p_exit_bad if self.bad else self.p_enter_bad
        if rng.random() < flip:
            self.bad = not self.bad
        return lost

    @property
    def stationary_loss(self) -> float:
        """Long-run loss rate under the stationary state distribution."""
        total = self.p_enter_bad + self.p_exit_bad
        if total == 0.0:
            return self.loss_bad if self.bad else self.loss_good
        pi_bad = self.p_enter_bad / total
        return (1.0 - pi_bad) * self.loss_good + pi_bad * self.loss_bad


def _check_window(start_round: int, end_round: int | None) -> None:
    if start_round < 0:
        raise ValueError(f"start_round must be non-negative; got {start_round}")
    if end_round is not None and end_round <= start_round:
        raise ValueError(
            f"end_round must exceed start_round; got [{start_round}, {end_round})"
        )


def _in_window(round_index: int, start: int, end: int | None) -> bool:
    return round_index >= start and (end is None or round_index < end)


@dataclass(frozen=True)
class CrashFault:
    """Client ``client_id`` is unavailable for rounds ``[start, end)``.

    ``end_round = None`` means the crash is permanent (fail-stop).
    """

    client_id: int
    start_round: int
    end_round: int | None = None
    kind: str = field(default="crash", init=False)

    def __post_init__(self) -> None:
        if self.client_id < 0:
            raise ValueError(f"client_id must be non-negative; got {self.client_id}")
        _check_window(self.start_round, self.end_round)

    def active(self, round_index: int) -> bool:
        """Whether the client is down in ``round_index``."""
        return _in_window(round_index, self.start_round, self.end_round)


@dataclass(frozen=True)
class StragglerFault:
    """Client trains ``slowdown`` times slower during ``[start, end)``."""

    client_id: int
    start_round: int
    end_round: int | None = None
    slowdown: float = 4.0
    kind: str = field(default="straggler", init=False)

    def __post_init__(self) -> None:
        if self.client_id < 0:
            raise ValueError(f"client_id must be non-negative; got {self.client_id}")
        if self.slowdown < 1.0:
            raise ValueError(f"slowdown must be >= 1; got {self.slowdown}")
        _check_window(self.start_round, self.end_round)

    def active(self, round_index: int) -> bool:
        """Whether the slowdown applies in ``round_index``."""
        return _in_window(round_index, self.start_round, self.end_round)


@dataclass(frozen=True)
class BurstLossFault:
    """Bursty upload loss on one client's link during ``[start, end)``.

    Parameterises a :class:`GilbertElliottModel` that the injector
    instantiates per client (so burst state evolves independently per
    link); the trainer hands it to
    :func:`~repro.faults.policies.simulate_upload` as the upload's only
    loss source.  An i.i.d. loss rate ``p`` is
    ``loss_good = loss_bad = p``.
    """

    client_id: int
    start_round: int = 0
    end_round: int | None = None
    p_enter_bad: float = 0.1
    p_exit_bad: float = 0.3
    loss_good: float = 0.0
    loss_bad: float = 0.9
    kind: str = field(default="burst_loss", init=False)

    def __post_init__(self) -> None:
        if self.client_id < 0:
            raise ValueError(f"client_id must be non-negative; got {self.client_id}")
        _check_window(self.start_round, self.end_round)
        # Validate the channel parameters eagerly so a malformed plan
        # fails at construction, not mid-run.
        self.build_model()

    def active(self, round_index: int) -> bool:
        """Whether the lossy channel applies in ``round_index``."""
        return _in_window(round_index, self.start_round, self.end_round)

    def build_model(self) -> GilbertElliottModel:
        """Fresh Gilbert–Elliott state machine for this link."""
        return GilbertElliottModel(
            p_enter_bad=self.p_enter_bad,
            p_exit_bad=self.p_exit_bad,
            loss_good=self.loss_good,
            loss_bad=self.loss_bad,
        )


@dataclass(frozen=True)
class BatteryFault:
    """Client runs off a finite battery and dies when it depletes.

    Wired to :class:`repro.iot.battery.Battery`: the injector drains the
    battery by the energy the client actually spends each round (reported
    by the hardware substrate) or, when no energy model is attached, by
    the nominal ``per_round_j``.  Once depleted the client behaves like a
    permanent crash.
    """

    client_id: int
    capacity_j: float
    initial_fraction: float = 1.0
    per_round_j: float | None = None
    kind: str = field(default="battery", init=False)

    def __post_init__(self) -> None:
        if self.client_id < 0:
            raise ValueError(f"client_id must be non-negative; got {self.client_id}")
        if self.capacity_j <= 0:
            raise ValueError(f"capacity_j must be positive; got {self.capacity_j}")
        if not 0.0 < self.initial_fraction <= 1.0:
            raise ValueError(
                f"initial_fraction must be in (0, 1]; got {self.initial_fraction}"
            )
        if self.per_round_j is not None and self.per_round_j <= 0:
            raise ValueError(
                f"per_round_j must be positive when set; got {self.per_round_j}"
            )


@dataclass(frozen=True)
class CorruptionFault:
    """Client uploads a non-finite payload during ``[start, end)``.

    Each affected upload is corrupted with ``probability``; the payload
    is filled with NaN (``mode="nan"``) or ±Inf (``mode="inf"``).  The
    coordinator's validation guard must reject these instead of letting
    them poison the global average.
    """

    client_id: int
    start_round: int = 0
    end_round: int | None = None
    probability: float = 1.0
    mode: str = "nan"
    kind: str = field(default="corruption", init=False)

    def __post_init__(self) -> None:
        if self.client_id < 0:
            raise ValueError(f"client_id must be non-negative; got {self.client_id}")
        if not 0.0 < self.probability <= 1.0:
            raise ValueError(
                f"probability must be in (0, 1]; got {self.probability}"
            )
        if self.mode not in ("nan", "inf"):
            raise ValueError(f"mode must be 'nan' or 'inf'; got {self.mode!r}")
        _check_window(self.start_round, self.end_round)

    def active(self, round_index: int) -> bool:
        """Whether uploads may be corrupted in ``round_index``."""
        return _in_window(round_index, self.start_round, self.end_round)


_FAULT_TYPES = {
    "crash": CrashFault,
    "straggler": StragglerFault,
    "burst_loss": BurstLossFault,
    "battery": BatteryFault,
    "corruption": CorruptionFault,
}

Fault = CrashFault | StragglerFault | BurstLossFault | BatteryFault | CorruptionFault


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, declarative collection of faults — pure data, no state.

    Attributes:
        seed: root seed for every stochastic fault decision (corruption
            draws, burst-loss channel trajectories, backoff jitter); two
            runs of the same plan and seed are bit-identical.
        faults: the individual fault declarations.
    """

    seed: int = 0
    faults: tuple[Fault, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))
        for fault in self.faults:
            if not isinstance(fault, tuple(_FAULT_TYPES.values())):
                raise ValueError(f"unknown fault object: {fault!r}")

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self) -> Iterator[Fault]:
        return iter(self.faults)

    def for_client(self, client_id: int) -> tuple[Fault, ...]:
        """Every declared fault targeting ``client_id``."""
        return tuple(f for f in self.faults if f.client_id == client_id)

    def of_kind(self, kind: str) -> tuple[Fault, ...]:
        """Every declared fault of one kind (``"crash"``, ...)."""
        return tuple(f for f in self.faults if f.kind == kind)

    @property
    def max_client_id(self) -> int:
        """Largest client id any fault targets (-1 for an empty plan)."""
        return max((f.client_id for f in self.faults), default=-1)

    # ------------------------------------------------------------------
    # Serialisation (the --fault-plan CLI flag reads this JSON shape).
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-type dict form; inverse of :meth:`from_dict`."""
        return {
            "seed": int(self.seed),
            "faults": [asdict(f) for f in self.faults],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_dict` output."""
        try:
            faults = []
            for entry in data.get("faults", []):
                entry = dict(entry)
                kind = entry.pop("kind")
                if kind not in _FAULT_TYPES:
                    raise ValueError(f"unknown fault kind {kind!r}")
                faults.append(_FAULT_TYPES[kind](**entry))
            return cls(seed=int(data.get("seed", 0)), faults=tuple(faults))
        except (KeyError, TypeError) as error:
            raise ValueError(f"malformed fault plan: {error}") from None

    def to_json(self) -> str:
        """JSON text form (pretty-printed, stable key order)."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(text))

    def save(self, path: str | Path) -> None:
        """Write the plan to a JSON file."""
        Path(path).write_text(self.to_json() + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "FaultPlan":
        """Read a plan from a JSON file (the ``--fault-plan`` format)."""
        return cls.from_json(Path(path).read_text(encoding="utf-8"))


def make_demo_plan(
    n_clients: int,
    seed: int = 0,
    crash_fraction: float = 0.15,
    straggler_fraction: float = 0.15,
    loss_fraction: float = 0.2,
    slowdown: float = 3.0,
    loss_bad: float = 0.9,
    horizon: int = 40,
) -> FaultPlan:
    """A representative mixed plan: crashes + stragglers + burst loss.

    Used by the CLI's default degradation study, the fault-tolerance
    example, and the resilience benchmark.  Clients are assigned to
    fault classes deterministically from ``seed`` (disjoint classes, so
    a crashed client is not also the straggler — each failure mode is
    separately attributable).
    """
    if n_clients < 1:
        raise ValueError(f"n_clients must be >= 1; got {n_clients}")
    rng = substream(seed, "demo-plan")
    ids = rng.permutation(n_clients)
    n_crash = int(round(crash_fraction * n_clients))
    n_slow = int(round(straggler_fraction * n_clients))
    n_loss = int(round(loss_fraction * n_clients))
    faults: list[Fault] = []
    cursor = 0
    for client_id in ids[cursor : cursor + n_crash]:
        start = int(rng.integers(1, max(2, horizon // 2)))
        faults.append(
            CrashFault(
                client_id=int(client_id),
                start_round=start,
                end_round=start + int(rng.integers(3, max(4, horizon // 2))),
            )
        )
    cursor += n_crash
    for client_id in ids[cursor : cursor + n_slow]:
        faults.append(
            StragglerFault(
                client_id=int(client_id),
                start_round=0,
                end_round=None,
                slowdown=slowdown,
            )
        )
    cursor += n_slow
    for client_id in ids[cursor : cursor + n_loss]:
        faults.append(
            BurstLossFault(
                client_id=int(client_id),
                p_enter_bad=0.2,
                p_exit_bad=0.4,
                loss_bad=loss_bad,
            )
        )
    return FaultPlan(seed=seed, faults=tuple(faults))
