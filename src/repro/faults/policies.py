"""Resilience policies: how the round pipeline survives injected faults.

Production FL is defined by what happens when uploads fail: this module
provides the *policy* side of the fault subsystem — capped exponential
backoff with deterministic jitter (:class:`RetryPolicy`), the bundle of
knobs a :class:`~repro.fl.training.FederatedTrainer` consumes
(:class:`ResilienceConfig`: per-upload timeout, round deadline with
partial aggregation, minimum quorum, crash resampling, non-finite
rejection), the simulated upload state machine (:func:`simulate_upload`)
and the per-round :class:`RoundResilienceReport` the energy substrate
prices (every retry transmits at the measured 5.015 W upload power and
every backoff waits at the 3.600 W waiting power, so failure cost shows
up in the Fig. 6-style energy objective).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

if TYPE_CHECKING:
    from repro.net.channel import ChannelConfig

__all__ = [
    "RetryPolicy",
    "ResilienceConfig",
    "UploadOutcome",
    "simulate_upload",
    "RoundResilienceReport",
]


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with deterministic jitter.

    The ``i``-th retry waits ``base * factor**i`` seconds, capped at
    ``max_backoff_s``, then multiplied by a jitter factor drawn from the
    caller's seeded RNG stream (uniform in ``1 ± jitter_fraction``) —
    jitter decorrelates simultaneous retries without sacrificing run
    reproducibility.
    """

    max_retries: int = 3
    base_backoff_s: float = 0.1
    backoff_factor: float = 2.0
    max_backoff_s: float = 2.0
    jitter_fraction: float = 0.1

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0; got {self.max_retries}")
        if self.base_backoff_s < 0:
            raise ValueError(
                f"base_backoff_s must be non-negative; got {self.base_backoff_s}"
            )
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1; got {self.backoff_factor}"
            )
        if self.max_backoff_s < self.base_backoff_s:
            raise ValueError(
                "max_backoff_s must be >= base_backoff_s; "
                f"got {self.max_backoff_s} < {self.base_backoff_s}"
            )
        if not 0.0 <= self.jitter_fraction < 1.0:
            raise ValueError(
                f"jitter_fraction must be in [0, 1); got {self.jitter_fraction}"
            )

    def backoff_s(
        self, retry_index: int, rng: np.random.Generator | None = None
    ) -> float:
        """Wait before retry ``retry_index`` (0-based), jittered."""
        if retry_index < 0:
            raise ValueError(f"retry_index must be >= 0; got {retry_index}")
        raw = min(
            self.base_backoff_s * self.backoff_factor**retry_index,
            self.max_backoff_s,
        )
        if rng is not None and self.jitter_fraction > 0:
            raw *= 1.0 + self.jitter_fraction * (2.0 * rng.random() - 1.0)
        return raw

    def to_dict(self) -> dict:
        """Plain-type dict form; inverse of :meth:`from_dict`."""
        return {
            "max_retries": int(self.max_retries),
            "base_backoff_s": float(self.base_backoff_s),
            "backoff_factor": float(self.backoff_factor),
            "max_backoff_s": float(self.max_backoff_s),
            "jitter_fraction": float(self.jitter_fraction),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RetryPolicy":
        """Rebuild a policy from :meth:`to_dict` output."""
        try:
            return cls(
                max_retries=int(data["max_retries"]),
                base_backoff_s=float(data["base_backoff_s"]),
                backoff_factor=float(data["backoff_factor"]),
                max_backoff_s=float(data["max_backoff_s"]),
                jitter_fraction=float(data["jitter_fraction"]),
            )
        except (KeyError, TypeError) as error:
            raise ValueError(
                f"malformed retry policy {data!r}: {error}"
            ) from None


@dataclass(frozen=True)
class ResilienceConfig:
    """Every resilience knob of one federated training run.

    Attributes:
        retry: backoff policy for failed upload attempts.
        upload_timeout_s: total simulated-time budget for one client's
            upload (attempts + backoffs); ``None`` = no timeout, the
            retry cap alone bounds attempts.
        round_deadline_s: round-level deadline: clients whose simulated
            completion time (training × slowdown + upload) exceeds it
            are excluded from aggregation (partial aggregation).
            ``None`` disables the deadline.
        min_quorum: aggregate only when at least this many survivor
            updates arrived; otherwise the round is *degraded* — the
            last good model is carried forward via
            :meth:`repro.fl.server.Coordinator.skip_round`.
        resample_crashed: replace clients that are down at selection
            time with deterministically resampled available ones.
        reject_nonfinite: drop non-finite (NaN/Inf) updates before they
            reach the aggregator.
        nominal_train_s: per-epoch nominal compute time assumed for
            deadline checks when no hardware timing model is attached
            (the prototype substitutes its measured timing law).
    """

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    upload_timeout_s: float | None = None
    round_deadline_s: float | None = None
    min_quorum: int = 1
    resample_crashed: bool = True
    reject_nonfinite: bool = True
    nominal_train_s: float = 1.0

    def __post_init__(self) -> None:
        if self.upload_timeout_s is not None and self.upload_timeout_s <= 0:
            raise ValueError(
                f"upload_timeout_s must be positive; got {self.upload_timeout_s}"
            )
        if self.round_deadline_s is not None and self.round_deadline_s <= 0:
            raise ValueError(
                f"round_deadline_s must be positive; got {self.round_deadline_s}"
            )
        if self.min_quorum < 1:
            raise ValueError(f"min_quorum must be >= 1; got {self.min_quorum}")
        if self.nominal_train_s < 0:
            raise ValueError(
                f"nominal_train_s must be non-negative; got {self.nominal_train_s}"
            )

    def to_dict(self) -> dict:
        """Plain-type dict form; inverse of :meth:`from_dict`.

        The shape is embedded verbatim in :class:`repro.campaign.RunSpec`
        documents, so campaign artifacts capture the exact resilience
        policy a run used.
        """
        return {
            "retry": self.retry.to_dict(),
            "upload_timeout_s": (
                None
                if self.upload_timeout_s is None
                else float(self.upload_timeout_s)
            ),
            "round_deadline_s": (
                None
                if self.round_deadline_s is None
                else float(self.round_deadline_s)
            ),
            "min_quorum": int(self.min_quorum),
            "resample_crashed": bool(self.resample_crashed),
            "reject_nonfinite": bool(self.reject_nonfinite),
            "nominal_train_s": float(self.nominal_train_s),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ResilienceConfig":
        """Rebuild a config from :meth:`to_dict` output."""
        try:
            return cls(
                retry=RetryPolicy.from_dict(data["retry"]),
                upload_timeout_s=(
                    None
                    if data["upload_timeout_s"] is None
                    else float(data["upload_timeout_s"])
                ),
                round_deadline_s=(
                    None
                    if data["round_deadline_s"] is None
                    else float(data["round_deadline_s"])
                ),
                min_quorum=int(data["min_quorum"]),
                resample_crashed=bool(data["resample_crashed"]),
                reject_nonfinite=bool(data["reject_nonfinite"]),
                nominal_train_s=float(data["nominal_train_s"]),
            )
        except (KeyError, TypeError) as error:
            raise ValueError(
                f"malformed resilience config {data!r}: {error}"
            ) from None


@dataclass(frozen=True)
class UploadOutcome:
    """Result of one simulated, possibly retried, upload.

    Attributes:
        delivered: the payload reached the coordinator.
        attempts: transfer attempts actually transmitted (each burns
            upload-power energy for its duration).
        transfer_s: total time spent transmitting, over all attempts.
        backoff_s: total time spent waiting between attempts (burns
            waiting-power energy).
        timed_out: gave up because the upload-timeout budget ran out
            (as opposed to exhausting the retry cap).
    """

    delivered: bool
    attempts: int
    transfer_s: float
    backoff_s: float
    timed_out: bool = False

    @property
    def total_s(self) -> float:
        """Wall time the upload occupied (transmit + backoff)."""
        return self.transfer_s + self.backoff_s

    @property
    def retries(self) -> int:
        """Attempts beyond the first."""
        return max(0, self.attempts - 1)


def simulate_upload(
    channel: "ChannelConfig",
    n_bytes: int,
    policy: RetryPolicy,
    rng: np.random.Generator,
    timeout_s: float | None = None,
    attempt_lost: Callable[[], bool] | None = None,
) -> UploadOutcome:
    """Simulate one upload over a lossy link under a retry policy.

    Each attempt takes :meth:`ChannelConfig.transfer_s` seconds and is
    lost per ``attempt_lost`` (a Gilbert–Elliott burst model bound to
    its own RNG stream); ``None`` is a lossless link.  Lost attempts
    back off per ``policy`` using ``rng`` for deterministic jitter.  The
    upload fails when the retry cap is exhausted or when starting the
    next attempt would exceed the total ``timeout_s`` budget.
    """
    attempt_s = channel.transfer_s(n_bytes)
    transfer_s = 0.0
    backoff_s = 0.0
    attempts = 0
    while attempts <= policy.max_retries:
        if timeout_s is not None and transfer_s + backoff_s + attempt_s > timeout_s:
            return UploadOutcome(
                delivered=False,
                attempts=attempts,
                transfer_s=transfer_s,
                backoff_s=backoff_s,
                timed_out=True,
            )
        attempts += 1
        transfer_s += attempt_s
        if attempt_lost is None or not attempt_lost():
            return UploadOutcome(
                delivered=True,
                attempts=attempts,
                transfer_s=transfer_s,
                backoff_s=backoff_s,
            )
        if attempts <= policy.max_retries:
            backoff_s += policy.backoff_s(attempts - 1, rng)
    return UploadOutcome(
        delivered=False,
        attempts=attempts,
        transfer_s=transfer_s,
        backoff_s=backoff_s,
    )


@dataclass(frozen=True)
class RoundResilienceReport:
    """Everything that went wrong (and was survived) in one round.

    Produced by the trainer whenever resilience is enabled; the hardware
    substrate prices it into joules (retry transmissions at upload
    power, backoffs at waiting power, futile work of failed clients)
    and the ``energy.wasted_j`` counter.
    """

    round_index: int
    selected: tuple[int, ...]
    crashed: tuple[int, ...] = ()
    replacements: tuple[int, ...] = ()
    slowdowns: dict[int, float] = field(default_factory=dict)
    upload_attempts: dict[int, int] = field(default_factory=dict)
    backoff_s: dict[int, float] = field(default_factory=dict)
    failed_uploads: tuple[int, ...] = ()
    corrupted: tuple[int, ...] = ()
    late: tuple[int, ...] = ()
    degraded: bool = False
    quorum: int = 1
    n_aggregated: int = 0

    @property
    def retries(self) -> int:
        """Total retry attempts across the round's uploads."""
        return sum(max(0, a - 1) for a in self.upload_attempts.values())

    @property
    def total_backoff_s(self) -> float:
        """Total backoff wait across the round's uploads."""
        return float(sum(self.backoff_s.values()))

    def to_dict(self) -> dict:
        """Plain-type dict form for telemetry payloads."""
        return {
            "round_index": int(self.round_index),
            "selected": [int(c) for c in self.selected],
            "crashed": [int(c) for c in self.crashed],
            "replacements": [int(c) for c in self.replacements],
            "slowdowns": {int(k): float(v) for k, v in self.slowdowns.items()},
            "upload_attempts": {
                int(k): int(v) for k, v in self.upload_attempts.items()
            },
            "backoff_s": {int(k): float(v) for k, v in self.backoff_s.items()},
            "failed_uploads": [int(c) for c in self.failed_uploads],
            "corrupted": [int(c) for c in self.corrupted],
            "late": [int(c) for c in self.late],
            "degraded": bool(self.degraded),
            "quorum": int(self.quorum),
            "n_aggregated": int(self.n_aggregated),
            "retries": int(self.retries),
        }
