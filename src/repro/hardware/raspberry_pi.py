"""Timing and power model of one Raspberry Pi 4B edge server.

The substitution for the paper's physical testbed: every quantity the
paper measures on real hardware is generated here from the published
measurement constants.

* Training duration follows Table I's law ``t = E * (tau0 * n + tau1)``
  with ``tau = c / P_train`` (the paper fits ``c0 = 7.79e-5`` J per
  sample-epoch and ``c1 = 3.34e-3`` J per epoch at 5.553 W).
* Download/upload durations come from the model size and the WiFi
  channel.
* Each phase draws the constant power of Fig. 3, so a round is a
  four-segment :class:`~repro.sim.processes.StepProcess`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core import constants
from repro.hardware.power_model import RoundPhase, StepPowers
from repro.net.channel import ChannelConfig
from repro.net.messages import ModelMessage
from repro.sim.processes import StepProcess

__all__ = ["PiTimingConfig", "RoundTiming", "RaspberryPiEdgeServer"]


@dataclass(frozen=True)
class PiTimingConfig:
    """Duration model of the four round phases on one device.

    Attributes:
        tau0: training seconds per sample-epoch (paper fit: c0 / 5.553 W).
        tau1: training seconds per epoch independent of data size.
        waiting_s: time spent idle before the coordinator dispatches the
            round (depends on the coordinator's schedule; the Fig. 3
            trace shows roughly a second between rounds).
        jitter_fraction: relative standard deviation of multiplicative
            log-normal-ish jitter applied to phase durations when an rng
            is supplied — real SoCs vary run to run.
    """

    tau0: float = constants.TAU0_SECONDS_PER_SAMPLE_EPOCH
    tau1: float = constants.TAU1_SECONDS_PER_EPOCH
    waiting_s: float = 1.0
    jitter_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.tau0 <= 0 or self.tau1 <= 0:
            raise ValueError(
                f"tau0 and tau1 must be positive; got {self.tau0}, {self.tau1}"
            )
        if self.waiting_s < 0:
            raise ValueError(f"waiting_s must be non-negative; got {self.waiting_s}")
        if not 0.0 <= self.jitter_fraction < 0.5:
            raise ValueError(
                f"jitter_fraction must be in [0, 0.5); got {self.jitter_fraction}"
            )


@dataclass(frozen=True)
class RoundTiming:
    """Durations of one round's four phases at one edge server."""

    waiting_s: float
    downloading_s: float
    training_s: float
    uploading_s: float

    @property
    def total_s(self) -> float:
        return self.waiting_s + self.downloading_s + self.training_s + self.uploading_s


class RaspberryPiEdgeServer:
    """One simulated edge server: timing + power for FEI rounds.

    Args:
        server_id: identity within the testbed.
        timing: phase-duration model.
        powers: phase-power model.
        channel: WiFi link used for model download/upload; defaults to
            the testbed's standard channel.
        rng: randomness source for duration jitter (only needed when
            ``timing.jitter_fraction > 0``).
    """

    def __init__(
        self,
        server_id: int,
        timing: PiTimingConfig | None = None,
        powers: StepPowers | None = None,
        channel: ChannelConfig | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.server_id = server_id
        self.timing = timing or PiTimingConfig()
        self.powers = powers or StepPowers()
        self.channel = channel or ChannelConfig()
        if self.timing.jitter_fraction > 0 and rng is None:
            raise ValueError("jitter requires an rng")
        self._rng = rng

    # ------------------------------------------------------------------
    # Durations.
    # ------------------------------------------------------------------
    def training_duration(self, epochs: int, n_samples: int) -> float:
        """Step-(3) duration — the law behind Table I."""
        if epochs < 1 or n_samples < 1:
            raise ValueError(
                f"epochs and n_samples must be >= 1; got E={epochs}, n={n_samples}"
            )
        return epochs * (self.timing.tau0 * n_samples + self.timing.tau1)

    def _jittered(self, duration: float) -> float:
        if self.timing.jitter_fraction == 0 or self._rng is None:
            return duration
        factor = 1.0 + self._rng.normal(0.0, self.timing.jitter_fraction)
        return duration * max(factor, 0.1)

    def round_timing(
        self,
        epochs: int,
        n_samples: int,
        download: ModelMessage,
        upload: ModelMessage,
    ) -> RoundTiming:
        """Durations of all four phases for one round."""
        return RoundTiming(
            waiting_s=self._jittered(self.timing.waiting_s) if self.timing.waiting_s else 0.0,
            downloading_s=self._jittered(
                self.channel.transfer_s(download.total_bytes)
            ),
            training_s=self._jittered(self.training_duration(epochs, n_samples)),
            uploading_s=self._jittered(
                self.channel.transfer_s(upload.total_bytes)
            ),
        )

    # ------------------------------------------------------------------
    # Power processes and energy.
    # ------------------------------------------------------------------
    def round_power_process(
        self, timing: RoundTiming, start_time: float = 0.0
    ) -> StepProcess:
        """The four-plateau power signal of one round (Fig. 3 shape)."""
        process = StepProcess(start_time=start_time)
        phases = (
            (RoundPhase.WAITING, timing.waiting_s),
            (RoundPhase.DOWNLOADING, timing.downloading_s),
            (RoundPhase.TRAINING, timing.training_s),
            (RoundPhase.UPLOADING, timing.uploading_s),
        )
        for phase, duration in phases:
            if duration > 0:
                process.append(duration, self.powers.power_for(phase), phase.value)
        return process

    def phase_energies(
        self, timing: RoundTiming, include_waiting: bool = False
    ) -> dict[str, float]:
        """Per-phase energy of one already-drawn round timing, in joules.

        Keyed by :class:`RoundPhase` value (``"downloading"``,
        ``"training"``, ``"uploading"``, and ``"waiting"`` when
        included).  Taking a :class:`RoundTiming` rather than drawing one
        keeps the energy attribution consistent with whatever jittered
        durations the caller already committed to — and feeds the
        ``energy.joules{phase=...}`` telemetry counters without extra rng
        draws.
        """
        energies = {
            RoundPhase.DOWNLOADING.value: (
                timing.downloading_s * self.powers.downloading_w
            ),
            RoundPhase.TRAINING.value: timing.training_s * self.powers.training_w,
            RoundPhase.UPLOADING.value: (
                timing.uploading_s * self.powers.uploading_w
            ),
        }
        if include_waiting:
            energies[RoundPhase.WAITING.value] = (
                timing.waiting_s * self.powers.waiting_w
            )
        return energies

    def round_energy(
        self,
        epochs: int,
        n_samples: int,
        download: ModelMessage,
        upload: ModelMessage,
        include_waiting: bool = False,
    ) -> float:
        """Exact energy of one round at this server, in joules.

        ``include_waiting=False`` (default) matches the paper's energy
        accounting, which attributes only the active phases (download,
        train, upload) to the training task — waiting power is the
        device's idle baseline and is excluded from ``e_k^P``/``e_k^U``.
        """
        timing = self.round_timing(epochs, n_samples, download, upload)
        return sum(self.phase_energies(timing, include_waiting).values())

    def training_energy(self, epochs: int, n_samples: int) -> float:
        """Energy of step (3) alone: duration x training power = eq. (5)."""
        return self.training_duration(epochs, n_samples) * self.powers.training_w

    def upload_energy(self, upload: ModelMessage) -> float:
        """The constant ``e_k^U``: upload duration x upload power."""
        upload_s = self.channel.transfer_s(upload.total_bytes)
        return upload_s * self.powers.uploading_w

    def duration_table(
        self, epochs_values: list[int], n_values: list[int]
    ) -> dict[tuple[int, int], float]:
        """Regenerate a Table-I-style duration grid on this device."""
        return {
            (epochs, n): self.training_duration(epochs, n)
            for epochs in epochs_values
            for n in n_values
        }
