"""The testbed's edge servers as one table of columns.

A :class:`~repro.hardware.prototype.HardwarePrototype` prices rounds for
every device from the same few constants: the timing law's ``tau0`` and
``tau1``, the four phase powers, the WiFi channel and the device's
``n_k``.  :class:`DeviceFleet` holds them as ``(N,)`` columns, so
set-up, the energy ledger and the per-device energy constants are
column arithmetic at any ``N``.  A :class:`RaspberryPiEdgeServer`
object exists only for a device something asks for by index (a metered
trace, a jittered round), and is then kept.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.hardware.power_model import RoundPhase, StepPowers
from repro.hardware.raspberry_pi import (
    PiTimingConfig,
    RaspberryPiEdgeServer,
    RoundTiming,
)
from repro.net.channel import ChannelConfig

__all__ = ["DeviceFleet"]


class DeviceFleet(Sequence[RaspberryPiEdgeServer]):
    """``N`` simulated Raspberry Pis as columns, devices built on demand.

    Columns (``(N,)`` float64 unless noted): ``tau0``, ``tau1``,
    ``waiting_w``, ``downloading_w``, ``training_w``, ``uploading_w``
    and ``n_samples`` (int64).  The waiting time, the jitter fraction
    and the channel are the same for every device: ``timing`` and
    ``channel`` hold them.

    With ``heterogeneity > 0`` device ``i`` draws a power factor and a
    speed factor, row ``i`` of one ``(N, 2)`` normal draw from the
    ``[seed, 0x4A4D]`` stream clipped to ``[0.2, 3.0]``: the values a
    loop of two scalar draws per device gives.  Its powers scale by the
    first and ``tau0``/``tau1`` by the second.

    ``fleet[i]`` builds device ``i`` on first access from its row.  Its
    jitter generator, ``np.random.default_rng((seed, i))``, is created
    only when the timing has jitter; each device draws from its own
    stream, so the order in which devices are built changes no draw.
    """

    def __init__(
        self,
        n_samples: np.ndarray,
        timing: PiTimingConfig,
        powers: StepPowers,
        channel: ChannelConfig,
        *,
        heterogeneity: float = 0.0,
        seed: int = 0,
    ) -> None:
        self.n_samples = np.asarray(n_samples, dtype=np.int64)
        n = len(self.n_samples)
        self.timing = timing
        self.channel = channel
        self._seed = seed
        power_factor = speed_factor = np.ones(n)
        if heterogeneity > 0:
            factors = np.clip(
                np.random.default_rng([seed, 0x4A4D]).normal(
                    1.0, heterogeneity, size=(n, 2)
                ),
                0.2,
                3.0,
            )
            power_factor, speed_factor = factors[:, 0], factors[:, 1]
        self.tau0 = timing.tau0 * speed_factor
        self.tau1 = timing.tau1 * speed_factor
        self.waiting_w = powers.waiting_w * power_factor
        self.downloading_w = powers.downloading_w * power_factor
        self.training_w = powers.training_w * power_factor
        self.uploading_w = powers.uploading_w * power_factor
        self._built: dict[int, RaspberryPiEdgeServer] = {}

    def __len__(self) -> int:
        return len(self.n_samples)

    def __getitem__(self, server_id: int) -> RaspberryPiEdgeServer:
        if not -len(self) <= server_id < len(self):
            raise IndexError(f"device {server_id} out of range")
        server_id = int(server_id) % len(self)
        device = self._built.get(server_id)
        if device is None:
            timing = self.timing
            device = self._built[server_id] = RaspberryPiEdgeServer(
                server_id=server_id,
                timing=PiTimingConfig(
                    tau0=float(self.tau0[server_id]),
                    tau1=float(self.tau1[server_id]),
                    waiting_s=timing.waiting_s,
                    jitter_fraction=timing.jitter_fraction,
                ),
                powers=StepPowers(
                    waiting_w=float(self.waiting_w[server_id]),
                    downloading_w=float(self.downloading_w[server_id]),
                    training_w=float(self.training_w[server_id]),
                    uploading_w=float(self.uploading_w[server_id]),
                ),
                channel=self.channel,
                rng=(
                    np.random.default_rng((self._seed, server_id))
                    if timing.jitter_fraction > 0
                    else None
                ),
            )
        return device

    @property
    def jittered(self) -> bool:
        """Whether each round's durations are drawn from device RNGs."""
        return self.timing.jitter_fraction > 0

    def training_durations(self, epochs: int) -> np.ndarray:
        """Every device's step-(3) duration, Table I's law per row."""
        return epochs * (self.tau0 * self.n_samples + self.tau1)

    def nominal_timing(
        self, epochs: int, download_bytes: int, upload_bytes: int
    ) -> RoundTiming:
        """Every device's jitter-free round, as a :class:`RoundTiming` of
        columns (the transfers and the wait are scalars)."""
        return RoundTiming(
            waiting_s=float(self.timing.waiting_s or 0.0),
            downloading_s=self.channel.transfer_s(download_bytes),
            training_s=self.training_durations(epochs),
            uploading_s=self.channel.transfer_s(upload_bytes),
        )

    def phase_energies(
        self,
        timing: RoundTiming,
        rows: np.ndarray | slice = slice(None),
        include_waiting: bool = False,
    ) -> dict[str, np.ndarray]:
        """:meth:`RaspberryPiEdgeServer.phase_energies` for the devices at
        ``rows``, whose durations ``timing`` holds (columns or scalars)."""
        energies = {
            RoundPhase.DOWNLOADING.value: (
                timing.downloading_s * self.downloading_w[rows]
            ),
            RoundPhase.TRAINING.value: timing.training_s * self.training_w[rows],
            RoundPhase.UPLOADING.value: (
                timing.uploading_s * self.uploading_w[rows]
            ),
        }
        if include_waiting:
            energies[RoundPhase.WAITING.value] = (
                timing.waiting_s * self.waiting_w[rows]
            )
        return energies
