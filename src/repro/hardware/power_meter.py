"""Simulated POWER-Z KM001C USB multimeter.

The paper plugs one KM001C into the power port of every Raspberry Pi and
samples voltage, current and power at 1 kHz.  The simulated meter samples
a :class:`~repro.sim.processes.StepProcess` power signal on a uniform
grid, adds optional measurement noise, and reports the same triple of
time series the physical instrument logs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.constants import POWER_SAMPLE_RATE_HZ
from repro.hardware.trace import PowerTrace
from repro.sim.processes import StepProcess

if TYPE_CHECKING:
    from repro.obs.observer import Observer

__all__ = ["MeterConfig", "PowerMeter"]


@dataclass(frozen=True)
class MeterConfig:
    """Measurement characteristics of the simulated multimeter.

    Attributes:
        sample_rate_hz: sampling frequency (paper: 1 kHz).
        nominal_voltage_v: USB bus voltage; the RPi 4B runs at 5.1 V.
        power_noise_std_w: standard deviation of additive Gaussian noise
            on the power readings.  The KM001C resolves ~0.01 W; the
            default 0.02 W models quantisation plus supply ripple.
        voltage_noise_std_v: noise on the voltage readings.
    """

    sample_rate_hz: float = POWER_SAMPLE_RATE_HZ
    nominal_voltage_v: float = 5.1
    power_noise_std_w: float = 0.02
    voltage_noise_std_v: float = 0.005

    def __post_init__(self) -> None:
        if self.sample_rate_hz <= 0:
            raise ValueError(f"sample_rate_hz must be positive; got {self.sample_rate_hz}")
        if self.nominal_voltage_v <= 0:
            raise ValueError(
                f"nominal_voltage_v must be positive; got {self.nominal_voltage_v}"
            )
        if self.power_noise_std_w < 0 or self.voltage_noise_std_v < 0:
            raise ValueError("noise standard deviations must be non-negative")


class PowerMeter:
    """Samples a power :class:`StepProcess` into a :class:`PowerTrace`.

    With an ``observer`` attached, every recording increments the
    ``meter.samples`` counter and books the *ground-truth* per-phase
    energy of the metered process (exact segment integrals, before
    measurement noise) into ``meter.energy_joules{phase=...}`` — the
    meter-side twin of the model-side ``energy.joules`` counters.
    """

    def __init__(
        self,
        config: MeterConfig | None = None,
        rng: np.random.Generator | None = None,
        observer: "Observer | None" = None,
    ) -> None:
        self.config = config or MeterConfig()
        noisy = (
            self.config.power_noise_std_w > 0 or self.config.voltage_noise_std_v > 0
        )
        if noisy and rng is None:
            raise ValueError("a noisy meter requires an rng")
        self._rng = rng
        self._observer = observer

    def record(self, process: StepProcess) -> PowerTrace:
        """Sample the full span of ``process`` at the configured rate.

        The first sample lands on the process start and the grid is
        uniform at ``1 / sample_rate_hz``; the final partial interval is
        included so short processes still get >= 2 samples.
        """
        if process.duration <= 0:
            raise ValueError("cannot record an empty power process")
        dt = 1.0 / self.config.sample_rate_hz
        n_samples = max(2, int(np.floor(process.duration / dt)) + 1)
        times = process.start_time + dt * np.arange(n_samples)
        # Keep the final sample inside the process span.
        times = times[times <= process.end_time]
        if times.size < 2:
            times = np.array([process.start_time, process.end_time])
        power = process.values_at(times)
        voltage = np.full_like(power, self.config.nominal_voltage_v)
        if self._rng is not None:
            if self.config.power_noise_std_w > 0:
                power = power + self._rng.normal(
                    0.0, self.config.power_noise_std_w, size=power.shape
                )
            if self.config.voltage_noise_std_v > 0:
                voltage = voltage + self._rng.normal(
                    0.0, self.config.voltage_noise_std_v, size=voltage.shape
                )
        power = np.maximum(power, 0.0)
        current = power / voltage
        if self._observer is not None:
            self._observer.counter("meter.samples").inc(times.size)
            phase_energy: dict[str, float] = {}
            for segment in process.segments:
                key = segment.label or "unlabelled"
                phase_energy[key] = (
                    phase_energy.get(key, 0.0) + segment.duration * segment.value
                )
            for phase, joules in phase_energy.items():
                self._observer.counter("meter.energy_joules", phase=phase).inc(
                    joules
                )
            self._observer.emit(
                "meter.record",
                duration_s=process.duration,
                n_samples=int(times.size),
                sample_rate_hz=self.config.sample_rate_hz,
            )
        return PowerTrace(
            times=times, power_w=power, voltage_v=voltage, current_a=current
        )
