"""Wireless link between edge servers and the coordinator.

The prototype connects 20 Raspberry Pis and the coordinating laptop via
a TP-Link WiFi router.  For the energy model only two quantities matter:
how long a model transfer occupies the radio (which sets the duration of
steps (2)/(4) and, with the step powers of Fig. 3, their energy), and
how much extra power the transfer draws.  The link is therefore a
deterministic transfer-time law, ``latency + 8 * n_bytes / rate``; the
paper prices an upload as the constant ``e_k^U`` = transfer time x
upload power.

Upload loss is not the link's business: a fault plan's
:class:`~repro.faults.BurstLossFault` (a Gilbert–Elliott model, i.i.d.
when ``loss_good == loss_bad``) decides per attempt, and
:func:`repro.faults.policies.simulate_upload` retries one
:meth:`ChannelConfig.transfer_s` per attempt under the retry policy.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ChannelConfig"]


@dataclass(frozen=True)
class ChannelConfig:
    """Effective link parameters between one device and the router.

    Attributes:
        rate_bps: effective application-layer throughput in bits/second.
            Default 20 Mbit/s, a realistic 802.11n figure for an RPi 4B
            on 2.4 GHz through one wall.
        latency_s: fixed per-transfer protocol latency (connection +
            acknowledgement), seconds.
    """

    rate_bps: float = 20e6
    latency_s: float = 0.01

    def __post_init__(self) -> None:
        if self.rate_bps <= 0:
            raise ValueError(f"rate_bps must be positive; got {self.rate_bps}")
        if self.latency_s < 0:
            raise ValueError(f"latency_s must be non-negative; got {self.latency_s}")

    def transfer_s(self, n_bytes: int) -> float:
        """Time for one transfer of ``n_bytes``."""
        if n_bytes < 0:
            raise ValueError(f"n_bytes must be non-negative; got {n_bytes}")
        return self.latency_s + 8.0 * n_bytes / self.rate_bps
