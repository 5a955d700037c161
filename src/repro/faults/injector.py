"""Deterministic fault injection driven by a declarative plan.

The :class:`FaultInjector` is the runtime half of the fault subsystem:
it answers per-round questions the training loop asks (is this client
up?  how slow is it?  does this upload get corrupted?  is its link in a
loss burst?) from a :class:`~repro.faults.models.FaultPlan`, using
independent named RNG streams derived from the plan seed.  Stochastic
per-round draws (corruption) come from per-``(client, round)``
substreams, so the answers are independent of call order; sequential
state (burst channels, batteries) advances only through well-defined
hooks the loop calls in deterministic order.  Same plan + same seed ⇒
bit-identical fault history.

Every injected fault emits a ``fault.injected`` event and increments
the ``fault.injected{kind=...}`` counter on the attached observer.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.faults.models import (
    BatteryFault,
    BurstLossFault,
    CorruptionFault,
    CrashFault,
    FaultPlan,
    GilbertElliottModel,
    StragglerFault,
    substream,
)
from repro.iot.battery import Battery, BatteryConfig

if TYPE_CHECKING:
    from repro.obs.observer import Observer

__all__ = ["FaultInjector"]


class FaultInjector:
    """Turns a :class:`FaultPlan` into per-round fault decisions.

    Args:
        plan: the declarative fault plan.
        n_clients: size of the client population the plan applies to
            (faults targeting ids outside ``[0, n_clients)`` are
            rejected — a plan written for a larger testbed is a bug,
            not a silent no-op).
        observer: optional telemetry sink for ``fault.injected`` events.
    """

    def __init__(
        self,
        plan: FaultPlan,
        n_clients: int,
        observer: "Observer | None" = None,
    ) -> None:
        if n_clients < 1:
            raise ValueError(f"n_clients must be >= 1; got {n_clients}")
        if plan.max_client_id >= n_clients:
            raise ValueError(
                f"plan targets client {plan.max_client_id} but the "
                f"population has only {n_clients} clients"
            )
        self.plan = plan
        self.n_clients = n_clients
        self._observer = observer
        self._crashes: dict[int, list[CrashFault]] = {}
        self._stragglers: dict[int, list[StragglerFault]] = {}
        self._corruptions: dict[int, list[CorruptionFault]] = {}
        self._burst_faults: dict[int, BurstLossFault] = {}
        self._channels: dict[int, GilbertElliottModel] = {}
        self._channel_rngs: dict[int, np.random.Generator] = {}
        self._batteries: dict[int, Battery] = {}
        self._battery_faults: dict[int, BatteryFault] = {}
        self._dead_since: dict[int, int] = {}
        for fault in plan:
            cid = fault.client_id
            if isinstance(fault, CrashFault):
                self._crashes.setdefault(cid, []).append(fault)
            elif isinstance(fault, StragglerFault):
                self._stragglers.setdefault(cid, []).append(fault)
            elif isinstance(fault, CorruptionFault):
                self._corruptions.setdefault(cid, []).append(fault)
            elif isinstance(fault, BurstLossFault):
                if cid in self._burst_faults:
                    raise ValueError(
                        f"client {cid} has more than one burst-loss fault"
                    )
                self._burst_faults[cid] = fault
                self._channels[cid] = fault.build_model()
                self._channel_rngs[cid] = substream(plan.seed, "channel", cid)
            elif isinstance(fault, BatteryFault):
                if cid in self._batteries:
                    raise ValueError(
                        f"client {cid} has more than one battery fault"
                    )
                battery = Battery(BatteryConfig(capacity_j=fault.capacity_j))
                if fault.initial_fraction < 1.0:
                    battery.draw(
                        battery.remaining_j * (1.0 - fault.initial_fraction)
                    )
                self._batteries[cid] = battery
                self._battery_faults[cid] = fault

    # ------------------------------------------------------------------
    # Availability (crashes + depleted batteries).
    # ------------------------------------------------------------------
    def available(self, client_id: int, round_index: int) -> bool:
        """Whether ``client_id`` can participate in ``round_index``."""
        for fault in self._crashes.get(client_id, ()):
            if fault.active(round_index):
                return False
        dead_since = self._dead_since.get(client_id)
        return dead_since is None or round_index < dead_since

    def crashed(self, client_id: int, round_index: int) -> bool:
        """Inverse of :meth:`available`, emitting the fault event."""
        if self.available(client_id, round_index):
            return False
        kind = (
            "battery"
            if client_id in self._dead_since
            and not any(
                f.active(round_index) for f in self._crashes.get(client_id, ())
            )
            else "crash"
        )
        self._record(kind, client_id, round_index)
        return True

    # ------------------------------------------------------------------
    # Stragglers.
    # ------------------------------------------------------------------
    def slowdown(self, client_id: int, round_index: int) -> float:
        """Multiplier on the client's training time this round (>= 1)."""
        factor = 1.0
        for fault in self._stragglers.get(client_id, ()):
            if fault.active(round_index):
                factor = max(factor, fault.slowdown)
        if factor > 1.0:
            self._record("straggler", client_id, round_index, slowdown=factor)
        return factor

    # ------------------------------------------------------------------
    # Corrupted uploads.
    # ------------------------------------------------------------------
    def corrupts(self, client_id: int, round_index: int) -> CorruptionFault | None:
        """The corruption fault striking this upload, if any.

        The draw comes from a per-``(client, round)`` substream, so the
        answer does not depend on how many other random decisions were
        made earlier in the round.
        """
        for fault in self._corruptions.get(client_id, ()):
            if not fault.active(round_index):
                continue
            if fault.probability >= 1.0 or (
                substream(self.plan.seed, "corrupt", client_id, round_index).random()
                < fault.probability
            ):
                self._record(
                    "corruption", client_id, round_index, mode=fault.mode
                )
                return fault
        return None

    @staticmethod
    def corrupt_payload(
        parameters: np.ndarray, fault: CorruptionFault
    ) -> np.ndarray:
        """A non-finite copy of ``parameters`` per the fault's mode."""
        corrupted = np.array(parameters, dtype=float, copy=True)
        corrupted[:] = np.nan if fault.mode == "nan" else np.inf
        return corrupted

    # ------------------------------------------------------------------
    # Bursty links.
    # ------------------------------------------------------------------
    def upload_loss_model(
        self, client_id: int, round_index: int
    ) -> GilbertElliottModel | None:
        """The client's burst-loss channel, if active this round."""
        fault = self._burst_faults.get(client_id)
        if fault is None or not fault.active(round_index):
            return None
        return self._channels[client_id]

    def channel_rng(self, client_id: int) -> np.random.Generator:
        """The dedicated RNG stream of one client's burst channel."""
        rng = self._channel_rngs.get(client_id)
        if rng is None:
            raise KeyError(f"client {client_id} has no burst-loss fault")
        return rng

    def record_burst_loss(
        self, client_id: int, round_index: int, lost_attempts: int
    ) -> None:
        """Report attempts the burst channel ate (for telemetry only)."""
        if lost_attempts > 0:
            self._record(
                "burst_loss", client_id, round_index, lost_attempts=lost_attempts
            )

    # ------------------------------------------------------------------
    # Batteries.
    # ------------------------------------------------------------------
    def battery(self, client_id: int) -> Battery | None:
        """The client's battery, when one is declared."""
        return self._batteries.get(client_id)

    def note_participation(
        self,
        client_id: int,
        round_index: int,
        energy_j: float | None = None,
    ) -> None:
        """Drain the client's battery for one round of work.

        ``energy_j`` is the measured round energy when a hardware
        substrate is attached; without one, the fault's nominal
        ``per_round_j`` applies.  A draw that empties the battery kills
        the client from the *next* round onward (it dies uploading, as
        the battery model specifies).
        """
        battery = self._batteries.get(client_id)
        if battery is None or battery.depleted:
            return
        fault = self._battery_faults[client_id]
        draw = energy_j if energy_j is not None else fault.per_round_j
        if draw is None or draw <= 0.0:
            return
        if not battery.draw(draw) or battery.depleted:
            self._dead_since[client_id] = round_index + 1
            self._record(
                "battery_depleted",
                client_id,
                round_index,
                remaining_j=battery.remaining_j,
            )

    # ------------------------------------------------------------------
    # Telemetry.
    # ------------------------------------------------------------------
    def _record(
        self, kind: str, client_id: int, round_index: int, **fields: object
    ) -> None:
        if self._observer is None:
            return
        self._observer.counter("fault.injected", kind=kind).inc()
        self._observer.emit(
            "fault.injected",
            kind=kind,
            client=int(client_id),
            round=int(round_index),
            **fields,
        )
