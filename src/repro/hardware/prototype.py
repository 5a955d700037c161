"""The full simulated testbed: 20 Raspberry Pis + coordinator + meters.

This is the stand-in for the paper's §VI-A hardware prototype.  It
couples three substrates:

* the **FL substrate** actually trains the shared model (so required
  round counts ``T`` come from real convergence behaviour, not from the
  bound),
* the **hardware substrate** prices every round in joules and seconds
  using the measured RPi 4B constants, and advances a shared wall
  clock so rounds are synchronised the way the coordinator
  synchronised the physical testbed (a round ends when its slowest
  participant uploads).

The "real measurement traces" of Figs. 5-6 are produced by
:meth:`HardwarePrototype.run`: train to the target accuracy with a given
``(K, E)``, integrate the energy the participating devices consumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.energy_model import HeterogeneousEnergyParams, cloud_fan_in
from repro.data.dataset import Dataset
from repro.faults.injector import FaultInjector
from repro.faults.models import BatteryFault, FaultPlan
from repro.faults.policies import ResilienceConfig, RoundResilienceReport
from repro.fl.model import LogisticRegressionConfig
from repro.fl.partition import Partitions, iid_partitions
from repro.fl.population import AggregationTree
from repro.fl.server import Coordinator
from repro.fl.sgd import SGDConfig
from repro.fl.training import FederatedConfig, FederatedTrainer, build_clients
from repro.fl.metrics import RoundRecord, TrainingHistory
from repro.hardware.fleet import DeviceFleet
from repro.hardware.power_meter import MeterConfig, PowerMeter
from repro.hardware.power_model import RoundPhase, StepPowers
from repro.hardware.raspberry_pi import PiTimingConfig, RoundTiming
from repro.hardware.trace import PowerTrace
from repro.iot.network import IoTNetwork
from repro.net.channel import ChannelConfig
from repro.net.messages import (
    ModelMessage,
    model_download_message,
    model_upload_message,
)
from repro.sim.processes import StepProcess

if TYPE_CHECKING:
    from repro.obs.observer import Observer

__all__ = ["PrototypeConfig", "PrototypeResult", "HardwarePrototype"]


@dataclass(frozen=True)
class PrototypeConfig:
    """Configuration of the simulated testbed.

    Defaults mirror the paper: 20 edge servers, 3 000 samples each,
    multinomial logistic regression, full-batch SGD at lr 0.01 with
    decay 0.99, measured RPi 4B power/timing constants.
    """

    n_servers: int = 20
    model: LogisticRegressionConfig = field(default_factory=LogisticRegressionConfig)
    sgd: SGDConfig = field(default_factory=SGDConfig)
    timing: PiTimingConfig = field(default_factory=PiTimingConfig)
    powers: StepPowers = field(default_factory=StepPowers)
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    include_waiting: bool = False
    include_iot: bool = False
    heterogeneity: float = 0.0
    seed: int = 0
    backend: str = "sequential"
    # Fog aggregation tiers between the edge servers and the cloud.
    # 0 keeps the paper's flat single-hop aggregation; a positive value
    # folds each round's updates through that many fog nodes before the
    # cloud combines the tier partials (matches the flat mean to
    # ~1e-12, not bit-for-bit).
    aggregation_tiers: int = 0

    def __post_init__(self) -> None:
        if self.n_servers < 1:
            raise ValueError(f"n_servers must be >= 1; got {self.n_servers}")
        if not 0.0 <= self.heterogeneity < 0.9:
            raise ValueError(
                "heterogeneity must be in [0, 0.9) — it is the relative "
                f"spread of per-device power/speed factors; got {self.heterogeneity}"
            )
        if self.aggregation_tiers < 0:
            raise ValueError(
                f"aggregation_tiers must be >= 0; got {self.aggregation_tiers}"
            )


@dataclass(frozen=True)
class PrototypeResult:
    """Everything one testbed run measured.

    Attributes:
        history: per-round loss/accuracy records from the FL substrate.
        rounds: number of global rounds executed.
        total_energy_j: summed energy of all participants over all rounds
            (the paper's headline metric for Figs. 5-6).
        energy_per_round_j: round-by-round energy.
        iot_energy_j: data-collection energy (0 unless ``include_iot``).
        wall_clock_s: simulated testbed time from start to last upload.
        reached_target: whether the accuracy target was met within the
            round budget.
        participants: the ``K`` used.
        epochs: the ``E`` used.
        wasted_energy_j: joules burned on failures — retry
            transmissions, backoff waits, and the full active energy of
            clients whose round was futile (0 in a failure-free run).
        degraded_rounds: rounds where the quorum was missed and the
            previous global model was carried forward.
        aggregation_energy_j: cloud-side reception energy of the
            aggregation step, priced per combined message at the mean
            upload energy (symmetric link).  With fog tiers the cloud
            combines ``min(tiers, K)`` tier partials instead of ``K``
            uploads, so this is where the hierarchical topology's
            saving shows up.  Reported separately from
            ``total_energy_j`` (which remains the paper's
            participant-side eq. (3)/(6) metric).
    """

    history: TrainingHistory
    rounds: int
    total_energy_j: float
    energy_per_round_j: np.ndarray
    iot_energy_j: float
    wall_clock_s: float
    reached_target: bool
    participants: int
    epochs: int
    wasted_energy_j: float = 0.0
    degraded_rounds: int = 0
    aggregation_energy_j: float = 0.0

    @property
    def mean_round_energy_j(self) -> float:
        return float(self.energy_per_round_j.mean())

    @property
    def wasted_fraction(self) -> float:
        """Share of the total energy burned on failures."""
        if self.total_energy_j <= 0:
            return 0.0
        return self.wasted_energy_j / self.total_energy_j


class _RunLedger:
    """Per-device round energy and duration of one ``run()``, as columns.

    Every price is one :class:`~repro.hardware.raspberry_pi.RoundTiming`
    times the fleet's phase powers: the energy charged, the duration
    the round waits for and the ``energy.joules{phase}`` increments of
    one participant in one round all come from the same timing.
    Without jitter that timing is the fleet's jitter-free columns,
    priced once per run.  With jitter each participant draws one timing
    per round from its own device (built on first use), the first time
    the round asks for it (the over-selection ranker or the energy
    bill), and every later question about that round reuses it.
    :meth:`settle` prices a finished synchronous round and keeps the
    run's totals; :meth:`job` prices an asynchronous job from a fresh
    draw.
    """

    def __init__(
        self,
        prototype: "HardwarePrototype",
        epochs: int,
        upload: ModelMessage,
        injector: FaultInjector | None = None,
        resilience: ResilienceConfig | None = None,
    ) -> None:
        fleet = prototype.devices
        self._fleet = fleet
        self._observer = prototype._observer
        self._include_waiting = prototype.config.include_waiting
        self._epochs = epochs
        self._injector = injector
        self._deadline_s = resilience.round_deadline_s if resilience else None
        self._tiers = prototype.config.aggregation_tiers
        # A fully-crashed (empty) round still takes the coordinator's
        # waiting period of wall-clock time.
        self._idle_s = prototype.config.timing.waiting_s or 1.0
        self._attempt_s = fleet.channel.transfer_s(upload.total_bytes)
        self._messages = (prototype._download, upload)
        self._collect = None
        if prototype.config.include_iot:
            self._collect = np.array(
                [
                    prototype.iot_network.cluster(k).collection_energy(int(n_k))
                    for k, n_k in enumerate(fleet.n_samples)
                ]
            )
        nominal = fleet.nominal_timing(
            epochs, prototype._download.total_bytes, upload.total_bytes
        )
        self._waiting_s = nominal.waiting_s
        self._energy, self._duration, self._phase_j = self._price(
            nominal, slice(None)
        )
        phases = self._phase_j
        self.upload_j = phases[RoundPhase.UPLOADING.value]
        # The full active energy of a futile round, summed in the order
        # train, download, upload: the price of failed work.
        self.nominal_active_j = (
            phases[RoundPhase.TRAINING.value]
            + phases[RoundPhase.DOWNLOADING.value]
            + phases[RoundPhase.UPLOADING.value]
        )
        self._round_index: int | None = None
        self._drawn: dict[int, RoundTiming] = {}
        # The run's totals, kept by settle().
        self.energy_per_round: list[float] = []
        self.wasted_j = 0.0
        self.iot_j = 0.0
        self.cloud_messages = 0
        self.clock_s = 0.0

    def _price(self, timing: RoundTiming, rows) -> tuple:
        """``(energy, duration, phase joules)`` of ``timing`` at ``rows``."""
        phases = self._fleet.phase_energies(
            timing, rows, include_waiting=self._include_waiting
        )
        # Summed from 0 in phase order, as sum() over one device's dict.
        energy = sum(phases.values())
        if self._collect is not None:
            energy = energy + self._collect[rows]
        return energy, timing.total_s, phases

    def _draw(self, ids: np.ndarray, drawn: dict[int, RoundTiming]) -> RoundTiming:
        """The devices' timings in ``drawn``, drawing any missing one, as
        columns."""
        download, upload = self._messages
        timings = []
        for server_id in ids.tolist():
            timing = drawn.get(server_id)
            if timing is None:
                timing = drawn[server_id] = self._fleet[server_id].round_timing(
                    self._epochs,
                    int(self._fleet.n_samples[server_id]),
                    download,
                    upload,
                )
            timings.append(timing)
        return RoundTiming(
            *(
                np.array([getattr(t, f.name) for t in timings], dtype=float)
                for f in fields(RoundTiming)
            )
        )

    def _round(self, round_index: int, ids: np.ndarray) -> tuple:
        if not self._fleet.jittered:
            return (
                self._energy[ids],
                self._duration[ids],
                {name: joules[ids] for name, joules in self._phase_j.items()},
            )
        if round_index != self._round_index:
            self._round_index, self._drawn = round_index, {}
        return self._price(self._draw(ids, self._drawn), ids)

    def _charge(self, phases: dict, ids: np.ndarray) -> None:
        """Feed ``energy.joules{phase}``, one increment per phase."""
        observer = self._observer
        if observer is None or not len(ids):
            return
        for phase, joules in phases.items():
            observer.counter("energy.joules", phase=phase).inc(
                sum(joules.tolist())
            )
        if self._collect is not None:
            observer.counter("energy.joules", phase="collect").inc(
                sum(self._collect[ids].tolist())
            )

    def settle(
        self, record: RoundRecord, report: RoundResilienceReport | None
    ) -> None:
        """Price one finished synchronous round and advance the clock.

        A participant's round energy is its base price plus, from the
        round's resilience ``report``, its retry transmissions at upload
        power and its backoff waits at waiting power; the full active
        energy of futile work (failed, late or corrupted uploads) is
        counted as wasted.  Each declared battery drains by its
        client's round energy.  The round lasts as long as its slowest
        awaited participant (all selected with plain FedAvg, the kept
        ones with over-selection), capped at the round deadline.
        """
        round_index = record.round_index
        observer = self._observer
        ids = np.asarray(record.participants, dtype=np.int64)
        energy, _, phases = self._round(round_index, ids)
        self._charge(phases, ids)
        client_energies = energy.tolist()
        # Summed in participant order, as one += per client.
        round_energy = sum(client_energies, 0.0)
        per_client_energy = dict(zip(record.participants, client_energies))
        retry_overhead: dict[int, float] = {}
        round_wasted = 0.0
        if report is not None:
            retry_j = wait_j = 0.0
            for server_id, attempts in report.upload_attempts.items():
                backoff_s = report.backoff_s.get(server_id, 0.0)
                client_retry_j = (
                    max(0, attempts - 1)
                    * self._attempt_s
                    * float(self._fleet.uploading_w[server_id])
                )
                client_wait_j = backoff_s * float(
                    self._fleet.waiting_w[server_id]
                )
                if client_retry_j or client_wait_j:
                    round_energy += client_retry_j + client_wait_j
                    round_wasted += client_retry_j + client_wait_j
                    per_client_energy[server_id] = (
                        per_client_energy.get(server_id, 0.0)
                        + client_retry_j
                        + client_wait_j
                    )
                    retry_overhead[server_id] = (
                        max(0, attempts - 1) * self._attempt_s + backoff_s
                    )
                    retry_j += client_retry_j
                    wait_j += client_wait_j
            futile = set(report.failed_uploads) | set(report.late)
            futile |= set(report.corrupted)
            for server_id in futile:
                round_wasted += float(self.nominal_active_j[server_id])
            self.wasted_j += round_wasted
            if observer is not None:
                # Retries are upload time, backoff is waiting time.
                if retry_j:
                    observer.counter("energy.joules", phase="uploading").inc(
                        retry_j
                    )
                if wait_j:
                    observer.counter("energy.joules", phase="waiting").inc(wait_j)
                if round_wasted > 0:
                    observer.counter("energy.wasted_j").inc(round_wasted)
        if self._injector is not None:
            for server_id, client_energy in per_client_energy.items():
                self._injector.note_participation(
                    server_id, round_index, energy_j=client_energy
                )
        if self._collect is not None:
            for joules in self._collect[ids].tolist():
                self.iot_j += joules
        if record.aggregated:
            self.cloud_messages += cloud_fan_in(
                len(record.aggregated), self._tiers
            )
        awaited = record.aggregated or record.participants
        durations = self.durations(round_index, awaited)
        if retry_overhead:
            durations += [retry_overhead.get(sid, 0.0) for sid in awaited]
        duration = float(durations.max(initial=0.0))
        if self._deadline_s is not None:
            # The coordinator moves on at the deadline.
            duration = min(duration, self._deadline_s)
        if duration <= 0.0:
            duration = self._idle_s
        self.energy_per_round.append(round_energy)
        if observer is not None:
            observer.histogram("sim.round_duration_s").observe(duration)
            observer.emit(
                "prototype.round",
                sim_time=self.clock_s,
                round=round_index,
                energy_j=round_energy,
                duration_s=duration,
                participants=len(record.participants),
                wasted_j=round_wasted,
                degraded=record.degraded,
            )
        self.clock_s += duration

    def durations(
        self, round_index: int, server_ids: Sequence[int]
    ) -> np.ndarray:
        """Each participant's round duration (``RoundTiming.total_s``)."""
        return self._round(round_index, np.asarray(server_ids, dtype=np.int64))[1]

    def job(self, server_id: int) -> tuple[float, float]:
        """``(energy, active seconds)`` of one asynchronous local job.

        A job has no round barrier, so its length leaves the waiting
        phase out.  With jitter every job is a fresh draw.
        """
        ids = np.array([server_id], dtype=np.int64)
        if self._fleet.jittered:
            timing = self._draw(ids, {})
            energy, duration, phases = self._price(timing, ids)
            waiting_s = timing.waiting_s
        else:
            energy, duration, phases = self._round(0, ids)
            waiting_s = self._waiting_s
        self._charge(phases, ids)
        return float(energy[0]), float((duration - waiting_s)[0])


class HardwarePrototype:
    """The simulated 20-Pi testbed.

    Args:
        train: pooled training dataset (uniformly partitioned over the
            servers, as in the paper).
        test: held-out evaluation set.
        config: testbed configuration.
        iot_network: optional IoT substrate; required when
            ``config.include_iot`` is set, providing the per-server
            ``rho_k`` constants for the data-collection energy.
        observer: optional telemetry sink, threaded through every layer
            the testbed drives: the FL trainer (round/client events),
            the round ledger (``prototype.round`` records on the
            simulated clock) and the energy accounting
            (``energy.joules{phase=...}`` counters split
            download/train/upload/wait/collect).
    """

    def __init__(
        self,
        train: Dataset,
        test: Dataset,
        config: PrototypeConfig | None = None,
        iot_network: IoTNetwork | None = None,
        partitions: list[Dataset] | None = None,
        observer: "Observer | None" = None,
    ) -> None:
        self.config = config or PrototypeConfig()
        self._observer = observer
        if self.config.include_iot and iot_network is None:
            raise ValueError("include_iot=True requires an iot_network")
        self.train = train
        self.test = test
        self.iot_network = iot_network
        if partitions is None:
            # The paper's allocation: uniform iid split over the servers.
            self._partitions = iid_partitions(
                train,
                self.config.n_servers,
                np.random.default_rng(self.config.seed),
            )
        elif len(partitions) != self.config.n_servers:
            raise ValueError(
                f"got {len(partitions)} partitions for "
                f"{self.config.n_servers} servers"
            )
        else:
            self._partitions = Partitions.from_datasets(partitions)
        # Heterogeneous testbeds (config.heterogeneity > 0) draw a
        # per-device hardware factor for power and one for speed, as
        # different SoC bins do, so per-round energies genuinely differ
        # across devices.
        self.devices = DeviceFleet(
            self._partitions.sizes,
            self.config.timing,
            self.config.powers,
            self.config.channel,
            heterogeneity=self.config.heterogeneity,
            seed=self.config.seed,
        )
        self._download = model_download_message(self.config.model)
        self._upload = model_upload_message(self.config.model)

    @property
    def samples_per_server(self) -> int:
        """``n_k`` of the first server (uniform partition sizes +-1)."""
        return int(self.devices.n_samples[0])

    def heterogeneous_energy_params(
        self, rho_values: dict[int, float] | None = None
    ) -> HeterogeneousEnergyParams:
        """Per-device energy constants of this testbed.

        Derives each device's ``(c0, c1)`` from its timing law and
        training power (``c = tau * P_train``) and its ``e^U`` from the
        upload transfer; the result feeds eq. (12)'s expectation
        operators via :meth:`HeterogeneousEnergyParams.mean`.
        """
        n = self.config.n_servers
        rho = np.zeros(n)
        if rho_values is not None:
            for server_id, value in rho_values.items():
                rho[server_id] = value
        elif self.iot_network is not None:
            for server_id, value in self.iot_network.rho_values().items():
                rho[server_id] = value
        fleet = self.devices
        return HeterogeneousEnergyParams(
            rho=rho,
            c0=fleet.tau0 * fleet.training_w,
            c1=fleet.tau1 * fleet.training_w,
            e_upload=fleet.channel.transfer_s(self._upload.total_bytes)
            * fleet.uploading_w,
            n_samples=self.samples_per_server,
        )

    def _make_trainer(
        self,
        config: FederatedConfig,
        completion_ranker=None,
        update_compressor=None,
        fault_injector: FaultInjector | None = None,
        resilience: ResilienceConfig | None = None,
    ) -> FederatedTrainer:
        clients = build_clients(
            self._partitions, self.config.model, seed=self.config.seed
        )
        coordinator = None
        if self.config.aggregation_tiers > 0:
            coordinator = Coordinator(
                self.config.model,
                observer=self._observer,
                aggregation_tree=AggregationTree(self.config.aggregation_tiers),
            )
        client_time_fn = None
        if resilience is not None:
            # Deadline checks use the measured timing law (jitter-free,
            # so the check itself consumes no device randomness).
            training_s = self.devices.training_durations(config.local_epochs)

            def client_time_fn(client_id: int, round_index: int) -> float:
                return float(training_s[client_id])

        return FederatedTrainer(
            clients=clients,
            config=config,
            train_eval=self.train,
            test_eval=self.test,
            coordinator=coordinator,
            completion_ranker=completion_ranker,
            update_compressor=update_compressor,
            observer=self._observer,
            fault_injector=fault_injector,
            resilience=resilience,
            upload_channel=self.config.channel,
            client_time_fn=client_time_fn,
        )

    def run(
        self,
        participants: int | None = None,
        epochs: int | None = None,
        n_rounds: int = 1000,
        target_accuracy: float | None = None,
        overselection: int = 0,
        update_compressor=None,
        fault_plan: FaultPlan | None = None,
        resilience: ResilienceConfig | None = None,
        federated_config: FederatedConfig | None = None,
    ) -> PrototypeResult:
        """Train with ``(K, E)`` and measure the energy spent.

        ``federated_config``, when given, is the single source of truth
        for the training loop: ``(K, E)``, round budget, accuracy
        target, overselection, and every knob the loop arguments cannot
        express (dropout probability, FedProx mu) are all taken from it
        and the corresponding arguments are ignored.  Without it,
        ``participants`` and ``epochs`` are required and a config is
        assembled from the loop arguments.

        Stops at ``target_accuracy`` if given, else after ``n_rounds``.
        The simulated wall clock advances round by round: a round lasts
        as long as its slowest *awaited* participant — all selected with
        plain FedAvg; only the K fastest with ``overselection > 0``
        (the over-selected devices it does not await still train and
        burn energy, but the coordinator moves on without them).

        ``update_compressor`` (a :class:`~repro.fl.compression.Compressor`
        or :class:`~repro.fl.compression.ErrorFeedback`) compresses each
        uploaded update; the upload message — and hence the upload time
        and energy ``e_k^U`` — shrinks to the compressed size.

        ``fault_plan`` attaches a deterministic
        :class:`~repro.faults.FaultInjector` (crashes, stragglers,
        burst loss, battery depletion, corrupted uploads) and
        ``resilience`` the recovery policies the trainer applies.  The
        energy accounting then prices failure cost at the measured step
        powers: every retry transmission burns upload power, every
        backoff waits at waiting power, and the full active energy of a
        client whose round was futile (upload failed, deadline missed,
        update rejected) is charged to the ``energy.wasted_j`` counter
        on top of appearing in the round totals.  A plan's
        :class:`~repro.faults.StragglerFault` is not priced: its
        slowdown reaches only the trainer's ``round_deadline_s`` test,
        and a slowed device costs the same joules and seconds as an
        unslowed one.  Declared batteries drain by the measured round
        energy alone: a plan's nominal ``per_round_j`` is not drawn on
        this testbed.
        """
        if federated_config is None:
            if participants is None or epochs is None:
                raise ValueError(
                    "run() requires either federated_config or both "
                    "participants and epochs"
                )
            federated_config = FederatedConfig(
                n_rounds=n_rounds,
                participants_per_round=participants,
                local_epochs=epochs,
                sgd=self.config.sgd,
                target_accuracy=target_accuracy,
                overselection=overselection,
                seed=self.config.seed,
                backend=self.config.backend,
            )
        config = federated_config
        upload_message = self._upload
        if update_compressor is not None:
            compressor = getattr(update_compressor, "compressor", update_compressor)
            upload_message = ModelMessage(
                "upload",
                compressor.compressed_bytes(self.config.model.n_parameters),
            )
        injector = None
        if fault_plan is not None:
            # The ledger drains batteries by the measured joules, so the
            # nominal per-round figure must not drain them as well.
            faults = [
                replace(f, per_round_j=None) if isinstance(f, BatteryFault) else f
                for f in fault_plan
            ]
            injector = FaultInjector(
                FaultPlan(fault_plan.seed, faults),
                self.config.n_servers,
                observer=self._observer,
            )
        ledger = _RunLedger(
            self, config.local_epochs, upload_message, injector, resilience
        )

        def ranker(round_index: int, selected: list[int]) -> list[int]:
            durations = ledger.durations(round_index, selected).tolist()
            timings = dict(zip(selected, durations))
            return sorted(selected, key=lambda cid: timings[cid])

        trainer = self._make_trainer(
            config,
            completion_ranker=ranker if config.overselection > 0 else None,
            update_compressor=update_compressor,
            fault_injector=injector,
            resilience=resilience,
        )
        history = trainer.run(
            lambda record: ledger.settle(record, trainer.last_resilience_report)
        )
        # One combined message at the cloud is priced at the mean upload
        # energy (symmetric link: receiving a model costs what sending
        # it does).  Fog tiers shrink the per-round message count from K
        # to min(tiers, K); fog-side reception is the fog nodes' budget,
        # not the cloud's, so it is deliberately not charged here.
        e_receive = float(np.mean(ledger.upload_j))
        reached = (
            config.target_accuracy is not None
            and history.final_accuracy() >= config.target_accuracy
        )
        return PrototypeResult(
            history=history,
            rounds=len(history),
            total_energy_j=float(np.sum(ledger.energy_per_round)),
            energy_per_round_j=np.array(ledger.energy_per_round),
            iot_energy_j=ledger.iot_j,
            wall_clock_s=ledger.clock_s,
            reached_target=reached,
            participants=config.participants_per_round,
            epochs=config.local_epochs,
            wasted_energy_j=ledger.wasted_j,
            degraded_rounds=history.degraded_round_count(),
            aggregation_energy_j=ledger.cloud_messages * e_receive,
        )

    def run_async(
        self,
        max_updates: int,
        epochs: int,
        mixing_alpha: float = 0.6,
        staleness_beta: float = 0.5,
        target_accuracy: float | None = None,
        eval_every: int = 1,
    ):
        """Asynchronous (FedAsync-style) training on this testbed.

        Every device trains continuously at its own measured pace (the
        round-timing model minus the waiting phase — async has no round
        barrier to wait at); the coordinator merges each arriving update
        with a staleness-discounted weight.  Returns
        ``(AsyncResult, total_energy_j)``: energy is the active energy of
        every completed local job, merged or not, priced from the same
        draw as the job's length.
        """
        from repro.fl.async_training import AsyncConfig, AsyncFederatedTrainer

        ledger = _RunLedger(self, epochs, self._upload)
        energy_counter = {"total": 0.0}

        def duration(client_id: int) -> float:
            energy, active_s = ledger.job(client_id)
            energy_counter["total"] += energy
            return active_s

        clients = build_clients(
            self._partitions, self.config.model, seed=self.config.seed
        )
        trainer = AsyncFederatedTrainer(
            clients=clients,
            config=AsyncConfig(
                max_updates=max_updates,
                local_epochs=epochs,
                mixing_alpha=mixing_alpha,
                staleness_beta=staleness_beta,
                sgd=self.config.sgd,
                eval_every=eval_every,
                target_accuracy=target_accuracy,
                seed=self.config.seed,
            ),
            train_eval=self.train,
            test_eval=self.test,
            duration_fn=duration,
        )
        result = trainer.run()
        return result, energy_counter["total"]

    # ------------------------------------------------------------------
    # Fig. 3: a metered trace of consecutive rounds at one device.
    # ------------------------------------------------------------------
    def record_power_trace(
        self,
        server_id: int,
        epochs: int,
        n_rounds: int = 2,
        meter: PowerMeter | None = None,
    ) -> PowerTrace:
        """Meter one device across ``n_rounds`` consecutive rounds.

        Reproduces Fig. 3: the four-plateau pattern repeating each round.
        """
        if n_rounds < 1:
            raise ValueError(f"n_rounds must be >= 1; got {n_rounds}")
        device = self.devices[server_id]
        n_k = int(self.devices.n_samples[server_id])
        process = StepProcess()
        for _ in range(n_rounds):
            timing = device.round_timing(epochs, n_k, self._download, self._upload)
            process.extend(device.round_power_process(timing))
        meter = meter or PowerMeter(
            MeterConfig(),
            rng=np.random.default_rng(self.config.seed),
            observer=self._observer,
        )
        return meter.record(process)
