"""The testbed as one fleet table: columns first, objects on demand.

Pins that a population run builds no per-device or per-client object,
that a lazily built device draws what an eagerly built one drew, that
the one ``(N, 2)`` heterogeneity draw gives the scalar loop's factors,
and that a jittered round (sync, over-selected, or an async job) is
priced from exactly one timing draw per participant.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.campaign import RunSpec
from repro.campaign.runner import execute_unit
from repro.data.dataset import Dataset
from repro.data.synthetic_mnist import load_synthetic_mnist
from repro.fl.client import EdgeServerClient
from repro.fl.training import FederatedTrainer
from repro.hardware import prototype as prototype_module
from repro.hardware.power_model import StepPowers
from repro.hardware.prototype import HardwarePrototype, PrototypeConfig
from repro.hardware.raspberry_pi import PiTimingConfig, RaspberryPiEdgeServer
from repro.net.messages import model_download_message, model_upload_message

pytestmark = pytest.mark.population_smoke


@pytest.fixture(scope="module")
def data() -> tuple[Dataset, Dataset]:
    return load_synthetic_mnist(n_train=600, n_test=100, seed=0)


def _count_inits(monkeypatch, owner) -> list:
    built: list = []
    init = owner.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(owner, "__init__", counting_init)
    return built


class TestNoPerObjectSetup:
    """A population run from RunSpec holds the fleet as arrays only."""

    N_DEVICES = 10_000

    def test_execute_unit_builds_no_device_client_or_subset(self, monkeypatch):
        n = self.N_DEVICES
        rng = np.random.default_rng(4)
        train = Dataset(
            rng.standard_normal((2 * n, 784), dtype=np.float32),
            rng.integers(0, 10, size=2 * n),
            10,
        )
        test = Dataset(
            rng.standard_normal((200, 784), dtype=np.float32),
            rng.integers(0, 10, size=200),
            10,
        )
        spec = RunSpec(
            name="fleet-10k",
            n_train=2 * n,
            n_test=200,
            n_servers=n,
            participants=100,
            epochs=1,
            max_rounds=2,
            train_to_target=False,
            backend="population",
        )
        clients = _count_inits(monkeypatch, EdgeServerClient)
        devices = _count_inits(monkeypatch, RaspberryPiEdgeServer)
        subsets = []
        subset = Dataset.subset

        def counting_subset(self, indices):
            subsets.append(len(indices))
            return subset(self, indices)

        monkeypatch.setattr(Dataset, "subset", counting_subset)
        generators = []
        default_rng = np.random.default_rng

        def counting_default_rng(*args, **kwargs):
            generators.append(args)
            return default_rng(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", counting_default_rng)
        result = execute_unit(spec, datasets=(train, test))
        assert result.rounds == 2
        assert clients == [] and devices == [] and subsets == []
        # The split, the sampler, and the dropout and resilience streams:
        # a handful whatever N is, not one per device.
        assert len(generators) <= 8


class TestLazyDevices:
    def test_lazy_device_draws_the_eager_sequence(self, data):
        train, test = data
        config = PrototypeConfig(
            n_servers=6, timing=PiTimingConfig(jitter_fraction=0.2), seed=3
        )
        prototype = HardwarePrototype(train, test, config)
        eager = RaspberryPiEdgeServer(
            server_id=4,
            timing=config.timing,
            powers=config.powers,
            channel=config.channel,
            rng=np.random.default_rng((config.seed, 4)),
        )
        download = model_download_message(config.model)
        upload = model_upload_message(config.model)
        lazy = prototype.devices[4]
        assert prototype.devices[4] is lazy
        for _ in range(5):
            assert lazy.round_timing(3, 100, download, upload) == (
                eager.round_timing(3, 100, download, upload)
            )

    def test_jitter_free_devices_get_no_generator(self, data):
        train, test = data
        prototype = HardwarePrototype(train, test, PrototypeConfig(n_servers=4))
        assert prototype.devices[2]._rng is None
        assert len(prototype.devices) == 4
        assert [d.server_id for d in prototype.devices] == [0, 1, 2, 3]
        with pytest.raises(IndexError):
            prototype.devices[4]


class TestVectorisedHeterogeneity:
    HETEROGENEITY = 0.3
    SEED = 5

    def _scalar_devices(self, n: int) -> list[RaspberryPiEdgeServer]:
        """The per-device loop the fleet's one (N, 2) draw replaces."""
        factor_rng = np.random.default_rng([self.SEED, 0x4A4D])
        timing, powers = PiTimingConfig(), StepPowers()
        devices = []
        for i in range(n):
            power_factor = float(
                np.clip(factor_rng.normal(1.0, self.HETEROGENEITY), 0.2, 3.0)
            )
            speed_factor = float(
                np.clip(factor_rng.normal(1.0, self.HETEROGENEITY), 0.2, 3.0)
            )
            devices.append(
                RaspberryPiEdgeServer(
                    server_id=i,
                    timing=PiTimingConfig(
                        tau0=timing.tau0 * speed_factor,
                        tau1=timing.tau1 * speed_factor,
                    ),
                    powers=powers.scaled(power_factor),
                )
            )
        return devices

    def test_columns_and_energy_params_match_the_scalar_loop(self):
        n = 1_000
        rng = np.random.default_rng(0)
        train = Dataset(rng.normal(size=(2 * n, 784)), rng.integers(0, 10, 2 * n), 10)
        prototype = HardwarePrototype(
            train,
            train,
            PrototypeConfig(
                n_servers=n, heterogeneity=self.HETEROGENEITY, seed=self.SEED
            ),
        )
        devices = self._scalar_devices(n)
        for i in (0, 1, 517, n - 1):
            assert prototype.devices[i].timing == devices[i].timing
            assert prototype.devices[i].powers == devices[i].powers
        params = prototype.heterogeneous_energy_params()
        upload = model_upload_message(prototype.config.model)
        expected_c0 = np.array([d.timing.tau0 * d.powers.training_w for d in devices])
        expected_c1 = np.array([d.timing.tau1 * d.powers.training_w for d in devices])
        expected_up = np.array([d.upload_energy(upload) for d in devices])
        np.testing.assert_array_equal(params.c0, expected_c0)
        np.testing.assert_array_equal(params.c1, expected_c1)
        np.testing.assert_array_equal(params.e_upload, expected_up)


class _TimingSpy:
    """Every ``round_timing`` draw, tagged with the round it fell in."""

    def __init__(self, monkeypatch) -> None:
        self.round = -1
        self.draws: list[tuple[int, int, object]] = []
        round_timing = RaspberryPiEdgeServer.round_timing
        run_round = FederatedTrainer.run_round
        spy = self

        def spied_round_timing(device, *args, **kwargs):
            timing = round_timing(device, *args, **kwargs)
            spy.draws.append((spy.round, device.server_id, timing))
            return timing

        def marked_run_round(trainer):
            # Round r's draws fall between its start and round r+1's:
            # the ranker draws inside run_round, the bill just after.
            spy.round = trainer.coordinator.rounds_completed
            return run_round(trainer)

        monkeypatch.setattr(
            RaspberryPiEdgeServer, "round_timing", spied_round_timing
        )
        monkeypatch.setattr(FederatedTrainer, "run_round", marked_run_round)


def _active_energy(device: RaspberryPiEdgeServer, timing) -> float:
    return (
        timing.downloading_s * device.powers.downloading_w
        + timing.training_s * device.powers.training_w
        + timing.uploading_s * device.powers.uploading_w
    )


class TestOnePricedRound:
    """Energy and duration of a jittered round come from one draw."""

    @pytest.mark.parametrize("overselection", [0, 2])
    def test_sync_round_is_priced_from_its_scheduled_draws(
        self, data, monkeypatch, overselection
    ):
        train, test = data
        prototype = HardwarePrototype(
            train,
            test,
            PrototypeConfig(
                n_servers=8,
                timing=PiTimingConfig(jitter_fraction=0.2),
                heterogeneity=0.2,
            ),
        )
        spy = _TimingSpy(monkeypatch)
        result = prototype.run(
            participants=3, epochs=2, n_rounds=4, overselection=overselection
        )
        wall_clock = 0.0
        for record in result.history.records:
            drawn = {
                server_id: timing
                for round_index, server_id, timing in spy.draws
                if round_index == record.round_index
            }
            draws = [d for d in spy.draws if d[0] == record.round_index]
            # Exactly one draw per participant, none for anyone else.
            assert sorted(sid for _, sid, _ in draws) == sorted(
                record.participants
            )
            energy = sum(
                _active_energy(prototype.devices[sid], drawn[sid])
                for sid in record.participants
            )
            assert result.energy_per_round_j[record.round_index] == (
                pytest.approx(energy, rel=1e-12)
            )
            awaited = record.aggregated or record.participants
            wall_clock += max(drawn[sid].total_s for sid in awaited)
        assert result.wall_clock_s == pytest.approx(wall_clock, rel=1e-12)

    def test_async_job_is_priced_from_its_scheduled_draw(
        self, data, monkeypatch
    ):
        train, test = data
        prototype = HardwarePrototype(
            train,
            test,
            PrototypeConfig(
                n_servers=4, timing=PiTimingConfig(jitter_fraction=0.3)
            ),
        )
        spy = _TimingSpy(monkeypatch)
        jobs: list[tuple[float, float]] = []
        job = prototype_module._RunLedger.job

        def recording_job(ledger, server_id):
            jobs.append(job(ledger, server_id))
            return jobs[-1]

        monkeypatch.setattr(prototype_module._RunLedger, "job", recording_job)
        _, total_energy = prototype.run_async(
            max_updates=10, epochs=2, eval_every=10
        )
        # One draw per scheduled job, in the order the jobs were priced.
        assert len(spy.draws) == len(jobs) >= 10
        for (energy, active_s), (_, server_id, timing) in zip(jobs, spy.draws):
            device = prototype.devices[server_id]
            assert energy == pytest.approx(
                _active_energy(device, timing), rel=1e-12
            )
            assert active_s == pytest.approx(
                timing.total_s - timing.waiting_s, rel=1e-12
            )
        assert total_energy == pytest.approx(
            sum(energy for energy, _ in jobs), rel=1e-12
        )
