"""Unit tests for retry/backoff policies and the simulated upload."""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults.models import GilbertElliottModel, substream
from repro.faults.policies import (
    ResilienceConfig,
    RetryPolicy,
    RoundResilienceReport,
    UploadOutcome,
    simulate_upload,
)
from repro.net.channel import ChannelConfig


class TestRetryPolicy:
    def test_exponential_growth_capped(self) -> None:
        policy = RetryPolicy(
            base_backoff_s=0.1,
            backoff_factor=2.0,
            max_backoff_s=0.5,
            jitter_fraction=0.0,
        )
        assert policy.backoff_s(0) == pytest.approx(0.1)
        assert policy.backoff_s(1) == pytest.approx(0.2)
        assert policy.backoff_s(2) == pytest.approx(0.4)
        assert policy.backoff_s(3) == pytest.approx(0.5)  # capped
        assert policy.backoff_s(10) == pytest.approx(0.5)

    def test_jitter_stays_within_fraction_and_is_deterministic(self) -> None:
        policy = RetryPolicy(base_backoff_s=1.0, jitter_fraction=0.2)
        draws = [
            policy.backoff_s(0, np.random.default_rng(s)) for s in range(50)
        ]
        assert all(0.8 <= d <= 1.2 for d in draws)
        assert policy.backoff_s(0, np.random.default_rng(3)) == policy.backoff_s(
            0, np.random.default_rng(3)
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_retries": -1},
            {"base_backoff_s": -0.1},
            {"backoff_factor": 0.5},
            {"max_backoff_s": 0.01, "base_backoff_s": 0.1},
            {"jitter_fraction": 1.0},
        ],
    )
    def test_validation(self, kwargs: dict) -> None:
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_rejects_negative_retry_index(self) -> None:
        with pytest.raises(ValueError, match="retry_index"):
            RetryPolicy().backoff_s(-1)


class TestResilienceConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"upload_timeout_s": 0.0},
            {"round_deadline_s": -1.0},
            {"min_quorum": 0},
            {"nominal_train_s": -1.0},
        ],
    )
    def test_validation(self, kwargs: dict) -> None:
        with pytest.raises(ValueError):
            ResilienceConfig(**kwargs)


def _channel() -> ChannelConfig:
    return ChannelConfig(rate_bps=1e6, latency_s=0.0)


class TestSimulateUpload:
    def test_lossless_delivers_first_attempt(self) -> None:
        outcome = simulate_upload(
            _channel(), 12500, RetryPolicy(), np.random.default_rng(0)
        )
        assert outcome.delivered
        assert outcome.attempts == 1
        assert outcome.retries == 0
        assert outcome.backoff_s == 0.0
        assert outcome.transfer_s == pytest.approx(0.1)

    def test_retry_cap_exhaustion(self) -> None:
        always_lost = lambda: True  # noqa: E731
        policy = RetryPolicy(max_retries=2, jitter_fraction=0.0)
        outcome = simulate_upload(
            _channel(),
            12500,
            policy,
            np.random.default_rng(0),
            attempt_lost=always_lost,
        )
        assert not outcome.delivered
        assert not outcome.timed_out
        assert outcome.attempts == 3  # 1 + max_retries
        assert outcome.retries == 2
        # Backoff accrues only between attempts: retries 0 and 1.
        assert outcome.backoff_s == pytest.approx(0.1 + 0.2)
        assert outcome.total_s == pytest.approx(3 * 0.1 + 0.3)

    def test_timeout_budget_stops_before_attempt(self) -> None:
        always_lost = lambda: True  # noqa: E731
        policy = RetryPolicy(
            max_retries=50, base_backoff_s=0.0, jitter_fraction=0.0
        )
        outcome = simulate_upload(
            _channel(),
            12500,  # 0.1 s per attempt
            policy,
            np.random.default_rng(0),
            timeout_s=0.35,
            attempt_lost=always_lost,
        )
        assert not outcome.delivered
        assert outcome.timed_out
        assert outcome.attempts == 3  # a 4th attempt would exceed 0.35 s

    def test_burst_model_drives_losses_deterministically(self) -> None:
        def run() -> UploadOutcome:
            model = GilbertElliottModel(
                p_enter_bad=0.4, p_exit_bad=0.3, loss_bad=0.95
            )
            channel_rng = substream(7, "channel", 0)
            return simulate_upload(
                _channel(),
                12500,
                RetryPolicy(max_retries=5),
                substream(7, "resilience"),
                attempt_lost=lambda: model.attempt_lost(channel_rng),
            )

        first, second = run(), run()
        assert first == second

    def test_rejects_negative_bytes(self) -> None:
        with pytest.raises(ValueError, match="n_bytes"):
            simulate_upload(
                _channel(), -1, RetryPolicy(), np.random.default_rng(0)
            )


class TestRoundResilienceReport:
    def test_retry_and_backoff_aggregates(self) -> None:
        report = RoundResilienceReport(
            round_index=4,
            selected=(0, 1, 2),
            upload_attempts={0: 1, 1: 3, 2: 2},
            backoff_s={1: 0.3, 2: 0.1},
        )
        assert report.retries == 3
        assert report.total_backoff_s == pytest.approx(0.4)

    def test_to_dict_is_plain_types(self) -> None:
        report = RoundResilienceReport(
            round_index=0,
            selected=(np.int64(0),),
            crashed=(np.int64(1),),
            slowdowns={np.int64(2): np.float64(3.0)},
            upload_attempts={0: 2},
            backoff_s={0: 0.1},
            degraded=True,
            quorum=2,
        )
        data = report.to_dict()
        assert data["selected"] == [0]
        assert data["crashed"] == [1]
        assert data["slowdowns"] == {2: 3.0}
        assert data["retries"] == 1
        assert data["degraded"] is True
        flat = list(data.values())
        for value in flat:
            assert type(value) in (int, float, bool, list, dict)
