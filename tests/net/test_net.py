"""Unit tests for the edge link: transfer time and message sizes."""

from __future__ import annotations

import pytest

from repro.fl.model import LogisticRegressionConfig
from repro.net.channel import ChannelConfig
from repro.net.messages import (
    ModelMessage,
    model_download_message,
    model_upload_message,
)


class TestMessages:
    def test_payload_from_model_size(self) -> None:
        config = LogisticRegressionConfig(n_features=784, n_classes=10)
        message = model_download_message(config)
        assert message.payload_bytes == (784 * 10 + 10) * 4
        assert message.total_bytes == message.payload_bytes + message.header_bytes
        assert message.total_bits == 8 * message.total_bytes

    def test_upload_and_download_same_size(self) -> None:
        config = LogisticRegressionConfig()
        assert (
            model_upload_message(config).total_bytes
            == model_download_message(config).total_bytes
        )

    def test_dtype_bytes(self) -> None:
        config = LogisticRegressionConfig(n_features=10, n_classes=2)
        assert model_upload_message(config, dtype_bytes=8).payload_bytes == 22 * 8

    def test_rejects_bad_direction(self) -> None:
        with pytest.raises(ValueError, match="direction"):
            ModelMessage("sideways", 100)

    def test_rejects_negative_sizes(self) -> None:
        with pytest.raises(ValueError, match="non-negative"):
            ModelMessage("upload", -1)


class TestChannel:
    def test_attempt_duration_is_latency_plus_serialisation(self) -> None:
        channel = ChannelConfig(rate_bps=1e6, latency_s=0.01)
        assert channel.transfer_s(12500) == pytest.approx(0.01 + 0.1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rate_bps": 0.0},
            {"latency_s": -0.1},
        ],
    )
    def test_rejects_invalid_config(self, kwargs: dict) -> None:
        with pytest.raises(ValueError):
            ChannelConfig(**kwargs)

    def test_rejects_negative_bytes(self) -> None:
        with pytest.raises(ValueError, match="n_bytes"):
            ChannelConfig().transfer_s(-1)
