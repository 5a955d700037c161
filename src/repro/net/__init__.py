"""Edge-server <-> coordinator link: transfer time and message sizes."""

from repro.net.channel import ChannelConfig
from repro.net.messages import (
    ModelMessage,
    model_download_message,
    model_upload_message,
)

__all__ = [
    "ChannelConfig",
    "ModelMessage",
    "model_download_message",
    "model_upload_message",
]
