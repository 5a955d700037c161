"""Simulated hardware prototype: Raspberry Pis, power meters, testbed."""

from repro.hardware.analysis import (
    PhaseEstimate,
    RoundEstimate,
    TraceAnalysis,
    analyze_trace,
)
from repro.hardware.fleet import DeviceFleet
from repro.hardware.power_meter import MeterConfig, PowerMeter
from repro.hardware.power_model import RoundPhase, StepPowers
from repro.hardware.prototype import (
    HardwarePrototype,
    PrototypeConfig,
    PrototypeResult,
)
from repro.hardware.raspberry_pi import (
    PiTimingConfig,
    RaspberryPiEdgeServer,
    RoundTiming,
)
from repro.hardware.trace import PowerTrace
from repro.hardware.trace_io import (
    load_trace_csv,
    save_trace_csv,
    trace_from_csv,
    trace_to_csv,
)

__all__ = [
    "PhaseEstimate",
    "RoundEstimate",
    "TraceAnalysis",
    "analyze_trace",
    "DeviceFleet",
    "MeterConfig",
    "PowerMeter",
    "RoundPhase",
    "StepPowers",
    "HardwarePrototype",
    "PrototypeConfig",
    "PrototypeResult",
    "PiTimingConfig",
    "RaspberryPiEdgeServer",
    "RoundTiming",
    "PowerTrace",
    "load_trace_csv",
    "save_trace_csv",
    "trace_from_csv",
    "trace_to_csv",
]
