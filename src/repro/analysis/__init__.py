"""Experiment harnesses: sweeps, scaling model, microbenchmarks, tables."""

from repro.analysis.loopback import (
    InterfaceKind,
    LoopbackSetup,
    build_interface,
    run_point,
    saturation,
)
from repro.analysis.profile import ProfileRun, run_profile
from repro.analysis.scaling import CurvePoint, ScalingModel, throughput_latency_curve
from repro.analysis.tables import format_table

__all__ = [
    "CurvePoint",
    "InterfaceKind",
    "LoopbackSetup",
    "ProfileRun",
    "ScalingModel",
    "build_interface",
    "format_table",
    "run_point",
    "run_profile",
    "saturation",
    "throughput_latency_curve",
]
