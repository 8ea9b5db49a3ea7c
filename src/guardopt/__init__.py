"""Adaptive guard-band / guard-duration toolkit for windowed OFDM.

Synthesizes RC-windowed OFDM streams, measures out-of-band leakage, jointly
optimizes guard band and guard duration per interference threshold, and
schedules asynchronous users onto adjacent bands to minimize guard overhead.
"""
from .numerology import NumerologyConfig, WindowSpec
from .optimizer import (
    GuardAllocation,
    LookupTable,
    build_lookup_table,
    efficiency_curve,
    optimize_guards,
    spectral_efficiency,
)
from .scheduler import (
    SchedulePlan,
    UserProfile,
    allocate_guards,
    compare_scenarios,
    schedule_interference_based,
    schedule_random,
    theta_for_assignment,
)
from .spectrum import (
    AciReport,
    PsdEstimate,
    ThetaUnreachableError,
    estimate_psd,
    measure_aci,
    required_guard_band,
    windowed_psd,
)
from .waveform import symbol_stream

__all__ = [
    "AciReport",
    "GuardAllocation",
    "LookupTable",
    "NumerologyConfig",
    "PsdEstimate",
    "SchedulePlan",
    "ThetaUnreachableError",
    "UserProfile",
    "WindowSpec",
    "allocate_guards",
    "build_lookup_table",
    "compare_scenarios",
    "efficiency_curve",
    "estimate_psd",
    "measure_aci",
    "optimize_guards",
    "required_guard_band",
    "schedule_interference_based",
    "schedule_random",
    "spectral_efficiency",
    "symbol_stream",
    "theta_for_assignment",
    "windowed_psd",
]

__version__ = "0.1.0"
