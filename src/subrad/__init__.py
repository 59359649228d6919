"""Dispersive-cavity simulator for preparing collectively dark atomic states."""

__version__ = "0.1.0"

from .fields import FieldSpec
from .model import SystemParams
from .dynamics import (
    Block,
    compile_propagator,
    evolve,
    spectrum,
)
from .perturb import (
    closed_form_corrections,
    slow_amplitudes,
    slow_model_error,
    validity_parameter,
)
from .protocol import (
    ProtocolOptions,
    ProtocolPlan,
    ProtocolReport,
    phase_gate,
    plan,
    run,
    trajectory,
)

__all__ = [
    "Block",
    "FieldSpec",
    "ProtocolOptions",
    "ProtocolPlan",
    "ProtocolReport",
    "SystemParams",
    "closed_form_corrections",
    "compile_propagator",
    "evolve",
    "phase_gate",
    "plan",
    "run",
    "slow_amplitudes",
    "slow_model_error",
    "spectrum",
    "trajectory",
    "validity_parameter",
]
