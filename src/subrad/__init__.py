"""Dispersive-cavity simulator for preparing collectively dark atomic states."""

__version__ = "0.1.0"

from .fields import FieldSpec
from .model import SystemParams
from .dynamics import (
    Block,
    compile_propagator,
    evolve,
    spectrum,
    trajectory_rows,
)
from .perturb import (
    EffectiveModel,
    closed_form_corrections,
    effective_evolve,
    slow_model_error,
    validity_parameter,
)
from .protocol import (
    ProtocolOptions,
    ProtocolPlan,
    ProtocolReport,
    fidelity,
    phase_gate,
    plan,
    run,
)

__all__ = [
    "Block",
    "EffectiveModel",
    "FieldSpec",
    "ProtocolOptions",
    "ProtocolPlan",
    "ProtocolReport",
    "SystemParams",
    "closed_form_corrections",
    "compile_propagator",
    "effective_evolve",
    "evolve",
    "fidelity",
    "phase_gate",
    "plan",
    "run",
    "slow_model_error",
    "spectrum",
    "trajectory_rows",
    "validity_parameter",
]
