"""Dispersive-cavity simulator for preparing collectively dark atomic states."""

__version__ = "0.1.0"

from .fields import FieldSpec
from .hilbert import (
    AtomFieldBasis,
    PureState,
    build_basis,
    control_excited_state,
    subradiant_basis,
    subradiant_target,
    symmetric_state,
)
from .model import (
    BlockDiagonalOperator,
    BlockShiftOperator,
    SystemParams,
    build_h0,
    build_hamiltonian,
    build_hint,
    collective_operator,
)
from .dynamics import (
    AtomicDensity,
    Propagator,
    compile_propagator,
    evolve,
    reduce_atomic,
)
from .perturb import (
    EffectiveModel,
    build_sector,
    closed_form_corrections,
    effective_evolve,
    second_order_matrix,
    validity_parameter,
)
from .protocol import (
    ProtocolOptions,
    ProtocolPlan,
    ProtocolReport,
    dfs_weight,
    phase_gate,
    plan,
    run,
)

__all__ = [
    "AtomFieldBasis",
    "AtomicDensity",
    "BlockDiagonalOperator",
    "BlockShiftOperator",
    "EffectiveModel",
    "FieldSpec",
    "ProtocolOptions",
    "ProtocolPlan",
    "ProtocolReport",
    "Propagator",
    "PureState",
    "SystemParams",
    "build_basis",
    "build_h0",
    "build_hamiltonian",
    "build_hint",
    "build_sector",
    "closed_form_corrections",
    "collective_operator",
    "compile_propagator",
    "control_excited_state",
    "dfs_weight",
    "effective_evolve",
    "evolve",
    "phase_gate",
    "plan",
    "reduce_atomic",
    "run",
    "second_order_matrix",
    "subradiant_basis",
    "subradiant_target",
    "symmetric_state",
    "validity_parameter",
]
