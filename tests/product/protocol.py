"""The protocol's phase gate and dark-subspace weight on the 2^N product basis."""

from __future__ import annotations

import cmath

import numpy as np

from subrad.protocol import NoSubradiantSectorError

from .dynamics import AtomicDensity, dark_weight
from .hilbert import PureState, atom_code, symmetric_atomic_vector


def phase_gate(state: PureState, phi: float, control_index: int = 0) -> PureState:
    """Multiply every amplitude with the control atom excited by exp(-i phi)."""
    basis = state.basis
    bit = atom_code(control_index, basis.n_atoms)
    factor = cmath.exp(-1j * phi)
    out = {}
    for m, v in state.block_amps.items():
        excited = np.array([code & bit for code, _ in basis.block(m).states], dtype=bool)
        out[m] = np.where(excited, v * factor, v)
    return PureState(basis, out)


def dfs_weight(state, n_photons: int | None = None) -> float:
    """Weight inside the N-1 dimensional dark atomic subspace.

    Accepts a PureState (field marginalized by default, or conditioned on
    one Fock level via n_photons) or an AtomicDensity.
    """
    density = isinstance(state, AtomicDensity)
    n_atoms = state.n_atoms if density else state.basis.n_atoms
    if n_atoms < 2:
        raise NoSubradiantSectorError("no subradiant sector for a single atom")
    if not density:
        return dark_weight(state, n_photons)
    # trace over the single-excitation configs minus the symmetric projection
    codes = [atom_code(k, n_atoms) for k in range(n_atoms)]
    single = state.matrix[np.ix_(codes, codes)]
    sym = symmetric_atomic_vector(n_atoms)
    return float(np.trace(single).real - (sym @ single @ sym).real)
