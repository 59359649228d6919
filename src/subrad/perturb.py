"""Second-order degenerate perturbation theory for the dispersive regime.

For one atomic excitation shared with n-1 photons, the N product states
with a single excited atom are degenerate under the free Hamiltonian at

    E0(n) = n omega_c - N omega_a / 2 - delta.

First order in the exchange coupling vanishes identically, so the leading
corrections come from the second-order effective matrix summed over the
other free levels of the same excitation block.  Its spectrum is given by
the closed forms

    dE_1 = (g^2/delta) (N n - 2N - 2n + 2)          (symmetric state)
    dE_i = dE_1 + N g^2 / delta,   i = 2..N         (dark states)

whose difference 2*alpha with alpha = N g^2 / (2 delta) is the slow Bohr
frequency that drives the protocol and is independent of the photon number.
"""

from __future__ import annotations

from math import sqrt

import numpy as np

# evolve is imported only for perfbench/selftest.py's tracer check
from .dynamics import Block, evolve, evolve_grid, single_excitation_pair  # noqa: F401
from .model import FrozenRecord, SystemParams


class EffectiveModel(FrozenRecord):
    """Closed-form second-order corrections and the slow rate (rad/s)."""

    __slots__ = ("delta_e1", "delta_ei", "alpha")  # delta_ei is None for a single atom

    def as_report(self) -> dict:
        return {
            "delta_e1_rad_s": self.delta_e1,
            "delta_ei_rad_s": self.delta_ei,
            "alpha_per_s": self.alpha,
        }


def closed_form_corrections(params: SystemParams, n: int) -> EffectiveModel:
    """Evaluate the closed-form second-order shifts for photon level n-1."""
    if n < 1:
        raise ValueError(f"sector index n must be >= 1, got {n}")
    nn = params.n_atoms
    shift = params.g**2 / params.delta
    de1 = shift * (nn * n - 2 * nn - 2 * n + 2)
    dei = de1 + nn * shift if nn >= 2 else None
    return EffectiveModel(delta_e1=de1, delta_ei=dei, alpha=params.alpha)


# ---------------------------------------------------------------------------
# Effective slow evolution from the control-excited state
# ---------------------------------------------------------------------------


def slow_amplitudes(params: SystemParams, t) -> tuple[np.ndarray, np.ndarray]:
    """Slow-model amplitudes of the control-excited and of each other configuration.

    Starting from the control atom excited (N >= 2 atoms), the
    single-excitation amplitude on the control atom is
    (N cos(alpha t) - i (N-2) sin(alpha t)) / N and on each other atom
    2i sin(alpha t) / N, both times exp(i alpha t), the gauge in which the
    dark component is real positive.  t may be an array.
    """
    nn = params.n_atoms
    at = params.alpha * np.asarray(t, dtype=float)
    phase = np.exp(1j * at)
    control = (nn * np.cos(at) - 1j * (nn - 2) * np.sin(at)) / nn
    other = 2j * np.sin(at) / nn
    return phase * control, phase * other


# ---------------------------------------------------------------------------
# Validity of the dispersive treatment
# ---------------------------------------------------------------------------

VALIDITY_OK = 0.1
VALIDITY_MARGINAL = 0.3


def validity_parameter(params: SystemParams, mean_n: float) -> float:
    """Smallness parameter (g/|delta|) sqrt(N <n> + N).

    The extra +N inside the root keeps the photon-independent part of the
    collective coupling guarded near <n> = 0, where the asymptotic bound
    alone would report zero.
    """
    if mean_n < 0:
        raise ValueError(f"mean photon number must be >= 0, got {mean_n}")
    nn = params.n_atoms
    return abs(params.g / params.delta) * sqrt(nn * mean_n + nn)


def validity_grade(value: float) -> str:
    if value < VALIDITY_OK:
        return "ok"
    if value < VALIDITY_MARGINAL:
        return "marginal"
    return "invalid"


# ---------------------------------------------------------------------------
# Exact-vs-slow coefficient comparison
# ---------------------------------------------------------------------------


def slow_model_error(block: Block, psi: np.ndarray, times) -> float:
    """Largest coefficient deviation of the exact dynamics from the slow model.

    The single-excitation amplitudes of exp(-iHt) psi are taken at each
    time, globally phased so the dark-target component is real positive
    (the gauge of the slow model), and compared entry by entry with
    `slow_amplitudes`.  The deviation at each time is normalized by
    the largest predicted amplitude, which keeps the measure finite where
    individual coefficients pass through zero; the maximum over the grid is
    returned.  Every non-control atom carries psi01 / sqrt(N-1), so two
    columns suffice.
    """
    nn = block.params.n_atoms
    if nn < 2:
        raise ValueError("comparison needs at least two atoms")
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        raise ValueError("comparison needs at least one time")
    grid = evolve_grid(block, psi, times)
    s, d = (np.concatenate(column) for column in zip(*(block.rung_one(a) for a in grid)))
    control, other = single_excitation_pair(nn, s, d)
    other = other / sqrt(nn - 1)
    dark = (nn - 1) * (control - other) / sqrt(nn * (nn - 1))
    phase = np.divide(np.abs(dark), dark, out=np.ones_like(dark), where=dark != 0)
    slow_control, slow_other = slow_amplitudes(block.params, times)
    dev = np.maximum(np.abs(control * phase - slow_control), np.abs(other * phase - slow_other))
    return float(np.max(dev / np.maximum(np.abs(slow_control), np.abs(slow_other))))
