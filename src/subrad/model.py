"""System parameters and block-restricted operators.

Everything works in hbar = 1 units with angular frequencies in rad/s, so
"energy" and "frequency" coincide.  The full Hamiltonian

    H = omega_a * J_z + omega_c * a'a + g * (a' J- + a J+)

conserves the total excitation number, so H (and every other conserving
operator) is held as one Hermitian matrix per excitation block.  Ladder
operators that shift the excitation number by one are held as per-block
rectangular maps instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .hilbert import AtomFieldBasis, PureState, batched_vdot, config_excitations

HERMITICITY_TOL = 1e-12


@dataclass(frozen=True)
class SystemParams:
    """Atom count, frequencies and coupling, with the derived slow scale.

    omega_a may be zero: that is the atomic rotating frame, in which only
    the detuning delta = omega_c - omega_a enters the block dynamics.
    """

    n_atoms: int
    omega_a: float  # atomic transition frequency, rad/s
    omega_c: float  # cavity mode frequency, rad/s
    g: float  # coupling, rad/s

    def __post_init__(self):
        if self.n_atoms < 1:
            raise ValueError(f"need at least one atom, got {self.n_atoms}")
        if self.g <= 0:
            raise ValueError(f"coupling must be positive, got {self.g}")
        if self.omega_c == self.omega_a:
            raise ValueError("detuning vanishes (omega_c == omega_a)")

    @property
    def delta(self) -> float:
        """Cavity-atom detuning omega_c - omega_a (rad/s)."""
        return self.omega_c - self.omega_a

    @property
    def alpha(self) -> float:
        """Slow dispersive rate N g^2 / (2 delta) (1/s), photon-independent."""
        return self.n_atoms * self.g**2 / (2.0 * self.delta)

    @property
    def is_perturbative(self) -> bool:
        """Advisory flag: |g/delta| <= 0.1."""
        return abs(self.g / self.delta) <= 0.1

    @classmethod
    def from_detuning_ratio(
        cls, n_atoms: int, g: float, delta_over_g: float
    ) -> "SystemParams":
        """Atomic-frame parameters fixed by the coupling and delta/g alone."""
        return cls(n_atoms=n_atoms, omega_a=0.0, omega_c=delta_over_g * g, g=g)


# ---------------------------------------------------------------------------
# Operator containers
# ---------------------------------------------------------------------------


class BlockDiagonalOperator:
    """Excitation-conserving Hermitian operator, one matrix per block."""

    def __init__(self, basis: AtomFieldBasis, blocks: dict[int, np.ndarray]):
        self.basis = basis
        self.blocks = {m: np.asarray(a, dtype=complex) for m, a in blocks.items()}

    def block(self, m_total: int) -> np.ndarray:
        return self.blocks[m_total]

    def apply(self, state: PureState) -> PureState:
        out = {}
        for m, v in state.block_amps.items():
            if m not in self.blocks:
                raise KeyError(f"operator not built for excitation block {m}")
            out[m] = self.blocks[m] @ v
        return PureState(state.basis, out)

    def expectation(self, state: PureState) -> float:
        return float(self.expectations(state.block_amps))

    def expectations(self, block_amps: dict[int, np.ndarray]) -> np.ndarray:
        """<psi|O|psi> for amplitudes of shape (..., dim) per block, e.g. a time grid."""
        val = 0.0j
        applied_sq = 0.0
        for m, v in block_amps.items():
            if m not in self.blocks:
                raise KeyError(f"operator not built for excitation block {m}")
            w = (self.blocks[m] @ v.T).T
            val = val + batched_vdot(v, w)
            applied_sq = applied_sq + batched_vdot(w, w).real
        # imaginary residue judged against the operator's action, not 1.0
        scale = np.maximum(np.abs(val), np.sqrt(applied_sq))
        bad = np.abs(np.imag(val)) > 1e-12 * scale
        if np.any(bad):
            worst = np.asarray(val)[bad]
            raise ValueError(f"expectation of a Hermitian operator came out complex: {worst}")
        return np.real(val)

    def hermiticity_error(self) -> float:
        """max over blocks of ||A - A'|| / ||A|| (Frobenius), 0 for empty."""
        worst = 0.0
        for a in self.blocks.values():
            nrm = np.linalg.norm(a)
            if nrm == 0.0:
                continue
            worst = max(worst, float(np.linalg.norm(a - a.conj().T) / nrm))
        return worst

    def dump_csv(self, path) -> None:
        """Debug dump of nonzero elements as flat-index rows: row,col,re,im."""
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("row,col,re,im\n")
            for m in sorted(self.blocks):
                a = self.blocks[m]
                off = self.basis.block(m).offset
                rows, cols = np.nonzero(a)
                for r, c in zip(rows, cols):
                    z = a[r, c]
                    fh.write(f"{off + r},{off + c},{z.real:.17g},{z.imag:.17g}\n")


class BlockShiftOperator:
    """Operator shifting the total excitation by `dm`, e.g. J- or a.

    `blocks[m]` maps amplitudes of block m into block m + dm.  Matrix
    elements that would leave the truncated space are simply absent.
    """

    def __init__(self, basis: AtomFieldBasis, dm: int, blocks: dict[int, np.ndarray]):
        self.basis = basis
        self.dm = dm
        self.blocks = {m: np.asarray(a, dtype=complex) for m, a in blocks.items()}

    def apply(self, state: PureState) -> PureState:
        out: dict[int, np.ndarray] = {}
        for m, v in state.block_amps.items():
            a = self.blocks.get(m)
            if a is None:
                continue
            tgt = m + self.dm
            w = a @ v
            if tgt in out:
                out[tgt] += w
            else:
                out[tgt] = w
        if not out:  # annihilated entirely; represent as a zero vector on block 0
            out = {0: np.zeros(state.basis.block(0).dim, dtype=complex)}
        return PureState(state.basis, out)


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def _wanted(basis: AtomFieldBasis, block_ids) -> list[int]:
    return basis.block_ids if block_ids is None else sorted(block_ids)


def h0_diagonal(params: SystemParams, basis: AtomFieldBasis, m_total: int) -> np.ndarray:
    """Diagonal of the free Hamiltonian on one block (rad/s)."""
    blk = basis.block(m_total)
    return np.array(
        [
            params.omega_a * (config_excitations(code) - params.n_atoms / 2.0)
            + params.omega_c * n
            for code, n in blk.states
        ]
    )


def build_h0(
    params: SystemParams, basis: AtomFieldBasis, block_ids=None
) -> BlockDiagonalOperator:
    """Free Hamiltonian omega_a J_z + omega_c a'a, diagonal in the product basis."""
    return BlockDiagonalOperator(
        basis,
        {m: np.diag(h0_diagonal(params, basis, m)).astype(complex) for m in _wanted(basis, block_ids)},
    )


def _hint_block(params: SystemParams, basis: AtomFieldBasis, m_total: int) -> np.ndarray:
    blk = basis.block(m_total)
    n_atoms = basis.n_atoms
    a = np.zeros((blk.dim, blk.dim), dtype=complex)
    g = params.g
    for j, (code, n) in enumerate(blk.states):
        # a' J-: lower one excited atom, add a photon
        if n + 1 <= basis.n_max:
            amp = g * sqrt(n + 1)
            for k in range(n_atoms):
                bit = 1 << (n_atoms - 1 - k)
                if code & bit:
                    i = basis.local_index(code & ~bit, n + 1)
                    a[i, j] += amp
        # a J+: raise one ground atom, remove a photon
        if n >= 1:
            amp = g * sqrt(n)
            for k in range(n_atoms):
                bit = 1 << (n_atoms - 1 - k)
                if not code & bit:
                    i = basis.local_index(code | bit, n - 1)
                    a[i, j] += amp
    return a


def build_hint(
    params: SystemParams, basis: AtomFieldBasis, block_ids=None
) -> BlockDiagonalOperator:
    """Exchange interaction g (a' J- + a J+); block diagonal by construction."""
    return BlockDiagonalOperator(
        basis, {m: _hint_block(params, basis, m) for m in _wanted(basis, block_ids)}
    )


def build_hamiltonian(
    params: SystemParams, basis: AtomFieldBasis, block_ids=None
) -> BlockDiagonalOperator:
    """Total Hamiltonian H0 + Hint."""
    out = {}
    for m in _wanted(basis, block_ids):
        h = _hint_block(params, basis, m)
        h[np.diag_indices_from(h)] += h0_diagonal(params, basis, m)
        out[m] = h
    return BlockDiagonalOperator(basis, out)


def collective_operator(basis: AtomFieldBasis, which: str, block_ids=None):
    """Collective atomic and field operators restricted to blocks.

    which: one of "J+", "J-", "Jz", "a", "a+", "J+J-".  Conserving choices
    ("Jz", "J+J-") return a BlockDiagonalOperator; the rest return
    BlockShiftOperators (J+ and a+ lose matrix elements at the Fock/atom
    ceiling, where the target state does not exist).
    """
    n_atoms = basis.n_atoms
    wanted = _wanted(basis, block_ids)

    if which == "Jz":
        blocks = {}
        for m in wanted:
            blk = basis.block(m)
            diag = [config_excitations(code) - n_atoms / 2.0 for code, _ in blk.states]
            blocks[m] = np.diag(diag).astype(complex)
        return BlockDiagonalOperator(basis, blocks)

    if which == "J+J-":
        blocks = {}
        for m in wanted:
            blk = basis.block(m)
            a = np.zeros((blk.dim, blk.dim), dtype=complex)
            for j, (code, n) in enumerate(blk.states):
                for l in range(n_atoms):
                    lbit = 1 << (n_atoms - 1 - l)
                    if not code & lbit:
                        continue
                    lowered = code & ~lbit
                    for k in range(n_atoms):
                        kbit = 1 << (n_atoms - 1 - k)
                        if lowered & kbit:
                            continue
                        a[basis.local_index(lowered | kbit, n), j] += 1.0
            blocks[m] = a
        return BlockDiagonalOperator(basis, blocks)

    if which in ("J+", "J-"):
        dm = +1 if which == "J+" else -1
        blocks = {}
        for m in wanted:
            tgt = m + dm
            if tgt not in basis.block_ids:
                continue
            blk = basis.block(m)
            a = np.zeros((basis.block(tgt).dim, blk.dim), dtype=complex)
            for j, (code, n) in enumerate(blk.states):
                for k in range(n_atoms):
                    bit = 1 << (n_atoms - 1 - k)
                    if which == "J-" and code & bit:
                        a[basis.local_index(code & ~bit, n), j] += 1.0
                    elif which == "J+" and not code & bit:
                        a[basis.local_index(code | bit, n), j] += 1.0
            blocks[m] = a
        return BlockShiftOperator(basis, dm, blocks)

    if which in ("a", "a+"):
        dm = -1 if which == "a" else +1
        blocks = {}
        for m in wanted:
            tgt = m + dm
            if tgt not in basis.block_ids:
                continue
            blk = basis.block(m)
            a = np.zeros((basis.block(tgt).dim, blk.dim), dtype=complex)
            for j, (code, n) in enumerate(blk.states):
                if which == "a" and n >= 1:
                    a[basis.local_index(code, n - 1), j] = sqrt(n)
                elif which == "a+" and n + 1 <= basis.n_max:
                    a[basis.local_index(code, n + 1), j] = sqrt(n + 1)
            blocks[m] = a
        return BlockShiftOperator(basis, dm, blocks)

    raise ValueError(f"unknown collective operator {which!r}")
