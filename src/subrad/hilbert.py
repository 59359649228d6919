"""Joint Hilbert space of N two-level atoms and one truncated cavity mode.

Basis states are products |b_1 b_2 ... b_N> (x) |n> of an atomic bitstring
(0 = ground, 1 = excited; atom 1 is the leftmost bit) and a Fock level
0 <= n <= n_max.  The exchange interaction conserves the total excitation
number M = (number of excited atoms) + n, so the basis is partitioned into
excitation blocks and every operator in this package is stored block by
block.

Atomic configurations are encoded as integers whose binary digits, read
left to right, give the state of atoms 1..N (atom k excited <=> bit
N-1-k set, so lexicographic bitstring order equals numeric order).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from math import comb, sqrt

import numpy as np

DEFAULT_MAX_DIM = 5_000_000
MAX_DIM_ENV = "SUBRAD_MAX_DIM"

NORM_TOL = 1e-10


class BasisSizeError(ValueError):
    """Requested space exceeds the configured dimension cap."""

    def __init__(self, n_atoms: int, n_max: int, dim: int, cap: int):
        self.n_atoms = n_atoms
        self.n_max = n_max
        self.dim = dim
        self.cap = cap
        super().__init__(
            f"basis for N={n_atoms} atoms and n_max={n_max} has dimension "
            f"2^{n_atoms}*{n_max + 1} = {dim}, above the cap {cap} "
            f"(override with {MAX_DIM_ENV})"
        )


def batched_vdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.vdot over the last axis, broadcast over the leading ones (same rounding)."""
    return (np.conj(a)[..., None, :] @ b[..., :, None])[..., 0, 0]


def dimension_cap() -> int:
    """Active dimension cap, overridable via the SUBRAD_MAX_DIM env var."""
    raw = os.environ.get(MAX_DIM_ENV)
    return int(raw) if raw else DEFAULT_MAX_DIM


@dataclass(frozen=True)
class AtomConfig:
    """One atomic product configuration, e.g. bits=(1,0,0) for |100>."""

    bits: tuple[int, ...]

    def __post_init__(self):
        if len(self.bits) < 1 or any(b not in (0, 1) for b in self.bits):
            raise ValueError(f"bits must be a nonempty 0/1 tuple, got {self.bits}")

    @property
    def n_atoms(self) -> int:
        return len(self.bits)

    @property
    def excitation_count(self) -> int:
        return sum(self.bits)

    @classmethod
    def from_int(cls, code: int, n_atoms: int) -> "AtomConfig":
        return cls(tuple((code >> (n_atoms - 1 - k)) & 1 for k in range(n_atoms)))

    def to_int(self) -> int:
        code = 0
        for b in self.bits:
            code = (code << 1) | b
        return code

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)


def config_excitations(code: int) -> int:
    return bin(code).count("1")


def atom_code(atom_index: int, n_atoms: int) -> int:
    """Configuration with exactly atom `atom_index` (0-based) excited."""
    if not 0 <= atom_index < n_atoms:
        raise ValueError(f"atom index {atom_index} out of range for N={n_atoms}")
    return 1 << (n_atoms - 1 - atom_index)


def dicke_multiplicity(n_atoms: int, j: float) -> int:
    """Number of inequivalent collective-spin-j ladders for N spin-1/2 atoms."""
    two_j = round(2 * j)
    if two_j < 0 or two_j > n_atoms or (n_atoms - two_j) % 2:
        return 0
    k = (n_atoms - two_j) // 2
    return comb(n_atoms, k) - (comb(n_atoms, k - 1) if k >= 1 else 0)


@dataclass(frozen=True)
class DickeLabel:
    """Collective-spin labels (j, m, lam) of a symmetrized atomic state."""

    j: float
    m: float
    lam: int

    @classmethod
    def for_atoms(cls, n_atoms: int, j: float, m: float, lam: int) -> "DickeLabel":
        if abs(m) > j or j > n_atoms / 2:
            raise ValueError(f"need |m| <= j <= N/2, got j={j}, m={m}, N={n_atoms}")
        if round(2 * j) % 2 != n_atoms % 2:
            raise ValueError(f"j={j} does not have the parity of N/2 for N={n_atoms}")
        mult = dicke_multiplicity(n_atoms, j)
        if not 1 <= lam <= mult:
            raise ValueError(f"lam={lam} outside 1..{mult} for (N={n_atoms}, j={j})")
        return cls(j, m, lam)


@dataclass(frozen=True)
class ExcitationBlock:
    """All basis states with a fixed total excitation M, in canonical order.

    Canonical order is (photon number descending, bitstring ascending):
    it fixes the flat index map so emitted amplitude tables reproduce
    bit-identically across runs.  `truncated` marks blocks that lost their
    high-photon states to the Fock cutoff.
    """

    m_total: int
    states: tuple[tuple[int, int], ...]  # (config code, photon number)
    offset: int
    truncated: bool

    @property
    def dim(self) -> int:
        return len(self.states)


class AtomFieldBasis:
    """Indexed product basis partitioned into total-excitation blocks."""

    def __init__(self, n_atoms: int, n_max: int, max_dim: int | None = None):
        if n_atoms < 1:
            raise ValueError(f"need at least one atom, got {n_atoms}")
        if n_max < 0:
            raise ValueError(f"Fock truncation must be >= 0, got {n_max}")
        cap = dimension_cap() if max_dim is None else max_dim
        dim = (1 << n_atoms) * (n_max + 1)
        if dim > cap:
            raise BasisSizeError(n_atoms, n_max, dim, cap)

        self.n_atoms = n_atoms
        self.n_max = n_max
        self.dim = dim

        # Group configurations by excitation count once; reused per block.
        by_exc: list[list[int]] = [[] for _ in range(n_atoms + 1)]
        for code in range(1 << n_atoms):
            by_exc[config_excitations(code)].append(code)

        blocks: dict[int, ExcitationBlock] = {}
        positions: dict[int, dict[tuple[int, int], int]] = {}
        offset = 0
        for m in range(n_atoms + n_max + 1):
            states: list[tuple[int, int]] = []
            for n in range(min(m, n_max), -1, -1):  # photon number descending
                k = m - n
                if k > n_atoms:
                    continue
                states.extend((code, n) for code in by_exc[k])
            blocks[m] = ExcitationBlock(
                m_total=m,
                states=tuple(states),
                offset=offset,
                truncated=m > n_max,
            )
            positions[m] = {st: i for i, st in enumerate(states)}
            offset += len(states)
        assert offset == dim
        self._blocks = blocks
        self._positions = positions
        # Block-local index of "only atom k excited, m-1 photons", in atom
        # order, for m = 1..n_max+1: every single-excitation readout uses it.
        self.single_excitation_index = {
            m: np.array(
                [positions[m][(atom_code(k, n_atoms), m - 1)] for k in range(n_atoms)]
            )
            for m in range(1, n_max + 2)
        }

    # -- lookup ------------------------------------------------------------

    @property
    def block_ids(self) -> list[int]:
        return sorted(self._blocks)

    def block(self, m_total: int) -> ExcitationBlock:
        return self._blocks[m_total]

    def block_of(self, code: int, n_photons: int) -> int:
        return config_excitations(code) + n_photons

    def local_index(self, code: int, n_photons: int) -> int:
        m = self.block_of(code, n_photons)
        return self._positions[m][(code, n_photons)]

    def flat_index(self, code: int, n_photons: int) -> int:
        m = self.block_of(code, n_photons)
        return self._blocks[m].offset + self._positions[m][(code, n_photons)]

    def state_at(self, flat: int) -> tuple[int, int]:
        if not 0 <= flat < self.dim:
            raise IndexError(f"flat index {flat} outside 0..{self.dim - 1}")
        for m in self.block_ids:
            blk = self._blocks[m]
            if flat < blk.offset + blk.dim:
                return blk.states[flat - blk.offset]
        raise AssertionError("unreachable")

    def block_dim_untruncated(self, m_total: int) -> int:
        """Block size the exchange symmetry alone would give (no Fock cutoff)."""
        return sum(comb(self.n_atoms, k) for k in range(min(m_total, self.n_atoms) + 1))

    def __repr__(self) -> str:
        return f"AtomFieldBasis(n_atoms={self.n_atoms}, n_max={self.n_max}, dim={self.dim})"


def build_basis(n_atoms: int, n_max: int, max_dim: int | None = None) -> AtomFieldBasis:
    """Construct the indexed atom-field basis with its excitation blocks."""
    return AtomFieldBasis(n_atoms, n_max, max_dim=max_dim)


# ---------------------------------------------------------------------------
# States
# ---------------------------------------------------------------------------


class PureState:
    """Normalized amplitude vector over the product basis, stored per block."""

    def __init__(self, basis: AtomFieldBasis, block_amps: dict[int, np.ndarray]):
        self.basis = basis
        self.block_amps = {
            m: np.asarray(v, dtype=complex) for m, v in block_amps.items()
        }
        for m, v in self.block_amps.items():
            if v.shape != (basis.block(m).dim,):
                raise ValueError(
                    f"block {m} amplitude vector has shape {v.shape}, "
                    f"expected ({basis.block(m).dim},)"
                )

    @classmethod
    def from_amplitudes(
        cls, basis: AtomFieldBasis, amps: dict[tuple[int, int], complex]
    ) -> "PureState":
        block_amps: dict[int, np.ndarray] = {}
        for (code, n), a in amps.items():
            m = basis.block_of(code, n)
            if m not in block_amps:
                block_amps[m] = np.zeros(basis.block(m).dim, dtype=complex)
            block_amps[m][basis.local_index(code, n)] = a
        return cls(basis, block_amps)

    def norm(self) -> float:
        return sqrt(sum(float(np.vdot(v, v).real) for v in self.block_amps.values()))

    def inner(self, other: "PureState") -> complex:
        """<self|other> over the shared basis."""
        if other.basis is not self.basis and (
            other.basis.n_atoms != self.basis.n_atoms
            or other.basis.n_max != self.basis.n_max
        ):
            raise ValueError("states live on incompatible bases")
        acc = 0.0 + 0.0j
        for m, v in self.block_amps.items():
            w = other.block_amps.get(m)
            if w is not None:
                acc += np.vdot(v, w)
        return complex(acc)

    def amplitude(self, code: int, n_photons: int) -> complex:
        m = self.basis.block_of(code, n_photons)
        v = self.block_amps.get(m)
        if v is None:
            return 0.0 + 0.0j
        return complex(v[self.basis.local_index(code, n_photons)])

    def block_weights(self) -> dict[int, float]:
        return {m: float(np.vdot(v, v).real) for m, v in self.block_amps.items()}

    def pruned(self, weight_floor: float) -> "PureState":
        """Drop blocks carrying less than `weight_floor` of probability."""
        kept = {
            m: v.copy()
            for m, v in self.block_amps.items()
            if float(np.vdot(v, v).real) >= weight_floor
        }
        if not kept:
            raise ValueError("pruning removed the entire state")
        return PureState(self.basis, kept)

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.basis.dim, dtype=complex)
        for m, v in self.block_amps.items():
            blk = self.basis.block(m)
            out[blk.offset : blk.offset + blk.dim] = v
        return out


# ---------------------------------------------------------------------------
# Collective atomic vectors over the single-excitation sector
# ---------------------------------------------------------------------------


def symmetric_atomic_vector(n_atoms: int) -> np.ndarray:
    """Equal-weight vector over single-excitation configs, in atom order."""
    return np.full(n_atoms, 1.0 / sqrt(n_atoms))


def subradiant_target_vector(n_atoms: int, control_index: int = 0) -> np.ndarray:
    """Distinguished dark vector ((N-1), -1, ..., -1)/sqrt(N(N-1)).

    The large entry sits on the control atom.
    """
    if n_atoms < 2:
        raise ValueError("no subradiant sector for a single atom")
    if not 0 <= control_index < n_atoms:
        raise ValueError(f"control index {control_index} out of range")
    v = np.full(n_atoms, -1.0)
    v[control_index] = n_atoms - 1
    return v / sqrt(n_atoms * (n_atoms - 1))


def subradiant_atomic_vectors(n_atoms: int) -> np.ndarray:
    """Orthonormal rows spanning the dark complement of the symmetric vector.

    Row 0 is `subradiant_target_vector`; the rest complete the N-1
    dimensional complement by deterministic Gram-Schmidt seeded with the
    canonical unit vectors in atom order.  Every row sums to zero, which is
    exactly the condition for annihilation by the collective lowering
    operator inside the single-excitation sector.
    """
    if n_atoms < 2:
        raise ValueError("no subradiant sector for a single atom")
    collected = [symmetric_atomic_vector(n_atoms), subradiant_target_vector(n_atoms)]
    seeds = np.eye(n_atoms)
    for k in range(n_atoms):
        if len(collected) == n_atoms:
            break
        v = seeds[k].astype(float)
        for _ in range(2):  # re-orthogonalize for a clean Gram matrix
            for u in collected:
                v = v - (u @ v) * u
        nrm = np.linalg.norm(v)
        if nrm > 1e-8:
            collected.append(v / nrm)
    assert len(collected) == n_atoms
    return np.array(collected[1:])


def _single_excitation_state(
    basis: AtomFieldBasis, atomic_vector: np.ndarray, n_photons: int
) -> PureState:
    if not 0 <= n_photons <= basis.n_max:
        raise ValueError(f"photon number {n_photons} outside 0..{basis.n_max}")
    block = np.zeros(basis.block(n_photons + 1).dim, dtype=complex)
    block[basis.single_excitation_index[n_photons + 1]] = atomic_vector
    return PureState(basis, {n_photons + 1: block})


def symmetric_state(basis: AtomFieldBasis, n_photons: int) -> PureState:
    """Fully symmetric single-excitation state at a fixed Fock level.

    Carries Dicke labels (j=N/2, m=-N/2+1, lam=1).
    """
    return _single_excitation_state(basis, symmetric_atomic_vector(basis.n_atoms), n_photons)


def subradiant_target(
    basis: AtomFieldBasis, n_photons: int, control_index: int = 0
) -> PureState:
    """The dark state reached by the protocol, orthogonal to symmetric_state."""
    return _single_excitation_state(
        basis, subradiant_target_vector(basis.n_atoms, control_index), n_photons
    )


def subradiant_basis(basis: AtomFieldBasis, n_photons: int) -> list[PureState]:
    """Orthonormal dark states at fixed photon number; first is the target."""
    return [
        _single_excitation_state(basis, row, n_photons)
        for row in subradiant_atomic_vectors(basis.n_atoms)
    ]


def product_state(
    basis: AtomFieldBasis, code: int, field_amplitudes: np.ndarray
) -> PureState:
    """Atomic configuration `code` tensored with an arbitrary field vector."""
    c = np.asarray(field_amplitudes, dtype=complex).ravel()
    if c.size > basis.n_max + 1:
        raise ValueError(
            f"field vector has {c.size} entries but the basis holds Fock levels "
            f"0..{basis.n_max}"
        )
    nrm = float(np.linalg.norm(c))
    if abs(nrm - 1.0) > NORM_TOL:
        raise ValueError(f"field vector norm {nrm} deviates from 1 beyond {NORM_TOL}")
    amps = {(code, n): c[n] for n in range(c.size) if c[n] != 0.0}
    return PureState.from_amplitudes(basis, amps)


def control_excited_state(
    basis: AtomFieldBasis, field_amplitudes: np.ndarray, control_index: int = 0
) -> PureState:
    """Initial protocol state: only the control atom excited, field arbitrary."""
    return product_state(
        basis, atom_code(control_index, basis.n_atoms), field_amplitudes
    )


def atomic_ground_state(basis: AtomFieldBasis, field_amplitudes: np.ndarray) -> PureState:
    """All atoms in the ground state, field arbitrary."""
    return product_state(basis, 0, field_amplitudes)
