"""Constructors for the initial cavity-field state.

Every field enters a run only through its photon-number weights p_n: the
Hamiltonian, the phase gate and every readout conserve the excitation
number, so each Fock level evolves in its own block and the results add
up with weights p_n, and no field builds anything else.  A Fock field is
its level, a coherent field gives Poisson weights |c_n|^2 over the levels
its amplitudes reach before they underflow, and a thermal field gives
geometric weights truncated at a 1e-8 tail and renormalized, so no cost
grows with the cutoff n_max.
"""

from __future__ import annotations

import math

import numpy as np

from .model import FrozenRecord

TAIL_MASS = 1e-8
WEIGHT_FLOOR = 1e-14  # pure-field components below this weight are dropped

FIELD_KINDS = ("fock", "coherent", "thermal")


class TruncationError(ValueError):
    """The requested Fock cutoff cannot hold the field's tail."""


class FieldSpec(FrozenRecord):
    """Initial cavity field: a Fock level, a coherent state, or a thermal mix."""

    __slots__ = ("kind", "n", "amplitude", "mean_occupation")

    def __init__(
        self, kind: str, n: int = 0, amplitude: complex = 0j, mean_occupation: float = 0.0
    ):
        if kind not in FIELD_KINDS:
            raise ValueError(f"unknown field kind {kind!r}")
        if kind == "fock" and n < 0:
            raise ValueError(f"Fock level must be >= 0, got {n}")
        if kind == "thermal" and mean_occupation < 0:
            raise ValueError(f"mean occupation must be >= 0, got {mean_occupation}")
        super().__init__(kind=kind, n=n, amplitude=amplitude, mean_occupation=mean_occupation)

    # -- constructors --------------------------------------------------------

    @classmethod
    def fock(cls, n: int) -> "FieldSpec":
        return cls(kind="fock", n=n)

    @classmethod
    def coherent(cls, amplitude: complex) -> "FieldSpec":
        return cls(kind="coherent", amplitude=complex(amplitude))

    @classmethod
    def thermal(cls, mean_n: float) -> "FieldSpec":
        return cls(kind="thermal", mean_occupation=float(mean_n))

    # -- bookkeeping ---------------------------------------------------------

    @property
    def mean_n(self) -> float:
        if self.kind == "fock":
            return float(self.n)
        if self.kind == "coherent":
            return abs(self.amplitude) ** 2
        return self.mean_occupation

    def describe(self) -> dict:
        out = {"kind": self.kind}
        if self.kind == "fock":
            out["n"] = self.n
        elif self.kind == "coherent":
            out["amplitude_re"] = self.amplitude.real
            out["amplitude_im"] = self.amplitude.imag
        else:
            out["mean_n"] = self.mean_occupation
        return out

    # -- realizations ---------------------------------------------------------

    def required_n_max(self, n_atoms: int) -> int:
        """Fock cutoff for protocol runs: field scale + N + tail headroom.

        Excitation conservation bounds photon growth by the atom count, and
        ceil(6 sqrt(<n>) + 4) dominates a Poisson tail down to < 1e-8.
        """
        mean = self.mean_n
        if self.kind == "fock":
            scale = self.n
        elif self.kind == "coherent":
            scale = math.ceil(mean)
        else:
            scale = self._thermal_top()
        return scale + n_atoms + math.ceil(6.0 * math.sqrt(mean) + 4.0)

    def components(self, n_max: int) -> list[tuple[float, int]]:
        """Photon-number decomposition [(p_n, n)] over Fock levels 0..n_max.

        A Fock field is its own level.  A coherent field gives the Poisson
        weights p_n = |c_n|^2 of c_n = exp(-|a|^2/2) a^n / sqrt(n!), built by
        recursion up to n_max or to the first c_n that underflows to 0,
        renormalized and kept where p_n >= WEIGHT_FLOOR.  Thermal fields give
        the geometric weights p_n = nbar^n / (1+nbar)^(n+1), cut at a 1e-8
        tail and renormalized.  Each kind refuses a cutoff below its levels,
        and none costs more for a higher one.
        """
        if self.kind == "fock":
            if self.n > n_max:
                raise TruncationError(f"Fock level {self.n} above the truncation {n_max}")
            return [(1.0, self.n)]
        if self.kind == "thermal":
            top = self._thermal_top()
            if top > n_max:
                raise TruncationError(
                    f"thermal field with mean {self.mean_occupation:.3g} needs "
                    f"n_max >= {top}, got {n_max}"
                )
            nbar = self.mean_occupation
            p, r = 1.0 / (1.0 + nbar), nbar / (1.0 + nbar)
            weights = []
            for n in range(top + 1):
                weights.append((p, n))
                p *= r
            total = sum(w for w, _ in weights)
            return [(w / total, n) for w, n in weights]
        mean = abs(self.amplitude) ** 2
        vacuum = math.exp(-mean / 2.0)
        if vacuum == 0:
            raise TruncationError(
                f"coherent field with |amp|^2={mean:.3g}: exp(-|amp|^2/2) underflows "
                "to 0, so no cutoff can hold the field"
            )
        needed = mean + 6.0 * abs(self.amplitude) + 4.0
        if n_max < needed:
            raise TruncationError(
                f"coherent field with |amp|^2={mean:.3g} needs n_max >= "
                f"{math.ceil(needed)}, got {n_max}"
            )
        c = [np.complex128(vacuum)]
        while len(c) <= n_max and c[-1] != 0:
            c.append(c[-1] * self.amplitude / math.sqrt(len(c)))
        c = np.array(c)
        tail = 1.0 - float(np.vdot(c, c).real)
        if tail > TAIL_MASS:
            raise TruncationError(
                f"truncated coherent tail carries {tail:.2e} > {TAIL_MASS:.0e}; raise n_max"
            )
        probs = np.abs(c / np.linalg.norm(c)) ** 2
        return [(float(p), n) for n, p in enumerate(probs) if p >= WEIGHT_FLOOR]

    def _thermal_top(self) -> int:
        """The last thermal level: the first n whose tail mass r^(n+1), r = nbar / (1 + nbar),
        is below TAIL_MASS.  The closed form ceil(log(TAIL_MASS) / log(r)) - 1 is stepped to
        where that test holds as written, since log and ** round apart."""
        nbar = self.mean_occupation
        r = nbar / (1.0 + nbar)
        if r == 0.0:
            return 0
        if r == 1.0:
            raise TruncationError(
                f"thermal field with mean {nbar:.3g} has no tail below {TAIL_MASS:.0e} "
                "in double precision"
            )
        n = max(0, math.ceil(math.log(TAIL_MASS) / math.log(r)) - 1)
        while r ** (n + 1) >= TAIL_MASS:
            n += 1
        while n > 0 and r**n < TAIL_MASS:
            n -= 1
        return n
