"""System parameters of N two-level atoms in one cavity mode.

Everything works in hbar = 1 units with angular frequencies in rad/s, so
"energy" and "frequency" coincide.  The Hamiltonian

    H = omega_a * J_z + omega_c * a'a + g * (a' J- + a J+)

conserves the total excitation number; `subrad.dynamics` builds it one
excitation block at a time.
"""

from __future__ import annotations

from dataclasses import dataclass


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

    @classmethod
    def from_detuning_ratio(
        cls, n_atoms: int, g: float, delta_over_g: float
    ) -> "SystemParams":
        """Atomic-frame parameters fixed by the coupling and delta/g alone."""
        return cls(n_atoms=n_atoms, omega_a=0.0, omega_c=delta_over_g * g, g=g)
