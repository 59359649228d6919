"""System parameters of N two-level atoms in one cavity mode.

Everything works in hbar = 1 units with angular frequencies in rad/s, so
"energy" and "frequency" coincide.  The Hamiltonian

    H = omega_a * J_z + omega_c * a'a + g * (a' J- + a J+)

conserves the total excitation number; `subrad.dynamics` builds it one
excitation block at a time.  `FrozenRecord` is the base of subrad's
`__slots__` value types.
"""

from __future__ import annotations


class FrozenRecord:
    """Base of subrad's value types, whose fields are the subclass's __slots__.

    `__init__` fills every field by name; every other assignment and every
    deletion is refused.  Records compare and hash by the tuple of their
    field values and print as Name(field=value, ...).
    """

    __slots__ = ()

    def __init__(self, **fields):
        if fields.keys() != set(self.__slots__):
            expected = ", ".join(self.__slots__)
            raise TypeError(f"{type(self).__name__} takes exactly the fields {expected}")
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class SystemParams(FrozenRecord):
    """Atom count, frequencies and coupling, with the derived slow scale.

    omega_a may be zero: that is the atomic rotating frame, in which only
    the detuning delta = omega_c - omega_a enters the block dynamics.
    Instances key the per-process memo of `protocol.component_outcome`.
    """

    __slots__ = (
        "n_atoms",
        "omega_a",  # atomic transition frequency, rad/s
        "omega_c",  # cavity mode frequency, rad/s
        "g",  # coupling, rad/s
    )

    def __init__(self, n_atoms: int, omega_a: float, omega_c: float, g: float):
        if n_atoms < 1:
            raise ValueError(f"need at least one atom, got {n_atoms}")
        if g <= 0:
            raise ValueError(f"coupling must be positive, got {g}")
        if omega_c == omega_a:
            raise ValueError("detuning vanishes (omega_c == omega_a)")
        super().__init__(n_atoms=n_atoms, omega_a=omega_a, omega_c=omega_c, g=g)

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
