#!/usr/bin/env python3
"""How many photons the slow plan tolerates, from the fidelity of each Fock level.

F_n is the fidelity of Fock component n after the slow plan's evolution and
phase gate, as `subrad.protocol.component_outcome` gives it: the kernel that
`run` sums, so a field with photon-number weights p_n has F = sum p_n F_n.
Exciting the control atom alone already puts (N-1)/N on |D>, so the protocol
helps only where 1 - F_n < 1/N.  For each (N, delta/g) the script prints the
validity parameter v at n = 0 and, at the slow plan's t_m and phi, n*_beat
(the largest n* with 1 - F_n < 1/N for every n <= n*) and n*_0.99 (the
largest n* with F_n >= 0.99 for every n <= n*); -1 means that n = 0 already
fails.
"""

import math
import sys

from subrad.model import SystemParams
from subrad.perturb import validity_parameter
from subrad.protocol import component_outcome, plan

TWO_PI = 2.0 * math.pi
G_HZ = 10_000.0  # g/2pi; at fixed delta/g every printed column is independent of g
LIMIT = 200  # largest photon number tried
# (N, delta/g): the rows of the ROADMAP table, then larger ensembles
ROWS = (
    (10, 30.0), (10, 100.0), (50, 30.0), (50, 100.0),
    (200, 100.0), (200, 300.0), (500, 100.0), (1000, 1000.0),
    (10_000, 1000.0), (10_000, 3000.0), (100_000, 3000.0), (100_000, 10_000.0),
)


def tolerance(params: SystemParams) -> tuple[int | None, int | None]:
    """n*_beat and n*_0.99 of the slow plan; None where every n <= LIMIT passes."""
    slow = plan(params)
    beat = good = None
    for n in range(LIMIT + 1):
        f = component_outcome(params, n, 1, n + 1, slow.t_m, slow.phi, 1)[0]
        if beat is None and not 1.0 - f < 1.0 / params.n_atoms:
            beat = n - 1
        if good is None and not f >= 0.99:
            good = n - 1
        if beat is not None and good is not None:
            break
    return beat, good


def main() -> int:
    print(f"slow plan, g/2pi={G_HZ / 1e3:g} kHz, atomic frame")
    print(f"{'N':>7} {'delta/g':>8} {'v':>7} {'n*_beat':>8} {'n*_0.99':>8}")
    for nn, ratio in ROWS:
        params = SystemParams.from_detuning_ratio(nn, TWO_PI * G_HZ, ratio)
        v = validity_parameter(params, 0.0)
        beat, good = (f">{LIMIT}" if x is None else str(x) for x in tolerance(params))
        print(f"{nn:>7} {ratio:>8g} {v:>7.3f} {beat:>8} {good:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
