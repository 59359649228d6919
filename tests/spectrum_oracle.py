"""The greedy level assignment that `subrad spectrum` once used, kept as a test oracle.

`cli.cmd_spectrum` labels each ladder eigenvalue by the rung its rank
connects to as g -> 0.  This module keeps the older rule, one row at a time:
each eigenvalue, in ascending order, takes the nearest slow-model level that
has room left (first minimum on a tie), and every row is built and written on
its own.  The level table is the one `cmd_spectrum` uses, `delta_e1` of a
block above the cutoff included.  The two rules give the same bytes wherever
the slow-model levels are far enough apart.
"""

import math

import numpy as np

from subrad import serialize
from subrad.cli import SPECTRUM_COLUMNS, RunConfig
from subrad.dynamics import spectrum
from subrad.perturb import closed_form_corrections


def spectrum_rows(config: RunConfig) -> list[dict]:
    """The rows of spectrum.csv for an in-range block, one dict per eigenvalue."""
    params = config.params()
    nn = params.n_atoms
    sector_n = config.spectrum_block
    h0_only = config.h0_only
    n_max = config.options.n_max
    if n_max is None:
        n_max = sector_n + nn + 4

    free = {
        e: params.omega_a * (e - nn / 2.0) + params.omega_c * (sector_n - e)
        for e in range(nn + 1)
        if 0 <= sector_n - e <= n_max
    }
    values, _, _, counts = spectrum(params, sector_n, n_max, h0_only)
    eigenvalues = np.repeat(values, counts)

    e0 = params.omega_a * (1 - nn / 2.0) + params.omega_c * (sector_n - 1)
    delta_e1, delta_ei = closed_form_corrections(params, sector_n)
    de1 = 0.0 if h0_only else delta_e1
    if sector_n > n_max and not h0_only:  # rung 0 is clipped, and its second-order term with it
        de1 += nn * sector_n * params.g**2 / params.delta
    dei = 0.0 if h0_only or delta_ei is None else delta_ei
    levels = [(e0 + de1, "delta_e1", 1), (e0 + dei, "delta_ei", nn - 1)]
    levels += [(val, f"free_k{e}", math.comb(nn, e)) for e, val in free.items() if e != 1]
    levels.sort(key=lambda lv: lv[0])

    scale = 2.0 * abs(params.alpha)
    values = np.array([lv for lv, _, _ in levels])
    left = np.array([count for _, _, count in levels])
    rows = []
    for i, ev in enumerate(eigenvalues):
        # first minimum among untaken levels
        best = int(np.argmin(np.where(left > 0, np.abs(ev - values), math.inf)))
        left[best] -= 1
        lv, label, _ = levels[best]
        rows.append(
            {
                "index": i,
                "eigenvalue_rad_s": float(ev),
                "shift_from_e0_rad_s": float(ev - e0),
                "pt_level_rad_s": lv,
                "pt_shift_rad_s": lv - e0,
                "abs_error_rad_s": float(abs(ev - lv)),
                "rel_error_vs_2alpha": float(abs(ev - lv) / scale),
                "assignment": label,
            }
        )
    return rows


def write_spectrum_csv(config: RunConfig, path) -> None:
    serialize.write_csv(path, SPECTRUM_COLUMNS, spectrum_rows(config))
