#!/usr/bin/env python3
"""Fidelity and slow-model error versus detuning ratio at fixed atom number."""

import argparse
import json
import sys
from pathlib import Path

from subrad.cli import main as cli_main


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/detuning_sweep")
    parser.add_argument("--n-atoms", type=int, default=10)
    parser.add_argument(
        "--ratios", default="20,30,50,100,200,300", help="comma-separated delta/g values"
    )
    args = parser.parse_args()

    config = {
        "n_atoms": args.n_atoms,
        "g_over_2pi_hz": 24000.0,
        "delta_over_g": 100.0,
        "field": {"kind": "fock", "n": 0},
        "sweep": {
            "axis": "delta_ratio",
            "values": [float(r) for r in args.ratios.split(",")],
        },
    }
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cfg_path = out / "config.json"
    cfg_path.write_text(json.dumps(config, indent=2))

    rc = cli_main(["sweep", "--config", str(cfg_path), "--out", str(out)])
    if rc == 0:
        print(f"results in {out / 'sweep.csv'}")
    return rc


if __name__ == "__main__":
    sys.exit(main())
