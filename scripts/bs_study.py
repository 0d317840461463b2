#!/usr/bin/env python3
"""Flat-volatility barrier study, run through the stslab CLI.

Prices a digital range payoff (small volatility, large rate) with each
super-time-stepping family plus TR-BDF2 on a uniform grid, where two stages
suffice and all stabilized families coincide, and on a strongly stretched
cubic grid, where the Legendre scheme oscillates at l = 20 but not at l = 50
while the Gegenbauer scheme and TR-BDF2 stay clean.  Each scenario writes the
CLI's outputs into its own subdirectory of --out.  Its threshold comes from
its own TR-BDF2 and Gegenbauer runs, which oscillate too on the unfitted
uniform grid, so read that scenario against a fitted scenario's threshold.
"""

import argparse
import json
from pathlib import Path

from stslab.cli import dispatch, parse_config

FAMILIES = [{"family": "rkl"}, {"family": "rkg", "g": 2.0}, {"family": "rkc", "eps": 10.0}]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", type=Path, default=Path("out/bs"))
    ap.add_argument("--quick", action="store_true", help="smaller grids for a fast pass")
    args = ap.parse_args(argv)
    m_uniform, m_cubic = (50, 100) if args.quick else (100, 400)
    uniform = {"kind": "uniform", "a": 0.0, "b": 150.0, "m": m_uniform}
    cubic = {"kind": "cubic", "a": 0.0, "b": 150.0, "m": m_cubic,
             "center": 100.0, "alpha": 0.01}
    scenarios = [("uniform-none", uniform, "none", 100),
                 ("uniform-partial", uniform, "partial-fitting", 100),
                 ("cubic-l20", cubic, "partial-fitting", 20),
                 ("cubic-l50", cubic, "partial-fitting", 50)]
    for name, grid, policy, l in scenarios:
        cfg = {"model": "bs", "grid": {"x": grid}, "policy": policy,
               "schemes": FAMILIES, "l": l}
        dispatch("bs-demo", parse_config(json.dumps(cfg)), out_dir=str(args.out / name))
        summary = json.loads((args.out / name / "summary.json").read_text())
        print(f"{name} (threshold {summary['threshold']:.3e}):")
        for scheme, osc in summary["osc_metric"].items():
            print(f"  {scheme:<14s} osc={osc:.4e}")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
