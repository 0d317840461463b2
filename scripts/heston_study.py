#!/usr/bin/env python3
"""Stress study on the two-dimensional model, run through the stslab CLI.

Runs the time-convergence ladder for three upwinding policies with the damped
Chebyshev scheme, extracts the spectrum of the scaled operator for the
region-restricted and the global fitting policy, and compares delta slices
near v = 0 across scheme families.  Each run writes the CLI's CSV files,
summary.json and run_log.jsonl into its own subdirectory of --out.
"""

import argparse
import csv
import json
from pathlib import Path

from stslab.cli import dispatch, parse_config
from stslab.experiments import DEFAULT_L_REF, DEFAULT_LADDER

POLICIES = ("foulon-region-fitting", "partial-fitting", "osullivan-one-sided")
FAMILIES = [{"family": "rkc", "eps": 10.0}, {"family": "rkl"}, {"family": "rkg", "g": 2.0}]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", type=Path, default=Path("out/heston"))
    ap.add_argument("--m", type=int, default=100, help="price-direction intervals")
    ap.add_argument("--n", type=int, default=50, help="variance-direction intervals")
    ap.add_argument("--l-ref", type=int, default=DEFAULT_L_REF,
                    help="Crank-Nicolson reference steps")
    ap.add_argument("--quick", action="store_true", help="small grids, short ladder")
    args = ap.parse_args(argv)
    m, n, l_ref, ladder = ((40, 20, 400, [10, 20, 40, 80, 200]) if args.quick else
                           (args.m, args.n, args.l_ref, list(DEFAULT_LADDER)))

    def run(cmd: str, name: str, **cfg) -> Path:
        cfg["grid"] = {"x": {"m": m}, "v": {"m": n}}
        dispatch(cmd, parse_config(json.dumps(cfg)), out_dir=str(args.out / name))
        return args.out / name

    for policy in POLICIES:
        out = run("converge", f"converge-{policy}", policy=policy, ladder=ladder,
                  reference={"l_ref": l_ref})
        print(f"{policy}:")
        with open(out / "convergence_rkc_eps10.csv") as fh:
            for r in csv.DictReader(fh):
                flag = "  EXPLODED" if r["exploded"] == "true" else ""
                print(f"  l={int(r['l']):>5d}  rms={float(r['rms_error']):.4e}  "
                      f"osc={float(r['osc_metric']):.4e}{flag}")
    for policy in POLICIES[:2]:
        spec = json.loads((run("spectrum", f"spectrum-{policy}", policy=policy, l=16)
                           / "spectrum.json").read_text())
        print(f"spectrum {policy}: max Re = {spec['max_real']:.3e}, "
              f"max |Im| = {spec['max_abs_imag']:.3e}")
    out = run("delta", "delta", policy="partial-fitting", schemes=FAMILIES, l=10)
    for label, osc in json.loads((out / "summary.json").read_text())["osc_metric"].items():
        print(f"delta osc {label}: {osc:.4e}")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
