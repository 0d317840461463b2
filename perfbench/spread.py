"""Steadiness check: run one workload over many seeds and compare two sets.

    python3 perfbench/spread.py run --workload NAME --seeds 101-110 --out set1.json
    python3 perfbench/spread.py compare set1.json set2.json

`run` calls run.py once per seed (untraced, `run_seconds` from
BENCHMARK.json) and saves every result line.  Both commands print, per
end-to-end metric, the median of the runs and the distance between the first
and third quartile (`statistics.quantiles(values, n=4)`) as a share of the
median.  `compare` also checks that each spread, except that of `setup_s`,
is within the metric's bound and that the second set's median is not worse
than the first's by more than the bound; it exits 1 if a check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m for m in SPEC["end_to_end"]}


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_set(workload: str, seeds: list[int]) -> dict:
    runs = []
    for seed in seeds:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", "0"],
            cwd=HERE.parent, capture_output=True, text=True, timeout=300)
        if done.returncode != 0:
            raise SystemExit(f"seed {seed}: exit {done.returncode}\n{done.stderr}")
        runs.append({"seed": seed, "result": json.loads(done.stdout.splitlines()[-1])})
    return {"workload": workload, "run_seconds": SPEC["run_seconds"], "runs": runs}


def stats(doc: dict) -> dict:
    """Per metric: median, quartiles and spread = (q3 - q1) / median."""
    out = {}
    for name in BOUNDS:
        values = [r["result"]["metrics"][name]["value"] for r in doc["runs"]]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        out[name] = {"median": median, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / median, "n": len(values)}
    return out


def report(doc: dict) -> tuple[dict, bool]:
    s = stats(doc)
    ok = all(r["result"]["correct"] for r in doc["runs"])
    print(f"{doc['workload']}: {len(doc['runs'])} runs, all correct: {ok}")
    for name, v in s.items():
        bound = BOUNDS[name]["bound"]
        within = name == "setup_s" or v["spread"] <= bound
        ok &= within
        print(f"  {name:<12} median {v['median']:.6g} {BOUNDS[name]['unit']:<3} "
              f"spread {v['spread']:.4f} (bound {bound}, third {bound / 3:.4f})"
              f"{'' if within else '  SPREAD ABOVE BOUND'}")
    return s, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p_run = sub.add_parser("run")
    p_run.add_argument("--workload", required=True)
    p_run.add_argument("--seeds", required=True, help="e.g. 101-110")
    p_run.add_argument("--out", type=Path, required=True)
    p_cmp = sub.add_parser("compare")
    p_cmp.add_argument("first", type=Path)
    p_cmp.add_argument("second", type=Path)
    args = parser.parse_args(argv)

    if args.cmd == "run":
        doc = run_set(args.workload, parse_seeds(args.seeds))
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
        return 0 if report(doc)[1] else 1
    first, second = (json.loads(p.read_text()) for p in (args.first, args.second))
    if first["workload"] != second["workload"]:
        raise SystemExit("the two sets ran different workloads")
    s1, ok1 = report(first)
    s2, ok2 = report(second)
    ok = ok1 and ok2
    for name, bound in ((n, m["bound"]) for n, m in BOUNDS.items()):
        change = s2[name]["median"] / s1[name]["median"] - 1.0
        worse = -change if BOUNDS[name]["better"] == "higher" else change
        within = worse <= bound
        ok &= within
        print(f"  {name:<12} second median {change:+.4f} of first (bound {bound})"
              f"{'' if within else '  WORSE THAN BOUND'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
