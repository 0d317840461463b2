"""stslab benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S [--out FILE]

Runs from the root of a checkout.  The load is a closed loop with one client:
each operation is one fresh child interpreter (perfbench/child.py) that
imports `stslab` from `src/`, parses the seeded configs and runs the CLI
commands; the next child starts when the previous one has exited.  Children
start while the next one is predicted to finish within S seconds (at least
one runs); an untraced run then fills the time left with set-up-only
children (at least two) that sample `setup_s`.

With --trace 0 the last stdout line carries the end-to-end metrics (medians
over children).  With --trace 1 untraced and traced children alternate, and
the line carries the per-layer metrics from the traced children, including
the tracing overhead (median traced minus median untraced `solve_s`).
`--workload all` runs every workload untraced and traced and prints a table.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from fingerprint import child_env, machine  # noqa: E402
from measure import fail_counts, fail_ratio, summarize  # noqa: E402
from tracing import layer_metrics  # noqa: E402
from workloads import WORKLOADS, check, make_configs, planned_ops  # noqa: E402

WORK = ROOT / ".bench_work"
MIN_SETUP_PROBES = 2
# No child starts after this many seconds, and none outlives it.
HARD_LIMIT_S = 165.0

END_TO_END = {"setup_s": "s", "solve_s": "s", "peak_rss_mb": "MB"}
# Per-layer metrics: those computed from spans, then those the child measures.
CHILD_LAYER_METRICS = ("import_s", "cli.parse_s", "cli.out_bytes")
PER_LAYER = (*layer_metrics([], [], solve_s=0.0), *CHILD_LAYER_METRICS,
             "trace.solve_s", "trace.overhead_s")
# Unit of a per-layer metric by name suffix; the first match wins.
LAYER_UNITS = (("_bytes_computed", "bytes"), ("_bytes", "bytes"), ("_calls", "count"),
               ("_evals", "count"), ("_n", "count"), ("_us", "us"), ("_s", "s"))


def layer_unit(name: str) -> str:
    for suffix, unit in LAYER_UNITS:
        if name.endswith(suffix):
            return unit
    raise ValueError(f"no unit for {name!r}")


class Child:
    """One child process run and its checked outcome."""

    def __init__(self, workload: str, mode: str, workdir: Path,
                 configs: list[tuple[str, str]], timeout: float):
        self.mode = mode
        workdir.mkdir(parents=True)
        for i, (_, text) in enumerate(configs):
            (workdir / f"config_{i}.json").write_text(text)
        commands = [cmd for cmd, _ in configs]
        argv = [sys.executable, str(HERE / "child.py"), str(workdir), mode, *commands]
        t0 = time.perf_counter()
        with open(workdir / "stdout.txt", "w") as out, \
                open(workdir / "stderr.txt", "w") as err:
            proc = subprocess.Popen(argv, cwd=ROOT, stdout=out, stderr=err,
                                    env=child_env())
            try:
                self.returncode = proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                self.returncode = None
        self.wall_s = time.perf_counter() - t0
        try:
            self.result = json.loads((workdir / "result.json").read_text())
        except (OSError, ValueError):
            self.result = {}
        if mode == "setup":
            self.failures, self.fingerprint = {}, {}
            return
        outs = [workdir / f"out_{i}" for i in range(len(configs))]
        self.failures, self.fingerprint = check(workload, outs)
        exits = self.result.get("exit", [])
        for i, ops in enumerate(planned_ops(workload)):
            code = exits[i] if i < len(exits) else "missing"
            if self.returncode != 0 or code != 0:
                reason = (f"child exit {self.returncode}" if self.returncode != 0
                          else f"dispatch returned {code}")
                for op in ops:
                    self.failures[op].append(reason)

    @property
    def ok(self) -> bool:
        return self.returncode == 0 and "setup_s" in self.result


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One measured run: operation children, then set-up-only children.

    A child starts while the longest one so far would still end within
    `seconds`; an untraced run spends the time left on set-up-only children.
    """
    configs = make_configs(workload, seed)
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    start = time.perf_counter()

    def loop(mode_of, minimum, prefix):
        done = []
        while True:
            elapsed = time.perf_counter() - start
            predicted = max((c.wall_s for c in done), default=0.0)
            if elapsed >= HARD_LIMIT_S or (len(done) >= minimum
                                           and elapsed + predicted > seconds):
                return done
            done.append(Child(workload, mode_of(len(done)), work / f"{prefix}_{len(done)}",
                              configs, HARD_LIMIT_S - elapsed))
            if done[-1].returncode is None:
                return done

    # A traced run alternates untraced and traced children, for the overhead.
    children = loop(lambda i: "trace" if trace and i % 2 else "run", 2 if trace else 1, "child")
    probes = [] if trace else loop(lambda i: "setup", MIN_SETUP_PROBES, "setup")

    plain = [c for c in children if c.mode == "run" and c.ok]
    traced = [c for c in children if c.mode == "trace" and c.ok]
    attempted, failed = fail_counts(c.failures for c in children)
    samples = {
        "setup_s": [c.result["setup_s"] for c in probes + children if c.ok],
        "solve_s": [c.result["solve_s"] for c in plain],
        "peak_rss_mb": [c.result["peak_rss_mb"] for c in plain],
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "configs": [{"command": cmd, "config": json.loads(text)} for cmd, text in configs],
        "children": [{"mode": c.mode, "wall_s": c.wall_s, "returncode": c.returncode}
                     for c in probes + children],
        "attempted": attempted, "failed": failed,
        "fail_ratio": fail_ratio(attempted, failed),
        "failures": {f"child {i}: {op}": fails for i, c in enumerate(children)
                     for op, fails in c.failures.items() if fails},
        "errors": [e for c in children for e in c.result.get("errors", [])],
        "fingerprint": next((c.fingerprint for c in children if c.fingerprint), {}),
        "libraries": next((c.result["libraries"] for c in children
                           if "libraries" in c.result), None),
        "samples": samples,
        "summary": {k: summarize(v) for k, v in samples.items() if v},
        "elapsed_s": time.perf_counter() - start,
    }
    record["metrics"] = {k: _median(v) for k, v in samples.items()}
    if trace:
        layers = {}
        for name in PER_LAYER[:-2]:
            values = [c.result["layers"].get(name) if name not in CHILD_LAYER_METRICS
                      else c.result[name] for c in traced]
            layers[name] = (None if not values or None in values
                            else statistics.median(values))
        layers["trace.solve_s"] = _median(c.result["solve_s"] for c in traced)
        base = record["metrics"]["solve_s"]
        layers["trace.overhead_s"] = (None if base is None or layers["trace.solve_s"] is None
                                      else layers["trace.solve_s"] - base)
        record["layers"] = layers
        record["missing_targets"] = traced[0].result["missing_targets"] if traced else None
        record["bound_names"] = traced[0].result["bound_names"] if traced else None
    return record


def _fmt(value) -> str:
    return "missing" if value is None else f"{value:.6g}"


def print_record(rec: dict) -> None:
    print(f"== {rec['workload']} seed={rec['seed']} trace={int(rec['trace'])} "
          f"({rec['elapsed_s']:.1f} s, {len(rec['children'])} children)")
    for name, unit in END_TO_END.items():
        s = rec["summary"].get(name)
        extra = "" if s is None else "".join(
            f" {k}={_fmt(v)}" for k, v in s.items() if k not in ("median",))
        print(f"  {name:<12} {_fmt(rec['metrics'][name]):>12} {unit:<6}{extra}")
    print(f"  {'fail_ratio':<12} {rec['fail_ratio']:>12.6g} ratio  "
          f"({rec['failed']} of {rec['attempted']} operations failed)")
    for op, fails in rec["failures"].items():
        print(f"    FAILED {op}: {'; '.join(fails)}")
    for err in rec["errors"]:
        print("    " + err.strip().replace("\n", "\n    "))
    for name, value in rec.get("layers", {}).items():
        print(f"  {name:<32} {_fmt(value):>12} {layer_unit(name)}")
    if rec.get("missing_targets"):
        print(f"  missing trace targets: {', '.join(rec['missing_targets'])}")


def result_line(rec: dict) -> dict:
    if rec["trace"]:
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in rec["layers"].items()}
    else:
        metrics = {k: {"value": rec["metrics"][k], "unit": u} for k, u in END_TO_END.items()}
    return {"correct": rec["failed"] == 0, "attempted": rec["attempted"],
            "failed": rec["failed"], "metrics": metrics}


def print_table(records: list[dict]) -> None:
    """End-to-end medians per workload, by name and unit, plus tracing overhead."""
    print(f"{'workload':<16} {'setup_s [s]':>12} {'solve_s [s]':>12} "
          f"{'peak_rss_mb [MB]':>17} {'fail_ratio':>11} {'trace overhead [s]':>19}")
    plain = {r["workload"]: r for r in records if not r["trace"]}
    traced = {r["workload"]: r for r in records if r["trace"]}
    for name, r in plain.items():
        m = r["metrics"]
        overhead = traced[name]["layers"]["trace.overhead_s"] if name in traced else None
        print(f"{name:<16} {_fmt(m['setup_s']):>12} {_fmt(m['solve_s']):>12} "
              f"{_fmt(m['peak_rss_mb']):>17} {r['fail_ratio']:>11.6g} {_fmt(overhead):>19}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="write the full record (environment, samples, "
                             "fingerprints) as JSON")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "stslab" / "cli.py").is_file():
        print(f"error: no stslab sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2

    env = machine(ROOT)
    if args.workload == "all":
        records = []
        for name in WORKLOADS:
            for trace in (False, True):
                rec = run_workload(name, args.seed, args.seconds, trace)
                print_record(rec)
                records.append(rec)
        print_table(records)
        doc = {"environment": env, "runs": records}
        line = {"correct": all(r["failed"] == 0 for r in records),
                "attempted": sum(r["attempted"] for r in records),
                "failed": sum(r["failed"] for r in records),
                "metrics": {f"{r['workload']}.{k}": {"value": v, "unit": u}
                            for r in records if not r["trace"]
                            for k, u in END_TO_END.items()
                            for v in [r["metrics"][k]]}}
    else:
        rec = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print_record(rec)
        doc = {"environment": env, "runs": [rec]}
        line = result_line(rec)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print(json.dumps(line, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
