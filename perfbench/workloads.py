"""Benchmark workloads: seeded config generation and output checks.

Each workload is one or more `stslab` CLI commands, each with a generated
JSON config.  The seed jitters only inputs that leave the amount of work
unchanged (a payoff strike, barrier levels, a correlation), so every seed runs
the same stage counts and matrix sizes and only the numbers change.

An operation is one scheme run, one implicit reference or one eigensolve.
`check` reads the files the CLI wrote and returns, for every planned
operation, the list of checks it failed; an empty list means it passed.
"""

from __future__ import annotations

import csv
import json
import math
import random
from pathlib import Path

# Stage counts per scheme run; the jittered inputs must not change them.
CONVERGE_LADDER = (10, 20, 40, 80, 100, 200, 400, 800, 1600)
CONVERGE_STAGES = (136, 96, 68, 48, 43, 31, 22, 15, 11)
CONVERGE_L_REF = 4000
BS_STAGES = {"rkl": 4227, "rkg(g=2)": 5590, "rkc(eps=10)": 5072}
BS_NODES = 401
SPECTRUM_NODES = 61 * 31
SPECTRUM_POLICIES = ("foulon-region-fitting", "partial-fitting")

# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = ("heston-converge", "bs-cubic-l20", "heston-spectrum")


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _dumps(cfg: dict) -> str:
    return json.dumps(cfg, indent=2, sort_keys=True) + "\n"


def make_configs(workload: str, seed: int) -> list[tuple[str, str]]:
    """(command, config text) pairs run in order by one child process.

    The same (workload, seed) always gives byte-identical texts.
    """
    rng = _rng(workload, seed)
    if workload == "heston-converge":
        strike = round(100.0 * (1.0 + rng.uniform(-0.05, 0.05)), 2)
        return [("converge", _dumps({
            "model": "heston",
            "policy": "partial-fitting",
            "schemes": [{"family": "rkc", "eps": 10.0}],
            "ladder": list(CONVERGE_LADDER),
            "reference": {"l_ref": CONVERGE_L_REF, "validate": True},
            "payoff": {"kind": "call", "strike": strike},
        }))]
    if workload == "bs-cubic-l20":
        low = round(10.0 + rng.uniform(-3.0, 3.0), 2)
        high = round(100.0 + rng.uniform(-3.0, 3.0), 2)
        return [("bs-demo", _dumps({
            "model": "bs",
            "grid": {"x": {"kind": "cubic", "a": 0.0, "b": 150.0, "m": 400,
                           "center": 100.0, "alpha": 0.01}},
            "policy": "partial-fitting",
            "schemes": [{"family": "rkl"}, {"family": "rkg", "g": 2.0},
                        {"family": "rkc", "eps": 10.0}],
            "payoff": {"kind": "digital-range", "low": low, "high": high},
            "l": 20,
        }))]
    if workload == "heston-spectrum":
        rho = round(0.6 + rng.uniform(-0.03, 0.03), 3)
        return [("spectrum", _dumps({
            "model": "heston",
            "params": {"rho": rho},
            "grid": {"x": {"m": 60}, "v": {"m": 30}},
            "policy": policy,
            "l": 16,
        })) for policy in SPECTRUM_POLICIES]
    raise ValueError(f"unknown workload {workload!r}; "
                     f"expected one of {sorted(WORKLOADS)}")


def planned_ops(workload: str) -> list[list[str]]:
    """Names of the operations each command of one child runs."""
    if workload == "heston-converge":
        return [[f"rkc(eps=10)@l={l}" for l in CONVERGE_LADDER]
                + [f"cn@l={CONVERGE_L_REF}", f"cn@l={2 * CONVERGE_L_REF}"]]
    if workload == "bs-cubic-l20":
        return [[*BS_STAGES, "trbdf2", "eigvals"]]
    if workload == "heston-spectrum":
        return [[f"eigvals:{p}"] for p in SPECTRUM_POLICIES]
    raise ValueError(f"unknown workload {workload!r}")


def _read_json(path: Path):
    with open(path) as fh:
        return json.load(fh)


def _read_logs(out: Path) -> list[dict]:
    with open(out / "run_log.jsonl") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _scheme_failures(log: dict, stages: int) -> list[str]:
    fails = []
    if log["exploded"]:
        fails.append(f"exploded at step {log['explosion_step']}")
    if log["s_per_step"] != [stages] * log["l"]:
        fails.append(f"stage counts {sorted(set(log['s_per_step']))} != {stages}")
    return fails


def check(workload: str, outs: list[Path]) -> tuple[dict[str, list[str]], dict]:
    """Failed checks per planned operation, and the result fingerprint.

    A missing or unreadable output file fails every operation it covers.
    """
    failures = {op: [] for ops in planned_ops(workload) for op in ops}
    try:
        fingerprint = _CHECKS[workload](outs, failures)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        for fails in failures.values():
            fails.append(f"unreadable output: {exc!r}")
        fingerprint = {}
    return failures, fingerprint


def _check_converge(outs, failures):
    out, = outs
    logs = _read_logs(out)
    (label, summary), = _read_json(out / "summary.json").items()
    csv_path, = sorted(out.glob("convergence_*.csv"))
    with open(csv_path) as fh:
        rows = list(csv.DictReader(fh))
    ladder = [int(r["l"]) for r in rows]
    rms = [float(r["rms_error"]) for r in rows]
    if ladder != list(CONVERGE_LADDER) or len(logs) != len(ladder):
        raise ValueError(f"ladder {ladder} with {len(logs)} run logs")
    for i, (l, stages, log) in enumerate(zip(CONVERGE_LADDER, CONVERGE_STAGES, logs)):
        op = f"rkc(eps=10)@l={l}"
        failures[op] += _scheme_failures(log, stages)
        if not math.isfinite(rms[i]):
            failures[op].append(f"rms {rms[i]!r}")
        elif i and rms[i] > 1.2 * rms[i - 1]:
            failures[op].append(f"rms rose {rms[i] / rms[i - 1]:.3f}x over l={ladder[i - 1]}")
    ref_check = summary["reference_check"]
    if not (isinstance(ref_check, float) and ref_check < 1e-4):
        for op in (f"cn@l={CONVERGE_L_REF}", f"cn@l={2 * CONVERGE_L_REF}"):
            failures[op].append(f"reference_check {ref_check!r} not < 1e-4")
    return {"stages": [log["s_per_step"][0] for log in logs], "rms": rms,
            "reference_check": ref_check}


def _check_bs(outs, failures):
    out, = outs
    logs = {log["family"]: log for log in _read_logs(out)}
    summary = _read_json(out / "summary.json")
    osc, threshold = summary["osc_metric"], summary["threshold"]
    for label, stages in BS_STAGES.items():
        failures[label] += _scheme_failures(logs[label], stages)
    if not osc["rkl"] > threshold:
        failures["rkl"].append(f"rkl osc {osc['rkl']!r} not above threshold {threshold!r}")
    for label in ("rkg(g=2)", "trbdf2"):
        if not osc[label] <= threshold:
            failures[label].append(f"{label} osc {osc[label]!r} above threshold {threshold!r}")
    spec = _read_json(out / "spectrum.json")
    if spec["n"] != BS_NODES:
        failures["eigvals"].append(f"n {spec['n']} != {BS_NODES}")
    return {"stages": {k: logs[k]["s_per_step"][0] for k in BS_STAGES},
            "osc_metric": osc, "threshold": threshold,
            "price_at_spot": summary["price_at_spot"]}


def _check_spectrum(outs, failures):
    specs = [_read_json(out / "spectrum.json") for out in outs]
    if len(specs) != len(SPECTRUM_POLICIES):
        raise ValueError(f"{len(specs)} spectra for {len(SPECTRUM_POLICIES)} policies")
    for policy, spec in zip(SPECTRUM_POLICIES, specs):
        op = f"eigvals:{policy}"
        if spec["n"] != SPECTRUM_NODES:
            failures[op].append(f"n {spec['n']} != {SPECTRUM_NODES}")
        if not spec["max_real"] <= 1e-6:
            failures[op].append(f"max_real {spec['max_real']!r} > 1e-6")
    ratio = specs[0]["max_abs_imag"] / specs[1]["max_abs_imag"]
    if not ratio > 10.0:
        for policy in SPECTRUM_POLICIES:
            failures[f"eigvals:{policy}"].append(f"imaginary ratio {ratio:.3f} not > 10")
    return {"n": [s["n"] for s in specs], "max_real": [s["max_real"] for s in specs],
            "max_abs_imag": [s["max_abs_imag"] for s in specs], "imag_ratio": ratio}


_CHECKS = {"heston-converge": _check_converge, "bs-cubic-l20": _check_bs,
           "heston-spectrum": _check_spectrum}
