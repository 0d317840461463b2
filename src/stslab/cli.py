"""Configuration-driven command-line front end.

Subcommands: price, converge, spectrum, delta, bs-demo.  Each reads a JSON
config (defaults fill everything, so an empty object is a valid config),
runs the matching experiment driver and writes plot-ready CSV files plus a
JSON-lines run log into the output directory.

Config parsing is strict, because experiments here differ by one or two keys
and a silently ignored typo would fake a finding.  The parser reads values:
the JSON shape (known keys, types, finite numbers, named choices), the
parameters, grid recipes, schemes and payoff, whose own bound checks it
reports with the config path, and the rules that span two keys.  Before it
writes anything, `dispatch` checks the command against `_COMMANDS` (each
command's model, default l, eigensolve and help, stated once) and builds the
run once: the grids, the `prepare` setup, the rules that need them (a finite
operator, the oscillation window) and the one dense eigensolve of `spectrum`
and `bs-demo`, whose size guard refuses a large lattice.  So a config that
passes runs and one that cannot fails before anything is written.  Data CSVs
contain no timings, so identical configs produce byte-identical files; wall
times go to the run log only.  JSON files are strict JSON: a non-finite
number (an unscored field, an infinite margin, an exploded price) is written
as null.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .experiments import (DEFAULT_L_REF, DEFAULT_LADDER, Payoff, PayoffKind, Setup,
                          bs_uniform_spec, call, default_bs_params, default_heston_params,
                          digital_range, foulon_spec_v, foulon_spec_x, prepare, put,
                          run_and_score, run_bs_study, run_delta_comparison, run_time_convergence)
from .grids import GridSpec, StretchKind, make_grid
from .operators import BsParams, HestonParams, UpwindPolicy
from .schemes import FREE_PARAMETER, FamilyKind, InfeasibleStepError, SchemeFamily
from .spectra import eigenvalues_dense, write_spectrum

__all__ = ["ConfigError", "RunConfig", "parse_config", "dispatch", "main"]


class ConfigError(ValueError):
    """Config rejected; the message carries the offending path."""


def _check_keys(d: dict, allowed: set[str], path: str) -> None:
    unknown = sorted(set(d) - allowed)
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {', '.join(unknown)}")


def _mapping(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object, got {type(obj).__name__}")
    return obj


def _num(d: dict, key: str, default, path: str) -> float:
    val = d.get(key, default)
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{path}.{key}: expected a number, got {val!r}")
    val = float(val)
    if not math.isfinite(val):  # json reads NaN and Infinity tokens
        raise ConfigError(f"{path}.{key}: need a finite number, got {val!r}")
    return val


def _int(d: dict, key: str, default, path: str, lo=None):
    val = d.get(key, default)
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(f"{path}.{key}: expected an integer, got {val!r}")
    if lo is not None and val < lo:
        raise ConfigError(f"{path}.{key}: need value >= {lo}, got {val}")
    return val


def _built(path: str, make, *args, **kwargs):
    """make(*args, **kwargs), its ValueError raised as a ConfigError naming path."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _choice(d: dict, key: str, enum, default, where: str):
    """The member of enum whose value d[key] names; default if key is absent.

    With default None the key is required.
    """
    if key not in d and default is not None:
        return default
    names = [member.value for member in enum]
    val = d.get(key)
    if val not in names:  # compares by ==, so a list or an object is refused too
        raise ConfigError(f"{where}: expected one of {sorted(names)}, got {val!r}")
    return enum(val)


def _parse_grid(d: dict, defaults: GridSpec, path: str) -> GridSpec:
    d = _mapping(d, path)
    _check_keys(d, {f.name for f in fields(GridSpec)}, path)
    kind = _choice(d, "kind", StretchKind, defaults.kind, f"{path}.kind")
    return _built(path, GridSpec, kind, m=_int(d, "m", defaults.m, path),
                  **{key: _num(d, key, getattr(defaults, key), path)
                     for key in ("a", "b", "center", "lam", "alpha")})


def _parse_scheme(d, path: str) -> SchemeFamily:
    d = _mapping(d, path)
    _check_keys(d, {"family", *FREE_PARAMETER.values()}, path)
    kind = _choice(d, "family", FamilyKind, None, f"{path}.family")
    for owner, key in FREE_PARAMETER.items():
        if owner is not kind and key in d:
            raise ConfigError(f"{path}.{key}: only valid for family {owner.value!r}")
    # only the keys given, so SchemeFamily states the defaults
    return _built(path, SchemeFamily, kind,
                  **{key: _num(d, key, None, path) for key in d if key != "family"})


def _parse_payoff(d, default: Payoff, path: str) -> Payoff:
    if d is None:
        return default
    d = _mapping(d, path)
    _check_keys(d, {"kind", "strike", "low", "high"}, path)
    kind = _choice(d, "kind", PayoffKind, default.kind, f"{path}.kind")
    if kind is PayoffKind.DIGITAL_RANGE:
        if "strike" in d:
            raise ConfigError(f"{path}.strike: only valid for kind 'call' or 'put'")
        low = _num(d, "low", default.low, path)
        high = _num(d, "high", default.high if default.high > 0 else low + 1.0, path)
        return _built(path, digital_range, low, high)
    for key in ("low", "high"):
        if key in d:
            raise ConfigError(f"{path}.{key}: only valid for kind 'digital-range'")
    strike = _num(d, "strike", default.strike if default.strike > 0 else 100.0, path)
    return _built(path, call if kind is PayoffKind.CALL else put, strike)


@dataclass(frozen=True)
class RunConfig:
    """Validated experiment configuration."""

    model: str
    params: HestonParams | BsParams
    grid_x: GridSpec
    grid_v: GridSpec | None
    policy: UpwindPolicy
    schemes: tuple[SchemeFamily, ...]
    ladder: tuple[int, ...]
    l_ref: int
    validate_reference: bool
    payoff: Payoff
    l: int | None
    out_dir: str

    def to_json(self) -> str:
        cfg = {
            "model": self.model,
            "params": asdict(self.params),
            "grid": {"x": _grid_dict(self.grid_x)},
            "policy": self.policy.value,
            "schemes": [{"family": s.kind.value, **s.free} for s in self.schemes],
            "ladder": list(self.ladder),
            "reference": {"l_ref": self.l_ref, "validate": self.validate_reference},
            "payoff": _payoff_dict(self.payoff),
            "l": self.l,
            "out_dir": self.out_dir,
        }
        if self.grid_v is not None:
            cfg["grid"]["v"] = _grid_dict(self.grid_v)
        return json.dumps(cfg, indent=2, sort_keys=True)


def _grid_dict(spec: GridSpec) -> dict:
    return dict(asdict(spec), kind=spec.kind.value)


def _payoff_dict(p: Payoff) -> dict:
    if p.kind is PayoffKind.DIGITAL_RANGE:
        return {"kind": p.kind.value, "low": p.low, "high": p.high}
    return {"kind": p.kind.value, "strike": p.strike}


_TOP_KEYS = {"model", "params", "grid", "policy", "schemes", "ladder",
             "reference", "payoff", "l", "out_dir"}


def _parse_params(d: dict, base):
    """base, the model's default parameters, with the values given in d."""
    d = _mapping(d, "params")
    keys = [f.name for f in fields(base)]
    _check_keys(d, set(keys), "params")
    return _built("params", replace, base,
                  **{key: _num(d, key, getattr(base, key), "params") for key in keys})


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON config; defaults reproduce the 2-D stress case."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    raw = _mapping(raw, "config")
    _check_keys(raw, _TOP_KEYS, "config")

    model = raw.get("model", "heston")
    if model not in ("heston", "bs"):
        raise ConfigError(f"model: expected 'heston' or 'bs', got {model!r}")

    if model == "heston":
        params = _parse_params(raw.get("params", {}), default_heston_params())
        gx_default, gv_default = foulon_spec_x(params.strike), foulon_spec_v()
        policy_default, payoff_default = UpwindPolicy.PARTIAL_FITTING, call(params.strike)
    else:
        params = _parse_params(raw.get("params", {}), default_bs_params())
        gx_default, gv_default = bs_uniform_spec(), None
        policy_default, payoff_default = UpwindPolicy.NONE, digital_range(10.0, 100.0)

    grid_raw = _mapping(raw.get("grid", {}), "grid")
    _check_keys(grid_raw, {"x", "v"}, "grid")
    grid_x = _parse_grid(grid_raw.get("x", {}), gx_default, "grid.x")
    if model == "bs":
        if "v" in grid_raw:
            raise ConfigError("grid.v: not meaningful for the 1-D model")
        grid_v = None
    else:
        grid_v = _parse_grid(grid_raw.get("v", {}), gv_default, "grid.v")
        # every grid builder puts node 0 at a
        if grid_v.a < 0.0:
            raise ConfigError(f"grid.v.a: the variance grid must start at v >= 0, "
                              f"got {grid_v.a:g}")
        if grid_v.m < 2 and params.kappa * (params.theta - grid_v.a) != 0.0:
            raise ConfigError("grid.v.m: a one-cell variance grid needs kappa*(theta - v_min) = 0")
    # the price is read off the lattice at these points; off it, at the edge node
    for key, spec, path in (("spot", grid_x, "grid.x"), ("v0", grid_v, "grid.v")):
        if spec is not None and not spec.a <= getattr(params, key) <= spec.b:
            raise ConfigError(f"params.{key}: need a value inside {path} [{spec.a:g}, "
                              f"{spec.b:g}], got {getattr(params, key):g}")

    policy = _choice(raw, "policy", UpwindPolicy, policy_default, "policy")
    if model == "bs" and policy is UpwindPolicy.FOULON_REGION:
        raise ConfigError("policy: foulon-region-fitting selects rows by "
                          "variance level and needs model='heston'")

    schemes_raw = raw.get("schemes", [{"family": "rkc", "eps": 10.0}])
    if not isinstance(schemes_raw, list) or not schemes_raw:
        raise ConfigError("schemes: expected a non-empty list")
    schemes = tuple(_parse_scheme(s, f"schemes[{i}]")
                    for i, s in enumerate(schemes_raw))
    # every command keys its files and summaries on the label
    labels = [fam.label for fam in schemes]
    for i, label in enumerate(labels):
        if labels.index(label) != i:
            raise ConfigError(f"schemes[{labels.index(label)}] and schemes[{i}] "
                              f"share the label {label!r}")

    ladder_raw = raw.get("ladder", list(DEFAULT_LADDER))
    if (not isinstance(ladder_raw, list) or not ladder_raw
            or not all(isinstance(v, int) and not isinstance(v, bool) and v >= 1
                       for v in ladder_raw)):
        raise ConfigError("ladder: expected a non-empty list of integers >= 1")
    if any(b <= a for a, b in zip(ladder_raw, ladder_raw[1:])):
        raise ConfigError("ladder: must be strictly increasing")
    ladder = tuple(ladder_raw)

    ref_raw = _mapping(raw.get("reference", {}), "reference")
    _check_keys(ref_raw, {"l_ref", "validate"}, "reference")
    l_ref = _int(ref_raw, "l_ref", DEFAULT_L_REF, "reference", lo=3)
    validate = ref_raw.get("validate", True)
    if not isinstance(validate, bool):
        raise ConfigError(f"reference.validate: expected a boolean, got {validate!r}")

    payoff = _parse_payoff(raw.get("payoff"), payoff_default, "payoff")

    l = raw.get("l")
    if l is not None and (isinstance(l, bool) or not isinstance(l, int) or l < 1):
        raise ConfigError(f"l: expected an integer >= 1, got {l!r}")

    out_dir = raw.get("out_dir", "out")
    if not isinstance(out_dir, str) or not out_dir:
        raise ConfigError(f"out_dir: expected a non-empty string, got {out_dir!r}")

    return RunConfig(model=model, params=params, grid_x=grid_x, grid_v=grid_v,
                     policy=policy, schemes=schemes, ladder=ladder, l_ref=l_ref,
                     validate_reference=validate, payoff=payoff, l=l,
                     out_dir=out_dir)


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _finite_or_none(obj):
    """obj with every non-finite float replaced by None, which JSON writes as null."""
    if isinstance(obj, dict):
        return {k: _finite_or_none(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_none(v) for v in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def _write_json(path: Path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(_finite_or_none(obj), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _write_jsonl(path: Path, records) -> None:
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(_finite_or_none(rec), sort_keys=True, allow_nan=False)
                     + "\n")


def _slice_rows(op, field):
    vs = [0.0] if op.gv is None else op.gv.nodes
    rows = np.reshape(field, (op.gx.nodes.size, len(vs)))
    for i, x in enumerate(op.gx.nodes):
        for j, v in enumerate(vs):
            yield x, v, rows[i, j]


def _sanitize(label: str) -> str:
    return (label.replace("(", "_").replace(")", "").replace("=", "")
            .replace(".", "p").replace(",", "_"))


def _cmd_price(cfg: RunConfig, setup: Setup, out: Path, l: int) -> list[dict]:
    runs = []
    for fam in cfg.schemes:
        fld, _, run = run_and_score(fam, setup, l)
        runs.append(run)
        _write_csv(out / f"price_{_sanitize(fam.label)}.csv", ["x", "v", "value"],
                   _slice_rows(setup.op, fld))
    _write_json(out / "summary.json", {"l": l, "price_at_spot": {
        r.family: r.price_at_spot for r in runs}})
    return [asdict(r) for r in runs]


def _cmd_converge(cfg: RunConfig, setup: Setup, out: Path, l: int | None) -> list[dict]:
    result = run_time_convergence(setup, cfg.schemes, cfg.ladder, cfg.l_ref,
                                  cfg.validate_reference)
    summary = {}
    for fam in cfg.schemes:
        runs = [r for r in result.runs if r.family == fam.label]
        _write_csv(out / f"convergence_{_sanitize(fam.label)}.csv",
                   ["l", "rms_error", "exploded", "osc_metric", "price_at_spot"],
                   ((r.l, r.rms_error, r.exploded, r.osc_metric, r.price_at_spot)
                    for r in runs))
        summary[fam.label] = {
            "reference_check": result.reference_check,
            "explosions": [r.l for r in runs if r.exploded],
        }
    _write_json(out / "summary.json", summary)
    return [asdict(r) for r in result.runs]


def _cmd_spectrum(cfg: RunConfig, setup: Setup, out: Path, l: int) -> list[dict]:
    spec = setup.spectrum
    return [{"rho_gershgorin": setup.rho, "scale": cfg.params.expiry / l,
             "max_real": spec.max_real, "max_abs_imag": spec.max_abs_imag}]


def _cmd_delta(cfg: RunConfig, setup: Setup, out: Path, l: int) -> list[dict]:
    results = run_delta_comparison(setup, cfg.schemes, l)
    for label, (delta, _) in results.items():  # the row at v = grid.v.a
        _write_csv(out / f"delta_{_sanitize(label)}.csv", ["x", "v", "value"],
                   ((x, cfg.grid_v.a, d) for x, d in zip(setup.op.gx.nodes, delta)))
    _write_json(out / "summary.json", {"l": l, "osc_metric": {
        label: run.osc_metric for label, (_, run) in results.items()}})
    return [asdict(run) for _, run in results.values()]


def _cmd_bs_demo(cfg: RunConfig, setup: Setup, out: Path, l: int) -> list[dict]:
    result = run_bs_study(setup, cfg.schemes, l)
    for label, curve in result.curves.items():
        _write_csv(out / f"price_{_sanitize(label)}.csv", ["x", "v", "value"],
                   _slice_rows(setup.op, curve))
    _write_json(out / "summary.json", {
        "threshold": result.threshold,
        "osc_metric": {r.family: r.osc_metric for r in result.runs},
        "price_at_spot": {r.family: r.price_at_spot for r in result.runs},
    })
    return [asdict(r) for r in result.runs]


# name: (handler, the model it drives or None for either, the l it runs at
# when the config gives none, whether dispatch adds the spectrum to the setup,
# help); converge takes its steps from the ladder
_COMMANDS = {
    "price": (_cmd_price, None, 100, False,
              "integrate the payoff and write price slices"),
    "converge": (_cmd_converge, "heston", None, False,
                 "time-convergence ladder against the implicit reference"),
    "spectrum": (_cmd_spectrum, None, 16, True,
                 "dense eigenvalues of the scaled operator"),
    "delta": (_cmd_delta, "heston", 10, False,
              "delta slices near v=0 for each configured scheme"),
    "bs-demo": (_cmd_bs_demo, "bs", 100, True, "flat-volatility barrier study"),
}


def dispatch(cmd: str, cfg: RunConfig, out_dir: str | None = None,
             strict: bool = False) -> int:
    """Run one subcommand; returns the process exit status."""
    if cmd not in _COMMANDS:
        raise ConfigError(f"unknown command {cmd!r}; "
                          f"expected one of {sorted(_COMMANDS)}")
    run, model, l_default, eigensolves, _ = _COMMANDS[cmd]
    if model is not None and cfg.model != model:
        dim = "2-D" if model == "heston" else "1-D"
        raise ConfigError(f"{cmd} drives the {dim} model; set model={model!r}")
    gx = _built("grid.x", make_grid, cfg.grid_x)
    gv = None if cfg.grid_v is None else _built("grid.v", make_grid, cfg.grid_v)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, in one line
        try:
            setup = prepare(cfg.params, gx, gv, cfg.policy, cfg.payoff)
        except OverflowError:  # a Python float power, such as sigma**2
            setup = None
    if setup is None or not math.isfinite(setup.rho):
        raise ConfigError("params: the operator overflows float64")
    held = np.count_nonzero(setup.window)
    if held < 3:  # the oscillation metric needs a slice of 3 nodes
        lo, hi = cfg.payoff.window
        raise ConfigError(f"grid.x: need >= 3 nodes in the payoff's oscillation "
                          f"window [{lo:g}, {hi:g}], got {held}")
    l = cfg.l or l_default
    if eigensolves:
        setup = replace(setup, spectrum=_built("grid", eigenvalues_dense, setup.op.matrix,
                                               scale=cfg.params.expiry / l))
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # written first, so a run that fails still leaves the config that replays it
    (out / "config.json").write_text(replace(cfg, out_dir=str(out)).to_json() + "\n")
    if eigensolves:
        write_spectrum(setup.spectrum, out / "spectrum.csv")
    records = run(cfg, setup, out, l)
    _write_jsonl(out / "run_log.jsonl", records)
    if strict and any(rec.get("exploded") for rec in records):
        print(f"{cmd}: explosion detected; failing due to --strict",
              file=sys.stderr)
        return 2
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="stslab",
        description="Finite-difference lab for super-time-stepping schemes "
                    "on pricing PDEs")
    sub = parser.add_subparsers(dest="cmd", required=True)
    for name, (*_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=Path, default=None,
                       help="JSON config path (defaults apply if omitted)")
        p.add_argument("--out", type=str, default=None,
                       help="output directory (overrides config out_dir)")
        p.add_argument("--strict", action="store_true",
                       help="exit nonzero if any run explodes")
    args = parser.parse_args(argv)
    try:
        try:
            text = (args.config.read_text(encoding="utf-8") if args.config is not None
                    else json.dumps({"model": _COMMANDS[args.cmd][1] or "heston"}))
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"--config: {exc}") from exc
        cfg = parse_config(text)
        return dispatch(args.cmd, cfg, out_dir=args.out, strict=args.strict)
    except (ConfigError, InfeasibleStepError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
