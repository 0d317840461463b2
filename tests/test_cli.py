"""Config parsing, subcommand dispatch, and output determinism."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

import stslab.experiments
import stslab.grids
import stslab.schemes
import stslab.spectra
from stslab.cli import ConfigError, dispatch, main, parse_config
from stslab.experiments import (DEFAULT_LADDER, PayoffKind, bs_uniform_grid,
                                default_bs_params, default_heston_params,
                                foulon_spec_v, foulon_spec_x, prepare)
from stslab.grids import StretchKind, make_grid
from stslab.operators import BsParams, HestonParams, UpwindPolicy
from stslab.schemes import FamilyKind
from stslab.spectra import eigenvalues_dense, write_spectrum

# ------------------------------------------------------------------- parsing

def test_empty_config_gives_heston_defaults():
    cfg = parse_config("{}")
    assert cfg.model == "heston"
    assert isinstance(cfg.params, HestonParams)
    assert (cfg.grid_x.kind, cfg.grid_x.a, cfg.grid_x.b, cfg.grid_x.m) == \
        (StretchKind.SINH, 0.0, 800.0, 100)
    assert cfg.grid_x.center == 100.0 and cfg.grid_x.lam == 20.0
    assert (cfg.grid_v.kind, cfg.grid_v.b, cfg.grid_v.m) == (StretchKind.SINH, 5.0, 50)
    assert cfg.policy is UpwindPolicy.PARTIAL_FITTING
    assert len(cfg.schemes) == 1 and cfg.schemes[0].kind is FamilyKind.RKC
    assert cfg.schemes[0].eps == 10.0
    assert cfg.ladder == DEFAULT_LADDER
    assert cfg.l_ref == 4000 and cfg.validate_reference
    assert cfg.payoff.kind is PayoffKind.CALL and cfg.payoff.strike == 100.0
    assert cfg.l is None


def test_bs_defaults():
    cfg = parse_config('{"model": "bs"}')
    assert cfg.model == "bs"
    assert isinstance(cfg.params, BsParams)
    assert cfg.grid_v is None
    assert (cfg.grid_x.kind, cfg.grid_x.b, cfg.grid_x.m) == (StretchKind.UNIFORM, 150.0, 100)
    assert cfg.policy is UpwindPolicy.NONE
    assert cfg.payoff.kind is PayoffKind.DIGITAL_RANGE
    assert (cfg.payoff.low, cfg.payoff.high) == (10.0, 100.0)


def test_defaults_are_the_experiment_defaults():
    cfg = parse_config("{}")
    assert cfg.params == default_heston_params()
    for spec, want in ((cfg.grid_x, foulon_spec_x(100.0, 100)), (cfg.grid_v, foulon_spec_v(50))):
        assert make_grid(spec).nodes.tobytes() == make_grid(want).nodes.tobytes()
    cfg = parse_config('{"model": "bs"}')
    assert cfg.params == default_bs_params()
    assert cfg.grid_v is None
    assert make_grid(cfg.grid_x).nodes.tobytes() == bs_uniform_grid().nodes.tobytes()


@pytest.mark.parametrize("model", ["heston", "bs"])
def test_config_roundtrip(model):
    cfg = parse_config(json.dumps({"model": model}))
    assert parse_config(cfg.to_json()) == cfg


def test_roundtrip_with_overrides():
    text = json.dumps({
        "model": "heston",
        "params": {"rho": -0.3, "expiry": 2.0},
        "grid": {"x": {"kind": "cubic", "m": 40, "alpha": 0.5, "center": 90.0},
                 "v": {"m": 12}},
        "policy": "foulon-region-fitting",
        "schemes": [{"family": "rkl"}, {"family": "rkg", "g": 3.0}, {"family": "euler"},
                    {"family": "rkc", "eps": 3.5}],
        "ladder": [4, 8],
        "reference": {"l_ref": 100, "validate": False},
        "payoff": {"kind": "put", "strike": 95.0},
        "l": 7,
    })
    cfg = parse_config(text)
    assert cfg.params.rho == -0.3 and cfg.params.expiry == 2.0
    assert cfg.grid_x.kind is StretchKind.CUBIC and cfg.grid_v.m == 12
    assert cfg.policy is UpwindPolicy.FOULON_REGION
    assert [s.kind for s in cfg.schemes] == [FamilyKind.RKL, FamilyKind.RKG,
                                             FamilyKind.EULER, FamilyKind.RKC]
    assert cfg.schemes[1].g == 3.0 and cfg.schemes[3].eps == 3.5
    # each family writes its own free parameter and no other
    assert json.loads(cfg.to_json())["schemes"] == [
        {"family": "rkl"}, {"family": "rkg", "g": 3.0}, {"family": "euler"},
        {"family": "rkc", "eps": 3.5}]
    assert cfg.payoff.kind is PayoffKind.PUT and cfg.payoff.strike == 95.0
    assert cfg.l == 7 and not cfg.validate_reference
    assert parse_config(cfg.to_json()) == cfg


GRID_KINDS = {
    "uniform": {"kind": "uniform", "a": 0.0, "b": 400.0, "m": 30},
    "sinh": {"kind": "sinh", "a": 0.0, "b": 400.0, "m": 30, "center": 90.0, "lam": 15.0},
    "cubic": {"kind": "cubic", "a": 0.0, "b": 400.0, "m": 30, "center": 90.0, "alpha": 0.5},
}


@pytest.mark.parametrize("kind", list(GRID_KINDS))
def test_grid_recipe_roundtrips_with_only_its_kinds_keys(kind):
    """config.json writes the keys the kind's builder reads, and no other."""
    cfg = parse_config(json.dumps({"grid": {"x": GRID_KINDS[kind]}}))
    assert json.loads(cfg.to_json())["grid"]["x"] == GRID_KINDS[kind]
    assert parse_config(cfg.to_json()) == cfg


@pytest.mark.parametrize("text,needle", [
    ("not json", "not valid JSON"),
    ("[1, 2]", "config: expected an object"),
    ('{"surprise": 1}', "config: unknown key(s) surprise"),
    ('{"model": "cir"}', "expected 'heston' or 'bs'"),
    ('{"params": {"rho": 1.5}}', "params: need rho in [-1, 1], got 1.5"),
    ('{"params": {"kappa": 0}}', "params: need kappa > 0, got 0.0"),
    ('{"params": {"expiry": "soon"}}', "params.expiry: expected a number"),
    # json reads NaN and Infinity, and these keys have no bounds to catch them
    ('{"params": {"r": Infinity}}', "params.r: need a finite number, got inf"),
    ('{"model": "bs", "params": {"q": NaN}}', "params.q: need a finite number, got nan"),
    ('{"grid": {"x": {"center": -Infinity}}}', "grid.x.center: need a finite number"),
    ('{"model": "bs", "params": {"v0": 0.1}}', "params: unknown key(s) v0"),
    ('{"grid": {"x": {"kind": "log"}}}', "grid.x.kind"),
    # a choice that is not a string is refused like an unknown name
    ('{"grid": {"x": {"kind": ["sinh"]}}}',
     "grid.x.kind: expected one of ['cubic', 'sinh', 'uniform'], got ['sinh']"),
    ('{"grid": {"x": {"a": 5, "b": 1}}}', "grid.x: need a < b"),
    ('{"grid": {"x": {"m": 0}}}', "grid.x: need m >= 2, got 0"),
    ('{"model": "bs", "grid": {"v": {"m": 5}}}', "grid.v: not meaningful"),
    ('{"policy": "downwind"}', "policy: expected one of"),
    ('{"policy": {"name": "none"}}', "policy: expected one of"),
    ('{"model": "bs", "policy": "foulon-region-fitting"}', "needs model='heston'"),
    ('{"schemes": []}', "schemes: expected a non-empty list"),
    ('{"schemes": [{"family": "ab3"}]}', "schemes[0].family"),
    ('{"schemes": [{"family": ["rkc"]}]}', "schemes[0].family: expected one of"),
    ('{"schemes": [{"family": "rkl", "eps": 5}]}', "only valid for family 'rkc'"),
    ('{"schemes": [{"family": "rkc", "g": 3}]}', "only valid for family 'rkg'"),
    ('{"schemes": [{"family": "rkl"}, {"family": "rkc", "eps": 10}, '
     '{"family": "rkc", "eps": 10.0000001}]}',
     "schemes[1] and schemes[2] share the label 'rkc(eps=10)'"),
    ('{"ladder": [10, 10]}', "strictly increasing"),
    ('{"ladder": [10, 5.5]}', "list of integers"),
    ('{"reference": {"l_ref": 2}}', "reference.l_ref: need value >= 3"),
    ('{"reference": {"validate": 1}}', "reference.validate: expected a boolean"),
    ('{"roi": {"x_low": 80.0, "x_high": 120.0}}', "config: unknown key(s) roi"),
    ('{"payoff": {"kind": "binary"}}', "payoff.kind"),
    ('{"payoff": {"kind": ["call"]}}', "payoff.kind: expected one of"),
    ('{"payoff": {"kind": "digital-range", "low": 9, "high": 2}}',
     "payoff: need 0 <= low < high, got (9.0, 2.0)"),
    ('{"payoff": {"kind": "call", "low": 5}}',
     "payoff.low: only valid for kind 'digital-range'"),
    ('{"payoff": {"kind": "digital-range", "low": 5, "high": 50, "strike": 100}}',
     "payoff.strike: only valid for kind 'call' or 'put'"),
    ('{"l": 0}', "l: expected an integer >= 1"),
])
def test_config_rejections(text, needle):
    with pytest.raises(ConfigError, match=None) as err:
        parse_config(text)
    assert needle in str(err.value)


def test_dispatch_rejects_unknown_command(tmp_path):
    with pytest.raises(ConfigError, match="unknown command"):
        dispatch("render", parse_config("{}"), out_dir=str(tmp_path / "out"))
    assert not (tmp_path / "out").exists()


def test_model_command_mismatches(tmp_path):
    # refused before the output directory or its config.json is made
    bs = parse_config('{"model": "bs"}')
    out = tmp_path / "out"
    with pytest.raises(ConfigError, match="converge drives the 2-D model; "
                                          "set model='heston'"):
        dispatch("converge", bs, out_dir=str(out))
    with pytest.raises(ConfigError, match="delta drives the 2-D model; "
                                          "set model='heston'"):
        dispatch("delta", bs, out_dir=str(out))
    with pytest.raises(ConfigError, match="bs-demo drives the 1-D model; "
                                          "set model='bs'"):
        dispatch("bs-demo", parse_config("{}"), out_dir=str(out))
    assert not out.exists()


# ---------------------------------------------------------------- subcommands

TINY_HESTON = {
    "model": "heston",
    "grid": {"x": {"m": 16}, "v": {"m": 8}},
    "schemes": [{"family": "rkc", "eps": 10.0}],
    "l": 5,
}


def write_config(tmp_path: Path, payload: dict) -> Path:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return path


def reject_constant(name: str):
    raise ValueError(f"{name} is not strict JSON")


def read_summary(out: Path) -> dict:
    return json.loads((out / "summary.json").read_text(),
                      parse_constant=reject_constant)


def read_log(out: Path) -> list[dict]:
    """The run log, parsed as strict JSON (NaN and Infinity are refused)."""
    return [json.loads(line, parse_constant=reject_constant) for line in
            (out / "run_log.jsonl").read_text().splitlines()]


def test_price_smoke_and_determinism(tmp_path):
    cfg_path = write_config(tmp_path, TINY_HESTON)
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(["price", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert main(["price", "--config", str(cfg_path), "--out", str(out2)]) == 0
    price = out1 / "price_rkc_eps10.csv"
    assert price.exists()
    data = np.loadtxt(price, delimiter=",", skiprows=1)
    assert data.shape == (17 * 9, 3)
    summary = read_summary(out1)
    assert summary["l"] == 5
    assert np.isfinite(summary["price_at_spot"]["rkc(eps=10)"])
    log = read_log(out1)
    assert len(log) == 1 and not log[0]["exploded"]
    rec = log[0]
    assert rec["explosion_stage"] is None and rec["t_select"] >= 0.0
    assert rec["need"] == pytest.approx(rec["rho"] * 1.0 / 5)
    assert rec["dt"] == 1.0 / 5 and rec["stage_evals"] == sum(rec["s_per_step"])
    assert rec["margin"] >= 1.0
    assert rec["price_at_spot"] == summary["price_at_spot"]["rkc(eps=10)"]
    # identical configs must produce byte-identical data files
    for name in ("price_rkc_eps10.csv", "summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_converge_smoke(tmp_path):
    payload = {
        "model": "heston",
        "grid": {"x": {"m": 12}, "v": {"m": 6}},
        "schemes": [{"family": "rkc", "eps": 10.0}],
        "ladder": [5, 10],
        "reference": {"l_ref": 60, "validate": False},
    }
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, payload)
    assert main(["converge", "--config", str(cfg_path), "--out", str(out)]) == 0
    lines = (out / "convergence_rkc_eps10.csv").read_text().splitlines()
    assert lines[0] == "l,rms_error,exploded,osc_metric,price_at_spot"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "5" and float(first[1]) >= 0.0 and first[2] == "false"
    summary = read_summary(out)
    assert summary["rkc(eps=10)"]["explosions"] == []
    # each run record carries the score of its CSV row
    log = read_log(out)
    assert [rec["l"] for rec in log] == [5, 10]
    for rec, line in zip(log, lines[1:]):
        _, rms, _, osc, price = line.split(",")
        assert (rec["rms_error"], rec["osc_metric"], rec["price_at_spot"]) == \
            (float(rms), float(osc), float(price))


THREE_FAMILIES = [{"family": "rkc", "eps": 10.0}, {"family": "rkl"},
                  {"family": "rkg", "g": 2.0}]
# the grids, ladder and reference of test_time_convergence_small
SMALL_CONVERGE = {
    "model": "heston",
    "grid": {"x": {"m": 40}, "v": {"m": 20}},
    "ladder": [20, 40],
    "reference": {"l_ref": 400, "validate": True},
}


@pytest.fixture(scope="module")
def converge_three(tmp_path_factory):
    """A 3-scheme converge, with the l of every CN run it made."""
    out = tmp_path_factory.mktemp("converge3")
    cn_steps = []
    real = stslab.experiments.crank_nicolson_run

    def counting(op, y0, expiry, l):
        cn_steps.append(l)
        return real(op, y0, expiry, l)

    cfg = parse_config(json.dumps(dict(SMALL_CONVERGE, schemes=THREE_FAMILIES)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stslab.experiments, "crank_nicolson_run", counting)
        assert dispatch("converge", cfg, out_dir=str(out)) == 0
    return out, cn_steps


def test_converge_runs_one_reference_pair(converge_three):
    out, cn_steps = converge_three
    assert cn_steps == [400, 800]
    summary = read_summary(out)
    assert set(summary) == {"rkc(eps=10)", "rkl", "rkg(g=2)"}
    assert len({entry["reference_check"] for entry in summary.values()}) == 1
    # the run log is family-major in config order
    assert [(rec["family"], rec["l"]) for rec in read_log(out)] == [
        (label, l) for label in ("rkc(eps=10)", "rkl", "rkg(g=2)") for l in (20, 40)]


@pytest.mark.parametrize("scheme", THREE_FAMILIES, ids=lambda s: s["family"])
def test_converge_csv_matches_one_scheme_run(scheme, converge_three, tmp_path):
    out, _ = converge_three
    cfg = parse_config(json.dumps(dict(SMALL_CONVERGE, schemes=[scheme])))
    assert dispatch("converge", cfg, out_dir=str(tmp_path)) == 0
    csv, = tmp_path.glob("convergence_*.csv")
    assert csv.read_bytes() == (out / csv.name).read_bytes()


def test_price_and_delta_score_oscillation_alike(tmp_path):
    cfg = parse_config(json.dumps(dict(TINY_HESTON, schemes=THREE_FAMILIES)))
    osc = {}
    for cmd in ("price", "delta"):
        assert dispatch(cmd, cfg, out_dir=str(tmp_path / cmd)) == 0
        osc[cmd] = {rec["family"]: rec["osc_metric"]
                    for rec in read_log(tmp_path / cmd)}
    assert set(osc["price"]) == {"rkc(eps=10)", "rkl", "rkg(g=2)"}
    assert all(isinstance(v, float) for v in osc["price"].values())
    assert osc["price"] == osc["delta"]
    assert osc["delta"] == read_summary(tmp_path / "delta")["osc_metric"]


def test_spectrum_smoke(tmp_path):
    payload = {"model": "heston", "grid": {"x": {"m": 10}, "v": {"m": 5}},
               "l": 16}
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, payload)
    assert main(["spectrum", "--config", str(cfg_path), "--out", str(out)]) == 0
    data = np.loadtxt(out / "spectrum.csv", delimiter=",", skiprows=1)
    assert data.shape == (11 * 6, 2)
    meta = json.loads((out / "spectrum.json").read_text())
    assert meta["n"] == 66
    log = read_log(out)
    assert log[0]["scale"] == 1.0 / 16.0 and log[0]["rho_gershgorin"] > 0.0


def test_delta_smoke(tmp_path):
    payload = dict(TINY_HESTON, l=4)
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, payload)
    assert main(["delta", "--config", str(cfg_path), "--out", str(out)]) == 0
    data = np.loadtxt(out / "delta_rkc_eps10.csv", delimiter=",", skiprows=1)
    assert data.shape == (17, 3)
    assert np.all(data[:, 1] == 0.0)       # the slice nearest v = 0
    summary = read_summary(out)
    assert summary["osc_metric"]["rkc(eps=10)"] >= 0.0
    log = read_log(out)
    assert {rec["family"]: rec["osc_metric"] for rec in log} == summary["osc_metric"]
    assert np.isfinite(log[0]["price_at_spot"]) and log[0]["rms_error"] is None


def test_bs_demo_smoke(tmp_path):
    payload = {"model": "bs", "grid": {"x": {"m": 30}},
               "schemes": [{"family": "rkl"}, {"family": "rkg"}], "l": 10}
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, payload)
    assert main(["bs-demo", "--config", str(cfg_path), "--out", str(out)]) == 0
    for name in ("price_trbdf2.csv", "price_rkl.csv", "price_rkg_g2.csv",
                 "spectrum.csv", "summary.json", "run_log.jsonl"):
        assert (out / name).exists()
    summary = read_summary(out)
    assert summary["threshold"] > 0.0
    assert set(summary["osc_metric"]) == {"trbdf2", "rkl", "rkg(g=2)"}
    # the TR-BDF2 baseline is the first record, then one per family
    log = read_log(out)
    assert [rec["family"] for rec in log] == ["trbdf2", "rkl", "rkg(g=2)"]
    assert log[0]["s_per_step"] == [] and log[0]["dt"] == 0.1
    # non-finite fields (an infinite margin, an unscored rms) are written as null
    assert log[0]["margin"] is None and log[0]["rms_error"] is None
    assert {rec["family"]: rec["osc_metric"] for rec in log} == summary["osc_metric"]
    assert ({rec["family"]: rec["price_at_spot"] for rec in log}
            == summary["price_at_spot"])


EXPLODING = {
    "model": "heston",
    "params": {"expiry": 50.0},
    "policy": "none",
    "schemes": [{"family": "rkl"}],
    "l": 20,
}


def test_strict_flag_fails_on_explosion(tmp_path):
    cfg_path = write_config(tmp_path, EXPLODING)
    out = tmp_path / "out"
    rc = main(["price", "--config", str(cfg_path), "--out", str(out),
               "--strict"])
    assert rc == 2
    log = read_log(out)
    assert log[0]["exploded"] and log[0]["explosion_step"] is not None
    assert 1 <= log[0]["explosion_stage"] <= log[0]["s_per_step"][0]
    assert log[0]["margin"] >= 1.0 and log[0]["price_at_spot"] is None
    summary = read_summary(out)
    assert summary["price_at_spot"]["rkl"] is None
    # without --strict the run is recorded but the exit status stays 0
    rc = main(["price", "--config", str(cfg_path), "--out",
               str(tmp_path / "out2")])
    assert rc == 0


REPLAYED = {
    "price": TINY_HESTON,
    "converge": {"model": "heston", "grid": {"x": {"m": 16}, "v": {"m": 8}},
                 "schemes": [{"family": "rkc", "eps": 10.0}], "ladder": [5, 10],
                 "reference": {"l_ref": 60, "validate": False}},
    "spectrum": {"model": "heston", "grid": {"x": {"m": 10}, "v": {"m": 5}}, "l": 5},
    "delta": TINY_HESTON,
    "bs-demo": {"model": "bs", "grid": {"x": {"m": 30}},
                "schemes": [{"family": "rkl"}], "l": 10},
}
# the top-level keys each command reads
SPACE = {"model", "params", "grid", "policy"}
READS = {"price": SPACE | {"schemes", "payoff", "l"},
         "converge": SPACE | {"schemes", "payoff", "ladder", "reference"},
         "spectrum": SPACE | {"l"},
         "delta": SPACE | {"schemes", "payoff", "l"},
         "bs-demo": SPACE | {"schemes", "payoff", "l"}}


@pytest.mark.parametrize("cmd", list(REPLAYED))
def test_config_json_replays_the_run(cmd, tmp_path):
    """Each run writes its resolved config, with exactly the keys its command
    reads, and running that config again writes the same data files."""
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    cfg = parse_config(json.dumps(REPLAYED[cmd]))
    assert dispatch(cmd, cfg, out_dir=str(out1)) == 0
    assert set(json.loads((out1 / "config.json").read_text())) == READS[cmd]
    assert parse_config((out1 / "config.json").read_text()) == cfg
    assert main([cmd, "--config", str(out1 / "config.json"), "--out", str(out2)]) == 0
    names = sorted(p.name for p in out1.iterdir())
    assert names == sorted(p.name for p in out2.iterdir())
    for name in names:
        if name != "run_log.jsonl":  # its wall times differ
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


# a valid value for every top-level key
EVERY_KEY = {"model": "heston", "params": {"rho": -0.5}, "grid": {"x": {"m": 16}},
             "policy": "none", "schemes": [{"family": "rkl"}], "ladder": [5, 10],
             "reference": {"l_ref": 60}, "payoff": {"kind": "put", "strike": 90.0}, "l": 5}


@pytest.mark.parametrize("cmd,key", [(cmd, key) for cmd in READS
                                     for key in sorted(set(EVERY_KEY) - READS[cmd])])
def test_a_key_the_command_does_not_read_is_refused(cmd, key, tmp_path, capsys):
    """A key that changes nothing, such as ladder on price or schemes on
    spectrum, would fake a finding: it is refused before anything is written."""
    cfg = write_config(tmp_path, dict(REPLAYED[cmd], **{key: EVERY_KEY[key]}))
    out = tmp_path / "out"
    assert main([cmd, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {cmd} does not read key(s) {key}\n"
    assert not out.exists()


def test_every_unread_key_is_named_in_one_line(tmp_path, capsys):
    cfg = write_config(tmp_path, EVERY_KEY)
    assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == ("config error: spectrum does not read key(s) "
                                       "ladder, payoff, reference, schemes\n")
    assert not (tmp_path / "out").exists()


def test_config_json_does_not_depend_on_the_output_directory(tmp_path):
    cfg = parse_config(json.dumps(dict(TINY_HESTON, grid={"x": GRID_KINDS["cubic"],
                                                          "v": {"m": 8}})))
    for name in ("one", "two"):
        assert dispatch("price", cfg, out_dir=str(tmp_path / name)) == 0
    text = (tmp_path / "one" / "config.json").read_bytes()
    assert text == (tmp_path / "two" / "config.json").read_bytes()
    assert b"out_dir" not in text


# CN at l_ref = 3 is far from CN at 6 on this grid
L_REF_3 = {"grid": {"x": {"m": 20}, "v": {"m": 10}}, "ladder": [20], "reference": {"l_ref": 3}}


def test_config_json_written_before_the_run(tmp_path):
    # the reference check fails only after the ladder has run, so the config
    # written first is left to replay the run
    cfg = parse_config(json.dumps(L_REF_3))
    with pytest.raises(ConfigError, match="reference not self-converged"):
        dispatch("converge", cfg, out_dir=str(tmp_path))
    assert parse_config((tmp_path / "config.json").read_text()) == cfg


def test_main_reports_config_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"model": "cir"}')
    assert main(["price", "--config", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err


def unreadable_config(tmp_path: Path, kind: str) -> Path:
    if kind == "missing":
        return tmp_path / "missing.json"
    if kind == "directory":
        return tmp_path
    path = tmp_path / "latin1.json"
    path.write_bytes('{"model": "caf\u00e9"}'.encode("latin-1"))
    return path


@pytest.mark.parametrize("kind,needle", [
    ("missing", "No such file or directory"),
    ("directory", "Is a directory"),
    ("not-utf8", "'utf-8' codec can't decode byte 0xe9"),
])
def test_unreadable_config_path_is_a_config_error(tmp_path, capsys, kind, needle):
    # main read the file outside its try: each was a traceback with exit status 1
    out = tmp_path / "out"
    assert main(["price", "--config", str(unreadable_config(tmp_path, kind)),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --config: ") and err.count("\n") == 1
    assert needle in err
    assert not out.exists()


def test_output_path_that_is_a_file_is_a_config_error(tmp_path, capsys):
    # mkdir raised FileExistsError: a traceback with exit status 1
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    cfg = write_config(tmp_path, TINY_HESTON)
    assert main(["price", "--config", str(cfg), "--out", str(taken)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --out: [Errno 17] File exists: ")
    assert err.count("\n") == 1
    assert taken.read_text() == "kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "taken"]


def test_config_json_that_is_a_directory_is_a_config_error(tmp_path, capsys):
    # writing config.json raised IsADirectoryError: a traceback with exit status 1
    out = tmp_path / "out"
    (out / "config.json").mkdir(parents=True)
    cfg = write_config(tmp_path, TINY_HESTON)
    assert main(["price", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --out: [Errno 21] Is a directory: ")
    assert err.count("\n") == 1
    assert [p.name for p in out.iterdir()] == ["config.json"]
    assert not any((out / "config.json").iterdir())


# 4 x nodes on the default [0, 800] sinh grid: one lies in the window [50, 150]
WINDOWLESS = {"grid": {"x": {"m": 3}, "v": {"m": 3}}}


def test_spectrum_needs_no_oscillation_window(tmp_path, capsys):
    """spectrum scores nothing, so only the commands that run schemes need
    three nodes in the payoff's window."""
    cfg = write_config(tmp_path, WINDOWLESS)
    assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 0
    data = np.loadtxt(tmp_path / "s" / "spectrum.csv", delimiter=",", skiprows=1)
    assert data.shape == (16, 2)
    assert capsys.readouterr().err == ""
    assert main(["price", "--config", str(cfg), "--out", str(tmp_path / "p")]) == 2
    assert capsys.readouterr().err == ("config error: grid.x: need >= 3 nodes in the "
                                       "payoff's oscillation window [50, 150], got 1\n")
    assert not (tmp_path / "p").exists()


def test_main_reports_an_unconverged_reference(tmp_path, capsys):
    # CN at l_ref = 3 is far from CN at 6: one line naming the key, and only
    # config.json is left, since the check runs after the ladder
    cfg = tmp_path / "l_ref3.json"
    cfg.write_text(json.dumps(L_REF_3))
    out = tmp_path / "out"
    assert main(["converge", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: reference.l_ref: reference not self-converged: "
                          "rms(l=3, l=6) = ") and err.count("\n") == 1
    assert sorted(p.name for p in out.iterdir()) == ["config.json"]


R_1E150 = {"params": {"r": 1e150}, "grid": {"x": {"m": 20}, "v": {"m": 10}}}


def test_main_names_the_stage_cap(tmp_path, capsys):
    # dispatch plans the runs of every command that runs schemes, so the cap
    # is refused before anything is written, naming the scheme's config path
    # and the step count: the default l, or converge's first rung
    cfg = write_config(tmp_path, R_1E150)
    for cmd, l in (("price", 100), ("converge", 10), ("delta", 10)):
        out = tmp_path / cmd
        assert main([cmd, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: schemes[0]: l = {l}: stage count out of "
                              "range: rkc(eps=10) needs more than 10**6 stages to cover "
                              "dt*rho = ")
        assert err.count("\n") == 1 and not out.exists()


def unrunnable(payload, message, id, cmd="price"):
    return pytest.param(payload, message, cmd, id=id)


R_1E308 = {"params": {"r": 1e308}, "grid": {"x": {"m": 20}, "v": {"m": 10}}}
OVERFLOWS = "params: the operator overflows float64"
# rkc(eps=1e5) overflows its coefficient table at the stage count l = 10 needs
RKC_1E5 = {"grid": {"x": {"m": 60}, "v": {"m": 30}}, "policy": "foulon-region-fitting",
           "schemes": [{"family": "rkc", "eps": 100000.0}], "l": 10}
CAP = "stage count out of range: rkc(eps=10) needs more than 10**6 stages to cover dt*rho ="
EULER_L10 = {"schemes": [{"family": "euler"}], "grid": {"x": {"m": 20}, "v": {"m": 10}},
             "l": 10}
EULER_LADDER = {"schemes": [{"family": "euler"}], "grid": {"x": {"m": 20}, "v": {"m": 10}},
                "ladder": [10, 5000]}
EULER_232 = ("explicit Euler needs dt*rho <= 1.9, got 232.053; use at least 123x more "
             "steps or a stabilized family")


# Each was accepted by the parser and then failed inside a command, some only
# after every scheme had run, or ran and wrote a wrong number; each is now
# refused by the parser or by dispatch before it writes.
UNRUNNABLE = [
    unrunnable({"model": "bs", "grid": {"x": {"kind": "cubic", "m": 2}}},
               "grid.x: need m >= 4 for a cubic mesh, got 2", id="bs-cubic-m2"),
    unrunnable({"model": "bs", "grid": {"x": {"kind": "cubic", "center": 900.0}}},
               "grid.x: center 900.0 outside [0.0, 150.0]", id="bs-cubic-center"),
    unrunnable({"grid": {"v": {"m": 1}}}, "grid.v: need m >= 2, got 1",
               id="heston-sinh-v-m1"),
    # keys the grid's kind never reads, and the output directory, which only
    # --out sets: each was accepted and changed nothing
    unrunnable({"grid": {"x": {"kind": "uniform", "lam": 5.0}}},
               "grid.x: unknown key(s) lam", id="uniform-lam"),
    unrunnable({"grid": {"x": {"alpha": 0.5}}}, "grid.x: unknown key(s) alpha",
               id="sinh-alpha"),
    unrunnable({"model": "bs", "grid": {"x": {"kind": "cubic", "center": 100.0,
                                              "lam": 5.0}}},
               "grid.x: unknown key(s) lam", id="cubic-lam"),
    unrunnable({"out_dir": "x"}, "config: unknown key(s) out_dir", id="out_dir"),
    unrunnable({"grid": {"v": {"kind": "uniform", "a": -1.0}}},
               "grid.v.a: the variance grid must start at v >= 0, got -1",
               id="heston-v-below-0"),
    unrunnable({"grid": {"v": {"kind": "uniform", "m": 1}}},
               "grid.v.m: a one-cell variance grid needs kappa*(theta - v_min) = 0",
               id="heston-v-one-cell"),
    # the price was computed on a lattice reaching below x = 0
    unrunnable({"grid": {"x": {"a": -50.0, "m": 20}, "v": {"m": 10}}, "l": 40},
               "grid.x.a: the price grid must start at x >= 0, got -50",
               id="heston-x-below-0"),
    unrunnable({"model": "bs", "grid": {"x": {"a": -50.0}}},
               "grid.x.a: the price grid must start at x >= 0, got -50", id="bs-x-below-0"),
    # uniform on [0, 800]: only the nodes 53.3 and 106.7 lie in [50, 150]
    unrunnable({"grid": {"x": {"kind": "uniform", "m": 15}}},
               "grid.x: need >= 3 nodes in the payoff's oscillation window "
               "[50, 150], got 2", id="heston-window-2-nodes"),
    unrunnable({"model": "bs", "grid": {"x": {"m": 1}}},
               "grid.x: need >= 3 nodes in the payoff's oscillation window "
               "[50, 150], got 1", id="bs-x-m1"),
    unrunnable({"model": "bs", "payoff": {"kind": "digital-range", "low": 200.0,
                                          "high": 300.0}},
               "grid.x: need >= 3 nodes in the payoff's oscillation window "
               "[150, 450], got 1", id="bs-digital-off-grid"),
    # the dense eigensolve refused its matrix after the config was written, and
    # bs-demo only after TR-BDF2 and every scheme had run
    unrunnable({"grid": {"x": {"m": 200}, "v": {"m": 100}}},
               "grid: matrix dimension 20301 exceeds the dense guard 10000; coarsen "
               "the grid or use an iterative eigensolver externally",
               id="spectrum-20301-nodes", cmd="spectrum"),
    unrunnable({"model": "bs", "grid": {"x": {"m": 10000}}},
               "grid: matrix dimension 10001 exceeds the dense guard 10000; coarsen "
               "the grid or use an iterative eigensolver externally",
               id="bs-demo-10001-nodes", cmd="bs-demo"),
    # the assembled operator overflowed: stage selection or the eigensolve
    # raised on its non-finite entries, or assembly on sigma**2, each as a
    # traceback after the config was written
    unrunnable(R_1E308, OVERFLOWS, id="heston-r-1e308"),
    unrunnable(R_1E308, OVERFLOWS, id="spectrum-r-1e308", cmd="spectrum"),
    unrunnable({"model": "bs", "params": {"r": 1e308}}, OVERFLOWS,
               id="bs-demo-r-1e308", cmd="bs-demo"),
    unrunnable({"params": {"sigma": 1e200}}, OVERFLOWS, id="heston-sigma-1e200"),
    # the price was read at the grid's edge
    unrunnable({"params": {"spot": 1000.0}},
               "params.spot: need a value inside grid.x [0, 800], got 1000",
               id="heston-spot-off-grid"),
    unrunnable({"params": {"v0": 9.0}},
               "params.v0: need a value inside grid.v [0, 5], got 9",
               id="heston-v0-off-grid"),
    # stage selection refused the run after the config was written
    unrunnable(RKC_1E5, "schemes[0]: l = 10: rkc(eps=100000) s=664: the coefficient "
               "table is not finite or b_s is not a normal float", id="rkc-eps-1e5"),
    unrunnable(R_1E150, f"schemes[0]: l = 100: {CAP} 6.08413e+149", id="heston-r-1e150"),
    unrunnable(R_1E150, f"schemes[0]: l = 10: {CAP} 6.08413e+150", id="converge-r-1e150",
               cmd="converge"),
    unrunnable(EULER_L10, f"schemes[0]: l = 10: {EULER_232}", id="euler-l10"),
    unrunnable(dict(EULER_L10, schemes=[{"family": "rkl"}, {"family": "euler"}]),
               f"schemes[1]: l = 10: {EULER_232}", id="rkl-then-euler-l10"),
    # converge named the scheme but not the rung whose step it refused
    unrunnable(EULER_LADDER, f"schemes[0]: l = 10: {EULER_232}",
               id="converge-euler-ladder", cmd="converge"),
]


@pytest.mark.filterwarnings("error")  # the refusal is the one line; no numpy warnings
@pytest.mark.parametrize("payload,message,cmd", UNRUNNABLE)
def test_unrunnable_config_fails_before_any_file(tmp_path, capsys, payload, message, cmd):
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main([cmd, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists() or not any(out.iterdir())


SELECTED = {
    "converge": dict(REPLAYED["converge"],
                     schemes=[{"family": "rkc", "eps": 10.0}, {"family": "rkl"}]),
    "bs-demo": dict(REPLAYED["bs-demo"], schemes=[{"family": "rkl"}, {"family": "rkg"}]),
}


@pytest.mark.parametrize("cmd", list(SELECTED))
def test_dispatch_selects_each_run_once(cmd, tmp_path, monkeypatch):
    """dispatch plans every (scheme, step count) before it writes, and each
    run reads its plan: one selection per run, recorded with the plan's time."""
    calls = []
    real = stslab.schemes.select_stage_count

    def counting(family, dt, rho):
        calls.append((family, dt, (tmp_path / "config.json").exists()))
        return real(family, dt, rho)

    monkeypatch.setattr(stslab.schemes, "select_stage_count", counting)
    stslab.schemes.plan_run.cache_clear()
    cfg = parse_config(json.dumps(SELECTED[cmd]))
    assert dispatch(cmd, cfg, out_dir=str(tmp_path)) == 0
    steps = cfg.ladder if cmd == "converge" else (cfg.l,)
    assert calls == [(fam, cfg.params.expiry / n, False)
                     for fam in cfg.schemes for n in steps]
    families = {fam.label: fam for fam in cfg.schemes}
    records = [rec for rec in read_log(tmp_path) if rec["family"] in families]
    for rec in records:
        plan = stslab.schemes.plan_run(families[rec["family"]], rec["dt"], rec["rho"])
        assert rec["s_per_step"][0] == plan[0] and rec["t_select"] == plan[3]
    assert len(calls) == len(records)  # one record per selection; each plan was cached


def test_each_grid_is_built_once(tmp_path, monkeypatch):
    """parse_config reads the grid recipes; dispatch builds each grid once."""
    built = []
    real = stslab.grids.make_sinh

    def counting(spec):
        built.append(spec.m)
        return real(spec)

    monkeypatch.setattr(stslab.grids, "make_sinh", counting)
    cfg = parse_config(json.dumps({"grid": {"x": {"m": 16}, "v": {"m": 8}}}))
    assert built == []
    assert dispatch("price", cfg, out_dir=str(tmp_path)) == 0
    assert built == [16, 8]


def count_eigensolves(monkeypatch) -> list:
    """Wrap eigenvalues_dense under every name the package binds it to; each
    call appends (matrix shape, scale) to the returned list."""
    calls = []
    real = stslab.spectra.eigenvalues_dense

    def counting(mat, scale=1.0):
        calls.append((mat.shape, scale))
        return real(mat, scale=scale)

    for name, mod in list(sys.modules.items()):
        if name == "stslab" or name.startswith("stslab."):
            for attr, value in list(vars(mod).items()):
                if value is real:
                    monkeypatch.setattr(mod, attr, counting)
    return calls


@pytest.mark.parametrize("cmd", list(REPLAYED))
def test_dispatch_eigensolves_once_for_the_commands_that_read_the_spectrum(
        cmd, tmp_path, monkeypatch):
    calls = count_eigensolves(monkeypatch)
    cfg = parse_config(json.dumps(REPLAYED[cmd]))
    assert dispatch(cmd, cfg, out_dir=str(tmp_path)) == 0
    if cmd in ("spectrum", "bs-demo"):
        n = (cfg.grid_x.m + 1) * (1 if cfg.grid_v is None else cfg.grid_v.m + 1)
        assert calls == [((n, n), cfg.params.expiry / cfg.l)]
    else:
        assert calls == []


# a small 2-D spectrum and the 1-D study of test_bs_study_structure
SPECTRUM_WRITTEN = {
    "spectrum": REPLAYED["spectrum"],
    "bs-demo": {"model": "bs", "grid": {"x": {"m": 60}}, "l": 40,
                "schemes": [{"family": "rkl"}, {"family": "rkg", "g": 2.0},
                            {"family": "rkc", "eps": 10.0}]},
}


@pytest.mark.parametrize("cmd", list(SPECTRUM_WRITTEN))
def test_dispatch_writes_the_spectrum_of_the_scaled_operator(cmd, tmp_path):
    cfg = parse_config(json.dumps(SPECTRUM_WRITTEN[cmd]))
    assert dispatch(cmd, cfg, out_dir=str(tmp_path / "run")) == 0
    gv = None if cfg.grid_v is None else make_grid(cfg.grid_v)
    setup = prepare(cfg.params, make_grid(cfg.grid_x), gv, cfg.policy, cfg.payoff)
    write_spectrum(eigenvalues_dense(setup.op.matrix, scale=cfg.params.expiry / cfg.l),
                   tmp_path / "spectrum.csv")
    for name in ("spectrum.csv", "spectrum.json"):
        assert (tmp_path / "run" / name).read_bytes() == (tmp_path / name).read_bytes()
    assert json.loads((tmp_path / "spectrum.json").read_text())["n"] == setup.op.size
