"""Tests of the benchmark harness (run with `python3 -m pytest perfbench/tests`)."""

import json

import numpy as np
import pytest

from measure import fail_counts, fail_ratio, percentile, summarize, tail_percentile
from tracing import Recorder, Span, inclusive_time, layer_metrics, self_times
from workloads import (SPECTRUM_POLICIES, WORKLOADS, check, make_configs,
                       planned_ops)


def test_self_time_of_nested_spans():
    spans = [
        Span("cli.dispatch", 0.0, 10.0, -1, "r"),
        Span("schemes.run_integrator", 1.0, 9.0, 0, "r"),
        Span("schemes.super_step", 2.0, 5.0, 1, "r",
             leaves={"operators.apply": [3, 2.0, 0]}),
        Span("schemes.super_step", 5.0, 8.0, 1, "r",
             leaves={"operators.apply": [3, 1.5, 0]}),
    ]
    assert self_times(spans) == pytest.approx([2.0, 2.0, 1.0, 1.5])
    # Self times and leaf time together cover the root span exactly.
    assert sum(self_times(spans)) + 3.5 == pytest.approx(10.0)
    m = layer_metrics(spans, missing=[])
    assert m["cli.self_s"] == pytest.approx(2.0)
    assert m["schemes.step_s"] == pytest.approx(6.0)
    assert m["schemes.step_self_s"] == pytest.approx(2.5)
    assert m["schemes.self_s"] == pytest.approx(4.5)
    assert m["operators.apply_calls"] == 6
    assert m["operators.apply_s"] == pytest.approx(3.5)
    assert m["operators.apply_us"] == pytest.approx(3.5 / 6 * 1e6)
    assert m["operators.self_s"] == pytest.approx(3.5)
    assert m["implicit.solve_calls"] == 0
    assert m["spectra.eig_n"] == 0


def test_inclusive_time_counts_nested_same_layer_spans_once():
    spans = [
        Span("grids.make_grid", 0.0, 4.0, -1, "r"),
        Span("grids.make_sinh", 1.0, 3.0, 0, "r"),
        Span("grids.make_uniform", 5.0, 6.0, -1, "r"),
    ]
    assert inclusive_time(spans, ["grids.make_grid", "grids.make_sinh",
                                  "grids.make_uniform"]) == pytest.approx(5.0)
    assert inclusive_time(spans, ["grids.make_sinh"]) == pytest.approx(2.0)


def test_missing_target_reads_none_not_zero():
    m = layer_metrics([], missing=["operators.apply", "schemes.super_step"])
    assert m["operators.apply_calls"] is None
    assert m["operators.apply_us"] is None
    assert m["schemes.step_s"] is None
    assert m["schemes.select_calls"] == 0


def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile(19) is None
    assert tail_percentile(40) == 75.0
    assert tail_percentile(100) == 90.0
    assert tail_percentile(200) == 95.0
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(10000) == 99.9


def test_summarize_reports_median_percentile_and_count():
    assert summarize([3.0, 1.0, 2.0]) == {"median": 2.0, "n": 3}
    values = list(range(100))
    s = summarize(values)
    assert s["n"] == 100 and s["median"] == 49.5
    assert s["p90"] == pytest.approx(np.percentile(values, 90))
    assert percentile([1.0, 2.0], 50) == 1.5


def test_fail_counts():
    children = [
        {"a": [], "b": ["stage counts [5] != 4"], "c": ["x", "y"]},
        {"a": [], "b": [], "c": []},
    ]
    assert fail_counts(children) == (6, 2)
    assert fail_ratio(6, 2) == pytest.approx(1 / 3)
    with pytest.raises(ValueError):
        fail_ratio(0, 0)


def _write_spectrum(out, n, max_real, max_abs_imag):
    out.mkdir()
    (out / "spectrum.json").write_text(json.dumps(
        {"n": n, "max_real": max_real, "max_abs_imag": max_abs_imag}))


def test_spectrum_checks_count_each_failed_eigensolve(tmp_path):
    outs = [tmp_path / "a", tmp_path / "b"]
    _write_spectrum(outs[0], 1891, -1e-3, 7.0)
    _write_spectrum(outs[1], 1890, -1e-3, 0.1)
    failures, fp = check("heston-spectrum", outs)
    assert not failures[f"eigvals:{SPECTRUM_POLICIES[0]}"]
    assert failures[f"eigvals:{SPECTRUM_POLICIES[1]}"] == ["n 1890 != 1891"]
    assert fp["imag_ratio"] == pytest.approx(70.0)
    assert fail_counts([failures]) == (2, 1)

    (outs[1] / "spectrum.json").write_text(json.dumps(
        {"n": 1891, "max_real": -1e-3, "max_abs_imag": 1.0}))
    failures, _ = check("heston-spectrum", outs)
    assert fail_counts([failures]) == (2, 2)


def test_missing_outputs_fail_every_operation(tmp_path):
    for name in WORKLOADS:
        outs = [tmp_path / f"{name}-{i}" for i in range(len(planned_ops(name)))]
        failures, fp = check(name, outs)
        assert fp == {}
        attempted, failed = fail_counts([failures])
        assert attempted == failed == sum(len(ops) for ops in planned_ops(name))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_gives_byte_identical_configs(workload):
    for seed in (0, 1, 7, 123456):
        assert make_configs(workload, seed) == make_configs(workload, seed)
    assert make_configs(workload, 1) != make_configs(workload, 2)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generated_configs_pass_parse_config(workload):
    from stslab.cli import parse_config

    for seed in range(20):
        configs = make_configs(workload, seed)
        assert len(configs) == len(planned_ops(workload))
        for command, text in configs:
            cfg = parse_config(text)
            assert cfg.to_json()  # round-trips through the public config type
            assert command in ("converge", "bs-demo", "spectrum")


def test_recorder_wraps_every_bound_name_and_restores():
    import stslab.implicit
    import stslab.operators
    import stslab.schemes
    from stslab.experiments import bs_uniform_grid, default_bs_params
    from stslab.operators import UpwindPolicy, assemble_bs

    original = stslab.operators.apply
    rec = Recorder()
    rec.install()
    try:
        assert not rec.missing
        assert {"stslab.operators.apply", "stslab.schemes.apply_operator",
                "stslab.implicit.apply_operator"} <= set(rec.bound["operators.apply"])
        assert stslab.schemes.apply_operator is not original
        op = assemble_bs(default_bs_params(), bs_uniform_grid(m=20),
                         UpwindPolicy.NONE)
        y0 = np.linspace(0.0, 1.0, 21)
        stslab.schemes.run_integrator(stslab.schemes.rkc(0.0), op, y0, 1.0, 3)
        stslab.implicit.crank_nicolson_run(op, y0, 1.0, 3)
    finally:
        rec.restore()
    assert stslab.operators.apply is original
    assert stslab.schemes.apply_operator is original
    assert stslab.implicit.BandedLU.solve.__name__ == "solve"
    m = layer_metrics(rec.spans, rec.missing, rec.root)
    steps = [s for s in rec.spans if s.name == "schemes.super_step"]
    assert len(steps) == 3
    assert m["schemes.select_calls"] == 1
    # Each step applies the operator once per stage (s >= 2); CN applies it
    # once per step after the four start-up half-steps.
    assert all(s.leaves["operators.apply"][0] >= 2 for s in steps)
    assert m["operators.apply_calls"] == sum(s.leaves["operators.apply"][0]
                                             for s in steps) + 1
    assert m["operators.apply_bytes_computed"] == m["operators.apply_calls"] * 8 * 21 * 5
    assert m["implicit.solve_calls"] == 5


def test_benchmark_json_matches_the_runner():
    import run

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, run.layer_unit(name)) for name in run.PER_LAYER]


def test_spread_is_interquartile_range_over_median():
    import statistics

    import spread

    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 12.0, 8.0, 10.0]
    doc = {"runs": [{"result": {"metrics": {
        name: {"value": v * (i + 1)} for i, name in enumerate(spread.BOUNDS)}}}
        for v in values]}
    s = spread.stats(doc)["setup_s"]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert s["spread"] == pytest.approx((q3 - q1) / statistics.median(values))
    assert s["n"] == 10
