"""Smoke runs of the study scripts in their quick mode."""

import importlib.util
import json
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_heston_study_quick(tmp_path):
    assert load_script("heston_study").main(["--quick", "--out", str(tmp_path)]) == 0
    runs = {p.name for p in tmp_path.iterdir()}
    assert runs == {"converge-foulon-region-fitting", "converge-partial-fitting",
                    "converge-osullivan-one-sided", "spectrum-foulon-region-fitting",
                    "spectrum-partial-fitting", "delta"}
    for name in runs:
        assert (tmp_path / name / "run_log.jsonl").exists()


def test_bs_study_quick(tmp_path):
    assert load_script("bs_study").main(["--quick", "--out", str(tmp_path)]) == 0
    runs = {p.name for p in tmp_path.iterdir()}
    assert runs == {"uniform-none", "uniform-partial", "cubic-l20", "cubic-l50"}
    summary = json.loads((tmp_path / "cubic-l20" / "summary.json").read_text())
    osc, threshold = summary["osc_metric"], summary["threshold"]
    assert osc["rkl"] > threshold
    assert osc["rkg(g=2)"] <= threshold and osc["trbdf2"] <= threshold
