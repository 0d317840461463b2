"""One benchmark operation in a fresh interpreter.

    python3 perfbench/child.py WORKDIR MODE COMMAND [COMMAND ...]

Reads WORKDIR/config_<i>.json for the i-th COMMAND, imports `stslab.cli`
from the checkout's `src/`, parses every config and, unless MODE is `setup`,
runs each command through `stslab.cli.dispatch(..., strict=True)` into
WORKDIR/out_<i>.  MODE `trace` wraps the package's layer functions first.
Writes WORKDIR/result.json.  A fresh process per operation gives every run a
cold `_EXTENT_CACHE`, as every CLI user has.
"""

import os
import sys
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_ROOT, "src")


def main(argv):
    workdir, mode, commands = argv[0], argv[1], argv[2:]
    texts = []
    for i in range(len(commands)):
        with open(os.path.join(workdir, f"config_{i}.json")) as fh:
            texts.append(fh.read())
    sys.path.insert(0, _SRC)

    # Set-up as a CLI user pays it: package import plus config parsing.
    t0 = time.perf_counter()
    import stslab.cli
    t1 = time.perf_counter()
    configs = [stslab.cli.parse_config(text) for text in texts]
    t2 = time.perf_counter()

    import json
    import resource
    import traceback
    from pathlib import Path

    here = os.path.dirname(os.path.abspath(stslab.__file__))
    if os.path.dirname(here) != _SRC:
        raise SystemExit(f"stslab imported from {here}, not from {_SRC}")
    result = {"import_s": t1 - t0, "cli.parse_s": t2 - t1, "setup_s": t2 - t0}
    if mode == "setup":
        _write(workdir, result)
        return 0

    recorder = None
    if mode == "trace":
        from tracing import Recorder, layer_metrics

        recorder = Recorder()
        recorder.install()
    outs = [Path(workdir) / f"out_{i}" for i in range(len(commands))]
    result["exit"] = []
    result["errors"] = []
    solve = 0.0
    for i, (cmd, cfg) in enumerate(zip(commands, configs)):
        if recorder is not None:
            recorder.run_id = f"{i}:{cmd}"
        ts = time.perf_counter()
        try:
            code = stslab.cli.dispatch(cmd, cfg, out_dir=str(outs[i]), strict=True)
        except Exception:  # reported as a failed operation, never retried
            code = None
            result["errors"].append(traceback.format_exc())
        solve += time.perf_counter() - ts
        result["exit"].append(code)
    result["solve_s"] = solve
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["cli.out_bytes"] = sum(p.stat().st_size for out in outs if out.is_dir()
                                  for p in out.iterdir())
    result["schemes.stage_evals"] = _stage_evals(outs)

    from fingerprint import libraries

    result["libraries"] = libraries()
    if recorder is not None:
        result["layers"] = layer_metrics(recorder.spans, recorder.missing, recorder.root,
                                         result["schemes.stage_evals"], solve)
        result["missing_targets"] = recorder.missing
        result["bound_names"] = recorder.bound
        with open(os.path.join(workdir, "spans.jsonl"), "w") as fh:
            for span in recorder.spans:
                fh.write(json.dumps(span.to_dict()) + "\n")
    _write(workdir, result)
    return 0


# Helpers run after the timed set-up, so their imports cost it nothing.
def _stage_evals(outs) -> int:
    """Sum of s_per_step over every run-log record the commands wrote."""
    import json

    total = 0
    for out in outs:
        try:
            with open(out / "run_log.jsonl") as fh:
                for line in fh:
                    if line.strip():
                        total += sum(json.loads(line).get("s_per_step", []))
        except OSError:
            pass
    return total


def _write(workdir, result):
    import json

    with open(os.path.join(workdir, "result.json"), "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
