"""Span recorder for the traced benchmark run.

`Recorder.install` wraps the public functions of each `stslab` layer from the
outside, under every name a function is bound to in the package's modules
(for example `operators.apply` is also `apply_operator` in `schemes` and
`implicit`).  Each call of a wrapped function records a span: name, start,
end, parent span and run id.  Spans stay in memory until the child process
writes them out at the end.

The two hot leaves, `operators.apply` and `BandedLU.solve`, run up to ~300k
times per workload, so they record no span: each call adds to a count and a
summed time kept on the enclosing span, which is enough for self times.

A target that no longer exists is reported as missing, and every metric built
only from missing targets reads `None` instead of 0.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

# (module, qualified name): the layer is the module's last component.
_GRIDS = ("make_grid", "make_uniform", "make_sinh", "make_cubic")
_DRIVERS = ("run_time_convergence", "run_bs_study", "run_delta_comparison")
_METRIC_FUNCS = ("payoff_eval", "roi_mask", "rms_error", "delta_surface",
                 "oscillation_metric", "price_at_spot", "clean_threshold")
SPAN_TARGETS = (
    [("stslab.cli", "dispatch")]
    + [("stslab.grids", f) for f in _GRIDS]
    + [("stslab.operators", f) for f in ("assemble_heston", "assemble_bs", "to_sparse")]
    + [("stslab.schemes", f) for f in ("run_integrator", "select_stage_count",
                                       "make_coefficients", "super_step")]
    + [("stslab.implicit", f) for f in ("operator_banded", "banded_factor",
                                        "crank_nicolson_run", "trbdf2_run")]
    + [("stslab.spectra", f) for f in ("gershgorin_radius", "eigenvalues_dense",
                                       "write_spectrum")]
    + [("stslab.experiments", f) for f in _DRIVERS + _METRIC_FUNCS]
)
LEAF_TARGETS = (("stslab.operators", "apply"), ("stslab.implicit", "BandedLU.solve"))
LAYERS = ("cli", "grids", "operators", "schemes", "implicit", "spectra", "experiments")


def span_name(module: str, qualname: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{qualname}"


def _apply_bytes(args) -> int:
    """Bytes `apply` reads and writes, computed from array sizes.

    The 1-D stencil reads three coefficient arrays and the field and writes
    the result; the 2-D one reads six coefficient arrays.
    """
    f = args[1]
    return 8 * f.size * (5 if f.ndim == 1 else 8)


def _matrix_dim(args) -> int:
    return args[0].shape[0]


_MEASURES = {"operators.apply": _apply_bytes,
             "spectra.eigenvalues_dense": _matrix_dim}


class Span:
    __slots__ = ("name", "start", "end", "parent", "run_id", "measure", "leaves")

    def __init__(self, name, start, end, parent, run_id, measure=None, leaves=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.run_id = run_id
        self.measure = measure
        # leaf name -> [calls, summed seconds, summed measure]
        self.leaves = leaves if leaves is not None else {}

    def to_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "run_id": self.run_id,
                "measure": self.measure, "leaves": self.leaves}


class Recorder:
    """Wraps layer functions and keeps their spans in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.run_id = ""
        # Leaf calls made outside any span land here.
        self.root = Span("root", 0.0, 0.0, -1, "")
        self.bound: dict[str, list[str]] = {}
        self.missing: list[str] = []
        self._originals: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap every target; names that cannot be resolved go to `missing`."""
        for module, qualname in [*SPAN_TARGETS, *LEAF_TARGETS]:
            name = span_name(module, qualname)
            owner, attr, fn = _resolve(module, qualname)
            if fn is None:
                self.missing.append(name)
                continue
            leaf = (module, qualname) in LEAF_TARGETS
            wrapper = (self._leaf if leaf else self._span)(name, fn, _MEASURES.get(name))
            if isinstance(owner, type):
                self._originals.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
                self.bound[name] = [f"{owner.__module__}.{qualname}"]
            else:
                self.bound[name] = _rebind(fn, wrapper, self._originals)

    def restore(self) -> None:
        """Put every wrapped function back under its names."""
        for owner, attr, fn in reversed(self._originals):
            setattr(owner, attr, fn)
        self._originals.clear()

    def _span(self, name, fn, measure):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id,
                        measure(args) if measure is not None else None)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def _leaf(self, name, fn, measure):
        spans, stack, root = self.spans, self.stack, self.root

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                leaves = (spans[stack[-1]] if stack else root).leaves
                acc = leaves.get(name)
                if acc is None:
                    acc = leaves[name] = [0, 0.0, 0]
                acc[0] += 1
                acc[1] += dt
                if measure is not None:
                    acc[2] += measure(args)

        wrapper.__wrapped__ = fn
        return wrapper


def _resolve(module: str, qualname: str):
    """(owner, attribute, function) for a dotted target, or Nones if absent."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None, None, None
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    fn = getattr(owner, attr, None)
    return (owner, attr, fn) if callable(fn) else (None, None, None)


def _rebind(fn, wrapper, originals) -> list[str]:
    """Replace fn by wrapper under every name bound to it in the package."""
    bound = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "stslab" or mod_name.startswith("stslab.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is fn:
                originals.append((mod, attr, fn))
                setattr(mod, attr, wrapper)
                bound.append(f"{mod_name}.{attr}")
    return sorted(bound)


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus what its child spans and leaf calls cover."""
    covered = [sum(acc[1] for acc in s.leaves.values()) for s in spans]
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, covered)]


def inclusive_time(spans: list[Span], names) -> float:
    """Summed duration of the outermost spans among `names` (no double count)."""
    names = set(names)
    total = 0.0
    for s in spans:
        if s.name not in names:
            continue
        p = s.parent
        while p >= 0 and spans[p].name not in names:
            p = spans[p].parent
        if p < 0:
            total += s.end - s.start
    return total


def layer_metrics(spans: list[Span], missing, root: Span | None = None,
                  stage_evals: int = 0, solve_s: float | None = None) -> dict:
    """Per-layer metrics (see README.md) from one traced child's spans.

    stage_evals is the sum of `s_per_step` over the run logs; solve_s is the
    traced wall time of the dispatch calls, which the layer self times and
    `trace.unaccounted_s` add up to.
    """
    selfs = self_times(spans)
    leaves: dict[str, list] = {}
    for s in spans + ([root] if root is not None else []):
        for name, acc in s.leaves.items():
            tot = leaves.setdefault(name, [0, 0.0, 0])
            for i in range(3):
                tot[i] += acc[i]
    missing = set(missing)

    def names(layer, funcs):
        return [f"{layer}.{f}" for f in funcs]

    def gone(targets):
        return all(t in missing for t in targets)

    def incl(layer, *funcs):
        targets = names(layer, funcs)
        return None if gone(targets) else inclusive_time(spans, targets)

    def own(layer, *funcs):
        targets = set(names(layer, funcs))
        if gone(targets):
            return None
        return sum(t for s, t in zip(spans, selfs) if s.name in targets)

    def count(layer, *funcs):
        targets = set(names(layer, funcs))
        return None if gone(targets) else sum(s.name in targets for s in spans)

    def leaf(name, i):
        return None if name in missing else leaves.get(name, [0, 0.0, 0])[i]

    def per_call_us(seconds, calls):
        if seconds is None or calls is None:
            return None
        return seconds / calls * 1e6 if calls else 0.0

    eig_dims = [s.measure for s in spans if s.name == "spectra.eigenvalues_dense"]
    m = {
        "cli.self_s": own("cli", "dispatch"),
        "grids.build_s": incl("grids", *_GRIDS),
        "operators.assemble_s": incl("operators", "assemble_heston", "assemble_bs"),
        "operators.apply_calls": leaf("operators.apply", 0),
        "operators.apply_s": leaf("operators.apply", 1),
        "operators.apply_bytes_computed": leaf("operators.apply", 2),
        "operators.to_sparse_s": incl("operators", "to_sparse"),
        "schemes.select_s": incl("schemes", "select_stage_count"),
        "schemes.select_calls": count("schemes", "select_stage_count"),
        "schemes.coeff_s": incl("schemes", "make_coefficients"),
        "schemes.coeff_calls": count("schemes", "make_coefficients"),
        "schemes.step_s": incl("schemes", "super_step"),
        "schemes.step_self_s": own("schemes", "super_step"),
        "implicit.banded_s": incl("implicit", "operator_banded"),
        "implicit.factor_s": incl("implicit", "banded_factor"),
        "implicit.solve_calls": leaf("implicit.BandedLU.solve", 0),
        "implicit.solve_s": leaf("implicit.BandedLU.solve", 1),
        "implicit.run_s": incl("implicit", "crank_nicolson_run", "trbdf2_run"),
        "spectra.gershgorin_s": incl("spectra", "gershgorin_radius"),
        "spectra.eig_s": incl("spectra", "eigenvalues_dense"),
        "spectra.eig_n": (None if "spectra.eigenvalues_dense" in missing
                          else max(eig_dims, default=0)),
        "spectra.write_s": incl("spectra", "write_spectrum"),
        "experiments.metrics_s": incl("experiments", *_METRIC_FUNCS),
        "experiments.driver_self_s": own("experiments", *_DRIVERS),
    }
    m["operators.apply_us"] = per_call_us(m["operators.apply_s"], m["operators.apply_calls"])
    m["schemes.stage_evals"] = stage_evals
    m["schemes.stage_us"] = per_call_us(m["schemes.step_s"], stage_evals)
    for layer in LAYERS[1:]:
        m[f"{layer}.self_s"] = (
            sum(t for s, t in zip(spans, selfs) if s.name.startswith(layer + "."))
            + sum(acc[1] for name, acc in leaves.items() if name.startswith(layer + ".")))
    if solve_s is not None:
        m["trace.unaccounted_s"] = solve_s - (m["cli.self_s"] or 0.0) - sum(
            m[f"{layer}.self_s"] for layer in LAYERS[1:])
    return m
