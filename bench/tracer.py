"""Per-layer timing of brolinlab from outside the package.

Each traced call is a public function of one layer, wrapped at the module
attribute its caller looks up: ``run_sweep`` finds ``brolin_sample`` as
``brolinlab.convergence.brolin_sample``, so that is the attribute replaced.
A wrapper records one span (name, start, end, parent) in memory; the spans
are turned into per-layer metrics and written out when the run ends.
Nothing under ``src/`` knows about the tracer, and every wrapper is removed
again when the ``installed`` context exits.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import math
import os
import time
from dataclasses import dataclass, field

SAMPLE_DEGREES = (4, 8, 16)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Recorder.spans
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span list for one traced workload run (single-threaded)."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def wrap(self, name, fn, note=None):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, time.perf_counter(), math.nan,
                        self._open[-1] if self._open else None)
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if note is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.attrs.update(note(result, bound.arguments))
            return result

        return traced


# -- notes: counts recorded on a span from the call's arguments and result


def _sample_note(omega, a):
    rounds = -(-a["n_samples"] // a["chains"])
    return {"degree": a["p"].degree, "steps": a["burn_in"] + rounds}


def _basis_note(basis, a):
    if "max_degree" not in a:  # make_quadrature shares the layer
        return {}
    return {"digits": basis.precision_used,
            "truncated": a["max_degree"] - basis.max_degree}


def _solve_note(result, a):
    if not hasattr(result, "iterations_run"):  # frostman_check
        return {}
    return {"iterations": result.iterations_run, "atoms": result.measure.size}


def _grid_note(grid, a):
    if not hasattr(grid, "values"):  # functional_equation_residual
        return {}
    return {"pixels": int(grid.values.size)}


def _write_note(result, a):
    if "path" in a:
        paths = [a["path"]]
    else:  # equilibrium_to_files writes <base>.csv and <base>.json
        base = os.fspath(a["base"])
        paths = [base + ".csv", base + ".json"]
    return {"bytes": sum(os.path.getsize(p) for p in paths)}


# (module, attribute, span name, note).  The benchmark's own calls go
# through brolinlab.<module>.<name>, so those attributes are wrapped too.
TARGETS = (
    ("brolinlab.convergence", "run_sweep", "convergence.sweep", None),
    ("brolinlab.convergence", "make_quadrature", "orthopoly.basis", _basis_note),
    ("brolinlab.convergence", "orthonormal_basis", "orthopoly.basis", _basis_note),
    ("brolinlab.convergence", "reference_equilibrium", "equilibrium.reference", None),
    ("brolinlab.convergence", "brolin_sample", "dynamics.sample", _sample_note),
    ("brolinlab.convergence", "energy", "measures.energy", None),
    ("brolinlab.convergence", "weak_star_distance", "convergence.weak", None),
    ("brolinlab.convergence", "weak_star_distance_se", "convergence.weak", None),
    ("brolinlab.convergence", "preimage_count", "convergence.preimages", None),
    ("brolinlab.convergence", "zero_distribution", "convergence.zeros", None),
    ("brolinlab.convergence", "laplacian_pairing_check", "convergence.pairing", None),
    ("brolinlab.convergence", "report_to_json", "grids.write", _write_note),
    ("brolinlab.convergence", "report_to_csv", "grids.write", _write_note),
    ("brolinlab.measures", "make_quadrature", "orthopoly.basis", _basis_note),
    ("brolinlab.orthopoly", "orthonormal_basis", "orthopoly.basis", _basis_note),
    ("brolinlab.orthopoly", "basis_to_json", "grids.write", _write_note),
    ("brolinlab.equilibrium", "equilibrium_measure", "equilibrium.solve", _solve_note),
    ("brolinlab.equilibrium", "frostman_check", "equilibrium.solve", _solve_note),
    ("brolinlab.equilibrium", "energy", "measures.energy", None),
    ("brolinlab.equilibrium", "equilibrium_to_files", "grids.write", _write_note),
    ("brolinlab.dynamics", "filled_julia_grid", "dynamics.green_grid", _grid_note),
    ("brolinlab.dynamics", "functional_equation_residual", "dynamics.green_grid",
     _grid_note),
    ("brolinlab.grids", "gridfield_to_csv", "grids.write", _write_note),
)

LAYERS = tuple(dict.fromkeys(t[2] for t in TARGETS))


@contextlib.contextmanager
def installed(recorder: Recorder, targets=TARGETS):
    """Replace each target attribute by its traced wrapper; restore on exit."""
    saved = []
    try:
        for module_name, attr, name, note in targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, recorder.wrap(name, original, note))
        yield recorder
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced run.

    ``<layer>.s`` is inclusive time, counting a span only when no enclosing
    span has the same name; ``convergence.sweep.self_s`` is the sweep's time
    minus the time of its direct children.  Every layer gets a value, 0 when
    the workload never calls it.
    """
    def outermost(span):
        parent = span.parent
        while parent is not None:
            if spans[parent].name == span.name:
                return False
            parent = spans[parent].parent
        return True

    inclusive = dict.fromkeys(LAYERS, 0.0)
    child_time = [0.0] * len(spans)
    for span in spans:
        if outermost(span):
            inclusive[span.name] += span.seconds
        if span.parent is not None:
            child_time[span.parent] += span.seconds

    def total(name, key):
        return sum(s.attrs.get(key, 0) for s in spans if s.name == name)

    def calls(name):
        return sum(1 for s in spans if s.name == name)

    out = {f"{layer}.s": inclusive[layer] for layer in LAYERS}
    steps = total("dynamics.sample", "steps")
    out["dynamics.sample.steps"] = steps
    out["dynamics.sample.ms_per_step"] = (
        1e3 * inclusive["dynamics.sample"] / steps if steps else 0.0)
    for d in SAMPLE_DEGREES:
        at_d = [s for s in spans
                if s.name == "dynamics.sample" and s.attrs["degree"] == d]
        d_steps = sum(s.attrs["steps"] for s in at_d)
        out[f"dynamics.sample.ms_per_step.d{d}"] = (
            1e3 * sum(s.seconds for s in at_d) / d_steps if d_steps else 0.0)
    out["measures.energy.calls"] = calls("measures.energy")
    out["convergence.preimages.calls"] = calls("convergence.preimages")
    out["convergence.sweep.self_s"] = sum(
        s.seconds - child_time[i] for i, s in enumerate(spans)
        if s.name == "convergence.sweep")
    digits = [s.attrs["digits"] for s in spans if "digits" in s.attrs]
    out["orthopoly.basis.digits"] = max(digits, default=0)
    out["orthopoly.basis.truncated_degrees"] = total("orthopoly.basis", "truncated")
    out["equilibrium.solve.iterations"] = total("equilibrium.solve", "iterations")
    out["equilibrium.solve.atoms"] = total("equilibrium.solve", "atoms")
    out["dynamics.green_grid.pixels"] = total("dynamics.green_grid", "pixels")
    out["grids.write.bytes"] = total("grids.write", "bytes")
    return out


def unit(metric: str) -> str:
    if metric.endswith((".s", "_s")):
        return "s"
    if ".ms_per_step" in metric:
        return "ms"
    if metric.endswith((".digits", ".bytes")):
        return metric.rsplit(".", 1)[1]
    return "count"
