"""Command-line interface: outputs, exit codes, determinism."""

import argparse
import dataclasses
import json
import math
import subprocess
import sys
from importlib import resources

import numpy as np
import pytest

from brolinlab.cli import (_failure_exit_code, _sweep_config_from,
                           _validate_experiment)
from brolinlab.convergence import SweepConfig
from brolinlab.measures import QuadratureMeasure, quadrature_to_csv
from brolinlab.orthopoly import basis_from_json

EXIT_OK, EXIT_INVALID, EXIT_BUDGET, EXIT_SOLVER = 0, 1, 2, 3


def run_cli(*args, cwd=None):
    return subprocess.run([sys.executable, "-m", "brolinlab", *map(str, args)],
                          capture_output=True, text=True, cwd=cwd)


def write_json(path, data):
    path.write_text(json.dumps(data, indent=2) + "\n")
    return path


CIRCLE = {"kind": "circle-uniform", "center": [0.0, 0.0], "radius": 1.0}


def test_version_flag():
    res = run_cli("--version")
    assert res.returncode == EXIT_OK
    assert res.stdout.strip()


def test_measure_validate(tmp_path):
    good = write_json(tmp_path / "good.json", CIRCLE)
    res = run_cli("measure", "validate", good)
    assert res.returncode == EXIT_OK
    assert res.stdout.startswith("ok:")

    bad = write_json(tmp_path / "bad.json",
                     {"kind": "circle-uniform", "center": [0.0], "radius": 1.0})
    res = run_cli("measure", "validate", bad)
    assert res.returncode == EXIT_INVALID
    assert "center" in res.stderr


def test_ortho_writes_basis_and_gammas(tmp_path):
    measure = write_json(tmp_path / "circle.json", CIRCLE)
    res = run_cli("ortho", "--measure", measure, "--degree", 4,
                  "--out", tmp_path / "out")
    assert res.returncode == EXIT_OK
    b = basis_from_json(tmp_path / "out" / "basis.json")
    assert b.max_degree == 4
    np.testing.assert_allclose(b.gammas, 1.0, atol=1e-12)
    lines = (tmp_path / "out" / "gammas.csv").read_text().splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "degree,gamma,gamma_root"
    assert len(lines) == 7
    assert "np.float64" not in "".join(lines)


def test_ortho_reports_exhausted_precision(tmp_path):
    nodes = (1.0 + np.arange(12) * 1e-12).astype(complex)
    q = QuadratureMeasure(nodes, np.full(12, 1.0 / 12))
    quadrature_to_csv(q, tmp_path / "table.csv")
    measure = write_json(tmp_path / "clustered.json",
                         {"kind": "quadrature-table",
                          "path": str(tmp_path / "table.csv")})
    res = run_cli("ortho", "--measure", measure, "--degree", 8,
                  "--out", tmp_path / "out")
    assert res.returncode == EXIT_BUDGET
    assert "truncated" in res.stderr
    assert "degree 0" in res.stdout


def test_dyn_samples_and_summary(tmp_path):
    measure = write_json(tmp_path / "circle.json", CIRCLE)
    res = run_cli("dyn", "--measure", measure, "--degree", 8,
                  "--samples", 500, "--seed", 3, "--out", tmp_path / "out")
    assert res.returncode == EXIT_OK
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["degree"] == 8
    assert summary["seed"] == 3
    assert summary["samples"] == 500
    assert summary["capacity"] == pytest.approx(1.0, abs=1e-9)
    assert summary["functional_equation_residual"] < 1e-8
    lines = (tmp_path / "out" / "samples.csv").read_text().splitlines()
    assert lines[0].startswith("# degree=8")
    assert len(lines) == 502


def test_dyn_grid_output(tmp_path):
    measure = write_json(tmp_path / "circle.json", CIRCLE)
    res = run_cli("dyn", "--measure", measure, "--degree", 4,
                  "--samples", 100, "--seed", 1, "--grid", 64,
                  "--out", tmp_path / "out")
    assert res.returncode == EXIT_OK
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["grid_resolution"] == 64
    assert summary["below_resolution"] is False
    green = (tmp_path / "out" / "green.csv").read_text().splitlines()
    assert green[0].startswith("# degree=4")
    assert green[1] == "x,y,green,escaped_at"
    assert len(green) == 64 * 64 + 2


@pytest.mark.parametrize("command", ["ortho", "dyn"])
def test_a_degree_above_the_maximum_is_rejected_before_the_basis(tmp_path,
                                                                 command):
    measure = write_json(tmp_path / "circle.json", CIRCLE)
    res = run_cli(command, "--measure", measure, "--degree", 65,
                  "--out", tmp_path / "out")
    assert res.returncode == EXIT_INVALID
    assert "maximum of 64" in res.stderr
    assert not (tmp_path / "out").exists()


def test_dyn_rejects_degree_one(tmp_path):
    measure = write_json(tmp_path / "circle.json", CIRCLE)
    res = run_cli("dyn", "--measure", measure, "--degree", 1,
                  "--samples", 100, "--out", tmp_path / "out")
    assert res.returncode == EXIT_INVALID
    assert "degree" in res.stderr


def test_eq_circle_closed_form(tmp_path):
    res = run_cli("eq", "--shape", "circle", "--radius", 2.0,
                  "--atoms", 256, "--resolution", 128, "--out", tmp_path / "out")
    assert res.returncode == EXIT_OK
    assert "capacity" in res.stdout
    summary = json.loads((tmp_path / "out" / "equilibrium.json").read_text())
    assert summary["capacity"] == pytest.approx(2.0, abs=1e-12)
    assert summary["converged"] is True


def test_eq_interval_with_negative_endpoints(tmp_path):
    res = run_cli("eq", "--shape", "interval", "--endpoints=-2,2",
                  "--atoms", 256, "--resolution", 128, "--out", tmp_path / "out")
    assert res.returncode == EXIT_OK
    summary = json.loads((tmp_path / "out" / "equilibrium.json").read_text())
    assert summary["capacity"] == pytest.approx(1.0, abs=1e-12)


def test_eq_square_solver(tmp_path):
    res = run_cli("eq", "--shape", "square", "--side", 2.0,
                  "--resolution", 128, "--out", tmp_path / "out")
    assert res.returncode == EXIT_OK
    summary = json.loads((tmp_path / "out" / "equilibrium.json").read_text())
    assert abs(summary["capacity"] - 1.1803) < 0.06


def test_eq_requires_a_shape_or_mask(tmp_path):
    res = run_cli("eq", "--out", tmp_path / "out")
    assert res.returncode == EXIT_INVALID


LAB_CONFIG = {
    "label": "tiny",
    "measure": CIRCLE,
    "degrees": [2, 3, 4],
    "seed": 7,
    "samples": 2000,
}


@pytest.fixture(scope="module")
def lab_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("lab")
    cfg = write_json(root / "config.json", LAB_CONFIG)
    first = run_cli("lab", "--config", cfg, "--out", root / "run1")
    second = run_cli("lab", "--config", cfg, "--out", root / "run2")
    return root, first, second


def test_lab_passes_and_prints_verdicts(lab_runs):
    _, first, _ = lab_runs
    assert first.returncode == EXIT_OK
    for name in ("gamma_root", "capacity", "sampler", "weak_convergence",
                 "containment"):
        assert f"verdict {name}: pass (required)" in first.stdout
    assert "energy" not in first.stdout


def test_lab_reruns_byte_identically(lab_runs):
    root, first, second = lab_runs
    assert second.returncode == EXIT_OK
    for name in ("report.json", "report.csv"):
        a = (root / "run1" / name).read_bytes()
        b = (root / "run2" / name).read_bytes()
        assert a == b


def test_report_rerenders_the_same_csv(lab_runs):
    root, _, _ = lab_runs
    res = run_cli("report", "--report", root / "run1" / "report.json",
                  "--out", root / "render")
    assert res.returncode == EXIT_OK
    assert ((root / "render" / "report.csv").read_bytes()
            == (root / "run1" / "report.csv").read_bytes())


def test_report_rerenders_an_old_format_report(lab_runs):
    # older reports carried five more per-degree fields, each restating
    # another one or replaced by sampler_z; the reader drops them
    root, _, _ = lab_runs
    data = json.loads((root / "run1" / "report.json").read_text())
    data["cap_nth_root"] = [1.0 / g for g in data["gamma_roots"]]
    data["energies"] = [math.log(c) for c in data["cap_julia"]]
    data["identity_max_dev"] = [0.0] * len(data["degrees"])
    data["sample_energies"] = [math.log(c) for c in data["cap_julia"]]
    data["sample_energy_ses"] = [1e-3] * len(data["degrees"])
    old = write_json(root / "old-report.json", data)
    res = run_cli("report", "--report", old, "--out", root / "render-old")
    assert res.returncode == EXIT_OK
    assert ((root / "render-old" / "report.csv").read_bytes()
            == (root / "run1" / "report.csv").read_bytes())
    # reports from before sampler_z render it as empty cells
    del data["sampler_z"]
    older = write_json(root / "older-report.json", data)
    res = run_cli("report", "--report", older, "--out", root / "render-older")
    assert res.returncode == EXIT_OK
    new_csv = (root / "run1" / "report.csv").read_text().splitlines()
    column = new_csv[1].split(",").index("sampler_z")
    rows = [line.split(",") for line in new_csv[2:]]
    for row in rows:
        row[column] = ""
    expected = new_csv[:2] + [",".join(row) for row in rows]
    assert ((root / "render-older" / "report.csv").read_text().splitlines()
            == expected)


def test_lab_rejects_unknown_config_keys(tmp_path):
    cfg = write_json(tmp_path / "config.json",
                     {**LAB_CONFIG, "probe_rings": 12})
    res = run_cli("lab", "--config", cfg, "--out", tmp_path / "out")
    assert res.returncode == EXIT_INVALID
    assert "probe_rings" in res.stderr


@pytest.mark.parametrize("extra", [
    {"require": ["gamma_root", "energy"]},
    {"tolerances": {"energy": 0.05}},
])
def test_lab_rejects_the_removed_energy_verdict(tmp_path, extra):
    cfg = write_json(tmp_path / "config.json", {**LAB_CONFIG, **extra})
    res = run_cli("lab", "--config", cfg, "--out", tmp_path / "out")
    assert res.returncode == EXIT_INVALID
    assert "'energy'" in res.stderr
    assert not (tmp_path / "out").exists()


def _schema_example(prop):
    """A schema-valid value for ``prop`` that differs from every default."""
    if "enum" in prop:
        return prop["enum"][-1]
    kind = prop["type"]
    if kind == "integer":
        return prop["minimum"] + 7
    if kind == "number":
        return prop.get("exclusiveMinimum", 0.0) + 0.5
    if kind == "array":
        return [_schema_example(prop["items"])] * prop.get("minItems", 1)
    return {k: _schema_example(v) for k, v in prop["properties"].items()}


def test_experiment_schema_and_sweep_config_cover_each_other(monkeypatch):
    monkeypatch.delenv("BROLIN_LAB_THREADS", raising=False)
    schema = json.loads((resources.files("brolinlab") / "schemas"
                         / "experiment.schema.json").read_text())
    no_flags = argparse.Namespace(seed=None, samples=None, threads=None)
    default = _sweep_config_from({}, no_flags)
    cases = []
    for key, prop in schema["properties"].items():
        if key in ("label", "measure", "degrees"):
            continue
        if key == "tolerances":
            cases += [{key: {sub: _schema_example(p)}}
                      for sub, p in prop["properties"].items()]
        else:
            cases.append({key: _schema_example(prop)})
    reached = set()
    for case in cases:
        _validate_experiment({"measure": CIRCLE, "degrees": [2], **case})
        config = _sweep_config_from(case, no_flags)
        changed = {f.name for f in dataclasses.fields(SweepConfig)
                   if getattr(config, f.name) != getattr(default, f.name)}
        assert changed, f"config key {case} sets no SweepConfig field"
        reached |= changed
    assert reached == {f.name for f in dataclasses.fields(SweepConfig)}


def test_lab_fails_on_unattainable_tolerances(tmp_path):
    cfg = write_json(tmp_path / "config.json",
                     {**LAB_CONFIG,
                      "tolerances": {"weak_convergence": 1e-9}})
    res = run_cli("lab", "--config", cfg, "--out", tmp_path / "out")
    assert res.returncode == EXIT_INVALID
    assert "weak_convergence: fail" in res.stdout


def test_lab_rejects_a_region_touching_the_support(tmp_path):
    cfg = write_json(tmp_path / "config.json",
                     {**LAB_CONFIG,
                      "mass_region": {"center": [1.0, 0.0], "radius": 0.2}})
    res = run_cli("lab", "--config", cfg, "--out", tmp_path / "out")
    assert res.returncode == EXIT_INVALID
    assert "intersects" in res.stderr


def test_lab_rejects_a_purely_atomic_measure(tmp_path):
    atoms = {"kind": "atomic-mixture",
             "atoms": [{"point": [0.0, 0.0], "weight": 0.5},
                       {"point": [1.0, 0.0], "weight": 0.5}]}
    cfg = write_json(tmp_path / "config.json", {**LAB_CONFIG, "measure": atoms})
    res = run_cli("lab", "--config", cfg, "--out", tmp_path / "out")
    assert res.returncode == EXIT_INVALID
    assert "polar" in res.stderr


def test_lab_reports_a_basis_that_stops_short_as_exhausted_precision(tmp_path):
    lebesgue = {"kind": "interval-density", "endpoints": [-1.0, 1.0],
                "density": "lebesgue"}
    cfg = write_json(tmp_path / "config.json",
                     {**LAB_CONFIG, "measure": lebesgue, "degrees": [2, 24]})
    res = run_cli("lab", "--config", cfg, "--out", tmp_path / "out")
    assert res.returncode == EXIT_BUDGET
    assert "exhausted precision before degree 24" in res.stderr


def test_per_degree_failures_exit_by_their_class():
    assert _failure_exit_code("HypothesisViolation: probe touches") == EXIT_INVALID
    assert _failure_exit_code("MeasureSpecError: single atom") == EXIT_INVALID
    assert _failure_exit_code("ValueError: degree 1") == EXIT_INVALID
    assert _failure_exit_code("RootSolveError: residual 1e-3") == EXIT_SOLVER
    assert _failure_exit_code("LinAlgError: no convergence") == EXIT_SOLVER
    # a message naming another class does not decide the code
    assert _failure_exit_code(
        "RootSolveError: PrecisionExhaustedError upstream") == EXIT_SOLVER
