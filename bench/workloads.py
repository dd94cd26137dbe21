"""The benchmark's three workloads: inputs from a seed, the timed run, checks.

Every call into brolinlab goes through ``brolinlab.<module>.<name>`` at call
time, so the tracer's wrappers on those attributes see it.  ``SIZES`` holds
the benchmark size and the tiny size the benchmark's own tests use.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from brolinlab import (convergence, dynamics, equilibrium, grids, measures,
                       orthopoly, testfunctions)

SIZES = {
    "bench": {
        "sweep-arcsine": {"degrees": (2, 4, 8, 16), "samples": 10_000},
        "sweep-circle": {"degrees": tuple(range(2, 33, 2)), "samples": 10_000},
        "ortho-eq-green": {"basis_degree": 24, "eq_resolution": 2048,
                           "grid_resolution": 1024, "pairing_atoms": 8192},
    },
    "tiny": {
        "sweep-arcsine": {"degrees": (2, 4, 9), "samples": 1_000},
        "sweep-circle": {"degrees": (2, 3, 4), "samples": 1_000},
        "ortho-eq-green": {"basis_degree": 8, "eq_resolution": 2048,
                           "grid_resolution": 128, "pairing_atoms": 1024},
    },
}

BASIS_TOL = 1e-10
# capacity of the square of side 2: 2 * Gamma(1/4)^2 / (4 pi^(3/2))
SQUARE_CAPACITY = 2 * math.gamma(0.25) ** 2 / (4 * math.pi ** 1.5)
SQUARE_CAPACITY_RTOL = 5e-3
PAIRING_LIMIT = 0.02          # acceptance gate 09
RESIDUAL_LIMIT = 1e-8         # acceptance gate 05


def derived_seed(seed: int, label: str) -> int:
    """63-bit seed for one stream of a workload, derived from the run seed."""
    digest = hashlib.sha256(f"{seed}/{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass
class Outcome:
    """What one timed workload run did: operations tried, their failures,
    and the values the checks look at."""

    operations: int
    errors: list[str]
    values: dict


@dataclass(frozen=True)
class Workload:
    build: Callable[[int, str], dict]
    run: Callable[[dict, Path], Outcome]
    check: Callable[[dict, dict], list[tuple[str, bool]]]


# ---------------------------------------------------------------------------
# Degree sweeps


def _build_sweep(name, spec, mass_region):
    def build(seed: int, size: str) -> dict:
        s = SIZES[size][name]
        config = convergence.SweepConfig(seed=derived_seed(seed, name),
                                         n_samples=s["samples"],
                                         mass_region=mass_region, threads=1)
        return {"spec": spec, "degrees": list(s["degrees"]), "config": config}
    return build


def _run_sweep(inputs: dict, out: Path) -> Outcome:
    report = convergence.run_sweep(inputs["spec"], inputs["degrees"],
                                   inputs["config"])
    convergence.report_to_json(report, out / "report.json")
    convergence.report_to_csv(report, out / "report.csv",
                              f"config_hash={report.config_hash} "
                              f"seed={report.seed}")
    errors = [f"degree {n}: {msg}" for n, msg in sorted(report.failures.items())]
    return Outcome(len(report.degrees), errors, {"report": report})


def _verdict_checks(report) -> list[tuple[str, bool]]:
    return [(f"verdict {name}", report.verdicts.get(name) is True)
            for name in convergence.VERDICT_NAMES]


def _check_circle(inputs: dict, values: dict) -> list[tuple[str, bool]]:
    report = values["report"]
    gammas_ok = all(g is not None and abs(g ** n - 1.0) <= 1e-10
                    for n, g in zip(report.degrees, report.gamma_roots))
    return _verdict_checks(report) + [("gamma_n within 1e-10 of 1", gammas_ok)]


def _check_arcsine(inputs: dict, values: dict) -> list[tuple[str, bool]]:
    report = values["report"]
    caps_ok = all(c is not None and abs(c - 2.0 ** (1.0 / (2.0 * (n - 1)))) <= 1e-12
                  for n, c in zip(report.degrees, report.cap_julia))
    return _verdict_checks(report) + [("cap_julia within 1e-12 of 2^(1/(2(n-1)))",
                                       caps_ok)]


# ---------------------------------------------------------------------------
# Non-sweep subcommands: basis, grid equilibrium, Green grids, writers


def _square(half: float) -> grids.Rectangle:
    return grids.Rectangle(-half, half, -half, half)


def _build_ortho(seed: int, size: str) -> dict:
    # The seed has nothing to vary here: this workload draws no samples.
    s = SIZES[size]["ortho-eq-green"]
    res = s["eq_resolution"]
    # side-2 square on the padded window the ``eq`` subcommand uses
    square = grids.rasterize_rectangle_outline(-1.0, 1.0, -1.0, 1.0,
                                               _square(1.7), res, res)
    disks = measures.MeasureSpec.mixture(
        [(measures.MeasureSpec.circle_uniform(complex(x, 0.0), 0.5), 0.5)
         for x in (-1.5, 1.5)])
    m = s["pairing_atoms"]
    circle_atoms = np.exp(1j * math.pi * (2 * np.arange(m) + 1) / m)
    j = np.arange(1, m // 2 + 1)
    cheb_atoms = 2.0 * np.cos((2 * j - 1) * math.pi / m) + 0j
    fs = testfunctions.default_test_functions(center=0j, scale=1.0)
    return {
        "basis_degree": s["basis_degree"],
        "bases": {"lebesgue": measures.MeasureSpec.interval_density(
                      -1.0, 1.0, "lebesgue"),
                  "arcsine": measures.MeasureSpec.interval_density(
                      -2.0, 2.0, "arcsine")},
        "shapes": {"square": square,
                   "two-disk": equilibrium.support_gridset(disks, resolution=res)},
        "grid_resolution": s["grid_resolution"],
        # (coefficients, half-width of the grid square, atoms for the pairing)
        "julia_cases": {
            "z^2": ([0.0, 0.0, 1.0], 2.2,
                    measures.EmpiricalMeasure(circle_atoms, np.full(m, 1.0 / m))),
            "z^2-2": ([-2.0, 0.0, 1.0], 4.4,
                      measures.EmpiricalMeasure(cheb_atoms,
                                                np.full(j.size, 1.0 / j.size))),
        },
        "bumps": [fs.bump("central"), fs.bump("annular")],
    }


class _Ops:
    """Counts operations and keeps going past a failed one.

    A failed operation yields None, so an operation that needs its value
    fails in turn and is counted too.
    """

    def __init__(self):
        self.count = 0
        self.errors: list[str] = []

    def __call__(self, label, thunk):
        self.count += 1
        try:
            return thunk()
        except Exception as err:  # recorded as a failed operation
            self.errors.append(f"{label}: {type(err).__name__}: {err}")
            return None


def _run_ortho(inputs: dict, out: Path) -> Outcome:
    op = _Ops()
    values = {"bases": {}, "equilibria": {}, "frostman": {}, "pairings": {},
              "residuals": {}}
    degree = inputs["basis_degree"]

    for name, spec in inputs["bases"].items():
        q = op(f"quadrature {name}", lambda: measures.make_quadrature(
            spec, measures.default_node_count(degree)))
        b = op(f"basis {name}", lambda: orthopoly.orthonormal_basis(
            q, degree, tol=BASIS_TOL))
        values["bases"][name] = b
        op(f"write basis {name}",
           lambda: orthopoly.basis_to_json(b, out / f"basis-{name}.json"))

    for name, gs in inputs["shapes"].items():
        e = op(f"equilibrium {name}",
               lambda: equilibrium.equilibrium_measure(gs))
        values["frostman"][name] = op(
            f"frostman {name}", lambda: equilibrium.frostman_check(e, gs))
        values["equilibria"][name] = e
        op(f"write equilibrium {name}", lambda: equilibrium.equilibrium_to_files(
            e, out / f"equilibrium-{name}"))

    res = inputs["grid_resolution"]
    arcsine = values["bases"]["arcsine"]
    cases = dict(inputs["julia_cases"])
    cases["arcsine P_8"] = (None if arcsine is None else arcsine.coeffs[8],
                            None, None)
    fields = {}
    for name, (coeffs, half, omega) in cases.items():
        p = op(f"poly {name}", lambda: dynamics.PolyDyn.from_coeffs(coeffs))
        g = op(f"green grid {name}", lambda: dynamics.filled_julia_grid(
            p, _square(half or 1.1 * p.radius), res))
        fields[name] = g
        values["residuals"][name] = op(
            f"functional equation {name}",
            lambda: dynamics.functional_equation_residual(
                p, convergence.probe_ring(0j, 1.2 * p.radius, 100)))
        for bump in inputs["bumps"] if omega is not None else ():
            values["pairings"][f"{name} {bump.name}"] = op(
                f"pairing {name} {bump.name}",
                lambda: convergence.laplacian_pairing_check(g, omega, bump))
    op("write green grid", lambda: grids.gridfield_to_csv(
        fields["z^2-2"], out / "green.csv", f"resolution={res}"))
    return Outcome(op.count, op.errors, values)


def _check_ortho(inputs: dict, values: dict) -> list[tuple[str, bool]]:
    checks = []
    for name, b in values["bases"].items():
        checks.append((f"basis {name} meets its residual",
                       b is not None and b.residual <= BASIS_TOL))
        checks.append((f"basis {name} truncation is flagged",
                       b is not None and (b.max_degree == inputs["basis_degree"]
                                          or b.precision_exhausted)))
    for name, e in values["equilibria"].items():
        checks.append((f"equilibrium {name} converged",
                       e is not None and e.converged))
        f = values["frostman"][name]
        checks.append((f"equilibrium {name} potential flat on the set",
                       f is not None and f.passed))
    square = values["equilibria"]["square"]
    checks.append(("square capacity within 0.5% of 1.18034",
                   square is not None
                   and abs(square.capacity / SQUARE_CAPACITY - 1.0)
                   <= SQUARE_CAPACITY_RTOL))
    for name, err in values["pairings"].items():
        checks.append((f"pairing {name} below {PAIRING_LIMIT}",
                       err is not None and err < PAIRING_LIMIT))
    for name, r in values["residuals"].items():
        checks.append((f"functional equation {name} below {RESIDUAL_LIMIT}",
                       r is not None and r < RESIDUAL_LIMIT))
    return checks


WORKLOADS = {
    "sweep-arcsine": Workload(
        _build_sweep("sweep-arcsine",
                     measures.MeasureSpec.interval_density(-2.0, 2.0, "arcsine"),
                     (1.2j, 0.2)),
        _run_sweep, _check_arcsine),
    "sweep-circle": Workload(
        _build_sweep("sweep-circle", measures.MeasureSpec.circle_uniform(), None),
        _run_sweep, _check_circle),
    "ortho-eq-green": Workload(_build_ortho, _run_ortho, _check_ortho),
}
