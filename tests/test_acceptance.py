"""End-to-end release gates.

Ten checks exercising the full pipeline at desk scale: the exactly solvable
families (circle, arcsine, flat density), the pull-back identity of the
sampler, the functional equation and far-field normalization of the outer
log field, mass-escape and preimage bounds near the support, the grid
pairing between samples and field, and bit-for-bit rerun stability of the
command line.  Each check records one pass/fail line that is replayed in
the terminal summary.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from brolinlab._seeds import derive_seed
from brolinlab.convergence import SweepConfig, probe_ring, run_sweep
from brolinlab.dynamics import (PolyDyn, _aberth_batch, brolin_sample,
                                capacity_julia, filled_julia_grid,
                                functional_equation_residual, green_value)
from brolinlab.grids import Rectangle
from brolinlab.measures import (EmpiricalMeasure, MeasureSpec, energy,
                                make_quadrature)
from brolinlab.orthopoly import orthonormal_basis
from brolinlab.convergence import laplacian_pairing_check
from brolinlab.testfunctions import RadialBump, default_test_functions

SEED = 20260818
SAMPLES = 10_000

CIRCLE = MeasureSpec.circle_uniform()
ARCSINE = MeasureSpec.interval_density(-2.0, 2.0, "arcsine")
FLAT = MeasureSpec.interval_density(-1.0, 1.0, "lebesgue")


def arcsine_cdf(x):
    return np.arcsin(np.clip(np.asarray(x, dtype=float) / 2.0, -1, 1)) / np.pi + 0.5


def ks_statistic(sorted_cdf_values):
    n = sorted_cdf_values.size
    k = np.arange(1, n + 1)
    return max(np.max(k / n - sorted_cdf_values),
               np.max(sorted_cdf_values - (k - 1) / n))


@pytest.fixture(scope="module")
def circle_report():
    return run_sweep(CIRCLE, [2, 4, 8, 16, 32],
                     SweepConfig(seed=SEED, n_samples=SAMPLES))


@pytest.fixture(scope="module")
def arcsine_report():
    return run_sweep(ARCSINE, list(range(2, 17)),
                     SweepConfig(seed=SEED, n_samples=SAMPLES,
                                 mass_region=(1.2j, 0.2)))


@pytest.fixture(scope="module")
def arcsine_basis():
    return orthonormal_basis(make_quadrature(ARCSINE, 256), 16)


@pytest.fixture(scope="module")
def flat_report():
    return run_sweep(FLAT, list(range(2, 13)),
                     SweepConfig(seed=SEED, n_samples=SAMPLES,
                                 mass_region=(0.8j, 0.15)))


def test_01_circle_exactness(criterion):
    basis = orthonormal_basis(make_quadrature(CIRCLE, 64), 32)
    gamma_dev = float(np.max(np.abs(basis.gammas - 1.0)))

    radial_dev = 0.0
    for n in (2, 32):
        p = PolyDyn.from_coeffs([0.0] * n + [1.0])
        omega = brolin_sample(p, SAMPLES, derive_seed(SEED, n))
        radial_dev = max(radial_dev,
                         float(np.max(np.abs(np.abs(omega.points) - 1.0))))

    # One sweep per degree so the wall clock covers the whole pipeline for
    # that degree alone.
    worst_weak, worst_time = 0.0, 0.0
    for n in (2, 4, 8, 16, 32):
        t0 = time.perf_counter()
        rep = run_sweep(CIRCLE, [n], SweepConfig(seed=SEED, n_samples=SAMPLES))
        worst_time = max(worst_time, time.perf_counter() - t0)
        assert rep.failures == {}
        worst_weak = max(worst_weak, rep.weak_distances[0])

    ok = (gamma_dev <= 1e-10 and radial_dev < 1e-6
          and worst_weak < 0.02 and worst_time < 10.0)
    criterion("circle exactness", ok,
              f"gamma dev {gamma_dev:.1e}, radial dev {radial_dev:.1e}, "
              f"weak {worst_weak:.4f}, {worst_time:.1f}s/degree")


def test_02_arcsine_regularity(criterion, arcsine_report, arcsine_basis):
    rep = arcsine_report
    assert rep.failures == {}

    gamma_dev = float(np.max(np.abs(arcsine_basis.gammas[1:] - 2.0 ** -0.5)))

    cap_dev = max(abs(c - 2.0 ** (1.0 / (2.0 * (n - 1))))
                  for n, c in zip(rep.degrees, rep.cap_julia))

    # the sweep's own samples: same basis, seeds, burn-in and chains
    energy_rel = 0.0
    for n, c in zip(rep.degrees, rep.cap_julia):
        p_n = PolyDyn.from_coeffs(arcsine_basis.coeffs[n])
        e = energy(brolin_sample(p_n, SAMPLES, derive_seed(SEED, n)))
        energy_rel = max(energy_rel, abs(math.exp(e) - c) / c)

    p16 = PolyDyn.from_coeffs(arcsine_basis.coeffs[16])
    omega = brolin_sample(p16, 40_000, derive_seed(SEED, 16))
    ks = float(ks_statistic(np.sort(arcsine_cdf(omega.points.real))))

    late_weak = max(w for n, w in zip(rep.degrees, rep.weak_distances)
                    if n >= 12)
    w, se = rep.weak_distances[-3:], rep.weak_distance_ses[-3:]
    tail_ok = all(w[i + 1] <= w[i] + 2.0 * math.hypot(se[i], se[i + 1])
                  for i in range(2))

    ok = (gamma_dev <= 1e-8 and cap_dev <= 1e-12 and energy_rel < 0.02
          and ks < 0.02 and late_weak < 0.05 and tail_ok)
    criterion("arcsine regularity", ok,
              f"gamma dev {gamma_dev:.1e}, cap dev {cap_dev:.1e}, "
              f"energy identity {energy_rel:.1e}, KS {ks:.4f}, "
              f"late weak {late_weak:.4f}, tail ok {tail_ok}")


def test_03_flat_density_gamma_roots(criterion, flat_report):
    rep = flat_report
    assert rep.failures == {}
    errs = [abs(g - 2.0) for n, g in zip(rep.degrees, rep.gamma_roots)
            if n >= 4]
    monotone = all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))
    ok = errs[-1] < 0.3 and monotone
    criterion("flat-density gamma-root approach", ok,
              f"|gamma_12^(1/12) - 2| = {errs[-1]:.4f}, monotone {monotone}")


def test_04_balanced_pullback(criterion, arcsine_basis):
    # polynomial observables: Re z, |z|^2 and Re z^2
    funcs = [np.real, lambda z: np.abs(z) ** 2, lambda z: np.real(z ** 2)]
    polys = [PolyDyn.from_coeffs([-2.0, 0.0, 1.0]),
             PolyDyn.from_coeffs(arcsine_basis.coeffs[6])]

    worst = 0.0
    for p in polys:
        omega = brolin_sample(p, SAMPLES, derive_seed(SEED, 4, p.degree))
        w = omega.weights
        n_eff = 1.0 / float(w @ w)
        roots = _aberth_batch(p.coeffs, omega.points)
        for f in funcs:
            lhs_vals = f(omega.points)
            rhs_vals = f(roots).mean(axis=1)
            lhs, rhs = float(w @ lhs_vals), float(w @ rhs_vals)
            se = math.hypot(
                math.sqrt(max(float(w @ (lhs_vals - lhs) ** 2), 0.0) / n_eff),
                math.sqrt(max(float(w @ (rhs_vals - rhs) ** 2), 0.0) / n_eff))
            worst = max(worst, abs(lhs - rhs) / (4.0 * se + 1e-12))

    ok = worst <= 1.0
    criterion("balanced pull-back identity", ok,
              f"worst |lhs-rhs| / (4 se) = {worst:.3f} over 6 combinations")


def test_05_functional_equation_and_capacity(criterion):
    worst_res, worst_cap = 0.0, 0.0
    for coeffs, cap_exact in (([-2.0, 0.0, 1.0], 1.0),
                              ([0.0, 0.0, 0.0, 2.0], 2.0 ** -0.5)):
        p = PolyDyn.from_coeffs(coeffs)
        ring = probe_ring(0j, 1.2 * p.radius, 100)
        worst_res = max(worst_res, functional_equation_residual(p, ring))
        cap = capacity_julia(p)
        assert cap == pytest.approx(cap_exact, abs=1e-12)
        for a in np.exp(2j * math.pi * np.arange(8) / 8):
            est = math.exp(math.log(1e6) - green_value(p, 1e6 * a))
            worst_cap = max(worst_cap, abs(est - cap))

    ok = worst_res < 1e-8 and worst_cap < 1e-3
    criterion("functional equation and capacity match", ok,
              f"residual {worst_res:.1e}, far-field capacity gap "
              f"{worst_cap:.1e}")


def mass_escape_verdict(rep) -> tuple[bool, str]:
    """Masses in the region stay under 2*max(n*m)/n and fall from the first
    degree to the last, unless both ends are already zero."""
    masses, ses = rep.masses_in_v, rep.mass_ses
    assert all(m is not None for m in masses)

    m_hat = 2.0 * max(n * m for n, m in zip(rep.degrees, masses) if n <= 4)
    dominated = all(m <= m_hat / n + 4.0 * se
                    for n, m, se in zip(rep.degrees, masses, ses))
    drop = masses[0] - masses[-1]
    declined = drop >= 2.0 * math.hypot(ses[0], ses[-1])
    both_zero = (masses[0] <= 2.0 * ses[0] and masses[-1] <= 2.0 * ses[-1])

    ok = dominated and (declined or both_zero)
    first, last = rep.degrees[0], rep.degrees[-1]
    return ok, (f"cap 2*max(n*m) = {m_hat:.4f}, dominated {dominated}, "
                f"m_{first}={masses[0]:.4f} m_{last}={masses[-1]:.4f}, "
                f"declined {declined}, both zero {both_zero}")


def test_06_mass_escape(criterion, flat_report, arcsine_report):
    # The flat case's Julia sets lie on [-1, 1], so its region sees no mass
    # and only the both-zero branch can hold; the arcsine region (1.2i, 0.2)
    # holds mass at low degree, so there the decline itself is tested.
    flat_ok, flat_detail = mass_escape_verdict(flat_report)
    arcsine_ok, arcsine_detail = mass_escape_verdict(arcsine_report)
    criterion("mass escape decay", flat_ok and arcsine_ok,
              f"flat: {flat_detail}; arcsine: {arcsine_detail}")


def test_07_preimage_counts(criterion, arcsine_report):
    rep = arcsine_report
    counts = rep.preimage_counts
    assert all(c is not None for c in counts)
    tail = [c for n, c in zip(rep.degrees, counts) if n >= 4]
    ok = len(set(tail)) == 1
    criterion("preimage count boundedness", ok,
              f"counts over degrees 2..16: max {max(counts)}, "
              f"constant from degree 4 on: {ok}")


def test_08_zeros_vs_sampler(criterion, circle_report):
    rep = circle_report
    assert rep.failures == {}
    min_zero = min(rep.zero_distances)
    max_weak = max(rep.weak_distances)
    ok = min_zero >= 0.3 and max_weak < 0.02
    criterion("zeros do not track the sampler", ok,
              f"zero-measure distance >= {min_zero:.4f} while sampled "
              f"distance <= {max_weak:.4f}")


def test_09_grid_pairing(criterion):
    # On z^2 the central bump sits where g = 0 and its atoms where phi = 0,
    # so that pair reads ~1e-63 and cannot fail; the off-centre bump
    # straddles J for both maps.
    fs = default_test_functions(center=0j, scale=1.0)
    bumps = [fs.bump("central"), fs.bump("annular"),
             RadialBump(center=1.0 + 0j, rho=0.5, power=4, name="off-centre")]

    k = np.arange(8192)
    square_atoms = np.exp(1j * math.pi * (2 * k + 1) / 8192)
    j = np.arange(1, 4097)
    cheb_atoms = 2.0 * np.cos((2 * j - 1) * math.pi / 8192) + 0j
    cases = [
        (PolyDyn.from_coeffs([0.0, 0.0, 1.0]),
         Rectangle(-2.2, 2.2, -2.2, 2.2),
         EmpiricalMeasure(square_atoms, np.full(8192, 1.0 / 8192))),
        (PolyDyn.from_coeffs([-2.0, 0.0, 1.0]),
         Rectangle(-4.4, 4.4, -4.4, 4.4),
         EmpiricalMeasure(cheb_atoms, np.full(4096, 1.0 / 4096))),
    ]

    ok, details = True, []
    for p, rect, omega in cases:
        coarse = filled_julia_grid(p, rect, 512)
        fine = filled_julia_grid(p, rect, 1024)
        for f in bumps:
            e512 = laplacian_pairing_check(coarse, omega, f)
            e1024 = laplacian_pairing_check(fine, omega, f)
            # the halving floor absorbs combinations that are already at
            # rounding level on the coarse grid
            ok = ok and e512 < 0.02 and e1024 <= max(e512 / 1.8, 1e-9)
            details.append(f"{e512:.1e}->{e1024:.1e}")

    criterion("grid pairing halves with resolution", ok,
              "; ".join(details))


def test_10_cli_determinism(criterion, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "label": "gate",
        "measure": {"kind": "circle-uniform", "center": [0.0, 0.0],
                    "radius": 1.0},
        "degrees": [2, 3, 4],
        "seed": 7,
        "samples": 2000,
    }, indent=2) + "\n")

    runs = []
    for name in ("run1", "run2"):
        runs.append(subprocess.run(
            [sys.executable, "-m", "brolinlab", "lab", "--config",
             str(config), "--out", str(tmp_path / name)],
            capture_output=True, text=True))

    same_json = ((tmp_path / "run1" / "report.json").read_bytes()
                 == (tmp_path / "run2" / "report.json").read_bytes())
    same_csv = ((tmp_path / "run1" / "report.csv").read_bytes()
                == (tmp_path / "run2" / "report.csv").read_bytes())
    ok = all(r.returncode == 0 for r in runs) and same_json and same_csv

    criterion("seeded reruns are byte-identical", ok,
              f"exit codes {[r.returncode for r in runs]}, "
              f"json identical {same_json}, csv identical {same_csv}")
