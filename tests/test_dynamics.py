"""Polynomial dynamics: escape, Green values, roots, and balanced sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brolinlab import dynamics
from brolinlab.dynamics import (ROOT_TOL_DEFAULT, PolyDyn, brolin_sample,
                                capacity_julia, escape_radius,
                                filled_julia_grid,
                                functional_equation_residual, green_value,
                                poly_roots, preimages)
from brolinlab.grids import Rectangle
from brolinlab.measures import MeasureSpec, make_quadrature
from brolinlab.orthopoly import horner, orthonormal_basis

Z2 = PolyDyn.from_coeffs([0.0, 0.0, 1.0])
Z2_MINUS_2 = PolyDyn.from_coeffs([-2.0, 0.0, 1.0])
TWO_Z3 = PolyDyn.from_coeffs([0.0, 0.0, 0.0, 2.0])

# Arcsine cumulative distribution on [-2, 2].
def arcsine_cdf(x):
    return np.arcsin(np.clip(np.asarray(x, dtype=float) / 2.0, -1, 1)) / np.pi + 0.5


def ks_statistic(sorted_cdf_values):
    n = sorted_cdf_values.size
    k = np.arange(1, n + 1)
    return max(np.max(k / n - sorted_cdf_values),
               np.max(sorted_cdf_values - (k - 1) / n))


# ---------------------------------------------------------------------------
# escape radius and polynomial plumbing


def test_escape_radius_closed_forms():
    assert escape_radius([0.0, 0.0, 1.0]) == 2.0
    assert escape_radius([-2.0, 0.0, 1.0]) == 4.0
    assert escape_radius([0.0, 0.0, 0.0, 2.0]) == 1.0


def test_escape_radius_rejects_low_degrees():
    with pytest.raises(ValueError, match="degree"):
        escape_radius([1.0, 2.0])
    with pytest.raises(ValueError, match="leading"):
        escape_radius([1.0, 2.0, 0.0])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.complex_numbers(max_magnitude=5.0, allow_nan=False,
                                   allow_infinity=False),
                min_size=2, max_size=4),
       st.complex_numbers(min_magnitude=0.5, max_magnitude=4.0,
                          allow_nan=False, allow_infinity=False),
       st.floats(0.0, 2.0))
def test_escape_radius_doubles_outside(lower, gamma, t):
    coeffs = list(lower) + [gamma]
    r = escape_radius(coeffs)
    p = PolyDyn.from_coeffs(coeffs)
    z = r * (1.0 + t) * np.exp(0.73j)
    assert abs(p(z)) >= 2 * abs(z) * (1 - 1e-12)


def test_polydyn_properties():
    assert Z2_MINUS_2.degree == 2
    assert Z2_MINUS_2.gamma == 1.0
    assert Z2_MINUS_2.radius == 4.0
    assert TWO_Z3(1.0 + 0j) == 2.0 + 0j
    with pytest.raises(ValueError, match="degree"):
        PolyDyn.from_coeffs([1.0, 1.0])


# ---------------------------------------------------------------------------
# Green values


def test_green_value_on_the_critical_interval():
    # For the degree-2 map with the interval Julia set, g(x) for real x > 2
    # is log of the larger inverse-join preimage: log((x + sqrt(x^2-4))/2).
    expected = math.log((3.0 + math.sqrt(5.0)) / 2.0)
    assert green_value(Z2_MINUS_2, 3.0 + 0j) == pytest.approx(expected, abs=1e-10)
    assert green_value(Z2_MINUS_2, 0.5 + 0j) == 0.0
    assert green_value(Z2_MINUS_2, -1.99 + 0j) == 0.0


def test_green_value_asymptotics():
    # g(z) - log|z| tends to -log(capacity).
    z = 1e6 + 0j
    assert green_value(Z2_MINUS_2, z) == pytest.approx(
        math.log(abs(z)) + math.log(abs(1 - z ** -2)), abs=1e-12)
    assert green_value(TWO_Z3, 10.0 + 0j) == pytest.approx(
        math.log(10.0) + 0.5 * math.log(2.0), abs=1e-9)


def test_functional_equation_residual_is_tiny():
    for p in (Z2_MINUS_2, TWO_Z3):
        ring = 1.2 * p.radius * np.exp(2j * np.pi * np.arange(100) / 100)
        assert functional_equation_residual(p, ring) < 1e-8


def test_capacity_closed_forms():
    assert capacity_julia(Z2) == 1.0
    assert capacity_julia(Z2_MINUS_2) == 1.0
    assert capacity_julia(TWO_Z3) == pytest.approx(2.0 ** -0.5, abs=1e-15)
    assert capacity_julia(PolyDyn.from_coeffs([0, 0, 0, 0, 5.0])) == pytest.approx(
        5.0 ** (-1.0 / 3.0), abs=1e-15)


# ---------------------------------------------------------------------------
# root finding


def test_roots_of_a_factored_quadratic():
    roots = np.sort_complex(poly_roots([-4.0, 0.0, 1.0]))
    np.testing.assert_allclose(roots, [-2.0, 2.0], atol=1e-12)


def test_repeated_roots_keep_multiplicity():
    roots = poly_roots([0.0, 0.0, 0.0, 0.0, 1.0])
    assert roots.size == 4
    # Quadruple root: accuracy degrades to the fourth root of machine epsilon.
    assert np.abs(roots).max() < 1e-3


def test_roots_match_companion_eigenvalues():
    rng = np.random.default_rng(11)
    coeffs = rng.normal(size=6) + 1j * rng.normal(size=6)
    coeffs[-1] = 1.0
    ours = np.sort_complex(poly_roots(coeffs))
    ref = np.sort_complex(np.roots(coeffs[::-1]))
    np.testing.assert_allclose(ours, ref, atol=1e-8)


def test_aberth_freezes_roots_at_the_evaluation_floor(monkeypatch):
    # The roots of the arcsine P_16 reach the evaluation floor within a few
    # dozen steps, where rounding noise keeps the steps above the step rule;
    # without freezing the iteration ran to its 200-step cap (406 calls).
    spec = MeasureSpec.interval_density(-2.0, 2.0, "arcsine")
    coeffs = orthonormal_basis(make_quadrature(spec, 256), 16).coeffs[16]
    targets = np.linspace(-2.0, 2.0, 64) + 0j
    calls = []

    def counting_horner(c, z):
        calls.append(1)
        return horner(c, z)

    monkeypatch.setattr(dynamics, "horner", counting_horner)
    roots = dynamics._aberth_batch(coeffs, targets)
    monkeypatch.undo()
    assert len(calls) < 150
    res = np.abs(horner(coeffs, roots) - targets[:, None])
    bound = dynamics._residual_bound(coeffs, roots, targets, ROOT_TOL_DEFAULT)
    assert np.all(res <= bound)


def test_preimages_counted_with_multiplicity():
    np.testing.assert_allclose(np.sort_complex(preimages(Z2, 4.0 + 0j)),
                               [-2.0, 2.0], atol=1e-10)
    double = preimages(Z2_MINUS_2, -2.0 + 0j)
    assert double.size == 2
    assert np.abs(double).max() < 1e-6


# ---------------------------------------------------------------------------
# backward-iteration sampling


def test_unit_circle_samples_land_on_the_circle():
    m = brolin_sample(Z2, 4096, seed=1)
    assert m.size == 4096
    np.testing.assert_allclose(m.weights, 1.0 / 4096)
    assert np.abs(np.abs(m.points) - 1.0).max() < 1e-6
    ang = np.sort(np.mod(np.angle(m.points), 2 * np.pi)) / (2 * np.pi)
    assert ks_statistic(ang) < 0.02


def test_sampling_is_deterministic_in_the_seed():
    a = brolin_sample(Z2, 512, seed=7)
    b = brolin_sample(Z2, 512, seed=7)
    c = brolin_sample(Z2, 512, seed=8)
    np.testing.assert_array_equal(a.points, b.points)
    assert not np.array_equal(a.points, c.points)
    assert a.seed == 7
    assert a.provenance == "brolin"


def test_interval_samples_follow_the_arcsine_law():
    m = brolin_sample(Z2_MINUS_2, 10000, seed=99)
    pts = m.points
    assert np.abs(pts.imag).max() < 1e-12
    assert np.abs(pts).max() <= Z2_MINUS_2.radius + 1e-9
    ks = ks_statistic(np.sort(arcsine_cdf(pts.real)))
    assert ks < 0.02
    # The sampled measure is invariant under the map itself.
    image = Z2_MINUS_2(pts)
    ks_image = ks_statistic(np.sort(arcsine_cdf(image.real)))
    assert ks_image < 0.03


def test_array_draws_repeat_the_scalar_draws():
    # brolin_sample draws each chain's branch picks as one array; its samples
    # stay those of one scalar draw per step only while numpy keeps these equal
    for d in range(2, 65):
        arr = np.random.default_rng(d).integers(0, d, size=200)
        rng = np.random.default_rng(d)
        assert arr.tolist() == [int(rng.integers(0, d)) for _ in range(200)]


def test_sampling_validates_its_arguments():
    with pytest.raises(ValueError, match="burn"):
        brolin_sample(Z2, 100, seed=1, burn_in=5)
    with pytest.raises(ValueError, match="chain"):
        brolin_sample(Z2, 100, seed=1, chains=0)
    with pytest.raises(ValueError, match="sample"):
        brolin_sample(Z2, 0, seed=1)


# ---------------------------------------------------------------------------
# filled-set grids


def test_grid_requires_the_escape_disk():
    with pytest.raises(ValueError, match="contain"):
        filled_julia_grid(Z2_MINUS_2, Rectangle(-2.0, 2.0, -2.0, 2.0), 64)


def test_unit_disk_grid_matches_the_disk_to_one_pixel():
    rect = Rectangle(-2.2, 2.2, -2.2, 2.2)
    g = filled_julia_grid(Z2, rect, 256)
    assert not g.below_resolution
    diag = math.hypot(*rect.spacing(256, 256))
    centers = g.pixel_centers()
    inside = g.escaped_at == 0
    assert np.abs(centers[inside]).max() <= 1.0 + diag
    # Every boundary point has a filled pixel nearby.
    boundary = np.exp(2j * np.pi * np.arange(400) / 400)
    gaps = np.abs(boundary[:, None] - centers[inside][None, :]).min(axis=1)
    assert gaps.max() < diag
    np.testing.assert_array_equal(g.values > 0, ~inside)
    np.testing.assert_array_equal(g.escaped_at > 0, ~inside)


def test_segment_grid_needs_a_pixel_row_on_the_axis():
    rect = Rectangle(-4.4, 4.4, -4.4, 4.4)
    odd = filled_julia_grid(Z2_MINUS_2, rect, 511)
    assert not odd.below_resolution
    centers = odd.pixel_centers()
    inside = odd.escaped_at == 0
    assert inside.sum() > 200
    assert np.abs(centers[inside].imag).max() < 1e-12
    assert np.abs(centers[inside].real).max() <= 2.0 + rect.spacing(511, 511)[0]
    probe = np.linspace(-2.0, 2.0, 200)
    gaps = np.abs(probe[:, None] - centers[inside][None, :]).min(axis=1)
    assert gaps.max() < math.hypot(*rect.spacing(511, 511))

    # At even resolution no pixel center lies on the real axis, and the
    # zero-area segment vanishes from the raster entirely.
    even = filled_julia_grid(Z2_MINUS_2, rect, 512)
    assert even.below_resolution


def test_thin_dust_reports_below_resolution():
    p = PolyDyn.from_coeffs([10.0, 0.0, 1.0])
    g = filled_julia_grid(p, Rectangle(-13.0, 13.0, -13.0, 13.0), 128)
    assert g.below_resolution


def test_z2_grid_green_values_are_log_abs():
    g = filled_julia_grid(Z2, Rectangle(-2.2, 2.2, -2.2, 2.2), 64)
    escaped = g.escaped_at > 0
    assert escaped.sum() > 3000
    np.testing.assert_allclose(g.values[escaped],
                               np.log(np.abs(g.pixel_centers()[escaped])),
                               rtol=0, atol=1e-12)


def test_chebyshev_grid_green_values_match_the_joukowski_inverse():
    # z = w + 1/w maps |w| > 1 onto the outside of [-2, 2], and g(z) = log|w|;
    # the two roots w = z/2 +- sqrt(z^2/4 - 1) have product 1.
    g = filled_julia_grid(Z2_MINUS_2, Rectangle(-4.4, 4.4, -4.4, 4.4), 64)
    z = g.pixel_centers()
    root = np.sqrt(z * z / 4 - 1)
    exact = np.log(np.maximum(np.abs(z / 2 + root), np.abs(z / 2 - root)))
    np.testing.assert_allclose(g.values, exact, rtol=0, atol=1e-12)


def test_green_value_takes_an_array():
    # 2z^3 fills the disk of radius 2^(-1/2); outside it g = log|z| + log(2)/2.
    z = np.outer([0.8, 1.5, 10.0], np.exp(2j * np.pi * np.arange(5) / 5))
    values = green_value(TWO_Z3, z)
    assert values.shape == z.shape
    np.testing.assert_allclose(values, np.log(np.abs(z)) + 0.5 * math.log(2.0),
                               rtol=0, atol=1e-12)
