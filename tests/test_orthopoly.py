"""Orthonormal bases: closed-form coefficients, truncation, minimality."""

import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from brolinlab.measures import (Density, MeasureSpec, MeasureSpecError,
                                QuadratureMeasure, make_quadrature)
from brolinlab.orthopoly import (DegenerateQuadratureError, OrthoBasis,
                                 basis_from_json, basis_to_json, horner,
                                 monic_minimality_check, orthonormal_basis,
                                 _arnoldi_dd, _arnoldi_float, _coeff_gram,
                                 _largest_ok_prefix, _ortho_residual,
                                 _two_prod, _two_sum)

SQRT2 = math.sqrt(2.0)


def legendre_leading(n: int) -> float:
    # Orthonormal under normalized length: sqrt(2n+1) * binom(2n, n) / 2^n.
    return math.sqrt(2 * n + 1) * math.comb(2 * n, n) / 2.0 ** n


@pytest.fixture(scope="module")
def circle_basis():
    q = make_quadrature(MeasureSpec.circle_uniform(), 64)
    return q, orthonormal_basis(q, 8)


@pytest.fixture(scope="module")
def arcsine_basis():
    q = make_quadrature(MeasureSpec.interval_density(-2.0, 2.0, "arcsine"), 64)
    return q, orthonormal_basis(q, 6)


@pytest.fixture(scope="module")
def legendre_basis():
    q = make_quadrature(MeasureSpec.interval_density(-1.0, 1.0, "lebesgue"), 256)
    return q, orthonormal_basis(q, 12)


def test_unit_circle_basis_is_the_monomials(circle_basis):
    _, b = circle_basis
    assert b.max_degree == 8
    assert not b.precision_exhausted
    assert b.precision_used == 16
    assert b.residual <= 1e-10
    np.testing.assert_allclose(b.gammas, 1.0, atol=1e-12)
    for n, c in enumerate(b.coeffs):
        expected = np.zeros(n + 1, dtype=complex)
        expected[n] = 1.0
        np.testing.assert_allclose(c, expected, atol=1e-12)


def test_constant_polynomial_is_one(legendre_basis):
    _, b = legendre_basis
    np.testing.assert_allclose(b.coeffs[0], [1.0], atol=1e-14)


def test_wide_interval_leading_coefficients_are_flat(arcsine_basis):
    _, b = arcsine_basis
    assert b.gammas[0] == pytest.approx(1.0, abs=1e-13)
    np.testing.assert_allclose(b.gammas[1:], 1.0 / SQRT2, atol=1e-10)
    # Value at the right endpoint, where every scaled Chebyshev peak is sqrt(2).
    assert horner(b.coeffs[2], 2.0 + 0j) == pytest.approx(SQRT2, abs=1e-10)
    assert horner(b.coeffs[5], 2.0 + 0j) == pytest.approx(SQRT2, abs=1e-10)


def test_flat_interval_leading_coefficients(legendre_basis):
    _, b = legendre_basis
    assert b.gammas[2] == pytest.approx(legendre_leading(2), rel=1e-12)
    assert b.gammas[12] == pytest.approx(legendre_leading(12), rel=1e-12)
    roots = b.gammas[1:] ** (1 / np.arange(1, b.max_degree + 1))
    assert roots[11] == pytest.approx(1.964355783541036, abs=1e-9)
    assert np.all(np.diff(roots[3:]) > 0)
    assert roots[11] < 2.0


def test_basis_reorthonormalizes_on_a_finer_rule(legendre_basis):
    _, b = legendre_basis
    fine = make_quadrature(MeasureSpec.interval_density(-1.0, 1.0, "lebesgue"), 512)
    gram = _coeff_gram(b.coeffs, fine.nodes, fine.weights)
    assert _ortho_residual(gram) < 1e-10


def test_real_measures_give_real_coefficients(legendre_basis):
    _, b = legendre_basis
    assert max(np.abs(c.imag).max() for c in b.coeffs) <= 1e-10


def test_residual_is_reproducible_from_the_coefficients(arcsine_basis):
    q, b = arcsine_basis
    gram = _coeff_gram(b.coeffs, q.nodes, q.weights)
    assert _ortho_residual(gram) == b.residual


def test_leading_coefficients_scale_inversely_with_the_support(arcsine_basis):
    _, wide = arcsine_basis
    q1 = make_quadrature(MeasureSpec.interval_density(-1.0, 1.0, "arcsine"), 64)
    narrow = orthonormal_basis(q1, 6)
    for n in range(1, 7):
        assert wide.gammas[n] == pytest.approx(narrow.gammas[n] / 2.0 ** n,
                                               rel=1e-10)


def test_minimality_of_a_true_basis(arcsine_basis):
    q, b = arcsine_basis
    rep = monic_minimality_check(b, q, 3, trials=64, seed=0)
    assert rep.passed
    assert rep.min_ratio == pytest.approx(1.0, abs=1e-12)
    assert rep.trials == 64


def test_minimality_flags_a_corrupted_degree(arcsine_basis):
    q, b = arcsine_basis
    bump = 0.1 * (b.gammas[2] / b.gammas[1])
    coeffs = [c.copy() for c in b.coeffs]
    coeffs[2] = coeffs[2] + bump * np.append(b.coeffs[1], 0.0)
    bad = OrthoBasis(max_degree=b.max_degree, coeffs=coeffs, gammas=b.gammas,
                     residual=b.residual, precision_used=b.precision_used)
    rep = monic_minimality_check(bad, q, 2, trials=64, seed=0)
    assert not rep.passed
    assert rep.min_ratio == pytest.approx(0.9950373047242008, abs=1e-9)
    # Ratio of the true monic norm to the perturbed one: 1/sqrt(1 + 0.01).
    assert rep.min_ratio >= 1.0 / math.sqrt(1.01) - 1e-12


def test_too_few_nodes_is_degenerate():
    q = make_quadrature(MeasureSpec.circle_uniform(), 8)
    with pytest.raises(DegenerateQuadratureError):
        orthonormal_basis(q, 12)


def test_duplicate_nodes_count_once_toward_degeneracy():
    base = np.exp(2j * np.pi * np.arange(8) / 8)
    q = QuadratureMeasure(np.concatenate([base, base]), np.full(16, 1.0 / 16))
    with pytest.raises(DegenerateQuadratureError):
        orthonormal_basis(q, 8)


def test_clustered_nodes_exhaust_the_precision_ladder():
    nodes = 1.0 + np.arange(12) * 1e-12
    q = QuadratureMeasure(nodes.astype(complex), np.full(12, 1.0 / 12))
    b = orthonormal_basis(q, 8)
    assert b.precision_exhausted
    assert b.max_degree == 0
    assert b.precision_used == 32
    np.testing.assert_allclose(b.gammas, [1.0])
    assert b.residual == 0.0


def test_the_double_double_pass_reaches_beyond_float64():
    spec = MeasureSpec.interval_density(-1.0, 1.0, Density("jacobi", 2.0, 2.0))
    q = make_quadrature(spec, 256)
    float_coeffs = _arnoldi_float(q.nodes, q.weights, 24)
    gram = _coeff_gram(float_coeffs, q.nodes, q.weights)
    assert _largest_ok_prefix(gram, 1e-10) == 21
    b = orthonormal_basis(q, 24, tol=1e-10)
    assert b.precision_exhausted
    assert b.max_degree == 23
    assert b.precision_used == 32
    assert b.residual <= 1e-10


def test_the_ladder_keeps_the_longest_prefix():
    # float64 reaches degree 21 here and double-double only 20
    q = make_quadrature(MeasureSpec.interval_density(-1.0, 1.0, "lebesgue"), 384)
    b = orthonormal_basis(q, 48, tol=1e-10)
    assert b.precision_exhausted
    assert b.max_degree == 21
    assert b.precision_used == 16
    assert b.residual <= 1e-10


def _arnoldi_mp(nodes, weights, max_degree, bits=113):
    """mpmath reference for the double-double pass: the same recurrence one
    scalar at a time (modified Gram-Schmidt within each pass)."""
    with mpmath.workprec(bits):
        mpc, mpf = mpmath.mpc, mpmath.mpf
        zs = [mpc(z.real, z.imag) for z in nodes]
        ws = [mpf(w) for w in weights]
        m = len(zs)
        qcols: list[list] = []
        coeff_vecs: list[list] = []
        for n in range(max_degree + 1):
            if n == 0:
                v = [mpc(1)] * m
                c = [mpc(1)]
            else:
                v = [zs[i] * qcols[n - 1][i] for i in range(m)]
                c = [mpc(0)] + list(coeff_vecs[n - 1])
            for _ in range(2):
                for k in range(n):
                    qk = qcols[k]
                    h = mpmath.fsum(ws[i] * v[i] * mpmath.conj(qk[i])
                                    for i in range(m))
                    for i in range(m):
                        v[i] -= h * qk[i]
                    ck = coeff_vecs[k]
                    for j in range(k + 1):
                        c[j] -= h * ck[j]
            norm = mpmath.sqrt(mpmath.fsum(ws[i] * abs(v[i]) ** 2 for i in range(m)))
            if norm == 0:
                raise DegenerateQuadratureError(
                    f"column {n} collapsed during orthogonalization")
            qcols.append([v[i] / norm for i in range(m)])
            coeff_vecs.append([cj / norm for cj in c])
        return [np.array([complex(cj) for cj in vec]) for vec in coeff_vecs]


@pytest.mark.parametrize("spec", [
    MeasureSpec.interval_density(-1.0, 1.0, Density("jacobi", 2.0, 2.0)),
    MeasureSpec.circle_uniform(0.5 + 0j),
], ids=["jacobi-2-2", "circle-at-half"])
def test_the_double_double_pass_matches_the_mpmath_reference(spec):
    q = make_quadrature(spec, 256)
    dd = _arnoldi_dd(q.nodes, q.weights, 24)
    ref = _arnoldi_mp(q.nodes, q.weights, 24)

    def prefix(coeffs):
        return _largest_ok_prefix(_coeff_gram(coeffs, q.nodes, q.weights), 1e-10)

    assert prefix(dd) == prefix(ref)
    for c, r in zip(dd, ref):
        # real and imaginary parts that are zero in exact arithmetic are
        # rounding noise in both
        big = np.abs(r.view(float)) > 1e-12 * np.abs(r).max()
        np.testing.assert_array_equal(c.view(float)[big], r.view(float)[big])


def test_two_sum_and_two_prod_are_exact():
    rng = random.Random(7)
    for _ in range(400):
        # decimal exponents: the split needs |x| < 1e300, and the product's
        # error term must stay above the subnormal range
        ea = rng.uniform(-300.0, 300.0)
        eb = rng.uniform(max(-300.0, -280.0 - ea), min(300.0, 280.0 - ea))
        a = rng.choice((-1.0, 1.0)) * 10.0 ** ea
        b = rng.choice((-1.0, 1.0)) * 10.0 ** eb
        for x, y in ((a, b), (a, a * rng.uniform(-2.0, 2.0))):
            s, e = _two_sum(x, y)
            assert s == x + y
            assert Fraction(s) + Fraction(e) == Fraction(x) + Fraction(y)
        p, e = _two_prod(a, b)
        assert p == a * b
        assert Fraction(p) + Fraction(e) == Fraction(a) * Fraction(b)


def test_horner_vectorizes(legendre_basis):
    _, b = legendre_basis
    pts = np.array([0.3 + 0j, -0.7 + 0.1j, 1.0 + 0j])
    vals = horner(b.coeffs[5], pts)
    for z, v in zip(pts, vals):
        assert horner(b.coeffs[5], complex(z)) == pytest.approx(v, abs=1e-14)


def test_basis_json_round_trip(tmp_path, arcsine_basis):
    _, b = arcsine_basis
    path = tmp_path / "basis.json"
    basis_to_json(b, path)
    b2 = basis_from_json(path)
    assert b2.max_degree == b.max_degree
    assert b2.residual == b.residual
    assert b2.precision_used == b.precision_used
    assert b2.precision_exhausted == b.precision_exhausted
    np.testing.assert_array_equal(b2.gammas, b.gammas)
    for c2, c in zip(b2.coeffs, b.coeffs):
        np.testing.assert_array_equal(c2, c)
