"""Measure specs, quadrature, Gram matrices, potentials, and energies."""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from brolinlab.measures import (NEG_INF, Density, EmpiricalMeasure,
                                MeasureSpec, MeasureSpecError,
                                QuadratureMeasure, capacity_from_energy,
                                default_node_count, empirical_from_csv,
                                empirical_to_csv, energy, make_quadrature,
                                measure_schema, potential, quadrature_from_csv,
                                quadrature_to_csv, validate_measure_dict)

# ---------------------------------------------------------------------------
# spec construction and validation


def test_circle_spec_geometry():
    spec = MeasureSpec.circle_uniform(center=1j, radius=2.0, label="ring")
    assert spec.kind == "circle-uniform"
    assert spec.bounding_box() == (-2.0, 2.0, -1.0, 3.0)


def test_interval_spec_geometry():
    spec = MeasureSpec.interval_density(-2.0, 2.0, "arcsine")
    assert spec.bounding_box() == (-2.0, 2.0, 0.0, 0.0)
    assert spec.support_radius() == 2.0


@pytest.mark.parametrize("bad", [
    lambda: MeasureSpec.circle_uniform(radius=0.0),
    lambda: MeasureSpec.circle_uniform(radius=-1.0),
    lambda: MeasureSpec.interval_density(2.0, -2.0),
    lambda: MeasureSpec.interval_density(0.0, 1.0, Density("jacobi", alpha=-1.5, beta=0.0)),
    lambda: MeasureSpec.interval_density(0.0, 1.0, Density("lebesgue", alpha=0.5)),
    lambda: MeasureSpec.interval_density(0.0, 1.0, "cauchy"),
    lambda: MeasureSpec.atomic_mixture([]),
    lambda: MeasureSpec.atomic_mixture([(1.0, 0.5), (2.0, 0.2)]),
    lambda: MeasureSpec.atomic_mixture([(1.0, -0.5), (2.0, 1.5)]),
    lambda: MeasureSpec.mixture([]),
])
def test_invalid_specs_are_rejected(bad):
    with pytest.raises(MeasureSpecError):
        bad()


def test_mixture_depth_limit():
    spec = MeasureSpec.circle_uniform()
    for _ in range(3):
        spec = MeasureSpec.mixture([(spec, 1.0)])
    assert spec.mixture_depth() == 4
    with pytest.raises(MeasureSpecError, match="depth"):
        MeasureSpec.mixture([(spec, 1.0)])


def test_spec_dict_round_trip():
    spec = MeasureSpec.mixture([
        (MeasureSpec.circle_uniform(center=1 + 2j, radius=0.5), 0.25),
        (MeasureSpec.interval_density(-1.0, 1.0, Density("jacobi", 0.5, -0.5)), 0.75),
    ], label="combo")
    again = MeasureSpec.from_dict(spec.to_dict())
    assert again == spec


def test_spec_json_round_trip(tmp_path):
    spec = MeasureSpec.atomic_mixture([(1j, 0.5), (-1j, 0.5)], label="pair")
    path = tmp_path / "m.json"
    spec.to_json(path)
    assert MeasureSpec.from_json(path) == spec


def test_schema_rejection_names_the_offending_key():
    with pytest.raises(MeasureSpecError, match="center"):
        validate_measure_dict({"kind": "circle-uniform", "center": [0.0], "radius": 1.0})
    with pytest.raises(MeasureSpecError, match="circle"):
        validate_measure_dict({"kind": "circle", "radius": 1.0})
    assert "$defs" in measure_schema()


# ---------------------------------------------------------------------------
# quadrature construction

SQRT3 = math.sqrt(3.0)


def test_circle_quadrature_is_roots_of_unity():
    q = make_quadrature(MeasureSpec.circle_uniform(center=1j, radius=2.0), 64)
    assert q.node_count == 64
    np.testing.assert_allclose(np.abs(q.nodes - 1j), 2.0, atol=1e-13)
    # Unrotated roots: ((z - c)/r)^N returns to 1 exactly.
    np.testing.assert_allclose(((q.nodes - 1j) / 2.0) ** 64, 1.0, atol=1e-11)
    np.testing.assert_allclose(q.weights, 1.0 / 64, atol=1e-16)


def test_two_point_gauss_rule_on_lebesgue():
    q = make_quadrature(MeasureSpec.interval_density(-1.0, 1.0, "lebesgue"), 2)
    np.testing.assert_allclose(np.sort(q.nodes.real), [-1 / SQRT3, 1 / SQRT3],
                               atol=1e-15)
    np.testing.assert_allclose(q.weights, 0.5, atol=1e-15)


def test_two_point_arcsine_rule_hits_chebyshev_nodes():
    q = make_quadrature(MeasureSpec.interval_density(-2.0, 2.0, "arcsine"), 2)
    np.testing.assert_allclose(np.sort(q.nodes.real),
                               [-math.sqrt(2.0), math.sqrt(2.0)], atol=1e-14)
    np.testing.assert_allclose(q.weights, 0.5, atol=1e-15)


def test_mixture_quadrature_splits_weight_by_component():
    spec = MeasureSpec.mixture([
        (MeasureSpec.circle_uniform(radius=1.0), 0.25),
        (MeasureSpec.circle_uniform(radius=3.0), 0.75),
    ])
    q = make_quadrature(spec, 128)
    assert q.weights.sum() == pytest.approx(1.0, abs=1e-12)
    inner = np.abs(q.nodes) < 2.0
    assert q.weights[inner].sum() == pytest.approx(0.25, abs=1e-12)
    assert q.node_count >= 64


def test_atomic_quadrature_returns_the_atoms():
    spec = MeasureSpec.atomic_mixture([(1.0, 0.25), (-1.0, 0.25), (2j, 0.5)])
    q = make_quadrature(spec, 64)
    assert q.node_count == 3
    np.testing.assert_allclose(sorted(q.weights), [0.25, 0.25, 0.5])


def test_quadrature_table_spec_reads_back_the_table(tmp_path):
    q = make_quadrature(MeasureSpec.circle_uniform(radius=2.0), 16)
    path = tmp_path / "table.csv"
    quadrature_to_csv(q, path)
    spec = MeasureSpec.quadrature_table(path)
    q2 = make_quadrature(spec, 999)  # node_count has nothing to override
    np.testing.assert_array_equal(q2.nodes, q.nodes)
    np.testing.assert_array_equal(q2.weights, q.weights)


def test_quadrature_measure_validation():
    with pytest.raises(MeasureSpecError, match="at least 2"):
        QuadratureMeasure(np.array([1.0 + 0j]), np.array([1.0]))
    with pytest.raises(MeasureSpecError, match="positive"):
        QuadratureMeasure(np.array([1.0, 2.0]), np.array([1.5, -0.5]))
    with pytest.raises(MeasureSpecError, match="sum"):
        QuadratureMeasure(np.array([1.0, 2.0]), np.array([0.5, 0.4]))


def _table_with_a_nan_node(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("re,im,weight\nnan,0.0,0.5\n1.0,0.0,0.5\n")
    return make_quadrature(MeasureSpec.quadrature_table(path), 2)


NAN_WEIGHTS = np.array([math.nan, 0.5])


@pytest.mark.parametrize("build", [
    lambda tmp: MeasureSpec.atomic_mixture([(1.0, math.nan), (2.0, 0.5)]),
    lambda tmp: MeasureSpec.mixture([(MeasureSpec.circle_uniform(), math.nan),
                                     (MeasureSpec.circle_uniform(radius=2.0), 0.5)]),
    lambda tmp: QuadratureMeasure(np.array([1.0, 2.0]), NAN_WEIGHTS),
    lambda tmp: EmpiricalMeasure(np.array([1.0, 2.0]), NAN_WEIGHTS),
    _table_with_a_nan_node,
    lambda tmp: QuadratureMeasure(np.array([1.0, math.inf]), np.array([0.5, 0.5])),
    lambda tmp: EmpiricalMeasure(np.array([math.nan, 1.0]), np.array([0.5, 0.5])),
    lambda tmp: MeasureSpec.interval_density(-1.0, 1.0, Density("jacobi", math.nan, 0.0)),
    lambda tmp: MeasureSpec.interval_density(-1.0, 1.0, Density("jacobi", 0.0, math.nan)),
    lambda tmp: MeasureSpec.interval_density(-1.0, 1.0, Density("jacobi", math.inf, 0.0)),
    lambda tmp: MeasureSpec.interval_density(-1.0, 1.0, Density("jacobi", 0.0, math.inf)),
], ids=["atom-weight", "component-weight", "quadrature-weight",
        "empirical-weight", "table-node", "quadrature-node", "empirical-point",
        "jacobi-alpha-nan", "jacobi-beta-nan", "jacobi-alpha-inf",
        "jacobi-beta-inf"])
def test_non_finite_weights_and_points_are_rejected(build, tmp_path):
    with pytest.raises(MeasureSpecError):
        build(tmp_path)


def test_polygon_hull_distance_of_an_atom_triangle():
    spec = MeasureSpec.atomic_mixture([(0j, 0.25), (1.0, 0.25), (1j, 0.5)])
    z = np.array([0.25 + 0.25j, -1.0, 1 + 1j, 2.0, -1 - 1j, 0.5 + 0.5j])
    np.testing.assert_allclose(spec.hull_distance(z),
                               [0.0, 1.0, math.sqrt(0.5), 1.0, math.sqrt(2.0), 0.0],
                               rtol=0, atol=1e-14)


def test_polygon_hull_distance_of_collinear_atoms():
    spec = MeasureSpec.atomic_mixture([(0j, 0.25), (1 + 1j, 0.25), (2 + 2j, 0.5)])
    z = np.array([2j, 1 + 1j, 3 + 3j, -1 + 0j, 0.5 + 0.5j])
    np.testing.assert_allclose(spec.hull_distance(z),
                               [math.sqrt(2.0), 0.0, math.sqrt(2.0), 1.0, 0.0],
                               rtol=0, atol=1e-14)


def test_default_node_count_floor_and_growth():
    assert default_node_count(4) == 256
    assert default_node_count(32) == 256
    assert default_node_count(64) == 512


# ---------------------------------------------------------------------------
# Gram matrices of the monomials under the quadrature rules


def gram_matrix(q, max_degree):
    """G[j][k] = sum_i w_i z_i^j conj(z_i)^k, degrees 0..max_degree."""
    powers = np.vander(q.nodes, max_degree + 1, increasing=True)
    return (powers * q.weights[:, None]).T @ powers.conj()


def test_circle_gram_is_the_identity():
    q = make_quadrature(MeasureSpec.circle_uniform(), 64)
    g = gram_matrix(q, 8)
    np.testing.assert_allclose(g, np.eye(9), atol=1e-14)


def test_lebesgue_gram_gives_hilbert_moments():
    q = make_quadrature(MeasureSpec.interval_density(0.0, 1.0, "lebesgue"), 64)
    g = gram_matrix(q, 6)
    expected = np.array([[1.0 / (j + k + 1) for k in range(7)] for j in range(7)])
    np.testing.assert_allclose(g, expected, atol=1e-14)


def test_arcsine_gram_gives_central_binomial_moments():
    q = make_quadrature(MeasureSpec.interval_density(-1.0, 1.0, "arcsine"), 64)
    g = gram_matrix(q, 8)
    def moment(m):
        return math.comb(m, m // 2) / 2.0 ** m if m % 2 == 0 else 0.0
    expected = np.array([[moment(j + k) for k in range(9)] for j in range(9)])
    np.testing.assert_allclose(g, expected, atol=1e-13)


def test_gram_is_deterministic():
    q = make_quadrature(MeasureSpec.interval_density(-2.0, 2.0, "arcsine"), 128)
    a = gram_matrix(q, 10)
    b = gram_matrix(q, 10)
    np.testing.assert_array_equal(a, b)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.complex_numbers(max_magnitude=3.0, allow_nan=False,
                                             allow_infinity=False),
                          st.floats(0.1, 1.0)),
                min_size=5, max_size=8, unique_by=lambda t: t[0]))
def test_gram_is_hermitian_psd_with_unit_mass(atoms):
    pts = np.array([z for z, _ in atoms])
    gaps = np.abs(pts[:, None] - pts[None, :])[~np.eye(len(pts), dtype=bool)]
    assume(gaps.min() > 1e-3)
    total = sum(w for _, w in atoms)
    spec = MeasureSpec.atomic_mixture([(z, w / total) for z, w in atoms])
    q = make_quadrature(spec, 8)
    g = gram_matrix(q, 3)
    np.testing.assert_allclose(g, g.conj().T, atol=1e-13)
    assert g[0, 0] == pytest.approx(1.0, abs=1e-13)
    scale = max(np.abs(g).max(), 1.0)
    assert np.linalg.eigvalsh(g).min() >= -1e-10 * scale


# ---------------------------------------------------------------------------
# potentials and energies


def test_circle_potential_closed_forms():
    q = make_quadrature(MeasureSpec.circle_uniform(), 256)
    m = EmpiricalMeasure(q.nodes, q.weights)
    # prod over the 256th roots of unity: |2^256 - 1|^(1/256)
    expected_outside = math.log(2.0 ** 256 - 1.0) / 256
    assert potential(m, 2.0 + 0j) == pytest.approx(expected_outside, abs=5e-15)
    assert potential(m, 0j) == pytest.approx(0.0, abs=1e-14)
    assert potential(m, m.points[3]) == NEG_INF


def test_potential_far_field_matches_log_abs():
    q = make_quadrature(MeasureSpec.circle_uniform(radius=2.0), 64)
    m = EmpiricalMeasure(q.nodes, q.weights)
    z = 1e6 + 1e6j
    assert potential(m, z) == pytest.approx(math.log(abs(z)), abs=1e-11)


def test_potential_vectorized_matches_scalar():
    q = make_quadrature(MeasureSpec.circle_uniform(), 32)
    m = EmpiricalMeasure(q.nodes, q.weights)
    pts = np.array([2.0 + 0j, 1.5j, -3.0 + 1j])
    vals = potential(m, pts)
    for z, v in zip(pts, vals):
        assert potential(m, complex(z)) == pytest.approx(v, abs=1e-15)


def test_two_atom_energy_is_log_distance():
    m = EmpiricalMeasure(np.array([1.0 + 0j, -1.0 + 0j]), np.array([0.5, 0.5]))
    assert energy(m) == pytest.approx(math.log(2.0), abs=1e-15)


def test_circle_atom_energy_closed_form():
    n = 256
    q = make_quadrature(MeasureSpec.circle_uniform(), n)
    m = EmpiricalMeasure(q.nodes, q.weights)
    # Renormalized pair sum over N equal atoms on the unit circle.
    assert energy(m) == pytest.approx(math.log(n) / (n - 1), rel=1e-12)


def test_discrete_capacity_approaches_the_circle_radius():
    q = make_quadrature(MeasureSpec.circle_uniform(radius=2.0), 1024)
    m = EmpiricalMeasure(q.nodes, q.weights)
    cap = capacity_from_energy(energy(m))
    assert abs(cap - 2.0) / 2.0 < 0.01


def test_polar_configurations():
    m = EmpiricalMeasure(np.array([1.0 + 0j, 1.0 + 0j]), np.array([0.5, 0.5]))
    assert energy(m) == NEG_INF
    assert capacity_from_energy(NEG_INF) == 0.0


def _spread_measure(n: int, seed: int) -> EmpiricalMeasure:
    rng = np.random.default_rng(seed)
    pts = 0.3 * (rng.normal(size=n) + 1j * rng.normal(size=n))
    w = rng.uniform(0.5, 2.0, size=n)
    return EmpiricalMeasure(pts, w / w.sum())


def _full_matrix_logs(z, pts):
    with np.errstate(divide="ignore"):
        return np.log(np.abs(z[:, None] - pts[None, :]))


@pytest.mark.parametrize("n", [2, 63, 64, 65, 200])
def test_tiled_kernels_match_the_full_matrix(n):
    m = _spread_measure(n, seed=n)
    w = m.weights
    logs = _full_matrix_logs(m.points, m.points)
    np.fill_diagonal(logs, 0.0)
    expected = float(w @ logs @ w) / (1.0 - float(w @ w))
    assert energy(m) == pytest.approx(expected, rel=1e-13)
    probes = 2.0 * np.exp(2j * np.pi * np.arange(150) / 150)
    np.testing.assert_allclose(potential(m, probes),
                               _full_matrix_logs(probes, m.points) @ w,
                               rtol=1e-13)


@pytest.mark.parametrize("i, j", [(3, 5), (10, 70)])
def test_coincident_pairs_give_neg_inf_in_every_tile(i, j):
    m = _spread_measure(200, seed=1)
    pts = m.points.copy()
    pts[j] = pts[i]
    assert energy(EmpiricalMeasure(pts, m.weights)) == NEG_INF
    probes = 2.0 * np.exp(2j * np.pi * np.arange(150) / 150)
    probes[i] = pts[i]
    probes[100 + i] = pts[j]
    vals = potential(m, probes)
    assert vals[i] == NEG_INF and vals[100 + i] == NEG_INF
    assert np.isfinite(np.delete(vals, [i, 100 + i])).all()


def test_empirical_measure_validation():
    with pytest.raises(MeasureSpecError):
        EmpiricalMeasure(np.array([], dtype=complex), np.array([]))
    with pytest.raises(MeasureSpecError, match="positive"):
        EmpiricalMeasure(np.array([1.0, 2.0]), np.array([1.0, 0.0]))
    with pytest.raises(MeasureSpecError, match="sum"):
        EmpiricalMeasure(np.array([1.0, 2.0]), np.array([0.9, 0.2]))


# ---------------------------------------------------------------------------
# file round trips


def test_quadrature_csv_round_trip_is_exact(tmp_path):
    q = make_quadrature(MeasureSpec.interval_density(-2.0, 2.0, "arcsine"), 37)
    path = tmp_path / "q.csv"
    quadrature_to_csv(q, path, header_comment="nodes=37")
    assert path.read_text().startswith("# nodes=37")
    q2 = quadrature_from_csv(path)
    np.testing.assert_array_equal(q2.nodes, q.nodes)
    np.testing.assert_array_equal(q2.weights, q.weights)


def test_empirical_csv_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(5)
    pts = rng.normal(size=10) + 1j * rng.normal(size=10)
    m = EmpiricalMeasure(pts, np.full(10, 0.1), seed=42, provenance="custom")
    path = tmp_path / "m.csv"
    empirical_to_csv(m, path)
    m2 = empirical_from_csv(path)
    np.testing.assert_array_equal(m2.points, m.points)
    np.testing.assert_array_equal(m2.weights, m.weights)
