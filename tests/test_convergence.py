"""Convergence diagnostics: probes, region masses, pairing, and the sweep."""

import dataclasses
import math

import numpy as np
import pytest

from brolinlab import convergence
from brolinlab.convergence import (HypothesisViolation, SweepConfig,
                                   VERDICT_NAMES, config_hash_of,
                                   laplacian_pairing_check, mass_escape,
                                   preimage_count, probe_ring,
                                   regularity_report, report_from_json,
                                   report_to_csv, report_to_json, run_sweep,
                                   weak_star_distance, weak_star_distance_se,
                                   zero_distribution)
from brolinlab.dynamics import (PolyDyn, _aberth_batch, brolin_sample,
                                filled_julia_grid)
from brolinlab.grids import Rectangle, rasterize_disk
from brolinlab.measures import EmpiricalMeasure, MeasureSpec, make_quadrature
from brolinlab.orthopoly import orthonormal_basis
from brolinlab.testfunctions import AnnularBump, RadialBump

Z2 = PolyDyn.from_coeffs([0.0, 0.0, 1.0])
LOG2 = math.log(2.0)


# ---------------------------------------------------------------------------
# probes and weak-star distances


def test_probe_ring_geometry():
    ring = probe_ring(1j, 2.0, 48)
    assert ring.size == 48
    np.testing.assert_allclose(np.abs(ring - 1j), 2.0, atol=1e-13)
    # Half-offset angles: the ring never hits the axis point c + r.
    assert np.abs(ring - (1j + 2.0)).min() > 0.1


def test_weak_distance_of_a_measure_to_itself_is_zero():
    q = make_quadrature(MeasureSpec.circle_uniform(), 64)
    m = EmpiricalMeasure(q.nodes, q.weights)
    assert weak_star_distance(m, m, probe_ring(0j, 1.5, 16)) == 0.0


def test_point_mass_sits_log2_from_the_circle_on_the_half_radius():
    q = make_quadrature(MeasureSpec.circle_uniform(), 4096)
    circle = EmpiricalMeasure(q.nodes, q.weights)
    delta = EmpiricalMeasure(np.array([0j]), np.array([1.0]))
    probes = np.concatenate([probe_ring(0j, 1.5, 32), probe_ring(0j, 0.5, 8)])
    assert weak_star_distance(circle, delta, probes) == pytest.approx(LOG2,
                                                                      abs=1e-9)


def test_probe_violations_are_reported():
    m = EmpiricalMeasure(np.array([1.0 + 0j, -1.0 + 0j]), np.array([0.5, 0.5]))
    with pytest.raises(HypothesisViolation, match="empty"):
        weak_star_distance(m, m, np.array([]))
    touching = np.array([1.0 + 0j, -2.0 + 0j, 2j, -2j])
    with pytest.raises(HypothesisViolation, match="touches"):
        weak_star_distance(m, m, touching)
    far = EmpiricalMeasure(np.array([3.0 + 0j, -3.0 + 0j]), np.array([0.5, 0.5]))
    with pytest.raises(HypothesisViolation, match="enclosed"):
        weak_star_distance(far, far, probe_ring(0j, 1.0, 8))


def test_weak_distance_noise_shrinks_like_root_n():
    probes = probe_ring(0j, 1.5, 16)
    small = weak_star_distance_se(brolin_sample(Z2, 1000, seed=5), probes)
    large = weak_star_distance_se(brolin_sample(Z2, 16000, seed=5), probes)
    assert 3.0 < small / large < 5.5


# ---------------------------------------------------------------------------
# region diagnostics

RECT4 = Rectangle(-4.0, 4.0, -4.0, 4.0)


def test_mass_escape_counts_weighted_atoms():
    hull = rasterize_disk(-2.0 + 0j, 0.3, RECT4, 256, 256)
    region = rasterize_disk(2.0 + 0j, 0.5, RECT4, 256, 256)
    pts = np.array([2.1, 1.9, 2.0 + 0.1j,
                    -2.0, -2.1, -1.9, -2.0 + 0.1j, -2.0 - 0.1j,
                    -2.05, -1.95], dtype=complex)
    omega = EmpiricalMeasure(pts, np.full(10, 0.1))
    mass, se = mass_escape(omega, region, hull)
    assert mass == pytest.approx(0.3, abs=1e-12)
    assert se == pytest.approx(math.sqrt(0.3 * 0.7 / 10.0), rel=1e-12)


def test_mass_escape_requires_a_disjoint_region():
    hull = rasterize_disk(-2.0 + 0j, 0.3, RECT4, 256, 256)
    overlapping = rasterize_disk(-2.0 + 0j, 0.5, RECT4, 256, 256)
    omega = EmpiricalMeasure(np.array([-2.0 + 0j]), np.array([1.0]))
    with pytest.raises(HypothesisViolation, match="intersects"):
        mass_escape(omega, overlapping, hull)


def test_preimage_count_in_regions():
    near_two = rasterize_disk(2.0 + 0j, 0.3, RECT4, 256, 256)
    both = rasterize_disk(0j, 3.0, RECT4, 256, 256)
    assert preimage_count(Z2, 4.0 + 0j, near_two) == 1
    assert preimage_count(Z2, 4.0 + 0j, both) == 2
    with pytest.raises(HypothesisViolation, match="probe"):
        preimage_count(Z2, 4.0 + 0j, near_two, probe_bound=3.0)


# ---------------------------------------------------------------------------
# distributional pairing


def test_pairing_of_the_disk_green_field_with_exact_atoms():
    g = filled_julia_grid(Z2, Rectangle(-2.2, 2.2, -2.2, 2.2), 256)
    k = np.arange(8192)
    atoms = np.exp(1j * np.pi * (2 * k + 1) / 8192)
    omega = EmpiricalMeasure(atoms, np.full(8192, 1.0 / 8192))
    err = laplacian_pairing_check(g, omega, AnnularBump(0j, 1.0, 0.4, power=4))
    assert err < 1e-3


def test_pairing_rejects_clipped_supports():
    g = filled_julia_grid(Z2, Rectangle(-2.2, 2.2, -2.2, 2.2), 64)
    omega = EmpiricalMeasure(np.array([1.0 + 0j]), np.array([1.0]))
    with pytest.raises(HypothesisViolation, match="clipped"):
        laplacian_pairing_check(g, omega, RadialBump(0j, 2.3, power=4))


# ---------------------------------------------------------------------------
# zero distributions


def test_zeros_of_the_circle_basis_sit_at_the_center():
    spec = MeasureSpec.circle_uniform()
    b = orthonormal_basis(make_quadrature(spec, 64), 4)
    zd = zero_distribution(b, 4, spec)
    assert zd.size == 4
    np.testing.assert_allclose(zd.weights, 0.25)
    assert np.abs(zd.points).max() < 1e-3
    assert zd.provenance == "zeros"


def test_far_away_zeros_violate_the_hull():
    spec = MeasureSpec.circle_uniform()
    b = orthonormal_basis(make_quadrature(spec, 64), 4)
    with pytest.raises(HypothesisViolation, match="outside"):
        zero_distribution(b, 4, MeasureSpec.circle_uniform(center=10.0 + 0j,
                                                           radius=0.1))


# ---------------------------------------------------------------------------
# trend verdicts


def test_regularity_clauses_accept_a_settling_sequence():
    rep = regularity_report(
        degrees=[2, 3, 4],
        gamma_roots=[0.52, 0.51, 0.5008],
        cap_julia=[None, None, 2.05],
        reference_capacity=2.0)
    assert rep["gamma_root"] is True
    assert rep["capacity"] is True
    assert rep["gamma_errors"][2] == pytest.approx(0.0016)


def test_regularity_clauses_reject_rises_and_misses():
    rep = regularity_report(
        degrees=[2, 3, 4],
        gamma_roots=[0.5008, 0.51, 0.52],
        cap_julia=[2.0, 2.0, 2.5],
        reference_capacity=2.0)
    assert rep["gamma_root"] is False  # error rises with no noise allowance
    assert rep["capacity"] is False    # final error 25%
    empty = regularity_report([2], [None], [None], 2.0)
    assert empty["gamma_root"] is False


# ---------------------------------------------------------------------------
# the sweep and its report


@pytest.fixture(scope="module")
def tiny_circle_report():
    cfg = SweepConfig(seed=11, n_samples=500)
    return run_sweep(MeasureSpec.circle_uniform(), [2, 3], cfg)


def test_sweep_report_contents(tiny_circle_report):
    r = tiny_circle_report
    assert r.degrees == [2, 3]
    assert r.failures == {}
    assert set(r.verdicts) == set(VERDICT_NAMES)
    assert all(r.verdicts[name] for name in VERDICT_NAMES)
    assert r.reference_capacity == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(r.gamma_roots, 1.0, atol=1e-8)
    # Monomial zeros pile up at the center, log(2) from equilibrium at the
    # half-radius probe ring.
    assert r.zero_distances[0] == pytest.approx(LOG2, abs=1e-6)
    assert all(m is None for m in r.masses_in_v)
    assert all(c is None for c in r.preimage_counts)
    assert r.first_containment_violation is None
    assert len(r.config_hash) == 16
    int(r.config_hash, 16)


def test_sweep_is_deterministic_across_thread_counts(tiny_circle_report):
    cfg = SweepConfig(seed=11, n_samples=500, threads=2)
    again = run_sweep(MeasureSpec.circle_uniform(), [2, 3], cfg)
    assert again.weak_distances == tiny_circle_report.weak_distances
    assert again.sampler_z == tiny_circle_report.sampler_z
    assert again.containment_max == tiny_circle_report.containment_max


def _sampler_without_branch_zero(p, n_samples, seed, burn_in=50, chains=64):
    """brolin_sample with preimage 0 never chosen: a biased chain."""
    rng = np.random.default_rng(seed)
    z = np.full(chains, p.radius + 0j)
    kept = []
    for step in range(burn_in + -(-n_samples // chains)):
        roots = _aberth_batch(p.coeffs, z)
        z = roots[np.arange(chains), rng.integers(1, p.degree, size=chains)]
        if step >= burn_in:
            kept.append(z)
    points = np.concatenate(kept)[:n_samples]
    return EmpiricalMeasure(points, np.full(n_samples, 1.0 / n_samples))


def test_the_sampler_verdict_fails_on_a_biased_sampler(monkeypatch,
                                                        tiny_circle_report):
    assert max(tiny_circle_report.sampler_z) <= convergence.SAMPLER_K
    monkeypatch.setattr(convergence, "brolin_sample",
                        _sampler_without_branch_zero)
    r = run_sweep(MeasureSpec.circle_uniform(), [2, 3],
                  SweepConfig(seed=11, n_samples=500))
    assert r.failures == {}
    assert min(r.sampler_z) > convergence.SAMPLER_K
    assert r.verdicts["sampler"] is False
    assert r.verdicts["gamma_root"] is True
    assert r.verdicts["capacity"] is True
    # at degree 2 on [-1, 1] every chain follows one inverse branch to the
    # same point: the standard error is 0 up to rounding, and the gap is not
    flat = run_sweep(MeasureSpec.interval_density(-1.0, 1.0, "lebesgue"), [2],
                     SweepConfig(seed=11, n_samples=500))
    assert flat.weak_distance_ses[0] < 1e-12
    assert flat.sampler_z[0] > convergence.SAMPLER_K
    assert flat.verdicts["sampler"] is False


def test_sweep_rejects_degenerate_inputs():
    with pytest.raises(ValueError, match="degree"):
        run_sweep(MeasureSpec.circle_uniform(), [1, 2],
                  SweepConfig(seed=1, n_samples=100))


def test_sweep_rejects_a_region_inside_the_support():
    cfg = SweepConfig(seed=3, n_samples=200, mass_region=(0j, 0.1))
    with pytest.raises(HypothesisViolation, match="intersects"):
        run_sweep(MeasureSpec.interval_density(-1.0, 1.0, "lebesgue"),
                  [2, 3], cfg)


def test_an_atom_off_the_circle_does_not_move_the_reference():
    # 0.9 * circle + 0.1 * delta_3 is regular and its support has capacity 1;
    # the atom is polar, so omega_n must approach the circle's equilibrium
    spec = MeasureSpec.mixture([
        (MeasureSpec.circle_uniform(), 0.9),
        (MeasureSpec.atomic_mixture([(3.0, 1.0)]), 0.1)])
    r = run_sweep(spec, range(3, 9), SweepConfig(seed=1, n_samples=4000))
    assert r.failures == {}
    assert r.reference_capacity == pytest.approx(1.0, abs=1e-12)
    assert r.weak_distances[-1] < r.weak_distances[0]


def test_sweep_rejects_a_polar_support():
    spec = MeasureSpec.atomic_mixture([(0j, 0.5), (1.0, 0.5)])
    with pytest.raises(HypothesisViolation, match="polar"):
        run_sweep(spec, [2, 3], SweepConfig(seed=1, n_samples=100))


def test_report_json_round_trip(tmp_path, tiny_circle_report):
    path = tmp_path / "report.json"
    report_to_json(tiny_circle_report, path)
    back = report_from_json(path)
    assert back.to_dict() == tiny_circle_report.to_dict()


def test_report_csv_layout(tmp_path, tiny_circle_report):
    path = tmp_path / "report.csv"
    report_to_csv(tiny_circle_report, path, header_comment="seed=11")
    lines = path.read_text().splitlines()
    assert lines[0] == "# seed=11"
    assert lines[1].startswith("degree,gamma_root,cap_julia,sampler_z,")
    assert len(lines) == 4
    cells = lines[2].split(",")
    header = lines[1].split(",")
    assert cells[header.index("mass_in_v")] == ""  # None renders as empty
    assert cells[0] == "2"


def test_report_validation_via_replace(tiny_circle_report):
    r = tiny_circle_report
    with pytest.raises(ValueError, match="masses"):
        dataclasses.replace(r, masses_in_v=[1.5] * len(r.degrees))
    with pytest.raises(ValueError, match="match"):
        dataclasses.replace(r, gamma_roots=r.gamma_roots[:-1])


def test_config_hash_ignores_key_order():
    a = {"alpha": 1, "beta": [2, 3], "gamma": {"x": 1.5}}
    b = {"gamma": {"x": 1.5}, "beta": [2, 3], "alpha": 1}
    assert config_hash_of(a) == config_hash_of(b)
    assert len(config_hash_of(a)) == 16
    assert config_hash_of(a) != config_hash_of({**a, "alpha": 2})
