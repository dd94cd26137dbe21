"""Equilibrium measures on grids: closed forms, solver accuracy, Frostman."""

import dataclasses
import json
import math

import numpy as np
import pytest

from brolinlab import equilibrium
from brolinlab.equilibrium import (EquilibriumResult, _regularized_potential,
                                   equilibrium_measure, equilibrium_to_files,
                                   filled_hull, frostman_check,
                                   outer_boundary_mask, reference_equilibrium,
                                   support_gridset)
from brolinlab.grids import (GridSet, Rectangle, rasterize_disk,
                             rasterize_rectangle_outline)
from brolinlab.measures import EmpiricalMeasure, MeasureSpec, energy, potential

# Capacity of the unit square, as a closed form in the quarter-integral
# Gamma value: 2 * Gamma(1/4)^2 / (4 * pi^(3/2)).
SQUARE_CAPACITY = 2.0 * math.gamma(0.25) ** 2 / (4.0 * math.pi ** 1.5)


def square_hull(side: float, resolution: int) -> GridSet:
    h = side / 2.0
    rect = Rectangle(-1.7 * h, 1.7 * h, -1.7 * h, 1.7 * h)
    outline = rasterize_rectangle_outline(-h, h, -h, h, rect,
                                          resolution, resolution)
    return filled_hull(outline)


def potential_band(e: EquilibriumResult, pts: np.ndarray) -> tuple[float, float]:
    """min and max of U - I over ``pts``, with the smeared self term near
    atoms that :func:`frostman_check` uses."""
    vals = _regularized_potential(e.measure, pts) - e.energy
    return float(vals.min()), float(vals.max())


@pytest.fixture(scope="module")
def circle_result():
    spec = MeasureSpec.circle_uniform(radius=2.0)
    return (support_gridset(spec, resolution=256),
            reference_equilibrium(spec, n_atoms=1024))


@pytest.fixture(scope="module")
def square_result_512():
    gs = square_hull(2.0, 512)
    return gs, equilibrium_measure(gs)


def test_circle_closed_form_comes_from_the_measure_kind(circle_result):
    gs, e = circle_result
    # the mask is pixels only: no tag on it picks the closed form
    assert [f.name for f in dataclasses.fields(gs)] == ["rect", "mask"]
    points, weights = MeasureSpec.circle_uniform(radius=2.0).nodes(1024)
    np.testing.assert_array_equal(e.measure.points, points)
    np.testing.assert_array_equal(e.measure.weights, weights)
    assert e.iterations_run == 0


def test_circle_equilibrium_closed_form(circle_result):
    _, e = circle_result
    assert e.converged
    assert e.capacity == pytest.approx(2.0, abs=1e-13)
    assert e.energy == pytest.approx(math.log(2.0), abs=1e-13)
    assert np.abs(np.abs(e.measure.points) - 2.0).max() < 1e-12
    assert e.measure.size == 1024


def test_circle_equilibrium_is_frostman_flat(circle_result):
    # on the pixel centres projected onto the circle: half a pixel off it,
    # the exterior Green function is already positive, which is not what
    # the property is about
    gs, e = circle_result
    pts = gs.masked_points()
    lo, hi = potential_band(e, 2.0 * pts / np.abs(pts))
    assert hi < 2e-3
    assert max(0.0, -lo) < 1e-3


def test_interval_equilibrium_closed_form():
    spec = MeasureSpec.interval_density(-2.0, 2.0, "arcsine")
    e = reference_equilibrium(spec, n_atoms=1024)
    assert e.converged
    assert e.capacity == pytest.approx(1.0, abs=1e-13)
    assert e.energy == pytest.approx(0.0, abs=1e-13)
    # Weighted one-sample distance against the arcsine distribution.
    order = np.argsort(e.measure.points.real)
    x = e.measure.points.real[order]
    cum = np.cumsum(e.measure.weights[order])
    cdf = np.arcsin(np.clip(x / 2.0, -1, 1)) / np.pi + 0.5
    assert np.abs(cum - cdf).max() < 0.01
    # on the pixel centres projected onto the segment
    pts = support_gridset(spec, resolution=256).masked_points()
    lo, hi = potential_band(e, np.clip(pts.real, -2.0, 2.0) + 0j)
    assert -0.02 <= lo and hi <= 0.02


def test_square_capacity_from_the_grid_solver(square_result_512):
    _, e = square_result_512
    assert e.converged
    assert abs(e.capacity - SQUARE_CAPACITY) / SQUARE_CAPACITY < 0.015
    e256 = equilibrium_measure(square_hull(2.0, 256))
    assert e256.converged
    assert abs(e256.capacity - SQUARE_CAPACITY) / SQUARE_CAPACITY < 0.02
    assert abs(e256.capacity - e.capacity) / e.capacity < 0.02


def test_square_equilibrium_is_frostman_flat(square_result_512):
    gs, e = square_result_512
    rep = frostman_check(e, gs)
    assert rep.passed
    assert rep.max_on_set <= 0.02
    assert rep.lower_bound_defect <= 0.02
    # the discrete problem is solved exactly: flat to rounding on the atoms
    lo, hi = potential_band(e, e.measure.points)
    assert max(-lo, hi) <= 1e-10


def test_uniform_boundary_weights_fail_frostman(square_result_512):
    gs, e = square_result_512
    atoms = e.measure.points
    uniform = EmpiricalMeasure(atoms, np.full(atoms.size, 1.0 / atoms.size))
    i = energy(uniform)
    fake = EquilibriumResult(measure=uniform, energy=i, capacity=math.exp(i),
                             converged=True, iterations_run=0)
    rep = frostman_check(fake, gs)
    assert not rep.passed
    assert rep.max_on_set > 0.05


def test_solver_reproduces_the_circle_without_shape_metadata():
    # a circle's mask goes to the grid solver like any other mask
    gs = support_gridset(MeasureSpec.circle_uniform(radius=2.0), resolution=512)
    e = equilibrium_measure(gs)
    assert e.converged
    assert e.iterations_run > 0
    assert abs(e.capacity - 2.0) / 2.0 < 0.01


def test_solver_capacity_is_dilation_covariant():
    small = equilibrium_measure(square_hull(1.0, 256))
    big = equilibrium_measure(square_hull(2.0, 256))
    assert big.capacity == pytest.approx(2.0 * small.capacity, rel=1e-12)
    # here I = log(59.2) > 2, so no fixed shift c = 2 keeps c 11' - L definite
    huge = equilibrium_measure(square_hull(100.0, 256))
    assert huge.capacity == pytest.approx(100.0 * small.capacity, rel=1e-12)


def test_solver_keeps_every_weight_positive_on_a_slit_disk():
    # The unit disk with a slit two pixel rows wide from the centre to the
    # rim.  The slit has no area, so the capacity stays 1, and the set lies
    # inside the unit disk, so it cannot exceed 1.  An unconstrained solve of
    # the discrete problem puts negative mass on the slit's edges; the solver
    # drops those boundary atoms, so the measure holds only positive weights,
    # and the potential at each dropped atom stays at or below I.
    rect = Rectangle(-2.0, 2.0, -2.0, 2.0)
    disk = rasterize_disk(0j, 1.0, rect, 256, 256)
    z = disk.pixel_centers()
    h = rect.spacing(256, 256)[1]
    gs = GridSet(rect, disk.mask & ~((np.abs(z.imag) < h) & (z.real > 0)))
    e = equilibrium_measure(gs)
    assert e.converged
    assert frostman_check(e, gs).passed
    assert np.all(e.measure.weights > 0)
    assert abs(e.capacity - 1.0) <= 0.02
    assert e.capacity <= 1.0
    hull = filled_hull(gs)
    boundary = hull.pixel_centers()[outer_boundary_mask(hull)]
    dropped = boundary[~np.isin(boundary, e.measure.points)]
    assert dropped.size + e.measure.size == boundary.size
    assert dropped.size > 0
    assert np.all(potential(e.measure, dropped) <= e.energy)


def test_exhausted_iteration_budget_reports_no_convergence(monkeypatch):
    # with a zero residual target conjugate gradients run to their cap of
    # one step per atom and must say so
    monkeypatch.setattr(equilibrium, "_CG_RTOL", 0.0)
    hull = square_hull(2.0, 128)
    nb = int(outer_boundary_mask(hull).sum())
    e = equilibrium_measure(hull)
    assert not e.converged
    assert e.iterations_run == nb


def test_circle_reference_potential_is_log_outside_and_flat_inside():
    # U - I is the outer Green function: log|z| outside the unit circle, 0 inside
    e = reference_equilibrium(MeasureSpec.circle_uniform(), n_atoms=1024)
    vals = potential(e.measure, np.array([2.0 + 0j, 0.3 + 0j, 4.0 + 0j, 0j])) - e.energy
    np.testing.assert_allclose(vals, [math.log(2.0), 0.0, math.log(4.0), 0.0],
                               rtol=0, atol=1e-12)


def test_reference_equilibrium_dispatches_on_the_spec():
    # any density has the whole interval as support: the arcsine reference
    for density in ("arcsine", "lebesgue"):
        e = reference_equilibrium(MeasureSpec.interval_density(-1.0, 1.0, density))
        assert e.capacity == pytest.approx(0.5, abs=1e-13)
        assert e.iterations_run == 0


def interval(a, b):
    return MeasureSpec.interval_density(a, b, "lebesgue")


@pytest.mark.parametrize("spec", [
    MeasureSpec.mixture([(interval(-1.0, 0.0), 0.5), (interval(0.0, 1.0), 0.5)]),
    MeasureSpec.mixture([(interval(-0.2, 1.0), 0.3), (interval(-1.0, 0.5), 0.7)]),
    MeasureSpec.mixture([
        (MeasureSpec.mixture([(interval(-1.0, -0.6), 0.4),
                              (interval(-0.4, -0.2), 0.4),
                              (MeasureSpec.atomic_mixture([(2.0, 1.0)]), 0.2)]),
         0.4),
        (interval(-0.6, 1.0), 0.6)]),
], ids=["touching", "overlapping", "nested-with-an-atom"])
def test_intervals_that_meet_reach_the_closed_form(spec):
    # [-1, 1] has capacity 1/2 (Ransford 1995)
    assert spec.non_polar().endpoints == (-1.0, 1.0)
    e = reference_equilibrium(spec)
    assert e.capacity == pytest.approx(0.5, abs=1e-12)
    assert e.iterations_run == 0


def test_separated_intervals_stay_two_pieces():
    spec = MeasureSpec.mixture([(interval(-1.0, -0.5), 0.5),
                                (interval(0.5, 1.0), 0.5)])
    pieces = [sub.endpoints for sub, _ in spec.non_polar().components]
    assert pieces == [(-1.0, -0.5), (0.5, 1.0)]


CIRCLE = MeasureSpec.circle_uniform()


@pytest.mark.parametrize("spec", [
    MeasureSpec.mixture([(CIRCLE, 0.9), (MeasureSpec.atomic_mixture([(3.0, 1.0)]), 0.1)]),
    MeasureSpec.mixture([(CIRCLE, 0.9), (MeasureSpec.atomic_mixture([(1.5j, 1.0)]), 0.1)]),
    MeasureSpec.mixture([(CIRCLE, 1.0)]),
], ids=["atom-at-3", "atom-at-1.5i", "one-circle-mixture"])
def test_polar_pieces_carry_no_reference_mass(spec):
    # finite sets are polar, so the reference is the unit circle's own
    assert reference_equilibrium(spec).capacity == pytest.approx(1.0, abs=1e-12)


def test_a_polar_support_has_no_reference():
    with pytest.raises(ValueError, match="polar"):
        reference_equilibrium(MeasureSpec.atomic_mixture([(0j, 0.5), (1.0, 0.5)]))


def test_mixture_support_is_the_union():
    spec = MeasureSpec.mixture([
        (MeasureSpec.circle_uniform(center=-1.5 + 0j, radius=0.5), 0.5),
        (MeasureSpec.circle_uniform(center=1.5 + 0j, radius=0.5), 0.5),
    ])
    gs = support_gridset(spec, resolution=256)
    assert bool(gs.contains(-1.0 + 0j))
    assert bool(gs.contains(2.0 + 0j))
    assert not bool(gs.contains(0j))


def test_result_consistency_is_enforced():
    m = EmpiricalMeasure(np.array([1.0 + 0j, -1.0 + 0j]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="capacity"):
        EquilibriumResult(measure=m, energy=0.0, capacity=2.0,
                          converged=True, iterations_run=0)


def test_equilibrium_files(tmp_path, circle_result):
    _, e = circle_result
    equilibrium_to_files(e, tmp_path / "eq", header_comment="shape=circle")
    summary = json.loads((tmp_path / "eq.json").read_text())
    assert summary["capacity"] == e.capacity
    assert summary["converged"] is True
    assert summary["atom_count"] == 1024
    first = (tmp_path / "eq.csv").read_text().splitlines()[0]
    assert first == "# shape=circle"
