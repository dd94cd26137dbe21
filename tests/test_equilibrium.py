"""Equilibrium measures on grids: closed forms, solver accuracy, Frostman."""

import json
import math

import numpy as np
import pytest

from brolinlab.equilibrium import (EquilibriumResult, equilibrium_measure,
                                   equilibrium_to_files, filled_hull,
                                   frostman_check, reference_equilibrium,
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


@pytest.fixture(scope="module")
def circle_result():
    gs = support_gridset(MeasureSpec.circle_uniform(radius=2.0), resolution=256)
    return gs, equilibrium_measure(gs, n_atoms=1024)


@pytest.fixture(scope="module")
def square_result_512():
    gs = square_hull(2.0, 512)
    return gs, equilibrium_measure(gs)


def test_circle_support_keeps_its_shape_metadata(circle_result):
    gs, _ = circle_result
    assert gs.shape == ("circle", 0j, 2.0)
    assert gs.provenance == "named-shape"


def test_circle_equilibrium_closed_form(circle_result):
    _, e = circle_result
    assert e.converged
    assert e.capacity == pytest.approx(2.0, abs=1e-13)
    assert e.energy == pytest.approx(math.log(2.0), abs=1e-13)
    assert np.abs(np.abs(e.measure.points) - 2.0).max() < 1e-12
    assert e.measure.size == 1024


def test_circle_equilibrium_is_frostman_flat(circle_result):
    gs, e = circle_result
    rep = frostman_check(e, gs)
    assert rep.passed
    assert rep.max_on_set < 2e-3
    assert rep.lower_bound_defect < 1e-3


def test_interval_equilibrium_closed_form():
    gs = support_gridset(MeasureSpec.interval_density(-2.0, 2.0, "arcsine"),
                         resolution=256)
    e = equilibrium_measure(gs, n_atoms=1024)
    assert e.converged
    assert e.capacity == pytest.approx(1.0, abs=1e-13)
    assert e.energy == pytest.approx(0.0, abs=1e-13)
    # Weighted one-sample distance against the arcsine distribution.
    order = np.argsort(e.measure.points.real)
    x = e.measure.points.real[order]
    cum = np.cumsum(e.measure.weights[order])
    cdf = np.arcsin(np.clip(x / 2.0, -1, 1)) / np.pi + 0.5
    assert np.abs(cum - cdf).max() < 0.01
    rep = frostman_check(e, gs)
    assert rep.passed


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


def test_uniform_boundary_weights_fail_frostman(square_result_512):
    gs, e = square_result_512
    atoms = e.measure.points
    uniform = EmpiricalMeasure(atoms, np.full(atoms.size, 1.0 / atoms.size))
    i = energy(uniform)
    fake = EquilibriumResult(measure=uniform, energy=i, capacity=math.exp(i),
                             frostman_defect=0.0, converged=True,
                             iterations_run=0)
    rep = frostman_check(fake, gs)
    assert not rep.passed
    assert rep.max_on_set > 0.05


def test_solver_reproduces_the_circle_without_shape_metadata():
    gs = support_gridset(MeasureSpec.circle_uniform(radius=2.0), resolution=512)
    raw = GridSet(gs.rect, gs.mask, provenance="custom", shape=None)
    e = equilibrium_measure(raw)
    assert e.converged
    assert abs(e.capacity - 2.0) / 2.0 < 0.01


def test_solver_capacity_is_dilation_covariant():
    small = equilibrium_measure(square_hull(1.0, 256))
    big = equilibrium_measure(square_hull(2.0, 256))
    assert big.capacity == pytest.approx(2.0 * small.capacity, rel=1e-12)


def test_solver_keeps_every_weight_positive_on_a_slit_disk():
    # The unit disk with a slit two pixel rows wide from the centre to the
    # rim.  The slit has no area, so the capacity stays 1; its two edges are
    # boundary atoms that carry almost no mass (min weight ~4.5e-6), where an
    # unconstrained linear solve of the same discrete problem goes negative.
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


def test_exhausted_iteration_budget_reports_no_convergence():
    e = equilibrium_measure(square_hull(2.0, 128), iterations=3)
    assert not e.converged
    assert e.iterations_run == 3


def test_circle_reference_potential_is_log_outside_and_flat_inside():
    # U - I is the outer Green function: log|z| outside the unit circle, 0 inside
    e = reference_equilibrium(MeasureSpec.circle_uniform(), n_atoms=1024)
    vals = potential(e.measure, np.array([2.0 + 0j, 0.3 + 0j, 4.0 + 0j, 0j])) - e.energy
    np.testing.assert_allclose(vals, [math.log(2.0), 0.0, math.log(4.0), 0.0],
                               rtol=0, atol=1e-12)


def test_reference_equilibrium_dispatches_on_the_spec():
    e = reference_equilibrium(MeasureSpec.interval_density(-1.0, 1.0, "arcsine"))
    assert e.capacity == pytest.approx(0.5, abs=1e-13)


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
    assert gs.shape is None
    assert bool(gs.contains(-1.0 + 0j))
    assert bool(gs.contains(2.0 + 0j))
    assert not bool(gs.contains(0j))


def test_result_consistency_is_enforced():
    m = EmpiricalMeasure(np.array([1.0 + 0j, -1.0 + 0j]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="capacity"):
        EquilibriumResult(measure=m, energy=0.0, capacity=2.0,
                          frostman_defect=0.0, converged=True, iterations_run=0)


def test_equilibrium_files(tmp_path, circle_result):
    _, e = circle_result
    equilibrium_to_files(e, tmp_path / "eq", header_comment="shape=circle")
    summary = json.loads((tmp_path / "eq.json").read_text())
    assert summary["capacity"] == e.capacity
    assert summary["converged"] is True
    assert summary["atom_count"] == 1024
    first = (tmp_path / "eq.csv").read_text().splitlines()[0]
    assert first == "# shape=circle"
