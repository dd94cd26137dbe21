"""Equilibrium measures of compact planar sets on pixel grids.

The energy maximizer lives on the outer boundary of the filled set, carries
constant potential there, and its exponentiated energy is the capacity.
Named circles and intervals take closed-form fast paths; everything else is
solved by multiplicative weight updates on the outer boundary pixels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import ndimage

from ._io import write_json
from .grids import GridSet, Rectangle
from .measures import (_TILE, EmpiricalMeasure, MeasureSpec, NEG_INF,
                       _log_distances, _tiles, capacity_from_energy,
                       empirical_to_csv, energy)

THETA_DEFAULT = 0.5
SPREAD_TOL_DEFAULT = 2e-3
ITERATIONS_DEFAULT = 4000
FROSTMAN_TOL_DEFAULT = 0.02
ATOMS_DEFAULT = 1024

_CROSS = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)
_BLOCK = np.ones((3, 3), dtype=bool)


def filled_hull(gs: GridSet) -> GridSet:
    """Fill the holes of a mask: everything not flood-reachable from the border.

    The complement is traversed with 4-connectivity (complementary to the
    8-connected masks produced by the rasterizers).  Idempotent and monotone.
    Raises if the mask touches the grid border, where the exterior would be
    ambiguous.
    """
    if gs.touches_border():
        raise ValueError("mask touches the grid border; enlarge the rectangle")
    labels, _ = ndimage.label(~gs.mask, structure=_CROSS)
    edge = np.unique(np.concatenate([labels[0, :], labels[-1, :],
                                     labels[:, 0], labels[:, -1]]))
    edge = edge[edge != 0]
    exterior = np.isin(labels, edge)
    return GridSet(gs.rect, ~exterior, provenance=gs.provenance, shape=gs.shape)


def outer_boundary_mask(hull: GridSet) -> np.ndarray:
    """Hull pixels 8-adjacent to the flood-filled exterior."""
    exterior = ~hull.mask
    near = ndimage.binary_dilation(exterior, structure=_BLOCK)
    return hull.mask & near


@dataclass
class EquilibriumResult:
    """Discrete equilibrium measure with its energy diagnostics.

    measure: atoms on the outer boundary of the set; energy: discrete
    logarithmic energy I; capacity = exp(I); frostman_defect: max |p - I|
    over the atoms minus the tolerance band used at construction (negative
    means the potential is flat within the band); converged: whether the
    potential spread met its target within the iteration budget.
    """

    measure: EmpiricalMeasure
    energy: float
    capacity: float
    frostman_defect: float
    converged: bool
    iterations_run: int

    def __post_init__(self):
        if self.energy == NEG_INF:
            if self.capacity != 0.0:
                raise ValueError("polar energy must give capacity 0")
        elif abs(self.capacity - math.exp(self.energy)) > 1e-12 * max(self.capacity, 1.0):
            raise ValueError("capacity must equal exp(energy)")


def _regularized_potential(m: EmpiricalMeasure, pts: np.ndarray) -> np.ndarray:
    """Potential at ``pts`` with near-atom singularities smeared.

    Atom i stands for a boundary piece whose length is its nearest-neighbor
    spacing l_i; a point inside that piece (closer than l_i / 2) cannot be
    resolved by the discrete measure, so the atom's kernel contributes the
    smeared midpoint value log(l_i / (2e)) there instead of diverging.  This
    is the diagonal used by the grid solver, so its converged atoms evaluate
    flat here; farther than l_i / 2 the exact log kernel applies.
    """
    atoms = m.points
    log_spacing = _log_spacing(atoms)
    log_half_l = log_spacing - math.log(2.0)
    self_logs = log_half_l - 1.0
    out = np.empty(pts.size, dtype=float)
    for start, logs in _tiles(_log_distances, pts, atoms):
        np.copyto(logs, self_logs, where=logs < log_half_l)
        out[start:start + _TILE] = logs @ m.weights
    return out


def _log_spacing(atoms: np.ndarray) -> np.ndarray:
    """log of each atom's nearest-neighbor distance."""
    out = np.empty(atoms.size)
    for start, logs in _tiles(_log_distances, atoms, atoms):
        rows = np.arange(logs.shape[0])
        logs[rows, start + rows] = np.inf
        out[start:start + _TILE] = logs.min(axis=1)
    return out


def equilibrium_measure(gs: GridSet, iterations: int = ITERATIONS_DEFAULT,
                        tol: float = SPREAD_TOL_DEFAULT,
                        theta: float = THETA_DEFAULT,
                        n_atoms: int = ATOMS_DEFAULT) -> EquilibriumResult:
    """Equilibrium measure of the set described by ``gs``.

    Named circle and interval shapes bypass optimization (``n_atoms``
    uniform atoms on the circle, ``n_atoms`` arcsine atoms on the interval,
    closed-form energies).  The grid path ignores ``n_atoms``: it places one
    atom on each outer boundary pixel of the filled hull and runs
    multiplicative updates w_i <- w_i exp(theta (p_i - I_bar)), renormalizing
    each sweep, until the potential spread over the atoms drops below
    ``tol``.  Non-convergence within ``iterations`` returns the
    partial result flagged converged=False.
    """
    if gs.shape is not None and gs.shape[0] == "circle":
        _, center, radius = gs.shape
        return _circle_closed_form(center, radius, n_atoms, tol)
    if gs.shape is not None and gs.shape[0] == "interval":
        _, a, b = gs.shape
        return _interval_closed_form(a, b, n_atoms, tol)

    hull = filled_hull(gs)
    boundary = outer_boundary_mask(hull)
    atoms = hull.pixel_centers()[boundary]
    nb = atoms.size
    if nb < 2:
        raise ValueError("set boundary is below grid resolution")
    logd = np.empty((nb, nb))
    for start, logs in _tiles(_log_distances, atoms, atoms):
        logd[start:start + _TILE] = logs
    np.fill_diagonal(logd, np.inf)
    log_spacing = logd.min(axis=1)
    # each atom stands for a boundary piece of length ~ its node spacing;
    # the potential a segment of length L exerts on its own midpoint is
    # log(L/(2e)), which regularizes the otherwise -inf self term and keeps
    # the discrete energy an honest stand-in for the continuous one
    np.fill_diagonal(logd, log_spacing - math.log(2.0) - 1.0)

    # logd is exactly symmetric ((a - b)^2 == (b - a)^2 in floating point,
    # and the diagonal is set above), so the symmetric matvec reads one
    # triangle: half the memory traffic of logd @ w.  logd.T is the
    # F-contiguous view BLAS takes without a copy.  Imported here because
    # scipy.linalg is heavy and nothing else in the package needs it.
    from scipy.linalg.blas import dsymv
    w = np.full(nb, 1.0 / nb)
    converged = False
    it = 0
    pvals = dsymv(1.0, logd.T, w)
    for it in range(1, iterations + 1):
        spread = float(pvals.max() - pvals.min())
        if spread < tol:
            converged = True
            break
        ibar = float(w @ pvals)
        w = w * np.exp(theta * (pvals - ibar))
        w /= w.sum()
        pvals = dsymv(1.0, logd.T, w)
    measure = EmpiricalMeasure(atoms, w, provenance="equilibrium")
    e = energy(measure)
    defect = float(np.abs(pvals - e).max()) - tol
    return EquilibriumResult(measure=measure, energy=e,
                             capacity=capacity_from_energy(e),
                             frostman_defect=defect, converged=converged,
                             iterations_run=it)


def _circle_closed_form(center: complex, radius: float, n_atoms: int,
                        tol: float) -> EquilibriumResult:
    k = np.arange(n_atoms)
    atoms = center + radius * np.exp(2j * np.pi * k / n_atoms)
    w = np.full(n_atoms, 1.0 / n_atoms)
    measure = EmpiricalMeasure(atoms, w, provenance="equilibrium")
    e = math.log(radius)
    pvals = _regularized_potential(measure, atoms)
    defect = float(np.abs(pvals - e).max()) - tol
    return EquilibriumResult(measure=measure, energy=e, capacity=radius,
                             frostman_defect=defect, converged=True,
                             iterations_run=0)


def _interval_closed_form(a: float, b: float, n_atoms: int,
                          tol: float) -> EquilibriumResult:
    k = np.arange(1, n_atoms + 1)
    nodes = (a + b) / 2 + (b - a) / 2 * np.cos((2 * k - 1) * np.pi / (2 * n_atoms))
    atoms = nodes[::-1].astype(complex)
    w = np.full(n_atoms, 1.0 / n_atoms)
    measure = EmpiricalMeasure(atoms, w, provenance="equilibrium")
    e = math.log((b - a) / 4.0)
    pvals = _regularized_potential(measure, atoms)
    defect = float(np.abs(pvals - e).max()) - tol
    return EquilibriumResult(measure=measure, energy=e,
                             capacity=(b - a) / 4.0,
                             frostman_defect=defect, converged=True,
                             iterations_run=0)


@dataclass(frozen=True)
class FrostmanReport:
    min_on_set: float
    max_on_set: float
    lower_bound_defect: float
    passed: bool


def frostman_check(e: EquilibriumResult, s: GridSet,
                   tol_frostman: float = FROSTMAN_TOL_DEFAULT) -> FrostmanReport:
    """Check the constant-potential property of ``e`` over the pixels of ``s``.

    Pixel centers are snapped onto the ideal set when the grid carries shape
    metadata (a half-pixel offset already shows the positive exterior Green
    values near thin sets, which is not what the property is about).  Points
    coinciding with atoms get the smeared self term, the same quantity the
    solver drives flat.  Passes iff the values stay inside [I - tol, I + tol].
    """
    pts = s.masked_points()
    if pts.size == 0:
        raise ValueError("empty mask")
    pts = _snap_to_shape(pts, s.shape)
    pvals = _regularized_potential(e.measure, pts)
    lo = float(pvals.min() - e.energy)
    hi = float(pvals.max() - e.energy)
    return FrostmanReport(min_on_set=lo, max_on_set=hi,
                          lower_bound_defect=max(0.0, -lo),
                          passed=(lo >= -tol_frostman and hi <= tol_frostman))


def _snap_to_shape(pts: np.ndarray, shape) -> np.ndarray:
    if shape is None:
        return pts
    if shape[0] == "circle":
        _, c, r = shape
        d = pts - c
        mag = np.abs(d)
        safe = np.where(mag == 0, 1.0, mag)
        return c + r * np.where(mag == 0, 1.0, d / safe)
    if shape[0] == "interval":
        _, a, b = shape
        return np.clip(pts.real, a, b).astype(complex)
    if shape[0] == "disk":
        _, c, r = shape
        d = pts - c
        mag = np.abs(d)
        out = pts.copy()
        far = mag > r
        out[far] = c + r * d[far] / mag[far]
        return out
    return pts


# ---------------------------------------------------------------------------
# Support rasterization and reference measures


def support_gridset(spec: MeasureSpec, resolution: int = 512,
                    rect: Rectangle | None = None) -> GridSet:
    """Pixel mask of the support of ``spec`` on an auto-padded rectangle."""
    if rect is None:
        xmin, xmax, ymin, ymax = spec.bounding_box()
        span = max(xmax - xmin, ymax - ymin, 1.0)
        pad = 0.35 * span
        rect = Rectangle(xmin - pad, xmax + pad, ymin - pad, ymax + pad)
    return spec.support_set(rect, resolution, resolution)


def reference_equilibrium(spec: MeasureSpec, n_atoms: int = 2048,
                          resolution: int = 512) -> EquilibriumResult:
    """Equilibrium measure of the support of ``spec.non_polar()``.

    Polar pieces (atoms) carry no equilibrium mass, so they are dropped.
    Circles and intervals reach the closed forms through the shape that
    :func:`support_gridset` records (any interval density has the full
    interval as support, hence the arcsine reference); other kinds go
    through the grid solver on the rasterized support.
    """
    support = spec.non_polar()
    if support is None:
        raise ValueError("a polar support has no equilibrium measure")
    return equilibrium_measure(support_gridset(support, resolution=resolution),
                               n_atoms=n_atoms)


def equilibrium_to_files(e: EquilibriumResult, base: str | Path,
                         header_comment: str | None = None) -> None:
    """Write <base>.csv (atoms) and <base>.json (summary)."""
    base = Path(base)
    empirical_to_csv(e.measure, base.with_suffix(".csv"), header_comment)
    summary = {
        "energy": e.energy,
        "capacity": e.capacity,
        "frostman_defect": e.frostman_defect,
        "converged": e.converged,
        "iterations_run": e.iterations_run,
        "atom_count": int(e.measure.size),
    }
    write_json(base.with_suffix(".json"), summary)
