"""Equilibrium measures of compact planar sets on pixel grids.

The energy maximizer lives on the outer boundary of the filled set, carries
constant potential there, and its exponentiated energy is the capacity.
A mask is solved exactly on its outer boundary pixels, dropping the atoms
that would carry negative mass; the reference equilibrium of a measure whose
kind knows the closed form (circles, intervals) takes that instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np
from scipy import ndimage

from . import measures
from ._io import write_json
from .grids import GridSet, Rectangle
from .measures import (_TILE, EmpiricalMeasure, MeasureSpec, NEG_INF,
                       _log_distances, _tiles, capacity_from_energy,
                       empirical_to_csv)

energy = measures.energy  # bench/tracer.py wraps this name
FROSTMAN_TOL_DEFAULT = 0.02
_CG_RTOL = 1e-12  # conjugate gradients stop at ||r|| <= _CG_RTOL * ||1||
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
    return GridSet(gs.rect, ~exterior)


def outer_boundary_mask(hull: GridSet) -> np.ndarray:
    """Hull pixels 8-adjacent to the flood-filled exterior."""
    exterior = ~hull.mask
    near = ndimage.binary_dilation(exterior, structure=_BLOCK)
    return hull.mask & near


@dataclass
class EquilibriumResult:
    """Discrete equilibrium measure with its energy diagnostics.

    measure: atoms on the outer boundary of the set; energy: discrete
    logarithmic energy I; capacity = exp(I); converged: whether the grid
    solve met its residual and the KKT conditions (always true for a closed
    form); iterations_run: conjugate gradient steps (0 for a closed form).
    """

    measure: EmpiricalMeasure
    energy: float
    capacity: float
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


def equilibrium_measure(gs: GridSet) -> EquilibriumResult:
    """Equilibrium measure of the set described by ``gs``.

    One atom per outer boundary pixel of the filled hull; the discrete
    energy w'Lw is maximized exactly.  Flat potential Lw = I on the free
    atoms is M x = 1 with M = c 11' - L, w = x / sum(x), I = c - 1 / sum(x).
    Atoms with w <= 0 are dropped and dropped atoms with potential above I
    re-admitted; the KKT conditions hold once that leaves the set unchanged.
    """
    hull = filled_hull(gs)
    atoms = hull.pixel_centers()[outer_boundary_mask(hull)]
    nb = atoms.size
    if nb < 2:
        raise ValueError("set boundary is below grid resolution")
    logd = np.empty((nb, nb))
    for start, logs in _tiles(_log_distances, atoms, atoms):
        logd[start:start + _TILE] = logs
    np.fill_diagonal(logd, np.inf)
    # each atom stands for a boundary piece of length ~ its node spacing;
    # the potential a segment of length L exerts on its own midpoint is
    # log(L/(2e)), which regularizes the otherwise -inf self term and keeps
    # the discrete energy an honest stand-in for the continuous one
    np.fill_diagonal(logd, logd.min(axis=1) - math.log(2.0) - 1.0)
    # every entry of M is >= 1, as no two points of the rectangle lie farther
    # apart than its diagonal, and a dilation shifts L and c alike
    c = 1.0 + math.log(math.hypot(*hull.rect.spacing(1, 1)))
    # logd is exactly symmetric ((a - b)^2 == (b - a)^2 in floating point),
    # so the symmetric matvec reads one triangle: half the memory traffic of
    # logd @ w.  logd.T is the F-contiguous view BLAS takes without a copy.
    # Imported here: scipy.linalg is heavy and nothing else needs it.
    from scipy.linalg.blas import dsymv
    lmul = partial(dsymv, 1.0, logd.T)
    free, seen, steps, solved = np.ones(nb, dtype=bool), set(), 0, True
    while solved and free.tobytes() not in seen:
        seen.add(free.tobytes())
        x, k, solved = _conjugate_gradients(lmul, c, free)
        steps += k
        total = float(x.sum())
        e = c - 1.0 / total
        last, free = free, (x > 0) | (~free & (lmul(x / total) > e))
    keep = x > 0
    measure = EmpiricalMeasure(atoms[keep], x[keep] / x[keep].sum(),
                               provenance="equilibrium")
    return EquilibriumResult(measure=measure, energy=e,
                             capacity=capacity_from_energy(e),
                             converged=solved and np.array_equal(free, last),
                             iterations_run=steps)


def _conjugate_gradients(lmul, c: float, free: np.ndarray):
    """Solve the ``free`` block of (c 11' - L) x = 1, with x = 0 off ``free``
    and ``lmul`` the product with L.  Returns x, the steps taken, and whether
    ||r|| <= _CG_RTOL * ||1|| held within one step per free atom."""
    r = free.astype(float)
    x, p, rr = np.zeros(r.size), r.copy(), float(r.sum())
    n, stop = int(rr), _CG_RTOL ** 2 * rr
    for k in range(n):
        if rr <= stop:
            return x, k, True
        q = c * p.sum() - lmul(p)
        q[~free] = 0.0
        alpha = rr / float(p @ q)
        x += alpha * p
        r -= alpha * q
        rr, rr_old = float(r @ r), rr
        p *= rr / rr_old
        p += r
    return x, n, rr <= stop


@dataclass(frozen=True)
class FrostmanReport:
    min_on_set: float
    max_on_set: float
    lower_bound_defect: float
    passed: bool


def frostman_check(e: EquilibriumResult, s: GridSet) -> FrostmanReport:
    """Check the constant-potential property of ``e`` over the pixels of ``s``.

    Points coinciding with atoms get the smeared self term that the solver
    holds flat.  Passes iff |U - I| <= FROSTMAN_TOL_DEFAULT on every pixel.
    """
    pts = s.masked_points()
    if pts.size == 0:
        raise ValueError("empty mask")
    pvals = _regularized_potential(e.measure, pts)
    lo = float(pvals.min() - e.energy)
    hi = float(pvals.max() - e.energy)
    return FrostmanReport(min_on_set=lo, max_on_set=hi,
                          lower_bound_defect=max(0.0, -lo),
                          passed=(lo >= -FROSTMAN_TOL_DEFAULT
                                  and hi <= FROSTMAN_TOL_DEFAULT))


# ---------------------------------------------------------------------------
# Support rasterization and reference measures


def support_gridset(spec: MeasureSpec, resolution: int = 512) -> GridSet:
    """Pixel mask of the support of ``spec`` on an auto-padded rectangle."""
    xmin, xmax, ymin, ymax = spec.bounding_box()
    span = max(xmax - xmin, ymax - ymin, 1.0)
    pad = 0.35 * span
    rect = Rectangle(xmin - pad, xmax + pad, ymin - pad, ymax + pad)
    return spec.support_set(rect, resolution, resolution)


def reference_equilibrium(spec: MeasureSpec,
                          n_atoms: int = 2048) -> EquilibriumResult:
    """Equilibrium measure of the support of ``spec.non_polar()``.

    Polar pieces (atoms) carry no equilibrium mass, so they are dropped.
    A kind that knows its closed form gives ``n_atoms`` atoms and the exact
    capacity; every other support goes through the grid solver on its
    512-pixel rasterization.
    """
    support = spec.non_polar()
    if support is None:
        raise ValueError("a polar support has no equilibrium measure")
    closed = support.closed_form_equilibrium(n_atoms)
    if closed is None:
        return equilibrium_measure(support_gridset(support))
    points, weights, capacity = closed
    measure = EmpiricalMeasure(points, weights, provenance="equilibrium")
    return EquilibriumResult(measure=measure, energy=math.log(capacity),
                             capacity=capacity, converged=True,
                             iterations_run=0)


def equilibrium_to_files(e: EquilibriumResult, base: str | Path,
                         header_comment: str | None = None) -> None:
    """Write <base>.csv (atoms) and <base>.json (summary)."""
    base = Path(base)
    empirical_to_csv(e.measure, base.with_suffix(".csv"), header_comment)
    write_json(base.with_suffix(".json"), {
        "energy": e.energy, "capacity": e.capacity, "converged": e.converged,
        "iterations_run": e.iterations_run, "atom_count": int(e.measure.size)})
