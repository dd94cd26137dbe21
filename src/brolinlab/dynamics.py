"""Polynomial dynamics: escape radii, Green functions, preimages, sampling.

A degree-d polynomial P with leading coefficient gamma carries an escape
radius R = max(1, (2 + sum |a_i|) / |gamma|) guaranteeing |P(z)| >= 2|z|
outside the disk of radius R, so orbits either stay in a compact set or run
to infinity at doubling speed.  Everything else follows from iteration: the
Green function from escape times, the filled set from non-escape, and the
balanced sampling measure from backward orbits with uniform branch choice.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from ._seeds import derive_seed
from .grids import GridField, Rectangle
from .measures import EmpiricalMeasure
from .orthopoly import horner

K_MAX_DEFAULT = 200
ROOT_TOL_DEFAULT = 1e-12
BURN_IN_DEFAULT = 50
CHAINS_DEFAULT = 64

_EPS = float(np.finfo(float).eps)


class RootSolveError(RuntimeError):
    """Simultaneous root iteration failed to meet the residual target."""

    def __init__(self, message: str, residuals=None):
        super().__init__(message)
        self.residuals = residuals


def escape_radius(coeffs) -> float:
    """R = max(1, (2 + sum_{i<d} |a_i|) / |gamma|) for ascending coeffs."""
    c = np.asarray(coeffs, dtype=complex)
    if c.size < 3:
        raise ValueError("polynomial degree must be at least 2")
    if c[-1] == 0:
        raise ValueError("leading coefficient must be nonzero")
    return float(max(1.0, (2.0 + float(np.abs(c[:-1]).sum())) / abs(c[-1])))


@dataclass(frozen=True)
class PolyDyn:
    """A polynomial of degree >= 2 with its escape radius.

    coeffs are monomial coefficients in ascending order; radius is the
    doubling radius computed at construction and spot-checked on a sampled
    circle just outside it.
    """

    coeffs: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=complex))

    @classmethod
    def from_coeffs(cls, coeffs) -> "PolyDyn":
        c = np.asarray(coeffs, dtype=complex)
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        r = escape_radius(c)
        p = cls(coeffs=c, radius=r)
        z = r * (1 + 1e-9) * np.exp(2j * np.pi * (np.arange(32) + 0.5) / 32)
        vals = np.abs(horner(c, z))
        if np.any(vals < 2 * np.abs(z) * (1 - 1e-12)):
            raise ValueError("escape radius fails its doubling contract")
        return p

    @property
    def degree(self) -> int:
        return int(self.coeffs.size - 1)

    @property
    def gamma(self) -> complex:
        return complex(self.coeffs[-1])

    def __call__(self, z):
        return horner(self.coeffs, z)


def capacity_julia(p: PolyDyn) -> float:
    """Capacity of the filled set, |gamma|^(-1/(d-1))."""
    return abs(p.gamma) ** (-1.0 / (p.degree - 1))


# ---------------------------------------------------------------------------
# Green function


def _log_switch(degree: int) -> float:
    # keep z^degree representable in float64 during plain iteration
    return min(1e8, 10.0 ** (250.0 / degree))


def green_value(p: PolyDyn, z):
    """Escape-rate Green value at point(s) ``z``; 0 where no orbit escapes.

    Returns a float for scalar ``z`` and a float array of the shape of ``z``
    otherwise.
    """
    z_arr = np.asarray(z, dtype=complex)
    values, _ = _escape(p, z_arr.ravel())
    if z_arr.ndim == 0:
        return float(values[0])
    return values.reshape(z_arr.shape)


def _escape(p: PolyDyn, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Green values and first escape iterates of the 1-d point array ``z``.

    Iterates each orbit until it is far outside the escape radius, then
    continues the recursion on complex logarithms, where the remaining
    correction series can be followed to full precision.  The escape iterate
    is the first exceeding R (0 = never within K_MAX_DEFAULT); the Green
    value is 0 exactly on the points that never escape.
    """
    d, g = p.degree, p.gamma
    tail = math.log(abs(g)) / (d - 1)
    switch = _log_switch(d)
    n = z.size

    zz = z.astype(complex)
    esc = np.zeros(n, dtype=np.int32)
    u_log = np.zeros(n, dtype=complex)   # complex log at freeze
    k_at = np.zeros(n, dtype=np.int32)
    frozen = np.zeros(n, dtype=bool)
    active = np.arange(n)
    for k in range(1, K_MAX_DEFAULT + 1):
        if active.size == 0:
            break
        za = horner(p.coeffs, zz[active])
        zz[active] = za
        mag = np.abs(za)
        first = (esc[active] == 0) & (mag > p.radius)
        esc[active[first]] = k
        big = mag > switch
        if np.any(big):
            bidx = active[big]
            u_log[bidx] = np.log(za[big])
            k_at[bidx] = k
            frozen[bidx] = True
            active = active[~big]

    values = np.zeros(n, dtype=float)
    fr = np.where(frozen)[0]
    if fr.size:
        values[fr] = _log_tail(p, u_log[fr], k_at[fr], tail)
    # escaped R but never crossed the log switch within K_MAX_DEFAULT:
    # estimate from the final iterate, kept strictly positive to preserve
    # the invariant
    slow = np.where((esc > 0) & ~frozen)[0]
    if slow.size:
        est = ((np.log(np.abs(zz[slow])) + tail)
               * math.exp(-K_MAX_DEFAULT * math.log(d)))
        values[slow] = np.maximum(est, 1e-300)
    return values, esc


def _log_tail(p: PolyDyn, u: np.ndarray, k: np.ndarray,
              tail: float) -> np.ndarray:
    # u_{k+1} = d u_k + log gamma + log(1 + w), w = sum_i (a_i/gamma) v^(d-i)
    # with v = exp(-u_k): a polynomial in v, evaluated by Horner's rule
    d, g = p.degree, p.gamma
    log_g = cmath.log(g)
    w_coeffs = np.concatenate(([0], p.coeffs[-2::-1] / g))
    k = k.astype(np.int64).copy()
    u = u.copy()
    for _ in range(K_MAX_DEFAULT):
        w = horner(w_coeffs, np.exp(-u))
        live = (np.abs(w) >= 1e-18) & (k < K_MAX_DEFAULT)
        if not np.any(live):
            break
        u[live] = d * u[live] + log_g + np.log(1 + w[live])
        k[live] += 1
    est = (u.real + tail) * np.exp(-k * math.log(d))
    return np.maximum(est, 1e-300)


def filled_julia_grid(p: PolyDyn, rect: Rectangle,
                      resolution: int = 512) -> GridField:
    """Escape times and Green values over a pixel grid.

    The rectangle must contain the escape disk D(0, R) so that the whole
    filled set is visible.  escaped_at holds the first iterate exceeding R
    (0 = never within K_MAX_DEFAULT); values hold the Green estimates, 0
    exactly on the non-escaping pixels.
    """
    if not rect.contains_disk(0j, p.radius):
        raise ValueError("grid rectangle must contain the escape-radius disk")
    z0 = rect.pixel_centers(resolution, resolution)
    values, esc = _escape(p, z0.ravel())
    return GridField(rect, values.reshape(z0.shape), esc.reshape(z0.shape))


def functional_equation_residual(p: PolyDyn, points) -> float:
    """max |g(P(z)) - d g(z)| over the given points."""
    z = np.atleast_1d(np.asarray(points, dtype=complex))
    gap = green_value(p, p(z)) - p.degree * green_value(p, z)
    return float(np.max(np.abs(gap), initial=0.0))


# ---------------------------------------------------------------------------
# Simultaneous roots (Aberth iteration with Newton polish)


def _aberth_batch(coeffs, targets, max_iter: int = 200):
    """Roots of P(z) = w for each w in ``targets``; returns (B, d) roots.

    Deterministic: fixed initial circle (per-row geometric-mean radius with
    an asymmetric angular offset), Aberth corrections, then three Newton
    polishing steps.  A root freezes once its residual is at the float64
    evaluation floor, |P(z) - w| <= 4 eps (sum |c_i||z|^i + |w|) (Bini's
    stopping rule, Numer. Algorithms 13, 1996): it takes no more steps but
    still repels the others.  The iteration ends when every root is frozen,
    when every step is below 1e-15 (1 + |z|), or after ``max_iter`` steps.
    """
    c = np.asarray(coeffs, dtype=complex)
    d = c.size - 1
    t = np.asarray(targets, dtype=complex).ravel()
    dc = c[1:] * np.arange(1, d + 1)
    mags = np.abs(c)
    lead = abs(c[-1])

    const = np.abs(c[0] - t)
    r = (const / lead) ** (1.0 / d)
    fallback = 1.0 + (np.abs(c[:-1]).max() + np.abs(t)) / lead
    r = np.where(r > 1e-12, r, fallback ** (1.0 / d))
    angles = 2 * np.pi * (np.arange(d) + 0.375) / d + 0.1
    z = r[:, None] * np.exp(1j * angles)[None, :]

    live = np.arange(t.size)  # rows with a root that still moves
    frozen = np.zeros(z.shape, dtype=bool)  # per root of the live rows
    buf = np.empty((t.size, d, d), dtype=complex)
    for _ in range(max_iter):
        zl, tl = z[live], t[live, None]
        pv = horner(c, zl) - tl
        frozen |= np.abs(pv) <= 4 * _EPS * (_magnitude_sum(mags, zl) + np.abs(tl))
        moving = ~frozen.all(axis=1)
        if not moving.any():
            break
        live, zl, pv, frozen = live[moving], zl[moving], pv[moving], frozen[moving]
        dv = horner(dc, zl)
        dv = np.where(dv == 0, _EPS, dv)
        newton = pv / dv
        diff = np.subtract(zl[:, :, None], zl[:, None, :], out=buf[:live.size])
        diff.reshape(-1, d * d)[:, ::d + 1] = 1.0  # the diagonal, 1/1 taken off below
        s = np.divide(1.0, diff, out=diff).sum(axis=2) - 1.0
        denom = 1.0 - newton * s
        denom = np.where(np.abs(denom) < 1e-300, 1.0, denom)
        step = np.where(frozen, 0.0, newton / denom)
        zl -= step
        z[live] = zl
        if np.all(np.abs(step) <= 1e-15 * (1.0 + np.abs(zl))):
            break
    for _ in range(3):
        pv = horner(c, z) - t[:, None]
        dv = horner(dc, z)
        dv = np.where(dv == 0, _EPS, dv)
        z = z - pv / dv
    return z


def _magnitude_sum(mags, z):
    """sum_i |c_i| |z|^i, the scale of Horner's rounding error at ``z``."""
    return horner(mags, np.abs(z)).real


def _residual_bound(coeffs, roots, targets, tol):
    """tol*(1+|w|) plus the float64 evaluation floor 64 eps sum |c_i||z|^i."""
    scale = _magnitude_sum(np.abs(np.asarray(coeffs, dtype=complex)), roots)
    return tol * (1.0 + np.abs(targets)[..., None]) + 64 * _EPS * scale


def poly_roots(coeffs, tol: float = ROOT_TOL_DEFAULT) -> np.ndarray:
    """All d roots of the ascending-coefficient polynomial, multiplicity kept.

    Exact zero low-order coefficients are deflated first, so pure powers
    report the origin with full multiplicity instead of a numerical cluster.
    """
    c = np.asarray(coeffs, dtype=complex)
    if c.size < 2 or c[-1] == 0:
        raise ValueError("need a nonzero leading coefficient and degree >= 1")
    scale = np.abs(c).max()
    m = 0
    while m < c.size - 1 and abs(c[m]) <= 1e-13 * scale:
        m += 1
    roots = [np.zeros(m, dtype=complex)]
    rest = c[m:]
    if rest.size > 1:
        if rest.size == 2:  # linear factor
            roots.append(np.array([-rest[0] / rest[1]]))
        else:
            roots.append(_aberth_batch(rest, np.zeros(1))[0])
    out = np.concatenate(roots)
    res = np.abs(horner(c, out))
    bound = _residual_bound(c, out, np.zeros(1), tol)[0]
    if np.any(res > bound):
        raise RootSolveError(
            f"root residual {res.max():.3e} exceeds bound {bound.max():.3e}",
            residuals=res)
    return out


def preimages(p: PolyDyn, w: complex, tol: float = ROOT_TOL_DEFAULT) -> np.ndarray:
    """The d preimages of ``w`` under P, multiplicity kept.

    Each root satisfies |P(z) - w| <= tol*(1+|w|) plus the float64
    evaluation floor; otherwise :class:`RootSolveError` is raised.
    """
    shifted = p.coeffs.copy()
    shifted[0] -= w
    roots = poly_roots(shifted, tol=tol)
    res = np.abs(horner(p.coeffs, roots) - w)
    bound = _residual_bound(p.coeffs, roots, np.array([w]), tol)[0]
    if np.any(res > bound):
        raise RootSolveError(
            f"preimage residual {res.max():.3e} exceeds bound {bound.max():.3e}",
            residuals=res)
    return roots


# ---------------------------------------------------------------------------
# Backward-orbit sampling


def brolin_sample(p: PolyDyn, n_samples: int, seed: int,
                  burn_in: int = BURN_IN_DEFAULT,
                  chains: int = CHAINS_DEFAULT,
                  tol: float = ROOT_TOL_DEFAULT) -> EmpiricalMeasure:
    """Sample the balanced measure of P by backward iteration.

    ``chains`` independently seeded chains start at z = R on the real axis;
    each step replaces the current point by one of its d preimages chosen
    uniformly by the chain's generator (multiplicity respected).  After
    ``burn_in`` discarded steps, states are recorded round by round, striped
    across chains in fixed order, until n_samples points exist.  Chain c uses
    seed derive_seed(seed, c), so the result is bit-identical for identical
    arguments.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if burn_in < 20:
        raise ValueError("burn_in must be >= 20")
    if chains < 1:
        raise ValueError("chains must be >= 1")
    d = p.degree
    rngs = [np.random.default_rng(derive_seed(seed, c)) for c in range(chains)]
    z = np.full(chains, p.radius + 0j)
    rounds = -(-n_samples // chains)
    samples = np.empty(rounds * chains, dtype=complex)
    rows = np.arange(chains)
    # one array draw per chain gives the same picks as one scalar draw per step
    picks = np.stack([rng.integers(0, d, size=burn_in + rounds) for rng in rngs],
                     axis=1)
    for step in range(burn_in + rounds):
        roots = _aberth_batch(p.coeffs, z)
        res = np.abs(horner(p.coeffs, roots) - z[:, None])
        bound = _residual_bound(p.coeffs, roots, z, tol)
        if np.any(res > bound):
            raise RootSolveError(
                f"backward step residual {res.max():.3e} exceeds bound",
                residuals=res)
        z = roots[rows, picks[step]]
        if step >= burn_in:
            base = (step - burn_in) * chains
            samples[base:base + chains] = z
    pts = samples[:n_samples]
    return EmpiricalMeasure(pts, np.full(n_samples, 1.0 / n_samples),
                            seed=seed, provenance="brolin")
