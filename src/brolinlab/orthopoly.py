"""Orthonormal polynomial bases of discretized planar measures.

The basis is built by orthogonalizing node-space Vandermonde columns in the
Arnoldi fashion (each new column is z times the previous orthonormal column,
then projected), with one reorthogonalization pass.  Monomial coefficients
are carried through the same recurrence, so each basis element is available
both as node values and as an exact-degree coefficient vector with a real,
strictly positive leading coefficient.

Working precision escalates from float64 to one double-double pass (about
106 bits from pairs of float64, over all nodes at once) when the
orthonormality residual misses the tolerance.  If both miss, the basis is cut
to the longer prefix that meets it.  In a scan of 12 measures at degrees 24
and 40 (tolerance 1e-10, default node counts; flat, arcsine and Jacobi
intervals, circles, two disks, circle plus interval) the double-double pass
reached the same degree as the test suite's 113-bit arbitrary-precision
reference in all 24 cases, beat float64 by 1-3 degrees in 16 and fell one
short of it once (arcsine [-2, 2] at degree 40, 19 against 20).  Earlier
scans found that 256 and 1024 bits reach no higher degree than 113: what
limits the degree beyond that is the conditioning of the monomial
coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._io import read_json, write_json
from .measures import (MeasureSpecError, PrecisionExhaustedError,
                       QuadratureMeasure)

DEFAULT_TOL = 1e-10
DEFAULT_MAX_DEGREE = 64


class DegenerateQuadratureError(ValueError):
    """Too few distinct nodes to support the requested degree."""


@dataclass
class OrthoBasis:
    """Orthonormal polynomials P_0 .. P_N of a quadrature measure.

    coeffs[n] holds the monomial coefficients of P_n in ascending order
    (length exactly n + 1); gammas[n] = coeffs[n][n].real is the leading
    coefficient, real and strictly positive.  residual is the orthonormality
    defect max |<P_j, P_k> - delta_jk| of these double-precision coefficient
    vectors re-evaluated on the construction quadrature; precision_used is
    the working precision (decimal digits) of the kept pass.
    """

    max_degree: int
    coeffs: list[np.ndarray]
    gammas: np.ndarray
    residual: float
    precision_used: int
    precision_exhausted: bool = False

    def __post_init__(self):
        if len(self.coeffs) != self.max_degree + 1:
            raise MeasureSpecError("coefficient list length must be max_degree + 1")
        for n, c in enumerate(self.coeffs):
            if len(c) != n + 1:
                raise MeasureSpecError(f"P_{n} must have exactly {n + 1} coefficients")
        g = np.asarray(self.gammas, dtype=float)
        if np.any(g <= 0) or np.any(~np.isfinite(g)):
            raise MeasureSpecError("leading coefficients must be finite and positive")


def _digits(bits: int) -> int:
    return int(round(bits * math.log10(2)))


def orthonormal_basis(q: QuadratureMeasure, max_degree: int,
                      tol: float = DEFAULT_TOL) -> OrthoBasis:
    """Construct the orthonormal basis of ``q`` up to ``max_degree``.

    Escalates working precision until the orthonormality residual on the
    construction quadrature is at most ``tol``.  If every precision fails,
    the basis is truncated to the longest prefix that met the tolerance at
    any precision (the higher one on a tie, which ``precision_used``
    reports) and flagged precision_exhausted (no degree at all raises
    :class:`~brolinlab.measures.PrecisionExhaustedError`).
    """
    if max_degree < 0:
        raise MeasureSpecError("max_degree must be >= 0")
    if np.unique(q.nodes).size < max_degree + 1:
        raise DegenerateQuadratureError(
            f"need {max_degree + 1} distinct nodes, found {np.unique(q.nodes).size}")
    if q.node_count < max_degree + 1:
        raise DegenerateQuadratureError("fewer nodes than basis elements")

    best = None
    for bits, arnoldi in ((53, _arnoldi_float), (106, _arnoldi_dd)):
        coeffs = arnoldi(q.nodes, q.weights, max_degree)
        # the residual grades the deliverable: double-precision coefficient
        # vectors re-evaluated at the nodes, not the internal basis columns
        gram = _coeff_gram(coeffs, q.nodes, q.weights)
        residual = _ortho_residual(gram)
        if residual <= tol:
            return OrthoBasis(max_degree=max_degree, coeffs=coeffs,
                              gammas=np.array([c[-1].real for c in coeffs]),
                              residual=residual, precision_used=_digits(bits))
        safe = _largest_ok_prefix(gram, tol)
        if best is None or safe >= best[0]:  # a tie keeps the higher rung
            best = (safe, coeffs, gram, residual, bits)
    safe, coeffs, gram, residual, bits = best
    if safe < 0:
        raise PrecisionExhaustedError(
            f"orthonormality residual {residual:.3e} exceeds {tol:.3e} "
            f"at all precisions", largest_safe_degree=-1)
    sub = gram[:safe + 1, :safe + 1]
    return OrthoBasis(max_degree=safe, coeffs=coeffs[:safe + 1],
                      gammas=np.array([c[-1].real for c in coeffs[:safe + 1]]),
                      residual=_ortho_residual(sub), precision_used=_digits(bits),
                      precision_exhausted=True)


def _coeff_gram(coeffs, nodes, weights) -> np.ndarray:
    vals = np.column_stack([horner(c, nodes) for c in coeffs])
    return np.asarray(vals.conj().T @ (weights[:, None] * vals))


def _ortho_residual(gram: np.ndarray) -> float:
    return float(np.abs(gram - np.eye(gram.shape[0])).max())


def _largest_ok_prefix(gram: np.ndarray, tol: float) -> int:
    for d in range(gram.shape[0] - 1, -1, -1):
        if _ortho_residual(gram[:d + 1, :d + 1]) <= tol:
            return d
    return -1


def _arnoldi_float(nodes, weights, max_degree):
    """float64 backend; returns the per-degree coefficient vectors."""
    m = nodes.size
    n_col = max_degree + 1
    qcols = np.zeros((m, n_col), dtype=complex)
    coeffs: list[np.ndarray] = []
    for n in range(n_col):
        if n == 0:
            v = np.ones(m, dtype=complex)
            c = np.array([1.0 + 0j])
        else:
            v = nodes * qcols[:, n - 1]
            c = np.concatenate(([0.0 + 0j], coeffs[n - 1]))
        for _ in range(2):  # second pass reorthogonalizes
            proj = qcols[:, :n].conj().T @ (weights * v)
            v = v - qcols[:, :n] @ proj
            for k in range(n):
                c[:k + 1] -= proj[k] * coeffs[k]
        norm = math.sqrt(float(np.real(np.sum(weights * np.abs(v) ** 2))))
        if norm == 0.0 or not math.isfinite(norm):
            raise DegenerateQuadratureError(
                f"column {n} collapsed during orthogonalization")
        qcols[:, n] = v / norm
        coeffs.append(c / norm)
    return coeffs


# Double-double arithmetic (Dekker, Numer. Math. 18, 1971; Hida, Li and
# Bailey's QD library, ARITH-15, 2001): a real is the unevaluated sum
# x[0] + x[1] of two float64 arrays, about 106 bits from IEEE double
# operations alone.  A complex array stacks its real and imaginary parts on
# the axis after hi/lo, so every real operation acts on both at once.

_SPLITTER = 2.0 ** 27 + 1.0


def _two_sum(a, b):
    """s, e with s = fl(a + b) and s + e == a + b exactly."""
    s = a + b
    t = s - a
    return s, (a - (s - t)) + (b - t)


def _two_prod(a, b):
    """p, e with p = fl(a * b) and p + e == a * b exactly (Dekker's split)."""
    p = a * b
    t = _SPLITTER * a
    ah = t - (t - a)
    t = _SPLITTER * b
    bh = t - (t - b)
    al, bl = a - ah, b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _renorm(s, e):
    """Fast two-sum, exact when |s| >= |e|."""
    hi = s + e
    return hi, e - (hi - s)


def _dd_add(x, y):
    s, e = _two_sum(x[0], y[0])
    t, f = _two_sum(x[1], y[1])
    s, e = _renorm(s, e + t)
    return _renorm(s, e + f)


def _dd_neg(x):
    return -x[0], -x[1]


def _dd_mul(x, y):
    p, e = _two_prod(x[0], y[0])
    return _renorm(p, e + (x[0] * y[1] + x[1] * y[0]))


def _dd_div(x, y):
    q1 = x[0] / y[0]
    r = _dd_add(x, _dd_mul(y, (-q1, 0.0)))
    q2 = r[0] / y[0]
    r = _dd_add(r, _dd_mul(y, (-q2, 0.0)))
    return _dd_add(_renorm(q1, q2), (r[0] / y[0], 0.0))


def _dd_sqrt(x):
    s = math.sqrt(x[0])
    p, e = _two_prod(s, s)
    return _renorm(s, ((x[0] - p) - e + x[1]) / (2.0 * s))


def _dd_sum(x, axis):
    """Pairwise double-double sum of ``x`` along ``axis`` of its parts."""
    hi, lo = np.moveaxis(x[0], axis, 0), np.moveaxis(x[1], axis, 0)
    while hi.shape[0] > 1:
        if hi.shape[0] % 2:
            hi = np.concatenate([hi, np.zeros_like(hi[:1])])
            lo = np.concatenate([lo, np.zeros_like(lo[:1])])
        half = hi.shape[0] // 2
        hi, lo = _dd_add((hi[:half], lo[:half]), (hi[half:], lo[half:]))
    return hi[0], lo[0]


def _cmul(x, y):
    """Complex double-double product; ``y`` broadcasts against ``x``."""
    a = _dd_mul(x, (y[0][:1], y[1][:1]))  # x * re y
    b = _dd_mul(x, (y[0][1:], y[1][1:]))  # x * im y
    return _dd_add(a, tuple(np.stack([-p[1], p[0]]) for p in b))  # a + i b


def _cconj(x):
    return tuple(np.stack([p[0], -p[1]]) for p in x)


def _arnoldi_dd(nodes, weights, max_degree):
    """Double-double backend over all nodes at once; same contract as the
    float path, with coefficients rounded to complex128 at the end."""
    m = nodes.size
    n_col = max_degree + 1
    z = (np.stack([nodes.real, nodes.imag]), np.zeros((2, m)))
    w = (np.asarray(weights, dtype=float), np.zeros(m))
    # (hi/lo, re/im, column, node) and (hi/lo, re/im, column, power)
    qcols = np.zeros((2, 2, n_col, m))
    coeffs = np.zeros((2, 2, n_col, n_col))
    for n in range(n_col):
        if n == 0:
            v = np.zeros((2, 2, m))
            v[0, 0] = 1.0
            c = np.zeros((2, 2, n_col))
            c[0, 0, 0] = 1.0
        else:
            v = _cmul(z, qcols[:, :, n - 1])
            c = np.zeros((2, 2, n_col))
            c[:, :, 1:] = coeffs[:, :, n - 1, :-1]
        for _ in range(2 if n else 0):  # second pass reorthogonalizes
            q = qcols[:, :, :n]
            wv = tuple(p[:, None] for p in _dd_mul(v, w))
            proj = _dd_sum(_cmul(_cconj(q), wv), axis=2)
            proj = tuple(p[..., None] for p in proj)
            v = _dd_add(v, _dd_neg(_dd_sum(_cmul(q, proj), axis=1)))
            c = _dd_add(c, _dd_neg(_dd_sum(_cmul(coeffs[:, :, :n], proj), axis=1)))
        sq = _dd_mul(w, _dd_mul(v, v))
        norm2 = _dd_sum((sq[0].ravel(), sq[1].ravel()), axis=0)
        if not 0.0 < norm2[0] < math.inf:
            raise DegenerateQuadratureError(
                f"column {n} collapsed during orthogonalization")
        norm = _dd_sqrt(norm2)
        qcols[:, :, n] = _dd_div(v, norm)
        coeffs[:, :, n] = _dd_div(c, norm)
    return [coeffs[0, 0, n, :n + 1] + 1j * coeffs[0, 1, n, :n + 1]
            for n in range(n_col)]


def horner(coeffs, z):
    """Evaluate the polynomial with ascending ``coeffs`` at ``z`` by Horner's rule.

    Returns a Python complex for scalar ``z`` and a complex array of the
    shape of ``z`` otherwise.
    """
    z_arr = np.asarray(z, dtype=complex)
    out = np.full(z_arr.shape, coeffs[-1], dtype=complex)
    for k in range(len(coeffs) - 2, -1, -1):
        out *= z_arr
        out += coeffs[k]
    if z_arr.ndim == 0:
        return complex(out)
    return out


@dataclass(frozen=True)
class MinimalityReport:
    min_ratio: float
    passed: bool
    trials: int
    seed: int


def monic_minimality_check(b: OrthoBasis, q: QuadratureMeasure, n: int,
                           trials: int = 64, seed: int = 0,
                           real_coefficients: bool | None = None) -> MinimalityReport:
    """Randomized check that p_n = P_n / gamma_n has minimal quadrature norm.

    Each trial draws a random lower-degree direction q_j from the seeded
    generator, scales it to unit norm, and compares against the optimally
    scaled perturbation: ratio_j = min_t ||p_n + t q_j|| / ||p_n||.  A true
    orthonormal basis gives ratio 1 in every direction; the report passes iff
    min_ratio >= 1 - 1e-10.

    real_coefficients restricts directions (and the scale t) to real; by
    default it is inferred from the nodes.
    """
    if not 1 <= n <= b.max_degree:
        raise MeasureSpecError(f"degree {n} outside basis range 1..{b.max_degree}")
    if real_coefficients is None:
        real_coefficients = bool(np.all(np.abs(q.nodes.imag) == 0.0))
    rng = np.random.default_rng(seed)
    w = q.weights
    monic = b.coeffs[n] / b.gammas[n]
    pvals = horner(monic, q.nodes)
    pnorm2 = float(np.real(np.sum(w * np.abs(pvals) ** 2)))
    min_ratio = math.inf
    for _ in range(trials):
        if real_coefficients:
            c = rng.standard_normal(n).astype(complex)
        else:
            c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        qvals = horner(c, q.nodes)
        qnorm = math.sqrt(float(np.real(np.sum(w * np.abs(qvals) ** 2))))
        if qnorm == 0.0:
            continue
        qvals = qvals / qnorm
        inner = complex(np.sum(w * pvals * np.conj(qvals)))
        overlap2 = inner.real ** 2 if real_coefficients else abs(inner) ** 2
        ratio = math.sqrt(max(pnorm2 - overlap2, 0.0) / pnorm2)
        min_ratio = min(min_ratio, ratio)
    return MinimalityReport(min_ratio=min_ratio, passed=min_ratio >= 1 - 1e-10,
                            trials=trials, seed=seed)


# ---------------------------------------------------------------------------
# JSON round-trip


def basis_to_json(b: OrthoBasis, path: str | Path) -> None:
    data = {
        "max_degree": b.max_degree,
        "gammas": [float(g) for g in b.gammas],
        "residual": b.residual,
        "precision_used": b.precision_used,
        "precision_exhausted": b.precision_exhausted,
        "coefficients": [[[float(c.real), float(c.imag)] for c in vec]
                         for vec in b.coeffs],
    }
    write_json(path, data)


def basis_from_json(path: str | Path) -> OrthoBasis:
    data = read_json(path)
    coeffs = [np.array([complex(re, im) for re, im in vec])
              for vec in data["coefficients"]]
    return OrthoBasis(max_degree=data["max_degree"], coeffs=coeffs,
                      gammas=np.array(data["gammas"], dtype=float),
                      residual=data["residual"],
                      precision_used=data["precision_used"],
                      precision_exhausted=data.get("precision_exhausted", False))
