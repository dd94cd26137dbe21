"""Orthonormal polynomial bases of discretized planar measures.

The basis is built by orthogonalizing node-space Vandermonde columns in the
Arnoldi fashion (each new column is z times the previous orthonormal column,
then projected), with one reorthogonalization pass.  Monomial coefficients
are carried through the same recurrence, so each basis element is available
both as node values and as an exact-degree coefficient vector with a real,
strictly positive leading coefficient.

Working precision escalates from float64 to one 113-bit mpmath pass when
the orthonormality residual misses the tolerance.  It stops there: in a scan
of 13 measures at degree 24 and five of them at degree 40 (tolerance 1e-10,
default node counts; interval, circle, mixture and atomic measures), 256 and
1024 bits never reached a higher degree than 113 bits, which beat float64 by
1-2 degrees on 7 of the 13.  What limits the degree beyond that is the
conditioning of the monomial coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import mpmath
import numpy as np

from ._io import read_json, write_json
from .measures import (MeasureSpecError, PrecisionExhaustedError,
                       QuadratureMeasure)

PRECISION_BITS = (53, 113)
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
    the working precision (decimal digits) that met the tolerance.
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
    construction quadrature is at most ``tol``.  If even the top precision
    fails, the basis is truncated to the largest degree that met the
    tolerance and flagged precision_exhausted (no degree at all raises
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
    for bits in PRECISION_BITS:
        if bits == 53:
            coeffs = _arnoldi_float(q.nodes, q.weights, max_degree)
        else:
            coeffs = _arnoldi_mp(q.nodes, q.weights, max_degree, bits)
        # the residual grades the deliverable: double-precision coefficient
        # vectors re-evaluated at the nodes, not the internal basis columns
        gram = _coeff_gram(coeffs, q.nodes, q.weights)
        residual = _ortho_residual(gram)
        best = (coeffs, gram, residual, bits)
        if residual <= tol:
            return OrthoBasis(max_degree=max_degree, coeffs=coeffs,
                              gammas=np.array([c[-1].real for c in coeffs]),
                              residual=residual, precision_used=_digits(bits))
    coeffs, gram, residual, bits = best
    safe = _largest_ok_prefix(gram, tol)
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


def _arnoldi_mp(nodes, weights, max_degree, bits):
    """mpmath backend at ``bits`` of precision; same contract as the float path."""
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
