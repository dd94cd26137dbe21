"""Compactly supported planar probability measures and their logarithmic potentials.

A measure is described constructively (circles, interval densities, atom
lists, mixtures, or an external node table), discretized into a quadrature
rule for inner products, and analysed through the potential / energy /
capacity trio.  All measures are probability measures: weights are strictly
positive and sum to one.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np
from scipy.special import roots_jacobi

from ._io import read_json, write_csv, write_json

NEG_INF = float("-inf")
"""Reserved sentinel for potentials and energies of measures with atoms
sitting on the evaluation point (never a NaN)."""

WEIGHT_TOL = 1e-12
BBOX_TOL = 1e-9
MAX_MIXTURE_DEPTH = 4

# Pairwise kernels walk 64 rows at a time against every column, in float64
# buffers of 2 * 64 * columns entries reused across tiles (10 MB at 10^4
# columns); complex difference blocks would be twice the size and hypot
# several times slower than squaring.
_TILE = 64


class MeasureSpecError(ValueError):
    """Invalid constructive measure description."""


class PrecisionExhaustedError(RuntimeError):
    """A computation hit the floating-point floor before reaching its target.

    ``largest_safe_degree`` is the largest degree that was still numerically
    trustworthy when the failure was detected.
    """

    def __init__(self, message: str, largest_safe_degree: int):
        super().__init__(message)
        self.largest_safe_degree = largest_safe_degree


@dataclass(frozen=True)
class Density:
    """Named interval density: lebesgue, arcsine, or jacobi(alpha, beta)."""

    name: str
    alpha: float | None = None
    beta: float | None = None

    def validate(self) -> None:
        if self.name not in ("lebesgue", "arcsine", "jacobi"):
            raise MeasureSpecError(f"unknown density {self.name!r}")
        if self.name == "jacobi":
            if self.alpha is None or self.beta is None:
                raise MeasureSpecError("jacobi density needs alpha and beta")
            if self.alpha <= -1 or self.beta <= -1:
                raise MeasureSpecError("jacobi exponents must exceed -1")
        elif self.alpha is not None or self.beta is not None:
            raise MeasureSpecError(f"{self.name} density takes no exponents")


@dataclass(frozen=True)
class MeasureSpec:
    """Constructive description of a compactly supported probability measure.

    Build instances through the named constructors (:meth:`circle_uniform`,
    :meth:`interval_density`, :meth:`atomic_mixture`, :meth:`mixture`,
    :meth:`quadrature_table`); the raw constructor performs no validation.
    """

    kind: str
    label: str = ""
    center: complex = 0j
    radius: float = 1.0
    endpoints: tuple[float, float] | None = None
    density: Density | None = None
    atoms: tuple[tuple[complex, float], ...] = ()
    components: tuple[tuple["MeasureSpec", float], ...] = ()
    table_path: str | None = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def circle_uniform(cls, center: complex = 0j, radius: float = 1.0,
                       label: str = "") -> "MeasureSpec":
        spec = cls(kind="circle-uniform", label=label, center=complex(center),
                   radius=float(radius))
        spec.validate()
        return spec

    @classmethod
    def interval_density(cls, a: float, b: float,
                         density: Density | str = "lebesgue",
                         label: str = "") -> "MeasureSpec":
        if isinstance(density, str):
            density = Density(density)
        spec = cls(kind="interval-density", label=label,
                   endpoints=(float(a), float(b)), density=density)
        spec.validate()
        return spec

    @classmethod
    def atomic_mixture(cls, atoms, label: str = "") -> "MeasureSpec":
        spec = cls(kind="atomic-mixture", label=label,
                   atoms=tuple((complex(z), float(w)) for z, w in atoms))
        spec.validate()
        return spec

    @classmethod
    def mixture(cls, components, label: str = "") -> "MeasureSpec":
        spec = cls(kind="mixture", label=label,
                   components=tuple((s, float(w)) for s, w in components))
        spec.validate()
        return spec

    @classmethod
    def quadrature_table(cls, path: str | Path, label: str = "") -> "MeasureSpec":
        spec = cls(kind="quadrature-table", label=label, table_path=str(path))
        spec.validate()
        return spec

    # -- validation --------------------------------------------------------

    def validate(self) -> None:
        if self.kind == "circle-uniform":
            if not (self.radius > 0 and math.isfinite(self.radius)):
                raise MeasureSpecError("circle radius must be positive and finite")
            if not (math.isfinite(self.center.real) and math.isfinite(self.center.imag)):
                raise MeasureSpecError("circle center must be finite")
        elif self.kind == "interval-density":
            if self.endpoints is None or self.density is None:
                raise MeasureSpecError("interval-density needs endpoints and density")
            a, b = self.endpoints
            if not (math.isfinite(a) and math.isfinite(b) and a < b):
                raise MeasureSpecError("interval endpoints must satisfy a < b")
            self.density.validate()
        elif self.kind == "atomic-mixture":
            if not self.atoms:
                raise MeasureSpecError("atomic-mixture needs at least one atom")
            weights = np.array([w for _, w in self.atoms])
            if np.any(weights <= 0):
                raise MeasureSpecError("atom weights must be strictly positive")
            if abs(weights.sum() - 1.0) > WEIGHT_TOL:
                raise MeasureSpecError("atom weights must sum to 1")
            for z, _ in self.atoms:
                if not (math.isfinite(z.real) and math.isfinite(z.imag)):
                    raise MeasureSpecError("atoms must be finite")
        elif self.kind == "mixture":
            if not self.components:
                raise MeasureSpecError("mixture needs at least one component")
            weights = np.array([w for _, w in self.components])
            if np.any(weights <= 0):
                raise MeasureSpecError("component weights must be strictly positive")
            if abs(weights.sum() - 1.0) > WEIGHT_TOL:
                raise MeasureSpecError("component weights must sum to 1")
            if self.mixture_depth() > MAX_MIXTURE_DEPTH:
                raise MeasureSpecError(
                    f"mixture nesting depth exceeds {MAX_MIXTURE_DEPTH}")
            for sub, _ in self.components:
                sub.validate()
        elif self.kind == "quadrature-table":
            if not self.table_path:
                raise MeasureSpecError("quadrature-table needs a file path")
        else:
            raise MeasureSpecError(f"unknown measure kind {self.kind!r}")

    def mixture_depth(self) -> int:
        if self.kind != "mixture":
            return 1
        return 1 + max(sub.mixture_depth() for sub, _ in self.components)

    # -- geometry ----------------------------------------------------------

    def bounding_box(self) -> tuple[float, float, float, float]:
        """(xmin, xmax, ymin, ymax) box containing the support."""
        if self.kind == "circle-uniform":
            c, r = self.center, self.radius
            return (c.real - r, c.real + r, c.imag - r, c.imag + r)
        if self.kind == "interval-density":
            a, b = self.endpoints
            return (a, b, 0.0, 0.0)
        if self.kind == "atomic-mixture":
            xs = [z.real for z, _ in self.atoms]
            ys = [z.imag for z, _ in self.atoms]
            return (min(xs), max(xs), min(ys), max(ys))
        if self.kind == "mixture":
            boxes = [sub.bounding_box() for sub, _ in self.components]
            return (min(b[0] for b in boxes), max(b[1] for b in boxes),
                    min(b[2] for b in boxes), max(b[3] for b in boxes))
        if self.kind == "quadrature-table":
            q = _read_table(self.table_path)
            pts = q[0]
            return (pts.real.min(), pts.real.max(), pts.imag.min(), pts.imag.max())
        raise MeasureSpecError(f"unknown measure kind {self.kind!r}")

    def support_radius(self) -> float:
        """max |z| over the support bounding box corners."""
        xmin, xmax, ymin, ymax = self.bounding_box()
        return max(math.hypot(x, y) for x in (xmin, xmax) for y in (ymin, ymax))

    # -- JSON --------------------------------------------------------------

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.label:
            out["label"] = self.label
        if self.kind == "circle-uniform":
            out["center"] = [self.center.real, self.center.imag]
            out["radius"] = self.radius
        elif self.kind == "interval-density":
            out["endpoints"] = list(self.endpoints)
            d = {"name": self.density.name}
            if self.density.name == "jacobi":
                d["alpha"] = self.density.alpha
                d["beta"] = self.density.beta
            out["density"] = d
        elif self.kind == "atomic-mixture":
            out["atoms"] = [{"point": [z.real, z.imag], "weight": w}
                            for z, w in self.atoms]
        elif self.kind == "mixture":
            out["components"] = [{"weight": w, "spec": sub.to_dict()}
                                 for sub, w in self.components]
        elif self.kind == "quadrature-table":
            out["path"] = self.table_path
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "MeasureSpec":
        validate_measure_dict(data)
        return _spec_from_dict(data)

    @classmethod
    def from_json(cls, path: str | Path) -> "MeasureSpec":
        return cls.from_dict(read_json(path))

    def to_json(self, path: str | Path) -> None:
        write_json(path, self.to_dict())


def _spec_from_dict(data: dict) -> MeasureSpec:
    kind = data["kind"]
    label = data.get("label", "")
    if kind == "circle-uniform":
        cx, cy = data["center"]
        return MeasureSpec.circle_uniform(complex(cx, cy), data["radius"], label)
    if kind == "interval-density":
        a, b = data["endpoints"]
        d = data["density"]
        if isinstance(d, str):
            density = Density(d)
        else:
            density = Density(d["name"], d.get("alpha"), d.get("beta"))
        return MeasureSpec.interval_density(a, b, density, label)
    if kind == "atomic-mixture":
        atoms = [(complex(a["point"][0], a["point"][1]), a["weight"])
                 for a in data["atoms"]]
        return MeasureSpec.atomic_mixture(atoms, label)
    if kind == "mixture":
        comps = [(_spec_from_dict(c["spec"]), c["weight"])
                 for c in data["components"]]
        return MeasureSpec.mixture(comps, label)
    if kind == "quadrature-table":
        return MeasureSpec.quadrature_table(data["path"], label)
    raise MeasureSpecError(f"unknown measure kind {kind!r}")


_MEASURE_SCHEMA = None


def measure_schema() -> dict:
    """The published JSON schema for measure descriptions."""
    global _MEASURE_SCHEMA
    if _MEASURE_SCHEMA is None:
        text = resources.files("brolinlab.schemas").joinpath(
            "measure.schema.json").read_text(encoding="utf-8")
        _MEASURE_SCHEMA = json.loads(text)
    return _MEASURE_SCHEMA


def validate_measure_dict(data: dict) -> None:
    """Validate a parsed measure JSON object, naming the offending key."""
    import jsonschema

    try:
        jsonschema.validate(data, measure_schema())
    except jsonschema.ValidationError as err:
        path = "/".join(str(p) for p in err.absolute_path) or "(root)"
        raise MeasureSpecError(f"invalid measure JSON at {path}: {err.message}") from None


# ---------------------------------------------------------------------------
# Quadrature


@dataclass(frozen=True)
class QuadratureMeasure:
    """Discrete stand-in for a measure: nodes, matching positive weights.

    Weights sum to 1 within 1e-12 and node_count >= 2; both are enforced at
    construction.
    """

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=complex)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.ndim != 1 or weights.shape != nodes.shape:
            raise MeasureSpecError("nodes and weights must be matching 1-d arrays")
        if nodes.size < 2:
            raise MeasureSpecError("need at least 2 quadrature nodes")
        if np.any(weights <= 0):
            raise MeasureSpecError("quadrature weights must be strictly positive")
        if abs(weights.sum() - 1.0) > WEIGHT_TOL:
            raise MeasureSpecError(
                f"quadrature weights sum to {weights.sum()!r}, expected 1")

    @property
    def node_count(self) -> int:
        return int(self.nodes.size)


def default_node_count(max_degree: int) -> int:
    """Node budget used when a caller does not pin one."""
    return max(256, 8 * max_degree)


def make_quadrature(spec: MeasureSpec, node_count: int) -> QuadratureMeasure:
    """Build a quadrature rule representing ``spec`` with ``node_count`` nodes.

    Interval densities get the Gauss rule of their three-term recurrence
    (exact for polynomials up to degree 2*node_count - 1); circles get
    equally spaced nodes with equal weights; mixtures concatenate component
    rules (node_count nodes per component) with weights scaled by the
    component weights.  Identical inputs produce bit-identical output.
    """
    spec.validate()
    if node_count < 1:
        raise MeasureSpecError("node_count must be >= 1")
    nodes, weights = _build_nodes(spec, node_count)
    q = QuadratureMeasure(nodes, weights)
    _check_bbox(spec, q)
    return q


def _build_nodes(spec: MeasureSpec, node_count: int):
    if spec.kind == "circle-uniform":
        k = np.arange(node_count)
        nodes = spec.center + spec.radius * np.exp(2j * np.pi * k / node_count)
        weights = np.full(node_count, 1.0 / node_count)
        return nodes, weights
    if spec.kind == "interval-density":
        a, b = spec.endpoints
        t, w = _interval_rule(spec.density, node_count)
        nodes = (a + b) / 2 + (b - a) / 2 * t
        return nodes.astype(complex), w
    if spec.kind == "atomic-mixture":
        nodes = np.array([z for z, _ in spec.atoms], dtype=complex)
        weights = np.array([w for _, w in spec.atoms])
        return nodes, weights
    if spec.kind == "mixture":
        parts = []
        for sub, wt in spec.components:
            n, w = _build_nodes(sub, node_count)
            parts.append((n, w * wt))
        nodes = np.concatenate([p[0] for p in parts])
        weights = np.concatenate([p[1] for p in parts])
        return nodes, weights
    if spec.kind == "quadrature-table":
        return _read_table(spec.table_path)
    raise MeasureSpecError(f"unknown measure kind {spec.kind!r}")


def _interval_rule(density: Density, n: int):
    """Nodes/probability weights on [-1, 1] for a named density."""
    if density.name == "lebesgue":
        t, w = np.polynomial.legendre.leggauss(n)
        return t, w / 2.0  # leggauss weights sum to 2
    if density.name == "arcsine":
        k = np.arange(1, n + 1)
        t = np.cos((2 * k - 1) * np.pi / (2 * n))
        return t[::-1].copy(), np.full(n, 1.0 / n)
    if density.name == "jacobi":
        t, w = roots_jacobi(n, density.alpha, density.beta)
        return t, w / w.sum()
    raise MeasureSpecError(f"unknown density {density.name!r}")


def _check_bbox(spec: MeasureSpec, q: QuadratureMeasure) -> None:
    xmin, xmax, ymin, ymax = spec.bounding_box()
    x, y = q.nodes.real, q.nodes.imag
    if (x.min() < xmin - BBOX_TOL or x.max() > xmax + BBOX_TOL
            or y.min() < ymin - BBOX_TOL or y.max() > ymax + BBOX_TOL):
        raise MeasureSpecError("quadrature nodes escape the support bounding box")


def _read_table(path: str | Path):
    # Comment lines are optional, so the header row must be dropped by name
    # rather than by position.
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh if ln.strip() and not ln.lstrip().startswith("#")]
    if lines and lines[0].lstrip().lower().startswith("re"):
        lines = lines[1:]
    if not lines:
        raise MeasureSpecError("quadrature table has no data rows")
    rows = np.loadtxt(lines, delimiter=",", ndmin=2)
    if rows.shape[1] != 3:
        raise MeasureSpecError("quadrature table must have columns re,im,weight")
    return rows[:, 0] + 1j * rows[:, 1], rows[:, 2].copy()


def quadrature_to_csv(q: QuadratureMeasure, path: str | Path,
                      header_comment: str | None = None) -> None:
    _points_to_csv(q.nodes, q.weights, path, header_comment)


def quadrature_from_csv(path: str | Path) -> QuadratureMeasure:
    nodes, weights = _read_table(path)
    return QuadratureMeasure(nodes, weights)


def _points_to_csv(points, weights, path, header_comment=None):
    rows = zip(points.real.tolist(), points.imag.tolist(), weights.tolist())
    write_csv(path, ("re", "im", "weight"), rows, header_comment)


# ---------------------------------------------------------------------------
# Empirical measures


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Weighted point cloud: sampled, optimized, or exact atoms.

    provenance is one of 'brolin', 'equilibrium', 'zeros', 'custom'; seed
    records the sampling seed (0 for deterministic constructions).
    """

    points: np.ndarray
    weights: np.ndarray
    seed: int = 0
    provenance: str = "custom"

    def __post_init__(self):
        points = np.asarray(self.points, dtype=complex)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", weights)
        if points.ndim != 1 or weights.shape != points.shape:
            raise MeasureSpecError("points and weights must be matching 1-d arrays")
        if points.size == 0:
            raise MeasureSpecError("empirical measure needs at least one point")
        if np.any(weights <= 0):
            raise MeasureSpecError("weights must be strictly positive")
        if abs(weights.sum() - 1.0) > WEIGHT_TOL:
            raise MeasureSpecError("weights must sum to 1")

    @property
    def size(self) -> int:
        return int(self.points.size)


def empirical_to_csv(m: EmpiricalMeasure, path: str | Path,
                     header_comment: str | None = None) -> None:
    _points_to_csv(m.points, m.weights, path, header_comment)


def empirical_from_csv(path: str | Path, seed: int = 0,
                       provenance: str = "custom") -> EmpiricalMeasure:
    points, weights = _read_table(path)
    return EmpiricalMeasure(points, weights, seed=seed, provenance=provenance)


def from_quadrature(q: QuadratureMeasure) -> EmpiricalMeasure:
    """View a quadrature rule as an empirical measure."""
    return EmpiricalMeasure(q.nodes, q.weights, provenance="custom")


# ---------------------------------------------------------------------------
# Potential, energy, capacity


def _squared_distances(z, atoms, out):
    """|z_i - atoms_j|^2 as a (z.size, atoms.size) view into ``out``.

    ``out`` is a flat float64 buffer of at least 2 * z.size * atoms.size
    entries; the part past the returned view is scratch.
    """
    m, n = z.size, atoms.size
    d2 = out[:m * n].reshape(m, n)
    dy = out[m * n:2 * m * n].reshape(m, n)
    np.subtract(z.real[:, None], atoms.real[None, :], out=d2)
    np.subtract(z.imag[:, None], atoms.imag[None, :], out=dy)
    np.multiply(d2, d2, out=d2)
    np.multiply(dy, dy, out=dy)
    d2 += dy
    return d2


def _log_distances(z, atoms, out):
    """log|z_i - atoms_j| as a (z.size, atoms.size) view into ``out``.

    Computed as log(dx^2 + dy^2) / 2 in the buffer of
    :func:`_squared_distances`.  A zero squared distance gives NEG_INF, and
    so do pairs closer than about 1e-162, whose square underflows: they
    count as coincident.  Pairs farther apart than about 1e154 overflow to
    +inf.
    """
    d2 = _squared_distances(z, atoms, out)
    with np.errstate(divide="ignore"):
        np.log(d2, out=d2)
    d2 *= 0.5
    return d2


def _tiles(kernel, z, atoms):
    """Yield (start, kernel(z[start:start + _TILE], atoms, buffer)) over z.

    One buffer serves every tile, so each view is overwritten by the next.
    """
    buf = np.empty(2 * min(_TILE, z.size) * atoms.size)
    for start in range(0, z.size, _TILE):
        yield start, kernel(z[start:start + _TILE], atoms, buf)


def potential(m: EmpiricalMeasure, z) -> float | np.ndarray:
    """Logarithmic potential sum_i w_i log|z - z_i| at point(s) ``z``.

    Returns NEG_INF where ``z`` coincides with an atom (to within the
    underflow of :func:`_log_distances`).  Far from the support,
    potential(z) - log|z| tends to 0.
    """
    z_arr = np.atleast_1d(np.asarray(z, dtype=complex))
    out = np.empty(z_arr.shape, dtype=float)
    for start, logs in _tiles(_log_distances, z_arr, m.points):
        out[start:start + _TILE] = logs @ m.weights
    if np.isscalar(z) or np.asarray(z).ndim == 0:
        return float(out[0])
    return out


def energy(m: EmpiricalMeasure) -> float:
    """Discrete logarithmic energy of ``m``.

    Diagonal-excluded pairwise sum renormalized by (1 - sum w_i^2), which is
    unbiased against the product measure off the diagonal.  Coincident atoms
    (to within the underflow of :func:`_log_distances`) give NEG_INF.
    """
    pts, w = m.points, m.weights
    n = pts.size
    if n < 2:
        raise MeasureSpecError("energy needs at least two atoms")
    denom = 1.0 - float(w @ w)
    if denom <= 0:
        raise MeasureSpecError("energy undefined for a single-atom mass")
    # each pair once: the rows a..b of a tile against the columns a..n, with
    # the diagonal and the part below it masked in the leading square
    buf = np.empty(2 * min(_TILE, n) * n)
    total = 0.0
    for a in range(0, n, _TILE):
        rows = min(_TILE, n - a)
        logs = _log_distances(pts[a:a + rows], pts[a:], buf)
        logs[np.tril_indices(rows)] = 0.0
        total += float(w[a:a + rows] @ (logs @ w[a:]))
    return 2.0 * total / denom


def capacity_from_energy(e: float) -> float:
    """exp(energy); maps NEG_INF to capacity 0."""
    return math.exp(e) if e != NEG_INF else 0.0
