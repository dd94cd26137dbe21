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
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import ClassVar

import numpy as np
from scipy.special import roots_jacobi

from ._io import read_json, write_csv, write_json
from .grids import (GridSet, Rectangle, rasterize_circle, rasterize_points,
                    rasterize_segment)

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
            # written so that NaN fails: every comparison with NaN is False
            if not all(-1 < e < math.inf for e in (self.alpha, self.beta)):
                raise MeasureSpecError(
                    "jacobi exponents must be finite and exceed -1")
        elif self.alpha is not None or self.beta is not None:
            raise MeasureSpecError(f"{self.name} density takes no exponents")


def _check_weights(weights, what: str) -> None:
    """Require strictly positive weights summing to 1; NaN fails both tests."""
    w = np.asarray(weights, dtype=float)
    if not np.all(w > 0):
        raise MeasureSpecError(f"{what} must be strictly positive")
    if not abs(w.sum() - 1.0) <= WEIGHT_TOL:
        raise MeasureSpecError(f"{what} must sum to 1")


@dataclass(frozen=True)
class MeasureSpec:
    """Constructive description of a compactly supported probability measure.

    Each measure kind is a frozen subclass that validates itself on
    construction and owns its JSON fields, quadrature nodes, support mask
    and hull; ``_KINDS`` maps the JSON ``kind`` to it.  Build instances
    through the named constructors (:meth:`circle_uniform`,
    :meth:`interval_density`, :meth:`atomic_mixture`, :meth:`mixture`,
    :meth:`quadrature_table`).  The defaults below derive the geometry from
    :meth:`hull_points`, points whose convex hull is that of the support.
    """

    kind: ClassVar[str]
    label: str = field(default="", kw_only=True)

    def __post_init__(self):
        self.validate()

    # -- constructors ------------------------------------------------------

    @staticmethod
    def circle_uniform(center: complex = 0j, radius: float = 1.0,
                       label: str = "") -> "CircleUniform":
        return CircleUniform(complex(center), float(radius), label=label)

    @staticmethod
    def interval_density(a: float, b: float, density: Density | str = "lebesgue",
                         label: str = "") -> "IntervalDensity":
        if isinstance(density, str):
            density = Density(density)
        return IntervalDensity((float(a), float(b)), density, label=label)

    @staticmethod
    def atomic_mixture(atoms, label: str = "") -> "AtomicMixture":
        return AtomicMixture(tuple((complex(z), float(w)) for z, w in atoms),
                             label=label)

    @staticmethod
    def mixture(components, label: str = "") -> "Mixture":
        return Mixture(tuple((s, float(w)) for s, w in components), label=label)

    @staticmethod
    def quadrature_table(path: str | Path, label: str = "") -> "QuadratureTable":
        return QuadratureTable(str(path), label=label)

    # -- defaults ----------------------------------------------------------

    def mixture_depth(self) -> int:
        return 1

    def non_polar(self) -> "MeasureSpec | None":
        """A measure whose support is the non-polar part of this one's.

        Polar pieces (finite sets) are dropped and the rest renormalized; a
        mixture's real intervals that overlap or touch become one interval.
        None when the whole support is polar.
        """
        return self

    def closed_form_equilibrium(self, n_atoms: int):
        """(points, weights, capacity) of the equilibrium measure of the
        support in closed form, or None where only the grid solver knows it."""
        return None

    def interior_ring(self) -> tuple[complex, float] | None:
        """(center, radius) of a circle inside the filled support, where the
        equilibrium potential is flat; None where there is none to offer."""
        return None

    def bounding_box(self) -> tuple[float, float, float, float]:
        """(xmin, xmax, ymin, ymax) box containing the support."""
        z = self.hull_points()
        return tuple(float(v) for v in (z.real.min(), z.real.max(),
                                        z.imag.min(), z.imag.max()))

    def support_radius(self) -> float:
        """max |z| over the support bounding box corners."""
        xmin, xmax, ymin, ymax = self.bounding_box()
        return max(math.hypot(x, y) for x in (xmin, xmax) for y in (ymin, ymax))

    def hull_distance(self, z) -> np.ndarray:
        """Distance from each point to the convex hull of the support (0 inside)."""
        return _polygon_hull_distance(self.hull_points(),
                                      np.asarray(z, dtype=complex))

    def support_set(self, rect: Rectangle, nx: int, ny: int) -> GridSet:
        """Pixel mask of the support on an nx-by-ny grid over ``rect``."""
        return rasterize_points(self.hull_points(), rect, nx, ny)

    # -- JSON --------------------------------------------------------------

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.label:
            out["label"] = self.label
        out.update(self.json_fields())
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


@dataclass(frozen=True)
class CircleUniform(MeasureSpec):
    kind: ClassVar[str] = "circle-uniform"
    center: complex
    radius: float

    def validate(self) -> None:
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise MeasureSpecError("circle radius must be positive and finite")
        if not (math.isfinite(self.center.real) and math.isfinite(self.center.imag)):
            raise MeasureSpecError("circle center must be finite")

    def json_fields(self) -> dict:
        return {"center": [self.center.real, self.center.imag],
                "radius": self.radius}

    @classmethod
    def parse(cls, data: dict, label: str) -> "CircleUniform":
        return cls.circle_uniform(complex(*data["center"]), data["radius"], label)

    def bounding_box(self) -> tuple[float, float, float, float]:
        c, r = self.center, self.radius
        return (c.real - r, c.real + r, c.imag - r, c.imag + r)

    def nodes(self, node_count: int):
        k = np.arange(node_count)
        nodes = self.center + self.radius * np.exp(2j * np.pi * k / node_count)
        return nodes, np.full(node_count, 1.0 / node_count)

    def closed_form_equilibrium(self, n_atoms: int):
        return (*self.nodes(n_atoms), self.radius)

    def interior_ring(self) -> tuple[complex, float]:
        return self.center, 0.5 * self.radius

    def hull_points(self) -> np.ndarray:
        return self.nodes(256)[0]

    def hull_distance(self, z) -> np.ndarray:
        return np.maximum(np.abs(z - self.center) - self.radius, 0.0)

    def support_set(self, rect: Rectangle, nx: int, ny: int) -> GridSet:
        return rasterize_circle(self.center, self.radius, rect, nx, ny)


@dataclass(frozen=True)
class IntervalDensity(MeasureSpec):
    kind: ClassVar[str] = "interval-density"
    endpoints: tuple[float, float]
    density: Density

    def validate(self) -> None:
        a, b = self.endpoints
        if not (math.isfinite(a) and math.isfinite(b) and a < b):
            raise MeasureSpecError("interval endpoints must satisfy a < b")
        self.density.validate()

    def json_fields(self) -> dict:
        d = {"name": self.density.name}
        if self.density.name == "jacobi":
            d["alpha"] = self.density.alpha
            d["beta"] = self.density.beta
        return {"endpoints": list(self.endpoints), "density": d}

    @classmethod
    def parse(cls, data: dict, label: str) -> "IntervalDensity":
        d = data["density"]
        density = (Density(d) if isinstance(d, str)
                   else Density(d["name"], d.get("alpha"), d.get("beta")))
        return cls.interval_density(*data["endpoints"], density, label)

    def nodes(self, node_count: int):
        a, b = self.endpoints
        t, w = _interval_rule(self.density, node_count)
        return ((a + b) / 2 + (b - a) / 2 * t).astype(complex), w

    def closed_form_equilibrium(self, n_atoms: int):
        # every density has the whole interval as support, and the
        # equilibrium measure of [a, b] is the arcsine law (Ransford 1995)
        a, b = self.endpoints
        arcsine = IntervalDensity(self.endpoints, Density("arcsine"))
        return (*arcsine.nodes(n_atoms), (b - a) / 4.0)

    def hull_points(self) -> np.ndarray:
        return np.array(self.endpoints, dtype=complex)

    def hull_distance(self, z) -> np.ndarray:
        a, b = self.endpoints
        return np.abs(z - np.clip(z.real, a, b))

    def support_set(self, rect: Rectangle, nx: int, ny: int) -> GridSet:
        a, b = self.endpoints
        return rasterize_segment(complex(a, 0), complex(b, 0), rect, nx, ny)


@dataclass(frozen=True)
class AtomicMixture(MeasureSpec):
    kind: ClassVar[str] = "atomic-mixture"
    atoms: tuple[tuple[complex, float], ...]

    def validate(self) -> None:
        if not self.atoms:
            raise MeasureSpecError("atomic-mixture needs at least one atom")
        _check_weights([w for _, w in self.atoms], "atom weights")
        if not np.all(np.isfinite(self.hull_points())):
            raise MeasureSpecError("atoms must be finite")

    def json_fields(self) -> dict:
        return {"atoms": [{"point": [z.real, z.imag], "weight": w}
                          for z, w in self.atoms]}

    @classmethod
    def parse(cls, data: dict, label: str) -> "AtomicMixture":
        return cls.atomic_mixture([(complex(*a["point"]), a["weight"])
                                   for a in data["atoms"]], label)

    def non_polar(self) -> None:
        return None

    def nodes(self, node_count: int):
        return self.hull_points(), np.array([w for _, w in self.atoms])

    def hull_points(self) -> np.ndarray:
        return np.array([z for z, _ in self.atoms], dtype=complex)


@dataclass(frozen=True)
class Mixture(MeasureSpec):
    kind: ClassVar[str] = "mixture"
    components: tuple[tuple[MeasureSpec, float], ...]

    def validate(self) -> None:
        if not self.components:
            raise MeasureSpecError("mixture needs at least one component")
        _check_weights([w for _, w in self.components], "component weights")
        if self.mixture_depth() > MAX_MIXTURE_DEPTH:
            raise MeasureSpecError(
                f"mixture nesting depth exceeds {MAX_MIXTURE_DEPTH}")

    def json_fields(self) -> dict:
        return {"components": [{"weight": w, "spec": sub.to_dict()}
                               for sub, w in self.components]}

    @classmethod
    def parse(cls, data: dict, label: str) -> "Mixture":
        return cls.mixture([(_spec_from_dict(c["spec"]), c["weight"])
                            for c in data["components"]], label)

    def mixture_depth(self) -> int:
        return 1 + max(sub.mixture_depth() for sub, _ in self.components)

    def non_polar(self) -> MeasureSpec | None:
        parts = []
        for sub, w in self.components:
            piece = sub.non_polar()
            if isinstance(piece, Mixture):  # spliced in, for the merge
                parts += [(s, w * v) for s, v in piece.components]
            elif piece is not None:
                parts.append((piece, w))
        parts = _merge_real_intervals(parts)
        if len(parts) <= 1:
            return parts[0][0] if parts else None
        total = sum(w for _, w in parts)
        return Mixture(tuple((sub, w / total) for sub, w in parts),
                       label=self.label)

    def bounding_box(self) -> tuple[float, float, float, float]:
        boxes = [sub.bounding_box() for sub, _ in self.components]
        return (min(b[0] for b in boxes), max(b[1] for b in boxes),
                min(b[2] for b in boxes), max(b[3] for b in boxes))

    def nodes(self, node_count: int):
        parts = [sub.nodes(node_count) for sub, _ in self.components]
        return (np.concatenate([n for n, _ in parts]),
                np.concatenate([w * wt for (_, w), (_, wt)
                                in zip(parts, self.components)]))

    def hull_points(self) -> np.ndarray:
        return np.concatenate([sub.hull_points() for sub, _ in self.components])

    def support_set(self, rect: Rectangle, nx: int, ny: int) -> GridSet:
        mask = np.zeros((ny, nx), dtype=bool)
        for sub, _ in self.components:
            mask |= sub.support_set(rect, nx, ny).mask
        return GridSet(rect, mask)


@dataclass(frozen=True)
class QuadratureTable(MeasureSpec):
    kind: ClassVar[str] = "quadrature-table"
    table_path: str

    def validate(self) -> None:
        if not self.table_path:
            raise MeasureSpecError("quadrature-table needs a file path")

    def json_fields(self) -> dict:
        return {"path": self.table_path}

    @classmethod
    def parse(cls, data: dict, label: str) -> "QuadratureTable":
        return cls.quadrature_table(data["path"], label)

    def nodes(self, node_count: int):
        return _read_table(self.table_path)

    def hull_points(self) -> np.ndarray:
        return self.nodes(1)[0]


def _merge_real_intervals(parts):
    """Fold the intervals among the (spec, weight) ``parts`` that overlap or
    touch into one interval each, carrying their summed weight."""
    spans = sorted((sub.endpoints, w) for sub, w in parts
                   if isinstance(sub, IntervalDensity))
    runs = []
    for (a, b), w in spans:
        if runs and a <= runs[-1][1]:
            runs[-1][1] = max(runs[-1][1], b)
            runs[-1][2] += w
        else:
            runs.append([a, b, w])
    if len(runs) == len(spans):
        return parts
    return ([(sub, w) for sub, w in parts if not isinstance(sub, IntervalDensity)]
            + [(MeasureSpec.interval_density(a, b), w) for a, b, w in runs])


_KINDS = {cls.kind: cls for cls in (CircleUniform, IntervalDensity,
                                    AtomicMixture, Mixture, QuadratureTable)}


def _spec_from_dict(data: dict) -> MeasureSpec:
    return _KINDS[data["kind"]].parse(data, data.get("label", ""))


def _polygon_hull_distance(hull_points: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Distance from each of ``z`` to the convex hull of ``hull_points``."""
    from scipy.spatial import ConvexHull, QhullError

    try:
        verts = hull_points[ConvexHull(
            np.column_stack([hull_points.real, hull_points.imag])).vertices]
    except QhullError:  # fewer than 3 points, or all collinear
        center = hull_points.mean()
        direction = hull_points[np.argmax(np.abs(hull_points - center))] - center
        if direction == 0:
            return np.abs(z - center)
        direction /= abs(direction)
        proj = ((hull_points - center) * np.conj(direction)).real
        t = np.clip(((z - center) * np.conj(direction)).real, proj.min(), proj.max())
        return np.abs(z - (center + t * direction))
    m = verts.size
    out = np.zeros(z.shape, dtype=float)
    inside = np.ones(z.shape, dtype=bool)
    seg_dist = np.full(z.shape, np.inf)
    for i in range(m):
        a, b = verts[i], verts[(i + 1) % m]
        edge = b - a
        # vertices are counterclockwise; negative cross product means outside
        cross = ((z - a) * np.conj(edge)).imag
        inside &= cross >= 0
        t = np.clip(((z - a) * np.conj(edge)).real / abs(edge) ** 2, 0.0, 1.0)
        seg_dist = np.minimum(seg_dist, np.abs(z - (a + t * edge)))
    out[~inside] = seg_dist[~inside]
    return out


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
        if not np.all(np.isfinite(nodes)):
            raise MeasureSpecError("quadrature nodes must be finite")
        _check_weights(weights, "quadrature weights")

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
    if node_count < 1:
        raise MeasureSpecError("node_count must be >= 1")
    q = QuadratureMeasure(*spec.nodes(node_count))
    _check_bbox(spec, q)
    return q


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
    if not np.all(np.isfinite(rows)):
        raise MeasureSpecError("quadrature table entries must be finite")
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
        if not np.all(np.isfinite(points)):
            raise MeasureSpecError("points must be finite")
        _check_weights(weights, "weights")

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
    lower = np.tri(min(_TILE, n), dtype=bool)
    total = 0.0
    for a in range(0, n, _TILE):
        rows = min(_TILE, n - a)
        logs = _log_distances(pts[a:a + rows], pts[a:], buf)
        np.copyto(logs[:, :rows], 0.0, where=lower[:rows, :rows])
        total += float(w[a:a + rows] @ (logs @ w[a:]))
    return 2.0 * total / denom


def capacity_from_energy(e: float) -> float:
    """exp(energy); maps NEG_INF to capacity 0."""
    return math.exp(e) if e != NEG_INF else 0.0
