"""Pixel grids over rectangles: masks for planar sets, fields for scalar data.

Pixel convention: an (ny, nx) array over rectangle [xmin, xmax] x [ymin, ymax]
with centers x_j = xmin + (j + 0.5) hx, y_i = ymin + (i + 0.5) hy, indexed
array[iy, ix]; row 0 is the ymin edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._io import read_json, write_csv_lines, write_json


@dataclass(frozen=True)
class Rectangle:
    xmin: float
    xmax: float
    ymin: float
    ymax: float

    def __post_init__(self):
        if not (self.xmax > self.xmin and self.ymax > self.ymin):
            raise ValueError("rectangle must have positive width and height")
        if not all(math.isfinite(v) for v in
                   (self.xmin, self.xmax, self.ymin, self.ymax)):
            raise ValueError("rectangle corners must be finite")

    def spacing(self, nx: int, ny: int) -> tuple[float, float]:
        return (self.xmax - self.xmin) / nx, (self.ymax - self.ymin) / ny

    def pixel_centers(self, nx: int, ny: int) -> np.ndarray:
        """Complex (ny, nx) array of pixel centers."""
        hx, hy = self.spacing(nx, ny)
        xs = self.xmin + (np.arange(nx) + 0.5) * hx
        ys = self.ymin + (np.arange(ny) + 0.5) * hy
        return xs[None, :] + 1j * ys[:, None]

    def contains_disk(self, center: complex, radius: float, tol: float = 1e-12) -> bool:
        return (self.xmin <= center.real - radius + tol
                and self.xmax >= center.real + radius - tol
                and self.ymin <= center.imag - radius + tol
                and self.ymax >= center.imag + radius - tol)

    def to_list(self) -> list[float]:
        return [self.xmin, self.xmax, self.ymin, self.ymax]


@dataclass
class GridSet:
    """Boolean pixel mask for a compact planar set.

    provenance is 'named-shape', 'julia-grid', or 'custom'; shape carries the
    closed-form parameters for named shapes, e.g. ('circle', center, radius)
    or ('interval', a, b) or ('disk', center, radius).
    """

    rect: Rectangle
    mask: np.ndarray
    provenance: str = "custom"
    shape: tuple | None = None

    def __post_init__(self):
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.mask.ndim != 2:
            raise ValueError("mask must be 2-d")

    @property
    def ny(self) -> int:
        return self.mask.shape[0]

    @property
    def nx(self) -> int:
        return self.mask.shape[1]

    def pixel_centers(self) -> np.ndarray:
        return self.rect.pixel_centers(self.nx, self.ny)

    def masked_points(self) -> np.ndarray:
        """Complex coordinates of the masked pixel centers."""
        return self.pixel_centers()[self.mask]

    def contains(self, points) -> np.ndarray:
        """Pixel-lookup membership for complex point(s); False outside the rect."""
        z = np.atleast_1d(np.asarray(points, dtype=complex))
        hx, hy = self.rect.spacing(self.nx, self.ny)
        ix = np.floor((z.real - self.rect.xmin) / hx).astype(int)
        iy = np.floor((z.imag - self.rect.ymin) / hy).astype(int)
        ok = (ix >= 0) & (ix < self.nx) & (iy >= 0) & (iy < self.ny)
        out = np.zeros(z.shape, dtype=bool)
        out[ok] = self.mask[iy[ok], ix[ok]]
        return out

    def touches_border(self) -> bool:
        m = self.mask
        return bool(m[0, :].any() or m[-1, :].any()
                    or m[:, 0].any() or m[:, -1].any())


@dataclass
class GridField:
    """Scalar field plus escape bookkeeping on a pixel grid.

    values >= 0 everywhere and values == 0 exactly where escaped_at == 0.
    """

    rect: Rectangle
    values: np.ndarray
    escaped_at: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.escaped_at = np.asarray(self.escaped_at, dtype=np.int32)
        if self.values.shape != self.escaped_at.shape or self.values.ndim != 2:
            raise ValueError("values and escaped_at must be matching 2-d arrays")

    @property
    def ny(self) -> int:
        return self.values.shape[0]

    @property
    def nx(self) -> int:
        return self.values.shape[1]

    def pixel_centers(self) -> np.ndarray:
        return self.rect.pixel_centers(self.nx, self.ny)

    @property
    def below_resolution(self) -> bool:
        """True when every pixel escaped (the set is thinner than a pixel)."""
        return not bool(np.any(self.escaped_at == 0))


# ---------------------------------------------------------------------------
# Rasterizers


def _pixel_diag(rect: Rectangle, nx: int, ny: int) -> float:
    hx, hy = rect.spacing(nx, ny)
    return math.hypot(hx, hy)


def rasterize_circle(center: complex, radius: float, rect: Rectangle,
                     nx: int, ny: int) -> GridSet:
    """Thin ring of pixels tracing the circle |z - center| = radius."""
    z = rect.pixel_centers(nx, ny)
    tol = 0.5 * _pixel_diag(rect, nx, ny)
    mask = np.abs(np.abs(z - center) - radius) <= tol
    return GridSet(rect, mask, provenance="named-shape",
                   shape=("circle", complex(center), float(radius)))


def rasterize_disk(center: complex, radius: float, rect: Rectangle,
                   nx: int, ny: int) -> GridSet:
    """Filled disk |z - center| <= radius."""
    z = rect.pixel_centers(nx, ny)
    mask = np.abs(z - center) <= radius
    return GridSet(rect, mask, provenance="named-shape",
                   shape=("disk", complex(center), float(radius)))


def rasterize_segment(a: complex, b: complex, rect: Rectangle,
                      nx: int, ny: int) -> GridSet:
    """Thin band of pixels tracing the segment from a to b."""
    z = rect.pixel_centers(nx, ny)
    ab = b - a
    length2 = abs(ab) ** 2
    t = np.clip(((z - a) * np.conj(ab)).real / length2, 0.0, 1.0)
    dist = np.abs(z - (a + t * ab))
    tol = 0.5 * _pixel_diag(rect, nx, ny)
    mask = dist <= tol
    shape = None
    if a.imag == 0 and b.imag == 0:
        lo, hi = sorted((a.real, b.real))
        shape = ("interval", lo, hi)
    return GridSet(rect, mask, provenance="named-shape", shape=shape)


def rasterize_points(points, rect: Rectangle, nx: int, ny: int) -> GridSet:
    """The pixels holding the given points; points off the grid are dropped."""
    z = np.asarray(points, dtype=complex)
    hx, hy = rect.spacing(nx, ny)
    ix = np.floor((z.real - rect.xmin) / hx).astype(int)
    iy = np.floor((z.imag - rect.ymin) / hy).astype(int)
    ok = (ix >= 0) & (ix < nx) & (iy >= 0) & (iy < ny)
    mask = np.zeros((ny, nx), dtype=bool)
    mask[iy[ok], ix[ok]] = True
    return GridSet(rect, mask)


def rasterize_rectangle_outline(xmin: float, xmax: float, ymin: float,
                                ymax: float, rect: Rectangle,
                                nx: int, ny: int) -> GridSet:
    """Thin band tracing the boundary of an axis-aligned rectangle."""
    corners = [complex(xmin, ymin), complex(xmax, ymin),
               complex(xmax, ymax), complex(xmin, ymax)]
    mask = np.zeros((ny, nx), dtype=bool)
    for i in range(4):
        seg = rasterize_segment(corners[i], corners[(i + 1) % 4], rect, nx, ny)
        mask |= seg.mask
    return GridSet(rect, mask, provenance="custom", shape=None)


# ---------------------------------------------------------------------------
# IO: PBM-style mask + JSON header, field CSV


def gridset_to_files(gs: GridSet, base: str | Path) -> None:
    """Write <base>.pbm (P1, row 0 = ymin) and <base>.json."""
    base = Path(base)
    with open(base.with_suffix(".pbm"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"P1\n{gs.nx} {gs.ny}\n")
        for row in gs.mask:
            fh.write(" ".join("1" if v else "0" for v in row) + "\n")
    header = {
        "rectangle": gs.rect.to_list(),
        "nx": gs.nx,
        "ny": gs.ny,
        "provenance": gs.provenance,
        "row_order": "ymin-first",
        "shape": _shape_to_json(gs.shape),
    }
    write_json(base.with_suffix(".json"), header)


def gridset_from_files(base: str | Path) -> GridSet:
    """Read the mask written by :func:`gridset_to_files`.

    <base>.pbm may be any plain PBM: ``#`` comments run to the end of their
    line, and the raster bits may or may not be separated by whitespace.
    Its width and height must match the ``nx`` and ``ny`` of <base>.json.
    """
    base = Path(base)
    header = read_json(base.with_suffix(".json"))
    pbm = base.with_suffix(".pbm")
    with open(pbm, "r", encoding="utf-8") as fh:
        text = " ".join(line.split("#", 1)[0] for line in fh)
    parts = text.split(maxsplit=3)
    if not parts or parts[0] != "P1":
        raise ValueError(f"{pbm}: expected a plain PBM (P1) mask file")
    try:
        nx, ny = int(parts[1]), int(parts[2])
    except (IndexError, ValueError):
        raise ValueError(f"{pbm}: P1 must be followed by the width and height "
                         "as integers") from None
    if [header.get("nx"), header.get("ny")] != [nx, ny]:
        raise ValueError(f"{pbm} is {nx} x {ny} pixels, but its JSON header "
                         f"says nx={header.get('nx')}, ny={header.get('ny')}")
    bits = "".join(parts[3].split()) if len(parts) == 4 else ""
    if set(bits) - {"0", "1"}:
        raise ValueError(f"{pbm}: the raster may hold only 0, 1 and whitespace")
    if len(bits) != nx * ny:
        raise ValueError(f"{pbm}: the raster holds {len(bits)} bits, "
                         f"not nx * ny = {nx * ny}")
    raw = np.frombuffer(bits.encode("ascii"), np.uint8)
    mask = raw.reshape(ny, nx) == ord("1")
    rect = Rectangle(*header["rectangle"])
    return GridSet(rect, mask, provenance=header.get("provenance", "custom"),
                   shape=_shape_from_json(header.get("shape")))


def _shape_to_json(shape):
    if shape is None:
        return None
    name = shape[0]
    if name in ("circle", "disk"):
        return [name, [shape[1].real, shape[1].imag], shape[2]]
    if name == "interval":
        return [name, shape[1], shape[2]]
    return None


def _shape_from_json(data):
    if not data:
        return None
    name = data[0]
    if name in ("circle", "disk"):
        return (name, complex(data[1][0], data[1][1]), float(data[2]))
    if name == "interval":
        return (name, float(data[1]), float(data[2]))
    return None


def gridfield_to_csv(g: GridField, path: str | Path,
                     header_comment: str | None = None) -> None:
    """Write one ``x,y,green,escaped_at`` line per pixel, row 0 first.

    The cells are those ``_io.write_csv`` would write for the row-major
    pixel rows; each distinct coordinate is formatted once, and one grid
    row at a time is turned into text.
    """
    z = g.pixel_centers()
    xs = [repr(x) for x in z[0].real.tolist()]
    ys = [repr(y) for y in z[:, 0].imag.tolist()]
    lines = ("".join(f"{x},{y},{v!r},{e}\n" for x, v, e
                     in zip(xs, values.tolist(), escaped.tolist()))
             for y, values, escaped in zip(ys, g.values, g.escaped_at))
    write_csv_lines(path, ("x", "y", "green", "escaped_at"), lines,
                    header_comment)
