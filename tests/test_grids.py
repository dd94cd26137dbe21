"""Pixel grids: rasterizers, hull filling, and file round trips."""

import math

import numpy as np
import pytest

from brolinlab._io import write_csv
from brolinlab.equilibrium import filled_hull, outer_boundary_mask
from brolinlab.grids import (GridField, GridSet, Rectangle, gridfield_to_csv,
                             gridset_from_files, gridset_to_files,
                             rasterize_circle, rasterize_disk,
                             rasterize_points, rasterize_rectangle_outline,
                             rasterize_segment)

RECT = Rectangle(-2.0, 2.0, -2.0, 2.0)


def test_rectangle_validation_and_spacing():
    with pytest.raises(ValueError):
        Rectangle(1.0, -1.0, 0.0, 2.0)
    hx, hy = RECT.spacing(400, 200)
    assert hx == pytest.approx(0.01)
    assert hy == pytest.approx(0.02)
    centers = RECT.pixel_centers(4, 4)
    assert centers[0, 0] == pytest.approx(-1.5 - 1.5j)
    assert centers[-1, -1] == pytest.approx(1.5 + 1.5j)
    assert RECT.contains_disk(0j, 1.9)
    assert not RECT.contains_disk(1.0 + 0j, 1.5)


def test_circle_rasterization_stays_on_the_circle():
    gs = rasterize_circle(0.2j, 1.3, RECT, 256, 256)
    assert gs.shape == ("circle", 0.2j, 1.3)
    assert gs.provenance == "named-shape"
    pts = gs.masked_points()
    diag = math.hypot(*RECT.spacing(256, 256))
    assert np.abs(np.abs(pts - 0.2j) - 1.3).max() <= diag
    # The ring is unbroken: every angle has a pixel within a diagonal.
    ring = 0.2j + 1.3 * np.exp(2j * np.pi * np.arange(720) / 720)
    gaps = np.abs(ring[:, None] - pts[None, :]).min(axis=1)
    assert gaps.max() < diag


def test_disk_rasterization_matches_membership():
    gs = rasterize_disk(0.5 + 0j, 0.8, RECT, 128, 128)
    assert gs.shape == ("disk", 0.5 + 0j, 0.8)
    centers = gs.pixel_centers()
    dist = np.abs(centers - 0.5)
    diag = math.hypot(*RECT.spacing(128, 128))
    assert np.all(dist[gs.mask] <= 0.8 + diag)
    assert np.all(dist[~gs.mask] >= 0.8 - diag)


def test_segment_rasterization_shapes():
    real = rasterize_segment(-1.0 + 0j, 1.5 + 0j, RECT, 128, 128)
    assert real.shape == ("interval", -1.0, 1.5)
    tilted = rasterize_segment(-1.0 - 1.0j, 1.0 + 1.0j, RECT, 128, 128)
    assert tilted.shape is None
    pts = tilted.masked_points()
    # Pixels hug the diagonal.
    assert np.abs(pts.real - pts.imag).max() <= math.hypot(*RECT.spacing(128, 128))


def test_gridset_contains_lookup():
    gs = rasterize_disk(0j, 1.0, RECT, 64, 64)
    assert bool(gs.contains(0j))
    assert not bool(gs.contains(1.9 + 0j))
    assert not bool(gs.contains(5.0 + 0j))  # outside the rectangle entirely
    np.testing.assert_array_equal(gs.contains(gs.masked_points()),
                                  np.ones(gs.mask.sum(), dtype=bool))


def test_rasterized_points_agree_with_contains_near_every_edge():
    rect = Rectangle(0.0, 1.0, 0.0, 1.0)
    assert not rasterize_points([-0.05 + 0.5j], rect, 10, 10).mask.any()
    everywhere = GridSet(rect, np.ones((10, 10), dtype=bool))
    near = [-0.05, -1e-9, 0.0, 0.05, 0.5, 0.95, 1.0 - 1e-9, 1.0, 1.05]
    for z in (complex(x, y) for x in near for y in near):
        gs = rasterize_points([z], rect, 10, 10)
        assert gs.mask.sum() == int(everywhere.contains(z)[0]), z
        assert gs.contains(z)[0] == everywhere.contains(z)[0], z


def test_hull_fills_an_outline_to_the_disk():
    outline = rasterize_circle(0j, 1.2, RECT, 200, 200)
    hull = filled_hull(outline)
    # One-pixel fringe is allowed on either side of the ideal disk.
    diag = math.hypot(*RECT.spacing(200, 200))
    fat = rasterize_disk(0j, 1.2 + diag, RECT, 200, 200)
    thin = rasterize_disk(0j, 1.2 - diag, RECT, 200, 200)
    assert (hull.mask & ~fat.mask).sum() == 0
    assert (thin.mask & ~hull.mask).sum() == 0


def test_hull_is_idempotent_and_monotone():
    outline = rasterize_circle(0j, 1.2, RECT, 200, 200)
    hull = filled_hull(outline)
    np.testing.assert_array_equal(filled_hull(hull).mask, hull.mask)
    assert np.all(hull.mask[outline.mask])


def test_hull_swallows_interior_components():
    outer = rasterize_circle(0j, 1.5, RECT, 200, 200)
    inner = rasterize_circle(0j, 0.5, RECT, 200, 200)
    union = GridSet(RECT, outer.mask | inner.mask)
    hull = filled_hull(union)
    np.testing.assert_array_equal(hull.mask, filled_hull(outer).mask)


def test_hull_rejects_border_contact():
    full = GridSet(RECT, np.ones((32, 32), dtype=bool))
    with pytest.raises(ValueError, match="border"):
        filled_hull(full)


def test_outer_boundary_is_a_thin_shell():
    hull = filled_hull(rasterize_circle(0j, 1.2, RECT, 200, 200))
    shell = outer_boundary_mask(hull)
    assert shell.sum() < hull.mask.sum()
    assert np.all(hull.mask[shell])
    centers = hull.pixel_centers()
    diag = math.hypot(*RECT.spacing(200, 200))
    assert np.abs(np.abs(centers[shell]) - 1.2).max() <= 2 * diag


def test_rectangle_outline_hull_is_the_full_rectangle():
    outline = rasterize_rectangle_outline(-1.0, 1.0, -0.5, 0.5, RECT, 160, 160)
    hull = filled_hull(outline)
    assert bool(hull.contains(0j))
    assert bool(hull.contains(0.9 + 0.4j))
    assert not bool(hull.contains(1.4 + 0j))


def test_gridset_file_round_trip(tmp_path):
    gs = rasterize_circle(0.1 + 0.2j, 1.1, RECT, 96, 96)
    gridset_to_files(gs, tmp_path / "set")
    back = gridset_from_files(tmp_path / "set")
    np.testing.assert_array_equal(back.mask, gs.mask)
    assert back.rect.to_list() == gs.rect.to_list()
    assert back.shape == gs.shape
    assert back.provenance == gs.provenance


def test_gridfield_csv_layout(tmp_path):
    g = GridField(Rectangle(-1.0, 0.5, 0.0, 1.0),
                  np.array([[0.0, 0.1, 1e-300], [2.5, 0.0, 1 / 3]]),
                  np.array([[0, 7, 12], [200, 0, 7]], dtype=np.int32))
    path = tmp_path / "field.csv"
    z = g.pixel_centers().ravel()
    for comment in (None, "resolution=3x2"):
        gridfield_to_csv(g, path, header_comment=comment)
        lines = path.read_text().splitlines()
        if comment is not None:
            assert lines.pop(0) == f"# {comment}"
        assert lines[0] == "x,y,green,escaped_at"
        assert len(lines) == 7
        first = lines[1].split(",")
        assert float(first[0]) == pytest.approx(-0.75)
        assert float(first[1]) == pytest.approx(0.25)
        assert first[3] == "0"
        # byte for byte what the generic writer makes of the row-major pixels
        rows = zip(z.real.tolist(), z.imag.tolist(),
                   g.values.ravel().tolist(), g.escaped_at.ravel().tolist())
        write_csv(tmp_path / "reference.csv",
                  ("x", "y", "green", "escaped_at"), rows, comment)
        assert path.read_bytes() == (tmp_path / "reference.csv").read_bytes()


def _mask_files(tmp_path, pbm_text):
    gs = rasterize_disk(0j, 1.2, RECT, 6, 4)
    gridset_to_files(gs, tmp_path / "set")
    (tmp_path / "set.pbm").write_text(pbm_text)
    return gs, tmp_path / "set"


@pytest.mark.parametrize("pbm_text", [
    "P1\n# written by hand\n6 4 # width height\n"
    "0 0 0 0 0 0\n0 1 1 1 1 0\n# middle\n0 1 1 1 1 0\n0 0 0 0 0 0\n",
    "P1\n6 4\n000000\n011110\n011110000000\n",
    "P1 6 4 000000011110011110000000",
], ids=["comments", "packed-rows", "one-line"])
def test_gridset_reads_any_plain_pbm(tmp_path, pbm_text):
    gs, base = _mask_files(tmp_path, pbm_text)
    np.testing.assert_array_equal(gridset_from_files(base).mask, gs.mask)


@pytest.mark.parametrize("pbm_text, message", [
    ("P1\n6 4\n000000\n011110\n011110\n", "holds 18 bits, not nx \\* ny = 24"),
    ("P1\n4 6\n" + "0" * 24 + "\n", "is 4 x 6 pixels, but its JSON header"),
    ("P1\n6 4\n" + "0 2 " * 12 + "\n", "only 0, 1 and whitespace"),
    ("P4\n6 4\n", "expected a plain PBM"),
    ("P1\n6\n", "width and height"),
], ids=["short-raster", "header-disagrees", "bad-bit", "raw-pbm", "no-height"])
def test_gridset_rejects_a_malformed_pbm(tmp_path, pbm_text, message):
    _, base = _mask_files(tmp_path, pbm_text)
    with pytest.raises(ValueError, match=message):
        gridset_from_files(base)
