"""Bump test functions: values, Laplacians, and support bookkeeping."""

import numpy as np
import pytest

from brolinlab import testfunctions as tf
from brolinlab.testfunctions import (AnnularBump, RadialBump,
                                     default_test_functions)


def fd_laplacian(f, z: complex, h: float = 1e-4) -> float:
    # Five-point stencil on the plane.
    return (f(z + h) + f(z - h) + f(z + 1j * h) + f(z - 1j * h) - 4 * f(z)) / h ** 2


@pytest.mark.parametrize("z", [0.1 + 0.2j, -0.4 + 0.1j, 0.5j, 0.7 + 0j])
def test_radial_bump_laplacian_matches_finite_differences(z):
    bump = RadialBump(center=0.05 + 0.05j, rho=1.0, power=4)
    def f(w):
        return float(bump.value(w))
    assert float(bump.laplacian(z)) == pytest.approx(fd_laplacian(f, z), abs=5e-6)


@pytest.mark.parametrize("z", [1.1 + 0j, 0.9j, -0.8 - 0.5j, 1.3 + 0.1j])
def test_annular_bump_laplacian_matches_finite_differences(z):
    bump = AnnularBump(center=0j, r0=1.0, halfwidth=0.4, power=4)
    def f(w):
        return float(bump.value(w))
    assert float(bump.laplacian(z)) == pytest.approx(fd_laplacian(f, z), abs=5e-6)


def test_bump_peak_and_support():
    bump = RadialBump(center=1j, rho=0.5, power=4)
    assert float(bump.value(1j)) == 1.0
    assert float(bump.value(1j + 0.5)) == 0.0
    assert float(bump.value(1j + 0.7)) == 0.0
    assert float(bump.laplacian(1j + 0.7)) == 0.0
    assert bump.support_radius == 0.5
    assert bump.declared_radius > bump.support_radius
    assert bump.smoothness == 3


def test_bump_is_smooth_across_the_support_edge():
    bump = RadialBump(center=0j, rho=1.0, power=4)
    eps = 1e-6
    assert float(bump.value(1.0 - eps + 0j)) < 1e-20
    assert abs(float(bump.laplacian(1.0 - eps + 0j))) < 1e-9


def test_annular_bump_peaks_on_its_circle():
    bump = AnnularBump(center=0j, r0=1.0, halfwidth=0.4, power=4)
    assert float(bump.value(1.0 + 0j)) == 1.0
    assert float(bump.value(np.exp(1.1j))) == pytest.approx(1.0)
    assert float(bump.value(0.5 + 0j)) == 0.0
    assert float(bump.value(0j)) == 0.0


def test_bump_validation():
    with pytest.raises(ValueError, match="positive"):
        RadialBump(center=0j, rho=0.0)
    with pytest.raises(ValueError, match="power"):
        RadialBump(center=0j, rho=1.0, power=2)
    with pytest.raises(ValueError, match="halfwidth"):
        AnnularBump(center=0j, r0=1.0, halfwidth=1.5)
    with pytest.raises(ValueError, match="power"):
        AnnularBump(center=0j, r0=1.0, halfwidth=0.4, power=1)


def test_default_set_lookup():
    fs = default_test_functions(center=0.5j, scale=2.0)
    assert fs.bump("central").support_center == 0.5j
    assert fs.bump("central").support_radius == 2.0
    assert fs.bump("annular").support_radius == pytest.approx(2.8)
    with pytest.raises(KeyError):
        fs.bump("missing")


class _Shim:
    """Stand-in bump reporting too little smoothness for the pairing contract."""

    def __init__(self, inner):
        self.name = "shim"
        self.smoothness = 1
        self.support_radius = inner.support_radius
        self.declared_radius = inner.declared_radius


def test_set_rejects_insufficient_smoothness():
    bump = RadialBump(center=0j, rho=1.0, power=3)
    # power 3 is C^2, the minimum; the set accepts it.
    tf.TestFunctionSet(bumps=(bump,))
    with pytest.raises(ValueError, match="C\\^2"):
        tf.TestFunctionSet(bumps=(_Shim(bump),))
