"""Compactly supported C^2 test functions with explicit Laplacians.

The bumps are polynomial in |z|^2 inside their support, so both the values
and the Laplacians are exact closed forms; power k gives a C^(k-1) function,
and k >= 3 keeps the Laplacian continuous across the support edge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MIN_POWER = 3


@dataclass(frozen=True)
class RadialBump:
    """phi(z) = (1 - |z-c|^2 / rho^2)^k on the disk |z-c| <= rho, else 0."""

    center: complex
    rho: float
    power: int = 4
    name: str = "radial-bump"

    def __post_init__(self):
        if self.rho <= 0:
            raise ValueError("bump radius must be positive")
        if self.power < MIN_POWER:
            raise ValueError(f"power must be >= {MIN_POWER} to stay C^2")

    @property
    def support_center(self) -> complex:
        return self.center

    @property
    def support_radius(self) -> float:
        return self.rho

    @property
    def declared_radius(self) -> float:
        return 1.05 * self.rho

    @property
    def smoothness(self) -> int:
        return self.power - 1

    def value(self, z):
        u = np.abs(np.asarray(z, dtype=complex) - self.center) ** 2 / self.rho ** 2
        inside = u < 1.0
        return np.where(inside, np.where(inside, 1.0 - u, 0.0) ** self.power, 0.0)

    def laplacian(self, z):
        u = np.abs(np.asarray(z, dtype=complex) - self.center) ** 2 / self.rho ** 2
        inside = u < 1.0
        k = self.power
        core = np.where(inside, 1.0 - u, 0.0)
        return np.where(inside,
                        (4.0 * k / self.rho ** 2) * core ** (k - 2) * (k * u - 1.0),
                        0.0)


@dataclass(frozen=True)
class AnnularBump:
    """phi(z) = (1 - s^2)^k with s = (|z-c| - r0)/hw on | |z-c| - r0 | <= hw."""

    center: complex
    r0: float
    halfwidth: float
    power: int = 4
    name: str = "annular-bump"

    def __post_init__(self):
        if not (0 < self.halfwidth < self.r0):
            raise ValueError("need 0 < halfwidth < r0 so the annulus avoids its center")
        if self.power < MIN_POWER:
            raise ValueError(f"power must be >= {MIN_POWER} to stay C^2")

    @property
    def support_center(self) -> complex:
        return self.center

    @property
    def support_radius(self) -> float:
        return self.r0 + self.halfwidth

    @property
    def declared_radius(self) -> float:
        return 1.05 * self.support_radius

    @property
    def smoothness(self) -> int:
        return self.power - 1

    def value(self, z):
        r = np.abs(np.asarray(z, dtype=complex) - self.center)
        s = (r - self.r0) / self.halfwidth
        inside = np.abs(s) < 1.0
        return np.where(inside, np.where(inside, 1.0 - s ** 2, 0.0) ** self.power, 0.0)

    def laplacian(self, z):
        r = np.abs(np.asarray(z, dtype=complex) - self.center)
        s = (r - self.r0) / self.halfwidth
        inside = np.abs(s) < 1.0
        k, hw = self.power, self.halfwidth
        core = np.where(inside, 1.0 - s ** 2, 0.0)
        r_safe = np.where(r > 0, r, 1.0)
        radial2 = (2.0 * k / hw ** 2) * core ** (k - 2) * ((2 * k - 1) * s ** 2 - 1.0)
        radial1 = -(2.0 * k * s / (hw * r_safe)) * core ** (k - 1)
        return np.where(inside, radial2 + radial1, 0.0)


@dataclass(frozen=True)
class TestFunctionSet:
    """Bump functions for pairing checks."""

    bumps: tuple = ()

    def __post_init__(self):
        for b in self.bumps:
            if b.smoothness < 2:
                raise ValueError(f"{b.name} is not C^2")
            if not b.support_radius < b.declared_radius:
                raise ValueError(f"{b.name} support must sit strictly inside "
                                 "its declared disk")

    def bump(self, name: str):
        for b in self.bumps:
            if b.name == name:
                return b
        raise KeyError(name)


def default_test_functions(center: complex = 0j, scale: float = 1.0) -> TestFunctionSet:
    """A central bump and an annular bump straddling |z - c| = scale."""
    return TestFunctionSet(
        bumps=(
            RadialBump(center=center, rho=scale, power=4, name="central"),
            AnnularBump(center=center, r0=scale, halfwidth=0.4 * scale,
                        power=4, name="annular"),
        ),
    )
