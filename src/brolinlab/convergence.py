"""Degree sweeps connecting a measure's polynomial basis to its dynamics.

For each requested degree n the sweep builds the dynamical system of the
degree-n basis element, samples its balanced measure by backward iteration,
and collects the diagnostics that make the convergence story checkable:
leading-coefficient roots against the reference capacity, weak-star
distances to the reference equilibrium measure on a fixed probe grid,
escape masses of regions away from the limit set, preimage counts, and the
zero distribution contrast.

The samples are checked against an exact answer: omega_n is the equilibrium
measure of the filled Julia set K_n (Brolin 1965), so its potential is
g_n + log cap K_n (Ransford, Potential Theory in the Complex Plane, 1995),
with g_n the Green function of the basin of infinity.
"""

from __future__ import annotations

import hashlib
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import measures
from ._io import read_json, write_csv, write_json
from ._seeds import derive_seed
from .dynamics import (PolyDyn, brolin_sample, capacity_julia, green_value,
                       poly_roots, preimages)
from .equilibrium import filled_hull, reference_equilibrium, support_gridset
from .grids import GridField, GridSet, rasterize_disk
from .measures import (_TILE, EmpiricalMeasure, MeasureSpec,
                       PrecisionExhaustedError, _log_distances, _tiles,
                       default_node_count, make_quadrature)
from .orthopoly import OrthoBasis, orthonormal_basis

energy = measures.energy  # bench/tracer.py wraps this name

PROBE_EXCLUSION = 1e-9
# Bound on sampler_z: the two-sided Bonferroni bound at family-wise error
# 1e-3 over 104 probes (two rings of 48 and the interior ring of 8) times 64
# degrees (the CLI's maximum), Phi^-1(1 - 1e-3 / (2 * 104 * 64)) = 5.252.
# An iid sampler of omega_n exceeds it at some probe of some degree with
# probability at most 1e-3.
SAMPLER_K = 5.25
DEFAULT_DEGREES = tuple(range(2, 17))
DEFAULT_SAMPLES = 10_000


class HypothesisViolation(ValueError):
    """An experiment precondition does not hold (bad probes, region meets the set)."""


# ---------------------------------------------------------------------------
# Probe sets and the weak-star surrogate distance


def probe_ring(center: complex, radius: float, count: int) -> np.ndarray:
    k = np.arange(count)
    return center + radius * np.exp(2j * np.pi * (k + 0.5) / count)


def weak_star_distance(m1: EmpiricalMeasure, m2: EmpiricalMeasure,
                       probes: np.ndarray) -> float:
    """sup over the probe points of |p_m1 - p_m2|.

    Probes must avoid both supports and the probe window must enclose them;
    violations raise :class:`HypothesisViolation`.
    """
    u1, _ = _probe_logs(m1, probes)
    u2, _ = _probe_logs(m2, probes)
    return float(np.abs(u1 - u2).max())


def weak_star_distance_se(m: EmpiricalMeasure, probes: np.ndarray) -> float:
    """Sampling-noise surrogate: max over probes of the weighted standard
    error of log|probe - X|."""
    return float(_probe_logs(m, probes)[1].max())


def _probe_logs(m: EmpiricalMeasure, probes) -> tuple[np.ndarray, np.ndarray]:
    """Potential of ``m`` at each probe (the weighted mean of log|probe - X|)
    and its iid standard error, from one pass over the logs that also makes
    the probe checks of :func:`weak_star_distance`."""
    probes = np.asarray(probes, dtype=complex).ravel()
    if probes.size == 0:
        raise HypothesisViolation("empty probe set")
    _check_probes(probes, m.points)
    w = m.weights
    mean = np.empty(probes.size)
    var = np.empty(probes.size)
    for start, logs in _tiles(_log_distances, probes, m.points):
        if logs.min() < math.log(PROBE_EXCLUSION):
            raise HypothesisViolation("a probe point touches a support atom")
        mean[start:start + _TILE] = tile_mean = logs @ w
        logs -= tile_mean[:, None]
        np.multiply(logs, logs, out=logs)
        var[start:start + _TILE] = logs @ w
    n_eff = 1.0 / float(w @ w)
    return mean, np.sqrt(np.maximum(var, 0.0) / n_eff)


def _check_probes(probes: np.ndarray, atoms: np.ndarray) -> None:
    c0 = probes.mean()
    window = np.abs(probes - c0).max()
    if np.abs(atoms - c0).max() > window * (1 + 1e-9):
        raise HypothesisViolation("support is not enclosed by the probe window")


# ---------------------------------------------------------------------------
# Region diagnostics


def mass_escape(omega: EmpiricalMeasure, region: GridSet,
                support_hull: GridSet) -> tuple[float, float]:
    """Mass of ``omega`` inside ``region`` with its binomial standard error.

    Precondition: the region must be disjoint from the filled support hull.
    """
    if support_hull.contains(region.masked_points()).any():
        raise HypothesisViolation("region intersects the filled support")
    inside = region.contains(omega.points)
    mass = float(omega.weights[inside].sum())
    n_eff = 1.0 / float(omega.weights @ omega.weights)
    se = math.sqrt(max(mass * (1.0 - mass), 0.0) / n_eff)
    return mass, se


def preimage_count(p: PolyDyn, w: complex, region: GridSet,
                   probe_bound: float | None = None) -> int:
    """Number of preimages of ``w`` under P landing in ``region``."""
    if probe_bound is not None and abs(w) > probe_bound * (1 + 1e-12):
        raise HypothesisViolation("probe point outside the allowed disk")
    roots = preimages(p, w)
    return int(region.contains(roots).sum())


def laplacian_pairing_check(g: GridField, omega: EmpiricalMeasure, phi) -> float:
    """|sum_i w_i phi(z_i) - (1/2pi) Riemann-sum of (lap phi) * g|.

    ``phi`` must expose value(z), laplacian(z), support_center and
    support_radius; its support must sit strictly inside the grid rectangle.
    """
    if not g.rect.contains_disk(phi.support_center,
                                phi.support_radius * (1 + 1e-9)):
        raise HypothesisViolation("test function support is clipped by the grid")
    lhs = float(np.real(np.sum(omega.weights * phi.value(omega.points))))
    z = g.pixel_centers()
    hx, hy = g.rect.spacing(g.nx, g.ny)
    rhs = float(np.sum(phi.laplacian(z) * g.values)) * hx * hy / (2 * math.pi)
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# Zero distributions


def zero_distribution(b: OrthoBasis, n: int, spec: MeasureSpec,
                      inflate: float | None = None) -> EmpiricalMeasure:
    """Equal-weight measure on the roots of P_n, checked against the convex
    hull of the support of ``spec`` (inflated by the root tolerance)."""
    roots = np.asarray(poly_roots(b.coeffs[n]))
    if inflate is None:
        inflate = 1e-6 * (1.0 + spec.support_radius())
    dist = spec.hull_distance(roots)
    if np.any(dist > inflate):
        worst = roots[int(np.argmax(dist))]
        raise HypothesisViolation(
            f"root {worst} lies {dist.max():.3e} outside the support hull")
    w = np.full(roots.size, 1.0 / roots.size)
    return EmpiricalMeasure(roots, w, provenance="zeros")


# ---------------------------------------------------------------------------
# Sweep configuration and report


@dataclass
class SweepConfig:
    seed: int = 20260818
    n_samples: int = DEFAULT_SAMPLES
    burn_in: int = 50
    chains: int = 64
    node_count: int | None = None
    basis_tol: float = 1e-10
    probe_ring_factors: tuple[float, ...] = (1.25, 1.6)
    probe_ring_count: int = 48
    mass_region: tuple[complex, float] | None = None
    preimage_probe_count: int = 32
    hull_resolution: int = 512
    reference_atoms: int = 4096
    threads: int = 1
    tol_gamma: float = 0.05
    tol_capacity: float = 0.05
    tol_weak: float = 0.05
    require: tuple[str, ...] = ("gamma_root", "capacity", "sampler",
                                "weak_convergence", "containment")

    def to_dict(self) -> dict:
        out = asdict(self)
        if self.mass_region is not None:
            c, r = self.mass_region
            out["mass_region"] = {"center": [c.real, c.imag], "radius": r}
        out["probe_ring_factors"] = list(self.probe_ring_factors)
        out["require"] = list(self.require)
        return out


VERDICT_NAMES = ("gamma_root", "capacity", "sampler", "weak_convergence",
                 "containment")

# (ConvergenceReport field, report.csv column) of each per-degree sequence,
# in column order; report.csv puts the degree itself first.
PER_DEGREE_FIELDS = (
    ("gamma_roots", "gamma_root"),
    ("cap_julia", "cap_julia"),
    ("sampler_z", "sampler_z"),
    ("weak_distances", "weak_distance"),
    ("weak_distance_ses", "weak_distance_se"),
    ("masses_in_v", "mass_in_v"),
    ("mass_ses", "mass_se"),
    ("preimage_counts", "preimage_count"),
    ("zero_distances", "zero_distance"),
    ("containment_max", "containment_max"),
)


@dataclass
class ConvergenceReport:
    """Per-degree diagnostic sequences plus trend verdicts.

    All sequences are indexed by ``degrees``; entries are None for degrees
    whose stage failed (the failure message is kept in ``failures``).
    sampler_z is the largest gap over the probes, in standard errors, between
    the sampled potential and omega_n's exact one, g_n + log cap_julia.
    """

    label: str
    degrees: list[int]
    gamma_roots: list[float]
    cap_julia: list[float]
    sampler_z: list[float | None]
    weak_distances: list[float | None]
    weak_distance_ses: list[float | None]
    masses_in_v: list[float | None]
    mass_ses: list[float | None]
    preimage_counts: list[int | None]
    zero_distances: list[float | None]
    containment_max: list[float | None]
    containment_radius: float
    first_containment_violation: int | None
    reference_capacity: float
    reference_energy: float
    verdicts: dict
    failures: dict
    seed: int
    config: dict
    config_hash: str

    def __post_init__(self):
        n = len(self.degrees)
        for name, _ in PER_DEGREE_FIELDS:
            if len(getattr(self, name)) != n:
                raise ValueError(f"{name} must match the degree index set")
        for m in self.masses_in_v:
            if m is not None and not 0.0 <= m <= 1.0:
                raise ValueError("masses must lie in [0, 1]")

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["failures"] = {str(k): v for k, v in self.failures.items()}
        return out


def report_to_json(report: ConvergenceReport, path: str | Path) -> None:
    write_json(path, report.to_dict())


def report_from_json(path: str | Path) -> ConvergenceReport:
    data = read_json(path)
    for old in ("identity_max_dev", "cap_nth_root", "energies",
                "sample_energies", "sample_energy_ses"):
        data.pop(old, None)  # fields of reports from older versions
    data.setdefault("sampler_z", [None] * len(data["degrees"]))
    data["failures"] = {int(k): v for k, v in data.get("failures", {}).items()}
    return ConvergenceReport(**data)


def report_to_csv(report: ConvergenceReport, path: str | Path,
                  header_comment: str | None = None) -> None:
    columns = ["degree"] + [col for _, col in PER_DEGREE_FIELDS]
    rows = zip(report.degrees,
               *(getattr(report, name) for name, _ in PER_DEGREE_FIELDS))
    write_csv(path, columns, rows, header_comment)


def config_hash_of(data: dict) -> str:
    canon = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Trend verdicts


def _trend_ok(errors, ses, tol) -> bool:
    """Last error within tol and no rise over the final three entries beyond
    two combined standard errors."""
    pairs = [(e, s) for e, s in zip(errors, ses) if e is not None]
    if not pairs:
        return False
    errs = [p[0] for p in pairs]
    sds = [0.0 if p[1] is None else p[1] for p in pairs]
    if errs[-1] > tol:
        return False
    tail = min(3, len(errs))
    for i in range(len(errs) - tail, len(errs) - 1):
        allowed = 2.0 * math.hypot(sds[i], sds[i + 1]) + 1e-12
        if errs[i + 1] > errs[i] + allowed:
            return False
    return True


def regularity_report(degrees, gamma_roots, cap_julia, reference_capacity,
                      tol_gamma=0.05, tol_capacity=0.05) -> dict:
    """Two-clause regularity verdict against a reference capacity.

    Clause 1: gamma_n^(1/n) -> 1/Cap;  clause 2: the filled-set capacities
    |gamma_n|^(-1/(n-1)) -> Cap.  Each clause demands its final relative
    error within tolerance and no rise over the last three degrees.
    """
    inv_cap = 1.0 / reference_capacity
    gamma_errors = [None if g is None else abs(g - inv_cap) * reference_capacity
                    for g in gamma_roots]
    cap_errors = [None if c is None else abs(c - reference_capacity) / reference_capacity
                  for c in cap_julia]
    zeros = [0.0] * len(degrees)
    return {
        "gamma_root": _trend_ok(gamma_errors, zeros, tol_gamma),
        "capacity": _trend_ok(cap_errors, zeros, tol_capacity),
        "gamma_errors": gamma_errors,
        "capacity_errors": cap_errors,
    }


# ---------------------------------------------------------------------------
# The sweep


def run_sweep(spec: MeasureSpec, degrees=None,
              config: SweepConfig | None = None) -> ConvergenceReport:
    """Run the per-degree battery for ``spec`` and assemble the report.

    Deterministic: all sampling streams derive from config.seed, results are
    merged in degree order regardless of the thread count, and per-degree
    failures are recorded without aborting the sweep.
    """
    config = config or SweepConfig()
    degrees = sorted(set(int(n) for n in (degrees or DEFAULT_DEGREES)))
    if degrees[0] < 2:
        raise ValueError("sweep degrees must be >= 2")
    max_degree = degrees[-1]
    if spec.non_polar() is None:
        raise HypothesisViolation("the support is a finite set, which is polar: "
                                  "it has no equilibrium measure")

    node_count = config.node_count or default_node_count(max_degree)
    q = make_quadrature(spec, node_count)
    basis = orthonormal_basis(q, max_degree, tol=config.basis_tol)
    if basis.max_degree < max_degree:
        raise PrecisionExhaustedError(
            "basis construction exhausted precision before "
            f"degree {max_degree}", largest_safe_degree=basis.max_degree)
    ref = reference_equilibrium(spec, n_atoms=config.reference_atoms)
    cap_ref = ref.capacity

    r_contain = 1.05 * spec.support_radius()
    region = hull = None
    if config.mass_region is not None:
        hull = filled_hull(support_gridset(spec,
                                           resolution=config.hull_resolution))
        center, radius = config.mass_region
        region = rasterize_disk(complex(center), float(radius), hull.rect,
                                hull.nx, hull.ny)
        if hull.contains(region.masked_points()).any():
            raise HypothesisViolation("mass region intersects the filled support")

    # per-degree dynamics and sampling (probe-independent part)
    def stage_one(n: int):
        p = PolyDyn.from_coeffs(basis.coeffs[n])
        omega = brolin_sample(p, config.n_samples, derive_seed(config.seed, n),
                              burn_in=config.burn_in, chains=config.chains)
        return p, omega

    results: dict[int, tuple] = {}
    failures: dict[int, str] = {}
    if config.threads > 1:
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            futures = {n: pool.submit(stage_one, n) for n in degrees}
            for n in degrees:
                try:
                    results[n] = futures[n].result()
                except Exception as err:  # keep partial results
                    failures[n] = f"{type(err).__name__}: {err}"
        # fall through with whatever succeeded
    else:
        for n in degrees:
            try:
                results[n] = stage_one(n)
            except Exception as err:
                failures[n] = f"{type(err).__name__}: {err}"

    # probe grid: fixed across degrees, strictly outside every sampled support
    bbox = spec.bounding_box()
    c0 = complex((bbox[0] + bbox[1]) / 2, (bbox[2] + bbox[3]) / 2)
    base = r_contain
    for n, (_, omega) in results.items():
        base = max(base, 1.02 * float(np.abs(omega.points - c0).max()))
    probes = [probe_ring(c0, f * base, config.probe_ring_count)
              for f in config.probe_ring_factors]
    # a ring inside the support, where the equilibrium potential is flat
    ring = spec.interior_ring()
    if ring is not None:
        probes.append(probe_ring(*ring, 8))
    probe_points = np.concatenate(probes)
    u_ref, _ = _probe_logs(ref.measure, probe_points)

    preimage_targets = np.concatenate([
        probe_ring(0j, 0.95 * r_contain, config.preimage_probe_count // 2),
        probe_ring(0j, 0.50 * r_contain,
                   config.preimage_probe_count - config.preimage_probe_count // 2),
    ])

    # one row of per-degree values per degree; a failed stage leaves None
    rows = [dict.fromkeys(name for name, _ in PER_DEGREE_FIELDS)
            for _ in degrees]

    for row, n in zip(rows, degrees):
        if n not in results:
            continue
        p, omega = results[n]
        g = basis.gammas[n]
        row["gamma_roots"] = float(g ** (1.0 / n))
        row["cap_julia"] = capacity_julia(p)
        try:
            u, se = _probe_logs(omega, probe_points)
            # the gap to omega_n's exact potential in SEs (inf over a zero SE)
            gap = np.abs(u - green_value(p, probe_points)
                         - math.log(row["cap_julia"]))
            with np.errstate(divide="ignore", invalid="ignore"):
                row["sampler_z"] = float(np.where(gap == 0.0, 0.0, gap / se).max())
            row["weak_distances"] = float(np.abs(u - u_ref).max())
            row["weak_distance_ses"] = float(se.max())
            if region is not None:
                row["masses_in_v"], row["mass_ses"] = mass_escape(omega, region, hull)
            row["preimage_counts"] = max(
                preimage_count(p, w, region, probe_bound=r_contain)
                for w in preimage_targets) if region is not None else None
            u_zeros, _ = _probe_logs(zero_distribution(basis, n, spec),
                                     probe_points)
            row["zero_distances"] = float(np.abs(u_zeros - u_ref).max())
            row["containment_max"] = float(np.abs(omega.points).max())
        except Exception as err:
            failures[n] = f"{type(err).__name__}: {err}"
    seq = {name: [row[name] for row in rows] for name, _ in PER_DEGREE_FIELDS}

    cont_max = seq["containment_max"]
    first_violation = None
    for n, c in zip(degrees, cont_max):
        if c is not None and c > r_contain:
            first_violation = n
            break

    reg = regularity_report(degrees, seq["gamma_roots"], seq["cap_julia"],
                            cap_ref, tol_gamma=config.tol_gamma,
                            tol_capacity=config.tol_capacity)
    sampler_z = [z for z in seq["sampler_z"] if z is not None]
    verdicts = {
        "gamma_root": reg["gamma_root"],
        "capacity": reg["capacity"],
        "sampler": bool(sampler_z) and max(sampler_z) <= SAMPLER_K,
        "weak_convergence": _trend_ok(seq["weak_distances"],
                                      seq["weak_distance_ses"], config.tol_weak),
        "containment": (cont_max[-1] is not None
                        and cont_max[-1] <= r_contain * (1 + 1e-12)),
    }

    cfg_dict = config.to_dict()
    cfg_dict["measure"] = spec.to_dict()
    cfg_dict["degrees"] = degrees
    return ConvergenceReport(
        label=spec.label or spec.kind,
        degrees=degrees,
        **seq,
        containment_radius=r_contain,
        first_containment_violation=first_violation,
        reference_capacity=cap_ref,
        reference_energy=ref.energy,
        verdicts=verdicts,
        failures=failures,
        seed=config.seed,
        config=cfg_dict,
        config_hash=config_hash_of(cfg_dict),
    )

