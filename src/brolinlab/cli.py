"""Command line front end.

Exit codes: 0 success, 1 invalid input or a failed experiment hypothesis,
2 numeric budget exhausted (precision or iteration limits), 3 solver failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from . import __version__
from ._io import read_json, write_csv, write_json
from .convergence import (HypothesisViolation, SweepConfig, probe_ring,
                          report_from_json, report_to_csv, report_to_json,
                          run_sweep)
from .dynamics import (PolyDyn, RootSolveError, brolin_sample, capacity_julia,
                       filled_julia_grid, functional_equation_residual)
from .equilibrium import equilibrium_measure, equilibrium_to_files
from .grids import (Rectangle, gridfield_to_csv, gridset_from_files,
                    rasterize_circle, rasterize_rectangle_outline,
                    rasterize_segment)
from .measures import (MeasureSpec, MeasureSpecError, PrecisionExhaustedError,
                       default_node_count, empirical_to_csv, make_quadrature)
from .orthopoly import basis_to_json, orthonormal_basis

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_BUDGET = 2
EXIT_SOLVER = 3

MAX_CLI_DEGREE = 64

# Exit code of each error class, first match wins.  main() maps a raised
# error through it, cmd_lab the class of a per-degree failure, which
# run_sweep records as "ClassName: message".
_EXIT_CODES = (
    (PrecisionExhaustedError, EXIT_BUDGET),
    (RootSolveError, EXIT_SOLVER),
    (HypothesisViolation, EXIT_INVALID),
    (MeasureSpecError, EXIT_INVALID),
    (ValueError, EXIT_INVALID),
    (KeyError, EXIT_INVALID),
    (OSError, EXIT_INVALID),
    (RuntimeError, EXIT_SOLVER),
)


def _exit_code(cls: type) -> int:
    return next(code for base, code in _EXIT_CODES if issubclass(cls, base))


def _failure_exit_code(failure: str) -> int:
    """Exit code of a per-degree failure; a class the table does not name
    counts as a solver failure."""
    name = failure.split(":", 1)[0]
    return next((code for cls, code in _EXIT_CODES if cls.__name__ == name),
                EXIT_SOLVER)


def _out_dir(args) -> Path:
    out = Path(getattr(args, "out", None) or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# Subcommands


def cmd_measure_validate(args) -> int:
    spec = MeasureSpec.from_json(args.file)
    print(f"ok: {spec.label or spec.kind}")
    return EXIT_OK


def cmd_ortho(args) -> int:
    spec = MeasureSpec.from_json(args.measure)
    if args.degree > MAX_CLI_DEGREE:
        raise MeasureSpecError(f"degree {args.degree} exceeds the supported "
                               f"maximum of {MAX_CLI_DEGREE}")
    nodes = args.nodes or default_node_count(args.degree)
    q = make_quadrature(spec, nodes)
    b = orthonormal_basis(q, args.degree, tol=args.tol)
    out = _out_dir(args)
    basis_to_json(b, out / "basis.json")
    rows = ((n, g, None if n == 0 else g ** (1.0 / n))
            for n, g in enumerate(b.gammas.tolist()))
    write_csv(out / "gammas.csv", ("degree", "gamma", "gamma_root"), rows,
              f"measure={spec.label or spec.kind} nodes={nodes} tol={args.tol!r}")
    print(f"basis degree {b.max_degree}, residual {b.residual:.3e}, "
          f"precision {b.precision_used} digits")
    if b.max_degree < args.degree:
        print(f"truncated: degree {args.degree} not reachable at the "
              "highest supported precision", file=sys.stderr)
        return EXIT_BUDGET
    return EXIT_OK


def cmd_dyn(args) -> int:
    spec = MeasureSpec.from_json(args.measure)
    nodes = args.nodes or default_node_count(args.degree)
    q = make_quadrature(spec, nodes)
    b = orthonormal_basis(q, args.degree, tol=args.tol)
    if b.max_degree < args.degree:
        print(f"basis stops at degree {b.max_degree}", file=sys.stderr)
        return EXIT_BUDGET
    p = PolyDyn.from_coeffs(b.coeffs[args.degree])
    omega = brolin_sample(p, args.samples, args.seed)
    out = _out_dir(args)
    empirical_to_csv(omega, out / "samples.csv",
                     f"degree={args.degree} seed={args.seed}")
    ring = probe_ring(0j, 1.2 * p.radius, 64)
    summary = {
        "degree": args.degree,
        "gamma": [p.gamma.real, p.gamma.imag],
        "escape_radius": p.radius,
        "capacity": capacity_julia(p),
        "functional_equation_residual": functional_equation_residual(p, ring),
        "samples": args.samples,
        "seed": args.seed,
    }
    if args.grid:
        half = 1.1 * p.radius
        rect = Rectangle(-half, half, -half, half)
        g = filled_julia_grid(p, rect, resolution=args.grid)
        gridfield_to_csv(g, out / "green.csv",
                         f"degree={args.degree} resolution={args.grid}")
        summary["grid_resolution"] = args.grid
        summary["below_resolution"] = g.below_resolution
    write_json(out / "summary.json", summary)
    print(f"degree {args.degree}: capacity {summary['capacity']!r}, "
          f"radius {p.radius!r}")
    return EXIT_OK


def _parse_pair(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise MeasureSpecError(f"expected 'a,b', got {text!r}")
    return float(parts[0]), float(parts[1])


def _padded_rect(xmin, xmax, ymin, ymax) -> Rectangle:
    span = max(xmax - xmin, ymax - ymin, 1e-9)
    pad = 0.35 * span
    cx, cy = (xmin + xmax) / 2, (ymin + ymax) / 2
    half = span / 2 + pad
    return Rectangle(cx - half, cx + half, cy - half, cy + half)


def cmd_eq(args) -> int:
    res = args.resolution
    if args.mask:
        gs = gridset_from_files(args.mask)
    elif args.shape == "circle":
        cx, cy = _parse_pair(args.center)
        c = complex(cx, cy)
        rect = _padded_rect(cx - args.radius, cx + args.radius,
                            cy - args.radius, cy + args.radius)
        gs = rasterize_circle(c, args.radius, rect, res, res)
    elif args.shape == "interval":
        a, b = _parse_pair(args.endpoints)
        if not a < b:
            raise MeasureSpecError("endpoints must satisfy a < b")
        rect = _padded_rect(a, b, (a - b) / 2, (b - a) / 2)
        gs = rasterize_segment(complex(a, 0), complex(b, 0), rect, res, res)
    elif args.shape == "square":
        cx, cy = _parse_pair(args.center)
        h = args.side / 2
        rect = _padded_rect(cx - h, cx + h, cy - h, cy + h)
        gs = rasterize_rectangle_outline(cx - h, cx + h, cy - h, cy + h,
                                         rect, res, res)
    else:
        raise MeasureSpecError("one of --mask or --shape is required")
    e = equilibrium_measure(gs, iterations=args.iterations, tol=args.tol,
                            n_atoms=args.atoms)
    out = _out_dir(args)
    equilibrium_to_files(e, out / "equilibrium",
                         f"shape={args.shape or 'mask'} atoms={e.measure.size}")
    print(f"energy {e.energy!r}, capacity {e.capacity!r}, "
          f"converged {e.converged}")
    return EXIT_OK if e.converged else EXIT_BUDGET


# experiment keys under "tolerances" and the SweepConfig fields they set
_TOLERANCE_FIELDS = {"gamma_root": "tol_gamma", "capacity": "tol_capacity",
                     "energy": "tol_energy", "weak_convergence": "tol_weak"}


def _sweep_config_from(cfg: dict, args) -> SweepConfig:
    """SweepConfig from a validated experiment dict; flags override the file.

    Keys named like a SweepConfig field are copied as they are; the code
    below handles only renamed, nested and tuple-valued keys.
    """
    names = {f.name for f in dataclasses.fields(SweepConfig)}
    kw = {key: value for key, value in cfg.items() if key in names}
    if "samples" in cfg:
        kw["n_samples"] = cfg["samples"]
    if "mass_region" in cfg:
        c = cfg["mass_region"]["center"]
        kw["mass_region"] = (complex(c[0], c[1]), cfg["mass_region"]["radius"])
    for key, field in _TOLERANCE_FIELDS.items():
        if key in cfg.get("tolerances", {}):
            kw[field] = cfg["tolerances"][key]
    for key in ("probe_ring_factors", "require"):
        if key in cfg:
            kw[key] = tuple(cfg[key])
    flags = {"seed": args.seed, "n_samples": args.samples,
             "threads": args.threads}
    kw.update({field: v for field, v in flags.items() if v is not None})
    if "threads" not in kw:
        kw["threads"] = int(os.environ.get("BROLIN_LAB_THREADS", "1"))
    return SweepConfig(**kw)


def _validate_experiment(cfg: dict) -> None:
    import jsonschema
    from importlib import resources

    text = (resources.files("brolinlab") / "schemas"
            / "experiment.schema.json").read_text(encoding="utf-8")
    schema = json.loads(text)
    validator = jsonschema.Draft202012Validator(schema)
    errors = sorted(validator.iter_errors(cfg), key=lambda e: list(e.path))
    if errors:
        err = errors[0]
        where = ".".join(str(p) for p in err.path) or "<root>"
        raise MeasureSpecError(f"config key {where!r}: {err.message}")


def _print_verdicts(report, required) -> bool:
    all_ok = True
    for name, ok in report.verdicts.items():
        tag = "required" if name in required else "info"
        print(f"verdict {name}: {'pass' if ok else 'fail'} ({tag})")
        if name in required and not ok:
            all_ok = False
    return all_ok


def cmd_lab(args) -> int:
    cfg = read_json(args.config)
    _validate_experiment(cfg)
    spec = MeasureSpec.from_dict(cfg["measure"])
    label = args.label or cfg.get("label")
    if label:
        spec = dataclasses.replace(spec, label=label)
    config = _sweep_config_from(cfg, args)
    report = run_sweep(spec, cfg["degrees"], config)
    out = _out_dir(args)
    report_to_json(report, out / "report.json")
    report_to_csv(report, out / "report.csv",
                  f"config_hash={report.config_hash} seed={report.seed}")
    for n, msg in sorted(report.failures.items()):
        print(f"degree {n} failed: {msg}", file=sys.stderr)
    all_ok = _print_verdicts(report, set(config.require))
    if report.failures:
        return _failure_exit_code(report.failures[min(report.failures)])
    return EXIT_OK if all_ok else EXIT_INVALID


def cmd_report(args) -> int:
    report = report_from_json(args.report)
    out = _out_dir(args)
    report_to_csv(report, out / "report.csv",
                  f"config_hash={report.config_hash} seed={report.seed}")
    required = set(report.config.get("require", []))
    all_ok = _print_verdicts(report, required)
    return EXIT_OK if all_ok else EXIT_INVALID


# ---------------------------------------------------------------------------
# Parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="brolin-lab",
        description="orthogonal polynomial dynamics laboratory")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measure", help="measure description utilities")
    msub = p.add_subparsers(dest="subcommand", required=True)
    v = msub.add_parser("validate", help="validate a measure JSON file")
    v.add_argument("file")
    v.set_defaults(func=cmd_measure_validate)

    p = sub.add_parser("ortho", help="build an orthonormal basis")
    p.add_argument("--measure", required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--nodes", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_ortho)

    p = sub.add_parser("dyn", help="iterate a basis element and sample its "
                                   "balanced measure")
    p.add_argument("--measure", required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--samples", type=int, default=4096)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--nodes", type=int, default=None)
    p.add_argument("--grid", type=int, default=None,
                   help="also write the escape-rate grid at this resolution")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_dyn)

    p = sub.add_parser("eq", help="equilibrium measure of a planar shape")
    p.add_argument("--shape", choices=["circle", "interval", "square"])
    p.add_argument("--mask", default=None,
                   help="base path of a stored pixel mask")
    p.add_argument("--center", default="0,0")
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--endpoints", default="-1,1")
    p.add_argument("--side", type=float, default=2.0)
    p.add_argument("--atoms", type=int, default=1024,
                   help="atom count of the circle and interval closed forms; "
                        "other shapes get one atom per boundary pixel")
    p.add_argument("--resolution", type=int, default=512)
    p.add_argument("--iterations", type=int, default=4000)
    p.add_argument("--tol", type=float, default=2e-3)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eq)

    p = sub.add_parser("lab", help="run a configured degree sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--label", default=None)
    p.set_defaults(func=cmd_lab)

    p = sub.add_parser("report", help="re-render tables from a stored report")
    p.add_argument("--report", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(cls for cls, _ in _EXIT_CODES) as err:
        print(f"error: {err}", file=sys.stderr)
        return _exit_code(type(err))


if __name__ == "__main__":
    sys.exit(main())
