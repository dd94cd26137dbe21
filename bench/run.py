"""brolin-lab benchmark: one workload per call, end-to-end or per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload sweep-arcsine --seed 1 --seconds 15 --trace 0

The workload runs in this process, closed loop (one caller, the next run
starts when the previous one has finished), repeated until ``--seconds``
have passed and at least twice.  Every run's outputs are checked, and its
output files must be byte-identical to the first run's.  ``--trace 0``
reports run_s, setup_s and peak_rss_mb; ``--trace 1`` alternates untraced
and traced runs and reports per-layer metrics from the traced ones (see
tracer.py).  The last line of standard output is one JSON object.

Set-up is timed in fresh interpreters: importing brolinlab and building the
workload's inputs from the seed, the cost every command-line call pays.
A record of each run (environment, timings, failures, spans) is written to
``.bench_out/`` at the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("sweep-arcsine", "sweep-circle", "ortho-eq-green")
SETUP_REPEATS = 7
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import brolinlab
import workloads
workloads.WORKLOADS[sys.argv[3]].build(int(sys.argv[4]), sys.argv[5])
print(time.perf_counter() - t0)
"""


def setup_seconds(name: str, seed: int, size: str) -> list[float]:
    """Set-up time of ``SETUP_REPEATS`` fresh interpreters, one after another."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(BENCH), name,
             str(seed), size],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]))
    return times


def outputs_digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode())
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()


def measure(name: str, seed: int, seconds: float, trace: bool,
            size: str = "bench") -> dict:
    """Run workload ``name`` repeatedly for ``seconds``; check every run.

    Returns the untraced and traced run times, the operation and check
    counts, the failures, and (when tracing) the spans of each traced run.
    """
    from workloads import WORKLOADS  # imports brolinlab

    workload = WORKLOADS[name]
    inputs = workload.build(seed, size)
    out = OUT_ROOT / f"{name}-{os.getpid()}"
    plain, traced, spans, errors = [], [], [], []
    attempted = failed = 0
    first_digest = None
    start = time.perf_counter()
    try:
        while True:
            tracing = trace and len(traced) < len(plain)
            recorder = tracer.Recorder() if tracing else None
            shutil.rmtree(out, ignore_errors=True)
            out.mkdir(parents=True)
            with (tracer.installed(recorder) if recorder
                  else contextlib.nullcontext()):
                t0 = time.perf_counter()
                try:
                    outcome = workload.run(inputs, out)
                except Exception as err:  # the run is one failed operation
                    outcome = None
                    errors.append(f"run: {type(err).__name__}: {err}")
                elapsed = time.perf_counter() - t0
            (traced if recorder else plain).append(elapsed)
            if recorder:
                spans.append(recorder.spans)

            if outcome is None:
                attempted += 1
                failed += 1
            else:
                checks = workload.check(inputs, outcome.values)
                errors += outcome.errors + [f"check failed: {c}"
                                            for c, ok in checks if not ok]
                attempted += outcome.operations + len(checks)
                failed += len(outcome.errors) + sum(not ok for _, ok in checks)
            digest = outputs_digest(out)
            if first_digest is None:
                first_digest = digest
            else:
                attempted += 1
                if digest != first_digest:
                    failed += 1
                    errors.append("check failed: output files differ from the "
                                  "first run's")

            runs_done = len(traced) >= 1 if trace else len(plain) >= 2
            if runs_done and time.perf_counter() - start >= seconds:
                break
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return {"plain": plain, "traced": traced, "spans": spans,
            "attempted": attempted, "failed": failed, "errors": errors}


def layer_report(result: dict) -> dict[str, float]:
    """Per-layer metrics: the median over traced runs of each value."""
    per_run = [tracer.layer_metrics(s) for s in result["spans"]]
    out = {k: statistics.median(m[k] for m in per_run) for k in per_run[0]}
    out["trace.run_s"] = statistics.median(result["traced"])
    out["trace.overhead_s"] = out["trace.run_s"] - statistics.median(result["plain"])
    return out


def git_commit(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:  # not a git checkout
        pass
    return None


def environment() -> dict:
    import mpmath
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS")},
        "git_commit": git_commit(ROOT),
        "loadavg_before": os.getloadavg(),
    }


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("bench", "tiny"), default="bench",
                        help="tiny runs each workload at smoke-test size")
    args = parser.parse_args(argv)

    if not (SRC / "brolinlab" / "__init__.py").is_file():
        print(f"error: no brolinlab package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = environment()
    setup = setup_seconds(args.workload, args.seed, args.size)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     args.size)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted, failed = result["attempted"], result["failed"]
    run_s = statistics.median(result["plain"])
    setup_s = statistics.median(setup)
    if args.trace:
        metrics = {k: metric(v, tracer.unit(k))
                   for k, v in layer_report(result).items()}
    else:
        metrics = {"run_s": metric(run_s, "s"), "setup_s": metric(setup_s, "s"),
                   "peak_rss_mb": metric(peak_rss_mb, "MiB")}

    OUT_ROOT.mkdir(exist_ok=True)
    record = OUT_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(
        {"args": vars(args), "environment": env, "setup_s": setup,
         **{k: result[k] for k in ("plain", "traced", "attempted", "failed",
                                   "errors")},
         "metrics": metrics,
         "spans": [[vars(s) for s in run] for run in result["spans"]]},
        indent=1) + "\n")

    for err in result["errors"]:
        print(f"failure: {err}")
    print(f"environment: {json.dumps(env)}")
    print(f"{args.workload} seed {args.seed}: "
          f"run_s {run_s:.4f} s (median of {len(result['plain'])}), "
          f"setup_s {setup_s:.4f} s (median of {len(setup)}), "
          f"peak_rss_mb {peak_rss_mb:.1f} MiB, "
          f"failure_rate {failed / attempted:.4g} ratio "
          f"({failed} of {attempted})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
