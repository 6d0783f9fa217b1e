"""Run one benchmark workload and print its metrics as JSON.

Usage, from the repository root::

    python3 perfbench/run.py --workload fig4a --seed 1 --seconds 20 --trace 0

``--trace 0`` times the workload and prints the end-to-end metrics;
``--trace 1`` replays it once with a span around every layer call and
prints the per-layer metrics. Both check the outputs. The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it is the run record (provenance, checks, details),
which is also written under ``.perfbench/``. See ``perfbench/WORKLOADS.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
#: Fresh-interpreter set-up probes per run: half before the timed
#: phase, half after it. With the set-up in this process they give the
#: samples whose median is ``setup_s``.
SETUP_PROBES = 4
#: BLAS threads: pinned to one, so a run's CPU time matches its wall.
BLAS_THREADS = "1"
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="only time the workload's set-up and print it (internal)",
    )
    return parser.parse_args(argv)


def source_digest() -> str:
    """sha256 over the ``repro`` package sources (path + bytes)."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha() -> str:
    """The checkout's commit, or ``"unknown"`` outside a git work tree."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return completed.stdout.strip() if completed.returncode == 0 else "unknown"


def provenance(args) -> dict:
    """Which code, machine and settings produced this run."""
    import numpy

    from repro.exec.store import CODE_VERSION_SALT

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "code_version_salt": CODE_VERSION_SALT,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "blas_threads": {name: os.environ.get(name) for name in BLAS_VARIABLES},
        "date_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def timed_setup(workload, args) -> tuple:
    """The workload's inputs, and its set-up time at the reference speed
    (the calibration kernel runs right after the set-up)."""
    from perfbench.metrics import at_reference_s, settled_calibration_s

    start = time.perf_counter()
    inputs = workload.setup(args.seed, args.seconds)
    elapsed = time.perf_counter() - start
    return inputs, at_reference_s(elapsed, settled_calibration_s())


def setup_sample(args) -> float:
    """Reference set-up seconds of one fresh interpreter (a probe
    subprocess)."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--setup-probe",
    ]
    completed = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True
    )
    return float(json.loads(completed.stdout.strip().splitlines()[-1])["setup_s"])


def run(args) -> tuple:
    """The printed result and the run record of one run."""
    from perfbench.metrics import END_TO_END, PER_LAYER
    from perfbench.spans import SpanRecorder
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    if args.trace:
        rec = SpanRecorder()
        outcome = workload.run_traced(args.seed, args.seconds, rec)
        rec.write(OUT_DIR / f"{args.workload}-seed{args.seed}-spans.json")
        names = PER_LAYER
    else:
        # The samples straddle the timed phase so no one slow spell of the
        # host covers them all; each is scaled to the reference speed.
        samples = [setup_sample(args) for _ in range(SETUP_PROBES // 2)]
        inputs, sample = timed_setup(workload, args)
        samples.append(sample)
        outcome = workload.run_timed(inputs, args.seed, args.seconds)
        samples += [setup_sample(args) for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
        outcome.metrics["setup_s"] = statistics.median(samples)
        outcome.details["setup_samples_s"] = samples
        names = END_TO_END
    missing = sorted(set(names) - set(outcome.metrics))
    if missing:
        outcome.errors.append(f"metrics not measured: {missing}")
    metrics = {
        name: {"value": float(outcome.metrics.get(name, 0.0)), "unit": unit}
        for name, unit in names.items()
    }
    record = {
        **provenance(args),
        "checks": outcome.checks,
        "errors": outcome.errors,
        "details": outcome.details,
    }
    result = {
        "correct": outcome.correct and not outcome.errors,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    return result, record


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    for name in BLAS_VARIABLES:
        os.environ[name] = BLAS_THREADS
    for path in (str(ROOT), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    if args.setup_probe:
        _, sample = timed_setup(WORKLOADS[args.workload], args)
        print(json.dumps({"setup_s": sample}))
        return 0
    try:
        result, record = run(args)
    except Exception:  # the program under test failed: report, not crash
        traceback.print_exc()
        from perfbench.metrics import END_TO_END, PER_LAYER

        names = PER_LAYER if args.trace else END_TO_END
        result = {
            "correct": False,
            "attempted": 1,
            "failed": 1,
            "metrics": {n: {"value": 0.0, "unit": u} for n, u in names.items()},
        }
        record = {"workload": args.workload, "seed": args.seed, "error": traceback.format_exc()}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str)
    )
    print(json.dumps({"record": record}, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
