"""Tests of the benchmark itself: replay fidelity, checks, output format.

Kept small enough to run with the repository's test suite.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from perfbench import metrics  # noqa: E402
from perfbench.metrics import END_TO_END, PER_LAYER, CalibratedClock, tail  # noqa: E402
from perfbench.spans import SpanRecorder  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    WORKLOADS,
    SweepWorkload,
    TimedBackend,
    replay_sweep,
    scratch_mismatches,
    serve_deployment,
    serve_pass,
    series_payload,
)
from repro.api import ExperimentPlan, SweepSpec, run_plan  # noqa: E402
from repro.serve import resolve_from_scratch  # noqa: E402
from repro.sim import experiments  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_benchmark_json_matches_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    names = [w["name"] for w in spec["workloads"]]
    for section in ("end_to_end", "per_layer"):
        names += [m["name"] for m in spec[section]]
        for metric in spec[section]:
            assert UNIT.match(metric["unit"]), metric
            assert metric["better"] in ("higher", "lower"), metric
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_traced_replay_folds_to_run_plan_series():
    plans = [
        experiments.fig4a_plan(num_topologies=1, capacities_gb=(0.5, 1.0), seed=3),
        experiments.fig5a_plan(
            num_topologies=1,
            capacities_gb=(0.75,),
            seed=3,
            evaluation="monte_carlo",
            num_realizations=20,
        ),
    ]
    for plan in plans:
        rec = SpanRecorder()
        series, cells, reachable = replay_sweep(plan, rec)
        assert series_payload(series) == series_payload(run_plan(plan).series)
        assert len(cells) == len(plan.sweep.points)
        assert 0.0 < reachable <= 1.0
        assert rec.calls("sim.build_scenario") == len(cells)
    assert rec.calls("sim.evaluator.mc") == 2  # gen + independent


def test_timed_backend_keeps_serial_series_and_times_each_cell():
    plan = experiments.fig5a_plan(num_topologies=2, capacities_gb=(0.5,), seed=4)
    backend = TimedBackend(CalibratedClock())
    timed = run_plan(plan, backend=backend)
    assert series_payload(timed.series) == series_payload(run_plan(plan).series)
    assert len(backend.seconds) == len(backend.outcomes) == 2


def test_serve_pass_equals_resolve_from_scratch():
    deployment = serve_deployment(seed=2, num_events=40)
    run = serve_pass(deployment.service, deployment)
    records = resolve_from_scratch(deployment.scenario, deployment.events)
    assert [r.hit_ratio for r in records] == run.hit_ratios
    assert np.array_equal(
        records[-1].placement.matrix, deployment.service.state.placement.matrix
    )
    assert scratch_mismatches(deployment, run) == 0


def test_printed_metrics_match_benchmark_json():
    for trace, names in (("0", END_TO_END), ("1", PER_LAYER)):
        completed = run_bench(
            "--workload", "serve", "--seed", "5", "--seconds", "1", "--trace", trace
        )
        assert completed.returncode == 0, completed.stderr
        lines = completed.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {n: m["unit"] for n, m in result["metrics"].items()} == names
        record = json.loads(lines[-2])["record"]
        assert {"git_sha", "code_version_salt", "numpy", "nproc"} <= set(record)


def test_degenerate_scenario_fails_the_run():
    # Thousands of users sharing the paper's K=30 radio budget: nearly no
    # request meets its deadline, so the run must fail rather than score.
    plan = ExperimentPlan(
        name="unscaled radio",
        solvers=tuple(experiments.general_solvers()),
        sweep=SweepSpec("num_users", (3000,)),
        base={"library_case": "general", "num_models": 30, "requests_per_user": 10},
        num_topologies=1,
        seed=1,
    )
    workload = SweepWorkload("degenerate", lambda seed, seconds: [plan])
    outcome = workload.run_timed([plan], seed=1, seconds=1)
    assert outcome.checks["hit_ratio_not_degenerate"] is False
    assert not outcome.correct and outcome.failed >= 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    completed = run_bench(
        "--workload", "serve", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path,
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""


def test_tail_needs_ten_samples_beyond():
    values = list(range(1, 101))
    assert tail(values) == (90, 90.0, 10)
    assert tail(values[:19]) == (None, None, 0)


def test_calibrated_clock_scales_each_segment_by_its_calibrations(monkeypatch):
    # The first reading warms the kernel and is dropped; each segment is
    # scaled by the mean of the calibrations on either side of it.
    readings = iter([9.0, 0.01, 0.03, 0.02])
    monkeypatch.setattr(metrics, "calibration_s", lambda: next(readings))
    clock = CalibratedClock()
    clock.lap()
    clock.lap()
    clock.work = [1.0, 2.0]
    assert clock.calibrations == [0.01, 0.03, 0.02]
    assert clock.wall_s() == 3.0
    reference = metrics.REFERENCE_CALIBRATION_S
    assert clock.reference_s() == 1.0 * reference / 0.02 + 2.0 * reference / 0.025
