"""The benchmark's metric names and units, statistics helpers, and the
calibrated clock that times throughput at a fixed reference host speed.

``END_TO_END`` and ``PER_LAYER`` are the single source of the metric
names a run prints; ``BENCHMARK.json`` lists the same names (a test
keeps the two in step).
"""

from __future__ import annotations

import gc
import random
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: name -> unit of every metric printed by an untraced run.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "ops_per_ref_s": "1/s",
    "hit_ratio": "ratio",
}

#: name -> unit of every metric printed by a traced run. A layer a
#: workload never calls reports 0.
PER_LAYER: Dict[str, str] = {
    "process.peak_rss_mb": "MB",
    "models.build_library.busy_s": "s",
    "models.build_library.calls": "count",
    "sim.build_scenario.busy_s": "s",
    "sim.build_scenario.calls": "count",
    "sim.build_scenario.rss_mb": "MB",
    "network.feasibility.busy_s": "s",
    "core.sparse.nnz": "count",
    "core.sparse.nnz_zero_demand": "count",
    "core.sparse.useful_fraction": "ratio",
    "core.sparse.reachable_demand": "ratio",
    "core.spec.solve.busy_s": "s",
    "core.spec.solve.calls": "count",
    "core.spec.combinations": "count",
    "core.spec.dp_table_hits": "count",
    "core.spec.dp_table_misses": "count",
    "core.spec.dp_table_hit_ratio": "ratio",
    "core.gen.solve.busy_s": "s",
    "core.gen.solve.calls": "count",
    "core.gen.greedy_steps": "count",
    "core.gen.solve.rss_mb": "MB",
    "core.independent.solve.busy_s": "s",
    "core.independent.solve.calls": "count",
    "core.independent.greedy_steps": "count",
    "sim.evaluator.mc.busy_s": "s",
    "sim.evaluator.mc.calls": "count",
    "serve.initial_solve_s": "s",
    "serve.event.replay.busy_s": "s",
    "serve.event.replay.count": "count",
    "serve.event.fallback.busy_s": "s",
    "serve.event.fallback.count": "count",
    "serve.event.full.busy_s": "s",
    "serve.event.full.count": "count",
    "serve.event.noop.busy_s": "s",
    "serve.event.noop.count": "count",
    "serve.replay_ratio": "ratio",
    "serve.event.p50_ms": "ms",
    "serve.event.tail_ms": "ms",
    "serve.route.busy_s": "s",
    "serve.route.calls": "count",
    "serve.route.p50_us": "us",
    "serve.route.tail_us": "us",
    "traced_s": "s",
    "unattributed_s": "s",
}

#: Percentiles a tail may be reported at, lowest first.
TAIL_LADDER: Tuple[float, ...] = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil(n * q / 100)
    return ordered[int(rank) - 1]


def tail(values: Sequence[float]) -> Tuple[Optional[float], Optional[float], int]:
    """``(value, percentile, samples_beyond)`` of a sample's tail.

    The tail is the highest percentile of :data:`TAIL_LADDER` with at
    least ten samples beyond it; ``(None, None, 0)`` when the sample is
    too small for any (under 20 values).
    """
    eligible = [q for q in TAIL_LADDER if len(values) * (100.0 - q) / 100.0 >= 10]
    if not eligible:
        return None, None, 0
    q = eligible[-1]
    return percentile(values, q), q, int(len(values) * (100.0 - q) / 100.0)


#: Seconds :func:`calibration_s` takes on the reference host. Fixed for
#: good: a reference second is a second on a host of that speed, so
#: figures stay comparable from run to run and from PR to PR.
REFERENCE_CALIBRATION_S = 0.020


class _Item:
    """A small object for the calibration kernel's attribute reads."""

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b


_CALIBRATION_INPUTS: Dict[str, Any] = {}


def _calibration_inputs() -> Dict[str, Any]:
    """The kernel's fixed inputs, built once per process."""
    import numpy as np

    if not _CALIBRATION_INPUTS:
        rng = np.random.default_rng(0)
        shuffle = random.Random(0).shuffle
        # Objects and keys are shuffled so reading them walks memory.
        items = [_Item(i, i % 7) for i in range(60_000)]
        shuffle(items)
        keys = list(range(100_000))
        table = {key: 3 * key for key in keys}
        shuffle(keys)
        source = rng.random(1_000_000)
        _CALIBRATION_INPUTS.update(
            items=items[:8_000],
            table=table,
            keys=keys[:6_000],
            source=source,
            target=np.zeros_like(source),
            small=np.arange(100.0),
            mid=rng.random(20_000),
            mid_ints=rng.integers(0, 100, 20_000),
            gather=rng.random(512_000),
            gather_at=rng.integers(0, 512_000, 100_000),
        )
    return _CALIBRATION_INPUTS


def calibration_s() -> float:
    """Seconds a fixed calibration kernel takes on this host right now.

    Seven parts of about 3 ms each, mixing what the program spends its
    time on: a pure-Python loop, attribute reads over scattered objects,
    dict lookups, small-array numpy calls, mid-size numpy array ops, a
    random gather from 4 MB and an 8 MB copy and sum. It never calls the
    program, so a change to the program cannot move it; a slow spell of
    the shared host moves both.
    """
    import numpy as np

    x = _calibration_inputs()
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        total = 0
        for value in range(50_000):
            total += value * value
        total += sum(item.a * item.b for item in x["items"])
        table = x["table"]
        total += sum(table[key] for key in x["keys"])
        small = x["small"]
        for _ in range(1000):
            (small * 2.0 + 1.0).max()
        mid, mid_ints = x["mid"], x["mid_ints"]
        for _ in range(20):
            picked = np.repeat(mid_ints[np.flatnonzero(mid > 0.5)], 2)
            np.cumsum(picked)
            np.searchsorted(mid[:1000].cumsum(), picked[:1000])
        for _ in range(4):
            x["gather"].take(x["gather_at"]).sum()
        for _ in range(2):
            np.copyto(x["target"], x["source"])
            x["target"].sum()
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


def settled_calibration_s() -> float:
    """:func:`calibration_s` after one warm-up run of the kernel."""
    calibration_s()
    return calibration_s()


def at_reference_s(seconds: float, calibration: float) -> float:
    """``seconds`` measured while the kernel took ``calibration``, at the
    reference host speed."""
    return seconds * REFERENCE_CALIBRATION_S / calibration


class CalibratedClock:
    """Wall time of a timed phase, and the same at the reference speed.

    :meth:`lap` cuts the phase into segments (an op, or a few requests)
    and runs the calibration kernel between them, outside the timed
    work. A segment's reference time is its wall time scaled by
    ``REFERENCE_CALIBRATION_S`` over the mean of the calibrations just
    before and just after it, so the host's speed during that segment
    drops out while the program's own cost stays in.
    """

    def __init__(self) -> None:
        self.work: List[float] = []
        self.calibrations: List[float] = [settled_calibration_s()]
        self._mark = time.perf_counter()

    def lap(self) -> None:
        """End the running segment and start the next one."""
        self.work.append(time.perf_counter() - self._mark)
        self.calibrations.append(calibration_s())
        self._mark = time.perf_counter()

    def wall_s(self) -> float:
        """Summed wall time of the segments (calibrations left out)."""
        return sum(self.work)

    def reference_s(self) -> float:
        """Summed segment times at the reference host speed."""
        return sum(
            at_reference_s(work, (before + after) / 2.0)
            for work, before, after in zip(
                self.work, self.calibrations, self.calibrations[1:]
            )
        )
