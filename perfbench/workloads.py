"""The benchmark's workloads: seeded inputs, timed passes, traced replay.

Every workload runs a fixed, seeded list of ops to completion — never a
time box — so two runs with one seed do identical work. The timed run of
a sweep makes one pass over that list, ``serve`` a few; a
:class:`~perfbench.metrics.CalibratedClock` times them, so throughput is
reported at a fixed reference host speed. The traced run replays the
list once through the layers' public functions, one span per call.

``repro`` and ``numpy`` are imported inside the functions, never at
module level: ``setup_s`` is timed from just before the first import.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from perfbench.metrics import PER_LAYER, CalibratedClock, tail
from perfbench.spans import SpanRecorder

#: ``serve``: passes over the request list in one timed run.
REPEATS = 3
#: A workload whose mean hit ratio falls below this is degenerate.
MIN_HIT_RATIO = 0.05
#: The seed and run length the recorded output digests belong to.
DIGEST_SEED = 0
DIGEST_SECONDS = 15
DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"

#: ``scale``: users, chunk size and library shape (paper I=300, r=30).
SCALE_USERS = 5000
SCALE_CHUNK = 2048
#: ``serve``: route queries after each event. This read:write mix is an
#: assumption, not measured traffic: neither the paper nor the service
#: states one. 200 reads take about a sixth of the client's time, so both
#: paths move ``ops_per_s`` while events stay over 80% of busy time.
ROUTES_PER_EVENT = 200
#: ``serve``: events per second of ``--seconds``, shared out over the
#: passes and deployments; from-scratch checks per deployment.
SERVE_EVENTS_PER_S = 50
#: ``serve``: events (each with its route reads) per calibrated segment.
SERVE_LAP_EVENTS = 8
SERVE_CHECKPOINTS = 8
#: Deployments (seeded scenario + service + trace) one serve run cycles
#: through, and the length of the golden seed-0 trace.
SERVE_DEPLOYMENTS = 4
GOLDEN_SERVE_EVENTS = 40


def peak_rss_mb() -> float:
    """This process's high-water resident set size in MB (Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Outcome:
    """What one run did, measured and checked."""

    attempted: int
    failed: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    checks: Dict[str, bool] = field(default_factory=dict)
    details: Dict[str, Any] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)

    def check(self, name: str, ok: bool, failed_ops: int) -> None:
        """Record a named check; a failing one adds ``failed_ops``."""
        self.checks[name] = bool(ok)
        if not ok:
            self.failed += failed_ops

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(self.checks.values())


# ----------------------------------------------------------------------
# Output digests and model health
# ----------------------------------------------------------------------
def digest(payload: Any) -> str:
    """sha256 of a JSON-ready payload (floats given as ``float.hex``)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def series_payload(series: Dict[str, Any]) -> Dict[str, Any]:
    """Exact (hex) means and stds of a ``{label: SeriesStats}`` map."""
    return {
        label: {
            "means": [float(v).hex() for v in stats.means],
            "stds": [float(v).hex() for v in stats.stds],
        }
        for label, stats in series.items()
    }


def recorded_digest(workload: str, key: str) -> Optional[str]:
    """A digest recorded with the benchmark (``None`` if absent).

    ``key`` is ``"golden"`` (the fixed golden op every run re-checks) or
    ``"run"`` (the whole run at ``DIGEST_SEED``/``DIGEST_SECONDS``).
    """
    return json.loads(DIGESTS_PATH.read_text()).get(workload, {}).get(key)


def check_digests(outcome, workload, run_digest: str, seed: int, seconds: int,
                  ops: int) -> None:
    """Compare the run's and the golden op's outputs with the records."""
    outcome.details["run_digest"] = run_digest
    if seed == DIGEST_SEED and seconds == DIGEST_SECONDS:
        outcome.check("run_digest", run_digest == recorded_digest(workload.name, "run"), ops)
    golden = workload.golden()
    outcome.details["golden_digest"] = golden
    outcome.attempted += 1
    outcome.check("golden_digest", golden == recorded_digest(workload.name, "golden"), 1)


def sparse_health(instance) -> Tuple[int, int, float]:
    """``(nnz, nnz_zero_demand, reachable_demand)`` of an instance.

    Counted from outside through ``column_entries``: entries whose
    (user, model) pair has zero demand, and the share of total demand
    with at least one feasible server.
    """
    import numpy as np

    sparse = instance.sparse_feasible
    demand = instance.demand
    nnz = zero = 0
    reachable = 0.0
    for model in range(instance.num_models):
        _, users = sparse.column_entries(model)
        column = demand[:, model]
        nnz += int(users.size)
        zero += int(np.count_nonzero(column[users] == 0))
        reachable += float(column[np.unique(users)].sum())
    return nnz, zero, reachable / float(demand.sum())


# ----------------------------------------------------------------------
# Sweeps (fig4a, fig5a_mc, scale): ops are (point, topology) grid cells
# ----------------------------------------------------------------------
class TimedBackend:
    """The serial execution order, plus each task's wall time and outcome.

    An :class:`~repro.exec.backends.ExecutionBackend`: ``run_plan``
    hands it one task per grid cell, in grid order; each task ends a
    segment of ``clock``.
    """

    name = "serial"

    def __init__(self, clock: CalibratedClock) -> None:
        self.clock = clock
        self.seconds: List[float] = []
        self.outcomes: List[Any] = []

    def map(self, fn: Callable[[Any], Any], payloads) -> Any:
        for payload in payloads:
            start = time.perf_counter()
            outcome = fn(payload)
            self.seconds.append(time.perf_counter() - start)
            self.outcomes.append(outcome)
            self.clock.lap()
            yield outcome


def cell_scores(outcome) -> Dict[str, str]:
    """``{label: score.hex()}`` of one one-topology grid task outcome."""
    (per_algo,) = outcome
    return {label: float(score).hex() for label, (score, _) in per_algo.items()}


def replay_sweep(plan, rec: SpanRecorder, first_cell_only: bool = False,
                 probes: bool = True):
    """Run a sweep plan's grid cell by cell through the layers' functions.

    Replays the seed derivation and loop order of ``run_plan`` (library
    per point, scenario per cell, each solver then its evaluation) with
    a span around every layer call. Returns ``(series, cells, health)``:
    the folded ``{label: SeriesStats}``, ``{label: score.hex()}`` per
    cell, and the lowest reachable-demand share seen (1.0 without
    ``probes``, which skip the second feasibility build and the counts).
    """
    from repro.api.plan import resolve_axis
    from repro.api.registry import SOLVERS
    from repro.sim.evaluator import PlacementEvaluator
    from repro.sim.runner import library_rng_tag, scenario_seed
    from repro.sim.scenario import build_library, build_scenario
    from repro.utils.rng import RngFactory
    from repro.utils.stats import SeriesStats

    if plan.evaluation not in ("expected", "monte_carlo"):
        raise ValueError(f"cannot replay evaluation {plan.evaluation!r}")
    axis = resolve_axis(plan.sweep.axis)
    base = plan.base_config()
    kinds = {spec.resolved_label(SOLVERS): spec.solver for spec in plan.solvers}
    algorithms = plan.algorithms(SOLVERS)
    points = list(plan.sweep.points)
    series = {label: SeriesStats(points) for label in algorithms}
    cells: List[Dict[str, str]] = []
    lowest_reachable = 1.0
    for x_index, value in enumerate(points):
        config = axis.apply(base, value, plan.scale)
        with rec.span("models.build_library"):
            library = build_library(
                config, RngFactory(plan.seed).child(library_rng_tag(x_index))
            )
        for topology in range(plan.num_topologies):
            seed = scenario_seed(plan.seed, x_index, topology)
            with rec.span("sim.build_scenario"):
                scenario = build_scenario(
                    config, seed, library=library, feasibility=plan.feasibility
                )
            rec.counts.setdefault("sim.build_scenario.rss_mb", peak_rss_mb())
            if probes:
                with rec.span("network.feasibility", probe=True):
                    if config.chunk_size is not None:
                        scenario.latency_model.feasibility_sparse_chunked(
                            config.chunk_size
                        )
                    else:
                        scenario.latency_model.feasibility_sparse()
                with rec.span("core.sparse.count", probe=True):
                    nnz, zero, reachable = sparse_health(scenario.instance)
                rec.count("core.sparse.nnz", nnz)
                rec.count("core.sparse.nnz_zero_demand", zero)
                lowest_reachable = min(lowest_reachable, reachable)
            scores: Dict[str, str] = {}
            for label, solver in algorithms.items():
                kind = kinds[label]
                with rec.span(f"core.{kind}.solve"):
                    result = solver.solve(scenario.instance)
                count_solver_stats(rec, kind, result.stats)
                if kind == "gen":
                    rec.counts.setdefault("core.gen.solve.rss_mb", peak_rss_mb())
                if plan.evaluation == "monte_carlo":
                    with rec.span("sim.evaluator.mc"):
                        score = PlacementEvaluator(scenario).monte_carlo_hit_ratio(
                            result.placement, plan.num_realizations, seed
                        ).mean
                else:
                    score = result.hit_ratio
                series[label].add(x_index, score)
                scores[label] = float(score).hex()
            cells.append(scores)
            if first_cell_only:
                return series, cells, lowest_reachable
    return series, cells, lowest_reachable


def count_solver_stats(rec: SpanRecorder, kind: str, stats: Dict[str, Any]) -> None:
    """Fold a ``SolverResult.stats`` dict into the traced counts."""
    if kind == "spec":
        rec.count("core.spec.combinations", stats.get("num_combinations", 0))
        rec.count("core.spec.dp_table_hits", stats.get("knapsack_cache_hits", 0))
        rec.count("core.spec.dp_table_misses", stats.get("knapsack_cache_misses", 0))
    elif kind in ("gen", "independent"):
        rec.count(f"core.{kind}.greedy_steps", stats.get("greedy_steps", 0))


@dataclass
class SweepWorkload:
    """Sweep plans run through ``run_plan``; an op is one grid cell.

    ``make_plans(seed, seconds)`` gives plans of one grid shape, each
    with its own root seed, run once in order. ``ops_per_ref_s`` is every
    cell of every plan over the reference time of that whole pass, so
    each costly library or topology counts in full; each cell is its own
    calibrated segment.
    """

    name: str
    make_plans: Callable[[int, int], List[Any]]

    def setup(self, seed: int, seconds: int) -> List[Any]:
        import repro  # noqa: F401  (the import is part of set-up)

        return self.make_plans(seed, seconds)

    def run_timed(self, plans, seed: int, seconds: int) -> Outcome:
        from repro.api import run_plan

        positions = grid_cells(plans[0])
        if any(grid_cells(plan) != positions for plan in plans):
            raise ValueError("a sweep workload's plans must share one grid shape")
        cells = positions * len(plans)
        outcome = Outcome(attempted=cells)
        series: List[Any] = []
        cell_seconds: List[float] = []
        scores: List[Dict[str, str]] = []
        gc.collect()
        clock = CalibratedClock()
        for plan in plans:
            backend = TimedBackend(clock)
            try:
                series.append(run_plan(plan, backend=backend).series)
            except Exception as exc:  # a failing plan is counted, not fatal
                outcome.failed += positions - len(backend.seconds)
                outcome.errors.append(repr(exc))
            cell_seconds.extend(backend.seconds)
            scores.extend(cell_scores(o) for o in backend.outcomes)
        clock.lap()
        peak = peak_rss_mb()
        if len(series) != len(plans):
            return outcome
        self._check_outputs(outcome, series, seed, seconds, cells)
        if positions > 1:
            # Outside the timed phase: the first cell rebuilt from the
            # layers' public functions must score the same bits (skipped
            # where that cell is a whole, costly plan).
            _, replayed, reachable = replay_sweep(
                plans[0], SpanRecorder(), first_cell_only=True
            )
            outcome.check("first_cell_replays", replayed[0] == scores[0], 1)
            outcome.check("demand_reachable", reachable > 0.0, cells)
        outcome.metrics.update(
            ops_per_ref_s=cells / clock.reference_s(),
            hit_ratio=outcome.details["mean_hit_ratio"],
        )
        value, q, beyond = tail(cell_seconds)
        outcome.details.update(
            op_p50_ms=statistics.median(cell_seconds) * 1e3,
            peak_rss_mb=peak,
            plans=len(plans),
            ops=cells,
            wall_s=clock.wall_s(),
            ops_per_s=cells / clock.wall_s(),
            calibrations_s=clock.calibrations,
            cell_seconds=cell_seconds,
            op_tail_ms=value * 1e3 if value is not None else None,
            op_tail_percentile=q,
            op_tail_beyond=beyond,
        )
        return outcome

    def run_traced(self, seed: int, seconds: int, rec: SpanRecorder) -> Outcome:
        from repro.api import run_plan

        plans = self.make_plans(seed, seconds)
        cells = sum(grid_cells(plan) for plan in plans)
        outcome = Outcome(attempted=cells)
        gc.collect()
        start = time.perf_counter()
        replays = [replay_sweep(plan, rec) for plan in plans]
        traced = time.perf_counter() - start - rec.probe_seconds()
        peak = peak_rss_mb()
        series = [replayed for replayed, _, _ in replays]
        reachable = min(lowest for _, _, lowest in replays)
        # The replay must fold to exactly what run_plan reports (checked
        # on the first plan, outside the traced phase).
        reference = run_plan(plans[0])
        outcome.check(
            "replay_matches_run_plan",
            digest(series_payload(series[0]))
            == digest(series_payload(reference.series)),
            grid_cells(plans[0]),
        )
        self._check_outputs(outcome, series, seed, seconds, cells)
        outcome.check("demand_reachable", reachable > 0.0, cells)
        outcome.metrics.update(layer_metrics(rec, traced, peak))
        nnz = rec.counts.get("core.sparse.nnz", 0)
        outcome.metrics["core.sparse.reachable_demand"] = reachable
        outcome.metrics["core.sparse.useful_fraction"] = (
            (nnz - rec.counts.get("core.sparse.nnz_zero_demand", 0)) / nnz if nnz else 0.0
        )
        outcome.details.update(layer_shares(rec))
        return outcome

    def golden(self) -> str:
        """Digest of the seed-0 first cell, replayed through the layers."""
        plan = self.make_plans(DIGEST_SEED, DIGEST_SECONDS)[0]
        _, cells, _ = replay_sweep(plan, SpanRecorder(), first_cell_only=True,
                                   probes=False)
        return digest(cells[0])

    def _check_outputs(self, outcome, series, seed, seconds, cells) -> None:
        """Digests against the recorded ones, and the degenerate guard."""
        check_digests(outcome, self, sweep_digest(series), seed, seconds, cells)
        values = [float(v) for plan in series for stats in plan.values()
                  for v in stats.means]
        hit = sum(values) / len(values)
        outcome.details["mean_hit_ratio"] = hit
        outcome.check("hit_ratio_not_degenerate", hit >= MIN_HIT_RATIO, cells)


def grid_cells(plan) -> int:
    """Number of (point, topology) cells of a sweep plan."""
    return len(plan.sweep.points) * plan.num_topologies


def sweep_digest(series: List[Dict[str, Any]]) -> str:
    """Digest of the series of every plan of a pass, in order."""
    return digest([series_payload(plan) for plan in series])


def plan_seeds(seed: int, count: int) -> List[int]:
    """Root seeds of the plans (or deployments) a workload seed stands for.

    Drawn from ``numpy.random.SeedSequence(seed)``, whose output is fixed
    by its specification, so the inputs do not depend on the interpreter.
    """
    import numpy as np

    return [int(word) % 2**31 for word in np.random.SeedSequence(seed).generate_state(count)]


def plans_for(seconds: int, plan_s: float, load: float = 1.0) -> int:
    """How many plans of ``plan_s`` seconds fill ``load * seconds``."""
    return max(1, round(load * seconds / plan_s))


def _fig4a_plans(seed: int, seconds: int) -> List[Any]:
    from repro.sim import experiments

    # Spec's cost swings from library to library (about 13% per plan), so
    # this workload plans for 1.8 times ``--seconds`` to average over more.
    return [
        experiments.fig4a_plan(num_topologies=1, seed=plan_seed)
        for plan_seed in plan_seeds(seed, plans_for(seconds, 5 * 0.7, load=1.8))
    ]


def _fig5a_mc_plans(seed: int, seconds: int) -> List[Any]:
    from repro.sim import experiments

    return [
        experiments.fig5a_plan(num_topologies=1, seed=plan_seed, evaluation="monte_carlo")
        for plan_seed in plan_seeds(seed, plans_for(seconds, 5 * 0.95))
    ]


def _scale_plans(seed: int, seconds: int) -> List[Any]:
    from repro.api import ExperimentPlan, SweepSpec
    from repro.sim import experiments
    from repro.sim.config import ScenarioConfig

    paper = ScenarioConfig()
    # A plan's cost follows its feasibility density (12% from plan to
    # plan), so this workload plans for 7/3 of ``--seconds``.
    # Radio resources grow with K so each user's share stays at the
    # paper's K=30 level; unscaled, the feasibility set empties.
    radio = SCALE_USERS / paper.num_users
    base = {
        "library_case": "general",
        "num_models": experiments.PAPER_LIBRARY_SIZE,
        "requests_per_user": experiments.PAPER_REQUESTS_PER_USER,
        "num_servers": 10,
        "total_bandwidth_hz": paper.total_bandwidth_hz * radio,
        "total_power_watts": paper.total_power_watts * radio,
        "rng_scheme": "v2",
        "chunk_size": SCALE_CHUNK,
    }
    return [
        ExperimentPlan(
            name="scale — general case at K=5,000",
            solvers=tuple(experiments.general_solvers()),
            sweep=SweepSpec("num_users", (SCALE_USERS,)),
            base=base,
            num_topologies=1,
            seed=plan_seed,
        )
        for plan_seed in plan_seeds(seed, plans_for(seconds, 5.0, load=7 / 3))
    ]


# ----------------------------------------------------------------------
# serve: one closed-loop client on resident placement services
# ----------------------------------------------------------------------
@dataclass
class Deployment:
    """One served scenario: warm service, event trace, route queries."""

    scenario: Any
    service: Any
    events: List[Any]
    queries: List[List[Tuple[int, int]]]
    checkpoints: List[int]

    @property
    def requests(self) -> int:
        return len(self.events) * (1 + ROUTES_PER_EVENT)


def serve_deployment(seed: int, num_events: int,
                     rec: Optional[SpanRecorder] = None) -> Deployment:
    """Scenario, warm service, event trace and route queries for a seed."""
    import numpy as np

    from repro.serve import PlacementService, generate_event_trace
    from repro.sim.config import ScenarioConfig
    from repro.sim.experiments import PAPER_LIBRARY_SIZE, PAPER_REQUESTS_PER_USER
    from repro.sim.scenario import build_scenario

    rec = rec or SpanRecorder()
    config = ScenarioConfig(
        num_models=PAPER_LIBRARY_SIZE, requests_per_user=PAPER_REQUESTS_PER_USER
    )
    with rec.span("sim.build_scenario"):
        scenario = build_scenario(config, seed)
    with rec.span("serve.init"):
        service = PlacementService(scenario)
    events = list(generate_event_trace(scenario, num_events, seed))
    rng = np.random.default_rng([seed, 1])
    users = rng.integers(config.num_users, size=(num_events, ROUTES_PER_EVENT))
    models = rng.integers(config.num_models, size=(num_events, ROUTES_PER_EVENT))
    queries = [list(zip(u.tolist(), m.tolist())) for u, m in zip(users, models)]
    checkpoints = sorted(
        {round(x) for x in np.linspace(0, num_events - 1, SERVE_CHECKPOINTS)}
    )
    return Deployment(scenario, service, events, queries, checkpoints)


def serve_deployments(seed: int, seconds: int,
                      rec: Optional[SpanRecorder] = None) -> List[Deployment]:
    """The deployments one serve run cycles through."""
    num_events = max(10, round(seconds * SERVE_EVENTS_PER_S / (REPEATS * SERVE_DEPLOYMENTS)))
    return [serve_deployment(deployment_seed, num_events, rec)
            for deployment_seed in plan_seeds(seed, SERVE_DEPLOYMENTS)]


@dataclass
class ServePass:
    """One pass of the client over a deployment's event trace."""

    latencies: List[float]
    event_latencies: List[float]
    route_latencies: List[float]
    modes: List[str]
    hit_ratios: List[float]
    answers: List[Optional[int]]
    snapshots: Dict[int, Any]


def serve_pass(service, deployment: Deployment,
               rec: Optional[SpanRecorder] = None,
               clock: Optional[CalibratedClock] = None) -> ServePass:
    """Apply every event, each followed by its route queries.

    Untraced (``rec is None``), each request is timed with two clock
    reads; traced, each is a span named after the layer and event mode.
    With a ``clock``, every ``SERVE_LAP_EVENTS`` events (with their
    reads) end a calibrated segment.
    """
    perf = time.perf_counter
    latencies: List[float] = []
    event_latencies: List[float] = []
    route_latencies: List[float] = []
    modes: List[str] = []
    hits: List[float] = []
    answers: List[Optional[int]] = []
    snapshots: Dict[int, Any] = {}
    checkpoints = set(deployment.checkpoints)
    for index, event in enumerate(deployment.events):
        if rec is None:
            t0 = perf()
            result = service.process(event)
            elapsed = perf() - t0
        else:
            with rec.span("serve.event") as span:
                result = service.process(event)
            span[0] = f"serve.event.{result.mode}"
            elapsed = span[2] - span[1]
        latencies.append(elapsed)
        event_latencies.append(elapsed)
        modes.append(result.mode)
        hits.append(result.hit_ratio)
        if index in checkpoints:
            snapshots[index] = service.state.placement.matrix.copy()
        for user, model in deployment.queries[index]:
            if rec is None:
                t0 = perf()
                answer = service.route(user, model)
                elapsed = perf() - t0
            else:
                with rec.span("serve.route") as span:
                    answer = service.route(user, model)
                elapsed = span[2] - span[1]
            latencies.append(elapsed)
            route_latencies.append(elapsed)
            answers.append(answer.server)
        if clock is not None and (index + 1) % SERVE_LAP_EVENTS == 0:
            clock.lap()
    if clock is not None and len(deployment.events) % SERVE_LAP_EVENTS:
        clock.lap()
    return ServePass(latencies, event_latencies, route_latencies, modes, hits,
                     answers, snapshots)


def serve_payload(run: ServePass, service) -> Dict[str, Any]:
    """The digested serve outputs: per-event hit ratios, final placement."""
    return {
        "hit_ratios": [float(h).hex() for h in run.hit_ratios],
        "placement": service.state.placement.matrix.astype("u1").tobytes().hex(),
    }


def scratch_mismatches(deployment: Deployment, run: ServePass) -> int:
    """Checkpoints where the service differs from a from-scratch solve.

    Replays the events on a private carrier instance with
    ``apply_event`` and, at each checkpoint, rebuilds feasibility and
    solves the mutated scenario afresh with the service's default solver.
    """
    import numpy as np

    from repro.core import TrimCachingGen
    from repro.core.placement import PlacementInstance
    from repro.serve import apply_event

    scenario = deployment.scenario
    source = scenario.instance
    carrier = PlacementInstance(
        library=scenario.library,
        demand=scenario.demand.copy(),
        feasible=source.sparse_feasible,
        capacities=np.asarray(source.capacities, dtype=np.int64).copy(),
    )
    original = scenario.demand.copy()
    solver = TrimCachingGen()
    mismatches = 0
    for index, event in enumerate(deployment.events):
        apply_event(carrier, event, original)
        if index not in run.snapshots:
            continue
        fresh = PlacementInstance(
            library=scenario.library,
            demand=carrier.demand.copy(),
            feasible=scenario.latency_model.feasibility_sparse(),
            capacities=carrier.capacities.copy(),
        )
        result = solver.solve(fresh)
        if result.hit_ratio != run.hit_ratios[index] or not np.array_equal(
            result.placement.matrix, run.snapshots[index]
        ):
            mismatches += 1
    return mismatches


class ServeWorkload:
    """Resident services at the paper's setting; an op is one request.

    One closed-loop client cycles through ``SERVE_DEPLOYMENTS`` seeded
    deployments, sending each request after the previous one returns.
    """

    name = "serve"

    def golden(self) -> str:
        """Digest of a short seed-0 trace replayed on a fresh service."""
        deployment = serve_deployment(DIGEST_SEED, GOLDEN_SERVE_EVENTS)
        run = serve_pass(deployment.service, deployment)
        return digest(serve_payload(run, deployment.service))

    def setup(self, seed: int, seconds: int) -> List[Deployment]:
        return serve_deployments(seed, seconds)

    def run_timed(self, deployments: List[Deployment], seed: int, seconds: int) -> Outcome:
        import numpy as np

        from repro.serve import PlacementService

        requests = sum(d.requests for d in deployments)
        outcome = Outcome(attempted=requests * REPEATS)
        passes: List[List[Tuple[ServePass, Any]]] = []
        clocks: List[CalibratedClock] = []
        for index in range(REPEATS):
            # Later passes start from fresh services built outside the
            # timed loop (a service never mutates its scenario).
            services = [d.service if index == 0 else PlacementService(d.scenario)
                        for d in deployments]
            gc.collect()
            clock = CalibratedClock()
            try:
                passes.append([(serve_pass(service, d, clock=clock), service)
                               for service, d in zip(services, deployments)])
                clocks.append(clock)
            except Exception as exc:  # a failing pass is counted, not fatal
                outcome.failed += requests
                outcome.errors.append(repr(exc))
        peak = peak_rss_mb()
        if not passes:
            return outcome
        first = passes[0]
        payloads = [serve_payload(run, service) for run, service in first]
        differing = sum(
            [serve_payload(run, service) for run, service in other] != payloads
            or [run.answers for run, _ in other] != [run.answers for run, _ in first]
            or [run.modes for run, _ in other] != [run.modes for run, _ in first]
            for other in passes[1:]
        )
        outcome.check("passes_agree", differing == 0, differing * requests)
        self._check_outputs(outcome, deployments, [run for run, _ in first],
                            payloads, seed, seconds)
        latencies = np.array([[t for run, _ in one for t in run.latencies]
                              for one in passes])
        per_request = np.median(latencies, axis=0)
        served = requests * len(passes)
        outcome.metrics.update(
            ops_per_ref_s=served / sum(clock.reference_s() for clock in clocks),
            hit_ratio=outcome.details["mean_hit_ratio"],
        )
        value, q, beyond = tail(per_request.tolist())
        modes = [mode for run, _ in first for mode in run.modes]
        outcome.details.update(
            op_p50_ms=float(np.median(per_request)) * 1e3,
            peak_rss_mb=peak,
            deployments=len(deployments),
            ops_per_pass=requests,
            passes=len(passes),
            pass_walls_s=[clock.wall_s() for clock in clocks],
            ops_per_s=served / sum(clock.wall_s() for clock in clocks),
            calibrations_s=[clock.calibrations for clock in clocks],
            op_tail_ms=value * 1e3 if value is not None else None,
            op_tail_percentile=q,
            op_tail_beyond=beyond,
            modes={mode: modes.count(mode) for mode in sorted(set(modes))},
        )
        return outcome

    def run_traced(self, seed: int, seconds: int, rec: SpanRecorder) -> Outcome:
        import numpy as np

        from repro.sim.scenario import build_library
        from repro.utils.rng import RngFactory

        gc.collect()
        deployments = serve_deployments(seed, seconds, rec)
        nnz = zero = 0
        reachable = 1.0
        for deployment in deployments:
            scenario = deployment.scenario
            with rec.span("models.build_library", probe=True):
                build_library(scenario.config, RngFactory(scenario.seed).child("library"))
            with rec.span("network.feasibility", probe=True):
                scenario.latency_model.feasibility_sparse()
            with rec.span("core.sparse.count", probe=True):
                one_nnz, one_zero, one_reachable = sparse_health(scenario.instance)
            nnz, zero = nnz + one_nnz, zero + one_zero
            reachable = min(reachable, one_reachable)
        # As in the timed run, the traced phase is the request loop; the
        # set-up spans above still count in their layers' busy time.
        start = time.perf_counter()
        runs = [serve_pass(d.service, d, rec) for d in deployments]
        traced = time.perf_counter() - start
        peak = peak_rss_mb()
        requests = sum(d.requests for d in deployments)
        outcome = Outcome(attempted=requests)
        payloads = [serve_payload(run, d.service) for run, d in zip(runs, deployments)]
        self._check_outputs(outcome, deployments, runs, payloads, seed, seconds)
        outcome.check("demand_reachable", reachable > 0.0, requests)
        metrics = layer_metrics(rec, traced, peak, since=start)
        modes = [mode for run in runs for mode in run.modes]
        counts = {mode: modes.count(mode) for mode in ("replay", "fallback", "full", "noop")}
        for mode, count in counts.items():
            metrics[f"serve.event.{mode}.count"] = count
        patched = counts["replay"] + counts["fallback"]
        event_latencies = [t for run in runs for t in run.event_latencies]
        route_latencies = [t for run in runs for t in run.route_latencies]
        event_tail, _, _ = tail(event_latencies)
        route_tail, _, _ = tail(route_latencies)
        metrics.update({
            "serve.initial_solve_s": sum(d.service.initial_solve_s for d in deployments),
            "serve.replay_ratio": counts["replay"] / patched if patched else 0.0,
            "serve.event.p50_ms": float(np.median(event_latencies)) * 1e3,
            "serve.event.tail_ms": (event_tail or 0.0) * 1e3,
            "serve.route.p50_us": float(np.median(route_latencies)) * 1e6,
            "serve.route.tail_us": (route_tail or 0.0) * 1e6,
            "core.sparse.nnz": nnz,
            "core.sparse.nnz_zero_demand": zero,
            "core.sparse.useful_fraction": (nnz - zero) / nnz if nnz else 0.0,
            "core.sparse.reachable_demand": reachable,
        })
        outcome.metrics.update(metrics)
        outcome.details.update(layer_shares(rec, since=start, group_prefix="serve.event."))
        return outcome

    def _check_outputs(self, outcome, deployments, runs, payloads, seed, seconds) -> None:
        requests = sum(d.requests for d in deployments)
        hits = [h for run in runs for h in run.hit_ratios]
        mean_hit = sum(hits) / len(hits)
        outcome.details["mean_hit_ratio"] = mean_hit
        check_digests(outcome, self, digest(payloads), seed, seconds, requests)
        mismatches = sum(scratch_mismatches(d, run) for d, run in zip(deployments, runs))
        outcome.check("matches_scratch_solve", mismatches == 0, mismatches)
        outcome.check("hit_ratio_not_degenerate", mean_hit >= MIN_HIT_RATIO, requests)


# ----------------------------------------------------------------------
# Per-layer metrics from the spans
# ----------------------------------------------------------------------
def layer_metrics(rec: SpanRecorder, traced_s: float, peak_mb: float,
                  since: float = 0.0) -> Dict[str, float]:
    """Every ``PER_LAYER`` metric the spans and counts determine."""
    metrics = {name: 0.0 for name in PER_LAYER}
    for name in PER_LAYER:
        if name.endswith(".busy_s"):
            metrics[name] = rec.busy(name[: -len(".busy_s")])
        elif name.endswith(".calls"):
            metrics[name] = rec.calls(name[: -len(".calls")])
        elif name in rec.counts:
            metrics[name] = rec.counts[name]
    hits = rec.counts.get("core.spec.dp_table_hits", 0)
    lookups = hits + rec.counts.get("core.spec.dp_table_misses", 0)
    metrics["core.spec.dp_table_hit_ratio"] = hits / lookups if lookups else 0.0
    busy = sum(rec.top_level_busy(since).values())
    metrics["traced_s"] = traced_s
    metrics["process.peak_rss_mb"] = peak_mb
    metrics["unattributed_s"] = traced_s - busy
    return metrics


def layer_shares(rec: SpanRecorder, since: float = 0.0,
                 group_prefix: Optional[str] = None) -> Dict[str, Any]:
    """Each layer's share of the traced phase's busy time, and the top one.

    Only spans starting at or after ``since`` count. Span names starting
    with ``group_prefix`` are folded into one layer (the prefix plus ``*``).
    """
    totals: Dict[str, float] = {}
    for name, seconds in rec.top_level_busy(since).items():
        if group_prefix and name.startswith(group_prefix):
            name = group_prefix.rstrip(".") + ".*"
        totals[name] = totals.get(name, 0.0) + seconds
    busy = sum(totals.values())
    shares = {name: seconds / busy for name, seconds in totals.items()} if busy else {}
    dominant = max(shares, key=shares.get) if shares else None
    return {
        "busy_s": busy,
        "layer_shares": shares,
        "dominant_layer": dominant,
        "dominant_share": shares.get(dominant, 0.0) if dominant else 0.0,
    }


WORKLOADS: Dict[str, Any] = {
    "fig4a": SweepWorkload("fig4a", _fig4a_plans),
    "fig5a_mc": SweepWorkload("fig5a_mc", _fig5a_mc_plans),
    "scale": SweepWorkload("scale", _scale_plans),
    "serve": ServeWorkload(),
}
