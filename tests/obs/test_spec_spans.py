"""Spec attributes its set-up phases to child spans of ``solve.spec``."""

from __future__ import annotations

from repro import obs
from repro.core.spec import TrimCachingSpec
from repro.sim.config import ScenarioConfig
from repro.sim.scenario import build_scenario
from repro.utils.units import GB


def _fresh_instance():
    # A scenario built here owns a library no other test has solved, so
    # the per-library combination and context memos start cold.
    config = ScenarioConfig(
        num_servers=3, num_users=8, num_models=9, storage_bytes=int(0.12 * GB)
    )
    return build_scenario(config, seed=5).instance


def _spans_by_name():
    return {record[0]: record for record in obs.tracer().spans}


class TestSpecSpans:
    def test_combinations_and_context_nest_under_solve_spec(self):
        instance = _fresh_instance()
        obs.enable()
        TrimCachingSpec().solve(instance)
        spans = _spans_by_name()
        parent = spans["solve.spec"]
        _, parent_start, parent_dur, _, parent_tid, parent_depth, _ = parent
        for name in ("solve.spec.combinations", "solve.spec.context"):
            _, start, dur, _, tid, depth, _ = spans[name]
            assert tid == parent_tid
            assert depth == parent_depth + 1
            assert parent_start <= start
            assert start + dur <= parent_start + parent_dur or dur == 1

    def test_children_are_recorded_on_memo_hits_too(self):
        instance = _fresh_instance()
        solver = TrimCachingSpec()
        solver.solve(instance)  # warms the per-library memos
        obs.enable()
        solver.solve(instance)
        names = [record[0] for record in obs.tracer().spans]
        assert names.count("solve.spec.combinations") == 1
        assert names.count("solve.spec.context") == 1
