"""Self-tests of the benchmark harness: statistics, span arithmetic, failure
accounting, the ladder cutoff and the repeatability of traced counts.

Run with: python3 -m pytest bench/tests
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

import run
import stats
import workloads
from tracing import Tracer, self_times


# -- percentile and tail --------------------------------------------------------


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert stats.percentile(samples, 50) == 50
    assert stats.percentile(samples, 90) == 90
    assert stats.percentile(samples, 100) == 100
    assert stats.percentile([7.0], 99.9) == 7.0


@pytest.mark.parametrize(
    "n, pct, beyond",
    [(1, 50.0, 0), (19, 50.0, 9), (20, 50.0, 10), (39, 50.0, 19), (40, 75.0, 10),
     (100, 90.0, 10), (199, 90.0, 19), (200, 95.0, 10), (1000, 99.0, 10), (10000, 99.9, 10)],
)
def test_tail_takes_highest_percentile_with_ten_beyond(n, pct, beyond):
    samples = [float(i) for i in range(n)]
    value, got_pct, got_beyond = stats.tail(samples)
    assert (got_pct, got_beyond) == (pct, beyond)
    assert sum(1 for s in samples if s > value) == beyond


def test_tail_ignores_sample_order():
    samples = [5.0, 1.0, 9.0, 3.0] * 30
    assert stats.tail(samples) == stats.tail(sorted(samples))


# -- host probes ----------------------------------------------------------------


def test_each_request_is_scaled_by_the_probes_around_it(monkeypatch):
    import cpu
    import worker

    probes = iter([1.0, 2.0, 3.0])
    monkeypatch.setattr(cpu, "probe", lambda: next(probes))
    times = iter([0.3, 0.3, 0.1])
    monkeypatch.setattr(worker, "run_cli", lambda cli, argv, stdin: (0, "", next(times)))
    reqs = [workloads.Request(str(i), ["x"]) for i in range(3)]
    got = worker.timed_block(None, reqs)
    # a probe before the block, one once 0.5 s of requests has passed, one at the end
    assert [(dt, p) for _, _, dt, p in got] == [(0.3, 1.5), (0.3, 1.5), (0.1, 2.5)]
    assert cpu.scaled(2.0, cpu.NOMINAL_PROBE_S * 2) == pytest.approx(1.0)


# -- spans ----------------------------------------------------------------------


def test_self_time_subtracts_union_of_children_and_leaf_time():
    spans = [
        ["root", 0.0, 10.0, -1, 0.0],
        ["a", 1.0, 4.0, 0, 0.0],
        ["b", 3.0, 6.0, 0, 0.5],   # overlaps a: the union [1, 6] covers 5
        ["a.child", 2.0, 3.0, 1, 0.0],
        ["late", 9.5, 12.0, 0, 0.0],  # clipped to the parent's end
    ]
    assert self_times(spans) == pytest.approx([10 - 5 - 0.5, 3 - 1, 3 - 0.5, 1, 2.5])


def test_recursive_spans_count_inclusive_time_once():
    tracer = Tracer()
    tracer.spans[:] = [
        ["series.revert", 0.0, 4.0, -1, 0.0],
        ["series.revert", 1.0, 2.0, 0, 0.0],
        ["series.s1_mul", 2.0, 3.0, 0, 0.25],
    ]
    m = tracer.metrics()
    assert m["series.revert_calls"] == 2
    assert m["series.revert_s"] == pytest.approx(4.0)
    assert m["series.s1_mul_s"] == pytest.approx(1.0)
    assert m["series.self_s"] == pytest.approx(2.0 + 1.0 + 0.75)


def test_tracer_wraps_every_namespace_and_restores_it():
    from genusforge import fgl, genus, ring, series

    originals = (ring.RingElement.__mul__, fgl.compose1_2, genus.catalog, series.Series1.revert)
    tracer = Tracer()
    tracer.install()
    try:
        assert fgl.compose1_2 is not originals[1] and genus.catalog is not originals[2]
        law = fgl.catalog("hyperbolic", 4)
        x = ring.RingElement.gen("t") + 1
        x * x
    finally:
        tracer.uninstall()
    assert (ring.RingElement.__mul__, fgl.compose1_2, genus.catalog, series.Series1.revert) == originals
    m = tracer.metrics()
    assert law.name == "hyperbolic"
    assert m["fgl.catalog_calls"] == 1 and m["series.revert_calls"] == 1
    assert m["ring.mul_calls"] >= 1 and m["ring.peak_terms"] >= 3


# -- failure accounting ---------------------------------------------------------


def test_corrupted_request_digest_is_a_counted_failure():
    req = workloads.all_requests(workloads.request_catalog())["witten/4/2"]
    good = [req.input_digest(), 0, "a" * 64]
    r = run.Run("cli_requests", 1, 1.0, {"requests": {req.key: good}})
    block = [[req.key, 0.01, 0, "a" * 64, 0.04], [req.key, 0.01, 0, "b" * 64, 0.04],
             [req.key, 0.01, 1, "a" * 64, 0.04]]
    run.check_requests(r, {"rounds": [block, block[:1]], "cpn_mismatches": []})
    assert (r.attempted, len(r.failures)) == (4, 2)
    r = run.Run("cli_requests", 1, 1.0, {"requests": {req.key: good}})
    run.check_requests(r, {"rounds": [block[:1]], "cpn_mismatches": [req.key]})
    assert (r.attempted, len(r.failures)) == (1, 1)


# -- the budgeted ladder --------------------------------------------------------


class _FakeLadder(run.Run):
    """A run whose step workers report canned times instead of computing."""

    def __init__(self, times, digests=None):
        super().__init__("law_ladder", 1, 1.0, {"steps": digests or {}})
        self.times, self.asked = times, []

    def probe(self):
        return run.cpu.NOMINAL_PROBE_S

    def worker(self, config, timeout=None):
        order = config["order"]
        self.asked.append(order)
        dt = self.times.get(order)
        if dt is None:  # killed at its timeout
            return None, None
        return None, {"step": [dt, True, f"digest{order}"]}


def test_ladder_stops_at_first_step_over_budget():
    budget = workloads.STEP_BUDGET_S
    first = workloads.LADDER_START
    r = _FakeLadder({first: budget / 4, first + 1: budget / 2, first + 2: budget * 1.01, first + 3: 0.1})
    assert run.budgeted_ladder(r) == first + 1
    assert r.asked == [first, first + 1, first + 2]
    assert r.failures == []


def test_ladder_stops_at_killed_step_and_at_wrong_digest():
    first = workloads.LADDER_START
    assert run.budgeted_ladder(_FakeLadder({})) == first - 1
    r = _FakeLadder({first: 0.1})
    assert run.budgeted_ladder(r) == first
    key = workloads.step_key(workloads.LADDER_LAW, first + 1)
    r = _FakeLadder({first: 0.1, first + 1: 0.1, first + 2: 0.1}, {key: "not-it"})
    assert run.budgeted_ladder(r) == first
    assert r.attempted == 2 and len(r.failures) == 1


# -- inputs ---------------------------------------------------------------------


def test_cpn_chern_numbers_match_the_readme_example():
    assert workloads.cpn_chern_numbers(2) == {(2,): 3, (1, 1): 9}
    assert len(workloads.partitions(6)) == 11


def test_request_stream_is_seeded_and_every_request_is_referenced():
    catalog = workloads.request_catalog()
    keys = [r.key for cls in catalog.values() for variants in cls.values() for r in variants]
    assert len(keys) == len(set(keys))
    refs = json.loads(run.REFERENCES.read_text())["requests"]
    assert set(keys) == set(refs)
    a = workloads.request_block(7, catalog)
    b = workloads.request_block(7, catalog)
    c = workloads.request_block(8, catalog)
    assert [r.key for r in a] == [r.key for r in b]
    assert [r.key for r in a] != [r.key for r in c]
    kind_of = {r.key: kind for cls in catalog.values() for kind, vs in cls.items() for r in vs}
    for block in (a, c):
        assert len(block) == 108
        heavy = sorted(kind_of[r.key] for r in block if kind_of[r.key] in catalog["heavy"])
        assert heavy == ["chern/gamma/5"] * 4 + ["chern/gamma_normalized/5"] * 4 + [
            "chern/universal_additive/5"] * 4
    assert sorted(map(kind_of.get, (r.key for r in a))) == sorted(map(kind_of.get, (r.key for r in c)))


# -- traced counts repeat -------------------------------------------------------


def _traced_verify_counts() -> dict:
    config = {"mode": "verify", "workload": "verify_all", "seed": 3, "trace": True}
    out = subprocess.run(
        [sys.executable, "-s", str(run.BENCH / "worker.py"), json.dumps(config)],
        cwd=run.ROOT, env=run.child_env(), capture_output=True, text=True, check=True, timeout=170,
    )
    layers = json.loads(out.stdout.strip().splitlines()[-1])["layers"]
    return {k: v for k, v in layers.items() if not k.endswith("_s")}


def test_two_traced_runs_give_identical_counts():
    first, second = _traced_verify_counts(), _traced_verify_counts()
    assert first == second
    assert first["fgl.catalog_calls"] > first["fgl.catalog_distinct"] > 0
    assert first["ring.mul_calls"] > 0
