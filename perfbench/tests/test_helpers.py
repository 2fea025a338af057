"""Tests of the benchmark's own helpers: python -m pytest -q perfbench/tests"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import gate
import stats
import tracing
import workloads


def test_p90_needs_ten_samples_beyond_it():
    assert stats.beyond(100, 90) == 10
    assert stats.beyond(99, 90) == 9
    assert stats.tail(list(range(99))) is None
    assert stats.tail(list(range(100))) == 89
    assert stats.tail(list(range(1000, 0, -1))) == 900
    assert stats.percentile([3, 1, 2], 50) == 2


def _span(name, start, end, parent=None):
    return [name, start, end, parent, 0, None]


def test_self_time_subtracts_the_union_of_children():
    parent = _span("p", 0.0, 10.0)
    children = [_span("a", 1.0, 3.0, 0), _span("b", 2.0, 5.0, 0), _span("c", 6.0, 7.0, 0)]
    assert tracing.self_time(parent, children) == 5.0
    assert tracing.self_time(parent, []) == 10.0


def test_parse_render_is_main_minus_its_run_children():
    tracer = tracing.Tracer()
    tracer.spans.extend([
        _span("cli.main", 0.0, 10.0),
        _span("cli.build_parser", 0.5, 1.5, 0),
        _span("cli.run_verify", 2.0, 8.0, 0),
        _span("hopf.verify_hopf", 3.0, 7.0, 2),
    ])
    values = tracing.layer_metrics(tracer, ops=2)
    assert values["cli.parse_render.s"] == 2.0
    assert values["hopf.verify_hopf.s"] == 2.0
    assert values["hopf.verify_hopf.calls"] == 0.5


def test_outermost_skips_spans_nested_in_their_own_group():
    spans = [_span("linalg.det", 0.0, 4.0), _span("linalg.det", 1.0, 2.0, 0)]
    assert tracing.outermost(spans, {"linalg.det"}) == [spans[0]]


def test_same_seed_gives_identical_inputs_and_order():
    for name in workloads.NAMES:
        a, b = workloads.generate(name, 7), workloads.generate(name, 7)
        assert a.files == b.files and a.params == b.params and a.ops == b.ops
        assert [a.next_pass() for _ in range(3)] == [b.next_pass() for _ in range(3)]
    cyclic = {workloads.generate("cyclic", s).params["p"] for s in range(20)}
    assert len(cyclic) > 1


def test_taft_roots_are_primitive_fourth_roots():
    for seed in range(20):
        params = workloads.generate("taft", seed).params
        for p, q in ((params["p"], params["q"]), (params["p_dual"], params["q_dual"])):
            assert p % 4 == 1 and pow(q, 2, p) == p - 1


def test_gate_counts_a_flipped_verdict_as_a_failure():
    op = workloads.Op(("verify", "h.json"), 0, {"passed": True, "checks.*.passed": True})
    good = json.dumps({"passed": True, "checks": [{"passed": True}, {"passed": True}]})
    flipped = json.dumps({"passed": True, "checks": [{"passed": True}, {"passed": False}]})
    g = gate.Gate()
    g.check(0, op, 0, good)
    g.check(0, op, 0, good)
    assert (g.attempted, g.failed) == (2, 0)
    g.check(0, op, 0, flipped)
    g.check(0, op, 1, good)
    g.check(0, op, 0, good.replace(" ", ""))
    assert (g.attempted, g.failed) == (5, 3)
    assert g.reasons == {"verdict": 2, "not-identical": 1}


def test_install_traces_calls_inside_modules_and_restores():
    from hopfgal import actions, cocyclic, linalg

    originals = (linalg.rref, actions._sparse, cocyclic._sparse, linalg.Matrix.__matmul__)
    tracer = tracing.Tracer()
    with tracing.install(tracer):
        m = linalg.Matrix(linalg.QQ, [[1, 2], [3, 4]])
        linalg.rank(m @ m)
        actions._sparse((0, 1), 0)
    names = [s[tracing.NAME] for s in tracer.spans]
    assert names.count("linalg.rref") == 1 and "linalg.rank" in names
    rref = tracer.spans[names.index("linalg.rref")]
    assert tracer.spans[rref[tracing.PARENT]][tracing.NAME] == "linalg.rank"
    assert rref[tracing.ATTRS] == {"domain": "Q", "cells": 4}
    assert tracer.counts["linalg.sparse_entries"] == 1
    assert (linalg.rref, actions._sparse, cocyclic._sparse,
            linalg.Matrix.__matmul__) == originals


def test_benchmark_json_lists_the_metrics_the_run_prints():
    import run

    spec = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.metric_names()
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY


def test_timeout_and_crash_are_failed_ops(monkeypatch):
    import time

    import pytest
    import probe
    import run

    class SlowCli:
        @staticmethod
        def main(argv):
            time.sleep(5)

    class CrashingCli:
        @staticmethod
        def main(argv):
            raise ZeroDivisionError("boom")

    monkeypatch.setattr(run, "OP_TIMEOUT_S", 0.05)
    host = probe.Probe()
    host.start()
    try:
        runner = run.Runner(workloads.generate("taft", 1), "inputs", host)
        runner.cli = SlowCli
        with pytest.raises(run.Abort):
            runner.passes(1.0)
        assert (runner.gate.attempted, runner.gate.reasons) == (1, {"timeout": 1})
        runner.cli = CrashingCli
        runner.passes(0.0)
        assert runner.gate.attempted == 4
        assert runner.gate.reasons == {"timeout": 1, "verdict": 3}
    finally:
        host.stop()


def test_scaling_removes_probe_time_and_host_slowdown():
    import probe

    # 1 s of wall, 0.1 s of it probing, on a host where the loop runs at half speed
    slow = [2 * probe.REF_S] * 5
    assert abs(probe.scale(1.0, 0.1, slow) - 0.45) < 1e-12
    host = probe.Probe()
    host.starts = [0.0, 1.0, 2.0, 3.0, 4.0]
    host.durations = [probe.REF_S, 2 * probe.REF_S, 2 * probe.REF_S, 2 * probe.REF_S,
                      probe.REF_S]
    # the interval holds the ticks at 1.0 and 2.0; NEAR widens the median to all five
    assert abs(host.scaled(0.5, 2.5) - (2.0 - 4 * probe.REF_S) / 2) < 1e-12
