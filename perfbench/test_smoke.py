"""Smoke test of the benchmark itself: one toy-sized round per workload.

    python3 -m pytest -q perfbench/test_smoke.py

Each round must pass its checks, and a traced round must count exactly
the LP work of an untraced one.
"""

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from perfbench import run, trace, workloads  # noqa: E402

TOY = {
    "frontier": dict(cities=20, years=2),
    "bootstrap": dict(cities=20, years=2, replicates=1),
    "planner": dict(per_decile=2, planes=4, units=1),
}


@pytest.mark.parametrize("name", sorted(TOY))
def test_toy_round_passes_checks_and_traces_the_same_work(name, tmp_path):
    w = workloads.WORKLOADS[name](5, str(tmp_path), **TOY[name])
    w.setup()
    counter = trace.Counter()
    w.prepare(0)
    with counter.installed():
        plain = w.run_round(0, run._plain)
    tracer = trace.Tracer()
    w.prepare(1)
    with tracer.installed():
        traced = w.run_round(1, tracer.span)

    verdicts = w.check(plain)
    assert len(verdicts) == w.ops_per_round
    assert all(not problems for problems in verdicts), verdicts
    assert w.digest(plain) == w.digest(traced)

    layers = trace.layer_metrics(tracer.spans)
    assert counter.iters > 0
    assert layers["solver.lp_iters"] == counter.iters
    assert layers["solver.lp_solves"] == counter.solves
    assert layers["cqr.lp_iters"] + layers["planner.lp_iters"] == counter.iters
    if name == "planner":
        assert layers["cqr.lp_solves"] == 0
    else:
        assert layers["cqr.lp_solves"] > 0
