"""The benchmark's trace contract, checked against the package.

`perfbench/spans.py` wraps package functions at the module attributes their
callers look up, and its observers read what they return.  These tests run
a traced `verify` and `implies` through its `Tracer`, so a renamed function
or a changed return shape fails here instead of in a `--trace 1` run.
"""

import importlib
import importlib.util
from pathlib import Path

from gajdchase import cli, oracle
from conftest import CHAIN4_NEGATIVE_PROBLEM, CHAIN4_PROBLEM

SPANS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrap_point_exists():
    spans = load_spans()
    for module_name, attr, _ in spans.WRAP_POINTS:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), (module_name, attr)


def test_traced_verify_and_implies_record_the_oracle_spans():
    spans = load_spans()
    originals = {attr: getattr(oracle, attr) for attr in ("project_onto", "mpj_map", "random_positive", "satisfies")}
    positive, negative = cli.parse(CHAIN4_PROBLEM), cli.parse(CHAIN4_NEGATIVE_PROBLEM)
    tracer = spans.Tracer()
    tracer.install()
    try:
        # Through the module, as the benchmark calls it, so that the wrapped attributes are looked up.
        assert cli.cmd_verify(positive, seed=1, trials=3)[0] == 0
        assert cli.cmd_verify(negative, seed=1, trials=3)[0] == 0
        assert cli.cmd_implies(positive, trace=True, factorize=True)[0] == 0
    finally:
        tracer.uninstall()
    assert {attr: getattr(oracle, attr) for attr in originals} == originals

    records = tracer.spans
    names = {rec[spans.NAME] for rec in records}
    assert {
        "oracle.check_soundness",
        "oracle.search_counterexample",
        "oracle.random_positive",
        "oracle.project_onto",
        "oracle.mpj_map",
        "prelation.satisfies",
        "chase.implies",
        "chase.prefix",
        "chase.factorization",
        "symbolic.eq5",
    } <= names
    fits = [i for i, rec in enumerate(records) if rec[spans.NAME] == "oracle.project_onto"]
    # The observer read each fit's constraint count and its residuals: every fit here converges.
    # Three soundness trials fit two constraints; the counterexample search fits one.
    assert len(fits) > 3
    assert [records[i][spans.INFO] for i in fits] == [2] * 3 + [1] * (len(fits) - 3)
    assert all(any(r[spans.NAME] == "oracle.mpj_map" and r[spans.PARENT] == i for r in records) for i in fits)
    tracer.fold()
    assert tracer.counters["oracle.converged"] == len(fits)
    assert tracer.counters["oracle.sweeps"] > 0
