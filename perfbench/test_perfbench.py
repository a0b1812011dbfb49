"""Self-tests of the benchmark: reference decider, generators, tracing, tiny runs.

Run from the repository root with `python3 -m pytest perfbench`.
"""

import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import run

run._load_package()

import decider  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402
from gajdchase import Gajd, cli  # noqa: E402


def _implied(constraints, target):
    return decider.implied(
        [decider.tree_of(Gajd.from_edges(c)) for c in constraints], decider.tree_of(Gajd.from_edges(target))
    )


CHAIN4 = [["A1", "A2"], ["A2", "A3"], ["A3", "A4"]]
LEFT = [["A1", "A2"], ["A2", "A3", "A4"]]
RIGHT = [["A1", "A2", "A3"], ["A3", "A4"]]


@pytest.mark.parametrize(
    "constraints, target, expected",
    [
        ([LEFT, RIGHT], CHAIN4, True),
        ([LEFT], CHAIN4, False),
        ([RIGHT], CHAIN4, False),
        ([], [["A1", "A2", "A3"]], True),
        ([], [["A1", "A2"], ["A2", "A3"]], False),
        ([CHAIN4], CHAIN4, True),
        ([CHAIN4], [["A1", "A2", "A3"], ["A3", "A4"]], True),
        ([[["A1", "A2", "A3"], ["A3", "A4"]]], CHAIN4, False),
        # A star splits every way around its centre, so it implies each two-edge split.
        ([[["A1", "A2"], ["A1", "A3"], ["A1", "A4"]]], [["A1", "A2", "A3"], ["A1", "A4"]], True),
        ([[["A1", "A2"], ["A1", "A3"], ["A1", "A4"]]], [["A1", "A2"], ["A2", "A3", "A4"]], False),
    ],
)
def test_decider_hand_worked(constraints, target, expected):
    assert _implied(constraints, target) is expected


def test_decider_matches_chain_answers():
    wl = gen.chains(0)
    for op in wl.ops:
        p = cli.parse(wl.problems[op.problem])
        q = p.queries[op.query]
        got = decider.implied([decider.tree_of(p.constraints[n]) for n in q.given], decider.tree_of(q.target))
        assert got is op.expect, op.id


def test_decider_rejects_a_non_join_tree():
    edges = [frozenset("AB"), frozenset("BC"), frozenset("AC")]
    with pytest.raises(ValueError):
        decider.tree_mvds(edges, (None, 0, 1))


@pytest.mark.parametrize("name", sorted(gen.WORKLOADS))
def test_generators_are_reproducible(name):
    make = gen.WORKLOADS[name]
    a, b, c = make(1), make(1), make(2)
    assert a.problems == b.problems and a.ops == b.ops and a.weights == b.weights
    assert a.problems != c.problems
    assert [op.id for op in a.ops] == [op.id for op in c.ops]


def test_census_holds_out_listed_queries():
    ids = {op.id for op in gen.census(0).ops}
    assert len(ids) == 180 - len(gen.CENSUS_HELD_OUT)
    assert not ids & gen.CENSUS_HELD_OUT


TINY = {
    "census": lambda: gen.census(3, per_size=4, sizes=(5,)),
    "chains": lambda: gen.chains(3, sizes=range(4, 6)),
    "verify": lambda: gen.verify(3, groups=((4, False, 2, 2, 2), (4, True, 1, 1, 2))),
    "tableau_run": lambda: gen.tableau_run(3, groups=((3, 2, 2), (2, 3, 2))),
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_has_no_wrong_answers(name):
    wl = TINY[name]()
    signal.signal(signal.SIGALRM, run._on_alarm)
    outcomes = run.run_pass(run.Runner(wl), wl.ops)
    # An operation cut off at the limit is slow, not wrong; the chase's heavy
    # tail reaches that far even on four attributes.
    assert [o.detail for o in outcomes if o.status in ("wrong", "error")] == []
    assert any(o.status == "ok" for o in outcomes)


def test_calibration_scales_by_the_samples_around_a_time():
    cal = run.Calibration()
    # The machine runs at reference speed until t = 10, then twice as slow.
    cal.at = [1.0, 2.0, 3.0, 11.0, 12.0, 13.0]
    cal.times = [run.CAL_REF_S] * 3 + [2 * run.CAL_REF_S] * 3
    assert cal.scaled(1.5, 0.2) == pytest.approx(0.2)
    assert cal.scaled(12.5, 0.2) == pytest.approx(0.1)
    # Across the change the four nearest samples are split evenly.
    assert cal.scaled(5.0, 0.3) == pytest.approx(0.3 / 1.5)


def test_tracer_records_spans_and_restores_functions():
    original = cli.parse
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.op = "t"
        p = cli.parse(gen.chains(0, sizes=[4]).problems[0])
        cli.cmd_implies(p, factorize=True)
    finally:
        tracer.uninstall()
    assert cli.parse is original
    names = {rec[spans.NAME] for rec in tracer.spans}
    assert {"cli.parse", "hypergraph.find_certificate", "chase.implies", "chase.prefix", "chase.closure"} <= names
    assert all(rec[spans.END] >= rec[spans.START] and rec[spans.OP] == "t" for rec in tracer.spans)
    summary = spans.summarize(tracer.spans)
    assert all(row["self_s"] <= row["s"] + 1e-12 for row in summary.values())


def test_span_closes_when_an_abort_raises_through_it():
    tracer = spans.Tracer()

    def boom():
        raise run.OpAborted()

    wrapped = tracer._wrap("x", boom)
    with pytest.raises(run.OpAborted):
        with tracer.span("outer"):
            wrapped()
    assert tracer.stack == []
    assert [rec[spans.NAME] for rec in tracer.spans] == ["outer", "x"]
    assert all(rec[spans.END] > 0.0 for rec in tracer.spans)
    assert tracer.spans[1][spans.PARENT] == 0


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chains", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
