"""Benchmark for gajdchase: seeded workloads timed through the public CLI functions.

Usage, from the repository root:

    python3 perfbench/run.py --workload census --seed 1 --seconds 30 --trace 0

One benchmark process runs one client in a closed loop: each operation starts
when the previous one has finished.  An operation is one query answered
through a one-query `ProblemFile` (`cli.cmd_implies` or `cli.cmd_verify`),
or one `tableau.run(build_tr(g), rel)`.  Passes over the workload's
operations repeat until `--seconds` are spent, and every answer of every
pass is checked.  The process stays on one CPU, and a fixed pure-Python
loop timed between operations follows that CPU's speed: each time is scaled
to a reference speed, and an operation's time is its median over the
passes.  The last line of standard output is one JSON object: with
`--trace 0` it holds the end-to-end metrics, measured untraced; with
`--trace 1` it holds per-layer metrics from spans recorded around the
package's functions (see spans.py), which are also written to
`.bench_build/`.  README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import bisect
import dataclasses
import json
import math
import os
import re
import resource
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build"
LIMIT_S = 3
SETUP_ROUNDS = 11
TAIL_BEYOND = 10
LIGHT_CUT = 2.0
TINY_CUT = 2.0
TINY_PASSES = 2
CAL_EVERY_S = 0.05
CAL_LOOP = 6000
CAL_NEAR = 2
CAL_REF_S = 0.001
TABLEAU_TOL = 1e-9
BAD = ("wrong", "error", "aborted")


class OpAborted(BaseException):
    """Raised by the alarm handler; a BaseException so no `except Exception` in the package swallows it."""


def _on_alarm(signum, frame):
    raise OpAborted()


def _load_package():
    """Import gajdchase from this checkout's sources, and nowhere else."""
    if not (SRC / "gajdchase" / "__init__.py").is_file():
        raise SystemExit(f"error: no gajdchase sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import gajdchase

    if Path(gajdchase.__file__).resolve().parent != SRC / "gajdchase":
        raise SystemExit(f"error: imported gajdchase from {gajdchase.__file__}, not {SRC}")


@dataclasses.dataclass
class Outcome:
    start: float
    seconds: float
    status: str  # "ok" | "inconclusive" | "wrong" | "error" | "aborted"
    detail: str = ""


class Runner:
    """Parses a workload's problems once and runs and checks its operations."""

    def __init__(self, wl):
        from gajdchase import cli, tableau
        from gajdchase.prelation import DomainSpec, WeightedRelation

        import decider

        # Modules, not functions, so that calls go through the attributes the tracer wraps.
        self.cli, self.tableau = cli, tableau
        self.wl = wl
        self.parsed = [cli.parse(text) for text in wl.problems]
        self.expect: dict[str, object] = {}
        self.relations = {}
        for op in wl.ops:
            p = self.parsed[op.problem]
            if wl.name == "tableau_run":
                g = list(p.constraints.values())[op.query]
                domains = DomainSpec.with_sizes(p.attrs, p.domain_sizes)
                rel = WeightedRelation(p.attrs, dict(zip(domains.tuples(), wl.weights[op.id])))
                self.relations[op.id] = (g, rel)
                self.expect[op.id] = decomposition(rel, decider.tree_of(g))
            else:
                q = p.queries[op.query]
                verdict = decider.implied(
                    [decider.tree_of(p.constraints[n]) for n in q.given], decider.tree_of(q.target)
                )
                if op.expect is not None and op.expect != verdict:
                    raise SystemExit(f"error: reference decider contradicts the known answer of {op.id}")
                self.expect[op.id] = verdict

    def call(self, op):
        if self.wl.name == "tableau_run":
            g, rel = self.relations[op.id]
            return self.tableau.run(self.tableau.build_tr(g), rel)
        p = self.parsed[op.problem]
        one = dataclasses.replace(p, queries=(p.queries[op.query],))
        if self.wl.subcommand == "verify":
            return self.cli.cmd_verify(one, seed=self.wl.oracle_seed, trials=self.wl.trials[op.problem])
        return self.cli.cmd_implies(one, trace=True, factorize=True)

    def check(self, op, result) -> tuple[str, str]:
        expect = self.expect[op.id]
        if self.wl.name == "tableau_run":
            got = dict(result.items())
            if got.keys() != expect.keys():
                return "wrong", "output tuples differ from the decomposition formula"
            worst = max(abs(got[k] - v) / max(abs(v), 1e-300) for k, v in expect.items())
            return ("ok", "") if worst <= TABLEAU_TOL else ("wrong", f"relative error {worst:.3e}")
        code, text = result
        m = re.search(r"^IMPLIES: (yes|no)$", text, re.M)
        if m is None:
            return "wrong", "no verdict line"
        holds = m.group(1) == "yes"
        if holds != expect:
            return "wrong", f"verdict {m.group(1)}, reference decider says {'yes' if expect else 'no'}"
        if self.wl.subcommand == "implies":
            if code != 0:
                return "wrong", f"exit code {code}"
            if holds:
                f = re.search(r"^FACTORIZATION: (.*)$", text, re.M)
                if f is None:
                    return "wrong", "positive verdict without a factorization"
                if re.search(r"\bb\d+", f.group(1)):
                    return "wrong", "factorization mentions a nondistinguished variable"
            return "ok", ""
        if holds:
            s = re.search(r"^soundness: .* status=(\w+)$", text, re.M)
            if s is None or s.group(1) == "fail" or code != 0:
                return "wrong", "soundness check failed"
            return ("inconclusive", "soundness inconclusive") if s.group(1) == "inconclusive" else ("ok", "")
        if re.search(r"^counterexample: seed=", text, re.M):
            return "ok", ""
        if re.search(r"^counterexample: not found", text, re.M):
            return "inconclusive", "no counterexample found"
        return "wrong", "no counterexample report"


def decomposition(rel, tree) -> dict:
    """Product of edge marginals over separator marginals at each tuple, by direct summation."""
    edges, branching = tree
    scheme = list(rel.scheme)
    parts = [(e, 1) for e in edges] + [(edges[i] & edges[branching[i]], -1) for i in range(1, len(edges))]
    margs = []
    for over, power in parts:
        idx = [scheme.index(a) for a in sorted(over)]
        m: dict = {}
        for key, w in rel.items():
            sub = tuple(key[i] for i in idx)
            m[sub] = m.get(sub, 0.0) + w
        margs.append((idx, m, power))
    out = {}
    for key, _ in rel.items():
        value = 1.0
        for idx, m, power in margs:
            v = m[tuple(key[i] for i in idx)]
            value = value * v if power > 0 else value / v
        out[key] = value
    return out


def run_pass(runner, ops, tracer=None, between=None) -> list[Outcome]:
    """Run each operation once under the time limit, then check its answer outside the timing.

    `between`, if given, is called before each operation, outside the timing.
    """
    outcomes = []
    for op in ops:
        if between is not None:
            between()
        if tracer is not None:
            tracer.op = op.id
        result = None
        t0 = perf_counter()
        try:
            signal.alarm(LIMIT_S)
            try:
                if tracer is None:
                    result = runner.call(op)
                else:
                    with tracer.span("bench.op"):
                        result = runner.call(op)
            finally:
                signal.alarm(0)
            status = None
        except OpAborted:
            status, detail = "aborted", f"past the {LIMIT_S} s limit"
        except Exception as exc:  # any error from the program is a failed operation
            status, detail = "error", f"{type(exc).__name__}: {exc}"
        dt = perf_counter() - t0
        if status is None:
            status, detail = runner.check(op, result)
        outcomes.append(Outcome(t0, dt, status, detail))
    return outcomes


class SetupTimer:
    """Times a fresh `python -m gajdchase` on the workload's largest problem with its queries removed.

    `verify` keeps the problem's first query, run with the workload's oracle
    seed and trials, so that the spawn also loads what the numeric oracle uses.
    """

    def __init__(self, wl):
        OUT.mkdir(exist_ok=True)
        i = max(range(len(wl.problems)), key=lambda k: len(wl.problems[k]))
        lines = wl.problems[i].splitlines(True)
        queries = [ln for ln in lines if ln.startswith("query ")]
        kept = queries[:1] if wl.subcommand == "verify" else []
        self.path = OUT / f"setup-{wl.name}.txt"
        self.path.write_text("".join(ln for ln in lines if not ln.startswith("query ")) + "".join(kept))
        self.argv = [sys.executable, "-m", "gajdchase", wl.subcommand]
        if wl.subcommand == "verify":
            self.argv += ["--seed", str(wl.oracle_seed), "--trials", str(wl.trials[i])]
        self.argv.append(str(self.path))
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.times: list[tuple[float, float]] = []

    def spawn(self) -> None:
        t0 = perf_counter()
        proc = subprocess.run(self.argv, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=60)
        self.times.append((t0, perf_counter() - t0))
        if proc.returncode != 0:
            raise SystemExit(f"error: setup run failed on {self.path}: {proc.stderr.strip()}")


class Calibration:
    """Follows the speed of the machine with a fixed pure-Python loop timed between operations.

    On a small shared machine each core switches, every few seconds, between
    a fast state and one about 1.7x slower, as other tenants come and go.  A
    time measured in a run is scaled to the speed at which the loop takes
    CAL_REF_S, judged from the loop's CAL_NEAR samples on each side of it.
    The loop runs at most every CAL_EVERY_S and before and after each setup
    spawn, so every operation has samples close by.
    """

    def __init__(self):
        self.at: list[float] = []
        self.times: list[float] = []

    def tick(self, force: bool = False) -> None:
        if force or not self.at or perf_counter() - self.at[-1] >= CAL_EVERY_S:
            self.times.append(_calibration_loop())
            self.at.append(perf_counter())

    def scaled(self, start: float, seconds: float) -> float:
        """`seconds` measured from `start`, at the reference speed."""
        i = bisect.bisect_left(self.at, start)
        near = self.times[max(i - CAL_NEAR, 0):i + CAL_NEAR]
        return seconds * CAL_REF_S / statistics.median(near)


def _calibration_loop() -> float:
    t0 = perf_counter()
    counts: dict[int, int] = {}
    for i in range(CAL_LOOP):
        counts[i % 977] = counts.get(i % 977, 0) + i * i
    return perf_counter() - t0


def tail(values: list[float]) -> tuple[float, float]:
    """The highest order statistic with TAIL_BEYOND values above it, and its percentile."""
    s = sorted(values)
    k = max(len(s) - TAIL_BEYOND - 1, 0)
    return s[k], 100.0 * (k + 1) / len(s)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _load_package()
    import gen
    import spans

    if args.workload not in gen.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; choose from {sorted(gen.WORKLOADS)}")
    wl = gen.WORKLOADS[args.workload](args.seed)
    signal.signal(signal.SIGALRM, _on_alarm)

    runner = Runner(wl)
    setup = SetupTimer(wl) if not args.trace else None
    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        OUT.mkdir(exist_ok=True)
        tracer.install()
        tracer.op = "parse"
        for text in wl.problems:
            runner.cli.parse(text)
        tracer.uninstall()
        parse_spans = list(tracer.spans)
        tracer.spans.clear()

    # A full pass runs every operation; a light pass, run after each full
    # pass of an untraced run and in the time left at the end, runs the
    # operations that took at most LIGHT_CUT times the op_tail statistic in the
    # first pass, then TINY_PASSES times those that took at most TINY_CUT
    # times its median.  So the cheap operations, the op_tail one and its
    # neighbours among them, and the op_p50 one and its neighbours most of all,
    # get many samples spread over the run, while the few slow ones do not
    # crowd out the repeats.  The SETUP_ROUNDS spawns for setup_s are spread evenly over
    # the run's clock, between operations.  The process stays on one CPU, so
    # that the calibration loop, the operations and the spawns run on the
    # same core.  A traced run makes only traced full passes.
    everything: list[Outcome] = []
    samples: list[list[Outcome]] = [[] for _ in wl.ops]
    failures: dict[str, str] = {}

    def record(indices, outcomes):
        for i, o in zip(indices, outcomes):
            everything.append(o)
            if o.status in BAD:
                failures.setdefault(wl.ops[i].id, o.detail)
        return outcomes

    def between() -> None:
        while setup is not None and len(setup.times) < min(
            SETUP_ROUNDS, 1 + SETUP_ROUNDS * (perf_counter() - start) / args.seconds
        ):
            cal.tick(force=True)
            setup.spawn()
            cal.tick(force=True)
        cal.tick()

    def light_pass() -> float:
        t0 = perf_counter()
        for subset in [light] + [tiny] * TINY_PASSES:
            for i, o in zip(subset, record(subset, run_pass(runner, [wl.ops[i] for i in subset], between=between))):
                samples[i].append(o)
        return perf_counter() - t0

    full = range(len(wl.ops))
    light = None
    traced: list[list[Outcome]] = []
    cycles = 0
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    cal = Calibration()
    start = perf_counter()
    while True:
        cycles += 1
        if tracer is None:
            first = record(full, run_pass(runner, wl.ops, between=between))
            for i, o in zip(full, first):
                samples[i].append(o)
            if light is None:
                cut = LIGHT_CUT * tail([o.seconds for o in first])[0]
                light = [i for i in full if first[i].seconds <= cut]
                cut = TINY_CUT * statistics.median(o.seconds for o in first)
                tiny = [i for i in full if first[i].seconds <= cut]
            light_s = light_pass()
        else:
            tracer.install()
            traced.append(record(full, run_pass(runner, wl.ops, tracer, between)))
            tracer.uninstall()
            if not tracer.passes:
                spans.write(OUT / f"spans-{wl.name}-{args.seed}.jsonl", [parse_spans, tracer.spans])
            tracer.fold()
        if perf_counter() - start + (perf_counter() - start) / cycles > args.seconds:
            break
    # Spend what is left of the run on light passes.
    while tracer is None and light and perf_counter() - start + light_s <= args.seconds:
        light_s = light_pass()
    while setup is not None and len(setup.times) < SETUP_ROUNDS:
        cal.tick(force=True)
        setup.spawn()
    cal.tick(force=True)

    failed = sum(1 for o in everything if o.status in BAD)
    incorrect = sum(1 for o in everything if o.status in ("wrong", "error"))
    if tracer is None:
        # Each operation's median over its samples, each sample at the reference speed.
        per_op = [statistics.median(cal.scaled(o.start, o.seconds) for o in taken) for taken in samples]
        setup_s = statistics.median(cal.scaled(t0, dt) for t0, dt in setup.times)
    else:
        per_op = [min(p[i].seconds for p in traced) for i in full]
    tail_ms, tail_pct = tail(per_op)
    slowest = max((o.seconds for o in everything if o.status != "aborted"), default=0.0)
    inconclusive = sum(1 for o in everything[: len(wl.ops)] if o.status == "inconclusive") / len(wl.ops)

    print(f"workload={wl.name} seed={args.seed} operations={len(wl.ops)} full_passes={cycles} "
          f"traced_passes={len(traced)} samples={len(everything)} op_tail=p{tail_pct:.1f} slowest_op_s={slowest:.3f} "
          f"limit_s={LIMIT_S} limit_margin={LIMIT_S / slowest if slowest else math.inf:.1f}x inconclusive_share={inconclusive:.3f} cpu={cpu} calibration_ms={statistics.median(cal.times) * 1e3:.3f}")
    for op_id, detail in sorted(failures.items()):
        print(f"failed {op_id}: {detail}")

    if tracer is None:
        metrics = {
            "setup_s": _metric(setup_s, "s"),
            "wall_s": _metric(sum(per_op), "s"),
            "op_p50_ms": _metric(statistics.median(per_op) * 1000.0, "ms"),
            "op_tail_ms": _metric(tail_ms * 1000.0, "ms"),
            "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        # Untraced and traced passes of the slow workloads are too few for their
        # difference to rise above the noise, so the overhead is estimated from
        # the wrappers' own cost instead.
        overhead = spans.cost_per_span() * sum(row["calls"] for row in tracer.totals.values()) / tracer.passes
        metrics = per_layer_metrics(spans.summarize(parse_spans), tracer, traced, overhead,
                                    failed / len(everything), inconclusive)
    print(json.dumps({
        "correct": incorrect == 0,
        "attempted": len(everything),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def per_layer_metrics(parse, tracer, traced, overhead, failed_share, inconclusive) -> dict:
    """Per-pass layer metrics from the traced passes; parse spans are counted once."""
    n, totals, counters = tracer.passes, tracer.totals, tracer.counters

    def calls(name):
        return (parse.get(name, {}).get("calls", 0) + totals.get(name, {}).get("calls", 0) / n)

    def secs(name, key="s"):
        return parse.get(name, {}).get(key, 0.0) + totals.get(name, {}).get(key, 0.0) / n

    rows = counters.get("chase.rows_produced", 0.0) / n
    dups = counters.get("chase.duplicates", 0.0) / n
    projections = calls("oracle.project_onto")
    m = {
        "cli.parse_s": _metric(secs("cli.parse"), "s"),
        "hypergraph.find_certificate_calls": _metric(calls("hypergraph.find_certificate"), "count"),
        "hypergraph.find_certificate_s": _metric(secs("hypergraph.find_certificate"), "s"),
        "hypergraph.interaction_set_calls": _metric(calls("hypergraph.interaction_set"), "count"),
        "hypergraph.interaction_set_s": _metric(secs("hypergraph.interaction_set"), "s"),
        "chase.prefix_s": _metric(secs("chase.prefix"), "s"),
        "chase.prefix_steps": _metric(counters.get("chase.prefix_steps", 0.0) / n, "count"),
        "chase.factorization_s": _metric(secs("chase.factorization"), "s"),
        "symbolic.eq5_calls": _metric(calls("symbolic.eq5"), "count"),
        "symbolic.eq5_s": _metric(secs("symbolic.eq5"), "s"),
        "tableau.build_tr_s": _metric(secs("tableau.build_tr"), "s"),
        "chase.closure_s": _metric(secs("chase.closure"), "s"),
        "chase.closure_calls": _metric(calls("chase.closure"), "count"),
        "chase.rows_produced": _metric(rows, "count"),
        "chase.duplicates": _metric(dups, "count"),
        "chase.fixpoint_rows": _metric(counters.get("chase.fixpoint_rows", 0.0) / n, "count"),
        "chase.useful_ratio": _metric(rows / (rows + dups) if rows + dups else 0.0, "ratio"),
        "chase.aborted": _metric(sum(o.status == "aborted" for p in traced for o in p) / n, "count"),
        "oracle.random_positive_s": _metric(secs("oracle.random_positive"), "s"),
        "oracle.project_onto_calls": _metric(projections, "count"),
        "oracle.project_onto_s": _metric(secs("oracle.project_onto"), "s"),
        "oracle.sweeps": _metric(counters.get("oracle.sweeps", 0.0) / n, "count"),
        "oracle.trials": _metric(calls("oracle.random_positive"), "count"),
        "oracle.converged_share": _metric(
            counters.get("oracle.converged", 0.0) / n / projections if projections else 0.0, "ratio"),
        "oracle.check_soundness_s": _metric(secs("oracle.check_soundness"), "s"),
        "oracle.search_counterexample_s": _metric(secs("oracle.search_counterexample"), "s"),
        "oracle.inconclusive_share": _metric(inconclusive, "ratio"),
        "prelation.mpj_map_calls": _metric(calls("prelation.mpj_map") + calls("oracle.mpj_map"), "count"),
        "prelation.mpj_map_s": _metric(secs("prelation.mpj_map") + secs("oracle.mpj_map"), "s"),
        "prelation.satisfies_calls": _metric(calls("prelation.satisfies"), "count"),
        "prelation.satisfies_s": _metric(secs("prelation.satisfies"), "s"),
        "prelation.marginalize_calls": _metric(calls("prelation.marginalize"), "count"),
        "prelation.marginalize_s": _metric(secs("prelation.marginalize"), "s"),
        "prelation.monotone_join_s": _metric(secs("prelation.monotone_join"), "s"),
        "tableau.run_calls": _metric(calls("tableau.run"), "count"),
        "tableau.run_s": _metric(secs("tableau.run"), "s"),
        "symbolic.evaluate_calls": _metric(calls("symbolic.evaluate"), "count"),
        "symbolic.evaluate_s": _metric(secs("symbolic.evaluate"), "s"),
        "bench.failed_share": _metric(failed_share, "ratio"),
        "bench.trace_overhead_s": _metric(overhead, "s"),
    }
    for name in SELF_TIMED:
        m[f"{name}.self_s"] = _metric(secs(name, "self_s"), "s")
    return m


# Span names whose self time is reported (inclusive time minus child spans).
SELF_TIMED = (
    "bench.op", "cli.parse", "hypergraph.find_certificate", "hypergraph.interaction_set",
    "chase.implies", "chase.prefix", "chase.closure", "chase.factorization", "symbolic.eq5",
    "tableau.build_tr", "tableau.run", "symbolic.evaluate", "symbolic.marginalize",
    "oracle.check_soundness", "oracle.search_counterexample", "oracle.random_positive",
    "oracle.project_onto", "oracle.mpj_map", "prelation.mpj_map", "prelation.satisfies",
    "prelation.monotone_join", "prelation.marginalize",
)


if __name__ == "__main__":
    sys.exit(main())
