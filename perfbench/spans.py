"""Spans recorded from outside the program.

The package binds its collaborators with `from ... import`, so a function is
wrapped at every module attribute its callers look up, not where it is
defined.  Each span records its name, start, end, parent span and the
operation it belongs to; spans stay in memory until the run writes them out.
A span also closes when an exception (such as the per-operation abort)
raises through it.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from time import perf_counter

# (module looked up by the caller, attribute, span name)
WRAP_POINTS = (
    ("gajdchase.prelation", "find_certificate", "hypergraph.find_certificate"),
    ("gajdchase.prelation", "interaction_set", "hypergraph.interaction_set"),
    ("gajdchase.prelation", "mpj_map", "prelation.mpj_map"),
    ("gajdchase.prelation", "marginalize", "prelation.marginalize"),
    ("gajdchase.prelation", "monotone_join", "prelation.monotone_join"),
    ("gajdchase.chase", "chase", "chase.chase"),
    ("gajdchase.chase", "factorization_for", "chase.factorization"),
    ("gajdchase.chase", "build_tr", "tableau.build_tr"),
    ("gajdchase.chase", "eq5_expression", "symbolic.eq5"),
    ("gajdchase.cli", "parse", "cli.parse"),
    ("gajdchase.cli", "implies", "chase.implies"),
    ("gajdchase.cli", "check_soundness", "oracle.check_soundness"),
    ("gajdchase.cli", "search_counterexample", "oracle.search_counterexample"),
    ("gajdchase.oracle", "random_positive", "oracle.random_positive"),
    ("gajdchase.oracle", "project_onto", "oracle.project_onto"),
    ("gajdchase.oracle", "mpj_map", "oracle.mpj_map"),
    ("gajdchase.oracle", "satisfies", "prelation.satisfies"),
    ("gajdchase.symbolic", "marginalize", "symbolic.marginalize"),
    ("gajdchase.tableau", "evaluate", "symbolic.evaluate"),
    # Looked up by the benchmark itself for the tableau_run operations.
    ("gajdchase.tableau", "build_tr", "tableau.build_tr"),
    ("gajdchase.tableau", "run", "tableau.run"),
)

NAME, START, END, PARENT, OP, INFO = range(6)


class Tracer:
    """Installs wrappers at the wrap points and collects spans and counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: str | None = None
        self.counters: dict[str, float] = defaultdict(float)
        self.totals: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        self.passes = 0
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module_name, attr, name in WRAP_POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def fold(self) -> None:
        """Add the current spans to the per-name totals and counters, then drop them."""
        for name, row in summarize(self.spans).items():
            acc = self.totals[name]
            for k in acc:
                acc[k] += row[k]
        self.counters["oracle.sweeps"] += sweeps(self.spans)
        self.passes += 1
        self.spans.clear()

    def span(self, name: str):
        return _Span(self, name)

    def _wrap(self, name: str, fn):
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(rec, result, args, kwargs)
            return result

        return wrapper

    def _observe_chase_chase(self, rec, trace, args, kwargs) -> None:
        c = self.counters
        if kwargs.get("stop_when_no_gain"):
            rec[NAME] = "chase.prefix"
            c["chase.prefix_steps"] += len(trace.steps)
        else:
            rec[NAME] = "chase.closure"
            if trace.stop_reason == "fixpoint":
                c["chase.fixpoint_rows"] += len(trace.final.rows)
        c["chase.rows_produced"] += len(trace.steps)
        c["chase.duplicates"] += trace.duplicates

    def _observe_oracle_project_onto(self, rec, result, args, kwargs) -> None:
        _, residuals = result
        tol = kwargs.get("stop_tol")
        rec[INFO] = len(args[1])
        if tol is not None and (not residuals or max(residuals) <= tol):
            self.counters["oracle.converged"] += 1


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        t = self.tracer
        self.rec = [self.name, perf_counter(), 0.0, t.stack[-1] if t.stack else -1, t.op, None]
        t.spans.append(self.rec)
        t.stack.append(len(t.spans) - 1)
        return self.rec

    def __exit__(self, *exc):
        self.rec[END] = perf_counter()
        self.tracer.stack.pop()
        return False


def cost_per_span(calls: int = 20_000, rounds: int = 5) -> float:
    """Seconds a wrapper adds to one call, from a wrapped and a plain no-op (fastest of `rounds`)."""
    tracer = Tracer()

    def noop():
        return None

    wrapped = tracer._wrap("bench.noop", noop)

    def loop(fn) -> float:
        t0 = perf_counter()
        for _ in range(calls):
            fn()
        dt = perf_counter() - t0
        tracer.spans.clear()
        return dt

    best_wrapped = min(loop(wrapped) for _ in range(rounds))
    best_plain = min(loop(noop) for _ in range(rounds))
    return max(best_wrapped - best_plain, 0.0) / calls


def write(path, chunks: list[list[list]]) -> None:
    """Write span lists as JSON lines, one list after another, parents renumbered to match."""
    keys = ("name", "start", "end", "parent", "op", "info")
    offset = 0
    with open(path, "w", encoding="utf-8") as fh:
        for chunk in chunks:
            for rec in chunk:
                row = dict(zip(keys, rec))
                if row["parent"] >= 0:
                    row["parent"] += offset
                fh.write(json.dumps(row) + "\n")
            offset += len(chunk)


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds and self seconds (children's time removed)."""
    child_time = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child_time[rec[PARENT]] += rec[END] - rec[START]
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for i, rec in enumerate(spans):
        d = rec[END] - rec[START]
        row = out[rec[NAME]]
        row["calls"] += 1
        row["s"] += d
        row["self_s"] += d - child_time[i]
    return out


def sweeps(spans: list[list]) -> float:
    """Full projection sweeps: direct `oracle.mpj_map` calls per constraint of their `project_onto`."""
    total = 0.0
    for rec in spans:
        if rec[NAME] == "oracle.mpj_map" and rec[PARENT] >= 0:
            parent = spans[rec[PARENT]]
            if parent[NAME] == "oracle.project_onto" and parent[INFO]:
                total += 1.0 / parent[INFO]
    return total
