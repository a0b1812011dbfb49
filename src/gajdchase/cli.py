"""Command-line front end.

A problem file declares attributes, optional per-attribute domain sizes,
named dependency constraints, and implication queries:

    # lines starting with # are comments
    attrs A1 A2 A3 A4
    domain A1 3
    gajd C1 = {A1 A2} {A2 A3 A4}
    gajd C2 = {A1 A2 A3} {A3 A4}
    query {A1 A2} {A2 A3} {A3 A4} given C1 C2

Braces delimit hyperedges; whitespace separates attributes; a query without
a `given` clause tests implication from the empty constraint set.

Subcommands:

    implies [--trace] [--trace-json] [--factorize] [--expect yes|no] FILE
    verify  [--seed N] [--trials N] FILE
    tableau [--query K] FILE

Exit codes: 0 all queries answered, 1 expectation or soundness failure,
2 usage or parse error, 3 chase row cap exceeded.  The cap defaults to
100000 rows and can be overridden with the GAJD_CHASE_MAX_ROWS variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field

from .chase import DEFAULT_MAX_ROWS, JRule, Verdict, implies
from .errors import (
    ChaseRowLimitError,
    DomainTooLargeError,
    GajdChaseError,
    NotHypertreeError,
    ProblemParseError,
)
from .hypergraph import AttributeSet
from .oracle import (
    CounterexampleReport,
    OracleConfig,
    check_soundness,
    search_counterexample,
)
from .prelation import DomainSpec, Gajd
from .tableau import build_tr

ENV_MAX_ROWS = "GAJD_CHASE_MAX_ROWS"


@dataclass(frozen=True)
class Query:
    target: Gajd
    given: tuple[str, ...]


@dataclass(frozen=True)
class ProblemFile:
    attrs: AttributeSet
    domain_sizes: dict[str, int] = field(default_factory=dict)
    constraints: dict[str, Gajd] = field(default_factory=dict)
    queries: tuple[Query, ...] = ()

    def domains(self) -> DomainSpec:
        return DomainSpec.with_sizes(self.attrs, self.domain_sizes)

    def rules_for(self, query: Query) -> tuple[JRule, ...]:
        return tuple(JRule(name, self.constraints[name]) for name in query.given)

    def render(self) -> str:
        lines = ["attrs " + " ".join(self.attrs)]
        for attr in self.attrs:
            if attr in self.domain_sizes:
                lines.append(f"domain {attr} {self.domain_sizes[attr]}")
        for name, g in self.constraints.items():
            edges = " ".join(e.render() for e in g.hypergraph.edges)
            lines.append(f"gajd {name} = {edges}")
        for q in self.queries:
            edges = " ".join(e.render() for e in q.target.hypergraph.edges)
            suffix = f" given {' '.join(q.given)}" if q.given else ""
            lines.append(f"query {edges}{suffix}")
        return "\n".join(lines) + "\n"


def _parse_edges(text: str, attrs: AttributeSet, lineno: int, col0: int) -> list[AttributeSet]:
    """Parse a brace-delimited edge list; `col0` is the 1-based column where `text` starts."""
    edges: list[AttributeSet] = []
    rest = text
    col = col0
    while rest.strip():
        stripped = rest.lstrip()
        col += len(rest) - len(stripped)
        rest = stripped
        if not rest.startswith("{"):
            raise ProblemParseError("expected '{' to open a hyperedge", lineno, col)
        close = rest.find("}")
        if close < 0:
            raise ProblemParseError("unclosed hyperedge brace", lineno, col)
        names = rest[1:close].split()
        if not names:
            raise ProblemParseError("empty hyperedge", lineno, col)
        for name in names:
            if name not in attrs:
                raise ProblemParseError(f"unknown attribute {name!r}", lineno, col)
        edges.append(AttributeSet(names))
        col += close + 1
        rest = rest[close + 1:]
    return edges


def _gajd_from_edges(edges: list[AttributeSet], attrs: AttributeSet, lineno: int, what: str) -> Gajd:
    try:
        g = Gajd.from_edges(edges)
    except NotHypertreeError as exc:
        stuck = " ".join(edges[i].render() for i in exc.witness)
        raise ProblemParseError(f"{what} is not a hypertree; stuck edges: {stuck}", lineno) from None
    except ValueError as exc:
        raise ProblemParseError(f"{what}: {exc}", lineno) from None
    if g.scheme != attrs:
        raise ProblemParseError(
            f"{what} covers {g.scheme.render()} but the declared attribute set is {attrs.render()}",
            lineno,
        )
    return g


def parse(text: str) -> ProblemFile:
    """Parse a problem file; errors carry the line (and column where known)."""
    attrs: AttributeSet | None = None
    domain_sizes: dict[str, int] = {}
    constraints: dict[str, Gajd] = {}
    pending_queries: list[tuple[list[AttributeSet], tuple[str, ...], int]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        indent = len(line) - len(line.lstrip())
        head, _, body = line.lstrip().partition(" ")
        body_col = indent + len(head) + 2  # 1-based column where the body starts
        if head == "attrs":
            if attrs is not None:
                raise ProblemParseError("duplicate attrs declaration", lineno)
            names = body.split()
            if not names:
                raise ProblemParseError("attrs declaration lists no attributes", lineno)
            if len(set(names)) != len(names):
                raise ProblemParseError("duplicate attribute name", lineno)
            try:
                attrs = AttributeSet(names)
            except ValueError as exc:
                raise ProblemParseError(str(exc), lineno) from None
        elif head == "domain":
            if attrs is None:
                raise ProblemParseError("domain before attrs declaration", lineno)
            parts = body.split()
            if len(parts) != 2:
                raise ProblemParseError("expected: domain <attribute> <size>", lineno)
            name, size_text = parts
            if name not in attrs:
                raise ProblemParseError(f"unknown attribute {name!r}", lineno)
            if name in domain_sizes:
                raise ProblemParseError(f"duplicate domain declaration for {name}", lineno)
            try:
                size = int(size_text)
            except ValueError:
                raise ProblemParseError(f"domain size must be an integer, got {size_text!r}", lineno) from None
            if size < 1:
                raise ProblemParseError("domain size must be at least 1", lineno)
            domain_sizes[name] = size
        elif head == "gajd":
            if attrs is None:
                raise ProblemParseError("gajd before attrs declaration", lineno)
            name, eq, edges_text = body.partition("=")
            name = name.strip()
            if not eq or not name:
                raise ProblemParseError("expected: gajd <name> = {..} {..}", lineno)
            if len(name.split()) != 1 or "{" in name:
                raise ProblemParseError(f"constraint name must be a single token, got {name!r}", lineno)
            if name in constraints:
                raise ProblemParseError(f"duplicate constraint name {name!r}", lineno)
            edges_col = body_col + (len(body) - len(edges_text))
            edges = _parse_edges(edges_text, attrs, lineno, edges_col)
            if not edges:
                raise ProblemParseError("constraint lists no hyperedges", lineno)
            constraints[name] = _gajd_from_edges(edges, attrs, lineno, f"constraint {name}")
        elif head == "query":
            if attrs is None:
                raise ProblemParseError("query before attrs declaration", lineno)
            # An attribute may be named `given`, so the clause is looked for after the last brace.
            last = body.rfind("}") + 1
            tail, sep, given_text = body[last:].partition(" given ")
            edges_text = body[:last] + tail
            if not sep and tail.rstrip().endswith(" given"):
                raise ProblemParseError("given clause lists no constraints", lineno)
            given = tuple(given_text.split())
            if sep and not given:
                raise ProblemParseError("given clause lists no constraints", lineno)
            edges = _parse_edges(edges_text, attrs, lineno, body_col)
            if not edges:
                raise ProblemParseError("empty query", lineno)
            pending_queries.append((edges, given, lineno))
        else:
            raise ProblemParseError(f"unknown directive {head!r}", lineno)

    if attrs is None:
        raise ProblemParseError("no attrs declaration", max(1, len(text.splitlines())))
    queries = []
    for edges, given, lineno in pending_queries:
        for name in given:
            if name not in constraints:
                raise ProblemParseError(f"unknown constraint name {name!r}", lineno)
        target = _gajd_from_edges(edges, attrs, lineno, "query target")
        queries.append(Query(target, given))
    return ProblemFile(attrs, domain_sizes, constraints, tuple(queries))


def _query_header(index: int, query: Query) -> str:
    given = " given " + " ".join(query.given) if query.given else ""
    return f"query {index}: {query.target.render()}{given}"


def _max_rows_from_env() -> int:
    raw = os.environ.get(ENV_MAX_ROWS)
    if raw is None:
        return DEFAULT_MAX_ROWS
    try:
        value = int(raw)
        if value < 1:
            raise ValueError
    except ValueError:
        raise GajdChaseError(f"{ENV_MAX_ROWS} must be a positive integer, got {raw!r}") from None
    return value


def cmd_implies(
    problem: ProblemFile,
    trace: bool = False,
    trace_json: bool = False,
    factorize: bool = False,
    expect: str | None = None,
    max_rows: int | None = None,
) -> tuple[int, str]:
    """Answer every query; exit 0 regardless of verdicts unless --expect mismatches."""
    max_rows = max_rows if max_rows is not None else _max_rows_from_env()
    out: list[str] = []
    exit_code = 0
    for i, query in enumerate(problem.queries, start=1):
        out.append(_query_header(i, query))
        verdict: Verdict = implies(problem.rules_for(query), query.target, max_rows=max_rows)
        if trace:
            out.extend(verdict.trace.render_steps())
            for rewrite in verdict.rewrites:
                out.append(rewrite.render())
            if verdict.closure_trace is not None:
                final = verdict.closure_trace.final
                out.append(f"closure: fixpoint with {len(final)} rows, no all-distinguished row")
        if trace_json:
            for record in verdict.trace.records():
                out.append(json.dumps(record, sort_keys=True))
        out.append(f"IMPLIES: {'yes' if verdict.holds else 'no'}")
        if factorize and verdict.holds and verdict.factorization is not None:
            out.append(f"FACTORIZATION: {verdict.factorization.render()}")
        if expect is not None and (expect == "yes") != verdict.holds:
            exit_code = 1
    return exit_code, "\n".join(out) + "\n"


def cmd_verify(
    problem: ProblemFile,
    seed: int = 0,
    trials: int = 50,
    max_rows: int | None = None,
) -> tuple[int, str]:
    """Cross-validate each verdict numerically; exit 1 on any soundness failure."""
    if trials < 1:
        raise GajdChaseError("trials must be at least 1")
    if seed < 0:
        raise GajdChaseError(f"seed must be nonnegative, got {seed}")
    max_rows = max_rows if max_rows is not None else _max_rows_from_env()
    cfg = OracleConfig(domains=problem.domains(), seed=seed, trials=trials)
    out: list[str] = []
    exit_code = 0
    for i, query in enumerate(problem.queries, start=1):
        out.append(_query_header(i, query))
        rules = problem.rules_for(query)
        constraints = [r.gajd for r in rules]
        verdict = implies(rules, query.target, max_rows=max_rows)
        out.append(f"IMPLIES: {'yes' if verdict.holds else 'no'}")
        if verdict.holds:
            report = check_soundness(constraints, query.target, cfg)
            out.append(report.render())
            if report.status == "fail":
                exit_code = 1
        else:
            found = search_counterexample(constraints, query.target, cfg)
            include = isinstance(found, CounterexampleReport)
            out.append(found.render(include_distribution=include))
    return exit_code, "\n".join(out) + "\n"


def cmd_tableau(problem: ProblemFile, query_index: int = 1) -> tuple[int, str]:
    """Print the initial tableau of one query's target."""
    if not 1 <= query_index <= len(problem.queries):
        raise GajdChaseError(
            f"query index {query_index} out of range; the file has {len(problem.queries)} queries"
        )
    query = problem.queries[query_index - 1]
    return 0, build_tr(query.target).render()


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gajdchase",
        description="Test implication of acyclic join dependencies by the chase, "
        "with numeric cross-validation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_implies = sub.add_parser("implies", help="answer the implication queries in FILE")
    p_implies.add_argument("--trace", action="store_true", help="print the derivation steps")
    p_implies.add_argument("--trace-json", action="store_true", help="print machine-readable step records")
    p_implies.add_argument("--factorize", action="store_true", help="print the product form for positive verdicts")
    p_implies.add_argument("--expect", choices=["yes", "no"], help="exit 1 when a verdict differs")
    p_implies.add_argument("file")

    p_verify = sub.add_parser("verify", help="cross-validate the verdicts numerically")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--trials", type=int, default=50)
    p_verify.add_argument("file")

    p_tableau = sub.add_parser("tableau", help="print the initial tableau of a query")
    p_tableau.add_argument("--query", type=int, default=1, help="1-based query index")
    p_tableau.add_argument("file")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with open(args.file, encoding="utf-8") as fh:
            problem = parse(fh.read())
        if args.command == "implies":
            code, text = cmd_implies(
                problem,
                trace=args.trace,
                trace_json=args.trace_json,
                factorize=args.factorize,
                expect=args.expect,
            )
        elif args.command == "verify":
            code, text = cmd_verify(problem, seed=args.seed, trials=args.trials)
        else:
            code, text = cmd_tableau(problem, query_index=args.query)
    except ChaseRowLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ProblemParseError, DomainTooLargeError, GajdChaseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
