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
2 usage or parse error, 3 chase row cap or work budget exceeded.  The cap
defaults to 100000 rows and can be overridden with the GAJD_CHASE_MAX_ROWS
variable; the budget is that many pending rule applications per rule.

`implies` and `tableau` load only the chase and the layers below it.  The
numeric oracle, and numpy with it, is imported by the first `verify` or
`ProblemFile.domains()`, and json by the first `--trace-json`.  The module
attributes `check_soundness` and `search_counterexample` delegate to the
oracle's functions, and `cmd_verify` looks them up here when it calls them.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .chase import DEFAULT_MAX_ROWS, JRule, Verdict, implies
from .errors import (
    ChaseRowLimitError,
    GajdChaseError,
    NotHypertreeError,
    ProblemParseError,
)
from .hypergraph import AttributeSet
from .prelation import DomainSpec, Gajd
from .tableau import build_tr

if TYPE_CHECKING:
    from .oracle import CounterexampleReport, NotFound, OracleConfig, SoundnessReport

ENV_MAX_ROWS = "GAJD_CHASE_MAX_ROWS"


class Query(NamedTuple):
    target: Gajd
    given: tuple[str, ...]


# The one dataclass on the `implies` path: callers build one-query problems with `dataclasses.replace`.
@dataclass(frozen=True)
class ProblemFile:
    attrs: AttributeSet
    domain_sizes: dict[str, int]
    constraints: dict[str, Gajd]
    queries: tuple[Query, ...]

    def domains(self) -> DomainSpec:
        """The declared domains; a joint table over the oracle's cap is refused before any label is built."""
        from .oracle import check_table_cells

        check_table_cells(math.prod(self.domain_sizes.get(a, 2) for a in self.attrs))
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
    """Parse a brace-delimited edge list; `col0` is the 1-based column where `text` starts.

    An unknown or repeated name in a hyperedge is an error at the column of its brace.
    """
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
        seen: set[str] = set()
        for name in names:
            if name not in attrs:
                raise ProblemParseError(f"unknown attribute {name!r}", lineno, col)
            if name in seen:
                raise ProblemParseError(f"attribute {name!r} repeated in a hyperedge", lineno, col)
            seen.add(name)
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
        head, body = re.match(r"(\S+)\s?(.*)", line.lstrip()).groups()
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
            clause = re.compile(r"\sgiven(?:\s|$)").search(body, last)
            edges_text = body[: clause.start()] if clause else body
            given = tuple(body[clause.end():].split()) if clause else ()
            if clause and not given:
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
) -> tuple[int, str]:
    """Answer every query; exit 0 regardless of verdicts unless --expect mismatches."""
    max_rows = _max_rows_from_env()
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
            import json

            for record in verdict.trace.records():
                out.append(json.dumps(record, sort_keys=True))
        out.append(f"IMPLIES: {'yes' if verdict.holds else 'no'}")
        if factorize and verdict.holds and verdict.factorization is not None:
            out.append(f"FACTORIZATION: {verdict.factorization.render()}")
        if expect is not None and (expect == "yes") != verdict.holds:
            exit_code = 1
    return exit_code, "\n".join(out) + "\n"


def check_soundness(constraints: Sequence[Gajd], target: Gajd, cfg: OracleConfig) -> SoundnessReport:
    """`oracle.check_soundness`; the oracle is imported on the first call."""
    from .oracle import check_soundness

    return check_soundness(constraints, target, cfg)


def search_counterexample(
    constraints: Sequence[Gajd], target: Gajd, cfg: OracleConfig
) -> CounterexampleReport | NotFound:
    """`oracle.search_counterexample`; the oracle is imported on the first call."""
    from .oracle import search_counterexample

    return search_counterexample(constraints, target, cfg)


def cmd_verify(problem: ProblemFile, seed: int, trials: int) -> tuple[int, str]:
    """Cross-validate each verdict numerically; exit 1 on any soundness failure.

    The seed and trial count are checked by `OracleConfig`, after the domain
    cap; its ValueError is raised again as GajdChaseError.
    """
    from .oracle import OracleConfig

    max_rows = _max_rows_from_env()
    domains = problem.domains()
    try:
        cfg = OracleConfig(domains=domains, seed=seed, trials=trials)
    except ValueError as exc:
        raise GajdChaseError(str(exc)) from None
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
            out.append(search_counterexample(constraints, query.target, cfg).render())
    return exit_code, "\n".join(out) + "\n"


def cmd_tableau(problem: ProblemFile, query_index: int) -> tuple[int, str]:
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
    except (GajdChaseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as exc:
        print(f"error: {args.file} is not UTF-8 text: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
