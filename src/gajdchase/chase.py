"""Derivation rules, the chase fixpoint, and the implication test.

Each dependency over the full scheme induces a derivation rule: rows
k_1..k_q (repetition allowed) that agree where the hypertree's edges overlap
produce the row pattern that agrees with row k_i on the i-th edge; the
produced row's weight is the quotient of the selected edge atoms by the
interaction atoms at the new row's cells.  The chase applies rules until no
new pattern appears.  Every produced cell comes from a selected row, so the
variable universe is fixed, the pattern space is finite, the chase
terminates, and the fixpoint is independent of application order.

A rule's step is the classical chase step for a join dependency: the
natural join of the rows' distinct projections onto the rule's edges.  The
edges are joined in certificate order, so each one is looked up on its
interaction set with the edges before it (Yannakakis's acyclic join), and
the join is semi-naive: a new row is joined only where one of its edge
projections is new.  Each pattern found this way is recorded with its least
selection, the smallest row id carrying each edge projection.  Trying every
selection of rows in lexicographic order would meet that selection first,
and later rows only get larger ids, so steps, row ids and weight
expressions are the same as under that exhaustive enumeration.

Because the variable universe is fixed by the initial tableau, a run codes
each variable once as a small int, and its patterns, projections, index
keys, join bindings and pending applications are tuples of ints.  An
applied application becomes a tableau row of `Variable` cells that keeps
its rule and selected rows instead of a weight expression; the expression
(`eq5_expression`, looked up on this module when called) is built the first
time something reads it, such as a rendered step or tableau.  The closure
of a negative verdict is never rendered, so its rows never build one.

The implication test builds the target's tableau and chases it under the
constraint rules: the target is implied exactly when the all-distinguished
row becomes derivable.  Two stop rules shape the output without affecting
the verdict:

* `stop_at_distinguished` ends the run as soon as the tableau holds the
  all-distinguished row (sound: the row is in the fixpoint).
* `stop_when_no_gain` ends the run when no candidate row carries more
  distinguished variables than the tableau already has.  This yields the
  short, human-readable generating prefix, but it is *not* decision-complete:
  reaching the all-distinguished row can require intermediate rows that drop
  distinguished variables, so a negative verdict is only trusted after the
  unrestricted fixpoint confirms it (`implies` always runs that closure, by
  continuing the prefix's run).
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import ChaseRowLimitError, SchemeError
from .hypergraph import AttributeSet
from .prelation import Gajd
from .symbolic import (
    MarginalAtom,
    RationalExpression,
    Variable,
    eq5_expression,
    restrict_atom,
)
from .tableau import JoinPlan, Row, Tableau, build_tr, join

DEFAULT_MAX_ROWS = 100_000


@dataclass(frozen=True)
class JRule:
    """A named derivation rule for a dependency covering the full scheme."""

    name: str
    gajd: Gajd


@dataclass(frozen=True)
class ChaseStep:
    """One rule application: which rule, which rows, what was produced."""

    rule: JRule
    selection: tuple[int, ...]
    produced: Row
    produced_id: int

    def render(self, number: int) -> str:
        rows = ",".join(str(k + 1) for k in self.selection)
        return (
            f"step {number}: rule {self.rule.name} rows [{rows}] -> "
            f"row {self.produced.render_pattern()} expr {self.produced.weight_expr.render()}"
        )

    def record(self, number: int) -> dict:
        return {
            "step": number,
            "rule": self.rule.name,
            "rows": [k + 1 for k in self.selection],
            "pattern": self.produced.render_pattern(),
            "expr": self.produced.weight_expr.render(),
        }


@dataclass
class ChaseTrace:
    """A replayable derivation log: initial tableau, steps, final tableau.

    `duplicates` counts the join results, and the stale pending
    applications, whose pattern was already a row when they came up,
    including those met while indexing the initial rows.
    """

    initial: Tableau
    steps: list[ChaseStep]
    final: Tableau
    stop_reason: str
    duplicates: int = 0
    # The run that produced this trace, while it can still be continued.
    _run: "_ChaseRun | None" = field(default=None, repr=False, compare=False)

    def render_steps(self) -> list[str]:
        return [step.render(i + 1) for i, step in enumerate(self.steps)]

    def records(self) -> list[dict]:
        return [step.record(i + 1) for i, step in enumerate(self.steps)]

    def replay(self) -> Tableau:
        """Re-derive the final tableau from the initial one, step by step.

        Each step's selected rows are mixed along its rule's edges; the mix
        must be consistent and new, and must produce the step's row at the
        step's row id.  Raises ValueError when a step disagrees and
        SchemeError for a rule over another scheme.
        """
        t = self.initial.copy()
        compiled: dict[JRule, _CompiledRule] = {}
        for number, step in enumerate(self.steps, start=1):
            rule, selection = step.rule, step.selection
            cr = compiled.get(rule)
            if cr is None:
                cr = compiled[rule] = _CompiledRule(rule, t.scheme)
            if len(selection) != len(cr.cols):
                raise ValueError(
                    f"step {number}: rule {rule.name} needs {len(cr.cols)} selected rows, got {len(selection)}"
                )
            cells: list[Variable | None] = [None] * len(t.scheme)
            for cols, k in zip(cr.cols, selection):
                if not 0 <= k < len(t.rows):
                    raise ValueError(f"step {number}: row id {k} out of range")
                row_cells = t.rows[k].cells
                for c in cols:
                    if cells[c] is None:
                        cells[c] = row_cells[c]
                    elif cells[c] != row_cells[c]:
                        raise ValueError(f"step {number}: the selected rows disagree where edges overlap")
            pattern = tuple(cells)
            if t.has_pattern(pattern):
                raise ValueError(f"step {number}: the produced pattern is already a row")
            row = cr.produce(t, selection, pattern)
            if row != step.produced:
                raise ValueError(f"step {number} produces {row.render_pattern()}, not the recorded row")
            rid = t.add_row(row)
            if rid != step.produced_id:
                raise ValueError(f"step {number} replayed to row id {rid}, not {step.produced_id}")
        return t


def _as_rules(constraints: Iterable[Gajd | JRule]) -> tuple[JRule, ...]:
    rules = []
    for c in constraints:
        rules.append(c if isinstance(c, JRule) else JRule(c.render(), c))
    return tuple(rules)


class _CompiledRule:
    """A rule over one scheme: edge columns in certificate order, their indexes, witnesses.

    `first` and `index` are keyed by projections of int-coded patterns (see
    `_ChaseRun`).  `produce` makes the rule's row for a selection, and
    `expression` builds that row's weight expression when it is read; the
    chase and `ChaseTrace.replay` both use them.  A rule over another scheme
    is a SchemeError.
    """

    def __init__(self, rule: JRule, scheme: AttributeSet):
        if rule.gajd.scheme != scheme:
            raise SchemeError(
                f"constraint {rule.name} is over {rule.gajd.scheme.render()}, not the tableau scheme "
                f"{scheme.render()}; constraints must cover the full scheme (implicit padding is not performed)"
            )
        self.rule = rule
        self.scheme = scheme
        self.cols = tuple(tuple(scheme.index(a) for a in edge) for edge in rule.gajd.edges_in_order)
        self.plan = JoinPlan(self.cols)
        # Per position: edge projection -> smallest row id carrying it, and
        # interaction-set key -> distinct projections.
        self.first: list[dict[tuple[int, ...], int]] = [{} for _ in self.cols]
        self.index: list[dict[tuple[int, ...], list[tuple[int, ...]]]] = [{} for _ in self.cols]

    def produce(self, t: Tableau, selection: Sequence[int], pattern: tuple[Variable, ...]) -> Row:
        """The row at `pattern` produced from the selected rows of `t`; its expression is built when read."""
        return Row(pattern, rule=self, selected=tuple([t.rows[k].cells for k in selection]))

    def expression(
        self, pattern: tuple[Variable, ...], selected: Sequence[tuple[Variable, ...]]
    ) -> RationalExpression:
        """The weight of the row at `pattern`: selected edge atoms over interaction atoms at `pattern`."""
        scheme, gajd = self.scheme, self.rule.gajd
        by_col = dict(zip(scheme, pattern))
        edge_patterns = [(edge, dict(zip(scheme, cells))) for edge, cells in zip(gajd.edges_in_order, selected)]
        return eq5_expression(edge_patterns, [(s, by_col) for s in gajd.interactions])

    def witness(self, pattern: tuple[int, ...]) -> tuple[int, ...]:
        """The least selection producing `pattern`: the smallest row id per edge projection."""
        return tuple(
            first[tuple([pattern[c] for c in cols])] for first, cols in zip(self.first, self.cols)
        )


class _ChaseRun:
    """The state of one chase: working tableau, int-coded patterns, indexes and pending applications.

    Every produced cell comes from a selected row, so the initial tableau's
    variables are all the run will meet.  Each is coded once as its position
    in `variables`, and everything the joins touch holds tuples of those
    ints: the rows' patterns (`patterns`, by row id, and `row_of`, pattern to
    row id), the compiled rules' projections and index keys, the join
    bindings, the `pushed` sets and the pending entries.  Only an applied
    application is decoded into `Variable` cells and added to `work`, as a
    row whose weight expression is built when something reads it.

    `pending` is a heap of `(_key(pattern), rule_index, selection, pattern)`,
    one entry per (rule, pattern) found while the pattern was not a row.
    `max_dist` is counted from the applied patterns, never from a key.
    """

    def __init__(self, t: Tableau, rules: tuple[JRule, ...], rng: random.Random | None):
        self.rules = rules
        self.rng = rng
        self.work = t.copy()
        self.compiled = [_CompiledRule(rule, t.scheme) for rule in rules]
        self.steps: list[ChaseStep] = []
        self.duplicates = 0
        code: dict[Variable, int] = {}
        for row in t.rows:
            for v in row.cells:
                code.setdefault(v, len(code))
        self.variables = tuple(code)
        self.is_distinguished = [int(v.distinguished) for v in self.variables]
        self.patterns = [tuple([code[v] for v in row.cells]) for row in t.rows]
        self.row_of = {pattern: rid for rid, pattern in enumerate(self.patterns)}
        wd = t.distinguished_row()
        # None when some distinguished variable is in no row: no row can then carry them all.
        self.goal = tuple(code[v] for v in wd) if all(v in code for v in wd) else None
        self.pending: list[tuple[float, int, tuple[int, ...], tuple[int, ...]]] = []
        self.pushed: list[set[tuple[int, ...]]] = [set() for _ in rules]
        self.max_dist = max((row.distinguished_count() for row in self.work.rows), default=0)
        self.indexed = 0

    def _index_row(self, rid: int) -> None:
        """Index row `rid` and join each of its new edge projections with the rest."""
        cells = self.patterns[rid]
        for rule_idx, cr in enumerate(self.compiled):
            new = []
            for pos, cols in enumerate(cr.cols):
                proj = tuple([cells[c] for c in cols])
                if proj not in cr.first[pos]:
                    cr.first[pos][proj] = rid
                    cr.index[pos].setdefault(cr.plan.key(pos, proj), []).append(proj)
                    new.append((pos, proj))
            if new:
                emit = self._consider(rule_idx, cr)
                for fixed in new:
                    join(cr.plan, cr.index, emit, fixed)

    def _key(self, pattern: tuple[int, ...]) -> float:
        """The pending priority of `pattern`: most distinguished variables first, or a seeded random draw."""
        if self.rng is not None:
            return self.rng.random()
        return -sum([self.is_distinguished[v] for v in pattern])

    def _consider(self, rule_idx: int, cr: _CompiledRule):
        row_of, pushed, pending, key = self.row_of, self.pushed[rule_idx], self.pending, self._key

        def emit(binding: list) -> None:
            pattern = tuple(binding)
            if pattern in row_of:
                self.duplicates += 1
                return
            if pattern in pushed:
                return
            pushed.add(pattern)
            heapq.heappush(pending, (key(pattern), rule_idx, cr.witness(pattern), pattern))

        return emit

    def _next(self) -> tuple[float, int, tuple[int, ...], tuple[int, ...]] | None:
        """The pending entry at the top of the heap; stale entries are dropped."""
        pending = self.pending
        while pending:
            if pending[0][3] not in self.row_of:
                return pending[0]
            self.duplicates += 1
            heapq.heappop(pending)
        return None

    def run(self, stop_at_distinguished: bool, stop_when_no_gain: bool, max_rows: int) -> str:
        """Apply pending applications until a stop rule holds; returns the stop reason."""
        work, variables, is_distinguished = self.work, self.variables, self.is_distinguished
        while True:
            if stop_at_distinguished and self.goal in self.row_of:
                return "distinguished"
            for rid in range(self.indexed, len(work.rows)):
                self._index_row(rid)
            self.indexed = len(work.rows)
            entry = self._next()
            if entry is None:
                return "fixpoint"
            _, rule_idx, selection, pattern = entry
            dist = sum([is_distinguished[v] for v in pattern])
            if stop_when_no_gain and dist <= self.max_dist:
                return "no_gain"
            heapq.heappop(self.pending)
            if len(work.rows) + 1 > max_rows:
                raise ChaseRowLimitError(
                    f"chase exceeded the {max_rows}-row cap before terminating", limit=max_rows
                )
            cr = self.compiled[rule_idx]
            row = cr.produce(work, selection, tuple([variables[c] for c in pattern]))
            rid = work.add_row(row)
            self.patterns.append(pattern)
            self.row_of[pattern] = rid
            self.steps.append(ChaseStep(cr.rule, selection, row, rid))
            self.max_dist = max(self.max_dist, dist)


def chase(
    t: Tableau | ChaseTrace,
    constraints: Iterable[Gajd | JRule],
    *,
    stop_at_distinguished: bool = False,
    stop_when_no_gain: bool = False,
    rng: random.Random | None = None,
    max_rows: int = DEFAULT_MAX_ROWS,
) -> ChaseTrace:
    """Apply derivation rules to (a copy of) `t` until a stop condition holds.

    Each rule is applied as a natural join of the rows' distinct projections
    onto its edges, taken in certificate order with one index per
    interaction set, and semi-naively: a new row is joined only where one of
    its edge projections is new.  Each result that is not yet a row becomes
    one pending application per rule, whose selection takes, at each edge,
    the smallest row id with that projection.  That is the lexicographically
    least selection producing the pattern, and a later row can never lower
    it, so the order below is that of trying every selection of rows.

    With no stop options this runs to the fixpoint, which is unique whatever
    the application order.  The default order is deterministic best-first:
    among all applicable productive rule applications, prefer the candidate
    row with the most distinguished variables, breaking ties by rule input
    order and then by selection.  Passing `rng` replaces that priority with a
    seeded random key drawn when an application is found (used to exercise
    order independence).
    `stop_at_distinguished` ends the run once the tableau holds the
    all-distinguished row, so a tableau that starts with it yields no steps.

    Passing the trace of an earlier call instead of a tableau continues that
    call's run where it stopped, with the same constraints and order: the
    pending applications and indexes carry over, the earlier trace keeps its
    final tableau, and the new trace starts from it and holds only the new
    steps.  A trace can be continued once.

    Raises ChaseRowLimitError when the tableau would exceed `max_rows`.
    """
    rules = _as_rules(constraints)
    if isinstance(t, ChaseTrace):
        state = t._run
        if state is None:
            raise ValueError("this trace was already continued, or does not come from chase()")
        if rules != state.rules:
            raise ValueError("a chase continues under the constraints it started with")
        if rng is not None:
            raise ValueError("a continued chase keeps the order it started with")
        rng = state.rng
    else:
        state = None
    if stop_when_no_gain and rng is not None:
        raise ValueError("the no-gain stop rule requires the deterministic order")

    if state is None:
        initial = t.copy()
        state = _ChaseRun(t, rules, rng)
    else:
        t._run = None
        initial, state.work = state.work, state.work.copy()
    first_step, duplicates = len(state.steps), state.duplicates
    stop_reason = state.run(stop_at_distinguished, stop_when_no_gain, max_rows)
    return ChaseTrace(
        initial=initial,
        steps=state.steps[first_step:],
        final=state.work,
        stop_reason=stop_reason,
        duplicates=state.duplicates - duplicates,
        _run=state,
    )


@dataclass(frozen=True)
class AtomRewrite:
    """A marginal-consistency rewrite applied while assembling a factorization."""

    original: MarginalAtom
    restricted: MarginalAtom
    summed: Variable

    def render(self) -> str:
        return f"rewrite: {self.original.render()} -> {self.restricted.render()} (sum over {self.summed.render()})"


@dataclass
class Verdict:
    """Outcome of an implication test.

    `trace` is the presentation derivation (hill-climbing prefix, stopped at
    the all-distinguished row when reached).  For negative verdicts
    `closure_trace` holds the continuation to the unrestricted fixpoint that
    certifies non-derivability.  `factorization` is the decomposable-product
    form of the all-distinguished row, with the atom rewrites used to reach
    it listed in `rewrites`.
    """

    holds: bool
    factorization: RationalExpression | None
    trace: ChaseTrace
    closure_trace: ChaseTrace | None = None
    rewrites: tuple[AtomRewrite, ...] = ()


def _atom_at(scheme: AttributeSet, row: Row, over: AttributeSet) -> MarginalAtom:
    cells = dict(zip(scheme, row.cells))
    return MarginalAtom.from_cells(over, cells)


def _marginalize_expr(
    expr: RationalExpression,
    row: Row,
    scheme: AttributeSet,
    onto: AttributeSet,
    rewrites: list[AtomRewrite],
) -> RationalExpression | None:
    """Sum the row's pattern variables outside `onto` out of `expr`, atom by atom.

    Succeeds only when each summed variable occurs in exactly one numerator
    atom instance and nowhere else; the sum then slides inside that atom and
    restricts it.  Returns None when any variable resists, in which case the
    caller falls back to the unexpanded marginal atom.
    """
    current = expr
    for a in scheme:
        if a in onto:
            continue
        v = row.cells[scheme.index(a)]
        in_den = sum(1 for at in current.denominator if v in at.pattern)
        holders = [i for i, at in enumerate(current.numerator) if v in at.pattern]
        if in_den or len(holders) != 1:
            return None
        i = holders[0]
        atom = current.numerator[i]
        restricted = restrict_atom(atom, atom.over - AttributeSet([a]))
        rewrites.append(AtomRewrite(atom, restricted, v))
        num = list(current.numerator)
        num[i] = restricted
        current = RationalExpression.of(num, current.denominator)
    return current


def factorization_for(trace: ChaseTrace) -> tuple[RationalExpression, tuple[AtomRewrite, ...]]:
    """Expand the all-distinguished row's derivation into its product form.

    Working down the derivation, each edge atom over a derived row is
    replaced by that row's own derivation expression marginalized onto the
    edge.  Atoms over initial rows reduce directly to marginal atoms.  The
    result only mentions distinguished variables, and on every relation
    satisfying the constraints it evaluates to the relation's weight.
    """
    final = trace.final
    scheme = final.scheme
    wd = final.distinguished_row()
    if not final.has_pattern(wd):
        raise ValueError("the final tableau has no all-distinguished row")
    derivations = {step.produced_id: step for step in trace.steps}
    rewrites: list[AtomRewrite] = []
    memo: dict[tuple[int, AttributeSet], RationalExpression] = {}

    def expr_for(rid: int, onto: AttributeSet) -> RationalExpression:
        key = (rid, onto)
        if key in memo:
            return memo[key]
        row = final.rows[rid]
        step = derivations.get(rid)
        if step is None:
            result = RationalExpression.atom(_atom_at(scheme, row, onto))
        else:
            e = RationalExpression.of()
            for edge, k in zip(step.rule.gajd.edges_in_order, step.selection):
                e = e * expr_for(k, edge)
            e = e * RationalExpression.of((), [_atom_at(scheme, row, s) for s in step.rule.gajd.interactions])
            if onto == scheme:
                result = e
            else:
                reduced = _marginalize_expr(e, row, scheme, onto, rewrites)
                result = reduced if reduced is not None else RationalExpression.atom(
                    _atom_at(scheme, row, onto)
                )
        memo[key] = result
        return result

    expression = expr_for(final.row_id(wd), scheme)
    return expression, tuple(rewrites)


def implies(
    constraints: Iterable[Gajd | JRule],
    target: Gajd,
    *,
    max_rows: int = DEFAULT_MAX_ROWS,
) -> Verdict:
    """Decide whether the constraints logically imply the target dependency.

    The target holds exactly when the all-distinguished row is derivable in
    the chase of the target's tableau under the constraint rules.  The
    presentation trace is the hill-climbing prefix; when it does not reach
    the all-distinguished row, the unrestricted closure decides the verdict
    and is attached as `closure_trace`.  The closure continues the prefix's
    run rather than chasing the prefix's final tableau afresh: the prefix
    trace is kept as it stopped, and the run goes on without the no-gain
    stop.  Its pending applications are the ones a fresh chase would find,
    with the same least selections, so the closure's steps are the same.
    """
    rules = _as_rules(constraints)
    trace = chase(build_tr(target), rules, stop_at_distinguished=True, stop_when_no_gain=True, max_rows=max_rows)
    if not trace.final.contains_distinguished_row():
        closure = chase(trace, rules, stop_at_distinguished=True, max_rows=max_rows)
        if not closure.final.contains_distinguished_row():
            return Verdict(False, None, trace, closure, ())
        trace = ChaseTrace(
            initial=trace.initial,
            steps=trace.steps + closure.steps,
            final=closure.final,
            stop_reason=closure.stop_reason,
            duplicates=trace.duplicates + closure.duplicates,
        )
    expression, rewrites = factorization_for(trace)
    return Verdict(True, expression, trace, None, rewrites)
