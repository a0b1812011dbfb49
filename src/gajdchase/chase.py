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
join from an edge visits the others in certificate order and looks each up
on every column already bound: its interaction set with the edges before it
(Yannakakis's acyclic join), plus, for an edge before the start, what it
shares with the start's edge, so no candidate is ever compared.  The join
is semi-naive: a new row is joined only where one of its edge projections
is new.  Each new projection is joined with the projections indexed before
it as soon as it is indexed, before the row's next one, so a result comes
out exactly once per run, at the last new projection it uses.
A produced row is not indexed for the rule that produced it: on each of that
rule's edges it carries the projection of a row already indexed there.
Each index entry carries the first row id with its projection, so the join
hands back each pattern together with its least selection, the smallest row
id carrying each edge projection.  Trying every selection of rows in
lexicographic order would meet that selection first, and later rows only
get larger ids, so steps, row ids and weight expressions are the same as
under that exhaustive enumeration.

The run is coded from the first row: `build_tr` writes the target's rows as
tuples of small ints, and its patterns, projections, index keys, join
bindings and pending applications are tuples of them.  Its record is one
application `(rule, selection)` per produced row id (`Tableau.sources`).
Variables, rows, steps and weight expressions (`eq5_expression`, looked up
on this module when called) are decoded from it the first time something
reads them, such as a rendered step, and kept; `len(final)`, the stop
reason and the duplicates need none.  Likewise a positive verdict builds its
factorization the first time it is read, so output that prints only the
verdict, such as `verify`'s, never builds one.

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
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import ChaseRowLimitError, SchemeError
from .hypergraph import AttributeSet
from .prelation import Gajd, getter
from .symbolic import MarginalAtom, RationalExpression, Variable, eq5_expression, restrict_atom
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
        r = self.record(number)
        rows = ",".join(map(str, r["rows"]))
        return f"step {r['step']}: rule {r['rule']} rows [{rows}] -> row {r['pattern']} expr {r['expr']}"

    def record(self, number: int) -> dict:
        return {
            "step": number,
            "rule": self.rule.name,
            "rows": [k + 1 for k in self.selection],
            "pattern": self.produced.render_pattern(),
            "expr": self.produced.weight_expr.render(),
        }


class ChaseTrace:
    """A replayable derivation log: initial tableau, steps, final tableau.

    `steps` is a list, or the range of row ids of `final` that a run
    appended, whose steps are decoded from `final.sources` on first read and
    kept.  `duplicates` counts the join results whose pattern was already a
    row when they came out, each once per rule (including those met while
    indexing the initial rows), and the stale pending applications: those
    whose pattern became a row, by another rule, before they came up.
    """

    def __init__(self, initial: Tableau, steps: Sequence[ChaseStep] | range, final: Tableau, stop_reason: str,
                 duplicates: int = 0, _run: "_ChaseRun | None" = None):
        self.initial, self._steps, self.final = initial, steps, final
        self.stop_reason, self.duplicates = stop_reason, duplicates
        self._run = _run  # the run that produced this trace, while it can still be continued

    @property
    def steps(self) -> Sequence[ChaseStep]:
        steps = self._steps
        if isinstance(steps, range):
            rows, sources = (self.final.rows, self.final.sources) if steps else ((), ())
            self._steps = steps = [ChaseStep(sources[k][0].rule, sources[k][1], rows[k], k) for k in steps]
        return steps

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
            row = Row(pattern, cr.expression(pattern, [t.rows[k].cells for k in selection]))
            if row != step.produced:
                raise ValueError(f"step {number} produces {row.render_pattern()}, not the recorded row")
            rid = t.add_row(row)
            if rid != step.produced_id:
                raise ValueError(f"step {number} replayed to row id {rid}, not {step.produced_id}")
        return t


def _as_rules(constraints: Iterable[Gajd | JRule]) -> tuple[JRule, ...]:
    return tuple([c if isinstance(c, JRule) else JRule(c.render(), c) for c in constraints])


class _CompiledRule:
    """A rule over one scheme: edge columns in certificate order and their join plan.

    The plan's indexes hold projections of the run tableau's coded patterns
    (`Tableau.patterns`), each followed by its first row id; a two-edge rule
    keeps one per position, both on the separator.  A join result is the
    pattern followed by its least selection.  `reads` holds, per position,
    the reader of a coded pattern's edge projection (`prelation.getter`, built
    once here), the projections met so far, and the plan's `inserts` there.
    `expression` builds the weight of the rule's row for a selection, for
    decoded rows and `ChaseTrace.replay`.  A rule over another scheme is a SchemeError.
    `compile` builds the plan and `reads`; a run calls it before its first
    join, so a run that stops before joining, and a replay, build no plan.
    """

    def __init__(self, rule: JRule, scheme: AttributeSet):
        if rule.gajd.scheme != scheme:
            raise SchemeError(
                f"constraint {rule.name} is over {rule.gajd.scheme.render()}, not the tableau scheme "
                f"{scheme.render()}; constraints must cover the full scheme (implicit padding is not performed)"
            )
        self.rule = rule
        self.scheme = scheme
        column = {a: c for c, a in enumerate(scheme)}
        self.cols = tuple(tuple([column[a] for a in edge]) for edge in rule.gajd.edges_in_order)

    def compile(self) -> None:
        # Position i binds its row id to slot n + i; a join starts at a new projection's position.
        n = len(self.scheme)
        self.plan = plan = JoinPlan([cols + (n + i,) for i, cols in enumerate(self.cols)], range(len(self.cols)))
        self.reads = tuple((getter(cols, False), set(), ins) for cols, ins in zip(self.cols, plan.inserts))

    def expression(
        self, pattern: tuple[Variable, ...], selected: Sequence[tuple[Variable, ...]]
    ) -> RationalExpression:
        """The weight of the row at `pattern`: selected edge atoms over interaction atoms at `pattern`."""
        scheme, gajd = self.scheme, self.rule.gajd
        by_col = dict(zip(scheme, pattern))
        edge_patterns = [(edge, dict(zip(scheme, cells))) for edge, cells in zip(gajd.edges_in_order, selected)]
        return eq5_expression(edge_patterns, [(s, by_col) for s in gajd.interactions])


class _ChaseRun:
    """The state of one chase: working tableau, compiled rules and pending applications.

    Every produced cell comes from a selected row, so the initial tableau's
    variables, coded in `work.table`, are all the run will meet.  An applied
    application is appended to `work` as its pattern and its record
    `(compiled rule, selection)`, all the run keeps of it.  The run keeps one
    `work` for its whole life: the join callbacks hold its `row_of`.

    `pending` is a heap of `(key, rule_index, selection, pattern)`, one
    entry per (rule, pattern) found while the pattern was not a row: the
    join emits each such pair once, through the rule's callback in `emits`
    (see `_consider`), so no entry repeats and the heap order depends only
    on the entries.  `max_dist` is counted from the applied patterns, never
    from a key.
    """

    def __init__(self, t: Tableau, rules: tuple[JRule, ...], rng: random.Random | None):
        self.rules, self.rng = rules, rng
        self.work = work = t.copy()
        self.compiled = [_CompiledRule(rule, t.scheme) for rule in rules]
        # The duplicates so far (see ChaseTrace): one item, which the `emits` count into.
        self.duplicates = [0]
        self.is_distinguished = [int(distinguished) for distinguished, _, _ in work.table]
        self.goal = work.goal()
        self.pending: list[tuple[float, int, tuple[int, ...], tuple[int, ...]]] = []
        self.emits = [self._consider(rule_idx, cr) for rule_idx, cr in enumerate(self.compiled)]
        self.max_dist = max((sum([self.is_distinguished[v] for v in p]) for p in work.patterns), default=0)
        self.indexed = 0

    def _index_row(self, rid: int) -> None:
        """Index each new edge projection of row `rid` and join it with those indexed before it.

        Per rule position, the compiled `reads` give the projection, the
        `seen` set, and the plan's inserts there; a new projection, followed
        by `rid`, enters each of the position's indexes under the key read
        from that entry, before the join from its position.  The rule that
        produced the row is skipped: on each of its edges the row carries the
        projection of a row already indexed there.
        """
        cells, source = self.work.patterns[rid], self.work.sources[rid]
        producer = source[0] if type(source) is tuple else None
        for cr, emit in zip(self.compiled, self.emits):
            if cr is producer:
                continue
            plan = cr.plan
            for pos, (project, seen, inserts) in enumerate(cr.reads):
                proj = project(cells)
                if proj not in seen:
                    seen.add(proj)
                    entry = proj + (rid,)
                    for key_of, index in inserts:
                        index.setdefault(key_of(entry), []).append(entry)
                    join(plan, emit, (pos, entry))

    def _consider(self, rule_idx: int, cr: _CompiledRule):
        """Rule `rule_idx`'s join callback: count a result that is already a row, queue any other.

        The pending key is most distinguished variables first, or a seeded
        random draw.  The callback holds the run's containers but not the run,
        so the run and its `emits` form no reference cycle.
        """
        row_of, pending, duplicates = self.work.row_of, self.pending, self.duplicates
        rng, is_distinguished = self.rng, self.is_distinguished
        n = len(cr.scheme)

        def emit(binding: tuple) -> None:
            pattern = binding[:n]
            if pattern in row_of:
                duplicates[0] += 1
                return
            key = rng.random() if rng is not None else -sum([is_distinguished[v] for v in pattern])
            heapq.heappush(pending, (key, rule_idx, binding[n:], pattern))

        return emit

    def _next(self) -> tuple[float, int, tuple[int, ...], tuple[int, ...]] | None:
        """The pending entry at the top of the heap; stale entries are dropped."""
        pending, row_of = self.pending, self.work.row_of
        while pending:
            if pending[0][3] not in row_of:
                return pending[0]
            self.duplicates[0] += 1
            heapq.heappop(pending)
        return None

    def run(self, stop_at_distinguished: bool, stop_when_no_gain: bool, max_rows: int) -> str:
        """Apply pending applications until a stop rule holds; returns the stop reason."""
        work, is_distinguished = self.work, self.is_distinguished
        while True:
            if stop_at_distinguished and self.goal in work.row_of:
                return "distinguished"
            if not self.indexed:
                for cr in self.compiled:
                    cr.compile()
            for rid in range(self.indexed, len(work)):
                self._index_row(rid)
            self.indexed = len(work)
            entry = self._next()
            if entry is None:
                return "fixpoint"
            _, rule_idx, selection, pattern = entry
            dist = sum([is_distinguished[v] for v in pattern])
            if stop_when_no_gain and dist <= self.max_dist:
                return "no_gain"
            heapq.heappop(self.pending)
            if len(work) + 1 > max_rows:
                raise ChaseRowLimitError(
                    f"chase exceeded the {max_rows}-row cap before terminating", limit=max_rows
                )
            # Unchecked: every cell comes from a checked row, and `row_of` says the pattern is new.
            work.append(pattern, (self.compiled[rule_idx], selection))
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
    onto its edges, taken in certificate order with each edge looked up on
    every column already bound, and semi-naively: a new row is joined only
    where one of its edge projections is new, each new projection with
    those indexed before it, so each result comes out once per rule.  Each result that is
    not yet a row becomes one pending application, whose selection takes,
    at each edge, the smallest row id with that projection.  That is the
    lexicographically least selection producing the pattern, and a later row
    can never lower it, so the order below is that of trying every selection
    of rows.

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
    pending applications and indexes carry over, and the run appends to its
    own tableau, the new trace's final.  The earlier trace's final becomes a
    copy holding exactly the rows it stopped with; the new trace starts from
    that copy and holds only the new steps.  A trace can be continued once.

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
        # The run, and the indexes its join callbacks hold, stay on `state.work`.
        initial = t.final = state.work.copy()
    duplicates = state.duplicates[0]
    stop_reason = state.run(stop_at_distinguished, stop_when_no_gain, max_rows)
    steps = range(len(initial), len(state.work))
    return ChaseTrace(initial, steps, state.work, stop_reason, state.duplicates[0] - duplicates, state)


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
    it listed in `rewrites`; both are None and () for a negative verdict.
    They are built from `trace` by `factorization_for` (looked up on this
    module when called) the first time either is read, and then kept.
    """

    holds: bool
    trace: ChaseTrace
    closure_trace: ChaseTrace | None = None

    @cached_property
    def _factorized(self) -> tuple[RationalExpression | None, tuple[AtomRewrite, ...]]:
        return factorization_for(self.trace) if self.holds else (None, ())

    @property
    def factorization(self) -> RationalExpression | None:
        return self._factorized[0]

    @property
    def rewrites(self) -> tuple[AtomRewrite, ...]:
        return self._factorized[1]


def _atom_at(scheme: AttributeSet, row: Row, over: AttributeSet) -> MarginalAtom:
    cells = dict(zip(scheme, row.cells))
    return MarginalAtom.from_cells(over, cells)


def _marginalize_expr(
    exps: dict[MarginalAtom, int],
    row: Row,
    scheme: AttributeSet,
    onto: AttributeSet,
    rewrites: list[AtomRewrite],
) -> bool:
    """Sum the row's pattern variables outside `onto` out of `exps`, atom by atom.

    `exps` maps each atom of a quotient to its signed exponent: positive in
    the numerator, negative in the denominator, 0 where the two cancel.  A
    summed variable must sit in exactly one atom with a nonzero exponent,
    and that exponent must be 1; the sum then slides inside that atom and
    restricts it, and the rewrite is appended to `rewrites`.  Returns False
    as soon as a variable resists, leaving `exps` and the rewrites made so
    far as they are; the caller then falls back to the unexpanded marginal
    atom.
    """
    for a, v in zip(scheme, row.cells):
        if a in onto:
            continue
        holder = None
        for atom, e in exps.items():
            if e and v in atom.pattern:
                if holder is not None or e != 1:
                    return False
                holder = atom
        if holder is None:
            return False
        restricted = restrict_atom(holder, holder.over - AttributeSet([a]))
        rewrites.append(AtomRewrite(holder, restricted, v))
        exps[holder] = 0
        exps[restricted] = exps.get(restricted, 0) + 1
    return True


def _quotient(exps: dict[MarginalAtom, int]) -> RationalExpression:
    """The canonical quotient of atoms raised to their signed exponents."""
    num: list[MarginalAtom] = []
    den: list[MarginalAtom] = []
    for atom, e in exps.items():
        if e > 0:
            num.extend([atom] * e)
        elif e < 0:
            den.extend([atom] * -e)
    return RationalExpression.of(num, den)


def factorization_for(trace: ChaseTrace) -> tuple[RationalExpression, tuple[AtomRewrite, ...]]:
    """Expand the all-distinguished row's derivation into its product form.

    Working down the derivation, each edge atom over a derived row is
    replaced by that row's own derivation expression marginalized onto the
    edge.  Atoms over initial rows reduce directly to marginal atoms.  The
    result only mentions distinguished variables, and on every relation
    satisfying the constraints it evaluates to the relation's weight.
    """
    final = trace.final
    rid = final.row_of.get(final.goal())
    if rid is None:
        raise ValueError("the final tableau has no all-distinguished row")
    derivations = {step.produced_id: step for step in trace.steps}
    rewrites: list[AtomRewrite] = []
    memo: dict[tuple[int, AttributeSet], RationalExpression] = {}
    expression = _expand(rid, final.scheme, final, derivations, memo, rewrites)
    return expression, tuple(rewrites)


def _expand(
    rid: int,
    onto: AttributeSet,
    final: Tableau,
    derivations: dict[int, ChaseStep],
    memo: dict[tuple[int, AttributeSet], RationalExpression],
    rewrites: list[AtomRewrite],
) -> RationalExpression:
    """The expression of row `rid` marginalized onto `onto`, memoized per `(rid, onto)`.

    A derived row's quotient is kept as a map from atoms to signed
    exponents while it is assembled: each selected row's expansion adds its
    exponents, and each interaction atom subtracts one.  The map is made
    canonical once, when its memo entry is stored.
    """
    key = (rid, onto)
    result = memo.get(key)
    if result is not None:
        return result
    scheme = final.scheme
    row = final.rows[rid]
    step = derivations.get(rid)
    if step is None:
        result = RationalExpression.atom(_atom_at(scheme, row, onto))
    else:
        gajd = step.rule.gajd
        exps: dict[MarginalAtom, int] = {}
        for edge, k in zip(gajd.edges_in_order, step.selection):
            sub = _expand(k, edge, final, derivations, memo, rewrites)
            for atom in sub.numerator:
                exps[atom] = exps.get(atom, 0) + 1
            for atom in sub.denominator:
                exps[atom] = exps.get(atom, 0) - 1
        for s in gajd.interactions:
            atom = _atom_at(scheme, row, s)
            exps[atom] = exps.get(atom, 0) - 1
        if onto == scheme or _marginalize_expr(exps, row, scheme, onto, rewrites):
            result = _quotient(exps)
        else:
            result = RationalExpression.atom(_atom_at(scheme, row, onto))
    memo[key] = result
    return result


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
    A positive verdict's factorization is built when first read.
    """
    rules = _as_rules(constraints)
    trace = chase(build_tr(target), rules, stop_at_distinguished=True, stop_when_no_gain=True, max_rows=max_rows)
    if trace.stop_reason != "distinguished":
        closure = chase(trace, rules, stop_at_distinguished=True, max_rows=max_rows)
        if closure.stop_reason != "distinguished":
            return Verdict(False, trace, closure)
        steps = range(len(trace.initial), len(closure.final))
        duplicates = trace.duplicates + closure.duplicates
        trace = ChaseTrace(trace.initial, steps, closure.final, closure.stop_reason, duplicates)
    return Verdict(True, trace)
