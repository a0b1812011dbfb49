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
out exactly once per run, at the last new projection it uses.  The result
of a row's own projections, one per edge, is the row itself.  A rule of one
or two edges counts it as a duplicate without forming it: a two-edge rule,
a multivalued dependency and the classical chase case, joins inline and
skips the row's own entry in the bucket it joins at the row's last new
projection.  A longer rule forms it and finds it a row.
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
reason and the duplicates need none.  A variable is decoded from its code's
fields, and a step's atoms are read from its rows' cells by getters its
rule builds once per run; neither is checked again, since the fields were
checked when coded.  Likewise a positive verdict builds its factorization
the first time it is read, from the record and the coded rows it reaches:
the expansion runs on coded atoms, and only the atoms of the result and of
its rewrites are decoded, once each, with no row or step decoded.  Output
that prints only the verdict, such as `verify`'s, never builds one.

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
from functools import cached_property
from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import ChaseRowLimitError, SchemeError
from .hypergraph import AttributeSet
from .prelation import Gajd, getter
from .symbolic import MarginalAtom, RationalExpression, Variable, eq5_expression
from .tableau import JoinPlan, Row, Tableau, _extend, build_tr

DEFAULT_MAX_ROWS = 100_000


class JRule(NamedTuple):
    """A named derivation rule for a dependency covering the full scheme."""

    name: str
    gajd: Gajd


class ChaseStep(NamedTuple):
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

    The steps are the rows of `final` from `len(initial)` on, a range fixed
    when the trace is built; `steps` decodes them from `final.sources` on
    first read and keeps them.  `duplicates` counts the join results whose
    pattern was already a row when they came out, each once per rule
    (including those met while indexing the initial rows), and the stale
    pending applications: those whose pattern became a row, by another
    rule, before they came up.  Among the join results is each rule's result
    from a row's own projections, the row itself; a rule of one or two edges
    counts it without forming it.
    """

    def __init__(self, initial: Tableau, final: Tableau, stop_reason: str, duplicates: int,
                 _run: "_ChaseRun | None"):
        self.initial, self.final = initial, final
        self.stop_reason, self.duplicates = stop_reason, duplicates
        self._run = _run  # the run that produced this trace, while it can still be continued
        self._ids = range(len(initial), len(final))

    @cached_property
    def steps(self) -> list[ChaseStep]:
        ids = self._ids
        rows, sources = (self.final.rows, self.final.sources) if ids else ((), ())
        return [ChaseStep(sources[k][0].rule, sources[k][1], rows[k], k) for k in ids]

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


def _pair_readers(cols: Sequence[Sequence[int]], n: int) -> tuple[tuple[Callable, Callable], ...]:
    """Per edge of a two-edge rule over `n` columns: its key reader and its binding reader.

    `cols` holds each edge's columns, ascending, as `Gajd.edge_columns`
    gives them.  An index entry at an edge is its projection followed by a
    row id.  The key reader reads the separator, the columns the two edges
    share, in scheme order from an entry of the edge; so it both fills the
    edge's index and probes the other edge's, which is keyed the same way.
    The binding reader reads a pattern and its selection from the edge's
    entry followed by the other edge's: each column at its first
    occurrence, then the two row ids in edge order.  These are the readers
    of `JoinPlan(slots, range(2))`, where `slots[i]` is edge i's columns
    followed by `n + i`: edge i's insert reader and its probe's key and
    binding readers.
    """
    first, second = cols
    separator = [c for c in first if c in second]
    readers = []
    for pos, (own, other) in enumerate(((first, second), (second, first))):
        layout = (*own, n + pos, *other, n + 1 - pos)
        readers.append((getter([own.index(c) for c in separator], True),
                        getter([layout.index(slot) for slot in range(n + 2)], False)))
    return tuple(readers)


def _as_rules(constraints: Iterable[Gajd | JRule]) -> tuple[JRule, ...]:
    return tuple([c if isinstance(c, JRule) else JRule(c.render(), c) for c in constraints])


class _CompiledRule:
    """A rule over one scheme: its edge columns in certificate order.

    `cols` is the dependency's `edge_columns`, per edge the columns a run's
    join for the rule reads (see `_ChaseRun`).  `reads` gives, per edge and
    then per interaction set, the set, its names and the getter of its
    cells from a row's cells, built on first read.  `expression` builds the
    weight of the rule's row for a selection, for decoded rows and
    `ChaseTrace.replay`, and the factorization reads coded atoms with the
    same getters.  A rule over another scheme is a SchemeError.
    """

    def __init__(self, rule: JRule, scheme: AttributeSet):
        if rule.gajd.scheme != scheme:
            raise SchemeError(
                f"constraint {rule.name} is over {rule.gajd.scheme.render()}, not the tableau scheme "
                f"{scheme.render()}; constraints must cover the full scheme (implicit padding is not performed)"
            )
        self.rule = rule
        self.scheme = scheme
        self.cols = rule.gajd.edge_columns

    @cached_property
    def reads(self) -> tuple[tuple[tuple[AttributeSet, tuple[str, ...], Callable], ...], ...]:
        gajd, column = self.rule.gajd, self.scheme.index
        edges = tuple([(edge, edge.members, getter(cols, False)) for edge, cols in zip(gajd.edges_in_order, self.cols)])
        interactions = tuple([(s, s.members, getter([column(a) for a in s], False)) for s in gajd.interactions])
        return edges, interactions

    def expression(
        self, pattern: tuple[Variable, ...], selected: Sequence[tuple[Variable, ...]]
    ) -> RationalExpression:
        """The weight of the row at `pattern`: selected edge atoms over interaction atoms at `pattern`.

        The cells are a tableau's, checked when coded, so `eq5_expression`
        (looked up on this module when called) checks no atom.
        """
        edges, interactions = self.reads
        return eq5_expression(
            [(over, read(cells)) for (over, _, read), cells in zip(edges, selected)],
            [(over, read(pattern)) for over, _, read in interactions],
        )


class _ChaseRun:
    """The state of one chase: working tableau, compiled rules and pending applications.

    Every produced cell comes from a selected row, so the initial tableau's
    variables, the keys of `work.code_of` in code order, are all the run will
    meet; `is_distinguished` reads their flags from those keys once.  An
    applied application is appended to `work` as its pattern and its record
    `(compiled rule, selection)`, all the run keeps of it.  The run keeps
    one `work` for its whole life: the join callbacks hold its `row_of`.

    Before its first join the run lays out each rule's join in `units`, one
    unit per rule in input order, holding what indexing a row under the
    rule reads (see `_compile`).  Its indexes hold projections of `work`'s
    coded patterns, each followed by its first row id; a join result is the
    pattern followed by its least selection.  A two-edge rule is one unit,
    built from its separator with no `JoinPlan`: one index per edge on the
    separator, and per edge one key reader that fills the edge's index and
    probes the other's, and one binding reader.  The row's two projections
    are read together, and each new one is joined inline with the other
    edge's bucket.  A rule of three or more edges builds its `JoinPlan` and
    keeps one port per position, each new projection joined from its own
    position, its probe handed straight to `tableau._extend`, the recursion
    `join` runs.  A one-edge rule's only result is the row itself, so it
    indexes nothing and builds nothing.  A run that stops before its first
    join lays out no unit, and nothing of the units outlives the run.

    `pending` is a heap of `(key, rule_index, selection, pattern, dist)`,
    one entry per (rule, pattern) found while the pattern was not a row:
    the join emits each such pair once, through the rule's callback in
    `emits` (see `_consider`), so no entry repeats and the heap order
    depends only on the entries.  Each (rule, selection) is pushed once,
    so entries never compare past the selection.  `dist` is the pattern's
    count of distinguished cells, counted once when the entry is pushed.
    `max_dist` is counted from the applied patterns, never from a key.

    The join is also the run's work budget: once `pending` holds more than
    `len(rules)` times the row cap entries, the callback that pushed the
    last one raises ChaseRowLimitError, before the join goes on.  Each entry
    is a distinct (rule, pattern) with a derivable pattern, so the fixpoint
    already has more rows than the cap.  `cap` holds the cap of the current
    `run` call, which the callbacks read.
    """

    def __init__(self, t: Tableau, rules: tuple[JRule, ...], rng: random.Random | None):
        self.rules, self.rng = rules, rng
        self.work = work = t.copy()
        self.compiled = [_CompiledRule(rule, t.scheme) for rule in rules]
        # The duplicates so far (see ChaseTrace): one item, which the `emits` count into.
        self.duplicates = [0]
        self.cap = [0]
        self.is_distinguished = [int(distinguished) for distinguished, _, _ in work.code_of]
        self.goal = work.goal()
        self.pending: list[tuple[float, int, tuple[int, ...], tuple[int, ...], int]] = []
        self.emits = [self._consider(rule_idx, cr) for rule_idx, cr in enumerate(self.compiled)]
        self.max_dist = max((sum([self.is_distinguished[v] for v in p]) for p in work.patterns), default=0)
        self.indexed = 0

    def _compile(self) -> None:
        """Lay out each rule's join in `units`, one unit per rule in input order.

        A unit is `(compiled rule, pair, ports)`.  A two-edge rule's `pair`
        holds, per edge, the reader of a pattern's edge projection, the map
        of each projection met so far to its index entry, the key reader,
        the edge's index on the separator and the binding reader (see
        `_pair_readers`); then the rule's callback.  A rule of three or more
        edges has `pair` None and one port per position of its `JoinPlan`:
        position i binds its edge's columns and, at slot n + i, the row id
        that follows its projection, and every position is a start.  A
        one-edge rule has neither.
        """
        n = len(self.work.scheme)
        units = []
        for cr, emit in zip(self.compiled, self.emits):
            pair, ports = None, ()
            if len(cr.cols) == 2:
                pair = (*[(getter(cols, False), {}, key, {}, read)
                          for cols, (key, read) in zip(cr.cols, _pair_readers(cr.cols, n))], emit)
            elif len(cr.cols) > 2:
                plan = JoinPlan([cols + (n + i,) for i, cols in enumerate(cr.cols)], range(len(cr.cols)))
                ports = tuple([(getter(cols, False), set(), plan.inserts[pos], *plan.probes[pos], emit)
                               for pos, cols in enumerate(cr.cols)])
            units.append((cr, pair, ports))
        self.units = tuple(units)

    def _index_row(self, rid: int) -> None:
        """Index each new edge projection of row `rid` and join it with those indexed before it.

        One loop walks `units`, rule by rule, skipping the rule that
        produced the row: on each of its edges the row carries the
        projection of a row already indexed there.  A rule's result from the
        row's own projections, one per edge, is the row itself; a one-edge
        rule has no other, so it only counts that duplicate.  A two-edge
        rule reads both projections and looks each up in its map.  A new
        one, followed by `rid`, enters the map and its edge's index under
        its separator key, and is joined inline with the other edge's bucket
        under the same key.  At the row's last new projection that bucket
        holds the row's own entry at the other edge, which is skipped and
        counted as a duplicate.  At a
        port of a longer rule a new projection enters each of the
        position's indexes and is joined by the port's probe through
        `tableau._extend`, which forms the row's own result too.
        """
        cells, source = self.work.patterns[rid], self.work.sources[rid]
        producer = source[0] if type(source) is tuple else None
        duplicates = self.duplicates
        for cr, pair, ports in self.units:
            if cr is producer:
                continue
            if pair is not None:
                (project0, seen0, key0, index0, read0), (project1, seen1, key1, index1, read1), emit = pair
                proj0, proj1 = project0(cells), project1(cells)
                own0, own1 = seen0.get(proj0), seen1.get(proj1)
                if own0 is None:
                    own0 = seen0[proj0] = proj0 + (rid,)
                    key = key0(own0)
                    index0.setdefault(key, []).append(own0)
                    if own1 is None:
                        # The row's other projection is new too, so its bucket does not hold it yet.
                        bucket = index1.get(key)
                        if bucket:
                            for other in bucket:
                                emit(read0(own0 + other))
                    else:
                        for other in index1[key]:
                            if other is own1:
                                duplicates[0] += 1
                            else:
                                emit(read0(own0 + other))
                if own1 is None:
                    own1 = seen1[proj1] = proj1 + (rid,)
                    key = key1(own1)
                    index1.setdefault(key, []).append(own1)
                    for other in index0[key]:
                        if other is own0:
                            duplicates[0] += 1
                        else:
                            emit(read1(own1 + other))
            elif ports:
                for project, seen, inserts, steps, read, emit in ports:
                    proj = project(cells)
                    if proj not in seen:
                        seen.add(proj)
                        entry = proj + (rid,)
                        for key_of, index in inserts:
                            index.setdefault(key_of(entry), []).append(entry)
                        _extend(steps, 0, entry, read, emit)
            else:
                duplicates[0] += 1

    def _consider(self, rule_idx: int, cr: _CompiledRule):
        """Rule `rule_idx`'s join callback: count a result that is already a row, queue any other.

        Queuing an entry past the work budget raises ChaseRowLimitError.

        The pending key is most distinguished variables first, or a seeded
        random draw; the entry carries the pattern's count of distinguished
        cells either way.  The callback holds the run's containers but not
        the run, so the run and its `emits` form no reference cycle.
        """
        row_of, pending, duplicates = self.work.row_of, self.pending, self.duplicates
        rng, is_distinguished, cap, rules = self.rng, self.is_distinguished, self.cap, len(self.compiled)
        n = len(cr.scheme)

        def emit(binding: tuple) -> None:
            pattern = binding[:n]
            if pattern in row_of:
                duplicates[0] += 1
                return
            dist = sum([is_distinguished[v] for v in pattern])
            heapq.heappush(pending, (rng.random() if rng is not None else -dist, rule_idx, binding[n:], pattern, dist))
            if len(pending) > rules * cap[0]:
                raise ChaseRowLimitError(
                    f"chase stopped on work spent: more than {rules * cap[0]} pending applications, "
                    f"the budget of {rules} rule(s) times the {cap[0]}-row cap", limit=cap[0]
                )

        return emit

    def _next(self) -> tuple[float, int, tuple[int, ...], tuple[int, ...], int] | None:
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
        work = self.work
        self.cap[0] = max_rows
        while True:
            if stop_at_distinguished and self.goal in work.row_of:
                return "distinguished"
            if not self.indexed:
                self._compile()
            for rid in range(self.indexed, len(work)):
                self._index_row(rid)
            self.indexed = len(work)
            entry = self._next()
            if entry is None:
                return "fixpoint"
            _, rule_idx, selection, pattern, dist = entry
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
    Either way the returned trace's steps are the rows its final holds past
    its initial's, fixed when it is built.

    Raises ChaseRowLimitError when the tableau would exceed `max_rows`, or
    as soon as the pending applications number more than `max_rows` per
    rule, a budget on work spent that binds during a join: the fixpoint then
    has more than `max_rows` rows.
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
    return ChaseTrace(initial, state.work, stop_reason, state.duplicates[0] - duplicates, state)


class AtomRewrite(NamedTuple):
    """A marginal-consistency rewrite applied while assembling a factorization."""

    original: MarginalAtom
    restricted: MarginalAtom
    summed: Variable

    def render(self) -> str:
        return f"rewrite: {self.original.render()} -> {self.restricted.render()} (sum over {self.summed.render()})"


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
    Verdicts compare equal when their three fields do, and are not hashable.
    """

    __hash__ = None  # type: ignore[assignment]

    def __init__(self, holds: bool, trace: ChaseTrace, closure_trace: ChaseTrace | None):
        self.holds, self.trace, self.closure_trace = holds, trace, closure_trace

    def __eq__(self, other: object) -> bool:
        if type(other) is not Verdict:
            return NotImplemented
        return (self.holds, self.trace, self.closure_trace) == (other.holds, other.trace, other.closure_trace)

    def __repr__(self) -> str:
        return f"Verdict(holds={self.holds!r}, trace={self.trace!r}, closure_trace={self.closure_trace!r})"

    @cached_property
    def _factorized(self) -> tuple[RationalExpression | None, tuple[AtomRewrite, ...]]:
        return factorization_for(self.trace) if self.holds else (None, ())

    @property
    def factorization(self) -> RationalExpression | None:
        return self._factorized[0]

    @property
    def rewrites(self) -> tuple[AtomRewrite, ...]:
        return self._factorized[1]


# A coded atom is `(names, cells)`: its attribute names and, per name, the rank of
# the variable there in the variables' sort order, so tuples of them compare as
# their atoms' `sort_key`s do and hash in the interpreter's tuple code.
_CodedAtom = tuple[tuple[str, ...], tuple[int, ...]]
_CodedQuotient = tuple[tuple[_CodedAtom, ...], tuple[_CodedAtom, ...]]


class _Expansion(NamedTuple):
    """One factorization's coded state: the record it reads and what it has built so far."""

    patterns: list[tuple[int, ...]]  # the final tableau's coded rows
    sources: list  # their record; a derived row's is `(compiled rule, selection)`
    first: int  # the first derived row id
    rank: list[int]  # each code's rank in the variables' sort order
    scheme: tuple[str, ...]
    memo: dict[tuple[int, tuple[str, ...]], _CodedQuotient]
    rewrites: list[tuple[_CodedAtom, _CodedAtom, int]]  # (original, restricted, summed rank)


def _marginalize_expr(
    exps: dict[_CodedAtom, int],
    cells: tuple[int, ...],
    scheme: tuple[str, ...],
    onto: tuple[str, ...],
    rewrites: list[tuple[_CodedAtom, _CodedAtom, int]],
) -> bool:
    """Sum the row's pattern variables outside `onto` out of `exps`, atom by atom.

    `exps` maps each coded atom of a quotient to its signed exponent:
    positive in the numerator, negative in the denominator, 0 where the two
    cancel.  `cells` is the row's pattern as ranks.  A summed variable must
    sit in exactly one atom with a nonzero exponent, and that exponent must
    be 1; the sum then slides inside that atom and restricts it, dropping
    the variable's column, and the rewrite is appended to `rewrites`.
    Returns False as soon as a variable resists, leaving `exps` and the
    rewrites made so far as they are; the caller then falls back to the
    unexpanded marginal atom and takes those rewrites back off `rewrites`.
    """
    for a, v in zip(scheme, cells):
        if a in onto:
            continue
        holder = None
        for atom, e in exps.items():
            if e and v in atom[1]:
                if holder is not None or e != 1:
                    return False
                holder = atom
        if holder is None:
            return False
        names, held = holder
        i = held.index(v)
        restricted = (names[:i] + names[i + 1:], held[:i] + held[i + 1:])
        rewrites.append((holder, restricted, v))
        del exps[holder]
        exps[restricted] = exps.get(restricted, 0) + 1
    return True


def _quotient(exps: dict[_CodedAtom, int]) -> _CodedQuotient:
    """The canonical quotient of coded atoms raised to their signed exponents, each side sorted."""
    num: list[_CodedAtom] = []
    den: list[_CodedAtom] = []
    for atom, e in exps.items():
        if e > 0:
            num.extend([atom] * e)
        elif e < 0:
            den.extend([atom] * -e)
    num.sort()
    den.sort()
    return tuple(num), tuple(den)


def factorization_for(trace: ChaseTrace) -> tuple[RationalExpression, tuple[AtomRewrite, ...]]:
    """Expand the all-distinguished row's derivation into its product form.

    Working down the derivation, each edge atom over a derived row is
    replaced by that row's own derivation expression marginalized onto the
    edge.  Atoms over initial rows reduce directly to marginal atoms.  The
    result only mentions distinguished variables, and on every relation
    satisfying the constraints it evaluates to the relation's weight.
    The derivation is read from the chase record, `final.sources`, for the
    rows from `len(trace.initial)` on; no `ChaseStep` or `Row` is built.
    The expansion works on coded atoms, each variable the rank of its code
    in the variables' sort order, so a canonical side is a sorted tuple of
    them, ordered as `RationalExpression.of` orders their atoms.  Each coded
    atom of the result and its rewrites is decoded into a `MarginalAtom`
    once, at the end.
    """
    final = trace.final
    rid = final.row_of.get(final.goal())
    if rid is None:
        raise ValueError("the final tableau has no all-distinguished row")
    variables = final.decode_variables()
    keys = [v.sort_key for v in variables]
    order = sorted(range(len(variables)), key=keys.__getitem__)
    rank = [0] * len(order)
    for r, code in enumerate(order):
        rank[code] = r
    scheme = final.scheme.members
    state = _Expansion(final.patterns, final.sources, len(trace.initial), rank, scheme, {}, [])
    num, den = _expand(rid, scheme, getter(range(len(scheme)), False), state)

    by_rank = [variables[code] for code in order]
    decoded: dict[_CodedAtom, MarginalAtom] = {}

    def atom(coded: _CodedAtom) -> MarginalAtom:
        made = decoded.get(coded)
        if made is None:
            names, cells = coded
            made = decoded[coded] = MarginalAtom._make((AttributeSet._of(names), tuple([by_rank[r] for r in cells])))
        return made

    expression = RationalExpression(tuple(map(atom, num)), tuple(map(atom, den)))
    return expression, tuple([AtomRewrite(atom(o), atom(r), by_rank[v]) for o, r, v in state.rewrites])


def _expand(rid: int, onto: tuple[str, ...], read: Callable, state: _Expansion) -> _CodedQuotient:
    """The coded expression of row `rid` marginalized onto the names `onto`, memoized per `(rid, onto)`.

    `read` gets the cells at `onto` from a row's cells.  A row at or past
    `state.first` was derived, and `state.sources` records its rule and
    selection; an earlier row gives the atom over `onto` at its cells.  A
    derived row's quotient is kept as a map from coded atoms to signed
    exponents while it is assembled: each selected row's expansion adds its
    exponents, and each interaction atom subtracts one.  The map is made
    canonical once, when its memo entry is stored.
    """
    key = (rid, onto)
    result = state.memo.get(key)
    if result is not None:
        return result
    cells = tuple(map(state.rank.__getitem__, state.patterns[rid]))
    if rid < state.first:
        result = ((onto, read(cells)),), ()
    else:
        cr, selection = state.sources[rid]
        edges, interactions = cr.reads
        exps: dict[_CodedAtom, int] = {}
        for (_, names, edge_read), k in zip(edges, selection):
            num, den = _expand(k, names, edge_read, state)
            for atom in num:
                exps[atom] = exps.get(atom, 0) + 1
            for atom in den:
                exps[atom] = exps.get(atom, 0) - 1
        for _, names, interaction_read in interactions:
            atom = (names, interaction_read(cells))
            exps[atom] = exps.get(atom, 0) - 1
        rewrites = state.rewrites
        made = len(rewrites)
        if onto == state.scheme or _marginalize_expr(exps, cells, state.scheme, onto, rewrites):
            result = _quotient(exps)
        else:
            del rewrites[made:]  # the fallback uses none of them
            result = ((onto, read(cells)),), ()
    state.memo[key] = result
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
        duplicates = trace.duplicates + closure.duplicates
        trace = ChaseTrace(trace.initial, closure.final, closure.stop_reason, duplicates, None)
    return Verdict(True, trace, None)
