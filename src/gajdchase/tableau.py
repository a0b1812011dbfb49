"""Tableaux as mappings between weighted relations.

A tableau is a table of variables over a scheme: the distinguished variable
`a_i` may appear only in column i, every other cell holds a nondistinguished
variable, and each variable lives in exactly one column.  A tableau denotes a
mapping on relations: a valuation assigns a value to every variable, a
valuation is admissible when each row's instantiated pattern is a tuple of
the input relation with positive weight, and each admissible valuation emits
the distinguished tuple with a weight given by the tableau's quotient
expression over edge and interaction marginals.

For the tableau built from a dependency's hypertree the emitted weight
depends only on the distinguished tuple, and the mapping coincides with the
marginalize/product-join map of the same hypertree.  Arbitrary hand-built
tableaux may carry weight expressions that mention nondistinguished
variables; the executor then checks that duplicate valuations of one
distinguished tuple agree and raises otherwise.
"""

from __future__ import annotations

import itertools
from typing import Callable, Mapping, Sequence

from .errors import SchemeError, TableauInconsistencyError
from .hypergraph import AttributeSet
from .prelation import Gajd, WeightedRelation
from .symbolic import MarginalAtom, RationalExpression, Variable, distinguished_for, eq5_expression, evaluate

WEIGHT_TOL = 1e-12  # relative disagreement that `run` allows between valuations of one tuple


class Row:
    """One tableau row: a variable per column plus its weight expression.

    A row is either given its expression, or keeps where it came from: the
    rule that produced it and the cells of the rows that rule selected.  The
    expression of such a row is built on the first read of `weight_expr`, by
    `rule.expression(cells, selected)`, and then kept.  The chase produces
    its rows this way, so rows that are never rendered never build one.
    Equality and hashing take the cells and the expression, as for a row
    given its expression; comparing a row that has not built its expression
    yet builds it.
    """

    __slots__ = ("cells", "_expr", "_rule", "_selected")

    def __init__(
        self,
        cells: tuple[Variable, ...],
        weight_expr: RationalExpression | None = None,
        *,
        rule=None,
        selected: tuple[tuple[Variable, ...], ...] = (),
    ):
        if (weight_expr is None) == (rule is None):
            raise ValueError("a row takes either its weight expression or the rule that builds it")
        self.cells = cells
        self._expr = weight_expr
        self._rule = rule
        self._selected = selected

    @property
    def weight_expr(self) -> RationalExpression:
        if self._expr is None:
            self._expr = self._rule.expression(self.cells, self._selected)
        return self._expr

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Row):
            return NotImplemented
        return self.cells == other.cells and self.weight_expr == other.weight_expr

    def __hash__(self) -> int:
        return hash((self.cells, self.weight_expr))

    def __repr__(self) -> str:
        return f"Row({self.render_pattern()}, {self.weight_expr.render()})"

    def render_pattern(self) -> str:
        return "(" + ",".join(v.render() for v in self.cells) + ")"


class Tableau:
    """An ordered set of rows over a scheme, with the emission expression `psi`.

    Rows keep insertion order for reproducible traces.  `codes` maps each
    variable to a small int in first-seen row order, `patterns` holds each
    row's cells as codes, and `row_of`, the one pattern index, enforces set
    semantics; the chase and `run` join on these.  Every row enters through
    `append`, which keeps the four in step: `add_row` checks and codes a row
    first, and the chase appends the rows it has checked itself.
    `psi` is given either as an expression or as a function that builds it;
    the function is called on the first read of `psi`, and its result kept.
    A copy takes the function along, so a tableau whose `psi` nothing reads,
    such as the ones the chase works on, never builds it.
    """

    def __init__(self, scheme: AttributeSet, psi: RationalExpression | Callable[[], RationalExpression]):
        if len(scheme) == 0:
            raise ValueError("a tableau needs a nonempty scheme")
        self.scheme = scheme
        self._psi = psi
        self.rows: list[Row] = []
        self.codes: dict[Variable, int] = {}
        self.patterns: list[tuple[int, ...]] = []
        self.row_of: dict[tuple[int, ...], int] = {}

    @property
    def psi(self) -> RationalExpression:
        if not isinstance(self._psi, RationalExpression):
            self._psi = self._psi()
        return self._psi

    def __len__(self) -> int:
        return len(self.rows)

    def code(self, cells: Sequence[Variable]) -> tuple[int, ...]:
        """The coded pattern of `cells`; a variable in no row codes as -1, which no row holds."""
        codes = self.codes
        return tuple([codes.get(v, -1) for v in cells])

    def has_pattern(self, cells: tuple[Variable, ...]) -> bool:
        return self.code(cells) in self.row_of

    def row_id(self, cells: tuple[Variable, ...]) -> int:
        return self.row_of[self.code(cells)]

    def add_row(self, row: Row) -> int:
        if len(row.cells) != len(self.scheme):
            raise SchemeError("row width does not match the tableau scheme")
        for position, (attr, var) in enumerate(zip(self.scheme, row.cells), start=1):
            if var.column != attr:
                raise ValueError(f"variable {var.render()} does not belong in column {attr}")
            if var.distinguished and var.index != position:
                raise ValueError(f"distinguished variable {var.render()} is outside its own column")
        codes = self.codes
        # A duplicate's variables all have codes already, so it adds none.
        pattern = tuple([codes.setdefault(v, len(codes)) for v in row.cells])
        if pattern in self.row_of:
            raise ValueError(f"duplicate row pattern {row.render_pattern()}")
        return self.append(row, pattern)

    def append(self, row: Row, pattern: tuple[int, ...]) -> int:
        """Append `row`, whose cells code to the new `pattern`, without checks; returns its row id."""
        rid = len(self.rows)
        self.rows.append(row)
        self.patterns.append(pattern)
        self.row_of[pattern] = rid
        return rid

    def distinguished_row(self) -> tuple[Variable, ...]:
        return tuple(distinguished_for(self.scheme, a) for a in self.scheme)

    def copy(self) -> "Tableau":
        """A tableau with the same rows; they were checked when added here, so they are not checked again."""
        t = Tableau(self.scheme, self._psi)
        t.rows, t.patterns = self.rows.copy(), self.patterns.copy()
        t.codes, t.row_of = self.codes.copy(), self.row_of.copy()
        return t

    def render(self) -> str:
        """Aligned table: a header line, then one line per row with cells and the weight expression."""
        headers = list(self.scheme) + ["f"]
        table = [[v.render() for v in row.cells] + [row.weight_expr.render()] for row in self.rows]
        widths = [max(len(headers[c]), max((len(r[c]) for r in table), default=0)) for c in range(len(headers))]
        def fmt(parts: list[str]) -> str:
            return "  ".join(p.ljust(widths[i]) for i, p in enumerate(parts)).rstrip()
        return "\n".join([fmt(headers)] + [fmt(r) for r in table]) + "\n"


def build_tr(g: Gajd) -> Tableau:
    """The tableau of a dependency: one row per hypertree edge, in certificate order.

    Row i carries the distinguished variable in every column of its edge and
    fresh nondistinguished variables elsewhere (unique across the tableau).
    Its weight expression is the single full-scheme atom at its own pattern.
    The emission expression is the rule quotient (`eq5_expression`) at the
    distinguished row: one edge marginal per row over the interaction-set
    marginals.  It is built the first time `psi` is read.
    """
    scheme = g.scheme
    dist = {a: distinguished_for(scheme, a) for a in scheme}

    def psi() -> RationalExpression:
        return eq5_expression([(e, dist) for e in g.edges_in_order], [(s, dist) for s in g.interactions])

    t = Tableau(scheme, psi)
    fresh = itertools.count(1)
    for edge in g.edges_in_order:
        cells = tuple(dist[a] if a in edge else Variable(False, next(fresh), a) for a in scheme)
        expr = RationalExpression.atom(MarginalAtom(scheme, cells))
        t.add_row(Row(cells, expr))
    return t


class JoinPlan:
    """Positions joined in a fixed order, each binding one projection to slots.

    A projection at position i is a tuple with one component per entry of
    `slots[i]`, which names the slot (a column, a variable) that component
    binds; one position never names a slot twice.  `keys[i]` lists the
    components whose slots an earlier position binds, so that position's
    index maps the values at `keys[i]` to the projections carrying them.
    For the edges of a hypertree in certificate order the keys are the
    interaction sets, which makes the join Yannakakis's acyclic join.

    Which slots a position binds is fixed by the plan, so `steps(skip)`
    works the join's control flow out once per fixed position `skip` (-1
    for none) and keeps it: for each position but `skip`, in order, the
    position, its key slots, the `(component, slot)` pairs it binds and the
    pairs it checks.  A key component is matched by the index lookup and
    needs neither.  Every other component binds its slot, except where the
    slot is one that `skip` binds: `skip` is bound first, so a position
    before it checks those components instead.  At a position after `skip`
    they are key components, so such a position binds all its others.
    """

    __slots__ = ("slots", "keys", "width", "_split", "_steps")

    def __init__(self, slots: Sequence[Sequence[int]]):
        self.slots = tuple(tuple(comp) for comp in slots)
        keys = []
        seen: set[int] = set()
        for comp in self.slots:
            keys.append(tuple(c for c, slot in enumerate(comp) if slot in seen))
            seen.update(comp)
        self.keys = tuple(keys)
        self.width = max(seen, default=-1) + 1
        # Per position: its key slots, and the `(component, slot)` pairs off its key.
        self._split = tuple(
            (tuple(comp[c] for c in k), tuple((c, slot) for c, slot in enumerate(comp) if c not in k))
            for comp, k in zip(self.slots, self.keys)
        )
        self._steps: dict[int, tuple] = {}

    def key(self, i: int, proj: Sequence) -> tuple:
        """The index key of projection `proj` at position `i`."""
        return tuple([proj[c] for c in self.keys[i]])

    def steps(self, skip: int) -> tuple[tuple[int, tuple, tuple, tuple], ...]:
        """Per position but `skip`: `(position, key slots, bind pairs, check pairs)`; see the class."""
        steps = self._steps.get(skip)
        if steps is None:
            steps = []
            for i, (key_slots, free) in enumerate(self._split):
                if i < skip:
                    fixed = self.slots[skip]
                    binds = tuple(pair for pair in free if pair[1] not in fixed)
                    checks = tuple(pair for pair in free if pair[1] in fixed)
                    steps.append((i, key_slots, binds, checks))
                elif i > skip:
                    steps.append((i, key_slots, free, ()))
            steps = self._steps[skip] = tuple(steps)
        return steps


def join(
    plan: JoinPlan,
    indexes: Sequence[Mapping[tuple, Sequence[tuple]]],
    emit: Callable[[list], None],
    fixed: tuple[int, tuple] | None = None,
) -> None:
    """Call `emit(binding)` once per consistent choice of one projection per position.

    `indexes[i]` maps a key of position i (see `JoinPlan`) to its projections;
    choices are made position by position, in index order, so results come
    out in the lexicographic order of the choices.  `binding` is a list
    indexed by slot and is reused between calls.  With `fixed=(p, proj)`
    position p takes only `proj`, which is bound first; positions before p
    then also check the slots p shares with them.  A plan with no position
    but the fixed one emits once.

    Each position runs the steps `plan.steps` fixed for it: look the bucket
    up on the key slots, and for each projection in it compare the check
    pairs, assign the bind pairs and go on to the next position.  No slot is
    reset after a candidate.  A slot a position binds is read only by the
    positions after it, and the next candidate at that position, or at any
    earlier one, assigns it again before they run, so a stale value is
    never read; when `emit` runs, every slot holds the current choice's value.

    The recursion is the module-level `_extend`, which takes everything it
    reads as arguments, so a call builds no closure and leaves no reference
    cycle behind: `emit` and the state it holds are freed when the call
    returns.
    """
    binding: list = [None] * plan.width
    skip = -1
    if fixed is not None:
        skip, proj = fixed
        for slot, v in zip(plan.slots[skip], proj):
            binding[slot] = v
    steps = plan.steps(skip)
    if steps:
        _extend(steps, 0, indexes, binding, emit)
    else:
        emit(binding)


def _extend(
    steps: tuple[tuple[int, tuple, tuple, tuple], ...],
    d: int,
    indexes: Sequence[Mapping[tuple, Sequence[tuple]]],
    binding: list,
    emit: Callable[[list], None],
) -> None:
    """Run `steps[d]` for each candidate of its bucket; at the last step, emit each consistent one."""
    i, key_slots, binds, checks = steps[d]
    bucket = indexes[i].get(tuple([binding[s] for s in key_slots]))
    if not bucket:
        return
    d += 1
    last = d == len(steps)
    for proj in bucket:
        for c, s in checks:
            if proj[c] != binding[s]:
                break
        else:
            for c, s in binds:
                binding[s] = proj[c]
            if last:
                emit(binding)
            else:
                _extend(steps, d, indexes, binding, emit)


def run(t: Tableau, rel: WeightedRelation) -> WeightedRelation:
    """Execute a tableau against a relation.

    Valuations are materialized by an indexed join of the rows over the
    relation's positive-weight tuples (zero-weight tuples count as absent):
    each row's coded pattern is a position of one `JoinPlan`, built per
    call, whose slots are the variables' codes, and its tuples are indexed
    on the columns whose variables an earlier row already binds, in support
    order, so valuations come out in the order of a nested loop over the
    support.  No position is fixed, so each row binds the variables no
    earlier row binds and checks nothing the index lookup has not matched.
    The output deduplicates distinguished tuples: a later valuation of a
    tuple is compared with the first only when their weights differ, and if
    they disagree beyond `WEIGHT_TOL` the input violates the
    marginal-consistency contract and an error is raised.
    """
    if rel.scheme != t.scheme:
        raise SchemeError(
            f"relation scheme {rel.scheme.render()} does not match tableau scheme {t.scheme.render()}"
        )
    support = [key for key, w in rel.items() if w > 0.0]
    slot_of = t.codes
    for v in t.distinguished_row():
        if v not in slot_of:
            raise ValueError(f"distinguished variable {v.render()} appears in no row")
    psi = t.psi
    psi_vars = psi.variables()
    for v in psi_vars:
        if v not in slot_of:
            raise ValueError(f"emission variable {v.render()} appears in no row")
    plan = JoinPlan(t.patterns)
    by_keys: dict[tuple[int, ...], dict[tuple, list[tuple[str, ...]]]] = {}
    for i, keys in enumerate(plan.keys):
        if keys not in by_keys:
            index: dict[tuple, list[tuple[str, ...]]] = {}
            for tup in support:
                index.setdefault(plan.key(i, tup), []).append(tup)
            by_keys[keys] = index
    indexes = [by_keys[keys] for keys in plan.keys]
    psi_slots = [slot_of[v] for v in psi_vars]
    dist_slots = [slot_of[v] for v in t.distinguished_row()]
    marginal_cache: dict[AttributeSet, WeightedRelation] = {}
    value_cache: dict[tuple[str, ...], float] = {}
    results: dict[tuple[str, ...], float] = {}

    def emit(binding: list) -> None:
        key = tuple([binding[s] for s in psi_slots])
        value = value_cache.get(key)
        if value is None:
            value = evaluate(psi, rel, dict(zip(psi_vars, key)), marginal_cache)
            value_cache[key] = value
        dist = tuple([binding[s] for s in dist_slots])
        seen = results.setdefault(dist, value)
        if seen != value and abs(seen - value) > WEIGHT_TOL * max(1.0, abs(seen), abs(value)):
            raise TableauInconsistencyError(
                f"distinguished tuple {dist} received weights {seen} and {value}"
            )

    join(plan, indexes, emit)
    return WeightedRelation(t.scheme, results)
