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

    def distinguished_count(self) -> int:
        return sum(1 for v in self.cells if v.distinguished)

    def render_pattern(self) -> str:
        return "(" + ",".join(v.render() for v in self.cells) + ")"


class Tableau:
    """An ordered set of rows over a scheme, with the emission expression `psi`.

    Rows keep insertion order for reproducible traces, and a pattern index
    enforces set semantics.
    """

    def __init__(self, scheme: AttributeSet, psi: RationalExpression):
        if len(scheme) == 0:
            raise ValueError("a tableau needs a nonempty scheme")
        self.scheme = scheme
        self.psi = psi
        self.rows: list[Row] = []
        self._index: dict[tuple[Variable, ...], int] = {}

    def __len__(self) -> int:
        return len(self.rows)

    def has_pattern(self, cells: tuple[Variable, ...]) -> bool:
        return cells in self._index

    def row_id(self, cells: tuple[Variable, ...]) -> int:
        return self._index[cells]

    def add_row(self, row: Row) -> int:
        if len(row.cells) != len(self.scheme):
            raise SchemeError("row width does not match the tableau scheme")
        for position, (attr, var) in enumerate(zip(self.scheme, row.cells), start=1):
            if var.column != attr:
                raise ValueError(f"variable {var.render()} does not belong in column {attr}")
            if var.distinguished and var.index != position:
                raise ValueError(f"distinguished variable {var.render()} is outside its own column")
        if row.cells in self._index:
            raise ValueError(f"duplicate row pattern {row.render_pattern()}")
        self.rows.append(row)
        self._index[row.cells] = len(self.rows) - 1
        return len(self.rows) - 1

    def distinguished_row(self) -> tuple[Variable, ...]:
        return tuple(distinguished_for(self.scheme, a) for a in self.scheme)

    def contains_distinguished_row(self) -> bool:
        return self.has_pattern(self.distinguished_row())

    def copy(self) -> "Tableau":
        """A tableau with the same rows; they were checked when added here, so they are not checked again."""
        t = Tableau(self.scheme, self.psi)
        t.rows = self.rows.copy()
        t._index = self._index.copy()
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
    distinguished row: one edge marginal per row over the interaction-set marginals.
    """
    scheme = g.scheme
    dist = {a: distinguished_for(scheme, a) for a in scheme}
    psi = eq5_expression([(e, dist) for e in g.edges_in_order], [(s, dist) for s in g.interactions])
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
    """

    __slots__ = ("slots", "keys", "key_slots", "width")

    def __init__(self, slots: Sequence[Sequence[int]]):
        self.slots = tuple(tuple(comp) for comp in slots)
        keys = []
        seen: set[int] = set()
        for comp in self.slots:
            keys.append(tuple(c for c, slot in enumerate(comp) if slot in seen))
            seen.update(comp)
        self.keys = tuple(keys)
        self.key_slots = tuple(tuple(comp[c] for c in k) for comp, k in zip(self.slots, self.keys))
        self.width = max(seen, default=-1) + 1

    def key(self, i: int, proj: Sequence) -> tuple:
        """The index key of projection `proj` at position `i`."""
        return tuple([proj[c] for c in self.keys[i]])


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
    then also check the slots p shares with them.
    """
    binding: list = [None] * plan.width
    skip = -1
    if fixed is not None:
        skip, proj = fixed
        for slot, v in zip(plan.slots[skip], proj):
            binding[slot] = v
    last = len(plan.slots)
    slots_at, key_slots_at = plan.slots, plan.key_slots

    def extend(i: int) -> None:
        if i == skip:
            i += 1
        if i == last:
            emit(binding)
            return
        bucket = indexes[i].get(tuple([binding[s] for s in key_slots_at[i]]))
        if not bucket:
            return
        slots = slots_at[i]
        for proj in bucket:
            bound = []
            for slot, v in zip(slots, proj):
                prev = binding[slot]
                if prev is None:
                    binding[slot] = v
                    bound.append(slot)
                elif prev != v:
                    break
            else:
                extend(i + 1)
            for slot in bound:
                binding[slot] = None

    try:
        extend(0)
    finally:
        # `extend` refers to itself.  Emptying its cell breaks that cycle, so
        # `emit` and the state it holds are freed now, not by the cyclic
        # garbage collector.
        del extend


def run(t: Tableau, rel: WeightedRelation) -> WeightedRelation:
    """Execute a tableau against a relation.

    Valuations are materialized by an indexed join of the rows over the
    relation's positive-weight tuples (zero-weight tuples count as absent):
    each row's tuples are indexed on the columns whose variables an earlier
    row already binds, in support order, so valuations come out in the order
    of a nested loop over the support.  The output deduplicates
    distinguished tuples; if two valuations of one distinguished tuple ever
    disagree on the emitted weight beyond `WEIGHT_TOL`, the input violates
    the marginal-consistency contract and an error is raised.
    """
    if rel.scheme != t.scheme:
        raise SchemeError(
            f"relation scheme {rel.scheme.render()} does not match tableau scheme {t.scheme.render()}"
        )
    support = [key for key, w in rel.items() if w > 0.0]
    rows = t.rows
    slot_of: dict[Variable, int] = {}
    for row in rows:
        for v in row.cells:
            slot_of.setdefault(v, len(slot_of))
    for v in t.distinguished_row():
        if v not in slot_of:
            raise ValueError(f"distinguished variable {v.render()} appears in no row")
    psi_vars = t.psi.variables()
    for v in psi_vars:
        if v not in slot_of:
            raise ValueError(f"emission variable {v.render()} appears in no row")
    plan = JoinPlan([tuple(slot_of[v] for v in row.cells) for row in rows])
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
            value = evaluate(t.psi, rel, dict(zip(psi_vars, key)), marginal_cache)
            value_cache[key] = value
        dist = tuple([binding[s] for s in dist_slots])
        seen = results.get(dist)
        if seen is None:
            results[dist] = value
        elif abs(seen - value) > WEIGHT_TOL * max(1.0, abs(seen), abs(value)):
            raise TableauInconsistencyError(
                f"distinguished tuple {dist} received weights {seen} and {value}"
            )

    join(plan, indexes, emit)
    return WeightedRelation(t.scheme, results)
