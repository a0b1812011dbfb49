"""Tableaux as mappings between weighted relations.

A tableau is a table of variables over a scheme: the distinguished variable
`a_i` may appear only in column i, every other cell holds a nondistinguished
variable, and each variable lives in exactly one column.  A tableau denotes a
mapping on relations: a valuation assigns a value to every variable, a
valuation is admissible when each row's instantiated pattern is a tuple of
the input relation with positive weight, and each admissible valuation emits
the distinguished tuple with a weight given by the tableau's quotient
expression over edge and interaction marginals.

A tableau is kept coded, each variable a small int and each row a tuple of
them; `build_tr` writes it so from the certificate.  One map, `code_of`,
holds each variable's fields and its code.  `Variable` cells, `Row`s and
weight expressions are decoded when first read, so a tableau that is only
chased and counted builds none.

The emission expression may read distinguished variables only, so it is a
quotient of marginals at the distinguished tuple, given by the attribute
sets of its atoms.  For the tableau of a dependency, `build_tr` keeps those
sets straight from the hypertree (`Tableau.emission`): the edges over the
interaction sets, the acyclic-join factorization of Beeri, Fagin, Maier and
Yannakakis.  The executor, `run`, joins from each support tuple at the first
row, and compiles the emission once per call
(`symbolic.compile_quotient`): each set becomes its marginal table and a
reader of its key from the join's int-coded binding.  The emitted weight
depends only on the distinguished tuple, so the executor settles each tuple
at its first valuation and skips the later ones.  For the tableau built
from a dependency's hypertree the mapping coincides with the
marginalize/product-join map of the same hypertree.
"""

from __future__ import annotations

from functools import partial
from itertools import islice
from operator import attrgetter
from typing import Callable, Mapping, Sequence

from .errors import SchemeError
from .hypergraph import AttributeSet
from .prelation import Gajd, WeightedRelation, getter
from .symbolic import MarginalAtom, RationalExpression, Variable, canonical, compile_quotient, distinguished_for, eq5_expression
from .symbolic import evaluate  # perfbench's wrap point tableau.evaluate (span symbolic.evaluate); run never calls it


class Row:
    """One tableau row: a variable per column plus its weight expression.

    The expression is given, or a function called on the first read of
    `weight_expr`, whose result is kept.  Equality and hashing take the
    cells and the expression, so comparing a row builds its expression.
    """

    __slots__ = ("cells", "_expr")

    def __init__(self, cells: tuple[Variable, ...], weight_expr: RationalExpression | Callable[[], RationalExpression]):
        self.cells = cells
        self._expr = weight_expr

    @property
    def weight_expr(self) -> RationalExpression:
        if not isinstance(self._expr, RationalExpression):
            self._expr = self._expr()
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

    Rows keep insertion order for reproducible traces.  Each variable has a
    code, a small int in first-seen row order: `code_of` maps its `Variable`
    fields `(distinguished, index, column)` to its code, so the map's order
    is the code order; a `Variable` is that tuple, so it is looked up as
    is.  `patterns` holds each row's cells as codes, and
    `row_of`, the one pattern index, enforces set semantics.  `sources`
    holds what each row is decoded from: None for `build_tr`'s rows, whose
    expression is the full-scheme atom at their own pattern, the `Row` given
    to `add_row`, or a chase application `(rule, selection)`, whose
    expression is `rule.expression`'s.  Rows enter through `append`, after
    `add_row`'s checks or the chase's own.  `rows`, and the `variables` list
    of each code's `Variable` that they read (`decode_variables`), are
    decoded on first read and kept, later ones on the next read; a variable
    is built from its `code_of` key unchecked, as the key was checked when
    coded.  A decoded row builds its expression only when its `weight_expr`
    is read, so a trace that prints steps builds no atom for a `build_tr`
    row it does not print.
    `psi` is an expression or a function called on its first read, whose
    result is kept; a copy takes the function along, so the tableaux the
    chase works on never build it.  `emission` is None, or the attribute
    sets of psi's numerator and denominator atoms, each atom at the
    distinguished tuple, as given before cancelling and ordering:
    `build_tr` sets it to the dependency's edges and interaction sets, and a
    copy takes it along.
    """

    def __init__(self, scheme: AttributeSet, psi: RationalExpression | Callable[[], RationalExpression]):
        if len(scheme) == 0:
            raise ValueError("a tableau needs a nonempty scheme")
        self.scheme, self._psi = scheme, psi
        self.emission: tuple[Sequence[AttributeSet], Sequence[AttributeSet]] | None = None
        self.code_of: dict[tuple[bool, int, str], int] = {}
        self.patterns: list[tuple[int, ...]] = []
        self.row_of: dict[tuple[int, ...], int] = {}
        self.sources: list = []
        self.variables: list[Variable] = []
        self._rows: list[Row] = []

    @property
    def psi(self) -> RationalExpression:
        if not isinstance(self._psi, RationalExpression):
            self._psi = self._psi()
        return self._psi

    @property
    def rows(self) -> list[Row]:
        rows, patterns = self._rows, self.patterns
        if len(rows) < len(patterns):
            variable = self.decode_variables().__getitem__
            for rid in range(len(rows), len(patterns)):
                cells = tuple(map(variable, patterns[rid]))
                source = self.sources[rid]
                if source is None:
                    source = Row(cells, partial(_scheme_atom, self.scheme, cells))
                elif not isinstance(source, Row):
                    rule, selection = source
                    source = Row(cells, partial(rule.expression, cells, tuple([rows[k].cells for k in selection])))
                rows.append(source)
        return rows

    def decode_variables(self) -> list[Variable]:
        """`variables`, extended to every code; each is decoded unchecked from its `code_of` key, checked when coded."""
        variables = self.variables
        if len(variables) < len(self.code_of):
            variables += map(Variable._make, islice(self.code_of, len(variables), None))
        return variables

    def __len__(self) -> int:
        return len(self.patterns)

    def code(self, cells: Sequence[Variable]) -> tuple[int, ...]:
        """The coded pattern of `cells`; a variable in no row codes as -1, which no row holds."""
        code_of = self.code_of
        return tuple([code_of.get(v, -1) for v in cells])

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
        code_of = self.code_of
        # A duplicate's variables all have codes already, so it adds none.
        pattern = tuple([code_of.setdefault(v, len(code_of)) for v in row.cells])
        if pattern in self.row_of:
            raise ValueError(f"duplicate row pattern {row.render_pattern()}")
        return self.append(pattern, row)

    def append(self, pattern: tuple[int, ...], source) -> int:
        """Append the new coded `pattern`, decoded from `source` when read, without checks; returns its row id."""
        rid = len(self.patterns)
        self.patterns.append(pattern)
        self.sources.append(source)
        self.row_of[pattern] = rid
        return rid

    def goal(self) -> tuple[int, ...]:
        """The coded all-distinguished row; a column whose distinguished variable is in no row codes as -1."""
        code_of = self.code_of
        return tuple([code_of.get((True, i, a), -1) for i, a in enumerate(self.scheme, start=1)])

    def distinguished_row(self) -> tuple[Variable, ...]:
        return tuple(distinguished_for(self.scheme, a) for a in self.scheme)

    def copy(self) -> "Tableau":
        """A tableau with the same rows; they were checked when added here, so they are not checked again."""
        t = Tableau(self.scheme, self._psi)
        t.emission = self.emission
        t.code_of, t.patterns, t.sources = self.code_of.copy(), self.patterns.copy(), self.sources.copy()
        t.row_of, t.variables, t._rows = self.row_of.copy(), self.variables.copy(), self._rows.copy()
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
    The emission is the edges over the interaction sets (`emission`), which
    `run` cancels and orders with `symbolic.canonical`, as
    `RationalExpression.of` orders their atoms, and compiles.  The emission
    expression `psi`, the rule quotient (`eq5_expression`) at the
    distinguished row, holds the same atoms; it is built the first time
    `psi` is read.

    The rows are written coded into `code_of`, as `add_row` codes them.
    """
    scheme = g.scheme

    def psi() -> RationalExpression:
        return eq5_expression(
            [_at_distinguished(scheme, e) for e in g.edges_in_order],
            [_at_distinguished(scheme, s) for s in g.interactions],
        )

    t = Tableau(scheme, psi)
    t.emission = g.edges_in_order, g.interactions
    code_of = t.code_of
    fresh = 0
    for edge in g.edges_in_order:
        cells = []
        for c, a in enumerate(scheme.members):
            fresh += a not in edge.members
            cells.append((True, c + 1, a) if a in edge.members else (False, fresh, a))
        t.append(tuple([code_of.setdefault(v, len(code_of)) for v in cells]), None)
    return t


class JoinPlan:
    """Positions joined in a fixed order, each binding one projection to slots.

    A projection at position i is a tuple with one component per entry of
    `slots[i]`, which names the slot (a column, a variable) that component
    binds; one position never names a slot twice, and the slots named are
    0 .. `width` - 1.  A join starts at one of `starts`, a position whose
    projection is given (see `join`).  Its probe visits the other
    positions in index order and looks each up on all its components whose
    slots the start or an earlier position binds, so no candidate is ever
    compared.  After the start that key is the position's interaction set
    with the positions before it, which for a hypertree's edges in
    certificate order makes this Yannakakis's acyclic join; before the
    start it also holds what the position shares with the start.

    The plan is compiled whole when it is built, in one walk over each
    start's positions.  `keyed` lists each distinct `(position, key
    components)` the probes read, and `indexes` one index per entry, in that
    order, mapping the components' values to the projections carrying them,
    in insertion order; so a plan holds one join's data.  A projection added
    at position i goes into each index of `inserts[i]` under the key its
    reader there takes from the projection, as the probes read keys.

    `probes` maps each start to its steps and the reader of its binding.  A
    join carries its chosen projections as one concatenated tuple, the
    start's first.  A step is the index it looks up and the getter of its
    key from that tuple; the reader gets the binding, each slot's value in
    slot order, from the complete tuple.
    """

    __slots__ = ("slots", "width", "keyed", "indexes", "inserts", "probes")

    def __init__(self, slots: Sequence[Sequence[int]], starts: Sequence[int]):
        self.slots = tuple(map(tuple, slots))
        named = set().union(*self.slots)
        self.width = len(named)
        if named != set(range(self.width)):
            raise ValueError("the slots of a join plan must be 0, 1, ... with none left out")
        keyed: dict[tuple[int, tuple[int, ...]], dict[object, list[tuple]]] = {}
        self.probes: dict[int, tuple[tuple, Callable]] = {}
        for start in starts:
            # The slot of each component of the chosen tuple; a slot's value is read at its first.
            layout = self.slots[start]
            steps = []
            for i, comp in enumerate(self.slots):
                if i != start:
                    key = tuple([c for c, slot in enumerate(comp) if slot in layout])
                    index = keyed.setdefault((i, key), {})
                    steps.append((index, getter([layout.index(comp[c]) for c in key], True)))
                    layout += comp
            self.probes[start] = (tuple(steps), getter(list(map(layout.index, range(self.width))), False))
        self.keyed = tuple(keyed)
        self.indexes = tuple(keyed.values())
        inserts: list[list] = [[] for _ in self.slots]
        for (i, key), index in keyed.items():
            inserts[i].append((getter(key, True), index))
        self.inserts = tuple(map(tuple, inserts))


def join(plan: JoinPlan, emit: Callable[[tuple], None], start: int, chosen: tuple) -> None:
    """Call `emit(binding)` once per consistent choice of one projection per position, `chosen` at `start`.

    Position `start` takes only the projection `chosen`, and the join runs
    the probe of that start, built with the plan.  The choices at each other
    position are the projections in its indexes (`plan.indexes`, filled
    through `plan.inserts`); they are made position by position, in index
    order, so results come out in the lexicographic order of the choices,
    each position's in insertion order.  `binding` is a tuple with the value
    of each slot.  A plan with no position but the start emits once.

    This is the entry for a plan and a start; the chase hands a start's
    probe to the recursion itself.  The recursion is the module-level
    `_extend`, which takes everything it reads as arguments, so a call
    builds no closure and leaves no reference cycle behind: `emit` and the
    state it holds are freed when the call returns.
    """
    steps, read = plan.probes[start]
    if steps:
        _extend(steps, 0, chosen, read, emit)
    else:
        emit(read(chosen))


def _extend(
    steps: tuple[tuple[Mapping[object, Sequence[tuple]], Callable], ...],
    d: int,
    chosen: tuple,
    read: Callable[[tuple], tuple],
    emit: Callable[[tuple], None],
) -> None:
    """Extend `chosen` by each projection in the bucket of `steps[d]`; emit at the last step.

    A step holds its index and its key reader; the key holds every slot a
    projection there shares with `chosen`, so all are consistent.  The last
    step is run inline from the one before it, so a join over three or more
    positions makes no call per projection at its last level; `steps` must
    not be empty.
    """
    index, key = steps[d]
    bucket = index.get(key(chosen))
    if not bucket:
        return
    d += 1
    if d == len(steps):
        for proj in bucket:
            emit(read(chosen + proj))
    elif d + 1 < len(steps):
        for proj in bucket:
            _extend(steps, d, chosen + proj, read, emit)
    else:
        index, key = steps[d]
        for proj in bucket:
            chosen_here = chosen + proj
            tail = index.get(key(chosen_here))
            if tail:
                for last_proj in tail:
                    emit(read(chosen_here + last_proj))


_NAMES = attrgetter("members")


def run(t: Tableau, rel: WeightedRelation) -> WeightedRelation:
    """Execute a tableau against a relation.

    The emission is compiled from `t.emission`, the attribute sets that
    `build_tr` takes from the dependency, cancelled and ordered by
    `symbolic.canonical`, so `run` builds no expression for such a
    tableau.  A tableau without them has them read from `psi`, which
    may read distinguished variables only, each in its own column, so the
    distinguished tuple fixes the weight; any other variable raises
    ValueError before any work.  Valuations are materialized by an indexed
    join of the rows over the relation's positive-weight tuples (zero-weight
    tuples count as absent): each row's coded pattern is a position of one
    `JoinPlan`, built per call with the one start 0, whose slots are the
    variables' codes.  Every index of the plan, all at positions 1 and
    after, holds the support in support order, and the join starts at the
    first row from each support tuple in turn, so valuations come out in
    the order of a nested loop over the support.  The emission is compiled
    once per call (`symbolic.compile_quotient`): each set reads its key
    from the coded binding at the codes of its distinguished variables and
    looks it up in its marginal of `rel`, so a valuation is evaluated as
    `symbolic.evaluate` would evaluate `psi`, bit for bit, with no
    per-valuation dict.  The distinguished tuple is read from each binding
    by a getter built once per call.  The output holds each distinguished
    tuple once, with the weight of its first valuation, in first-valuation
    order; a later valuation of a tuple already out is skipped after one
    membership test.  `run` reads the coded tableau only and decodes none
    of its variables or rows.
    """
    scheme = t.scheme
    if rel.scheme != scheme:
        raise SchemeError(
            f"relation scheme {rel.scheme.render()} does not match tableau scheme {scheme.render()}"
        )
    goal = t.goal()
    if -1 in goal:
        raise ValueError(f"distinguished variable a{goal.index(-1) + 1} appears in no row")
    if t.emission is None:
        numerator, denominator = _emission_of(t.psi, scheme)
    else:
        numerator, denominator = canonical(*t.emission, _NAMES)
    support = [key for key, w in rel.items() if w > 0.0]
    plan = JoinPlan(t.patterns, (0,))
    for inserts in plan.inserts[1:]:
        for key_of, index in inserts:
            for tup in support:
                index.setdefault(key_of(tup), []).append(tup)
    code_at = dict(zip(scheme, goal))
    value_of = compile_quotient(
        rel,
        [(over, [code_at[a] for a in over]) for over in numerator],
        [(over, [code_at[a] for a in over]) for over in denominator],
        lambda k: _at_distinguished(scheme, denominator[k]).render(),
    )
    dist_of = getter(goal, False)
    results: dict[tuple[str, ...], float] = {}

    def emit(binding: tuple) -> None:
        dist = dist_of(binding)
        if dist not in results:
            results[dist] = value_of(binding)

    for tup in support:
        join(plan, emit, 0, tup)
    return WeightedRelation(scheme, results)


def _emission_of(psi: RationalExpression, scheme: AttributeSet) -> tuple[tuple[AttributeSet, ...], tuple[AttributeSet, ...]]:
    """The attribute sets of `psi`'s atoms, numerator and denominator in order.

    Raises ValueError unless every variable `psi` reads is the distinguished
    variable of its column, so each atom is its set at the distinguished tuple.
    """
    own = {distinguished_for(scheme, a) for a in scheme}
    for v in psi.variables():
        if v not in own:
            raise ValueError(f"emission variable {v.render()} is not the distinguished variable of column {v.column}")
    return tuple([atom.over for atom in psi.numerator]), tuple([atom.over for atom in psi.denominator])


def _scheme_atom(scheme: AttributeSet, cells: tuple[Variable, ...]) -> RationalExpression:
    """The weight of a `build_tr` row: the single full-scheme atom at its cells."""
    return RationalExpression.atom(MarginalAtom._make((scheme, cells)))


def _at_distinguished(scheme: AttributeSet, over: AttributeSet) -> MarginalAtom:
    return MarginalAtom(over, tuple([distinguished_for(scheme, a) for a in over]))
