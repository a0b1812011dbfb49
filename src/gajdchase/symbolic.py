"""Symbolic marginal expressions attached to tableau rows.

An atom `phi(a1,a2)` stands for the marginal of the working joint over an
attribute subset, evaluated at the variables filling those columns.  Row
weights and derivation records are quotients of two multisets of atoms; the
whole calculus is multiplicative, so quotients of multisets are closed under
every operation and no polynomial machinery is needed.

Canonical form: common atoms are cancelled between numerator and denominator
and each side is sorted by a total structural order, which makes printing
deterministic and equality structural.  `RationalExpression.of` builds it
once per expression through `canonical`, the one copy of that rule: it
counts atoms only when the two sides share one, and sorts each side once.
Variables, atoms and expressions are named tuples of their fields, so
equality and hashing run in the interpreter's tuple code and building one
costs one tuple; an atom computes its sort key each time a sort reads it.
A variable or atom is checked when built by its constructor; one decoded
from a tableau's codes, whose fields were checked when they were coded, is
built unchecked with the named tuple's `_make`, as `eq5_expression` builds
its atoms.

Numeric evaluation has one core, `compile_quotient`: a quotient of
attribute sets, each with the binding slots its key is read from, is
compiled against a joint once, each set into its marginal table (one
`marginalize` per attribute set, kept for that compilation only) and a
reader of its key from a binding tuple, and the result is called per
binding.  `compile_expression` hands it an expression's atoms;
`tableau.run` hands it its tableau's emission sets once per run; and
`evaluate`, for a binding given as a mapping, compiles an expression and
calls it once.
"""

from __future__ import annotations

import warnings
from collections import Counter
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import SchemeError, ZeroDenominatorWarning
from .hypergraph import AttributeSet
from .prelation import WeightedRelation, getter, marginalize


class _VariableFields(NamedTuple):
    distinguished: bool
    index: int
    column: str


class Variable(_VariableFields):
    """A tableau variable bound to a single column.

    Distinguished variables are written `a<i>` where i is the 1-based
    position of their column in the tableau scheme; nondistinguished
    variables are written `b<k>` with a fresh k per variable.  A variable is
    the tuple of its fields `(distinguished, index, column)`, so it equals,
    and hashes as, its key in `Tableau.code_of`.  `_make(fields)` builds one
    from fields checked already, such as a `code_of` key, without checking.
    """

    __slots__ = ()
    _make = classmethod(tuple.__new__)

    def __new__(cls, distinguished: bool, index: int, column: str) -> "Variable":
        if index < 1:
            raise ValueError("variable indices are 1-based")
        return tuple.__new__(cls, (distinguished, index, column))

    def render(self) -> str:
        return f"{'a' if self.distinguished else 'b'}{self.index}"

    @property
    def sort_key(self) -> tuple:
        return (self.column, 0 if self.distinguished else 1, self.index)

    def __repr__(self) -> str:
        return f"Variable({self.render()}@{self.column})"


def distinguished_for(scheme: AttributeSet, column: str) -> Variable:
    """The distinguished variable of `column`, indexed by its position in `scheme`."""
    return Variable(True, scheme.index(column) + 1, column)


class _AtomFields(NamedTuple):
    over: AttributeSet
    pattern: tuple[Variable, ...]


class MarginalAtom(_AtomFields):
    """phi over an attribute subset, at the variables in `pattern` (one per column, in order).

    Construction checks that the pattern has one variable of each column of
    `over`; `_make((over, pattern))` builds an atom whose pattern was read
    from checked cells at `over`'s columns, without checking.  `sort_key` is
    the atom's place in the total structural order: the attribute set, then
    its variables' sort keys.
    """

    __slots__ = ()
    _make = classmethod(tuple.__new__)

    def __new__(cls, over: AttributeSet, pattern: tuple[Variable, ...]) -> "MarginalAtom":
        if len(pattern) != len(over):
            raise ValueError("pattern width must match the attribute set")
        for attr, var in zip(over, pattern):
            if var.column != attr:
                raise ValueError(f"variable {var.render()} belongs to column {var.column}, not {attr}")
        return tuple.__new__(cls, (over, pattern))

    @property
    def sort_key(self) -> tuple:
        # Each variable's `Variable.sort_key`, read from its fields in one comprehension.
        return (self.over.members, tuple([(c, 0 if d else 1, i) for d, i, c in self.pattern]))

    @classmethod
    def from_cells(cls, over: AttributeSet, cells: Mapping[str, Variable]) -> "MarginalAtom":
        return cls(over, tuple([cells[a] for a in over]))

    def render(self) -> str:
        return "phi(" + ",".join(v.render() for v in self.pattern) + ")"


def restrict_atom(atom: MarginalAtom, to: AttributeSet) -> MarginalAtom:
    """Restrict an atom to a subset of its attributes, keeping the matching variables.

    This is marginal-consistency rewriting: dropping a column whose variable
    occurs nowhere else in the surrounding expression turns the atom into the
    lower-dimensional marginal.  The caller is responsible for that side
    condition; see the chase's derivation expansion.
    """
    if not to <= atom.over:
        raise SchemeError(f"{to.render()} is not a subset of {atom.over.render()}")
    keep = {a: v for a, v in zip(atom.over, atom.pattern)}
    return MarginalAtom(to, tuple(keep[a] for a in to))


_SORT_KEY = attrgetter("sort_key")


def canonical(numerator: Iterable, denominator: Iterable, key: Callable) -> tuple[tuple, tuple]:
    """The canonical quotient: items on both sides cancel, as multisets, and each side is sorted by `key`.

    Only when the sides share an item is the denominator counted; each
    numerator item then cancels one of its copies left there, if any.
    `RationalExpression.of` applies it to atoms by their sort key;
    `tableau.build_tr` applies it to a dependency's edges over its
    interaction sets by their names, which cancels and orders them as their
    atoms at the distinguished tuple would be.
    """
    num, den = list(numerator), list(denominator)
    if num and den and not set(num).isdisjoint(den):
        left = Counter(den)
        kept = []
        for item in num:
            if left.get(item):
                left[item] -= 1
            else:
                kept.append(item)
        num, den = kept, list(left.elements())
    # A sort computes every item's key first, even for one item.
    if len(num) > 1:
        num.sort(key=key)
    if len(den) > 1:
        den.sort(key=key)
    return tuple(num), tuple(den)


class RationalExpression(NamedTuple):
    """A quotient of two multisets of atoms, kept in canonical (cancelled, sorted) form."""

    numerator: tuple[MarginalAtom, ...]
    denominator: tuple[MarginalAtom, ...]

    @classmethod
    def of(cls, numerator: Iterable[MarginalAtom] = (), denominator: Iterable[MarginalAtom] = ()) -> "RationalExpression":
        return cls(*canonical(numerator, denominator, _SORT_KEY))

    @classmethod
    def atom(cls, atom: MarginalAtom) -> "RationalExpression":
        return cls((atom,), ())  # a single atom is already canonical

    def is_unit(self) -> bool:
        return not self.numerator and not self.denominator

    def __mul__(self, other: "RationalExpression") -> "RationalExpression":
        """The canonical product; `chase._expand` adds signed exponents instead, and the
        reference expansion that `tests/test_chase.py` checks it against multiplies with this."""
        return RationalExpression.of(
            self.numerator + other.numerator, self.denominator + other.denominator
        )

    def variables(self) -> tuple[Variable, ...]:
        seen: dict[Variable, None] = {}
        for atom in self.numerator + self.denominator:
            for v in atom.pattern:
                seen[v] = None
        return tuple(seen)

    def render(self) -> str:
        if self.is_unit():
            return "1"
        num = "*".join(a.render() for a in self.numerator) if self.numerator else "1"
        if not self.denominator:
            return num
        if len(self.denominator) == 1:
            return f"{num}/{self.denominator[0].render()}"
        den = "*".join(a.render() for a in self.denominator)
        return f"{num}/({den})"

    def __repr__(self) -> str:
        return f"RationalExpression({self.render()})"


def eq5_expression(
    edge_atoms: Iterable[tuple[AttributeSet, tuple[Variable, ...]]],
    interaction_atoms: Iterable[tuple[AttributeSet, tuple[Variable, ...]]],
) -> RationalExpression:
    """The derivation-rule weight for a produced row.

    Numerator: one atom per constraint edge, at the selected row's cells on
    that edge.  Denominator: one atom per interaction-set member, at the
    produced row's cells.  Cancellation is applied, which matters when an
    edge is contained in another and coincides with an interaction.  Each
    atom is given as its fields `(over, pattern)`, the pattern's variables
    read from a tableau's checked cells at `over`'s columns, so the atoms
    are built unchecked.
    """
    make = MarginalAtom._make
    num = [make(fields) for fields in edge_atoms]
    den = [make(fields) for fields in interaction_atoms]
    return RationalExpression.of(num, den)


def compile_expression(
    expr: RationalExpression,
    joint: WeightedRelation,
    slot_of: Mapping[Variable, int],
) -> Callable[[Sequence[str]], float]:
    """The numeric value of `expr` against `joint`, as a function of a binding tuple.

    The binding holds each variable's value at its slot in `slot_of`; a
    variable with no slot raises KeyError.  Each atom is its attribute set
    with the slots of its variables, compiled by `compile_quotient` in
    expression order.
    """
    return compile_quotient(
        joint, _terms(expr.numerator, slot_of), _terms(expr.denominator, slot_of), lambda k: expr.denominator[k].render()
    )


def _terms(atoms: Sequence[MarginalAtom], slot_of: Mapping[Variable, int]) -> Iterator[tuple[AttributeSet, list[int]]]:
    for atom in atoms:
        try:
            yield atom.over, [slot_of[v] for v in atom.pattern]
        except KeyError as exc:
            raise KeyError(f"unbound variable {exc.args[0]!r} in {atom.render()}") from None


def compile_quotient(
    joint: WeightedRelation,
    numerator: Iterable[tuple[AttributeSet, Sequence[int]]],
    denominator: Iterable[tuple[AttributeSet, Sequence[int]]],
    name: Callable[[int], str],
) -> Callable[[Sequence[str]], float]:
    """A quotient of marginals of `joint`, as a function of a binding tuple.

    Each term is an attribute set and the binding slots its key is read
    from, one per attribute in order.  Terms are compiled in order, each
    into its marginal table and a `prelation.getter` of its key; the call
    keeps one `{attribute set: marginal}` map, so `marginalize(joint, over)`
    runs once per attribute set however many terms share it.  The function
    multiplies the numerator's marginals into 1.0 and then divides by the
    denominator's, in that order.  A zero in the denominator makes the
    value 0 and raises ZeroDenominatorWarning naming `name(k)`, the k-th
    denominator term (the positivity assumption was violated).
    """
    marginals: dict[AttributeSet, WeightedRelation] = {}
    num = tuple([_compile_term(over, cols, joint, marginals) for over, cols in numerator])
    den = tuple([(*_compile_term(over, cols, joint, marginals), k) for k, (over, cols) in enumerate(denominator)])

    def value(binding: Sequence[str]) -> float:
        v = 1.0
        for weight, key in num:
            v *= weight(key(binding), 0.0)
        for weight, key, k in den:
            d = weight(key(binding), 0.0)
            if d == 0.0:
                warnings.warn(
                    f"zero marginal under {name(k)}; expression value defined as 0",
                    ZeroDenominatorWarning,
                    stacklevel=2,
                )
                return 0.0
            v /= d
        return v

    return value


def _compile_term(
    over: AttributeSet,
    cols: Sequence[int],
    joint: WeightedRelation,
    cache: dict[AttributeSet, WeightedRelation],
) -> tuple[Callable[[tuple, float], float], Callable[[Sequence[str]], tuple]]:
    """The weight lookup (`dict.get`) of the marginal over `over` and the getter of its key at `cols` of a binding."""
    marg = cache.get(over)
    if marg is None:
        marg = cache[over] = marginalize(joint, over)
    return marg._rows.get, getter(cols, False)  # the marginal's own table, only read


def evaluate(expr: RationalExpression, joint: WeightedRelation, binding: Mapping[Variable, str]) -> float:
    """Numeric value of `expr` against a concrete joint under a variable binding.

    Each atom evaluates to the marginal of `joint` over its attribute set at
    the bound value tuple; `marginalize` checks the set.  A zero in the
    denominator makes the result 0 and raises ZeroDenominatorWarning.  This
    compiles `expr` over the binding's variables (`compile_expression`) and
    calls the result once.
    """
    slot_of = {v: i for i, v in enumerate(binding)}
    return compile_expression(expr, joint, slot_of)(tuple([binding[v] for v in slot_of]))
