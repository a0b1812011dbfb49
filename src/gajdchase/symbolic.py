"""Symbolic marginal expressions attached to tableau rows.

An atom `phi(a1,a2)` stands for the marginal of the working joint over an
attribute subset, evaluated at the variables filling those columns.  Row
weights and derivation records are quotients of two multisets of atoms; the
whole calculus is multiplicative, so quotients of multisets are closed under
every operation and no polynomial machinery is needed.

Canonical form: common atoms are cancelled between numerator and denominator
and each side is sorted by a total structural order, which makes printing
deterministic and equality structural.  `RationalExpression.of` builds it
once per expression: it counts atoms only when the two sides share one, and
sorts each side once.  An atom computes its hash and its sort key the first
time each is used and keeps them, so sorting and hashing an atom again
costs one attribute read.

Numeric evaluation has one path, `compile_expression`: an expression is
compiled against a joint once, each atom into its marginal table and a
reader of its key from a binding tuple, and the result is called per
binding.  `tableau.run` calls it once per run; `evaluate`, for a binding
given as a mapping, compiles and calls it once.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from typing import Callable, Iterable, Mapping, Sequence

from .errors import SchemeError, ZeroDenominatorWarning
from .hypergraph import AttributeSet
from .prelation import WeightedRelation, getter, marginalize


@dataclass(frozen=True)
class Variable:
    """A tableau variable bound to a single column.

    Distinguished variables are written `a<i>` where i is the 1-based
    position of their column in the tableau scheme; nondistinguished
    variables are written `b<k>` with a fresh k per variable.
    """

    distinguished: bool
    index: int
    column: str

    def __post_init__(self):
        if self.index < 1:
            raise ValueError("variable indices are 1-based")
        # A tableau's pattern index, `tableau.run`'s slots, `evaluate`'s
        # bindings and the atom counters of expressions are keyed by variables
        # or tuples of them; the value is the generated dataclass hash,
        # computed once instead of per lookup.
        object.__setattr__(self, "_hash", hash((self.distinguished, self.index, self.column)))

    def __hash__(self) -> int:
        return self._hash

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


@dataclass(frozen=True)
class MarginalAtom:
    """phi over an attribute subset, at the variables in `pattern` (one per column, in order).

    `sort_key`, the atom's place in the total structural order (attribute
    set, then its variables' sort keys), and the hash are cached properties,
    computed on first use and kept in the instance dict; equality compares
    the two fields.
    """

    over: AttributeSet
    pattern: tuple[Variable, ...]

    def __post_init__(self):
        if len(self.pattern) != len(self.over):
            raise ValueError("pattern width must match the attribute set")
        for attr, var in zip(self.over, self.pattern):
            if var.column != attr:
                raise ValueError(f"variable {var.render()} belongs to column {var.column}, not {attr}")

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.over, self.pattern))

    @cached_property
    def sort_key(self) -> tuple:
        return (self.over.members, tuple([v.sort_key for v in self.pattern]))

    @classmethod
    def from_cells(cls, over: AttributeSet, cells: Mapping[str, Variable]) -> "MarginalAtom":
        return cls(over, tuple(cells[a] for a in over))

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


@dataclass(frozen=True)
class RationalExpression:
    """A quotient of two multisets of atoms, kept in canonical (cancelled, sorted) form."""

    numerator: tuple[MarginalAtom, ...]
    denominator: tuple[MarginalAtom, ...]

    @classmethod
    def of(cls, numerator: Iterable[MarginalAtom] = (), denominator: Iterable[MarginalAtom] = ()) -> "RationalExpression":
        num = list(numerator)
        den = list(denominator)
        if num and den and not set(num).isdisjoint(den):
            n, d = Counter(num), Counter(den)
            common = n & d
            num, den = list((n - common).elements()), list((d - common).elements())
        num.sort(key=_SORT_KEY)
        den.sort(key=_SORT_KEY)
        return cls(tuple(num), tuple(den))

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
    edge_patterns: Iterable[tuple[AttributeSet, Mapping[str, Variable]]],
    interaction_patterns: Iterable[tuple[AttributeSet, Mapping[str, Variable]]],
) -> RationalExpression:
    """The derivation-rule weight for a produced row.

    Numerator: one atom per constraint edge, at the selected row's cells on
    that edge.  Denominator: one atom per interaction-set member, at the
    produced row's cells.  Cancellation is applied, which matters when an
    edge is contained in another and coincides with an interaction.
    """
    num = [MarginalAtom.from_cells(over, cells) for over, cells in edge_patterns]
    den = [MarginalAtom.from_cells(over, cells) for over, cells in interaction_patterns]
    return RationalExpression.of(num, den)


def compile_expression(
    expr: RationalExpression,
    joint: WeightedRelation,
    slot_of: Mapping[Variable, int],
    marginal_cache: dict[AttributeSet, WeightedRelation],
) -> Callable[[Sequence[str]], float]:
    """The numeric value of `expr` against `joint`, as a function of a binding tuple.

    The binding holds each variable's value at its slot in `slot_of`.  Each
    atom is compiled once, in expression order, into its marginal table
    (`marginalize(joint, atom.over)`, once per attribute set and cache) and
    a `prelation.getter` of its key from the binding; a variable with no
    slot raises KeyError.  The function multiplies the numerator atoms'
    marginals into 1.0 and then divides by the denominator's, in that
    order.  A zero in the denominator makes the value 0 and raises
    ZeroDenominatorWarning (the positivity assumption was violated).
    """
    num = tuple([_compile_atom(atom, joint, slot_of, marginal_cache) for atom in expr.numerator])
    den = tuple([(*_compile_atom(atom, joint, slot_of, marginal_cache), atom) for atom in expr.denominator])

    def value(binding: Sequence[str]) -> float:
        v = 1.0
        for weight, key in num:
            v *= weight(key(binding), 0.0)
        for weight, key, atom in den:
            d = weight(key(binding), 0.0)
            if d == 0.0:
                warnings.warn(
                    f"zero marginal under {atom.render()}; expression value defined as 0",
                    ZeroDenominatorWarning,
                    stacklevel=2,
                )
                return 0.0
            v /= d
        return v

    return value


def _compile_atom(
    atom: MarginalAtom,
    joint: WeightedRelation,
    slot_of: Mapping[Variable, int],
    cache: dict[AttributeSet, WeightedRelation],
) -> tuple[Callable[[tuple, float], float], Callable[[Sequence[str]], tuple]]:
    """The weight lookup (`dict.get`) of the marginal over `atom.over` and the getter of the atom's key from a binding."""
    marg = cache.get(atom.over)
    if marg is None:
        marg = cache[atom.over] = marginalize(joint, atom.over)
    try:
        cols = [slot_of[v] for v in atom.pattern]
    except KeyError as exc:
        raise KeyError(f"unbound variable {exc.args[0]!r} in {atom.render()}") from None
    return marg._rows.get, getter(cols, False)  # the marginal's own table, only read


def evaluate(
    expr: RationalExpression,
    joint: WeightedRelation,
    binding: Mapping[Variable, str],
    marginal_cache: dict[AttributeSet, WeightedRelation] | None = None,
) -> float:
    """Numeric value of `expr` against a concrete joint under a variable binding.

    Each atom evaluates to the marginal of `joint` over its attribute set at
    the bound value tuple; `marginalize` checks the set, once per cache.  A
    zero in the denominator makes the result 0 and raises
    ZeroDenominatorWarning.  This compiles `expr` over the binding's
    variables (`compile_expression`) and calls the result once.
    """
    slot_of = {v: i for i, v in enumerate(binding)}
    cache = marginal_cache if marginal_cache is not None else {}
    return compile_expression(expr, joint, slot_of, cache)(tuple([binding[v] for v in slot_of]))
