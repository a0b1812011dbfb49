"""Symbolic marginal expressions attached to tableau rows.

An atom `phi(a1,a2)` stands for the marginal of the working joint over an
attribute subset, evaluated at the variables filling those columns.  Row
weights and derivation records are quotients of two multisets of atoms; the
whole calculus is multiplicative, so quotients of multisets are closed under
every operation and no polynomial machinery is needed.

Canonical form: common atoms are cancelled between numerator and denominator
and each side is sorted by a total structural order, which makes printing
deterministic and equality structural.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import SchemeError, ZeroDenominatorWarning
from .hypergraph import AttributeSet
from .prelation import WeightedRelation, marginalize


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
    """phi over an attribute subset, at the variables in `pattern` (one per column, in order)."""

    over: AttributeSet
    pattern: tuple[Variable, ...]

    def __post_init__(self):
        if len(self.pattern) != len(self.over):
            raise ValueError("pattern width must match the attribute set")
        for attr, var in zip(self.over, self.pattern):
            if var.column != attr:
                raise ValueError(f"variable {var.render()} belongs to column {var.column}, not {attr}")

    @classmethod
    def from_cells(cls, over: AttributeSet, cells: Mapping[str, Variable]) -> "MarginalAtom":
        return cls(over, tuple(cells[a] for a in over))

    def render(self) -> str:
        return "phi(" + ",".join(v.render() for v in self.pattern) + ")"

    @property
    def sort_key(self) -> tuple:
        return (self.over.members, tuple(v.sort_key for v in self.pattern))


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


def _sorted_atoms(atoms: Counter) -> tuple[MarginalAtom, ...]:
    out: list[MarginalAtom] = []
    for atom in sorted(atoms, key=lambda a: a.sort_key):
        out.extend([atom] * atoms[atom])
    return tuple(out)


@dataclass(frozen=True)
class RationalExpression:
    """A quotient of two multisets of atoms, kept in canonical (cancelled, sorted) form."""

    numerator: tuple[MarginalAtom, ...]
    denominator: tuple[MarginalAtom, ...]

    @classmethod
    def of(cls, numerator: Iterable[MarginalAtom] = (), denominator: Iterable[MarginalAtom] = ()) -> "RationalExpression":
        num = Counter(numerator)
        den = Counter(denominator)
        common = num & den
        return cls(_sorted_atoms(num - common), _sorted_atoms(den - common))

    @classmethod
    def atom(cls, atom: MarginalAtom) -> "RationalExpression":
        return cls((atom,), ())  # a single atom is already canonical

    def is_unit(self) -> bool:
        return not self.numerator and not self.denominator

    def __mul__(self, other: "RationalExpression") -> "RationalExpression":
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


def evaluate(
    expr: RationalExpression,
    joint: WeightedRelation,
    binding: Mapping[Variable, str],
    marginal_cache: dict[AttributeSet, WeightedRelation] | None = None,
) -> float:
    """Numeric value of `expr` against a concrete joint under a variable binding.

    Each atom evaluates to the marginal of `joint` over its attribute set at
    the bound value tuple.  A zero in the denominator makes the result 0 and
    raises ZeroDenominatorWarning (the positivity assumption was violated).
    """
    cache = marginal_cache if marginal_cache is not None else {}

    def atom_value(atom: MarginalAtom) -> float:
        if not atom.over <= joint.scheme:
            raise SchemeError(f"atom over {atom.over.render()} exceeds the joint scheme {joint.scheme.render()}")
        marg = cache.get(atom.over)
        if marg is None:
            marg = marginalize(joint, atom.over)
            cache[atom.over] = marg
        try:
            key = tuple(binding[v] for v in atom.pattern)
        except KeyError as exc:
            raise KeyError(f"unbound variable {exc.args[0]!r} in {atom.render()}") from None
        return marg.weight(key)

    value = 1.0
    for atom in expr.numerator:
        value *= atom_value(atom)
    for atom in expr.denominator:
        d = atom_value(atom)
        if d == 0.0:
            warnings.warn(
                f"zero marginal under {atom.render()}; expression value defined as 0",
                ZeroDenominatorWarning,
                stacklevel=2,
            )
            return 0.0
        value /= d
    return value
