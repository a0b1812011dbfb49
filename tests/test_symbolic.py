import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gajdchase.errors import SchemeError, ZeroDenominatorWarning
from gajdchase.hypergraph import AttributeSet
from gajdchase.prelation import DomainSpec, marginalize
from gajdchase.symbolic import (
    MarginalAtom,
    RationalExpression,
    Variable,
    compile_expression,
    distinguished_for,
    eq5_expression,
    evaluate,
    restrict_atom,
)
from conftest import positive_relation

SCHEME = AttributeSet(["A1", "A2", "A3", "A4"])
A1, A2, A3, A4 = (distinguished_for(SCHEME, a) for a in SCHEME)
B4 = Variable(False, 4, "A4")


def atom(*variables):
    return MarginalAtom(AttributeSet([v.column for v in variables]), tuple(sorted(variables, key=lambda v: v.column)))


PHI_A1A2 = atom(A1, A2)
PHI_A2A3 = atom(A2, A3)
PHI_A3A4 = atom(A3, A4)
PHI_A2 = atom(A2)
PHI_A3 = atom(A3)


class TestVariable:
    def test_render(self):
        assert A1.render() == "a1"
        assert B4.render() == "b4"

    def test_index_positive(self):
        with pytest.raises(ValueError):
            Variable(True, 0, "A1")

    def test_distinguished_position(self):
        assert distinguished_for(SCHEME, "A3").index == 3


class TestMarginalAtom:
    def test_render(self):
        assert PHI_A1A2.render() == "phi(a1,a2)"

    def test_pattern_column_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MarginalAtom(AttributeSet(["A1"]), (A2,))

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MarginalAtom(AttributeSet(["A1", "A2"]), (A1,))

    def test_structural_equality(self):
        assert atom(A1, A2) == PHI_A1A2
        assert atom(A1, B4) != atom(A1, A4)

    def test_sort_key_reads_variables_in_their_own_order(self):
        # The atom reads its variables' keys from their fields; `Variable.sort_key` defines them.
        b1, b14 = Variable(False, 1, "A1"), Variable(False, 14, "A4")
        atoms = [atom(*vs) for vs in itertools.product((A1, b1), (A4, B4, b14))] + [PHI_A2A3, atom(b14)]
        for a in atoms:
            key = a.sort_key
            assert key == (a.over.members, tuple([v.sort_key for v in a.pattern]))
            assert [type(part) for part in key[1][0]] == [str, int, int]
        assert sorted(atoms, key=lambda a: a.sort_key) == sorted(
            atoms, key=lambda a: (a.over.members, [v.sort_key for v in a.pattern])
        )


class TestRestrictAtom:
    def test_drops_fresh_variable_column(self):
        wide = atom(A2, A3, B4)
        assert restrict_atom(wide, AttributeSet(["A2", "A3"])) == PHI_A2A3

    def test_identity_restriction(self):
        assert restrict_atom(PHI_A2A3, PHI_A2A3.over) == PHI_A2A3

    def test_three_column_restriction(self):
        wide = atom(A1, A2, A3, B4)
        got = restrict_atom(wide, AttributeSet(["A1", "A2", "A3"]))
        assert got == atom(A1, A2, A3)

    def test_rejects_non_subset(self):
        with pytest.raises(SchemeError):
            restrict_atom(PHI_A2, AttributeSet(["A3"]))


class TestRationalExpression:
    def test_unit_is_multiplicative_identity(self):
        x = RationalExpression.of([PHI_A1A2], [PHI_A2])
        assert x * RationalExpression.of() == x

    def test_union_without_cancellation(self):
        left = RationalExpression.of([PHI_A1A2], [PHI_A2])
        right = RationalExpression.of([PHI_A2A3])
        got = left * right
        assert got == RationalExpression.of([PHI_A1A2, PHI_A2A3], [PHI_A2])
        assert got.render() == "phi(a1,a2)*phi(a2,a3)/phi(a2)"

    def test_full_cancellation(self):
        left = RationalExpression.of([PHI_A2])
        right = RationalExpression.of([], [PHI_A2])
        assert (left * right).is_unit()
        assert (left * right).render() == "1"

    def test_multiset_multiplicity(self):
        squared = RationalExpression.of([PHI_A2, PHI_A2], [PHI_A2])
        assert squared == RationalExpression.of([PHI_A2])

    def test_render_parenthesizes_compound_denominator(self):
        expr = RationalExpression.of([PHI_A1A2, PHI_A2A3, PHI_A3A4], [PHI_A2, PHI_A3])
        assert expr.render() == "phi(a1,a2)*phi(a2,a3)*phi(a3,a4)/(phi(a2)*phi(a3))"

    def test_render_bare_reciprocal(self):
        assert RationalExpression.of([], [PHI_A2]).render() == "1/phi(a2)"

    def test_atom_order_is_by_attribute_set_then_pattern(self):
        expr = RationalExpression.of([PHI_A3A4, PHI_A1A2, PHI_A2A3])
        assert [a.render() for a in expr.numerator] == [
            "phi(a1,a2)",
            "phi(a2,a3)",
            "phi(a3,a4)",
        ]

    @settings(deadline=None)
    @given(st.lists(st.sampled_from([PHI_A1A2, PHI_A2A3, PHI_A2, PHI_A3]), max_size=5),
           st.lists(st.sampled_from([PHI_A1A2, PHI_A2A3, PHI_A2, PHI_A3]), max_size=5))
    def test_canonicalization_idempotent(self, num, den):
        once = RationalExpression.of(num, den)
        again = RationalExpression.of(once.numerator, once.denominator)
        assert once == again

    @settings(deadline=None)
    @given(st.lists(st.sampled_from([PHI_A1A2, PHI_A2, PHI_A3]), max_size=4),
           st.lists(st.sampled_from([PHI_A2A3, PHI_A2, PHI_A3]), max_size=4))
    def test_multiply_commutative(self, num, den):
        x = RationalExpression.of(num, den)
        y = RationalExpression.of(den, num)
        assert x * y == y * x

    def test_multiply_associative(self):
        x = RationalExpression.of([PHI_A1A2])
        y = RationalExpression.of([PHI_A2A3], [PHI_A2])
        z = RationalExpression.of([], [PHI_A3])
        assert (x * y) * z == x * (y * z)


def reference_of(numerator, denominator):
    """Canonical form by multiset difference: Counters, cancelled, each distinct atom sorted then repeated."""

    def sort_key(a):
        return (a.over.members, tuple(v.sort_key for v in a.pattern))

    def sorted_atoms(atoms):
        out = []
        for a in sorted(atoms, key=sort_key):
            out.extend([a] * atoms[a])
        return tuple(out)

    num, den = Counter(numerator), Counter(denominator)
    common = num & den
    return sorted_atoms(num - common), sorted_atoms(den - common)


# A small pool, so that draws repeat atoms and share them across the two
# sides; `atom(A2)` is a second object equal to PHI_A2, and the atoms over
# {A3 A4} differ only in the variable of A4.
ATOM_POOL = [PHI_A1A2, PHI_A2A3, PHI_A3A4, PHI_A2, atom(A2), PHI_A3, atom(A3, B4), atom(B4), atom(A4)]
atom_lists = st.lists(st.sampled_from(ATOM_POOL), max_size=7)


class TestCanonicalFormExact:
    """`RationalExpression.of` and `*` agree with the multiset-difference reference."""

    @settings(deadline=None)
    @given(atom_lists, atom_lists)
    def test_of(self, num, den):
        got = RationalExpression.of(num, den)
        assert (got.numerator, got.denominator) == reference_of(num, den)

    @settings(deadline=None)
    @given(atom_lists, atom_lists, atom_lists, atom_lists)
    def test_mul(self, num1, den1, num2, den2):
        x, y = RationalExpression.of(num1, den1), RationalExpression.of(num2, den2)
        got = x * y
        assert (got.numerator, got.denominator) == reference_of(
            x.numerator + y.numerator, x.denominator + y.denominator
        )


class TestEq5Expression:
    def test_two_row_application(self):
        b4 = Variable(False, 4, "A4")
        got = eq5_expression(
            [(AttributeSet(["A1", "A2"]), (A1, A2)), (AttributeSet(["A2", "A3", "A4"]), (A2, A3, b4))],
            [(AttributeSet(["A2"]), (A2,))],
        )
        assert got.render() == "phi(a1,a2)*phi(a2,a3,b4)/phi(a2)"

    def test_single_edge_has_empty_denominator(self):
        got = eq5_expression([(AttributeSet(["A1", "A2"]), (A1, A2))], [])
        assert got == RationalExpression.of([PHI_A1A2])


class TestEvaluate:
    def setup_method(self):
        self.scheme = AttributeSet(["A1", "A2", "A3"])
        self.joint = positive_relation(DomainSpec.uniform(["A1", "A2", "A3"]), seed=21)
        self.binding = {
            distinguished_for(self.scheme, "A1"): "0",
            distinguished_for(self.scheme, "A2"): "1",
            distinguished_for(self.scheme, "A3"): "0",
        }

    def test_single_atom_on_uniform(self):
        from gajdchase.prelation import WeightedRelation

        scheme = AttributeSet(["A1"])
        uniform = WeightedRelation(scheme, {("0",): 0.5, ("1",): 0.5})
        a1 = distinguished_for(scheme, "A1")
        value = evaluate(RationalExpression.of([MarginalAtom(scheme, (a1,))]), uniform, {a1: "0"})
        assert value == pytest.approx(0.5)

    def test_empty_expression_is_one(self):
        assert evaluate(RationalExpression.of(), self.joint, {}) == 1.0

    def test_multiplicative(self):
        s = self.scheme
        x = RationalExpression.of([MarginalAtom.from_cells(AttributeSet(["A1", "A2"]), {
            "A1": distinguished_for(s, "A1"), "A2": distinguished_for(s, "A2")})])
        y = RationalExpression.of([], [MarginalAtom.from_cells(AttributeSet(["A2"]), {
            "A2": distinguished_for(s, "A2")})])
        vx = evaluate(x, self.joint, self.binding)
        vy = evaluate(y, self.joint, self.binding)
        assert evaluate(x * y, self.joint, self.binding) == pytest.approx(vx * vy, rel=1e-12)

    def test_cancellation_preserves_value(self):
        s = self.scheme
        a2_atom = MarginalAtom.from_cells(AttributeSet(["A2"]), {"A2": distinguished_for(s, "A2")})
        with_pair = RationalExpression.of([a2_atom, a2_atom], [a2_atom]) * RationalExpression.of()
        assert with_pair == RationalExpression.of([a2_atom])
        assert evaluate(with_pair, self.joint, self.binding) == pytest.approx(
            evaluate(RationalExpression.of([a2_atom]), self.joint, self.binding)
        )

    def test_unbound_variable_error(self):
        s = self.scheme
        expr = RationalExpression.of([MarginalAtom.from_cells(AttributeSet(["A1"]), {
            "A1": distinguished_for(s, "A1")})])
        with pytest.raises(KeyError):
            evaluate(expr, self.joint, {})

    def test_atom_outside_scheme_error(self):
        other = AttributeSet(["Z"])
        expr = RationalExpression.of([MarginalAtom(other, (distinguished_for(other, "Z"),))])
        with pytest.raises(SchemeError):
            evaluate(expr, self.joint, {distinguished_for(other, "Z"): "0"})

    def test_zero_denominator_warns_and_returns_zero(self):
        from gajdchase.prelation import WeightedRelation

        scheme = AttributeSet(["A1"])
        joint = WeightedRelation(scheme, {("0",): 1.0, ("1",): 0.0})
        a1 = distinguished_for(scheme, "A1")
        expr = RationalExpression.of([], [MarginalAtom(scheme, (a1,))])
        with pytest.warns(ZeroDenominatorWarning):
            assert evaluate(expr, joint, {a1: "1"}) == 0.0

    def test_compiled_expression_reads_its_slots(self):
        # Slots in another order than the scheme's; the value is the
        # marginals multiplied into 1.0 and then divided, in canonical order.
        a = {c: distinguished_for(self.scheme, c) for c in self.scheme}
        sets = [AttributeSet(["A1", "A2"]), AttributeSet(["A2", "A3"]), AttributeSet(["A2"])]
        expr = RationalExpression.of([MarginalAtom.from_cells(o, a) for o in sets[:2]],
                                     [MarginalAtom.from_cells(sets[2], a)])
        slots = [a["A3"], a["A1"], a["A2"]]
        value = compile_expression(expr, self.joint, {v: i for i, v in enumerate(slots)})
        m12, m23, m2 = (marginalize(self.joint, o) for o in sets)
        for x3, x1, x2 in itertools.product("01", repeat=3):
            expected = 1.0 * m12.weight((x1, x2)) * m23.weight((x2, x3)) / m2.weight((x2,))
            assert value((x3, x1, x2)) == expected

    def test_empty_attribute_atom_is_total_mass(self):
        expr = RationalExpression.of([MarginalAtom(AttributeSet(), ())])
        assert evaluate(expr, self.joint, {}) == pytest.approx(1.0, abs=1e-12)
