import itertools

import pytest

from gajdchase.errors import SchemeError, TableauInconsistencyError
from gajdchase.hypergraph import AttributeSet
from gajdchase.prelation import DomainSpec, Gajd, WeightedRelation, mpj_map
from gajdchase.symbolic import (
    MarginalAtom,
    RationalExpression,
    Variable,
    distinguished_for,
    evaluate,
)
from gajdchase.tableau import Row, Tableau, build_tr, run
from conftest import covering_hypertrees, identity_tableau, positive_relation


def patterns(t: Tableau) -> list[str]:
    return [row.render_pattern() for row in t.rows]


class TestBuildTr:
    def test_chain_layout(self, chain4):
        target, _, _ = chain4
        t = build_tr(target)
        assert patterns(t) == ["(a1,a2,b1,b2)", "(b3,a2,a3,b4)", "(b5,b6,a3,a4)"]
        assert [row.weight_expr.render() for row in t.rows] == [
            "phi(a1,a2,b1,b2)",
            "phi(b3,a2,a3,b4)",
            "phi(b5,b6,a3,a4)",
        ]
        assert t.psi.render() == "phi(a1,a2)*phi(a2,a3)*phi(a3,a4)/(phi(a2)*phi(a3))"

    def test_single_edge_equals_identity_tableau(self):
        g = Gajd.from_edges([["A", "B"]])
        t = build_tr(g)
        ident = identity_tableau(AttributeSet(["A", "B"]))
        assert patterns(t) == patterns(ident) == ["(a1,a2)"]
        assert t.psi == ident.psi

    def test_two_edge_layout(self):
        g = Gajd.from_edges([["A1", "A2"], ["A2", "A3", "A4"]])
        t = build_tr(g)
        assert patterns(t) == ["(a1,a2,b1,b2)", "(b3,a2,a3,a4)"]

    def test_fresh_variables_unique_across_rows(self, chain4):
        target, _, _ = chain4
        t = build_tr(target)
        nondistinguished = [v for row in t.rows for v in row.cells if not v.distinguished]
        assert len(nondistinguished) == len(set(nondistinguished)) == 6

    def test_render_layout(self, chain4):
        target, _, _ = chain4
        lines = build_tr(target).render().splitlines()
        assert lines[0].split() == ["A1", "A2", "A3", "A4", "f"]
        assert lines[1].split() == ["a1", "a2", "b1", "b2", "phi(a1,a2,b1,b2)"]


class TestTableauInvariants:
    def test_duplicate_pattern_rejected(self):
        g = Gajd.from_edges([["A", "B"]])
        t = build_tr(g)
        with pytest.raises(ValueError):
            t.add_row(t.rows[0])

    def test_distinguished_in_wrong_column_rejected(self):
        scheme = AttributeSet(["A", "B"])
        t = identity_tableau(scheme)
        a1 = distinguished_for(scheme, "A")
        stray = Variable(True, 1, "B")  # claims index 1 but sits in column B
        with pytest.raises(ValueError):
            t.add_row(Row((a1, stray), RationalExpression.of()))

    def test_row_width_checked(self):
        t = identity_tableau(AttributeSet(["A", "B"]))
        a1 = distinguished_for(AttributeSet(["A", "B"]), "A")
        with pytest.raises(SchemeError):
            t.add_row(Row((a1,), RationalExpression.of()))

    def test_copy_is_independent(self, chain4):
        target, _, _ = chain4
        t = build_tr(target)
        clone = t.copy()
        clone.add_row(Row(tuple(clone.distinguished_row()), RationalExpression.of()))
        assert len(t) == 3 and len(clone) == 4
        assert clone.contains_distinguished_row() and not t.contains_distinguished_row()


class TestRun:
    def test_identity_tableau_is_identity(self):
        rel = positive_relation(DomainSpec.uniform(["A", "B"]), seed=2)
        t = identity_tableau(rel.scheme)
        assert run(t, rel).max_abs_diff(rel) == 0.0

    def test_identity_skips_zero_weight_tuples(self):
        scheme = AttributeSet(["A"])
        rel = WeightedRelation(scheme, {("0",): 1.0, ("1",): 0.0})
        out = run(identity_tableau(scheme), rel)
        assert ("1",) not in out
        assert out.max_abs_diff(rel) == 0.0

    def test_matches_mpj_map_on_random_positive(self, chain4):
        target, _, _ = chain4
        t = build_tr(target)
        for seed in range(3):
            rel = positive_relation(DomainSpec.uniform(["A1", "A2", "A3", "A4"]), seed)
            assert run(t, rel).max_abs_diff(mpj_map(rel, target)) <= 1e-12

    def test_matches_mpj_map_across_small_hypertrees(self):
        rel = positive_relation(DomainSpec.uniform(["A", "B", "C"]), seed=13)
        for g in covering_hypertrees(["A", "B", "C"], 3):
            assert run(build_tr(g), rel).max_abs_diff(mpj_map(rel, g)) <= 1e-12

    @pytest.mark.parametrize(
        "edges",
        [
            [["A", "B"], ["B", "C"]],
            [["A", "B"], ["C"]],
            [["A", "B", "C"], ["B"]],
            [["A"], ["B", "C"]],
        ],
    )
    def test_agrees_with_naive_valuation_filter(self, edges):
        g = Gajd.from_edges(edges)
        t = build_tr(g)
        rel = positive_relation(DomainSpec.uniform(["A", "B", "C"]), seed=17)
        support = {k for k, w in rel.items() if w > 0}
        variables = sorted({v for row in t.rows for v in row.cells}, key=lambda v: v.sort_key)
        column_values = {a: sorted({k[list(rel.scheme).index(a)] for k in rel.keys()}) for a in rel.scheme}
        naive: dict = {}
        for assignment in itertools.product(*(column_values[v.column] for v in variables)):
            binding = dict(zip(variables, assignment))
            if all(tuple(binding[v] for v in row.cells) in support for row in t.rows):
                dist = tuple(binding[v] for v in t.distinguished_row())
                naive[dist] = evaluate(t.psi, rel, binding)
        got = run(t, rel)
        assert set(got.keys()) == set(naive)
        for key, val in naive.items():
            assert got.weight(key) == pytest.approx(val, rel=1e-12)

    def test_unmatched_pattern_absent_from_output(self):
        g = Gajd.from_edges([["A", "B"], ["B", "C"]])
        t = build_tr(g)
        scheme = AttributeSet(["A", "B", "C"])
        rel = WeightedRelation(scheme, {("0", "0", "0"): 0.5, ("1", "1", "1"): 0.5})
        out = run(t, rel)
        assert ("0", "0", "1") not in out
        assert set(out.keys()) == {("0", "0", "0"), ("1", "1", "1")}

    def test_scheme_mismatch(self, chain4):
        target, _, _ = chain4
        rel = positive_relation(DomainSpec.uniform(["A1", "A2"]), seed=0)
        with pytest.raises(SchemeError):
            run(build_tr(target), rel)

    def test_inconsistent_weights_detected(self):
        # A hand-built tableau whose emission expression mentions a
        # nondistinguished variable gives different weights to one
        # distinguished tuple under different valuations.
        scheme = AttributeSet(["A", "B"])
        a1 = distinguished_for(scheme, "A")
        a2 = distinguished_for(scheme, "B")
        b1 = Variable(False, 1, "B")
        b2 = Variable(False, 2, "A")
        psi = RationalExpression.of([MarginalAtom(scheme, (a1, b1))])
        t = Tableau(scheme, psi)
        t.add_row(Row((a1, b1), RationalExpression.of([MarginalAtom(scheme, (a1, b1))])))
        t.add_row(Row((b2, a2), RationalExpression.of([MarginalAtom(scheme, (b2, a2))])))
        rel = positive_relation(DomainSpec.uniform(["A", "B"]), seed=23)
        with pytest.raises(TableauInconsistencyError):
            run(t, rel)

    def test_missing_distinguished_variable_rejected(self):
        scheme = AttributeSet(["A", "B"])
        a1 = distinguished_for(scheme, "A")
        b1 = Variable(False, 1, "B")
        t = Tableau(scheme, RationalExpression.of())
        t.add_row(Row((a1, b1), RationalExpression.of()))
        rel = positive_relation(DomainSpec.uniform(["A", "B"]), seed=1)
        with pytest.raises(ValueError):
            run(t, rel)
