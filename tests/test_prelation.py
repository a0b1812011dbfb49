import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gajdchase.cli import parse
from gajdchase.errors import SchemeError
from gajdchase.hypergraph import AttributeSet
from gajdchase.prelation import (
    DomainSpec,
    Gajd,
    WeightedRelation,
    inverse,
    marginalize,
    monotone_join,
    mpj_map,
    product_join,
    satisfies,
)
from conftest import (
    benchmark_workload,
    brute_marginal,
    is_normalized,
    positive_relation,
    random_certificate,
    random_hypertree,
    relation_from_text,
)

AB = AttributeSet(["A", "B"])
A = AttributeSet(["A"])


def rel_ab(weights):
    keys = [("a0", "b0"), ("a0", "b1"), ("a1", "b0"), ("a1", "b1")]
    return WeightedRelation(AB, dict(zip(keys, weights)))


def positive_rel(attrs, seed, size=2):
    return positive_relation(DomainSpec.uniform(attrs, size), seed)


class TestWeightedRelation:
    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            WeightedRelation(A, {("a0",): -0.1})

    def test_rejects_wrong_arity(self):
        with pytest.raises(SchemeError):
            WeightedRelation(A, {("a0", "b0"): 0.5})

    def test_missing_tuple_weighs_zero(self):
        rel = WeightedRelation(A, {("a0",): 1.0})
        assert rel.weight(("a1",)) == 0.0

    def test_is_normalized(self):
        assert is_normalized(rel_ab([0.1, 0.2, 0.3, 0.4]))
        assert not is_normalized(rel_ab([0.1, 0.2, 0.3, 0.5]))

    def test_text_round_trip_is_value_exact(self):
        rel = positive_rel(["A", "B", "C"], seed=5)
        back = relation_from_text(rel.to_text())
        assert back.scheme == rel.scheme
        assert back.max_abs_diff(rel) == 0.0

    def test_from_text_rejects_bad_header(self):
        with pytest.raises(ValueError):
            relation_from_text("A B\n a0 b0 1.0\n")
        with pytest.raises(ValueError):
            relation_from_text("B A f\nb0 a0 1.0\n")

    def test_from_text_rejects_duplicate_tuple(self):
        text = "A B f\n0 0 0.25\n0 0 0.5\n1 1 0.25\n"
        with pytest.raises(ValueError, match=r"duplicate tuple \('0', '0'\) in row '0 0 0.5'"):
            relation_from_text(text)


class TestMarginalize:
    def test_direct_summation(self):
        rel = WeightedRelation(AB, {("a0", "b0"): 0.1, ("a0", "b1"): 0.3, ("a1", "b0"): 0.6})
        got = marginalize(rel, A)
        assert got.weight(("a0",)) == pytest.approx(0.4, abs=1e-15)
        assert got.weight(("a1",)) == pytest.approx(0.6, abs=1e-15)

    def test_full_scheme_is_identity(self):
        rel = rel_ab([0.1, 0.2, 0.3, 0.4])
        assert marginalize(rel, AB).max_abs_diff(rel) == 0.0

    def test_uniform_halves(self):
        rel = rel_ab([0.25] * 4)
        got = marginalize(rel, A)
        expected = brute_marginal(rel, A)
        assert got.weight(("a0",)) == pytest.approx(expected[("a0",)], abs=1e-15)
        assert got.weight(("a0",)) == pytest.approx(0.5, abs=1e-15)

    def test_onto_empty_set_gives_total(self):
        rel = rel_ab([0.1, 0.2, 0.3, 0.4])
        got = marginalize(rel, AttributeSet())
        assert got.weight(()) == pytest.approx(1.0, abs=1e-15)

    def test_scheme_error(self):
        with pytest.raises(SchemeError):
            marginalize(rel_ab([1, 1, 1, 1]), AttributeSet(["C"]))

    @settings(deadline=None)
    @given(st.lists(st.floats(0.0, 10.0), min_size=8, max_size=8))
    def test_mass_conservation(self, weights):
        rel = positive_rel(["A", "B", "C"], 0)
        rel = WeightedRelation(rel.scheme, dict(zip(rel.keys(), weights)))
        for onto in (AttributeSet(["A"]), AttributeSet(["A", "C"]), AttributeSet()):
            total = marginalize(rel, onto).total()
            assert total == pytest.approx(rel.total(), rel=1e-12, abs=1e-12)


class TestProductJoin:
    def test_scalar_product(self):
        p = WeightedRelation(A, {("a0",): 0.5})
        q = WeightedRelation(A, {("a0",): 2.0})
        assert product_join(p, q).weight(("a0",)) == pytest.approx(1.0)

    def test_relation_times_inverse_is_unit(self):
        rel = positive_rel(["A", "B"], seed=3)
        unit = product_join(rel, inverse(rel))
        for _, w in unit.items():
            assert w == pytest.approx(1.0, abs=1e-12)

    def test_all_tuples_brute_force(self):
        p = rel_ab([0.11, 0.23, 0.31, 0.35])
        BC = AttributeSet(["B", "C"])
        q = WeightedRelation(
            BC,
            {("b0", "c0"): 0.17, ("b0", "c1"): 0.19, ("b1", "c0"): 0.29, ("b1", "c1"): 0.35},
        )
        got = product_join(p, q)
        assert list(got.scheme) == ["A", "B", "C"]
        count = 0
        for a in ("a0", "a1"):
            for b in ("b0", "b1"):
                for c in ("c0", "c1"):
                    expected = p.weight((a, b)) * q.weight((b, c))
                    assert got.weight((a, b, c)) == pytest.approx(expected, abs=1e-15)
                    count += 1
        assert count == 8 == len(got)

    def test_disjoint_schemes_cartesian(self):
        p = WeightedRelation(A, {("a0",): 0.25, ("a1",): 0.75})
        q = WeightedRelation(AttributeSet(["B"]), {("b0",): 0.5})
        got = product_join(p, q)
        assert got.weight(("a1", "b0")) == pytest.approx(0.375)


class TestInverse:
    def test_reciprocal(self):
        assert inverse(WeightedRelation(A, {("a0",): 0.25})).weight(("a0",)) == pytest.approx(4.0)

    def test_zero_rows_dropped(self):
        rel = WeightedRelation(A, {("a0",): 0.5, ("a1",): 0.0})
        got = inverse(rel)
        assert ("a1",) not in got
        assert got.weight(("a0",)) == pytest.approx(2.0)

    def test_unit_relation_fixed_point(self):
        rel = WeightedRelation(A, {("a0",): 1.0, ("a1",): 1.0})
        assert inverse(rel).max_abs_diff(rel) == 0.0


class TestMonotoneJoin:
    def test_disjoint_intersection_gives_product_distribution(self):
        p = WeightedRelation(A, {("a0",): 0.3, ("a1",): 0.7})
        q = WeightedRelation(AttributeSet(["B"]), {("b0",): 0.4, ("b1",): 0.6})
        got = monotone_join(p, q)
        assert got.weight(("a0", "b1")) == pytest.approx(0.18, abs=1e-15)
        assert got.total() == pytest.approx(1.0, abs=1e-12)

    def test_two_marginals_give_quotient_formula(self):
        joint = positive_rel(["A", "B", "C"], seed=9)
        p = marginalize(joint, AB)
        BC = AttributeSet(["B", "C"])
        q = marginalize(joint, BC)
        got = monotone_join(p, q)
        margs_ab = brute_marginal(joint, AB)
        margs_bc = brute_marginal(joint, BC)
        margs_b = brute_marginal(joint, AttributeSet(["B"]))
        for (a, b, c), w in got.items():
            expected = margs_ab[(a, b)] * margs_bc[(b, c)] / margs_b[(b,)]
            assert w == pytest.approx(expected, rel=1e-12)

    def test_self_join_is_identity_on_positive(self):
        p = positive_rel(["A", "B"], seed=2)
        assert monotone_join(p, p).max_abs_diff(p) <= 1e-15


class TestMpjMap:
    def test_single_edge_identity(self):
        rel = positive_rel(["A", "B"], seed=1)
        g = Gajd.from_edges([["A", "B"]])
        assert mpj_map(rel, g).max_abs_diff(rel) == 0.0

    def test_fixed_point_unchanged(self):
        rel = positive_rel(["A", "B", "C"], seed=4)
        g = Gajd.from_edges([["A", "B"], ["B", "C"]])
        fixed = mpj_map(rel, g)
        assert mpj_map(fixed, g).max_abs_diff(fixed) <= 1e-15

    def test_chain_quotient_brute_force(self):
        rel = positive_rel(["A", "B", "C"], seed=7)
        g = Gajd.from_edges([["A", "B"], ["B", "C"]])
        got = mpj_map(rel, g)
        m_ab = brute_marginal(rel, AB)
        m_bc = brute_marginal(rel, AttributeSet(["B", "C"]))
        m_b = brute_marginal(rel, AttributeSet(["B"]))
        for (a, b, c), w in got.items():
            assert w == pytest.approx(m_ab[(a, b)] * m_bc[(b, c)] / m_b[(b,)], rel=1e-12)

    def test_scheme_mismatch(self):
        rel = positive_rel(["A", "B"], seed=1)
        with pytest.raises(SchemeError):
            mpj_map(rel, Gajd.from_edges([["A", "C"]]))

    def test_idempotent(self):
        for seed, edges in [
            (0, [["A", "B"], ["B", "C"]]),
            (1, [["A"], ["B"], ["C"]]),
            (2, [["A", "B"], ["B", "C"], ["C", "D"]]),
        ]:
            attrs = sorted({a for e in edges for a in e})
            rel = positive_rel(attrs, seed)
            g = Gajd.from_edges(edges)
            once = mpj_map(rel, g)
            assert mpj_map(once, g).max_abs_diff(once) <= 1e-12

    def test_marginal_preservation(self):
        for seed, edges in [
            (3, [["A", "B"], ["B", "C"]]),
            (4, [["A", "B"], ["B", "C"], ["C", "D"]]),
            (5, [["A", "B", "C"], ["C", "D"]]),
        ]:
            attrs = sorted({a for e in edges for a in e})
            rel = positive_rel(attrs, seed)
            g = Gajd.from_edges(edges)
            mapped = mpj_map(rel, g)
            for edge in g.hypergraph.edges:
                got = marginalize(mapped, edge)
                expected = brute_marginal(rel, edge)
                for key, w in got.items():
                    assert w == pytest.approx(expected[key], abs=1e-9)

    def test_decomposable_construction_satisfies(self):
        # Build a table from the product-of-edge-marginals-over-interactions
        # formula of an arbitrary positive base table, then check it is a
        # fixed point of the dependency's map.
        base = positive_rel(["A", "B", "C", "D"], seed=8)
        g = Gajd.from_edges([["A", "B"], ["B", "C"], ["B", "D"]])
        edge_margs = [brute_marginal(base, e) for e in g.edges_in_order]
        inter_margs = [brute_marginal(base, s) for s in g.interactions]
        edge_pos = [[list(base.scheme).index(a) for a in e] for e in g.edges_in_order]
        inter_pos = [[list(base.scheme).index(a) for a in s] for s in g.interactions]
        rows = {}
        for key in base.keys():
            w = 1.0
            for marg, pos in zip(edge_margs, edge_pos):
                w *= marg[tuple(key[i] for i in pos)]
            for marg, pos in zip(inter_margs, inter_pos):
                w /= marg[tuple(key[i] for i in pos)]
            rows[key] = w
        built = WeightedRelation(base.scheme, rows)
        assert satisfies(built, g, tol=1e-12).holds

    def test_certificate_choice_does_not_change_output(self):
        rng = random.Random(31)
        edges = [["A1", "A2", "A3"], ["A1", "A2", "A4"], ["A2", "A3", "A5"]]
        attrs = ["A1", "A2", "A3", "A4", "A5"]
        rel = positive_rel(attrs, seed=6)
        g = Gajd.from_edges(edges)
        reference = mpj_map(rel, g)
        for _ in range(4):
            cert = random_certificate(g, rng)
            alt = Gajd.from_edges(edges, certificate=cert)
            assert mpj_map(rel, alt).max_abs_diff(reference) <= 1e-12


class TestSatisfies:
    def test_independent_product(self):
        p = WeightedRelation(A, {("a0",): 0.3, ("a1",): 0.7})
        q = WeightedRelation(AttributeSet(["B"]), {("b0",): 0.4, ("b1",): 0.6})
        rel = product_join(p, q)
        result = satisfies(rel, Gajd.from_edges([["A"], ["B"]]))
        assert result.holds
        assert result.residual <= 1e-15

    def test_constructed_quotient_satisfies(self):
        rel = positive_rel(["A", "B", "C"], seed=10)
        g = Gajd.from_edges([["A", "B"], ["B", "C"]])
        built = mpj_map(rel, g)
        assert satisfies(built, g, tol=1e-12).holds

    def test_perturbation_breaks_it(self):
        rel = positive_rel(["A", "B", "C"], seed=10)
        g = Gajd.from_edges([["A", "B"], ["B", "C"]])
        built = mpj_map(rel, g)
        rows = dict(built.items())
        first = next(iter(rows))
        rows[first] += 0.01
        total = math.fsum(rows.values())
        perturbed = WeightedRelation(built.scheme, {k: w / total for k, w in rows.items()})
        result = satisfies(perturbed, g, tol=1e-12)
        assert not result.holds
        assert result.residual > 1e-6


def columns_by_name(g: Gajd) -> tuple[tuple[int, ...], ...]:
    """Each edge's positions in the scheme, in certificate order, looked up by attribute name."""
    return tuple(tuple(g.scheme.index(a) for a in edge) for edge in g.edges_in_order)


class TestEdgeColumns:
    def test_random_hypertrees_under_found_and_scrambled_certificates(self):
        rng = random.Random(31)
        for _ in range(300):
            attrs = [f"A{i}" for i in range(1, rng.randint(3, 10) + 1)]  # A10 sorts before A2
            g = random_hypertree(attrs, 5, rng)
            scrambled = Gajd(g.hypergraph, random_certificate(g, rng))
            for h in (g, scrambled):
                assert h.edge_columns == columns_by_name(h)

    @pytest.mark.parametrize("workload", ["census", "chains"])
    def test_benchmark_dependencies(self, workload):
        # Under the workload's disguised attribute names, so scheme order is not edge-list order.
        checked = 0
        for text in benchmark_workload(workload, 1).problems:
            problem = parse(text)
            for g in [*problem.constraints.values(), *(q.target for q in problem.queries)]:
                assert g.edge_columns == columns_by_name(g)
                checked += 1
        assert checked > 100


class TestCiResidual:
    def test_matches_two_edge_satisfies(self):
        rel = positive_rel(["A", "B", "C"], seed=12)
        g = Gajd.from_edges([["A", "B"], ["B", "C"]])
        built = mpj_map(rel, g)
        assert satisfies(built, Gajd.from_edges([AB, AttributeSet(["B", "C"])])).residual <= 1e-12
        assert satisfies(rel, Gajd.from_edges([AB, AttributeSet(["B", "C"])])).residual > 1e-6

    def test_coverage_error(self):
        rel = positive_rel(["A", "B", "C"], seed=12)
        with pytest.raises(SchemeError):
            satisfies(rel, Gajd.from_edges([A, AttributeSet(["B"])]))


class TestDomainSpec:
    def test_uniform_and_sizes(self):
        d = DomainSpec.with_sizes(["A", "B"], {"A": 3})
        assert d.domains["A"] == ("0", "1", "2")
        assert d.domains["B"] == ("0", "1")
        assert d.table_size() == 6

    def test_tuples_enumeration_order(self):
        d = DomainSpec.uniform(["B", "A"])
        assert list(d.tuples())[:2] == [("0", "0"), ("0", "1")]

    def test_rejects_empty_domain(self):
        with pytest.raises(ValueError):
            DomainSpec({"A": ()})
