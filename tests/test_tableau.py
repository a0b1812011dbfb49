import collections
import itertools
import random

import pytest

from gajdchase.chase import chase
from gajdchase.errors import SchemeError, ZeroDenominatorWarning
from gajdchase.hypergraph import AttributeSet
from gajdchase.prelation import DomainSpec, Gajd, WeightedRelation, mpj_map
from gajdchase.symbolic import (
    MarginalAtom,
    RationalExpression,
    Variable,
    distinguished_for,
    evaluate,
)
from gajdchase.tableau import JoinPlan, Row, Tableau, build_tr, join, run
from conftest import contains_distinguished_row, covering_hypertrees, identity_tableau, positive_relation


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
        assert contains_distinguished_row(clone) and not contains_distinguished_row(t)
        code_of, row_of = dict(t.code_of), dict(t.row_of)
        fresh = Variable(False, 7, "A1")
        cells = (fresh,) + clone.rows[0].cells[1:]
        assert clone.add_row(Row(cells, RationalExpression.of())) == 4
        assert clone.has_pattern(cells) and not t.has_pattern(cells)
        assert (False, 7, "A1") in clone.code_of and t.code_of == code_of and t.row_of == row_of
        assert fresh in clone.rows[4].cells and len(t.variables) < len(clone.variables)

    def test_add_row_codes_a_fresh_variable_next(self, chain4):
        # One map codes every variable: a fresh one gets the next code, the
        # all-distinguished row is the goal as soon as it is added, and a
        # copy codes on without touching the original's map.
        target, _, _ = chain4
        t = build_tr(target)
        n = len(t.code_of)
        assert list(t.code_of.values()) == list(range(n)) and n == 10
        assert t.goal() == (0, 1, 5, 9) and t.goal() not in t.row_of
        rid = t.add_row(Row((Variable(False, 7, "A1"),) + t.rows[0].cells[1:], RationalExpression.of()))
        assert t.code_of[(False, 7, "A1")] == n and t.patterns[rid] == (n, 1, 2, 3)
        before = dict(t.code_of)
        clone = t.copy()
        goal_id = clone.add_row(Row(t.distinguished_row(), RationalExpression.of()))
        assert clone.row_of[clone.goal()] == goal_id and clone.code_of == before
        assert clone.add_row(Row(t.rows[0].cells[:3] + (Variable(False, 8, "A4"),), RationalExpression.of())) == goal_id + 1
        assert clone.code_of[(False, 8, "A4")] == n + 1
        assert t.code_of == before and list(t.code_of) == list(before) and t.goal() not in t.row_of


class TestTableau:
    def test_index_catches_up_with_appended_rows(self, chain4):
        # The chase appends its rows through `append`, without `add_row`'s
        # checks; the coded index must hold them, and a continued run must
        # leave the earlier trace's final tableau as it stopped.
        target, left, right = chain4
        prefix = chase(build_tr(target), [left, right], stop_when_no_gain=True)
        first = prefix.steps[-1].produced
        assert prefix.final.row_id(first.cells) == len(prefix.final) - 1
        # The continuation keeps appending to the run's tableau; the prefix's final becomes a copy.
        closure = chase(prefix, [left, right])
        final = closure.final
        last = closure.steps[-1].produced
        with pytest.raises(ValueError, match="duplicate row pattern"):
            final.add_row(Row(last.cells, RationalExpression.of()))
        for i, row in enumerate(final.rows):
            assert final.has_pattern(row.cells) and final.row_id(row.cells) == i
        assert len(prefix.final) < len(final) and not prefix.final.has_pattern(last.cells)
        clone = final.copy()
        assert clone.row_id(last.cells) == len(clone) - 1
        extra = Row((first.cells[0],) + last.cells[1:], RationalExpression.of())
        assert final.add_row(extra) == final.row_id(extra.cells) == len(clone)
        assert not clone.has_pattern(extra.cells) and clone.add_row(extra) == len(clone) - 1

    def test_pattern_with_a_variable_in_no_row(self, chain4):
        target, _, _ = chain4
        t = build_tr(target)
        cells = (Variable(False, 7, "A1"),) + t.rows[0].cells[1:]
        assert not t.has_pattern(cells)
        with pytest.raises(KeyError):
            t.row_id(cells)


def brute_join(plan, projections, fixed=None):
    """Every consistent choice of one projection per position, by a plain nested loop."""
    choices = list(projections)
    if fixed is not None:
        choices[fixed[0]] = [fixed[1]]
    out = []
    for choice in itertools.product(*choices):
        binding = [None] * plan.width
        consistent = True
        for slots, proj in zip(plan.slots, choice):
            for slot, v in zip(slots, proj):
                if binding[slot] is None:
                    binding[slot] = v
                elif binding[slot] != v:
                    consistent = False
        if consistent:
            out.append(tuple(binding))
    return out


class TestJoin:
    @staticmethod
    def _insert(plan, position, proj):
        for key_of, index in plan.inserts[position]:
            index.setdefault(key_of(proj), []).append(proj)

    def _emitted(self, plan, projections, fixed=None):
        """The join from `fixed`, or from each of position 0's projections in turn when None.

        The plan's own indexes are emptied and filled through `plan.inserts` in the order of `projections`.
        """
        for index in plan.indexes:
            index.clear()
        for position, projs in enumerate(projections):
            for proj in projs:
                self._insert(plan, position, proj)
        out = []
        for start, chosen in [fixed] if fixed is not None else [(0, proj) for proj in projections[0]]:
            join(plan, out.append, start, chosen)
        return out

    @staticmethod
    def _random_plans(rng, count):
        """Random plans over up to 5 slots and 4 positions, cyclic ones included, with projections."""
        for _ in range(count):
            width = rng.randint(1, 5)
            drawn = [rng.sample(range(width), rng.randint(1, width)) for _ in range(rng.randint(1, 4))]
            # A plan names every slot below its width, so the slots drawn are numbered in order.
            named = sorted({slot for comp in drawn for slot in comp})
            plan = JoinPlan([[named.index(slot) for slot in comp] for comp in drawn], range(len(drawn)))
            projections = []
            for slots in plan.slots:
                pool = list(itertools.product(range(3), repeat=len(slots)))
                projections.append(rng.sample(pool, rng.randint(0, min(6, len(pool)))))
            yield plan, projections

    def test_matches_nested_loop_on_random_plans(self):
        rng = random.Random(5)
        shared_fixed = results = 0
        for plan, projections in self._random_plans(rng, 400):
            expected = brute_join(plan, projections)
            assert self._emitted(plan, projections) == expected
            results += len(expected)
            for p, slots in enumerate(plan.slots):
                earlier = {slot for comp in plan.slots[:p] for slot in comp}
                shared_fixed += bool(earlier & set(slots))
                for proj in projections[p] or [tuple(rng.randrange(3) for _ in slots)]:
                    fixed = (p, proj)
                    assert self._emitted(plan, projections, fixed) == brute_join(plan, projections, fixed)
        assert shared_fixed > 100 and results > 300

    def test_incremental_inserts_emit_each_result_once(self):
        # Semi-naive evaluation: a projection joined with those inserted before it, right after
        # its own insert, yields every result exactly once, at its last projection inserted.
        order = random.Random(6)
        results = 0
        for plan, projections in self._random_plans(random.Random(5), 400):
            arrivals = [(p, proj) for p, projs in enumerate(projections) for proj in projs]
            order.shuffle(arrivals)
            out = []
            for p, proj in arrivals:
                self._insert(plan, p, proj)
                join(plan, out.append, p, proj)
            expected = brute_join(plan, projections)
            assert collections.Counter(out) == collections.Counter(expected)
            results += len(expected)
        assert results > 300

    @staticmethod
    def _dead_end_levels(plan, projections, start):
        """The steps of the join from `start` at which some choice it reaches meets an empty bucket.

        Found by brute force: a choice of projections at the start and the
        positions of the steps before is reached when it is consistent, and
        its bucket is empty when no projection at the step's position agrees
        with it on their shared slots.
        """
        order = [p for p in range(len(plan.slots)) if p != start]
        reached = [dict(zip(plan.slots[start], proj)) for proj in projections[start]]
        levels = set()
        for level, p in enumerate(order):
            extended = []
            for bound in reached:
                bucket = [proj for proj in projections[p]
                          if all(bound.get(slot, v) == v for slot, v in zip(plan.slots[p], proj))]
                if not bucket:
                    levels.add(level)
                extended += [{**bound, **dict(zip(plan.slots[p], proj))} for proj in bucket]
            reached = extended
        return levels

    def test_long_plans_match_nested_loop_from_every_start(self):
        # `_random_plans` draws at most 4 positions; at 5 and 6 the recursion runs above the
        # level that runs the last step inline.  Every position binds slot 0, the lane of a
        # projection, and a lane's projections agree on every other slot.  Position i holds
        # every lane but i, so the choice in lane j dies at position j: from every start, some
        # choice meets an empty bucket at every step, and lane P alone comes through.
        rng = random.Random(13)
        results = 0
        for positions in (5, 6):
            plan = JoinPlan([(0, i, rng.choice([s for s in range(1, positions + 1) if s != i]))
                             for i in range(1, positions + 1)], range(positions))
            value = {(lane, slot): rng.randrange(2) for lane in range(positions + 1) for slot in range(1, positions + 1)}
            projections = [[(lane,) + tuple([value[lane, slot] for slot in slots[1:]])
                            for lane in range(positions + 1) if lane != i] for i, slots in enumerate(plan.slots)]
            for start in range(positions):
                assert self._dead_end_levels(plan, projections, start) == set(range(positions - 1))
                for proj in projections[start]:
                    fixed = (start, proj)
                    expected = brute_join(plan, projections, fixed)
                    assert self._emitted(plan, projections, fixed) == expected
                    results += len(expected)
        assert results == 11

    def test_fixed_position_looks_earlier_positions_up_on_its_slots(self):
        # A cycle: with the last position fixed, the first two are looked up on the slots it
        # binds as well as on those the positions before them bind, so each bucket holds only
        # projections consistent with the fixed one.
        plan = JoinPlan([(0, 1), (1, 2), (2, 0)], [0, 2])
        assert plan.keyed == ((1, (0,)), (2, (0, 1)), (0, (0,)), (1, (0, 1)))
        projections = [[(0, 0), (0, 1), (1, 1)], [(0, 0), (1, 0), (1, 1)], [(0, 0), (1, 1), (0, 1)]]
        fixed = (2, (1, 1))
        assert self._emitted(plan, projections, fixed) == brute_join(plan, projections, fixed) == [(1, 1, 1)]
        assert self._emitted(plan, projections) == brute_join(plan, projections) == [
            (0, 0, 0), (0, 1, 0), (1, 1, 0), (1, 1, 1)
        ]

    def test_two_edge_rule_keeps_one_index_per_position_on_the_separator(self):
        # The plan `chase._pair_readers` reads as, for edges {A B} {B C}: columns 0-2, then each row id slot.
        plan = JoinPlan([(0, 1, 3), (1, 2, 4)], range(2))
        assert plan.keyed == ((1, (0,)), (0, (1,)))
        assert len(plan.indexes) == 2 and [len(inserts) for inserts in plan.inserts] == [1, 1]
        (key_a, index_a), = plan.inserts[0]
        (key_b, index_b), = plan.inserts[1]
        assert index_a is plan.indexes[1] and index_b is plan.indexes[0]
        # Each key is the separator value B itself, read from a projection followed by its row id.
        assert key_a((0, 1, 7)) == key_b((1, 2, 8)) == 1

    def test_plan_is_compiled_whole_when_built(self):
        # Every start's probe is built with the plan, and each step reads one of the plan's indexes.
        for plan, _ in self._random_plans(random.Random(7), 100):
            starts = list(range(len(plan.slots)))
            assert list(plan.probes) == starts
            for start in starts:
                steps, _ = plan.probes[start]
                assert len(steps) == len(plan.slots) - 1
                assert all(any(index is own for own in plan.indexes) for index, _ in steps)
        plan = JoinPlan([(0, 1, 3), (1, 2, 4)], range(2))
        assert [[index is plan.indexes[0] for index, _ in plan.probes[p][0]] for p in range(2)] == [[True], [False]]

    def test_every_slot_below_the_width_is_named(self):
        with pytest.raises(ValueError):
            JoinPlan([(0, 2)], [0])


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

    def test_psi_reading_other_than_distinguished_variables_rejected(self):
        # psi must be a function of the distinguished tuple: a nondistinguished
        # variable, or a distinguished one outside its own column, is refused
        # before the join, whatever the relation.
        scheme = AttributeSet(["A", "B"])
        a1 = distinguished_for(scheme, "A")
        a2 = distinguished_for(scheme, "B")
        b1 = Variable(False, 1, "B")
        b2 = Variable(False, 2, "A")
        rows = [Row((a1, b1), RationalExpression.of([MarginalAtom(scheme, (a1, b1))])),
                Row((b2, a2), RationalExpression.of([MarginalAtom(scheme, (b2, a2))]))]
        relations = [
            positive_relation(DomainSpec.uniform(["A", "B"]), seed=23),
            WeightedRelation(scheme, {k: 0.25 for k in itertools.product("01", repeat=2)}),
        ]
        for atom, name in [
            (MarginalAtom(scheme, (a1, b1)), "b1"),
            (MarginalAtom(AttributeSet(["A"]), (Variable(True, 2, "A"),)), "a2"),
        ]:
            t = Tableau(scheme, RationalExpression.of([atom]))
            for row in rows:
                t.add_row(row)
            for rel in relations:
                with pytest.raises(ValueError, match=name):
                    run(t, rel)

    def test_zero_denominator_at_a_cross_row_pair_emits_zero(self):
        # psi divides by the joint marginal at (a1, a2), which the two rows
        # bind independently; the relation holds only (0,0) and (1,1), so
        # the valuations that pair a1 and a2 across values divide by zero.
        scheme = AttributeSet(["A", "B"])
        a1 = distinguished_for(scheme, "A")
        a2 = distinguished_for(scheme, "B")
        b1 = Variable(False, 1, "B")
        b2 = Variable(False, 2, "A")
        psi = RationalExpression.of(
            [MarginalAtom(AttributeSet(["A"]), (a1,)), MarginalAtom(AttributeSet(["B"]), (a2,))],
            [MarginalAtom(scheme, (a1, a2))],
        )
        t = Tableau(scheme, psi)
        t.add_row(Row((a1, b1), RationalExpression.of([MarginalAtom(scheme, (a1, b1))])))
        t.add_row(Row((b2, a2), RationalExpression.of([MarginalAtom(scheme, (b2, a2))])))
        rel = WeightedRelation(scheme, {("0", "0"): 0.25, ("1", "1"): 0.75, ("0", "1"): 0.0})
        with pytest.warns(ZeroDenominatorWarning):
            out = run(t, rel)
        assert list(out.items()) == [
            (("0", "0"), 0.25), (("0", "1"), 0.0), (("1", "0"), 0.0), (("1", "1"), 0.75)
        ]

    def test_one_marginal_per_attribute_set(self, monkeypatch):
        # The star's psi divides by the {A} marginal twice; run computes it once.
        import gajdchase.symbolic as symbolic

        g = Gajd.from_edges([["A", "B"], ["A", "C"], ["A", "D"]])
        t = build_tr(g)
        assert [a.over for a in t.psi.denominator] == [AttributeSet(["A"])] * 2
        rel = positive_relation(DomainSpec.uniform(["A", "B", "C", "D"]), seed=3)
        calls = []
        marginalize = symbolic.marginalize

        def counting(joint, over):
            calls.append(over)
            return marginalize(joint, over)

        monkeypatch.setattr(symbolic, "marginalize", counting)
        run(t, rel)
        assert len(calls) == 4
        assert set(calls) == {AttributeSet(e) for e in (["A", "B"], ["A", "C"], ["A", "D"], ["A"])}

    def test_run_builds_no_psi(self, chain4):
        # A dependency's tableau is run from its edges and interaction sets;
        # the emission expression is left unbuilt until something reads it.
        target, _, _ = chain4
        t = build_tr(target)
        run(t, positive_relation(DomainSpec.uniform(["A1", "A2", "A3", "A4"]), seed=0))
        assert not isinstance(t._psi, RationalExpression)

    def test_emission_read_from_psi_matches_the_dependency(self, chain4):
        # A tableau given the rows and psi of build_tr(g) has its emission
        # sets read from psi; build_tr takes them from the dependency.  The
        # two sources give the same output, in the same order, bit for bit.
        rel = positive_relation(DomainSpec.uniform(["A", "B", "C", "D"]), seed=31)
        cases = [(g, rel) for g in covering_hypertrees(["A", "B", "C", "D"], 3)]
        cases.append((chain4[0], positive_relation(DomainSpec.uniform(["A1", "A2", "A3", "A4"]), seed=31)))
        for g, rel in cases:
            t = build_tr(g)
            hand = Tableau(g.scheme, t.psi)
            for row in t.rows:
                hand.add_row(row)
            assert hand.emission is None and hand.patterns == t.patterns
            assert list(run(hand, rel).items()) == list(run(build_tr(g), rel).items()), g.render()

    def test_run_decodes_no_variable(self, chain4):
        target, _, _ = chain4
        t = build_tr(target)
        run(t, positive_relation(DomainSpec.uniform(["A1", "A2", "A3", "A4"]), seed=0))
        assert t.variables == []
        assert t._rows == []

    def test_missing_distinguished_variable_rejected(self):
        scheme = AttributeSet(["A", "B"])
        a1 = distinguished_for(scheme, "A")
        b1 = Variable(False, 1, "B")
        t = Tableau(scheme, RationalExpression.of())
        t.add_row(Row((a1, b1), RationalExpression.of()))
        rel = positive_relation(DomainSpec.uniform(["A", "B"]), seed=1)
        with pytest.raises(ValueError):
            run(t, rel)
