import hashlib
import math
import random

import numpy as np
import pytest

from gajdchase import oracle, prelation
from gajdchase.cli import parse
from gajdchase.errors import DomainTooLargeError, SchemeError
from gajdchase.hypergraph import AttributeSet
from gajdchase.oracle import (
    CounterexampleReport,
    NotFound,
    OracleConfig,
    check_decomposition,
    check_soundness,
    fold_axes,
    mpj_map,
    project_onto,
    random_positive,
    satisfies,
    search_counterexample,
)
from gajdchase.prelation import DomainSpec, Gajd, relation_from_domains
from conftest import benchmark_workload, brute_marginal, random_hypertree

DOM3 = DomainSpec.uniform(["A", "B", "C"])
DOM4 = DomainSpec.uniform(["A1", "A2", "A3", "A4"])


class TestRandomPositive:
    def test_normalized_and_positive(self):
        p = random_positive(DOM3, seed=4)
        assert abs(math.fsum(p.ravel()) - 1.0) <= 1e-12
        assert p.shape == (2, 2, 2)
        assert p.min() > 0

    def test_positivity_floor(self):
        for seed in range(10):
            p = random_positive(DOM4, seed)
            assert p.min() >= 1e-4 / p.size

    def test_deterministic_per_seed(self):
        a = random_positive(DOM3, seed=99)
        b = random_positive(DOM3, seed=99)
        assert np.array_equal(a, b)
        c = random_positive(DOM3, seed=100)
        assert abs(c - a).max() > 0.0

    def test_axes_follow_domain_tuples(self):
        # One axis per attribute in canonical order, labels in declared
        # order: C order enumerates the cells as DomainSpec.tuples() does,
        # and the draws are the flat sequence the dict oracle used, bit for bit.
        dom = DomainSpec.with_sizes(["A", "B", "C"], {"B": 3})
        p = random_positive(dom, seed=3)
        assert p.shape == (2, 3, 2)
        flat = [
            "0x1.2f4f62b59f6d4p-6", "0x1.a3306339bbf02p-5", "0x1.628d690f2c04fp-3",
            "0x1.019a5bde9e222p-3", "0x1.4d53345c1a191p-6", "0x1.7f520d9d44f15p-4",
            "0x1.a7f5d5e172b4bp-4", "0x1.1ac8872f953a4p-5", "0x1.450a8c803132ap-3",
            "0x1.9280c3cd33ee5p-6", "0x1.5a3e3d30a139fp-4", "0x1.c94ff0884c7a7p-4",
        ]
        assert [w.hex() for w in p.ravel().tolist()] == flat
        rel = relation_from_domains(dom, p.ravel().tolist())
        for key, w in rel.items():
            assert p[tuple(int(v) for v in key)] == w

    def test_rejects_oversized_domain(self):
        big = DomainSpec.uniform([f"X{i}" for i in range(13)])
        with pytest.raises(DomainTooLargeError):
            random_positive(big, seed=0)


class TestProjectOnto:
    def test_single_full_edge_is_identity(self):
        p = random_positive(DOM3, seed=1)
        g = Gajd.from_edges([["A", "B", "C"]])
        projected, residuals = project_onto(p, [fold_axes(DOM3.scheme, g)], sweeps=3)
        assert np.array_equal(projected, p)
        assert residuals == (0.0,)

    def test_one_sweep_suffices_for_one_constraint(self):
        p = random_positive(DOM3, seed=2)
        g = Gajd.from_edges([["A", "B"], ["B", "C"]])
        _, residuals = project_onto(p, [fold_axes(DOM3.scheme, g)], sweeps=1)
        assert residuals[0] <= 1e-12

    def test_two_constraints_converge_on_most_seeds(self, chain4):
        _, left, right = chain4
        folds = [fold_axes(DOM4.scheme, g) for g in (left, right)]
        converged = 0
        for seed in range(100):
            p = random_positive(DOM4, seed)
            _, residuals = project_onto(p, folds, sweeps=200, stop_tol=1e-10)
            if max(residuals) <= 1e-10:
                converged += 1
        assert converged >= 95

    def test_preserves_positivity_and_mass(self, chain4):
        _, left, right = chain4
        p = random_positive(DOM4, seed=3)
        projected, _ = project_onto(p, [fold_axes(DOM4.scheme, g) for g in (left, right)], sweeps=50)
        assert projected.min() > 0
        assert math.fsum(projected.ravel()) == pytest.approx(1.0, abs=1e-12)

    def test_scheme_mismatch(self, chain4):
        target, _, _ = chain4
        with pytest.raises(SchemeError):
            fold_axes(DOM3.scheme, target)

    @staticmethod
    def fold_by_name(scheme, g):
        """The folds from attribute names: by the twig equation an edge meets the earlier ones in its interaction."""
        axis = {a: i for i, a in enumerate(scheme)}
        fold = []
        for edge, shared in zip(g.edges_in_order, (AttributeSet(),) + g.interactions.members):
            inside = {axis[a] for a in edge}
            outside = tuple(i for i in range(len(axis)) if i not in inside)
            fold.append((outside, tuple(axis[a] for a in edge if a not in shared)))
        return tuple(fold)

    def test_folds_equal_the_name_based_ones(self):
        rng = random.Random(32)
        dependencies = []
        for _ in range(300):
            attrs = [f"A{i}" for i in range(1, rng.randint(3, 10) + 1)]  # A10 sorts before A2
            dependencies.append(random_hypertree(attrs, 5, rng))
        for workload in ("census", "chains", "verify"):
            for text in benchmark_workload(workload, 1).problems:
                problem = parse(text)
                dependencies += [*problem.constraints.values(), *(q.target for q in problem.queries)]
        held_twice = 0
        for g in dependencies:
            fold = fold_axes(g.scheme, g)
            assert fold == self.fold_by_name(g.scheme, g)
            held_twice += sum(len(cols) > len(new) for cols, (_, new) in zip(g.edge_columns, fold))
        assert held_twice > 300

    def test_equals_the_loop_that_recomputed_every_map(self, monkeypatch, chain4):
        def reference(p, folds, sweeps, stop_tol):
            # Reference: every map computed afresh, as `satisfies` does; also returns every pass's residuals.
            current = p
            passes = [tuple(oracle.satisfies(current, f) for f in folds)]
            for _ in range(sweeps):
                if stop_tol is not None and all(r <= stop_tol for r in passes[-1]):
                    break
                for f in folds:
                    current = oracle.mpj_map(current, f)
                    assert current.min() > 0.0
                passes.append(tuple(oracle.satisfies(current, f) for f in folds))
            return current, passes

        def lazy_maps(passes, sweeps, stop_tol):
            # Per residual pass, the maps up to and including the first residual the stop test
            # fails, or all k when none fails or no sweep is left; a sweep reuses the first map.
            k = len(passes[0])
            total = (len(passes) - 1) * (k - 1)
            for j, residuals in enumerate(passes):
                failing = [i for i, r in enumerate(residuals) if stop_tol is None or not r <= stop_tol]
                total += k if j == sweeps or not failing else failing[0] + 1
            return total

        calls = [0]
        original = oracle.mpj_map

        def counted(p, fold):
            calls[0] += 1
            return original(p, fold)

        monkeypatch.setattr(oracle, "mpj_map", counted)
        seen = {"exhausted": 0, "later fails": 0}

        def check(p, folds, sweeps, stop_tol):
            calls[0] = 0
            expected, passes = reference(p, folds, sweeps, stop_tol)
            k, done = len(folds), len(passes) - 1
            assert calls[0] == 2 * k * (done + 1) - k
            calls[0] = 0
            got, residuals = project_onto(p, folds, sweeps, stop_tol=stop_tol)
            assert calls[0] == lazy_maps(passes, sweeps, stop_tol)
            assert np.array_equal(got, expected)
            assert residuals == passes[-1]
            if stop_tol is not None:
                seen["exhausted"] += done == sweeps and max(residuals) > stop_tol
                # Each pass before the last fails somewhere; count those where the first residual passed.
                seen["later fails"] += sum(r[0] <= stop_tol for r in passes[:-1])
            return done

        rng = random.Random(17)
        most_sweeps = 0
        for case in range(60):
            attrs = [f"A{i + 1}" for i in range(rng.randint(3, 5))]
            dom = DomainSpec.with_sizes(attrs, {a: rng.randint(2, 3) for a in attrs[:2]})
            folds = [fold_axes(dom.scheme, random_hypertree(attrs, 3, rng)) for _ in range(rng.randint(1, 3))]
            p = random_positive(dom, seed=case)
            sweeps, stop_tol = [
                (rng.randint(0, 4), None),
                (oracle.IPF_SWEEPS, oracle.SAT_TOL),
                (rng.randint(1, 3), oracle.SAT_TOL),
            ][case % 3]
            most_sweeps = max(most_sweeps, check(p, folds, sweeps, stop_tol))
        # A joint already fixed by the first constraint's map, and not by the second's.
        _, left, right = chain4
        folds = [fold_axes(DOM4.scheme, g) for g in (left, right)]
        p = original(random_positive(DOM4, seed=3), folds[0])
        for sweeps in (0, 1, 2, oracle.IPF_SWEEPS):
            check(p, folds, sweeps, oracle.SAT_TOL)
        # A pair the fit needs more than three sweeps for, cut off after one to three.
        dom = DomainSpec.with_sizes(["A1", "A2", "A3"], {"A2": 3})
        cyclic = [Gajd.from_edges([["A1", "A2"], ["A2", "A3"]]), Gajd.from_edges([["A1", "A3"], ["A2", "A3"]])]
        folds = [fold_axes(dom.scheme, g) for g in cyclic]
        for sweeps in (1, 2, 3):
            assert check(random_positive(dom, seed=sweeps), folds, sweeps, oracle.SAT_TOL) == sweeps
        assert most_sweeps >= 3
        assert seen["exhausted"] >= 4 and seen["later fails"] >= 3


class TestCheckSoundness:
    def test_constraint_equals_target(self, chain4):
        target, _, _ = chain4
        cfg = OracleConfig(domains=DOM4, seed=5, trials=10)
        report = check_soundness([target], target, cfg)
        assert report.status == "pass"
        assert report.failed == 0
        assert report.converged == 10

    def test_single_edge_target_vacuous(self):
        dom = DomainSpec.uniform(["A", "B"])
        constraint = Gajd.from_edges([["A"], ["B"]])
        target = Gajd.from_edges([["A", "B"]])
        cfg = OracleConfig(domains=dom, seed=6, trials=10)
        report = check_soundness([constraint], target, cfg)
        assert report.status == "pass"
        assert report.worst_target_residual <= 1e-12

    def test_unreachable_tolerance_is_inconclusive(self, chain4, monkeypatch):
        target, left, right = chain4
        monkeypatch.setattr(oracle, "SAT_TOL", 1e-30)
        cfg = OracleConfig(domains=DOM4, seed=7, trials=4)
        report = check_soundness([left, right], target, cfg)
        assert report.status == "inconclusive"
        assert report.converged == 0

    def test_deterministic_reports(self, chain4):
        target, left, right = chain4
        cfg = OracleConfig(domains=DOM4, seed=8, trials=6)
        assert check_soundness([left, right], target, cfg) == check_soundness([left, right], target, cfg)


class TestSearchCounterexample:
    def test_target_in_constraints_finds_nothing(self, chain4):
        target, _, _ = chain4
        cfg = OracleConfig(domains=DOM4, seed=9, trials=8)
        found = search_counterexample([target], target, cfg)
        assert isinstance(found, NotFound)
        assert "inconclusive" in found.render()

    def test_empty_constraints_violate_quickly(self):
        target = Gajd.from_edges([["A", "B"], ["B", "C"]])
        cfg = OracleConfig(domains=DOM3, seed=10, trials=10)
        found = search_counterexample([], target, cfg)
        assert isinstance(found, CounterexampleReport)
        assert found.trials_used <= 10
        assert found.target_residual > oracle.CHECK_TOL

    def test_golden_negative_case(self, chain4):
        target, left, _ = chain4
        cfg = OracleConfig(domains=DOM4, seed=11, trials=20)
        found = search_counterexample([left], target, cfg)
        assert isinstance(found, CounterexampleReport)
        assert max(found.constraint_residuals) <= oracle.SAT_TOL
        assert found.target_residual > oracle.CHECK_TOL
        # the reported distribution really does both
        assert prelation.satisfies(found.distribution, left, tol=oracle.SAT_TOL).holds
        assert not prelation.satisfies(found.distribution, target, tol=oracle.CHECK_TOL).holds

    @pytest.mark.parametrize(
        "sizes",
        [
            {f"A{i}": 2 for i in range(1, 13)},  # 4096 cells
            {"A1": 12, "A2": 2, "A3": 3},  # label "10" sorts before "2"
        ],
    )
    def test_render_matches_the_distribution_text(self, sizes):
        dom = DomainSpec.with_sizes(list(sizes), sizes)
        attrs = list(dom.scheme)
        target = Gajd.from_edges([attrs[:2], attrs[1:]])
        found = search_counterexample([], target, OracleConfig(domains=dom, seed=4, trials=3))
        assert isinstance(found, CounterexampleReport)
        header = (
            f"counterexample: seed={found.seed} trials_used={found.trials_used} "
            f"constraint_residuals=[-] target_residual={found.target_residual:.3e}\n"
        )
        assert found.render() == header + found.distribution.to_text().rstrip("\n")
        if max(sizes.values()) > 10:
            assert list(dom.tuples()) != sorted(dom.tuples())

    def test_render_of_eleven_labels_puts_10_before_2(self):
        # Eleven labels are out of sorted order, so the table is gathered; its text is pinned.
        dom = DomainSpec.with_sizes(["A", "B"], {"A": 11})
        report = CounterexampleReport(np.arange(1.0, 23.0).reshape(11, 2) / 253.0, dom, (), 0.5, 3, 1)
        text = report.render()
        rows = text.split("\n")[2:]
        assert [row.split()[0] for row in rows[::2]] == sorted(str(i) for i in range(11))
        assert rows[4:7] == ["10 0 0.083003952569169967", "10 1 0.086956521739130432", "2 0 0.019762845849802372"]
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "05694791ac423d06d787a3a2dccba2420ea9d973985091ab1d574dd580a67014"
        )
        assert text.split("\n", 1)[1] == report.distribution.to_text().rstrip("\n")

    def test_render_keeps_percent_signs_in_labels(self):
        # Rows are filled in by one `%` call, so a label's own `%` must come through as written.
        dom = DomainSpec({"A": ("5%", "%s", "%%"), "B": ("%(x)s", "%.17g"), "C": ("0", "1")})
        target = Gajd.from_edges([["A", "B"], ["B", "C"]])
        found = search_counterexample([], target, OracleConfig(domains=dom, seed=2, trials=3))
        assert isinstance(found, CounterexampleReport)
        table = found.render().split("\n", 1)[1]
        assert table == found.distribution.to_text().rstrip("\n")
        assert "5% %(x)s 0 " in table


class TestCheckDecomposition:
    def test_two_edge_formula(self):
        g = Gajd.from_edges([["A", "B"], ["B", "C"]])
        cfg = OracleConfig(domains=DOM3, seed=12, trials=20)
        report = check_decomposition(g, cfg)
        assert report.passed
        assert report.worst_formula_residual <= 1e-10
        assert report.worst_fixpoint_residual <= 1e-12

    def test_two_edge_against_independent_formula(self):
        g = Gajd.from_edges([["A", "B"], ["B", "C"]])
        p = mpj_map(random_positive(DOM3, seed=13), fold_axes(DOM3.scheme, g))
        rel = relation_from_domains(DOM3, p.ravel().tolist())
        ab = brute_marginal(rel, g.hypergraph.edges[0])
        bc = brute_marginal(rel, g.hypergraph.edges[1])
        b = brute_marginal(rel, g.hypergraph.edges[0] & g.hypergraph.edges[1])
        for (x, y, z), w in rel.items():
            assert w == pytest.approx(ab[(x, y)] * bc[(y, z)] / b[(y,)], rel=1e-10)

    def test_clique_census_case(self):
        dom = DomainSpec.uniform(["A1", "A2", "A3", "A4", "A5", "A6"])
        g = Gajd.from_edges(
            [["A1", "A2", "A3"], ["A1", "A2", "A4"], ["A2", "A3", "A5"], ["A5", "A6"]]
        )
        report = check_decomposition(g, OracleConfig(domains=dom, seed=14, trials=20))
        assert report.passed

    def test_single_edge_trivial(self):
        g = Gajd.from_edges([["A", "B", "C"]])
        report = check_decomposition(g, OracleConfig(domains=DOM3, seed=15, trials=5))
        assert report.passed
        assert report.worst_formula_residual <= 1e-15


class TestArrayKernel:
    """The array map and residual against the dict algebra of `prelation`."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_agrees_with_dict_algebra(self, n):
        rng = random.Random(400 + n)
        attrs = [f"A{i + 1}" for i in range(n)]
        doms = [DomainSpec.uniform(attrs), DomainSpec.with_sizes(attrs, {attrs[1]: 3})]
        for case in range(12):
            g = random_hypertree(attrs, 4, rng)
            for dom in doms:
                fold = fold_axes(dom.scheme, g)
                p = random_positive(dom, seed=100 * n + case)
                rel = relation_from_domains(dom, p.ravel().tolist())
                mapped = mpj_map(p, fold)
                assert mapped.shape == p.shape
                expected = prelation.mpj_map(rel, g)
                assert len(expected) == p.size
                for key, w in expected.items():
                    assert abs(mapped[tuple(int(v) for v in key)] - w) <= 1e-12
                # residual of a generic joint, then of a fixed point
                assert abs(satisfies(p, fold) - prelation.satisfies(rel, g).residual) <= 1e-12
                fixed = relation_from_domains(dom, mapped.ravel().tolist())
                assert abs(satisfies(mapped, fold) - prelation.satisfies(fixed, g).residual) <= 1e-12
                assert satisfies(mapped, fold) <= 1e-12

    def test_residual_is_a_float(self, chain4):
        target, _, _ = chain4
        assert type(satisfies(random_positive(DOM4, seed=0), fold_axes(DOM4.scheme, target))) is float


class TestSymbolicNumericAgreement:
    def test_random_pairs_never_disagree(self):
        # For arbitrary constraint sets and targets: a positive symbolic
        # verdict must survive the numeric soundness check, and no
        # counterexample may exist for it.
        import random

        from gajdchase.chase import implies
        from conftest import random_hypertree

        rng = random.Random(2718)
        attrs = ["A", "B", "C"]
        dom = DomainSpec.uniform(attrs)
        positives = 0
        for i in range(30):
            constraints = [random_hypertree(attrs, 3, rng) for _ in range(rng.randint(1, 2))]
            target = random_hypertree(attrs, 3, rng)
            verdict = implies(constraints, target)
            cfg = OracleConfig(domains=dom, seed=i, trials=6)
            if verdict.holds:
                positives += 1
                report = check_soundness(constraints, target, cfg)
                assert report.status != "fail", report.render()
                assert isinstance(search_counterexample(constraints, target, cfg), NotFound)
        assert positives >= 3  # the sample must actually exercise the positive path


class TestOracleConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="trials"):
            OracleConfig(domains=DOM3, seed=0, trials=0)
        with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
            OracleConfig(DOM3, -1, 2)
        assert OracleConfig(DOM3, 0, 1).trial_seeds()

    def test_trial_seeds_deterministic(self):
        a = OracleConfig(domains=DOM3, seed=1, trials=5)
        b = OracleConfig(domains=DOM3, seed=1, trials=5)
        assert a.trial_seeds() == b.trial_seeds()
        assert OracleConfig(domains=DOM3, seed=2, trials=5).trial_seeds() != a.trial_seeds()
