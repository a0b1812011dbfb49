import itertools
import random
from collections import Counter

import pytest

from gajdchase.errors import InvalidCertificateError
from gajdchase.hypergraph import (
    AttributeSet,
    Hypergraph,
    HypertreeCertificate,
    InteractionSet,
    NotHypertree,
    find_certificate,
    interaction_set,
    is_twig,
    validate_certificate,
)
from gajdchase.prelation import Gajd
from conftest import (
    covering_hypertrees,
    hypertree_census,
    random_certificate,
    random_hypertree,
    reverse_greedy_certificate,
)

CLIQUES = [["A1", "A2", "A3"], ["A1", "A2", "A4"], ["A2", "A3", "A5"], ["A5", "A6"]]


class TestAttributeSet:
    def test_canonical_order_and_set_semantics(self):
        s = AttributeSet(["B", "A", "B"])
        assert list(s) == ["A", "B"]
        assert len(s) == 2

    def test_operators(self):
        a = AttributeSet(["A", "B"])
        b = AttributeSet(["B", "C"])
        assert list(a | b) == ["A", "B", "C"]
        assert list(a & b) == ["B"]
        assert list(a - b) == ["A"]
        assert (a & b) <= a
        assert not a <= b

    def test_derived_sets_match_constructed_ones(self):
        # `&`, `|`, `-` and `union` skip the constructor's name check; their results must not differ.
        rng = random.Random(3)
        names = ["b2", "A", "a", "B1", "c", "_x", "Z"]
        for _ in range(200):
            parts = [set(rng.sample(names, rng.randint(0, len(names)))) for _ in range(3)]
            a, b, c = (AttributeSet(p) for p in parts)
            for got, want in [
                (a | b, parts[0] | parts[1]),
                (a & b, parts[0] & parts[1]),
                (a - b, parts[0] - parts[1]),
                (AttributeSet.union([a, b, c]), set().union(*parts)),
            ]:
                assert got.members == AttributeSet(want).members and hash(got) == hash(AttributeSet(want))

    def test_empty_allowed(self):
        assert len(AttributeSet()) == 0

    def test_rejects_non_identifier(self):
        with pytest.raises(ValueError):
            AttributeSet(["not ok"])
        with pytest.raises(ValueError):
            AttributeSet([""])


class TestHypergraph:
    def test_nodes_are_edge_union(self):
        h = Hypergraph(CLIQUES)
        assert list(h.nodes) == ["A1", "A2", "A3", "A4", "A5", "A6"]

    def test_duplicate_edges_rejected(self):
        with pytest.raises(ValueError):
            Hypergraph([["A", "B"], ["B", "A"]])

    def test_empty_edge_rejected(self):
        with pytest.raises(ValueError):
            Hypergraph([["A"], []])

    def test_no_edges_rejected(self):
        with pytest.raises(ValueError):
            Hypergraph([])

    def test_contained_edge_allowed(self):
        h = Hypergraph([["A", "B"], ["B"]])
        assert isinstance(find_certificate(h), HypertreeCertificate)


class TestIsTwig:
    def test_leaf_of_clique_set(self):
        h = Hypergraph(CLIQUES)
        result = is_twig(h, 3, [0, 1, 2, 3])
        assert result.is_twig
        assert result.branch == 2  # the A2A3A5 edge

    def test_sole_edge_is_trivially_twig(self):
        h = Hypergraph([["A", "B"]])
        assert is_twig(h, 0, [0]) == (True, None)

    def test_triangle_edge_is_not_twig(self):
        # (BC u CA) n AB = AB itself, but BC n AB = B and CA n AB = A.
        h = Hypergraph([["A", "B"], ["B", "C"], ["C", "A"]])
        assert is_twig(h, 0, [0, 1, 2]) == (False, None)

    def test_candidate_must_be_in_set(self):
        h = Hypergraph([["A", "B"], ["B", "C"]])
        with pytest.raises(ValueError):
            is_twig(h, 1, [0])


class TestFindCertificate:
    def test_input_order_kept_when_already_valid(self):
        h = Hypergraph(CLIQUES)
        cert = find_certificate(h)
        assert isinstance(cert, HypertreeCertificate)
        assert cert.ordering == (0, 1, 2, 3)
        validate_certificate(h, cert)

    def test_alternative_ordering_also_validates(self):
        # The ordering A2A3A5, A1A2A3, A1A2A4, A5A6 with branches at
        # positions 0, 1, 0 is another valid certificate of the same tree.
        h = Hypergraph(CLIQUES)
        cert = HypertreeCertificate((2, 0, 1, 3), (None, 0, 1, 0))
        validate_certificate(h, cert)
        assert interaction_set(cert, h) == interaction_set(find_certificate(h), h)

    def test_triangle_returns_witness(self):
        h = Hypergraph([["A", "B"], ["B", "C"], ["C", "A"]])
        result = find_certificate(h)
        assert isinstance(result, NotHypertree)
        assert result.witness == (0, 1, 2)

    def test_single_edge_trivial_certificate(self):
        h = Hypergraph([["A", "B"]])
        cert = find_certificate(h)
        assert cert == HypertreeCertificate((0,), (None,))

    def test_greedy_fallback_when_input_order_invalid(self):
        # {C}, {AB}, {BC} is a hypertree but not in construction order as given.
        h = Hypergraph([["C"], ["A", "B"], ["B", "C"]])
        cert = find_certificate(h)
        assert isinstance(cert, HypertreeCertificate)
        assert cert.ordering != (0, 1, 2)
        validate_certificate(h, cert)

    def test_deterministic(self):
        h = Hypergraph([["C"], ["A", "B"], ["B", "C"]])
        assert find_certificate(h) == find_certificate(h)

    def test_certificates_replay_with_is_twig(self):
        for g in covering_hypertrees(["A", "B", "C", "D"], 3):
            h = g.hypergraph
            cert = g.certificate
            for i in range(1, len(cert.ordering)):
                prefix = list(cert.ordering[: i + 1])
                ok, _ = is_twig(h, cert.ordering[i], prefix)
                assert ok

    def test_recognition_matches_exhaustive_ordering_search(self):
        def exhaustive_recognizes(h: Hypergraph) -> bool:
            return any(
                all(
                    is_twig(h, perm[i], list(perm[: i + 1])).is_twig
                    for i in range(1, len(h.edges))
                )
                for perm in itertools.permutations(range(len(h.edges)))
            )

        universe = ["A", "B", "C"]
        subsets = []
        for r in range(1, 4):
            subsets.extend(tuple(c) for c in itertools.combinations(universe, r))
        checked = 0
        for k in range(1, 4):
            for combo in itertools.combinations(subsets, k):
                h = Hypergraph(combo)
                found = find_certificate(h)
                assert isinstance(found, HypertreeCertificate) == exhaustive_recognizes(h)
                checked += 1
        assert checked > 50

        rng = random.Random(41)
        universe4 = ["A", "B", "C", "D"]
        subsets4 = []
        for r in range(1, 5):
            subsets4.extend(tuple(c) for c in itertools.combinations(universe4, r))
        for _ in range(150):
            combo = rng.sample(subsets4, rng.randint(2, 5))
            h = Hypergraph(combo)
            found = find_certificate(h)
            assert isinstance(found, HypertreeCertificate) == exhaustive_recognizes(h)


class TestCertificateValidation:
    def test_bad_permutation_rejected(self):
        h = Hypergraph([["A", "B"], ["B", "C"]])
        with pytest.raises(InvalidCertificateError):
            validate_certificate(h, HypertreeCertificate((0, 0), (None, 0)))

    def test_wrong_branch_rejected(self):
        h = Hypergraph(CLIQUES)
        # position 3 (A5A6) branched on A1A2A3 shares nothing with it
        with pytest.raises(InvalidCertificateError):
            validate_certificate(h, HypertreeCertificate((0, 1, 2, 3), (None, 0, 0, 0)))

    def test_branch_position_bounds(self):
        with pytest.raises(InvalidCertificateError):
            HypertreeCertificate((0, 1), (None, 1))
        with pytest.raises(InvalidCertificateError):
            HypertreeCertificate((0, 1), (0, 0))


class TestInteractionSet:
    def test_clique_set_values(self):
        h = Hypergraph(CLIQUES)
        got = interaction_set(find_certificate(h), h)
        expected = InteractionSet(
            [AttributeSet(["A1", "A2"]), AttributeSet(["A2", "A3"]), AttributeSet(["A5"])]
        )
        assert got == expected

    def test_chain_values(self):
        h = Hypergraph([["A1", "A2"], ["A2", "A3"], ["A3", "A4"]])
        got = interaction_set(find_certificate(h), h)
        assert got == InteractionSet([AttributeSet(["A2"]), AttributeSet(["A3"])])

    def test_single_edge_empty(self):
        h = Hypergraph([["A", "B"]])
        assert len(interaction_set(find_certificate(h), h)) == 0

    def test_disjoint_edges_have_empty_member(self):
        h = Hypergraph([["A", "B"], ["C", "D"]])
        got = interaction_set(find_certificate(h), h)
        assert Counter(got.members) == Counter([AttributeSet()])

    def test_repeated_member_kept_as_multiset(self):
        h = Hypergraph([["A", "B"], ["B", "C"], ["B", "D"]])
        got = interaction_set(find_certificate(h), h)
        assert Counter(got.members) == Counter({AttributeSet(["B"]): 2})

    def test_ordering_independence_small_census(self):
        rng = random.Random(11)
        for g in covering_hypertrees(["A", "B", "C", "D"], 4):
            base = interaction_set(g.certificate, g.hypergraph)
            other = reverse_greedy_certificate(g)
            assert interaction_set(other, g.hypergraph) == base
            for _ in range(2):
                rand_cert = random_certificate(g, rng)
                assert interaction_set(rand_cert, g.hypergraph) == base

    def test_ordering_independence_random_larger(self):
        rng = random.Random(23)
        attrs = ["A", "B", "C", "D", "E", "F"]
        for _ in range(25):
            g = random_hypertree(attrs, 5, rng)
            base = interaction_set(g.certificate, g.hypergraph)
            assert interaction_set(random_certificate(g, rng), g.hypergraph) == base

    def test_certificate_rule_against_brute_force(self):
        # With plain Python sets: each twig's overlap with its prefix, the
        # smallest earlier position meeting it in exactly that overlap, and
        # every other earlier position as a wrong branch.
        wrong_branches = 0
        for g in hypertree_census(random.Random(13)):
            h = g.hypergraph
            cert = find_certificate(h)
            edges = [set(h.edges[e]) for e in cert.ordering]
            overlaps = []
            for i in range(1, len(edges)):
                overlap = set().union(*edges[:i]) & edges[i]
                fits = [j for j in range(i) if edges[j] & edges[i] == overlap]
                assert cert.branching[i] == fits[0]
                overlaps.append(AttributeSet(overlap))
                for j in set(range(i)) - set(fits):
                    branching = cert.branching[:i] + (j,) + cert.branching[i + 1:]
                    with pytest.raises(InvalidCertificateError):
                        interaction_set(HypertreeCertificate(cert.ordering, branching), h)
                    wrong_branches += 1
            assert interaction_set(cert, h).members == tuple(overlaps)
        assert wrong_branches > 1000


class TestGajd:
    def test_rejects_triangle_with_witness(self):
        from gajdchase.errors import NotHypertreeError

        with pytest.raises(NotHypertreeError) as excinfo:
            Gajd.from_edges([["A", "B"], ["B", "C"], ["C", "A"]])
        assert excinfo.value.witness == (0, 1, 2)

    def test_scheme_and_render(self, chain4):
        target, _, _ = chain4
        assert list(target.scheme) == ["A1", "A2", "A3", "A4"]
        assert target.render() == "(x){A1 A2}{A2 A3}{A3 A4}"

    def test_explicit_certificate_validated(self):
        with pytest.raises(InvalidCertificateError):
            Gajd.from_edges(
                [["A", "B"], ["C", "D"], ["B", "C"]],
                certificate=HypertreeCertificate((0, 1, 2), (None, 0, 0)),
            )

    def test_certificate_data_computed_once(self):
        # The edges in certificate order and the interaction set are fields
        # fixed at construction, equal to what the certificate gives.
        census = hypertree_census(random.Random(13))
        assert len(census) > 2000
        for g in census:
            assert g.interactions is g.interactions
            assert g.interactions == interaction_set(g.certificate, g.hypergraph)
            assert g.edges_in_order == tuple(g.hypergraph.edges[i] for i in g.certificate.ordering)
            again = Gajd(g.hypergraph, g.certificate)
            assert again == g and hash(again) == hash(g) and repr(again) == repr(g)
            assert "interactions" not in repr(g)
            n = len(g.hypergraph.edges)
            if n > 1:
                bad = HypertreeCertificate((g.certificate.ordering[0],) * n, (None,) + (0,) * (n - 1))
                with pytest.raises(InvalidCertificateError):
                    Gajd(g.hypergraph, bad)
