"""Exhaustive differential census over four attributes: the chase against an independent decider.

`perfbench/decider.py` decides implication from the constraints' join-tree
multivalued dependencies by Beeri's dependency basis, with no tableau and
no chase.  Every covering hypertree over A, B, C, D with at most three edges
is tried as the one constraint of one target per orbit of the 24 attribute
permutations, and the two verdicts must agree on every query.  A renaming
changes neither verdict (`tests/test_metamorphic.py` checks that of the
chase), so the orbit representatives cover every target up to symmetry.
"""

import importlib.util
import itertools
from pathlib import Path

from gajdchase.chase import implies
from conftest import covering_hypertrees

DECIDER_PY = Path(__file__).resolve().parents[1] / "perfbench" / "decider.py"
ATTRS = ["A", "B", "C", "D"]


def load_decider():
    spec = importlib.util.spec_from_file_location("perfbench_decider", DECIDER_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def edge_set(g, names):
    """The edges of `g` with each attribute renamed by `names`, as a sorted tuple of sorted tuples."""
    return tuple(sorted(tuple(sorted(names[a] for a in edge)) for edge in g.hypergraph.edges))


def orbit_representatives(hypertrees):
    """The first hypertree met in each orbit of the attribute permutations, in the order given."""
    seen, reps = set(), []
    for g in hypertrees:
        if edge_set(g, dict(zip(ATTRS, ATTRS))) not in seen:
            reps.append(g)
            seen.update(edge_set(g, dict(zip(ATTRS, perm))) for perm in itertools.permutations(ATTRS))
    return reps


def test_every_single_constraint_query_agrees_with_the_decider():
    decider = load_decider()
    hypertrees = covering_hypertrees(ATTRS, 3)
    targets = orbit_representatives(hypertrees)
    assert (len(hypertrees), len(targets)) == (339, 34)
    trees = [decider.tree_of(g) for g in hypertrees]
    yes, disagreements = 0, []
    for target in targets:
        target_tree = decider.tree_of(target)
        for constraint, tree in zip(hypertrees, trees):
            holds = implies([constraint], target).holds
            yes += holds
            if holds != decider.implied([tree], target_tree):
                disagreements.append((constraint.render(), target.render(), holds))
    assert disagreements == []
    assert yes == 5448
