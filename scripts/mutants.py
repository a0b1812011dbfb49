"""A catalog of mutants of `src/gajdchase`, and a runner that checks the tests kill them.

Usage, from the repository root:

    python3 scripts/mutants.py --mutant NAME
    python3 scripts/mutants.py --all

Each mutant replaces one source snippet, which occurs exactly once in
`src/gajdchase`, and lists the test ids expected to fail under it.  The
runner copies the tree to a temporary directory, applies the mutant there
and runs pytest on the copy, so the checkout is never edited.  `--mutant`
runs the mutant's listed tests and fails unless each of them fails.
`--all` runs the whole test suite under every mutant, but for the
catalog's own self-test, reports the tests each one failed, and fails if a
mutant survives (no test fails) or a listed test passes.  Each pytest run
is stopped after `TIMEOUT_S` seconds; a mutant whose run is stopped, such
as one under which a test loops forever, counts as killed, and `--all`
reports it as `killed (timed out)`.  SIGTERM ends the runner as an exit
would: the running pytest child is killed and the temporary copy removed.
Tier-1 checks only the catalog (`tests/test_mutants.py`) and that cleanup;
the runs are made on demand.
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "gajdchase"
SELF_TEST = "tests/test_mutants.py"
TIMEOUT_S = 600  # one pytest run; the whole suite takes about 20 s


class Mutant(NamedTuple):
    name: str
    snippet: str
    replacement: str
    expected: tuple[str, ...]  # test ids that fail under the mutant


MUTANTS = (
    Mutant(
        "getter-one-component-tuple",
        "    if len(cols) > 1 or (cols and scalar):\n",
        "    if len(cols) > 1:\n",
        ("tests/test_tableau.py::TestJoin::test_two_edge_rule_keeps_one_index_per_position_on_the_separator",),
    ),
    Mutant(
        "last-bucket-backwards",
        "        for proj in bucket:\n            emit(read(chosen + proj))\n",
        "        for proj in reversed(bucket):\n            emit(read(chosen + proj))\n",
        (
            "tests/test_tableau.py::TestJoin::test_matches_nested_loop_on_random_plans",
            "tests/test_tableau_run_golden.py::test_tableau_run_golden",
            "tests/test_dump_outputs.py::test_tiny_slice",
        ),
    ),
    Mutant(
        "inline-last-level-skips-its-first",
        "                for last_proj in tail:\n",
        "                for last_proj in tail[1:]:\n",
        (
            "tests/test_tableau.py::TestJoin::test_matches_nested_loop_on_random_plans",
            "tests/test_tableau.py::TestJoin::test_long_plans_match_nested_loop_from_every_start",
            "tests/test_census_golden.py::test_census_traces_golden",
            "tests/test_tableau_run_golden.py::test_tableau_run_golden",
        ),
    ),
    Mutant(
        "copy-shares-row-of",
        "t.row_of, t.variables, t._rows = self.row_of.copy(),",
        "t.row_of, t.variables, t._rows = self.row_of,",
        (
            "tests/test_tableau.py::TestTableauInvariants::test_copy_is_independent",
            "tests/test_tableau.py::TestTableau::test_index_catches_up_with_appended_rows",
            "tests/test_chase.py::TestChase::test_continue_matches_fresh_chase",
        ),
    ),
    Mutant(
        "copy-shares-code-of",
        "self.code_of.copy()",
        "self.code_of",
        ("tests/test_tableau.py::TestTableauInvariants::test_copy_is_independent",),
    ),
    Mutant(
        "run-skips-the-first-support-tuple",
        "    for tup in support:\n        join(plan, emit, 0, tup)\n",
        "    for tup in support[1:]:\n        join(plan, emit, 0, tup)\n",
        ("tests/test_tableau_run_golden.py::test_tableau_run_golden",),
    ),
    Mutant(
        "no-gain-strict",
        "if stop_when_no_gain and dist <= self.max_dist:",
        "if stop_when_no_gain and dist < self.max_dist:",
        (
            "tests/test_census_golden.py::test_census_traces_golden",
            "tests/test_chains_golden.py::test_chains_golden",
            "tests/test_chase.py::TestImplies::test_closure_decides_when_prefix_stalls",
        ),
    ),
    Mutant(
        "produced-row-skipped-by-every-rule",
        "            if cr is producer:\n",
        "            if producer is not None:\n",
        (
            "tests/test_census_golden.py::test_census_chase_counts",
            "tests/test_chase.py::TestFactorizationExact::test_census_positives",
            "tests/test_metamorphic.py::test_implication_is_transitive",
            "tests/test_census_golden.py::test_each_rule_emits_each_fixpoint_row_once",
        ),
    ),
    Mutant(
        "own-entry-skipped-uncounted",
        "                        if other is own0:\n                            duplicates[0] += 1\n",
        "                        if other is own0:\n                            pass\n",
        (
            "tests/test_census_golden.py::test_census_chase_counts",
            "tests/test_census_golden.py::test_each_rule_emits_each_fixpoint_row_once",
            "tests/test_chase.py::TestChase::test_duplicates_counted",
            "tests/test_chase.py::TestJoinOrderPinned::test_seeded_chases[chain4-pinned1]",
            "tests/test_chase.py::TestJoinOrderPinned::test_chain_family_with_one_split_dropped",
        ),
    ),
    Mutant(
        "own-entry-skipped-while-other-edge-new",
        "                        if bucket:\n                            for other in bucket:\n",
        "                        if bucket:\n                            duplicates[0] += 1\n                            for other in bucket[1:]:\n",
        (
            "tests/test_census_golden.py::test_census_traces_golden",
            "tests/test_census_golden.py::test_each_rule_emits_each_fixpoint_row_once",
            "tests/test_chains_golden.py::test_chains_golden",
            "tests/test_chase.py::TestJoinOrderPinned::test_chain_family_with_one_split_dropped",
            "tests/test_differential.py::test_every_single_constraint_query_agrees_with_the_decider",
        ),
    ),
    Mutant(
        "two-edge-row-ids-swapped",
        "        layout = (*own, n + pos, *other, n + 1 - pos)\n",
        "        layout = (*own, n + 1 - pos, *other, n + pos)\n",
        (
            "tests/test_chase.py::TestPairReaders::test_readers_equal_the_plans",
            "tests/test_chase.py::TestJoinOrderPinned::test_seeded_chases[chain4-pinned1]",
            "tests/test_chains_golden.py::test_chains_golden",
            "tests/test_census_golden.py::test_census_traces_golden",
            "tests/test_dump_outputs.py::test_full_digest",
        ),
    ),
    Mutant(
        "fold-counts-a-held-column-as-new",
        "        held.update(cols)\n",
        "        pass\n",
        (
            "tests/test_oracle.py::TestProjectOnto::test_folds_equal_the_name_based_ones",
            "tests/test_acceptance.py::test_criterion_6_decomposition_census",
            "tests/test_cli.py::TestCmdVerify::test_golden_mixed_verdicts",
            "tests/test_dump_outputs.py::test_full_digest",
        ),
    ),
    Mutant(
        "probe-key-read-at-own-components",
        "steps.append((index, getter([layout.index(comp[c]) for c in key], True)))",
        "steps.append((index, getter(key, True)))",
        (
            "tests/test_tableau.py::TestJoin::test_matches_nested_loop_on_random_plans",
            "tests/test_tableau.py::TestJoin::test_incremental_inserts_emit_each_result_once",
            "tests/test_differential.py::test_every_single_constraint_query_agrees_with_the_decider",
        ),
    ),
    Mutant(
        "eq5-drops-an-interaction",
        "    den = [make(fields) for fields in interaction_atoms]\n",
        "    den = [make(fields) for fields in list(interaction_atoms)[1:]]\n",
        (
            "tests/test_census_golden.py::test_census_traces_golden",
            "tests/test_symbolic.py::TestEq5Expression::test_two_row_application",
            "tests/test_tableau.py::TestRun::test_emission_read_from_psi_matches_the_dependency",
        ),
    ),
    Mutant(
        "continued-run-on-a-copy",
        "initial = t.final = state.work.copy()",
        "initial, state.work = state.work, state.work.copy()",
        (
            "tests/test_census_golden.py::test_census_chase_counts",
            "tests/test_chase.py::TestImplies::test_continued_positive_counts_the_duplicates_of_a_fresh_chase",
        ),
    ),
    Mutant(
        "shared-prefix-off-by-one",
        "        shared.append(AttributeSet._of(needed))\n        prefix.update(cand._members)\n",
        "        shared.append(AttributeSet._of(needed))\n        prefix.update(edges[i - 1]._members)\n",
        (
            "tests/test_hypergraph.py::TestInteractionSet::test_chain_values",
            "tests/test_hypergraph.py::TestInteractionSet::test_certificate_rule_against_brute_force",
            "tests/test_certificate_golden.py::test_certificates_golden",
            "tests/test_differential.py::test_every_single_constraint_query_agrees_with_the_decider",
        ),
    ),
    Mutant(
        "run-accepts-any-psi-variable",
        "        if v not in own:\n",
        "        if False:\n",
        ("tests/test_tableau.py::TestRun::test_psi_reading_other_than_distinguished_variables_rejected",),
    ),
    Mutant(
        "compiled-evaluator-multiplies-by-denominator",
        "            v /= d\n",
        "            v *= d\n",
        (
            "tests/test_tableau_run_golden.py::test_tableau_run_golden",
            "tests/test_tableau.py::TestRun::test_matches_mpj_map_on_random_positive",
            "tests/test_tableau.py::TestRun::test_zero_denominator_at_a_cross_row_pair_emits_zero",
            "tests/test_acceptance.py::test_criterion_5_tableau_matches_fold",
            "tests/test_chase.py::TestNumericAgreement::test_factorization_matches_weights",
        ),
    ),
    Mutant(
        "marginal-recomputed-per-atom",
        "    marg = cache.get(over)\n",
        "    marg = None\n",
        ("tests/test_tableau.py::TestRun::test_one_marginal_per_attribute_set",),
    ),
    Mutant(
        "emission-keeps-shared-sets",
        "        numerator, denominator = canonical(*t.emission, _NAMES)\n",
        "        numerator, denominator = (tuple(sorted(sets, key=_NAMES)) for sets in t.emission)\n",
        (
            "tests/test_tableau_run_golden.py::test_tableau_run_golden",
            "tests/test_tableau.py::TestRun::test_emission_read_from_psi_matches_the_dependency",
        ),
    ),
    Mutant(
        "work-budget-left-to-the-pop",
        "            if len(pending) > rules * cap[0]:\n",
        "            if False:\n",
        (
            "tests/test_cli.py::TestMain::test_work_budget_stops_the_first_join",
            "tests/test_chase.py::TestChase::test_work_budget_binds_during_the_join",
        ),
    ),
    Mutant(
        "summed-variable-held-twice",
        "                if holder is not None or e != 1:\n",
        "                if e != 1:\n",
        ("tests/test_chase.py::TestCodedMarginalization::test_a_variable_that_resists[two-holders]",),
    ),
    Mutant(
        "union-operator-unsorted",
        "return AttributeSet._of(tuple(sorted({*self._members, *other._members})))",
        "return AttributeSet._of(self._members + tuple([n for n in other._members if n not in self._members]))",
        (
            "tests/test_hypergraph.py::TestAttributeSet::test_derived_sets_match_constructed_ones",
            "tests/test_prelation.py::TestMpjMap::test_certificate_choice_does_not_change_output",
            "tests/test_tableau.py::TestRun::test_matches_mpj_map_across_small_hypertrees",
        ),
    ),
)


def locate(mutant: Mutant, root: Path = ROOT) -> Path:
    """The one file of `src/gajdchase` under `root` that holds the mutant's snippet; raises unless it occurs once."""
    found = [(p, p.read_text().count(mutant.snippet)) for p in sorted((root / PACKAGE).glob("*.py"))]
    found = [(p, n) for p, n in found if n]
    if len(found) != 1 or found[0][1] != 1:
        raise ValueError(f"mutant {mutant.name}: its snippet occurs {sum(n for _, n in found)} times, not once")
    return found[0][0]


def mutated_copy(mutant: Mutant, dest: Path) -> None:
    """Copy the tree to `dest` and apply `mutant` there."""
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".*_cache", ".bench*", ".hypothesis")
    shutil.copytree(ROOT, dest, ignore=ignore)
    path = locate(mutant, dest)
    path.write_text(path.read_text().replace(mutant.snippet, mutant.replacement))


def failed_tests(tree: Path, args: list[str]) -> list[str] | None:
    """Run pytest in `tree` with `args` and return the ids of the tests that failed or errored.

    None means the run took longer than `TIMEOUT_S` and was stopped.
    """
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    try:
        out = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", "--continue-on-collection-errors",
             *args],
            cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
        ).stdout
    except subprocess.TimeoutExpired:
        return None
    return [line.split(" ", 1)[1].split(" - ", 1)[0] for line in out.splitlines()
            if line.startswith(("FAILED ", "ERROR "))]


def missed(mutant: Mutant, failed: list[str]) -> list[str]:
    """The mutant's listed tests that did not fail; a file that failed to collect fails all its tests."""
    return [t for t in mutant.expected if t not in failed and t.split("::")[0] not in failed]


def run_mutant(mutant: Mutant, args: list[str]) -> list[str] | None:
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp) / "tree"
        mutated_copy(mutant, tree)
        return failed_tests(tree, args)


def _exit_on_sigterm(signum: int, frame) -> None:
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    # As a SystemExit, SIGTERM makes `subprocess.run` kill its child and `TemporaryDirectory` clean up.
    previous = signal.signal(signal.SIGTERM, _exit_on_sigterm)
    try:
        return _main(argv)
    finally:
        signal.signal(signal.SIGTERM, previous)


def _main(argv: list[str] | None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--mutant", metavar="NAME", help="run one mutant's listed tests")
    group.add_argument("--all", action="store_true", help="run the whole suite under every mutant")
    args = parser.parse_args(argv)
    by_name = {m.name: m for m in MUTANTS}
    if args.mutant is not None:
        if args.mutant not in by_name:
            parser.error(f"unknown mutant {args.mutant!r}; the catalog holds {', '.join(by_name)}")
        mutant = by_name[args.mutant]
        failed = run_mutant(mutant, list(mutant.expected))
        if failed is None:
            print(f"{mutant.name}: killed (timed out)")
            return 0
        passed = missed(mutant, failed)
        print(f"{mutant.name}: {len(mutant.expected) - len(passed)} of {len(mutant.expected)} listed tests failed")
        for t in passed:
            print(f"  passed, expected to fail: {t}")
        return 1 if passed else 0
    gaps = 0
    for mutant in MUTANTS:
        # The catalog's self-test checks the unmutated source, so it is left out here.
        failed = run_mutant(mutant, ["--ignore", SELF_TEST])
        if failed is None:
            print(f"{mutant.name}: killed (timed out)", flush=True)
            continue
        passed = missed(mutant, failed)
        status = "SURVIVED" if not failed else "killed"
        print(f"{mutant.name}: {status}, {len(failed)} failed", flush=True)
        for t in failed:
            print(f"  failed: {t}")
        for t in passed:
            print(f"  passed, expected to fail: {t}")
        gaps += not failed or bool(passed)
    return 1 if gaps else 0


if __name__ == "__main__":
    sys.exit(main())
