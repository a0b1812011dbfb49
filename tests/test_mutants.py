"""Self-test of the mutant catalog in `scripts/mutants.py`, so it does not rot silently.

The mutants themselves run on demand (`python3 scripts/mutants.py --all`);
here each snippet must still occur exactly once in `src/gajdchase`, and each
listed test must still exist.  The runner's timeout is checked with a
stand-in for `subprocess.run` that times out at once, so no test hangs.
"""

import ast
import importlib.util
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "mutants.py"


def load_mutants():
    spec = importlib.util.spec_from_file_location("mutants", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


MUTANTS = load_mutants()


@pytest.mark.parametrize("mutant", MUTANTS.MUTANTS, ids=lambda m: m.name)
def test_snippet_occurs_once(mutant):
    path = MUTANTS.locate(mutant)
    assert path.parent == ROOT / "src" / "gajdchase"
    assert mutant.replacement != mutant.snippet


def defined(body, name):
    """The class or function `name` defined at the top of `body`, or None."""
    return next((node for node in body if getattr(node, "name", None) == name), None)


def test_catalog_names_existing_tests():
    names = [m.name for m in MUTANTS.MUTANTS]
    assert len(set(names)) == len(names)
    for mutant in MUTANTS.MUTANTS:
        assert mutant.expected
        for test_id in mutant.expected:
            file, *parts = test_id.split("[")[0].split("::")
            node = ast.parse((ROOT / file).read_text())
            for part in parts:
                node = defined(node.body, part)
                assert node is not None, test_id


def test_a_run_that_times_out_counts_as_a_kill(monkeypatch, capsys):
    def hang(cmd, **kwargs):
        assert kwargs["timeout"] == MUTANTS.TIMEOUT_S
        raise subprocess.TimeoutExpired(cmd, kwargs["timeout"])

    monkeypatch.setattr(MUTANTS.subprocess, "run", hang)
    monkeypatch.setattr(MUTANTS, "mutated_copy", lambda mutant, dest: None)
    assert MUTANTS.main(["--all"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"{m.name}: killed (timed out)" for m in MUTANTS.MUTANTS]
    mutant = MUTANTS.MUTANTS[0]
    assert MUTANTS.main(["--mutant", mutant.name]) == 0
    assert capsys.readouterr().out == f"{mutant.name}: killed (timed out)\n"
