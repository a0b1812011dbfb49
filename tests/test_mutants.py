"""Self-test of the mutant catalog in `scripts/mutants.py`, so it does not rot silently.

The mutants themselves run on demand (`python3 scripts/mutants.py --all`);
here each snippet must still occur exactly once in `src/gajdchase`, and each
listed test must still exist.  The runner's timeout is checked with a
stand-in for `subprocess.run` that times out at once, so no test hangs, and
its cleanup on SIGTERM with one real `--mutant` run, stopped early.
"""

import ast
import importlib.util
import os
import signal
import subprocess
import sys
import time
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


def pytest_runs_in_group(group):
    """Whether a pytest process runs in process group `group`, as the process table under /proc shows."""
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                if os.getpgid(int(entry.name)) == group and b"pytest" in (entry / "cmdline").read_bytes():
                    return True
            except OSError:  # the process ended meanwhile
                continue
    return False


def test_sigterm_kills_the_pytest_child_and_removes_the_copy(tmp_path):
    mutant = MUTANTS.MUTANTS[0]
    env = dict(os.environ, TMPDIR=str(tmp_path))
    # Its own session, so that the runner and every process it starts share one process group.
    runner = subprocess.Popen(
        [sys.executable, str(SCRIPT), "--mutant", mutant.name], cwd=ROOT, env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, start_new_session=True,
    )
    try:
        deadline = time.monotonic() + 60
        # The signal goes as soon as the pytest child runs, which a fast child could outlast by a fixed wait.
        while not pytest_runs_in_group(runner.pid):
            assert runner.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        assert any(mutant.replacement in p.read_text() for p in tmp_path.glob("mutant-*/tree/src/gajdchase/*.py"))
        runner.send_signal(signal.SIGTERM)
        assert runner.wait(timeout=60) == 128 + signal.SIGTERM
        while True:
            try:
                os.killpg(runner.pid, 0)
            except ProcessLookupError:
                break
            assert time.monotonic() < deadline, "a process the runner started is still running"
            time.sleep(0.05)
        assert list(tmp_path.glob("mutant-*")) == []
    finally:
        try:
            os.killpg(runner.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        runner.wait()
