"""Self-test of `scripts/dump_outputs.py` on a tiny slice of the benchmark's operations."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "dump_outputs.py"
# The digest of the first two operations of each workload at seed 1.  Every
# output is pinned elsewhere too; a change that alters one on purpose alters this.
TINY_DIGEST = "328720c5005e6a861387c107fb6d21cbe34c2041c9c44234f34c9c6f7cd167a6"
# The digest of every operation of each workload at seeds 1 and 2, as
# `python3 scripts/dump_outputs.py --seeds 1 2` prints it.
FULL_DIGEST = "a07b21fd878e1b884907a5b00018b0359424bbb9fc8998ab74c62af025b37b04"


@pytest.fixture(scope="module")
def dump_outputs():
    spec = importlib.util.spec_from_file_location("dump_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tiny_slice(dump_outputs, tmp_path):
    digest = dump_outputs.dump([1], ops_per_workload=2, out=tmp_path)
    assert digest == TINY_DIGEST
    texts = {p.relative_to(tmp_path).as_posix(): p.read_text() for p in tmp_path.rglob("*.txt")}
    assert sorted(texts) == [
        "1/census/census_n5_q0.txt",
        "1/census/census_n5_q1.txt",
        "1/chains/chains_n4_all.txt",
        "1/chains/chains_n4_drop2.txt",
        "1/tableau_run/tableau_run_g0_t0.txt",
        "1/tableau_run/tableau_run_g0_t1.txt",
        "1/verify/verify_g0_pos0.txt",
        "1/verify/verify_g0_pos1.txt",
    ]
    for name, text in texts.items():
        if "/census/" in name or "/chains/" in name:
            assert text.startswith("exit 0\nquery 1: ") and "\n## trace-json\n" in text
            assert "\n## rng 0: fixpoint, " in text and "\n## rng 1: fixpoint, " in text
        elif "/verify/" in name:
            assert "\nIMPLIES: yes\nsoundness: " in text
        else:
            assert text.count("\n") > 1
    assert "FACTORIZATION: " in texts["1/chains/chains_n4_all.txt"]
    assert dump_outputs.dump([1], ops_per_workload=2) == digest


def test_full_digest(dump_outputs):
    assert dump_outputs.dump([1, 2]) == FULL_DIGEST
