"""Byte-for-byte pin of `implies --trace --factorize` on the chain family.

For n = 4..7 the target is the chain {A1 A2}..{An-1 An}.  It is asked given
every two-way split {A1..Ak}{Ak..An} (implied), and given all splits but one,
for each split dropped in turn (not implied).  The golden records each
problem and its output: the prefix steps, rewrites, closure line, verdict and
factorization.

Regenerate (only when a change to the traces is intended) with

    PYTHONPATH=src python tests/test_chains_golden.py
"""

from gajdchase.cli import cmd_implies, parse
from conftest import GOLDEN_DIR

GOLDEN = GOLDEN_DIR / "chains_implies.txt"
SIZES = range(4, 8)


def chain_problem(n: int) -> str:
    attrs = [f"A{i}" for i in range(1, n + 1)]
    lines = ["attrs " + " ".join(attrs)]
    for k in range(2, n):
        lines.append(f"gajd S{k} = {{{' '.join(attrs[:k])}}} {{{' '.join(attrs[k - 1:])}}}")
    chain = " ".join(f"{{{attrs[i]} {attrs[i + 1]}}}" for i in range(n - 1))
    splits = [f"S{k}" for k in range(2, n)]
    lines.append(f"query {chain} given {' '.join(splits)}")
    for dropped in splits:
        lines.append(f"query {chain} given {' '.join(s for s in splits if s != dropped)}")
    return "\n".join(lines) + "\n"


def render_chains() -> str:
    out = []
    for n in SIZES:
        text = chain_problem(n)
        _, result = cmd_implies(parse(text), trace=True, factorize=True)
        out.append(f"## chain {n}\n{text}{result}")
    return "".join(out)


def test_chains_golden():
    assert render_chains() == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.write_text(render_chains())
