"""Byte-for-byte pin of `tableau.run`'s outputs.

For every covering hypertree of up to three edges over three ternary
attributes, the golden records the dependency's tableau run against one
seeded positive relation: each output tuple in output order, with its
weight as `%.17g`.  The other tests compare `run` with `mpj_map` within a
tolerance; this one fixes the order of the output and the bits of each
weight, so a change to how valuations are enumerated, deduplicated or
evaluated shows up as a diff.

Regenerate (only when a change to the outputs is intended) with

    PYTHONPATH=src python tests/test_tableau_run_golden.py
"""

from gajdchase.prelation import DomainSpec
from gajdchase.tableau import build_tr, run
from conftest import GOLDEN_DIR, covering_hypertrees, positive_relation

GOLDEN = GOLDEN_DIR / "tableau_run.txt"
ATTRS = ("A", "B", "C")
DOMAIN_SIZE = 3
MAX_EDGES = 3
SEED = 29


def render_runs() -> str:
    rel = positive_relation(DomainSpec.uniform(ATTRS, DOMAIN_SIZE), seed=SEED)
    hypertrees = covering_hypertrees(ATTRS, MAX_EDGES)
    out = [f"# {len(hypertrees)} hypertrees"]
    for g in hypertrees:
        result = run(build_tr(g), rel)
        out.append(f"{g.render()} {len(result)} tuples")
        out.extend(" ".join(key) + " %.17g" % w for key, w in result.items())
    return "\n".join(out) + "\n"


def test_tableau_run_golden():
    assert render_runs() == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.write_text(render_runs())
