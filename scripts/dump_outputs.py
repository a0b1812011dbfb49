"""Dump every output of the benchmark's operations and print one sha256 over them.

Usage, from the repository root:

    python3 scripts/dump_outputs.py --seeds 1 2 [--out DIR]

For each seed and each workload of `perfbench/gen.py`, every operation runs
through `perfbench/run.py`'s `Runner.call`, as the benchmark runs it:
`cmd_implies` with `--trace --factorize`, `cmd_verify`, or
`tableau.run(build_tr(g), rel)`.  Each implies operation also runs with
`--trace-json`, and its query is chased to the fixpoint under the seeded
random orders `Random(0)` and `Random(1)`.  Two checkouts whose digests are
equal produce the same bytes on all of these.  With `--out`, the text of
each operation is written to `DIR/<seed>/<workload>/<op>.txt`.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import run as bench  # noqa: E402  (perfbench/run.py)

bench._load_package()

import gen  # noqa: E402

from gajdchase.chase import chase  # noqa: E402
from gajdchase.tableau import build_tr  # noqa: E402

RNG_SEEDS = (0, 1)


def op_text(runner: bench.Runner, op) -> str:
    """Everything the operation outputs, as one text."""
    result = runner.call(op)
    if runner.wl.name == "tableau_run":
        return "".join(f"{key!r} {w!r}\n" for key, w in result.items())
    code, text = result
    parts = [f"exit {code}\n{text}"]
    if runner.wl.subcommand == "implies":
        p = runner.parsed[op.problem]
        one = dataclasses.replace(p, queries=(p.queries[op.query],))
        parts.append("## trace-json\n" + runner.cli.cmd_implies(one, trace_json=True)[1])
        query = one.queries[0]
        for seed in RNG_SEEDS:
            trace = chase(build_tr(query.target), one.rules_for(query), rng=random.Random(seed))
            parts.append(
                f"## rng {seed}: {trace.stop_reason}, {len(trace.final)} rows, {trace.duplicates} duplicates\n"
            )
            parts.extend(line + "\n" for line in trace.render_steps())
    return "".join(parts)


def dump(seeds, workloads=tuple(gen.WORKLOADS), ops_per_workload: int | None = None, out: Path | None = None) -> str:
    """The sha256 over the outputs of the first `ops_per_workload` operations (all by default)."""
    digest = hashlib.sha256()
    for seed in seeds:
        for name in workloads:
            runner = bench.Runner(gen.WORKLOADS[name](seed))
            for op in runner.wl.ops[:ops_per_workload]:
                text = op_text(runner, op)
                digest.update(f"# {seed} {op.id}\n{text}".encode())
                if out is not None:
                    path = out / str(seed) / name / (op.id.replace("/", "_") + ".txt")
                    path.parent.mkdir(parents=True, exist_ok=True)
                    path.write_text(text)
    return digest.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--out", type=Path, help="write each operation's text under this directory")
    args = ap.parse_args(argv)
    print(dump(args.seeds, out=args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
