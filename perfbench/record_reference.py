"""Record the reference digests that the grid and ladder solves are checked
against (reference.json).

Ladder: every a in every slot's pool, so every seed is covered.  Grid: every
spec that seeds 0..GRID_SEEDS-1 generate; a grid spec outside that set is
checked by method agreement and invariants only, and the benchmark counts
it as unreferenced.  A spec whose report does not pass gets no digest, so
it fails in the benchmark.  Record again only when a change of the program
is meant to change its outputs.

    PYTHONPATH=src python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
import sys

import checks
import workloads

from cyclotome.codes import CodeSpec
from cyclotome.weights import cross_verify

GRID_SEEDS = 1000


def record(specs: dict) -> dict:
    out = {}
    for key, sp in sorted(specs.items()):
        spec = CodeSpec(sp["p"], sp["s"], sp["m"], sp["e"], sp["t"], sp["a"],
                        tuple(sorted(sp["deltas"])))
        report = cross_verify(spec).to_json_dict()
        if report["passed"]:
            out[key] = checks.digest(report)
        else:
            print(f"not recorded, report fails: {key}", file=sys.stderr)
    return out


def main() -> int:
    ladder = {}
    for p, s, m, e, t, pool in workloads.LADDER_SLOTS:
        for a in pool:
            sp = workloads.make_spec(p, s, m, e, t, a, list(range(t)))
            ladder[sp["key"]] = sp
    grid = {}
    for seed in range(GRID_SEEDS):
        grid.update((sp["key"], sp) for sp in workloads.grid(seed))
    data = {"grid_seeds": GRID_SEEDS, "grid": record(grid),
            "ladder": record(ladder)}
    checks.REFERENCE_FILE.write_text(json.dumps(data, indent=0) + "\n")
    print(f"{len(data['grid'])} grid and {len(data['ladder'])} ladder "
          f"digests written to {checks.REFERENCE_FILE.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
