"""Workload generation for the cyclotome benchmark.

Each workload is a list of code specs, made only from the workload seed:

* golden: the six pinned golden specs (the seed is ignored);
* grid:   small seeded specs with r^t <= 1e6 and default moduli, chosen by
          the rules of the test suite's criterion grid but from this seed;
* ladder: larger specs with default moduli in fixed (p, s, m, e, t) slots;
          the seed picks a from each slot's pool and the order of the
          offsets.

Run as a script, it imports cyclotome, generates one workload and prints it
as JSON: the benchmark times exactly that as its set-up.

    python3 perfbench/workloads.py <golden|grid|ladder> <seed>
"""

from __future__ import annotations

import json
import random
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN_FILE = HERE / "golden.json"

GRID_TOWERS = (
    (2, 1, 4), (2, 2, 2), (2, 1, 6), (2, 2, 3), (2, 3, 2),
    (3, 1, 2), (3, 1, 3), (3, 1, 4), (3, 2, 2), (3, 1, 5), (3, 1, 6),
    (5, 1, 2), (5, 1, 3), (5, 1, 4), (5, 2, 2),
    (7, 1, 2), (7, 1, 3), (11, 1, 2), (13, 1, 2), (17, 1, 2),
    (19, 1, 2), (23, 1, 2), (29, 1, 2), (31, 1, 2),
)
GRID_MAX_INPUTS = 10 ** 6
GRID_MAX_WORK = 6 * 10 ** 8  # inputs * length, bounds the naive pass

# (p, s, m, e, t, a pool).  Every a in a pool gives the same delta = 1 and
# the same N, so a slot costs the same whatever the seed picks.
# Enumeration part (r^t in 1e7..1e8, over the naive cap, tsum runs):
#   (2,1,8) is the p = 2 XOR path, (17,1,2) the odd-p digit path, and
#   (3,1,2) e = t = 8 fails validity condition iii, so tsum is the only
#   method and its sweep sets the peak memory.
# Fields part (r^t over every cap: modulus search, table build, closed
#   table and 1e6-draw sampling against the exact period oracle).
LADDER_SLOTS = (
    (2, 1, 8, 3, 3, (1, 2, 4, 7, 8, 11)),
    (17, 1, 2, 3, 3, (1, 5, 7, 11, 13, 17)),
    (3, 1, 2, 8, 8, (1, 3, 5, 7)),
    (7, 1, 5, 2, 2, (1, 2, 4, 5, 7, 8)),
    (17, 1, 4, 2, 2, (1, 7, 11, 13, 17, 19)),
    (5, 1, 7, 2, 2, (1, 3, 5, 7, 9, 11)),
    (2, 1, 20, 3, 3, (1, 2, 3, 4, 6, 7)),
)


def spec_key(p, s, m, e, t, a, deltas) -> str:
    """Reference key of a spec.  Offsets are sorted: permuting them permutes
    the input coordinates only, so the weight distribution is unchanged."""
    return f"{p},{s},{m},{e},{t},{a},{'.'.join(map(str, sorted(deltas)))}"


def make_spec(p, s, m, e, t, a, deltas, modulus=None,
              spec_id=None) -> dict:
    """A spec as the benchmark passes it around; id defaults to the key plus
    the offsets in their given order."""
    key = spec_key(p, s, m, e, t, a, deltas)
    return {"id": spec_id or f"{key}/{'.'.join(map(str, deltas))}",
            "key": key, "p": p, "s": s, "m": m, "e": e, "t": t, "a": a,
            "deltas": list(deltas), "modulus": modulus}


def golden(seed: int) -> list[dict]:
    specs = []
    for ex in json.loads(GOLDEN_FILE.read_text()):
        sp = ex["spec"]
        specs.append(make_spec(sp["p"], sp["s"], sp["m"], sp["e"], sp["t"],
                               sp["a"], sp["deltas"], sp["modulus"],
                               ex["id"]))
    return specs


def grid(seed: int) -> list[dict]:
    from cyclotome.codes import CodeSpec, derive_params, validate_assumptions
    from cyclotome.gf import build_field
    from cyclotome.weights import classify

    rng = random.Random(seed)
    specs = []
    seen = set()
    per_cat_tower = Counter()
    per_cat = Counter()
    for (p, s, m) in GRID_TOWERS:
        tw = build_field(p, s, m)
        r = tw.r
        for e in [e for e in range(2, 20) if (r - 1) % e == 0]:
            for t in sorted({e, 2, 3} & set(range(2, e + 1))):
                if r ** t > GRID_MAX_INPUTS:
                    continue
                a_cands = sorted(set(
                    list(range(1, 13))
                    + [rng.randrange(1, r - 1) for _ in range(6)]))
                for a in a_cands:
                    if t == e:
                        deltas = tuple(range(e))
                    else:
                        start = rng.randrange(e)
                        deltas = tuple(sorted((start + i) % e
                                              for i in range(t)))
                    key = (p, s, m, e, t, a, deltas)
                    if key in seen:
                        continue
                    seen.add(key)
                    sp = CodeSpec(p, s, m, e, t, a, deltas)
                    d = derive_params(tw, sp)
                    if r ** t * d.n > GRID_MAX_WORK:
                        continue
                    rep = validate_assumptions(tw, sp, d)
                    if not rep.all_hold:
                        continue
                    cl = classify(tw, sp, d, rep)
                    if not cl.supported:
                        continue
                    cat = (cl.tag, cl.period_source)
                    if per_cat_tower[(cat, r)] >= 2 or per_cat[cat] >= 12:
                        continue
                    per_cat_tower[(cat, r)] += 1
                    per_cat[cat] += 1
                    specs.append(make_spec(*key))
    return specs


def ladder(seed: int) -> list[dict]:
    rng = random.Random(seed)
    specs = []
    for p, s, m, e, t, pool in LADDER_SLOTS:
        a = rng.choice(pool)
        specs.append(make_spec(p, s, m, e, t, a, rng.sample(range(e), t)))
    return specs


WORKLOADS = {"golden": golden, "grid": grid, "ladder": ladder}


def main(argv: list[str]) -> int:
    if len(argv) != 2 or argv[0] not in WORKLOADS:
        print("usage: workloads.py <golden|grid|ladder> <seed>",
              file=sys.stderr)
        return 2
    import cyclotome  # noqa: F401  (set-up includes the package import)

    print(json.dumps(WORKLOADS[argv[0]](int(argv[1]))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
