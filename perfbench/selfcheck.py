"""Self-checks of the benchmark itself (a few seconds).

    python3 perfbench/selfcheck.py        # from the root of a checkout

* a corrupted reference digest, or a corrupted pinned golden value, makes
  the solve fail with a reason that names the spec;
* a spec that raises CyclotomeError counts as a failed solve and the pass
  goes on;
* a CLI run that exits non-zero or prints a traceback is a failed solve;
* the traced run emits exactly the per-layer metrics of BENCHMARK.json,
  and the end-to-end metrics are the ones it lists, with the same units and
  directions; their self times plus trace.unattributed_s add up to the
  traced wall time;
* BENCHMARK.json lists every workload with a one-line rationale.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import solve  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

FAILURES: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        FAILURES.append(what)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    refs = checks.load_references()

    small = workloads.make_spec(3, 1, 3, 2, 2, 1, [0, 1])
    reason, referenced = solve.solve_verify(small, refs)
    expect(reason is None and referenced,
           f"{small['id']} passes against its recorded digest")
    bad_refs = {**refs, small["key"]: "0" * 24}
    reason, _ = solve.solve_verify(small, bad_refs)
    expect(reason is not None and small["id"] in reason
           and "differs from the reference" in reason,
           f"a corrupted reference digest fails the solve: {reason}")

    # e = 5 does not divide r - 1 = 8, so derive_params raises
    broken = workloads.make_spec(3, 1, 2, 5, 2, 1, [0, 1])
    _, solves = checks.run_passes([broken, small],
                                  lambda sp: solve.solve_verify(sp, refs), 0)
    expect([bool(s["reason"]) for s in solves] == [True, False]
           and "EDoesNotDivide" in solves[0]["reason"],
           f"a CyclotomeError fails its solve only: {solves[0]['reason']}")

    golden = checks.load_golden()
    g1 = workloads.golden(0)[0]
    reason, _ = solve.solve_golden(g1, golden)
    expect(reason is None, f"{g1['id']} matches the pinned copy in-process")
    bad = {**golden[g1["id"]], "enumerator": [[0, 1], [9, 52], [18, 675]]}
    reason, _ = solve.solve_golden(g1, {g1["id"]: bad})
    expect(reason is not None and "enumerator" in reason,
           f"a corrupted pinned enumerator fails the solve: {reason}")
    reason, _ = checks.check_cli_run("g", "verify", 1, "",
                                     "error: e = 5 does not divide 8\n")
    expect(reason is not None and "CyclotomeError" in reason,
           f"a CLI CyclotomeError fails the solve: {reason}")
    reason, _ = checks.check_cli_run(
        "g", "params", 1, "", "Traceback (most recent call last):\n"
        "  ...\nValueError: boom\n")
    expect(reason is not None and "traceback" in reason,
           f"a CLI traceback fails the solve: {reason}")

    tracer = tracing.Tracer()
    tracer.install()
    try:
        (wall,), _ = checks.run_passes(
            [small, broken], lambda sp: solve.solve_verify(sp, refs), 0,
            tracer)
        solve.solve_golden(g1, golden)
    finally:
        tracer.uninstall()
    layers = tracer.layer_metrics(wall)
    self_total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    expect(abs(self_total + layers["trace.unattributed_s"] - wall)
           <= 1e-9 * wall + 1e-12,
           "self times plus trace.unattributed_s equal the traced wall time")
    expect(layers["weights.errors"] == 1 and layers["cli.main.calls"] == 2,
           "the trace counts the failed cross_verify and the cli.main calls")
    emitted = set(layers) | {"cli.import_s", "trace.overhead_frac"}
    listed = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    expect(emitted == set(listed),
           f"per-layer metrics emitted == listed "
           f"(missing {sorted(set(listed) - emitted)}, "
           f"unlisted {sorted(emitted - set(listed))})")
    expect(all(run.layer_unit(n) == listed.get(n) for n in emitted),
           "per-layer units and directions match BENCHMARK.json")
    e2e = {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]}
    expect(e2e == run.END_TO_END,
           "end-to-end metrics, units and directions match BENCHMARK.json")

    whys = {w["name"]: w["why"] for w in bench["workloads"]}
    expect(tuple(whys) == run.WORKLOADS
           and all(w and "\n" not in w and len(w) <= 200
                   for w in whys.values()),
           "BENCHMARK.json lists every workload with a one-line rationale")

    print(f"{len(FAILURES)} self-check(s) failed" if FAILURES
          else "all self-checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
