"""Benchmark worker: solves one workload's specs in this process.

Reads the workload (a JSON list of specs, as workloads.py prints it) on
stdin and prints one JSON object with the pass wall times and every solve.

* grid, ladder: each spec goes through weights.cross_verify, and its report
  is checked against passed and the reference digests.
* golden: params then verify for each spec, in-process through
  cli.main(argv) with stdout captured, checked against the pinned copy.
* --trace 1: the layer wrappers are installed and one pass runs traced;
  its spans are written to --spans.  Without it, passes repeat while
  another fits in --seconds (at least one).

    python3 perfbench/solve.py --workload W --seconds S --trace 0|1 \\
        [--spans PATH] < workload.json
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import traceback
from pathlib import Path

import checks

from cyclotome import cli, weights
from cyclotome.codes import CodeSpec
from cyclotome.errors import CyclotomeError


def solve_verify(sp: dict, refs: dict) -> tuple[str | None, bool]:
    """cross_verify one spec and check it: (failure reason, referenced)."""
    try:
        spec = CodeSpec(sp["p"], sp["s"], sp["m"], sp["e"], sp["t"], sp["a"],
                        tuple(sp["deltas"]),
                        tuple(sp["modulus"]) if sp.get("modulus") else None)
        report = weights.cross_verify(spec).to_json_dict()
    except CyclotomeError as exc:
        return f"{sp['id']}: {type(exc).__name__}: {exc}", False
    except Exception as exc:  # a traceback is a failed solve, not a crash
        where = traceback.extract_tb(exc.__traceback__)[-1]
        return (f"{sp['id']}: traceback, {type(exc).__name__}: {exc} "
                f"at {Path(where.filename).name}:{where.lineno}"), False
    return checks.check_report(sp["id"], sp["key"], report, refs)


def _cli_in_process(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            rc = 1
    return rc, out.getvalue(), err.getvalue()


def solve_golden(sp: dict, golden: dict) -> tuple[str | None, bool]:
    """params then verify through cli.main, checked against the pinned copy."""
    return checks.check_golden(sp, golden[sp["id"]], _cli_in_process), True


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=("golden", "grid", "ladder"))
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", type=Path, default=None)
    args = ap.parse_args()
    specs = json.load(sys.stdin)
    if args.workload == "golden":
        golden = checks.load_golden()
        solve = lambda sp: solve_golden(sp, golden)  # noqa: E731
    else:
        refs = checks.load_references()
        solve = lambda sp: solve_verify(sp, refs)  # noqa: E731

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    try:
        passes, solves = checks.run_passes(specs, solve, args.seconds, tracer)
    finally:
        if tracer:
            tracer.uninstall()
    result: dict = {"passes": passes, "solves": solves}
    if tracer:
        result["layers"] = tracer.layer_metrics(passes[0])
        if args.spans is not None:
            tracer.write(args.spans, {"workload": args.workload})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
