"""Output checks and the pass loop of the benchmark, shared by run.py and
solve.py (pure Python; does not import cyclotome, so run.py can use it).

Every check returns None when the output is right, else one line that
names the spec and the reason.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"
GOLDEN_FILE = HERE / "golden.json"


def load_references() -> dict:
    """{key: digest} for grid and ladder specs."""
    data = json.loads(REFERENCE_FILE.read_text())
    return {**data["grid"], **data["ladder"]}


def load_golden() -> dict:
    return {ex["id"]: ex for ex in json.loads(GOLDEN_FILE.read_text())}


def digest(report: dict) -> str:
    """Digest of what a verification report says about the code: n, k, d,
    the weight distribution and the methods that produced it."""
    view = {k: report[k] for k in ("n", "k", "d", "weights", "methods_run")}
    text = json.dumps(view, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def _not_passed(spec_id: str, report: dict) -> str | None:
    if report.get("passed"):
        return None
    if not report.get("methods_agreed", True):
        why = "methods disagree"
    elif report.get("invariant_failures"):
        why = "invariant failed: " + report["invariant_failures"][0]
    elif report.get("sampling") and not report["sampling"].get("ok"):
        s = report["sampling"]
        why = (f"sampling verdict failed (max sigma dev "
               f"{s.get('max_sigma_dev', float('nan')):.2f}, "
               f"{len(s.get('weights_outside_support', []))} weights "
               f"outside support{', ' + s['note'] if 'note' in s else ''})")
    else:
        why = "no method ran"
    return f"{spec_id}: passed = false, {why}"


def check_report(spec_id: str, key: str, report: dict,
                 refs: dict) -> tuple[str | None, bool]:
    """(failure reason or None, whether a reference digest was compared)."""
    reason = _not_passed(spec_id, report)
    if reason:
        return reason, key in refs
    if key not in refs:
        return None, False
    got = digest(report)
    if got != refs[key]:
        return (f"{spec_id}: distribution digest {got} differs from the "
                f"reference {refs[key]}"), True
    return None, True


def _diffs(spec_id: str, pairs) -> str | None:
    bad = [f"{what} {got!r} != pinned {want!r}"
           for what, got, want in pairs if got != want]
    return f"{spec_id}: " + "; ".join(bad) if bad else None


def check_golden_params(ex: dict, out: dict) -> str | None:
    """`cyclotome params --json` output against the pinned copy."""
    return _diffs(ex["id"], [
        ("a_i", out.get("a_i"), ex["a_i"]),
        ("delta", out.get("delta"), ex["delta"]),
        ("n", out.get("n"), ex["n"]),
        ("N", out.get("N"), ex["N"]),
        ("h factors", out.get("h_i"),
         [",".join(map(str, f)) for f in ex["h_factors"]]),
        ("h", out.get("h"), ",".join(map(str, ex["h"]))),
        ("classification", out.get("classification", {}).get("tag"),
         ex["tag"]),
        ("period source",
         out.get("classification", {}).get("period_source"),
         ex["period_source"]),
    ])


def check_golden_verify(ex: dict, out: dict) -> str | None:
    """`cyclotome verify --json` output against the pinned copy."""
    return _not_passed(ex["id"], out) or _diffs(ex["id"], [
        ("enumerator", [[w["w"], int(w["count"])]
                        for w in out.get("weights", [])], ex["enumerator"]),
        ("n", out.get("n"), ex["n"]),
        ("k", out.get("k"), ex["k"]),
        ("d", out.get("d"), ex["d"]),
        ("methods run", out.get("methods_run"), ex["methods_run"]),
    ])


def check_cli_run(spec_id: str, command: str, rc: int, stdout: str,
                  stderr: str) -> tuple[str | None, dict | None]:
    """(failure reason or None, parsed JSON output) of one CLI run."""
    if "Traceback (most recent call last)" in stderr:
        last = stderr.strip().splitlines()[-1]
        return f"{spec_id}: {command} printed a traceback ({last})", None
    try:
        out = json.loads(stdout)
    except ValueError:
        out = None
    if rc != 0:
        if isinstance(out, dict) and out.get("passed") is False:
            return f"{_not_passed(spec_id, out)} (exit {rc})", None
        err = stderr.strip().splitlines()[-1] if stderr.strip() else ""
        kind = "CyclotomeError, " if err.startswith("error:") else ""
        return f"{spec_id}: {command} exited {rc} ({kind}{err})", None
    if not isinstance(out, dict):
        return f"{spec_id}: {command} printed no JSON object", None
    return None, out


def cli_args(command: str, sp: dict) -> list[str]:
    """argv of `cyclotome <command> --json` for one spec."""
    argv = [command, "--p", str(sp["p"]), "--s", str(sp["s"]),
            "--m", str(sp["m"]), "--e", str(sp["e"]), "--t", str(sp["t"]),
            "--a", str(sp["a"]), "--delta", ",".join(map(str, sp["deltas"]))]
    if sp.get("modulus"):
        argv += ["--modulus", ",".join(map(str, sp["modulus"]))]
    return argv + ["--json"]


def check_golden(sp: dict, ex: dict, invoke) -> str | None:
    """params then verify for one golden spec, against the pinned copy ex;
    invoke(argv) runs `cyclotome <argv>` and returns (exit code, stdout,
    stderr)."""
    reason = None
    for command, check in (("params", check_golden_params),
                           ("verify", check_golden_verify)):
        rc, out, err = invoke(cli_args(command, sp))
        bad, parsed = check_cli_run(sp["id"], command, rc, out, err)
        reason = reason or bad or check(ex, parsed)
    return reason


def run_passes(specs, solve, seconds: float, tracer=None):
    """Pass wall times and solves; passes repeat while another fits in
    `seconds` (at least one, and only one when traced).  solve(spec)
    returns (failure reason or None, whether a reference was compared)."""
    passes, solves = [], []
    while True:
        t0 = time.perf_counter()
        for sp in specs:
            if tracer is not None:
                tracer.spec_id = sp["id"]
            s0 = time.perf_counter()
            reason, referenced = solve(sp)
            solves.append({"id": sp["id"], "s": time.perf_counter() - s0,
                           "reason": reason, "referenced": referenced})
        passes.append(time.perf_counter() - t0)
        if tracer is not None or sum(passes) + passes[-1] > seconds:
            return passes, solves
