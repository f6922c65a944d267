"""The cyclotome benchmark.

    python3 perfbench/run.py --workload <golden|grid|ladder|all> \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout: the program is the package under ./src,
and nothing outside the checkout is read or written.  Workloads (see
workloads.py and BENCHMARK.json for why each one exists):

* golden: the six pinned golden specs, each through `cyclotome params
  --json` then `cyclotome verify --json`, every command a fresh process;
* grid:   about 66 seeded small specs through weights.cross_verify in one
  fresh worker process;
* ladder: seven larger specs (enumeration and large fields) through
  weights.cross_verify in one fresh worker process.

A solve takes one spec from input to a checked distribution.  A solve
fails on a non-zero exit, a traceback, a CyclotomeError, a report with
passed = false or an output that differs from the reference (the pinned
golden copy, or the recorded digests in reference.json).

With --trace 0 it reports the end-to-end metrics:
* setup_s: median of nine fresh processes that start the interpreter,
  import cyclotome and generate the workload (five before the workload and
  four after, so they span its drift);
* wall_s: median wall time of one pass over the specs (passes repeat while
  another fits in --seconds);
* peak_rss_mb: largest ru_maxrss of the processes that ran the workload.
fail_frac, spec_p50_s and spec_p90_s go on the summary line only: fail_frac
is 0 on a correct program; spec_p50_s (median solve time) follows the
host's speed phases too closely to gate on, since the median grid solve is
about 20 ms of Python; spec_p90_s is shown only where at least ten solves
lie beyond it.  With --trace 1 it reports the per-layer metrics of
tracing.py from one traced pass in a fresh worker, and trace.overhead_frac
against one untraced pass in another fresh worker (golden runs in-process
through cli.main in both).  Children run one at a time, with BLAS threads
at 1.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics ({name: {value, unit}}); with --workload all, one such object per
workload, keyed by its name.  Run metadata, the failing specs and a
summary come on the lines before it; the same record is written to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
WORKLOADS = ("golden", "grid", "ladder")
SETUP_RUNS = (5, 4)  # before and after the workload
RUN_LIMIT_S = 170.0  # every child is killed past this point of the run

END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def layer_unit(name: str) -> tuple[str, str]:
    """(unit, better) of a per-layer metric, from its name."""
    last = name.rsplit(".", 1)[1]
    if last == "distinct_ratio":
        return "ratio", "higher"
    if last == "overhead_frac":
        return "ratio", "lower"
    if last.endswith("_per_s"):
        return "1/s", "higher"
    if last == "s" or last.endswith("_s"):
        return "s", "lower"
    if last == "gbytes_computed":
        return "GB", "lower"
    if last == "peak_mb":
        return "MB", "lower"
    if last == "methods_run":
        return "count", "higher"
    return "count", "lower"


class ChildFailed(Exception):
    pass


class Runner:
    """Starts children one at a time in the checkout and reaps each one."""

    def __init__(self, root: Path, deadline: float):
        self.root = root
        self.deadline = deadline
        self.env = dict(os.environ)
        src = str(root / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            self.env[var] = "1"

    def run(self, argv: list[str], stdin: bytes = b""):
        """(exit code, stdout, stderr, wall seconds, peak RSS in MB)."""
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable] + argv, cwd=self.root,
                                env=self.env, stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE)
        try:
            out, err = self._communicate(proc, stdin)
        finally:
            if proc.returncode is None:
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
        return (proc.returncode, out.decode(), err.decode(),
                time.perf_counter() - t0, usage.ru_maxrss / 1024)

    def _communicate(self, proc, data: bytes):
        sel = selectors.DefaultSelector()
        chunks = {proc.stdout: [], proc.stderr: []}
        for f in chunks:
            sel.register(f, selectors.EVENT_READ)
        sel.register(proc.stdin, selectors.EVENT_WRITE)
        view = memoryview(data)
        try:
            while sel.get_map():
                left = self.deadline - time.monotonic()
                if left <= 0:
                    proc.kill()
                    raise ChildFailed(f"{' '.join(proc.args[1:3])} "
                                      f"passed the {RUN_LIMIT_S:.0f} s limit")
                for key, _ in sel.select(left):
                    if key.fileobj is proc.stdin:
                        try:
                            view = view[os.write(key.fd, view[:65536]):]
                        except BrokenPipeError:
                            view = view[:0]
                        if not view:
                            sel.unregister(proc.stdin)
                            proc.stdin.close()
                        continue
                    chunk = os.read(key.fd, 65536)
                    if chunk:
                        chunks[key.fileobj].append(chunk)
                    else:
                        sel.unregister(key.fileobj)
        finally:
            sel.close()
            for f in (proc.stdin, proc.stdout, proc.stderr):
                f.close()
        return b"".join(chunks[proc.stdout]), b"".join(chunks[proc.stderr])


def run_metadata(root: Path, workload: str, seed: int, trace: int) -> dict:
    commit = None
    if (root / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True)
        commit = out.stdout.strip() or None
    sources = [p.read_bytes() for p in sorted((root / "src").rglob("*.py"))]
    return {"workload": workload, "seed": seed, "trace": trace,
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"), "nproc": os.cpu_count(),
            "commit": commit,  # None outside a git work tree
            "src_sha256": hashlib.sha256(b"".join(sources)).hexdigest()[:16],
            "src_lines": sum(len(b.splitlines()) for b in sources)}


def setup(runner: Runner, workload: str, seed: int, runs: int):
    """Times of `runs` fresh set-up processes, and the generated specs."""
    times = []
    for _ in range(runs):
        rc, out, err, wall, _ = runner.run(
            [str(HERE / "workloads.py"), workload, str(seed)])
        if rc != 0:
            raise ChildFailed(f"workload generation exited {rc}: "
                              f"{err.strip()[-400:]}")
        times.append(wall)
    return times, json.loads(out)


def golden_passes(runner: Runner, specs: list[dict], seconds: float):
    """Every golden command as a fresh `python -m cyclotome.cli` process."""
    golden = checks.load_golden()
    rss = 0.0

    def invoke(argv):
        nonlocal rss
        rc, out, err, _, mb = runner.run(["-m", "cyclotome.cli"] + argv)
        rss = max(rss, mb)
        return rc, out, err

    passes, solves = checks.run_passes(
        specs, lambda sp: (checks.check_golden(sp, golden[sp["id"]], invoke),
                           True), seconds)
    return passes, solves, rss


def worker(runner: Runner, specs, workload, seconds, trace, spans=None):
    argv = [str(HERE / "solve.py"), "--workload", workload,
            "--seconds", str(seconds), "--trace", str(trace)]
    if spans is not None:
        argv += ["--spans", str(spans)]
    rc, out, err, _, rss = runner.run(argv, json.dumps(specs).encode())
    if rc != 0:
        raise ChildFailed(f"worker exited {rc}: {err.strip()[-600:]}")
    return json.loads(out.strip().splitlines()[-1]), rss


def cli_import_s(runner: Runner) -> float:
    code = ("import time; t = time.perf_counter(); import cyclotome.cli; "
            "print(time.perf_counter() - t)")
    rc, out, err, _, _ = runner.run(["-c", code])
    if rc != 0:
        raise ChildFailed(f"import cyclotome.cli failed: {err.strip()[-400:]}")
    return float(out)


def summary(workload: str, passes, solves, metrics: dict) -> list[str]:
    failed = [s for s in solves if s["reason"]]
    times = sorted(s["s"] for s in solves)
    lines = [f"FAIL {s['reason']}" for s in failed]
    frac = len(failed) / len(solves)
    p90 = statistics.quantiles(times, n=10)[8] if len(times) > 1 else times[0]
    beyond = sum(t > p90 for t in times)
    p90_text = (f"spec_p90_s={p90:.6f} s" if beyond >= 10 else
                f"spec_p90_s dropped ({beyond} solves beyond p90, need 10)")
    unref = sum(not s["referenced"] for s in solves)
    shown = "".join(f" {k}={v['value']:.6g} {v['unit']}"
                    for k, v in metrics.items() if k in END_TO_END)
    lines.append(
        f"{workload}: {len(passes)} pass(es), {len(solves)} solves, "
        f"fail_frac={frac:.6g} ratio ({len(failed)}/{len(solves)}), "
        f"spec_p50_s={statistics.median(times):.6f} s, {p90_text}, "
        f"{unref} solves without a reference digest (checked by agreement);"
        + shown)
    return lines


def run_workload(root: Path, workload: str, seed: int, seconds: float,
                 trace: int) -> tuple[dict, list[str]]:
    runner = Runner(root, time.monotonic() + RUN_LIMIT_S)
    meta = run_metadata(root, workload, seed, trace)
    setup_times, specs = setup(runner, workload, seed,
                               1 if trace else SETUP_RUNS[0])
    out_dir = HERE / "out"
    tag = f"{workload}-seed{seed}-trace{trace}"
    notes = []
    if trace:
        # the untraced pass is the same work in the same kind of fresh
        # process, so the difference is the cost of tracing
        base, _ = worker(runner, specs, workload, 0, 0)
        res, _ = worker(runner, specs, workload, seconds, 1,
                        out_dir / f"spans-{tag}.json")
        layers = dict(res["layers"])
        layers["trace.overhead_frac"] = (res["passes"][0]
                                         / base["passes"][0] - 1)
        layers["cli.import_s"] = cli_import_s(runner)
        self_total = sum(v for k, v in layers.items()
                         if k.endswith(".self_s"))
        gap = self_total + layers["trace.unattributed_s"] - \
            layers["trace.wall_s"]
        if abs(gap) > 1e-6 * layers["trace.wall_s"]:
            notes.append(f"FAIL trace: self times miss the wall time by "
                         f"{gap:.3g} s")
        metrics = {k: {"value": v, "unit": layer_unit(k)[0]}
                   for k, v in sorted(layers.items())}
        passes = base["passes"] + res["passes"]
        solves = base["solves"] + res["solves"]
    else:
        if workload == "golden":
            passes, solves, rss = golden_passes(runner, specs, seconds)
        else:
            res, rss = worker(runner, specs, workload, seconds, 0)
            passes, solves = res["passes"], res["solves"]
        setup_times += setup(runner, workload, seed, SETUP_RUNS[1])[0]
        values = {"setup_s": statistics.median(setup_times),
                  "wall_s": statistics.median(passes),
                  "peak_rss_mb": rss}
        metrics = {k: {"value": values[k], "unit": END_TO_END[k][0]}
                   for k in END_TO_END}
    lines = summary(workload, passes, solves, metrics) + notes
    failed = sum(1 for s in solves if s["reason"])
    result = {"correct": failed == 0 and not notes,
              "attempted": len(solves), "failed": failed,
              "metrics": metrics}
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"result-{tag}.json").write_text(json.dumps(
        {"meta": meta, "summary": lines, "result": result,
         "passes": passes, "solves": solves}, indent=1) + "\n")
    return result, ["meta " + json.dumps(meta)] + lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    root = Path.cwd()
    if not (root / "src" / "cyclotome" / "__init__.py").is_file():
        print(f"error: no src/cyclotome under {root}; run from the root of "
              f"a cyclotome checkout", file=sys.stderr)
        return 2
    results = {}
    for workload in (WORKLOADS if args.workload == "all"
                     else (args.workload,)):
        try:
            result, lines = run_workload(root, workload, args.seed,
                                         args.seconds, args.trace)
        except ChildFailed as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        print("\n".join(lines), flush=True)
        results[workload] = result
    print(json.dumps(results[args.workload] if args.workload != "all"
                     else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
