"""Command-line front end.

Subcommands: params, periods, cyclonum, weights, verify, corpus.  Output is
human-readable by default; --json emits canonical JSON (sorted keys, compact
separators, counts as decimal strings) that round-trips byte for byte.
Exit codes: 0 success, 1 computation error or failed verification, 2 usage.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import corpus as corpus_mod
from ._engine import SWEEP_BYTES
from .codes import (
    CodeSpec,
    build_polynomials,
    build_tower,
    derive_params,
    validate_assumptions,
)
from .cyclotomy import (
    cyclotomic_numbers,
    gaussian_periods,
    gaussian_periods_closed_form,
)
from .errors import CyclotomeError
from .gf import build_field
from .weights import Caps, classify, cross_verify, plan, run_method

ENV_MAX_ENUM = "CYCLOTOME_MAX_ENUM"


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}")


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"not a non-negative int: {text!r}")
    return value


def _add_field_flags(sub, with_code: bool) -> None:
    sub.add_argument("--p", type=int, required=True, help="characteristic")
    sub.add_argument("--s", type=int, default=1, help="GF(q) degree over GF(p)")
    sub.add_argument("--m", type=int, required=True, help="GF(r) degree over GF(q)")
    sub.add_argument("--modulus", type=_int_list, default=None,
                     help="ascending GF(p) coefficients, e.g. 1,2,0,1")
    if with_code:
        sub.add_argument("--e", type=int, required=True)
        sub.add_argument("--t", type=int, required=True)
        sub.add_argument("--a", type=int, required=True)
        sub.add_argument("--delta", type=_int_list, required=True,
                         help="comma list of t column offsets")


def _spec_from_args(args) -> CodeSpec:
    return CodeSpec(args.p, args.s, args.m, args.e, args.t, args.a,
                    tuple(args.delta), args.modulus)


def _caps_from_args(args) -> Caps:
    cap = getattr(args, "max_enum", None)
    if cap is None:
        env = os.environ.get(ENV_MAX_ENUM)
        try:
            cap = int(env) if env else None
        except ValueError:
            raise CyclotomeError(f"{ENV_MAX_ENUM} is not an int: {env!r}")
        if cap is not None and cap < 0:
            raise CyclotomeError(f"{ENV_MAX_ENUM} is negative: {env!r}")
    kwargs = {} if cap is None else {"naive": cap, "tsum": cap}
    if getattr(args, "seed", None) is not None:
        kwargs["seed"] = args.seed
    return Caps(**kwargs)


def _poly_serial(coeffs) -> str:
    return ",".join(str(c) for c in coeffs)


# ----------------------------------------------------------------------
# Subcommands.
# ----------------------------------------------------------------------

def cmd_params(args) -> int:
    spec = _spec_from_args(args)
    tower = build_tower(spec)
    derived = derive_params(tower, spec)
    report = validate_assumptions(tower, spec, derived)
    polys = build_polynomials(tower, derived, report) if report.all_hold else None
    classification = classify(tower, spec, derived, report)
    if args.json:
        obj = {
            "spec": spec.to_json_dict(),
            "modulus": _poly_serial(tower.modulus),
            "a_i": list(derived.a_list),
            "delta": derived.delta,
            "n": derived.n,
            "N": derived.N,
            "assumptions": report.to_json_dict(),
            "classification": classification.to_json_dict(),
            "h_i": [f.serial() for f in polys.factors] if polys else None,
            "h": polys.h.serial() if polys else None,
            "g": polys.g.serial() if polys else None,
        }
        print(canonical_json(obj))
        return 0
    print(f"tower: GF({spec.p}) <= GF({tower.q}) <= GF({tower.r}), "
          f"modulus {_poly_serial(tower.modulus)}")
    print(f"a_i    = {derived.a_list}")
    print(f"delta  = {derived.delta}   n = {derived.n}   N = {derived.N}")
    print(f"assumptions: i={report.cond_i} ii={report.cond_ii} "
          f"iii={report.cond_iii} (iii via {report.iii_method})")
    if report.witnesses:
        for key, wit in sorted(report.witnesses.items()):
            print(f"  witness {key}: {wit}")
    print(f"classification: {classification.tag}"
          + (f" ({classification.period_source})"
             if classification.period_source else "")
          + (f" [{classification.reason}]" if classification.reason else ""))
    if polys:
        named = [(f"h_{a}", f) for a, f in zip(derived.a_list, polys.factors)]
        for name, poly in named + [("h", polys.h), ("g", polys.g)]:
            print(f"{name}(x) = ", end="")
            # chunks of SWEEP_BYTES at about 64 bytes a term held
            for chunk in poly.str_chunks(SWEEP_BYTES // 64):
                print(chunk, end="")
            print()
    return 0


def _print_lines(lines) -> None:
    """Print lines in chunks of about SWEEP_BYTES // 4 characters, about
    SWEEP_BYTES held with their str objects, not one print per line."""
    chunk, size = [], 0
    for line in lines:
        chunk.append(line)
        size += len(line)
        if size >= SWEEP_BYTES // 4:
            print("\n".join(chunk))
            chunk, size = [], 0
    if chunk:
        print("\n".join(chunk))


def cmd_periods(args) -> int:
    tower = build_field(args.p, args.s, args.m, modulus=args.modulus)
    pset = gaussian_periods(tower, args.L)
    cset, params = gaussian_periods_closed_form(tower, args.L, pset) or (None, None)
    # count rows become lists only where they print (irrational, --tallies)
    if args.json:
        values = [v if isinstance(v, int)
                  else {"zeta_counts": pset.rows[i].tolist()}
                  for i, v in enumerate(pset.values)]
        obj = {"L": args.L, "values": values,
               "modified_zero": pset.eta_bar_zero,
               "closed_form": ({"variant": params["variant"],
                                "params": params} if params else None)}
        if args.tallies:
            obj["tallies"] = pset.rows.tolist()
        print(canonical_json(obj))
        return 0
    print(f"order-{args.L} Gaussian periods of GF({tower.r}), "
          f"classes of size {(tower.r - 1) // args.L}")
    _print_lines(f"  eta_{i} = {v}" if isinstance(v, int)
                 else f"  eta_{i} = counts{tuple(pset.rows[i].tolist())}"
                 for i, v in enumerate(pset.values))
    print(f"  modified value at 0: {pset.eta_bar_zero}")
    if args.tallies:
        _print_lines(f"  tally_{i} = {tuple(row.tolist())}"
                     for i, row in enumerate(pset.rows))
    if params:
        print(f"closed form: {params['variant']} {params}, "
              f"matches exact: {cset.values == pset.values}")
    else:
        print("closed form: none applicable")
    return 0


def cmd_cyclonum(args) -> int:
    tower = build_field(args.p, args.s, args.m, modulus=args.modulus)
    matrix = cyclotomic_numbers(tower, args.L)
    if args.json:
        obj = {"L": args.L, "r": tower.r,
               "matrix": [[int(x) for x in row] for row in matrix]}
        print(canonical_json(obj))
        return 0
    print(f"order-{args.L} cyclotomic numbers of GF({tower.r}):")
    width = max(len(str(int(x))) for row in matrix for x in row)
    for row in matrix:
        print("  " + " ".join(f"{int(x):>{width}}" for x in row))
    return 0


def cmd_weights(args) -> int:
    spec = _spec_from_args(args)
    caps = _caps_from_args(args)
    tower = build_tower(spec)
    derived = derive_params(tower, spec)
    classification = classify(tower, spec, derived,
                              validate_assumptions(tower, spec, derived))
    method = args.method
    if method == "auto":  # the closed table, else tsum, as the plan runs them
        steps = plan(tower, derived, classification, caps)
        tried = [(m, steps[m]) for m in ("closed", "tsum")]
        method = next((m for m, why in tried if why is None), None)
        if method is None:
            reasons = "; ".join(f"{m}: {why}" for m, why in tried)
            raise CyclotomeError(f"no feasible method ({reasons}); raise "
                                 f"--max-enum or pick a closed-form case")
    dist = run_method(method, tower, derived, classification, caps)
    if args.json:
        print(canonical_json({
            "spec": spec.to_json_dict(),
            "classification": classification.to_json_dict(),
            "n": derived.n,
            "k": derived.t * tower.m,
            "d": dist.d,
            "weights": dist.to_json_entries(),
            "methods_agreed": None,
        }))
        return 0
    print(f"[{derived.n}, {derived.t * tower.m}, {dist.d}] code over "
          f"GF({tower.q}), method {method}, case {classification.tag}"
          + (f" ({classification.period_source})"
             if classification.period_source else ""))
    print("enumerator: " + dist.enumerator_str())
    for w, c in dist.entries:
        print(f"  weight {w:>6}: {c}")
    return 0


def cmd_verify(args) -> int:
    spec = _spec_from_args(args)
    rep = cross_verify(spec, _caps_from_args(args))
    if args.json:
        print(canonical_json(rep.to_json_dict()))
    else:
        print(f"classification: {rep.classification.tag}"
              + (f" ({rep.classification.period_source})"
                 if rep.classification.period_source else ""))
        print(f"methods run: {sorted(rep.distributions)}; "
              f"skipped: {rep.skipped or 'none'}")
        print(f"agreed: {rep.agreed}"
              + (f" (first diff: {rep.first_diff})" if rep.first_diff else ""))
        if rep.invariant_failures:
            for f in rep.invariant_failures:
                print(f"invariant FAILED: {f}")
        else:
            print("invariants: all hold")
        if rep.sampling is not None:
            print(f"sampling: ok={rep.sampling['ok']} "
                  f"max sigma dev={rep.sampling.get('max_sigma_dev', 0):.3f}")
        dist = rep.reference_distribution()
        if dist is not None:
            print("enumerator: " + dist.enumerator_str())
    if not rep.distributions:
        reasons = "; ".join(f"{k}: {v}" for k, v in rep.skipped.items())
        print(f"error: no method ran ({reasons})", file=sys.stderr)
    return 0 if rep.passed else 1


def cmd_corpus(args) -> int:
    caps = _caps_from_args(args)
    rep = corpus_mod.run_corpus(caps)
    if args.json:
        print(canonical_json(rep.to_json_dict()))
    else:
        for res in rep.results:
            status = "PASS" if res.passed else "FAIL"
            print(f"{status} {res.name} (methods: {', '.join(res.methods)})")
            for diff in res.diffs:
                print(f"     {diff}")
        print("all passed" if rep.passed else "FAILURES above")
    return 0 if rep.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclotome",
        description="exact weight distributions of trace-defined cyclic codes")
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("params", help="derived parameters and polynomials")
    _add_field_flags(sp, with_code=True)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_params)

    sp = subs.add_parser("periods", help="exact Gaussian periods of order L")
    _add_field_flags(sp, with_code=False)
    sp.add_argument("--L", type=int, required=True)
    sp.add_argument("--tallies", action="store_true",
                    help="also show raw trace-tally vectors")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_periods)

    sp = subs.add_parser("cyclonum", help="cyclotomic numbers of order L")
    _add_field_flags(sp, with_code=False)
    sp.add_argument("--L", type=int, required=True)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_cyclonum)

    sp = subs.add_parser("weights", help="weight distribution of one code")
    _add_field_flags(sp, with_code=True)
    sp.add_argument("--method", choices=("auto", "naive", "tsum", "closed"),
                    default="auto")
    sp.add_argument("--max-enum", type=_non_negative_int, default=None,
                    help=f"enumeration cap (also env {ENV_MAX_ENUM})")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_weights)

    sp = subs.add_parser("verify", help="run all feasible methods and compare")
    _add_field_flags(sp, with_code=True)
    sp.add_argument("--max-enum", type=_non_negative_int, default=None)
    sp.add_argument("--seed", type=_non_negative_int, default=None)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_verify)

    sp = subs.add_parser("corpus", help="run the six golden examples")
    sp.add_argument("--max-enum", type=_non_negative_int, default=None)
    sp.add_argument("--seed", type=_non_negative_int, default=None)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_corpus)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early; point it at devnull so the flush
        # at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except CyclotomeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        hint = "lower --max-enum or " if "max_enum" in vars(args) else ""
        print(f"error: out of memory; {hint}pick a smaller spec",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
