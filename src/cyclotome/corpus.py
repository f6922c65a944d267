"""Six end-to-end golden fixtures with every expected value pinned.

Each fixture fixes the field modulus, so the minimal polynomials and the
parity-check polynomial are reproduced character for character, and pins
the derived parameters, [n, kappa, d], the classification, and the full
weight enumerator.  run_example() runs one cross_verify, which derives,
validates and classifies the spec once; it diffs the report's derived
parameters against the pins, builds the polynomials from the report's
assumptions and diffs them, then diffs the rest of the report: the
classification, every method's enumerator, kappa, d, the counting
invariants and the sampling verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .codes import CodeSpec, build_polynomials, build_tower
from .weights import Caps, cross_verify


@dataclass(frozen=True)
class GoldenExample:
    name: str
    spec: CodeSpec
    a_list: tuple[int, ...]
    delta: int
    n: int
    N: int
    h_factors: tuple[tuple[int, ...], ...]  # ascending GF(p) coefficients
    h: tuple[int, ...]
    kappa: int
    d: int
    classification_tag: str
    period_source: str | None
    enumerator: tuple[tuple[int, int], ...]  # (weight, frequency), ascending


def golden_examples() -> tuple[GoldenExample, ...]:
    return (
        GoldenExample(
            name="ternary [26,6,9], two full columns",
            spec=CodeSpec(3, 1, 3, 2, 2, 1, (0, 1), (1, 2, 0, 1)),
            a_list=(1, 14), delta=1, n=26, N=1,
            h_factors=((1, 0, 2, 1), (2, 0, 1, 1)),
            h=(2, 0, 2, 0, 2, 0, 1),
            kappa=6, d=9,
            classification_tag="t=e,N=1", period_source=None,
            enumerator=((0, 1), (9, 52), (18, 676)),
        ),
        GoldenExample(
            name="GF(7) [48,4,18], N=2",
            spec=CodeSpec(7, 1, 2, 2, 2, 1, (0, 1), (3, 6, 1)),
            a_list=(1, 25), delta=1, n=48, N=2,
            h_factors=((5, 2, 1), (5, 5, 1)),
            h=(4, 0, 6, 0, 1),
            kappa=4, d=18,
            classification_tag="t=e,N>=2", period_source="order2",
            enumerator=((0, 1), (18, 48), (24, 48), (36, 576),
                        (42, 1152), (48, 576)),
        ),
        GoldenExample(
            name="GF(5) [24,6,4], semiprimitive N=3",
            spec=CodeSpec(5, 1, 2, 3, 3, 1, (0, 1, 2), (2, 4, 1)),
            a_list=(1, 9, 17), delta=1, n=24, N=3,
            h_factors=((3, 2, 1), (3, 0, 1), (3, 3, 1)),
            h=(2, 0, 0, 0, 0, 0, 1),
            kappa=6, d=4,
            classification_tag="t=e,N>=2", period_source="semiprimitive",
            enumerator=((0, 1), (4, 24), (8, 240), (12, 1280),
                        (16, 3840), (20, 6144), (24, 4096)),
        ),
        GoldenExample(
            name="GF(7) [342,9,90], N=3 with p=1 mod 3",
            spec=CodeSpec(7, 1, 3, 3, 3, 1, (0, 1, 2), (4, 0, 6, 1)),
            a_list=(1, 115, 229), delta=1, n=342, N=3,
            h_factors=((2, 5, 0, 1), (2, 3, 0, 1), (2, 6, 0, 1)),
            h=(1, 0, 0, 4, 0, 0, 6, 0, 0, 1),
            kappa=9, d=90,
            classification_tag="t=e,N>=2", period_source="order3",
            enumerator=((0, 1), (90, 342), (96, 342), (108, 342),
                        (180, 38988), (186, 77976), (192, 38988),
                        (198, 77976), (204, 77976), (216, 38988),
                        (270, 1481544), (276, 4444632), (282, 4444632),
                        (288, 5926176), (294, 8889264), (300, 4444632),
                        (306, 4444632), (312, 4444632), (324, 1481544)),
        ),
        GoldenExample(
            name="binary [63,42,2], index-2 N=7",
            spec=CodeSpec(2, 1, 6, 7, 7, 1, (0, 1, 2, 3, 4, 5, 6),
                          (1, 1, 0, 1, 1, 0, 1)),
            a_list=(1, 10, 19, 28, 37, 46, 55), delta=1, n=63, N=7,
            h_factors=((1, 0, 1, 1, 0, 1, 1), (1, 0, 0, 0, 0, 1, 1),
                       (1, 1, 1, 0, 0, 1, 1), (1, 0, 0, 1, 0, 0, 1),
                       (1, 1, 0, 0, 1, 1, 1), (1, 1, 0, 0, 0, 0, 1),
                       (1, 1, 0, 1, 1, 0, 1)),
            h=(1,) + (0,) * 20 + (1,) + (0,) * 20 + (1,),
            kappa=42, d=2,
            classification_tag="t=e,N>=2", period_source="index2",
            enumerator=((0, 1), (2, 63), (4, 1890), (6, 35910),
                        (8, 484785), (10, 4944807), (12, 39558456),
                        (14, 254304360), (16, 1335097890),
                        (18, 5785424190), (20, 20827527084),
                        (22, 62482581252), (24, 156206453130),
                        (26, 324428787270), (28, 556163635320),
                        (30, 778629089448), (32, 875957725629),
                        (34, 772903875555), (36, 515269250370),
                        (38, 244074908070), (40, 73222472421),
                        (42, 10460353203)),
        ),
        GoldenExample(
            name="GF(7) [24,4,12], e=3 t=2 N=2",
            spec=CodeSpec(7, 1, 2, 3, 2, 2, (0, 1), (3, 6, 1)),
            a_list=(2, 18), delta=2, n=24, N=2,
            h_factors=((4, 6, 1), (1, 3, 1)),
            h=(4, 4, 2, 2, 1),
            kappa=4, d=12,
            classification_tag="e=3,t=2,N=2", period_source=None,
            enumerator=((0, 1), (12, 72), (16, 72), (18, 264),
                        (20, 864), (22, 864), (24, 264)),
        ),
    )


@dataclass
class ExampleResult:
    name: str
    diffs: list = field(default_factory=list)
    methods: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.diffs

    def to_json_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed,
                "methods": list(self.methods), "diffs": list(self.diffs)}


@dataclass
class CorpusReport:
    results: list

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_json_dict(self) -> dict:
        return {"passed": self.passed,
                "results": [r.to_json_dict() for r in self.results]}


def _diff(diffs: list, what: str, got, want) -> None:
    if got != want:
        diffs.append(f"{what}: got {got!r}, expected {want!r}")


def run_example(ex: GoldenExample, caps: Caps = Caps()) -> ExampleResult:
    res = ExampleResult(name=ex.name)
    rep = cross_verify(ex.spec, caps)
    derived = rep.derived
    _diff(res.diffs, "a_i", derived.a_list, ex.a_list)
    _diff(res.diffs, "delta", derived.delta, ex.delta)
    _diff(res.diffs, "n", derived.n, ex.n)
    _diff(res.diffs, "N", derived.N, ex.N)

    # build_field keeps the tower cross_verify built, so this is no rebuild
    polys = build_polynomials(build_tower(ex.spec), derived, rep.assumptions)
    _diff(res.diffs, "h factors",
          tuple(f.gfp_coeffs() for f in polys.factors), ex.h_factors)
    _diff(res.diffs, "h", polys.h.gfp_coeffs(), ex.h)

    cl = rep.classification
    _diff(res.diffs, "classification", cl.tag, ex.classification_tag)
    if ex.period_source is not None:
        _diff(res.diffs, "period source", cl.period_source, ex.period_source)

    for method, label in (("closed", "closed-form"), ("tsum", "period-sum"),
                          ("naive", "naive")):
        if method in rep.distributions:
            res.methods.append(method)
            _diff(res.diffs, f"{label} enumerator",
                  rep.distributions[method].entries, ex.enumerator)

    _diff(res.diffs, "kappa", rep.kappa, ex.kappa)
    _diff(res.diffs, "d", rep.d, ex.d)
    res.diffs.extend(rep.invariant_failures)
    if rep.sampling is not None:
        _diff(res.diffs, "sampling ok", rep.sampling["ok"], True)
    return res


def run_corpus(caps: Caps = Caps()) -> CorpusReport:
    return CorpusReport([run_example(ex, caps) for ex in golden_examples()])
