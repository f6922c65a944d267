"""Parameter derivation, validity conditions, polynomials, codewords."""

import random
import time
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, strategies as st

from cyclotome import codes
from cyclotome.codes import (
    CodeSpec,
    build_polynomials,
    derive_params,
    independent_power_rows,
    validate_assumptions,
)
from cyclotome.corpus import golden_examples
from cyclotome.cyclotomy import gaussian_periods
from cyclotome.errors import (
    AssumptionViolated,
    DivisionNotExact,
    EDoesNotDivide,
    MinorBudgetExceeded,
)
from cyclotome.gf import SubfieldPolynomial
from cyclotome.weights import TAG_TLT_N1, TAG_UNSUPPORTED
from helpers import (
    GRID_TOWERS,
    classify_spec,
    codeword,
    codeword_weight_from_periods,
    criterion_grid,
    poly_mul_scalar,
    polynomials,
    polynomials_by_division,
    tower,
    tower_for,
    trace_to_q,
)

S1 = CodeSpec(3, 1, 3, 2, 2, 1, (0, 1), (1, 2, 0, 1))
S6 = CodeSpec(7, 1, 2, 3, 2, 2, (0, 1), (3, 6, 1))
S5 = CodeSpec(2, 1, 6, 7, 7, 1, tuple(range(7)), (1, 1, 0, 1, 1, 0, 1))


def setup_for(spec):
    tw = tower_for(spec)
    return tw, derive_params(tw, spec)


class TestDeriveParams:
    def test_known_examples(self):
        _, d1 = setup_for(S1)
        assert (d1.a_list, d1.delta, d1.n, d1.N) == ((1, 14), 1, 26, 1)
        _, d6 = setup_for(S6)
        assert (d6.a_list, d6.delta, d6.n, d6.N) == ((2, 18), 2, 24, 2)
        _, d5 = setup_for(S5)
        assert d5.a_list == (1, 10, 19, 28, 37, 46, 55)
        assert (d5.delta, d5.n, d5.N) == (1, 63, 7)

    def test_e_must_divide(self):
        sp = CodeSpec(3, 1, 3, 4, 2, 1, (0, 1))
        with pytest.raises(EDoesNotDivide):
            derive_params(tower_for(sp), sp)

    def test_divisibility_relation(self):
        # e * delta divides N * (q - 1) for every valid spec
        for spec in (S1, S6, S5, CodeSpec(5, 1, 3, 4, 3, 1, (0, 1, 2))):
            tw, d = setup_for(spec)
            assert (d.N * (tw.q - 1)) % (spec.e * d.delta) == 0

    def test_spec_shape_validation(self):
        with pytest.raises(ValueError):
            CodeSpec(3, 1, 3, 2, 2, 1, (0,))
        with pytest.raises(ValueError):
            CodeSpec(3, 1, 3, 2, 1, 1, (0,))


class TestValidateAssumptions:
    def test_all_hold_with_sqrt_shortcut(self):
        tw, d = setup_for(S1)
        rep = validate_assumptions(tw, S1, d)
        assert rep.all_hold and rep.iii_method == "sqrt-bound"

    def test_a_zero_fails_i(self):
        sp = CodeSpec(3, 1, 3, 2, 2, 26, (0, 1))
        tw, d = setup_for(sp)
        rep = validate_assumptions(tw, sp, d)
        assert not rep.cond_i

    def test_repeated_offsets_fail_ii(self):
        sp = CodeSpec(3, 1, 3, 2, 2, 1, (0, 0))
        tw, d = setup_for(sp)
        rep = validate_assumptions(tw, sp, d)
        assert not rep.cond_ii and "repeated" in rep.witnesses["ii"]

    def test_offset_gcd_fails_ii(self):
        sp = CodeSpec(5, 1, 2, 4, 2, 1, (0, 2))
        tw, d = setup_for(sp)
        rep = validate_assumptions(tw, sp, d)
        assert not rep.cond_ii

    def test_shared_coset_fails_iii(self):
        sp = CodeSpec(2, 1, 4, 5, 2, 3, (0, 1))
        tw, d = setup_for(sp)
        rep = validate_assumptions(tw, sp, d)
        assert rep.cond_i and rep.cond_ii and not rep.cond_iii
        assert rep.iii_method == "direct-only"


class TestIndependence:
    def test_consecutive_columns_independent(self):
        sp = CodeSpec(5, 1, 3, 4, 3, 1, (0, 1, 2), (3, 3, 0, 1))
        tw, d = setup_for(sp)
        assert independent_power_rows(tw, d)

    def test_square_case_is_vandermonde(self):
        tw, d = setup_for(S1)
        assert independent_power_rows(tw, d)

    def test_coincident_rows_detected(self):
        sp = CodeSpec(5, 1, 2, 4, 2, 1, (0, 2))
        tw, d = setup_for(sp)
        assert not independent_power_rows(tw, d)

    def test_sparse_offsets_can_fail(self):
        # valid conditions, yet three rows of the 7 x 3 matrix are dependent
        sp = CodeSpec(2, 3, 2, 7, 3, 1, (0, 1, 3))
        tw, d = setup_for(sp)
        assert validate_assumptions(tw, sp, d).all_hold
        assert not independent_power_rows(tw, d)

    def test_progression_criterion_never_skips_a_singular_minor(
            self, monkeypatch):
        # every t < e, N = 1 offset set over the grid towers with e <= 12
        # (N = 1 needs gcd((r-1)/(q-1), e) = 1).  Where the unit-step
        # criterion fires, the minors must all be invertible.  Shifting
        # every D_tau by c scales row h by omega^(c h), so one translate
        # per fired set is tested, with the criterion switched off
        fired, checked = {}, 0
        for p, s, m in GRID_TOWERS:
            tw = tower(p, s, m)
            r1 = tw.r - 1
            for e in range(3, 13):
                if r1 % e or gcd(r1 // (tw.q - 1), e) != 1:
                    continue
                for t in range(2, e):
                    for D in combinations(range(e), t):
                        sp = CodeSpec(p, s, m, e, t, 1, D)
                        d = derive_params(tw, sp)
                        assert d.N == 1
                        checked += 1
                        if codes._unit_step_progression(tw, d):
                            least = min(tuple(sorted((x - c) % e for x in D))
                                        for c in D)
                            fired[(p, s, m, e, least)] = tw
        assert checked > 2000 and len(fired) > 100
        monkeypatch.setattr(codes, "_unit_step_progression",
                            lambda tw, d: False)
        for (p, s, m, e, D), tw in fired.items():
            sp = CodeSpec(p, s, m, e, len(D), 1, D)
            assert independent_power_rows(tw, derive_params(tw, sp)), sp

    def test_wide_progression_classifies_at_once(self):
        # GF(2^20) over GF(2^10), e = 31, t = 15: C(31, 15) = 3.0e8 minors,
        # which the minor test would never finish
        sp = CodeSpec(2, 10, 2, 31, 15, 1, tuple(range(15)))
        tw, d = setup_for(sp)
        start = time.perf_counter()
        cl = classify_spec(tw, sp, d)
        assert time.perf_counter() - start < 1.0
        assert cl.tag == TAG_TLT_N1

    def test_minor_budget_bounds_classify(self, monkeypatch):
        # the same field and (e, t) with offsets 0, 2, 3, ..., 15, which are
        # no unit-step progression mod 31: classify ends at once
        tw = tower(2, 10, 2)
        sp = CodeSpec(2, 10, 2, 31, 15, 1, (0,) + tuple(range(2, 16)))
        d = derive_params(tw, sp)
        assert not codes._unit_step_progression(tw, d)
        start = time.perf_counter()
        assert classify_spec(tw, sp, d).tag == TAG_UNSUPPORTED
        assert time.perf_counter() - start < 1.0
        # with the criterion off, no minor of the progression 0, 2, ..., 28
        # is singular, so only the budget stops the test of C(31, 15)
        monkeypatch.setattr(codes, "_unit_step_progression",
                            lambda tw, d: False)
        sp = CodeSpec(2, 10, 2, 31, 15, 1, tuple(range(0, 30, 2)))
        d = derive_params(tw, sp)
        start = time.perf_counter()
        cl = classify_spec(tw, sp, d)
        assert time.perf_counter() - start < 1.0
        with pytest.raises(MinorBudgetExceeded):
            independent_power_rows(tw, d)
        assert cl.tag == TAG_UNSUPPORTED
        assert f"budget of {codes.MINOR_BUDGET}" in cl.reason

    def test_minor_budget_below_one_minor(self, monkeypatch):
        # t^3 > MINOR_BUDGET allows no minor, so the budget is exceeded
        # before the first one is tested, though C(7, 3) = 35 is small; a
        # budget of all 35 minors finds the singular one
        sp = CodeSpec(2, 3, 2, 7, 3, 1, (0, 1, 3))
        tw, d = setup_for(sp)
        tested = []
        det_is_zero = codes._det_is_zero
        monkeypatch.setattr(codes, "_det_is_zero",
                            lambda tw, mat: tested.append(1)
                            or det_is_zero(tw, mat))
        monkeypatch.setattr(codes, "MINOR_BUDGET", 3 ** 3 - 1)
        with pytest.raises(MinorBudgetExceeded):
            independent_power_rows(tw, d)
        assert tested == []
        assert classify_spec(tw, sp, d).tag == TAG_UNSUPPORTED
        monkeypatch.setattr(codes, "MINOR_BUDGET", 35 * 3 ** 3)
        assert not independent_power_rows(tw, d)


class TestPolynomials:
    def test_example_factors_and_product(self):
        tw, d = setup_for(S1)
        polys = polynomials(tw, S1, d)
        assert [f.gfp_coeffs() for f in polys.factors] == \
            [(1, 0, 2, 1), (2, 0, 1, 1)]
        assert polys.h.gfp_coeffs() == (2, 0, 2, 0, 2, 0, 1)

    def test_h_times_g_is_xn_minus_1(self):
        for spec in (S1, S6, CodeSpec(5, 1, 3, 4, 3, 1, (0, 1, 2))):
            tw, d = setup_for(spec)
            polys = polynomials(tw, spec, d)
            expected = [tw.neg(1)] + [0] * (d.n - 1) + [1]
            assert poly_mul_scalar(tw, polys.h.coeffs.tolist(),
                                   polys.g.coeffs.tolist()) == expected

    def test_degree_is_tm_under_condition_iii(self):
        tw, d = setup_for(S5)
        polys = polynomials(tw, S5, d)
        assert polys.h.degree == S5.t * S5.m
        assert polys.h.gfp_coeffs() == (1,) + (0,) * 20 + (1,) + (0,) * 20 + (1,)

    def test_assumption_violation_raises(self):
        sp = CodeSpec(2, 1, 4, 5, 2, 3, (0, 1))
        tw, d = setup_for(sp)
        with pytest.raises(AssumptionViolated):
            polynomials(tw, sp, d)


# beyond the goldens and the grid: GF(9^3), an s = 2 tower outside the
# grid, at delta = 2 and delta = 7; the prime field GF(7), where the field
# addition is (a + b) mod p; and GF(16) over itself (m = 1), where every
# minimal polynomial is linear
DIVISION_EXTRA = (CodeSpec(3, 2, 3, 7, 2, 2, (0, 1)),
                  CodeSpec(3, 2, 3, 8, 2, 7, (0, 1)),
                  CodeSpec(7, 1, 1, 3, 2, 1, (0, 1)),
                  CodeSpec(2, 4, 1, 5, 2, 1, (0, 1)))
DIVISION_SPECS = {
    "golden": tuple(ex.spec for ex in golden_examples()),
    "grid": tuple(sp for sp, _, _ in criterion_grid()),
    "extra": DIVISION_EXTRA,
}


class TestPolynomialsMatchDivision:
    """g read off as a codeword against the scalar long division."""

    @pytest.mark.parametrize("group", sorted(DIVISION_SPECS))
    def test_matches_long_division(self, group):
        for spec in DIVISION_SPECS[group]:
            tw, d = setup_for(spec)
            polys = polynomials(tw, spec, d)
            h, g = polynomials_by_division(tw, d)
            assert polys.h.serial() == SubfieldPolynomial(tw, h).serial()
            assert polys.g.serial() == SubfieldPolynomial(tw, g).serial()
            assert polys.g.coeffs.tolist() == list(g), spec

    def test_specs_cover_s2_and_delta_above_one(self):
        specs = [sp for group in DIVISION_SPECS.values() for sp in group]
        assert any(sp.s == 2 for sp in specs)
        assert any(derive_params(tower_for(sp), sp).delta > 1 for sp in specs)
        assert any(sp.s == 2 and derive_params(tower_for(sp), sp).delta > 1
                   for sp in DIVISION_EXTRA)

    @pytest.mark.parametrize("perturb", ["drop", "shift"])
    def test_perturbed_roots_raise(self, perturb, monkeypatch):
        # a wrong root list gives wrong h'(rho), so wrong lambda_j; h still
        # comes from min_poly, and the exactness check must catch g.  Not
        # on the m = 1 specs: there "drop" empties the root list, and in
        # GF(16) h'(rho) = gamma^-1 + gamma^-4 = 1, so lambda_j is unchanged
        coset = codes.cyclotomic_coset
        wrong = {"drop": lambda c: set(sorted(c)[1:]),
                 "shift": lambda c: {k + 1 for k in c}}[perturb]
        for spec in DIVISION_SPECS["golden"] + DIVISION_EXTRA[:2]:
            tw, d = setup_for(spec)
            report = validate_assumptions(tw, spec, d)
            monkeypatch.setattr(codes, "cyclotomic_coset",
                                lambda a, q, r: wrong(coset(a, q, r)))
            with pytest.raises(DivisionNotExact):
                build_polynomials(tw, d, report)
            monkeypatch.undo()


class TestCodewords:
    def test_zero_input(self):
        tw, d = setup_for(S1)
        assert codeword(tw, d, (0, 0)) == (0,) * 26

    def test_single_generator_weight(self):
        # symbols run over Tr(gamma^i): the kernel of the trace meets
        # GF(27)* in 8 points, so 26 - 8 symbols are nonzero
        tw, d = setup_for(S1)
        w = sum(1 for c in codeword(tw, d, (1, 0)) if c)
        kernel_nonzero = sum(
            1 for x in range(1, 27) if trace_to_q(tw, x) == 0)
        assert w == 26 - kernel_nonzero == 18

    def test_cyclic_shift_is_a_codeword(self):
        tw, d = setup_for(S6)
        rng = random.Random(7)
        for _ in range(5):
            x = tuple(rng.randrange(tw.r) for _ in range(d.t))
            cw = codeword(tw, d, x)
            shifted = (cw[-1],) + cw[:-1]
            x2 = tuple(tw.mul(xj, tw.gamma_pow(-aj))
                       for xj, aj in zip(x, d.a_list))
            assert codeword(tw, d, x2) == shifted

    def test_map_is_linear(self):
        tw, d = setup_for(S1)
        rng = random.Random(3)
        for _ in range(5):
            x = tuple(rng.randrange(27) for _ in range(2))
            y = tuple(rng.randrange(27) for _ in range(2))
            s = tuple(tw.add(a, b) for a, b in zip(x, y))
            cx, cy, cs = (codeword(tw, d, v) for v in (x, y, s))
            assert cs == tuple(tw.add(a, b) for a, b in zip(cx, cy))

    def test_injective_iff_condition_iii(self):
        # valid spec: all r^t inputs give distinct codewords
        sp = CodeSpec(2, 2, 2, 3, 2, 1, (0, 1))
        tw, d = setup_for(sp)
        assert validate_assumptions(tw, sp, d).all_hold
        words = {codeword(tw, d, (x1, x2))
                 for x1 in range(16) for x2 in range(16)}
        assert len(words) == 16 ** 2
        # condition iii broken: the map collapses
        sp2 = CodeSpec(2, 1, 4, 5, 2, 3, (0, 1))
        tw2, d2 = setup_for(sp2)
        words2 = {codeword(tw2, d2, (x1, x2))
                  for x1 in range(16) for x2 in range(16)}
        assert len(words2) < 16 ** 2


class TestWeightFromPeriods:
    def test_zero_input(self):
        tw, d = setup_for(S1)
        ps = gaussian_periods(tw, d.N)
        assert codeword_weight_from_periods(tw, d, ps, (0, 0)) == 0

    def test_matches_symbol_count_exhaustively(self):
        for spec in (S1, S6, CodeSpec(3, 1, 2, 2, 2, 1, (0, 1))):
            tw, d = setup_for(spec)
            ps = gaussian_periods(tw, d.N)
            for x1 in range(tw.r):
                for x2 in range(0, tw.r, 3):
                    x = (x1, x2)
                    wa = codeword_weight_from_periods(tw, d, ps, x)
                    wb = sum(1 for c in codeword(tw, d, x) if c)
                    assert wa == wb

    def test_matches_symbol_count_random_large(self):
        tw, d = setup_for(S5)
        ps = gaussian_periods(tw, 7)
        rng = random.Random(11)
        for _ in range(25):
            x = tuple(rng.randrange(64) for _ in range(7))
            assert codeword_weight_from_periods(tw, d, ps, x) == \
                sum(1 for c in codeword(tw, d, x) if c)

    def test_wrong_period_order_rejected(self):
        tw, d = setup_for(S1)
        with pytest.raises(ValueError):
            codeword_weight_from_periods(tw, d, gaussian_periods(tw, 2),
                                         (1, 0))

    def test_first_moment_identity_exhaustive(self):
        # summing weights over all inputs counts each coordinate's nonzero
        # fraction: n * r^t * (q-1)/q
        sp = CodeSpec(3, 1, 2, 2, 2, 1, (0, 1))
        tw, d = setup_for(sp)
        total = sum(
            sum(1 for c in codeword(tw, d, (x1, x2)) if c)
            for x1 in range(9) for x2 in range(9))
        assert total == d.n * 9 ** 2 * 2 // 3

    def test_repeated_long_word_weight(self):
        # the length-(r-1) word repeats the codeword delta times
        tw, d = setup_for(S6)
        x = (3, 11)
        cw = codeword(tw, d, x)
        powers = [tw.gamma_pow(ai) for ai in d.a_list]
        cur = list(x)
        long_w = 0
        for _ in range(tw.r - 1):
            acc = 0
            for xj in cur:
                acc = tw.add(acc, xj)
            if trace_to_q(tw, acc):
                long_w += 1
            cur = [tw.mul(xj, w) for xj, w in zip(cur, powers)]
        assert long_w == d.delta * sum(1 for c in cw if c)
