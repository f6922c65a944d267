"""Cyclotomic classes/numbers, exact periods, and the four closed forms."""

import cmath
import tracemalloc
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cyclotome.cyclotomy import (
    GaussianPeriodSet,
    _period_set,
    applicable_closed_form,
    cyclotomic_numbers,
    gaussian_periods,
    gaussian_periods_closed_form,
    imaginary_quadratic_class_number,
    legendre,
    semiprimitive_j,
    solve_index2_form,
)
from cyclotome.errors import BadL, InconsistentPeriods, NotADivisor
from cyclotome.gf import is_prime
from helpers import (
    GRID_TOWERS,
    cyclo_to_complex,
    cyclotomic_classes,
    float_periods,
    modified_period,
    tower,
)

T25 = tower(5, 1, 2, (2, 4, 1))
T27 = tower(3, 1, 3, (1, 2, 0, 1))
T49 = tower(7, 1, 2, (3, 6, 1))
T64 = tower(2, 1, 6, (1, 1, 0, 1, 1, 0, 1))
T343 = tower(7, 1, 3, (4, 0, 6, 1))

VARIANTS = ("order2", "order3", "semiprimitive", "index2")


class TestPeriodRows:
    # GaussianPeriodSet.values on hand-made count rows; the tower only
    # supplies eta_bar_zero, which these tests do not read
    @given(st.lists(st.integers(-9, 9), min_size=5, max_size=5),
           st.integers(-5, 5))
    def test_constant_shift_preserves_value(self, counts, k):
        shifted = tuple(c + k for c in counts)
        a, b = GaussianPeriodSet(T25, 1, np.array([counts, shifted])).values
        assert a == b
        assert hash(a) == hash(b)
        assert abs(cyclo_to_complex(5, counts)
                   - cyclo_to_complex(5, shifted)) < 1e-9

    def test_rationality_rule(self):
        ps = GaussianPeriodSet(T25, 3, np.array([[7, 2, 2, 2, 2],
                                                 [7, 2, 2, 2, 3],
                                                 [-4, 0, 0, 0, 0]]))
        assert ps.values == (5, (4, -1, -1, -1, 0), -4)
        assert ps.rational_values == (5, None, -4)
        assert GaussianPeriodSet(T27, 1, np.array([[0, 1, 2]])) \
            .rational_values == (None,)

    def test_int_comparison(self):
        assert GaussianPeriodSet(T27, 1, np.array([[1, 2, 2]])).values == \
            (-1,)

    def test_rows_are_a_read_only_int64_matrix(self):
        for tw, L in ((T27, 2), (T64, 7)):
            closed, _ = gaussian_periods_closed_form(tw, L)
            for rows in (gaussian_periods(tw, L).rows, closed.rows):
                assert rows.shape == (L, tw.p) and rows.dtype == np.int64
                with pytest.raises(ValueError):
                    rows[0, 0] += 1


class TestClasses:
    def test_sizes(self):
        assert cyclotomic_classes(T27, 1).class_size == 26
        assert cyclotomic_classes(T49, 2).class_size == 24
        table = cyclotomic_classes(T64, 7)
        assert table.class_size == 9
        for i in range(7):
            elems = list(table.class_elements(i))
            assert len(elems) == 9
            assert all(table.index_of(x) == i for x in elems)

    def test_not_a_divisor(self):
        with pytest.raises(NotADivisor):
            cyclotomic_classes(T27, 4)


class TestCyclotomicNumbers:
    def test_r9(self):
        m = cyclotomic_numbers(tower(3, 1, 2), 2)
        assert m.tolist() == [[1, 2], [2, 2]]  # r = 1 mod 4 branch

    def test_r27(self):
        m = cyclotomic_numbers(T27, 2)
        assert m.tolist() == [[6, 7], [6, 6]]  # r = 3 mod 4 branch

    def test_order_one(self):
        assert cyclotomic_numbers(T27, 1).tolist() == [[25]]

    def test_total_is_r_minus_2(self):
        for tw, L in ((T49, 2), (T49, 3), (T64, 7), (T27, 13)):
            assert cyclotomic_numbers(tw, L).sum() == tw.r - 2

    # 3^12 at L = 2: nine chunks of 2^15 rows, the last partial; 2^20 at
    # L = 1023: chunks of L + 1 rows, the last one a single row; 3^4 at
    # L = 80: one row; at p = 2, x = 1 has x + 1 = 0, the spare column
    @pytest.mark.parametrize("p, d, L", [(3, 12, 2), (2, 20, 1023),
                                         (3, 4, 80), (2, 10, 33)])
    def test_chunked_tally_matches_one_bincount(self, p, d, L):
        tw = tower(p, 1, d)
        low = tw.exp % p
        ys = tw.exp - low + (low + 1) % p
        keep = ys != 0
        cls = np.arange(tw.r - 1) % L
        want = np.bincount(cls[keep] * L + tw.dlog[ys[keep]] % L,
                           minlength=L * L).reshape(L, L)
        assert cyclotomic_numbers(tw, L).tolist() == want.tolist()

    def test_peak_memory(self):
        # the tally reads the tables in chunks; r - 1 int64 class arrays
        # took 29 MB on this field
        tw = tower(2, 1, 20)
        tracemalloc.start()
        try:
            m = cyclotomic_numbers(tw, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert m.sum() == tw.r - 2
        assert peak <= 8 * 2 ** 20, f"traced peak {peak / 2**20:.1f} MB"


class TestExactPeriods:
    def test_order_one(self):
        assert gaussian_periods(T27, 1).rational_values == (-1,)

    def test_order_two_r49(self):
        assert gaussian_periods(T49, 2).rational_values == (3, -4)

    def test_order_seven_r64(self):
        ps = gaussian_periods(T64, 7)
        assert sorted(ps.rational_values) == [-3, -3, -3, 1, 1, 1, 5]
        assert ps.rational_values[0] == 5  # the subgroup class

    def test_matches_float_oracle(self):
        for tw, L in ((T27, 2), (T49, 2), (T49, 3), (T64, 7), (T343, 3),
                      (tower(3, 1, 4), 16)):
            fl = float_periods(tw, L)
            for row, z in zip(gaussian_periods(tw, L).rows, fl):
                assert abs(cyclo_to_complex(tw.p, row) - z) < 1e-6

    # 3^12 at L = 365: nine chunks of 179 rows, the last partial; at
    # L = 40880 and on 1009^2 at L = 112, L p passes 2^16 and chunks are p
    # rows, the last one partial
    @pytest.mark.parametrize("p, d, L", [(3, 12, 365), (3, 12, 40880),
                                         (1009, 2, 112)])
    def test_chunked_tally_matches_one_bincount(self, p, d, L):
        tw = tower(p, 1, d)
        cls = np.arange(tw.r - 1) % L
        want = np.bincount(cls * p + tw.trace_p_vector[tw.exp],
                           minlength=L * p).reshape(L, p)
        assert gaussian_periods(tw, L).rows.tolist() == want.tolist()

    def test_sum_is_minus_one(self):
        for tw in (T27, T49, T64, tower(3, 1, 4), tower(5, 1, 2, (2, 4, 1))):
            for L in range(1, 20):
                if (tw.r - 1) % L == 0:
                    total = [sum(col) for col in
                             zip(*gaussian_periods(tw, L).rows)]
                    assert total[1:] == [total[1]] * (tw.p - 1)
                    assert total[0] - total[1] == -1

    def test_period_sum_check_catches_one_bumped_count(self):
        for tw, L in ((T27, 2), (T49, 3), (T64, 7), (tower(3, 1, 4), 16)):
            rows = gaussian_periods(tw, L).rows.copy()
            for i, c in np.ndindex(rows.shape):
                rows[i, c] += 1
                with pytest.raises(InconsistentPeriods):
                    _period_set(tw, L, rows.copy())
                rows[i, c] -= 1
            _period_set(tw, L, rows)

    @pytest.mark.parametrize("p, d, L", [(2, 6, 7), (7, 3, 3), (3, 4, 5),
                                         (5, 3, 31), (2, 8, 15)])
    def test_parseval_catches_a_move_that_keeps_the_sum(self, p, d, L):
        # +k on one integer period and -k on another keeps the sum at -1;
        # L sum eta_i^2 changes by 2 L k (eta_i - eta_j + k), so only the
        # swap k = eta_j - eta_i gets past the second-moment check
        tw = tower(p, 1, d)
        rows = gaussian_periods(tw, L).rows
        eta = rows[:, 0] - rows[:, 1]
        assert L * int(eta @ eta) == 1 + (L - 1) * tw.r
        for i, j in np.ndindex(L, L):
            for k in range(-3, 4):
                if i == j or k in (0, eta[j] - eta[i]):
                    continue
                moved = rows.copy()
                moved[i, 0] += k
                moved[j, 0] -= k
                with pytest.raises(InconsistentPeriods, match="Parseval"):
                    _period_set(tw, L, moved)

    def test_multiset_invariant_under_primitive_change(self):
        alt = tower(7, 1, 3)  # auto modulus differs from the pinned one
        assert alt.modulus != T343.modulus
        a = sorted(gaussian_periods(T343, 3).rational_values)
        b = sorted(gaussian_periods(alt, 3).rational_values)
        assert a == b == [-12, 2, 9]


class TestIntegerPeriods:
    def test_trace_zero_count_formula(self):
        # for L | (r-1)/(q-1), GF(q)* lies in C_0, and summing the character
        # over each coset z GF(q)* gives q [Tr_{r/q}(z) = 0] - 1; so every
        # period is eta_i = (q Z_i - |C_i|)/(q-1), Z_i = #{y in C_i : Tr = 0}
        pairs = 0
        for p, s, m in GRID_TOWERS:
            tw = tower(p, s, m)
            r, q = tw.r, tw.q
            M = (r - 1) // (q - 1)
            trace_zero = tw.trace_q_vector[tw.exp] == 0
            for L in (L for L in range(1, M + 1) if M % L == 0):
                Z = np.bincount(np.flatnonzero(trace_zero) % L, minlength=L)
                size = (r - 1) // L
                assert all((q * int(z) - size) % (q - 1) == 0 for z in Z)
                want = tuple((q * int(z) - size) // (q - 1) for z in Z)
                assert gaussian_periods(tw, L).rational_values == want, \
                    (p, s, m, L)
                pairs += 1
        assert pairs >= 120


class TestDistinctValues:
    def test_r64(self):
        groups = Counter(gaussian_periods(T64, 7).rational_values)
        assert sorted(groups.items()) == [(-3, 3), (1, 3), (5, 1)]

    def test_pairwise_distinct(self):
        # irrational values group by their normalized counts exactly as
        # their complex values do
        ps = gaussian_periods(tower(3, 1, 4), 16)
        groups = Counter(ps.values)
        assert sum(groups.values()) == 16
        assert None in ps.rational_values
        points = {complex(round(z.real, 6), round(z.imag, 6))
                  for z in (cyclo_to_complex(3, row) for row in ps.rows)}
        assert len(groups) == len(points)


class TestModifiedPeriod:
    def test_spec_values(self):
        ps = gaussian_periods(T49, 2)
        assert modified_period(ps, 0) == 24
        assert modified_period(ps, T49.gamma) == -4
        assert modified_period(ps, T49.gamma_pow(2)) == 3


class TestClassNumbers:
    def test_known_values(self):
        known = {7: 1, 11: 1, 23: 3, 31: 3, 47: 5, 71: 7, 163: 1}
        for L, h in known.items():
            assert imaginary_quadratic_class_number(L) == h

    def test_analytic_oracle(self):
        # h(-L) = (sum of (a|L) over 0 < a < L/2) / (2 - (2|L)) for prime
        # L = 3 mod 4, L > 3: an independent route to the same number
        for L in (7, 11, 19, 23, 31, 43, 47, 59, 67, 71, 79, 83, 103):
            s = sum(legendre(a, L) for a in range(1, (L + 1) // 2))
            h = s // (2 - legendre(2, L))
            assert imaginary_quadratic_class_number(L) == h

    def test_bad_l(self):
        for L in (3, 5, 13, 15, 21):
            with pytest.raises(BadL):
                imaginary_quadratic_class_number(L)


class TestIndex2Solver:
    def test_spec_triples(self):
        assert solve_index2_form(7, 2, 1) == (-1, 1)
        assert solve_index2_form(7, 11, 1) == (-4, 2)
        assert solve_index2_form(23, 2, 3) == (-3, 1)

    def test_constraints_hold(self):
        for L, p in ((7, 2), (7, 11), (11, 3), (23, 2), (23, 3)):
            h = imaginary_quadratic_class_number(L)
            a, b = solve_index2_form(L, p, h)
            assert a * a + L * b * b == 4 * p ** h
            assert b > 0 and b % p != 0
            assert a % L == (-2 * pow(p, (L - 1 + 2 * h) // 4, L)) % L


class TestClosedForms:
    def test_order2_even_power(self):
        ps, params = gaussian_periods_closed_form(T49, 2)
        assert ps.rational_values == (3, -4)
        assert params == {"variant": "order2", "branch": "even"}

    def test_order2_even_power_is_the_quadratic_gauss_sum(self):
        # the even branch is the semiprimitive form at L = 2 (j = 1); it
        # must give eta_0 = (-1 + sign sqrt(r)) / 2, sign = -1 at p = 1 mod 4
        # and -(-1)^(sm/2) at p = 3 mod 4, on every odd p < 400 and even
        # s m with r <= 2^62.  Only p, s, m and r are read, so no field is
        # built
        pairs = 0
        for p in (p for p in range(3, 400) if is_prime(p)):
            for sm in range(2, 63, 2):
                if p ** sm > 2 ** 62:
                    break
                bare = SimpleNamespace(p=p, s=1, m=sm, r=p ** sm)
                ps, params = gaussian_periods_closed_form(bare, 2)
                sign = -1 if p % 4 == 1 else -((-1) ** (sm // 2))
                eta0 = (-1 + sign * p ** (sm // 2)) // 2
                assert ps.rational_values == (eta0, -1 - eta0), (p, sm)
                assert params == {"variant": "order2", "branch": "even"}
                pairs += 1
        assert pairs == 338

    def test_order2_odd_power_is_irrational_but_exact(self):
        ps, params = gaussian_periods_closed_form(T27, 2)
        assert params["branch"] == "odd"
        assert ps.values == gaussian_periods(T27, 2).values
        assert ps.rational_values == (None, None)

    def test_order3_r343(self):
        ps, params = gaussian_periods_closed_form(T343, 3)
        assert sorted(ps.rational_values) == [-12, 2, 9]
        assert ps.rational_values[0] == 2  # subgroup class, gamma-free
        assert list(params) == ["variant", "c1", "d1"]
        assert abs(params["c1"]) == 1 and abs(params["d1"]) == 1
        assert params["c1"] % 3 == 2
        assert ps.values == gaussian_periods(T343, 3).values

    def test_order3_needs_hypotheses(self):
        # p = 5 = 2 mod 3: order 3 over GF(25) is semiprimitive, not order3
        _, params = gaussian_periods_closed_form(T25, 3)
        assert params["variant"] == "semiprimitive"

    def test_semiprimitive_branches(self):
        # general branch
        ps, params = gaussian_periods_closed_form(T25, 3)
        assert ps.rational_values == (3, -2, -2)
        assert params == {"variant": "semiprimitive", "branch": "general",
                          "j": 1, "v": 1}
        # all-odd branch: special value sits at class L/2
        ps2, params2 = gaussian_periods_closed_form(tower(3, 1, 2), 4)
        assert ps2.rational_values == (-1, -1, 2, -1)
        assert params2["branch"] == "all-odd"

    def test_index2_r64(self):
        ps, params = gaussian_periods_closed_form(T64, 7)
        assert ps.values == gaussian_periods(T64, 7).values
        # key order is part of the bytes of `periods` in text mode
        assert list(params.items()) == [
            ("variant", "index2"), ("h_L", 1), ("a_qf", -1), ("b_qf", 1),
            ("k", 2), ("P_k", -4), ("A_k", "-3/2"), ("B_k", "-1/2")]

    def test_index2_r243_L11(self):
        tw = tower(3, 1, 5)
        ps, params = gaussian_periods_closed_form(tw, 11)
        assert ps.values == gaussian_periods(tw, 11).values
        assert (params["h_L"], params["a_qf"], params["b_qf"]) == (1, 1, 1)

    def test_variant_detection(self):
        assert applicable_closed_form(T49, 2) == "order2"
        assert applicable_closed_form(T343, 3) == "order3"
        assert applicable_closed_form(tower(5, 1, 2, (2, 4, 1)), 3) == \
            "semiprimitive"
        assert applicable_closed_form(T64, 7) == "index2"
        assert applicable_closed_form(T27, 13) is None

    def test_not_a_divisor(self):
        with pytest.raises(NotADivisor):
            gaussian_periods_closed_form(T64, 2)

    def test_semiprimitive_scan_stops_at_sm(self):
        # for L | p^d - 1 the least j with p^j = -1 mod L is below
        # ord_L(p), a divisor of d: the scan to d finds what a scan to L does
        pairs = 0
        for p in (2, 3, 5, 7, 11, 13):
            d = 1
            while p ** d <= 10 ** 5:
                r1 = p ** d - 1
                for L in (L for L in range(3, r1 + 1) if r1 % L == 0):
                    unbounded = next((j for j in range(1, L + 1)
                                      if pow(p, j, L) == L - 1), None)
                    assert semiprimitive_j(p, L, d) == unbounded, (p, d, L)
                    pairs += 1
                d += 1
        assert pairs == 496


class TestApplicability:
    def test_rule_matches_the_forms_on_every_small_field(self):
        # every field p^d <= 5000 with p < 100 and every L | r - 1: the
        # closed form is None exactly where the rule names no variant, and
        # elsewhere it is the named variant and reproduces the oracle
        pairs, seen = 0, Counter()
        for p in (p for p in range(2, 100) if is_prime(p)):
            d = 1
            while p ** d <= 5000:
                tw = tower(p, 1, d)
                for L in range(1, tw.r):
                    if (tw.r - 1) % L:
                        continue
                    variant = applicable_closed_form(tw, L)
                    seen[variant] += 1
                    closed = gaussian_periods_closed_form(tw, L)
                    if variant is None:
                        assert closed is None, (p, d, L)
                    else:
                        assert closed[1]["variant"] == variant, (p, d, L)
                        assert closed[0].values == \
                            gaussian_periods(tw, L).values, (p, d, L)
                    pairs += 1
                d += 1
        assert pairs == 820  # 753 of them with L >= 2, plus L = 1 per field
        assert set(seen) == set(VARIANTS) | {None}

    @pytest.mark.parametrize("p, d, L", [(29, 3, 7), (43, 3, 7), (2, 15, 31)])
    def test_residue_of_smaller_order_is_not_index2(self, p, d, L):
        # p is a square mod L, but ord_L(p) < (L-1)/2, so <p> has index
        # above 2 and the index-2 evaluation does not apply
        tw = tower(p, 1, d)
        order = next(k for k in range(1, L) if pow(p, k, L) == 1)
        assert legendre(p, L) == 1 and order < (L - 1) // 2
        assert applicable_closed_form(tw, L) is None
        assert gaussian_periods_closed_form(tw, L) is None
