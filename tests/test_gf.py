"""Field tower construction, traces, minimal polynomials, cosets."""

import gc
import itertools
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cyclotome.errors import (
    GammaNotPrimitive,
    ModulusNotIrreducible,
    NotPrime,
    TowerTooLarge,
)
from cyclotome import gf
from cyclotome.cyclotomy import gaussian_periods
from cyclotome.gf import (
    DEFAULT_TABLE_CAP,
    SubfieldPolynomial,
    _build_field,
    build_field,
    cyclotomic_coset,
    default_modulus,
    is_irreducible,
    is_prime,
    min_poly,
    poly_mod,
    poly_mul_packed,
    smallest_primitive_root,
)
from helpers import (
    GRID_TOWERS,
    default_modulus_unpruned,
    digit_matrix,
    eval_poly,
    field_pow,
    in_subfield_q,
    poly_mul_scalar,
    poly_str_scalar,
    power_table_scalar,
    subfield_name,
    tower,
    trace_basis,
    trace_to_p,
    trace_to_q,
    trace_to_subfield,
)


T27 = tower(3, 1, 3, (1, 2, 0, 1))
T64 = tower(2, 1, 6, (1, 1, 0, 1, 1, 0, 1))
T81S2 = tower(3, 2, 2)


class TestBuildField:
    def test_known_towers(self):
        assert T27.r == 27 and T27.gamma == 3
        # gamma satisfies its modulus
        v = T27.add(T27.add(field_pow(T27, T27.gamma, 3),
                            T27.mul(2, T27.gamma)), 1)
        assert v == 0
        assert T64.r == 64

    def test_prime_field_default_gamma(self):
        t5 = tower(5, 1, 1)
        assert t5.gamma == 2 == smallest_primitive_root(5)

    def test_auto_modulus_deterministic(self):
        a = build_field(3, 1, 3)
        _build_field.cache_clear()  # else b would be a itself
        b = build_field(3, 1, 3)
        assert b is not a
        assert a.modulus == b.modulus
        assert np.array_equal(a.exp, b.exp)
        # degree >= 2: lexicographically least primitive polynomial
        assert a.modulus == default_modulus(3, 3)

    def test_not_prime(self):
        with pytest.raises(NotPrime):
            build_field(6, 1, 2)

    def test_reducible_modulus_rejected(self):
        with pytest.raises(ModulusNotIrreducible):
            build_field(3, 1, 2, modulus=(2, 0, 1))  # x^2 - 1

    def test_searched_modulus_is_tested_once(self, monkeypatch):
        # default_modulus returns only a modulus that passed is_irreducible,
        # so the build does not test it again; a given modulus is tested,
        # and a reducible one keeps its message
        calls = []
        real = gf.is_irreducible

        def counted(f, p):
            calls.append(tuple(f))
            return real(f, p)

        monkeypatch.setattr(gf, "is_irreducible", counted)
        gf._build_field.cache_clear()
        tw = build_field(2, 1, 8)
        assert calls.count(tw.modulus) == 1
        calls.clear()
        build_field(2, 1, 8, modulus=list(tw.modulus))
        assert calls == [tw.modulus]
        with pytest.raises(ModulusNotIrreducible,
                           match=r"\(2, 0, 1\) factors over GF\(3\)"):
            build_field(3, 1, 2, modulus=(2, 0, 1))

    def test_irreducible_but_not_primitive(self):
        # the power table is the only primitivity check of a given modulus
        for p, s, m, modulus in (
                (3, 1, 2, (1, 0, 1)),         # x^2 + 1: x has order 4 < 8
                (5, 1, 1, (1, 1)),            # x + 1: gamma = 4 has order 2
                (7, 1, 1, (5, 1)),            # x - 2: gamma = 2 has order 3
                (5, 1, 1, (0, 1)),            # x: gamma = 0
                (2, 1, 1, (0, 1)),
                (2, 1, 4, (1, 1, 1, 1, 1)),   # x^4 + ... + 1: x has order 5
                (2, 2, 2, (1, 1, 1, 1, 1))):
            with pytest.raises(GammaNotPrimitive):
                build_field(p, s, m, modulus=modulus)

    def test_table_cap(self):
        with pytest.raises(TowerTooLarge):
            build_field(2, 1, DEFAULT_TABLE_CAP.bit_length())

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            build_field(3, 1, 3, modulus=(1, 1))


class TestBuildFieldMemo:
    """build_field returns the tower of its last successful call again for
    equal arguments, and holds no other tower."""

    def test_equal_arguments_share_one_tower(self, monkeypatch):
        _build_field.cache_clear()
        searches = []
        search = gf.default_modulus
        monkeypatch.setattr(gf, "default_modulus",
                            lambda p, d: searches.append((p, d))
                            or search(p, d))
        a = build_field(3, 1, 3)
        assert build_field(3, 1, 3, modulus=None) is a
        assert searches == [(3, 3)]
        b = build_field(3, 1, 3, modulus=[1, 2, 0, 1])
        assert b is not a
        assert build_field(3, 1, 3, modulus=(1, 2, 0, 1)) is b
        assert build_field(3, 1, 3, modulus=[1, 2, 0, 1]) is b

    def test_replaced_tower_is_freed_by_refcount(self):
        _build_field.cache_clear()  # a fresh tower that no test cache holds
        tw = build_field(3, 1, 4)
        # fill every lazily built table, so none of them may point back
        tw.trace_p_vector, tw.trace_q_vector
        ref = weakref.ref(tw)
        del tw
        enabled = gc.isenabled()
        gc.disable()  # only reference counting may free it
        try:
            assert ref() is not None  # the memo holds it
            assert build_field(3, 1, 4) is ref()
            build_field(5, 1, 2)
            assert ref() is None
        finally:
            if enabled:
                gc.enable()

    def test_held_tower_is_dropped_before_the_next_tables(self, monkeypatch):
        # a miss must not build its tables while the previous tower is
        # still held, or both fields' tables are resident at once
        _build_field.cache_clear()
        tw = build_field(3, 1, 4)
        ref = weakref.ref(tw)
        del tw
        seen = []
        build_tables = gf.FieldTower._build_tables

        def spy(tower):
            seen.append(ref() is None)
            build_tables(tower)

        monkeypatch.setattr(gf.FieldTower, "_build_tables", spy)
        enabled = gc.isenabled()
        gc.disable()  # only reference counting may free it
        try:
            assert build_field(3, 1, 4) is ref()
            build_field(5, 1, 2)
        finally:
            if enabled:
                gc.enable()
        assert seen == [True]

    def test_failed_build_is_not_kept(self):
        _build_field.cache_clear()
        good = build_field(3, 1, 2)
        for _ in range(2):
            with pytest.raises(ModulusNotIrreducible):
                build_field(3, 1, 2, modulus=(2, 0, 1))  # x^2 - 1
        assert build_field(3, 1, 2) is good
        other = build_field(3, 1, 2, modulus=(2, 1, 1))
        assert other is not good and other.r == 9
        assert np.array_equal(other.dlog[other.exp], np.arange(8))


# every field with d >= 2 and p^d <= 5^6
SMALL_FIELDS = tuple(
    (p, d) for p in range(2, 126) if is_prime(p)
    for d in range(2, 14) if p ** d <= 5 ** 6)


class TestFieldConstruction:
    """The pruned modulus search and the blocked power table against the
    unpruned lexicographic scan and the scalar shift-and-reduce loop."""

    @pytest.mark.parametrize("p,d", SMALL_FIELDS)
    def test_pruned_search_matches_unpruned_scan(self, p, d):
        assert default_modulus(p, d) == default_modulus_unpruned(p, d)

    @pytest.mark.parametrize("p,d,modulus", [
        (7, 5, (2, 0, 0, 0, 2, 1)),
        (17, 4, (3, 0, 0, 6, 1)),
        (5, 7, (2, 0, 0, 0, 0, 0, 1, 1)),
        (7, 6, (3, 0, 0, 0, 1, 1, 1)),
        (5, 8, (2, 0, 0, 0, 0, 0, 2, 1, 1)),
        (3, 12, (2, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 2, 1)),
    ])
    def test_pinned_moduli(self, p, d, modulus):
        assert default_modulus(p, d) == modulus

    # prime fields have one digit per linear-map step; 2^17 and 7^6 end on
    # a partial block of B = isqrt(r) powers
    @pytest.mark.parametrize("p,s,m", (
        [(p, 1, 1) for p in (2, 3, 5, 7, 13, 101)] + list(GRID_TOWERS)
        + [(2, 1, 16), (17, 1, 4), (2, 1, 17), (7, 1, 6)]))
    def test_power_table_matches_scalar(self, p, s, m):
        tw = build_field(p, s, m)
        ref = power_table_scalar(tw)
        assert tw.exp.dtype == ref.dtype
        assert np.array_equal(tw.exp, ref)

    def test_tables_are_read_only(self):
        # exp is a view of exp2: a write through it would change mul, inv
        # and gamma_pow on the cached tower that every caller shares
        tw = build_field(3, 2, 3)
        for name in ("exp", "exp2", "dlog", "trace_p_vector",
                     "trace_q_vector"):
            table = getattr(tw, name)
            assert not table.flags.writeable, name
            with pytest.raises(ValueError):
                table[1] = table[1]


class TestArithmetic:
    def test_dlog_roundtrip_exhaustive(self):
        for tw in (T27, T64, tower(7, 1, 2, (3, 6, 1))):
            for x in range(1, tw.r):
                assert tw.gamma_pow(tw.dlog_of(x)) == x
            assert sorted(tw.dlog[1:]) == list(range(tw.r - 1))

    @given(st.integers(0, 26), st.integers(0, 26))
    def test_frobenius_is_additive_and_multiplicative(self, x, y):
        tw = T27
        fx, fy = field_pow(tw, x, 3), field_pow(tw, y, 3)
        assert field_pow(tw, tw.add(x, y), 3) == tw.add(fx, fy)
        assert field_pow(tw, tw.mul(x, y), 3) == tw.mul(fx, fy)

    @given(st.integers(0, 80), st.integers(0, 80))
    def test_add_matches_coefficient_sum(self, x, y):
        tw = T81S2
        cs = tuple((a + b) % 3 for a, b in zip(tw.coeffs(x), tw.coeffs(y)))
        assert tw.coeffs(tw.add(x, y)) == cs

    def test_add_arrays_matches_scalar(self):
        # p = 2 (XOR); radix-p^j chunks with j = d // 2: one digit per chunk
        # (d = 2, 3), chunks of equal length (3^12: 6 + 6, 3^4: 2 + 2) and a
        # short last chunk (5^7: 3 + 3 + 1, 7^5: 2 + 2 + 1), over p < 256,
        # 257 and 1447; d = 1 adds (a + b) mod p, with sums past 2^15,
        # 2^16 and 2^21
        for field in [(3, 1, 3), (2, 1, 6), (3, 2, 2), (17, 1, 2),
                      (257, 1, 2), (1447, 1, 2), (5, 1, 7), (7, 1, 5),
                      (3, 1, 12), (40009, 1, 1), (65537, 1, 1),
                      (2097143, 1, 1)]:
            tw = tower(*field)
            rng = np.random.default_rng(field[0])
            xs = np.concatenate([np.arange(min(tw.r, 64)),
                                 rng.integers(0, tw.r, 200), [tw.r - 1]])
            ys = np.concatenate([rng.integers(0, tw.r, xs.size - 1),
                                 [tw.r - 1]])
            got = tw.add_arrays(xs, ys)
            assert [tw.add(int(x), int(y)) for x, y in zip(xs, ys)] \
                == list(got), field
            # broadcasting, as the sweep composes its tables
            grid = tw.add_arrays(xs[:5], ys[:3, None])
            assert [[tw.add(int(x), int(y)) for x in xs[:5]]
                    for y in ys[:3]] == grid.tolist(), field

    @pytest.mark.parametrize("field,dtype", [
        ((3, 1, 3), np.uint8), ((1447, 1, 2), np.uint16),
        ((65537, 1, 1), np.int64)])
    def test_digit_matrix_dtype(self, field, dtype):
        # the digit table behind the test oracles' additions
        tw = tower(*field)
        dm = digit_matrix(tw)
        assert dm.dtype == dtype and dm.shape == (tw.r, tw.degree)
        for x in (0, 1, tw.p - 1, tw.r // 2, tw.r - 1):
            assert tuple(int(c) for c in dm[x]) == tw.coeffs(x)


class TestTraces:
    def test_trace_of_zero(self):
        assert trace_to_p(T27, 0) == 0 and trace_to_q(T27, 0) == 0

    def test_kernel_size(self):
        # the trace to GF(p) is a surjective GF(p)-linear map
        ker = sum(1 for x in range(27) if trace_to_p(T27, x) == 0)
        assert ker == 27 // 3
        ker_q = sum(1 for x in range(81) if trace_to_q(T81S2, x) == 0)
        assert ker_q == 81 // 9

    def test_trace_fixed_field_multiple(self):
        # Tr_{r/q}(c) = m*c for c in GF(q)
        for c in range(3):
            assert trace_to_q(T27, c) == T27.mul(3 % 3, c)  # m = 3 = 0 mod 3
        tw = tower(7, 1, 2, (3, 6, 1))
        for c in range(7):
            assert trace_to_q(tw, c) == tw.mul(2, c)

    def test_trace_matches_conjugate_sum(self):
        for tw in (T27, T81S2):
            for x in range(0, tw.r, 7):
                acc = 0
                for i in range(tw.degree):
                    acc = tw.add(acc, field_pow(tw, x, tw.p ** i))
                assert trace_to_p(tw, x) == acc
                accq = 0
                for i in range(tw.m):
                    accq = tw.add(accq, field_pow(tw, x, tw.q ** i))
                assert trace_to_q(tw, x) == accq
                assert in_subfield_q(tw, trace_to_q(tw, x))

    def test_trace_linear_over_subfield(self):
        tw = T81S2
        c = tw.gamma_pow((tw.r - 1) // (tw.q - 1))  # generates GF(q)*
        for x in (5, 17, 60):
            assert (trace_to_q(tw, tw.mul(c, x))
                    == tw.mul(c, trace_to_q(tw, x)))

    def test_trace_vectors_match_scalars(self):
        # (2, 2, 5) and (3, 2, 3) are s > 1 towers: Tr_{r/q} steps by q = p^2
        for tw in (T27, T64, T81S2, tower(2, 2, 5), tower(3, 2, 3)):
            assert [trace_to_p(tw, x) for x in range(tw.r)] == \
                list(tw.trace_p_vector)
            assert [trace_to_q(tw, x) for x in range(tw.r)] == \
                list(tw.trace_q_vector)

    @pytest.mark.parametrize("field", [
        (2, 1, 20), (3, 1, 12), (5, 1, 7), (17, 1, 4), (1447, 1, 2)])
    def test_trace_p_vector_matches_digit_matrix_form(self, field):
        # the former digit_matrix @ basis form, in row blocks so the test
        # holds no (r, d) int64 copy either
        tw = tower(*field)
        basis = np.array(trace_basis(tw), dtype=np.int64)
        dm = digit_matrix(tw)
        got = tw.trace_p_vector
        for lo in range(0, tw.r, 1 << 16):
            want = (dm[lo:lo + (1 << 16)].astype(np.int64) @ basis) % tw.p
            np.testing.assert_array_equal(got[lo:lo + (1 << 16)], want)

    @pytest.mark.parametrize("p,d,modulus", [
        (2, 20, None), (3, 12, (2, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 2, 1))])
    def test_table_and_trace_peak_memory(self, p, d, modulus):
        # on 2^20: the int32 power table written out twice (8 MB), the int32
        # dlog (4 MB), the byte-wide Tr_{r/p}, which is Tr_{r/q} at s = 1,
        # and one int32 linear map at a time in the build, the trace vector
        # written in its own dtype; then the order-3 periods, counted from
        # the byte-wide traces.  13.7 and 15.2 MB measured, bound with
        # about 1.8 MB to spare; 19.3 and 16.6 MB with a second, uint32
        # copy of Tr_{r/p} as Tr_{r/q}, and 21.0 and 23.5 MB with two
        # linear maps held and the traces cast from int32 tables.  An
        # (r, d) int64 digit matrix alone would be 168 MB
        modulus = modulus or default_modulus(p, d)
        _build_field.cache_clear()  # a held tower would measure about 0 B
        tracemalloc.start()
        try:
            tw = build_field(p, 1, d, modulus=modulus)
            tw.trace_p_vector, tw.trace_q_vector
            gaussian_periods(tw, 3 if p == 2 else 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 17 * 2 ** 20, f"traced peak {peak / 2**20:.1f} MB"

    def test_trace_q_vector_at_s1_is_trace_p_vector(self):
        # Tr_{r/q} is Tr_{r/p} at s = 1: one cached table, whose values are
        # those of the map k = s tabulated in the least dtype for r - 1
        for p, s, m in GRID_TOWERS:
            tw = tower(p, s, m)
            own = tw._trace_vector(s, tw.r - 1)
            assert (tw.trace_q_vector is tw.trace_p_vector) == (s == 1)
            np.testing.assert_array_equal(tw.trace_q_vector, own)

    def test_dispatcher(self):
        assert trace_to_subfield(T27, 5, "p") == trace_to_p(T27, 5)
        assert trace_to_subfield(T27, 5, "q") == trace_to_q(T27, 5)
        with pytest.raises(ValueError):
            trace_to_subfield(T27, 5, "z")


def _brute_irreducible(f, p):
    d = len(f) - 1
    if d < 1:
        return False
    for dd in range(1, d // 2 + 1):
        for tail in itertools.product(range(p), repeat=dd):
            if poly_mod(f, tail + (1,), p) == ():
                return False
    return True


class TestIrreducibility:
    def test_known_cases(self):
        assert is_irreducible((1, 2, 0, 1), 3)        # x^3 + 2x + 1
        assert not is_irreducible((2, 0, 1), 3)       # x^2 - 1
        assert is_irreducible((1, 0, 0, 0, 0, 1, 1), 2)  # x^6 + x^5 + 1
        assert not is_irreducible((1,), 3)            # unit
        assert is_irreducible((4, 1), 5)              # linear

    @given(st.integers(0, 3 ** 4 - 1))
    def test_matches_brute_force_gf3(self, packed):
        cs = []
        for _ in range(4):
            packed, c = divmod(packed, 3)
            cs.append(c)
        f = tuple(cs) + (1,)
        assert is_irreducible(f, 3) == _brute_irreducible(f, 3)


class TestMinPoly:
    def test_printed_factors(self):
        assert min_poly(T27, field_pow(T27, T27.gamma, -1)).coeffs.tolist() \
            == [1, 0, 2, 1]
        assert min_poly(T27, field_pow(T27, T27.gamma, -14)).coeffs.tolist() \
            == [2, 0, 1, 1]

    def test_one(self):
        mp = min_poly(T27, 1)
        assert mp.coeffs.tolist() == [2, 1]  # x - 1

    def test_root_and_frobenius_invariance(self):
        for k in (1, 5, 14, 20):
            b = T27.gamma_pow(k)
            mp = min_poly(T27, b)
            assert eval_poly(mp, b) == 0
            assert min_poly(T27, field_pow(T27, b, 3)).coeffs.tolist() \
                == mp.coeffs.tolist()
            assert mp.degree == len(cyclotomic_coset(k, 3, 27))

    def test_coefficient_outside_subfield_rejected(self):
        gamma = T81S2.gamma
        with pytest.raises(ValueError,
                           match=rf"^coefficient {gamma} is not in GF\(q\)$"):
            SubfieldPolynomial(T81S2, (gamma, 1))

    def test_subfield_test_matches_powering(self):
        # the log test (0, or log c = 0 mod (r-1)/(q-1)) against c^q = c
        for tw in (T27, T81S2, tower(2, 2, 3)):
            for c in range(tw.r):
                if in_subfield_q(tw, c):
                    SubfieldPolynomial(tw, (1, c, 1))
                else:
                    with pytest.raises(ValueError, match=f"coefficient {c} "):
                        SubfieldPolynomial(tw, (1, c, 1))

    @pytest.mark.parametrize("field", [(2, 1, 6), (7, 1, 1), (3, 2, 2),
                                       (5, 1, 3)])
    def test_packed_product_matches_scalar(self, field):
        tw = tower(*field)
        rng = np.random.default_rng(tw.r)
        for la, lb in ((1, 1), (1, 5), (4, 9), (9, 4), (7, 7)):
            a = rng.integers(0, tw.r, la).tolist()
            b = rng.integers(0, tw.r, lb).tolist()
            b[0] = 0  # a zero coefficient in the longer factor
            assert poly_mul_packed(tw, a, b).tolist() \
                == poly_mul_scalar(tw, a, b)

    def test_subfield_coefficients_s2(self):
        mp = min_poly(T81S2, field_pow(T81S2, T81S2.gamma, -1))
        assert mp.degree == 2
        assert all(in_subfield_q(T81S2, c) for c in mp.coeffs)
        with pytest.raises(ValueError):
            mp.gfp_coeffs()  # coefficients live in GF(9), not GF(3)


class TestCosets:
    def test_examples(self):
        assert cyclotomic_coset(1, 3, 27) == {1, 3, 9}
        assert cyclotomic_coset(0, 3, 27) == {0}
        assert cyclotomic_coset(1, 3, 27).isdisjoint(
            cyclotomic_coset(14, 3, 27))

    def test_size_divides_m(self):
        for a in range(26):
            assert 3 % len(cyclotomic_coset(a, 3, 27)) == 0


class TestFormatting:
    def test_gfp_serial(self):
        mp = min_poly(T27, field_pow(T27, T27.gamma, -1))
        assert mp.serial() == "1,0,2,1"
        assert str(mp) == "x^3 + 2x^2 + 1"

    def test_subfield_power_format(self):
        g = T81S2.gamma_pow((T81S2.r - 1) // (T81S2.q - 1))
        poly = SubfieldPolynomial(T81S2, (g, T81S2.mul(g, g), 2, 0, g, 1))
        assert poly.serial() == "g,g^2,2,0,g,1"
        assert str(poly) == "x^5 + (g)x^4 + 2x^2 + (g^2)x + g"

    @pytest.mark.parametrize("field", [(3, 2, 2), (2, 4, 1), (3, 1, 3),
                                       (2, 2, 3), (5, 2, 1)])
    def test_names_match_scalar_reference(self, field):
        # one name per distinct value, spread by index, against naming each
        # coefficient on its own; m = 1 has q = r, so every element is named
        tw = tower(*field)
        step = (tw.r - 1) // (tw.q - 1)
        members = [0] + [tw.gamma_pow(step * k) for k in range(tw.q - 1)]
        rng = np.random.default_rng(tw.r)
        for size in (1, 2, 5, 60):
            coeffs = [members[i] for i in rng.integers(0, tw.q, size - 1)]
            coeffs.append(1)
            poly = SubfieldPolynomial(tw, coeffs)
            assert poly.serial() == ",".join(
                subfield_name(tw, c) for c in coeffs)
            assert str(poly) == poly_str_scalar(tw, coeffs)
            for terms in (1, 2, 7):
                assert "".join(poly.str_chunks(terms)) == str(poly)

    def test_coefficients_are_read_only(self):
        mp = min_poly(T27, field_pow(T27, T27.gamma, -1))
        with pytest.raises(ValueError, match="read-only"):
            mp.coeffs[0] = 2
        assert mp.coeffs.dtype == T27.exp2.dtype
