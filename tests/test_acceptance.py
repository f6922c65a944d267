"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import time
from math import comb

import pytest

from cyclotome.codes import CodeSpec, derive_params, validate_assumptions
from cyclotome.corpus import golden_examples, run_example
from cyclotome.cyclotomy import (
    cyclotomic_numbers,
    gaussian_periods,
    gaussian_periods_closed_form,
)
from cyclotome.gf import build_field, factorize, is_prime
from cyclotome.weights import (
    Caps,
    TAG_E3T2N2,
    TAG_TE_N1,
    TAG_TE_N2,
    TAG_TLT_N1,
    classify,
    cross_verify,
    wd_closed,
    wd_naive,
    wd_tsum,
)
from helpers import criterion_grid, tower, tower_for

S5 = CodeSpec(2, 1, 6, 7, 7, 1, tuple(range(7)), (1, 1, 0, 1, 1, 0, 1))


def odd_prime_powers(limit):
    out = []
    for p in range(3, limit + 1, 2):
        if not is_prime(p):
            continue
        r, k = p, 1
        while r <= limit:
            out.append((p, k, r))
            r *= p
            k += 1
    return sorted(out, key=lambda t: t[2])


@pytest.fixture(scope="module")
def grid_results():
    """All three distributions for every grid spec, computed once."""
    records = []
    for sp, d, cl in criterion_grid():
        tw = tower_for(sp)
        records.append({
            "spec": sp, "derived": d, "classification": cl, "tower": tw,
            "naive": wd_naive(tw, d, cap=10 ** 6),
            "tsum": wd_tsum(tw, d, cap=10 ** 6),
            "closed": wd_closed(tw, d, cl),
        })
    return records


def test_criterion_1_golden_corpus_exact():
    budgets = [1.0, 1.0, 1.0, 300.0, 1.0, 1.0]
    for ex, budget in zip(golden_examples(), budgets):
        t0 = time.time()
        res = run_example(ex)
        elapsed = time.time() - t0
        assert res.passed, (ex.name, res.diffs)
        assert elapsed < budget, (ex.name, elapsed, budget)
        print(f"  {ex.name}: exact via {res.methods} in {elapsed:.2f}s")
    print("ACCEPTANCE 1 golden corpus, exact: PASS")


def test_criterion_2_three_way_agreement(grid_results):
    assert len(grid_results) >= 50
    categories = set()
    for rec in grid_results:
        sp, cl = rec["spec"], rec["classification"]
        assert sp.r <= 3000 and sp.r ** sp.t <= 10 ** 6
        assert rec["naive"].entries == rec["tsum"].entries \
            == rec["closed"].entries, (sp, cl)
        categories.add((cl.tag, cl.period_source))
    # required span: N=1, N=2, semiprimitive, t=e and t<e
    assert (TAG_TE_N1, None) in categories
    assert (TAG_TE_N2, "order2") in categories
    assert (TAG_TE_N2, "semiprimitive") in categories
    assert (TAG_TLT_N1, None) in categories
    assert (TAG_E3T2N2, None) in categories
    print(f"ACCEPTANCE 2 three-way agreement on {len(grid_results)} specs "
          f"spanning {len(categories)} cases: PASS")


def test_criterion_3_order2_cyclotomic_numbers():
    checked = 0
    for p, k, r in odd_prime_powers(1000):
        tw = tower(p, 1, k)
        got = cyclotomic_numbers(tw, 2).tolist()
        if r % 4 == 1:
            want = [[(r - 5) // 4, (r - 1) // 4],
                    [(r - 1) // 4, (r - 1) // 4]]
        else:
            want = [[(r - 3) // 4, (r + 1) // 4],
                    [(r - 3) // 4, (r - 3) // 4]]
        assert got == want, (r, got, want)
        checked += 1
    assert checked >= 180
    print(f"ACCEPTANCE 3 order-2 cyclotomic numbers, {checked} odd prime "
          f"powers <= 1000, both branches: PASS")


def test_criterion_4_closed_forms_vs_oracle():
    # quadratic: every odd prime power r <= 2000 with an even exponent
    quad = 0
    for p, k, r in odd_prime_powers(2000):
        if k % 2:
            continue
        tw = tower(p, 1, k)
        closed, params = gaussian_periods_closed_form(tw, 2)
        assert params == {"variant": "order2", "branch": "even"}
        exact = gaussian_periods(tw, 2)
        assert closed.values == exact.values, r
        assert None not in exact.rational_values
        assert sorted(closed.rational_values) == sorted(exact.rational_values)
        quad += 1
    assert quad >= 16

    # cubic: the p = 1 mod 3 family, including the 7^6 field
    cubic_rs = []
    for (p, sm) in ((7, 3), (13, 3), (19, 3), (7, 6)):
        tw = tower(p, 1, sm)
        closed, params = gaussian_periods_closed_form(tw, 3)
        assert params["variant"] == "order3"
        exact = gaussian_periods(tw, 3)
        assert closed.values == exact.values
        assert 4 * p ** (sm // 3) == params["c1"] ** 2 + 27 * params["d1"] ** 2
        cubic_rs.append(tw.r)
    t343 = tower(7, 1, 3)
    ms = gaussian_periods_closed_form(t343, 3)[0].rational_values
    assert sorted(ms) == [-12, 2, 9]

    # semiprimitive: >= 10 (p, L, v) triples with r <= 10^6, both branches
    triples = [(2, 3, 2), (2, 3, 3), (2, 5, 1), (2, 9, 1), (2, 17, 1),
               (3, 4, 1), (3, 4, 2), (3, 4, 3), (3, 5, 1), (5, 3, 1),
               (5, 3, 2), (5, 13, 1), (5, 13, 2), (7, 4, 1), (13, 7, 1)]
    branches = set()
    for p, L, v in triples:
        j = next(j for j in range(1, L + 1) if pow(p, j, L) == L - 1)
        sm = 2 * j * v
        r = p ** sm
        assert r <= 10 ** 6
        tw = tower(p, 1, sm)
        closed, params = gaussian_periods_closed_form(tw, L)
        assert params["variant"] == "semiprimitive"
        assert closed.values == gaussian_periods(tw, L).values, (p, L, v)
        assert (params["j"], params["v"]) == (j, v)
        branches.add(params["branch"])
    assert len(triples) >= 10 and branches == {"all-odd", "general"}

    # index 2: the 64/7 instance plus L = 11 and L = 23 fields
    t64 = tower(2, 1, 6, (1, 1, 0, 1, 1, 0, 1))
    closed, params = gaussian_periods_closed_form(t64, 7)
    assert params["variant"] == "index2"
    assert sorted(closed.rational_values) == [-3, -3, -3, 1, 1, 1, 5]
    assert closed.values == gaussian_periods(t64, 7).values
    for (p, sm, L) in ((3, 5, 11), (2, 11, 23)):
        tw = tower(p, 1, sm)
        closed, params = gaussian_periods_closed_form(tw, L)
        assert params["variant"] == "index2"
        assert closed.values == gaussian_periods(tw, L).values, (p, sm, L)
        assert (params["a_qf"] ** 2 + L * params["b_qf"] ** 2
                == 4 * p ** params["h_L"])
    print(f"ACCEPTANCE 4 closed-form periods vs exact oracle "
          f"(order2 x{quad}, order3 r={cubic_rs}, semiprimitive "
          f"x{len(triples)}, index2 x3): PASS")


def test_criterion_5_invariant_suite(grid_results):
    checked = 0

    def check(tw, sp, d, cl, dist):
        nonlocal checked
        size = tw.r ** d.t
        assert dist.total == size
        assert dist.frequency_at_zero == 1
        assert dist.first_moment() == d.n * size * (tw.q - 1) // tw.q
        if cl.tag == TAG_TE_N1:
            assert dist.d == (tw.q - 1) * tw.r // (d.delta * d.e * tw.q)
        elif cl.tag == TAG_TLT_N1:
            assert dist.d == ((tw.q - 1) * tw.r * (d.e - d.t + 1)
                              // (d.delta * d.e * tw.q))
        elif cl.tag == TAG_E3T2N2:
            sqrt_r = round(tw.r ** 0.5)
            assert dist.d == (2 * (tw.q - 1) * (tw.r - sqrt_r)
                              // (3 * tw.q * d.delta))
        checked += 1

    for rec in grid_results:
        for method in ("naive", "tsum", "closed"):
            check(rec["tower"], rec["spec"], rec["derived"],
                  rec["classification"], rec[method])
    for ex in golden_examples():
        tw = tower_for(ex.spec)
        d = derive_params(tw, ex.spec)
        cl = classify(tw, ex.spec, d, validate_assumptions(tw, ex.spec, d))
        check(tw, ex.spec, d, cl, wd_closed(tw, d, cl))
    print(f"ACCEPTANCE 5 counting invariants on {checked} distributions: "
          f"PASS")


def test_criterion_6_large_field_sampling():
    rep = cross_verify(S5, Caps())  # 10^6 draws, seed 0
    assert list(rep.distributions) == ["closed"]
    assert not rep.invariant_failures
    s = rep.sampling
    assert s is not None and s["count"] == 10 ** 6 and s["seed"] == 0
    assert s["weights_outside_support"] == []
    assert s["max_sigma_dev"] <= 3.0
    assert rep.passed
    print(f"ACCEPTANCE 6 sampling vs closed form at r^t = 64^7 "
          f"(10^6 draws, max dev {s['max_sigma_dev']:.2f} sigma): PASS")


def test_criterion_7_consistency_identities(grid_results):
    # the sparse-column table collapses to the full-column one at t = e
    for r in (9, 25, 27, 49):
        for e in range(2, 11):
            for u in range(1, e + 1):
                lhs = comb(e, e - u) * sum(
                    (-1) ** k * comb(u, k) * (r ** (u - k) - 1)
                    for k in range(u))
                assert lhs == comb(e, u) * (r - 1) ** u
    # the weight count never exceeds C(mu + e, e) - 1
    bound_checked = 0
    for rec in grid_results:
        cl, d = rec["classification"], rec["derived"]
        if cl.tag != TAG_TE_N2:
            continue
        mu = len(set(gaussian_periods(rec["tower"], d.N).values))
        nonzero = sum(1 for w, _ in rec["closed"].entries if w > 0)
        assert nonzero <= comb(mu + d.e, d.e) - 1
        bound_checked += 1
    assert bound_checked >= 10
    print(f"ACCEPTANCE 7 table-consistency identities "
          f"(specialization e<=10, weight-count bound x{bound_checked}): "
          f"PASS")
