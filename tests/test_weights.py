"""Classification, the three distribution methods, and cross-verification."""

import ast
import random
import sys
import threading
import tracemalloc
from collections import Counter
from dataclasses import replace
from math import gcd
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from math import comb

import cyclotome
from cyclotome import _engine
from cyclotome._engine import (
    PROFILE_SPACE_LIMIT,
    naive_weight_counts,
    pair_orbit_representatives,
    period_sum_tally,
    profile_code_tally,
    sample_weights,
    x1_orbit_representatives,
)
from cyclotome.codes import (
    CodeSpec,
    DerivedParams,
    _unit_step_progression,
    derive_params,
    validate_assumptions,
)
from cyclotome.corpus import golden_examples
from cyclotome.cyclotomy import gaussian_periods
from cyclotome.gf import _build_field
from cyclotome.errors import (
    CapExceeded,
    CriterionMismatch,
    FrequencySumMismatch,
    InconsistentPeriods,
    IndependenceFails,
    NegativePeriodSum,
    NonIntegralWeight,
    UnsupportedCase,
)
from cyclotome.weights import (
    Caps,
    TAG_E3T2N2,
    TAG_TE_N1,
    TAG_TE_N2,
    TAG_TLT_N1,
    TAG_UNSUPPORTED,
    CaseClassification,
    VerificationReport,
    WeightDistribution,
    _check_invariants,
    _chernoff_bound,
    _closed_te_n2,
    _closed_tlt_n1,
    _nval_by_elem,
    _sampling_check,
    classify,
    cross_verify,
    integer_periods,
    plan,
    wd_closed,
    wd_naive,
    wd_tsum,
)
from helpers import (
    GRID_TOWERS,
    classify_spec,
    closed_dist,
    closed_te_n2_compositions,
    codeword_weight_from_periods,
    count_vanishing_patterns,
    criterion_grid,
    decode_profile,
    naive_weight_counts_unreduced,
    pair_orbit_labels,
    period_arguments,
    period_sum_tally_all_slabs,
    period_sum_tally_unreduced,
    profile_code_tally_unchunked,
    profile_weight,
    sample_weights_unblocked,
    tower,
    tower_for,
    vanishing_mask_tally,
    vanishing_mask_tally_unchunked,
)

S1 = CodeSpec(3, 1, 3, 2, 2, 1, (0, 1), (1, 2, 0, 1))
S3 = CodeSpec(5, 1, 2, 3, 3, 1, (0, 1, 2), (2, 4, 1))
S6 = CodeSpec(7, 1, 2, 3, 2, 2, (0, 1), (3, 6, 1))
STHM3 = CodeSpec(5, 1, 3, 4, 3, 1, (0, 1, 2), (3, 3, 0, 1))
S5 = CodeSpec(2, 1, 6, 7, 7, 1, tuple(range(7)), (1, 1, 0, 1, 1, 0, 1))


def setup_for(spec):
    tw = tower_for(spec)
    return tw, derive_params(tw, spec)


class TestClassify:
    def test_corpus_tags(self):
        expected = {
            S1: (TAG_TE_N1, None),
            CodeSpec(7, 1, 2, 2, 2, 1, (0, 1), (3, 6, 1)):
                (TAG_TE_N2, "order2"),
            S3: (TAG_TE_N2, "semiprimitive"),
            CodeSpec(7, 1, 3, 3, 3, 1, (0, 1, 2), (4, 0, 6, 1)):
                (TAG_TE_N2, "order3"),
            S5: (TAG_TE_N2, "index2"),
            S6: (TAG_E3T2N2, None),
            STHM3: (TAG_TLT_N1, None),
        }
        for sp, (tag, source) in expected.items():
            tw, d = setup_for(sp)
            cl = classify_spec(tw, sp, d)
            assert (cl.tag, cl.period_source) == (tag, source), sp

    def test_exact_fallback(self):
        sp = CodeSpec(3, 1, 4, 2, 2, 4, (0, 1))  # N = 8, no special shape
        tw, d = setup_for(sp)
        cl = classify_spec(tw, sp, d)
        assert d.N == 8 and (cl.tag, cl.period_source) == (TAG_TE_N2, "exact")

    def test_index_above_two_uses_the_oracle(self, monkeypatch):
        # N = 31 over GF(2^15): 2 is a square mod 31 but has order 5, not
        # 15, so no closed form applies and the t = e table takes the
        # oracle's periods
        sp = CodeSpec(2, 1, 15, 31, 31, 1, tuple(range(31)))
        tw, d = setup_for(sp)
        cl = classify_spec(tw, sp, d)
        assert d.N == 31 and (cl.tag, cl.period_source) == (TAG_TE_N2, "exact")
        read = []
        monkeypatch.setattr(cyclotome.weights, "gaussian_periods",
                            lambda tower, L: read.append(L)
                            or gaussian_periods(tower, L))
        # the full table: r^t = 2^465 inputs, first moment n r^t (q-1)/q
        dist = wd_closed(tw, d, cl)
        assert read == [31]
        assert dist.total == tw.r ** 31
        assert dist.first_moment() == d.n * tw.r ** 31 // 2

    def test_unsupported_cases(self):
        # t < e with N >= 2 outside the six-weight case
        sp = CodeSpec(11, 1, 2, 10, 2, 1, (0, 1))
        tw, d = setup_for(sp)
        assert d.N == 2
        cl = classify_spec(tw, sp, d)
        assert cl.tag == TAG_UNSUPPORTED
        # invalid conditions
        bad = CodeSpec(2, 1, 4, 5, 2, 3, (0, 1))
        tw, d = setup_for(bad)
        assert classify_spec(tw, bad, d).tag == TAG_UNSUPPORTED

    def test_singular_minor_unsupported(self):
        sp = CodeSpec(2, 3, 2, 7, 3, 1, (0, 1, 3))
        tw, d = setup_for(sp)
        cl = classify_spec(tw, sp, d)
        assert cl.tag == TAG_UNSUPPORTED and "minor" in cl.reason
        with pytest.raises(IndependenceFails):
            wd_closed(tw, d, cl)


class TestNaive:
    def test_example_1(self):
        tw, d = setup_for(S1)
        dist = wd_naive(tw, d)
        assert dist.entries == ((0, 1), (9, 52), (18, 676))
        assert dist.enumerator_str() == "1 + 52z^9 + 676z^18"
        assert (d.n, d.t * tw.m, dist.d) == (26, 6, 9)

    def test_cap(self):
        tw, d = setup_for(S1)
        with pytest.raises(CapExceeded):
            wd_naive(tw, d, cap=100)


class TestTsum:
    def test_agrees_with_naive(self):
        for sp in (S1, S3, S6, STHM3):
            tw, d = setup_for(sp)
            assert wd_tsum(tw, d).entries == wd_naive(tw, d).entries

    def test_total_partitions_input_space(self):
        tw, d = setup_for(S6)
        assert wd_tsum(tw, d).total == 49 ** 2

    def test_cap(self):
        tw, d = setup_for(S5)
        with pytest.raises(CapExceeded):
            wd_tsum(tw, d, cap=10 ** 6)

    def test_profile_route_matches_fast_route(self):
        # decode the class-profile tally through the integer weight formula:
        # it must reproduce the period-sum distribution
        for sp in (S1, S3, S6, STHM3):
            tw, d = setup_for(sp)
            periods = gaussian_periods(tw, d.N).rational_values
            tally = profile_code_tally(tw, d, d.N)
            counts: dict[int, int] = {}
            for code in np.nonzero(tally)[0].tolist():
                w = profile_weight(tw, d, periods,
                                   *decode_profile(code, d.N, d.e))
                counts[w] = counts.get(w, 0) + int(tally[code])
            slow = WeightDistribution.from_counts(counts.items())
            assert slow.entries == wd_tsum(tw, d).entries, sp

    def test_agrees_with_naive_outside_validity(self):
        # the period-sum identity never used the distinctness or degree
        # conditions, so both enumerations agree even where they fail
        for sp in (CodeSpec(2, 1, 4, 5, 2, 3, (0, 1)),    # iii fails
                   CodeSpec(3, 1, 3, 2, 2, 26, (0, 1))):  # a = 0 mod r-1
            tw, d = setup_for(sp)
            assert wd_tsum(tw, d).entries == wd_naive(tw, d).entries

    def test_distribution_invariant_under_primitive_change(self):
        # same parameters over a different primitive modulus: class labels
        # permute but the weight distribution cannot move
        alt = CodeSpec(3, 1, 3, 2, 2, 1, (0, 1))  # auto modulus
        tw_alt, d_alt = setup_for(alt)
        tw, d = setup_for(S1)
        assert tw_alt.modulus != tw.modulus
        assert wd_tsum(tw_alt, d_alt).entries == wd_tsum(tw, d).entries


class TestProfiles:
    def test_decode_roundtrip(self):
        # e = 4 digits over base N+1 = 4
        code = 3 + 4 * 0 + 16 * 2 + 64 * 3
        u0, counts = decode_profile(code, 3, 4)
        assert u0 == 2 and counts == (1, 0, 1)

    def test_profile_weight_matches_scalar_route(self):
        tw, d = setup_for(S6)
        ps = gaussian_periods(tw, d.N)
        x = (5, 29)
        parts = period_arguments(tw, d, x)
        u0 = sum(1 for v in parts if v == 0)
        counts = [0] * d.N
        for v in parts:
            if v:
                counts[tw.dlog_of(v) % d.N] += 1
        assert profile_weight(tw, d, ps.rational_values, u0, counts) == \
            codeword_weight_from_periods(tw, d, ps, x)

    def test_irrational_periods_raise(self, monkeypatch):
        # order-16 periods of GF(81) are not all rational: 16 does not
        # divide (r-1)/(q-1) = 40, so no real spec has N = 16 here.  Fake
        # parameters that claim it must stop the period-sum and sampling
        # routes instead of weighing with irrational periods
        tw = tower(3, 1, 4)
        assert any(v is None for v in gaussian_periods(tw, 16).rational_values)
        fake = DerivedParams(e=16, t=2, a=1, a_list=(1, 6), delta=1, n=80,
                             N=16)
        with pytest.raises(InconsistentPeriods):
            wd_tsum(tw, fake)
        closed = WeightDistribution.from_counts([(0, 1)])
        monkeypatch.setattr(cyclotome.weights, "DEFAULT_SAMPLE_COUNT", 10)
        with pytest.raises(InconsistentPeriods):
            _sampling_check(tw, fake, closed, Caps())


class TestClosed:
    def test_full_column_table(self):
        tw, d = setup_for(S1)
        assert closed_dist(tw, S1, d).entries == ((0, 1), (9, 52), (18, 676))

    def test_order2_table(self):
        sp = CodeSpec(7, 1, 2, 2, 2, 1, (0, 1), (3, 6, 1))
        tw, d = setup_for(sp)
        assert closed_dist(tw, sp, d).entries == (
            (0, 1), (18, 48), (24, 48), (36, 576), (42, 1152), (48, 576))

    def test_semiprimitive_aggregation_detail(self):
        # weight 8 merges the compositions (u0,u1,u2) = (1,2,0) and (2,0,1):
        # multinomial * ((r-1)/N)^(u1+u2) * (N-1)^(u2) gives 192 + 48
        tw, d = setup_for(S3)
        dist = closed_dist(tw, S3, d)
        at8 = dict(dist.entries)[8]
        term_120 = 3 * 8 ** 2
        term_201 = 3 * 8 * 2
        assert at8 == term_120 + term_201 == 240

    def test_te_table_matches_composition_oracle(self):
        # the convolution power equals the parent's loop over compositions,
        # dict for dict, on every t = e grid spec and on goldens 1-5
        cases = [(sp, d, cl) for sp, d, cl in criterion_grid()
                 if sp.t == sp.e]
        for ex in golden_examples()[:5]:
            tw, d = setup_for(ex.spec)
            cases.append((ex.spec, d, classify_spec(tw, ex.spec, d)))
        for sp, d, cl in cases:
            tw = tower_for(sp)
            periods = ((-1,) if cl.tag == TAG_TE_N1 else integer_periods(
                gaussian_periods(tw, d.N)))
            assert _closed_te_n2(tw, d, periods) == \
                closed_te_n2_compositions(tw, d, periods), sp
            if cl.tag == TAG_TE_N1:  # the MDS table serves both N = 1 cases
                assert _closed_tlt_n1(tw, d) == _closed_te_n2(tw, d, (-1,)), sp

    def test_closed_route_reads_no_field_table(self):
        # derivation, validity, classification and the closed tables of
        # these cases read only p, s, m, q, r, the degree and the modulus,
        # so a stand-in with no power table, dlog or trace vector gives the
        # same parameters, classification and entries as the tower
        cases = [golden_examples()[i].spec for i in (0, 1, 2, 5)]
        for sp, d, cl in criterion_grid():
            tw = tower_for(sp)
            if (cl.tag in (TAG_TE_N1, TAG_E3T2N2)
                    or cl.tag == TAG_TLT_N1 and _unit_step_progression(tw, d)
                    or cl.period_source in ("order2", "semiprimitive")):
                cases.append(sp)
        tags = set()
        for sp in cases:
            tw, d = setup_for(sp)
            bare = SimpleNamespace(p=tw.p, s=tw.s, m=tw.m, q=tw.q, r=tw.r,
                                   degree=tw.degree, modulus=tw.modulus)
            d_bare = derive_params(bare, sp)
            cl_bare = classify(bare, sp, d_bare,
                               validate_assumptions(bare, sp, d_bare))
            cl = classify_spec(tw, sp, d)
            assert (d_bare, cl_bare) == (d, cl), sp
            assert wd_closed(bare, d_bare, cl_bare).entries == \
                wd_closed(tw, d, cl).entries, sp
            tags.add((cl.tag, cl.period_source))
        assert tags == {(TAG_TE_N1, None), (TAG_TLT_N1, None),
                        (TAG_E3T2N2, None), (TAG_TE_N2, "order2"),
                        (TAG_TE_N2, "semiprimitive")}

    def test_sparse_column_table(self):
        tw, d = setup_for(STHM3)
        dist = closed_dist(tw, STHM3, d)
        assert dist.entries == ((0, 1), (50, 744), (75, 61008),
                                (100, 1891372))
        assert dist.d == 50 == (tw.q - 1) * tw.r * (d.e - d.t + 1) \
            // (d.delta * d.e * tw.q)

    def test_six_weight_table(self):
        tw, d = setup_for(S6)
        assert closed_dist(tw, S6, d).entries == (
            (0, 1), (12, 72), (16, 72), (18, 264), (20, 864), (22, 864),
            (24, 264))

    def test_unsupported_raises(self):
        sp = CodeSpec(11, 1, 2, 10, 2, 1, (0, 1))
        tw, d = setup_for(sp)
        with pytest.raises(UnsupportedCase):
            closed_dist(tw, sp, d)

    def test_any_offset_pair_in_six_weight_case(self):
        # the six-weight table holds for offsets other than (0, 1)
        for deltas in ((0, 2), (1, 2)):
            sp = CodeSpec(7, 1, 2, 3, 2, 2, deltas, (3, 6, 1))
            tw, d = setup_for(sp)
            cl = classify_spec(tw, sp, d)
            assert cl.tag == TAG_E3T2N2
            assert wd_closed(tw, d, cl).entries == \
                wd_naive(tw, d).entries


class TestVanishingPatterns:
    def test_full_pattern_empty(self):
        tw, d = setup_for(STHM3)
        assert count_vanishing_patterns(tw, d, {0, 1, 2}) == 0

    def test_sparse_inclusion_exclusion_value(self):
        tw, d = setup_for(STHM3)
        for h in range(4):
            assert count_vanishing_patterns(tw, d, {h}) == 15252
        # 15252 = (r^2 - 1) - 3 (r - 1) for r = 125
        assert 15252 == (125 ** 2 - 1) - 3 * (125 - 1)

    def test_partition_of_nonzero_inputs(self):
        tw, d = setup_for(S6)
        total = sum(count_vanishing_patterns(tw, d, E)
                    for E in ((), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2),
                              (0, 1, 2)))
        assert total == tw.r ** d.t - 1

    def test_cap_and_range_checks(self):
        tw, d = setup_for(S6)
        with pytest.raises(CapExceeded):
            count_vanishing_patterns(tw, d, {0}, cap=10)
        with pytest.raises(ValueError):
            count_vanishing_patterns(tw, d, {5})


class TestWeightDistributionType:
    def test_merging_and_sorting(self):
        dist = WeightDistribution.from_counts(
            [(3, 4), (1, 2), (3, 4), (5, 0)])
        assert dist.entries == ((1, 2), (3, 8))
        dist2 = WeightDistribution.from_counts(enumerate([0, 5, 0, 7]))
        assert dist2.entries == ((1, 5), (3, 7))
        assert dist2.d == 1

    def test_json_counts_are_strings(self):
        dist = WeightDistribution.from_counts([(2, 64 ** 7)])
        assert dist.to_json_entries() == [{"w": 2, "count": str(64 ** 7)}]


class TestCrossVerify:
    def test_all_methods_agree_small(self):
        rep = cross_verify(S1)
        assert rep.passed and sorted(rep.distributions) == \
            ["closed", "naive", "tsum"]
        assert rep.sampling is None

    def test_unsupported_still_compares_enumerations(self):
        rep = cross_verify(CodeSpec(11, 1, 2, 10, 2, 1, (0, 1)))
        assert rep.classification.tag == TAG_UNSUPPORTED
        assert sorted(rep.distributions) == ["naive", "tsum"]
        assert rep.agreed and rep.passed

    def test_large_field_uses_sampling(self, monkeypatch):
        monkeypatch.setattr(cyclotome.weights, "DEFAULT_SAMPLE_COUNT", 20000)
        rep = cross_verify(S5)
        assert list(rep.distributions) == ["closed"]
        assert rep.sampling is not None and rep.sampling["ok"]
        assert rep.passed

    @pytest.mark.parametrize("caps", [Caps(), Caps(naive=0, tsum=0)],
                             ids=["default caps", "closed only"])
    @pytest.mark.parametrize("ex", golden_examples(), ids=lambda ex: ex.name)
    def test_plan_is_what_cross_verify_runs(self, ex, caps, monkeypatch):
        # the sample count only sets the sampling check's cost, not the plan
        monkeypatch.setattr(cyclotome.weights, "DEFAULT_SAMPLE_COUNT", 1000)
        tw, d = setup_for(ex.spec)
        steps = plan(tw, d, classify_spec(tw, ex.spec, d), caps)
        assert list(steps) == ["naive", "tsum", "closed"]
        rep = cross_verify(ex.spec, caps)
        assert list(rep.distributions) == [
            m for m, why in steps.items() if why is None]
        assert list(rep.skipped.items()) == [
            (m, why) for m, why in steps.items() if why is not None]
        assert rep.to_json_dict()["methods_skipped"] == rep.skipped
        if caps.naive == 0:
            size = tw.r ** d.t
            assert steps == {"naive": f"r^t = {size} > cap 0",
                             "tsum": f"r^t = {size} > cap 0", "closed": None}

    def test_first_diff_names_the_entry(self, monkeypatch):
        # the methods are looked up when they run, so a patched (or traced)
        # wd_tsum is the one cross_verify calls
        real = cyclotome.weights.wd_tsum

        def short(tower, derived, cap):
            dist = real(tower, derived, cap)
            return WeightDistribution(dist.entries[:-1])

        monkeypatch.setattr(cyclotome.weights, "wd_tsum", short)
        rep = cross_verify(S1)
        assert not rep.agreed and not rep.passed
        assert rep.first_diff == "closed vs tsum at entry 2: (18, 676) != None"

    def test_json_shape(self):
        obj = cross_verify(S1).to_json_dict()
        assert obj["methods_agreed"] is True
        assert obj["weights"][1] == {"w": 9, "count": "52"}

    def test_sampled_weights_match_scalar_route(self):
        tw, d = setup_for(S5)
        ps = gaussian_periods(tw, 7)
        values = [d.N * v for v in ps.rational_values] + [tw.r - 1]
        tally = sample_weights(tw, d, values,
                               closed_dist(tw, S5, d).weights(), 50, seed=123)
        rng = np.random.default_rng(123)
        codes = rng.integers(0, tw.r, size=(50, 7))
        eoc = np.concatenate([[0], tw.exp])
        want = Counter(codeword_weight_from_periods(
            tw, d, ps, tuple(int(eoc[c]) for c in row)) for row in codes)
        assert list(tally.items()) == sorted(want.items())


class TestSamplingVerdict:
    """The Chernoff verdict of the sampling check on golden 5: 64^7
    inputs, 22 weight classes, 10^6 draws."""

    def test_correct_table_passes_every_seed(self):
        # a 3-sigma rule failed seeds 7, 9, 13, 18 and 34; seed 7 draws once
        # from a class whose expected count is 0.008 (10.98 sigma)
        tw, d = setup_for(S5)
        closed = closed_dist(tw, S5, d)
        failing = [seed for seed in range(40) if not _sampling_check(
            tw, d, closed, Caps(seed=seed))["ok"]]
        assert failing == []

    def test_moved_mass_fails(self):
        # 1% of the largest class moved to the next weight keeps the total
        tw, d = setup_for(S5)
        counts = dict(closed_dist(tw, S5, d).entries)
        top = max(counts, key=counts.get)
        counts[top + 2] += counts[top] // 100
        counts[top] -= counts[top] // 100
        bad = WeightDistribution.from_counts(counts.items())
        assert bad.total == tw.r ** d.t
        assert not _sampling_check(tw, d, bad, Caps(seed=0))["ok"]

    def test_drawn_weight_outside_support_fails(self):
        # a table that lacks its largest class: the draws at that weight
        # are counted outside the support, and every other class keeps the
        # count it has against the full table
        tw, d = setup_for(S5)
        closed = closed_dist(tw, S5, d)
        counts = dict(closed.entries)
        top = max(counts, key=counts.get)
        del counts[top]
        res = _sampling_check(tw, d, WeightDistribution.from_counts(
            counts.items()), Caps(seed=0))
        assert res["weights_outside_support"] == [top]
        assert not res["ok"]
        full = _sampling_check(tw, d, closed, Caps(seed=0))
        assert full["weights_outside_support"] == []
        assert [row for row in full["rows"] if row["w"] != top] == res["rows"]

    def test_chernoff_bound_edges(self):
        assert _chernoff_bound(0, 10, 0.5) == pytest.approx(0.5 ** 10)
        assert _chernoff_bound(10, 10, 0.5) == pytest.approx(0.5 ** 10)
        assert _chernoff_bound(5, 10, 0.5) == 1.0
        assert _chernoff_bound(10, 10, 1.0) == 1.0
        assert _chernoff_bound(9, 10, 1.0) == 0.0
        assert _chernoff_bound(0, 10, 0.0) == 1.0
        assert _chernoff_bound(1, 10, 0.0) == 0.0


class TestFuzzAgreement:
    POOL = [(2, 1, 4), (3, 1, 2), (3, 1, 3), (5, 1, 2), (7, 1, 2),
            (2, 2, 2), (3, 2, 1), (13, 1, 1)]

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_naive_equals_tsum_on_random_specs(self, data):
        # the two enumerations must agree for arbitrary parameters with
        # e | r - 1, valid or not
        p, s, m = data.draw(st.sampled_from(self.POOL))
        tw = tower(p, s, m)
        divisors = [e for e in range(2, 9) if (tw.r - 1) % e == 0]
        assume(divisors)
        e = data.draw(st.sampled_from(divisors))
        t = data.draw(st.integers(2, e))
        assume(tw.r ** t <= 6561)
        a = data.draw(st.integers(1, tw.r - 2))
        offs = data.draw(st.permutations(range(e)))
        sp = CodeSpec(p, s, m, e, t, a, tuple(offs[:t]))
        d = derive_params(tw, sp)
        assert wd_naive(tw, d).entries == wd_tsum(tw, d).entries


ORACLE_MAX_INPUTS = 10 ** 5


def _oracle_specs():
    """Specs with r^t <= 1e5: the criterion grid's, plus seeded random ones
    over the grid towers with any a (so delta > 1 and failed validity
    conditions occur) and any offsets."""
    specs = [sp for sp, _, _ in criterion_grid()
             if sp.r ** sp.t <= ORACLE_MAX_INPUTS]
    rng = random.Random(20261017)
    for p, s, m in GRID_TOWERS:
        r = p ** (s * m)
        divisors = [e for e in range(2, 13) if (r - 1) % e == 0]
        for _ in range(8):
            e = rng.choice(divisors)
            t = rng.randint(2, e)
            if r ** t > ORACLE_MAX_INPUTS:
                continue
            specs.append(CodeSpec(p, s, m, e, t, rng.randrange(r - 1),
                                  tuple(rng.sample(range(e), t))))
    return specs


class TestOrbitReduction:
    def test_oracle_specs_cover_the_edge_cases(self):
        kinds = set()
        for sp in _oracle_specs():
            tw, d = setup_for(sp)
            kinds.add("delta>1" if d.delta > 1 else "delta=1")
            kinds.add("s>1" if sp.s > 1 else "s=1")
            if not validate_assumptions(tw, sp, d).all_hold:
                kinds.add("invalid")
        assert {"delta>1", "s>1", "invalid"} <= kinds

    def test_naive_matches_unreduced(self, monkeypatch):
        # at the default budget (one or a few coordinate blocks), at
        # 1 byte (one coordinate per block) and at a budget whose blocks of
        # n // 2 + 1 coordinates leave a shorter last block
        specs = _oracle_specs()
        assert len(specs) >= 100
        for sp in specs:
            tw, d = setup_for(sp)
            want = naive_weight_counts_unreduced(tw, d)
            symbols = 4 * tw.r ** (d.t - 1)
            for budget in (_engine.SWEEP_BYTES, 1,
                           symbols * (d.n // 2 + 1)):
                monkeypatch.setattr(_engine, "SWEEP_BYTES", budget)
                got = naive_weight_counts(tw, d)
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(
                    got, want, err_msg=f"{sp} at {budget} B")

    @pytest.mark.parametrize("sp", [CodeSpec(3, 1, 7, 2, 2, 1, (0, 1)),
                                    CodeSpec(2, 1, 7, 127, 3, 1, (0, 1, 2))],
                             ids=["3^7,t=2", "2^7,t=3"])
    def test_naive_peak_memory(self, sp):
        # r^t near the naive cap: the symbols of one block (at most
        # SWEEP_BYTES) and the temporaries of its field additions
        tw, d = setup_for(sp)
        tw.trace_q_vector
        tracemalloc.start()
        try:
            counts = naive_weight_counts(tw, d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert int(counts.sum()) == tw.r ** sp.t
        assert peak <= 32 * 2 ** 20, f"traced peak {peak / 2**20:.1f} MB"

    def test_naive_slabs_do_not_depend_on_offset_order(self, monkeypatch):
        # (3,1,2,8,3,7) at offsets 5,4,1 has d = 4, 1, 4 on its axes, and
        # at 4,1,5 d = 1, 4, 4: naive leads with the d = 1 axis in both
        # orders, so it visits 2 slabs of 9^2 inputs, not 5, and its counts
        # are the unreduced ones
        slabs = []
        real = _engine.x1_orbit_representatives

        def spy(tower, a1):
            reps = real(tower, a1)
            slabs.append(len(reps))
            return reps

        monkeypatch.setattr(_engine, "x1_orbit_representatives", spy)
        tw = tower(3, 1, 2)
        for deltas in ((5, 4, 1), (4, 1, 5)):
            d = derive_params(tw, CodeSpec(3, 1, 2, 8, 3, 7, deltas))
            np.testing.assert_array_equal(naive_weight_counts(tw, d),
                                          naive_weight_counts_unreduced(tw, d))
        assert slabs == [2, 2]

    def test_period_sum_tally_matches_unreduced(self, monkeypatch):
        # at the default budget, where grid-size sweeps keep their x_1
        # orbits, and at 64 KB, where sweeps of more than 1024 period
        # arguments list up to 1024 pair orbits; each in the spec's offset
        # order and a shuffled one.  The tally equals the unreduced oracle,
        # and the slabs the sweep visits do not depend on the order
        visited = _spy_visited(monkeypatch)
        rng = random.Random(20261021)
        checked = Counter()
        for sp in _oracle_specs():
            tw, d = setup_for(sp)
            rationals = gaussian_periods(tw, d.N).rational_values
            if any(v is None for v in rationals):
                continue
            nval = _nval_by_elem(tw, d.N, rationals)
            want = period_sum_tally_unreduced(tw, d, nval)
            shuffled = derive_params(tw, replace(
                sp, deltas=tuple(rng.sample(sp.deltas, len(sp.deltas)))))
            for budget in (_engine.SWEEP_BYTES, 1 << 16):
                monkeypatch.setattr(_engine, "SWEEP_BYTES", budget)
                seen = []
                for derived in (d, shuffled):
                    visited.clear()
                    np.testing.assert_array_equal(
                        period_sum_tally(tw, derived, nval), want,
                        err_msg=f"{sp} {derived.a_list} at {budget} B")
                    seen.append(visited[:])
                assert seen[0] == seen[1], (sp, budget, seen)
                (axes, _), = seen[0]
                checked["pairs" if axes == d.t - 2 else "x1"] += 1
        assert checked["pairs"] >= 50 and checked["x1"] >= 50, checked

    def test_ladder_sweeps_match_all_slabs(self, monkeypatch):
        # the ladder's swept slots (p = 2; odd p; the open case, whose first
        # offset in seed 0's order has d = 4 while others have d = 1) in the
        # ladder's offset orders at seeds 0 and 1 and in ascending order:
        # pair orbits on every order, the same slabs, fewer inputs than one
        # x_1 per orbit, and the tally of a sweep that reduces nothing
        visited = _spy_visited(monkeypatch)
        for p, s, m, e, t, a, orders in LADDER_SWEPT:
            tw = tower(p, s, m)
            ds = [derive_params(tw, CodeSpec(p, s, m, e, t, a, o))
                  for o in orders]
            nval = _nval_by_elem(tw, ds[0].N, gaussian_periods(
                tw, ds[0].N).rational_values)
            want = period_sum_tally_all_slabs(tw, ds[0], nval)
            seen = []
            for d in ds:
                visited.clear()
                np.testing.assert_array_equal(period_sum_tally(tw, d, nval),
                                              want, err_msg=str(d))
                seen.append(visited[:])
            (axes, inputs), = seen[0]
            assert seen == [seen[0]] * len(ds) and axes == t - 2
            d1 = min(gcd(tw.r - 1, ai, (tw.r - 1) // (tw.q - 1))
                     for ai in ds[0].a_list)
            assert inputs < (d1 + 1) * tw.r ** (t - 1), (p, m, inputs)

    def test_pair_orbits_match_brute_force(self):
        # every grid tower and the ladder's swept fields, at a_1 = 0 and
        # seeded exponent pairs: one representative per orbit of the
        # brute-force union (shift, GF(q)* scaling, Frobenius on all r^2
        # pairs), each with its orbit's size, ascending, summing to r^2
        rng = random.Random(20261021)
        checked = 0
        for p, s, m in GRID_TOWERS + ((2, 1, 8), (17, 1, 2)):
            tw = tower(p, s, m)
            r1 = tw.r - 1
            pairs = [(0, rng.randrange(r1))] + [
                (rng.randrange(r1), rng.randrange(r1)) for _ in range(2)]
            for a1, a2 in pairs:
                c1, c2, mult = pair_orbit_representatives(tw, a1, a2)
                labels = pair_orbit_labels(tw, a1, a2)
                sizes = np.bincount(labels)
                got = labels[c1 * tw.r + c2]
                assert len(set(got.tolist())) == got.size, (p, s, m, a1, a2)
                assert set(got.tolist()) == set(np.flatnonzero(sizes).tolist())
                np.testing.assert_array_equal(mult, sizes[got])
                assert int(mult.sum()) == tw.r ** 2
                assert np.all(np.diff(mult) >= 0)
                checked += 1
        assert checked == 3 * (len(GRID_TOWERS) + 2)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_representatives_cover_each_orbit_once(self, data):
        # brute-force the subgroup H = <gamma^(a_1)> GF(q)* in dlog space:
        # the cosets of the representatives partition GF(r)*, each has
        # (r-1)/d_1 members, and with x_1 = 0 the multiplicities sum to r
        p, s, m = data.draw(st.sampled_from(GRID_TOWERS))
        tw = tower(p, s, m)
        r1 = tw.r - 1
        e = data.draw(st.sampled_from(
            [e for e in range(2, 13) if r1 % e == 0]))
        t = data.draw(st.integers(2, e))
        offs = data.draw(st.permutations(range(e)))
        sp = CodeSpec(p, s, m, e, t, data.draw(st.integers(0, r1 - 1)),
                      tuple(offs[:t]))
        d = derive_params(tw, sp)
        reps = x1_orbit_representatives(tw, d.a_list[0])
        assert reps[0] == (0, 1)
        assert sum(mult for _, mult in reps) == tw.r
        H = {(i * d.a_list[0] + j * (r1 // (tw.q - 1))) % r1
             for i in range(r1) for j in range(tw.q - 1)}
        covered = set()
        for code, mult in reps[1:]:
            coset = {(code - 1 + h) % r1 for h in H}
            assert len(coset) == mult == r1 // (len(reps) - 1)
            assert not coset & covered
            covered |= coset
        assert covered == set(range(r1))


def _spy_visited(monkeypatch):
    """Record (remaining axes, inputs visited) for every _engine._sweep
    call: a sweep of pair slabs has t - 2 axes left, of x_1 slabs t - 1,
    and it visits its slabs times r per remaining axis."""
    calls = []
    real = _engine._sweep

    def spy(tower, lead, mults, luts, tables, size):
        calls.append((luts.shape[1], lead.shape[1] * tower.r ** luts.shape[1]))
        return real(tower, lead, mults, luts, tables, size)

    monkeypatch.setattr(_engine, "_sweep", spy)
    return calls


# the ladder's swept slots at seed 0's a, in seed 0's offset order, seed
# 1's (reversed where it is the same) and ascending
LADDER_SWEPT = (
    (2, 1, 8, 3, 3, 7, ((1, 0, 2), (2, 0, 1), (0, 1, 2))),
    (17, 1, 2, 3, 3, 13, ((1, 2, 0), (0, 2, 1), (0, 1, 2))),
    (3, 1, 2, 8, 8, 7, ((5, 4, 1, 6, 7, 3, 0, 2), (3, 0, 7, 6, 5, 1, 4, 2),
                        tuple(range(8)))),
)


class TestChunkedSweep:
    def test_tallies_match_unchunked_oracles(self, monkeypatch):
        # the three period-argument tallies against their unchunked oracles
        # (digit-by-digit additions, one whole (t-1)-axis fold per x_1) at
        # three byte budgets: the default; one that holds the folds of
        # x_3..x_t only (k = 1 leading axis; several heads per block once
        # t >= 4); and 1 byte (k = t - 2, one head per block) on the specs
        # with r^t <= 5000.  Then at the default budget with the run width
        # forced to 2, 3 and e (composed rows of at most 2^16 entries), so
        # runs of several h, and a last run shorter than the others, occur
        # on every kind of spec
        checked = {"tsum": 0, "profile": 0, "mask": 0, "k1": 0, "1byte": 0,
                   "g=2": 0, "g=e": 0, "g!|e": 0}
        natural = 0  # specs whose default run width is already above 1
        default = _engine.SWEEP_BYTES
        run_width = _engine._run_width
        for sp in _oracle_specs():
            tw, d = setup_for(sp)
            pset = gaussian_periods(tw, d.N)
            cases = {"mask": (vanishing_mask_tally,
                              vanishing_mask_tally_unchunked(tw, d))}
            if all(v is not None for v in pset.rational_values):
                nval = _nval_by_elem(tw, d.N, pset.rational_values)
                cases["tsum"] = (lambda tw, d, nval=nval:
                                 period_sum_tally(tw, d, nval),
                                 period_sum_tally_unreduced(tw, d, nval))
            if (d.N + 1) ** d.e <= PROFILE_SPACE_LIMIT:
                cases["profile"] = (lambda tw, d:
                                    profile_code_tally(tw, d, d.N),
                                    profile_code_tally_unchunked(tw, d, d.N))
            budgets = [default]
            if d.t >= 3:
                budgets.append(4 * d.e * tw.r ** (d.t - 2))
                checked["k1"] += 1
            if sp.r ** sp.t <= 5000:
                budgets.append(1)
                checked["1byte"] += 1
            natural += run_width(tw.r, d.e, tw.r ** (d.t - 1)) > 1
            widths = sorted({w for w in (2, 3, d.e) if w <= d.e
                             and tw.r ** w <= 1 << 16})
            runs = [(b, None) for b in budgets] + [
                (default, w) for w in widths]
            for budget, width in runs:
                monkeypatch.setattr(_engine, "SWEEP_BYTES", budget)
                monkeypatch.setattr(
                    _engine, "_run_width", run_width if width is None
                    else lambda r, e, size, w=width: w)
                for name, (kernel, want) in cases.items():
                    # a tiny budget means one bincount over the profile
                    # space per head, slow beyond 2^16 codes
                    if (name == "profile" and budget != default
                            and (d.N + 1) ** d.e > 1 << 16):
                        continue
                    np.testing.assert_array_equal(
                        kernel(tw, d), want,
                        err_msg=f"{sp} at {budget} B, width {width}")
            for w in widths:
                checked["g=2"] += w == 2
                checked["g=e"] += w == d.e
                checked["g!|e"] += d.e % w != 0
            for name in cases:
                checked[name] += 1
        assert checked["mask"] == len(_oracle_specs())
        assert min(checked.values()) >= 20, checked
        assert natural >= 10

    def test_open_case_peak_memory(self):
        # (3,1,2) with e = t = 8 fails validity condition iii, so tsum is
        # its only exact method: 9^8 = 4.3e7 inputs in a few MB
        sp = CodeSpec(3, 1, 2, 8, 8, 7, tuple(range(8)))
        tw, d = setup_for(sp)
        assert not validate_assumptions(tw, sp, d).all_hold
        nval = _nval_by_elem(tw, d.N, gaussian_periods(tw, d.N).rational_values)
        tracemalloc.start()
        try:
            tally = period_sum_tally(tw, d, nval)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert int(tally.sum()) == tw.r ** d.t
        assert peak <= 16 * 2 ** 20, f"traced peak {peak / 2**20:.1f} MB"


# the ladder's sampled fields, one a from each slot's pool (delta = 1)
SAMPLED_LADDER = (
    CodeSpec(7, 1, 5, 2, 2, 1, (0, 1)),
    CodeSpec(17, 1, 4, 2, 2, 7, (1, 0)),
    CodeSpec(5, 1, 7, 2, 2, 3, (0, 1)),
    CodeSpec(2, 1, 20, 3, 3, 4, (2, 0, 1)),
)


# t = 2 over small fields, where zero codes and the zero sums
# 1 + gamma^j = 0 of the log-domain addition are frequent among the draws
SAMPLED_T2_SMALL = (
    CodeSpec(3, 1, 4, 2, 2, 1, (0, 1)),
    CodeSpec(7, 1, 2, 3, 2, 2, (0, 1)),
    CodeSpec(5, 1, 2, 2, 2, 1, (1, 0)),
    CodeSpec(2, 2, 2, 5, 2, 1, (0, 3)),
    CodeSpec(13, 1, 2, 4, 2, 3, (1, 3)),
    CodeSpec(2, 1, 8, 5, 2, 3, (0, 2)),
    CodeSpec(3, 1, 5, 2, 2, 11, (0, 1)),
)


def _field_id(sp):
    return f"{sp.p}^{sp.s * sp.m}"


def _sampling_inputs(sp):
    """The sampler's inputs: the tower, the derived parameters, the N + 1
    class values (N eta_j per class, r - 1 at 0) and (q, delta, e)."""
    tw, d = setup_for(sp)
    periods = gaussian_periods(tw, d.N).rational_values
    values = [d.N * v for v in periods] + [tw.r - 1]
    return tw, d, values, (tw.q, d.delta, d.e)


class TestBlockedSampling:
    @pytest.mark.parametrize("r, t", [(64, 7), (5 ** 7, 2), (2 ** 20, 3),
                                      (2 ** 21, 3), (2 ** 31, 2)])
    def test_split_draws_equal_one_draw(self, r, t):
        # the generator properties the blocked kernel relies on: consecutive
        # row blocks of integers(0, r) draws are the rows of one draw, and
        # int32 draws are the int64 draws for r <= 2^31
        whole = np.random.default_rng(7).integers(0, r, size=(1000, t))
        rng = np.random.default_rng(7)
        parts = [rng.integers(0, r, size=(n, t)) for n in (1, 333, 7, 659)]
        np.testing.assert_array_equal(np.concatenate(parts), whole)
        narrow = np.random.default_rng(7).integers(0, r, size=(1000, t),
                                                   dtype=np.int32)
        np.testing.assert_array_equal(narrow, whole)

    @pytest.mark.parametrize("sp, seeds", [
        pytest.param(sp, (3,), id=_field_id(sp))
        for sp in (S5,) + SAMPLED_LADDER] + [
        pytest.param(sp, (3, 0, 7, 19), id=_field_id(sp))
        for sp in SAMPLED_T2_SMALL])
    def test_matches_unblocked_oracle(self, sp, seeds, monkeypatch):
        # a count past one serial block of rows and not a multiple of the
        # blocks that run, by the sampler's rule for the WORKERS in force:
        # serial blocks of budget // (8 t) rows on one CPU, threaded blocks
        # of 1/(4 WORKERS) of that on more.  At the default budget and at
        # WORKERS KB: on one CPU, 1 KB and rows of 18 to 64 samples; on
        # more, threaded blocks of 4 to 16
        tw, d, values, qde = _sampling_inputs(sp)
        workers = _engine.WORKERS
        default_rows = _engine.SWEEP_BYTES // (8 * d.t)
        for budget, count in ((_engine.SWEEP_BYTES, default_rows + 4321),
                              (workers << 10, 1000 * workers + 1)):
            monkeypatch.setattr(_engine, "SWEEP_BYTES", budget)
            rows = budget // (8 * d.t)
            assert count > rows
            if workers > 1:
                rows //= 4 * workers
            assert count % rows != 0
            for seed in seeds:
                want = Counter(sample_weights_unblocked(
                    tw, d, values, qde, count, seed=seed).tolist())
                # every other drawn weight as the support, so the rest are
                # counted outside it, and two weights past 0..n no draw has
                support = [-1] + sorted(want)[::2] + [d.n + 1]
                got = sample_weights(tw, d, values, support, count, seed=seed)
                assert list(got.items()) == sorted(want.items()), (
                    f"{budget} B, seed {seed}")

    @pytest.mark.parametrize("sp", [S1, SAMPLED_T2_SMALL[3],
                                    SAMPLED_T2_SMALL[0], SAMPLED_LADDER[0]],
                             ids=_field_id)
    def test_pair_keys_match_unblocked(self, sp, monkeypatch):
        # t = 2 through the pair-key table at N = 1 (3^3, 7^5) and N > 1
        # (2^4, 3^4), and through the element path when the draws are no
        # more than the table's 3M(N+1) entries or its 8 N M bytes of
        # gather indexes pass the budget.  At small r many draws have a
        # zero code (at r <= 27 some have two); every other weight as the
        # support sends the rest through the outside path
        tw, d, values, qde = _sampling_inputs(sp)
        M = tw.r - 1
        entries = 3 * (d.N + 1) * M
        keyed = []
        real = _engine._pair_keys

        def spy(*args):
            keyed.append(True)
            return real(*args)

        monkeypatch.setattr(_engine, "_pair_keys", spy)
        many = max(entries + 1, 5000)
        codes = np.random.default_rng(2).integers(0, tw.r, size=(many, 2))
        assert (codes == 0).any(axis=1).sum() > many / tw.r
        assert tw.r > 27 or (codes == 0).all(axis=1).any()
        for count, budget, want_keyed in (
                (many, _engine.SWEEP_BYTES, True),
                (entries, _engine.SWEEP_BYTES, False),
                (many, 8 * d.N * M - 1, False)):
            monkeypatch.setattr(_engine, "SWEEP_BYTES", budget)
            want = Counter(sample_weights_unblocked(tw, d, values, qde, count,
                                                    seed=2).tolist())
            for support in (sorted(want), sorted(want)[::2]):
                keyed.clear()
                got = sample_weights(tw, d, values, support, count, seed=2)
                assert list(got.items()) == sorted(want.items()), (
                    count, budget, support)
                assert bool(keyed) == want_keyed

    def test_compact_keys_match_unblocked(self):
        # t >= 3 through compact keys at N = 1 (5^3) and N = 7 (golden 5),
        # with every other weight as the support
        for sp in (STHM3, S5):
            tw, d, values, qde = _sampling_inputs(sp)
            want = Counter(sample_weights_unblocked(tw, d, values, qde, 5000,
                                                    seed=1).tolist())
            got = sample_weights(tw, d, values, sorted(want)[1::2], 5000,
                                 seed=1)
            assert list(got.items()) == sorted(want.items()), sp

    def test_non_integral_weight_raises_exactly_when_drawn(self):
        # one more in the value at 0 leaves X one short for each period
        # argument that is 0, so a draw with none keeps an integral weight.
        # Five draws on 3^3 (the element path): a seed whose draws all miss
        # 0 returns their tally, one that meets it raises.  Past the pair-key
        # table's 156 entries some draw always meets it, and that raises too
        tw, d, values, qde = _sampling_inputs(S1)
        values[-1] += 1
        outcomes = set()
        for seed in range(20):
            try:
                want = Counter(sample_weights_unblocked(
                    tw, d, values, qde, 5, seed=seed).tolist())
            except NonIntegralWeight:
                with pytest.raises(NonIntegralWeight):
                    sample_weights(tw, d, values, (0,), 5, seed=seed)
                outcomes.add("raised")
            else:
                got = sample_weights(tw, d, values, sorted(want), 5, seed=seed)
                assert list(got.items()) == sorted(want.items())
                outcomes.add("returned")
        assert outcomes == {"raised", "returned"}
        with pytest.raises(NonIntegralWeight):
            sample_weights(tw, d, values, (0,), 1000, seed=0)

    def test_peak_memory(self, monkeypatch):
        # 1e6 draws on 2^20: a few SWEEP_BYTES of serial block temporaries,
        # or two lanes of blocks a quarter of SWEEP_BYTES each, with the
        # tower's tables already built, and no weight per draw (12 and 5 MB
        # here; the unblocked kernel peaks at about 93 MB)
        sp = SAMPLED_LADDER[-1]
        tw, d, values, _ = _sampling_inputs(sp)
        support = closed_dist(tw, sp, d).weights()
        for workers, bound_mb in ((1, 16), (2, 8)):
            monkeypatch.setattr(_engine, "WORKERS", workers)
            tracemalloc.start()
            try:
                tally = sample_weights(tw, d, values, support, 10 ** 6, seed=0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert sum(tally.values()) == 10 ** 6
            assert peak <= bound_mb * 2 ** 20, (
                f"{workers} workers: traced peak {peak / 2**20:.1f} MB")

    def test_check_peak_memory(self, monkeypatch):
        # the whole sampling check on 2^20, with the tower and its periods
        # built first: the sampler's blocks, its uint16 units table and a
        # count per support weight: 9.7 and 4.2 MB at 1 and 2 workers, bound
        # with about 2 MB to spare.  An int32 value per element took it to
        # 14.4 and 8.4 MB, and before that an int64 weight per draw and
        # n + 1 int64 slots to 22 and 16 MB
        sp = SAMPLED_LADDER[-1]
        tw, d = setup_for(sp)
        gaussian_periods(tw, d.N)
        closed = closed_dist(tw, sp, d)
        for workers, bound_mb in ((1, 12), (2, 6)):
            monkeypatch.setattr(_engine, "WORKERS", workers)
            tracemalloc.start()
            try:
                res = _sampling_check(tw, d, closed, Caps())
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert res["ok"]
            assert peak <= bound_mb * 2 ** 20, (
                f"{workers} workers: traced peak {peak / 2**20:.1f} MB")

    def test_cross_verify_peak_memory(self, monkeypatch):
        # cross_verify on the 2^20 ladder slot at a = 6, offsets 0,1,2, at 2
        # workers, with the tower built inside: exp2 and dlog (12 MB) and
        # the byte-wide Tr_{r/p} are its only r-entry tables beyond the
        # sampler's uint16 units, and the tower's build holds one int32
        # linear map at a time.  17.2 MB measured; 21.4 MB with an int32
        # value per element and the build's other int32 transients
        monkeypatch.setattr(_engine, "WORKERS", 2)
        sp = CodeSpec(2, 1, 20, 3, 3, 6, (0, 1, 2))
        _build_field.cache_clear()  # a held tower would measure about 0 B
        tracemalloc.start()
        try:
            rep = cross_verify(sp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.passed and rep.sampling["ok"]
        assert peak <= 18.5 * 2 ** 20, f"traced peak {peak / 2**20:.1f} MB"


def _spy_threaded(monkeypatch):
    """Record the threaded flag of every _engine._in_order call."""
    flags = []
    real = _engine._in_order

    def spy(work, blocks, threaded):
        flags.append(threaded)
        return real(work, blocks, threaded)

    monkeypatch.setattr(_engine, "_in_order", spy)
    return flags


class TestThreadedBlocks:
    """The sweep's and the sampler's blocks on WORKERS threads."""

    def test_results_do_not_depend_on_worker_count(self, monkeypatch):
        # small budgets give many blocks: 3000 draws in blocks of 24 to 36
        # rows (t = 7) or 85 to 128 rows (t = 2) at 16 KB, and a sweep of
        # 50 heads in blocks of at most 2 at 2 KB
        flags = _spy_threaded(monkeypatch)
        sampled = [_sampling_inputs(sp) for sp in (S5, SAMPLED_T2_SMALL[0])]
        want = [Counter(sample_weights_unblocked(*inputs, 3000, seed=5)
                        .tolist()) for inputs in sampled]
        tw, d = setup_for(S3)
        nval = _nval_by_elem(tw, d.N, gaussian_periods(tw, d.N).rational_values)
        got = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # more thread switches inside each block
        try:
            for workers in (1, 2, 3):
                monkeypatch.setattr(_engine, "WORKERS", workers)
                monkeypatch.setattr(_engine, "SWEEP_BYTES", 1 << 14)
                drawn = [sample_weights(*inputs[:3], sorted(c), 3000, seed=5)
                         for inputs, c in zip(sampled, want)]
                monkeypatch.setattr(_engine, "SWEEP_BYTES", 1 << 11)
                got[workers] = (drawn, period_sum_tally(tw, d, nval))
        finally:
            sys.setswitchinterval(interval)
        assert flags == [False] * 3 + [True] * 6
        tally = period_sum_tally_unreduced(tw, d, nval)
        for drawn, swept in got.values():
            assert [list(c.items()) for c in drawn] == [
                sorted(c.items()) for c in want]
            np.testing.assert_array_equal(swept, tally)

    def test_worker_error_keeps_its_type(self, monkeypatch):
        # a block of draws with a non-integral weight, raised on a worker
        # thread: the caller sees the typed error, and every thread is
        # joined.  One more in the value at 0 leaves X one short for each
        # period argument that is 0, so only those draws fail
        monkeypatch.setattr(_engine, "WORKERS", 3)
        monkeypatch.setattr(_engine, "SWEEP_BYTES", 1 << 11)
        tw, d, values, _ = _sampling_inputs(S5)
        values[-1] += 1
        support = closed_dist(tw, S5, d).weights()
        real = _engine._in_order
        raised_on = []

        def spy(work, blocks, threaded):
            def traced(block):
                try:
                    return work(block)
                except NonIntegralWeight:
                    raised_on.append(threading.current_thread())
                    raise
            return real(traced, blocks, threaded)

        monkeypatch.setattr(_engine, "_in_order", spy)
        before = threading.active_count()
        with pytest.raises(NonIntegralWeight):
            sample_weights(tw, d, values, support, 10 ** 4, seed=0)
        assert threading.active_count() == before
        assert raised_on and threading.main_thread() not in raised_on

        tw, d = setup_for(S3)
        with pytest.raises(NegativePeriodSum):
            period_sum_tally(tw, d, np.full(tw.r, 10 * tw.r, dtype=np.int64))
        assert threading.active_count() == before

    def test_grid_size_work_starts_no_thread(self, monkeypatch):
        # work that fits one block at the full budget stays on the calling
        # thread, whatever the worker count
        class NoThread:
            def __init__(self, *args, **kwargs):
                raise AssertionError("a thread was started")

        monkeypatch.setattr(_engine, "WORKERS", 2)
        monkeypatch.setattr(threading, "Thread", NoThread)
        flags = _spy_threaded(monkeypatch)
        for sp in (S1, S3, S6, STHM3, CodeSpec(2, 1, 8, 3, 2, 1, (0, 1))):
            assert cross_verify(sp).passed, sp
        assert flags and not any(flags)


class TestTypedChecks:
    """Internal consistency checks raise typed errors, which python -O keeps."""

    def test_negative_period_sum(self):
        tw, d = setup_for(S6)
        with pytest.raises(NegativePeriodSum):
            period_sum_tally(tw, d, np.full(tw.r, 10 * tw.r, dtype=np.int64))

    def test_non_integral_sampled_weight(self):
        # q = 2, delta = 1, e = 7: 7 * 63 is not a multiple of 14
        tw, d = setup_for(S5)
        with pytest.raises(NonIntegralWeight):
            sample_weights(tw, d, np.zeros(tw.r, dtype=np.int64), (0,), 10,
                           seed=0)

    def test_six_weight_claim_needs_square_r(self):
        tw, d = setup_for(S1)  # r = 27
        rep = VerificationReport(spec=S1,
                                 classification=CaseClassification(TAG_E3T2N2),
                                 derived=d,
                                 assumptions=validate_assumptions(tw, S1, d))
        assert rep.assumptions.cond_iii
        with pytest.raises(UnsupportedCase):
            _check_invariants(rep, tw)

    def test_fast_criterion_mismatch(self, monkeypatch):
        # golden 1 has N = 1, so the sqrt-bound criterion claims iii; cosets
        # of the wrong size contradict it
        tw, d = setup_for(S1)
        monkeypatch.setattr(cyclotome.codes, "cyclotomic_coset",
                            lambda a, q, r: {a})
        with pytest.raises(CriterionMismatch):
            validate_assumptions(tw, S1, d)

    def test_closed_frequency_sum(self, monkeypatch):
        tw, d = setup_for(S1)
        monkeypatch.setattr(cyclotome.weights, "_closed_tlt_n1",
                            lambda tower, derived: {0: 1, 9: 52})
        with pytest.raises(FrequencySumMismatch):
            closed_dist(tw, S1, d)

    def test_no_assert_statements_in_src(self):
        # neither assert statements nor raise AssertionError (with or
        # without a message)
        def asserts(node):
            if isinstance(node, ast.Assert):
                return True
            exc = node.exc if isinstance(node, ast.Raise) else None
            if isinstance(exc, ast.Call):
                exc = exc.func
            return isinstance(exc, ast.Name) and exc.id == "AssertionError"

        src = Path(cyclotome.__file__).parent
        found = [f"{path.name}:{node.lineno}"
                 for path in sorted(src.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text()))
                 if asserts(node)]
        assert found == []


class TestTableConsistency:
    def test_sparse_table_specializes_to_full_table(self):
        # at t = e the two frequency formulas coincide term by term
        for r in (9, 25, 27, 49):
            for e in range(2, 11):
                for u in range(1, e + 1):
                    lhs = comb(e, e - u) * sum(
                        (-1) ** k * comb(u, k) * (r ** (u - k) - 1)
                        for k in range(u))
                    assert lhs == comb(e, u) * (r - 1) ** u

    def test_six_weight_frequency_sum(self):
        for r in (9, 25, 49, 81, 121, 169, 625):
            total = (1 + 2 * (3 * (r - 1) // 2)
                     + 2 * ((r - 1) * (r - 5) // 8)
                     + 2 * (3 * (r - 1) ** 2 // 8))
            assert total == r ** 2

    def test_weight_count_bound(self):
        # distinct nonzero weights never exceed C(mu + e, e) - 1
        for sp, d, cl in criterion_grid()[:20]:
            if cl.tag != TAG_TE_N2:
                continue
            tw = tower_for(sp)
            mu = len(set(gaussian_periods(tw, d.N).values))
            dist = wd_closed(tw, d, cl)
            nonzero = sum(1 for w, _ in dist.entries if w > 0)
            assert nonzero <= comb(mu + d.e, d.e) - 1
