"""The six golden end-to-end fixtures."""

import dataclasses

import pytest

from cyclotome import _engine
from cyclotome.cli import main
from cyclotome.corpus import golden_examples, run_corpus, run_example
from cyclotome.weights import Caps


@pytest.fixture(scope="module")
def full_report():
    return run_corpus()


def test_six_examples(full_report):
    assert len(full_report.results) == 6


def test_all_pass(full_report):
    for res in full_report.results:
        assert res.passed, (res.name, res.diffs)


def test_method_coverage(full_report):
    by_name = {r.name: r.methods for r in full_report.results}
    triple = [n for n, ms in by_name.items() if set(ms) ==
              {"closed", "tsum", "naive"}]
    assert len(triple) == 4
    assert any(set(ms) == {"closed", "tsum"} for ms in by_name.values())
    assert any(set(ms) == {"closed"} for ms in by_name.values())


def test_fixture_checksums():
    # the pinned numbers themselves satisfy the counting identities
    for ex in golden_examples():
        size = ex.spec.r ** ex.spec.t
        assert sum(c for _, c in ex.enumerator) == size
        q = ex.spec.q
        moment = sum(w * c for w, c in ex.enumerator)
        assert moment == ex.n * size * (q - 1) // q
        assert ex.enumerator[0] == (0, 1)
        assert ex.d == min(w for w, _ in ex.enumerator if w > 0)


def test_fixture_periods_are_rational():
    # every period order N arising in the corpus has integer period values
    from cyclotome.codes import build_tower, derive_params
    from cyclotome.cyclotomy import gaussian_periods

    for ex in golden_examples():
        tw = build_tower(ex.spec)
        d = derive_params(tw, ex.spec)
        pset = gaussian_periods(tw, d.N)
        assert None not in pset.rational_values, ex.name


def test_perturbed_fixture_fails_with_pointed_diff():
    ex = golden_examples()[0]
    bad_enum = ((0, 1), (9, 53), (18, 675))
    bad = dataclasses.replace(ex, enumerator=bad_enum)
    res = run_example(bad)
    assert not res.passed
    assert any("enumerator" in d for d in res.diffs)


def test_closed_form_only_mode(full_report):
    rep = run_corpus(Caps(naive=0, tsum=0))
    assert rep.passed
    for res in rep.results:
        assert res.methods == ["closed"]


def test_broken_sampler_fails_the_corpus(monkeypatch):
    # golden 5 is out of enumeration reach, so only its closed table and
    # the sampling check stand between a wrong sampler and a PASS
    real = _engine.sample_weights
    ex = golden_examples()[4]

    def skewed(*args):
        # 1% of the largest class's draws counted at weight d instead
        tally = real(*args)
        top = max(tally, key=tally.get)
        moved = tally[top] // 100
        tally[top] -= moved
        tally[ex.d] = tally.get(ex.d, 0) + moved
        return tally

    monkeypatch.setattr(_engine, "sample_weights", skewed)
    res = run_example(ex)
    assert res.methods == ["closed"]
    assert res.diffs == ["sampling ok: got False, expected True"]


@pytest.fixture
def sampled_seeds(monkeypatch):
    seeds = []
    real = _engine.sample_weights

    def spy(tower, derived, class_values, support, count, seed):
        seeds.append(seed)
        return real(tower, derived, class_values, support, count, seed)

    monkeypatch.setattr(_engine, "sample_weights", spy)
    return seeds


def test_seed_reaches_the_sampler(sampled_seeds):
    assert run_corpus(Caps(naive=0, tsum=0, seed=7)).passed
    assert sampled_seeds == [7] * 6


def test_cli_seed_reaches_the_sampler(sampled_seeds, capsys):
    assert main(["corpus", "--max-enum", "0", "--seed", "7"]) == 0
    assert sampled_seeds == [7] * 6
    assert "all passed" in capsys.readouterr().out


def test_json_report_shape(full_report):
    obj = full_report.to_json_dict()
    assert obj["passed"] is True
    assert len(obj["results"]) == 6
    assert all(set(r) == {"name", "passed", "methods", "diffs"}
               for r in obj["results"])
