"""Command-line interface: output formats, exit codes, JSON canonicality."""

import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import cyclotome
from cyclotome.cli import main
from cyclotome.corpus import golden_examples, run_corpus


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_weights_closed_example(capsys):
    code, out, _ = run_cli(
        capsys, "weights", "--p", "3", "--s", "1", "--m", "3", "--e", "2",
        "--t", "2", "--a", "1", "--delta", "0,1", "--modulus", "1,2,0,1",
        "--method", "closed")
    assert code == 0
    assert "1 + 52z^9 + 676z^18" in out
    assert "[26, 6, 9]" in out


def test_weights_json_round_trip(capsys):
    code, out, _ = run_cli(
        capsys, "weights", "--p", "3", "--s", "1", "--m", "3", "--e", "2",
        "--t", "2", "--a", "1", "--delta", "0,1", "--method", "closed",
        "--json")
    assert code == 0
    text = out.strip()
    obj = json.loads(text)
    assert json.dumps(obj, sort_keys=True, separators=(",", ":")) == text
    assert obj["weights"] == [{"count": "1", "w": 0},
                              {"count": "52", "w": 9},
                              {"count": "676", "w": 18}]
    assert obj["n"] == 26 and obj["k"] == 6 and obj["d"] == 9


def test_weights_auto_falls_back_to_enumeration(capsys):
    code, out, _ = run_cli(
        capsys, "weights", "--p", "11", "--s", "1", "--m", "2", "--e", "10",
        "--t", "2", "--a", "1", "--delta", "0,1", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["classification"]["tag"] == "unsupported"
    assert sum(int(e["count"]) for e in obj["weights"]) == 121 ** 2


def test_periods_human_and_closed_form(capsys):
    code, out, _ = run_cli(
        capsys, "periods", "--p", "2", "--s", "1", "--m", "6", "--L", "7",
        "--modulus", "1,1,0,1,1,0,1")
    assert code == 0
    assert "eta_0 = 5" in out
    assert "index2" in out and "matches exact: True" in out


def test_periods_without_closed_form(capsys):
    # 29 is 1 mod 7: a square, but of order 1, so the index-2 form does
    # not apply
    code, out, _ = run_cli(capsys, "periods", "--p", "29", "--m", "3",
                           "--L", "7")
    assert code == 0
    assert "closed form: none applicable" in out


def test_periods_json_schema(capsys):
    code, out, _ = run_cli(
        capsys, "periods", "--p", "2", "--s", "1", "--m", "6", "--L", "7",
        "--modulus", "1,1,0,1,1,0,1", "--json", "--tallies")
    obj = json.loads(out)
    assert sorted(obj["values"]) == [-3, -3, -3, 1, 1, 1, 5]
    assert obj["modified_zero"] == 9
    assert obj["closed_form"]["variant"] == "index2"
    assert obj["closed_form"]["params"]["a_qf"] == -1
    assert len(obj["tallies"]) == 7
    assert all(sum(t) == 9 for t in obj["tallies"])


# sha256 of stdout, text and --json --tallies, with the default modulus:
# order2 even and odd, order3, semiprimitive general and all-odd, index2
# twice, irrational with no closed form, and integer with none
PERIODS_DIGESTS = [
    ((7, 2, 2), "681cddf892b9be2ce609cf7744264475642050921d5782995377c6a54001e447",
     "5a39c60e2df14236d3939743676cb3a46d25259d1b7ea706e50b51ed3e9b0558"),
    ((3, 5, 2), "61c6cdf3e35548a9d51452a8cf09e0d595f3e83ce0d1400a15d453a454d004af",
     "758da5acd817fe3b8a6b9d98c8c92384f2598c7a3c6ef0c834066a17138c8917"),
    ((7, 3, 3), "a065d592aa0f99d0e5325c42e82cb69b015cc1500574cc87682ff571ef58cc17",
     "85cbefc45d4fc55c4b26e969477dd463fa2aa1194b8b10664d8b0196b49bc31f"),
    ((5, 2, 3), "477eae321733c05e2ed5c9ff2f69c9442906436be814d59fb6aa307edf8a3910",
     "11d1cacbe04804d8b6bbdf57761141403c65ee64ec322c42cb156d86353e1937"),
    ((3, 2, 4), "a52de5a87ba11abf8da4f2cc937768c6f422a1ecd0515ddfd0ba08306b9dadd2",
     "ff443656e96e81ba94ab33c4d5b9de35e01da541ce131dc5d649da9fc4ef6d9a"),
    ((2, 6, 7), "76286b4a02cd59126effb6dda99bff5c3f5c96ef657399f0dea11ef561a9f11e",
     "62be9c2e5eedcd9841f35d8504c64676e528f726314b25d9f4034d5aa6e11d22"),
    ((3, 5, 11), "2b0564af19207d340f822302aa666f5c069eccd2bb60ea32ab96b10d3589d65a",
     "6d32520a70e440f88f209d3c41483c3ae1f5e91a18f491d1410c1836ee9a053c"),
    ((3, 4, 16), "71c349f65849ff2045c737aaf4c9c9fbea18d3a08942e9d9f62b4547a5ddde35",
     "a5e5113554afcf5008619b5aaf47e5132e7fdbf0c597b4b59fbd1aa50d07a22d"),
    ((29, 3, 7), "de01bf68846a030e5707421b57b625ce0c1f6fc3dc5f12263f7d06117407cb76",
     "60109e68ac65ab85a7f5188b93ef6f09976ed22e515a508691e41093bd58ab55"),
]


@pytest.mark.parametrize("pmL, text_digest, json_digest", PERIODS_DIGESTS,
                         ids=[f"{p}^{m}-L{L}" for (p, m, L), *_ in
                              PERIODS_DIGESTS])
def test_periods_bytes_are_pinned(pmL, text_digest, json_digest, capsys):
    p, m, L = map(str, pmL)
    argv = ["periods", "--p", p, "--m", m, "--L", L]
    for extra, want in (([], text_digest), (["--json", "--tallies"],
                                            json_digest)):
        code, out, err = run_cli(capsys, *argv, *extra)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == want, extra


# sha256 of stdout for each golden example, in corpus order, of the
# GOLDEN_COMMANDS; each exits 0 with nothing on stderr
GOLDEN_COMMANDS = (("params",), ("params", "--json"), ("verify",),
                   ("verify", "--json"), ("weights", "--json"))
GOLDEN_DIGESTS = [
    ("46207afcc0ffbd47905d826da3fcc1bdb0afd0dc1b1f9a0872c00a2ef617cb77",
     "9ba0c203f3f1f6488565ef17014c2c9be08b98b2c56bdcc077b8ceba3f3cc68f",
     "d0865a2d9ccfe444995721895a3d58b36f8dbcd83382a08d3dbff48682a91ca2",
     "8c6783666818b84f21c751a469892182e41702306190e21a569bef2794f5606f",
     "0e7d8d0fb85495994de082f7ff3d4c062c2d4bd913250e139ef9dc62529f37cc"),
    ("e424473b6e0b1779d348722ea7f0cce3338e066b7eb5972a224c3f18114e9c27",
     "a0b3632f3fc8522f01f1f407489675fe37f618b0fba077eba28ab5b014968a23",
     "f11883a4d8dc4e1b5190854e8397acb28f8185b31efa9243856e4dcaa871354a",
     "9f8bb8d393d31e0c6236883bf6dc5b470a6a8f4b3fe14a32a7916111b4cdb389",
     "9f6d53f0419468470f3d76b78b0278004c3c22ace409cb98d8e830d32839667e"),
    ("1ea1ddf2cb3aa1508bcb3544f592b6b9ab9f6a8d01fcb227bf7d8de33d9f23d0",
     "f9f2b05dea59c220dd38053f32d4452497f63a9c89fea022121b7b9c601f6787",
     "df43161f1d3577381b0a9bef98cd3cb959f588589435df1f55921116553f860c",
     "8329607a98314be42fc714a9d854e9219e0d1954a9e9d18fd88927b720048690",
     "9122532847726b9badf2646dd64066807e500c620aabb0be8a2bfd9182e2701d"),
    ("5e7a09582adc4e75aa60a6614cb362a62fa285d8d308c12c8e7e1e4806319b9a",
     "e55a7d4b18a85837eab619f52f21eb884fbc42e3fedad5ae3c78ce945162cc6f",
     "ed828b2bf92c70fe7d9fa78b2ddadc57d4393bff29a9dd119306201a06367b9e",
     "2c015a3b9119132cadf6ee24fa2de13a39cb63ce2fd19d4f010fa0405c5a2ebe",
     "0374aa0309f4b4b028027e576d2d9e10cda8185aede856a9c803937c4d81d788"),
    ("3097fed49ee379f73c84df647c32e788e17f77f537e9701896f86b3fd498b933",
     "530bdb46f88592137dd511c8e1486030a551a1e9f9f7d88e9c522cbe4c3a896f",
     "c82ca0f738e3011ab89434034775221034750aa494d2de91dd33dbca1dfc4089",
     "1d9573d58ad2c667e2a08d902564dba7bc74b1fe48d6a3c324d6494dd6cfebab",
     "a31a48d88b36c5291e5358fb86eb30ca3ec2b69a1240320191a72d24f19eba03"),
    ("c929bedbcc1dde0d313a0a0bcf6d14fc91ebffdfbb9bf2b82fc0b8465fce2043",
     "245f4ec2319314459dc0438ac1a866f14a0364bfde396ff522b05fe5fe7f3219",
     "b3b523c5e73d1b20fbe5756db364fe9a4c361705c5ef9888b7bc78d7143032b1",
     "ef6e3f02b2b84f4a1a20f1226aa600dcd3ecd302cf82826228d59f9d53d2028f",
     "70f3dee5622f9a66dbab071c7628c3444071efb3537f718ca967ccdd5f36a963"),
]
CORPUS_JSON_DIGEST = (
    "67454a571a1d3e005cdedbc5979cce3426db5d1b6e7f03883ace5224bccfafdf")


def golden_flags(spec) -> list[str]:
    """The CLI flags that give a golden spec, modulus included."""
    flags = {"p": spec.p, "s": spec.s, "m": spec.m, "e": spec.e, "t": spec.t,
             "a": spec.a, "delta": ",".join(map(str, spec.deltas)),
             "modulus": ",".join(map(str, spec.modulus))}
    return [arg for k, v in flags.items() for arg in (f"--{k}", str(v))]


@pytest.mark.parametrize("ex, digests", zip(golden_examples(), GOLDEN_DIGESTS),
                         ids=[f"golden-{i}" for i in range(1, 7)])
def test_golden_bytes_are_pinned(ex, digests, capsys):
    for (command, *extra), want in zip(GOLDEN_COMMANDS, digests):
        code, out, err = run_cli(capsys, command, *golden_flags(ex.spec),
                                 *extra)
        assert (code, err) == (0, ""), (command, extra)
        assert hashlib.sha256(out.encode()).hexdigest() == want, (command,
                                                                 extra)


def test_corpus_json_bytes_are_pinned(capsys):
    code, out, err = run_cli(capsys, "corpus", "--json")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == CORPUS_JSON_DIGEST


# sha256 of `params` stdout, text and --json, at large n, where g has
# degree 531416 and 1048569: 3^12 at (e, t) = (2, 2), and GF(2^20) over
# GF(2^10) at (31, 3); and on GF(16) over itself (m = 1, q = r), where a
# coefficient g^1 prints as plain g
LARGE_PARAMS_DIGESTS = [
    ("--p 3 --m 12 --e 2 --t 2 --a 1 --delta 0,1",
     "9f9725956b5eee26da0ac004a0b04c8492bda817d0c4c03533820cc53b5d62c3",
     "81327e20e7343103953de260998787114dc7c0c9134c0ac810e5b2563cc1ddf8"),
    ("--p 2 --s 10 --m 2 --e 31 --t 3 --a 1 --delta 0,1,2",
     "283cec8b2790af48eb1f630dac69b32c6894e9f5443ff7df20be2ad0ff5d64d0",
     "450759c184f7e5feb2d2ebbaf267ac85265116b8e56515e3bd17bf30f5f851ab"),
    ("--p 2 --s 4 --m 1 --e 3 --t 2 --a 1 --delta 0,1",
     "39d2a27bed3e5f3136f485d10b73521ec0ad5097e137c73461eec7e2772d0c6a",
     "b2c5e5695c65c1f5e7eb2d6206e74c45ab02d8aa35e3ea1465556f937a38e18d"),
]


@pytest.mark.parametrize("flags, text_digest, json_digest",
                         LARGE_PARAMS_DIGESTS,
                         ids=["3^12", "2^20-s10", "2^4-m1"])
def test_large_params_bytes_are_pinned(flags, text_digest, json_digest,
                                       capsys):
    for extra, want in (([], text_digest), (["--json"], json_digest)):
        code, out, err = run_cli(capsys, "params", *flags.split(), *extra)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == want, extra


def test_large_params_traced_peak(capsys):
    # g of degree 1048569 goes from one coefficient array to its text
    # through one name per distinct value, not one Python int and one str
    # per coefficient, and the text form writes its terms in chunks (one
    # str per term took it to 110 MB); the tower is built first, so its
    # tables do not count
    cyclotome.build_field(2, 10, 2)
    for form in (["--json"], []):
        tracemalloc.start()
        try:
            code = main("params --p 2 --s 10 --m 2 --e 31 --t 3 --a 1"
                        " --delta 0,1,2".split() + form)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and len(capsys.readouterr().out) > 10 ** 6
        assert peak <= 64 * 2 ** 20, (
            f"{form}: traced peak {peak / 2**20:.1f} MB")


@pytest.mark.parametrize("pmL", [(2, 6, 7), (7, 3, 3)],
                         ids=["2^6-L7", "7^3-L3"])
def test_periods_tallies_the_oracle_once(pmL, capsys, monkeypatch):
    # the closed form reads its class labels off the periods the command
    # already tallied, at 2^6 (index 2) and 7^3 (order 3)
    calls = []
    real = cyclotome.cyclotomy.gaussian_periods

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cyclotome.cli, "gaussian_periods", counted)
    monkeypatch.setattr(cyclotome.cyclotomy, "gaussian_periods", counted)
    p, m, L = map(str, pmL)
    code, out, _ = run_cli(capsys, "periods", "--p", p, "--m", m, "--L", L)
    assert code == 0 and "matches exact: True" in out
    assert len(calls) == 1


def count_analysis_calls(monkeypatch) -> dict:
    """Wrap derive_params and validate_assumptions wherever cli, weights,
    codes and corpus import them; the returned dict counts their calls."""
    calls = {"derive_params": 0, "validate_assumptions": 0}
    for name in calls:
        real = getattr(cyclotome.codes, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        for mod in (cyclotome.cli, cyclotome.weights, cyclotome.codes,
                    cyclotome.corpus):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, counted)
    return calls


def test_each_command_analyses_a_spec_once(capsys, monkeypatch):
    calls = count_analysis_calls(monkeypatch)
    code, _, _ = run_cli(capsys, "params",
                         *golden_flags(golden_examples()[5].spec), "--json")
    assert code == 0
    assert calls["validate_assumptions"] == 1
    calls.update(derive_params=0, validate_assumptions=0)
    code, _, _ = run_cli(capsys, "verify",
                         *golden_flags(golden_examples()[0].spec), "--json")
    assert code == 0
    assert calls == {"derive_params": 1, "validate_assumptions": 1}
    calls.update(derive_params=0, validate_assumptions=0)
    assert run_corpus().passed
    assert calls == {"derive_params": 6, "validate_assumptions": 6}


def test_periods_irrational_values_json(capsys):
    code, out, _ = run_cli(capsys, "periods", "--p", "3", "--s", "1",
                           "--m", "4", "--L", "16", "--json")
    obj = json.loads(out)
    assert any(isinstance(v, dict) and "zeta_counts" in v
               for v in obj["values"])
    assert obj["closed_form"] is None


def test_cyclonum(capsys):
    code, out, _ = run_cli(capsys, "cyclonum", "--p", "3", "--s", "1",
                           "--m", "3", "--L", "2", "--json")
    assert code == 0
    assert json.loads(out)["matrix"] == [[6, 7], [6, 6]]


def test_params_prints_polynomials(capsys):
    code, out, _ = run_cli(
        capsys, "params", "--p", "7", "--s", "1", "--m", "2", "--e", "3",
        "--t", "2", "--a", "2", "--delta", "0,1", "--modulus", "3,6,1")
    assert code == 0
    assert "h(x) = x^4 + 2x^3 + 2x^2 + 4x + 4" in out
    assert "delta  = 2   n = 24   N = 2" in out


def test_params_json_subfield_serial(capsys):
    code, out, _ = run_cli(
        capsys, "params", "--p", "3", "--s", "2", "--m", "2", "--e", "2",
        "--t", "2", "--a", "1", "--delta", "0,1", "--json")
    obj = json.loads(out)
    assert code == 0
    assert obj["N"] == 2
    assert all("," in h for h in obj["h_i"])  # serialized coefficient lists


def test_verify_exit_codes(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--p", "3", "--s", "1", "--m", "3", "--e", "2",
        "--t", "2", "--a", "1", "--delta", "0,1")
    assert code == 0
    assert "agreed: True" in out


def test_corpus_closed_only(capsys):
    code, out, _ = run_cli(capsys, "corpus", "--max-enum", "0")
    assert code == 0
    assert out.count("PASS") == 6 and "all passed" in out


def test_corpus_json_is_canonical(capsys):
    code, out, _ = run_cli(capsys, "corpus", "--max-enum", "0", "--json")
    assert code == 0
    text = out.strip()
    assert json.dumps(json.loads(text), sort_keys=True,
                      separators=(",", ":")) == text


def test_verify_json_is_canonical(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--p", "3", "--s", "1", "--m", "3", "--e", "2",
        "--t", "2", "--a", "1", "--delta", "0,1", "--json")
    assert code == 0
    text = out.strip()
    obj = json.loads(text)
    assert json.dumps(obj, sort_keys=True, separators=(",", ":")) == text
    assert obj["passed"] is True and obj["methods_agreed"] is True


# r^t = 8^4 is over both enumeration caps and the power matrix has a
# singular minor, so no method runs
NO_METHOD_ARGV = ("verify", "--p", "2", "--s", "3", "--m", "1", "--e", "7",
                  "--t", "4", "--a", "29", "--delta", "1,4,0,2",
                  "--max-enum", "312")


def test_verify_with_no_method_says_why(capsys):
    code, out, err = run_cli(capsys, *NO_METHOD_ARGV)
    assert code == 1
    assert "methods run: []" in out and "error" not in out
    assert err == ("error: no method ran (naive: r^t = 4096 > cap 312; "
                   "tsum: r^t = 4096 > cap 312; closed: a t x t minor of "
                   "the power matrix is singular)\n")
    code, out, err_json = run_cli(capsys, *NO_METHOD_ARGV, "--json")
    obj = json.loads(out)
    assert code == 1 and obj["methods_run"] == [] and obj["passed"] is False
    assert err_json == err


def test_computation_error_exit_1(capsys):
    # e does not divide r - 1
    code, _, err = run_cli(
        capsys, "params", "--p", "3", "--s", "1", "--m", "3", "--e", "4",
        "--t", "2", "--a", "1", "--delta", "0,1")
    assert code == 1
    assert "does not divide" in err


def test_usage_error_exit_2():
    # the second: weights never samples, so it takes no --seed
    for argv in (["weights", "--p", "3"],
                 ["weights", "--p", "3", "--m", "3", "--e", "2", "--t", "2",
                  "--a", "1", "--delta", "0,1", "--seed", "0"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv


def test_auto_with_no_feasible_method_gives_guidance(capsys):
    code, _, err = run_cli(
        capsys, "weights", "--p", "11", "--s", "1", "--m", "2", "--e", "10",
        "--t", "2", "--a", "1", "--delta", "0,1", "--max-enum", "10")
    assert code == 1
    assert "no feasible method" in err and "max-enum" in err
    # the reasons are the plan's, as verify reports them
    assert ("(closed: t < e with N = 2 has no closed form here; "
            "tsum: r^t = 14641 > cap 10)") in err


@pytest.mark.parametrize("method", ["naive", "tsum"])
def test_explicit_method_over_the_cap_is_an_error(method, capsys):
    code, out, err = run_cli(
        capsys, "weights", "--p", "3", "--s", "1", "--m", "3", "--e", "2",
        "--t", "2", "--a", "1", "--delta", "0,1", "--method", method,
        "--max-enum", "728")
    assert code == 1 and out == ""
    assert err.startswith("error: r^t = 729 exceeds the ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("periods", "--p", "3", "--m", "2", "--L", "4"),
    ("cyclonum", "--p", "3", "--m", "2", "--L", "4")])
def test_count_table_over_budget_is_an_error(argv, capsys, monkeypatch):
    # L p = 12 trace counts, L (L + 1) = 20 cyclotomic numbers
    from cyclotome import cyclotomy

    monkeypatch.setattr(cyclotomy, "COUNT_TABLE_ENTRIES", 10)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: the order-4 count table has ")
    assert "over the budget of 10" in err


def test_cap_env_override(capsys, monkeypatch):
    monkeypatch.setenv("CYCLOTOME_MAX_ENUM", "10")
    code, _, err = run_cli(
        capsys, "weights", "--p", "3", "--s", "1", "--m", "3", "--e", "2",
        "--t", "2", "--a", "1", "--delta", "0,1", "--method", "naive")
    assert code == 1
    assert "cap" in err


def test_delta_length_mismatch(capsys):
    code, _, err = run_cli(
        capsys, "weights", "--p", "3", "--s", "1", "--m", "3", "--e", "2",
        "--t", "2", "--a", "1", "--delta", "0,1,2")
    assert code == 1 and "exactly t" in err


def test_out_of_memory_exit_1(capsys, monkeypatch):
    from cyclotome import _engine

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(_engine, "period_sum_tally", exhausted)
    code, out, err = run_cli(
        capsys, "weights", "--p", "3", "--s", "1", "--m", "3", "--e", "2",
        "--t", "2", "--a", "1", "--delta", "0,1", "--method", "tsum")
    assert code == 1 and out == ""
    assert err.startswith("error: out of memory; lower --max-enum")


def test_out_of_memory_hint_names_only_own_flags(capsys, monkeypatch):
    # periods has no --max-enum, so its hint must not name it
    from cyclotome import cli

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "gaussian_periods", exhausted)
    code, out, err = run_cli(capsys, "periods", "--p", "3", "--m", "2",
                             "--L", "2")
    assert code == 1 and out == ""
    assert err == "error: out of memory; pick a smaller spec\n"


def test_internal_inconsistency_exit_1(capsys, monkeypatch):
    # a closed table whose frequencies do not sum to r^t is a typed error,
    # so the CLI reports it instead of printing a traceback
    from cyclotome import weights

    monkeypatch.setattr(weights, "_closed_tlt_n1",
                        lambda tower, derived: {0: 1})
    code, out, err = run_cli(
        capsys, "weights", "--p", "3", "--s", "1", "--m", "3", "--e", "2",
        "--t", "2", "--a", "1", "--delta", "0,1", "--method", "closed")
    assert code == 1 and out == ""
    assert err.startswith("error: closed table frequencies")


def cli_env():
    """The environment for a fresh interpreter that imports this checkout."""
    env = dict(os.environ)
    src = str(Path(cyclotome.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_cli_process(*argv, env=None):
    """Run the CLI in a fresh interpreter, so an uncaught exception would
    show as a traceback on stderr."""
    return subprocess.run([sys.executable, "-m", "cyclotome.cli", *argv],
                          capture_output=True, text=True,
                          env=env or cli_env(), timeout=60)


@pytest.mark.parametrize("argv, message", [
    (("weights", "--p", "3", "--m", "3", "--e", "2", "--t", "3",
      "--a", "1", "--delta", "0,1,2"), "e >= t"),
    (("weights", "--p", "3", "--m", "3", "--e", "2", "--t", "2",
      "--a", "1", "--delta", "0,1", "--modulus", "1,1"), "degree 3"),
    (("periods", "--p", "3", "--s", "0", "--m", "3", "--L", "2"),
     "positive"),
])
def test_bad_parameters_exit_1_without_traceback(argv, message):
    proc = run_cli_process(*argv)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and message in proc.stderr


@pytest.mark.parametrize("argv", [
    ("periods", "--p", "2", "--m", "15000", "--L", "3"),  # 4516 digits
    ("periods", "--p", "3", "--m", "30000000", "--L", "2"),
    ("periods", "--p", "1000000000000000003", "--m", "1", "--L", "2"),
])
def test_oversized_field_exit_1_at_once(argv):
    # the table cap is checked before p is tested for primality and
    # before p^(s m) is formed, so none of these hangs or overflows int
    # string conversion
    proc = subprocess.run([sys.executable, "-m", "cyclotome.cli", *argv],
                          capture_output=True, text=True, env=cli_env(),
                          timeout=10)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and "table cap" in proc.stderr


GOLDEN_5_ARGV = ("verify", "--p", "2", "--m", "6", "--e", "7", "--t", "7",
                  "--a", "1", "--delta", "0,1,2,3,4,5,6")


def test_negative_seed_exit_2_without_traceback():
    # numpy refuses a negative seed; argparse must refuse it first
    proc = run_cli_process(*GOLDEN_5_ARGV, "--seed", "-1")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and "--seed" in proc.stderr


def test_bad_cap_env_exit_1_without_traceback():
    proc = run_cli_process(*GOLDEN_5_ARGV,
                           env=dict(cli_env(), CYCLOTOME_MAX_ENUM="abc"))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: CYCLOTOME_MAX_ENUM")


@pytest.mark.parametrize("argv", [
    ("weights", "--p", "3", "--m", "3", "--e", "2", "--t", "2", "--a", "1",
     "--delta", "0,1"),
    ("verify", "--p", "3", "--m", "3", "--e", "2", "--t", "2", "--a", "1",
     "--delta", "0,1"),
    ("corpus",),
], ids=lambda argv: argv[0])
def test_negative_max_enum_is_a_usage_error(argv, capsys):
    # a negative cap would skip every enumeration and still exit 0
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--max-enum", "-5"])
    assert exc.value.code == 2
    assert "--max-enum" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [GOLDEN_5_ARGV, ("corpus",)],
                         ids=lambda argv: argv[0])
def test_negative_cap_env_exit_1(argv, capsys, monkeypatch):
    monkeypatch.setenv("CYCLOTOME_MAX_ENUM", "-3")
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: CYCLOTOME_MAX_ENUM")


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_exit_1_without_traceback(unbuffered):
    # the reader of stdout goes away before the CLI prints, as with
    # `cyclotome verify ... --json | head -c 10`: exit 1, nothing on stderr.
    # Block-buffered stdout fails at the final flush, unbuffered in print
    env = cli_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with subprocess.Popen(
            [sys.executable, "-m", "cyclotome.cli", "verify", "--p", "7",
             "--m", "2", "--e", "2", "--t", "2", "--a", "1", "--delta", "0,1",
             "--json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 1
    assert err == ""


@st.composite
def code_argvs(draw):
    """argv for the five code subcommands over fields of at most 3^6
    elements.  Each value comes from its valid range, or one time in eight
    from a wider range that holds invalid values too."""
    def pick(valid, wide):
        return draw(wide if draw(st.integers(0, 7)) == 0 else valid)

    def commas(values):
        return ",".join(map(str, values))

    command = draw(st.sampled_from(
        ("params", "periods", "cyclonum", "weights", "verify")))
    p = pick(st.sampled_from((2, 3, 5, 7)),
             st.sampled_from((0, 1, 2, 3, 4, 5, 7)))
    s = pick(st.integers(1, 4), st.integers(-1, 4))
    m = pick(st.integers(1, 4), st.integers(-1, 4))
    assume(s * m <= 0 or p ** (s * m) <= 3 ** 6)
    r1 = max(p ** (s * m) - 1, 1) if s * m > 0 else 1
    divisors = [d for d in range(1, r1 + 1) if r1 % d == 0]
    argv = [command, "--p", str(p), "--s", str(s), "--m", str(m)]
    if pick(st.just(False), st.booleans()):
        argv += ["--modulus",
                 commas(draw(st.lists(st.integers(-1, 8), max_size=8)))]
    if command in ("periods", "cyclonum"):
        L = pick(st.sampled_from(divisors), st.integers(-2, 3 ** 6))
        argv += ["--L", str(L)]
    else:
        e = pick(st.sampled_from([d for d in divisors if 2 <= d <= 8] or [1]),
                 st.integers(-1, 8))
        t = pick(st.integers(2, max(2, min(e, 4))), st.integers(-1, 4))
        a = pick(st.integers(0, 30), st.integers(-2, 30))
        delta = pick(st.lists(st.integers(0, max(e - 1, 0)),
                              min_size=max(t, 0), max_size=max(t, 0),
                              unique=0 <= t <= e),
                     st.lists(st.integers(-2, 9), max_size=5))
        argv += ["--e", str(e), "--t", str(t), "--a", str(a),
                 "--delta", commas(delta)]
    if command in ("weights", "verify"):
        argv += ["--max-enum", str(pick(st.integers(0, 10 ** 4),
                                        st.integers(-1, 10 ** 4)))]
    if command == "weights":
        argv += ["--method", pick(
            st.sampled_from(("auto", "naive", "tsum", "closed")),
            st.sampled_from(("auto", "naive", "tsum", "closed", "dual")))]
    if draw(st.booleans()):
        argv.append("--json")
    return argv


@settings(max_examples=150, deadline=timedelta(seconds=10))
@given(code_argvs())
def test_fuzzed_argv_ends_without_traceback(argv):
    # every input ends in exit 0 or 1 from main, or in argparse's exit 2
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("usage", exc.code)
    assert code in (0, 1, ("usage", 2)), argv
    assert "Traceback" not in err.getvalue(), argv
