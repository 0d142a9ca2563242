import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import rankmetric
from rankmetric import cli, crypto_row, make_field
from rankmetric.cli import _elem, _keysize_dict, _parse_vector, _vector, \
    main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.strip(), captured.err.strip()


def test_count(capsys):
    code, out, _ = run_cli(capsys, "count", "--kind", "sp-sym",
                           "--n", "3", "--t", "1", "--q", "2")
    assert code == 0
    assert out.split()[0] == "7"


def test_count_huge_prime_q_finishes():
    # a 61-bit prime q once hung the prime-power check; run in a child
    # process so that a hang fails the test instead of stalling the suite
    q = 2 ** 61 - 1
    env = dict(os.environ,
               PYTHONPATH=str(Path(rankmetric.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "rankmetric.cli", "count", "--kind", "rank",
         "--n", "2", "--t", "1", "--q", str(q)],
        capture_output=True, text=True, timeout=5, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[0] == str((q - 1) * (q + 1) ** 2)


def test_count_gauss(capsys):
    code, out, _ = run_cli(capsys, "count", "--kind", "gauss",
                           "--n", "4", "--t", "2", "--q", "2")
    assert code == 0 and out.split()[0] == "35"


def test_count_prints_counts_of_any_size(capsys):
    # str() of an int stops at 4300 decimal digits by default; this count
    # has 32,498.  It prints whole, and the interpreter's cap reads as
    # before once main returns
    get_limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    limit = get_limit()
    code, out, err = run_cli(capsys, "count", "--kind", "rank", "--n", "120",
                             "--t", "60", "--q", "1021")
    assert code == 0, err
    assert get_limit() == limit
    digits, log2 = out.split()
    assert len(digits) == 32498 and log2 == "107954.286645"
    value = 0
    for i in range(0, len(digits), 4000):  # each chunk under the cap
        chunk = digits[i:i + 4000]
        value = value * 10 ** len(chunk) + int(chunk)
    assert value == rankmetric.count_rank(120, 60, 1021)


def test_simulate_scenario4(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--scenario", "4", "--q", "2",
                           "--n", "8", "--k", "2", "--t", "4")
    assert code == 0
    assert abs(float(out) - 0.003921) < 5e-6


def test_simulate_small_run_json(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--scenario", "2", "--q", "2",
                           "--n", "8", "--k", "2", "--t", "4",
                           "--trials", "500", "--seed", "9", "--out", "json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"scenario", "q", "n", "k", "t", "trials", "seed",
                            "failures", "miscorrections", "rate", "wilson_lo",
                            "wilson_hi", "bound", "wallclock_s"}
    assert payload["trials"] == 500
    assert payload["bound"] == 0.015625


def test_simulate_csv_columns(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--scenario", "3", "--q", "2",
                           "--n", "8", "--k", "2", "--t", "2",
                           "--trials", "200", "--seed", "1", "--out", "csv")
    assert code == 0
    header, row = out.splitlines()
    assert header == ("scenario,q,n,k,t,trials,failures,rate,"
                      "wilson_lo,wilson_hi,bound")
    assert row.startswith("3,2,8,2,2,200,")


def test_simulate_warns_when_bound_is_exceeded(capsys):
    # the exact scenario-1 rate at (2,4,1,2) is 150/210, far above 4/q^n
    args = ["simulate", "--scenario", "1", "--q", "2", "--n", "4", "--k", "1",
            "--t", "2", "--trials", "2000", "--seed", "1"]
    code, out, err = run_cli(capsys, *args, "--out", "csv")
    assert code == 0
    assert out == ("scenario,q,n,k,t,trials,failures,rate,wilson_lo,"
                   "wilson_hi,bound\n"
                   "1,2,4,1,2,2000,1403,0.7015,0.681074,0.721153,0.25")
    assert err == ("warning: wilson_lo 0.681074 exceeds bound 0.250000; "
                   "4/q^n is not a bound at (q, n, k, t) = (2, 4, 1, 2)")
    code, out, err = run_cli(capsys, *args, "--out", "json")
    payload = json.loads(out)
    del payload["wallclock_s"]
    assert payload == {"scenario": 1, "q": 2, "n": 4, "k": 1, "t": 2,
                       "trials": 2000, "seed": 1, "failures": 1403,
                       "miscorrections": 0, "rate": 0.7015,
                       "wilson_lo": payload["wilson_lo"],
                       "wilson_hi": payload["wilson_hi"], "bound": 0.25}
    assert (round(payload["wilson_lo"], 6), round(payload["wilson_hi"], 6)) \
        == (0.681074, 0.721153)
    assert "4/q^n is not a bound" in err
    # no warning where the interval does not clear the bound
    code, _, err = run_cli(capsys, "simulate", "--scenario", "1", "--q", "2",
                           "--n", "5", "--k", "1", "--t", "2", "--trials",
                           "200", "--seed", "1")
    assert code == 0 and err == ""


def test_simulate_shards_match_single(capsys):
    args = ["simulate", "--scenario", "2", "--q", "2", "--n", "8", "--k", "2",
            "--t", "4", "--trials", "600", "--seed", "5", "--out", "csv"]
    _, out1, _ = run_cli(capsys, *args, "--shards", "1")
    _, out8, _ = run_cli(capsys, *args, "--shards", "8")
    assert out1 == out8


def test_keysize_table(capsys):
    code, out, _ = run_cli(capsys, "keysize", "--table", "paper",
                           "--out", "csv")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 10
    first = lines[1].split(",")
    assert first[:6] == ["256", "conv", "96", "48", "4", "6"]
    assert abs(float(first[6]) - 259.75) < 0.011
    assert abs(float(first[8]) - 1117.77) < 0.011
    assert abs(float(first[9]) - 27.65) < 0.011


def test_keysize_single_row(capsys):
    code, out, _ = run_cli(capsys, "keysize", "--sl", "192", "--type", "sym",
                           "--n", "62", "--k", "31", "--lambda", "4",
                           "--out", "json")
    assert code == 0
    row = json.loads(out)[0]
    assert row["tprime"] == 7
    assert abs(row["wf_struc"] - 194.86) < 0.011


def test_keysize_dict():
    # deliberately underpowered parameters get flagged with a real bool
    row = _keysize_dict(crypto_row(256, "conv", 32, 16, 2))
    assert row["ok"] is False
    assert list(row) == ["sl", "type", "n", "k", "lambda", "tprime", "wf_dec",
                         "wf_struc", "wf_e", "keysize_kb", "ok"]


def test_keysize_table_rejects_ignored_flags(capsys):
    for extra in (("--q", "4"), ("--q", "2"), ("--sl", "192"),
                  ("--type", "sym"), ("--n", "62"), ("--k", "31"),
                  ("--lambda", "4")):
        code, out, err = run_cli(capsys, "keysize", "--table", "paper",
                                 *extra, "--out", "csv")
        assert code == 1 and not out
        assert err == f"error: --table paper ignores {extra[0]}"
    code, _, err = run_cli(capsys, "keysize", "--table", "paper", "--n", "62",
                           "--q", "4")
    assert code == 1 and err == "error: --table paper ignores --n --q"


def test_keysize_missing_args(capsys):
    code, _, err = run_cli(capsys, "keysize", "--sl", "192")
    assert code == 1
    assert "need" in err
    for lam in ("0", "-1"):
        code, _, err = run_cli(capsys, "keysize", "--sl", "192", "--type",
                               "sym", "--n", "62", "--k", "31", "--lambda", lam)
        assert code == 1 and "lambda must be >= 1" in err
    # a lambda above the correctable rank leaves t' = 0: the error names
    # lambda and max_errors, not an internal tprime
    for row, msg in ((("--type", "sp-sym", "--n", "58", "--k", "29",
                       "--lambda", "30"),
                      "lambda 30 leaves t' = max_errors // lambda = 19 // 30 "
                      "= 0 (sp-sym, n=58, k=29)"),
                     (("--type", "conv", "--n", "4", "--k", "3",
                       "--lambda", "1"),
                      "lambda 1 leaves t' = max_errors // lambda = 0 // 1 = 0 "
                      "(conv, n=4, k=3)")):
        code, out, err = run_cli(capsys, "keysize", "--sl", "128", *row)
        assert code == 1 and not out and err == f"error: {msg}"


def test_keysize_rejects_security_level_below_one(capsys):
    # this row once printed with ok=True and exit status 0
    code, out, err = run_cli(capsys, "keysize", "--sl", "-5", "--type",
                             "conv", "--n", "20", "--k", "10", "--lambda", "2")
    assert code == 1 and not out and err == "error: sl must be >= 1, got sl=-5"


def test_find_basis_json(capsys):
    code, out, _ = run_cli(capsys, "find-basis", "--q", "2", "--n", "8",
                           "--out", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["q"] == 2 and payload["n"] == 8
    assert len(payload["alpha"]) == 8
    assert payload["verification"]["moore_gram_diagonal"] is True
    # elements parse back in the field
    ctx = make_field(2, 8)
    _parse_vector(ctx, ",".join(payload["alpha"]))


def test_serialization_roundtrip(F4, F256, F9, capsys):
    rng = random.Random(5)
    for ctx in (F256, F9):
        for _ in range(20):
            x = ctx.rand_elem(rng)
            assert _parse_vector(ctx, _elem(ctx, x)) == (x,)
    assert _elem(F4, 3) == "1:1"
    assert _parse_vector(F4, "1:1") == (3,)
    # --modulus parses and prints in the same form (not the default here)
    aes = "1:1:0:1:1:0:0:0:1"
    _, out, _ = run_cli(capsys, "find-basis", "--q", "2", "--n", "8",
                        "--modulus", aes, "--out", "json")
    assert json.loads(out)["modulus"] == aes


def test_vector_serialization(F4):
    v = (2, 3)
    s = _vector(F4, v)
    assert s == "0:1,1:1"
    assert _parse_vector(F4, s) == v


def test_find_basis_odd_q_even_n(capsys):
    code, out, _ = run_cli(capsys, "find-basis", "--q", "3", "--n", "4",
                           "--out", "json")
    assert code == 0
    assert json.loads(out)["verification"]["moore_gram_diagonal"] is True


def test_simulate_odd_q_even_n(capsys):
    code, _, err = run_cli(capsys, "simulate", "--scenario", "1", "--q", "3",
                           "--n", "4", "--k", "1", "--t", "2",
                           "--trials", "200")
    assert code == 0, err


def test_internal_lookup_faults_are_not_domain_errors(monkeypatch):
    # only domain errors become a one-line "error:" with exit 1; an
    # IndexError or KeyError is a fault and keeps its traceback
    def broken(args):
        raise IndexError("list index out of range")

    monkeypatch.setattr(cli, "_cmd_find_basis", broken)
    with pytest.raises(IndexError):
        main(["find-basis", "--q", "2", "--n", "2"])


def test_codec_roundtrip_error_free(tmp_path, capsys):
    ctx = make_field(2, 8)
    rng = random.Random(81)
    messages = [tuple(ctx.rand_elem(rng) for _ in range(2)) for _ in range(100)]
    infile = tmp_path / "msgs.txt"
    infile.write_text("\n".join(_vector(ctx, m) for m in messages))
    code, out, _ = run_cli(capsys, "codec", "encode", "--q", "2", "--n", "8",
                           "--k", "2", "--in", str(infile))
    assert code == 0
    words = out.splitlines()
    assert len(words) == 100
    wordfile = tmp_path / "words.txt"
    wordfile.write_text("\n".join(words))
    code, out, _ = run_cli(capsys, "codec", "decode", "--q", "2", "--n", "8",
                           "--k", "2", "--in", str(wordfile))
    assert code == 0
    for line, msg, word in zip(out.splitlines(), messages, words):
        payload = json.loads(line)
        assert payload["status"] == "decoded"
        assert payload["codeword"] == word
        assert payload["error"] == _vector(ctx, (0,) * 8)


def test_codec_syndrome(tmp_path, capsys):
    ctx = make_field(2, 8)
    infile = tmp_path / "w.txt"
    infile.write_text("0:0:0:0:0:0:0:0," * 7 + "1:0:0:0:0:0:0:0")
    code, out, _ = run_cli(capsys, "codec", "syndrome", "--q", "2", "--n", "8",
                           "--k", "2", "--in", str(infile))
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"s1", "s2"}
    _parse_vector(ctx, payload["s2"])


def test_codec_decode_corrupted(tmp_path, capsys):
    # single-entry error of rank 1 must decode back to the codeword
    ctx = make_field(2, 8)
    rng = random.Random(82)
    from rankmetric import GabidulinCode, find_wso_basis
    codec = GabidulinCode(ctx, 2, find_wso_basis(ctx))
    c = codec.encode((7, 200))
    y = list(c)
    y[3] = ctx.add(y[3], 99)
    infile = tmp_path / "y.txt"
    infile.write_text(_vector(ctx, tuple(y)))
    code, out, _ = run_cli(capsys, "codec", "decode", "--q", "2", "--n", "8",
                           "--k", "2", "--in", str(infile))
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "decoded"
    assert payload["codeword"] == _vector(ctx, c)
    assert payload["trial_trace"]


def test_exit_codes(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2
    code, _, err = run_cli(capsys, "find-basis", "--q", "6", "--n", "2")
    assert code == 1 and "prime power" in err
    code, _, err = run_cli(capsys, "codec", "encode", "--q", "2", "--n", "2",
                           "--k", "1", "--modulus", "1:0:1")
    assert code == 1 and "reducible" in err
    code, _, err = run_cli(capsys, "simulate", "--scenario", "3", "--q", "2",
                           "--n", "8", "--k", "2", "--t", "0")
    assert code == 1 and "scenario 3 needs t >= 1" in err
    s4 = ("simulate", "--scenario", "4")
    for args, msg in ((("--q", "6", "--n", "8", "--k", "2", "--t", "4"),
                       "prime power"),
                      (("--q", "1", "--n", "8", "--k", "2", "--t", "4"),
                       "prime power"),
                      (("--q", "2", "--n", "8", "--k", "8", "--t", "0"),
                       "need 1 <= k < n"),
                      (("--q", "2", "--n", "8", "--k", "2", "--t", "2"),
                       "ceil((n-k)/2) = 3 <= t"),
                      (("--q", "2", "--n", "8", "--k", "2", "--t", "5"),
                       "t <= floor(2(n-k)/3) = 4")):
        code, _, err = run_cli(capsys, *s4, *args)
        assert code == 1 and msg in err
    # scenario 4 is closed form: the Monte Carlo flags are rejected, and
    # only the ones given are named
    ok = ("--q", "2", "--n", "8", "--k", "2", "--t", "4")
    for extra, named in ((("--shards", "0", "--trials", "-5"),
                          "--trials --shards"),
                         (("--seed", "7"), "--seed"),
                         (("--shards", "1", "--seed", "0", "--trials", "9"),
                          "--trials --seed --shards")):
        code, out, err = run_cli(capsys, *s4, *ok, *extra)
        assert code == 1 and not out
        assert err == f"error: scenario 4 ignores {named}"


def test_parse_errors_name_the_bad_input(tmp_path, capsys):
    code, _, err = run_cli(capsys, "find-basis", "--q", "2", "--n", "2",
                           "--modulus", "1:x:1")
    assert code == 1
    assert err == "error: modulus '1:x:1' is not ':'-joined integers"
    infile = tmp_path / "bad.txt"
    infile.write_text("1:x,0:1\n")
    code, _, err = run_cli(capsys, "codec", "encode", "--q", "2", "--n", "2",
                           "--k", "1", "--in", str(infile))
    assert code == 1
    assert err == "error: element '1:x' is not ':'-joined integers"


# a minimal command line of each subcommand and the namespace it parses to
_MINIMAL = {
    "find-basis": ("find-basis --q 2 --n 4", dict(
        q=2, n=4, modulus=None, out="text")),
    "codec": ("codec encode --q 2 --n 4 --k 2", dict(
        q=2, n=4, modulus=None, action="encode", k=2, infile="-")),
    "count": ("count --kind rank --n 2 --t 1 --q 2", dict(
        kind="rank", n=2, t=1, q=2)),
    "simulate": ("simulate --scenario 1 --q 2 --n 8 --k 2 --t 4", dict(
        scenario=1, q=2, n=8, k=2, t=4, trials=None, seed=None,
        shards=None, out="text")),
    "keysize": ("keysize --table paper", dict(
        table="paper", sl=None, type=None, n=None, k=None, lam=None,
        q=None, out="text")),
}


@pytest.mark.parametrize("command", sorted(_MINIMAL))
def test_subcommand_options_are_pinned(command, capsys):
    line, want = _MINIMAL[command]
    parser = cli.build_parser()
    got = vars(parser.parse_args(line.split()))
    assert got.pop("func") is getattr(cli, "_cmd_" + command.replace("-", "_"))
    assert got == {"command": command, **want, "out_file": None}
    assert parser.parse_args([*line.split(), "--out-file", "o"]).out_file \
        == "o"
    argv = [*line.split(), "--modulus", "1:1:1"]
    if command in ("find-basis", "codec"):
        assert parser.parse_args(argv).modulus == "1:1:1"
    else:
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv)
        assert exc.value.code == 2


def test_out_file_env_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("RANKMETRIC_OUTDIR", str(tmp_path))
    code, out, _ = run_cli(capsys, "count", "--kind", "rank", "--n", "2",
                           "--t", "1", "--q", "2", "--out-file", "r.txt")
    assert code == 0
    assert (tmp_path / "r.txt").read_text().strip() == out
    assert out.split()[0] == "9"


# ---------------------------------------------------------------------------
# Golden transcript: the exact stdout, stderr and exit code of a fixed list
# of invocations, with the simulate JSON's wallclock_s masked.  Re-record
# with `PYTHONPATH=src python tests/test_cli.py` only when a change of the
# output is intended.
# ---------------------------------------------------------------------------

GOLDEN = Path(__file__).with_name("cli_golden.txt")

_W8 = ("1:1:1:0:0:1:0:0,0:0:1:0:1:0:1:1,1:1:0:0:1:1:0:0,1:1:1:0:0:0:1:1,"
       "1:0:0:0:0:1:1:1,0:0:1:1:1:1:1:1,1:0:0:0:1:1:0:1,0:0:1:0:1:1:0:0",
       "0:1:1:0:0:0:0:1,0:1:1:1:0:0:0:1,0:0:0:0:0:1:1:1,1:0:1:1:0:0:1:0,"
       "1:1:0:1:1:1:1:0,0:1:0:0:0:1:1:1,0:1:1:1:0:0:1:1,0:1:1:0:0:1:0:1",
       "1:1:0:1:1:1:1:0,1:0:0:1:1:0:0:1,1:1:1:0:1:0:1:0,0:0:0:0:1:1:0:0,"
       "0:0:1:1:1:1:0:0,1:1:1:1:1:0:0:1,1:1:0:1:0:1:1:1,1:0:0:1:1:0:0:1",
       "1:0:0:0:1:0:1:0,0:0:0:0:0:0:1:0,0:1:0:1:0:0:0:0,1:1:0:0:0:1:0:1,"
       "1:0:0:1:0:1:1:1,0:0:1:1:0:0:0:0,1:1:1:0:1:1:1:1,1:1:1:0:1:1:0:1",
       "0:0:1:1:0:1:0:1,0:1:0:1:0:1:1:1,1:1:1:0:1:1:1:0,1:1:0:0:0:1:0:0,"
       "0:0:1:1:0:0:1:1,1:0:0:0:1:0:0:0,0:0:1:0:0:1:1:0,0:0:0:1:1:0:1:0")

# codec inputs: two messages; the zero word, a codeword, words carrying
# space-symmetric errors of rank 2, 3, 4 at (2,8,2) and 1, 2 at (3,4,1),
# and a random word
_CODEC_INPUTS = {
    "messages.txt": "0:0:1:1:1:1:0:0,1:1:0:0:0:1:0:1\n"
                    "0:0:1:0:1:1:0:0,0:1:0:0:1:1:1:0\n",
    "words.txt": "\n".join((",".join(["0:0:0:0:0:0:0:0"] * 8),) + _W8) + "\n",
    "messages3.txt": "0:2:1:0\n1:1:1:1\n",
    "words3.txt": "0:0:0:0,0:0:0:0,0:0:0:0,0:0:0:0\n"
                  "2:2:2:1,0:2:2:2,1:1:1:0,1:0:1:1\n"
                  "0:2:2:2,2:0:0:2,1:0:0:0,0:1:2:1\n"
                  "0:0:2:1,2:2:0:2,2:1:2:0,1:1:1:2\n"
                  "1:1:1:1,2:2:2:0,2:1:2:1,2:1:0:1\n",
    "bad.txt": "1:0,0:1\n",
}

_SIM = "simulate --q 2 --n 8 --k 2 --t 4 --scenario"
_FORMATS = ("", " --out json", " --out csv")
_ROW = "keysize --sl 192 --type sym --n 62 --k 31 --lambda 4"

_GOLDEN_CASES = (
    # the README's CLI lines, --trials cut to 300
    "find-basis --q 2 --n 8",
    "find-basis --q 2 --n 8 --out json",
    "codec encode --q 2 --n 8 --k 2 --in messages.txt",
    "codec syndrome --q 2 --n 8 --k 2 --in words.txt",
    "codec decode --q 2 --n 8 --k 2 --in words.txt",
    "count --kind sp-sym --n 3 --t 1 --q 2",
    "simulate --scenario 1 --q 2 --n 8 --k 2 --t 4 --trials 300 --seed 7 "
    "--shards 8 --out csv",
    "simulate --scenario 4 --q 2 --n 8 --k 2 --t 4",
    "keysize --table paper --out csv",
    _ROW,
    # every scenario in every format
    *(f"{_SIM} {s} --trials 300 --seed 3{o}" for s in (1, 2, 3)
      for o in _FORMATS),
    *(f"{_SIM} 4{o}" for o in _FORMATS),
    "keysize --table paper",
    "keysize --table paper --out json",
    f"{_ROW} --out json",
    f"{_ROW} --out csv",
    "find-basis --q 3 --n 4",
    "find-basis --q 3 --n 4 --out json",
    "find-basis --q 2 --n 8 --modulus 1:1:0:1:1:0:0:0:1",
    "codec encode --q 3 --n 4 --k 1 --in messages3.txt",
    "codec syndrome --q 3 --n 4 --k 1 --in words3.txt",
    "codec decode --q 3 --n 4 --k 1 --in words3.txt",
    "count --kind sym --n 5 --t 2 --q 3",
    "count --kind rank --n 6 --t 3 --q 4",
    "count --kind gauss --n 8 --t 4 --q 2",
    # 4/q^n is not a bound at (2,4,1,2): the warning on stderr
    "simulate --scenario 1 --q 2 --n 4 --k 1 --t 2 --trials 300 --seed 1",
    "simulate --scenario 1 --q 2 --n 4 --k 1 --t 2 --trials 300 --seed 1 "
    "--out csv",
    "count --kind rank --n 2 --t 1 --q 2 --out-file out.txt",
    # exit 1: a domain error, a malformed input line, an unwritable file
    "find-basis --q 6 --n 2",
    "codec encode --q 2 --n 8 --k 2 --in bad.txt",
    "count --kind rank --n 2 --t 1 --q 2 --out-file missing/out.txt",
)


def _transcript() -> str:
    """Run the golden cases in the current directory; their record."""
    for name, text in _CODEC_INPUTS.items():
        Path(name).write_text(text)
    blocks = []
    for case in _GOLDEN_CASES:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(case.split())
        stdout = re.sub(r'"wallclock_s": [^,}\n]+', '"wallclock_s": "*"',
                        out.getvalue())
        blocks.append(f"$ rankmetric {case}\nexit {code}\n--- stdout\n"
                      f"{stdout}--- stderr\n{err.getvalue()}")
        if "--out-file out.txt" in case:
            blocks.append("--- out.txt\n" + Path("out.txt").read_text())
    return "".join(blocks)


def test_outputs_match_golden(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("RANKMETRIC_OUTDIR", raising=False)
    assert _transcript() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    os.environ.pop("RANKMETRIC_OUTDIR", None)
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        GOLDEN.write_text(_transcript(), encoding="utf-8")
