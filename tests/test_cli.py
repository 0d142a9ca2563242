import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import rankmetric
from rankmetric import cli, make_field
from rankmetric.cli import main
from rankmetric.linalg import fqn_vector_str, parse_fqn_vector


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
    for s in payload["alpha"]:
        ctx.parse_elem(s)


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
    infile.write_text("\n".join(fqn_vector_str(ctx, m) for m in messages))
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
        assert payload["error"] == fqn_vector_str(ctx, (0,) * 8)


def test_codec_syndrome(tmp_path, capsys):
    ctx = make_field(2, 8)
    infile = tmp_path / "w.txt"
    infile.write_text("0:0:0:0:0:0:0:0," * 7 + "1:0:0:0:0:0:0:0")
    code, out, _ = run_cli(capsys, "codec", "syndrome", "--q", "2", "--n", "8",
                           "--k", "2", "--in", str(infile))
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"s1", "s2"}
    parse_fqn_vector(ctx, payload["s2"])


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
    infile.write_text(fqn_vector_str(ctx, tuple(y)))
    code, out, _ = run_cli(capsys, "codec", "decode", "--q", "2", "--n", "8",
                           "--k", "2", "--in", str(infile))
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "decoded"
    assert payload["codeword"] == fqn_vector_str(ctx, c)
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


def test_out_file_env_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("RANKMETRIC_OUTDIR", str(tmp_path))
    code, out, _ = run_cli(capsys, "count", "--kind", "rank", "--n", "2",
                           "--t", "1", "--q", "2", "--out-file", "r.txt")
    assert code == 0
    assert (tmp_path / "r.txt").read_text().strip() == out
    assert out.split()[0] == "9"
