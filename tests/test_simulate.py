import concurrent.futures
import dataclasses
import itertools
import math
from fractions import Fraction

import pytest

from rankmetric import (GabidulinCode, SimConfig, SimReport, failure_bound,
                        intersection_probability, make_field,
                        moore_matrix, run_scenario, sample_space_symmetric,
                        wilson95)
from rankmetric import channel, decoder, linalg, simulate
from rankmetric.decoder import DecodeOutcome, InterleavedOutcome
from rankmetric.linalg import fqn_vecmat

from oracles import echelon_supports, general_linear, matmul, matrix_rank, \
    rank_mod_p, transpose
from stage_profile import calls, profiled_run


def test_failure_bound_values():
    assert failure_bound(2, 8) == 0.015625
    assert failure_bound(2, 10) == 4 / 1024
    assert failure_bound(3, 4) == 4 / 81
    for q in (0, 1, 6, -2):
        with pytest.raises(ValueError, match=f"q={q} is not a prime power"):
            failure_bound(q, 3)
    with pytest.raises(ValueError, match="n=0 must be >= 1"):
        failure_bound(2, 0)
    with pytest.raises(ValueError, match=r"n 3\.0 is not an integer"):
        failure_bound(2, 3.0)


def test_intersection_probability_table_value():
    assert abs(intersection_probability(4, 2, 1, 2 ** 8) - 0.003921) < 5e-6


def test_intersection_probability_powers_of_subspace_field():
    # the q-power weight must use the subspace field order; with the small
    # base instead, the headline value would come out near 3e-5
    num = (257 * 257 * 2) + 1
    den = (2 ** 16 + 1) * (2 ** 16 + 2 ** 8 + 1)
    wrong = num / den
    assert abs(wrong - 3.06e-5) < 1e-6
    assert abs(intersection_probability(4, 2, 1, 2 ** 8) - wrong) > 3e-3


def test_intersection_probability_edges():
    assert intersection_probability(4, 2, 0, 2 ** 8) == 1.0
    for omega, ell in ((3, 2), (1, 0), (9, 2)):  # omega > ell
        assert intersection_probability(4, ell, omega, 2 ** 8) == 0.0
    with pytest.raises(ValueError):
        intersection_probability(2, 3, 0, 4)
    with pytest.raises(ValueError):
        intersection_probability(4, 2, -1, 4)
    for args, what in (((4.0, 2, 1, 256), "t_dim 4.0"),
                       ((4, 2.0, 1, 256), "ell 2.0"),
                       ((4, 2, 1.0, 256), "omega 1.0"),
                       ((4, 2, 1, 256.0), "Qbase 256.0")):
        with pytest.raises(ValueError, match=f"{what} is not an integer"):
            intersection_probability(*args)
    for Qbase in (-2, 0, 1, 6):
        with pytest.raises(ValueError, match=f"q={Qbase} is not a prime power"):
            intersection_probability(4, 2, 1, Qbase)


def _subspaces(t, ell, q):
    """All ell-dimensional subspaces of F_q^t as frozensets of tuples."""
    vectors = list(itertools.product(range(q), repeat=t))

    def rank(rows):
        rows = [list(r) for r in rows]
        rk = 0
        for c in range(t):
            piv = next((r for r in range(rk, len(rows)) if rows[r][c] % q), None)
            if piv is None:
                continue
            rows[rk], rows[piv] = rows[piv], rows[rk]
            inv = pow(rows[rk][c], q - 2, q)
            rows[rk] = [(v * inv) % q for v in rows[rk]]
            for r in range(len(rows)):
                if r != rk and rows[r][c] % q:
                    f = rows[r][c]
                    rows[r] = [(a - f * b) % q for a, b in zip(rows[r], rows[rk])]
            rk += 1
        return rk

    spans = set()
    for combo in itertools.combinations(vectors[1:], ell):
        if rank(combo) != ell:
            continue
        span = frozenset(
            tuple(sum(c * v[i] for c, v in zip(coeffs, combo)) % q
                  for i in range(t))
            for coeffs in itertools.product(range(q), repeat=ell))
        spans.add(span)
    return spans


def test_intersection_probability_against_subspace_enumeration():
    # t = 3, ell = 1, over F_2: exact enumeration of subspace pairs
    t, ell, q = 3, 1, 2
    subs = _subspaces(t, ell, q)
    pairs = [(u, v) for u in subs for v in subs]
    for omega in (0, 1):
        hits = sum(1 for u, v in pairs
                   if _dim_intersection(u, v, q) >= omega)
        want = Fraction(hits, len(pairs))
        got = intersection_probability(t, ell, omega, q)
        assert abs(got - float(want)) < 1e-12
    # omega = ell reduces to 1 / #subspaces
    assert abs(intersection_probability(t, ell, ell, q) - 1 / 7) < 1e-12


def _intersection_ref(t_dim, ell, omega, Q):
    """intersection_probability's sum, evaluated in Fractions."""
    def gauss(m, r):
        if not 0 <= r <= m:
            return Fraction(0)
        out = Fraction(1)
        for i in range(r):
            out *= Fraction(Q ** m - Q ** i, Q ** r - Q ** i)
        return out
    num = sum(gauss(t_dim - ell, ell - i) * gauss(ell, i)
              * Q ** ((ell - i) ** 2) for i in range(omega, ell + 1))
    return float(num / gauss(t_dim, ell))


def test_intersection_probability_matches_fraction_reference():
    # int true division is correctly rounded, as float(Fraction) is, so the
    # two agree bit for bit
    for Q in (2, 3, 4, 9, 2 ** 8, 3 ** 7, 2 ** 64):
        for t_dim in range(7):
            for ell in range(t_dim + 1):
                for omega in range(ell + 2):
                    got = intersection_probability(t_dim, ell, omega, Q)
                    assert got == _intersection_ref(t_dim, ell, omega, Q), \
                        (t_dim, ell, omega, Q)


def _dim_intersection(u, v, q):
    inter = u & v
    return round(math.log(len(inter), q))


def test_wilson_interval():
    lo, hi = wilson95(0, 100)
    assert lo <= 0 + 1e-15 and hi < 0.05
    for failures, trials in ((0, 50), (5, 100), (410, 100000)):
        lo, hi = wilson95(failures, trials)
        rate = failures / trials
        assert lo <= rate <= hi
        assert 0 <= lo <= hi <= 1
    with pytest.raises(ValueError):
        wilson95(0, 0)
    for failures in (5, -1):
        with pytest.raises(ValueError, match="0 <= failures <= trials"):
            wilson95(failures, 3)
    with pytest.raises(ValueError, match="failures 1.5 is not an integer"):
        wilson95(1.5, 10)
    with pytest.raises(ValueError, match="trials 10.0 is not an integer"):
        wilson95(1, 10.0)


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(scenario=5, q=2, n=8, k=2, t=4, trials=10, seed=0)
    with pytest.raises(ValueError):
        SimConfig(scenario=1, q=2, n=8, k=2, t=5, trials=10, seed=0)
    with pytest.raises(ValueError):
        SimConfig(scenario=1, q=2, n=8, k=2, t=4, trials=0, seed=0)
    with pytest.raises(ValueError):
        SimConfig(scenario=1, q=2, n=8, k=8, t=0, trials=10, seed=0)
    for scenario in (2, 3):
        with pytest.raises(ValueError, match=f"scenario {scenario} needs t"):
            SimConfig(scenario=scenario, q=2, n=8, k=2, t=0, trials=10, seed=0)
    # every field is read with operator.index and stored as the int it gives
    base = dict(scenario=1, q=2, n=8, k=2, t=4, trials=200, seed=7)
    for name, value in (("seed", 7.0), ("k", 2.0), ("t", 4.0),
                        ("trials", 200.0)):
        with pytest.raises(ValueError, match=f"{name} {value} is not an int"):
            SimConfig(**{**base, name: value})

    class Seven:
        def __index__(self):
            return 7

    assert SimConfig(**{**base, "seed": Seven()}) == SimConfig(**base)
    cfg = SimConfig(**base)
    for shards in (0, 2.0):
        with pytest.raises(ValueError, match="shards"):
            run_scenario(cfg, shards=shards)


def test_shard_determinism_and_merge():
    # 7 shards split 3,000 trials unevenly; 8 shards over 5 trials run 5
    cfg = SimConfig(scenario=2, q=2, n=8, k=2, t=4, trials=3000, seed=7)
    solo = run_scenario(cfg, shards=1).payload()
    for shards in (7, 8):
        assert run_scenario(cfg, shards=shards).payload() == solo, shards
    few = SimConfig(scenario=2, q=3, n=4, k=1, t=2, trials=5, seed=7)
    assert run_scenario(few, shards=8).payload() \
        == run_scenario(few).payload()


def test_shard_pool_sized_by_usable_cores(monkeypatch):
    """Two shards on a process pinned to one of two cores start one worker:
    the pool counts the cores the process may run on, not the host's."""
    cfg = SimConfig(scenario=1, q=2, n=8, k=2, t=4, trials=60, seed=5)
    solo = run_scenario(cfg).payload()
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(simulate.os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    monkeypatch.setattr(simulate.os, "cpu_count", lambda: 2)
    # run_scenario imports the pool when a run shards, so patch its source
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        InProcessPool)
    assert run_scenario(cfg, shards=2).payload() == solo
    assert sizes == [1]


@pytest.fixture
def cold_code_cache():
    """An empty code cache before and after, so that no later test runs on
    a code built under this test's patches."""
    simulate._code.cache_clear()
    yield
    simulate._code.cache_clear()


def test_one_code_build_per_process_and_shape(monkeypatch, cold_code_cache):
    builds = []
    make_field = simulate.make_field

    def counted(q, n):
        builds.append((q, n))
        return make_field(q, n)

    monkeypatch.setattr(simulate, "make_field", counted)
    configs = [SimConfig(scenario=s, q=2, n=8, k=2, t=4, trials=40,
                         seed=10 + s) for s in (1, 2, 3)]
    warm = [run_scenario(cfg).payload() for cfg in configs]
    assert builds == [(2, 8)]
    for cfg, payload in zip(configs, warm):
        simulate._code.cache_clear()
        assert run_scenario(cfg).payload() == payload, cfg.scenario
    builds.clear()
    odd = SimConfig(scenario=1, q=3, n=7, k=1, t=4, trials=40, seed=4)
    assert run_scenario(odd).payload() == run_scenario(odd).payload()
    assert builds == [(3, 7)]


def test_miscorrections_count_as_failures(monkeypatch):
    """Scenarios 1 and 3 decode the errors alone: a decoder that returns
    zero words passes every trial, one that fails fails every trial, and
    one that returns the received (nonzero) error as decoded gives one
    failure and one miscorrection per trial."""
    for status, decoded, verdict in (("decoded", lambda y: (0,) * len(y),
                                      (0, 0)),
                                     ("failure", lambda y: None, (20, 0)),
                                     ("decoded", tuple, (20, 20))):
        monkeypatch.setattr(simulate, "decode", lambda code, y: DecodeOutcome(
            status, decoded(y), None, ()))
        monkeypatch.setattr(simulate, "interleaved_decode",
                            lambda code, y1, y2: InterleavedOutcome(
                                status, None if decoded(y1) is None
                                else (decoded(y1), decoded(y2)), None, ()))
        for scenario in (1, 3):
            cfg = SimConfig(scenario=scenario, q=2, n=8, k=2, t=2, trials=20,
                            seed=3)
            rep = run_scenario(cfg)
            assert (rep.failures, rep.miscorrections) == verdict, \
                (status, scenario)


@pytest.mark.parametrize("q,n,k,t", [(2, 8, 2, 4), (3, 7, 1, 4),
                                     (4, 4, 1, 2), (9, 3, 1, 1),
                                     (2, 8, 2, 0)])
def test_genuine_trial_decodes_the_public_samplers_error(monkeypatch, q, n,
                                                         k, t):
    # scenario 1 builds e from _draw's A and P and the code's alpha table,
    # sample_space_symmetric from fqn_vecmat(alpha, A): each trial decodes
    # the public sampler's error from a stream of the same seed, n zeros
    # at t = 0, and leaves the stream where the sampler does
    code = simulate._code(q, n, k)
    words = []

    def spy(code, y):
        words.append(y)
        return decoder.decode(code, y)

    monkeypatch.setattr(simulate, "decode", spy)
    for index in range(40):
        rng, ref = simulate._trial_rng(5, index), simulate._trial_rng(5, index)
        simulate._trial_genuine(code, t, rng)
        err = sample_space_symmetric(code.ctx, code.alpha, t, ref)
        assert words[-1] == err.e
        assert rng.random() == ref.random()
    assert len(words) == 40
    if t == 0:
        assert words == [(0,) * n] * 40


def test_scenario1_at_rank_zero_decodes_every_trial():
    cfg = SimConfig(scenario=1, q=2, n=8, k=2, t=0, trials=50, seed=3)
    rep = run_scenario(cfg)
    assert (rep.failures, rep.miscorrections) == (0, 0)


def test_report_invariants():
    cfg = SimConfig(scenario=3, q=2, n=8, k=2, t=2, trials=500, seed=1)
    rep = run_scenario(cfg)
    assert rep.rate == rep.failures / cfg.trials
    lo, hi = rep.wilson95
    assert lo <= rep.rate <= hi
    assert rep.bound == failure_bound(2, 8)
    p = rep.payload()
    assert [p[c] for c in ("scenario", "q", "n", "k", "t", "trials", "seed")] \
        == [3, 2, 8, 2, 2, 500, 1]
    # the seed scheme is the code's, and the rate, interval and bound are
    # read off the config and the counts: none is a field a caller can set
    init = {f.name for f in dataclasses.fields(SimReport) if f.init}
    assert init.isdisjoint({"seed_scheme", "rate", "wilson95", "bound"})
    assert rep.seed_scheme == SimReport.seed_scheme == (
        "sha256('<seed>:<trial index>') per trial; scenario 2 draws A, then Q")


def test_guaranteed_regime_rates_are_zero():
    for scenario in (1, 2, 3):
        cfg = SimConfig(scenario=scenario, q=2, n=8, k=2, t=3,
                        trials=300, seed=3)
        rep = run_scenario(cfg)
        assert rep.failures == 0, (scenario, rep.failures)


def test_scenario1_rate_below_bound_in_covered_regime():
    """The 4/q^n bound applies when the two Moore blocks are disjoint
    (t > n - 2k); empirical rates must respect it within 3 sigma there."""
    for n, k, t in ((8, 3, 3), (9, 3, 4)):
        cfg = SimConfig(scenario=1, q=2, n=n, k=k, t=t, trials=4000, seed=5)
        rep = run_scenario(cfg)
        bound = failure_bound(2, n)
        sigma = math.sqrt(bound * (1 - bound) / cfg.trials)
        assert rep.rate <= bound + 3 * sigma, (n, k, t, rep.rate)


def test_scenario1_and_scenario2_agree_in_covered_regime():
    """With disjoint Moore blocks (t > n - 2k) the genuine coupling behaves
    like the uniform one; at (9, 3, t=4) both rates sit near the closed-form
    value and must agree within 3 sigma of their difference."""
    trials = 5000
    rates = {}
    for scenario in (1, 2):
        cfg = SimConfig(scenario=scenario, q=2, n=9, k=3, t=4,
                        trials=trials, seed=13)
        rates[scenario] = run_scenario(cfg).rate
    p = intersection_probability(4, 2, 1, 2 ** 9)
    sigma_diff = math.sqrt(2 * p * (1 - p) / trials)
    assert abs(rates[1] - rates[2]) <= 3 * sigma_diff, (rates, p)


def test_scenario2_matches_closed_form():
    cfg = SimConfig(scenario=2, q=2, n=8, k=2, t=4, trials=20000, seed=11)
    rep = run_scenario(cfg)
    want = intersection_probability(4, 2, 1, 2 ** 8)
    sigma = math.sqrt(want * (1 - want) / cfg.trials)
    assert abs(rep.rate - want) <= 4 * sigma


def _paper_coupling_rank(code, a, P, Q):
    """rank [Mt^(q^(t+1)); Mt^(q^(t+k)) Q] M_{t+1}(a)^T with Mt = M(a) P and
    M(a) the Moore matrix of a with n-k-t rows: the stacked syndrome matrix
    of the uniform coupling as the paper writes it, one ctx._frob per
    entry."""
    ctx, n, k, t = code.ctx, code.n, code.k, len(a)
    frob = ctx._frob
    Mt = matmul(ctx, moore_matrix(ctx, a, n - k - t), P)
    top = [[frob(v, t + 1) for v in row] for row in Mt]
    bottom = matmul(ctx, [[frob(v, t + k) for v in row] for row in Mt], Q)
    right = transpose(moore_matrix(ctx, a, t + 1))
    return matrix_rank(ctx, matmul(ctx, top + bottom, right))


def _coupling_failures(q, n, k, t, supports, every_p=False):
    """(draws, failures) over every support matrix A in supports and Q in
    GL_t(F_q), with every_p over every P in GL_t(F_q) too: each draw's
    simulate._coupling_fails on P Q P^-1 (Q for P = I) must be the verdict
    of _paper_coupling_rank on (A, P, Q)."""
    ctx = make_field(q, n)
    code = GabidulinCode(ctx, k)
    gl = general_linear(t, q)
    eye = [[int(i == j) for j in range(t)] for i in range(t)]
    draws = failures = 0
    for A in supports:
        a = fqn_vecmat(ctx, code.alpha, A)
        for P in gl if every_p else [eye]:
            inverse = next(R for R in gl if matmul(ctx, P, R) == eye)
            for Q in gl:
                fails = simulate._coupling_fails(
                    code, a, matmul(ctx, matmul(ctx, P, Q), inverse))
                assert fails == (_paper_coupling_rank(code, a, P, Q) != t)
                draws += 1
                failures += fails
    return draws, failures


def test_scenario2_exact_rate_over_every_draw():
    # every full-rank 4-by-2 A over F_2 (210), P and Q in GL_2(F_2) (6 each)
    supports = [A for A in ([list(e[2 * i:2 * i + 2]) for i in range(4)]
                            for e in itertools.product(range(2), repeat=8))
                if rank_mod_p(A, 2) == 2]
    draws, failures = _coupling_failures(2, 4, 1, 2, supports, every_p=True)
    assert (len(supports), draws, failures) == (210, 7560, 1620)
    assert Fraction(failures, draws) == Fraction(3, 14)


@pytest.mark.parametrize("q,n,k,t,draws,failures", [
    (3, 4, 1, 2, 6240, 320),
    (2, 5, 1, 2, 930, 0),
    (2, 6, 2, 2, 3906, 0),
], ids=["q3n4k1t2", "n5k1t2", "n6k2t2"])
def test_scenario2_exact_rate_per_support(q, n, k, t, draws, failures):
    # the outcome depends on the support and on Q alone, so one basis per
    # support covers every draw in proportion; (2,6,1,3) is in
    # tests/exhaustive_counts.py
    assert _coupling_failures(q, n, k, t, echelon_supports(n, t, q)) \
        == (draws, failures)


@pytest.mark.parametrize("q, n, k, t, failures", [
    (2, 4, 1, 2, 442), (3, 4, 1, 2, 88), (2, 8, 2, 4, 9)])
def test_scenario2_trial_draws_a_then_q(q, n, k, t, failures):
    # a trial draws A and one t-by-t matrix, as scenario 1 draws A and P,
    # and ranks with that matrix as Q: its verdict on each seed-7 stream is
    # _coupling_fails on scenario 1's own A and P.  A trial that drew a P
    # before Q disagrees on 641 of these streams at (2,4,1,2); the failure
    # count keeps the test from passing on draws that never fail
    code = GabidulinCode(make_field(q, n), k)
    seen = 0
    for i in range(2000):
        rng = simulate._trial_rng(7, i)
        cols = channel._draw(code.ctx, n, t, rng)[1]
        P = channel._draw(code.ctx, t, t, rng)[0]
        fails = simulate._coupling_fails(code, code._support(cols), P)
        trial = simulate._trial_uniform_coupling(code, t,
                                                 simulate._trial_rng(7, i))
        assert trial == (fails, False), i
        seen += fails
    assert seen == failures


@pytest.mark.parametrize("q, n, k, t, draws, failures", [
    (2, 4, 1, 2, 2000, 136), (3, 4, 1, 2, 2000, 23), (4, 4, 1, 2, 2000, 10),
    (2, 5, 2, 2, 2000, 81), (2, 7, 1, 4, 2000, 14), (2, 8, 2, 4, 2000, 7),
    (3, 7, 1, 4, 500, 0)])
def test_scenario3_fails_exactly_when_the_beta_moore_rows_lose_rank(
        q, n, k, t, draws, failures):
    # e_i = a B_i, and the F_q entries of B_i commute with Frobenius, so the
    # stacked matrix at trial t is X M_{t+1}(a)^T with X read off
    # beta_i = B_i alpha^T; M_{t+1}(a)^T has full row rank t.  At
    # t = t_max the first trial is trial t, so a trial fails exactly when
    # rank [M_m(beta_1); M_m(beta_2)] < t, m = n - k - t.  The criterion is
    # replayed on each trial's own draws; the failure counts keep it from
    # passing on draws that never fail
    code = GabidulinCode(make_field(q, n), k)
    ctx, m = code.ctx, n - k - t
    assert t == code._tmax
    seen = 0
    for i in range(draws):
        rng = simulate._trial_rng(7, i)
        channel._draw(ctx, n, t, rng)
        rows = []
        for _ in range(2):
            B = channel._draw(ctx, t, n, rng)[0]
            beta = fqn_vecmat(ctx, code.alpha, transpose(B))
            rows += [[ctx._frob(x, r) for x in beta] for r in range(m)]
        fails = matrix_rank(ctx, rows) < t
        trial = simulate._trial_interleaved(code, t, simulate._trial_rng(7, i))
        assert fails == trial[0], i
        seen += fails
    assert seen == failures


@pytest.mark.parametrize("q, n, k, t, rate", [
    (2, 4, 1, 2, Fraction(1, 14)), (3, 4, 1, 2, Fraction(1, 78)),
    (4, 4, 1, 2, Fraction(1, 252)), (2, 5, 2, 2, Fraction(1, 30))])
def test_scenario3_rate_is_one_over_q_to_the_n_minus_q_at_one_moore_row(
        q, n, k, t, rate):
    # at n - k = 3 and t = 2 = t_max, m = n - k - t = 1, so by the test
    # above's criterion a trial fails exactly when beta_2 is an
    # F_{q^n}-multiple of beta_1, and the q^n - 1 nonzero multiples of an
    # F_q-independent pair are independent: (q^n - 1) failing of the
    # (q^n - 1)(q^n - q) independent beta_2, for every beta_1.  Counted
    # here by that criterion for beta_1 = (1, w), w the generator
    ctx = make_field(q, n)
    assert (t, n - k - t) == (GabidulinCode(ctx, k)._tmax, 1)
    w, N = ctx._exp[1], ctx.order
    failing, independent = set(), 0
    for beta in itertools.product(range(N), repeat=2):
        if linalg.fq_rank(ctx, beta) == 2:
            independent += 1
            if matrix_rank(ctx, [[1, w], list(beta)]) < 2:
                failing.add(beta)
    assert failing == {(c, ctx._mul(c, w)) for c in range(1, N)}
    assert independent == (N - 1) * (N - q)
    assert Fraction(len(failing), independent) == rate == Fraction(1, N - q)


# Seed-1 payloads of odd-q configurations that fail often, so that a change
# to any draw of the samplers or of the trial changes a count.  q = 4 draws
# three bits per F_q entry.
ODD_Q_PINS = [
    {"scenario": 1, "q": 3, "n": 4, "k": 1, "t": 2, "trials": 300, "seed": 1,
     "failures": 124, "miscorrections": 0, "rate": 0.41333333333333333,
     "wilson_lo": 0.3590487301690917, "wilson_hi": 0.46980938484316287,
     "bound": 0.04938271604938271},
    {"scenario": 2, "q": 3, "n": 4, "k": 1, "t": 2, "trials": 300, "seed": 1,
     "failures": 14, "miscorrections": 0, "rate": 0.04666666666666667,
     "wilson_lo": 0.027998933682334012, "wilson_hi": 0.07679736022792105,
     "bound": 0.04938271604938271},
    {"scenario": 3, "q": 3, "n": 4, "k": 1, "t": 2, "trials": 300, "seed": 1,
     "failures": 5, "miscorrections": 0, "rate": 0.016666666666666666,
     "wilson_lo": 0.00713947735063333, "wilson_hi": 0.0384153948330945,
     "bound": 0.04938271604938271},
    {"scenario": 1, "q": 4, "n": 4, "k": 1, "t": 2, "trials": 300, "seed": 1,
     "failures": 81, "miscorrections": 0, "rate": 0.27,
     "wilson_lo": 0.22290402938898543, "wilson_hi": 0.32291173737430573,
     "bound": 0.015625},
    {"scenario": 1, "q": 9, "n": 4, "k": 1, "t": 2, "trials": 300, "seed": 1,
     "failures": 29, "miscorrections": 0, "rate": 0.09666666666666666,
     "wilson_lo": 0.06815029481828931, "wilson_hi": 0.13538170196951116,
     "bound": 0.0006096631611034903},
]


@pytest.mark.parametrize("pin", ODD_Q_PINS,
                         ids=lambda p: f"s{p['scenario']}-q{p['q']}")
def test_odd_q_payload_pins(pin):
    cfg = SimConfig(**{key: pin[key] for key in (
        "scenario", "q", "n", "k", "t", "trials", "seed")})
    assert run_scenario(cfg).payload() == pin


@pytest.mark.parametrize("scenario, attempts, decodes, root_checks", [
    (1, 1273, 300, 288), (2, 1273, 0, 0), (3, 942, 300, 299)])
def test_stage_profile_counts_are_seed_exact(scenario, attempts, decodes,
                                             root_checks):
    # tests/stage_profile.py's call counts of a 300-trial seed-7 run at
    # (2,8,2,4): sampler attempts (fq_rank calls from channel._draw),
    # decodes and root-space checks
    cfg = SimConfig(scenario=scenario, q=2, n=8, k=2, t=4, trials=300,
                    seed=7)
    table = profiled_run(cfg)[0]
    assert [calls(table, linalg.fq_rank, channel._draw)[0],
            calls(table, decoder._joint_decode)[0],
            calls(table, decoder._full_root_space)[0]] \
        == [attempts, decodes, root_checks]
