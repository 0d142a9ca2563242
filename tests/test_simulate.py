import itertools
import math
from fractions import Fraction

import pytest

from rankmetric import (SimConfig, failure_bound, intersection_probability,
                        run_scenario, wilson95)


def test_failure_bound_values():
    assert failure_bound(2, 8) == 0.015625
    assert failure_bound(2, 10) == 4 / 1024
    assert failure_bound(3, 4) == 4 / 81


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
    assert intersection_probability(4, 2, 3, 2 ** 8) == 0.0  # omega > ell
    with pytest.raises(ValueError):
        intersection_probability(2, 3, 0, 4)
    with pytest.raises(ValueError):
        intersection_probability(4, 2, -1, 4)


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
    cfg = SimConfig(scenario=2, q=2, n=8, k=2, t=4, trials=3000, seed=7)
    solo = run_scenario(cfg, shards=1)
    multi = run_scenario(cfg, shards=8)
    assert solo.payload() == multi.payload()
    assert len(multi.shard_ranges) == 8
    assert multi.shard_ranges[0][0] == 0
    assert multi.shard_ranges[-1][1] == 3000


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


# Seed-1 payloads of odd-q configurations that fail often, so that a change
# to any draw of the samplers or of the trial changes a count.  q = 4 draws
# three bits per F_q entry.
ODD_Q_PINS = [
    {"scenario": 1, "q": 3, "n": 4, "k": 1, "t": 2, "trials": 300, "seed": 1,
     "failures": 124, "miscorrections": 0, "rate": 0.41333333333333333,
     "wilson_lo": 0.3590487301690917, "wilson_hi": 0.46980938484316287,
     "bound": 0.04938271604938271},
    {"scenario": 2, "q": 3, "n": 4, "k": 1, "t": 2, "trials": 300, "seed": 1,
     "failures": 13, "miscorrections": 0, "rate": 0.043333333333333335,
     "wilson_lo": 0.025496448084407246, "wilson_hi": 0.07271746563401146,
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
