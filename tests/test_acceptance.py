"""Acceptance suite: one test per criterion, one printed line per criterion.

Heavy statistical checks run here (minutes, not seconds); the per-module
suites cover the same machinery at smaller sizes.
"""

import itertools
import math
import random

from rankmetric import (GabidulinCode, SimConfig, failure_bound,
                        find_wso_basis, intersection_probability, make_field,
                        reference_table, run_scenario, sample_full_rank,
                        sample_space_symmetric, vector_rank, decode,
                        count_rank, count_space_symmetric, count_symmetric,
                        gaussian_binomial)
from rankmetric.decoder import _syndrome_row
from rankmetric.linalg import fq_matmul, fqn_vecmat, moore_matrix, phi_inv

from oracles import census, code_matrices, coords, key_equation_remainder, \
    lin_qdeg, matmul, matrix_rank, min_subspace_poly, \
    sample_symmetric_invertible, subspace_count, syndrome_against, \
    transpose, transpose_vector

SEED = 20260810


def _report(criterion: str, ok: bool, detail: str):
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} — {detail}",
          flush=True)


def test_c1_failure_rate_table_statistical():
    """Monte Carlo failure rates at (q, n, k, t) = (2, 8, 2, 4), 1e5 trials
    per scenario, each compared against its reference value at 3 sigma."""
    refs = {1: 0.004124, 2: 0.004229, 3: 0.003965}
    trials = 100000
    rates = {}
    for scenario in sorted(refs):
        cfg = SimConfig(scenario=scenario, q=2, n=8, k=2, t=4,
                        trials=trials, seed=SEED)
        rates[scenario] = run_scenario(cfg, shards=8).rate
    in_band = {}
    for scenario, ref in refs.items():
        sigma = math.sqrt(ref * (1 - ref) / trials)
        in_band[scenario] = abs(rates[scenario] - ref) <= 3 * sigma
        print(f"[acceptance]   C1 scenario {scenario}: rate "
              f"{rates[scenario]:.6f} vs reference {ref} "
              f"(3 sigma = {3 * sigma:.6f}) -> "
              f"{'in band' if in_band[scenario] else 'OUT OF BAND'}",
              flush=True)
    _report("C1 failure-rate table", all(in_band.values()),
            f"rates {rates}")
    assert in_band[2], f"scenario 2 rate {rates[2]:.6f} not within 3 sigma of {refs[2]}"
    assert in_band[3], f"scenario 3 rate {rates[3]:.6f} not within 3 sigma of {refs[3]}"
    assert in_band[1], (
        f"scenario 1 rate {rates[1]:.6f} not within 3 sigma of {refs[1]}: "
        "the genuine coupled channel fails on every symmetric error "
        "E = E^T when 2t > n - 1, as here (2t = 8, n - 1 = 7): a symmetric "
        "inner factor, probability 1/45 over uniform invertible 4x4 binary "
        "matrices, makes s1 and s2 syndromes of one vector, which see only "
        "n - 1 distinct q-powers, and collapses the trial rank; the exact "
        "counts in test_decoder.py::test_scenario1_exact_failure_counts fail "
        "a symmetric E exactly when 2t > n - 1. The reference value is only "
        "reachable under the uniform-coupling idealization measured by "
        "scenario 2.")


def test_c2_exact_table_values():
    p = intersection_probability(4, 2, 1, 2 ** 8)
    ok1 = abs(p - 0.003921) <= 5e-6
    ok2 = failure_bound(2, 8) == 0.015625
    _report("C2 exact values", ok1 and ok2,
            f"intersection {p:.7f}, bound {failure_bound(2, 8)}")
    assert ok1 and ok2


def test_c3_keysize_table():
    expected = [
        (259.75, 298.75, 1117.77, 27.65), (258.97, 322.97, 539.53, 16.00),
        (265.13, 259.13, 581.00, 17.87), (195.38, 274.38, 856.75, 21.30),
        (203.86, 194.86, 413.53, 7.45), (193.45, 222.45, 426.00, 11.18),
        (133.65, 131.65, 566.75, 6.41), (136.84, 154.84, 279.53, 3.68),
        (162.57, 129.57, 348.00, 6.10),
    ]
    rows = reference_table()
    bad = []
    for row, (wd, ws, we, kb) in zip(rows, expected):
        for name, got, want in (("wf_dec", row.wf_dec, wd),
                                ("wf_struc", row.wf_struc, ws),
                                ("wf_e", row.wf_e, we),
                                ("keysize", row.keysize_kb, kb)):
            if abs(got - want) > 0.01:
                bad.append((row.sl, row.kind, name, got, want))
    _report("C3 key-size table", not bad,
            f"36 cells checked at +-0.01, {len(bad)} off" +
            (f": {bad}" if bad else ""))
    assert not bad


def test_c4_guaranteed_decoding():
    ctx = make_field(2, 8)
    basis = find_wso_basis(ctx)
    code2 = GabidulinCode(ctx, 2, basis)
    rng = random.Random(SEED)
    add = ctx._add
    fails_a = 0
    for i in range(10000):
        t = i % 4  # covers 0..3 = floor((n-k)/2)
        err = sample_space_symmetric(ctx, code2.alpha, t, rng)
        c = code2.encode(tuple(ctx.rand_elem(rng) for _ in range(2)))
        out = decode(code2, tuple(add(a, b) for a, b in zip(c, err.e)))
        if not out.decoded or out.codeword != c:
            fails_a += 1
    # symmetric inner factor beyond the unique radius needs disjoint Moore
    # blocks, i.e. n - 2k < t: empty at (8, 2) where n - 2k = 4 = t_max, so
    # the property is exercised at (n, k, t) = (8, 3, 3) with 2 < 3 <= 3
    code3 = GabidulinCode(ctx, 3, basis)
    fails_b = 0
    for _ in range(1000):
        A = sample_full_rank(ctx, 8, 3, rng)
        P = sample_symmetric_invertible(ctx, 3, rng)
        E = fq_matmul(ctx, fq_matmul(ctx, A, P), transpose(A))
        e = phi_inv(ctx, E, code3.alpha)
        c = code3.encode(tuple(ctx.rand_elem(rng) for _ in range(3)))
        out = decode(code3, tuple(add(a, b) for a, b in zip(c, e)))
        if not out.decoded or out.codeword != c:
            fails_b += 1
    ok = fails_a == 0 and fails_b == 0
    _report("C4 guaranteed decoding", ok,
            f"rank <= 3 at (8,2): {fails_a}/10000 failures; symmetric inner "
            f"factor at (8,3,t=3): {fails_b}/1000 failures")
    assert ok


def test_c5_key_equation_properties():
    ctx = make_field(2, 8)
    code = GabidulinCode(ctx, 2, find_wso_basis(ctx))
    rng = random.Random(SEED + 1)
    k = code.k
    add, mul, frob = ctx._add, ctx._mul, ctx._frob
    bad = 0
    for i in range(1000):
        t = 1 + i % 4
        err = sample_space_symmetric(ctx, code.alpha, t, rng)
        c = code.encode(tuple(ctx.rand_elem(rng) for _ in range(2)))
        y = tuple(add(a, b) for a, b in zip(c, err.e))
        s1, s2 = code.syndromes(y)
        a = fqn_vecmat(ctx, code.alpha, err.A)
        gamma = min_subspace_poly(ctx, a)
        if lin_qdeg(key_equation_remainder(ctx, gamma, s1)) >= t:
            bad += 1
            continue
        if lin_qdeg(key_equation_remainder(ctx, gamma, s2)) >= t:
            bad += 1
            continue
        # the rows m = t..n-k-1 that the decoder builds at trial t
        S1, S2 = ([_syndrome_row(ctx, [ctx._log[v] for v in s], m, t + 1)
                   for m in range(t, 8 - k)] for s in (s1, s2))
        Ma = moore_matrix(ctx, a, 8 - k - t)
        right = [list(col) for col in zip(*moore_matrix(ctx, a, t + 1))]
        ref1 = matmul(ctx, matmul(
            ctx, [[frob(v, t + 1) for v in row] for row in Ma], err.P), right)
        ref2 = matmul(ctx, matmul(
            ctx, [[frob(v, t + k) for v in row] for row in Ma],
            transpose(err.P)), right)
        if S1 != ref1 or S2 != ref2:
            bad += 1
    _report("C5 key-equation suite", bad == 0,
            f"1000 instances, {bad} violations")
    assert bad == 0


def test_c6_counting_oracles():
    bad = []
    for n, q in ((1, 2), (2, 2), (3, 2), (1, 3), (2, 3)):
        by_rank, sym, spsym = census(n, q)
        for t in range(n + 1):
            if count_rank(n, t, q) != by_rank.get(t, 0):
                bad.append(("rank", n, t, q))
            if count_symmetric(n, t, q) != sym.get(t, 0):
                bad.append(("sym", n, t, q))
            if count_space_symmetric(n, t, q) != spsym.get(t, 0):
                bad.append(("sp-sym", n, t, q))
            if gaussian_binomial(n, t, q) != subspace_count(n, t, q):
                bad.append(("gauss", n, t, q))
    for n in range(7):
        for t in range(n + 1):
            rhs = gaussian_binomial(n, t, 2)
            for i in range(t):
                rhs *= 2 ** t - 2 ** i
            if count_space_symmetric(n, t, 2) != rhs:
                bad.append(("factorization", n, t, 2))
    _report("C6 counting oracles", not bad, f"violations: {bad or 'none'}")
    assert not bad


def test_c7_algebra_invariants():
    problems = []
    rng = random.Random(SEED + 2)
    for q, n in ((2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (2, 8),
                 (2, 9), (2, 10), (3, 2)):
        ctx = make_field(q, n)
        basis = find_wso_basis(ctx)
        from rankmetric import is_weak_self_orthogonal
        ok, diag = is_weak_self_orthogonal(ctx, basis)
        if not ok or any(d == 0 for d in diag):
            problems.append(("wso", q, n))
        for k in range(1, n):
            code = GabidulinCode(ctx, k, basis)
            G, H, _ = code_matrices(code)
            for grow in G:
                for hrow in H:
                    acc = 0
                    for x, yv in zip(grow, hrow):
                        acc = ctx._add(acc, ctx._mul(x, yv))
                    if acc != 0:
                        problems.append(("GHt", q, n, k))
    # transposed-code membership at (8, 2), 1000 random codewords
    ctx = make_field(2, 8)
    code = GabidulinCode(ctx, 2, find_wso_basis(ctx))
    hhat = code_matrices(code)[2]
    for _ in range(1000):
        c = code.encode(tuple(ctx.rand_elem(rng) for _ in range(2)))
        chat = transpose_vector(ctx, c, code.alpha)
        if any(syndrome_against(ctx, chat, hhat)):
            problems.append(("transposed-membership",))
            break
    # rank preservation by the expansion map, 1000 random vectors
    for _ in range(1000):
        a = tuple(ctx.rand_elem(rng) for _ in range(8))
        if vector_rank(ctx, a) != matrix_rank(ctx, coords(ctx, code.alpha, a)):
            problems.append(("phi-rank",))
            break
    # exhaustive MRD at (4, 2, 2)
    ctx4 = make_field(2, 4)
    code4 = GabidulinCode(ctx4, 2, find_wso_basis(ctx4))
    dmin = min(vector_rank(ctx4, code4.encode(u))
               for u in itertools.product(range(16), repeat=2)
               if u != (0, 0))
    if dmin != 3:
        problems.append(("mrd", dmin))
    _report("C7 algebra invariants", not problems,
            f"violations: {problems or 'none'}")
    assert not problems


def test_c8_shard_determinism():
    cfg = SimConfig(scenario=1, q=2, n=8, k=2, t=4, trials=3000, seed=SEED)
    rep1 = run_scenario(cfg, shards=1)
    rep8 = run_scenario(cfg, shards=8)
    ok = rep1.payload() == rep8.payload()
    _report("C8 shard determinism", ok,
            f"1-shard and 8-shard payloads {'match' if ok else 'differ'} "
            f"({rep1.failures} failures)")
    assert ok
