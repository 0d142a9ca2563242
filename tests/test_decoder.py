import itertools
import random
import weakref
from fractions import Fraction

import pytest

from rankmetric import (GabidulinCode, InterleavedOutcome, SimConfig,
                        count_space_symmetric, count_symmetric, decode,
                        interleaved_decode, is_weak_self_orthogonal,
                        make_field, phi_inv, run_scenario, sample_full_rank,
                        sample_space_symmetric, vector_rank)
from rankmetric.channel import _draw
from rankmetric.decoder import _extend, _full_root_space, _joint_decode, \
    _syndrome_row
from rankmetric.linalg import _PackedMap, _insert_rows, _kernel_vector, \
    fq_matmul, fq_rank, fqn_vecmat, moore_matrix
from rankmetric.simulate import _trial_rng

from oracles import Index, code_matrices, countdown_decode, joint_kernel, \
    key_equation_remainder, lin_compose_mod, lin_qdeg, matmul, \
    matrix_rank, min_subspace_poly, oracle_decode, recover_error, \
    right_remainder_is_x, root_space_basis, sample_symmetric_invertible, \
    space_symmetric, syndrome_against, syndrome_matrix, transpose, \
    transpose_vector


def _rand_codeword(code, rng):
    u = tuple(code.ctx.rand_elem(rng) for _ in range(code.k))
    return code.encode(u)


def _corrupt(ctx, c, e):
    return tuple(ctx._add(a, b) for a, b in zip(c, e))


def _support(code, err):
    """Basis of the error support: alpha combined with the columns of A."""
    return list(fqn_vecmat(code.ctx, code.alpha, err.A))


def _decoder_rows(ctx, s, t):
    """The rows m = t..len(s)-1 that the countdown builds at trial t."""
    logs = [ctx._log[v] for v in s]
    return [_syndrome_row(ctx, logs, m, t + 1) for m in range(t, len(s))]


@pytest.mark.parametrize("f", [
    _insert_rows, _kernel_vector, fq_rank, _PackedMap.__call__,
    _syndrome_row, _full_root_space, _extend, _joint_decode,
    GabidulinCode._read, GabidulinCode._from_gt, GabidulinCode._support,
    fqn_vecmat, sample_full_rank, _draw],
    ids=lambda f: f.__name__)
def test_decode_hot_loops_keep_no_closure_cells(f):
    # a 3.11 comprehension is a nested function (PEP 709 inlines it from
    # 3.12), so every local it reads becomes a cell, slower in every loop
    assert f.__code__.co_cellvars == ()


def test_build_syndrome_matrix_shape_and_entries(F256):
    # the syndrome matrix the decoder builds, from the logs of s, against
    # the oracle's one frob per entry, for every trial rank t < n - k = len(s)
    rng = random.Random(61)
    for ctx, nk in ((F256, 6), (make_field(3, 7), 6), (make_field(9, 3), 2)):
        s = tuple(ctx.rand_elem(rng) for _ in range(nk))
        for t in range(1, nk):
            M = _decoder_rows(ctx, s, t)
            assert len(M) == nk - t and len(M[0]) == t + 1
            assert M == syndrome_matrix(ctx, s, t)


def test_build_syndrome_matrix_2_1_example(F256):
    # the decoder's rows, and the oracle's, on the (2,1) example and on the
    # all-zero syndrome
    rng = random.Random(62)
    s = (F256.rand_elem(rng), F256.rand_elem(rng))
    assert _decoder_rows(F256, s, 1) == [[s[1], F256._frob(s[0], 1)]]
    assert syndrome_matrix(F256, s, 1) == [[s[1], F256._frob(s[0], 1)]]
    assert _decoder_rows(F256, (0, 0, 0), 1) == [[0, 0], [0, 0]]


def test_key_equation_and_decomposition(code_8_2, F256):
    """Structural properties on constructed instances: the span polynomial
    annihilates both syndrome matrices, remainders have low q-degree, and
    the syndrome matrices factor through the support's Moore matrices."""
    rng = random.Random(63)
    alpha = code_8_2.alpha
    k = code_8_2.k
    for _ in range(300):
        t = rng.randrange(1, 5)
        err = sample_space_symmetric(F256, alpha, t, rng)
        c = _rand_codeword(code_8_2, rng)
        y = _corrupt(F256, c, err.e)
        s1, s2 = code_8_2.syndromes(y)
        a = _support(code_8_2, err)
        gamma = min_subspace_poly(F256, a)
        assert lin_qdeg(gamma) == t
        # remainders of q-degree < t
        assert lin_qdeg(key_equation_remainder(F256, gamma, s1)) < t
        assert lin_qdeg(key_equation_remainder(F256, gamma, s2)) < t
        # S^(i) . Gamma^T = 0 and the two factorizations, entrywise
        S1 = _decoder_rows(F256, s1, t)
        S2 = _decoder_rows(F256, s2, t)
        Mt1T = transpose(moore_matrix(F256, a, t + 1))
        Ma = moore_matrix(F256, a, 8 - k - t)
        left1 = [[F256._frob(v, t + 1) for v in row] for row in Ma]
        left2 = [[F256._frob(v, t + k) for v in row] for row in Ma]
        assert S1 == matmul(F256, matmul(F256, left1, err.P), Mt1T)
        assert S2 == matmul(F256, matmul(F256, left2, transpose(err.P)), Mt1T)
        for S in (S1, S2):
            for row in S:
                acc = 0
                for v, g in zip(row, gamma):
                    acc = F256._add(acc, F256._mul(v, g))
                assert acc == 0


def test_joint_kernel_contains_true_span_polynomial(code_8_2, F256):
    rng = random.Random(64)
    for _ in range(100):
        t = rng.randrange(1, 5)
        err = sample_space_symmetric(F256, code_8_2.alpha, t, rng)
        y = _corrupt(F256, _rand_codeword(code_8_2, rng), err.e)
        s1, s2 = code_8_2.syndromes(y)
        rank, kernel = joint_kernel(F256, s1, s2, t)
        assert rank <= t
        gamma = min_subspace_poly(F256, _support(code_8_2, err))
        gv = list(gamma) + [0] * (t + 1 - len(gamma))
        # gamma joins the kernel span: appending it must not raise the rank
        assert matrix_rank(F256, kernel + [gv]) == len(kernel)
        if rank == t:
            assert len(kernel) == 1


def test_joint_kernel_zero_syndromes(F256):
    rank, kernel = joint_kernel(F256, (0,) * 6, (0,) * 6, 2)
    assert rank == 0 and len(kernel) == 3


def test_recover_error(code_8_2, F256):
    rng = random.Random(65)
    assert recover_error(code_8_2, [], (0,) * 6) == (0,) * 8
    for _ in range(200):
        t = rng.randrange(1, 5)
        err = sample_space_symmetric(F256, code_8_2.alpha, t, rng)
        s2 = code_8_2.syndromes(err.e)[1]
        a = _support(code_8_2, err)
        e = recover_error(code_8_2, a, s2)
        assert e == err.e
        assert code_8_2.syndromes(e)[1] == s2


def test_recover_error_inconsistent_support(code_8_2, F256):
    rng = random.Random(66)
    hits = 0
    for _ in range(50):
        err = sample_space_symmetric(F256, code_8_2.alpha, 3, rng)
        s2 = code_8_2.syndromes(err.e)[1]
        # wrong support of the right size
        wrong = sample_space_symmetric(F256, code_8_2.alpha, 3, rng)
        a = _support(code_8_2, wrong)
        e = recover_error(code_8_2, a, s2)
        if e is None:
            hits += 1
            continue
        assert code_8_2.syndromes(e)[1] == s2
    assert hits > 40  # wrong supports almost always surface as inconsistency


def _scaled(ctx, c, f):
    return tuple(ctx._mul(c, v) for v in f)


def _independent(ctx, rng, t):
    gens = []
    while vector_rank(ctx, tuple(gens)) < t:
        gens.append(ctx.rand_elem(rng))
    return gens


@pytest.mark.parametrize("q,n", [(2, 8), (2, 16), (3, 5), (4, 4), (9, 3)])
def test_full_root_space_matches_root_space_oracle(q, n):
    # random g (half with g_0 = 0), g with a partial root space (a random
    # outer polynomial composed with a subspace polynomial), and scaled
    # subspace polynomials of t independent elements; t runs to 5, past n
    # at n = 3 and 4, and to the codec radius 8 at n = 16.  The left
    # division, the right division and the root space all agree
    ctx = make_field(q, n)
    rng = random.Random(q * 10 + n)
    seen = set()
    for i in range(300):
        t = rng.randrange(1, max(5, n // 2) + 1)
        kind = i % 3
        if kind == 0:
            g = [ctx.rand_elem(rng) for _ in range(t)] + [
                rng.randrange(1, ctx.order)]
            if i % 2:
                g[0] = 0
        elif kind == 1 and t > 1:
            d = rng.randrange(1, min(t, n + 1))
            inner = min_subspace_poly(ctx, _independent(ctx, rng, d))
            outer = [ctx.rand_elem(rng) for _ in range(t - d)] + [1]
            g = lin_compose_mod(ctx, outer, inner, t + 1)
        elif t <= n:
            g = _scaled(ctx, rng.randrange(1, ctx.order), min_subspace_poly(
                ctx, _independent(ctx, rng, t)))
        else:
            continue
        g = tuple(g)
        assert lin_qdeg(g) == t
        full = len(root_space_basis(ctx, g)) == t
        assert _full_root_space(ctx, g) == right_remainder_is_x(ctx, g) == full
        seen.add((kind, full, g[0] == 0))
    assert {(0, False, True), (1, False, False), (2, True, False)} <= seen


@pytest.mark.parametrize("q,n,tmax,count", [(2, 4, 3, 273), (3, 3, 2, 28)])
def test_full_root_space_rejects_every_zero_constant(q, n, tmax, count):
    # every g = (0, g_1, ..., g_(t-1), 1) with t <= tmax: g_0 = 0 makes
    # g = h o x^q, whose root space is not t-dimensional, and the left
    # division rejects it with no test of g_0, as the right division does
    ctx = make_field(q, n)
    seen = 0
    for t in range(1, tmax + 1):
        for mid in itertools.product(range(ctx.order), repeat=t - 1):
            g = (0, *mid, 1)
            assert _full_root_space(ctx, g) is False
            assert right_remainder_is_x(ctx, g) is False
            seen += 1
    assert seen == count


@pytest.mark.parametrize("q,n,k", [(2, 8, 2), (3, 6, 2), (4, 4, 1),
                                   (9, 3, 1)])
def test_dual_recovery_matches_oracle_recover_error(q, n, k):
    # any syndrome that satisfies a full-root-space Gamma's recurrence on
    # rows t..n-k-1 has exactly one error e in V^n, V the root space: the
    # oracle solve never finds the system inconsistent.  For y = c + e the
    # recurrence continues the syndrome by e G^T, and the codeword with
    # G^T-image y G^T - e G^T is c, so y - c is e
    ctx = make_field(q, n)
    code = GabidulinCode(ctx, k)
    rng = random.Random(q * 100 + n)
    for i in range(200):
        t = 1 + i % (n - k)
        g = _scaled(ctx, rng.randrange(1, ctx.order), min_subspace_poly(
            ctx, _independent(ctx, rng, t)))
        s = [ctx.rand_elem(rng) for _ in range(t)]
        scale = ctx._sub(0, ctx._inv(g[0]))
        for m in range(t, n - k):
            acc = 0
            for j in range(1, t + 1):
                acc = ctx._add(acc, ctx._mul(g[j], ctx._frob(s[m - j], j)))
            s.append(ctx._mul(scale, acc))
        e = recover_error(code, root_space_basis(ctx, g), s)
        assert code.syndromes(e)[1] == tuple(s)
        assert vector_rank(ctx, e) <= t
        c = _rand_codeword(code, rng)
        y = _corrupt(ctx, c, e)
        yg = matmul(ctx, [y], transpose(code_matrices(code)[0]))[0]
        assert code._from_gt(map(ctx._sub, yg, _extend(ctx, g, s))) == c
        assert tuple(map(ctx._sub, y, c)) == e


def test_decode_codeword_passthrough(code_8_2, F256):
    rng = random.Random(67)
    c = _rand_codeword(code_8_2, rng)
    out = decode(code_8_2, c)
    assert out.decoded and out.codeword == c and out.error == (0,) * 8
    assert out.trial_trace == ()


def test_decode_guaranteed_radius(code_8_2, F256):
    rng = random.Random(68)
    for _ in range(500):
        t = rng.randrange(0, 4)  # <= (n-k)/2
        err = sample_space_symmetric(F256, code_8_2.alpha, t, rng)
        c = _rand_codeword(code_8_2, rng)
        out = decode(code_8_2, _corrupt(F256, c, err.e))
        assert out.decoded and out.codeword == c
        assert out.error == err.e


def test_decode_reverifies_parities(code_8_2, F256):
    rng = random.Random(69)
    for _ in range(200):
        t = rng.randrange(0, 5)
        err = sample_space_symmetric(F256, code_8_2.alpha, t, rng)
        c = _rand_codeword(code_8_2, rng)
        out = decode(code_8_2, _corrupt(F256, c, err.e))
        if not out.decoded:
            continue
        assert not any(code_8_2.syndromes(out.codeword)[1])
        chat = transpose_vector(F256, out.codeword, code_8_2.alpha)
        hhat = code_matrices(code_8_2)[2]
        assert not any(syndrome_against(F256, chat, hhat))


def test_decode_rank_never_exceeds_true_rank(code_8_2, F256):
    rng = random.Random(70)
    for _ in range(100):
        t = rng.randrange(1, 5)
        err = sample_space_symmetric(F256, code_8_2.alpha, t, rng)
        c = _rand_codeword(code_8_2, rng)
        out = decode(code_8_2, _corrupt(F256, c, err.e))
        for trial_t, rank in out.trial_trace:
            if trial_t >= t:
                assert rank <= t


def test_decode_failure_is_a_value(code_8_2, F256):
    # symmetric inner factor at t = 4 collapses the stacked rank (the two
    # Moore blocks share the q-power 6), so failure is certain: a useful
    # fixture for exercising the failure path end to end
    rng = random.Random(71)
    from rankmetric.linalg import phi_inv
    for _ in range(20):
        A = sample_full_rank(F256, 8, 4, rng)
        P = sample_symmetric_invertible(F256, 4, rng)
        E = fq_matmul(F256, fq_matmul(F256, A, P), transpose(A))
        e = phi_inv(F256, E, code_8_2.alpha)
        c = _rand_codeword(code_8_2, rng)
        out = decode(code_8_2, _corrupt(F256, c, e))
        assert out.status == "failure"
        assert out.codeword is None and out.error is None
        assert out.trial_trace and out.trial_trace[0][0] == 4
        assert out.trial_trace[0][1] <= 3


def test_interleaved_failure_is_a_value(code_8_2, F256):
    # a shared support of rank 5, one above t_max = 4: the stacked rank still
    # matches the first trial, so the root space or the recovery must reject
    rng = random.Random(76)
    for _ in range(20):
        A = sample_full_rank(F256, 8, 5, rng)
        a = fqn_vecmat(F256, code_8_2.alpha, A)
        ys = []
        for _ in range(2):
            e = fqn_vecmat(F256, a, sample_full_rank(F256, 5, 8, rng))
            ys.append(_corrupt(F256, _rand_codeword(code_8_2, rng), e))
        out = interleaved_decode(code_8_2, ys[0], ys[1])
        assert out.status == "failure"
        assert out.codewords is None and out.errors is None
        assert out.trial_trace == ((4, 4),)


def test_symmetric_inner_factor_guaranteed_beyond_unique_radius(code_8_3, F256):
    """With disjoint Moore blocks (t > n-2k) a symmetric inner factor keeps
    the stacked matrix at full trial rank, so decoding always succeeds; at
    (n, k) = (8, 3) this covers t = 3 > 2 = n-2k, beyond the unique radius."""
    rng = random.Random(72)
    from rankmetric.linalg import phi_inv
    for _ in range(200):
        A = sample_full_rank(F256, 8, 3, rng)
        P = sample_symmetric_invertible(F256, 3, rng)
        E = fq_matmul(F256, fq_matmul(F256, A, P), transpose(A))
        e = phi_inv(F256, E, code_8_3.alpha)
        c = _rand_codeword(code_8_3, rng)
        out = decode(code_8_3, _corrupt(F256, c, e))
        assert out.decoded and out.codeword == c


def test_interleaved_codewords_passthrough(code_8_2, F256):
    rng = random.Random(73)
    c1, c2 = _rand_codeword(code_8_2, rng), _rand_codeword(code_8_2, rng)
    out = interleaved_decode(code_8_2, c1, c2)
    assert out.decoded and out.codewords == (c1, c2)


def test_interleaved_guaranteed_radius(code_8_2, F256):
    rng = random.Random(74)
    for _ in range(300):
        t = rng.randrange(1, 4)
        A = sample_full_rank(F256, 8, t, rng)
        a = fqn_vecmat(F256, code_8_2.alpha, A)
        cs, ys, es = [], [], []
        for _ in range(2):
            B = sample_full_rank(F256, t, 8, rng)
            e = fqn_vecmat(F256, a, B)
            c = _rand_codeword(code_8_2, rng)
            cs.append(c)
            es.append(e)
            ys.append(_corrupt(F256, c, e))
        out = interleaved_decode(code_8_2, ys[0], ys[1])
        assert out.decoded
        assert out.codewords == tuple(cs)
        assert out.errors == tuple(es)


def test_decode_rejects_wrong_length(code_8_2):
    with pytest.raises(ValueError):
        decode(code_8_2, (0,) * 5)


def test_decode_rejects_out_of_range_entries(code_8_2):
    for bad in (256, -1):
        y = (bad,) + (0,) * 7
        with pytest.raises(ValueError, match=r"\[0, q\^n\) = \[0, 256\)"):
            decode(code_8_2, y)
        with pytest.raises(ValueError, match=r"\[0, q\^n\) = \[0, 256\)"):
            interleaved_decode(code_8_2, (0,) * 8, y)


def test_outcomes_hold_ints_for_bool_and_index_input(code_8_2, F256):
    # the all-zero-syndrome path returned the caller's own entries: decode
    # of (False,) * 8 had the codeword (False,) * 8
    rng = random.Random(31)
    c = _rand_codeword(code_8_2, rng)
    z, one = (0,) * 8, (1,) + (0,) * 7
    for y in (z, one, c, _corrupt(F256, c, one)):
        kinds = [list, lambda w: [Index(x) for x in w]]
        if max(y) <= 1:
            kinds.append(lambda w: [bool(x) for x in w])
        want = decode(code_8_2, y)
        pair = interleaved_decode(code_8_2, z, y)
        assert want.decoded and pair.decoded
        assert all(type(x) is int for x in want.codeword + want.error)
        for f in kinds:
            assert repr(decode(code_8_2, f(y))) == repr(want)
            assert repr(interleaved_decode(code_8_2, f(z), f(y))) \
                == repr(pair)


def test_decoders_read_any_iterable(code_8_2, F256):
    rng = random.Random(32)
    c = _rand_codeword(code_8_2, rng)
    for y in (c, _corrupt(F256, c, (0, 5) + (0,) * 6), (0,) * 8):
        assert decode(code_8_2, iter(y)) == decode(code_8_2, y)
        assert interleaved_decode(code_8_2, iter(y), iter(c)) \
            == interleaved_decode(code_8_2, y, c)
    alpha = code_8_2.alpha
    assert is_weak_self_orthogonal(F256, iter(alpha)) \
        == is_weak_self_orthogonal(F256, alpha)


def test_decode_with_odd_characteristic():
    # small odd-q end-to-end: q = 3, n = 2, k = 1, rank-0 only (t_max = 0),
    # so check the passthrough branch and a failure on a corrupted word
    ctx = make_field(3, 2)
    code = GabidulinCode(ctx, 1)
    rng = random.Random(75)
    c = code.encode((5,))
    assert decode(code, c).decoded
    y = list(c)
    y[0] = ctx._add(y[0], 1)
    out = decode(code, tuple(y))
    assert out.status == "failure"  # no trial rank available at n-k = 1


@pytest.mark.parametrize("q,n,k,t", [(2, 8, 2, 4), (3, 5, 1, 2)])
def test_decoding_keeps_no_field_context_alive(q, n, k, t):
    # the code owns its tables and nothing outside it refers to
    # the context, so once both are dropped, reference counting frees them
    ctx = make_field(q, n)
    code = GabidulinCode(ctx, k)
    rng = random.Random(71)
    err = sample_space_symmetric(ctx, code.alpha, t, rng)
    y = _corrupt(ctx, _rand_codeword(code, rng), err.e)
    assert decode(code, y).decoded
    ref = weakref.ref(ctx)
    del code, ctx
    assert ref() is None


@pytest.mark.parametrize(
    "q,n,k,t,errors,failing,symmetric,symmetric_failing", [
        (2, 4, 1, 2, 210, 150, 140, 140),
        (2, 5, 1, 2, 930, 0, 620, 0),
        (2, 6, 2, 2, 3906, 0, 2604, 0),
        (3, 4, 1, 2, 6240, 2640, 2340, 2340),
    ], ids=["4-1-2-210-150-140-140", "5-1-2-930-0-620-0",
            "6-2-2-3906-0-2604-0", "q3-4-1-2-6240-2640-2340-2340"])
def test_scenario1_exact_failure_counts(q, n, k, t, errors, failing,
                                        symmetric, symmetric_failing):
    # every space-symmetric rank-t error over F_q, decoded as the received
    # word of the zero codeword; a miscorrection counts as a failure.  The
    # symmetric counts do not depend on the basis; the total failing count
    # is that of the basis find_wso_basis returns
    ctx = make_field(q, n)
    code = GabidulinCode(ctx, k)
    counts = [0, 0, 0, 0]
    for E in space_symmetric(n, t, q):
        out = decode(code, phi_inv(ctx, E, code.alpha))
        bad = not out.decoded or any(out.codeword)
        sym = all(E[i][j] == E[j][i] for i in range(n) for j in range(i))
        for i, hit in enumerate((True, bad, sym, sym and bad)):
            counts[i] += hit
    assert counts == [errors, failing, symmetric, symmetric_failing]
    assert errors == count_space_symmetric(n, t, q)
    assert symmetric == count_symmetric(n, t, q)
    # a symmetric E fails exactly when 2t > n - 1
    assert counts[3] == (counts[2] if 2 * t > n - 1 else 0)


@pytest.mark.parametrize("q,n,k,t,errors", [
    (2, 7, 1, 2, 16002),
    (3, 7, 1, 1, 2186),
], ids=["7-1-2", "q3-7-1-1"])
def test_countdown_matches_oracle_on_every_error(q, n, k, t, errors):
    # t_max = 4 at both, so rank-t errors pass through the trials above t
    ctx = make_field(q, n)
    code = GabidulinCode(ctx, k)
    seen = 0
    for E in space_symmetric(n, t, q):
        y = phi_inv(ctx, E, code.alpha)
        assert decode(code, y) == oracle_decode(code, y)
        seen += 1
    assert seen == errors


def _words(code, rng, count, ranks):
    """count received words: codeword plus a space-symmetric error whose
    rank cycles through ranks, or a uniformly random word for rank None."""
    ctx = code.ctx
    for i in range(count):
        rank = ranks[i % len(ranks)]
        if rank is None:
            yield tuple(ctx.rand_elem(rng) for _ in range(code.n))
            continue
        err = sample_space_symmetric(ctx, code.alpha, rank, rng)
        yield _corrupt(ctx, _rand_codeword(code, rng), err.e)


@pytest.mark.parametrize("q,n,k,count,ranks", [
    (2, 16, 4, 900, tuple(range(9))),
    (2, 8, 2, 300, (None,)),
    (3, 7, 1, 300, (None,)),
], ids=["16-4-ranks0-8", "8-2-random", "q3-7-1-random"])
def test_countdown_matches_oracle_on_sampled_words(q, n, k, count, ranks):
    ctx = make_field(q, n)
    code = GabidulinCode(ctx, k)
    later_hits = failures = 0
    for y in _words(code, random.Random(77), count, ranks):
        out = decode(code, y)
        assert out == oracle_decode(code, y)
        later_hits += out.decoded and len(out.trial_trace) > 1
        failures += not out.decoded
    # the sampled pool mostly hits below t_max; random words mostly fail
    assert (later_hits if ranks[0] is not None else failures) > count // 2


def _mixed_words(code, rng, count):
    """count received words cycling through a codeword plus a
    space-symmetric error, a codeword plus a generic error alpha A B (A
    n-by-t and B t-by-n of full rank), and a uniformly random word; the
    error rank cycles through 0..t_max + 1."""
    ctx, n = code.ctx, code.n
    ranks = 2 * (n - code.k) // 3 + 2
    for i in range(count):
        kind, t = i % 3, i // 3 % ranks
        if kind == 2:
            yield tuple(ctx.rand_elem(rng) for _ in range(n))
            continue
        if kind == 0:
            e = sample_space_symmetric(ctx, code.alpha, t, rng).e
        elif t:
            e = fqn_vecmat(ctx, code.alpha, fq_matmul(
                ctx, sample_full_rank(ctx, n, t, rng),
                sample_full_rank(ctx, t, n, rng)))
        else:
            e = (0,) * n
        yield _corrupt(ctx, _rand_codeword(code, rng), e)


@pytest.mark.parametrize("q,n,k", [(4, 4, 1), (9, 4, 1), (3, 6, 2)])
def test_countdown_matches_oracle_on_mixed_words(q, n, k):
    # non-prime q, and trace-orthonormal bases (c = w at odd q, even n)
    ctx = make_field(q, n)
    code = GabidulinCode(ctx, k)
    decoded = 0
    for y in _mixed_words(code, random.Random(79), 300):
        out = decode(code, y)
        assert out == oracle_decode(code, y)
        decoded += out.decoded
    assert 100 < decoded < 300


def test_interleaved_countdown_matches_oracle(code_8_2, F256):
    rng = random.Random(78)
    for i in range(300):
        t = i % 6
        a = fqn_vecmat(F256, code_8_2.alpha,
                           sample_full_rank(F256, 8, t, rng)) if t else []
        ys = []
        for _ in range(2):
            e = (fqn_vecmat(F256, a, sample_full_rank(F256, t, 8, rng))
                 if t else (0,) * 8)
            ys.append(_corrupt(F256, _rand_codeword(code_8_2, rng), e))
        s1, s2 = code_8_2.syndromes(ys[0])[1], code_8_2.syndromes(ys[1])[1]
        oracle = InterleavedOutcome(*countdown_decode(
            code_8_2, tuple(ys), s1, s2, (s1, s2)))
        assert interleaved_decode(code_8_2, *ys) == oracle


def test_countdown_visits_trials_above_observed_rank():
    # rank(S_4) = 2 < 3 = rank(S_3): a jump from trial 4 straight to trial
    # rank(S_4) = 2 would skip the hit at 3 and fail on this word
    ctx = make_field(3, 7)
    code = GabidulinCode(ctx, 1)
    rng = random.Random(2024)
    err = [sample_space_symmetric(ctx, code.alpha, 3, rng)
           for _ in range(6)][5]
    out = decode(code, err.e)
    assert out.decoded and out.error == err.e and not any(out.codeword)
    assert out.trial_trace == ((4, 2), (3, 3))


def _shift_checked(code, errors, rng):
    """(status, codewords, errors, trace) of decoding the errors alone: one
    through decode, two through interleaved_decode.  Checks first that the
    errors added to random codewords decode to the same status, trace and
    errors, and to those codewords plus the codewords decoded from the
    errors alone, which is what lets the simulate harness skip the
    codewords."""
    ctx = code.ctx
    sent = [_rand_codeword(code, rng) for _ in errors]
    words = [_corrupt(ctx, c, e) for c, e in zip(sent, errors)]
    if len(errors) == 1:
        one = lambda v: None if v is None else (v,)
        plain, shifted = ((out.status, one(out.codeword), one(out.error),
                           out.trial_trace)
                          for out in (decode(code, *errors),
                                      decode(code, *words)))
    else:
        plain, shifted = ((out.status, out.codewords, out.errors,
                           out.trial_trace)
                          for out in (interleaved_decode(code, *errors),
                                      interleaved_decode(code, *words)))
    status, codewords, found, trace = plain
    if codewords is not None:
        codewords = tuple(map(_corrupt, [ctx] * len(sent), sent, codewords))
    assert shifted == (status, codewords, found, trace)
    return plain


def _wrong(plain):
    """Whether a decoding of errors alone is a failure or a nonzero word."""
    return plain[1] is None or any(map(any, plain[1]))


def _shared_support_errors(code, t, rng):
    """Two errors alpha A B1 and alpha A B2 on one t-dimensional support."""
    ctx, n = code.ctx, code.n
    a = fqn_vecmat(ctx, code.alpha, sample_full_rank(ctx, n, t, rng))
    return [fqn_vecmat(ctx, a, sample_full_rank(ctx, t, n, rng))
            for _ in range(2)]


def _zero_syndrome_errors(code, rng):
    """Error lists that take the zero-syndrome shortcut: zero and nonzero
    codewords, alone and in pairs."""
    zero = (0,) * code.n
    c1, c2, c3, c4 = (_rand_codeword(code, rng) for _ in range(4))
    return [[zero], [c1], [zero, zero], [c2, zero], [c3, c4]]


def test_codeword_shift_every_error_2_4_1_2():
    # 150 of the 210 space-symmetric rank-2 errors fail at (2,4,1,2)
    ctx = make_field(2, 4)
    code = GabidulinCode(ctx, 1)
    rng = random.Random(80)
    wrong = [_wrong(_shift_checked(code, [phi_inv(ctx, E, code.alpha)], rng))
             for E in space_symmetric(4, 2, 2)]
    assert (len(wrong), sum(wrong)) == (210, 150)
    pairs = [_wrong(_shift_checked(code, _shared_support_errors(code, 2, rng),
                                   rng)) for _ in range(200)]
    assert 0 < sum(pairs) < 200
    for errors in _zero_syndrome_errors(code, rng):
        plain = _shift_checked(code, errors, rng)
        assert plain[0] == "decoded" and plain[3] == ()
        assert plain[1] == tuple(errors)


@pytest.mark.parametrize("q,n,k,t,failing,pairs_failing", [
    (2, 8, 2, 4, 8, 2),
    (4, 5, 1, 2, 0, 0),
])
def test_codeword_shift_sampled_errors(q, n, k, t, failing, pairs_failing):
    # 300 single errors and 300 pairs; at (2,8,2,4) the failing singles
    # include the symmetric-P draws, about 1/45 of them
    ctx = make_field(q, n)
    code = GabidulinCode(ctx, k)
    rng = random.Random(81)
    wrong = sum(_wrong(_shift_checked(
        code, [sample_space_symmetric(ctx, code.alpha, t, rng).e], rng))
        for _ in range(300))
    pairs = sum(_wrong(_shift_checked(
        code, _shared_support_errors(code, t, rng), rng)) for _ in range(300))
    assert (wrong, pairs) == (failing, pairs_failing)
    for errors in _zero_syndrome_errors(code, rng):
        plain = _shift_checked(code, errors, rng)
        assert plain[0] == "decoded" and plain[1] == tuple(errors)
    if 2 * t <= n - 1:
        return
    # a symmetric inner factor fails whenever 2t > n - 1
    for _ in range(20):
        A = sample_full_rank(ctx, n, t, rng)
        P = sample_symmetric_invertible(ctx, t, rng)
        E = fq_matmul(ctx, fq_matmul(ctx, A, P), transpose(A))
        plain = _shift_checked(code, [phi_inv(ctx, E, code.alpha)], rng)
        assert plain[0] == "failure"


def test_codeword_shift_keeps_a_miscorrection():
    # trial 2141 of seed 7 at (3,7,1,4), scenario 1: the one miscorrection
    # in its first 4,000 trials, found at the trial rank 3 below the top
    ctx = make_field(3, 7)
    code = GabidulinCode(ctx, 1)
    err = sample_space_symmetric(ctx, code.alpha, 4, _trial_rng(7, 2141))
    rng = random.Random(82)
    for _ in range(20):
        status, codewords, found, trace = _shift_checked(code, [err.e], rng)
        assert status == "decoded" and trace == ((4, 2), (3, 3))
        assert any(codewords[0]) and found[0] != err.e


@pytest.mark.parametrize("q,n,k,t,exact", [
    (2, 4, 1, 2, Fraction(150, 210)),
    (2, 5, 1, 2, Fraction(0)),
    (2, 6, 2, 2, Fraction(0)),
    (3, 4, 1, 2, Fraction(2640, 6240)),
    (2, 6, 1, 3, Fraction(39060, 234360)),  # tests/exhaustive_counts.py
], ids=["n4k1t2", "n5k1t2", "n6k2t2", "q3n4k1t2", "n6k1t3"])
def test_scenario1_monte_carlo_matches_exact_rate(q, n, k, t, exact):
    # the end-to-end simulate path against the enumerated rates above
    rep = run_scenario(SimConfig(scenario=1, q=q, n=n, k=k, t=t, trials=2000,
                                 seed=1))
    if exact:
        lo, hi = rep.wilson95
        assert lo <= exact <= hi
    else:
        assert rep.failures == 0
