import fractions
import itertools
import math
import random
import sys

import pytest

import rankmetric.channel
from rankmetric import (count_rank, count_space_symmetric,
                        count_symmetric, find_wso_basis, gaussian_binomial,
                        make_field, sample_full_rank, sample_space_symmetric)
from rankmetric.channel import _draw
from rankmetric.field import _packed
from rankmetric.linalg import fq_matmul, phi_inv


from oracles import census as _census
from oracles import base_ops, coords, matrix_rank, rank_mod_p, rref, \
    sample_symmetric_invertible, transpose
from oracles import subspace_count as _subspace_count


@pytest.mark.parametrize("n,q", [(1, 2), (2, 2), (3, 2), (1, 3), (2, 3)])
def test_counts_match_census(n, q):
    by_rank, sym, spsym = _census(n, q)
    for t in range(n + 1):
        assert count_rank(n, t, q) == by_rank.get(t, 0)
        assert count_symmetric(n, t, q) == sym.get(t, 0)
        assert count_space_symmetric(n, t, q) == spsym.get(t, 0)


def test_gaussian_binomial_examples_and_census():
    assert gaussian_binomial(5, 0, 2) == 1
    assert gaussian_binomial(2, 1, 2) == 3
    assert gaussian_binomial(4, 2, 2) == 35
    for n, t, q in ((2, 1, 2), (3, 1, 2), (3, 2, 2), (4, 2, 2), (2, 1, 3)):
        assert gaussian_binomial(n, t, q) == _subspace_count(n, t, q)


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_unchecked_gaussian_binomial_needs_no_range_guard(q):
    # the core takes r >= 0 from every caller; past r = m its factor
    # q^m - q^m is zero, so the quotient is 0 without a guard
    core = rankmetric.channel._gaussian_binomial
    for m in range(7):
        for r in range(m + 1):
            assert core(m, r, q) == gaussian_binomial(m, r, q)
        for r in range(m + 1, m + 4):
            assert core(m, r, q) == 0


def test_count_examples():
    assert count_space_symmetric(3, 1, 2) == 7
    assert count_space_symmetric(2, 2, 2) == 6  # |GL_2(F_2)|
    assert count_symmetric(2, 1, 2) == 3
    assert count_rank(2, 1, 2) == 9
    for f in (count_rank, count_symmetric, count_space_symmetric,
              gaussian_binomial):
        assert f(5, 0, 2) == 1
        # a count is the int it counts, with no wrapper around it
        assert type(f(5, 0, 2)) is int and type(f(4, 2, 3)) is int


def test_space_symmetric_factorization_identity():
    for n in range(7):
        for t in range(n + 1):
            rhs = gaussian_binomial(n, t, 2)
            for i in range(t):
                rhs *= 2 ** t - 2 ** i
            assert count_space_symmetric(n, t, 2) == rhs


def test_rank_census_sums_to_all_matrices():
    for q in (2, 3):
        for n in (1, 2, 3):
            assert sum(count_rank(n, t, q)
                       for t in range(n + 1)) == q ** (n * n)


def test_count_validation():
    with pytest.raises(ValueError):
        count_rank(3, 4, 2)
    with pytest.raises(ValueError):
        gaussian_binomial(3, 1, 6)
    with pytest.raises(ValueError, match="3.0"):
        gaussian_binomial(3.0, 1, 2)
    with pytest.raises(ValueError, match="1.0"):
        count_rank(3, 1.0, 2)


def test_log2_accuracy():
    # math.log2 takes ints of any size; the counts are never 0
    for value in (1, 7, 2 ** 40 + 1, 2 ** 200, 3 ** 500, 3 ** 5000):
        assert abs(math.log2(value) - _exact_log2_ref(value)) < 1e-6
    assert abs(math.log2(count_rank(96, 6, 2)) - 1117.77) < 0.01


def _exact_log2_ref(x):
    # reference via arbitrary-precision integer square-free scaling
    bits = x.bit_length() - 1
    frac = fractions.Fraction(x, 1 << bits)
    return bits + math.log2(float(frac))


def _symmetric_ref(n, tprime, q):
    """The symmetric-rank count as the product formula in Fractions."""
    acc = fractions.Fraction(1)
    for i in range(1, tprime // 2 + 1):
        acc *= fractions.Fraction(q ** (2 * i), q ** (2 * i) - 1)
    for i in range(tprime):
        acc *= q ** (n - i) - 1
    assert acc.denominator == 1
    return acc.numerator


def test_count_symmetric_matches_fraction_product():
    # the integer numerator over denominator equals the Fraction product
    for q in (2, 3, 4, 5, 7, 8, 9, 16, 25, 1021):
        for n in range(13):
            for t in range(n + 1):
                assert count_symmetric(n, t, q) == _symmetric_ref(n, t, q), \
                    (n, t, q)


# ---------------------------------------------------------------------------
# Samplers.
# ---------------------------------------------------------------------------

def test_space_symmetric_zero_rank(F256, wso256):
    rng = random.Random(51)
    err = sample_space_symmetric(F256, wso256, 0, rng)
    assert err.t == 0 and err.e == (0,) * 8
    assert all(all(v == 0 for v in row)
               for row in coords(F256, wso256, err.e))


def _check_space_symmetric(ctx, alpha, draws, tmax, rng):
    """E, the coordinates of e, has rank t, and so does E stacked with
    E^T."""
    for _ in range(draws):
        t = rng.randrange(0, tmax + 1)
        E = coords(ctx, alpha, sample_space_symmetric(ctx, alpha, t, rng).e)
        assert matrix_rank(ctx, E) == t
        assert matrix_rank(ctx, E + transpose(E)) == t


def test_space_symmetric_invariants(F256, wso256):
    rng = random.Random(52)
    alpha = wso256
    _check_space_symmetric(F256, alpha, 10000, 4, rng)
    # vector form expands back to E = A P A^T (spot check)
    err = sample_space_symmetric(F256, alpha, 3, rng)
    assert coords(F256, alpha, err.e) == fq_matmul(
        F256, fq_matmul(F256, err.A, err.P), transpose(err.A))


@pytest.mark.parametrize("q,n", [(3, 7), (9, 3)])
def test_space_symmetric_invariants_odd_q(q, n):
    ctx = make_field(q, n)
    _check_space_symmetric(ctx, find_wso_basis(ctx), 400, n,
                           random.Random(59))


def test_space_symmetric_uniformity_tiny(F4):
    # n = 2, t = 1, q = 2: exactly 3 rank-1 matrices with equal spaces
    rng = random.Random(53)
    counts = {}
    N = 1500
    for _ in range(N):
        err = sample_space_symmetric(F4, (2, 3), 1, rng)
        key = tuple(tuple(r) for r in coords(F4, (2, 3), err.e))
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 3
    p = 1 / 3
    sigma = math.sqrt(p * (1 - p) * N)
    for c in counts.values():
        assert abs(c - N * p) <= 3 * sigma


def test_uniform_invertible(F4, F256):
    # the channel's invertible P (and scenario 2's Q) is a square full-rank
    # draw, with no sampler of its own
    assert not hasattr(rankmetric.channel, "sample_uniform_invertible")
    rng = random.Random(55)
    assert sample_full_rank(F256, 1, 1, rng) == [[1]]
    for _ in range(200):
        t = rng.randrange(1, 5)
        assert matrix_rank(F256, sample_full_rank(F256, t, t, rng)) == t
    counts = {}
    N = 6000
    for _ in range(N):
        M = sample_full_rank(F4, 2, 2, rng)
        key = tuple(tuple(r) for r in M)
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 6  # |GL_2(F_2)|
    p = 1 / 6
    sigma = math.sqrt(p * (1 - p) * N)
    for c in counts.values():
        assert abs(c - N * p) <= 3 * sigma


def test_symmetric_invertible(F256):
    rng = random.Random(56)
    for _ in range(200):
        t = rng.randrange(1, 5)
        M = sample_symmetric_invertible(F256, t, rng)
        assert M == transpose(M)
        assert matrix_rank(F256, M) == t


def test_full_rank_sampler_rect(F9):
    rng = random.Random(57)
    for _ in range(100):
        M = sample_full_rank(F9, 4, 2, rng)
        assert matrix_rank(F9, M) == 2


def test_full_rank_sampler_empty_shapes(F9):
    # a shape with no columns once raised "range() arg 3 must not be zero"
    rng = random.Random(57)
    for rows, cols in ((3, 0), (0, 3), (0, 0)):
        assert sample_full_rank(F9, rows, cols, rng) == [[]] * rows


@pytest.mark.parametrize("q,n,t", [(2, 8, 4), (3, 7, 4)])
def test_sampler_ranks_once_per_draw(monkeypatch, q, n, t):
    # bench/tracer.py counts the calls of linalg.fq_rank made from the
    # channel as sampler attempts; wrapped as the tracer wraps it, at every
    # rankmetric module that binds it, it runs once per attempt of a replay
    # that draws randrange(q) per entry in row order and rejects on the
    # oracle rank
    ctx = make_field(q, n)
    calls = 0
    rank = rankmetric.linalg.fq_rank

    def wrapped(*args):
        nonlocal calls
        calls += 1
        return rank(*args)

    for key, mod in list(sys.modules.items()):
        if key == "rankmetric" or key.startswith("rankmetric."):
            for attr, value in list(vars(mod).items()):
                if value is rank:
                    monkeypatch.setattr(mod, attr, wrapped)
    rng, replay = random.Random(q * n), random.Random(q * n)
    attempts = 0
    for rows, cols in ((n, t), (t, t), (t, n)):
        for _ in range(200):
            M = sample_full_rank(ctx, rows, cols, rng)
            while True:
                attempts += 1
                R = [[replay.randrange(q) for _ in range(cols)]
                     for _ in range(rows)]
                if _oracle_rank(ctx, R) == min(rows, cols):
                    break
            assert M == R
    # 600 samples, so more attempts than that: some draws were rejected
    assert calls == attempts > 600


@pytest.mark.parametrize("q,n", [(2, 8), (3, 7), (4, 4), (9, 3)])
def test_draw_returns_the_packed_lines_of_its_ranked_side(q, n):
    # _draw packs each line as it draws it: the columns of an n-by-t draw
    # with t < n and of a 2-by-(n+2) one, the rows of a square, t-by-n or
    # (n+2)-by-2 one, each as field._packed of its entries; M is the public
    # sampler's draw from the same seed, with the same draws after it
    ctx, t = make_field(q, n), n // 2
    for (rows, cols), side in (((n, t), "cols"), ((2, n + 2), "cols"),
                               ((n, 0), "cols"), ((t, t), "rows"),
                               ((t, n), "rows"), ((n, n), "rows"),
                               ((n + 2, 2), "rows")):
        for seed in range(20):
            rng, ref = random.Random(seed), random.Random(seed)
            M, lines = _draw(ctx, rows, cols, rng)
            assert M == sample_full_rank(ctx, rows, cols, ref)
            ranked = M if side == "rows" else list(zip(*M))
            assert lines == [_packed(q, line) for line in ranked]
            assert rng.random() == ref.random()


def test_full_rank_sampler_needs_a_packed_side(F4):
    # at n = 2 no line of a 3x3, 3x4 or 4x3 draw fits in an element of
    # F_4: the sampler refuses the shape before it draws; a shape with a
    # side of at most 2 is still the randrange replay
    for rows, cols in ((3, 3), (3, 4), (4, 3)):
        rng = random.Random(rows * cols)
        with pytest.raises(ValueError, match=f"{rows}x{cols}.*n=2"):
            sample_full_rank(F4, rows, cols, rng)
        assert rng.random() == random.Random(rows * cols).random()
    for rows, cols in ((2, 3), (3, 2), (2, 2)):
        for seed in range(30):
            M = sample_full_rank(F4, rows, cols, random.Random(seed))
            assert M == _replay_full_rank(F4, rows, cols, random.Random(seed))


def test_sampler_range_validation(F256, wso256):
    rng = random.Random(58)
    with pytest.raises(ValueError):
        sample_space_symmetric(F256, wso256, 9, rng)
    with pytest.raises(ValueError, match="basis must have 8 entries"):
        sample_space_symmetric(F256, wso256[:7], 4, rng)
    F81 = make_field(3, 4)
    for ctx in (F256, F81):
        for bad in (ctx.order, -1):
            alpha = (bad,) + (1,) * (ctx.n - 1)
            with pytest.raises(ValueError, match="basis entries"):
                sample_space_symmetric(ctx, alpha, 2, rng)
    for ctx, rows, cols in ((F256, -1, 3), (F81, 3, -2)):
        with pytest.raises(ValueError, match="rows, cols >= 0"):
            sample_full_rank(ctx, rows, cols, rng)
    # a dependent basis once gave a record with t = 4 whose e had a lower
    # rank ((1,) * 8 gave rank 1); it raises before any draw, whether every
    # locator is 1 or the last is the sum of the first two
    for ctx in (F256, F81, make_field(4, 4)):
        poly = tuple(ctx.q ** j for j in range(ctx.n))
        for alpha in ((1,) * ctx.n,
                      poly[:-1] + (ctx.add(poly[0], poly[1]),)):
            drawn = random.Random(59)
            with pytest.raises(ValueError, match="alpha is not a basis"):
                sample_space_symmetric(ctx, alpha, 4, drawn)
            assert drawn.random() == random.Random(59).random()
    # counts are read with operator.index, once per call
    for call, what in ((lambda: sample_space_symmetric(
            F256, wso256, 4.0, rng), "t 4.0"),
            (lambda: sample_full_rank(F256, 8, 4.0, rng), "cols 4.0"),
            (lambda: sample_full_rank(F81, 2.0, 4, rng), "rows 2.0")):
        with pytest.raises(ValueError, match=f"{what} is not an integer"):
            call()


def _oracle_rank(ctx, M):
    if ctx.q == ctx.p:
        return rank_mod_p(M, ctx.p)
    return len(rref(*base_ops(ctx), M, len(M[0]))[1])


def _replay_full_rank(ctx, rows, cols, rng):
    """The full-rank draw written out: entries row by row with
    randrange(q), rejection on the oracle rank."""
    while True:
        M = [[rng.randrange(ctx.q) for _ in range(cols)] for _ in range(rows)]
        if _oracle_rank(ctx, M) == min(rows, cols):
            return M


def _replay_symmetric(ctx, t, rng):
    """The symmetric draw written out: the upper triangle row by row."""
    while True:
        M = [[0] * t for _ in range(t)]
        for i in range(t):
            for j in range(i, t):
                M[i][j] = M[j][i] = rng.randrange(ctx.q)
        if _oracle_rank(ctx, M) == t:
            return M


@pytest.mark.parametrize("q,n,t", [
    (2, 8, 4), (2, 8, 1), (2, 6, 6), (2, 5, 3), (2, 16, 8), (3, 7, 4),
    (3, 4, 2), (4, 4, 2), (4, 3, 3), (5, 3, 2), (9, 4, 2), (9, 3, 3)])
def test_sampler_matches_randrange_replay(q, n, t):
    """Every sampler draws what a randrange(q) per entry would, in order."""
    ctx = make_field(q, n)
    alpha = find_wso_basis(ctx)
    for seed in range(60):
        rng = random.Random(seed)
        replay = random.Random(seed)
        err = sample_space_symmetric(ctx, alpha, t, rng)
        A = _replay_full_rank(ctx, n, t, replay)
        P = _replay_full_rank(ctx, t, t, replay)
        E = fq_matmul(ctx, fq_matmul(ctx, A, P), transpose(A))
        assert (err.A, err.P, err.e) == (A, P, phi_inv(ctx, E, alpha))
        assert coords(ctx, alpha, err.e) == E
        assert sample_full_rank(ctx, t, n, rng) == _replay_full_rank(
            ctx, t, n, replay)
        assert sample_full_rank(ctx, t, t, rng) == _replay_full_rank(
            ctx, t, t, replay)
        assert sample_symmetric_invertible(ctx, t, rng) == _replay_symmetric(
            ctx, t, replay)
        assert rng.random() == replay.random()  # same number of draws
