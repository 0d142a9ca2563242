import random

import pytest

from rankmetric import (GabidulinCode, count_rank, count_space_symmetric,
                        count_symmetric, crypto_row, decode, failure_bound,
                        find_wso_basis, fq_matmul, gaussian_binomial,
                        interleaved_decode, is_weak_self_orthogonal,
                        make_field, moore_matrix, phi_inv,
                        sample_space_symmetric, vector_rank, wf_error)
from rankmetric.linalg import _insert_rows, fq_rank, fqn_vecmat

from oracles import Index, base_ops, coords, fq_matrix_rank, kernel, \
    matmul, matrix_rank, rref, solve, transpose, transpose_vector


def _poly_basis(ctx):
    return tuple(ctx.q ** j for j in range(ctx.n))


# phi is the expansion map, the oracle coords: coords(ctx, alpha, a) is the
# matrix whose column j holds the alpha-coordinates of a_j

def test_phi_of_basis_is_identity(F4, F256, wso256):
    alpha4 = (2, 3)
    assert coords(F4, alpha4, alpha4) == [[1, 0], [0, 1]]
    a = wso256
    eye = coords(F256, a, a)
    assert all(eye[i][j] == (1 if i == j else 0) for i in range(8)
               for j in range(8))


def test_phi_worked_example_f4(F4):
    # a = (1, z) in basis (z, z^2): 1 = z + z^2, z = 1*z + 0*z^2
    A = coords(F4, (2, 3), (1, 2))
    assert A == [[1, 1], [1, 0]]


def test_phi_rejects_non_basis(F4):
    # a pivot in the augmented columns with n pivots in all, then fewer
    # than n pivots as every entry of a lies in the span of alpha
    for a in ((1, 2), (2, 0)):
        with pytest.raises(ValueError, match="not a basis"):
            coords(F4, (2, 2), a)


def test_phi_inv_examples(F4):
    alpha = (2, 3)
    assert phi_inv(F4, [[1, 0], [0, 1]], alpha) == alpha
    assert phi_inv(F4, [[0, 0], [0, 0]], alpha) == (0, 0)
    with pytest.raises(ValueError, match="basis must have 2 entries"):
        phi_inv(F4, [[1, 0], [0, 1]], alpha[:1])
    # a dependent basis, every locator 1 or the last the sum of the first
    # two, is no basis to expand in: it raises, as coords does
    for q, n in ((2, 4), (3, 3), (4, 3)):
        ctx = make_field(q, n)
        eye = [[int(i == j) for j in range(n)] for i in range(n)]
        poly = _poly_basis(ctx)
        for bad in ((1,) * n, poly[:-1] + (ctx.add(poly[0], poly[1]),)):
            with pytest.raises(ValueError, match="alpha is not a basis"):
                phi_inv(ctx, eye, bad)
        assert phi_inv(ctx, eye, poly) == poly


@pytest.mark.parametrize("q,n", [(2, 4), (3, 3), (4, 2)])
def test_phi_inv_rejects_entries_outside_fq(q, n):
    # an F_{q^n} element above q is no F_q scalar: at (2, 4) the identity
    # with A[0][0] = 2 would give (4, 5, 9, 15), whose coordinates are not A
    ctx = make_field(q, n)
    alpha = find_wso_basis(ctx) if q == 2 else _poly_basis(ctx)
    range_msg = rf"matrix entries must lie in F_q = \[0, q\) = \[0, {q}\)"
    for bad in (q, -1, q ** n - 1):
        A = [[int(i == j) for j in range(n)] for i in range(n)]
        A[0][0] = bad
        with pytest.raises(ValueError, match=range_msg):
            phi_inv(ctx, A, alpha)
    A = [[q - 1] * n for _ in range(n)]
    assert coords(ctx, alpha, phi_inv(ctx, A, alpha)) == A


def test_fq_inputs_rejected_outside_their_field():
    # a basis entry of -1 once read log[-1], and 16 ran past the tables
    F16 = make_field(2, 4)
    eye = [[int(i == j) for j in range(4)] for i in range(4)]
    for alpha in ((-1, 2, 4, 8), (1, 2, 4, 16)):
        with pytest.raises(ValueError, match=r"basis entries must lie in "
                                             r"\[0, q\^n\) = \[0, 16\)"):
            phi_inv(F16, eye, alpha)
    M = [[-1, 1], [1, 1]]
    for A, B in ((M, M), (M, eye[:2]), ([[1, 0], [0, 1]], [[2, 0], [0, 1]])):
        with pytest.raises(ValueError, match=r"matrix entries must lie in "
                                             r"F_q = \[0, q\) = \[0, 2\)"):
            fq_matmul(F16, A, B)
    for A in (eye[:3], [row[:3] for row in eye]):
        with pytest.raises(ValueError, match="matrix must be 4x4"):
            phi_inv(F16, A, (1, 2, 4, 8))


def test_phi_roundtrip_random(F256, wso256):
    rng = random.Random(11)
    for _ in range(100):
        a = tuple(F256.rand_elem(rng) for _ in range(8))
        assert phi_inv(F256, coords(F256, wso256, a), wso256) == a


def test_phi_is_fq_linear(F9):
    rng = random.Random(12)
    alpha = _poly_basis(F9)
    for _ in range(50):
        a = tuple(F9.rand_elem(rng) for _ in range(2))
        b = tuple(F9.rand_elem(rng) for _ in range(2))
        c = rng.randrange(3)
        s = tuple(F9._add(x, y) for x, y in zip(a, b))
        A, B = coords(F9, alpha, a), coords(F9, alpha, b)
        S = coords(F9, alpha, s)
        assert S == [[F9._add(A[i][j], B[i][j]) for j in range(2)]
                     for i in range(2)]
        ca = tuple(F9._mul(c, x) for x in a)
        CA = coords(F9, alpha, ca)
        assert CA == [[F9._mul(c, A[i][j]) for j in range(2)]
                      for i in range(2)]


def test_transpose_vector_properties(F256, wso256):
    rng = random.Random(13)
    alpha = wso256
    for _ in range(100):
        a = tuple(F256.rand_elem(rng) for _ in range(8))
        # phi_inv inverts coords, so transposing twice is the identity
        t = transpose_vector(F256, a, alpha)
        assert transpose_vector(F256, t, alpha) == a


def test_transpose_vector_symmetric_fixed_point(F256, wso256):
    rng = random.Random(14)
    alpha = wso256
    for _ in range(20):
        # build a symmetric expansion matrix, map it to a vector
        M = [[0] * 8 for _ in range(8)]
        for i in range(8):
            for j in range(i, 8):
                v = rng.randrange(2)
                M[i][j] = M[j][i] = v
        a = phi_inv(F256, M, alpha)
        assert transpose_vector(F256, a, alpha) == a


def test_moore_matrix(F4, F256):
    assert moore_matrix(F4, (2, 3), 1) == [[2, 3]]
    assert moore_matrix(F4, (2, 3), 2) == [[2, 3], [3, 2]]
    rng = random.Random(15)
    v = tuple(F256.rand_elem(rng) for _ in range(5))
    m0 = moore_matrix(F256, v, 3)
    m1 = moore_matrix(F256, v, 4)[1:]
    assert m1 == [[F256._frob(x, 1) for x in row] for row in m0]
    with pytest.raises(ValueError):
        moore_matrix(F256, v, 0)
    with pytest.raises(ValueError, match="rows 2.0 is not an integer"):
        moore_matrix(F256, v, 2.0)


def test_moore_rank_full_for_independent_entries(F256):
    rng = random.Random(16)
    for _ in range(50):
        r = rng.randrange(1, 6)
        while True:
            v = tuple(F256.rand_elem(rng) for _ in range(r))
            if vector_rank(F256, v) == r:
                break
        rows = rng.randrange(1, r + 1)
        shift = rng.randrange(0, 8)
        M = moore_matrix(F256, v, rows + shift)[shift:]
        assert matrix_rank(F256, M) == rows


def test_vector_rank(F256, wso256):
    assert vector_rank(F256, (0,) * 8) == 0
    assert vector_rank(F256, wso256) == 8
    rng = random.Random(17)
    beta = 173
    c = 1  # scalar from F_2
    assert vector_rank(F256, (beta, F256._mul(c, beta))) == 1
    # rank preservation through the expansion map on 1000 random vectors
    for _ in range(1000):
        a = tuple(F256.rand_elem(rng) for _ in range(8))
        assert vector_rank(F256, a) == matrix_rank(
            F256, coords(F256, wso256, a))


def _digit_rank(ctx, xs):
    """Rank of the F_q matrix whose rows are the base-q digits of xs."""
    q = ctx.q
    return fq_matrix_rank(ctx, [[x // q ** c % q for c in range(ctx.n)]
                                for x in xs])


@pytest.mark.parametrize("q,n", [(2, 8), (2, 16), (3, 4), (4, 3), (9, 2)])
def test_packed_fq_rank_matches_oracle(q, n):
    # fq_rank eliminates F_{q^n} elements as rows of their base-q digits;
    # the sets mix every lead-digit boundary q^c - 1 and q^c below q^n with
    # random elements and spans of a few, then add zero, a repeat and an
    # F_q multiple, none of which may change the rank
    ctx = make_field(q, n)
    rng = random.Random(q * 1000 + n)
    edges = sorted({q ** c - 1 for c in range(1, n + 1)}
                   | {q ** c for c in range(n)})
    assert fq_rank(ctx, []) == fq_rank(ctx, [0, 0]) == 0
    assert all(fq_rank(ctx, [x]) == 1 for x in edges)
    assert fq_rank(ctx, edges) == _digit_rank(ctx, edges) == n
    ranks = set()
    for _ in range(300):
        if rng.randrange(2):
            xs = [rng.choice(edges) if rng.randrange(2) else ctx.rand_elem(rng)
                  for _ in range(rng.randrange(1, n + 3))]
        else:
            gens = [ctx.rand_elem(rng) for _ in range(rng.randrange(1, n))]
            xs = []
            for _ in range(rng.randrange(1, n + 3)):
                x = 0
                for g in gens:
                    x = ctx._add(x, ctx._mul(rng.randrange(q), g))
                xs.append(x)
        r = _digit_rank(ctx, xs)
        assert fq_rank(ctx, xs) == r
        ys = xs + [0, rng.choice(xs), ctx._mul(rng.randrange(1, q),
                                               rng.choice(xs))]
        rng.shuffle(ys)
        assert fq_rank(ctx, ys) == r
        ranks.add(r)
    # the sets reach every rank at small n and most ranks at n >= 8
    assert ranks == set(range(n + 1)) if n < 8 else len(ranks) > n // 2


def test_kernel_edge_cases(F4):
    assert kernel(F4, [[1, 0], [0, 1]]) == []
    z = [[0, 0, 0], [0, 0, 0]]
    basis = kernel(F4, z)
    assert len(basis) == 3


def test_kernel_planted_vector(F256, F9):
    rng = random.Random(18)
    for ctx in (F256, F9):
        for _ in range(30):
            rows, cols = 3, 5
            M = [[ctx.rand_elem(rng) for _ in range(cols)] for _ in range(rows)]
            v = [ctx.rand_elem(rng) for _ in range(cols)]
            # plant: replace last column so that M v = 0 given v[-1] = 1
            v[-1] = 1
            for row in M:
                acc = 0
                for x, c in zip(row[:-1], v[:-1]):
                    acc = ctx._add(acc, ctx._mul(x, c))
                row[-1] = ctx._sub(0, acc)
            basis = kernel(ctx, M)
            assert basis
            # v must be in the span: rank unchanged after appending v
            assert matrix_rank(ctx, basis + [v]) == len(basis)


def test_solve_and_inconsistency(F4, F256):
    assert solve(F4, [[1, 0], [0, 1], [1, 1]], [1, 0, 1]) == [1, 0]
    assert solve(F4, [[1, 0], [0, 1], [1, 1]], [1, 0, 0]) is None
    rng = random.Random(19)
    for _ in range(30):
        M = [[F256.rand_elem(rng) for _ in range(3)] for _ in range(5)]
        x0 = [F256.rand_elem(rng) for _ in range(3)]
        rhs = []
        for row in M:
            acc = 0
            for a, b in zip(row, x0):
                acc = F256._add(acc, F256._mul(a, b))
            rhs.append(acc)
        sol = solve(F256, M, rhs)
        # returned solution satisfies the system exactly
        for row, b in zip(M, rhs):
            acc = 0
            for a, xx in zip(row, sol):
                acc = F256._add(acc, F256._mul(a, xx))
            assert acc == b


@pytest.mark.parametrize("q, n", [(2, 8), (3, 5)])
def test_out_of_range_vector_entries_rejected(q, n):
    ctx = make_field(q, n)
    order = q ** n
    range_msg = rf"vector entries must lie in \[0, q\^n\) = \[0, {order}\)"
    for bad in (order, -1, order ** 2):
        a = (bad,) + (0,) * (n - 1)
        for fn in (lambda v: vector_rank(ctx, v),
                   lambda v: moore_matrix(ctx, v, 2)):
            with pytest.raises(ValueError, match=range_msg):
                fn(a)
    assert vector_rank(ctx, ()) == 0


def test_kernel_vectors_satisfy_system_odd_char(F9):
    rng = random.Random(20)
    for _ in range(30):
        M = [[rng.randrange(3) for _ in range(4)] for _ in range(2)]
        for v in kernel(F9, M):
            for row in M:
                acc = 0
                for c, x in zip(row, v):
                    acc = F9._add(acc, F9._mul(c, x))
                assert acc == 0


def test_matmul_helpers(F4):
    A = [[1, 0], [1, 1]]
    B = [[1, 1], [0, 1]]
    assert fq_matmul(F4, A, B) == [[1, 1], [1, 0]]
    v = (2, 3)
    assert fqn_vecmat(F4, v, [[1], [1]]) == (F4._add(2, 3),)


@pytest.mark.parametrize("q, n", [(2, 8), (3, 4), (4, 3), (9, 2)])
def test_products_match_schoolbook(q, n):
    # the log-domain product, which skips zero entries, against one ctx._add
    # and ctx._mul per term: zero entries, a zero vector entry over a nonzero
    # row, a zero row under a nonzero entry, and shapes with no rows or no
    # columns, for F_{q^n} vectors and F_q matrices
    ctx = make_field(q, n)
    rng = random.Random(q * 100 + n)

    def matrix(rows, cols, top):
        M = [[rng.randrange(1, top) if rng.randrange(3) else 0
              for _ in range(cols)] for _ in range(rows)]
        if rows >= 2 and cols:
            M[0][0], M[1] = rng.randrange(1, top), [0] * cols
        return M

    for rows, cols in ((0, 0), (2, 0), (1, 1), (2, 3), (4, 5), (6, 2)):
        for _ in range(20):
            v = matrix(1, rows, ctx.order)[0]
            if rows >= 2:
                v[0], v[1] = 0, rng.randrange(1, ctx.order)
            M = matrix(rows, cols, ctx.order)
            assert fqn_vecmat(ctx, v, M) == tuple(matmul(ctx, [v], M)[0])
            for r in (1, 3):
                A = matrix(r, rows, q)
                B = matrix(rows, cols, q)
                assert fq_matmul(ctx, A, B) == matmul(ctx, A, B)
    assert fqn_vecmat(ctx, [], []) == ()
    assert fq_matmul(ctx, [], []) == []
    assert fq_matmul(ctx, [[], []], []) == [[], []]
    assert fq_matmul(ctx, [[1, 0, 1]], [[], [], []]) == [[]]


@pytest.mark.parametrize("q, n", [(2, 8), (3, 7), (4, 4), (9, 3)])
def test_moore_rows_of_a_product_are_the_product_of_moore_rows(q, n):
    # M(aP) = M(a) P for P over F_q, as Frobenius fixes F_q: scenario 2
    # ranks the Moore rows of a and aQ for M(a) and M(a) Q.  A P
    # with one entry outside F_q breaks it, so the check can fail.
    ctx = make_field(q, n)
    rng = random.Random(q * 1000 + n)
    broken = 0
    for _ in range(40):
        t, s = rng.randrange(1, 5), rng.randrange(1, 5)
        a = [ctx.rand_elem(rng) for _ in range(t)]
        P = [[rng.randrange(q) for _ in range(s)] for _ in range(t)]
        for r in (1, rng.randrange(1, n + 1), n):
            assert moore_matrix(ctx, fqn_vecmat(ctx, a, P), r) == matmul(
                ctx, moore_matrix(ctx, a, r), P)
        if any(a):
            P[rng.randrange(t)][0] = rng.randrange(q, ctx.order)
            broken += moore_matrix(ctx, fqn_vecmat(ctx, a, P), n) != matmul(
                ctx, moore_matrix(ctx, a, n), P)
    assert broken > 0


def test_fq_matmul_rejects_mismatched_shapes():
    F16 = make_field(2, 4)
    eye = [[1, 0], [0, 1]]
    with pytest.raises(ValueError, match="cannot multiply 2x1 by 2x2 "
                                         "matrices"):
        fq_matmul(F16, [[1], [1]], eye)
    for A, B in ((eye, [[1, 0], [0]]), ([[1, 0], [1]], eye)):
        with pytest.raises(ValueError, match=r"matrix rows have unequal "
                                             r"lengths \[1, 2\]"):
            fq_matmul(F16, A, B)
    assert fq_matmul(F16, [[1, 1]], [[1], [1]]) == [[0]]


def test_non_integer_entries_get_a_clear_error():
    # decode raised "unsupported operand type(s) for &" from
    # the packed twist map, and encode "list indices must be integers";
    # ints and bools pass
    F16 = make_field(2, 4)
    code = GabidulinCode(F16, 1)
    cases = [
        ("word", lambda: decode(code, (1.0, 0, 0, 0))),
        ("message", lambda: code.encode([1.5])),
        ("vector", lambda: vector_rank(F16, (2, 0.5))),
        ("basis", lambda: phi_inv(F16, [[1, 0, 0, 0]] * 4, (1, 2, 4, 8.0))),
        ("matrix", lambda: fq_matmul(F16, [[1, 0]], [[1], [0.0]])),
    ]
    for what, call in cases:
        with pytest.raises(ValueError, match=f"{what} entries must be "
                                             f"integers"):
            call()
    assert decode(code, (True, 0, 0, 0)) == decode(code, (1, 0, 0, 0))
    assert code.encode([True]) == code.encode([1])
    assert fq_matmul(F16, [[False, True]], [[1], [1]]) == [[1]]


@pytest.mark.parametrize("q, n", [(2, 4), (3, 3)])
def test_index_only_entries_compute_as_their_ints(q, n):
    # a truthy Index(0) once passed "if a:" and read log[0] = -1: fq_matmul
    # gave [[12]] at (2, 4) and encode (1, 14, 8, 11); decode,
    # syndromes and vector_rank raised a bare TypeError, as did the counts,
    # failure_bound and crypto_row, which read n, t, q or lambda and then
    # computed on the raw objects.  fq_rank is left out: it is the
    # unchecked core that the samplers call per attempt, counted there as
    # sampler attempts by bench/tracer.py
    ctx = make_field(q, n)
    basis = find_wso_basis(ctx)
    k = 1
    code = GabidulinCode(ctx, k, basis)
    icode = GabidulinCode(ctx, k, map(Index, basis))
    rng = random.Random(q * n)
    y = [0, ctx.order - 1] + [ctx.rand_elem(rng) for _ in range(n - 2)]
    z = [0] * n
    A = [[rng.randrange(q) for _ in range(n)] for _ in range(n)]
    A[0][0] = 0
    alpha = list(basis)
    calls = [
        lambda f, c: c.encode(f([0] * k)),
        lambda f, c: c.encode(f(y[:k])),
        lambda f, c: c.syndromes(f(y)),
        lambda f, c: decode(c, f(y)),
        lambda f, c: decode(c, f(z)),
        lambda f, c: interleaved_decode(c, f(y), f(z)),
        lambda f, c: moore_matrix(ctx, f([0, 3]), 2),
        lambda f, c: vector_rank(ctx, f(y)),
        lambda f, c: phi_inv(ctx, [f(r) for r in A], f(alpha)),
        lambda f, c: phi_inv(ctx, [f(z)] * n, alpha),
        lambda f, c: fq_matmul(ctx, [f([0])], [f([1])]),
        lambda f, c: fq_matmul(ctx, [f(r) for r in A], A),
        lambda f, c: is_weak_self_orthogonal(ctx, f(alpha)),
        lambda f, c: sample_space_symmetric(ctx, f(alpha), 2,
                                            random.Random(7)),
        lambda f, c: count_rank(*f([n, 2, q])),
        lambda f, c: gaussian_binomial(*f([n]), 2, q),
        lambda f, c: count_space_symmetric(n, 2, *f([q])),
        lambda f, c: count_symmetric(*f([n]), 2, q),
        lambda f, c: wf_error("sym", *f([20]), 3, q),
        lambda f, c: failure_bound(*f([q]), n),
        lambda f, c: crypto_row(*f([128]), "sp-sym", *f([58, 29, 3])),
    ]

    def index_only(v):
        return [Index(x) for x in v]

    for i, call in enumerate(calls):
        want = call(list, code)
        assert repr(call(index_only, icode)) == repr(want), i
        assert repr(call(index_only, code)) == repr(want), i
    assert icode.alpha == code.alpha and icode._G == code._G
    # the code keeps the locators it read, in ints
    assert repr(icode.alpha) == repr(basis)


def _random_test_matrix(ctx, rng):
    """Random matrix of a random shape, often rank-deficient, with zero
    columns or sparse."""
    rows, cols = rng.randrange(1, 8), rng.randrange(1, 8)
    density = rng.choice((1.0, 0.5, 0.2))
    M = [[ctx.rand_elem(rng) if rng.random() < density else 0
          for _ in range(cols)] for _ in range(rows)]
    kind = rng.randrange(4)
    if kind == 1:  # a zero column
        j = rng.randrange(cols)
        for row in M:
            row[j] = 0
    elif kind == 2 and rows > 1:  # later rows combine the first one or two
        r0 = rng.randrange(1, rows)
        for i in range(r0, rows):
            a, b = ctx.rand_elem(rng), ctx.rand_elem(rng)
            M[i] = [ctx._add(ctx._mul(a, x), ctx._mul(b, y))
                    for x, y in zip(M[0], M[min(1, r0 - 1)])]
    elif kind == 3:  # entries from the base field only
        M = [[x % ctx.q for x in row] for row in M]
    return M


def _echelon(ctx, M):
    """Pivot columns and full rows of the library's echelon basis of M."""
    basis = {}
    _insert_rows(ctx, basis, [list(r) for r in M])
    rows = []
    for c in sorted(basis):
        row = [0] * len(M[0])
        row[c] = 1
        for j, lb in basis[c]:
            row[j] = ctx._exp[lb]
        rows.append(row)
    return sorted(basis), rows


@pytest.mark.parametrize("q,n", [(2, 8), (3, 4), (4, 3)])
def test_insert_rows_in_two_batches_matches_one_call(q, n):
    # the countdown inserts each trial's rows into the basis the trials
    # above left: two batches must give the one-call basis, its pivot order
    # and its stored pairs, also past a zero row and a repeated row
    ctx = make_field(q, n)
    rng = random.Random(q * 1000 + n)
    for _ in range(200):
        M = _random_test_matrix(ctx, rng)
        M.insert(rng.randrange(len(M) + 1), [0] * len(M[0]))
        M.insert(rng.randrange(1, len(M) + 1), list(rng.choice(M)))
        whole = {}
        _insert_rows(ctx, whole, [list(r) for r in M])
        cut = rng.randrange(len(M) + 1)
        split = {}
        _insert_rows(ctx, split, [list(r) for r in M[:cut]])
        _insert_rows(ctx, split, [list(r) for r in M[cut:]])
        assert list(split.items()) == list(whole.items())
        assert len(whole) <= len(M) - 2  # neither added row is a pivot


@pytest.mark.parametrize("q,n", [(2, 8), (2, 16), (3, 4), (4, 3), (9, 2)])
def test_tabled_elimination_matches_generic(q, n):
    # the generic elimination fed the field's ops is the oracle: the echelon
    # basis has the pivots of rref and, reduced, its rows
    ctx = make_field(q, n)
    ops = (ctx._add, ctx._sub, ctx._mul, ctx._inv)
    fq_add, _, fq_mul, _ = fq_ops = base_ops(ctx)
    rng = random.Random(q * 100 + n)
    frng = random.Random(-(q * 100 + n))  # right factors of the F_q products

    def check(M, cols):
        rows, pivots = rref(*ops, M, cols)
        ech_pivots, ech_rows = _echelon(ctx, M)
        assert ech_pivots == pivots
        assert rref(*ops, ech_rows, cols)[0] == rows[:len(pivots)]
        return pivots

    inconsistent = base_checked = 0
    for _ in range(300):
        M = _random_test_matrix(ctx, rng)
        cols = len(M[0])
        pivots = check(M, cols)
        assert matrix_rank(ctx, M) == len(pivots)
        if max(map(max, M)) < q:  # F_q entries, every kind 3 among them
            # the F_q family runs on the F_{q^n} tables; the ops of F_q
            # alone must give the same pivots and product
            base_pivots = rref(*fq_ops, M, cols)[1]
            assert _echelon(ctx, M)[0] == base_pivots
            if cols <= n:  # rows of at most n F_q entries, packed
                assert fq_rank(ctx, [ctx.from_coeffs(row + [0] * (n - cols))
                                     for row in M]) == len(base_pivots)
            else:
                assert matrix_rank(ctx, M) == len(base_pivots)
            k = frng.randrange(1, 8)
            N = [[frng.randrange(q) for _ in range(k)] for _ in range(cols)]
            prod = [[0] * k for _ in M]
            for prow, row in zip(prod, M):
                for a, nrow in zip(row, N):
                    for j, b in enumerate(nrow):
                        prow[j] = fq_add(prow[j], fq_mul(a, b))
            assert fq_matmul(ctx, M, N) == prod
            base_checked += 1
        # half the right-hand sides come from a solution, half are random
        if rng.randrange(2):
            x0 = [ctx.rand_elem(rng) for _ in range(cols)]
            rhs = [0] * len(M)
            for i, row in enumerate(M):
                for a, b in zip(row, x0):
                    rhs[i] = ctx._add(rhs[i], ctx._mul(a, b))
        else:
            rhs = [ctx.rand_elem(rng) for _ in M]
        aug_pivots = check([row + [b] for row, b in zip(M, rhs)], cols + 1)
        if aug_pivots and aug_pivots[-1] == cols:
            inconsistent += 1
    assert 0 < inconsistent < 300
    assert base_checked >= 50


@pytest.mark.parametrize("q, n", [(2, 8), (3, 4), (4, 3), (5, 3), (9, 2),
                                  (3, 7), (101, 2)])
def test_coords_match_inverse_matrix_product(q, n):
    ctx = make_field(q, n)
    rng = random.Random(q * 100 + n)
    while True:
        alpha = [ctx.rand_elem(rng) for _ in range(n)]
        B = transpose([ctx.coeffs(a) for a in alpha])
        if matrix_rank(ctx, B) == n:
            break
    aug = [row + [int(i == j) for j in range(n)] for i, row in enumerate(B)]
    rows, _ = rref(*base_ops(ctx), aug, 2 * n)
    inv = [row[n:] for row in rows]
    assert fq_matmul(ctx, B, inv) == [[int(i == j) for j in range(n)]
                                      for i in range(n)]
    xs = (list(range(ctx.order)) if ctx.order <= 1 << 12
          else [ctx.rand_elem(rng) for _ in range(3000)])
    xs += [0] * (-len(xs) % n)
    expected = fq_matmul(ctx, inv, transpose([ctx.coeffs(x) for x in xs]))
    assert coords(ctx, alpha, xs) == expected
