import itertools
import random

import pytest

from rankmetric import (GabidulinCode, find_wso_basis, make_field,
                        moore_matrix, sample_space_symmetric, vector_rank)
from rankmetric.code import _radius
from rankmetric.field import _packed
from rankmetric.linalg import fq_matmul, fqn_vecmat

from field_digests import code_digest, table_digest
from oracles import code_matrices, matmul, packed_map_tables, \
    syndrome_against, transpose, transpose_vector


def test_f4_generator_and_parity(F4):
    code = GabidulinCode(F4, 1)
    G, H, Hhat = code_matrices(code)
    assert G == [[2, 3]]
    assert H == [[3, 2]]       # element-wise q-power of alpha
    assert Hhat == [[3, 2]]
    assert code.encode((1,)) == (2, 3)
    assert code.syndromes((2, 3)) == ((0,), (0,))


def test_k_range_validation(F256, wso256):
    with pytest.raises(ValueError):
        GabidulinCode(F256, 0, wso256)
    with pytest.raises(ValueError):
        GabidulinCode(F256, 8, wso256)
    with pytest.raises(ValueError, match="k 2.0 is not an integer"):
        GabidulinCode(F256, 2.0, wso256)
    # the one k-range check, and floor(2(n-k)/3), the decoder's first trial
    for k in (0, 8, -1):
        with pytest.raises(ValueError,
                           match=rf"need 1 <= k < n, got k={k}, n=8"):
            _radius(8, k)
    assert [_radius(8, k) for k in range(1, 8)] == [4, 4, 3, 2, 2, 1, 0]
    assert GabidulinCode(F256, 3, wso256)._tmax == 3


def test_non_wso_locators_rejected():
    F8 = make_field(2, 3)
    with pytest.raises(ValueError, match="not weak self-orthogonal"):
        GabidulinCode(F8, 1, (1, 2, 4))  # not WSO (see test_wso)


@pytest.mark.parametrize("q,n,k", [(2, 8, 2), (3, 7, 1), (4, 4, 2)])
def test_basis_is_any_iterable_of_locators(q, n, k):
    # a list, a generator and the default give one code: the same locators,
    # kept as a tuple of ints, and the same codewords
    ctx = make_field(q, n)
    alpha = find_wso_basis(ctx)
    codes = [GabidulinCode(ctx, k, list(alpha)),
             GabidulinCode(ctx, k, (a for a in alpha)),
             GabidulinCode(ctx, k)]
    rng = random.Random(q * n + k)
    u = [ctx.rand_elem(rng) for _ in range(k)]
    for code in codes:
        assert type(code.alpha) is tuple and code.alpha == alpha
        assert code.encode(u) == codes[0].encode(u)
        assert not hasattr(code, "basis")


def test_generator_parity_product_zero_across_parameters():
    rng = random.Random(41)
    for q, n in ((2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (2, 8),
                 (2, 9), (2, 10), (3, 2)):
        ctx = make_field(q, n)
        basis = find_wso_basis(ctx)
        for k in range(1, n):
            code = GabidulinCode(ctx, k, basis)
            # implied by the WSO check at construction, multiplied out here
            G, H, _ = code_matrices(code)
            GHt = matmul(ctx, G, transpose(H))
            assert not any(map(any, GHt))
            # spot-check a random codeword against both parity checks
            u = tuple(ctx.rand_elem(rng) for _ in range(k))
            c = code.encode(u)
            assert not any(syndrome_against(ctx, c, H))
            s1, s2 = code.syndromes(c)
            assert not any(s1) and not any(s2)


def test_generator_is_moore(code_8_2, F256):
    # the unit messages encode to the first k Moore rows
    M = moore_matrix(F256, code_8_2.alpha, 2)
    assert [code_8_2.encode(u) for u in ((1, 0), (0, 1))] == [
        tuple(row) for row in M]


def test_encode(code_8_2, F256):
    assert code_8_2.encode((0, 0)) == (0,) * 8
    rng = random.Random(42)
    u = tuple(F256.rand_elem(rng) for _ in range(2))
    v = tuple(F256.rand_elem(rng) for _ in range(2))
    uv = tuple(F256._add(a, b) for a, b in zip(u, v))
    cu, cv = code_8_2.encode(u), code_8_2.encode(v)
    assert code_8_2.encode(uv) == tuple(map(F256._add, cu, cv))
    with pytest.raises(ValueError):
        code_8_2.encode((1,))


def test_encode_k1_scalar_form(F4):
    code = GabidulinCode(F4, 1)
    u0 = 3
    assert code.encode((u0,)) == tuple(F4._mul(u0, a) for a in code.alpha)


def test_transposed_codeword_membership_random(code_8_2, F256):
    rng = random.Random(43)
    hhat = code_matrices(code_8_2)[2]
    for _ in range(1000):
        u = tuple(F256.rand_elem(rng) for _ in range(2))
        c = code_8_2.encode(u)
        chat = transpose_vector(F256, c, code_8_2.alpha)
        s = syndrome_against(F256, chat, hhat)
        assert not any(s)


def test_transposed_membership_exhaustive_4_2(code_4_2, F16):
    hhat = code_matrices(code_4_2)[2]
    for u0, u1 in itertools.product(range(16), repeat=2):
        c = code_4_2.encode((u0, u1))
        chat = transpose_vector(F16, c, code_4_2.alpha)
        assert not any(syndrome_against(F16, chat, hhat))


def test_mrd_minimum_distance_exhaustive_4_2(code_4_2, F16):
    best = None
    for u0, u1 in itertools.product(range(16), repeat=2):
        if u0 == u1 == 0:
            continue
        r = vector_rank(F16, code_4_2.encode((u0, u1)))
        best = r if best is None else min(best, r)
    assert best == 3  # n - k + 1


def test_syndromes_depend_only_on_error(code_8_2, F256):
    rng = random.Random(44)
    e = tuple(F256.rand_elem(rng) for _ in range(8))
    outs = []
    for _ in range(3):
        u = tuple(F256.rand_elem(rng) for _ in range(2))
        y = tuple(F256._add(a, b) for a, b in zip(code_8_2.encode(u), e))
        outs.append(code_8_2.syndromes(y))
    assert outs[0] == outs[1] == outs[2]


def test_nonzero_error_gives_nonzero_syndrome(code_8_2, F256):
    rng = random.Random(45)
    for _ in range(100):
        err = sample_space_symmetric(F256, code_8_2.alpha, 1, rng)
        u = tuple(F256.rand_elem(rng) for _ in range(2))
        y = tuple(F256._add(a, b) for a, b in zip(code_8_2.encode(u), err.e))
        assert any(code_8_2.syndromes(y)[1])


def test_syndrome_matches_support_decomposition(code_8_2, F256):
    """Ordinary syndrome equals sum_l a_l bhat_l^(q^(k+j)) with bhat the
    basis combination of the inner factor's rows."""
    rng = random.Random(46)
    alpha = code_8_2.alpha
    k = code_8_2.k
    for _ in range(50):
        t = rng.randrange(1, 5)
        err = sample_space_symmetric(F256, alpha, t, rng)
        a = fqn_vecmat(F256, alpha, err.A)
        # B = P A^T, bhat = alpha B^T
        B = fq_matmul(F256, err.P, transpose(err.A))
        bhat = fqn_vecmat(F256, alpha, transpose(B))
        s2 = code_8_2.syndromes(err.e)[1]
        for j in range(8 - k):
            acc = 0
            for l in range(t):
                acc = F256._add(acc, F256._mul(
                    a[l], F256._frob(bhat[l], k + j)))
            assert s2[j] == acc


@pytest.mark.parametrize("q,n,k", [(2, 8, 2), (2, 16, 4), (3, 7, 1),
                                   (4, 4, 1), (9, 3, 1), (7, 3, 1)])
def test_syndrome_map_matches_transposed_products(q, n, k):
    ctx = make_field(q, n)
    code = GabidulinCode(ctx, k)
    _, H, Hhat = code_matrices(code)
    hhat_t, h_t = transpose(Hhat), transpose(H)
    rng = random.Random(n)
    for _ in range(200):
        y = tuple(ctx.rand_elem(rng) for _ in range(n))
        yhat = transpose_vector(ctx, y, code.alpha)
        assert code.syndromes(y) == (tuple(matmul(ctx, [yhat], hhat_t)[0]),
                                     tuple(matmul(ctx, [y], h_t)[0]))
        # the closed forms: s1_r = sum_j alpha_j y_j^(q^(r+1)), the twist
        # of the reversed ordinary syndrome s2_(n-k-1-r)^(q^(r+1))
        s1, s2 = code.syndromes(y)
        for r in range(n - k):
            direct = 0
            for aj, yj in zip(code.alpha, y):
                direct = ctx._add(direct, ctx._mul(aj, ctx._frob(yj, r + 1)))
            assert s1[r] == direct == ctx._frob(s2[n - k - 1 - r], r + 1)


@pytest.mark.parametrize("q,n,k", [(2, 6, 2), (2, 8, 2), (3, 7, 1),
                                   (3, 4, 2), (5, 3, 1), (4, 3, 1),
                                   (9, 3, 1)])
def test_twist_map_matches_direct_sums(q, n, k):
    # T_i = sum_j alpha_j y_j^(q^i) for i = 1..n straight from the packed
    # map, which reads each entry from its two half tables (n e = 7 and 3
    # leave a longer high half); the reader's twists of T must be y H^T
    # and y G^T
    ctx = make_field(q, n)
    code = GabidulinCode(ctx, k)
    G, H, _ = code_matrices(code)
    h_t, g_t = transpose(H), transpose(G)
    rng = random.Random(q * n)
    words = [tuple(ctx.rand_elem(rng) for _ in range(n)) for _ in range(200)]
    words += [(ctx.order - 1,) * n, (0,) * n]
    for y in words:
        direct = []
        for i in range(1, n + 1):
            acc = 0
            for aj, yj in zip(code.alpha, y):
                acc = ctx._add(acc, ctx._mul(aj, ctx._frob(yj, i)))
            direct.append(acc)
        assert code._twist_map(y) == tuple(direct)
        word, s1, s2, yg = code._read(y)
        assert word == y
        assert s1 == tuple(direct[:n - k])
        assert s2 == tuple(matmul(ctx, [y], h_t)[0])
        assert yg == tuple(matmul(ctx, [y], g_t)[0])


@pytest.mark.parametrize("q,n,k", [(3, 5, 1), (5, 4, 1), (7, 3, 1),
                                   (9, 3, 1), (3, 7, 1), (2, 8, 2),
                                   (2, 16, 4), (4, 4, 1), (8, 3, 1)])
def test_twist_map_tables_match_per_digit_packing(q, n, k):
    # the map spans each input's half tables, and at odd p spreads each
    # value's digits into slots through two more; the oracle packs one
    # digit at a time and sums by XOR at p = 2.  The images are
    # alpha_j (p^u)^(q^i) for i = 1..n, straight from mul and frob
    ctx = make_field(q, n)
    code = GabidulinCode(ctx, k)
    mul, frob = ctx._mul, ctx._frob
    images = [[[mul(aj, frob(ctx.p ** u, i)) for i in range(1, n + 1)]
               for u in range(n * ctx.e)] for aj in code.alpha]
    assert code._twist_map._table == packed_map_tables(ctx, images, n * ctx.e)


@pytest.mark.parametrize("q,n,k", [(2, 8, 2), (3, 7, 1), (4, 4, 1),
                                   (8, 3, 1), (9, 3, 1)])
def test_support_read_matches_product(q, n, k):
    # alpha A read off A's packed columns in the code's alpha table is the
    # product alpha A, for F_q matrices of every width up to n and any
    # rank; at q = 4, 8 and 9 each base-q digit spans e > 1 base-p units,
    # so a wrong digit order or a wrong unit image fails here
    ctx = make_field(q, n)
    code = GabidulinCode(ctx, k)
    rng = random.Random(q * n + 1)
    for width in range(n + 1):
        for _ in range(30):
            A = [[rng.randrange(q) for _ in range(width)] for _ in range(n)]
            cols = [_packed(q, col) for col in zip(*A)]
            assert code._support(cols) == fqn_vecmat(ctx, code.alpha, A)


# public digests (basis, G, H, Hhat) printed by tests/field_digests.py
# q,n,k at the commit before the twisted-trace map, so the bases and
# matrices are unchanged, and table digests of the packed map's half
# tables, computed from oracles.packed_map_tables and equal to what
# tests/field_digests.py prints; the ids name the shape alone, so a
# re-pin keeps them
@pytest.mark.parametrize("q, n, k, public, tables", [
    (2, 8, 2,
     "daa6f0f8c90a22378a0ad80e87da93798989cb1fb2257f748e181b4a606915bc",
     "cccdadf96a07a5df8375cfcc270f4c50e40dad4d8725f31ec6ff313d9e379049"),
    (2, 16, 4,
     "af54c28b4b20150a1631086a62f3f5bbb751cb58fbeadb0c38ae08600f776164",
     "67402b5bd678532f16c6a582388ad35e576ed6d7c7d6b45db51618f46a3fb649"),
    (3, 7, 1,
     "26b2b30f69fbf3025ce87038695a575ff595929b9d42d9def3b3aa0381986402",
     "3e8431bdd1b7fc206c520b908d47458a7b886fdd42906e4a16f10a5f7c4106d7"),
    (4, 4, 1,
     "aad231d94789f8fca4427289910aee32af699896ce2fd979f13af41672215b80",
     "1766f7fc1aff28863b699fccc392df69379c92dce2ebdeda44fa74a5b9fe568e"),
    (9, 3, 1,
     "88c32fb83ee08ba1dccffdc530f1b0afe2afd02b5a7dfc19c0e645b2590138c4",
     "d8508920b94d8a26cb80178c0020d83fbbccab02fa838adb430ab56891bbd6f9"),
], ids=["2-8-2", "2-16-4", "3-7-1", "4-4-1", "9-3-1"])
def test_code_tables_match_pinned_digests(q, n, k, public, tables):
    ctx = make_field(q, n)
    code = GabidulinCode(ctx, k, find_wso_basis(ctx))
    assert (code_digest(code), table_digest(code)) == (public, tables)


@pytest.mark.parametrize("q,n,k", [(2, 8, 2), (3, 5, 1)])
def test_out_of_range_entries_rejected(q, n, k):
    code = GabidulinCode(make_field(q, n), k)
    order = q ** n
    range_msg = rf"\[0, q\^n\) = \[0, {order}\)"
    for bad in (order, -1, order ** 2):
        word = (0,) * (n - 1) + (bad,)
        with pytest.raises(ValueError, match=range_msg):
            code.syndromes(word)
        with pytest.raises(ValueError, match=range_msg):
            code.encode((bad,) + (0,) * (k - 1))
