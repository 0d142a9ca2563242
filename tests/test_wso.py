import random

import pytest

from rankmetric import (find_wso_basis, is_weak_self_orthogonal, make_field,
                        wso)
from rankmetric.linalg import moore_matrix, vector_rank
from rankmetric.wso import _normal_scan

from oracles import matmul


def _moore_gram(ctx, alpha):
    M = moore_matrix(ctx, alpha, ctx.n)
    MT = [list(r) for r in zip(*M)]
    return matmul(ctx, M, MT)


def _method(ctx, alpha):
    """The construction a basis from find_wso_basis came from, read off the
    basis: the normal scan returns the Frobenius orbit of alpha_0, and the
    trace-orthonormal construction runs only where no WSO basis is one."""
    orbit = tuple(ctx._frob(alpha[0], i) for i in range(ctx.n))
    return "normal" if alpha == orbit else "trace-orthonormal"


def _gram_verdict(ctx, alpha):
    """What is_weak_self_orthogonal must return, read off the full product:
    (True, diag), (False, first nonzero off-diagonal in row-major order),
    or None for a non-basis."""
    n = ctx.n
    if vector_rank(ctx, alpha) < n:
        return None
    G = _moore_gram(ctx, alpha)
    where = next(((i, j) for i in range(n) for j in range(i + 1, n)
                  if G[i][j]), None)
    if where is not None:
        return False, where
    return True, tuple(G[i][i] for i in range(n))


@pytest.mark.parametrize("q,n", [(2, 3), (2, 4), (2, 5), (2, 6), (3, 2),
                                 (3, 3), (3, 4), (4, 2), (4, 3), (9, 2),
                                 (9, 3)])
def test_first_row_check_matches_full_gram(q, n):
    # the check reads S_0..S_floor(n/2) only; random alpha, the WSO basis,
    # its reversal and its scalings (still WSO, other diagonal) cover all
    # three verdicts against the full n^3 product
    ctx = make_field(q, n)
    rng = random.Random(100 * q + n)
    alpha = find_wso_basis(ctx)
    cases = [alpha, alpha[::-1]]
    for _ in range(20):
        c = rng.randrange(1, ctx.order)
        cases.append(tuple(ctx._mul(c, a) for a in alpha))
    cases += [tuple(rng.randrange(ctx.order) for _ in range(n))
              for _ in range(300)]
    seen = set()
    for alpha in cases:
        want = _gram_verdict(ctx, alpha)
        seen.add(want and want[0])
        if want is None:
            with pytest.raises(ValueError, match="not a basis"):
                is_weak_self_orthogonal(ctx, alpha)
        else:
            assert is_weak_self_orthogonal(ctx, alpha) == want, alpha
    assert seen == {None, False, True}


def test_f4_verification_examples(F4):
    ok, diag = is_weak_self_orthogonal(F4, (2, 3))
    assert ok and diag == (1, 1)


def test_every_f4_basis_is_wso(F4):
    # the single off-diagonal condition over F_4 reads a0^3 + a1^3 = 0,
    # and cubes of nonzero elements are all 1, so every basis qualifies
    import itertools
    for a, b in itertools.permutations(range(1, 4), 2):
        ok, diag = is_weak_self_orthogonal(F4, (a, b))
        assert ok and all(d != 0 for d in diag)


def test_polynomial_basis_of_f8_is_not_wso():
    F8 = make_field(2, 3)
    w = 2
    alpha = (1, w, F8._mul(w, w))
    ok, where = is_weak_self_orthogonal(F8, alpha)
    assert not ok
    assert where == (0, 1)  # 1 + w^3 + w^6 != 0


def test_non_basis_reported_distinctly(F4):
    with pytest.raises(ValueError, match="not a basis"):
        is_weak_self_orthogonal(F4, (2, 2))
    with pytest.raises(ValueError, match="not a basis"):
        is_weak_self_orthogonal(F4, (0, 2))


def test_find_f4(F4):
    b = find_wso_basis(F4)
    assert b == (2, 3)  # (z, z^2)
    assert is_weak_self_orthogonal(F4, b)[1] == (1, 1)
    assert _method(F4, b) == "normal"
    assert b[0] == 2


def test_find_f256_succeeds(F256):
    b = find_wso_basis(F256)
    ok, diag = is_weak_self_orthogonal(F256, b)
    assert ok
    assert all(d != 0 for d in diag)


@pytest.mark.parametrize("q,n,alpha", [
    (2, 8, (2, 17, 32, 59, 115, 125, 248, 255)),
    (3, 7, (1809, 1002, 328, 1974, 1442, 548, 237)),
    (2, 16, (2, 27920, 46902, 50792, 65266, 58281, 57491, 57659, 58845,
             58633, 60781, 60686, 60693, 60699, 60735, 60728)),
    (9, 3, (9, 182, 83)),
])
def test_basis_is_a_tuple_of_int_locators(q, n, alpha):
    # a basis is its locators and nothing more: the diagonal is read from
    # is_weak_self_orthogonal and a normal basis's generator is alpha_0
    b = find_wso_basis(make_field(q, n))
    assert type(b) is tuple and all(type(a) is int for a in b)
    assert b == alpha


def test_normal_scan_empty_when_four_divides_n():
    # for q = 2 a normal WSO basis forces the Moore Gram to be the identity,
    # i.e. a self-dual normal basis, which does not exist when 4 | n; the
    # construction must come from the fallback
    for n in (4, 8):
        ctx = make_field(2, n)
        b = find_wso_basis(ctx)
        assert _method(ctx, b) == "trace-orthonormal"
        assert is_weak_self_orthogonal(ctx, b)[1] == (1,) * n


def test_normal_scan_hits_for_odd_or_2mod4_n():
    # a self-dual normal basis exists in these fields, so the scan that
    # find_wso_basis runs there never comes up empty, at odd q and at
    # q = p^e with e > 1 too
    fields = [(2, n) for n in (2, 3, 5, 6, 7)] + [(3, 5), (3, 7), (5, 3),
                                                   (4, 5), (9, 3)]
    for q, n in fields:
        ctx = make_field(q, n)
        assert _method(ctx, find_wso_basis(ctx)) == "normal", (q, n)


def test_gram_is_fully_diagonal(F256):
    b = find_wso_basis(F256)
    G = _moore_gram(F256, b)
    diag = is_weak_self_orthogonal(F256, b)[1]
    for i in range(8):
        for j in range(8):
            if i != j:
                assert G[i][j] == 0
            else:
                assert G[i][j] == diag[i]


def test_determinism(F256):
    a = find_wso_basis(make_field(2, 8))
    b = find_wso_basis(make_field(2, 8))
    assert a == b


def test_odd_q_small_field():
    F9 = make_field(3, 2)
    b = find_wso_basis(F9)
    ok, diag = is_weak_self_orthogonal(F9, b)
    assert ok and all(d != 0 for d in diag)


def test_base_extension_field():
    # q = 4 (e = 2), n = 2: exercises the char-2 machinery over a non-prime
    # base field
    ctx = make_field(4, 2)
    b = find_wso_basis(ctx)
    ok, diag = is_weak_self_orthogonal(ctx, b)
    assert ok and all(d != 0 for d in diag)


@pytest.mark.parametrize("q,alpha", [(4, (12, 20, 200, 209)),
                                     (8, (8, 65, 513, 585))])
def test_trace_orthonormal_over_non_prime_base_field(q, alpha):
    # n = 4 has no normal WSO basis for these q, so the basis comes from the
    # characteristic-2 orthogonalization, whose rescaling needs a square
    # root in F_q (x^(q/2)) that is not the identity once e > 1
    ctx = make_field(q, 4)
    b = find_wso_basis(ctx)
    assert b == alpha
    assert _method(ctx, b) == "trace-orthonormal"
    assert is_weak_self_orthogonal(ctx, alpha) == (True, (1, 1, 1, 1))


def test_trivial_degree_one():
    ctx = make_field(2, 1)
    b = find_wso_basis(ctx)
    assert len(b) == 1 and b[0] != 0


def test_search_budget_guard():
    with pytest.raises(ValueError, match="budget"):
        make_field(2, 21)


def test_normal_trace_shortcut_agrees_with_full_check():
    # every normal-scan acceptance must survive the full n^2 product check;
    # verified here over a spread of parameters
    rng = random.Random(31)
    for q, n in ((2, 3), (2, 5), (2, 6), (3, 3), (5, 2)):
        ctx = make_field(q, n)
        b = find_wso_basis(ctx)
        ok, _ = is_weak_self_orthogonal(ctx, b)
        assert ok


SMALL_ODD_EVEN_N = [(3, 2), (3, 4), (3, 6), (5, 2), (5, 4), (7, 4), (9, 2),
                    (9, 4), (13, 2), (25, 2)]


def test_q2_with_4_dividing_n_skips_the_normal_scan():
    # a normal WSO basis exists exactly when n is odd or q is even and
    # n = 2 mod 4; everywhere else the scan provably finds nothing and
    # raises, so find_wso_basis goes straight to the trace-orthonormal
    # construction
    fields = SMALL_ODD_EVEN_N + [(2, 4), (2, 8), (4, 4), (8, 4), (2, 6),
                                 (4, 2), (3, 3), (5, 3)]
    for q, n in fields:
        ctx = make_field(q, n)
        scanned = n % 2 == 1 or (ctx.p == 2 and n % 4 == 2)
        assert wso._normal_exists(ctx) == scanned, (q, n)
        b = find_wso_basis(ctx)
        if scanned:
            assert _normal_scan(ctx) == b[0], (q, n)
        else:
            with pytest.raises(RuntimeError, match="normal-basis scan found "
                                                   "no WSO basis"):
                _normal_scan(ctx)
        method = "normal" if scanned else "trace-orthonormal"
        assert _method(ctx, b) == method, (q, n)
    expected = {
        8: (2, 17, 32, 59, 115, 125, 248, 255),
        12: (8, 139, 269, 455, 903, 1003, 2015, 2025, 4095, 4079, 4073, 4075),
    }
    for n, alpha in expected.items():
        ctx = make_field(2, n)
        b = find_wso_basis(ctx)
        assert b == alpha and _method(ctx, b) == "trace-orthonormal"


@pytest.mark.parametrize("q,n", SMALL_ODD_EVEN_N)
def test_odd_q_even_n_is_constructed(q, n):
    # no normal WSO basis exists here; the construction orthogonalizes under
    # Tr(w x y) with w the primitive element
    ctx = make_field(q, n)
    b = find_wso_basis(ctx)
    assert _method(ctx, b) == "trace-orthonormal"
    ok, diag = is_weak_self_orthogonal(ctx, b)
    assert ok and all(d != 0 for d in diag)


@pytest.mark.parametrize("q,n,alpha,diag", [
    (3, 2, (5, 6), (5, 8)),
    (3, 4, (27, 7, 40, 44), (50, 12, 75, 11)),
])
def test_odd_q_constructed_basis_pins(q, n, alpha, diag):
    # the scenario-1 failure count at (3, 4, 1, 2) in test_decoder.py
    # depends on this basis
    ctx = make_field(q, n)
    b = find_wso_basis(ctx)
    assert (b, is_weak_self_orthogonal(ctx, b)[1]) == (alpha, diag)


def test_failed_verification_is_an_internal_fault(monkeypatch):
    # the polynomial basis of F_16 is not WSO; a construction that returned
    # it must surface as a RuntimeError, not as a domain error
    ctx = make_field(2, 4)
    assert not is_weak_self_orthogonal(ctx, (1, 2, 4, 8))[0]
    monkeypatch.setattr(wso, "_trace_orthonormal_basis",
                        lambda ctx: (1, 2, 4, 8))
    with pytest.raises(RuntimeError, match="trace-orthonormal basis failed "
                                           "verification"):
        find_wso_basis(ctx)
    # the scan's beta goes through the same check: 3 generates a normal
    # basis of F_32 that is not WSO
    ctx = make_field(2, 5)
    orbit = tuple(ctx._frob(3, i) for i in range(5))
    assert vector_rank(ctx, orbit) == 5
    assert not is_weak_self_orthogonal(ctx, orbit)[0]
    monkeypatch.setattr(wso, "_normal_scan", lambda ctx: 3)
    with pytest.raises(RuntimeError, match="normal basis failed "
                                           "verification"):
        find_wso_basis(ctx)
