import random

import pytest

from rankmetric import lin_normalize, make_field, vector_rank

from oracles import kernel, lin_compose_mod, lin_eval, lin_qdeg, \
    min_subspace_poly, root_space_basis


def _full_compose(ctx, outer, inner):
    """Untruncated composition by expanding outer term by term: a separate
    code path from the production mod-truncated loop."""
    acc = [0] * (len(outer) + len(inner))
    for j, c in enumerate(outer):
        if c == 0:
            continue
        # c * (inner(x))^[j]: coefficients of inner frobenius'd by j, shifted
        for i, v in enumerate(inner):
            acc[i + j] = ctx.add(acc[i + j], ctx.mul(c, ctx.frob(v, j)))
    return lin_normalize(acc)


def test_normalize_and_qdeg():
    assert lin_normalize((0, 1, 0, 0)) == (0, 1)
    assert lin_normalize(()) == ()
    assert lin_qdeg(()) == -1
    assert lin_qdeg((5,)) == 0


def test_lin_eval_examples(F4, F256):
    rng = random.Random(21)
    f = (0, 1)  # x^[1]
    assert lin_eval(F4, f, 2) == 3
    for _ in range(50):
        g = tuple(F256.rand_elem(rng) for _ in range(4))
        assert lin_eval(F256, g, 0) == 0
        a, b = F256.rand_elem(rng), F256.rand_elem(rng)
        assert lin_eval(F256, g, F256.add(a, b)) == F256.add(
            lin_eval(F256, g, a), lin_eval(F256, g, b))


def test_compose_mod_truncations(F256):
    rng = random.Random(22)
    s = tuple(F256.rand_elem(rng) for _ in range(6))
    assert lin_compose_mod(F256, (1,), s, 4) == lin_normalize(s[:4])
    outer = tuple(F256.rand_elem(rng) for _ in range(5))
    assert lin_compose_mod(F256, outer, (1,), 3) == lin_normalize(outer[:3])
    with pytest.raises(ValueError):
        lin_compose_mod(F256, outer, s, 0)


def test_compose_mod_against_full_expansion(F256):
    rng = random.Random(23)
    for _ in range(100):
        outer = tuple(F256.rand_elem(rng)
                      for _ in range(rng.randrange(1, 5)))
        inner = tuple(F256.rand_elem(rng)
                      for _ in range(rng.randrange(1, 6)))
        d = rng.randrange(1, 7)
        full = _full_compose(F256, outer, inner)
        assert lin_compose_mod(F256, outer, inner, d) == lin_normalize(full[:d])


def test_compose_mod_coefficient_formula(F256):
    rng = random.Random(24)
    for _ in range(100):
        t = rng.randrange(1, 5)
        gamma = tuple(F256.rand_elem(rng) for _ in range(t + 1))
        s = tuple(F256.rand_elem(rng) for _ in range(6))
        got = lin_compose_mod(F256, gamma, s, 6)
        got = got + (0,) * (6 - len(got))
        for p in range(6):
            acc = 0
            for j in range(min(p, t) + 1):
                acc = F256.add(acc, F256.mul(gamma[j], F256.frob(s[p - j], j)))
            assert got[p] == acc


def test_min_subspace_poly_base_cases(F4, F9):
    assert min_subspace_poly(F4, []) == (1,)
    a = 2
    assert min_subspace_poly(F4, [a]) == (a, 1)  # x^[1] + a x over F_2
    # odd characteristic: x^q - a^(q-1) x
    b = 5
    got = min_subspace_poly(F9, [b])
    assert got == (F9.neg(F9.mul(b, b)), 1)


def test_min_subspace_poly_properties(F256):
    rng = random.Random(25)
    for _ in range(100):
        gens = [F256.rand_elem(rng) for _ in range(rng.randrange(0, 6))]
        # throw in a redundant combination to exercise dependent skipping
        if len(gens) >= 2:
            gens.append(F256.add(gens[0], gens[1]))
        f = min_subspace_poly(F256, gens)
        dim = vector_rank(F256, tuple(gens)) if gens else 0
        assert lin_qdeg(f) == dim
        assert f[-1] == 1  # monic
        for g in gens:
            assert lin_eval(F256, f, g) == 0


def test_root_space_basis(F4, F256):
    assert root_space_basis(F256, (1,)) == []  # f = x has trivial root space
    # x^[1] - x vanishes exactly on F_q
    f = (F256.sub(0, 1), 1)
    roots = root_space_basis(F256, f)
    assert roots == [1]
    with pytest.raises(ValueError):
        root_space_basis(F4, (0,))


def test_root_space_roundtrip(F256):
    rng = random.Random(26)
    for _ in range(100):
        target = rng.randrange(0, 6)
        gens = []
        while vector_rank(F256, tuple(gens)) < target:
            gens.append(F256.rand_elem(rng))
        f = min_subspace_poly(F256, gens)
        roots = root_space_basis(F256, f)
        assert len(roots) == target
        assert vector_rank(F256, tuple(roots)) == target  # independent
        for r in roots:
            assert lin_eval(F256, f, r) == 0
        # same span as the generators
        assert vector_rank(F256, tuple(gens) + tuple(roots)) == target


def test_root_space_count_bounded_by_qdeg(F256):
    rng = random.Random(27)
    for _ in range(50):
        f = lin_normalize(tuple(F256.rand_elem(rng) for _ in range(4)))
        if not f:
            continue
        assert len(root_space_basis(F256, f)) <= lin_qdeg(f)


def _root_space_by_kernel(ctx, f):
    """Root space through the matrix of f on polynomial-basis coordinates
    and kernel, each kernel vector packed back into an element."""
    n, q = ctx.n, ctx.q
    cols = [ctx.coeffs(lin_eval(ctx, f, q ** j)) for j in range(n)]
    M = [[cols[j][i] for j in range(n)] for i in range(n)]
    return [sum(v * q ** j for j, v in enumerate(vec))
            for vec in kernel(ctx, M)]


@pytest.mark.parametrize("n", [3, 8, 9])
def test_gf2_root_space_matches_fq_kernel_construction(n):
    ctx = make_field(2, n)
    rng = random.Random(n)
    for _ in range(100):
        f = lin_normalize(ctx.rand_elem(rng)
                          for _ in range(rng.randrange(1, n + 1)))
        if f:
            assert root_space_basis(ctx, f) == _root_space_by_kernel(ctx, f)
        gens = [ctx.rand_elem(rng) for _ in range(rng.randrange(1, n))]
        g = min_subspace_poly(ctx, gens)
        assert root_space_basis(ctx, g) == _root_space_by_kernel(ctx, g)


@pytest.mark.parametrize("q,n", [(3, 4), (3, 7), (4, 3), (9, 2)])
def test_root_space_matches_fq_kernel_construction(q, n):
    ctx = make_field(q, n)
    rng = random.Random(q * 100 + n)
    for _ in range(100):
        f = lin_normalize(ctx.rand_elem(rng)
                          for _ in range(rng.randrange(1, n + 1)))
        if f:
            assert root_space_basis(ctx, f) == _root_space_by_kernel(ctx, f)
        gens = [ctx.rand_elem(rng) for _ in range(rng.randrange(1, n))]
        g = min_subspace_poly(ctx, gens)
        assert root_space_basis(ctx, g) == _root_space_by_kernel(ctx, g)
