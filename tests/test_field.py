import itertools
import random

import pytest

from rankmetric import find_wso_basis, fq_matmul, gaussian_binomial, \
    make_field, phi_inv
from rankmetric.field import PRIME_TEST_LIMIT, _is_irreducible, \
    _prime_ops, _prime_power, _ScalarOps, _smallest_irreducible, _tabled

from field_digests import digest
from oracles import base_ops, digit_add, walk_tables


# -- independent oracle for the default F_2 modulus: trial division against
#    all lower-degree irreducibles, polynomials as bitmask ints (bit i = x^i).

def _gf2_polmul(a, b):
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def _gf2_polmod(a, b):
    db = b.bit_length()
    while a.bit_length() >= db:
        a ^= b << (a.bit_length() - db)
    return a


def _gf2_irreducibles_upto(maxdeg):
    irr = []
    for deg in range(1, maxdeg + 1):
        for low in range(1 << deg):
            f = (1 << deg) | low
            if all(_gf2_polmod(f, g) != 0
                   for g in irr if g.bit_length() - 1 <= deg // 2):
                irr.append(f)
    return irr


def _is_irreducible_gf2(f, irr):
    deg = f.bit_length() - 1
    return all(_gf2_polmod(f, g) != 0
               for g in irr if 1 <= g.bit_length() - 1 <= deg // 2)


def _smallest_irreducible_gf2(n):
    """Scan in coefficient-tuple order (constant term first)."""
    irr = _gf2_irreducibles_upto(n // 2)
    for tup in itertools.product(range(2), repeat=n):
        f = (1 << n) | sum(c << i for i, c in enumerate(tup))
        if _is_irreducible_gf2(f, irr):
            return (tup + (1,))
    raise AssertionError("no irreducible found")


def test_default_modulus_f4():
    assert make_field(2, 2).modulus == (1, 1, 1)
    assert repr(make_field(2, 4)) \
        == "FieldCtx(q=2, n=4, modulus=(1, 0, 0, 1, 1))"


def test_default_modulus_f256_matches_trial_division_oracle():
    got = make_field(2, 8).modulus
    assert got == _smallest_irreducible_gf2(8)


def test_default_modulus_small_degrees_match_oracle():
    for n in range(2, 17):
        assert make_field(2, n).modulus == _smallest_irreducible_gf2(n)


def test_irreducibility_matches_trial_division_and_counts():
    # over F_2, every monic polynomial of degree 1..12 against trial
    # division; over F_3 and a tabled F_4, the counts of monic irreducibles
    # of degree d, (1/d) * sum over e | d of mu(d/e) q^e
    fo = _prime_ops(2)
    irr = _gf2_irreducibles_upto(6)
    found = 0
    for d in range(1, 13):
        for f in range(1 << d, 2 << d):
            coeffs = tuple(f >> i & 1 for i in range(d + 1))
            got = _is_irreducible(fo, coeffs)
            assert got == _is_irreducible_gf2(f, irr), coeffs
            found += got
    assert found == 747
    f3 = _prime_ops(3)
    f4 = _tabled(2, fo, (1, 1, 1))[0]
    for ops, want in ((f3, [3, 3, 8, 18, 48, 116]), (f4, [4, 6, 20, 60])):
        assert [sum(_is_irreducible(ops, rest + (1,)) for rest in
                    itertools.product(range(ops.q), repeat=d))
                for d in range(1, len(want) + 1)] == want


def test_reducible_modulus_rejected():
    with pytest.raises(ValueError, match="reducible"):
        make_field(2, 2, (1, 0, 1))  # z^2 + 1 = (z+1)^2
    # z^n: its Frobenius iterates reach zero, an empty operand of the
    # ring product at q = 3 and 4
    for q, n in itertools.product((2, 3, 4), (2, 3)):
        with pytest.raises(ValueError, match="reducible"):
            make_field(q, n, (0,) * n + (1,))


def test_degree_one_modulus_accepted():
    # every monic linear polynomial is irreducible
    for q, modulus in ((2, (0, 1)), (2, (1, 1)), (3, (2, 1)), (4, (3, 1))):
        ctx = make_field(q, 1, modulus)
        assert ctx.modulus == modulus
        assert all(ctx._mul(x, ctx._inv(x)) == 1 for x in range(1, q))


def test_wrong_degree_modulus_rejected():
    with pytest.raises(ValueError):
        make_field(2, 3, (1, 1, 1))


def test_non_monic_modulus_rejected():
    with pytest.raises(ValueError):
        make_field(3, 2, (1, 0, 2))


def test_non_integer_modulus_coefficient_rejected():
    # int() would truncate these to the irreducible (1, 1, 1) and (2, 2, 1)
    with pytest.raises(ValueError, match="modulus entries must be integers"):
        make_field(2, 2, (1.7, 1, 1))
    with pytest.raises(ValueError, match="modulus entries must be integers"):
        make_field(3, 2, (2.9, 2, 1))
    # the ':' text form is the CLI's (cli._field); the library takes ints
    with pytest.raises(ValueError, match="modulus entries must be integers"):
        make_field(2, 2, "1:1:1")
    # a supplied modulus is read as F_q entries
    with pytest.raises(ValueError, match=r"modulus entries must lie in "
                                         r"F_q = \[0, q\) = \[0, 2\)"):
        make_field(2, 2, (1, 2, 1))


def test_non_prime_power_rejected():
    for q in (1, 6, 12, 100):
        with pytest.raises(ValueError, match="prime power"):
            make_field(q, 2)
    with pytest.raises(ValueError, match=r"q 2\.0 is not an integer"):
        make_field(2.0, 4)
    with pytest.raises(ValueError, match=r"q 2\.0 is not an integer"):
        gaussian_binomial(3, 1, 2.0)
    with pytest.raises(ValueError, match=r"degree n 4\.0 is not an integer"):
        make_field(2, 4.0)
    for n in (0, -3):
        with pytest.raises(ValueError, match=f"n={n} must be >= 1"):
            make_field(2, n)


def _prime_power_by_trial_division(q):
    p = 2
    while p * p <= q and q % p:
        p += 1
    if q % p:
        p = q
    e, m = 0, q
    while m % p == 0:
        m //= p
        e += 1
    return (p, e) if m == 1 else None


def test_prime_power_matches_trial_division():
    for q in range(-1, 5000):
        try:
            got = _prime_power(q)
        except ValueError:
            got = None
        assert got == (_prime_power_by_trial_division(q) if q >= 2 else None)


def test_prime_power_large_inputs():
    m61 = 2 ** 61 - 1
    assert _prime_power(m61) == (m61, 1)
    assert _prime_power(m61 ** 3) == (m61, 3)
    assert _prime_power(3 ** 400) == (3, 400)
    with pytest.raises(ValueError, match="not a prime power"):
        _prime_power(m61 * 3)
    with pytest.raises(ValueError, match="not a prime power"):
        _prime_power((m61 * 3) ** 2)
    with pytest.raises(ValueError, match=str(PRIME_TEST_LIMIT)):
        _prime_power(2 ** 89 - 1)


def test_f4_multiplication_example(F4):
    z, z1 = 2, 3  # z and z+1
    assert F4._mul(z, z1) == 1


def test_inverse_roundtrip_all_small_fields(F4, F9, F256):
    for ctx in (F4, F9, F256):
        for x in range(1, ctx.order):
            assert ctx._mul(x, ctx._inv(x)) == 1


def test_inverse_of_zero_raises(F4):
    with pytest.raises(ZeroDivisionError):
        F4._inv(0)


def test_base_field_with_extension_exponent():
    ctx = make_field(4, 2)  # F_16 over F_4
    assert (ctx.p, ctx.e, ctx.q) == (2, 2, 4)
    for x in range(1, 16):
        assert ctx._mul(x, ctx._inv(x)) == 1
    # F_4 is the ints below q, under the field's own ops
    assert ctx._mul(2, 2) == 3  # z*z = z+1 in F_4


# -- independent oracle for base fields F_{p^e} with e > 1 and their
#    extensions: schoolbook products of digit lists, reduced by a monic
#    modulus, with all coefficient arithmetic written out here.

def _digits(x, base, length):
    return [x // base ** i % base for i in range(length)]


def _pack(ds, base):
    return sum(d * base ** i for i, d in enumerate(ds))


def _schoolbook(a, b, mod, add, sub, mul):
    """Product of coefficient lists a and b reduced modulo monic mod."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = add(prod[i + j], mul(x, y))
    d = len(mod) - 1
    for top in range(len(prod) - 1, d - 1, -1):
        c = prod[top]
        for i, m in enumerate(mod):
            prod[top - d + i] = sub(prod[top - d + i], mul(c, m))
    return prod[:d]


def _base_field_oracle(p, e):
    """add, sub, mul of F_{p^e} modulo the smallest irreducible of degree e.

    At degree 2 or 3 a polynomial is irreducible exactly when it has no root,
    and the scan runs over coefficient tuples constant term first.
    """
    mod = next(tup + (1,) for tup in itertools.product(range(p), repeat=e)
               if all(_pack(tup + (1,), r) % p for r in range(p)))

    def mul(a, b):
        return _pack(_schoolbook(
            _digits(a, p, e), _digits(b, p, e), mod,
            lambda x, y: (x + y) % p, lambda x, y: (x - y) % p,
            lambda x, y: x * y % p), p)

    return (lambda a, b: digit_add(p, a, b),
            lambda a, b: digit_add(p, a, b, -1), mul)


@pytest.mark.parametrize("p, e", [(2, 2), (2, 3), (3, 2)])
def test_base_field_extension_matches_schoolbook_oracle(p, e):
    q = p ** e
    ctx = make_field(q, 2)
    add, sub, mul = _base_field_oracle(p, e)
    for a in range(q):
        for b in range(q):
            assert ctx._mul(a, b) == mul(a, b)
    for a in range(ctx.order):
        for b in range(ctx.order):
            want = _schoolbook(_digits(a, q, 2), _digits(b, q, 2),
                               ctx.modulus, add, sub, mul)
            assert ctx._mul(a, b) == _pack(want, q)


@pytest.mark.parametrize("q, n, pairs", [
    (3, 1, None), (5, 1, None), (9, 1, None),
    (3, 2, None), (3, 4, None), (5, 2, None), (7, 2, None), (9, 2, None),
    (3, 7, 20000), (25, 2, 20000)])
def test_add_sub_neg_match_digitwise_oracle(q, n, pairs):
    # at odd p add and sub are one Zech-logarithm body, checked down to the
    # smallest L = 2 at (3, 1); None means all pairs
    ctx = make_field(q, n)
    p = ctx.p
    if pairs is None:
        grid = itertools.product(range(ctx.order), repeat=2)
    else:
        rng = random.Random(q * 100 + n)
        grid = [(rng.randrange(ctx.order), rng.randrange(ctx.order))
                for _ in range(pairs)]
    for a, b in grid:
        assert ctx._add(a, b) == digit_add(p, a, b)
        assert ctx._sub(a, b) == digit_add(p, a, b, -1)
    for a in range(ctx.order):
        assert ctx._sub(0, a) == digit_add(p, 0, a, -1)


@pytest.mark.parametrize("q", [9, 25, 27])
def test_base_add_sub_match_digitwise_oracle(q):
    # F_q's own ops and the subfield ops on the ints below q
    ctx = make_field(q, 2)
    for add, sub in (base_ops(ctx)[:2], (ctx._add, ctx._sub)):
        for a in range(q):
            for b in range(q):
                assert add(a, b) == digit_add(ctx.p, a, b)
                assert sub(a, b) == digit_add(ctx.p, a, b, -1)


def test_frobenius_examples(F4, F256):
    assert F4._frob(2, 1) == 3  # z^2 = z + 1
    rng = random.Random(1)
    for _ in range(50):
        x = F256.rand_elem(rng)
        assert F256._frob(x, 0) == x
        assert F256._frob(F256._frob(x, -3), 3) == x
        assert F256._frob(x, F256.n) == x
    # frob and linalg.fq_rank read one q-power table, the plain powers q^i,
    # which differ from their residues mod q^n - 1 only at F_2 with n = 1
    for q, n in ((2, 1), (2, 8), (3, 7), (4, 4), (9, 3)):
        ctx = make_field(q, n)
        assert ctx._qpow == [q ** i for i in range(n)]
        assert not hasattr(ctx, "_place")


def test_frobenius_additive_and_fq_linear(F9):
    add, mul, frob, rng = F9._add, F9._mul, F9._frob, random.Random(2)
    for _ in range(100):
        x, y = F9.rand_elem(rng), F9.rand_elem(rng)
        assert frob(add(x, y), 1) == add(frob(x, 1), frob(y, 1))
        c = rng.randrange(3)  # base-field scalar embeds as itself
        assert frob(mul(c, x), 1) == mul(c, frob(x, 1))


def test_trace_values(F4):
    assert F4._trace(0) == 0
    assert F4._trace(2) == 1  # z + z^2 = 1
    assert F4._trace(1) == 0  # 1 + 1 in characteristic 2


def test_trace_lands_in_base_field_and_is_additive(F256, F9):
    rng = random.Random(3)
    for ctx in (F256, F9):
        add, trace = ctx._add, ctx._trace
        for _ in range(100):
            x, y = ctx.rand_elem(rng), ctx.rand_elem(rng)
            assert 0 <= trace(x) < ctx.q
            assert trace(add(x, y)) == add(trace(x), trace(y))
            assert trace(ctx._frob(x, 1)) == trace(x)


def _frobenius_trace(ctx, x):
    acc = x
    for i in range(1, ctx.n):
        acc = ctx._add(acc, ctx._frob(x, i))
    return acc


@pytest.mark.parametrize("q,n", [(2, 8), (3, 7), (4, 4), (9, 3), (5, 3)])
def test_trace_table_matches_frobenius_sum(q, n):
    # the two-span table against Tr(x) = sum_i x^(q^i) on every element, and
    # the basis searches, which evaluate their forms with ctx._trace, return
    # the same bases when trace is the Frobenius sum
    ctx = make_field(q, n)
    for x in range(ctx.order):
        assert ctx._trace(x) == _frobenius_trace(ctx, x)
    tabled = find_wso_basis(ctx)
    ctx._trace = lambda x: _frobenius_trace(ctx, x)
    assert repr(find_wso_basis(ctx)) == repr(tabled)


def test_deterministic_context():
    a = make_field(2, 8)
    b = make_field(2, 8)
    assert a.modulus == b.modulus
    assert a._exp == b._exp


def test_coeffs_roundtrip(F256):
    rng = random.Random(6)
    for _ in range(50):
        x = F256.rand_elem(rng)
        assert F256.from_coeffs(F256.coeffs(x)) == x


def test_from_coeffs_rejects_non_integer_coefficients(F256):
    F9 = make_field(3, 2)
    for ctx, cs in ((F256, [1.5] + [0] * 7), (F9, [2.5, 0]), (F9, [0, 1.0]),
                    (F9, ["1", 0])):
        with pytest.raises(ValueError,
                           match="coefficient entries must be integers"):
            ctx.from_coeffs(cs)
    assert F9.from_coeffs([True, 2]) == 7
    assert F256.from_coeffs([1, 0, 0, 0, 0, 0, 0, False]) == 1
    for cs in ([3, 0], [0, -1]):
        with pytest.raises(ValueError, match=r"coefficient entries must "
                                             r"lie in F_q = \[0, q\) = "
                                             r"\[0, 3\)"):
            F9.from_coeffs(cs)


@pytest.mark.parametrize("q, n", [(2, 2), (3, 2)])
def test_every_fq_range_message_reads_one_way(q, n):
    # a supplied modulus, from_coeffs, fq_matmul and phi_inv all name the
    # F_q range as "F_q = [0, q) = [0, <q>)", beside "[0, q^n) = [0, <q^n>)"
    # for F_{q^n}
    ctx = make_field(q, n)
    alpha = find_wso_basis(ctx)
    big = [[q] * n for _ in range(n)]
    doors = [lambda: make_field(q, n, (1, q) + (0,) * (n - 2) + (1,)),
             lambda: ctx.from_coeffs([q] + [0] * (n - 1)),
             lambda: fq_matmul(ctx, big, big),
             lambda: phi_inv(ctx, big, alpha)]
    tails = set()
    for door in doors:
        with pytest.raises(ValueError) as err:
            door()
        tails.add(str(err.value).split(" entries ")[1])
    assert tails == {f"must lie in F_q = [0, q) = [0, {q})"}


def test_coeffs_reads_its_element_with_operator_index():
    # the range check is in test_public_api's guard
    F16 = make_field(2, 4)
    with pytest.raises(ValueError, match="element entries must be integers"):
        F16.coeffs(1.5)
    assert F16.coeffs(True) == (1, 0, 0, 0)


# -- table build: pinned digests and the per-element walk reference.

# digests printed by tests/field_digests.py for tables built with one full
# product per element (oracles.walk_tables); the tabulated step must give
# the same tables bit for bit
@pytest.mark.parametrize("q, n, modulus, want", [
    (2, 1, None, "1dd5ed80fce01ea58ed3f2946f61eb49dd33c23289dd87c0560127a6735fd61a"),
    (2, 2, None, "81b0fef412fea114e8ab2a4c4dec583aa3ccab4f4e84d7e591d5d4d9888ee9cd"),
    (2, 9, None, "9e4422c639bf5f453da59e26ccc181aadabb5bf788e3ba858e79af86e8a7fc50"),
    (2, 16, None, "2da9b985b888241dcd07c322e68d2bff0e25ed2f676eae35d5ee8c4ead86201e"),
    (4, 6, None, "c078a3968519aec7d022b06371df3b1d01195874122aa2214f613fea7caf862a"),
    (8, 3, None, "2bfe9b2f583bd727130adae843c61f71199a5eed5b3ac7ff01800782676186d1"),
    (16, 3, None, "3f11b19e39a14c4368bcacdaa5a8d2c1ef6682f9b2f2361561d7ecadfb5fed77"),
    (3, 7, None, "a6306afadb0ab7d76b1130799b46b3f528448da18a31145a537462942e9f6777"),
    (5, 5, None, "21773995be2a73b576f7788c7336a749960daa2380925e6df63137cb2431a0da"),
    (7, 4, None, "6b3e41a1d40975d69b0c77bb84ea143f84f10d8359507619520a615125047159"),
    (13, 2, None, "556e4554681d8558a98b9a979cd17ed115f42a7fa01f378b2a7c9544fbfd92a4"),
    (9, 3, None, "3d165462f06c1afda42c8f88eae7d107dcec1b29968321e6f9a4a7381a8da041"),
    (25, 2, None, "1d433b8eef47256954564ca133bdfe487d1f41b46dab0f775189318a71235430"),
    (27, 2, None, "0621ff080991bc86b9a5a1080291ab7ff3c190b867ed5c2b6e7226e94306ff0a"),
    (1021, 1, None, "2006cc893c625f629282155c5e488fa025b4b4f40f514e0700b3daeff2b6536d"),
    # x is not primitive modulo this polynomial, so the generator is 3
    (2, 8, "1:1:0:1:1:0:0:0:1",
     "e8820a3077908526555f57b2a7099944e8ea2e137314a9278d9b25f81522070e"),
    # the odd-p walk's read-back edges, pinned before it read digits through
    # tables: odd N with halves of 4 and 5 slots, and N = 2 with 8-bit slots
    (3, 9, None, "41a863c168dfbfc769d12fdfea0fd711e5829579819645f21873a920b15cebd1"),
    (127, 2, None, "cd7c05865be10b00592fc804438def4aeca0368eb3b5422e136da778cba11a9e"),
])
def test_tables_match_pinned_digests(q, n, modulus, want):
    assert digest(make_field(q, n, _modulus(modulus))) == want


def _modulus(text):
    """The "c0:c1:...:1" form of the ids, as the ints make_field takes."""
    return None if text is None else [int(c) for c in text.split(":")]


def _assert_walk_tables(p, fo, mod, ops, exp, log):
    assert (exp, log) == walk_tables(fo, mod)
    for v in range(len(log)):
        assert ops.add(1, v) == digit_add(p, 1, v)
        # sub(a, b) adds log(-1) to the exponent of b before the Zech lookup
        assert ops.sub(1, v) == digit_add(p, 1, v, sign=-1)
        assert ops.sub(v, 1) == digit_add(p, v, 1, sign=-1)


# every field of order at most 2^12 that this module builds
@pytest.mark.parametrize("q, n, modulus", [
    *((2, n, None) for n in range(1, 13)), (2, 1, "1:1"),
    (2, 8, "1:1:0:1:1:0:0:0:1"), (3, 1, "2:1"), (3, 2, None), (3, 4, None),
    (3, 7, None), (4, 1, "3:1"), (4, 2, None), (4, 6, None), (5, 2, None),
    (5, 5, None), (7, 2, None), (7, 4, None), (8, 2, None), (8, 3, None),
    (9, 2, None), (9, 3, None), (13, 2, None), (16, 3, None), (25, 2, None),
    (27, 2, None), (1021, 1, None)])
def test_tables_match_walk_oracle(q, n, modulus):
    ctx = make_field(q, n, _modulus(modulus))
    fo = _ScalarOps(q, *base_ops(ctx))
    ops = _ScalarOps(ctx.order, ctx._add, ctx._sub, ctx._mul, ctx._inv)
    _assert_walk_tables(ctx.p, fo, ctx.modulus, ops, ctx._exp, ctx._log)


@pytest.mark.parametrize("q, n", [(4, 2), (8, 3), (9, 2), (25, 2)])
def test_base_level_matches_walk_oracle(q, n):
    # the F_q tables that FieldCtx builds its modulus and tables over
    ctx = make_field(q, n)
    fo = _prime_ops(ctx.p)
    mod = _smallest_irreducible(fo, ctx.e)
    ops, exp, log = _tabled(ctx.p, fo, mod)
    _assert_walk_tables(ctx.p, fo, mod, ops, exp, log)
