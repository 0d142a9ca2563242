"""Finite-field contexts for F_q (q = p^e) and its degree-n extension F_{q^n}.

Field elements are plain Python ints.  An element of F_{q^n} is packed as an
integer in [0, q^n) whose base-q digits, least significant first, are the
coefficients of its residue polynomial modulo the defining polynomial of the
extension.  Elements of the base field F_q use the same packing one level
down (base-p digits), so for prime q they are ordinary residues mod p.  The
copy of F_q inside F_{q^n} is exactly the ints below q, which means base
field scalars can be fed to extension arithmetic unchanged.

Defining polynomials are picked deterministically: the lexicographically
smallest monic irreducible of the required degree, comparing coefficient
tuples constant term first.  A caller-supplied modulus is verified instead;
it is a sequence of ints in F_q, read by _ints, the package's one entry
reader.  The build has one polynomial arithmetic: residues modulo a
polynomial are packed ints, like the field elements, with one product
(shifts and XOR over F_2) and one gcd test per modulus, one
square-and-multiply and one Rabin irreducibility test for every q.

Both levels (F_q when e > 1, and F_{q^n}) get exp/log tables over a fixed
multiplicative generator, so multiplication, inversion and Frobenius powers
are table lookups.  The tables are built by walking the generator's
powers: multiplying by it is F_p-linear on the base-p digits, so each step
reads tables of the digit units' images, and at odd p reads the digits of
the sum back from two more.  Addition and subtraction are XOR in
characteristic 2; at odd p they are lookups through Zech logarithms read
off shifted slices of log.  The tables bound the field: q^n must be at
most 2^20, and a larger order raises ValueError naming that budget.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from itertools import islice, product
from operator import index, xor
from typing import Iterable

ORDER_LIMIT = 1 << 20


# Miller-Rabin with the primes up to 41 as bases is exact below this bound
# (Sorenson and Webster, 2015).
PRIME_TEST_LIMIT = 3317044064679887385961981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin test; exact for m < PRIME_TEST_LIMIT."""
    if m < 2:
        return False
    for b in _MR_BASES:
        if m % b == 0:
            return m == b
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _iroot(m: int, e: int) -> int:
    """Largest r with r^e <= m, for m >= 1: Newton's method from above."""
    r = 1 << -(-m.bit_length() // e)
    while True:
        s = ((e - 1) * r + m // r ** (e - 1)) // e
        if s >= r:
            return r
        r = s


def _prime_power(q: int) -> tuple[int, int]:
    """Split q into (p, e) with p prime and q = p^e, or raise ValueError.

    Exponents are tried from the largest down, so the first exact root is
    the smallest base r with q a power of r; q is a prime power exactly
    when that r is prime.  A base at or above PRIME_TEST_LIMIT is rejected,
    since the primality test is exact only below it.
    """
    q = _index(q, "q")
    if q < 2:
        raise ValueError(f"q={q} is not a prime power")
    for e in range(q.bit_length() - 1, 0, -1):
        r = _iroot(q, e)
        if r ** e != q:
            continue
        if r >= PRIME_TEST_LIMIT:
            raise ValueError(f"q={q} has a base above the primality test "
                             f"bound {PRIME_TEST_LIMIT}")
        if _is_prime(r):
            return r, e
        break
    raise ValueError(f"q={q} is not a prime power")


def _factor(m: int) -> list[int]:
    """Distinct prime factors of m, ascending."""
    out = []
    f = 2
    while f * f <= m:
        if m % f == 0:
            out.append(f)
            while m % f == 0:
                m //= f
        f += 1 if f == 2 else 2
    if m > 1:
        out.append(m)
    return out


# arithmetic for a coefficient field, used by the polynomial helpers
_ScalarOps = namedtuple("_ScalarOps", "q add sub mul inv")


def _prime_ops(p: int) -> _ScalarOps:
    return _ScalarOps(
        p,
        lambda a, b: (a + b) % p,
        lambda a, b: (a - b) % p,
        lambda a, b: (a * b) % p,
        lambda a: pow(a, p - 2, p),
    )


def _index(x, what: str) -> int:
    """x read with operator.index; a non-integer raises ValueError."""
    try:
        return index(x)
    except TypeError:
        raise ValueError(f"{what} {x!r} is not an integer") from None


# how a range message names F_q, beside "[0, q^n)" for F_{q^n}
_FQ_RANGE = "F_q = [0, q)"


def _ints(v, what, bound, field="[0, q^n)", length=None):
    """The entries of v as a tuple of ints, read with operator.index as
    _index does; rejects a non-integer entry, an entry outside [0, bound)
    and, given a length, a tuple of any other."""
    try:
        v = tuple(map(index, v))
    except TypeError:
        raise ValueError(f"{what} entries must be integers") from None
    if v and (min(v) < 0 or max(v) >= bound):
        raise ValueError(f"{what} entries must lie in {field} = [0, {bound})")
    if length is not None and len(v) != length:
        raise ValueError(f"{what} must have {length} entries")
    return v


# ---------------------------------------------------------------------------
# Polynomials over a scalar field: tuples of coefficients, constant term
# first, no trailing zeros (the zero polynomial is the empty tuple).
# ---------------------------------------------------------------------------

def _ptrim(f: Iterable[int]) -> tuple[int, ...]:
    f = tuple(f)
    d = len(f)
    while d > 0 and f[d - 1] == 0:
        d -= 1
    return f[:d]


def _pmul(fo: _ScalarOps, f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == 0:
            continue
        for j, b in enumerate(g):
            if b:
                out[i + j] = fo.add(out[i + j], fo.mul(a, b))
    return _ptrim(out)


def _pmod(fo: _ScalarOps, f, g):
    """Remainder of f divided by g (g nonzero)."""
    f, dg = list(f), len(g) - 1
    lead_inv = fo.inv(g[-1])
    for df in range(len(f) - 1, dg - 1, -1):
        c = fo.mul(f[df], lead_inv)
        if c:
            for i, gc in enumerate(g, df - dg):
                if gc:
                    f[i] = fo.sub(f[i], fo.mul(c, gc))
    return _ptrim(f[:dg])


def _pgcd(fo: _ScalarOps, f, g):
    """A gcd of f and g, not scaled to be monic: only its degree is read."""
    while g:
        f, g = g, _pmod(fo, f, g)
    return f


# ---------------------------------------------------------------------------
# Residues modulo a monic polynomial, packed as ints in base-|F| digits,
# constant term first: the form of the field elements themselves.  Over F_2
# a packed int is a bit mask, and its product is shifts and XOR.
# ---------------------------------------------------------------------------

def _packed(base: int, digits) -> int:
    """The int with the given digits in base base, most significant first."""
    x = 0
    for v in digits:
        x = x * base + v
    return x


def _gf2_mulmod(a: int, b: int, f: int, d: int) -> int:
    """a * b mod f for f of degree d and a of degree below d."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if (a >> d) & 1:
            a ^= f
    return r


def _ring(fo: _ScalarOps, mod):
    """The product on F[x]/(mod) and a test that an element is prime to mod.

    mod is a monic coefficient tuple over the coefficient field F of fo,
    and elements are packed ints below |F|^deg(mod), unpacked to
    coefficient tuples except by the product over F_2, on bit masks.
    """
    base, d = fo.q, len(mod) - 1

    def unpack(a):
        out = []
        while a:
            a, c = divmod(a, base)
            out.append(c)
        return tuple(out)

    def coprime(a):
        return len(_pgcd(fo, unpack(a), mod)) == 1

    if base == 2:
        f = sum(c << i for i, c in enumerate(mod))
        return (lambda a, b: _gf2_mulmod(a, b, f, d)), coprime

    def mul(a, b):
        return _packed(base, reversed(
            _pmod(fo, _pmul(fo, unpack(a), unpack(b)), mod)))

    return mul, coprime


def _power(mul, g, m: int):
    """g^m for m >= 1 by left-to-right square-and-multiply."""
    r = g
    for bit in bin(m)[3:]:
        r = mul(r, r)
        if bit == "1":
            r = mul(r, g)
    return r


def _is_irreducible(fo: _ScalarOps, f) -> bool:
    """Rabin's test of monic f of degree d over F_q: x^(q^d) = x mod f, and
    x^(q^(d/r)) - x is prime to f for every prime r dividing d."""
    d, q = len(f) - 1, fo.q
    if d < 2:
        return d == 1
    mul, coprime = _ring(fo, f)
    # x is the packed int q; its Frobenius iterates x^(q^i) mod f
    iterates = [q]
    for _ in range(d):
        iterates.append(_power(mul, iterates[-1], q))
    if iterates[d] != q:
        return False
    for r in _factor(d):
        a = iterates[d // r]
        c = a // q % q  # subtracting x changes digit 1 alone
        if not coprime(a + (fo.sub(c, 1) - c) * q):
            return False
    return True


def _smallest_irreducible(fo: _ScalarOps, d: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree d over F_q.

    Coefficient tuples are compared constant term first.  For d >= 2 a zero
    constant term forces the root 0, so the scan starts at c0 = 1.
    """
    q = fo.q
    if d == 1:
        return (0, 1)
    for c0 in range(1, q):
        for rest in product(range(q), repeat=d - 1):
            f = (c0,) + rest + (1,)
            if _is_irreducible(fo, f):
                return f
    raise ValueError(f"no irreducible polynomial of degree {d} found")  # pragma: no cover


def _halves(p: int, images, add):
    """(lo, hi, P): the spans of the low a = len(images) // 2 unit images
    and of the rest, and P = p^a.

    A span's entry u is the sum of u_k * images[k] over the base-p digits
    u_k of u, built one digit at a time by repeated add.  An F_p-linear
    map with those unit images sends the packed digits v to
    add(lo[v % P], hi[v // P]): two lookups, in tables of p^a and
    p^(len(images) - a) entries.
    """
    a = len(images) // 2
    spans = []
    for part in images[:a], images[a:]:
        table = [0]
        for img in part:
            row, grown = table, table[:]
            for _ in range(p - 1):
                row = [add(t, img) for t in row]
                grown += row
            table = grown
        spans.append(table)
    return (*spans, p ** a)


def _walk(p: int, images):
    """exp and log tables of the powers of gen, from its unit images.

    images[k] = p^k * gen for the N base-p digit units p^k of a field of
    order p^N.  Multiplication by gen is F_p-linear on packed digits, so
    with a = N // 2 and P = p^a, v * gen = lo[v mod P] + hi[v div P], the
    _halves of the images.  At p = 2, and at N = 1 where lo = [0], the sum
    is an XOR.  Otherwise lo and hi write the digits in base B = 2p - 1,
    spread by the _halves of the base-B units, so lo + hi never carries,
    and the sum s reads back as rlo[s % B^a] + rhi[s // B^a] from tables
    of its (2p - 1)^d digit patterns: no step loops over digits.  Both
    halves of exp are filled in the walk, so none copies it.
    """
    N = len(images)
    a = N // 2
    order = p ** N
    L = order - 1
    exp = [0] * (2 * L)
    log = [-1] * order
    v = 1
    if p == 2 or N == 1:  # at N = 1, lo = [0] and hi is reduced mod p
        add = xor if p == 2 else _prime_ops(p).add
    else:
        B = 2 * p - 1
        BA = B ** a
        # rd: N - a base-B digits to their value mod p; slo, shi: to base B
        rd = [0]
        for k in range(N - a):
            rd = [x + c % p * p ** k for c in range(B) for x in rd]
        slo, shi, P = _halves(p, [B ** k for k in range(N)], int.__add__)
        rlo, rhi = rd[:BA], list(map(P.__mul__, rd))
        add = lambda s, t, r=rd, d=BA: (slo[r[(s + t) % d]]
                                        + shi[r[(s + t) // d]])
        images = [slo[g % P] + shi[g // P] for g in images]
    lo, hi, P = _halves(p, images, add)
    if p == 2 or N == 1:
        m = (1 << a) - 1
        for i in range(L):
            exp[i] = exp[i + L] = v
            log[v] = i
            v = lo[v & m] ^ hi[v >> a]
        return exp, log
    for i in range(L):
        exp[i] = exp[i + L] = v
        log[v] = i
        s = lo[v % P] + hi[v // P]
        v = rlo[s % BA] + rhi[s // BA]
    return exp, log


def _zech_op(exp, log, zech, L, s):
    """(a, b) -> a + w^s b by Zech logarithms, w the generator of exp/log:
    add at s = 0 and sub at s = log(-1)."""
    def op(a, b, _exp=exp, _log=log, _zech=zech, _L=L, _s=s):
        if not b:
            return a
        lb = _log[b] + _s
        if not a:
            return _exp[lb]
        la = _log[a]
        z = _zech[(lb - la) % _L]
        return _exp[la + z] if z >= 0 else 0
    return op


def _tabled(p: int, fo: _ScalarOps, mod):
    """Tabled arithmetic of F[x]/(mod) over the coefficient field F of fo.

    Elements are packed ints whose base-|F| digits are the residue
    coefficients, so at both levels their base-p digits are F_p
    coordinates.  The generator gen is the smallest primitive packed int,
    found with _power over _ring's product on F[x]/(mod).  The same
    product gives gen times each base-p digit unit, and _walk builds
    exp/log from those images alone, with table reads per element.  mul
    and inv then look products up.  Addition is XOR in characteristic 2.
    At odd p add and sub are one body, _zech_op, over zech[i] = log(1 + w^i)
    (-1 where 1 + w^i = 0): w^a + w^b = w^(a + zech[b - a]), and sub adds
    log(-1) to the exponent of the subtrahend.  Returns (ops, exp, log).
    """
    base, deg = fo.q, len(mod) - 1
    order = base ** deg
    mul_raw = _ring(fo, mod)[0]
    L = order - 1
    prime_parts = _factor(L)
    # for deg > 1 the ints below base form F, whose orders divide base - 1 < L
    gen = next(g for g in range(base if deg > 1 else 1, order)
               if all(_power(mul_raw, g, L // r) != 1 for r in prime_parts))
    images, u = [], 1
    while u < order:
        images.append(mul_raw(u, gen))
        u *= p
    exp, log = _walk(p, images)

    def mul(a, b, _exp=exp, _log=log):
        if a == 0 or b == 0:
            return 0
        return _exp[_log[a] + _log[b]]

    def inv(a, _exp=exp, _log=log, _L=L):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return _exp[_L - _log[a]]

    if p == 2:
        add = sub = xor
    else:
        # Zech logarithms: 1 + w^i differs from w^i only in its lowest base-p
        # digit, so log(v + 1) is log shifted by one, wrapped every p entries
        succ = log[1:] + log[:1]
        succ[p - 1::p] = log[::p]
        zech = list(map(succ.__getitem__, islice(exp, L)))
        # -1 is the constant p - 1 at both levels
        add, sub = (_zech_op(exp, log, zech, L, s) for s in (0, log[p - 1]))
    return _ScalarOps(order, add, sub, mul, inv), exp, log


class FieldCtx:
    """Immutable description of F_q and F_{q^n} with packed-int arithmetic.

    The public surface is the checked add, the conversions coeffs and
    from_coeffs, and rand_elem.  The table ops _add, _sub, _mul, _inv,
    _frob and _trace are private: they run unchecked, per entry, on every
    hot path, where a check would cost about as much as the op, and each
    caller binds them once per call.

    Attributes:
        p, e, q: base field characteristic, extension exponent, order (q = p^e)
        n: extension degree
        order: q^n, at most ORDER_LIMIT = 2^20
        modulus: defining polynomial of F_{q^n} over F_q, constant term first,
            length n+1, monic
    """

    def __init__(self, q: int, n: int, modulus=None):
        q, n = _index(q, "q"), _index(n, "extension degree n")
        if n < 1:
            raise ValueError(f"extension degree n={n} must be >= 1")
        # n > 20 forces q^n > 2^20 for every q >= 2 without computing q^n
        if n > 20 or q ** n > ORDER_LIMIT:
            raise ValueError(
                f"field order {q}^{n} exceeds the table budget 2^20")
        p, e = _prime_power(q)
        self.p = p
        self.e = e
        self.q = q
        self.n = n
        self.order = q ** n

        fo = _prime_ops(p)
        if e > 1:
            fo = _tabled(p, fo, _smallest_irreducible(fo, e))[0]
        if modulus is None:
            modulus = _smallest_irreducible(fo, n)
        else:
            modulus = _ints(modulus, "modulus", q, _FQ_RANGE)
            if len(modulus) != n + 1 or modulus[-1] != 1:
                raise ValueError(
                    f"modulus must be monic of degree {n}, got {modulus}")
            if not _is_irreducible(fo, modulus):
                raise ValueError(f"modulus {modulus} is reducible over F_{q}")
        self.modulus = modulus

        ops, exp, log = _tabled(p, fo, modulus)
        self._exp, self._log = exp, log
        _, self._add, self._sub, self._mul, self._inv = ops

        L = self.order - 1
        qpow = [q ** i for i in range(n)]

        def frob(x, i, _exp=exp, _log=log, _L=L, _qpow=qpow, _n=n):
            if x == 0:
                return 0
            return _exp[_log[x] * _qpow[i % _n] % _L]

        # Tr is F_p-linear on the base-p digits, so as in _walk it is two
        # lookups, in the _halves of the traces of the digit units, and one
        # addition; F_q is the ints below q, so the field's own add sums
        # its elements
        add, units = ops.add, []
        for u in range(n * e):
            x = acc = p ** u
            for i in range(1, n):
                acc = add(acc, frob(x, i))
            units.append(acc)
        lo, hi, P = _halves(p, units, add)

        def trace(x, _lo=lo, _hi=hi, _P=P, _add=add):
            return _add(_lo[x % _P], _hi[x // _P])

        self._frob, self._trace, self._qpow = frob, trace, qpow

        # where a nonzero element x leads, for linalg.fq_rank: with
        # b = x.bit_length(), _top[b] is the highest c < n with q^c < 2^b,
        # and x's top base-q digit is at c, or at c - 1 when x < q^c =
        # _qpow[c], as [2^(b-1), 2^b) holds at most one power of q
        self._top = [0] + [bisect_left(qpow, 1 << b) - 1
                           for b in range(1, L.bit_length() + 1)]

    def add(self, a, b) -> int:
        """a + b, both read by _ints as elements of [0, q^n)."""
        a, b = _ints((a, b), "element", self.order)
        return self._add(a, b)

    # -- conversions -------------------------------------------------------

    def coeffs(self, x: int) -> tuple[int, ...]:
        """Base-q coefficient tuple of x, constant term first, length n."""
        (x,), q = _ints((x,), "element", self.order), self.q
        out = []
        for _ in range(self.n):
            out.append(x % q)
            x //= q
        return tuple(out)

    def from_coeffs(self, cs: Iterable[int]) -> int:
        cs = _ints(cs, "coefficient", self.q, _FQ_RANGE)
        if len(cs) != self.n:
            raise ValueError(f"expected {self.n} coefficients, got {len(cs)}")
        return _packed(self.q, reversed(cs))

    def rand_elem(self, rng) -> int:
        return rng.randrange(self.order)

    def __repr__(self):
        return f"FieldCtx(q={self.q}, n={self.n}, modulus={self.modulus})"


def make_field(q: int, n: int, modulus=None) -> FieldCtx:
    """Build a field context for F_{q^n} over F_q.

    When modulus is omitted the deterministic default (lexicographically
    smallest monic irreducible, constant term first) is selected, so two
    calls with the same (q, n) produce identical contexts.  A given modulus
    is a sequence of integer coefficients in that order, leading 1 last.
    """
    return FieldCtx(q, n, modulus)
