"""Weak self-orthogonal bases: verification and deterministic construction.

A basis alpha of F_{q^n} over F_q is weak self-orthogonal when the n-by-n
Moore matrix M built on it satisfies M M^T = D with D diagonal (necessarily
invertible for a basis).  Writing S_d = sum_l alpha_l^(1+q^d), the product's
entry (i, i+d) equals S_d^(q^i), so the property only depends on the set of
basis elements, not their order.  As S_(n-d) = S_d^(q^(n-d)), the whole
product is fixed by S_0..S_floor(n/2), which is_weak_self_orthogonal
computes in O(n^2) with no product and no rank on a WSO basis.

Equivalently, alpha is orthonormal under a scaled trace form
(x, y) -> Tr(c x y), c in F_{q^n}^*: M^T C M = I with C = diag(c^(q^i))
gives M M^T = C^-1, and M M^T = D gives Tr(a_i a_j / S_0) = delta_ij.
Construction runs in two stages:

1. Normal-basis scan: for alpha = (b, b^q, ..., b^(q^(n-1))) every
   orthogonality condition collapses to trace(b * b^(q^d)) = 0 for
   d = 1..floor(n/2), so all q^n candidates can be scanned.  The Gram matrix
   of such a basis under Tr(xy) is c0 * I with c0 in F_q.  A self-dual
   normal basis (c0 = 1) exists when n is odd or q is even and n = 2 mod 4
   (Lempel and Weinberger, "Self-complementary normal bases in finite
   fields", SIAM J. Discrete Math. 1988), and find_wso_basis scans only
   there.  Elsewhere the scan provably finds nothing.  For q even and 4 | n,
   b / sqrt(c0) would be such a basis.  For q odd and n even, c0^n is a
   square in F_q but the discriminant det(M)^2 of Tr(xy) is not: Frobenius
   permutes the rows of M by an n-cycle, an odd permutation, so
   det(M)^q = -det(M) and det(M) lies outside F_q.
2. Trace-orthonormal construction: orthogonalize the polynomial basis under
   Tr(c x y).  A nondegenerate symmetric form over F_q is congruent to the
   identity when it is non-alternating (q even) or has square discriminant
   (q odd), so a suitable c always exists (Seroussi and Lempel,
   "Factorization of symmetric matrices and trace-orthogonal bases in
   finite fields", SIAM J. Comput. 1980).  c = 1, except for q odd and n
   even, where c is the primitive element w: N(w) generates F_q^*, so
   N(w) * disc(Tr) is a square.

Everything is deterministic: identical contexts yield identical bases, each
returned as the tuple of its locators.
"""

from __future__ import annotations

import itertools

from .field import FieldCtx, _ints, _packed
from .linalg import _basis


def is_weak_self_orthogonal(ctx: FieldCtx, alpha):
    """Check of M_n(alpha) M_n(alpha)^T being diagonal, from its first row.

    Returns (True, diag) on success or (False, (i, j)) with the first
    offending off-diagonal position in row-major order.  A non-basis input
    raises ValueError, which keeps "not a basis" distinct from "basis but
    not orthogonal".  By the module notes that position is (0, d) for the
    first nonzero S_d, and d <= n/2.  A zero off-diagonal with S_0 != 0
    makes M invertible, so only an input that fails pays for a rank.
    """
    n = ctx.n
    alpha = _ints(alpha, "vector", ctx.order, length=n)
    add, mul, frob = ctx._add, ctx._mul, ctx._frob
    half = n // 2
    S = []
    for d in range(half + 1):
        acc = 0
        for a in alpha:
            acc = add(acc, mul(a, frob(a, d)))
        S.append(acc)
    d = next((d for d in range(1, half + 1) if S[d]), None)
    if d is None and S[0]:
        return True, tuple(frob(S[0], i) for i in range(n))
    _basis(ctx, alpha)
    return False, (0, d)


def _normal_scan(ctx: FieldCtx) -> int:
    """First beta in coefficient-tuple order generating a normal WSO basis.

    On beta's orbit S_d = Tr(beta beta^(q^d)), so the trace conditions are
    the whole check, and the diagonal is Tr(beta^2) on every row.  A
    self-dual one exists wherever find_wso_basis scans, so none is a fault.
    """
    n, q = ctx.n, ctx.q
    mul, frob, trace = ctx._mul, ctx._frob, ctx._trace
    half = n // 2
    for tup in itertools.product(range(q), repeat=n):
        beta = _packed(q, reversed(tup))
        if any(trace(mul(beta, frob(beta, d))) != 0 for d in range(1, half + 1)):
            continue
        if trace(mul(beta, beta)) == 0:
            continue  # diagonal would be singular
        return beta
    raise RuntimeError(f"normal-basis scan found no WSO basis at q={ctx.q}, "
                       f"n={ctx.n}")


def _trace_orthonormal_basis(ctx: FieldCtx):
    """Basis with Tr(c a_i a_j) = delta_ij, c chosen as in the module notes.

    Orthogonalizes the polynomial basis under the form.  A pivot v is scaled
    by the smallest F_q square root of Tr(c v v), or of Tr(c v v) / nu for
    nu the smallest non-square, so its self-pairing becomes 1 or nu.  When
    every leftover is isotropic, q odd replaces one of a non-orthogonal pair
    v, w by v + w (self-pairing 2 Tr(c v w) != 0); q even pairs them
    hyperbolically and later merges each pair with a unit three-for-one.
    The square discriminant leaves an even number of nu-pivots, rotated in
    pairs by a, b with a^2 + b^2 = 1/nu.
    """
    n, q, trace = ctx.n, ctx.q, ctx._trace
    add, sub, mul, inv = ctx._add, ctx._sub, ctx._mul, ctx._inv
    c = ctx._exp[1] if ctx.p != 2 and n % 2 == 0 else 1
    root = {mul(s, s): s for s in reversed(range(q))}  # smallest root wins
    nu = next((a for a in range(q) if a not in root), 1)

    def form(x, y):
        return trace(mul(c, mul(x, y)))

    work = [q ** j for j in range(n)]  # packed polynomial basis
    units: list[int] = []
    nus: list[int] = []
    pairs: list[tuple[int, int]] = []
    while work:
        idx = next((i for i, v in enumerate(work) if form(v, v)), None)
        if idx is not None:
            v = work.pop(idx)
            d = form(v, v)
            e = 1 if d in root else nu
            v = mul(v, inv(root[mul(d, inv(e))]))
            work = [sub(u, mul(v, mul(form(u, v), inv(e)))) for u in work]
            (units if e == 1 else nus).append(v)
            continue
        i, j = next((i, j) for i in range(len(work))
                    for j in range(i + 1, len(work)) if form(work[i], work[j]))
        if ctx.p != 2:
            work[i] = add(work[i], work[j])
            continue
        w = work.pop(j)
        v = work.pop(i)
        w = mul(w, inv(form(v, w)))
        work = [add(add(u, mul(v, form(u, w))), mul(w, form(u, v)))
                for u in work]
        pairs.append((v, w))
    while pairs:
        v, w = pairs.pop()
        u = units.pop()
        units.extend((add(u, v), add(u, w), add(add(u, v), w)))
    t = inv(nu)
    a = next(a for a in range(q) if sub(t, mul(a, a)) in root)
    b = root[sub(t, mul(a, a))]
    for v, w in zip(nus[::2], nus[1::2]):
        units.extend((add(mul(a, v), mul(b, w)), sub(mul(b, v), mul(a, w))))
    return tuple(units)


def _normal_exists(ctx: FieldCtx) -> bool:
    """Whether F_{q^n} has a normal WSO basis: n odd, or q even and
    n = 2 mod 4 (module notes, stage 1)."""
    return ctx.n % 2 == 1 or (ctx.p == 2 and ctx.n % 4 == 2)


def find_wso_basis(ctx: FieldCtx) -> tuple[int, ...]:
    """Deterministic weak self-orthogonal basis alpha of F_{q^n} over F_q,
    the tuple of its locators: is_weak_self_orthogonal, which verifies it,
    gives its diagonal, and on a normal basis (where _normal_exists) the
    generator is alpha_0.  Elsewhere it is the trace-orthonormal basis.
    """
    if _normal_exists(ctx):
        method, beta = "normal", _normal_scan(ctx)
        alpha = tuple(ctx._frob(beta, i) for i in range(ctx.n))
    else:
        method, alpha = "trace-orthonormal", _trace_orthonormal_basis(ctx)
    if not is_weak_self_orthogonal(ctx, alpha)[0]:  # an internal fault
        raise RuntimeError(f"{method} basis failed verification "
                           f"at q={ctx.q}, n={ctx.n}")
    return alpha
