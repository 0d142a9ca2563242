"""Weak self-orthogonal bases: verification and deterministic construction.

A basis alpha of F_{q^n} over F_q is weak self-orthogonal when the n-by-n
Moore matrix M built on it satisfies M M^T = D with D diagonal (necessarily
invertible for a basis).  Writing S_d = sum_l alpha_l^(1+q^d), the product's
entry (i, i+d) equals S_d^(q^i), so the property only depends on the set of
basis elements, not their order.

Construction runs in stages:

1. Normal-basis scan: for alpha = (b, b^q, ..., b^(q^(n-1))) every
   orthogonality condition collapses to trace(b * b^(q^d)) = 0 for
   d = 1..floor(n/2), so all q^n candidates can be scanned.  For q = 2 the
   diagonal of M M^T is trace(b), forcing D = I; such a basis exists only
   when n is odd or n = 2 mod 4, so the scan provably comes up empty for
   q = 2 with 4 | n, and find_wso_basis skips it there.
2. Char-2 fallback: build a basis whose trace form is orthonormal,
   Tr(a_i a_j) = delta_ij.  The Gram matrix of any basis under (x, y) ->
   Tr(xy) is symmetric, invertible and non-alternating, hence congruent to
   the identity; M^T M = I for a square Moore matrix gives M M^T = I.  The
   congruence is computed by direct orthogonalization of the polynomial
   basis, which always succeeds in characteristic 2.
3. Tiny exhaustive scan over element subsets for odd q (small fields only).

Everything is deterministic: identical contexts yield identical bases.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .field import FieldCtx
from .linalg import moore_matrix, vector_rank


@dataclass(frozen=True)
class WsoBasis:
    """A weak self-orthogonal basis with the diagonal of its Moore Gram."""

    alpha: tuple[int, ...]
    diag: tuple[int, ...]
    method: str            # "normal", "trace-orthonormal", or "exhaustive"
    beta: int | None = None  # generator when the basis is normal


def is_weak_self_orthogonal(ctx: FieldCtx, alpha):
    """Full check of M_n(alpha) M_n(alpha)^T being diagonal.

    Returns (True, diag) on success or (False, (i, j)) with the first
    offending off-diagonal position.  A non-basis input raises ValueError,
    which keeps "not a basis" distinct from "basis but not orthogonal".
    """
    alpha = tuple(alpha)
    if len(alpha) != ctx.n:
        raise ValueError(f"alpha must have length {ctx.n}")
    if vector_rank(ctx, alpha) != ctx.n:
        raise ValueError("alpha is not a basis")
    n = ctx.n
    add, mul, frob = ctx.add, ctx.mul, ctx.frob
    M = moore_matrix(ctx, alpha, n)
    diag = []
    for i in range(n):
        for j in range(i, n):
            acc = 0
            for l in range(n):
                acc = add(acc, mul(M[i][l], M[j][l]))
            if i == j:
                diag.append(acc)
            elif acc != 0:
                return False, (i, j)
    return True, tuple(diag)


def _normal_scan(ctx: FieldCtx):
    """First beta in coefficient-tuple order generating a normal WSO basis."""
    n, q = ctx.n, ctx.q
    mul, frob, trace = ctx.mul, ctx.frob, ctx.trace
    half = n // 2
    for tup in itertools.product(range(q), repeat=n):
        beta = ctx.from_coeffs(tup)
        if beta == 0:
            continue
        if any(trace(mul(beta, frob(beta, d))) != 0 for d in range(1, half + 1)):
            continue
        if trace(mul(beta, beta)) == 0:
            continue  # diagonal would be singular
        alpha = tuple(frob(beta, i) for i in range(n))
        if vector_rank(ctx, alpha) != n:
            continue
        ok, diag = is_weak_self_orthogonal(ctx, alpha)
        if not ok:  # pragma: no cover - the trace conditions are exhaustive
            continue
        return WsoBasis(alpha, diag, "normal", beta)
    return None


def _trace_orthonormal_basis(ctx: FieldCtx):
    """Characteristic-2 basis with Tr(a_i a_j) = delta_ij.

    Orthogonalizes the polynomial basis under the trace form.  Vectors whose
    self-pairing is nonzero become pivots after rescaling by the inverse
    square root; alternating leftovers pair up hyperbolically and are then
    merged with one pivot three-for-one.  The trace form cannot be fully
    alternating (trace is surjective), so at least one pivot always exists.
    """
    n, q = ctx.n, ctx.q
    add, mul, trace, inv = ctx.add, ctx.mul, ctx.trace, ctx.inv

    def form(x, y):
        return trace(mul(x, y))

    work = [q ** j for j in range(n)]  # packed polynomial basis
    units: list[int] = []
    pairs: list[tuple[int, int]] = []
    while work:
        idx = next((i for i, v in enumerate(work) if form(v, v) != 0), None)
        if idx is not None:
            v = work.pop(idx)
            # x^(q/2) is the square root of x in F_q of characteristic 2
            c = ctx.power(inv(form(v, v)), q // 2)
            v = mul(v, c)
            work = [add(u, mul(v, form(u, v))) if form(u, v) else u
                    for u in work]
            units.append(v)
            continue
        hit = None
        for i in range(len(work)):
            for j in range(i + 1, len(work)):
                if form(work[i], work[j]) != 0:
                    hit = (i, j)
                    break
            if hit:
                break
        if hit is None:  # pragma: no cover - would contradict invertibility
            raise LookupError("trace form degenerated during orthogonalization")
        i, j = hit
        w = work.pop(j)
        v = work.pop(i)
        w = mul(w, inv(form(v, w)))
        work = [add(add(u, mul(v, form(u, w))), mul(w, form(u, v)))
                for u in work]
        pairs.append((v, w))
    while pairs:
        if not units:  # pragma: no cover - trace form is never alternating
            raise LookupError("no unit vector available for pair merging")
        v, w = pairs.pop()
        u = units.pop()
        units.extend((add(u, v), add(u, w), add(add(u, v), w)))
    return tuple(units)


def _exhaustive_scan(ctx: FieldCtx):
    """Subset scan for tiny odd-characteristic fields."""
    n = ctx.n
    if ctx.order > 128 or n > 3:
        return None
    for combo in itertools.combinations(range(1, ctx.order), n):
        if vector_rank(ctx, combo) != n:
            continue
        ok, diag = is_weak_self_orthogonal(ctx, combo)
        if ok:
            return WsoBasis(tuple(combo), diag, "exhaustive")
    return None


def find_wso_basis(ctx: FieldCtx) -> WsoBasis:
    """Deterministic weak self-orthogonal basis for F_{q^n} over F_q.

    Tries the normal-basis scan first (except for q = 2 with 4 | n, where
    it cannot succeed), then the characteristic-2 trace-orthonormal
    construction, then a tiny exhaustive scan; raises LookupError when every
    stage comes up empty.
    """
    if ctx.q != 2 or ctx.n % 4:
        found = _normal_scan(ctx)
        if found is not None:
            return found
    if ctx.p == 2:
        alpha = _trace_orthonormal_basis(ctx)
        ok, diag = is_weak_self_orthogonal(ctx, alpha)
        if not ok:  # pragma: no cover - construction guarantees this
            raise LookupError("trace-orthonormal construction failed verification")
        return WsoBasis(alpha, diag, "trace-orthonormal")
    found = _exhaustive_scan(ctx)
    if found is not None:
        return found
    raise LookupError(
        f"no weak self-orthogonal basis found for q={ctx.q}, n={ctx.n}")
