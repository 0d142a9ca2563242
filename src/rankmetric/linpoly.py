"""Linearized polynomials over F_{q^n}.

A polynomial sum_i f_i x^(q^i) is stored as a tuple of packed coefficient
ints, index 0 first, with trailing zeros stripped; the zero polynomial is
the empty tuple and has q-degree -1.  These induce F_q-linear maps on
F_{q^n}, which is what makes root spaces and subspace polynomials work.
"""

from __future__ import annotations

from .field import FieldCtx


def lin_normalize(coeffs) -> tuple[int, ...]:
    coeffs = tuple(coeffs)
    d = len(coeffs)
    while d > 0 and coeffs[d - 1] == 0:
        d -= 1
    return coeffs[:d]


def lin_qdeg(f) -> int:
    return len(f) - 1


def lin_eval(ctx: FieldCtx, f, x: int) -> int:
    add, mul, frob = ctx.add, ctx.mul, ctx.frob
    acc = 0
    for i, c in enumerate(f):
        if c:
            acc = add(acc, mul(c, frob(x, i)))
    return acc


def lin_compose_mod(ctx: FieldCtx, outer, inner, mod_qdeg: int):
    """Coefficients 0..mod_qdeg-1 of outer(inner(x)).

    Coefficient p of the composition is sum_{j<=p} outer_j * inner_{p-j}^(q^j);
    everything at index mod_qdeg and above is dropped.
    """
    if mod_qdeg < 1:
        raise ValueError("mod_qdeg must be >= 1")
    add, mul, frob = ctx.add, ctx.mul, ctx.frob
    out = []
    for p in range(mod_qdeg):
        acc = 0
        for j in range(min(p, len(outer) - 1) + 1):
            c = outer[j]
            idx = p - j
            if c and idx < len(inner) and inner[idx]:
                acc = add(acc, mul(c, frob(inner[idx], j)))
        out.append(acc)
    return lin_normalize(out)


def min_subspace_poly(ctx: FieldCtx, gens):
    """Monic linearized polynomial vanishing exactly on the F_q-span of gens.

    Built iteratively: with g independent of the current root space and f the
    polynomial so far, f(x)^q - f(g)^(q-1) f(x) extends the root space by g.
    Dependent generators evaluate to zero under f and are skipped, so
    redundant spanning sets are fine; the q-degree equals dim span(gens).
    """
    sub, mul, frob, power = ctx.sub, ctx.mul, ctx.frob, ctx.power
    f = (1,)
    for g in gens:
        v = lin_eval(ctx, f, g)
        if v == 0:
            continue
        scale = power(v, ctx.q - 1)
        shifted = (0,) + tuple(frob(c, 1) for c in f)
        padded = tuple(f) + (0,)
        f = tuple(sub(s, mul(scale, c)) for s, c in zip(shifted, padded))
    return lin_normalize(f)
