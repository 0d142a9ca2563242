"""Joint-syndrome decoding of errors whose row and column spaces coincide.

The decoder computes one syndrome from the received word against the code's
parity check and one from the transposed received word against the
transposed code's parity check.  Both satisfy a key equation with the same
error span polynomial (the minimal subspace polynomial of the error
support), so the two linear systems are stacked and solved jointly, exactly
as for a 2-interleaved code.  This pushes the decoding radius from
(n-k)/2 up to 2(n-k)/3 at the price of a small failure probability.

The halves are Frobenius twists: s1_r = sum_l alpha_l y_l^(q^(r+1)) equals
s2_(n-k-1-r)^(q^(r+1)), as raising s2_(n-k-1-r) =
sum_l y_l alpha_l^(q^(n-1-r)) to q^(r+1) turns alpha_l into alpha_l^(q^n)
= alpha_l.  The second key equation comes from the space-symmetric error,
whose transpose has the same support.

The stacked system at trial rank t is S_t = T[m >= t, j <= t] of both
syndromes, where T has entry (m, j) = s_{m-j}^(q^j), zero where m < j.
Trials run down from the code's radius t_max = floor(2(n-k)/3); the
first with rank(S_t) = t gives the span polynomial candidate, unique up to
scale.  A nonzero kernel vector gamma at trial t' gives rank(S_t) <= t'
for every t > t', as the shifts x^(q^i) o gamma with i <= t - t' lie in
the kernel of S_t and have distinct q-degrees.  So rank(S_t) never
exceeds the true error rank, and no trial below rank(S_t) can hit; trials
above it can (at (q, n, k) = (3, 7, 1) some rank-3 errors trace
((4, 2), (3, 3))), so none is skipped.
An echelon basis truncated to its first t+1 columns is one of the truncated
rows, so trial t truncates the basis of trial t+1 in place, dropping the
row with pivot t+1 and column t+1, at most the last entry of each row, and
inserts its rows m = t.

At a hit the kernel vector gamma gives Gamma = sum_j gamma_j x^(q^j).
A pivot in column t means gamma_t = 0, a q-degree below t; otherwise
gamma_t = 1, and Gamma is accepted when its root space V in F_{q^n} has
dimension t (_full_root_space): when Gamma right-divides x^(q^n) - x, which
is central in F_{q^n}[x; sigma], so when Gamma left-divides it.  Each of
the n left steps is a shift of the remainder less one multiple of Gamma,
with no Frobenius of its coefficients, and they reject gamma_0 = 0, which
never passes.  Decoding fails at once on a rejected hit.
Each word's ordinary syndrome s = e H^T, on the Moore powers
q^k..q^(n-1), is then continued by Gamma's recurrence to the powers
q^n..q^(n+k-1), which act as q^0..q^(k-1) on F_{q^n}: the continuation is
e G^T.  The codeword c is the one with c G^T = y G^T - e G^T, which the
code returns as an encoding (GabidulinCode._from_gt), and the error is
y - c.  No consistency check is needed: e -> e H^T is injective on V^n,
since a rank at most t < n-k+1 is below the minimum distance, and V^n
and the set of syndromes satisfying Gamma's recurrence on rows t..n-k-1
both have F_q dimension t n.  So every syndrome of a hit has exactly one
error in V^n, and y G^T - e G^T is the G^T-image of the one codeword at
rank distance at most t.
"""

from __future__ import annotations

from dataclasses import dataclass

from .code import GabidulinCode
from .field import FieldCtx
from .linalg import _insert_rows, _kernel_vector


class _Outcome:
    @property
    def decoded(self) -> bool:
        return self.status == "decoded"


@dataclass(frozen=True)
class DecodeOutcome(_Outcome):
    status: str                       # "decoded" or "failure"
    codeword: tuple[int, ...] | None
    error: tuple[int, ...] | None
    trial_trace: tuple[tuple[int, int], ...]  # (trial rank, rank of stacked S)


@dataclass(frozen=True)
class InterleavedOutcome(_Outcome):
    status: str
    codewords: tuple[tuple[int, ...], ...] | None
    errors: tuple[tuple[int, ...], ...] | None
    trial_trace: tuple[tuple[int, int], ...]


def _syndrome_row(ctx: FieldCtx, logs, m: int, width: int):
    """Row m of T on columns j < width <= m + 1: s_{m-j}^(q^j), from the
    logs of s (-1 for a zero entry)."""
    exp, L, qpow = ctx._exp, ctx.order - 1, ctx._qpow
    return [exp[logs[m - j] * qpow[j] % L] if logs[m - j] >= 0 else 0
            for j in range(width)]


def _full_root_space(ctx: FieldCtx, g) -> bool:
    """Whether g, of q-degree t >= 1, has a t-dimensional root space in
    F_{q^n}.

    That holds exactly when g right-divides x^(q^n) - x symbolically: then
    g_0 != 0 (the x coefficient of h o g is h_0 g_0), so g has q^t distinct
    roots, all in F_{q^n}.  In the skew ring F_{q^n}[x; sigma] x^(q^n) - x
    is central, and h o g = f central gives (g o h) o g = g o f = f o g =
    (h o g) o g, so g o h = f: g right-divides it exactly when it
    left-divides it, i.e. when x^(q^n) = x modulo g on the left.  The left
    remainder r of x^(q^i) steps to that of x^(q^(i+1)) as r o x^q, a shift
    of r's coefficients with no Frobenius, less g o (c' x) for the shifted
    top coefficient c: that cancels it when g_t c'^(q^t) = c, so
    c' = (c / g_t)^(q^(n-t)), and its coefficients are g_j c'^(q^j).
    g_0 = 0 (g = h o x^q) leaves the x coefficient of r zero from the first
    step on, so the n steps reject it with no test of their own.
    """
    t = len(g) - 1
    exp, log, L, sub, n = ctx._exp, ctx._log, ctx.order - 1, ctx.sub, ctx.n
    qpow, lead = ctx._qpow, log[g[t]]
    qinv = qpow[-t % n]
    # r is w[i:i + t] at step i, top coefficient first; j at w[i + t - j]
    terms = [(t - j, log[c], qpow[j % n]) for j, c in enumerate(g[:t]) if c]
    x = [0] * (t - 1) + [1]
    w = x[:]
    for i in range(n):
        w.append(0)
        c = w[i]
        if c:
            lc = (log[c] - lead) * qinv % L
            for d, lg, qj in terms:
                w[i + d] = sub(w[i + d], exp[lg + lc * qj % L])
    return w[n:] == x


def _extend(ctx: FieldCtx, g, s):
    """The n - len(s) entries that continue s by g's recurrence
    sum_j g_j s_(m-j)^(q^j) = 0.

    The syndrome e H^T of every error e with entries in g's root space
    satisfies it at every m, and its continuation is e G^T, as
    x^(q^(n+r)) = x^(q^r) on F_{q^n}."""
    exp, log, L, add = ctx._exp, ctx._log, ctx.order - 1, ctx.add
    qpow, neg = ctx._qpow, L - log[g[0]] + log[ctx.neg(1)]
    terms = [(j, (log[c] + neg) % L, qpow[j])
             for j, c in enumerate(g) if j and c]
    s = list(s)
    start = len(s)
    for m in range(start, ctx.n):
        acc = 0
        for j, lc, qj in terms:
            v = s[m - j]
            if v:
                acc = add(acc, exp[(lc + log[v] * qj) % L])
        s.append(acc)
    return s[start:]


def _joint_decode(code: GabidulinCode, words, s1, s2, reads):
    """Trial-rank countdown shared by decode and interleaved_decode.

    s1 and s2 are the stacked syndrome pair, and reads holds the ordinary
    syndrome and y G^T of each received word.  Returns (status, codewords,
    errors, trial trace); codewords and errors are None on failure.
    """
    ctx = code.ctx
    if not any(s1) and not any(s2):
        return "decoded", words, ((0,) * code.n,) * len(words), ()
    log = ctx._log
    logs = ([log[v] for v in s1], [log[v] for v in s2])
    basis, trace, top = {}, [], code.n - code.k
    # trial t reads rows t..top-1, and 2m // 3 <= m - 1 for every m >= 1
    for t in range(code._tmax, 0, -1):
        basis.pop(t + 1, None)     # trial t + 1 read columns 0..t + 1
        for row in basis.values():
            if row and row[-1][0] > t:
                row.pop()
        _insert_rows(ctx, basis, [_syndrome_row(ctx, ls, m, t + 1)
                                  for m in range(t, top) for ls in logs])
        top = t
        trace.append((t, len(basis)))
        if len(basis) != t:
            continue
        gamma = _kernel_vector(ctx, basis, t)  # gamma_t = 0 iff t in basis
        if t in basis or not _full_root_space(ctx, gamma):
            break
        codewords = tuple(
            code._from_gt(map(ctx.sub, yg, _extend(ctx, gamma, s)))
            for s, yg in reads)
        errors = tuple(tuple(map(ctx.sub, y, c))
                       for y, c in zip(words, codewords))
        return "decoded", codewords, errors, tuple(trace)
    return "failure", None, None, tuple(trace)


def decode(code: GabidulinCode, y) -> DecodeOutcome:
    """Joint-syndrome decoding of a single received word.

    Returns the estimated codeword and error, or a failure outcome; failures
    are values, not exceptions.  The trial trace records (t, rank) for every
    trial rank examined.
    """
    y, s1, s2, yg = code._read(y)
    status, codewords, errors, trace = _joint_decode(code, (y,), s1, s2,
                                                     ((s2, yg),))
    if codewords is None:
        return DecodeOutcome(status, None, None, trace)
    return DecodeOutcome(status, codewords[0], errors[0], trace)


def interleaved_decode(code: GabidulinCode, y1, y2) -> InterleavedOutcome:
    """Decoding of two words sharing one error support.

    Both syndromes come from the ordinary parity check; the stacked system
    and the span polynomial are shared, and each word's codeword comes from
    its own syndrome and y G^T as in single-word decoding."""
    (y1, _, s1, g1), (y2, _, s2, g2) = code._read(y1), code._read(y2)
    return InterleavedOutcome(*_joint_decode(code, (y1, y2), s1, s2,
                                             ((s1, g1), (s2, g2))))
