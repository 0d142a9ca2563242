"""Linear algebra over F_q and F_{q^n}.

Vectors are tuples/lists of packed field ints, matrices are lists of row
lists.  F_q is the subfield of F_{q^n} made of the ints below q, so
fq_matmul takes F_q entries as F_{q^n} elements in [0, q) and multiplies
row by row through fqn_vecmat, the package's one product: multiplying F_q
matrices never leaves the subfield.

There are two eliminations, one per field.  Over F_{q^n}, _insert_rows
inserts rows one by one into an echelon basis in the log domain: the
decoder's trial-rank countdown keeps one basis across its trials and
reads its kernel vector off it (_kernel_vector), and scenario 2 counts
the pivots of its Moore rows.  Every F_q rank is fq_rank's, on packed
rows: a row of at most n F_q entries, as base-q digits (field._packed),
is an element of F_{q^n}, and F_q row operations are the field's own _sub
and _mul by a digit, one table step per row operation instead of one per
entry.  The per-decode loops here are plain loops, not comprehensions,
so that their locals stay fast locals under Python 3.11.

Every public function reads its input once, by field._ints or _dims,
and computes only on the ints read.  fq_rank reads its input unchecked
and stays out of the package's exports: the sampler calls it per
attempt, where a check would cost 0.5 to 1.1 times the rank itself.

Also home to F_p-linear maps tabulated on packed ints (_PackedMap), the
map from n-by-n matrices over F_q to length-n vectors over F_{q^n}
relative to a basis (phi_inv), and Moore matrices.
"""

from __future__ import annotations

import operator

from .field import FieldCtx, _FQ_RANGE, _halves, _index, _ints


# ---------------------------------------------------------------------------
# Elimination over F_{q^n} (so over F_q) in the log domain.
# ---------------------------------------------------------------------------

def _insert_rows(ctx: FieldCtx, basis, rows):
    """Add each row (a list, consumed) to basis, which maps each pivot column
    to its row's (column, log entry) pairs right of the leading 1."""
    exp, log, L, sub = ctx._exp, ctx._log, ctx.order - 1, ctx._sub
    for row in rows:
        for c, v in enumerate(row):   # reads row[c] after the updates below
            if not v:
                continue
            b = basis.get(c)
            if b is None:
                s, b = L - log[v], []
                for j in range(c + 1, len(row)):
                    if row[j]:
                        b.append((j, (log[row[j]] + s) % L))
                basis[c] = b
                break
            lf = log[v]
            for j, lb in b:
                row[j] = sub(row[j], exp[lf + lb])


def _kernel_vector(ctx: FieldCtx, basis, t: int):
    """The kernel vector of a rank-t echelon basis on columns 0..t.

    The kernel is one-dimensional; the vector is scaled to 1 at the one
    column without a pivot and found by back substitution from column t."""
    exp, log, sub = ctx._exp, ctx._log, ctx._sub
    vec = [0] * (t + 1)
    for c in range(t, -1, -1):
        acc = 0 if c in basis else 1
        for j, lb in basis.get(c, ()):
            if vec[j]:
                acc = sub(acc, exp[log[vec[j]] + lb])
        vec[c] = acc
    return vec


# ---------------------------------------------------------------------------
# Elimination over F_q on packed rows.
# ---------------------------------------------------------------------------

def fq_rank(ctx: FieldCtx, xs) -> int:
    """Dimension of the F_q-span of the F_{q^n} elements xs, unchecked.

    Each element is a row of n F_q entries, its base-q digits, and the
    field's own _sub and _mul are the row operations.  basis maps a digit
    position to an element whose top digit, there, is 1; an element with
    top digit d at a basis position c is reduced to r - d basis[c] until it
    is 0 or leads at a new position, read off the field's q-power table
    _qpow and its bit-length table _top."""
    sub, mul, inv = ctx._sub, ctx._mul, ctx._inv
    top, qpow = ctx._top, ctx._qpow
    basis = {}
    for r in xs:
        while r:
            c = top[r.bit_length()]
            if r < qpow[c]:
                c -= 1
            d = r // qpow[c]
            b = basis.get(c)
            if b is None:
                basis[c] = mul(inv(d), r)
                break
            r = sub(r, mul(d, b))
    return len(basis)


# ---------------------------------------------------------------------------
# Public F_q / F_{q^n} matrix operations.
# ---------------------------------------------------------------------------

def fqn_vecmat(ctx: FieldCtx, v, M):
    """Row vector v times matrix M, both over F_{q^n}, in the log domain."""
    exp, log, add = ctx._exp, ctx._log, ctx._add
    out = [0] * (len(M[0]) if M else 0)
    for l, a in enumerate(v):
        if a:
            la = log[a]
            for j, b in enumerate(M[l]):
                if b:
                    out[j] = add(out[j], exp[la + log[b]])
    return tuple(out)


def fq_matmul(ctx: FieldCtx, A, B):
    """Product A B over F_q, entries F_q elements in [0, q), row by row."""
    (A, (r, m)), (B, (m2, c)) = _dims(A, ctx.q), _dims(B, ctx.q)
    if m != m2:
        raise ValueError(f"cannot multiply {r}x{m} by {m2}x{c} matrices")
    return [list(fqn_vecmat(ctx, row, B)) for row in A]


# ---------------------------------------------------------------------------
# Basis expansion map and friends.
# ---------------------------------------------------------------------------

class _PackedMap:
    """An F_p-linear map of m elements of F_{q^n}, tabulated on packed ints.

    images[j][u] lists the output values, of D = n e base-p digits each, of
    the unit p^u at input j (other inputs zero).  Digit t of output r has
    an S-bit slot at bit (r D + t) S.  Input j, of N = n e base-p digits,
    is tabulated as the field._halves of its unit images: two tables of
    p^floor(N/2) and p^ceil(N/2) entries, whose entry u is the sum of the
    images weighted by the base-p digits of u, so a call makes two lookups
    per input.  At p = 2, S = 1 and images combine by XOR, so the packed
    int is the output values laid end to end.  At odd p the entries are
    integer sums, and the _halves of the slot units spread a value's
    digits into slots.  A slot holds at most m D digit-times-image terms
    of at most (p - 1)^2, so it never carries in S bits.  S is 8 when that
    bound is below 256 (so p < 16, and p <= 7 for a code, where m, D >= 2):
    a call maps every slot byte to the digit of its value mod p with one
    bytes.translate and parses each output with one int(., p).  Otherwise S
    is the bound's bit length and a call reads the slots digit by digit.
    """

    def __init__(self, ctx: FieldCtx, images):
        p = self.p = ctx.p
        D = self._D = ctx.n * ctx.e
        bound = len(images) * D * (p - 1) ** 2
        S = 1 if p == 2 else 8 if bound < 256 else bound.bit_length()
        R = len(images[0][0])
        starts = self._starts = [r * D * S for r in range(R)]
        self._mask, self._slot = (1 << D * S) - 1, (1 << S) - 1
        self._inner = [t * S for t in reversed(range(D))]
        self._digits = None
        if p > 2 and S == 8:  # byte slots: byte v reads as digit v mod p
            self._digits = (b"0123456789abcdef"[:p] * (256 // p + 1))[:256]
            self._bytes, self._ends = R * D, range((R - 1) * D, -1, -D)
        add = operator.xor if p == 2 else operator.add
        if p > 2:  # each value's digits into S-bit slots, by two lookups
            lo, hi, P = _halves(p, [1 << t * S for t in range(D)], add)
            images = [[[lo[v % P] + hi[v // P] for v in vals] for vals in col]
                      for col in images]
        self._table = [
            _halves(p, [sum(v << s for v, s in zip(vals, starts))
                        for vals in col], add)
            for col in images]

    def __call__(self, xs) -> tuple[int, ...]:
        """The output values of the map at the inputs xs: the packed sum of
        the images of their base-p digits, read back value by value."""
        acc, p, out = 0, self.p, []
        if p == 2:
            for x, (lo, hi, P) in zip(xs, self._table):
                acc ^= lo[x % P] ^ hi[x // P]
            mask = self._mask
            for s in self._starts:
                out.append(acc >> s & mask)
            return tuple(out)
        for x, (lo, hi, P) in zip(xs, self._table):
            acc += lo[x % P] + hi[x // P]
        if self._digits is not None:  # output 0 is in the low bytes
            D = self._D
            b = acc.to_bytes(self._bytes, "big").translate(self._digits)
            for i in self._ends:
                out.append(int(b[i:i + D], p))
            return tuple(out)
        mask, slot, inner = self._mask, self._slot, self._inner
        for s in self._starts:
            c = acc >> s & mask
            v = 0
            for t in inner:
                v = v * p + (c >> t & slot) % p
            out.append(v)
        return tuple(out)


def _dims(M, q):
    """(rows, shape) of the F_q matrix M, its rows read as by _ints with
    entries in [0, q); rejects ragged rows."""
    M = [_ints(row, "matrix", q, _FQ_RANGE) for row in M]
    widths = {len(row) for row in M}
    if len(widths) > 1:
        raise ValueError(f"matrix rows have unequal lengths {sorted(widths)}")
    return M, (len(M), max(widths, default=0))


def _basis(ctx: FieldCtx, alpha):
    """alpha read by field._ints; raises unless it is a basis over F_q."""
    alpha = _ints(alpha, "basis", ctx.order, length=ctx.n)
    if fq_rank(ctx, alpha) < ctx.n:
        raise ValueError("alpha is not a basis")
    return alpha


def phi_inv(ctx: FieldCtx, A, alpha):
    """Vector a with a_j = sum_i alpha_i A[i][j], the vector whose column j
    of alpha-coordinates is column j of the F_q matrix A."""
    alpha = _basis(ctx, alpha)
    A, shape = _dims(A, ctx.q)
    if shape != (ctx.n, ctx.n):
        raise ValueError(f"matrix must be {ctx.n}x{ctx.n}")
    return fqn_vecmat(ctx, alpha, A)


def moore_matrix(ctx: FieldCtx, v, rows: int):
    """Matrix with entry (r, c) = v_c^(q^r)."""
    rows = _index(rows, "rows")
    if rows < 1:
        raise ValueError("need at least one row")
    v = _ints(v, "vector", ctx.order)
    frob = ctx._frob
    return [[frob(x, r) for x in v] for r in range(rows)]


def vector_rank(ctx: FieldCtx, v) -> int:
    """Rank of a vector over F_{q^n}: dimension of the F_q-span of its
    entries, which fq_rank eliminates as they are packed."""
    return fq_rank(ctx, _ints(v, "vector", ctx.order))
