"""Linear algebra over F_q and F_{q^n}.

Vectors are tuples/lists of packed field ints, matrices are lists of row
lists.  Functions prefixed fq_ treat entries as base-field scalars, fqn_
as extension-field elements; the two cannot be told apart structurally, so
the caller picks the right family.  Solvers use the column convention
M x = b.  Kernel bases come out in reduced echelon form of the null space
(one vector per free column, ascending), which keeps outputs reproducible.

Also home to F_p-linear maps tabulated on packed ints (_PackedMap), the
expansion map between length-n vectors over F_{q^n} and n-by-n matrices
over F_q relative to a basis (phi / phi_inv), transposed vectors, Moore
matrices and rank computations.
"""

from __future__ import annotations

from .field import FieldCtx


class InconsistentSystemError(ValueError):
    """Raised when a linear system has no solution."""


# ---------------------------------------------------------------------------
# GF(2) fast path: rows packed as ints, bit i = column i.
# ---------------------------------------------------------------------------

def _gf2_pack(M):
    out = []
    for row in M:
        m = 0
        for j, v in enumerate(row):
            if v:
                m |= 1 << j
        out.append(m)
    return out


def _gf2_unpack(masks, cols):
    return [[(m >> j) & 1 for j in range(cols)] for m in masks]


def _gf2_rref(masks):
    """In-place RREF on bit-packed rows; returns pivot column list."""
    pivots = []
    r = 0
    nrows = len(masks)
    for c in range(max(masks, default=0).bit_length()):
        bit = 1 << c
        for pr in range(r, nrows):
            if masks[pr] & bit:
                break
        else:
            continue
        mr = masks[pr]
        masks[pr] = masks[r]
        masks[r] = mr
        for i in range(nrows):
            if i != r and masks[i] & bit:
                masks[i] ^= mr
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def _gf2_kernel(masks, ncols):
    """Kernel basis of the packed rows, each vector packed the same way.

    Eliminates `masks` in place.  One vector per free column, ascending, as
    in _kernel_from_rref; at q = 2 a packed vector over ncols = n columns is
    also the packed F_{2^n} element with those polynomial-basis digits.
    """
    pivots = _gf2_rref(masks)
    pivset = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivset:
            continue
        fb = 1 << free
        vec = fb
        for i, pc in enumerate(pivots):
            if masks[i] & fb:
                vec |= 1 << pc
        basis.append(vec)
    return basis


def _gf2_dot(m, v):
    """XOR of v[l] over the set bits l of m.

    A packed F_2 row times a vector whose entries add by XOR: F_{2^n}
    elements, or packed rows (then the result is a row of a product).
    """
    acc = 0
    for x in v:
        if m & 1:
            acc ^= x
        m >>= 1
    return acc


def _gf2_vec_mat(v, masks, cols):
    """Row vector v over F_{2^n} times the F_2 matrix with packed rows."""
    out = [0] * cols
    for x, m in zip(v, masks):
        j = 0
        while m:
            if m & 1:
                out[j] ^= x
            m >>= 1
            j += 1
    return out


# ---------------------------------------------------------------------------
# Elimination: generic in the scalar ops over F_q, tabled over F_{q^n}.
# ---------------------------------------------------------------------------

def _rref(add, sub, mul, inv, M, ncols):
    rows = [list(r) for r in M]
    pivots = []
    r = 0
    nrows = len(rows)
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        piv_inv = inv(rows[r][c])
        rows[r] = [mul(piv_inv, v) for v in rows[r]]
        lead = rows[r]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [sub(a, mul(f, b)) if b else a
                           for a, b in zip(rows[i], lead)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def _kernel_from_rref(sub, rows, pivots, ncols):
    pivset = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivset:
            continue
        vec = [0] * ncols
        vec[free] = 1
        for i, pc in enumerate(pivots):
            vec[pc] = sub(0, rows[i][free])
        basis.append(vec)
    return basis


def _ops_fq(ctx: FieldCtx):
    return ctx.base_add, ctx.base_sub, ctx.base_mul, ctx.base_inv


def _fqn_rref(ctx: FieldCtx, M, ncols):
    """_rref over F_{q^n} in the log domain of the tables of ctx.

    The pivot row is scaled as exp[log v + L - log pivot]; every other row
    subtracts exp[log f + log b] at the pivot row's nonzero entries b only,
    with ctx.sub (XOR when p = 2).  Rows and pivots equal those of _rref fed
    ctx.add, ctx.sub, ctx.mul and ctx.inv.
    """
    exp, log, L, sub = ctx._exp, ctx._log, ctx.order - 1, ctx.sub
    rows = [list(r) for r in M]
    pivots = []
    nrows = len(rows)
    for c in range(ncols):
        r = len(pivots)
        for pr in range(r, nrows):
            if rows[pr][c]:
                break
        else:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        lead = rows[r]
        s = L - log[lead[c]]
        nz = [(j, (log[v] + s) % L) for j, v in enumerate(lead) if v]
        for j, lb in nz:
            lead[j] = exp[lb]
        for row in rows:
            if row[c] and row is not lead:
                lf = log[row[c]]
                for j, lb in nz:
                    row[j] = sub(row[j], exp[lf + lb])
        pivots.append(c)
        if r + 1 == nrows:
            break
    return rows, pivots


# ---------------------------------------------------------------------------
# Public F_q / F_{q^n} matrix operations.
# ---------------------------------------------------------------------------

def fq_rank(ctx: FieldCtx, M) -> int:
    if not M:
        return 0
    if ctx.q == 2:
        return len(_gf2_rref(_gf2_pack(M)))
    return len(_rref(*_ops_fq(ctx), M, len(M[0]))[1])


def fq_kernel(ctx: FieldCtx, M):
    if not M:
        return []
    ncols = len(M[0])
    rows, pivots = _rref(*_ops_fq(ctx), M, ncols)
    return _kernel_from_rref(ctx.base_sub, rows, pivots, ncols)


def fqn_rank(ctx: FieldCtx, M) -> int:
    if not M:
        return 0
    return len(_fqn_rref(ctx, M, len(M[0]))[1])


def fqn_kernel(ctx: FieldCtx, M):
    if not M:
        return []
    rows, pivots = _fqn_rref(ctx, M, len(M[0]))
    return _kernel_from_rref(ctx.sub, rows, pivots, len(M[0]))


def fqn_solve(ctx: FieldCtx, M, rhs):
    """One solution of M x = rhs over F_{q^n}; raises if inconsistent."""
    if len(rhs) != len(M):
        raise ValueError(f"rhs must have {len(M)} entries, one per row")
    ncols = len(M[0]) if M else 0
    aug = [list(row) + [b] for row, b in zip(M, rhs)]
    rows, pivots = _fqn_rref(ctx, aug, ncols + 1)
    if pivots and pivots[-1] == ncols:
        raise InconsistentSystemError("linear system has no solution")
    x = [0] * ncols
    for i, pc in enumerate(pivots):
        x[pc] = rows[i][ncols]
    return x


def _matmul(add, mul, A, B):
    """Product A B of row-list matrices under the given scalar ops."""
    cols = len(B[0]) if B else 0
    out = []
    for row in A:
        orow = [0] * cols
        for l, a in enumerate(row):
            if a:
                brow = B[l]
                for j in range(cols):
                    if brow[j]:
                        orow[j] = add(orow[j], mul(a, brow[j]))
        out.append(orow)
    return out


def fq_matmul(ctx: FieldCtx, A, B):
    return _matmul(ctx.base_add, ctx.base_mul, A, B)


def fq_transpose(M):
    return [list(col) for col in zip(*M)]


def fqn_matmul(ctx: FieldCtx, X, Y):
    """Product of two matrices over F_{q^n}; F_q entries embed as-is."""
    return _matmul(ctx.add, ctx.mul, X, Y)


def fqn_vec_fq_mat(ctx: FieldCtx, v, M):
    """Row vector over F_{q^n} times a matrix over F_q."""
    return tuple(_matmul(ctx.add, ctx.mul, [v], M)[0])


# ---------------------------------------------------------------------------
# Basis expansion map and friends.
# ---------------------------------------------------------------------------

class _PackedMap:
    """An F_p-linear map of m elements of F_{q^n}, tabulated on packed ints.

    images[j][u] lists the output values, of D base-p digits each, of the
    unit p^u at input j (other inputs zero).  Digit t of output r has an
    S-bit slot at bit (r D + t) S.  At p = 2, S = 1 and images combine by
    XOR, so the packed int is the output values laid end to end.  At odd p
    apply adds digit times image, S is wide enough that the m n e terms of
    at most (p - 1)^2 in a slot never carry, and values reads slots mod p.
    """

    def __init__(self, ctx: FieldCtx, images, D: int):
        p = self.p = ctx.p
        S = 1 if p == 2 else (
            len(images) * ctx.n * ctx.e * (p - 1) ** 2).bit_length()
        self._starts = [r * D * S for r in range(len(images[0][0]))]
        self._chunk, self._slot = (1 << D * S) - 1, (1 << S) - 1
        self._inner = [t * S for t in reversed(range(D))]
        powers = [(p ** t, t * S) for t in range(D)]

        def packed(vals):
            if p == 2:
                return sum(v << s for v, s in zip(vals, self._starts))
            return sum(v // w % p << s + t for v, s in zip(vals, self._starts)
                       for w, t in powers)

        self._table = [[packed(vals) for vals in col] for col in images]

    def apply(self, xs) -> int:
        """Sum of the images of the base-p digits of the inputs, packed."""
        acc, p = 0, self.p
        if p == 2:
            for x, col in zip(xs, self._table):
                acc ^= _gf2_dot(x, col)
            return acc
        for x, col in zip(xs, self._table):
            for img in col:
                acc += x % p * img
                x //= p
        return acc

    def values(self, acc: int) -> tuple[int, ...]:
        """The output values held in a packed int from apply."""
        p, chunk = self.p, self._chunk
        if p == 2:
            return tuple([acc >> s & chunk for s in self._starts])
        slot, inner = self._slot, self._inner
        out = []
        for s in self._starts:
            c = acc >> s & chunk
            v = 0
            for t in inner:
                v = v * p + (c >> t & slot) % p
            out.append(v)
        return tuple(out)


class _CoordSolver(_PackedMap):
    """Coordinates of extension elements relative to a fixed basis alpha.

    The packed map with one input whose outputs are the n coordinates, each
    an F_q element of e base-p digits; the image of a unit is the matching
    column of the inverse basis matrix.
    """

    def __init__(self, ctx: FieldCtx, alpha):
        n, p, e = ctx.n, ctx.p, ctx.e
        if len(alpha) != n:
            raise ValueError(f"basis must have {n} entries")
        # column j of the basis matrix = digit vector of alpha_j
        mat = fq_transpose([ctx.coeffs(a) for a in alpha])
        aug = [row + [1 if i == j else 0 for j in range(n)]
               for i, row in enumerate(mat)]
        rows, pivots = _rref(*_ops_fq(ctx), aug, 2 * n)
        if pivots[:n] != list(range(n)):
            raise ValueError("alpha is not a basis")
        # the unit p^u is p^(u mod e) times the polynomial-basis element
        # u div e, whose coordinates are that column of the inverse
        units = [[ctx.base_mul(p ** (u % e), row[n + u // e]) for row in rows]
                 for u in range(n * e)]
        super().__init__(ctx, [units], e)

    def coords(self, x: int):
        return self.values(self.apply((x,)))


def _check_vector(ctx: FieldCtx, v, length, what):
    """Reject a wrong length or an entry outside F_{q^n}."""
    if len(v) != length:
        raise ValueError(f"{what} must have length {length}")
    if v and (min(v) < 0 or max(v) >= ctx.order):
        raise ValueError(
            f"{what} entries must lie in [0, q^n) = [0, {ctx.order})")


def phi(ctx: FieldCtx, a, alpha):
    """n-by-n matrix over F_q whose column j holds the alpha-coordinates of a_j."""
    _check_vector(ctx, a, ctx.n, "vector")
    coords = _CoordSolver(ctx, alpha).coords
    return fq_transpose([coords(x) for x in a])


def phi_inv(ctx: FieldCtx, A, alpha):
    """Vector a with a_j = sum_i alpha_i A[i][j]; inverse of phi."""
    n = ctx.n
    if len(alpha) != n:
        raise ValueError(f"basis must have {n} entries")
    if len(A) != n or any(len(row) != n for row in A):
        raise ValueError(f"matrix must be {n}x{n}")
    return fqn_vec_fq_mat(ctx, alpha, A)


def transpose_vector(ctx: FieldCtx, a, alpha):
    """Vector whose expansion matrix is the transpose of that of a."""
    return phi_inv(ctx, fq_transpose(phi(ctx, a, alpha)), alpha)


def moore_matrix(ctx: FieldCtx, v, rows: int, shift: int = 0):
    """Matrix with entry (r, c) = v_c^(q-power r + shift)."""
    if rows < 1:
        raise ValueError("need at least one row")
    frob = ctx.frob
    return [[frob(x, r + shift) for x in v] for r in range(rows)]


def vector_rank(ctx: FieldCtx, v) -> int:
    """Rank of a vector over F_{q^n}: dimension of the F_q-span of its entries.

    Computed as the F_q-rank of the expansion in the polynomial basis, whose
    coordinates are the packed digits; the rank does not depend on the basis.
    """
    _check_vector(ctx, v, len(v), "vector")
    return fq_rank(ctx, fq_transpose([ctx.coeffs(x) for x in v]))


# ---------------------------------------------------------------------------
# Serialization: F_{q^n} vectors as comma-separated ':'-joined coefficient
# strings.
# ---------------------------------------------------------------------------

def fqn_vector_str(ctx: FieldCtx, v) -> str:
    return ",".join(ctx.elem_str(x) for x in v)


def parse_fqn_vector(ctx: FieldCtx, text: str):
    return tuple(ctx.parse_elem(part) for part in text.strip().split(","))

