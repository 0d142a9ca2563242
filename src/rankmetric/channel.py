"""Error ensembles: samplers over F_q matrices and exact counting formulas.

One draw loop, _draw, draws the channel's n-by-t and t-by-t F_q matrices
(a square one is invertible) by rejection from the uniform entry
distribution, which is exactly uniform over the full-rank set and cheap at
the field sizes used here: the acceptance probability of an invertible
t-by-t matrix over F_q is bounded below by prod_i (1 - q^-i), about 0.289
for q = 2.  Entries are drawn into rows with the words that rng.randrange(q)
takes, so a seed gives the matrices of one randrange(q) per entry in row
order.  Every q, q = 2 included, draws, ranks and multiplies with the same
code, and an attempt ranks t packed lines, not a matrix entry by entry.
The public samplers check their inputs and draw through _draw.

Counts are exact Python ints produced directly from the product formulas,
in integer arithmetic only; math.log2, which takes ints of any size, gives
their log2 to well below 1e-6 even for counts far beyond the float range.
"""

from __future__ import annotations

from dataclasses import dataclass

from .field import FieldCtx, _index, _prime_power
from .linalg import _basis, fq_rank, fqn_vecmat


@dataclass(frozen=True)
class SpaceSymError:
    """Rank-t error with equal row and column space: E = A P A^T.

    A is n-by-t of rank t, P is t-by-t invertible, and e is the vector form
    of E relative to the basis alpha the sampler was given,
    e = phi_inv(ctx, E, alpha): column j of E holds the alpha-coordinates of
    e_j.  E itself is not kept.
    """

    t: int
    A: list
    P: list
    e: tuple[int, ...]


def _draw(ctx: FieldCtx, rows: int, cols: int, rng):
    """(M, lines): a uniform rows-by-cols matrix of full rank min(rows,
    cols), unchecked, and its ranked side's lines packed as F_{q^n}
    elements.

    The ranked side is the rows when they fit in n digits (cols <= n) and
    either are at least as long as the columns or the columns do not fit
    (rows > n); it is the columns otherwise.  Once per call, targets lists
    for each row the line that each of its entries joins: row i's own
    line, or the entry's column.  Each attempt draws M row by row, and
    each entry x joins its line j as it is drawn, lines[j] = lines[j] q + x
    (field._packed of the line's entries); fq_rank ranks the lines once
    per attempt."""
    q, n = ctx.q, ctx.n
    by_rows = cols <= n and (cols >= rows or rows > n)
    # a plain loop: a comprehension would make cols a closure cell
    targets = [range(cols)] * rows
    if by_rows:
        for i in range(rows):
            targets[i] = [i] * cols
    width, target = (rows if by_rows else cols), min(rows, cols)
    # randrange(q)'s words: k = q.bit_length() bits, again while >= q
    k, bits = q.bit_length(), rng.getrandbits
    while True:
        M, lines = [], [0] * width
        for js in targets:
            row = []
            for j in js:
                x = bits(k)
                while x >= q:
                    x = bits(k)
                row.append(x)
                lines[j] = lines[j] * q + x
            M.append(row)
        if fq_rank(ctx, lines) == target:
            return M, lines


def sample_full_rank(ctx: FieldCtx, rows: int, cols: int, rng):
    """Uniform matrix of full rank min(rows, cols), drawn by _draw.

    A shape with both sides over n raises ValueError before any draw."""
    rows, cols = _index(rows, "rows"), _index(cols, "cols")
    if rows < 0 or cols < 0:
        raise ValueError(f"need rows, cols >= 0, got {rows}, {cols}")
    if min(rows, cols) > ctx.n:
        raise ValueError(f"no side of a {rows}x{cols} draw fits in n={ctx.n}")
    return _draw(ctx, rows, cols, rng)[0]


def _symmetric_error(ctx: FieldCtx, a, A, P):
    """The vector form of E = A P A^T from the support a = alpha A: with
    b = a P, entry j is sum_l A[j][l] b_l, so e = b A^T; n zeros at
    t = 0."""
    if not P:
        return (0,) * len(A)
    return fqn_vecmat(ctx, fqn_vecmat(ctx, a, P), [*zip(*A)])


def sample_space_symmetric(ctx: FieldCtx, alpha, t: int, rng) -> SpaceSymError:
    """Uniform rank-t error matrix with equal row and column space.

    A and P are drawn uniformly over full-rank n-by-t and invertible t-by-t
    matrices; every such E has exactly |GL_t(F_q)| factorizations, so
    E = A P A^T is uniform over the target ensemble.  The vector form is
    taken relative to alpha, without forming E, by _symmetric_error from
    alpha A.
    """
    alpha = _basis(ctx, alpha)
    t = _index(t, "t")
    if not 0 <= t <= ctx.n:
        raise ValueError(f"need 0 <= t <= {ctx.n}")
    A = _draw(ctx, ctx.n, t, rng)[0]
    P = _draw(ctx, t, t, rng)[0]
    return SpaceSymError(t, A, P, _symmetric_error(
        ctx, fqn_vecmat(ctx, alpha, A), A, P))


# ---------------------------------------------------------------------------
# Exact counting.
# ---------------------------------------------------------------------------

def _check_count_args(n: int, t: int, q: int) -> tuple[int, int, int]:
    """(n, t, q) as the ints read from them; q must be a prime power and
    0 <= t <= n."""
    q = _index(q, "q")
    _prime_power(q)
    n, t = _index(n, "n"), _index(t, "t")
    if not 0 <= t <= n:
        raise ValueError(f"need 0 <= t <= n, got t={t}, n={n}")
    return n, t, q


def _independent(m: int, r: int, q: int) -> int:
    """prod_{i<r} (q^m - q^i): ordered r-tuples of independent vectors of
    F_q^m."""
    out = 1
    for i in range(r):
        out *= q ** m - q ** i
    return out


def _gaussian_binomial(m: int, r: int, q: int) -> int:
    """prod_{i<r} (q^m - q^i) / (q^r - q^i) for r >= 0; r > m gives 0
    through its factor q^m - q^m."""
    return _independent(m, r, q) // _independent(r, r, q)


def gaussian_binomial(n: int, t: int, q: int) -> int:
    """Number of t-dimensional subspaces of F_q^n."""
    n, t, q = _check_count_args(n, t, q)
    return _gaussian_binomial(n, t, q)


def count_space_symmetric(n: int, t: int, q: int) -> int:
    """Number of n-by-n rank-t matrices over F_q whose row and column spaces
    coincide: prod_{i<t} (q^n - q^i)."""
    n, t, q = _check_count_args(n, t, q)
    return _independent(n, t, q)


def count_symmetric(n: int, tprime: int, q: int) -> int:
    """Number of symmetric n-by-n matrices of rank t' over F_q.

    For t' = 2s:   prod_{i=1..s} q^(2i)/(q^(2i)-1) * prod_{i<2s} (q^(n-i)-1)
    For t' = 2s+1: same leading product, trailing product up to i = 2s.
    One integer numerator over one integer denominator, which divides it.
    """
    n, tprime, q = _check_count_args(n, tprime, q)
    num = den = 1
    for i in range(1, tprime // 2 + 1):
        num *= q ** (2 * i)
        den *= q ** (2 * i) - 1
    for i in range(tprime):
        num *= q ** (n - i) - 1
    count, rem = divmod(num, den)
    assert rem == 0
    return count


def count_rank(n: int, tprime: int, q: int) -> int:
    """Number of n-by-n matrices of rank t' over F_q: a t'-dimensional
    column space, then t' independent coordinate rows in it."""
    n, tprime, q = _check_count_args(n, tprime, q)
    return _gaussian_binomial(n, tprime, q) * _independent(n, tprime, q)
