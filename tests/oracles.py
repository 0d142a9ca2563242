"""Brute-force oracles shared by the test modules.

Deliberately independent of the library: plain mod-p elimination over lists
and exhaustive enumeration, so they cross-check the production formulas
rather than mirroring them.  Kernels, solves and basis coordinates over
F_{q^n} (kernel, solve, coords) run the textbook rref below under the
field's scalar ops, products (matmul) take one scalar op per term, and
the packed q = 2 root-space kernel runs _gf2_rref on bit rows, not the
library's log-domain elimination.  The countdown reference builds its
stacked syndrome rows with one ctx._frob per entry.
The library pieces still reused are:

- the trial-rank countdown reference: fqn_vecmat to turn a solve into
  an error;
- the exp/log reference: the tuple product _pmul and _pmod, not the
  shift-and-XOR product of F_2, and _factor;
- transpose_vector: phi_inv around coords and transpose;
- code_matrices: moore_matrix;
- base_ops: field._prime_ops, _smallest_irreducible and _tabled, the F_q
  level of the field build, so the subfield of F_{q^n} is checked against
  F_q's own tables;
- matrix_rank: linalg._insert_rows, the log-domain elimination, counted
  by its pivots; sample_symmetric_invertible rejects by it and draws with
  rng.randrange(q) itself, the draws it gave as a library sampler.
"""

import itertools
from functools import reduce

from rankmetric import moore_matrix, phi_inv
from rankmetric.field import _factor, _pmod, _pmul, _prime_ops, _ptrim, \
    _smallest_irreducible, _tabled
from rankmetric.linalg import _insert_rows, fqn_vecmat


def transpose(M):
    return [list(col) for col in zip(*M)]


def matmul(ctx, X, Y):
    """Schoolbook product X Y over F_{q^n}: one ctx._add and one ctx._mul per
    term, zero terms included, and no log domain; the reference for
    linalg.fqn_vecmat and fq_matmul."""
    cols = len(Y[0]) if Y else 0
    out = []
    for row in X:
        orow = []
        for j in range(cols):
            acc = 0
            for x, yrow in zip(row, Y, strict=True):
                acc = ctx._add(acc, ctx._mul(x, yrow[j]))
            orow.append(acc)
        out.append(orow)
    return out


def rank_mod_p(M, p):
    M = [row[:] for row in M]
    rank = 0
    cols = len(M[0]) if M else 0
    for c in range(cols):
        piv = next((r for r in range(rank, len(M)) if M[r][c] % p), None)
        if piv is None:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        inv = pow(M[rank][c], p - 2, p)
        M[rank] = [(v * inv) % p for v in M[rank]]
        for r in range(len(M)):
            if r != rank and M[r][c] % p:
                f = M[r][c]
                M[r] = [(a - f * b) % p for a, b in zip(M[r], M[rank])]
        rank += 1
    return rank


def base_ops(ctx):
    """F_q's own scalar ops (add, sub, mul, inv), built as the field builds
    them: mod p, or at e > 1 the tables of F_p[x] modulo the smallest
    irreducible of degree e.  The subfield ops ctx._add ... on the ints
    below q must agree with them."""
    fo = _prime_ops(ctx.p)
    if ctx.e > 1:
        fo = _tabled(ctx.p, fo, _smallest_irreducible(fo, ctx.e))[0]
    return fo.add, fo.sub, fo.mul, fo.inv


def rref(add, sub, mul, inv, M, ncols):
    """Reduced row echelon form under the given scalar ops: (rows, pivots).

    Textbook elimination, one scalar op per entry; the reference that the
    library's log-domain elimination is checked against.
    """
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


def matrix_rank(ctx, M) -> int:
    """Rank of a matrix over F_{q^n} (so over F_q): the pivot count of the
    library's log-domain elimination on copies of its rows, unchecked."""
    basis = {}
    _insert_rows(ctx, basis, [list(r) for r in M])
    return len(basis)


def kernel(ctx, M):
    """Kernel basis of M under ctx's ops: one vector per free column of
    rref(M), ascending, with 1 there and minus that column at the pivots."""
    if not M:
        return []
    ncols = len(M[0])
    rows, pivots = rref(ctx._add, ctx._sub, ctx._mul, ctx._inv, M, ncols)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [0] * ncols
        vec[free] = 1
        for row, pc in zip(rows, pivots):
            vec[pc] = ctx._sub(0, row[free])
        basis.append(vec)
    return basis


def solve(ctx, M, rhs):
    """The solution of M x = rhs under ctx's ops with its free entries 0,
    or None when the system is inconsistent."""
    ncols = len(M[0]) if M else 0
    aug = [list(row) + [b] for row, b in zip(M, rhs)]
    rows, pivots = rref(ctx._add, ctx._sub, ctx._mul, ctx._inv, aug, ncols + 1)
    if pivots and pivots[-1] == ncols:
        return None
    x = [0] * ncols
    for row, pc in zip(rows, pivots):
        x[pc] = row[ncols]
    return x


def coords(ctx, alpha, xs):
    """Matrix over F_q whose column j holds the alpha-coordinates of xs[j]:
    the augmented part of rref of the basis matrix (column i = digits of
    alpha_i) augmented by the digit columns of the xs."""
    n = ctx.n
    digits = [ctx.coeffs(x) for x in alpha] + [ctx.coeffs(x) for x in xs]
    rows, pivots = rref(ctx._add, ctx._sub, ctx._mul, ctx._inv,
                        transpose(digits), n + len(xs))
    if pivots[:n] != list(range(n)):
        raise ValueError("alpha is not a basis")
    return [row[n:] for row in rows]


def transpose_vector(ctx, a, alpha):
    """Vector whose expansion matrix is the transpose of that of a."""
    return phi_inv(ctx, transpose(coords(ctx, alpha, a)), alpha)


def code_matrices(code):
    """(G, H, Hhat) of a code: rows 0..k-1, k..n-1 and 1..n-k of the n-row
    Moore matrix of its locators."""
    n, k = code.n, code.k
    M = moore_matrix(code.ctx, code.alpha, n)
    return M[:k], M[k:], M[1:n - k + 1]


def syndrome_against(ctx, y, H):
    """y H^T by direct products under ctx._add and ctx._mul."""
    out = []
    for row in H:
        acc = 0
        for a, b in zip(y, row):
            acc = ctx._add(acc, ctx._mul(a, b))
        out.append(acc)
    return tuple(out)


def sample_symmetric_invertible(ctx, t, rng):
    """Uniform invertible symmetric t-by-t matrix over F_q: the upper
    triangle row by row, rejected until the rank is t."""
    if t < 1:
        raise ValueError("t must be >= 1")
    while True:
        M = [[0] * t for _ in range(t)]
        for i in range(t):
            for j in range(i, t):
                M[i][j] = M[j][i] = rng.randrange(ctx.q)
        if matrix_rank(ctx, M) == t:
            return M


def lin_qdeg(f) -> int:
    """q-degree of a normalized linearized polynomial; -1 for zero."""
    return len(f) - 1


def lin_eval(ctx, f, x):
    """f(x) = sum_i f_i x^(q^i)."""
    acc = 0
    for i, c in enumerate(f):
        if c:
            acc = ctx._add(acc, ctx._mul(c, ctx._frob(x, i)))
    return acc


def lin_compose_mod(ctx, outer, inner, mod_qdeg):
    """Coefficients 0..mod_qdeg-1 of outer(inner(x)).

    Coefficient p of the composition is sum_{j<=p} outer_j * inner_{p-j}^(q^j);
    everything at index mod_qdeg and above is dropped.
    """
    if mod_qdeg < 1:
        raise ValueError("mod_qdeg must be >= 1")
    add, mul, frob = ctx._add, ctx._mul, ctx._frob
    out = []
    for p in range(mod_qdeg):
        acc = 0
        for j in range(min(p, len(outer) - 1) + 1):
            c = outer[j]
            idx = p - j
            if c and idx < len(inner) and inner[idx]:
                acc = add(acc, mul(c, frob(inner[idx], j)))
        out.append(acc)
    return _ptrim(out)


def right_remainder_is_x(ctx, g):
    """Whether x^(q^n) = x modulo g by right symbolic division.

    g has q-degree t = len(g) - 1 >= 1 and g_t != 0.  The remainder r of
    x^(q^i) steps to that of x^(q^(i+1)) as x^q o r, a Frobenius of every
    coefficient and a shift, less c g / g_t for the top coefficient c that
    the shift pushed to q-degree t.  Right division in plain scalar ops,
    where the decoder divides on the left in the log domain.
    """
    t = len(g) - 1
    sub, mul, frob = ctx._sub, ctx._mul, ctx._frob
    inv_lead = ctx._inv(g[t])
    x = [1] + [0] * (t - 1)
    r = x
    for _ in range(ctx.n):
        top = frob(r[-1], 1)
        r = [0] + [frob(c, 1) for c in r[:-1]]
        if top:
            c = mul(top, inv_lead)
            r = [sub(v, mul(c, gj)) for v, gj in zip(r, g)]
    return r == x


def min_subspace_poly(ctx, gens):
    """Monic linearized polynomial vanishing exactly on the F_q-span of gens.

    Built iteratively: with g independent of the current root space and f the
    polynomial so far, f(x)^q - f(g)^(q-1) f(x) extends the root space by g,
    with v^(q-1) = v^q / v.  Dependent generators evaluate to zero under f and
    are skipped, so redundant spanning sets are fine; the q-degree equals
    dim span(gens).
    """
    sub, mul, frob = ctx._sub, ctx._mul, ctx._frob
    f = (1,)
    for g in gens:
        v = lin_eval(ctx, f, g)
        if v == 0:
            continue
        scale = mul(frob(v, 1), ctx._inv(v))
        shifted = (0,) + tuple(frob(c, 1) for c in f)
        padded = tuple(f) + (0,)
        f = tuple(sub(s, mul(scale, c)) for s, c in zip(shifted, padded))
    return _ptrim(f)


def key_equation_remainder(ctx, gamma, s):
    """Low-order part of gamma composed with the syndrome polynomial.

    For a genuine error of rank t with gamma its span polynomial, the result
    has q-degree below t: all composition coefficients from index t up to
    n-k-1 vanish."""
    return lin_compose_mod(ctx, gamma, tuple(s), len(s))


def digit_add(p, a, b, sign=1):
    """a + sign * b for packed elements of a field of characteristic p.

    Field elements are packed as base-q digits with q = p^e, and each base-q
    digit packs its F_q coefficients as base-p digits, so addition at either
    level is base-p digit-wise addition mod p.
    """
    out, mult = 0, 1
    while a or b:
        out += (a % p + sign * (b % p)) % p * mult
        mult *= p
        a //= p
        b //= p
    return out


def packed_map_tables(ctx, images, D):
    """The (lo, hi, P) half tables of each input of linalg._PackedMap,
    packed one base-p digit at a time.

    images[j][u] lists the output values, of D base-p digits, of the unit
    p^u at input j.  Digit t of output r goes in the S-bit slot at bit
    (r D + t) S: S = 1 at p = 2, else the bit length of m n e (p - 1)^2 for
    m inputs.  With a = N // 2 for the N = n e units of an input and
    P = p^a, entry u of lo combines the packed images of the low a units
    weighted by the base-p digits of u, and entry u of hi those of the
    other N - a units: by XOR at p = 2, by integer sums at odd p.
    """
    p, N = ctx.p, ctx.n * ctx.e
    S = 1 if p == 2 else (len(images) * N * (p - 1) ** 2).bit_length()
    a = N // 2

    def packed(vals):
        return sum(v // p ** t % p << (r * D + t) * S
                   for r, v in enumerate(vals) for t in range(D))

    def combine(units, u):
        out = 0
        for k, x in enumerate(units):
            for _ in range(u // p ** k % p):
                out = out ^ x if p == 2 else out + x
        return out

    tables = []
    for col in images:
        units = [packed(vals) for vals in col]
        lo, hi = units[:a], units[a:]
        tables.append(([combine(lo, u) for u in range(p ** len(lo))],
                       [combine(hi, u) for u in range(p ** len(hi))],
                       p ** a))
    return tables


def walk_tables(fo, mod):
    """exp and log tables of F[x]/(mod), F the coefficient field of fo.

    The reference for field._tabled: gen is the smallest packed int from 2 on
    whose (L/r)-th powers all differ from 1, L = order - 1 and r the prime
    factors of L, and exp is the walk v -> v * gen from 1, one packed-digit
    polynomial product per entry, stored twice.  log[0] = -1.
    """
    base, order = fo.q, fo.q ** (len(mod) - 1)

    def digits(a):
        return tuple(a // base ** i % base for i in range(len(mod) - 1))

    def mul_raw(a, b):
        prod = _pmod(fo, _pmul(fo, digits(a), digits(b)), mod)
        return sum(c * base ** i for i, c in enumerate(prod))

    def raw_pow(g, m):
        r = 1
        while m:
            if m & 1:
                r = mul_raw(r, g)
            g = mul_raw(g, g)
            m >>= 1
        return r

    L = order - 1
    gen = next((g for g in range(2, order)
                if all(raw_pow(g, L // r) != 1 for r in _factor(L))), 1)
    exp = [0] * (2 * L)
    log = [-1] * order
    v = 1
    for i in range(L):
        exp[i] = exp[i + L] = v
        log[v] = i
        v = mul_raw(v, gen)
    return exp, log


def census(n, q):
    """Counts of n-by-n matrices over F_q by rank: all, symmetric, and
    row-space-equals-column-space."""
    by_rank = {}
    sym = {}
    spsym = {}
    for entries in itertools.product(range(q), repeat=n * n):
        M = [list(entries[i * n:(i + 1) * n]) for i in range(n)]
        r = rank_mod_p(M, q)
        by_rank[r] = by_rank.get(r, 0) + 1
        if all(M[i][j] == M[j][i] for i in range(n) for j in range(n)):
            sym[r] = sym.get(r, 0) + 1
        MT = [list(c) for c in zip(*M)]
        if rank_mod_p(M + MT, q) == r:
            spsym[r] = spsym.get(r, 0) + 1
    return by_rank, sym, spsym


def subspace_count(n, t, q):
    """Number of distinct t-dimensional subspaces of F_q^n by enumeration."""
    vectors = list(itertools.product(range(q), repeat=n))
    spans = set()
    for combo in itertools.combinations(vectors[1:], t):
        M = [list(v) for v in combo]
        if rank_mod_p(M, q) != t:
            continue
        span = frozenset(
            tuple(sum(c * v[i] for c, v in zip(coeffs, combo)) % q
                  for i in range(n))
            for coeffs in itertools.product(range(q), repeat=t))
        spans.add(span)
    return len(spans)


def general_linear(t, q):
    """Every invertible t-by-t matrix over F_q (q prime), as lists of rows."""
    return [P for P in (
        [list(entries[i * t:(i + 1) * t]) for i in range(t)]
        for entries in itertools.product(range(q), repeat=t * t))
        if rank_mod_p(P, q) == t]


def echelon_supports(n, t, q):
    """The reduced column-echelon n-by-t matrices of rank t over F_q (q
    prime): one basis of each t-dimensional subspace of F_q^n."""
    for pivots in itertools.combinations(range(n), t):
        # column i of A: 1 at pivots[i], 0 at the other pivots and above
        free = [(r, i) for i, c in enumerate(pivots)
                for r in range(c + 1, n) if r not in pivots]
        for digits in itertools.product(range(q), repeat=len(free)):
            A = [[0] * t for _ in range(n)]
            for i, c in enumerate(pivots):
                A[c][i] = 1
            for (r, i), d in zip(free, digits):
                A[r][i] = d
            yield A


def space_symmetric(n, t, q):
    """Every n-by-n rank-t matrix E over F_q (q prime) whose row and column
    spaces coincide, each exactly once, as E = A P A^T.

    A runs over echelon_supports (one per t-dimensional column space) and P
    over GL_t(F_q); A has full column rank, so E determines P.
    """
    gl = general_linear(t, q)
    for A in echelon_supports(n, t, q):
        for P in gl:
            AP = [[sum(a * p for a, p in zip(row, col)) % q
                   for col in zip(*P)] for row in A]
            yield [[sum(x * y for x, y in zip(ap, a)) % q for a in A]
                   for ap in AP]


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
    in kernel; at q = 2 a packed vector over ncols = n columns is also
    the packed F_{2^n} element with those polynomial-basis digits.
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


def root_space_basis(ctx, f):
    """F_q-independent elements spanning the root space {x : f(x) = 0}.

    The linearized map x -> f(x) is expanded into the n-by-n matrix acting on
    polynomial-basis coordinates; kernel vectors are packed back into field
    elements.  Returns at most qdeg(f) elements.  f is evaluated at the units
    w^j in the log domain: the log of w^(j q^i) is log(w^j) q^i mod q^n - 1.
    At q = 2 the images of the w^j are the packed matrix columns and the
    kernel vectors are already the packed elements.
    """
    if not _ptrim(f):
        raise ValueError("root space of the zero polynomial is everything")
    n, q = ctx.n, ctx.q
    exp, log, L = ctx._exp, ctx._log, ctx.order - 1
    terms = [(log[c], pow(q, i, L)) for i, c in enumerate(f) if c]
    images = [reduce(ctx._add, [exp[lc + lw * qp % L] for lc, qp in terms])
              for lw in [log[q ** j] for j in range(n)]]
    if q == 2:
        rows = [0] * n
        for j, x in enumerate(images):
            i = 0
            while x:
                if x & 1:
                    rows[i] |= 1 << j
                x >>= 1
                i += 1
        return _gf2_kernel(rows, n)
    M = transpose([ctx.coeffs(x) for x in images])
    return [ctx.from_coeffs(vec) for vec in kernel(ctx, M)]


def recover_error(code, a, s2):
    """Error vector with support basis a matching the ordinary syndrome s2.

    Solves sum_l a_l^(q^-j) d_l = s2_j^(q^-j) over all n-k syndrome rows; the
    overdetermined rows are kept so that a wrong support basis surfaces as
    None (an inconsistent system) instead of a silent miscorrection.  Row l of the
    combination matrix holds the basis coordinates of d_l^(q^-k), and the
    error is the corresponding combination of the a_l.
    """
    ctx = code.ctx
    n, k = code.n, code.k
    t = len(a)
    if t == 0:
        return (0,) * n
    frob = ctx._frob
    M = [[frob(al, -j) for al in a] for j in range(n - k)]
    rhs = [frob(s2[j], -j) for j in range(n - k)]
    d = solve(ctx, M, rhs)
    if d is None:
        return None
    B = transpose(coords(ctx, code.alpha, [frob(dl, -k) for dl in d]))
    return fqn_vecmat(ctx, a, B)


def syndrome_matrix(ctx, s, t):
    """Rows m = t..len(s)-1 of T at trial rank t: entry (m, j) is
    s_(m-j)^(q^j) for j = 0..t, one ctx._frob each."""
    return [[ctx._frob(s[m - j], j) for j in range(t + 1)]
            for m in range(t, len(s))]


def joint_kernel(ctx, s1, s2, t):
    """Rank and kernel basis of the stacked syndrome matrix at trial rank t."""
    S = syndrome_matrix(ctx, s1, t) + syndrome_matrix(ctx, s2, t)
    basis = kernel(ctx, S)
    return t + 1 - len(basis), basis


def countdown_decode(code, words, s1, s2, targets):
    """The decoder's trial-rank countdown with one full kernel per trial, and
    at a hit root_space_basis and one recover_error per target syndrome.

    Same arguments and result as decoder._joint_decode: (status, codewords,
    errors, trial trace).
    """
    ctx = code.ctx
    if not any(s1) and not any(s2):
        return "decoded", words, ((0,) * code.n,) * len(words), ()
    trace = []
    nk = code.n - code.k
    for t in range(min(2 * nk // 3, nk - 1), 0, -1):
        rank, basis = joint_kernel(ctx, s1, s2, t)
        trace.append((t, rank))
        if rank != t:
            continue
        roots = root_space_basis(ctx, _ptrim(basis[0]))
        if len(roots) != t:
            break
        errors = tuple(recover_error(code, roots, s) for s in targets)
        if None in errors:
            break
        codewords = tuple(tuple(ctx._sub(a, b) for a, b in zip(y, e))
                          for y, e in zip(words, errors))
        return "decoded", codewords, errors, tuple(trace)
    return "failure", None, None, tuple(trace)
