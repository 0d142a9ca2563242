"""Digests and build times of field and code tables, for comparing checkouts.

Usage, from the root of a checkout:

    python3 tests/field_digests.py 2,16 3,7 2,8,1:1:0:1:1:0:0:0:1 2,8,2 2,8,2,4
    python3 tests/field_digests.py upto:16384

Each argument is q,n or q,n,modulus with the modulus in the "c0:c1:...:1"
form of the CLI's --modulus, q,n,k with a code dimension k (no colon),
q,n,k,t with an error rank t, or upto:N.
For a field the script builds it with the package in this checkout's src/
and prints the argument, the SHA-256 digest of its tables, the digest of
its subtraction from 1 and negation, and the build time in seconds.  Equal
digests on two commits mean equal modulus, exp and log tables, addition
by 1, subtraction from 1 and negation.  For q,n,k it builds the default field, then
times find_wso_basis plus GabidulinCode and prints the public code digest
(locators, their diagonal, method and generator, and G, H, Hhat sliced
from the Moore matrix), the table digest (the two half tables of each
input of the packed twisted-trace map), the number of entries in those
tables and that set-up time.  For q,n,k,t it
builds that code and prints the decode digest of a seeded word pool
(decode_digest); equal digests on two commits mean equal decoding.  For
upto:N it builds the default field of every prime power q and every
n >= 1 with q^n <= N and prints the argument, the number of fields and
one SHA-256 over (q, n, digest, sub/neg digest, find_wso_basis) of each,
in order of q, then n.  To compare a commit without this option, copy
the script into a checkout of it and run it there.  The
file is not a test module; tests/test_field.py and tests/test_code.py pin
digests computed with it.
"""

from __future__ import annotations

import hashlib
import random
import sys
import time
from pathlib import Path


def _sha256(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
        h.update(b";")
    return h.hexdigest()


def digest(ctx) -> str:
    """SHA-256 of (modulus, exp[:L], log, [add(1, v) for v]) of ctx.

    exp[:L] fixes the generator and the whole walk, log is its inverse, and
    add(1, v) reads the Zech table at odd p.
    """
    L = ctx.order - 1
    return _sha256(list(part) for part in (
        ctx.modulus, ctx._exp[:L], ctx._log,
        [ctx.add(1, v) for v in range(ctx.order)]))


def sub_neg_digest(ctx) -> str:
    """SHA-256 of ([sub(1, v) for v], [neg(v) for v]) of ctx: at odd p they
    read the Zech table through log(-1)."""
    return _sha256(([ctx.sub(1, v) for v in range(ctx.order)],
                    [ctx.neg(v) for v in range(ctx.order)]))


def code_digest(code) -> str:
    """SHA-256 of the public parts of a GabidulinCode: its locators alpha
    with the diagonal that is_weak_self_orthogonal gives them, the
    construction method and generator (alpha_0 on a normal basis, else
    None) of the field's find_wso_basis, and G, H and Hhat, the rows
    0..k-1, k..n-1 and 1..n-k of the n-row Moore matrix of the locators."""
    from rankmetric import is_weak_self_orthogonal, moore_matrix
    from rankmetric.wso import _normal_exists

    ctx, alpha, n, k = code.ctx, code.alpha, code.n, code.k
    diag = is_weak_self_orthogonal(ctx, alpha)[1]
    normal = _normal_exists(ctx)
    method = "normal" if normal else "trace-orthonormal"
    beta = alpha[0] if normal else None
    M = moore_matrix(ctx, alpha, n)
    return _sha256((alpha, diag, method, beta, M[:k], M[k:], M[1:n - k + 1]))


def table_digest(code) -> str:
    """SHA-256 of a GabidulinCode's private table: the (lo, hi, P) half
    tables of each input of the packed twisted-trace map."""
    return _sha256((code._twist_map._table,))


def table_entries(code) -> int:
    """The number of entries in the half tables of the packed twisted-trace
    map: p^floor(N/2) + p^ceil(N/2) per input, N = n e."""
    return sum(len(lo) + len(hi) for lo, hi, _ in code._twist_map._table)


def decode_digest(code, t: int) -> str:
    """SHA-256 of the reprs of the decode and interleaved_decode outcomes
    over a pool of 3,000 words drawn with random.Random(1).

    Word i is a random codeword plus a space-symmetric error of rank
    i mod (t + 1), except that every fourth word is uniform.  Each word
    also gives a pair of random codewords plus two errors on one random
    support of that rank, for interleaved_decode.
    """
    from rankmetric import decode, interleaved_decode, sample_full_rank, \
        sample_space_symmetric
    from rankmetric.linalg import fqn_vecmat

    ctx, n, rng = code.ctx, code.n, random.Random(1)

    def noisy(e):
        c = code.encode([ctx.rand_elem(rng) for _ in range(code.k)])
        return tuple(map(ctx.add, c, e))

    outcomes = []
    for i in range(3000):
        r = i % (t + 1)
        if i % 4 == 3:
            y = tuple(ctx.rand_elem(rng) for _ in range(n))
        else:
            y = noisy(sample_space_symmetric(ctx, code.alpha, r, rng).e)
        outcomes.append(decode(code, y))
        pair = [(0,) * n] * 2
        if r:
            A = sample_full_rank(ctx, n, r, rng)
            a = fqn_vecmat(ctx, code.alpha, A)
            pair = [fqn_vecmat(ctx, a, sample_full_rank(ctx, r, n, rng))
                    for _ in range(2)]
        outcomes.append(interleaved_decode(code, *map(noisy, pair)))
    return _sha256(outcomes)


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from rankmetric import GabidulinCode, find_wso_basis, make_field
    from rankmetric.field import _prime_power

    for arg in argv:
        if arg.startswith("upto:"):
            N = int(arg[5:])
            parts = []
            for q in range(2, N + 1):
                try:
                    _prime_power(q)
                except ValueError:
                    continue
                n, order = 1, q
                while order <= N:
                    ctx = make_field(q, n)
                    parts.append((q, n, digest(ctx), sub_neg_digest(ctx),
                                  find_wso_basis(ctx)))
                    n, order = n + 1, order * q
            print(f"{arg} {len(parts)} {_sha256(parts)}", flush=True)
            continue
        q, n, *rest = arg.split(",")
        if len(rest) == 2:
            ctx = make_field(int(q), int(n))
            code = GabidulinCode(ctx, int(rest[0]), find_wso_basis(ctx))
            print(f"{arg} {decode_digest(code, int(rest[1]))}", flush=True)
            continue
        if rest and ":" not in rest[0]:
            ctx = make_field(int(q), int(n))
            start = time.perf_counter()
            code = GabidulinCode(ctx, int(rest[0]), find_wso_basis(ctx))
            seconds = time.perf_counter() - start
            print(f"{arg} {code_digest(code)} {table_digest(code)} "
                  f"{table_entries(code)} {seconds:.5f}", flush=True)
            continue
        start = time.perf_counter()
        modulus = [int(c) for c in rest[0].split(":")] if rest else None
        ctx = make_field(int(q), int(n), modulus)
        seconds = time.perf_counter() - start
        print(f"{arg} {digest(ctx)} {sub_neg_digest(ctx)} {seconds:.3f}",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
