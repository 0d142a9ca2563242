"""Digests and build times of field and code tables, for comparing checkouts.

Usage, from the root of a checkout:

    python3 tests/field_digests.py 2,16 3,7 2,8,1:1:0:1:1:0:0:0:1 2,8,2

Each argument is q,n or q,n,modulus with the modulus in the "c0:c1:...:1"
form of the CLI's --modulus, or q,n,k with a code dimension k (no colon).
For a field the script builds it with the package in this checkout's src/
and prints the argument, the SHA-256 digest of its tables and the build
time in seconds.  Equal digests on two commits mean equal modulus, exp and log
tables and addition by 1.  For q,n,k it builds the default field, then
times find_wso_basis plus GabidulinCode and prints the public code digest
(basis, and G, H, Hhat sliced from the Moore matrix), the table digest
(dual rows and packed map) and that set-up time.  The file is not a test
module; tests/test_field.py and tests/test_code.py pin digests computed
with it.
"""

from __future__ import annotations

import hashlib
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


def code_digest(code) -> str:
    """SHA-256 of the public parts of a GabidulinCode: the basis with its
    diagonal, method and generator, and G, H and Hhat, the rows 0..k-1,
    k..n-1 and 1..n-k of the n-row Moore matrix of its locators."""
    from rankmetric import moore_matrix

    b, n, k = code.basis, code.n, code.k
    M = moore_matrix(code.ctx, code.alpha, n)
    return _sha256((b.alpha, b.diag, b.method, b.beta, M[:k], M[k:],
                    M[1:n - k + 1]))


def table_digest(code) -> str:
    """SHA-256 of a GabidulinCode's private tables: the logs of the k dual
    rows and the chunk tables of the packed twisted-trace map."""
    return _sha256((code._dual, code._twist_map._table))


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from rankmetric import GabidulinCode, find_wso_basis, make_field

    for arg in argv:
        q, n, *rest = arg.split(",")
        if rest and ":" not in rest[0]:
            ctx = make_field(int(q), int(n))
            start = time.perf_counter()
            code = GabidulinCode(ctx, int(rest[0]), find_wso_basis(ctx))
            seconds = time.perf_counter() - start
            print(f"{arg} {code_digest(code)} {table_digest(code)} "
                  f"{seconds:.5f}", flush=True)
            continue
        start = time.perf_counter()
        modulus = [int(c) for c in rest[0].split(":")] if rest else None
        ctx = make_field(int(q), int(n), modulus)
        seconds = time.perf_counter() - start
        print(f"{arg} {digest(ctx)} {seconds:.3f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
