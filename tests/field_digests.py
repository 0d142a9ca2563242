"""Digest and build time of field tables, for comparing two checkouts.

Usage, from the root of a checkout:

    python3 tests/field_digests.py 2,16 3,7 2,8,1:1:0:1:1:0:0:0:1

Each argument is q,n or q,n,modulus with the modulus in the "c0:c1:...:1"
form make_field parses.  For each one the script builds the field with the
package in this checkout's src/ and prints the argument, the SHA-256 digest
of its tables and the build time in seconds.  Equal digests on two commits
mean equal modulus, exp and log tables and addition by 1.  The file is not a
test module; tests/test_field.py pins digests computed with it.
"""

from __future__ import annotations

import hashlib
import sys
import time
from pathlib import Path


def digest(ctx) -> str:
    """SHA-256 of (modulus, exp[:L], log, [add(1, v) for v]) of ctx.

    exp[:L] fixes the generator and the whole walk, log is its inverse, and
    add(1, v) reads the Zech table at odd p.
    """
    L = ctx.order - 1
    h = hashlib.sha256()
    for part in (ctx.modulus, ctx._exp[:L], ctx._log,
                 [ctx.add(1, v) for v in range(ctx.order)]):
        h.update(repr(list(part)).encode())
        h.update(b";")
    return h.hexdigest()


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from rankmetric import make_field

    for arg in argv:
        q, n, *modulus = arg.split(",")
        start = time.perf_counter()
        ctx = make_field(int(q), int(n), modulus[0] if modulus else None)
        seconds = time.perf_counter() - start
        print(f"{arg} {digest(ctx)} {seconds:.3f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
