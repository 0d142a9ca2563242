"""Exact scenario-1 failure count at (q, n, k, t) = (2, 6, 1, 3).

Usage, from the root of a checkout:

    python3 tests/exhaustive_counts.py

Decodes every space-symmetric rank-3 error over F_2 at n = 6, each as the
received word of the zero codeword, with the package in this checkout's
src/, and counts the failures (a miscorrection counts as one).  Every
outcome must also equal that of the countdown oracle in tests/oracles.py.
Exits non-zero unless both hold and 39,060 of the 234,360 errors fail.  It
takes about a minute, so the file is not a test module; tests/test_decoder.py
pins the smaller cases.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

Q, N, K, T = 2, 6, 1, 3
ERRORS, FAILING = 234_360, 39_060


def main() -> int:
    here = Path(__file__).resolve().parent
    sys.path[:0] = [str(here.parent / "src"), str(here)]
    from oracles import countdown_decode, space_symmetric
    from rankmetric import DecodeOutcome, GabidulinCode, decode, make_field, \
        phi_inv

    start = time.perf_counter()
    ctx = make_field(Q, N)
    code = GabidulinCode(ctx, K)
    errors = failing = mismatches = 0
    for E in space_symmetric(N, T, Q):
        y = phi_inv(ctx, E, code.alpha)
        out = decode(code, y)
        s1, s2 = code.syndromes(y)
        status, codewords, found, trace = countdown_decode(
            code, (y,), s1, s2, (s2,))
        oracle = DecodeOutcome(status, codewords and codewords[0],
                               found and found[0], trace)
        mismatches += out != oracle
        errors += 1
        failing += not out.decoded or any(out.codeword)
    seconds = time.perf_counter() - start
    print(f"({Q},{N},{K},{T}): {failing} of {errors} fail, "
          f"{mismatches} differ from the oracle, {seconds:.1f} s")
    return 0 if (errors, failing, mismatches) == (ERRORS, FAILING, 0) else 1


if __name__ == "__main__":
    sys.exit(main())
