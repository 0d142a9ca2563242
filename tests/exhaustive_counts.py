"""Exact scenario-1 and scenario-2 failure counts at (q, n, k, t) =
(2, 6, 1, 3).

Usage, from the root of a checkout:

    python3 tests/exhaustive_counts.py

With the package in this checkout's src/:

- Scenario 1 decodes every space-symmetric rank-3 error over F_2 at n = 6,
  each as the received word of the zero codeword, and counts the failures
  (a miscorrection counts as one), split by whether the error matrix is
  symmetric.  Every outcome must also equal that of the countdown oracle in
  tests/oracles.py.
- Scenario 2 runs simulate._coupling_fails on one basis of every
  3-dimensional support and every Q in GL_3(F_2); the outcome depends on
  the support and Q alone, so this covers every draw in proportion.

Exits non-zero unless every count holds: 39,060 of the 234,360 errors
fail, all 39,060 symmetric ones and none of the other 195,300, and 1,449
of the 234,360 scenario-2 draws fail (23/3,720).  It takes about two
minutes, so the file is not a test module; tests/test_decoder.py and
tests/test_simulate.py pin the smaller cases.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

Q, N, K, T = 2, 6, 1, 3
# scenario 1: (errors, failing, symmetric, symmetric failing, oracle
# mismatches); scenario 2: (draws, failing)
SCENARIO1 = (234_360, 39_060, 39_060, 39_060, 0)
SCENARIO2 = (234_360, 1_449)


def main() -> int:
    here = Path(__file__).resolve().parent
    sys.path[:0] = [str(here.parent / "src"), str(here)]
    from oracles import countdown_decode, echelon_supports, general_linear, \
        space_symmetric
    from rankmetric import DecodeOutcome, GabidulinCode, decode, make_field, \
        phi_inv
    from rankmetric.linalg import fqn_vecmat
    from rankmetric.simulate import _coupling_fails

    start = time.perf_counter()
    ctx = make_field(Q, N)
    code = GabidulinCode(ctx, K)
    counts = [0] * 5
    for E in space_symmetric(N, T, Q):
        y = phi_inv(ctx, E, code.alpha)
        out = decode(code, y)
        s1, s2 = code.syndromes(y)
        status, codewords, found, trace = countdown_decode(
            code, (y,), s1, s2, (s2,))
        oracle = DecodeOutcome(status, codewords and codewords[0],
                               found and found[0], trace)
        failing = not out.decoded or any(out.codeword)
        symmetric = all(E[i][j] == E[j][i] for i in range(N) for j in range(i))
        for i, hit in enumerate((True, failing, symmetric,
                                 symmetric and failing, out != oracle)):
            counts[i] += hit
    middle = time.perf_counter()
    print(f"scenario 1 ({Q},{N},{K},{T}): {counts[1]} of {counts[0]} fail, "
          f"{counts[3]} of the {counts[2]} symmetric ones, {counts[4]} "
          f"differ from the oracle, {middle - start:.1f} s")

    gl = general_linear(T, Q)
    draws = failing = 0
    for A in echelon_supports(N, T, Q):
        a = fqn_vecmat(ctx, code.alpha, A)
        for Qm in gl:
            draws += 1
            failing += _coupling_fails(code, a, Qm)
    print(f"scenario 2 ({Q},{N},{K},{T}): {failing} of {draws} fail, "
          f"{time.perf_counter() - middle:.1f} s")
    return 0 if (tuple(counts), (draws, failing)) == (SCENARIO1, SCENARIO2) \
        else 1


if __name__ == "__main__":
    sys.exit(main())
