"""Linearized polynomials over F_{q^n}.

A polynomial sum_i f_i x^(q^i) is stored as a tuple of packed coefficient
ints, index 0 first, with trailing zeros stripped; the zero polynomial is
the empty tuple.  The decoder reads its span polynomial off a kernel vector
in this form and works on the coefficients directly (root-space check,
syndrome recurrence), so the only shared operation is normalization.
"""

from __future__ import annotations


def lin_normalize(coeffs) -> tuple[int, ...]:
    coeffs = tuple(coeffs)
    d = len(coeffs)
    while d > 0 and coeffs[d - 1] == 0:
        d -= 1
    return coeffs[:d]
