"""Linearized polynomials over F_{q^n}.

A polynomial sum_i f_i x^(q^i) is stored as a tuple of packed coefficient
ints, index 0 first, with trailing zeros stripped; the zero polynomial is
the empty tuple.  The decoder reads its span polynomial off a kernel vector
in this form and works on the coefficients directly (root-space check,
syndrome recurrence), so the only shared operation is normalization: the
trailing-zero strip of the F_q polynomials in field, under its public name.
"""

from __future__ import annotations

from .field import _ptrim as lin_normalize
