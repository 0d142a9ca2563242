"""Linearized polynomials over F_{q^n}.

A polynomial sum_i f_i x^(q^i) is stored as a tuple of packed coefficient
ints, index 0 first, with trailing zeros stripped; the zero polynomial is
the empty tuple.  lin_normalize is that strip, field's for its F_q
polynomials under a public name.  No decode or simulate step calls it:
the decoder reads the q-degree of its span polynomial off the echelon
basis.  The module stays for the public name and the benchmark's layer.
"""

from __future__ import annotations

from .field import _ptrim as lin_normalize
