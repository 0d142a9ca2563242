"""Work factors and key sizes for a Gabidulin-based McEliece-like system.

All work factors are kept in the log2 domain; the error-pattern counts are
plain ints whose log2 comes from channel._log2_exact, so values up to
2^1118 round-trip to two decimals without overflow.  Key size assumes a
systematic public matrix with k(n-k) extension-field entries and reports
kilobytes of 1000 bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .channel import _log2_exact, count_rank, count_space_symmetric, \
    count_symmetric
from .code import _radius
from .field import _index, _prime_power

# kind -> (correctable rank at (n, k), error count at (n, t', q))
ERROR_TYPES = {
    "conv": (lambda n, k: (n - k) // 2, count_rank),
    "sym": (lambda n, k: (n - 1) // 2, count_symmetric),
    "sp-sym": (_radius, count_space_symmetric),
}


def _error_type(kind: str):
    try:
        return ERROR_TYPES[kind]
    except (KeyError, TypeError):
        raise ValueError(f"unknown error type {kind!r}") from None


def max_errors(kind: str, n: int, k: int) -> int:
    """Largest correctable error rank per error structure."""
    n, k = _index(n, "n"), _index(k, "k")
    _radius(n, k)  # rejects k outside 1..n-1 for every kind
    return _error_type(kind)[0](n, k)


def wf_dec(n: int, k: int, tprime: int, q: int = 2) -> float:
    """Decoding attack cost in bits: log2(n^3 q^((t'-1) k))."""
    _prime_power(q)
    n, k, tprime = _index(n, "n"), _index(k, "k"), _index(tprime, "tprime")
    if tprime < 1:
        raise ValueError("tprime must be >= 1")
    _radius(n, k)
    if tprime > n:
        raise ValueError(f"need tprime <= n, got tprime={tprime}, n={n}")
    return 3 * math.log2(n) + (tprime - 1) * k * math.log2(q)


def wf_struc(n: int, lam: int, q: int = 2) -> float:
    """Structural attack cost in bits: log2(n^3 q^(n(l-1)-(l-1)^2))."""
    _prime_power(q)
    n, lam = _index(n, "n"), _index(lam, "lambda")
    if lam < 1:
        raise ValueError("lambda must be >= 1")
    if lam > n:
        raise ValueError(f"need lambda <= n, got lambda={lam}, n={n}")
    return 3 * math.log2(n) + (n * (lam - 1) - (lam - 1) ** 2) * math.log2(q)


def wf_error(kind: str, n: int, tprime: int, q: int = 2) -> float:
    """Brute-force cost in bits: log2 of the number of candidate errors."""
    return _log2_exact(_error_type(kind)[1](n, tprime, q))


def key_size_kb(n: int, k: int, q: int = 2) -> float:
    """Public key size in KB: k(n-k) entries of F_{q^n}, 1000-byte KB."""
    _prime_power(q)
    n, k = _index(n, "n"), _index(k, "k")
    _radius(n, k)
    return k * (n - k) * n * math.log2(q) / 8000


@dataclass(frozen=True)
class CryptoRow:
    sl: int
    kind: str
    n: int
    k: int
    lam: int
    tprime: int
    wf_dec: float
    wf_struc: float
    wf_e: float
    keysize_kb: float
    ok: bool  # smallest work factor reaches the security level


def crypto_row(sl: int, kind: str, n: int, k: int, lam: int,
               q: int = 2) -> CryptoRow:
    sl, n, k = _index(sl, "sl"), _index(n, "n"), _index(k, "k")
    lam = _index(lam, "lambda")
    if sl < 1:
        raise ValueError(f"sl must be >= 1, got sl={sl}")
    struc = wf_struc(n, lam, q)  # rejects lambda < 1 before the division
    t = max_errors(kind, n, k)
    tprime = t // lam
    if tprime < 1:
        raise ValueError(f"lambda {lam} leaves t' = max_errors // lambda = "
                         f"{t} // {lam} = 0 ({kind}, n={n}, k={k})")
    dec = wf_dec(n, k, tprime, q)
    err = wf_error(kind, n, tprime, q)
    return CryptoRow(sl, kind, n, k, lam, tprime, dec, struc, err,
                     key_size_kb(n, k, q), min(dec, struc, err) >= sl)


def build_table(rows, q: int = 2) -> list[CryptoRow]:
    """CryptoRow for each (sl, type, n, k, lambda) tuple."""
    return [crypto_row(sl, kind, n, k, lam, q)
            for sl, kind, n, k, lam in rows]


# Reference parameter set at code rate ~1/2, three security levels, three
# error structures.  The (128, sp-sym) row uses lambda = 3: with n = 58,
# k = 29 the correctable rank is 19, so lambda = 3 gives t' = 6 and a
# structural work factor of 129.57 bits, clearing the 128-bit level, while
# lambda = 4 would give t' = 4 and a decoding work factor far below it.
REFERENCE_PARAMS = (
    (256, "conv", 96, 48, 4),
    (256, "sym", 80, 40, 5),
    (256, "sp-sym", 83, 41, 4),
    (192, "conv", 88, 44, 4),
    (192, "sym", 62, 31, 4),
    (192, "sp-sym", 71, 35, 4),
    (128, "conv", 59, 29, 3),
    (128, "sym", 49, 24, 4),
    (128, "sp-sym", 58, 29, 3),
)


def reference_table() -> list[CryptoRow]:
    return build_table(REFERENCE_PARAMS)
