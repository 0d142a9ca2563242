"""Joint-syndrome decoding of errors whose row and column spaces coincide.

The decoder computes one syndrome from the received word against the code's
parity check and one from the transposed received word against the
transposed code's parity check.  Both satisfy a key equation with the same
error span polynomial (the minimal subspace polynomial of the error
support), so the two linear systems are stacked and solved jointly, exactly
as for a 2-interleaved code.  This pushes the decoding radius from
(n-k)/2 up to 2(n-k)/3 at the price of a small failure probability.

Trial ranks run downward from floor(2(n-k)/3); the first trial whose
stacked syndrome matrix has rank equal to the trial value yields a unique
span polynomial candidate (up to scale).  The stacked matrix annihilates
the true span polynomial and all its q-power shifts, so its rank can never
exceed the true error rank, which is what makes the countdown sound.  When
the candidate's root space has the wrong dimension, or error recovery hits
an inconsistent system, a failure is declared immediately.
"""

from __future__ import annotations

from dataclasses import dataclass

from .code import GabidulinCode
from .field import FieldCtx
from .linalg import (InconsistentSystemError, _gf2_vec_mat, fqn_kernel,
                     fqn_solve, fqn_vec_fq_mat)
from .linpoly import lin_compose_mod, lin_normalize, root_space_basis


@dataclass(frozen=True)
class DecodeOutcome:
    status: str                       # "decoded" or "failure"
    codeword: tuple[int, ...] | None
    error: tuple[int, ...] | None
    trial_trace: tuple[tuple[int, int], ...]  # (trial rank, rank of stacked S)

    @property
    def decoded(self) -> bool:
        return self.status == "decoded"


@dataclass(frozen=True)
class InterleavedOutcome:
    status: str
    codewords: tuple[tuple[int, ...], ...] | None
    errors: tuple[tuple[int, ...], ...] | None
    trial_trace: tuple[tuple[int, int], ...]

    @property
    def decoded(self) -> bool:
        return self.status == "decoded"


def build_syndrome_matrix(ctx: FieldCtx, s, t: int):
    """(n-k-t)-by-(t+1) matrix with entry (p, j) = s_{t+p-j}^(q^j)."""
    nk = len(s)
    if not 1 <= t <= nk - 1:
        raise ValueError(f"trial rank {t} out of range for {nk} syndromes")
    frob = ctx.frob
    return [[frob(s[t + p - j], j) for j in range(t + 1)]
            for p in range(nk - t)]


def key_equation_remainder(ctx: FieldCtx, gamma, s):
    """Low-order part of gamma composed with the syndrome polynomial.

    For a genuine error of rank t with gamma its span polynomial, the result
    has q-degree below t: all composition coefficients from index t up to
    n-k-1 vanish."""
    return lin_compose_mod(ctx, gamma, tuple(s), len(s))


def joint_kernel(ctx: FieldCtx, s1, s2, t: int):
    """Rank and kernel basis of the stacked syndrome matrix at trial rank t."""
    S = build_syndrome_matrix(ctx, s1, t) + build_syndrome_matrix(ctx, s2, t)
    kernel = fqn_kernel(ctx, S)
    return t + 1 - len(kernel), kernel


def recover_error(code: GabidulinCode, a, s2):
    """Error vector with support basis a matching the ordinary syndrome s2.

    Solves sum_l a_l^(q^-j) d_l = s2_j^(q^-j) over all n-k syndrome rows; the
    overdetermined rows are kept so that a wrong support basis surfaces as an
    InconsistentSystemError instead of a silent miscorrection.  Row l of the
    combination matrix holds the basis coordinates of d_l^(q^-k), and the
    error is the corresponding combination of the a_l; at q = 2 the rows
    stay packed.
    """
    ctx = code.ctx
    n, k = code.n, code.k
    t = len(a)
    if t == 0:
        return (0,) * n
    frob = ctx.frob
    M = [[frob(al, -j) for al in a] for j in range(n - k)]
    rhs = [frob(s2[j], -j) for j in range(n - k)]
    d = fqn_solve(ctx, M, rhs)
    solver = code._solver
    if ctx.q == 2:
        B = [solver.apply((frob(dl, -k),)) for dl in d]
        return tuple(_gf2_vec_mat(a, B, n))
    B = [solver.coords(frob(dl, -k)) for dl in d]
    return fqn_vec_fq_mat(ctx, a, B)


def _max_trial_rank(n: int, k: int) -> int:
    return min(2 * (n - k) // 3, n - k - 1)


def _joint_decode(code: GabidulinCode, words, s1, s2, recover):
    """Trial-rank countdown shared by decode and interleaved_decode.

    s1 and s2 are the stacked syndrome pair.  recover maps the root-space
    basis of the accepted span polynomial to one error per received word and
    raises InconsistentSystemError when they do not exist.  Returns
    (status, codewords, errors, trial trace); codewords and errors are None
    on failure.
    """
    ctx = code.ctx
    if not any(s1) and not any(s2):
        return "decoded", words, ((0,) * code.n,) * len(words), ()
    trace = []
    for t in range(_max_trial_rank(code.n, code.k), 0, -1):
        rank, kernel = joint_kernel(ctx, s1, s2, t)
        trace.append((t, rank))
        if rank != t:
            continue
        gamma = lin_normalize(kernel[0])
        roots = root_space_basis(ctx, gamma)
        if len(roots) != t:
            break
        try:
            errors = recover(roots)
        except InconsistentSystemError:
            break
        sub = ctx.sub
        codewords = tuple(tuple(sub(a, b) for a, b in zip(y, e))
                          for y, e in zip(words, errors))
        return "decoded", codewords, errors, tuple(trace)
    return "failure", None, None, tuple(trace)


def decode(code: GabidulinCode, y) -> DecodeOutcome:
    """Joint-syndrome decoding of a single received word.

    Returns the estimated codeword and error, or a failure outcome; failures
    are values, not exceptions.  The trial trace records (t, rank) for every
    trial rank examined.
    """
    y = tuple(y)
    s1, s2 = code.syndromes(y)
    status, codewords, errors, trace = _joint_decode(
        code, (y,), s1, s2, lambda a: (recover_error(code, a, s2),))
    if codewords is None:
        return DecodeOutcome(status, None, None, trace)
    return DecodeOutcome(status, codewords[0], errors[0], trace)


def interleaved_decode(code: GabidulinCode, y1, y2) -> InterleavedOutcome:
    """Decoding of two words sharing one error support.

    Both syndromes come from the ordinary parity check; the stacked system,
    span-polynomial extraction and per-word error recovery then proceed as in
    single-word decoding."""
    words = (tuple(y1), tuple(y2))
    s1, s2 = code.syndrome(words[0]), code.syndrome(words[1])
    return InterleavedOutcome(*_joint_decode(
        code, words, s1, s2,
        lambda a: (recover_error(code, a, s1), recover_error(code, a, s2))))
