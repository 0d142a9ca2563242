"""Gabidulin codes located on weak self-orthogonal bases.

G, H and Hhat are row slices of the n-row Moore matrix M of the basis: the
first k rows, the last n-k, and rows 1..n-k.  H is a parity check of the
code and Hhat one of the transposed code (the image of every codeword's
expansion matrix under transposition) because the basis is weak
self-orthogonal: entry (i, j) of G H^T is S_(k+j-i)^(q^i), with
S_d = sum_l alpha_l^(1+q^d) and 1 <= k+j-i <= n-1, the S_d that
is_weak_self_orthogonal checks to be zero.  So construction runs that check
alone, and a bad basis fails fast.  The same property inverts M in closed
form, M^-1 = M^T D^-1 for the diagonal D of M M^T, which the decoder uses
to read an error off its full syndrome.

Both syndromes are F_q-linear, hence F_p-linear, in the received word, so
the code tabulates that map once on packed ints (linalg._PackedMap).
Transposing y puts sum_j alpha_j c_m(y_j) at position m, c_m the F_q
alpha-coordinates, which commute with Frobenius, so the transposed-code
syndrome is s1_r = sum_j alpha_j y_j^(q^(r+1)): no coordinates and no
transposed word.  A syndrome pair costs one XOR per set bit of the word at
p = 2 and one multiply-add per base-p digit at odd p, at every q.
"""

from __future__ import annotations

from .field import FieldCtx
from .linalg import _check_vector, _PackedMap, fqn_matmul, moore_matrix
from .wso import WsoBasis, find_wso_basis, is_weak_self_orthogonal


class GabidulinCode:
    """Length-n, dimension-k Gabidulin code over F_{q^n} with WSO locators."""

    def __init__(self, ctx: FieldCtx, k: int, basis: WsoBasis | None = None):
        n = ctx.n
        if not 1 <= k < n:
            raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
        if basis is None:
            basis = find_wso_basis(ctx)
        ok, diag = is_weak_self_orthogonal(ctx, basis.alpha)
        if not ok:
            raise ValueError("code locators are not weak self-orthogonal")
        if tuple(basis.diag) != diag:
            raise ValueError("basis diag is not the Moore Gram diagonal")
        self.ctx = ctx
        self.n = n
        self.k = k
        self.basis = basis
        self.alpha = basis.alpha
        M = moore_matrix(ctx, self.alpha, n)
        self._G, self._H, self._Hhat = M[:k], M[k:], M[1:n - k + 1]
        # Logs of the dual rows: row r of Hf = H stacked on G is row
        # (r+k) mod n of M, and M^-1 = M^T D^-1 for the Gram diagonal D, so
        # e_j = sum_r s_r Hf[r][j] / D[(r+k) mod n] for the full syndrome
        # s = e Hf^T.
        log, L = ctx._log, ctx.order - 1
        self._dual = [[(log[h] - log[diag[(r + k) % n]]) % L for h in row]
                      for r, row in enumerate(self._H + self._G)]
        # The syndrome pair as one F_p-linear map of the n received entries:
        # the unit x = p^u at position j has s1_r = alpha_j x^(q^(r+1)) and
        # s2_r = x H[r][j].
        mul, frob = ctx.mul, ctx.frob
        units = [ctx.p ** u for u in range(n * ctx.e)]
        twists = [[frob(x, r) for r in range(1, n - k + 1)] for x in units]
        self._syndrome_map = _PackedMap(ctx, [
            [[mul(aj, t) for t in tw] + [mul(x, row[j]) for row in self._H]
             for x, tw in zip(units, twists)]
            for j, aj in enumerate(self.alpha)], n * ctx.e)

    def generator_matrix(self):
        return [row[:] for row in self._G]

    def parity_check(self):
        return [row[:] for row in self._H]

    def parity_check_transposed(self):
        return [row[:] for row in self._Hhat]

    def encode(self, u) -> tuple[int, ...]:
        """Codeword u G for a length-k message over F_{q^n}."""
        _check_vector(self.ctx, u, self.k, "message")
        return tuple(fqn_matmul(self.ctx, [u], self._G)[0])

    def syndrome(self, y) -> tuple[int, ...]:
        """y H^T against the ordinary parity check, from the packed map."""
        return self.syndromes(y)[1]

    def syndromes(self, y) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(transposed-code syndrome, ordinary syndrome) of a received word.

        The first is the transposed word times Hhat^T, the second y H^T;
        codeword parts cancel in both, so each depends only on the error.
        """
        _check_vector(self.ctx, y, self.n, "word")
        smap = self._syndrome_map
        s = smap.values(smap.apply(y))
        nk = self.n - self.k
        return s[:nk], s[nk:]
