"""Gabidulin codes located on weak self-orthogonal bases.

The generator is the k-row Moore matrix of the basis.  Because the basis is
weak self-orthogonal, the (n-k)-row Moore matrix shifted by k q-powers is a
parity check of the code, and the one shifted by a single q-power is a
parity check of the transposed code (the image of every codeword's expansion
matrix under transposition).  Both facts are multiplied out and asserted at
construction so a bad basis fails fast.  The same property inverts the
n-row Moore matrix M in closed form, M^-1 = M^T D^-1 for the diagonal D of
M M^T, which the decoder uses to read an error off its full syndrome.

Both syndromes are F_q-linear, hence F_p-linear, in the received word, so
the code tabulates that map once on packed ints (linalg._PackedMap).  A
syndrome pair costs one XOR per set bit of the word at p = 2 and one
multiply-add per base-p digit at odd p, at every q the same path.
"""

from __future__ import annotations

from .field import FieldCtx
from .linalg import _check_vector, _coords, _PackedMap, fq_transpose, \
    fqn_matmul, moore_matrix
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
        self._G = moore_matrix(ctx, self.alpha, k)
        self._H = moore_matrix(ctx, self.alpha, n - k, shift=k)
        self._Hhat = moore_matrix(ctx, self.alpha, n - k, shift=1)
        self._assert_parity()
        # Logs of the dual rows: row r of Hf = H stacked on G is row
        # (r+k) mod n of the Moore matrix M, and M^-1 = M^T D^-1 for the
        # Gram diagonal D, so e_j = sum_r s_r Hf[r][j] / D[(r+k) mod n] for
        # the full syndrome s = e Hf^T.
        log, L = ctx._log, ctx.order - 1
        self._dual = [[(log[h] - log[diag[(r + k) % n]]) % L for h in row]
                      for r, row in enumerate(self._H + self._G)]
        # The syndrome pair as one F_p-linear map of the n received entries:
        # the unit x = p^u at position j has s2 = x H[r][j] and s1 = alpha_j
        # sum_m c_m(x) Hhat[r][m], c the alpha-coordinates, because
        # transposing the word puts alpha_j c_m(y_j) at position m.
        mul = ctx.mul
        units = [ctx.p ** u for u in range(n * ctx.e)]
        hat = fqn_matmul(ctx, fq_transpose(_coords(ctx, self.alpha, units)),
                         fq_transpose(self._Hhat))
        self._syndrome_map = _PackedMap(ctx, [
            [[mul(aj, h) for h in hu] + [mul(x, row[j]) for row in self._H]
             for x, hu in zip(units, hat)]
            for j, aj in enumerate(self.alpha)], n * ctx.e)

    def _assert_parity(self):
        GHt = fqn_matmul(self.ctx, self._G, fq_transpose(self._H))
        if any(any(row) for row in GHt):
            raise ValueError("generator/parity-check product is nonzero")

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

    def _syndrome_against(self, y, H) -> tuple[int, ...]:
        """y H^T by direct products; the reference for the packed map."""
        ctx = self.ctx
        add, mul = ctx.add, ctx.mul
        out = []
        for row in H:
            acc = 0
            for a, b in zip(y, row):
                if a and b:
                    acc = add(acc, mul(a, b))
            out.append(acc)
        return tuple(out)

    def syndrome(self, y) -> tuple[int, ...]:
        """y H^T against the ordinary parity check, from the packed map."""
        return self.syndromes(y)[1]

    def syndromes(self, y) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(transposed-code syndrome, ordinary syndrome) of a received word.

        The first is computed from the transposed received word against the
        transposed code's parity check, the second is y H^T; codeword parts
        cancel in both, so each depends only on the error.
        """
        _check_vector(self.ctx, y, self.n, "word")
        smap = self._syndrome_map
        s = smap.values(smap.apply(y))
        nk = self.n - self.k
        return s[:nk], s[nk:]
