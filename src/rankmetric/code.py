"""Gabidulin codes located on weak self-orthogonal bases.

The generator is the k-row Moore matrix of the basis.  Because the basis is
weak self-orthogonal, the (n-k)-row Moore matrix shifted by k q-powers is a
parity check of the code, and the one shifted by a single q-power is a
parity check of the transposed code (the image of every codeword's expansion
matrix under transposition).  Both facts are multiplied out and asserted at
construction so a bad basis fails fast.

Over F_2 both syndromes are F_2-linear in the n^2 bits of the received
word, so the code tabulates that map once and a syndrome pair costs one XOR
per set bit of the word.
"""

from __future__ import annotations

from .field import FieldCtx
from .linalg import _CoordSolver, _gf2_dot, _matmul, fq_transpose, \
    moore_matrix, phi_inv
from .wso import WsoBasis, find_wso_basis, is_weak_self_orthogonal


class GabidulinCode:
    """Length-n, dimension-k Gabidulin code over F_{q^n} with WSO locators."""

    def __init__(self, ctx: FieldCtx, k: int, basis: WsoBasis | None = None):
        n = ctx.n
        if not 1 <= k < n:
            raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
        if basis is None:
            basis = find_wso_basis(ctx)
        ok, _ = is_weak_self_orthogonal(ctx, basis.alpha)
        if not ok:
            raise ValueError("code locators are not weak self-orthogonal")
        self.ctx = ctx
        self.n = n
        self.k = k
        self.basis = basis
        self.alpha = basis.alpha
        self._G = moore_matrix(ctx, self.alpha, k)
        self._H = moore_matrix(ctx, self.alpha, n - k, shift=k)
        self._Hhat = moore_matrix(ctx, self.alpha, n - k, shift=1)
        self._assert_parity()
        self._solver = _CoordSolver(ctx, self.alpha)
        self._syndrome_map = self._gf2_syndrome_map() if ctx.q == 2 else None

    def _assert_parity(self):
        ctx = self.ctx
        GHt = _matmul(ctx.add, ctx.mul, self._G, fq_transpose(self._H))
        if any(any(row) for row in GHt):
            raise ValueError("generator/parity-check product is nonzero")

    def _gf2_syndrome_map(self):
        """Syndrome pair of each unit error, packed; q = 2 only.

        Entry [j][i] belongs to the word with w^i at position j.  Its s2 is
        w^i H[r][j]; its s1 is alpha_j sum_m c_m(w^i) Hhat[r][m], with c the
        alpha-coordinates, because transposing the word puts alpha_j c_m(y_j)
        at position m.  Syndrome r of s1 sits at bits r*n, of s2 at
        (n-k+r)*n.
        """
        ctx, n = self.ctx, self.n
        mul, mask = ctx.mul, self._solver.mask
        # hat[i][r] = sum_m c_m(w^i) Hhat[r][m]
        hat = [[_gf2_dot(mask(1 << i), row) for row in self._Hhat]
               for i in range(n)]
        out = []
        for j, aj in enumerate(self.alpha):
            entries = []
            for i in range(n):
                parts = [mul(aj, h) for h in hat[i]]
                parts += [mul(1 << i, row[j]) for row in self._H]
                entries.append(sum(v << (r * n) for r, v in enumerate(parts)))
            out.append(entries)
        return out

    def generator_matrix(self):
        return [row[:] for row in self._G]

    def parity_check(self):
        return [row[:] for row in self._H]

    def parity_check_transposed(self):
        return [row[:] for row in self._Hhat]

    def encode(self, u) -> tuple[int, ...]:
        """Codeword u G for a length-k message over F_{q^n}."""
        self._check(u, self.k, "message")
        ctx = self.ctx
        return tuple(_matmul(ctx.add, ctx.mul, [u], self._G)[0])

    def _check(self, v, length, what):
        """Reject a wrong length or an entry outside F_{q^n}."""
        if len(v) != length:
            raise ValueError(f"{what} must have length {length}")
        order = self.ctx.order
        if min(v) < 0 or max(v) >= order:
            raise ValueError(
                f"{what} entries must lie in [0, q^n) = [0, {order})")

    def _syndrome_against(self, y, H) -> tuple[int, ...]:
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
        """y H^T against the ordinary parity check."""
        self._check(y, self.n, "word")
        return self._syndrome_against(y, self._H)

    def syndromes(self, y) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(transposed-code syndrome, ordinary syndrome) of a received word.

        The first is computed from the transposed received word against the
        transposed code's parity check, the second is y H^T; codeword parts
        cancel in both, so each depends only on the error.
        """
        n = self.n
        self._check(y, n, "word")
        table = self._syndrome_map
        if table is not None:
            acc = 0
            for yj, entries in zip(y, table):
                acc ^= _gf2_dot(yj, entries)
            nk, full = n - self.k, (1 << n) - 1
            s = [(acc >> (r * n)) & full for r in range(2 * nk)]
            return tuple(s[:nk]), tuple(s[nk:])
        coords = self._solver.coords
        yhat = phi_inv(self.ctx, [coords(x) for x in y], self.alpha)
        s1 = self._syndrome_against(yhat, self._Hhat)
        s2 = self._syndrome_against(y, self._H)
        return s1, s2
