"""Gabidulin codes located on weak self-orthogonal bases.

G, H and Hhat are row slices of the n-row Moore matrix M of the basis: the
first k rows, the last n-k, and rows 1..n-k.  The code keeps G, to encode;
H and Hhat exist only through the syndromes it reads.  H is a parity check
of the code and Hhat one of the transposed code (the image of every
codeword's expansion matrix under transposition) because the basis is weak
self-orthogonal: entry (i, j) of G H^T is S_(k+j-i)^(q^i), with
S_d = sum_l alpha_l^(1+q^d) and 1 <= k+j-i <= n-1, the S_d that
is_weak_self_orthogonal checks to be zero.  So construction runs that check
alone, and a bad basis fails fast.  The same property inverts M in closed
form, M^-1 = M^T D^-1 for the diagonal D of M M^T, so a codeword, whose
c M^T is zero past entry k, is c G^T D_k^-1 encoded (_from_gt).

Every syndrome is read off the n twisted traces T_i = sum_j alpha_j
y_j^(q^i), i = 1..n, which are F_q-linear, hence F_p-linear, in the
received word, so the code tabulates them once on packed ints
(linalg._PackedMap); the image of the digit unit x at position j is
alpha_j x^(q^i), one exp/log lookup.  Raising T_(n-i) to q^i turns alpha_j
into alpha_j^(q^i) and y_j^(q^n) into y_j, so T_(n-i)^(q^i) is entry i of
y M^T: y G^T for i < k, then the ordinary syndrome s2.  Transposing y
puts sum_j alpha_j c_m(y_j) at position m, c_m the F_q alpha-coordinates,
which commute with Frobenius, so the transposed-code syndrome is
s1_r = sum_j alpha_j y_j^(q^(r+1)) = T_(r+1): no coordinates and no
transposed word.  A read costs two lookups per entry of the word, in that
entry's two half tables, and n Frobenius twists in the log domain.
"""

from __future__ import annotations

from .field import FieldCtx, _index
from .linalg import _check_vector, _PackedMap, fqn_vecmat, moore_matrix
from .wso import find_wso_basis, is_weak_self_orthogonal


def _radius(n: int, k: int) -> int:
    """floor(2(n-k)/3), the joint decoder's radius, after the one check of
    1 <= k < n that the code, SimConfig, keysize and the CLI share."""
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    return 2 * (n - k) // 3


class GabidulinCode:
    """Length-n, dimension-k Gabidulin code over F_{q^n} with WSO locators:
    basis, any iterable (find_wso_basis(ctx) by default), read into alpha."""

    def __init__(self, ctx: FieldCtx, k: int, basis=None):
        n, k = ctx.n, _index(k, "k")
        self._tmax = _radius(n, k)  # the decoder's first trial rank
        if basis is None:
            basis = find_wso_basis(ctx)
        alpha = _check_vector(ctx, basis, "basis", n)
        ok, diag = is_weak_self_orthogonal(ctx, alpha)
        if not ok:
            raise ValueError("code locators are not weak self-orthogonal")
        self.ctx = ctx
        self.n = n
        self.k = k
        self.alpha = alpha
        self._G = moore_matrix(ctx, self.alpha, k)
        self._dk_inv = [ctx.inv(d) for d in diag[:k]]
        exp, log, L = ctx._exp, ctx._log, ctx.order - 1
        # T_i = sum_j alpha_j y_j^(q^i), i = 1..n, as one F_p-linear map of
        # the n received entries: the unit x = p^u at position j maps to
        # alpha_j x^(q^i), read off the logs.
        qpow = ctx._qpow[1:] + ctx._qpow[:1]  # q^1..q^n, as q^n = 1 mod L
        twists = [[log[ctx.p ** u] * qi % L for qi in qpow]
                  for u in range(n * ctx.e)]
        self._twist_map = _PackedMap(ctx, [
            [[exp[log[aj] + lt] for lt in tw] for tw in twists]
            for aj in self.alpha])

    def encode(self, u) -> tuple[int, ...]:
        """Codeword u G for a length-k message over F_{q^n}."""
        u = _check_vector(self.ctx, u, "message", self.k)
        return fqn_vecmat(self.ctx, u, self._G)

    def _from_gt(self, cg) -> tuple[int, ...]:
        """The codeword c with c G^T = cg: c = c M^T D^-1 M, and c M^T is
        cg followed by c H^T = 0, so c is cg D_k^-1 encoded."""
        mul = self.ctx.mul
        u = [mul(v, d) for v, d in zip(cg, self._dk_inv)]
        return fqn_vecmat(self.ctx, u, self._G)

    def syndromes(self, y) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(transposed-code syndrome, ordinary syndrome) of a received word.

        The first is the transposed word times Hhat^T, the second y H^T;
        codeword parts cancel in both, so each depends only on the error.
        """
        return self._read(y)[1:3]

    def _read(self, y):
        """(y, s1, s2, y G^T) of a received word y, from T_1..T_n.

        y comes back as the tuple of ints checked and read here, which is
        all the decoder reads of the word.  s1_r = T_(r+1), and
        T_(n-i)^(q^i) = sum_j alpha_j^(q^i) y_j is entry i of y M^T: y G^T
        for i < k and s2_(i-k) from there on.
        """
        y = _check_vector(self.ctx, y, "word", self.n)
        tmap, ctx = self._twist_map, self.ctx
        T = tmap.values(tmap.apply(y))
        exp, log, L = ctx._exp, ctx._log, ctx.order - 1
        yM = [exp[log[v] * qi % L] if v else 0
              for v, qi in zip(reversed(T), ctx._qpow)]
        k = self.k
        return y, T[:self.n - k], tuple(yM[k:]), tuple(yM[:k])
