"""Seeded Monte Carlo harness for decoder failure rates.

Three trial kinds:

1. Genuine channel: a uniform rank-t error with equal row and column space
   corrupts a random codeword and the joint-syndrome decoder runs end to
   end.  Declared failures and silent miscorrections both count as
   failures; miscorrections are also tallied separately.
2. Uniform-coupling assumption: the stacked syndrome matrix is built in the
   rewritten form [Mt^(t+1); Mt^(t+k) Q] M_{t+1}(a)^T with Mt = M(a) P and
   Q drawn uniformly over invertible matrices instead of the coupled
   P^-1 P^T; a trial fails when the rank differs from t.
3. Two-word interleaved channel: two codewords corrupted by errors sharing
   one support of dimension t, decoded jointly.

Every trial owns an RNG stream derived from (seed, trial index) through
SHA-256, so results are identical for any shard count and shards can run
in parallel processes.  The closed-form companion quantities (random
subspace intersection probability and the 4/q^n failure bound) live here
as well.  A report is numbers; cli.py writes it as text, JSON or CSV.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .channel import _gaussian_binomial, sample_full_rank, \
    sample_space_symmetric, sample_uniform_invertible
from .code import GabidulinCode
from .decoder import decode, interleaved_decode
from .field import _index, make_field
from .linalg import fq_transpose, fqn_matmul, fqn_rank, fqn_vec_fq_mat, \
    moore_matrix
from .wso import find_wso_basis

_WILSON_Z = 1.959963984540054  # two-sided 95%


def wilson95(failures: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    failures, trials = _index(failures, "failures"), _index(trials, "trials")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 <= failures <= trials:
        raise ValueError(f"need 0 <= failures <= trials, got failures="
                         f"{failures}, trials={trials}")
    z = _WILSON_Z
    phat = failures / trials
    denom = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials
                         + z * z / (4 * trials * trials)) / denom
    # at the boundaries the exact lower/upper root is 0/1; clamp the float
    lo = 0.0 if failures == 0 else max(0.0, center - half)
    hi = 1.0 if failures == trials else min(1.0, center + half)
    return lo, hi


def failure_bound(q: int, n: int) -> float:
    """The 4 / q^n failure bound reported beside simulated rates.

    It is not a bound everywhere: the exact scenario-1 rate at
    (q, n, k, t) = (2, 4, 1, 2) is 150/210, against 0.25.
    """
    return 4 / q ** n


def intersection_probability(t_dim: int, ell: int, omega: int, Qbase: int) -> float:
    """Probability that two uniform ell-dimensional subspaces of a t_dim-
    dimensional space over the field of order Qbase intersect in dimension
    at least omega.

    Evaluated exactly in big integers and divided once at the end.  The
    q-power weight uses the subspace field order Qbase itself; for
    omega = 0 the sum telescopes to 1, and omega > ell gives 0.
    """
    if omega < 0 or ell < 0 or ell > t_dim:
        raise ValueError("need 0 <= omega and 0 <= ell <= t_dim")
    if omega > ell:
        return 0.0
    Q = Qbase
    num = 0
    for i in range(omega, ell + 1):
        num += (_gaussian_binomial(t_dim - ell, ell - i, Q)
                * _gaussian_binomial(ell, i, Q)
                * Q ** ((ell - i) ** 2))
    den = _gaussian_binomial(t_dim, ell, Q)
    return float(Fraction(num, den))


# ---------------------------------------------------------------------------
# Configuration and report.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimConfig:
    scenario: int
    q: int
    n: int
    k: int
    t: int
    trials: int
    seed: int

    def __post_init__(self):
        for name in ("scenario", "q", "n", "k", "t", "trials", "seed"):
            object.__setattr__(self, name, _index(getattr(self, name), name))
        if self.scenario not in (1, 2, 3):
            raise ValueError("scenario must be 1, 2 or 3")
        if not 1 <= self.k < self.n:
            raise ValueError(f"need 1 <= k < n, got k={self.k}, n={self.n}")
        tmax = 2 * (self.n - self.k) // 3
        if not 0 <= self.t <= tmax:
            raise ValueError(f"need 0 <= t <= {tmax}, got t={self.t}")
        if self.t == 0 and self.scenario != 1:
            raise ValueError(f"scenario {self.scenario} needs t >= 1")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")


@dataclass
class SimReport:
    config: SimConfig
    failures: int
    miscorrections: int
    rate: float
    wilson95: tuple[float, float]
    bound: float
    wallclock: float
    shard_ranges: tuple = dc_field(default=())
    seed_scheme: str = "sha256('<seed>:<trial index>') per trial"

    def payload(self) -> dict:
        """Shard-layout- and timing-independent content."""
        cfg = self.config
        return {
            "scenario": cfg.scenario, "q": cfg.q, "n": cfg.n, "k": cfg.k,
            "t": cfg.t, "trials": cfg.trials, "seed": cfg.seed,
            "failures": self.failures, "miscorrections": self.miscorrections,
            "rate": self.rate, "wilson_lo": self.wilson95[0],
            "wilson_hi": self.wilson95[1], "bound": self.bound,
        }


def _trial_rng(seed: int, index: int) -> random.Random:
    digest = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    return random.Random(int.from_bytes(digest[:16], "big"))


def _trial_genuine(code: GabidulinCode, t: int, rng) -> tuple[bool, bool]:
    ctx = code.ctx
    err = sample_space_symmetric(ctx, code.alpha, t, rng)
    u = tuple(ctx.rand_elem(rng) for _ in range(code.k))
    c = code.encode(u)
    add = ctx.add
    y = tuple(add(a, b) for a, b in zip(c, err.e))
    out = decode(code, y)
    if not out.decoded:
        return True, False
    if out.codeword != c:
        return True, True
    return False, False


def _trial_uniform_coupling(code: GabidulinCode, t: int, rng) -> tuple[bool, bool]:
    ctx = code.ctx
    n, k = code.n, code.k
    A = sample_full_rank(ctx, n, t, rng)
    a = fqn_vec_fq_mat(ctx, code.alpha, A)
    P = sample_uniform_invertible(ctx, t, rng)
    Q = sample_uniform_invertible(ctx, t, rng)
    frob = ctx.frob
    Mt = fqn_matmul(ctx, moore_matrix(ctx, a, n - k - t), P)
    top = [[frob(v, t + 1) for v in row] for row in Mt]
    bottom = fqn_matmul(ctx, [[frob(v, t + k) for v in row] for row in Mt], Q)
    right = fq_transpose(moore_matrix(ctx, a, t + 1))
    S = fqn_matmul(ctx, top + bottom, right)
    return fqn_rank(ctx, S) != t, False


def _trial_interleaved(code: GabidulinCode, t: int, rng) -> tuple[bool, bool]:
    ctx = code.ctx
    n, k = code.n, code.k
    A = sample_full_rank(ctx, n, t, rng)
    a = fqn_vec_fq_mat(ctx, code.alpha, A)
    errors = []
    for _ in range(2):
        B = sample_full_rank(ctx, t, n, rng)
        errors.append(fqn_vec_fq_mat(ctx, a, B))
    add = ctx.add
    words = []
    sent = []
    for e in errors:
        u = tuple(ctx.rand_elem(rng) for _ in range(k))
        c = code.encode(u)
        sent.append(c)
        words.append(tuple(add(x, y) for x, y in zip(c, e)))
    out = interleaved_decode(code, words[0], words[1])
    if not out.decoded:
        return True, False
    if list(out.codewords) != sent:
        return True, True
    return False, False


_TRIALS = {1: _trial_genuine, 2: _trial_uniform_coupling, 3: _trial_interleaved}


def _run_range(cfg: SimConfig, start: int, stop: int) -> tuple[int, int]:
    ctx = make_field(cfg.q, cfg.n)
    code = GabidulinCode(ctx, cfg.k, find_wso_basis(ctx))
    trial = _TRIALS[cfg.scenario]
    failures = 0
    miscorrections = 0
    for index in range(start, stop):
        failed, mis = trial(code, cfg.t, _trial_rng(cfg.seed, index))
        if failed:
            failures += 1
        if mis:
            miscorrections += 1
    return failures, miscorrections


def _shard_ranges(trials: int, shards: int) -> tuple[tuple[int, int], ...]:
    base, extra = divmod(trials, shards)
    out = []
    start = 0
    for w in range(shards):
        size = base + (1 if w < extra else 0)
        out.append((start, start + size))
        start += size
    return tuple(out)


def run_scenario(cfg: SimConfig, shards: int = 1) -> SimReport:
    """Run all trials of one scenario, optionally sharded across processes.

    Per-trial RNG streams depend only on (seed, trial index), so the report
    payload is identical for every shard count.
    """
    shards = _index(shards, "shards")
    if shards < 1:
        raise ValueError("shards must be >= 1")
    shards = min(shards, cfg.trials)
    ranges = _shard_ranges(cfg.trials, shards)
    t0 = time.perf_counter()
    if shards == 1:
        results = [_run_range(cfg, *ranges[0])]
    else:
        workers = min(shards, os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_range, [cfg] * shards,
                                    [r[0] for r in ranges],
                                    [r[1] for r in ranges]))
    failures = sum(r[0] for r in results)
    miscorrections = sum(r[1] for r in results)
    wallclock = time.perf_counter() - t0
    return SimReport(
        config=cfg,
        failures=failures,
        miscorrections=miscorrections,
        rate=failures / cfg.trials,
        wilson95=wilson95(failures, cfg.trials),
        bound=failure_bound(cfg.q, cfg.n),
        wallclock=wallclock,
        shard_ranges=ranges,
    )
