"""Seeded Monte Carlo harness for decoder failure rates.

Three trial kinds:

1. Genuine channel: a uniform rank-t error with equal row and column space
   is decoded end to end by the joint-syndrome decoder.
2. Uniform-coupling assumption: with Mt = M(a) P and Q drawn uniformly
   over invertible matrices instead of the coupled P^-1 P^T, a trial fails
   when rank [Mt; Mt^(q^(k-1)) Q] differs from t.  That is the rank of the
   rewritten stacked syndrome matrix [Mt^(t+1); Mt^(t+k) Q] M_{t+1}(a)^T:
   M_{t+1}(a)^T has full row rank t, and undoing q^(t+1) entrywise fixes
   the F_q entries of P and Q.  As P and Q are over F_q, Mt = M(aP) and
   Mt Q = M(aPQ): the trial ranks the Moore rows of aP and aPQ.
3. Two-word interleaved channel: two errors sharing one support of
   dimension t, decoded jointly.

Scenarios 1 and 3 decode the errors alone and share one judge: a trial
fails unless every decoded word is zero, and a decoded nonzero word also
counts as a miscorrection.  That is the verdict on codeword plus error for
any codeword, as decoding is translation-equivariant: the syndromes vanish
on codewords, and the decoded word of c + e is c plus that of e.

Every trial owns an RNG stream derived from (seed, trial index) through
SHA-256, so results are identical for any shard count and shards can run
in parallel processes; shard w of W runs trials trials * w // W up to
trials * (w + 1) // W, on at most as many workers as the process may run
on cores.  The process pool, and with it multiprocessing, is imported only
when a run shards, so importing this module loads neither.  A process
builds the field, WSO basis and code of a shape once (`_code`) and reuses
them in later calls and shards at that shape, so `SimReport.wallclock`
includes the build only on a cold call.  The
closed-form companion quantities (random subspace intersection
probability, one int ratio divided once, and the 4/q^n failure bound) live
here as well.  A report is numbers; cli.py writes it as text, JSON or CSV.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
import random
import time
from dataclasses import dataclass
from typing import ClassVar

from .channel import _gaussian_binomial, sample_full_rank, \
    sample_space_symmetric
from .code import GabidulinCode, _radius
from .decoder import decode, interleaved_decode
from .field import _index, _prime_power, make_field
from .linalg import _rank, fqn_vecmat

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
    q = _index(q, "q")
    _prime_power(q)
    n = _index(n, "n")
    if n < 1:
        raise ValueError(f"extension degree n={n} must be >= 1")
    return 4 / q ** n


def intersection_probability(t_dim: int, ell: int, omega: int, Qbase: int) -> float:
    """Probability that two uniform ell-dimensional subspaces of a t_dim-
    dimensional space over the field of order Qbase intersect in dimension
    at least omega.

    Evaluated exactly in big integers and divided once at the end, by int
    true division, which rounds the exact quotient correctly.  The
    q-power weight uses the subspace field order Qbase itself; for
    omega = 0 the sum telescopes to 1, and omega > ell gives 0.
    """
    t_dim, ell = _index(t_dim, "t_dim"), _index(ell, "ell")
    omega, Q = _index(omega, "omega"), _index(Qbase, "Qbase")
    _prime_power(Q)
    if omega < 0 or ell < 0 or ell > t_dim:
        raise ValueError("need 0 <= omega and 0 <= ell <= t_dim")
    num = 0
    for i in range(omega, ell + 1):
        num += (_gaussian_binomial(t_dim - ell, ell - i, Q)
                * _gaussian_binomial(ell, i, Q)
                * Q ** ((ell - i) ** 2))
    den = _gaussian_binomial(t_dim, ell, Q)
    return num / den


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
        tmax = _radius(self.n, self.k)
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
    wallclock: float
    seed_scheme: ClassVar[str] = "sha256('<seed>:<trial index>') per trial"

    @property
    def rate(self) -> float:
        return self.failures / self.config.trials

    @property
    def wilson95(self) -> tuple[float, float]:
        return wilson95(self.failures, self.config.trials)

    @property
    def bound(self) -> float:
        return failure_bound(self.config.q, self.config.n)

    def payload(self) -> dict:
        """Shard-layout- and timing-independent content."""
        cfg, (lo, hi) = self.config, self.wilson95
        return {
            "scenario": cfg.scenario, "q": cfg.q, "n": cfg.n, "k": cfg.k,
            "t": cfg.t, "trials": cfg.trials, "seed": cfg.seed,
            "failures": self.failures, "miscorrections": self.miscorrections,
            "rate": self.rate, "wilson_lo": lo, "wilson_hi": hi,
            "bound": self.bound,
        }


def _trial_rng(seed: int, index: int) -> random.Random:
    digest = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    return random.Random(int.from_bytes(digest[:16], "big"))


def _judged(codewords) -> tuple[bool, bool]:
    """(failed, miscorrected) from the words decoded from the errors alone,
    None on a failure: a failure is anything but all zero words, a
    miscorrection a decoded nonzero word."""
    wrong = codewords is not None and any(map(any, codewords))
    return codewords is None or wrong, wrong


def _trial_genuine(code: GabidulinCode, t: int, rng) -> tuple[bool, bool]:
    err = sample_space_symmetric(code.ctx, code.alpha, t, rng)
    out = decode(code, err.e)
    return _judged(None if out.codeword is None else [out.codeword])


def _coupling_fails(code: GabidulinCode, a, P, Q) -> bool:
    """Whether rank [M(aP); M(aPQ)^(q^(k-1))] differs from t = len(a), M
    the Moore matrix with n-k-t rows: [M(a) P; M(a)^(q^(k-1)) P Q]'s rank."""
    ctx, k, t = code.ctx, code.k, len(a)
    frob, m = ctx.frob, code.n - k - t
    b = fqn_vecmat(ctx, a, P)
    c = fqn_vecmat(ctx, b, Q)
    return _rank(ctx, [[frob(x, r) for x in b] for r in range(m)] + [
        [frob(x, r) for x in c] for r in range(k - 1, k - 1 + m)]) != t


def _trial_uniform_coupling(code: GabidulinCode, t: int, rng) -> tuple[bool, bool]:
    ctx = code.ctx
    A = sample_full_rank(ctx, code.n, t, rng)
    a = fqn_vecmat(ctx, code.alpha, A)
    P = sample_full_rank(ctx, t, t, rng)
    Q = sample_full_rank(ctx, t, t, rng)
    return _coupling_fails(code, a, P, Q), False


def _trial_interleaved(code: GabidulinCode, t: int, rng) -> tuple[bool, bool]:
    ctx = code.ctx
    n = code.n
    A = sample_full_rank(ctx, n, t, rng)
    a = fqn_vecmat(ctx, code.alpha, A)
    errors = []
    for _ in range(2):
        B = sample_full_rank(ctx, t, n, rng)
        errors.append(fqn_vecmat(ctx, a, B))
    return _judged(interleaved_decode(code, *errors).codewords)


_TRIALS = {1: _trial_genuine, 2: _trial_uniform_coupling, 3: _trial_interleaved}


@functools.lru_cache(maxsize=1)
def _code(q: int, n: int, k: int) -> GabidulinCode:
    """The code of the last shape run in this process, on its WSO basis.

    Trials only read it, so repeated runs and the shards of one worker
    share one build; one code stays alive between calls.
    """
    return GabidulinCode(make_field(q, n), k)


def _run_range(cfg: SimConfig, start: int, stop: int) -> tuple[int, int]:
    code = _code(cfg.q, cfg.n, cfg.k)
    trial = _TRIALS[cfg.scenario]
    failures = miscorrections = 0
    for index in range(start, stop):
        failed, mis = trial(code, cfg.t, _trial_rng(cfg.seed, index))
        failures += failed
        miscorrections += mis
    return failures, miscorrections


def run_scenario(cfg: SimConfig, shards: int = 1) -> SimReport:
    """Run all trials of one scenario, optionally sharded across processes.

    Per-trial RNG streams depend only on (seed, trial index), so the report
    payload is identical for every shard count.
    """
    shards = _index(shards, "shards")
    if shards < 1:
        raise ValueError("shards must be >= 1")
    shards = min(shards, cfg.trials)
    t0 = time.perf_counter()
    if shards == 1:
        results = [_run_range(cfg, 0, cfg.trials)]
    else:
        bounds = [cfg.trials * w // shards for w in range(shards + 1)]
        cores = (len(os.sched_getaffinity(0))
                 if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
        workers = min(shards, cores)
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_range, [cfg] * shards,
                                    bounds[:-1], bounds[1:]))
    failures = sum(r[0] for r in results)
    miscorrections = sum(r[1] for r in results)
    return SimReport(config=cfg, failures=failures,
                     miscorrections=miscorrections,
                     wallclock=time.perf_counter() - t0)
