"""Call counts and cProfile shares of the simulate pipeline, stage by stage.

Usage, from the root of a checkout:

    python3 tests/stage_profile.py

With the package in this checkout's src/, for each shape (q,n,k,t) in
SHAPES, (2,8,2,4) and (3,7,1,4), the script

- times the set-up once: simulate._code with its cache cleared, so the
  field, the WSO basis search and the code are built anew; one build is
  discarded first, so that the figure leaves out the process's one-time
  warm-up, and the median of five builds is printed;

and for each scenario 1-3 at that shape

- runs TRIALS trials (3,000) at SEED (7) once without a profiler, for the
  time per trial, and once under cProfile;
- prints, for each layer of the pipeline, each function's exact call
  count, its calls per trial, and its cumulative and self time as shares
  of the profiled run;
- times simulate._trial_rng alone, without a profiler, on the trials'
  own (seed, index) pairs, and prints its us per call on its row.

The layers are the per-trial generator (simulate._trial_rng), the
sampler (channel._draw, and fq_rank called from it, once per attempt),
the products (fqn_vecmat, and the support alpha A read off the packed
columns, GabidulinCode._support), the syndrome pair
(GabidulinCode._read), the countdown (_insert_rows called from
_joint_decode, _syndrome_row), the root space (_full_root_space), the
recovery (_extend, GabidulinCode._from_gt) and scenario 2's rank
(_insert_rows called from _coupling_fails); _joint_decode's row holds
the whole decode after the syndrome pair.  Shares overlap: a cumulative
time includes the functions called.  cProfile slows the trials about
threefold, so times come from the run without a profiler and only
shares and counts from the profiled one.  It also charges a fixed cost
to every Python call, which understates a layer that is one call into
C, such as the seeding in _trial_rng: hence its unprofiled time.  The
counts are exact for a seed, and tests/test_simulate.py pins three of
them.  The file is not a test module.
"""

from __future__ import annotations

import cProfile
import pstats
import statistics
import sys
import time
from pathlib import Path

SHAPES = ((2, 8, 2, 4), (3, 7, 1, 4))
TRIALS = 3000
SEED = 7


def layers():
    """(layer, function, caller or None) rows; a caller restricts the count
    and times to the calls made from it."""
    from rankmetric import channel, decoder, linalg, simulate
    from rankmetric.code import GabidulinCode
    return [
        ("trial rng", simulate._trial_rng, None),
        ("sampler", channel._draw, None),
        ("sampler", linalg.fq_rank, channel._draw),
        ("products", linalg.fqn_vecmat, None),
        ("products", GabidulinCode._support, None),
        ("syndrome pair", GabidulinCode._read, None),
        ("decode", decoder._joint_decode, None),
        ("countdown", linalg._insert_rows, decoder._joint_decode),
        ("countdown", decoder._syndrome_row, None),
        ("root space", decoder._full_root_space, None),
        ("recovery", decoder._extend, None),
        ("recovery", GabidulinCode._from_gt, None),
        ("scenario-2 rank", linalg._insert_rows, simulate._coupling_fails),
    ]


def _label(f):
    code = f.__code__
    return code.co_filename, code.co_firstlineno, code.co_name


def profiled_run(cfg):
    """(pstats table, total profiled seconds, failures) of the trials of
    cfg, on the code of its shape as simulate builds it."""
    from rankmetric import simulate
    simulate._code(cfg.q, cfg.n, cfg.k)
    prof = cProfile.Profile()
    failures = prof.runcall(simulate._run_range, cfg, 0, cfg.trials)[0]
    stats = pstats.Stats(prof)
    return stats.stats, stats.total_tt, failures


def calls(table, f, caller=None):
    """(calls, cumulative s, self s) of f in a pstats table, only those
    made from caller when one is given; zeros for a function not run."""
    cc, nc, tt, ct, callers = table.get(_label(f), (0, 0, 0.0, 0.0, {}))
    if caller is not None:
        nc, cc, tt, ct = callers.get(_label(caller), (0, 0, 0.0, 0.0))
    return nc, ct, tt


def setup_seconds(q, n, k) -> float:
    """Median time of five simulate._code builds, each with the cache
    cleared, after one discarded build."""
    from rankmetric import simulate
    times = []
    for _ in range(6):
        simulate._code.cache_clear()
        start = time.perf_counter()
        simulate._code(q, n, k)
        times.append(time.perf_counter() - start)
    return statistics.median(times[1:])


def report(q, n, k, t, scenario) -> str:
    from rankmetric import simulate
    from rankmetric.simulate import SimConfig
    cfg = SimConfig(scenario=scenario, q=q, n=n, k=k, t=t, trials=TRIALS,
                    seed=SEED)
    simulate._code(q, n, k)
    start = time.perf_counter()
    failures = simulate._run_range(cfg, 0, TRIALS)[0]
    per_trial = (time.perf_counter() - start) / TRIALS
    start = time.perf_counter()
    for index in range(TRIALS):
        simulate._trial_rng(SEED, index)
    rng_us = (time.perf_counter() - start) / TRIALS * 1e6
    table, total, profiled_failures = profiled_run(cfg)
    if profiled_failures != failures:
        raise AssertionError("the profiled run failed other trials")
    lines = [f"({q},{n},{k},{t}) scenario {scenario}, {TRIALS} trials, seed "
             f"{SEED}: {per_trial * 1e6:.1f} us/trial unprofiled, "
             f"{failures} failures, {total:.2f} s profiled",
             f"  {'layer':<16}{'function':<30}{'calls':>9}{'per trial':>11}"
             f"{'cum':>8}{'self':>8}"]
    for layer, f, caller in layers():
        nc, ct, tt = calls(table, f, caller)
        name = f.__qualname__ + (f" < {caller.__name__}" if caller else "")
        lines.append(f"  {layer:<16}{name:<30}{nc:>9}{nc / TRIALS:>11.3f}"
                     f"{ct / total:>8.1%}{tt / total:>8.1%}")
        if f is simulate._trial_rng:
            lines[-1] += f"  {rng_us:.1f} us/call unprofiled"
    return "\n".join(lines)


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    for q, n, k, t in SHAPES:
        print(f"({q},{n},{k}) set-up: {setup_seconds(q, n, k) * 1e3:.2f} ms, "
              "median of 5 builds after a discarded one", flush=True)
        for scenario in (1, 2, 3):
            print(report(q, n, k, t, scenario), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
