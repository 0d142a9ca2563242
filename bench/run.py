"""Benchmark of the rankmetric trial pipeline, decoder and set-up.

Run from the root of a checkout:

    python3 bench/run.py --workload sim-genuine-q2n8 --seed 1 --seconds 10 \
        --trace 0

Each run is one single-threaded process with one closed-loop caller: the
next trial or decode starts only when the previous one has returned.  The
amount of work is fixed by (workload, --seconds) through the nominal rates
below, so every count and every outcome tally is a function of (workload,
seed, --seconds, --trace) alone and repeats exactly between runs and
between commits.

Timings are reported at reference host speed: a fixed pure-Python
calibration loop runs before and after each timed unit (one set-up, one
run_scenario block, one decode call), and the unit's time is scaled by the
ratio of the loop's reference time to its mean time there.  The reference
host's speed drifted by up to 2x within seconds; see README.md.  The
unscaled figures are printed as well.

With --trace 0 the last line of stdout is a JSON object whose metrics are
the end-to-end metrics of BENCHMARK.json; with --trace 1 they are its
per-layer metrics, from a run that wraps the package's functions (see
tracer.py).  A --seconds below 1 is a smoke run at tiny sizes.  The exit
code is non-zero when an output check fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rankmetric"
OUT_DIR = ROOT / ".bench_out"
PINS = Path(__file__).resolve().parent / "pinned_payloads.json"
DEFAULT_SEED = 1
SIM_SHARE = 0.7      # share of --seconds spent in run_scenario blocks
MIN_PASSES = 3       # decode calls per word; its time is their median
CAL_SHARE = 0.3      # calibration time after a decode call, over its time


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: int         # run_scenario scenario; 0 for the codec workload
    q: int
    n: int
    k: int
    t: int                # error rank; the codec cycles ranks 0..t
    setups: int           # set-ups timed per run
    block: int            # trials per run_scenario call
    pool: int             # distinct words decoded; p99 needs >= 1000
    trials_per_s: float   # nominal rates that size a run
    decodes_per_s: float

    @property
    def decoder(self) -> str:
        return "interleaved_decode" if self.scenario == 3 else "decode"


WORKLOADS = {w.name: w for w in (
    Workload("sim-genuine-q2n8", 1, 2, 8, 2, 4, setups=15, block=500,
             pool=3000, trials_per_s=1700, decodes_per_s=3000),
    Workload("sim-interleaved-q2n8", 3, 2, 8, 2, 4, setups=15, block=500,
             pool=2000, trials_per_s=1700, decodes_per_s=2700),
    Workload("codec-q2n16", 0, 2, 16, 4, 8, setups=5, block=0,
             pool=1800, trials_per_s=0, decodes_per_s=520),
    Workload("sim-genuine-q3n7", 1, 3, 7, 1, 4, setups=15, block=200,
             pool=1000, trials_per_s=600, decodes_per_s=850),
)}


@dataclass(frozen=True)
class Plan:
    setups: int
    blocks: int      # run_scenario calls
    pool: int        # distinct decode words
    passes: int      # loops over the word pool
    cal_rounds: int  # calibration rounds after each decode call


def make_plan(w: Workload, seconds: float) -> Plan:
    smoke = seconds < 1
    decode_s = seconds
    blocks = 0
    if w.scenario:
        blocks = max(1, round(SIM_SHARE * seconds * w.trials_per_s / w.block))
        decode_s = (1 - SIM_SHARE) * seconds
    calls = max(1, round(decode_s * w.decodes_per_s))
    if smoke:
        pool, passes = min(w.pool, max(2, calls)), 1
    else:
        pool, passes = w.pool, max(MIN_PASSES, round(calls / w.pool))
    cal_rounds = max(1, round(CAL_SHARE * CAL_ROUNDS / CAL_REF_S
                              / w.decodes_per_s))
    return Plan(1 if smoke else w.setups, blocks, pool, passes, cal_rounds)


def import_rankmetric():
    """The package under src/ of this checkout, never an installed copy."""
    init = PACKAGE / "__init__.py"
    if not init.is_file():
        sys.exit(f"bench: {init} not found; run from the root of a checkout")
    sys.path.insert(0, str(PACKAGE.parent))
    import rankmetric
    if Path(rankmetric.__file__).resolve() != init.resolve():
        sys.exit(f"bench: imported {rankmetric.__file__}, expected {init}")
    return rankmetric


# ---------------------------------------------------------------------------
# Host-speed calibration.
# ---------------------------------------------------------------------------

# Time of CAL_ROUNDS rounds of calibrate()'s loop on the reference host
# (2-core x86-64 container, Python 3.11) in its fastest state; scaled
# figures read as on that host.
CAL_ROUNDS = 4000
CAL_REF_S = 0.0131
_CAL_EXP = [(i * 40503 + 7) & 0xFFFF for i in range(1 << 16)]
_CAL_LOG = [(i * 9973 + 3) & 0xFFFF for i in range(1 << 16)]


def calibrate(rounds: int = CAL_ROUNDS) -> float:
    """Host-speed factor: the reference time of a fixed loop over its time now.

    The loop has the package's instruction mix (closure calls, lookups in
    65,536-entry tables, XOR, small lists, digit-wise mod-3 arithmetic) but
    none of its code, so no change to the package moves it.  Multiply a
    time by the factor, or divide a rate by it, to express it at reference
    speed.
    """
    exp, log = _CAL_EXP, _CAL_LOG

    def mul(a, b):
        if a == 0 or b == 0:
            return 0
        return exp[(log[a] + log[b]) & 0xFFFF]

    def add3(a, b):
        out, mult = 0, 1
        for _ in range(4):
            out += (a % 3 + b % 3) % 3 * mult
            mult *= 3
            a //= 3
            b //= 3
        return out

    start = time.perf_counter()
    acc = 1
    for r in range(rounds):
        for v in [mul(acc ^ j, j + r) for j in range(1, 9)]:
            acc ^= v
        acc = (acc ^ add3(acc, r)) & 0xFFFF or 1
    return CAL_REF_S * rounds / CAL_ROUNDS / (time.perf_counter() - start)


# ---------------------------------------------------------------------------
# Provenance.
# ---------------------------------------------------------------------------

def git_commit(root: Path):
    """HEAD of root/.git read from its files, or None outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args, w: Workload, plan: Plan) -> dict:
    digest = hashlib.sha256()
    lines = 0
    for f in sorted(PACKAGE.glob("*.py")):
        data = f.read_bytes()
        digest.update(f.name.encode() + b"\0" + data)
        lines += len(data.splitlines())
    return {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "commit": git_commit(ROOT),
        "source_sha256": digest.hexdigest()[:16], "source_lines": lines,
        "setups": plan.setups, "blocks": plan.blocks,
        "trials": plan.blocks * w.block, "words": plan.pool,
        "decode_calls": plan.pool * plan.passes,
    }


# ---------------------------------------------------------------------------
# Work.
# ---------------------------------------------------------------------------

def set_up(rm, w: Workload):
    ctx = rm.make_field(w.q, w.n)
    return rm.GabidulinCode(ctx, w.k, rm.find_wso_basis(ctx))


class Scaler:
    """Host-speed factors of consecutive timed units.

    Call `next()` right after each unit ends: it calibrates once and returns
    the mean of the factors measured just before and just after the unit.
    The host's speed changes within a second, so short units need a
    calibration of their own: a decode call gets one of about a third of
    its time.
    """

    def __init__(self, rounds: int = CAL_ROUNDS):
        self._rounds = rounds
        self._before = calibrate(rounds)

    def next(self) -> float:
        after = calibrate(self._rounds)
        factor = (self._before + after) / 2
        self._before = after
        return factor


def time_setups(rm, w: Workload, count: int):
    """Scaled and raw seconds of each set-up, and the last code built."""
    scaled, raw = [], []
    scaler = Scaler()
    for _ in range(count):
        start = time.perf_counter()
        code = set_up(rm, w)
        raw.append(time.perf_counter() - start)
        scaled.append(raw[-1] * scaler.next())
    return scaled, raw, code


def block_seed(seed: int, block: int) -> int:
    return seed * 1_000_000 + block


def run_blocks(rm, w: Workload, seed: int, blocks: int):
    """run_scenario calls of w.block trials each, one seed per block.

    Returns scaled and raw trials/s per block, the payloads, and the wall
    seconds inside run_scenario.
    """
    scaled, raw, payloads, wall = [], [], [], 0.0
    scaler = Scaler()
    for b in range(blocks):
        cfg = rm.SimConfig(w.scenario, w.q, w.n, w.k, w.t, w.block,
                           block_seed(seed, b))
        start = time.perf_counter()
        report = rm.run_scenario(cfg, shards=1)
        elapsed = time.perf_counter() - start
        wall += elapsed
        raw.append(w.block / elapsed)
        scaled.append(raw[-1] / scaler.next())
        payloads.append(json.loads(json.dumps(report.payload())))
    return scaled, raw, payloads, wall


def make_words(rm, w: Workload, code, seed: int, count: int):
    """(decoder arguments, codewords sent) pairs drawn from the seed.

    Sim workloads draw their scenario's channel: a space-symmetric error of
    rank t, or two errors of rank t sharing one column space.  The codec
    workload cycles the space-symmetric rank through 0..t.
    """
    rng = random.Random(f"{w.name}:{seed}")
    ctx = code.ctx
    add = ctx.add

    def corrupt(err):
        c = code.encode(tuple(ctx.rand_elem(rng) for _ in range(w.k)))
        return tuple(add(a, b) for a, b in zip(c, err)), c

    words = []
    for i in range(count):
        if w.scenario == 3:
            A = rm.sample_full_rank(ctx, w.n, w.t, rng)
            pair = [corrupt(rm.phi_inv(ctx, rm.fq_matmul(
                        ctx, A, rm.sample_full_rank(ctx, w.t, w.n, rng)),
                        code.alpha)) for _ in range(2)]
            words.append(((code, pair[0][0], pair[1][0]),
                          (pair[0][1], pair[1][1])))
        else:
            rank = w.t if w.scenario else i % (w.t + 1)
            err = rm.sample_space_symmetric(ctx, code.alpha, rank, rng).e
            y, c = corrupt(err)
            words.append(((code, y), c))
    return words


def classify(out, sent) -> str:
    if not out.decoded:
        return "failure"
    got = tuple(out.codewords) if hasattr(out, "codewords") else out.codeword
    return "decoded" if got == sent else "miscorrection"


@dataclass
class Decodes:
    scaled_ns: list        # per call in call order, at reference speed
    raw_ns: list
    first: list            # outcome of each word on the first pass
    tally: Counter         # outcomes over all calls
    pool: int

    def per_word(self, samples):
        """Each word's median time over its passes.

        A stall of the host hits one call, not the median of a word's
        calls, so percentiles over words show the decoder's own tail.
        """
        return [statistics.median(samples[i::self.pool])
                for i in range(self.pool)]

    def rate(self, samples) -> float:
        """Median over passes of the calls per second."""
        pool = self.pool
        return statistics.median(pool * 1e9 / sum(samples[lo:lo + pool])
                                 for lo in range(0, len(samples), pool))


def run_decodes(fn, words, plan: Plan, tracer=None) -> Decodes:
    """Time every decoder call over plan.passes loops of the word pool."""
    clock = time.perf_counter_ns
    res = Decodes([], [], [], Counter(), len(words))
    scaler = Scaler(plan.cal_rounds)
    for p in range(plan.passes):
        for i, (args, sent) in enumerate(words):
            if tracer is not None:
                tracer.trial = p * len(words) + i
            start = clock()
            out = fn(*args)
            elapsed = clock() - start
            res.raw_ns.append(elapsed)
            res.scaled_ns.append(elapsed * scaler.next())
            kind = classify(out, sent)
            res.tally[kind] += 1
            if p == 0:
                res.first.append(kind)
    return res


def sim_outcomes(payloads) -> Counter:
    tally = Counter()
    for p in payloads:
        tally["decoded"] += p["trials"] - p["failures"]
        tally["failure"] += p["failures"] - p["miscorrections"]
        tally["miscorrection"] += p["miscorrections"]
    return tally


def check_pins(w: Workload, seed: int, payloads, problems: list) -> int:
    """Compare block payloads with those pinned for the default seed."""
    if seed != DEFAULT_SEED:
        return 0
    pinned = json.loads(PINS.read_text()).get(w.name)
    if pinned is None:
        problems.append(f"no pinned payloads for {w.name}")
        return 0
    checked = min(len(pinned), len(payloads))
    for b in range(checked):
        if payloads[b] != pinned[b]:
            problems.append(f"block {b} payload differs from the pinned one: "
                            f"{payloads[b]} != {pinned[b]}")
    return checked


def check_codec(w: Workload, tally: Counter, problems: list) -> int:
    """Codec words must decode to the word sent; returns the wrong ones."""
    wrong = 0 if w.scenario else tally["miscorrection"]
    if wrong:
        problems.append(f"{wrong} decode calls reported a codeword other "
                        f"than the one sent")
    return wrong


def p99(samples):
    return statistics.quantiles(samples, n=100)[98]


# ---------------------------------------------------------------------------
# Runs.
# ---------------------------------------------------------------------------

def untraced(rm, w: Workload, args, plan: Plan, info: dict, problems: list):
    setup_scaled, setup_raw, code = time_setups(rm, w, plan.setups)
    raw = {"setup_s": statistics.median(setup_raw)}
    if w.scenario:
        block_rates, raw_rates, payloads, _ = run_blocks(rm, w, args.seed,
                                                         plan.blocks)
        trials_per_s = statistics.median(block_rates)
        raw["trials_per_s"] = statistics.median(raw_rates)
        info["sim_outcomes"] = sim_outcomes(payloads)
        info["pinned_blocks_checked"] = check_pins(w, args.seed, payloads,
                                                   problems)
    words = make_words(rm, w, code, args.seed, plan.pool)
    dec = run_decodes(getattr(rm, w.decoder), words, plan)
    if not w.scenario:
        trials_per_s = dec.rate(dec.scaled_ns)
        raw["trials_per_s"] = dec.rate(dec.raw_ns)
    failed = check_codec(w, dec.tally, problems)
    scaled_words = dec.per_word(dec.scaled_ns)
    raw_words = dec.per_word(dec.raw_ns)
    raw["decode_us_p50"] = statistics.median(raw_words) / 1e3
    raw["decode_us_p99"] = p99(raw_words) / 1e3
    info.update(decode_outcomes=dec.tally, decode_words=dec.pool,
                decode_calls=len(dec.raw_ns), unscaled=raw)
    metrics = {
        "setup_s": statistics.median(setup_scaled),
        "trials_per_s": trials_per_s,
        "decode_us_p50": statistics.median(scaled_words) / 1e3,
        "decode_us_p99": p99(scaled_words) / 1e3,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, plan.blocks * w.block + len(dec.raw_ns), failed


def traced(rm, w: Workload, args, plan: Plan, info: dict, problems: list):
    from tracer import LAYERS, Tracer, summarize, write_spans

    code = set_up(rm, w)
    words = [] if w.scenario else make_words(rm, w, code, args.seed,
                                             plan.pool)

    def main_loop(tracer=None):
        """(ops, median scaled rate, wall s, outcome record) of the loop."""
        if w.scenario:
            scaled, _, payloads, wall = run_blocks(rm, w, args.seed,
                                                   plan.blocks)
            return (plan.blocks * w.block, statistics.median(scaled), wall,
                    payloads)
        dec = run_decodes(getattr(rm, w.decoder), words, plan, tracer)
        return (len(dec.raw_ns), dec.rate(dec.scaled_ns),
                sum(dec.raw_ns) / 1e9, (dec.first, dec.tally))

    ops, plain_rate, _, plain_record = main_loop()
    tracer = Tracer()
    tracer.install()
    try:
        time_setups(rm, w, plan.setups)
        setup_spans = tracer.take()
        _, rate, wall, record = main_loop(tracer)
        spans = tracer.take()
    finally:
        tracer.remove()

    if record != plain_record:
        problems.append("traced and untraced runs gave different outcomes")
    if w.scenario:
        info["pinned_blocks_checked"] = check_pins(w, args.seed, record,
                                                   problems)
        tally = sim_outcomes(record)
    else:
        tally = record[1]
    failed = check_codec(w, tally, problems)
    OUT_DIR.mkdir(exist_ok=True)
    write_spans(OUT_DIR / f"{w.name}-seed{args.seed}-spans.csv",
                [("setup", setup_spans), ("loop", spans)])

    calls, total, layer_self = summarize(spans)
    setup_calls, setup_total, _ = summarize(setup_spans)

    def count(table, name, caller=None):
        return sum(v for (n, c), v in table.items()
                   if n == name and (caller is None or c == caller))

    def ratio(num, den):
        return num / den if den else 0.0

    def mean_us(*names):
        return ratio(sum(count(total, x) for x in names),
                     sum(count(calls, x) for x in names)) / 1e3

    def setup_s(name):
        return ratio(count(setup_total, name), count(setup_calls, name)) / 1e9

    trials = plan.blocks * w.block
    decodes = (count(calls, "decoder.decode")
               + count(calls, "decoder.interleaved_decode"))
    # sampler calls made from outside the channel layer
    samplers = [key for key in calls
                if key[0].startswith("channel.") and key[1] != "channel"]
    drawn = (count(calls, "channel.sample_full_rank")
             + count(calls, "channel.sample_symmetric_invertible"))
    shares = {layer: layer_self[layer] / (wall * 1e9) for layer in LAYERS}
    metrics = {
        "simulate.self_us_per_trial":
            ratio(layer_self["simulate"], trials) / 1e3,
        "channel.sample_us": ratio(sum(total[key] for key in samplers),
                                   sum(calls[key] for key in samplers)) / 1e3,
        "channel.attempts_per_sample":
            ratio(count(calls, "linalg.fq_rank", "channel"), drawn),
        "code.encode_us": mean_us("code.encode"),
        "code.syndromes_us": mean_us("code.syndromes"),
        "code.syndrome_us": mean_us("code.syndrome"),
        "code.init_s": setup_s("code.init"),
        "linalg.transpose_vector_us": mean_us("linalg.transpose_vector"),
        "linalg.phi_inv_us": mean_us("linalg.phi_inv"),
        "linalg.fqn_solve_us": mean_us("linalg.fqn_solve"),
        "decoder.decode_us": mean_us("decoder.decode",
                                     "decoder.interleaved_decode"),
        "decoder.joint_kernel_us": mean_us("decoder.joint_kernel"),
        "decoder.joint_kernel_calls_per_decode":
            ratio(count(calls, "decoder.joint_kernel"), decodes),
        "decoder.recover_error_us": mean_us("decoder.recover_error"),
        "decoder.recover_error_calls_per_decode":
            ratio(count(calls, "decoder.recover_error"), decodes),
        "decoder.outcome_decoded": tally["decoded"],
        "decoder.outcome_failure": tally["failure"],
        "decoder.outcome_miscorrection": tally["miscorrection"],
        "linpoly.root_space_basis_us": mean_us("linpoly.root_space_basis"),
        "linpoly.calls_per_decode":
            ratio(count(calls, "linpoly.root_space_basis"), decodes),
        "field.make_field_s": setup_s("field.make_field"),
        "wso.find_wso_basis_s": setup_s("wso.find_wso_basis"),
        "trace.overhead": plain_rate / rate,
        "trace.unattributed_share": 1 - sum(shares.values()),
    }
    for layer, share in shares.items():
        metrics[f"{layer}.self_share"] = share
    return metrics, ops, failed


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("need --seed >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    rm = import_rankmetric()
    w = WORKLOADS[args.workload]
    plan = make_plan(w, args.seconds)
    prov = provenance(args, w, plan)
    print("provenance:", json.dumps(prov), flush=True)
    info, problems = {}, []
    run = traced if args.trace else untraced
    values, attempted, failed = run(rm, w, args, plan, info, problems)

    wanted = declared["per_layer" if args.trace else "end_to_end"]
    if set(values) != {m["name"] for m in wanted}:
        raise RuntimeError(f"metrics {sorted(values)} do not match "
                           f"BENCHMARK.json {[m['name'] for m in wanted]}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    for key, value in info.items():
        print(f"{key}:", json.dumps(value), flush=True)
    for problem in problems:
        print("check failed:", problem, flush=True)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"provenance": prov, "info": info, "problems": problems,
                    "result": result}, indent=1) + "\n")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
