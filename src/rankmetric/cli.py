"""Command-line entry point, and the package's one text layer.

Subcommands: find-basis, codec (encode / syndrome / decode), count,
simulate, keysize; argparse parent parsers declare the options that several
take (--q --n --modulus, --out-file, the text/json/csv --out) once.
Human-readable output by default; --out json/csv emits machine formats with
fixed keys.  Exit codes: 0 success, 1 domain error, 2 usage error.
--out-file duplicates the payload into a file; relative paths resolve
against $RANKMETRIC_OUTDIR when set.

The library returns ints and tuples, and only this module writes text: an
element is its coefficients joined by ':' (the modulus too), a vector its
elements joined by ','.  Each _cmd_* returns (text, warning); main prints.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from .channel import count_rank, count_space_symmetric, count_symmetric, \
    gaussian_binomial
from .code import GabidulinCode, _radius
from .decoder import decode
from .field import _prime_power, make_field
from .keysize import ERROR_TYPES, build_table, reference_table
from .simulate import SimConfig, failure_bound, intersection_probability, \
    run_scenario
from .wso import _normal_exists, find_wso_basis, is_weak_self_orthogonal


def _elem(ctx, x: int) -> str:
    return ":".join(str(c) for c in ctx.coeffs(x))


def _vector(ctx, v) -> str:
    return ",".join(_elem(ctx, x) for x in v)


def _colon_ints(text: str, what: str) -> list[int]:
    try:  # the ':'-joined form of an element or a modulus
        return [int(c) for c in text.strip().split(":")]
    except ValueError:
        raise ValueError(
            f"{what} {text!r} is not ':'-joined integers") from None


def _parse_vector(ctx, text: str):
    return tuple(ctx.from_coeffs(_colon_ints(part, "element"))
                 for part in text.strip().split(","))


def _cell(v, float_fmt: str) -> str:
    if v is None:
        return ""
    return format(v, float_fmt) if isinstance(v, float) else str(v)


def _csv(rows, float_fmt: str) -> str:
    """Header from the first row's keys; floats in float_fmt, None empty."""
    return "\n".join([",".join(rows[0])] + [
        ",".join(_cell(v, float_fmt) for v in r.values()) for r in rows])


def _ignored(args, what: str, **flags):
    given = [flag for name, flag in flags.items()
             if getattr(args, name) is not None]
    if given:
        raise ValueError(f"{what} ignores {' '.join(given)}")


def _write_out(text: str, path: str | None):
    if path is None:
        return
    outdir = os.environ.get("RANKMETRIC_OUTDIR")
    if outdir and not os.path.isabs(path):
        path = os.path.join(outdir, path)
    Path(path).write_text(text if text.endswith("\n") else text + "\n",
                          encoding="utf-8")


def _read_lines(path: str):
    data = sys.stdin.read() if path == "-" else \
        Path(path).read_text(encoding="utf-8")
    return [line for line in data.splitlines() if line.strip()]


def _field(args):
    m = args.modulus  # --modulus 1:1:1 is the coefficient list (1, 1, 1)
    return make_field(args.q, args.n,
                      m if m is None else _colon_ints(m, "modulus"))


def _cmd_find_basis(args):
    ctx = _field(args)
    alpha = find_wso_basis(ctx)
    diag = is_weak_self_orthogonal(ctx, alpha)[1]
    normal = _normal_exists(ctx)
    method = "normal" if normal else "trace-orthonormal"
    payload = {"q": ctx.q, "n": ctx.n,
               "modulus": ":".join(str(c) for c in ctx.modulus),
               "alpha": [_elem(ctx, a) for a in alpha],
               "diag": [_elem(ctx, x) for x in diag],
               "method": method,
               "beta": _elem(ctx, alpha[0]) if normal else None}
    if args.out == "json":
        return json.dumps(payload, indent=2), None
    return (f"q = {ctx.q}, n = {ctx.n}, modulus = {payload['modulus']}\n"
            f"method = {method}\nalpha = {_vector(ctx, alpha)}\n"
            f"diag  = {_vector(ctx, diag)}"), None


def _codec_line(code, action: str, vec) -> str:
    ctx = code.ctx
    if action == "encode":
        return _vector(ctx, code.encode(vec))
    if action == "syndrome":
        s1, s2 = code.syndromes(vec)
        return json.dumps({"s1": _vector(ctx, s1), "s2": _vector(ctx, s2)})
    outcome = decode(code, vec)
    return json.dumps({
        "status": outcome.status,
        "codeword": _vector(ctx, outcome.codeword)
        if outcome.codeword else None,
        "error": _vector(ctx, outcome.error) if outcome.error else None,
        "trial_trace": [list(p) for p in outcome.trial_trace],
    })


def _cmd_codec(args):
    ctx = _field(args)
    code = GabidulinCode(ctx, args.k)
    return "\n".join(_codec_line(code, args.action, _parse_vector(ctx, line))
                     for line in _read_lines(args.infile)), None


_COUNTERS = {"sp-sym": count_space_symmetric, "sym": count_symmetric,
             "rank": count_rank, "gauss": gaussian_binomial}


def _cmd_count(args):
    count = _COUNTERS[args.kind](args.n, args.t, args.q)
    # lift Python's cap on int-to-decimal digits (4300 by default from
    # 3.10.7 on, 0 = none) for this one conversion
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return f"{count} {math.log2(count):.6f}", None
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _scenario4(args):
    _ignored(args, "scenario 4", trials="--trials", seed="--seed",
             shards="--shards")
    _prime_power(args.q)
    t, nk = args.t, args.n - args.k
    # where the closed form is defined
    lo, hi = (nk + 1) // 2, _radius(args.n, args.k)
    if not lo <= t <= hi:
        raise ValueError(f"scenario 4 needs ceil((n-k)/2) = {lo} <= t <= "
                         f"floor(2(n-k)/3) = {hi}, got t={t}")
    prob = intersection_probability(t, nk - t, 2 * nk - 3 * t + 1,
                                    args.q ** args.n)
    bound = failure_bound(args.q, args.n)
    head = {"scenario": 4, "q": args.q, "n": args.n, "k": args.k, "t": args.t}
    if args.out == "json":
        return json.dumps({**head, "rate": prob, "bound": bound}), None
    if args.out == "csv":  # no trials, so no Wilson interval
        return _csv([{**head, "trials": 0, "failures": 0, "rate": prob,
                      "wilson_lo": None, "wilson_hi": None, "bound": bound}],
                    ".6g"), None
    return f"{prob:.6f}", None


def _cmd_simulate(args):
    if args.scenario == 4:
        return _scenario4(args)
    cfg = SimConfig(scenario=args.scenario, q=args.q, n=args.n, k=args.k,
                    t=args.t, seed=0 if args.seed is None else args.seed,
                    trials=100000 if args.trials is None else args.trials)
    shards = 1 if args.shards is None else args.shards
    report = run_scenario(cfg, shards=shards)
    payload = report.payload()
    lo, hi = report.wilson95
    if args.out == "json":
        payload["wallclock_s"] = round(report.wallclock, 3)
        text = json.dumps(payload, indent=2)
    elif args.out == "csv":
        text = _csv([{c: v for c, v in payload.items()
                      if c not in ("seed", "miscorrections")}], ".6g")
    else:
        text = (f"scenario {cfg.scenario}: {report.failures} failures / "
                f"{cfg.trials} trials, rate {report.rate:.6f}, "
                f"wilson95 [{lo:.6f}, {hi:.6f}], bound {report.bound:.6f}, "
                f"miscorrections {report.miscorrections}")
    warning = None if lo <= report.bound else (
        f"warning: wilson_lo {lo:.6f} exceeds bound {report.bound:.6f}; "
        f"4/q^n is not a bound at (q, n, k, t) = "
        f"({cfg.q}, {cfg.n}, {cfg.k}, {cfg.t})")
    return text, warning


def _keysize_dict(row) -> dict:
    """A CryptoRow's fields in order, renamed, floats to 2 decimals."""
    names = {"kind": "type", "lam": "lambda"}
    return {names.get(f, f): round(v, 2) if isinstance(v, float) else v
            for f, v in vars(row).items()}


def _cmd_keysize(args):
    if args.table:
        _ignored(args, "--table paper", sl="--sl", type="--type", n="--n",
                 k="--k", lam="--lambda", q="--q")
        rows = reference_table()
    else:
        if any(getattr(args, name) is None
               for name in ("sl", "type", "n", "k", "lam")):
            raise ValueError(
                "need --sl --type --n --k --lambda (or --table paper)")
        rows = build_table([(args.sl, args.type, args.n, args.k, args.lam)],
                           q=2 if args.q is None else args.q)
    dicts = [_keysize_dict(r) for r in rows]
    if args.out == "json":
        return json.dumps(dicts, indent=2), None
    if args.out == "csv":
        return _csv(dicts, ".2f"), None
    row = ("{:>4} {:7} {:>3} {:>3} {:>2} {:>3} {:>8} {:>8} {:>8} {:>7} "
           "{}").format
    return "\n".join([row("SL", "type", "n", "k", "l", "t_", "WF_dec",
                          "WF_struc", "WF_e", "KB", "ok")] + [
        row(*(_cell(v, ".2f") for v in d.values())) for d in dicts]), None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankmetric",
        description="Rank-metric coding toolkit: codes on weak "
                    "self-orthogonal bases, joint-syndrome decoding, error "
                    "counting, failure-rate simulation, key-size tables.")
    sub = parser.add_subparsers(dest="command", required=True)
    field = argparse.ArgumentParser(add_help=False)
    field.add_argument("--q", type=int, required=True, help="base field order")
    field.add_argument("--n", type=int, required=True, help="extension degree")
    field.add_argument("--modulus", help="defining polynomial, e.g. '1:1:1'")
    out_file = argparse.ArgumentParser(add_help=False)
    out_file.add_argument("--out-file")
    table_out = argparse.ArgumentParser(add_help=False)
    table_out.add_argument("--out", choices=["text", "json", "csv"],
                           default="text")
    find, codec, count, simulate, keysize = (
        sub.add_parser(name, help=help, parents=[*parents, out_file])
        for name, help, *parents in (
            ("find-basis", "search a weak self-orthogonal basis", field),
            ("codec", "encode, decode or compute syndromes", field),
            ("count", "exact error-ensemble counts"),
            ("simulate", "Monte Carlo failure rates", table_out),
            ("keysize", "work factors and key sizes", table_out)))
    find.add_argument("--out", choices=["text", "json"], default="text")
    find.set_defaults(func=_cmd_find_basis)
    codec.add_argument("action", choices=["encode", "syndrome", "decode"])
    codec.add_argument("--k", type=int, required=True, help="code dimension")
    codec.add_argument("--in", dest="infile", default="-",
                       help="input vectors, one per line ('-' for stdin)")
    codec.set_defaults(func=_cmd_codec)
    count.add_argument("--kind", choices=sorted(_COUNTERS), required=True)
    for x in "ntq":
        count.add_argument(f"--{x}", type=int, required=True)
    count.set_defaults(func=_cmd_count)
    simulate.add_argument("--scenario", type=int, choices=[1, 2, 3, 4],
                          required=True)
    for x in "qnkt":
        simulate.add_argument(f"--{x}", type=int, required=True)
    # scenario 4 rejects --trials --seed --shards, so they default to None
    # and scenarios 1-3 read None as 100000, 0 and 1
    for x in ("trials", "seed", "shards"):
        simulate.add_argument(f"--{x}", type=int)
    simulate.set_defaults(func=_cmd_simulate)
    keysize.add_argument("--table", choices=["paper"],
                         help="emit the full reference table")
    keysize.add_argument("--sl", type=int)
    keysize.add_argument("--type", choices=list(ERROR_TYPES))
    for x in "nk":
        keysize.add_argument(f"--{x}", type=int)
    keysize.add_argument("--lambda", dest="lam", type=int)
    keysize.add_argument("--q", type=int, help="base field order (default 2)")
    keysize.set_defaults(func=_cmd_keysize)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text, warning = args.func(args)
        print(text)
        _write_out(text, args.out_file)
    except (ValueError, OSError, ZeroDivisionError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if warning:
        print(warning, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
