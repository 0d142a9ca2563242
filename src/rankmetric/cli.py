"""Command-line entry point.

Subcommands: find-basis, codec (encode / syndrome / decode), count,
simulate, keysize.  Human-readable output by default; --out json/csv emits
machine formats with fixed keys.  Exit codes: 0 success, 1 domain error,
2 usage error.  --out-file duplicates the payload into a file; relative
paths resolve against $RANKMETRIC_OUTDIR when set.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .channel import count_rank, count_space_symmetric, count_symmetric, \
    gaussian_binomial
from .code import GabidulinCode
from .decoder import decode
from .field import _prime_power, make_field
from .keysize import ERROR_TYPES, build_table, reference_table
from .linalg import fqn_vector_str, parse_fqn_vector
from .simulate import SimConfig, SimReport, failure_bound, \
    intersection_probability, run_scenario
from .wso import find_wso_basis, is_weak_self_orthogonal


def _write_out(text: str, path: str | None):
    if path is None:
        return
    outdir = os.environ.get("RANKMETRIC_OUTDIR")
    if outdir and not os.path.isabs(path):
        path = os.path.join(outdir, path)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text if text.endswith("\n") else text + "\n")


def _field_args(p: argparse.ArgumentParser, with_k: bool = False):
    p.add_argument("--q", type=int, required=True, help="base field order")
    p.add_argument("--n", type=int, required=True, help="extension degree")
    p.add_argument("--modulus", help="defining polynomial, e.g. '1:1:1'")
    if with_k:
        p.add_argument("--k", type=int, required=True, help="code dimension")


def _read_lines(path: str):
    if path == "-":
        data = sys.stdin.read()
    else:
        with open(path, encoding="utf-8") as fh:
            data = fh.read()
    return [line for line in data.splitlines() if line.strip()]


def _cmd_find_basis(args) -> int:
    ctx = make_field(args.q, args.n, args.modulus)
    basis = find_wso_basis(ctx)
    ok, diag = is_weak_self_orthogonal(ctx, basis.alpha)
    payload = {
        "q": ctx.q, "n": ctx.n, "modulus": ctx.modulus_str(),
        "alpha": [ctx.elem_str(a) for a in basis.alpha],
        "diag": [ctx.elem_str(d) for d in basis.diag],
        "method": basis.method,
        "beta": ctx.elem_str(basis.beta) if basis.beta is not None else None,
        "verification": {
            "is_basis": True,
            "moore_gram_diagonal": ok,
            "diag_nonzero": all(d != 0 for d in diag),
        },
    }
    if args.out == "json":
        text = json.dumps(payload, indent=2)
    else:
        lines = [f"q = {ctx.q}, n = {ctx.n}, modulus = {ctx.modulus_str()}",
                 f"method = {basis.method}",
                 "alpha = " + fqn_vector_str(ctx, basis.alpha),
                 "diag  = " + fqn_vector_str(ctx, basis.diag),
                 "verified: moore gram is diagonal with nonzero entries"]
        text = "\n".join(lines)
    print(text)
    _write_out(text, args.out_file)
    return 0


def _make_code(args) -> GabidulinCode:
    ctx = make_field(args.q, args.n, args.modulus)
    return GabidulinCode(ctx, args.k, find_wso_basis(ctx))


def _cmd_codec(args) -> int:
    code = _make_code(args)
    ctx = code.ctx
    lines = _read_lines(args.infile)
    out_lines = []
    for line in lines:
        vec = parse_fqn_vector(ctx, line)
        if args.action == "encode":
            out_lines.append(fqn_vector_str(ctx, code.encode(vec)))
        elif args.action == "syndrome":
            s1, s2 = code.syndromes(vec)
            out_lines.append(json.dumps({
                "s1": fqn_vector_str(ctx, s1),
                "s2": fqn_vector_str(ctx, s2),
            }))
        else:  # decode
            outcome = decode(code, vec)
            out_lines.append(json.dumps({
                "status": outcome.status,
                "codeword": fqn_vector_str(ctx, outcome.codeword)
                if outcome.codeword else None,
                "error": fqn_vector_str(ctx, outcome.error)
                if outcome.error else None,
                "trial_trace": [list(p) for p in outcome.trial_trace],
            }))
    text = "\n".join(out_lines)
    print(text)
    _write_out(text, args.out_file)
    return 0


_COUNTERS = {
    "sp-sym": count_space_symmetric,
    "sym": count_symmetric,
    "rank": count_rank,
    "gauss": gaussian_binomial,
}


def _cmd_count(args) -> int:
    result = _COUNTERS[args.kind](args.n, args.t, args.q)
    text = f"{result.exact} {result.log2:.6f}"
    print(text)
    _write_out(text, args.out_file)
    return 0


def _cmd_simulate(args) -> int:
    if args.scenario == 4:
        _prime_power(args.q)
        if not 1 <= args.k < args.n:
            raise ValueError(f"need 1 <= k < n, got k={args.k}, n={args.n}")
        t, nk = args.t, args.n - args.k
        lo, hi = (nk + 1) // 2, 2 * nk // 3  # where the closed form is defined
        if not lo <= t <= hi:
            raise ValueError(f"scenario 4 needs ceil((n-k)/2) = {lo} <= t <= "
                             f"floor(2(n-k)/3) = {hi}, got t={t}")
        prob = intersection_probability(t, nk - t, 2 * nk - 3 * t + 1,
                                        args.q ** args.n)
        bound = failure_bound(args.q, args.n)
        if args.out == "json":
            text = json.dumps({"scenario": 4, "q": args.q, "n": args.n,
                               "k": args.k, "t": args.t, "rate": prob,
                               "bound": bound})
        elif args.out == "csv":
            text = (SimReport.CSV_HEADER + "\n"
                    f"4,{args.q},{args.n},{args.k},{args.t},0,0,"
                    f"{prob:.6g},,,{bound:.6g}")
        else:
            text = f"{prob:.6f}"
        print(text)
        _write_out(text, args.out_file)
        return 0
    cfg = SimConfig(scenario=args.scenario, q=args.q, n=args.n, k=args.k,
                    t=args.t, trials=args.trials, seed=args.seed)
    report = run_scenario(cfg, shards=args.shards)
    if args.out == "json":
        payload = report.payload()
        payload["wallclock_s"] = round(report.wallclock, 3)
        text = json.dumps(payload, indent=2)
    elif args.out == "csv":
        text = SimReport.CSV_HEADER + "\n" + report.csv_row()
    else:
        lo, hi = report.wilson95
        text = (f"scenario {cfg.scenario}: {report.failures} failures / "
                f"{cfg.trials} trials, rate {report.rate:.6f}, "
                f"wilson95 [{lo:.6f}, {hi:.6f}], bound {report.bound:.6f}, "
                f"miscorrections {report.miscorrections}")
    print(text)
    _write_out(text, args.out_file)
    if report.wilson95[0] > report.bound:
        print(f"warning: wilson_lo {report.wilson95[0]:.6f} exceeds bound "
              f"{report.bound:.6f}; 4/q^n is not a bound at (q, n, k, t) = "
              f"({cfg.q}, {cfg.n}, {cfg.k}, {cfg.t})", file=sys.stderr)
    return 0


def _cmd_keysize(args) -> int:
    if args.table:
        flags = {"sl": "--sl", "type": "--type", "n": "--n", "k": "--k",
                 "lam": "--lambda", "q": "--q"}
        given = [flag for name, flag in flags.items()
                 if getattr(args, name) is not None]
        if given:
            raise ValueError(f"--table paper ignores {' '.join(given)}")
        rows = reference_table()
    else:
        missing = [name for name in ("sl", "type", "n", "k", "lam")
                   if getattr(args, name) is None]
        if missing:
            raise ValueError(
                "need --sl --type --n --k --lambda (or --table paper)")
        rows = build_table([(args.sl, args.type, args.n, args.k, args.lam)],
                           q=2 if args.q is None else args.q)
    dicts = [r.as_dict() for r in rows]
    if args.out == "json":
        text = json.dumps(dicts, indent=2)
    elif args.out == "csv":
        header = "sl,type,n,k,lambda,tprime,wf_dec,wf_struc,wf_e,keysize_kb,ok"
        lines = [header]
        for d in dicts:
            lines.append(f"{d['sl']},{d['type']},{d['n']},{d['k']},"
                         f"{d['lambda']},{d['tprime']},{d['wf_dec']:.2f},"
                         f"{d['wf_struc']:.2f},{d['wf_e']:.2f},"
                         f"{d['keysize_kb']:.2f},{d['ok']}")
        text = "\n".join(lines)
    else:
        lines = [f"{'SL':>4} {'type':7} {'n':>3} {'k':>3} {'l':>2} {'t_':>3} "
                 f"{'WF_dec':>8} {'WF_struc':>8} {'WF_e':>8} {'KB':>7} ok"]
        for d in dicts:
            lines.append(f"{d['sl']:>4} {d['type']:7} {d['n']:>3} {d['k']:>3} "
                         f"{d['lambda']:>2} {d['tprime']:>3} {d['wf_dec']:>8.2f} "
                         f"{d['wf_struc']:>8.2f} {d['wf_e']:>8.2f} "
                         f"{d['keysize_kb']:>7.2f} {d['ok']}")
        text = "\n".join(lines)
    print(text)
    _write_out(text, args.out_file)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankmetric",
        description="Rank-metric coding toolkit: codes on weak "
                    "self-orthogonal bases, joint-syndrome decoding, error "
                    "counting, failure-rate simulation, key-size tables.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("find-basis", help="search a weak self-orthogonal basis")
    _field_args(p)
    p.add_argument("--out", choices=["text", "json"], default="text")
    p.add_argument("--out-file")
    p.set_defaults(func=_cmd_find_basis)

    p = sub.add_parser("codec", help="encode, decode or compute syndromes")
    p.add_argument("action", choices=["encode", "syndrome", "decode"])
    _field_args(p, with_k=True)
    p.add_argument("--in", dest="infile", default="-",
                   help="input vectors, one per line ('-' for stdin)")
    p.add_argument("--out-file")
    p.set_defaults(func=_cmd_codec)

    p = sub.add_parser("count", help="exact error-ensemble counts")
    p.add_argument("--kind", choices=sorted(_COUNTERS), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--out-file")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("simulate", help="Monte Carlo failure rates")
    p.add_argument("--scenario", type=int, choices=[1, 2, 3, 4], required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--trials", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--shards", type=int, default=1)
    p.add_argument("--out", choices=["text", "json", "csv"], default="text")
    p.add_argument("--out-file")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("keysize", help="work factors and key sizes")
    p.add_argument("--table", choices=["paper"],
                   help="emit the full reference table")
    p.add_argument("--sl", type=int)
    p.add_argument("--type", choices=list(ERROR_TYPES))
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--lambda", dest="lam", type=int)
    p.add_argument("--q", type=int, help="base field order (default 2)")
    p.add_argument("--out", choices=["text", "json", "csv"], default="text")
    p.add_argument("--out-file")
    p.set_defaults(func=_cmd_keysize)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, ZeroDivisionError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def main_entry():  # console-script shim
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
