import inspect
import os
import random
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import rankmetric
from rankmetric import FieldCtx, GabidulinCode, decode, find_wso_basis, \
    fq_matmul, interleaved_decode, is_weak_self_orthogonal, make_field, \
    moore_matrix, phi_inv, sample_space_symmetric, vector_rank
from rankmetric.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_every_exported_name_resolves_once():
    names = rankmetric.__all__
    assert sorted(set(names)) == sorted(names), "duplicate names in __all__"
    assert [n for n in names if not hasattr(rankmetric, n)] == []


def test_public_names_are_pinned():
    assert sorted(rankmetric.__all__) == [
        "CryptoRow", "DecodeOutcome", "FieldCtx",
        "GabidulinCode", "InterleavedOutcome", "SimConfig", "SimReport",
        "SpaceSymError", "build_table", "count_rank",
        "count_space_symmetric", "count_symmetric", "crypto_row", "decode",
        "failure_bound", "find_wso_basis", "fq_matmul", "gaussian_binomial",
        "interleaved_decode", "intersection_probability",
        "is_weak_self_orthogonal", "key_size_kb", "make_field", "max_errors",
        "moore_matrix", "phi_inv", "reference_table", "run_scenario",
        "sample_full_rank", "sample_space_symmetric", "vector_rank",
        "wf_dec", "wf_error", "wf_struc", "wilson95",
    ]


@pytest.mark.parametrize("q, n", [(2, 4), (3, 3)])
def test_every_entry_reading_door_rejects_entries_outside_its_field(q, n):
    # fq_rank, once exported, returned 1 on [[-1]] and raised a bare
    # IndexError on [[16]] at (2, 4).  Every export that takes a field or
    # code first and reads entries must raise a ValueError on -1 and on the
    # field's order (q for F_q entries, q^n for F_{q^n} ones)
    ctx = make_field(q, n)
    alpha, y = find_wso_basis(ctx), [0] * n
    code = GabidulinCode(ctx, 1, alpha)
    eye = [[int(i == j) for j in range(n)] for i in range(n)]

    def at0(v, x):
        return [x] + list(v[1:])

    doors = [
        ("fq_matmul", q, lambda x: fq_matmul(ctx, [at0(y, x)], eye)),
        ("fq_matmul", q, lambda x: fq_matmul(ctx, eye, [at0(y, x)] * n)),
        ("phi_inv", q, lambda x: phi_inv(ctx, [at0(y, x)] * n, alpha)),
        ("phi_inv", ctx.order, lambda x: phi_inv(ctx, eye, at0(alpha, x))),
        ("moore_matrix", ctx.order, lambda x: moore_matrix(ctx, [x], 2)),
        ("vector_rank", ctx.order, lambda x: vector_rank(ctx, at0(y, x))),
        ("is_weak_self_orthogonal", ctx.order,
         lambda x: is_weak_self_orthogonal(ctx, at0(alpha, x))),
        ("sample_space_symmetric", ctx.order,
         lambda x: sample_space_symmetric(ctx, at0(alpha, x), 1,
                                          random.Random(1))),
        ("GabidulinCode", ctx.order,
         lambda x: GabidulinCode(ctx, 1, at0(alpha, x))),
        ("GabidulinCode.encode", ctx.order, lambda x: code.encode([x])),
        ("GabidulinCode.syndromes", ctx.order,
         lambda x: code.syndromes(at0(y, x))),
        ("decode", ctx.order, lambda x: decode(code, at0(y, x))),
        ("interleaved_decode", ctx.order,
         lambda x: interleaved_decode(code, at0(y, x), y)),
        ("interleaved_decode", ctx.order,
         lambda x: interleaved_decode(code, y, at0(y, x))),
        ("FieldCtx.add", ctx.order, lambda x: ctx.add(x, 0)),
        ("FieldCtx.add", ctx.order, lambda x: ctx.add(0, x)),
        ("FieldCtx.from_coeffs", q, lambda x: ctx.from_coeffs(at0(y, x))),
        ("FieldCtx.coeffs", ctx.order, ctx.coeffs),
    ]
    for name, order, call in doors:
        for bad in (-1, order):
            with pytest.raises(ValueError, match=rf"entries must lie in "
                                                 rf".* = \[0, {order}\)"):
                call(bad)
    # the exports that take a field or a code first but read no entries,
    # and the field's own public method rand_elem
    reads_none = {"find_wso_basis", "sample_full_rank", "FieldCtx.rand_elem"}
    takes = {name for name in rankmetric.__all__
             if callable(getattr(rankmetric, name))
             and next(iter(inspect.signature(getattr(rankmetric, name))
                           .parameters), None) in ("ctx", "code")}
    takes |= {f"{cls.__name__}.{m}" for cls in (GabidulinCode, FieldCtx)
              for m in vars(cls) if not m.startswith("_")}
    assert takes == {name for name, _, _ in doors} | reads_none


@pytest.mark.parametrize("q, n", [(2, 4), (2, 8), (3, 7), (4, 4), (9, 3)])
def test_field_surface_is_one_checked_op_and_the_conversions(q, n):
    # the table ops run unchecked, per entry, on every hot path, so they
    # are private; the one public op, add, reads both arguments as elements
    ctx = make_field(q, n)
    for owner in (ctx, FieldCtx):
        assert {name for name in dir(owner) if not name.startswith("_")
                and callable(getattr(owner, name))} \
            == {"add", "coeffs", "from_coeffs", "rand_elem"}
    assert ctx.add(1, ctx.order - 1) == ctx._add(1, ctx.order - 1)
    for a, b in ((-1, 0), (0, -1), (ctx.order, 0), (0, ctx.order)):
        with pytest.raises(ValueError, match=rf"element entries must lie in "
                                             rf"\[0, q\^n\) = "
                                             rf"\[0, {ctx.order}\)"):
            ctx.add(a, b)
    for a, b in ((1.5, 2), (2, 1.5), ("1", 0)):
        with pytest.raises(ValueError,
                           match="element entries must be integers"):
            ctx.add(a, b)


def test_readme_examples_run(capsys):
    # the "Library example" block runs as written, and the count line of
    # the CLI block prints what its comment says
    block = re.search(r"## Library example\s*```python\n(.*?)```", README,
                      re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    line = next(ln for ln in README.splitlines()
                if ln.startswith("rankmetric count "))
    command, want = re.fullmatch(r'rankmetric (.*?)\s+# -> "(.*)"',
                                 line).groups()
    assert command == "count --kind sp-sym --n 3 --t 1 --q 2"
    assert want == "7 2.807355"
    assert main(shlex.split(command)) == 0
    assert capsys.readouterr().out.strip() == want


def test_import_loads_no_process_pool():
    # run_scenario imports the process pool only when a run shards, so
    # importing the library or its CLI loads neither package; nor does it
    # load linpoly, which holds no code, or fractions and the decimal and
    # numbers modules it pulls in, as the counts are int arithmetic
    probe = ("import sys, rankmetric, rankmetric.cli; print(sorted(m for m "
             "in sys.modules if m.startswith(('multiprocessing', "
             "'concurrent', 'rankmetric.linpoly', 'fractions', 'decimal', "
             "'_decimal', 'numbers'))))")
    env = dict(os.environ,
               PYTHONPATH=str(Path(rankmetric.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=30, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
