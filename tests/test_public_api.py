import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import rankmetric
from rankmetric.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_every_exported_name_resolves_once():
    names = rankmetric.__all__
    assert sorted(set(names)) == sorted(names), "duplicate names in __all__"
    assert [n for n in names if not hasattr(rankmetric, n)] == []


def test_public_names_are_pinned():
    assert sorted(rankmetric.__all__) == [
        "CountResult", "CryptoRow", "DecodeOutcome", "FieldCtx",
        "GabidulinCode", "InterleavedOutcome", "SimConfig", "SimReport",
        "SpaceSymError", "WsoBasis", "build_table", "count_rank",
        "count_space_symmetric", "count_symmetric", "crypto_row", "decode",
        "failure_bound", "find_wso_basis", "fq_matmul", "fq_rank",
        "fq_transpose", "fqn_rank", "gaussian_binomial", "interleaved_decode",
        "intersection_probability", "is_weak_self_orthogonal", "key_size_kb",
        "lin_normalize", "make_field", "max_errors", "moore_matrix",
        "phi_inv", "reference_table", "run_scenario", "sample_full_rank",
        "sample_space_symmetric", "sample_uniform_invertible", "vector_rank",
        "wf_dec", "wf_error", "wf_struc", "wilson95",
    ]


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
    # importing the library or its CLI loads neither package
    probe = ("import sys, rankmetric, rankmetric.cli; print(sorted(m for m "
             "in sys.modules if m.startswith(('multiprocessing', "
             "'concurrent'))))")
    env = dict(os.environ,
               PYTHONPATH=str(Path(rankmetric.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=30, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
