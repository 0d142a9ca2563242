"""Spans recorded from outside the package, by wrapping its public functions.

`Tracer.install` replaces each target function at every `rankmetric` module
attribute that refers to it (callers bind names with `from .x import y`, so
the defining module alone is not enough) and each target method on its
class.  `Tracer.remove` puts the originals back.  A wrapper appends one span
per call: (name, start ns, end ns, parent span index, trial id).  Spans stay
in memory until the caller takes them.  Untraced runs never build a Tracer,
so they run the package unmodified.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

# Functions wrapped per layer (module of rankmetric).  A name missing from
# the package is skipped, so a later refactor that drops one still runs.
TARGETS = {
    "simulate": ("run_scenario", "_trial_rng"),
    "field": ("make_field",),
    "wso": ("find_wso_basis",),
    "code": ("GabidulinCode.__init__", "GabidulinCode.encode",
             "GabidulinCode.syndromes", "GabidulinCode.syndrome"),
    "channel": ("sample_space_symmetric", "sample_full_rank",
                "sample_uniform_invertible", "sample_symmetric_invertible"),
    "linalg": ("fq_rank", "fq_kernel", "fq_matmul", "fqn_solve", "phi",
               "phi_inv", "transpose_vector"),
    "linpoly": ("root_space_basis",),
    "decoder": ("decode", "interleaved_decode", "joint_kernel",
                "recover_error"),
}
LAYERS = tuple(TARGETS)
# Each call of this function starts a new simulated trial.
TRIAL_START = "simulate.trial_rng"


class Tracer:
    def __init__(self):
        self.spans = []
        self.trial = -1
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        starts_trial = name == TRIAL_START
        tracer = self

        def traced(*args, **kwargs):
            if starts_trial:
                tracer.trial += 1
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, tracer.trial)

        return traced

    def install(self):
        modules = [m for key, m in list(sys.modules.items())
                   if key == "rankmetric" or key.startswith("rankmetric.")]
        for layer, attrs in TARGETS.items():
            mod = importlib.import_module(f"rankmetric.{layer}")
            for attr in attrs:
                name = f"{layer}.{attr.rsplit('.', 1)[-1].strip('_')}"
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name, None)
                    orig = vars(cls).get(meth) if cls is not None else None
                    if orig is not None:
                        self._replace(cls, meth, orig, self._wrap(name, orig))
                    continue
                orig = getattr(mod, attr, None)
                if orig is None:
                    continue
                wrapped = self._wrap(name, orig)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            self._replace(m, key, orig, wrapped)

    def _replace(self, owner, attr, orig, wrapped):
        setattr(owner, attr, wrapped)
        self._restore.append((owner, attr, orig))

    def remove(self):
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    def take(self):
        """Spans recorded so far, in call order; the record starts empty."""
        out = self.spans[:]
        self.spans.clear()
        self.trial = -1
        return out


def summarize(spans):
    """Call counts and inclusive ns keyed by (name, caller layer), and self
    ns per layer.

    The caller layer is the layer of the parent span, or "bench" for a root
    span.  Self time is a span's duration minus the durations of its direct
    children, which nest inside it because calls are synchronous.
    """
    child = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls = defaultdict(int)
    total = defaultdict(int)
    layer_self = defaultdict(int)
    for i, (name, start, end, parent, _) in enumerate(spans):
        caller = spans[parent][0].split(".", 1)[0] if parent >= 0 else "bench"
        calls[name, caller] += 1
        total[name, caller] += end - start
        layer_self[name.split(".", 1)[0]] += end - start - child[i]
    return calls, total, layer_self


def write_spans(path, phases):
    """One CSV line per span of each (phase, spans) pair.

    Index and parent count within the phase; times are ns from the phase's
    first span start.
    """
    with open(path, "w") as fh:
        fh.write("phase,index,name,start_ns,end_ns,parent,trial\n")
        for phase, spans in phases:
            origin = spans[0][1] if spans else 0
            for i, (name, start, end, parent, trial) in enumerate(spans):
                fh.write(f"{phase},{i},{name},{start - origin},"
                         f"{end - origin},{parent},{trial}\n")
