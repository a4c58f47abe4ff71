"""Outside-in tracer for the condcov benchmark (standard library only).

The package is not edited: each traced function is replaced by a timing
wrapper at every place callers look it up. ``from .linalg import
chol_with_jitter`` gives ``inference`` and ``predict`` their own binding of the
same function object, so every loaded ``condcov`` module attribute that *is*
the original is patched, not only the defining one. Methods are patched on
their class, which covers every instance.

Each call becomes a span ``[name, start, end, parent, op, extra]`` kept in
memory; ``parent`` is the index of the enclosing span (recursion included)
and ``op`` the benchmark operation that was running. Self time is a span's
duration minus the durations of its direct children; calls nest strictly on
one thread, so that is exactly the time the children cover.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time

NAME, START, END, PARENT, OP, EXTRA = range(6)


def _size(arr):
    return int(getattr(arr, "size", 1))


def _chol(args, kwargs, out):
    mat = args[0] if args else kwargs["mat"]
    n = mat.shape[0]
    return {"flops": n ** 3 / 3.0, "jittered": out[1] > 0.0}


def _solve(args, kwargs, out):
    L, b = args[0], args[1]
    n = L.shape[0]
    cols = 1 if b.ndim == 1 else b.shape[1]
    return {"flops": 2.0 * n * n * cols}


def _loglik(args, kwargs, out):
    return {"neg_inf": out == -math.inf, "finite": math.isfinite(out)}


def _fit(args, kwargs, out):
    return {"converged": out.converged,
            "nfev": sum(t["nfev"] for t in out.trace)}


# (module, attribute or Class.method, span name, measure of the call)
TARGETS = (
    ("condcov.kernels", "matern_cov", "kernels.matern_cov",
     lambda a, k, out: {"elements": _size(out)}),
    ("condcov.kernels", "interaction_values", "kernels.interaction_values",
     lambda a, k, out: {"elements": _size(out)}),
    ("condcov.domain", "Metric.pairwise", "domain.pairwise",
     lambda a, k, out: {"elements": _size(out)}),
    ("condcov.conditional", "CovarianceEvaluator.__init__",
     "conditional.evaluator", None),
    ("condcov.conditional", "CovarianceEvaluator.cov", "conditional.cov", None),
    ("condcov.conditional", "cross_cov_matrix", "conditional.cross_cov_matrix",
     None),
    ("condcov.conditional", "assemble_dag", "conditional.assemble_dag", None),
    ("condcov.linalg", "chol_with_jitter", "linalg.chol_with_jitter", _chol),
    ("condcov.linalg", "chol_model", "linalg.chol_model", None),
    ("condcov.linalg", "chol_solve", "linalg.chol_solve", _solve),
    ("condcov.inference", "loglik", "inference.loglik", _loglik),
    ("condcov.inference", "fit_mle", "inference.fit_mle", _fit),
    ("condcov.predict", "cokrige", "predict.cokrige",
     lambda a, k, out: {"targets": int(out.mean.size)}),
    ("condcov.predict", "loo_cv", "predict.loo_cv",
     lambda a, k, out: {"folds": len(out.folds)}),
    ("condcov.sim", "simulate_replicate", "sim.simulate_replicate", None),
    ("condcov.sim", "run_sim_study", "sim.run_sim_study", None),
    ("condcov.cli", "main", "cli.main", None),
    ("condcov.cli", "parse_config", "cli.parse_config", None),
)


class Tracer:
    """Span recorder; ``install`` patches condcov, ``uninstall`` restores it."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []
        self.op = None

    def _wrap(self, name, fn, measure):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else None, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                rec[END] = clock()
                rec[EXTRA] = {"raised": type(exc).__name__}
                raise
            finally:
                stack.pop()
            rec[END] = clock()
            if measure is not None:
                rec[EXTRA] = measure(args, kwargs, out)
            return out

        return traced

    def install(self):
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "condcov" or key.startswith("condcov.")]
        for modname, attr, name, measure in TARGETS:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original, measure))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, measure)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for target, key, original in reversed(self._patches):
            setattr(target, key, original)
        self._patches.clear()

    def write(self, path):
        """One JSON array per line: name, start, end, parent, op, extra."""
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


# span name -> layer; both Cholesky entry points are one layer
_LAYER = {"linalg.chol_with_jitter": "linalg.cholesky",
          "linalg.chol_model": "linalg.cholesky"}

# layer -> reported statistics: calls, self_s, a summed measure, or
# ``<measure>_ratio``, that measure summed and divided by the calls
REPORT = (
    ("kernels.matern_cov", ("calls", "self_s", "elements")),
    ("kernels.interaction_values", ("calls", "self_s", "elements")),
    ("domain.pairwise", ("calls", "self_s", "elements")),
    ("conditional.cov", ("calls", "self_s")),
    ("conditional.cross_cov_matrix", ("calls",)),
    ("conditional.assemble_dag", ("calls", "self_s")),
    ("linalg.cholesky", ("calls", "self_s", "flops", "jittered", "failed")),
    ("linalg.chol_solve", ("calls", "self_s", "flops")),
    ("inference.loglik", ("calls", "self_s", "neg_inf", "finite_ratio")),
    ("inference.fit_mle", ("calls", "self_s", "converged_ratio")),
    ("predict.cokrige", ("calls", "self_s", "targets")),
    ("predict.loo_cv", ("calls", "self_s", "folds")),
    ("sim.simulate_replicate", ("calls", "self_s")),
    ("sim.run_sim_study", ("calls",)),
    ("cli.main", ("calls", "self_s")),
    ("cli.parse_config", ("self_s",)),
)


def layer_metrics(spans, ops):
    """Per-layer counts, self times and ratios over spans of ops in ``ops``."""
    child_time = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] is not None:
            child_time[rec[PARENT]] += rec[END] - rec[START]
    totals = {}

    def add(key, value):
        totals[key] = totals.get(key, 0) + value

    for i, rec in enumerate(spans):
        if rec[OP] not in ops:
            continue
        layer = _LAYER.get(rec[NAME], rec[NAME])
        add(f"{layer}.self_s", rec[END] - rec[START] - child_time[i])
        if rec[NAME] == "linalg.chol_model":
            continue  # its factorization is the chol_with_jitter span inside
        add(f"{layer}.calls", 1)
        for key, value in (rec[EXTRA] or {}).items():
            add(f"{layer}.failed" if key == "raised" else f"{layer}.{key}",
                1 if key == "raised" else value)

    def ratio(num, den):
        return totals.get(num, 0) / totals[den] if totals.get(den) else 0.0

    metrics = {}
    for layer, stats in REPORT:
        for stat in stats:
            key = f"{layer}.{stat}"
            if stat.endswith("_ratio"):
                metrics[key] = ratio(f"{layer}.{stat[:-6]}", f"{layer}.calls")
            else:
                metrics[key] = totals.get(key, 0.0 if stat == "self_s" else 0)
    metrics["conditional.evaluators"] = totals.get("conditional.evaluator.calls", 0)
    metrics["inference.evals_per_fit"] = ratio("inference.fit_mle.nfev",
                                               "inference.fit_mle.calls")
    return metrics
