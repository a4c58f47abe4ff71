"""One workload process of the benchmark; ``run.py`` starts it.

Builds the workload's inputs, then runs operations in a closed loop (each
one starts when the previous one has returned and been checked) until
``--seconds`` have passed.
Prints one JSON object on its last stdout line. With ``--setup-only`` it
stops where the first operation would start. With ``--trace 1`` the
outside-in tracer is installed after set-up, and the per-layer numbers are
taken over the first ``counted`` operations, so that counts repeat exactly
whatever the machine's speed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
# BLAS on one thread, set for every workload process before numpy loads and
# recorded with the results
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
MAX_FAILURES_SHOWN = 5


def _import_condcov():
    src = ROOT / "src"
    if not (src / "condcov" / "__init__.py").is_file():
        sys.exit(f"worker: no condcov package under {src}")
    sys.path.insert(0, str(src))
    import condcov

    if Path(condcov.__file__).resolve().parent != (src / "condcov").resolve():
        sys.exit(f"worker: imported condcov from {condcov.__file__}, not {src}")


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        **{var: os.environ.get(var) for var in PINNED_ENV},
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version",
                                                "openblas configuration")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    for var, value in PINNED_ENV.items():
        if os.environ.get(var) != value:
            sys.exit(f"worker: {var} must be {value}, got {os.environ.get(var)!r}")
    _import_condcov()
    from workloads import WORKLOADS, CheckFailed, within

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        workload = WORKLOADS[args.workload](ROOT, args.seed, workdir)
        ready = time.monotonic()
        if args.setup_only:
            print(json.dumps({"ready": ready}))
            return 0
        reference = None
        if args.seed == 0:
            refs = json.loads((BENCH / "reference.json").read_text())
            reference = refs[args.workload]
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        min_ops = workload.counted if tracer else 1
        ops, failures = [], []
        t_loop = time.monotonic()
        k = 0
        while True:
            if tracer:
                tracer.op = k
            ok = True
            t0 = time.perf_counter()
            try:
                result = workload.op(k)
            except Exception:
                ok = False
                failures.append(f"op {k}: {traceback.format_exc(limit=3)}")
            latency = time.perf_counter() - t0
            if tracer:
                tracer.op = None
            if ok:
                try:
                    digest = workload.check(k, result)
                    expected = (reference or {}).get(workload.ref_key(k), {})
                    wrong = [f"{key} = {digest.get(key)!r}, expected {spec}"
                             for key, spec in expected.items()
                             if key not in digest or not within(digest[key], spec)]
                    if wrong:
                        raise CheckFailed("; ".join(wrong))
                except CheckFailed as exc:
                    ok = False
                    failures.append(f"op {k}: {exc}")
            ops.append([latency, ok])
            k += 1
            if time.monotonic() - t_loop >= args.seconds and k >= min_ops:
                break
        out = {
            "ready": ready,
            "ops": ops,
            "failures": failures[:MAX_FAILURES_SHOWN],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
            "env": environment(),
        }
        if tracer:
            tracer.uninstall()
            from tracer import layer_metrics

            out["layers"] = layer_metrics(tracer.spans,
                                          set(range(workload.counted)))
            tracer.write(OUT / f"{args.workload}-spans.jsonl")
        print(json.dumps(out))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
