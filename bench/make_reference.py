"""Regenerate bench/reference.json: the expected outputs for seed 0.

    python3 bench/make_reference.py

Runs the first operations of every workload with seed 0 and records each
digest entry with the tolerance its workload assigns. Only regenerate when
a change is meant to alter outputs, and say so in the change.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

from worker import BENCH, PINNED_ENV, ROOT, _import_condcov

OPS = {"sim1d": 24, "map2d": 1}


def main() -> int:
    if any(os.environ.get(var) != value for var, value in PINNED_ENV.items()):
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, **PINNED_ENV})
    _import_condcov()
    from workloads import WORKLOADS

    reference = {}
    (BENCH / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH / "out") as tmp:
        for name, cls in WORKLOADS.items():
            workload = cls(ROOT, 0, Path(tmp))
            entries = reference[name] = {}
            for k in range(OPS[name]):
                digest = workload.check(k, workload.op(k))
                entries[workload.ref_key(k)] = {
                    key: {"ref": v, "rtol": workload.rtol(key)}
                    for key, v in digest.items()}
                print(name, k, flush=True)
    (BENCH / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
