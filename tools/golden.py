"""Golden digests of the command outputs, and the check against them.

    python3 tools/golden.py [--write]

Runs every command in process, in a temporary directory and with BLAS on
one thread, on two small configs. On ``tests/data/golden/config.yaml``, a
60-cell 1-d grid:

- ``simulate --replicates 2``, whose refits free only the last node's edge
  and so condition on the earlier node's observations;
- ``fit`` on ``observations.csv``, which frees a root parameter and so
  scores the joint likelihood;
- ``compare-directions`` on the same data: its y1->y2 fit is ``fit``'s, and
  its reversed fit, whose free parameters all belong to y1, now the last
  node, conditions on y2's observations;
- ``predict`` at the grid vertices and at ``targets.csv``, ``cv``, and
  ``spectral-check`` of a Matern candidate.

On ``tests/data/golden/config2d.yaml``, a 12 x 10 product grid with a
nugget on both nodes, node names and a fit label that CSV must quote:
``fit`` (it frees only the last node's edge, so it conditions on the
earlier node), ``predict`` of the second node at the vertices and at
``targets2d.csv``, ``cv``, and ``spectral-check`` of a tabulated candidate.

Every file they write is digested (:func:`digest`). Without ``--write`` the
digests are compared with ``tests/data/golden/digests.json`` (:func:`drift`)
and the script exits 1 on any drift; with ``--write`` they are stored there.
Regenerating the digests is a deliberate act: record it in CHANGES.md with
the drift per file.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import importlib.util
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data" / "golden"
DIGESTS = DATA / "digests.json"
STATS = ("sum", "abs", "min", "max", "first", "last")


def _runs() -> dict:
    """{run: command line} of every command the digests cover."""
    one, two = DATA / "config.yaml", DATA / "config2d.yaml"
    obs, obs2 = DATA / "observations.csv", DATA / "observations2d.csv"
    runs = {
        "simulate": [one, "simulate", "--replicates", "2"],
        "fit": [one, "fit", "--data", obs],
        "compare-directions": [one, "compare-directions", "--data", obs],
        "predict": [one, "predict", "--data", obs],
        "predict-targets": [one, "predict", "--data", obs,
                            "--targets", DATA / "targets.csv"],
        "cv": [one, "cv", "--data", obs],
        "spectral-check": [one, "spectral-check"],
        "2d-fit": [two, "fit", "--data", obs2],
        "2d-predict": [two, "predict", "--data", obs2, "--target-var", 'y"2'],
        "2d-predict-targets": [two, "predict", "--data", obs2,
                               "--targets", DATA / "targets2d.csv"],
        "2d-cv": [two, "cv", "--data", obs2],
        "2d-spectral-check": [two, "spectral-check"],
    }
    return {run: [command, "--config", config, *rest]
            for run, (config, command, *rest) in runs.items()}


RUNS = {run: [str(arg) for arg in argv] for run, argv in _runs().items()}


def _optimized(command: str, column: str) -> bool:
    """Whether an optimizer touches ``column`` of ``command``'s output:
    every output of a fit, and of ``simulate`` the refit arm and its
    estimates."""
    if command == "simulate":
        return "refit" in column or "~" in column
    return command in ("fit", "compare-directions")


def _columns(path: Path, text: str) -> dict:
    """{column: cells} of a written table. A ``key,value`` table and
    ``params.txt`` (``[# ]name = value`` lines) give one column per key."""
    if path.suffix != ".csv":
        pairs = (line.lstrip("# ").rpartition("=")[::2]
                 for line in text.splitlines())
        return {key.strip(): [value.strip()] for key, value in pairs}
    header, *rows = csv.reader(io.StringIO(text))
    if header == ["key", "value"]:
        return {key: [value] for key, value in rows}
    return {name: [row[k] for row in rows] for k, name in enumerate(header)}


def digest(command: str, path: Path) -> dict:
    """The file's sha256 and, per column, its cells if any is not a number,
    else their count, sum, sum of absolute values, extremes and first and
    last entries; each column notes whether an optimizer touches it."""
    text = path.read_text()
    columns = {}
    for name, cells in _columns(path, text).items():
        entry = {"optimized": _optimized(command, name)}
        try:
            values = [float(cell) for cell in cells]
        except ValueError:
            entry["text"] = cells
        else:
            entry.update(n=len(values), sum=math.fsum(values),
                         abs=math.fsum(abs(v) for v in values),
                         min=min(values), max=max(values),
                         first=values[0], last=values[-1])
        columns[name] = entry
    return {"sha256": hashlib.sha256(text.encode()).hexdigest(),
            "columns": columns}


def outputs(workdir: Path) -> dict:
    """{run/file: digest} of every file the runs write under ``workdir``."""
    from condcov import cli

    found = {}
    for run, argv in RUNS.items():
        out = workdir / run
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv + ["--out", str(out)])
        if rc != 0:
            raise RuntimeError(f"{run} exited {rc}")
        for path in sorted(out.iterdir()):
            found[f"{run}/{path.name}"] = digest(argv[0], path)
    return found


def tolerances() -> tuple:
    """(tight, loose): the relative tolerances of bench/workloads.py for
    outputs that no optimizer touches and for those that one does."""
    spec = importlib.util.spec_from_file_location(
        "workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.TIGHT, workloads.LOOSE


def drift(want: dict, got: dict) -> list:
    """One line per difference between two sets of digests. Text must be
    equal; a statistic may move by its column's tolerance relative to the
    larger of its stored value and the column's mean absolute value, so
    that a sum near zero is not held to roundoff. sha256s are not compared:
    they change with the numpy build."""
    tight, loose = tolerances()
    lines = []
    for name in sorted(want.keys() | got.keys()):
        if name not in want or name not in got:
            lines.append(f"{name}: written by only one side")
            continue
        wcols, gcols = want[name]["columns"], got[name]["columns"]
        if list(wcols) != list(gcols):
            lines.append(f"{name}: columns {list(gcols)}, expected {list(wcols)}")
            continue
        for column, w in wcols.items():
            g = gcols[column]
            if "text" in w or "text" in g or g["n"] != w["n"]:
                if g != w:
                    lines.append(f"{name}: {column}: {g}, expected {w}")
                continue
            tol = loose if w["optimized"] else tight
            scale = w["abs"] / w["n"]
            for stat in STATS:
                if not abs(g[stat] - w[stat]) <= tol * max(abs(w[stat]), scale):
                    lines.append(f"{name}: {column}: {stat} {g[stat]!r}, "
                                 f"expected {w[stat]!r} within {tol:g}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--write", action="store_true",
                        help=f"store the digests in {DIGESTS.relative_to(ROOT)}")
    args = parser.parse_args(argv)
    # outputs are reproducible byte for byte only under a fixed BLAS
    # setting; set before condcov imports numpy
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        got = outputs(Path(tmp))
    if args.write:
        DIGESTS.write_text(json.dumps(got, indent=1) + "\n")
        print(f"wrote {len(got)} digests to {DIGESTS}")
        return 0
    lines = drift(json.loads(DIGESTS.read_text()), got)
    print("\n".join(lines) or f"{len(got)} files match their digests")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
