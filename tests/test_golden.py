"""The command outputs against their golden digests (tools/golden.py)."""
import importlib.util
import json
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "golden.py"
_SPEC = importlib.util.spec_from_file_location("golden", _PATH)
golden = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(golden)


def test_fit_layer_outputs_match_their_golden_digests(tmp_path):
    want = json.loads(golden.DIGESTS.read_text())
    got = golden.outputs(tmp_path)
    # reported, not asserted: the bytes change with the numpy build
    for name in sorted(got.keys() & want.keys()):
        same = got[name]["sha256"] == want[name]["sha256"]
        print(f"{name}: sha256 {'equal' if same else 'differs'}")
    assert golden.drift(want, got) == []


def test_a_drift_beyond_its_tolerance_is_reported():
    tight, loose = golden.tolerances()
    column = {"optimized": False, "n": 2, "sum": 0.0, "abs": 2.0, "min": -1.0,
              "max": 1.0, "first": -1.0, "last": 1.0}
    want = {"f.csv": {"sha256": "", "columns": {
        "a": column, "b": {**column, "optimized": True},
        "label": {"optimized": True, "text": ["x", "y"]}}}}
    got = json.loads(json.dumps(want))
    got["f.csv"]["sha256"] = "other"
    # a sum near zero moves by the column's mean absolute value times tol
    got["f.csv"]["columns"]["a"]["sum"] = 0.5 * tight
    got["f.csv"]["columns"]["b"]["max"] = 1.0 + 0.5 * loose
    assert golden.drift(want, got) == []
    got["f.csv"]["columns"]["a"]["max"] = 1.0 + 2.0 * tight
    got["f.csv"]["columns"]["label"]["text"] = ["x", "z"]
    lines = golden.drift(want, got)
    assert len(lines) == 2
    assert lines[0].startswith("f.csv: a: max")
    assert lines[1].startswith("f.csv: label:")
    del got["f.csv"]
    assert golden.drift(want, got) == ["f.csv: written by only one side"]
