"""End-to-end command line workflows against small throwaway configs."""
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import condcov.cli
import condcov.sim
from condcov import (
    ConfigError,
    Grid,
    MaternParams,
    MeanSpec,
    Observations,
    ProcessNetwork,
    ProcessNode,
    ValidationError,
    assemble_dag,
    bisquare,
    chordal,
    dirac,
    load_observations,
    regular_grid,
    sample_joint,
    save_observations,
    shifted_bisquare,
    tabulated,
    zero,
)
from condcov.cli import (
    SpectralSettings,
    main,
    parse_config,
    parse_config_dict,
)
from condcov.domain import _write_table

BASE = {
    "grid": {"kind": "regular", "bounds": [[-1.0, 1.0]], "counts": [24]},
    "nodes": [
        {"name": "y1", "variance": 1.0, "scale": 25.0, "smoothness": 1.5,
         "noise": 0.25},
        {"name": "y2", "variance": 0.2, "scale": 75.0, "smoothness": 1.5,
         "noise": 0.25,
         "parents": [{"node": "y1", "kind": "bisquare",
                      "amplitude": 5.0, "aperture": 0.3}]},
    ],
    "fit": {"label": "demo", "free": ["y2~y1.amplitude"], "restarts": 1,
            "max_evals": 120, "seed": 0},
    "simulation": {
        "replicates": 2, "seed": 0, "target": "y1",
        "observed": {"y1": {"min": [0.0], "max": [1.0]}, "y2": "all"},
        "evaluate": "unobserved",
    },
    "spectral": {
        "c11": {"variance": 1.0, "scale": 2.0, "smoothness": 1.0},
        "c22": {"variance": 1.0, "scale": 2.0, "smoothness": 4.0},
        "candidate": {"variance": 10.0, "scale": 2.0, "smoothness": 0.5},
    },
}


ROOT = Path(__file__).resolve().parents[1]
DEMO = ROOT / "configs" / "demo1d.yaml"


def _write_cfg(tmp_path, data=None, name="model.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data if data is not None else BASE))
    return path


def _write_obs(tmp_path, cfg_path, seed=4):
    cfg = parse_config(cfg_path)
    model = assemble_dag(cfg.grid, cfg.network)
    fields = sample_joint(model, seed=seed)
    rng = np.random.default_rng(seed)
    obs = [
        Observations(q, cfg.grid.vertices,
                     fields[q] + 0.5 * rng.standard_normal(cfg.grid.n))
        for q in range(2)
    ]
    path = tmp_path / "obs.csv"
    save_observations(obs, list(cfg.network.names), path)
    return path


def test_parse_repo_demo_config():
    cfg = parse_config("configs/demo1d.yaml")
    assert cfg.grid.n == 200
    assert cfg.network.names == ("y1", "y2")
    study = cfg.simulation
    assert study is not None
    assert study.replicates == 50
    assert int(np.sum(study.observed[0])) == 100
    assert int(np.sum(study.eval_mask)) == 100
    # the refit edge replaces the configured y2 edge
    assert study.refit_network.nodes[1].parents[0][1].kind.value == "bisquare"
    assert study.refit_free == ("y2~y1.amplitude", "y2~y1.aperture")
    assert cfg.fit.free == ("y1.variance", "y1.scale", "y2.variance",
                            "y2.scale", "y2~y1.amplitude", "y2~y1.aperture",
                            "y2~y1.shift1")


def test_the_repo_demo_config_fit_converges(tmp_path, capsys):
    # 40 noisy observations per variable of one draw of the demo model
    config = ROOT / "configs" / "demo1d.yaml"
    cfg = parse_config(config)
    fields = sample_joint(assemble_dag(cfg.grid, cfg.network), seed=7)
    rng = np.random.default_rng(7)
    obs = []
    for q in range(2):
        idx = np.sort(rng.choice(cfg.grid.n, 40, replace=False))
        obs.append(Observations(q, cfg.grid.vertices[idx], fields[q, idx]
                                + 0.5 * rng.standard_normal(40)))
    data = tmp_path / "obs.csv"
    save_observations(obs, cfg.network.names, data)
    assert main(["fit", "--config", str(config), "--data", str(data),
                 "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "demo1d: loglik" in out and "k=7" in out
    assert "(not converged)" not in out


def test_readme_config_block_parses():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("### Config format", 1)[1]
    block = section.split("```yaml\n", 1)[1].split("```", 1)[0]
    cfg = parse_config_dict(yaml.safe_load(block), ROOT, "README")
    assert cfg.fit is not None and cfg.spectral is not None
    assert cfg.simulation.refit_network is not None


def _edit(changes):
    """A config mutation setting each value at its path of keys and indices."""
    def mutate(data):
        for path, value in changes.items():
            parent = data
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = value
    return mutate


def _network(edge=bisquare(5.0, 0.3), **y1):
    """The network of BASE with ``edge`` from y1 to y2 and y1's ``y1``."""
    return ProcessNetwork((
        ProcessNode("y1", MaternParams(1.0, 25.0, 1.5), noise=0.25, **y1),
        ProcessNode("y2", MaternParams(0.2, 75.0, 1.5), parents=((0, edge),),
                    noise=0.25),
    ))


def _spectral(candidate):
    return SpectralSettings(MaternParams(1.0, 2.0, 1.0),
                            MaternParams(1.0, 2.0, 4.0), candidate)


TABLE = {"s": [-1.0, 1.0], "v": [-1.0, 0.0, 1.0],
         "values": [[0.5, 1.0, 0.2], [0.1, 0.8, 0.3]]}
TABLE_CSV = "s,v,value\n" + "".join(
    f"{s},{v},{TABLE['values'][i][j]}\n"
    for i, s in enumerate(TABLE["s"]) for j, v in enumerate(TABLE["v"]))
CURVE = [[0.1, 1.0], [1.0, 0.5]]
MESH = {"vertices": [[-1.0], [0.0], [1.0]], "weights": [0.5, 1.0, 0.5]}


def _y2_edge(spec):
    # BASE fits y2~y1.amplitude, which zero and tabulated edges lack
    return {("nodes", 1, "parents", 0): {"node": "y1", **spec},
            ("fit", "free"): None}


# (config changes, files beside the config, the parsed part, what the library
# constructors build for it)
FORMS = [
    pytest.param({("grid",): {"kind": "regular",
                              "bounds": [[0.0, 10.0], [40.0, 50.0]],
                              "counts": [3, 4],
                              "metric": {"kind": "chordal", "radius": 6371.0}},
                  ("simulation",): None},
                 {}, "grid",
                 regular_grid([(0.0, 10.0), (40.0, 50.0)], [3, 4],
                              chordal(6371.0)), id="chordal-metric"),
    pytest.param({("grid",): {"kind": "mesh", **MESH}}, {}, "grid",
                 Grid(np.array(MESH["vertices"]), np.array(MESH["weights"])),
                 id="inline-mesh"),
    pytest.param({("grid",): {"kind": "mesh", "path": "mesh.csv"}},
                 {"mesh.csv": "x,weight\n-1,0.5\n0,1\n1,0.5\n"}, "grid",
                 Grid(np.array(MESH["vertices"]), np.array(MESH["weights"])),
                 id="mesh-file"),
    pytest.param(_y2_edge({"kind": "zero"}), {}, "network", _network(zero()),
                 id="zero"),
    pytest.param(_y2_edge({"kind": "dirac", "amplitude": 2.0}), {}, "network",
                 _network(dirac(2.0)), id="dirac"),
    pytest.param(_y2_edge({"kind": "bisquare", "amplitude": 2.0,
                           "aperture": 0.4}), {}, "network",
                 _network(bisquare(2.0, 0.4)), id="bisquare"),
    pytest.param(_y2_edge({"kind": "shifted_bisquare", "amplitude": 2.0,
                           "aperture": 0.4, "shift": [-0.1]}), {}, "network",
                 _network(shifted_bisquare(2.0, 0.4, [-0.1])),
                 id="shifted_bisquare"),
    pytest.param(_y2_edge({"kind": "tabulated", "table": TABLE}), {}, "network",
                 _network(tabulated(TABLE["s"], TABLE["v"], TABLE["values"])),
                 id="inline-table"),
    pytest.param(_y2_edge({"kind": "tabulated", "table": "kernel.csv"}),
                 {"kernel.csv": TABLE_CSV}, "network",
                 _network(tabulated(TABLE["s"], TABLE["v"], TABLE["values"])),
                 id="table-file"),
    pytest.param({("nodes", 0, "mean"): {"covariates": ["const", "x"],
                                         "coefficients": [0.5, -1.0]}},
                 {}, "network",
                 _network(mean=MeanSpec(("const", "x"), (0.5, -1.0))),
                 id="mean"),
    pytest.param({("nodes", 0, "nugget"): 0.1}, {}, "network",
                 _network(nugget=0.1), id="nugget"),
    pytest.param({("spectral", "candidate"): {"table": CURVE}}, {},
                 "spectral", _spectral(((0.1, 1.0), (1.0, 0.5))),
                 id="inline-candidate-table"),
    pytest.param({("spectral", "candidate"): {"table": "curve.csv"}},
                 {"curve.csv": "w,value\n0.1,1.0\n1.0,0.5\n"},
                 "spectral", _spectral(((0.1, 1.0), (1.0, 0.5))),
                 id="candidate-table-file"),
]


@pytest.mark.parametrize("changes, files, part, expected", FORMS)
def test_parser_reads_every_documented_form(tmp_path, changes, files, part,
                                            expected):
    data = yaml.safe_load(yaml.safe_dump(BASE))
    _edit(changes)(data)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert getattr(parse_config(_write_cfg(tmp_path, data)), part) == expected


BOX_2D = {"min": [0.0, 0.0], "max": [1.0, 1.0]}
REFIT_FREE = ["y2~y1.amplitude"]


# (config mutation, message fragment, exit code); every fragment is raised as
# a ConfigError while the config is read
BAD_CONFIGS = [
    pytest.param(_edit({("grid", "spacing"): 0.1}),
                 "grid: unknown keys ['spacing']", 1, id="unknown-key"),
    pytest.param(_edit({("nodes", 1, "parents", 0, "kind"): "gaussian"}),
                 "unknown interaction kind 'gaussian'; expected one of "
                 "['bisquare', 'dirac', 'shifted_bisquare', 'tabulated', 'zero']",
                 1, id="unknown-kind"),
    pytest.param(_edit({("nodes", 0, "parents"): [
        {"node": "y2", "kind": "dirac", "amplitude": 1.0}]}),
                 "nodes: network not acyclic: y1 -> y2 -> y1", 1, id="cycle"),
    pytest.param(_edit({("nodes", 1, "name"): "y1"}),
                 "nodes: duplicate node name 'y1'", 1, id="duplicate-name"),
    pytest.param(_edit({("simulation", "observed", "y1"): BOX_2D}),
                 "simulation: observed: y1: region box has 2/2 coordinates, "
                 "grid is 1-d", 1, id="observed-box-length"),
    pytest.param(_edit({("simulation", "evaluate"): {"min": [0.0],
                                                     "max": [1.0, 1.0]}}),
                 "simulation: evaluate: region box has 1/2 coordinates, "
                 "grid is 1-d", 1, id="evaluate-box-length"),
    pytest.param(_edit({
        ("grid",): {"kind": "regular", "bounds": [[-1.0, 1.0]] * 2,
                    "counts": [8, 8]},
        ("simulation", "observed", "y1"): BOX_2D,
        ("simulation", "refit"): {"free": REFIT_FREE, "edges": [
            {"node": "y2", "parent": "y1", "kind": "shifted_bisquare",
             "amplitude": 5.0, "aperture": 0.3, "shift": [0.1]}]}}),
                 "model.yaml: simulation: refit: node 'y2': shift has 1 "
                 "components for a 2-d grid", 1, id="refit-shift-length"),
    pytest.param(_edit({("simulation", "refit"): {"free": REFIT_FREE, "edges": [
        {"node": "y1", "parent": "y2", "kind": "dirac", "amplitude": 1.0}]}}),
                 "model.yaml: simulation: refit: network not acyclic: "
                 "y1 -> y2 -> y1", 1, id="refit-cycle"),
    pytest.param(_edit({
        ("nodes", 1, "parents"): [],
        ("fit", "free"): ["y2.variance"],  # the base names the removed edge
        ("simulation", "refit"): {"free": ["y1~y2.amplitude"], "edges": [
            {"node": "y1", "parent": "y2", "kind": "dirac",
             "amplitude": 1.0}]}}),
                 "model.yaml: simulation: refit: node 'y1': parent index 1 "
                 "does not precede it", 1, id="refit-against-node-order"),
    pytest.param(_edit({("simulation", "refit"): {"free": [], "edges": [
        {"node": "y2", "parent": "y1", "kind": "dirac", "amplitude": 1.0}]}}),
                 "model.yaml: simulation: refit: at least one free parameter "
                 "is required", 1, id="refit-free-empty"),
    pytest.param(_edit({("spectral", "candidate"): {"table": [[0.1, 0.0]]}}),
                 "spectral: candidate table needs at least 2 rows", 1,
                 id="candidate-table-one-row"),
    pytest.param(_edit({("grid",): {"kind": "mesh",
                                    "vertices": [[0, 0], [1], [0, 1]],
                                    "weights": [1.0, 1.0, 1.0]}}),
                 "model.yaml: grid: vertices: rows have unequal lengths [1, 2]",
                 1, id="ragged-vertices"),
    pytest.param(_edit({("grid",): {"kind": "mesh",
                                    "vertices": [[0.5], [1.0], [0.5]],
                                    "weights": [1.0, 1.0, 1.0]}}),
                 "model.yaml: grid: vertex 2 (0.5,) repeats vertex 0",
                 1, id="repeated-vertex"),
    pytest.param(_edit({("nodes", 1, "parents", 0): {
        "node": "y1", "kind": "tabulated",
        "table": {"s": [-1.0, 1.0], "v": [-1.0, 0.0, 1.0],
                  "values": [[0.5, 1.0, 0.2], [0.1, 0.8]]}}}),
                 "model.yaml: nodes[1]: parents[0]: table: values: rows have "
                 "unequal lengths [2, 3]", 1, id="ragged-table-values"),
    pytest.param(_edit({("simulation", "target"): "y9"}),
                 "model.yaml: simulation: target: unknown variable 'y9'", 1,
                 id="unknown-target"),
    pytest.param(_edit({("simulation", "refit"): {"free": REFIT_FREE, "edges": [
        {"node": "y7", "parent": "y1", "kind": "dirac", "amplitude": 1.0}]}}),
                 "model.yaml: simulation: refit: edges[0]: node: unknown "
                 "variable 'y7'", 1, id="refit-unknown-node"),
    pytest.param(_edit({("simulation", "refit"): {"free": REFIT_FREE, "edges": [
        {"node": "y2", "parent": "y7", "kind": "dirac", "amplitude": 1.0}]}}),
                 "model.yaml: simulation: refit: edges[0]: parent: unknown "
                 "variable 'y7'", 1, id="refit-unknown-parent"),
    pytest.param(_edit({("simulation", "refit"): {
        "free": ["y2~y1.amplitud"], "edges": [
            {"node": "y2", "parent": "y1", "kind": "bisquare",
             "amplitude": 5.0, "aperture": 0.3}]}}),
                 "model.yaml: simulation: refit: free: 'y2~y1.amplitud': "
                 "bisquare interactions have no parameter 'amplitud'", 1,
                 id="refit-free-misspelt"),
    pytest.param(_edit({("fit", "free"): ["y3.variance"]}),
                 "model.yaml: fit: free: unknown variable 'y3'", 1,
                 id="fit-free-unknown-node"),
    # a label with a line break would not read back from params.txt
    pytest.param(_edit({("fit", "label"): "a\nb"}),
                 "model.yaml: fit: label: label 'a\\nb' is not one line", 1,
                 id="fit-label-two-lines"),
    # the study's own checks, as SimStudyConfig reports them
    pytest.param(_edit({("simulation", "observed"): {"y1": "none",
                                                     "y2": "none"}}),
                 "model.yaml: simulation: no variable is observed anywhere", 1,
                 id="nothing-observed"),
    pytest.param(_edit({("simulation", "evaluate"): {"min": [5.0],
                                                     "max": [6.0]}}),
                 "model.yaml: simulation: evaluation mask selects no vertices",
                 1, id="empty-evaluate"),
    pytest.param(_edit({("simulation", "replicates"): 0}),
                 "model.yaml: simulation: replicates must be >= 1, got 0", 1,
                 id="no-replicates"),
]


@pytest.mark.parametrize("mutate, fragment, code", BAD_CONFIGS)
def test_bad_config_fails_before_any_simulation(tmp_path, capsys, monkeypatch,
                                                mutate, fragment, code):
    data = yaml.safe_load(yaml.safe_dump(BASE))
    mutate(data)
    cfg_path = _write_cfg(tmp_path, data)
    with pytest.raises(ConfigError, match=re.escape(fragment)):
        parse_config(cfg_path)
    calls = []
    for module in (condcov.cli, condcov.sim):
        monkeypatch.setattr(module, "simulate_replicate",
                            lambda *args: calls.append(args))
    # the whole config is read by every command, not only by the one using
    # the faulty section
    for command in ("simulate", "spectral-check"):
        rc = main([command, "--config", str(cfg_path),
                   "--out", str(tmp_path / "out")])
        assert rc == code, command
        assert fragment in capsys.readouterr().err, command
    assert not calls
    assert not (tmp_path / "out").exists()


def test_replicates_override_is_checked(tmp_path, capsys):
    rc = main(["simulate", "--config", str(_write_cfg(tmp_path)),
               "--replicates", "0", "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "replicates must be >= 1, got 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_non_numeric_table_file_exits_1(tmp_path, capsys):
    (tmp_path / "tab.csv").write_text("s,v,value\n-1,-1,1\n-1,1,abc\n")
    data = yaml.safe_load(yaml.safe_dump(BASE))
    data["nodes"][1]["parents"][0] = {"node": "y1", "kind": "tabulated",
                                      "table": "tab.csv"}
    cfg_path = _write_cfg(tmp_path, data)
    rc = main(["spectral-check", "--config", str(cfg_path),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"table: {tmp_path / 'tab.csv'}: line 3: " in err
    assert "'abc'" in err


def test_spaced_table_header_runs_and_an_extra_cell_exits_1(tmp_path, capsys):
    # the header's cells are stripped, and so are the column names the rows
    # are read by; a row with more cells than columns is an error, not cut
    data = yaml.safe_load(yaml.safe_dump(BASE))
    _edit(_y2_edge({"kind": "tabulated", "table": "tab.csv"}))(data)
    cfg_path = _write_cfg(tmp_path, data)
    rows = TABLE_CSV.splitlines()[1:]
    outputs = []
    for name, header in (("plain", "s,v,value"), ("spaced", "s, v, value")):
        (tmp_path / "tab.csv").write_text("\n".join([header, *rows]) + "\n")
        rc = main(["spectral-check", "--config", str(cfg_path),
                   "--out", str(tmp_path / name)])
        assert rc == 0
        outputs.append((tmp_path / name / "spectral.csv").read_bytes())
    assert outputs[0] == outputs[1]
    (tmp_path / "tab.csv").write_text(
        "\n".join(["s,v,value", *rows[:-1], rows[-1] + ",7"]) + "\n")
    capsys.readouterr()
    rc = main(["spectral-check", "--config", str(cfg_path),
               "--out", str(tmp_path / "extra")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert f"table: {tmp_path / 'tab.csv'}: line {len(rows) + 1}: " in err


def _from_config(changes, part):
    """A reader of the file named "in.csv" in the config changes, as the
    ``part`` of the parsed config."""
    def read(tmp_path):
        data = yaml.safe_load(yaml.safe_dump(BASE))
        _edit(changes)(data)
        return getattr(parse_config(_write_cfg(tmp_path, data)), part)
    return read


def _predict_at_targets(tmp_path):
    cfg_path = _write_cfg(tmp_path)
    args = condcov.cli._build_parser().parse_args([
        "predict", "--config", str(cfg_path),
        "--data", str(_write_obs(tmp_path, cfg_path)),
        "--targets", str(tmp_path / "in.csv"), "--out", str(tmp_path / "p")])
    args.func(args)
    return (tmp_path / "p" / "predictions.csv").read_bytes()


# every table the package reads: a reader of tmp_path / "in.csv" giving what
# it read, a header and rows of a valid file, and the key path that a
# config-named file's faults are reported under
INPUTS = {
    "mesh": (_from_config({("grid",): {"kind": "mesh", "path": "in.csv"}},
                          "grid"),
             "x,weight", ["-1,0.5", "0,1", "1,0.5"], "model.yaml: grid: path: "),
    "observations": (lambda tmp_path: load_observations(
        tmp_path / "in.csv", ["y1", "y2"]),
        "variable,x,value", ["y1,-0.5,1.5", "y2,0.5,-2"], ""),
    "table": (_from_config(_y2_edge({"kind": "tabulated", "table": "in.csv"}),
                           "network"),
              "s,v,value", TABLE_CSV.splitlines()[1:],
              "model.yaml: nodes[1]: parents[0]: table: "),
    "targets": (_predict_at_targets, "x", ["-0.5", "0.5"], ""),
    "candidate": (_from_config(
        {("spectral", "candidate"): {"table": "in.csv"}}, "spectral"),
        "w,value", ["0.1,1", "1,0.5"], "model.yaml: spectral: candidate: table: "),
}


def _last_row(change):
    """The variant whose last row is ``change(the valid last row)``."""
    return (lambda header, rows: [header, *rows[:-1], change(rows[-1])],
            "\n", True)


def _last_cell(cell):
    """The variant whose last row ends in ``cell``."""
    return _last_row(lambda row: ",".join(row.split(",")[:-1] + [cell]))


def _break_last_cell(row):
    """``row`` with its last cell quoted and ended by a line break, which a
    number may hold."""
    head, sep, cell = row.rpartition(",")
    return f'{head}{sep}"{cell}\n"'


# (the lines of a valid file -> the lines of the variant, its line end, and
# whether its last line is a fault; without one it reads as the valid file)
VARIANTS = {
    "spaced-header": (lambda header, rows: [
        " " + ", \t".join(header.split(",")) + "\t", *rows], "\n", False),
    "blank-lines": (lambda header, rows: ["", header, "", *rows, ""], "\n",
                    False),
    "crlf": (lambda header, rows: [header, *rows], "\r\n", False),
    "extra-cell": _last_row(lambda row: row + ",7"),
    "short-row": _last_row(lambda row: row.rpartition(",")[0]),
    "non-numeric": _last_cell("abc"),
    "nan": _last_cell("nan"),
    "inf": _last_cell("inf"),
    "-inf": _last_cell("-Infinity"),
    # a fault is reported at its physical line: after blank lines, and after
    # a quoted cell that spans two lines
    "extra-cell-after-blank-line": (lambda header, rows: [
        header, *rows[:-1], "", rows[-1] + ",7"], "\n", True),
    "extra-cell-after-quoted-line-break": (lambda header, rows: [
        header, _break_last_cell(rows[0]), *rows[1:-1], rows[-1] + ",7"],
        "\n", True),
}


@pytest.mark.parametrize("kind, variant", [
    (kind, variant) for kind in INPUTS for variant in VARIANTS
    # a row of one column cannot be short: it is blank or whole
    if variant != "short-row" or "," in INPUTS[kind][1]])
def test_every_table_is_read_by_one_rule(tmp_path, capsys, kind, variant):
    read, header, rows, where = INPUTS[kind]
    change, end, faulty = VARIANTS[variant]
    path = tmp_path / "in.csv"
    path.write_text("\n".join([header, *rows]) + "\n")
    expected = read(tmp_path)
    text = "".join(line + end for line in change(header, rows))
    path.write_bytes(text.encode())
    if faulty:
        line = text.count("\n")
        with pytest.raises(ValidationError, match=re.escape(
                f"{where}{path}: line {line}: ")):
            read(tmp_path)
    else:
        assert read(tmp_path) == expected
    capsys.readouterr()


def test_missing_config_exits_1(tmp_path, capsys):
    rc = main(["fit", "--config", str(tmp_path / "nope.yaml"),
               "--data", "x.csv"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_empty_free_list_exits_1(tmp_path, capsys):
    data = yaml.safe_load(yaml.safe_dump(BASE))
    data["fit"]["free"] = []
    cfg_path = _write_cfg(tmp_path, data)
    obs_path = _write_obs(tmp_path, cfg_path)
    rc = main(["fit", "--config", str(cfg_path), "--data", str(obs_path),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "free" in capsys.readouterr().err


def test_usage_error_exits_1(capsys):
    assert main(["simulate"]) == 1  # --config missing
    assert main(["no-such-command"]) == 1
    capsys.readouterr()


def test_jitter_max_only_where_a_covariance_is_factored(tmp_path, capsys):
    cfg_path = str(_write_cfg(tmp_path))
    out = str(tmp_path / "out")
    for command in ("simulate", "spectral-check"):
        rc = main([command, "--config", cfg_path, "--out", out,
                   "--jitter-max", "0"])
        assert rc == 1, command
        assert "--jitter-max" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_unobserved_is_not_an_observed_region(tmp_path, capsys):
    data = yaml.safe_load(yaml.safe_dump(BASE))
    data["simulation"]["observed"]["y2"] = "unobserved"
    cfg_path = _write_cfg(tmp_path, data)
    rc = main(["simulate", "--config", str(cfg_path),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "simulation: observed: y2" in err
    assert "valid only for evaluate" in err


def test_simulate_outputs(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path)
    out = tmp_path / "out"
    rc = main(["simulate", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 0
    assert "replicates" in capsys.readouterr().out
    for name in ("fields.csv", "predictors.csv", "replicates.csv",
                 "summary.csv"):
        assert (out / name).exists(), name
    header = (out / "predictors.csv").read_text().splitlines()[0]
    assert header.startswith("x,truth,cokriging_mean,cokriging_stderr")
    # reruns are byte identical
    out2 = tmp_path / "out2"
    main(["simulate", "--config", str(cfg_path), "--out", str(out2)])
    for name in ("fields.csv", "predictors.csv", "replicates.csv",
                 "summary.csv"):
        assert (out / name).read_bytes() == (out2 / name).read_bytes()


def test_fit_then_predict_roundtrip(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path)
    obs_path = _write_obs(tmp_path, cfg_path)
    fit_out = tmp_path / "fit"
    rc = main(["fit", "--config", str(cfg_path), "--data", str(obs_path),
               "--out", str(fit_out)])
    assert rc == 0
    assert (fit_out / "params.txt").exists()
    fit_csv = (fit_out / "fit.csv").read_text().splitlines()
    assert fit_csv[0] == "label,k,loglik,aic,converged"
    assert fit_csv[1].startswith("demo,1,")

    pred_out = tmp_path / "pred"
    rc = main(["predict", "--config", str(cfg_path), "--data", str(obs_path),
               "--params", str(fit_out / "params.txt"),
               "--target-var", "y2", "--out", str(pred_out)])
    assert rc == 0
    lines = (pred_out / "predictions.csv").read_text().splitlines()
    assert lines[0] == "x,mean,stderr"
    assert len(lines) == 25  # header + one row per grid vertex
    capsys.readouterr()


def test_shift_dimension_mismatch_exits_1(tmp_path, capsys):
    data = {"grid": {"kind": "regular", "bounds": [[-1.0, 1.0]] * 2,
                     "counts": [5, 5]},
            "nodes": [dict(n) for n in BASE["nodes"]]}
    data["nodes"][1]["parents"] = [{"node": "y1", "kind": "shifted_bisquare",
                                    "amplitude": 5.0, "aperture": 0.3,
                                    "shift": [0.1]}]
    cfg_path = _write_cfg(tmp_path, data)
    obs_path = tmp_path / "obs.csv"
    save_observations([Observations(0, np.zeros((1, 2)), np.zeros(1))],
                      ["y1", "y2"], obs_path)
    for command in ("fit", "predict"):
        rc = main([command, "--config", str(cfg_path), "--data", str(obs_path),
                   "--out", str(tmp_path / command)])
        assert rc == 1
        assert "'y2'" in capsys.readouterr().err


@pytest.mark.parametrize("dim, node, edit", [
    pytest.param(1, "y1", {"mean": {"covariates": ["const", "elev"],
                                    "coefficients": [0.0, 0.5]}},
                 id="unknown-covariate"),
    pytest.param(2, "y2", {"parents": [{
        "node": "y1", "kind": "tabulated",
        "table": {"s": [0.0, 1.0], "v": [0.0, 1.0],
                  "values": [[1.0, 0.5], [0.5, 1.0]]}}]},
                 id="tabulated-on-2d-grid"),
])
def test_network_the_grid_cannot_evaluate_exits_1(tmp_path, capsys, dim, node,
                                                  edit):
    data = {"grid": {"kind": "regular", "bounds": [[-1.0, 1.0]] * dim,
                     "counts": [5] * dim},
            "nodes": [dict(n) for n in BASE["nodes"]], "fit": BASE["fit"]}
    q = ["y1", "y2"].index(node)
    data["nodes"][q].update(edit)
    cfg_path = _write_cfg(tmp_path, data)
    obs_path = tmp_path / "obs.csv"
    save_observations([Observations(0, np.full((3, dim), 0.5), np.ones(3))],
                      ["y1", "y2"], obs_path)
    rc = main(["fit", "--config", str(cfg_path), "--data", str(obs_path),
               "--out", str(tmp_path / "fit")])
    assert rc == 1
    assert f"node {node!r}" in capsys.readouterr().err


def test_predict_at_explicit_targets(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path)
    obs_path = _write_obs(tmp_path, cfg_path)
    targets = tmp_path / "targets.csv"
    targets.write_text("x\n-0.5\n0.0\n0.5\n")
    out = tmp_path / "p"
    rc = main(["predict", "--config", str(cfg_path), "--data", str(obs_path),
               "--targets", str(targets), "--out", str(out)])
    assert rc == 0
    assert len((out / "predictions.csv").read_text().splitlines()) == 4
    # a header cell with spaces around the name reads the same column
    spaced = tmp_path / "spaced.csv"
    spaced.write_text("x \n-0.5\n0.0\n0.5\n")
    rc = main(["predict", "--config", str(cfg_path), "--data", str(obs_path),
               "--targets", str(spaced), "--out", str(tmp_path / "s")])
    assert rc == 0
    assert (tmp_path / "s" / "predictions.csv").read_bytes() == \
        (out / "predictions.csv").read_bytes()
    capsys.readouterr()


def test_target_var_by_name_or_1_based_index(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path)
    obs_path = _write_obs(tmp_path, cfg_path)
    outputs = []
    for label in ("y2", "2"):
        out = tmp_path / label
        rc = main(["predict", "--config", str(cfg_path), "--data", str(obs_path),
                   "--target-var", label, "--out", str(out)])
        assert rc == 0
        outputs.append((out / "predictions.csv").read_text())
    assert outputs[0] == outputs[1]
    capsys.readouterr()
    for label in ("0", "3", "y3"):
        rc = main(["predict", "--config", str(cfg_path), "--data", str(obs_path),
                   "--target-var", label, "--out", str(tmp_path / "bad")])
        assert rc == 1
        assert f"--target-var: unknown variable {label!r}" in capsys.readouterr().err


def test_cv_outputs(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path)
    obs_path = _write_obs(tmp_path, cfg_path)
    out = tmp_path / "cv"
    rc = main(["cv", "--config", str(cfg_path), "--data", str(obs_path),
               "--out", str(out)])
    assert rc == 0
    lines = (out / "cv.csv").read_text().splitlines()
    assert lines[0] == "variable,MAE,RMSPE,MCRPS"
    assert [ln.split(",")[0] for ln in lines[1:]] == ["y1", "y2", "all"]
    folds = (out / "folds.csv").read_text().splitlines()
    assert folds[0] == "variable,x,observed,mean,stderr,error,crps"
    assert len(folds) == 1 + 2 * 24
    capsys.readouterr()


def test_spectral_check_valid_and_invalid(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path)
    out = tmp_path / "sp"
    rc = main(["spectral-check", "--config", str(cfg_path),
               "--out", str(out)])
    assert rc == 0
    text = (out / "spectral_summary.csv").read_text()
    assert "valid,true" in text
    assert "valid" in capsys.readouterr().out

    data = yaml.safe_load(yaml.safe_dump(BASE))
    data["spectral"]["candidate"]["variance"] = 1e4
    bad_path = _write_cfg(tmp_path, data, name="bad.yaml")
    out2 = tmp_path / "sp2"
    rc = main(["spectral-check", "--config", str(bad_path),
               "--out", str(out2)])
    assert rc == 0  # an invalid candidate is a result, not a failure
    assert "valid,false" in (out2 / "spectral_summary.csv").read_text()
    assert "NOT valid" in capsys.readouterr().out


def test_spectral_check_tabulated_candidate(tmp_path, capsys):
    curve = tmp_path / "curve.csv"
    w = np.geomspace(1e-3, 1e3, 32)
    rows = "\n".join(f"{wi},{0.0}" for wi in w)
    curve.write_text("w,value\n" + rows + "\n")
    data = yaml.safe_load(yaml.safe_dump(BASE))
    data["spectral"]["candidate"] = {"table": "curve.csv"}
    cfg_path = _write_cfg(tmp_path, data)
    out = tmp_path / "sp"
    rc = main(["spectral-check", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 0
    assert "valid,true" in (out / "spectral_summary.csv").read_text()
    capsys.readouterr()


def test_compare_directions_ranking(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path)
    obs_path = _write_obs(tmp_path, cfg_path)
    out = tmp_path / "dir"
    rc = main(["compare-directions", "--config", str(cfg_path),
               "--data", str(obs_path), "--out", str(out)])
    assert rc == 0
    lines = (out / "directions.csv").read_text().splitlines()
    assert lines[0] == "rank,label,k,loglik,aic,converged,delta_aic,tie"
    assert len(lines) == 3
    rows = [ln.split(",") for ln in lines[1:]]
    aics = [float(row[4]) for row in rows]
    assert aics == sorted(aics)
    assert [float(row[6]) for row in rows] == [0.0, aics[1] - aics[0]]
    assert [row[7] for row in rows] == ["false", "false"]
    capsys.readouterr()


def test_every_output_is_rewritten_in_place(tmp_path, capsys, monkeypatch):
    # a writer that truncates an existing output to zero on open makes every
    # rewrite wait on the disk, so each file of each command must come from
    # the one writer that cuts the file after writing; a rerun into the same
    # directory rewrites every file with the same bytes
    import condcov.domain
    import condcov.inference

    written = []
    rewrite = condcov.domain._rewrite

    def recorded(path):
        written.append(Path(path).resolve())
        return rewrite(path)

    # the CSVs come through domain._write_table, params.txt from inference
    for module in (condcov.domain, condcov.inference):
        monkeypatch.setattr(module, "_rewrite", recorded)
    cfg_path = _write_cfg(tmp_path)
    obs_path = _write_obs(tmp_path, cfg_path)
    data = ["--data", str(obs_path)]
    commands = {"simulate": ["--replicates", "1"], "fit": data,
                "predict": data, "cv": data, "spectral-check": [],
                "compare-directions": data}
    for command, extra in commands.items():
        out = tmp_path / command
        argv = [command, "--config", str(cfg_path), "--out", str(out), *extra]
        assert main(argv) == 0
        files = sorted(out.iterdir())
        assert files and set(files) <= set(written), command
        first = [f.read_bytes() for f in files]
        assert main(argv) == 0
        assert sorted(out.iterdir()) == files
        assert [f.read_bytes() for f in files] == first, command
    capsys.readouterr()


def test_no_writer_truncates_on_open():
    # the source-level half of the guard above: no mode-"w" open of a path,
    # no O_TRUNC, no pathlib writes (os.fdopen wraps an already-open file)
    pattern = re.compile(r"\bopen\([^)]*[\"'][wxa]|os\.O_TRUNC|\.write_(text|bytes)\(")
    for path in sorted((ROOT / "src" / "condcov").glob("*.py")):
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            assert not pattern.search(line), f"{path.name}:{lineno}: {line}"


def test_no_csv_is_written_but_through_the_table_writer():
    for path in sorted((ROOT / "src" / "condcov").glob("*.py")):
        assert "csv.writer(" not in path.read_text(), path.name


def test_numerical_failure_exits_2(tmp_path, capsys):
    # zero-noise model plus duplicated observation rows: the conditioning
    # matrix is exactly singular and no admissible jitter rescues it
    data = yaml.safe_load(yaml.safe_dump(BASE))
    for node in data["nodes"]:
        node["noise"] = 0.0
    cfg_path = _write_cfg(tmp_path, data)
    cfg = parse_config(cfg_path)
    model = assemble_dag(cfg.grid, cfg.network)
    fields = sample_joint(model, seed=1)
    locs = np.vstack([cfg.grid.vertices[:4], cfg.grid.vertices[:4]])
    vals = np.concatenate([fields[0][:4], fields[0][:4] + 1.0])
    obs = [Observations(0, locs, vals)]
    obs_path = tmp_path / "dup.csv"
    save_observations(obs, ["y1"], obs_path)
    rc = main(["predict", "--config", str(cfg_path), "--data", str(obs_path),
               "--jitter-max", "0.0", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["predict", "cv", "fit"])
def test_overflowing_covariance_exits_2(tmp_path, capsys, command):
    # the observation covariance overflows to inf: a numerical failure, not
    # scipy's finiteness ValueError as a traceback
    obs_path = _write_obs(tmp_path, _write_cfg(tmp_path))
    data = yaml.safe_load(yaml.safe_dump(BASE))
    data["nodes"][1]["parents"][0]["amplitude"] = 1e200
    cfg_path = _write_cfg(tmp_path, data, name="overflow.yaml")
    with pytest.warns(RuntimeWarning, match="overflow"):
        rc = main([command, "--config", str(cfg_path), "--data", str(obs_path),
                   "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_module_entry_point(tmp_path):
    cfg_path = _write_cfg(tmp_path)
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "condcov.cli", "simulate",
         "--config", str(cfg_path), "--out", str(out),
         "--replicates", "1"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (out / "summary.csv").exists()


@pytest.mark.parametrize("value", ["nan", "-1", "inf"])
def test_invalid_jitter_max_exits_1(tmp_path, capsys, value):
    # a usage error naming the flag, not a numerical failure (exit 2)
    cfg_path = _write_cfg(tmp_path)
    obs_path = _write_obs(tmp_path, cfg_path)
    out = tmp_path / "out"
    rc = main(["predict", "--config", str(cfg_path), "--data", str(obs_path),
               "--jitter-max", value, "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "--jitter-max" in err
    assert "finite and >= 0" in err
    assert not out.exists()


_HEAVY = ("scipy.stats", "scipy.interpolate", "scipy.optimize",
          "scipy.integrate")

_IMPORT_PROBE = f"""
import json, sys
HEAVY = {_HEAVY!r}
cfg, tab_cfg, sim_cfg, data, out = sys.argv[1:]
seen = {{}}
def stage(name, rc=0):
    assert rc == 0, name
    seen[name] = [m for m in HEAVY if m in sys.modules]
import condcov
stage("import condcov")
import condcov.cli as cli
stage("import condcov.cli")
common = ["--config", cfg, "--data", data, "--out", out]
stage("predict", cli.main(["predict"] + common))
stage("cv", cli.main(["cv"] + common))
stage("spectral-check", cli.main(["spectral-check", "--config", cfg,
                                  "--out", out]))
stage("fit", cli.main(["fit"] + common))
stage("compare-directions", cli.main(["compare-directions"] + common))
stage("simulate", cli.main(["simulate", "--config", sim_cfg,
                            "--replicates", "1", "--out", out]))
stage("tabulated", cli.main(["predict", "--config", tab_cfg, "--data", data,
                             "--out", out]))
print(json.dumps(seen))
"""


def test_commands_import_only_the_scipy_they_use(tmp_path):
    # a fresh interpreter: this test process has loaded all of scipy
    cfg_path = _write_cfg(tmp_path)
    obs_path = _write_obs(tmp_path, cfg_path)
    data = yaml.safe_load(yaml.safe_dump(BASE))
    data["nodes"][1]["parents"][0] = {
        "node": "y1", "kind": "tabulated",
        "table": {"s": [-1.0, 1.0], "v": [-1.0, 0.0, 1.0],
                  "values": [[0.5, 1.0, 0.2], [0.1, 0.8, 0.3]]}}
    del data["fit"]  # its free y2~y1.amplitude names no tabulated parameter
    tab_path = _write_cfg(tmp_path, data, "tabulated.yaml")
    # as configs/demo1d.yaml: a shifted edge, refitted without its shift
    data = yaml.safe_load(yaml.safe_dump(BASE))
    data["nodes"][1]["parents"][0].update(kind="shifted_bisquare", shift=[-0.3])
    data["simulation"]["refit"] = {
        "free": ["y2~y1.amplitude", "y2~y1.aperture"],
        "edges": [{"node": "y2", "parent": "y1", "kind": "bisquare",
                   "amplitude": 5.0, "aperture": 0.3}]}
    sim_path = _write_cfg(tmp_path, data, "simulate.yaml")
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(cfg_path), str(tab_path),
         str(sim_path), str(obs_path), str(tmp_path / "out")],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    # the bisquare map path (predict, cv) needs none of them, nor does the
    # spectral check, which integrates no density
    for stage in ("import condcov", "import condcov.cli", "predict", "cv",
                  "spectral-check"):
        assert seen[stage] == [], stage
    # fitting runs the package's own Nelder-Mead: no command loads
    # scipy.optimize
    for stage in seen:
        assert "scipy.optimize" not in seen[stage], stage
    # the tabulated lookup is numpy alone: no command loads scipy.interpolate
    assert "scipy.interpolate" not in seen["tabulated"]


def _fmt(value) -> str:
    """How a cell was formatted before the one table writer."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.17g" % float(value)
    return str(value)


def _write_csv_reference(path, header, rows):
    """The row path tables took before: csv.writer over _fmt cells."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


_AWKWARD_FLOATS = [-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e300,
                   3.0, -12.0, 2.0 ** 53, 0.1, 1.0 / 3.0, -2.5e-308]


@pytest.mark.parametrize("labelled", [False, True])
def test_numeric_tables_are_written_byte_identically(tmp_path, labelled):
    rng = np.random.default_rng(2)
    values = np.array(_AWKWARD_FLOATS + list(rng.normal(size=10) * 1e5))
    n = values.size
    columns = [values, values[::-1], np.roll(values, 3)]
    header = ["x", "y,z", 'q"uote']
    if labelled:
        # text, int, bool and float cells as the commands hand them over, and
        # a repeated name, as fields.csv has for a node named x
        names = ['y"1', "plain", "with space", "semi;colon", "a,b",
                 "two\nlines", ""]
        columns = [[names[i % len(names)] for i in range(n)]] + columns + [
            [np.int64(i - 7) if i % 2 else i - 7 for i in range(n)],
            [np.bool_(i % 3 == 0) if i % 2 else i % 3 == 0 for i in range(n)],
            list(values),
            values.clip(-3e38, 3e38).astype(np.float32),
        ]
        header = ["variable"] + header + ["k", "flag", "x", "two\nline"]
    _write_table(tmp_path / "new.csv", header, columns)
    _write_csv_reference(tmp_path / "old.csv", header, zip(*columns))
    new = (tmp_path / "new.csv").read_bytes()
    assert new == (tmp_path / "old.csv").read_bytes()
    if labelled:
        assert new.startswith(
            b'variable,x,"y,z","q""uote",k,flag,x,"two\nline"\n"y""1",')
        assert b'\n"a,b",' in new and b'\n"two\nlines",' in new
        with pytest.raises(ValueError, match="unequal lengths"):
            _write_table(tmp_path / "bad.csv", header, columns[:-1] + [[]])
