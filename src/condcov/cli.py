"""Command line interface. One YAML config file drives every workflow.

Config layout (strict: unknown keys are errors)::

    grid:
      kind: regular              # or: mesh
      bounds: [[-1.0, 1.0]]      # regular: per-axis [lo, hi]
      counts: [200]              # regular: cells per axis
      path: mesh.csv             # mesh: CSV with header x[,y[,z]],weight
      metric: euclidean          # or: {kind: chordal, radius: 6371.0}
    nodes:                       # any order; parents referenced by name
      - name: y1
        variance: 1.0
        scale: 25.0
        smoothness: 1.5
        nugget: 0.0              # optional micro-scale variance
        noise: 0.25              # optional measurement-error variance
        mean:                    # optional linear mean
          covariates: [const, x]
          coefficients: [0.0, 1.0]
        parents:                 # optional
          - node: y0
            kind: shifted_bisquare
            amplitude: 5.0
            aperture: 0.3
            shift: [-0.3]
    fit:                         # used by fit / compare-directions / refits
      label: model               # one line: it heads params.txt
      free: [y1.variance]        # default: every parameter except *.noise
      restarts: 3
      max_evals: 2000
      seed: 0
    simulation:                  # used by simulate
      replicates: 50
      seed: 0
      target: y1                 # default: the first parentless node
      observed:                  # per node: all | none | {min: [..], max: [..]}
        y1: {min: [0.0], max: [1.0]}   # one coordinate per grid dimension
      evaluate: unobserved       # all | unobserved | {min: [..], max: [..]}
      refit:                     # optional misspecified-refit arm
        free: [y2~y1.amplitude, y2~y1.aperture]   # must not be empty
        edges:                   # in place of the child's edge from parent
          - node: y2
            parent: y1
            kind: bisquare
            amplitude: 5.0
            aperture: 0.3
    spectral:                    # used by spectral-check
      c11: {variance: 1.0, scale: 25.0, smoothness: 1.5}
      c22: {variance: 0.2, scale: 25.0, smoothness: 4.0}
      candidate: {variance: 1.0, scale: 25.0, smoothness: 0.25}
      wmax: 25000.0              # optional scan ceiling
      nsamples: 4096             # optional scan resolution

The spectral candidate may instead be ``candidate: {table: curve.csv}`` with
CSV header ``w,value`` giving sampled (frequency, B) pairs. Interaction tables
may be a path or inline ``{s: [...], v: [...], values: [[...]]}``; the rows
of inline ``values``, like those of mesh ``vertices``, are equally long.

The whole config is checked when it is read, each fault with its key path:
both networks, every node name and ``free`` parameter, and the study, which
observes some vertex, evaluates at least one and runs at least one replicate.

Every CSV the package writes, here and in ``save_mesh`` and
``save_observations``, has one format: floats with 17 significant digits,
cells joined by "," and lines ended by "\\n". So re-running a command with the
same config, data and seed, under the same BLAS library and thread count,
reproduces the files byte for byte. Another BLAS library or thread count can
change the last digits of fitted values (refit estimates differ in the 10th
digit between one and two OpenBLAS threads).

Every output file is rewritten in place: written over, then cut to its new
length. It keeps its inode and permissions, and a symlink at the output path
stays a symlink. A crash mid-write can leave new rows followed by stale bytes
of the old file.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from dataclasses import MISSING, dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Tuple, Union

import numpy as np
import yaml

from .conditional import (
    MeanSpec,
    ProcessNetwork,
    ProcessNode,
    _check_network_on_grid,
    assemble_dag,
)
from .domain import (
    _COORD_NAMES,
    _one_line,
    _read_table,
    _variable_index,
    _write_table,
    EUCLIDEAN,
    Grid,
    chordal,
    load_mesh,
    load_observations,
    regular_grid,
)
from .errors import (
    ConfigError,
    InvalidModelError,
    NumericalError,
    OptimizationError,
    ParameterError,
    ValidationError,
)
from .inference import (
    OptimizerConfig,
    compare_directions,
    fit_mle,
    get_parameter,
    read_params,
    set_parameter,
    write_fit_result,
)
from .kernels import (
    InteractionSpec,
    MaternParams,
    bisquare,
    dirac,
    load_tabulated,
    shifted_bisquare,
    tabulated,
    zero,
)
from .linalg import DEFAULT_JITTER_MAX, check_jitter_max
from .predict import cokrige, loo_cv, summarize_folds
from .sim import SimStudyConfig, run_sim_study, simulate_replicate
from .spectral import check_cross_validity

__all__ = [
    "FitSettings",
    "SpectralSettings",
    "ParsedConfig",
    "parse_config",
    "parse_config_dict",
    "main",
    "cli_entry",
]

# the types a config value may have, and the words a message uses for them;
# a one-element list [kind] reads a list of kind
_EXPECTED = {float: ((int, float), "a number"), int: (int, "an integer"),
             str: (str, "a string"), list: (list, "a list")}


def _expect(value, where: str, kind):
    accepts, noun = _EXPECTED[list if isinstance(kind, list) else kind]
    if isinstance(value, bool) or not isinstance(value, accepts):
        raise ConfigError(f"{where}: expected {noun}, got {value!r}")
    if isinstance(kind, list):
        return tuple(_expect(v, where, kind[0]) for v in value)
    return float(value) if kind is float else value


def _existing(path: Path, what: str) -> Path:
    if not path.exists():
        raise ConfigError(f"{what} {path} does not exist")
    return path


class _Section:
    """One config mapping and its path in messages (``<where>: <key>``);
    relative file names in it resolve against ``base_dir``, and ``finish``
    rejects the keys that no reader asked for."""

    def __init__(self, data, where: str, base_dir: Optional[Path] = None):
        if not isinstance(data, dict):
            raise ConfigError(
                f"{where}: expected a mapping, got {type(data).__name__}"
            )
        self.data = data
        self.where = where
        self.base_dir = base_dir
        self.known = set()

    def take(self, key: str, default=MISSING):
        self.known.add(key)
        if key in self.data:
            return self.data[key]
        if default is MISSING:
            raise ConfigError(f"{self.where}: missing required key {key!r}")
        return default

    def read(self, key: str, kind, *args, default=MISSING):
        """The value of ``key`` as a ``kind`` of _EXPECTED, or as a section:
        the _Section itself for ``kind=_Section``, else ``kind(section,
        *args)``. An explicit null reads as absent where the default is None.
        """
        value = self.take(key, default)
        if value is None and default is None:
            return None
        where = f"{self.where}: {key}"
        if isinstance(kind, list) or kind in _EXPECTED:
            return _expect(value, where, kind)
        section = _Section(value, where, self.base_dir)
        return section if kind is _Section else kind(section, *args)

    def matrix(self, key: str) -> np.ndarray:
        """The rows of numbers under ``key``, which must be equally long."""
        rows = self.read(key, [[float]])
        lengths = sorted({len(row) for row in rows})
        if len(lengths) > 1:
            raise ConfigError(
                f"{self.where}: {key}: rows have unequal lengths {lengths}")
        return np.array(rows, dtype=float)

    def sections(self, key: str, default=MISSING) -> list:
        return [_Section(item, f"{self.where}: {key}[{i}]", self.base_dir)
                for i, item in enumerate(self.read(key, list, default=default))]

    def finish(self):
        unknown = sorted(set(self.data) - self.known)
        if unknown:
            raise ConfigError(
                f"{self.where}: unknown keys {unknown}; "
                f"expected among {sorted(self.known)}"
            )


# the kind of each field annotation that a flat config key can have
_KIND_OF = {"str": str, "int": int, "float": float, "Optional[float]": float,
            "Tuple[float, ...]": [float], "Tuple[str, ...]": [str],
            "Optional[Tuple[str, ...]]": [str]}


def _flat(sec: _Section, cls, **defaults) -> dict:
    """The keys of ``sec`` named by the fields of dataclass ``cls`` whose
    annotation is in _KIND_OF, with the field defaults unless ``defaults``
    overrides them; the other fields are sections the caller reads."""
    return {
        f.name: sec.read(f.name, _KIND_OF[f.type],
                         default=defaults.get(f.name, f.default))
        for f in dataclasses.fields(cls) if f.type in _KIND_OF
    }


def _located(where: str, fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, with the ValidationError it raises placed at
    ``where``."""
    try:
        return fn(*args, **kwargs)
    except ValidationError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _fill(sec: _Section, cls, **fields):
    """A ``cls`` from the flat keys of a section and the other ``fields``;
    the section holds nothing else."""
    value = cls(**_flat(sec, cls), **fields)
    sec.finish()
    return value


# ---------------------------------------------------------------- settings


@dataclass(frozen=True)
class FitSettings:
    label: str = "model"
    free: Optional[Tuple[str, ...]] = None
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)


@dataclass(frozen=True)
class SpectralSettings:
    c11: MaternParams
    c22: MaternParams
    candidate: Union[MaternParams, Tuple[Tuple[float, float], ...]]
    wmax: Optional[float] = None
    nsamples: int = 4096


@dataclass(frozen=True)
class ParsedConfig:
    grid: Grid
    network: ProcessNetwork
    fit: Optional[FitSettings] = None
    simulation: Optional[SimStudyConfig] = None
    spectral: Optional[SpectralSettings] = None


# ---------------------------------------------------------------- parsing


def _parse_table(sec: _Section) -> InteractionSpec:
    value = sec.take("table")
    if isinstance(value, str):
        path = _existing(sec.base_dir / value, f"{sec.where}: table: table file")
        return _located(f"{sec.where}: table", load_tabulated, path)
    tsec = sec.read("table", _Section)
    s_axis = tsec.read("s", [float])
    v_axis = tsec.read("v", [float])
    values = tsec.matrix("values")
    tsec.finish()
    return tabulated(np.array(s_axis), np.array(v_axis), values)


# the keys of each kind of metric and of interaction, which its constructor
# takes by name; a tabulated interaction reads its own table
_METRICS = {"euclidean": (lambda: EUCLIDEAN, {}),
            "chordal": (chordal, {"radius": float})}
_DIRAC = {"amplitude": float}
_BISQUARE = {**_DIRAC, "aperture": float}
_INTERACTIONS = {
    "zero": (zero, {}),
    "dirac": (dirac, _DIRAC),
    "bisquare": (bisquare, _BISQUARE),
    "shifted_bisquare": (shifted_bisquare, {**_BISQUARE, "shift": [float]}),
    "tabulated": (_parse_table, None),
}


def _parse_kind(sec: _Section, kinds: dict, what: str):
    """What the constructor of the ``kind`` of ``sec`` builds from its keys."""
    kind = sec.read("kind", str)
    if kind not in kinds:
        raise ConfigError(
            f"{sec.where}: unknown {what} kind {kind!r}; "
            f"expected one of {sorted(kinds)}"
        )
    make, keys = kinds[kind]
    if keys is None:
        value = make(sec)
    else:
        value = make(**{key: sec.read(key, expected)
                        for key, expected in keys.items()})
    sec.finish()
    return value


def _parse_grid(sec: _Section) -> Grid:
    kind = sec.read("kind", str)
    metric = EUCLIDEAN
    if sec.take("metric", "euclidean") != "euclidean":
        metric = sec.read("metric", _parse_kind, _METRICS, "metric")
    if kind == "regular":
        bounds = sec.read("bounds", [[float]])
        counts = sec.read("counts", [int])
        sec.finish()
        if any(len(b) != 2 for b in bounds):
            raise ConfigError(f"{sec.where}: each bounds entry must be [lo, hi]")
        return regular_grid(bounds, counts, metric)
    if kind == "mesh":
        if "path" in sec.data:
            path = sec.base_dir / sec.read("path", str)
            sec.finish()
            return _located(f"{sec.where}: path", load_mesh,
                            _existing(path, f"{sec.where}: mesh file"), metric)
        vertices = sec.matrix("vertices")
        weights = sec.read("weights", [float])
        sec.finish()
        return Grid(vertices, np.array(weights), metric)
    raise ConfigError(
        f"{sec.where}: unknown grid kind {kind!r}; "
        f"expected one of ['mesh', 'regular']"
    )


def _parse_edge(sec: _Section, key: str) -> Tuple[str, InteractionSpec]:
    """The node named under ``key`` and the interaction of an edge mapping."""
    name = sec.read(key, str)
    return name, _parse_kind(sec, _INTERACTIONS, "interaction")


def _conditioning_order(names: list, parents: dict, where: str) -> list:
    """``names`` with every node after its parents, stable in their order."""
    for name in names:
        for p in parents[name]:
            if p not in parents:
                raise ConfigError(
                    f"{where}: node {name!r} references unknown parent {p!r}; "
                    f"declared nodes: {names}"
                )
    placed = []
    while len(placed) < len(names):
        pending = [name for name in names if name not in placed]
        for name in pending:
            if all(p in placed for p in parents[name]):
                placed.append(name)
        if len(placed) + len(pending) == len(names):
            # each pending node has a pending parent: walk them to a repeat
            path = [pending[0]]
            while path.count(path[-1]) < 2:
                path.append(next(p for p in parents[path[-1]] if p not in placed))
            cycle = path[path.index(path[-1]):]
            raise ConfigError(
                f"{where}: network not acyclic: {' -> '.join(cycle)}"
            )
    return placed


def _parse_nodes(sec: _Section) -> ProcessNetwork:
    where = f"{sec.where}: nodes"
    items = sec.sections("nodes")
    if not items:
        raise ConfigError(f"{where}: at least one node is required")
    nodes, edges = {}, {}
    for nsec in items:
        settings = _flat(nsec, ProcessNode)
        node = ProcessNode(
            covariance=MaternParams(**_flat(nsec, MaternParams)),
            mean=nsec.read("mean", _fill, MeanSpec, default=None),
            **settings,
        )
        if node.name in nodes:
            raise ConfigError(f"{where}: duplicate node name {node.name!r}")
        edges[node.name] = [_parse_edge(esec, "node")
                            for esec in nsec.sections("parents", [])]
        nsec.finish()
        nodes[node.name] = node
    parents = {name: [p for p, _ in e] for name, e in edges.items()}
    order = _conditioning_order(list(nodes), parents, where)
    index = {name: q for q, name in enumerate(order)}
    return ProcessNetwork(tuple(
        dataclasses.replace(nodes[name], parents=tuple(
            (index[p], spec) for p, spec in edges[name]))
        for name in order
    ))


def _check_free(where: str, free, network: ProcessNetwork) -> None:
    """Each name in ``free`` addresses a parameter of ``network``."""
    for name in free or ():
        _located(f"{where}: free", get_parameter, network, name)


def _parse_fit(sec: _Section, network: ProcessNetwork) -> FitSettings:
    fit = _fill(sec, FitSettings,
                optimizer=OptimizerConfig(**_flat(sec, OptimizerConfig)))
    _check_free(sec.where, fit.free, network)
    _located(f"{sec.where}: label", _one_line, fit.label)
    return fit


def _parse_region(value, where: str, grid: Grid, unobserved=None) -> np.ndarray:
    """The vertex mask of a region: all, none, a box, or, for ``evaluate``,
    the mask ``unobserved`` of the target's unobserved vertices."""
    if value == "all":
        return np.ones(grid.n, dtype=bool)
    if value == "none":
        return np.zeros(grid.n, dtype=bool)
    if value == "unobserved":
        if unobserved is None:
            raise ConfigError(f"{where}: 'unobserved' is valid only for evaluate")
        return unobserved
    if isinstance(value, str):
        raise ConfigError(
            f"{where}: unknown region {value!r}; expected 'all', 'none', "
            f"'unobserved' or a box {{min: [..], max: [..]}}"
        )
    sec = _Section(value, where)
    lo = sec.read("min", [float])
    hi = sec.read("max", [float])
    sec.finish()
    if len(lo) != grid.dim or len(hi) != grid.dim:
        raise ConfigError(f"{where}: region box has {len(lo)}/{len(hi)} "
                          f"coordinates, grid is {grid.dim}-d")
    return np.all((grid.vertices >= lo) & (grid.vertices <= hi), axis=1)


def _parse_refit(sec: _Section, grid: Grid, network: ProcessNetwork) -> dict:
    """The refit fields of SimStudyConfig: the network of ``nodes`` with the
    refit edges in place, and the names re-estimated on it."""
    parents = {node.name: [network.names[a] for a, _ in node.parents]
               for node in network.nodes}
    refit_network = network
    for esec in sec.sections("edges", []):
        child = esec.read("node", str)
        q = _located(f"{esec.where}: node", network.index, child)
        parent, spec = _parse_edge(esec, "parent")
        a = _located(f"{esec.where}: parent", network.index, parent)
        parents[child].append(parent)
        _conditioning_order(list(network.names), parents, sec.where)
        node = refit_network.nodes[q]
        edges = [e for e in node.parents if e[0] != a] + [(a, spec)]
        edges.sort(key=lambda e: e[0])
        nodes = list(refit_network.nodes)
        nodes[q] = dataclasses.replace(node, parents=tuple(edges))
        refit_network = _located(sec.where, ProcessNetwork, tuple(nodes))
    _located(sec.where, _check_network_on_grid, grid, refit_network)
    free = sec.read("free", [str])
    sec.finish()
    if not free:
        raise ConfigError(f"{sec.where}: at least one free parameter is required")
    _check_free(sec.where, free, refit_network)
    return {"refit_network": refit_network, "refit_free": free}


def _parse_simulation(sec: _Section, grid: Grid, network: ProcessNetwork,
                      fit: Optional[FitSettings]) -> SimStudyConfig:
    """The study; the refit arm optimizes with the settings of ``fit``."""
    where = sec.where
    target = _located(f"{where}: target", network.index,
                      sec.read("target", str, default=network.names[0]))
    observed = sec.take("observed", {})
    if not isinstance(observed, dict):
        raise ConfigError(f"{where}: observed must map node names to regions")
    for name in observed:
        if name not in network.names:
            raise ConfigError(
                f"{where}: observed references unknown node {name!r}; "
                f"nodes: {list(network.names)}"
            )
    masks = tuple(_parse_region(observed.get(name, "all"),
                                f"{where}: observed: {name}", grid)
                  for name in network.names)
    eval_mask = _parse_region(sec.take("evaluate", "unobserved"),
                              f"{where}: evaluate", grid, ~masks[target])
    refit = sec.read("refit", _parse_refit, grid, network, default=None) or {}
    counts = {f.name: sec.read(f.name, int, default=f.default)
              for f in dataclasses.fields(SimStudyConfig)
              if f.name in ("replicates", "seed")}
    sec.finish()
    return _located(where, SimStudyConfig, grid, network, masks, eval_mask,
                    target, optimizer=(fit or FitSettings()).optimizer,
                    **counts, **refit)


def _parse_candidate(sec: _Section):
    """A Matérn candidate, or the [w, value] rows of a file or inline table."""
    if not isinstance(sec.take("candidate"), dict):
        raise ConfigError(f"{sec.where}: candidate must be a mapping")
    csec = sec.read("candidate", _Section)
    if "table" not in csec.data:
        return _fill(csec, MaternParams)
    table = csec.take("table")
    csec.finish()
    if isinstance(table, str):
        where = _existing(sec.base_dir / table, f"{sec.where}: candidate table")
        rows = tuple(zip(*_located(f"{csec.where}: table", _read_table,
                                   where, [("w", "value")])[1]))
    else:
        where = sec.where
        rows = _expect(table, f"{where}: candidate table", [[float]])
    if any(len(row) != 2 for row in rows):
        raise ConfigError(f"{where}: candidate table rows must be [w, value]")
    if len(rows) < 2:
        raise ConfigError(f"{where}: candidate table needs at least 2 rows")
    return tuple(tuple(row) for row in rows)


def _parse_spectral(sec: _Section) -> SpectralSettings:
    return _fill(sec, SpectralSettings,
                 c11=sec.read("c11", _fill, MaternParams),
                 c22=sec.read("c22", _fill, MaternParams),
                 candidate=_parse_candidate(sec))


def parse_config_dict(data, base_dir, where: str = "config") -> ParsedConfig:
    """Validate a config mapping; see the module docstring for the layout."""
    sec = _Section(data, where, Path(base_dir))
    grid = sec.read("grid", _parse_grid)
    network = _parse_nodes(sec)
    _located(where, _check_network_on_grid, grid, network)
    fit = sec.read("fit", _parse_fit, network, default=None)
    cfg = ParsedConfig(
        grid=grid,
        network=network,
        fit=fit,
        simulation=sec.read("simulation", _parse_simulation, grid, network,
                            fit, default=None),
        spectral=sec.read("spectral", _parse_spectral, default=None),
    )
    sec.finish()
    return cfg


def parse_config(path) -> ParsedConfig:
    path = _existing(Path(path), "config file")
    try:
        data = yaml.safe_load(path.read_text())
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
    return parse_config_dict(data, path.parent, where=str(path))


# ------------------------------------------------------------- commands


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_inputs(args):
    """Config, its network with ``--params`` applied, and ``--data``."""
    cfg = parse_config(args.config)
    network = cfg.network
    if args.params:
        for name, value in read_params(args.params).items():
            network = set_parameter(network, name, value)
    if not args.data:
        raise ConfigError("--data is required for this command")
    path = _existing(Path(args.data), "data file")
    return cfg, network, load_observations(path, network.names)


def _fit_inputs(args):
    """Inputs of ``fit`` and ``compare-directions``, plus the fit settings
    and their optimizer with the ``--seed`` override."""
    cfg, network, obs = _load_inputs(args)
    settings = cfg.fit or FitSettings()
    optimizer = settings.optimizer
    if args.seed is not None:
        optimizer = dataclasses.replace(optimizer, seed=args.seed)
    return cfg, network, obs, settings, optimizer


def _model_inputs(args):
    """Inputs of ``predict`` and ``cv``: the model carries ``--jitter-max``."""
    cfg, network, obs = _load_inputs(args)
    return assemble_dag(cfg.grid, network, args.jitter_max), obs


def _cmd_simulate(args) -> int:
    cfg = parse_config(args.config)
    if cfg.simulation is None:
        raise ConfigError("config has no 'simulation' section")
    overrides = {"replicates": args.replicates, "seed": args.seed}
    study = dataclasses.replace(cfg.simulation, **{
        key: value for key, value in overrides.items() if value is not None})
    result = run_sim_study(study)
    first = simulate_replicate(study, 0)
    out = _out_dir(args)
    names = cfg.network.names
    grid = cfg.grid
    coords = list(_COORD_NAMES[:grid.dim])

    _write_table(out / "fields.csv", coords + list(names),
                 [*grid.vertices.T, *first.fields])

    arms = list(first.predictions)
    header, columns = coords + ["truth"], [
        *grid.vertices[study.eval_mask].T,
        first.fields[study.target][study.eval_mask]]
    for arm in arms:
        header += [f"{arm}_mean", f"{arm}_stderr"]
        columns += [first.predictions[arm].mean, first.predictions[arm].stderr]
    _write_table(out / "predictors.csv", header, columns)

    scores = result.scores
    est_names = list(study.refit_free) if study.refit_network is not None else []
    _write_table(
        out / "replicates.csv",
        ["replicate"] + [f"rmse_{arm}" for arm in arms] + est_names,
        [[s.replicate for s in scores]]
        + [[s.rmse[arm] for s in scores] for arm in arms]
        + [[s.estimates[nm] for s in scores] for nm in est_names])

    summary = {"replicates": result.summary["replicates"]}
    for arm in arms:
        summary[f"mean_rmse_{arm}"] = result.summary["mean_rmse"][arm]
    for key in ("cokriging_wins_vs_kriging", "cokriging_wins_vs_refit"):
        if key in result.summary:
            summary[key] = result.summary[key]
    _write_table(out / "summary.csv", ["key", "value"],
                 [list(summary), list(summary.values())])

    parts = [
        f"{arm} mean RMSE {result.summary['mean_rmse'][arm]:.4f}" for arm in arms
    ]
    print(f"{result.summary['replicates']} replicates: " + ", ".join(parts))
    return 0


def _cmd_fit(args) -> int:
    cfg, network, obs, settings, optimizer = _fit_inputs(args)
    fit = fit_mle(
        cfg.grid, network, obs,
        free=settings.free, config=optimizer, label=settings.label,
        jitter_max=args.jitter_max,
    )
    out = _out_dir(args)
    write_fit_result(out / "params.txt", fit)
    _write_table(out / "fit.csv", ["label", "k", "loglik", "aic", "converged"],
                 [[fit.label], [fit.k], [fit.loglik], [fit.aic], [fit.converged]])
    note = "" if fit.converged else " (not converged)"
    print(f"{fit.label}: loglik {fit.loglik:.4f}, k={fit.k}, "
          f"aic {fit.aic:.4f}{note}")
    return 0


def _cmd_predict(args) -> int:
    model, obs = _model_inputs(args)
    grid, network = model.grid, model.network
    if args.targets:
        tpath = _existing(Path(args.targets), "targets file")
        coords = _read_table(tpath, [_COORD_NAMES[:grid.dim]])[1]
        if not coords[0]:
            raise ConfigError(f"{tpath}: no target locations")
        targets = np.column_stack(coords)
    else:
        targets = grid.vertices
    try:
        tq = _variable_index(args.target_var or network.names[0], network.names)
    except ValidationError as exc:
        raise ConfigError(f"--target-var: {exc}") from None
    pred = cokrige(model, obs, targets, tq)
    out = _out_dir(args)
    _write_table(out / "predictions.csv",
                 [*_COORD_NAMES[:grid.dim], "mean", "stderr"],
                 [*targets.T, pred.mean, pred.stderr])
    print(f"predicted {network.names[tq]} at {targets.shape[0]} locations "
          f"from {sum(o.m for o in obs)} observations")
    return 0


def _cmd_cv(args) -> int:
    model, obs = _model_inputs(args)
    network = model.network
    loo = loo_cv(model, obs)
    out = _out_dir(args)
    values = np.array([f.location + (f.observed, f.mean, f.stderr, f.error,
                                     f.crps) for f in loo.folds])
    _write_table(out / "folds.csv",
                 ["variable", *_COORD_NAMES[:model.grid.dim],
                  "observed", "mean", "stderr", "error", "crps"],
                 [[network.names[f.variable] for f in loo.folds], *values.T])
    # a list, not a dict: a node may be named "all"
    rows = [*loo.summary.items(), ("all", summarize_folds(
        [f.error for f in loo.folds], [f.crps for f in loo.folds]))]
    keys = ["MAE", "RMSPE", "MCRPS"]
    _write_table(out / "cv.csv", ["variable"] + keys, [[name for name, _ in rows]]
                 + [[s[key] for _, s in rows] for key in keys])
    for name, s in loo.summary.items():
        print(f"{name}: MAE {s['MAE']:.4f}, RMSPE {s['RMSPE']:.4f}, "
              f"MCRPS {s['MCRPS']:.4f}")
    return 0


def _cmd_spectral_check(args) -> int:
    cfg = parse_config(args.config)
    if cfg.spectral is None:
        raise ConfigError(f"{args.config}: spectral-check needs a "
                          f"'spectral' section")
    sp = cfg.spectral
    report = check_cross_validity(sp.c11, sp.c22, sp.candidate,
                                  wmax=sp.wmax, nsamples=sp.nsamples)
    out = _out_dir(args)
    _write_table(out / "spectral.csv", ["w", "envelope", "candidate", "margin"],
                 [report.w, report.envelope, report.candidate, report.margin])
    _write_table(out / "spectral_summary.csv", ["key", "value"],
                 [["worst_margin", "integrable", "valid"],
                  [report.worst_margin, report.integrable, report.valid]])
    verdict = "valid" if report.valid else "NOT valid"
    print(f"worst relative margin {report.worst_margin:.6g}: "
          f"candidate is {verdict}")
    return 0


def _cmd_compare_directions(args) -> int:
    cfg, network, obs, settings, optimizer = _fit_inputs(args)
    fits = compare_directions(
        cfg.grid, network, obs,
        free=settings.free, config=optimizer, jitter_max=args.jitter_max,
    )
    out = _out_dir(args)
    fields = ["label", "k", "loglik", "aic", "converged", "delta_aic", "tie"]
    _write_table(out / "directions.csv", ["rank"] + fields,
                 [range(1, len(fits) + 1)]
                 + [[getattr(f, name) for f in fits] for name in fields])
    for rank, f in enumerate(fits):
        print(f"{rank + 1}. {f.label}: aic {f.aic:.4f} "
              f"(loglik {f.loglik:.4f}, k={f.k})" + (" tie" if f.tie else ""))
    return 0


# ------------------------------------------------------------- entry point


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; route them through the
    # package's validation path (exit 1) instead
    def error(self, message):
        raise ConfigError(message)


def _jitter_max(text: str) -> float:
    try:
        return check_jitter_max(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="condcov",
                     description="multivariate spatial covariance models "
                                 "by conditioning")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, data=False, params=False, seed=False):
        sp.add_argument("--config", required=True, help="YAML config file")
        sp.add_argument("--out", default=".", help="output directory")
        if data:
            sp.add_argument("--data", required=True,
                            help="observations CSV (variable,x[,y,z],value)")
            # the commands that read data factor covariances with jitter
            sp.add_argument("--jitter-max", type=_jitter_max,
                            default=DEFAULT_JITTER_MAX, dest="jitter_max",
                            help="relative Cholesky jitter ceiling")
        if params:
            sp.add_argument("--params",
                            help="parameter file from a previous fit")
        if seed:
            sp.add_argument("--seed", type=int, default=None,
                            help="override the config seed")

    sp = sub.add_parser("simulate", help="run the replicated prediction study")
    common(sp, seed=True)
    sp.add_argument("--replicates", type=int, default=None,
                    help="override the config replicate count")
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("fit", help="maximum-likelihood parameter estimation")
    common(sp, data=True, params=True, seed=True)
    sp.set_defaults(func=_cmd_fit)

    sp = sub.add_parser("predict", help="cokrige one variable from the data")
    common(sp, data=True, params=True)
    sp.add_argument("--target-var", dest="target_var", default=None,
                    help="variable to predict (name or 1-based index)")
    sp.add_argument("--targets",
                    help="CSV of prediction locations (default: grid vertices)")
    sp.set_defaults(func=_cmd_predict)

    sp = sub.add_parser("cv", help="leave-one-location-out cross validation")
    common(sp, data=True, params=True)
    sp.set_defaults(func=_cmd_cv)

    sp = sub.add_parser("spectral-check",
                        help="validity scan of a cross-spectral candidate")
    common(sp)
    sp.set_defaults(func=_cmd_spectral_check)

    sp = sub.add_parser("compare-directions",
                        help="fit both conditioning orders, rank by AIC")
    common(sp, data=True, params=True, seed=True)
    sp.set_defaults(func=_cmd_compare_directions)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ValidationError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (InvalidModelError, NumericalError, OptimizationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def cli_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    cli_entry()
