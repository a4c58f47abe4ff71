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
      label: model
      free: [y1.variance]        # default: every parameter except *.noise
      restarts: 3
      max_evals: 2000
      seed: 0
    simulation:                  # used by simulate
      replicates: 50
      seed: 0
      target: y1
      observed:                  # per node: all | none | {min: [..], max: [..]}
        y1: {min: [0.0], max: [1.0]}
      evaluate: unobserved       # all | unobserved | {min: [..], max: [..]}
      refit:                     # optional misspecified-refit arm
        free: [y2~y1.amplitude, y2~y1.aperture]
        edges:
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
may be a path or inline ``{s: [...], v: [...], values: [[...]]}``.

All numeric CSV output is written with 17 significant digits, so re-running a
command with the same config, data and seed reproduces the files byte for
byte.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import sys
from dataclasses import dataclass, field
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
    _variable_index,
    EUCLIDEAN,
    FLOAT_FMT,
    Grid,
    Metric,
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
    read_params,
    set_parameter,
    write_fit_result,
)
from .kernels import (
    InteractionKind,
    InteractionSpec,
    MaternParams,
    bisquare,
    dirac,
    load_tabulated,
    shifted_bisquare,
    tabulated,
    zero,
)
from .linalg import DEFAULT_JITTER_MAX
from .predict import cokrige, loo_cv, summarize_folds
from .sim import SimStudyConfig, run_sim_study, simulate_replicate
from .spectral import check_cross_validity

__all__ = [
    "FitSettings",
    "Region",
    "SimulationSettings",
    "SpectralSettings",
    "ParsedConfig",
    "parse_config",
    "parse_config_dict",
    "config_to_dict",
    "build_sim_config",
    "main",
    "cli_entry",
]

_MISSING = object()


class _Section:
    """Mapping wrapper that tracks consumed keys and rejects leftovers."""

    def __init__(self, data, where: str):
        if not isinstance(data, dict):
            raise ConfigError(
                f"{where}: expected a mapping, got {type(data).__name__}"
            )
        self.data = data
        self.where = where
        self.known = set()

    def take(self, key: str, default=_MISSING):
        self.known.add(key)
        if key in self.data:
            return self.data[key]
        if default is _MISSING:
            raise ConfigError(f"{self.where}: missing required key {key!r}")
        return default

    def finish(self):
        unknown = sorted(set(self.data) - self.known)
        if unknown:
            raise ConfigError(
                f"{self.where}: unknown keys {unknown}; "
                f"expected among {sorted(self.known)}"
            )


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    return float(value)


def _integer(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    return value


def _string(value, where: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{where}: expected a string, got {value!r}")
    return value


def _listing(value, where: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{where}: expected a list, got {value!r}")
    return value


def _numbers(value, where: str) -> Tuple[float, ...]:
    return tuple(_number(v, where) for v in _listing(value, where))


def _resolve(base_dir: Path, relpath: str) -> Path:
    path = Path(relpath)
    return path if path.is_absolute() else base_dir / path


# ---------------------------------------------------------------- settings


@dataclass(frozen=True)
class FitSettings:
    label: str = "model"
    free: Optional[Tuple[str, ...]] = None
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)


@dataclass(frozen=True)
class Region:
    """Vertex selector: everything, nothing, a box, or the unobserved rest."""

    kind: str
    lo: Optional[Tuple[float, ...]] = None
    hi: Optional[Tuple[float, ...]] = None

    def mask(self, grid: Grid, observed_target=None) -> np.ndarray:
        if self.kind == "all":
            return np.ones(grid.n, dtype=bool)
        if self.kind == "none":
            return np.zeros(grid.n, dtype=bool)
        if self.kind == "unobserved":
            return ~np.asarray(observed_target, dtype=bool)
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        if lo.size != grid.dim or hi.size != grid.dim:
            raise ConfigError(
                f"region box has {lo.size}/{hi.size} coordinates, "
                f"grid is {grid.dim}-d"
            )
        inside = (grid.vertices >= lo) & (grid.vertices <= hi)
        return np.all(inside, axis=1)


@dataclass(frozen=True)
class SimulationSettings:
    replicates: int
    seed: int
    target: str
    observed: Tuple[Tuple[str, Region], ...]
    evaluate: Region
    refit_free: Tuple[str, ...] = ()
    refit_edges: Tuple[tuple, ...] = ()


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
    simulation: Optional[SimulationSettings] = None
    spectral: Optional[SpectralSettings] = None


# ---------------------------------------------------------------- parsing


def _parse_metric(value, where: str) -> Metric:
    if value == "euclidean":
        return EUCLIDEAN
    sec = _Section(value, where)
    kind = _string(sec.take("kind"), f"{where}: kind")
    if kind == "euclidean":
        sec.finish()
        return EUCLIDEAN
    if kind == "chordal":
        radius = _number(sec.take("radius"), f"{where}: radius")
        sec.finish()
        return chordal(radius)
    raise ConfigError(
        f"{where}: unknown metric kind {kind!r}; "
        f"expected one of ['chordal', 'euclidean']"
    )


def _parse_grid(value, base_dir: Path, where: str) -> Grid:
    sec = _Section(value, where)
    kind = _string(sec.take("kind"), f"{where}: kind")
    metric = _parse_metric(sec.take("metric", "euclidean"), f"{where}: metric")
    if kind == "regular":
        bounds = [
            _numbers(b, f"{where}: bounds")
            for b in _listing(sec.take("bounds"), f"{where}: bounds")
        ]
        counts = [
            _integer(c, f"{where}: counts")
            for c in _listing(sec.take("counts"), f"{where}: counts")
        ]
        sec.finish()
        for b in bounds:
            if len(b) != 2:
                raise ConfigError(f"{where}: each bounds entry must be [lo, hi]")
        return regular_grid(bounds, counts, metric)
    if kind == "mesh":
        if "path" in sec.data:
            path = _resolve(base_dir, _string(sec.take("path"), f"{where}: path"))
            sec.finish()
            if not path.exists():
                raise ConfigError(f"{where}: mesh file {path} does not exist")
            return load_mesh(path, metric)
        vertices = [
            _numbers(v, f"{where}: vertices")
            for v in _listing(sec.take("vertices"), f"{where}: vertices")
        ]
        weights = _numbers(sec.take("weights"), f"{where}: weights")
        sec.finish()
        return Grid(np.array(vertices, dtype=float), np.array(weights), metric)
    raise ConfigError(
        f"{where}: unknown grid kind {kind!r}; "
        f"expected one of ['mesh', 'regular']"
    )


_INTERACTION_KINDS = sorted(k.value for k in InteractionKind)


def _parse_table(value, base_dir: Path, where: str) -> InteractionSpec:
    if isinstance(value, str):
        path = _resolve(base_dir, value)
        if not path.exists():
            raise ConfigError(f"{where}: table file {path} does not exist")
        return load_tabulated(path)
    sec = _Section(value, where)
    s_axis = _numbers(sec.take("s"), f"{where}: s")
    v_axis = _numbers(sec.take("v"), f"{where}: v")
    values = [
        _numbers(row, f"{where}: values")
        for row in _listing(sec.take("values"), f"{where}: values")
    ]
    sec.finish()
    return tabulated(np.array(s_axis), np.array(v_axis), np.array(values))


def _parse_interaction(sec: _Section, base_dir: Path) -> InteractionSpec:
    where = sec.where
    kind = _string(sec.take("kind"), f"{where}: kind")
    if kind == "zero":
        return zero()
    if kind == "dirac":
        return dirac(_number(sec.take("amplitude"), f"{where}: amplitude"))
    if kind == "bisquare":
        return bisquare(
            _number(sec.take("amplitude"), f"{where}: amplitude"),
            _number(sec.take("aperture"), f"{where}: aperture"),
        )
    if kind == "shifted_bisquare":
        return shifted_bisquare(
            _number(sec.take("amplitude"), f"{where}: amplitude"),
            _number(sec.take("aperture"), f"{where}: aperture"),
            _numbers(sec.take("shift"), f"{where}: shift"),
        )
    if kind == "tabulated":
        return _parse_table(sec.take("table"), base_dir, f"{where}: table")
    raise ConfigError(
        f"{where}: unknown interaction kind {kind!r}; "
        f"expected one of {_INTERACTION_KINDS}"
    )


def _take_matern(sec: _Section) -> MaternParams:
    return MaternParams(*(
        _number(sec.take(key), f"{sec.where}: {key}")
        for key in ("variance", "scale", "smoothness")
    ))


def _find_cycle(pending: list, parents: dict, placed: set) -> list:
    node = pending[0]
    path = [node]
    seen = {node: 0}
    while True:
        node = next(p for p in parents[node] if p not in placed)
        if node in seen:
            return path[seen[node]:] + [node]
        seen[node] = len(path)
        path.append(node)


def _parse_nodes(value, base_dir: Path, where: str) -> ProcessNetwork:
    raw = _listing(value, where)
    if not raw:
        raise ConfigError(f"{where}: at least one node is required")
    entries = {}
    order = []
    for i, item in enumerate(raw):
        sec = _Section(item, f"{where}[{i}]")
        name = _string(sec.take("name"), f"{sec.where}: name")
        if name in entries:
            raise ConfigError(f"{where}: duplicate node name {name!r}")
        cov = _take_matern(sec)
        nugget = _number(sec.take("nugget", 0.0), f"{sec.where}: nugget")
        noise = _number(sec.take("noise", 0.0), f"{sec.where}: noise")
        mean = None
        if sec.take("mean", None) is not None:
            msec = _Section(sec.data["mean"], f"{sec.where}: mean")
            mean = MeanSpec(
                tuple(
                    _string(c, f"{msec.where}: covariates")
                    for c in _listing(msec.take("covariates"), msec.where)
                ),
                _numbers(msec.take("coefficients"), f"{msec.where}: coefficients"),
            )
            msec.finish()
        parent_specs = []
        for j, edge in enumerate(_listing(sec.take("parents", []), f"{sec.where}: parents")):
            esec = _Section(edge, f"{sec.where}: parents[{j}]")
            pname = _string(esec.take("node"), f"{esec.where}: node")
            spec = _parse_interaction(esec, base_dir)
            esec.finish()
            parent_specs.append((pname, spec))
        sec.finish()
        entries[name] = (cov, nugget, noise, mean, parent_specs)
        order.append(name)
    parents = {name: [p for p, _ in entries[name][4]] for name in order}
    for name in order:
        for p in parents[name]:
            if p not in entries:
                raise ConfigError(
                    f"{where}: node {name!r} references unknown parent {p!r}; "
                    f"declared nodes: {order}"
                )
    # topological order, stable in declaration order
    placed, placed_set = [], set()
    pending = list(order)
    while pending:
        rest = []
        for name in pending:
            if all(p in placed_set for p in parents[name]):
                placed.append(name)
                placed_set.add(name)
            else:
                rest.append(name)
        if len(rest) == len(pending):
            cycle = _find_cycle(rest, parents, placed_set)
            raise ConfigError(
                f"{where}: network not acyclic: {' -> '.join(cycle)}"
            )
        pending = rest
    index = {name: q for q, name in enumerate(placed)}
    nodes = []
    for name in placed:
        cov, nugget, noise, mean, parent_specs = entries[name]
        edges = tuple((index[p], spec) for p, spec in parent_specs)
        nodes.append(
            ProcessNode(name, cov, parents=edges, mean=mean,
                        nugget=nugget, noise=noise)
        )
    return ProcessNetwork(tuple(nodes))


def _parse_fit(value, where: str) -> FitSettings:
    sec = _Section(value, where)
    label = _string(sec.take("label", FitSettings.label), f"{where}: label")
    free = sec.take("free", None)
    if free is not None:
        free = tuple(_string(f, f"{where}: free") for f in _listing(free, f"{where}: free"))
    optimizer = OptimizerConfig(**{
        key: _integer(sec.take(key, getattr(OptimizerConfig, key)),
                      f"{where}: {key}")
        for key in ("seed", "restarts", "max_evals")
    })
    sec.finish()
    return FitSettings(label=label, free=free, optimizer=optimizer)


def _parse_region(value, where: str) -> Region:
    if isinstance(value, str):
        if value in ("all", "none", "unobserved"):
            return Region(value)
        raise ConfigError(
            f"{where}: unknown region {value!r}; expected 'all', 'none', "
            f"'unobserved' or a box {{min: [..], max: [..]}}"
        )
    sec = _Section(value, where)
    lo = _numbers(sec.take("min"), f"{where}: min")
    hi = _numbers(sec.take("max"), f"{where}: max")
    sec.finish()
    if len(lo) != len(hi):
        raise ConfigError(f"{where}: min and max must have the same length")
    return Region("box", lo=lo, hi=hi)


def _parse_simulation(value, network: ProcessNetwork, base_dir: Path,
                      where: str) -> SimulationSettings:
    sec = _Section(value, where)
    replicates = _integer(sec.take("replicates", 50), f"{where}: replicates")
    seed = _integer(sec.take("seed", 0), f"{where}: seed")
    target = _string(sec.take("target", network.names[0]), f"{where}: target")
    network.index(target)  # validates
    observed_raw = sec.take("observed", {})
    if not isinstance(observed_raw, dict):
        raise ConfigError(f"{where}: observed must map node names to regions")
    for name in observed_raw:
        if name not in network.names:
            raise ConfigError(
                f"{where}: observed references unknown node {name!r}; "
                f"nodes: {list(network.names)}"
            )
        if observed_raw[name] == "unobserved":
            raise ConfigError(f"{where}: observed: {name}: 'unobserved' is "
                              f"valid only for evaluate")
    observed = tuple(
        (name, _parse_region(observed_raw.get(name, "all"),
                             f"{where}: observed: {name}"))
        for name in network.names
    )
    evaluate = _parse_region(sec.take("evaluate", "unobserved"),
                             f"{where}: evaluate")
    refit_free: Tuple[str, ...] = ()
    refit_edges: Tuple[tuple, ...] = ()
    refit_raw = sec.take("refit", None)
    if refit_raw is not None:
        rsec = _Section(refit_raw, f"{where}: refit")
        refit_free = tuple(
            _string(f, f"{rsec.where}: free")
            for f in _listing(rsec.take("free"), f"{rsec.where}: free")
        )
        edges = []
        for j, edge in enumerate(_listing(rsec.take("edges", []), f"{rsec.where}: edges")):
            esec = _Section(edge, f"{rsec.where}: edges[{j}]")
            child = _string(esec.take("node"), f"{esec.where}: node")
            parent = _string(esec.take("parent"), f"{esec.where}: parent")
            network.index(child)
            network.index(parent)
            spec = _parse_interaction(esec, base_dir)
            esec.finish()
            edges.append((child, parent, spec))
        rsec.finish()
        refit_edges = tuple(edges)
    sec.finish()
    return SimulationSettings(
        replicates=replicates,
        seed=seed,
        target=target,
        observed=observed,
        evaluate=evaluate,
        refit_free=refit_free,
        refit_edges=refit_edges,
    )


def _parse_matern(value, where: str) -> MaternParams:
    sec = _Section(value, where)
    params = _take_matern(sec)
    sec.finish()
    return params


def _load_candidate_table(path: Path) -> Tuple[Tuple[float, float], ...]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        cols = [c.strip() for c in reader.fieldnames or []]
        if cols != ["w", "value"]:
            raise ConfigError(f"{path}: expected header 'w,value', got {cols}")
        try:
            rows = tuple(
                (float(r["w"]), float(r["value"])) for r in reader
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: non-numeric row in candidate table") from exc
    if len(rows) < 2:
        raise ConfigError(f"{path}: candidate table needs at least 2 rows")
    return rows


def _parse_spectral(value, base_dir: Path, where: str) -> SpectralSettings:
    sec = _Section(value, where)
    c11 = _parse_matern(sec.take("c11"), f"{where}: c11")
    c22 = _parse_matern(sec.take("c22"), f"{where}: c22")
    cand_raw = sec.take("candidate")
    if not isinstance(cand_raw, dict):
        raise ConfigError(f"{where}: candidate must be a mapping")
    if "table" in cand_raw:
        csec = _Section(cand_raw, f"{where}: candidate")
        table = csec.take("table")
        csec.finish()
        if isinstance(table, str):
            path = _resolve(base_dir, table)
            if not path.exists():
                raise ConfigError(f"{where}: candidate table {path} does not exist")
            candidate = _load_candidate_table(path)
        else:
            candidate = tuple(
                tuple(_numbers(row, f"{where}: candidate table"))
                for row in _listing(table, f"{where}: candidate table")
            )
            for row in candidate:
                if len(row) != 2:
                    raise ConfigError(
                        f"{where}: candidate table rows must be [w, value]"
                    )
    else:
        candidate = _parse_matern(cand_raw, f"{where}: candidate")
    wmax = sec.take("wmax", None)
    if wmax is not None:
        wmax = _number(wmax, f"{where}: wmax")
    nsamples = _integer(sec.take("nsamples", 4096), f"{where}: nsamples")
    sec.finish()
    return SpectralSettings(c11=c11, c22=c22, candidate=candidate,
                            wmax=wmax, nsamples=nsamples)


def parse_config_dict(data, base_dir, where: str = "config") -> ParsedConfig:
    """Validate a config mapping; see the module docstring for the layout."""
    base_dir = Path(base_dir)
    sec = _Section(data, where)
    grid = _parse_grid(sec.take("grid"), base_dir, f"{where}: grid")
    network = _parse_nodes(sec.take("nodes"), base_dir, f"{where}: nodes")
    fit = sim = spectral = None
    if sec.take("fit", None) is not None:
        fit = _parse_fit(sec.data["fit"], f"{where}: fit")
    if sec.take("simulation", None) is not None:
        sim = _parse_simulation(sec.data["simulation"], network, base_dir,
                                f"{where}: simulation")
    if sec.take("spectral", None) is not None:
        spectral = _parse_spectral(sec.data["spectral"], base_dir,
                                   f"{where}: spectral")
    sec.finish()
    try:
        _check_network_on_grid(grid, network)
    except ValidationError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    return ParsedConfig(grid=grid, network=network, fit=fit,
                        simulation=sim, spectral=spectral)


def parse_config(path) -> ParsedConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    try:
        data = yaml.safe_load(path.read_text())
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
    return parse_config_dict(data, path.parent, where=str(path))


# ------------------------------------------------------------- round trip


def _metric_dict(metric: Metric) -> dict:
    if metric.kind == "euclidean":
        return {"kind": "euclidean"}
    return {"kind": metric.kind, "radius": metric.radius}


def _grid_dict(grid: Grid) -> dict:
    return {
        "kind": "mesh",
        "vertices": [[float(c) for c in v] for v in grid.vertices],
        "weights": [float(w) for w in grid.weights],
        "metric": _metric_dict(grid.metric),
    }


def _interaction_dict(spec: InteractionSpec) -> dict:
    out = {"kind": spec.kind.value}
    if spec.kind is InteractionKind.DIRAC:
        out["amplitude"] = spec.amplitude
    elif spec.kind in (InteractionKind.BISQUARE, InteractionKind.SHIFTED_BISQUARE):
        out["amplitude"] = spec.amplitude
        out["aperture"] = spec.aperture
        if spec.kind is InteractionKind.SHIFTED_BISQUARE:
            out["shift"] = list(spec.shift)
    elif spec.kind is InteractionKind.TABULATED:
        out["table"] = {
            "s": [float(v) for v in spec.table.s_axis],
            "v": [float(v) for v in spec.table.v_axis],
            "values": [[float(v) for v in row] for row in spec.table.values],
        }
    return out


def _region_dict(region: Region):
    if region.kind == "box":
        return {"min": list(region.lo), "max": list(region.hi)}
    return region.kind


def config_to_dict(cfg: ParsedConfig) -> dict:
    """Emit a mapping that parse_config_dict reads back to an equal config."""
    nodes = []
    for node in cfg.network.nodes:
        d = {"name": node.name, **dataclasses.asdict(node.covariance)}
        if node.nugget:
            d["nugget"] = node.nugget
        if node.noise:
            d["noise"] = node.noise
        if node.mean is not None:
            d["mean"] = {
                "covariates": list(node.mean.covariates),
                "coefficients": list(node.mean.coefficients),
            }
        if node.parents:
            d["parents"] = [
                {"node": cfg.network.names[idx], **_interaction_dict(spec)}
                for idx, spec in node.parents
            ]
        nodes.append(d)
    out = {"grid": _grid_dict(cfg.grid), "nodes": nodes}
    if cfg.fit is not None:
        out["fit"] = {
            "label": cfg.fit.label,
            "seed": cfg.fit.optimizer.seed,
            "restarts": cfg.fit.optimizer.restarts,
            "max_evals": cfg.fit.optimizer.max_evals,
        }
        if cfg.fit.free is not None:
            out["fit"]["free"] = list(cfg.fit.free)
    if cfg.simulation is not None:
        sim = cfg.simulation
        out["simulation"] = {
            "replicates": sim.replicates,
            "seed": sim.seed,
            "target": sim.target,
            "observed": {name: _region_dict(r) for name, r in sim.observed},
            "evaluate": _region_dict(sim.evaluate),
        }
        if sim.refit_free:
            refit = {"free": list(sim.refit_free)}
            if sim.refit_edges:
                refit["edges"] = [
                    {"node": child, "parent": parent, **_interaction_dict(spec)}
                    for child, parent, spec in sim.refit_edges
                ]
            out["simulation"]["refit"] = refit
    if cfg.spectral is not None:
        sp = cfg.spectral
        if isinstance(sp.candidate, MaternParams):
            cand = dataclasses.asdict(sp.candidate)
        else:
            cand = {"table": [list(row) for row in sp.candidate]}
        out["spectral"] = {
            "c11": dataclasses.asdict(sp.c11),
            "c22": dataclasses.asdict(sp.c22),
            "candidate": cand,
            "nsamples": sp.nsamples,
        }
        if sp.wmax is not None:
            out["spectral"]["wmax"] = sp.wmax
    return out


# ------------------------------------------------------------- commands


def build_sim_config(cfg: ParsedConfig, replicates: Optional[int] = None,
                     seed: Optional[int] = None) -> SimStudyConfig:
    """Turn the parsed simulation section into a runnable study config."""
    if cfg.simulation is None:
        raise ConfigError("config has no 'simulation' section")
    sim = cfg.simulation
    network = cfg.network
    target = network.index(sim.target)
    masks = []
    region_of = dict(sim.observed)
    for name in network.names:
        masks.append(region_of.get(name, Region("all")).mask(cfg.grid))
    eval_mask = sim.evaluate.mask(cfg.grid, observed_target=masks[target])
    refit_network = None
    if sim.refit_free:
        refit_network = network
        for child, parent, spec in sim.refit_edges:
            q = network.index(child)
            a = network.index(parent)
            node = refit_network.nodes[q]
            edges = [e for e in node.parents if e[0] != a] + [(a, spec)]
            edges.sort(key=lambda e: e[0])
            nodes = list(refit_network.nodes)
            nodes[q] = dataclasses.replace(node, parents=tuple(edges))
            refit_network = ProcessNetwork(tuple(nodes))
    optimizer = cfg.fit.optimizer if cfg.fit is not None else OptimizerConfig()
    return SimStudyConfig(
        grid=cfg.grid,
        network=network,
        observed=tuple(masks),
        eval_mask=eval_mask,
        target=target,
        replicates=replicates if replicates is not None else sim.replicates,
        seed=seed if seed is not None else sim.seed,
        refit_network=refit_network,
        refit_free=sim.refit_free,
        optimizer=optimizer,
    )


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return FLOAT_FMT % float(value)
    return str(value)


def _write_csv(path: Path, header: Sequence[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


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
    path = Path(args.data)
    if not path.exists():
        raise ConfigError(f"data file {path} does not exist")
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
    study = build_sim_config(cfg, replicates=args.replicates, seed=args.seed)
    result = run_sim_study(study)
    first = simulate_replicate(study, 0)
    out = _out_dir(args)
    names = cfg.network.names
    grid = cfg.grid
    coords = list(_COORD_NAMES[:grid.dim])

    rows = [
        list(grid.vertices[i]) + [first.fields[q][i] for q in range(len(names))]
        for i in range(grid.n)
    ]
    _write_csv(out / "fields.csv", coords + list(names), rows)

    arms = list(first.predictions)
    header = coords + ["truth"]
    for arm in arms:
        header += [f"{arm}_mean", f"{arm}_stderr"]
    tv = grid.vertices[study.eval_mask]
    y_true = first.fields[study.target][study.eval_mask]
    rows = []
    for i in range(tv.shape[0]):
        row = list(tv[i]) + [y_true[i]]
        for arm in arms:
            pred = first.predictions[arm]
            row += [pred.mean[i], pred.stderr[i]]
        rows.append(row)
    _write_csv(out / "predictors.csv", header, rows)

    est_names = list(study.refit_free) if study.refit_network is not None else []
    header = ["replicate"] + [f"rmse_{arm}" for arm in arms] + est_names
    rows = [
        [s.replicate] + [s.rmse[arm] for arm in arms]
        + [s.estimates[nm] for nm in est_names]
        for s in result.scores
    ]
    _write_csv(out / "replicates.csv", header, rows)

    rows = [["replicates", result.summary["replicates"]]]
    for arm in arms:
        rows.append([f"mean_rmse_{arm}", result.summary["mean_rmse"][arm]])
    for key in ("cokriging_wins_vs_kriging", "cokriging_wins_vs_refit"):
        if key in result.summary:
            rows.append([key, result.summary[key]])
    _write_csv(out / "summary.csv", ["key", "value"], rows)

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
    _write_csv(
        out / "fit.csv",
        ["label", "k", "loglik", "aic", "converged"],
        [[fit.label, fit.k, fit.loglik, fit.aic, fit.converged]],
    )
    note = "" if fit.converged else " (not converged)"
    print(f"{fit.label}: loglik {fit.loglik:.4f}, k={fit.k}, "
          f"aic {fit.aic:.4f}{note}")
    return 0


def _load_locations(path: Path, dim: int) -> np.ndarray:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        cols = [c.strip() for c in reader.fieldnames or []]
        if cols != list(_COORD_NAMES[:dim]):
            raise ConfigError(
                f"{path}: expected header {','.join(_COORD_NAMES[:dim])!r}, "
                f"got {cols}"
            )
        try:
            rows = [[float(row[c]) for c in cols] for row in reader]
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: non-numeric coordinate row") from exc
    if not rows:
        raise ConfigError(f"{path}: no target locations")
    return np.array(rows)


def _cmd_predict(args) -> int:
    model, obs = _model_inputs(args)
    grid, network = model.grid, model.network
    if args.targets:
        tpath = Path(args.targets)
        if not tpath.exists():
            raise ConfigError(f"targets file {tpath} does not exist")
        targets = _load_locations(tpath, grid.dim)
    else:
        targets = grid.vertices
    try:
        tq = _variable_index(args.target_var or network.names[0], network.names)
    except ValidationError as exc:
        raise ConfigError(f"--target-var: {exc}") from None
    pred = cokrige(model, obs, targets, tq)
    out = _out_dir(args)
    rows = [
        list(targets[i]) + [pred.mean[i], pred.stderr[i]]
        for i in range(targets.shape[0])
    ]
    _write_csv(out / "predictions.csv",
               list(_COORD_NAMES[:grid.dim]) + ["mean", "stderr"], rows)
    print(f"predicted {network.names[tq]} at {targets.shape[0]} locations "
          f"from {sum(o.m for o in obs)} observations")
    return 0


def _cmd_cv(args) -> int:
    model, obs = _model_inputs(args)
    network = model.network
    loo = loo_cv(model, obs)
    out = _out_dir(args)
    dim = model.grid.dim
    rows = [
        [network.names[f.variable]] + list(f.location)
        + [f.observed, f.mean, f.stderr, f.error, f.crps]
        for f in loo.folds
    ]
    _write_csv(
        out / "folds.csv",
        ["variable"] + list(_COORD_NAMES[:dim])
        + ["observed", "mean", "stderr", "error", "crps"],
        rows,
    )
    rows = [
        [name, s["MAE"], s["RMSPE"], s["MCRPS"]]
        for name, s in loo.summary.items()
    ]
    pooled = summarize_folds([f.error for f in loo.folds],
                             [f.crps for f in loo.folds])
    rows.append(["all", pooled["MAE"], pooled["RMSPE"], pooled["MCRPS"]])
    _write_csv(out / "cv.csv", ["variable", "MAE", "RMSPE", "MCRPS"], rows)
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
    candidate = sp.candidate
    if not isinstance(candidate, MaternParams):
        candidate = np.array(candidate, dtype=float)
    report = check_cross_validity(sp.c11, sp.c22, candidate,
                                  wmax=sp.wmax, nsamples=sp.nsamples)
    out = _out_dir(args)
    rows = [
        [report.w[i], report.envelope[i], report.candidate[i], report.margin[i]]
        for i in range(report.w.size)
    ]
    _write_csv(out / "spectral.csv",
               ["w", "envelope", "candidate", "margin"], rows)
    _write_csv(
        out / "spectral_summary.csv",
        ["key", "value"],
        [
            ["worst_margin", report.worst_margin],
            ["integrable", report.integrable],
            ["valid", report.valid],
        ],
    )
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
    rows = [
        [rank + 1, f.label, f.k, f.loglik, f.aic, f.converged]
        for rank, f in enumerate(fits)
    ]
    _write_csv(out / "directions.csv",
               ["rank", "label", "k", "loglik", "aic", "converged"], rows)
    for rank, f in enumerate(fits):
        print(f"{rank + 1}. {f.label}: aic {f.aic:.4f} "
              f"(loglik {f.loglik:.4f}, k={f.k})")
    return 0


# ------------------------------------------------------------- entry point


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; route them through the
    # package's validation path (exit 1) instead
    def error(self, message):
        raise ConfigError(message)


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
            sp.add_argument("--jitter-max", type=float,
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
