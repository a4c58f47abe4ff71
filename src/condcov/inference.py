"""Gaussian likelihood, maximum-likelihood fitting and direction selection.

Parameters are addressed by name: ``node.field`` for node parameters
(variance, scale, smoothness, nugget, noise) and ``child~parent.field`` for
interaction parameters (amplitude, aperture, shift1..shiftD). Fitting runs a
seeded multi-start Nelder-Mead simplex on transformed coordinates: log for
positive parameters, identity for amplitudes and shifts, with smoothness
clamped to [0.05, 5]. A covariance that fails Cholesky under the jitter
policy scores -inf, which the simplex treats as a soft rejection.
"""

from __future__ import annotations

import dataclasses
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Tuple

import numpy as np

from .conditional import (
    CovarianceEvaluator,
    ProcessNetwork,
    _check_network_on_grid,
    _Geometry,
    kept_observations,
    observation_covariance,
)
from .domain import Grid, Observations, _one_line, _rewrite
from .errors import (
    CondcovError,
    InsufficientDataError,
    NumericalError,
    OptimizationError,
    ValidationError,
)
from .kernels import InteractionKind, InteractionSpec
from .linalg import (
    DEFAULT_JITTER_MAX,
    check_jitter_max,
    chol_logdet,
    chol_solve,
    chol_with_jitter,
)
from .rng import rng_from_seed

logger = logging.getLogger(__name__)

__all__ = [
    "list_parameters",
    "default_free_parameters",
    "get_parameter",
    "set_parameter",
    "loglik",
    "OptimizerConfig",
    "FitResult",
    "RankedFit",
    "fit_mle",
    "reverse_bivariate",
    "compare_directions",
    "write_fit_result",
    "read_params",
]

_NODE_FIELDS = ("variance", "scale", "smoothness", "nugget", "noise")
_LOG_FIELDS = frozenset({"variance", "scale", "smoothness", "nugget", "noise", "aperture"})
_LOG_FLOOR = 1e-10
_NU_RANGE = (0.05, 5.0)
# Nelder-Mead tolerances on transformed coordinates and on -loglik, and the
# relative spread of the perturbed starting points of later restarts
_XATOL = 1e-6
_FATOL = 1e-8
_PERTURBATION = 0.3
# AIC differences within this cannot be told apart (see compare_directions)
_AIC_TIE = 4.0 * _FATOL

_EDGE_FIELDS = {
    InteractionKind.ZERO: (),
    InteractionKind.DIRAC: ("amplitude",),
    InteractionKind.BISQUARE: ("amplitude", "aperture"),
    InteractionKind.SHIFTED_BISQUARE: ("amplitude", "aperture"),
    InteractionKind.TABULATED: (),
}


def _edge_fields(spec: InteractionSpec) -> Tuple[str, ...]:
    fields = _EDGE_FIELDS[spec.kind]
    if spec.kind is InteractionKind.SHIFTED_BISQUARE:
        fields = fields + tuple(f"shift{i + 1}" for i in range(len(spec.shift)))
    return fields


def list_parameters(network: ProcessNetwork) -> list:
    """All addressable parameter names, in a stable order."""
    names = []
    for node in network.nodes:
        for field in _NODE_FIELDS:
            names.append(f"{node.name}.{field}")
    for q, node in enumerate(network.nodes):
        for idx, spec in node.parents:
            prefix = f"{node.name}~{network.nodes[idx].name}"
            for field in _edge_fields(spec):
                names.append(f"{prefix}.{field}")
    return names


def default_free_parameters(network: ProcessNetwork) -> list:
    """Everything except measurement-error variances, which are data config."""
    return [n for n in list_parameters(network) if not n.endswith(".noise")]


def _locate(network: ProcessNetwork, name: str):
    head, _, field = name.rpartition(".")
    if not head or not field:
        raise ValidationError(f"malformed parameter name {name!r}")
    if "~" in head:
        child, parent = head.split("~", 1)
        q = network.index(child)
        a = network.index(parent)
        for pos, (idx, spec) in enumerate(network.nodes[q].parents):
            if idx == a:
                if field not in _edge_fields(spec):
                    raise ValidationError(
                        f"{name!r}: {spec.kind.value} interactions have no "
                        f"parameter {field!r}"
                    )
                return ("edge", q, pos, field)
        raise ValidationError(f"{name!r}: no edge {child!r} ~ {parent!r}")
    q = network.index(head)
    if field not in _NODE_FIELDS:
        raise ValidationError(
            f"{name!r}: node parameters are {list(_NODE_FIELDS)}"
        )
    return ("node", q, None, field)


def get_parameter(network: ProcessNetwork, name: str) -> float:
    kind, q, pos, field = _locate(network, name)
    node = network.nodes[q]
    if kind == "node":
        if field in ("nugget", "noise"):
            return float(getattr(node, field))
        return float(getattr(node.covariance, field))
    _, spec = node.parents[pos]
    if field.startswith("shift"):
        return float(spec.shift[int(field[5:]) - 1])
    return float(getattr(spec, field))


def set_parameter(network: ProcessNetwork, name: str, value: float) -> ProcessNetwork:
    """Return a copy of the network with one named parameter replaced."""
    return _substitute(network, [_locate(network, name)], [float(value)])


def _substitute(network: ProcessNetwork, located, values) -> ProcessNetwork:
    """The network with each parameter located by :func:`_locate` set to
    the float beside it, built once.

    Every changed MaternParams, InteractionSpec and ProcessNode is rebuilt
    with all of its new values at once, and the ProcessNetwork once, so
    each value passes the same dataclass checks as through
    :func:`set_parameter`, which raise the same kinds of error.
    """
    changes = {}  # node -> {"covariance" / "node" / edge position: fields}
    for (kind, q, pos, field), value in zip(located, values):
        part = pos if kind == "edge" else (
            "node" if field in ("nugget", "noise") else "covariance")
        changes.setdefault(q, {}).setdefault(part, {})[field] = value
    nodes = list(network.nodes)
    for q, parts in changes.items():
        node = nodes[q]
        fields = dict(parts.pop("node", {}))
        if "covariance" in parts:
            fields["covariance"] = dataclasses.replace(
                node.covariance, **parts.pop("covariance"))
        if parts:
            edges = list(node.parents)
            for pos, edge_fields in parts.items():
                idx, spec = edges[pos]
                shifts = {f: edge_fields.pop(f) for f in list(edge_fields)
                          if f.startswith("shift")}
                if shifts:
                    shift = list(spec.shift)
                    for field, value in shifts.items():
                        shift[int(field[5:]) - 1] = value
                    edge_fields["shift"] = tuple(shift)
                edges[pos] = (idx, dataclasses.replace(spec, **edge_fields))
            fields["parents"] = tuple(edges)
        nodes[q] = dataclasses.replace(node, **fields)
    return ProcessNetwork(tuple(nodes))


def loglik(
    grid: Grid,
    network: ProcessNetwork,
    obs: Sequence[Observations],
    jitter_max: float = DEFAULT_JITTER_MAX,
) -> float:
    """Gaussian log-likelihood of observations under the network.

    Covariances are evaluated at the observation locations themselves (the
    grid only supplies the integration rule). Returns -inf when the
    observation covariance cannot be factored under the jitter policy,
    non-finite entries included.
    """
    check_jitter_max(jitter_max)
    kept = kept_observations(grid, network, obs)
    if not kept:
        raise InsufficientDataError("log-likelihood needs at least one observation")
    _check_network_on_grid(grid, network)
    try:
        return _loglik(CovarianceEvaluator(grid, network), kept, jitter_max)[0]
    except NumericalError:
        logger.debug("loglik: covariance not factorable, returning -inf")
        return -np.inf


def _loglik(ev: CovarianceEvaluator, kept: Sequence[Observations],
            jitter_max: float) -> Tuple[float, float]:
    """(log-likelihood, jitter its Cholesky needed) of the validated, non-empty
    ``kept`` observations; NumericalError when the covariance cannot be
    factored under the jitter policy."""
    C, resid = observation_covariance(ev, kept)
    L, jitter = chol_with_jitter(C, jitter_max)
    quad = float(resid @ chol_solve(L, resid))
    value = -0.5 * (resid.size * math.log(2.0 * math.pi) + chol_logdet(L) + quad)
    return value, jitter


@dataclass(frozen=True)
class OptimizerConfig:
    seed: int = 0
    restarts: int = 3
    max_evals: int = 2000

    def __post_init__(self):
        if self.restarts < 1:
            raise ValidationError(f"restarts must be >= 1, got {self.restarts}")
        if self.max_evals < 1:
            raise ValidationError(f"max_evals must be >= 1, got {self.max_evals}")


@dataclass(frozen=True)
class FitResult:
    label: str
    estimates: dict
    free: Tuple[str, ...]
    loglik: float
    k: int
    aic: float
    converged: bool
    trace: Tuple[dict, ...]
    network: ProcessNetwork
    rejected: int
    jitter: float


@dataclass(frozen=True)
class RankedFit(FitResult):
    """A fit ranked among candidates by :func:`compare_directions`."""

    delta_aic: float
    tie: bool


class _SimplexRejected(Exception):
    """Every evaluation of a restart scored -inf until its simplex shrank."""


def _to_transformed(field: str, value: float) -> float:
    if field in _LOG_FIELDS:
        return math.log(max(value, _LOG_FLOOR))
    return value


def _from_transformed(field: str, x: float) -> float:
    if field in _LOG_FIELDS:
        if x > 700.0:
            return math.inf
        value = math.exp(x)
        if field == "smoothness":
            value = min(max(value, _NU_RANGE[0]), _NU_RANGE[1])
        return value
    return x


def fit_mle(
    grid: Grid,
    network: ProcessNetwork,
    obs: Sequence[Observations],
    free: Optional[Sequence[str]] = None,
    config: Optional[OptimizerConfig] = None,
    label: str = "model",
    jitter_max: float = DEFAULT_JITTER_MAX,
) -> FitResult:
    """Maximize the Gaussian likelihood over the named free parameters.

    Deterministic given (network, obs, free, config): restarts perturb the
    starting point with a Philox stream keyed by (config.seed, restart).

    Every evaluation of the fit builds its covariances by the same two-rule
    recursion as :func:`loglik` (see ``CovarianceEvaluator``), over one
    shared geometry: the point sets and their distances, plus the leaf
    blocks that its free parameters leave alone (the Matern blocks of nodes
    whose Matern is fixed, and the squared displacements of bisquare edges
    whose shift is fixed). Each value is bitwise the :func:`loglik` of the
    evaluated network, so the optimizer takes the path it takes on fresh
    evaluations, and the reported ``loglik`` is :func:`loglik` of the
    returned network.
    ``rejected`` counts the evaluations scored as -inf because the network
    was invalid or its covariance could not be factored; ``jitter`` is what
    the Cholesky factorization needed at the returned optimum. Nelder-Mead
    cannot stop on a simplex that scores -inf everywhere (inf - inf is NaN)
    and would shrink it until ``max_evals``, so a restart whose every
    evaluation is rejected ends once its last n + 2 evaluations (n free
    parameters; one step of the shrinking simplex) lie within the x
    tolerance of each other, relative to each coordinate's size above 1,
    recorded in ``trace`` as not converged. Until then it takes the path it
    always took: a finite reflected, contracted or shrunk point still lets
    it escape, and only a finite point closer than that tolerance is given
    up.
    """
    config = config or OptimizerConfig()
    # checked once here: the objective scores any CondcovError as -inf, so
    # bad input would surface as an optimizer failure
    check_jitter_max(jitter_max)
    kept = kept_observations(grid, network, obs)
    if not kept:
        raise InsufficientDataError(f"{label}: fit needs at least one observation")
    _check_network_on_grid(grid, network)
    free_names = list(free) if free is not None else default_free_parameters(network)
    if not free_names:
        raise ValidationError("fit needs at least one free parameter")
    if len(set(free_names)) != len(free_names):
        raise ValidationError(f"duplicate names in free parameters: {free_names}")
    located = [_locate(network, name) for name in free_names]  # validates
    fields = [loc[3] for loc in located]
    x0 = np.array([_to_transformed(field, get_parameter(network, name))
                   for name, field in zip(free_names, fields)])

    def apply(x: np.ndarray) -> ProcessNetwork:
        # one network per evaluation, whatever the number of free names
        return _substitute(network, located, [
            _from_transformed(field, float(xi)) for field, xi in zip(fields, x)])

    geometry = _Geometry(grid)
    jitters = {}  # the jitter of each accepted point, by its coordinates
    rejected = 0
    # the points of the current restart while every one is rejected; None
    # once one is accepted
    opening = []

    def objective(x: np.ndarray) -> float:
        nonlocal rejected, opening
        try:
            ev = CovarianceEvaluator(grid, apply(x), geometry)
            value, jitters[x.tobytes()] = _loglik(ev, kept, jitter_max)
        except CondcovError as exc:
            logger.debug("%s: evaluation scored -inf: %s", label, exc)
            rejected += 1
            if opening is not None:
                opening.append(x.copy())
                # relative to the point: an amplitude of 1e200 is rounded
                # far above any absolute tolerance
                step = opening[-(x0.size + 2):]
                if len(step) == x0.size + 2 and np.all(
                        np.ptp(step, axis=0) <= _XATOL * (1.0 + np.abs(x))):
                    raise _SimplexRejected from None
            return np.inf
        opening = None
        return -value

    # scipy.optimize is slow to import and only fitting uses it
    from scipy.optimize import OptimizeResult, minimize

    trace = []
    best = None
    for start in range(config.restarts):
        if start == 0:
            xs = x0
        else:
            rng = rng_from_seed(config.seed, start)
            xs = x0 + _PERTURBATION * (1.0 + np.abs(x0)) * rng.standard_normal(x0.size)
        opening = []
        try:
            res = minimize(
                objective,
                xs,
                method="Nelder-Mead",
                options={
                    "xatol": _XATOL,
                    "fatol": _FATOL,
                    "maxfev": config.max_evals,
                    "disp": False,
                },
            )
        except _SimplexRejected:
            res = OptimizeResult(x=xs, fun=np.inf, nfev=len(opening),
                                 success=False,
                                 message="every evaluation was rejected until "
                                         "the simplex shrank below xatol")
        trace.append(
            {
                "start": start,
                "nfev": int(res.nfev),
                "loglik": float(-res.fun),
                "converged": bool(res.success),
                "message": str(res.message),
            }
        )
        if best is None or res.fun < best.fun:
            best = res
    if not np.isfinite(best.fun):
        raise OptimizationError(
            f"{label}: likelihood was -inf at every evaluation; "
            "check the starting parameters"
        )
    fitted = apply(best.x)
    # one re-score through the public loglik: a fresh evaluator reproduces
    # -best.fun bit for bit (the tests assert it), so this costs one
    # evaluation per fit and keeps every fit visible to anything that
    # wraps loglik, such as the bench tracer, which no longer sees the
    # Nelder-Mead evaluations themselves
    ll = loglik(grid, fitted, obs, jitter_max)
    k = len(free_names)
    estimates = {name: get_parameter(fitted, name) for name in list_parameters(fitted)}
    converged = any(t["converged"] and t["loglik"] == ll for t in trace)
    return FitResult(
        label=label,
        estimates=estimates,
        free=tuple(free_names),
        loglik=ll,
        k=k,
        aic=-2.0 * ll + 2.0 * k,
        converged=converged,
        trace=tuple(trace),
        network=fitted,
        rejected=rejected,
        jitter=jitters[best.x.tobytes()],
    )


def reverse_bivariate(network: ProcessNetwork) -> ProcessNetwork:
    """Swap the conditioning order of a two-variable network.

    The old child becomes the root, keeping its Matern as the marginal
    starting point; the edge keeps its interaction parameters. This is a
    starting model for refitting, not a reparametrization of the same law.
    """
    if network.p != 2:
        raise ValidationError("reverse_bivariate needs exactly 2 variables")
    first, second = network.nodes
    edge = tuple((0, spec) for _, spec in second.parents)
    new_root = dataclasses.replace(second, parents=())
    new_child = dataclasses.replace(first, parents=edge)
    return ProcessNetwork((new_root, new_child))


def _translate_free(base: ProcessNetwork, cand: ProcessNetwork, free) -> Optional[list]:
    if free is None:
        return None
    cand_params = set(list_parameters(cand))
    out = []
    for name in free:
        if name in cand_params:
            out.append(name)
            continue
        head, _, field = name.rpartition(".")
        if "~" in head:
            child, parent = head.split("~", 1)
            swapped = f"{parent}~{child}.{field}"
            if swapped in cand_params:
                out.append(swapped)
                continue
        raise ValidationError(
            f"free parameter {name!r} has no counterpart in candidate "
            f"{list(cand.names)}"
        )
    return out


def compare_directions(
    grid: Grid,
    network: ProcessNetwork,
    obs: Sequence[Observations],
    free: Optional[Sequence[str]] = None,
    config: Optional[OptimizerConfig] = None,
    candidates: Optional[Sequence] = None,
    jitter_max: float = DEFAULT_JITTER_MAX,
) -> list:
    """Fit each conditioning order and rank the fits by AIC.

    For two variables the reversed order is generated automatically; for more
    variables pass ``candidates`` as (label, network) pairs sharing the node
    names. The ranking sorts by AIC, then fewer parameters, then label.

    Each returned :class:`RankedFit` carries ``delta_aic``, its AIC minus the
    best, and ``tie``, true for every fit that shares first place: its
    ``delta_aic`` is at most ``_AIC_TIE`` and some other fit's is too.
    ``_AIC_TIE`` is the resolution of the stopping rule, not a bound on
    the distance to the true maximum: Nelder-Mead stops once the values of
    -loglik across its simplex agree within ``_FATOL``; AIC = -2 loglik +
    2k scales that spread to ``2 * _FATOL`` per fit, and a difference of
    two AICs to ``4 * _FATOL``. Orders that reach the same maximum, as both
    orders of an exchangeable pair do, differ by less than that, and which
    of them ranks first is then decided by roundoff. A fit that stopped at
    ``max_evals`` (``converged`` false) met no such rule, yet it is flagged
    the same way when its AIC falls within ``_AIC_TIE``; read ``tie``
    together with ``converged``.
    """
    check_jitter_max(jitter_max)
    if candidates is None:
        if network.p != 2:
            raise ValidationError(
                "automatic direction swap is bivariate only; pass candidates "
                "for larger networks"
            )
        names = network.names
        candidates = [
            (f"{names[0]}->{names[1]}", network),
            (f"{names[1]}->{names[0]}", reverse_bivariate(network)),
        ]
    fits = []
    for item in candidates:
        label, cand = item
        if set(cand.names) != set(network.names):
            raise ValidationError(
                f"candidate {label!r} has variables {list(cand.names)}, "
                f"expected a reordering of {list(network.names)}"
            )
        remapped = [
            Observations(cand.index(network.names[o.variable]), o.locations, o.values)
            for o in obs
        ]
        fits.append(
            fit_mle(
                grid,
                cand,
                remapped,
                free=_translate_free(network, cand, free),
                config=config,
                label=label,
                jitter_max=jitter_max,
            )
        )
    fits.sort(key=lambda f: (f.aic, f.k, f.label))
    deltas = [f.aic - fits[0].aic for f in fits]
    shared = sum(d <= _AIC_TIE for d in deltas) > 1
    return [RankedFit(**vars(f), delta_aic=d, tie=shared and d <= _AIC_TIE)
            for f, d in zip(fits, deltas)]


def write_fit_result(path, fit: FitResult) -> None:
    """Flat key-value file: metadata as comments, one parameter per line.

    A label that is not one line would not read back; it is a
    ValidationError, and nothing is written.
    """
    _one_line(fit.label)
    lines = [
        f"# label = {fit.label}",
        f"# loglik = {fit.loglik:.17g}",
        f"# k = {fit.k}",
        f"# aic = {fit.aic:.17g}",
        f"# converged = {str(fit.converged).lower()}",
    ]
    for name in sorted(fit.estimates):
        lines.append(f"{name} = {fit.estimates[name]:.17g}")
    with _rewrite(path) as fh:
        fh.write("\n".join(lines) + "\n")


def read_params(path) -> dict:
    """Parse a flat key-value parameter file written by write_fit_result.

    A value is what follows the last "=" of its line, as a node name may
    hold one."""
    out = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.rpartition("=")
        if not sep:
            raise ValidationError(f"{path}:{lineno}: expected 'name = value', got {raw!r}")
        try:
            out[key.strip()] = float(value.strip())
        except ValueError as exc:
            raise ValidationError(f"{path}:{lineno}: bad value in {raw!r}") from exc
    return out
