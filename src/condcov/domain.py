"""Discretized domains, distance metrics and observation containers.

A Grid is the quadrature rule everything integrates against: vertices plus
positive weights. Distances between locations go through the grid's metric
(plain Euclidean, or chordal distance on a sphere for lon-lat meshes), while
interaction functions always work on raw coordinate displacements.
"""

from __future__ import annotations

import csv
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import ValidationError

__all__ = [
    "Metric",
    "EUCLIDEAN",
    "chordal",
    "chordal_distance",
    "Grid",
    "regular_grid",
    "load_mesh",
    "save_mesh",
    "Observations",
    "load_observations",
    "save_observations",
    "FLOAT_FMT",
]

# all CSV output in the package uses 17 significant digits, which round-trips
# IEEE doubles exactly
FLOAT_FMT = "%.17g"


@contextmanager
def _rewrite(path):
    """Text handle that rewrites the file at ``path`` in place.

    Every output file of the package is written through here. The file is
    opened without ``O_TRUNC`` and cut to the written length when the block
    ends. Truncating a just-written file to zero on open, as text mode "w"
    does, can block for tens of milliseconds (ext4 flushes the old data on
    replace-via-truncate); cutting it after the write does not. A new file
    gets mode 0o666 less the umask, as with ``open``. A crash mid-write can
    leave new rows followed by stale bytes of the old file.
    """
    with os.fdopen(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w",
                   newline="") as fh:
        try:
            yield fh
        finally:
            fh.truncate()


def _embed_lonlat(points: np.ndarray, radius: float) -> np.ndarray:
    """Map (lon, lat) degrees to 3-d points on a sphere of the given radius."""
    lon = np.radians(points[:, 0])
    lat = np.radians(points[:, 1])
    return radius * np.stack(
        [np.cos(lat) * np.cos(lon), np.cos(lat) * np.sin(lon), np.sin(lat)], axis=1
    )


def _squared_sum(diffs, shape) -> np.ndarray:
    """diffs[0]**2 + diffs[1]**2 + ..., summed in that order, or zeros of
    ``shape`` when there are none.

    ``diffs`` yields fresh (m, n) float arrays, which are squared in place;
    the first one becomes the sum. Taking them one at a time from an
    iterator keeps at most two (m, n) arrays alive.
    """
    total = None
    for diff in diffs:
        np.square(diff, out=diff)
        if total is None:
            total = diff
        else:
            total += diff
    return np.zeros(shape) if total is None else total


# rows per tile of a same-set block: 64 rows of a 1600-point set are 800 KB,
# within a 1 MB L2 cache
_ROW_TILE = 64


def _symmetric_fill(n: int, fill) -> np.ndarray:
    """n x n matrix built on its upper triangle, row tile by row tile.

    ``fill(r0, r1, tile)`` writes rows r0:r1, columns r0:n of the matrix
    into the view ``tile``; the part of each tile right of its diagonal
    block is then copied to the transposed place below it. That is the
    whole matrix when entry (i, j) is bitwise entry (j, i) of a full
    evaluation, as for an elementwise function of a symmetric matrix, and
    it costs about half the work.
    """
    out = np.empty((n, n))
    for r0 in range(0, n, _ROW_TILE):
        r1 = min(n, r0 + _ROW_TILE)
        tile = out[r0:r1, r0:]
        fill(r0, r1, tile)
        out[r1:, r0:r1] = tile[:, r1 - r0:].T
    return out


@dataclass(frozen=True)
class Metric:
    kind: str = "euclidean"
    radius: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ("euclidean", "chordal"):
            raise ValidationError(f"unknown metric kind {self.kind!r}")
        if self.kind == "chordal":
            if self.radius is None or not np.isfinite(self.radius) or self.radius <= 0:
                raise ValidationError("chordal metric needs a positive radius")

    def pairwise(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Distance matrix between location arrays a (m, dim) and b (n, dim).

        Built on one (m, n) array, axis by axis and in place: for k = 0,
        1, ... the difference a[i, k] - b[j, k] is squared and added to the
        sum of the axes before it, then the square root is taken. No
        (m, n, dim) array of differences is formed. The chordal metric
        sums over the 3-d embedding of its (lon, lat) points. Locations of
        different dimension are a ValidationError.

        ``pairwise(a, a)``, with one object as both arguments, is a
        same-set block, built on one triangle (see :meth:`_same_set`).
        """
        if b is a:
            return self._same_set(a, lambda d2, tile: np.sqrt(d2, out=tile))
        a = np.atleast_2d(np.asarray(a, dtype=float))
        b = np.atleast_2d(np.asarray(b, dtype=float))
        if a.shape[1] != b.shape[1]:
            raise ValidationError(
                f"location dimensions differ: {a.shape[1]} vs {b.shape[1]}"
            )
        d2 = _squared_distances(self._embedded(a), self._embedded(b))
        return np.sqrt(d2, out=d2)

    def _same_set(self, a: np.ndarray, into) -> np.ndarray:
        """f(D) for the distances D among the locations a (n, dim).

        Built on the upper triangle in row tiles that stay in cache, and
        mirrored (see :func:`_symmetric_fill`): per tile, the squared
        distances are summed axis by axis as in :meth:`pairwise`, then
        ``into(d2, tile)`` writes f of their square roots into the tile,
        and may overwrite d2 on the way. Entry (i, j) is bitwise that of
        f(pairwise(a, a.copy())), because (a_i - a_j)^2 = (a_j - a_i)^2
        exactly, and no n x n array but the result is formed.
        """
        a = self._embedded(a)
        return _symmetric_fill(a.shape[0], lambda r0, r1, tile: into(
            _squared_distances(a[r0:r1], a[r0:]), tile))

    def _embedded(self, a) -> np.ndarray:
        """Float (n, dim) locations; the chordal metric's 3-d embedding."""
        a = np.atleast_2d(np.asarray(a, dtype=float))
        if self.kind == "chordal":
            if a.shape[1] != 2:
                raise ValidationError("chordal metric expects (lon, lat) locations")
            a = _embed_lonlat(a, self.radius)
        return a


def _squared_distances(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """(m, n) squared distances between float arrays p (m, dim), q (n, dim)."""
    return _squared_sum((np.subtract.outer(p[:, k], q[:, k])
                         for k in range(p.shape[1])),
                        (p.shape[0], q.shape[0]))


EUCLIDEAN = Metric("euclidean")


def chordal(radius: float) -> Metric:
    return Metric("chordal", float(radius))


def chordal_distance(a, b, radius: float) -> float:
    """Chordal (straight line through the sphere) distance between two
    (lon, lat) points in degrees: 2 R sin(angle / 2)."""
    m = chordal(radius)
    return float(m.pairwise(np.atleast_1d(a)[None, :], np.atleast_1d(b)[None, :])[0, 0])


class Grid:
    """Integration mesh: vertices (n, dim), positive quadrature weights (n,)."""

    def __init__(self, vertices, weights, metric: Metric = EUCLIDEAN):
        vertices = np.array(vertices, dtype=float)
        weights = np.array(weights, dtype=float)
        if vertices.ndim != 2:
            raise ValidationError(f"vertices must be (n, dim), got shape {vertices.shape}")
        if weights.shape != (vertices.shape[0],):
            raise ValidationError(
                f"weights shape {weights.shape} does not match {vertices.shape[0]} vertices"
            )
        if not np.all(np.isfinite(vertices)):
            raise ValidationError("vertices must be finite")
        if not np.all(np.isfinite(weights)) or np.any(weights <= 0):
            raise ValidationError("quadrature weights must be finite and positive")
        vertices.setflags(write=False)
        weights.setflags(write=False)
        self.vertices = vertices
        self.weights = weights
        self.metric = metric

    @property
    def n(self) -> int:
        return self.vertices.shape[0]

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    def distance_matrix(self, a=None, b=None) -> np.ndarray:
        a = self.vertices if a is None else a
        b = self.vertices if b is None else b
        return self.metric.pairwise(a, b)

    def __eq__(self, other):
        if not isinstance(other, Grid):
            return NotImplemented
        return (
            np.array_equal(self.vertices, other.vertices)
            and np.array_equal(self.weights, other.weights)
            and self.metric == other.metric
        )

    def __repr__(self):
        return f"Grid(n={self.n}, dim={self.dim}, metric={self.metric.kind})"


def regular_grid(bounds: Sequence, counts: Sequence[int], metric: Metric = EUCLIDEAN) -> Grid:
    """Cell-center grid over an axis-aligned box; weight = cell volume."""
    bounds = [(float(lo), float(hi)) for lo, hi in bounds]
    counts = [int(c) for c in counts]
    if len(bounds) != len(counts):
        raise ValidationError("bounds and counts must have the same length")
    if any(c < 1 for c in counts):
        raise ValidationError(f"counts must be >= 1, got {counts}")
    axes = []
    vol = 1.0
    for (lo, hi), c in zip(bounds, counts):
        if not (np.isfinite(lo) and np.isfinite(hi)) or hi <= lo:
            raise ValidationError(f"degenerate interval [{lo}, {hi}]")
        h = (hi - lo) / c
        axes.append(lo + h * (np.arange(c) + 0.5))
        vol *= h
    mesh = np.meshgrid(*axes, indexing="ij")
    vertices = np.stack([m.ravel() for m in mesh], axis=1)
    weights = np.full(vertices.shape[0], vol)
    return Grid(vertices, weights, metric)


_COORD_NAMES = ("x", "y", "z")


def _coord_columns(fieldnames, trailing: str, path) -> list:
    names = [c.strip() for c in fieldnames or []]
    if len(names) < 2 or names[-1] != trailing:
        raise ValidationError(
            f"{path}: expected coordinate columns followed by {trailing!r}, got {names}"
        )
    coords = names[:-1]
    if tuple(coords) != _COORD_NAMES[: len(coords)]:
        raise ValidationError(
            f"{path}: coordinate columns must be {_COORD_NAMES[:len(coords)]}, got {coords}"
        )
    return coords


def load_mesh(path, metric: Metric = EUCLIDEAN) -> Grid:
    """Read a mesh CSV with header ``x[,y[,z]],weight``."""
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        coords = _coord_columns(reader.fieldnames, "weight", path)
        verts, weights = [], []
        for i, row in enumerate(reader):
            try:
                verts.append([float(row[c]) for c in coords])
                weights.append(float(row["weight"]))
            except (TypeError, KeyError, ValueError) as exc:
                raise ValidationError(f"{path}: bad row {i + 2}: {row}") from exc
    if not verts:
        raise ValidationError(f"{path}: empty mesh")
    return Grid(np.array(verts), np.array(weights), metric)


def save_mesh(grid: Grid, path) -> None:
    with _rewrite(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(list(_COORD_NAMES[: grid.dim]) + ["weight"])
        for v, w in zip(grid.vertices, grid.weights):
            writer.writerow([FLOAT_FMT % c for c in v] + [FLOAT_FMT % w])


@dataclass(frozen=True)
class Observations:
    """Observations of one variable: a location per row plus the value."""

    variable: int
    locations: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        locations = np.atleast_2d(np.asarray(self.locations, dtype=float))
        values = np.asarray(self.values, dtype=float).ravel()
        if locations.shape[0] != values.shape[0]:
            raise ValidationError(
                f"{locations.shape[0]} locations but {values.shape[0]} values"
            )
        if not (np.all(np.isfinite(locations)) and np.all(np.isfinite(values))):
            raise ValidationError("observation locations and values must be finite")
        if self.variable < 0:
            raise ValidationError(f"variable index must be >= 0, got {self.variable}")
        locations.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "locations", locations)
        object.__setattr__(self, "values", values)

    @property
    def m(self) -> int:
        return self.values.shape[0]

    def __eq__(self, other):
        if not isinstance(other, Observations):
            return NotImplemented
        return (
            self.variable == other.variable
            and np.array_equal(self.locations, other.locations)
            and np.array_equal(self.values, other.values)
        )


def _variable_index(label: str, names: Sequence[str]) -> int:
    """Index of a variable given by node name or by 1-based position."""
    names = list(names)
    if label in names:
        return names.index(label)
    try:
        q = int(label) - 1
    except ValueError:
        q = -1
    if not 0 <= q < len(names):
        raise ValidationError(
            f"unknown variable {label!r}; expected one of {names} "
            f"or a 1-based index"
        )
    return q


def load_observations(path, names: Sequence[str]) -> list:
    """Read observations CSV (header ``variable,x[,y[,z]],value``).

    The variable column holds a node name from ``names`` or a 1-based index.
    Returns one Observations per name, in order, possibly with zero rows.
    """
    path = Path(path)
    names = list(names)
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        cols = [c.strip() for c in reader.fieldnames or []]
        if len(cols) < 3 or cols[0] != "variable" or cols[-1] != "value":
            raise ValidationError(
                f"{path}: expected header 'variable,<coords>,value', got {cols}"
            )
        coords = _coord_columns(cols[1:], "value", path)
        locs = [[] for _ in names]
        vals = [[] for _ in names]
        for i, row in enumerate(reader):
            try:
                q = _variable_index(row["variable"].strip(), names)
            except ValidationError as exc:
                raise ValidationError(f"{path}: row {i + 2}: {exc}") from None
            try:
                locs[q].append([float(row[c]) for c in coords])
                vals[q].append(float(row["value"]))
            except (TypeError, KeyError, ValueError) as exc:
                raise ValidationError(f"{path}: bad row {i + 2}: {row}") from exc
    dim = len(coords)
    return [
        Observations(q, np.array(locs[q]).reshape(-1, dim), np.array(vals[q]))
        for q in range(len(names))
    ]


def save_observations(obs_list: Sequence[Observations], names: Sequence[str], path) -> None:
    dim = max((o.locations.shape[1] for o in obs_list if o.m), default=1)
    with _rewrite(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["variable"] + list(_COORD_NAMES[:dim]) + ["value"])
        for obs in obs_list:
            for loc, val in zip(obs.locations, obs.values):
                writer.writerow(
                    [names[obs.variable]]
                    + [FLOAT_FMT % c for c in loc]
                    + [FLOAT_FMT % val]
                )
