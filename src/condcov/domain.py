"""Discretized domains, distance metrics and observation containers.

A Grid is the quadrature rule everything integrates against: vertices plus
positive weights. Distances between locations go through the grid's metric
(plain Euclidean, or chordal distance on a sphere for lon-lat meshes), while
interaction functions always work on raw coordinate displacements.
"""

from __future__ import annotations

import csv
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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


def _cell_text(value) -> str:
    """One CSV cell, formatted by its type: a bool as true/false, an int as
    digits, a float with FLOAT_FMT, anything else as its string, quoted as
    csv.writer quotes it. A carriage return is quoted too, which csv.writer
    with a "\\n" line end does not do, so that a reader sees one cell."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return FLOAT_FMT % value
    text = str(value)
    if any(ch in text for ch in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _write_table(path, header: Sequence[str], columns) -> None:
    """Write the CSV table ``header``, then row i of ``columns``, to ``path``.

    Every CSV the package writes goes through here, rewritten in place by
    :func:`_rewrite`, with cells joined by "," and lines ended by "\\n". A
    column is a float array, formatted with FLOAT_FMT in one pass, or a
    sequence of cells of any type (see :func:`_cell_text`). The header is
    a list, so a name may repeat. Columns of unequal length are a
    ValidationError.
    """
    texts = [[FLOAT_FMT % v for v in column.tolist()]
             if isinstance(column, np.ndarray) and column.dtype.kind == "f"
             else [_cell_text(v) for v in column] for column in columns]
    lengths = sorted({len(text) for text in texts})
    if len(lengths) > 1:
        raise ValidationError(f"{path}: columns of unequal lengths {lengths}")
    with _rewrite(path) as fh:
        fh.write(",".join(map(_cell_text, header)) + "\n")
        fh.writelines(",".join(row) + "\n" for row in zip(*texts))


def _finite(cell: str) -> float:
    """A CSV cell as a finite float (ValueError otherwise)."""
    if math.isfinite(value := float(cell)):
        return value
    raise ValueError(cell)


def _read_table(path, headers, text=None) -> tuple:
    """The header, the columns and the line of each row of the CSV table
    at ``path``.

    Every CSV the package reads goes through here. Blank lines are skipped,
    "\n" and "\r\n" line ends are read, and cells are stripped of spaces and
    tabs. The header is one of ``headers``, and each row has one cell per
    column: ``text[name]`` of the cell in a column named in ``text``, else a
    finite float. Each fault, a ValidationError of ``text`` included, is a
    ValidationError at ``{path}: line {n}:``, n the physical line, which is
    what the returned lines hold, for a caller's own checks of the rows.
    """
    text = text or {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = filter(None, reader)
        header = tuple(cell.strip(" \t") for cell in next(rows, ()))
        if header not in headers:
            raise ValidationError(
                f"{path}: line {reader.line_num}: expected header "
                f"{' or '.join(map(','.join, headers))}, got {','.join(header)!r}")
        convert = [text.get(name, _finite) for name in header]
        expected = ", then ".join([*filter(text.__contains__, header), "numbers "
                                   + ", ".join(c for c in header if c not in text)])
        columns = [[] for _ in header]
        lines = []
        for row in rows:
            lines.append(reader.line_num)
            try:
                for column, conv, cell in zip(columns, convert, row, strict=True):
                    column.append(conv(cell.strip(" \t")))
            except ValidationError as exc:
                raise ValidationError(
                    f"{path}: line {reader.line_num}: {exc}") from None
            except ValueError:
                raise ValidationError(
                    f"{path}: line {reader.line_num}: expected {expected} "
                    f"(finite), got {', '.join(map(repr, row))}") from None
    return header, columns, lines


def _one_line(text: str, what: str = "label") -> str:
    """``text``, which must not break a line of a parameter file: no
    ``str.splitlines`` boundary (ValidationError otherwise)."""
    if "".join(text.splitlines()) != text:
        raise ValidationError(f"{what} {text!r} is not one line")
    return text


def _embed_lonlat(points: np.ndarray, radius: float) -> np.ndarray:
    """Map (lon, lat) degrees to 3-d points on a sphere of the given radius."""
    lon = np.radians(points[:, 0])
    lat = np.radians(points[:, 1])
    return radius * np.stack(
        [np.cos(lat) * np.cos(lon), np.cos(lat) * np.sin(lon), np.sin(lat)], axis=1
    )


def _squared_sum(diffs, shape) -> np.ndarray:
    """diffs[0]**2 + diffs[1]**2 + ..., summed in that order, as an array
    of ``shape``, or zeros of it when there are none.

    ``diffs`` yields fresh float arrays, squared in place: full (m, n)
    terms (:func:`_differences`), the first of which becomes the sum, or
    terms that broadcast over a product grid (:func:`_grid_differences`).
    Taken one at a time, they keep at most two (m, n) arrays alive.
    """
    total = None
    for diff in diffs:
        np.square(diff, out=diff)
        if total is None:
            total = diff
        elif np.broadcast_shapes(total.shape, diff.shape) == total.shape:
            total += diff
        else:
            total = np.add(total, diff)
    return np.zeros(shape) if total is None else total.reshape(shape)


def _differences(p: np.ndarray, q: np.ndarray):
    """Per axis k, the fresh (m, n) differences p[:, k] - q[:, k] of float
    arrays p (m, dim) and q (n, dim), one at a time."""
    return (np.subtract.outer(p[:, k], q[:, k]) for k in range(p.shape[1]))


def _grid_differences(axes, points: np.ndarray, grid_first: bool = False):
    """Per axis k, points[:, k] - a_k for float points (m, dim) and the
    coordinates a_k of axis k of the product grid of ``axes`` (see
    :attr:`Grid.axes`), shaped (m, 1, ..., n_k, ..., 1) to broadcast over
    the vertices in "ij" order; a_k - points[:, k], (1, ..., n_k, ..., 1,
    m), when ``grid_first``. Their :func:`_squared_sum` adds the same squares
    in the same order as that of the full :func:`_differences`, so it is
    bitwise that, for (m, n_k) rather than (m, n) subtractions per axis.
    """
    m = points.shape[0]
    for k, a in enumerate(axes):
        along = [1] * len(axes)
        along[k] = a.size
        if grid_first:
            yield np.subtract.outer(a, points[:, k]).reshape(along + [m])
        else:
            yield np.subtract.outer(points[:, k], a).reshape([m] + along)


def _toeplitz_rows(table: np.ndarray) -> np.ndarray:
    """The outer row blocks of the symmetric multilevel Toeplitz matrix of a
    table of two or more levels (see :func:`_toeplitz`), without the matrix.

    ``table`` is (n_1, ..., n_d), d >= 2, and the matrix N x N with N = n_1
    ... n_d: n_1 x n_1 blocks of M = N / n_1 rows, block (i, j) the matrix
    of table[|i - j|] one level down. Those n_1 sub-blocks are each built
    once, side by side in the returned M x (2 n_1 - 1) M array in the order
    of offsets n_1 - 1, ..., 1, 0, 1, ..., n_1 - 1, so that row block i of
    the matrix is the view ``wide[:, (n_1 - 1 - i) M:(2 n_1 - 1 - i) M]``.
    """
    n = table.shape[0]
    m = table.size // n
    wide = np.empty((m, 2 * n - 1, m))
    for k in range(n):
        _toeplitz(table[k], wide[:, n - 1 + k])
        if k:
            wide[:, n - 1 - k] = wide[:, n - 1 + k]
    return wide.reshape(m, (2 * n - 1) * m)


def _row_block(wide: np.ndarray, i: int) -> np.ndarray:
    """Row block i, a view, of the matrix of :func:`_toeplitz_rows` ``wide``."""
    m = wide.shape[0]
    n = (wide.shape[1] // m + 1) // 2
    return wide[:, (n - 1 - i) * m:(2 * n - 1 - i) * m]


def _toeplitz(table: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the symmetric multilevel Toeplitz matrix of ``table`` into out.

    ``table`` is (n_1, ..., n_d) and ``out`` (N, N), N = n_1 ... n_d; entry
    ((i_1, ..., i_d), (j_1, ..., j_d)) of out, multi-indices in "ij" order,
    is table[|i_1 - j_1|, ..., |i_d - j_d|]. A 1-d table is its reflected
    row read through a sliding window; any other is copied row block by
    row block, each in one pass, from its :func:`_toeplitz_rows`.
    """
    n = table.shape[0]
    if table.ndim == 1:
        wide = np.concatenate([table[:0:-1], table])
        out[...] = sliding_window_view(wide, n)[::-1]
        return out
    wide = _toeplitz_rows(table)
    m = wide.shape[0]
    for i in range(n):
        out[i * m:(i + 1) * m] = _row_block(wide, i)
    return out


# how far, in ulp of an axis's largest coordinate, its coordinates may lie
# off the line a_0 + k h of a uniform axis
_UNIFORM_ULPS = 16


def _uniform_axes(vertices: np.ndarray) -> Optional[tuple]:
    """See :attr:`Grid.axes`."""
    dim = vertices.shape[1]
    axes = tuple(np.unique(vertices[:, k]) for k in range(dim))
    shape = tuple(a.size for a in axes)
    if dim == 0 or math.prod(shape) != vertices.shape[0]:
        return None
    for k, a in enumerate(axes):
        along = [1] * dim
        along[k] = a.size
        if not np.array_equal(vertices[:, k].reshape(shape), np.broadcast_to(
                a.reshape(along), shape)):
            return None
        if a.size == 1:
            continue
        with np.errstate(over="ignore", invalid="ignore"):
            step = (a[-1] - a[0]) / (a.size - 1)
            off_line = np.abs(a - (a[0] + step * np.arange(a.size))).max()
            uniform = off_line <= _UNIFORM_ULPS * np.spacing(max(-a[0], a[-1]))
            resolved = (a[1:] - a[:-1]).min() ** 2 >= np.finfo(float).tiny
        if not (uniform and resolved):
            return None
    for a in axes:
        a.setflags(write=False)
    return axes


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
    return _squared_sum(_differences(p, q), (p.shape[0], q.shape[0]))


EUCLIDEAN = Metric("euclidean")


def chordal(radius: float) -> Metric:
    return Metric("chordal", float(radius))


def chordal_distance(a, b, radius: float) -> float:
    """Chordal (straight line through the sphere) distance between two
    (lon, lat) points in degrees: 2 R sin(angle / 2)."""
    m = chordal(radius)
    return float(m.pairwise(np.atleast_1d(a)[None, :], np.atleast_1d(b)[None, :])[0, 0])


def _first_repeat(vertices: np.ndarray) -> Optional[Tuple[int, int]]:
    """(row, earlier row) of the first row of ``vertices`` that repeats an
    earlier one, -0 and 0 being one coordinate; None if every row differs."""
    _, first, which = np.unique(vertices, axis=0, return_index=True,
                                return_inverse=True)
    first = first[which.ravel()]  # per row, the row its vertex is first on
    repeats = np.flatnonzero(first != np.arange(first.size))
    if not repeats.size:
        return None
    return int(repeats[0]), int(first[repeats[0]])


class Grid:
    """Integration mesh: distinct vertices (n, dim), positive quadrature
    weights (n,)."""

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
        repeat = _first_repeat(vertices)
        if repeat is not None:
            k, first = repeat
            raise ValidationError(
                f"vertex {k} {tuple(vertices[k].tolist())} repeats vertex {first}")
        vertices.setflags(write=False)
        weights.setflags(write=False)
        self.vertices = vertices
        self.weights = weights
        self.metric = metric

    @property
    def n(self) -> int:
        return self.vertices.shape[0]

    @cached_property
    def axes(self) -> Optional[tuple]:
        """Per-axis coordinates (a_1, ..., a_dim) of a uniform product grid,
        else None; found once, from the vertices alone.

        A uniform product grid is what :func:`regular_grid` makes: the
        vertices are the "ij" meshgrid of increasing a_k, each of which
        lies within 16 ulp of its largest coordinate from a line of uniform
        spacing, and no spacing squares to less than the smallest normal
        double, so that distinct vertices are at distance > 0. Shuffled,
        jittered or unevenly spaced vertices give None. On such a grid a
        distance between vertices depends only on per-axis offsets, which
        covariance assembly uses (``conditional._Geometry``).
        """
        return _uniform_axes(self.vertices)

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


def load_mesh(path, metric: Metric = EUCLIDEAN) -> Grid:
    """Read a mesh CSV with header ``x[,y[,z]],weight`` (see
    :func:`_read_table`). A weight that is not positive, and a vertex
    that repeats an earlier row's, are a ValidationError at their line."""
    _, (*coords, weights), lines = _read_table(
        path, [(*_COORD_NAMES[:dim], "weight") for dim in (1, 2, 3)])
    if not weights:
        raise ValidationError(f"{path}: empty mesh")
    for line, weight in zip(lines, weights):
        if weight <= 0.0:
            raise ValidationError(f"{path}: line {line}: quadrature weight "
                                  f"must be positive, got {weight!r}")
    vertices = np.column_stack(coords)
    repeat = _first_repeat(vertices)
    if repeat is not None:
        k, first = repeat
        raise ValidationError(
            f"{path}: line {lines[k]}: vertex {tuple(vertices[k].tolist())} "
            f"repeats line {lines[first]}")
    return Grid(vertices, np.array(weights), metric)


def save_mesh(grid: Grid, path) -> None:
    _write_table(path, [*_COORD_NAMES[:grid.dim], "weight"],
                 [*grid.vertices.T, grid.weights])


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
    """Read observations CSV (header ``variable,x[,y[,z]],value``; see
    :func:`_read_table`).

    The variable column holds a node name from ``names`` or a 1-based index.
    Returns one Observations per name, in order, possibly with zero rows.
    """
    names = list(names)
    variables, *coords, values = map(np.array, _read_table(
        path, [("variable", *_COORD_NAMES[:dim], "value") for dim in (1, 2, 3)],
        {"variable": lambda label: _variable_index(label, names)})[1])
    locations = np.column_stack(coords)
    return [Observations(q, locations[variables == q], values[variables == q])
            for q in range(len(names))]


def save_observations(obs_list: Sequence[Observations], names: Sequence[str], path) -> None:
    kept = [obs for obs in obs_list if obs.m]
    dim = max((obs.locations.shape[1] for obs in kept), default=1)
    locations = np.vstack([np.empty((0, dim))] + [obs.locations for obs in kept])
    _write_table(path, ["variable", *_COORD_NAMES[:dim], "value"], [
        [names[obs.variable] for obs in kept for _ in range(obs.m)],
        *locations.T,
        np.concatenate([np.empty(0)] + [obs.values for obs in kept]),
    ])
