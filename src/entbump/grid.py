"""Dyadic step functions on [0, 1).

A grid of resolution N splits [0, 1) into 2**N equal cells; functions are
constant on cells. Dyadic cubes are the intervals [j 2^-l, (j+1) 2^-l) for
0 <= l <= N, and every cube is a union of cells. All operations here are pure
and deterministic: reductions run in a fixed order, so repeated calls on the
same inputs give bit-identical results.

Conventions used throughout the package:

* ``<|f|>_Q`` is the absolute-value average |Q|^-1 int_Q |f|.
* ``integral(f, S)`` is the signed integral over a cell set.
* weights are GridFunctions with nonnegative cells (validated at use sites).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    FileFormatError,
    InvalidCubeError,
    InvalidWeightError,
    ResolutionMismatchError,
)


@dataclass(frozen=True)
class DyadicCube:
    """The interval [index * 2**-level, (index + 1) * 2**-level)."""

    level: int
    index: int

    def __post_init__(self):
        if self.level < 0:
            raise InvalidCubeError(f"negative level {self.level}")
        if not 0 <= self.index < (1 << self.level):
            raise InvalidCubeError(
                f"index {self.index} out of range at level {self.level}"
            )

    @property
    def measure(self) -> float:
        return 2.0 ** -self.level

    def cell_count(self, resolution: int) -> int:
        if self.level > resolution:
            raise InvalidCubeError(
                f"cube at level {self.level} is finer than resolution {resolution}"
            )
        return 1 << (resolution - self.level)

    def cell_range(self, resolution: int) -> tuple[int, int]:
        """Half-open range of cell indices covered at the given resolution."""
        width = self.cell_count(resolution)
        return (self.index * width, (self.index + 1) * width)


ROOT = DyadicCube(0, 0)


def _as_grid_values(values, resolution: int, copy=True) -> np.ndarray:
    arr = np.array(values, dtype=np.float64, copy=copy).reshape(-1)
    if arr.size != (1 << resolution):
        raise ValueError(
            f"expected {1 << resolution} cells at resolution {resolution}, "
            f"got {arr.size}"
        )
    if not np.all(np.isfinite(arr)):
        raise ValueError("grid values must be finite")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class GridFunction:
    """A step function, constant on the 2**resolution cells of [0, 1)."""

    resolution: int
    values: np.ndarray

    def __post_init__(self):
        if not isinstance(self.resolution, int) or self.resolution < 0:
            raise ValueError(f"resolution must be a nonnegative int, got {self.resolution}")
        object.__setattr__(self, "values", _as_grid_values(self.values, self.resolution))

    @classmethod
    def _adopt(cls, resolution: int, values: np.ndarray) -> "GridFunction":
        """The GridFunction on ``values`` itself: a fresh float64 array of
        the cells that its maker hands over and no longer writes. Checked
        like any other, made read-only, but not copied."""
        out = cls.__new__(cls)
        object.__setattr__(out, "resolution", resolution)
        object.__setattr__(out, "values", _as_grid_values(values, resolution, copy=None))
        return out

    @classmethod
    def constant(cls, resolution: int, value: float) -> "GridFunction":
        return cls(resolution, np.full(1 << resolution, float(value)))

    @property
    def n_cells(self) -> int:
        return 1 << self.resolution

    @property
    def cell_width(self) -> float:
        return 2.0 ** -self.resolution

    def __eq__(self, other):
        if not isinstance(other, GridFunction):
            return NotImplemented
        return self.resolution == other.resolution and np.array_equal(
            self.values, other.values
        )


@dataclass(frozen=True)
class CellSet:
    """A measurable subset of [0, 1): a boolean mask over grid cells."""

    resolution: int
    mask: np.ndarray

    def __post_init__(self):
        arr = np.array(self.mask, dtype=bool, copy=True).reshape(-1)
        if arr.size != (1 << self.resolution):
            raise ValueError(
                f"expected {1 << self.resolution} cells, got {arr.size}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "mask", arr)

    @classmethod
    def full(cls, resolution: int) -> "CellSet":
        return cls(resolution, np.ones(1 << resolution, dtype=bool))

    @classmethod
    def from_cube(cls, resolution: int, cube: DyadicCube) -> "CellSet":
        mask = np.zeros(1 << resolution, dtype=bool)
        a, b = cube.cell_range(resolution)
        mask[a:b] = True
        return cls(resolution, mask)

    def cell_count(self) -> int:
        return int(self.mask.sum())

    def is_empty(self) -> bool:
        return not self.mask.any()

    def difference(self, other: "CellSet") -> "CellSet":
        _same_resolution(self, other)
        return CellSet(self.resolution, self.mask & ~other.mask)

    def is_subset_of(self, other: "CellSet") -> bool:
        _same_resolution(self, other)
        return bool(np.all(~self.mask | other.mask))

    def __eq__(self, other):
        if not isinstance(other, CellSet):
            return NotImplemented
        return self.resolution == other.resolution and np.array_equal(
            self.mask, other.mask
        )


def _same_resolution(a, b):
    if a.resolution != b.resolution:
        raise ResolutionMismatchError(
            f"resolutions differ: {a.resolution} vs {b.resolution}"
        )


def require_weight(w: GridFunction) -> GridFunction:
    """Validate that w has nonnegative cells; return it unchanged."""
    if np.any(w.values < 0):
        raise InvalidWeightError("weight has a negative cell")
    return w


def integral(f: GridFunction, cells: CellSet) -> float:
    """Signed integral of f over the cell set."""
    _same_resolution(f, cells)
    return float(f.values[cells.mask].sum() * f.cell_width)


def restrict(f: GridFunction, cells: CellSet) -> GridFunction:
    """f * indicator(cells)."""
    _same_resolution(f, cells)
    return GridFunction(f.resolution, np.where(cells.mask, f.values, 0.0))


def weak_l1_norm(g: GridFunction, w: GridFunction) -> float:
    """sup_{lam > 0} lam * w({|g| > lam}).

    For step functions the sup is attained: it equals the maximum over the
    distinct values v of |g| of v * w({|g| >= v}). Computed by sorting cells
    by |g| once, O(n log n).

    The cells are summed in the order of a stable descending sort. An
    unstable sort gives that same order when the sorted values hold no tie
    (every sort then yields the one permutation), so the stable sort runs
    only on inputs with a tie.

    Three cell-size arrays carry the work: -|g| (the sort key), the order
    and the sorted values. On a tie the unstable order and its sorted
    values are dropped before the stable sort builds its own. Once the
    order is final, the key's buffer takes the gathered weights, their
    running sum, its scaling and the product in place; the gathers index
    with mode="clip", which never moves a valid index and, unlike the
    default, writes into ``out`` without a buffered copy.
    """
    _same_resolution(g, w)
    require_weight(w)
    neg = np.abs(g.values)
    if not neg.any():
        return 0.0
    np.negative(neg, out=neg)
    order = np.argsort(neg)
    v_sorted = np.take(neg, order)
    if (v_sorted[1:] == v_sorted[:-1]).any():
        del order, v_sorted
        order = np.argsort(neg, kind="stable")
        v_sorted = np.take(neg, order)
    np.negative(v_sorted, out=v_sorted)
    cum_w = np.take(w.values, order, out=neg, mode="clip")
    del order
    np.cumsum(cum_w, out=cum_w)
    cum_w *= w.cell_width
    # Within a run of equal values the last position dominates, so a plain
    # max over all positions is the max over distinct values.
    return float(np.max(np.multiply(v_sorted, cum_w, out=cum_w)))


# The pyramid layer: a value per dyadic cube is one array per level (entry l
# of length 2**l), built by a bottom-up pairwise reduction or a top-down paint.


def split_levels(flat: np.ndarray, resolution: int) -> list[np.ndarray]:
    """Per-level views of a flat (level, index)-ordered array of length
    (2 << resolution) - 1: level l is flat[2**l - 1 : 2**(l+1) - 1]."""
    return [flat[(1 << level) - 1 : (2 << level) - 1] for level in range(resolution + 1)]


def reduce_up(leaves: np.ndarray, op) -> list[np.ndarray]:
    """Per-level arrays built from the leaves up: the last entry is
    ``leaves``, and each cube's entry is op(left child, right child)."""
    out = [leaves]
    while out[-1].size > 1:
        prev = out[-1]
        out.append(op(prev[0::2], prev[1::2]))
    out.reverse()
    return out


def paint_down(per_level, op) -> list[np.ndarray]:
    """Per-level arrays painted from the root down: entry 0 is per_level[0]
    and entry l is op(np.repeat(entry[l - 1], 2), per_level[l]), so each
    cube sees its ancestors' values folded in root-first order. The last
    entry is the per-cell result; a caller that reads only that entry uses
    paint_leaves, which does not keep the others."""
    out = [per_level[0]]
    for values in per_level[1:]:
        out.append(op(np.repeat(out[-1], 2), values))
    return out


def paint_leaves(per_level, op) -> np.ndarray:
    """The last entry of paint_down(per_level, op), with the same bits, from
    one running level: each step repeats it and folds the next level into
    the repeat in place, so at most the previous level and the new one are
    held. ``op`` is a binary ufunc; with one level, per_level[0] itself is
    returned."""
    out = per_level[0]
    for values in per_level[1:]:
        out = np.repeat(out, 2)
        op(out, values, out=out)
    return out


def level_averages(values: np.ndarray) -> list[np.ndarray]:
    """Per-level cube averages of a cell array.

    Entry l is an array of length 2**l holding the plain (signed) average of
    ``values`` over each level-l cube, built by pairwise halving so every
    caller shares one floating-point path.
    """
    return reduce_up(np.asarray(values, dtype=np.float64), _half_sum)


def _half_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a + b) * 0.5 with one fresh array: the sum, halved in place."""
    out = np.add(a, b)
    out *= 0.5
    return out


def level_sums(values: np.ndarray) -> list[np.ndarray]:
    """Per-level cube sums of a cell array (same ladder as level_averages)."""
    return reduce_up(np.asarray(values, dtype=np.float64), np.add)


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """sum(a * b) by numpy's own pairwise reduction. np.dot hands long sums
    to BLAS, which may split them across threads, so its bits would depend
    on the thread count; this order depends only on the length."""
    return float(np.add.reduce(a * b))


def _save_json(payload, path) -> None:
    """Write payload as every report file is written: sorted keys, two-space
    indent, one trailing newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_grid_function(f: GridFunction, path) -> None:
    """Two-line text format: resolution, then 2**N cell values.

    Values are written with repr (shortest round-trip form), so a load of the
    written file reproduces the doubles bit-exactly.
    """
    with open(path, "w") as fh:
        fh.write(f"{f.resolution}\n")
        fh.write(" ".join(repr(float(v)) for v in f.values))
        fh.write("\n")


def load_grid_function(path) -> GridFunction:
    """Read the two-line text format written by save_grid_function."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise FileFormatError(path, 1, "empty file, expected a resolution line")
    try:
        resolution = int(lines[0].strip())
    except ValueError:
        raise FileFormatError(path, 1, f"expected an integer resolution, got {lines[0]!r}") from None
    if resolution < 0:
        raise FileFormatError(path, 1, f"negative resolution {resolution}")
    if len(lines) < 2:
        raise FileFormatError(path, 2, "missing values line")
    tokens = lines[1].split()
    if len(tokens) != (1 << resolution):
        raise FileFormatError(
            path, 2, f"expected {1 << resolution} values, got {len(tokens)}"
        )
    try:
        values = np.array([float(t) for t in tokens])
    except ValueError:
        raise FileFormatError(path, 2, "values line contains a non-numeric token") from None
    if not np.all(np.isfinite(values)):
        raise FileFormatError(path, 2, "values must be finite")
    for extra, line in enumerate(lines[2:], start=3):
        if line.strip():
            raise FileFormatError(path, extra, f"unexpected trailing content {line!r}")
    return GridFunction(resolution, values)
