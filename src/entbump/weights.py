"""Dyadic maximal functions and weight characteristics.

The central object is the per-cube entropy functional

    rho_w(Q) = (1/w(Q)) * int_Q M(w 1_Q),

where M is the dyadic maximal operator restricted to subcubes of Q. Its sup
over all cubes is the (Wilson-style) A-infinity characteristic; the classical
A1 constant is sup_x M w(x) / w(x). Cubes with w(Q) = 0 are "vacuous": rho is
reported as NaN and treated as 1 wherever a value is needed downstream (such
cubes contribute zero to every bump norm, so the choice is inert).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidCubeError, InvalidWeightError
from .grid import (
    CellSet,
    DyadicCube,
    GridFunction,
    integral,
    _half_sum,
    level_averages,
    paint_leaves,
    require_weight,
)

VACUOUS = math.nan


# a pair sum past float64's range is inf, and so is every average above it
@np.errstate(over="ignore")
def dyadic_maximal(w: GridFunction) -> GridFunction:
    """M w(x) = max over dyadic cubes Q containing x of <w>_Q.

    One leaves-only downward max paint over the level-average arrays,
    O(n) total.
    Raises InvalidWeightError when the pairwise sums overflow float64.
    """
    require_weight(w)
    avgs = level_averages(w.values)
    if not math.isfinite(avgs[0][0]):
        raise InvalidWeightError("weight sums overflow float64; rescale w (M w scales with w)")
    return GridFunction._adopt(w.resolution, paint_leaves(avgs, np.maximum))


def rho(w: GridFunction, cube: DyadicCube) -> float:
    """(1/w(Q)) int_Q M(w 1_Q); NaN (vacuous) when w(Q) = 0.

    One cube on its own: M(w 1_Q) on Q's cells is the max paint of the
    averages of Q's subcubes. rho_all gives every cube at once, but adds
    the w(Q) sums in another order, so the two can differ in the last bits.
    """
    require_weight(w)
    a, b = cube.cell_range(w.resolution)
    w_sum = float(w.values[a:b].sum())
    if w_sum == 0.0:
        return VACUOUS
    m_sum = float(paint_leaves(level_averages(w.values[a:b]), np.maximum).sum())
    return m_sum / w_sum


@dataclass(frozen=True)
class RhoTable:
    """rho for every dyadic cube of a grid, levels 0..N.

    ``values[l][j]`` is rho of cube (l, j); NaN marks vacuous cubes, with the
    companion boolean mask in ``vacuous``.
    """

    resolution: int
    values: tuple
    vacuous: tuple

    def max_rho(self) -> float:
        """Max over non-vacuous cubes; the A-infinity characteristic."""
        best = -math.inf
        for level_vals, level_vac in zip(self.values, self.vacuous):
            keep = ~level_vac
            if keep.any():
                best = max(best, float(level_vals[keep].max()))
        if best == -math.inf:
            raise InvalidWeightError("all cubes are vacuous (weight is zero)")
        return best

    def write_rows(self, fh, newline: str) -> None:
        """Header and one row per cube, each line ending in ``newline``.
        Columns: level, index, rho, vacuous (0/1); rho to 17 sig digits."""
        fh.write(f"level,index,rho,vacuous{newline}")
        for level, (level_vals, level_vac) in enumerate(zip(self.values, self.vacuous)):
            fh.writelines(
                f"{level},{index},{value:.17g},{vac:d}{newline}"
                for index, (value, vac) in enumerate(
                    zip(level_vals.tolist(), level_vac.tolist())
                )
            )

    def to_csv(self, path) -> None:
        """The rows of ``write_rows`` ending in CRLF, as the csv module
        writes them."""
        with open(path, "w", newline="") as fh:
            self.write_rows(fh, "\r\n")


def _rho_levels(w: GridFunction):
    """The bottom-up sweep behind rho_all: yields (level, <w>_Q, rho,
    vacuous) for the levels N, N - 1, ..., 0, one array each of that
    level's cubes, NaN rho on vacuous cubes.

    For a cell x inside a level-l cube Q, M(w 1_Q)(x) is the suffix maximum
    (from level l down to the leaves) of the averages along x's ancestor
    path. The sweep keeps one suffix-max array at leaf granularity, updated
    in place on its (2^l, 2^(n-l)) view, and sums each row of that view for
    the per-cube M-sums. Each level's averages and w-sums are built from
    the level below by the pairwise steps of level_averages and level_sums,
    so they have those ladders' bits, and only the level below is held.
    Width-2 rows are added as two columns (one addition, so the same bits
    as the reduction); wider rows keep numpy's row sum, whose summation
    order the reports depend on. Raises InvalidWeightError, before the root
    is yielded, when the sums overflow float64.
    """
    require_weight(w)
    avg = wsum = w.values  # at the leaves, each cell's average and sum
    suffix = w.values.copy()
    for level in range(w.resolution, -1, -1):
        rows = suffix.reshape(1 << level, -1)
        # sums past float64's range overflow to inf, which the root's rho
        # catches; the state is set per level, not across the yield
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            if level < w.resolution:
                avg, wsum = _half_sum(avg[0::2], avg[1::2]), np.add(wsum[0::2], wsum[1::2])
                np.maximum(avg[:, None], rows, out=rows)
            r = rows[:, 0] + rows[:, 1] if rows.shape[1] == 2 else rows.sum(axis=1)
            np.divide(r, wsum, out=r)
        vacuous = wsum == 0.0
        r[vacuous] = np.nan
        # every cube's M-sum and w-sum is at most the root's, so a finite
        # root rho means no sum overflowed
        if level == 0 and not (vacuous[0] or math.isfinite(r[0])):
            raise InvalidWeightError("weight sums overflow float64; rescale w (rho is scale-invariant)")
        yield level, avg, r, vacuous


def rho_all(w: GridFunction) -> RhoTable:
    """rho for every cube in O(n log n): one ``_rho_levels`` sweep, of which
    the table keeps each level's rho and vacuous mask. Beside the table the
    sweep holds one cell-size suffix max and one level of averages and
    w-sums, not whole pyramids. Raises InvalidWeightError when the sums
    overflow float64.
    """
    values, vac = [None] * (w.resolution + 1), [None] * (w.resolution + 1)
    for level, _, r, vacuous in _rho_levels(w):
        values[level], vac[level] = r, vacuous
    return RhoTable(w.resolution, tuple(values), tuple(vac))


def a1_constant(w: GridFunction) -> float:
    """sup_x M w(x) / w(x); +inf when w vanishes on a cell.

    A not-identically-zero weight has M w > 0 everywhere, so any zero cell
    forces the +inf signal.
    """
    require_weight(w)
    if not np.any(w.values > 0):
        raise InvalidWeightError("weight is identically zero")
    if np.any(w.values == 0):
        return math.inf
    m = dyadic_maximal(w)
    return float(np.max(m.values / w.values))


def ainf_constant(w: GridFunction) -> float:
    """Entropy A-infinity characteristic: max over cubes of rho_w(Q)."""
    require_weight(w)
    if not np.any(w.values > 0):
        raise InvalidWeightError("weight is identically zero")
    return rho_all(w).max_rho()


def ainf_lemma_ratio(w: GridFunction, cube: DyadicCube, subset: CellSet) -> float:
    """w(E) * log2(2 + |Q|/|E|) / (w(Q) * rho_w(Q)) for E a subset of Q.

    The subset lemma asserts this is bounded by an absolute constant; the lab
    measures it empirically.
    """
    require_weight(w)
    if subset.resolution != w.resolution:
        raise InvalidCubeError("subset resolution does not match weight")
    if subset.is_empty():
        raise ValueError("subset E must be nonempty")
    cube_cells = CellSet.from_cube(w.resolution, cube)
    if not subset.is_subset_of(cube_cells):
        raise InvalidCubeError("subset E is not contained in the cube")
    a, b = cube.cell_range(w.resolution)
    w_q = float(w.values[a:b].sum()) * w.cell_width
    if w_q == 0.0:
        raise InvalidWeightError("w(Q) = 0: the ratio is undefined on vacuous cubes")
    w_e = integral(w, subset)
    size_ratio = cube.cell_count(w.resolution) / subset.cell_count()
    r = rho(w, cube)
    return w_e * math.log2(2.0 + size_ratio) / (w_q * r)


def power_weight(s: float, resolution: int) -> GridFunction:
    """Cell averages of x^-s on the grid, s in [0, 1).

    Cell j carries 2^{Ns} ((j+1)^{1-s} - j^{1-s}) / (1-s), the exact average
    of x^-s over [j 2^-N, (j+1) 2^-N). s = 0 gives the constant weight 1.
    """
    if not 0.0 <= s < 1.0:
        raise InvalidWeightError(f"power weight exponent must be in [0, 1), got {s}")
    n = 1 << resolution
    if s == 0.0:
        return GridFunction.constant(resolution, 1.0)
    t = 1.0 - s
    diffs = np.arange(n, dtype=np.float64)
    jj = diffs[1:]
    # (j+1)^t - j^t = j^t expm1(t log1p(1/j)), cancellation-free; the
    # expm1 factor goes through one buffer, j^t overwrites j in place
    growth = np.divide(1.0, jj)
    np.log1p(growth, out=growth)
    growth *= t
    np.expm1(growth, out=growth)
    np.power(jj, t, out=jj)
    jj *= growth
    diffs[0] = 1.0  # (1)^t - 0^t
    diffs *= 2.0 ** (resolution * s)
    diffs /= t
    return GridFunction._adopt(resolution, diffs)


def a1_generator(g: GridFunction, s: float) -> GridFunction:
    """(M|g|)^s, an A1 weight for 0 < s < 1, deterministic given (g, s)."""
    if not 0.0 < s < 1.0:
        raise InvalidWeightError(f"exponent must be in (0, 1), got {s}")
    if not np.any(g.values != 0):
        raise InvalidWeightError("generator function is identically zero")
    m = dyadic_maximal(GridFunction._adopt(g.resolution, np.abs(g.values)))
    return GridFunction._adopt(g.resolution, np.power(m.values, s))
