"""Sparse collections of dyadic cubes and the operators built on them.

A collection S is (strictly) 1/2-sparse when the sets

    E_Q = Q \\ union(maximal S-members strictly inside Q)

satisfy |E_Q| > |Q|/2 for every member; the E_Q are then pairwise disjoint.
Sparseness implies the Carleson packing bound sum_{Q' subset Q} |Q'| <= 2|Q|,
which in turn lets any Carleson collection be split into eight parts (by
generation depth mod 8) each satisfying the stronger condition that the
strict descendants of a member cover at most a quarter of it.

Measures are tracked as integer cell counts, so every geometric check here
is exact.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property

import numpy as np

from .bumps import EpsilonSpec, _entropy_levels, shifted_log2
from .errors import (
    FileFormatError,
    InvalidCubeError,
    ResolutionMismatchError,
    SparsePreconditionError,
)
from .grid import (
    CellSet,
    DyadicCube,
    GridFunction,
    _dot,
    _save_json,
    integral,
    level_averages,
    level_sums,
    paint_down,
    paint_leaves,
    require_weight,
    restrict,
    split_levels,
)
from .weights import RhoTable


class SparseCollection:
    """A set of dyadic cubes on one grid, held as one boolean member array
    per level: ``members[l]`` has length 2^l.

    Iteration and ``cubes`` speak DyadicCube, in (level, index) order;
    every structural computation of this module sweeps the arrays.
    """

    def __init__(self, resolution: int, cubes):
        if resolution < 0:
            raise ValueError(f"negative resolution {resolution}")
        members = [np.zeros(1 << level, dtype=bool) for level in range(resolution + 1)]
        for cube in cubes:
            if cube.level > resolution:
                raise InvalidCubeError(
                    f"cube level {cube.level} exceeds resolution {resolution}"
                )
            members[cube.level][cube.index] = True
        self._set_members(members)

    @classmethod
    def _from_members(cls, members) -> "SparseCollection":
        """The collection whose level-l members are the True entries of members[l]."""
        out = cls.__new__(cls)
        out._set_members(members)
        return out

    def _set_members(self, members) -> None:
        for mem in members:
            mem.setflags(write=False)
        self.resolution = len(members) - 1
        self.members = tuple(members)

    @cached_property
    def cubes(self) -> tuple[DyadicCube, ...]:
        return tuple(
            DyadicCube(level, int(index))
            for level, mem in enumerate(self.members)
            for index in np.flatnonzero(mem)
        )

    def __iter__(self):
        return iter(self.cubes)

    def __len__(self):
        return sum(int(np.count_nonzero(mem)) for mem in self.members)

    def __contains__(self, cube: DyadicCube) -> bool:
        return cube.level <= self.resolution and bool(self.members[cube.level][cube.index])

    def __eq__(self, other):
        if not isinstance(other, SparseCollection):
            return NotImplemented
        return self.resolution == other.resolution and all(
            np.array_equal(a, b) for a, b in zip(self.members, other.members)
        )

    def __repr__(self):
        return f"SparseCollection(n={self.resolution}, {len(self)} cubes)"

    def save(self, path) -> None:
        """Text format: resolution line, then one 'level index' line per cube."""
        with open(path, "w") as fh:
            fh.write(f"{self.resolution}\n")
            for cube in self.cubes:
                fh.write(f"{cube.level} {cube.index}\n")

    @classmethod
    def load(cls, path) -> "SparseCollection":
        return cls(*cls._read(path))

    @staticmethod
    def _read(path) -> tuple:
        """(resolution, cubes) of a file in the ``save`` format, validated
        line by line; no member array is built."""
        with open(path) as fh:
            lines = fh.read().splitlines()
        resolution = None
        cubes = []
        for lineno, raw in enumerate(lines, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if resolution is None:
                try:
                    resolution = int(line)
                except ValueError:
                    raise FileFormatError(
                        path, lineno, f"expected an integer resolution, got {line!r}"
                    ) from None
                if resolution < 0:
                    raise FileFormatError(path, lineno, "negative resolution")
                continue
            parts = line.split()
            if len(parts) != 2:
                raise FileFormatError(
                    path, lineno, f"expected 'level index', got {line!r}"
                )
            try:
                level, index = int(parts[0]), int(parts[1])
            except ValueError:
                raise FileFormatError(path, lineno, f"non-integer cube {line!r}") from None
            try:
                cube = DyadicCube(level, index)
                if level > resolution:
                    raise InvalidCubeError("cube finer than resolution")
            except InvalidCubeError as exc:
                raise FileFormatError(path, lineno, str(exc)) from None
            cubes.append(cube)
        if resolution is None:
            raise FileFormatError(path, 1, "empty file, expected a resolution line")
        return resolution, cubes


def _ancestor_counts(s: SparseCollection) -> list:
    """Per level, the number of members strictly above each cube: a top-down
    sum paint of the members, less the cube's own membership."""
    counts = paint_down([mem.astype(np.int64) for mem in s.members], np.add)
    return [c - mem for c, mem in zip(counts, s.members)]


def _descendant_cells(s: SparseCollection, union: bool) -> list:
    """Per level, the cells of the members strictly inside each cube, summed
    over those members or, with ``union``, covered by them: the children
    cover, the disjoint union of the maximal ones. A bottom-up pairwise sum."""
    n = s.resolution
    below = np.zeros(1 << n, dtype=np.int64)
    out = [below]
    for level in range(n, 0, -1):
        own = 1 << (n - level)
        mem = s.members[level]
        closed = np.where(mem, own, below) if union else below + own * mem
        below = closed[0::2] + closed[1::2]
        out.append(below)
    out.reverse()
    return out


def _eq_cells(s: SparseCollection) -> list:
    """Per level, |E_Q| in cells: |Q| minus its children cover."""
    n = s.resolution
    return [(1 << (n - level)) - c for level, c in enumerate(_descendant_cells(s, union=True))]


def _at_members(s: SparseCollection, per_level) -> np.ndarray:
    """Per-level values at the members, in (level, index) order."""
    return np.concatenate([v[mem] for v, mem in zip(per_level, s.members)])


def _cell_ratios(s: SparseCollection, cells) -> np.ndarray:
    """Integer cell counts over |Q| in cells, at the members in (level, index)
    order; each ratio is one division."""
    n = s.resolution
    return _at_members(s, [c / (1 << (n - level)) for level, c in enumerate(cells)])


def _member_coords(s: SparseCollection) -> tuple[np.ndarray, np.ndarray]:
    """Level and index of every member, in (level, index) order."""
    index = [np.flatnonzero(mem) for mem in s.members]
    return np.repeat(np.arange(len(index)), [i.size for i in index]), np.concatenate(index)


def _member_at(s: SparseCollection, pos: int) -> DyadicCube:
    """The member at position pos of the (level, index) order."""
    levels, index = _member_coords(s)
    return DyadicCube(int(levels[pos]), int(index[pos]))


def _first_max(s: SparseCollection, ratios: np.ndarray):
    """(member, ratio) of the largest ratio, first in (level, index) order."""
    pos = int(np.argmax(ratios))
    return _member_at(s, pos), float(ratios[pos])


def _positions(s: SparseCollection) -> list:
    """Per level and cube, the position in (level, index) order of the
    deepest member at or above it, -1 where none is; at the last level, the
    owner of each cell. A deeper member comes later in that order, so this
    is a top-down max paint of the member positions."""
    flat = np.concatenate(s.members)
    position = np.where(flat, np.cumsum(flat) - 1, -1)
    return paint_down(split_levels(position, s.resolution), np.maximum)


@dataclass(frozen=True)
class CarlesonReport:
    passed: bool
    worst_cube: DyadicCube | None
    worst_ratio: float


def carleson_check(s: SparseCollection) -> CarlesonReport:
    """Packing check: for every member Q, sum of |Q'| over members Q'
    strictly inside Q is <= 2 |Q|."""
    ratios = _cell_ratios(s, _descendant_cells(s, union=False))
    if not ratios.size:
        return CarlesonReport(True, None, 0.0)
    worst_cube, worst_ratio = _first_max(s, ratios)
    return CarlesonReport(worst_ratio <= 2.0, worst_cube, worst_ratio)


class _EqSets(Mapping):
    """E_Q per member, read-only: each CellSet is built from the owner
    array when its member is read, so the mapping holds O(2^n) memory."""

    def __init__(self, s: SparseCollection):
        self._resolution = s.resolution
        self._owner = _positions(s)[-1]
        self._position = {cube: pos for pos, cube in enumerate(s.cubes)}

    def __getitem__(self, cube: DyadicCube) -> CellSet:
        return CellSet(self._resolution, self._owner == self._position[cube])

    def __iter__(self):
        return iter(self._position)

    def __len__(self):
        return len(self._position)


@dataclass(frozen=True)
class EqCertification:
    """Result of the disjoint-E_Q construction on a collection."""

    certified: bool
    collection: SparseCollection
    eq_sets: Mapping
    violator: DyadicCube | None
    worst_ratio: float


def build_disjoint_eq(s: SparseCollection) -> EqCertification:
    """Construct E_Q = Q minus its maximal strict members and certify the
    strict 1/2-sparseness |E_Q| > |Q|/2 for every member."""
    ratios = _cell_ratios(s, _eq_cells(s))
    eq_sets = _EqSets(s)
    if not ratios.size:
        return EqCertification(True, s, eq_sets, None, 1.0)
    worst = float(ratios.min())
    certified = worst > 0.5
    violator = None if certified else _member_at(s, int(np.argmax(ratios <= 0.5)))
    return EqCertification(certified, s, eq_sets, violator, worst)


def certify_half_sparse(s: SparseCollection) -> bool:
    """Counts-only fast path for the strict 1/2-sparseness certificate."""
    return bool(np.all(_cell_ratios(s, _eq_cells(s)) > 0.5))


@dataclass(frozen=True)
class StrongSparsenessReport:
    passed: bool
    worst_cube: DyadicCube | None
    worst_ratio: float


def strong_sparseness_check(s: SparseCollection) -> StrongSparsenessReport:
    """Check |union of strict S-descendants of Q| <= |Q| / 4 per member.

    The union of strict descendants equals the disjoint union of the maximal
    S-children, so this is an exact integer computation.
    """
    ratios = _cell_ratios(s, _descendant_cells(s, union=True))
    if not ratios.size:
        return StrongSparsenessReport(True, None, 0.0)
    worst_cube, worst = _first_max(s, ratios)
    return StrongSparsenessReport(worst <= 0.25, worst_cube, worst)


def split_eight(s: SparseCollection) -> list[SparseCollection]:
    """Partition a Carleson collection into 8 parts by generation depth
    mod 8; each part satisfies the quarter condition of
    strong_sparseness_check.

    Requires the packing bound 2 of carleson_check (raises otherwise).
    """
    report = carleson_check(s)
    if not report.passed:
        raise SparsePreconditionError(
            f"collection fails the Carleson bound (worst ratio {report.worst_ratio:.3f} "
            f"at {report.worst_cube})"
        )
    part = [d % 8 for d in _ancestor_counts(s)]
    return [
        SparseCollection._from_members([mem & (p == k) for mem, p in zip(s.members, part)])
        for k in range(8)
    ]


def bilinear_form(s: SparseCollection, f: GridFunction, g: GridFunction) -> float:
    """sum over the members Q of s of |Q| <f>_Q <g>_Q, with the
    absolute-value averages of this package.

    The terms are added one at a time in (level, index) order.
    """
    if f.resolution != g.resolution:
        raise ResolutionMismatchError("f and g live on different grids")
    if s.resolution != f.resolution:
        raise ResolutionMismatchError("collection resolution does not match f")
    favg = level_averages(np.abs(f.values))
    gavg = level_averages(np.abs(g.values))
    terms = [np.zeros(1)] + [
        2.0 ** -level * favg[level][mem] * gavg[level][mem]
        for level, mem in enumerate(s.members)
    ]
    return float(np.cumsum(np.concatenate(terms))[-1])


def cz_stopping_collection(f: GridFunction, a: float) -> SparseCollection:
    """Calderon-Zygmund stopping cubes of f, starting at the root.

    From each selected cube P (starting with the root), select the maximal
    strict subcubes Q with <|f|>_Q > a <|f|>_P and recurse. For a > 2 the
    selected children of P cover less than |P|/a, so the output is strictly
    1/2-sparse.

    One top-down paint: a cube is selected when its average beats a times
    the average of its nearest selected ancestor.
    """
    if not a > 2.0:
        raise ValueError(f"stopping factor must exceed 2, got {a}")
    favg = level_averages(np.abs(f.values))
    if favg[0][0] == 0.0:
        raise ValueError("f is (absolutely) degenerate on the root")
    thr = paint_down([a * favg[0]] + favg[1:], lambda t, avg: np.where(avg > t, a * avg, t))
    members = [np.ones(1, dtype=bool)] + [avg > np.repeat(t, 2) for avg, t in zip(favg[1:], thr)]
    return SparseCollection._from_members(members)


class HaarSpec:
    """A sign assignment on all cubes of levels 0..N-1.

    Signs are stored per level as arrays of +/-1; the assignment must be
    total, which the array layout guarantees.
    """

    def __init__(self, resolution: int, signs):
        if resolution < 0:
            raise ValueError(f"negative resolution {resolution}")
        self.resolution = resolution
        stored = []
        if len(signs) != resolution:
            raise ValueError(
                f"expected sign arrays for {resolution} levels, got {len(signs)}"
            )
        for level, arr in enumerate(signs):
            a = np.asarray(arr, dtype=np.float64).reshape(-1)
            if a.size != (1 << level):
                raise ValueError(f"level {level} needs {1 << level} signs")
            if not np.all(np.abs(a) == 1.0):
                raise ValueError("signs must be +1 or -1")
            a.setflags(write=False)
            stored.append(a)
        self.signs = tuple(stored)

    @classmethod
    def _from_signs(cls, signs) -> "HaarSpec":
        """The spec of per-level float arrays of +/-1 that the caller built
        in the right sizes; no check."""
        out = cls.__new__(cls)
        for arr in signs:
            arr.setflags(write=False)
        out.resolution = len(signs)
        out.signs = tuple(signs)
        return out

    @classmethod
    def from_rng(cls, resolution: int, rng) -> "HaarSpec":
        if resolution < 0:
            raise ValueError(f"negative resolution {resolution}")
        return cls._from_signs([
            rng.choice(np.array([-1.0, 1.0]), size=1 << level)
            for level in range(resolution)
        ])


def haar_transform(spec: HaarSpec, f: GridFunction) -> GridFunction:
    """T f = sum over cubes Q (levels < N) of sigma_Q <f, h_Q> h_Q with
    L2-normalized Haar functions.

    The per-cube term at a cell x in Q is sigma_Q (<f>_child(x) - <f>_Q) for
    the child of Q containing x, so one signed down-sweep computes T f; with
    all signs +1 the sweep telescopes to f minus its global mean.
    """
    if spec.resolution != f.resolution:
        raise ResolutionMismatchError("sign assignment resolution does not match f")
    avgs = level_averages(f.values)
    # The partial sum over levels < l lives in one of two cell-size buffers,
    # and level l's terms go to the other, as its (2, 2^l) view of left and
    # right children; order="C" runs the inner loop along the 2^l parents.
    done, todo = np.zeros(f.n_cells), np.empty(f.n_cells)
    for level, sigma in enumerate(spec.signs):
        kids = todo[: 2 << level].reshape(-1, 2).T
        np.subtract(avgs[level + 1].reshape(-1, 2).T, avgs[level], out=kids, order="C")
        np.multiply(sigma, kids, out=kids, order="C")
        np.add(done[: 1 << level], kids, out=kids, order="C")
        done, todo = todo, done
    return GridFunction._adopt(f.resolution, done)


@dataclass(frozen=True)
class DominationResult:
    collection: SparseCollection
    pairing: float
    form: float
    measured_ratio: float


def sparse_dominate_bilinear(
    spec: HaarSpec, f: GridFunction, g: GridFunction, a: float
) -> DominationResult:
    """Measure |<T f, g>| against the sparse form over the stopping cubes of
    |f| + |g|.

    Returns the collection used, both sides, and the ratio; a zero form
    with nonzero pairing is reported as an infinite ratio (it cannot occur
    for admissible inputs).
    """
    if f.resolution != g.resolution or f.resolution != spec.resolution:
        raise ResolutionMismatchError("f, g, and the sign assignment must share a grid")
    if not np.any(f.values != 0) or not np.any(g.values != 0):
        raise ValueError("f and g must not be identically zero")
    base = GridFunction(f.resolution, np.abs(f.values) + np.abs(g.values))
    s = cz_stopping_collection(base, a)
    tf = haar_transform(spec, f)
    pairing = _dot(tf.values, g.values) * f.cell_width
    form = bilinear_form(s, f, g)
    if form > 0.0:
        ratio = abs(pairing) / form
    else:
        ratio = 0.0 if pairing == 0.0 else math.inf
    return DominationResult(s, pairing, form, ratio)


# ---------------------------------------------------------------------------
# Proof replay: the weak-type decomposition, step by step.
# ---------------------------------------------------------------------------

CONSTANT_BOUND = 16.0  # the decomposition constant every band is checked against
REL_TOL = 1e-9  # float slack on the replay's inequalities


@dataclass(frozen=True)
class CubeClassRecord:
    """Where one member cube landed in the decomposition."""

    level: int
    index: int
    part: int
    r: int | None
    k: int | None
    generation: int | None
    discard_reason: str | None


_CUBE_KEYS = tuple(f.name for f in fields(CubeClassRecord))


@dataclass(frozen=True)
class BandRecord:
    """Per (part, rho-bin, level-class) verification record."""

    part: int
    r: int
    k: int
    regime: str  # "coarse" or "far"
    cube_count: int
    band_sum: float  # sum over the class of |Q| <f>_Q <w 1_G'>_Q
    coarse_constant: float | None = None
    coarse_ok: bool | None = None
    disjoint_constant: float | None = None
    disjoint_ok: bool | None = None

    @property
    def ok(self) -> bool:
        """The check of the band's regime passed."""
        return self.coarse_ok if self.regime == "coarse" else self.disjoint_ok


@dataclass
class ProofReplayReport:
    resolution: int
    normalization: float
    w_g: float
    w_h: float
    w_gprime: float
    threshold: float
    fs_ok: bool
    doubling_ok: bool
    # the CubeClassRecord fields as columns, one tuple each, in record order
    cube_columns: tuple = ((),) * len(_CUBE_KEYS)
    band_records: list = field(default_factory=list)
    constant_bound: float = CONSTANT_BOUND
    vacuous: bool = False

    @cached_property
    def cube_records(self) -> list:
        """One CubeClassRecord per member, built from the columns when first read."""
        return [CubeClassRecord(*row) for row in zip(*self.cube_columns)]

    @property
    def all_ok(self) -> bool:
        return self.fs_ok and self.doubling_ok and all(band.ok for band in self.band_records)

    def max_measured_constant(self) -> float:
        worst = 0.0
        for band in self.band_records:
            for value in (band.coarse_constant, band.disjoint_constant):
                if value is not None and value > worst:
                    worst = value
        return worst

    def to_json_dict(self) -> dict:
        return {
            "resolution": self.resolution,
            "normalization": self.normalization,
            "w_g": self.w_g,
            "w_h": self.w_h,
            "w_gprime": self.w_gprime,
            "threshold": self.threshold,
            "fs_ok": self.fs_ok,
            "doubling_ok": self.doubling_ok,
            "vacuous": self.vacuous,
            "constant_bound": self.constant_bound,
            "all_ok": self.all_ok,
            "max_measured_constant": self.max_measured_constant(),
            "cubes": [dict(zip(_CUBE_KEYS, row)) for row in zip(*self.cube_columns)],
            "bands": [asdict(band) for band in self.band_records],
        }

    def save_json(self, path) -> None:
        _save_json(self.to_json_dict(), path)


def _ceil_log2(x: np.ndarray) -> np.ndarray:
    """ceil(log2 x) of every positive entry, read exactly off the binary
    exponent: x = m 2^e with m in [1/2, 1) gives e, or e - 1 when m = 1/2."""
    mant, exp = np.frexp(x)
    return exp - (mant == 0.5)


def _level_class(avg_f: np.ndarray, w_g: float) -> np.ndarray:
    """Per entry, the k with x = avg_f w(G) in (4^{-k-1}, 4^{-k}], which is
    floor(-ceil(log2 x) / 2); k >= -1 for x <= 4. An entry whose product
    underflows to 0 gets the cap 1100."""
    x = avg_f * w_g
    return np.where(x > 0.0, -_ceil_log2(x) // 2, 1100)


def _rho_bin(rho_value: np.ndarray) -> np.ndarray:
    """Per entry, the r >= 0 with shifted_log2(rho) in (2^r, 2^{r+1}]:
    r = max(0, ceil(log2 shifted_log2(rho)) - 1), which misses the band only
    when shifted_log2(rho) <= 1, that is rho <= 0."""
    return np.maximum(_ceil_log2(shifted_log2(rho_value)) - 1, 0)


def _runs(values: np.ndarray) -> list:
    """(start, end) of each run of equal entries."""
    cut = (np.flatnonzero(values[1:] != values[:-1]) + 1).tolist()
    return list(zip([0, *cut], [*cut, values.size])) if values.size else []


def _cells(n: int, level: np.ndarray, index: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per cell, the value of the deepest of the cubes (given in (level,
    index) order) that contains it, or 0: the cubes are written coarse to fine."""
    out = np.zeros(1 << n, dtype=values.dtype)
    for lo, hi in _runs(level):
        out.reshape(1 << int(level[lo]), -1)[index[lo:hi]] = values[lo:hi, None]
    return out


def _down(parent: np.ndarray, own: np.ndarray, op, root, levels: list) -> np.ndarray:
    """Per member, op(value at its parent, own value), or op(root, own value)
    without parent (-1): parents first, one step per run of ``levels``."""
    out = np.empty(own.size + 1, dtype=np.result_type(own, root))
    out[-1] = root
    for lo, hi in levels:
        out[lo:hi] = op(out[parent[lo:hi]], own[lo:hi])
    return out[:-1]


def _nearest_same(parent: np.ndarray, key: np.ndarray, todo: np.ndarray) -> np.ndarray:
    """For each member in todo, the nearest one up its chain of parent links
    (-1 ends it) with the same key, or -1; all chains advance at once."""
    out, up = np.full(parent.size, -1), parent[todo]
    while todo.size:
        todo, up = todo[up >= 0], up[up >= 0]
        same = key[up] == key[todo]
        out[todo[same]] = up[same]
        todo, up = todo[~same], parent[up[~same]]
    return out


def _majorant(w: GridFunction, eps: EpsilonSpec) -> tuple:
    """w's RhoTable and the cells of m_entropy(w, eps), from one
    ``_entropy_levels`` sweep: the table keeps each level's rho for the
    rho-bins, and a leaves-only max paint reads the norms."""
    n = w.resolution
    values, vac, norms = [None] * (n + 1), [None] * (n + 1), [None] * (n + 1)
    for level, r, vacuous, vals in _entropy_levels(w, eps):
        values[level], vac[level], norms[level] = r, vacuous, vals
    return RhoTable(n, tuple(values), tuple(vac)), paint_leaves(norms, np.maximum)


def proof_replay(
    s: SparseCollection,
    f: GridFunction,
    w: GridFunction,
    g_set: CellSet,
    eps: EpsilonSpec,
) -> ProofReplayReport:
    """Replay the weak-type decomposition over a sparse collection.

    Steps, mirrored exactly: normalize f in L1 of the entropy majorant; carve
    out H (maximal cubes with <f>_Q above 4/w(G)) and check w(H) <= w(G)/4
    and the doubling w(G) <= 2 w(G'); split S into eight strongly sparse
    parts; within each part bin members by rho and by the dyadic size of
    <f>_Q; peel generations, build the disjoint E_Q sets, and verify the
    coarse bound (k <= 10 * 2^r) or the far-regime disjointness bound
    (k > 10 * 2^r) with measured constants against CONSTANT_BOUND. These
    four checks, fs_ok, doubling_ok, coarse_ok and disjoint_ok, can fail,
    and all_ok is their conjunction.

    The other steps hold by construction, so they are not recorded (the
    tests assert each one):
    - a member above the threshold meets G' in a null set: H is painted
      from the same averages, so the member lies inside H;
    - every classified member lands in its rho-bin, shifted_log2(rho) > 1:
      rho >= 1 (a vacuous rho is read as 1), so shifted_log2(rho) >= log2 3;
    - the |E_Q| of a band add up to the cells of its roots: each |E_Q| is
      |Q| less the cells of Q's band children, so the sum telescopes for
      any nested family;
    - the far regime's set Q_t needs t = 2^k >= 2^11 more generations, and
      no grid has that many levels, so Q_t is empty and its bounds hold.

    S is one member table in (level, index) order, classified at once. A
    member's band parent is its nearest S-ancestor in the same (part, r, k)
    band; generations, |E_Q| and the coarse right-hand sides follow those
    links, with no sweep of the grid per band.
    """
    return _proof_replay(s, f, w, g_set, eps, None, None)


def _proof_replay(s, f, w, g_set, eps, table, majorant) -> ProofReplayReport:
    """proof_replay on (table, majorant) from _majorant(w, eps) when the
    caller holds them, None to build them."""
    require_weight(w)
    n = f.resolution
    if w.resolution != n or s.resolution != n or g_set.resolution != n:
        raise ResolutionMismatchError("f, w, S, and G must share one grid")
    w_g = integral(w, g_set)
    if w_g <= 0.0:
        raise ValueError("w(G) must be positive")
    if not certify_half_sparse(s):
        raise SparsePreconditionError("collection is not strictly 1/2-sparse")

    if table is None:
        table, majorant = _majorant(w, eps)
    denom = _dot(np.abs(f.values), majorant) * f.cell_width
    threshold = 4.0 / w_g
    if denom == 0.0:
        # f is identically zero: every class is empty, all checks vacuous.
        return ProofReplayReport(
            resolution=n, normalization=0.0, w_g=w_g, w_h=0.0, w_gprime=w_g,
            threshold=threshold, fs_ok=True, doubling_ok=True, vacuous=True,
        )
    abs_fn = np.abs(GridFunction(n, f.values / denom).values)
    favg = level_averages(abs_fn)

    # H: the union of the maximal dyadic cubes with <f>_Q above the
    # threshold, i.e. the cells with some ancestor above it.
    h_set = CellSet(n, paint_leaves(favg, np.maximum) > threshold)
    w_h = integral(w, h_set)
    g_prime = g_set.difference(h_set)
    w_gprime = integral(w, g_prime)

    # Per-cube w(G' ∩ Q) via one sum ladder over w restricted to G'.
    wgp_cells = restrict(w, g_prime).values
    cell_width = f.cell_width

    # The member table. The member at flat offset o = 2^l - 1 + index has
    # its parent cube at offset (o - 1) // 2, where the position paint
    # holds its S-parent.
    level, index = _member_coords(s)
    offset = (1 << level) - 1 + index
    levels = _runs(level)
    painted = np.concatenate(_positions(s))
    s_parent = np.where(offset > 0, painted[(offset - 1) >> 1], -1)
    part = _down(s_parent, np.ones_like(level), np.add, -1, levels) % 8
    avg = _at_members(s, favg)
    wgp = _at_members(s, level_sums(wgp_cells)) * cell_width
    rho_m = _at_members(s, table.values)

    # A member above the threshold qualifies for H, so it lies inside H.
    above = avg > threshold * (1.0 + 1e-12)
    zero = avg == 0.0
    classified = ~above & ~zero
    k = _level_class(avg, w_g)
    r = _rho_bin(np.where(np.isnan(rho_m), 1.0, rho_m))

    # A member's bin parent is its nearest S-ancestor in the same part and
    # rho-bin, its band parent the nearest of those in the same level class.
    todo = np.flatnonzero(classified)
    bin_key = np.where(classified, part + 8 * r, -1)
    bin_parent = _nearest_same(s_parent, bin_key, todo)
    band_parent = _nearest_same(bin_parent, k, todo)
    generation = _down(band_parent, np.ones_like(k), np.add, -1, levels)
    # M^S w of the rho-bin at a member: the max of <w> over the member and
    # its bin ancestors.
    w_avg = _at_members(s, level_averages(np.abs(w.values)))
    bin_max = _down(bin_parent, w_avg, np.maximum, -math.inf, levels)

    band_records = []
    order = todo[np.lexsort((k[todo], r[todo], part[todo]))]
    for blo, bhi in _runs(bin_key[order]):
        in_bin = order[blo:bhi]
        # The coarse right-hand side integrates M^S w over the rho-bin.
        cubes = np.sort(in_bin)
        m_s = _cells(n, level[cubes], index[cubes], bin_max[cubes])
        rhs = _dot(abs_fn, m_s) * cell_width
        for lo, hi in _runs(k[in_bin]):
            band = in_bin[lo:hi]
            rb, kb, count = int(r[band[0]]), int(k[band[0]]), hi - lo
            # sum over the class of |Q| <f>_Q <w 1_G'>_Q, added in order
            band_sum = float(np.cumsum(avg[band] * wgp[band])[-1])
            shared = dict(part=int(part[band[0]]), r=rb, k=kb, cube_count=count, band_sum=band_sum)

            if kb <= 10 * (1 << rb):
                constant = 0.0 if band_sum == 0.0 else band_sum / rhs if rhs else math.inf
                band_records.append(BandRecord(
                    regime="coarse", **shared, coarse_constant=constant,
                    coarse_ok=constant <= CONSTANT_BOUND * (1.0 + REL_TOL),
                ))
            else:
                # Disjointness sums <f>_Q w(E_Q' ∩ G') over members Q and
                # class members Q' inside Q; per Q' that is w(E_Q' ∩ G')
                # times <f> summed over Q' and its class ancestors, added
                # root first.
                owner = _cells(n, level[band], index[band], np.arange(1, count + 1))
                eq_w = np.bincount(owner, weights=wgp_cells, minlength=count + 1)
                chain = _down(band_parent, avg, np.add, 0.0, levels)[band]
                disjoint_sum = _dot(chain, eq_w[1:] * cell_width)
                disjoint_limit = CONSTANT_BOUND * (2.0 ** (-kb)) * (1.0 + REL_TOL)
                band_records.append(BandRecord(
                    regime="far", **shared, disjoint_constant=disjoint_sum * (2.0 ** kb),
                    disjoint_ok=(disjoint_sum == 0.0) or (disjoint_sum <= disjoint_limit),
                ))

    reason = np.full(level.size, None)
    reason[zero] = "zero-average"
    reason[above] = "above-threshold"
    kept = [np.where(classified, col, None) for col in (r, k, generation)]
    by_part = np.argsort(part, kind="stable")
    return ProofReplayReport(
        resolution=n, normalization=denom, w_g=w_g, w_h=w_h, w_gprime=w_gprime,
        threshold=threshold,
        fs_ok=w_h <= 0.25 * w_g * (1.0 + REL_TOL),
        doubling_ok=w_g <= 2.0 * w_gprime * (1.0 + REL_TOL),
        cube_columns=tuple(
            tuple(col[by_part].tolist()) for col in (level, index, part, *kept, reason)
        ),
        band_records=band_records,
    )
