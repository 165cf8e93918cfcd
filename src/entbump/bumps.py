"""Bump functions, their summability constants, and bump-averaged norms.

All logarithms here are the shifted base-2 logarithm

    shifted_log2(t) = log2(2 + t),

which is >= 1 everywhere, equals 1 at t = 0, and satisfies
shifted_log2(2^k) ~ k. Entropy bumps eps are increasing maps [1, inf) ->
[1, inf) from a small catalog; Orlicz bumps Phi are increasing Young-type
functions with Phi(0) = 0. Both are parsed from compact spec strings, e.g.
``log_pow:2`` or ``dlr:delta=1``.

The bump summability constant is

    k_epsilon(eps) = sum_{k>=0} eps(2^{2^k})^-1        (tower scale)

with a dyadic-scale variant sum_{k>=-1} eps(2^k)^-1 also exposed. Terms are
evaluated through shifted_log2(2^{2^k}) = 2^k + log2(1 + 2^{1-2^k}), so the
doubly exponential arguments never materialize.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BracketingError, InvalidCubeError, InvalidSpecError
from .grid import (
    DyadicCube,
    GridFunction,
    level_averages,
    paint_down,
    reduce_up,
    require_weight,
    split_levels,
)
from .weights import rho_all

_LN2 = math.log(2.0)
_LOG2_3 = float(np.log2(3.0))


def shifted_log2(t):
    """log2(2 + t) for t >= 0; accepts scalars or arrays."""
    arr = np.asarray(t, dtype=np.float64)
    if np.any(arr < 0):
        raise ValueError("shifted_log2 domain is t >= 0")
    out = np.log2(2.0 + arr)
    return float(out) if np.isscalar(t) or arr.ndim == 0 else out


def _tower_log(k: int) -> float:
    """shifted_log2(2^{2^k}) without forming 2^{2^k}."""
    e = 2.0 ** k
    if e == math.inf:
        return math.inf
    corr = 2.0 ** (1.0 - e) if e < 1070.0 else 0.0
    return e + math.log1p(corr) / _LN2


def _pow2_log(k: int) -> float:
    """shifted_log2(2^k) for any integer k (k = -1 included)."""
    if k <= 50:
        return math.log2(2.0 + 2.0 ** k)
    return k + math.log1p(2.0 ** (1 - k)) / _LN2


_EPS_PRIMARY = {"constant": "c", "log_pow": "p", "loglog": "delta"}
_PHI_PRIMARY = {"power": "r", "llog": "delta", "dlr": "delta"}


def _parse_spec_string(text: str, kind: str, primary: dict) -> tuple[str, dict]:
    name, _, rest = text.strip().partition(":")
    name = name.strip()
    if not name:
        raise InvalidSpecError(f"empty {kind} spec {text!r}")
    params: dict[str, float] = {}
    if rest.strip():
        for item in rest.split(","):
            item = item.strip()
            if not item:
                raise InvalidSpecError(f"empty parameter in {kind} spec {text!r}")
            if "=" in item:
                key, _, val = item.partition("=")
                key = key.strip()
            else:
                key = primary.get(name)
                if key is None:
                    raise InvalidSpecError(
                        f"{kind} member {name!r} takes no bare parameter"
                    )
                val = item
            if key in params:
                raise InvalidSpecError(f"duplicate parameter {key!r} in {text!r}")
            try:
                params[key] = float(val)
            except ValueError:
                raise InvalidSpecError(
                    f"non-numeric parameter {item!r} in {kind} spec {text!r}"
                ) from None
    return name, params


def _check_increasing(func, lo: float, label: str) -> None:
    """Sample on a log-spaced grid; reject decreasing or sub-1 values."""
    grid = np.concatenate(([lo], lo + np.logspace(-3, 9, 25)))
    vals = np.asarray([float(func(t)) for t in grid])
    if np.any(np.diff(vals) < -1e-12 * np.abs(vals[:-1])):
        raise InvalidSpecError(f"{label} is not nondecreasing")


def _check_eps_domain(arr: np.ndarray) -> None:
    """An entropy bump's domain is t >= 1, up to float noise in rho."""
    if (arr < 1.0 - 1e-9).any():
        raise ValueError("bump domain is t >= 1")


@dataclass(frozen=True)
class EpsilonSpec:
    """An entropy bump: a named increasing map [1, inf) -> [1, inf).

    Catalog: ``constant`` (c >= 1), ``log_pow`` (shifted_log2(t)^p),
    ``loglog`` (shifted_log2(shifted_log2 t) *
    shifted_log2(shifted_log2(shifted_log2 t))^{1+delta}).
    """

    name: str
    params: tuple

    def __post_init__(self):
        p = dict(self.params)
        if self.name == "constant":
            keys, c = {"c"}, p.get("c")
            if set(p) != keys or c is None or c < 1.0:
                raise InvalidSpecError(f"constant bump needs c >= 1, got {p}")
        elif self.name == "log_pow":
            if set(p) != {"p"} or p["p"] < 0.0:
                raise InvalidSpecError(f"log_pow bump needs p >= 0, got {p}")
        elif self.name == "loglog":
            if set(p) != {"delta"} or p["delta"] < 0.0:
                raise InvalidSpecError(f"loglog bump needs delta >= 0, got {p}")
        else:
            raise InvalidSpecError(f"unknown bump {self.name!r}")
        object.__setattr__(self, "params", tuple(sorted(p.items())))
        object.__setattr__(self, "_p", p)
        _check_increasing(self, 1.0, f"bump {self.serialize()!r}")

    @classmethod
    def constant(cls, c: float) -> "EpsilonSpec":
        return cls("constant", (("c", float(c)),))

    @classmethod
    def log_pow(cls, p: float) -> "EpsilonSpec":
        return cls("log_pow", (("p", float(p)),))

    @classmethod
    def loglog(cls, delta: float) -> "EpsilonSpec":
        return cls("loglog", (("delta", float(delta)),))

    @classmethod
    def parse(cls, text: str) -> "EpsilonSpec":
        name, params = _parse_spec_string(text, "bump", _EPS_PRIMARY)
        return cls(name, tuple(sorted(params.items())))

    def serialize(self) -> str:
        items = ",".join(f"{k}={v!r}" for k, v in self.params)
        return f"{self.name}:{items}" if items else self.name

    def _eval_from_log(self, first_log, out=None):
        """Evaluate the bump given L1 = shifted_log2(t); with ``out``, an
        array of first_log's shape (first_log itself allowed), the values
        go there."""
        p = self._p
        if self.name == "constant":
            if out is not None:
                out.fill(p["c"])
                return out
            like = np.asarray(first_log, dtype=np.float64)
            return np.full_like(like, p["c"]) if like.ndim else p["c"]
        if self.name == "log_pow":
            return np.power(first_log, p["p"], out=out)
        if out is None:
            second = np.log2(2.0 + np.asarray(first_log, dtype=np.float64))
        else:
            second = np.log2(np.add(2.0, first_log, out=out), out=out)
        third = np.log2(2.0 + second)
        return np.multiply(second, np.power(third, 1.0 + p["delta"]), out=out)

    def __call__(self, t):
        arr = np.asarray(t, dtype=np.float64)
        _check_eps_domain(arr)
        # values an ulp below 1 (float noise in rho) are clipped to 1
        arr = np.maximum(arr, 1.0)
        out = self._eval_from_log(np.log2(2.0 + arr))
        return float(out) if np.isscalar(t) or arr.ndim == 0 else out

    def at_tower(self, k: int) -> float:
        """eps(2^{2^k})."""
        return float(self._eval_from_log(_tower_log(k)))

    def at_pow2(self, k: int) -> float:
        """eps(2^k), defined for k >= -1."""
        return float(self._eval_from_log(_pow2_log(k)))


@dataclass(frozen=True)
class OrliczSpec:
    """An Orlicz bump Phi: increasing on (0, inf) with Phi(0) = 0.

    Catalog: ``power`` (t^r), ``llog`` (t * shifted_log2(t)^{1+delta}),
    ``dlr`` (t * shifted_log2(shifted_log2 t) *
    shifted_log2(shifted_log2(shifted_log2 t))^{1+delta}), and ``logprod``
    (t times a product of iterated shifted logs with exponents e1..e4).
    """

    name: str
    params: tuple

    def __post_init__(self):
        p = dict(self.params)
        if self.name == "power":
            if set(p) != {"r"} or p["r"] <= 0.0:
                raise InvalidSpecError(f"power bump needs r > 0, got {p}")
        elif self.name in ("llog", "dlr"):
            if set(p) != {"delta"} or p["delta"] < 0.0:
                raise InvalidSpecError(f"{self.name} bump needs delta >= 0, got {p}")
        elif self.name == "logprod":
            allowed = {"e1", "e2", "e3", "e4"}
            if not p or not set(p) <= allowed:
                raise InvalidSpecError(
                    f"logprod bump takes exponents e1..e4, got {p}"
                )
            if any(v < 0.0 for v in p.values()):
                raise InvalidSpecError("logprod exponents must be >= 0")
        else:
            raise InvalidSpecError(f"unknown Orlicz bump {self.name!r}")
        object.__setattr__(self, "params", tuple(sorted(p.items())))
        object.__setattr__(self, "_p", p)
        _check_increasing(self, 0.0, f"Orlicz bump {self.serialize()!r}")

    @classmethod
    def power(cls, r: float) -> "OrliczSpec":
        return cls("power", (("r", float(r)),))

    @classmethod
    def llog(cls, delta: float) -> "OrliczSpec":
        return cls("llog", (("delta", float(delta)),))

    @classmethod
    def dlr(cls, delta: float) -> "OrliczSpec":
        return cls("dlr", (("delta", float(delta)),))

    @classmethod
    def logprod(cls, **exponents) -> "OrliczSpec":
        return cls("logprod", tuple(sorted((k, float(v)) for k, v in exponents.items())))

    @classmethod
    def parse(cls, text: str) -> "OrliczSpec":
        name, params = _parse_spec_string(text, "Orlicz", _PHI_PRIMARY)
        return cls(name, tuple(sorted(params.items())))

    def serialize(self) -> str:
        items = ",".join(f"{k}={v!r}" for k, v in self.params)
        return f"{self.name}:{items}" if items else self.name

    def __call__(self, t):
        arr = np.asarray(t, dtype=np.float64)
        if (arr < 0.0).any():
            raise ValueError("Orlicz bump domain is t >= 0")
        p = self._p
        if self.name == "power":
            out = np.power(arr, p["r"])
        elif self.name == "llog":
            out = arr * np.power(np.log2(2.0 + arr), 1.0 + p["delta"])
        elif self.name == "dlr":
            l2 = np.log2(2.0 + np.log2(2.0 + arr))
            l3 = np.log2(2.0 + l2)
            out = arr * l2 * np.power(l3, 1.0 + p["delta"])
        else:
            out = arr.astype(np.float64, copy=True)
            log_i = arr
            for i in range(1, 5):
                log_i = np.log2(2.0 + log_i)
                e = p.get(f"e{i}", 0.0)
                if e:
                    out = out * np.power(log_i, e)
        return float(out) if np.isscalar(t) or arr.ndim == 0 else out


@dataclass(frozen=True)
class KEpsilonResult:
    value: float
    terms_used: int
    diverged: bool


def k_epsilon(
    eps: EpsilonSpec,
    tol: float = 1e-12,
    max_terms: int = 128,
    scale: str = "tower",
) -> KEpsilonResult:
    """Partial sum of the bump summability series.

    ``scale="tower"`` sums eps(2^{2^k})^-1 over k >= 0 (the default);
    ``scale="dyadic"`` sums eps(2^k)^-1 over k >= -1. Terms accumulate until
    one drops below tol or max_terms is reached; the diverged flag is set
    when max_terms is hit with nondecreasing terms (e.g. a constant bump),
    in which case the value is a partial sum only.
    """
    if scale not in ("tower", "dyadic"):
        raise InvalidSpecError(f"unknown k_epsilon scale {scale!r}")
    if not tol > 0 or max_terms < 1:
        raise ValueError("tol must be positive and max_terms >= 1")
    term_at = eps.at_tower if scale == "tower" else eps.at_pow2
    start = 0 if scale == "tower" else -1
    total = 0.0
    used = 0
    prev = None
    nondecreasing = True
    hit_max = False
    for k in range(start, start + max_terms):
        e = term_at(k)
        term = 0.0 if e == math.inf else 1.0 / e
        total += term
        used += 1
        if prev is not None and term < prev - 1e-300:
            nondecreasing = False
        prev = term
        if term < tol:
            break
    else:
        hit_max = True
    return KEpsilonResult(total, used, hit_max and nondecreasing)


def _entropy_levels(w: GridFunction, eps: EpsilonSpec, variant: str, table=None) -> list:
    """Entropy-bumped average of w on every cube, one array per level, from
    one rho_all: w's RhoTable ``table``, or a fresh one (which validates w)
    when None.

    ``full``: <w>_Q * rho_w(Q) * eps(rho_w(Q));
    ``log``:  <w>_Q * shifted_log2(rho_w(Q)) * eps(rho_w(Q)).
    Vacuous cubes give 0.

    The levels are views of one flat array. Per level, log2(2 + rho) and
    then eps of it go through one cell-size buffer, and ``rho < 1`` through
    one boolean buffer. Vacuous cubes keep their NaN rho, which passes the
    domain check and is zeroed at the end.
    """
    if variant not in ("full", "log"):
        raise ValueError(f"unknown entropy norm variant {variant!r}")
    if table is None:
        table = rho_all(w)
    norms = split_levels(np.empty((2 << w.resolution) - 1), w.resolution)
    log_buf, low_buf = np.empty(w.n_cells), np.empty(w.n_cells, dtype=bool)
    for avg, r, vac, vals in zip(level_averages(w.values), table.values, table.vacuous, norms):
        low = np.less(r, 1.0, out=low_buf[: r.size])
        log_r = np.add(2.0, r, out=log_buf[: r.size])
        np.log2(log_r, out=log_r)
        np.multiply(avg, r if variant == "full" else log_r, out=vals)
        if low.any():
            _check_eps_domain(r[low])
            # eps(r) clips r to 1 before its log, and shifted_log2(1) = log2(3)
            log_r[low] = _LOG2_3
        vals *= eps._eval_from_log(log_r, out=log_r)
        vals[vac] = 0.0
    return norms


_WIDTH = 4e-16  # machine bracket width: a row is solved once hi - lo <= _WIDTH * hi
_SLACK = 1e-9  # relative float slack of the Phi-mean monotonicity checks


def _phi_means(phi, blocks: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """<Phi(w/lam)>_Q of every row of ``blocks``, each at its own lam (the
    bits of np.mean, without its per-call overhead)."""
    return np.add.reduce(phi(blocks / lam[:, None]), axis=1) / blocks.shape[1]


def _search(blocks: np.ndarray, lam0: np.ndarray, phi) -> tuple:
    """Geometric bracket (lo, hi, Phi-mean at lo, Phi-mean at hi) of every
    row's unit Phi-mean, grown from lam0 = <w>_Q.

    Rows above the unit mean at lam0 double hi, the others halve lo, at most
    60 steps each way; lam0 stays the other end. A Phi-mean that moves the
    wrong way by more than the float slack raises InvalidSpecError.
    """
    m0 = _phi_means(phi, blocks, lam0)
    up = m0 > 1.0
    probe, m_probe = lam0.copy(), m0.copy()
    rows = np.arange(lam0.size)
    for _ in range(60):
        rising = up[rows]
        probe[rows] *= np.where(rising, 2.0, 0.5)
        m = _phi_means(phi, blocks[rows], probe[rows])
        prev = m_probe[rows]
        if np.any(np.where(rising, m > prev * (1.0 + _SLACK),
                           (m < prev * (1.0 - _SLACK)) & (m < 1.0))):
            raise InvalidSpecError("Phi-mean is not decreasing in lambda")
        m_probe[rows] = m
        rows = rows[~np.where(rising, m <= 1.0, m >= 1.0)]
        if rows.size == 0:
            break
    else:
        side = "above" if up[rows[0]] else "below"
        raise BracketingError(f"could not bracket the unit Phi-mean from {side}")
    return (np.where(up, lam0, probe), np.where(up, probe, lam0),
            np.where(up, m0, m_probe), np.where(up, m_probe, m0))


def _illinois(blocks: np.ndarray, phi, lo, hi, m_lo, m_hi) -> tuple:
    """Close every row's bracket, Phi-mean > 1 at lo and <= 1 at hi, to
    machine width; returns the final hi ends and their Phi-means.

    Each step is the regula falsi point of Phi-mean - 1 on [lo, hi], with
    the retained end's value halved when the same end moves twice running
    (the Illinois rule). A point that is not finite falls back to the
    midpoint, and every point keeps 2e-16 hi away from both ends, so a step
    next to the root crosses it instead of creeping up to it at the noise
    floor. All open rows share one Phi call per step.
    """
    out, m_out = hi.copy(), m_hi.copy()
    rows = np.arange(hi.size)
    f_lo, f_hi = m_lo - 1.0, m_hi - 1.0
    last = np.zeros(hi.size)  # +1: lo moved last, -1: hi moved last
    for _ in range(200):
        done = hi - lo <= _WIDTH * hi
        if done.any():
            out[rows[done]], m_out[rows[done]] = hi[done], m_hi[done]
            keep = ~done
            rows, lo, hi, f_lo, f_hi, m_hi, last = (
                a[keep] for a in (rows, lo, hi, f_lo, f_hi, m_hi, last))
            blocks = blocks[keep]
        if rows.size == 0:
            break
        x = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        x = np.where(np.isfinite(x), x, 0.5 * (lo + hi))
        pad = 0.5 * _WIDTH * hi  # 2e-16 hi; an open row has room for both pads
        x = np.minimum(np.maximum(x, lo + pad), hi - pad)
        m = _phi_means(phi, blocks, x)
        above = m > 1.0
        f_lo = np.where(above, m - 1.0, np.where(last < 0, 0.5 * f_lo, f_lo))
        f_hi = np.where(above, np.where(last > 0, 0.5 * f_hi, f_hi), m - 1.0)
        lo, hi = np.where(above, x, lo), np.where(above, hi, x)
        m_hi = np.where(above, m_hi, m)
        last = np.where(above, 1.0, -1.0)
    out[rows], m_out[rows] = hi, m_hi
    return out, m_out


def _level_orlicz(blocks: np.ndarray, phi, tol: float, lo=None, hi=None) -> np.ndarray:
    """Luxemburg norm inf{lam > 0 : <Phi(w/lam)>_Q <= 1} of every row of
    ``blocks``, one row per cube of a level.

    Zero-mean rows give 0. ``lo`` / ``hi`` bracket each row's norm, as the
    min / max of its two children's norms do: the Phi-means at both ends
    come from one Phi call, a bracket already at machine width keeps its hi
    end, and an open one goes to the Illinois steps if its ends straddle
    the unit mean. Every other row, and every row when no bracket is given,
    is bracketed by the geometric search from <w>_Q first. A Phi-mean lower
    at lo than at hi beyond the float slack raises InvalidSpecError. The
    result is the hi end, certified by |<Phi(w/lam)>_Q - 1| <= tol.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    lam0 = np.mean(blocks, axis=1)
    out = np.zeros(len(blocks))
    live = np.flatnonzero(lam0 != 0.0)
    if live.size == 0:
        return out
    if live.size < lam0.size:
        blocks, lam0 = blocks[live], lam0[live]
    # Phi of a huge w / lam may overflow to inf; a step from an infinite
    # Phi-mean falls back to the midpoint.
    with np.errstate(over="ignore", invalid="ignore"):
        if lo is None:
            lo, hi, m_lo, m_hi = _search(blocks, lam0, phi)
            solve = slice(None)
        else:
            lo, hi = lo[live], hi[live]
            is_open = hi - lo > _WIDTH * hi
            ends = np.flatnonzero(is_open & (lo > 0.0))
            m = _phi_means(phi, np.concatenate((blocks, blocks[ends])),
                           np.concatenate((hi, lo[ends])))
            m_hi, m_lo = m[:hi.size], np.full(hi.size, math.nan)
            m_lo[ends] = m[hi.size:]
            if np.any(m_lo < m_hi * (1.0 - _SLACK)):
                raise InvalidSpecError("Phi-mean is not decreasing in lambda")
            redo = np.flatnonzero(is_open & ~((m_lo > 1.0) & (m_hi <= 1.0)))
            if redo.size:
                lo[redo], hi[redo], m_lo[redo], m_hi[redo] = _search(blocks[redo], lam0[redo], phi)
            solve = np.flatnonzero(is_open)
        hi[solve], m_hi[solve] = _illinois(blocks[solve], phi, lo[solve], hi[solve],
                                           m_lo[solve], m_hi[solve])
    gap = np.abs(m_hi - 1.0)
    if not np.all(gap <= tol):
        raise BracketingError(
            f"bisection stalled with |Phi-mean - 1| = {np.max(gap):.3e} > tol"
        )
    out[live] = hi
    return out


def orlicz_norm(
    w: GridFunction,
    cube: DyadicCube,
    phi: OrliczSpec,
    tol: float = 1e-10,
) -> float:
    """Luxemburg norm inf{lam > 0 : <Phi(w/lam)>_Q <= 1} of w on one cube.

    A one-row call of the level solver ``_level_orlicz``: geometric
    bracketing from lam0 = <w>_Q, Illinois steps to machine bracket width,
    and the certificate |<Phi(w/lam)>_Q - 1| <= tol, checked before the
    value is returned (BracketingError otherwise). Identically-zero w on Q
    gives 0.
    """
    require_weight(w)
    a, b = cube.cell_range(w.resolution)
    return float(_level_orlicz(w.values[a:b][None, :], phi, tol)[0])


def m_entropy(
    w: GridFunction,
    eps: EpsilonSpec,
    collections=None,
    variant: str = "log",
) -> GridFunction:
    """Entropy-bump maximal function: per cell, the max of the entropy-bumped
    averages (``_entropy_levels``) over the cubes containing it.

    ``collections`` is an optional nonempty list of SparseCollections (read
    through ``members``, one boolean array per level), whose union is the
    cube set; None means all dyadic cubes of the grid. Cells covered by no
    cube get 0. A member finer than w's grid raises InvalidCubeError.
    """
    norms = _entropy_levels(w, eps, variant)
    if collections is not None:
        if not isinstance(collections, (list, tuple)) or len(collections) == 0:
            raise ValueError("collections must be a nonempty list of cube sets")
        allowed = [np.zeros(v.size, dtype=bool) for v in norms]
        for coll in collections:
            if any(mem.any() for mem in coll.members[len(norms):]):
                raise InvalidCubeError(f"a member is finer than resolution {w.resolution}")
            for ok, mem in zip(allowed, coll.members):
                ok |= mem
        norms = [np.where(ok, v, -math.inf) for ok, v in zip(allowed, norms)]
    out = paint_down(norms, np.maximum)[-1]
    if collections is not None:
        # -inf marks the cells no member covers; with all cubes there are none
        out = np.where(np.isneginf(out), 0.0, out)
    return GridFunction._adopt(w.resolution, out)


def m_orlicz(w: GridFunction, phi: OrliczSpec, tol: float = 1e-10) -> GridFunction:
    """Orlicz maximal function: per cell, sup of orlicz_norm over all dyadic
    cubes containing it.

    One ``_level_orlicz`` call per level solves all 2^l cubes of level l at
    once on the (2^l, 2^(n-l)) view of w, from the finest level up. A
    parent's Phi-mean is the mean of its children's, each decreasing in
    lambda, so its norm lies between theirs: level l starts from the
    pairwise min / max of level l+1's norms. Every cube's certificate
    |<Phi(w/lam)>_Q - 1| <= tol is checked inside that call, so a level with
    one uncertified cube raises BracketingError.
    """
    require_weight(w)

    def parent(left, right):
        blocks = w.values.reshape(left.size, -1)
        return _level_orlicz(blocks, phi, tol, np.minimum(left, right), np.maximum(left, right))

    per_level = reduce_up(_level_orlicz(w.values[:, None], phi, tol), parent)
    return GridFunction(w.resolution, paint_down(per_level, np.maximum)[-1])


def m_coeff(f: GridFunction, alpha, cubes) -> GridFunction:
    """Coefficient maximal function: per cell, max over the member cubes Q
    containing it of alpha[Q] * <|f|>_Q; 0 where no member covers.

    ``cubes`` is a SparseCollection (read through ``members``, one boolean
    array per level); ``SparseCollection(n, cubes)`` converts DyadicCubes.
    ``alpha[l]`` is the float array of level-l coefficients, length 2^l;
    entries off the members are ignored. Per level, one product over the
    members' indices, then a downward max paint. A product that is NaN (an
    infinite coefficient on a zero average) counts as no value.

    Raises InvalidCubeError when a member is finer than f's grid (a coarser
    collection is fine), and ValueError when a level holding members has no
    coefficient array or one of the wrong length, or when a member's
    coefficient is NaN (missing) or negative.
    """
    n = f.resolution
    avgs = level_averages(np.abs(f.values))
    per_level = [np.full(1 << level, -math.inf) for level in range(n + 1)]
    with np.errstate(invalid="ignore"):  # inf * 0 products, dropped below
        for level, mem in enumerate(cubes.members):
            idx = mem.nonzero()[0]
            if not idx.size:
                continue
            if level > n:
                raise InvalidCubeError(f"cube level {level} exceeds resolution {n}")
            coeff = np.asarray(alpha[level], dtype=np.float64) if level < len(alpha) else None
            if coeff is None or coeff.shape != mem.shape:
                raise ValueError(f"alpha[{level}] must hold {mem.size} coefficients")
            coeff = coeff[idx]
            bad = ~(coeff >= 0.0)
            if bad.any():
                first = int(np.argmax(bad))
                cube = DyadicCube(level, int(idx[first]))
                what = "missing" if math.isnan(coeff[first]) else "negative"
                raise ValueError(f"coefficient for {cube} is {what}")
            vals = coeff * avgs[level][idx]
            vals[np.isnan(vals)] = -math.inf
            per_level[level][idx] = vals
    out = paint_down(per_level, np.maximum)[-1]
    out = np.where(np.isneginf(out), 0.0, out)
    return GridFunction(n, out)
