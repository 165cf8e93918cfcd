"""Bump functions, their summability constants, and bump-averaged norms.

All logarithms here are the shifted base-2 logarithm

    shifted_log2(t) = log2(2 + t),

which is >= 1 everywhere, equals 1 at t = 0, and satisfies
shifted_log2(2^k) ~ k. Every bump is a row of one catalog of iterated-log
products

    c * t^a * L1(t)^e1 * L2(t)^e2 * L3(t)^e3 * L4(t)^e4,

Lk the k-fold shifted_log2. Entropy bumps eps (a = 0) are increasing maps
[1, inf) -> [1, inf); Orlicz bumps Phi (a > 0) are increasing Young-type
functions with Phi(0) = 0. Both are parsed from compact spec strings, e.g.
``log_pow:2`` or ``dlr:delta=1``.

The bump summability constant is

    k_epsilon(eps) = sum_{k>=0} eps(2^{2^k})^-1.

Terms are evaluated through shifted_log2(2^{2^k}) = 2^k + log2(1 +
2^{1-2^k}), so the doubly exponential arguments never materialize.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import BracketingError, InvalidCubeError, InvalidSpecError, InvalidWeightError
from .grid import (
    DyadicCube,
    GridFunction,
    paint_leaves,
    reduce_up,
    require_weight,
)
from .weights import _rho_levels

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
    """shifted_log2(2^{2^k}) without forming 2^{2^k}; inf once 2^k
    overflows."""
    if k >= 1024:
        return math.inf
    e = 2.0 ** k
    corr = 2.0 ** (1.0 - e) if e < 1070.0 else 0.0
    return e + math.log1p(corr) / _LN2


def _check_eps_domain(arr: np.ndarray) -> None:
    """An entropy bump's domain is t >= 1, up to float noise in rho."""
    if (arr < 1.0 - 1e-9).any():
        raise ValueError("bump domain is t >= 1")


# Catalog rows: name -> (parameter names, a bare value binding the first;
# their lower bound; whether the bound is strict; the form (c, a, (e1, ..))
# of the parameters). Parameters are finite; unnamed logprod exponents are 0.
# The bounds give c >= 1, a >= 0 and log exponents >= 0, and every Lk >= 1,
# so every row is a product of nondecreasing factors: each bump is
# nondecreasing, and each eps is >= 1 on [1, inf). Parsing checks only the
# bounds.
_EPS_CATALOG = {
    "constant": (("c",), 1.0, False, lambda c: (c, 0.0, ())),
    "log_pow": (("p",), 0.0, False, lambda p: (1.0, 0.0, (p,))),
    "loglog": (("delta",), 0.0, False, lambda delta: (1.0, 0.0, (0.0, 1.0, 1.0 + delta))),
}
_PHI_CATALOG = {
    "power": (("r",), 0.0, True, lambda r: (1.0, r, ())),
    "llog": (("delta",), 0.0, False, lambda delta: (1.0, 1.0, (1.0 + delta,))),
    "dlr": (("delta",), 0.0, False, lambda delta: (1.0, 1.0, (0.0, 1.0, 1.0 + delta))),
    "logprod": (("e1", "e2", "e3", "e4"), 0.0, False,
                lambda e1=0.0, e2=0.0, e3=0.0, e4=0.0: (1.0, 1.0, (e1, e2, e3, e4))),
}


@dataclass(frozen=True)
class _Bump:
    """A catalog row with its parameters. A subclass sets the catalog, the
    kind named in errors and the depth its evaluator starts from: 0 from t,
    1 from L1(t)."""

    name: str
    params: tuple

    def __post_init__(self):
        row = self._CATALOG.get(self.name)
        if row is None:
            raise InvalidSpecError(f"unknown {self._KIND} {self.name!r}")
        names, low, strict, form = row
        p = dict(self.params)
        if not p or not set(p) <= set(names):
            raise InvalidSpecError(f"{self.name} bump takes {'/'.join(names)}, got {p}")
        if not all(math.isfinite(v) and (v > low if strict else v >= low) for v in p.values()):
            bound = f"{'>' if strict else '>='} {low:g}"
            raise InvalidSpecError(f"{self.name} bump needs finite {'/'.join(names)} {bound}, got {p}")
        c, a, logs = form(**p)
        object.__setattr__(self, "params", tuple(sorted(p.items())))
        object.__setattr__(self, "_c", c)
        factors = tuple((k, e) for k, e in enumerate((a,) + logs) if e and k >= self._DEPTH)
        object.__setattr__(self, "_factors", factors)
        object.__setattr__(self, "_last", factors[-1][0] if factors else None)

    @classmethod
    def parse(cls, text: str):
        name, _, rest = text.strip().partition(":")
        name = name.strip()
        if not name:
            raise InvalidSpecError(f"empty {cls._KIND} spec {text!r}")
        if name not in cls._CATALOG:
            raise InvalidSpecError(f"unknown {cls._KIND} {name!r}")
        params: dict[str, float] = {}
        for item in rest.split(",") if rest.strip() else ():
            item = item.strip()
            if not item:
                raise InvalidSpecError(f"empty parameter in {cls._KIND} spec {text!r}")
            if "=" in item:
                key, _, val = item.partition("=")
                key = key.strip()
            else:
                key, val = cls._CATALOG[name][0][0], item  # the row's first name
            if key in params:
                raise InvalidSpecError(f"duplicate parameter {key!r} in {text!r}")
            try:
                params[key] = float(val)
            except ValueError:
                raise InvalidSpecError(
                    f"non-numeric parameter {item!r} in {cls._KIND} spec {text!r}"
                ) from None
        return cls(name, tuple(params.items()))

    def serialize(self) -> str:
        items = ",".join(f"{k}={v!r}" for k, v in self.params)
        return f"{self.name}:{items}" if items else self.name

    def _product(self, x, out=None):
        """The bump's product from x = L_depth (L0 = t), into ``out`` (a new
        array when None; x itself allowed), which is returned.

        The factors are multiplied left to right, then c; a factor with
        exponent 1 skips np.power, one with exponent 0 is left out. The logs
        go into one scratch array, the last one into ``out`` unless that
        holds the partial product, and the last power overwrites its log.
        """
        if out is None:
            out = np.empty_like(x)
        if not self._factors:
            out.fill(self._c)
            return out
        acc = None  # the partial product; None stands for 1
        log, depth, spare, last = x, self._DEPTH, None, self._last
        for k, e in self._factors:
            while depth < k:
                depth += 1
                if depth == last and acc is not out:
                    dest = out
                else:
                    if spare is None or spare is acc:
                        spare = np.empty_like(out)
                    dest = spare
                log = np.log2(np.add(2.0, log, dest), dest)
            if e == 1.0:
                term = log
            elif k == last:
                # x is read-only unless it is out, and is only the last
                # log when it is the first factor, so out is still free
                term = np.power(log, e, out if log is x else log)
            else:
                term = np.power(log, e)
            acc = term if acc is None else np.multiply(acc, term, out)
        if acc is not out:
            np.copyto(out, acc)
        if self._c != 1.0:
            np.multiply(out, self._c, out)
        return out


class EpsilonSpec(_Bump):
    """An entropy bump: an increasing map [1, inf) -> [1, inf).

    Catalog: ``constant:c`` (c >= 1), ``log_pow:p`` (L1^p) and
    ``loglog:delta`` (L2 * L3^{1+delta}).
    """

    _CATALOG, _KIND, _DEPTH = _EPS_CATALOG, "bump", 1

    @classmethod
    def constant(cls, c: float) -> "EpsilonSpec":
        return cls("constant", (("c", float(c)),))

    @classmethod
    def log_pow(cls, p: float) -> "EpsilonSpec":
        return cls("log_pow", (("p", float(p)),))

    @classmethod
    def loglog(cls, delta: float) -> "EpsilonSpec":
        return cls("loglog", (("delta", float(delta)),))

    def _eval_from_log(self, first_log, out=None):
        """Evaluate the bump given L1 = shifted_log2(t); with ``out``, an
        array of first_log's shape (first_log itself allowed), the values
        go there."""
        return self._product(first_log, out)

    def __call__(self, t):
        arr = np.asarray(t, dtype=np.float64)
        _check_eps_domain(arr)
        # values an ulp below 1 (float noise in rho) are clipped to 1
        out = self._product(np.log2(2.0 + np.maximum(arr, 1.0)))
        return float(out) if np.isscalar(t) or arr.ndim == 0 else out

    def at_tower(self, k: int) -> float:
        """eps(2^{2^k})."""
        return float(self._product(_tower_log(k)))


class OrliczSpec(_Bump):
    """An Orlicz bump Phi: increasing on (0, inf) with Phi(0) = 0.

    Catalog: ``power:r`` (t^r, r > 0), ``llog:delta`` (t * L1^{1+delta}),
    ``dlr:delta`` (t * L2 * L3^{1+delta}) and ``logprod:e1=..,e4=..``
    (t * L1^e1 * L2^e2 * L3^e3 * L4^e4).
    """

    _CATALOG, _KIND, _DEPTH = _PHI_CATALOG, "Orlicz bump", 0

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
        return cls("logprod", tuple((k, float(v)) for k, v in exponents.items()))

    def __call__(self, t):
        arr = np.asarray(t, dtype=np.float64)
        if (arr < 0.0).any():
            raise ValueError("Orlicz bump domain is t >= 0")
        out = self._product(arr)
        return float(out) if np.isscalar(t) or arr.ndim == 0 else out


@dataclass(frozen=True)
class KEpsilonResult:
    value: float
    terms_used: int
    diverged: bool


def k_epsilon(eps: EpsilonSpec, tol: float = 1e-12, max_terms: int = 128) -> KEpsilonResult:
    """Partial sum of the bump summability series sum_{k>=0} eps(2^{2^k})^-1.

    Terms accumulate until one drops below tol or max_terms is reached; the
    diverged flag is set when max_terms is hit with nondecreasing terms
    (e.g. a constant bump), in which case the value is a partial sum only.
    """
    if not tol > 0 or max_terms < 1:
        raise ValueError("tol must be positive and max_terms >= 1")
    total = 0.0
    used = 0
    prev = None
    nondecreasing = True
    hit_max = False
    for k in range(max_terms):
        e = eps.at_tower(k)
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


def _entropy_level(avg, r, vacuous, eps: EpsilonSpec, variant: str) -> np.ndarray:
    """The entropy-bumped averages of one level's cubes, from their
    averages ``avg``, their rho ``r`` and the ``vacuous`` mask:

    ``full``: <w>_Q * rho_w(Q) * eps(rho_w(Q));
    ``log``:  <w>_Q * shifted_log2(rho_w(Q)) * eps(rho_w(Q)).
    Vacuous cubes give 0.

    log2(2 + rho) and then eps of it go through one buffer. Vacuous cubes
    keep their NaN rho, which passes the domain check and is zeroed at the
    end. A product past float64's range raises InvalidWeightError
    (``_bumped``).
    """
    low = r < 1.0
    clip = low.any()
    if clip:
        _check_eps_domain(r[low])
    log_r = np.add(2.0, r)
    np.log2(log_r, out=log_r)
    vals = _bumped(avg, r if variant == "full" else log_r)
    if clip:
        # eps(r) clips r to 1 before its log, and shifted_log2(1) = log2(3)
        log_r[low] = _LOG2_3
    _bumped(vals, eps._eval_from_log(log_r, out=log_r), out=vals)
    vals[vacuous] = 0.0
    return vals


def _bumped(a, b, out=None):
    """a * b for the entropy-bumped averages, which scale with w: a product
    past float64's range raises InvalidWeightError."""
    try:
        with np.errstate(over="raise"):
            return np.multiply(a, b, out=out)
    except FloatingPointError:
        raise InvalidWeightError(
            "entropy-bumped averages overflow float64; rescale w (the majorant scales with w)"
        ) from None


def _entropy_levels(w: GridFunction, eps: EpsilonSpec, variant: str):
    """Entropy-bumped average of w on every cube, from one ``_rho_levels``
    sweep (which validates w): yields (level, rho, vacuous, norms) for the
    levels N, ..., 0, each level's norms (``_entropy_level``) made as soon
    as its rho is ready. An unknown ``variant`` raises ValueError at the
    call."""
    if variant not in ("full", "log"):
        raise ValueError(f"unknown entropy norm variant {variant!r}")
    return ((level, r, vac, _entropy_level(avg, r, vac, eps, variant))
            for level, avg, r, vac in _rho_levels(w))


_WIDTH = 4e-16  # machine bracket width: a row is solved once hi - lo <= _WIDTH * hi
_SLACK = 1e-9  # relative float slack of the Phi-mean monotonicity checks
# Most cells one group of levels, the leaves one level, hands a Phi call
# (m_orlicz): up to n = 10 all levels share one group, a group holds 8 at
# n = 11, 4 at n = 12 and 2 at n = 13, and from n = 14 on one level.
_GROUP_CELLS = 16384


def _rowset(blocks: list) -> tuple:
    """The row set of the 2D arrays ``blocks``: their rows, block by block,
    in one flat cell array, each row's width, and every block's shape."""
    runs = tuple([b.shape for b in blocks])
    cells = blocks[0].reshape(-1) if len(blocks) == 1 else np.concatenate([b.reshape(-1) for b in blocks])
    return cells, np.array([w for _, w in runs]).repeat([r for r, _ in runs]), runs


def _rows(rows: tuple, keep: np.ndarray) -> tuple:
    """The rows of a row set where the boolean ``keep`` (one per row) is
    true; blocks left empty are dropped."""
    cells, widths, runs = rows
    kept = np.add.reduceat(keep, list(accumulate((r for r, _ in runs[:-1]), initial=0)), dtype=np.intp)
    if len(runs) == 1:  # whole rows: several times faster than a cell mask
        cells = cells.reshape(runs[0]).compress(keep, axis=0).reshape(-1)
    else:
        cells = cells.compress(keep.repeat(widths))
    # from a list: tuple(<generator>) resizes, filling CPython's tuple free lists
    return cells, widths.compress(keep), tuple([(r, w) for r, (_, w) in zip(kept.tolist(), runs) if r])


def _row_means(rows: tuple, vals: np.ndarray) -> np.ndarray:
    """Every row's mean of ``vals``, cells laid out as the row set ``rows``:
    np.add.reduce per block on its (rows, width) view, so a row gets the
    bits np.mean gives it alone, then one division by the widths."""
    means = np.empty(rows[1].size)
    start = row = 0
    for r, w in rows[2]:
        np.add.reduce(vals[start : start + r * w].reshape(r, w), axis=1, out=means[row : row + r])
        start, row = start + r * w, row + r
    return np.divide(means, rows[1], out=means)


def _phi_means(phi, rows: tuple, lam: np.ndarray) -> np.ndarray:
    """<Phi(w/lam)>_Q of every row of the row set ``rows``, each at its own
    lam: all cells divided at once by lam repeated per cell, one Phi call on
    a (rows, width) array if every block has one width, flat otherwise."""
    cells, widths, runs = rows
    if len({w for _, w in runs}) == 1:
        vals = phi(np.divide(cells.reshape(-1, runs[0][1]), lam[:, None])).reshape(-1)
    else:
        vals = phi(np.divide(cells, lam.repeat(widths)))
    return _row_means(rows, vals)


def _search(rows: tuple, lam0: np.ndarray, phi) -> tuple:
    """Geometric bracket (lo, hi, Phi-mean at lo, Phi-mean at hi) of every
    row's unit Phi-mean, grown from lam0 (<w>_Q, or 1 for the unit norm).

    Rows above the unit mean at lam0 double hi, the others halve lo, at most
    60 steps each way; lam0 stays the other end. A Phi-mean that moves the
    wrong way by more than the float slack raises InvalidSpecError.
    """
    m0 = _phi_means(phi, rows, lam0)
    up = m0 > 1.0
    probe, m_probe = lam0.copy(), m0.copy()
    live = np.ones(lam0.size, dtype=bool)
    for _ in range(60):
        idx = np.flatnonzero(live)
        rising = up[idx]
        probe[idx] *= np.where(rising, 2.0, 0.5)
        m = _phi_means(phi, _rows(rows, live), probe[idx])
        prev = m_probe[idx]
        if np.any(np.where(rising, m > prev * (1.0 + _SLACK),
                           (m < prev * (1.0 - _SLACK)) & (m < 1.0))):
            raise InvalidSpecError("Phi-mean is not decreasing in lambda")
        m_probe[idx] = m
        live[idx[np.where(rising, m <= 1.0, m >= 1.0)]] = False
        if not live.any():
            break
    else:
        side = "above" if up[live][0] else "below"
        raise BracketingError(f"could not bracket the unit Phi-mean from {side}")
    return (np.where(up, lam0, probe), np.where(up, probe, lam0),
            np.where(up, m0, m_probe), np.where(up, m_probe, m0))


def _secant(lo, g_lo, hi, g_hi, out) -> np.ndarray:
    """The Illinois step's point of every open row, into ``out``, which is
    returned: the secant of g = log Phi-mean against log lambda, lo * (hi /
    lo)^t with t = g_lo / (g_lo - g_hi), evaluated through log1p and expm1
    so a bracket a few ulps wide keeps its resolution. A point that is not
    finite (a zero or infinite Phi-mean at an end) falls back to the
    midpoint, geometric on a bracket wider than a factor 2 and arithmetic
    otherwise, and every point keeps 2e-16 hi away from both ends, so a
    step next to the root crosses it instead of creeping up to it at the
    noise floor. The temporaries end with the call, before the Phi call."""
    span = g_lo - g_hi
    np.log1p(np.divide(hi - lo, lo, out=out), out=out)
    out *= g_lo / span
    np.expm1(out, out=out)
    out *= lo
    out += lo
    # out and span are >= 0 or NaN, so their sum is finite iff both are
    bad = ~np.isfinite(out + span)
    if bad.any():
        a, b = lo[bad], hi[bad]
        out[bad] = np.where(b > 2.0 * a, np.sqrt(a) * np.sqrt(b), 0.5 * (a + b))
    pad = 0.5 * _WIDTH * hi  # 2e-16 hi; an open row has room for both pads
    np.maximum(out, lo + pad, out=out)
    return np.minimum(out, hi - pad, out=out)


def _illinois(rows: tuple, phi, lo, hi, m_lo, m_hi) -> tuple:
    """Close every row's bracket, Phi-mean m_lo > 1 at lo and m_hi <= 1 at
    hi, to machine width; the final hi ends and their Phi-means overwrite
    ``hi`` and ``m_hi``, which are returned. ``rows`` is a row set
    (``_rowset``).

    Each step is the secant of log Phi-mean against log lambda (``_secant``),
    which is exact for ``power:r`` and nearly so for the log bumps. When
    the same end moves twice running, the retained end's g is scaled by
    1 - g_new / g_replaced, or by 0.5 when that is not positive (Anderson
    and Bjorck, BIT 13, 1973; the Illinois rule always halves). All open
    rows share one Phi call per step.
    """
    out, m_out = hi, m_hi
    # per open row: lo, g_lo, hi, g_hi, m_hi, the end moved last (1 lo, 0 hi, NaN neither), index
    state = np.stack((lo, np.log(m_lo), hi, np.log(m_hi), m_hi,
                      np.full(hi.size, math.nan), np.arange(hi.size)))
    for _ in range(200):
        lo, g_lo, hi, g_hi, m_hi, last, index = state
        done = hi - lo <= _WIDTH * hi
        if done.any():
            at = index[done].astype(np.intp)
            out[at], m_out[at] = hi[done], m_hi[done]
            keep = ~done
            if not keep.any():
                break
            state, rows = state.compress(keep, axis=1), _rows(rows, keep)
            lo, g_lo, hi, g_hi, m_hi, last, index = state
        new = np.empty((3, lo.size))  # the step's point, its g and Phi-mean
        g = new[1]
        new[2] = m = _phi_means(phi, rows, _secant(lo, g_lo, hi, g_hi, out=new[0]))
        np.log(m, out=g)
        above = m > 1.0
        # both ends are scaled; the replaced one is overwritten below
        scale = 1.0 - g / np.where(above, g_lo, g_hi)
        scale = np.where(above == last, np.where(scale > 0.0, scale, 0.5), 1.0)
        g_lo *= scale
        g_hi *= scale
        np.copyto(state[:2], new[:2], where=above)
        np.copyto(state[2:5], new, where=~above)
        np.copyto(last, above)
    at = index.astype(np.intp)  # rows left open after 200 steps, if any
    out[at], m_out[at] = hi, m_hi
    return out, m_out


def _unit_norm(phi) -> float:
    """Luxemburg norm u of the one cell 1.0, at machine width. By
    homogeneity a one-cell cube's norm is w * u. An OrliczSpec keeps u after
    its first solve; a plain callable is solved on every call."""
    u = getattr(phi, "_unit", None) if isinstance(phi, OrliczSpec) else None
    if u is None:
        one = _rowset([np.ones((1, 1))])
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            u = float(_illinois(one, phi, *_search(one, one[0], phi))[0][0])
        if isinstance(phi, OrliczSpec):
            object.__setattr__(phi, "_unit", u)
    return u


def _end_means(phi, rows: tuple, lo: np.ndarray, hi: np.ndarray, ends: np.ndarray) -> tuple:
    """Phi-means (at lo, at hi) of every row of the row set ``rows``, from
    one Phi call: at hi for every row, at lo for the rows where ``ends`` is
    true and +inf at lo elsewhere (lo = 0 read as lam -> 0+). The combined
    row set and its Phi-means end with the call."""
    at_lo = _rows(rows, ends)
    both = (*(np.concatenate(pair) for pair in zip(rows[:2], at_lo[:2])), rows[2] + at_lo[2])
    m = _phi_means(phi, both, np.concatenate((hi, lo[ends])))
    m_lo = np.full(hi.size, math.inf)
    m_lo[ends] = m[hi.size:]
    return m_lo, m[:hi.size].copy()


def _level_orlicz(blocks, phi, tol: float, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Luxemburg norm inf{lam > 0 : <Phi(w/lam)>_Q <= 1} of every row of
    ``blocks``, one 2D array (a level, one row per cube) or a list of them
    (several levels), whose rows share every Phi call as one row set.

    ``lo`` / ``hi`` bracket each row's norm, as the min / max of the norms
    of its descendants at any one finer level do (for one-cell rows, lo =
    hi = w * u, u the unit norm). Zero-mean rows give 0. Every other row
    takes one flow: the Phi-means at both ends come from one Phi call, a
    closed bracket (at machine width) keeps its hi end, and an open one
    whose ends straddle the unit mean goes to the Illinois steps. lo = 0 is
    read as the limit lam -> 0+, where a nonzero row's Phi-mean is +inf for
    every catalog bump. A bracket that does not hold, open but not
    straddling or closed but uncertified, is replaced by the geometric
    search from <w>_Q. A Phi-mean lower at lo than at hi beyond the float
    slack raises InvalidSpecError. The result is the hi end, certified by
    |<Phi(w/lam)>_Q - 1| <= tol (BracketingError otherwise).
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    rows = _rowset([blocks] if isinstance(blocks, np.ndarray) else blocks)
    live = _row_means(rows, rows[0]) != 0.0
    if not live.any():
        return np.zeros(live.size)
    # copies: the ends are written below, and lo and hi may be one array
    lo, hi = lo[live], hi[live]
    if not live.all():
        rows = _rows(rows, live)
    # Phi of a huge w / lam may overflow to inf, and the log of a zero or
    # infinite Phi-mean is not finite; a step from either falls back to a
    # midpoint.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        is_open = hi - lo > _WIDTH * hi
        m_lo, m_hi = _end_means(phi, rows, lo, hi, is_open & (lo > 0.0))
        if np.any(m_lo < m_hi * (1.0 - _SLACK)):
            raise InvalidSpecError("Phi-mean is not decreasing in lambda")
        redo = ~np.where(is_open, (m_lo > 1.0) & (m_hi <= 1.0), np.abs(m_hi - 1.0) <= tol)
        if redo.any():
            again = _rows(rows, redo)
            lo[redo], hi[redo], m_lo[redo], m_hi[redo] = _search(again, _row_means(again, again[0]), phi)
            is_open |= redo
        if is_open.all():  # the row set and its ends as they are, not copies
            _illinois(rows, phi, lo, hi, m_lo, m_hi)
        elif is_open.any():
            hi[is_open], m_hi[is_open] = _illinois(_rows(rows, is_open), phi, lo[is_open],
                                                   hi[is_open], m_lo[is_open], m_hi[is_open])
    gap = np.abs(m_hi - 1.0)
    if not np.all(gap <= tol):
        raise BracketingError(f"Illinois solve stalled with |Phi-mean - 1| = {np.max(gap):.3e} > tol")
    out = np.zeros(live.size)
    out[live] = hi
    return out


def orlicz_norm(
    w: GridFunction,
    cube: DyadicCube,
    phi: OrliczSpec,
    tol: float = 1e-10,
) -> float:
    """Luxemburg norm inf{lam > 0 : <Phi(w/lam)>_Q <= 1} of w on one cube.

    A one-row call of the level solver ``_level_orlicz``, bracketed like
    every cube of ``m_orlicz``: by the min and max of its cells' norms
    w * u, u Phi's unit norm, so a one-cell cube is w * u and a larger one
    is closed by the log-log Illinois steps to machine bracket width.
    Either way the certificate |<Phi(w/lam)>_Q - 1| <= tol is checked
    before the value is returned (BracketingError otherwise).
    Identically-zero w on Q gives 0 with no Phi call; tol must be positive
    (ValueError otherwise, NaN included).
    """
    require_weight(w)
    a, b = cube.cell_range(w.resolution)
    vals = w.values[a:b]
    cells = vals * _unit_norm(phi) if vals.any() else vals
    return float(_level_orlicz(vals[None, :], phi, tol, cells.min(keepdims=True),
                               cells.max(keepdims=True))[0])


def m_entropy(w: GridFunction, eps: EpsilonSpec, variant: str = "log") -> GridFunction:
    """Entropy-bump maximal function: per cell, the max of the entropy-bumped
    averages over the dyadic cubes containing it.

    One ``_entropy_levels`` sweep keeps each level's norms and lets its rho
    go, and one leaves-only max paint (``paint_leaves``) reads them; the
    rho table and a second averages pyramid are never built. A weight whose
    bumped averages overflow float64 raises InvalidWeightError.
    """
    norms = [None] * (w.resolution + 1)
    for level, _, _, vals in _entropy_levels(w, eps, variant):
        norms[level] = vals
    return GridFunction._adopt(w.resolution, paint_leaves(norms, np.maximum))


def m_orlicz(w: GridFunction, phi: OrliczSpec, tol: float = 1e-10) -> GridFunction:
    """Orlicz maximal function: per cell, sup of orlicz_norm over all dyadic
    cubes containing it.

    Every cube is one bracketed ``_level_orlicz`` row. The levels are
    solved in groups of consecutive levels, from the leaves up, one
    ``_level_orlicz`` call per group on the (2^l, 2^(n-l)) views of w, so a
    group's cubes share every Phi call and every Illinois step. A group
    holds as many levels as keep its Phi call within ``_GROUP_CELLS``
    cells, at least one: up to n = 10 that is every level, and from n = 14
    on each group is one level, the first the leaves alone. The leaves are
    closed rows lo = hi = w * u, u the norm of the one cell 1.0 (solved
    once per OrliczSpec, and not at all for an all-zero w), certified by
    their group's first Phi call. A cube's Phi-mean is the mean of its
    descendants' at any finer level, each decreasing in lambda, so its norm
    lies between theirs: a cube is bracketed by the min / max, folded up
    pairwise, of w * u over its cells in the first group and of its
    descendants' norms at the level below its group after that (a zero min
    goes straight to the Illinois steps). Every cube's certificate
    |<Phi(w/lam)>_Q - 1| <= tol is checked inside that call, so a group
    with one uncertified cube raises BracketingError; tol must be positive
    (ValueError otherwise, NaN included).
    """
    require_weight(w)
    n = w.resolution
    norms = [None] * (n + 1)
    # the norms bracketing the next group: w * u, then the coarsest solved
    below = w.values * _unit_norm(phi) if w.values.any() else w.values
    span = max(1, _GROUP_CELLS >> n)  # levels per group, the leaves one of them
    for stop in range(n + 1, 0, -span):
        top = max(0, stop - span)
        lo, hi = (np.concatenate(reduce_up(below, op)[top:stop]) for op in (np.minimum, np.maximum))
        got = _level_orlicz([w.values.reshape(1 << level, -1) for level in range(top, stop)],
                            phi, tol, lo, hi)
        for level in range(top, stop):
            norms[level] = got[(1 << level) - (1 << top) : (2 << level) - (1 << top)]
        below = norms[top]
    return GridFunction._adopt(n, paint_leaves(norms, np.maximum))


def m_coeff(f: GridFunction, alpha, cubes) -> GridFunction:
    """Coefficient maximal function: per cell, max over the member cubes Q
    containing it of alpha[Q] * <|f|>_Q; 0 where no member covers.

    ``cubes`` is a SparseCollection (read through ``members``, one boolean
    array per level); ``SparseCollection(n, cubes)`` converts DyadicCubes.
    ``alpha[l]`` is the float array of level-l coefficients, length 2^l;
    entries off the members are ignored. The checks build one flat
    coefficient array, and ``_coeff_maxima`` computes the maxima from it in
    one pass. A product that is NaN (an infinite coefficient on a zero
    average) counts as no value.

    Raises InvalidCubeError when a member is finer than f's grid (a coarser
    collection is fine), and ValueError when a level holding members has no
    coefficient array or one of the wrong length, or when a member's
    coefficient is NaN (missing) or negative; levels are checked from the
    root down, so the coarsest bad level is the one named. A ValueError
    also comes when a product is infinite.
    """
    n = f.resolution
    (out,) = _coeff_maxima(f.values[None], _flat_coefficients(cubes, alpha, n))
    return GridFunction._adopt(n, out)


def _flat_coefficients(cubes, alpha, resolution: int) -> np.ndarray:
    """m_coeff's checks of cubes and alpha at a grid of this resolution,
    turned into the flat coefficient array ``_coeff_maxima`` takes: each
    member's alpha entry in (level, index) order, NaN off the members."""
    flat = np.full((2 << resolution) - 1, math.nan)
    for level, mem in enumerate(cubes.members):
        if not mem.any():
            continue
        if level > resolution:
            raise InvalidCubeError(f"cube level {level} exceeds resolution {resolution}")
        coeff = np.asarray(alpha[level], dtype=np.float64) if level < len(alpha) else None
        if coeff is None or coeff.shape != mem.shape:
            raise ValueError(f"alpha[{level}] must hold {mem.size} coefficients")
        bad = mem & ~(coeff >= 0.0)
        if bad.any():
            first = int(np.argmax(bad))
            what = "missing" if math.isnan(coeff[first]) else "negative"
            raise ValueError(f"coefficient for {DyadicCube(level, first)} is {what}")
        # + 0.0 maps a -0.0 coefficient to +0.0, so the maxima's zero
        # cells do not take a sign from numpy's fmax loop order
        np.copyto(flat[(1 << level) - 1 : (2 << level) - 1], coeff + 0.0, where=mem)
    return flat


def _coeff_maxima(values, coeff) -> np.ndarray:
    """The coefficient maximal function of each row of ``values``, a
    (k, 2^n) stack of cell arrays: per cell, the max over the cubes Q
    containing it of coeff[Q] * <|row|>_Q, 0 where no cube has a value.
    ``coeff`` is flat in (level, index) order, level l at
    [2^l - 1, 2^(l+1) - 1), NaN off the cubes; it is not checked (m_coeff
    checks it, the fs trial draws it valid).

    One flat buffer holds the |row| averages pyramids level after level,
    each level's rows side by side, so a level of all k rows is one
    contiguous run whose pairs never straddle two rows: the pyramid is built
    from the leaves up by level_averages' (a + b) * 0.5 steps on these
    runs, and the paint from the root down multiplies each level by its
    coefficients, then takes np.fmax with the repeated level above. np.fmax
    drops NaN, so a NaN product (off the cubes, or an infinite coefficient
    on a zero average) counts as no value; a cell left NaN reads 0.
    Returns a fresh (k, 2^n) array.
    """
    k, cells = np.shape(values)
    n = cells.bit_length() - 1
    buf = np.empty(k * (2 * cells - 1))
    runs = [buf[k * ((1 << level) - 1) : k * ((2 << level) - 1)] for level in range(n + 1)]
    np.abs(values, out=runs[n].reshape(k, cells))
    for below, above in zip(runs[:0:-1], runs[-2::-1]):
        np.add(below[0::2], below[1::2], out=above)
        above *= 0.5
    with np.errstate(invalid="ignore"):  # inf * 0 is NaN: no value
        for level, run in enumerate(runs):
            rows = run.reshape(k, -1)
            rows *= coeff[(1 << level) - 1 : (2 << level) - 1]
            if level:
                np.fmax(np.repeat(runs[level - 1], 2), run, out=run)
    leaves = runs[n].reshape(k, cells)
    return np.where(np.isnan(leaves), 0.0, leaves)
