"""Independent reference implementations used only by the tests.

Everything here is written against the definitions directly, with plain
loops and without reusing the package's ladder tricks, so agreement is
meaningful.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np


def ieee_bits(values):
    """The IEEE-754 bit patterns of float64 values, for bit-for-bit checks
    (NaN payloads and the sign of zero included)."""
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def pairwise_row_sum(a):
    """What np.add.reduce(a, axis=1) gives a C-contiguous float64 (rows, W)
    array for 1 <= W <= 128, from numpy's pairwise summation, one column
    add at a time: below 8 terms, a sequential sum from the first; from 8
    on, eight accumulators r_j over the columns j, j + 8, ..., combined as
    ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the columns
    past the last multiple of 8 added one by one. Wider rows are split in
    halves first, which this does not model."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    width = a.shape[1]
    if not 1 <= width <= 128:
        raise ValueError("pairwise_row_sum models widths 1..128")
    if width < 8:
        total = a[:, 0].copy()
        for j in range(1, width):
            total += a[:, j]
        return total
    acc = a[:, :8].copy()
    stop = width - width % 8
    for j in range(8, stop, 8):
        acc += a[:, j : j + 8]
    r = [acc[:, j] for j in range(8)]
    total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for j in range(stop, width):
        total += a[:, j]
    return total


def enumerate_cubes(resolution):
    """All DyadicCubes of the grid, ordered by (level, index)."""
    from entbump.grid import DyadicCube

    return [
        DyadicCube(level, index)
        for level in range(resolution + 1)
        for index in range(1 << level)
    ]


def cube_average(values, level, index, resolution):
    width = 1 << (resolution - level)
    a = index * width
    sel = [abs(float(v)) for v in values[a : a + width]]
    return sum(sel) / width


def brute_maximal(values, resolution):
    """M w per cell by looping over every ancestor cube."""
    size = 1 << resolution
    out = []
    for cell in range(size):
        best = 0.0
        for level in range(resolution + 1):
            idx = cell >> (resolution - level)
            best = max(best, cube_average(values, level, idx, resolution))
        out.append(best)
    return np.array(out)


def brute_rho(values, level, index, resolution):
    """rho of one cube: average of M(w 1_Q) over Q divided by <w>_Q.

    Returns nan when w vanishes on Q.
    """
    size = 1 << resolution
    width = 1 << (resolution - level)
    a = index * width
    localized = [0.0] * size
    for cell in range(a, a + width):
        localized[cell] = float(values[cell])
    w_avg = sum(localized[a : a + width]) / width
    if w_avg == 0.0:
        return math.nan
    m = brute_maximal(localized, resolution)
    m_avg = float(np.mean(m[a : a + width]))
    return m_avg / w_avg


def repeat_rho_all(w):
    """rho_all's leaf-granularity suffix-max ladder, rebuilt every level with
    np.repeat and a fresh np.maximum. Returns (values, vacuous), one array
    per level, NaN on vacuous cubes."""
    from entbump.grid import level_averages, level_sums

    avgs = level_averages(w.values)
    wsums = level_sums(w.values)
    n = w.n_cells
    values, vac = [None] * (w.resolution + 1), [None] * (w.resolution + 1)
    suffix = avgs[w.resolution].copy()
    for level in range(w.resolution, -1, -1):
        if level < w.resolution:
            suffix = np.maximum(np.repeat(avgs[level], n >> level), suffix)
        m_sums = suffix.reshape(1 << level, n >> level).sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            r = m_sums / wsums[level]
        vac[level] = wsums[level] == 0.0
        r[vac[level]] = np.nan
        values[level] = r
    return values, vac


def brute_weak_l1(g_values, w_values, resolution):
    """sup over levels of lam * w({|g| > lam}) by sweeping just below each
    distinct |g| value. Returns (value, maximizing |g| value)."""
    cell = 1.0 / (1 << resolution)
    best = 0.0
    best_level = 0.0
    for v in sorted({abs(float(x)) for x in g_values}):
        if v == 0.0:
            continue
        lam = v * (1.0 - 1e-13)
        mass = sum(
            float(wv) for gv, wv in zip(g_values, w_values) if abs(float(gv)) > lam
        ) * cell
        if lam * mass > best:
            best = lam * mass
            best_level = v
    return best, best_level


def stable_weak_l1(g_values, w_values, resolution):
    """weak_l1_norm with the cells always in stable descending order of |g|:
    cumulative weights at each position, max of value times mass."""
    vals = np.abs(np.asarray(g_values, dtype=np.float64))
    if not np.any(vals > 0):
        return 0.0
    order = np.argsort(-vals, kind="stable")
    cum_w = np.cumsum(np.asarray(w_values, dtype=np.float64)[order]) * 2.0**-resolution
    return float(np.max(vals[order] * cum_w))


def temp_weak_l1(g, w):
    """weak_l1_norm with a fresh array per step: |g|, its negation, the
    sorted values, the gathered weights, their cumsum, its scaled copy and
    the product (the unstable sort, redone stable on a tie)."""
    from entbump.grid import require_weight

    require_weight(w)
    vals = np.abs(g.values)
    if not np.any(vals > 0):
        return 0.0
    neg = -vals
    order = np.argsort(neg)
    v_sorted = vals[order]
    if (v_sorted[1:] == v_sorted[:-1]).any():
        order = np.argsort(neg, kind="stable")
        v_sorted = vals[order]
    cum_w = np.cumsum(w.values[order]) * w.cell_width
    return float(np.max(v_sorted * cum_w))


def repeat_haar_transform(spec, f):
    """haar_transform as one term array per level, built from np.repeat
    copies of the signs and the parent averages, then summed by a repeat
    paint. Returns the cell values."""
    from entbump.grid import level_averages, paint_down

    avgs = level_averages(f.values)
    terms = [np.zeros(1)] + [
        np.repeat(sigma, 2) * (avgs[level + 1] - np.repeat(avgs[level], 2))
        for level, sigma in enumerate(spec.signs)
    ]
    return paint_down(terms, np.add)[-1]


def brute_haar_apply(signs_per_level, f_values, resolution):
    """T f assembled from explicit Haar vectors, one cube at a time."""
    size = 1 << resolution
    cell = 1.0 / size
    out = np.zeros(size)
    f = np.asarray(f_values, dtype=float)
    for level in range(resolution):
        for index in range(1 << level):
            width = size >> level
            a = index * width
            h = np.zeros(size)
            scale = 1.0 / math.sqrt(width * cell)
            h[a : a + width // 2] = scale
            h[a + width // 2 : a + width] = -scale
            coeff = float(np.dot(f, h)) * cell
            out += float(signs_per_level[level][index]) * coeff * h
    return out


def brute_bilinear(cubes, f_values, g_values, resolution):
    total = 0.0
    for level, index in cubes:
        measure = 2.0 ** (-level)
        total += (
            measure
            * cube_average(f_values, level, index, resolution)
            * cube_average(g_values, level, index, resolution)
        )
    return total


def brute_sparse_apply(cubes, f_values, resolution):
    size = 1 << resolution
    out = np.zeros(size)
    for level, index in cubes:
        width = size >> level
        a = index * width
        out[a : a + width] += cube_average(f_values, level, index, resolution)
    return out


def loop_bilinear(cubes, favg, gavg):
    """sum of |Q| favg_Q gavg_Q, added one cube at a time in the given order,
    from per-level average arrays."""
    total = 0.0
    for level, index in cubes:
        total += 2.0 ** -level * favg[level][index] * gavg[level][index]
    return float(total)


def loop_sparse_apply(cubes, favg, resolution):
    """A_S f per cell: per-level arrays with favg at the members, summed
    top-down."""
    per_level = [np.zeros(1 << level) for level in range(resolution + 1)]
    for level, index in cubes:
        per_level[level][index] += favg[level][index]
    acc = per_level[0]
    for level in range(1, resolution + 1):
        acc = np.repeat(acc, 2) + per_level[level]
    return acc


def brute_cz_stopping(favg, resolution, top, a):
    """CZ stopping cubes as sorted (level, index) pairs, by the stack walk:
    from each selected cube P, descend through its subcubes until one with
    favg > a favg(P) is selected. favg holds the per-level |f| averages."""
    selected = [top]
    frontier = [top]
    while frontier:
        plev, pidx = frontier.pop()
        threshold = a * float(favg[plev][pidx])
        if plev == resolution:
            continue
        stack = [(plev + 1, 2 * pidx), (plev + 1, 2 * pidx + 1)]
        while stack:
            lev, idx = stack.pop()
            if float(favg[lev][idx]) > threshold:
                selected.append((lev, idx))
                frontier.append((lev, idx))
            elif lev < resolution:
                stack.extend([(lev + 1, 2 * idx), (lev + 1, 2 * idx + 1)])
    return sorted(selected)


def brute_carve(favg, resolution, threshold):
    """Cell mask of the union of the maximal cubes with favg > threshold,
    by a stack walk from the root."""
    mask = np.zeros(1 << resolution, dtype=bool)
    stack = [(0, 0)]
    while stack:
        lev, idx = stack.pop()
        if float(favg[lev][idx]) > threshold:
            width = 1 << (resolution - lev)
            mask[idx * width : (idx + 1) * width] = True
        elif lev < resolution:
            stack.extend([(lev + 1, 2 * idx), (lev + 1, 2 * idx + 1)])
    return mask


def _s_parent(keys, level, index):
    for lev in range(level - 1, -1, -1):
        if (lev, index >> (level - lev)) in keys:
            return (lev, index >> (level - lev))
    return None


def brute_generation_depths(cubes):
    """(level, index) -> number of strict ancestors in the set, by walking
    s_parent chains; parents come first in (level, index) order."""
    keys = set(cubes)
    depths = {}
    for cube in sorted(keys):
        parent = _s_parent(keys, *cube)
        depths[cube] = 0 if parent is None else depths[parent] + 1
    return depths


def brute_children_cover(cubes, resolution):
    """(level, index) -> cells of its direct S-children, the members whose
    nearest strict ancestor in the set it is."""
    keys = set(cubes)
    cover = {cube: 0 for cube in keys}
    for level, index in keys:
        parent = _s_parent(keys, level, index)
        if parent is not None:
            cover[parent] += 1 << (resolution - level)
    return cover


def brute_carleson(cubes, resolution):
    """(worst member, worst ratio) of the packing check: per member, the cells
    of the members strictly inside it over its cells; the first maximum in
    (level, index) order. (None, 0.0) for an empty set."""
    keys = sorted(set(cubes))
    worst, worst_ratio = None, 0.0
    for level, index in keys:
        own = 1 << (resolution - level)
        total = 0
        for lev, idx in keys:
            if lev > level and idx >> (lev - level) == index:
                total += 1 << (resolution - lev)
        if worst is None or total / own > worst_ratio:
            worst, worst_ratio = (level, index), total / own
    return worst, worst_ratio


def mp_power_cell_averages(s, resolution):
    """Cell averages of the normalized profile x^-s on [0,1), via exact
    antiderivatives in high precision."""
    import mpmath as mp

    mp.mp.dps = 50
    size = 1 << resolution
    out = []
    for j in range(size):
        a = mp.mpf(j) / size
        b = mp.mpf(j + 1) / size
        if s == 0:
            out.append(mp.mpf(1))
            continue
        integral = (b ** (1 - mp.mpf(s)) - a ** (1 - mp.mpf(s))) / (1 - mp.mpf(s))
        out.append(integral * size)
    return [float(v) for v in out]


def mp_shifted_log2(t):
    import mpmath as mp

    return mp.log(2 + t, 2)


def mp_eps_value(name, params, t):
    """Bump value at t in high precision; t may be an mpf of any size."""
    import mpmath as mp

    if name == "constant":
        return mp.mpf(params["c"])
    if name == "log_pow":
        return mp_shifted_log2(t) ** mp.mpf(params["p"])
    if name == "loglog":
        l1 = mp_shifted_log2(t)
        l2 = mp_shifted_log2(l1)
        l3 = mp_shifted_log2(l2)
        return l2 * l3 ** (1 + mp.mpf(params["delta"]))
    raise ValueError(name)


def mp_k_epsilon(name, params, tol=1e-12, max_terms=128):
    """Reference series sum with exact tower arguments, same stopping rule."""
    import mpmath as mp

    mp.mp.dps = 60
    total = mp.mpf(0)
    used = 0
    for k in range(max_terms):
        arg = mp.mpf(2) ** (mp.mpf(2) ** k)
        term = 1 / mp_eps_value(name, params, arg)
        total += term
        used += 1
        if term < tol:
            break
    return float(total), used


def temp_eps(eps, first_log):
    """An entropy bump from its first log L1 = shifted_log2(t), by the
    per-name formulas the catalog table replaced, each op a new array."""
    p = dict(eps.params)
    l1 = np.asarray(first_log, dtype=np.float64)
    if eps.name == "constant":
        return np.full_like(l1, p["c"])
    if eps.name == "log_pow":
        return np.power(l1, p["p"])
    if eps.name == "loglog":
        l2 = np.log2(2.0 + l1)
        return np.multiply(l2, np.power(np.log2(2.0 + l2), 1.0 + p["delta"]))
    raise ValueError(eps.name)


def temp_phi(phi, t):
    """An Orlicz bump at t >= 0 by the per-name formulas the catalog table
    replaced, each op a new array; ``logprod`` raises every nonzero
    exponent with np.power, 1 included."""
    p = dict(phi.params)
    arr = np.asarray(t, dtype=np.float64)
    if phi.name == "power":
        return np.power(arr, p["r"])
    if phi.name == "llog":
        return arr * np.power(np.log2(2.0 + arr), 1.0 + p["delta"])
    if phi.name == "dlr":
        l2 = np.log2(2.0 + np.log2(2.0 + arr))
        return arr * l2 * np.power(np.log2(2.0 + l2), 1.0 + p["delta"])
    if phi.name == "logprod":
        out, log_i = arr.copy(), arr
        for i in range(1, 5):
            log_i = np.log2(2.0 + log_i)
            e = p.get(f"e{i}", 0.0)
            if e:
                out = out * np.power(log_i, e)
        return out
    raise ValueError(phi.name)


def loop_bump_product(form, depth, x):
    """c * L_depth^e_depth * .. * L4^e4 of a catalog form (c, a, (e1, ..)),
    from x = L_depth (L0 = t): every log and factor a new array, the
    factors multiplied left to right (exponent 1 without np.power,
    exponent 0 left out), then c."""
    c, a, logs = form
    exps = (a, *logs)
    log, acc = np.asarray(x, dtype=np.float64), None
    for k in range(depth, len(exps)):
        if k > depth:
            log = np.log2(2.0 + log)
        if exps[k]:
            term = log if exps[k] == 1.0 else np.power(log, exps[k])
            acc = term if acc is None else acc * term
    if acc is None:
        return np.full_like(log, c)
    return acc * c if c != 1.0 else acc.copy()


def brute_orlicz_norm(values, level, index, resolution, phi, tol=1e-10):
    """Luxemburg norm inf{lam > 0 : <Phi(w/lam)>_Q <= 1} of one cube, solved
    on its own: geometric bracketing from lam0 = <w>_Q (at most 60 doublings
    each way), scalar bisection to machine bracket width, then the
    certificate |<Phi(w/lam)>_Q - 1| <= tol. Zero w on Q gives 0."""
    from entbump.errors import BracketingError, InvalidSpecError

    if tol <= 0:
        raise ValueError("tol must be positive")
    width = 1 << (resolution - level)
    vals = np.asarray(values, dtype=np.float64)[index * width : (index + 1) * width]
    lam0 = float(np.mean(vals))
    if lam0 == 0.0:
        return 0.0

    def phi_mean(lam):
        with np.errstate(over="ignore"):
            return float(np.mean(phi(vals / lam)))

    m0 = phi_mean(lam0)
    if m0 > 1.0:
        lo, hi, m_prev = lam0, lam0, m0
        for _ in range(60):
            hi *= 2.0
            m_hi = phi_mean(hi)
            if m_hi > m_prev * (1.0 + 1e-9):
                raise InvalidSpecError("Phi-mean is not decreasing in lambda")
            m_prev = m_hi
            if m_hi <= 1.0:
                break
        else:
            raise BracketingError("could not bracket the unit Phi-mean from above")
    else:
        lo, hi, m_prev = lam0, lam0, m0
        for _ in range(60):
            lo *= 0.5
            m_lo = phi_mean(lo)
            if m_lo < m_prev * (1.0 - 1e-9) and m_lo < 1.0:
                raise InvalidSpecError("Phi-mean is not decreasing in lambda")
            m_prev = m_lo
            if m_lo >= 1.0:
                break
        else:
            raise BracketingError("could not bracket the unit Phi-mean from below")

    mid = 0.5 * (lo + hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= 4e-16 * hi:
            break
        if phi_mean(mid) > 1.0:
            lo = mid
        else:
            hi = mid
    m = phi_mean(mid)
    if abs(m - 1.0) > tol:
        raise BracketingError(
            f"bisection stalled with |Phi-mean - 1| = {abs(m - 1.0):.3e} > tol"
        )
    return mid


def ancestor_max(norm, resolution):
    """Per cell, the max of norm(level, index) over the cell's ancestor
    cubes, each cube evaluated once."""
    norms = [[norm(level, j) for j in range(1 << level)] for level in range(resolution + 1)]
    return np.array([
        max(norms[level][cell >> (resolution - level)] for level in range(resolution + 1))
        for cell in range(1 << resolution)
    ])


def brute_m_orlicz(values, resolution, phi, tol=1e-10):
    """Orlicz maximal function per cell: the max of brute_orlicz_norm over
    the cell's ancestor cubes."""
    return ancestor_max(
        lambda level, j: brute_orlicz_norm(values, level, j, resolution, phi, tol), resolution
    )


def level_m_orlicz(w, phi, tol=1e-10):
    """m_orlicz solved one level at a time, each level bracketed by the
    pairwise min / max of its children's norms: the package's solver before
    levels were grouped, kept to pin the one-level groups bit for bit."""
    from entbump.bumps import _level_orlicz, _unit_norm
    from entbump.grid import GridFunction, paint_down, reduce_up, require_weight

    require_weight(w)

    def parent(left, right):
        blocks = w.values.reshape(left.size, -1)
        return _level_orlicz(blocks, phi, tol, np.minimum(left, right), np.maximum(left, right))

    leaf = w.values * _unit_norm(phi)
    per_level = reduce_up(_level_orlicz(w.values[:, None], phi, tol, leaf, leaf), parent)
    return GridFunction(w.resolution, paint_down(per_level, np.maximum)[-1])


def mp_phi_value(name, params, t):
    """Orlicz bump value at t >= 0 in high precision, from its definition."""
    import mpmath as mp

    if name == "power":
        return t ** mp.mpf(params["r"])
    if name == "llog":
        return t * mp_shifted_log2(t) ** (1 + mp.mpf(params["delta"]))
    if name == "dlr":
        l2 = mp_shifted_log2(mp_shifted_log2(t))
        return t * l2 * mp_shifted_log2(l2) ** (1 + mp.mpf(params["delta"]))
    if name == "logprod":
        out, log_i = t, t
        for i in range(1, 5):
            log_i = mp_shifted_log2(log_i)
            out *= log_i ** mp.mpf(params.get(f"e{i}", 0.0))
        return out
    raise ValueError(name)


def mp_orlicz_norm(values, level, index, resolution, phi):
    """Luxemburg norm of one cube as a high-precision root: the lam where
    the exact mean of Phi(w/lam) over the cube's cells equals 1, bracketed
    by doubling or halving from the mean and closed by Ridders' method at
    40 digits, then rounded to the nearest float. ``phi`` is an OrliczSpec,
    evaluated through mp_phi_value; zero w on Q gives 0."""
    import mpmath as mp

    mp.mp.dps = 40
    width = 1 << (resolution - level)
    cells = [mp.mpf(float(v)) for v in values[index * width : (index + 1) * width]]
    params = dict(phi.params)
    mean = mp.fsum(cells) / width
    if mean == 0:
        return 0.0

    def excess(mu):
        return mp.fsum(mp_phi_value(phi.name, params, c / (mu * mean)) for c in cells) / width - 1

    # solved for mu = lam / mean, which is of order one whatever the scale
    # of w, so the root finder's tolerances hold at 1e-310 as at 1e300
    lo = hi = mp.mpf(1)
    while excess(hi) > 0:
        hi *= 2
    while excess(lo) <= 0:
        lo /= 2
    return float(mp.findroot(excess, (lo, hi), solver="ridder") * mean)


def mp_m_orlicz(values, resolution, phi):
    """Orlicz maximal function per cell from the mp_orlicz_norm roots."""
    return ancestor_max(
        lambda level, j: mp_orlicz_norm(values, level, j, resolution, phi), resolution
    )


def brute_entropy_norm(w, cube, eps, variant="log"):
    """Entropy-bumped average of w on one cube from its own slice: the cube's
    mean times rho(w, cube) (or its shifted log) times eps(rho); 0 on a
    vacuous cube."""
    from entbump.bumps import shifted_log2
    from entbump.weights import rho

    a, b = cube.cell_range(w.resolution)
    avg = float(np.mean(w.values[a:b]))
    if avg == 0.0:
        return 0.0
    r = rho(w, cube)
    factor = r if variant == "full" else shifted_log2(r)
    return avg * factor * eps(r)


def temp_entropy_levels(w, eps, variant="log", table=None):
    """bumps._entropy_levels with fresh temporaries per level: vacuous rho
    replaced by 1, the domain check, log2(2 + rho), the clipped eps argument
    and the products, each a new array. One array of norms per level."""
    from entbump.bumps import _LOG2_3, _check_eps_domain
    from entbump.grid import level_averages
    from entbump.weights import rho_all

    if table is None:
        table = rho_all(w)
    norms = []
    for avg, r, vac in zip(level_averages(w.values), table.values, table.vacuous):
        r = np.where(vac, 1.0, r)
        _check_eps_domain(r)
        log_r = np.log2(2.0 + r)
        factor = r if variant == "full" else log_r
        vals = avg * factor * eps._eval_from_log(np.where(r < 1.0, _LOG2_3, log_r))
        vals[vac] = 0.0
        norms.append(vals)
    return norms


def temp_power_weight(s, resolution):
    """power_weight's cell values with a fresh array per step."""
    n = 1 << resolution
    if s == 0.0:
        return np.ones(n)
    t = 1.0 - s
    j = np.arange(n, dtype=np.float64)
    diffs = np.empty(n)
    diffs[0] = 1.0
    jj = j[1:]
    diffs[1:] = np.power(jj, t) * np.expm1(t * np.log1p(1.0 / jj))
    return (2.0 ** (resolution * s)) * diffs / t


def loop_m_coeff(f, alpha, cubes):
    """Coefficient maximal function cube by cube: alpha maps DyadicCube ->
    coefficient, each cube's alpha[Q] * <|f|>_Q kept when it beats the -inf
    start (so a NaN product counts as no value), then per cell the max over
    its ancestors; 0 where no cube covers. Returns a GridFunction."""
    from entbump.errors import InvalidCubeError
    from entbump.grid import GridFunction, level_averages

    n = f.resolution
    avgs = level_averages(np.abs(f.values))
    per_level = [np.full(1 << level, -math.inf) for level in range(n + 1)]
    for cube in cubes:
        if cube.level > n:
            raise InvalidCubeError(f"cube level {cube.level} exceeds resolution {n}")
        try:
            a = alpha[cube]
        except KeyError:
            raise ValueError(f"missing coefficient for {cube}") from None
        if a < 0:
            raise ValueError(f"coefficient for {cube} is negative")
        # Python floats: inf * 0 is NaN without numpy's invalid-value warning
        val = float(a) * float(avgs[cube.level][cube.index])
        if val > per_level[cube.level][cube.index]:
            per_level[cube.level][cube.index] = val
    out = np.zeros(1 << n)
    for cell in range(1 << n):
        best = -math.inf
        for level in range(n + 1):
            best = max(best, per_level[level][cell >> (n - level)])
        out[cell] = 0.0 if best == -math.inf else best
    return GridFunction(n, out)


def loop_fs_random_suite(cfg):
    """fs_random_suite with one scalar draw per cube and per coefficient, a
    DyadicCube-keyed alpha dict and loop_m_coeff."""
    from entbump.grid import ROOT, DyadicCube, superlevel_weight
    from entbump.lab import (
        ExperimentReport,
        TrialRecord,
        _draw_function,
        _draw_weight,
        trial_rng,
    )

    # the fs gate is constant one, so the config leaves the bound out
    config = {key: value for key, value in cfg.to_dict().items() if key != "bound"}
    report = ExperimentReport(kind="fs", config=config)
    n = cfg.resolution
    worst_slack = -math.inf
    for i in range(cfg.trials):
        rng = trial_rng(cfg.seed, i)
        wfam = cfg.weight_families[i % len(cfg.weight_families)]
        ffam = cfg.function_families[i % len(cfg.function_families)]
        w, _ = _draw_weight(rng, n, wfam)
        f = _draw_function(rng, n, ffam, majorant=w.values)
        cubes = [
            DyadicCube(level, index)
            for level in range(n + 1)
            for index in range(1 << level)
            if rng.random() < 0.4
        ]
        if not cubes:
            cubes = [ROOT]
        alpha = {cube: float(rng.uniform(0.1, 2.0)) for cube in cubes}
        mf = loop_m_coeff(f, alpha, cubes)
        positive = mf.values[mf.values > 0]
        base = float(np.quantile(positive, float(rng.uniform(0.1, 0.9)))) if positive.size else 1.0
        lam = max(base * float(rng.uniform(0.3, 1.2)), 1e-300)
        lhs = superlevel_weight(mf, lam, w)
        mw = loop_m_coeff(w, alpha, cubes)
        rhs = float(np.add.reduce(np.abs(f.values) * mw.values)) * f.cell_width / lam
        slack = 0.0 if rhs == 0.0 else lhs / rhs
        worst_slack = max(worst_slack, slack)
        report.records.append(
            TrialRecord(
                trial=i, weight=wfam, function=ffam, s=None, k_eps=None,
                a1=None, ainf=None, quotient=slack, normalized_quotient=None,
                passed=lhs <= rhs * (1.0 + 1e-9),
            )
        )
    report.aggregates = {"worst_lhs_over_rhs": worst_slack, "trials": cfg.trials}
    report.pass_flags = {"constant_one": all(r.passed for r in report.records)}
    return report


def entries_rho_csv(table, path):
    """RhoTable's CSV written cube by cube with csv.writer."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["level", "index", "rho", "vacuous"])
        for level, (level_vals, level_vac) in enumerate(zip(table.values, table.vacuous)):
            for index in range(1 << level):
                value, vac = float(level_vals[index]), bool(level_vac[index])
                writer.writerow([level, index, f"{value:.17g}", int(vac)])


def effective_rho(value):
    """rho with the vacuous sentinel (NaN) replaced by 1."""
    return 1.0 if math.isnan(value) else value


def level_class(avg_f, w_g):
    """The k >= -1 with avg_f in (4^{-k-1}, 4^{-k}] / w(G), found by a
    log guess and unit steps; k = -2 when avg_f w(G) is in (4, 16]."""
    x = avg_f * w_g
    k = max(-1, int(math.floor(-math.log(x, 4.0))) - 1)
    while 4.0 ** (-k) < x:
        k -= 1
    while k < 1100 and 4.0 ** (-k - 1) >= x:
        k += 1
    return k


def rho_bin(rho_value):
    """The r >= 0 with shifted_log2(rho) in (2^r, 2^{r+1}], by unit steps
    (r = 0 also when shifted_log2(rho) <= 1)."""
    from entbump.bumps import shifted_log2

    val = shifted_log2(rho_value)
    r = 0
    while val > 2.0 ** (r + 1):
        r += 1
    return r


def loop_proof_replay(s, f, w, g_set, eps):
    """proof_replay member by member: DyadicCube groups per (r, k) band and
    per rho-bin, records rewritten once generations are known, and the
    far-band disjointness sum over every (member, band descendant) pair with
    one E-set mask per pair."""
    from entbump.bumps import m_coeff, m_entropy
    from entbump.grid import (
        CellSet,
        GridFunction,
        integral,
        level_averages,
        level_sums,
        paint_down,
        restrict,
    )
    from entbump.sparse import (
        BandRecord,
        CubeClassRecord,
        ProofReplayReport,
        SparseCollection,
        _ancestor_counts,
        _at_members,
        _positions,
        split_eight,
    )
    from entbump.weights import rho_all

    constant_bound, rel_tol = 16.0, 1e-9
    n = f.resolution
    w_g = integral(w, g_set)
    majorant = m_entropy(w, eps, variant="log")
    denom = float(np.add.reduce(np.abs(f.values) * majorant.values)) * f.cell_width
    threshold = 4.0 / w_g
    if denom == 0.0:
        return ProofReplayReport(
            resolution=n, normalization=0.0, w_g=w_g, w_h=0.0, w_gprime=w_g,
            threshold=threshold, fs_ok=True, doubling_ok=True, vacuous=True,
        )
    fn = GridFunction(n, f.values / denom)
    favg = level_averages(np.abs(fn.values))
    h_set = CellSet(n, paint_down(favg, np.maximum)[-1] > threshold)
    w_h = integral(w, h_set)
    g_prime = g_set.difference(h_set)
    w_gprime = integral(w, g_prime)
    wgp_sums = level_sums(restrict(w, g_prime).values)
    cell_width = f.cell_width

    def w_gprime_on(cube):
        return float(wgp_sums[cube.level][cube.index]) * cell_width

    table = rho_all(w)
    report = ProofReplayReport(
        resolution=n, normalization=denom, w_g=w_g, w_h=w_h, w_gprime=w_gprime,
        threshold=threshold,
        fs_ok=w_h <= 0.25 * w_g * (1.0 + rel_tol),
        doubling_ok=w_g <= 2.0 * w_gprime * (1.0 + rel_tol),
    )
    unit = [np.ones(1 << level) for level in range(n + 1)]
    records = []
    for part_idx, part in enumerate(split_eight(s)):
        first_rec = len(records)
        groups, bin_members = {}, {}
        for cube in part:
            avg_f = float(favg[cube.level][cube.index])
            if avg_f > threshold * (1.0 + 1e-12):
                records.append(CubeClassRecord(
                    cube.level, cube.index, part_idx, None, None, None, "above-threshold"))
                continue
            if avg_f == 0.0:
                records.append(CubeClassRecord(
                    cube.level, cube.index, part_idx, None, None, None, "zero-average"))
                continue
            k = level_class(avg_f, w_g)
            rho_q = float(table.values[cube.level][cube.index])
            r = rho_bin(effective_rho(rho_q))
            groups.setdefault((r, k), []).append(cube)
            bin_members.setdefault(r, []).append(cube)
            records.append(
                CubeClassRecord(cube.level, cube.index, part_idx, r, k, None, None))
        rec_lookup = {
            (rec.level, rec.index): i
            for i, rec in enumerate(records[first_rec:], start=first_rec)
            if rec.discard_reason is None
        }
        coarse_rhs = {}
        for r, members in bin_members.items():
            m_s = m_coeff(w, unit, SparseCollection(n, members))
            coarse_rhs[r] = float(np.add.reduce(np.abs(fn.values) * m_s.values)) * cell_width

        for (r, k), members in sorted(groups.items()):
            sub = SparseCollection(n, members)
            depth = _ancestor_counts(sub)
            gens = _at_members(sub, depth).tolist()
            by_gen = {}
            for i, cube in enumerate(members):
                by_gen.setdefault(gens[i], []).append(i)
                j = rec_lookup[(cube.level, cube.index)]
                old = records[j]
                records[j] = CubeClassRecord(
                    old.level, old.index, old.part, old.r, old.k, gens[i], None)
            band_sum = sum(float(favg[c.level][c.index]) * w_gprime_on(c) for c in members)
            if k <= 10 * (1 << r):
                rhs = coarse_rhs[r]
                if band_sum == 0.0:
                    constant = 0.0
                elif rhs == 0.0:
                    constant = math.inf
                else:
                    constant = band_sum / rhs
                report.band_records.append(BandRecord(
                    part=part_idx, r=r, k=k, regime="coarse",
                    cube_count=len(members), band_sum=band_sum, coarse_constant=constant,
                    coarse_ok=constant <= constant_bound * (1.0 + rel_tol)))
            else:
                owner = _positions(sub)[-1]
                disjoint_sum = 0.0
                for i, cube in enumerate(members):
                    avg_f = float(favg[cube.level][cube.index])
                    for gen in range(gens[i], max(gens) + 1):
                        for j in by_gen[gen]:
                            if cube.contains(members[j]):
                                eq = owner == j
                                eq_w = float(np.dot(
                                    w.values[eq], g_prime.mask[eq].astype(np.float64)
                                )) * cell_width
                                disjoint_sum += avg_f * eq_w
                disjoint_limit = constant_bound * (2.0 ** (-k)) * (1.0 + rel_tol)
                report.band_records.append(BandRecord(
                    part=part_idx, r=r, k=k, regime="far",
                    cube_count=len(members), band_sum=band_sum,
                    disjoint_constant=disjoint_sum * (2.0 ** k),
                    disjoint_ok=(disjoint_sum == 0.0) or (disjoint_sum <= disjoint_limit)))
    return dataclasses.replace(report, cube_columns=cube_columns(records))


def cube_columns(records):
    """CubeClassRecords as the report's cube columns: one tuple per field of
    CubeClassRecord, in record order (its seven fields empty for no record)."""
    return tuple(zip(*(dataclasses.astuple(rec) for rec in records))) or ((),) * 7


def level_proof_replay(s, f, w, g_set, eps):
    """proof_replay part by part on per-level arrays: each of the eight
    parts classified in one pass, each (r, k) band a member mask of the part
    with whole-grid sweeps for its generations and E_Q cells, and one
    m_coeff paint per rho-bin for the coarse right-hand side."""
    from entbump.bumps import m_coeff
    from entbump.grid import (
        CellSet,
        GridFunction,
        integral,
        level_averages,
        level_sums,
        paint_down,
        require_weight,
        restrict,
        split_levels,
    )
    from entbump.sparse import (
        CONSTANT_BOUND,
        REL_TOL,
        BandRecord,
        CubeClassRecord,
        ProofReplayReport,
        SparseCollection,
        _ancestor_counts,
        _at_members,
        _level_class,
        _member_coords,
        _positions,
        _rho_bin,
        split_eight,
    )
    from entbump.weights import rho_all

    def select(part, keep):
        flat = np.concatenate(part.members)
        sel = np.zeros_like(flat)
        sel[flat] = keep
        return SparseCollection._from_members(split_levels(sel, part.resolution))

    def distinct(values):
        return sorted(set(values.tolist()))

    def chain_sums(part, per_level):
        terms = [np.where(mem, v, 0.0) for mem, v in zip(part.members, per_level)]
        return _at_members(part, paint_down(terms, np.add))

    require_weight(w)
    n = f.resolution
    w_g = integral(w, g_set)
    table = rho_all(w)
    majorant = paint_down(temp_entropy_levels(w, eps, "log", table), np.maximum)[-1]
    denom = float(np.add.reduce(np.abs(f.values) * majorant)) * f.cell_width
    threshold = 4.0 / w_g
    if denom == 0.0:
        return ProofReplayReport(
            resolution=n, normalization=0.0, w_g=w_g, w_h=0.0, w_gprime=w_g,
            threshold=threshold, fs_ok=True, doubling_ok=True, vacuous=True,
        )
    fn = GridFunction(n, f.values / denom)
    favg = level_averages(np.abs(fn.values))
    h_set = CellSet(n, paint_down(favg, np.maximum)[-1] > threshold)
    w_h = integral(w, h_set)
    g_prime = g_set.difference(h_set)
    w_gprime = integral(w, g_prime)
    wgp_cells = restrict(w, g_prime).values
    wgp_sums = level_sums(wgp_cells)
    cell_width = f.cell_width
    report = ProofReplayReport(
        resolution=n, normalization=denom, w_g=w_g, w_h=w_h, w_gprime=w_gprime,
        threshold=threshold,
        fs_ok=w_h <= 0.25 * w_g * (1.0 + REL_TOL),
        doubling_ok=w_g <= 2.0 * w_gprime * (1.0 + REL_TOL),
    )

    records = []
    unit = [np.ones(1 << level) for level in range(n + 1)]
    for part_idx, part in enumerate(split_eight(s)):
        avg = _at_members(part, favg)
        wgp = _at_members(part, wgp_sums) * cell_width
        rho_m = _at_members(part, table.values)
        above = avg > threshold * (1.0 + 1e-12)
        zero = avg == 0.0
        classified = ~above & ~zero
        k = _level_class(avg, w_g)
        r = _rho_bin(np.where(np.isnan(rho_m), 1.0, rho_m))
        generation = np.zeros_like(r)

        for rb in distinct(r[classified]):
            in_bin = classified & (r == rb)
            m_s = m_coeff(w, unit, select(part, in_bin))
            rhs = float(np.add.reduce(np.abs(fn.values) * m_s.values)) * cell_width
            for kb in distinct(k[in_bin]):
                in_band = in_bin & (k == kb)
                band = select(part, in_band)
                generation[in_band] = _at_members(band, _ancestor_counts(band))
                band_sum = float(np.cumsum(avg[in_band] * wgp[in_band])[-1])
                count = int(np.count_nonzero(in_band))
                shared = dict(part=part_idx, r=rb, k=kb, cube_count=count, band_sum=band_sum)
                if kb <= 10 * (1 << rb):
                    if band_sum == 0.0:
                        constant = 0.0
                    elif rhs == 0.0:
                        constant = math.inf
                    else:
                        constant = band_sum / rhs
                    report.band_records.append(BandRecord(
                        regime="coarse", **shared, coarse_constant=constant,
                        coarse_ok=constant <= CONSTANT_BOUND * (1.0 + REL_TOL),
                    ))
                else:
                    owner = _positions(band)[-1]
                    eq_w = np.bincount(owner + 1, weights=wgp_cells, minlength=count + 1)
                    disjoint_sum = float(
                        np.add.reduce(chain_sums(band, favg) * (eq_w[1:] * cell_width))
                    )
                    disjoint_limit = CONSTANT_BOUND * (2.0 ** (-kb)) * (1.0 + REL_TOL)
                    report.band_records.append(BandRecord(
                        regime="far", **shared, disjoint_constant=disjoint_sum * (2.0 ** kb),
                        disjoint_ok=(disjoint_sum == 0.0) or (disjoint_sum <= disjoint_limit),
                    ))

        reason = np.full(avg.size, None)
        reason[zero] = "zero-average"
        reason[above] = "above-threshold"
        levels, index = _member_coords(part)
        records += [
            CubeClassRecord(lv, ix, part_idx, None, None, None, why)
            if why
            else CubeClassRecord(lv, ix, part_idx, rr, kk, gen, None)
            for lv, ix, rr, kk, gen, why in zip(
                levels.tolist(), index.tolist(), r.tolist(), k.tolist(),
                generation.tolist(), reason.tolist(),
            )
        ]
    return dataclasses.replace(report, cube_columns=cube_columns(records))
