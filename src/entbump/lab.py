"""Randomized experiments against the weighted weak-type bounds.

Every experiment is driven by a TrialConfig and returns an
ExperimentReport. The suites share one trial loop, ``run_suite``: each suite
is a per-trial function that returns a TrialRecord, plus the code that turns
the records into aggregates and pass flags. Reports are deterministic
functions of the config: trial i draws from a generator seeded by (seed, i),
and serialization avoids timestamps and environment-dependent fields, so
re-running a config byte reproduces its JSON and CSV output.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .bumps import (
    EpsilonSpec,
    OrliczSpec,
    _coeff_maxima,
    _flat_coefficients,
    k_epsilon,
    m_coeff,
    m_entropy,
    m_orlicz,
    shifted_log2,
)
from .errors import ConfigError, InvalidWeightError
from .grid import (
    ROOT,
    CellSet,
    DyadicCube,
    GridFunction,
    _dot,
    _same_resolution,
    _save_json,
    integral,
    require_weight,
    weak_l1_norm,
)
from .sparse import (
    CONSTANT_BOUND,
    HaarSpec,
    _majorant,
    _proof_replay,
    cz_stopping_collection,
    haar_transform,
    proof_replay,
    sparse_dominate_bilinear,
)
from .weights import (
    a1_constant,
    a1_generator,
    ainf_constant,
    ainf_lemma_ratio,
    dyadic_maximal,
    power_weight,
)

VERSION = "0.8.0"

MAX_RESOLUTION_ENV = "ENDPOINT_LAB_MAX_N"

WEIGHT_FAMILY_FORMS = "power:<s>, a1gen, random"
DEFAULT_WEIGHT_FAMILIES = ("power:0", "power:0.5", "power:0.9", "power:0.99", "a1gen")
DEFAULT_FUNCTION_FAMILIES = ("indicator", "random", "haar_packet", "adversarial")
DEFAULT_S_LIST = (0.0, 0.5, 0.9, 0.96875)


def resolution_cap() -> int:
    """Grid-size guard rail, overridable through the environment."""
    raw = os.environ.get(MAX_RESOLUTION_ENV)
    if raw is None:
        return 18
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(
            f"{MAX_RESOLUTION_ENV} must be an integer, got {raw!r}"
        ) from None
    if value < 0:
        raise ConfigError(f"{MAX_RESOLUTION_ENV} must be nonnegative, got {value}")
    return value


def trial_rng(seed: int, index: int) -> np.random.Generator:
    """Generator for one trial; streams for distinct indices are independent."""
    return np.random.default_rng(np.random.SeedSequence([seed, index]))


@dataclass(frozen=True)
class TrialConfig:
    resolution: int = 10
    trials: int = 100
    seed: int = 0
    eps: str = "log_pow:2"
    weight_families: tuple = DEFAULT_WEIGHT_FAMILIES
    function_families: tuple = DEFAULT_FUNCTION_FAMILIES
    stopping_a: float = 4.0

    def __post_init__(self):
        if self.resolution < 0:
            raise ConfigError(f"negative resolution {self.resolution}")
        if self.trials < 1:
            raise ConfigError(f"need at least one trial, got {self.trials}")
        if self.seed < 0:
            raise ConfigError(f"negative seed {self.seed}")
        if not self.stopping_a > 2.0:
            raise ConfigError(f"stopping factor must exceed 2, got {self.stopping_a}")
        if not self.weight_families:
            raise ConfigError("weight_families must be nonempty")
        for family in self.weight_families:
            if _weight_family(family) is None:
                raise ConfigError(f"unknown weight family {family!r}")
        if not self.function_families:
            raise ConfigError("function_families must be nonempty")
        object.__setattr__(self, "weight_families", tuple(self.weight_families))
        object.__setattr__(self, "function_families", tuple(self.function_families))
        # parsed once, failing fast; not a field, so eq and repr skip it
        object.__setattr__(self, "_eps", EpsilonSpec.parse(self.eps))

    def weight_family(self, t: int) -> str:
        """Weight family of trial t, round-robin over weight_families."""
        return self.weight_families[t % len(self.weight_families)]

    def function_family(self, t: int) -> str:
        """Function family of trial t, round-robin over function_families."""
        return self.function_families[t % len(self.function_families)]

    def eps_spec(self) -> EpsilonSpec:
        return self._eps

    def to_dict(self) -> dict:
        return {
            "resolution": self.resolution,
            "trials": self.trials,
            "seed": self.seed,
            "eps": self.eps,
            "weight_families": list(self.weight_families),
            "function_families": list(self.function_families),
            "stopping_a": self.stopping_a,
        }


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    weight: str
    function: str | None
    s: float | None
    k_eps: float | None
    a1: float | None
    ainf: float | None
    quotient: float
    normalized_quotient: float | None
    passed: bool | None

    def to_dict(self) -> dict:
        # the instance dict holds exactly the fields, in field order; every
        # field is a scalar, so the shallow copy is asdict's value
        return dict(vars(self))


CSV_COLUMNS = ("trial", "s", "K_eps", "a1", "ainf", "quotient", "normalized_quotient", "pass")


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return format(value, ".17g")


@dataclass
class ExperimentReport:
    kind: str
    config: dict
    records: list = field(default_factory=list)
    aggregates: dict = field(default_factory=dict)
    pass_flags: dict = field(default_factory=dict)
    version: str = VERSION

    @property
    def all_passed(self) -> bool:
        return all(self.pass_flags.values())

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "version": self.version,
            "config": self.config,
            "aggregates": self.aggregates,
            "pass_flags": self.pass_flags,
            "all_passed": self.all_passed,
            "records": [rec.to_dict() for rec in self.records],
        }

    def save_json(self, path) -> None:
        _save_json(self.to_json_dict(), path)

    def save_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(",".join(CSV_COLUMNS) + "\n")
            for rec in self.records:
                row = (
                    rec.trial,
                    rec.s,
                    rec.k_eps,
                    rec.a1,
                    rec.ainf,
                    rec.quotient,
                    rec.normalized_quotient,
                    rec.passed,
                )
                fh.write(",".join(_csv_cell(v) for v in row) + "\n")


# ---------------------------------------------------------------------------
# Random instance generators.
# ---------------------------------------------------------------------------


def _weight_family(spec: str):
    """(name, s) of a weight family spec: ("power", s) for power:<s> with s
    in [0, 1), ("a1gen", None) or ("random", None). None when the spec names
    no family; ConfigError, naming the spec, when it names one malformed."""
    name, colon, arg = spec.partition(":")
    if name not in ("power", "a1gen", "random"):
        return None
    if name != "power":
        if colon:
            raise ConfigError(f"bad weight spec {spec!r}: {name} takes no parameter")
        return name, None
    try:
        s = float(arg)
    except ValueError:
        s = math.nan
    if not 0.0 <= s < 1.0:
        raise ConfigError(f"bad weight spec {spec!r}: power:<s> needs a number s in [0, 1)")
    return name, s


def _draw_weight(rng, resolution: int, family: str):
    """Returns (weight, s), s the exponent of a power weight, else None."""
    name, s = _weight_family(family) or (None, None)
    if name == "power":
        return power_weight(s, resolution), s
    if name == "a1gen":
        g = GridFunction._adopt(resolution, rng.standard_normal(1 << resolution))
        return a1_generator(g, float(rng.uniform(0.3, 0.95))), None
    if name == "random":
        vals = np.exp(rng.normal(0.0, 1.5, 1 << resolution))
        return GridFunction(resolution, vals), None
    raise ConfigError(f"unknown weight family {family!r}")


def _draw_function(rng, resolution: int, family: str, majorant=None) -> GridFunction:
    size = 1 << resolution
    if family == "indicator":
        level = int(rng.integers(0, resolution + 1))
        index = int(rng.integers(0, 1 << level))
        vals = np.zeros(size)
        a, b = DyadicCube(level, index).cell_range(resolution)
        vals[a:b] = 1.0
        return GridFunction._adopt(resolution, vals)
    if family == "random":
        return GridFunction._adopt(resolution, rng.standard_normal(size))
    if family == "haar_packet":
        vals = np.zeros(size)
        for _ in range(int(rng.integers(1, 6))):
            level = int(rng.integers(0, max(resolution, 1)))
            if resolution == 0:
                break
            index = int(rng.integers(0, 1 << level))
            cube = DyadicCube(level, index)
            a, b = cube.cell_range(resolution)
            mid = (a + b) // 2
            coeff = float(rng.normal()) / math.sqrt(cube.measure)
            vals[a:mid] += coeff
            vals[mid:b] -= coeff
        if not np.any(vals):
            vals[0] = 1.0
        return GridFunction._adopt(resolution, vals)
    if family == "adversarial":
        # All L1 mass on the cell where the majorant is cheapest.
        vals = np.zeros(size)
        target = 0 if majorant is None else int(np.argmin(majorant))
        vals[target] = float(size)
        return GridFunction._adopt(resolution, vals)
    raise ConfigError(f"unknown function family {family!r}")


def _majorant_norm(f: GridFunction, majorant) -> float:
    """integral |f| * majorant, the quotient's denominator; ValueError when
    it vanishes."""
    maj = majorant.values if isinstance(majorant, GridFunction) else np.asarray(majorant)
    denom = _dot(np.abs(f.values), maj) * f.cell_width
    if denom <= 0.0:
        raise ValueError("majorant norm of f vanishes, quotient undefined")
    return denom


def weak_type_quotient(g: GridFunction, w: GridFunction, f: GridFunction, majorant) -> float:
    """weak-L1(w) size of g over the L1 norm of f against the majorant."""
    denom = _majorant_norm(f, majorant)
    return weak_l1_norm(g, w) / denom


# ---------------------------------------------------------------------------
# Suite driver.
# ---------------------------------------------------------------------------


def run_suite(kind: str, cfg: TrialConfig, trial, count: int | None = None) -> ExperimentReport:
    """The trial loop of every suite.

    Trial t, for t in range(count) (``cfg.trials`` by default), returns the
    TrialRecord of ``trial(t, trial_rng(cfg.seed, t))``. The report carries
    the config and the records; the suite sets aggregates and pass flags.
    """
    count = cfg.trials if count is None else count
    records = [trial(t, trial_rng(cfg.seed, t)) for t in range(count)]
    return ExperimentReport(kind=kind, config=cfg.to_dict(), records=records)


def _running_max(values, start: float = 0.0) -> tuple:
    """(max, index) of the strict-``>`` fold of values from start: the first
    of tied maxima wins, NaN never wins, and the index is None when nothing
    beats start. This is the fold ``max(acc, x)`` computes."""
    best, argmax = start, None
    for i, x in enumerate(values):
        if x > best:
            best, argmax = x, i
    return best, argmax


# ---------------------------------------------------------------------------
# Coefficient maximal function: endpoint check with constant one.
# ---------------------------------------------------------------------------

FS_REL_TOL = 1e-9  # float slack on the right-hand side of the constant-one check


@dataclass(frozen=True)
class FsCheckResult:
    lam: float
    lhs: float
    rhs: float
    passed: bool


def fs_check(cubes, alpha, f: GridFunction, w: GridFunction, lam: float) -> FsCheckResult:
    """Check  w({M_alpha f > lam}) <= (1/lam) integral |f| M_alpha w.

    M_alpha is the coefficient maximal function ``m_coeff`` over the
    SparseCollection ``cubes`` with per-level coefficient arrays ``alpha``
    (``alpha[l]`` of length 2^l); the inequality holds with constant exactly
    one, so only float slack is allowed on the right.

    Raises ValueError for a nonpositive or NaN lam, and m_coeff's errors:
    InvalidCubeError for a member finer than the grid, ValueError for a
    missing (NaN), negative or wrongly sized coefficient array or an
    infinite product.
    """
    require_weight(w)
    if not lam > 0.0:
        raise ValueError(f"level must be positive, got {lam}")
    if f.resolution != w.resolution:
        # m_coeff's errors on f, then on w, come before the mismatch
        m_coeff(f, alpha, cubes)
        m_coeff(w, alpha, cubes)
        _same_resolution(f, w)
    n = f.resolution
    rows = _coeff_maxima((f.values, w.values), _flat_coefficients(cubes, alpha, n))
    mf, mw = (GridFunction._adopt(n, row).values for row in rows)
    return _fs_result(f, w, lam, mf, mw)


def _fs_result(f, w, lam, mf, mw) -> FsCheckResult:
    """fs_check on a valid weight and level, from the cell arrays mf and mw
    of M_alpha f and M_alpha w. Both are >= 0, so {mf > lam} is the set
    superlevel_weight measures."""
    lhs = float(w.values[mf > lam].sum() * w.cell_width)
    rhs = _dot(np.abs(f.values), mw) * f.cell_width / lam
    return FsCheckResult(lam, lhs, rhs, lhs <= rhs * (1.0 + FS_REL_TOL))


def fs_random_suite(cfg: TrialConfig) -> ExperimentReport:
    """Random weights, functions, cube families, coefficients, and levels."""
    n = cfg.resolution

    def trial(t, rng):
        wfam, ffam = cfg.weight_family(t), cfg.function_family(t)
        w, _ = _draw_weight(rng, n, wfam)
        f = _draw_function(rng, n, ffam, majorant=w.values)
        # Memberships and coefficients are drawn in (level, index) order into
        # one flat array, level l at [2^l - 1, 2^(l+1) - 1); an empty draw
        # falls back to the root alone. coeff is valid as drawn (NaN off the
        # members, in [0.1, 2) on them), so it goes to _coeff_maxima
        # unchecked, with f and w as one two-row stack.
        member = rng.random((2 << n) - 1) < 0.4
        if not member.any():
            member[0] = True
        coeff = np.full(member.size, math.nan)
        coeff[member] = rng.uniform(0.1, 2.0, int(np.count_nonzero(member)))
        mf, mw = _coeff_maxima((f.values, w.values), coeff)
        positive = mf[mf > 0]
        base = float(np.quantile(positive, float(rng.uniform(0.1, 0.9)))) if positive.size else 1.0
        lam = max(base * float(rng.uniform(0.3, 1.2)), 1e-300)
        res = _fs_result(f, w, lam, mf, mw)
        slack = 0.0 if res.rhs == 0.0 else res.lhs / res.rhs
        return TrialRecord(
            trial=t, weight=wfam, function=ffam, s=None, k_eps=None,
            a1=None, ainf=None, quotient=slack, normalized_quotient=None,
            passed=res.passed,
        )

    report = run_suite("fs", cfg, trial)
    report.aggregates = {
        "worst_lhs_over_rhs": _running_max((r.quotient for r in report.records), -math.inf)[0],
        "trials": cfg.trials,
    }
    report.pass_flags = {"constant_one": all(r.passed for r in report.records)}
    return report


# ---------------------------------------------------------------------------
# Main weak-type experiment and its A1 corollary.
# ---------------------------------------------------------------------------


def main_theorem_experiment(cfg: TrialConfig, bound: float = 64.0) -> ExperimentReport:
    """Random sign transforms against the entropy-majorant weak-type bound.

    The quotient weak-L1(w)(T f) / integral |f| M_eps w must stay below
    bound * K_eps across all trials; bound must be positive (ConfigError
    otherwise). A trial takes the denominator as soon as f is drawn and lets
    the majorant go; the signs and f go once T f is built, so the weak norm
    runs beside w and T f alone.
    """
    if not bound > 0.0:
        raise ConfigError(f"bound must be positive, got {bound}")
    eps = cfg.eps_spec()
    ke = k_epsilon(eps)
    limit = math.inf if ke.diverged else bound * ke.value
    n = cfg.resolution

    def trial(t, rng):
        wfam, ffam = cfg.weight_family(t), cfg.function_family(t)
        w, s = _draw_weight(rng, n, wfam)
        majorant = m_entropy(w, eps)
        f = _draw_function(rng, n, ffam, majorant=majorant.values)
        denom = _majorant_norm(f, majorant)
        del majorant
        tf = haar_transform(HaarSpec.from_rng(n, rng), f)
        del f
        q = weak_l1_norm(tf, w) / denom
        return TrialRecord(
            trial=t, weight=wfam, function=ffam, s=s, k_eps=ke.value,
            a1=None, ainf=None, quotient=q, normalized_quotient=q / ke.value
            if ke.value > 0 else None,
            passed=q <= limit,
        )

    report = run_suite("main", cfg, trial)
    report.config["bound"] = bound
    max_q, argmax = _running_max(r.quotient for r in report.records)
    report.aggregates = {
        "k_eps": ke.value,
        "k_eps_terms": ke.terms_used,
        "k_eps_diverged": ke.diverged,
        "bound": bound,
        "limit": limit,
        "max_quotient": max_q,
        "argmax_trial": argmax,
        "mean_quotient": float(np.mean([r.quotient for r in report.records])),
    }
    report.pass_flags = {"weak_type_bound": max_q <= limit}
    return report


def corollary_experiment(cfg: TrialConfig, s_list=DEFAULT_S_LIST) -> ExperimentReport:
    """Power weights with exponents from s_list, quotient against the plain
    L1(w) norm, normalized by a1 * shifted_log2(ainf).

    Trial t runs exponent s_list[t // cfg.trials]. The normalized maxima
    must be uniform in s: max over s at most four times the median over s.
    """
    if not s_list:
        raise ConfigError("s_list must be nonempty")
    n = cfg.resolution
    s_list = [float(s) for s in s_list]
    per_s = []
    for s in s_list:
        w = power_weight(s, n)
        a1 = a1_constant(w)
        ainf = ainf_constant(w)
        per_s.append((w, a1, ainf, a1 * float(shifted_log2(ainf))))

    def trial(t, rng):
        s_idx = t // cfg.trials
        s = s_list[s_idx]
        w, a1, ainf, norm_factor = per_s[s_idx]
        ffam = cfg.function_family(t % cfg.trials)
        f = _draw_function(rng, n, ffam, majorant=w.values)
        spec = HaarSpec.from_rng(n, rng)
        tf = haar_transform(spec, f)
        q = weak_type_quotient(tf, w, f, w)
        return TrialRecord(
            trial=t, weight=f"power:{s}", function=ffam, s=s, k_eps=None,
            a1=a1, ainf=ainf, quotient=q, normalized_quotient=q / norm_factor,
            passed=None,
        )

    report = run_suite("corollary", cfg, trial, count=cfg.trials * len(s_list))
    report.config["s_list"] = s_list
    per_s_max: dict[str, float] = {}
    for s_idx, s in enumerate(s_list):
        block = report.records[s_idx * cfg.trials:(s_idx + 1) * cfg.trials]
        per_s_max[repr(s)] = _running_max(r.normalized_quotient for r in block)[0]
    values = list(per_s_max.values())
    max_over_s = max(values)
    median_over_s = float(np.median(values))
    factor = math.inf if median_over_s == 0.0 else max_over_s / median_over_s
    if max_over_s == median_over_s:  # zero included: at n = 0, T f = 0
        factor = 1.0
    report.aggregates = {
        "per_s_max": per_s_max,
        "max_over_s": max_over_s,
        "median_over_s": median_over_s,
        "factor": factor,
    }
    report.pass_flags = {"uniform_in_s": factor <= 4.0}
    return report


# ---------------------------------------------------------------------------
# Structural sweeps.
# ---------------------------------------------------------------------------


def ainf_lemma_sweep(cfg: TrialConfig) -> ExperimentReport:
    """Random (weight, cube, subset) triples for the localized ratio
    w(E) shifted_log2(|Q|/|E|) / (w(Q) rho); must stay at or below 8."""
    n = cfg.resolution

    def trial(t, rng):
        wfam = cfg.weight_family(t)
        w, s = _draw_weight(rng, n, wfam)
        level = int(rng.integers(0, n + 1))
        index = int(rng.integers(0, 1 << level))
        cube = DyadicCube(level, index)
        a, b = cube.cell_range(n)
        sel = rng.random(b - a) < float(rng.uniform(0.05, 0.95))
        if not sel.any():
            sel[int(rng.integers(0, b - a))] = True
        mask = np.zeros(1 << n, dtype=bool)
        mask[a:b] = sel
        ratio = ainf_lemma_ratio(w, cube, CellSet(n, mask))
        return TrialRecord(
            trial=t, weight=wfam, function=None, s=s, k_eps=None,
            a1=None, ainf=None, quotient=ratio, normalized_quotient=None,
            passed=ratio <= 8.0,
        )

    report = run_suite("ainf", cfg, trial)
    max_ratio = _running_max(r.quotient for r in report.records)[0]
    report.aggregates = {"max_ratio": max_ratio}
    report.pass_flags = {"ratio_bound": max_ratio <= 8.0}
    return report


def replay_random_suite(cfg: TrialConfig) -> ExperimentReport:
    """Random stopping collections, weights, and target sets through the
    full decomposition replay; every internal check must hold with measured
    constants at or below 16."""
    eps = cfg.eps_spec()
    n = cfg.resolution
    vacuous = 0

    def trial(t, rng):
        nonlocal vacuous
        wfam, ffam = cfg.weight_family(t), cfg.function_family(t)
        w, s = _draw_weight(rng, n, wfam)
        # heavy-tailed base so stopping trees reach a few generations
        base = GridFunction(n, np.exp(rng.normal(0.0, 2.0, 1 << n)))
        coll = cz_stopping_collection(base, ROOT, cfg.stopping_a)
        # an adversarial f is drawn against the majorant the replay reads
        table, majorant = _majorant(w, eps) if ffam == "adversarial" else (None, None)
        f = _draw_function(rng, n, ffam, majorant=majorant)
        g_mask = rng.random(1 << n) < 0.5
        g_set = CellSet(n, g_mask)
        if integral(w, g_set) <= 0.0:
            g_set = CellSet.full(n)
        # only an adversarial trial holds a table to share; the others keep
        # the public entry point, the one perfbench's tracer wraps
        if table is None:
            rep = proof_replay(coll, f, w, g_set, eps)
        else:
            rep = _proof_replay(coll, f, w, g_set, eps, table, majorant)
        vacuous += int(rep.vacuous)
        return TrialRecord(
            trial=t, weight=wfam, function=ffam, s=s, k_eps=None,
            a1=None, ainf=None, quotient=rep.max_measured_constant(),
            normalized_quotient=None, passed=rep.all_ok,
        )

    report = run_suite("replay", cfg, trial)
    worst = _running_max(r.quotient for r in report.records)[0]
    report.aggregates = {
        "max_measured_constant": worst,
        "vacuous_trials": vacuous,
    }
    report.pass_flags = {
        "decomposition": all(r.passed for r in report.records),
        "constants": worst <= CONSTANT_BOUND,
    }
    return report


def domination_random_suite(
    cfg: TrialConfig, bound: float = CONSTANT_BOUND
) -> ExperimentReport:
    """Random sign transforms and test pairs against the sparse bilinear
    form over the stopping cubes of |f| + |g|; the measured pairing-to-form
    ratio must stay at or below bound, which must be positive (ConfigError
    otherwise)."""
    if not bound > 0.0:
        raise ConfigError(f"bound must be positive, got {bound}")
    n = cfg.resolution

    def trial(t, rng):
        ffam = cfg.function_family(t)
        gfam = cfg.function_family(t + 1)
        f = _draw_function(rng, n, ffam)
        g = _draw_function(rng, n, gfam)
        spec = HaarSpec.from_rng(n, rng)
        res = sparse_dominate_bilinear(spec, f, g, a=cfg.stopping_a)
        return TrialRecord(
            trial=t, weight="none", function=f"{ffam}|{gfam}", s=None,
            k_eps=None, a1=None, ainf=None, quotient=res.measured_ratio,
            normalized_quotient=None, passed=res.measured_ratio <= bound,
        )

    report = run_suite("domination", cfg, trial)
    report.config["bound"] = bound
    max_ratio, argmax = _running_max(r.quotient for r in report.records)
    report.aggregates = {
        "max_ratio": max_ratio,
        "argmax_trial": argmax,
        "bound": bound,
        "mean_ratio": float(np.mean([r.quotient for r in report.records])),
    }
    report.pass_flags = {"domination_bound": max_ratio <= bound}
    return report


def _over_dyadic(name: str, values: np.ndarray, md: np.ndarray) -> dict:
    """min / max / mean of values / md over the cells where md > 0, keyed
    ``<name>_over_dyadic_<stat>``."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(md > 0, values / md, np.nan)
    return {
        f"{name}_over_dyadic_{stat}": float(reduce(ratio))
        for stat, reduce in (("min", np.nanmin), ("max", np.nanmax), ("mean", np.nanmean))
    }


def maximal_comparison(
    w: GridFunction, eps: EpsilonSpec, phi: OrliczSpec | None = None,
    config: dict | None = None,
) -> ExperimentReport:
    """Descriptive pointwise comparison of the dyadic, entropy, and Orlicz
    maximal functions of one weight. No pass flags; the output is a profile."""
    require_weight(w)
    if not w.values.any():
        raise InvalidWeightError("weight is identically zero")
    md = dyadic_maximal(w).values
    me = m_entropy(w, eps).values
    aggregates = {
        "resolution": w.resolution,
        **_over_dyadic("entropy", me, md),
        "entropy_dominates_dyadic": bool(np.all(me >= md * (1.0 - 1e-12))),
    }
    if phi is not None:
        aggregates.update(_over_dyadic("orlicz", m_orlicz(w, phi).values, md))
    return ExperimentReport(
        kind="compare",
        config=config or {"resolution": w.resolution},
        aggregates=aggregates,
        pass_flags={},
    )
