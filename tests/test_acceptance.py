"""End-to-end acceptance criteria.

Each test exercises one headline guarantee at its stated tolerance and
budget, and prints one ACCEPTANCE line. Run with -s (or -rA) to see the
lines; the pytest verdict per test carries the same information.
"""

import math
import time

import numpy as np
import pytest

from entbump import (
    CellSet,
    DyadicCube,
    EpsilonSpec,
    GridFunction,
    OrliczSpec,
    ROOT,
    SparseCollection,
    TrialConfig,
    ainf_lemma_sweep,
    carleson_check,
    corollary_experiment,
    cz_stopping_collection,
    domination_random_suite,
    fs_random_suite,
    k_epsilon,
    main_theorem_experiment,
    orlicz_norm,
    replay_random_suite,
    rho_all,
    split_eight,
    strong_sparseness_check,
    weak_l1_norm,
)
from entbump.grid import average
from entbump.lab import DEFAULT_S_LIST, trial_rng

from oracles import brute_rho, brute_weak_l1, enumerate_cubes


def _line(num: int, name: str, ok: bool, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {num} {name}{suffix}"


def test_acceptance_01_fs_constant_one():
    start = time.perf_counter()
    report = fs_random_suite(TrialConfig(resolution=8, trials=1000, seed=0))
    elapsed = time.perf_counter() - start
    worst = report.aggregates["worst_lhs_over_rhs"]
    ok = report.all_passed and worst <= 1.0 + 1e-9 and elapsed <= 30.0
    _line(1, "endpoint-constant-one", ok,
          f"worst lhs/rhs {worst:.6f}, {elapsed:.1f}s")


def test_acceptance_02_eight_way_split():
    start = time.perf_counter()
    checked = 0
    for i in range(500):
        n = 12 if i % 5 == 0 else 8
        a = 2.5 if i % 2 == 0 else 4.0
        rng = trial_rng(20, i)
        base = GridFunction(n, np.exp(rng.normal(0.0, 2.0, 1 << n)))
        coll = cz_stopping_collection(base, ROOT, a)
        assert carleson_check(coll, lam=2.0).passed
        parts = split_eight(coll)
        back = sorted(
            (q for part in parts for q in part), key=lambda q: (q.level, q.index)
        )
        assert back == list(coll.cubes)
        for part in parts:
            assert strong_sparseness_check(part, bound=0.25).passed
        checked += 1
    elapsed = time.perf_counter() - start
    ok = checked == 500 and elapsed <= 60.0
    _line(2, "eight-way-split", ok, f"{checked} collections, {elapsed:.1f}s")


def test_acceptance_03_rho_exactness_and_speed():
    start = time.perf_counter()
    worst_rel = 0.0
    for i in range(50):
        rng = trial_rng(30, i)
        n = int(rng.integers(0, 7))
        vals = np.exp(rng.normal(0.0, 1.5, 1 << n))
        vals[rng.random(1 << n) < 0.3] = 0.0  # force vacuous cubes
        if not vals.any():
            vals[0] = 1.0
        w = GridFunction(n, vals)
        table = rho_all(w)
        for cube in enumerate_cubes(n):
            value = float(table.values[cube.level][cube.index])
            ref = brute_rho(vals, cube.level, cube.index, n)
            if table.vacuous[cube.level][cube.index]:
                assert math.isnan(ref)
            else:
                assert value >= 1.0  # exact in floats, no epsilon
                rel = abs(value - ref) / ref
                worst_rel = max(worst_rel, rel)
    assert worst_rel <= 1e-12
    big = GridFunction(16, np.exp(trial_rng(31, 0).normal(0.0, 1.5, 1 << 16)))
    big_start = time.perf_counter()
    rho_all(big)
    big_elapsed = time.perf_counter() - big_start
    elapsed = time.perf_counter() - start
    ok = big_elapsed <= 5.0
    _line(3, "rho-table-exactness", ok,
          f"worst rel err {worst_rel:.2e}, n=16 table {big_elapsed:.2f}s, total {elapsed:.1f}s")


def test_acceptance_04_localized_ratio_bound():
    start = time.perf_counter()
    report = ainf_lemma_sweep(TrialConfig(resolution=10, trials=1000, seed=0))
    elapsed = time.perf_counter() - start
    max_ratio = report.aggregates["max_ratio"]
    ok = report.all_passed and max_ratio <= 8.0 and elapsed <= 60.0
    _line(4, "localized-ratio-bound", ok,
          f"max ratio {max_ratio:.4f}, {elapsed:.1f}s")


def test_acceptance_05_weak_type_bound():
    start = time.perf_counter()
    cfg12 = TrialConfig(resolution=12, trials=200, seed=0)
    report12 = main_theorem_experiment(cfg12)
    cfg8 = TrialConfig(resolution=8, trials=200, seed=0)
    report8 = main_theorem_experiment(cfg8)
    elapsed = time.perf_counter() - start
    ke = k_epsilon(EpsilonSpec.log_pow(2.0)).value
    limit = 64.0 * ke
    max12 = report12.aggregates["max_quotient"]
    max8 = report8.aggregates["max_quotient"]
    stable = max12 <= 2.0 * max8
    ok = (
        report12.all_passed
        and max12 <= limit
        and report12.aggregates["limit"] == pytest.approx(limit)
        and stable
        and elapsed <= 300.0
    )
    _line(5, "weak-type-bound", ok,
          f"max {max12:.4f} vs limit {limit:.4f}, n=8 max {max8:.4f}, {elapsed:.1f}s")


def test_acceptance_06_power_weight_uniformity():
    start = time.perf_counter()
    report = corollary_experiment(
        TrialConfig(resolution=10, trials=150, seed=0), DEFAULT_S_LIST
    )
    elapsed = time.perf_counter() - start
    factor = report.aggregates["factor"]
    ok = report.all_passed and factor <= 4.0 and elapsed <= 300.0
    _line(6, "power-weight-uniformity", ok,
          f"max/median {factor:.3f} over s={list(DEFAULT_S_LIST)}, {elapsed:.1f}s")


def test_acceptance_07_sparse_domination():
    start = time.perf_counter()
    report = domination_random_suite(
        TrialConfig(resolution=10, trials=500, seed=0, bound=16.0)
    )
    elapsed = time.perf_counter() - start
    max_ratio = report.aggregates["max_ratio"]
    ok = report.all_passed and max_ratio <= 16.0 and elapsed <= 120.0
    _line(7, "sparse-domination", ok, f"max ratio {max_ratio:.4f}, {elapsed:.1f}s")


def test_acceptance_08_decomposition_replay():
    start = time.perf_counter()
    report = replay_random_suite(TrialConfig(resolution=10, trials=100, seed=0))
    elapsed = time.perf_counter() - start
    worst = report.aggregates["max_measured_constant"]
    ok = report.all_passed and worst <= 16.0 and elapsed <= 120.0
    _line(8, "decomposition-replay", ok,
          f"max constant {worst:.4f}, {elapsed:.1f}s")


def test_acceptance_09_orlicz_norm_precision():
    rng = trial_rng(90, 0)
    worst_identity = 0.0
    for _ in range(25):
        n = int(rng.integers(1, 7))
        w = GridFunction(n, np.exp(rng.normal(0.0, 1.5, 1 << n)))
        level = int(rng.integers(0, n + 1))
        index = int(rng.integers(0, 1 << level))
        q = DyadicCube(level, index)
        got = orlicz_norm(w, q, OrliczSpec.power(1.0))
        want = average(w, q)
        worst_identity = max(worst_identity, abs(got - want) / want)
    two_cell = orlicz_norm(GridFunction(1, [2.0, 0.0]), ROOT, OrliczSpec.power(2.0))
    sqrt2_err = abs(two_cell - math.sqrt(2.0))
    worst_cert = 0.0
    tol = 1e-10
    for spec in (OrliczSpec.power(2.0), OrliczSpec.llog(0.5), OrliczSpec.dlr(0.25)):
        for _ in range(10):
            n = int(rng.integers(1, 7))
            w = GridFunction(n, np.exp(rng.normal(0.0, 1.5, 1 << n)))
            lam = orlicz_norm(w, ROOT, spec, tol=tol)
            mean = float(np.mean(spec(w.values / lam)))
            worst_cert = max(worst_cert, abs(mean - 1.0))
    ok = worst_identity <= 1e-12 and sqrt2_err <= 1e-10 and worst_cert <= tol
    _line(9, "orlicz-norm-precision", ok,
          f"identity {worst_identity:.2e}, sqrt2 {sqrt2_err:.2e}, certificate {worst_cert:.2e}")


def test_acceptance_10_weak_l1_oracle_agreement():
    worst = 0.0
    for i in range(200):
        rng = trial_rng(100, i)
        n = int(rng.integers(0, 7))
        size = 1 << n
        g_vals = rng.standard_normal(size)
        if rng.random() < 0.2:
            g_vals[rng.random(size) < 0.5] = 0.0
        w_vals = np.exp(rng.normal(0.0, 1.5, size))
        if rng.random() < 0.2:
            w_vals[rng.random(size) < 0.5] = 0.0
        got = weak_l1_norm(GridFunction(n, g_vals), GridFunction(n, w_vals))
        want, _ = brute_weak_l1(g_vals, w_vals, n)
        w_total = float(np.sum(w_vals)) / size
        slack = 1e-12 * max(got, want) + 2.0**-40 * max(w_total, 1.0)
        err = abs(got - want)
        assert err <= slack, (got, want, n)
        worst = max(worst, err)
    _line(10, "weak-l1-oracle-agreement", True, f"worst abs err {worst:.2e}")
